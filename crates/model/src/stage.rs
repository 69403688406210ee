//! Inference stages and request shapes (paper Section 2.1).

/// One execution phase of transformer inference.
///
/// Summarization processes all input tokens at once (matrix-matrix FCs);
/// each generation step processes one new token against the KV cache
/// (matrix-vector FCs) — the paper's central workload dichotomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Prefill over `tokens` input tokens.
    Summarization {
        /// Number of input tokens processed together.
        tokens: u64,
    },
    /// One decode step with `past_tokens` already in the KV cache (the
    /// new token attends to `past_tokens + 1` positions).
    Generation {
        /// Tokens already generated/summarized before this step.
        past_tokens: u64,
    },
}

impl Stage {
    /// Tokens processed concurrently in this stage (the GEMM `m`).
    pub fn batch_tokens(&self) -> u64 {
        match self {
            Stage::Summarization { tokens } => *tokens,
            Stage::Generation { .. } => 1,
        }
    }

    /// Sequence length visible to attention in this stage.
    pub fn attended_tokens(&self) -> u64 {
        match self {
            Stage::Summarization { tokens } => *tokens,
            Stage::Generation { past_tokens } => past_tokens + 1,
        }
    }

    /// Whether this is a generation step.
    pub fn is_generation(&self) -> bool {
        matches!(self, Stage::Generation { .. })
    }
}

/// An end-to-end request: `input` tokens summarized, then `output` tokens
/// generated — the `(input, output)` pairs of Figures 8/9.
///
/// # Examples
///
/// ```
/// use ianus_model::{RequestShape, Stage};
/// let req = RequestShape::new(128, 3);
/// let stages: Vec<Stage> = req.stages().collect();
/// assert_eq!(stages.len(), 3); // prefill + 2 more decode steps
/// assert_eq!(stages[0], Stage::Summarization { tokens: 128 });
/// assert_eq!(stages[1], Stage::Generation { past_tokens: 128 });
/// assert_eq!(stages[2], Stage::Generation { past_tokens: 129 });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestShape {
    /// Input (prompt) tokens.
    pub input: u64,
    /// Output tokens produced. The first output token comes from the
    /// summarization stage itself (as in DFX/the paper), so a request
    /// runs `output - 1` generation steps.
    pub output: u64,
}

impl RequestShape {
    /// Creates a request shape.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` is zero.
    pub fn new(input: u64, output: u64) -> Self {
        assert!(input > 0 && output > 0, "degenerate request");
        RequestShape { input, output }
    }

    /// Number of generation steps executed.
    ///
    /// Saturating: the fields are `pub`, so a struct-literal
    /// `output: 0` can bypass [`RequestShape::new`]'s assert; such a
    /// degenerate request runs zero steps instead of wrapping to
    /// `u64::MAX` in release builds.
    pub fn generation_steps(&self) -> u64 {
        self.output.saturating_sub(1)
    }

    /// Total tokens resident in the KV cache when the request completes:
    /// `input + output − 1` (the last generated token is sampled but
    /// never attended to). Saturating against struct-literal zeros, like
    /// [`Self::generation_steps`].
    pub fn total_tokens(&self) -> u64 {
        self.input.saturating_add(self.output.saturating_sub(1))
    }

    /// Iterates every stage of the request in execution order.
    pub fn stages(&self) -> impl Iterator<Item = Stage> + '_ {
        let input = self.input;
        std::iter::once(Stage::Summarization { tokens: input }).chain(
            (0..self.generation_steps()).map(move |i| Stage::Generation {
                past_tokens: input + i,
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_token_accounting() {
        let s = Stage::Summarization { tokens: 256 };
        assert_eq!(s.batch_tokens(), 256);
        assert_eq!(s.attended_tokens(), 256);
        let g = Stage::Generation { past_tokens: 256 };
        assert_eq!(g.batch_tokens(), 1);
        assert_eq!(g.attended_tokens(), 257);
        assert!(g.is_generation() && !s.is_generation());
    }

    #[test]
    fn single_output_has_no_generation() {
        let req = RequestShape::new(128, 1);
        assert_eq!(req.stages().count(), 1);
        assert_eq!(req.generation_steps(), 0);
    }

    #[test]
    fn past_tokens_grow_monotonically() {
        let req = RequestShape::new(64, 16);
        let pasts: Vec<u64> = req
            .stages()
            .filter_map(|s| match s {
                Stage::Generation { past_tokens } => Some(past_tokens),
                _ => None,
            })
            .collect();
        assert_eq!(pasts.len(), 15);
        assert_eq!(pasts[0], 64);
        assert_eq!(*pasts.last().unwrap(), 78);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_output_rejected() {
        let _ = RequestShape::new(8, 0);
    }

    #[test]
    fn struct_literal_zero_output_saturates() {
        // Regression: the fields are `pub`, so `output: 0` can bypass
        // `new()`'s assert. `generation_steps` must not wrap to
        // `u64::MAX` (a near-infinite loop in request execution) and
        // `stages()` must yield only the summarization stage.
        let rogue = RequestShape {
            input: 8,
            output: 0,
        };
        assert_eq!(rogue.generation_steps(), 0);
        assert_eq!(rogue.total_tokens(), 8);
        assert_eq!(rogue.stages().count(), 1);
        // Even both-zero literals stay finite.
        let degenerate = RequestShape {
            input: 0,
            output: 0,
        };
        assert_eq!(degenerate.generation_steps(), 0);
        assert_eq!(degenerate.total_tokens(), 0);
    }

    #[test]
    fn total_tokens_counts_attended_positions() {
        assert_eq!(RequestShape::new(128, 1).total_tokens(), 128);
        assert_eq!(RequestShape::new(128, 64).total_tokens(), 191);
    }
}
