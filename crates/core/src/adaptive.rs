//! Algorithm 1: adaptive compile-time mapping of FC layers.
//!
//! For every FC command the compiler estimates the completion time on
//! the NPU matrix unit (pipelined weight loading + systolic compute, minus
//! any prefetch hidden behind a preceding vector op) and on PIM
//! (token-sequential GEMV), and assigns the FC to whichever finishes
//! sooner — the paper's Algorithm 1. Figure 12 evaluates exactly this
//! decision for 4/8/16 input tokens across the GPT-2 family.
//!
//! The planner prices the matrix unit itself from analytic unit models.
//! The PIM estimate is the caller's: the compiler reads it from the same
//! per-compile GEMV cost table its PIM commands are priced from, so each
//! distinct [`GemvShape`] is simulated once per compile.

use ianus_model::FcShape;
use ianus_npu::{DmaEngine, MatrixUnit};
use ianus_pim::GemvShape;
use ianus_sim::Duration;

/// Execution unit chosen for an FC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcUnit {
    /// NPU matrix unit with DMA-pipelined weight streaming.
    MatrixUnit,
    /// PIM GEMV (batch = token count).
    Pim,
}

/// The Algorithm 1 planner.
///
/// # Examples
///
/// ```
/// use ianus_core::adaptive::{AdaptivePlanner, FcUnit};
/// use ianus_core::SystemConfig;
/// use ianus_model::FcShape;
/// use ianus_pim::PimModel;
/// use ianus_sim::Duration;
///
/// let cfg = SystemConfig::ianus();
/// let planner = AdaptivePlanner::new(&cfg);
/// let pim = PimModel::new(cfg.pim_group_config());
/// let fc = FcShape::new(1024, 1024); // one core's slice of a GPT-2 M FC
/// let pim_time = |tokens| Some(pim.gemv(AdaptivePlanner::pim_shape(tokens, fc)).total);
/// // Single-token FCs belong on PIM, large batches on the matrix unit.
/// assert_eq!(planner.choose(1, fc, Duration::ZERO, pim_time(1)), FcUnit::Pim);
/// assert_eq!(
///     planner.choose(512, fc, Duration::ZERO, pim_time(512)),
///     FcUnit::MatrixUnit
/// );
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePlanner {
    mu: MatrixUnit,
    dma: DmaEngine,
    /// Weight-streaming bandwidth one core sees when all cores load their
    /// slices concurrently (the striped bus is shared).
    per_core_load_gbps: f64,
    /// Weight bytes that fit one double-buffered WM chunk.
    wm_chunk_bytes: u64,
}

impl AdaptivePlanner {
    /// Builds the planner from a system configuration.
    pub fn new(cfg: &crate::SystemConfig) -> Self {
        AdaptivePlanner {
            mu: MatrixUnit::new(&cfg.npu),
            dma: DmaEngine::new(&cfg.npu),
            per_core_load_gbps: cfg.striped_bandwidth_gbps() / cfg.npu.cores as f64,
            wm_chunk_bytes: cfg.npu.wm_bytes / 3,
        }
    }

    /// Estimated completion time of `fc` on the matrix unit for `tokens`
    /// input rows, with `prefetch` of weight loading hidden behind a
    /// preceding vector-unit op (Algorithm 1 lines 5–11).
    pub fn mu_time(&self, tokens: u64, fc: FcShape, prefetch: Duration) -> Duration {
        let chunks = self.chunk_count(fc);
        let load_total = self.dma.offchip(fc.weight_bytes(), self.per_core_load_gbps)
            + self.dma.setup() * (chunks - 1);
        let compute_total = self.mu.gemm(tokens, fc.in_dim, fc.out_dim);
        // Double-buffered pipeline: bound by the slower stream, plus the
        // fill of one chunk of the faster one.
        let per_chunk_fill = compute_total.min(load_total) / chunks;
        let piped = load_total.max(compute_total) + per_chunk_fill;
        piped.saturating_sub(prefetch.min(load_total))
    }

    /// The GEMV whose total time is Algorithm 1's PIM estimate for `fc`
    /// over `tokens` input rows: the whole FC, one GEMV per token.
    pub fn pim_shape(tokens: u64, fc: FcShape) -> GemvShape {
        GemvShape::new(fc.out_dim, fc.in_dim).with_batch(tokens as u32)
    }

    /// Algorithm 1's decision (lines 13–15), given the PIM estimate for
    /// [`pim_shape`](Self::pim_shape)`(tokens, fc)`, or `None` when the
    /// system has no PIM compute.
    pub fn choose(
        &self,
        tokens: u64,
        fc: FcShape,
        prefetch: Duration,
        pim: Option<Duration>,
    ) -> FcUnit {
        match pim {
            Some(pim) if pim < self.mu_time(tokens, fc, prefetch) => FcUnit::Pim,
            _ => FcUnit::MatrixUnit,
        }
    }

    /// Number of WM-sized weight chunks the FC streams through.
    pub fn chunk_count(&self, fc: FcShape) -> u64 {
        fc.weight_bytes().div_ceil(self.wm_chunk_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use ianus_pim::PimModel;

    fn planner() -> AdaptivePlanner {
        AdaptivePlanner::new(&SystemConfig::ianus())
    }

    /// Algorithm 1's PIM estimate on the IANUS configuration.
    fn pim_time(tokens: u64, fc: FcShape) -> Option<Duration> {
        let pim = PimModel::new(SystemConfig::ianus().pim_group_config());
        Some(pim.gemv(AdaptivePlanner::pim_shape(tokens, fc)).total)
    }

    fn choose(p: &AdaptivePlanner, tokens: u64, fc: FcShape) -> FcUnit {
        p.choose(tokens, fc, Duration::ZERO, pim_time(tokens, fc))
    }

    #[test]
    fn crossover_exists_between_1_and_128_tokens() {
        let p = planner();
        let fc = FcShape::new(1024, 1024);
        assert_eq!(choose(&p, 1, fc), FcUnit::Pim);
        assert_eq!(choose(&p, 128, fc), FcUnit::MatrixUnit);
        // The crossover is monotone: once MU wins it keeps winning.
        let mut pim_then_mu = true;
        let mut seen_mu = false;
        for t in 1..=128u64 {
            match choose(&p, t, fc) {
                FcUnit::MatrixUnit => seen_mu = true,
                FcUnit::Pim => {
                    if seen_mu {
                        pim_then_mu = false;
                    }
                }
            }
        }
        assert!(pim_then_mu, "mapping decision is not monotone in tokens");
    }

    #[test]
    fn mu_time_flat_under_128_tokens() {
        // Paper: the matrix unit shows similar performance for 4/8/16
        // tokens because it processes 128 in parallel.
        let p = planner();
        let fc = FcShape::new(1280, 1280);
        let t4 = p.mu_time(4, fc, Duration::ZERO);
        let t16 = p.mu_time(16, fc, Duration::ZERO);
        let ratio = t16.as_ns_f64() / t4.as_ns_f64();
        assert!(ratio < 1.05, "ratio {ratio}");
    }

    #[test]
    fn pim_time_linear_in_tokens() {
        let fc = FcShape::new(1024, 1024);
        let t1 = pim_time(1, fc).unwrap();
        let t8 = pim_time(8, fc).unwrap();
        let ratio = t8.as_ns_f64() / t1.as_ns_f64();
        assert!(ratio > 7.0 && ratio < 9.0, "ratio {ratio}");
    }

    #[test]
    fn prefetch_reduces_mu_time() {
        let p = planner();
        let fc = FcShape::new(2048, 2048);
        let without = p.mu_time(8, fc, Duration::ZERO);
        let with = p.mu_time(8, fc, Duration::from_us(5));
        assert!(with < without);
    }

    #[test]
    fn no_pim_always_matrix_unit() {
        let p = AdaptivePlanner::new(&SystemConfig::npu_mem());
        assert_eq!(
            p.choose(1, FcShape::new(4096, 4096), Duration::ZERO, None),
            FcUnit::MatrixUnit
        );
    }
}
