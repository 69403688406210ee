//! Replica layer: one [`Backend`] plus its service-time memoization.
//!
//! Every device simulation the engine prices — request service, prefill
//! chunks, decode iterations, recompute estimates — funnels through
//! [`Replica`], which memoizes results keyed by the full
//! [`ModelConfig`] so the iteration loops stay cheap. No other layer
//! talks to a [`Backend`] directly.

use crate::backend::Backend;
use crate::memo::Memo;
use ianus_model::{ModelConfig, RequestShape};
use ianus_sim::Duration;

/// Past-lengths below this are always priced exactly; above it, decode
/// times are sampled on a geometric grid and interpolated.
const DECODE_GRID_START: u64 = 4;

/// Bracketing grid points `(lo, hi]` around `past` on the geometric
/// (×5/4) decode-sampling grid starting at [`DECODE_GRID_START`].
/// Requires `past > DECODE_GRID_START`; returns `lo ≤ past ≤ hi`.
fn decode_grid_bracket(past: u64) -> (u64, u64) {
    let mut lo = DECODE_GRID_START;
    loop {
        let hi = (lo * 5 / 4).max(lo + 1);
        if past <= hi {
            return (lo, hi);
        }
        lo = hi;
    }
}

pub(super) struct Replica {
    pub(super) backend: Box<dyn Backend>,
    /// Memoized service times, keyed by model and shape so one engine
    /// can serve different models across runs. Every table keys on the
    /// whole `ModelConfig`, so two configs differing in any field (even
    /// under one name) are priced separately.
    /// (Exposed to the request-level path, which pre-memoizes every
    /// (model, shape) pair and then reads the tables directly in its
    /// dispatch loop.)
    pub(super) service: Memo<(ModelConfig, RequestShape), Duration>,
    /// Memoized prefill times in seconds, keyed by (model, tokens).
    pub(super) prefill: Memo<(ModelConfig, u64), f64>,
    /// Memoized decode-iteration times in seconds at grid past-lengths,
    /// keyed by (model, batch, past). Queries between grid points are
    /// piecewise-linearly interpolated — decode latency varies smoothly
    /// with past length (linearly growing KV traffic), so the geometric
    /// grid keeps per-(model, batch) device simulations to a few dozen
    /// while staying accurate to well under a percent.
    decode: Memo<(ModelConfig, u32, u64), f64>,
    /// Memoized unloaded batch-1 service (prefill + all decode steps) in
    /// seconds, keyed by (model, shape) — iteration-level `mean_service`.
    ideal: Memo<(ModelConfig, RequestShape), f64>,
}

impl Replica {
    /// Wraps a backend with empty memo tables.
    pub(super) fn new(backend: Box<dyn Backend>) -> Self {
        Replica {
            backend,
            service: Memo::default(),
            prefill: Memo::default(),
            decode: Memo::default(),
            ideal: Memo::default(),
        }
    }

    /// Deep copy — backend via [`Backend::clone_box`], memo tables by
    /// value — or `None` if the backend does not support cloning.
    pub(super) fn try_clone(&self) -> Option<Replica> {
        Some(Replica {
            backend: self.backend.clone_box()?,
            service: self.service.clone(),
            prefill: self.prefill.clone(),
            decode: self.decode.clone(),
            ideal: self.ideal.clone(),
        })
    }

    pub(super) fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        let key = (*model, shape);
        if let Some(&d) = self.service.get(&key) {
            return d;
        }
        let d = self.backend.service_time(model, shape);
        self.service.insert(key, d);
        d
    }

    pub(super) fn prefill_secs(&mut self, model: &ModelConfig, tokens: u64) -> f64 {
        let key = (*model, tokens);
        if let Some(&s) = self.prefill.get(&key) {
            return s;
        }
        let s = self.backend.prefill_time(model, tokens).as_secs_f64();
        self.prefill.insert(key, s);
        s
    }

    /// Exact (memoized) decode-iteration time at a grid past-length.
    fn decode_exact_secs(&mut self, model: &ModelConfig, past: u64, batch: u32) -> f64 {
        let key = (*model, batch, past);
        if let Some(&s) = self.decode.get(&key) {
            return s;
        }
        let s = self.backend.decode_time(model, past, batch).as_secs_f64();
        self.decode.insert(key, s);
        s
    }

    /// Decode-iteration time at an arbitrary past-length: exact below
    /// [`DECODE_GRID_START`], interpolated between grid samples above.
    /// The grid is clamped to the model's positional table so sampling
    /// never prices a past the model cannot attend to.
    pub(super) fn decode_secs(&mut self, model: &ModelConfig, past: u64, batch: u32) -> f64 {
        let past = past.max(1);
        if past <= DECODE_GRID_START {
            return self.decode_exact_secs(model, past, batch);
        }
        let (lo, hi) = decode_grid_bracket(past);
        let hi = hi.min(model.max_seq.saturating_sub(1)).max(past);
        if hi == lo {
            return self.decode_exact_secs(model, lo, batch);
        }
        let a = self.decode_exact_secs(model, lo, batch);
        let b = self.decode_exact_secs(model, hi, batch);
        a + (b - a) * (past - lo) as f64 / (hi - lo) as f64
    }

    /// KV swap cost (one direction) for a sequence holding `tokens` of
    /// context — charged once at swap-out and once at swap-in. Not
    /// memoized: every backend prices it with plain bandwidth
    /// arithmetic.
    pub(super) fn kv_transfer_secs(&mut self, model: &ModelConfig, tokens: u64) -> f64 {
        self.backend.kv_transfer_time(model, tokens).as_secs_f64()
    }

    /// Grid-interpolated prefill cost at an arbitrary token count:
    /// exact at and below [`DECODE_GRID_START`], interpolated between
    /// geometric grid samples above. This is the *recompute-cost
    /// estimate* behind eviction decisions — pricing every distinct
    /// context length exactly would run a fresh device simulation per
    /// candidate per pressure event. (Actual re-prefill execution is
    /// still priced exactly, through the chunk machinery.)
    pub(super) fn prefill_est_secs(&mut self, model: &ModelConfig, tokens: u64) -> f64 {
        let tokens = tokens.max(1);
        if tokens <= DECODE_GRID_START {
            return self.prefill_secs(model, tokens);
        }
        let (lo, hi) = decode_grid_bracket(tokens);
        let hi = hi.min(model.max_seq).max(tokens);
        if hi == lo {
            return self.prefill_secs(model, lo);
        }
        let a = self.prefill_secs(model, lo);
        let b = self.prefill_secs(model, hi);
        a + (b - a) * (tokens - lo) as f64 / (hi - lo) as f64
    }

    /// The request's *unloaded batch-1* service time: prefill plus every
    /// decode step alone on the device. This is the iteration-level
    /// analogue of the request-level service time (it matches to within
    /// decode-grid interpolation error), and what `mean_service` reports
    /// in both modes — so [`ServingReport::stable`]'s tail bound is
    /// equally strict whether or not batching stretches residency.
    ///
    /// [`ServingReport::stable`]: crate::serving::ServingReport::stable
    pub(super) fn ideal_service_secs(&mut self, model: &ModelConfig, shape: RequestShape) -> f64 {
        let key = (*model, shape);
        if let Some(&s) = self.ideal.get(&key) {
            return s;
        }
        let mut s = self.prefill_secs(model, shape.input);
        for past in shape.input..shape.input + shape.generation_steps() {
            s += self.decode_secs(model, past, 1);
        }
        self.ideal.insert(key, s);
        s
    }
}
