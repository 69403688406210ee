//! Replica layer: the cluster's backends, grouped into price classes
//! that own the service-time memoization.
//!
//! Every device simulation the engine prices — request service, prefill
//! chunks, decode iterations, recompute estimates — funnels through
//! [`Replicas::pricer`], which memoizes results keyed by the full
//! [`ModelConfig`] so the iteration loops stay cheap. No other layer
//! asks a [`Backend`] for a device cost directly.
//!
//! Replicas whose backends [price alike](Backend::prices_like) form one
//! *price class*: one set of memo tables, and one backend — the class's
//! lowest-index member — that prices every miss. A cluster of identical
//! devices therefore simulates each distinct stage once, not once per
//! replica. Backends that do not opt in are each their own class.

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

/// The memo tables of one price class, and the member that prices its
/// misses.
#[derive(Clone)]
pub(super) struct PriceClass {
    /// Index of the replica whose backend prices every miss (the
    /// class's lowest-index member).
    pricer: usize,
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

impl PriceClass {
    fn new(pricer: usize) -> Self {
        PriceClass {
            pricer,
            service: Memo::default(),
            prefill: Memo::default(),
            decode: Memo::default(),
            ideal: Memo::default(),
        }
    }
}

/// The cluster's replicas: one backend each, grouped into price
/// classes.
///
/// Grouping is lazy: [`group`](Self::group) runs at the start of every
/// run and only classifies replicas added since the last one, so
/// building an engine does no grouping work and warm classes keep their
/// memos when a replica joins later.
#[derive(Default)]
pub(super) struct Replicas {
    backends: Vec<Box<dyn Backend>>,
    /// Price class of each *grouped* replica; shorter than `backends`
    /// while replicas added since the last [`group`](Self::group) wait.
    class_of: Vec<usize>,
    classes: Vec<PriceClass>,
}

impl Replicas {
    /// Adds one replica (classified at the next [`group`](Self::group)).
    pub(super) fn push(&mut self, backend: Box<dyn Backend>) {
        self.backends.push(backend);
    }

    pub(super) fn len(&self) -> usize {
        self.backends.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Replica `r`'s own backend — for residency, KV-budget and naming
    /// queries, which are never shared across a class.
    pub(super) fn backend(&self, r: usize) -> &dyn Backend {
        &*self.backends[r]
    }

    /// Every replica's backend, in replica order.
    pub(super) fn backends(&self) -> impl Iterator<Item = &dyn Backend> {
        self.backends.iter().map(|b| &**b)
    }

    /// Deep copy — backends via [`Backend::clone_box`], classes and
    /// their memo tables by value — or `None` if any backend does not
    /// support cloning.
    pub(super) fn try_clone(&self) -> Option<Replicas> {
        let mut backends = Vec::with_capacity(self.backends.len());
        for b in &self.backends {
            backends.push(b.clone_box()?);
        }
        Some(Replicas {
            backends,
            class_of: self.class_of.clone(),
            classes: self.classes.clone(),
        })
    }

    /// Puts every replica added since the last call into the first
    /// class whose pricer [prices like](Backend::prices_like) it, or
    /// into a new class it prices itself. Existing classes, and the
    /// memos they hold, are kept.
    pub(super) fn group(&mut self) {
        for r in self.class_of.len()..self.backends.len() {
            let backend = &*self.backends[r];
            let found = self
                .classes
                .iter()
                .position(|c| self.backends[c.pricer].prices_like(backend));
            let class = found.unwrap_or_else(|| {
                self.classes.push(PriceClass::new(r));
                self.classes.len() - 1
            });
            self.class_of.push(class);
        }
    }

    /// The price class of replica `r` (grouped by [`group`](Self::group)).
    pub(super) fn class(&self, r: usize) -> &PriceClass {
        &self.classes[self.class_of[r]]
    }

    /// The memoized device-cost view of replica `r`: its class's tables
    /// and the backend that prices their misses.
    pub(super) fn pricer(&mut self, r: usize) -> Pricer<'_> {
        let class = &mut self.classes[self.class_of[r]];
        Pricer {
            backend: &mut *self.backends[class.pricer],
            class,
        }
    }

    /// KV swap cost (one direction) for a sequence holding `tokens` of
    /// context on replica `r` — charged once at swap-out and once at
    /// swap-in. Not memoized and not shared: every backend prices it
    /// with plain bandwidth arithmetic on its own host link.
    pub(super) fn kv_transfer_secs(&mut self, r: usize, model: &ModelConfig, tokens: u64) -> f64 {
        self.backends[r]
            .kv_transfer_time(model, tokens)
            .as_secs_f64()
    }
}

/// One price class borrowed for pricing: its memo tables plus its
/// pricer's backend.
pub(super) struct Pricer<'a> {
    class: &'a mut PriceClass,
    backend: &'a mut dyn Backend,
}

impl Pricer<'_> {
    pub(super) fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        let key = (*model, shape);
        if let Some(&d) = self.class.service.get(&key) {
            return d;
        }
        let d = self.backend.service_time(model, shape);
        self.class.service.insert(key, d);
        d
    }

    pub(super) fn prefill_secs(&mut self, model: &ModelConfig, tokens: u64) -> f64 {
        let key = (*model, tokens);
        if let Some(&s) = self.class.prefill.get(&key) {
            return s;
        }
        let s = self.backend.prefill_time(model, tokens).as_secs_f64();
        self.class.prefill.insert(key, s);
        s
    }

    /// Exact (memoized) decode-iteration time at a grid past-length.
    fn decode_exact_secs(&mut self, model: &ModelConfig, past: u64, batch: u32) -> f64 {
        let key = (*model, batch, past);
        if let Some(&s) = self.class.decode.get(&key) {
            return s;
        }
        let s = self.backend.decode_time(model, past, batch).as_secs_f64();
        self.class.decode.insert(key, s);
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
        if let Some(&s) = self.class.ideal.get(&key) {
            return s;
        }
        let mut s = self.prefill_secs(model, shape.input);
        for past in shape.input..shape.input + shape.generation_steps() {
            s += self.decode_secs(model, past, 1);
        }
        self.class.ideal.insert(key, s);
        s
    }
}
