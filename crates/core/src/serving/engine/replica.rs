//! Replica layer: the cluster's backends, grouped into price classes
//! that own the service-time memoization.
//!
//! Every device simulation the engine prices — request service, prefill
//! chunks, decode iterations, recompute estimates — funnels through
//! [`Replicas::pricer`], which memoizes results so the iteration loops
//! stay cheap. No other layer asks a [`Backend`] for a device cost
//! directly.
//!
//! Replicas whose backends [price alike](Backend::prices_like) form one
//! *price class*: one set of memo tables, and one backend — the class's
//! lowest-index member — that prices every miss. A cluster of identical
//! devices therefore simulates each distinct stage once, not once per
//! replica. Backends that do not opt in are each their own class.
//!
//! A class keeps one [`ModelPrices`] per model it has served, so one
//! engine can serve different models across runs.
//! [`Replicas::resolve`] picks the run's tables once per run; every
//! lookup after that hashes only integers.

use crate::backend::Backend;
use crate::memo::Memo;
use ianus_model::{ModelConfig, RequestShape};
use ianus_sim::Duration;

/// Past-lengths below this are always priced exactly; above it, decode
/// times are sampled on a geometric grid and interpolated.
const DECODE_GRID_START: u64 = 4;

/// Number of points on the decode-sampling grid: every ×5/4 step from
/// [`DECODE_GRID_START`] while the step's `lo * 5` still fits in a
/// `u64`, plus the point that step reaches.
const DECODE_GRID_LEN: usize = {
    let (mut lo, mut n) = (DECODE_GRID_START, 1);
    while lo <= u64::MAX / 5 {
        lo = next_grid_point(lo);
        n += 1;
    }
    n
};

/// The geometric (×5/4, at least +1) decode-sampling grid starting at
/// [`DECODE_GRID_START`], ascending.
static DECODE_GRID: [u64; DECODE_GRID_LEN] = {
    let mut grid = [0; DECODE_GRID_LEN];
    grid[0] = DECODE_GRID_START;
    let mut i = 1;
    while i < DECODE_GRID_LEN {
        grid[i] = next_grid_point(grid[i - 1]);
        i += 1;
    }
    grid
};

/// The grid point after `lo`.
const fn next_grid_point(lo: u64) -> u64 {
    let hi = lo * 5 / 4;
    if hi > lo {
        hi
    } else {
        lo + 1
    }
}

/// Bracketing grid points `(lo, hi]` around `past` on the geometric
/// (×5/4) decode-sampling grid starting at [`DECODE_GRID_START`].
/// Requires `DECODE_GRID_START < past ≤` the last grid point (above
/// 2^61); returns `lo < past ≤ hi`, consecutive on the grid.
fn decode_grid_bracket(past: u64) -> (u64, u64) {
    let i = DECODE_GRID.partition_point(|&g| g < past);
    (DECODE_GRID[i - 1], DECODE_GRID[i])
}

/// One replica's last interpolated decode price: grid prices `a` at
/// `lo` and `b` at `hi` for width `batch`. A decode step at the same
/// width with `lo < past ≤ hi` reuses them (consecutive steps of one
/// batch mostly fall in one bracket), skipping the grid search and both
/// memo lookups.
#[derive(Clone, Copy, Default)]
struct DecodeBracket {
    batch: u32,
    lo: u64,
    hi: u64,
    a: f64,
    b: f64,
}

/// One model's memo tables inside a price class.
#[derive(Clone)]
pub(super) struct ModelPrices {
    /// The model these tables price (misses go to the backend with it).
    model: ModelConfig,
    /// Memoized service times, keyed by shape.
    /// (Exposed to the request-level path, which pre-memoizes every
    /// shape and then reads the table directly in its dispatch loop.)
    pub(super) service: Memo<RequestShape, Duration>,
    /// Memoized prefill times in seconds, keyed by tokens.
    pub(super) prefill: Memo<u64, f64>,
    /// Memoized decode-iteration times in seconds at grid past-lengths,
    /// keyed by (batch, past). Queries between grid points are
    /// piecewise-linearly interpolated — decode latency varies smoothly
    /// with past length (linearly growing KV traffic), so the geometric
    /// grid keeps per-batch device simulations to a few dozen while
    /// staying accurate to well under a percent.
    decode: Memo<(u32, u64), f64>,
    /// Memoized unloaded batch-1 service (prefill + all decode steps) in
    /// seconds, keyed by shape — iteration-level `mean_service`.
    ideal: Memo<RequestShape, f64>,
}

impl ModelPrices {
    fn new(model: ModelConfig) -> Self {
        ModelPrices {
            model,
            service: Memo::default(),
            prefill: Memo::default(),
            decode: Memo::default(),
            ideal: Memo::default(),
        }
    }
}

/// The memo tables of one price class, and the member that prices its
/// misses.
#[derive(Clone)]
pub(super) struct PriceClass {
    /// Index of the replica whose backend prices every miss (the
    /// class's lowest-index member).
    pricer: usize,
    /// One table set per model served so far. Two configs differing in
    /// any field (even under one name) get separate tables.
    models: Vec<ModelPrices>,
    /// Index into `models` of the current run's model (set by
    /// [`Replicas::resolve`]).
    current: usize,
}

impl PriceClass {
    fn new(pricer: usize) -> Self {
        PriceClass {
            pricer,
            models: Vec::new(),
            current: 0,
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
    /// Each replica's last decode bracket (sized and reset by
    /// [`resolve`](Self::resolve), so building an engine allocates
    /// none).
    brackets: Vec<DecodeBracket>,
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
            brackets: self.brackets.clone(),
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

    /// Points every class at its tables for `model`, creating them on
    /// the class's first run of that model. Call once per run, after
    /// [`group`](Self::group).
    pub(super) fn resolve(&mut self, model: &ModelConfig) {
        self.brackets.clear();
        self.brackets
            .resize(self.backends.len(), DecodeBracket::default());
        for class in &mut self.classes {
            class.current = match class.models.iter().position(|m| m.model == *model) {
                Some(i) => i,
                None => {
                    class.models.push(ModelPrices::new(*model));
                    class.models.len() - 1
                }
            };
        }
    }

    /// Replica `r`'s memo tables for the current run's model (resolved
    /// by [`resolve`](Self::resolve)).
    pub(super) fn prices(&self, r: usize) -> &ModelPrices {
        let class = &self.classes[self.class_of[r]];
        &class.models[class.current]
    }

    /// The memoized device-cost view of replica `r`: its class's tables
    /// for the current run's model, the backend that prices their
    /// misses, and `r`'s last decode bracket.
    pub(super) fn pricer(&mut self, r: usize) -> Pricer<'_> {
        let class = &mut self.classes[self.class_of[r]];
        Pricer {
            backend: &mut *self.backends[class.pricer],
            prices: &mut class.models[class.current],
            bracket: &mut self.brackets[r],
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

/// One price class borrowed for pricing: its tables for the run's model
/// plus its pricer's backend.
pub(super) struct Pricer<'a> {
    prices: &'a mut ModelPrices,
    backend: &'a mut dyn Backend,
    bracket: &'a mut DecodeBracket,
}

impl Pricer<'_> {
    pub(super) fn service_time(&mut self, shape: RequestShape) -> Duration {
        if let Some(&d) = self.prices.service.get(&shape) {
            return d;
        }
        let d = self.backend.service_time(&self.prices.model, shape);
        self.prices.service.insert(shape, d);
        d
    }

    pub(super) fn prefill_secs(&mut self, tokens: u64) -> f64 {
        if let Some(&s) = self.prices.prefill.get(&tokens) {
            return s;
        }
        let s = self
            .backend
            .prefill_time(&self.prices.model, tokens)
            .as_secs_f64();
        self.prices.prefill.insert(tokens, s);
        s
    }

    /// Exact (memoized) decode-iteration time at a grid past-length.
    fn decode_exact_secs(&mut self, past: u64, batch: u32) -> f64 {
        let key = (batch, past);
        if let Some(&s) = self.prices.decode.get(&key) {
            return s;
        }
        let s = self
            .backend
            .decode_time(&self.prices.model, past, batch)
            .as_secs_f64();
        self.prices.decode.insert(key, s);
        s
    }

    /// Decode-iteration time at an arbitrary past-length: exact below
    /// [`DECODE_GRID_START`], interpolated between grid samples above.
    /// The grid is clamped to the model's positional table so sampling
    /// never prices a past the model cannot attend to. A past inside
    /// the replica's last bracket at the same width reuses its prices
    /// (the memos hold them, so no backend call is skipped).
    pub(super) fn decode_secs(&mut self, past: u64, batch: u32) -> f64 {
        let past = past.max(1);
        let c = *self.bracket;
        if c.batch == batch && c.lo < past && past <= c.hi {
            return c.a + (c.b - c.a) * (past - c.lo) as f64 / (c.hi - c.lo) as f64;
        }
        if past <= DECODE_GRID_START {
            return self.decode_exact_secs(past, batch);
        }
        let (lo, hi) = decode_grid_bracket(past);
        let top = hi.min(self.prices.model.max_seq.saturating_sub(1));
        let hi = top.max(past);
        if hi == lo {
            return self.decode_exact_secs(lo, batch);
        }
        let a = self.decode_exact_secs(lo, batch);
        let b = self.decode_exact_secs(hi, batch);
        if hi == top {
            // Every past in `(lo, top]` brackets to these prices; above
            // the clamp the bracket's top is the past itself.
            *self.bracket = DecodeBracket {
                batch,
                lo,
                hi,
                a,
                b,
            };
        }
        a + (b - a) * (past - lo) as f64 / (hi - lo) as f64
    }

    /// Grid-interpolated prefill cost at an arbitrary token count:
    /// exact at and below [`DECODE_GRID_START`], interpolated between
    /// geometric grid samples above. This is the *recompute-cost
    /// estimate* behind eviction decisions — pricing every distinct
    /// context length exactly would run a fresh device simulation per
    /// candidate per pressure event. (Actual re-prefill execution is
    /// still priced exactly, through the chunk machinery.)
    pub(super) fn prefill_est_secs(&mut self, tokens: u64) -> f64 {
        let tokens = tokens.max(1);
        if tokens <= DECODE_GRID_START {
            return self.prefill_secs(tokens);
        }
        let (lo, hi) = decode_grid_bracket(tokens);
        let hi = hi.min(self.prices.model.max_seq).max(tokens);
        if hi == lo {
            return self.prefill_secs(lo);
        }
        let a = self.prefill_secs(lo);
        let b = self.prefill_secs(hi);
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
    pub(super) fn ideal_service_secs(&mut self, shape: RequestShape) -> f64 {
        if let Some(&s) = self.prices.ideal.get(&shape) {
            return s;
        }
        let mut s = self.prefill_secs(shape.input);
        for past in shape.input..shape.input + shape.generation_steps() {
            s += self.decode_secs(past, 1);
        }
        self.prices.ideal.insert(shape, s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::CapacityError;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    /// The bracket as a walk up the grid, one ×5/4 step at a time.
    fn walked_bracket(past: u64) -> (u64, u64) {
        let mut lo = DECODE_GRID_START;
        loop {
            let hi = (lo * 5 / 4).max(lo + 1);
            if past <= hi {
                return (lo, hi);
            }
            lo = hi;
        }
    }

    #[test]
    fn grid_table_brackets_like_the_walk() {
        let last = DECODE_GRID[DECODE_GRID_LEN - 1];
        assert!(last > u64::MAX / 5, "the grid reaches the walk's range");
        let mut pasts: Vec<u64> = (DECODE_GRID_START + 1..=1 << 16).collect();
        for &g in &DECODE_GRID[1..] {
            pasts.extend([g - 1, g, g.saturating_add(1).min(last)]);
        }
        pasts.extend(
            (17..62).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 3, 10u64.pow(k / 4)]),
        );
        pasts.push(last);
        for past in pasts.into_iter().filter(|&p| p > DECODE_GRID_START) {
            assert_eq!(
                decode_grid_bracket(past),
                walked_bracket(past),
                "past {past}"
            );
        }
    }

    /// Every device-cost call a [`Counting`] backend received, in order:
    /// `(kind, tokens or past, batch)`.
    type CallLog = Arc<Mutex<Vec<(char, u64, u32)>>>;

    /// A cheap synthetic device with nonlinear costs that logs every
    /// device-cost call.
    struct Counting(CallLog);

    impl Counting {
        fn decode(past: u64, batch: u32) -> Duration {
            Duration::from_ns(1000 + 37 * past + past * past / 3 + 50 * u64::from(batch))
        }

        fn prefill(tokens: u64) -> Duration {
            Duration::from_ns(5000 + 13 * tokens + tokens * tokens / 7)
        }
    }

    impl Backend for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn service_time(&mut self, _: &ModelConfig, shape: RequestShape) -> Duration {
            Counting::prefill(shape.input)
        }
        fn fits(&self, _: &ModelConfig) -> Result<(), CapacityError> {
            Ok(())
        }
        fn prefill_time(&mut self, _: &ModelConfig, tokens: u64) -> Duration {
            self.0.lock().unwrap().push(('p', tokens, 0));
            Counting::prefill(tokens)
        }
        fn decode_time(&mut self, _: &ModelConfig, past: u64, batch: u32) -> Duration {
            self.0.lock().unwrap().push(('d', past, batch));
            Counting::decode(past, batch)
        }
    }

    /// The pricer with memos keyed by the whole config and the walked
    /// bracket: the reference the per-model tables must reproduce.
    struct ConfigKeyed {
        backend: Counting,
        prefill: HashMap<(ModelConfig, u64), f64>,
        decode: HashMap<(ModelConfig, u32, u64), f64>,
    }

    impl ConfigKeyed {
        fn prefill_secs(&mut self, model: &ModelConfig, tokens: u64) -> f64 {
            let backend = &mut self.backend;
            *self
                .prefill
                .entry((*model, tokens))
                .or_insert_with(|| backend.prefill_time(model, tokens).as_secs_f64())
        }

        fn decode_exact_secs(&mut self, model: &ModelConfig, past: u64, batch: u32) -> f64 {
            let backend = &mut self.backend;
            *self
                .decode
                .entry((*model, batch, past))
                .or_insert_with(|| backend.decode_time(model, past, batch).as_secs_f64())
        }

        fn decode_secs(&mut self, model: &ModelConfig, past: u64, batch: u32) -> f64 {
            let past = past.max(1);
            if past <= DECODE_GRID_START {
                return self.decode_exact_secs(model, past, batch);
            }
            let (lo, hi) = walked_bracket(past);
            let hi = hi.min(model.max_seq.saturating_sub(1)).max(past);
            if hi == lo {
                return self.decode_exact_secs(model, lo, batch);
            }
            let a = self.decode_exact_secs(model, lo, batch);
            let b = self.decode_exact_secs(model, hi, batch);
            a + (b - a) * (past - lo) as f64 / (hi - lo) as f64
        }

        fn prefill_est_secs(&mut self, model: &ModelConfig, tokens: u64) -> f64 {
            let tokens = tokens.max(1);
            if tokens <= DECODE_GRID_START {
                return self.prefill_secs(model, tokens);
            }
            let (lo, hi) = walked_bracket(tokens);
            let hi = hi.min(model.max_seq).max(tokens);
            if hi == lo {
                return self.prefill_secs(model, lo);
            }
            let a = self.prefill_secs(model, lo);
            let b = self.prefill_secs(model, hi);
            a + (b - a) * (tokens - lo) as f64 / (hi - lo) as f64
        }
    }

    /// One engine serving every GPT-2 model in turn prices each past up
    /// to the model's positional table with the same bits, and the same
    /// backend misses in the same order, as config-keyed memos — whether
    /// each decode price re-brackets (widths interleaved per past) or
    /// reuses the replica's last bracket (pasts swept at one width, up
    /// to past the positional clamp).
    #[test]
    fn per_model_tables_price_like_config_keyed_memos() {
        let (log, reference_log): (CallLog, CallLog) = Default::default();
        let mut replicas = Replicas::default();
        replicas.push(Box::new(Counting(log.clone())));
        replicas.group();
        let mut reference = ConfigKeyed {
            backend: Counting(reference_log.clone()),
            prefill: HashMap::new(),
            decode: HashMap::new(),
        };
        // The second round finds every table warm on both sides.
        for _round in 0..2 {
            for model in ModelConfig::gpt2_family() {
                replicas.resolve(&model);
                let mut pricer = replicas.pricer(0);
                for past in 0..=model.max_seq {
                    for batch in [1, 7, 64] {
                        let got = pricer.decode_secs(past, batch);
                        let want = reference.decode_secs(&model, past, batch);
                        assert_eq!(got.to_bits(), want.to_bits(), "{} past {past}", model.name);
                    }
                    let got = pricer.prefill_est_secs(past);
                    let want = reference.prefill_est_secs(&model, past);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} tokens {past}",
                        model.name
                    );
                }
                for batch in [2, 7] {
                    for past in (0..=model.max_seq + 40).chain((0..=model.max_seq).rev()) {
                        let got = pricer.decode_secs(past, batch);
                        let want = reference.decode_secs(&model, past, batch);
                        assert_eq!(got.to_bits(), want.to_bits(), "{} past {past}", model.name);
                    }
                }
                assert_eq!(*log.lock().unwrap(), *reference_log.lock().unwrap());
            }
        }
    }
}
