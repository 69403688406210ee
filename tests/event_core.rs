//! Event-driven engine core regression net.
//!
//! The iteration-level loop picks each turn from a turn tree (two
//! min-trees over replica slots, busy and idle clocks). Debug builds
//! assert on every turn that the tree picked what the step-scan rule
//! picks over the live replica states, so every run in this suite
//! checks turn selection across the engine's feature grid and every
//! arrival shape (the pin ledger, `tests/pins.rs`, holds a workflow
//! mix under each shape, in release builds too). The suite also pins
//! the parallel-sweep determinism contract (`sweep_rates` parallel ==
//! serial, result order preserved) and covers the divergence guard: an
//! aborted probe reports `diverged` and never perturbs the rate a
//! bisection returns.

use common::{chunked, MemNode};
use ianus::prelude::*;
use proptest::prelude::*;

pub mod common;

/// A `MemNode` that refuses to clone — forces the serial sweep path.
#[derive(Debug, Clone, Copy)]
struct Uncloneable(MemNode);

impl Backend for Uncloneable {
    // Same display name as `MemNode`: the fallback test compares whole
    // reports (which embed replica names) across the two backends.
    fn name(&self) -> &str {
        "mem node"
    }
    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        self.0.service_time(model, shape)
    }
    fn fits(&self, model: &ModelConfig) -> Result<(), CapacityError> {
        self.0.fits(model)
    }
    fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.0.prefill_time(model, tokens)
    }
    fn decode_time(&mut self, model: &ModelConfig, past: u64, batch: u32) -> Duration {
        self.0.decode_time(model, past, batch)
    }
    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        self.0.batch_fits(model, batch)
    }
    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.0.kv_transfer_time(model, tokens)
    }
    fn host_kv_bytes(&self) -> Option<u64> {
        self.0.host_kv_bytes()
    }
    fn kv_budget_bytes(&self, model: &ModelConfig, widest: u64) -> Option<u64> {
        self.0.kv_budget_bytes(model, widest)
    }
    // No clone_box override: the default `None` is the point.
}

// ---------------------------------------------------------------------
// Turn selection across the feature grid
// ---------------------------------------------------------------------

fn mixes() -> Vec<Vec<RequestClass>> {
    let small = RequestShape::new(64, 32);
    let big = RequestShape::new(128, 64);
    let slo = Slo::new(Duration::from_secs_f64(30.0), Duration::from_ms(100));
    vec![
        vec![RequestClass::new(big, 1.0)],
        vec![
            RequestClass::new(small, 0.5).with_slo(slo),
            RequestClass::new(big, 0.5).with_priority(Priority::Batch),
        ],
        vec![
            RequestClass::new(small, 0.3),
            RequestClass::new(big, 0.7).with_shared_prefix(48),
        ],
    ]
}

#[allow(clippy::too_many_arguments)] // mirrors the proptest grid axes
fn build(
    cfg: &ServingConfig,
    replicas: usize,
    max_batch: u32,
    chunk: Option<u64>,
    preempt: bool,
    overlap: bool,
    kv_block: u64,
) -> ServingSim {
    ServingSim::new(cfg.clone())
        .cluster(replicas, |_| MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch,
            prefill_chunk: chunk,
            preempt,
        })
        .overlap_dma(overlap)
        .kv_block(kv_block)
}

proptest! {
    // Each case is one full run; keep the count modest — the grid
    // below still crosses seeds × rates × mixes × scheduling knobs.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any workload and any combination of preemption / overlapped
    /// DMA / paged-vs-legacy KV, the event-driven core takes the
    /// step-scan rule's turn every turn (the engine's debug check), so
    /// its schedule is the scan's, and the run settles every request.
    #[test]
    fn event_core_is_bit_identical_to_step_scan(
        seed in any::<u64>(),
        rate in prop::sample::select(vec![1.0f64, 4.0, 12.0]),
        mix_i in 0usize..3,
        replicas in 1usize..4,
        max_batch in prop::sample::select(vec![4u32, 8]),
        chunk in prop::sample::select(vec![None, Some(32u64)]),
        preempt in any::<bool>(),
        overlap in any::<bool>(),
        kv_block in prop::sample::select(vec![0u64, 64]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 40,
            seed,
            mix: mixes()[mix_i].clone(),
            workflows: vec![],
            arrivals: Default::default(),
        };
        let model = ModelConfig::gpt2_xl();
        let report = build(&cfg, replicas, max_batch, chunk, preempt, overlap, kv_block)
            .run(&model);
        prop_assert_eq!(report.completed, 40);
    }
}

// ---------------------------------------------------------------------
// Parallel sweeps: determinism and the serial fallback
// ---------------------------------------------------------------------

fn sweep_cfg() -> ServingConfig {
    ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 60,
        seed: 0xD15C,
        mix: vec![
            RequestClass::new(RequestShape::new(64, 32), 0.6),
            RequestClass::new(RequestShape::new(128, 64), 0.4),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    }
}

/// `sweep_rates` probes on cloned engines across threads; the reports
/// must equal a serial run of each rate on a fresh engine, in the same
/// order.
#[test]
fn sweep_rates_parallel_matches_serial() {
    let model = ModelConfig::gpt2_xl();
    let rates = [0.5, 2.0, 6.0, 12.0];
    let mut sim = ServingSim::new(sweep_cfg())
        .cluster(2, |_| MemNode::tight())
        .scheduling(chunked(8, 32))
        .kv_block(64);
    assert!(sim.try_clone().is_some(), "MemNode clones");
    let parallel = sim.sweep_rates(&model, &rates);
    let serial: Vec<ServingReport> = rates
        .iter()
        .map(|&rate| {
            let mut cfg = sweep_cfg();
            cfg.arrival_rate_hz = rate;
            ServingSim::new(cfg)
                .cluster(2, |_| MemNode::tight())
                .scheduling(chunked(8, 32))
                .kv_block(64)
                .run(&model)
        })
        .collect();
    assert_eq!(parallel, serial);
}

/// A backend without `clone_box` falls back to serial probing on the
/// original engine — same reports, same order.
#[test]
fn sweep_rates_serial_fallback_without_clone() {
    let model = ModelConfig::gpt2_xl();
    let rates = [1.0, 4.0];
    let build = |node_clones: bool| {
        let mut sim = ServingSim::new(sweep_cfg()).scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        });
        if node_clones {
            sim = sim.replica(MemNode::tight());
        } else {
            sim = sim.replica(Uncloneable(MemNode::tight()));
        }
        sim
    };
    let mut fallback = build(false);
    assert!(fallback.try_clone().is_none(), "Uncloneable must not clone");
    let a = fallback.sweep_rates(&model, &rates);
    let b = build(true).sweep_rates(&model, &rates);
    assert_eq!(a, b, "serial fallback and parallel path agree");
    // The sweep restores the configured rate either way.
    let direct = build(false).run(&model);
    let after = fallback.run(&model);
    assert_eq!(direct, after, "sweep must not perturb the engine");
}

// ---------------------------------------------------------------------
// Divergence guard
// ---------------------------------------------------------------------

/// A hopeless overload with a tiny divergence bound aborts early: the
/// report covers only the completed prefix, says so via `diverged`,
/// and is never `stable`.
#[test]
fn divergence_guard_aborts_hopeless_overload() {
    let model = ModelConfig::gpt2_xl();
    let cfg = ServingConfig {
        arrival_rate_hz: 500.0, // far beyond one MemNode's capacity
        requests: 400,
        seed: 7,
        mix: vec![RequestClass::new(RequestShape::new(128, 64), 1.0)],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let full = ServingSim::new(cfg.clone())
        .replica(MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        })
        .run(&model);
    assert_eq!(full.completed, 400, "no guard: the run completes");
    assert!(!full.diverged);

    let aborted = ServingSim::new(cfg)
        .replica(MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        })
        .divergence_depth(Some(32))
        .run(&model);
    assert!(aborted.diverged, "queue depth blows through the bound");
    assert!(aborted.completed < 400, "only the prefix is simulated");
    assert!(!aborted.stable(), "a diverged report is never stable");
}

/// The satellite regression: the early-abort must not move the rate a
/// bisection returns. Probes that abort were exactly the probes that
/// failed the stability predicate anyway.
#[test]
fn sustainable_rate_unchanged_by_divergence_guard() {
    let model = ModelConfig::gpt2_xl();
    let build = || {
        ServingSim::new(ServingConfig {
            arrival_rate_hz: 1.0,
            requests: 80,
            seed: 0xBEEF,
            mix: vec![RequestClass::new(RequestShape::new(64, 32), 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        })
        .replica(MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: false,
        })
    };
    // Guard off everywhere — every probe simulates its full horizon.
    let exhaustive = build()
        .divergence_depth(None)
        .sustainable_rate(&model, 0.05, 64.0);
    // Default: the automatic in-probe guard may abort hopeless probes.
    let guarded = build().sustainable_rate(&model, 0.05, 64.0);
    assert_eq!(
        exhaustive, guarded,
        "the divergence guard must not change the bisection result"
    );
    assert!(exhaustive > 0.05);
}

// ---------------------------------------------------------------------
// Arrival shapes: the pluggable processes obey the same core contract
// ---------------------------------------------------------------------

/// One representative of each [`ArrivalSpec`] variant, parameterized so
/// the non-Poisson shapes actually modulate (visible bursts, several
/// cycles inside a 40-request run).
fn arrival_specs() -> Vec<ArrivalSpec> {
    vec![
        ArrivalSpec::Poisson,
        ArrivalSpec::diurnal(0.6, 20.0),
        ArrivalSpec::mmpp(6.0, 8.0, 8.0),
        ArrivalSpec::multi_tenant(3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every traffic shape, seed, rate, and mix, the turn tree takes
    /// the step-scan rule's turn every turn (the engine's debug check)
    /// and the run settles every request, split over the spec's
    /// tenants.
    #[test]
    fn arrival_shapes_pick_the_scan_turn(
        seed in any::<u64>(),
        rate in prop::sample::select(vec![2.0f64, 6.0]),
        mix_i in 0usize..3,
        spec_i in 0usize..4,
        preempt in any::<bool>(),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 40,
            seed,
            mix: mixes()[mix_i].clone(),
            workflows: vec![],
            arrivals: arrival_specs()[spec_i].clone(),
        };
        let report = build(&cfg, 2, 8, Some(32), preempt, true, 64)
            .run(&ModelConfig::gpt2_xl());
        let tenants: Vec<u64> = report.per_tenant.iter().map(|t| t.completed).collect();
        prop_assert_eq!(report.completed, 40);
        prop_assert_eq!(tenants.len(), cfg.arrivals.tenant_count() as usize);
        prop_assert_eq!(tenants.iter().sum::<u64>(), 40);
    }
}

/// `sweep_rates` keeps its parallel ≡ serial contract when the trace
/// is a multi-tenant merge: every probe rebuilds the merged per-tenant
/// processes from (spec, seed, rate) alone, so cloned engines replay
/// identical streams.
#[test]
fn sweep_rates_parallel_matches_serial_under_multi_tenant() {
    let model = ModelConfig::gpt2_xl();
    let rates = [0.5, 2.0, 6.0];
    let spec = ArrivalSpec::multi_tenant(3);
    let cfg = || sweep_cfg().arrivals(spec.clone());
    let mut sim = ServingSim::new(cfg())
        .cluster(2, |_| MemNode::tight())
        .scheduling(chunked(8, 32))
        .kv_block(64);
    assert!(sim.try_clone().is_some(), "MemNode clones");
    let parallel = sim.sweep_rates(&model, &rates);
    let serial: Vec<ServingReport> = rates
        .iter()
        .map(|&rate| {
            ServingSim::new(ServingConfig {
                arrival_rate_hz: rate,
                ..cfg()
            })
            .cluster(2, |_| MemNode::tight())
            .scheduling(chunked(8, 32))
            .kv_block(64)
            .run(&model)
        })
        .collect();
    assert_eq!(parallel, serial);
    for r in &parallel {
        assert_eq!(r.per_tenant.len(), 3, "tenant rows survive the sweep");
    }
}
