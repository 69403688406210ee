//! Engine-level serving tests (fast synthetic backends plus the real
//! simulated device where memory pressure matters).

use super::*;
use crate::backend::Backend;
use crate::{IanusSystem, SystemConfig};
use ianus_baselines_shim::*;
use ianus_model::{ModelConfig, RequestShape};
use ianus_sim::Duration;

/// The serving tests need a fast, exactly-predictable backend too;
/// real-device parity is covered by `tests/backend_parity.rs` at the
/// workspace root (ianus-core cannot depend on ianus-baselines).
mod ianus_baselines_shim {
    use super::*;

    /// Fixed-rate synthetic backend: service time is
    /// `per_token × (input + output)`.
    pub struct FixedRate {
        pub name: &'static str,
        pub per_token: Duration,
    }

    impl Backend for FixedRate {
        fn name(&self) -> &str {
            self.name
        }

        fn service_time(&mut self, _: &ModelConfig, shape: RequestShape) -> Duration {
            Duration::from_ns_f64(self.per_token.as_ns_f64() * (shape.input + shape.output) as f64)
        }

        fn fits(&self, _: &ModelConfig) -> Result<(), crate::capacity::CapacityError> {
            Ok(())
        }
    }
}

fn mix_one(shape: RequestShape) -> Vec<RequestClass> {
    vec![RequestClass::new(shape, 1.0)]
}

fn fixed(name: &'static str, us_per_token: u64) -> FixedRate {
    FixedRate {
        name,
        per_token: Duration::from_us(us_per_token),
    }
}

#[test]
fn deterministic_given_seed() {
    let cfg = ServingConfig::interactive(5.0, 100);
    let mut a = ServingSim::new(cfg.clone())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .dispatch(DispatchPolicy::LeastLoaded);
    let mut b = ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .dispatch(DispatchPolicy::LeastLoaded);
    let ra = a.run(&ModelConfig::gpt2_m());
    let rb = b.run(&ModelConfig::gpt2_m());
    assert_eq!(ra, rb);
    // And rerunning the same engine (warm memos) changes nothing.
    assert_eq!(a.run(&ModelConfig::gpt2_m()), ra);
}

#[test]
fn policies_are_deterministic_and_distinct_reports_are_seed_stable() {
    for policy in [
        DispatchPolicy::FcfsSingleQueue,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::ShortestExpectedJob,
    ] {
        let build = || {
            ServingSim::new(ServingConfig::interactive(20.0, 300).with_seed(77))
                .cluster(3, |_| fixed("fixed", 100))
                .dispatch(policy)
        };
        let a = build().run(&ModelConfig::gpt2_m());
        let b = build().run(&ModelConfig::gpt2_m());
        assert_eq!(a, b, "{policy:?} not seed-stable");
        assert_eq!(a.completed, 300);
    }
}

#[test]
fn second_replica_improves_tail_latency_and_halves_utilization() {
    let model = ModelConfig::gpt2_m();
    let cfg = ServingConfig {
        arrival_rate_hz: 40.0,
        requests: 400,
        seed: 5,
        mix: mix_one(RequestShape::new(128, 16)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let one = ServingSim::new(cfg.clone())
        .replica(fixed("a", 500))
        .run(&model);
    let two = ServingSim::new(cfg)
        .replica(fixed("a", 500))
        .replica(fixed("b", 500))
        .run(&model);
    assert!(two.sojourn.p99 < one.sojourn.p99);
    assert!(two.utilization < one.utilization);
    assert_eq!(two.per_replica.len(), 2);
    // Work spreads across both replicas.
    assert!(two.per_replica.iter().all(|r| r.completed > 50));
}

#[test]
fn sej_beats_least_loaded_on_heterogeneous_cluster() {
    // One fast and one 8x slower replica: expected-completion routing
    // must not do worse than blind backlog balancing.
    let model = ModelConfig::gpt2_m();
    let cfg = ServingConfig {
        arrival_rate_hz: 8.0,
        requests: 300,
        seed: 11,
        mix: mix_one(RequestShape::new(64, 16)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let hetero = |policy| {
        ServingSim::new(cfg.clone())
            .replica(fixed("fast", 200))
            .replica(fixed("slow", 1600))
            .dispatch(policy)
            .run(&model)
    };
    let ll = hetero(DispatchPolicy::LeastLoaded);
    let sej = hetero(DispatchPolicy::ShortestExpectedJob);
    assert!(
        sej.sojourn.p99.as_ns_f64() <= ll.sojourn.p99.as_ns_f64() * 1.001,
        "SEJ p99 {} vs least-loaded {}",
        sej.sojourn.p99,
        ll.sojourn.p99
    );
    // SEJ routes the bulk of the work to the fast replica.
    assert!(sej.per_replica[0].completed > sej.per_replica[1].completed);
}

#[test]
fn least_loaded_differs_from_fcfs_on_heterogeneous_cluster() {
    // Count-based routing is speed-blind; earliest-free routing is
    // not. On a fast+slow pair the two must produce different
    // schedules.
    let model = ModelConfig::gpt2_m();
    let cfg = ServingConfig {
        arrival_rate_hz: 10.0,
        requests: 400,
        seed: 13,
        mix: mix_one(RequestShape::new(64, 16)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let run = |policy| {
        ServingSim::new(cfg.clone())
            .replica(fixed("fast", 200))
            .replica(fixed("slow", 1600))
            .dispatch(policy)
            .run(&model)
    };
    let fcfs = run(DispatchPolicy::FcfsSingleQueue);
    let ll = run(DispatchPolicy::LeastLoaded);
    assert_ne!(fcfs, ll);
    assert_eq!(fcfs.completed, 400);
    assert_eq!(ll.completed, 400);
}

#[test]
fn memo_is_model_aware_across_runs() {
    // Re-running one engine with a different model must re-price
    // service times, not reuse the previous model's memo — also when the
    // two configs share a name, as a config with edited fields does.
    let cfg = ServingConfig {
        arrival_rate_hz: 2.0,
        requests: 50,
        seed: 4,
        mix: mix_one(RequestShape::new(128, 8)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let xl = ModelConfig::gpt2_xl();
    let shallow_xl = ModelConfig { blocks: 24, ..xl };
    for scheduling in [Scheduling::RequestLevel, Scheduling::iteration(4)] {
        let engine = || {
            ServingSim::new(cfg.clone())
                .replica(IanusSystem::new(SystemConfig::ianus()))
                .scheduling(scheduling)
        };
        let mut sim = engine();
        let small = sim.run(&ModelConfig::gpt2_m());
        let large = sim.run(&xl);
        assert!(large.mean_service > small.mean_service, "{scheduling:?}");
        let shallow = sim.run(&shallow_xl);
        assert!(shallow.mean_service < large.mean_service, "{scheduling:?}");
        // And each matches a cold engine for the same model.
        assert_eq!(large, engine().run(&xl), "{scheduling:?}");
        assert_eq!(shallow, engine().run(&shallow_xl), "{scheduling:?}");
    }
}

#[test]
fn per_class_percentiles_order_by_request_weight() {
    let model = ModelConfig::gpt2_m();
    let light = RequestShape::new(32, 8);
    let heavy = RequestShape::new(512, 64);
    let cfg = ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 400,
        seed: 3,
        mix: vec![RequestClass::new(light, 0.5), RequestClass::new(heavy, 0.5)],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg).replica(fixed("a", 100)).run(&model);
    assert_eq!(r.per_class.len(), 2);
    assert_eq!(
        r.per_class[0].completed + r.per_class[1].completed,
        r.completed
    );
    assert!(r.per_class[1].sojourn.p50 > r.per_class[0].sojourn.p50);
}

#[test]
fn zero_requests_yield_empty_report() {
    let cfg = ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 0,
        seed: 0,
        mix: mix_one(RequestShape::new(128, 8)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
        .replica(fixed("a", 100))
        .run(&ModelConfig::gpt2_m());
    assert_eq!(r.completed, 0);
    assert_eq!(r.mean_service, Duration::ZERO);
    assert_eq!(r.throughput_rps, 0.0);
    assert_eq!(r.goodput_rps, 0.0);
    assert_eq!(r.slo_attainment, 1.0);
    assert_eq!(r.utilization, 0.0);
    assert_eq!(r.per_replica[0].name, "a");
    assert_eq!(r.per_class[0].completed, 0);
    // A run the divergence guard aborts before any completion reports
    // the same attainment: nothing completed, so nothing missed.
    let aborted = ServingSim::new(ServingConfig::interactive(1.0, 20))
        .replica(fixed("a", 100))
        .scheduling(Scheduling::iteration(4))
        .divergence_depth(Some(0))
        .run(&ModelConfig::gpt2_m());
    assert!(aborted.diverged);
    assert_eq!(aborted.completed, 0);
    assert_eq!(aborted.slo_attainment, 1.0);
}

#[test]
fn weighted_pick_residue_falls_back_to_final_class() {
    // Regression: a draw at (or past) the total weight must pick the
    // *last* class, not silently snap back to mix[0].
    let weights = [0.1, 0.2, 0.3];
    let total: f64 = weights.iter().sum();
    // 0.1 + 0.2 + 0.3 != 0.6 exactly in binary; whatever the residue,
    // the fallback must be the final index.
    assert_eq!(pick_class(&weights, total), 2);
    assert_eq!(pick_class(&weights, total + 1e-12), 2);
    // In-range draws still resolve normally.
    assert_eq!(pick_class(&weights, 0.05), 0);
    assert_eq!(pick_class(&weights, 0.15), 1);
    assert_eq!(pick_class(&weights, 0.45), 2);
}

#[test]
fn cluster_of_device_groups_serves_large_model() {
    let model = ModelConfig::gpt_6_7b();
    let cfg = ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 60,
        seed: 9,
        mix: mix_one(RequestShape::new(128, 4)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let mut sim = ServingSim::new(cfg)
        .cluster(2, |_| {
            IanusSystem::new(SystemConfig::ianus().with_devices(2))
        })
        .dispatch(DispatchPolicy::ShortestExpectedJob);
    assert_eq!(sim.validate(&model), Ok(()));
    let r = sim.run(&model);
    assert_eq!(r.completed, 60);
    assert_eq!(r.per_replica[0].name, "IANUS x2");
}

#[test]
fn sustainable_rate_brackets_service_rate() {
    let model = ModelConfig::gpt2_m();
    // 2 replicas x 10ms service => cluster capacity 200 req/s.
    let cfg = ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 500,
        seed: 21,
        mix: mix_one(RequestShape::new(99, 1)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let mut sim = ServingSim::new(cfg)
        .replica(fixed("a", 100))
        .replica(fixed("b", 100));
    let rate = sim.sustainable_rate(&model, 1.0, 1000.0);
    // Finite-sample Poisson wiggle: the realized stable rate can land
    // a few percent past the nominal 200 req/s capacity.
    assert!(rate > 100.0 && rate < 220.0, "rate {rate}");
    // The probe restores the configured arrival rate.
    assert_eq!(sim.config().arrival_rate_hz, 1.0);
}

/// Single-replica IANUS engine.
fn single_ianus(system: SystemConfig, cfg: ServingConfig) -> ServingSim {
    ServingSim::new(cfg).replica(IanusSystem::new(system))
}

#[test]
fn light_load_has_no_queueing() {
    let cfg = ServingConfig {
        arrival_rate_hz: 0.5,
        requests: 64,
        seed: 1,
        mix: mix_one(RequestShape::new(128, 8)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = single_ianus(SystemConfig::ianus(), cfg).run(&ModelConfig::gpt2_m());
    // Sojourn ~ service at low utilization.
    assert!(r.utilization < 0.05, "{:?}", r.utilization);
    let ratio = r.sojourn.p50.as_ns_f64() / r.mean_service.as_ns_f64();
    assert!(ratio < 1.2, "ratio {ratio}");
    assert!(r.stable());
}

#[test]
fn overload_grows_tail_latency() {
    let shape = RequestShape::new(128, 32);
    let service = IanusSystem::new(SystemConfig::ianus())
        .run_request(&ModelConfig::gpt2_m(), shape)
        .total
        .as_secs_f64();
    // Offer 2x the sustainable rate.
    let cfg = ServingConfig {
        arrival_rate_hz: 2.0 / service,
        requests: 200,
        seed: 2,
        mix: mix_one(shape),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = single_ianus(SystemConfig::ianus(), cfg).run(&ModelConfig::gpt2_m());
    assert!(r.utilization > 0.95, "{}", r.utilization);
    assert!(r.sojourn.p99 > r.sojourn.p50);
    assert!(!r.stable());
}

#[test]
fn faster_device_serves_higher_rate() {
    let shape = RequestShape::new(128, 64);
    let cfg = ServingConfig {
        arrival_rate_hz: 3.0,
        requests: 150,
        seed: 3,
        mix: mix_one(shape),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let ianus = single_ianus(SystemConfig::ianus(), cfg.clone()).run(&ModelConfig::gpt2_m());
    let npu_mem = single_ianus(SystemConfig::npu_mem(), cfg).run(&ModelConfig::gpt2_m());
    assert!(ianus.sojourn.p99 < npu_mem.sojourn.p99);
    assert!(ianus.utilization < npu_mem.utilization);
}

#[test]
#[should_panic(expected = "non-empty")]
fn empty_mix_rejected() {
    let cfg = ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 1,
        seed: 0,
        mix: Vec::new(),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let _ = single_ianus(SystemConfig::ianus(), cfg).run(&ModelConfig::gpt2_m());
}

#[test]
#[should_panic(expected = "no replicas")]
fn empty_cluster_rejected() {
    let _ = ServingSim::new(ServingConfig::interactive(1.0, 1)).run(&ModelConfig::gpt2_m());
}

#[test]
#[should_panic(expected = "max_batch")]
fn zero_max_batch_rejected() {
    let _ = ServingSim::new(ServingConfig::interactive(1.0, 1))
        .replica(fixed("a", 100))
        .scheduling(Scheduling::iteration(0))
        .run(&ModelConfig::gpt2_m());
}

/// For the synthetic fixed-rate backend the default prefill/decode
/// decomposition is *exact* (prefill = (in+1)·t, each decode step =
/// t), so batch-1 iteration-level scheduling must reproduce the
/// request-level FCFS schedule to floating-point accuracy.
#[test]
fn iteration_batch1_matches_request_level_exactly_on_fixed_backend() {
    for replicas in [1usize, 2] {
        let cfg = ServingConfig::interactive(18.0, 300).with_seed(42);
        let req = ServingSim::new(cfg.clone())
            .cluster(replicas, |_| fixed("fixed", 150))
            .run(&ModelConfig::gpt2_m());
        let it = ServingSim::new(cfg)
            .cluster(replicas, |_| fixed("fixed", 150))
            .scheduling(Scheduling::iteration(1))
            .run(&ModelConfig::gpt2_m());
        assert_eq!(it.completed, req.completed);
        for (a, b, what) in [
            (it.sojourn.p50, req.sojourn.p50, "p50"),
            (it.sojourn.p95, req.sojourn.p95, "p95"),
            (it.sojourn.p99, req.sojourn.p99, "p99"),
            (it.sojourn.max, req.sojourn.max, "max"),
            (it.mean_service, req.mean_service, "mean service"),
            (it.ttft.p50, req.ttft.p50, "ttft p50"),
            (it.inter_token.p50, req.inter_token.p50, "itl p50"),
        ] {
            let rel = (a.as_ns_f64() - b.as_ns_f64()).abs() / b.as_ns_f64().max(1.0);
            assert!(
                rel < 1e-9,
                "{replicas} replicas, {what}: iteration {a} vs request {b}"
            );
        }
    }
}

/// On the simulated IANUS device the two paths price decode
/// differently (request-level trapezoid-integrates whole requests,
/// iteration-level interpolates per-step grid samples), so batch-1
/// agreement is within a few percent, not exact.
#[test]
fn iteration_batch1_matches_request_level_on_simulated_device() {
    let cfg = ServingConfig::interactive(4.0, 150).with_seed(7);
    let model = ModelConfig::gpt2_m();
    let req = ServingSim::new(cfg.clone())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .run(&model);
    let it = ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::iteration(1))
        .run(&model);
    assert_eq!(it.completed, req.completed);
    for (a, b, what) in [
        (it.mean_service, req.mean_service, "mean service"),
        (it.sojourn.p50, req.sojourn.p50, "p50 sojourn"),
        (it.sojourn.p95, req.sojourn.p95, "p95 sojourn"),
    ] {
        let rel = (a.as_ns_f64() - b.as_ns_f64()).abs() / b.as_ns_f64();
        assert!(
            rel < 0.05,
            "{what}: iteration {a} vs request {b} ({rel:.3} rel)"
        );
    }
    assert_eq!(it.peak_batch, 1);
}

/// The KV-residency gate must bound the batch below the slot limit
/// when sequences are long: GPT-2 XL KV at (512, 512) is ~314 MB per
/// sequence against ~3.8 GB of post-weight headroom.
#[test]
fn kv_gate_bounds_batch_on_tight_memory() {
    let cfg = ServingConfig {
        arrival_rate_hz: 50.0, // overload so the queue never drains
        requests: 40,
        seed: 11,
        mix: mix_one(RequestShape::new(512, 512)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::iteration(32))
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 40);
    assert!(
        r.peak_batch > 1 && r.peak_batch < 32,
        "peak batch {} should be KV-limited below the 32-slot cap",
        r.peak_batch
    );
    assert!(
        r.peak_kv_occupancy > 0.5 && r.peak_kv_occupancy <= 1.0,
        "peak occupancy {}",
        r.peak_kv_occupancy
    );
}

/// The acceptance-criterion regime: on a weight-streaming GPU a
/// decode-heavy mix under continuous batching sustains a strictly
/// higher arrival rate than request-level batch-1 serving, because
/// batched decode amortizes the weight traffic.
#[test]
fn batched_gpu_sustains_higher_rate_on_decode_heavy_mix() {
    use ianus_baselines_like_gpu::WeightStreamGpu;
    let model = ModelConfig::gpt2_m();
    let mut req_sim =
        ServingSim::new(ServingConfig::decode_heavy(0.5, 250)).replica(WeightStreamGpu::default());
    let req_rate = req_sim.sustainable_rate(&model, 0.05, 64.0);
    let mut it_sim = ServingSim::new(ServingConfig::decode_heavy(0.5, 250))
        .replica(WeightStreamGpu::default())
        .scheduling(Scheduling::iteration(8));
    let it_rate = it_sim.sustainable_rate(&model, 0.05, 64.0);
    assert!(
        it_rate >= req_rate * 2.0,
        "continuous batching should multiply the sustainable rate: \
         iteration {it_rate:.2} req/s vs request-level {req_rate:.2} req/s"
    );
}

/// A weight-streaming GPU stand-in with the same *shape* of batching
/// economics as `ianus_baselines::GpuModel` (which ianus-core cannot
/// depend on): decode time = fixed weight-streaming cost + small
/// per-sequence term, so batching amortizes the fixed part. The real
/// GpuModel is exercised end-to-end in `tests/` at the workspace
/// root.
mod ianus_baselines_like_gpu {
    use super::*;

    pub struct WeightStreamGpu {
        /// Weight-streaming cost of one decode iteration (shared
        /// across the batch).
        pub stream: Duration,
        /// Per-sequence attention/dispatch cost per iteration.
        pub per_seq: Duration,
        /// Prefill cost per prompt token.
        pub prefill_per_token: Duration,
    }

    impl Default for WeightStreamGpu {
        fn default() -> Self {
            WeightStreamGpu {
                stream: Duration::from_us(18_000),
                per_seq: Duration::from_us(400),
                prefill_per_token: Duration::from_us(120),
            }
        }
    }

    impl Backend for WeightStreamGpu {
        fn name(&self) -> &str {
            "weight-stream GPU"
        }

        fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
            self.prefill_time(model, shape.input)
                + self.decode_time(model, shape.input, 1) * shape.generation_steps()
        }

        fn fits(&self, _: &ModelConfig) -> Result<(), crate::capacity::CapacityError> {
            Ok(())
        }

        fn prefill_time(&mut self, _: &ModelConfig, tokens: u64) -> Duration {
            Duration::from_ns_f64(self.prefill_per_token.as_ns_f64() * tokens as f64)
        }

        fn decode_time(&mut self, _: &ModelConfig, _past: u64, batch: u32) -> Duration {
            self.stream + self.per_seq * u64::from(batch.max(1))
        }
    }
}

#[test]
fn ttft_and_itl_track_load_in_both_modes() {
    // Light load: TTFT ~ prefill, ITL flat. Heavier load under
    // batching: ITL grows (IANUS serializes the batch) while TTFT
    // stays bounded by admission.
    let model = ModelConfig::gpt2_m();
    let light = ServingSim::new(ServingConfig::interactive(0.5, 80))
        .replica(fixed("a", 100))
        .run(&model);
    // fixed: prefill of (128..512)-token prompts = (tokens+1) * 100us.
    assert!(light.ttft.p50.as_ms_f64() > 10.0);
    assert!(light.ttft.p50 < light.sojourn.p50);
    assert_eq!(light.inter_token.p50, Duration::from_us(100));
    assert_eq!(light.inter_token.p99, Duration::from_us(100));
    assert_eq!(light.inter_token.max, Duration::from_us(100));

    let batched = ServingSim::new(ServingConfig::interactive(30.0, 200))
        .replica(fixed("a", 100))
        .scheduling(Scheduling::iteration(4))
        .run(&model);
    assert!(batched.peak_batch > 1);
    // Serialized batches stretch the iteration time past one token.
    assert!(batched.inter_token.p99 > Duration::from_us(100));
    assert!(batched.ttft.p50 < batched.sojourn.p50);
}

#[test]
fn percentile_max_dominates_tail() {
    // max ≥ p99 ≥ p95 ≥ p50 in every populated distribution the
    // report carries.
    let model = ModelConfig::gpt2_m();
    let r = ServingSim::new(ServingConfig::interactive(25.0, 300))
        .replica(fixed("a", 100))
        .scheduling(Scheduling::iteration(4))
        .run(&model);
    for (label, p) in [
        ("sojourn", &r.sojourn),
        ("ttft", &r.ttft),
        ("itl", &r.inter_token),
    ] {
        assert!(
            p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max,
            "{label}"
        );
        assert!(p.max > Duration::ZERO, "{label} max unpopulated");
    }
    for c in &r.per_class {
        assert!(c.sojourn.p99 <= c.sojourn.max);
    }
}

/// Chunk sizes at or above every prompt in the mix take the exact
/// same code path as monolithic prefill (one whole-prompt chunk per
/// admission), so the reports must be bit-identical — the
/// "chunk ≥ prompt degenerates to monolithic" contract.
#[test]
fn chunk_at_least_prompt_is_exactly_monolithic() {
    let model = ModelConfig::gpt2_m();
    let run = |prefill_chunk| {
        ServingSim::new(ServingConfig::interactive(16.0, 250).with_seed(9))
            .cluster(2, |_| fixed("fixed", 120))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 4,
                prefill_chunk,
                preempt: false,
            })
            .run(&model)
    };
    let mono = run(None);
    // The longest interactive-mix prompt is 512 tokens.
    assert_eq!(run(Some(512)), mono);
    assert_eq!(run(Some(100_000)), mono);
    // A smaller chunk must actually change the schedule.
    assert_ne!(run(Some(64)), mono);
}

/// Chunked prefill's latency claim: on a long-prompt + interactive
/// mix, chunking the prefill bounds each resident decoder's stall
/// to one chunk instead of one prompt, so the interactive ITL tail
/// collapses at the same arrival rate.
#[test]
fn chunked_prefill_improves_itl_tail_on_long_prompt_mix() {
    // 20 req/s ≈ 70% utilization on the 100 µs/token backend: busy
    // enough that long prefills regularly land on a running decode
    // batch (below ~50% they mostly run alone and both schedules'
    // tails collapse to the short-prompt stall).
    let model = ModelConfig::gpt2_m();
    let run = |prefill_chunk| {
        ServingSim::new(ServingConfig::long_prompt(20.0, 400))
            .replica(fixed("fixed", 100))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 4,
                prefill_chunk,
                preempt: false,
            })
            .run(&model)
    };
    let mono = run(None);
    let chunked = run(Some(128));
    assert!(
        chunked.inter_token.p99.as_ns_f64() < 0.5 * mono.inter_token.p99.as_ns_f64(),
        "chunked ITL p99 {} should be well under monolithic {}",
        chunked.inter_token.p99,
        mono.inter_token.p99
    );
    // The throughput side is untouched: same completions, and the
    // long-prompt class still finishes in comparable time.
    assert_eq!(chunked.completed, mono.completed);
    assert!(
        chunked.sojourn.p99.as_ns_f64() < 1.5 * mono.sojourn.p99.as_ns_f64(),
        "chunking must not blow up sojourn: {} vs {}",
        chunked.sojourn.p99,
        mono.sojourn.p99
    );
}

/// Mixed-iteration decode pricing computes the mean past length in
/// f64 and *rounds* it; integer division used to floor it, biasing
/// decode cost low for every heterogeneous batch.
///
/// Hand-traced scenario on a linear backend (prefill(n) = n ms,
/// decode(past, b) = past·b ms): two (4,3) requests arrive ~µs apart
/// at one replica with max_batch 2. Iterations: prefill #1 (4 ms);
/// prefill #2 + decode #1 at past 4 (8 ms); joint decode at pasts
/// {5, 4} — mean 4.5, **rounds to 5** → 10 ms (a floor prices it 8 ms);
/// final decode of #2 at past 5 (5 ms). So the last request finishes
/// 27 ms after the first arrival with rounding, 25 ms with flooring.
#[test]
fn mixed_batch_decode_mean_rounds_not_floors() {
    struct LinearSteps;
    impl Backend for LinearSteps {
        fn name(&self) -> &str {
            "linear-steps"
        }
        fn service_time(&mut self, _: &ModelConfig, shape: RequestShape) -> Duration {
            let mut t = Backend::prefill_time(self, &ModelConfig::gpt2_m(), shape.input);
            for past in shape.input..shape.input + shape.generation_steps() {
                t += Duration::from_ms(past);
            }
            t
        }
        fn fits(&self, _: &ModelConfig) -> Result<(), crate::capacity::CapacityError> {
            Ok(())
        }
        fn prefill_time(&mut self, _: &ModelConfig, tokens: u64) -> Duration {
            Duration::from_ms(tokens.max(1))
        }
        fn decode_time(&mut self, _: &ModelConfig, past: u64, batch: u32) -> Duration {
            Duration::from_ms(past.max(1)) * u64::from(batch)
        }
    }
    let cfg = ServingConfig {
        arrival_rate_hz: 1e6, // both requests arrive within microseconds
        requests: 2,
        seed: 1,
        mix: mix_one(RequestShape::new(4, 3)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
        .replica(LinearSteps)
        .scheduling(Scheduling::iteration(2))
        .run(&ModelConfig::gpt2_m());
    assert_eq!(r.completed, 2);
    let last = r.sojourn.max.as_ms_f64();
    assert!(
        (26.8..27.001).contains(&last),
        "rounded mean prices the trace at ~27 ms, floored at ~25 ms: got {last}"
    );
}

/// KV pressure on a real memory model: optimistic admission
/// overcommits GPT-2 XL (512,512) sequences on an 8 GB IANUS
/// device, growth forces evictions, and every preempted sequence
/// still completes.
#[test]
fn preemption_triggers_and_all_requests_complete() {
    let cfg = ServingConfig {
        arrival_rate_hz: 50.0, // overload so the queue never drains
        requests: 40,
        seed: 11,
        mix: mix_one(RequestShape::new(512, 512)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: None,
            preempt: true,
        })
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 40);
    assert!(r.preemptions > 0, "overcommit never triggered eviction");
    assert!(r.preempted_requests > 0 && r.preempted_requests <= r.completed);
    assert!(r.max_preemptions >= 1);
    assert!(u64::from(r.max_preemptions) <= r.preemptions);
    assert!(
        r.preemptions >= u64::from(r.max_preemptions),
        "totals must dominate the per-request max"
    );
    // Above 1 is possible only via documented tolerated overcommit
    // (lone/all-prefilling batches), which stays small here.
    assert!(
        r.peak_kv_occupancy > 0.5 && r.peak_kv_occupancy < 1.25,
        "peak occupancy {}",
        r.peak_kv_occupancy
    );
    // Optimistic admission packs more sequences than the
    // final-length gate would ever allow.
    let conservative = ServingSim::new(ServingConfig {
        arrival_rate_hz: 50.0,
        requests: 40,
        seed: 11,
        mix: mix_one(RequestShape::new(512, 512)),
        workflows: vec![],
        arrivals: Default::default(),
    })
    .replica(IanusSystem::new(SystemConfig::ianus()))
    .scheduling(Scheduling::iteration(32))
    .run(&ModelConfig::gpt2_xl());
    assert!(
        r.peak_batch > conservative.peak_batch,
        "preemptive admission ({}) should overcommit past the \
         final-length gate ({})",
        r.peak_batch,
        conservative.peak_batch
    );
}

/// Eviction order: batch-tier sequences are swapped out before
/// interactive ones under the default policy, so preemptions
/// concentrate on the batch class.
#[test]
fn eviction_prefers_batch_tier() {
    let shape = RequestShape::new(512, 512);
    let cfg = ServingConfig {
        arrival_rate_hz: 50.0,
        requests: 40,
        seed: 7,
        mix: vec![
            RequestClass::new(shape, 0.5),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: None,
            preempt: true,
        })
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 40);
    assert!(r.preemptions > 0);
    let interactive = &r.per_class[0];
    let batch = &r.per_class[1];
    assert_eq!(
        interactive.preemptions + batch.preemptions,
        r.preemptions,
        "class preemptions must partition the total"
    );
    assert!(
        batch.preemptions > interactive.preemptions,
        "batch tier ({}) should absorb the evictions, not the \
         interactive tier ({})",
        batch.preemptions,
        interactive.preemptions
    );
}

#[test]
fn priority_orders_batch_below_interactive() {
    assert!(Priority::Batch < Priority::Interactive);
    // The default class tier is interactive; the builder overrides.
    let c = RequestClass::new(RequestShape::new(8, 8), 1.0);
    assert_eq!(c.priority, Priority::Interactive);
    assert_eq!(c.slo, None);
    assert_eq!(c.with_priority(Priority::Batch).priority, Priority::Batch);
    let slo = Slo::new(Duration::from_ms(500), Duration::from_ms(40));
    assert_eq!(c.with_slo(slo).slo, Some(slo));
}

#[test]
fn chunked_preemptive_scheduling_is_seed_stable() {
    let build = || {
        ServingSim::new(ServingConfig::long_prompt(30.0, 120).with_seed(77))
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 8,
                prefill_chunk: Some(128),
                preempt: true,
            })
    };
    let a = build().run(&ModelConfig::gpt2_m());
    let b = build().run(&ModelConfig::gpt2_m());
    assert_eq!(a, b);
    assert_eq!(a.completed, 120);
}

/// Regression: optimistic (current-length) admission must not let a
/// request whose *final* sequence exceeds the model's positional
/// table slip in — its KV would eventually outgrow `max_seq`, an
/// error no amount of eviction can fix. The final-shape check at
/// admission panics instead, exactly like the non-preemptive gate.
#[test]
#[should_panic(expected = "can never be admitted")]
fn preempt_rejects_sequence_exceeding_max_seq() {
    // GPT-2 M caps at 1024 positions; (512,600) totals 1111.
    let cfg = ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 1,
        seed: 0,
        mix: mix_one(RequestShape::new(512, 600)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    let _ = ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 4,
            prefill_chunk: None,
            preempt: true,
        })
        .run(&ModelConfig::gpt2_m());
}

#[test]
#[should_panic(expected = "prefill chunk")]
fn zero_prefill_chunk_rejected() {
    let _ = ServingSim::new(ServingConfig::interactive(1.0, 1))
        .replica(fixed("a", 100))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 4,
            prefill_chunk: Some(0),
            preempt: false,
        })
        .run(&ModelConfig::gpt2_m());
}

#[test]
fn iteration_scheduling_is_seed_stable() {
    let build = || {
        ServingSim::new(ServingConfig::interactive(20.0, 250).with_seed(77))
            .cluster(3, |_| fixed("fixed", 100))
            .scheduling(Scheduling::iteration(4))
    };
    let a = build().run(&ModelConfig::gpt2_m());
    let b = build().run(&ModelConfig::gpt2_m());
    assert_eq!(a, b);
    assert_eq!(a.completed, 250);
}

#[test]
fn sustainable_rate_works_under_iteration_scheduling() {
    let model = ModelConfig::gpt2_m();
    // 100 us/token fixed backend, batch-4 serialized decode: the
    // sustainable rate lands between the batch-1 bound and overload.
    let mut sim = ServingSim::new(ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 300,
        seed: 21,
        mix: mix_one(RequestShape::new(99, 17)),
        workflows: vec![],
        arrivals: Default::default(),
    })
    .replica(fixed("a", 100))
    .scheduling(Scheduling::iteration(4));
    let rate = sim.sustainable_rate(&model, 1.0, 1000.0);
    assert!(rate > 10.0 && rate < 200.0, "rate {rate}");
    assert_eq!(sim.config().arrival_rate_hz, 1.0);
}

// ---------------------------------------------------------------------
// Scheduler-policy API
// ---------------------------------------------------------------------

/// Explicitly installing the default bundle is a no-op: every
/// scheduling mode and knob combination must produce the bit-identical
/// report — the "policies are a pure refactor" contract.
#[test]
fn default_policy_bundle_is_bit_identical_to_implicit() {
    let model = ModelConfig::gpt2_m();
    for scheduling in [
        Scheduling::iteration(4),
        Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: Some(128),
            preempt: true,
        },
    ] {
        let implicit = ServingSim::new(ServingConfig::long_prompt(20.0, 200))
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(scheduling)
            .run(&model);
        let explicit = ServingSim::new(ServingConfig::long_prompt(20.0, 200))
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(scheduling)
            .policy(
                SchedulerPolicy::default()
                    .with_admission(AdmissionPolicy::Fcfs)
                    .with_eviction(EvictionPolicy::LowestPriorityYoungest)
                    .with_readmission(ReadmissionPolicy::Fifo),
            )
            .run(&model);
        assert_eq!(implicit, explicit, "{scheduling:?}");
    }
}

/// Priority admission moves interactive requests ahead of batch-tier
/// requests in the wait queue, so the interactive tier's sojourn tail
/// improves (and the batch tier pays) relative to FCFS on a mix where
/// both tiers queue.
#[test]
fn priority_admission_favors_interactive_sojourn() {
    let model = ModelConfig::gpt2_m();
    // Saturating load so the wait queue is never empty: admission
    // order, not arrival order, decides who waits.
    let run = |policy: SchedulerPolicy| {
        ServingSim::new(ServingConfig::long_prompt(40.0, 300))
            .replica(fixed("fixed", 100))
            .scheduling(Scheduling::iteration(4))
            .policy(policy)
            .run(&model)
    };
    let fcfs = run(SchedulerPolicy::default());
    let prio = run(SchedulerPolicy::default().with_admission(AdmissionPolicy::Priority));
    assert_eq!(prio.completed, fcfs.completed);
    // per_class[0] is the interactive tier of the long-prompt mix.
    assert!(
        prio.per_class[0].sojourn.p99 < fcfs.per_class[0].sojourn.p99,
        "priority admission should cut the interactive sojourn tail: {} vs {}",
        prio.per_class[0].sojourn.p99,
        fcfs.per_class[0].sojourn.p99
    );
    assert!(
        prio.per_class[1].sojourn.p99 >= fcfs.per_class[1].sojourn.p99,
        "the batch tier pays for it"
    );
}

/// Shortest-prompt admission front-loads the small requests when the
/// queue is deep, cutting mean sojourn on a bimodal mix (classic SJF).
#[test]
fn shortest_prompt_admission_cuts_median_sojourn() {
    let model = ModelConfig::gpt2_m();
    let run = |policy: SchedulerPolicy| {
        ServingSim::new(ServingConfig::long_prompt(40.0, 300))
            .replica(fixed("fixed", 100))
            .scheduling(Scheduling::iteration(4))
            .policy(policy)
            .run(&model)
    };
    let fcfs = run(SchedulerPolicy::default());
    let sjf = run(SchedulerPolicy::default().with_admission(AdmissionPolicy::ShortestPrompt));
    assert!(
        sjf.sojourn.p50 < fcfs.sojourn.p50,
        "SJF should cut the median: {} vs {}",
        sjf.sojourn.p50,
        fcfs.sojourn.p50
    );
}

/// Deadline-EDF admission with a tight SLO on the interactive class
/// orders it ahead of no-deadline batch work; its attainment must not
/// drop below FCFS's.
#[test]
fn edf_admission_tracks_deadlines() {
    let model = ModelConfig::gpt2_m();
    let slo = Slo::new(Duration::from_ms(300), Duration::from_ms(50));
    let mut cfg = ServingConfig::long_prompt(40.0, 300);
    cfg.mix[0] = cfg.mix[0].with_slo(slo); // interactive tier only
    let run = |cfg: &ServingConfig, policy: SchedulerPolicy| {
        ServingSim::new(cfg.clone())
            .replica(fixed("fixed", 100))
            .scheduling(Scheduling::iteration(4))
            .policy(policy)
            .run(&model)
    };
    let fcfs = run(&cfg, SchedulerPolicy::default());
    let edf = run(
        &cfg,
        SchedulerPolicy::default().with_admission(AdmissionPolicy::Deadline),
    );
    assert_eq!(edf.completed, fcfs.completed);
    assert!(
        edf.per_class[0].slo_attainment >= fcfs.per_class[0].slo_attainment,
        "EDF should not do worse on the deadline class: {} vs {}",
        edf.per_class[0].slo_attainment,
        fcfs.per_class[0].slo_attainment
    );
    // The batch class carries no SLO, so it trivially attains in both.
    assert_eq!(edf.per_class[1].slo_attainment, 1.0);
}

/// All three eviction policies preserve the liveness contract on the
/// KV-pressure scenario, and the alternatives actually change the
/// preemption pattern relative to the default.
#[test]
fn eviction_policies_complete_and_differ() {
    let shape = RequestShape::new(512, 512);
    let build_cfg = || ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 60,
        seed: 0x5EED,
        mix: vec![
            RequestClass::new(shape, 0.5),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let run = |policy: SchedulerPolicy| {
        ServingSim::new(build_cfg())
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 32,
                prefill_chunk: Some(128),
                preempt: true,
            })
            .policy(policy)
            .run(&ModelConfig::gpt2_xl())
    };
    let default = run(SchedulerPolicy::default());
    let largest = run(SchedulerPolicy::default().with_eviction(EvictionPolicy::LargestKv));
    let least = run(SchedulerPolicy::default().with_eviction(EvictionPolicy::LeastProgress));
    for (name, r) in [
        ("default", &default),
        ("largest-kv", &largest),
        ("least-progress", &least),
    ] {
        assert_eq!(r.completed, 60, "{name}");
        assert!(r.preemptions > 0, "{name}: pressure never triggered");
        let by_class: u64 = r.per_class.iter().map(|c| c.preemptions).sum();
        assert_eq!(by_class, r.preemptions, "{name}");
    }
    // The default is tier-targeted; largest-KV is tier-blind until the
    // tiebreak, so the interactive class absorbs a larger share of the
    // evictions under it.
    let share = |r: &ServingReport| r.per_class[0].preemptions as f64 / r.preemptions as f64;
    assert!(
        share(&largest) > share(&default),
        "largest-KV should spread evictions onto the interactive tier: \
         {:.2} vs default {:.2}",
        share(&largest),
        share(&default)
    );
    assert_ne!(least, default, "least-progress must change the schedule");
}

/// Deadline-aware re-admission restores the tightest-deadline sequence
/// first; on an SLO'd priority mix it must not lose the liveness
/// contract and remains seed-stable.
#[test]
fn deadline_readmission_is_live_and_seed_stable() {
    let shape = RequestShape::new(512, 512);
    let slo = Slo::new(Duration::from_secs_f64(20.0), Duration::from_secs_f64(2.0));
    let build = || {
        let cfg = ServingConfig {
            arrival_rate_hz: 50.0,
            requests: 40,
            seed: 7,
            mix: vec![
                RequestClass::new(shape, 0.5).with_slo(slo),
                RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
            ],
            workflows: vec![],
            arrivals: Default::default(),
        };
        ServingSim::new(cfg)
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 32,
                prefill_chunk: None,
                preempt: true,
            })
            .policy(SchedulerPolicy::default().with_readmission(ReadmissionPolicy::Deadline))
    };
    let a = build().run(&ModelConfig::gpt2_xl());
    let b = build().run(&ModelConfig::gpt2_xl());
    assert_eq!(a, b);
    assert_eq!(a.completed, 40);
    assert!(a.preemptions > 0);
}

// ---------------------------------------------------------------------
// SLO attainment and goodput
// ---------------------------------------------------------------------

/// With no SLOs, attainment is identically 1 and goodput equals
/// throughput; with an impossible SLO, attainment is 0 and goodput 0.
#[test]
fn slo_attainment_bounds() {
    let model = ModelConfig::gpt2_m();
    let r = ServingSim::new(ServingConfig::interactive(5.0, 100))
        .replica(fixed("a", 100))
        .run(&model);
    assert_eq!(r.slo_attainment, 1.0);
    assert!((r.goodput_rps - r.throughput_rps).abs() < 1e-12);

    let impossible = Slo::new(Duration::from_ps(1), Duration::from_ps(1));
    let mut cfg = ServingConfig::interactive(5.0, 100);
    cfg.mix = cfg
        .mix
        .into_iter()
        .map(|c| c.with_slo(impossible))
        .collect();
    let r = ServingSim::new(cfg).replica(fixed("a", 100)).run(&model);
    assert_eq!(r.slo_attainment, 0.0);
    assert_eq!(r.goodput_rps, 0.0);
    for c in &r.per_class {
        assert_eq!(c.slo_attainment, 0.0);
    }

    // A generous SLO is met by everything at light load.
    let generous = Slo::new(Duration::from_secs_f64(60.0), Duration::from_secs_f64(1.0));
    let mut cfg = ServingConfig::interactive(0.5, 50);
    cfg.mix = cfg.mix.into_iter().map(|c| c.with_slo(generous)).collect();
    let r = ServingSim::new(cfg).replica(fixed("a", 100)).run(&model);
    assert_eq!(r.slo_attainment, 1.0);
}

/// ITL misses alone lower a class's attainment: with a TTFT target no
/// request can miss, a 1 ps ITL target fails every request of the SLO
/// class (each emits more than one token), under both scheduling modes,
/// while a generous ITL target attains everything.
#[test]
fn itl_misses_lower_class_attainment() {
    let model = ModelConfig::gpt2_m();
    let run = |itl_p99: Duration, scheduling: Scheduling| {
        let mut cfg = ServingConfig::interactive(10.0, 100);
        cfg.mix[0] = cfg.mix[0].with_slo(Slo::new(Duration::from_secs_f64(1e6), itl_p99));
        ServingSim::new(cfg)
            .replica(fixed("a", 100))
            .scheduling(scheduling)
            .run(&model)
    };
    for scheduling in [Scheduling::RequestLevel, Scheduling::iteration(4)] {
        let missed = run(Duration::from_ps(1), scheduling);
        assert!(missed.per_class[0].completed > 0);
        assert_eq!(missed.per_class[0].slo_attainment, 0.0, "{scheduling:?}");
        assert_eq!(missed.per_class[1].slo_attainment, 1.0, "no SLO");
        assert!(missed.slo_attainment < 1.0);
        let met = run(Duration::from_secs_f64(1e6), scheduling);
        assert_eq!(met.per_class[0].slo_attainment, 1.0, "{scheduling:?}");
    }
}

/// Aggregate attainment is the completion-weighted mean of the class
/// attainments, and goodput = throughput × attainment.
#[test]
fn slo_attainment_is_consistent_across_classes() {
    let model = ModelConfig::gpt2_m();
    let tight = Slo::new(Duration::from_ms(60), Duration::from_ms(1));
    let mut cfg = ServingConfig::interactive(10.0, 200);
    cfg.mix[0] = cfg.mix[0].with_slo(tight);
    let r = ServingSim::new(cfg)
        .replica(fixed("a", 100))
        .scheduling(Scheduling::iteration(4))
        .run(&model);
    let weighted: f64 = r
        .per_class
        .iter()
        .map(|c| c.slo_attainment * c.completed as f64)
        .sum::<f64>()
        / r.completed as f64;
    assert!((weighted - r.slo_attainment).abs() < 1e-12);
    assert!((r.goodput_rps - r.throughput_rps * r.slo_attainment).abs() < 1e-9);
}

/// The goodput-criterion rate search is never above the stability
/// search (its predicate is strictly stronger), and collapses to it
/// without SLOs.
#[test]
fn sustainable_goodput_rate_bounded_by_stability_rate() {
    let model = ModelConfig::gpt2_m();
    let slo = Slo::new(Duration::from_ms(120), Duration::from_ms(20));
    let mut cfg = ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 300,
        seed: 21,
        mix: mix_one(RequestShape::new(99, 17)),
        workflows: vec![],
        arrivals: Default::default(),
    };
    cfg.mix[0] = cfg.mix[0].with_slo(slo);
    let mut sim = ServingSim::new(cfg)
        .replica(fixed("a", 100))
        .scheduling(Scheduling::iteration(4));
    let stable = sim.sustainable_rate(&model, 1.0, 1000.0);
    let goodput = sim.sustainable_goodput_rate(&model, 1.0, 1000.0, 0.99);
    assert!(stable > 0.0);
    assert!(
        goodput <= stable,
        "goodput-gated rate {goodput} cannot exceed stability rate {stable}"
    );
    // Without SLOs, the two criteria coincide.
    let mut plain = ServingSim::new(ServingConfig {
        arrival_rate_hz: 1.0,
        requests: 300,
        seed: 21,
        mix: mix_one(RequestShape::new(99, 17)),
        workflows: vec![],
        arrivals: Default::default(),
    })
    .replica(fixed("a", 100))
    .scheduling(Scheduling::iteration(4));
    let a = plain.sustainable_rate(&model, 1.0, 1000.0);
    let b = plain.sustainable_goodput_rate(&model, 1.0, 1000.0, 0.999);
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------

#[test]
fn poisson_run_reports_no_burst_windows() {
    // Without burst-capable arrivals the burst columns are exactly
    // their vacuous values — zero percentiles, attainment 1.0 — so
    // downstream consumers can gate on them without epsilon checks.
    let cfg = ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 50,
        seed: 9,
        mix: mix_one(RequestShape::new(64, 32)),
        workflows: vec![],
        arrivals: ArrivalSpec::Poisson,
    };
    let r = ServingSim::new(cfg)
        .replica(fixed("a", 100))
        .run(&ModelConfig::gpt2_m());
    assert_eq!(r.completed, 50);
    assert_eq!(r.burst_inter_token, LatencyPercentiles::ZERO);
    assert_eq!(r.burst_slo_attainment, 1.0);
    assert_eq!(
        r.tenant_fairness, 1.0,
        "a single-tenant run is trivially fair"
    );
    assert_eq!(r.per_tenant.len(), 1);
}

#[test]
fn zero_completion_tenant_is_zeroed_and_excluded_from_fairness() {
    // A tenant whose share is vanishingly small never places an
    // arrival inside the run window: its row must come back zeroed
    // (empty-window percentiles, vacuous attainment, zero goodput) and
    // the fairness ratio must skip it — one counted tenant means 1.0,
    // never NaN or a division by zero.
    let spec = ArrivalSpec::MultiTenant {
        tenants: vec![
            TenantSpec {
                share: 1.0,
                inner: ArrivalSpec::Poisson,
                mix_weights: None,
            },
            TenantSpec {
                share: 1e-12,
                inner: ArrivalSpec::Poisson,
                mix_weights: None,
            },
        ],
    };
    assert!(spec.validate().is_ok());
    let cfg = ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 40,
        seed: 7,
        mix: mix_one(RequestShape::new(64, 32)),
        workflows: vec![],
        arrivals: spec,
    };
    let r = ServingSim::new(cfg)
        .replica(fixed("a", 100))
        .run(&ModelConfig::gpt2_m());
    assert_eq!(r.completed, 40);
    assert_eq!(r.per_tenant.len(), 2);
    assert_eq!(r.per_tenant[0].completed, 40);
    let starved = &r.per_tenant[1];
    assert_eq!(starved.completed, 0);
    assert_eq!(starved.sojourn, LatencyPercentiles::ZERO);
    assert_eq!(
        starved.slo_attainment, 1.0,
        "attainment over nothing is vacuous"
    );
    assert_eq!(starved.goodput_rps, 0.0);
    assert!(
        r.tenant_fairness.is_finite(),
        "fairness must never be NaN/inf here"
    );
    assert_eq!(
        r.tenant_fairness, 1.0,
        "a single counted tenant leaves no ratio to take"
    );
}

/// Three tenants: a diurnal stream, an MMPP stream at twice the share,
/// and a Poisson stream whose class (or template) weights override the
/// mix's.
fn three_tenants(override_weights: Vec<f64>) -> ArrivalSpec {
    let tenant = |share, inner, mix_weights| TenantSpec {
        share,
        inner,
        mix_weights,
    };
    ArrivalSpec::MultiTenant {
        tenants: vec![
            tenant(1.0, ArrivalSpec::diurnal(0.6, 1.5), None),
            tenant(2.0, ArrivalSpec::mmpp(4.0, 0.2, 0.5), None),
            tenant(1.0, ArrivalSpec::Poisson, Some(override_weights)),
        ],
    }
}

/// A tenant whose override puts all but a sliver of its weight on the
/// last class draws that class, also where the mix's own weights sum
/// inexactly (the interactive mix's first two sum to 0.899…).
#[test]
fn tenant_override_draws_its_own_classes() {
    let tenant = TenantSpec {
        share: 1.0,
        inner: ArrivalSpec::Poisson,
        mix_weights: Some(vec![1e-9, 1e-9, 1.0]),
    };
    let cfg = ServingConfig::interactive(40.0, 200).arrivals(ArrivalSpec::MultiTenant {
        tenants: vec![tenant],
    });
    let report = ServingSim::new(cfg)
        .replica(fixed("a", 20))
        .replica(fixed("b", 30))
        .scheduling(Scheduling::RequestLevel)
        .run(&ModelConfig::gpt2_m());
    let per_class: Vec<u64> = report.per_class.iter().map(|c| c.completed).collect();
    assert_eq!(report.completed, 200);
    assert!(per_class[2] >= 199, "completions per class: {per_class:?}");
}

/// Price-class tests: replicas whose backends price alike share one set
/// of cost memos and one pricing backend, and no report may tell.
mod price_classes {
    use super::*;
    use std::any::Any;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A forwarding wrapper around a simulated device that counts the
    /// device-cost calls (`service_time`, `prefill_time`, `decode_time`)
    /// it receives. With `share` it prices like another sharing `Probe`
    /// over an alike system; without, it never opts in, so every replica
    /// is its own price class — the unshared baseline.
    struct Probe {
        inner: IanusSystem,
        name: String,
        share: bool,
        priced: Arc<AtomicU64>,
    }

    impl Backend for Probe {
        fn name(&self) -> &str {
            &self.name
        }
        fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
            self.priced.fetch_add(1, Ordering::Relaxed);
            self.inner.service_time(model, shape)
        }
        fn fits(&self, model: &ModelConfig) -> Result<(), crate::capacity::CapacityError> {
            self.inner.fits(model)
        }
        fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
            self.priced.fetch_add(1, Ordering::Relaxed);
            self.inner.prefill_time(model, tokens)
        }
        fn decode_time(&mut self, model: &ModelConfig, past: u64, batch: u32) -> Duration {
            self.priced.fetch_add(1, Ordering::Relaxed);
            self.inner.decode_time(model, past, batch)
        }
        fn batch_fits(
            &self,
            model: &ModelConfig,
            batch: &[RequestShape],
        ) -> Result<f64, crate::capacity::CapacityError> {
            self.inner.batch_fits(model, batch)
        }
        fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
            self.inner.kv_transfer_time(model, tokens)
        }
        fn host_kv_bytes(&self) -> Option<u64> {
            self.inner.host_kv_bytes()
        }
        fn kv_budget_bytes(&self, model: &ModelConfig, widest_input: u64) -> Option<u64> {
            self.inner.kv_budget_bytes(model, widest_input)
        }
        fn clone_box(&self) -> Option<Box<dyn Backend>> {
            Some(Box::new(Probe {
                inner: self.inner.clone(),
                name: self.name.clone(),
                share: self.share,
                priced: self.priced.clone(),
            }))
        }
        fn prices_like(&self, other: &dyn Backend) -> bool {
            self.share
                && (other as &dyn Any)
                    .downcast_ref::<Probe>()
                    .is_some_and(|o| o.share && self.inner.prices_like(&o.inner))
        }
    }

    /// A cluster of one `Probe` per system, plus each replica's call
    /// counter. Unshared replicas are named apart (`"IANUS #3"`), so no
    /// grouping keyed on names could merge the baseline's replicas.
    fn probed(
        cfg: ServingConfig,
        systems: &[SystemConfig],
        share: bool,
    ) -> (ServingSim, Vec<Arc<AtomicU64>>) {
        let mut sim = ServingSim::new(cfg);
        let mut counters = Vec::new();
        for (i, &system) in systems.iter().enumerate() {
            let priced = Arc::new(AtomicU64::new(0));
            counters.push(priced.clone());
            let inner = IanusSystem::new(system);
            let name = if share {
                inner.name().to_string()
            } else {
                format!("{} #{i}", inner.name())
            };
            sim = sim.replica(Probe {
                inner,
                name,
                share,
                priced,
            });
        }
        (sim, counters)
    }

    /// Asserts a shared cluster's report equals its unshared baseline's
    /// in everything but the baseline's replica names.
    fn assert_matches_baseline(shared: &ServingReport, mut baseline: ServingReport) {
        for (b, s) in baseline.per_replica.iter_mut().zip(&shared.per_replica) {
            b.name.clone_from(&s.name);
        }
        assert_eq!(shared, &baseline);
    }

    fn calls(counters: &[Arc<AtomicU64>]) -> Vec<u64> {
        counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Iteration-level with chunked prefill, preemption and paged KV
    /// behind a small host pool: every pricing call site runs.
    fn paged_preemptive(sim: ServingSim) -> ServingSim {
        sim.scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .kv_block(16)
        .host_kv_pool(Some(1 << 30))
    }

    /// A variant that still calls itself "IANUS" but prices PIM work
    /// differently.
    fn slow_macro_ianus() -> SystemConfig {
        SystemConfig {
            pim_macro_overhead: Duration::from_ns(5000),
            ..SystemConfig::ianus()
        }
    }

    #[test]
    fn identical_replicas_price_once_per_class_and_bit_identically() {
        let model = ModelConfig::gpt2_xl();
        let systems = [SystemConfig::ianus(); 4];
        let cfg = ServingConfig::shared_prefix(100.0, 160);
        let (shared, counts) = probed(cfg.clone(), &systems, true);
        let (unshared, _) = probed(cfg.clone(), &systems, false);
        let iteration = paged_preemptive(shared).run(&model);
        assert_matches_baseline(&iteration, paged_preemptive(unshared).run(&model));
        assert_eq!(iteration.completed, 160);
        assert!(iteration.preemptions > 0, "no KV pressure exercised");
        assert!(iteration.prefix_cache_hits > 0);
        let priced = calls(&counts);
        assert!(priced[0] > 0);
        assert_eq!(
            &priced[1..],
            &[0, 0, 0],
            "only the class's lowest member prices"
        );

        for dispatch in [
            DispatchPolicy::FcfsSingleQueue,
            DispatchPolicy::ShortestExpectedJob,
        ] {
            let cfg = ServingConfig::interactive(30.0, 80);
            let (shared, counts) = probed(cfg.clone(), &systems, true);
            let (unshared, _) = probed(cfg, &systems, false);
            let r = shared.dispatch(dispatch).run(&model);
            assert_matches_baseline(&r, unshared.dispatch(dispatch).run(&model));
            assert!(r.per_replica.iter().all(|p| p.completed > 0));
            let priced = calls(&counts);
            assert!(priced[0] > 0);
            assert_eq!(&priced[1..], &[0, 0, 0], "{dispatch:?}");
        }
    }

    #[test]
    fn heterogeneous_classes_match_unshared_baseline() {
        let model = ModelConfig::gpt2_m();
        let variant = slow_macro_ianus();
        let stage = ianus_model::Stage::Generation { past_tokens: 256 };
        assert_eq!(IanusSystem::new(variant).name(), "IANUS");
        assert_ne!(
            IanusSystem::new(variant).run_stage(&model, &stage).latency,
            IanusSystem::new(SystemConfig::ianus())
                .run_stage(&model, &stage)
                .latency,
            "the variant must price differently under the same name"
        );
        let systems = [
            SystemConfig::ianus(),
            variant,
            SystemConfig::npu_mem(),
            SystemConfig::ianus(),
            variant,
            SystemConfig::npu_mem(),
        ];
        let cfg = ServingConfig::long_prompt(60.0, 90);
        let (shared, counts) = probed(cfg.clone(), &systems, true);
        let (unshared, _) = probed(cfg, &systems, false);
        let build = |sim: ServingSim| {
            sim.scheduling(Scheduling::IterationLevel {
                max_batch: 8,
                prefill_chunk: Some(128),
                preempt: true,
            })
        };
        let r = build(shared).run(&model);
        assert_matches_baseline(&r, build(unshared).run(&model));
        let priced = calls(&counts);
        assert!(priced[..3].iter().all(|&c| c > 0), "{priced:?}");
        assert_eq!(&priced[3..], &[0, 0, 0]);

        let cfg = ServingConfig::interactive(40.0, 90);
        let (shared, _) = probed(cfg.clone(), &systems, true);
        let (unshared, _) = probed(cfg, &systems, false);
        let sej = DispatchPolicy::ShortestExpectedJob;
        assert_matches_baseline(
            &shared.dispatch(sej).run(&model),
            unshared.dispatch(sej).run(&model),
        );
    }

    /// Builder calls on a warm engine keep its replicas and memos:
    /// switching scheduling, policy, DMA overlap and KV mode to another
    /// configuration and back reproduces the first report without a
    /// single new pricing call, and the detour matches a fresh engine.
    #[test]
    fn builder_calls_keep_warm_memos() {
        let model = ModelConfig::gpt2_xl();
        let fresh = || {
            let (sim, counts) = probed(
                ServingConfig::shared_prefix(100.0, 60),
                &[SystemConfig::ianus()],
                true,
            );
            (sim.host_kv_pool(Some(1 << 30)), counts)
        };
        let config_a = |sim: ServingSim| {
            sim.scheduling(Scheduling::IterationLevel {
                max_batch: 32,
                prefill_chunk: Some(128),
                preempt: true,
            })
            .policy(SchedulerPolicy::default())
            .overlap_dma(false)
            .kv_block(16)
        };
        let config_b = |sim: ServingSim| {
            sim.scheduling(Scheduling::IterationLevel {
                max_batch: 8,
                prefill_chunk: Some(64),
                preempt: true,
            })
            .policy(SchedulerPolicy::default().with_eviction(EvictionPolicy::LargestKv))
            .overlap_dma(true)
            .kv_block(32)
        };

        let (sim, counts) = fresh();
        let mut sim = config_a(sim);
        let first = sim.run(&model);
        assert!(first.preemptions > 0, "no KV pressure exercised");
        let mut sim = config_b(sim);
        let detour = sim.run(&model);
        assert_ne!(detour, first);
        assert_eq!(detour, config_b(fresh().0).run(&model));
        let mut sim = config_a(sim);
        let priced = calls(&counts);
        assert_eq!(sim.run(&model), first);
        assert_eq!(calls(&counts), priced, "the warm memos price config A");
    }

    #[test]
    fn late_replicas_clones_and_sweeps_match_cold_engines() {
        let model = ModelConfig::gpt2_m();
        let cfg = ServingConfig::long_prompt(40.0, 60);
        let iteration = Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: Some(128),
            preempt: false,
        };
        let cold = |systems: &[SystemConfig]| {
            ServingSim::new(cfg.clone())
                .cluster(systems.len(), |i| IanusSystem::new(systems[i]))
                .scheduling(iteration)
        };
        let two = [SystemConfig::ianus(); 2];
        let four = [
            SystemConfig::ianus(),
            SystemConfig::ianus(),
            SystemConfig::ianus(),
            slow_macro_ianus(),
        ];

        // Replicas added after a warm run join (or found) classes.
        let mut warm = cold(&two);
        warm.run(&model);
        let mut grown = warm
            .boxed_replica(Box::new(IanusSystem::new(four[2])))
            .boxed_replica(Box::new(IanusSystem::new(four[3])));
        assert_eq!(grown.run(&model), cold(&four).run(&model));

        // A clone of a warm shared engine carries its classes.
        let mut clone = grown.try_clone().expect("IANUS clones");
        assert_eq!(clone.run(&model), cold(&four).run(&model));

        // Parallel sweeps (one clone per extra rate) equal serial runs
        // on one shared engine.
        let rates = [10.0, 40.0, 160.0];
        let parallel = cold(&four).sweep_rates(&model, &rates);
        let mut serial = cold(&four);
        for (rate, report) in rates.iter().zip(&parallel) {
            serial.set_rate(*rate);
            assert_eq!(&serial.run(&model), report, "rate {rate}");
        }
    }
}

/// Cost-blind policies: the engine prices eviction costs only for
/// policies that read them, and no report may tell the difference.
mod cost_blind {
    use super::*;
    use crate::serving::engine::FORCE_PRICING;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A simulated device that counts its `prefill_time` and
    /// `kv_transfer_time` calls.
    struct Counting {
        inner: IanusSystem,
        prefills: Arc<AtomicU64>,
        transfers: Arc<AtomicU64>,
    }

    impl Backend for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
            self.inner.service_time(model, shape)
        }
        fn fits(&self, model: &ModelConfig) -> Result<(), crate::capacity::CapacityError> {
            self.inner.fits(model)
        }
        fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
            self.prefills.fetch_add(1, Ordering::Relaxed);
            self.inner.prefill_time(model, tokens)
        }
        fn decode_time(&mut self, model: &ModelConfig, past: u64, batch: u32) -> Duration {
            self.inner.decode_time(model, past, batch)
        }
        fn batch_fits(
            &self,
            model: &ModelConfig,
            batch: &[RequestShape],
        ) -> Result<f64, crate::capacity::CapacityError> {
            self.inner.batch_fits(model, batch)
        }
        fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
            self.transfers.fetch_add(1, Ordering::Relaxed);
            self.inner.kv_transfer_time(model, tokens)
        }
        fn host_kv_bytes(&self) -> Option<u64> {
            self.inner.host_kv_bytes()
        }
        fn kv_budget_bytes(&self, model: &ModelConfig, widest_input: u64) -> Option<u64> {
            self.inner.kv_budget_bytes(model, widest_input)
        }
    }

    /// A preempting paged GPT-2 XL run under `policy` behind a tight
    /// host pool, with every eviction view priced when `force` is set:
    /// its report and its (`prefill_time`, `kv_transfer_time`) call
    /// counts.
    fn run(policy: SchedulerPolicy, force: bool) -> (ServingReport, u64, u64) {
        let (prefills, transfers) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut sim = ServingSim::new(ServingConfig::shared_prefix(100.0, 60))
            .replica(Counting {
                inner: IanusSystem::new(SystemConfig::ianus()),
                prefills: prefills.clone(),
                transfers: transfers.clone(),
            })
            .scheduling(Scheduling::IterationLevel {
                max_batch: 32,
                prefill_chunk: Some(128),
                preempt: true,
            })
            .kv_block(16)
            .host_kv_pool(Some(1 << 30))
            .policy(policy);
        FORCE_PRICING.set(force);
        let report = sim.run(&ModelConfig::gpt2_xl());
        FORCE_PRICING.set(false);
        assert!(report.preemptions > 0, "no KV pressure exercised");
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (report, count(&prefills), count(&transfers))
    }

    #[test]
    fn cost_blind_policies_match_priced_runs_with_fewer_prices() {
        let default = SchedulerPolicy::default();
        let cases = EvictionPolicy::ALL
            .into_iter()
            .filter(|p| !p.reads_costs())
            .map(|p| default.with_eviction(p))
            .chain([default.with_mechanism(EvictionMechanism::Cheapest)]);
        for policy in cases {
            let label = policy.label();
            let (blind, blind_prefills, blind_transfers) = run(policy, false);
            let (full, full_prefills, full_transfers) = run(policy, true);
            assert_eq!(format!("{blind:?}"), format!("{full:?}"), "{label}");
            assert!(
                blind_prefills < full_prefills,
                "{label}: prefill_time {blind_prefills} vs {full_prefills}"
            );
            assert!(
                blind_transfers < full_transfers,
                "{label}: kv_transfer_time {blind_transfers} vs {full_transfers}"
            );
        }
    }

    /// A policy that reads costs keeps every candidate priced: forcing
    /// the pricing changes nothing for it, down to its backend calls.
    #[test]
    fn cheapest_eviction_prices_every_candidate() {
        let policy = SchedulerPolicy::default().with_eviction(EvictionPolicy::Cheapest);
        assert!(policy.eviction.reads_costs());
        let plain = run(policy, false);
        let forced = run(policy, true);
        assert_eq!(format!("{:?}", plain.0), format!("{:?}", forced.0));
        assert_eq!((plain.1, plain.2), (forced.1, forced.2));
    }
}

/// [`ServingSim::validate`]: the rules `run` used to assert, the
/// arrival and class rules, and that it prices nothing.
mod preflight {
    use super::*;
    use crate::capacity::CapacityError;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A synthetic replica that counts its pricing calls and holds no
    /// sequence longer than `max_tokens`.
    struct Counting {
        calls: Arc<AtomicU64>,
        max_tokens: u64,
    }

    impl Counting {
        fn priced(&self) -> Duration {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Duration::from_us(100)
        }
    }

    impl Backend for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn service_time(&mut self, _: &ModelConfig, _: RequestShape) -> Duration {
            self.priced()
        }
        fn fits(&self, _: &ModelConfig) -> Result<(), CapacityError> {
            Ok(())
        }
        fn prefill_time(&mut self, _: &ModelConfig, _: u64) -> Duration {
            self.priced()
        }
        fn decode_time(&mut self, _: &ModelConfig, _: u64, _: u32) -> Duration {
            self.priced()
        }
        fn kv_transfer_time(&mut self, _: &ModelConfig, _: u64) -> Duration {
            self.priced()
        }
        fn batch_fits(
            &self,
            _: &ModelConfig,
            batch: &[RequestShape],
        ) -> Result<f64, CapacityError> {
            match batch.iter().map(RequestShape::total_tokens).max() {
                Some(required) if required > self.max_tokens => Err(CapacityError::OutOfMemory {
                    required,
                    available: self.max_tokens,
                }),
                _ => Ok(0.0),
            }
        }
    }

    fn flat() -> ServingConfig {
        ServingConfig::interactive(1.0, 4)
    }

    fn workflows() -> ServingConfig {
        ServingConfig::workflow_mix(1.0, 4, vec![WorkflowTemplate::agent_chain()])
    }

    fn one(cfg: ServingConfig) -> ServingSim {
        ServingSim::new(cfg).replica(fixed("a", 100))
    }

    fn iteration(cfg: ServingConfig) -> ServingSim {
        one(cfg).scheduling(Scheduling::iteration(4))
    }

    fn error(sim: ServingSim) -> ConfigError {
        sim.validate(&ModelConfig::gpt2_m())
            .expect_err("the preflight rejects the run")
    }

    /// Each of the thirteen rules `run` asserted before it called the
    /// preflight.
    #[test]
    fn run_asserts_are_validate_errors() {
        assert_eq!(error(ServingSim::new(flat())), ConfigError::NoReplicas);
        let both = ServingConfig {
            mix: flat().mix,
            ..workflows()
        };
        assert_eq!(error(iteration(both)), ConfigError::MixAndWorkflows);
        let mut weightless = workflows();
        weightless.workflows[0].weight = 0.0;
        let weight = ConfigError::WorkflowWeight(0, 0.0);
        assert_eq!(error(iteration(weightless)), weight);
        let node = |parent| WorkflowNode::with_parents(RequestShape::new(32, 16), vec![parent]);
        let cyclic = ServingConfig {
            workflows: vec![WorkflowTemplate::new(vec![node(1), node(0)], 1.0)],
            ..workflows()
        };
        assert!(matches!(
            error(iteration(cyclic)),
            ConfigError::Workflow(0, WorkflowError::Cycle { .. })
        ));
        let empty = ServingConfig {
            mix: vec![],
            ..flat()
        };
        assert_eq!(error(one(empty)), ConfigError::EmptyMix);
        let mut negative = flat();
        negative.mix[1].weight = -1.0;
        assert_eq!(error(one(negative)), ConfigError::ClassWeight(1, -1.0));
        let still = ServingConfig {
            arrival_rate_hz: 0.0,
            ..flat()
        };
        assert_eq!(error(one(still)), ConfigError::ArrivalRate(0.0));
        let calm = ServingConfig {
            arrivals: ArrivalSpec::mmpp(0.5, 1.0, 1.0),
            ..flat()
        };
        assert_eq!(error(one(calm)), ConfigError::BurstFactor(0.5));
        let roles = one(flat()).replica_with_role(fixed("b", 100), ReplicaRole::PrefillOnly);
        assert_eq!(error(roles), ConfigError::RolesNeedIterationLevel);
        let request_level = error(one(workflows()));
        assert_eq!(request_level, ConfigError::WorkflowsNeedIterationLevel);
        let batchless = one(flat()).scheduling(Scheduling::iteration(0));
        assert_eq!(error(batchless), ConfigError::ZeroMaxBatch);
        let chunkless = one(flat()).scheduling(Scheduling::IterationLevel {
            max_batch: 4,
            prefill_chunk: Some(0),
            preempt: false,
        });
        assert_eq!(error(chunkless), ConfigError::ZeroPrefillChunk);
        let decoders = ServingSim::new(flat())
            .replica_with_role(fixed("a", 100), ReplicaRole::DecodeOnly)
            .scheduling(Scheduling::iteration(4));
        assert_eq!(error(decoders), ConfigError::AllDecodeOnly);
        // The same configs without the fault pass.
        assert_eq!(one(flat()).validate(&ModelConfig::gpt2_m()), Ok(()));
        assert_eq!(
            iteration(workflows()).validate(&ModelConfig::gpt2_m()),
            Ok(())
        );
    }

    /// Infinite or NaN arrival parameters are errors, not hangs: an
    /// infinite MMPP burst factor used to pass and then never return.
    #[test]
    fn non_finite_arrival_parameters_are_rejected() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let tenants = |share: f64, weights: Vec<f64>| ArrivalSpec::MultiTenant {
            tenants: vec![TenantSpec {
                share,
                inner: ArrivalSpec::Poisson,
                mix_weights: Some(weights),
            }],
        };
        let specs = [
            ArrivalSpec::mmpp(inf, 1.0, 1.0),
            ArrivalSpec::mmpp(nan, 1.0, 1.0),
            ArrivalSpec::mmpp(4.0, inf, 1.0),
            ArrivalSpec::mmpp(4.0, 1.0, inf),
            ArrivalSpec::diurnal(0.5, inf),
            ArrivalSpec::diurnal(nan, 10.0),
            tenants(inf, vec![1.0; 3]),
            tenants(1.0, vec![1.0, inf, 1.0]),
        ];
        for spec in specs {
            assert!(spec.validate().is_err(), "{spec:?}");
            let cfg = ServingConfig {
                arrivals: spec.clone(),
                ..flat()
            };
            assert!(
                one(cfg).validate(&ModelConfig::gpt2_m()).is_err(),
                "{spec:?}"
            );
        }
        for rate in [inf, nan] {
            let cfg = ServingConfig {
                arrival_rate_hz: rate,
                ..flat()
            };
            assert!(matches!(error(one(cfg)), ConfigError::ArrivalRate(_)));
        }
    }

    /// A tenant's mix override needs one weight per class (per template
    /// under a workflow mix), in release builds too: a short one used to
    /// run and never draw the missing classes.
    #[test]
    fn tenant_mix_overrides_must_cover_the_mix() {
        let cfg = |mix: ServingConfig, weights: Vec<f64>| ServingConfig {
            arrivals: three_tenants(weights),
            ..mix
        };
        let short = one(cfg(flat(), vec![1.0, 1.0]));
        assert_eq!(error(short), ConfigError::TenantWeightCount(2, 2, 3));
        let long = iteration(cfg(workflows(), vec![1.0, 1.0]));
        assert_eq!(error(long), ConfigError::TenantWeightCount(2, 2, 1));
        let model = ModelConfig::gpt2_m();
        assert_eq!(one(cfg(flat(), vec![1.0; 3])).validate(&model), Ok(()));
        let covered = iteration(cfg(workflows(), vec![1.0]));
        assert_eq!(covered.validate(&model), Ok(()));
    }

    /// A workflow node's effective prompt includes its parents' outputs:
    /// two nodes that each fit GPT-2 M alone can make a child that
    /// passes its 1024-position table.
    #[test]
    fn workflow_nodes_are_checked_at_their_effective_prompts() {
        let tpl = WorkflowTemplate::new(
            vec![
                WorkflowNode::new(RequestShape::new(512, 512)),
                WorkflowNode::with_parents(RequestShape::new(512, 8), vec![0]),
            ],
            1.0,
        );
        let cfg = ServingConfig::workflow_mix(1.0, 4, vec![tpl]);
        assert_eq!(
            error(iteration(cfg)),
            ConfigError::Unadmittable {
                class: 1,
                shape: RequestShape::new(1024, 8),
                replica: None,
                error: CapacityError::SequenceTooLong {
                    requested: 1031,
                    max_seq: 1024,
                },
            }
        );
    }

    /// On a cluster whose replicas differ, the error names the replica
    /// that cannot hold the model, or the class; decode-only replicas
    /// admit no arrival, so a class need not fit them on its own.
    #[test]
    fn errors_name_the_replica_that_falls_short() {
        // A partitioned device keeps 4 GiB for weights: GPT-2 2.5B needs
        // more, and fits the unified device.
        let model = ModelConfig::gpt2_2_5b();
        let split = ServingSim::new(flat())
            .replica_with_role(
                IanusSystem::new(SystemConfig::ianus()),
                ReplicaRole::DecodeOnly,
            )
            .replica_with_role(
                IanusSystem::new(SystemConfig::partitioned()),
                ReplicaRole::PrefillOnly,
            )
            .scheduling(Scheduling::iteration(4));
        assert!(matches!(
            split.validate(&model),
            Err(ConfigError::DoesNotFit(
                1,
                CapacityError::OutOfMemory { .. }
            ))
        ));
        let shape = RequestShape::new(512, 64);
        let cfg = ServingConfig {
            mix: mix_one(shape),
            ..flat()
        };
        let short = || Counting {
            calls: Arc::default(),
            max_tokens: 256,
        };
        let unified = one(cfg.clone()).replica(short());
        assert_eq!(
            unified.validate(&model),
            Err(ConfigError::Unadmittable {
                class: 0,
                shape,
                replica: Some(1),
                error: CapacityError::OutOfMemory {
                    required: 575,
                    available: 256,
                },
            })
        );
        let decoding = ServingSim::new(cfg)
            .replica_with_role(fixed("a", 100), ReplicaRole::PrefillOnly)
            .replica_with_role(short(), ReplicaRole::DecodeOnly)
            .scheduling(Scheduling::iteration(4));
        assert_eq!(decoding.validate(&model), Ok(()));
    }

    /// The preflight prices nothing; the run it clears does.
    #[test]
    fn validate_prices_nothing() {
        let model = ModelConfig::gpt2_m();
        let calls = Arc::new(AtomicU64::new(0));
        for scheduling in [
            Scheduling::RequestLevel,
            Scheduling::IterationLevel {
                max_batch: 4,
                prefill_chunk: Some(64),
                preempt: true,
            },
        ] {
            let mut sim = ServingSim::new(ServingConfig::shared_prefix(4.0, 8))
                .cluster(2, |_| Counting {
                    calls: calls.clone(),
                    max_tokens: u64::MAX,
                })
                .scheduling(scheduling)
                .kv_block(16);
            assert_eq!(sim.validate(&model), Ok(()));
            assert_eq!(calls.load(Ordering::Relaxed), 0);
            assert_eq!(sim.run(&model).completed, 8);
            assert!(calls.swap(0, Ordering::Relaxed) > 0);
        }
    }
}
