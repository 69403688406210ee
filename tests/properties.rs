//! Workspace-level property tests: invariants that must hold across the
//! whole stack for arbitrary workloads and configurations.

use ianus::prelude::*;
use proptest::prelude::*;

fn gpt2_models() -> impl Strategy<Value = ModelConfig> {
    prop::sample::select(ModelConfig::gpt2_family().to_vec())
}

proptest! {
    // End-to-end simulations are not free; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn latency_monotone_in_output_tokens(
        model in gpt2_models(),
        input in prop::sample::select(vec![32u64, 64, 128]),
        out_lo in 1u64..16,
        extra in 1u64..16,
    ) {
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let a = sys.run_request(&model, RequestShape::new(input, out_lo)).total;
        let b = sys.run_request(&model, RequestShape::new(input, out_lo + extra)).total;
        prop_assert!(b > a, "{} vs {}", a, b);
    }

    #[test]
    fn summarization_latency_monotone_in_input(
        model in gpt2_models(),
        lo in prop::sample::select(vec![32u64, 64, 128, 256]),
    ) {
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let a = sys.run_stage(&model, &Stage::Summarization { tokens: lo }).latency;
        let b = sys.run_stage(&model, &Stage::Summarization { tokens: lo * 2 }).latency;
        prop_assert!(b > a);
    }

    #[test]
    fn ianus_never_slower_than_npu_mem_generation(
        model in gpt2_models(),
        past in prop::sample::select(vec![16u64, 64, 256, 512]),
    ) {
        let stage = Stage::Generation { past_tokens: past };
        let i = IanusSystem::new(SystemConfig::ianus()).run_stage(&model, &stage).latency;
        let n = IanusSystem::new(SystemConfig::npu_mem()).run_stage(&model, &stage).latency;
        prop_assert!(i <= n, "IANUS {} vs NPU-MEM {}", i, n);
    }

    #[test]
    fn adaptive_never_worse_than_both_forced_mappings(
        model in gpt2_models(),
        tokens in prop::sample::select(vec![2u64, 4, 8, 16, 32]),
    ) {
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let adaptive = sys.run_fc_microbench(&model, tokens, FcMapping::Adaptive).latency;
        let mu = sys.run_fc_microbench(&model, tokens, FcMapping::MatrixUnit).latency;
        let pim = sys.run_fc_microbench(&model, tokens, FcMapping::Pim).latency;
        // Algorithm 1 decides per FC from compile-time analytic
        // estimates; near the PIM/MU crossover (where the two forced
        // mappings are within ~15% of each other) those estimates can
        // diverge from the simulated schedule and pick the slightly
        // slower unit, so the bound tolerates that skew.
        let best = mu.min(pim);
        prop_assert!(
            adaptive.as_ns_f64() <= best.as_ns_f64() * 1.15,
            "adaptive {} vs best {}",
            adaptive,
            best
        );
    }

    #[test]
    fn breakdown_classes_bound_total_busy(
        model in gpt2_models(),
        past in prop::sample::select(vec![32u64, 128]),
    ) {
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let s = sys.run_stage(&model, &Stage::Generation { past_tokens: past });
        // Busy time summed over classes must be at least the makespan of
        // one unit (something ran) and each class is non-negative.
        prop_assert!(s.breakdown.total().as_ns_f64() > 0.0);
        for class in OpClass::ALL {
            prop_assert!(s.breakdown.get(class).as_ns_f64() >= 0.0);
        }
    }

    #[test]
    fn energy_components_scale_with_work(
        model in gpt2_models(),
        past in prop::sample::select(vec![16u64, 64]),
    ) {
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let one = sys.run_stage(&model, &Stage::Generation { past_tokens: past }).energy;
        // Same stage twice = exactly double the energy (determinism +
        // additivity).
        let mut total = one;
        total.merge(&one);
        prop_assert!((total.total_pj() - 2.0 * one.total_pj()).abs() < 1e-6);
        prop_assert!(one.pim_pj > 0.0);
    }

    #[test]
    fn devices_reduce_latency(
        devices in prop::sample::select(vec![2u32, 4, 8]),
    ) {
        let model = ModelConfig::gpt_6_7b();
        let req = RequestShape::new(128, 8);
        let base = IanusSystem::new(SystemConfig::ianus().with_devices(devices))
            .run_request(&model, req).total;
        let more = IanusSystem::new(SystemConfig::ianus().with_devices(devices * 2))
            .run_request(&model, req).total;
        prop_assert!(more < base);
    }

    #[test]
    fn iteration_admission_never_violates_kv_residency(
        seed in 0u64..1000,
        rate in prop::sample::select(vec![2.0f64, 8.0, 40.0]),
        max_batch in 1u32..6,
        shape in prop::sample::select(vec![
            RequestShape::new(128, 32),
            RequestShape::new(256, 128),
            RequestShape::new(512, 512),
        ]),
    ) {
        // Iteration-level serving must (a) finish every request, (b)
        // never exceed the slot cap, and (c) never admit a batch whose
        // projected KV-resident footprint exceeds device memory — the
        // occupancy the engine records is the gate's own accounting, so
        // a value above 1 means an admission slipped past the check.
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 30,
            seed,
            mix: vec![RequestClass::new(shape, 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let r = ServingSim::new(cfg)
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::iteration(max_batch))
            .run(&ModelConfig::gpt2_xl());
        prop_assert_eq!(r.completed, 30);
        prop_assert!(r.peak_batch <= max_batch);
        prop_assert!(
            r.peak_kv_occupancy > 0.0 && r.peak_kv_occupancy <= 1.0,
            "occupancy {} outside (0, 1]", r.peak_kv_occupancy
        );
        // Every admitted batch fits by the same arithmetic the gate uses.
        let backend = IanusSystem::new(SystemConfig::ianus());
        for width in 1..=r.peak_batch {
            let batch = vec![shape; width as usize];
            prop_assert!(
                Backend::batch_fits(&backend, &ModelConfig::gpt2_xl(), &batch).is_ok(),
                "peak batch of {} x {:?} does not fit", width, shape
            );
        }
    }
}

#[test]
fn adaptive_crossover_skew_is_pinned() {
    // The 1.15x tolerance above exists for this measured case: at the
    // PIM/MU crossover (GPT-2 M, 8-token FC microbench) Algorithm 1's
    // compile-time estimates pick PIM while the simulated schedule makes
    // the matrix unit ~13% faster (2.696 ms vs 2.380 ms when pinned).
    // A regression that widens the skew past the tolerance fails here
    // with full context rather than in a sampled property case.
    let model = ModelConfig::gpt2_m();
    let mut sys = IanusSystem::new(SystemConfig::ianus());
    let adaptive = sys
        .run_fc_microbench(&model, 8, FcMapping::Adaptive)
        .latency;
    let mu = sys
        .run_fc_microbench(&model, 8, FcMapping::MatrixUnit)
        .latency;
    let pim = sys.run_fc_microbench(&model, 8, FcMapping::Pim).latency;
    let best = mu.min(pim).as_ns_f64();
    let ratio = adaptive.as_ns_f64() / best;
    assert!(ratio <= 1.15, "adaptive/best ratio {ratio}");
}

#[test]
fn simulation_is_deterministic() {
    let model = ModelConfig::gpt2_l();
    let req = RequestShape::new(128, 16);
    let a = IanusSystem::new(SystemConfig::ianus()).run_request(&model, req);
    let b = IanusSystem::new(SystemConfig::ianus()).run_request(&model, req);
    assert_eq!(a.total, b.total);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.energy, b.energy);
}
