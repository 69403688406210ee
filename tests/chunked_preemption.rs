//! Chunked-prefill and KV-pressure-preemption invariants, on the real
//! simulated device: preempted sequences always complete, chunked
//! admission never overruns device memory, a chunk at least the prompt
//! degenerates to monolithic prefill exactly — and the acceptance
//! criterion, chunked prefill beating monolithic ITL tails on a
//! long-prompt priority mix at equal arrival rate.

use common::{chunked, pr3_scenario};
use ianus::prelude::*;
use proptest::prelude::*;

pub mod common;

proptest! {
    // Every case prices a fresh device; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Preemption's liveness contract: however aggressively optimistic
    /// admission overcommits, every sequence — preempted or not — must
    /// complete, and the pressure checks must never account past
    /// device memory.
    #[test]
    fn preempted_sequences_always_complete(
        seed in 0u64..1000,
        rate in prop::sample::select(vec![10.0f64, 30.0, 60.0]),
        max_batch in 8u32..33,
        chunk in prop::sample::select(vec![None, Some(128u64), Some(256)]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 24,
            seed,
            mix: vec![RequestClass::new(RequestShape::new(512, 512), 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let r = ServingSim::new(cfg)
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch,
                prefill_chunk: chunk,
                preempt: true,
            })
            .run(&ModelConfig::gpt2_xl());
        prop_assert_eq!(r.completed, 24);
        prop_assert!(r.peak_batch <= max_batch);
        // Under preemption the report may record documented tolerated
        // overcommit slightly above 1 (lone/all-prefilling batches).
        prop_assert!(
            r.peak_kv_occupancy > 0.0 && r.peak_kv_occupancy < 1.25,
            "occupancy {} outside (0, 1.25)", r.peak_kv_occupancy
        );
        prop_assert!(r.preempted_requests <= r.completed);
        prop_assert!(r.preemptions >= u64::from(r.max_preemptions));
        // Class counts partition the total.
        let by_class: u64 = r.per_class.iter().map(|c| c.preemptions).sum();
        prop_assert_eq!(by_class, r.preemptions);
    }

    /// Chunked prefill's memory contract: interleaving chunks with
    /// decode never lets the admission gate's accounting exceed device
    /// memory, with or without preemption.
    #[test]
    fn peak_kv_occupancy_bounded_under_chunked_prefill(
        seed in 0u64..1000,
        chunk in prop::sample::select(vec![64u64, 128, 256]),
        preempt in any::<bool>(),
        shape in prop::sample::select(vec![
            RequestShape::new(256, 128),
            RequestShape::new(512, 512),
        ]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: 40.0,
            requests: 24,
            seed,
            mix: vec![RequestClass::new(shape, 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let r = ServingSim::new(cfg)
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 8,
                prefill_chunk: Some(chunk),
                preempt,
            })
            .run(&ModelConfig::gpt2_xl());
        prop_assert_eq!(r.completed, 24);
        // Without preemption the admission gate never lets the
        // accounting exceed device memory; with it, only documented
        // tolerated overcommit may nudge past 1.
        let cap = if preempt { 1.25 } else { 1.0 };
        prop_assert!(
            r.peak_kv_occupancy > 0.0 && r.peak_kv_occupancy <= cap,
            "occupancy {} outside (0, {}]", r.peak_kv_occupancy, cap
        );
    }

    /// A chunk size at or above every prompt in the mix takes the same
    /// code path as monolithic prefill, so at batch 1 (and any batch)
    /// the two schedules must be identical — not merely close.
    #[test]
    fn chunk_at_least_prompt_matches_monolithic_exactly(
        seed in 0u64..1000,
        max_batch in 1u32..5,
        chunk in prop::sample::select(vec![128u64, 500, 4096]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: 5.0,
            requests: 40,
            seed,
            mix: vec![RequestClass::new(RequestShape::new(128, 16), 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let run = |prefill_chunk| {
            ServingSim::new(cfg.clone())
                .replica(IanusSystem::new(SystemConfig::ianus()))
                .scheduling(Scheduling::IterationLevel {
                    max_batch,
                    prefill_chunk,
                    preempt: false,
                })
                .run(&ModelConfig::gpt2_m())
        };
        prop_assert_eq!(run(Some(chunk)), run(None));
    }
}

/// The acceptance criterion on the real device: at the same arrival
/// rate on the long-prompt priority mix, chunking the prefill cuts the
/// interactive inter-token p99 well below monolithic prefill (each
/// resident decode stalls one 128-token chunk, not one 896-token
/// prompt), without hurting completions or sojourn tails.
#[test]
fn chunked_prefill_beats_monolithic_itl_on_ianus() {
    let model = ModelConfig::gpt2_m();
    // ~70% utilization: long prefills regularly land on a running
    // decode batch (far below that they mostly run alone and both
    // schedules' tails coincide).
    let run = |prefill_chunk| {
        ServingSim::new(ServingConfig::long_prompt(12.0, 300))
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch: 4,
                prefill_chunk,
                preempt: false,
            })
            .run(&model)
    };
    let mono = run(None);
    let chunked = run(Some(128));
    assert_eq!(chunked.completed, mono.completed);
    assert!(
        chunked.inter_token.p99.as_ns_f64() < 0.5 * mono.inter_token.p99.as_ns_f64(),
        "chunked ITL p99 {} should be well under monolithic {}",
        chunked.inter_token.p99,
        mono.inter_token.p99
    );
    assert!(
        chunked.sojourn.p99.as_ns_f64() < 1.2 * mono.sojourn.p99.as_ns_f64(),
        "chunking must not degrade sojourn tails: {} vs {}",
        chunked.sojourn.p99,
        mono.sojourn.p99
    );
}

/// Preemption on a priority mix: batch-tier sequences absorb the
/// evictions, and the preempted work still completes — on the GPU
/// baseline too, whose swap costs come from its PCIe host link rather
/// than IANUS's.
#[test]
fn preemption_runs_on_gpu_baseline_with_priorities() {
    let cfg = ServingConfig {
        arrival_rate_hz: 60.0,
        requests: 60,
        seed: 3,
        ..pr3_scenario()
    };
    // GPT-2 XL KV on 80 GB HBM is roomy; shrink the pressure window by
    // packing many sequences (A100 fits ~250 of these at final length,
    // so overcommit needs a deep slot budget to show).
    let r = ServingSim::new(cfg)
        .replica(GpuModel::a100())
        .scheduling(chunked(512, 256))
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 60);
    // 60 sequences of ~300 MB KV against 80 GB never actually build
    // pressure — the point is the whole pipeline (priorities, chunking,
    // preemptive admission) runs end-to-end on the baseline backend.
    assert!(r.peak_kv_occupancy <= 1.0);
    let by_class: u64 = r.per_class.iter().map(|c| c.preemptions).sum();
    assert_eq!(by_class, r.preemptions);
}
