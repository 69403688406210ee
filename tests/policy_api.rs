//! Scheduler-policy API acceptance: the default bundle reproduces the
//! pre-policy (PR 3) scheduler bit-identically on the pinned preemption
//! scenario, non-default eviction policies measurably change the
//! interactive tier's preemption distribution and tails, and *every*
//! built-in eviction policy preserves the liveness invariants of
//! `tests/chunked_preemption.rs`.

use ianus::prelude::*;
use proptest::prelude::*;

/// The PR 3 preemption scenario (`serving_queue`'s closing section,
/// `examples/policy_sweep.rs`'s subject): GPT-2 XL (512,512) drafts,
/// 50/50 interactive/batch tiers, one 8 GB IANUS device, heavy
/// overload.
fn pr3_scenario() -> ServingConfig {
    let shape = RequestShape::new(512, 512);
    ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 120,
        seed: 0x5EED,
        mix: vec![
            RequestClass::new(shape, 0.5),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    }
}

fn run_pr3(policy: SchedulerPolicy) -> ServingReport {
    ServingSim::new(pr3_scenario())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .policy(policy)
        .run(&ModelConfig::gpt2_xl())
}

/// The refactor contract: the engine under the default bundle — swap
/// eviction mechanism, serialized (non-overlapped) DMA, a host pool
/// the scenario never fills — reproduces the pinned schedule
/// **bit-identically**: the integer counters (the PR 3/PR 4 values,
/// unchanged) are exact and the latency pins hold to sub-nanosecond.
/// The latency/throughput pins were refreshed in PR 5 for two bugfixes
/// that legitimately moved them: the heterogeneous-batch decode mean is
/// now rounded instead of floored, and utilization stopped counting
/// swap DMA as compute (0.9971 → 0.9939 here; the schedule itself is
/// unchanged — every count and the tier split are still exactly PR 3).
#[test]
fn default_bundle_reproduces_pinned_numbers_bit_identically() {
    let r = run_pr3(SchedulerPolicy::default());
    assert_eq!(r.completed, 120);
    assert_eq!(r.preemptions, 166);
    assert_eq!(r.preempted_requests, 55);
    assert_eq!(r.max_preemptions, 7);
    assert_eq!(r.peak_batch, 32);
    assert_eq!(r.per_class[0].preemptions, 1);
    assert_eq!(r.per_class[1].preemptions, 165);
    assert_eq!(r.per_class[0].completed, 63);
    assert_eq!(r.per_class[1].completed, 57);
    let pins = [
        (
            r.sojourn.p50.as_ns_f64(),
            156_044_606_306.706,
            "p50 sojourn",
        ),
        (
            r.sojourn.p99.as_ns_f64(),
            249_635_468_799.372,
            "p99 sojourn",
        ),
        (r.ttft.p99.as_ns_f64(), 202_167_897_121.038, "ttft p99"),
        (r.inter_token.p50.as_ns_f64(), 109_027_501.291, "itl p50"),
        (r.inter_token.p99.as_ns_f64(), 144_886_619.462, "itl p99"),
        (
            r.mean_service.as_ns_f64(),
            2_346_781_227.852,
            "mean service",
        ),
        (
            r.per_class[0].sojourn.p99.as_ns_f64(),
            246_155_686_630.681,
            "interactive p99",
        ),
    ];
    for (got, want, what) in pins {
        assert!(
            (got - want).abs() < 0.5,
            "{what}: {got} ns vs pinned {want} ns"
        );
    }
    assert!((r.peak_kv_occupancy - 0.999_997_258_186_340_3).abs() < 1e-12);
    assert!((r.throughput_rps - 0.421_288_248_707_171_13).abs() < 1e-12);
    assert!((r.utilization - 0.993_946_396_393_345).abs() < 1e-12);
    // No SLOs in the mix: attainment is vacuous, goodput == throughput.
    assert_eq!(r.slo_attainment, 1.0);
    assert!((r.goodput_rps - r.throughput_rps).abs() < 1e-12);
    // Swap accounting: all 332 transfers (166 each way) are DMA, every
    // one stalls the serialized clock, none counts as compute.
    assert!((r.kv_dma.as_secs_f64() - 0.912_292_176).abs() < 1e-6);
    assert_eq!(r.kv_dma, r.swap_stall, "no overlap: every transfer stalls");
    assert_eq!(r.per_replica[0].kv_dma, r.kv_dma);
    // The 32 GiB default IANUS host pool absorbs the ~3.2 GiB of
    // swapped KV without ever forcing a recompute.
    assert_eq!(r.recomputes, 0);
    assert_eq!(r.host_kv_peak_bytes, 3_386_769_408);
    assert!((r.host_kv_peak_occupancy - 0.098_567_963).abs() < 1e-6);
}

/// The tentpole's reduction contract: forcing an **unbounded host
/// pool** leaves the default-settings schedule bit-identical (the
/// pool only matters when it would overflow), and the report itself —
/// minus the pool-occupancy fields — matches the pinned run exactly.
#[test]
fn unbounded_pool_reduces_to_pinned_baseline() {
    let mut bounded = run_pr3(SchedulerPolicy::default());
    let unbounded = ServingSim::new(pr3_scenario())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .host_kv_pool(None)
        .run(&ModelConfig::gpt2_xl());
    // An unbounded pool reports no occupancy; everything else is
    // identical, byte for byte.
    assert_eq!(unbounded.host_kv_peak_occupancy, 0.0);
    assert_eq!(unbounded.host_kv_peak_bytes, bounded.host_kv_peak_bytes);
    bounded.host_kv_peak_occupancy = 0.0;
    assert_eq!(unbounded, bounded);
}

/// The acceptance criterion's other half: non-default eviction policies
/// measurably change the interactive tier's preemption distribution
/// (largest-KV is tier-blind, so interactive sequences swap too) and
/// the overall schedule (least-progress needs fewer swaps).
#[test]
fn non_default_eviction_changes_interactive_tier() {
    let default = run_pr3(SchedulerPolicy::default());
    let largest = run_pr3(SchedulerPolicy::default().with_eviction(EvictionPolicy::LargestKv));
    let least = run_pr3(SchedulerPolicy::default().with_eviction(EvictionPolicy::LeastProgress));
    for (name, r) in [("largest-kv", &largest), ("least-progress", &least)] {
        assert_eq!(r.completed, 120, "{name}: liveness");
        assert!(r.preemptions > 0, "{name}: pressure must trigger");
    }
    // Tier-blind victim selection moves evictions onto the interactive
    // class — under the default it absorbs almost none.
    assert!(
        largest.per_class[0].preemptions > 10 * default.per_class[0].preemptions.max(1),
        "largest-kv interactive preemptions {} should dwarf the default's {}",
        largest.per_class[0].preemptions,
        default.per_class[0].preemptions
    );
    // And the interactive sojourn tail shifts measurably (>5%).
    let rel = (largest.per_class[0].sojourn.p99.as_ns_f64()
        - default.per_class[0].sojourn.p99.as_ns_f64())
    .abs()
        / default.per_class[0].sojourn.p99.as_ns_f64();
    assert!(
        rel > 0.05,
        "largest-kv should move the interactive p99 ({rel:.3} rel change)"
    );
    // Least-progress changes the preemption count itself (it loses the
    // least completed work per swap, re-evicting fresh re-admissions
    // less often than youngest-first does).
    assert_ne!(least.preemptions, default.preemptions);
}

/// An SLO on the interactive tier turns the sweep into a scored
/// comparison: attainment and goodput differ across eviction policies
/// on the same trace (the `policy_sweep` example's claim).
#[test]
fn eviction_policies_score_differently_under_slo() {
    let slo = Slo::new(Duration::from_secs_f64(60.0), Duration::from_ms(150));
    let mut cfg = pr3_scenario();
    cfg.mix[0] = cfg.mix[0].with_slo(slo);
    let run = |policy: SchedulerPolicy| {
        ServingSim::new(cfg.clone())
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
    // The batch class carries no SLO, so it trivially attains in both.
    assert_eq!(default.per_class[1].slo_attainment, 1.0);
    assert_eq!(largest.per_class[1].slo_attainment, 1.0);
    // The schedules differ, and so do the scores.
    assert!(
        (default.slo_attainment - largest.slo_attainment).abs() > 0.01,
        "attainment should differ: default {} vs largest-kv {}",
        default.slo_attainment,
        largest.slo_attainment
    );
    for r in [&default, &largest] {
        assert!(r.goodput_rps <= r.throughput_rps + 1e-12);
        assert!(
            (r.goodput_rps - r.throughput_rps * r.slo_attainment).abs() < 1e-9,
            "goodput must equal throughput x attainment"
        );
    }
}

/// Deadline-aware policies run end-to-end on the A100 baseline backend
/// too (policies are engine-level, not IANUS-specific).
#[test]
fn deadline_policies_run_on_gpu_baseline() {
    let shape = RequestShape::new(512, 512);
    let slo = Slo::new(Duration::from_secs_f64(30.0), Duration::from_ms(100));
    let cfg = ServingConfig {
        arrival_rate_hz: 60.0,
        requests: 60,
        seed: 3,
        mix: vec![
            RequestClass::new(shape, 0.5).with_slo(slo),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
        .replica(GpuModel::a100())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 512,
            prefill_chunk: Some(256),
            preempt: true,
        })
        .policy(
            SchedulerPolicy::default()
                .with_admission(AdmissionPolicy::Deadline)
                .with_readmission(ReadmissionPolicy::Deadline),
        )
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 60);
    assert!(r.slo_attainment > 0.0 && r.slo_attainment <= 1.0);
    assert!(r.goodput_rps <= r.throughput_rps + 1e-12);
}

proptest! {
    // Every case prices a fresh device; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// The liveness invariants of `tests/chunked_preemption.rs`, for
    /// **every** eviction policy (each case runs all of
    /// [`EvictionPolicy::ALL`] on one warm engine): however aggressively
    /// optimistic admission overcommits and whatever the victim rule,
    /// every sequence — preempted or not — completes, prefilling and
    /// lone sequences are never evicted (observable as: the run
    /// terminates with all requests done), and the pressure checks
    /// never account past device memory beyond the documented tolerated
    /// overcommit.
    #[test]
    fn every_eviction_policy_preserves_liveness(
        seed in 0u64..1000,
        rate in prop::sample::select(vec![10.0f64, 30.0, 60.0]),
        max_batch in 8u32..33,
        chunk in prop::sample::select(vec![None, Some(128u64), Some(256)]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 24,
            seed,
            mix: vec![
                RequestClass::new(RequestShape::new(512, 512), 0.5),
                RequestClass::new(RequestShape::new(512, 512), 0.5)
                    .with_priority(Priority::Batch),
            ],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let mut sim = ServingSim::new(cfg)
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(Scheduling::IterationLevel {
                max_batch,
                prefill_chunk: chunk,
                preempt: true,
            });
        for eviction in EvictionPolicy::ALL {
            let name = eviction.name();
            sim = sim.policy(SchedulerPolicy::default().with_eviction(eviction));
            let r = sim.run(&ModelConfig::gpt2_xl());
            prop_assert!(r.completed == 24, "{name}: {} completed", r.completed);
            prop_assert!(r.peak_batch <= max_batch, "{name}");
            // Under preemption the report may record documented
            // tolerated overcommit slightly above 1 (lone/all-prefilling
            // batches).
            prop_assert!(
                r.peak_kv_occupancy > 0.0 && r.peak_kv_occupancy < 1.25,
                "{name}: occupancy {} outside (0, 1.25)", r.peak_kv_occupancy
            );
            prop_assert!(r.preempted_requests <= r.completed, "{name}");
            prop_assert!(r.preemptions >= u64::from(r.max_preemptions), "{name}");
            // Class counts partition the total.
            let by_class: u64 = r.per_class.iter().map(|c| c.preemptions).sum();
            prop_assert!(by_class == r.preemptions, "{name}");
            // Every sequence that finished got a TTFT and its tail is
            // recorded: max dominates p99 in each distribution.
            prop_assert!(r.sojourn.max >= r.sojourn.p99, "{name}");
            prop_assert!(r.ttft.max >= r.ttft.p99, "{name}");
            prop_assert!(r.inter_token.max >= r.inter_token.p99, "{name}");
        }
    }

    /// Policy sweeps are seed-stable for every eviction policy: same
    /// bundle, same seed, same report, for each of
    /// [`EvictionPolicy::ALL`].
    #[test]
    fn policy_runs_are_deterministic(seed in 0u64..100) {
        let cfg = ServingConfig {
            arrival_rate_hz: 30.0,
            requests: 16,
            seed,
            mix: vec![
                RequestClass::new(RequestShape::new(512, 512), 0.5),
                RequestClass::new(RequestShape::new(512, 512), 0.5)
                    .with_priority(Priority::Batch),
            ],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let run = |eviction| {
            ServingSim::new(cfg.clone())
                .replica(IanusSystem::new(SystemConfig::ianus()))
                .scheduling(Scheduling::IterationLevel {
                    max_batch: 16,
                    prefill_chunk: Some(128),
                    preempt: true,
                })
                .policy(SchedulerPolicy::default().with_eviction(eviction))
                .run(&ModelConfig::gpt2_xl())
        };
        for eviction in EvictionPolicy::ALL {
            prop_assert!(run(eviction) == run(eviction), "{}", eviction.name());
        }
    }
}
