//! Scheduler-policy API acceptance: an unbounded host pool leaves the
//! default bundle's preemption schedule unchanged (the pin ledger,
//! `tests/pins.rs`, holds that schedule bit for bit), non-default
//! eviction policies measurably change the interactive tier's
//! preemption distribution and tails, and *every* built-in eviction
//! policy preserves the liveness invariants of
//! `tests/chunked_preemption.rs`.

use common::{chunked, pr3_scenario};
use ianus::prelude::*;
use proptest::prelude::*;

pub mod common;

fn run_pr3(policy: SchedulerPolicy) -> ServingReport {
    ServingSim::new(pr3_scenario())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 128))
        .policy(policy)
        .run(&ModelConfig::gpt2_xl())
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
        .scheduling(chunked(32, 128))
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
            .scheduling(chunked(32, 128))
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
    let slo = Slo::new(Duration::from_secs_f64(30.0), Duration::from_ms(100));
    let mut cfg = ServingConfig {
        arrival_rate_hz: 60.0,
        requests: 60,
        seed: 3,
        ..pr3_scenario()
    };
    cfg.mix[0] = cfg.mix[0].with_slo(slo);
    let r = ServingSim::new(cfg)
        .replica(GpuModel::a100())
        .scheduling(chunked(512, 256))
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
            ..pr3_scenario()
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
            ..pr3_scenario()
        };
        let run = |eviction| {
            ServingSim::new(cfg.clone())
                .replica(IanusSystem::new(SystemConfig::ianus()))
                .scheduling(chunked(16, 128))
                .policy(SchedulerPolicy::default().with_eviction(eviction))
                .run(&ModelConfig::gpt2_xl())
        };
        for eviction in EvictionPolicy::ALL {
            prop_assert!(run(eviction) == run(eviction), "{}", eviction.name());
        }
    }
}
