//! Disaggregated-cluster regression net.
//!
//! Replica roles and prefill→decode KV migration carry a hard
//! compatibility contract: none of it exists until asked for, and an
//! all-[`ReplicaRole::Unified`] cluster must reproduce the
//! pre-disaggregation engine **bit for bit**. This suite pins five
//! report fingerprints captured on the PR 7 engine (request-level FCFS
//! with tie-breaks, a heterogeneous cluster, and an iteration-level
//! grid exercising chunked prefill, preemption, paged KV, and
//! overlapped DMA), re-asserts the historical 166/351 preemption
//! schedules under whole-report fingerprints, and closes with the
//! liveness property: every sequence that migrates completes, exactly
//! once per request. Debug builds check every turn of every run here
//! against the step-scan rule, migration wakes included.

use common::{debug_fnv, MemNode};
use ianus::prelude::*;
use proptest::prelude::*;

mod common;

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

/// Bit-exact fingerprint over the PR 7 report surface. Fields added in
/// PR 8 (`migrations`, `migration_stall`, per-replica roles and in/out
/// counts) are deliberately excluded — they did not exist when the
/// pins were captured — and are asserted separately to be inert.
fn fp(r: &ServingReport) -> String {
    let per_replica: Vec<String> = r
        .per_replica
        .iter()
        .map(|p| {
            format!(
                "{{{:?} {} {:?} {:?}}}",
                p.name, p.completed, p.utilization, p.kv_dma
            )
        })
        .collect();
    format!(
        "{} {:?} {:?} {:?} {:?} {} {:?} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?} {:?} {:?} {:?} {}",
        r.completed,
        r.mean_service,
        r.sojourn,
        r.ttft,
        r.inter_token,
        r.peak_batch,
        r.peak_kv_occupancy,
        r.preemptions,
        r.recomputes,
        r.preempted_requests,
        r.max_preemptions,
        r.host_kv_peak_bytes,
        r.host_kv_peak_occupancy,
        r.kv_dma,
        r.swap_stall,
        r.slo_attainment,
        r.utilization,
        r.throughput_rps,
        r.goodput_rps,
        r.fragmentation,
        r.prefix_share_ratio,
        r.prefix_cache_hits,
        r.ttft_cache_hit,
        r.ttft_cold,
        r.per_class,
        per_replica,
        r.diverged,
    )
}

/// The disaggregation layer must be inert unless roles were assigned.
fn assert_inert(r: &ServingReport) {
    assert_eq!(r.migrations, 0, "all-Unified cluster must not migrate");
    assert_eq!(r.migration_stall, Duration::ZERO);
    for p in &r.per_replica {
        assert_eq!(p.role, ReplicaRole::Unified);
        assert_eq!(p.migrations_in, 0);
        assert_eq!(p.migrations_out, 0);
    }
}

// Whole-report fingerprints captured on the PR 7 engine (commit
// 66befce) with the exact scenarios below. Regenerate only if a later
// PR *intentionally* changes scheduling semantics.
const PIN_A: &str = r#"400 Duration(13660400000) LatencyPercentiles { p50: Duration(7210000000), p95: Duration(48490000000), p99: Duration(48490000000), max: Duration(48490000000) } LatencyPercentiles { p50: Duration(2560000000), p95: Duration(10240000000), p99: Duration(10240000000), max: Duration(10240000000) } LatencyPercentiles { p50: Duration(150000000), p95: Duration(150000000), p99: Duration(150000000), max: Duration(150000000) } 1 0.0 0 0 0 0 0 0.0 Duration(0) Duration(0) 1.0 0.04014159075970234 11.754147978010122 11.754147978010122 0.0 0.0 0 LatencyPercentiles { p50: Duration(0), p95: Duration(0), p99: Duration(0), max: Duration(0) } LatencyPercentiles { p50: Duration(2560000000), p95: Duration(10240000000), p99: Duration(10240000000), max: Duration(10240000000) } [ClassReport { shape: RequestShape { input: 128, output: 32 }, completed: 243, sojourn: LatencyPercentiles { p50: Duration(7210000000), p95: Duration(7210000000), p99: Duration(7210000000), max: Duration(7210000000) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 256, output: 64 }, completed: 115, sojourn: LatencyPercentiles { p50: Duration(14570000000), p95: Duration(14570000000), p99: Duration(14570000000), max: Duration(14570000000) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 512, output: 256 }, completed: 42, sojourn: LatencyPercentiles { p50: Duration(48490000000), p95: Duration(48490000000), p99: Duration(48490000000), max: Duration(48490000000) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }] ["{\"mem node\" 100 0.03829148786796355 Duration(0)}", "{\"mem node\" 101 0.038888892438945916 Duration(0)}", "{\"mem node\" 100 0.043011953695932414 Duration(0)}", "{\"mem node\" 99 0.0403740290359675 Duration(0)}"] false"#;

const PIN_B: &str = r#"300 Duration(676369495501) LatencyPercentiles { p50: Duration(7776766426654), p95: Duration(17528467160973), p99: Duration(19270075281971), max: Duration(21179772426384) } LatencyPercentiles { p50: Duration(7044192104269), p95: Duration(17318857563276), p99: Duration(18280700328498), max: Duration(19449573207143) } LatencyPercentiles { p50: Duration(4348129827), p95: Duration(28289755363), p99: Duration(28289755363), max: Duration(28289755363) } 1 0.0 0 0 0 0 0 0.0 Duration(0) Duration(0) 1.0 0.9457017295652793 4.194608431585195 4.194608431585195 0.0 0.0 0 LatencyPercentiles { p50: Duration(0), p95: Duration(0), p99: Duration(0), max: Duration(0) } LatencyPercentiles { p50: Duration(7044192104269), p95: Duration(17318857563276), p99: Duration(18280700328498), max: Duration(19449573207143) } [ClassReport { shape: RequestShape { input: 128, output: 32 }, completed: 180, sojourn: LatencyPercentiles { p50: Duration(6440967311708), p95: Duration(17460829164002), p99: Duration(18393139298714), max: Duration(18470211739710) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 256, output: 64 }, completed: 86, sojourn: LatencyPercentiles { p50: Duration(8399953012486), p95: Duration(17533687660215), p99: Duration(19470345062061), max: Duration(19886610176078) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 512, output: 256 }, completed: 34, sojourn: LatencyPercentiles { p50: Duration(9923659535475), p95: Duration(18308052173794), p99: Duration(21179772426384), max: Duration(21179772426384) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }] ["{\"IANUS\" 231 0.9154203078082104 Duration(0)}", "{\"A100 (eager)\" 34 0.9597889002081184 Duration(0)}", "{\"DFX (4-FPGA)\" 35 0.9618959806795089 Duration(0)}"] false"#;

// PIN_C regenerated in PR 9: swap-outs now debit the host pool in
// whole `kv_block` units (block-granular accounting), raising
// host_kv_peak_bytes 80216064 -> 94371840 and host_kv_peak_occupancy
// 0.59765625 -> 0.703125. Every other field is bit-identical to the
// PR 7 capture; swap *timing* still prices raw moved tokens.
const PIN_C: &str = r#"150 Duration(12426284667) LatencyPercentiles { p50: Duration(6129650000), p95: Duration(46667796394), p99: Duration(61080658000), max: Duration(61307184634) } LatencyPercentiles { p50: Duration(2560000000), p95: Duration(10240000000), p99: Duration(10980546394), max: Duration(13522454372) } LatencyPercentiles { p50: Duration(123700000), p95: Duration(145200000), p99: Duration(754650000), max: Duration(47211666000) } 3 1.0 3 0 3 1 94371840 0.703125 Duration(48439296000) Duration(41365596000) 1.0 0.20373942594967082 33.34035055353948 33.34035055353948 0.11973341815078062 0.0 0 LatencyPercentiles { p50: Duration(0), p95: Duration(0), p99: Duration(0), max: Duration(0) } LatencyPercentiles { p50: Duration(2560000000), p95: Duration(10240000000), p99: Duration(10980546394), max: Duration(13522454372) } [ClassReport { shape: RequestShape { input: 128, output: 32 }, completed: 93, sojourn: LatencyPercentiles { p50: Duration(6129650000), p95: Duration(9405932788), p99: Duration(11423250000), max: Duration(25433577376) }, preemptions: 1, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 256, output: 64 }, completed: 40, sojourn: LatencyPercentiles { p50: Duration(12828050000), p95: Duration(24562196345), p99: Duration(61307184634), max: Duration(61307184634) }, preemptions: 2, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 512, output: 256 }, completed: 17, sojourn: LatencyPercentiles { p50: Duration(45927250000), p95: Duration(53410734000), p99: Duration(61080658000), max: Duration(61080658000) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }] ["{\"mem node\" 111 0.29925615179670445 Duration(0)}", "{\"mem node\" 39 0.10822270010263718 Duration(48439296000)}"] false"#;

const PIN_D: &str = r#"120 Duration(11328963333) LatencyPercentiles { p50: Duration(6129650000), p95: Duration(31949885640), p99: Duration(67802203257), max: Duration(73213516350) } LatencyPercentiles { p50: Duration(2560000000), p95: Duration(17920000000), p99: Duration(30012803257), max: Duration(33786966350) } LatencyPercentiles { p50: Duration(122900000), p95: Duration(155650000), p99: Duration(161150000), max: Duration(29855300000) } 3 0.99920654296875 3 3 3 1 0 0.0 Duration(0) Duration(0) 1.0 0.14884919911898253 13.095185136010945 13.095185136010945 0.0 0.0 0 LatencyPercentiles { p50: Duration(0), p95: Duration(0), p99: Duration(0), max: Duration(0) } LatencyPercentiles { p50: Duration(2560000000), p95: Duration(17920000000), p99: Duration(30012803257), max: Duration(33786966350) } [ClassReport { shape: RequestShape { input: 128, output: 32 }, completed: 91, sojourn: LatencyPercentiles { p50: Duration(6129650000), p95: Duration(15119346873), p99: Duration(23644308683), max: Duration(31949885640) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 896, output: 64 }, completed: 29, sojourn: LatencyPercentiles { p50: Duration(27644050000), p95: Duration(67802203257), p99: Duration(73213516350), max: Duration(73213516350) }, preemptions: 3, recomputes: 3, slo_attainment: 1.0 }] ["{\"mem node\" 120 0.14884919911898253 Duration(0)}"] false"#;

const PIN_E: &str = r#"150 Duration(28477234000) LatencyPercentiles { p50: Duration(16347534012), p95: Duration(67533650000), p99: Duration(67533650000), max: Duration(82218544708) } LatencyPercentiles { p50: Duration(640000000), p95: Duration(2560000000), p99: Duration(2560000000), max: Duration(17244894708) } LatencyPercentiles { p50: Duration(117700000), p95: Duration(136350000), p99: Duration(139200000), max: Duration(1405150000) } 3 0.8756103515625 0 0 0 0 0 0.0 Duration(0) Duration(0) 1.0 0.23478419575488851 24.977006377969623 24.977006377969623 0.0 0.0 0 LatencyPercentiles { p50: Duration(0), p95: Duration(0), p99: Duration(0), max: Duration(0) } LatencyPercentiles { p50: Duration(640000000), p95: Duration(2560000000), p99: Duration(2560000000), max: Duration(17244894708) } [ClassReport { shape: RequestShape { input: 32, output: 128 }, completed: 79, sojourn: LatencyPercentiles { p50: Duration(14959250000), p95: Duration(14959250000), p99: Duration(16543000000), max: Duration(17815734464) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 64, output: 256 }, completed: 47, sojourn: LatencyPercentiles { p50: Duration(31255250000), p95: Duration(32669950000), p99: Duration(33345050000), max: Duration(33345050000) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }, ClassReport { shape: RequestShape { input: 128, output: 512 }, completed: 24, sojourn: LatencyPercentiles { p50: Duration(67533650000), p95: Duration(67533650000), p99: Duration(82218544708), max: Duration(82218544708) }, preemptions: 0, recomputes: 0, slo_attainment: 1.0 }] ["{\"mem node\" 87 0.40573462578214714 Duration(0)}", "{\"mem node\" 46 0.2072293763787766 Duration(0)}", "{\"mem node\" 17 0.0913885851037417 Duration(0)}"] false"#;

// ---------------------------------------------------------------------
// All-Unified clusters reproduce the PR 7 engine bit for bit
// ---------------------------------------------------------------------

/// Request-level FCFS over four identical replicas: the heaped
/// dispatch argmin must reproduce the linear scan's tie-breaks (lowest
/// index wins on equal free-times) exactly.
#[test]
fn request_level_fcfs_tiebreaks_pinned() {
    let r = ServingSim::new(ServingConfig::interactive(12.0, 400))
        .cluster(4, |_| MemNode::tight())
        .dispatch(DispatchPolicy::FcfsSingleQueue)
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(fp(&r), PIN_A);
    assert_inert(&r);
}

/// Request-level FCFS over a heterogeneous cluster (IANUS + A100 +
/// DFX): different service times make the heap ordering non-trivial.
#[test]
fn request_level_heterogeneous_pinned() {
    let r = ServingSim::new(ServingConfig::interactive(6.0, 300))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .replica(GpuModel::a100())
        .replica(DfxModel::four_fpga())
        .dispatch(DispatchPolicy::FcfsSingleQueue)
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(fp(&r), PIN_B);
    assert_inert(&r);
}

/// Iteration-level grid pins: chunked prefill with preemption, paged
/// KV, and overlapped DMA (C); whole-prompt prefill with
/// recompute-fallback preemptions (D); and a no-preempt decode-heavy
/// spread (E). Split H2D/D2H lanes leave every pin here unchanged.
#[test]
fn iteration_level_pins_hold() {
    let model = ModelConfig::gpt2_xl();
    let c = ServingSim::new(ServingConfig::interactive(40.0, 150))
        .cluster(2, |_| MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: Some(32),
            preempt: true,
        })
        .overlap_dma(true)
        .kv_block(64)
        .run(&model);
    assert_eq!(fp(&c), PIN_C, "pin C");
    assert_inert(&c);

    let d = ServingSim::new(ServingConfig::long_prompt(16.0, 120))
        .cluster(1, |_| MemNode {
            kv_bytes: 512 << 20,
            ..MemNode::tight()
        })
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: true,
        })
        .run(&model);
    assert_eq!(fp(&d), PIN_D, "pin D");
    assert_inert(&d);

    let e = ServingSim::new(ServingConfig::decode_heavy(30.0, 150))
        .cluster(3, |_| MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 4,
            prefill_chunk: Some(64),
            preempt: false,
        })
        .overlap_dma(true)
        .run(&model);
    assert_eq!(fp(&e), PIN_E, "pin E");
    assert_inert(&e);
}

/// The historical 166-preemption schedule survives the role/migration
/// plumbing. The whole-report fingerprint was taken while a step-scan
/// core still ran beside the turn tree and matched it.
#[test]
fn pinned_preemption_scenario_still_166() {
    let shape = RequestShape::new(512, 512);
    let cfg = ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 120,
        seed: 0x5EED,
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
            prefill_chunk: Some(128),
            preempt: true,
        })
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.preemptions, 166, "the pinned schedule");
    assert_inert(&r);
    assert_eq!(debug_fnv(&r), 0x650d_4149_4d1f_d964);
}

/// Likewise the 351-preemption paged schedule.
#[test]
fn pinned_paged_scenario_still_351() {
    let r = ServingSim::new(ServingConfig::shared_prefix(8.0, 200))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 48,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .kv_block(64)
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.preemptions, 351, "the pinned paged schedule");
    assert_inert(&r);
    assert_eq!(debug_fnv(&r), 0xa54c_5fb4_3e59_106e);
}

// ---------------------------------------------------------------------
// Migration liveness
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
fn build_disagg(
    cfg: &ServingConfig,
    prefill: usize,
    decode: usize,
    chunk: Option<u64>,
    preempt: bool,
    overlap: bool,
    kv_block: u64,
) -> ServingSim {
    ServingSim::new(cfg.clone())
        .disaggregated(
            DisaggregationConfig::by_count(prefill, decode),
            |_| MemNode::tight(),
            |_| MemNode::tight(),
        )
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: chunk,
            preempt,
        })
        .overlap_dma(overlap)
        .kv_block(kv_block)
}

proptest! {
    // Each case is one full disaggregated run.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Liveness: under any seed, mix, KV accounting, and DMA overlap
    /// setting, every request admitted to a prefill replica migrates
    /// exactly once, lands on a decode replica, and runs to
    /// completion; every turn is the step-scan rule's (the engine's
    /// debug check), so a migration that fails to wake its decode
    /// replica fails here.
    #[test]
    fn migrated_sequences_always_complete(
        seed in any::<u64>(),
        rate in prop::sample::select(vec![2.0f64, 6.0]),
        mix_i in 0usize..3,
        prefill in 1usize..3,
        decode in 1usize..4,
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
        let report = build_disagg(&cfg, prefill, decode, chunk, preempt, overlap, kv_block)
            .run(&ModelConfig::gpt2_xl());

        // Every request completes, and every request migrated exactly
        // once on its way to a decode replica.
        prop_assert_eq!(report.completed, 40);
        prop_assert_eq!(report.migrations, 40);

        // Handoff bookkeeping balances: prefill replicas only emit,
        // decode replicas only receive, and every emitted sequence
        // finished on the decode side.
        let mut out_total = 0;
        let mut in_total = 0;
        for p in &report.per_replica {
            match p.role {
                ReplicaRole::PrefillOnly => {
                    prop_assert_eq!(p.migrations_in, 0);
                    prop_assert_eq!(p.completed, 0);
                    out_total += p.migrations_out;
                }
                ReplicaRole::DecodeOnly => {
                    prop_assert_eq!(p.migrations_out, 0);
                    in_total += p.migrations_in;
                }
                ReplicaRole::Unified => prop_assert!(false, "no Unified replica here"),
            }
        }
        prop_assert_eq!(out_total, 40);
        prop_assert_eq!(in_total, 40);
        let decode_completed: u64 = report
            .per_replica
            .iter()
            .filter(|p| p.role == ReplicaRole::DecodeOnly)
            .map(|p| p.completed)
            .sum();
        prop_assert_eq!(decode_completed, 40);
    }
}

/// The migration target policy is a choice: `MigrationPolicy::FreestKv`
/// picks the decode replica with the most free KV,
/// `MigrationPolicy::LeastLoaded` (the default) the one with the fewest
/// resident sequences. Both must
/// preserve liveness; under asymmetric decode capacity they produce
/// different placements.
#[test]
fn migration_policies_preserve_liveness() {
    let cfg = ServingConfig {
        arrival_rate_hz: 6.0,
        requests: 80,
        seed: 0xD15A,
        mix: vec![RequestClass::new(RequestShape::new(128, 64), 1.0)],
        workflows: vec![],
        arrivals: Default::default(),
    };
    // Decode replica 1 has twice the KV of replica 2: under paged
    // accounting (Freest sees free *blocks*; in contiguous mode it
    // degrades to least-loaded order) Freest prefers it even when both
    // hold equally many sequences.
    let build = || {
        ServingSim::new(cfg.clone())
            .replica_with_role(MemNode::tight(), ReplicaRole::PrefillOnly)
            .replica_with_role(
                MemNode {
                    kv_bytes: 512 << 20,
                    ..MemNode::tight()
                },
                ReplicaRole::DecodeOnly,
            )
            .replica_with_role(MemNode::tight(), ReplicaRole::DecodeOnly)
            .scheduling(Scheduling::IterationLevel {
                max_batch: 8,
                prefill_chunk: None,
                preempt: true,
            })
            .kv_block(64)
    };
    let model = ModelConfig::gpt2_xl();
    let least = build().migration(MigrationPolicy::LeastLoaded).run(&model);
    let freest = build().migration(MigrationPolicy::FreestKv).run(&model);
    for r in [&least, &freest] {
        assert_eq!(r.completed, 80);
        assert_eq!(r.migrations, 80);
    }
    let in_counts =
        |r: &ServingReport| -> Vec<u64> { r.per_replica.iter().map(|p| p.migrations_in).collect() };
    assert_ne!(
        in_counts(&least),
        in_counts(&freest),
        "asymmetric KV must separate the two policies"
    );
    assert!(
        in_counts(&freest)[1] > in_counts(&freest)[2],
        "Freest must favor the big-KV decode replica"
    );
}
