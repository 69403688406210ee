//! Disaggregated-cluster regression net: the liveness of prefill→decode
//! KV migration. Every sequence that migrates completes, exactly once
//! per request, under any seed, mix, KV accounting and DMA overlap, and
//! the migration target policies place sequences differently under
//! asymmetric decode capacity. Debug builds check every turn of every
//! run here against the step-scan rule, migration wakes included. The
//! pin ledger (`tests/pins.rs`) holds the all-`Unified` clusters that
//! must reproduce the pre-disaggregation engine bit for bit.

use common::MemNode;
use ianus::prelude::*;
use proptest::prelude::*;

pub mod common;

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
