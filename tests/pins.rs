//! The serving pin ledger: every serving golden as one row of
//! `benches/pins.txt`.
//!
//! Each row is a named scenario run through the public API and printed
//! as `name completed preemptions recomputes fingerprint`, where the
//! fingerprint is FNV-1a over every field of the report. A row whose
//! replicas are all `Unified` must leave the disaggregation layer inert;
//! a row may also assert what its run is about (DMA overlap that hides
//! some stall, every tenant served). Debug builds check every
//! turn of every row against the step-scan rule; release builds compile
//! that check out, and the fingerprints stand in for it.
//!
//! On a mismatch the test writes the computed ledger to
//! `target/pins.actual.txt` and names the rows that moved. Re-pin a
//! deliberate change with `cp target/pins.actual.txt benches/pins.txt`
//! and say in the commit why the rows moved.

use common::{chunked, pr3_scenario, FixedRate, MemNode};
use ianus::prelude::*;
use ianus::system::serving::{ClassReport, ReplicaReport};
use std::collections::BTreeSet;
use std::path::Path;

pub mod common;

/// A ledger row: its name and the run it pins.
type Row = (&'static str, fn() -> ServingReport);

const LEDGER: &[Row] = &[
    ("unified_fcfs_tiebreaks", unified_fcfs_tiebreaks),
    ("unified_heterogeneous", unified_heterogeneous),
    (
        "unified_chunked_paged_overlap",
        unified_chunked_paged_overlap,
    ),
    (
        "unified_whole_prompt_recompute",
        unified_whole_prompt_recompute,
    ),
    ("unified_decode_heavy", unified_decode_heavy),
    ("pr3_serialized_dma", || pr3(false)),
    ("pr3_overlapped_dma", || pr3(true)),
    ("shared_prefix_contiguous", shared_prefix_contiguous),
    ("shared_prefix_paged", shared_prefix_paged),
    ("workflow_poisson", || workflow(ArrivalSpec::Poisson)),
    ("workflow_diurnal", || {
        workflow(ArrivalSpec::diurnal(0.6, 20.0))
    }),
    ("workflow_mmpp", || {
        workflow(ArrivalSpec::mmpp(6.0, 8.0, 8.0))
    }),
    ("workflow_multi_tenant", || {
        workflow(ArrivalSpec::multi_tenant(3))
    }),
    ("tenants_flat_request", || {
        tenants(flat_tenants(), Scheduling::RequestLevel)
    }),
    ("tenants_flat_iteration", || {
        tenants(flat_tenants(), Scheduling::iteration(4))
    }),
    ("tenants_workflow", tenants_workflow),
    ("mixed_skip", mixed_skip),
    ("slo_burst", slo_burst),
    ("disaggregated_paged_freest", disaggregated_paged_freest),
];

#[test]
fn ledger_matches_benches_pins() {
    let mut actual = String::from("# name completed preemptions recomputes fingerprint\n");
    for (name, run) in LEDGER {
        let r = run();
        if r.per_replica.iter().all(|p| p.role == ReplicaRole::Unified) {
            assert_inert(&r);
        }
        let fp = fingerprint(&r);
        actual += &format!(
            "{name} {} {} {} {fp:016x}\n",
            r.completed, r.preemptions, r.recomputes
        );
    }
    let expected = include_str!("../benches/pins.txt");
    if actual == expected {
        return;
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/pins.actual.txt");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, &actual).unwrap();
    let (old, new): (BTreeSet<_>, BTreeSet<_>) =
        (expected.lines().collect(), actual.lines().collect());
    let moved: BTreeSet<_> = old
        .symmetric_difference(&new)
        .map(|line| line.split(' ').next().unwrap_or(line))
        .collect();
    panic!(
        "pin ledger rows moved: {moved:?}; the computed ledger is in {}. \
         If the change is deliberate: cp target/pins.actual.txt benches/pins.txt",
        path.display()
    );
}

/// FNV-1a over every field of `report`: integers as themselves, floats
/// and durations by their bits, names by their bytes, each list after
/// its length. Every report struct is destructured in full, so a new
/// field does not compile until it is listed here (or skipped by name,
/// `field: _`).
fn fingerprint(report: &ServingReport) -> u64 {
    let ServingReport {
        completed,
        mean_service,
        sojourn,
        ttft,
        inter_token,
        peak_batch,
        peak_kv_occupancy,
        preemptions,
        recomputes,
        preempted_requests,
        max_preemptions,
        host_kv_peak_bytes,
        host_kv_peak_occupancy,
        kv_dma,
        swap_stall,
        migrations,
        migration_stall,
        slo_attainment,
        utilization,
        throughput_rps,
        goodput_rps,
        fragmentation,
        prefix_share_ratio,
        prefix_cache_hits,
        ttft_cache_hit,
        ttft_cold,
        workflow_latency,
        workflow_slo_attainment,
        completed_workflows,
        cancelled_nodes,
        inherited_prefix_ratio,
        burst_inter_token,
        burst_slo_attainment,
        tenant_fairness,
        per_tenant,
        per_class,
        per_replica,
        diverged,
    } = report;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for n in [
        *completed,
        u64::from(*peak_batch),
        *preemptions,
        *recomputes,
        *preempted_requests,
        u64::from(*max_preemptions),
        *host_kv_peak_bytes,
        *migrations,
        *prefix_cache_hits,
        *completed_workflows,
        *cancelled_nodes,
        u64::from(*diverged),
    ] {
        h.int(n);
    }
    for x in [
        peak_kv_occupancy,
        host_kv_peak_occupancy,
        slo_attainment,
        utilization,
        throughput_rps,
        goodput_rps,
        fragmentation,
        prefix_share_ratio,
        workflow_slo_attainment,
        inherited_prefix_ratio,
        burst_slo_attainment,
        tenant_fairness,
    ] {
        h.int(x.to_bits());
    }
    for d in [mean_service, kv_dma, swap_stall, migration_stall] {
        h.int(d.as_ps());
    }
    for l in [
        sojourn,
        ttft,
        inter_token,
        ttft_cache_hit,
        ttft_cold,
        workflow_latency,
        burst_inter_token,
    ] {
        h.latency(l);
    }
    h.int(per_tenant.len() as u64);
    for t in per_tenant {
        let TenantReport {
            tenant,
            completed,
            sojourn,
            slo_attainment,
            goodput_rps,
        } = t;
        h.int(u64::from(*tenant));
        h.int(*completed);
        h.latency(sojourn);
        h.int(slo_attainment.to_bits());
        h.int(goodput_rps.to_bits());
    }
    h.int(per_class.len() as u64);
    for c in per_class {
        let ClassReport {
            shape: RequestShape { input, output },
            completed,
            sojourn,
            preemptions,
            recomputes,
            slo_attainment,
        } = c;
        for n in [*input, *output, *completed, *preemptions, *recomputes] {
            h.int(n);
        }
        h.latency(sojourn);
        h.int(slo_attainment.to_bits());
    }
    h.int(per_replica.len() as u64);
    for r in per_replica {
        let ReplicaReport {
            name,
            completed,
            utilization,
            kv_dma,
            role,
            migrations_in,
            migrations_out,
        } = r;
        h.int(name.len() as u64);
        h.bytes(name.as_bytes());
        for n in [*completed, *role as u64, *migrations_in, *migrations_out] {
            h.int(n);
        }
        h.int(utilization.to_bits());
        h.int(kv_dma.as_ps());
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn int(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn latency(&mut self, l: &LatencyPercentiles) {
        let LatencyPercentiles { p50, p95, p99, max } = *l;
        for d in [p50, p95, p99, max] {
            self.int(d.as_ps());
        }
    }
}

/// An all-`Unified` cluster must leave the disaggregation layer inert.
fn assert_inert(r: &ServingReport) {
    assert_eq!(r.migrations, 0, "all-Unified cluster must not migrate");
    assert_eq!(r.migration_stall, Duration::ZERO);
    for p in &r.per_replica {
        assert_eq!(p.migrations_in, 0);
        assert_eq!(p.migrations_out, 0);
    }
}

/// Request-level FCFS over four identical replicas: the dispatch
/// min-tree must break equal free-times to the lowest index, as the
/// linear scan it replaced did.
fn unified_fcfs_tiebreaks() -> ServingReport {
    ServingSim::new(ServingConfig::interactive(12.0, 400))
        .cluster(4, |_| MemNode::tight())
        .dispatch(DispatchPolicy::FcfsSingleQueue)
        .run(&ModelConfig::gpt2_xl())
}

/// Request-level FCFS over IANUS, A100 and DFX replicas: different
/// service times order the dispatch heap non-trivially.
fn unified_heterogeneous() -> ServingReport {
    ServingSim::new(ServingConfig::interactive(6.0, 300))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .replica(GpuModel::a100())
        .replica(DfxModel::four_fpga())
        .dispatch(DispatchPolicy::FcfsSingleQueue)
        .run(&ModelConfig::gpt2_xl())
}

/// Chunked prefill with preemption, paged KV and overlapped DMA.
fn unified_chunked_paged_overlap() -> ServingReport {
    ServingSim::new(ServingConfig::interactive(40.0, 150))
        .cluster(2, |_| MemNode::tight())
        .scheduling(chunked(8, 32))
        .overlap_dma(true)
        .kv_block(64)
        .run(&ModelConfig::gpt2_xl())
}

/// Whole-prompt prefill whose preemptions fall back to recompute.
fn unified_whole_prompt_recompute() -> ServingReport {
    ServingSim::new(ServingConfig::long_prompt(16.0, 120))
        .cluster(1, |_| MemNode {
            kv_bytes: 512 << 20,
            ..MemNode::tight()
        })
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: true,
        })
        .run(&ModelConfig::gpt2_xl())
}

/// A decode-heavy spread with no preemption.
fn unified_decode_heavy() -> ServingReport {
    ServingSim::new(ServingConfig::decode_heavy(30.0, 150))
        .cluster(3, |_| MemNode::tight())
        .scheduling(Scheduling::IterationLevel {
            max_batch: 4,
            prefill_chunk: Some(64),
            preempt: false,
        })
        .overlap_dma(true)
        .run(&ModelConfig::gpt2_xl())
}

/// The historical preemption schedule (166 evictions, all swaps into
/// the 32 GiB default host pool) under the default scheduler policy,
/// with serialized or overlapped DMA. No class has an SLO, so
/// attainment is vacuous; utilization counts compute only, so the swap
/// DMA sits in `kv_dma`. Serialized DMA stalls compute for every
/// transfer; overlap hides part of that stall.
fn pr3(overlap: bool) -> ServingReport {
    let r = ServingSim::new(pr3_scenario())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 128))
        .overlap_dma(overlap)
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.slo_attainment, 1.0);
    assert!((r.goodput_rps - r.throughput_rps).abs() < 1e-12);
    assert_eq!(r.per_replica[0].kv_dma, r.kv_dma);
    if overlap {
        assert!(r.swap_stall < r.kv_dma, "overlap must hide some DMA");
    } else {
        assert_eq!(r.swap_stall, r.kv_dma, "serialized: all DMA stalls");
    }
    r
}

/// The shared-prefix mix has the historical scenario's shapes, so
/// with contiguous KV it takes the same 166 preemptions.
fn shared_prefix_contiguous() -> ServingReport {
    ServingSim::new(ServingConfig::shared_prefix(4.0, 120))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 128))
        .kv_block(0)
        .run(&ModelConfig::gpt2_xl())
}

/// The paged preemption schedule: 351 evictions, all swaps, moving
/// only unshared blocks.
fn shared_prefix_paged() -> ServingReport {
    ServingSim::new(ServingConfig::shared_prefix(8.0, 200))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(48, 128))
        .kv_block(64)
        .run(&ModelConfig::gpt2_xl())
}

fn templates() -> Vec<WorkflowTemplate> {
    vec![
        WorkflowTemplate::agent_chain(),
        WorkflowTemplate::tool_fanout(),
        WorkflowTemplate::speculative(),
    ]
}

/// A workflow mix under one arrival shape: DAG instances drawn off a
/// diurnal, MMPP or multi-tenant stream (children inherit the root's
/// tenant and burst attribution; fan-outs can move the wait-queue head
/// backward).
fn workflow(spec: ArrivalSpec) -> ServingReport {
    ServingSim::new(ServingConfig::workflow_mix(3.0, 16, templates()).arrivals(spec))
        .cluster(2, |_| MemNode::tight())
        .scheduling(chunked(8, 32))
        .kv_block(64)
        .workflow_inheritance(true)
        .run(&ModelConfig::gpt2_xl())
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

/// The three tenants over the interactive mix: the override tenant's
/// draws go through the per-tenant class pick.
fn flat_tenants() -> ServingConfig {
    ServingConfig::interactive(40.0, 150).arrivals(three_tenants(vec![0.1, 0.1, 0.8]))
}

/// The three tenants over a workflow mix: the override tenant's draws
/// go through the template pick instead.
fn tenants_workflow() -> ServingReport {
    let cfg = ServingConfig::workflow_mix(20.0, 60, templates())
        .arrivals(three_tenants(vec![0.2, 0.2, 0.6]));
    tenants(cfg, Scheduling::iteration(4))
}

/// A two-replica run of `cfg` on fixed-rate backends, in which every
/// tenant completes work and some of it decodes in a burst.
fn tenants(cfg: ServingConfig, scheduling: Scheduling) -> ServingReport {
    let r = ServingSim::new(cfg)
        .replica(FixedRate {
            name: "a",
            per_token: Duration::from_us(20),
        })
        .replica(FixedRate {
            name: "b",
            per_token: Duration::from_us(30),
        })
        .scheduling(scheduling)
        .run(&ModelConfig::gpt2_m());
    assert_eq!(r.per_tenant.len(), 3);
    assert!(r.per_tenant.iter().all(|t| t.completed > 0));
    assert_ne!(r.burst_inter_token, LatencyPercentiles::ZERO);
    r
}

/// A paged, chunked, preempting run on two GPT-2 XL replicas with
/// overlapped DMA, cheapest-mechanism eviction and a tight host pool:
/// swap-ins land in mid-batch, and the decode pass skips both a
/// sequence whose recompute re-prefill just completed and one whose
/// first token came out of this iteration's prefill.
fn mixed_skip() -> ServingReport {
    let r = ServingSim::new(ServingConfig::shared_prefix(100.0, 80))
        .cluster(2, |_| IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 64))
        .kv_block(16)
        .host_kv_pool(Some(64 << 20))
        .overlap_dma(true)
        .policy(SchedulerPolicy::default().with_mechanism(EvictionMechanism::Cheapest))
        .run(&ModelConfig::gpt2_xl());
    assert!(r.recomputes > 0, "no recompute eviction");
    assert!(r.preemptions > r.recomputes, "no swap eviction");
    r
}

/// A paged, chunked, preempting run whose interactive tier carries an
/// SLO — its decoders keep per-sequence gap logs, so they take the
/// per-step decode path every step — while the batch tier's decoders
/// advance by the batch's decode epoch, under MMPP burst traffic: the
/// ITL, burst-window and SLO columns all mix both kinds of decoder.
fn slo_burst() -> ServingReport {
    let mut cfg = ServingConfig::shared_prefix(60.0, 60);
    cfg.mix[0] = cfg.mix[0].with_slo(Slo::new(Duration::from_ms(2000), Duration::from_ms(140)));
    cfg.arrivals = ArrivalSpec::mmpp(4.0, 0.2, 0.4);
    let r = ServingSim::new(cfg)
        .cluster(2, |_| IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 64))
        .kv_block(16)
        .host_kv_pool(Some(1 << 30))
        .overlap_dma(true)
        .run(&ModelConfig::gpt2_xl());
    assert!(r.preemptions > 0, "no eviction");
    assert_ne!(r.burst_inter_token, LatencyPercentiles::ZERO);
    assert!(
        r.slo_attainment > 0.0 && r.slo_attainment < 1.0,
        "SLO class neither all met nor all missed"
    );
    r
}

/// A disaggregated, paged, preempting run: one prefill replica hands
/// every sequence to two decode replicas of unequal KV, placed by
/// `MigrationPolicy::FreestKv`. Long outputs keep the decode replicas
/// busy, so migrants queue at the paged migrant gate (which refuses
/// some), and the class's shared prefix is credited there once a decode
/// replica has cached it.
fn disaggregated_paged_freest() -> ServingReport {
    let cfg = ServingConfig {
        arrival_rate_hz: 30.0,
        requests: 80,
        seed: 0xD15A,
        mix: vec![RequestClass::new(RequestShape::new(128, 512), 1.0).with_shared_prefix(64)],
        workflows: vec![],
        arrivals: Default::default(),
    };
    let r = ServingSim::new(cfg)
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
        .migration(MigrationPolicy::FreestKv)
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.migrations, 80);
    r
}
