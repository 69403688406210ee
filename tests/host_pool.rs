//! Finite host-memory swap modeling: the host pool is a hard bound,
//! overflow falls back to recompute-based eviction, overlapped DMA
//! hides transfer time behind decode, utilization means compute — and
//! the acceptance pin, a cost-aware victim policy beating pure
//! largest-KV on goodput when the host link is the bottleneck.

use common::{chunked, pr3_scenario};
use ianus::prelude::*;
use proptest::prelude::*;

pub mod common;

/// A 1 GiB host pool cannot hold the scenario's ~3.2 GiB of swapped KV:
/// overcommit forces recompute-based evictions, and the pool bound
/// holds exactly (occupancy never exceeds 1).
#[test]
fn finite_pool_forces_recompute_and_stays_bounded() {
    let r = ServingSim::new(pr3_scenario())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(chunked(32, 128))
        .host_kv_pool(Some(1 << 30))
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 120, "liveness under a tight pool");
    assert!(
        r.recomputes > 0,
        "a 1 GiB pool must force recompute fallbacks"
    );
    assert!(
        r.recomputes < r.preemptions,
        "some evictions still fit the pool and swap"
    );
    assert!(
        r.host_kv_peak_occupancy > 0.5 && r.host_kv_peak_occupancy <= 1.0,
        "pool must be pressured but never overflowed: {}",
        r.host_kv_peak_occupancy
    );
    assert!(r.host_kv_peak_bytes <= 1 << 30);
    // Recompute drops move no bytes: DMA only covers the swapped subset.
    assert!(r.kv_dma.as_secs_f64() > 0.0);
}

/// The swap-accounting bugfix: utilization means *compute*. On a slow
/// (2 GB/s) host link the pinned scenario spends ~90 s stalled on swap
/// DMA under largest-KV eviction; counting that DMA as busy (the old
/// accounting) reads as a compute-saturated replica, while the real
/// compute utilization is far lower.
#[test]
fn utilization_excludes_swap_dma() {
    let mut system = SystemConfig::ianus();
    system.pcie_gbps = 2.0;
    let r = ServingSim::new(pr3_scenario())
        .replica(IanusSystem::new(system))
        .scheduling(chunked(32, 128))
        .policy(SchedulerPolicy::default().with_eviction(EvictionPolicy::LargestKv))
        .run(&ModelConfig::gpt2_xl());
    assert_eq!(r.completed, 120);
    let makespan = r.completed as f64 / r.throughput_rps;
    assert!(
        r.swap_stall.as_secs_f64() > 40.0,
        "slow link must stall heavily: {}",
        r.swap_stall
    );
    // Compute utilization visibly drops once DMA is split out…
    assert!(r.utilization < 0.90, "compute util {}", r.utilization);
    // …while the old DMA-as-busy accounting would have called the
    // replica compute-saturated.
    let old_style = r.utilization + r.kv_dma.as_secs_f64() / makespan;
    assert!(old_style > 0.95, "DMA-inflated util {old_style}");
    // And the per-replica field carries the same DMA total.
    assert_eq!(r.per_replica[0].kv_dma, r.kv_dma);
}

/// Overlapped DMA hides swap transfers behind decode: same scenario,
/// same policy, strictly less compute stall — at no throughput cost.
#[test]
fn overlap_hides_dma_behind_decode() {
    let run = |overlap: bool| {
        ServingSim::new(pr3_scenario())
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(chunked(32, 128))
            .overlap_dma(overlap)
            .run(&ModelConfig::gpt2_xl())
    };
    let serial = run(false);
    let overlapped = run(true);
    assert_eq!(serial.completed, 120);
    assert_eq!(overlapped.completed, 120);
    // Overlapped: a real fraction of the DMA hides under decode.
    assert!(
        overlapped.swap_stall.as_secs_f64() < 0.7 * overlapped.kv_dma.as_secs_f64(),
        "stall {} vs dma {}",
        overlapped.swap_stall,
        overlapped.kv_dma
    );
    assert!(
        overlapped.swap_stall < serial.swap_stall,
        "overlap must reduce stall: {} vs {}",
        overlapped.swap_stall,
        serial.swap_stall
    );
    assert!(
        overlapped.throughput_rps >= serial.throughput_rps * 0.999,
        "hiding transfers must not cost throughput: {} vs {}",
        overlapped.throughput_rps,
        serial.throughput_rps
    );
}

/// The acceptance pin: on a slow (4 GB/s) host link, the cost-aware
/// bundle — `EvictionPolicy::Cheapest` victims with the `Cheapest`
/// mechanism — beats pure largest-KV (swap mechanism) on goodput. Largest-KV pays
/// the biggest possible transfers over the bottleneck link (~46 s of
/// serialized stall blows the interactive ITL SLO); the cost-aware
/// bundle notices recompute is cheaper and avoids the link entirely.
#[test]
fn cost_aware_beats_largest_kv_on_slow_host_link() {
    let slo = Slo::new(Duration::from_secs_f64(60.0), Duration::from_ms(150));
    let mut cfg = pr3_scenario();
    cfg.mix[0] = cfg.mix[0].with_slo(slo);
    let mut system = SystemConfig::ianus();
    system.pcie_gbps = 4.0;
    let mut sim = ServingSim::new(cfg)
        .replica(IanusSystem::new(system))
        .scheduling(chunked(32, 128))
        .policy(SchedulerPolicy::default().with_eviction(EvictionPolicy::LargestKv));
    let largest = sim.run(&ModelConfig::gpt2_xl());
    sim = sim.policy(
        SchedulerPolicy::default()
            .with_eviction(EvictionPolicy::Cheapest)
            .with_mechanism(EvictionMechanism::Cheapest),
    );
    let cheapest = sim.run(&ModelConfig::gpt2_xl());
    assert_eq!(largest.completed, 120);
    assert_eq!(cheapest.completed, 120);
    assert!(
        cheapest.goodput_rps > 1.3 * largest.goodput_rps,
        "cost-aware goodput {} must clearly beat largest-KV's {}",
        cheapest.goodput_rps,
        largest.goodput_rps
    );
    // Why: the cost-aware bundle recomputes instead of paying the slow
    // link, so it spends (essentially) nothing on swap stall.
    assert!(cheapest.recomputes > 0);
    assert!(cheapest.swap_stall.as_secs_f64() < 1.0);
    assert!(largest.swap_stall.as_secs_f64() > 20.0);
    assert_eq!(largest.recomputes, 0, "32 GiB pool: largest-KV all-swap");
}

/// PR 9 host-pool accounting fix: under paged KV a swap-out debits the
/// pool in whole `kv_block` blocks (the pool holds block-granular
/// pages, not loose tokens), so the peak is a block-byte multiple and
/// at least what raw-token accounting would charge. The contiguous
/// path is untouched — same scenario without `kv_block` reproduces the
/// raw-token peak exactly. Swap *timing* still prices the raw moved
/// tokens in both modes (`kv_dma` is unchanged by the debit fix).
#[test]
fn paged_swap_debits_whole_blocks_contiguous_unchanged() {
    let model = ModelConfig::gpt2_xl();
    let run = |block: u64| {
        ServingSim::new(pr3_scenario())
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(chunked(32, 128))
            .host_kv_pool(Some(4 << 30))
            .kv_block(block)
            .run(&model)
    };
    let contiguous = run(0);
    assert!(contiguous.preemptions > 0, "scenario must swap");
    // Raw-token debit: peak is a multiple of per-token swap bytes but
    // (overwhelmingly) not of whole 64-token blocks.
    let token_bytes = ianus::system::capacity::kv_swap_bytes(&model, 1);
    assert_eq!(contiguous.host_kv_peak_bytes % token_bytes, 0);

    let paged = run(64);
    assert!(paged.preemptions > 0, "paged scenario must swap");
    let block_bytes = ianus::system::capacity::kv_swap_bytes(&model, 64);
    assert_eq!(
        paged.host_kv_peak_bytes % block_bytes,
        0,
        "paged pool debit must be block-granular: peak {} vs block {}",
        paged.host_kv_peak_bytes,
        block_bytes
    );
}

fn mechanism_by_index(i: usize) -> EvictionMechanism {
    match i {
        0 => EvictionMechanism::Swap,
        1 => EvictionMechanism::Recompute,
        _ => EvictionMechanism::Cheapest,
    }
}

proptest! {
    // Every case prices a fresh device; keep counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The host-pool invariants, across pool sizes, mechanisms, DMA
    /// modes and seeds: occupancy never exceeds the pool, every
    /// eviction resolves (swap-out paired with swap-in, recompute drop
    /// with re-prefill — observable as: every request completes and
    /// the run terminates), recompute counts partition consistently,
    /// and the stall/DMA accounting is coherent.
    #[test]
    fn host_pool_invariants(
        pool_mb in prop::sample::select(vec![512u64, 1024, 2048, 8192]),
        mechanism in 0usize..3,
        overlap in any::<bool>(),
        seed in 0u64..1000,
        rate in prop::sample::select(vec![10.0f64, 30.0]),
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: rate,
            requests: 24,
            seed,
            ..pr3_scenario()
        };
        let r = ServingSim::new(cfg)
            .replica(IanusSystem::new(SystemConfig::ianus()))
            .scheduling(chunked(24, 128))
            .policy(SchedulerPolicy::default().with_mechanism(mechanism_by_index(mechanism)))
            .host_kv_pool(Some(pool_mb << 20))
            .overlap_dma(overlap)
            .run(&ModelConfig::gpt2_xl());
        prop_assert_eq!(r.completed, 24);
        // The pool is a hard bound.
        prop_assert!(
            (0.0..=1.0).contains(&r.host_kv_peak_occupancy),
            "host occupancy {} outside [0, 1]", r.host_kv_peak_occupancy
        );
        prop_assert!(r.host_kv_peak_bytes <= pool_mb << 20);
        // Eviction bookkeeping partitions.
        prop_assert!(r.recomputes <= r.preemptions);
        let by_class: u64 = r.per_class.iter().map(|c| c.preemptions).sum();
        prop_assert_eq!(by_class, r.preemptions);
        let rec_by_class: u64 = r.per_class.iter().map(|c| c.recomputes).sum();
        prop_assert_eq!(rec_by_class, r.recomputes);
        // Recompute-only mechanism: nothing swaps, nothing moves.
        if mechanism == 1 {
            prop_assert_eq!(r.recomputes, r.preemptions);
            prop_assert_eq!(r.host_kv_peak_bytes, 0);
            prop_assert_eq!(r.kv_dma.as_ns_f64(), 0.0);
        }
        // Stall is the serialized part of the DMA.
        prop_assert!(r.swap_stall.as_ns_f64() <= r.kv_dma.as_ns_f64() + 1.0);
        if !overlap {
            prop_assert_eq!(r.swap_stall, r.kv_dma);
        }
        // Device-side accounting still holds under every mechanism.
        prop_assert!(
            r.peak_kv_occupancy > 0.0 && r.peak_kv_occupancy < 1.25,
            "device occupancy {}", r.peak_kv_occupancy
        );
    }

    /// Finite-pool runs are seed-stable: same settings, same report.
    #[test]
    fn finite_pool_runs_are_deterministic(
        mechanism in 0usize..3,
        overlap in any::<bool>(),
        seed in 0u64..100,
    ) {
        let cfg = ServingConfig {
            arrival_rate_hz: 30.0,
            requests: 12,
            seed,
            mix: vec![RequestClass::new(RequestShape::new(512, 512), 1.0)],
            workflows: vec![],
            arrivals: Default::default(),
        };
        let run = || {
            ServingSim::new(cfg.clone())
                .replica(IanusSystem::new(SystemConfig::ianus()))
                .scheduling(chunked(16, 128))
                .policy(SchedulerPolicy::default().with_mechanism(mechanism_by_index(mechanism)))
                .host_kv_pool(Some(1 << 30))
                .overlap_dma(overlap)
                .run(&ModelConfig::gpt2_xl())
        };
        prop_assert_eq!(run(), run());
    }
}
