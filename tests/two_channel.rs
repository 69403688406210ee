//! Two-lane DMA semantics: lane discipline at the unit level
//! (`serving::dma`) and its report-level consequences on the swap
//! path.
//!
//! The lane pair models a full-duplex host link: one H2D lane
//! (swap-ins, inbound migrations) and one D2H lane (swap-outs,
//! outbound migration legs). "Swap-in priority" is structural — H2D
//! traffic never queues behind D2H writebacks — and within a lane
//! transfers never reorder.

use ianus::prelude::*;
use ianus::system::serving::dma::{DmaChannels, DmaLane};

// ---------------------------------------------------------------------
// Lane discipline (unit level, public API)
// ---------------------------------------------------------------------

/// Swap-in priority: an H2D transfer issued while the D2H lane is
/// saturated starts immediately.
#[test]
fn swap_in_priority_h2d_never_queues_behind_d2h() {
    let mut ch = DmaChannels::new();
    // Saturate the D2H lane with writebacks.
    let mut d2h_done = 0.0;
    for _ in 0..4 {
        d2h_done = ch.issue(DmaLane::D2H, 0.0, 2.5);
    }
    assert_eq!(d2h_done, 10.0);
    // A swap-in issued at t=1 is untouched by all of it.
    assert_eq!(ch.issue(DmaLane::H2D, 1.0, 0.5), 1.5);
    assert_eq!(ch.free_at(DmaLane::D2H), 10.0);
    assert_eq!(ch.free_at(DmaLane::H2D), 1.5);
}

/// Within a lane, completion times are non-decreasing no matter how
/// `now` jitters — the invariant the engine's sorted DMA retirement
/// deques rely on.
#[test]
fn intra_lane_completions_never_reorder() {
    let mut ch = DmaChannels::new();
    // Issue times deliberately go backwards and leapfrog.
    let issues = [
        (0.9, 1.0),
        (0.1, 0.2),
        (5.0, 0.5),
        (2.0, 3.0),
        (4.0, 0.0),
        (0.0, 7.0),
    ];
    for lane in [DmaLane::H2D, DmaLane::D2H] {
        let mut last = 0.0;
        for (now, secs) in issues {
            let done = ch.issue(lane, now, secs);
            assert!(
                done >= last,
                "{lane:?} completions reordered: {done} < {last}"
            );
            last = done;
        }
    }
}

// ---------------------------------------------------------------------
// Report-level consequences on the swap path
// ---------------------------------------------------------------------

/// The PR 3/4 pinned preemption scenario: heavy KV overload on one
/// 8 GB IANUS device, the same workload `tests/host_pool.rs` pins its
/// swap accounting against.
fn swap_heavy() -> ServingConfig {
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

fn run(overlap: bool) -> ServingReport {
    ServingSim::new(swap_heavy())
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .overlap_dma(overlap)
        .run(&ModelConfig::gpt2_xl())
}

/// Serialized (non-overlapped) DMA stalls compute for every transfer,
/// so the lanes cannot hide anything: `swap_stall == kv_dma`, the
/// equality `tests/host_pool.rs` pins.
#[test]
fn serialized_dma_stalls_for_every_transfer() {
    let r = run(false);
    assert_eq!(r.completed, 120);
    assert_eq!(r.swap_stall, r.kv_dma, "serialized: all DMA stalls");
}

/// Overlapped DMA is where the second lane pays: swap-ins never queue
/// behind writebacks, so compute stalls for less than the DMA time
/// moved. Pins the stall of the swap-heavy run.
#[test]
fn overlapped_swap_heavy_run_is_pinned() {
    let r = run(true);
    assert_eq!(r.completed, 120);
    // 396.197 ms.
    assert_eq!(r.swap_stall, Duration::from_ps(396_196_764_000));
    assert!(
        r.swap_stall < r.kv_dma,
        "overlap must hide some DMA: {} vs {}",
        r.swap_stall,
        r.kv_dma
    );
}
