//! Two-lane DMA semantics: lane discipline at the unit level
//! (`serving::dma`).
//!
//! The lane pair models a full-duplex host link: one H2D lane
//! (swap-ins, inbound migrations) and one D2H lane (swap-outs,
//! outbound migration legs). "Swap-in priority" is structural — H2D
//! traffic never queues behind D2H writebacks — and within a lane
//! transfers never reorder. The report-level consequence on the swap
//! path, that serialized DMA stalls compute for every transfer while
//! overlap hides part of it, is asserted by the pin ledger's
//! `pr3_serialized_dma` and `pr3_overlapped_dma` rows (`tests/pins.rs`).

use ianus::system::serving::dma::{DmaChannels, DmaLane};

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
