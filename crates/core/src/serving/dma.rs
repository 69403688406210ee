//! Two-lane DMA clocks for swap and KV-migration traffic.
//!
//! Each replica owns a pair of DMA lane clocks modelling a full-duplex
//! host link: an **H2D** lane (host-to-device: swap-ins and inbound KV
//! migrations) and a **D2H** lane (device-to-host: swap-outs and
//! outbound migration legs). The lanes advance independently, which is
//! what "swap-in priority" means operationally: an H2D transfer never
//! queues behind D2H traffic, so a preempted sequence's swap-in (or a
//! migrant's arrival) is never delayed by eviction writebacks sharing
//! the link.
//!
//! Within a lane, transfers never reorder: `issue` starts each
//! transfer at `max(now, lane_free)` and advances the lane clock
//! monotonically (debug-asserted). Completion times handed to the
//! engine's retirement queues are therefore non-decreasing per lane,
//! the order those queues check on every push.

/// Direction of a DMA transfer on a replica's host link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaLane {
    /// Host-to-device: swap-ins and inbound KV-migration legs.
    H2D = 0,
    /// Device-to-host: swap-outs and outbound KV-migration legs.
    D2H = 1,
}

/// Per-replica DMA channel clocks, one independent lane per direction.
/// Times are seconds on the replica's simulation clock.
#[derive(Debug, Clone, Default)]
pub struct DmaChannels {
    lanes: [f64; 2],
}

impl DmaChannels {
    /// A fresh channel pair with both lanes free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// When the given lane next becomes free.
    pub fn free_at(&self, lane: DmaLane) -> f64 {
        self.lanes[lane as usize]
    }

    /// Issues a transfer of `secs` seconds on `lane`, starting no
    /// earlier than `now`, and returns its completion time. The lane
    /// clock advances monotonically — transfers within a lane never
    /// reorder.
    pub fn issue(&mut self, lane: DmaLane, now: f64, secs: f64) -> f64 {
        let clock = &mut self.lanes[lane as usize];
        let done = now.max(*clock) + secs;
        debug_assert!(
            done >= *clock,
            "DMA lane clock must be monotone: {done} < {clock}"
        );
        *clock = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_starts_no_earlier_than_now() {
        let mut ch = DmaChannels::new();
        assert_eq!(ch.issue(DmaLane::D2H, 10.0, 1.0), 11.0);
        // Lane free at 11, but now is 20: starts at 20.
        assert_eq!(ch.issue(DmaLane::D2H, 20.0, 1.0), 21.0);
    }
}
