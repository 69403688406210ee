//! DMA lane layer: per-replica lane clocks, completion-ordered transfer
//! queues, and boundary retirement.
//!
//! This layer owns the in-flight swap traffic — the [`DmaChannels`] lane
//! clocks and the `outgoing` / `incoming` [`LaneQueue`]s — and the two
//! phase entry points that drain them: [`EngineCore::retire_dma`]
//! retires everything due at a turn boundary, and
//! [`EngineCore::idle_wait_for_dma`] advances an empty replica's clock to
//! the next transfer (or arrival) so admission can never spin against
//! memory that is already draining. Every lane queue (the migration
//! layer's inbound queue too) checks its completion order on each push,
//! in every build, so a due prefix is always a front prefix.

use super::batch::ActiveSeq;
use super::core::EngineCore;
use crate::serving::dma::DmaChannels;
use crate::serving::kv::KvSlot;
use crate::serving::ReplicaRole;
use ianus_model::RequestShape;
use std::collections::VecDeque;

/// Transfers in flight on one lane, ordered by completion time. Lane
/// clocks are monotone and every push happens in the global turn
/// order, so each push lands at or after the back; [`push`](Self::push)
/// asserts it, and everything due by a time is then a front prefix.
pub(super) struct LaneQueue<T>(VecDeque<(f64, T)>);

impl<T> Default for LaneQueue<T> {
    fn default() -> Self {
        LaneQueue(VecDeque::new())
    }
}

impl<T> LaneQueue<T> {
    /// Appends a transfer completing at `at`. Panics when `at` precedes
    /// the last queued completion.
    pub(super) fn push(&mut self, at: f64, item: T) {
        if let Some(&(back, _)) = self.0.back() {
            assert!(
                back <= at,
                "DMA lane out of completion order: push at {at} after {back}"
            );
        }
        self.0.push_back((at, item));
    }

    /// Removes and returns the earliest transfer if it completes by
    /// `now`.
    pub(super) fn pop_due(&mut self, now: f64) -> Option<(f64, T)> {
        if self.next_at()? <= now {
            self.0.pop_front()
        } else {
            None
        }
    }

    /// The earliest completion time, if anything is in flight.
    pub(super) fn next_at(&self) -> Option<f64> {
        self.0.front().map(|&(t, _)| t)
    }

    /// Keeps the transfers whose item satisfies `keep`, in order.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.0.retain(|(_, item)| keep(item));
    }

    /// The transfers in completion order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &(f64, T)> {
        self.0.iter()
    }

    pub(super) fn len(&self) -> usize {
        self.0.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The DMA layer's per-replica state: lane clocks plus the in-flight
/// swap queues.
pub(super) struct LaneClocks {
    /// Per-replica DMA lane clocks, one per direction.
    pub(super) dma: Vec<DmaChannels>,
    /// In-flight swap-outs per replica: `(tokens, kv_slot)` — device KV
    /// is freed (paged: the slot's unshared blocks dropped) only when
    /// the transfer lands.
    pub(super) outgoing: Vec<LaneQueue<(u64, KvSlot)>>,
    /// In-flight swap-ins per replica: the sequence re-joins the batch
    /// (and frees its host-pool bytes) when the transfer lands.
    pub(super) incoming: Vec<LaneQueue<ActiveSeq>>,
}

impl LaneClocks {
    /// The KV shapes replica `r`'s in-flight transfers hold on device:
    /// reserved swap-ins, then swap-outs not yet drained.
    pub(super) fn in_flight_shapes(&self, r: usize) -> impl Iterator<Item = RequestShape> + '_ {
        let swap_ins = self.incoming[r]
            .iter()
            .map(|(_, s)| ActiveSeq::kv_shape(s.past));
        let swap_outs = self.outgoing[r]
            .iter()
            .map(|&(_, (tok, _))| ActiveSeq::kv_shape(tok));
        swap_ins.chain(swap_outs)
    }
}

impl EngineCore<'_> {
    /// Retires DMA that completed by this boundary: finished
    /// swap-outs release their device KV, finished swap-ins join
    /// the batch (releasing their host-pool bytes). Both queues
    /// are completion-ordered, so the completed entries are
    /// exactly a front prefix.
    pub(super) fn retire_dma(&mut self, r: usize) {
        self.retire_swap_outs(r);
        while let Some((_, seq)) = self.lanes.incoming[r].pop_due(self.batch.clock[r]) {
            self.land_swap_in(r, seq);
        }
    }

    /// Frees the device KV of every swap-out landed by replica `r`'s
    /// clock.
    fn retire_swap_outs(&mut self, r: usize) {
        while let Some((_, (_, slot))) = self.lanes.outgoing[r].pop_due(self.batch.clock[r]) {
            if let Some(p) = self.kv.paged[r].as_mut() {
                p.drop_unshared(slot);
            }
        }
    }

    /// Empty-batch turn with DMA in flight — a swap-in whose
    /// completion gates re-entry, or swap-outs still holding
    /// the device KV an arrival may need. Advance to the
    /// next arrival or the earliest completion on either
    /// queue, whichever is sooner: the clock always moves, so
    /// admission can never spin against memory that is
    /// already draining, and idle-waiting on DMA counts as
    /// swap stall. (With nothing in flight the top-of-loop
    /// fast-forward handles the idle replica.) Both queues
    /// were pruned at the boundary, so any event here is
    /// strictly in the future.
    pub(super) fn idle_wait_for_dma(&mut self, r: usize) {
        let lanes = &self.lanes;
        let swap_event = [lanes.incoming[r].next_at(), lanes.outgoing[r].next_at()]
            .into_iter()
            .flatten()
            .reduce(f64::min);
        let Some(event) = [swap_event, self.mig.migrating[r].next_at()]
            .into_iter()
            .flatten()
            .reduce(f64::min)
        else {
            return;
        };
        let clock = self.batch.clock[r];
        // A decode-only replica never admits arrivals,
        // so the pending head is not an event for it.
        let next_arrival = if self.roles[r] == ReplicaRole::DecodeOnly {
            f64::INFINITY
        } else {
            self.wait
                .untaken
                .first()
                .map_or(f64::INFINITY, |&(t, _)| t.0)
        };
        if next_arrival > clock && next_arrival < event {
            self.batch.clock[r] = next_arrival;
            return;
        }
        // Idle-waiting on an inbound migration is
        // migration stall; waiting on swap DMA is
        // swap stall (a tie goes to the swap side —
        // both transfers are then due at once), from
        // the landing migrant's handoff at the latest.
        if swap_event.is_none_or(|s| event < s) {
            let handoff = self.mig.migrating[r]
                .iter()
                .next()
                .map_or(clock, |m| m.1.last_token);
            self.stats.migration_stall += event - clock.max(handoff);
        } else {
            self.stats.stall[r] += event - clock;
        }
        self.batch.clock[r] = event;
        self.retire_swap_outs(r);
    }
}

#[cfg(test)]
mod tests {
    use super::LaneQueue;

    fn drain_due(q: &mut LaneQueue<u32>, now: f64) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| q.pop_due(now)).collect()
    }

    #[test]
    fn lane_queue_drains_exactly_the_due_prefix_in_push_order() {
        let mut q = LaneQueue::default();
        for (i, at) in [1.0, 1.0, 2.0, 2.0, 2.0, 3.5].into_iter().enumerate() {
            q.push(at, i as u32);
        }
        assert_eq!(drain_due(&mut q, 0.5), []);
        assert_eq!(drain_due(&mut q, 1.0), [(1.0, 0), (1.0, 1)]);
        assert_eq!(q.next_at(), Some(2.0));
        assert_eq!(drain_due(&mut q, 3.0), [(2.0, 2), (2.0, 3), (2.0, 4)]);
        assert_eq!((q.len(), q.next_at()), (1, Some(3.5)));
        assert_eq!(drain_due(&mut q, f64::INFINITY), [(3.5, 5)]);
        assert!(q.is_empty() && q.next_at().is_none());
    }

    #[test]
    fn lane_queue_retain_keeps_completion_order() {
        let mut q = LaneQueue::default();
        for i in 0..8u32 {
            q.push(f64::from(i / 2), i);
        }
        q.retain(|&i| i % 3 != 0);
        let kept: Vec<(f64, u32)> = q.iter().copied().collect();
        assert_eq!(kept, [(0.0, 1), (1.0, 2), (2.0, 4), (2.0, 5), (3.0, 7)]);
        // Pushing at the back's time still holds after a retain.
        q.push(3.0, 8);
        assert_eq!(drain_due(&mut q, 2.0).len(), 4);
        assert_eq!(drain_due(&mut q, 3.0), [(3.0, 7), (3.0, 8)]);
    }

    #[test]
    #[should_panic(expected = "DMA lane out of completion order")]
    fn lane_queue_rejects_an_out_of_order_push() {
        let mut q = LaneQueue::default();
        q.push(2.0, 0u32);
        q.push(1.5, 1);
    }
}
