//! DMA lane layer: per-replica lane clocks, swap transfer deques, and
//! boundary retirement.
//!
//! This layer owns the in-flight swap traffic — the [`DmaChannels`] lane
//! clocks and the completion-sorted `outgoing` / `incoming` deques — and
//! the two phase entry points that drain them: [`EngineCore::retire_dma`]
//! retires everything due at a turn boundary, and
//! [`EngineCore::idle_wait_for_dma`] advances an empty replica's clock to
//! the next transfer (or arrival) so admission can never spin against
//! memory that is already draining.

use super::batch::ActiveSeq;
use super::core::EngineCore;
use crate::serving::dma::DmaChannels;
use crate::serving::kv::KvSlot;
use crate::serving::ReplicaRole;
use std::collections::VecDeque;

/// The DMA layer's per-replica state: lane clocks plus the in-flight
/// swap deques, both kept sorted by completion time (the lanes are
/// monotone, so pushes append in order).
pub(super) struct LaneClocks {
    /// Per-replica DMA lane clocks, one per direction.
    pub(super) dma: Vec<DmaChannels>,
    /// In-flight swap-outs per replica: `(completes_at, tokens,
    /// kv_slot)` — device KV is freed (paged: the slot's unshared
    /// blocks dropped) only when the transfer lands.
    pub(super) outgoing: Vec<VecDeque<(f64, u64, KvSlot)>>,
    /// In-flight swap-ins per replica: the sequence re-joins the batch
    /// (and frees its host-pool bytes) when the transfer lands.
    pub(super) incoming: Vec<VecDeque<(f64, ActiveSeq)>>,
}

impl EngineCore<'_> {
    /// Retires DMA that completed by this boundary: finished
    /// swap-outs release their device KV, finished swap-ins join
    /// the batch (releasing their host-pool bytes). The deques
    /// are sorted by completion time, so the completed entries
    /// are exactly a front prefix — the event core pops it; the
    /// scan core keeps the historical index walk (same entries,
    /// same order, since the list is sorted).
    pub(super) fn retire_dma(&mut self, r: usize) {
        let kv = &mut self.kv;
        let lanes = &mut self.lanes;
        let batch = &mut self.batch;
        let stats = &mut self.stats;
        if self.event_core {
            while lanes.outgoing[r]
                .front()
                .is_some_and(|&(t, _, _)| t <= batch.clock[r])
            {
                let (_, _, slot) = lanes.outgoing[r].pop_front().expect("front was checked");
                if let Some(p) = kv.paged[r].as_mut() {
                    p.drop_unshared(slot);
                }
            }
            while lanes.incoming[r]
                .front()
                .is_some_and(|&(t, _)| t <= batch.clock[r])
            {
                let (_, mut seq) = lanes.incoming[r].pop_front().expect("front was checked");
                kv.host_used[r] = kv.host_used[r].saturating_sub(seq.hosted_bytes);
                seq.hosted_bytes = 0;
                stats.peak_batch = stats.peak_batch.max(batch.batches[r].len() as u32 + 1);
                batch.batches[r].push(seq, kv.paged[r].as_ref());
            }
        } else {
            let mut i = 0;
            while i < lanes.outgoing[r].len() {
                if lanes.outgoing[r][i].0 <= batch.clock[r] {
                    let (_, _, slot) = lanes.outgoing[r].remove(i).expect("index in range");
                    if let Some(p) = kv.paged[r].as_mut() {
                        p.drop_unshared(slot);
                    }
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < lanes.incoming[r].len() {
                if lanes.incoming[r][i].0 <= batch.clock[r] {
                    let (_, mut seq) = lanes.incoming[r].remove(i).expect("index in range");
                    kv.host_used[r] = kv.host_used[r].saturating_sub(seq.hosted_bytes);
                    seq.hosted_bytes = 0;
                    stats.peak_batch = stats.peak_batch.max(batch.batches[r].len() as u32 + 1);
                    batch.batches[r].push(seq, kv.paged[r].as_ref());
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Empty-batch turn with DMA in flight — a swap-in whose
    /// completion gates re-entry, or swap-outs still holding
    /// the device KV an arrival may need. Advance to the
    /// next arrival or the earliest completion on either
    /// list, whichever is sooner: the clock always moves, so
    /// admission can never spin against memory that is
    /// already draining, and idle-waiting on DMA counts as
    /// swap stall. (With nothing in flight the top-of-loop
    /// fast-forward handles the idle replica.) Both lists
    /// were pruned at the boundary, so any event here is
    /// strictly in the future.
    pub(super) fn idle_wait_for_dma(&mut self, r: usize) {
        let event_core = self.event_core;
        let kv = &mut self.kv;
        let lanes = &mut self.lanes;
        let batch = &mut self.batch;
        let stats = &mut self.stats;
        // Both deques are sorted, so their minima sit at the
        // front; the scan core keeps the historical min_by.
        let (out_event, in_event, mig_event) = if event_core {
            (
                lanes.outgoing[r].front().map(|&(t, _, _)| t),
                lanes.incoming[r].front().map(|&(t, _)| t),
                self.mig.migrating[r].front().map(|&(t, _)| t),
            )
        } else {
            (
                lanes.outgoing[r]
                    .iter()
                    .map(|&(t, _, _)| t)
                    .min_by(f64::total_cmp),
                lanes.incoming[r]
                    .iter()
                    .map(|&(t, _)| t)
                    .min_by(f64::total_cmp),
                self.mig.migrating[r]
                    .iter()
                    .map(|&(t, _)| t)
                    .min_by(f64::total_cmp),
            )
        };
        let swap_event = match (in_event, out_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let event = match (swap_event, mig_event) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if let Some(event) = event {
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
            if next_arrival > batch.clock[r] && next_arrival < event {
                batch.clock[r] = next_arrival;
            } else {
                // Idle-waiting on an inbound migration is
                // migration stall; waiting on swap DMA is
                // swap stall (a tie goes to the swap side —
                // both transfers are then due at once).
                if swap_event.is_none_or(|s| event < s) {
                    stats.migration_stall += event - batch.clock[r];
                } else {
                    stats.stall[r] += event - batch.clock[r];
                }
                batch.clock[r] = event;
                if event_core {
                    while lanes.outgoing[r]
                        .front()
                        .is_some_and(|&(t, _, _)| t <= batch.clock[r])
                    {
                        let (_, _, slot) =
                            lanes.outgoing[r].pop_front().expect("front was checked");
                        if let Some(p) = kv.paged[r].as_mut() {
                            p.drop_unshared(slot);
                        }
                    }
                } else {
                    let mut j = 0;
                    while j < lanes.outgoing[r].len() {
                        if lanes.outgoing[r][j].0 <= batch.clock[r] {
                            let (_, _, slot) = lanes.outgoing[r].remove(j).expect("index in range");
                            if let Some(p) = kv.paged[r].as_mut() {
                                p.drop_unshared(slot);
                            }
                        } else {
                            j += 1;
                        }
                    }
                }
            }
        }
    }
}
