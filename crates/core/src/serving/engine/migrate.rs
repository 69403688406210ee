//! Migration layer: prefill→decode handoff and migrant admission.
//!
//! In a disaggregated cluster, a sequence whose prefill completes on a
//! `PrefillOnly` replica leaves for a decode replica the same
//! iteration, its KV crossing both host links. This layer owns the
//! decode-pool route table and the per-replica inbound lane queues,
//! and the two phase entry points around them:
//! [`EngineCore::admit_migrants`] lands arrived migrants into the
//! destination batch, through the KV layer's migrant gate, prefix
//! mapping and batch entry (`kv_state`), and
//! [`EngineCore::migrate_after_prefill`] prices and launches the
//! two-leg transfer when the batch layer hands it a finished prefill.

use super::batch::ActiveSeq;
use super::core::EngineCore;
use super::dma_retire::LaneQueue;
use crate::serving::dma::DmaLane;
use crate::serving::kv::PagedKv;
use crate::serving::policy::MigrationTarget;

/// The migration layer's state: which replicas decode, and what is in
/// flight toward each.
pub(super) struct MigrationState {
    /// Replica indices that accept migrations (`DecodeOnly` plus
    /// `Unified` in mixed clusters; empty in all-`Unified` clusters,
    /// which short-circuits every migration hook).
    pub(super) decode_pool: Vec<usize>,
    /// In-flight inbound migrations per replica, keyed by DMA
    /// completion (pushes ride the destination's monotone H2D lane).
    pub(super) migrating: Vec<LaneQueue<ActiveSeq>>,
}

impl EngineCore<'_> {
    /// Migrant admission: sequences whose inbound migration
    /// DMA has landed join the batch next — after this
    /// replica's own swapped sequences (they are older work)
    /// but ahead of new arrivals, FIFO by DMA-completion
    /// time. Migrants arrive fully prefilled, so the gate
    /// ([`migrant_fits`](EngineCore::migrant_fits)) is the
    /// destination's residency check over their current
    /// context; like swap-ins, an empty replica admits its
    /// head unconditionally (liveness: a migrant too big for
    /// a busy replica is guaranteed a slot once the batch
    /// drains, so migrated sequences always complete). A
    /// no-op in all-`Unified` clusters (the queue is never
    /// pushed).
    pub(super) fn admit_migrants(&mut self, r: usize) {
        while self.batch.batches[r].len() + self.lanes.incoming[r].len() < self.max_batch as usize
            && self.mig.migrating[r]
                .next_at()
                .is_some_and(|t| t <= self.batch.clock[r])
        {
            let force = self.batch.batches[r].is_empty() && self.lanes.incoming[r].is_empty();
            if !force && !self.migrant_fits(r) {
                break;
            }
            let (ready, mut seq) = self.mig.migrating[r]
                .pop_due(self.batch.clock[r])
                .expect("head was checked");
            // DMA landed at `ready`; the batch had no slot (or
            // the replica no turn) until now.
            self.stats.migration_stall += self.batch.clock[r] - ready;
            // Fresh block accounting on the destination: map the
            // class prefix from the local cache if this replica
            // holds it, acquire the rest, and publish the prefix
            // for later admissions (the migrant arrives fully
            // prefilled, so its blocks are publishable
            // immediately). Contiguous accounting shares nothing.
            seq.shared_tokens = 0;
            if let Some((slot, shared)) = self.kv.admit(r, seq.class, None, seq.shape) {
                (seq.slot, seq.shared_tokens) = (slot, shared);
                let p = self.kv.paged[r].as_mut().expect("admitted to a paged pool");
                p.grow(seq.slot, seq.past);
                self.kv.publish_prefix(r, &mut seq, self.mix);
            }
            self.enter_batch(r, seq);
        }
    }

    /// Prefill→decode handoff: the sequence leaves this
    /// replica (`r`) the iteration its prefill completes. Its
    /// KV moves over both host links — a D2H leg on the
    /// source, then an H2D leg on the destination — each
    /// priced by the owning side's `kv_transfer_time`. Like
    /// swap pricing, only the unshared context moves (a class
    /// prefix is assumed replicated to the decode pool once,
    /// amortized across its requests). The handoff is
    /// fire-and-forget: it never stalls source compute
    /// (`overlap_dma` governs swap traffic only), and the
    /// source's device KV is freed at issue — prefill
    /// admission capacity, not migration drain, is what gates
    /// this replica. Called by the batch layer with the
    /// just-completed sequence already removed from the
    /// batch; requires a non-empty decode pool.
    pub(super) fn migrate_after_prefill(&mut self, r: usize, seq: ActiveSeq, now: f64) {
        let model = self.model;
        let moved = seq.past - seq.shared_tokens;
        // No decoders ever reside here (every
        // one migrates the turn it appears), so
        // nothing was ever evicted or hosted.
        debug_assert_eq!(seq.hosted_bytes, 0);
        if let Some(p) = self.kv.paged[r].as_mut() {
            p.complete(seq.slot);
        }
        let targets = self.mig.decode_pool.iter().map(|&d| {
            let target = MigrationTarget {
                replica: d,
                batch_len: self.batch.batches[d].len() + self.lanes.incoming[d].len(),
                inbound: self.mig.migrating[d].len(),
                lane_busy_secs: (self.lanes.dma[d].free_at(DmaLane::H2D) - now).max(0.0),
                kv_free_blocks: self.kv.paged[d].as_ref().map(PagedKv::free_blocks),
            };
            (d, target)
        });
        let (dst, _) = super::select_min(targets, |a, b| self.migration.compare(a, b))
            .expect("decode pool is non-empty");
        let out_secs = self.replicas.kv_transfer_secs(r, model, moved);
        let in_secs = self.replicas.kv_transfer_secs(dst, model, moved);
        self.stats.dma[r] += out_secs;
        self.stats.dma[dst] += in_secs;
        let out_done = self.lanes.dma[r].issue(DmaLane::D2H, now, out_secs);
        let ready = self.lanes.dma[dst].issue(DmaLane::H2D, out_done, in_secs);
        self.stats.migrated_out[r] += 1;
        self.stats.migrated_in[dst] += 1;
        self.mig.migrating[dst].push(ready, seq);
        self.turns.wake(dst, self.batch.clock[dst]);
    }
}
