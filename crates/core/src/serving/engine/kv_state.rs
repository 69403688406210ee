//! KV-state layer: paged/contiguous KV accounting, how a sequence
//! enters a batch, swapped-sequence re-admission, and the
//! pressure/eviction loop.
//!
//! This layer owns everything about *where KV lives*: the per-replica
//! paged pools (or contiguous accounting when `kv_block` is 0), the
//! swapped-out queues, the host-pool byte ledger, and the monotone
//! swap-epoch counter. It owns the one KV fit rule too (`kv_fits`,
//! behind the arrival, re-admission and migrant gates), the class
//! prefix cache's lookup, mapping and publication ([`KvLedger`]
//! methods), and batch entry ([`EngineCore::enter_batch`]). Its two
//! phase entry points are called by the engine core each turn:
//! [`EngineCore::readmit_swapped`] offers freed slots to preempted
//! sequences before new admissions, and
//! [`EngineCore::relieve_pressure`] projects one iteration of KV growth
//! and evicts the eviction policy's victims until it fits.

use super::arrivals::Arrival;
use super::batch::{ActiveSeq, Batch};
use super::core::EngineCore;
use super::dma_retire::LaneClocks;
use super::preflight::ConfigError;
use super::replica::Replicas;
use crate::backend::Backend;
use crate::serving::dma::DmaLane;
use crate::serving::kv::{KvSlot, PagedKv};
use crate::serving::policy::{EvictionMechanism, EvictionPolicy};
use crate::serving::RequestClass;
use ianus_model::{ModelConfig, RequestShape};

/// The KV ledger: every byte/block of KV the cluster holds outside the
/// compute path — paged pools, swapped-out sequences, host-pool usage —
/// plus the per-class prefix keys.
pub(super) struct KvLedger {
    /// Paged-KV state per replica when a block size is set and the
    /// backend reports a block budget; `None` keeps the legacy
    /// contiguous accounting (bit-identical) on that replica.
    pub(super) paged: Vec<Option<PagedKv>>,
    /// Swapped-out sequences per replica (their KV lives host-side —
    /// or nowhere, for recompute evictions; re-admission order is
    /// the readmission policy's, ahead of new arrivals).
    pub(super) swapped: Vec<Vec<ActiveSeq>>,
    /// Bytes of swapped KV host-side, per replica.
    pub(super) host_used: Vec<u64>,
    /// Effective per-replica host KV pool (`None` = unbounded).
    pub(super) pools: Vec<Option<u64>>,
    /// Per-class prefix-cache keys (`None` when the class opted out).
    pub(super) class_keys: Vec<Option<u64>>,
}

/// Replica `r`'s paged block count, or `None` to keep contiguous
/// accounting (no block size, or no block budget on the backend); a
/// [`ConfigError::KvBlocks`] when the empty pool cannot hold the
/// largest `mix` sequence, so the run could only livelock.
pub(super) fn paged_blocks(
    backend: &dyn Backend,
    r: usize,
    kv_block: u64,
    model: &ModelConfig,
    mix: &[RequestClass],
) -> Result<Option<u64>, ConfigError> {
    let widest_input = mix.iter().map(|c| c.shape.input).max().unwrap_or(1);
    let Some(budget) = (kv_block > 0)
        .then(|| backend.kv_budget_bytes(model, widest_input))
        .flatten()
    else {
        return Ok(None);
    };
    let blocks = budget / crate::capacity::kv_swap_bytes(model, kv_block).max(1);
    let sequences = mix
        .iter()
        .map(|c| c.shape.total_tokens().div_ceil(kv_block));
    let need = sequences.max().unwrap_or(1);
    if blocks < need {
        return Err(ConfigError::KvBlocks(r, kv_block, blocks, need));
    }
    Ok(Some(blocks))
}

/// The eviction-cost estimates of `seq` on replica `r`, as
/// `(swap_secs, recompute_secs)`: one-way swap time (infinite when the
/// replica's host-pool `headroom` cannot take the sequence's KV bytes)
/// and the grid-estimated re-prefill cost. Both price only the
/// *unshared* context — shared prefix blocks neither move nor recompute
/// (everything is unshared under contiguous accounting). The headroom
/// check charges whole blocks when replica `r` keeps `paged` KV,
/// matching the engine's block-granular pool debit; contiguous
/// accounting keeps the exact charge. Both prices are pure functions of
/// their memo keys, so skipping the ones no policy reads changes no
/// report.
pub(super) fn eviction_costs(
    seq: &ActiveSeq,
    replicas: &mut Replicas,
    r: usize,
    model: &ModelConfig,
    headroom: Option<u64>,
    paged: Option<&PagedKv>,
) -> (f64, f64) {
    let block_tokens = paged.map_or(0, |p| p.block_tokens());
    let moved = seq.past - seq.shared_tokens;
    let pool_tokens = if block_tokens > 0 {
        moved.div_ceil(block_tokens) * block_tokens
    } else {
        moved
    };
    let bytes = crate::capacity::kv_swap_bytes(model, pool_tokens);
    let swap_secs = match headroom {
        Some(h) if bytes > h => f64::INFINITY,
        _ => replicas.kv_transfer_secs(r, model, moved),
    };
    let recompute_secs = replicas.pricer(r).prefill_est_secs(moved);
    (swap_secs, recompute_secs)
}

/// Whether the eviction views price their costs: only for a policy
/// that reads them, or, in tests, whenever [`FORCE_PRICING`] is set.
fn prices_views(policy: EvictionPolicy) -> bool {
    #[cfg(test)]
    if FORCE_PRICING.get() {
        return true;
    }
    policy.reads_costs()
}

#[cfg(test)]
thread_local! {
    /// Test switch: price every eviction view on this thread, whatever
    /// the policy, so a cost-blind run can be checked against a fully
    /// priced one.
    pub(crate) static FORCE_PRICING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl KvLedger {
    /// Tokens of the cached prefix that replica `r`'s pool could map for
    /// a sequence of `class` with an `input`-token prompt (the lookup
    /// [`admit`](Self::admit) maps): its workflow parent's published
    /// prefix when it `inherit`s one, else its class prefix, capped below
    /// the whole prompt so at least one token always prefills (TTFT stays
    /// measurable). 0 on a miss and under contiguous accounting.
    fn prefix_hit(&self, r: usize, class: usize, inherit: Option<u64>, input: u64) -> u64 {
        match (&self.paged[r], inherit.or(self.class_keys[class])) {
            (Some(p), Some(key)) => p.prefix_hit_tokens(key, input.saturating_sub(1)),
            _ => 0,
        }
    }

    /// Opens a block table in replica `r`'s pool for a sequence of
    /// `class` and `shape`, with room for its final context, mapping the
    /// prefix [`prefix_hit`](Self::prefix_hit) looks up. Returns the slot
    /// and the shared tokens mapped (0 = cold); `None` under contiguous
    /// accounting.
    pub(super) fn admit(
        &mut self,
        r: usize,
        class: usize,
        inherit: Option<u64>,
        shape: RequestShape,
    ) -> Option<(KvSlot, u64)> {
        let key = inherit.or(self.class_keys[class]);
        let p = self.paged[r].as_mut()?;
        Some(p.admit(key, shape.input.saturating_sub(1), shape.total_tokens()))
    }

    /// Publishes the prompt prefix `seq` has built on replica `r` under
    /// its class's key (the first publisher wins; later ones find the
    /// entry present) and marks the tokens it now shares. The prefix is
    /// the class's, capped below the whole prompt. A no-op under
    /// contiguous accounting or for a class without a prefix.
    pub(super) fn publish_prefix(&mut self, r: usize, seq: &mut ActiveSeq, mix: &[RequestClass]) {
        if let (Some(p), Some(key)) = (self.paged[r].as_mut(), self.class_keys[seq.class]) {
            let prefix = mix[seq.class]
                .prefix_tokens
                .min(seq.shape.input.saturating_sub(1));
            if let Some(shared) = p.register_prefix(seq.slot, key, prefix) {
                seq.shared_tokens = seq.shared_tokens.max(shared);
            }
        }
    }
}

/// How a contiguous projection counts a replica's residents.
enum Residents {
    /// Each at its final shape, with nothing in flight: non-preemptive
    /// admission reserves every resident's whole context.
    Final,
    /// Each at `context(s)` tokens, then the in-flight transfers' KV.
    Context(fn(&ActiveSeq) -> u64),
}

/// Replica `r`'s contiguous KV projection: every resident of `batch`,
/// settled, at `context(s)` tokens, then the KV its in-flight transfers
/// hold on device (reserved swap-ins, then swap-outs not yet drained).
fn projection(
    batch: &mut Batch,
    lanes: &LaneClocks,
    r: usize,
    context: impl Fn(&ActiveSeq) -> u64,
) -> Vec<RequestShape> {
    batch
        .settled()
        .iter()
        .map(|s| ActiveSeq::kv_shape(context(s)))
        .chain(lanes.in_flight_shapes(r))
        .collect()
}

impl EngineCore<'_> {
    /// The KV fit rule every gate asks before a sequence becomes
    /// resident on replica `r`. On a paged replica the candidate needs
    /// `need` more blocks, free once idle prefix-cache entries are
    /// reclaimed; under contiguous accounting the backend's `batch_fits`
    /// must hold the `residents` plus the candidate's KV shape `cand`.
    /// Records the projected occupancy when the candidate fits.
    fn kv_fits(
        &mut self,
        r: usize,
        need: Option<u64>,
        cand: RequestShape,
        residents: Residents,
    ) -> bool {
        let occupancy = if let Some(need) = need {
            let p = self.kv.paged[r]
                .as_mut()
                .expect("blocks count on a paged replica");
            p.reclaim(need);
            (need <= p.free_blocks()).then(|| p.occupancy_plus(need))
        } else {
            let batch = &mut self.batch.batches[r];
            let mut shapes = match residents {
                Residents::Final => batch.seqs().iter().map(|s| s.shape).collect(),
                Residents::Context(context) => projection(batch, &self.lanes, r, context),
            };
            shapes.push(cand);
            self.replicas
                .backend(r)
                .batch_fits(self.model, &shapes)
                .ok()
        };
        if let Some(occupancy) = occupancy {
            self.stats.peak_kv_occupancy = self.stats.peak_kv_occupancy.max(occupancy);
        }
        occupancy.is_some()
    }

    /// The arrival gate: whether `cand` may join replica `r`'s batch —
    /// the residents' *final* lengths normally, their *current* lengths
    /// (optimistic overcommit) under preemption. Paged, the candidate
    /// needs its footprint less the blocks of its prefix-cache hit: the
    /// imminent prompt under preemption; otherwise its final length plus
    /// every resident's residual growth to completion. Contiguous, its
    /// imminent footprint (the whole prompt's KV at prefill activation
    /// width) joins the residents' current context and in-flight KV
    /// under preemption; its final shape joins theirs otherwise.
    pub(super) fn arrival_fits(&mut self, r: usize, cand: Arrival) -> bool {
        // An invariant: `validate` admitted every class on an empty
        // replica. A refusal there would block the queue (non-preempt)
        // or admit an eviction storm (preempt).
        let backend = self.replicas.backend(r);
        if let Err(e) = backend.batch_fits(self.model, std::slice::from_ref(&cand.shape)) {
            assert!(
                !(self.batch.batches[r].is_empty()
                    && self.kv.swapped[r].is_empty()
                    && self.lanes.incoming[r].is_empty()),
                "request {:?} can never be admitted on replica {} ({}): {}",
                cand.shape,
                r,
                backend.name(),
                e
            );
            return false;
        }
        let preempt = self.preempt;
        let need = self.kv.paged[r].as_ref().map(|p| {
            let inherit = cand.wf.and_then(|w| w.inherit);
            let hit = self.kv.prefix_hit(r, cand.class, inherit, cand.shape.input);
            let own = if preempt {
                cand.shape.input
            } else {
                cand.shape.total_tokens()
            };
            let mut need = p.blocks_for(own).saturating_sub(p.blocks_for(hit));
            if !preempt {
                for s in self.batch.batches[r].seqs() {
                    need += p.growth(s.slot, s.shape.total_tokens());
                }
            }
            need
        });
        if preempt {
            let imminent = RequestShape {
                input: cand.shape.input.max(1),
                output: 1,
            };
            self.kv_fits(r, need, imminent, Residents::Context(|s| s.past))
        } else {
            self.kv_fits(r, need, cand.shape, Residents::Final)
        }
    }

    /// The migrant gate: whether the earliest landed migrant fits on
    /// replica `r`. Migrants arrive fully prefilled, so it is residency
    /// over their current context: paged, the blocks of that context
    /// beyond the class prefix this replica's cache could map;
    /// contiguous, that context beside the residents' current context
    /// and the in-flight KV.
    pub(super) fn migrant_fits(&mut self, r: usize) -> bool {
        let (_, cand) = self.mig.migrating[r]
            .iter()
            .next()
            .expect("a migrant landed");
        let need = self.kv.paged[r].as_ref().map(|p| {
            let hit = self.kv.prefix_hit(r, cand.class, None, cand.shape.input);
            p.blocks_for(cand.past).saturating_sub(p.blocks_for(hit))
        });
        let shape = ActiveSeq::kv_shape(cand.past);
        self.kv_fits(r, need, shape, Residents::Context(|s| s.past))
    }

    /// Batch entry: `seq` joins replica `r`'s batch, counted against its
    /// pool, and the peak batch width is recorded.
    pub(super) fn enter_batch(&mut self, r: usize, seq: ActiveSeq) {
        let batch = &mut self.batch.batches[r];
        self.stats.peak_batch = self.stats.peak_batch.max(batch.len() as u32 + 1);
        batch.push(seq, self.kv.paged[r].as_ref());
    }

    /// A landed swap-in: its host-pool bytes are released and it
    /// re-enters replica `r`'s batch.
    pub(super) fn land_swap_in(&mut self, r: usize, mut seq: ActiveSeq) {
        self.kv.host_used[r] = self.kv.host_used[r].saturating_sub(seq.hosted_bytes);
        seq.hosted_bytes = 0;
        self.enter_batch(r, seq);
    }

    /// Swap-ins first: preempted sequences are older than
    /// anything still queued, so they are *offered* freed slots
    /// before new admissions at every boundary (a policy head
    /// that does not yet fit lets newer arrivals pass —
    /// policy-ordered among the swapped, not a hard barrier
    /// against the queue). A swapped sequence re-enters when one
    /// projected iteration of KV growth (its own and the
    /// residents') still fits — checking grown lengths, not
    /// current ones, keeps a re-admission from bouncing straight
    /// back out through the pressure check below, which would
    /// charge both transfer costs for zero progress. When the
    /// replica is empty it re-enters unconditionally, which
    /// guarantees every preempted sequence eventually completes.
    pub(super) fn readmit_swapped(&mut self, r: usize) {
        while self.batch.batches[r].len() + self.lanes.incoming[r].len() < self.max_batch as usize
            && !self.kv.swapped[r].is_empty()
        {
            let readmission = self.scheduler.readmission;
            let views = self.kv.swapped[r].iter().map(ActiveSeq::view).enumerate();
            let Some((ci, _)) = super::select_min(views, |a, b| readmission.compare(a, b)) else {
                break;
            };
            let force = self.batch.batches[r].is_empty() && self.lanes.incoming[r].is_empty();
            if !force {
                let grown = |s: &ActiveSeq| {
                    if s.decoding() && s.remaining > 0 {
                        s.past + 1
                    } else {
                        s.past
                    }
                };
                // The candidate must reacquire its grown context if
                // hosted; a recompute victim holds no KV *yet*, but
                // will immediately re-prefill its whole context, so it
                // gates on that imminent footprint (like fresh
                // admission does on the prompt), not on its vacuously
                // empty cache, which would invite recompute thrash.
                // Paged, only what lies beyond the (shared) blocks it
                // still holds counts, plus the residents' growth.
                let cand = &self.kv.swapped[r][ci];
                let (tokens, shape) = if cand.decoding() {
                    let tokens = grown(cand);
                    (tokens, ActiveSeq::kv_shape(tokens))
                } else {
                    let tokens = cand.prefill_target.max(1);
                    let shape = RequestShape {
                        input: tokens,
                        output: 1,
                    };
                    (tokens, shape)
                };
                let need = self.kv.paged[r]
                    .as_ref()
                    .map(|p| p.growth(cand.slot, tokens) + self.batch.batches[r].decode_growth());
                if !self.kv_fits(r, need, shape, Residents::Context(grown)) {
                    break;
                }
            }
            let seq = self.kv.swapped[r].remove(ci);
            if let Some(p) = self.kv.paged[r].as_mut() {
                // A victim whose swap-out DMA is still draining
                // never really left the device: cancel the pending
                // retire (which would free blocks now live again)
                // and regrow the table to its context — a no-op
                // when the blocks were never dropped. Recompute
                // victims reacquire blocks lazily, chunk by chunk.
                // Contiguous slots are all 0, so this cancel is
                // paged-only.
                self.lanes.outgoing[r].retain(|&(_, slot)| slot != seq.slot);
                p.grow(seq.slot, seq.past);
            }
            if seq.hosted_bytes == 0 {
                // Recompute victim: nothing to restore over the
                // link — it rejoins the batch and re-prefills its
                // context through the chunk machinery.
                self.enter_batch(r, seq);
                continue;
            }
            // Restore what the swap-out moved: the unshared
            // context (everything, under contiguous accounting).
            let swap_in =
                self.replicas
                    .kv_transfer_secs(r, self.model, seq.past - seq.shared_tokens);
            self.stats.dma[r] += swap_in;
            let clock = self.batch.clock[r];
            let ready = self.lanes.dma[r].issue(DmaLane::H2D, clock, swap_in);
            if self.overlap && !force {
                // Decode continues around the transfer; the
                // sequence re-enters when its DMA completes.
                self.lanes.incoming[r].push(ready, seq);
            } else {
                // Serialized (or forced restart of an empty
                // replica): the compute clock waits out the DMA.
                self.stats.stall[r] += ready - clock;
                self.batch.clock[r] = ready;
                self.land_swap_in(r, seq);
            }
        }
    }

    /// KV-pressure check before executing: project every
    /// sequence's KV one iteration forward (the chunk for the
    /// prefilling sequence, +1 token per decoder) and evict the
    /// eviction policy's victim among the *decoding* sequences
    /// until the projection fits. Prefilling sequences are never
    /// evicted — their partially-built KV would be wasted work —
    /// and a lone sequence is never evicted (it could then never
    /// make progress), so a single oversized request degrades to
    /// the non-preemptive behavior instead of livelocking.
    ///
    /// The victim's KV leaves by the bundle's `EvictionMechanism`:
    /// swapped to the host pool (falling back to recompute when
    /// the pool is full), dropped for re-prefill, or whichever
    /// is cheaper for this victim. Under overlapped DMA an
    /// eviction frees memory only at transfer completion, so the
    /// fit check runs at two horizons: the *eventual* projection
    /// (in-flight swap-outs excluded — they drain without
    /// further evictions) decides whether more victims are
    /// needed, and the *current* projection (in-flight KV
    /// included) decides how long the iteration must stall for
    /// the DMA to hand the memory back.
    pub(super) fn relieve_pressure(&mut self, r: usize, chunk_target: Option<u64>) {
        let model = self.model;
        let chunk_size = self.chunk_size;
        let overlap = self.overlap;
        let scheduler = self.scheduler;
        let replicas = &mut *self.replicas;
        let kv = &mut self.kv;
        let lanes = &mut self.lanes;
        let batch = &mut self.batch;
        let stats = &mut self.stats;
        let chunk_tokens = |s: &ActiveSeq| chunk_size.min(s.prefill_target - s.prefilled);
        // Outcome of one pressure probe: either the projection
        // fits (possibly after stalling for in-flight
        // swap-outs), or a victim must go — carrying the
        // over-capacity ratio to record if nothing is
        // evictable.
        enum Pressure {
            Fits,
            Evict(Option<f64>),
        }
        loop {
            let grown_tokens = |s: &ActiveSeq| {
                if chunk_target == Some(s.idx) {
                    s.past + chunk_tokens(s)
                } else if s.decoding() && s.remaining > 0 {
                    s.past + 1
                } else {
                    s.past
                }
            };
            let pressure = if let Some(p) = kv.paged[r].as_mut() {
                // Block arithmetic: one iteration of growth
                // over the batch (the decoders' running count plus
                // the chunk's), against free blocks plus the
                // unshared blocks in-flight swap-outs will hand
                // back (they drain without further evictions).
                let resident = &batch.batches[r];
                let chunk_growth = chunk_target.map_or(0, |idx| {
                    let ci = resident
                        .position(idx)
                        .expect("prefilling sequences are never evicted");
                    let s = &resident.seqs()[ci];
                    p.growth(s.slot, s.past + chunk_tokens(s))
                });
                let growth = resident.decode_growth() + chunk_growth;
                p.reclaim(growth);
                let in_flight: u64 = lanes.outgoing[r]
                    .iter()
                    .map(|&(_, (_, slot))| p.unshared_blocks_of(slot))
                    .sum();
                if growth <= p.free_blocks() + in_flight {
                    // Enough memory once in-flight swap-outs
                    // drain; stall the iteration until the ones
                    // it actually needs have completed.
                    while growth > p.free_blocks() {
                        // The earliest swap-out, due or not.
                        let (done_at, (_, slot)) = lanes.outgoing[r]
                            .pop_due(f64::INFINITY)
                            .expect("growth exceeds free blocks only through in-flight swap-outs");
                        stats.stall[r] += (done_at - batch.clock[r]).max(0.0);
                        batch.clock[r] = batch.clock[r].max(done_at);
                        p.drop_unshared(slot);
                    }
                    stats.peak_kv_occupancy = stats.peak_kv_occupancy.max(p.occupancy_plus(growth));
                    Pressure::Fits
                } else {
                    Pressure::Evict(Some(p.occupancy_plus(growth)))
                }
            } else {
                // The current projection: residents grown, then
                // in-flight swap-ins and draining swap-outs. Its
                // prefix without the swap-outs is the eventual one.
                let mut current = projection(&mut batch.batches[r], lanes, r, grown_tokens);
                let eventual = current.len() - lanes.outgoing[r].len();
                match replicas.backend(r).batch_fits(model, &current[..eventual]) {
                    Ok(_) => {
                        // Enough memory once in-flight swap-outs
                        // drain; stall the iteration until the ones
                        // it actually needs have completed.
                        loop {
                            match replicas.backend(r).batch_fits(model, &current) {
                                Ok(occupancy) => {
                                    stats.peak_kv_occupancy =
                                        stats.peak_kv_occupancy.max(occupancy);
                                    break;
                                }
                                Err(_) => {
                                    // The earliest swap-out, due or
                                    // not: its shape heads the
                                    // swap-out tail.
                                    let (done_at, _) =
                                        lanes.outgoing[r].pop_due(f64::INFINITY).expect(
                                            "current projection exceeds the \
                                             eventual one only through \
                                             in-flight swap-outs",
                                        );
                                    current.remove(eventual);
                                    stats.stall[r] += (done_at - batch.clock[r]).max(0.0);
                                    batch.clock[r] = batch.clock[r].max(done_at);
                                }
                            }
                        }
                        Pressure::Fits
                    }
                    // The final-shape admission check rules out
                    // SequenceTooLong here, so the error always
                    // carries a ratio.
                    Err(e) => Pressure::Evict(
                        if let crate::capacity::CapacityError::OutOfMemory {
                            required,
                            available,
                        } = e
                        {
                            Some(required as f64 / available as f64)
                        } else {
                            None
                        },
                    ),
                }
            };
            let over = match pressure {
                Pressure::Fits => break,
                Pressure::Evict(over) => over,
            };
            let headroom = kv.pools[r].map(|p| p.saturating_sub(kv.host_used[r]));
            // The queue the victim would join: each slot ahead
            // of it costs roughly one mean iteration of wait.
            let readmit_delay = if batch.iter_n[r] > 0 {
                kv.swapped[r].len() as f64 * batch.iter_sum[r] / batch.iter_n[r] as f64
            } else {
                0.0
            };
            let paged = kv.paged[r].as_ref();
            let priced = prices_views(scheduler.eviction);
            let views = batch.batches[r]
                .settled()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.decoding())
                .map(|(i, s)| {
                    let mut view = s.view();
                    if priced {
                        (view.swap_secs, view.recompute_secs) =
                            eviction_costs(s, replicas, r, model, headroom, paged);
                        view.readmit_delay_secs = readmit_delay;
                    }
                    (i, view)
                });
            let victim = super::select_min(views, |a, b| scheduler.eviction.compare(a, b));
            let Some((v, view)) = victim.filter(|_| batch.batches[r].len() > 1) else {
                // Nothing evictable: tolerate the overcommit
                // for this iteration, and record the
                // over-capacity footprint so the report cannot
                // claim the run fit in memory.
                if let Some(ratio) = over {
                    stats.peak_kv_occupancy = stats.peak_kv_occupancy.max(ratio);
                }
                break;
            };
            let mut seq = batch.batches[r].remove(v, kv.paged[r].as_mut());
            seq.preemptions += 1;
            stats.preemptions += 1;
            // The run's eviction count so far orders FIFO re-admission.
            seq.swap_epoch = stats.preemptions;
            // Only the *unshared* context moves (or drops):
            // shared prefix blocks stay resident under the
            // cache's reference. Contiguous mode has no shared
            // tokens, so this is the whole context there.
            let moved = seq.past - seq.shared_tokens;
            // The host pool parks whole blocks in paged mode
            // — a partially filled tail block occupies a full
            // block host-side too — so the pool debit rounds
            // `moved` up to the block size. The DMA transfer
            // below still prices the actual tokens moved;
            // contiguous mode stays exact (and bit-identical).
            let pool_tokens = match kv.paged[r].as_ref() {
                Some(p) => moved.div_ceil(p.block_tokens()) * p.block_tokens(),
                None => moved,
            };
            let bytes = crate::capacity::kv_swap_bytes(model, pool_tokens);
            let pool_takes = headroom.is_none_or(|h| bytes <= h);
            let by_swap = match scheduler.mechanism {
                EvictionMechanism::Swap => pool_takes,
                EvictionMechanism::Recompute => false,
                // The one published cost rule
                // (`SeqView::eviction_cost_secs`):
                // `swap_secs` is already infinite when
                // the pool cannot take the bytes, so
                // the comparison alone decides. (The
                // re-admission delay term is common to
                // both mechanisms, so it cancels here.)
                // A cost-blind policy left the views unpriced, so the
                // victim alone is priced here.
                EvictionMechanism::Cheapest => {
                    let (swap_secs, recompute_secs) = if priced {
                        (view.swap_secs, view.recompute_secs)
                    } else {
                        eviction_costs(&seq, replicas, r, model, headroom, kv.paged[r].as_ref())
                    };
                    2.0 * swap_secs <= recompute_secs
                }
            };
            if by_swap {
                seq.hosted_bytes = bytes;
                kv.host_used[r] += bytes;
                stats.host_peak_bytes = stats.host_peak_bytes.max(kv.host_used[r]);
                if let Some(pool) = kv.pools[r] {
                    stats.host_peak_occupancy = stats
                        .host_peak_occupancy
                        .max(kv.host_used[r] as f64 / pool.max(1) as f64);
                }
                let swap_out = replicas.kv_transfer_secs(r, model, moved);
                stats.dma[r] += swap_out;
                let done_at = lanes.dma[r].issue(DmaLane::D2H, batch.clock[r], swap_out);
                if overlap {
                    // Device KV drains in the
                    // background; freed at completion.
                    lanes.outgoing[r].push(done_at, (moved, seq.slot));
                } else {
                    stats.stall[r] += done_at - batch.clock[r];
                    batch.clock[r] = done_at;
                    if let Some(p) = kv.paged[r].as_mut() {
                        p.drop_unshared(seq.slot);
                    }
                }
            } else {
                // Recompute-based eviction (chosen, or
                // forced by a full host pool): drop the
                // KV now, rebuild the whole context by
                // re-prefill on re-admission — from the
                // shared prefix up, in paged mode.
                stats.recomputes += 1;
                seq.reset_for_recompute();
                if let Some(p) = kv.paged[r].as_mut() {
                    p.drop_unshared(seq.slot);
                }
            }
            kv.swapped[r].push(seq);
        }
    }
}
