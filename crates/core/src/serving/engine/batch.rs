//! Batch layer: resident sequences, the iteration clock, and the
//! execute/advance phases of each turn.
//!
//! This layer owns what is *on the device right now* — the per-replica
//! batches of [`ActiveSeq`] and the compute clocks — and the three
//! phases that move time: [`EngineCore::execute_iteration`] prices one
//! mixed iteration (prefill chunk + decode step) and advances the
//! clock, [`EngineCore::advance_prefill`] moves the chunked sequence
//! forward (emitting TTFT, completing single-token requests, or handing
//! a finished prefill to the migration layer), and
//! [`EngineCore::advance_decoders`] emits one token per decoder and
//! completes finished sequences. Workflow completions fan out through
//! [`WfWorld`](super::workflow_rt::WfWorld) before the paged pool frees
//! the block table.

use super::core::EngineCore;
use super::workflow_rt::{WfTag, WfWorld};
use crate::serving::kv::KvSlot;
use crate::serving::policy::SeqView;
use crate::serving::report::request_attains;
use crate::serving::ReplicaRole;
use crate::serving::{Priority, Slo};
use ianus_model::RequestShape;

/// One sequence resident in a replica's batch (prefilling or decoding)
/// or parked in its swap queue.
#[derive(Debug, Clone)]
pub(super) struct ActiveSeq {
    pub(super) shape: RequestShape,
    /// Arrival time (for sojourn accounting).
    pub(super) arrival: f64,
    /// Global arrival index (admission order; the default eviction's
    /// "youngest").
    pub(super) idx: u64,
    /// Its unloaded batch-1 service time (for `mean_service`).
    pub(super) service: f64,
    /// Index into the config's mix.
    pub(super) class: usize,
    /// Scheduling tier.
    pub(super) priority: Priority,
    /// The class SLO (for attainment scoring and deadline policies).
    pub(super) slo: Option<Slo>,
    /// Prompt tokens prefilled so far; the sequence is *prefilling*
    /// until this reaches [`prefill_target`](Self::prefill_target),
    /// then *decoding*.
    pub(super) prefilled: u64,
    /// How many tokens of context the current prefill must build:
    /// `shape.input` for the initial prompt. A recompute-based eviction
    /// resets this to the context length at eviction (prompt plus
    /// tokens generated so far) — the re-prefill rebuilds the whole
    /// context through the same chunk machinery.
    pub(super) prefill_target: u64,
    /// Tokens currently in its KV cache (prefilled prompt + generated).
    pub(super) past: u64,
    /// Decode iterations left.
    pub(super) remaining: u64,
    /// When its previous token was emitted. Inter-token samples are
    /// gaps between consecutive emissions, so a co-admitted request's
    /// prefill chunk stalling the batch — or a swap-out dwell — shows
    /// up in the resident sequences' ITL, not just in sojourn.
    pub(super) last_token: f64,
    /// Measured time-to-first-token in seconds (set when the prefill
    /// completes; every completion passes through that point first).
    pub(super) ttft: f64,
    /// This sequence's own inter-token gaps, recorded only when it has
    /// an SLO (they exist for per-request attainment scoring; the same
    /// samples always land in the global ITL pool).
    pub(super) gaps: Vec<f64>,
    /// KV evictions suffered so far (swap-outs plus recompute drops).
    pub(super) preemptions: u32,
    /// Recompute-based evictions suffered so far (subset of
    /// `preemptions`).
    pub(super) recomputes: u32,
    /// Monotone swap-out sequence number (0 until first preempted) —
    /// what FIFO re-admission orders by.
    pub(super) swap_epoch: u64,
    /// Bytes this sequence currently holds in the replica's host pool
    /// (0 while resident, and always 0 for recompute evictions).
    pub(super) hosted_bytes: u64,
    /// Set when a recompute re-prefill completed *this* iteration: the
    /// rebuild produces no new token, so the decode advance must skip
    /// the sequence once without resetting its inter-token clock (the
    /// eviction dwell belongs in its ITL, like a swap dwell does).
    pub(super) just_prefilled: bool,
    /// Prompt tokens served out of the prefix cache (paged mode only;
    /// always 0 under contiguous accounting). These blocks are shared
    /// with the cache, so evictions neither move nor drop them and
    /// recompute re-prefills restart from here, not from zero.
    pub(super) shared_tokens: u64,
    /// Whether admission hit the prefix cache (routes the TTFT sample
    /// into the cache-hit pool instead of the cold one).
    pub(super) cache_hit: bool,
    /// Tenant that issued the request (0 outside multi-tenant traffic).
    pub(super) tenant: u32,
    /// Whether the request arrived inside a burst window (per-window
    /// SLO attribution; always `false` under pure Poisson traffic).
    pub(super) in_burst: bool,
    /// Workflow identity (`None` for flat-mix sequences). Completion
    /// fans out through this to release children and decide races.
    pub(super) wf: Option<WfTag>,
    /// Slot of its block table in the replica's paged pool (unused
    /// under contiguous accounting).
    pub(super) slot: KvSlot,
}

impl ActiveSeq {
    /// Whether the context is fully (re)built (the sequence decodes).
    pub(super) fn decoding(&self) -> bool {
        self.prefilled >= self.prefill_target
    }

    /// TTFT deadline in seconds: the class SLO's `arrival + ttft`, or —
    /// for workflow nodes without one — the instance deadline.
    fn deadline(&self) -> Option<f64> {
        self.slo
            .map(|s| self.arrival + s.ttft.as_secs_f64())
            .or(self.wf.and_then(|w| w.deadline))
    }

    /// The eviction/re-admission policy view of this sequence, with
    /// the engine-supplied eviction-cost estimates filled in (NaN when
    /// the policy does not read them).
    pub(super) fn view(
        &self,
        swap_secs: f64,
        recompute_secs: f64,
        kv_blocks: u64,
        readmit_delay_secs: f64,
    ) -> SeqView {
        SeqView {
            shape: self.shape,
            arrival: self.arrival,
            arrival_idx: self.idx,
            priority: self.priority,
            deadline: self.deadline(),
            kv_tokens: self.past,
            prefilled: self.prefilled,
            generated: self.shape.generation_steps() - self.remaining,
            remaining: self.remaining,
            preemptions: self.preemptions,
            swap_epoch: self.swap_epoch,
            swap_secs,
            recompute_secs,
            kv_blocks,
            shared_tokens: self.shared_tokens,
            readmit_delay_secs,
            workflow_deadline: self.wf.and_then(|w| w.deadline),
            blocked_descendants: self.wf.map_or(0, |w| w.blocked_descendants),
        }
    }

    /// The sequence's KV footprint *right now*, as a shape whose
    /// [`RequestShape::total_tokens`] is `tokens`: the currency of the
    /// optimistic (current-length) residency checks under preemption.
    /// The tokens ride in `output` with a one-token `input` so
    /// [`check_batch`](crate::capacity::check_batch)'s activation term
    /// prices a single live decode row, not a phantom `tokens`-wide
    /// prefill.
    pub(super) fn kv_shape(tokens: u64) -> RequestShape {
        RequestShape {
            input: 1,
            output: tokens.max(1),
        }
    }
}

/// The batch layer's per-replica state: what is resident and where each
/// replica's compute clock stands.
pub(super) struct BatchState {
    /// Resident sequences per replica (order is batch position; stable
    /// ids live in [`ActiveSeq::idx`]).
    pub(super) batches: Vec<Vec<ActiveSeq>>,
    /// Per-replica compute clocks (iteration boundaries).
    pub(super) clock: Vec<f64>,
    /// Sum of executed iteration durations per replica (with
    /// [`iter_n`](Self::iter_n), the mean iteration time behind
    /// re-admission-delay estimates).
    pub(super) iter_sum: Vec<f64>,
    /// Count of executed iterations per replica.
    pub(super) iter_n: Vec<u64>,
}

impl EngineCore<'_> {
    /// The iteration's prefill share: one chunk of the oldest
    /// still-prefilling sequence (FCFS by arrival index — a
    /// stable id, because evictions reshuffle positions).
    pub(super) fn chunk_target(&self, r: usize) -> Option<u64> {
        self.batch.batches[r]
            .iter()
            .filter(|s| !s.decoding())
            .map(|s| s.idx)
            .min()
    }

    /// One mixed iteration: the prefill chunk (if any) plus one
    /// decode step over every fully-prefilled sequence. Both
    /// shares execute in the same iteration, so the chunk
    /// stretches each decoder's token gap by the *chunk* cost.
    /// Returns the chunk (batch position, tokens) and the new
    /// boundary time.
    pub(super) fn execute_iteration(
        &mut self,
        r: usize,
        chunk_target: Option<u64>,
    ) -> (Option<(usize, u64)>, f64) {
        let model = self.model;
        let chunk_size = self.chunk_size;
        let batch = &mut self.batch;
        let stats = &mut self.stats;
        let chunk: Option<(usize, u64)> = chunk_target.map(|idx| {
            let ci = batch.batches[r]
                .iter()
                .position(|s| s.idx == idx)
                .expect("prefilling sequences are never evicted");
            let tokens = chunk_size
                .min(batch.batches[r][ci].prefill_target - batch.batches[r][ci].prefilled);
            (ci, tokens)
        });
        let (decode_width, past_sum) = batch.batches[r]
            .iter()
            .filter(|s| s.decoding())
            .fold((0u32, 0u64), |(w, sum), s| (w + 1, sum + s.past));
        // Round the mean in f64: integer division floored it,
        // systematically under-pricing decode for heterogeneous batches.
        let mean_past = if decode_width > 0 {
            (past_sum as f64 / f64::from(decode_width)).round() as u64
        } else {
            0
        };
        let mut dt = 0.0f64;
        if let Some((_, tokens)) = chunk {
            dt += self.replicas.pricer(r).prefill_secs(model, tokens);
        }
        if decode_width > 0 {
            dt += self
                .replicas
                .pricer(r)
                .decode_secs(model, mean_past, decode_width);
        }
        batch.clock[r] += dt;
        stats.busy[r] += dt;
        batch.iter_sum[r] += dt;
        batch.iter_n[r] += 1;
        if let Some(p) = self.kv.paged[r].as_ref() {
            // Fragmentation sampled once per executed iteration:
            // private-tail slack over allocated block capacity.
            stats.frag_sum += p.fragmentation();
            stats.frag_samples += 1;
        }
        (chunk, batch.clock[r])
    }

    /// Advance the prefilling sequence; its first token comes out
    /// of the final chunk — unless this was a recompute
    /// re-prefill, which only rebuilds KV the sequence already
    /// produced tokens for. Returns whether a workflow fan-out
    /// appended arrivals.
    pub(super) fn advance_prefill(
        &mut self,
        r: usize,
        chunk: Option<(usize, u64)>,
        now: f64,
    ) -> bool {
        let mut wf_pushed = false;
        let Some((ci, tokens)) = chunk else {
            return wf_pushed;
        };
        let seq = &mut self.batch.batches[r][ci];
        seq.prefilled += tokens;
        seq.past = seq.prefilled;
        if let Some(p) = self.kv.paged[r].as_mut() {
            p.grow(seq.slot, seq.past);
            if seq.decoding() {
                // The prompt's full prefix blocks are now
                // built: publish them to the class's cache
                // entry (first completer wins; later ones
                // find the entry already present).
                if let Some(key) = self.kv.class_keys[seq.class] {
                    let prefix = self.mix[seq.class]
                        .prefix_tokens
                        .min(seq.shape.input.saturating_sub(1));
                    if let Some(shared) = p.register_prefix(seq.slot, key, prefix) {
                        seq.shared_tokens = seq.shared_tokens.max(shared);
                    }
                }
            }
        }
        if seq.decoding() {
            if seq.recomputes == 0 {
                seq.ttft = now - seq.arrival;
                let ttft = seq.ttft;
                let cache_hit = seq.cache_hit;
                self.stats.ttfts.push(ttft);
                if cache_hit {
                    self.stats.ttft_hits.push(ttft);
                } else {
                    self.stats.ttft_colds.push(ttft);
                }
                let seq = &mut self.batch.batches[r][ci];
                seq.last_token = now;
                if seq.remaining == 0 {
                    // Single-token request: the prefill is the
                    // request.
                    let mut seq = self.batch.batches[r].remove(ci);
                    if let Some(tag) = seq.wf {
                        // Fan out before `complete` frees the
                        // block table: children inherit this
                        // node's KV as a shared prefix.
                        wf_pushed |= WfWorld {
                            ctx: &self.wf.ctx,
                            runs: &mut self.wf.runs,
                            arrivals: &mut self.wait.arrivals,
                            untaken: &mut self.wait.untaken,
                            paged: &mut self.kv.paged,
                            key_homes: &mut self.wf.key_homes,
                            inheritance: self.wf.inheritance,
                        }
                        .on_node_complete(
                            tag,
                            seq.slot,
                            r,
                            now,
                            &mut self.stats,
                            &mut self.done,
                        );
                    }
                    if let Some(p) = self.kv.paged[r].as_mut() {
                        p.complete(seq.slot);
                    }
                    let attained = request_attains(seq.slo, seq.ttft, &mut seq.gaps);
                    self.stats.complete(
                        r,
                        seq.class,
                        seq.arrival,
                        seq.service,
                        now,
                        seq.preemptions,
                        seq.recomputes,
                        attained,
                        seq.tenant,
                        seq.in_burst,
                    );
                    self.done += 1;
                } else if self.roles[r] == ReplicaRole::PrefillOnly
                    && !self.mig.decode_pool.is_empty()
                {
                    let seq = self.batch.batches[r].remove(ci);
                    self.migrate_after_prefill(r, seq, now);
                }
            } else {
                // No token emitted: skip this sequence's decode
                // advance once, keeping `last_token` so the
                // whole eviction dwell lands in its next ITL
                // gap (as a swap dwell would).
                seq.just_prefilled = true;
            }
        }
        wf_pushed
    }

    /// Advance the decoders (skipping a sequence whose prefill
    /// completed *this* iteration: its first decode token comes
    /// next iteration). Returns whether a workflow fan-out
    /// appended arrivals.
    pub(super) fn advance_decoders(&mut self, r: usize, now: f64) -> bool {
        let mut wf_pushed = false;
        let mut i = 0;
        while i < self.batch.batches[r].len() {
            let seq = &mut self.batch.batches[r][i];
            if std::mem::take(&mut seq.just_prefilled) || !seq.decoding() || seq.last_token >= now {
                i += 1;
                continue;
            }
            // Gap since the sequence's previous token — includes
            // co-scheduled prefill chunks and swap traffic that
            // stalled the batch, not just this iteration's decode.
            let gap = now - seq.last_token;
            let in_burst = seq.in_burst;
            if seq.slo.is_some() {
                seq.gaps.push(gap);
            }
            seq.last_token = now;
            seq.past += 1;
            seq.remaining -= 1;
            let (slot, finished) = (seq.slot, seq.remaining == 0);
            let wf_tag = seq.wf;
            self.stats.itls.push(gap);
            if in_burst {
                self.stats.burst_itls.push(gap);
            }
            if finished {
                if let Some(tag) = wf_tag {
                    // Fan out before `complete` frees the block
                    // table: children inherit this node's KV as
                    // a shared prefix.
                    wf_pushed |= WfWorld {
                        ctx: &self.wf.ctx,
                        runs: &mut self.wf.runs,
                        arrivals: &mut self.wait.arrivals,
                        untaken: &mut self.wait.untaken,
                        paged: &mut self.kv.paged,
                        key_homes: &mut self.wf.key_homes,
                        inheritance: self.wf.inheritance,
                    }
                    .on_node_complete(
                        tag,
                        slot,
                        r,
                        now,
                        &mut self.stats,
                        &mut self.done,
                    );
                }
            }
            if let Some(p) = self.kv.paged[r].as_mut() {
                if finished {
                    p.complete(slot);
                } else {
                    p.grow(slot, self.batch.batches[r][i].past);
                }
            }
            if finished {
                let mut seq = self.batch.batches[r].remove(i);
                let attained = request_attains(seq.slo, seq.ttft, &mut seq.gaps);
                self.stats.complete(
                    r,
                    seq.class,
                    seq.arrival,
                    seq.service,
                    now,
                    seq.preemptions,
                    seq.recomputes,
                    attained,
                    seq.tenant,
                    seq.in_burst,
                );
                self.done += 1;
            } else {
                i += 1;
            }
        }
        wf_pushed
    }
}
