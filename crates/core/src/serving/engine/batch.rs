//! Batch layer: resident sequences, the iteration clock, and the
//! execute/advance phases of each turn.
//!
//! This layer owns what is *on the device right now* — the per-replica
//! [`Batch`]es of [`ActiveSeq`] and the compute clocks — and the three
//! phases that move time: [`EngineCore::execute_iteration`] prices one
//! mixed iteration (prefill chunk + decode step) and advances the
//! clock, [`EngineCore::advance_prefill`] moves the chunked sequence
//! forward (emitting TTFT, completing single-token requests, or handing
//! a finished prefill to the migration layer), and
//! [`EngineCore::advance_decoders`] emits one token per decoder and
//! completes finished sequences. A completing workflow node fans out
//! ([`EngineCore::on_node_complete`]) before the paged pool frees its
//! block table.
//!
//! A [`Batch`] keeps running counters over its sequences — decode
//! width, past-length sum, next-step block growth, and the prefilling
//! set — and advances its steady decoders by a decode epoch
//! ([`DecodeEpoch`]), so a decode step touches only the decoders whose
//! step is not the steady one: no per-turn phase walks the batch.

use super::arrivals::Arrival;
use super::core::EngineCore;
use super::decode::{position, unlist, DecodeEpoch};
use crate::serving::kv::{KvSlot, PagedKv};
use crate::serving::policy::SeqView;
use crate::serving::report::{request_attains, Itls, RunSample};
use crate::serving::ReplicaRole;
use ianus_model::RequestShape;

/// One sequence resident in a replica's batch (prefilling or decoding)
/// or parked in its swap queue.
#[derive(Debug, Clone)]
pub(super) struct ActiveSeq {
    /// The request it serves, as it arrived: shape, arrival time and
    /// index (admission order; the default eviction's "youngest"),
    /// class, tier, SLO, tenant, burst flag and workflow identity.
    pub(super) req: Arrival,
    /// Its unloaded batch-1 service time (for `mean_service`).
    pub(super) service: f64,
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
    pub(super) gaps: RunSample,
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
    /// Slot of its block table in the replica's paged pool (unused
    /// under contiguous accounting).
    pub(super) slot: KvSlot,
    /// Its term of [`Batch::decode_growth`] while it decodes on the
    /// per-step path (see [`ActiveSeq::growth_term`]); 0 while steady,
    /// stale once it leaves the batch.
    pub(super) growth: u64,
    /// `Some(e)` while the sequence decodes steadily (see
    /// [`DecodeEpoch`]): its `past`, `remaining` and `last_token` are as
    /// of its batch's decode epoch `e` and settle on read
    /// ([`Batch::settled`]). `None` on the per-step path and off the
    /// batch.
    pub(super) steady: Option<u64>,
}

impl ActiveSeq {
    /// `req` as admitted at `now` into `slot`, with its first `shared`
    /// prompt tokens mapped from the prefix cache and unloaded batch-1
    /// service time `service`: it prefills the rest of its prompt next.
    pub(super) fn admitted(
        req: Arrival,
        service: f64,
        slot: KvSlot,
        shared: u64,
        now: f64,
    ) -> Self {
        ActiveSeq {
            req,
            service,
            prefilled: shared,
            prefill_target: req.shape.input,
            past: shared,
            remaining: req.shape.generation_steps(),
            last_token: now,
            ttft: 0.0,
            gaps: RunSample::default(),
            preemptions: 0,
            recomputes: 0,
            swap_epoch: 0,
            hosted_bytes: 0,
            just_prefilled: false,
            shared_tokens: shared,
            cache_hit: shared > 0,
            slot,
            growth: 0,
            steady: None,
        }
    }

    /// Whether the context is fully (re)built (the sequence decodes).
    pub(super) fn decoding(&self) -> bool {
        self.prefilled >= self.prefill_target
    }

    /// The eviction/re-admission policy view of this sequence, its
    /// cost fields NaN until the engine prices them.
    pub(super) fn view(&self) -> SeqView {
        SeqView {
            arrival_idx: self.req.idx,
            priority: self.req.priority,
            deadline: self.req.ttft_deadline(),
            kv_tokens: self.past,
            generated: self.req.shape.generation_steps() - self.remaining,
            swap_epoch: self.swap_epoch,
            swap_secs: f64::NAN,
            recompute_secs: f64::NAN,
            shared_tokens: self.shared_tokens,
            readmit_delay_secs: f64::NAN,
        }
    }

    /// Its context after the next decode step: one more token for a
    /// decoder with tokens left, `past` otherwise.
    pub(super) fn next_past(&self) -> u64 {
        self.past + u64::from(self.decoding() && self.remaining > 0)
    }

    /// Context tokens outside the shared prefix: what an eviction moves
    /// or drops and a migration carries (the whole context under
    /// contiguous accounting, which shares nothing).
    pub(super) fn unshared(&self) -> u64 {
        self.past - self.shared_tokens
    }

    /// Blocks its table must add for the next decode step (see
    /// [`next_past`](Self::next_past); nothing under contiguous
    /// accounting).
    pub(super) fn growth_term(&self, paged: Option<&PagedKv>) -> u64 {
        match paged {
            Some(p) if self.next_past() > self.past => p.growth(self.slot, self.next_past()),
            _ => 0,
        }
    }

    /// Recompute-based eviction: the KV is dropped, and the re-prefill
    /// rebuilds the whole context (from the shared prefix up, in paged
    /// mode) through the chunk machinery. Applies to a sequence already
    /// out of its batch.
    pub(super) fn reset_for_recompute(&mut self) {
        self.recomputes += 1;
        self.prefill_target = self.past;
        self.prefilled = self.shared_tokens;
        self.past = self.shared_tokens;
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

/// One replica's resident sequences (order is batch position; stable
/// ids are their requests' [`Arrival::idx`]) and the running counters
/// each turn reads instead of walking them. Every change to a counted
/// field — decode state, `past`, `remaining`, the KV table's blocks —
/// goes through a `Batch` method, which keeps the counters exact (they
/// are integer sums). Steady decoders' per-token fields lag until read
/// through [`settled`](Self::settled).
#[derive(Default)]
pub(super) struct Batch {
    seqs: Vec<ActiveSeq>,
    /// Each resident's batch order (see [`position`]), in step with
    /// `seqs`.
    orders: Vec<u64>,
    /// The next push's batch order.
    next_order: u64,
    /// `idx` of every prefilling sequence (few prefill at once).
    prefilling: Vec<u64>,
    /// The decoders: counters, per-step list and steady set.
    decode: DecodeEpoch,
}

impl Batch {
    /// The resident sequences, steady decoders unsettled: fields other
    /// than `past`, `remaining`, `last_token` and `growth` are current.
    pub(super) fn seqs(&self) -> &[ActiveSeq] {
        &self.seqs
    }

    /// The resident sequences with every field current: steady
    /// decoders settle first (O(batch); for the paths that read
    /// per-token fields of the whole batch).
    pub(super) fn settled(&mut self) -> &[ActiveSeq] {
        for s in &mut self.seqs {
            self.decode.settle(s);
        }
        &self.seqs
    }

    pub(super) fn len(&self) -> usize {
        self.seqs.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Decoding sequences (the decode step's batch width).
    pub(super) fn decode_width(&self) -> u32 {
        self.decode.width()
    }

    /// Sum of `past` over decoding sequences.
    pub(super) fn past_sum(&self) -> u64 {
        self.decode.past_sum()
    }

    /// Blocks the next decode step must allocate:
    /// `PagedKv::growth(slot, past + 1)` summed over decoders with
    /// tokens left (0 under contiguous accounting). Every other
    /// resident's table already holds its context.
    pub(super) fn decode_growth(&self) -> u64 {
        self.decode.growth()
    }

    /// The iteration's prefill share: the oldest still-prefilling
    /// sequence (FCFS by arrival index — a stable id, because evictions
    /// reshuffle positions).
    pub(super) fn chunk_target(&self) -> Option<u64> {
        self.prefilling.iter().copied().min()
    }

    /// Batch position of the sequence with arrival index `idx`.
    /// Prefilling sequences are pushed late, so the search runs from
    /// the back.
    pub(super) fn position(&self, idx: u64) -> Option<usize> {
        self.seqs.iter().rposition(|s| s.req.idx == idx)
    }

    /// Adds `seq` at the back, counting it against `paged`, the
    /// replica's pool, whose table for it must already hold its
    /// context. A decoder starts on the per-step path.
    pub(super) fn push(&mut self, mut seq: ActiveSeq, paged: Option<&PagedKv>) {
        let order = self.next_order;
        self.next_order += 1;
        if seq.decoding() {
            self.decode.add(&mut seq, order, paged);
        } else {
            self.prefilling.push(seq.req.idx);
            seq.growth = 0;
        }
        self.seqs.push(seq);
        self.orders.push(order);
    }

    /// Removes and returns the sequence at position `i`, settled, with
    /// its table in `paged` settled too.
    pub(super) fn remove(&mut self, i: usize, paged: Option<&mut PagedKv>) -> ActiveSeq {
        let mut seq = self.seqs.remove(i);
        let order = self.orders.remove(i);
        if seq.decoding() {
            self.decode.remove(&mut seq, order, paged);
        } else {
            unlist(&mut self.prefilling, seq.req.idx);
        }
        seq
    }

    /// Prefills `tokens` more of the sequence at position `i`, growing
    /// its table in `paged`; returns it. Changes to the returned
    /// sequence must leave its counted fields alone.
    pub(super) fn prefill_chunk(
        &mut self,
        i: usize,
        tokens: u64,
        paged: Option<&mut PagedKv>,
    ) -> &mut ActiveSeq {
        let seq = &mut self.seqs[i];
        seq.prefilled += tokens;
        seq.past = seq.prefilled;
        let paged = paged.map(|p| {
            p.grow(seq.slot, seq.past);
            &*p
        });
        if seq.decoding() {
            unlist(&mut self.prefilling, seq.req.idx);
            self.decode.add(seq, self.orders[i], paged);
        }
        seq
    }

    /// Starts the decode step at `now` (see [`DecodeEpoch::begin`]):
    /// the steady decoders advance in aggregate, their shared gap goes
    /// to `itls` as one run, and the step's other decoders wait for
    /// [`decode_until_finish`](Self::decode_until_finish).
    pub(super) fn begin_decode(&mut self, now: f64, paged: Option<&mut PagedKv>, itls: &mut Itls) {
        self.decode.begin(now, paged, itls);
    }

    /// Continues the decode step at `now` over its touched decoders, in
    /// batch order ([`DecodeEpoch::advance`]): gaps go to `itls`, tables
    /// grow in `paged`. Stops at the first sequence that emits its last
    /// token and returns its position — it is advanced but still
    /// resident and counted, for the caller to [`remove`](Self::remove)
    /// — or `None` once the step's decoders are done.
    pub(super) fn decode_until_finish(
        &mut self,
        now: f64,
        mut paged: Option<&mut PagedKv>,
        itls: &mut Itls,
    ) -> Option<usize> {
        while let Some(order) = self.decode.next(paged.as_deref_mut()) {
            let i = position(&self.orders, order);
            if self
                .decode
                .advance(&mut self.seqs[i], order, now, paged.as_deref_mut(), itls)
            {
                return Some(i);
            }
        }
        None
    }

    /// Ends the decode step at `now`: per-step decoders that emitted at
    /// `now` and keep no gap log turn steady.
    pub(super) fn end_decode(&mut self, now: f64, paged: Option<&PagedKv>) {
        self.decode.end(&mut self.seqs, &self.orders, now, paged);
    }

    /// Asserts the running counters equal a fold recomputed from the
    /// sequences (steady decoders settled on copies) and `paged`, the
    /// replica's pool.
    pub(super) fn assert_counters(&self, paged: Option<&PagedKv>) {
        let mut prefilling = Vec::new();
        for s in self.seqs.iter().filter(|s| !s.decoding()) {
            prefilling.push(s.req.idx);
            // A sequence that does not decode next step holds its
            // whole context already.
            if let Some(p) = paged {
                assert_eq!(
                    p.growth(s.slot, s.past),
                    0,
                    "seq {} short of its context",
                    s.req.idx
                );
            }
        }
        let mut listed = self.prefilling.clone();
        listed.sort_unstable();
        prefilling.sort_unstable();
        assert_eq!(
            listed, prefilling,
            "prefilling list drifted from its sequences"
        );
        assert_eq!(self.orders.len(), self.seqs.len());
        assert!(self.orders.windows(2).all(|w| w[0] < w[1]));
        self.decode.assert_counters(&self.seqs, &self.orders, paged);
    }
}

/// The batch layer's per-replica state: what is resident and where each
/// replica's compute clock stands.
pub(super) struct BatchState {
    /// Resident sequences per replica.
    pub(super) batches: Vec<Batch>,
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
        let chunk_size = self.chunk_size;
        let batch = &mut self.batch;
        let stats = &mut self.stats;
        let resident = &batch.batches[r];
        let chunk: Option<(usize, u64)> = chunk_target.map(|idx| {
            let ci = resident
                .position(idx)
                .expect("prefilling sequences are never evicted");
            let seq = &resident.seqs[ci];
            (ci, chunk_size.min(seq.prefill_target - seq.prefilled))
        });
        let (decode_width, past_sum) = (resident.decode_width(), resident.past_sum());
        // The mean past rounded half away from zero (integer division
        // alone floored it, systematically under-pricing decode for
        // heterogeneous batches). In integers this is exactly
        // `(past_sum as f64 / width as f64).round()` while `past_sum <
        // 2^52`: a quotient that is not a half lies at least
        // `1/(2·width)` from one, further than the f64 quotient's
        // rounding error, and a half rounds up in both — without a libm
        // `round` call per iteration.
        let mean_past = if decode_width > 0 {
            let width = u64::from(decode_width);
            (2 * past_sum + width) / (2 * width)
        } else {
            0
        };
        debug_assert_eq!(
            mean_past,
            (past_sum as f64 / f64::from(decode_width.max(1))).round() as u64
        );
        let mut dt = 0.0f64;
        if let Some((_, tokens)) = chunk {
            dt += self.replicas.pricer(r).prefill_secs(tokens);
        }
        if decode_width > 0 {
            dt += self.replicas.pricer(r).decode_secs(mean_past, decode_width);
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
    /// produced tokens for.
    pub(super) fn advance_prefill(&mut self, r: usize, chunk: Option<(usize, u64)>, now: f64) {
        let Some((ci, tokens)) = chunk else {
            return;
        };
        let paged = self.kv.paged[r].as_mut();
        let seq = self.batch.batches[r].prefill_chunk(ci, tokens, paged);
        if !seq.decoding() {
            return;
        }
        // The prompt's full prefix blocks are now built: publish them.
        self.kv.publish_prefix(r, seq, self.mix);
        if seq.recomputes > 0 {
            // No token emitted: skip this sequence's decode advance
            // once, keeping `last_token` so the whole eviction dwell
            // lands in its next ITL gap (as a swap dwell would).
            seq.just_prefilled = true;
            return;
        }
        seq.ttft = now - seq.req.at;
        seq.last_token = now;
        let (ttft, cache_hit, remaining) = (seq.ttft, seq.cache_hit, seq.remaining);
        if cache_hit {
            self.stats.ttft_hits.push_n(ttft, 1);
        } else {
            self.stats.ttft_colds.push_n(ttft, 1);
        }
        if remaining == 0 {
            // Single-token request: the prefill is the request.
            let seq = self.batch.batches[r].remove(ci, self.kv.paged[r].as_mut());
            self.complete(r, seq, now);
        } else if self.roles[r] == ReplicaRole::PrefillOnly && !self.mig.decode_pool.is_empty() {
            let seq = self.batch.batches[r].remove(ci, self.kv.paged[r].as_mut());
            self.migrate_after_prefill(r, seq, now);
        }
    }

    /// Advance the decoders by one decode step: the steady set moves
    /// in aggregate, and the step's touched decoders advance in batch
    /// order, leaving the pass only to complete a sequence that emitted
    /// its last token.
    pub(super) fn advance_decoders(&mut self, r: usize, now: f64) {
        self.batch.batches[r].begin_decode(now, self.kv.paged[r].as_mut(), &mut self.stats.itls);
        while let Some(i) = self.batch.batches[r].decode_until_finish(
            now,
            self.kv.paged[r].as_mut(),
            &mut self.stats.itls,
        ) {
            let seq = self.batch.batches[r].remove(i, self.kv.paged[r].as_mut());
            self.complete(r, seq, now);
        }
        self.batch.batches[r].end_decode(now, self.kv.paged[r].as_ref());
    }

    /// Settles `seq`, which just emitted its last token on replica `r`
    /// and has left the batch: a workflow node fans out, the paged pool
    /// frees its table, and the run records the completion.
    fn complete(&mut self, r: usize, mut seq: ActiveSeq, now: f64) {
        if seq.req.wf.is_some() {
            // Fan out before the pool frees the block table: children
            // inherit this node's KV as a shared prefix.
            self.on_node_complete(&seq, r, now);
        }
        if let Some(p) = self.kv.paged[r].as_mut() {
            p.complete(seq.slot);
        }
        let attained = request_attains(seq.req.slo, seq.ttft, &mut seq.gaps);
        let record = seq
            .req
            .completion(now, r, seq.preemptions, seq.recomputes, attained);
        self.stats.complete(record, now, seq.service);
    }
}
