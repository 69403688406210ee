//! Decode layer: each batch's decode epoch, which advances its steady
//! decoders in aggregate.
//!
//! A decoder is *steady* once its next step is fully determined: it
//! decodes, emitted its last token at the replica's previous decode
//! step, and keeps no per-sequence gap log (it has no SLO). Its next
//! step adds one token of context, takes one token off what is left,
//! and waits the same gap as every other steady decoder; its table
//! needs a new KV block only every `block_tokens`-th token. So a
//! [`DecodeEpoch`] counts the batch's decode steps and keeps a steady
//! decoder's `past`, `remaining` and `last_token` implied by the epoch
//! it joined at and the values it had then. One decode step costs O(1)
//! plus the few sequences it must touch:
//!
//! * the past-length sum, the run's ITL samples (one run of the shared
//!   gap, written straight into the owned [`Itls`] pair) and the paged
//!   pool's slack ([`PagedKv::fill_tails`]) move in aggregate;
//! * a steady decoder whose next token crosses into a new block sits in
//!   the bucket of the epochs `≡ k (mod block_tokens)` at which its
//!   table fills, so a step touches `1/block_tokens` of them — and only
//!   their tables: a bucket entry implies the decoder's past, so the
//!   step opens its block ([`PagedKv::open_block`]) without reading the
//!   sequence;
//! * a steady decoder's last token comes off an epoch-keyed calendar;
//! * every other decoder — a first token out of this iteration's
//!   prefill, a finished recompute re-prefill (`just_prefilled`), a
//!   swap-in, a migrant, or a sequence with an SLO gap log — takes the
//!   per-step path and joins the steady set once it emitted at the
//!   step's boundary.
//!
//! The touched sequences are processed in batch order, so completions
//! (and the block allocations around them) happen in the order a walk
//! over the batch would produce. Reads of a steady decoder's per-token
//! fields go through [`DecodeEpoch::settle`] (the batch's
//! [`settled`](super::batch::Batch::settled) view), and a steady
//! decoder leaving its batch settles its table too.

use super::batch::ActiveSeq;
use crate::serving::kv::{KvSlot, PagedKv};
use crate::serving::report::Itls;
use std::collections::BTreeSet;

/// The decoders of one batch: the running counters every turn reads
/// (decode width, past-length sum, next-step block growth), the
/// per-step decoders, and the steady set with its epoch, block-crossing
/// buckets and finish calendar. Decoders are named by their batch-order
/// key (see [`position`]).
#[derive(Default)]
pub(super) struct DecodeEpoch {
    /// Decoding sequences.
    width: u32,
    /// Sum of `past` over decoding sequences, steady ones settled.
    past_sum: u64,
    /// Blocks the per-step decoders' next step must allocate: the sum
    /// of their cached [`ActiveSeq::growth`].
    growth: u64,
    /// Per-step decoders.
    eager: Vec<u64>,
    /// Decode steps the steady set has taken.
    epoch: u64,
    /// When the steady set last emitted.
    at: f64,
    /// Steady decoders, and how many of them arrived in a burst window.
    steady: u64,
    steady_burst: u64,
    /// `crossing[k]`: the steady decoders whose tables fill at the
    /// epochs `≡ k (mod block_tokens)` — their step at such an epoch
    /// allocates a block. Sized on the first steady decoder of a paged
    /// batch; empty under contiguous accounting.
    crossing: Vec<Vec<Crosser>>,
    /// `epoch % crossing.len()`, kept without dividing (0 while
    /// `crossing` is empty).
    bucket: usize,
    /// `(epoch of its last token, order)` of every steady decoder.
    finish: BTreeSet<(u64, u64)>,
    /// The calendar's first epoch.
    next_finish: Option<u64>,
    /// The current step's touched decoders, in batch order, and how
    /// many of them the step has processed.
    touched: Vec<Touch>,
    cursor: usize,
}

/// A steady decoder in its crossing bucket: its batch order, its
/// table's slot, and `past − epoch` (wrapping), which gives its past at
/// every later epoch while it stays steady — so its block crossings
/// never read the sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Crosser {
    order: u64,
    slot: KvSlot,
    base: u64,
}

/// A decoder the current step touches.
#[derive(Clone, Copy)]
enum Touch {
    /// Through its sequence, by batch order: a per-step decoder, or a
    /// steady one emitting its last token.
    Seq(u64),
    /// A steady decoder whose table fills: a block opens in its table
    /// alone.
    Cross(Crosser),
}

impl Touch {
    fn order(self) -> u64 {
        match self {
            Touch::Seq(order) => order,
            Touch::Cross(c) => c.order,
        }
    }
}

impl DecodeEpoch {
    /// Decoding sequences (the decode step's batch width).
    pub(super) fn width(&self) -> u32 {
        self.width
    }

    /// Sum of `past` over decoding sequences.
    pub(super) fn past_sum(&self) -> u64 {
        self.past_sum
    }

    /// Blocks the next decode step must allocate: the per-step
    /// decoders' cached terms plus the steady decoders whose tables
    /// fill at the next epoch.
    pub(super) fn growth(&self) -> u64 {
        let next = self.crossing.get(self.bucket + 1).or(self.crossing.first());
        self.growth + next.map_or(0, |b| b.len() as u64)
    }

    /// Counts `s`, now decoding at batch order `order`, as a per-step
    /// decoder.
    pub(super) fn add(&mut self, s: &mut ActiveSeq, order: u64, paged: Option<&PagedKv>) {
        self.width += 1;
        self.past_sum += s.past;
        s.growth = s.growth_term(paged);
        self.growth += s.growth;
        self.eager.push(order);
    }

    /// Uncounts the decoder `s` at batch order `order`, which leaves its
    /// batch: a steady one settles, and so does its table in `paged`.
    pub(super) fn remove(&mut self, s: &mut ActiveSeq, order: u64, paged: Option<&mut PagedKv>) {
        if s.steady.is_some() {
            self.unlink(s, order, paged.as_deref());
            self.settle(s);
            s.steady = None;
            if let Some(p) = paged {
                p.settle(s.slot, s.past);
            }
        } else {
            unlist(&mut self.eager, order);
            self.growth -= s.growth;
        }
        self.width -= 1;
        self.past_sum -= s.past;
    }

    /// Brings a steady decoder's per-token fields up to the epoch (a
    /// no-op on any other sequence). Its table is not touched.
    pub(super) fn settle(&self, s: &mut ActiveSeq) {
        if let Some(since) = s.steady {
            let steps = self.epoch - since;
            if steps > 0 {
                s.past += steps;
                s.remaining -= steps;
                s.last_token = self.at;
                s.steady = Some(self.epoch);
            }
        }
    }

    /// Starts the decode step at `now`. The steady set advances in
    /// aggregate — unless it already emitted at `now` — and the step's
    /// touched decoders (per-step ones, steady ones crossing into a new
    /// block, and steady ones emitting their last token) are queued for
    /// [`next`](Self::next) in batch order.
    pub(super) fn begin(&mut self, now: f64, paged: Option<&mut PagedKv>, itls: &mut Itls) {
        debug_assert_eq!(self.cursor, self.touched.len(), "previous step unfinished");
        debug_assert!(now >= self.at, "decode steps go back in time");
        self.touched.clear();
        self.cursor = 0;
        if now > self.at {
            let gap = now - self.at;
            self.epoch += 1;
            self.bucket += 1;
            if self.bucket >= self.crossing.len() {
                self.bucket = 0;
            }
            self.at = now;
            if self.steady > 0 {
                itls.push_n(gap, self.steady, self.steady_burst);
                self.past_sum += self.steady;
                if let Some(bucket) = self.crossing.get(self.bucket) {
                    self.touched.extend(bucket.iter().map(|&c| Touch::Cross(c)));
                }
                if self.next_finish == Some(self.epoch) {
                    // A last token takes no block, so a finisher that
                    // also crosses is touched as a finisher only.
                    let last = (self.epoch + 1, 0);
                    let finishing = self
                        .finish
                        .range(..last)
                        .map(|&(_, order)| Touch::Seq(order));
                    self.touched.extend(finishing);
                    self.touched
                        .sort_unstable_by_key(|&t| (t.order(), matches!(t, Touch::Cross(_))));
                    self.touched.dedup_by_key(|t| t.order());
                }
                if let Some(p) = paged {
                    // Every other steady decoder's token fits its tail
                    // block.
                    p.fill_tails(self.steady - self.touched.len() as u64);
                }
            }
        }
        self.touched
            .extend(self.eager.iter().map(|&order| Touch::Seq(order)));
        self.touched.sort_unstable_by_key(|&t| t.order());
    }

    /// Continues the step in batch order: opens a block in `paged` for
    /// each steady decoder whose table fills, up to the next touched
    /// decoder that needs its sequence ([`advance`](Self::advance)),
    /// whose batch order it returns.
    pub(super) fn next(&mut self, mut paged: Option<&mut PagedKv>) -> Option<u64> {
        while let Some(&touch) = self.touched.get(self.cursor) {
            self.cursor += 1;
            let Touch::Cross(c) = touch else {
                return Some(touch.order());
            };
            let p = paged
                .as_deref_mut()
                .expect("only paged batches cross blocks");
            p.open_block(c.slot, c.base.wrapping_add(self.epoch));
        }
        None
    }

    /// Advances the touched decoder `s` (at batch order `order`) by the
    /// step at `now`; returns whether it emitted its last token (it is
    /// then a per-step decoder, still resident and counted, for the
    /// caller to remove).
    ///
    /// A steady decoder touched here emits its last token; it already
    /// advanced with the set, so it settles, and its table keeps the
    /// context before that token, as a per-step decoder's table would
    /// (and takes no block). A per-step decoder emits one token unless
    /// its recompute re-prefill completed this iteration
    /// (`just_prefilled`, cleared here) or it already emitted at `now`
    /// (its first token came out of this iteration's prefill); its gap
    /// goes to `itls` (and its own log, under an SLO) and its table
    /// grows in `paged`.
    pub(super) fn advance(
        &mut self,
        s: &mut ActiveSeq,
        order: u64,
        now: f64,
        paged: Option<&mut PagedKv>,
        itls: &mut Itls,
    ) -> bool {
        if let Some(since) = s.steady {
            debug_assert_eq!(
                s.remaining,
                self.epoch - since,
                "steady decoder off its calendar"
            );
            self.unlink(s, order, paged.as_deref());
            self.settle(s);
            s.steady = None;
            self.eager.push(order);
            if let Some(p) = paged {
                p.settle(s.slot, s.past - 1);
            }
            return true;
        }
        if std::mem::take(&mut s.just_prefilled) || s.last_token >= now {
            return false;
        }
        // Gap since the sequence's previous token — includes
        // co-scheduled prefill chunks and swap traffic that stalled the
        // batch, not just this iteration's decode.
        let gap = now - s.last_token;
        itls.push_n(gap, 1, u64::from(s.req.in_burst));
        if s.req.slo.is_some() {
            s.gaps.push_n(gap, 1);
        }
        s.last_token = now;
        s.past += 1;
        s.remaining -= 1;
        self.past_sum += 1;
        if s.remaining == 0 {
            return true;
        }
        if let Some(p) = paged {
            let term = p.grow_next(s.slot, s.past);
            self.growth = self.growth - s.growth + term;
            s.growth = term;
        }
        false
    }

    /// Ends the step at `now`: every per-step decoder in `seqs` (the
    /// batch, whose batch orders are `orders`) that emitted at `now`, has
    /// tokens left and keeps no gap log joins the steady set.
    pub(super) fn end(
        &mut self,
        seqs: &mut [ActiveSeq],
        orders: &[u64],
        now: f64,
        paged: Option<&PagedKv>,
    ) {
        debug_assert_eq!(self.cursor, self.touched.len(), "step ended early");
        debug_assert_eq!(self.at, now);
        let mut j = 0;
        while j < self.eager.len() {
            let order = self.eager[j];
            let s = &mut seqs[position(orders, order)];
            if s.last_token == now && s.req.slo.is_none() && s.remaining > 0 {
                self.growth -= std::mem::take(&mut s.growth);
                s.steady = Some(self.epoch);
                self.link(s, order, paged);
                self.eager.swap_remove(j);
            } else {
                j += 1;
            }
        }
    }

    /// Adds the settled steady decoder `s` to the counts, the calendar
    /// and its crossing bucket.
    fn link(&mut self, s: &ActiveSeq, order: u64, paged: Option<&PagedKv>) {
        self.steady += 1;
        self.steady_burst += u64::from(s.req.in_burst);
        let finish = self.epoch + s.remaining;
        self.finish.insert((finish, order));
        self.next_finish = Some(self.next_finish.map_or(finish, |e| e.min(finish)));
        if let Some(p) = paged {
            if self.crossing.is_empty() {
                self.crossing = vec![Vec::new(); p.block_tokens() as usize];
                self.bucket = (self.epoch % p.block_tokens()) as usize;
            }
            let k = crossing_key(s, p);
            self.crossing[k].push(Crosser {
                order,
                slot: s.slot,
                base: s.past.wrapping_sub(self.epoch),
            });
        }
    }

    /// Takes the steady decoder `s` (not yet settled) out of the counts,
    /// the calendar and its crossing bucket.
    fn unlink(&mut self, s: &ActiveSeq, order: u64, paged: Option<&PagedKv>) {
        let since = s.steady.expect("steady");
        self.steady -= 1;
        self.steady_burst -= u64::from(s.req.in_burst);
        let listed = self.finish.remove(&(since + s.remaining, order));
        debug_assert!(listed, "steady decoder off the calendar");
        self.next_finish = self.finish.first().map(|&(e, _)| e);
        if let Some(p) = paged {
            let bucket = &mut self.crossing[crossing_key(s, p)];
            let j = bucket
                .iter()
                .position(|c| c.order == order)
                .expect("steady decoder in its bucket");
            bucket.swap_remove(j);
        }
    }

    /// Asserts the counters, the per-step list, the calendar and the
    /// buckets against a fold over `seqs` (the batch, whose batch orders
    /// are `orders`) and `paged`, the replica's pool, with steady
    /// decoders settled on copies.
    pub(super) fn assert_counters(
        &self,
        seqs: &[ActiveSeq],
        orders: &[u64],
        paged: Option<&PagedKv>,
    ) {
        let (mut width, mut past_sum, mut growth, mut steady, mut burst) = (0u32, 0, 0, 0, 0);
        let (mut eager, mut lag) = (Vec::new(), 0);
        for (s, &order) in seqs.iter().zip(orders).filter(|(s, _)| s.decoding()) {
            let mut v = s.clone();
            self.settle(&mut v);
            width += 1;
            past_sum += v.past;
            growth += v.growth_term(paged);
            if let Some(since) = s.steady {
                steady += 1;
                burst += u64::from(s.req.in_burst);
                assert!(s.req.slo.is_none() && s.growth == 0 && v.last_token == self.at);
                assert!(self.finish.contains(&(since + s.remaining, order)));
                if let Some(p) = paged {
                    let crosser = Crosser {
                        order,
                        slot: s.slot,
                        base: v.past.wrapping_sub(self.epoch),
                    };
                    assert!(self.crossing[crossing_key(s, p)].contains(&crosser));
                    lag += v.past - p.tokens_of(s.slot);
                }
            } else {
                assert_eq!(
                    s.growth,
                    s.growth_term(paged),
                    "stale growth of seq {}",
                    s.req.idx
                );
                eager.push(order);
            }
        }
        let mut listed = self.eager.clone();
        listed.sort_unstable();
        let buckets: usize = self.crossing.iter().map(Vec::len).sum();
        assert_eq!(
            (self.width, self.past_sum, self.growth(), listed),
            (width, past_sum, growth, eager),
            "decode counters drifted from their sequences"
        );
        assert_eq!(
            (self.steady, self.steady_burst, self.finish.len() as u64),
            (steady, burst, steady),
            "steady set drifted from its sequences"
        );
        assert_eq!(self.next_finish, self.finish.first().map(|&(e, _)| e));
        if let Some(p) = paged {
            assert_eq!(buckets as u64, steady, "crossing buckets drifted");
            assert_eq!(
                p.lag(),
                lag,
                "filled tail tokens drifted from the steady tables"
            );
        }
    }
}

/// The crossing bucket of the steady decoder `s` (settled at epoch
/// `since`, holding `past` tokens ≤ its table's capacity `cap`): its
/// table fills after `cap − past` more steps, so the step at epoch
/// `since + 1 + cap − past` allocates, and every `block_tokens`-th
/// epoch after it.
fn crossing_key(s: &ActiveSeq, p: &PagedKv) -> usize {
    let bt = p.block_tokens();
    let cap = p.blocks_of(s.slot) * bt;
    let since = s.steady.expect("steady");
    ((since + 1 + cap - s.past) % bt) as usize
}

/// Batch position of the resident with batch order `order`, given the
/// batch's `orders`. Batch order is push order — a batch numbers its
/// pushes, and a removal keeps the rest in place — so `orders` ascends
/// and names a resident across removals.
pub(super) fn position(orders: &[u64], order: u64) -> usize {
    orders.binary_search(&order).expect("decoder is resident")
}

/// Drops `key` from an unordered list that holds it.
pub(super) fn unlist(list: &mut Vec<u64>, key: u64) {
    let j = list
        .iter()
        .position(|&listed| listed == key)
        .expect("listed key");
    list.swap_remove(j);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::engine::arrivals::Arrival;
    use crate::serving::engine::batch::Batch;
    use crate::serving::kv::prefix_key;
    use crate::serving::report::RunSample;
    use crate::serving::{Priority, Slo};
    use ianus_model::RequestShape;
    use ianus_sim::Duration;
    use proptest::prelude::*;

    /// A fresh sequence admitted into `slot` with `shared` prompt tokens
    /// already mapped; every fifth one carries an SLO (and so a gap
    /// log).
    fn admitted(idx: u64, shape: RequestShape, slot: KvSlot, shared: u64) -> ActiveSeq {
        let slo = Slo::new(Duration::from_ms(1), Duration::from_ms(1));
        let req = Arrival {
            at: 0.0,
            idx,
            class: 0,
            shape,
            priority: Priority::Interactive,
            slo: idx.is_multiple_of(5).then_some(slo),
            tenant: 0,
            in_burst: idx.is_multiple_of(3),
            wf: None,
        };
        ActiveSeq::admitted(req, 0.0, slot, shared, 0.0)
    }

    /// The per-step reference: every decoder of `seqs`, in batch order,
    /// emits one token at `now` (skipping a just-rebuilt one and one
    /// that already emitted at `now`); a finisher completes in `q` on
    /// the spot, recorded with its table's tokens in `done`, and every
    /// other table grows.
    fn eager_step(
        seqs: &mut Vec<ActiveSeq>,
        q: &mut PagedKv,
        now: f64,
        itls: &mut Itls,
        done: &mut Vec<(u64, u64)>,
    ) {
        let mut i = 0;
        while i < seqs.len() {
            let s = &mut seqs[i];
            if std::mem::take(&mut s.just_prefilled) || !s.decoding() || s.last_token >= now {
                i += 1;
                continue;
            }
            let gap = now - s.last_token;
            itls.all.push_n(gap, 1);
            itls.burst.push_n(gap, u64::from(s.req.in_burst));
            if s.req.slo.is_some() {
                s.gaps.push_n(gap, 1);
            }
            s.last_token = now;
            s.past += 1;
            s.remaining -= 1;
            if s.remaining == 0 {
                let s = seqs.remove(i);
                done.push((s.req.idx, q.tokens_of(s.slot)));
                q.complete(s.slot);
                continue;
            }
            q.grow(s.slot, s.past);
            i += 1;
        }
    }

    /// The fields a settled sequence shares with its per-step twin.
    fn fields(s: &ActiveSeq) -> (u64, u64, u64, u64, u64, RunSample, u64, u32) {
        let last = s.last_token.to_bits();
        (
            s.req.idx,
            s.past,
            s.remaining,
            last,
            s.prefilled,
            s.gaps.clone(),
            s.shared_tokens,
            s.recomputes,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random push (cold and prefix-hit), prefill-chunk, decode
        /// step (some at an unchanged clock), evict (by swap or
        /// recompute), swap-in, complete and settle-everything sequences
        /// on one paged batch, at 1-, 16- and 17-token blocks, against
        /// an eager per-step reference run on a twin pool. After every
        /// step the counters equal a fold over the settled sequences and
        /// the reference's, and both pools agree on slack,
        /// fragmentation and free blocks; every sequence leaving the
        /// batch (evicted, completed, or finished by a decode step, in
        /// the reference's order) equals its twin, table tokens
        /// included; settling everything reproduces the reference's
        /// sequences; and the ITL samples hold the same multiset. The
        /// counters end at zero.
        #[test]
        fn batch_counters_track_their_sequences(
            bt in prop::sample::select(vec![1u64, 16, 17]),
            ops in prop::collection::vec((0u8..8, 0u64..64, 1u64..40), 1..160),
        ) {
            let (mut p, mut q) = (PagedKv::new(48, bt), PagedKv::new(48, bt));
            let mut batch = Batch::default();
            let mut twin: Vec<ActiveSeq> = Vec::new();
            let mut swapped: Vec<ActiveSeq> = Vec::new();
            let (mut itls, mut want_itls) = (Itls::default(), Itls::default());
            let (mut next_idx, mut now) = (0u64, 0.0f64);
            let key = prefix_key(0, 8);
            for (op, pick, n) in ops {
                match op {
                    0 => {
                        // Admission: the first prefill to complete
                        // publishes the prefix later pushes map.
                        let shape = RequestShape::new(n + 8, 2 + pick % 7);
                        let (input, total) = (shape.input - 1, shape.total_tokens());
                        let (slot, shared) = p.admit(Some(key), input, total);
                        prop_assert_eq!(q.admit(Some(key), input, total), (slot, shared));
                        let seq = admitted(next_idx, shape, slot, shared);
                        twin.push(seq.clone());
                        batch.push(seq, Some(&p));
                        next_idx += 1;
                    }
                    1 => {
                        if let Some(idx) = batch.chunk_target() {
                            let i = batch.position(idx).unwrap();
                            let s = &batch.seqs()[i];
                            let tokens = n.min(s.prefill_target - s.prefilled);
                            let t = &mut twin[i];
                            t.prefilled += tokens;
                            t.past = t.prefilled;
                            q.grow(t.slot, t.past);
                            let seq = batch.prefill_chunk(i, tokens, Some(&mut p));
                            for (s, pool) in [(seq, &mut p), (t, &mut q)] {
                                if s.decoding() {
                                    if let Some(shared) = pool.register_prefix(s.slot, key, 8) {
                                        s.shared_tokens = s.shared_tokens.max(shared);
                                    }
                                    if s.recomputes > 0 {
                                        s.just_prefilled = true;
                                    } else {
                                        s.last_token = now;
                                    }
                                }
                            }
                        }
                    }
                    2 => {
                        if pick % 5 != 0 {
                            now += 1.0 + (pick % 3) as f64;
                        }
                        let (mut done, mut want_done) = (Vec::new(), Vec::new());
                        eager_step(&mut twin, &mut q, now, &mut want_itls, &mut want_done);
                        batch.begin_decode(now, Some(&mut p), &mut itls);
                        while let Some(i) = batch.decode_until_finish(now, Some(&mut p), &mut itls) {
                            let seq = batch.remove(i, Some(&mut p));
                            done.push((seq.req.idx, p.tokens_of(seq.slot)));
                            p.complete(seq.slot);
                        }
                        batch.end_decode(now, Some(&p));
                        prop_assert_eq!(done, want_done);
                    }
                    3 | 4 | 6 if !batch.is_empty() => {
                        // Eviction of any resident sequence — by swap
                        // (op 3) or recompute (op 4) — or its completion
                        // (op 6).
                        let i = pick as usize % batch.len();
                        let (mut seq, mut t) = (batch.remove(i, Some(&mut p)), twin.remove(i));
                        prop_assert_eq!(fields(&seq), fields(&t));
                        prop_assert_eq!(p.tokens_of(seq.slot), q.tokens_of(t.slot));
                        if op == 6 {
                            p.complete(seq.slot);
                            q.complete(t.slot);
                        } else {
                            p.drop_unshared(seq.slot);
                            q.drop_unshared(t.slot);
                            if op == 4 && seq.decoding() {
                                seq.reset_for_recompute();
                                t.reset_for_recompute();
                            }
                            swapped.push(seq);
                            swapped.push(t);
                        }
                    }
                    5 if !swapped.is_empty() => {
                        let j = 2 * (pick as usize % (swapped.len() / 2));
                        let (seq, t) = (swapped.remove(j), swapped.remove(j));
                        p.grow(seq.slot, seq.past);
                        q.grow(t.slot, t.past);
                        twin.push(t);
                        batch.push(seq, Some(&p));
                    }
                    7 => {
                        let settled: Vec<_> = batch.settled().iter().map(fields).collect();
                        prop_assert_eq!(settled, twin.iter().map(fields).collect::<Vec<_>>());
                    }
                    _ => {}
                }
                batch.assert_counters(Some(&p));
                let decoders = twin.iter().filter(|s| s.decoding());
                let want = (
                    decoders.clone().count() as u32,
                    decoders.clone().map(|s| s.past).sum::<u64>(),
                    decoders.map(|s| s.growth_term(Some(&q))).sum::<u64>(),
                );
                prop_assert_eq!((batch.decode_width(), batch.past_sum(), batch.decode_growth()), want);
                prop_assert_eq!(p.fragmentation().to_bits(), q.fragmentation().to_bits());
                prop_assert_eq!((p.free_blocks(), p.used_blocks()), (q.free_blocks(), q.used_blocks()));
            }
            for seq in swapped.iter().step_by(2) {
                p.complete(seq.slot);
            }
            while !batch.is_empty() {
                let seq = batch.remove(batch.len() - 1, Some(&mut p));
                p.complete(seq.slot);
                batch.assert_counters(Some(&p));
            }
            prop_assert_eq!(
                (batch.decode_width(), batch.past_sum(), batch.decode_growth(), batch.chunk_target()),
                (0, 0, 0, None)
            );
            prop_assert_eq!(itls.all.sorted_runs(), want_itls.all.sorted_runs());
            prop_assert_eq!(itls.burst.sorted_runs(), want_itls.burst.sorted_runs());
            p.finish();
        }
    }
}
