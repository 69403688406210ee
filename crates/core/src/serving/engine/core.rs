//! The engine core: layer composition and the iteration-level turn
//! loop.
//!
//! [`EngineCore`] owns one run's mutable state, split into the layer
//! structs ([`WaitQueue`], [`BatchState`], [`KvLedger`], [`LaneClocks`],
//! [`MigrationState`], [`WorkflowRt`], [`TurnTree`]) plus the shared
//! scalars, and drives the turn loop: select the next actionable
//! replica from two min-trees over replica slots, retire DMA, re-admit
//! swapped work, land migrants, admit arrivals, relieve KV pressure,
//! execute one iteration, advance prefill and decoders, and re-index
//! the replica that moved. Each phase lives in its layer's module as an
//! `impl EngineCore` block; this module only sequences them.
//!
//! The turn rule is [`scan`]'s, by definition: a replica that
//! [holds work](EngineCore::holds_work) acts at its own clock, an idle
//! replica that admits arrivals acts at `max(clock, wait-queue head)`
//! (never while the queue is empty), and an idle decode-only replica
//! waits for a migration. The turn is the lexicographic, IEEE-compared
//! `(time, index)` minimum. [`TurnTree`] keeps busy clocks in one tree
//! and idle admitting clocks in another, and computes the idle side
//! from the head at selection time, so a head that moves (admissions
//! move it later, a workflow fan-out can move it earlier) needs no
//! repair. Debug builds assert on every turn that the tree picked the
//! scan's `(time, index)` over the live replica states.

use super::admission::WaitQueue;
use super::batch::{Batch, BatchState};
use super::dma_retire::{LaneClocks, LaneQueue};
use super::kv_state::{paged_blocks, KvLedger};
use super::migrate::MigrationState;
use super::replica::Replicas;
use super::workflow_rt::{workflow_ctx, WorkflowRt};
use super::{ServingSim, TimeKey};
use crate::serving::dma::DmaChannels;
use crate::serving::kv::{prefix_key, PagedKv};
use crate::serving::policy::{MigrationPolicy, SchedulerPolicy};
use crate::serving::report::RunStats;
use crate::serving::{ReplicaRole, RequestClass};
use ianus_model::ModelConfig;
use std::collections::{BTreeSet, HashMap};

/// A replica's state as turn selection sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TurnState {
    /// Holds work: actionable at this clock.
    Busy(f64),
    /// Holds no work, at this clock.
    Idle(f64),
}

/// The event-driven turn index: two [`MinTree`]s over replica slots.
/// `busy` keys the replicas that hold work by clock; `idle` keys the
/// idle replicas that admit arrivals (every role but decode-only) by
/// clock. Neither allocates after construction, and a turn re-keys
/// only the replica that moved.
pub(super) struct TurnTree {
    busy: MinTree,
    idle: MinTree,
}

impl TurnTree {
    /// The index at the start of a run over replicas of `roles`: every
    /// replica idle at clock 0, and decode-only replicas, which never
    /// admit arrivals, out of both trees until a migration wakes them.
    fn new(roles: &[ReplicaRole]) -> Self {
        let mut tree = TurnTree {
            busy: MinTree::new(roles.len()),
            idle: MinTree::new(roles.len()),
        };
        for (r, &role) in roles.iter().enumerate() {
            tree.set(r, TurnState::Idle(0.0), role);
        }
        tree
    }

    /// Wakes replica `r` for a migration pushed toward it: it holds
    /// work at its own clock `at` from now on.
    pub(super) fn wake(&mut self, r: usize, at: f64) {
        self.set(r, TurnState::Busy(at), ReplicaRole::DecodeOnly);
    }

    /// Re-keys replica `r` in state `state`; an idle decode-only
    /// replica leaves both trees (only a migration wakes it).
    fn set(&mut self, r: usize, state: TurnState, role: ReplicaRole) {
        let (busy, idle) = match state {
            TurnState::Busy(clock) => (Some(clock), None),
            TurnState::Idle(_) if role == ReplicaRole::DecodeOnly => (None, None),
            TurnState::Idle(clock) => (None, Some(clock)),
        };
        self.busy.set(r, busy);
        self.idle.set(r, idle);
    }

    /// The next turn `(time, replica)` when the wait-queue head is
    /// `head`: the busy root against the idle candidate, lexicographic
    /// on `(time, index)` with IEEE comparisons. Idle replicas act at
    /// `max(clock, head)`, whose minimum is `t = max(min idle clock,
    /// head)`, reached by every idle replica with clock ≤ `t`; the
    /// lowest index among them is the candidate. With no head, idle
    /// replicas cannot act.
    fn select(&self, head: Option<f64>) -> Option<(f64, usize)> {
        let busy = self.busy.min();
        let idle = head.and_then(|h| {
            let (m, _) = self.idle.min()?;
            let t = m.max(h);
            Some((t, self.idle.first_at_most(t)))
        });
        match (busy, idle) {
            (Some(b), Some(i)) => Some(if i.0 < b.0 || (i.0 == b.0 && i.1 < b.1) {
                i
            } else {
                b
            }),
            (b, i) => b.or(i),
        }
    }
}

/// The turn rule by definition, a scan over explicit replica states in
/// index order: busy replicas act at their clock, idle ones that admit
/// at `max(clock, head)` (never without a head), idle decode-only ones
/// not at all; the first strict minimum wins. [`TurnTree::select`] must
/// agree with it, which debug builds assert on every turn.
fn scan(
    states: impl IntoIterator<Item = (TurnState, ReplicaRole)>,
    head: Option<f64>,
) -> Option<(f64, usize)> {
    let mut next: Option<(f64, usize)> = None;
    for (r, (state, role)) in states.into_iter().enumerate() {
        let at = match state {
            TurnState::Busy(clock) => clock,
            TurnState::Idle(_) if role == ReplicaRole::DecodeOnly => continue,
            TurnState::Idle(clock) => match head {
                Some(h) => clock.max(h),
                None => continue,
            },
        };
        if next.is_none_or(|(best, _)| at < best) {
            next = Some((at, r));
        }
    }
    next
}

/// A min-tree over `n` slots in one array: leaves hold each slot's key
/// (or none), and every inner node the `(key, slot)` minimum of its
/// subtree, equal keys to the lower slot. The root is the lexicographic
/// `(key, slot)` minimum; [`set`](Self::set) re-keys one leaf and its
/// ancestors in O(log n), without allocating. The turn tree keys
/// replica clocks with it, and request-level FCFS dispatch each
/// replica's next-free time.
pub(super) struct MinTree {
    /// `nodes[1]` is the root, node `k`'s children are `2k` and
    /// `2k + 1`, and slot `s`'s leaf is `width + s`.
    nodes: Vec<(f64, u32)>,
    /// Leaves: `n` rounded up to a power of two.
    width: usize,
}

/// The slot of an empty node.
const NO_SLOT: u32 = u32::MAX;
/// An empty node.
const EMPTY: (f64, u32) = (f64::INFINITY, NO_SLOT);

impl MinTree {
    /// A tree over `n` slots, none keyed.
    pub(super) fn new(n: usize) -> Self {
        assert!(n < NO_SLOT as usize, "too many slots for a min-tree");
        let width = n.max(1).next_power_of_two();
        MinTree {
            nodes: vec![EMPTY; 2 * width],
            width,
        }
    }

    /// Sets slot `s`'s key (`None` removes it).
    pub(super) fn set(&mut self, s: usize, key: Option<f64>) {
        let mut k = self.width + s;
        let leaf = key.map_or(EMPTY, |t| (t, s as u32));
        let old = self.nodes[k];
        if old.1 == leaf.1 && old.0.to_bits() == leaf.0.to_bits() {
            return;
        }
        self.nodes[k] = leaf;
        while k > 1 {
            let left = k & !1;
            let (a, b) = (self.nodes[left], self.nodes[left + 1]);
            // The left child holds the lower slots: it wins ties. The
            // winner is picked by index, without a branch on the keys.
            let right_wins = (a.1 == NO_SLOT) | (b.0 < a.0);
            k /= 2;
            self.nodes[k] = self.nodes[left + usize::from(right_wins)];
        }
    }

    /// The lexicographic `(key, slot)` minimum, if any slot has a key.
    pub(super) fn min(&self) -> Option<(f64, usize)> {
        let (t, s) = self.nodes[1];
        (s != NO_SLOT).then_some((t, s as usize))
    }

    /// The lowest slot whose key is ≤ `t`, given that the root's is.
    fn first_at_most(&self, t: f64) -> usize {
        let mut k = 1;
        while k < self.width {
            let left = self.nodes[2 * k];
            k = if left.1 != NO_SLOT && left.0 <= t {
                2 * k
            } else {
                2 * k + 1
            };
        }
        debug_assert!(self.nodes[k].1 != NO_SLOT && self.nodes[k].0 <= t);
        self.nodes[k].1 as usize
    }
}

/// One iteration-level run's full mutable state: the layer structs plus
/// the run-wide scalars. Phase methods are `impl EngineCore` blocks in
/// each layer's module; the call contract is documented per method.
pub(super) struct EngineCore<'a> {
    /// The model every replica serves this run.
    pub(super) model: &'a ModelConfig,
    /// The replicas (their memo tables persist across runs).
    pub(super) replicas: &'a mut Replicas,
    /// Per-replica roles (disaggregation).
    pub(super) roles: &'a [ReplicaRole],
    /// The iteration-level policy bundle.
    pub(super) scheduler: SchedulerPolicy,
    /// Migration target selection (disaggregated clusters).
    pub(super) migration: MigrationPolicy,
    /// The run's effective class list: the flat mix, or one synthetic
    /// class per (template, node) under a workflow mix.
    pub(super) mix: &'a [RequestClass],
    /// Max sequences resident per replica.
    pub(super) max_batch: u32,
    /// Prefill chunk size (`u64::MAX` when chunking is off).
    pub(super) chunk_size: u64,
    /// Whether admission overcommits and KV pressure evicts.
    pub(super) preempt: bool,
    /// Whether swap DMA overlaps compute.
    pub(super) overlap: bool,
    /// Admission layer: arrivals and the wait queue.
    pub(super) wait: WaitQueue,
    /// Batch layer: resident sequences and compute clocks.
    pub(super) batch: BatchState,
    /// KV layer: paged pools, swapped queues, host-pool ledger.
    pub(super) kv: KvLedger,
    /// DMA layer: lane clocks and in-flight swap queues.
    pub(super) lanes: LaneClocks,
    /// Migration layer: decode pool and inbound lane queues.
    pub(super) mig: MigrationState,
    /// Workflow runtime: instance state and fan-out tables.
    pub(super) wf: WorkflowRt,
    /// Turn selection.
    pub(super) turns: TurnTree,
    /// The run's raw samples and counters.
    pub(super) stats: RunStats,
    /// Requests (or workflow nodes) the run must settle: complete, or
    /// cancel by speculative-group arbitration.
    pub(super) total: u64,
    /// Divergence guard: abort once the arrived-but-unadmitted backlog
    /// exceeds this.
    pub(super) divergence_bound: Option<u64>,
    /// Set when the divergence guard fired (end-of-run invariants are
    /// then legitimately violated).
    pub(super) aborted: bool,
}

impl ServingSim {
    /// Continuous batching: one global wait queue ordered by the
    /// [`AdmissionPolicy`](crate::serving::policy::AdmissionPolicy);
    /// every replica admits at each iteration boundary (KV-gated), then
    /// runs one iteration — at most one prefill chunk (the whole prompt
    /// when chunking is off) plus one decode step over its
    /// fully-prefilled sequences. With `preempt`, admission overcommits
    /// against *current* KV lengths and KV pressure evicts the
    /// [`EvictionPolicy`](crate::serving::policy::EvictionPolicy)'s
    /// victim to a replica-local swap queue ordered by the
    /// [`ReadmissionPolicy`](crate::serving::policy::ReadmissionPolicy).
    pub(super) fn run_iteration_level(
        &mut self,
        model: &ModelConfig,
        mix: &[RequestClass],
        max_batch: u32,
        prefill_chunk: Option<u64>,
        preempt: bool,
    ) -> RunStats {
        let chunk_size = prefill_chunk.unwrap_or(u64::MAX);
        let overlap = self.overlap_dma;
        let n = self.replicas.len();
        // Effective per-replica host KV pool (`None` = unbounded).
        let pools: Vec<Option<u64>> = self
            .replicas
            .backends()
            .map(|b| self.host_kv_override.unwrap_or_else(|| b.host_kv_bytes()))
            .collect();
        // Arrivals ascending by time (and index). The wait queue is the
        // arrived, not-yet-admitted slice: `untaken` holds the pending
        // indices in order, so each boundary walks exactly the pending
        // window — no tombstone skipping, and the first element is the
        // next pending arrival. Workflow mode appends *child* arrivals
        // mid-run as their parents complete; an append can move the
        // wait-queue head backward in time, which turn selection reads
        // afresh every turn.
        let wf_ctx = workflow_ctx(&self.cfg, mix);
        let (arrivals, wf_runs, total) = if !self.cfg.workflows.is_empty() {
            self.generate_workflow_arrivals(&wf_ctx)
        } else {
            (self.generate_arrivals(), Vec::new(), self.cfg.requests)
        };
        // The wait queue, ordered by (time, index). On the initial trace
        // the two orders coincide; workflow children appended mid-run
        // keep the set time-sorted so the head and the admission window
        // stay correct.
        let untaken: BTreeSet<(TimeKey, usize)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| (TimeKey(a.at), i))
            .collect();
        let class_keys: Vec<Option<u64>> = mix
            .iter()
            .enumerate()
            .map(|(i, c)| (c.prefix_tokens > 0).then(|| prefix_key(i, c.prefix_tokens)))
            .collect();
        let mut paged = Vec::with_capacity(n);
        for (r, b) in self.replicas.backends().enumerate() {
            // An invariant: `validate` reported a pool this short.
            let blocks = paged_blocks(b, r, self.kv_block, model, mix);
            let blocks = blocks.unwrap_or_else(|e| panic!("{e}"));
            paged.push(blocks.map(|blocks| PagedKv::new(blocks, self.kv_block)));
        }
        // Decode pool for prefill→decode migrations (empty outside
        // disaggregated runs — prefill replicas then decode locally).
        let decode_pool: Vec<usize> = (0..n)
            .filter(|&i| self.roles[i] == ReplicaRole::DecodeOnly)
            .collect();
        let stats = RunStats::new(n, total, self.cfg.arrivals.tenant_count());
        // Divergence guard (off unless a bound is configured or this
        // run is a rate probe): abort once the arrived-but-unadmitted
        // backlog exceeds the bound.
        let divergence_bound: Option<u64> = match self.divergence {
            Some(depth) => depth,
            None => self
                .probe_divergence
                .then(|| 1024u64.max(32 * u64::from(max_batch) * n as u64)),
        };
        let core = EngineCore {
            model,
            replicas: &mut self.replicas,
            roles: &self.roles,
            scheduler: self.scheduler,
            migration: self.migration,
            mix,
            max_batch,
            chunk_size,
            preempt,
            overlap,
            wait: WaitQueue {
                arrivals,
                untaken,
                arrived: 0,
                admitted: 0,
            },
            batch: BatchState {
                batches: (0..n).map(|_| Batch::default()).collect(),
                clock: vec![0.0f64; n],
                iter_sum: vec![0.0f64; n],
                iter_n: vec![0u64; n],
            },
            kv: KvLedger {
                paged,
                swapped: vec![Vec::new(); n],
                host_used: vec![0u64; n],
                pools,
                class_keys,
            },
            lanes: LaneClocks {
                dma: vec![DmaChannels::new(); n],
                outgoing: (0..n).map(|_| LaneQueue::default()).collect(),
                incoming: (0..n).map(|_| LaneQueue::default()).collect(),
            },
            mig: MigrationState {
                decode_pool,
                migrating: (0..n).map(|_| LaneQueue::default()).collect(),
            },
            wf: WorkflowRt {
                ctx: wf_ctx,
                runs: wf_runs,
                key_homes: HashMap::new(),
                inheritance: self.workflow_inheritance,
            },
            turns: TurnTree::new(&self.roles),
            stats,
            total,
            divergence_bound,
            aborted: false,
        };
        core.run()
    }
}

impl EngineCore<'_> {
    /// The turn loop: pick the next actionable replica, run its turn
    /// body (each phase a layer call, in the fixed order the monolith
    /// executed inline), re-index, repeat until every request settles
    /// or the divergence guard aborts.
    pub(super) fn run(mut self) -> RunStats {
        while self.stats.completed.len() as u64 + self.stats.cancelled_nodes < self.total {
            let Some((r, at)) = self.select_turn() else {
                // Divergence guard fired.
                break;
            };
            self.batch.clock[r] = at;
            // The turn body, in a labeled block so the re-index below
            // always runs (the empty-batch branch breaks out early).
            'body: {
                self.retire_dma(r);
                self.readmit_swapped(r);
                self.admit_migrants(r);
                self.admit_arrivals(r);
                if self.batch.batches[r].is_empty() {
                    self.idle_wait_for_dma(r);
                    break 'body;
                }
                let chunk_target = self.batch.batches[r].chunk_target();
                if self.preempt {
                    self.relieve_pressure(r, chunk_target);
                }
                let (chunk, now) = self.execute_iteration(r, chunk_target);
                self.advance_prefill(r, chunk, now);
                self.advance_decoders(r, now);
            }
            if cfg!(debug_assertions) {
                self.batch.batches[r].assert_counters(self.kv.paged[r].as_ref());
            }
            self.turns.set(r, self.turn_state(r), self.roles[r]);
        }
        self.finish()
    }

    /// Replica `r`'s state as turn selection sees it.
    fn turn_state(&self, r: usize) -> TurnState {
        if self.holds_work(r) {
            TurnState::Busy(self.batch.clock[r])
        } else {
            TurnState::Idle(self.batch.clock[r])
        }
    }

    /// Whether replica `r` holds work — resident, swapped, or an
    /// inbound transfer — and so acts at its own clock. An in-flight
    /// swap-out alone does not count: contiguous re-admission can
    /// strand an `outgoing` entry on an otherwise empty replica.
    fn holds_work(&self, r: usize) -> bool {
        !self.batch.batches[r].is_empty()
            || !self.kv.swapped[r].is_empty()
            || !self.lanes.incoming[r].is_empty()
            || !self.mig.migrating[r].is_empty()
    }

    /// The next actionable replica: the earliest iteration boundary
    /// among replicas that hold work (resident, swapped or in-flight)
    /// or could admit the earliest pending arrival (idle replicas
    /// fast-forward to it), ties to the lowest replica index. Debug
    /// builds check the pick against [`scan`] over every replica's
    /// state. Also advances the divergence guard; returns `None` when
    /// it fires (the run aborts).
    fn select_turn(&mut self) -> Option<(usize, f64)> {
        let head_at = self.wait.untaken.first().map(|&(t, _)| t.0);
        let (at, r) = self
            .turns
            .select(head_at)
            .expect("requests outstanding but no replica actionable");
        if cfg!(debug_assertions) {
            let states = (0..self.roles.len()).map(|r| (self.turn_state(r), self.roles[r]));
            let bits = |(t, r): (f64, usize)| (t.to_bits(), r);
            assert_eq!(
                Some(bits((at, r))),
                scan(states, head_at).map(bits),
                "the turn tree's pick is not the scan's"
            );
        }
        // Divergence guard: `arrived` advances monotonically with the
        // selected event time (which never decreases); `admitted`
        // counts admissions, which can transiently outpace `arrived`
        // because a replica's clock moves past the event time within
        // its turn — hence the saturating difference.
        if let Some(bound) = self.divergence_bound {
            while self.wait.arrived < self.wait.arrivals.len()
                && self.wait.arrivals[self.wait.arrived].at <= at
            {
                self.wait.arrived += 1;
            }
            if (self.wait.arrived as u64).saturating_sub(self.wait.admitted) > bound {
                self.stats.diverged = true;
                self.aborted = true;
                return None;
            }
        }
        Some((r, at))
    }

    /// End-of-run invariants and the raw samples. Every swap-out must
    /// have been paired with a swap-in (and every recompute drop with a
    /// re-prefill): nothing may end the run swapped, in flight, or
    /// holding host-pool bytes. A divergence abort leaves all of that
    /// legitimately in flight, so the invariants only hold on completed
    /// runs.
    fn finish(mut self) -> RunStats {
        if !self.aborted {
            assert!(
                self.kv.swapped.iter().all(Vec::is_empty),
                "sequences still swapped out at end of run"
            );
            assert!(
                self.lanes.incoming.iter().all(LaneQueue::is_empty),
                "swap-ins still in flight at end of run"
            );
            assert!(
                self.mig.migrating.iter().all(LaneQueue::is_empty),
                "KV migrations still in flight at end of run"
            );
            assert!(
                self.kv.host_used.iter().all(|&b| b == 0),
                "host-pool bytes leaked at end of run"
            );
            for (r, batch) in self.batch.batches.iter().enumerate() {
                assert!(
                    batch.is_empty()
                        && batch.decode_width() == 0
                        && batch.past_sum() == 0
                        && batch.decode_growth() == 0
                        && batch.chunk_target().is_none(),
                    "replica {r} ends the run with resident work or nonzero batch counters"
                );
            }
            // Block conservation: with every sequence completed and the
            // caches flushed, every block must be back on the free
            // list.
            for p in self.kv.paged.iter_mut().flatten() {
                p.finish();
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Clocks and heads are drawn from a short list so equal times are
    /// common; one head draw past its end is an empty wait queue.
    const TIMES: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 7.25, 1e6];

    /// Applies `ops` — `(replica, state kind, clock, head)` draws — to
    /// a tree over `n` replicas and to a list of explicit states, and
    /// checks after each that the tree selects what the scan does.
    /// Kinds: busy at a drawn clock, idle unified, idle prefill-only,
    /// idle decode-only (out of both trees), and a busy replica keeping
    /// its clock (a migration wake).
    fn tree_selects_like_the_scan(n: usize, ops: &[(usize, u8, usize, usize)]) -> bool {
        let mut tree = TurnTree::new(&vec![ReplicaRole::DecodeOnly; n]);
        let mut states = vec![(TurnState::Idle(0.0), ReplicaRole::DecodeOnly); n];
        ops.iter().all(|&(pick, kind, clock, head)| {
            let r = pick % n;
            let clock = TIMES[clock % TIMES.len()];
            let (TurnState::Busy(own) | TurnState::Idle(own)) = states[r].0;
            states[r] = match kind % 5 {
                0 => (TurnState::Busy(clock), states[r].1),
                1 => (TurnState::Idle(clock), ReplicaRole::Unified),
                2 => (TurnState::Idle(clock), ReplicaRole::PrefillOnly),
                3 => (TurnState::Idle(clock), ReplicaRole::DecodeOnly),
                _ => (TurnState::Busy(own), states[r].1),
            };
            tree.set(r, states[r].0, states[r].1);
            let head = TIMES.get(head % (TIMES.len() + 1)).copied();
            let bits = |p: Option<(f64, usize)>| p.map(|(t, r)| (t.to_bits(), r));
            bits(tree.select(head)) == bits(scan(states.iter().copied(), head))
        })
    }

    /// SplitMix64, for the exhaustive replica-count sweep.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every replica count from 1 to 130, so each power-of-two width
    /// from 1 to 256 and both sides of every width change are covered.
    #[test]
    fn turn_tree_selects_like_the_scan_at_every_width() {
        let mut state = 0x7e57;
        for n in 1..=130 {
            let ops: Vec<(usize, u8, usize, usize)> = (0..4 * n + 64)
                .map(|_| {
                    let x = splitmix(&mut state);
                    (
                        x as usize,
                        (x >> 16) as u8,
                        (x >> 24) as usize,
                        (x >> 40) as usize,
                    )
                })
                .collect();
            assert!(tree_selects_like_the_scan(n, &ops), "{n} replicas");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random busy, idle and out states, equal clocks, and heads
        /// present or absent, over 1 to 130 replicas: the turn tree
        /// picks the scan's `(time, index)` after every re-key.
        #[test]
        fn turn_tree_selects_like_the_scan(
            n in 1usize..131,
            ops in prop::collection::vec((0usize..256, 0u8..5, 0usize..6, 0usize..7), 1..200),
        ) {
            prop_assert!(tree_selects_like_the_scan(n, &ops));
        }
    }
}
