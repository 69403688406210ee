//! The engine core: layer composition and the iteration-level turn
//! loop.
//!
//! [`EngineCore`] owns one run's mutable state, split into the layer
//! structs ([`WaitQueue`], [`BatchState`], [`KvLedger`], [`LaneClocks`],
//! [`MigrationState`], [`WorkflowRt`], [`TurnIndex`]) plus the shared
//! scalars, and drives the turn loop: select the next actionable
//! replica (heap-indexed or linear-scan, bit-identically — the only
//! place that knows the [`CoreMode`]), retire DMA,
//! re-admit swapped work, land migrants, admit arrivals, relieve KV
//! pressure, execute one iteration, advance prefill and decoders, and
//! re-index. Each phase lives in its layer's module as an
//! `impl EngineCore` block; this module only sequences them.

use super::admission::WaitQueue;
use super::batch::{Batch, BatchState};
use super::dma_retire::{LaneClocks, LaneQueue};
use super::kv_state::{paged_blocks, KvLedger};
use super::migrate::MigrationState;
use super::replica::Replicas;
use super::workflow_rt::{workflow_ctx, WorkflowRt};
use super::{CoreMode, ServingSim, TimeKey};
use crate::serving::dma::DmaChannels;
use crate::serving::kv::{prefix_key, PagedKv};
use crate::serving::policy::{MigrationPolicy, SchedulerPolicy};
use crate::serving::report::RunStats;
use crate::serving::{ReplicaRole, RequestClass};
use ianus_model::ModelConfig;
use ianus_sim::SlotQueue;
use std::collections::{BTreeSet, HashMap};

/// How the turn loop picks its next replica: the event-driven
/// index, or the step-scan reference that walks every replica each
/// turn. Both select the same turns; nothing else in the engine
/// depends on which one runs.
pub(super) enum Turns {
    /// [`CoreMode::EventDriven`].
    Indexed(TurnIndex),
    /// [`CoreMode::StepScan`]: stateless.
    Scan,
}

impl Turns {
    fn new(mode: CoreMode, roles: &[ReplicaRole]) -> Self {
        match mode {
            CoreMode::StepScan => Turns::Scan,
            // Decode-only replicas never admit arrivals: they start
            // parked (in no idle set) and are woken by the turn that
            // issues a migration toward them.
            CoreMode::EventDriven => Turns::Indexed(TurnIndex {
                busy_q: SlotQueue::new(roles.len()),
                idle_ready: (0..roles.len())
                    .filter(|&i| roles[i] != ReplicaRole::DecodeOnly)
                    .collect(),
                idle_late: BTreeSet::new(),
                parked: BTreeSet::new(),
            }),
        }
    }

    /// Wakes replica `r` for a migration pushed toward it: it is busy
    /// at its own clock `at` from now on (a parked decode-only replica
    /// is in no set; `schedule` upserts, so a busy one keeps its key).
    /// The scan needs no wake.
    pub(super) fn wake(&mut self, r: usize, at: f64) {
        if let Turns::Indexed(ix) = self {
            ix.busy_q.schedule(r, TimeKey(at));
        }
    }
}

/// The event-driven next-actionable-time index. A replica is
/// *busy* (actionable at its own clock) while it
/// [holds work](EngineCore::holds_work); idle replicas are
/// actionable at `max(clock, next pending arrival)`, so they
/// split on which side of that max binds: `idle_ready` holds
/// those with clock ≤ the next arrival (all actionable at the
/// arrival — lowest index wins), `idle_late` those past it
/// (actionable at their own clock). The next pending arrival
/// time only moves later, so `idle_late` entries migrate to
/// `idle_ready` monotonically, and once the queue drains an idle
/// replica can never act again (only a replica's own turn makes
/// it busy), so both sets clear.
pub(super) struct TurnIndex {
    /// Busy replicas keyed by their next boundary time.
    busy_q: SlotQueue<TimeKey>,
    /// Idle replicas whose clock has not passed the arrival head.
    idle_ready: BTreeSet<usize>,
    /// Idle replicas past the arrival head, keyed by their own clock.
    idle_late: BTreeSet<(TimeKey, usize)>,
    /// Workflow mode only: idle non-decode replicas that found the
    /// wait queue empty. They are in no idle set (there is no head
    /// to classify them against) and are woken by the turn whose
    /// completion fan-out refills the queue.
    parked: BTreeSet<usize>,
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
    pub(super) scheduler: &'a SchedulerPolicy,
    /// Migration target selection (disaggregated clusters).
    pub(super) migration: &'a dyn MigrationPolicy,
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
    pub(super) turns: Turns,
    /// The run's raw samples and counters.
    pub(super) stats: RunStats,
    /// Requests (or workflow nodes) settled so far.
    pub(super) done: u64,
    /// Requests (or workflow nodes) the run must settle.
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
        let wf_mode = !self.cfg.workflows.is_empty();
        // Arrivals ascending by time (and index). The wait queue is the
        // arrived, not-yet-admitted slice: `untaken` holds the pending
        // indices in order, so each boundary walks exactly the pending
        // window — no tombstone skipping, and the first element is the
        // next pending arrival (its time is nondecreasing over the run,
        // which the idle-replica index relies on). Workflow mode
        // appends *child* arrivals mid-run as their parents complete;
        // an append can move the wait-queue head backward in time, so
        // there the idle index is repaired after each fan-out instead
        // of trusting the nondecreasing-head invariant.
        let wf_ctx = workflow_ctx(&self.cfg, mix);
        let (arrivals, wf_runs, total) = if wf_mode {
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
        let stats = RunStats::new(n, mix.len(), total, self.cfg.arrivals.tenant_count());
        let turns = Turns::new(self.core_mode, &self.roles);
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
            scheduler: &self.scheduler,
            migration: &*self.migration,
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
                swap_count: 0,
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
                mode: wf_mode,
            },
            turns,
            stats,
            done: 0,
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
        while self.done < self.total {
            // Whether a workflow completion appended arrivals this turn
            // (the event core must then repair its idle sets against
            // the possibly-earlier wait-queue head).
            let mut wf_pushed = false;
            let Some((r, at)) = self.select_turn() else {
                // Divergence guard fired.
                break;
            };
            self.batch.clock[r] = at;
            // The turn body, in a labeled block so the event-index
            // reclassification below always runs (the empty-batch
            // branch breaks out early where the scan core `continue`d).
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
                wf_pushed |= self.advance_prefill(r, chunk, now);
                wf_pushed |= self.advance_decoders(r, now);
            }
            if cfg!(debug_assertions) {
                self.batch.batches[r].assert_counters(self.kv.paged[r].as_ref());
            }
            self.reindex(r, wf_pushed);
        }
        self.finish()
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
    /// fast-forward to it). Ties break to the lowest replica index in
    /// both cores. Also advances the divergence guard; returns `None`
    /// when it fires (the run aborts).
    fn select_turn(&mut self) -> Option<(usize, f64)> {
        let head_at = self.wait.untaken.first().map(|&(t, _)| t.0);
        let (r, at) = match &mut self.turns {
            Turns::Indexed(ix) => {
                let busy = ix.busy_q.peek().map(|(TimeKey(t), i)| (t, i));
                let ready = head_at.zip(ix.idle_ready.first().copied());
                let late = head_at.and(ix.idle_late.first().map(|&(TimeKey(t), i)| (t, i)));
                // Lexicographic min of `(time, index)`, IEEE-compared.
                let (at, r) = [busy, ready, late]
                    .into_iter()
                    .flatten()
                    .reduce(|a, b| {
                        if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
                            b
                        } else {
                            a
                        }
                    })
                    .expect("requests outstanding but no replica actionable");
                if busy == Some((at, r)) {
                    ix.busy_q.pop();
                } else if ready == Some((at, r)) {
                    ix.idle_ready.remove(&r);
                } else {
                    ix.idle_late.remove(&(TimeKey(at), r));
                }
                (r, at)
            }
            Turns::Scan => {
                let mut next: Option<(usize, f64)> = None;
                for r in 0..self.batch.batches.len() {
                    let at = if self.holds_work(r) {
                        self.batch.clock[r]
                    } else if self.roles[r] == ReplicaRole::DecodeOnly {
                        // Empty decode-only replica: nothing to do until
                        // a migration arrives (arrivals never route here).
                        continue;
                    } else if let Some(h) = head_at {
                        self.batch.clock[r].max(h)
                    } else {
                        continue;
                    };
                    if next.is_none_or(|(_, best)| at < best) {
                        next = Some((r, at));
                    }
                }
                next.expect("requests outstanding but no replica actionable")
            }
        };
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

    /// Re-index replica `r` for its next turn. A replica holding
    /// work (resident, swapped, or an in-flight swap-in) is busy
    /// at its own clock; one holding at most background swap-outs
    /// is idle — actionable at the pending-arrival head if its
    /// clock has not passed it, at its own clock otherwise. With
    /// no arrivals left an idle replica can never act again, so
    /// the idle sets empty out. A no-op under the scan.
    fn reindex(&mut self, r: usize, wf_pushed: bool) {
        let busy = self.holds_work(r);
        let Turns::Indexed(turns) = &mut self.turns else {
            return;
        };
        let batch = &self.batch;
        let untaken = &self.wait.untaken;
        if untaken.is_empty() && !self.wf.mode {
            // With no arrivals left an idle replica can never
            // act again. (Workflow mode keeps the sets: a
            // running node's completion can refill the queue,
            // and selection already ignores idle replicas
            // while it is empty.)
            turns.idle_ready.clear();
            turns.idle_late.clear();
        }
        if busy {
            turns.busy_q.schedule(r, TimeKey(batch.clock[r]));
        } else if self.roles[r] == ReplicaRole::DecodeOnly {
            // Parked: arrivals never route here, so the replica
            // next acts when a migration push wakes it.
        } else if let Some(&(t, _)) = untaken.first() {
            if batch.clock[r] <= t.0 {
                turns.idle_ready.insert(r);
            } else {
                turns.idle_late.insert((TimeKey(batch.clock[r]), r));
            }
        } else if self.wf.mode {
            // Queue empty but running nodes may still release
            // children: park until a fan-out turn wakes us.
            turns.parked.insert(r);
        }
        if wf_pushed {
            // A completion fan-out appended arrivals at `now`,
            // which can move the wait-queue head *backward*
            // (`now` precedes leftover root arrivals). Wake
            // every parked replica against the new head, and
            // demote ready replicas whose clock now exceeds it
            // — they act at their own clock, not the head's.
            let h = untaken
                .first()
                .map(|&(t, _)| t.0)
                .expect("fan-out left the wait queue non-empty");
            for pr in std::mem::take(&mut turns.parked) {
                if batch.clock[pr] <= h {
                    turns.idle_ready.insert(pr);
                } else {
                    turns.idle_late.insert((TimeKey(batch.clock[pr]), pr));
                }
            }
            let demote: Vec<usize> = turns
                .idle_ready
                .iter()
                .copied()
                .filter(|&ir| batch.clock[ir] > h)
                .collect();
            for ir in demote {
                turns.idle_ready.remove(&ir);
                turns.idle_late.insert((TimeKey(batch.clock[ir]), ir));
            }
        }
        // The arrival head is nondecreasing between fan-outs
        // (admissions only remove from `untaken`), so replicas
        // that fell behind it migrate from late to ready
        // monotonically.
        if let Some(&(t, _)) = untaken.first() {
            let h = t.0;
            while let Some(&(t, late_r)) = turns.idle_late.first() {
                if t.0 <= h {
                    turns.idle_late.pop_first();
                    turns.idle_ready.insert(late_r);
                } else {
                    break;
                }
            }
        }
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
