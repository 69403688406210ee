//! Admission layer: the global wait queue and both admission paths.
//!
//! This layer owns the arrival vector and the time-ordered wait queue
//! ([`WaitQueue`]), and decides which queued work is offered a batch:
//! [`EngineCore::admit_arrivals`] runs the iteration-level admission
//! policy at every boundary, batch-slot-bounded; whether the policy's
//! head fits, the prefix it maps and its batch entry are the KV layer's
//! (`kv_state`).
//! [`run_request_level`](super::ServingSim::run_request_level) is the
//! whole request-level scheduling mode — there a "batch" is one request
//! and admission is just dispatch, so no engine core is needed.

use super::arrivals::Arrival;
use super::batch::ActiveSeq;
use super::core::{EngineCore, MinTree};
use super::workflow_rt::drop_prefix;
use super::TimeKey;
use crate::serving::report::{request_attains, RunSample, RunStats};
use crate::serving::DispatchPolicy;
use crate::serving::ReplicaRole;

/// The wait-queue layer: every generated arrival, the subset not yet
/// admitted (ordered by arrival time, then index), and the divergence
/// counters.
pub(super) struct WaitQueue {
    /// Every arrival of the run, indexed by arrival id. Workflow
    /// fan-outs append released children at completion instants.
    pub(super) arrivals: Vec<Arrival>,
    /// `(arrival_time, arrival_index)` of every not-yet-admitted
    /// request — the global FCFS-ordered wait queue.
    pub(super) untaken: std::collections::BTreeSet<(TimeKey, usize)>,
    /// How many arrivals have occurred by the current boundary
    /// (divergence accounting only).
    pub(super) arrived: usize,
    /// How many arrivals have been admitted (divergence accounting
    /// only).
    pub(super) admitted: u64,
}

impl super::ServingSim {
    /// Request-level scheduling: each request is dispatched whole to
    /// one replica and served run-to-completion (no batching).
    pub(super) fn run_request_level(&mut self) -> RunStats {
        // Memoize every (replica, shape) service and prefill time up
        // front: ShortestExpectedJob consults all replicas per arrival,
        // and TTFT needs the prefill split. Replicas of one price class
        // share their tables, so the loop prices each class once.
        let n = self.replicas.len();
        for r in 0..n {
            let mut pricer = self.replicas.pricer(r);
            for class in &self.cfg.mix {
                pricer.service_time(class.shape);
                pricer.prefill_secs(class.shape.input);
            }
        }

        let mut free = vec![0.0f64; n]; // per-replica next-free time
                                        // Outstanding finish times per replica (FIFO per replica, so the
                                        // front is always the earliest) — LeastLoaded's queue lengths.
        let mut outstanding: Vec<std::collections::VecDeque<f64>> =
            vec![std::collections::VecDeque::new(); n];
        // FCFS dispatch is argmin over next-free times with
        // lowest-index tie-breaks — exactly the min-tree's lexicographic
        // (time, slot) root, so a tree keyed by `free` replaces the O(n)
        // scan per arrival: only the dispatched replica's key changes.
        // LeastLoaded/SEJ keep the scan — their keys change for
        // replicas that were *not* dispatched.
        let mut fcfs = MinTree::new(n);
        for (i, &f) in free.iter().enumerate() {
            fcfs.set(i, Some(f));
        }
        let mut stats = RunStats::new(n, self.cfg.requests, self.cfg.arrivals.tenant_count());
        stats.peak_batch = 1;

        for arrival in self.generate_arrivals() {
            let now = arrival.at;
            let shape = arrival.shape;
            // Retire requests finished by this arrival instant.
            for q in &mut outstanding {
                while q.front().is_some_and(|&f| f <= now) {
                    q.pop_front();
                }
            }

            let replica = match self.dispatch {
                DispatchPolicy::FcfsSingleQueue => fcfs.min().expect("one slot per replica").1,
                DispatchPolicy::LeastLoaded => {
                    let loads = outstanding.iter().map(|q| q.len()).enumerate();
                    super::select_min(loads, usize::cmp)
                        .expect("one queue per replica")
                        .0
                }
                DispatchPolicy::ShortestExpectedJob => {
                    let mut best = 0usize;
                    let mut best_done = f64::INFINITY;
                    for (i, &f) in free.iter().enumerate() {
                        let service = self.replicas.prices(i).service[&shape];
                        let done = f.max(now) + service.as_secs_f64();
                        if done < best_done {
                            best_done = done;
                            best = i;
                        }
                    }
                    best
                }
            };

            let prices = self.replicas.prices(replica);
            let s = prices.service[&shape].as_secs_f64();
            let prefill = prices.prefill[&shape.input];
            let start = now.max(free[replica]);
            let finish = start + s;
            free[replica] = finish;
            fcfs.set(replica, Some(finish));
            outstanding[replica].push_back(finish);
            stats.busy[replica] += s;
            let ttft = start - now + prefill;
            // Request-level scheduling has no prefix cache: every TTFT
            // is a cold one.
            stats.ttft_colds.push_n(ttft, 1);
            // Every step waits the mean gap: one run of `steps` samples
            // (none for a single-token request), kept for the request's
            // own ITL check only when it has an SLO.
            let steps = shape.generation_steps();
            let itl = (s - prefill).max(0.0) / steps.max(1) as f64;
            stats
                .itls
                .push_n(itl, steps, steps * u64::from(arrival.in_burst));
            let mut gaps = RunSample::default();
            gaps.push_n(itl, steps * u64::from(arrival.slo.is_some()));
            let attained = request_attains(arrival.slo, ttft, &mut gaps);
            let completion = arrival.completion(finish, replica, 0, 0, attained);
            stats.complete(completion, finish, s);
        }
        stats
    }
}

impl EngineCore<'_> {
    /// Admission at the iteration boundary: the admission
    /// policy's order over the already-arrived slice of the
    /// queue, bounded by batch slots and the arrival gate
    /// ([`arrival_fits`](EngineCore::arrival_fits)). Decode-only
    /// replicas never admit arrivals.
    pub(super) fn admit_arrivals(&mut self, r: usize) {
        while self.roles[r] != ReplicaRole::DecodeOnly
            && self.batch.batches[r].len() + self.lanes.incoming[r].len() < self.max_batch as usize
        {
            // The arrived slice of the queue, in (time, index) order.
            let (wait, clock, admission) =
                (&self.wait, self.batch.clock[r], self.scheduler.admission);
            let window = wait.untaken.iter().map_while(|&(_, i)| {
                let a = &wait.arrivals[i];
                (a.at <= clock).then(|| (i, a.queued_view()))
            });
            let Some((pi, _)) = super::select_min(window, |a, b| admission.compare(a, b)) else {
                break;
            };
            let arrival = self.wait.arrivals[pi];
            // Head-of-line blocking (in policy order) is faithful
            // to the policy; the gate rules out a never-admittable
            // head.
            if !self.arrival_fits(r, arrival) {
                break;
            }
            self.wait.untaken.remove(&(TimeKey(arrival.at), pi));
            self.wait.admitted += 1;
            let service = self.replicas.pricer(r).ideal_service_secs(arrival.shape);
            // Map the shared prefix (if the class opted in and the
            // cache holds it): the sequence starts with those
            // tokens already built and prefills only the suffix.
            let inherit = arrival.wf.and_then(|w| w.inherit);
            let (slot, shared_tokens) =
                match self.kv.admit(r, arrival.class, inherit, arrival.shape) {
                    Some((slot, shared)) => {
                        let stats = &mut self.stats;
                        stats.prompt_tokens += arrival.shape.input;
                        if shared > 0 {
                            stats.prefix_hits += 1;
                            stats.shared_prompt_tokens += shared;
                        }
                        if inherit.is_some() {
                            // Cross-node inheritance accounting: how much
                            // of this child's prompt its parent's KV
                            // covered (0 on a cross-replica miss).
                            stats.inheritable_tokens += arrival.shape.input;
                            stats.inherited_tokens += shared;
                        }
                        (slot, shared)
                    }
                    None => (0, 0),
                };
            // The child has claimed (or forfeited, on a miss) its
            // slot on the parent's published prefix; drop the
            // parent's cache entry once its last consumer is in.
            if let Some(w) = arrival.wf {
                let wf = &mut self.wf;
                let run = &mut wf.runs[w.inst];
                let tpl = &wf.ctx.templates[run.template];
                if let Some(parent) = run.consume_key(tpl, w.node) {
                    drop_prefix(&mut wf.key_homes, &mut self.kv.paged, w.inst, parent);
                }
            }
            let clock = self.batch.clock[r];
            let seq = ActiveSeq::admitted(arrival, service, slot, shared_tokens, clock);
            self.enter_batch(r, seq);
        }
    }
}
