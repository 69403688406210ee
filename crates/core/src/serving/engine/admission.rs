//! Admission layer: the global wait queue and both admission paths.
//!
//! This layer owns the arrival vector and the time-ordered wait queue
//! ([`WaitQueue`]), and decides when queued work becomes resident:
//! [`EngineCore::admit_arrivals`] runs the iteration-level admission
//! policy at every boundary (KV-gated, batch-slot-bounded), while
//! [`ServingSim::run_request_level`] is the whole request-level
//! scheduling mode — there a "batch" is one request and admission is
//! just dispatch, so no engine core is needed.

use super::arrivals::Arrival;
use super::batch::ActiveSeq;
use super::core::{EngineCore, MinTree};
use super::workflow_rt::drop_prefix;
use super::TimeKey;
use crate::serving::report::{request_attains, RunStats};
use crate::serving::DispatchPolicy;
use crate::serving::ReplicaRole;
use ianus_model::RequestShape;

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
        let mut stats = RunStats::new(
            n,
            self.cfg.mix.len(),
            self.cfg.requests,
            self.cfg.arrivals.tenant_count(),
        );
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
            stats.ttfts.push(ttft);
            // Request-level scheduling has no prefix cache: every TTFT
            // is a cold one.
            stats.ttft_colds.push(ttft);
            let steps = shape.generation_steps();
            let attained = if steps > 0 {
                let itl = (s - prefill).max(0.0) / steps as f64;
                stats.itls.push_n(itl, steps);
                if arrival.in_burst {
                    stats.burst_itls.push_n(itl, steps);
                }
                request_attains(arrival.slo, ttft, &mut [itl])
            } else {
                request_attains(arrival.slo, ttft, &mut [])
            };
            stats.complete(
                replica,
                arrival.class,
                now,
                s,
                finish,
                0,
                0,
                attained,
                arrival.tenant,
                arrival.in_burst,
            );
        }
        stats
    }
}

impl EngineCore<'_> {
    /// Admission at the iteration boundary: the admission
    /// policy's order over the already-arrived slice of the
    /// queue, bounded by batch slots and KV residency — the
    /// residents' *final* lengths normally, their *current*
    /// lengths (optimistic overcommit) under preemption.
    /// Decode-only replicas never admit arrivals.
    pub(super) fn admit_arrivals(&mut self, r: usize) {
        let model = self.model;
        let max_batch = self.max_batch;
        let preempt = self.preempt;
        let scheduler = self.scheduler;
        let replicas = &mut *self.replicas;
        let kv = &mut self.kv;
        let lanes = &mut self.lanes;
        let batch = &mut self.batch;
        let wait = &mut self.wait;
        let wf = &mut self.wf;
        let stats = &mut self.stats;
        while self.roles[r] != ReplicaRole::DecodeOnly
            && batch.batches[r].len() + lanes.incoming[r].len() < max_batch as usize
        {
            // The arrived slice of the queue, in (time, index) order.
            let window = wait.untaken.iter().map_while(|&(_, i)| {
                let a = &wait.arrivals[i];
                (a.at <= batch.clock[r]).then(|| (i, a.queued_view()))
            });
            let Some((pi, _)) = super::select_min(window, |a, b| scheduler.admission.compare(a, b))
            else {
                break;
            };
            let cand = &wait.arrivals[pi];
            // An invariant: `validate` admitted every class on an
            // empty replica. A refusal there would block the queue
            // (non-preempt) or admit an eviction storm (preempt).
            if let Err(e) = replicas
                .backend(r)
                .batch_fits(model, std::slice::from_ref(&cand.shape))
            {
                assert!(
                    !(batch.batches[r].is_empty()
                        && kv.swapped[r].is_empty()
                        && lanes.incoming[r].is_empty()),
                    "request {:?} can never be admitted on replica {} ({}): {}",
                    cand.shape,
                    r,
                    replicas.backend(r).name(),
                    e
                );
                break;
            }
            let fits = if let Some(p) = kv.paged[r].as_mut() {
                // Block arithmetic. The candidate's need is its
                // footprint minus whatever the prefix cache already
                // holds (capped below the whole prompt so at least
                // one token always prefills — TTFT stays
                // measurable): the imminent prompt under preemptive
                // overcommit, the final length otherwise — plus, in
                // the final-length mode, every resident's residual
                // growth to completion.
                // Workflow children gate on their inherited
                // parent prefix; flat classes on their class
                // prefix (a workflow node's synthetic class
                // never declares one).
                let cand_key = cand
                    .wf
                    .and_then(|w| w.inherit)
                    .or(kv.class_keys[cand.class]);
                let hit_tokens = cand_key.map_or(0, |key| {
                    p.prefix_hit_tokens(key, cand.shape.input.saturating_sub(1))
                });
                let mut need = if preempt {
                    p.blocks_for(cand.shape.input)
                } else {
                    p.blocks_for(cand.shape.total_tokens())
                }
                .saturating_sub(p.blocks_for(hit_tokens));
                if !preempt {
                    for s in batch.batches[r].seqs() {
                        need += p.growth(s.slot, s.shape.total_tokens());
                    }
                }
                p.reclaim(need);
                if need <= p.free_blocks() {
                    stats.peak_kv_occupancy = stats.peak_kv_occupancy.max(p.occupancy_plus(need));
                    true
                } else {
                    false
                }
            } else {
                let resident: Vec<RequestShape> = if preempt {
                    // In-flight KV holds device memory too: reserved
                    // swap-ins, and swap-outs not yet drained.
                    let mut v: Vec<RequestShape> = batch.batches[r]
                        .settled()
                        .iter()
                        .map(|s| ActiveSeq::kv_shape(s.past))
                        .chain(lanes.in_flight_shapes(r))
                        .collect();
                    // The candidate's imminent footprint: its whole
                    // prompt's KV, at prefill activation width.
                    v.push(RequestShape {
                        input: cand.shape.input.max(1),
                        output: 1,
                    });
                    v
                } else {
                    let mut v: Vec<RequestShape> =
                        batch.batches[r].seqs().iter().map(|s| s.shape).collect();
                    v.push(cand.shape);
                    v
                };
                match replicas.backend(r).batch_fits(model, &resident) {
                    Ok(occupancy) => {
                        stats.peak_kv_occupancy = stats.peak_kv_occupancy.max(occupancy);
                        true
                    }
                    Err(_) => false,
                }
            };
            // Head-of-line blocking (in policy order) is faithful
            // to the policy; the lone-request check above already
            // ruled out a never-admittable head.
            if !fits {
                break;
            }
            wait.untaken.remove(&(TimeKey(wait.arrivals[pi].at), pi));
            wait.admitted += 1;
            let arrival = wait.arrivals[pi];
            let service = replicas.pricer(r).ideal_service_secs(arrival.shape);
            // Map the shared prefix (if the class opted in and the
            // cache holds it): the sequence starts with those
            // tokens already built and prefills only the suffix.
            let (mut slot, mut shared_tokens) = (0, 0u64);
            if let Some(p) = kv.paged[r].as_mut() {
                let inherit_key = arrival.wf.and_then(|w| w.inherit);
                (slot, shared_tokens) = p.admit(
                    inherit_key.or(kv.class_keys[arrival.class]),
                    arrival.shape.input.saturating_sub(1),
                    arrival.shape.total_tokens(),
                );
                stats.prompt_tokens += arrival.shape.input;
                if shared_tokens > 0 {
                    stats.prefix_hits += 1;
                    stats.shared_prompt_tokens += shared_tokens;
                }
                if inherit_key.is_some() {
                    // Cross-node inheritance accounting: how much
                    // of this child's prompt its parent's KV
                    // covered (0 on a cross-replica miss).
                    stats.inheritable_tokens += arrival.shape.input;
                    stats.inherited_tokens += shared_tokens;
                }
            }
            // The child has claimed (or forfeited, on a miss) its
            // slot on the parent's published prefix; drop the
            // parent's cache entry once its last consumer is in.
            if let Some(w) = arrival.wf {
                let run = &mut wf.runs[w.inst];
                let tpl = &wf.ctx.templates[run.template];
                if let Some(parent) = run.consume_key(tpl, w.node) {
                    drop_prefix(&mut wf.key_homes, &mut kv.paged, w.inst, parent);
                }
            }
            stats.peak_batch = stats.peak_batch.max(batch.batches[r].len() as u32 + 1);
            let seq = ActiveSeq {
                shape: arrival.shape,
                arrival: arrival.at,
                idx: arrival.idx,
                service,
                class: arrival.class,
                priority: arrival.priority,
                slo: arrival.slo,
                prefilled: shared_tokens,
                prefill_target: arrival.shape.input,
                past: shared_tokens,
                remaining: arrival.shape.generation_steps(),
                last_token: batch.clock[r],
                ttft: 0.0,
                gaps: Vec::new(),
                preemptions: 0,
                recomputes: 0,
                swap_epoch: 0,
                hosted_bytes: 0,
                just_prefilled: false,
                shared_tokens,
                cache_hit: shared_tokens > 0,
                tenant: arrival.tenant,
                in_burst: arrival.in_burst,
                wf: arrival.wf,
                slot,
                growth: 0,
                steady: None,
            };
            batch.batches[r].push(seq, kv.paged[r].as_ref());
        }
    }
}
