//! Workflow runtime layer: per-instance run state and the completion
//! fan-out.
//!
//! A workflow mix replaces the flat request mix with DAG instances.
//! This layer owns the immutable per-template tables ([`WfCtx`]), the
//! per-arrival workflow identity ([`WfTag`]), and the cross-layer
//! fan-out contract ([`WfWorld`]): when a node completes, the batch
//! layer hands this layer mutable views of the wait queue and the paged
//! pools, and gets back newly released child arrivals, settled
//! cancellations, and published prefix keys. No other layer inspects
//! workflow state.

use super::arrivals::Arrival;
use super::batch::ActiveSeq;
use super::TimeKey;
use crate::serving::kv::PagedKv;
use crate::serving::report::RunStats;
use crate::serving::workflow::{workflow_prefix_key, NodeState, WorkflowRun, WorkflowTemplate};
use crate::serving::{RequestClass, ServingConfig};
use ianus_model::RequestShape;
use std::collections::{BTreeSet, HashMap};

/// Workflow identity of an arrival / active sequence: which node of
/// which instance it serves, plus the denormalized workflow context the
/// policies and completion fan-out need. `None` on every flat-mix
/// request.
#[derive(Debug, Clone, Copy)]
pub(super) struct WfTag {
    /// Workflow instance index (into the engine's run table).
    pub(super) inst: usize,
    /// Node index inside the instance's template.
    pub(super) node: usize,
    /// Prefix-cache key of the lowest-index parent's published KV —
    /// what this node admits with under paged accounting. `None` for
    /// root nodes.
    pub(super) inherit: Option<u64>,
    /// Absolute end-to-end deadline of the instance.
    pub(super) deadline: Option<f64>,
    /// Transitive descendant count of the node (admission width).
    pub(super) blocked_descendants: u32,
}

/// Immutable per-template tables the workflow hooks index at runtime:
/// the templates themselves, each template's first synthetic class
/// index (node `n` of template `t` is class `base[t] + n`), per-node
/// effective shapes, and per-node transitive descendant counts.
pub(super) struct WfCtx {
    pub(super) templates: Vec<WorkflowTemplate>,
    pub(super) base: Vec<usize>,
    pub(super) shapes: Vec<Vec<RequestShape>>,
    pub(super) blocked: Vec<Vec<u32>>,
}

/// The workflow runtime's mutable state, owned by the engine core for
/// the duration of one run: the per-instance run table, the
/// key→replica home map for published prefixes, and the inheritance
/// knob.
pub(super) struct WorkflowRt {
    /// Immutable per-template tables.
    pub(super) ctx: WfCtx,
    /// Per-instance run state, indexed by [`WfTag::inst`].
    pub(super) runs: Vec<WorkflowRun>,
    /// Which replica holds each live workflow prefix key's blocks.
    pub(super) key_homes: HashMap<u64, usize>,
    /// Whether children admit with inherited parent KV (the engine's
    /// `workflow_inheritance` knob gated on paged mode).
    pub(super) inheritance: bool,
}

/// Everything one workflow-node completion touches outside the
/// completing replica: the instance's run state, the arrival vector and
/// wait queue (released children are appended as new arrivals), the
/// paged pools (prefix registration and expired-key drops), the
/// key→replica home table, and the run counters.
pub(super) struct WfWorld<'a> {
    pub(super) ctx: &'a WfCtx,
    pub(super) runs: &'a mut [WorkflowRun],
    pub(super) arrivals: &'a mut Vec<Arrival>,
    pub(super) untaken: &'a mut BTreeSet<(TimeKey, usize)>,
    pub(super) paged: &'a mut [Option<PagedKv>],
    /// Which replica holds each live workflow prefix key's blocks.
    pub(super) key_homes: &'a mut HashMap<u64, usize>,
    /// Whether children admit with inherited parent KV (the engine's
    /// `workflow_inheritance` knob gated on paged mode).
    pub(super) inheritance: bool,
}

impl WfCtx {
    /// Appends node `node` of instance `inst` to `arrivals` and records
    /// its slot in `run`: the node's class, effective shape and
    /// admission width, the instance's priority and deadline, and
    /// `inherit` as its prefix key. `(at, tenant, in_burst)` is the
    /// instance's draw for a root; a child arrives when its last parent
    /// completes and keeps the instance's attribution, so burst
    /// accounting follows the load that launched the workflow. Returns
    /// the arrival's index.
    pub(super) fn push_node(
        &self,
        arrivals: &mut Vec<Arrival>,
        run: &mut WorkflowRun,
        inst: usize,
        node: usize,
        inherit: Option<u64>,
        (at, tenant, in_burst): (f64, u32, bool),
    ) -> usize {
        let (t, idx) = (run.template, arrivals.len());
        run.node_arrival[node] = Some(idx);
        arrivals.push(Arrival {
            at,
            idx: idx as u64,
            class: self.base[t] + node,
            shape: self.shapes[t][node],
            priority: self.templates[t].priority,
            slo: None,
            tenant,
            in_burst,
            wf: Some(WfTag {
                inst,
                node,
                inherit,
                deadline: run.deadline,
                blocked_descendants: self.blocked[t][node],
            }),
        });
        idx
    }
}

/// Drops `parent`'s published prefix (instance `inst`) from whichever
/// replica holds it, if it was ever registered.
pub(super) fn drop_prefix(
    key_homes: &mut HashMap<u64, usize>,
    paged: &mut [Option<PagedKv>],
    inst: usize,
    parent: usize,
) {
    let key = workflow_prefix_key(inst as u64, parent);
    if let Some(home) = key_homes.remove(&key) {
        if let Some(p) = paged[home].as_mut() {
            p.drop_prefix(key);
        }
    }
}

impl WfWorld<'_> {
    /// Fans out `seq`, a completed workflow node: publishes its KV for
    /// inheriting children (must run *before* the caller completes the
    /// sequence in the paged pool, while its table is still live),
    /// settles speculative cancellations, appends newly released
    /// children to the arrival vector at `now`, and records finished
    /// instances.
    pub(super) fn on_node_complete(
        &mut self,
        seq: &ActiveSeq,
        replica: usize,
        now: f64,
        stats: &mut RunStats,
    ) {
        let tag = seq.wf.expect("a workflow node completed");
        let ctx = self.ctx;
        let tpl = &ctx.templates[self.runs[tag.inst].template];
        // Publish this node's output KV under its per-(instance, node)
        // key while the sequence's block table is still alive. Only
        // nodes with *live* consumers publish — a speculative loser
        // whose children were all cancelled before it finished has
        // nothing left to feed.
        if self.inheritance && self.runs[tag.inst].live_consumers(tag.node) > 0 {
            if let Some(p) = self.paged[replica].as_mut() {
                let key = workflow_prefix_key(tag.inst as u64, tag.node);
                if p.register_prefix(seq.slot, key, tpl.nodes[tag.node].shape.output)
                    .is_some()
                {
                    self.key_homes.insert(key, replica);
                }
            }
        }
        let mut out = self.runs[tag.inst].on_complete(tpl, tag.node);
        let mut settled = out.workflow_done;
        // Waiting nodes cancelled outright never reach the engine; they
        // settle here.
        stats.cancelled_nodes += out.cancelled.len() as u64;
        // Released speculative losers: still queued → cancel in place;
        // already admitted → run to completion (their children are
        // cancelled, so the late completion fans out to nothing).
        for i in 0..out.cancel_released.len() {
            let n = out.cancel_released[i];
            let run = &mut self.runs[tag.inst];
            let ai = run.node_arrival[n].expect("released node has an arrival slot");
            if self.untaken.remove(&(TimeKey(self.arrivals[ai].at), ai)) {
                stats.cancelled_nodes += 1;
                settled |= run.confirm_cancel(tpl, n, &mut out);
            } else {
                run.keep_running(n);
            }
        }
        for i in 0..out.expired_keys.len() {
            drop_prefix(self.key_homes, self.paged, tag.inst, out.expired_keys[i]);
        }
        // Release ready children as fresh arrivals at the completion
        // instant.
        for &c in &out.released {
            let run = &mut self.runs[tag.inst];
            let inherit = if self.inheritance {
                tpl.nodes[c]
                    .parents
                    .iter()
                    .min()
                    .map(|&p| workflow_prefix_key(tag.inst as u64, p))
            } else {
                None
            };
            let origin = (now, seq.tenant, seq.in_burst);
            let ai = ctx.push_node(self.arrivals, run, tag.inst, c, inherit, origin);
            self.untaken.insert((TimeKey(now), ai));
        }
        debug_assert!(
            out.released
                .iter()
                .all(|&c| self.runs[tag.inst].state(c) == NodeState::Released),
            "fan-out queued a node that is not in the Released state"
        );
        if settled {
            let run = &self.runs[tag.inst];
            debug_assert!(run.done(), "a settled instance owes no node an outcome");
            stats.workflow_latencies.push(now - run.start);
            if run.deadline.is_none_or(|d| now <= d) {
                stats.workflow_attained += 1;
            }
        }
    }
}

/// Derives the run's per-class accounting mix from a config: the flat
/// mix verbatim, or — under a workflow mix — one synthetic class per
/// (template, node) in template order, shaped by the node's *effective*
/// prompt (own prompt plus every parent's output). Synthetic classes
/// carry the template's priority, no SLO (workflow deadlines are
/// whole-instance, not per-node), and no class-level prefix (workflow
/// nodes share KV through per-instance inheritance keys instead).
pub(super) fn effective_mix(cfg: &ServingConfig) -> Vec<RequestClass> {
    if cfg.workflows.is_empty() {
        return cfg.mix.clone();
    }
    let mut mix = Vec::new();
    for tpl in &cfg.workflows {
        for (node, eff) in tpl.effective_inputs().into_iter().enumerate() {
            mix.push(RequestClass {
                shape: RequestShape {
                    input: eff,
                    output: tpl.nodes[node].shape.output,
                },
                weight: tpl.weight,
                priority: tpl.priority,
                slo: None,
                prefix_tokens: 0,
            });
        }
    }
    mix
}

/// Per-template tables the workflow hooks index at runtime, all
/// derived once from the validated templates and the run's effective
/// `mix` ([`effective_mix`]).
pub(super) fn workflow_ctx(cfg: &ServingConfig, mix: &[RequestClass]) -> WfCtx {
    let templates = cfg.workflows.clone();
    let (mut base, mut shapes) = (Vec::new(), Vec::new());
    let mut next = 0usize;
    for tpl in &templates {
        base.push(next);
        let nodes = &mix[next..next + tpl.node_count()];
        shapes.push(nodes.iter().map(|c| c.shape).collect());
        next += tpl.node_count();
    }
    let blocked = templates.iter().map(|t| t.blocked_descendants()).collect();
    WfCtx {
        templates,
        base,
        shapes,
        blocked,
    }
}
