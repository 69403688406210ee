//! Agentic workflow DAGs: dependency-scheduled request graphs.
//!
//! A [`WorkflowTemplate`] describes one multi-step "agentic" job as a
//! DAG of [`WorkflowNode`]s. Each node is an LLM call with its own
//! [`RequestShape`]; edges mean *the child's prompt consumes the
//! parent's output*, so a node's **effective input** is its own prompt
//! plus the sum of its parents' outputs. The serving engine
//! ([`ServingSim`](super::ServingSim)) instantiates templates from a
//! Poisson arrival process (one draw per workflow *instance*, mirroring
//! the flat mix so a single-node template is bit-identical to the
//! equivalent [`RequestClass`](super::RequestClass) mix) and schedules
//! nodes with ready/waiting sets: a node enters the wait queue only
//! when its **last** parent completes, and each completion fans out to
//! its children.
//!
//! Two properties distinguish workflow traffic from flat mixes:
//!
//! - **KV prefix inheritance** — under paged KV accounting the parent
//!   registers its output's KV blocks in the
//!   [`PrefixCache`](super::kv::PrefixCache) just before it completes,
//!   and the child admits with those blocks mapped copy-on-write, so it
//!   prefills only its own prompt suffix (shorter prefill → lower
//!   TTFT). The cache entry is dropped eagerly once every consumer has
//!   admitted or been cancelled.
//! - **Speculative cancellation** — siblings sharing a
//!   [`speculative_group`](WorkflowNode::speculative_group) race:
//!   the first to finish wins, and every losing sibling's subtree is
//!   cancelled (queued nodes leave the wait queue, never-released nodes
//!   never enter it, and their refcounted KV is released).
//!
//! Graphs are validated *before* the run by a three-color DFS
//! ([`WorkflowTemplate::validate`]) that rejects cycles and dangling
//! parent references, so the runtime scheduler never has to defend
//! against malformed graphs.

use super::Priority;
use ianus_model::RequestShape;

/// One LLM call inside a [`WorkflowTemplate`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowNode {
    /// This node's own prompt and output lengths. The engine serves the
    /// node at its *effective* shape: `shape.input` plus the sum of its
    /// parents' `shape.output` (the parents' outputs are part of the
    /// child's prompt), with `shape.output` unchanged.
    pub shape: RequestShape,
    /// Indices (into [`WorkflowTemplate::nodes`]) of the nodes whose
    /// outputs this node's prompt consumes. Empty for root nodes.
    /// Self-references, out-of-range indices, and cycles are rejected
    /// by [`WorkflowTemplate::validate`].
    pub parents: Vec<usize>,
    /// Speculative-race tag: all nodes of a template carrying the same
    /// group id race each other — the first to complete wins and every
    /// other member's subtree is cancelled. `None` (the default) means
    /// the node always runs.
    pub speculative_group: Option<u32>,
}

impl WorkflowNode {
    /// A root node (no parents, no speculative group).
    pub fn new(shape: RequestShape) -> Self {
        WorkflowNode {
            shape,
            parents: Vec::new(),
            speculative_group: None,
        }
    }

    /// A node depending on `parents` (indices into the template).
    pub fn with_parents(shape: RequestShape, parents: Vec<usize>) -> Self {
        WorkflowNode {
            shape,
            parents,
            speculative_group: None,
        }
    }

    /// A speculative node: depends on `parents` and races every other
    /// node of the template tagged with the same `group`.
    pub fn speculative(shape: RequestShape, parents: Vec<usize>, group: u32) -> Self {
        WorkflowNode {
            shape,
            parents,
            speculative_group: Some(group),
        }
    }
}

/// A weighted, reusable workflow DAG the engine can instantiate.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowTemplate {
    /// The DAG's nodes; edges are the per-node
    /// [`parents`](WorkflowNode::parents) lists.
    pub nodes: Vec<WorkflowNode>,
    /// Relative weight of this template in the workflow mix (weights
    /// need not sum to one; as in the flat mix's class draw, a draw
    /// past the running total falls back to the last template).
    pub weight: f64,
    /// Scheduling tier every node of an instance runs at.
    pub priority: Priority,
    /// End-to-end deadline in seconds, measured from the instance's
    /// arrival to the completion of its last non-cancelled node.
    /// Scored as `workflow_slo_attainment` in the
    /// [`ServingReport`](super::ServingReport), and visible to
    /// policies as the `workflow_deadline` on every queued node.
    pub deadline_secs: Option<f64>,
}

/// Why [`WorkflowTemplate::validate`] rejected a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkflowError {
    /// The template has no nodes.
    Empty,
    /// A dependency cycle passes through `node` (detected as a
    /// back-edge to an in-progress node of the three-color DFS).
    Cycle {
        /// A node on the cycle.
        node: usize,
    },
    /// `node` names a parent that does not exist (out of range or a
    /// self-reference).
    DanglingParent {
        /// The node carrying the bad edge.
        node: usize,
        /// The offending parent index.
        parent: usize,
    },
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WorkflowError::Empty => write!(f, "workflow template has no nodes"),
            WorkflowError::Cycle { node } => {
                write!(f, "workflow dependency cycle through node {node}")
            }
            WorkflowError::DanglingParent { node, parent } => {
                write!(f, "workflow node {node} references missing parent {parent}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// DFS colors of the preflight cycle check: WHITE = unvisited, GRAY =
/// on the current DFS stack (a back-edge to GRAY is a cycle), BLACK =
/// fully explored.
#[derive(Clone, Copy, PartialEq)]
enum Color {
    White,
    Gray,
    Black,
}

impl WorkflowTemplate {
    /// An [`Priority::Interactive`] template of `nodes` with `weight`
    /// and no deadline.
    pub fn new(nodes: Vec<WorkflowNode>, weight: f64) -> Self {
        WorkflowTemplate {
            nodes,
            weight,
            priority: Priority::Interactive,
            deadline_secs: None,
        }
    }

    /// Replaces the priority tier (builder style).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches an end-to-end deadline in seconds (builder style).
    pub fn with_deadline(mut self, deadline_secs: f64) -> Self {
        self.deadline_secs = Some(deadline_secs);
        self
    }

    /// Number of nodes in the DAG.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Preflight validation: rejects empty templates, dangling or
    /// self-referential parent edges, and dependency cycles (iterative
    /// three-color DFS — a back-edge to a GRAY node is a cycle).
    pub fn validate(&self) -> Result<(), WorkflowError> {
        if self.nodes.is_empty() {
            return Err(WorkflowError::Empty);
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for &p in &node.parents {
                if p >= self.nodes.len() || p == i {
                    return Err(WorkflowError::DanglingParent { node: i, parent: p });
                }
            }
        }
        let mut color = vec![Color::White; self.nodes.len()];
        for start in 0..self.nodes.len() {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS over parent edges; (node, next-parent cursor).
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&(n, cursor)) = stack.last() {
                if cursor < self.nodes[n].parents.len() {
                    stack.last_mut().expect("non-empty stack").1 += 1;
                    let p = self.nodes[n].parents[cursor];
                    match color[p] {
                        Color::Gray => return Err(WorkflowError::Cycle { node: p }),
                        Color::White => {
                            color[p] = Color::Gray;
                            stack.push((p, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[n] = Color::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Per-node children lists (the transpose of the parent edges).
    pub(crate) fn children(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &p in &node.parents {
                out[p].push(i);
            }
        }
        out
    }

    /// Per-node effective input lengths: own prompt plus the sum of
    /// parent outputs (the parents' outputs are part of the child's
    /// prompt).
    pub fn effective_inputs(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| {
                n.shape.input
                    + n.parents
                        .iter()
                        .map(|&p| self.nodes[p].shape.output)
                        .sum::<u64>()
            })
            .collect()
    }

    /// Per-node count of transitive descendants — how many downstream
    /// nodes a completion (eventually) unblocks. Exposed to admission
    /// policies as `blocked_descendants` so
    /// [`AdmissionPolicy::WidestSubtree`](super::AdmissionPolicy::WidestSubtree)
    /// can favor nodes that unblock the most work.
    pub fn blocked_descendants(&self) -> Vec<u32> {
        let children = self.children();
        let n = self.nodes.len();
        let mut counts = vec![0u32; n];
        // Per-start DFS; graphs are tiny (validated DAGs), so the
        // quadratic walk is simpler than a topological accumulation and
        // counts each distinct descendant exactly once.
        for start in 0..n {
            let mut seen = vec![false; n];
            let mut stack: Vec<usize> = children[start].clone();
            while let Some(c) = stack.pop() {
                if !seen[c] {
                    seen[c] = true;
                    counts[start] += 1;
                    stack.extend(children[c].iter().copied());
                }
            }
        }
        counts
    }

    /// Per-node count of children that will *inherit* this node's KV:
    /// a child admits with the prefix of its lowest-index parent, so
    /// this is the number of children whose minimum parent is the node.
    /// The engine drops the node's cached prefix once this many
    /// consumers have admitted or been cancelled.
    pub(crate) fn key_consumers(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            if let Some(&min) = node.parents.iter().min() {
                counts[min] += 1;
            }
        }
        counts
    }

    /// Built-in 4-step agent chain: plan → act → act → summarize.
    /// Pure pipeline; each step's prompt consumes the previous step's
    /// output, so under paged KV every non-root step admits with
    /// inherited prefix blocks.
    pub fn agent_chain() -> Self {
        WorkflowTemplate::new(
            vec![
                WorkflowNode::new(RequestShape::new(512, 128)),
                WorkflowNode::with_parents(RequestShape::new(64, 128), vec![0]),
                WorkflowNode::with_parents(RequestShape::new(64, 128), vec![1]),
                WorkflowNode::with_parents(RequestShape::new(64, 64), vec![2]),
            ],
            1.0,
        )
        .with_deadline(60.0)
    }

    /// Built-in tool-call fan-out: a planner node fans out to four
    /// parallel tool calls whose outputs a join node aggregates. The
    /// join waits for its *last* parent, so its queueing exposes the
    /// straggler tool — the shape widest-subtree admission helps.
    pub fn tool_fanout() -> Self {
        WorkflowTemplate::new(
            vec![
                WorkflowNode::new(RequestShape::new(256, 64)),
                WorkflowNode::with_parents(RequestShape::new(32, 48), vec![0]),
                WorkflowNode::with_parents(RequestShape::new(32, 48), vec![0]),
                WorkflowNode::with_parents(RequestShape::new(32, 48), vec![0]),
                WorkflowNode::with_parents(RequestShape::new(32, 48), vec![0]),
                WorkflowNode::with_parents(RequestShape::new(16, 96), vec![1, 2, 3, 4]),
            ],
            1.0,
        )
        .with_deadline(60.0)
    }

    /// Built-in speculative race: a root spawns two branches in one
    /// speculative group, each with its own continuation. The first
    /// branch to finish wins; the loser and its continuation are
    /// cancelled (and their queued work and refcounted KV released).
    pub fn speculative() -> Self {
        WorkflowTemplate::new(
            vec![
                WorkflowNode::new(RequestShape::new(256, 64)),
                WorkflowNode::speculative(RequestShape::new(64, 96), vec![0], 1),
                WorkflowNode::speculative(RequestShape::new(64, 96), vec![0], 1),
                WorkflowNode::with_parents(RequestShape::new(32, 64), vec![1]),
                WorkflowNode::with_parents(RequestShape::new(32, 64), vec![2]),
            ],
            1.0,
        )
        .with_deadline(60.0)
    }
}

/// Prefix-cache key for a workflow node's published KV: the
/// [`fnv1a`](super::kv::fnv1a) hash of [`kv::prefix_key`](super::kv::prefix_key),
/// but salted and over three words so workflow keys can never collide
/// with per-class keys (which hash exactly two words).
pub(crate) fn workflow_prefix_key(instance: u64, node: usize) -> u64 {
    const SALT: u64 = 0x9e37_79b9_7f4a_7c15;
    super::kv::fnv1a(&[SALT, instance, node as u64])
}

/// Lifecycle of one node inside a running instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Has unmet dependencies; not yet in the wait queue.
    Waiting,
    /// Released to the engine's wait queue (queued or in service).
    Released,
    /// Completed.
    Done,
    /// Cancelled (speculative loser subtree); never completes.
    Cancelled,
}

/// What one node completion fans out to.
#[derive(Debug, Default)]
pub(crate) struct FanOut {
    /// Children whose last parent just completed — now ready to queue.
    pub released: Vec<usize>,
    /// Waiting nodes cancelled outright (never released to the engine).
    pub cancelled: Vec<usize>,
    /// Already-released speculative losers: the engine must cancel them
    /// if still queued ([`WorkflowRun::confirm_cancel`]) or let them run
    /// to completion if already admitted ([`WorkflowRun::keep_running`]).
    pub cancel_released: Vec<usize>,
    /// Nodes whose cached KV prefix lost its last consumer to a
    /// cancellation and can be dropped from the prefix cache.
    pub expired_keys: Vec<usize>,
    /// The instance finished with this event (no nodes left pending).
    pub workflow_done: bool,
}

/// Runtime ready/waiting bookkeeping for one workflow instance.
///
/// The template is immutable shared state; this struct tracks the
/// mutable per-instance node lifecycle — pending-parent counts, node
/// states, speculative-group outcomes, and prefix-consumer refcounts.
#[derive(Debug, Clone)]
pub(crate) struct WorkflowRun {
    /// Index into the config's template list.
    pub template: usize,
    /// Instance arrival time (the Poisson draw).
    pub start: f64,
    /// Absolute deadline (`start + deadline_secs`).
    pub deadline: Option<f64>,
    /// Per-node count of not-yet-completed parents.
    pending: Vec<u32>,
    state: Vec<NodeState>,
    /// Nodes still owed an outcome (neither done nor cancelled).
    remaining: u32,
    /// Per-node prefix-cache consumers not yet admitted or cancelled.
    key_consumers: Vec<u32>,
    /// Speculative groups already decided (winner completed).
    decided: Vec<u32>,
    /// Per-node index into the engine's arrival vector, filled when the
    /// node is released — how the engine finds a released loser in its
    /// wait queue to arbitrate a cancellation.
    pub node_arrival: Vec<Option<usize>>,
}

impl WorkflowRun {
    /// Fresh instance state for `tpl` arriving at `start`.
    pub fn new(template: usize, tpl: &WorkflowTemplate, start: f64) -> Self {
        WorkflowRun {
            template,
            start,
            deadline: tpl.deadline_secs.map(|d| start + d),
            pending: tpl.nodes.iter().map(|n| n.parents.len() as u32).collect(),
            state: vec![NodeState::Waiting; tpl.nodes.len()],
            remaining: tpl.nodes.len() as u32,
            key_consumers: tpl.key_consumers(),
            decided: Vec::new(),
            node_arrival: vec![None; tpl.nodes.len()],
        }
    }

    /// Marks every parentless node released and returns them in index
    /// order (the instance's initial arrivals).
    pub fn release_roots(&mut self) -> Vec<usize> {
        let mut roots = Vec::new();
        for n in 0..self.pending.len() {
            if self.pending[n] == 0 {
                self.state[n] = NodeState::Released;
                roots.push(n);
            }
        }
        roots
    }

    /// Current state of `node`.
    pub fn state(&self, node: usize) -> NodeState {
        self.state[node]
    }

    /// True once every node is done or cancelled.
    pub fn done(&self) -> bool {
        self.remaining == 0
    }

    /// Records `node`'s completion: marks it done, decides its
    /// speculative group (first finisher wins; losers' subtrees are
    /// cancelled), and fans out to children whose last parent this was.
    pub fn on_complete(&mut self, tpl: &WorkflowTemplate, node: usize) -> FanOut {
        let mut out = FanOut::default();
        debug_assert!(matches!(
            self.state[node],
            NodeState::Released | NodeState::Cancelled
        ));
        // A cancelled-but-admitted loser finishing late: it still
        // counted toward `remaining` only if the engine kept it running
        // (keep_running reverted it to Released), so a Cancelled state
        // here would be a bookkeeping bug.
        debug_assert_eq!(self.state[node], NodeState::Released);
        self.state[node] = NodeState::Done;
        self.remaining -= 1;

        let children = tpl.children();
        // Decide the speculative race before fan-out so a winner never
        // releases a child it shares with a just-cancelled loser.
        if let Some(g) = tpl.nodes[node].speculative_group {
            if !self.decided.contains(&g) {
                self.decided.push(g);
                for m in 0..tpl.nodes.len() {
                    if m != node
                        && tpl.nodes[m].speculative_group == Some(g)
                        && self.state[m] != NodeState::Done
                        && self.state[m] != NodeState::Cancelled
                    {
                        self.cancel_subtree(tpl, &children, m, &mut out);
                    }
                }
            }
        }

        for &c in &children[node] {
            self.pending[c] -= 1;
            if self.pending[c] == 0 && self.state[c] == NodeState::Waiting {
                self.state[c] = NodeState::Released;
                out.released.push(c);
            }
        }
        out.workflow_done = self.remaining == 0;
        out
    }

    /// Cancels `root` and its transitive descendants. Waiting nodes are
    /// cancelled outright; already-released nodes (only possible for
    /// `root` itself — a descendant of a non-done node always has a
    /// pending parent) go to `cancel_released` for the engine to
    /// arbitrate against its wait queue.
    fn cancel_subtree(
        &mut self,
        tpl: &WorkflowTemplate,
        children: &[Vec<usize>],
        root: usize,
        out: &mut FanOut,
    ) {
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            match self.state[n] {
                NodeState::Waiting => {
                    self.state[n] = NodeState::Cancelled;
                    self.remaining -= 1;
                    out.cancelled.push(n);
                    self.consume_parent_key(tpl, n, out);
                    stack.extend(children[n].iter().copied());
                }
                NodeState::Released => {
                    out.cancel_released.push(n);
                    stack.extend(children[n].iter().copied());
                }
                // Reconvergent edge from an already-cancelled branch, or
                // (for Done) a node the winner also reached — stop here.
                NodeState::Cancelled | NodeState::Done => {}
            }
        }
    }

    /// Confirms an engine-side cancellation of a released-but-unadmitted
    /// node (it was still in the wait queue). Returns `true` when the
    /// instance finished with this cancellation.
    pub fn confirm_cancel(
        &mut self,
        tpl: &WorkflowTemplate,
        node: usize,
        out: &mut FanOut,
    ) -> bool {
        debug_assert_eq!(self.state[node], NodeState::Released);
        self.state[node] = NodeState::Cancelled;
        self.remaining -= 1;
        self.consume_parent_key(tpl, node, out);
        self.remaining == 0
    }

    /// The engine found a speculative loser already admitted; it runs to
    /// completion (its children stay cancelled, so its completion fans
    /// out to nothing).
    pub fn keep_running(&mut self, node: usize) {
        debug_assert_eq!(self.state[node], NodeState::Released);
    }

    /// How many of `node`'s inheriting consumers have not yet admitted
    /// or been cancelled — when 0, publishing its KV would feed no one.
    pub fn live_consumers(&self, node: usize) -> u32 {
        self.key_consumers[node]
    }

    /// Records that `node` (a child with parents) consumed — or, by
    /// cancellation, forfeited — its inherited-prefix slot on its
    /// lowest-index parent. Returns the parent whose cached prefix just
    /// lost its final consumer, if any.
    pub fn consume_key(&mut self, tpl: &WorkflowTemplate, node: usize) -> Option<usize> {
        let &min = tpl.nodes[node].parents.iter().min()?;
        debug_assert!(self.key_consumers[min] > 0);
        self.key_consumers[min] -= 1;
        (self.key_consumers[min] == 0).then_some(min)
    }

    fn consume_parent_key(&mut self, tpl: &WorkflowTemplate, node: usize, out: &mut FanOut) {
        if let Some(expired) = self.consume_key(tpl, node) {
            out.expired_keys.push(expired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_templates_validate() {
        for tpl in [
            WorkflowTemplate::agent_chain(),
            WorkflowTemplate::tool_fanout(),
            WorkflowTemplate::speculative(),
        ] {
            tpl.validate().expect("builtin template must be valid");
        }
    }

    #[test]
    fn cycle_rejected() {
        let tpl = WorkflowTemplate::new(
            vec![
                WorkflowNode::with_parents(RequestShape::new(8, 8), vec![2]),
                WorkflowNode::with_parents(RequestShape::new(8, 8), vec![0]),
                WorkflowNode::with_parents(RequestShape::new(8, 8), vec![1]),
            ],
            1.0,
        );
        assert!(matches!(tpl.validate(), Err(WorkflowError::Cycle { .. })));
    }

    #[test]
    fn dangling_and_self_edges_rejected() {
        let tpl = WorkflowTemplate::new(
            vec![WorkflowNode::with_parents(RequestShape::new(8, 8), vec![7])],
            1.0,
        );
        assert_eq!(
            tpl.validate(),
            Err(WorkflowError::DanglingParent { node: 0, parent: 7 })
        );
        let tpl = WorkflowTemplate::new(
            vec![WorkflowNode::with_parents(RequestShape::new(8, 8), vec![0])],
            1.0,
        );
        assert_eq!(
            tpl.validate(),
            Err(WorkflowError::DanglingParent { node: 0, parent: 0 })
        );
        assert!(WorkflowTemplate::new(vec![], 1.0).validate().is_err());
    }

    #[test]
    fn effective_inputs_sum_parent_outputs() {
        let tpl = WorkflowTemplate::tool_fanout();
        let eff = tpl.effective_inputs();
        assert_eq!(eff[0], 256);
        assert_eq!(eff[1], 32 + 64);
        assert_eq!(eff[5], 16 + 4 * 48);
    }

    #[test]
    fn blocked_descendants_counts_transitively() {
        let tpl = WorkflowTemplate::agent_chain();
        assert_eq!(tpl.blocked_descendants(), vec![3, 2, 1, 0]);
        let tpl = WorkflowTemplate::tool_fanout();
        assert_eq!(tpl.blocked_descendants(), vec![5, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn chain_fanout_lifecycle() {
        let tpl = WorkflowTemplate::agent_chain();
        let mut run = WorkflowRun::new(0, &tpl, 0.0);
        assert_eq!(run.release_roots(), vec![0]);
        let out = run.on_complete(&tpl, 0);
        assert_eq!(out.released, vec![1]);
        assert!(!out.workflow_done);
        run.on_complete(&tpl, 1);
        run.on_complete(&tpl, 2);
        let out = run.on_complete(&tpl, 3);
        assert!(out.workflow_done);
        assert!(run.done());
    }

    #[test]
    fn join_waits_for_last_parent() {
        let tpl = WorkflowTemplate::tool_fanout();
        let mut run = WorkflowRun::new(0, &tpl, 0.0);
        run.release_roots();
        let out = run.on_complete(&tpl, 0);
        assert_eq!(out.released, vec![1, 2, 3, 4]);
        for tool in [1, 2, 3] {
            assert!(run.on_complete(&tpl, tool).released.is_empty());
        }
        assert_eq!(run.on_complete(&tpl, 4).released, vec![5]);
    }

    #[test]
    fn speculative_loser_subtree_cancelled() {
        let tpl = WorkflowTemplate::speculative();
        let mut run = WorkflowRun::new(0, &tpl, 0.0);
        run.release_roots();
        let out = run.on_complete(&tpl, 0);
        assert_eq!(out.released, vec![1, 2]);
        // Node 1 wins the race: node 2 (released) goes to engine
        // arbitration, its continuation 4 (waiting) cancels outright.
        let out = run.on_complete(&tpl, 1);
        assert_eq!(out.released, vec![3]);
        assert_eq!(out.cancel_released, vec![2]);
        assert_eq!(out.cancelled, vec![4]);
        let mut scratch = FanOut::default();
        assert!(!run.confirm_cancel(&tpl, 2, &mut scratch));
        let out = run.on_complete(&tpl, 3);
        assert!(out.workflow_done);
    }

    #[test]
    fn workflow_keys_distinct_from_class_keys() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for inst in 0..64u64 {
            for node in 0..8usize {
                assert!(seen.insert(workflow_prefix_key(inst, node)));
            }
        }
        for class in 0..8usize {
            for tokens in [0u64, 64, 384] {
                assert!(seen.insert(super::super::kv::prefix_key(class, tokens)));
            }
        }
    }
}
