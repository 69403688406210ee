//! Scheduler policies for iteration-level serving.
//!
//! The continuous-batching engine makes three kinds of decisions beyond
//! the mechanisms themselves (admission gating, chunked prefill, KV
//! swaps), and each is a closed enum here:
//!
//! * [`AdmissionPolicy`] — in what order the global wait queue is
//!   admitted ([`Fcfs`](AdmissionPolicy::Fcfs),
//!   [`Priority`](AdmissionPolicy::Priority),
//!   [`ShortestPrompt`](AdmissionPolicy::ShortestPrompt),
//!   [`Deadline`](AdmissionPolicy::Deadline),
//!   [`WidestSubtree`](AdmissionPolicy::WidestSubtree)).
//! * [`EvictionPolicy`] — which resident sequence is swapped out under
//!   KV pressure
//!   ([`LowestPriorityYoungest`](EvictionPolicy::LowestPriorityYoungest),
//!   [`LargestKv`](EvictionPolicy::LargestKv),
//!   [`LeastProgress`](EvictionPolicy::LeastProgress),
//!   [`Cheapest`](EvictionPolicy::Cheapest)).
//! * [`ReadmissionPolicy`] — in what order swapped sequences re-enter
//!   ([`Fifo`](ReadmissionPolicy::Fifo),
//!   [`Deadline`](ReadmissionPolicy::Deadline)).
//! * [`MigrationPolicy`] — which decode replica receives a sequence
//!   migrating off a prefill replica in a disaggregated cluster
//!   ([`LeastLoaded`](MigrationPolicy::LeastLoaded),
//!   [`FreestKv`](MigrationPolicy::FreestKv)); installed with
//!   [`ServingSim::migration`](super::ServingSim::migration) rather
//!   than on the bundle, since it only exists once roles do.
//!
//! A [`SchedulerPolicy`] bundles one of each and is installed with
//! [`ServingSim::policy`](super::ServingSim::policy). Policies are
//! **comparators**, not queue owners: the engine presents candidate
//! views ([`QueuedRequest`] / [`SeqView`]) and takes the policy-minimal
//! element, so every policy automatically inherits the engine's
//! invariants — head-of-line blocking happens in *policy order*,
//! prefilling and lone sequences are never evicted, and a preempted
//! sequence always completes. Comparators are **deterministic pure
//! functions** of their arguments (simulations are seeded and
//! reproducible, and
//! [`ServingSim::sustainable_rate`](super::ServingSim::sustainable_rate)
//! bisects over repeated runs). Ties are broken by the engine in favor
//! of the earlier candidate, so total orders are not required — but
//! every policy ends its key chain with the arrival index (or the
//! replica index, for migration) to stay unambiguous.
//!
//! # Adding a policy
//!
//! The policy set is closed: a new policy is a new variant of its enum
//! (listed in the enum's `ALL` array), one arm in its `name` and one in
//! its `compare`, and one row in the `ianus` CLI's table for that flag
//! (a CLI unit test checks that every table lists its enum's `ALL`). A
//! comparator that needs a field the views do not carry adds it to
//! [`QueuedRequest`] or [`SeqView`] and to the engine's view builder.

use super::Priority;
use ianus_model::RequestShape;
use std::cmp::Ordering;

/// A waiting (not yet admitted) request, as the [`AdmissionPolicy`]
/// sees it. Times are simulation seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// The request shape.
    pub shape: RequestShape,
    /// Global arrival index (FCFS order; unique).
    pub arrival_idx: u64,
    /// Scheduling tier of the request's class.
    pub priority: Priority,
    /// TTFT deadline in seconds (`arrival + slo.ttft`), when the
    /// request's class carries an [`Slo`](super::Slo). For a workflow
    /// node with no per-request SLO this is the workflow deadline, so
    /// [`AdmissionPolicy::Deadline`] is deadline-aware in workflow mode
    /// too.
    pub deadline: Option<f64>,
    /// End-to-end deadline of the workflow instance this request
    /// belongs to, in absolute seconds (`None` for flat-mix requests
    /// and deadline-free workflows). See
    /// [`workflow`](super::workflow).
    pub workflow_deadline: Option<f64>,
    /// How many downstream workflow nodes this request (transitively)
    /// unblocks — 0 for flat-mix requests and leaf nodes.
    /// [`AdmissionPolicy::WidestSubtree`] orders by this.
    pub blocked_descendants: u32,
}

/// A resident or swapped sequence, as the [`EvictionPolicy`] and
/// [`ReadmissionPolicy`] see it. Times are simulation seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqView {
    /// Global arrival index (FCFS order; unique — the default
    /// eviction's "youngest" is the largest index).
    pub arrival_idx: u64,
    /// Scheduling tier of the request's class.
    pub priority: Priority,
    /// TTFT deadline in seconds (`arrival + slo.ttft`), when the
    /// request's class carries an [`Slo`](super::Slo).
    pub deadline: Option<f64>,
    /// Tokens currently in the sequence's KV cache — what a swap-out
    /// would have to move, and what eviction frees.
    pub kv_tokens: u64,
    /// Output tokens generated so far (completed decode steps).
    pub generated: u64,
    /// Monotone swap-out sequence number (eviction order across the
    /// replica); 0 until first preempted.
    /// [`ReadmissionPolicy::Fifo`] orders by this.
    pub swap_epoch: u64,
    /// *One-way* KV transfer time for this sequence's current KV over
    /// the replica's host link, in seconds — half the price of evicting
    /// it by swap (charged again at swap-in). `f64::INFINITY` when the
    /// replica's host pool cannot take the bytes right now, so
    /// cost-aware policies see a full pool as "swap unavailable".
    /// NaN unless the eviction policy being asked
    /// [reads costs](EvictionPolicy::reads_costs): the engine prices it
    /// only for that policy's views (re-admission views are never
    /// priced).
    pub swap_secs: f64,
    /// Estimated time to rebuild this sequence's current KV by
    /// re-prefilling its whole context, in seconds — the price of
    /// evicting it by recompute (grid-interpolated from the replica's
    /// prefill costs). Under paged KV ([`crate::serving::kv`]) only the
    /// *unshared* context is priced — shared prefix blocks stay
    /// device-resident across eviction and are never rebuilt. NaN
    /// exactly when [`swap_secs`](Self::swap_secs) is.
    pub recompute_secs: f64,
    /// Tokens of this sequence's context held in blocks shared with the
    /// prefix cache (0 in contiguous mode, or when the class has no
    /// shared prefix). Shared blocks stay device-resident across
    /// eviction, so evicting this sequence frees only
    /// `kv_tokens − shared_tokens` worth of blocks — what
    /// [`EvictionPolicy::Cheapest`] normalizes by.
    pub shared_tokens: u64,
    /// Expected delay before an evicted sequence would be re-admitted,
    /// in seconds: the replica's readmission-queue depth times its mean
    /// iteration time. Part of [`eviction_cost_secs`](Self::eviction_cost_secs),
    /// so cost-aware policies stop treating a swap behind a deep queue
    /// as free. NaN exactly when [`swap_secs`](Self::swap_secs) is.
    pub readmit_delay_secs: f64,
}

impl SeqView {
    /// The cost of evicting this sequence, in seconds: KV transfer both
    /// ways, or one re-prefill of the current context — whichever is
    /// less (a full host pool makes the swap side infinite) — plus the
    /// expected re-admission delay
    /// ([`readmit_delay_secs`](Self::readmit_delay_secs)): a victim
    /// behind a deep swap queue dwells out of the batch for that long
    /// regardless of how it leaves the device. This is the cost
    /// [`EvictionPolicy::Cheapest`] normalizes by freed KV. (The
    /// engine's `cheapest` eviction *mechanism* compares the raw
    /// `2 × swap` vs `recompute` legs — the delay is common to both, so
    /// it cannot change which mechanism wins.)
    pub fn eviction_cost_secs(&self) -> f64 {
        (2.0 * self.swap_secs).min(self.recompute_secs) + self.readmit_delay_secs
    }

    /// KV tokens an eviction would actually free: the whole context in
    /// contiguous mode, the unshared part under paged prefix sharing.
    pub fn freed_tokens(&self) -> u64 {
        self.kv_tokens.saturating_sub(self.shared_tokens)
    }
}

/// Orders the deadline option with `None` last, for the deadline-aware
/// policies.
fn deadline_cmp(a: Option<f64>, b: Option<f64>) -> Ordering {
    a.unwrap_or(f64::INFINITY)
        .total_cmp(&b.unwrap_or(f64::INFINITY))
}

/// Orders the wait queue of an iteration-level replica.
///
/// At every iteration boundary the engine considers the requests that
/// have already arrived and admits the policy-minimal one first
/// (smaller per [`compare`](Self::compare) = admitted earlier). If that
/// request does not fit the KV gate, admission stops for this boundary
/// — head-of-line blocking is in *policy order*, so a policy that
/// front-loads large requests also decides who blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionPolicy {
    /// First come, first served — admission in arrival order. The
    /// default, and the only order under which a seed denotes the same
    /// trace as the historical hard-wired scheduler.
    #[default]
    Fcfs,
    /// [`Priority::Interactive`] requests are admitted before
    /// [`Priority::Batch`] ones; FCFS within a tier.
    Priority,
    /// Shortest prompt first — the classic SJF-flavored order for
    /// prefill-bound queues; FCFS among equal prompts.
    ShortestPrompt,
    /// Earliest deadline first over the TTFT deadlines: requests whose
    /// class carries an [`Slo`](super::Slo) are ordered by
    /// `arrival + slo.ttft`; requests without a deadline go last, FCFS
    /// among themselves.
    Deadline,
    /// Workflow-aware admission: drain in-flight DAGs before opening
    /// new ones, and within an instance admit the node that
    /// (transitively) unblocks the most downstream workflow nodes
    /// ([`QueuedRequest::blocked_descendants`]) first. Instances are
    /// ordered by workflow deadline (a proxy for instance age under a
    /// uniform template; `None` sorts last), so a freshly arrived root
    /// — whose subtree is always widest — cannot starve an older
    /// instance's tools and join out of the batch. A *width-primary*
    /// order inverts under backlog: it keeps admitting new planners
    /// while released children rot at the tail, which is exactly the
    /// p99 regression this key order avoids. Degrades to exact FCFS on
    /// flat mixes (every flat request has zero descendants and no
    /// workflow deadline).
    WidestSubtree,
}

impl AdmissionPolicy {
    /// Every admission policy, the default first.
    pub const ALL: [AdmissionPolicy; 5] = [
        AdmissionPolicy::Fcfs,
        AdmissionPolicy::Priority,
        AdmissionPolicy::ShortestPrompt,
        AdmissionPolicy::Deadline,
        AdmissionPolicy::WidestSubtree,
    ];

    /// Short stable identifier (report/CLI label).
    pub fn name(self) -> &'static str {
        match self {
            AdmissionPolicy::Fcfs => "fcfs",
            AdmissionPolicy::Priority => "priority",
            AdmissionPolicy::ShortestPrompt => "shortest-prompt",
            AdmissionPolicy::Deadline => "edf",
            AdmissionPolicy::WidestSubtree => "widest-subtree",
        }
    }

    /// `Less` ⇒ `a` is admitted before `b`.
    pub fn compare(self, a: &QueuedRequest, b: &QueuedRequest) -> Ordering {
        let fcfs = a.arrival_idx.cmp(&b.arrival_idx);
        match self {
            AdmissionPolicy::Fcfs => fcfs,
            // Interactive > Batch in the Priority order; admit the
            // greater tier first.
            AdmissionPolicy::Priority => b.priority.cmp(&a.priority).then(fcfs),
            AdmissionPolicy::ShortestPrompt => a.shape.input.cmp(&b.shape.input).then(fcfs),
            AdmissionPolicy::Deadline => deadline_cmp(a.deadline, b.deadline).then(fcfs),
            AdmissionPolicy::WidestSubtree => {
                deadline_cmp(a.workflow_deadline, b.workflow_deadline)
                    .then(b.blocked_descendants.cmp(&a.blocked_descendants))
                    .then(fcfs)
            }
        }
    }
}

/// Selects the victim when KV pressure forces a swap-out.
///
/// The engine filters the candidates first — only *decoding* sequences
/// are offered (a prefilling sequence's partially built KV would be
/// wasted work), and it never evicts a lone sequence (which could then
/// never make progress) — then swaps out the policy-minimal candidate,
/// repeating until the projected batch fits. Those liveness guards
/// belong to the engine, not the policy: every policy inherits
/// "preempted sequences always complete" for free.
///
/// Pricing a candidate's [`swap_secs`](SeqView::swap_secs) and
/// [`recompute_secs`](SeqView::recompute_secs) can cost a device
/// simulation, so the engine prices them only when
/// [`reads_costs`](Self::reads_costs) says the comparator reads them;
/// every other policy sees NaN in both fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the lowest-[`Priority`] tier first, the youngest sequence
    /// (largest arrival index) within a tier — batch work pays for
    /// overcommit before interactive work, and the sequence with the
    /// least sunk residency pays first within the tier. The default.
    #[default]
    LowestPriorityYoungest,
    /// Evict the sequence holding the most KV — one swap frees the most
    /// memory (fewest victims per pressure event), at the price of
    /// paying the largest transfer and discarding the longest context
    /// from residency. Ties fall back to the default order.
    LargestKv,
    /// Evict the sequence that has generated the fewest output tokens —
    /// the least completed work is lost (and, symmetrically, the victim
    /// has the most decode left, so its swap dwell hurts the least
    /// relative to its remaining runtime). Ties fall back to the
    /// default order.
    LeastProgress,
    /// Evict the sequence with the lowest *eviction cost per KV token
    /// freed* — [`SeqView::eviction_cost_secs`] (KV transfer both ways,
    /// or one re-prefill of the context, whichever is cheaper — a full
    /// host pool prices the swap side infinite — plus the expected
    /// re-admission delay behind the replica's swap queue) divided by
    /// [`freed_tokens`](SeqView::freed_tokens). The ROADMAP's
    /// cost-aware victim: where [`LargestKv`](Self::LargestKv)
    /// maximizes freed memory regardless of what the eviction costs,
    /// this pays the least per byte relieved — under a tight host pool
    /// it shifts victims away from huge contexts whose forced recompute
    /// is superlinearly expensive; under a deep swap queue the fixed
    /// dwell cost amortizes over more freed KV, shifting victims toward
    /// *larger* unshared contexts; and under paged prefix sharing it
    /// knows a mostly-shared sequence frees almost nothing. Ties fall
    /// back to the default order.
    Cheapest,
}

impl EvictionPolicy {
    /// Every eviction policy, the default first.
    pub const ALL: [EvictionPolicy; 4] = [
        EvictionPolicy::LowestPriorityYoungest,
        EvictionPolicy::LargestKv,
        EvictionPolicy::LeastProgress,
        EvictionPolicy::Cheapest,
    ];

    /// Short stable identifier (report/CLI label).
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::LowestPriorityYoungest => "lowest-priority-youngest",
            EvictionPolicy::LargestKv => "largest-kv",
            EvictionPolicy::LeastProgress => "least-progress",
            EvictionPolicy::Cheapest => "cheapest",
        }
    }

    /// `Less` ⇒ `a` is evicted before `b`.
    pub fn compare(self, a: &SeqView, b: &SeqView) -> Ordering {
        let default = a
            .priority
            .cmp(&b.priority)
            .then(b.arrival_idx.cmp(&a.arrival_idx));
        match self {
            EvictionPolicy::LowestPriorityYoungest => default,
            EvictionPolicy::LargestKv => b.kv_tokens.cmp(&a.kv_tokens).then(default),
            EvictionPolicy::LeastProgress => a.generated.cmp(&b.generated).then(default),
            EvictionPolicy::Cheapest => {
                let per_token =
                    |s: &SeqView| s.eviction_cost_secs() / s.freed_tokens().max(1) as f64;
                per_token(a).total_cmp(&per_token(b)).then(default)
            }
        }
    }

    /// Whether [`compare`](Self::compare) reads the views'
    /// [`swap_secs`](SeqView::swap_secs),
    /// [`recompute_secs`](SeqView::recompute_secs) or
    /// [`readmit_delay_secs`](SeqView::readmit_delay_secs) (through
    /// [`SeqView::eviction_cost_secs`]). `false` lets the engine leave
    /// them unpriced (NaN).
    pub fn reads_costs(self) -> bool {
        self == EvictionPolicy::Cheapest
    }
}

/// Orders the swap queue: which preempted sequence is offered a freed
/// slot first.
///
/// Swapped sequences are always offered slots *before* new admissions
/// at every boundary (they are older than anything still queued), and
/// when a replica's batch empties, the policy-minimal one re-enters
/// unconditionally — the liveness guarantee, again owned by the engine.
/// The views' cost fields are never priced here (NaN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReadmissionPolicy {
    /// Re-admit in swap-out order (first evicted, first restored). The
    /// default.
    #[default]
    Fifo,
    /// Deadline-aware re-admission: the sequence whose request carries
    /// the earliest TTFT deadline (`arrival + slo.ttft`) re-enters
    /// first — latency-critical work spends the least time swapped out.
    /// Sequences without a deadline go last, in swap-out order.
    Deadline,
}

impl ReadmissionPolicy {
    /// Every re-admission policy, the default first.
    pub const ALL: [ReadmissionPolicy; 2] = [ReadmissionPolicy::Fifo, ReadmissionPolicy::Deadline];

    /// Short stable identifier (report/CLI label).
    pub fn name(self) -> &'static str {
        match self {
            ReadmissionPolicy::Fifo => "fifo",
            ReadmissionPolicy::Deadline => "deadline",
        }
    }

    /// `Less` ⇒ `a` re-enters before `b`.
    pub fn compare(self, a: &SeqView, b: &SeqView) -> Ordering {
        let fifo = a
            .swap_epoch
            .cmp(&b.swap_epoch)
            .then(a.arrival_idx.cmp(&b.arrival_idx));
        match self {
            ReadmissionPolicy::Fifo => fifo,
            ReadmissionPolicy::Deadline => deadline_cmp(a.deadline, b.deadline).then(fifo),
        }
    }
}

/// A candidate decode replica for a prefill→decode KV migration, as
/// the [`MigrationPolicy`] sees it at handoff time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationTarget {
    /// Cluster index of the candidate decode replica.
    pub replica: usize,
    /// Sequences currently resident (running batch plus swap-ins in
    /// flight) on the candidate.
    pub batch_len: usize,
    /// Migrations already in flight toward the candidate.
    pub inbound: usize,
    /// How long the candidate's inbound (H2D) DMA lane stays busy from
    /// the source's *now*, in seconds (0 when the lane is free) — the
    /// queueing delay a migration issued now would see before its
    /// inbound leg starts.
    pub lane_busy_secs: f64,
    /// Free KV blocks on the candidate when it runs the paged
    /// allocator ([`crate::serving::kv`]); `None` in contiguous mode.
    pub kv_free_blocks: Option<u64>,
}

/// Which decode replica receives a sequence when its prefill completes
/// on a [`ReplicaRole::PrefillOnly`](super::ReplicaRole::PrefillOnly)
/// replica.
///
/// Like the other policies, a migration policy is a pure comparator
/// over candidate views: the engine offers every
/// [`ReplicaRole::DecodeOnly`](super::ReplicaRole::DecodeOnly) replica
/// as a [`MigrationTarget`] and takes the policy-minimal one. Ties
/// break toward the lower replica index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MigrationPolicy {
    /// The decode replica with the fewest resident-plus-inbound
    /// sequences wins; among equals, the one whose inbound DMA lane
    /// frees earliest, then the lowest index. The default.
    #[default]
    LeastLoaded,
    /// KV-headroom migration: the decode replica with the most free
    /// paged KV blocks wins (replicas running contiguous accounting
    /// report `None` and go last), falling back to
    /// [`LeastLoaded`](Self::LeastLoaded) order among equals. Useful
    /// when decode replicas differ in memory, not speed.
    FreestKv,
}

impl MigrationPolicy {
    /// Every migration policy, the default first.
    pub const ALL: [MigrationPolicy; 2] = [MigrationPolicy::LeastLoaded, MigrationPolicy::FreestKv];

    /// Short stable identifier (report/CLI label).
    pub fn name(self) -> &'static str {
        match self {
            MigrationPolicy::LeastLoaded => "least-loaded",
            MigrationPolicy::FreestKv => "freest-kv",
        }
    }

    /// Total-order comparison: `Less` means `a` is the better
    /// destination.
    pub fn compare(self, a: &MigrationTarget, b: &MigrationTarget) -> Ordering {
        let least_loaded = (a.batch_len + a.inbound)
            .cmp(&(b.batch_len + b.inbound))
            .then(a.lane_busy_secs.total_cmp(&b.lane_busy_secs))
            .then(a.replica.cmp(&b.replica));
        match self {
            MigrationPolicy::LeastLoaded => least_loaded,
            // Most free blocks first; None (contiguous mode) last.
            // Option's derived order puts None below every Some, so
            // comparing b's key against a's yields exactly that
            // descending order.
            MigrationPolicy::FreestKv => b.kv_free_blocks.cmp(&a.kv_free_blocks).then(least_loaded),
        }
    }
}
/// *How* a chosen victim's KV leaves the device — the mechanism the
/// engine applies after the [`EvictionPolicy`] has picked *who* pays.
///
/// Whatever the mechanism, a swap-out that would overflow the
/// replica's finite host pool
/// ([`Backend::host_kv_bytes`](crate::backend::Backend::host_kv_bytes))
/// falls back to [`Recompute`](Self::Recompute) — the pool is a hard
/// capacity, not a preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionMechanism {
    /// Swap the KV to host memory (charged
    /// [`kv_transfer_time`](crate::backend::Backend::kv_transfer_time)
    /// each way, host pool debited while swapped). The default, and the
    /// historical behavior.
    #[default]
    Swap,
    /// Drop the KV and re-prefill the whole context on re-admission
    /// (priced by
    /// [`prefill_time`](crate::backend::Backend::prefill_time), chunked
    /// like any prompt when chunking is on). Uses no host memory.
    Recompute,
    /// Per eviction, whichever is cheaper for this victim: KV transfer
    /// both ways vs one re-prefill of the context
    /// ([`SeqView::eviction_cost_secs`]).
    Cheapest,
}

impl EvictionMechanism {
    /// Short stable identifier (report/CLI label).
    pub fn name(&self) -> &'static str {
        match self {
            EvictionMechanism::Swap => "swap",
            EvictionMechanism::Recompute => "recompute",
            EvictionMechanism::Cheapest => "cheapest",
        }
    }
}

/// One admission + eviction + re-admission bundle, installed with
/// [`ServingSim::policy`](super::ServingSim::policy).
///
/// [`SchedulerPolicy::default`] is the historical hard-wired scheduler
/// — FCFS admission, lowest-priority/youngest eviction, FIFO
/// re-admission, swap-based eviction — and reproduces its schedules
/// bit-identically, so installing a bundle is never a silent behavior
/// change unless a non-default member is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SchedulerPolicy {
    /// Wait-queue order.
    pub admission: AdmissionPolicy,
    /// Victim selection under KV pressure.
    pub eviction: EvictionPolicy,
    /// Swap-queue order.
    pub readmission: ReadmissionPolicy,
    /// How a victim's KV leaves the device (swap vs recompute).
    pub mechanism: EvictionMechanism,
}

impl SchedulerPolicy {
    /// Replaces the admission policy (builder style).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Replaces the eviction policy (builder style).
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Replaces the re-admission policy (builder style).
    pub fn with_readmission(mut self, readmission: ReadmissionPolicy) -> Self {
        self.readmission = readmission;
        self
    }

    /// Replaces the eviction mechanism (builder style).
    pub fn with_mechanism(mut self, mechanism: EvictionMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// `admission+eviction+readmission` label, for report headers and
    /// sweep tables; a non-default eviction mechanism is appended as a
    /// fourth `+segment`.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}+{}+{}",
            self.admission.name(),
            self.eviction.name(),
            self.readmission.name()
        );
        if self.mechanism != EvictionMechanism::Swap {
            label.push('+');
            label.push_str(self.mechanism.name());
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(idx: u64, input: u64, priority: Priority, deadline: Option<f64>) -> QueuedRequest {
        QueuedRequest {
            shape: RequestShape::new(input, 8),
            arrival_idx: idx,
            priority,
            deadline,
            workflow_deadline: None,
            blocked_descendants: 0,
        }
    }

    fn seq(idx: u64, priority: Priority, kv: u64, generated: u64, epoch: u64) -> SeqView {
        SeqView {
            arrival_idx: idx,
            priority,
            deadline: None,
            kv_tokens: kv,
            generated,
            swap_epoch: epoch,
            swap_secs: kv as f64 * 1e-5,
            recompute_secs: kv as f64 * 1e-4,
            shared_tokens: 0,
            readmit_delay_secs: 0.0,
        }
    }

    #[test]
    fn admission_orders() {
        let a = req(0, 512, Priority::Batch, Some(9.0));
        let b = req(1, 64, Priority::Interactive, Some(2.0));
        let c = req(2, 128, Priority::Interactive, None);
        assert_eq!(AdmissionPolicy::Fcfs.compare(&a, &b), Ordering::Less);
        assert_eq!(AdmissionPolicy::Priority.compare(&b, &a), Ordering::Less);
        assert_eq!(AdmissionPolicy::Priority.compare(&b, &c), Ordering::Less);
        assert_eq!(
            AdmissionPolicy::ShortestPrompt.compare(&b, &a),
            Ordering::Less
        );
        assert_eq!(AdmissionPolicy::Deadline.compare(&b, &a), Ordering::Less);
        // No deadline sorts last.
        assert_eq!(AdmissionPolicy::Deadline.compare(&a, &c), Ordering::Less);
    }

    #[test]
    fn widest_subtree_order() {
        let widest = AdmissionPolicy::WidestSubtree;
        // Same instance (same workflow deadline): width decides.
        let mut narrow = req(0, 64, Priority::Interactive, None);
        let mut wide = req(1, 64, Priority::Interactive, None);
        wide.blocked_descendants = 4;
        narrow.blocked_descendants = 1;
        assert_eq!(widest.compare(&wide, &narrow), Ordering::Less);
        // The older instance (earlier workflow deadline) wins even
        // against a wider node of a younger one: in-flight DAGs drain
        // before new roots open.
        narrow.blocked_descendants = 1;
        narrow.workflow_deadline = Some(5.0);
        wide.workflow_deadline = Some(9.0);
        assert_eq!(widest.compare(&narrow, &wide), Ordering::Less);
        // Flat requests (zero width, no workflow deadline) are FCFS.
        let flat_a = req(0, 64, Priority::Interactive, None);
        let flat_b = req(1, 64, Priority::Interactive, None);
        assert_eq!(
            widest.compare(&flat_a, &flat_b),
            AdmissionPolicy::Fcfs.compare(&flat_a, &flat_b)
        );
    }

    #[test]
    fn eviction_orders() {
        let batch_young = seq(9, Priority::Batch, 100, 10, 0);
        let batch_old = seq(1, Priority::Batch, 600, 40, 0);
        let inter_big = seq(5, Priority::Interactive, 900, 2, 0);
        // Default: tier first, then youngest.
        let default = EvictionPolicy::default();
        assert_eq!(default.compare(&batch_young, &batch_old), Ordering::Less);
        assert_eq!(default.compare(&batch_old, &inter_big), Ordering::Less);
        // Largest KV ignores tier until the tiebreak.
        assert_eq!(
            EvictionPolicy::LargestKv.compare(&inter_big, &batch_old),
            Ordering::Less
        );
        // Least progress evicts the sequence with the fewest tokens out.
        assert_eq!(
            EvictionPolicy::LeastProgress.compare(&inter_big, &batch_young),
            Ordering::Less
        );
    }

    #[test]
    fn readmission_orders() {
        let mut first = seq(3, Priority::Batch, 100, 5, 1);
        let mut second = seq(2, Priority::Interactive, 100, 5, 2);
        assert_eq!(
            ReadmissionPolicy::Fifo.compare(&first, &second),
            Ordering::Less
        );
        first.deadline = None;
        second.deadline = Some(4.0);
        assert_eq!(
            ReadmissionPolicy::Deadline.compare(&second, &first),
            Ordering::Less
        );
    }

    #[test]
    fn bundle_labels() {
        assert_eq!(
            SchedulerPolicy::default().label(),
            "fcfs+lowest-priority-youngest+fifo"
        );
        let custom = SchedulerPolicy::default()
            .with_admission(AdmissionPolicy::Deadline)
            .with_eviction(EvictionPolicy::LargestKv)
            .with_readmission(ReadmissionPolicy::Deadline);
        assert_eq!(custom.label(), "edf+largest-kv+deadline");
        let mech = SchedulerPolicy::default().with_mechanism(EvictionMechanism::Cheapest);
        assert_eq!(mech.label(), "fcfs+lowest-priority-youngest+fifo+cheapest");
    }

    /// Every `ALL` array starts with its enum's default, lists each
    /// variant once, and gives each a distinct label; only `Cheapest`
    /// eviction reads costs.
    #[test]
    fn all_arrays_list_distinct_variants_default_first() {
        fn check<P: Copy + Default + PartialEq + std::fmt::Debug>(
            all: &[P],
            name: impl Fn(P) -> &'static str,
        ) {
            assert_eq!(all[0], P::default());
            let mut names: Vec<_> = all.iter().map(|&p| name(p)).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), all.len(), "{all:?}");
        }
        check(&AdmissionPolicy::ALL, AdmissionPolicy::name);
        check(&EvictionPolicy::ALL, EvictionPolicy::name);
        check(&ReadmissionPolicy::ALL, ReadmissionPolicy::name);
        check(&MigrationPolicy::ALL, MigrationPolicy::name);
        let priced: Vec<_> = EvictionPolicy::ALL
            .into_iter()
            .filter(|p| p.reads_costs())
            .collect();
        assert_eq!(priced, [EvictionPolicy::Cheapest]);
    }

    #[test]
    fn cheapest_eviction_orders_by_cost_per_token() {
        let cheapest = EvictionPolicy::Cheapest;
        // With swap at 1e-5 s/token and recompute at 1e-4 s/token, the
        // per-token eviction cost is a constant 2e-5 s — the tiebreak
        // (default order) decides.
        let a = seq(1, Priority::Batch, 600, 40, 0);
        let b = seq(9, Priority::Batch, 100, 10, 0);
        assert_eq!(cheapest.compare(&b, &a), Ordering::Less);
        // A full host pool makes the swap side infinite: the victim
        // whose recompute-per-token is cheaper goes first.
        let mut big = seq(1, Priority::Batch, 1000, 40, 0);
        let mut small = seq(9, Priority::Batch, 100, 10, 0);
        big.swap_secs = f64::INFINITY;
        small.swap_secs = f64::INFINITY;
        big.recompute_secs = 0.5; // 5e-4 s/token: superlinear prefill
        small.recompute_secs = 0.01; // 1e-4 s/token
        assert_eq!(cheapest.compare(&small, &big), Ordering::Less);
        assert_eq!(big.eviction_cost_secs(), 0.5);
    }

    #[test]
    fn readmit_delay_shifts_cheapest_toward_larger_victims() {
        let cheapest = EvictionPolicy::Cheapest;
        // The ROADMAP cost-model fix, directionally: with per-token
        // transfer costs equal (2e-5 s/token for both victims), a swap
        // behind an *empty* queue ties on cost and the default-order
        // tiebreak evicts the lower tier / youngest — the small victim.
        let big = seq(1, Priority::Batch, 600, 40, 0);
        let small = seq(9, Priority::Batch, 100, 10, 0);
        assert_eq!(cheapest.compare(&small, &big), Ordering::Less);
        // Behind a deep readmission queue the dwell is a *fixed* cost
        // per eviction: amortized over freed KV it favors the victim
        // that frees more, so the 600-token sequence now goes first —
        // a swap behind a deep queue is no longer "free".
        let delay = 0.5; // queue depth × mean iteration time, seconds
        let mut big_q = big;
        let mut small_q = small;
        big_q.readmit_delay_secs = delay;
        small_q.readmit_delay_secs = delay;
        assert_eq!(cheapest.compare(&big_q, &small_q), Ordering::Less);
        assert!(big_q.eviction_cost_secs() > big.eviction_cost_secs());
    }

    #[test]
    fn shared_prefix_shrinks_what_eviction_frees() {
        // Paged prefix sharing: a mostly-shared sequence frees almost
        // nothing, so cheapest eviction must stop seeing it as a cheap
        // big win. Same raw KV, same costs — but `shared` keeps only 64
        // of its 600 tokens evictable.
        let unshared = seq(1, Priority::Batch, 600, 40, 0);
        let mut shared = seq(9, Priority::Batch, 600, 40, 0);
        shared.shared_tokens = 536;
        assert_eq!(shared.freed_tokens(), 64);
        assert_eq!(unshared.freed_tokens(), 600);
        assert_eq!(
            EvictionPolicy::Cheapest.compare(&unshared, &shared),
            Ordering::Less
        );
    }

    fn target(replica: usize, batch: usize, inbound: usize, lane: f64) -> MigrationTarget {
        MigrationTarget {
            replica,
            batch_len: batch,
            inbound,
            lane_busy_secs: lane,
            kv_free_blocks: None,
        }
    }

    #[test]
    fn migration_orders() {
        let least = MigrationPolicy::LeastLoaded;
        let freest = MigrationPolicy::FreestKv;
        // Least-loaded counts in-flight migrations as load.
        let idle = target(2, 1, 0, 0.0);
        let loaded = target(0, 1, 3, 0.0);
        assert_eq!(least.compare(&idle, &loaded), Ordering::Less);
        // Equal load: the freer inbound lane wins, then the lower index.
        let lane_free = target(1, 2, 0, 0.0);
        let lane_busy = target(0, 2, 0, 0.5);
        assert_eq!(least.compare(&lane_free, &lane_busy), Ordering::Less);
        assert_eq!(
            least.compare(&target(0, 2, 0, 0.5), &target(1, 2, 0, 0.5)),
            Ordering::Less
        );
        // Freest-KV: most free blocks first, contiguous (None) last.
        let mut roomy = target(1, 5, 0, 0.0);
        roomy.kv_free_blocks = Some(100);
        let mut tight = target(0, 0, 0, 0.0);
        tight.kv_free_blocks = Some(2);
        let contiguous = target(2, 0, 0, 0.0);
        assert_eq!(freest.compare(&roomy, &tight), Ordering::Less);
        assert_eq!(freest.compare(&tight, &contiguous), Ordering::Less);
        // Among equals it falls back to least-loaded order.
        let mut tight2 = tight;
        tight2.replica = 1;
        tight2.batch_len = 4;
        assert_eq!(freest.compare(&tight, &tight2), Ordering::Less);
        assert_eq!(least.name(), "least-loaded");
        assert_eq!(freest.name(), "freest-kv");
    }
}
