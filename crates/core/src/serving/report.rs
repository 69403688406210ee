//! Serving-report types and the raw-sample assembly behind them.
//!
//! Every latency sample is a [`RunSample`] and every
//! [`LatencyPercentiles`] of a report is read by
//! [`RunSample::percentiles`], the one rank-selection routine.

use super::{ReplicaRole, RequestClass};
use ianus_sim::Duration;

/// p50/p95/p99 and worst-case of one latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst-case sample — the tail beyond p99, where preemption
    /// swap dwells and monolithic-prefill stalls hide.
    pub max: Duration,
}

impl LatencyPercentiles {
    /// All-zero percentiles (empty distribution).
    pub const ZERO: LatencyPercentiles = LatencyPercentiles {
        p50: Duration::ZERO,
        p95: Duration::ZERO,
        p99: Duration::ZERO,
        max: Duration::ZERO,
    };
}

/// A latency sample stored as runs of bit-equal values: `(seconds,
/// count)` pairs in push order. A [`push_n`](Self::push_n) merges into
/// the last run when its bits equal the run's, so a decode turn whose
/// sequences all waited the same gap stores one run, not one value per
/// token.
///
/// Every latency sample of a run is one of these — sojourns, TTFTs,
/// ITLs, workflow latencies and each SLO request's own gaps — and every
/// [`LatencyPercentiles`] of a report is read by
/// [`percentiles`](Self::percentiles). The value at each rank of a
/// multiset does not depend on how it is stored, so the runs read
/// exactly what the expanded samples would.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RunSample {
    runs: Vec<(f64, u64)>,
}

impl RunSample {
    /// Records `count` samples of `secs` (a no-op when `count` is 0).
    pub fn push_n(&mut self, secs: f64, count: u64) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((last, n)) if last.to_bits() == secs.to_bits() => *n += count,
            _ => self.runs.push((secs, count)),
        }
    }

    /// Samples held: the runs' counts summed.
    pub fn count(&self) -> u64 {
        self.runs.iter().map(|&(_, n)| n).sum()
    }

    /// The union of this sample and `other`.
    pub fn union(&self, other: &RunSample) -> RunSample {
        RunSample {
            runs: [&self.runs[..], &other.runs].concat(),
        }
    }

    /// Percentiles of the expanded sample: the value at each
    /// [`rank`]`(len, p)` of its ascending [`f64::total_cmp`] order,
    /// selected over the runs weighted by their counts rather than
    /// sorted for (the runs are left reordered).
    ///
    /// # Panics
    ///
    /// Panics if a sample is not finite.
    pub fn percentiles(&mut self) -> LatencyPercentiles {
        assert!(
            self.runs.iter().all(|&(x, _)| x.is_finite()),
            "samples are finite"
        );
        if self.runs.is_empty() {
            return LatencyPercentiles::ZERO;
        }
        let len = self.count();
        // Each rank is at or above the previous one, and a selection
        // leaves every run before the selected one no larger and every
        // run after it no smaller, so each search resumes there.
        let (mut lo, mut below) = (0, 0u64);
        let runs = &mut self.runs;
        let mut at = |p: f64| {
            let idx = rank(len as usize, p) as u64;
            (lo, below) = select_weighted(runs, lo, below, idx);
            Duration::from_secs_f64(runs[lo].0)
        };
        let (p50, p95, p99) = (at(0.50), at(0.95), at(0.99));
        let max = self.runs[lo..]
            .iter()
            .map(|&(x, _)| x)
            .max_by(f64::total_cmp)
            .expect("runs are non-empty");
        LatencyPercentiles {
            p50,
            p95,
            p99,
            max: Duration::from_secs_f64(max),
        }
    }
}

/// The run's inter-token-latency samples: one per generated token in
/// `all`, and those of requests that arrived inside a burst window
/// again in `burst`. Percentiles do not depend on push order, so
/// neither sample's runs affect the other's report.
#[derive(Debug, Default)]
pub(crate) struct Itls {
    pub all: RunSample,
    pub burst: RunSample,
}

impl Itls {
    /// Records `n` samples of `gap`, `burst` of them from burst-window
    /// requests.
    pub fn push_n(&mut self, gap: f64, n: u64, burst: u64) {
        self.all.push_n(gap, n);
        self.burst.push_n(gap, burst);
    }
}

/// Weighted quickselect over `runs[lo..]`, whose runs all lie at or
/// above the `below` samples before `lo`: moves the run holding sample
/// rank `idx` (ascending under [`f64::total_cmp`], counting each run's
/// samples) to a position `i` with every run before it no larger and
/// every run after it no smaller, and returns `i` with the samples
/// before it.
fn select_weighted(
    runs: &mut [(f64, u64)],
    mut lo: usize,
    mut below: u64,
    idx: u64,
) -> (usize, u64) {
    let mut hi = runs.len();
    loop {
        let mid = lo + (hi - lo) / 2;
        runs[lo..hi].select_nth_unstable_by(mid - lo, |a, b| a.0.total_cmp(&b.0));
        let left: u64 = runs[lo..mid].iter().map(|&(_, n)| n).sum();
        if idx < below + left {
            hi = mid;
        } else if idx < below + left + runs[mid].1 {
            return (mid, below + left);
        } else {
            below += left + runs[mid].1;
            lo = mid + 1;
        }
    }
}

#[cfg(test)]
impl RunSample {
    /// The sample as a multiset: `(bits, count)` per distinct value,
    /// ascending under [`f64::total_cmp`].
    pub(crate) fn sorted_runs(&self) -> Vec<(u64, u64)> {
        let mut runs = self.runs.clone();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (v, n) in runs {
            match merged.last_mut() {
                Some((bits, m)) if *bits == v.to_bits() => *m += n,
                _ => merged.push((v.to_bits(), n)),
            }
        }
        merged
    }
}

/// Sojourn statistics of one request class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassReport {
    /// The class's request shape.
    pub shape: ianus_model::RequestShape,
    /// Requests of this class completed.
    pub completed: u64,
    /// Sojourn (queueing + service) percentiles.
    pub sojourn: LatencyPercentiles,
    /// KV evictions suffered by this class's requests (swap-outs plus
    /// recompute drops; 0 unless preemption is enabled). Under the
    /// default eviction order, batch-tier classes absorb these first.
    pub preemptions: u64,
    /// The subset of this class's [`preemptions`](Self::preemptions)
    /// resolved by dropping the KV and re-prefilling (host-pool
    /// overflow, or a recompute-flavored
    /// [`EvictionMechanism`](super::policy::EvictionMechanism)).
    pub recomputes: u64,
    /// Fraction of this class's completed requests that met its
    /// [`Slo`](super::Slo); 1.0 when the class has no SLO (or nothing
    /// completed).
    pub slo_attainment: f64,
}

/// Sojourn/goodput statistics of one tenant under multi-tenant
/// arrivals ([`ArrivalSpec::MultiTenant`](super::ArrivalSpec)). Every
/// other arrival process reports a single row for tenant 0.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant index (position in the spec's tenant list).
    pub tenant: u32,
    /// Requests of this tenant completed.
    pub completed: u64,
    /// Sojourn (queueing + service) percentiles over this tenant's
    /// completions; [`LatencyPercentiles::ZERO`] when none completed.
    pub sojourn: LatencyPercentiles,
    /// Fraction of this tenant's completed requests that met their
    /// class [`Slo`](super::Slo); 1.0 when nothing completed.
    pub slo_attainment: f64,
    /// This tenant's completions *within SLO* per second of simulated
    /// time — the per-tenant slice of
    /// [`goodput_rps`](ServingReport::goodput_rps), and what
    /// [`tenant_fairness`](ServingReport::tenant_fairness) compares.
    pub goodput_rps: f64,
}

/// Utilization statistics of one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaReport {
    /// The replica's backend name.
    pub name: String,
    /// Requests this replica served.
    pub completed: u64,
    /// Fraction of the cluster makespan this replica spent **computing**
    /// (prefill + decode iterations). KV swap DMA is accounted in
    /// [`kv_dma`](Self::kv_dma), not here — utilization means compute.
    pub utilization: f64,
    /// Total KV swap DMA time on this replica's host link (swap-outs +
    /// swap-ins). With DMA overlap on, most of this hides under decode;
    /// the part that stalled compute is the report-level
    /// [`swap_stall`](ServingReport::swap_stall).
    pub kv_dma: Duration,
    /// The replica's [`ReplicaRole`] in the cluster
    /// ([`Unified`](ReplicaRole::Unified) outside disaggregated runs).
    pub role: ReplicaRole,
    /// Sequences migrated *onto* this replica (decode-side arrivals).
    pub migrations_in: u64,
    /// Sequences migrated *off* this replica after prefill completed.
    pub migrations_out: u64,
}

/// Result of a serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests completed.
    pub completed: u64,
    /// Mean *unloaded* device service time across completed requests:
    /// what each request would cost alone on its replica (under
    /// iteration-level scheduling, prefill plus its batch-1 decode
    /// steps). Contention — queueing and batch stretch — shows up in
    /// the sojourn percentiles, not here, so [`stable`](Self::stable)'s
    /// tail bound means the same thing in both scheduling modes.
    pub mean_service: Duration,
    /// Sojourn (queueing + service) percentiles across all requests.
    pub sojourn: LatencyPercentiles,
    /// Time-to-first-token percentiles: arrival to the end of the
    /// request's prefill (which produces the first output token). Under
    /// request-level scheduling this is queueing wait plus prefill time.
    pub ttft: LatencyPercentiles,
    /// Inter-token latency percentiles, sampled per generated token.
    /// Under iteration-level scheduling each sample is the gap between
    /// a sequence's consecutive token emissions — decode iterations
    /// *plus* any co-admitted prefills that stalled the batch; under
    /// request-level it is the request's generation time divided by its
    /// step count. Requests with a single output token contribute no
    /// samples.
    pub inter_token: LatencyPercentiles,
    /// Largest number of sequences concurrently resident on one replica
    /// (decoding or prefilling; always 1 under request-level
    /// scheduling, and at least 1 in either mode once anything is
    /// served).
    pub peak_batch: u32,
    /// Largest projected memory occupancy any admission (or, under
    /// preemption, any iteration's pressure check) saw — weights plus
    /// batch KV, as a fraction of device memory. Admissions project
    /// final lengths by default and *current* lengths under preemption.
    /// Stays 0 under request-level scheduling and for backends without
    /// a memory model. Never exceeds 1 without preemption (the gate
    /// rejects first); under preemption a value above 1 records the
    /// iterations where nothing was evictable (a lone or all-prefilling
    /// batch) and the scheduler knowingly ran overcommitted.
    pub peak_kv_occupancy: f64,
    /// Total KV eviction events across the run (0 unless the
    /// scheduling's `preempt` knob is on): swap-outs plus recompute
    /// drops. Every swap-out is eventually paired with a swap-in, and
    /// every recompute drop with a re-prefill — preempted sequences
    /// always complete.
    pub preemptions: u64,
    /// The subset of [`preemptions`](Self::preemptions) resolved by
    /// **recompute-based eviction** — the KV was dropped (host pool
    /// full, or a recompute-flavored
    /// [`EvictionMechanism`](super::policy::EvictionMechanism)) and the
    /// context re-prefilled on re-admission.
    pub recomputes: u64,
    /// Requests that were preempted at least once.
    pub preempted_requests: u64,
    /// Largest number of evictions any single request suffered.
    pub max_preemptions: u32,
    /// Largest number of bytes of swapped-out KV simultaneously
    /// resident in any replica's host pool.
    pub host_kv_peak_bytes: u64,
    /// [`host_kv_peak_bytes`](Self::host_kv_peak_bytes) as a fraction
    /// of the tightest *finite* host pool it was observed against
    /// ([`Backend::host_kv_bytes`](crate::backend::Backend::host_kv_bytes)
    /// or the [`ServingSim::host_kv_pool`](super::ServingSim::host_kv_pool)
    /// override). Never exceeds 1 — an overflowing swap-out falls back
    /// to recompute instead. 0 when nothing swapped or every pool is
    /// unbounded.
    pub host_kv_peak_occupancy: f64,
    /// Total KV swap DMA time across replicas (each transfer charged
    /// once; see [`ReplicaReport::kv_dma`]).
    pub kv_dma: Duration,
    /// Total time replica *compute* clocks sat stalled on swap DMA.
    /// Without DMA overlap every transfer stalls, so this equals
    /// [`kv_dma`](Self::kv_dma); with overlap
    /// ([`ServingSim::overlap_dma`](super::ServingSim::overlap_dma)) it
    /// shrinks to the transfers whose data was needed before the DMA
    /// finished.
    pub swap_stall: Duration,
    /// Prefill→decode KV migrations across the run: sequences handed
    /// off a [`ReplicaRole::PrefillOnly`] replica the iteration their
    /// prefill completed, transferred over both ends' host links
    /// (priced by
    /// [`Backend::kv_transfer_time`](crate::backend::Backend::kv_transfer_time)
    /// on each leg, charged to each side's
    /// [`kv_dma`](ReplicaReport::kv_dma)), and re-admitted on a
    /// [`ReplicaRole::DecodeOnly`] replica. 0 in all-`Unified`
    /// clusters. Migrated sequences always complete.
    pub migrations: u64,
    /// Total decode-side wall-clock lost to migration: idle time a
    /// decode replica spent waiting for an inbound migration's DMA to
    /// land, counted from the migrant's handoff (the end of its prefill
    /// on the prefill replica; idle time before it is not stall), plus
    /// time DMA-complete migrants waited for a batch slot. The two
    /// parts are non-overlapping by construction (the wait for DMA ends
    /// exactly where slot-waiting can begin).
    pub migration_stall: Duration,
    /// Fraction of completed requests that met their class
    /// [`Slo`](super::Slo). Requests whose class has no SLO trivially
    /// attain, so a mix without SLOs reports 1.0 and
    /// [`goodput_rps`](Self::goodput_rps) equals
    /// [`throughput_rps`](Self::throughput_rps). With no completions it
    /// reads 1.0, like every per-class and per-tenant attainment.
    pub slo_attainment: f64,
    /// Mean **compute**-busy fraction across replicas (prefill + decode
    /// iterations; KV swap DMA lives in [`kv_dma`](Self::kv_dma) and
    /// [`swap_stall`](Self::swap_stall), so swap-heavy runs no longer
    /// read as compute-saturated).
    pub utilization: f64,
    /// Completed requests per second of simulated time.
    pub throughput_rps: f64,
    /// Completions *within SLO* per second of simulated time — the
    /// serving-quality throughput an SLO-aware operator provisions for.
    /// Equals `throughput_rps × slo_attainment`.
    pub goodput_rps: f64,
    /// Mean allocated-but-unused fraction of the paged KV pool, sampled
    /// once per executed iteration: each live sequence's partially
    /// filled private tail block over every allocated block. 0 in
    /// contiguous mode ([`ServingSim::kv_block`](super::ServingSim::kv_block)
    /// unset), where per-sequence KV is exact by construction — this is
    /// the memory the fixed block size wastes to buy O(1) allocation.
    pub fragmentation: f64,
    /// Fraction of all admitted prompt tokens served from shared prefix
    /// blocks instead of being prefilled — the prefill compute the
    /// prefix cache saved. 0 in contiguous mode or when no class
    /// declares a [`prefix_tokens`](super::RequestClass::prefix_tokens)
    /// prefix.
    pub prefix_share_ratio: f64,
    /// Admissions that hit the prefix cache (mapped at least one shared
    /// block, shortening their prefill).
    pub prefix_cache_hits: u64,
    /// TTFT percentiles over the requests that hit the prefix cache —
    /// the headline paged-KV win: their prefill starts past the shared
    /// prefix. [`LatencyPercentiles::ZERO`] when nothing hit.
    pub ttft_cache_hit: LatencyPercentiles,
    /// TTFT percentiles over the requests that prefilled cold (no
    /// cache hit). Equals [`ttft`](Self::ttft) in contiguous mode.
    pub ttft_cold: LatencyPercentiles,
    /// Whole-workflow latency percentiles: first root arrival to the
    /// last node's completion (or final cancellation settling), over
    /// finished workflow instances. [`LatencyPercentiles::ZERO`] on
    /// flat (non-workflow) runs.
    pub workflow_latency: LatencyPercentiles,
    /// Fraction of finished workflow instances whose whole-workflow
    /// latency met their template deadline
    /// ([`WorkflowTemplate::with_deadline`](super::WorkflowTemplate::with_deadline)).
    /// 1.0 when no workflows ran or no template declares a deadline.
    pub workflow_slo_attainment: f64,
    /// Workflow instances that finished (every node completed or was
    /// cancelled). 0 on flat runs.
    pub completed_workflows: u64,
    /// Workflow nodes cancelled by speculative-group arbitration: the
    /// losing sibling subtrees released or retired without running to
    /// a counted completion. 0 on flat runs and non-speculative
    /// templates.
    pub cancelled_nodes: u64,
    /// Fraction of non-root workflow nodes' prompt tokens inherited
    /// from a parent's registered KV instead of re-prefilled — the
    /// cross-node analogue of
    /// [`prefix_share_ratio`](Self::prefix_share_ratio). 0 on flat
    /// runs, in contiguous mode, or with inheritance disabled.
    pub inherited_prefix_ratio: f64,
    /// Inter-token-latency percentiles over only the tokens emitted by
    /// requests that **arrived inside a burst window** (an MMPP burst
    /// phase, or a diurnal instant above the mean rate).
    /// [`LatencyPercentiles::ZERO`] under burst-free processes
    /// (Poisson, multi-tenant without bursty tenants) — compare against
    /// [`inter_token`](Self::inter_token) to read the burst tax.
    pub burst_inter_token: LatencyPercentiles,
    /// SLO attainment scored over only the completions that arrived
    /// inside a burst window. 1.0 when no completion arrived in a
    /// burst (in particular under Poisson arrivals), so burst-free
    /// runs stay trivially clean rather than reporting NaN.
    pub burst_slo_attainment: f64,
    /// Max/min ratio of per-tenant goodput across tenants **with at
    /// least one completion** (zero-completion tenants are excluded —
    /// they would otherwise turn the ratio into 0/0). 1.0 when fewer
    /// than two tenants completed anything, or when every counted
    /// tenant's goodput is zero; infinite when some counted tenant
    /// attained nothing while another did. 1.0 is perfect fairness.
    pub tenant_fairness: f64,
    /// Per-tenant statistics, one row per tenant in the
    /// [`ArrivalSpec`](super::ArrivalSpec)'s tenant order (a single
    /// tenant-0 row under single-tenant processes).
    pub per_tenant: Vec<TenantReport>,
    /// Per-class statistics (same order as the config's mix; under a
    /// workflow mix, one synthetic class per template node in template
    /// order).
    pub per_class: Vec<ClassReport>,
    /// Per-replica load (same order as the replicas were added).
    pub per_replica: Vec<ReplicaReport>,
    /// Whether the run was cut short by the divergence guard
    /// ([`ServingSim::divergence_depth`](super::ServingSim::divergence_depth)):
    /// the backlog of arrived-but-unadmitted requests exceeded the
    /// bound, so the engine stopped simulating a hopelessly overloaded
    /// horizon. A diverged report covers only the simulated prefix —
    /// its counters are lower bounds — and never counts as
    /// [`stable`](Self::stable).
    pub diverged: bool,
}

impl ServingReport {
    /// Whether the system was stable (utilization below one and tail
    /// latency bounded relative to service time).
    ///
    /// The tail bound matters most on wide clusters over a finite
    /// horizon, where measured utilization saturates slowly: an
    /// overloaded 8-replica run can sit just under the utilization gate
    /// while p99 sojourn has already blown out to dozens of service
    /// times.
    pub fn stable(&self) -> bool {
        !self.diverged
            && self.utilization < 0.95
            && self.sojourn.p99.as_ns_f64() < 20.0 * self.mean_service.as_ns_f64()
    }
}

/// The share of `completed` requests that met their SLO: 1.0 with no
/// completions, which missed nothing.
fn attainment(attained: u64, completed: u64) -> f64 {
    if completed == 0 {
        return 1.0;
    }
    attained as f64 / completed as f64
}

/// One completed request, recorded once. Every per-class, per-tenant,
/// per-replica, burst and whole-run completion figure of the report is
/// folded from these records, so each partition's totals sum to the
/// run's by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    /// Arrival to completion, in seconds.
    pub sojourn: f64,
    /// Replica, class (in the run's effective mix) and tenant indices.
    pub replica: u32,
    pub class: u32,
    pub tenant: u32,
    /// Evictions it suffered, and the subset resolved by recompute.
    pub preemptions: u32,
    pub recomputes: u32,
    /// Whether it met its class SLO (no SLO counts as met).
    pub attained: bool,
    /// Whether it arrived inside a burst window.
    pub in_burst: bool,
}

// A 50,000-request run holds 50,000 records until its report.
const _: () = assert!(std::mem::size_of::<Completion>() <= 32);

/// The completion totals and sojourn percentiles of one partition of
/// the records.
struct Partition {
    completed: u64,
    attained: u64,
    preemptions: u64,
    recomputes: u64,
    sojourn: LatencyPercentiles,
}

impl Partition {
    /// The partition of `done` that `member` selects, its sojourn
    /// sample in completion order.
    fn of(done: &[Completion], member: impl Fn(&Completion) -> bool) -> Self {
        let (mut attained, mut preemptions, mut recomputes) = (0, 0, 0);
        let mut sojourns = RunSample::default();
        for c in done.iter().filter(|c| member(c)) {
            sojourns.push_n(c.sojourn, 1);
            attained += u64::from(c.attained);
            preemptions += u64::from(c.preemptions);
            recomputes += u64::from(c.recomputes);
        }
        Partition {
            completed: sojourns.count(),
            attained,
            preemptions,
            recomputes,
            sojourn: sojourns.percentiles(),
        }
    }

    /// The share of the partition that met its SLO.
    fn attainment(&self) -> f64 {
        attainment(self.attained, self.completed)
    }
}

/// Raw samples out of either scheduling engine, before percentile
/// assembly.
pub(crate) struct RunStats {
    /// Every completed request, in completion order.
    pub completed: Vec<Completion>,
    /// Tenant count of the arrival spec (one row per tenant).
    tenants: u32,
    /// Inter-token-latency samples, run-wide and burst-window.
    pub itls: Itls,
    /// Per-replica **compute** time (prefill + decode iterations only;
    /// KV swap DMA goes to [`dma`](Self::dma) so utilization keeps
    /// meaning compute-busy).
    pub busy: Vec<f64>,
    /// Per-replica KV swap DMA transfer time.
    pub dma: Vec<f64>,
    /// Per-replica compute-clock time stalled on swap DMA.
    pub stall: Vec<f64>,
    /// Decode-side wall-clock lost to prefill→decode migrations (see
    /// [`ServingReport::migration_stall`]), and per-replica in/out
    /// counts (recorded at handoff time).
    pub migration_stall: f64,
    pub migrated_in: Vec<u64>,
    pub migrated_out: Vec<u64>,
    /// Sum of per-request *unloaded* service times: the whole-request
    /// device time under request-level scheduling, and the memoized
    /// batch-1 prefill + decode-step sum under iteration-level (the two
    /// agree to within decode-grid interpolation error). Keeping the
    /// batch-stretch *out* of this sum means [`ServingReport::stable`]'s
    /// `p99 < 20 × mean_service` bound is equally strict in both modes —
    /// pricing residency here instead lets finite-horizon overload pass
    /// as "stable" once batching inflates the denominator. Summed in
    /// completion order, as a running scalar: another order can round
    /// differently.
    pub service_sum: f64,
    pub last_finish: f64,
    pub peak_batch: u32,
    pub peak_kv_occupancy: f64,
    /// Eviction events and the recompute subset, counted when they
    /// happen: a request the divergence guard left unfinished counts
    /// here and in no [`Completion`].
    pub preemptions: u64,
    pub recomputes: u64,
    /// Peak bytes of swapped KV in any replica's host pool, and that
    /// peak as a fraction of the tightest finite pool it hit.
    pub host_peak_bytes: u64,
    pub host_peak_occupancy: f64,
    /// Paged-KV fragmentation samples (one per executed iteration):
    /// their sum and count, averaged at assembly.
    pub frag_sum: f64,
    pub frag_samples: u64,
    /// Admissions that mapped shared prefix blocks.
    pub prefix_hits: u64,
    /// Prompt tokens served from shared blocks vs all admitted prompt
    /// tokens (the share ratio's numerator and denominator).
    pub shared_prompt_tokens: u64,
    pub prompt_tokens: u64,
    /// TTFT samples, taken at first token and split by prefix-cache
    /// outcome (cold = no shared blocks mapped; every request is cold
    /// in contiguous mode). The run-wide TTFT reads their union.
    pub ttft_hits: RunSample,
    pub ttft_colds: RunSample,
    /// Whole-workflow latency samples (root arrival → instance
    /// settled) and how many of those met their template deadline.
    /// Empty on flat runs.
    pub workflow_latencies: RunSample,
    pub workflow_attained: u64,
    /// Nodes retired by speculative-group cancellation.
    pub cancelled_nodes: u64,
    /// Inherited-prefix ratio's numerator and denominator: prompt
    /// tokens non-root workflow nodes mapped from a parent's
    /// registered KV, over all their prompt tokens.
    pub inherited_tokens: u64,
    pub inheritable_tokens: u64,
    /// Whether the divergence guard fired (see
    /// [`ServingReport::diverged`]).
    pub diverged: bool,
}

impl RunStats {
    pub fn new(replicas: usize, requests: u64, tenants: u32) -> Self {
        RunStats {
            completed: Vec::with_capacity(requests as usize),
            tenants: tenants.max(1),
            itls: Itls::default(),
            busy: vec![0.0; replicas],
            dma: vec![0.0; replicas],
            stall: vec![0.0; replicas],
            migration_stall: 0.0,
            migrated_in: vec![0u64; replicas],
            migrated_out: vec![0u64; replicas],
            service_sum: 0.0,
            last_finish: 0.0,
            peak_batch: 0,
            peak_kv_occupancy: 0.0,
            preemptions: 0,
            recomputes: 0,
            host_peak_bytes: 0,
            host_peak_occupancy: 0.0,
            frag_sum: 0.0,
            frag_samples: 0,
            prefix_hits: 0,
            shared_prompt_tokens: 0,
            prompt_tokens: 0,
            ttft_hits: RunSample::default(),
            ttft_colds: RunSample::default(),
            workflow_latencies: RunSample::default(),
            workflow_attained: 0,
            cancelled_nodes: 0,
            inherited_tokens: 0,
            inheritable_tokens: 0,
            diverged: false,
        }
    }

    /// Records one completed request, which finished at `finish` and
    /// would have taken `service` alone on its replica.
    pub fn complete(&mut self, completion: Completion, finish: f64, service: f64) {
        self.completed.push(completion);
        self.service_sum += service;
        self.last_finish = self.last_finish.max(finish);
    }

    /// Builds the report from either engine's raw samples. `mix` is the
    /// run's effective request-class list and `replicas` the
    /// (name, role) rows in replica order.
    pub fn into_report(
        mut self,
        mix: &[RequestClass],
        replicas: Vec<(String, ReplicaRole)>,
    ) -> ServingReport {
        let n = replicas.len();
        let done = &self.completed;
        // Rates over the run's span; an empty span has none.
        let span = self.last_finish;
        let per_sec = |x: f64| if span > 0.0 { x / span } else { 0.0 };
        let per_class = mix
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let p = Partition::of(done, |d| d.class as usize == i);
                ClassReport {
                    shape: c.shape,
                    completed: p.completed,
                    sojourn: p.sojourn,
                    preemptions: p.preemptions,
                    recomputes: p.recomputes,
                    slo_attainment: p.attainment(),
                }
            })
            .collect();
        let mut served = vec![0u64; n];
        for c in done {
            served[c.replica as usize] += 1;
        }
        let per_replica = replicas
            .into_iter()
            .enumerate()
            .map(|(i, (name, role))| ReplicaReport {
                name,
                role,
                completed: served[i],
                utilization: per_sec(self.busy[i]).min(1.0),
                kv_dma: Duration::from_secs_f64(self.dma[i]),
                migrations_in: self.migrated_in[i],
                migrations_out: self.migrated_out[i],
            })
            .collect();
        // A tenant with zero completions gets a zeroed row and is
        // excluded from the fairness ratio — it contributes no goodput
        // evidence, and including it would make every partial run
        // (or the divergence-guard prefix) read as infinitely unfair.
        let per_tenant: Vec<TenantReport> = (0..self.tenants)
            .map(|t| {
                let p = Partition::of(done, |d| d.tenant == t);
                TenantReport {
                    tenant: t,
                    completed: p.completed,
                    sojourn: p.sojourn,
                    slo_attainment: p.attainment(),
                    goodput_rps: per_sec(p.attained as f64),
                }
            })
            .collect();
        let counted: Vec<f64> = per_tenant
            .iter()
            .filter(|t| t.completed > 0)
            .map(|t| t.goodput_rps)
            .collect();
        let tenant_fairness = if counted.len() < 2 {
            1.0
        } else {
            let max = counted.iter().cloned().fold(f64::MIN, f64::max);
            let min = counted.iter().cloned().fold(f64::MAX, f64::min);
            if max == 0.0 {
                // Every counted tenant attained nothing: equally
                // (un)served is still fair.
                1.0
            } else if min == 0.0 {
                f64::INFINITY
            } else {
                max / min
            }
        };
        // On a completed run every configured request finishes, so the
        // record count equals `cfg.requests`; a divergence abort
        // reports the prefix that actually completed. `max(1)` and the
        // span guards only matter on an abort before any completion.
        let run = Partition::of(done, |_| true);
        let burst = Partition::of(done, |c| c.in_burst);
        let workflows = self.workflow_latencies.count();
        ServingReport {
            completed: run.completed,
            mean_service: Duration::from_secs_f64(self.service_sum / run.completed.max(1) as f64),
            sojourn: run.sojourn,
            ttft: self.ttft_hits.union(&self.ttft_colds).percentiles(),
            inter_token: self.itls.all.percentiles(),
            peak_batch: self.peak_batch,
            peak_kv_occupancy: self.peak_kv_occupancy,
            preemptions: self.preemptions,
            recomputes: self.recomputes,
            preempted_requests: done.iter().filter(|c| c.preemptions > 0).count() as u64,
            max_preemptions: done.iter().map(|c| c.preemptions).max().unwrap_or(0),
            host_kv_peak_bytes: self.host_peak_bytes,
            host_kv_peak_occupancy: self.host_peak_occupancy,
            kv_dma: Duration::from_secs_f64(self.dma.iter().sum()),
            swap_stall: Duration::from_secs_f64(self.stall.iter().sum()),
            migrations: self.migrated_out.iter().sum(),
            migration_stall: Duration::from_secs_f64(self.migration_stall),
            fragmentation: if self.frag_samples > 0 {
                self.frag_sum / self.frag_samples as f64
            } else {
                0.0
            },
            prefix_share_ratio: if self.prompt_tokens > 0 {
                self.shared_prompt_tokens as f64 / self.prompt_tokens as f64
            } else {
                0.0
            },
            prefix_cache_hits: self.prefix_hits,
            ttft_cache_hit: self.ttft_hits.percentiles(),
            ttft_cold: self.ttft_colds.percentiles(),
            slo_attainment: run.attainment(),
            workflow_latency: self.workflow_latencies.percentiles(),
            workflow_slo_attainment: attainment(self.workflow_attained, workflows),
            completed_workflows: workflows,
            cancelled_nodes: self.cancelled_nodes,
            inherited_prefix_ratio: if self.inheritable_tokens > 0 {
                self.inherited_tokens as f64 / self.inheritable_tokens as f64
            } else {
                0.0
            },
            burst_inter_token: self.itls.burst.percentiles(),
            burst_slo_attainment: burst.attainment(),
            tenant_fairness,
            per_tenant,
            utilization: if self.last_finish > 0.0 {
                (self.busy.iter().sum::<f64>() / (n as f64 * self.last_finish)).min(1.0)
            } else {
                0.0
            },
            throughput_rps: per_sec(run.completed as f64),
            goodput_rps: per_sec(run.attained as f64),
            diverged: self.diverged,
            per_class,
            per_replica,
        }
    }
}

/// Whether a completed request met `slo`: TTFT within target and the
/// p99 of its own inter-token gaps within target. An empty gap sample
/// (single-token request) trivially meets the ITL half.
pub(crate) fn request_attains(
    slo: Option<super::Slo>,
    ttft_secs: f64,
    gaps: &mut RunSample,
) -> bool {
    let Some(slo) = slo else { return true };
    if ttft_secs > slo.ttft.as_secs_f64() {
        return false;
    }
    gaps.percentiles().p99.as_secs_f64() <= slo.itl_p99.as_secs_f64()
}

/// Index of the `p` quantile in an ascending sample of `len` values:
/// `((len − 1)·p)` rounded to the nearest index.
fn rank(len: usize, p: f64) -> usize {
    ((len as f64 - 1.0) * p).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::Slo;
    use proptest::prelude::*;

    /// The reference the selection must reproduce: a full `total_cmp`
    /// sort, then the sample at rank `((len − 1)·p).round()`.
    fn sorted_percentiles(samples: &[f64]) -> LatencyPercentiles {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let at = |p: f64| {
            if sorted.is_empty() {
                return Duration::ZERO;
            }
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            Duration::from_secs_f64(sorted[idx])
        };
        LatencyPercentiles {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            max: Duration::from_secs_f64(sorted.last().copied().unwrap_or(0.0)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Run-length percentiles read exactly what a full sort of the
        /// expanded samples reads, bit for bit, however the samples were
        /// pushed: one at a time or as `push_n` runs (some thousands
        /// long), in random order, over a handful of values with signed
        /// zeros among them, each value in many separate runs, then up
        /// to 101 single samples over as many distinct values. The same
        /// draws split across two samples read alike through their
        /// union (the run-wide TTFT's path).
        #[test]
        fn run_length_percentiles_match_expanded_samples(
            draws in prop::collection::vec((0u8..6, 0u64..9, 0u8..2, 0u8..2), 0..40),
            len in prop::sample::select(vec![0usize, 1, 2, 3, 100, 101]),
            distinct in prop::collection::vec((0u8..6, 0u32..1000), 101..102),
        ) {
            let mut runs = RunSample::default();
            let mut halves = [RunSample::default(), RunSample::default()];
            let mut expanded = Vec::new();
            for (kind, count, singles, half) in draws {
                let v = [-0.0, 0.0, 0.25, 0.5, 1e-3, 0.75][kind as usize];
                let count = if count < 5 { count } else { count * 500 - kind as u64 };
                for sample in [&mut runs, &mut halves[half as usize]] {
                    if singles == 1 && count < 5 {
                        (0..count).for_each(|_| sample.push_n(v, 1));
                    } else {
                        sample.push_n(v, count);
                    }
                }
                expanded.extend(std::iter::repeat_n(v, count as usize));
            }
            for (i, &(kind, v)) in distinct[..len].iter().enumerate() {
                let v = match kind {
                    0 => -0.0,
                    1 => 0.0,
                    2 | 3 => f64::from(v % 4) * 0.25,
                    _ => f64::from(v) * 1e-3,
                };
                runs.push_n(v, 1);
                halves[i % 2].push_n(v, 1);
                expanded.push(v);
            }
            let want = sorted_percentiles(&expanded);
            let mut union = halves[0].union(&halves[1]);
            prop_assert_eq!(union.count(), expanded.len() as u64);
            prop_assert_eq!(union.percentiles(), want);
            prop_assert_eq!(runs.percentiles(), want);
        }
    }

    #[test]
    fn run_length_edge_cases() {
        // Nothing pushed, and a zero-count run, read as empty.
        let mut runs = RunSample::default();
        runs.push_n(0.5, 0);
        assert!(runs.runs.is_empty(), "push_n(v, 0) is a no-op");
        assert_eq!(runs.percentiles(), LatencyPercentiles::ZERO);
        // A zero-count run neither adds a run nor splits one.
        runs.push_n(0.25, 1);
        runs.push_n(0.5, 0);
        runs.push_n(0.25, 3);
        assert_eq!(runs.runs, vec![(0.25, 4)]);
        // A single sample is every percentile.
        let mut one = RunSample::default();
        one.push_n(0.125, 1);
        let at = Duration::from_secs_f64(0.125);
        assert_eq!(
            one.percentiles(),
            LatencyPercentiles {
                p50: at,
                p95: at,
                p99: at,
                max: at
            }
        );
    }

    #[test]
    #[should_panic(expected = "samples are finite")]
    fn non_finite_run_samples_panic() {
        let mut runs = RunSample::default();
        runs.push_n(f64::INFINITY, 2);
        runs.percentiles();
    }

    /// A request whose p99 gap sits exactly on the ITL target attains;
    /// one picosecond above it, it does not.
    #[test]
    fn p99_gap_on_the_target_attains() {
        let slo = Slo::new(Duration::from_secs_f64(1.0), Duration::from_ms(50));
        // 101 gaps: the p99 rank is 99, the second-largest value.
        let gaps = |second: f64| {
            let mut gaps = RunSample::default();
            (0..99).for_each(|i| gaps.push_n(f64::from(i) * 1e-4, 1));
            [second, 3.0].into_iter().for_each(|v| gaps.push_n(v, 1));
            gaps
        };
        assert!(request_attains(Some(slo), 0.5, &mut gaps(0.050)));
        assert!(!request_attains(Some(slo), 0.5, &mut gaps(0.050 + 1e-12)));
        // The TTFT half still gates, and no SLO always attains.
        assert!(!request_attains(Some(slo), 1.5, &mut RunSample::default()));
        let mut nan = RunSample::default();
        nan.push_n(f64::NAN, 1);
        assert!(request_attains(None, 1e9, &mut nan));
    }
}
