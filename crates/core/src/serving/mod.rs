//! Cluster-scale serving simulation over the unified
//! [`Backend`](crate::backend::Backend) trait, at request or token
//! granularity, with a closed set of scheduler policies.
//!
//! [`ServingSim`] simulates a **cluster of replica backends** — any mix
//! of `IanusSystem`s, device groups, or the analytical baselines — fed by
//! deterministic, seeded Poisson arrivals of a weighted request-shape
//! mix. Two [`Scheduling`] modes cover the two ways real fleets run:
//!
//! * [`Scheduling::RequestLevel`] — each replica serves one whole request
//!   at a time (classic M/G/k) under a pluggable [`DispatchPolicy`]. This
//!   is the paper's Section 6.1 regime: interactive datacenters that
//!   refuse to wait for batches serve batch 1, and IANUS is built to win
//!   exactly there — its PIM GEMVs make non-batched decode
//!   bandwidth-efficient, so batching buys it almost nothing.
//! * [`Scheduling::IterationLevel`] — continuous batching: replicas
//!   admit requests from a global wait queue at every decode-iteration
//!   boundary, up to `max_batch` concurrent sequences, gated by the
//!   backend's KV-cache residency check
//!   ([`Backend::batch_fits`](crate::backend::Backend::batch_fits), built on
//!   [`capacity::check_batch`](crate::capacity::check_batch)). This is
//!   where a weight-streaming GPU claws throughput back: its decode
//!   GEMVs become skinny GEMMs whose weight traffic is read once per
//!   iteration, so `max_batch ≥ 4` multiplies its sustainable rate —
//!   at the price of inter-token latency, which is why the comparison
//!   needs both modes to be quantitative.
//!
//! Iteration-level scheduling has two further knobs, both off by
//! default (see [`Scheduling::iteration`] for the plain form):
//!
//! * **Chunked prefill** (`prefill_chunk`): instead of prefilling a
//!   whole prompt the moment a request is admitted — stalling every
//!   resident decode for the full prompt duration — the scheduler
//!   splits the prompt into chunks and runs **mixed iterations**: one
//!   chunk of one sequence's prefill plus one decode step of the
//!   resident batch, priced as [`Backend::prefill_time`](crate::backend::Backend::prefill_time) on the chunk
//!   plus [`Backend::decode_time`](crate::backend::Backend::decode_time) on the decoding sequences. Long
//!   prompts then stretch each resident ITL sample by one *chunk*, not
//!   one *prompt*.
//! * **KV-pressure preemption** (`preempt`): admission gates on the
//!   batch's *current* KV lengths instead of every sequence's final
//!   length, so more sequences are admitted up front; when KV growth
//!   later makes the batch outgrow device memory, the scheduler evicts
//!   a decoding sequence to a swap queue — charging
//!   [`Backend::kv_transfer_time`](crate::backend::Backend::kv_transfer_time) for the KV swap-out, and again for
//!   the swap-in when it is re-admitted — and reports per-request
//!   preemption counts in the [`ServingReport`].
//!
//! Swapped KV is a **finite host-side resource**: each replica's pool
//! is bounded by
//! [`Backend::host_kv_bytes`](crate::backend::Backend::host_kv_bytes)
//! (or the [`ServingSim::host_kv_pool`] override), and a swap-out that
//! would overflow it falls back to **recompute-based eviction** — the
//! KV is dropped and the whole context re-prefilled on re-admission.
//! Recompute is also selectable outright (or per-victim by cost) via
//! [`EvictionMechanism`] on the policy bundle, and the
//! [`EvictionPolicy::Cheapest`] policy picks victims by eviction cost
//! per KV token freed. With
//! [`ServingSim::overlap_dma`], swap traffic runs on per-replica
//! H2D/D2H DMA lanes (see [`dma`]; a swap-in never queues behind a
//! swap-out) that overlap decode: transfers only stall the batch when
//! the memory or the sequence is actually needed, and the report
//! splits [`kv_dma`](ServingReport::kv_dma) from
//! [`swap_stall`](ServingReport::swap_stall) —
//! [`utilization`](ServingReport::utilization) always means compute.
//!
//! # Disaggregated prefill/decode
//!
//! Iteration-level replicas can further take a [`ReplicaRole`]: a
//! [`PrefillOnly`](ReplicaRole::PrefillOnly) replica admits arrivals,
//! runs their prefill, then hands each sequence off to a
//! [`DecodeOnly`](ReplicaRole::DecodeOnly) replica — the KV migrates
//! over the same H2D/D2H DMA lanes (see [`dma`]) priced by
//! [`Backend::kv_transfer_time`](crate::backend::Backend::kv_transfer_time)
//! on both legs, and the destination applies its own admission gate
//! and paged-KV block accounting on arrival. The destination is chosen
//! by the installed [`MigrationPolicy`]
//! ([`ServingSim::migration`]; least-loaded by default), pools are
//! sized by [`DisaggregationConfig`] (by count or at equal hardware
//! cost via [`capacity::device_cost_units`](crate::capacity::device_cost_units)),
//! and the report grows [`migrations`](ServingReport::migrations),
//! [`migration_stall`](ServingReport::migration_stall), and per-role
//! replica rows. This is the paper's cluster-level claim made
//! runnable: GPUs win compute-dense prefill, PIM wins token-serial
//! decode, and `examples/disaggregated.rs` measures when the split
//! beats the best equal-cost homogeneous pool. All-`Unified` clusters
//! take none of these paths and stay bit-identical to the
//! pre-disaggregation engine.
//!
//! # Scheduler policies
//!
//! *Which* request is admitted next, *which* sequence is evicted under
//! KV pressure, and *which* swapped sequence re-enters first are not
//! baked into the event loop: they are the three [`policy`] enums —
//! [`AdmissionPolicy`], [`EvictionPolicy`], and [`ReadmissionPolicy`] —
//! bundled into a [`SchedulerPolicy`] and installed with
//! [`ServingSim::policy`]. The default bundle (FCFS admission,
//! lowest-[`Priority`]/youngest eviction, FIFO re-admission) reproduces
//! the historical hard-wired behavior bit-identically; the other
//! variants ([`AdmissionPolicy::Deadline`],
//! [`EvictionPolicy::LargestKv`], [`EvictionPolicy::LeastProgress`], …)
//! exist to *compare* victim-selection and SLO-ordering rules under
//! identical traffic, and each enum's `ALL` array lists every choice.
//!
//! Request classes can carry an [`Slo`] (TTFT and ITL-p99 targets);
//! the report then scores per-class and aggregate
//! [`slo_attainment`](ServingReport::slo_attainment) and
//! [`goodput_rps`](ServingReport::goodput_rps) (completions *within*
//! SLO per second), and
//! [`ServingSim::sustainable_goodput_rate`] bisects on goodput instead
//! of bare stability.
//!
//! The result is a [`ServingReport`] with sojourn, **time-to-first-token
//! and inter-token-latency** percentiles (including the worst-case
//! `max` sample), per-class and per-replica statistics, and a
//! [`ServingSim::sustainable_rate`] search helper that works under both
//! modes.
//!
//! Device step costs come from the same simulations the figures use,
//! memoized per *price class* — the replicas whose backends
//! [price alike](crate::backend::Backend::prices_like), so a cluster of
//! identical devices simulates each step once: whole-request service
//! times per `(model,
//! shape)`, prefill times per `(model, tokens)`, and decode-iteration
//! times per `(model, batch)` on a geometric grid of past-lengths with
//! piecewise-linear interpolation between grid points — so rate sweeps
//! stay queueing-only fast in either mode.
//!
//! # Examples
//!
//! A two-replica IANUS cluster under least-loaded dispatch:
//!
//! ```
//! use ianus_core::serving::{DispatchPolicy, ServingConfig, ServingSim};
//! use ianus_core::{IanusSystem, SystemConfig};
//! use ianus_model::ModelConfig;
//!
//! let report = ServingSim::new(ServingConfig::interactive(6.0, 200))
//!     .replica(IanusSystem::new(SystemConfig::ianus()))
//!     .replica(IanusSystem::new(SystemConfig::ianus()))
//!     .dispatch(DispatchPolicy::LeastLoaded)
//!     .run(&ModelConfig::gpt2_m());
//! assert_eq!(report.completed, 200);
//! assert_eq!(report.per_replica.len(), 2);
//! assert!(report.utilization > 0.0 && report.utilization <= 1.0);
//! ```
//!
//! The same cluster under continuous batching, with first-token and
//! inter-token tails:
//!
//! ```
//! use ianus_core::serving::{Scheduling, ServingConfig, ServingSim};
//! use ianus_core::{IanusSystem, SystemConfig};
//! use ianus_model::ModelConfig;
//!
//! let report = ServingSim::new(ServingConfig::interactive(6.0, 200))
//!     .replica(IanusSystem::new(SystemConfig::ianus()))
//!     .scheduling(Scheduling::iteration(4))
//!     .run(&ModelConfig::gpt2_m());
//! assert_eq!(report.completed, 200);
//! assert!(report.ttft.p99 >= report.ttft.p50);
//! assert!(report.inter_token.p50.as_ms_f64() > 0.0);
//! assert!(report.inter_token.max >= report.inter_token.p99);
//! assert!(report.peak_batch >= 1 && report.peak_batch <= 4);
//! ```
//!
//! A non-default policy bundle with SLOs — deadline-EDF admission,
//! largest-KV eviction, and goodput scoring:
//!
//! ```
//! use ianus_core::serving::{
//!     AdmissionPolicy, EvictionPolicy, RequestClass, Scheduling, SchedulerPolicy,
//!     ServingConfig, ServingSim, Slo,
//! };
//! use ianus_core::{IanusSystem, SystemConfig};
//! use ianus_model::{ModelConfig, RequestShape};
//! use ianus_sim::Duration;
//!
//! let mut cfg = ServingConfig::interactive(6.0, 120);
//! let slo = Slo::new(Duration::from_ms(400), Duration::from_ms(30));
//! cfg.mix = cfg.mix.into_iter().map(|c| c.with_slo(slo)).collect();
//! let report = ServingSim::new(cfg)
//!     .replica(IanusSystem::new(SystemConfig::ianus()))
//!     .scheduling(Scheduling::iteration(4))
//!     .policy(
//!         SchedulerPolicy::default()
//!             .with_admission(AdmissionPolicy::Deadline)
//!             .with_eviction(EvictionPolicy::LargestKv),
//!     )
//!     .run(&ModelConfig::gpt2_m());
//! assert_eq!(report.completed, 120);
//! assert!(report.slo_attainment > 0.0 && report.slo_attainment <= 1.0);
//! assert!(report.goodput_rps <= report.throughput_rps);
//! ```

#![deny(missing_docs)]

pub mod dma;
pub mod kv;
pub mod policy;
pub mod workflow;

mod engine;
mod report;
#[cfg(test)]
mod tests;

pub use engine::{check_generation, ArrivalSpec, ConfigError, ServingSim, TenantSpec};
pub use policy::{
    AdmissionPolicy, EvictionMechanism, EvictionPolicy, MigrationPolicy, ReadmissionPolicy,
    SchedulerPolicy,
};
pub use report::{ClassReport, LatencyPercentiles, ReplicaReport, ServingReport, TenantReport};
pub use workflow::{WorkflowError, WorkflowNode, WorkflowTemplate};

use ianus_model::RequestShape;
use ianus_sim::Duration;

/// Scheduling tier of a request class.
///
/// Priorities matter to the [`policy`] layer: the default
/// [`EvictionPolicy`] sheds KV pressure from [`Priority::Batch`]
/// sequences before [`Priority::Interactive`] ones (and the youngest
/// sequence within a tier), and [`AdmissionPolicy::Priority`]
/// reorders the wait queue by tier. Under the default FCFS admission
/// the tier decides who *pays* for overcommit, not who runs first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput-oriented background work (evicted first).
    Batch,
    /// Latency-sensitive interactive traffic (evicted last).
    Interactive,
}

/// A per-request latency service-level objective.
///
/// A completed request *attains* its SLO when its time-to-first-token
/// is at most [`ttft`](Self::ttft) **and** the 99th percentile of its
/// own inter-token gaps is at most [`itl_p99`](Self::itl_p99).
/// Attainment is scored per class and in aggregate in the
/// [`ServingReport`] (`slo_attainment`, `goodput_rps`); the deadline
/// that [`AdmissionPolicy::Deadline`] and
/// [`ReadmissionPolicy::Deadline`] order by is `arrival + ttft`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time-to-first-token target (arrival to first output token).
    pub ttft: Duration,
    /// Per-request 99th-percentile inter-token-latency target.
    pub itl_p99: Duration,
}

impl Slo {
    /// An SLO with the given TTFT and ITL-p99 targets.
    pub fn new(ttft: Duration, itl_p99: Duration) -> Self {
        Slo { ttft, itl_p99 }
    }
}

/// One entry of the request-shape mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestClass {
    /// The request shape.
    pub shape: RequestShape,
    /// Relative weight of this class in the mix.
    pub weight: f64,
    /// Scheduling tier (see [`Priority`]).
    pub priority: Priority,
    /// Latency SLO scored for this class (`None`: the class has no
    /// target, so its requests trivially attain).
    pub slo: Option<Slo>,
    /// Leading prompt tokens shared by every request of this class (a
    /// common system prompt / few-shot header). 0 — the default — means
    /// the class opts out of prefix sharing. Only **paged** KV
    /// accounting ([`ServingSim::kv_block`] above 0) acts on it: the
    /// first request to prefill publishes its full prefix *blocks* to a
    /// per-class prefix cache, and later admissions map those blocks
    /// copy-on-write and prefill only the suffix (shorter prefill →
    /// lower TTFT). Sharing is capped below the prompt length so at
    /// least one token always prefills.
    pub prefix_tokens: u64,
}

impl RequestClass {
    /// An [`Priority::Interactive`] class of `shape` with `weight` and
    /// no SLO.
    pub fn new(shape: RequestShape, weight: f64) -> Self {
        RequestClass {
            shape,
            weight,
            priority: Priority::Interactive,
            slo: None,
            prefix_tokens: 0,
        }
    }

    /// Replaces the priority tier (builder style).
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a latency [`Slo`] (builder style).
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Declares the class's first `tokens` prompt tokens shared across
    /// its requests (builder style; see
    /// [`prefix_tokens`](Self::prefix_tokens)).
    pub fn with_shared_prefix(mut self, tokens: u64) -> Self {
        self.prefix_tokens = tokens;
        self
    }
}

/// Configuration of a serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Mean arrival rate in requests per second (Poisson process),
    /// aggregated over the whole cluster.
    pub arrival_rate_hz: f64,
    /// Number of requests to simulate.
    pub requests: u64,
    /// RNG seed (simulations are deterministic given the seed).
    pub seed: u64,
    /// Request-shape mix (weights need not sum to one).
    pub mix: Vec<RequestClass>,
    /// Agentic workflow mix (see [`workflow`]). When non-empty the
    /// engine runs in *workflow mode*: [`requests`](Self::requests)
    /// counts workflow **instances** (each Poisson arrival draws one
    /// weighted [`WorkflowTemplate`] and releases its root nodes; child
    /// nodes queue when their last parent completes), `mix` must be
    /// empty, and scheduling must be iteration-level. A single-node
    /// template behaves bit-identically to the equivalent flat
    /// [`RequestClass`] mix.
    pub workflows: Vec<WorkflowTemplate>,
    /// The shape of the arrival process (see [`ArrivalSpec`]). The
    /// default [`ArrivalSpec::Poisson`] reproduces the historical
    /// seeded Poisson trace byte-for-byte; the alternatives modulate
    /// the *timing* of the same mean rate — sinusoidal diurnal cycles,
    /// two-state Markov-modulated bursts, or K merged per-tenant
    /// processes — while keeping [`arrival_rate_hz`](Self::arrival_rate_hz)
    /// the long-run mean.
    pub arrivals: ArrivalSpec,
}

impl ServingConfig {
    /// A typical interactive mix: mostly short chat turns, some longer
    /// completions.
    pub fn interactive(arrival_rate_hz: f64, requests: u64) -> Self {
        ServingConfig {
            arrival_rate_hz,
            requests,
            seed: 0x5EED,
            mix: vec![
                RequestClass::new(RequestShape::new(128, 32), 0.6),
                RequestClass::new(RequestShape::new(256, 64), 0.3),
                RequestClass::new(RequestShape::new(512, 256), 0.1),
            ],
            workflows: vec![],
            arrivals: ArrivalSpec::Poisson,
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the arrival-process shape (builder style; see
    /// [`ArrivalSpec`]). [`ServingSim::validate`] checks it.
    pub fn arrivals(mut self, spec: ArrivalSpec) -> Self {
        self.arrivals = spec;
        self
    }

    /// A decode-heavy mix: short prompts, long generations. This is the
    /// regime where iteration-level batching pays on weight-streaming
    /// backends (decode dominates, and batched decode amortizes weight
    /// traffic), and where batch-1 hardware like IANUS must win on raw
    /// per-token latency instead.
    pub fn decode_heavy(arrival_rate_hz: f64, requests: u64) -> Self {
        ServingConfig {
            mix: vec![
                RequestClass::new(RequestShape::new(32, 128), 0.5),
                RequestClass::new(RequestShape::new(64, 256), 0.35),
                RequestClass::new(RequestShape::new(128, 512), 0.15),
            ],
            ..Self::interactive(arrival_rate_hz, requests)
        }
    }

    /// A two-tier mix of mostly short interactive turns plus a tail of
    /// long-prompt [`Priority::Batch`] jobs (document summarization /
    /// ingestion). This is the regime chunked prefill exists for: a
    /// monolithic 896-token prefill stalls every resident decode for the
    /// whole prompt, so the interactive tier's ITL tail tracks the
    /// *batch* tier's prompt length until prefill is chunked — and the
    /// regime where the eviction policy's victim order (batch before
    /// interactive under the default) earns its keep.
    pub fn long_prompt(arrival_rate_hz: f64, requests: u64) -> Self {
        ServingConfig {
            mix: vec![
                RequestClass::new(RequestShape::new(128, 32), 0.75),
                RequestClass::new(RequestShape::new(896, 64), 0.25).with_priority(Priority::Batch),
            ],
            ..Self::interactive(arrival_rate_hz, requests)
        }
    }

    /// A shared-prefix mix: two equal tiers of (512, 512) requests —
    /// interactive and [`Priority::Batch`] — each carrying a 384-token
    /// class-wide prompt prefix (a system prompt / few-shot header;
    /// 75% of every prompt). Under paged KV accounting
    /// ([`ServingSim::kv_block`]) this is the regime copy-on-write
    /// prefix sharing exists for: after each tier's first cold prefill,
    /// admissions map the cached prefix blocks and prefill only the
    /// 128-token suffix. The heavy (512, 512) shape also keeps KV
    /// pressure — and therefore preemption, when enabled — alive, so
    /// shared blocks are exercised by eviction, not just admission.
    pub fn shared_prefix(arrival_rate_hz: f64, requests: u64) -> Self {
        let shape = RequestShape::new(512, 512);
        ServingConfig {
            mix: vec![
                RequestClass::new(shape, 0.5).with_shared_prefix(384),
                RequestClass::new(shape, 0.5)
                    .with_priority(Priority::Batch)
                    .with_shared_prefix(384),
            ],
            ..Self::interactive(arrival_rate_hz, requests)
        }
    }

    /// An agentic workflow mix: `requests` workflow *instances* drawn
    /// from `workflows` by weight. Requires iteration-level scheduling
    /// at run time; the flat `mix` stays empty. [`ServingSim::validate`]
    /// checks the templates.
    pub fn workflow_mix(
        arrival_rate_hz: f64,
        requests: u64,
        workflows: Vec<WorkflowTemplate>,
    ) -> Self {
        ServingConfig {
            mix: vec![],
            workflows,
            ..Self::interactive(arrival_rate_hz, requests)
        }
    }
}

/// At what granularity the cluster schedules work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheduling {
    /// Each replica serves one whole request at a time; arriving
    /// requests are routed by the [`DispatchPolicy`]. The paper's
    /// batch-1 interactive regime (Section 6.1).
    RequestLevel,
    /// Continuous batching: every replica admits requests from one
    /// global wait queue at each decode-iteration boundary, up to
    /// `max_batch` concurrent sequences, gated by the backend's
    /// KV-residency check ([`Backend::batch_fits`](crate::backend::Backend::batch_fits)). The wait queue is
    /// ordered by the installed [`AdmissionPolicy`] (FCFS by default).
    /// Admitted requests prefill immediately (no waiting to form
    /// batches), then join the running decode batch; each iteration
    /// emits one token per active sequence. The [`DispatchPolicy`] is
    /// ignored in this mode — the global queue *is* the dispatch.
    ///
    /// [`Scheduling::iteration`] builds the plain form (monolithic
    /// prefill, no preemption); the fields document the two extensions.
    IterationLevel {
        /// Maximum concurrent sequences per replica (≥ 1).
        max_batch: u32,
        /// Chunked prefill: `Some(n)` splits every prompt into chunks of
        /// at most `n` tokens and interleaves one chunk per iteration
        /// with the resident batch's decode step (a *mixed* iteration,
        /// priced as the chunk's [`Backend::prefill_time`](crate::backend::Backend::prefill_time) plus the
        /// decode batch's [`Backend::decode_time`](crate::backend::Backend::decode_time)). `None` prefills
        /// each prompt whole in one iteration. Must be positive when
        /// set.
        prefill_chunk: Option<u64>,
        /// KV-pressure preemption: admission gates on *current* KV
        /// lengths (optimistic overcommit), and when batch KV growth no
        /// longer fits, the installed [`EvictionPolicy`]'s victim (the
        /// lowest-[`Priority`], youngest decoding sequence by default)
        /// is swapped out (charged [`Backend::kv_transfer_time`](crate::backend::Backend::kv_transfer_time) each
        /// way) until pressure clears, then re-admitted in the
        /// [`ReadmissionPolicy`]'s order ahead of new arrivals. When
        /// `false`, admission gates on final lengths, so pressure can
        /// never reject a batch mid-flight.
        preempt: bool,
    },
}

impl Scheduling {
    /// Iteration-level continuous batching with monolithic prefill and
    /// no preemption — the common form.
    pub fn iteration(max_batch: u32) -> Self {
        Scheduling::IterationLevel {
            max_batch,
            prefill_chunk: None,
            preempt: false,
        }
    }
}

/// How arriving requests are assigned to replicas (request-level
/// scheduling only; iteration-level pulls from a global wait queue
/// ordered by the [`AdmissionPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// One global FCFS queue: each request in arrival order goes to the
    /// replica that frees up earliest (classic M/G/k). Implicitly
    /// speed-aware — a fast replica frees up sooner.
    FcfsSingleQueue,
    /// Route at arrival to the replica with the *fewest outstanding
    /// requests* (queued + in service), ignoring how fast that replica
    /// is — the load-balancer view when per-request cost is unknown.
    LeastLoaded,
    /// Route at arrival to the replica with the smallest *expected
    /// completion time* for this request — backlog plus this shape's
    /// memoized service time on that replica. On heterogeneous clusters
    /// this steers work toward faster replicas.
    ShortestExpectedJob,
}

/// What work a replica accepts in a disaggregated cluster
/// (iteration-level scheduling only).
///
/// Roles express the paper's heterogeneous-cluster claim: compute-dense
/// prefill goes to GPU-class replicas, token-serial decode to PIM-class
/// replicas, with the KV migrating between them (see the
/// [module docs](self#disaggregated-prefilldecode)). The default
/// [`Unified`](ReplicaRole::Unified) role does both, and an
/// all-`Unified` cluster behaves bit-identically to the
/// pre-disaggregation engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplicaRole {
    /// Admits arrivals and serves them start to finish (the default).
    #[default]
    Unified,
    /// Admits arrivals and runs prefill, then migrates each sequence's
    /// KV to a decode replica the moment its prefill completes. If the
    /// cluster has no decode replicas, decodes locally as a fallback.
    PrefillOnly,
    /// Never admits arrivals; serves only sequences migrated in from
    /// prefill replicas, decoding them to completion.
    DecodeOnly,
}

impl ReplicaRole {
    /// Short lowercase label ("unified" / "prefill" / "decode").
    pub fn name(self) -> &'static str {
        match self {
            ReplicaRole::Unified => "unified",
            ReplicaRole::PrefillOnly => "prefill",
            ReplicaRole::DecodeOnly => "decode",
        }
    }
}

/// Sizing of a disaggregated cluster's prefill and decode pools.
///
/// Build one [`by_count`](Self::by_count) when the pool sizes are
/// given, or [`equal_cost`](Self::equal_cost) to split a hardware
/// budget (in the cost units of
/// [`capacity::device_cost_units`](crate::capacity::device_cost_units))
/// between heterogeneous prefill and decode devices — the form the
/// paper's equal-cost comparisons need. Feed it to
/// [`ServingSim::disaggregated`], which instantiates
/// `prefill + decode` replicas with the matching [`ReplicaRole`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisaggregationConfig {
    /// Number of [`ReplicaRole::PrefillOnly`] replicas (≥ 1).
    pub prefill: usize,
    /// Number of [`ReplicaRole::DecodeOnly`] replicas (≥ 1).
    pub decode: usize,
}

impl DisaggregationConfig {
    /// Explicit pool sizes. Panics unless both are at least 1.
    pub fn by_count(prefill: usize, decode: usize) -> Self {
        assert!(
            prefill >= 1 && decode >= 1,
            "a disaggregated cluster needs at least one replica per pool"
        );
        DisaggregationConfig { prefill, decode }
    }

    /// Splits `budget_units` of hardware budget between the pools:
    /// `prefill_share` (in `[0, 1]`) of the budget buys prefill
    /// devices costing `prefill_unit_cost` each, the rest buys decode
    /// devices costing `decode_unit_cost` each. Each pool gets
    /// `floor(share / unit_cost)` devices, but at least one — so the
    /// realized cost ([`cost_units`](Self::cost_units)) can exceed the
    /// budget only when the budget cannot afford one device per pool.
    pub fn equal_cost(
        budget_units: f64,
        prefill_unit_cost: f64,
        decode_unit_cost: f64,
        prefill_share: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&prefill_share),
            "prefill_share must be in [0, 1]"
        );
        assert!(
            prefill_unit_cost > 0.0 && decode_unit_cost > 0.0,
            "device unit costs must be positive"
        );
        let prefill = ((budget_units * prefill_share) / prefill_unit_cost).floor() as usize;
        let decode = ((budget_units * (1.0 - prefill_share)) / decode_unit_cost).floor() as usize;
        DisaggregationConfig {
            prefill: prefill.max(1),
            decode: decode.max(1),
        }
    }

    /// Realized hardware cost of the cluster given per-device costs.
    pub fn cost_units(self, prefill_unit_cost: f64, decode_unit_cost: f64) -> f64 {
        self.prefill as f64 * prefill_unit_cost + self.decode as f64 * decode_unit_cost
    }
}

/// Picks the class of `weights` for a uniform draw in `[0, Σweights)`.
///
/// Floating-point subtraction can leave the residual at or slightly above
/// the final weight even for in-range draws; the final class is the
/// fallback so such draws never silently snap back to class 0.
pub(crate) fn pick_class(weights: &[f64], draw: f64) -> usize {
    let mut rem = draw;
    for (i, &w) in weights.iter().enumerate() {
        if rem < w {
            return i;
        }
        rem -= w;
    }
    weights.len() - 1
}
