//! The cluster engine, layered: replica memoization, arrival
//! generation, both scheduling loops, and the rate-search helpers.
//!
//! The engine is decomposed into one module per subsystem, each owning
//! its state as a named struct with documented call contracts:
//!
//! | module        | layer struct       | owns                                        |
//! |---------------|--------------------|---------------------------------------------|
//! | `replica`     | `Replicas`         | backends + per-price-class cost memos       |
//! | `arrivals`    | [`ArrivalSpec`]    | one trace stream per run (Poisson/MMPP/...) |
//! | `admission`   | `WaitQueue`        | arrival vector, wait queue, admission order |
//! | `batch`       | `BatchState`       | counted `Batch`es, clocks, execute/advance  |
//! | `decode`      | `DecodeEpoch`      | decoder counters, steady set, decode steps  |
//! | `kv_state`    | `KvLedger`         | KV pools, fit rule, batch entry, eviction   |
//! | `dma_retire`  | `LaneClocks`       | lane clocks, ordered `LaneQueue`s, retiring |
//! | `migrate`     | `MigrationState`   | decode pool, prefill→decode handoff         |
//! | `workflow_rt` | `WorkflowRt`       | workflow instances, completion fan-out      |
//! | `core`        | `EngineCore`       | layer composition, turn loop, `TurnTree`    |
//! | `preflight`   | [`ConfigError`]    | `validate`: whether a run can start         |
//!
//! This module keeps the public facade: [`ServingSim`] (builders, `run`,
//! the rate sweeps).

mod admission;
mod arrivals;
mod batch;
mod core;
mod decode;
mod dma_retire;
mod kv_state;
mod migrate;
mod preflight;
mod replica;
mod workflow_rt;

pub use arrivals::{ArrivalSpec, TenantSpec};
pub use preflight::{check_generation, ConfigError};

#[cfg(test)]
pub(crate) use kv_state::FORCE_PRICING;

use self::replica::Replicas;
use super::policy::{MigrationPolicy, SchedulerPolicy};
use super::report::RunStats;
use super::DispatchPolicy;
use super::{DisaggregationConfig, ReplicaRole, Scheduling, ServingConfig, ServingReport};
use crate::backend::Backend;
use ianus_model::ModelConfig;

/// Total order over engine clocks. Clocks are finite and non-negative,
/// where `total_cmp` agrees with IEEE `<`, so the wait queue orders
/// times as IEEE comparisons do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Builder-style cluster serving engine over [`Backend`] replicas.
///
/// Construct with a [`ServingConfig`], add one or more replicas, pick a
/// [`DispatchPolicy`] (request-level) or a [`SchedulerPolicy`]
/// (iteration-level), then [`run`](Self::run). The engine owns its
/// replicas; service-time memos survive across runs, so rate sweeps and
/// [`sustainable_rate`](Self::sustainable_rate) searches re-simulate no
/// device. Replicas whose backends [price alike](Backend::prices_like)
/// share one set of memos, so identical devices price each stage once.
pub struct ServingSim {
    cfg: ServingConfig,
    dispatch: DispatchPolicy,
    scheduling: Scheduling,
    scheduler: SchedulerPolicy,
    replicas: Replicas,
    /// Host-pool override: `None` defers to each replica's
    /// [`Backend::host_kv_bytes`]; `Some(None)` forces unbounded;
    /// `Some(Some(b))` forces a `b`-byte pool on every replica.
    host_kv_override: Option<Option<u64>>,
    /// Whether swap DMA overlaps compute (off by default — serialized
    /// transfers, the historical behavior).
    overlap_dma: bool,
    /// Paged-KV block size in tokens; 0 (the default) keeps the legacy
    /// contiguous accounting.
    kv_block: u64,
    /// Divergence-guard override: `None` defers to the context (the
    /// auto bound during rate probes, off in direct runs);
    /// `Some(None)` forces the guard off; `Some(Some(d))` aborts a run
    /// when the arrived-but-unadmitted backlog exceeds `d` requests.
    divergence: Option<Option<u64>>,
    /// Set while [`sustainable_rate_where`](Self::sustainable_rate_where)
    /// probes rates, enabling the automatic divergence bound.
    probe_divergence: bool,
    /// Per-replica [`ReplicaRole`]s, aligned with `replicas`
    /// (all-`Unified` outside disaggregated runs).
    roles: Vec<ReplicaRole>,
    /// Destination choice for prefill→decode KV migrations.
    migration: MigrationPolicy,
    /// Whether workflow children inherit their parent's registered KV
    /// blocks as a shared prefix in paged mode (on by default; the
    /// off switch exists so experiments can measure the cold
    /// re-prefill baseline on the same trace).
    workflow_inheritance: bool,
}

impl ServingSim {
    /// Starts a simulation builder with no replicas, FCFS dispatch,
    /// request-level scheduling, and the default [`SchedulerPolicy`].
    pub fn new(cfg: ServingConfig) -> Self {
        ServingSim {
            cfg,
            dispatch: DispatchPolicy::FcfsSingleQueue,
            scheduling: Scheduling::RequestLevel,
            scheduler: SchedulerPolicy::default(),
            replicas: Replicas::default(),
            host_kv_override: None,
            overlap_dma: false,
            kv_block: 0,
            divergence: None,
            probe_divergence: false,
            roles: Vec::new(),
            migration: MigrationPolicy::LeastLoaded,
            workflow_inheritance: true,
        }
    }

    /// Adds one replica backend.
    pub fn replica(self, backend: impl Backend + 'static) -> Self {
        self.boxed_replica(Box::new(backend))
    }

    /// Adds one replica backend with an explicit [`ReplicaRole`]
    /// (iteration-level scheduling only; see the
    /// [module docs](super#disaggregated-prefilldecode)).
    pub fn replica_with_role(self, backend: impl Backend + 'static, role: ReplicaRole) -> Self {
        let mut s = self.boxed_replica(Box::new(backend));
        *s.roles.last_mut().expect("boxed_replica pushed a role") = role;
        s
    }

    /// Adds an already-boxed replica (for heterogeneous `dyn` lists).
    pub fn boxed_replica(mut self, backend: Box<dyn Backend>) -> Self {
        self.replicas.push(backend);
        self.roles.push(ReplicaRole::Unified);
        self
    }

    /// Adds `n` replicas built by `make(index)`.
    pub fn cluster<B: Backend + 'static>(
        mut self,
        n: usize,
        mut make: impl FnMut(usize) -> B,
    ) -> Self {
        for i in 0..n {
            self = self.replica(make(i));
        }
        self
    }

    /// Adds a disaggregated cluster per `cfg`: `cfg.prefill`
    /// [`ReplicaRole::PrefillOnly`] replicas built by `prefill(index)`,
    /// then `cfg.decode` [`ReplicaRole::DecodeOnly`] replicas built by
    /// `decode(index)` (each index counts within its own pool).
    /// Requires iteration-level scheduling at [`run`](Self::run) time.
    pub fn disaggregated<P: Backend + 'static, D: Backend + 'static>(
        mut self,
        cfg: DisaggregationConfig,
        mut prefill: impl FnMut(usize) -> P,
        mut decode: impl FnMut(usize) -> D,
    ) -> Self {
        for i in 0..cfg.prefill {
            self = self.replica_with_role(prefill(i), ReplicaRole::PrefillOnly);
        }
        for i in 0..cfg.decode {
            self = self.replica_with_role(decode(i), ReplicaRole::DecodeOnly);
        }
        self
    }

    /// The per-replica roles, in replica order.
    pub fn roles(&self) -> &[ReplicaRole] {
        &self.roles
    }

    /// Installs the [`MigrationPolicy`] choosing which decode replica
    /// receives each prefill→decode handoff
    /// ([`MigrationPolicy::LeastLoaded`] by default). Only consulted
    /// when the cluster has [`ReplicaRole::PrefillOnly`] replicas.
    pub fn migration(mut self, policy: MigrationPolicy) -> Self {
        self.migration = policy;
        self
    }

    /// Enables (the default) or disables **workflow KV inheritance**:
    /// in paged mode ([`kv_block`](Self::kv_block)), a completing
    /// workflow node registers its KV under a per-(instance, node)
    /// prefix key, and each child admits with its lowest-index
    /// parent's blocks mapped copy-on-write as a shared prefix —
    /// skipping the re-prefill of context the cluster already holds.
    /// Cross-replica admissions miss and prefill cold (KV does not
    /// teleport between replicas). Off, every node prefills its full
    /// effective prompt from scratch — the control arm for measuring
    /// the inheritance win. No effect on flat (non-workflow) runs or
    /// in contiguous mode.
    pub fn workflow_inheritance(mut self, inherit: bool) -> Self {
        self.workflow_inheritance = inherit;
        self
    }

    /// Sets the dispatch policy (request-level scheduling only).
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch = policy;
        self
    }

    /// Sets the scheduling granularity. Replicas and their memos are
    /// kept, so `sim = sim.scheduling(..)` on a warm engine is the cheap
    /// way to compare modes.
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Installs a [`SchedulerPolicy`] bundle (iteration-level
    /// scheduling; request-level routing stays with
    /// [`dispatch`](Self::dispatch)). The default bundle reproduces the
    /// historical hard-wired scheduler bit-identically. Replicas and
    /// their memos are kept, so `sim = sim.policy(..)` on a warm engine
    /// is the cheap way to sweep the policy space (the device costs do
    /// not depend on the policy).
    pub fn policy(mut self, scheduler: SchedulerPolicy) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Overrides every replica's host-side KV swap pool: `Some(bytes)`
    /// forces a finite pool of that size, `None` forces an unbounded
    /// pool. Without this override each replica uses its backend's own
    /// [`Backend::host_kv_bytes`]. The pool bounds how much swapped KV
    /// can live host-side at once; a swap-out that would overflow it
    /// falls back to recompute-based eviction.
    pub fn host_kv_pool(mut self, bytes: Option<u64>) -> Self {
        self.host_kv_override = Some(bytes);
        self
    }

    /// Enables (or disables) **overlapped swap DMA**: each replica gets
    /// independent H2D and D2H lane clocks ([`super::dma`]; swap-ins
    /// never queue behind swap-outs), swap transfers run on them
    /// concurrently with compute, and the batch only stalls when it
    /// actually needs the data or the memory — a swap-out frees device
    /// KV at DMA *completion* (the iteration waits if it needs those
    /// bytes sooner) and a swap-in's completion gates the sequence's
    /// re-entry into the batch while decode continues around it. Off by
    /// default: transfers serialize with compute on the replica clock,
    /// the historical behavior.
    pub fn overlap_dma(mut self, overlap: bool) -> Self {
        self.overlap_dma = overlap;
        self
    }

    /// Switches iteration-level KV accounting to **paged blocks** of
    /// `tokens` tokens each (0, the default, keeps the legacy
    /// contiguous accounting, bit-identically). Each replica's block
    /// budget comes from its backend's
    /// [`Backend::kv_budget_bytes`](crate::backend::Backend::kv_budget_bytes);
    /// a backend that reports no budget stays contiguous. Paged mode
    /// gates admission and pressure on free *blocks*, shares
    /// full-block prompt prefixes copy-on-write across requests of the
    /// same class (a [`RequestClass::prefix_tokens`](super::RequestClass)
    /// above 0 opts the class in), and moves only a sequence's
    /// *unshared* tokens on swap or recompute.
    pub fn kv_block(mut self, tokens: u64) -> Self {
        self.kv_block = tokens;
        self
    }

    /// Sets the **divergence guard** (builder style): `Some(d)` aborts
    /// an iteration-level run once more than `d` arrived requests are
    /// waiting unadmitted — the run is hopelessly overloaded, and its
    /// report comes back with [`ServingReport::diverged`] set (never
    /// [`stable`](ServingReport::stable)) covering only the simulated
    /// prefix. `None` disables the guard everywhere, including inside
    /// rate probes.
    ///
    /// Without this override, the guard is off in direct
    /// [`run`](Self::run)s (every configured request completes) and an
    /// automatic bound — generous enough that any run it stops would
    /// have failed the stability predicate anyway — protects
    /// [`sustainable_rate_where`](Self::sustainable_rate_where) probes
    /// from simulating the full horizon of a diverged queue.
    pub fn divergence_depth(mut self, depth: Option<u64>) -> Self {
        self.divergence = Some(depth);
        self
    }

    /// A deep copy of this engine — replicas (via
    /// [`Backend::clone_box`]), their warm price-class memos, and every
    /// knob — or `None` if any replica's backend does not support
    /// cloning. Clones are what [`sweep_rates`](Self::sweep_rates) and
    /// the parallel [`sustainable_rate_where`](Self::sustainable_rate_where)
    /// hand to scoped threads; a run on a clone produces exactly the
    /// report the original would (runs depend only on the config and
    /// the backends' deterministic costs, never on memo warmth).
    pub fn try_clone(&self) -> Option<ServingSim> {
        Some(ServingSim {
            cfg: self.cfg.clone(),
            dispatch: self.dispatch,
            scheduling: self.scheduling,
            scheduler: self.scheduler,
            replicas: self.replicas.try_clone()?,
            host_kv_override: self.host_kv_override,
            overlap_dma: self.overlap_dma,
            kv_block: self.kv_block,
            divergence: self.divergence,
            probe_divergence: self.probe_divergence,
            roles: self.roles.clone(),
            migration: self.migration,
            workflow_inheritance: self.workflow_inheritance,
        })
    }

    /// The current configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// Changes the arrival rate in place, keeping replicas and their
    /// service memos. This is the canonical rate-sweep entry: the first
    /// [`run`](Self::run) prices every (model, shape/step) the mix
    /// needs on each price class, after which every further rate is a
    /// queueing-only pass (no device simulation), each re-seeding the
    /// same arrival trace *shape* at the new rate.
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_core::serving::{ServingConfig, ServingSim};
    /// use ianus_core::{IanusSystem, SystemConfig};
    /// use ianus_model::ModelConfig;
    ///
    /// let model = ModelConfig::gpt2_m();
    /// let mut sim = ServingSim::new(ServingConfig::interactive(1.0, 150))
    ///     .replica(IanusSystem::new(SystemConfig::ianus()));
    /// let mut last_p99 = 0.0;
    /// for rate in [1.0, 4.0, 16.0] {
    ///     sim.set_rate(rate); // warm memos after the first run
    ///     let r = sim.run(&model);
    ///     assert_eq!(r.completed, 150);
    ///     assert!(r.sojourn.p99.as_ms_f64() >= last_p99);
    ///     last_p99 = r.sojourn.p99.as_ms_f64();
    /// }
    /// assert_eq!(sim.config().arrival_rate_hz, 16.0);
    /// ```
    pub fn set_rate(&mut self, arrival_rate_hz: f64) {
        self.cfg.arrival_rate_hz = arrival_rate_hz;
    }

    /// Runs the simulation for `model` and reports cluster statistics.
    ///
    /// Zero configured requests yield an all-zero report rather than a
    /// division by zero.
    ///
    /// # Panics
    ///
    /// Panics with [`validate`](Self::validate)'s error when the run
    /// cannot start.
    pub fn run(&mut self, model: &ModelConfig) -> ServingReport {
        if let Err(e) = self.validate(model) {
            panic!("{e}");
        }
        let mix = workflow_rt::effective_mix(&self.cfg);
        let stats = if self.cfg.requests == 0 {
            RunStats::new(self.replicas.len(), 0, self.cfg.arrivals.tenant_count())
        } else {
            self.replicas.group();
            self.replicas.resolve(model);
            match self.scheduling {
                Scheduling::RequestLevel => self.run_request_level(),
                Scheduling::IterationLevel {
                    max_batch,
                    prefill_chunk,
                    preempt,
                } => self.run_iteration_level(model, &mix, max_batch, prefill_chunk, preempt),
            }
        };
        let names = self.replicas.backends().map(|b| b.name().to_string());
        stats.into_report(&mix, names.zip(self.roles.iter().copied()).collect())
    }

    /// Runs the simulation once per rate in `rates` and returns the
    /// reports **in the same order** — probing the rates in parallel
    /// (one [`try_clone`](Self::try_clone) per extra rate, on
    /// `std::thread::scope` threads) when every backend supports
    /// cloning, serially on this engine otherwise. Either path yields
    /// identical reports: a run is a pure function of the config and
    /// the backends' deterministic costs. The configured arrival rate
    /// is restored afterwards.
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`run`](Self::run), or if a probe
    /// thread panics.
    pub fn sweep_rates(&mut self, model: &ModelConfig, rates: &[f64]) -> Vec<ServingReport> {
        let original = self.cfg.arrival_rate_hz;
        let reports = self.probe_rates(model, rates);
        self.cfg.arrival_rate_hz = original;
        reports
    }

    /// [`sweep_rates`](Self::sweep_rates) without the rate restore —
    /// the shared probe core under the public sweep and the bisection.
    fn probe_rates(&mut self, model: &ModelConfig, rates: &[f64]) -> Vec<ServingReport> {
        let Some((&first_rate, rest)) = rates.split_first() else {
            return Vec::new();
        };
        let mut clones: Vec<ServingSim> = Vec::with_capacity(rest.len());
        for _ in rest {
            match self.try_clone() {
                Some(c) => clones.push(c),
                None => {
                    // A replica backend cannot clone: probe serially on
                    // this engine. Same reports, just one at a time.
                    let mut out = Vec::with_capacity(rates.len());
                    for &rate in rates {
                        self.cfg.arrival_rate_hz = rate;
                        out.push(self.run(model));
                    }
                    return out;
                }
            }
        }
        let mut out = Vec::with_capacity(rates.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = clones
                .iter_mut()
                .zip(rest)
                .map(|(clone, &rate)| {
                    s.spawn(move || {
                        clone.cfg.arrival_rate_hz = rate;
                        clone.run(model)
                    })
                })
                .collect();
            // The first rate runs on this engine, concurrently with the
            // spawned probes — and leaves its memos warm for later
            // rounds.
            self.cfg.arrival_rate_hz = first_rate;
            out.push(self.run(model));
            for h in handles {
                out.push(h.join().expect("rate-probe thread panicked"));
            }
        });
        out
    }

    /// Binary-searches the highest arrival rate in `[lo_hz, hi_hz]` whose
    /// report satisfies `ok`, to a 1% relative resolution. Returns `0.0`
    /// when even `lo_hz` fails. Service memos make each probe a
    /// queueing-only pass (no device simulation), and the configured
    /// arrival rate is restored afterwards.
    ///
    /// Probes run **speculatively in parallel** when the backends
    /// support [`try_clone`](Self::try_clone): each round simulates the
    /// current midpoint and both possible next midpoints concurrently,
    /// then consults `ok` serially — `ok` sees exactly the reports, in
    /// exactly the order, the serial bisection would show it, so the
    /// returned rate is identical (runs are deterministic, and the
    /// bracket arithmetic is reproduced bit-for-bit). Probes also run
    /// under the automatic divergence guard
    /// ([`divergence_depth`](Self::divergence_depth)): a probe whose
    /// backlog diverges is cut short and counted as failing — which it
    /// would, since [`stable`](ServingReport::stable) rejects diverged
    /// reports — instead of simulating the whole horizon of an
    /// overloaded queue.
    ///
    /// This is the generic form behind
    /// [`sustainable_rate`](Self::sustainable_rate) (stability) and
    /// [`sustainable_goodput_rate`](Self::sustainable_goodput_rate)
    /// (stability + SLO attainment); `ok` must be monotone in spirit —
    /// a criterion that flickers with rate makes bisection meaningless.
    ///
    /// # Panics
    ///
    /// Panics if `lo_hz` or the bracket is non-positive, or on the
    /// conditions of [`run`](Self::run).
    pub fn sustainable_rate_where(
        &mut self,
        model: &ModelConfig,
        lo_hz: f64,
        hi_hz: f64,
        mut ok: impl FnMut(&ServingReport) -> bool,
    ) -> f64 {
        assert!(lo_hz > 0.0 && hi_hz > lo_hz, "need 0 < lo_hz < hi_hz");
        let original = self.cfg.arrival_rate_hz;
        let was_probing = self.probe_divergence;
        self.probe_divergence = true;
        // A diverged probe fails regardless of `ok`: its report covers
        // only a prefix of the horizon, and a backlog past the auto
        // bound is the definition of "hopelessly unstable".
        let mut pass = |report: &ServingReport| !report.diverged && ok(report);
        let mut best = 0.0f64;
        let (mut lo, mut hi) = (lo_hz, hi_hz);
        let ends = self.probe_rates(model, &[lo, hi]);
        if pass(&ends[0]) {
            best = lo;
            if pass(&ends[1]) {
                best = hi;
                lo = hi;
            }
            while hi / lo > 1.01 {
                // The serial step would probe mid = √(lo·hi), then —
                // depending on the verdict — √(mid·hi) or √(lo·mid)
                // next. Simulate all three now, consult `ok` in the
                // serial order on the two the serial search would see.
                let mid = (lo * hi).sqrt();
                let on_fail = (lo * mid).sqrt();
                let on_pass = (mid * hi).sqrt();
                let probes = self.probe_rates(model, &[mid, on_fail, on_pass]);
                let (child, child_report) = if pass(&probes[0]) {
                    best = mid;
                    lo = mid;
                    (on_pass, &probes[2])
                } else {
                    hi = mid;
                    (on_fail, &probes[1])
                };
                if hi / lo > 1.01 {
                    if pass(child_report) {
                        best = child;
                        lo = child;
                    } else {
                        hi = child;
                    }
                }
            }
        }
        self.probe_divergence = was_probing;
        self.cfg.arrival_rate_hz = original;
        best
    }

    /// Binary-searches the highest arrival rate in `[lo_hz, hi_hz]` whose
    /// report is [`stable`](ServingReport::stable), to a 1% relative
    /// resolution. Returns `0.0` when even `lo_hz` is unstable.
    ///
    /// # Panics
    ///
    /// See [`sustainable_rate_where`](Self::sustainable_rate_where).
    ///
    /// # Examples
    ///
    /// ```
    /// use ianus_core::serving::{ServingConfig, ServingSim};
    /// use ianus_core::{IanusSystem, SystemConfig};
    /// use ianus_model::ModelConfig;
    ///
    /// let mut sim = ServingSim::new(ServingConfig::interactive(1.0, 150))
    ///     .replica(IanusSystem::new(SystemConfig::ianus()));
    /// let rate = sim.sustainable_rate(&ModelConfig::gpt2_m(), 0.5, 64.0);
    /// assert!(rate > 0.5, "one IANUS device sustains interactive load");
    /// // The probe leaves the configured rate untouched.
    /// assert_eq!(sim.config().arrival_rate_hz, 1.0);
    /// ```
    pub fn sustainable_rate(&mut self, model: &ModelConfig, lo_hz: f64, hi_hz: f64) -> f64 {
        self.sustainable_rate_where(model, lo_hz, hi_hz, |r| r.stable())
    }

    /// Binary-searches the highest arrival rate whose report is both
    /// [`stable`](ServingReport::stable) and meets `min_attainment` of
    /// its SLOs ([`slo_attainment`](ServingReport::slo_attainment) ≥
    /// `min_attainment`) — the **goodput** capacity an SLO-aware
    /// operator provisions for, rather than the bare stability knee.
    /// With no SLOs in the mix this degrades to
    /// [`sustainable_rate`](Self::sustainable_rate) (attainment is
    /// identically 1).
    ///
    /// # Panics
    ///
    /// See [`sustainable_rate_where`](Self::sustainable_rate_where).
    pub fn sustainable_goodput_rate(
        &mut self,
        model: &ModelConfig,
        lo_hz: f64,
        hi_hz: f64,
        min_attainment: f64,
    ) -> f64 {
        self.sustainable_rate_where(model, lo_hz, hi_hz, |r| {
            r.stable() && r.slo_attainment >= min_attainment
        })
    }
}

/// The comparator-minimal `(index, view)` pair of `items`, ties to the
/// earliest, picked in one pass that keeps only the best pair so far:
/// callers stream their views instead of collecting them. `None` when
/// `items` is empty.
fn select_min<V>(
    items: impl IntoIterator<Item = (usize, V)>,
    compare: impl Fn(&V, &V) -> std::cmp::Ordering,
) -> Option<(usize, V)> {
    let mut best: Option<(usize, V)> = None;
    for (i, v) in items {
        if best.as_ref().is_none_or(|(_, b)| compare(&v, b).is_lt()) {
            best = Some((i, v));
        }
    }
    best
}
