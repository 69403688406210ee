//! Arrival layer: who generates load, decoupled from who schedules it.
//!
//! The engine consumes a finite *trace* of [`Arrival`]s generated up
//! front from the config's [`ArrivalSpec`] — a pluggable
//! [`ArrivalProcess`] advanced once per request. The contract with the
//! scheduling layers is intentionally thin: a process yields waits and
//! raw weighted draws ([`ArrivalDraw`]); the *caller* maps each draw to
//! a class (flat mix) or template (workflow mix) with the exact
//! historical comparison order, so [`PoissonArrivals`] — the default —
//! reproduces the pre-refactor trace byte for byte, RNG draw for RNG
//! draw, on both cores and in both scheduling modes.
//!
//! Because the process is rebuilt from `(spec, seed, rate)` at the
//! start of every run, cloned engines (rate sweeps, parallel
//! bisection probes) replay identical traces — including identical
//! per-tenant sub-traces under [`ArrivalSpec::MultiTenant`].

use super::preflight::{positive, ConfigError};
use super::workflow_rt::{WfCtx, WfTag};
use super::ServingSim;
use crate::serving::workflow::WorkflowRun;
use crate::serving::{pick_class, Priority, Slo};
use ianus_model::RequestShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated arrival of the trace.
#[derive(Debug, Clone, Copy)]
pub(super) struct Arrival {
    /// Arrival time in seconds.
    pub(super) at: f64,
    /// Global arrival index (FCFS order; the default eviction's
    /// "youngest").
    pub(super) idx: u64,
    /// Index into the config's mix.
    pub(super) class: usize,
    /// The request shape (denormalized from the class).
    pub(super) shape: RequestShape,
    /// Scheduling tier (denormalized from the class).
    pub(super) priority: Priority,
    /// The class SLO (denormalized from the class).
    pub(super) slo: Option<Slo>,
    /// Owning tenant (0 outside [`ArrivalSpec::MultiTenant`]).
    pub(super) tenant: u32,
    /// Whether the arrival landed inside a burst window (MMPP burst
    /// phase, or the above-mean half of a diurnal cycle).
    pub(super) in_burst: bool,
    /// Workflow identity (`None` for flat-mix arrivals).
    pub(super) wf: Option<WfTag>,
}

impl Arrival {
    /// TTFT deadline in seconds: the class SLO's `arrival + ttft`, or —
    /// for workflow nodes without one — the instance deadline, so
    /// deadline-ordered policies stay meaningful in workflow mode.
    pub(super) fn deadline(&self) -> Option<f64> {
        self.slo
            .map(|s| self.at + s.ttft.as_secs_f64())
            .or(self.wf.and_then(|w| w.deadline))
    }

    /// The admission-policy view of this waiting request.
    pub(super) fn queued_view(&self) -> crate::serving::policy::QueuedRequest {
        crate::serving::policy::QueuedRequest {
            shape: self.shape,
            arrival: self.at,
            arrival_idx: self.idx,
            priority: self.priority,
            deadline: self.deadline(),
            workflow_deadline: self.wf.and_then(|w| w.deadline),
            blocked_descendants: self.wf.map_or(0, |w| w.blocked_descendants),
            tenant: self.tenant,
        }
    }
}

/// One step of an [`ArrivalProcess`]: the wait since the previous
/// arrival, the raw weighted class/template draw, and the arrival's
/// tenant/burst attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalDraw {
    /// Seconds since the previous arrival of the merged stream.
    pub wait: f64,
    /// Uniform draw in `[0, Σweights)` — the caller maps it to a class
    /// (`pick_class`-style subtract-compare) or workflow template
    /// (accumulate-compare), preserving the historical comparison
    /// order bit for bit.
    pub draw: f64,
    /// Owning tenant (0 outside multi-tenant processes).
    pub tenant: u32,
    /// Whether the arrival lands inside a burst window.
    pub in_burst: bool,
}

/// A pluggable arrival-stream generator: advanced once per request,
/// each call yields the wait to the next arrival plus its weighted
/// class/template draw ([`ArrivalDraw`]).
///
/// `weights` is the per-class (or per-template) weight list of the
/// run's mix, passed on every call so a process can draw classes — the
/// engine maps the returned [`draw`](ArrivalDraw::draw) back to an
/// index itself. Implementations must be deterministic functions of
/// their construction inputs `(spec, seed, rate)`: rebuilding a
/// process replays the identical stream, which is what makes cloned
/// engines (sweeps, parallel rate probes) bit-reproducible.
pub trait ArrivalProcess {
    /// Advances past one arrival of the merged stream.
    fn next_arrival(&mut self, weights: &[f64]) -> ArrivalDraw;
}

/// One tenant of an [`ArrivalSpec::MultiTenant`] stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The tenant's share of the aggregate arrival rate (normalized
    /// over all tenants' shares; must be positive).
    pub share: f64,
    /// The tenant's own traffic shape (must not itself be
    /// [`ArrivalSpec::MultiTenant`]).
    pub inner: ArrivalSpec,
    /// Optional per-tenant class-mix override: one weight per class of
    /// the run's mix, replacing the global weights for this tenant's
    /// class draws. `None` uses the global mix.
    pub mix_weights: Option<Vec<f64>>,
}

/// Declarative arrival-stream choice, stored in
/// [`ServingConfig`](crate::serving::ServingConfig) so clones and
/// sweeps replay identical traces. Build the runtime process with
/// [`process`](Self::process).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArrivalSpec {
    /// Homogeneous Poisson arrivals at the configured rate — the
    /// default, byte-for-byte the historical trace.
    #[default]
    Poisson,
    /// Sinusoidal rate modulation around the configured mean:
    /// `λ(t) = rate · (1 + amplitude · sin(2πt / period_secs))`,
    /// sampled by Lewis–Shedler thinning. Arrivals in the above-mean
    /// half of the cycle are flagged in-burst.
    Diurnal {
        /// Peak deviation as a fraction of the mean rate, in `[0, 1)`.
        amplitude: f64,
        /// Cycle length in seconds.
        period_secs: f64,
    },
    /// 2-state Markov-modulated Poisson process alternating between a
    /// calm and a burst phase with exponentially distributed dwell
    /// times. Phase rates are solved so the long-run mean equals the
    /// configured rate while the burst phase runs `burst_factor`
    /// times hotter than the calm one.
    Mmpp {
        /// Burst-to-calm rate ratio (≥ 1).
        burst_factor: f64,
        /// Mean dwell time of the burst phase, seconds.
        burst_secs: f64,
        /// Mean dwell time of the calm phase, seconds.
        calm_secs: f64,
    },
    /// K tenants, each wrapping an inner process at its share of the
    /// aggregate rate (derived per-tenant seeds), merged by arrival
    /// time. Per-tenant completions, goodput, and fairness are
    /// reported per tenant.
    MultiTenant {
        /// The tenant list (non-empty; inner specs non-nested).
        tenants: Vec<TenantSpec>,
    },
}

impl ArrivalSpec {
    /// A diurnal spec (see [`ArrivalSpec::Diurnal`]).
    pub fn diurnal(amplitude: f64, period_secs: f64) -> Self {
        ArrivalSpec::Diurnal {
            amplitude,
            period_secs,
        }
    }

    /// An MMPP spec (see [`ArrivalSpec::Mmpp`]).
    pub fn mmpp(burst_factor: f64, burst_secs: f64, calm_secs: f64) -> Self {
        ArrivalSpec::Mmpp {
            burst_factor,
            burst_secs,
            calm_secs,
        }
    }

    /// `k` symmetric tenants, each an equal-share Poisson stream over
    /// the global mix.
    pub fn multi_tenant(k: u32) -> Self {
        ArrivalSpec::MultiTenant {
            tenants: (0..k)
                .map(|_| TenantSpec {
                    share: 1.0,
                    inner: ArrivalSpec::Poisson,
                    mix_weights: None,
                })
                .collect(),
        }
    }

    /// How many tenants the spec's reports are keyed by (1 outside
    /// [`MultiTenant`](Self::MultiTenant)).
    pub fn tenant_count(&self) -> u32 {
        match self {
            ArrivalSpec::MultiTenant { tenants } => tenants.len() as u32,
            _ => 1,
        }
    }

    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`ConfigError`] from
    /// `DiurnalAmplitude` to `TenantWeights`: an amplitude in `[0, 1)`,
    /// a finite burst factor of at least 1, and positive, finite
    /// periods, dwell times, shares and weights; tenants present and
    /// not nested.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalSpec::Poisson => {}
            &ArrivalSpec::Diurnal {
                amplitude,
                period_secs,
            } => {
                if !(0.0..1.0).contains(&amplitude) {
                    return Err(ConfigError::DiurnalAmplitude(amplitude));
                }
                if !positive(period_secs) {
                    return Err(ConfigError::DiurnalPeriod(period_secs));
                }
            }
            &ArrivalSpec::Mmpp {
                burst_factor,
                burst_secs,
                calm_secs,
            } => {
                if !(burst_factor >= 1.0 && burst_factor.is_finite()) {
                    return Err(ConfigError::BurstFactor(burst_factor));
                }
                if let Some(&d) = [burst_secs, calm_secs].iter().find(|&&d| !positive(d)) {
                    return Err(ConfigError::DwellTime(d));
                }
            }
            ArrivalSpec::MultiTenant { tenants } => {
                if tenants.is_empty() {
                    return Err(ConfigError::NoTenants);
                }
                for (k, t) in tenants.iter().enumerate() {
                    if !positive(t.share) {
                        return Err(ConfigError::TenantShare(k, t.share));
                    }
                    if matches!(t.inner, ArrivalSpec::MultiTenant { .. }) {
                        return Err(ConfigError::NestedTenants(k));
                    }
                    t.inner.validate()?;
                    if let Some(w) = &t.mix_weights {
                        if w.is_empty() || !w.iter().all(|&x| positive(x)) {
                            return Err(ConfigError::TenantWeights(k));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds the runtime process for one run: a deterministic function
    /// of `(self, seed, rate_hz)`, so rebuilding replays the identical
    /// stream.
    pub fn process(&self, seed: u64, rate_hz: f64) -> Box<dyn ArrivalProcess> {
        match self {
            ArrivalSpec::Poisson => Box::new(PoissonArrivals::new(seed, rate_hz)),
            ArrivalSpec::Diurnal {
                amplitude,
                period_secs,
            } => Box::new(DiurnalArrivals::new(
                seed,
                rate_hz,
                *amplitude,
                *period_secs,
            )),
            ArrivalSpec::Mmpp {
                burst_factor,
                burst_secs,
                calm_secs,
            } => Box::new(MmppArrivals::new(
                seed,
                rate_hz,
                *burst_factor,
                *burst_secs,
                *calm_secs,
            )),
            ArrivalSpec::MultiTenant { tenants } => {
                Box::new(MultiTenantArrivals::new(seed, rate_hz, tenants))
            }
        }
    }
}

/// Homogeneous Poisson arrivals: one exponential inter-arrival draw,
/// then one uniform class draw, per request — the exact historical
/// recipe and RNG stream.
pub struct PoissonArrivals {
    rng: StdRng,
    rate_hz: f64,
}

impl PoissonArrivals {
    /// A Poisson stream at `rate_hz` from `seed`.
    pub fn new(seed: u64, rate_hz: f64) -> Self {
        PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_hz,
        }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_arrival(&mut self, weights: &[f64]) -> ArrivalDraw {
        let total_weight: f64 = weights.iter().sum();
        // Exponential inter-arrival.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let wait = -u.ln() / self.rate_hz;
        let draw = self.rng.gen_range(0.0..total_weight);
        ArrivalDraw {
            wait,
            draw,
            tenant: 0,
            in_burst: false,
        }
    }
}

/// Sinusoidal rate modulation sampled by Lewis–Shedler thinning
/// against the cycle peak `rate · (1 + amplitude)`.
pub struct DiurnalArrivals {
    rng: StdRng,
    rate_hz: f64,
    amplitude: f64,
    period_secs: f64,
    /// The process's own clock (sum of emitted waits).
    now: f64,
}

impl DiurnalArrivals {
    /// A diurnal stream around mean `rate_hz` from `seed`.
    pub fn new(seed: u64, rate_hz: f64, amplitude: f64, period_secs: f64) -> Self {
        DiurnalArrivals {
            rng: StdRng::seed_from_u64(seed),
            rate_hz,
            amplitude,
            period_secs,
            now: 0.0,
        }
    }

    /// Instantaneous rate at absolute time `t`.
    fn rate_at(&self, t: f64) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t / self.period_secs;
        self.rate_hz * (1.0 + self.amplitude * phase.sin())
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn next_arrival(&mut self, weights: &[f64]) -> ArrivalDraw {
        let total_weight: f64 = weights.iter().sum();
        let peak = self.rate_hz * (1.0 + self.amplitude);
        let start = self.now;
        // Thinning: candidate arrivals at the peak rate, accepted with
        // probability λ(t)/peak. Amplitude < 1 bounds the acceptance
        // probability away from zero, so the loop terminates.
        loop {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            self.now += -u.ln() / peak;
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * peak <= self.rate_at(self.now) {
                break;
            }
        }
        let draw = self.rng.gen_range(0.0..total_weight);
        ArrivalDraw {
            wait: self.now - start,
            draw,
            tenant: 0,
            in_burst: self.rate_at(self.now) > self.rate_hz,
        }
    }
}

/// 2-state Markov-modulated Poisson process: exponential dwell times in
/// a calm and a burst phase, exponential inter-arrivals at the phase
/// rate, memoryless redraw at each phase switch.
pub struct MmppArrivals {
    rng: StdRng,
    burst_rate: f64,
    calm_rate: f64,
    burst_secs: f64,
    calm_secs: f64,
    in_burst: bool,
    /// The process's own clock (sum of emitted waits).
    now: f64,
    /// Absolute end of the current phase.
    phase_end: f64,
}

impl MmppArrivals {
    /// An MMPP stream with long-run mean `rate_hz` from `seed`: the
    /// burst phase runs `burst_factor` times hotter than the calm one,
    /// with the phase rates solved against the dwell-time mix so the
    /// time-averaged rate is exactly `rate_hz`.
    pub fn new(
        seed: u64,
        rate_hz: f64,
        burst_factor: f64,
        burst_secs: f64,
        calm_secs: f64,
    ) -> Self {
        // Long-run burst fraction f, then solve
        // f·r_b + (1−f)·r_c = rate with r_b = burst_factor·r_c.
        let f = burst_secs / (burst_secs + calm_secs);
        let calm_rate = rate_hz / ((1.0 - f) + f * burst_factor);
        let burst_rate = burst_factor * calm_rate;
        let mut p = MmppArrivals {
            rng: StdRng::seed_from_u64(seed),
            burst_rate,
            calm_rate,
            burst_secs,
            calm_secs,
            in_burst: false,
            now: 0.0,
            phase_end: 0.0,
        };
        p.phase_end = p.draw_dwell();
        p
    }

    /// Exponential dwell of the *current* phase.
    fn draw_dwell(&mut self) -> f64 {
        let mean = if self.in_burst {
            self.burst_secs
        } else {
            self.calm_secs
        };
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * mean
    }
}

impl ArrivalProcess for MmppArrivals {
    fn next_arrival(&mut self, weights: &[f64]) -> ArrivalDraw {
        let total_weight: f64 = weights.iter().sum();
        let start = self.now;
        loop {
            let rate = if self.in_burst {
                self.burst_rate
            } else {
                self.calm_rate
            };
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let wait = -u.ln() / rate;
            if self.now + wait <= self.phase_end {
                self.now += wait;
                break;
            }
            // Phase switch: jump to the boundary and redraw — the
            // exponential is memoryless, so discarding the overshoot
            // keeps the process exact.
            self.now = self.phase_end;
            self.in_burst = !self.in_burst;
            let dwell = self.draw_dwell();
            self.phase_end = self.now + dwell;
        }
        let draw = self.rng.gen_range(0.0..total_weight);
        ArrivalDraw {
            wait: self.now - start,
            draw,
            tenant: 0,
            in_burst: self.in_burst,
        }
    }
}

/// One tenant's stream inside [`MultiTenantArrivals`]: its inner
/// process, pending next arrival, and optional class-mix override.
struct TenantStream {
    process: Box<dyn ArrivalProcess>,
    mix_weights: Option<Vec<f64>>,
    /// Absolute time of the tenant's pending arrival.
    next_at: f64,
    /// The pending arrival's draw metadata.
    pending: ArrivalDraw,
}

/// K tenant streams merged by arrival time. Each tenant runs its inner
/// process at its share of the aggregate rate under a derived seed, so
/// every clone replays identical per-tenant sub-traces.
pub struct MultiTenantArrivals {
    tenants: Vec<TenantStream>,
    /// The merged stream's clock (sum of emitted waits).
    now: f64,
    /// Set once the tenant streams have been primed with their first
    /// arrivals (deferred to the first call, which supplies weights).
    primed: bool,
}

impl MultiTenantArrivals {
    /// A merged multi-tenant stream at aggregate `rate_hz` from `seed`.
    pub fn new(seed: u64, rate_hz: f64, tenants: &[TenantSpec]) -> Self {
        let total_share: f64 = tenants.iter().map(|t| t.share).sum();
        let streams = tenants
            .iter()
            .enumerate()
            .map(|(k, t)| {
                let tenant_seed = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let tenant_rate = rate_hz * t.share / total_share;
                TenantStream {
                    process: t.inner.process(tenant_seed, tenant_rate),
                    mix_weights: t.mix_weights.clone(),
                    next_at: 0.0,
                    pending: ArrivalDraw {
                        wait: 0.0,
                        draw: 0.0,
                        tenant: 0,
                        in_burst: false,
                    },
                }
            })
            .collect();
        MultiTenantArrivals {
            tenants: streams,
            now: 0.0,
            primed: false,
        }
    }

    /// Advances tenant `k` past one arrival: runs its inner process
    /// (against its weight override if any), then translates an
    /// overridden class pick back into a draw over the global weights —
    /// the prefix-sum boundary of the picked class, which both the
    /// subtract-compare (`pick_class`) and accumulate-compare (template
    /// pick) mappings send to exactly that index.
    fn advance(&mut self, k: usize, weights: &[f64]) {
        let t = &mut self.tenants[k];
        let d = match &t.mix_weights {
            None => t.process.next_arrival(weights),
            Some(w) => {
                debug_assert_eq!(
                    w.len(),
                    weights.len(),
                    "per-tenant mix override must cover every class"
                );
                let mut d = t.process.next_arrival(w);
                let class = pick_weight(w, d.draw);
                d.draw = weights[..class].iter().sum();
                d
            }
        };
        t.next_at += d.wait;
        t.pending = ArrivalDraw {
            tenant: k as u32,
            ..d
        };
    }
}

/// Subtract-compare weighted pick over a raw weight list — the
/// [`pick_class`] comparison order, for per-tenant mix overrides.
fn pick_weight(weights: &[f64], draw: f64) -> usize {
    let mut rem = draw;
    for (i, &w) in weights.iter().enumerate() {
        if rem < w {
            return i;
        }
        rem -= w;
    }
    weights.len() - 1
}

impl ArrivalProcess for MultiTenantArrivals {
    fn next_arrival(&mut self, weights: &[f64]) -> ArrivalDraw {
        if !self.primed {
            for k in 0..self.tenants.len() {
                self.advance(k, weights);
            }
            self.primed = true;
        }
        // Earliest pending arrival wins; ties break to the lowest
        // tenant index.
        let k = (0..self.tenants.len())
            .min_by(|&a, &b| {
                self.tenants[a]
                    .next_at
                    .total_cmp(&self.tenants[b].next_at)
                    .then(a.cmp(&b))
            })
            .expect("multi-tenant stream has at least one tenant");
        let at = self.tenants[k].next_at;
        let out = ArrivalDraw {
            wait: at - self.now,
            ..self.tenants[k].pending
        };
        self.now = at;
        self.advance(k, weights);
        out
    }
}

impl ServingSim {
    /// Seeded arrivals of the weighted mix from the config's
    /// [`ArrivalSpec`]. The draw order (one inter-arrival draw, then
    /// one class draw, per request) is shared by both scheduling modes,
    /// so a seed denotes the *same* trace in both.
    pub(super) fn generate_arrivals(&self) -> Vec<Arrival> {
        let weights: Vec<f64> = self.cfg.mix.iter().map(|c| c.weight).collect();
        let mut process = self
            .cfg
            .arrivals
            .process(self.cfg.seed, self.cfg.arrival_rate_hz);
        let mut now = 0.0f64;
        (0..self.cfg.requests)
            .map(|idx| {
                let d = process.next_arrival(&weights);
                now += d.wait;
                let class = pick_class(&self.cfg.mix, d.draw);
                Arrival {
                    at: now,
                    idx,
                    class,
                    shape: self.cfg.mix[class].shape,
                    priority: self.cfg.mix[class].priority,
                    slo: self.cfg.mix[class].slo,
                    tenant: d.tenant,
                    in_burst: d.in_burst,
                    wf: None,
                }
            })
            .collect()
    }

    /// Seeded arrivals of the weighted *workflow* mix: one
    /// inter-arrival draw, then one template draw, per instance —
    /// mirroring [`generate_arrivals`](Self::generate_arrivals)'s draw
    /// order exactly, so a single-node workflow mix denotes the same
    /// trace as the equivalent flat mix under the same seed. Only each
    /// instance's *root* nodes arrive here; children are released by
    /// the engine as their last parent completes. Returns the root
    /// arrivals, one [`WorkflowRun`] per instance, and the total node
    /// count the run must settle.
    pub(super) fn generate_workflow_arrivals(
        &self,
        ctx: &WfCtx,
    ) -> (Vec<Arrival>, Vec<WorkflowRun>, u64) {
        let weights: Vec<f64> = ctx.templates.iter().map(|t| t.weight).collect();
        let mut process = self
            .cfg
            .arrivals
            .process(self.cfg.seed, self.cfg.arrival_rate_hz);
        let mut now = 0.0f64;
        let mut arrivals = Vec::new();
        let mut runs = Vec::with_capacity(self.cfg.requests as usize);
        let mut total = 0u64;
        for inst in 0..self.cfg.requests as usize {
            let d = process.next_arrival(&weights);
            now += d.wait;
            // Weighted template pick, same fallback semantics as
            // `pick_class`.
            let draw = d.draw;
            let mut acc = 0.0;
            let mut t = ctx.templates.len() - 1;
            for (i, tpl) in ctx.templates.iter().enumerate() {
                acc += tpl.weight;
                if draw < acc {
                    t = i;
                    break;
                }
            }
            let tpl = &ctx.templates[t];
            let mut run = WorkflowRun::new(t, tpl, now);
            total += tpl.node_count() as u64;
            for node in run.release_roots() {
                run.node_arrival[node] = Some(arrivals.len());
                arrivals.push(Arrival {
                    at: now,
                    idx: arrivals.len() as u64,
                    class: ctx.base[t] + node,
                    shape: ctx.shapes[t][node],
                    priority: tpl.priority,
                    slo: None,
                    tenant: d.tenant,
                    in_burst: d.in_burst,
                    wf: Some(WfTag {
                        inst,
                        node,
                        inherit: None,
                        deadline: run.deadline,
                        blocked_descendants: ctx.blocked[t][node],
                        tenant: d.tenant,
                        in_burst: d.in_burst,
                    }),
                });
            }
            runs.push(run);
        }
        (arrivals, runs, total)
    }
}
