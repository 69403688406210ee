//! Arrival layer: who generates load, decoupled from who schedules it.
//!
//! The engine consumes a finite *trace* of [`Arrival`]s generated up
//! front from the config's [`ArrivalSpec`]: each run builds one private
//! stream from `(spec, seed, rate, weights)` and advances it once per
//! request. A step yields a wait and a raw weighted draw; the trace maps
//! the draw to a class (flat mix) or template (workflow mix) with the
//! exact historical comparison order, so the default Poisson stream
//! reproduces the pre-refactor trace byte for byte, RNG draw for RNG
//! draw, in both scheduling modes. A tenant with a mix override picks
//! its own class (or template) over its override weights.
//!
//! Because the stream is rebuilt at the start of every run, cloned
//! engines (rate sweeps, parallel bisection probes) replay identical
//! traces — including identical per-tenant sub-traces under
//! [`ArrivalSpec::MultiTenant`].

use super::preflight::{positive, ConfigError};
use super::workflow_rt::{WfCtx, WfTag};
use super::ServingSim;
use crate::serving::report::Completion;
use crate::serving::workflow::WorkflowRun;
use crate::serving::{pick_class, Priority, Slo};
use ianus_model::RequestShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated arrival of the trace, and the identity its admitted
/// sequence carries to completion
/// ([`ActiveSeq::req`](super::batch::ActiveSeq::req)).
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
    /// The admission-policy view of this waiting request.
    pub(super) fn queued_view(&self) -> crate::serving::policy::QueuedRequest {
        crate::serving::policy::QueuedRequest {
            shape: self.shape,
            arrival_idx: self.idx,
            priority: self.priority,
            deadline: self.ttft_deadline(),
            workflow_deadline: self.wf.and_then(|w| w.deadline),
            blocked_descendants: self.wf.map_or(0, |w| w.blocked_descendants),
        }
    }

    /// TTFT deadline in seconds: the SLO's `at + ttft`, else a workflow
    /// node's instance deadline (so deadline-ordered policies stay
    /// meaningful in workflow mode). Both policy views read it.
    pub(super) fn ttft_deadline(&self) -> Option<f64> {
        self.slo
            .map(|s| self.at + s.ttft.as_secs_f64())
            .or(self.wf.and_then(|w| w.deadline))
    }

    /// This request's completion record, finished at `finish` on
    /// `replica` after `preemptions` evictions (`recomputes` of them by
    /// recompute); `attained` is whether it met its SLO. Both scheduling
    /// modes record every completion through here.
    pub(super) fn completion(
        &self,
        finish: f64,
        replica: usize,
        preemptions: u32,
        recomputes: u32,
        attained: bool,
    ) -> Completion {
        Completion {
            sojourn: finish - self.at,
            replica: replica as u32,
            class: self.class as u32,
            tenant: self.tenant,
            preemptions,
            recomputes,
            attained,
            in_burst: self.in_burst,
        }
    }
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
    /// the run's mix (per template under a workflow mix), replacing the
    /// global weights for this tenant's class draws. `None` uses the
    /// global mix.
    pub mix_weights: Option<Vec<f64>>,
}

/// Declarative arrival-stream choice, stored in
/// [`ServingConfig`](crate::serving::ServingConfig) so clones and
/// sweeps replay identical traces.
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
    /// K tenants, each wrapping an inner stream at its share of the
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

    /// The run's stream over a mix with class (or template) `weights`:
    /// a deterministic function of its inputs, so rebuilding it replays
    /// the identical stream.
    fn stream(&self, seed: u64, rate_hz: f64, weights: &[f64]) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = weights.iter().sum();
        match *self {
            ArrivalSpec::Poisson => Stream::Poisson {
                rng,
                rate_hz,
                total,
            },
            ArrivalSpec::Diurnal {
                amplitude,
                period_secs,
            } => Stream::Diurnal {
                rng,
                rate_hz,
                amplitude,
                period_secs,
                total,
                now: 0.0,
            },
            ArrivalSpec::Mmpp {
                burst_factor,
                burst_secs,
                calm_secs,
            } => {
                // Long-run burst fraction f, then solve
                // f·r_b + (1−f)·r_c = rate with r_b = burst_factor·r_c.
                let f = burst_secs / (burst_secs + calm_secs);
                let calm_rate = rate_hz / ((1.0 - f) + f * burst_factor);
                let phase_end = exponential(&mut rng) * calm_secs;
                Stream::Mmpp {
                    rng,
                    rates: [calm_rate, burst_factor * calm_rate],
                    dwells: [calm_secs, burst_secs],
                    burst: false,
                    total,
                    now: 0.0,
                    phase_end,
                }
            }
            ArrivalSpec::MultiTenant { ref tenants } => {
                let total_share: f64 = tenants.iter().map(|t| t.share).sum();
                let tenants = tenants.iter().enumerate().map(|(k, t)| {
                    let tenant_seed = seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let tenant_rate = rate_hz * t.share / total_share;
                    let own = t.mix_weights.as_deref().unwrap_or(weights);
                    let mut tenant = Tenant {
                        stream: t.inner.stream(tenant_seed, tenant_rate, own),
                        mix: t.mix_weights.clone(),
                        next_at: 0.0,
                        pending: Draw::default(),
                    };
                    tenant.advance(k as u32);
                    tenant
                });
                Stream::Tenants {
                    tenants: tenants.collect(),
                    now: 0.0,
                }
            }
        }
    }
}

/// One step of a [`Stream`]: the wait since the previous arrival, a
/// uniform draw in `[0, Σweights)` that the trace maps to a class or
/// template (unless a tenant's mix override already picked one), and
/// the arrival's tenant and burst attribution.
#[derive(Clone, Copy, Default)]
struct Draw {
    wait: f64,
    draw: f64,
    /// The class or template a tenant's mix override picked.
    pick: Option<usize>,
    tenant: u32,
    in_burst: bool,
}

/// The run's arrival stream, built by [`ArrivalSpec::stream`]. Each
/// leaf stream owns its RNG and draws one class after each wait.
enum Stream {
    /// One exponential inter-arrival draw, then one class draw, per
    /// request: the historical recipe and RNG stream.
    Poisson {
        rng: StdRng,
        rate_hz: f64,
        total: f64,
    },
    /// Lewis–Shedler thinning against the cycle peak
    /// `rate · (1 + amplitude)`.
    Diurnal {
        rng: StdRng,
        rate_hz: f64,
        amplitude: f64,
        period_secs: f64,
        total: f64,
        /// The stream's own clock (sum of emitted waits).
        now: f64,
    },
    /// Exponential dwells in a calm and a burst phase (indexed 0 and
    /// 1), exponential inter-arrivals at the phase rate.
    Mmpp {
        rng: StdRng,
        rates: [f64; 2],
        dwells: [f64; 2],
        burst: bool,
        total: f64,
        now: f64,
        /// Absolute end of the current phase.
        phase_end: f64,
    },
    /// Tenant streams merged by arrival time.
    Tenants { tenants: Vec<Tenant>, now: f64 },
}

/// One tenant of [`Stream::Tenants`]: its own stream at its share of the
/// rate under a derived seed, its class-mix override, and its pending
/// arrival.
struct Tenant {
    stream: Stream,
    /// The override's class (or template) weights: each draw is picked
    /// over them here, in place of the trace's pick over the mix.
    mix: Option<Vec<f64>>,
    /// Absolute time of the pending arrival.
    next_at: f64,
    pending: Draw,
}

impl Tenant {
    /// Advances tenant `k` past one arrival.
    fn advance(&mut self, k: u32) {
        let mut d = self.stream.step();
        if let Some(weights) = &self.mix {
            d.pick = Some(pick_class(weights, d.draw));
        }
        self.next_at += d.wait;
        self.pending = Draw { tenant: k, ..d };
    }
}

/// An exponential draw of mean 1.
fn exponential(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln()
}

impl Stream {
    /// Advances past one arrival of the merged stream.
    fn step(&mut self) -> Draw {
        let (wait, in_burst, rng, total) = match self {
            Stream::Poisson {
                rng,
                rate_hz,
                total,
            } => (exponential(rng) / *rate_hz, false, rng, *total),
            Stream::Diurnal {
                rng,
                rate_hz,
                amplitude,
                period_secs,
                total,
                now,
            } => {
                let rate_at = |t: f64| {
                    let phase = 2.0 * std::f64::consts::PI * t / *period_secs;
                    *rate_hz * (1.0 + *amplitude * phase.sin())
                };
                let peak = *rate_hz * (1.0 + *amplitude);
                let start = *now;
                // Thinning: candidate arrivals at the peak rate, accepted
                // with probability λ(t)/peak. Amplitude < 1 bounds the
                // acceptance probability away from zero, so the loop
                // terminates.
                loop {
                    *now += exponential(rng) / peak;
                    let accept: f64 = rng.gen_range(0.0..1.0);
                    if accept * peak <= rate_at(*now) {
                        break;
                    }
                }
                (*now - start, rate_at(*now) > *rate_hz, rng, *total)
            }
            Stream::Mmpp {
                rng,
                rates,
                dwells,
                burst,
                total,
                now,
                phase_end,
            } => {
                let start = *now;
                loop {
                    let wait = exponential(rng) / rates[usize::from(*burst)];
                    if *now + wait <= *phase_end {
                        *now += wait;
                        break;
                    }
                    // Phase switch: jump to the boundary and redraw — the
                    // exponential is memoryless, so discarding the
                    // overshoot keeps the process exact.
                    *now = *phase_end;
                    *burst = !*burst;
                    *phase_end = *now + exponential(rng) * dwells[usize::from(*burst)];
                }
                (*now - start, *burst, rng, *total)
            }
            Stream::Tenants { tenants, now } => {
                // Earliest pending arrival wins; `min_by` keeps the first
                // of equal times, the lowest tenant index.
                let k = (0..tenants.len())
                    .min_by(|&a, &b| tenants[a].next_at.total_cmp(&tenants[b].next_at))
                    .expect("multi-tenant stream has at least one tenant");
                let at = tenants[k].next_at;
                let out = Draw {
                    wait: at - *now,
                    ..tenants[k].pending
                };
                *now = at;
                tenants[k].advance(k as u32);
                return out;
            }
        };
        Draw {
            wait,
            draw: rng.gen_range(0.0..total),
            pick: None,
            tenant: 0,
            in_burst,
        }
    }
}

impl ServingSim {
    /// The run's arrival times and draws over a mix with class (or
    /// template) `weights`: one stream built from the config's
    /// [`ArrivalSpec`], advanced once per request.
    fn trace(&self, weights: &[f64]) -> impl Iterator<Item = (f64, Draw)> {
        let cfg = &self.cfg;
        let mut stream = cfg.arrivals.stream(cfg.seed, cfg.arrival_rate_hz, weights);
        let mut now = 0.0f64;
        (0..cfg.requests).map(move |_| {
            let d = stream.step();
            now += d.wait;
            (now, d)
        })
    }

    /// Seeded arrivals of the weighted mix. The draw order (one
    /// inter-arrival draw, then one class draw, per request) is shared
    /// by both scheduling modes, so a seed denotes the *same* trace in
    /// both.
    pub(super) fn generate_arrivals(&self) -> Vec<Arrival> {
        let weights: Vec<f64> = self.cfg.mix.iter().map(|c| c.weight).collect();
        self.trace(&weights)
            .zip(0..)
            .map(|((at, d), idx)| {
                let class = d.pick.unwrap_or_else(|| pick_class(&weights, d.draw));
                let c = &self.cfg.mix[class];
                Arrival {
                    at,
                    idx,
                    class,
                    shape: c.shape,
                    priority: c.priority,
                    slo: c.slo,
                    tenant: d.tenant,
                    in_burst: d.in_burst,
                    wf: None,
                }
            })
            .collect()
    }

    /// Seeded arrivals of the weighted *workflow* mix: the same trace as
    /// [`generate_arrivals`](Self::generate_arrivals) with one template
    /// draw per instance, so a single-node workflow mix denotes the same
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
        let mut arrivals = Vec::new();
        let mut runs = Vec::with_capacity(self.cfg.requests as usize);
        let mut total = 0u64;
        for (inst, (at, d)) in self.trace(&weights).enumerate() {
            // Accumulate-compare, which can part from `pick_class` at
            // float boundaries; the same last-template fallback.
            let t = d.pick.unwrap_or_else(|| {
                let mut acc = 0.0;
                weights
                    .iter()
                    .position(|&w| {
                        acc += w;
                        d.draw < acc
                    })
                    .unwrap_or(weights.len() - 1)
            });
            let tpl = &ctx.templates[t];
            let mut run = WorkflowRun::new(t, tpl, at);
            total += tpl.node_count() as u64;
            for node in run.release_roots() {
                let origin = (at, d.tenant, d.in_burst);
                ctx.push_node(&mut arrivals, &mut run, inst, node, None, origin);
            }
            runs.push(run);
        }
        (arrivals, runs, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::engine::batch::ActiveSeq;
    use ianus_sim::Duration;

    #[test]
    fn waiting_and_admitted_views_share_the_ttft_deadline() {
        // Admission reads a waiting request's deadline; eviction and
        // re-admission read its admitted sequence's.
        let slo = Slo::new(Duration::from_ms(250), Duration::from_ms(50));
        let tag = WfTag {
            inst: 0,
            node: 1,
            inherit: None,
            deadline: Some(9.5),
            blocked_descendants: 2,
        };
        let base = Arrival {
            at: 1.25,
            idx: 3,
            class: 0,
            shape: RequestShape::new(64, 8),
            priority: Priority::Interactive,
            slo: None,
            tenant: 0,
            in_burst: false,
            wf: None,
        };
        // An SLO's `at + ttft`, a workflow node's instance deadline, none.
        let cases = [
            (Some(slo), None, Some(1.5)),
            (None, Some(tag), Some(9.5)),
            (None, None, None),
        ];
        for (slo, wf, want) in cases {
            let req = Arrival { slo, wf, ..base };
            let seq = ActiveSeq::admitted(req, 0.1, 0, 0, 2.0);
            assert_eq!(req.queued_view().deadline, want);
            assert_eq!(seq.view().deadline, want);
        }
    }

    #[test]
    fn poisson_process_matches_legacy_inline_recipe() {
        // The Poisson stream must reproduce the engine's historical
        // inline trace bit for bit: one exponential wait from
        // `gen_range(EPSILON..1.0)` then one class draw from
        // `gen_range(0.0..Σweights)` per arrival, off one seeded StdRng.
        let (seed, rate) = (0x5EED_u64, 3.0_f64);
        let weights = [0.6, 0.3, 0.1];
        let total: f64 = weights.iter().sum();
        let mut stream = ArrivalSpec::Poisson.stream(seed, rate, &weights);
        let mut legacy = StdRng::seed_from_u64(seed);
        for _ in 0..256 {
            let d = stream.step();
            let u: f64 = legacy.gen_range(f64::EPSILON..1.0);
            assert_eq!(d.wait.to_bits(), (-u.ln() / rate).to_bits());
            assert_eq!(d.draw.to_bits(), legacy.gen_range(0.0..total).to_bits());
            assert_eq!(d.tenant, 0);
            assert!(!d.in_burst, "plain Poisson never flags a burst");
        }
    }
}
