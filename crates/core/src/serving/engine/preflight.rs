//! Preflight layer: [`ServingSim::validate`] is the one place that
//! decides whether a run can start. [`run`](ServingSim::run) calls it
//! first and panics with its error; the engine layers keep their own
//! asserts as invariants that a validated run meets.

use super::kv_state::paged_blocks;
use super::{ArrivalSpec, ServingSim};
use crate::capacity::CapacityError;
use crate::serving::{ReplicaRole, Scheduling, WorkflowError};
use ianus_model::{ModelConfig, ModelFamily, RequestShape};
use std::fmt;

/// Why a serving run cannot start ([`ServingSim::validate`]). The
/// variants are declared in the order the preflight checks them.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The cluster has no replicas.
    NoReplicas,
    /// The config sets neither a flat mix nor workflows.
    EmptyMix,
    /// The config sets both a flat mix and workflows.
    MixAndWorkflows,
    /// Class `.0`'s weight `.1` is not positive and finite.
    ClassWeight(usize, f64),
    /// Workflow template `.0`'s weight `.1` is not positive and finite.
    WorkflowWeight(usize, f64),
    /// Workflow template `.0` is not a well-formed DAG.
    Workflow(usize, WorkflowError),
    /// The arrival rate is not positive and finite.
    ArrivalRate(f64),
    /// A diurnal amplitude outside `[0, 1)`.
    DiurnalAmplitude(f64),
    /// A diurnal period that is not positive and finite.
    DiurnalPeriod(f64),
    /// An MMPP burst factor below 1 or not finite.
    BurstFactor(f64),
    /// An MMPP dwell time that is not positive and finite.
    DwellTime(f64),
    /// A multi-tenant spec without tenants.
    NoTenants,
    /// Tenant `.0`'s share `.1` is not positive and finite.
    TenantShare(usize, f64),
    /// Tenant `.0` nests a multi-tenant spec.
    NestedTenants(usize),
    /// Tenant `.0`'s mix override is empty or not positive and finite.
    TenantWeights(usize),
    /// Tenant `.0`'s mix override has `.1` weights for the mix's `.2`
    /// classes (templates under a workflow mix).
    TenantWeightCount(usize, usize, usize),
    /// Replica roles other than unified under request-level scheduling.
    RolesNeedIterationLevel,
    /// A workflow mix under request-level scheduling.
    WorkflowsNeedIterationLevel,
    /// An iteration-level `max_batch` of 0.
    ZeroMaxBatch,
    /// An iteration-level `prefill_chunk` of `Some(0)`.
    ZeroPrefillChunk,
    /// Every replica is decode-only, so no arrival is ever admitted.
    AllDecodeOnly,
    /// Replica `.0` cannot hold the model (`Backend::fits`).
    DoesNotFit(usize, CapacityError),
    /// Model `.0` is encoder-only, but shape `.1` generates.
    EncoderOnly(&'static str, RequestShape),
    /// A class can never be admitted: its sequence passes the model's
    /// positional table (`replica` is `None`), or it does not fit an
    /// empty replica that admits arrivals.
    Unadmittable {
        /// Index into the run's effective classes (workflow nodes at
        /// their effective prompts, in template order).
        class: usize,
        /// The class shape.
        shape: RequestShape,
        /// The replica it does not fit.
        replica: Option<usize>,
        /// Why.
        error: CapacityError,
    },
    /// Replica `.0`'s paged pool holds `.2` blocks of `.1` tokens, short
    /// of the `.3` blocks of the largest class sequence.
    KvBlocks(usize, u64, u64, u64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConfigError::*;
        let spec = "invalid arrival spec";
        let text = match self {
            NoReplicas => "serving cluster has no replicas".into(),
            EmptyMix => "request mix must be non-empty".into(),
            MixAndWorkflows => "a config drives either a flat mix or workflows, not both".into(),
            ClassWeight(i, w) => format!("weights must be positive: class {i} has {w}"),
            WorkflowWeight(i, w) => {
                format!("workflow weights must be positive: template {i} has {w}")
            }
            Workflow(i, e) => format!("workflow template {i} is invalid: {e}"),
            ArrivalRate(r) => format!("arrival rate must be positive and finite, not {r}"),
            DiurnalAmplitude(a) => format!("{spec}: diurnal amplitude {a} outside [0, 1)"),
            DiurnalPeriod(p) => format!("{spec}: diurnal period {p} must be positive"),
            BurstFactor(b) => format!("{spec}: MMPP burst factor {b} must be ≥ 1"),
            DwellTime(d) => format!("{spec}: MMPP dwell time {d} must be positive"),
            NoTenants => format!("{spec}: multi-tenant spec has no tenants"),
            TenantShare(k, s) => format!("{spec}: tenant {k} share {s} must be positive"),
            NestedTenants(k) => format!("{spec}: tenant {k} nests a multi-tenant spec"),
            TenantWeights(k) => format!("{spec}: tenant {k} mix weights must be positive"),
            TenantWeightCount(k, n, classes) => {
                format!("{spec}: tenant {k} has {n} mix weights for {classes} classes")
            }
            RolesNeedIterationLevel => {
                "replica roles (disaggregation) require iteration-level scheduling".into()
            }
            WorkflowsNeedIterationLevel => {
                "workflow mixes require iteration-level scheduling".into()
            }
            ZeroMaxBatch => "max_batch must be at least 1".into(),
            ZeroPrefillChunk => "prefill chunk must be positive".into(),
            AllDecodeOnly => {
                "every replica is decode-only: arrivals could never be admitted".into()
            }
            DoesNotFit(r, e) => format!("model does not fit replica {r}: {e}"),
            EncoderOnly(model, RequestShape { input, output }) => format!(
                "{model} is encoder-only and has no generation stage: \
                 ({input}, {output}) requests generate"
            ),
            Unadmittable {
                class,
                shape,
                replica,
                error,
            } => {
                let on = replica.map_or(String::new(), |r| format!(" on replica {r}"));
                let (i, o) = (shape.input, shape.output);
                format!("class {class} ({i}, {o}) can never be admitted{on}: {error}")
            }
            KvBlocks(r, tokens, blocks, need) => format!(
                "kv_block {tokens}: replica {r} holds {blocks} KV blocks but the largest mix \
                 sequence needs {need} — shrink the block size or the shapes"
            ),
        };
        f.write_str(&text)
    }
}

impl std::error::Error for ConfigError {}

/// Whether `x` is a usable rate, weight, share or duration.
pub(super) fn positive(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// The encoder-only rule: a model without a generation stage (BERT)
/// serves only shapes that generate nothing past the first token
/// ([`ConfigError::EncoderOnly`] otherwise).
pub fn check_generation(model: &ModelConfig, shape: RequestShape) -> Result<(), ConfigError> {
    if model.family == ModelFamily::Bert && shape.generation_steps() > 0 {
        return Err(ConfigError::EncoderOnly(model.name, shape));
    }
    Ok(())
}

impl ServingSim {
    /// Checks that a run of `model` can start on this cluster, config
    /// and scheduling: every rule [`run`](Self::run) would otherwise
    /// panic on. It prices nothing, so it costs microseconds.
    ///
    /// # Errors
    ///
    /// The first broken rule, in [`ConfigError`]'s declaration order:
    /// `NoReplicas`; the mix (`EmptyMix`, `MixAndWorkflows`,
    /// `ClassWeight`, `WorkflowWeight`, `Workflow`); `ArrivalRate` and
    /// [`ArrivalSpec::validate`]'s errors (`DiurnalAmplitude` to
    /// `TenantWeights`), then `TenantWeightCount`; the scheduling
    /// (`RolesNeedIterationLevel`, `WorkflowsNeedIterationLevel` at
    /// request level, `ZeroMaxBatch`, `ZeroPrefillChunk`,
    /// `AllDecodeOnly` at iteration level); `DoesNotFit` on any replica;
    /// per effective class, `EncoderOnly`, then `Unadmittable` against
    /// the positional table and on each replica that admits arrivals;
    /// and `KvBlocks` on any replica of a paged iteration-level run.
    pub fn validate(&self, model: &ModelConfig) -> Result<(), ConfigError> {
        use ConfigError as E;
        let cfg = &self.cfg;
        if self.replicas.is_empty() {
            return Err(E::NoReplicas);
        }
        match (cfg.mix.is_empty(), cfg.workflows.is_empty()) {
            (true, true) => return Err(E::EmptyMix),
            (false, false) => return Err(E::MixAndWorkflows),
            _ => {}
        }
        if let Some(i) = cfg.mix.iter().position(|c| !positive(c.weight)) {
            return Err(E::ClassWeight(i, cfg.mix[i].weight));
        }
        for (i, t) in cfg.workflows.iter().enumerate() {
            if !positive(t.weight) {
                return Err(E::WorkflowWeight(i, t.weight));
            }
            t.validate().map_err(|e| E::Workflow(i, e))?;
        }
        if !positive(cfg.arrival_rate_hz) {
            return Err(E::ArrivalRate(cfg.arrival_rate_hz));
        }
        cfg.arrivals.validate()?;
        if let ArrivalSpec::MultiTenant { tenants } = &cfg.arrivals {
            // One of the two lists is empty by now.
            let classes = cfg.mix.len() + cfg.workflows.len();
            let counts = tenants
                .iter()
                .map(|t| t.mix_weights.as_ref().map_or(classes, Vec::len));
            if let Some((k, n)) = counts.enumerate().find(|&(_, n)| n != classes) {
                return Err(E::TenantWeightCount(k, n, classes));
            }
        }
        let decode_only = |r: &ReplicaRole| *r == ReplicaRole::DecodeOnly;
        match self.scheduling {
            Scheduling::RequestLevel if self.roles.iter().any(|&r| r != ReplicaRole::Unified) => {
                return Err(E::RolesNeedIterationLevel);
            }
            Scheduling::RequestLevel if !cfg.workflows.is_empty() => {
                return Err(E::WorkflowsNeedIterationLevel);
            }
            Scheduling::IterationLevel { max_batch: 0, .. } => return Err(E::ZeroMaxBatch),
            Scheduling::IterationLevel {
                prefill_chunk: Some(0),
                ..
            } => return Err(E::ZeroPrefillChunk),
            Scheduling::IterationLevel { .. } if self.roles.iter().all(decode_only) => {
                return Err(E::AllDecodeOnly);
            }
            _ => {}
        }
        for (r, b) in self.replicas.backends().enumerate() {
            b.fits(model).map_err(|e| E::DoesNotFit(r, e))?;
        }
        let mix = super::workflow_rt::effective_mix(cfg);
        for (class, &shape) in mix.iter().map(|c| &c.shape).enumerate() {
            check_generation(model, shape)?;
            let unadmittable = |replica, error| E::Unadmittable {
                class,
                shape,
                replica,
                error,
            };
            let (requested, max_seq) = (shape.total_tokens(), model.max_seq);
            if requested > max_seq {
                let error = CapacityError::SequenceTooLong { requested, max_seq };
                return Err(unadmittable(None, error));
            }
            // The single-shape gate `admit_arrivals` applies mid-run.
            for (r, b) in self.replicas.backends().enumerate() {
                if !decode_only(&self.roles[r]) {
                    b.batch_fits(model, &[shape])
                        .map_err(|e| unadmittable(Some(r), e))?;
                }
            }
        }
        if let Scheduling::IterationLevel { .. } = self.scheduling {
            for (r, b) in self.replicas.backends().enumerate() {
                paged_blocks(b, r, self.kv_block, model, &mix)?;
            }
        }
        Ok(())
    }
}
