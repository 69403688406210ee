//! Per-layer tracing from outside the simulator.
//!
//! [`Traced`] is a counting and timing [`Backend`] decorator: it forwards
//! every trait method to the wrapped backend unchanged and records, per
//! call kind, how many calls were made, how long they took on the host,
//! and which distinct stages they priced. [`replay`] then prices every
//! distinct recorded stage again through the device layers one at a time
//! (`Compiler::new` + `compile`, then `Engine::run`), and [`pim_probe`]
//! times `PimModel::gemv` on a model's FC slices.

use ianus_core::backend::Backend;
use ianus_core::capacity::CapacityError;
use ianus_core::compiler::Compiler;
use ianus_core::{IanusSystem, RunReport, SystemConfig};
use ianus_model::{ModelConfig, RequestShape, Stage};
use ianus_npu::scheduler::Engine;
use ianus_pim::{GemvShape, PimModel};
use ianus_sim::{Duration, Time};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration as Wall, Instant};

/// Generation steps `IanusSystem::run_request` prices one by one; longer
/// outputs are sampled at [`SAMPLE_POINTS`] past lengths and integrated.
/// Mirrors the constants in `crates/core/src/system.rs`; the tests check
/// the enumeration against `RunReport::generation`.
const EXACT_STEP_LIMIT: u64 = 48;
const SAMPLE_POINTS: u64 = 25;

/// One distinct stage a backend call priced, keyed as the `Backend`
/// decomposition keys it: a prefill of `tokens`, or one decode iteration
/// at `past` over `batch` sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Call {
    Prefill {
        model: &'static str,
        tokens: u64,
    },
    Decode {
        model: &'static str,
        past: u64,
        batch: u32,
    },
}

impl Call {
    /// The device stage this call simulates: its model, whether it is a
    /// generation step, and its token count or past length.
    fn stage_key(self) -> (&'static str, bool, u64) {
        match self {
            Call::Prefill { model, tokens } => (model, false, tokens.max(1)),
            Call::Decode { model, past, .. } => (model, true, past),
        }
    }
}

/// The stages `IanusSystem::run_request` prices for `shape`.
fn request_calls(model: &'static str, shape: RequestShape) -> Vec<Call> {
    let mut calls = vec![Call::Prefill {
        model,
        tokens: shape.input,
    }];
    let steps = shape.generation_steps();
    if steps == 0 {
        return calls;
    }
    let (first, last) = (shape.input, shape.input + steps - 1);
    let pasts: Vec<u64> = if steps <= EXACT_STEP_LIMIT {
        (first..=last).collect()
    } else {
        let points = SAMPLE_POINTS.min(steps);
        (0..points)
            .map(|i| first + (last - first) * i / (points - 1))
            .collect()
    };
    calls.extend(pasts.into_iter().map(|past| Call::Decode {
        model,
        past,
        batch: 1,
    }));
    calls
}

/// Calls of one kind: how many, and their summed host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bucket {
    pub calls: u64,
    pub busy: Wall,
}

impl Bucket {
    fn add(&mut self, busy: Wall) {
        self.calls += 1;
        self.busy += busy;
    }
}

/// Everything the decorators of one pass recorded.
#[derive(Debug, Default)]
pub struct CallLog {
    pub prefill: Bucket,
    pub decode: Bucket,
    /// Whole-request calls (`service_time`, `run_request`).
    pub service: Bucket,
    pub kv_transfer: Bucket,
    /// Stage-pricing calls: one per prefill or decode call, and one per
    /// stage a whole-request call priced.
    pub priced: u64,
    /// Every distinct priced stage, with the duration the backend
    /// returned for it when the call returned exactly that stage's price.
    pub distinct: BTreeMap<Call, Option<Duration>>,
}

impl CallLog {
    pub fn busy(&self) -> Wall {
        self.prefill.busy + self.decode.busy + self.service.busy + self.kv_transfer.busy
    }

    fn priced(&mut self, call: Call, returned: Option<Duration>) {
        self.priced += 1;
        self.distinct.entry(call).or_insert(returned);
    }
}

pub type SharedLog = Arc<Mutex<CallLog>>;

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, CallLog> {
    log.lock().expect("call log poisoned by a panicking pass")
}

/// A counting and timing decorator around one replica backend.
pub struct Traced<B> {
    inner: B,
    log: SharedLog,
}

impl<B> Traced<B> {
    pub fn new(inner: B, log: SharedLog) -> Self {
        Traced { inner, log }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Wall) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

impl Traced<IanusSystem> {
    /// `IanusSystem::run_request`, timed, with the stages it priced.
    pub fn run_request(&mut self, model: &ModelConfig, shape: RequestShape) -> RunReport {
        let (report, busy) = timed(|| self.inner.run_request(model, shape));
        let mut log = lock(&self.log);
        log.service.add(busy);
        for call in request_calls(model.name, shape) {
            let returned = match call {
                Call::Prefill { .. } => Some(report.summarization),
                Call::Decode { .. } => None,
            };
            log.priced(call, returned);
        }
        report
    }
}

impl<B: Backend + Clone + 'static> Backend for Traced<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        let (d, busy) = timed(|| self.inner.service_time(model, shape));
        let mut log = lock(&self.log);
        log.service.add(busy);
        for call in request_calls(model.name, shape) {
            log.priced(call, None);
        }
        d
    }

    fn fits(&self, model: &ModelConfig) -> Result<(), CapacityError> {
        self.inner.fits(model)
    }

    fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let (d, busy) = timed(|| self.inner.prefill_time(model, tokens));
        let mut log = lock(&self.log);
        log.prefill.add(busy);
        let call = Call::Prefill {
            model: model.name,
            tokens,
        };
        log.priced(call, Some(d));
        d
    }

    fn decode_time(&mut self, model: &ModelConfig, past_tokens: u64, batch: u32) -> Duration {
        let (d, busy) = timed(|| self.inner.decode_time(model, past_tokens, batch));
        let mut log = lock(&self.log);
        log.decode.add(busy);
        let call = Call::Decode {
            model: model.name,
            past: past_tokens,
            batch,
        };
        log.priced(call, Some(d));
        d
    }

    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        self.inner.batch_fits(model, batch)
    }

    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let (d, busy) = timed(|| self.inner.kv_transfer_time(model, tokens));
        lock(&self.log).kv_transfer.add(busy);
        d
    }

    fn host_kv_bytes(&self) -> Option<u64> {
        self.inner.host_kv_bytes()
    }

    fn kv_budget_bytes(&self, model: &ModelConfig, widest_input: u64) -> Option<u64> {
        self.inner.kv_budget_bytes(model, widest_input)
    }

    /// A clone records into the same log.
    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(Traced::new(self.inner.clone(), self.log.clone())))
    }
}

/// Host time and work of the device layers over one stage replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceLayers {
    /// `Compiler::new` + `compile` over summarization stages.
    pub compile_prefill: Wall,
    /// `Compiler::new` + `compile` over generation stages.
    pub compile_decode: Wall,
    /// `Engine::run` over every compiled program.
    pub npu_run: Wall,
    pub stages: u64,
    pub commands: u64,
}

/// Replays every distinct stage in `log` on `cfg`, one stage at a time.
///
/// Returns the layer times and whether every replayed latency reproduces
/// the price the backend returned for it (a prefill returns the stage
/// latency; an IANUS decode iteration returns it times the batch). Each
/// distinct stage is replayed once, however many calls priced it.
pub fn replay(cfg: &SystemConfig, models: &[ModelConfig], log: &CallLog) -> (DeviceLayers, bool) {
    let mut layers = DeviceLayers::default();
    let mut latency: BTreeMap<(&'static str, bool, u64), Duration> = BTreeMap::new();
    for call in log.distinct.keys() {
        let key = call.stage_key();
        if latency.contains_key(&key) {
            continue;
        }
        let (name, generation, n) = key;
        let stage = if generation {
            Stage::Generation { past_tokens: n }
        } else {
            Stage::Summarization { tokens: n }
        };
        let model = models
            .iter()
            .find(|m| m.name == name)
            .expect("every recorded model is one of the workload's models");
        let t = Instant::now();
        let mut compiler = Compiler::new(cfg, model);
        let compiled = compiler.compile(&stage);
        let compile = t.elapsed();
        if generation {
            layers.compile_decode += compile;
        } else {
            layers.compile_prefill += compile;
        }
        let t = Instant::now();
        let mut engine = Engine::new(compiler.unit_map().unit_count(), cfg.npu.dispatch_overhead);
        let exec = engine.run(&compiled.program);
        layers.npu_run += t.elapsed();
        layers.stages += 1;
        layers.commands += compiled.program.len() as u64;
        latency.insert(key, exec.makespan().since(Time::ZERO));
    }
    let agrees = log.distinct.iter().all(|(call, returned)| {
        let batch = match *call {
            Call::Decode { batch, .. } => u64::from(batch.max(1)),
            Call::Prefill { .. } => 1,
        };
        returned.is_none_or(|d| latency[&call.stage_key()] * batch == d)
    });
    (layers, agrees)
}

/// Host nanoseconds per `PimModel::gemv` call on each model's FC slices
/// (QKV, attention output, FFN1 with fused GELU, FFN2, LM head, each cut
/// into one core's column slice), at batch 1 and at batch 128.
pub fn pim_probe(cfg: &SystemConfig, models: &[ModelConfig]) -> (f64, f64) {
    let pim = PimModel::new(cfg.pim_group_config());
    let parts = u64::from(cfg.npu.cores) * u64::from(cfg.devices);
    let mut shapes = Vec::new();
    for model in models {
        let ops = model.block_ops();
        for (fc, gelu) in [
            (ops.qkv_fc(), false),
            (ops.attn_out_fc(), false),
            (ops.ffn1_fc(), true),
            (ops.ffn2_fc(), false),
            (ops.lm_head_fc(), false),
        ] {
            let slice = fc.column_slice(parts);
            shapes.push(GemvShape::new(slice.out_dim, slice.in_dim).with_gelu(gelu));
        }
    }
    let per_call_ns = |batch: u32| {
        // Repeat the shape set until the timed span is long enough for
        // timer granularity not to matter.
        let (mut calls, t) = (0u64, Instant::now());
        while calls == 0 || t.elapsed() < Wall::from_millis(50) {
            for s in &shapes {
                std::hint::black_box(pim.gemv(std::hint::black_box(s.with_batch(batch))));
                calls += 1;
            }
        }
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    (per_call_ns(1), per_call_ns(128))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ianus_core::serving::{Scheduling, ServingConfig, ServingSim};

    fn new_log() -> SharedLog {
        Arc::new(Mutex::new(CallLog::default()))
    }

    #[test]
    fn wrapping_changes_no_serving_report_field() {
        let model = ModelConfig::gpt2_m();
        let engine = |log: Option<&SharedLog>| {
            let mut sim = ServingSim::new(ServingConfig::shared_prefix(8.0, 24));
            for _ in 0..2 {
                let sys = IanusSystem::new(SystemConfig::ianus());
                sim = match log {
                    Some(log) => sim.replica(Traced::new(sys, log.clone())),
                    None => sim.replica(sys),
                };
            }
            sim.scheduling(Scheduling::IterationLevel {
                max_batch: 16,
                prefill_chunk: Some(128),
                preempt: true,
            })
            .kv_block(16)
            .host_kv_pool(Some(1 << 28))
        };
        let log = new_log();
        let plain = engine(None).run(&model);
        let traced = engine(Some(&log)).run(&model);
        assert_eq!(plain, traced);
        assert!(engine(Some(&log)).try_clone().is_some());

        let log = log.lock().unwrap();
        assert!(log.prefill.calls > 0 && log.decode.calls > 0);
        assert_eq!(log.priced, log.prefill.calls + log.decode.calls);
        assert!(log.distinct.len() as u64 <= log.priced);
        let (layers, agrees) = replay(&SystemConfig::ianus(), &[model], &log);
        assert!(agrees, "replay must reproduce every recorded stage price");
        assert!(layers.stages > 0 && layers.commands > 0);
    }

    #[test]
    fn wrapping_changes_no_run_report_field() {
        let model = ModelConfig::gpt2_m();
        let log = new_log();
        // One exactly summed and one sampled generation phase.
        for shape in [RequestShape::new(64, 8), RequestShape::new(128, 64)] {
            let plain = IanusSystem::new(SystemConfig::ianus()).run_request(&model, shape);
            let traced = Traced::new(IanusSystem::new(SystemConfig::ianus()), log.clone())
                .run_request(&model, shape);
            assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
            // The enumerated generation stages are the ones run_request
            // summed: exactly for short outputs, as endpoints when sampled.
            let mut sys = IanusSystem::new(SystemConfig::ianus());
            let pasts: Vec<u64> = request_calls(model.name, shape)
                .into_iter()
                .filter_map(|c| match c {
                    Call::Decode { past, .. } => Some(past),
                    Call::Prefill { .. } => None,
                })
                .collect();
            assert_eq!(pasts[0], shape.input);
            assert_eq!(
                *pasts.last().unwrap(),
                shape.input + shape.generation_steps() - 1
            );
            if shape.generation_steps() <= EXACT_STEP_LIMIT {
                let summed: Duration = pasts
                    .iter()
                    .map(|&p| {
                        sys.run_stage(&model, &Stage::Generation { past_tokens: p })
                            .latency
                    })
                    .sum();
                assert_eq!(summed, plain.generation);
            }
        }
        let log = log.lock().unwrap();
        assert_eq!(log.service.calls, 2);
        assert_eq!(log.priced, (1 + 7) + (1 + 25));
        let (_, agrees) = replay(&SystemConfig::ianus(), &[model], &log);
        assert!(agrees);
    }
}
