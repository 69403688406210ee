//! End-to-end request execution on one IANUS device configuration.

use crate::compiler::Compiler;
use crate::memo::Memo;
use crate::report::{Breakdown, OpClass, RunReport, StageReport};
use crate::{EnergyModel, SystemConfig, UnitMap};
use ianus_model::{ModelConfig, RequestShape, Stage};
use ianus_npu::scheduler::Engine;
use ianus_sim::Duration;

/// Number of generation steps above which per-step latency is sampled and
/// integrated instead of simulated step-by-step. Per-step latency varies
/// smoothly (linearly growing KV traffic plus occasional tile-boundary
/// steps), so trapezoidal integration over ~2 dozen sample points is
/// accurate to well under a percent while cutting simulation cost by an
/// order of magnitude for 512-token outputs.
const EXACT_STEP_LIMIT: u64 = 48;

/// Sample points used when integrating long generation phases.
const SAMPLE_POINTS: u64 = 25;

/// Reports of the stages one system has simulated.
type StageMemo = Memo<(ModelConfig, Stage), StageReport>;

/// A configured IANUS (or NPU-MEM / partitioned) device that runs
/// requests.
///
/// Every stage is simulated once per system: [`run_stage`] memoizes its
/// report keyed by the full `(ModelConfig, Stage)`, so repeated stages —
/// across requests, and the `batch` identical passes of a decode
/// iteration — cost one lookup. The memo belongs to the system: a new
/// system starts empty, a clone starts with its source's entries, and
/// [`set_energy_model`] clears it.
///
/// [`run_stage`]: IanusSystem::run_stage
/// [`set_energy_model`]: IanusSystem::set_energy_model
///
/// # Examples
///
/// ```
/// use ianus_core::{IanusSystem, SystemConfig};
/// use ianus_model::{ModelConfig, Stage};
///
/// let mut sys = IanusSystem::new(SystemConfig::ianus());
/// let stage = sys.run_stage(&ModelConfig::gpt2_m(), &Stage::Generation { past_tokens: 64 });
/// assert!(stage.latency.as_us_f64() > 10.0);
/// ```
#[derive(Clone)]
pub struct IanusSystem {
    cfg: SystemConfig,
    energy_model: EnergyModel,
    stages: StageMemo,
}

impl std::fmt::Debug for IanusSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IanusSystem")
            .field("cfg", &self.cfg)
            .field("energy_model", &self.energy_model)
            .field("memoized_stages", &self.stages.len())
            .finish()
    }
}

impl IanusSystem {
    /// Creates a system for a configuration, with an empty stage memo.
    pub fn new(cfg: SystemConfig) -> Self {
        IanusSystem {
            cfg,
            energy_model: EnergyModel::default(),
            stages: StageMemo::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Replaces the energy model (coefficient studies) and forgets every
    /// memoized stage, whose energies the old model priced.
    pub fn set_energy_model(&mut self, m: EnergyModel) {
        self.energy_model = m;
        self.stages.clear();
    }

    /// Simulates one stage and returns its report; a stage this system
    /// has simulated before is read from its memo.
    pub fn run_stage(&mut self, model: &ModelConfig, stage: &Stage) -> StageReport {
        let key = (*model, *stage);
        if let Some(report) = self.stages.get(&key) {
            return report.clone();
        }
        let mut compiler = Compiler::new(&self.cfg, model);
        let compiled = compiler.compile(stage);
        let report = self.execute(compiler.unit_map(), compiled);
        self.stages.insert(key, report.clone());
        report
    }

    /// Simulates the Figure 12 FC microbenchmark (all block FCs with a
    /// forced mapping).
    pub fn run_fc_microbench(
        &mut self,
        model: &ModelConfig,
        tokens: u64,
        mapping: crate::pas::FcMapping,
    ) -> StageReport {
        let mut compiler = Compiler::new(&self.cfg, model);
        let compiled = compiler.compile_fc_microbench(tokens, mapping);
        self.execute(compiler.unit_map(), compiled)
    }

    fn execute(&mut self, units: UnitMap, compiled: crate::compiler::CompiledStage) -> StageReport {
        let mut engine = Engine::new(units.unit_count(), self.cfg.npu.dispatch_overhead);
        let exec = engine.run(&compiled.program);
        let mut breakdown = Breakdown::new();
        for class in OpClass::ALL {
            breakdown.add(class, exec.tag_busy(class.tag()));
        }
        StageReport {
            latency: exec.makespan().since(ianus_sim::Time::ZERO),
            breakdown,
            flops: compiled.flops,
            energy: self.energy_model.energy(&compiled.activity),
        }
    }

    /// Runs an end-to-end request: one summarization stage plus
    /// `output − 1` generation steps (sampled when long).
    ///
    /// # Panics
    ///
    /// Panics if a BERT model is given an `output > 1` request.
    pub fn run_request(&mut self, model: &ModelConfig, request: RequestShape) -> RunReport {
        let summ = self.run_stage(
            model,
            &Stage::Summarization {
                tokens: request.input,
            },
        );
        let steps = request.generation_steps();
        let mut report = RunReport {
            total: summ.latency,
            summarization: summ.latency,
            generation: Duration::ZERO,
            generation_steps: steps,
            breakdown: summ.breakdown.clone(),
            flops: summ.flops,
            energy: summ.energy,
        };
        if steps == 0 {
            return report;
        }
        let first = request.input;
        let last = request.input + steps - 1;
        if steps <= EXACT_STEP_LIMIT {
            for past in first..=last {
                let g = self.run_stage(model, &Stage::Generation { past_tokens: past });
                report.generation += g.latency;
                report.breakdown.merge(&g.breakdown);
                report.flops += g.flops;
                report.energy.merge(&g.energy);
            }
        } else {
            // Trapezoidal integration over sampled past lengths.
            let points = SAMPLE_POINTS.min(steps);
            let sample_pasts: Vec<u64> = (0..points)
                .map(|i| first + (last - first) * i / (points - 1))
                .collect();
            let samples: Vec<StageReport> = sample_pasts
                .iter()
                .map(|&p| self.run_stage(model, &Stage::Generation { past_tokens: p }))
                .collect();
            for w in 0..points as usize - 1 {
                let (p0, p1) = (sample_pasts[w], sample_pasts[w + 1]);
                let (s0, s1) = (&samples[w], &samples[w + 1]);
                // Steps in [p0, p1), with the final sample covering its
                // own step.
                let count = if w + 2 == points as usize {
                    p1 - p0 + 1
                } else {
                    p1 - p0
                } as f64;
                let avg_lat = Duration::from_ns_f64(
                    (s0.latency.as_ns_f64() + s1.latency.as_ns_f64()) / 2.0 * count,
                );
                report.generation += avg_lat;
                let mut seg = s0.breakdown.clone();
                seg.merge(&s1.breakdown);
                report.breakdown.merge(&seg.scaled(count / 2.0));
                report.flops += ((s0.flops + s1.flops) as f64 / 2.0 * count) as u64;
                let mut e = s0.energy;
                e.merge(&s1.energy);
                report.energy.merge(&e.scaled(count / 2.0));
            }
        }
        report.total = report.summarization + report.generation;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::multi_device::DeviceGroup;

    fn debug<T: std::fmt::Debug>(value: &T) -> String {
        format!("{value:?}")
    }

    /// Stages a `(64, 8)` request prices, plus one it does not.
    const STAGES: [Stage; 4] = [
        Stage::Summarization { tokens: 64 },
        Stage::Generation { past_tokens: 64 },
        Stage::Generation { past_tokens: 70 },
        Stage::Generation { past_tokens: 71 },
    ];

    #[test]
    fn warm_system_reproduces_fresh_reports() {
        let model = ModelConfig::gpt2_m();
        let request = RequestShape::new(64, 8);
        for cfg in [
            SystemConfig::ianus(),
            SystemConfig::partitioned(),
            SystemConfig::npu_mem(),
        ] {
            let mut warm = IanusSystem::new(cfg);
            let first = warm.run_request(&model, request);
            // One summarization plus seven generation steps memoized.
            assert!(debug(&warm).contains("memoized_stages: 8"), "{warm:?}");
            for stage in &STAGES {
                let fresh = IanusSystem::new(cfg).run_stage(&model, stage);
                assert_eq!(debug(&warm.run_stage(&model, stage)), debug(&fresh));
            }
            assert_eq!(debug(&warm.run_request(&model, request)), debug(&first));
            let fresh = IanusSystem::new(cfg).run_request(&model, request);
            assert_eq!(debug(&first), debug(&fresh));
        }

        let mut warm = DeviceGroup::new(SystemConfig::ianus(), 2);
        let first = warm.run_request(&model, request);
        for tokens in [1, 64] {
            let fresh = DeviceGroup::new(SystemConfig::ianus(), 2).prefill_time(&model, tokens);
            assert_eq!(warm.prefill_time(&model, tokens), fresh);
        }
        for (past, batch) in [(64, 1), (70, 3), (71, 2)] {
            let fresh = DeviceGroup::new(SystemConfig::ianus(), 2).decode_time(&model, past, batch);
            assert_eq!(warm.decode_time(&model, past, batch), fresh);
        }
        assert_eq!(debug(&warm.run_request(&model, request)), debug(&first));
        let fresh = DeviceGroup::new(SystemConfig::ianus(), 2).run_request(&model, request);
        assert_eq!(debug(&first), debug(&fresh));
    }

    #[test]
    fn set_energy_model_reprices_memoized_stages() {
        let model = ModelConfig::gpt2_m();
        let request = RequestShape::new(64, 8);
        let costly = EnergyModel {
            dram_per_byte: 2.0 * EnergyModel::default().dram_per_byte,
            mu_per_flop: 3.0 * EnergyModel::default().mu_per_flop,
            ..EnergyModel::default()
        };
        let mut warm = IanusSystem::new(SystemConfig::ianus());
        let default_energy = warm.run_request(&model, request).energy;
        warm.set_energy_model(costly);
        assert!(debug(&warm).contains("memoized_stages: 0"), "{warm:?}");

        let mut fresh = IanusSystem::new(SystemConfig::ianus());
        fresh.set_energy_model(costly);
        let repriced = warm.run_request(&model, request).energy;
        assert_ne!(repriced, default_energy);
        assert_eq!(repriced, fresh.run_request(&model, request).energy);
        for stage in &STAGES {
            assert_eq!(
                warm.run_stage(&model, stage).energy,
                fresh.run_stage(&model, stage).energy
            );
        }
    }

    #[test]
    fn clone_carries_the_memo_and_agrees_with_its_source() {
        let model = ModelConfig::gpt2_m();
        let request = RequestShape::new(64, 8);
        let mut source = IanusSystem::new(SystemConfig::ianus());
        source.run_request(&model, request);
        let mut clone = source.clone();
        assert_eq!(debug(&clone), debug(&source));
        for stage in &STAGES {
            assert_eq!(
                debug(&clone.run_stage(&model, stage)),
                debug(&source.run_stage(&model, stage))
            );
        }
        assert_eq!(
            debug(&clone.run_request(&model, request)),
            debug(&source.run_request(&model, request))
        );
        // Each copy now memoizes independently.
        clone.run_stage(&model, &Stage::Generation { past_tokens: 1 });
        assert_ne!(debug(&clone), debug(&source));
    }

    #[test]
    fn sampled_matches_exact_within_two_percent() {
        let model = ModelConfig::gpt2_m();
        let req = RequestShape::new(32, 64); // 63 steps: sampled path
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let sampled = sys.run_request(&model, req);
        // Exact: sum the 63 steps directly.
        let mut exact = Duration::ZERO;
        for past in 32..95u64 {
            exact += sys
                .run_stage(&model, &Stage::Generation { past_tokens: past })
                .latency;
        }
        let rel = (sampled.generation.as_ns_f64() - exact.as_ns_f64()).abs() / exact.as_ns_f64();
        assert!(rel < 0.02, "relative error {rel}");
    }

    #[test]
    fn generation_latency_grows_with_past() {
        let model = ModelConfig::gpt2_l();
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let a = sys.run_stage(&model, &Stage::Generation { past_tokens: 64 });
        let b = sys.run_stage(&model, &Stage::Generation { past_tokens: 512 });
        assert!(b.latency > a.latency);
    }

    #[test]
    fn report_fields_consistent() {
        let model = ModelConfig::gpt2_m();
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let r = sys.run_request(&model, RequestShape::new(128, 8));
        assert_eq!(r.generation_steps, 7);
        assert_eq!(r.total, r.summarization + r.generation);
        assert!(r.per_token_latency().unwrap() > Duration::ZERO);
        assert!(r.throughput_tflops() > 0.0);
        assert!(r.energy.total_pj() > 0.0);
    }

    #[test]
    fn npu_mem_generation_is_weight_bound() {
        // NPU-MEM streams all FC weights per token: GPT-2 XL ≈ 2.9 GB at
        // 256 GB/s ⇒ ≥ 11 ms per token (paper: 15.5 ms).
        let model = ModelConfig::gpt2_xl();
        let mut sys = IanusSystem::new(SystemConfig::npu_mem());
        let g = sys.run_stage(&model, &Stage::Generation { past_tokens: 128 });
        assert!(
            g.latency.as_ms_f64() > 10.0 && g.latency.as_ms_f64() < 25.0,
            "{}",
            g.latency
        );
    }

    #[test]
    fn ianus_xl_token_latency_regime() {
        // Paper: IANUS generates a GPT-2 XL token in ≈ 3.8 ms.
        let model = ModelConfig::gpt2_xl();
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let g = sys.run_stage(&model, &Stage::Generation { past_tokens: 192 });
        assert!(
            g.latency.as_ms_f64() > 1.0 && g.latency.as_ms_f64() < 8.0,
            "{}",
            g.latency
        );
    }
}
