//! End-to-end request execution on one IANUS device configuration.

use crate::compiler::{matches_fresh_compile, CompiledStage, Compiler, GenerationTemplate};
use crate::energy::Activity;
use crate::memo::Memo;
use crate::report::{Breakdown, OpClass, RunReport, StageReport};
use crate::{EnergyModel, SystemConfig, UnitMap};
use ianus_model::{ModelConfig, RequestShape, Stage};
use ianus_npu::scheduler::{Engine, ExecutionReport};
use ianus_sim::Duration;
use std::sync::OnceLock;

/// Number of generation steps above which per-step latency is sampled and
/// integrated instead of simulated step-by-step. Per-step latency varies
/// smoothly (linearly growing KV traffic plus occasional tile-boundary
/// steps), so trapezoidal integration over ~2 dozen sample points is
/// accurate to well under a percent while cutting simulation cost by an
/// order of magnitude for 512-token outputs.
const EXACT_STEP_LIMIT: u64 = 48;

/// Sample points used when integrating long generation phases.
const SAMPLE_POINTS: u64 = 25;

/// Generation steps [`IanusSystem::run_request`] prices in one engine
/// walk, each in a lane of its own (see [`Engine::run_lanes`]). On a
/// 2-vCPU x86-64 host a walk costs ≈12 ns per stored command plus ≈7 ns
/// per lane and command, against ≈19 ns for a walk of one lane; four
/// lanes priced a cold `paper_grid` benchmark pass about as fast as
/// eight, and sixteen slower (more of each walk is padding).
const LANES: usize = 8;

/// Reports of the stages one system has simulated.
type StageMemo = Memo<(ModelConfig, Stage), StageReport>;

/// A configured IANUS (or NPU-MEM / partitioned) device — or a group of
/// [`SystemConfig::devices`] ganged over PCIe (paper Section 7) — that
/// runs requests.
///
/// Every stage is simulated once per system: [`run_stage`] memoizes its
/// report keyed by the full `(ModelConfig, Stage)`, so repeated stages —
/// across requests, and the `batch` identical passes of a decode
/// iteration — cost one lookup.
///
/// Generation stages missing from the memo are not compiled each: a
/// generation program has the same commands, dependencies and resource
/// holds at every past length, and only its attention heads' durations,
/// its activity and its FLOPs change. The system's first generation miss
/// on a model compiles one program, which the system keeps for that
/// model (a generation template). Each miss re-emits one attention head
/// at its past through the compiler's own per-head emitter and times the
/// template with those head durations in a duration lane of its own
/// ([`Engine::run_lanes`]), leaving the template as compiled.
/// [`run_request`] collects every step it needs that the memo lacks and
/// prices them eight to one engine walk; a lone miss ([`run_stage`],
/// serving's `decode_time`) walks one lane. Debug builds assert that every
/// lane reports what a fresh compile does, and every build asserts that
/// the re-emitted head is as long as the recorded ones.
///
/// The memo and the templates belong to the system: a new system starts
/// with neither, a clone starts with its source's, and
/// [`set_energy_model`] clears the memo but keeps the templates, which
/// price no energy.
///
/// [`run_stage`]: IanusSystem::run_stage
/// [`run_request`]: IanusSystem::run_request
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
    /// The generation template of every model that has had a generation
    /// miss.
    templates: Memo<ModelConfig, GenerationTemplate>,
    /// Walks of a program the system's engines have made.
    walks: u64,
    /// `"IANUS x{d}"`, formatted on first use so construction allocates
    /// nothing.
    group_name: OnceLock<String>,
}

impl std::fmt::Debug for IanusSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IanusSystem")
            .field("cfg", &self.cfg)
            .field("energy_model", &self.energy_model)
            .field("memoized_stages", &self.stages.len())
            .field("generation_templates", &self.templates.len())
            .field("engine_walks", &self.walks)
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
            templates: Memo::default(),
            walks: 0,
            group_name: OnceLock::new(),
        }
    }

    /// `"IANUS x{d}"` for this system's device count: the
    /// [`Backend`](crate::backend::Backend) name of a unified group.
    pub(crate) fn group_name(&self) -> &str {
        self.group_name
            .get_or_init(|| format!("IANUS x{}", self.cfg.devices))
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The energy model pricing each stage's activity.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy_model
    }

    /// Replaces the energy model (coefficient studies) and forgets every
    /// memoized stage, whose energies the old model priced.
    pub fn set_energy_model(&mut self, m: EnergyModel) {
        self.energy_model = m;
        self.stages.clear();
    }

    /// Simulates one stage and returns its report; a stage this system
    /// has simulated before is read from its memo, and a generation stage
    /// is timed from the model's generation template.
    pub fn run_stage(&mut self, model: &ModelConfig, stage: &Stage) -> StageReport {
        let key = (*model, *stage);
        if let Some(report) = self.stages.get(&key) {
            return report.clone();
        }
        let report = match *stage {
            Stage::Generation { past_tokens } => {
                let mut reports = self.generation::<1>(model, &[past_tokens]);
                reports.pop().expect("one report per past")
            }
            Stage::Summarization { .. } => {
                let mut compiler = Compiler::new(&self.cfg, model);
                let compiled = compiler.compile(stage);
                execute(
                    &self.cfg,
                    &self.energy_model,
                    compiler.unit_map(),
                    &compiled,
                    &mut self.walks,
                )
            }
        };
        self.stages.insert(key, report.clone());
        report
    }

    /// Simulates the generation steps at `pasts`, at most `L`, in one
    /// engine walk, one lane each, from the model's template, compiled on
    /// the model's first generation miss.
    fn generation<const L: usize>(
        &mut self,
        model: &ModelConfig,
        pasts: &[u64],
    ) -> Vec<StageReport> {
        let cfg = &self.cfg;
        let template = self
            .templates
            .entry(*model)
            .or_insert_with(|| GenerationTemplate::new(cfg, model, pasts[0]));
        let units = template.unit_map();
        let (lanes, stages) = template.lanes::<L>(pasts);
        let mut engine = Engine::new(units.unit_count(), cfg.npu.dispatch_overhead);
        let execs = engine.run_lanes(&lanes);
        self.walks += engine.walks();
        (pasts.iter().zip(&execs).zip(stages))
            .map(|((&past_tokens, exec), (activity, flops))| {
                debug_assert!(
                    matches_fresh_compile(cfg, model, past_tokens, exec, &activity, flops),
                    "generation at past {past_tokens} of {} differs from a fresh compile",
                    model.name
                );
                stage_report(&self.energy_model, exec, flops, &activity)
            })
            .collect()
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
        execute(
            &self.cfg,
            &self.energy_model,
            compiler.unit_map(),
            &compiled,
            &mut self.walks,
        )
    }

    /// Runs an end-to-end request: one summarization stage plus
    /// `output − 1` generation steps (sampled when long). The steps the
    /// memo lacks are priced eight to an engine walk, and a lone one
    /// in a walk of one lane.
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
        let pasts = generation_pasts(request);
        self.price_generation(model, &pasts);
        if steps <= EXACT_STEP_LIMIT {
            for past in pasts {
                let g = self.run_stage(model, &Stage::Generation { past_tokens: past });
                report.generation += g.latency;
                report.breakdown.merge(&g.breakdown);
                report.flops += g.flops;
                report.energy.merge(&g.energy);
            }
        } else {
            // Trapezoidal integration over sampled past lengths.
            let samples: Vec<StageReport> = pasts
                .iter()
                .map(|&past_tokens| self.run_stage(model, &Stage::Generation { past_tokens }))
                .collect();
            for w in 0..pasts.len() - 1 {
                let (p0, p1) = (pasts[w], pasts[w + 1]);
                let (s0, s1) = (&samples[w], &samples[w + 1]);
                // Steps in [p0, p1), with the final sample covering its
                // own step.
                let count = if w + 2 == pasts.len() {
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

    /// Memoizes the generation steps at `pasts` that the memo lacks,
    /// [`LANES`] to an engine walk, in the order given.
    fn price_generation(&mut self, model: &ModelConfig, pasts: &[u64]) {
        let missing: Vec<u64> = (pasts.iter().copied())
            .filter(|&past_tokens| {
                !(self.stages).contains_key(&(*model, Stage::Generation { past_tokens }))
            })
            .collect();
        for group in missing.chunks(LANES) {
            let reports = match group.len() {
                1 => self.generation::<1>(model, group),
                _ => self.generation::<LANES>(model, group),
            };
            for (&past_tokens, report) in group.iter().zip(reports) {
                (self.stages).insert((*model, Stage::Generation { past_tokens }), report);
            }
        }
    }
}

/// The past lengths of the generation steps [`IanusSystem::run_request`]
/// prices for `request`: every step up to [`EXACT_STEP_LIMIT`] steps,
/// and [`SAMPLE_POINTS`] evenly spaced samples beyond.
fn generation_pasts(request: RequestShape) -> Vec<u64> {
    let steps = request.generation_steps();
    let (first, last) = (request.input, request.input + steps.saturating_sub(1));
    match steps {
        0 => Vec::new(),
        1..=EXACT_STEP_LIMIT => (first..=last).collect(),
        _ => {
            let points = SAMPLE_POINTS.min(steps);
            (0..points)
                .map(|i| first + (last - first) * i / (points - 1))
                .collect()
        }
    }
}

/// Runs a compiled stage on the device engine, counting the engine's
/// walks into `walks`.
fn execute(
    cfg: &SystemConfig,
    energy_model: &EnergyModel,
    units: UnitMap,
    compiled: &CompiledStage,
    walks: &mut u64,
) -> StageReport {
    let mut engine = Engine::new(units.unit_count(), cfg.npu.dispatch_overhead);
    let exec = engine.run(&compiled.program);
    *walks += engine.walks();
    stage_report(energy_model, &exec, compiled.flops, &compiled.activity)
}

/// The report of a stage the engine executed as `exec`: the one place a
/// stage report is produced.
fn stage_report(
    energy_model: &EnergyModel,
    exec: &ExecutionReport,
    flops: u64,
    activity: &Activity,
) -> StageReport {
    let mut breakdown = Breakdown::new();
    for class in OpClass::ALL {
        breakdown.add(class, exec.tag_busy(class.tag()));
    }
    StageReport {
        latency: exec.makespan().since(ianus_sim::Time::ZERO),
        breakdown,
        flops,
        energy: energy_model.energy(activity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            SystemConfig::ianus().with_devices(2),
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
    fn resident_templates_reproduce_fresh_reports() {
        // Two models share each system, requests interleave with single
        // stages, and pasts are re-timed ascending, then descending on a
        // clone whose energy model changed: templates stay, so every
        // generation miss after the first per model is re-timed.
        let models = [ModelConfig::gpt2_m(), ModelConfig::gpt2_l()];
        let request = RequestShape::new(64, 4);
        let costly = EnergyModel {
            mu_per_flop: 3.0 * EnergyModel::default().mu_per_flop,
            ..EnergyModel::default()
        };
        let check = |sys: &mut IanusSystem, pasts: &[u64], case: &str| {
            let (cfg, energy) = (*sys.config(), *sys.energy_model());
            let fresh = || {
                let mut fresh = IanusSystem::new(cfg);
                fresh.set_energy_model(energy);
                fresh
            };
            for model in &models {
                let fresh_request = debug(&fresh().run_request(model, request));
                for &past_tokens in pasts {
                    let stage = Stage::Generation { past_tokens };
                    let case = format!("{case} {} past {past_tokens}", model.name);
                    let warm = debug(&sys.run_stage(model, &stage));
                    assert_eq!(warm, debug(&fresh().run_stage(model, &stage)), "{case}");
                    let warm = debug(&sys.run_request(model, request));
                    assert_eq!(warm, fresh_request, "{case}");
                }
            }
        };
        for (label, cfg) in crate::compiler::tests::equivalence_configs() {
            let mut sys = IanusSystem::new(cfg);
            check(&mut sys, &[1, 63, 300, 1023], label);
            assert!(debug(&sys).contains("generation_templates: 2"), "{sys:?}");
            let mut clone = sys.clone();
            clone.set_energy_model(costly);
            let kept = "memoized_stages: 0, generation_templates: 2";
            assert!(debug(&clone).contains(kept), "{clone:?}");
            check(&mut clone, &[1023, 511, 300, 62, 0], label);
        }
    }

    #[test]
    fn lane_priced_requests_match_stage_by_stage_pricing() {
        // An exact and a sampled request whose pasts straddle the lengths
        // where IANUS generation programs settle a repeat at another copy
        // (pasts 49 and 86 on GPT-2 M, 66 and 105 on XL), so some lane
        // groups share a walk and some are walked again lane by lane, and
        // an exact request whose warm steps leave eight misses and a lone
        // one. The warm pasts also leave groups partial.
        let requests = [
            RequestShape::new(40, 48),
            RequestShape::new(30, 200),
            RequestShape::new(300, 12),
        ];
        let warm = [41, 44, 70, 300, 305];
        for (label, cfg) in crate::compiler::tests::equivalence_configs() {
            for model in [ModelConfig::gpt2_m(), ModelConfig::gpt2_xl()] {
                let mut sys = IanusSystem::new(cfg);
                for past_tokens in warm {
                    sys.run_stage(&model, &Stage::Generation { past_tokens });
                }
                for request in requests {
                    let case = format!("{label} {} {request:?}", model.name);
                    let lanes = debug(&sys.run_request(&model, request));
                    let mut stepped = IanusSystem::new(cfg);
                    for past_tokens in generation_pasts(request) {
                        let stage = Stage::Generation { past_tokens };
                        let fresh = debug(&IanusSystem::new(cfg).run_stage(&model, &stage));
                        let case = format!("{case} past {past_tokens}");
                        assert_eq!(debug(&sys.run_stage(&model, &stage)), fresh, "{case}");
                        assert_eq!(debug(&stepped.run_stage(&model, &stage)), fresh, "{case}");
                    }
                    assert_eq!(
                        lanes,
                        debug(&stepped.run_request(&model, request)),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_groups_walk_once_unless_their_lanes_settle_apart() {
        let model = ModelConfig::gpt2_m();
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        // The template is compiled at past 0, whose program settles its
        // repeats at other copies than pasts from 86 on. The seven steps
        // of a (512, 8) request fill seven lanes and pad the eighth with
        // the last of them, not with the template's own durations, so
        // they share one walk; the summarization takes another.
        sys.run_stage(&model, &Stage::Generation { past_tokens: 0 });
        let walks = sys.walks;
        sys.run_request(&model, RequestShape::new(512, 8));
        assert_eq!(sys.walks - walks, 2);
        // Pasts 45-52 straddle past 49, from which GPT-2 M settles at
        // another copy: after the shared walk, each lane is walked alone.
        let walks = sys.walks;
        sys.run_request(&model, RequestShape::new(45, 9));
        assert_eq!(sys.walks - walks, 1 + 1 + LANES as u64);
        // A lone miss walks one lane.
        let walks = sys.walks;
        sys.run_request(&model, RequestShape::new(45, 10));
        assert_eq!(sys.walks - walks, 1);
    }

    #[test]
    fn cold_paper_grid_pass_walks_are_pinned() {
        // perfbench's paper_grid pass in paper order: one IANUS system per
        // model, inputs 128, 256 and 512 with outputs 8 and 512. Each
        // model prices 3 summarizations and 84 generation steps; one walk
        // per stage made 348 walks.
        let mut walks = 0;
        for model in ModelConfig::gpt2_family() {
            let mut sys = IanusSystem::new(SystemConfig::ianus());
            for input in [128, 256, 512] {
                for output in [8, 512] {
                    sys.run_request(&model, RequestShape::new(input, output));
                }
            }
            assert!(debug(&sys).contains("memoized_stages: 87"), "{sys:?}");
            walks += sys.walks;
        }
        assert_eq!(walks, 56);
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
