//! The benchmark's three workloads, each driven only through the
//! simulator's public APIs.
//!
//! * `paper_grid` — `IanusSystem::run_request` over half the Figure 8 grid
//!   on the four GPT-2 models: every device layer works, no serving engine.
//! * `cluster_kv` — GPT-2 XL on four IANUS replicas under a shared-prefix
//!   mix with chunked prefill, preemption and paged KV: few distinct
//!   stages priced many times, so the memo, paged-KV, eviction and DMA
//!   layers carry the load.
//! * `engine_scale` — the `million_requests` operating point on analytic
//!   replicas: the engine alone, no device simulation.

use crate::trace::{CallLog, SharedLog, Traced};
use ianus_bench::paper::{FIG8_IANUS_MS, FIG8_REQUESTS};
use ianus_core::backend::Backend;
use ianus_core::capacity::CapacityError;
use ianus_core::serving::{Scheduling, ServingConfig, ServingReport, ServingSim};
use ianus_core::{IanusSystem, RunReport, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};
use ianus_sim::Duration;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};
use std::time::{Duration as Wall, Instant};

/// What one pass produced, reduced to what the output check compares.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// FNV-1a over the `Debug` form of every report the pass produced.
    pub fingerprint: u64,
    pub requests: u64,
    pub completed: u64,
    pub preemptions: u64,
    pub recomputes: u64,
    pub prefix_hits: u64,
    /// Mean |simulated − paper| / paper over the Figure 8 IANUS cells, in
    /// percent, where the workload reproduces a paper table.
    pub fig8_err_pct: Option<f64>,
}

/// A pass run on freshly built, decorated replicas.
pub struct TracedPass {
    pub outcome: Outcome,
    pub wall: Wall,
    pub log: CallLog,
}

pub trait Workload {
    /// The configs, backends and engine one pass runs on.
    type State;

    /// Builds fresh state with empty memos.
    fn build(&self) -> Self::State;

    /// One untraced pass.
    fn pass(&self, state: &mut Self::State) -> Outcome;

    /// One pass on freshly built state whose replicas are wrapped in
    /// [`Traced`] decorators.
    fn traced_pass(&self) -> TracedPass;

    /// Whether replicas simulate a `SystemConfig::ianus()` device, so the
    /// recorded stages can be replayed on one.
    fn simulates_device(&self) -> bool;

    /// The models the pass serves.
    fn models(&self) -> Vec<ModelConfig>;

    /// Whether the pass's reports depend on the benchmark seed; if not,
    /// the committed reference fingerprint applies at every seed.
    fn seeded(&self) -> bool;
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fingerprint<T: Debug>(reports: &[T]) -> u64 {
    fnv1a(&format!("{reports:?}"))
}

fn new_log() -> SharedLog {
    Arc::new(Mutex::new(CallLog::default()))
}

fn take_log(log: SharedLog) -> CallLog {
    Arc::try_unwrap(log)
        .expect("every decorator was dropped with its engine")
        .into_inner()
        .expect("call log poisoned by a panicking pass")
}

/// SplitMix64: the benchmark's only source of seeded randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// paper_grid
// ---------------------------------------------------------------------

/// Half of the Figure 8 grid: the four GPT-2 models × inputs {128, 256,
/// 512} × outputs {8, 512}, run in an order drawn from the seed (seed 0
/// runs them in paper order). Reports are compared in paper order, so
/// every seed does the same work and has the same fingerprint.
pub struct PaperGrid {
    models: [ModelConfig; 4],
    /// (model index, `FIG8_REQUESTS` index) per cell, in paper order.
    cells: Vec<(usize, usize)>,
    /// Indices into `cells`, in run order.
    order: Vec<usize>,
}

/// Outputs of the Figure 8 grid the pass runs, to halve its time. Output
/// 8 prices every generation step and 512 samples them, as 64 would.
/// Output 1 is left out: its summarization-only path (no generation
/// step) is not exercised.
const OUTPUTS: [u64; 2] = [8, 512];

impl PaperGrid {
    pub fn new(seed: u64) -> Self {
        let models = ModelConfig::gpt2_family();
        let cells: Vec<(usize, usize)> = (0..models.len())
            .flat_map(|m| (0..FIG8_REQUESTS.len()).map(move |r| (m, r)))
            .filter(|&(_, r)| OUTPUTS.contains(&FIG8_REQUESTS[r].1))
            .collect();
        let mut order: Vec<usize> = (0..cells.len()).collect();
        if seed != 0 {
            let mut state = seed;
            for i in (1..order.len()).rev() {
                order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
        }
        PaperGrid {
            models,
            cells,
            order,
        }
    }

    fn run(&self, mut request: impl FnMut(usize, RequestShape) -> RunReport) -> Vec<RunReport> {
        let mut reports: Vec<Option<RunReport>> = vec![None; self.cells.len()];
        for &i in &self.order {
            let (m, r) = self.cells[i];
            let (input, output) = FIG8_REQUESTS[r];
            reports[i] = Some(request(m, RequestShape::new(input, output)));
        }
        reports
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect()
    }

    fn outcome(&self, reports: &[RunReport]) -> Outcome {
        let err: f64 = self
            .cells
            .iter()
            .zip(reports)
            .map(|(&(m, r), report)| {
                let paper = FIG8_IANUS_MS[m][r];
                (report.total.as_ms_f64() - paper).abs() / paper
            })
            .sum::<f64>()
            / reports.len() as f64;
        Outcome {
            fingerprint: fingerprint(reports),
            requests: self.cells.len() as u64,
            completed: reports.len() as u64,
            preemptions: 0,
            recomputes: 0,
            prefix_hits: 0,
            fig8_err_pct: Some(err * 100.0),
        }
    }
}

impl Workload for PaperGrid {
    type State = Vec<IanusSystem>;

    fn build(&self) -> Self::State {
        self.models
            .iter()
            .map(|_| IanusSystem::new(SystemConfig::ianus()))
            .collect()
    }

    fn pass(&self, systems: &mut Self::State) -> Outcome {
        let reports = self.run(|m, shape| systems[m].run_request(&self.models[m], shape));
        self.outcome(&reports)
    }

    fn traced_pass(&self) -> TracedPass {
        let log = new_log();
        let mut systems: Vec<Traced<IanusSystem>> = self
            .build()
            .into_iter()
            .map(|s| Traced::new(s, log.clone()))
            .collect();
        let t = Instant::now();
        let reports = self.run(|m, shape| systems[m].run_request(&self.models[m], shape));
        let wall = t.elapsed();
        drop(systems);
        TracedPass {
            outcome: self.outcome(&reports),
            wall,
            log: take_log(log),
        }
    }

    fn simulates_device(&self) -> bool {
        true
    }

    fn models(&self) -> Vec<ModelConfig> {
        self.models.to_vec()
    }

    fn seeded(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// cluster_kv and engine_scale
// ---------------------------------------------------------------------

/// Analytic NPU-PIM node of `examples/million_requests.rs`: linear
/// prefill (28 µs/token) and affine batched decode (50 µs + 20 µs per
/// sequence), evaluated in nanoseconds of host time.
#[derive(Debug, Clone, Copy)]
struct PimNode {
    prefill_per_token: Duration,
    decode_base: Duration,
    decode_per_seq: Duration,
}

impl PimNode {
    const CALIBRATED: PimNode = PimNode {
        prefill_per_token: Duration::from_us(28),
        decode_base: Duration::from_us(50),
        decode_per_seq: Duration::from_us(20),
    };

    /// Steady-state requests/second of one node at `batch` resident
    /// sequences.
    fn capacity_rps(&self, shape: RequestShape, batch: u32) -> f64 {
        let iter = self.decode_base + self.decode_per_seq * u64::from(batch);
        let prefill = self.prefill_per_token * shape.input;
        let decode_share = shape.output as f64 * iter.as_secs_f64() / batch as f64;
        1.0 / (decode_share + prefill.as_secs_f64())
    }
}

impl Backend for PimNode {
    fn name(&self) -> &str {
        "analytic PIM node"
    }

    fn service_time(&mut self, _model: &ModelConfig, shape: RequestShape) -> Duration {
        self.prefill_per_token * shape.input
            + (self.decode_base + self.decode_per_seq) * shape.output.saturating_sub(1)
    }

    fn fits(&self, _model: &ModelConfig) -> Result<(), CapacityError> {
        Ok(())
    }

    fn prefill_time(&mut self, _model: &ModelConfig, tokens: u64) -> Duration {
        self.prefill_per_token * tokens.max(1)
    }

    fn decode_time(&mut self, _model: &ModelConfig, _past_tokens: u64, batch: u32) -> Duration {
        self.decode_base + self.decode_per_seq * u64::from(batch.max(1))
    }
}

/// A serving workload: one engine configuration over identical replicas.
pub struct Serving {
    model: ModelConfig,
    cfg: ServingConfig,
    replicas: usize,
    /// Whether replicas are simulated IANUS devices (else analytic nodes).
    ianus: bool,
    scheduling: Scheduling,
    /// Paged KV block size and host pool override.
    paged: Option<(u64, Option<u64>)>,
    /// Whether the arrival trace is drawn from the benchmark seed.
    seeded: bool,
}

/// Requests per `cluster_kv` pass: below ~150 the cluster never comes
/// under enough KV pressure to preempt.
pub const CLUSTER_KV_REQUESTS: u64 = 200;
/// Requests per `engine_scale` pass (the `million_requests --smoke` size).
pub const ENGINE_SCALE_REQUESTS: u64 = 50_000;

impl Serving {
    /// GPT-2 XL on 4 IANUS replicas: the shared-prefix mix at 6 req/s,
    /// 64-wide batches, 128-token prefill chunks, preemption, 16-token KV
    /// blocks and a 1 GiB host pool, on the config's own trace (seed
    /// `0x5EED`) at every benchmark seed. This load sits at the edge of
    /// preemption, so any other trace, even the same one at a 1% different
    /// rate, moves the pass's device work by ±20% and its engine work by
    /// ±25%: far more than any bound a regression check could use.
    pub fn cluster_kv() -> Self {
        Serving {
            model: ModelConfig::gpt2_xl(),
            cfg: ServingConfig::shared_prefix(6.0, CLUSTER_KV_REQUESTS),
            replicas: 4,
            ianus: true,
            scheduling: Scheduling::IterationLevel {
                max_batch: 64,
                prefill_chunk: Some(128),
                preempt: true,
            },
            paged: Some((16, Some(1 << 30))),
            seeded: false,
        }
    }

    /// 128 analytic replicas, (128, 32) requests at 60% of analytic
    /// full-batch capacity, 32-wide batches; config seed `0x1A45 + N`.
    pub fn engine_scale(seed: u64) -> Self {
        let (replicas, max_batch, shape) = (128, 32, RequestShape::new(128, 32));
        let rate = 0.6 * replicas as f64 * PimNode::CALIBRATED.capacity_rps(shape, max_batch);
        Serving {
            model: ModelConfig::gpt2_xl(),
            cfg: ServingConfig {
                arrival_rate_hz: rate,
                requests: ENGINE_SCALE_REQUESTS,
                seed: 0x1A45_u64.wrapping_add(seed),
                mix: vec![ianus_core::serving::RequestClass::new(shape, 1.0)],
                workflows: vec![],
                arrivals: Default::default(),
            },
            replicas,
            ianus: false,
            scheduling: Scheduling::iteration(max_batch),
            paged: None,
            seeded: true,
        }
    }

    fn engine(&self, log: Option<&SharedLog>) -> ServingSim {
        let mut sim = ServingSim::new(self.cfg.clone());
        for _ in 0..self.replicas {
            let backend: Box<dyn Backend> = match (self.ianus, log) {
                (true, None) => Box::new(IanusSystem::new(SystemConfig::ianus())),
                (true, Some(log)) => Box::new(Traced::new(
                    IanusSystem::new(SystemConfig::ianus()),
                    log.clone(),
                )),
                (false, None) => Box::new(PimNode::CALIBRATED),
                (false, Some(log)) => Box::new(Traced::new(PimNode::CALIBRATED, log.clone())),
            };
            sim = sim.boxed_replica(backend);
        }
        sim = sim.scheduling(self.scheduling);
        if let Some((block, pool)) = self.paged {
            sim = sim.kv_block(block).host_kv_pool(pool);
        }
        sim
    }

    fn outcome(&self, report: &ServingReport) -> Outcome {
        Outcome {
            fingerprint: fingerprint(std::slice::from_ref(report)),
            requests: self.cfg.requests,
            completed: report.completed,
            preemptions: report.preemptions,
            recomputes: report.recomputes,
            prefix_hits: report.prefix_cache_hits,
            fig8_err_pct: None,
        }
    }
}

impl Workload for Serving {
    type State = ServingSim;

    fn build(&self) -> ServingSim {
        self.engine(None)
    }

    fn pass(&self, sim: &mut ServingSim) -> Outcome {
        self.outcome(&sim.run(&self.model))
    }

    fn traced_pass(&self) -> TracedPass {
        let log = new_log();
        let mut sim = self.engine(Some(&log));
        let t = Instant::now();
        let report = sim.run(&self.model);
        let wall = t.elapsed();
        drop(sim);
        TracedPass {
            outcome: self.outcome(&report),
            wall,
            log: take_log(log),
        }
    }

    fn simulates_device(&self) -> bool {
        self.ianus
    }

    fn models(&self) -> Vec<ModelConfig> {
        vec![self.model]
    }

    fn seeded(&self) -> bool {
        self.seeded
    }
}
