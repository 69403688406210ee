//! `ianus` — command-line front end to the simulator.
//!
//! ```text
//! ianus [--model NAME] [--input N] [--output N] [--system ianus|npu-mem|partitioned]
//!       [--devices D] [--fc adaptive|mu|pim] [--attn mu|pim] [--schedule overlap|naive]
//!       [--compare]
//! ianus --serve [--model NAME] [--system ...] [--devices D] [--replicas K]
//!       [--rate R] [--requests N]
//!       [--mix interactive|decode-heavy|long-prompt|shared-prefix|custom
//!             |agent-chain|tool-fanout|speculative]
//!       [--scheduling request|iteration] [--max-batch B]
//!       [--prefill-chunk N] [--preempt] [--kv-block N]
//!       [--admission fcfs|priority|shortest-prompt|edf|widest-subtree]
//!       [--eviction lowest-priority|largest-kv|least-progress|cheapest]
//!       [--readmission fifo|deadline]
//!       [--eviction-mechanism swap|recompute|cheapest]
//!       [--host-kv-gb G] [--overlap-dma]
//!       [--disaggregate P:D] [--prefill-system ianus|npu-mem|partitioned|a100|dfx]
//!       [--migration least-loaded|freest-kv]
//!       [--arrivals poisson|diurnal|mmpp|multi-tenant] [--burst-factor F] [--tenants K]
//!       [--slo-ttft-ms MS] [--slo-itl-ms MS]
//!       [--compare] [--compare-policies]
//! ```
//!
//! `--slo-ttft-ms`/`--slo-itl-ms` attach an SLO to the mix's
//! interactive-tier classes (batch-tier classes carry no target), and
//! the report then shows SLO attainment and goodput. `--compare-policies`
//! replays the configured scenario under every eviction policy
//! (forcing iteration-level preemption on if needed) and reports which
//! one minimizes interactive SLO violations.
//!
//! `--host-kv-gb` bounds the host DRAM available for swapped KV per
//! replica (0 = unbounded; default: the backend's own budget, 32 GiB
//! for IANUS devices) — swap-outs past the pool fall back to
//! recompute-based eviction. `--eviction-mechanism` picks how victims
//! leave device memory (swap to host, drop-and-re-prefill, or
//! per-victim cheapest), and `--overlap-dma` runs swap traffic on
//! each replica's H2D/D2H DMA lanes concurrently with decode instead
//! of stalling the batch (swap-ins never queue behind swap-outs).
//!
//! `--disaggregate P:D` replaces `--replicas` with a disaggregated
//! cluster: P prefill-only replicas hand every sequence off to one of
//! D decode-only replicas the moment its prefill completes, the KV
//! moving over the replicas' DMA lanes at each side's
//! `kv_transfer_time` price. The prefill side defaults to the
//! configured `--system`; `--prefill-system` swaps in a different
//! backend (e.g. `a100` for the paper's GPU-prefill/PIM-decode
//! split), and `--migration` picks the decode-replica selection
//! policy. Disaggregation requires iteration-level scheduling and
//! forces it on when needed; the report grows migration counts, the
//! migration stall, and a per-replica role breakdown.
//!
//! `--kv-block N` switches iteration-level KV accounting to **paged
//! blocks** of N tokens (0, the default, keeps the legacy contiguous
//! reservations). Paged mode shares class-wide prompt prefixes
//! copy-on-write — `--mix shared-prefix` is the mix built for it (two
//! (512, 512) tiers, each with a 384-token common prefix) — and the
//! report grows prefix-cache hit counts, cache-hit vs cold TTFT, and
//! block-fragmentation lines.
//!
//! The workflow mixes (`agent-chain`, `tool-fanout`, `speculative`)
//! serve DAGs of requests instead of independent ones: each "request"
//! is a workflow *instance*, a node becomes eligible when its last
//! parent completes, and under `--kv-block` children admit directly on
//! their parents' published KV blocks. They require (and force)
//! iteration-level scheduling; `--admission widest-subtree` prioritizes
//! nodes gating the most downstream work. The report grows workflow
//! latency percentiles, deadline attainment, cancelled-node counts
//! (speculative races), and the inherited-prefix ratio.
//!
//! Examples:
//!
//! ```text
//! cargo run --release --bin ianus -- --model gpt2-xl --input 128 --output 64
//! cargo run --release --bin ianus -- --model gpt-6.7b --devices 2 --compare
//! cargo run --release --bin ianus -- --serve --model gpt2-m --replicas 2 \
//!     --rate 8 --mix decode-heavy --scheduling iteration --max-batch 8
//! cargo run --release --bin ianus -- --serve --model gpt2-m --mix long-prompt \
//!     --scheduling iteration --max-batch 8 --prefill-chunk 128 --preempt \
//!     --slo-ttft-ms 2000 --slo-itl-ms 40
//! cargo run --release --bin ianus -- --serve --model gpt2-xl --mix custom \
//!     --input 512 --output 512 --scheduling iteration --max-batch 32 \
//!     --prefill-chunk 128 --preempt --slo-ttft-ms 60000 --slo-itl-ms 150 \
//!     --compare-policies
//! cargo run --release --bin ianus -- --serve --model gpt2-xl --mix shared-prefix \
//!     --rate 0.3 --requests 60 --scheduling iteration --max-batch 8 \
//!     --prefill-chunk 128 --preempt --kv-block 64
//! cargo run --release --bin ianus -- --serve --model gpt2-xl --mix custom \
//!     --input 896 --output 128 --rate 8 --disaggregate 1:6 --prefill-system a100 \
//!     --max-batch 8 --overlap-dma --slo-ttft-ms 100 --slo-itl-ms 50
//! cargo run --release --bin ianus -- --serve --model gpt2-xl --mix agent-chain \
//!     --rate 2 --requests 50 --max-batch 8 --prefill-chunk 128 --preempt \
//!     --kv-block 64 --admission widest-subtree
//! cargo run --release --bin ianus -- --serve --model gpt2-m --compare
//! ```

use ianus::prelude::*;
use ianus::system::capacity;
use ianus::system::serving::check_generation;
use std::str::FromStr;

/// One row of a choice flag's table: an accepted name and what it
/// builds. The parser, `usage()`, the `--compare-policies` sweep and the
/// report header all read these tables. A table's first row is its
/// flag's default.
type Row<T> = (&'static str, T);
type Choice<T> = &'static Row<T>;
/// A cluster step: adds a replica.
type Setup = fn(ServingSim) -> ServingSim;
/// A serving mix: its report label and its config builder over the
/// rate, the request count and the `--input`/`--output` shape.
type Mix = (&'static str, fn(f64, u64, RequestShape) -> ServingConfig);
/// An arrival process over the rate, the burst factor and the tenants.
type Arrivals = fn(f64, f64, u32) -> ArrivalSpec;

const SYSTEMS: &[Row<fn() -> SystemConfig>] = &[
    ("ianus", SystemConfig::ianus),
    ("npu-mem", SystemConfig::npu_mem),
    ("partitioned", SystemConfig::partitioned),
];
/// Each row adds one prefill-only replica; without `--prefill-system`
/// the prefill pool runs the configured `--system`.
const PREFILL_SYSTEMS: &[Row<Setup>] = &[
    ("ianus", |sim| {
        prefill(sim, IanusSystem::new(SystemConfig::ianus()))
    }),
    ("npu-mem", |sim| {
        prefill(sim, IanusSystem::new(SystemConfig::npu_mem()))
    }),
    ("partitioned", |sim| {
        prefill(sim, IanusSystem::new(SystemConfig::partitioned()))
    }),
    ("a100", |sim| prefill(sim, GpuModel::a100())),
    ("dfx", |sim| prefill(sim, DfxModel::four_fpga())),
];
const FCS: &[Row<FcMapping>] = &[
    ("adaptive", FcMapping::Adaptive),
    ("mu", FcMapping::MatrixUnit),
    ("pim", FcMapping::Pim),
];
const ATTNS: &[Row<AttnMapping>] = &[("mu", AttnMapping::MatrixUnit), ("pim", AttnMapping::Pim)];
const SCHEDULES: &[Row<Schedule>] = &[
    ("overlap", Schedule::Overlapped),
    ("naive", Schedule::Naive),
];
/// Whether the serving engine batches at iteration level.
const SCHEDULINGS: &[Row<bool>] = &[("request", false), ("iteration", true)];
const MIXES: &[Row<Mix>] = &[
    (
        "interactive",
        ("interactive", |r, n, _| ServingConfig::interactive(r, n)),
    ),
    (
        "decode-heavy",
        ("decode-heavy", |r, n, _| ServingConfig::decode_heavy(r, n)),
    ),
    (
        "long-prompt",
        ("long-prompt", |r, n, _| ServingConfig::long_prompt(r, n)),
    ),
    // Two (512, 512) tiers sharing a 384-token class prefix: the mix
    // paged KV and its copy-on-write prefix cache are built for.
    (
        "shared-prefix",
        ("shared-prefix (384-token class prefix)", |r, n, _| {
            ServingConfig::shared_prefix(r, n)
        }),
    ),
    // One `--input`/`--output` shape in both tiers: the way to build KV
    // pressure from the command line.
    (
        "custom",
        ("custom (50/50 interactive/batch tiers)", |r, n, shape| {
            ServingConfig {
                mix: vec![
                    RequestClass::new(shape, 0.5),
                    RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
                ],
                ..ServingConfig::interactive(r, n)
            }
        }),
    ),
    (
        "agent-chain",
        ("agent-chain workflow (4-node chain)", |r, n, _| {
            ServingConfig::workflow_mix(r, n, vec![WorkflowTemplate::agent_chain()])
        }),
    ),
    (
        "tool-fanout",
        ("tool-fanout workflow (plan, 4 tools, join)", |r, n, _| {
            ServingConfig::workflow_mix(r, n, vec![WorkflowTemplate::tool_fanout()])
        }),
    ),
    (
        "speculative",
        ("speculative workflow (racing branches)", |r, n, _| {
            ServingConfig::workflow_mix(r, n, vec![WorkflowTemplate::speculative()])
        }),
    ),
];
const ADMISSIONS: &[Row<AdmissionPolicy>] = &[
    ("fcfs", AdmissionPolicy::Fcfs),
    ("priority", AdmissionPolicy::Priority),
    ("shortest-prompt", AdmissionPolicy::ShortestPrompt),
    ("edf", AdmissionPolicy::Deadline),
    ("widest-subtree", AdmissionPolicy::WidestSubtree),
];
const EVICTIONS: &[Row<EvictionPolicy>] = &[
    ("lowest-priority", EvictionPolicy::LowestPriorityYoungest),
    ("largest-kv", EvictionPolicy::LargestKv),
    ("least-progress", EvictionPolicy::LeastProgress),
    ("cheapest", EvictionPolicy::Cheapest),
];
const READMISSIONS: &[Row<ReadmissionPolicy>] = &[
    ("fifo", ReadmissionPolicy::Fifo),
    ("deadline", ReadmissionPolicy::Deadline),
];
const MECHANISMS: &[Row<EvictionMechanism>] = &[
    ("swap", EvictionMechanism::Swap),
    ("recompute", EvictionMechanism::Recompute),
    ("cheapest", EvictionMechanism::Cheapest),
];
const MIGRATIONS: &[Row<MigrationPolicy>] = &[
    ("least-loaded", MigrationPolicy::LeastLoaded),
    ("freest-kv", MigrationPolicy::FreestKv),
];
const ARRIVALS: &[Row<Arrivals>] = &[
    ("poisson", |_, _, _| ArrivalSpec::Poisson),
    // Amplitude so the peak-to-trough rate ratio equals the burst
    // factor: (1+a)/(1-a) = F. Period scales with the rate so a run of
    // a few hundred requests sees whole cycles at any --rate.
    ("diurnal", |rate, f, _| {
        ArrivalSpec::diurnal((f - 1.0) / (f + 1.0), 200.0 / rate)
    }),
    // Symmetric phases, each ~30 mean interarrivals long: bursts are
    // long enough to pile up a queue, short enough that a run
    // alternates phases many times.
    ("mmpp", |r, f, _| ArrivalSpec::mmpp(f, 30.0 / r, 30.0 / r)),
    ("multi-tenant", |_, _, k| ArrivalSpec::multi_tenant(k)),
];

fn prefill(sim: ServingSim, backend: impl Backend + 'static) -> ServingSim {
    sim.replica_with_role(backend, ReplicaRole::PrefillOnly)
}

fn names<T>(table: &[Row<T>]) -> String {
    table.iter().map(|row| row.0).collect::<Vec<_>>().join("|")
}

/// The row of `table` named `value`, or an error that lists the names
/// `flag` accepts.
fn choose<T>(flag: &str, value: String, table: &'static [Row<T>]) -> Result<Choice<T>, String> {
    if let Some(row) = table.iter().find(|row| row.0 == value) {
        return Ok(row);
    }
    let valid = names(table).replace('|', ", ");
    Err(format!(
        "unknown {flag} value {value:?}; valid options: {valid}"
    ))
}

fn number<T: FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, not {value:?}"))
}

/// A count that must be at least 1.
fn at_least_one<T: FromStr + PartialEq + Default>(flag: &str, value: String) -> Result<T, String> {
    let n = number(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

const PS_PER_MS: u64 = 1_000_000_000;

/// `value` times `scale`, checked: a plain multiply would wrap an
/// absurd value (past 2^64 bytes or picoseconds) to a tiny one.
fn scaled(flag: &str, value: String, scale: u64) -> Result<u64, String> {
    let n: u64 = number(flag, value)?;
    n.checked_mul(scale)
        .ok_or(format!("{flag} {n} is past the representable range"))
}

/// The serving flags, as [`parse`] leaves them.
struct ServeArgs {
    replicas: usize,
    rate: f64,
    requests: u64,
    mix: Choice<Mix>,
    iteration: bool,
    /// `--max-batch`/`--prefill-chunk` (0 = monolithic prefill) apply
    /// to every iteration-level mode, also the ones `--compare`,
    /// `--compare-policies` and the workflow mixes force.
    max_batch: u32,
    prefill_chunk: Option<u64>,
    preempt: bool,
    admission: Choice<AdmissionPolicy>,
    eviction: Choice<EvictionPolicy>,
    readmission: Choice<ReadmissionPolicy>,
    mechanism: Choice<EvictionMechanism>,
    /// `--slo-ttft-ms`/`--slo-itl-ms` in picoseconds (0 = no target).
    slo_ttft_ps: u64,
    slo_itl_ps: u64,
    compare_policies: bool,
    /// `--host-kv-gb`: `Some(None)` forces an unbounded pool (0),
    /// `Some(Some(b))` a finite one; `None` keeps the backend default.
    host_kv: Option<Option<u64>>,
    overlap_dma: bool,
    /// Paged-KV block size in tokens (0 = contiguous).
    kv_block: u64,
    /// Prefill/decode pool sizes (replaces `--replicas`).
    disaggregate: Option<(usize, usize)>,
    prefill_system: Option<Choice<Setup>>,
    migration: Choice<MigrationPolicy>,
    arrivals: Choice<Arrivals>,
    burst_factor: f64,
    tenants: u32,
}

impl ServeArgs {
    fn iteration_level(&self, preempt: bool) -> Scheduling {
        Scheduling::IterationLevel {
            max_batch: self.max_batch,
            prefill_chunk: self.prefill_chunk,
            preempt,
        }
    }

    fn policy(&self, eviction: EvictionPolicy) -> SchedulerPolicy {
        SchedulerPolicy {
            admission: self.admission.1,
            eviction,
            readmission: self.readmission.1,
            mechanism: self.mechanism.1,
        }
    }

    /// An unset half defaults to a day-long target no completed request
    /// misses (effectively "only the other half is scored").
    fn slo(&self) -> Option<Slo> {
        let (ttft, itl) = (self.slo_ttft_ps, self.slo_itl_ps);
        let target = |ps| match ps {
            0 => Duration::from_secs_f64(86_400.0),
            ps => Duration::from_ps(ps),
        };
        (ttft > 0 || itl > 0).then(|| Slo::new(target(ttft), target(itl)))
    }

    /// The configured mix, with any SLO attached to its interactive-tier
    /// classes (batch-tier classes carry no target).
    fn config(&self, shape: RequestShape) -> ServingConfig {
        let (_, (_, build)) = self.mix;
        let mut cfg = build(self.rate, self.requests, shape);
        if let Some(slo) = self.slo() {
            for class in cfg.mix.iter_mut() {
                if class.priority == Priority::Interactive {
                    *class = class.with_slo(slo);
                }
            }
        }
        let arrivals = (self.arrivals.1)(self.rate, self.burst_factor, self.tenants);
        cfg.arrivals(arrivals)
    }

    /// The scheduling modes the invocation runs, and a note when they
    /// are not the configured one.
    fn modes(&self, compare: bool, workflows: bool) -> (Vec<Scheduling>, Option<&'static str>) {
        let configured = match self.iteration {
            true => self.iteration_level(self.preempt || self.compare_policies),
            false => Scheduling::RequestLevel,
        };
        let forced = match (self.compare_policies, self.disaggregate, workflows) {
            // Eviction never fires without preemption.
            (true, ..) => {
                Some("--compare-policies forces iteration-level scheduling with --preempt")
            }
            (_, Some(_), _) => Some("--disaggregate forces iteration-level scheduling"),
            (.., true) => Some("workflow mixes force iteration-level scheduling"),
            _ => None,
        };
        let modes = match (forced, configured) {
            // Eviction, role dispatch and the workflow DAG layer live in
            // the iteration-level loop; coerce and say so.
            (Some(_), Scheduling::RequestLevel) => {
                vec![self.iteration_level(self.compare_policies)]
            }
            // --compare contrasts request-level with the *configured*
            // iteration-level form (keeping any chunking/preemption knobs).
            (None, Scheduling::RequestLevel) if compare => {
                vec![Scheduling::RequestLevel, Scheduling::iteration(8)]
            }
            (None, it) if compare => vec![Scheduling::RequestLevel, it],
            (_, configured) => vec![configured],
        };
        let note = forced.filter(|_| configured == Scheduling::RequestLevel);
        (modes, note)
    }

    /// The cluster, with `cfg` as its workload, `mode` as its scheduling
    /// and `system` on every replica that `--prefill-system` does not set.
    fn cluster(&self, system: SystemConfig, cfg: ServingConfig, mode: Scheduling) -> ServingSim {
        let mut sim = ServingSim::new(cfg)
            .scheduling(mode)
            .policy(self.policy(self.eviction.1))
            .overlap_dma(self.overlap_dma)
            .kv_block(self.kv_block);
        if let Some(pool) = self.host_kv {
            sim = sim.host_kv_pool(pool);
        }
        let replica = |sim: ServingSim, role| sim.replica_with_role(IanusSystem::new(system), role);
        let Some((prefill, decode)) = self.disaggregate else {
            return (0..self.replicas).fold(sim, |sim, _| replica(sim, ReplicaRole::Unified));
        };
        for _ in 0..prefill {
            sim = match self.prefill_system {
                Some((_, add)) => add(sim),
                None => replica(sim, ReplicaRole::PrefillOnly),
            };
        }
        let sim = (0..decode).fold(sim, |sim, _| replica(sim, ReplicaRole::DecodeOnly));
        sim.migration(self.migration.1)
    }
}

struct Args {
    model: ModelConfig,
    request: RequestShape,
    system: SystemConfig,
    compare: bool,
    serve: Option<ServeArgs>,
}

/// Every choice flag and the names its table accepts.
fn choices() -> [(&'static str, String); 13] {
    [
        ("--system", names(SYSTEMS)),
        ("--fc", names(FCS)),
        ("--attn", names(ATTNS)),
        ("--schedule", names(SCHEDULES)),
        ("--mix", names(MIXES)),
        ("--scheduling", names(SCHEDULINGS)),
        ("--admission", names(ADMISSIONS)),
        ("--eviction", names(EVICTIONS)),
        ("--readmission", names(READMISSIONS)),
        ("--eviction-mechanism", names(MECHANISMS)),
        ("--prefill-system", names(PREFILL_SYSTEMS)),
        ("--migration", names(MIGRATIONS)),
        ("--arrivals", names(ARRIVALS)),
    ]
}

fn usage() -> String {
    let models: Vec<_> = ModelConfig::all().iter().map(|m| m.name).collect();
    let mut text = format!(
        "usage: ianus [--model NAME] [--input N] [--output N] [--system S] [--devices D]\n\
         \x20            [--fc F] [--attn A] [--schedule S] [--compare]\n\
         \x20      ianus --serve [--model NAME] [--system S] [--devices D] [--replicas K]\n\
         \x20            [--rate R] [--requests N] [--mix M] [--scheduling S]\n\
         \x20            [--max-batch B] [--prefill-chunk N] [--preempt] [--kv-block N]\n\
         \x20            [--admission A] [--eviction E] [--readmission R]\n\
         \x20            [--eviction-mechanism M] [--host-kv-gb G] [--overlap-dma]\n\
         \x20            [--disaggregate P:D] [--prefill-system S] [--migration M]\n\
         \x20            [--arrivals A] [--burst-factor F] [--tenants K]\n\
         \x20            [--slo-ttft-ms MS] [--slo-itl-ms MS] [--compare] [--compare-policies]\n\
         models: {}\n\
         choices (the first is the default; --prefill-system defaults to --system):",
        models.join(", ")
    );
    for (flag, names) in choices() {
        text += &format!("\n  {flag:<21}{names}");
    }
    text
}

/// Parses the command line (without the program name) and runs every
/// check that needs no engine, so that a bad value is one error line.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        model: ModelConfig::gpt2_xl(),
        request: RequestShape::new(128, 64),
        system: SystemConfig::ianus(),
        compare: false,
        serve: None,
    };
    let mut s = ServeArgs {
        replicas: 1,
        rate: 4.0,
        requests: 400,
        mix: &MIXES[0],
        iteration: false,
        max_batch: 8,
        prefill_chunk: None,
        preempt: false,
        admission: &ADMISSIONS[0],
        eviction: &EVICTIONS[0],
        readmission: &READMISSIONS[0],
        mechanism: &MECHANISMS[0],
        slo_ttft_ps: 0,
        slo_itl_ps: 0,
        compare_policies: false,
        host_kv: None,
        overlap_dma: false,
        kv_block: 0,
        disaggregate: None,
        prefill_system: None,
        migration: &MIGRATIONS[0],
        arrivals: &ARRIVALS[0],
        burst_factor: 4.0,
        tenants: 2,
    };
    let (mut pas, mut devices, mut serve) = (PasPolicy::ianus(), 1, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--model" => {
                let name = value()?;
                a.model = ModelConfig::by_name(&name).ok_or(format!("unknown model {name:?}"))?;
            }
            "--input" => a.request.input = at_least_one(&flag, value()?)?,
            "--output" => a.request.output = at_least_one(&flag, value()?)?,
            "--system" => a.system = (choose(&flag, value()?, SYSTEMS)?.1)(),
            "--devices" => devices = at_least_one(&flag, value()?)?,
            "--fc" => pas.fc = choose(&flag, value()?, FCS)?.1,
            "--attn" => pas.attention = choose(&flag, value()?, ATTNS)?.1,
            "--schedule" => pas.schedule = choose(&flag, value()?, SCHEDULES)?.1,
            "--compare" => a.compare = true,
            "--serve" => serve = true,
            "--replicas" => s.replicas = at_least_one(&flag, value()?)?,
            "--rate" => s.rate = number(&flag, value()?)?,
            "--requests" => s.requests = number(&flag, value()?)?,
            "--mix" => s.mix = choose(&flag, value()?, MIXES)?,
            "--scheduling" => s.iteration = choose(&flag, value()?, SCHEDULINGS)?.1,
            "--max-batch" => s.max_batch = at_least_one(&flag, value()?)?,
            "--prefill-chunk" => {
                s.prefill_chunk = Some(number(&flag, value()?)?).filter(|&chunk| chunk > 0)
            }
            "--preempt" => s.preempt = true,
            "--kv-block" => s.kv_block = number(&flag, value()?)?,
            "--admission" => s.admission = choose(&flag, value()?, ADMISSIONS)?,
            "--eviction" => s.eviction = choose(&flag, value()?, EVICTIONS)?,
            "--readmission" => s.readmission = choose(&flag, value()?, READMISSIONS)?,
            "--eviction-mechanism" => s.mechanism = choose(&flag, value()?, MECHANISMS)?,
            // 0 forces an unbounded pool.
            "--host-kv-gb" => {
                s.host_kv = Some(Some(scaled(&flag, value()?, 1 << 30)?).filter(|&b| b > 0))
            }
            "--overlap-dma" => s.overlap_dma = true,
            "--disaggregate" => {
                let v = value()?;
                let pools = v.split_once(':').map(|(p, d)| (p.parse(), d.parse()));
                let Some((Ok(p @ 1..), Ok(d @ 1..))) = pools else {
                    return Err(format!("{flag} takes P:D with P, D at least 1, not {v:?}"));
                };
                s.disaggregate = Some((p, d));
            }
            "--prefill-system" => {
                s.prefill_system = Some(choose(&flag, value()?, PREFILL_SYSTEMS)?)
            }
            "--migration" => s.migration = choose(&flag, value()?, MIGRATIONS)?,
            "--arrivals" => s.arrivals = choose(&flag, value()?, ARRIVALS)?,
            "--burst-factor" => {
                s.burst_factor = number(&flag, value()?)?;
                if !(s.burst_factor > 1.0 && s.burst_factor.is_finite()) {
                    return Err(format!("{flag} must be a finite number above 1"));
                }
            }
            "--tenants" => s.tenants = at_least_one(&flag, value()?)?,
            "--slo-ttft-ms" => s.slo_ttft_ps = scaled(&flag, value()?, PS_PER_MS)?,
            "--slo-itl-ms" => s.slo_itl_ps = scaled(&flag, value()?, PS_PER_MS)?,
            "--compare-policies" => s.compare_policies = true,
            "--help" | "-h" => return Err(String::new()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    a.system = a.system.with_pas(pas).with_devices(devices);
    if !serve {
        check_generation(&a.model, a.request)
            .map_err(|e| format!("{e}; run it with --output 1"))?;
    }
    a.serve = serve.then_some(s);
    Ok(a)
}

/// The engine, modes and note of a serving run.
type Plan = (ServingSim, Vec<Scheduling>, Option<&'static str>);

/// The serving run's [`Plan`], once `validate` passes each mode.
fn serving_plan(args: &Args, serve: &ServeArgs) -> Result<Plan, ConfigError> {
    let config = serve.config(args.request);
    let (modes, note) = serve.modes(args.compare, !config.workflows.is_empty());
    let mut sim = serve.cluster(args.system, config, modes[0]);
    for &mode in &modes {
        sim = sim.scheduling(mode);
        sim.validate(&args.model)?;
    }
    Ok((sim, modes, note))
}

/// Left margin of a report's continuation lines.
const PAD: &str = "";

fn print_serving_report(label: &str, r: &ServingReport, slo: bool) {
    println!(
        "{label:<22} {:>7.1} req/s | util {:>5.1}% | sojourn p50/p99/max {:>8.0}/{:>8.0}/{:>8.0} ms",
        r.throughput_rps,
        r.utilization * 100.0,
        r.sojourn.p50.as_ms_f64(),
        r.sojourn.p99.as_ms_f64(),
        r.sojourn.max.as_ms_f64(),
    );
    println!(
        "{PAD:<22} TTFT p50/p99/max {:>6.0}/{:>6.0}/{:>6.0} ms | ITL p50/p99/max {:>6.2}/{:>6.2}/{:>6.2} ms",
        r.ttft.p50.as_ms_f64(),
        r.ttft.p99.as_ms_f64(),
        r.ttft.max.as_ms_f64(),
        r.inter_token.p50.as_ms_f64(),
        r.inter_token.p99.as_ms_f64(),
        r.inter_token.max.as_ms_f64(),
    );
    println!(
        "{PAD:<22} peak batch {} | KV {:>4.1}% | {}",
        r.peak_batch,
        r.peak_kv_occupancy * 100.0,
        if r.stable() { "stable" } else { "UNSTABLE" },
    );
    if slo {
        println!(
            "{PAD:<22} SLO attainment {:>5.1}% | goodput {:>6.1} req/s (of {:>6.1})",
            r.slo_attainment * 100.0,
            r.goodput_rps,
            r.throughput_rps,
        );
    }
    if r.prefix_cache_hits > 0 || r.fragmentation > 0.0 {
        println!(
            "{PAD:<22} prefix cache {} hit(s) | shared {:>4.1}% of prompt tokens | fragmentation {:>4.1}%",
            r.prefix_cache_hits,
            r.prefix_share_ratio * 100.0,
            r.fragmentation * 100.0,
        );
        let hit = r.ttft_cache_hit.p50.as_ms_f64();
        let cold = r.ttft_cold.p50.as_ms_f64();
        println!("{PAD:<22} TTFT p50 cache-hit {hit:>6.0} ms vs cold {cold:>6.0} ms");
    }
    if r.migrations > 0 {
        let (n, stall) = (r.migrations, r.migration_stall.as_secs_f64());
        println!("{PAD:<22} {n} prefill->decode migration(s) | migration stall {stall:.2} s");
        for p in &r.per_replica {
            println!(
                "{PAD:<22}   {:<16} {:<8} completed {:>6} | in/out {:>5}/{:>5} | util {:>5.1}%",
                p.name,
                p.role.name(),
                p.completed,
                p.migrations_in,
                p.migrations_out,
                p.utilization * 100.0,
            );
        }
    }
    if r.burst_inter_token != LatencyPercentiles::ZERO {
        println!(
            "{PAD:<22} burst windows: ITL p50/p99 {:>6.2}/{:>6.2} ms (vs {:>6.2}/{:>6.2} steady) | SLO attain {:>5.1}%",
            r.burst_inter_token.p50.as_ms_f64(),
            r.burst_inter_token.p99.as_ms_f64(),
            r.inter_token.p50.as_ms_f64(),
            r.inter_token.p99.as_ms_f64(),
            r.burst_slo_attainment * 100.0,
        );
    }
    if r.per_tenant.len() > 1 {
        let fairness = r.tenant_fairness;
        println!("{PAD:<22} tenant fairness (max/min goodput) {fairness:.3}");
        for t in &r.per_tenant {
            println!(
                "{PAD:<22}   tenant {} completed {:>6} | sojourn p50/p99 {:>8.0}/{:>8.0} ms | goodput {:>6.2} req/s | SLO {:>5.1}%",
                t.tenant,
                t.completed,
                t.sojourn.p50.as_ms_f64(),
                t.sojourn.p99.as_ms_f64(),
                t.goodput_rps,
                t.slo_attainment * 100.0,
            );
        }
    }
    if r.completed_workflows > 0 {
        println!(
            "{PAD:<22} workflows {} completed | latency p50/p99/max {:>7.0}/{:>7.0}/{:>7.0} ms | deadline attain {:>5.1}%",
            r.completed_workflows,
            r.workflow_latency.p50.as_ms_f64(),
            r.workflow_latency.p99.as_ms_f64(),
            r.workflow_latency.max.as_ms_f64(),
            r.workflow_slo_attainment * 100.0,
        );
        println!(
            "{PAD:<22} cancelled nodes {} | inherited prefix {:>4.1}% of child prompt tokens",
            r.cancelled_nodes,
            r.inherited_prefix_ratio * 100.0,
        );
    }
    if r.preemptions > 0 {
        println!(
            "{PAD:<22} preempted {} request(s) {} time(s) (max {} per request; {} by recompute)",
            r.preempted_requests, r.preemptions, r.max_preemptions, r.recomputes,
        );
        println!(
            "{PAD:<22} swap DMA {:.2} s ({:.2} s stalled compute) | host pool peak {} MiB{}",
            r.kv_dma.as_secs_f64(),
            r.swap_stall.as_secs_f64(),
            r.host_kv_peak_bytes >> 20,
            if r.host_kv_peak_occupancy > 0.0 {
                format!(" ({:.0}% of pool)", r.host_kv_peak_occupancy * 100.0)
            } else {
                String::new()
            },
        );
    }
}

fn scheduling_label(scheduling: Scheduling) -> String {
    let Scheduling::IterationLevel {
        max_batch,
        prefill_chunk,
        preempt,
    } = scheduling
    else {
        return "request-level".to_string();
    };
    let chunk = prefill_chunk.map_or(String::new(), |c| format!(", chunk {c}"));
    let pre = if preempt { ", preempt" } else { "" };
    format!("iteration (batch {max_batch}{chunk}{pre})")
}

/// `--compare-policies`: the configured scenario replayed under every
/// eviction policy on one warm engine.
fn compare_policies_main(args: &Args, serve: &ServeArgs, mut sim: ServingSim) {
    let scheduling = serve.iteration_level(true);
    println!(
        "eviction-policy sweep under {} ({} admission, {} readmission, {} mechanism):",
        scheduling_label(scheduling),
        serve.admission.0,
        serve.readmission.0,
        serve.mechanism.0,
    );
    let scored = serve.slo().is_some();
    print!(
        "  {:<18} {:>11} {:>10} {:>12} {:>12}",
        "eviction", "preemptions", "recomputes", "itl p99 ms", "itl max ms"
    );
    if scored {
        println!(" {:>11} {:>11}", "slo attain", "goodput r/s");
    } else {
        println!("   (pass --slo-ttft-ms/--slo-itl-ms to score)");
    }
    let mut best: Option<(&str, f64)> = None;
    for (eviction, policy) in EVICTIONS {
        sim = sim.policy(serve.policy(*policy));
        let r = sim.run(&args.model);
        print!(
            "  {:<18} {:>11} {:>10} {:>12.1} {:>12.1}",
            eviction,
            r.preemptions,
            r.recomputes,
            r.inter_token.p99.as_ms_f64(),
            r.inter_token.max.as_ms_f64(),
        );
        if !scored {
            println!();
            continue;
        }
        let attained = r.slo_attainment;
        println!(" {:>10.1}% {:>11.2}", attained * 100.0, r.goodput_rps);
        if best.is_none_or(|(_, b)| attained > b) {
            best = Some((eviction, attained));
        }
    }
    if let Some((winner, attained)) = best {
        let share = attained * 100.0;
        println!("\n{winner} minimizes SLO violations ({share:.1}% of requests within SLO).");
    }
}

fn serve_main(args: &Args, serve: &ServeArgs) {
    let (mut sim, modes, note) = serving_plan(args, serve).unwrap_or_else(|e| fail(&e.to_string()));
    let cluster_label = match serve.disaggregate {
        Some((p, d)) => format!(
            "{p} prefill ({}) + {d} decode, {} migration",
            serve.prefill_system.map_or("same system", |row| row.0),
            serve.migration.0,
        ),
        None => format!("{} replica(s)", serve.replicas),
    };
    println!(
        "serving {} | {} mix | {cluster_label} x {} device(s) | {} req at {} req/s\n",
        args.model.name, serve.mix.1 .0, args.system.devices, serve.requests, serve.rate
    );
    if let Some(note) = note {
        println!("({note})\n");
    }
    if serve.compare_policies {
        compare_policies_main(args, serve, sim);
        return;
    }
    // One engine across all modes: switching with `scheduling`
    // keeps the warm service/prefill/decode memos, so the second mode
    // and the sustainable-rate searches are queueing-only passes.
    let scored = serve.slo().is_some();
    for scheduling in modes {
        sim = sim.scheduling(scheduling);
        let report = sim.run(&args.model);
        print_serving_report(&scheduling_label(scheduling), &report, scored);
        if args.compare {
            let sustainable = sim.sustainable_rate(&args.model, 0.1, 512.0);
            println!("{PAD:<22} sustainable rate {sustainable:.1} req/s\n");
        }
    }
}

fn print_report(label: &str, r: &RunReport) {
    println!(
        "{label:<12} total {:>10.2} ms | summ {:>8.2} ms | gen {:>9.2} ms | {} tok | {:>6.1} TFLOPS",
        r.total.as_ms_f64(),
        r.summarization.as_ms_f64(),
        r.generation.as_ms_f64(),
        r.generation_steps + 1,
        r.throughput_tflops(),
    );
}

/// Prints `error` (if any) and the usage, and exits 2.
fn fail(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("{error}");
    }
    eprintln!("{}", usage());
    std::process::exit(2)
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| fail(&e));
    if let Some(serve) = &args.serve {
        serve_main(&args, serve);
        return;
    }
    println!(
        "{} | ({},{}) | {:?} memory | {} device(s)\n",
        args.model.name,
        args.request.input,
        args.request.output,
        args.system.memory,
        args.system.devices
    );
    match capacity::check_request(&args.system, &args.model, args.request) {
        Ok(cap) => println!(
            "memory: {:.1}% of {} GiB per device (weights {} MiB, KV {} MiB)\n",
            cap.occupancy() * 100.0,
            cap.available_bytes >> 30,
            cap.weight_bytes >> 20,
            cap.kv_bytes >> 20,
        ),
        Err(e) => {
            eprintln!("request does not fit: {e}");
            if let CapacityError::OutOfMemory { .. } = e {
                eprintln!("hint: add devices with --devices");
            }
            std::process::exit(1);
        }
    }
    let mut sys = IanusSystem::new(args.system);
    let report = sys.run_request(&args.model, args.request);
    print_report("simulated", &report);
    if let Some(t) = report.per_token_latency() {
        println!("{:<12} {:.3} ms per generated token", "", t.as_ms_f64());
    }
    let energy_mj = report.energy.total_pj() / 1e9;
    println!("{:<12} dynamic energy {energy_mj:.2} mJ", "");
    println!("\nbusy time by class:");
    for class in OpClass::ALL {
        let t = report.breakdown.get(class);
        if t.as_ns_f64() > 0.0 {
            println!("  {:<24} {:>10.2} ms", class.label(), t.as_ms_f64());
        }
    }
    if args.compare {
        println!("\nbaselines:");
        let mut npu = IanusSystem::new(SystemConfig::npu_mem());
        print_report("npu-mem", &npu.run_request(&args.model, args.request));
        let gpu = GpuModel::a100().request_latency(&args.model, args.request);
        println!("{:<12} total {:>10.2} ms", "a100 (hf)", gpu.as_ms_f64());
        let dfx = DfxModel::four_fpga().request_latency(&args.model, args.request);
        println!("{:<12} total {:>10.2} ms", "dfx x4", dfx.as_ms_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    /// `line`'s parse error, else `validate`'s first error over the
    /// serving modes it runs; empty when both pass.
    fn error(line: &str) -> String {
        match parse_line(line) {
            Err(e) => e,
            Ok(args) => args
                .serve
                .as_ref()
                .and_then(|serve| serving_plan(&args, serve).err())
                .map_or(String::new(), |e| e.to_string()),
        }
    }

    /// The argument lists of the `cargo run … --bin ianus -- …` command
    /// lines among `lines`, backslash continuations joined.
    fn ianus_command_lines<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
        let mut commands = Vec::new();
        let mut open: Option<String> = None;
        for line in lines {
            let line = line.trim().trim_start_matches("//!").trim();
            if let Some((_, args)) = line.split_once("--bin ianus -- ") {
                open = Some(args.to_owned());
            } else if let Some(command) = open.as_mut() {
                command.push(' ');
                command.push_str(line);
            } else {
                continue;
            }
            if !line.ends_with('\\') {
                commands.extend(open.take());
            }
        }
        commands.into_iter().map(|c| c.replace('\\', " ")).collect()
    }

    /// The module-doc examples and the CI runs parse and validate.
    #[test]
    fn documented_command_lines_parse() {
        let source = include_str!("ianus.rs").lines();
        let doc = ianus_command_lines(source.filter(|l| l.starts_with("//!")));
        let ci = ianus_command_lines(include_str!("../../.github/workflows/ci.yml").lines());
        assert_eq!((doc.len(), ci.len()), (9, 6), "{doc:#?}\n{ci:#?}");
        for line in doc.iter().chain(&ci) {
            assert_eq!(error(line), "", "{line}");
        }
    }

    /// The module-doc synopsis lists exactly each table's names.
    #[test]
    fn synopsis_lists_every_table_name() {
        let source = include_str!("ianus.rs");
        let synopsis: String = source
            .lines()
            .skip_while(|l| !l.starts_with("//! ```text"))
            .skip(1)
            .take_while(|l| !l.starts_with("//! ```"))
            .map(|l| l.trim_start_matches("//!").trim())
            .collect();
        for (flag, names) in choices() {
            let entry = format!("[{flag} {names}]");
            assert!(synopsis.contains(&entry), "{entry} missing from {synopsis}");
        }
    }

    /// Every name of every table parses and builds what it names.
    #[test]
    fn known_names_resolve_and_build() {
        for (flag, names) in choices() {
            for name in names.split('|') {
                let line = format!("--serve --model gpt2-m {flag} {name}");
                assert!(parse_line(&line).is_ok(), "{line}");
            }
        }
        // Every variant of each policy enum has a row, in `ALL` order.
        fn values<T: Copy>(table: &[Row<T>]) -> Vec<T> {
            table.iter().map(|row| row.1).collect()
        }
        assert_eq!(values(ADMISSIONS), AdmissionPolicy::ALL);
        assert_eq!(values(EVICTIONS), EvictionPolicy::ALL);
        assert_eq!(values(READMISSIONS), ReadmissionPolicy::ALL);
        assert_eq!(values(MIGRATIONS), MigrationPolicy::ALL);
        for (_, system) in SYSTEMS {
            let _ = system();
        }
        // `usage()` calls each table's first row its default.
        let pas = PasPolicy::ianus();
        assert_eq!((FCS[0].1, ATTNS[0].1), (pas.fc, pas.attention));
        assert_eq!(SCHEDULES[0].1, pas.schedule);
        let shape = RequestShape::new(128, 64);
        let config = || (MIXES[0].1 .1)(4.0, 10, shape);
        for (_, setup) in PREFILL_SYSTEMS {
            let _ = setup(ServingSim::new(config()));
        }
        for (_, (label, build)) in MIXES {
            assert!(!label.is_empty());
            let _ = build(4.0, 10, shape);
        }
        for (_, arrivals) in ARRIVALS {
            assert_eq!(arrivals(4.0, 4.0, 2).validate(), Ok(()));
        }
    }

    /// An unknown name is rejected with the flag's own valid options.
    #[test]
    fn unknown_names_are_rejected() {
        for (flag, names) in choices() {
            for bad in ["fifo-lifo", "agent_chain", "IANUS"] {
                let err = parse_line(&format!("--serve {flag} {bad}")).err();
                let want = format!(
                    "unknown {flag} value {bad:?}; valid options: {}",
                    names.replace('|', ", ")
                );
                assert_eq!(err, Some(want));
            }
        }
    }

    /// A bad number names its flag; an SLO past 2^64 ps, or a class
    /// shape past the model, is rejected before any engine runs.
    #[test]
    fn bad_values_name_their_flag() {
        let err = error;
        assert_eq!(err("--rate x"), "--rate takes a number, not \"x\"");
        assert_eq!(err("--serve --tenants"), "--tenants needs a value");
        assert_eq!(err("--devices 0"), "--devices must be at least 1");
        assert!(err("--disaggregate 0:2").starts_with("--disaggregate takes P:D"));
        assert!(err("--serve --burst-factor NaN").starts_with("--burst-factor must be"));
        for flag in ["--slo-ttft-ms", "--slo-itl-ms"] {
            let line = format!("--serve --model gpt2-m {flag} 18446744074");
            assert_eq!(
                err(&line),
                format!("{flag} 18446744074 is past the representable range")
            );
            assert!(parse_line(&format!("--serve --model gpt2-m {flag} 18446744073")).is_ok());
        }
        let custom = "--serve --model gpt2-m --mix custom --input 2000 --output 64";
        for scheduling in ["request", "iteration"] {
            assert_eq!(
                err(&format!("{custom} --scheduling {scheduling}")),
                "class 0 (2000, 64) can never be admitted: \
                 sequence of 2063 tokens exceeds the model maximum of 1024"
            );
        }
        // The single-request path keeps its own capacity report.
        assert!(parse_line("--model gpt2-m --input 2000 --output 64").is_ok());
    }

    /// Rates, replica counts and batch caps the engine cannot run are
    /// rejected before any engine runs; counts even when unused.
    #[test]
    fn bad_serving_values_are_rejected() {
        let serve = "--serve --model gpt2-m";
        assert_eq!(
            error(&format!("{serve} --rate 4 --replicas 1 --max-batch 8")),
            ""
        );
        assert_eq!(
            error(&format!("{serve} --rate 0.3 --replicas 6 --max-batch 1")),
            ""
        );
        for rate in ["0", "-1", "NaN", "inf"] {
            let value: f64 = rate.parse().unwrap();
            assert_eq!(
                error(&format!("{serve} --rate {rate} --replicas 1 --max-batch 8")),
                format!("arrival rate must be positive and finite, not {value}"),
            );
        }
        for line in [serve, "--model gpt2-m"] {
            let replicas = error(&format!("{line} --rate 4 --replicas 0 --max-batch 8"));
            assert_eq!(replicas, "--replicas must be at least 1");
            let max_batch = error(&format!("{line} --rate 4 --replicas 1 --max-batch 0"));
            assert_eq!(max_batch, "--max-batch must be at least 1");
        }
    }

    /// The named mix's config at one `--input`/`--output` shape.
    fn mix(name: &str, input: u64, output: u64) -> ServingConfig {
        let (_, (_, build)) = choose("--mix", name.to_owned(), MIXES).expect("mix name");
        build(4.0, 10, RequestShape { input, output })
    }

    /// Degenerate shapes, and generation on an encoder-only model, are
    /// rejected before any engine runs.
    #[test]
    fn bad_requests_are_rejected() {
        assert_eq!(
            error("--model gpt2-m --input 0 --output 8"),
            "--input must be at least 1"
        );
        assert_eq!(
            error("--model gpt2-m --input 128 --output 0"),
            "--output must be at least 1"
        );
        assert_eq!(
            error("--serve --model gpt2-m --input 0"),
            "--input must be at least 1"
        );
        assert_eq!(error("--model gpt2-m --input 128 --output 64"), "");
        assert_eq!(error("--model bert-l --input 128 --output 1"), "");
        assert_eq!(error("--serve --model bert-l --mix custom --output 1"), "");
        let encoder_only = |shape: &str| {
            format!("BERT-L is encoder-only and has no generation stage: {shape} requests generate")
        };
        assert_eq!(
            error("--model bert-l --input 128 --output 64"),
            encoder_only("(128, 64)") + "; run it with --output 1"
        );
        let bert = "--serve --model bert-l --input 128";
        assert_eq!(
            error(&format!("{bert} --mix custom --output 64")),
            encoder_only("(128, 64)")
        );
        for output in [64, 1] {
            let interactive = format!("{bert} --mix interactive --output {output}");
            assert_eq!(error(&interactive), encoder_only("(128, 32)"));
        }
    }

    /// The workflow mixes build validated workflow configs (DAG
    /// preflight runs at construction) that drive the engine's
    /// workflow layer, and the flat mixes keep `workflows` empty.
    #[test]
    fn workflow_mixes_build_workflow_configs() {
        for (name, nodes) in [("agent-chain", 4), ("tool-fanout", 6), ("speculative", 5)] {
            let cfg = mix(name, 128, 64);
            assert!(cfg.mix.is_empty());
            assert_eq!(cfg.workflows.len(), 1);
            assert_eq!(cfg.workflows[0].node_count(), nodes);
        }
        let flat = mix("interactive", 128, 64);
        assert!(flat.workflows.is_empty());
        assert!(!flat.mix.is_empty());
    }
}
