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

use ianus::model::ModelFamily;
use ianus::prelude::*;

#[derive(Clone, Copy, PartialEq, Eq)]
enum MixKind {
    Interactive,
    DecodeHeavy,
    LongPrompt,
    /// Two (512, 512) tiers sharing a 384-token class prefix — the mix
    /// paged KV (`--kv-block`) and its copy-on-write prefix cache are
    /// built for; heavy enough to preempt under load.
    SharedPrefix,
    /// A 50/50 interactive/batch-tier mix of one `--input`/`--output`
    /// shape — the way to build KV pressure from the command line
    /// (e.g. `--mix custom --input 512 --output 512` on GPT-2 XL).
    Custom,
    /// Agentic workflow mixes (PR 9): each "request" is a DAG instance
    /// of the named built-in template; children admit on their parents'
    /// published KV under `--kv-block`. Forces iteration-level
    /// scheduling.
    AgentChain,
    ToolFanout,
    Speculative,
}

impl MixKind {
    fn by_name(name: &str) -> Option<MixKind> {
        Some(match name {
            "interactive" => MixKind::Interactive,
            "decode-heavy" => MixKind::DecodeHeavy,
            "long-prompt" => MixKind::LongPrompt,
            "shared-prefix" => MixKind::SharedPrefix,
            "custom" => MixKind::Custom,
            "agent-chain" => MixKind::AgentChain,
            "tool-fanout" => MixKind::ToolFanout,
            "speculative" => MixKind::Speculative,
            _ => return None,
        })
    }

    /// A workflow mix drives the engine's DAG layer instead of a flat
    /// class mix (and requires iteration-level scheduling).
    fn is_workflow(self) -> bool {
        matches!(
            self,
            MixKind::AgentChain | MixKind::ToolFanout | MixKind::Speculative
        )
    }
}

const MIXES: [&str; 8] = [
    "interactive",
    "decode-heavy",
    "long-prompt",
    "shared-prefix",
    "custom",
    "agent-chain",
    "tool-fanout",
    "speculative",
];
const ADMISSIONS: [&str; 5] = [
    "fcfs",
    "priority",
    "shortest-prompt",
    "edf",
    "widest-subtree",
];
const EVICTIONS: [&str; 4] = [
    "lowest-priority",
    "largest-kv",
    "least-progress",
    "cheapest",
];
const READMISSIONS: [&str; 2] = ["fifo", "deadline"];
const MECHANISMS: [&str; 3] = ["swap", "recompute", "cheapest"];
const MIGRATIONS: [&str; 2] = ["least-loaded", "freest-kv"];
const ARRIVAL_KINDS: [&str; 4] = ["poisson", "diurnal", "mmpp", "multi-tenant"];
const PREFILL_SYSTEMS: [&str; 5] = ["ianus", "npu-mem", "partitioned", "a100", "dfx"];

/// Resolves a flag value against its name table (the single source of
/// the valid policy names). Pure, so the parser tests can exercise it.
fn resolve(value: &str, table: &'static [&'static str]) -> Option<&'static str> {
    table.iter().find(|n| **n == value).copied()
}

/// [`resolve`], rejecting unknown names at parse time with an error
/// that lists the valid options for the offending flag.
fn intern(flag: &str, value: String, table: &'static [&'static str]) -> &'static str {
    resolve(&value, table).unwrap_or_else(|| {
        eprintln!(
            "unknown {flag} value {value:?}; valid options: {}",
            table.join(", ")
        );
        usage()
    })
}

/// Policy flags as parsed names; `SchedulerPolicy` is not `Clone`, so
/// fresh bundles are built from these on demand.
#[derive(Clone, Copy)]
struct PolicyNames {
    admission: &'static str,
    eviction: &'static str,
    readmission: &'static str,
    mechanism: &'static str,
}

impl PolicyNames {
    fn bundle(&self) -> SchedulerPolicy {
        bundle_of(
            self.admission,
            self.eviction,
            self.readmission,
            self.mechanism,
        )
    }
}

fn bundle_of(
    admission: &str,
    eviction: &str,
    readmission: &str,
    mechanism: &str,
) -> SchedulerPolicy {
    // Names were interned against the tables at parse time.
    let mut p = SchedulerPolicy::default();
    p = match admission {
        "fcfs" => p.with_admission(FcfsAdmission),
        "priority" => p.with_admission(PriorityAdmission),
        "shortest-prompt" => p.with_admission(ShortestPromptAdmission),
        "edf" => p.with_admission(DeadlineAdmission),
        "widest-subtree" => p.with_admission(WidestSubtreeAdmission),
        _ => unreachable!("interned admission name"),
    };
    p = match eviction {
        "lowest-priority" => p.with_eviction(LowestPriorityYoungest),
        "largest-kv" => p.with_eviction(LargestKv),
        "least-progress" => p.with_eviction(LeastProgress),
        "cheapest" => p.with_eviction(CheapestEviction),
        _ => unreachable!("interned eviction name"),
    };
    p = match readmission {
        "fifo" => p.with_readmission(FifoReadmission),
        "deadline" => p.with_readmission(DeadlineReadmission),
        _ => unreachable!("interned readmission name"),
    };
    match mechanism {
        "swap" => p.with_mechanism(EvictionMechanism::Swap),
        "recompute" => p.with_mechanism(EvictionMechanism::Recompute),
        "cheapest" => p.with_mechanism(EvictionMechanism::Cheapest),
        _ => unreachable!("interned mechanism name"),
    }
}

struct ServeArgs {
    replicas: usize,
    rate: f64,
    requests: u64,
    mix: MixKind,
    scheduling: Scheduling,
    /// The raw `--max-batch`/`--prefill-chunk` values, kept separately
    /// so `--compare-policies` honors them even when `--scheduling
    /// iteration` was not passed (its fallback must not silently drop
    /// configured knobs).
    max_batch: u32,
    prefill_chunk: Option<u64>,
    policy: PolicyNames,
    slo: Option<Slo>,
    compare_policies: bool,
    /// `--host-kv-gb`: `Some(None)` forces an unbounded pool (0),
    /// `Some(Some(b))` a finite one; `None` keeps the backend default.
    host_kv: Option<Option<u64>>,
    /// `--overlap-dma`: swap DMA overlaps decode on split H2D/D2H lanes.
    overlap_dma: bool,
    /// `--kv-block`: paged-KV block size in tokens (0 = contiguous).
    kv_block: u64,
    /// `--disaggregate P:D`: prefill/decode pool sizes (replaces
    /// `--replicas`).
    disaggregate: Option<(usize, usize)>,
    /// `--prefill-system`: backend of the prefill pool (`None` = the
    /// configured `--system`).
    prefill_system: Option<&'static str>,
    /// `--migration`: decode-replica selection policy at handoff.
    migration: &'static str,
    /// `--arrivals`: arrival-process shape (see [`ArrivalSpec`]).
    arrivals: &'static str,
    /// `--burst-factor`: burst-to-calm rate ratio for `diurnal`/`mmpp`.
    burst_factor: f64,
    /// `--tenants`: tenant count for `multi-tenant`.
    tenants: u32,
}

struct Args {
    model: ModelConfig,
    request: RequestShape,
    system: SystemConfig,
    compare: bool,
    serve: Option<ServeArgs>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ianus [--model NAME] [--input N] [--output N]\n\
         \x20            [--system ianus|npu-mem|partitioned] [--devices D]\n\
         \x20            [--fc adaptive|mu|pim] [--attn mu|pim] [--schedule overlap|naive]\n\
         \x20            [--compare]\n\
         \x20      ianus --serve [--model NAME] [--system ...] [--devices D]\n\
         \x20            [--replicas K] [--rate R] [--requests N]\n\
         \x20            [--mix interactive|decode-heavy|long-prompt|shared-prefix|custom\n\
         \x20                  |agent-chain|tool-fanout|speculative]\n\
         \x20            [--scheduling request|iteration] [--max-batch B]\n\
         \x20            [--prefill-chunk N] [--preempt] [--kv-block N]\n\
         \x20            [--admission fcfs|priority|shortest-prompt|edf|widest-subtree]\n\
         \x20            [--eviction lowest-priority|largest-kv|least-progress|cheapest]\n\
         \x20            [--readmission fifo|deadline]\n\
         \x20            [--eviction-mechanism swap|recompute|cheapest]\n\
         \x20            [--host-kv-gb G] [--overlap-dma]\n\
         \x20            [--disaggregate P:D] [--prefill-system ianus|npu-mem|partitioned|a100|dfx]\n\
         \x20            [--migration least-loaded|freest-kv]\n\
         \x20            [--arrivals poisson|diurnal|mmpp|multi-tenant]\n\
         \x20            [--burst-factor F] [--tenants K]\n\
         \x20            [--slo-ttft-ms MS] [--slo-itl-ms MS]\n\
         \x20            [--compare] [--compare-policies]\n\
         models: {}",
        ModelConfig::all()
            .iter()
            .map(|m| m.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

fn parse() -> Args {
    let mut model = ModelConfig::gpt2_xl();
    let mut input = 128u64;
    let mut output = 64u64;
    let mut system = SystemConfig::ianus();
    let mut pas = PasPolicy::ianus();
    let mut devices = 1u32;
    let mut compare = false;
    let mut serve = false;
    let mut replicas = 1usize;
    let mut rate = 4.0f64;
    let mut requests = 400u64;
    let mut mix = MixKind::Interactive;
    let mut iteration = false;
    let mut max_batch = 8u32;
    let mut prefill_chunk = 0u64; // 0 = monolithic prefill
    let mut preempt = false;
    let mut admission = "fcfs";
    let mut eviction = "lowest-priority";
    let mut readmission = "fifo";
    let mut mechanism = "swap";
    let mut slo_ttft_ms = 0u64; // 0 = no target
    let mut slo_itl_ms = 0u64;
    let mut compare_policies = false;
    let mut host_kv: Option<Option<u64>> = None;
    let mut overlap_dma = false;
    let mut kv_block = 0u64; // 0 = contiguous KV accounting
    let mut disaggregate: Option<(usize, usize)> = None;
    let mut prefill_system: Option<&'static str> = None;
    let mut migration = "least-loaded";
    let mut arrivals = "poisson";
    let mut burst_factor = 4.0f64;
    let mut tenants = 2u32;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--serve" => serve = true,
            "--replicas" => replicas = value().parse().unwrap_or_else(|_| usage()),
            "--rate" => rate = value().parse().unwrap_or_else(|_| usage()),
            "--requests" => requests = value().parse().unwrap_or_else(|_| usage()),
            "--max-batch" => max_batch = value().parse().unwrap_or_else(|_| usage()),
            "--prefill-chunk" => prefill_chunk = value().parse().unwrap_or_else(|_| usage()),
            "--preempt" => preempt = true,
            "--admission" => admission = intern("--admission", value(), &ADMISSIONS),
            "--eviction" => eviction = intern("--eviction", value(), &EVICTIONS),
            "--readmission" => readmission = intern("--readmission", value(), &READMISSIONS),
            "--eviction-mechanism" => {
                mechanism = intern("--eviction-mechanism", value(), &MECHANISMS)
            }
            "--host-kv-gb" => {
                let gb: u64 = value().parse().unwrap_or_else(|_| usage());
                // Checked: `gb << 30` would silently wrap absurd
                // values (≥ 2^34 GiB) to a tiny or zero pool.
                let bytes = gb.checked_mul(1 << 30).unwrap_or_else(|| usage());
                host_kv = Some((gb > 0).then_some(bytes));
            }
            "--overlap-dma" => overlap_dma = true,
            "--kv-block" => kv_block = value().parse().unwrap_or_else(|_| usage()),
            "--disaggregate" => {
                let v = value();
                let (p, d) = v.split_once(':').unwrap_or_else(|| usage());
                let p: usize = p.parse().unwrap_or_else(|_| usage());
                let d: usize = d.parse().unwrap_or_else(|_| usage());
                if p == 0 || d == 0 {
                    usage();
                }
                disaggregate = Some((p, d));
            }
            "--prefill-system" => {
                prefill_system = Some(intern("--prefill-system", value(), &PREFILL_SYSTEMS))
            }
            "--migration" => migration = intern("--migration", value(), &MIGRATIONS),
            "--arrivals" => arrivals = intern("--arrivals", value(), &ARRIVAL_KINDS),
            "--burst-factor" => {
                burst_factor = value().parse().unwrap_or_else(|_| usage());
                if burst_factor <= 1.0 {
                    eprintln!("--burst-factor must be above 1");
                    usage()
                }
            }
            "--tenants" => {
                tenants = value().parse().unwrap_or_else(|_| usage());
                if tenants == 0 {
                    eprintln!("--tenants must be at least 1");
                    usage()
                }
            }
            "--slo-ttft-ms" => slo_ttft_ms = value().parse().unwrap_or_else(|_| usage()),
            "--slo-itl-ms" => slo_itl_ms = value().parse().unwrap_or_else(|_| usage()),
            "--compare-policies" => compare_policies = true,
            "--mix" => {
                // Interned against MIXES for the same unknown-value
                // error the policy flags give.
                mix = MixKind::by_name(intern("--mix", value(), &MIXES))
                    .expect("MIXES and MixKind::by_name cover the same names");
            }
            "--scheduling" => {
                iteration = match value().as_str() {
                    "request" => false,
                    "iteration" => true,
                    _ => usage(),
                }
            }
            "--model" => {
                let name = value();
                model = ModelConfig::by_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown model {name:?}");
                    usage()
                });
            }
            "--input" => input = value().parse().unwrap_or_else(|_| usage()),
            "--output" => output = value().parse().unwrap_or_else(|_| usage()),
            "--devices" => {
                devices = value().parse().unwrap_or_else(|_| usage());
                if devices == 0 {
                    eprintln!("--devices must be at least 1");
                    usage()
                }
            }
            "--system" => {
                system = match value().as_str() {
                    "ianus" => SystemConfig::ianus(),
                    "npu-mem" => SystemConfig::npu_mem(),
                    "partitioned" => SystemConfig::partitioned(),
                    _ => usage(),
                }
            }
            "--fc" => {
                pas.fc = match value().as_str() {
                    "adaptive" => FcMapping::Adaptive,
                    "mu" => FcMapping::MatrixUnit,
                    "pim" => FcMapping::Pim,
                    _ => usage(),
                }
            }
            "--attn" => {
                pas.attention = match value().as_str() {
                    "mu" => AttnMapping::MatrixUnit,
                    "pim" => AttnMapping::Pim,
                    _ => usage(),
                }
            }
            "--schedule" => {
                pas.schedule = match value().as_str() {
                    "overlap" => Schedule::Overlapped,
                    "naive" => Schedule::Naive,
                    _ => usage(),
                }
            }
            "--compare" => compare = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if serve {
        if let Err(e) = check_serve_values(rate, replicas, max_batch) {
            eprintln!("{e}");
            usage()
        }
    }
    if let Err(e) = check_request(&model, input, output, serve.then_some(mix)) {
        eprintln!("{e}");
        usage()
    }
    let slo = (slo_ttft_ms > 0 || slo_itl_ms > 0).then(|| {
        // An unset half defaults to a day-long target no completed
        // request misses (effectively "only the other half is scored").
        Slo::new(
            if slo_ttft_ms > 0 {
                Duration::from_ms(slo_ttft_ms)
            } else {
                Duration::from_secs_f64(86_400.0)
            },
            if slo_itl_ms > 0 {
                Duration::from_ms(slo_itl_ms)
            } else {
                Duration::from_secs_f64(86_400.0)
            },
        )
    });
    Args {
        model,
        request: RequestShape::new(input, output),
        system: system.with_pas(pas).with_devices(devices),
        compare,
        serve: serve.then_some(ServeArgs {
            replicas,
            rate,
            requests,
            mix,
            scheduling: if iteration {
                Scheduling::IterationLevel {
                    max_batch,
                    prefill_chunk: (prefill_chunk > 0).then_some(prefill_chunk),
                    preempt,
                }
            } else {
                Scheduling::RequestLevel
            },
            max_batch,
            prefill_chunk: (prefill_chunk > 0).then_some(prefill_chunk),
            policy: PolicyNames {
                admission,
                eviction,
                readmission,
                mechanism,
            },
            slo,
            compare_policies,
            host_kv,
            overlap_dma,
            kv_block,
            disaggregate,
            prefill_system,
            migration,
            arrivals,
            burst_factor,
            tenants,
        }),
    }
}

/// Serving values the engine would reject mid-run (with a panic) or,
/// for `--replicas`, silently raise to 1: checked once parsing is done,
/// so the CLI answers with one line and its usage instead.
fn check_serve_values(rate: f64, replicas: usize, max_batch: u32) -> Result<(), &'static str> {
    if !(rate > 0.0 && rate.is_finite()) {
        Err("--rate must be a positive number")
    } else if replicas == 0 {
        Err("--replicas must be at least 1")
    } else if max_batch == 0 {
        Err("--max-batch must be at least 1")
    } else {
        Ok(())
    }
}

/// Request values the simulator would reject mid-run (with a panic):
/// checked once parsing is done, so the CLI answers with one line and its
/// usage instead. `mix` is the serving mix when serving: only the custom
/// mix serves the `--input`/`--output` shape, and every other mix
/// generates tokens.
fn check_request(
    model: &ModelConfig,
    input: u64,
    output: u64,
    mix: Option<MixKind>,
) -> Result<(), String> {
    if input == 0 || output == 0 {
        return Err("--input and --output must be at least 1".to_owned());
    }
    let generates = match mix {
        None | Some(MixKind::Custom) => output > 1,
        Some(_) => true,
    };
    if model.family == ModelFamily::Bert && generates {
        let fix = match mix {
            None => "--output 1",
            Some(_) => "--mix custom --output 1",
        };
        return Err(format!(
            "{} is encoder-only and has no generation stage: run it with {fix}",
            model.name
        ));
    }
    Ok(())
}

/// The configured mix, with any `--slo-*` target attached to its
/// interactive-tier classes (batch-tier classes carry no target).
fn serving_config(serve: &ServeArgs, shape: RequestShape) -> ServingConfig {
    let mut cfg = match serve.mix {
        MixKind::Interactive => ServingConfig::interactive(serve.rate, serve.requests),
        MixKind::DecodeHeavy => ServingConfig::decode_heavy(serve.rate, serve.requests),
        MixKind::LongPrompt => ServingConfig::long_prompt(serve.rate, serve.requests),
        MixKind::SharedPrefix => ServingConfig::shared_prefix(serve.rate, serve.requests),
        MixKind::AgentChain => ServingConfig::workflow_mix(
            serve.rate,
            serve.requests,
            vec![WorkflowTemplate::agent_chain()],
        ),
        MixKind::ToolFanout => ServingConfig::workflow_mix(
            serve.rate,
            serve.requests,
            vec![WorkflowTemplate::tool_fanout()],
        ),
        MixKind::Speculative => ServingConfig::workflow_mix(
            serve.rate,
            serve.requests,
            vec![WorkflowTemplate::speculative()],
        ),
        MixKind::Custom => ServingConfig {
            arrival_rate_hz: serve.rate,
            requests: serve.requests,
            seed: 0x5EED,
            mix: vec![
                RequestClass::new(shape, 0.5),
                RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
            ],
            workflows: vec![],
            arrivals: Default::default(),
        },
    };
    if let Some(slo) = serve.slo {
        for class in &mut cfg.mix {
            if class.priority == Priority::Interactive {
                *class = class.with_slo(slo);
            }
        }
    }
    cfg.arrivals(match serve.arrivals {
        "poisson" => ArrivalSpec::Poisson,
        "diurnal" => {
            // Amplitude so the peak-to-trough rate ratio equals the
            // burst factor: (1+a)/(1-a) = F. Period scales with the
            // rate so a run of a few hundred requests sees whole
            // cycles at any --rate.
            let amplitude = (serve.burst_factor - 1.0) / (serve.burst_factor + 1.0);
            ArrivalSpec::diurnal(amplitude, 200.0 / serve.rate)
        }
        // Symmetric phases, each ~30 mean interarrivals long: bursts
        // are long enough to pile up a queue, short enough that a run
        // alternates phases many times.
        "mmpp" => ArrivalSpec::mmpp(serve.burst_factor, 30.0 / serve.rate, 30.0 / serve.rate),
        "multi-tenant" => ArrivalSpec::multi_tenant(serve.tenants),
        _ => unreachable!("interned arrivals name"),
    })
}

fn build_cluster(args: &Args, serve: &ServeArgs, scheduling: Scheduling) -> ServingSim {
    let mut sim = ServingSim::new(serving_config(serve, args.request))
        .scheduling(scheduling)
        .policy(serve.policy.bundle())
        .overlap_dma(serve.overlap_dma)
        .kv_block(serve.kv_block);
    if let Some(pool) = serve.host_kv {
        sim = sim.host_kv_pool(pool);
    }
    if let Some((prefill, decode)) = serve.disaggregate {
        for _ in 0..prefill {
            sim = match serve.prefill_system {
                None => {
                    sim.replica_with_role(IanusSystem::new(args.system), ReplicaRole::PrefillOnly)
                }
                Some("a100") => sim.replica_with_role(GpuModel::a100(), ReplicaRole::PrefillOnly),
                Some("dfx") => {
                    sim.replica_with_role(DfxModel::four_fpga(), ReplicaRole::PrefillOnly)
                }
                Some(name) => {
                    let system = match name {
                        "ianus" => SystemConfig::ianus(),
                        "npu-mem" => SystemConfig::npu_mem(),
                        "partitioned" => SystemConfig::partitioned(),
                        _ => unreachable!("interned prefill-system name"),
                    };
                    sim.replica_with_role(IanusSystem::new(system), ReplicaRole::PrefillOnly)
                }
            };
        }
        for _ in 0..decode {
            sim = sim.replica_with_role(IanusSystem::new(args.system), ReplicaRole::DecodeOnly);
        }
        sim = match serve.migration {
            "least-loaded" => sim.migration(LeastLoadedMigration),
            "freest-kv" => sim.migration(FreestKvMigration),
            _ => unreachable!("interned migration name"),
        };
    } else {
        for _ in 0..serve.replicas {
            sim = sim.replica_with_role(IanusSystem::new(args.system), ReplicaRole::Unified);
        }
    }
    sim
}

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
        "{:<22} TTFT p50/p99/max {:>6.0}/{:>6.0}/{:>6.0} ms | ITL p50/p99/max {:>6.2}/{:>6.2}/{:>6.2} ms",
        "",
        r.ttft.p50.as_ms_f64(),
        r.ttft.p99.as_ms_f64(),
        r.ttft.max.as_ms_f64(),
        r.inter_token.p50.as_ms_f64(),
        r.inter_token.p99.as_ms_f64(),
        r.inter_token.max.as_ms_f64(),
    );
    println!(
        "{:<22} peak batch {} | KV {:>4.1}% | {}",
        "",
        r.peak_batch,
        r.peak_kv_occupancy * 100.0,
        if r.stable() { "stable" } else { "UNSTABLE" },
    );
    if slo {
        println!(
            "{:<22} SLO attainment {:>5.1}% | goodput {:>6.1} req/s (of {:>6.1})",
            "",
            r.slo_attainment * 100.0,
            r.goodput_rps,
            r.throughput_rps,
        );
    }
    if r.prefix_cache_hits > 0 || r.fragmentation > 0.0 {
        println!(
            "{:<22} prefix cache {} hit(s) | shared {:>4.1}% of prompt tokens | fragmentation {:>4.1}%",
            "",
            r.prefix_cache_hits,
            r.prefix_share_ratio * 100.0,
            r.fragmentation * 100.0,
        );
        println!(
            "{:<22} TTFT p50 cache-hit {:>6.0} ms vs cold {:>6.0} ms",
            "",
            r.ttft_cache_hit.p50.as_ms_f64(),
            r.ttft_cold.p50.as_ms_f64(),
        );
    }
    if r.migrations > 0 {
        println!(
            "{:<22} {} prefill->decode migration(s) | migration stall {:.2} s",
            "",
            r.migrations,
            r.migration_stall.as_secs_f64(),
        );
        for p in &r.per_replica {
            println!(
                "{:<22}   {:<16} {:<8} completed {:>6} | in/out {:>5}/{:>5} | util {:>5.1}%",
                "",
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
            "{:<22} burst windows: ITL p50/p99 {:>6.2}/{:>6.2} ms (vs {:>6.2}/{:>6.2} steady) | SLO attain {:>5.1}%",
            "",
            r.burst_inter_token.p50.as_ms_f64(),
            r.burst_inter_token.p99.as_ms_f64(),
            r.inter_token.p50.as_ms_f64(),
            r.inter_token.p99.as_ms_f64(),
            r.burst_slo_attainment * 100.0,
        );
    }
    if r.per_tenant.len() > 1 {
        println!(
            "{:<22} tenant fairness (max/min goodput) {:.3}",
            "", r.tenant_fairness,
        );
        for t in &r.per_tenant {
            println!(
                "{:<22}   tenant {} completed {:>6} | sojourn p50/p99 {:>8.0}/{:>8.0} ms | goodput {:>6.2} req/s | SLO {:>5.1}%",
                "",
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
            "{:<22} workflows {} completed | latency p50/p99/max {:>7.0}/{:>7.0}/{:>7.0} ms | deadline attain {:>5.1}%",
            "",
            r.completed_workflows,
            r.workflow_latency.p50.as_ms_f64(),
            r.workflow_latency.p99.as_ms_f64(),
            r.workflow_latency.max.as_ms_f64(),
            r.workflow_slo_attainment * 100.0,
        );
        println!(
            "{:<22} cancelled nodes {} | inherited prefix {:>4.1}% of child prompt tokens",
            "",
            r.cancelled_nodes,
            r.inherited_prefix_ratio * 100.0,
        );
    }
    if r.preemptions > 0 {
        println!(
            "{:<22} preempted {} request(s) {} time(s) (max {} per request; {} by recompute)",
            "", r.preempted_requests, r.preemptions, r.max_preemptions, r.recomputes,
        );
        println!(
            "{:<22} swap DMA {:.2} s ({:.2} s stalled compute) | host pool peak {} MiB{}",
            "",
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
    match scheduling {
        Scheduling::RequestLevel => "request-level".to_string(),
        Scheduling::IterationLevel {
            max_batch,
            prefill_chunk,
            preempt,
        } => {
            let chunk = match prefill_chunk {
                Some(c) => format!(", chunk {c}"),
                None => String::new(),
            };
            let pre = if preempt { ", preempt" } else { "" };
            format!("iteration (batch {max_batch}{chunk}{pre})")
        }
    }
}

/// `--compare-policies`: the configured scenario (iteration-level with
/// preemption forced on — eviction never fires without it) replayed
/// under all three eviction policies on one warm engine.
fn compare_policies_main(args: &Args, serve: &ServeArgs) {
    if serve.scheduling == Scheduling::RequestLevel {
        println!("(--compare-policies forces iteration-level scheduling with --preempt)\n");
    }
    // Either way the sweep honors the configured --max-batch and
    // --prefill-chunk; only preempt is forced (eviction never fires
    // without it).
    let scheduling = Scheduling::IterationLevel {
        max_batch: serve.max_batch,
        prefill_chunk: serve.prefill_chunk,
        preempt: true,
    };
    let mut sim = build_cluster(args, serve, scheduling);
    if let Err((i, e)) = sim.fits(&args.model) {
        eprintln!("model does not fit replica {i}: {e}");
        std::process::exit(1);
    }
    println!(
        "eviction-policy sweep under {} ({} admission, {} readmission, {} mechanism):",
        scheduling_label(scheduling),
        serve.policy.admission,
        serve.policy.readmission,
        serve.policy.mechanism,
    );
    let scored = serve.slo.is_some();
    if scored {
        println!(
            "  {:<18} {:>11} {:>10} {:>12} {:>12} {:>11} {:>11}",
            "eviction",
            "preemptions",
            "recomputes",
            "itl p99 ms",
            "itl max ms",
            "slo attain",
            "goodput r/s"
        );
    } else {
        println!(
            "  {:<18} {:>11} {:>10} {:>12} {:>12}   (pass --slo-ttft-ms/--slo-itl-ms to score)",
            "eviction", "preemptions", "recomputes", "itl p99 ms", "itl max ms"
        );
    }
    let mut best: Option<(&'static str, f64)> = None;
    for eviction in EVICTIONS {
        sim = sim.policy(bundle_of(
            serve.policy.admission,
            eviction,
            serve.policy.readmission,
            serve.policy.mechanism,
        ));
        let r = sim.run(&args.model);
        if scored {
            println!(
                "  {:<18} {:>11} {:>10} {:>12.1} {:>12.1} {:>10.1}% {:>11.2}",
                eviction,
                r.preemptions,
                r.recomputes,
                r.inter_token.p99.as_ms_f64(),
                r.inter_token.max.as_ms_f64(),
                r.slo_attainment * 100.0,
                r.goodput_rps,
            );
            if best.is_none_or(|(_, b)| r.slo_attainment > b) {
                best = Some((eviction, r.slo_attainment));
            }
        } else {
            println!(
                "  {:<18} {:>11} {:>10} {:>12.1} {:>12.1}",
                eviction,
                r.preemptions,
                r.recomputes,
                r.inter_token.p99.as_ms_f64(),
                r.inter_token.max.as_ms_f64(),
            );
        }
    }
    if let Some((winner, att)) = best {
        println!(
            "\n{winner} minimizes SLO violations ({:.1}% of requests within SLO).",
            att * 100.0
        );
    }
}

fn serve_main(args: &Args, serve: &ServeArgs) {
    let mix_name = match serve.mix {
        MixKind::Interactive => "interactive",
        MixKind::DecodeHeavy => "decode-heavy",
        MixKind::LongPrompt => "long-prompt",
        MixKind::SharedPrefix => "shared-prefix (384-token class prefix)",
        MixKind::AgentChain => "agent-chain workflow (4-node chain)",
        MixKind::ToolFanout => "tool-fanout workflow (plan, 4 tools, join)",
        MixKind::Speculative => "speculative workflow (racing branches)",
        MixKind::Custom => "custom (50/50 interactive/batch tiers)",
    };
    let cluster_label = match serve.disaggregate {
        Some((p, d)) => format!(
            "{p} prefill ({}) + {d} decode, {} migration",
            serve.prefill_system.unwrap_or("same system"),
            serve.migration,
        ),
        None => format!("{} replica(s)", serve.replicas),
    };
    println!(
        "serving {} | {mix_name} mix | {cluster_label} x {} device(s) | {} req at {} req/s\n",
        args.model.name, args.system.devices, serve.requests, serve.rate
    );
    if serve.compare_policies {
        compare_policies_main(args, serve);
        return;
    }
    let modes: Vec<Scheduling> = if serve.disaggregate.is_some() || serve.mix.is_workflow() {
        // Role dispatch and the workflow DAG layer live in the
        // iteration-level loop; coerce and say so rather than assert
        // deep in the engine.
        match serve.scheduling {
            it @ Scheduling::IterationLevel { .. } => vec![it],
            Scheduling::RequestLevel => {
                if serve.disaggregate.is_some() {
                    println!("(--disaggregate forces iteration-level scheduling)\n");
                } else {
                    println!("(workflow mixes force iteration-level scheduling)\n");
                }
                vec![Scheduling::IterationLevel {
                    max_batch: serve.max_batch,
                    prefill_chunk: serve.prefill_chunk,
                    preempt: false,
                }]
            }
        }
    } else if args.compare {
        // --compare contrasts request-level with the *configured*
        // iteration-level form (keeping any chunking/preemption knobs).
        let iteration = match serve.scheduling {
            it @ Scheduling::IterationLevel { .. } => it,
            Scheduling::RequestLevel => Scheduling::iteration(8),
        };
        vec![Scheduling::RequestLevel, iteration]
    } else {
        vec![serve.scheduling]
    };
    // One engine across all modes: switching with `scheduling`
    // keeps the warm service/prefill/decode memos, so the second mode
    // and the sustainable-rate searches are queueing-only passes.
    let mut sim = build_cluster(args, serve, modes[0]);
    if let Err((i, e)) = sim.fits(&args.model) {
        eprintln!("model does not fit replica {i}: {e}");
        std::process::exit(1);
    }
    for scheduling in modes {
        sim = sim.scheduling(scheduling);
        let report = sim.run(&args.model);
        print_serving_report(&scheduling_label(scheduling), &report, serve.slo.is_some());
        if args.compare {
            let sustainable = sim.sustainable_rate(&args.model, 0.1, 512.0);
            println!("{:<22} sustainable rate {sustainable:.1} req/s\n", "");
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

fn main() {
    let args = parse();
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
    match ianus::system::capacity::check_request(&args.system, &args.model, args.request) {
        Ok(cap) => println!(
            "memory: {:.1}% of {} GiB per device (weights {} MiB, KV {} MiB)\n",
            cap.occupancy() * 100.0,
            cap.available_bytes >> 30,
            cap.weight_bytes >> 20,
            cap.kv_bytes >> 20,
        ),
        Err(e) => {
            eprintln!("request does not fit: {e}");
            eprintln!("hint: add devices with --devices");
            std::process::exit(1);
        }
    }
    let mut sys = IanusSystem::new(args.system);
    let report = sys.run_request(&args.model, args.request);
    print_report("simulated", &report);
    if let Some(t) = report.per_token_latency() {
        println!("{:<12} {:.3} ms per generated token", "", t.as_ms_f64());
    }
    println!(
        "{:<12} dynamic energy {:.2} mJ",
        "",
        report.energy.total_pj() / 1e9
    );
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

    /// Every advertised name resolves to itself; `resolve` is the
    /// single gate between flag values and the policy/mix matches, so
    /// this pins the tables and those matches in sync (an accepted name
    /// that later hit an `unreachable!` would be a parser bug).
    #[test]
    fn known_names_resolve_and_build() {
        for a in ADMISSIONS {
            let _ = bundle_of(
                resolve(a, &ADMISSIONS).expect("admission"),
                resolve(EVICTIONS[0], &EVICTIONS).expect("eviction"),
                resolve(READMISSIONS[0], &READMISSIONS).expect("readmission"),
                resolve(MECHANISMS[0], &MECHANISMS).expect("mechanism"),
            );
        }
        for e in EVICTIONS {
            let _ = bundle_of("fcfs", e, "fifo", "swap");
        }
        for name in MIXES {
            assert_eq!(resolve(name, &MIXES), Some(name));
            assert!(MixKind::by_name(name).is_some(), "MIXES entry {name:?}");
        }
    }

    /// Unknown values never resolve — the parse loop then reports the
    /// flag's valid options instead of silently defaulting.
    #[test]
    fn unknown_names_are_rejected() {
        assert_eq!(resolve("fifo-lifo", &ADMISSIONS), None);
        assert_eq!(resolve("widest", &ADMISSIONS), None);
        assert_eq!(resolve("biggest-kv", &EVICTIONS), None);
        assert_eq!(resolve("agentchain", &MIXES), None);
        assert_eq!(resolve("", &MIXES), None);
        assert!(MixKind::by_name("agent_chain").is_none());
    }

    /// Rates, replica counts and batch caps the engine cannot run are
    /// rejected before any engine is built.
    #[test]
    fn bad_serving_values_are_rejected() {
        assert_eq!(check_serve_values(4.0, 1, 8), Ok(()));
        assert_eq!(check_serve_values(0.3, 6, 1), Ok(()));
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                check_serve_values(rate, 1, 8),
                Err("--rate must be a positive number"),
                "rate {rate}"
            );
        }
        assert_eq!(
            check_serve_values(4.0, 0, 8),
            Err("--replicas must be at least 1")
        );
        assert_eq!(
            check_serve_values(4.0, 1, 0),
            Err("--max-batch must be at least 1")
        );
    }

    /// Degenerate shapes, and generation on an encoder-only model, are
    /// rejected before any system is built.
    #[test]
    fn bad_requests_are_rejected() {
        let (gpt, bert) = (ModelConfig::gpt2_m(), ModelConfig::bert_l());
        let degenerate = Err("--input and --output must be at least 1".to_owned());
        assert_eq!(check_request(&gpt, 0, 8, None), degenerate);
        assert_eq!(check_request(&gpt, 128, 0, None), degenerate);
        assert_eq!(
            check_request(&gpt, 0, 8, Some(MixKind::Interactive)),
            degenerate
        );
        assert_eq!(check_request(&gpt, 128, 64, None), Ok(()));
        assert_eq!(check_request(&bert, 128, 1, None), Ok(()));
        assert_eq!(check_request(&bert, 128, 1, Some(MixKind::Custom)), Ok(()));
        let encoder_only = |fix: &str| {
            Err(format!(
                "BERT-L is encoder-only and has no generation stage: run it with {fix}"
            ))
        };
        assert_eq!(
            check_request(&bert, 128, 64, None),
            encoder_only("--output 1")
        );
        for mix in [MixKind::Custom, MixKind::Interactive] {
            assert_eq!(
                check_request(&bert, 128, 64, Some(mix)),
                encoder_only("--mix custom --output 1")
            );
        }
        assert_eq!(
            check_request(&bert, 128, 1, Some(MixKind::Interactive)),
            encoder_only("--mix custom --output 1")
        );
    }

    /// The workflow mixes build validated workflow configs (DAG
    /// preflight runs at construction) that drive the engine's
    /// workflow layer, and the flat mixes keep `workflows` empty.
    #[test]
    fn workflow_mixes_build_workflow_configs() {
        for (name, nodes) in [("agent-chain", 4), ("tool-fanout", 6), ("speculative", 5)] {
            let mix = MixKind::by_name(name).expect("workflow mix name");
            assert!(mix.is_workflow());
            let serve = test_serve_args(mix);
            let cfg = serving_config(&serve, RequestShape::new(128, 64));
            assert!(cfg.mix.is_empty());
            assert_eq!(cfg.workflows.len(), 1);
            assert_eq!(cfg.workflows[0].node_count(), nodes);
        }
        let flat = serving_config(
            &test_serve_args(MixKind::Interactive),
            RequestShape::new(128, 64),
        );
        assert!(flat.workflows.is_empty());
        assert!(!flat.mix.is_empty());
    }

    fn test_serve_args(mix: MixKind) -> ServeArgs {
        ServeArgs {
            replicas: 1,
            rate: 4.0,
            requests: 10,
            mix,
            scheduling: Scheduling::iteration(8),
            max_batch: 8,
            prefill_chunk: None,
            policy: PolicyNames {
                admission: "fcfs",
                eviction: "lowest-priority",
                readmission: "fifo",
                mechanism: "swap",
            },
            slo: None,
            compare_policies: false,
            host_kv: None,
            overlap_dma: false,
            kv_block: 0,
            disaggregate: None,
            prefill_system: None,
            migration: "least-loaded",
            arrivals: "poisson",
            burst_factor: 4.0,
            tenants: 2,
        }
    }
}
