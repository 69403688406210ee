//! Host-time benchmark of the IANUS simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid|cluster_kv|engine_scale --seed N --seconds S --trace 0|1
//! ```
//!
//! One process, one thread, a closed loop of back-to-back passes. With
//! `--trace 0` it reports the end-to-end metrics of untraced passes: the
//! median time per set-up, the median cold pass (fresh systems and engine,
//! empty memos), and the process's peak resident memory. With `--trace 1`
//! it runs one untraced cold pass and untraced warm passes (the same pass
//! again on the same objects), then traced passes whose replicas sit
//! behind a counting and timing `Backend` decorator, replays every
//! distinct stage they priced through the device layers, and reports
//! per-layer metrics.
//!
//! Every pass is checked: it must complete every request, its reports
//! must match the first pass of the run bit for bit, and they must match
//! the fingerprint committed in `reference.txt` at seed 0, and at every
//! seed for a workload whose reports do not depend on the seed. The last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

mod trace;
mod workloads;

use ianus_core::SystemConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration as Wall, Instant};
use trace::{pim_probe, replay, DeviceLayers};
use workloads::{Outcome, PaperGrid, Serving, TracedPass, Workload};

/// Set-up is timed in `SETUP_ROUNDS` rounds of back-to-back builds, each
/// round at least `SETUP_SPAN` long, so that a build far shorter than the
/// timer's granularity still reads steadily.
const SETUP_ROUNDS: usize = 9;
const SETUP_SPAN: Wall = Wall::from_millis(30);

/// Warm passes run at least this long in total, and at least once, so
/// short warm passes are measured many times. `engine.warm_pass_s` is
/// their mean, what a sweep of many probes pays per probe. With every
/// stage price memoized, a warm pass is the engine and memo layers alone.
/// It is a per-layer metric, not an end-to-end one: on a shared host the
/// 15 ms `cluster_kv` warm pass slows about twice as much as the cold
/// pass in the host's slow phases, and its run-to-run spread (0.26–0.30
/// of its median over ten seeds) exceeds any bound a regression check can
/// hold.
const WARM_MIN: Wall = Wall::from_secs(3);

/// Reference fingerprints at seed 0 (at every seed where the workload's
/// reports do not depend on it), one `<workload> <hex>` per line.
const REFERENCE: &str = include_str!("../reference.txt");

const USAGE: &str = "usage: perfbench --workload paper_grid|cluster_kv|engine_scale \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {}", args.seconds));
        }
        Ok(args)
    }
}

/// Pins glibc malloc's mmap and trim thresholds at their initial 128 KiB.
/// By default glibc raises both as large blocks are freed, so what stays
/// resident depends on the run's history: the peak RSS of one
/// `engine_scale` seed read 32 MiB or 38.5 MiB from run to run. Pinned,
/// it repeats.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters, before any thread
    // is spawned.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
        mallopt(M_TRIM_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "paper_grid" => bench(&PaperGrid::new(seed), &args),
        "cluster_kv" => bench(&Serving::cluster_kv(), &args),
        "engine_scale" => bench(&Serving::engine_scale(seed), &args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The output check: counts passes and the ones that failed.
struct Check {
    reference: Option<u64>,
    first: Option<Outcome>,
    attempted: u64,
    failed: u64,
}

impl Check {
    fn new(workload: &str, reference_applies: bool) -> Check {
        let reference = reference_applies.then(|| {
            REFERENCE
                .lines()
                .filter_map(|l| l.split_once(' '))
                .find(|(name, _)| *name == workload)
                .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
                // A missing reference can never match: every pass fails.
                .unwrap_or(0)
        });
        Check {
            reference,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one pass, catching a panic; returns its result and wall
    /// seconds if it passed.
    fn run<T>(
        &mut self,
        pass: impl FnOnce() -> T,
        outcome: impl Fn(&T) -> Outcome,
    ) -> Option<(T, f64)> {
        self.attempted += 1;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(pass)).ok();
        let secs = t.elapsed().as_secs_f64();
        let ok = result.as_ref().map(outcome).is_some_and(|o| {
            let first = *self.first.get_or_insert(o);
            println!(
                "  pass {:>3}: {secs:.6} s, fingerprint {:016x}",
                self.attempted, o.fingerprint
            );
            o.completed == o.requests
                && o.fingerprint == first.fingerprint
                && self.reference.is_none_or(|r| r == o.fingerprint)
        });
        if !ok {
            self.failed += 1;
        }
        result.filter(|_| ok).map(|r| (r, secs))
    }

    fn fail_unless(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn bench<W: Workload>(w: &W, args: &Args) -> ExitCode {
    println!(
        "perfbench {} seed {} for {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let deadline = Wall::from_secs_f64(args.seconds);
    let mut check = Check::new(&args.workload, args.seed == 0 || !w.seeded());
    let (metrics, fig8) = if args.trace {
        traced(w, deadline, &mut check)
    } else {
        untraced(w, deadline, &mut check)
    };
    if let Some(err) = fig8 {
        println!("  fig8_err_pct = {err} %");
    }
    println!(
        "  error_rate = {} ({} failed / {} attempted passes)",
        check.failed as f64 / check.attempted as f64,
        check.failed,
        check.attempted
    );
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0,
        check.attempted,
        check.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Seconds per set-up (build and drop of the workload's configs, backends
/// and engine): the median over rounds of each round's time per build.
fn setup_s<W: Workload>(w: &W) -> f64 {
    let rounds = (0..SETUP_ROUNDS)
        .map(|_| {
            let (mut builds, t) = (0u32, Instant::now());
            while builds == 0 || t.elapsed() < SETUP_SPAN {
                drop(std::hint::black_box(w.build()));
                builds += 1;
            }
            t.elapsed().as_secs_f64() / f64::from(builds)
        })
        .collect();
    median(rounds)
}

/// End-to-end metrics from untraced passes: the set-up rounds, then
/// fresh set-ups each followed by one cold pass, until the deadline has
/// passed.
fn untraced<W: Workload>(w: &W, deadline: Wall, check: &mut Check) -> (Metrics, Option<f64>) {
    let setup = setup_s(w);
    let (mut cold, mut fig8) = (Vec::new(), None);
    let start = Instant::now();
    while check.attempted == 0 || start.elapsed() < deadline {
        let mut state = w.build();
        if let Some((o, secs)) = check.run(|| w.pass(&mut state), |o| *o) {
            cold.push(secs);
            fig8 = o.fig8_err_pct;
        }
    }
    let metrics = vec![
        ("setup_s", setup, "s"),
        ("cold_wall_s", median(cold), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    (metrics, fig8)
}

/// Per-layer metrics: one untraced cold pass as the bit-identity
/// baseline, untraced warm passes on its state, traced passes until the
/// deadline, then one replay of every distinct stage the first traced
/// pass priced, and the PIM GEMV probe.
fn traced<W: Workload>(w: &W, deadline: Wall, check: &mut Check) -> (Metrics, Option<f64>) {
    let mut state = w.build();
    let fig8 = check
        .run(|| w.pass(&mut state), |o| *o)
        .and_then(|(o, _)| o.fig8_err_pct);
    let mut warm = Vec::new();
    while warm.is_empty() || warm.iter().sum::<f64>() < WARM_MIN.as_secs_f64() {
        let Some((_, secs)) = check.run(|| w.pass(&mut state), |o| *o) else {
            break;
        };
        warm.push(secs);
    }
    drop(state);
    let start = Instant::now();
    let mut passes: Vec<TracedPass> = Vec::new();
    loop {
        passes.extend(check.run(|| w.traced_pass(), |p| p.outcome).map(|(p, _)| p));
        if start.elapsed() >= deadline {
            break;
        }
    }
    let Some(first) = passes.first() else {
        return (Vec::new(), fig8);
    };
    // Analytic replicas simulate no device: the device layers do no work.
    let cfg = SystemConfig::ianus();
    let models = w.models();
    let (layers, agrees) = if w.simulates_device() {
        replay(&cfg, &models, &first.log)
    } else {
        (DeviceLayers::default(), true)
    };
    // The replay must reproduce every stage price the decorators saw.
    check.fail_unless(agrees);
    let (b1, b128) = pim_probe(&cfg, &models);

    let log = &first.log;
    let o = first.outcome;
    let calls = log.priced;
    let unique = log.distinct.len() as u64;
    let med = |f: &dyn Fn(&TracedPass) -> Wall| {
        median(passes.iter().map(|p| f(p).as_secs_f64()).collect())
    };
    let self_s = med(&|p| p.wall.saturating_sub(p.log.busy()));
    let metrics = vec![
        ("pim.gemv_b1_ns", b1, "ns"),
        ("pim.gemv_b128_ns", b128, "ns"),
        (
            "compiler.prefill_s",
            layers.compile_prefill.as_secs_f64(),
            "s",
        ),
        (
            "compiler.decode_s",
            layers.compile_decode.as_secs_f64(),
            "s",
        ),
        ("compiler.stages", layers.stages as f64, "count"),
        ("npu.run_s", layers.npu_run.as_secs_f64(), "s"),
        ("npu.commands", layers.commands as f64, "count"),
        ("backend.calls", calls as f64, "count"),
        ("backend.unique", unique as f64, "count"),
        (
            "backend.useful_ratio",
            if calls == 0 {
                0.0
            } else {
                unique as f64 / calls as f64
            },
            "ratio",
        ),
        ("backend.busy_s", med(&|p| p.log.busy()), "s"),
        ("backend.prefill_s", med(&|p| p.log.prefill.busy), "s"),
        ("backend.decode_s", med(&|p| p.log.decode.busy), "s"),
        (
            "backend.kv_transfer_calls",
            log.kv_transfer.calls as f64,
            "count",
        ),
        ("engine.warm_pass_s", mean(&warm), "s"),
        ("engine.self_s", self_s, "s"),
        (
            "engine.self_us_per_req",
            self_s * 1e6 / o.requests as f64,
            "us",
        ),
        ("kv.preemptions", o.preemptions as f64, "count"),
        ("kv.recomputes", o.recomputes as f64, "count"),
        ("kv.prefix_hits", o.prefix_hits as f64, "count"),
    ];
    (metrics, fig8)
}
