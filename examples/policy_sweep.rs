//! Eviction-policy sweep under KV pressure and a **finite host pool**:
//! the PR 3 preemption scenario — GPT-2 XL (512,512) drafts
//! overcommitting one 8 GB IANUS device — replayed under every built-in
//! [`EvictionPolicy`], with an SLO on the interactive tier so the
//! policies can be *scored*, and host DRAM capped at 1 GiB so swap
//! space is a real resource: swap-outs that would overflow the pool
//! fall back to recompute-based eviction (drop the KV, re-prefill on
//! re-admission).
//!
//! ```text
//! cargo run --release --example policy_sweep [-- --smoke] [-- --bench-json PATH]
//! ```
//!
//! (`--smoke` runs a reduced request count for CI; `--bench-json PATH`
//! additionally writes the sweep's metrics as a machine-readable JSON
//! document — CI archives it as `BENCH_serving.json` so serving-layer
//! regressions show up as artifact diffs.)
//!
//! The scenario: a 50/50 mix of interactive and batch-tier (512,512)
//! drafts at 4 req/s (heavy overload — the device sustains ~0.4), max
//! batch 32, 128-token prefill chunks, preemptive admission. Every
//! sequence's KV grows to ~300 MB, so the optimistically admitted batch
//! outgrows device memory and the scheduler must pick victims — and
//! with only ~3 sequences' worth of host swap space, *how* each victim
//! leaves matters as much as who is picked:
//!
//! * `lowest-priority-youngest` (default) — tier-targeted: the batch
//!   tier absorbs essentially every eviction.
//! * `largest-kv` — frees the most memory per pressure event, but its
//!   big victims rarely fit the pool: nearly every eviction degrades
//!   to a recompute. Thin resident batches keep serialized decode
//!   iterations short, which is what the per-request ITL SLO scores —
//!   the best attainment here.
//! * `least-progress` — loses the least completed work per eviction.
//! * `cheapest` — cost-per-freed-token victims (transfer both ways vs
//!   re-prefill, pool-aware).
//!
//! The closing section changes the regime: on a host link throttled to
//! 4 GB/s, pure largest-KV pays tens of seconds of serialized swap
//! stall while the cost-aware bundle (`cheapest` victims + `cheapest`
//! mechanism) notices recompute is cheaper, avoids the link entirely,
//! and wins on **goodput** — the ROADMAP's cost-aware-victim trade
//! made measurable.
//!
//! All policies preserve the liveness contract (every preempted
//! sequence completes; the host pool never overflows) — enforced by
//! the engine and regression-tested in `tests/{policy_api,host_pool}.rs`.

use ianus::prelude::*;
mod common;

/// The PR 3 preemption scenario plus a TTFT/ITL SLO on the interactive
/// class.
fn scenario(requests: u64) -> ServingConfig {
    let shape = RequestShape::new(512, 512);
    let slo = Slo::new(
        Duration::from_secs_f64(60.0), // TTFT: queue + chunked prefill
        Duration::from_ms(150),        // ITL p99: decode + swap dwells
    );
    ServingConfig {
        arrival_rate_hz: 4.0,
        requests,
        seed: 0x5EED,
        mix: vec![
            RequestClass::new(shape, 0.5).with_slo(slo),
            RequestClass::new(shape, 0.5).with_priority(Priority::Batch),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    }
}

/// One sweep row as a JSON object (no serde in-tree; the report is flat
/// enough to format by hand). `wall_s` is the engine's wall-clock for
/// the run — machine-dependent by nature, so the canonical compare
/// (`benches/compare_canonical_results.sh`) strips it; the archived
/// trajectory keeps it.
fn bench_row(label: &str, r: &ServingReport, wall_s: f64) -> String {
    format!(
        "    {{\"policy\": {label:?}, \"preemptions\": {}, \"recomputes\": {}, \
         \"host_kv_peak_occupancy\": {:.6}, \"ttft_p99_ms\": {:.3}, \"itl_p99_ms\": {:.3}, \
         \"kv_dma_s\": {:.6}, \"swap_stall_s\": {:.6}, \"slo_attainment\": {:.6}, \
         \"goodput_rps\": {:.6},\n     \"wall_s\": {wall_s:.6}}}",
        r.preemptions,
        r.recomputes,
        r.host_kv_peak_occupancy,
        r.ttft.p99.as_ms_f64(),
        r.inter_token.p99.as_ms_f64(),
        r.kv_dma.as_secs_f64(),
        r.swap_stall.as_secs_f64(),
        r.slo_attainment,
        r.goodput_rps,
    )
}

fn main() {
    let (smoke, bench_json) = common::bench_args();
    let requests = if smoke { 40 } else { 120 };
    let model = ModelConfig::gpt2_xl();
    println!(
        "eviction-policy sweep: {} (512,512) drafts, 50% interactive (SLO: TTFT 60 s, \
         ITL p99 150 ms) + 50% batch tier,",
        model.name
    );
    println!(
        "one IANUS device, 4 req/s x {requests} requests, iteration-level (max batch 32, \
         chunk 128, preempt),"
    );
    println!("FCFS admission, FIFO re-admission, 1 GiB host KV pool (swap mechanism)\n");
    println!(
        "{:<26} {:>7} {:>10} {:>9} {:>11} {:>10} {:>9} {:>8}",
        "eviction policy",
        "evicts",
        "recomputes",
        "host occ",
        "itl p99 ms",
        "dma/stall",
        "SLO att.",
        "goodput"
    );

    // One engine for the whole sweep: the policy does not change device
    // costs, so after the first run every probe is queueing-only.
    let mut sim = ServingSim::new(scenario(requests))
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: Some(128),
            preempt: true,
        })
        .host_kv_pool(Some(1 << 30));

    let mut best: Option<(String, f64)> = None;
    let mut rows = Vec::new();
    for policy in EvictionPolicy::ALL {
        sim = sim.policy(SchedulerPolicy::default().with_eviction(policy));
        let eviction = policy.name();
        let (r, wall_s) = common::timed(|| sim.run(&model));
        rows.push(bench_row(eviction, &r, wall_s));
        assert_eq!(r.completed, requests, "liveness: every request completes");
        assert!(
            r.host_kv_peak_occupancy <= 1.0,
            "the host pool is a hard bound"
        );
        assert!(r.recomputes > 0, "a 1 GiB pool must force recomputes");
        println!(
            "{:<26} {:>7} {:>10} {:>8.0}% {:>11.1} {:>4.1}/{:<4.1} {:>8.1}% {:>8.2}",
            eviction,
            r.preemptions,
            r.recomputes,
            r.host_kv_peak_occupancy * 100.0,
            r.inter_token.p99.as_ms_f64(),
            r.kv_dma.as_secs_f64(),
            r.swap_stall.as_secs_f64(),
            r.slo_attainment * 100.0,
            r.goodput_rps,
        );
        let att = r.slo_attainment;
        if best.as_ref().is_none_or(|(_, b)| att > *b) {
            best = Some((eviction.to_string(), att));
        }
    }

    let (winner, att) = best.expect("four policies ran");
    println!(
        "\n{winner} maximizes SLO attainment ({:.1}% within SLO) under the finite pool.",
        att * 100.0
    );
    println!(
        "With ~3 sequences of swap space, largest-kv's big victims overflow the pool and \
         degrade to\nrecomputes — yet freeing the most KV per eviction still keeps resident \
         batches thin and\nserialized decode iterations short, which is what the per-request \
         ITL SLO actually scores."
    );

    // Overlapped DMA on the same finite-pool scenario: the transfers
    // that do happen hide behind decode instead of stalling the batch.
    sim = sim.policy(SchedulerPolicy::default());
    let serial = sim.run(&model);
    sim = sim.overlap_dma(true);
    let overlapped = sim.run(&model);
    println!(
        "\noverlapped DMA (default policy): swap stall {:.2} s -> {:.2} s of {:.2} s DMA",
        serial.swap_stall.as_secs_f64(),
        overlapped.swap_stall.as_secs_f64(),
        overlapped.kv_dma.as_secs_f64(),
    );
    assert!(overlapped.swap_stall <= serial.swap_stall);

    // The cost-aware headline: throttle the host link to 4 GB/s and
    // give it back a roomy pool. Pure largest-KV now pays the biggest
    // possible transfers over the bottleneck link; the cost-aware
    // bundle recomputes instead and wins on goodput.
    println!("\n--- host link throttled to 4 GB/s (32 GiB pool) ---");
    let mut slow = SystemConfig::ianus();
    slow.pcie_gbps = 4.0;
    let mut sim = ServingSim::new(scenario(requests))
        .replica(IanusSystem::new(slow))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 32,
            prefill_chunk: Some(128),
            preempt: true,
        });
    println!(
        "{:<34} {:>7} {:>10} {:>11} {:>9} {:>8}",
        "bundle", "evicts", "recomputes", "stall s", "SLO att.", "goodput"
    );
    let mut goodput = Vec::new();
    for (label, policy) in [
        (
            "largest-kv + swap",
            SchedulerPolicy::default().with_eviction(EvictionPolicy::LargestKv),
        ),
        (
            "cheapest + cheapest (cost-aware)",
            SchedulerPolicy::default()
                .with_eviction(EvictionPolicy::Cheapest)
                .with_mechanism(EvictionMechanism::Cheapest),
        ),
    ] {
        sim = sim.policy(policy);
        let (r, wall_s) = common::timed(|| sim.run(&model));
        rows.push(bench_row(&format!("slow-link/{label}"), &r, wall_s));
        assert_eq!(r.completed, requests);
        println!(
            "{:<34} {:>7} {:>10} {:>11.2} {:>8.1}% {:>8.2}",
            label,
            r.preemptions,
            r.recomputes,
            r.swap_stall.as_secs_f64(),
            r.slo_attainment * 100.0,
            r.goodput_rps,
        );
        goodput.push(r.goodput_rps);
    }
    assert!(
        goodput[1] > goodput[0],
        "cost-aware eviction must beat pure largest-KV on the slow link"
    );
    println!(
        "\nWhen the host link is the bottleneck, weighing kv_transfer both ways against \
         recompute is\nworth {:.0}% goodput over pure largest-KV — victim *cost* is a real \
         policy axis, not a tie.",
        (goodput[1] / goodput[0] - 1.0) * 100.0
    );

    // Parallel rate sweep over the cost-aware bundle: one probe per
    // rate on `std::thread::scope` threads (cloned engines), results in
    // rate order — the same reports a serial loop would produce, in a
    // fraction of the wall-clock.
    let sweep: Vec<f64> = [0.25, 0.5, 1.0, 2.0].to_vec();
    let (reports, sweep_wall) = common::timed(|| sim.sweep_rates(&model, &sweep));
    println!(
        "\n--- rate sweep (cost-aware bundle, {} parallel probes) ---",
        sweep.len()
    );
    println!(
        "{:>10} {:>10} {:>9} {:>8}",
        "req/s", "goodput", "SLO att.", "stable"
    );
    for (rate, r) in sweep.iter().zip(&reports) {
        assert_eq!(r.completed, requests, "probes run the full horizon");
        println!(
            "{:>10.2} {:>10.2} {:>8.1}% {:>8}",
            rate,
            r.goodput_rps,
            r.slo_attainment * 100.0,
            r.stable(),
        );
        rows.push(bench_row(
            &format!("rate-sweep/{rate}"),
            r,
            sweep_wall / sweep.len() as f64,
        ));
    }

    if let Some(path) = bench_json {
        let fields = [
            ("benchmark", "\"policy_sweep\"".into()),
            ("model", format!("{:?}", model.name)),
            ("arrival_rate_hz", "4.0".into()),
            ("requests", requests.to_string()),
            ("smoke", smoke.to_string()),
        ];
        common::write_bench_json(&path, &fields, Some(&rows));
        println!("\nwrote {} sweep rows to {path}", rows.len());
    }
}
