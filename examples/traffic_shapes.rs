//! Traffic shapes beyond Poisson: the pluggable [`ArrivalSpec`] run
//! head-to-head at **equal mean rate** on one IANUS replica with
//! iteration-level batching. The long-run load is identical in every
//! row — what changes is *when* the requests land — and the report's
//! burst-window metrics make the difference measurable: during an MMPP
//! burst the decode batch fills up, IANUS's PIM decode serializes it,
//! and the burst-window ITL p99 degrades past the steady-state tail
//! while the Poisson control's burst columns stay empty by
//! construction.
//!
//! ```text
//! cargo run --release --example traffic_shapes [-- --smoke] [-- --bench-json PATH]
//! ```
//!
//! Three experiments, all asserted:
//!
//! * **Shape sweep** — Poisson, diurnal (sinusoidal rate modulation),
//!   and MMPP (two-state Markov-modulated bursts) at the same mean
//!   rate. The MMPP row's burst-window ITL p99 must be no better than
//!   its own all-window ITL p99 (bursts are where the tail lives), and
//!   its burst-window SLO attainment must not beat the all-window
//!   attainment.
//! * **Poisson control** — a plain Poisson run has no burst windows:
//!   `burst_inter_token` is exactly [`LatencyPercentiles::ZERO`] and
//!   `burst_slo_attainment` is exactly 1.0 (vacuous).
//! * **Symmetric multi-tenant** — K identical tenants merged at equal
//!   shares. Fairness (max/min per-tenant goodput) is ≥ 1 by
//!   definition and must stay near 1 for symmetric tenants; the
//!   per-tenant completion counts must sum to the run total.

use ianus::prelude::*;
mod common;

/// An interactive two-class mix carrying an ITL-p99 SLO, so burst
/// pressure shows up in attainment as well as in the latency tail.
fn scenario(requests: u64, rate: f64, spec: ArrivalSpec) -> ServingConfig {
    let slo = Slo::new(Duration::from_ms(500), Duration::from_ms(60));
    ServingConfig {
        arrival_rate_hz: rate,
        requests,
        seed: 0x5EED,
        mix: vec![
            RequestClass::new(RequestShape::new(256, 64), 0.7).with_slo(slo),
            RequestClass::new(RequestShape::new(512, 128), 0.3).with_slo(slo),
        ],
        workflows: vec![],
        arrivals: spec,
    }
}

/// One IANUS replica, iteration-level continuous batching: batched
/// decode serializes on the PIM, which is exactly what lets a burst
/// stretch co-resident token gaps.
fn sim(cfg: ServingConfig) -> ServingSim {
    ServingSim::new(cfg)
        .replica(IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::IterationLevel {
            max_batch: 8,
            prefill_chunk: None,
            preempt: true,
        })
}

/// One result row as a JSON object (no serde in-tree). `wall_s` is
/// machine-dependent; the canonical compare strips it.
fn bench_row(shape: &str, r: &ServingReport, wall_s: f64) -> String {
    format!(
        "    {{\"shape\": {shape:?}, \"completed\": {}, \"itl_p50_ms\": {:.4}, \
         \"itl_p99_ms\": {:.4}, \"burst_itl_p50_ms\": {:.4}, \"burst_itl_p99_ms\": {:.4}, \
         \"slo_attainment\": {:.6}, \"burst_slo_attainment\": {:.6}, \
         \"tenant_fairness\": {:.6}, \"tenants\": {},\n     \"wall_s\": {wall_s:.6}}}",
        r.completed,
        r.inter_token.p50.as_ms_f64(),
        r.inter_token.p99.as_ms_f64(),
        r.burst_inter_token.p50.as_ms_f64(),
        r.burst_inter_token.p99.as_ms_f64(),
        r.slo_attainment,
        r.burst_slo_attainment,
        r.tenant_fairness,
        r.per_tenant.len(),
    )
}

fn main() {
    let (smoke, bench_json) = common::bench_args();
    let requests = if smoke { 240 } else { 800 };
    // Half of one replica's capacity: the steady state runs with slack
    // (thin batches, short token gaps), so the bursts are what fill
    // the batch and stretch the tail.
    let rate = 2.5;
    let burst_factor = 8.0;
    let model = ModelConfig::gpt2_xl();
    let mut rows = Vec::new();

    // Equal-mean-rate shape sweep. The diurnal amplitude and the MMPP
    // burst factor are chosen so both spend comparable time above the
    // mean; dwell times put several burst/calm cycles inside one run.
    let shapes: Vec<(&str, ArrivalSpec)> = vec![
        ("poisson", ArrivalSpec::Poisson),
        ("diurnal", ArrivalSpec::diurnal(0.75, 160.0 / rate)),
        (
            "mmpp",
            ArrivalSpec::mmpp(burst_factor, 24.0 / rate, 24.0 / rate),
        ),
    ];
    println!(
        "traffic shapes at equal mean rate ({rate} req/s, {requests} requests, {}):\n",
        model.name
    );
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>8} {:>10}",
        "shape", "ITL p50", "ITL p99", "burst p50", "burst p99", "SLO", "burst SLO"
    );
    let mut reports = Vec::new();
    for (name, spec) in &shapes {
        let (r, wall) = common::timed(|| sim(scenario(requests, rate, spec.clone())).run(&model));
        assert_eq!(r.completed, requests, "liveness: every request completes");
        rows.push(bench_row(name, &r, wall));
        println!(
            "{:<10} {:>9.2} ms {:>9.2} ms {:>11.2} ms {:>11.2} ms {:>7.1}% {:>9.1}%",
            name,
            r.inter_token.p50.as_ms_f64(),
            r.inter_token.p99.as_ms_f64(),
            r.burst_inter_token.p50.as_ms_f64(),
            r.burst_inter_token.p99.as_ms_f64(),
            r.slo_attainment * 100.0,
            r.burst_slo_attainment * 100.0,
        );
        reports.push(r);
    }

    // Poisson control: no burst windows means exactly-zero burst
    // percentiles and a vacuous (1.0) burst attainment.
    let poisson = &reports[0];
    assert_eq!(
        poisson.burst_inter_token,
        LatencyPercentiles::ZERO,
        "a Poisson run has no burst windows to sample"
    );
    assert_eq!(
        poisson.burst_slo_attainment, 1.0,
        "burst attainment over zero burst completions is vacuously 1.0"
    );

    // MMPP: the burst windows are where the tail lives. The
    // burst-window ITL p99 must be at least the all-window p99, and
    // attainment inside bursts must not beat the overall attainment.
    let mmpp = &reports[2];
    assert!(
        mmpp.inter_token.p99 >= poisson.inter_token.p99
            && mmpp.slo_attainment <= poisson.slo_attainment,
        "equal mean rate, worse tail: bursty arrivals must not beat Poisson on \
         ITL p99 or attainment"
    );
    assert!(
        mmpp.burst_inter_token.p99 >= mmpp.inter_token.p99,
        "MMPP burst-window ITL p99 ({:.2} ms) should be no better than the \
         all-window p99 ({:.2} ms)",
        mmpp.burst_inter_token.p99.as_ms_f64(),
        mmpp.inter_token.p99.as_ms_f64(),
    );
    assert!(
        mmpp.burst_slo_attainment <= mmpp.slo_attainment,
        "attainment inside the bursts should not beat the run's own overall attainment"
    );
    println!(
        "\nmmpp burst windows: ITL p99 {:.2} ms vs {:.2} ms all-window \
         ({:+.1}%), SLO attainment {:.1}% vs {:.1}% Poisson",
        mmpp.burst_inter_token.p99.as_ms_f64(),
        mmpp.inter_token.p99.as_ms_f64(),
        (mmpp.burst_inter_token.p99.as_ms_f64() / mmpp.inter_token.p99.as_ms_f64() - 1.0) * 100.0,
        mmpp.burst_slo_attainment * 100.0,
        poisson.slo_attainment * 100.0,
    );

    // Symmetric multi-tenant run: K identical tenants at equal shares.
    let tenants = 3u32;
    let multi_tenant = scenario(requests, rate, ArrivalSpec::multi_tenant(tenants));
    let (mt, wall) = common::timed(|| sim(multi_tenant).run(&model));
    assert_eq!(mt.completed, requests, "liveness under multi-tenant merge");
    rows.push(bench_row("multi-tenant", &mt, wall));
    println!("\n{tenants} symmetric tenants at equal shares:");
    for t in &mt.per_tenant {
        println!(
            "  tenant {}  completed {:>4}  sojourn p50 {:>8.1} ms  goodput {:>5.2} req/s  \
             SLO {:>5.1}%",
            t.tenant,
            t.completed,
            t.sojourn.p50.as_ms_f64(),
            t.goodput_rps,
            t.slo_attainment * 100.0,
        );
    }
    let total: u64 = mt.per_tenant.iter().map(|t| t.completed).sum();
    assert_eq!(total, requests, "tenant rows partition the completions");
    assert!(
        mt.tenant_fairness >= 1.0 && mt.tenant_fairness.is_finite(),
        "fairness is max/min goodput: >= 1 and finite when every tenant completes"
    );
    assert!(
        mt.tenant_fairness < 2.0,
        "symmetric tenants should stay near parity (got {:.3})",
        mt.tenant_fairness
    );
    println!(
        "  fairness (max/min goodput): {:.3} — symmetric tenants stay near parity",
        mt.tenant_fairness
    );

    if let Some(path) = bench_json {
        let fields = [
            ("benchmark", "\"traffic_shapes\"".into()),
            ("model", format!("{:?}", model.name)),
            ("requests", requests.to_string()),
            ("mean_rate_hz", format!("{rate:.1}")),
            ("smoke", smoke.to_string()),
        ];
        common::write_bench_json(&path, &fields, Some(&rows));
        println!("\nwrote {} shape rows to {path}", rows.len());
    }
}
