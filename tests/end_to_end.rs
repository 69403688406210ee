//! Cross-crate integration tests: the paper's headline claims, asserted
//! end-to-end through the public `ianus` facade.

use ianus::prelude::*;

fn ianus_latency(model: &ModelConfig, req: RequestShape) -> f64 {
    IanusSystem::new(SystemConfig::ianus())
        .run_request(model, req)
        .total
        .as_ms_f64()
}

#[test]
fn headline_speedup_over_gpu() {
    // Paper: 6.2x average over the A100 for GPT-2 (we assert a band that
    // the reproduction must stay within: clearly >3x, below 25x).
    let gpu = GpuModel::a100();
    for model in ModelConfig::gpt2_family() {
        let req = RequestShape::new(128, 64);
        let g = gpu.request_latency(&model, req).as_ms_f64();
        let i = ianus_latency(&model, req);
        let speedup = g / i;
        assert!(
            speedup > 3.0 && speedup < 25.0,
            "{}: speedup {speedup}",
            model.name
        );
    }
}

#[test]
fn headline_speedup_over_dfx() {
    // Paper: 3.2x average over DFX on GPT-2 XL.
    let dfx = DfxModel::four_fpga();
    let model = ModelConfig::gpt2_xl();
    let mut ratios = Vec::new();
    for (i, o) in [(32u64, 16u64), (64, 256), (128, 16)] {
        let req = RequestShape::new(i, o);
        let d = dfx.request_latency(&model, req).as_ms_f64();
        let s = ianus_latency(&model, req);
        ratios.push(d / s);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(avg > 2.0 && avg < 8.0, "avg speedup vs DFX {avg}");
}

#[test]
fn npu_mem_slower_than_ianus_in_generation_only() {
    // PIM acts as plain GDDR6 during summarization, so the two systems
    // should split only on the generation side.
    let model = ModelConfig::gpt2_l();
    let req = RequestShape::new(256, 64);
    let i = IanusSystem::new(SystemConfig::ianus()).run_request(&model, req);
    let n = IanusSystem::new(SystemConfig::npu_mem()).run_request(&model, req);
    let summ_ratio = n.summarization.as_ns_f64() / i.summarization.as_ns_f64();
    let gen_ratio = n.generation.as_ns_f64() / i.generation.as_ns_f64();
    assert!(summ_ratio < 1.5, "summarization ratio {summ_ratio}");
    assert!(gen_ratio > 3.0, "generation ratio {gen_ratio}");
}

#[test]
fn unified_beats_partitioned() {
    // Paper Figure 13: 1.4-1.6x for M/L/XL, more for 2.5B.
    for (model, min_gain) in [
        (ModelConfig::gpt2_l(), 1.2),
        (ModelConfig::gpt2_2_5b(), 1.8),
    ] {
        let req = RequestShape::new(256, 64);
        let u = ianus_latency(&model, req);
        let p = IanusSystem::new(SystemConfig::partitioned())
            .run_request(&model, req)
            .total
            .as_ms_f64();
        assert!(
            p / u > min_gain,
            "{}: unified gain {} (expected > {min_gain})",
            model.name,
            p / u
        );
    }
}

#[test]
fn pas_scheduling_beats_naive() {
    let model = ModelConfig::gpt2_xl();
    let req = RequestShape::new(128, 64);
    let naive_cfg = SystemConfig::ianus().with_pas(PasPolicy {
        fc: FcMapping::Adaptive,
        attention: AttnMapping::MatrixUnit,
        schedule: Schedule::Naive,
    });
    let naive = IanusSystem::new(naive_cfg)
        .run_request(&model, req)
        .total
        .as_ms_f64();
    let scheduled = ianus_latency(&model, req);
    let gain = naive / scheduled;
    assert!(gain > 1.05 && gain < 2.5, "scheduling gain {gain}");
}

#[test]
fn attention_on_mu_beats_pim_for_64_head_dim() {
    // Paper: QKT/SV on the matrix unit wins except for GPT-2 2.5B.
    let model = ModelConfig::gpt2_xl();
    let req = RequestShape::new(128, 64);
    let pim_cfg = SystemConfig::ianus().with_pas(PasPolicy {
        fc: FcMapping::Adaptive,
        attention: AttnMapping::Pim,
        schedule: Schedule::Overlapped,
    });
    let on_pim = IanusSystem::new(pim_cfg)
        .run_request(&model, req)
        .total
        .as_ms_f64();
    let on_mu = ianus_latency(&model, req);
    assert!(on_mu <= on_pim * 1.02, "MU {on_mu} vs PIM {on_pim}");
}

#[test]
fn generation_is_memory_bound_on_npu_mem() {
    // NPU-MEM per-token time tracks FC weight bytes / 256 GB/s.
    let model = ModelConfig::gpt2_xl();
    let req = RequestShape::new(64, 16);
    let n = IanusSystem::new(SystemConfig::npu_mem()).run_request(&model, req);
    let per_token = n.per_token_latency().unwrap().as_ms_f64();
    let weight_stream_ms = (model.fc_param_count() * 2) as f64 / 256e9 * 1e3;
    assert!(
        per_token > weight_stream_ms && per_token < 2.0 * weight_stream_ms,
        "per-token {per_token} vs stream floor {weight_stream_ms}"
    );
}

#[test]
fn multi_device_strong_scaling_band() {
    // Paper Figure 18: 4x devices => ~2.5x throughput.
    let model = ModelConfig::gpt_6_7b();
    let req = RequestShape::new(256, 64);
    let tps = |devices| {
        IanusSystem::new(SystemConfig::ianus().with_devices(devices))
            .run_request(&model, req)
            .tokens_per_second(req.output)
    };
    let scaling = tps(8) / tps(2);
    assert!(scaling > 1.8 && scaling < 3.5, "scaling {scaling}");
}

#[test]
fn energy_improvement_band() {
    // Paper Figure 11: 3.6-4.4x energy-efficiency improvement.
    let model = ModelConfig::gpt2_l();
    let req = RequestShape::new(128, 64);
    let i = IanusSystem::new(SystemConfig::ianus()).run_request(&model, req);
    let n = IanusSystem::new(SystemConfig::npu_mem()).run_request(&model, req);
    let gain = n.energy.total_pj() / i.energy.total_pj();
    assert!(gain > 2.0 && gain < 7.0, "energy gain {gain}");
}

#[test]
fn bert_never_touches_pim() {
    let model = ModelConfig::bert_l();
    let req = RequestShape::new(256, 1);
    let r = IanusSystem::new(SystemConfig::ianus()).run_request(&model, req);
    assert_eq!(r.energy.pim_pj, 0.0, "BERT must not use PIM compute");
    assert_eq!(r.generation_steps, 0);
}

#[test]
fn facade_reexports_are_usable() {
    // Substrates are reachable through the facade for power users.
    let org = ianus::dram::GddrOrganization::ianus_default();
    assert_eq!(org.channels, 8);
    let cfg = ianus::pim::PimConfig::ianus_default();
    assert_eq!(cfg.total_pus(), 128);
    let npu = ianus::npu::NpuConfig::ianus_default();
    assert_eq!(npu.cores, 4);
}

#[test]
fn cli_rejects_zero_devices_with_usage() {
    // A zero device count is a usage error at parse time, not a panic.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ianus"))
        .args(["--devices", "0"])
        .output()
        .expect("the ianus CLI runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--devices must be at least 1"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn cli_rejects_a_mix_shape_past_the_model_without_a_panic() {
    // A served class longer than GPT-2 M's positional table is a
    // preflight error before the header, at either scheduling level.
    for scheduling in ["request", "iteration"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ianus"))
            .args(["--serve", "--model", "gpt2-m", "--mix", "custom"])
            .args(["--input", "2000", "--output", "64", "--requests", "5"])
            .args(["--scheduling", scheduling])
            .output()
            .expect("the ianus CLI runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(stderr.contains("exceeds the model maximum"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
}

/// Runs the `ianus` CLI on `args`.
fn ianus_cli(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ianus"))
        .args(args)
        .output()
        .expect("the ianus CLI runs")
}

#[test]
fn cli_config_errors_exit_2_before_the_header() {
    let serve = ["--serve", "--model", "gpt2-m", "--requests", "5"];
    // (extra flags, a fragment of the one-line error)
    let cases: &[(&[&str], &str)] = &[
        (&["--rate", "0"], "arrival rate must be positive"),
        (&["--rate", "inf"], "arrival rate must be positive"),
        (&["--replicas", "0"], "--replicas must be at least 1"),
        (&["--max-batch", "0"], "--max-batch must be at least 1"),
        (&["--input", "0"], "--input must be at least 1"),
        (&["--model", "bert-l"], "encoder-only"),
        (
            &["--mix", "custom", "--input", "2000"],
            "can never be admitted",
        ),
        (&["--model", "gpt-30b"], "model does not fit replica 0"),
    ];
    for (extra, fragment) in cases {
        let out = ianus_cli(&[&serve[..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert!(stderr.contains(fragment), "{extra:?}: {stderr}");
    }
}

#[test]
fn cli_pim_attention_without_pim_runs_on_the_matrix_unit() {
    let run = |attn| {
        let line = ["--model", "gpt2-m", "--input", "128", "--output", "8"];
        ianus_cli(&[&line[..], &["--system", "npu-mem", "--attn", attn]].concat())
    };
    let (pim, mu) = (run("pim"), run("mu"));
    assert_eq!(
        pim.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&pim.stderr)
    );
    assert_eq!(pim.stdout, mu.stdout);
}
