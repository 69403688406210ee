//! Criterion benches for end-to-end request simulation — one sample per
//! figure family (Fig. 8 GPT-2 requests, Fig. 14 BERT, Fig. 17/18
//! multi-device, plus both baselines).

use criterion::{criterion_group, criterion_main, Criterion};
use ianus_baselines::{DfxModel, GpuModel};
use ianus_core::{IanusSystem, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};
use std::hint::black_box;
use std::time::Duration;

fn quick() -> Criterion {
    // End-to-end iterations cost tens of milliseconds; bound the run.
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .warm_up_time(Duration::from_secs(1))
}

fn bench_gpt2_request(c: &mut Criterion) {
    c.bench_function("e2e_gpt2m_128_8_ianus", |b| {
        b.iter(|| {
            let mut sys = IanusSystem::new(SystemConfig::ianus());
            black_box(sys.run_request(&ModelConfig::gpt2_m(), RequestShape::new(128, 8)))
        })
    });
    c.bench_function("e2e_gpt2m_128_8_npu_mem", |b| {
        b.iter(|| {
            let mut sys = IanusSystem::new(SystemConfig::npu_mem());
            black_box(sys.run_request(&ModelConfig::gpt2_m(), RequestShape::new(128, 8)))
        })
    });
}

fn bench_bert(c: &mut Criterion) {
    c.bench_function("e2e_bert_l_512_ianus", |b| {
        b.iter(|| {
            let mut sys = IanusSystem::new(SystemConfig::ianus());
            black_box(sys.run_request(&ModelConfig::bert_l(), RequestShape::new(512, 1)))
        })
    });
}

fn bench_multi_device(c: &mut Criterion) {
    c.bench_function("e2e_gpt6_7b_2dev_256_8", |b| {
        b.iter(|| {
            let mut group = IanusSystem::new(SystemConfig::ianus().with_devices(2));
            black_box(group.run_request(&ModelConfig::gpt_6_7b(), RequestShape::new(256, 8)))
        })
    });
}

fn bench_baselines(c: &mut Criterion) {
    let gpu = GpuModel::a100();
    let dfx = DfxModel::four_fpga();
    c.bench_function("baseline_gpu_xl_128_512", |b| {
        b.iter(|| {
            black_box(gpu.request_latency(&ModelConfig::gpt2_xl(), RequestShape::new(128, 512)))
        })
    });
    c.bench_function("baseline_dfx_xl_128_256", |b| {
        b.iter(|| {
            black_box(dfx.request_latency(&ModelConfig::gpt2_xl(), RequestShape::new(128, 256)))
        })
    });
}

fn bench_serving_cluster(c: &mut Criterion) {
    use ianus_core::serving::{DispatchPolicy, ServingConfig, ServingSim};
    // Queueing pass over a warm 4-replica cluster (service memos mean
    // each iteration is pure dispatch + statistics).
    let mut sim = ServingSim::new(ServingConfig::interactive(12.0, 400))
        .cluster(4, |_| IanusSystem::new(SystemConfig::ianus()))
        .dispatch(DispatchPolicy::ShortestExpectedJob);
    let model = ModelConfig::gpt2_m();
    sim.run(&model); // warm the per-shape service memos
    c.bench_function("serving_cluster_4x_gpt2m_400req", |b| {
        b.iter(|| black_box(sim.run(&model)))
    });
}

fn bench_serving_iteration_level(c: &mut Criterion) {
    use ianus_core::serving::{Scheduling, ServingConfig, ServingSim};
    // Iteration-level pass over the same warm cluster: after the first
    // run memoizes the decode grid, each iteration prices per-token
    // scheduling from interpolated memos — the regression guard for
    // "rate sweeps stay queueing-only fast" under continuous batching.
    let mut sim = ServingSim::new(ServingConfig::interactive(12.0, 400))
        .cluster(4, |_| IanusSystem::new(SystemConfig::ianus()))
        .scheduling(Scheduling::iteration(8));
    let model = ModelConfig::gpt2_m();
    sim.run(&model); // warm prefill + decode-grid memos
    c.bench_function("serving_iteration_4x_gpt2m_400req_b8", |b| {
        b.iter(|| black_box(sim.run(&model)))
    });
}

fn bench_serving_chunked_preemptive(c: &mut Criterion) {
    use ianus_core::serving::{RequestClass, Scheduling, ServingConfig, ServingSim};
    // The scheduler's most state-heavy configuration: chunked prefill
    // (one chunk + one decode share per iteration) plus preemptive
    // admission (current-length projections and eviction scans every
    // iteration) on the KV-pressure-heavy GPT-2 XL draft shape. Guards
    // the per-iteration bookkeeping the two knobs add on top of the
    // warm-memo queueing pass.
    let mut sim = ServingSim::new(ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 120,
        seed: 0x5EED,
        mix: vec![RequestClass::new(RequestShape::new(512, 512), 1.0)],
        workflows: vec![],
        arrivals: Default::default(),
    })
    .replica(IanusSystem::new(SystemConfig::ianus()))
    .scheduling(Scheduling::IterationLevel {
        max_batch: 32,
        prefill_chunk: Some(128),
        preempt: true,
    });
    let model = ModelConfig::gpt2_xl();
    sim.run(&model); // warm prefill + decode-grid memos
    c.bench_function("serving_chunked_preempt_gpt2xl_120req_b32", |b| {
        b.iter(|| black_box(sim.run(&model)))
    });
}

fn bench_serving_policy_sweep(c: &mut Criterion) {
    use ianus_core::serving::policy::LargestKv;
    use ianus_core::serving::{
        RequestClass, SchedulerPolicy, Scheduling, ServingConfig, ServingSim,
    };
    // A non-default eviction policy on the same KV-pressure scenario:
    // guards the comparator-based victim/readmission selection the
    // policy API added over the hard-wired min_by_key scans (the
    // per-iteration view construction is the new cost).
    let mut sim = ServingSim::new(ServingConfig {
        arrival_rate_hz: 4.0,
        requests: 120,
        seed: 0x5EED,
        mix: vec![RequestClass::new(RequestShape::new(512, 512), 1.0)],
        workflows: vec![],
        arrivals: Default::default(),
    })
    .replica(IanusSystem::new(SystemConfig::ianus()))
    .scheduling(Scheduling::IterationLevel {
        max_batch: 32,
        prefill_chunk: Some(128),
        preempt: true,
    })
    .policy(SchedulerPolicy::default().with_eviction(LargestKv));
    let model = ModelConfig::gpt2_xl();
    sim.run(&model); // warm prefill + decode-grid memos
    c.bench_function("serving_policy_largest_kv_gpt2xl_120req_b32", |b| {
        b.iter(|| black_box(sim.run(&model)))
    });
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_gpt2_request, bench_bert, bench_multi_device, bench_baselines,
        bench_serving_cluster, bench_serving_iteration_level, bench_serving_chunked_preemptive,
        bench_serving_policy_sweep
}
criterion_main!(benches);
