//! Scheduling-mode integration: both [`Scheduling`] modes must run on
//! every backend type, and the batching economics the device layer
//! encodes must surface in cluster-level sustainable rates — the
//! acceptance story for iteration-level serving.

use ianus::prelude::*;

fn small_mix(rate: f64, requests: u64) -> ServingConfig {
    ServingConfig {
        arrival_rate_hz: rate,
        requests,
        seed: 0xBEEF,
        mix: vec![
            RequestClass::new(RequestShape::new(64, 8), 0.7),
            RequestClass::new(RequestShape::new(128, 16), 0.3),
        ],
        workflows: vec![],
        arrivals: Default::default(),
    }
}

#[test]
fn both_modes_run_on_all_four_backend_types() {
    type BackendFactory = fn() -> Box<dyn Backend>;
    let factories: Vec<(&str, BackendFactory)> = vec![
        ("IANUS", || {
            Box::new(IanusSystem::new(SystemConfig::ianus()))
        }),
        ("IANUS x2", || {
            Box::new(IanusSystem::new(SystemConfig::ianus().with_devices(2)))
        }),
        ("A100 (eager)", || Box::new(GpuModel::a100())),
        ("DFX (4-FPGA)", || Box::new(DfxModel::four_fpga())),
    ];
    for (name, make) in factories {
        for scheduling in [
            Scheduling::RequestLevel,
            Scheduling::iteration(4),
            // Chunked prefill and preemptive admission must run on every
            // backend too — including the trait-default ones whose
            // batch_fits admits everything and whose swaps are free.
            Scheduling::IterationLevel {
                max_batch: 4,
                prefill_chunk: Some(32),
                preempt: true,
            },
        ] {
            let r = ServingSim::new(small_mix(2.0, 40))
                .boxed_replica(make())
                .scheduling(scheduling)
                .run(&ModelConfig::gpt2_m());
            assert_eq!(r.completed, 40, "{name} {scheduling:?}");
            assert_eq!(r.per_replica[0].name, name);
            assert!(
                r.ttft.p50.as_ms_f64() > 0.0,
                "{name} {scheduling:?}: TTFT not populated"
            );
            assert!(
                r.inter_token.p50.as_ms_f64() > 0.0,
                "{name} {scheduling:?}: ITL not populated"
            );
            assert!(r.ttft.p50 <= r.sojourn.p50, "{name} {scheduling:?}");
            match scheduling {
                Scheduling::RequestLevel => assert_eq!(r.peak_batch, 1, "{name}"),
                Scheduling::IterationLevel { max_batch, .. } => {
                    assert!(r.peak_batch >= 1 && r.peak_batch <= max_batch, "{name}")
                }
            }
        }
    }
}

#[test]
fn gpu_batching_multiplies_sustainable_rate_on_decode_heavy_mix() {
    // The acceptance criterion: on a decode-heavy mix, the same A100
    // cluster sustains at least the request-level rate — in fact several
    // times it — once iteration-level batching (max_batch ≥ 4) amortizes
    // the per-iteration weight streaming and kernel dispatch.
    let model = ModelConfig::gpt2_m();
    let mut req_sim =
        ServingSim::new(ServingConfig::decode_heavy(0.5, 200)).replica(GpuModel::a100());
    let req_rate = req_sim.sustainable_rate(&model, 0.02, 64.0);
    let mut it_sim = ServingSim::new(ServingConfig::decode_heavy(0.5, 200))
        .replica(GpuModel::a100())
        .scheduling(Scheduling::iteration(8));
    let it_rate = it_sim.sustainable_rate(&model, 0.02, 64.0);
    assert!(req_rate > 0.0, "request-level bracket too narrow");
    assert!(
        it_rate >= req_rate * 2.0,
        "batched A100 should multiply its sustainable rate: \
         iteration {it_rate:.2} req/s vs request-level {req_rate:.2} req/s"
    );
}

#[test]
fn ianus_batch1_wins_decode_heavy_regime_against_batched_gpu() {
    // The paper's Section 6.1 claim, cluster-level: batch-1 IANUS
    // sustains a higher decode-heavy rate than even the batched A100.
    let model = ModelConfig::gpt2_m();
    let mut ianus = ServingSim::new(ServingConfig::decode_heavy(0.5, 200))
        .replica(IanusSystem::new(SystemConfig::ianus()));
    let ianus_rate = ianus.sustainable_rate(&model, 0.02, 64.0);
    let mut gpu = ServingSim::new(ServingConfig::decode_heavy(0.5, 200))
        .replica(GpuModel::a100())
        .scheduling(Scheduling::iteration(8));
    let gpu_rate = gpu.sustainable_rate(&model, 0.02, 64.0);
    assert!(
        ianus_rate > gpu_rate,
        "batch-1 IANUS {ianus_rate:.2} req/s vs batched A100 {gpu_rate:.2} req/s"
    );
}
