//! Multi-device scaling study (the paper's Section 7): serve GPT 6.7B,
//! 13B and 30B on groups of IANUS devices, report scaling efficiency,
//! tokens/second and perf/TDP against a single A100 — then put the
//! device groups behind the [`ServingSim`] cluster engine and measure the
//! request rate each cluster sustains. A group of `d` devices is an
//! ordinary [`IanusSystem`] over `SystemConfig::ianus().with_devices(d)`.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use ianus::prelude::*;
use ianus::system::multi_device::{
    cost_efficiency_vs_gpu, devices_for, A100_TDP_WATTS, IANUS_TDP_WATTS,
};

fn main() {
    let gpu = GpuModel::a100_megatron();
    let req = RequestShape::new(256, 64);
    for model in ModelConfig::large_gpt_family() {
        let min_devices = devices_for(&model);
        println!(
            "=== {} ({:.1}B params, {:.1} GB BF16) — needs >={} devices ===",
            model.name,
            model.param_count() as f64 / 1e9,
            model.param_bytes() as f64 / 1e9,
            min_devices
        );
        let gpu_ms = gpu.request_latency(&model, req).as_ms_f64();
        println!("single A100 (Megatron model): {gpu_ms:.0} ms for (256,64)\n");
        println!(
            "{:>8} | {:>10} {:>10} {:>10} | {:>9} {:>9}",
            "devices", "ms", "tokens/s", "scaling", "vs A100", "perf/TDP"
        );
        let mut base_tps = None;
        let mut d = min_devices;
        while d <= min_devices * 4 && d <= 16 {
            // The group is driven through the same Backend trait the
            // serving engine uses.
            let mut group = IanusSystem::new(SystemConfig::ianus().with_devices(d));
            if group.fits(&model).is_err() {
                d *= 2;
                continue;
            }
            let ms = group.service_time(&model, req).as_ms_f64();
            let tps = req.output as f64 / (ms / 1e3);
            let base = *base_tps.get_or_insert(tps);
            println!(
                "{:>8} | {:>10.1} {:>10.1} {:>9.2}x | {:>8.1}x {:>8.1}x",
                d,
                ms,
                tps,
                tps / base,
                gpu_ms / ms,
                cost_efficiency_vs_gpu(d, gpu_ms, ms)
            );
            d *= 2;
        }

        // Cluster-scale serving: replicas of the smallest viable group
        // behind least-loaded dispatch. How much traffic does each
        // cluster size sustain?
        print!("sustained (256,64) req/s:");
        let mut last: Option<(ServingSim, f64)> = None;
        for replicas in [1usize, 2, 4] {
            let mut sim = ServingSim::new(ServingConfig {
                arrival_rate_hz: 0.1,
                requests: 200,
                seed: 0x5CA1E,
                mix: vec![RequestClass::new(req, 1.0)],
                workflows: vec![],
                arrivals: Default::default(),
            })
            .cluster(replicas, |_| {
                IanusSystem::new(SystemConfig::ianus().with_devices(min_devices))
            })
            .dispatch(DispatchPolicy::LeastLoaded);
            // The bisection probes run on cloned engines across scoped
            // threads (IanusSystem is cloneable), so each search costs
            // roughly its longest single probe of wall-clock.
            let rate = sim.sustainable_rate(&model, 0.05, 64.0);
            print!("  {replicas} x {min_devices}-device group: {rate:.1}");
            last = Some((sim, rate));
        }
        println!();

        // Bracket the 4-replica operating point with one parallel
        // sweep: all four probes replay the horizon concurrently and
        // come back in rate order.
        let (mut sim, rate) = last.expect("three cluster sizes ran");
        let grid: Vec<f64> = [0.5, 0.75, 1.0, 1.25].iter().map(|m| m * rate).collect();
        let reports = sim.sweep_rates(&model, &grid);
        print!("4-group rate sweep (req/s: p50 sojourn):");
        for (g, r) in grid.iter().zip(&reports) {
            print!("  {g:.1}: {:.2}s", r.sojourn.p50.as_secs_f64());
        }
        println!("\n");
    }
    println!(
        "TDP assumptions: {IANUS_TDP_WATTS} W per IANUS device, {A100_TDP_WATTS} W per A100.\n\
         Scaling is sublinear because every decoder-block synchronization crosses PCIe."
    );
}
