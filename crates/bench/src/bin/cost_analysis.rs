//! Section 7.2: cost (performance per TDP watt) analysis of multi-IANUS
//! groups versus a single A100, at a 256:64 input:output ratio.

use ianus_baselines::GpuModel;
use ianus_bench::{banner, paper};
use ianus_core::multi_device::{
    cost_efficiency_vs_gpu, devices_for, A100_TDP_WATTS, IANUS_TDP_WATTS,
};
use ianus_core::{IanusSystem, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};

fn main() {
    banner("Section 7.2: perf/TDP cost efficiency vs A100 (256:64)");
    let gpu = GpuModel::a100_megatron();
    let req = RequestShape::new(256, 64);
    println!("\nTDP assumptions: IANUS {IANUS_TDP_WATTS} W/device, A100 {A100_TDP_WATTS} W\n");
    println!(
        "{:<10} {:>8} | {:>10} {:>10} | {:>10} {:>8}",
        "model", "devices", "GPU ms", "group ms", "perf/TDP", "paper"
    );
    println!("{}", "-".repeat(68));
    for (mi, model) in ModelConfig::large_gpt_family().iter().enumerate() {
        let devices = devices_for(model);
        let mut group = IanusSystem::new(SystemConfig::ianus().with_devices(devices));
        let g = gpu.request_latency(model, req).as_ms_f64();
        let i = group.run_request(model, req).total.as_ms_f64();
        let eff = cost_efficiency_vs_gpu(devices, g, i);
        println!(
            "{:<10} {:>8} | {:>10.0} {:>10.1} | {:>9.1}x {:>7.1}x",
            model.name,
            devices,
            g,
            i,
            eff,
            paper::COST_EFFICIENCY[mi]
        );
    }
    println!("\npaper: cost-efficiency benefits diminish as the number of IANUS devices grows");
}
