//! Figure 17: inference latency of larger LLMs (GPT 6.7B/13B/30B) on
//! multi-IANUS groups versus a single A100.

use ianus_baselines::GpuModel;
use ianus_bench::{banner, mean, paper, req_label};
use ianus_core::capacity::check_model;
use ianus_core::multi_device::devices_for;
use ianus_core::{IanusSystem, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};

fn main() {
    banner("Figure 17: larger LLMs on multi-IANUS vs one A100 (ms)");
    let gpu = GpuModel::a100_megatron();
    let requests: Vec<RequestShape> = [1u64, 8, 64, 512]
        .iter()
        .map(|&o| RequestShape::new(256, o))
        .collect();
    for (mi, model) in ModelConfig::large_gpt_family().iter().enumerate() {
        let devices = devices_for(model);
        let cfg = SystemConfig::ianus().with_devices(devices);
        check_model(&cfg, model).expect("device count must fit the model");
        let mut group = IanusSystem::new(cfg);
        println!(
            "\n{} on {} IANUS devices (paper: {}):",
            model.name,
            devices,
            [2, 4, 8][mi]
        );
        println!(
            "{:>10} | {:>9} {:>10} {:>8}",
            "(in,out)", "GPU", "IANUSx{n}", "speedup"
        );
        let mut gpu_ms = Vec::new();
        let mut grp_ms = Vec::new();
        for &req in &requests {
            let g = gpu.request_latency(model, req).as_ms_f64();
            let i = group.run_request(model, req).total.as_ms_f64();
            gpu_ms.push(g);
            grp_ms.push(i);
            println!(
                "{:>10} | {:>9.0} {:>10.1} {:>7.1}x",
                req_label(req),
                g,
                i,
                g / i
            );
        }
        println!(
            "{:>10} | avg speedup {:.1}x (paper: {:.1}x)",
            "Avg",
            mean(&gpu_ms) / mean(&grp_ms),
            paper::FIG17_SPEEDUPS[mi]
        );
    }
    println!(
        "\npaper: effective memory bandwidth ≈2.4 TB/s per device; speedups diminish\n\
         with device count due to PCIe communication overhead"
    );
}
