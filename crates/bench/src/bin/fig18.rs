//! Figure 18: strong scaling of GPT 6.7B (256,64) across 2/4/8 IANUS
//! devices, in generated tokens per second.

use ianus_bench::{banner, paper};
use ianus_core::{IanusSystem, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};

fn main() {
    banner("Figure 18: strong scaling, GPT 6.7B (256,64)");
    let model = ModelConfig::gpt_6_7b();
    let req = RequestShape::new(256, 64);
    println!(
        "\n{:>9} | {:>12} {:>12} | {:>9}",
        "devices", "tokens/s", "paper", "scaling"
    );
    println!("{}", "-".repeat(52));
    let mut first = None;
    for (i, devices) in [2u32, 4, 8].iter().enumerate() {
        let tps = IanusSystem::new(SystemConfig::ianus().with_devices(*devices))
            .run_request(&model, req)
            .tokens_per_second(req.output);
        let base = *first.get_or_insert(tps);
        println!(
            "{:>9} | {:>12.1} {:>12.1} | {:>8.2}x",
            devices,
            tps,
            paper::FIG18_TOKENS_PER_S[i],
            tps / base
        );
    }
    println!(
        "\npaper: 2.5x throughput from 4x devices (127.1 -> 317.6 tokens/s);\n\
         sublinear due to inter-device communication"
    );
}
