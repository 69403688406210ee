//! Figure 10: latency breakdown of GPT-2 L and XL generation stages,
//! NPU-MEM vs IANUS, at (128,256).
//!
//! The paper attributes *latency* (not busy time) to operation classes:
//! work hidden behind other units contributes nothing. We reproduce that
//! with leave-one-class-out attribution — re-running the scheduled
//! program with one class's durations zeroed and reporting the makespan
//! delta — on a representative mid-generation step, scaled to the full
//! 255-step generation phase.

use ianus_bench::{banner, paper};
use ianus_core::compiler::Compiler;
use ianus_core::{OpClass, SystemConfig};
use ianus_model::{ModelConfig, Stage};
use ianus_npu::scheduler::{Engine, Program};
use ianus_sim::Duration;

/// Makespan of `program` with every command of `zeroed` given zero
/// duration (None = unmodified).
fn makespan(cfg: &SystemConfig, units: usize, program: &Program, zeroed: Option<usize>) -> f64 {
    let mut engine = Engine::new(units, cfg.npu.dispatch_overhead);
    match zeroed {
        None => engine.run(program).makespan().as_ns_f64(),
        Some(tag) => {
            // Zeroing a repeated block's command zeroes it in every copy.
            let mut p = program.clone();
            for cmd in program.commands().filter(|cmd| cmd.tag == tag) {
                p.set_duration(cmd.id, Duration::ZERO);
            }
            engine.run(&p).makespan().as_ns_f64()
        }
    }
}

fn main() {
    banner("Figure 10: generation latency breakdown, NPU-MEM vs IANUS (128,256)");
    // Representative step of the (128,256) request: past = 128 + 255/2.
    let stage = Stage::Generation {
        past_tokens: 128 + 127,
    };
    let steps = 255.0;
    let classes = [
        OpClass::LayerNorm,
        OpClass::SelfAttention,
        OpClass::FcAttnProjAdd,
        OpClass::FfnAdd,
        OpClass::FcQkv,
    ];
    for model in [ModelConfig::gpt2_l(), ModelConfig::gpt2_xl()] {
        let mut rows: Vec<Vec<f64>> = Vec::new(); // per system: class deltas + total
        for cfg in [SystemConfig::npu_mem(), SystemConfig::ianus()] {
            let mut compiler = Compiler::new(&cfg, &model);
            let compiled = compiler.compile(&stage);
            let units = compiler.unit_map().unit_count();
            let full = makespan(&cfg, units, &compiled.program, None);
            let mut row: Vec<f64> = classes
                .iter()
                .map(|c| {
                    let without = makespan(&cfg, units, &compiled.program, Some(c.tag()));
                    (full - without) * steps / 1e6
                })
                .collect();
            row.push(full * steps / 1e6);
            rows.push(row);
        }
        println!(
            "\n{} generation latency attribution over 255 steps (ms):",
            model.name
        );
        println!(
            "{:<26} {:>10} {:>10} {:>8}",
            "class", "NPU-MEM", "IANUS", "ratio"
        );
        for (i, c) in classes.iter().enumerate() {
            let n = rows[0][i];
            let s = rows[1][i];
            let ratio = if s > 1e-9 { n / s } else { f64::INFINITY };
            println!("{:<26} {:>10.1} {:>10.1} {:>7.1}x", c.label(), n, s, ratio);
        }
        let overall = rows[0][classes.len()] / rows[1][classes.len()];
        let paper_overall = if model.name == "GPT-2 XL" {
            paper::FIG10_XL_OVERALL
        } else {
            paper::FIG10_L_OVERALL
        };
        println!(
            "{:<26} {:>10.0} {:>10.0} {:>7.1}x  (paper overall: {:.1}x)",
            "generation total",
            rows[0][classes.len()],
            rows[1][classes.len()],
            overall,
            paper_overall
        );
    }
    println!(
        "\npaper headline ratios (GPT-2 XL): MHA FCs 4.1x, FFN 5.1x, self-attention 4.3x;\n\
         classes overlap, so exclusive attributions need not sum to the total"
    );
}
