//! Datacenter text-generation serving study (the paper's motivating
//! workload): sweep typical request shapes for every GPT-2 size, compare
//! platforms through the unified [`Backend`] trait, and report tail
//! behaviour of the serving mix.
//!
//! ```text
//! cargo run --release --example datacenter_serving
//! ```
//!
//! The paper evaluates non-batched requests because datacenters serving
//! interactive NLP traffic cannot wait to form batches; this example
//! models a serving mix of short chat turns, medium completions and long
//! document drafts. Every platform — simulated IANUS/NPU-MEM devices and
//! the analytical A100/DFX baselines — goes through the same
//! `dyn Backend` path.

use ianus::prelude::*;

struct MixEntry {
    name: &'static str,
    request: RequestShape,
    share: f64,
}

fn platforms() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(IanusSystem::new(SystemConfig::ianus())),
        Box::new(IanusSystem::new(SystemConfig::npu_mem())),
        Box::new(GpuModel::a100()),
        Box::new(DfxModel::four_fpga()),
    ]
}

fn main() {
    // A plausible interactive serving mix (shares sum to 1).
    let mix = [
        MixEntry {
            name: "chat turn",
            request: RequestShape::new(128, 32),
            share: 0.5,
        },
        MixEntry {
            name: "completion",
            request: RequestShape::new(256, 128),
            share: 0.35,
        },
        MixEntry {
            name: "draft",
            request: RequestShape::new(512, 512),
            share: 0.15,
        },
    ];

    for model in ModelConfig::gpt2_family() {
        let mut backends = platforms();
        println!("=== {} ===", model.name);
        print!("{:<12} {:>10} |", "request", "(in,out)");
        for b in &backends {
            print!(" {:>16}", b.name());
        }
        println!();
        let mut weighted = vec![0.0f64; backends.len()];
        for e in &mix {
            print!(
                "{:<12} {:>10} |",
                e.name,
                format!("({},{})", e.request.input, e.request.output)
            );
            for (b, w) in backends.iter_mut().zip(weighted.iter_mut()) {
                let ms = b.service_time(&model, e.request).as_ms_f64();
                *w += e.share * ms;
                print!(" {ms:>14.1}ms");
            }
            println!();
        }
        print!("{:<12} {:>10} |", "mix avg", "");
        for w in &weighted {
            print!(" {w:>14.1}ms");
        }
        println!();
        // Resolve platforms by name so reordering `platforms()` cannot
        // silently misattribute the ratios.
        let avg_of = |prefix: &str| {
            backends
                .iter()
                .position(|b| b.name().starts_with(prefix))
                .map(|i| weighted[i])
                .unwrap_or_else(|| panic!("no platform named {prefix}*"))
        };
        println!(
            "serving capacity gain vs A100: {:.1}x; vs DFX: {:.1}x\n",
            avg_of("A100") / avg_of("IANUS"),
            avg_of("DFX") / avg_of("IANUS")
        );
    }

    // The same four platforms as a (deliberately heterogeneous) serving
    // cluster: expected-completion dispatch steers traffic to the fast
    // replicas while the slow ones soak up overflow.
    let model = ModelConfig::gpt2_m();
    let report = ServingSim::new(ServingConfig::interactive(6.0, 400))
        .boxed_replica(Box::new(IanusSystem::new(SystemConfig::ianus())))
        .boxed_replica(Box::new(IanusSystem::new(SystemConfig::npu_mem())))
        .boxed_replica(Box::new(GpuModel::a100()))
        .boxed_replica(Box::new(DfxModel::four_fpga()))
        .dispatch(DispatchPolicy::ShortestExpectedJob)
        .run(&model);
    println!(
        "heterogeneous cluster of all four platforms serving {} at 6 req/s:",
        model.name
    );
    for r in &report.per_replica {
        println!(
            "  {:<16} served {:>4} requests at {:>5.1}% utilization",
            r.name,
            r.completed,
            r.utilization * 100.0
        );
    }
    println!(
        "  cluster p99 sojourn {:.0} ms ({})",
        report.sojourn.p99.as_ms_f64(),
        if report.stable() {
            "stable"
        } else {
            "UNSTABLE"
        }
    );

    // The paper's Section 6.1 argument, made quantitative: per platform,
    // what does iteration-level continuous batching (KV-gated admission,
    // one token per active sequence per iteration) buy over batch-1
    // request-level serving on a decode-heavy mix? The GPU multiplies
    // its sustainable rate several-fold (batched decode amortizes its
    // weight streaming and kernel dispatch). DFX and IANUS decode one
    // sequence at a time, so batching buys them no throughput and even
    // shaves the p99-stable rate (serialized batches stretch tail
    // sojourns) — yet batch-1 IANUS still beats the *batched* A100,
    // which is the paper's design point.
    println!(
        "\nbatch-1 vs continuous batching, decode-heavy mix of {}:",
        model.name
    );
    println!(
        "  {:<16} {:>13} {:>17} {:>6} | {:>9} {:>9}",
        "platform", "request-level", "iteration (b=8)", "gain", "ttft p50", "itl p50"
    );
    type BackendFactory = fn() -> Box<dyn Backend>;
    let factories: Vec<(&str, BackendFactory)> = vec![
        ("IANUS", || {
            Box::new(IanusSystem::new(SystemConfig::ianus()))
        }),
        ("NPU-MEM", || {
            Box::new(IanusSystem::new(SystemConfig::npu_mem()))
        }),
        ("A100 (eager)", || Box::new(GpuModel::a100())),
        ("DFX (4-FPGA)", || Box::new(DfxModel::four_fpga())),
    ];
    for (name, make) in factories {
        let mut req_sim =
            ServingSim::new(ServingConfig::decode_heavy(0.5, 250)).boxed_replica(make());
        let req_rate = req_sim.sustainable_rate(&model, 0.02, 64.0);
        let mut it_sim = ServingSim::new(ServingConfig::decode_heavy(0.5, 250))
            .boxed_replica(make())
            .scheduling(Scheduling::iteration(8));
        let it_rate = it_sim.sustainable_rate(&model, 0.02, 64.0);
        // Tail behaviour at 80% of each mode's own sustainable rate.
        it_sim.set_rate(it_rate * 0.8);
        let at_load = it_sim.run(&model);
        println!(
            "  {:<16} {:>9.2} r/s {:>13.2} r/s {:>5.1}x | {:>6.0} ms {:>6.2} ms",
            name,
            req_rate,
            it_rate,
            it_rate / req_rate.max(1e-9),
            at_load.ttft.p50.as_ms_f64(),
            at_load.inter_token.p50.as_ms_f64(),
        );
    }

    // Chunked prefill, cross-platform: on a long-prompt priority mix at
    // each platform's own 80%-load point, what does chunking the
    // 896-token prefills do to the interactive inter-token p99? The
    // stall a resident decode suffers drops from one *prompt* to one
    // *chunk* on every platform — the effect is architectural, not an
    // IANUS artifact; only the magnitude differs (DFX's token-serial
    // prefill is so slow that both tails saturate).
    println!("\nchunked prefill on the long-prompt mix (25% of prompts are 896 tokens):");
    println!(
        "  {:<16} {:>9} | {:>13} {:>13} {:>7}",
        "platform", "load", "mono itl p99", "chunk itl p99", "gain"
    );
    type BackendFactory2 = fn() -> Box<dyn Backend>;
    let factories: Vec<(&str, BackendFactory2)> = vec![
        ("IANUS", || {
            Box::new(IanusSystem::new(SystemConfig::ianus()))
        }),
        ("NPU-MEM", || {
            Box::new(IanusSystem::new(SystemConfig::npu_mem()))
        }),
        ("A100 (eager)", || Box::new(GpuModel::a100())),
    ];
    for (name, make) in factories {
        let mut probe = ServingSim::new(ServingConfig::long_prompt(1.0, 300))
            .boxed_replica(make())
            .scheduling(Scheduling::iteration(4));
        let rate = 0.8 * probe.sustainable_rate(&model, 0.02, 64.0);
        let run = |prefill_chunk| {
            ServingSim::new(ServingConfig::long_prompt(rate, 300))
                .boxed_replica(make())
                .scheduling(Scheduling::IterationLevel {
                    max_batch: 4,
                    prefill_chunk,
                    preempt: false,
                })
                .run(&model)
        };
        let mono = run(None);
        let chunked = run(Some(128));
        println!(
            "  {:<16} {:>5.1} r/s | {:>10.1} ms {:>10.1} ms {:>6.1}x",
            name,
            rate,
            mono.inter_token.p99.as_ms_f64(),
            chunked.inter_token.p99.as_ms_f64(),
            mono.inter_token.p99.as_ns_f64() / chunked.inter_token.p99.as_ns_f64().max(1.0),
        );
    }
}
