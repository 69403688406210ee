//! Design-choice ablations called out in DESIGN.md — knobs the paper
//! fixes (or defers to future work) and what they are worth:
//!
//! 1. PIM tile order (row-major, the paper's assumption, vs column-major)
//! 2. All-bank activation staging group size
//! 3. Macro-PIM-command overhead sensitivity (the calibrated PCU cost)
//! 4. DRAM refresh modelling on/off
//! 5. Capacity scaling: one clamshell (16 GB) device vs two 8 GB devices
//!    (the two options of Section 7.1)

use ianus_bench::banner;
use ianus_core::{IanusSystem, SystemConfig};
use ianus_dram::{GddrOrganization, GddrTimings, TransferModel};
use ianus_model::{ModelConfig, RequestShape, Stage};
use ianus_pim::{GemvShape, PimConfig, PimModel, TileOrder};
use ianus_sim::Duration;

fn main() {
    banner("Ablation 1: PIM tile order (GPT-2 XL FFN1, 6144x1536)");
    let model = PimModel::new(PimConfig::ianus_default());
    let shape = GemvShape::new(6144, 1536);
    for (name, order) in [
        ("row-major (paper)", TileOrder::RowMajor),
        ("column-major", TileOrder::ColMajor),
    ] {
        let c = model.gemv_with_order(shape, order);
        println!(
            "  {:<20} {:>9.2} us | GB fill {:>7} B, drain {:>7} B, {:>6.0} GB/s internal",
            name,
            c.total.as_us_f64(),
            c.gb_bytes,
            c.drain_bytes,
            c.internal_bandwidth_gbps()
        );
    }
    println!("  column-major trades global-buffer refills for per-tile partial-sum drains\n");

    banner("Ablation 2: all-bank activation staging group size");
    for group in [1u32, 2, 4, 8, 16] {
        let mut timings = GddrTimings::ianus_default();
        timings.act_group = group;
        let cfg = PimConfig {
            timings,
            ..PimConfig::ianus_default()
        };
        let c = PimModel::new(cfg).gemv(GemvShape::new(8192, 1024));
        println!(
            "  act_group = {group:>2}: {:>8.2} us ({:.0} GB/s internal)",
            c.total.as_us_f64(),
            c.internal_bandwidth_gbps()
        );
    }
    println!("  wider groups shorten the activation ramp until tRCD dominates\n");

    banner("Ablation 3: macro PIM command overhead (GPT-2 XL, token at past=256)");
    for overhead_ns in [0u64, 600, 1200, 1800, 2400, 3600] {
        let mut cfg = SystemConfig::ianus();
        cfg.pim_macro_overhead = Duration::from_ns(overhead_ns);
        let mut sys = IanusSystem::new(cfg);
        let s = sys.run_stage(
            &ModelConfig::gpt2_xl(),
            &Stage::Generation { past_tokens: 256 },
        );
        println!(
            "  overhead = {:>4} ns: {:>6.2} ms/token",
            overhead_ns,
            s.latency.as_ms_f64()
        );
    }
    println!("  the repo calibrates 1800 ns to match the paper's 3.8 ms/token\n");

    banner("Ablation 4: DRAM refresh modelling");
    let org = GddrOrganization::ianus_default();
    let t = GddrTimings::ianus_default();
    let without = TransferModel::new(org, t);
    let with = TransferModel::new(org, t).with_refresh(true);
    println!(
        "  nominal: {:.1} GB/s, with refresh: {:.1} GB/s ({:.1}% overhead)",
        without.effective_bandwidth_gbps(8),
        with.effective_bandwidth_gbps(8),
        t.refresh_overhead() * 100.0
    );
    let bytes = 2_900_000_000u64; // GPT-2 XL weights
    println!(
        "  XL weight stream: {:.2} ms -> {:.2} ms per token on NPU-MEM\n",
        without.bulk_read(bytes, 8).as_ms_f64(),
        with.bulk_read(bytes, 8).as_ms_f64()
    );

    banner("Ablation 5: capacity scaling for GPT 6.7B — clamshell vs more devices");
    let model67 = ModelConfig::gpt_6_7b();
    let req = RequestShape::new(256, 64);
    // Option 1 (Section 7.1): one device with clamshell GDDR6 (16 GB).
    let mut clam_cfg = SystemConfig::ianus();
    clam_cfg.org = GddrOrganization::ianus_clamshell();
    let mut clam = IanusSystem::new(clam_cfg);
    let one = clam.run_request(&model67, req);
    // Option 2 (the paper's choice): two standard devices.
    let mut two_dev = IanusSystem::new(SystemConfig::ianus().with_devices(2));
    let two = two_dev.run_request(&model67, req);
    println!(
        "  1x clamshell device (16 GB):  {:>8.1} ms  ({:.1} ms/token)",
        one.total.as_ms_f64(),
        one.per_token_latency().unwrap().as_ms_f64()
    );
    println!(
        "  2x standard devices (8 GB):   {:>8.1} ms  ({:.1} ms/token)",
        two.total.as_ms_f64(),
        two.per_token_latency().unwrap().as_ms_f64()
    );
    println!(
        "  more devices add PIM bandwidth with the capacity ({:.2}x faster) —\n\
         clamshell adds only capacity, which is why the paper scales devices",
        one.total.as_ns_f64() / two.total.as_ns_f64()
    );
}
