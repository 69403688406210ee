//! Closed-form PIM operation cost model.
//!
//! [`PimModel`] prices a macro PIM command by walking its tile schedule
//! with the same timing constraints the [`crate::MicroExecutor`] enforces
//! per micro command — but in O(tiles) instead of O(micro commands), with
//! no per-bank state. The two are asserted equal in tests, so the system
//! simulator can use `PimModel` on hot paths with reference fidelity.

use crate::executor::AF_COST;
use crate::{GemvShape, PimConfig, Tiling};
use ianus_sim::{Duration, Time};

/// Cost and activity counts of one macro PIM operation.
///
/// The activity counts feed the Figure 11 dynamic-energy model: internal
/// weight reads (priced at 3× a normal DRAM read, per the paper's
/// assumption), global-buffer fill traffic and accumulator drain traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimOpCost {
    /// Makespan of the operation on its channel group.
    pub total: Duration,
    /// All-bank MAC micro commands issued (per channel).
    pub mac_commands: u64,
    /// DRAM row activations across all banks and channels.
    pub activations: u64,
    /// Bytes of weights streamed through the in-bank PUs (all channels).
    pub internal_bytes: u64,
    /// Bytes written into global buffers (input vector broadcast).
    pub gb_bytes: u64,
    /// Bytes of accumulator results drained to the NPU.
    pub drain_bytes: u64,
}

impl PimOpCost {
    /// Achieved internal bandwidth in GB/s.
    pub fn internal_bandwidth_gbps(&self) -> f64 {
        if self.total == Duration::ZERO {
            0.0
        } else {
            self.internal_bytes as f64 / self.total.as_ns_f64()
        }
    }
}

/// Fast analytic model of the PIM device.
///
/// # Examples
///
/// ```
/// use ianus_pim::{GemvShape, PimConfig, PimModel};
/// let m = PimModel::new(PimConfig::ianus_default());
/// let c = m.gemv(GemvShape::new(1024, 1024));
/// assert_eq!(c.mac_commands, 8 * 64);
/// assert_eq!(c.internal_bytes, 1024 * 1024 * 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PimModel {
    cfg: PimConfig,
}

impl PimModel {
    /// Creates a model for a device configuration.
    pub fn new(cfg: PimConfig) -> Self {
        PimModel { cfg }
    }

    /// The device configuration.
    pub fn config(&self) -> &PimConfig {
        &self.cfg
    }

    /// Matrix rows computed per tile (banks × channels).
    pub fn rows_per_tile(&self) -> u32 {
        self.cfg.org.banks_per_channel * self.cfg.channels
    }

    /// Prices a (batched) GEMV macro operation in the paper's row-major
    /// tile order.
    pub fn gemv(&self, shape: GemvShape) -> PimOpCost {
        self.gemv_with_order(shape, crate::TileOrder::RowMajor)
    }

    /// Prices a GEMV under a chosen tile order (the tiling ablation).
    /// Column-major order drains partial sums after every tile; the
    /// NPU-side re-accumulation cost is not included here.
    ///
    /// Batch items run back to back, so the walk goes item by item until
    /// it reaches a steady state: an item that advances every timing
    /// clock (bank-group activate readiness, bus, last MAC, global buffer,
    /// accumulator, horizon) by the same Δ. Each item's walk is a max-plus
    /// map of those clocks with no absolute time constant (its only one,
    /// `Time::ZERO`, never exceeds a clock inside a `max`), so every later
    /// item advances them by Δ again and the remaining items are priced
    /// exactly as `Δ × remaining`, in integer picoseconds. Batched GEMVs
    /// therefore cost O(tiles) rather than O(batch × tiles).
    pub fn gemv_with_order(&self, shape: GemvShape, order: crate::TileOrder) -> PimOpCost {
        let tiling = Tiling::new(&self.cfg, shape);
        let stages = self
            .cfg
            .org
            .banks_per_channel
            .div_ceil(self.cfg.timings.act_group.max(1)) as usize;
        let mut clocks = Clocks::new(stages);
        let mut before = clocks.clone();
        let mut stage_at = vec![Time::ZERO; stages];
        let mut end = Time::ZERO;
        let mut counts = (0, 0);
        for item in 0..shape.batch {
            let item_counts =
                self.walk_item(&tiling, order, shape.gelu, &mut clocks, &mut stage_at);
            if item == 0 {
                counts = item_counts;
            }
            end = clocks.horizon;
            if let Some(delta) = clocks.advance_over(&before) {
                end += delta * u64::from(shape.batch - item - 1);
                break;
            }
            before.clone_from(&clocks);
        }
        let (gb_beats_total, drains_total) = counts;

        let batch = u64::from(shape.batch);
        let macs = tiling.total_macs() * batch;
        let burst_bytes = u64::from(self.cfg.org.burst_bytes);
        let pus = u64::from(self.cfg.total_pus());
        // Each MAC micro command streams one burst through every PU.
        let internal_bytes = macs * burst_bytes * pus;
        // Every channel's global buffer is physically written per fill.
        let gb_bytes = gb_beats_total * burst_bytes * batch * u64::from(self.cfg.channels);
        // Each drain reads one accumulator per bank per channel (BF16).
        let drain_bytes = drains_total * 2 * batch * u64::from(self.cfg.channels);
        PimOpCost {
            total: end.since(Time::ZERO),
            mac_commands: macs,
            activations: tiling.activations() * batch,
            internal_bytes,
            gb_bytes,
            drain_bytes,
        }
    }

    /// Walks one batch item's tiles, advancing `clocks`. Returns the
    /// item's global-buffer beats and accumulator drains. `stage_at` is
    /// scratch space of one entry per activation stage.
    fn walk_item(
        &self,
        tiling: &Tiling,
        order: crate::TileOrder,
        gelu: bool,
        clocks: &mut Clocks,
        stage_at: &mut [Time],
    ) -> (u64, u64) {
        let t = self.cfg.timings;
        let burst = self.cfg.org.burst_duration();
        let stages = stage_at.len();
        let Clocks {
            act_ready,
            bus_free,
            last_mac,
            gb_ready,
            acc_free,
            horizon,
        } = clocks;
        let mut gb_beats: u64 = 0;
        let mut drains: u64 = 0;
        for tile in tiling.walk_with(order) {
            if tile.reload_gb {
                let beats = u64::from(tiling.gb_beats(tile.col_chunk));
                gb_beats += beats;
                let start = (*bus_free).max(*last_mac);
                let done = start + burst * beats;
                *bus_free = done;
                *gb_ready = done;
                *horizon = (*horizon).max(done);
            }
            // Staged all-bank activation.
            for s in 0..stages {
                let want = if s == 0 {
                    Time::ZERO
                } else {
                    stage_at[s - 1] + t.t_rrd
                };
                stage_at[s] = want.max(act_ready[s]);
            }
            let data_ready = stage_at[stages - 1] + t.t_rcd_rd;
            let first_mac = (*last_mac + t.t_ccd_l)
                .max(*gb_ready)
                .max(*acc_free)
                .max(data_ready);
            *last_mac = first_mac + t.t_ccd_l * (u64::from(tile.macs) - 1);
            *horizon = (*horizon).max(*last_mac + burst);
            // Per-group precharge and next-activate readiness.
            for s in 0..stages {
                let pre = (*last_mac).max(stage_at[s] + t.t_ras);
                act_ready[s] = pre + t.t_rp;
                *horizon = (*horizon).max(act_ready[s]);
            }
            if tile.last_chunk {
                drains += u64::from(self.cfg.org.banks_per_channel);
                let af_done = if gelu { *last_mac + AF_COST } else { *last_mac };
                *horizon = (*horizon).max(af_done);
                let beats = u64::from(self.cfg.org.banks_per_channel);
                let start = (*bus_free).max(*last_mac).max(af_done);
                let end = start + t.t_ccd_l * beats;
                *bus_free = end;
                *acc_free = end;
                *horizon = (*horizon).max(end);
            }
        }
        (gb_beats, drains)
    }
}

/// The timing state a GEMV's tile walk carries from one batch item to the
/// next.
#[derive(Debug, Clone)]
struct Clocks {
    /// Per activation-stage bank-group readiness (ACT may issue when the
    /// group's previous precharge + tRP has elapsed).
    act_ready: Vec<Time>,
    bus_free: Time,
    last_mac: Time,
    gb_ready: Time,
    acc_free: Time,
    /// Latest completion of any command so far.
    horizon: Time,
}

impl Clocks {
    fn new(stages: usize) -> Self {
        Clocks {
            act_ready: vec![Time::ZERO; stages],
            bus_free: Time::ZERO,
            last_mac: Time::ZERO,
            gb_ready: Time::ZERO,
            acc_free: Time::ZERO,
            horizon: Time::ZERO,
        }
    }

    /// `Some(Δ)` if every clock is exactly `Δ` past its value in
    /// `before`.
    fn advance_over(&self, before: &Clocks) -> Option<Duration> {
        let delta = self.horizon.since(before.horizon);
        let moved = |now: Time, then: Time| now == then + delta;
        let all = moved(self.bus_free, before.bus_free)
            && moved(self.last_mac, before.last_mac)
            && moved(self.gb_ready, before.gb_ready)
            && moved(self.acc_free, before.acc_free)
            && self
                .act_ready
                .iter()
                .zip(&before.act_ready)
                .all(|(&now, &then)| moved(now, then));
        all.then_some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MacroCommand, MicroExecutor, TileOrder};
    use proptest::prelude::*;

    /// The item-by-item walk, with no steady-state shortcut: the
    /// reference the steady-state pricing must match exactly.
    fn reference(m: &PimModel, shape: GemvShape, order: TileOrder) -> PimOpCost {
        let cfg = m.cfg;
        let t = cfg.timings;
        let burst = cfg.org.burst_duration();
        let tiling = Tiling::new(&cfg, shape);
        let stages = cfg.org.banks_per_channel.div_ceil(t.act_group.max(1)) as usize;
        let mut act_ready = vec![Time::ZERO; stages];
        let mut bus_free = Time::ZERO;
        let mut last_mac = Time::ZERO;
        let mut gb_ready = Time::ZERO;
        let mut acc_free = Time::ZERO;
        let mut horizon = Time::ZERO;
        let mut gb_beats_total: u64 = 0;
        let mut drains_total: u64 = 0;
        for batch_item in 0..shape.batch {
            for tile in tiling.walk_with(order) {
                if tile.reload_gb {
                    let beats = u64::from(tiling.gb_beats(tile.col_chunk));
                    if batch_item == 0 {
                        gb_beats_total += beats;
                    }
                    let start = bus_free.max(last_mac);
                    let done = start + burst * beats;
                    bus_free = done;
                    gb_ready = done;
                    horizon = horizon.max(done);
                }
                let mut stage_at = vec![Time::ZERO; stages];
                for s in 0..stages {
                    let want = if s == 0 {
                        Time::ZERO
                    } else {
                        stage_at[s - 1] + t.t_rrd
                    };
                    stage_at[s] = want.max(act_ready[s]);
                }
                let data_ready = stage_at[stages - 1] + t.t_rcd_rd;
                let first_mac = (last_mac + t.t_ccd_l)
                    .max(gb_ready)
                    .max(acc_free)
                    .max(data_ready);
                last_mac = first_mac + t.t_ccd_l * (u64::from(tile.macs) - 1);
                horizon = horizon.max(last_mac + burst);
                for s in 0..stages {
                    let pre = last_mac.max(stage_at[s] + t.t_ras);
                    act_ready[s] = pre + t.t_rp;
                    horizon = horizon.max(act_ready[s]);
                }
                if tile.last_chunk {
                    if batch_item == 0 {
                        drains_total += u64::from(cfg.org.banks_per_channel);
                    }
                    let af_done = if shape.gelu {
                        last_mac + AF_COST
                    } else {
                        last_mac
                    };
                    horizon = horizon.max(af_done);
                    let beats = u64::from(cfg.org.banks_per_channel);
                    let start = bus_free.max(last_mac).max(af_done);
                    let end = start + t.t_ccd_l * beats;
                    bus_free = end;
                    acc_free = end;
                    horizon = horizon.max(end);
                }
            }
        }
        let batch = u64::from(shape.batch);
        let macs = tiling.total_macs() * batch;
        let burst_bytes = u64::from(cfg.org.burst_bytes);
        PimOpCost {
            total: horizon.since(Time::ZERO),
            mac_commands: macs,
            activations: tiling.activations() * batch,
            internal_bytes: macs * burst_bytes * u64::from(cfg.total_pus()),
            gb_bytes: gb_beats_total * burst_bytes * batch * u64::from(cfg.channels),
            drain_bytes: drains_total * 2 * batch * u64::from(cfg.channels),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn steady_state_equals_item_by_item_walk(
            rows in 1u64..2048,
            cols in 1u64..3072,
            batch in 1u32..513,
            gelu in any::<bool>(),
            col_major in any::<bool>(),
            channels in prop::sample::select(vec![1u32, 2, 4, 8]),
        ) {
            let m = PimModel::new(PimConfig::ianus_default().with_channels(channels));
            let order = if col_major { TileOrder::ColMajor } else { TileOrder::RowMajor };
            let shape = GemvShape::new(rows, cols).with_batch(batch).with_gelu(gelu);
            prop_assert_eq!(m.gemv_with_order(shape, order), reference(&m, shape, order));
        }
    }

    #[test]
    fn steady_state_equals_walk_on_model_shapes() {
        // The GEMVs the compiler prices: per-core slices of GPT-2 XL and
        // 2.5B FCs and attention products, at decode and prefill batches.
        let m = model();
        for (rows, cols, gelu) in [
            (1152, 1536, false),
            (1536, 1536, false),
            (1536, 1536, true),
            (384, 1536, false),
            (1600, 6400, false),
            (12565, 1600, false),
            (301, 64, false),
            (64, 301, false),
        ] {
            for batch in [1, 2, 3, 7, 64, 128, 511, 512] {
                let shape = GemvShape::new(rows, cols).with_batch(batch).with_gelu(gelu);
                for order in [TileOrder::RowMajor, TileOrder::ColMajor] {
                    assert_eq!(
                        m.gemv_with_order(shape, order),
                        reference(&m, shape, order),
                        "{shape:?} {order:?}"
                    );
                }
            }
        }
    }

    fn model() -> PimModel {
        PimModel::new(PimConfig::ianus_default())
    }

    fn agree(shape: GemvShape) {
        let cfg = PimConfig::ianus_default();
        let analytic = PimModel::new(cfg).gemv(shape).total;
        let reference = MicroExecutor::new(cfg).run_macro(&MacroCommand::Gemv(shape));
        assert_eq!(
            analytic, reference,
            "shape {shape:?}: analytic {analytic} vs executor {reference}"
        );
    }

    #[test]
    fn matches_executor_on_key_shapes() {
        for shape in [
            GemvShape::new(128, 1024),
            GemvShape::new(1024, 1024),
            GemvShape::new(6144, 1536),  // GPT-2 XL FFN
            GemvShape::new(1920, 1920),  // GPT-2 2.5B ragged
            GemvShape::new(50257, 1600), // LM head-ish
            GemvShape::new(100, 64),     // QK^T head slice
            GemvShape::new(4096, 1024).with_gelu(true),
            GemvShape::new(1024, 4096).with_batch(3),
            GemvShape::new(384, 1536).with_batch(2),
            GemvShape::new(256, 2048).with_batch(8).with_gelu(true),
            GemvShape::new(1000, 64).with_batch(8),
            GemvShape::new(130, 1100).with_batch(32),
            GemvShape::new(64, 301).with_batch(32).with_gelu(true),
        ] {
            agree(shape);
        }
    }

    #[test]
    fn matches_executor_on_channel_subsets() {
        for ch in [1, 2, 4, 8] {
            let cfg = PimConfig::ianus_default().with_channels(ch);
            let shape = GemvShape::new(768, 768);
            let analytic = PimModel::new(cfg).gemv(shape).total;
            let reference = MicroExecutor::new(cfg).run_macro(&MacroCommand::Gemv(shape));
            assert_eq!(analytic, reference, "channels {ch}");
        }
    }

    #[test]
    fn counts_are_consistent() {
        // 2048×2048: 16 row blocks × 2 column chunks × 64 MACs each.
        let c = model().gemv(GemvShape::new(2048, 2048));
        assert_eq!(c.mac_commands, 16 * 2 * 64);
        assert_eq!(c.internal_bytes, 2048 * 2048 * 2);
        assert_eq!(c.activations, 16 * 2 * 128);
        assert_eq!(c.drain_bytes, 2048 * 2);
        // Multi-chunk walk reloads both chunks per row block on all 8
        // channels: 16 × 2 KB × 2 × 8.
        assert_eq!(c.gb_bytes, 16 * 2048 * 2 * 8);
    }

    #[test]
    fn time_proportional_to_batch() {
        let m = model();
        let t1 = m.gemv(GemvShape::new(4096, 1024)).total;
        let t8 = m.gemv(GemvShape::new(4096, 1024).with_batch(8)).total;
        let r = t8.as_ns_f64() / t1.as_ns_f64();
        assert!(r > 7.5 && r < 8.5, "ratio {r}");
    }

    #[test]
    fn tile_order_traffic_tradeoff() {
        // The tiling ablation: row-major reloads the global buffer per
        // tile but drains once per row block; column-major is the
        // opposite. Traffic counters must reflect exactly that.
        let m = model();
        let shape = GemvShape::new(2048, 2048); // 16 row blocks × 2 chunks
        let row = m.gemv_with_order(shape, crate::TileOrder::RowMajor);
        let col = m.gemv_with_order(shape, crate::TileOrder::ColMajor);
        assert!(row.gb_bytes > col.gb_bytes);
        assert!(col.drain_bytes > row.drain_bytes);
        assert_eq!(row.internal_bytes, col.internal_bytes);
        // Single-chunk shapes are identical under both orders.
        let s1 = GemvShape::new(2048, 1024);
        assert_eq!(
            m.gemv_with_order(s1, crate::TileOrder::RowMajor),
            m.gemv_with_order(s1, crate::TileOrder::ColMajor)
        );
    }

    #[test]
    fn xl_decoder_fc_latency_regime() {
        // All per-decoder FC weights of GPT-2 XL ≈ 28.3M params: at ~47%
        // of 4096 GB/s the PIM time should be in the tens of microseconds.
        let m = model();
        let qkv = m.gemv(GemvShape::new(3 * 1536, 1536)).total;
        let proj = m.gemv(GemvShape::new(1536, 1536)).total;
        let ffn1 = m.gemv(GemvShape::new(6144, 1536).with_gelu(true)).total;
        let ffn2 = m.gemv(GemvShape::new(1536, 6144)).total;
        let per_decoder = qkv + proj + ffn1 + ffn2;
        assert!(
            per_decoder.as_us_f64() > 15.0 && per_decoder.as_us_f64() < 45.0,
            "{per_decoder}"
        );
    }
}
