//! Dynamic energy model (Section 6.1's methodology, Figure 11).
//!
//! The paper's simulator reports dynamic energy of NPU cores, PIM
//! operations and standard DRAM operations, assuming PIM computing power
//! is 3× DRAM-read power. We reproduce that accounting: the compiler
//! accumulates [`Activity`] counters (bytes moved, rows activated, FLOPs
//! executed) and [`EnergyModel`] converts them to picojoules.

/// Activity counters accumulated during compilation/execution of a stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Activity {
    /// Bytes read from DRAM over the external interface (weights, KV
    /// cache, PIM inputs fetched by DMA).
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM over the external interface.
    pub dram_write_bytes: u64,
    /// Bytes streamed through in-bank PUs by PIM MAC commands.
    pub pim_internal_bytes: u64,
    /// DRAM row activations issued by PIM operations.
    pub pim_activations: u64,
    /// Bytes written into PIM global buffers.
    pub pim_gb_bytes: u64,
    /// Bytes drained from PIM accumulators.
    pub pim_drain_bytes: u64,
    /// Matrix-unit FLOPs.
    pub mu_flops: u64,
    /// Vector-unit lane-operations.
    pub vu_ops: u64,
    /// Bytes moved on-chip (transposes, scratchpad streams).
    pub onchip_bytes: u64,
}

impl Activity {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Activity::default()
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &Activity) {
        *self = self.zip(other, |a, b| a + b);
    }

    /// Counters combined pairwise by `f`.
    pub(crate) fn zip(&self, other: &Activity, f: impl Fn(u64, u64) -> u64) -> Activity {
        Activity {
            dram_read_bytes: f(self.dram_read_bytes, other.dram_read_bytes),
            dram_write_bytes: f(self.dram_write_bytes, other.dram_write_bytes),
            pim_internal_bytes: f(self.pim_internal_bytes, other.pim_internal_bytes),
            pim_activations: f(self.pim_activations, other.pim_activations),
            pim_gb_bytes: f(self.pim_gb_bytes, other.pim_gb_bytes),
            pim_drain_bytes: f(self.pim_drain_bytes, other.pim_drain_bytes),
            mu_flops: f(self.mu_flops, other.mu_flops),
            vu_ops: f(self.vu_ops, other.vu_ops),
            onchip_bytes: f(self.onchip_bytes, other.onchip_bytes),
        }
    }

    /// All counters scaled by an integer factor (identical repeated
    /// stages).
    pub fn scaled(&self, factor: f64) -> Activity {
        let s = |v: u64| (v as f64 * factor).round() as u64;
        Activity {
            dram_read_bytes: s(self.dram_read_bytes),
            dram_write_bytes: s(self.dram_write_bytes),
            pim_internal_bytes: s(self.pim_internal_bytes),
            pim_activations: s(self.pim_activations),
            pim_gb_bytes: s(self.pim_gb_bytes),
            pim_drain_bytes: s(self.pim_drain_bytes),
            mu_flops: s(self.mu_flops),
            vu_ops: s(self.vu_ops),
            onchip_bytes: s(self.onchip_bytes),
        }
    }
}

/// Energy by source — the three bars of Figure 11.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// "GDDR6: Normal op" — external DRAM reads/writes.
    pub dram_normal_pj: f64,
    /// "GDDR6: PIM op" — in-memory computation.
    pub pim_pj: f64,
    /// "NPU's cores" — matrix/vector/scratchpad activity.
    pub core_pj: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.dram_normal_pj + self.pim_pj + self.core_pj
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.dram_normal_pj += other.dram_normal_pj;
        self.pim_pj += other.pim_pj;
        self.core_pj += other.core_pj;
    }

    /// Scaled copy.
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            dram_normal_pj: self.dram_normal_pj * factor,
            pim_pj: self.pim_pj * factor,
            core_pj: self.core_pj * factor,
        }
    }
}

/// Converts activity counters into dynamic energy.
///
/// Coefficients are GDDR6/accelerator-class estimates; only ratios matter
/// for the paper's normalized Figure 11. The defining assumption — PIM
/// computation consumes 3× the power of a DRAM read for the same data —
/// is encoded as `pim_internal_per_byte = 3 × dram_per_byte`.
///
/// # Examples
///
/// ```
/// use ianus_core::EnergyModel;
/// let m = EnergyModel::default();
/// // 3× read power at 16× internal bandwidth: 3/16 of a read per byte.
/// assert!((m.pim_internal_per_byte / m.dram_per_byte - 3.0 / 16.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// pJ per byte of external DRAM read/write.
    pub dram_per_byte: f64,
    /// pJ per DRAM row activation.
    pub dram_per_activation: f64,
    /// pJ per byte streamed through PIM PUs (3× read, per the paper).
    pub pim_internal_per_byte: f64,
    /// pJ per matrix-unit FLOP.
    pub mu_per_flop: f64,
    /// pJ per vector-unit lane-op.
    pub vu_per_op: f64,
    /// pJ per on-chip byte moved.
    pub onchip_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        let dram_per_byte = 56.0; // ≈7 pJ/bit GDDR6 I/O + array
                                  // The paper assumes PIM computing *power* is 3× DRAM-read power.
                                  // PIM streams data at the internal bandwidth — 16× the external
                                  // rate (512 vs 32 GB/s per channel) — so per byte it spends
                                  // 3/16 of an external read's energy. This is why offloading wins
                                  // in Figure 11 despite the higher instantaneous power.
        let internal_speedup = 16.0;
        EnergyModel {
            dram_per_byte,
            dram_per_activation: 1500.0,
            pim_internal_per_byte: 3.0 * dram_per_byte / internal_speedup,
            mu_per_flop: 0.4,
            vu_per_op: 2.0,
            onchip_per_byte: 1.0,
        }
    }
}

impl EnergyModel {
    /// Converts counters to energy.
    pub fn energy(&self, a: &Activity) -> EnergyBreakdown {
        let normal_bytes = (a.dram_read_bytes + a.dram_write_bytes) as f64;
        // Normal streams activate a row per 2 KB on average.
        let normal_acts = normal_bytes / 2048.0;
        EnergyBreakdown {
            dram_normal_pj: normal_bytes * self.dram_per_byte
                + normal_acts * self.dram_per_activation,
            pim_pj: a.pim_internal_bytes as f64 * self.pim_internal_per_byte
                + a.pim_activations as f64 * self.dram_per_activation
                + (a.pim_gb_bytes + a.pim_drain_bytes) as f64 * self.dram_per_byte,
            core_pj: a.mu_flops as f64 * self.mu_per_flop
                + a.vu_ops as f64 * self.vu_per_op
                + a.onchip_bytes as f64 * self.onchip_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_scale() {
        let mut a = Activity::new();
        a.dram_read_bytes = 100;
        let mut b = Activity::new();
        b.dram_read_bytes = 50;
        b.mu_flops = 10;
        a.merge(&b);
        assert_eq!(a.dram_read_bytes, 150);
        let s = a.scaled(2.0);
        assert_eq!(s.dram_read_bytes, 300);
        assert_eq!(s.mu_flops, 20);
    }

    #[test]
    fn pim_byte_cheaper_than_external_transfer_roundtrip() {
        // Moving a byte out of DRAM and MACing it on the NPU costs the
        // DRAM read + core FLOPs; PIM charges 3× read but no transfer.
        // For weight-streaming GEMV, PIM must win on our coefficients,
        // matching Figure 11's 10.5–13.4× normal-op reduction argument.
        let m = EnergyModel::default();
        let mut npu_mem = Activity::new();
        npu_mem.dram_read_bytes = 1_000_000;
        npu_mem.mu_flops = 1_000_000; // 1 MAC per weight byte is generous
        let mut ianus = Activity::new();
        ianus.pim_internal_bytes = 1_000_000;
        ianus.pim_activations = 1_000_000 / 2048;
        let e_npu = m.energy(&npu_mem).total_pj();
        let e_pim = m.energy(&ianus).total_pj();
        assert!(e_pim < e_npu, "pim {e_pim} vs npu-mem {e_npu}");
    }

    #[test]
    fn breakdown_totals() {
        let m = EnergyModel::default();
        let mut a = Activity::new();
        a.dram_read_bytes = 2048;
        a.vu_ops = 10;
        let e = m.energy(&a);
        assert!(e.total_pj() > 0.0);
        assert_eq!(e.total_pj(), e.dram_normal_pj + e.pim_pj + e.core_pj);
    }
}
