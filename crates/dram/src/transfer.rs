//! Closed-form bulk transfer cost model for normal (non-PIM) DRAM traffic.
//!
//! NPU DMA traffic in IANUS is overwhelmingly long sequential streams
//! (weight matrices, KV cache blocks). Under the Figure 5 address mapping a
//! stream walks columns within a bank row, then banks, then channels, then
//! rows — so per-bank activate/precharge latency overlaps with transfers
//! from the 15 other banks, and sustained bandwidth approaches the pin rate.
//! We model a stream as: fixed access latency (first activate + tRCDRD),
//! then pin-rate data transfer de-rated by a row-turnaround efficiency.

use crate::{GddrOrganization, GddrTimings};
use ianus_sim::Duration;

/// Cost model for bulk sequential reads/writes.
///
/// # Examples
///
/// ```
/// use ianus_dram::{GddrOrganization, GddrTimings, TransferModel};
/// let org = GddrOrganization::ianus_default();
/// let m = TransferModel::new(org, GddrTimings::ianus_default());
/// // 256 MB over 8 channels at ~32 GB/s/channel: ~1 ms.
/// let t = m.bulk_read(256 << 20, 8);
/// assert!(t.as_ms_f64() > 0.9 && t.as_ms_f64() < 1.3);
/// // More channels, faster:
/// assert!(m.bulk_read(1 << 20, 8) < m.bulk_read(1 << 20, 2));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TransferModel {
    org: GddrOrganization,
    timings: GddrTimings,
    /// [`Self::stream_efficiency`], computed once per model: every DMA
    /// command the compiler prices reads it.
    efficiency: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel::new(
            GddrOrganization::ianus_default(),
            GddrTimings::ianus_default(),
        )
    }
}

impl TransferModel {
    /// Creates a model from an organization and timing set. Refresh
    /// modelling is off by default (the paper's 256 GB/s is nominal);
    /// enable it with [`Self::with_refresh`] for the refresh ablation.
    pub fn new(org: GddrOrganization, timings: GddrTimings) -> Self {
        TransferModel {
            org,
            timings,
            efficiency: Self::efficiency(org, timings, false),
        }
    }

    /// Enables or disables refresh-overhead derating (tRFC per tREFI of
    /// lost bandwidth).
    pub fn with_refresh(self, refresh: bool) -> Self {
        TransferModel {
            efficiency: Self::efficiency(self.org, self.timings, refresh),
            ..self
        }
    }

    /// Organization the model was built with.
    pub fn organization(&self) -> GddrOrganization {
        self.org
    }

    /// Fraction of pin bandwidth sustained by an interleaved sequential
    /// stream.
    ///
    /// Each bank supplies a 2 KB row in 64 ns of bursts and needs
    /// tRAS+tRP = 51 ns of turnaround; with 16 banks interleaved the
    /// turnaround of one bank hides behind 15 banks' worth of data, so the
    /// efficiency is `min(1, banks*row_time / (row_cycle + ... ))`, which
    /// saturates at 1.0 for the default organization. The model still
    /// de-rates streams too short to cover the first row activation.
    pub fn stream_efficiency(&self) -> f64 {
        self.efficiency
    }

    fn efficiency(org: GddrOrganization, timings: GddrTimings, refresh: bool) -> f64 {
        let row_transfer_ns = org.row_bytes as f64 / org.channel_bandwidth_bytes_per_ns();
        let turnaround_ns = timings.row_cycle().as_ns_f64();
        let banks = org.banks_per_channel as f64;
        // One bank must re-open its next row while the other banks stream.
        let eff = ((banks - 1.0) * row_transfer_ns / turnaround_ns).min(1.0);
        if refresh {
            eff * (1.0 - timings.refresh_overhead())
        } else {
            eff
        }
    }

    /// Fixed latency before the first data beat of a read stream.
    pub fn read_latency(&self) -> Duration {
        self.timings.t_rcd_rd + self.timings.t_ck * 2
    }

    /// Fixed latency before the first data beat of a write stream.
    pub fn write_latency(&self) -> Duration {
        self.timings.t_rcd_wr + self.timings.t_ck * 2
    }

    /// Duration of a sequential read of `bytes` striped across `channels`
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or exceeds the organization's channels.
    pub fn bulk_read(&self, bytes: u64, channels: u32) -> Duration {
        self.read_latency() + self.data_time(bytes, channels)
    }

    /// Duration of a sequential write of `bytes` striped across `channels`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or exceeds the organization's channels.
    pub fn bulk_write(&self, bytes: u64, channels: u32) -> Duration {
        self.write_latency() + self.data_time(bytes, channels)
    }

    /// Pure data-beat time (no fixed latency), used when modelling streams
    /// pipelined behind other work.
    pub fn data_time(&self, bytes: u64, channels: u32) -> Duration {
        assert!(
            channels > 0 && channels <= self.org.channels,
            "channel count {channels} out of range"
        );
        if bytes == 0 {
            return Duration::ZERO;
        }
        let bw =
            self.org.channel_bandwidth_bytes_per_ns() * channels as f64 * self.stream_efficiency();
        // Transfers are whole bursts.
        let bursts = bytes.div_ceil(u64::from(self.org.burst_bytes));
        let eff_bytes = bursts * u64::from(self.org.burst_bytes);
        Duration::from_ns_f64(eff_bytes as f64 / bw)
    }

    /// Effective sustained bandwidth over `channels` channels, in GB/s.
    pub fn effective_bandwidth_gbps(&self, channels: u32) -> f64 {
        self.org.channel_bandwidth_bytes_per_ns() * channels as f64 * self.stream_efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TransferModel {
        TransferModel::default()
    }

    #[test]
    fn efficiency_saturates_for_default_org() {
        // 15 banks × 64 ns row transfer ≫ 51 ns turnaround.
        assert_eq!(model().stream_efficiency(), 1.0);
    }

    #[test]
    fn bandwidth_matches_table2() {
        assert_eq!(model().effective_bandwidth_gbps(8), 256.0);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let m = model();
        assert_eq!(m.bulk_read(0, 8), m.read_latency());
        assert_eq!(m.data_time(0, 4), Duration::ZERO);
    }

    #[test]
    fn rounds_up_to_burst() {
        let m = model();
        assert_eq!(m.data_time(1, 8), m.data_time(32, 8));
        assert!(m.data_time(33, 8) > m.data_time(32, 8));
    }

    #[test]
    fn scales_with_channels() {
        let m = model();
        let one = m.data_time(1 << 20, 1);
        let eight = m.data_time(1 << 20, 8);
        let ratio = one.as_ns_f64() / eight.as_ns_f64();
        assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_channels_panics() {
        let _ = model().data_time(64, 9);
    }

    #[test]
    fn refresh_derates_bandwidth() {
        let base = model();
        let with = TransferModel::default().with_refresh(true);
        assert!(with.stream_efficiency() < base.stream_efficiency());
        assert!(with.effective_bandwidth_gbps(8) > 230.0);
        assert!(with.bulk_read(1 << 24, 8) > base.bulk_read(1 << 24, 8));
    }

    #[test]
    fn gpt2_xl_weight_stream_time() {
        // 3.2 GB of weights at 256 GB/s ≈ 12.5 ms — the paper's NPU-MEM
        // generation bottleneck (≈ 15.5 ms/token including compute).
        let m = model();
        let t = m.bulk_read(3_200_000_000, 8);
        assert!(t.as_ms_f64() > 11.0 && t.as_ms_f64() < 14.0, "{t}");
    }
}
