//! Device organization and timing parameters (paper Table 1).

use ianus_sim::Duration;

/// Physical organization of the GDDR6/AiM memory system attached to one
/// IANUS device.
///
/// The paper's configuration: 8 channels of ×16 GDDR6 at 16 Gb/s/pin
/// (32 B/ns per channel, 256 GB/s aggregate external bandwidth), 2 channels
/// per chip, 16 banks per channel, 2 KB rows, 8 GB total capacity.
///
/// # Examples
///
/// ```
/// use ianus_dram::GddrOrganization;
/// let org = GddrOrganization::ianus_default();
/// assert_eq!(org.external_bandwidth_gbps(), 256.0);
/// assert_eq!(org.capacity_bytes(), 8 << 30);
/// assert_eq!(org.rows_per_bank(), 32768);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GddrOrganization {
    /// Number of independent channels (paper: 8).
    pub channels: u32,
    /// Channels packaged per GDDR6-AiM chip (paper: 2).
    pub channels_per_chip: u32,
    /// Banks per channel (paper: 16).
    pub banks_per_channel: u32,
    /// Row (page) size in bytes (paper: 2 KB).
    pub row_bytes: u32,
    /// Bytes transferred per column burst (BL16 on a ×16 interface: 32 B).
    pub burst_bytes: u32,
    /// Per-pin data rate in Gb/s (paper: 16).
    pub pin_gbps: u32,
    /// Data pins per channel (×16 organization).
    pub pins: u32,
    /// Total capacity in bytes (paper: 8 GB).
    pub capacity: u64,
}

impl GddrOrganization {
    /// The paper's Table 1 organization.
    pub fn ianus_default() -> Self {
        GddrOrganization {
            channels: 8,
            channels_per_chip: 2,
            banks_per_channel: 16,
            row_bytes: 2048,
            burst_bytes: 32,
            pin_gbps: 16,
            pins: 16,
            capacity: 8 << 30,
        }
    }

    /// The clamshell configuration the paper's Section 7.1 mentions as
    /// the alternative capacity-scaling path: two ×8-mode devices share
    /// each channel, doubling capacity (16 GB) at unchanged per-channel
    /// bandwidth and bank count.
    pub fn ianus_clamshell() -> Self {
        GddrOrganization {
            capacity: 16 << 30,
            ..Self::ianus_default()
        }
    }

    /// Number of physical AiM chips.
    pub fn chips(&self) -> u32 {
        self.channels / self.channels_per_chip
    }

    /// Peak external (pin) bandwidth of one channel in bytes/ns (= GB/s).
    pub fn channel_bandwidth_bytes_per_ns(&self) -> f64 {
        (self.pin_gbps as f64 * self.pins as f64) / 8.0
    }

    /// Peak aggregate external bandwidth in GB/s.
    pub fn external_bandwidth_gbps(&self) -> f64 {
        self.channel_bandwidth_bytes_per_ns() * self.channels as f64
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Capacity of a single bank in bytes.
    pub fn bank_bytes(&self) -> u64 {
        self.capacity / u64::from(self.channels * self.banks_per_channel)
    }

    /// Number of rows in each bank.
    pub fn rows_per_bank(&self) -> u64 {
        self.bank_bytes() / u64::from(self.row_bytes)
    }

    /// Time for one column burst on the data pins.
    pub fn burst_duration(&self) -> Duration {
        // bytes / (bytes per ns)
        Duration::from_ns_f64(self.burst_bytes as f64 / self.channel_bandwidth_bytes_per_ns())
    }
}

/// DRAM timing parameters in the paper's Table 1.
///
/// All values are the paper's; `t_rrd` and `act_group` govern how all-bank
/// activation is staged for PIM (banks activate in power-limited groups),
/// which Table 1 leaves implicit — defaults follow GDDR6 datasheets.
///
/// # Examples
///
/// ```
/// use ianus_dram::GddrTimings;
/// let t = GddrTimings::ianus_default();
/// assert_eq!(t.t_rp.as_ns_f64(), 30.0);
/// assert_eq!(t.t_ccd_l.as_ns_f64(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GddrTimings {
    /// Command clock period (0.5 ns).
    pub t_ck: Duration,
    /// Column-to-column delay, different bank group (1 ns).
    pub t_ccd_s: Duration,
    /// Column-to-column delay, same bank group (1 ns).
    pub t_ccd_l: Duration,
    /// Minimum row-active time before precharge (21 ns).
    pub t_ras: Duration,
    /// Write recovery time (36 ns).
    pub t_wr: Duration,
    /// Precharge period (30 ns).
    pub t_rp: Duration,
    /// Activate-to-read delay (36 ns).
    pub t_rcd_rd: Duration,
    /// Activate-to-write delay (24 ns).
    pub t_rcd_wr: Duration,
    /// Activate-to-activate delay between different banks (power limit).
    pub t_rrd: Duration,
    /// Banks that may activate simultaneously in one PIM `ACT_ALL` stage.
    pub act_group: u32,
    /// Average refresh interval (one refresh command per tREFI).
    pub t_refi: Duration,
    /// Refresh cycle time (bank unavailable per refresh).
    pub t_rfc: Duration,
}

impl GddrTimings {
    /// The paper's Table 1 timings.
    pub fn ianus_default() -> Self {
        GddrTimings {
            t_ck: Duration::from_ps(500),
            t_ccd_s: Duration::from_ns(1),
            t_ccd_l: Duration::from_ns(1),
            t_ras: Duration::from_ns(21),
            t_wr: Duration::from_ns(36),
            t_rp: Duration::from_ns(30),
            t_rcd_rd: Duration::from_ns(36),
            t_rcd_wr: Duration::from_ns(24),
            t_rrd: Duration::from_ns(2),
            act_group: 4,
            t_refi: Duration::from_ns(1900),
            t_rfc: Duration::from_ns(120),
        }
    }

    /// Full row cycle: activate, min active window, precharge.
    pub fn row_cycle(&self) -> Duration {
        self.t_ras + self.t_rp
    }

    /// Fraction of time a bank spends refreshing (bandwidth lost to
    /// refresh when it cannot be hidden behind other banks).
    pub fn refresh_overhead(&self) -> f64 {
        self.t_rfc.as_ns_f64() / self.t_refi.as_ns_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_organization_matches_table1() {
        let org = GddrOrganization::ianus_default();
        assert_eq!(org.chips(), 4);
        assert_eq!(org.channel_bandwidth_bytes_per_ns(), 32.0);
        assert_eq!(org.external_bandwidth_gbps(), 256.0);
        assert_eq!(org.bank_bytes(), 64 << 20);
        assert_eq!(org.burst_duration(), Duration::from_ns(1));
    }

    #[test]
    fn clamshell_doubles_capacity_only() {
        let base = GddrOrganization::ianus_default();
        let clam = GddrOrganization::ianus_clamshell();
        assert_eq!(clam.capacity_bytes(), 2 * base.capacity_bytes());
        assert_eq!(
            clam.external_bandwidth_gbps(),
            base.external_bandwidth_gbps()
        );
        assert_eq!(clam.rows_per_bank(), 2 * base.rows_per_bank());
    }

    #[test]
    fn refresh_overhead_small() {
        let t = GddrTimings::ianus_default();
        let o = t.refresh_overhead();
        assert!(o > 0.03 && o < 0.10, "{o}");
    }

    #[test]
    fn default_timings_match_table1() {
        let t = GddrTimings::ianus_default();
        assert_eq!(t.t_ck.as_ps(), 500);
        assert_eq!(t.t_ras.as_ns_f64(), 21.0);
        assert_eq!(t.t_wr.as_ns_f64(), 36.0);
        assert_eq!(t.t_rcd_rd.as_ns_f64(), 36.0);
        assert_eq!(t.t_rcd_wr.as_ns_f64(), 24.0);
        assert_eq!(t.row_cycle().as_ns_f64(), 51.0);
    }
}
