//! System-level configuration (Tables 1 and 2).

use crate::pas::PasPolicy;
use ianus_dram::{GddrOrganization, GddrTimings, TransferModel};
use ianus_npu::NpuConfig;
use ianus_pim::PimConfig;
use ianus_sim::Duration;

/// Main-memory organization (Section 3.2 / Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryPolicy {
    /// IANUS: the PIM array is also the NPU's main memory. All 8 channels
    /// serve both normal accesses and PIM computation, which therefore
    /// conflict and are arbitrated by PAS.
    Unified,
    /// Half the channels are plain NPU DRAM, half are PIM accelerator
    /// memory; shared FC parameters are duplicated where capacity allows.
    Partitioned,
    /// NPU-MEM baseline: plain GDDR6 only, PIM compute disabled.
    NpuMemOnly,
}

/// Full configuration of one IANUS device (plus device count for the
/// Section 7 scalability studies).
///
/// # Examples
///
/// ```
/// use ianus_core::{MemoryPolicy, SystemConfig};
/// let cfg = SystemConfig::ianus();
/// assert_eq!(cfg.memory, MemoryPolicy::Unified);
/// assert_eq!(cfg.pim_groups(), 4);            // 8 channels / 4 cores
/// assert_eq!(cfg.pim_channels_per_group(), 2); // one AiM chip per core
/// let nm = SystemConfig::npu_mem();
/// assert_eq!(nm.memory, MemoryPolicy::NpuMemOnly);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// NPU configuration (cores, units, scratchpads).
    pub npu: NpuConfig,
    /// DRAM organization of the device's 8 GB memory.
    pub org: GddrOrganization,
    /// DRAM timings.
    pub timings: GddrTimings,
    /// Memory organization policy.
    pub memory: MemoryPolicy,
    /// PAS policy (mapping + scheduling).
    pub pas: PasPolicy,
    /// Number of AiM chips with active PIM compute (Figure 15 varies
    /// this while keeping memory bandwidth constant). Each chip
    /// contributes 2 channels of PIM compute.
    pub pim_chips: u32,
    /// Number of ganged IANUS devices (Section 7; 1 for a single device).
    pub devices: u32,
    /// PCIe 5.0 ×16 host/device interconnect bandwidth in GB/s.
    pub pcie_gbps: f64,
    /// PCIe transfer latency (per synchronization message).
    pub pcie_latency: Duration,
    /// Host DRAM reserved for swapped-out KV caches, in bytes — the
    /// finite pool `Backend::host_kv_bytes` reports for this device (a
    /// device group shares one host, so the pool does not scale with
    /// the device count). Swap-outs that would overflow it fall back to
    /// recompute-based eviction in the serving engine.
    pub host_kv_bytes: u64,
    /// Fixed cost of one macro PIM command beyond its micro-command
    /// schedule: command-scheduler hand-off to the PCU, macro→micro
    /// decode, input-vector marshalling from the core, and the completion
    /// signal that re-enables DMA (Section 4.3). Calibrated so simulated
    /// per-token generation latencies track the paper's (e.g. ≈3.8 ms per
    /// GPT-2 XL token).
    pub pim_macro_overhead: Duration,
}

impl SystemConfig {
    /// The paper's IANUS configuration (Table 1).
    pub fn ianus() -> Self {
        SystemConfig {
            npu: NpuConfig::ianus_default(),
            org: GddrOrganization::ianus_default(),
            timings: GddrTimings::ianus_default(),
            memory: MemoryPolicy::Unified,
            pas: PasPolicy::ianus(),
            pim_chips: 4,
            devices: 1,
            pcie_gbps: 64.0,
            pcie_latency: Duration::from_ns(1500),
            host_kv_bytes: 32 << 30,
            pim_macro_overhead: Duration::from_ns(1800),
        }
    }

    /// The NPU-MEM baseline: identical NPU, plain GDDR6, no PIM compute.
    pub fn npu_mem() -> Self {
        SystemConfig {
            memory: MemoryPolicy::NpuMemOnly,
            ..Self::ianus()
        }
    }

    /// The partitioned-memory comparison system of Figure 13.
    pub fn partitioned() -> Self {
        SystemConfig {
            memory: MemoryPolicy::Partitioned,
            ..Self::ianus()
        }
    }

    /// Overrides the PAS policy.
    pub fn with_pas(mut self, pas: PasPolicy) -> Self {
        self.pas = pas;
        self
    }

    /// Overrides the core count (Figure 15).
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.npu = self.npu.with_cores(cores);
        self
    }

    /// Overrides the PIM chip count (Figure 15).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or exceeds the organization's chips.
    pub fn with_pim_chips(mut self, chips: u32) -> Self {
        assert!(
            chips > 0 && chips <= self.org.chips(),
            "pim chip count {chips} out of range"
        );
        self.pim_chips = chips;
        self
    }

    /// Overrides the host-side KV swap pool (bytes).
    pub fn with_host_kv_bytes(mut self, bytes: u64) -> Self {
        self.host_kv_bytes = bytes;
        self
    }

    /// Overrides the device count (Figures 17/18).
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn with_devices(mut self, devices: u32) -> Self {
        assert!(devices > 0, "device count must be positive");
        self.devices = devices;
        self
    }

    /// Channels with PIM compute capability.
    pub fn pim_channels(&self) -> u32 {
        match self.memory {
            MemoryPolicy::Unified => self.pim_chips * self.org.channels_per_chip,
            // Half the channels belong to the PIM side of the partition.
            MemoryPolicy::Partitioned => {
                (self.pim_chips * self.org.channels_per_chip).min(self.org.channels / 2)
            }
            MemoryPolicy::NpuMemOnly => 0,
        }
    }

    /// Channels available for normal NPU memory traffic.
    pub fn npu_channels(&self) -> u32 {
        match self.memory {
            MemoryPolicy::Unified | MemoryPolicy::NpuMemOnly => self.org.channels,
            MemoryPolicy::Partitioned => self.org.channels / 2,
        }
    }

    /// Independent PIM channel groups (one per core where possible; cores
    /// share groups when PIM chips are scarce).
    pub fn pim_groups(&self) -> u32 {
        self.pim_channels().min(self.npu.cores).max(1)
    }

    /// Channels per PIM group.
    pub fn pim_channels_per_group(&self) -> u32 {
        if self.pim_channels() == 0 {
            0
        } else {
            (self.pim_channels() / self.pim_groups()).max(1)
        }
    }

    /// PIM configuration of one channel group.
    ///
    /// # Panics
    ///
    /// Panics if the memory policy has no PIM compute.
    pub fn pim_group_config(&self) -> PimConfig {
        assert!(
            self.pim_channels() > 0,
            "memory policy {:?} has no PIM compute",
            self.memory
        );
        PimConfig {
            org: self.org,
            timings: self.timings,
            channels: self.pim_channels_per_group(),
            ..PimConfig::ianus_default()
        }
    }

    /// Transfer model for normal memory traffic.
    pub fn transfer_model(&self) -> TransferModel {
        TransferModel::new(self.org, self.timings)
    }

    /// Sustained bandwidth (GB/s) of a stream striped over all NPU
    /// channels (shared by all cores).
    pub fn striped_bandwidth_gbps(&self) -> f64 {
        self.transfer_model()
            .effective_bandwidth_gbps(self.npu_channels())
    }

    /// Relative acquisition cost of this configuration in the abstract
    /// units of [`device_cost_units`](crate::capacity::device_cost_units):
    /// one device's memory capacity + sustained-bandwidth premium,
    /// scaled by the ganged device count. Used to size equal-cost pools
    /// when comparing cluster organizations.
    pub fn cost_units(&self) -> f64 {
        crate::capacity::device_cost_units(self.org.capacity, self.striped_bandwidth_gbps())
            * f64::from(self.devices)
    }

    /// Device memory capacity in bytes available to model weights.
    pub fn weight_capacity_bytes(&self) -> u64 {
        match self.memory {
            MemoryPolicy::Unified | MemoryPolicy::NpuMemOnly => self.org.capacity,
            // Shared parameters must be duplicated across both halves.
            MemoryPolicy::Partitioned => self.org.capacity / 2,
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::ianus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_has_double_pim_of_partitioned() {
        let u = SystemConfig::ianus();
        let p = SystemConfig::partitioned();
        assert_eq!(u.pim_channels(), 8);
        assert_eq!(p.pim_channels(), 4);
        assert_eq!(u.npu_channels(), 8);
        assert_eq!(p.npu_channels(), 4);
    }

    #[test]
    fn npu_mem_disables_pim() {
        let n = SystemConfig::npu_mem();
        assert_eq!(n.pim_channels(), 0);
        assert_eq!(n.pim_groups(), 1);
        assert_eq!(n.striped_bandwidth_gbps(), 256.0);
    }

    #[test]
    fn group_structure_default() {
        let cfg = SystemConfig::ianus();
        assert_eq!(cfg.pim_groups(), 4);
        assert_eq!(cfg.pim_channels_per_group(), 2);
        assert_eq!(cfg.pim_group_config().channels, 2);
    }

    #[test]
    fn scarce_pim_chips_share_groups() {
        let cfg = SystemConfig::ianus().with_pim_chips(1);
        assert_eq!(cfg.pim_channels(), 2);
        assert_eq!(cfg.pim_groups(), 2);
        assert_eq!(cfg.pim_channels_per_group(), 1);
    }

    #[test]
    fn partitioned_halves_weight_capacity() {
        assert_eq!(SystemConfig::ianus().weight_capacity_bytes(), 8 << 30);
        assert_eq!(SystemConfig::partitioned().weight_capacity_bytes(), 4 << 30);
    }

    #[test]
    #[should_panic(expected = "no PIM compute")]
    fn pim_config_requires_pim() {
        let _ = SystemConfig::npu_mem().pim_group_config();
    }
}
