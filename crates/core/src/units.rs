//! Unit-index conventions for the scheduler engine.
//!
//! One IANUS device executes as a single [`ianus_npu::scheduler::Engine`]
//! whose resources are laid out as: per-core MU/VU/DMA-in/DMA-out blocks,
//! then the NPU memory bus, the per-group memory-channel tokens, the
//! per-group PIM pipelines, and the PCIe link. The memory-channel tokens
//! are what encodes the unified-memory conflict: a normal DMA stream holds
//! the channel tokens it touches, and a macro PIM command holds its
//! group's token — so they serialize exactly when they share channels.

use crate::{MemoryPolicy, SystemConfig};
use ianus_npu::scheduler::UnitId;
use std::ops::Range;

/// Resolves unit indices for a system configuration.
///
/// # Examples
///
/// ```
/// use ianus_core::{SystemConfig, UnitMap};
/// let m = UnitMap::new(&SystemConfig::ianus());
/// assert_ne!(m.mu(0), m.mu(1));
/// assert_ne!(m.pim(0), m.mem(0));
/// assert!(m.unit_count() > 16);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct UnitMap {
    cores: u32,
    groups: u32,
    unified: bool,
}

impl UnitMap {
    /// Builds the map for a configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        UnitMap {
            cores: cfg.npu.cores,
            groups: cfg.pim_groups(),
            unified: cfg.memory == MemoryPolicy::Unified,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Number of PIM / memory channel groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Matrix unit of core `c`.
    pub fn mu(&self, c: u32) -> UnitId {
        self.core_base(c)
    }

    /// Vector unit of core `c`.
    pub fn vu(&self, c: u32) -> UnitId {
        self.core_base(c) + 1
    }

    /// Load DMA engine of core `c`.
    pub fn dma_in(&self, c: u32) -> UnitId {
        self.core_base(c) + 2
    }

    /// Store DMA engine of core `c`.
    pub fn dma_out(&self, c: u32) -> UnitId {
        self.core_base(c) + 3
    }

    /// The striped NPU memory bus (plain DRAM traffic over all NPU
    /// channels).
    pub fn npu_mem(&self) -> UnitId {
        (self.cores * 4) as UnitId
    }

    /// Memory-channel token of group `g` (held by PIM ops and, in the
    /// unified system, by DMA streams touching those channels).
    pub fn mem(&self, g: u32) -> UnitId {
        (self.cores * 4 + 1 + (g % self.groups)) as UnitId
    }

    /// PIM compute pipeline of group `g`.
    pub fn pim(&self, g: u32) -> UnitId {
        (self.cores * 4 + 1 + self.groups + (g % self.groups)) as UnitId
    }

    /// PCIe link (multi-device synchronization).
    pub fn pcie(&self) -> UnitId {
        (self.cores * 4 + 1 + 2 * self.groups) as UnitId
    }

    /// Total resources the engine must allocate.
    pub fn unit_count(&self) -> usize {
        (self.cores * 4 + 2 + 2 * self.groups) as usize
    }

    /// The PIM group serving core `c` (cores share groups when scarce).
    pub fn group_of_core(&self, c: u32) -> u32 {
        c % self.groups
    }

    /// Resources a striped DMA stream must hold: the NPU bus, plus — in
    /// the unified system only — every channel group token (the stream
    /// touches all channels, so it conflicts with every PIM op). The
    /// tokens sit right after the bus, so this is one contiguous range.
    pub fn striped_dma_holds(&self) -> Range<UnitId> {
        let tokens = if self.unified { self.groups } else { 0 };
        self.npu_mem()..self.npu_mem() + 1 + tokens as UnitId
    }

    /// The memory-channel token of core `c`'s group, held in the unified
    /// system by core-local DMA streams (KV cache, PIM input/output under
    /// head-wise placement) and by macro PIM commands on that group, so
    /// the two serialize. Partitioned / NPU-only systems place per-head
    /// data on per-core channels: their local transfers are core-private
    /// and only occupy the core's own DMA engine, and PIM ops hold only
    /// their pipeline.
    pub fn channel_token(&self, core: u32) -> Option<UnitId> {
        self.unified.then(|| self.mem(self.group_of_core(core)))
    }

    fn core_base(&self, c: u32) -> UnitId {
        assert!(c < self.cores, "core {c} out of range");
        (c * 4) as UnitId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use std::collections::HashSet;

    #[test]
    fn indices_are_disjoint() {
        let m = UnitMap::new(&SystemConfig::ianus());
        let mut seen = HashSet::new();
        for c in 0..m.cores() {
            for u in [m.mu(c), m.vu(c), m.dma_in(c), m.dma_out(c)] {
                assert!(seen.insert(u), "duplicate unit {u}");
            }
        }
        assert!(seen.insert(m.npu_mem()));
        for g in 0..m.groups() {
            assert!(seen.insert(m.mem(g)));
            assert!(seen.insert(m.pim(g)));
        }
        assert!(seen.insert(m.pcie()));
        assert_eq!(seen.len(), m.unit_count());
    }

    #[test]
    fn unified_dma_conflicts_with_all_pim_groups() {
        let m = UnitMap::new(&SystemConfig::ianus());
        let holds = m.striped_dma_holds();
        assert_eq!(holds.len(), 1 + m.groups() as usize);
        assert!(holds.contains(&m.npu_mem()));
        for g in 0..m.groups() {
            assert!(holds.contains(&m.mem(g)));
        }
    }

    #[test]
    fn partitioned_dma_does_not_conflict_with_pim() {
        let m = UnitMap::new(&SystemConfig::partitioned());
        assert_eq!(m.striped_dma_holds(), m.npu_mem()..m.npu_mem() + 1);
        assert_eq!(m.channel_token(0), None);
    }

    #[test]
    fn unified_pim_holds_channel_token() {
        let m = UnitMap::new(&SystemConfig::ianus());
        assert_eq!(m.channel_token(2), Some(m.mem(2)));
    }

    #[test]
    fn cores_share_groups_when_scarce() {
        let m = UnitMap::new(&SystemConfig::ianus().with_pim_chips(1));
        assert_eq!(m.groups(), 2);
        assert_eq!(m.group_of_core(0), m.group_of_core(2));
        assert_ne!(m.group_of_core(0), m.group_of_core(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_bounds_checked() {
        let m = UnitMap::new(&SystemConfig::ianus());
        let _ = m.mu(4);
    }
}
