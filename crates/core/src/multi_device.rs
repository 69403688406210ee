//! Multi-IANUS scaling (paper Section 7, Figures 17/18).
//!
//! Larger LLMs need more memory than one device's 8 GB; the paper gangs
//! 2/4/8 IANUS devices over PCIe 5.0 ×16, exploiting intra-layer and
//! attention-head parallelism across devices. A ganged group is an
//! ordinary [`IanusSystem`](crate::IanusSystem) over
//! [`SystemConfig::with_devices`]: compilation divides per-core work by
//! `cores × devices` and inserts PCIe exchanges at every synchronization,
//! [`capacity::check_model`](crate::capacity::check_model) checks the
//! per-device shard, and the system's
//! [`Backend`](crate::backend::Backend) impl shards KV swaps across the
//! devices' links. What is left here is Section 7.2's arithmetic:
//! device-count selection and the perf/TDP cost metric.
//!
//! # Examples
//!
//! ```
//! use ianus_core::capacity::check_model;
//! use ianus_core::multi_device::devices_for;
//! use ianus_core::SystemConfig;
//! use ianus_model::ModelConfig;
//!
//! let model = ModelConfig::gpt_30b();
//! assert_eq!(devices_for(&model), 8);
//! assert!(check_model(&SystemConfig::ianus().with_devices(8), &model).is_ok());
//! assert!(check_model(&SystemConfig::ianus().with_devices(2), &model).is_err());
//! ```

use crate::SystemConfig;
use ianus_model::ModelConfig;

/// Thermal design power assumed for one IANUS device (Section 7.2).
pub const IANUS_TDP_WATTS: f64 = 120.0;

/// Thermal design power of the A100 comparison GPU.
pub const A100_TDP_WATTS: f64 = 400.0;

/// Minimum power-of-two device count whose aggregate memory holds
/// `model` (weights plus working set margin) — the paper's 2/4/8 for
/// 6.7B/13B/30B.
pub fn devices_for(model: &ModelConfig) -> u32 {
    let per_device = SystemConfig::ianus().weight_capacity_bytes();
    let needed = crate::capacity::nominal_footprint_bytes(model);
    let mut d = 1u32;
    while u64::from(d) * per_device < needed {
        d *= 2;
    }
    d
}

/// Performance per TDP watt of a `devices`-device group relative to an
/// A100 (Section 7.2): `(t_gpu / t_group) / (group_tdp / gpu_tdp)`.
pub fn cost_efficiency_vs_gpu(devices: u32, gpu_latency_ms: f64, group_latency_ms: f64) -> f64 {
    let perf_ratio = gpu_latency_ms / group_latency_ms;
    let tdp_ratio = (devices as f64 * IANUS_TDP_WATTS) / A100_TDP_WATTS;
    perf_ratio / tdp_ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_device_counts() {
        assert_eq!(devices_for(&ModelConfig::gpt_6_7b()), 2);
        assert_eq!(devices_for(&ModelConfig::gpt_13b()), 4);
        assert_eq!(devices_for(&ModelConfig::gpt_30b()), 8);
    }

    #[test]
    fn cost_efficiency_formula() {
        // 2 devices = 240 W vs 400 W; equal latency → efficiency 400/240.
        let eff = cost_efficiency_vs_gpu(2, 10.0, 10.0);
        assert!((eff - 400.0 / 240.0).abs() < 1e-9);
    }
}
