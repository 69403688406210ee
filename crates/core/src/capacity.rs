//! Device-memory capacity accounting for requests.
//!
//! IANUS has 8 GB per device (versus 80 GB on an A100), so whether a
//! model + request fits is a first-class question (Sections 3.2 and 7).
//! This module answers it: weights (duplicated in the partitioned
//! organization), the KV cache the request will grow to, activation
//! buffers, and the device count needed when one device is not enough.

use crate::{EnergyModel, SystemConfig};
use ianus_model::{ModelConfig, RequestShape};
use std::fmt;

/// Why a request cannot run on a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapacityError {
    /// The total sequence exceeds the model's positional table.
    SequenceTooLong {
        /// Requested total tokens.
        requested: u64,
        /// Model maximum.
        max_seq: u64,
    },
    /// The memory footprint exceeds device capacity.
    OutOfMemory {
        /// Required bytes per device.
        required: u64,
        /// Available bytes per device.
        available: u64,
    },
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacityError::SequenceTooLong { requested, max_seq } => write!(
                f,
                "sequence of {requested} tokens exceeds the model maximum of {max_seq}"
            ),
            CapacityError::OutOfMemory {
                required,
                available,
            } => write!(
                f,
                "request needs {} MiB but only {} MiB of memory are available",
                required >> 20,
                available >> 20
            ),
        }
    }
}

impl std::error::Error for CapacityError {}

/// Memory footprint of a model + request on one device of a
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityReport {
    /// Weight bytes per device (after sharding across devices).
    pub weight_bytes: u64,
    /// KV-cache bytes per device at the request's final length.
    pub kv_bytes: u64,
    /// Activation/working buffer estimate.
    pub activation_bytes: u64,
    /// Device capacity available to the model.
    pub available_bytes: u64,
}

impl CapacityReport {
    /// Total required bytes per device.
    pub fn required_bytes(&self) -> u64 {
        self.weight_bytes + self.kv_bytes + self.activation_bytes
    }

    /// Fraction of device memory the request occupies.
    pub fn occupancy(&self) -> f64 {
        self.required_bytes() as f64 / self.available_bytes as f64
    }
}

/// Activation/working-buffer margin assumed by the single-pool
/// residency checks: [`nominal_footprint_bytes`] and the baselines'
/// batch-admission gate both reserve this much beyond weights and KV,
/// so the two can never drift apart.
pub const WORKING_BUFFER_BYTES: u64 = 1 << 30;

/// Nominal single-pool residency footprint of `model`: weights plus a
/// 1024-token KV cache (capped at the model's maximum sequence) plus
/// the [`WORKING_BUFFER_BYTES`] activation/buffer margin. This is the
/// one place the nominal-context convention is defined; the baselines'
/// `Backend::fits` and
/// [`multi_device::devices_for`](crate::multi_device::devices_for)
/// both build on it, while [`check_model`]/[`check_request`] apply the
/// device-sharded variant.
pub fn nominal_footprint_bytes(model: &ModelConfig) -> u64 {
    let context = model.max_seq.min(1024);
    model.param_bytes() + model.kv_bytes_per_token() * context + WORKING_BUFFER_BYTES
}

/// Bytes that move when a sequence holding `tokens` of context is
/// swapped out of (or back into) device memory: its KV cache, and
/// nothing else — weights stay resident and activations are transient.
/// This is the one place the swap-traffic convention is defined; every
/// [`Backend::kv_transfer_time`](crate::backend::Backend::kv_transfer_time)
/// implementation prices these bytes against its own host link.
///
/// # Examples
///
/// ```
/// use ianus_core::capacity::kv_swap_bytes;
/// use ianus_model::ModelConfig;
///
/// let m = ModelConfig::gpt2_xl();
/// assert_eq!(kv_swap_bytes(&m, 512), m.kv_bytes_per_token() * 512);
/// assert_eq!(kv_swap_bytes(&m, 0), 0);
/// ```
pub fn kv_swap_bytes(model: &ModelConfig, tokens: u64) -> u64 {
    model.kv_bytes_per_token() * tokens
}

/// Relative acquisition-cost figure for one device, in abstract "cost
/// units": its memory capacity in GiB plus a bandwidth premium —
/// 0.2 units per GB/s of sustained memory bandwidth, weighted by the
/// default [`EnergyModel`]'s DRAM I/O energy (`dram_per_byte`, pJ/B) as
/// a stand-in for interface cost. Memory capacity and memory bandwidth
/// dominate what LLM-serving accelerators are priced on, so this single
/// figure is enough to size *equal-cost* device pools when comparing
/// cluster organizations
/// ([`DisaggregationConfig::equal_cost`](crate::serving::DisaggregationConfig::equal_cost)).
/// The absolute scale is arbitrary; only ratios between devices matter.
///
/// # Examples
///
/// ```
/// use ianus_core::capacity::device_cost_units;
///
/// // An 80 GiB, 2039 GB/s device (A100-class) costs ~102.8 units;
/// // an 8 GiB, 256 GB/s GDDR6 device costs ~10.9 — roughly 9.5×
/// // cheaper, so an equal-cost pool holds ~9.5 of them per A100.
/// let a100 = device_cost_units(80 << 30, 2039.0);
/// let pim = device_cost_units(8 << 30, 256.0);
/// assert!((a100 / pim) > 9.0 && (a100 / pim) < 10.0);
/// ```
pub fn device_cost_units(hbm_bytes: u64, mem_gbps: f64) -> f64 {
    let gib = hbm_bytes as f64 / (1u64 << 30) as f64;
    gib + 0.2 * (EnergyModel::default().dram_per_byte * mem_gbps * 1e-3)
}

/// Device bytes available to hold KV cache on `cfg` once `model`'s
/// (sharded) weights and the activation buffers of a `widest_input`-wide
/// prefill are resident — aggregated across the configuration's devices,
/// since the KV cache shards head-wise just like [`check_batch`]'s
/// accounting assumes. This is the budget a paged allocator
/// ([`crate::serving::kv`]) carves into fixed-size blocks; dividing by a
/// block's [`kv_swap_bytes`] gives the device block count.
///
/// Returns 0 when the weights alone (plus buffers) exceed device memory.
///
/// # Examples
///
/// ```
/// use ianus_core::capacity::{check_batch, kv_budget_bytes};
/// use ianus_core::SystemConfig;
/// use ianus_model::{ModelConfig, RequestShape};
///
/// let cfg = SystemConfig::ianus();
/// let m = ModelConfig::gpt2_xl();
/// let budget = kv_budget_bytes(&cfg, &m, 512);
/// // The budget is exactly what check_batch would let KV grow to.
/// let kv_per_seq = m.kv_bytes_per_token() * 1024;
/// let fits = budget / kv_per_seq;
/// let batch = vec![RequestShape::new(512, 512); fits as usize];
/// assert!(check_batch(&cfg, &m, &batch).is_ok());
/// ```
pub fn kv_budget_bytes(cfg: &SystemConfig, model: &ModelConfig, widest_input: u64) -> u64 {
    let devices = u64::from(cfg.devices).max(1);
    let weight_bytes = model.param_bytes().div_ceil(devices);
    let activation_bytes = 8 * widest_input * model.ffn_dim() * 2 / devices;
    let per_device = cfg
        .weight_capacity_bytes()
        .saturating_sub(weight_bytes)
        .saturating_sub(activation_bytes);
    per_device * devices
}

/// Checks whether `model` is resident on `cfg` without a concrete
/// request: weights plus the KV cache and activations of a nominal
/// 1024-token context (capped at the model's maximum sequence). This is
/// the check behind [`crate::backend::Backend::fits`].
///
/// # Errors
///
/// [`CapacityError::OutOfMemory`] when the footprint exceeds per-device
/// memory.
///
/// # Examples
///
/// ```
/// use ianus_core::capacity::check_model;
/// use ianus_core::SystemConfig;
/// use ianus_model::ModelConfig;
///
/// assert!(check_model(&SystemConfig::ianus(), &ModelConfig::gpt2_xl()).is_ok());
/// assert!(check_model(&SystemConfig::ianus(), &ModelConfig::gpt_13b()).is_err());
/// ```
pub fn check_model(cfg: &SystemConfig, model: &ModelConfig) -> Result<(), CapacityError> {
    let context = model.max_seq.min(1024);
    check_request(cfg, model, RequestShape::new(context, 1)).map(|_| ())
}

/// Checks whether `request` on `model` fits `cfg`, returning the
/// footprint.
///
/// # Errors
///
/// [`CapacityError::SequenceTooLong`] if the request exceeds the model's
/// maximum sequence; [`CapacityError::OutOfMemory`] if the footprint
/// exceeds per-device memory.
///
/// # Examples
///
/// ```
/// use ianus_core::capacity::check_request;
/// use ianus_core::SystemConfig;
/// use ianus_model::{ModelConfig, RequestShape};
///
/// let report = check_request(
///     &SystemConfig::ianus(),
///     &ModelConfig::gpt2_xl(),
///     RequestShape::new(128, 64),
/// )?;
/// assert!(report.occupancy() < 0.5);
/// // GPT 13B cannot fit one device:
/// assert!(check_request(
///     &SystemConfig::ianus(),
///     &ModelConfig::gpt_13b(),
///     RequestShape::new(128, 64),
/// ).is_err());
/// # Ok::<(), ianus_core::capacity::CapacityError>(())
/// ```
pub fn check_request(
    cfg: &SystemConfig,
    model: &ModelConfig,
    request: RequestShape,
) -> Result<CapacityReport, CapacityError> {
    check_batch(cfg, model, std::slice::from_ref(&request))
}

/// Checks whether a *batch* of concurrently resident requests fits `cfg`:
/// one copy of the (sharded) weights, the sum of every sequence's KV
/// cache at its final length, and the activation buffers of the widest
/// prefill. This is the residency gate behind iteration-level admission
/// ([`crate::serving::Scheduling::IterationLevel`]); with a single
/// request it is exactly [`check_request`].
///
/// Request fields use the saturating token accounting of
/// [`RequestShape::total_tokens`], so struct-literal zero shapes cannot
/// underflow the `input + output − 1` arithmetic.
///
/// # Errors
///
/// [`CapacityError::SequenceTooLong`] if any sequence exceeds the model's
/// maximum; [`CapacityError::OutOfMemory`] if the combined footprint
/// exceeds per-device memory.
pub fn check_batch(
    cfg: &SystemConfig,
    model: &ModelConfig,
    batch: &[RequestShape],
) -> Result<CapacityReport, CapacityError> {
    let mut kv_total = 0u64;
    let mut widest_input = 0u64;
    for request in batch {
        let total_seq = request.total_tokens();
        if total_seq > model.max_seq {
            return Err(CapacityError::SequenceTooLong {
                requested: total_seq,
                max_seq: model.max_seq,
            });
        }
        kv_total += model.kv_bytes_per_token() * total_seq;
        widest_input = widest_input.max(request.input);
    }
    let devices = u64::from(cfg.devices);
    // Weights shard across devices (head-wise and column-wise splits).
    let weight_bytes = model.param_bytes().div_ceil(devices);
    // KV cache shards head-wise with the attention partitioning.
    let kv_bytes = kv_total.div_ceil(devices);
    // Activations: a few live token-row buffers per block-width dimension.
    let activation_bytes = 8 * widest_input * model.ffn_dim() * 2 / devices.max(1);
    let available_bytes = cfg.weight_capacity_bytes();
    let report = CapacityReport {
        weight_bytes,
        kv_bytes,
        activation_bytes,
        available_bytes,
    };
    if report.required_bytes() > available_bytes {
        return Err(CapacityError::OutOfMemory {
            required: report.required_bytes(),
            available: available_bytes,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt2_family_fits_one_device() {
        for model in ModelConfig::gpt2_family() {
            let r = check_request(&SystemConfig::ianus(), &model, RequestShape::new(512, 512));
            assert!(r.is_ok(), "{}: {r:?}", model.name);
        }
    }

    #[test]
    fn sequence_limit_enforced() {
        let err = check_request(
            &SystemConfig::ianus(),
            &ModelConfig::gpt2_m(),
            RequestShape::new(1024, 512),
        )
        .unwrap_err();
        assert!(matches!(err, CapacityError::SequenceTooLong { .. }));
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn large_models_need_paper_device_counts() {
        for (model, devices) in [
            (ModelConfig::gpt_6_7b(), 2u32),
            (ModelConfig::gpt_13b(), 4),
            (ModelConfig::gpt_30b(), 8),
        ] {
            let one = check_request(&SystemConfig::ianus(), &model, RequestShape::new(256, 64));
            assert!(one.is_err(), "{} should not fit one device", model.name);
            let enough = check_request(
                &SystemConfig::ianus().with_devices(devices),
                &model,
                RequestShape::new(256, 64),
            );
            assert!(
                enough.is_ok(),
                "{} on {devices} devices: {enough:?}",
                model.name
            );
        }
    }

    #[test]
    fn partitioned_halves_headroom() {
        let u = check_request(
            &SystemConfig::ianus(),
            &ModelConfig::gpt2_2_5b(),
            RequestShape::new(256, 64),
        )
        .unwrap();
        let p = check_request(
            &SystemConfig::partitioned(),
            &ModelConfig::gpt2_2_5b(),
            RequestShape::new(256, 64),
        );
        // 2.5B weights (4.9 GB) exceed the 4 GB duplicated partition.
        assert!(u.occupancy() < 1.0);
        assert!(p.is_err());
    }

    #[test]
    fn zero_output_literal_does_not_underflow() {
        // Regression: `RequestShape` fields are `pub`, so a struct
        // literal can carry `output: 0`; `input + output - 1` used to
        // wrap to ~u64::MAX and report SequenceTooLong nonsense (or
        // panic in debug). The saturating accounting treats it as an
        // `input`-token footprint.
        let rogue = RequestShape {
            input: 128,
            output: 0,
        };
        let r = check_request(&SystemConfig::ianus(), &ModelConfig::gpt2_m(), rogue).unwrap();
        let baseline = check_request(
            &SystemConfig::ianus(),
            &ModelConfig::gpt2_m(),
            RequestShape::new(128, 1),
        )
        .unwrap();
        assert_eq!(r.kv_bytes, baseline.kv_bytes);
    }

    #[test]
    fn batch_kv_is_additive_over_sequences() {
        let cfg = SystemConfig::ianus();
        let m = ModelConfig::gpt2_xl();
        let shape = RequestShape::new(256, 64);
        let one = check_request(&cfg, &m, shape).unwrap();
        let four = check_batch(&cfg, &m, &[shape; 4]).unwrap();
        assert_eq!(four.kv_bytes, one.kv_bytes * 4);
        assert_eq!(four.weight_bytes, one.weight_bytes);
        assert!(four.occupancy() > one.occupancy());
    }

    #[test]
    fn batch_admission_hits_memory_wall() {
        // Enough long sequences must eventually exceed the 8 GB device.
        let cfg = SystemConfig::ianus();
        let m = ModelConfig::gpt2_xl();
        let shape = RequestShape::new(512, 512);
        let mut batch = Vec::new();
        let mut admitted = 0;
        while check_batch(&cfg, &m, &batch).is_ok() {
            batch.push(shape);
            admitted += 1;
            assert!(admitted < 1000, "memory wall never reached");
        }
        assert!(admitted > 1, "a single long request should fit");
    }

    #[test]
    fn cost_units_scale_with_capacity_and_bandwidth() {
        let base = device_cost_units(8 << 30, 256.0);
        assert!(device_cost_units(16 << 30, 256.0) > base);
        assert!(device_cost_units(8 << 30, 512.0) > base);
        // Capacity term is exact GiB; bandwidth premium is positive.
        assert!(base > 8.0);
        assert!((device_cost_units(8 << 30, 0.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_grows_with_output() {
        let cfg = SystemConfig::ianus();
        let m = ModelConfig::gpt2_xl();
        let a = check_request(&cfg, &m, RequestShape::new(128, 8)).unwrap();
        let b = check_request(&cfg, &m, RequestShape::new(128, 512)).unwrap();
        assert!(b.kv_bytes > a.kv_bytes);
        assert!(b.occupancy() > a.occupancy());
    }
}
