//! The unified [`Backend`] trait: one serving interface over every device
//! model in the workspace.
//!
//! The paper motivates IANUS with interactive batch-1 serving, and each
//! device model has its own way to ask "how long does this request
//! take" — [`IanusSystem::run_request`] and the baselines' ad-hoc
//! `request_latency` methods. [`Backend`] collapses them into one trait
//! so the serving engine ([`crate::serving`]), the examples, and any
//! future scheduler can treat a single IANUS device, a PCIe-ganged
//! device group (an [`IanusSystem`] over
//! [`SystemConfig::with_devices`](crate::SystemConfig::with_devices)),
//! an A100, or a DFX appliance interchangeably — through `dyn Backend`
//! or generics.
//!
//! Implementation in this crate: [`IanusSystem`], for one device and for
//! ganged groups alike. The `ianus-baselines` crate implements it for
//! `GpuModel` and `DfxModel`.
//!
//! # Examples
//!
//! ```
//! use ianus_core::backend::Backend;
//! use ianus_core::{IanusSystem, SystemConfig};
//! use ianus_model::{ModelConfig, RequestShape};
//!
//! let mut backends: Vec<Box<dyn Backend>> = vec![
//!     Box::new(IanusSystem::new(SystemConfig::ianus())),
//!     Box::new(IanusSystem::new(SystemConfig::ianus().with_devices(2))),
//! ];
//! let model = ModelConfig::gpt2_m();
//! for b in &mut backends {
//!     assert!(b.fits(&model).is_ok());
//!     assert!(b.service_time(&model, RequestShape::new(128, 8)).as_ms_f64() > 0.0);
//! }
//! assert_eq!(backends[1].name(), "IANUS x2");
//! ```

#![deny(missing_docs)]

use crate::capacity::{check_batch, check_model, CapacityError};
use crate::{IanusSystem, MemoryPolicy};
use ianus_model::{ModelConfig, RequestShape, Stage};
use ianus_sim::Duration;
use std::any::Any;

/// A device model that can serve whole requests — and, for
/// iteration-level scheduling, individual prefill and decode steps.
///
/// The contract every implementation upholds:
///
/// * `service_time` is **deterministic**: the same model and shape always
///   produce the same duration (backends may memoize internally on that
///   basis).
/// * `service_time` is the same quantity the backend's native API reports
///   — `RunReport::total` for simulated devices, `request_latency` for
///   the analytical baselines — so going through the trait never changes
///   a result.
/// * `fits` is a *residency* check (weights + a nominal context's KV
///   cache + working buffers against device memory); callers dispatch a
///   request only after it returns `Ok`.
/// * `prefill_time` and `decode_time` decompose `service_time`: at batch
///   size 1, `prefill_time(model, input)` plus the request's
///   `output − 1` decode steps reproduces `service_time(model, shape)`
///   to within the backend's step-sampling accuracy. This is what lets
///   [`crate::serving::Scheduling::IterationLevel`] agree with
///   request-level results when batching is off.
/// * `kv_transfer_time` prices *one direction* of a KV-cache swap
///   (eviction to or restoration from host memory) from the sequence's
///   [`kv_swap_bytes`](crate::capacity::kv_swap_bytes) over the
///   backend's host link; the preemptive scheduler charges it once at
///   swap-out and once at swap-in. It grows monotonically with the
///   token count and is zero for zero tokens. The same price covers KV
///   *migration* between replicas of a disaggregated cluster
///   ([`crate::serving#disaggregated-prefilldecode`]): the prefill
///   replica pays `kv_transfer_time` on its D2H lane and the decode
///   replica pays its own on its H2D lane, back to back.
///
/// Backends are `Send` (every implementation in this workspace is plain
/// data) so a cloned [`crate::serving::ServingSim`] can move to a scoped
/// thread during parallel rate sweeps, and `'static` ([`Any`]) so
/// [`prices_like`](Self::prices_like) can recognise another backend of
/// its own type behind a `&dyn Backend`.
pub trait Backend: Send + Any {
    /// Human-readable platform name (stable across calls; used as the
    /// replica label in serving reports).
    fn name(&self) -> &str;

    /// End-to-end time to serve one request of `shape` on `model`,
    /// with the backend otherwise idle.
    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration;

    /// Whether `model` is resident on this backend.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] describing the shortfall when it is not.
    fn fits(&self, model: &ModelConfig) -> Result<(), CapacityError>;

    /// Time to prefill `tokens` prompt tokens (the summarization stage),
    /// which also produces the request's first output token.
    ///
    /// Default: the service time of a `(tokens, 1)` request, which is
    /// exactly the prefill stage for every backend in this workspace.
    fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.service_time(model, RequestShape::new(tokens.max(1), 1))
    }

    /// Wall time of **one decode iteration** over `batch` concurrent
    /// sequences, each attending to roughly `past_tokens` of context.
    ///
    /// Default: `batch ×` the marginal cost of one extra generated token
    /// (the difference between a `(past, 2)` and a `(past, 1)` request)
    /// — i.e. a backend with no batching hardware serializes the batch.
    /// Backends whose decode is weight-streaming-bound (the GPU) override
    /// this to amortize the weight traffic across the batch.
    fn decode_time(&mut self, model: &ModelConfig, past_tokens: u64, batch: u32) -> Duration {
        let past = past_tokens.max(1);
        let with_step = self.service_time(model, RequestShape::new(past, 2));
        let without = self.service_time(model, RequestShape::new(past, 1));
        let step = if with_step > without {
            with_step - without
        } else {
            Duration::ZERO
        };
        step * u64::from(batch.max(1))
    }

    /// Residency check for a *batch* of concurrently served sequences:
    /// one copy of the weights plus every sequence's KV cache at its
    /// final length. On success returns the projected fraction of device
    /// memory occupied (the iteration-level scheduler's admission gate
    /// and the `peak_kv_occupancy` it reports).
    ///
    /// Default: the model-level [`fits`](Self::fits) check with zero
    /// reported occupancy — a backend without a memory model accepts any
    /// batch.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] when the batch does not fit.
    fn batch_fits(
        &self,
        model: &ModelConfig,
        _batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        self.fits(model)?;
        Ok(0.0)
    }

    /// Time to move one sequence's KV cache (`tokens` of context) one
    /// way between device and host memory — the cost the preemptive
    /// scheduler ([`crate::serving::Scheduling::IterationLevel`]'s
    /// `preempt` knob) charges at each swap-out and each swap-in.
    ///
    /// Default: zero. A backend without a memory model reports zero
    /// occupancy from [`batch_fits`](Self::batch_fits), so it never
    /// triggers preemption either — the two defaults are consistent.
    /// Backends with a real memory model override this to price
    /// [`kv_swap_bytes`](crate::capacity::kv_swap_bytes) over their
    /// host interconnect.
    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let _ = (model, tokens);
        Duration::ZERO
    }

    /// Host-side DRAM available to swapped-out KV caches, in bytes —
    /// the finite pool the preemptive scheduler debits with
    /// [`kv_swap_bytes`](crate::capacity::kv_swap_bytes) at each
    /// swap-out and credits back at the swap-in. A swap-out that would
    /// overflow the pool falls back to recompute-based eviction (the
    /// KV is dropped and re-prefilled on re-admission).
    ///
    /// Default: `None` — unbounded, consistent with the other
    /// no-memory-model defaults (and with engine behavior before the
    /// pool existed). Backends with a real memory model report their
    /// host-DRAM budget; [`ServingSim::host_kv_pool`](crate::serving::ServingSim::host_kv_pool)
    /// can override it per engine.
    fn host_kv_bytes(&self) -> Option<u64> {
        None
    }

    /// Device bytes available to hold KV cache once `model`'s weights
    /// and the activation buffers of a `widest_input`-wide prefill are
    /// resident — the budget the paged allocator
    /// ([`crate::serving::kv`]) carves into fixed-size blocks when
    /// [`ServingSim::kv_block`](crate::serving::ServingSim::kv_block)
    /// is set.
    ///
    /// Default: `None` — a backend without a memory model has no block
    /// budget either, so paging stays inactive on it (consistent with
    /// [`batch_fits`](Self::batch_fits) never triggering preemption).
    fn kv_budget_bytes(&self, model: &ModelConfig, widest_input: u64) -> Option<u64> {
        let _ = (model, widest_input);
        None
    }

    /// A boxed deep copy of this backend, if it supports cloning —
    /// what [`ServingSim::try_clone`](crate::serving::ServingSim::try_clone)
    /// uses to stamp out independent engines for parallel rate sweeps.
    ///
    /// Default: `None` (backend cannot be cloned; sweeps fall back to
    /// serial probing on the original engine). Every concrete backend
    /// in this workspace overrides it.
    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        None
    }

    /// Whether `other` prices every call exactly as this backend does —
    /// the opt-in that lets a [`ServingSim`](crate::serving::ServingSim)
    /// put identical replicas in one *price class*, which shares one set
    /// of cost memos and sends every miss to one member.
    ///
    /// The contract is **exact equality**, not similarity: returning
    /// `true` promises that [`service_time`](Self::service_time),
    /// [`prefill_time`](Self::prefill_time) and
    /// [`decode_time`](Self::decode_time) on `other` return bit-identical
    /// durations to this backend's for every argument, now and after any
    /// number of calls on either. Compare the whole state those costs
    /// depend on (downcast `other` through [`Any`]); never a name, a
    /// label or a hash of it, which two different devices can share.
    /// When in doubt, return `false`: a false negative only prices the
    /// same stage twice, a false positive changes results.
    ///
    /// Default: `false` — the backend is its own price class.
    fn prices_like(&self, other: &dyn Backend) -> bool {
        let _ = other;
        false
    }
}

impl Backend for IanusSystem {
    /// `"IANUS"`, `"IANUS x{d}"` for a unified group of `d` devices, or
    /// the memory policy's name.
    fn name(&self) -> &str {
        match (self.config().memory, self.config().devices) {
            (MemoryPolicy::Unified, 1) => "IANUS",
            (MemoryPolicy::Unified, _) => self.group_name(),
            (MemoryPolicy::Partitioned, _) => "IANUS (partitioned)",
            (MemoryPolicy::NpuMemOnly, _) => "NPU-MEM",
        }
    }

    fn service_time(&mut self, model: &ModelConfig, shape: RequestShape) -> Duration {
        self.run_request(model, shape).total
    }

    fn fits(&self, model: &ModelConfig) -> Result<(), CapacityError> {
        check_model(self.config(), model)
    }

    fn prefill_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        self.run_stage(
            model,
            &Stage::Summarization {
                tokens: tokens.max(1),
            },
        )
        .latency
    }

    /// A batched IANUS decode iteration serializes over the batch: the
    /// generation-stage FCs run as in-memory PIM GEMVs (one pass per
    /// input vector, so weight reads are *not* amortized across
    /// sequences), and attention + vector work are per-sequence anyway.
    /// This is the quantitative form of the paper's Section 6.1 stance —
    /// IANUS serves batch 1 because batching buys it nothing.
    fn decode_time(&mut self, model: &ModelConfig, past_tokens: u64, batch: u32) -> Duration {
        self.run_stage(model, &Stage::Generation { past_tokens })
            .latency
            * u64::from(batch.max(1))
    }

    fn batch_fits(
        &self,
        model: &ModelConfig,
        batch: &[RequestShape],
    ) -> Result<f64, CapacityError> {
        check_batch(self.config(), model, batch).map(|r| r.occupancy())
    }

    /// KV swaps leave the device over PCIe (the GDDR6 side is an order
    /// of magnitude faster, so the host link binds), plus one
    /// synchronization round-trip. A group's KV cache shards head-wise
    /// with the attention partitioning and every device drains its shard
    /// over its own link in parallel, so the per-link bytes divide by the
    /// device count while the synchronization latency does not.
    fn kv_transfer_time(&mut self, model: &ModelConfig, tokens: u64) -> Duration {
        let cfg = self.config();
        let bytes =
            crate::capacity::kv_swap_bytes(model, tokens).div_ceil(u64::from(cfg.devices.max(1)));
        cfg.pcie_latency + Duration::from_ns_f64(bytes as f64 / cfg.pcie_gbps)
    }

    /// Ganged devices hang off **one** host, so a group shares a single
    /// host-DRAM pool — it does not scale with the device count.
    fn host_kv_bytes(&self) -> Option<u64> {
        Some(self.config().host_kv_bytes)
    }

    /// KV blocks shard head-wise with the attention partitioning, so a
    /// group's block budget aggregates every device's headroom.
    fn kv_budget_bytes(&self, model: &ModelConfig, widest_input: u64) -> Option<u64> {
        Some(crate::capacity::kv_budget_bytes(
            self.config(),
            model,
            widest_input,
        ))
    }

    fn clone_box(&self) -> Option<Box<dyn Backend>> {
        Some(Box::new(self.clone()))
    }

    /// Another `IanusSystem` with an equal [`SystemConfig`](crate::SystemConfig)
    /// and, conservatively, an equal energy model (energy never reaches
    /// a latency). The stage memo is a cache of those two, not state.
    fn prices_like(&self, other: &dyn Backend) -> bool {
        (other as &dyn Any)
            .downcast_ref::<IanusSystem>()
            .is_some_and(|o| o.config() == self.config() && o.energy_model() == self.energy_model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    #[test]
    fn ianus_system_backend_matches_direct_api() {
        for (model, devices, shape, name) in [
            (ModelConfig::gpt2_m(), 1, RequestShape::new(64, 4), "IANUS"),
            (
                ModelConfig::gpt_6_7b(),
                2,
                RequestShape::new(64, 2),
                "IANUS x2",
            ),
        ] {
            let cfg = SystemConfig::ianus().with_devices(devices);
            let direct = IanusSystem::new(cfg).run_request(&model, shape).total;
            let mut backend: Box<dyn Backend> = Box::new(IanusSystem::new(cfg));
            assert_eq!(backend.service_time(&model, shape), direct);
            assert_eq!(backend.name(), name);
        }
    }

    #[test]
    fn fits_tracks_memory_policy() {
        let sys = IanusSystem::new(SystemConfig::ianus());
        assert!(sys.fits(&ModelConfig::gpt2_xl()).is_ok());
        assert!(sys.fits(&ModelConfig::gpt_13b()).is_err());
        let group = IanusSystem::new(SystemConfig::ianus().with_devices(4));
        assert!(group.fits(&ModelConfig::gpt_13b()).is_ok());
    }

    #[test]
    fn backend_names_distinguish_policies() {
        assert_eq!(IanusSystem::new(SystemConfig::npu_mem()).name(), "NPU-MEM");
        assert_eq!(
            IanusSystem::new(SystemConfig::partitioned()).name(),
            "IANUS (partitioned)"
        );
    }

    #[test]
    fn prefill_plus_decode_steps_reproduce_service_time() {
        // For short outputs run_request sums its generation stages
        // exactly, so the step decomposition must reproduce it exactly.
        for (model, devices, shape) in [
            (ModelConfig::gpt2_m(), 1, RequestShape::new(64, 8)),
            (ModelConfig::gpt_6_7b(), 2, RequestShape::new(64, 4)),
        ] {
            let mut sys = IanusSystem::new(SystemConfig::ianus().with_devices(devices));
            let service = Backend::service_time(&mut sys, &model, shape);
            let mut steps = Backend::prefill_time(&mut sys, &model, shape.input);
            for past in shape.input..shape.input + shape.generation_steps() {
                steps += Backend::decode_time(&mut sys, &model, past, 1);
            }
            assert_eq!(steps, service, "{devices} devices");
        }
    }

    #[test]
    fn ianus_batched_decode_serializes() {
        // The documented IANUS batching model: a batch-b iteration costs
        // exactly b single-sequence steps (PIM GEMVs are per-sequence).
        let model = ModelConfig::gpt2_m();
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let one = Backend::decode_time(&mut sys, &model, 128, 1);
        let four = Backend::decode_time(&mut sys, &model, 128, 4);
        assert_eq!(four, one * 4);
    }

    #[test]
    fn batch_fits_reports_growing_occupancy() {
        let model = ModelConfig::gpt2_xl();
        let sys = IanusSystem::new(SystemConfig::ianus());
        let shape = RequestShape::new(512, 512);
        let one = Backend::batch_fits(&sys, &model, &[shape]).unwrap();
        let four = Backend::batch_fits(&sys, &model, &[shape; 4]).unwrap();
        assert!(four > one);
        // Enough sequences must be refused.
        assert!(Backend::batch_fits(&sys, &model, &[shape; 64]).is_err());
        // And the group spreads the same batch across more memory.
        let group = IanusSystem::new(SystemConfig::ianus().with_devices(4));
        let grouped = Backend::batch_fits(&group, &model, &[shape; 4]).unwrap();
        assert!(grouped < four);
    }

    #[test]
    fn host_pool_defaults() {
        // Simulated devices report the config's host-DRAM budget; a
        // device group shares one host, so the pool does not scale.
        let sys = IanusSystem::new(SystemConfig::ianus());
        assert_eq!(Backend::host_kv_bytes(&sys), Some(32 << 30));
        let group = IanusSystem::new(SystemConfig::ianus().with_devices(4));
        assert_eq!(Backend::host_kv_bytes(&group), Some(32 << 30));
        let tuned = IanusSystem::new(SystemConfig::ianus().with_host_kv_bytes(1 << 30));
        assert_eq!(Backend::host_kv_bytes(&tuned), Some(1 << 30));
    }

    #[test]
    fn kv_transfer_is_pcie_bound_and_monotone() {
        let model = ModelConfig::gpt2_xl();
        let mut sys = IanusSystem::new(SystemConfig::ianus());
        let short = Backend::kv_transfer_time(&mut sys, &model, 128);
        let long = Backend::kv_transfer_time(&mut sys, &model, 1024);
        assert!(short > Duration::ZERO);
        assert!(long > short, "more KV must take longer to swap");
        // 1024 tokens of GPT-2 XL KV ≈ 302 MB over a 64 GB/s link plus
        // the sync latency: single-digit milliseconds.
        assert!(long.as_ms_f64() > 1.0 && long.as_ms_f64() < 20.0, "{long}");
        assert!((long.as_ms_f64() - 4.720).abs() < 1e-3, "{long}");
        // A group drains its head-wise KV shards over parallel links:
        // the bytes divide by the device count, the sync latency does not.
        let mut group: Box<dyn Backend> =
            Box::new(IanusSystem::new(SystemConfig::ianus().with_devices(4)));
        assert_eq!(group.name(), "IANUS x4");
        let grouped = group.kv_transfer_time(&model, 1024);
        assert!((grouped.as_ms_f64() - 1.181).abs() < 1e-3, "{grouped}");
        let cfg = SystemConfig::ianus();
        let shard = crate::capacity::kv_swap_bytes(&model, 1024).div_ceil(4);
        assert_eq!(
            grouped,
            cfg.pcie_latency + Duration::from_ns_f64(shard as f64 / cfg.pcie_gbps)
        );
    }

    #[test]
    fn prices_like_is_exact_config_equality() {
        let ianus = IanusSystem::new(SystemConfig::ianus());
        assert!(ianus.prices_like(&IanusSystem::new(SystemConfig::ianus())));
        // A warm stage memo is a cache, not a difference.
        let mut warm = IanusSystem::new(SystemConfig::ianus());
        warm.run_stage(
            &ModelConfig::gpt2_m(),
            &Stage::Generation { past_tokens: 8 },
        );
        assert!(ianus.prices_like(&warm));
        // One changed field separates systems that share a name.
        let variant = IanusSystem::new(SystemConfig {
            pim_macro_overhead: Duration::from_ns(5000),
            ..SystemConfig::ianus()
        });
        assert_eq!(variant.name(), ianus.name());
        assert!(!ianus.prices_like(&variant));
        assert!(!ianus.prices_like(&IanusSystem::new(SystemConfig::npu_mem())));
        let mut costly = IanusSystem::new(SystemConfig::ianus());
        costly.set_energy_model(crate::EnergyModel {
            dram_per_byte: 1.0,
            ..Default::default()
        });
        assert!(!ianus.prices_like(&costly));
        // The device count is part of the config: groups of equal size
        // price alike, and a group never prices like a single system.
        let group = IanusSystem::new(SystemConfig::ianus().with_devices(2));
        assert!(group.prices_like(&IanusSystem::new(SystemConfig::ianus().with_devices(2))));
        assert!(!group.prices_like(&IanusSystem::new(SystemConfig::ianus().with_devices(4))));
        assert!(!group.prices_like(&ianus));
        assert!(!ianus.prices_like(&group));
    }

    #[test]
    fn default_decode_time_is_marginal_service_cost() {
        // A backend using only the trait defaults decomposes consistently
        // too: default decode is the (past,2) − (past,1) marginal.
        struct Linear;
        impl Backend for Linear {
            fn name(&self) -> &str {
                "linear"
            }
            fn service_time(&mut self, _: &ModelConfig, shape: RequestShape) -> Duration {
                Duration::from_us(10) * (shape.input + shape.output)
            }
            fn fits(&self, _: &ModelConfig) -> Result<(), CapacityError> {
                Ok(())
            }
        }
        let model = ModelConfig::gpt2_m();
        let mut b = Linear;
        assert_eq!(b.decode_time(&model, 100, 1), Duration::from_us(10));
        assert_eq!(b.decode_time(&model, 100, 5), Duration::from_us(50));
        assert_eq!(b.prefill_time(&model, 128), Duration::from_us(10) * 129);
        assert!(b.batch_fits(&model, &[]).is_ok());
        // No memory model: swaps are free and host space unbounded —
        // consistent with the default batch_fits never triggering
        // preemption in the first place.
        assert_eq!(b.kv_transfer_time(&model, 1024), Duration::ZERO);
        assert_eq!(b.host_kv_bytes(), None);
        // Never opted in: not even alike to itself.
        assert!(!b.prices_like(&Linear));
    }
}
