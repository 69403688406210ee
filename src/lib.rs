//! # IANUS — NPU-PIM Unified Memory System (reproduction)
//!
//! A from-scratch Rust reproduction of *"IANUS: Integrated Accelerator
//! based on NPU-PIM Unified Memory System"* (Seo et al., ASPLOS 2024):
//! a command-level simulator of a 4-core NPU whose GDDR6-AiM main memory
//! doubles as an in-memory GEMV engine, together with the paper's
//! **PIM Access Scheduling** compiler, analytical A100/DFX baselines, an
//! energy model, a benchmark harness regenerating every figure of the
//! paper's evaluation — and, above the device models, a unified serving
//! layer: every platform implements the [`Backend`](prelude::Backend)
//! trait and plugs into the cluster-scale
//! [`ServingSim`](prelude::ServingSim) engine.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a stable module name.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `ianus-sim` | picosecond time base |
//! | [`dram`] | `ianus-dram` | GDDR6 timing, bank state machine, bulk transfers |
//! | [`pim`] | `ianus-pim` | AiM device: commands, tiling, functional BF16 |
//! | [`npu`] | `ianus-npu` | matrix/vector units, DMA, command scheduler |
//! | [`model`] | `ianus-model` | Table 3/4 model zoo, stages, shapes |
//! | [`system`] | `ianus-core` | IANUS system, PAS, energy, multi-device, `Backend`, `ServingSim` |
//! | [`baselines`] | `ianus-baselines` | A100 + DFX analytical models (as `Backend`s) |
//!
//! # Quickstart
//!
//! Every device model — the IANUS simulator, its NPU-MEM/partitioned
//! ablations, PCIe-ganged device groups, and both analytical baselines —
//! serves requests through one trait:
//!
//! ```
//! use ianus::prelude::*;
//!
//! let model = ModelConfig::gpt2_m();
//! let req = RequestShape::new(128, 8);
//! let mut platforms: Vec<Box<dyn Backend>> = vec![
//!     Box::new(IanusSystem::new(SystemConfig::ianus())),
//!     Box::new(IanusSystem::new(SystemConfig::npu_mem())),
//!     Box::new(GpuModel::a100()),
//!     Box::new(DfxModel::four_fpga()),
//! ];
//! let mut lat = Vec::new();
//! for p in &mut platforms {
//!     assert!(p.fits(&model).is_ok());
//!     lat.push(p.service_time(&model, req));
//! }
//! // IANUS beats its NPU-MEM ablation and both baselines.
//! assert!(lat[0] < lat[1] && lat[0] < lat[2] && lat[0] < lat[3]);
//! ```
//!
//! And clusters of backends serve seeded Poisson traffic through
//! [`ServingSim`](prelude::ServingSim), at request granularity (the
//! paper's batch-1 interactive regime) or with iteration-level
//! continuous batching (KV-gated admission into a running decode
//! batch):
//!
//! ```
//! use ianus::prelude::*;
//!
//! let report = ServingSim::new(ServingConfig::interactive(8.0, 200))
//!     .cluster(2, |_| IanusSystem::new(SystemConfig::ianus()))
//!     .dispatch(DispatchPolicy::LeastLoaded)
//!     .run(&ModelConfig::gpt2_m());
//! assert_eq!(report.completed, 200);
//! assert_eq!(report.per_replica.len(), 2);
//! assert!(report.stable());
//!
//! let batched = ServingSim::new(ServingConfig::interactive(8.0, 200))
//!     .cluster(2, |_| IanusSystem::new(SystemConfig::ianus()))
//!     .scheduling(Scheduling::iteration(4))
//!     .run(&ModelConfig::gpt2_m());
//! assert_eq!(batched.completed, 200);
//! assert!(batched.ttft.p50 <= batched.sojourn.p50);
//! ```
//!
//! Which mode wins is the paper's Section 6.1 argument made
//! quantitative. IANUS's PIM GEMVs make *non-batched* decode
//! bandwidth-efficient, so batch-1 serving already saturates the device
//! — batching only stretches inter-token latency. A weight-streaming
//! GPU is the opposite: batched decode amortizes its weight traffic, so
//! continuous batching multiplies its sustainable rate at the cost of
//! per-token latency. The pre-0.2 `system::serving::simulate` shim has
//! been removed; build a `ServingSim` directly.
//!
//! Iteration-level scheduling further supports **chunked prefill**
//! (long prompts interleave with resident decodes one chunk per
//! iteration instead of stalling them whole) and **KV-pressure
//! preemption** (optimistic admission against current KV lengths, with
//! eviction to a swap queue priced by `Backend::kv_transfer_time`).
//! *Which* request is admitted next, *which* sequence is evicted, and
//! *which* swapped sequence returns first are policy choices: a
//! [`SchedulerPolicy`](prelude::SchedulerPolicy) bundles one variant
//! each of the admission, eviction, and re-admission policy enums
//! (defaults: FCFS, lowest-[`Priority`](prelude::Priority)/youngest,
//! FIFO — reproducing the historical scheduler bit-identically),
//! request classes can carry an [`Slo`](prelude::Slo) scored as
//! `slo_attainment`/`goodput_rps`, and `examples/policy_sweep.rs`
//! compares the eviction policies under identical KV pressure. KV
//! accounting itself is switchable:
//! [`ServingSim::kv_block`](prelude::ServingSim::kv_block) replaces the
//! contiguous reservation arithmetic with a **paged block allocator**
//! ([`serving::kv`](system::serving::kv)) that shares class-wide prompt
//! prefixes copy-on-write across requests — a cache hit skips the
//! shared prefill and lowers TTFT, and evictions move only unshared
//! blocks. See [`Scheduling::IterationLevel`](prelude::Scheduling),
//! [`serving::policy`](system::serving::policy), and `ARCHITECTURE.md`
//! at the repo root for the full map.

pub use ianus_baselines as baselines;
pub use ianus_core as system;
pub use ianus_dram as dram;
pub use ianus_model as model;
pub use ianus_npu as npu;
pub use ianus_pim as pim;
pub use ianus_sim as sim;

/// The types most programs need.
pub mod prelude {
    pub use ianus_baselines::{DfxModel, GpuModel};
    pub use ianus_core::backend::Backend;
    pub use ianus_core::capacity::CapacityError;
    pub use ianus_core::pas::{AttnMapping, FcMapping, PasPolicy, Schedule};
    pub use ianus_core::serving::kv::{BlockAllocator, BlockTable, PagedKv, PrefixCache};
    pub use ianus_core::serving::{
        AdmissionPolicy, ArrivalSpec, ConfigError, DisaggregationConfig, DispatchPolicy,
        EvictionMechanism, EvictionPolicy, LatencyPercentiles, MigrationPolicy, Priority,
        ReadmissionPolicy, ReplicaRole, RequestClass, SchedulerPolicy, Scheduling, ServingConfig,
        ServingReport, ServingSim, Slo, TenantReport, TenantSpec, WorkflowError, WorkflowNode,
        WorkflowTemplate,
    };
    pub use ianus_core::{
        EnergyModel, IanusSystem, MemoryPolicy, OpClass, RunReport, StageReport, SystemConfig,
    };
    pub use ianus_model::{ModelConfig, RequestShape, Stage};
    pub use ianus_sim::{Duration, Time};
}
