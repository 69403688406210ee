//! IANUS system integration: the paper's primary contribution.
//!
//! This crate assembles the substrate crates into the full IANUS device —
//! a 4-core NPU whose main memory *is* the GDDR6-AiM PIM array — and
//! implements **PIM Access Scheduling (PAS)**, the workload mapping and
//! scheduling layer that arbitrates between normal memory accesses and
//! PIM computation on the unified memory system:
//!
//! * [`SystemConfig`] — Table 1/Table 2 device configuration, with the
//!   unified / partitioned / plain-GDDR6 ("NPU-MEM") memory organizations
//!   of Sections 3.2 and 6.2 and the PAS policy knobs of Figure 13.
//! * [`compiler`] — compiles a model + stage into a dependency-annotated
//!   command [`Program`](ianus_npu::scheduler::Program): the Figure 6
//!   workload mapping (head-parallel Q/K/V, column-parallel FCs, 4 syncs
//!   per block) and the Figure 7 attention schedules.
//! * [`adaptive`] — Algorithm 1: compile-time adaptive FC mapping between
//!   the matrix unit and PIM.
//! * [`IanusSystem`] — runs end-to-end requests and produces
//!   [`RunReport`]s with latency breakdowns, utilization and dynamic
//!   energy (the quantities behind Figures 8–15).
//! * [`multi_device`] — multi-IANUS scaling over PCIe 5.0 (Figures 17/18,
//!   Section 7).
//! * [`backend`] — the unified [`Backend`] serving trait every device
//!   model implements (including the `ianus-baselines` crate's A100 and
//!   DFX models).
//! * [`serving`] — the cluster-scale serving engine
//!   ([`serving::ServingSim`]): replica backends, dispatch policies,
//!   seeded Poisson arrivals, tail-latency reports.
//! * [`functional`] — value-level validation of the PIM-offloaded decoder
//!   against an f32 reference (the repo's stand-in for the paper's FPGA
//!   prototype perplexity check).
//!
//! # Examples
//!
//! ```
//! use ianus_core::{IanusSystem, SystemConfig};
//! use ianus_model::{ModelConfig, RequestShape};
//!
//! let mut sys = IanusSystem::new(SystemConfig::ianus());
//! let report = sys.run_request(&ModelConfig::gpt2_m(), RequestShape::new(128, 64));
//! assert!(report.total.as_ms_f64() > 0.1);
//! // Generation dominates at 64 output tokens.
//! assert!(report.generation > report.summarization);
//! ```

pub mod adaptive;
pub mod backend;
pub mod capacity;
pub mod compiler;
mod config;
mod energy;
pub mod functional;
mod memo;
pub mod multi_device;
mod report;
pub mod serving;
mod system;
pub mod trace;
mod units;

pub use backend::Backend;
pub use config::{MemoryPolicy, SystemConfig};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use report::{OpClass, RunReport, StageReport};
pub use system::IanusSystem;
pub use units::UnitMap;

/// PAS policy knobs (Figure 13's configuration space).
pub mod pas {
    /// Where generation-stage FC layers execute.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FcMapping {
        /// Always the NPU matrix unit.
        MatrixUnit,
        /// Always PIM.
        Pim,
        /// Algorithm 1: choose per FC from analytic estimates.
        Adaptive,
    }

    /// Where the generation-stage `QKᵀ` and `SV` products execute
    /// (Figure 7b vs 7c).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum AttnMapping {
        /// Matrix unit (Figure 7c — the paper's choice).
        MatrixUnit,
        /// PIM (Figure 7b).
        Pim,
    }

    /// Scheduling style.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Schedule {
        /// Naive: operations serialized in program order, no overlap of
        /// PIM computation with NPU work.
        Naive,
        /// Unified-memory-aware scheduling (Section 5.3 overlaps).
        Overlapped,
    }

    /// The complete PAS policy.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct PasPolicy {
        /// FC layer mapping choice.
        pub fc: FcMapping,
        /// Attention product mapping choice.
        pub attention: AttnMapping,
        /// Overlap-aware or naive scheduling.
        pub schedule: Schedule,
    }

    impl PasPolicy {
        /// The paper's IANUS configuration: adaptive FCs, attention on the
        /// matrix unit, overlap-aware scheduling.
        pub fn ianus() -> Self {
            PasPolicy {
                fc: FcMapping::Adaptive,
                attention: AttnMapping::MatrixUnit,
                schedule: Schedule::Overlapped,
            }
        }
    }

    impl Default for PasPolicy {
        fn default() -> Self {
            Self::ianus()
        }
    }
}
