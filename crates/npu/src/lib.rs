//! NPU core model for IANUS (paper Sections 4.1–4.2).
//!
//! One NPU core pairs a 128×64 systolic **matrix unit** (4 MACs per PE,
//! 46 TFLOPS at 700 MHz) with a **vector unit** of sixteen 4-wide VLIW
//! processors, fed by two scratchpads — a 12 MB activation scratchpad (AM)
//! and a 4 MB weight scratchpad (WM) with transposed addressing and a 2:1
//! entry-size ratio — plus DMA engines that also implement the on-chip
//! streaming transpose path between the two scratchpads.
//!
//! The crate models each unit with analytic cycle counts
//! ([`MatrixUnit`], [`VectorUnit`], [`DmaEngine`]) and provides the
//! dependency-driven [`scheduler`] that the paper's command scheduler
//! microarchitecture (issue queues + pending queue + completion-time
//! dependency resolution) maps onto. System-level policy — what runs
//! where, and how PIM access is arbitrated — lives in `ianus-core`.
//!
//! # Examples
//!
//! ```
//! use ianus_npu::{MatrixUnit, NpuConfig, VectorUnit, VuOp};
//!
//! let cfg = NpuConfig::ianus_default();
//! let mu = MatrixUnit::new(&cfg);
//! // Summarization FC tile: 512 tokens × (1536 → 6144).
//! let t = mu.gemm(512, 1536, 6144);
//! assert!(t.as_us_f64() > 100.0 && t.as_us_f64() < 400.0);
//!
//! let vu = VectorUnit::new(&cfg);
//! let ln = vu.op(VuOp::LayerNorm, 1536);
//! assert!(ln.as_ns_f64() < 200.0);
//! ```

mod config;
mod dma;
pub mod functional;
mod matrix;
pub mod scheduler;
mod vector;

pub use config::NpuConfig;
pub use dma::DmaEngine;
pub use matrix::MatrixUnit;
pub use vector::{VectorUnit, VuOp};
