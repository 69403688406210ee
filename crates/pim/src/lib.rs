//! GDDR6-AiM processing-in-memory device model.
//!
//! IANUS builds on SK hynix's Accelerator-in-Memory (AiM): a GDDR6 device
//! with one processing unit (PU) per bank — 16 BF16 multipliers, an adder
//! tree, a MAC accumulator and an activation-function unit — plus a 2 KB
//! global buffer per channel that holds the (reused) input vector of a
//! matrix-vector product. All 16 banks of all channels compute in lockstep
//! ("true all-bank parallelism"), giving the paper's 4096 GB/s internal
//! bandwidth on 8 channels versus 256 GB/s external.
//!
//! This crate models that device at three coordinated levels:
//!
//! * **Micro commands** ([`MicroCommand`]) — `WR_GB`, `ACT_ALL`, `MAC`,
//!   `AF`, `RD_MAC`, `PRE_ALL` — executed against per-bank
//!   [`ianus_dram::BankState`] machines by [`MicroExecutor`] for
//!   reference-quality timing.
//! * **Macro commands** ([`MacroCommand`]) — one per *operation* (e.g. a
//!   whole GEMV), decoded into micro commands by the PIM control unit
//!   (`pcu::decode`), exactly as Section 4.3 describes.
//! * **Closed-form timing** ([`PimModel`]) — fast analytic cost identical
//!   in structure to the micro schedule, unit-tested against
//!   [`MicroExecutor`] so the system simulator can price millions of PIM
//!   operations without per-command event overhead.
//!
//! The crate also carries the *functional* half of the device —
//! [`functional`] implements BF16 GEMV + GELU through the exact Figure 4
//! tile layout so numerics can be validated end-to-end (the repo's stand-in
//! for the paper's FPGA prototype validation).
//!
//! # Examples
//!
//! ```
//! use ianus_pim::{GemvShape, PimConfig, PimModel};
//!
//! let model = PimModel::new(PimConfig::ianus_default());
//! // One decoder-block FFN FC of GPT-2 XL: 6144×1536, one token.
//! let op = model.gemv(GemvShape::new(6144, 1536).with_batch(1));
//! assert!(op.total.as_us_f64() > 5.0 && op.total.as_us_f64() < 30.0);
//! // All-bank parallelism: 16 banks × 8 channels rows per tile.
//! assert_eq!(model.rows_per_tile(), 128);
//! ```

mod command;
mod config;
mod executor;
pub mod functional;
mod pcu;
mod tiling;
mod timing;

pub use command::{MacroCommand, MicroCommand};
pub use config::PimConfig;
pub use executor::MicroExecutor;
pub use tiling::{GemvShape, TileOrder, TileWalk, Tiling};
pub use timing::{PimModel, PimOpCost};
