//! GDDR6 DRAM device model for the IANUS unified memory system.
//!
//! IANUS (ASPLOS 2024) uses GDDR6-based AiM devices as *both* the NPU's main
//! memory and the PIM compute substrate. This crate models the plain-DRAM
//! half of that story:
//!
//! * [`GddrTimings`] / [`GddrOrganization`] — the Table 1 device parameters
//!   (16 Gb/s/pin ×16, 8 channels, 16 banks/channel, 2 KB rows, tCK = 0.5 ns,
//!   tCCD = 1 ns, tRAS = 21 ns, tRP = 30 ns, tRCDRD = 36 ns, tRCDWR = 24 ns,
//!   tWR = 36 ns).
//! * [`BankState`] — a per-bank state machine that validates command
//!   legality and timing; the PIM crate drives it with micro-command
//!   streams and the closed-form models are tested against it.
//! * [`TransferModel`] — closed-form cost of bulk sequential reads/writes
//!   (NPU DMA traffic), assuming streams interleave across banks and
//!   channels.
//!
//! The paper's Figure 5 maps addresses Row–Channel–Bank–Column, so one PIM
//! tile occupies one row address and PIM computation never row-conflicts
//! within a tile; the timing models above assume that layout rather than
//! decode addresses.
//!
//! # Examples
//!
//! ```
//! use ianus_dram::{GddrOrganization, GddrTimings, TransferModel};
//!
//! // Reading 1 MiB striped over all 8 channels at 32 B/ns/channel.
//! let org = GddrOrganization::ianus_default();
//! let xfer = TransferModel::new(org, GddrTimings::ianus_default());
//! let t = xfer.bulk_read(1 << 20, org.channels);
//! assert!(t.as_us_f64() > 3.9 && t.as_us_f64() < 4.6);
//! ```

mod bank;
mod params;
mod transfer;

pub use bank::{BankCommand, BankState, TimingError};
pub use params::{GddrOrganization, GddrTimings};
pub use transfer::TransferModel;
