//! Discrete-event simulation primitives shared by every IANUS component model.
//!
//! The IANUS reproduction is a *command-level* simulator with
//! cycle-resolution timestamps: every hardware unit (matrix unit, vector
//! unit, DMA engine, PIM channel, …) has its occupancy tracked in integer
//! picoseconds, and the system schedulers advance a shared clock by
//! executing commands against those units.
//!
//! This crate deliberately contains no IANUS-specific policy — only the
//! time base ([`Time`], [`Duration`], [`Frequency`]).
//!
//! # Examples
//!
//! ```
//! use ianus_sim::{Duration, Frequency, Time};
//!
//! assert_eq!(Time::from_ns(5) + Duration::from_ns(5), Time::from_ns(10));
//! assert_eq!(Frequency::from_mhz(1000).cycles(3), Duration::from_ns(3));
//! ```

mod time;

pub use time::{Duration, Frequency, Time};
