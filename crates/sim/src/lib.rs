//! Discrete-event simulation primitives shared by every IANUS component model.
//!
//! The IANUS reproduction is a *command-level* simulator with
//! cycle-resolution timestamps: every hardware unit (matrix unit, vector
//! unit, DMA engine, PIM channel, …) has its occupancy tracked in integer
//! picoseconds, and the system schedulers advance a shared clock by
//! executing commands against those units.
//!
//! This crate deliberately contains no IANUS-specific policy — only the
//! time base ([`Time`], [`Duration`]) and ordered event queues
//! ([`EventQueue`], [`SlotQueue`]).
//!
//! # Examples
//!
//! ```
//! use ianus_sim::{Duration, EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::from_ns(10), "b");
//! q.push(Time::from_ns(5), "a");
//! assert_eq!(q.pop(), Some((Time::from_ns(5), "a")));
//! assert_eq!(Time::from_ns(5) + Duration::from_ns(5), Time::from_ns(10));
//! ```

mod event;
mod time;

pub use event::{EventQueue, SlotQueue};
pub use time::{Duration, Frequency, Time};
