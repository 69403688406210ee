//! Per-bank DRAM state machine with timing-constraint checking.
//!
//! The PIM micro-command executor (in `ianus-pim`) drives one `BankState`
//! per bank to produce reference timings; the closed-form macro-command
//! models are unit-tested against it. Normal (non-PIM) traffic uses the
//! closed-form [`crate::TransferModel`] instead — simulating every burst of
//! multi-gigabyte weight streams would be prohibitively slow.

use crate::GddrTimings;
use ianus_sim::Time;
use std::fmt;

/// Commands understood by a single bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankCommand {
    /// Open `row`. The bank times rows alike, so it records only that a
    /// row is open, not which.
    Activate { row: u64 },
    /// Column read burst (also models a PIM `MAC` read, which shares read
    /// timing).
    Read,
    /// Column write burst.
    Write,
    /// Close the open row.
    Precharge,
}

/// Reasons a command cannot legally issue at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingError {
    /// Activate issued while a row is already open.
    RowAlreadyOpen,
    /// Read/write issued with no open row.
    RowNotOpen,
    /// Precharge with no row open.
    NothingToPrecharge,
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::RowAlreadyOpen => write!(f, "activate while a row is open"),
            TimingError::RowNotOpen => write!(f, "column access with no open row"),
            TimingError::NothingToPrecharge => write!(f, "precharge with no open row"),
        }
    }
}

impl std::error::Error for TimingError {}

/// Timing state of one DRAM bank.
///
/// `issue` returns the earliest legal issue time for the command (respecting
/// tRP/tRCD/tRAS/tWR/tCCD) and advances internal state; the caller supplies
/// the time it *wants* to issue and receives the constrained time.
///
/// # Examples
///
/// ```
/// use ianus_dram::{BankCommand, BankState, GddrTimings};
/// use ianus_sim::Time;
///
/// let mut bank = BankState::new(GddrTimings::ianus_default());
/// let t0 = bank.issue(Time::ZERO, BankCommand::Activate { row: 7 }).unwrap();
/// let t1 = bank.issue(t0, BankCommand::Read).unwrap();
/// // First read waits tRCDRD = 36 ns after the activate.
/// assert_eq!((t1 - t0).as_ns_f64(), 36.0);
/// ```
#[derive(Debug, Clone)]
pub struct BankState {
    timings: GddrTimings,
    /// Whether a row is open (activated and not yet precharged).
    open: bool,
    last_activate: Time,
    last_read: Time,
    last_write: Time,
    precharge_ready: Time,
    /// Earliest time a future activate may issue (after precharge completes).
    activate_ready: Time,
    issued: u64,
}

impl BankState {
    /// Creates an idle bank.
    pub fn new(timings: GddrTimings) -> Self {
        BankState {
            timings,
            open: false,
            last_activate: Time::ZERO,
            last_read: Time::ZERO,
            last_write: Time::ZERO,
            precharge_ready: Time::ZERO,
            activate_ready: Time::ZERO,
            issued: 0,
        }
    }

    /// Total commands issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Issues `cmd` no earlier than `want`, returning the actual issue time.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingError`] if the command is illegal in the current
    /// row state (e.g. reading from a closed row).
    pub fn issue(&mut self, want: Time, cmd: BankCommand) -> Result<Time, TimingError> {
        let t = self.timings;
        let at = match cmd {
            BankCommand::Activate { .. } => {
                if self.open {
                    return Err(TimingError::RowAlreadyOpen);
                }
                let at = want.max(self.activate_ready);
                self.open = true;
                self.last_activate = at;
                // tRAS lower-bounds the next precharge.
                self.precharge_ready = at + t.t_ras;
                at
            }
            BankCommand::Read => {
                if !self.open {
                    return Err(TimingError::RowNotOpen);
                }
                let at = want
                    .max(self.last_activate + t.t_rcd_rd)
                    .max(self.last_read + t.t_ccd_l)
                    .max(self.last_write + t.t_ccd_l);
                self.last_read = at;
                at
            }
            BankCommand::Write => {
                if !self.open {
                    return Err(TimingError::RowNotOpen);
                }
                let at = want
                    .max(self.last_activate + t.t_rcd_wr)
                    .max(self.last_write + t.t_ccd_l)
                    .max(self.last_read + t.t_ccd_l);
                self.last_write = at;
                // Write recovery gates precharge.
                self.precharge_ready = self.precharge_ready.max(at + t.t_wr);
                at
            }
            BankCommand::Precharge => {
                if !self.open {
                    return Err(TimingError::NothingToPrecharge);
                }
                let at = want.max(self.precharge_ready);
                self.open = false;
                self.activate_ready = at + t.t_rp;
                at
            }
        };
        self.issued += 1;
        Ok(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ianus_sim::Duration;

    fn bank() -> BankState {
        BankState::new(GddrTimings::ianus_default())
    }

    #[test]
    fn activate_read_precharge_cycle() {
        let mut b = bank();
        let act = b
            .issue(Time::ZERO, BankCommand::Activate { row: 1 })
            .unwrap();
        let rd = b.issue(act, BankCommand::Read).unwrap();
        assert_eq!(rd - act, Duration::from_ns(36)); // tRCDRD
                                                     // Precharge requested at the read time (after tRAS already met)
                                                     // issues immediately; requested early it waits for tRAS.
        let pre = b.issue(rd, BankCommand::Precharge).unwrap();
        assert_eq!(pre, rd);
        let act2 = b.issue(pre, BankCommand::Activate { row: 2 }).unwrap();
        assert_eq!(act2 - pre, Duration::from_ns(30)); // tRP
    }

    #[test]
    fn back_to_back_reads_at_tccd() {
        let mut b = bank();
        let act = b
            .issue(Time::ZERO, BankCommand::Activate { row: 0 })
            .unwrap();
        let r0 = b.issue(act, BankCommand::Read).unwrap();
        let r1 = b.issue(r0, BankCommand::Read).unwrap();
        let r2 = b.issue(r1, BankCommand::Read).unwrap();
        assert_eq!(r1 - r0, Duration::from_ns(1));
        assert_eq!(r2 - r1, Duration::from_ns(1));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = bank();
        let act = b
            .issue(Time::ZERO, BankCommand::Activate { row: 0 })
            .unwrap();
        let wr = b.issue(act, BankCommand::Write).unwrap();
        assert_eq!(wr - act, Duration::from_ns(24)); // tRCDWR
        let pre = b.issue(wr, BankCommand::Precharge).unwrap();
        assert_eq!(pre - wr, Duration::from_ns(36)); // tWR
    }

    #[test]
    fn illegal_commands_rejected() {
        let mut b = bank();
        assert_eq!(
            b.issue(Time::ZERO, BankCommand::Read),
            Err(TimingError::RowNotOpen)
        );
        assert_eq!(
            b.issue(Time::ZERO, BankCommand::Precharge),
            Err(TimingError::NothingToPrecharge)
        );
        b.issue(Time::ZERO, BankCommand::Activate { row: 3 })
            .unwrap();
        assert_eq!(
            b.issue(Time::ZERO, BankCommand::Activate { row: 4 }),
            Err(TimingError::RowAlreadyOpen)
        );
    }

    #[test]
    fn full_row_read_duration() {
        // Reading an entire 2 KB row: ACT + tRCDRD + 63 × tCCD after the
        // first read = 36 + 63 = 99 ns from activate to last read issue.
        let mut b = bank();
        let act = b
            .issue(Time::ZERO, BankCommand::Activate { row: 0 })
            .unwrap();
        let mut last = act;
        for _ in 0..64 {
            last = b.issue(last, BankCommand::Read).unwrap();
        }
        assert_eq!(last - act, Duration::from_ns(36 + 63));
    }
}
