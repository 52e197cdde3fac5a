//! The driver abstraction: the "software" of a workload.
//!
//! A driver is a state machine that stands in for the program running on
//! the cores: it installs micro-op streams (timing), sends DX100
//! instructions through timed MMIO stores, blocks cores on ready flags,
//! reads tiles/memory functionally, and decides what happens next. Control
//! flow that in real life lives in C code (tile loops, BFS frontier
//! iterations, phase barriers) lives in `poll`.
//!
//! Each poll ends by declaring what the driver waits for, and
//! [`System::run`] polls again only once that holds. Between polls the
//! machine runs on its own, so the run loop is free to jump the clock over
//! quiescent spans.

use crate::system::System;

/// What a driver waits for after a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverStatus {
    /// Poll again on the first later cycle at which every core has drained
    /// its program (a barrier; a core blocked on a flag is not drained).
    WaitCoresIdle,
    /// The workload has issued everything; the run ends when the machine
    /// drains.
    Done,
}

/// A workload's software side. See the module docs.
pub trait Driver {
    /// Called once when [`System::run`] starts, and after that only on the
    /// cycle the status returned last time asks for.
    fn poll(&mut self, sys: &mut System) -> DriverStatus;
}

/// A driver that immediately finishes — useful to drain pre-loaded op
/// streams (pure baseline runs with no phase logic).
#[derive(Debug, Default)]
pub struct NullDriver;

impl Driver for NullDriver {
    fn poll(&mut self, _sys: &mut System) -> DriverStatus {
        DriverStatus::Done
    }
}
