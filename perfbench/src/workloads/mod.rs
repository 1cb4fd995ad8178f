//! The four workloads. Each is a closed loop of one client on one thread:
//! the next op starts when the previous one returns.

pub mod plan;
pub mod reload;
pub mod serve;
pub mod simulate;

use crate::stats::Digest;
use crate::trace::Tracer;

/// What a checked op contributes to the run's simulated results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTotals {
    /// Simulated RLHF tokens the op's output processed.
    pub tokens: f64,
    /// Simulated seconds they took.
    pub secs: f64,
    /// Serving only: arrivals in the window.
    pub arrivals: f64,
    /// Serving only: arrivals turned away.
    pub rejected: f64,
    /// Serving only: the stretch of every tenant that finished.
    pub stretches: Vec<f64>,
}

/// One workload: seeded inputs, a set-up, the op, and the op's check.
pub trait Workload: Sized {
    /// One op's generated input.
    type Input: std::fmt::Debug;
    /// One op's raw output, before checking.
    type Output;

    /// The input of op `op` in a run seeded with `seed`.
    fn input(seed: u64, op: u64) -> Self::Input;

    /// Everything a user does once before the first op. It does not depend
    /// on the run's seed, so every run measures against the same set-up.
    fn setup(tr: &mut Tracer) -> Result<Self, String>;

    /// One user-level request through the program's public entry points.
    fn op(&self, input: &Self::Input, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks `out` and folds its simulated outputs into `digest`.
    fn check(
        &self,
        input: &Self::Input,
        out: &Self::Output,
        digest: &mut Digest,
        tr: &mut Tracer,
    ) -> Result<SimTotals, String>;
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}
