//! The closed loop: set up, warm up, then send ops one at a time until the
//! time budget is spent, repeating set-up between ops to time it.
//!
//! Op and set-up times are the CPU time of the thread that runs them. Ops
//! are single-threaded and do no I/O, so on an idle host this equals their
//! wall-clock latency; on a shared host it leaves out the time other
//! tenants hold the CPU, which otherwise moves medians by 10–25% from one
//! half hour to the next. Wall-clock percentiles are printed alongside.

use crate::alloc;
use crate::gen::WARMUP_OP;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{SimTotals, Workload};
use std::time::Instant;

/// Set-ups per run, one before the ops and the rest spread between them;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Sets the workload up and sends it one warm-up op: set-up ends when the
/// program is ready for the first measured op, with its lazy
/// initialization paid. The warm-up input is the same for every seed, so
/// set-up does the same work in every run.
fn setup<W: Workload>(tr: &mut Tracer) -> Result<W, String> {
    let w = W::setup(tr)?;
    let input = W::input(0, WARMUP_OP);
    let out = w.op(&input, tr)?;
    w.check(&input, &out, &mut Digest::default(), tr)
        .map_err(|e| format!("warm-up op: {e}"))?;
    Ok(w)
}

/// One phase of ops.
#[derive(Debug, Default)]
pub struct Phase {
    /// CPU seconds per op, in op order.
    pub latencies: Vec<f64>,
    /// Wall-clock seconds per op, in op order.
    pub wall: Vec<f64>,
    /// Peak heap bytes during each op, in op order.
    pub peak_heap: Vec<f64>,
    /// Ops that errored or failed their check.
    pub failed: u64,
    /// Digest of the first `digest_ops` ops' simulated outputs.
    pub digest: Digest,
    /// Ops folded into `digest` and `sim`.
    pub digest_ops: u64,
    /// Simulated totals over the same ops.
    pub sim: SimTotals,
}

/// A finished run.
#[derive(Debug)]
pub struct Run {
    /// CPU seconds of each set-up.
    pub setup_secs: Vec<f64>,
    /// The measured ops (traced in a traced run).
    pub measured: Phase,
    /// A traced run's untraced ops, on the same inputs (empty otherwise).
    pub baseline: Vec<f64>,
    /// Measured ops attempted (both phases of a traced run).
    pub attempted: u64,
    /// Of those, ops that errored or failed their check.
    pub failed: u64,
}

/// Times one [`setup`] into `secs`.
fn timed_setup<W: Workload>(tr: &mut Tracer, secs: &mut Vec<f64>) -> Result<W, String> {
    tr.begin("setup");
    let t = thread_cpu_secs();
    let w = setup::<W>(tr);
    secs.push(thread_cpu_secs() - t);
    tr.end();
    w
}

/// Runs ops `0, 1, …` until `budget` seconds have passed and at least
/// `min_ops` ops have run. Simulated outputs of the first `min_ops` ops
/// are digested, so the digest does not depend on host speed.
///
/// Between ops, `resetups` more set-ups are timed into `setup_secs` at
/// evenly spaced points of the budget, so `setup_s` samples the host over
/// the whole run, as the op latencies do. Their time does not count
/// against the budget.
pub fn phase<W: Workload>(
    w: &W,
    seed: u64,
    budget: f64,
    min_ops: u64,
    resetups: usize,
    setup_secs: &mut Vec<f64>,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let start = Instant::now();
    let first = setup_secs.len();
    let mut paused = 0.0;
    let mut p = Phase::default();
    let mut op = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64() - paused;
        let done = setup_secs.len() - first;
        let finished = op >= min_ops && elapsed >= budget;
        if done < resetups
            && (finished || elapsed >= budget * (done + 1) as f64 / (resetups + 1) as f64)
        {
            let t = Instant::now();
            drop(timed_setup::<W>(tr, setup_secs)?);
            paused += t.elapsed().as_secs_f64();
            continue;
        }
        if finished {
            return Ok(p);
        }
        let input = W::input(seed, op);
        tr.begin_op(op);
        alloc::reset_peak();
        let (wall, cpu) = (Instant::now(), thread_cpu_secs());
        let out = w.op(&input, tr);
        p.latencies.push(thread_cpu_secs() - cpu);
        p.wall.push(wall.elapsed().as_secs_f64());
        p.peak_heap.push(alloc::peak_bytes() as f64);
        tr.end_op();
        let mut digest = Digest::default();
        match out.and_then(|o| w.check(&input, &o, &mut digest, tr)) {
            Ok(sim) if op < min_ops => {
                p.digest.add(&digest.value().to_le_bytes());
                p.digest_ops += 1;
                p.sim.tokens += sim.tokens;
                p.sim.secs += sim.secs;
                p.sim.arrivals += sim.arrivals;
                p.sim.rejected += sim.rejected;
                p.sim.stretches.extend(sim.stretches);
            }
            Ok(_) => {}
            Err(e) => {
                p.failed += 1;
                eprintln!("op {op} failed: {e}");
            }
        }
        tr.finish_op();
        op += 1;
    }
}

/// Sets up, then measures for `seconds`, setting up [`SETUP_REPS`] times in
/// all. A traced run spends half the budget on untraced ops, which also
/// hold the repeated set-ups, and half on the same inputs traced.
pub fn run<W: Workload>(
    seed: u64,
    seconds: f64,
    min_ops: u64,
    tr: &mut Tracer,
) -> Result<Run, String> {
    let traced = tr.enabled();
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let w = timed_setup::<W>(tr, &mut setup_secs)?;
    let resetups = SETUP_REPS - 1;

    tr.set_enabled(false);
    let (baseline, measured) = if traced {
        let baseline = phase(
            &w,
            seed,
            seconds / 2.0,
            min_ops,
            resetups,
            &mut setup_secs,
            tr,
        )?;
        tr.set_enabled(true);
        let measured = phase(&w, seed, seconds / 2.0, min_ops, 0, &mut setup_secs, tr)?;
        (baseline, measured)
    } else {
        let measured = phase(&w, seed, seconds, min_ops, resetups, &mut setup_secs, tr)?;
        (Phase::default(), measured)
    };
    Ok(Run {
        setup_secs,
        attempted: (baseline.latencies.len() + measured.latencies.len()) as u64,
        failed: baseline.failed + measured.failed,
        measured,
        baseline: baseline.latencies,
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock through the 64-bit Linux ABI");

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds the calling thread has run so far.
fn thread_cpu_secs() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
