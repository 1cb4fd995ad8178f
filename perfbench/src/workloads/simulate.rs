//! `simulate`: one composite profiled run of a plan searched in set-up
//! (PPO 7B + 7B on 2 nodes / 16 GPUs). Four parts, each exported through
//! the event stream and profiled:
//!
//! - (a) a run under a per-op random fault schedule, plus its Chrome trace
//!   kept in memory;
//! - (b) the same workflow async off-policy (staleness 1) on the split plan.
//!   At this commit the async master's call spans overlap on the master
//!   lane, so its stream fails `EventStream::check_invariants`. That is
//!   counted (`obs.invariant_failure_ratio`) rather than failing the op;
//!   the part checks the staleness bound;
//! - (c) a permanent crash that re-plans with a small search budget;
//! - (d) the multi-tenant scheduler on a seeded three-tenant mix.

use super::{ensure, SimTotals, Workload};
use crate::gen::{stratified, Rng};
use crate::stats::Digest;
use crate::trace::Tracer;
use real_core::prelude::*;
use real_core::real_obs::{chrome, ProfileReport};
use real_core::real_sim::Category;
use real_core::{Experiment, ExperimentReport};
use real_sched::{SchedConfig, SchedSpec, Scheduler, TenantSpec};
use std::time::Duration;

/// Nodes (8 GPUs each).
const NODES: u32 = 2;
/// RLHF iterations of parts (a)–(c).
const ITERS: usize = 2;
/// Staleness bound of part (b).
const STALENESS: u32 = 1;
/// Step budget of the set-up search.
const SETUP_STEPS: u64 = 4_000;
/// Step budget of part (c)'s re-plan search.
const REPLAN_STEPS: u64 = 300;
/// Critical-path entries each profile keeps.
const TOP_K: usize = 10;
/// Event capacity of the simulator trace (as `real run --trace`).
const TRACE_CAPACITY: usize = 500_000;

/// The experiment with profiles, its searched plan, and its split plan.
pub struct Simulate {
    exp: Experiment,
    plan: ExecutionPlan,
    split: ExecutionPlan,
    iter_secs: f64,
}

/// One op's generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateInput {
    /// Seed of part (a)'s random fault schedule.
    pub fault_seed: u64,
    /// Fault events per simulated minute in part (a).
    pub fault_rate: f64,
    /// GPU part (c) loses for good.
    pub crash_gpu: u32,
    /// When it dies, in iterations of the fault-free run.
    pub crash_iters: f64,
    /// Part (d)'s tenants: `(batch, iterations, priority)`.
    pub tenants: Vec<(u64, usize, f64)>,
    /// Part (d)'s scheduler seed.
    pub sched_seed: u64,
}

/// One part's outputs.
pub struct Part {
    name: &'static str,
    /// The makespan the runtime itself reported.
    makespan: f64,
    stream: EventStream,
    profile: ProfileReport,
    profile_json: String,
}

/// Every part of one op.
pub struct SimulateOutput {
    parts: Vec<Part>,
    faulted: ExperimentReport,
    offpolicy: ExperimentReport,
    replans: u64,
    chrome_bytes: usize,
    sched_json: String,
}

fn experiment() -> Experiment {
    let engine = EngineConfig {
        trace_capacity: TRACE_CAPACITY,
        ..EngineConfig::default()
    };
    Experiment::ppo(
        ClusterSpec::h100(NODES),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(128),
    )
    .with_quick_profile()
    .with_engine_config(engine)
}

/// Streams, profiles, and stores one finished run's report.
fn profile_part(
    name: &'static str,
    makespan: f64,
    stream: EventStream,
    tr: &mut Tracer,
) -> Result<Part, String> {
    let profile = tr.span("obs.profile", || ProfileReport::from_stream(&stream, TOP_K));
    let profile_json = tr.span("json.store", || serde_json::to_string(&profile));
    let profile_json = profile_json.map_err(|e| e.to_string())?;
    tr.count("json.store_bytes", profile_json.len() as f64);
    Ok(Part {
        name,
        makespan,
        stream,
        profile,
        profile_json,
    })
}

/// Adds one run's simulator work to the trace counters.
fn count_run(tr: &mut Tracer, report: &ExperimentReport) {
    let run = &report.run;
    tr.count("runtime.iterations", run.iterations as f64);
    tr.count("runtime.events", run.trace.events().len() as f64);
    tr.count("runtime.retries", run.faults.retries as f64);
    let reallocs = run
        .trace
        .events()
        .iter()
        .filter(|e| e.category == Category::Realloc)
        .count();
    tr.count("runtime.reallocs", reallocs as f64);
}

impl Workload for Simulate {
    type Input = SimulateInput;
    type Output = SimulateOutput;

    fn input(seed: u64, op: u64) -> SimulateInput {
        let mut r = Rng::new(seed, "simulate", op);
        SimulateInput {
            fault_seed: r.next_u64(),
            fault_rate: 1.0 + 3.0 * stratified(seed, "fault-rate", op, 8),
            crash_gpu: r.int(0, u64::from(NODES) * 8 - 1) as u32,
            crash_iters: 1.2 + 0.6 * stratified(seed, "crash-at", op, 8),
            // The bundled `examples/tenants.json` mix, with seeded priorities.
            tenants: [(64, 2), (32, 2), (32, 3)]
                .iter()
                .map(|&(batch, iters)| (batch, iters, r.log_range(0.5, 4.0)))
                .collect(),
            sched_seed: r.int(1, 1 << 40),
        }
    }

    fn setup(tr: &mut Tracer) -> Result<Self, String> {
        let exp = experiment();
        let dbs = super::plan::profile_all(&exp, tr);
        let exp = exp.with_profiles(dbs);
        let cfg = McmcConfig {
            max_steps: SETUP_STEPS,
            time_limit: Duration::from_secs(86_400),
            seed: 1,
            ..McmcConfig::default()
        };
        let planned = tr
            .span("search.plan_auto", || exp.plan_auto(&cfg))
            .map_err(|e| e.to_string())?;
        let split = exp
            .plan_split()
            .ok_or("the cluster cannot be split for async off-policy")?;
        let solo = tr
            .span("runtime.run", || exp.run(&planned.plan, 1))
            .map_err(|e| e.to_string())?;
        let reallocates = solo
            .run
            .trace
            .events()
            .iter()
            .any(|e| e.category == Category::Realloc);
        ensure(reallocates, || {
            "the searched plan does not reallocate".into()
        })?;
        Ok(Self {
            iter_secs: solo.run.iter_time,
            exp,
            plan: planned.plan,
            split,
        })
    }

    fn op(&self, input: &SimulateInput, tr: &mut Tracer) -> Result<SimulateOutput, String> {
        let mut parts = Vec::with_capacity(4);
        let gpus = (NODES * 8) as usize;

        // (a) A run under random faults, exported as a Chrome trace.
        let horizon = self.iter_secs * ITERS as f64;
        let faults = FaultPlan::random(input.fault_seed, gpus, 8, horizon, input.fault_rate);
        let exp = self.exp.clone().with_fault_plan(faults);
        let faulted = tr
            .span("runtime.run", || exp.run(&self.plan, ITERS))
            .map_err(|e| e.to_string())?;
        count_run(tr, &faulted);
        let stream = tr.span("obs.event_stream", || exp.event_stream(&faulted));
        let trace = tr.span("obs.chrome_export", || chrome::to_chrome_string(&stream));
        parts.push(profile_part("faulted", faulted.run.total_time, stream, tr)?);

        // (b) Async off-policy on the split plan.
        let exp = self.exp.clone().with_async_offpolicy(STALENESS);
        let offpolicy = tr
            .span("runtime.run_async", || exp.run(&self.split, ITERS))
            .map_err(|e| e.to_string())?;
        count_run(tr, &offpolicy);
        let stream = tr.span("obs.event_stream", || exp.event_stream(&offpolicy));
        parts.push(profile_part(
            "offpolicy",
            offpolicy.run.total_time,
            stream,
            tr,
        )?);

        // (c) A permanent crash and an elastic re-plan.
        let crash = FaultPlan::new(input.fault_seed).crash(
            input.crash_gpu,
            self.iter_secs * input.crash_iters,
            1.0e6,
        );
        let exp = self
            .exp
            .clone()
            .with_fault_plan(crash)
            .with_replan_policy(ReplanPolicy::new().with_search_steps(REPLAN_STEPS));
        let report = tr
            .span("runtime.run_replan", || exp.run(&self.plan, ITERS))
            .map_err(|e| e.to_string())?;
        count_run(tr, &report);
        let replans = report.run.replan.switches;
        let stream = tr.span("obs.event_stream", || exp.event_stream(&report));
        parts.push(profile_part("replan", report.run.total_time, stream, tr)?);

        // (d) Three tenants packed by the scheduler.
        let spec = SchedSpec {
            nodes: NODES,
            seed: Some(input.sched_seed),
            tenants: input
                .tenants
                .iter()
                .enumerate()
                .map(|(i, &(batch, iterations, priority))| TenantSpec {
                    name: format!("t{i}"),
                    id: None,
                    priority: Some(priority),
                    algo: Some("dpo".into()),
                    actor: Some("7b".into()),
                    critic: None,
                    batch: Some(batch),
                    graph: None,
                    iterations: Some(iterations),
                    faults: None,
                    elastic: Some(i == 2),
                })
                .collect(),
        };
        let (cluster, tenants) = tr
            .span("sched.build", || spec.build())
            .map_err(|e| e.to_string())?;
        let scheduler = Scheduler::new(cluster).with_config(SchedConfig {
            seed: input.sched_seed,
            trace_capacity: TRACE_CAPACITY,
            ..SchedConfig::default()
        });
        let schedule = tr
            .span("sched.plan", || scheduler.plan(&tenants))
            .map_err(|e| e.to_string())?;
        let outcome = tr
            .span("sched.run", || scheduler.run(&tenants))
            .map_err(|e| e.to_string())?;
        ensure(
            schedule.tenants.len() == outcome.schedule.tenants.len(),
            || "dry-run and run schedules differ in size".into(),
        )?;
        let stream = tr.span("obs.event_stream", || {
            real_sched::obs::sched_event_stream(&outcome.schedule, &outcome.reports)
        });
        parts.push(profile_part(
            "sched",
            outcome.report.makespan_secs,
            stream,
            tr,
        )?);
        let sched_json = serde_json::to_string(&outcome.report).map_err(|e| e.to_string())?;

        Ok(SimulateOutput {
            parts,
            faulted,
            offpolicy,
            replans,
            chrome_bytes: trace.len(),
            sched_json,
        })
    }

    fn check(
        &self,
        _input: &SimulateInput,
        out: &SimulateOutput,
        digest: &mut Digest,
        tr: &mut Tracer,
    ) -> Result<SimTotals, String> {
        for part in &out.parts {
            tr.count("obs.parts", 1.0);
            let broken = match part.stream.check_invariants() {
                Ok(()) => false,
                // The async stream's overlapping master-lane spans are a
                // known defect: counted, not failed.
                Err(e) => {
                    ensure(part.name == "offpolicy", || {
                        format!("{}: event stream: {e}", part.name)
                    })?;
                    tr.count("obs.invariant_failures", 1.0);
                    true
                }
            };
            // Attributed against the runtime's own makespan: at this commit
            // the export can stretch the stream past the run's end (see
            // `obs.makespan_overrun_ratio`), which would count as idle.
            let attributed = part.profile.attributed_fraction() * part.profile.makespan;
            let attributed = attributed / part.makespan;
            if part.profile.makespan > part.makespan * (1.0 + 1e-9) {
                tr.count("obs.overruns", 1.0);
            }
            // A crashed GPU idles the run until it is declared dead, so the
            // re-plan part has real idle time and is exempt; so is a broken
            // stream, which cannot be attributed.
            ensure(
                part.name == "replan" || broken || attributed >= 0.95,
                || {
                    format!(
                        "{}: only {attributed:.3} of the makespan attributed",
                        part.name
                    )
                },
            )?;
            digest.add(part.profile_json.as_bytes());
        }
        let stats = &out.offpolicy.run.async_stats;
        ensure(
            stats.relaxed_calls > 0 && stats.max_observed_staleness <= STALENESS,
            || format!("async run: {}", stats.render_line()),
        )?;
        digest.add_f64(out.offpolicy.run.total_time);
        digest.add_f64(stats.gen_train_overlap_secs);
        ensure(out.replans >= 1, || {
            "the crash did not trigger a re-plan".into()
        })?;
        ensure(out.chrome_bytes > 0, || "empty Chrome export".into())?;
        digest.add(out.sched_json.as_bytes());
        let run = &out.faulted.run;
        Ok(SimTotals {
            tokens: out.faulted.tokens_per_iter as f64 * run.iterations as f64,
            secs: run.total_time,
            ..SimTotals::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_stream_fails_the_check() {
        let mut tr = Tracer::new(false);
        let w = Simulate::setup(&mut tr).unwrap();
        let input = Simulate::input(1, 0);
        let mut out = w.op(&input, &mut tr).unwrap();
        let mut d = Digest::default();
        w.check(&input, &out, &mut d, &mut tr).unwrap();
        // An unmatched span end breaks the stream's nesting invariant.
        let lane = real_core::real_obs::LaneId::master();
        out.parts[0].stream.begin(lane, "dangling", "compute", 0.0);
        assert!(w.check(&input, &out, &mut d, &mut tr).is_err());
    }
}
