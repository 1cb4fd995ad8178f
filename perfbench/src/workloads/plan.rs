//! `plan`: one `real plan` request at the paper's largest grid point (PPO
//! 70B actor + 7B critic, 16 nodes / 128 GPUs, batch 4096), then one
//! simulated iteration of the chosen plan for its throughput.

use super::{ensure, SimTotals, Workload};
use crate::gen::Rng;
use crate::stats::Digest;
use crate::trace::Tracer;
use real_core::prelude::*;
use real_core::real_cluster::DeviceMesh;
use real_core::{Experiment, ExperimentReport};
use std::collections::BTreeSet;
use std::time::Duration;

/// Fixed MCMC step budget. Op cost is not monotone in it, so it is pinned
/// rather than scaled; at this budget chains converge, which keeps the
/// op's cost nearly independent of its seed.
pub const STEPS: u64 = 8_000;

/// Pruning level of the search space, pinned on the experiment so the op
/// builds the space `Experiment::plan_auto` would.
const PRUNE: PruneLevel = PruneLevel::Aggressive;

/// The planned experiment, with profiles collected once in set-up.
pub struct Plan {
    exp: Experiment,
    cfg: McmcConfig,
}

/// A plan request: the experiment seed `real plan --seed` would pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanInput {
    /// Experiment seed.
    pub seed: u64,
}

/// The chosen plan, its searched cost, and its simulated iteration.
pub struct PlanOutput {
    plan: ExecutionPlan,
    best_time_cost: f64,
    report: ExperimentReport,
}

/// The experiment every op plans; `Plan::setup` profiles it.
fn experiment() -> Experiment {
    Experiment::ppo(
        ClusterSpec::h100(16),
        ModelSpec::llama3_70b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(4096),
    )
    .with_quick_profile()
    .with_prune_level(PRUNE)
}

/// Profiles each distinct architecture of `exp`'s graph once. The profiling
/// seed is fixed, so every run plans against the same statistics and the
/// run seed varies only the ops.
pub fn profile_all(exp: &Experiment, tr: &mut Tracer) -> Vec<ProfileDb> {
    let mut profiler = Profiler::new(exp.cluster().clone(), ProfileConfig::quick(), 1);
    let mut seen = BTreeSet::new();
    let mut dbs = Vec::new();
    for call in exp.graph().calls() {
        if seen.insert(call.model.name.clone()) {
            dbs.push(tr.span("profiler.profile", || profiler.profile(&call.model)));
        }
    }
    dbs
}

impl Workload for Plan {
    type Input = PlanInput;
    type Output = PlanOutput;

    fn input(seed: u64, op: u64) -> PlanInput {
        PlanInput {
            seed: Rng::new(seed, "plan", op).int(1, 1 << 40),
        }
    }

    fn setup(tr: &mut Tracer) -> Result<Self, String> {
        let exp = experiment();
        let dbs = profile_all(&exp, tr);
        let cfg = McmcConfig {
            max_steps: STEPS,
            // Never binds: the chosen plan depends only on the seed.
            time_limit: Duration::from_secs(86_400),
            seed: 0,
            ..McmcConfig::default()
        };
        Ok(Self {
            exp: exp.with_profiles(dbs),
            cfg,
        })
    }

    fn op(&self, input: &PlanInput, tr: &mut Tracer) -> Result<PlanOutput, String> {
        // `Experiment::plan_auto`'s calls one by one, so each layer gets its
        // own span (a disabled tracer passes every call straight through).
        let exp = self.exp.clone().with_seed(input.seed);
        let meshes = tr.span("cluster.mesh_enumerate", || {
            DeviceMesh::enumerate(exp.cluster())
        });
        tr.count("cluster.meshes", meshes.len() as f64);
        let space = tr
            .span("search.space_build", || {
                SearchSpace::try_build_on(exp.cluster(), exp.graph(), PRUNE, &meshes)
            })
            .map_err(|e| e.to_string())?;
        let options: usize = (0..space.n_calls()).map(|c| space.options(c).len()).sum();
        tr.count("search.space_options", options as f64);
        let (est, _) = tr.span("estimator.new", || exp.prepare());
        let mut cfg = self.cfg.clone();
        cfg.seed = input.seed.wrapping_add(cfg.seed);
        let result = tr.span("search.mcmc", || {
            real_core::real_search::search(&est, &space, &cfg)
        });
        count_search(tr, &result);
        ensure(result.feasible, || "no memory-feasible plan".into())?;
        let (plan, best_time_cost) = (result.best_plan, result.best_time_cost);
        let report = tr
            .span("runtime.run", || exp.run(&plan, 1))
            .map_err(|e| e.to_string())?;
        tr.count("runtime.iterations", report.run.iterations as f64);
        tr.count("runtime.events", report.run.trace.events().len() as f64);
        Ok(PlanOutput {
            plan,
            best_time_cost,
            report,
        })
    }

    fn check(
        &self,
        input: &PlanInput,
        out: &PlanOutput,
        digest: &mut Digest,
        tr: &mut Tracer,
    ) -> Result<SimTotals, String> {
        // Re-price the chosen plan from scratch.
        let exp = self.exp.clone().with_seed(input.seed);
        let (est, _) = tr.span("estimator.new", || exp.prepare());
        let cost = tr.span("estimator.time_cost", || est.time_cost(&out.plan));
        let mem = tr.span("estimator.max_mem", || est.max_mem(&out.plan));
        ensure(cost.to_bits() == out.best_time_cost.to_bits(), || {
            format!(
                "re-priced TimeCost {cost} differs from the searched {}",
                out.best_time_cost
            )
        })?;
        ensure(est.mem_ok(&out.plan), || {
            format!("chosen plan needs {mem} bytes per GPU, more than fits")
        })?;
        let run = &out.report.run;
        ensure(run.iter_time.is_finite() && run.iter_time > 0.0, || {
            format!("iteration time {}", run.iter_time)
        })?;
        let json = serde_json::to_string(&out.plan).map_err(|e| e.to_string())?;
        digest.add(json.as_bytes());
        digest.add_f64(out.best_time_cost);
        digest.add_f64(run.iter_time);
        Ok(SimTotals {
            tokens: out.report.tokens_per_iter as f64 * run.iterations as f64,
            secs: run.iter_time * run.iterations as f64,
            ..SimTotals::default()
        })
    }
}

/// Adds a finished search's work counters to the trace.
fn count_search(tr: &mut Tracer, result: &real_core::real_search::SearchResult) {
    tr.count("search.steps", result.steps as f64);
    tr.count("search.accepted", result.accepted as f64);
    tr.count("estimator.memo_hits", result.memo.hits as f64);
    tr.count("estimator.memo_misses", result.memo.misses as f64);
    tr.count("estimator.memo_entries", result.memo.entries as f64);
    tr.count("estimator.memo_searches", 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_cost_fails_the_check() {
        let mut tr = Tracer::new(false);
        let w = Plan::setup(&mut tr).unwrap();
        let input = Plan::input(1, 0);
        let mut out = w.op(&input, &mut tr).unwrap();
        let mut d = Digest::default();
        w.check(&input, &out, &mut d, &mut tr).unwrap();
        out.best_time_cost *= 1.0 + 1e-12;
        assert!(w.check(&input, &out, &mut d, &mut tr).is_err());
    }
}
