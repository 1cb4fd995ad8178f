//! `reload`: reopen one saved run, as `real profile --trace` does. Parse
//! its Chrome trace, import it into an event stream, re-profile it, and
//! parse its plan. Set-up writes one saved run per iteration count in
//! [`ITERS`] from a searched DPO-7B plan; each op picks a count, so the
//! trace size varies from op to op.

use super::{ensure, SimTotals, Workload};
use crate::gen::stratified;
use crate::stats::Digest;
use crate::trace::Tracer;
use real_core::prelude::*;
use real_core::real_obs::{chrome, from_chrome_value, ProfileReport};
use real_core::Experiment;
use serde_json::Value;
use std::time::Duration;

/// Iteration counts of the saved runs (inclusive).
pub const ITERS: (u64, u64) = (1, 5);
/// Critical-path entries each profile keeps.
const TOP_K: usize = 10;

/// One saved run: its trace and plan documents, and the profile taken from
/// the live event stream before export.
pub struct SavedRun {
    iterations: usize,
    tokens_per_iter: f64,
    trace_json: String,
    plan_json: String,
    profile: ProfileReport,
}

/// Every saved run, indexed by iteration count.
pub struct Reload {
    runs: Vec<SavedRun>,
}

/// Which saved run an op reopens.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadInput {
    /// Iteration count of the saved run.
    pub iterations: u64,
}

/// The reopened run.
pub struct ReloadOutput {
    profile: ProfileReport,
    plan_json: String,
}

impl Reload {
    /// Bytes of each saved trace document, smallest run first.
    #[cfg(test)]
    pub fn trace_sizes(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.trace_json.len()).collect()
    }

    fn saved(&self, input: &ReloadInput) -> &SavedRun {
        &self.runs[(input.iterations - ITERS.0) as usize]
    }
}

impl Workload for Reload {
    type Input = ReloadInput;
    type Output = ReloadOutput;

    fn input(seed: u64, op: u64) -> ReloadInput {
        // Stratified, so each run reopens every size equally often.
        let sizes = ITERS.1 - ITERS.0 + 1;
        let u = stratified(seed, "reload", op, sizes);
        ReloadInput {
            iterations: ITERS.0 + (u * sizes as f64) as u64,
        }
    }

    fn setup(tr: &mut Tracer) -> Result<Self, String> {
        let engine = EngineConfig {
            trace_capacity: 500_000,
            ..EngineConfig::default()
        };
        let exp = Experiment::dpo(
            ClusterSpec::h100(1),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(16),
        )
        .with_quick_profile()
        .with_engine_config(engine);
        let dbs = super::plan::profile_all(&exp, tr);
        let exp = exp.with_profiles(dbs);
        let cfg = McmcConfig {
            max_steps: 2_000,
            time_limit: Duration::from_secs(86_400),
            seed: 1,
            ..McmcConfig::default()
        };
        let plan = tr
            .span("search.plan_auto", || exp.plan_auto(&cfg))
            .map_err(|e| e.to_string())?
            .plan;
        let plan_json = serde_json::to_string_pretty(&plan);
        let plan_json = plan_json.map_err(|e| e.to_string())?;
        let mut runs = Vec::new();
        for iterations in ITERS.0..=ITERS.1 {
            let report = tr
                .span("runtime.run", || exp.run(&plan, iterations as usize))
                .map_err(|e| e.to_string())?;
            let stream = tr.span("obs.event_stream", || exp.event_stream(&report));
            let profile = tr.span("obs.profile", || ProfileReport::from_stream(&stream, TOP_K));
            let trace_json = tr.span("obs.chrome_export", || chrome::to_chrome_string(&stream));
            runs.push(SavedRun {
                iterations: report.run.iterations,
                tokens_per_iter: report.tokens_per_iter as f64,
                trace_json,
                plan_json: plan_json.clone(),
                profile,
            });
        }
        Ok(Self { runs })
    }

    fn op(&self, input: &ReloadInput, tr: &mut Tracer) -> Result<ReloadOutput, String> {
        let saved = self.saved(input);
        let value: Value = tr
            .sized("json.parse", saved.trace_json.len(), || {
                serde_json::from_str(&saved.trace_json)
            })
            .map_err(|e| e.to_string())?;
        let stream = tr.span("obs.chrome_import", || from_chrome_value(&value))?;
        let profile = tr.span("obs.profile", || ProfileReport::from_stream(&stream, TOP_K));
        let plan: ExecutionPlan = tr
            .sized("json.parse_plan", saved.plan_json.len(), || {
                serde_json::from_str(&saved.plan_json)
            })
            .map_err(|e| e.to_string())?;
        let plan_json = tr
            .span("json.store", || serde_json::to_string_pretty(&plan))
            .map_err(|e| e.to_string())?;
        tr.count("json.store_bytes", plan_json.len() as f64);
        Ok(ReloadOutput { profile, plan_json })
    }

    fn check(
        &self,
        input: &ReloadInput,
        out: &ReloadOutput,
        digest: &mut Digest,
        _tr: &mut Tracer,
    ) -> Result<SimTotals, String> {
        let saved = self.saved(input);
        ensure(out.plan_json == saved.plan_json, || {
            "the re-serialized plan differs from the saved one".into()
        })?;
        let before = serde_json::to_value(&saved.profile);
        let after = serde_json::to_value(&out.profile);
        same_value(&before, &after, "profile")?;
        let json = serde_json::to_string(&out.profile).map_err(|e| e.to_string())?;
        digest.add(json.as_bytes());
        digest.add(out.plan_json.as_bytes());
        Ok(SimTotals {
            tokens: saved.tokens_per_iter * saved.iterations as f64,
            secs: out.profile.makespan,
            ..SimTotals::default()
        })
    }
}

/// Whether two JSON trees match, numbers to a relative 1e-9: the Chrome
/// export stores microseconds, so times come back rounded in the last bits.
fn same_value(a: &Value, b: &Value, path: &str) -> Result<(), String> {
    let differ = || Err(format!("re-profiled trace differs at {path}"));
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            let (x, y) = (x.as_f64(), y.as_f64());
            if (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-6) {
                Ok(())
            } else {
                differ()
            }
        }
        (Value::Array(xs), Value::Array(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys)
            .enumerate()
            .try_for_each(|(i, (x, y))| same_value(x, y, &format!("{path}[{i}]"))),
        (Value::Object(xs), Value::Object(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).try_for_each(|((kx, x), (ky, y))| {
                if kx == ky {
                    same_value(x, y, &format!("{path}.{kx}"))
                } else {
                    differ()
                }
            })
        }
        _ if a == b => Ok(()),
        _ => differ(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_profile_fails_the_check() {
        let mut tr = Tracer::new(false);
        let w = Reload::setup(&mut tr).unwrap();
        let input = Reload::input(1, 0);
        let mut out = w.op(&input, &mut tr).unwrap();
        let mut d = Digest::default();
        w.check(&input, &out, &mut d, &mut tr).unwrap();
        out.profile.makespan *= 1.001;
        assert!(w.check(&input, &out, &mut d, &mut tr).is_err());
        let mut out = w.op(&input, &mut tr).unwrap();
        out.plan_json.push(' ');
        assert!(w.check(&input, &out, &mut d, &mut tr).is_err());
    }

    #[test]
    fn trace_sizes_grow_with_iterations() {
        let w = Reload::setup(&mut Tracer::new(false)).unwrap();
        let sizes = w.trace_sizes();
        assert!(sizes.windows(2).all(|p| p[0] < p[1]), "{sizes:?}");
    }
}
