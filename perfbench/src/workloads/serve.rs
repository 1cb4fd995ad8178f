//! `serve`: one `real serve` call over a fixed two-hour window of the
//! bundled example workload's two tenant templates, with the arrival rate
//! scaled per op by a multiplier drawn log-uniformly from light load to
//! overload.

use super::{ensure, SimTotals, Workload};
use crate::gen::{stratified, Rng};
use crate::stats::Digest;
use crate::trace::Tracer;
use real_core::prelude::ClusterSpec;
use real_sched::GraphSet;
use real_serve::{serve, AdmissionDecision, ArrivalSpec, ServeReport, WorkloadSpec};

/// Simulated window per op, seconds.
pub const HORIZON_SECS: f64 = 7_200.0;
/// Arrival-rate multiplier range, relative to the example workload.
pub const MULTIPLIER: (f64, f64) = (4.0, 32.0);
/// Multipliers at or above this count as overload (the geometric middle of
/// [`MULTIPLIER`]).
pub const OVERLOAD_FROM: f64 = 11.313_708_498_984_761;

/// The base workload document and each template's tokens per iteration.
pub struct Serve {
    spec: WorkloadSpec,
    graphs: GraphSet,
    tokens_per_iter: Vec<f64>,
}

/// One serving window.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInput {
    /// Workload seed (arrival times and template choices).
    pub seed: u64,
    /// Arrival-rate multiplier.
    pub multiplier: f64,
}

/// The served window.
pub struct ServeOutput {
    report: ServeReport,
}

/// `examples/workload.json`: the cluster, templates, and admission policy
/// every op serves.
const WORKLOAD_JSON: &str = include_str!("../../../examples/workload.json");

impl Serve {
    /// The spec one op serves.
    pub fn spec_for(&self, input: &ServeInput) -> WorkloadSpec {
        let mut spec = self.spec.clone();
        spec.seed = Some(input.seed);
        if let ArrivalSpec::Poisson {
            rate_per_hour,
            burst,
        } = &mut spec.arrivals
        {
            *rate_per_hour *= input.multiplier;
            if let Some(b) = burst {
                b.rate_per_hour *= input.multiplier;
            }
        }
        spec
    }
}

/// The counters a window adds to, by load class.
struct LoadClass {
    secs: &'static str,
    arrivals: &'static str,
    pricing_secs: &'static str,
}

/// Windows below [`OVERLOAD_FROM`].
const LIGHT: LoadClass = LoadClass {
    secs: "serve.secs_light",
    arrivals: "serve.arrivals_light",
    pricing_secs: "serve.pricing_secs_light",
};

/// Windows at or above [`OVERLOAD_FROM`].
const OVERLOAD: LoadClass = LoadClass {
    secs: "serve.secs_overload",
    arrivals: "serve.arrivals_overload",
    pricing_secs: "serve.pricing_secs_overload",
};

fn load_class(input: &ServeInput) -> &'static LoadClass {
    if input.multiplier >= OVERLOAD_FROM {
        &OVERLOAD
    } else {
        &LIGHT
    }
}

impl Workload for Serve {
    type Input = ServeInput;
    type Output = ServeOutput;

    fn input(seed: u64, op: u64) -> ServeInput {
        let u = stratified(seed, "serve-load", op, 8);
        ServeInput {
            seed: Rng::new(seed, "serve", op).int(1, 1 << 40),
            multiplier: MULTIPLIER.0 * (MULTIPLIER.1 / MULTIPLIER.0).powf(u),
        }
    }

    fn setup(tr: &mut Tracer) -> Result<Self, String> {
        // Load the workload document, as `real serve --workload` does.
        let spec: WorkloadSpec = tr
            .sized("json.parse", WORKLOAD_JSON.len(), || {
                serde_json::from_str(WORKLOAD_JSON)
            })
            .map_err(|e| e.to_string())?;
        // The window is pinned, so an edit to the example's horizon does not
        // silently change what the benchmark measures.
        let spec = WorkloadSpec {
            horizon_secs: Some(HORIZON_SECS),
            ..spec
        };
        spec.validate().map_err(|e| e.to_string())?;
        let graphs = GraphSet::new();
        let cluster = ClusterSpec::h100(spec.nodes);
        let mut tokens_per_iter = Vec::new();
        for t in &spec.templates {
            let exp = t
                .tenant
                .build_experiment(&cluster, spec.seed(), &graphs)
                .map_err(|e| e.to_string())?;
            let tokens = exp
                .graph()
                .calls()
                .iter()
                .map(|c| c.call_type.total_tokens())
                .max();
            tokens_per_iter.push(tokens.unwrap_or(0) as f64);
        }
        Ok(Self {
            spec,
            graphs,
            tokens_per_iter,
        })
    }

    fn op(&self, input: &ServeInput, tr: &mut Tracer) -> Result<ServeOutput, String> {
        let spec = self.spec_for(input);
        let report = tr
            .span("serve.serve", || serve(&spec, &self.graphs))
            .map_err(|e| e.to_string())?;
        let secs = tr.last_secs();
        tr.count(load_class(input).secs, secs);
        tr.count(load_class(input).arrivals, report.arrivals as f64);
        tr.count("serve.arrivals", report.arrivals as f64);
        tr.count("serve.queued", report.queued as f64);
        tr.count("serve.rejected", report.rejected as f64);
        tr.count("serve.preemptions", report.preemptions as f64);
        Ok(ServeOutput { report })
    }

    fn check(
        &self,
        input: &ServeInput,
        out: &ServeOutput,
        digest: &mut Digest,
        tr: &mut Tracer,
    ) -> Result<SimTotals, String> {
        let r = &out.report;
        let spec = self.spec_for(input);
        let arrivals = tr.span("serve.arrivals_gen", || spec.arrivals()).len();
        if tr.enabled() {
            // `serve` prices every template before its loop. Serving the same
            // spec with no arrivals times that fixed part alone, so the
            // per-layer metrics can split it from the loop.
            let empty = WorkloadSpec {
                arrivals: ArrivalSpec::Trace {
                    times_secs: Vec::new(),
                    templates: None,
                },
                ..spec
            };
            tr.span("serve.pricing", || serve(&empty, &self.graphs))
                .map_err(|e| e.to_string())?;
            let secs = tr.last_secs();
            tr.count(load_class(input).pricing_secs, secs);
        }
        ensure(r.arrivals == r.admitted + r.queued + r.rejected, || {
            format!(
                "arrivals {} != admitted {} + queued {} + rejected {}",
                r.arrivals, r.admitted, r.queued, r.rejected
            )
        })?;
        ensure(
            r.arrivals == arrivals && r.tenants.len() == r.arrivals,
            || format!("{arrivals} arrivals generated, {} served", r.arrivals),
        )?;
        let rejected = r
            .tenants
            .iter()
            .filter(|t| matches!(t.decision, AdmissionDecision::Rejected { .. }))
            .count();
        ensure(rejected == r.rejected, || {
            format!(
                "{rejected} tenants rejected but the footer says {}",
                r.rejected
            )
        })?;
        let json = serde_json::to_string(r).map_err(|e| e.to_string())?;
        digest.add(json.as_bytes());
        let tokens: f64 = r
            .tenants
            .iter()
            .filter(|t| t.finish_secs.is_some())
            .map(|t| t.iterations as f64 * self.tokens_per_iter[t.template])
            .sum();
        Ok(SimTotals {
            tokens,
            secs: r.makespan_secs,
            arrivals: r.arrivals as f64,
            rejected: r.rejected as f64,
            stretches: r
                .tenants
                .iter()
                .filter(|t| t.finish_secs.is_some())
                .map(|t| t.stretch)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_footer_fails_the_check() {
        let mut tr = Tracer::new(false);
        let w = Serve::setup(&mut tr).unwrap();
        let input = Serve::input(1, 0);
        let mut out = w.op(&input, &mut tr).unwrap();
        let mut d = Digest::default();
        w.check(&input, &out, &mut d, &mut tr).unwrap();
        out.report.queued += 1;
        assert!(w.check(&input, &out, &mut d, &mut tr).is_err());
    }
}
