//! Every metric the benchmark prints: its name, unit, and better
//! direction, and how a run's measurements turn into its value.
//! `BENCHMARK.json` lists the same names (a test keeps the two equal).

use crate::run::Run;
use crate::stats::{loglog_slope, median, percentile, ratio};
use crate::trace::Tracer;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Lower),
    ("ops_per_s", "1/s", Higher),
    ("op_p50_ms", "ms", Lower),
    ("op_p90_ms", "ms", Lower),
    ("peak_heap_mb", "MB", Lower),
    ("sim_tokens_per_s", "tokens/s", Higher),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer the
/// workload bypasses reads `0`.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("cluster.mesh_enumerate_ms", "ms", Lower),
    ("cluster.meshes", "count", Lower),
    ("profiler.profile_ms", "ms", Lower),
    ("search.space_build_ms", "ms", Lower),
    ("search.space_options", "count", Lower),
    ("search.mcmc_ms", "ms", Lower),
    ("search.steps_per_s", "1/s", Higher),
    ("search.accept_ratio", "ratio", Higher),
    ("estimator.new_ms", "ms", Lower),
    ("estimator.time_cost_us", "us", Lower),
    ("estimator.max_mem_us", "us", Lower),
    ("estimator.memo_hit_ratio", "ratio", Higher),
    ("estimator.memo_entries", "count", Lower),
    ("runtime.run_ms", "ms", Lower),
    ("runtime.run_async_ms", "ms", Lower),
    ("runtime.run_replan_ms", "ms", Lower),
    ("runtime.iter_us", "us", Lower),
    ("runtime.events", "count", Lower),
    ("runtime.ns_per_event", "ns", Lower),
    ("runtime.retries", "count", Lower),
    ("runtime.reallocs", "count", Lower),
    ("sched.build_ms", "ms", Lower),
    ("sched.plan_ms", "ms", Lower),
    ("sched.run_ms", "ms", Lower),
    ("obs.event_stream_ms", "ms", Lower),
    ("obs.profile_ms", "ms", Lower),
    ("obs.chrome_export_ms", "ms", Lower),
    ("obs.chrome_import_ms", "ms", Lower),
    ("obs.makespan_overrun_ratio", "ratio", Lower),
    ("obs.invariant_failure_ratio", "ratio", Lower),
    ("serve.arrivals_gen_ms", "ms", Lower),
    ("serve.serve_ms", "ms", Lower),
    ("serve.arrivals_per_s", "1/s", Higher),
    ("serve.arrivals_per_s_light", "1/s", Higher),
    ("serve.arrivals_per_s_overload", "1/s", Higher),
    ("serve.pricing_ms", "ms", Lower),
    ("serve.pricing_share_light", "ratio", Lower),
    ("serve.pricing_share_overload", "ratio", Lower),
    ("serve.loop_arrivals_per_s_light", "1/s", Higher),
    ("serve.loop_arrivals_per_s_overload", "1/s", Higher),
    ("serve.arrivals", "count", Lower),
    ("serve.queued_ratio", "ratio", Lower),
    ("serve.preemptions", "count", Lower),
    ("serve.sim_p99_stretch", "ratio", Lower),
    ("serve.sim_reject_ratio", "ratio", Lower),
    ("json.parse_ms", "ms", Lower),
    ("json.parse_mb_per_s", "MB/s", Higher),
    ("json.parse_exponent", "slope", Lower),
    ("json.store_mb_per_s", "MB/s", Higher),
    ("bench.trace_overhead_ratio", "ratio", Lower),
    ("bench.layer_coverage_ratio", "ratio", Higher),
];

const MB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics of an untraced run, in [`END_TO_END`] order.
pub fn end_to_end(run: &Run) -> Vec<f64> {
    let lat = &run.measured.latencies;
    vec![
        median(&run.setup_secs),
        ratio(lat.len() as f64, lat.iter().sum()),
        percentile(lat, 50.0) * 1e3,
        percentile(lat, 90.0) * 1e3,
        median(&run.measured.peak_heap) / MB,
        ratio(run.measured.sim.tokens, run.measured.sim.secs),
    ]
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
pub fn per_layer(run: &Run, tr: &Tracer) -> Vec<f64> {
    let ops = run.measured.latencies.len() as f64;
    let ms = |name: &str| median(&tr.durations(name, true)) * 1e3;
    let us = |name: &str| median(&tr.durations(name, true)) * 1e6;
    let total = |name: &str| tr.durations(name, true).iter().sum::<f64>();
    let calls = |name: &str| tr.durations(name, true).len() as f64;
    let c = |name: &str| tr.counter(name);
    let runtime_secs =
        total("runtime.run") + total("runtime.run_async") + total("runtime.run_replan");
    let parses: Vec<(f64, f64)> = tr
        .spans()
        .iter()
        .filter(|s| s.op.is_some() && s.name == "json.parse")
        .map(|s| (s.bytes, s.secs()))
        .collect();
    let parsed_bytes: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.op.is_some() && s.name.starts_with("json.parse"))
        .map(|s| s.bytes)
        .sum();
    let sim = &run.measured.sim;
    vec![
        ms("cluster.mesh_enumerate"),
        ratio(c("cluster.meshes"), calls("cluster.mesh_enumerate")),
        median(&tr.durations("profiler.profile", false)) * 1e3,
        ms("search.space_build"),
        ratio(c("search.space_options"), calls("search.space_build")),
        ms("search.mcmc"),
        ratio(c("search.steps"), total("search.mcmc")),
        ratio(c("search.accepted"), c("search.steps")),
        ms("estimator.new"),
        us("estimator.time_cost"),
        us("estimator.max_mem"),
        ratio(
            c("estimator.memo_hits"),
            c("estimator.memo_hits") + c("estimator.memo_misses"),
        ),
        ratio(c("estimator.memo_entries"), c("estimator.memo_searches")),
        ms("runtime.run"),
        ms("runtime.run_async"),
        ms("runtime.run_replan"),
        ratio(runtime_secs, c("runtime.iterations")) * 1e6,
        ratio(c("runtime.events"), ops),
        ratio(runtime_secs, c("runtime.events")) * 1e9,
        ratio(c("runtime.retries"), ops),
        ratio(c("runtime.reallocs"), ops),
        ms("sched.build"),
        ms("sched.plan"),
        ms("sched.run"),
        ms("obs.event_stream"),
        ms("obs.profile"),
        ms("obs.chrome_export"),
        ms("obs.chrome_import"),
        ratio(c("obs.overruns"), c("obs.parts")),
        ratio(c("obs.invariant_failures"), c("obs.parts")),
        ms("serve.arrivals_gen"),
        ms("serve.serve"),
        ratio(c("serve.arrivals"), total("serve.serve")),
        ratio(c("serve.arrivals_light"), c("serve.secs_light")),
        ratio(c("serve.arrivals_overload"), c("serve.secs_overload")),
        ms("serve.pricing"),
        ratio(c("serve.pricing_secs_light"), c("serve.secs_light")),
        ratio(c("serve.pricing_secs_overload"), c("serve.secs_overload")),
        ratio(
            c("serve.arrivals_light"),
            c("serve.secs_light") - c("serve.pricing_secs_light"),
        ),
        ratio(
            c("serve.arrivals_overload"),
            c("serve.secs_overload") - c("serve.pricing_secs_overload"),
        ),
        ratio(c("serve.arrivals"), ops),
        ratio(c("serve.queued"), c("serve.arrivals")),
        ratio(c("serve.preemptions"), ops),
        percentile(&sim.stretches, 99.0),
        ratio(sim.rejected, sim.arrivals),
        ms("json.parse"),
        ratio(
            parsed_bytes / MB,
            total("json.parse") + total("json.parse_plan"),
        ),
        loglog_slope(&parses),
        ratio(c("json.store_bytes") / MB, total("json.store")),
        ratio(
            total_ops(&run.measured.latencies, run.baseline.len()),
            total_ops(&run.baseline, run.measured.latencies.len()),
        ),
        tr.layer_coverage(),
    ]
}

/// Sum of the first `n` latencies.
fn total_ops(latencies: &[f64], n: usize) -> f64 {
    latencies.iter().take(n).sum()
}
