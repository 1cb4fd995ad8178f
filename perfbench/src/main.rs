//! `perfbench`: the real-rs benchmark. One closed-loop client drives one
//! workload through the library's public entry points and prints every
//! metric by name, with its unit; the last line of standard output is the
//! JSON result. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <plan|simulate|serve|reload> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod alloc;
mod gen;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;
use workloads::plan::Plan;
use workloads::reload::Reload;
use workloads::serve::Serve;
use workloads::simulate::Simulate;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["plan", "simulate", "serve", "reload"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join("|"),
            opts.workload
        ));
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", opts.seconds));
    }
    Ok(opts)
}

/// Ops whose simulated outputs every run digests, whatever the host speed.
/// `plan` ops are slow; `simulate`'s faulted runs vary most from op to op,
/// so its `sim_tokens_per_s` averages over more of them.
fn digest_ops(workload: &str) -> u64 {
    match workload {
        "plan" => 8,
        "simulate" => 32,
        _ => 16,
    }
}

/// The JSON result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn execute<W: Workload>(opts: &Options) -> Result<String, String> {
    let mut tr = Tracer::new(opts.trace);
    let min_ops = digest_ops(&opts.workload);
    let run = run::run::<W>(opts.seed, opts.seconds, min_ops, &mut tr)?;
    let m = &run.measured;
    let p90 = stats::percentile(&m.latencies, 90.0);
    println!(
        "workload {} seed {} traced {}: {} ops, {} failed (failed_op_ratio {:.4}); {} measured, {} beyond p90",
        opts.workload,
        opts.seed,
        opts.trace,
        run.attempted,
        run.failed,
        stats::ratio(run.failed as f64, run.attempted as f64),
        m.latencies.len(),
        m.latencies.iter().filter(|&&l| l > p90).count(),
    );
    println!(
        "wall clock: op p50 {:.4} ms, p90 {:.4} ms",
        stats::percentile(&m.wall, 50.0) * 1e3,
        stats::percentile(&m.wall, 90.0) * 1e3,
    );
    println!(
        "digest {:016x} over the first {} ops; sim_tokens_per_s {:?}, sim_p99_stretch {:?}, sim_reject_ratio {:?}",
        m.digest.value(),
        m.digest_ops,
        stats::ratio(m.sim.tokens, m.sim.secs),
        stats::percentile(&m.sim.stretches, 99.0),
        stats::ratio(m.sim.rejected, m.sim.arrivals),
    );
    let (table, values) = if opts.trace {
        (PER_LAYER, metrics::per_layer(&run, &tr))
    } else {
        (END_TO_END, metrics::end_to_end(&run))
    };
    let mut out = Vec::with_capacity(table.len());
    for (&(name, unit, _), &v) in table.iter().zip(&values) {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        println!("  {name:<32} {v:>16.4} {unit}");
        out.push((name, unit, v));
    }
    if opts.trace {
        let dir = ".bench_out";
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!(
            "{dir}/perfbench-{}-seed{}.trace.json",
            opts.workload, opts.seed
        );
        std::fs::write(&path, tr.to_chrome()).map_err(|e| format!("{path}: {e}"))?;
        println!("host spans written to {path}");
    }
    let correct = run.failed == 0 && m.digest_ops == min_ops;
    Ok(result_line(correct, run.attempted, run.failed, &out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|opts| match opts.workload.as_str() {
        "plan" => execute::<Plan>(&opts),
        "simulate" => execute::<Simulate>(&opts),
        "serve" => execute::<Serve>(&opts),
        _ => execute::<Reload>(&opts),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Better;

    fn inputs<W: Workload>(seed: u64) -> String {
        (0..64)
            .map(|op| format!("{:?}\n", W::input(seed, op)))
            .collect()
    }

    fn check_inputs<W: Workload>() {
        assert_eq!(inputs::<W>(7), inputs::<W>(7), "same seed, same inputs");
        assert_ne!(inputs::<W>(7), inputs::<W>(8), "another seed, other inputs");
    }

    #[test]
    fn same_seed_generates_identical_inputs() {
        check_inputs::<Plan>();
        check_inputs::<Simulate>();
        check_inputs::<Serve>();
        check_inputs::<Reload>();
    }

    /// `(name, unit, better)` of every metric in one `BENCHMARK.json` list.
    fn declared(list: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let serde_json::Value::Object(fields) = doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let (_, serde_json::Value::Array(items)) = fields
            .iter()
            .find(|(k, _)| k == list)
            .expect("list present")
        else {
            panic!("{list} is not an array")
        };
        items
            .iter()
            .map(|item| {
                let serde_json::Value::Object(kv) = item else {
                    panic!("metric is not an object")
                };
                let get = |key: &str| match kv.iter().find(|(k, _)| k == key) {
                    Some((_, serde_json::Value::String(s))) => s.clone(),
                    other => panic!("{key}: {other:?}"),
                };
                (get("name"), get("unit"), get("better"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str, Better)]) -> Vec<(String, String, String)> {
        t.iter()
            .map(|&(n, u, b)| {
                let better = if b == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                (n.to_string(), u.to_string(), better.to_string())
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), table(END_TO_END));
        assert_eq!(declared("per_layer"), table(PER_LAYER));
    }

    #[test]
    fn result_line_has_the_documented_keys() {
        let line = result_line(true, 3, 0, &[("op_p50_ms", "ms", 1.5)]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let serde_json::Value::Object(kv) = v else {
            panic!()
        };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn flags_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse(&args("--workload serve --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse(&args("--workload nope --seed 3")).is_err());
        assert!(parse(&args("--workload plan --trace 2")).is_err());
        assert!(parse(&args("--workload plan --seconds 0")).is_err());
        assert!(parse(&args("--workload plan --seed")).is_err());
    }

    /// A tiny traced run: every op passes its check, every metric is
    /// finite, and every named layer is charged to.
    fn smoke<W: Workload>(name: &str) {
        let mut tr = Tracer::new(true);
        let run = run::run::<W>(5, 0.01, 1, &mut tr).unwrap();
        assert_eq!(run.failed, 0, "{name}");
        assert_eq!(run.measured.digest_ops, 1, "{name}");
        assert_eq!(run.setup_secs.len(), run::SETUP_REPS, "{name}");
        for v in metrics::per_layer(&run, &tr) {
            assert!(v.is_finite(), "{name}: {v}");
        }
        assert!(tr.layer_coverage() > 0.5, "{name}");
        assert!(metrics::end_to_end(&run).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn smoke_plan() {
        smoke::<Plan>("plan");
    }

    #[test]
    fn smoke_simulate() {
        smoke::<Simulate>("simulate");
    }

    #[test]
    fn smoke_serve() {
        smoke::<Serve>("serve");
    }

    #[test]
    fn smoke_reload() {
        smoke::<Reload>("reload");
    }
}
