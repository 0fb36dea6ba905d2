//! The reproduction's benchmark: four workloads that each load one layer
//! of the IPFS stack, end-to-end metrics with tracing off, per-layer
//! metrics from a traced run. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dht_lookup --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). The exit code is non-zero when an
//! output check fails.

mod layers;
mod stats;
mod trace;
mod workloads;

use stats::{fnv1a, median, percentile, tail_supported};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Rep, Size};

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ops_per_s", "1/s"), ("call_ms_p50", "ms")];

/// A run stops starting repetitions once the next one could end past this.
const HARD_LIMIT: Duration = Duration::from_secs(150);

/// Library knobs the workloads run at their defaults.
const DEFAULTED_KNOBS: [&str; 3] = ["IPFS_REPRO_SCHED", "IPFS_REPRO_EXPIRY", "IPFS_REPRO_DTRACE"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 12, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", workloads::NAMES));
    }
    Ok(Args { workload, seed, seconds, trace, size: Size::Full })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let env = repro_env();
    for knob in DEFAULTED_KNOBS {
        // Single-threaded here; the libraries read these on first use.
        std::env::remove_var(knob);
    }
    let out = run(&args);
    print!("{}", out.report);
    println!("provenance: {}", provenance(&args, out.reps, &env));
    if let Some(tsv) = &out.spans {
        match write_spans(&args, tsv) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    println!("{}", out.json);
    if !out.correct {
        std::process::exit(1);
    }
}

/// Everything one invocation prints.
struct Output {
    report: String,
    json: String,
    correct: bool,
    reps: usize,
    spans: Option<String>,
}

fn run(args: &Args) -> Output {
    let start = Instant::now();
    let limit = Duration::from_secs(args.seconds);
    let mut rec = Recorder::new(false);
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    // Untraced runs repeat untraced reps. Traced runs alternate untraced
    // and traced reps (the pairs give the tracing overhead) and compute
    // the per-layer metrics on the first traced rep. Rep 0 runs on a cold
    // heap, so a traced run makes at least one more untraced rep to set
    // the traced ones against.
    let min_reps = if args.trace { 3 } else { 2 };
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        rec.set_traced(traced);
        let want_layers = args.trace && reps.len() == 1;
        let t = Instant::now();
        let rep = workloads::run_rep(&args.workload, args.seed, args.size, &mut rec, want_layers);
        let took = t.elapsed();
        reps.push((traced, rep));
        let done = start.elapsed();
        if reps.len() >= min_reps && (done >= limit || done + took > HARD_LIMIT) {
            break;
        }
    }

    let mut report = String::new();
    let mut errors: Vec<String> = Vec::new();
    let digest = &reps[0].1.digest;
    let _ = writeln!(report, "workload: {} seed={} size={:?}", args.workload, args.seed, args.size);
    let _ = writeln!(report, "digest: {digest}");
    let _ = writeln!(report, "digest_fnv: {:016x}", fnv1a(digest.as_bytes()));
    for (i, (_, rep)) in reps.iter().enumerate() {
        if rep.digest != *digest {
            errors.push(format!("rep {i} digest differs: {}", rep.digest));
        }
        errors.extend(rep.errors.iter().map(|e| format!("rep {i}: {e}")));
    }
    let attempted: u64 = reps.iter().map(|(_, r)| r.ops).sum();
    let failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();

    let untraced: Vec<&Rep> = reps.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let e2e = end_to_end(&untraced);
    let _ = writeln!(report, "reps: {} ({} traced)", reps.len(), traced.len());
    for (i, (t, rep)) in reps.iter().enumerate() {
        let e = end_to_end(&[rep]);
        let _ = writeln!(
            report,
            "rep {i} traced={t} setup_s={:.6} ops_per_s={:.6} call_ms_p50={:.6}",
            e[0].1, e[2].1, e[3].1
        );
    }
    for (name, value, unit) in &e2e {
        let _ = writeln!(report, "metric {name} {value:.6} {unit}");
    }
    report.push_str(&workload_lines(&untraced));
    let _ = writeln!(
        report,
        "failed_ops_share {:.6} ratio ({failed} of {attempted} ops)",
        failed as f64 / attempted.max(1) as f64
    );

    let mut metrics = Vec::new();
    let mut spans = None;
    if args.trace {
        let warm = reps[1..].iter().filter(|(t, _)| !t).map(|(_, r)| r).collect::<Vec<_>>();
        let warm_e2e = end_to_end(&warm);
        let traced_e2e = end_to_end(&traced);
        let mut layer_values =
            reps[1].1.layers.clone().expect("the first traced rep computes layers");
        for ((name, plain, unit), (_, with_trace, _)) in warm_e2e.iter().zip(&traced_e2e) {
            let _ = writeln!(
                report,
                "traced {name} {with_trace:.6} {unit} (warm untraced {plain:.6}, change {:+.2}%)",
                100.0 * (with_trace / plain - 1.0)
            );
        }
        let get =
            |v: &[(&str, f64, &str)], n: &str| v.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
        layer_values.insert(
            "trace.overhead_ops_per_s",
            get(&warm_e2e, "ops_per_s") / get(&traced_e2e, "ops_per_s") - 1.0,
        );
        layer_values.insert(
            "trace.overhead_call_ms_p50",
            get(&traced_e2e, "call_ms_p50") / get(&warm_e2e, "call_ms_p50") - 1.0,
        );
        for &(name, unit, layer) in layers::METRICS {
            let value =
                *layer_values.get(name).unwrap_or_else(|| panic!("layer metric {name} missing"));
            let l = &layers::LAYERS[layer];
            let _ = writeln!(
                report,
                "layer {name} {value:.6} {unit} | layer: {} | moves: {} | not: {}",
                l.name, l.moves, l.not
            );
            metrics.push((name, value, unit));
        }
        for (name, count, total, own) in rec.self_times() {
            let _ = writeln!(
                report,
                "span {name} count={count} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        spans = Some(rec.to_tsv());
    } else {
        metrics = e2e;
    }

    for (name, value, _) in &metrics {
        if !value.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }
    for e in &errors {
        let _ = writeln!(report, "error: {e}");
    }
    let correct = errors.is_empty();
    let body = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    );
    Output { report, json, correct, reps: reps.len(), spans }
}

/// The end-to-end metrics over a set of reps, in [`END_TO_END`] order.
fn end_to_end(reps: &[&Rep]) -> Vec<(&'static str, f64, &'static str)> {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    let ops: u64 = reps.iter().map(|r| r.ops.saturating_sub(r.failed)).sum();
    let timed: u64 = reps.iter().map(|r| r.timed_ns).sum();
    let calls: Vec<f64> =
        reps.iter().flat_map(|r| r.calls.iter().map(|c| c.wall_ns as f64 / 1e6)).collect();
    let values =
        [median(&setup), peak_rss_mib(), ops as f64 / (timed.max(1) as f64 / 1e9), median(&calls)];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
}

/// Per-kind call latencies and throughput: publish/retrieve on
/// dht_lookup, import/fetch on bulk_transfer, request on gateway_day,
/// cycle on catalog_maintain. A p99 prints only with ten samples beyond it.
fn workload_lines(reps: &[&Rep]) -> String {
    let mut out = String::new();
    let mut kinds: Vec<&str> = Vec::new();
    for c in reps.iter().flat_map(|r| &r.calls) {
        if !kinds.contains(&c.kind) {
            kinds.push(c.kind);
        }
    }
    for kind in kinds {
        let calls: Vec<_> = reps.iter().flat_map(|r| &r.calls).filter(|c| c.kind == kind).collect();
        let ms: Vec<f64> = calls.iter().map(|c| c.wall_ns as f64 / 1e6).collect();
        let _ =
            writeln!(out, "{kind}_ms_p50 {:.6} ms ({} samples)", percentile(&ms, 0.5), ms.len());
        if tail_supported(ms.len(), 0.99) {
            let _ = writeln!(out, "{kind}_ms_p99 {:.6} ms", percentile(&ms, 0.99));
        } else {
            let _ = writeln!(out, "{kind}_ms_p99 n/a (fewer than 1000 samples)");
        }
        let bytes: u64 = calls.iter().map(|c| c.bytes).sum();
        if bytes > 0 {
            let secs: f64 = calls.iter().map(|c| c.wall_ns as f64 / 1e9).sum();
            let _ = writeln!(out, "{kind}_mb_per_s {:.6} MiB/s", bytes as f64 / 1048576.0 / secs);
        }
    }
    out
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every `IPFS_REPRO_*` variable as the process received it.
fn repro_env() -> String {
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("IPFS_REPRO_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vars.sort();
    if vars.is_empty() {
        "none".into()
    } else {
        vars.join(",")
    }
}

fn provenance(args: &Args, reps: usize, env: &str) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find_map(|l| l.strip_prefix("model name")).map(str::to_string))
        .map_or("unknown".into(), |m| m.trim_start_matches([' ', '\t', ':']).to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "git_rev={} rustc=\"{rustc}\" cpu=\"{cpu}\" nproc={nproc} profile={profile} seed={} \
         seconds={} reps={reps} env={env} (run with {} at defaults)",
        git_rev(),
        args.seed,
        args.seconds,
        DEFAULTED_KNOBS.join("/"),
    )
}

/// The checkout's commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".into() } else { head.to_string() };
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the traced run's spans beside the build output.
fn write_spans(args: &Args, tsv: &str) -> std::io::Result<String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let dir = std::path::Path::new(&dir).join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    std::fs::write(&path, tsv)?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of every workload, untraced and traced: every metric
    /// prints by name with its unit, and the output checks pass.
    #[test]
    fn smoke_run_of_every_workload_prints_every_metric() {
        for workload in workloads::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0,
                    trace,
                    size: Size::Smoke,
                };
                let out = run(&args);
                assert!(out.correct, "{workload} trace={trace}:\n{}", out.report);
                assert!(
                    out.json.starts_with("{\"correct\": true, \"attempted\": "),
                    "{}",
                    out.json
                );
                let expected: Vec<(&str, &str)> = if trace {
                    layers::METRICS.iter().map(|&(n, u, _)| (n, u)).collect()
                } else {
                    END_TO_END.to_vec()
                };
                for (name, unit) in expected {
                    let needle = format!("\"{name}\": {{\"value\": ");
                    assert!(out.json.contains(&needle), "{workload}: {name} missing");
                    assert!(
                        out.json.contains(&format!("\"unit\": \"{unit}\"}}")),
                        "{workload}: unit {unit} missing"
                    );
                    let line = if trace { "layer" } else { "metric" };
                    assert!(
                        out.report.lines().any(|l| l.starts_with(&format!("{line} {name} "))
                            && l.contains(&format!(" {unit}"))),
                        "{workload}: no report line for {name}"
                    );
                }
            }
        }
    }

    /// `BENCHMARK.json` gates at least two of the program's workloads and
    /// names exactly the metrics the program prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let spec = include_str!("../../BENCHMARK.json");
        let count = |key: &str| spec.matches(&format!("\"{key}\": ")).count();
        let gated = workloads::NAMES
            .iter()
            .filter(|w| spec.contains(&format!("\"name\": \"{w}\"")))
            .count();
        assert!(gated >= 2, "at least two workloads are gated");
        assert_eq!(count("why"), gated, "every gated workload is one the program runs");
        for (name, unit) in END_TO_END {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for (name, unit, _) in layers::METRICS {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(count("name"), gated + END_TO_END.len() + layers::METRICS.len());
        assert_eq!(count("bound"), END_TO_END.len());
    }

    #[test]
    fn arguments_parse_and_reject_unknowns() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload gateway_day --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload dht_lookup --trace 2").is_err());
        assert_eq!(args("--workload dht_lookup").unwrap().size, Size::Full);
    }
}
