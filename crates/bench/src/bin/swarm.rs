//! Swarm-transfer benchmark: multi-provider Bitswap sessions over chunked
//! Merkle-DAGs.
//!
//! Extends the paper's single-provider retrieval cells (§6.2) with the
//! session layer the deployed client ships: WANT-HAVE broadcast over the
//! provider swarm, want splitting with per-peer in-flight budgets, EWMA
//! latency scoring, duplicate-factor ablation and renege re-routing (see
//! `bench::swarm`). Reports sim-time goodput against swarm size for
//! 512 KiB – 64 MiB DAGs.
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` value (cells are
//! pure functions of the master seed; see `bench::runner`). Wall-clock
//! events/sec goes to stderr and the exported JSON only. When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_swarm.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.
//! * `--check-against <path>` — compare the headline cell's wall-clock
//!   events/sec against a previously recorded JSON (same mode); exit
//!   non-zero on a >30 % regression.
//! * `--trace-out <path>` — additionally collect distributed traces and
//!   dump the slowest retrievals' stitched trees (cross-node spans +
//!   critical path) as JSON exemplars; the report is unchanged.

use bench::runner::{banner, baseline_gate, jobs_from_env, seed_from_env, Scale};
use bench::swarm::{
    headline_label, render_json, render_report, render_trace_out, run_all_traced, SwarmBenchConfig,
};

/// Slowest retrievals kept in the `--trace-out` exemplar dump.
const TRACE_OUT_SLOWEST: usize = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .and_then(|i| args.get(i + 1))
        .map(String::from);
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map(String::from);

    banner("Swarm transfer", "multi-provider Bitswap sessions over chunked DAGs");
    let seed = seed_from_env();
    let jobs = jobs_from_env();
    let cfg = if smoke {
        SwarmBenchConfig::smoke()
    } else {
        SwarmBenchConfig::at_scale(Scale::from_env())
    };

    let outputs = run_all_traced(&cfg, seed, smoke, jobs, trace_out.is_some());
    print!("{}", render_report(&outputs));
    if let Some(path) = &trace_out {
        let doc = render_trace_out(&outputs, seed, TRACE_OUT_SLOWEST);
        if let Err(e) = std::fs::write(path, &doc) {
            eprintln!("swarm: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }

    // Wall-clock headline to stderr: stdout must stay byte-identical
    // across job counts and machines.
    let label = headline_label(smoke);
    let headline = outputs.iter().find(|c| c.label == label).expect("headline cell ran");
    eprintln!(
        "sustained: {:.0} sim events/s over {} swarm cells [{}]",
        headline.events_per_sec,
        outputs.len(),
        label
    );

    let json = render_json(&outputs, seed);
    if let Some(path) = bench::write_json("BENCH_swarm", &json) {
        println!("wrote {}", path.display());
    }

    if let Some(path) = check_against {
        baseline_gate("swarm", &path, label, "events_per_sec", headline.events_per_sec);
    }
}
