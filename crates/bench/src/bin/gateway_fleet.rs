//! Gateway-fleet harness: N gateways behind a deterministic load balancer.
//!
//! Not a paper artifact by itself — the paper's Table 5 and Fig. 11 are
//! single-gateway views of a production fleet. This binary runs the fleet
//! (see `bench::gateway_fleet`): consistent-hash and round-robin routing,
//! LRU vs TinyLFU nginx admission on the same trace, singleflight
//! coalescing, negative caching, a flash-crowd shock, and a regional
//! outage with failover.
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` value (cells are
//! pure functions of the master seed; see `bench::runner`). Wall-clock
//! sustained requests/sec goes to stderr and the exported JSON only. When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_gateway_fleet.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.
//! * `--check-against <path>` — compare the headline cell's sustained
//!   requests/sec against a previously recorded JSON (same mode); exit
//!   non-zero on a >30 % regression.

use bench::gateway_fleet::{headline_label, render_json, render_report, run_all, FleetBenchConfig};
use bench::runner::{banner, baseline_gate, jobs_from_env, seed_from_env, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .and_then(|i| args.get(i + 1))
        .map(String::from);

    banner("Gateway fleet", "load-balanced gateways: admission, coalescing, failover");
    let seed = seed_from_env();
    let jobs = jobs_from_env();
    let cfg = if smoke {
        FleetBenchConfig::smoke()
    } else {
        FleetBenchConfig::at_scale(Scale::from_env())
    };

    let outputs = run_all(&cfg, seed, smoke, jobs);
    print!("{}", render_report(&outputs));

    // Wall-clock headline to stderr: stdout must stay byte-identical
    // across job counts and machines.
    let label = headline_label(smoke);
    let headline = outputs.iter().find(|c| c.label == label).expect("headline cell ran");
    eprintln!(
        "sustained: {:.0} requests/s over {} gateway-fleet cell [{}]",
        headline.requests_per_sec,
        outputs.len(),
        label
    );

    let json = render_json(&outputs, seed);
    if let Some(path) = bench::write_json("BENCH_gateway_fleet", &json) {
        println!("wrote {}", path.display());
    }

    if let Some(path) = check_against {
        baseline_gate("gateway_fleet", &path, label, "requests_per_sec", headline.requests_per_sec);
    }
}
