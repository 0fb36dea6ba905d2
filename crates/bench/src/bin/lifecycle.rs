//! Content-lifecycle benchmark: keyspace-ordered reprovide sweep vs
//! per-CID republish chains at 10k/100k (and, at paper scale, 1M) CIDs.
//!
//! Reports DHT messages per maintained record for both maintenance
//! modes, resident provider records and per-node state bytes,
//! record-availability around a crash that spans a republish boundary,
//! and the same lifecycle through the region-sharded PDES (see
//! `bench::lifecycle`).
//!
//! Stdout is byte-identical for any `IPFS_REPRO_JOBS` and
//! `IPFS_REPRO_SHARDS` value (cells are pure functions of the master
//! seed; the PDES cell's results are shard-invariant). Wall-clock
//! events/sec goes to stderr and the exported JSON only. When
//! `IPFS_REPRO_CSV_DIR` is set, results land in `BENCH_lifecycle.json`.
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for the CI determinism gate.
//! * `--check-against <path>` — compare the headline cell's wall-clock
//!   events/sec against a previously recorded JSON (same mode); exit
//!   non-zero on a >30 % regression.

use bench::lifecycle::{headline_label, render_json, render_report, run_all};
use bench::runner::{banner, baseline_gate, jobs_from_env, seed_from_env, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .and_then(|i| args.get(i + 1))
        .map(String::from);

    banner("Content lifecycle", "reprovide sweep vs per-CID chains at scale");
    let seed = seed_from_env();
    let jobs = jobs_from_env();

    let outputs = run_all(seed, smoke, Scale::from_env(), jobs);
    print!("{}", render_report(&outputs));

    // Wall-clock headline to stderr: stdout must stay byte-identical
    // across job counts and machines.
    let label = headline_label(smoke);
    let headline = outputs.iter().find(|c| c.label == label).expect("headline cell ran");
    eprintln!(
        "sustained: {:.0} sim events/s over {} lifecycle cells [{}]",
        headline.events_per_sec,
        outputs.len(),
        label
    );

    let json = render_json(&outputs, seed);
    if let Some(path) = bench::write_json("BENCH_lifecycle", &json) {
        println!("wrote {}", path.display());
    }

    if let Some(path) = check_against {
        baseline_gate("lifecycle", &path, label, "events_per_sec", headline.events_per_sec);
    }
}
