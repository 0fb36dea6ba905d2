//! The four workloads. Each builds its world from the seed (the set-up
//! phase), runs a fixed amount of work against it (the timed phase) and
//! returns one [`Rep`]: call timings, op accounting, the deterministic
//! outcome digest and the output checks. A run repeats reps until its time
//! is used.

pub mod bulk_transfer;
pub mod catalog_maintain;
pub mod dht_lookup;
pub mod gateway_day;

use crate::layers::Layers;
use crate::trace::Recorder;
use ipfs_core::IpfsNetwork;
use std::collections::BTreeMap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["dht_lookup", "bulk_transfer", "gateway_day", "catalog_maintain"];

/// Run size: `Full` for measurement, `Smoke` for the tiny test run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Built only by the smoke test; no argument selects it.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// One timed call into the program (the unit of the latency metrics).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// `publish`, `retrieve`, `import`, `fetch`, `request` or `cycle`.
    pub kind: &'static str,
    pub wall_ns: u64,
    /// Simulator events the call processed.
    pub events: u64,
    /// Content bytes the call moved (imports and fetches), else 0.
    pub bytes: u64,
}

/// The outcome of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_ns: u64,
    /// Wall time of the timed phase (calls plus the resets between them;
    /// output checks excluded).
    pub timed_ns: u64,
    pub calls: Vec<Call>,
    /// Ops attempted and failed, as each workload defines an op.
    pub ops: u64,
    pub failed: u64,
    /// Canonical text of the simulated outcomes; equal across reps of one
    /// seed or the run is wrong.
    pub digest: String,
    /// Output-check failures (empty when every check passed).
    pub errors: Vec<String>,
    /// Per-layer metrics, computed on request.
    pub layers: Option<Layers>,
}

/// Snapshot of every counter in the network's registry.
pub fn counters(net: &IpfsNetwork) -> BTreeMap<&'static str, u64> {
    net.metrics().counters().collect()
}

/// Runs one repetition of `workload`.
pub fn run_rep(workload: &str, seed: u64, size: Size, rec: &mut Recorder, layers: bool) -> Rep {
    match workload {
        "dht_lookup" => dht_lookup::run(seed, size, rec, layers),
        "bulk_transfer" => bulk_transfer::run(seed, size, rec, layers),
        "gateway_day" => gateway_day::run(seed, size, rec, layers),
        "catalog_maintain" => catalog_maintain::run(seed, size, rec, layers),
        other => panic!("unknown workload {other}"),
    }
}
