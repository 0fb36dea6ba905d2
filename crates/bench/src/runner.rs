//! Shared scaffolding for the experiment binaries: scale selection and
//! common printing.

use std::env;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast, CI-friendly runs that preserve every distribution's shape.
    Small,
    /// Populations and iteration counts close to the paper's (slow).
    Paper,
}

impl Scale {
    /// Reads `IPFS_REPRO_SCALE` (`small` default, `paper` for full runs).
    pub fn from_env() -> Scale {
        match env::var("IPFS_REPRO_SCALE").as_deref() {
            Ok("paper") | Ok("full") => Scale::Paper,
            _ => Scale::Small,
        }
    }
}

/// Concrete sizes per scale.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Peer population for network experiments.
    pub population: usize,
    /// DHT-perf iterations per region (paper: ~547).
    pub iterations_per_region: usize,
    /// Gateway catalog size (paper: 274 k CIDs).
    pub gateway_catalog: usize,
    /// Gateway users (paper: 101 k).
    pub gateway_users: usize,
    /// Gateway requests over the day (paper: 7.1 M).
    pub gateway_requests: usize,
    /// Churn-monitor population.
    pub monitor_population: usize,
    /// Crawl-series population.
    pub crawl_population: usize,
    /// Number of 30-min crawl rounds for the time series.
    pub crawl_rounds: usize,
    /// Population used for pure-distribution figures (5/6/7, tables 2/3).
    pub census_population: usize,
}

impl ScaleConfig {
    /// Resolves sizes for a scale.
    pub fn resolve(scale: Scale) -> ScaleConfig {
        match scale {
            Scale::Small => ScaleConfig {
                population: 1_500,
                iterations_per_region: 12,
                gateway_catalog: 2_000,
                gateway_users: 800,
                gateway_requests: 12_000,
                monitor_population: 6_000,
                crawl_population: 1_200,
                crawl_rounds: 48, // one day of 30-min crawls
                census_population: 60_000,
            },
            Scale::Paper => ScaleConfig {
                population: 20_000,
                iterations_per_region: 200,
                gateway_catalog: 27_400,
                gateway_users: 10_100,
                gateway_requests: 300_000,
                monitor_population: 40_000,
                crawl_population: 10_000,
                crawl_rounds: 96, // two days
                census_population: 200_000,
            },
        }
    }

    /// Resolves from the environment.
    pub fn from_env() -> ScaleConfig {
        ScaleConfig::resolve(Scale::from_env())
    }
}

/// Master seed for experiments (override with `IPFS_REPRO_SEED`).
pub fn seed_from_env() -> u64 {
    env::var("IPFS_REPRO_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2022)
}

/// Worker threads for independent experiment cells (override with
/// `IPFS_REPRO_JOBS`; `1` forces the serial path; default: available
/// cores).
pub fn jobs_from_env() -> usize {
    env::var("IPFS_REPRO_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Region shards for the PDES cells (override with `IPFS_REPRO_SHARDS`,
/// clamped to `1..=10`; `1` forces the exact serial path; default:
/// `min(6, available cores)`). Results are byte-identical at every value
/// — the knob only trades wall-clock time.
pub fn shards_from_env() -> usize {
    env::var("IPFS_REPRO_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|s: usize| s.clamp(1, 10))
        .unwrap_or_else(|| {
            6.min(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        })
}

/// Runs `cells` independent experiment cells through `f` on `jobs` worker
/// threads, returning results in cell order.
///
/// Cells must be *independent*: each builds its own population, network
/// and RNG from a per-cell seed, so the result of cell `i` is a pure
/// function of `i`. Workers pull the next unclaimed index from a shared
/// counter and stash `(index, result)` pairs; the merge reorders by index,
/// making the output byte-identical to the serial path no matter how the
/// scheduler interleaves the workers. `jobs <= 1` (or a single cell) runs
/// inline with no threads at all — exactly the pre-parallel behaviour.
pub fn run_cells_with_jobs<T, F>(jobs: usize, cells: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs <= 1 || cells <= 1 {
        return (0..cells).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(cells);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..jobs.min(cells) {
            handles.push(scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    mine.push((i, f(i)));
                }
                mine
            }));
        }
        for h in handles {
            indexed.extend(h.join().expect("experiment cell panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// [`run_cells_with_jobs`] with the job count from `IPFS_REPRO_JOBS`.
pub fn run_cells<T, F>(cells: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_cells_with_jobs(jobs_from_env(), cells, f)
}

/// Prints the standard experiment banner.
pub fn banner(artifact: &str, description: &str) {
    println!("==================================================================");
    println!("{artifact} — {description}");
    println!(
        "scale: {:?}, seed: {} (IPFS_REPRO_SCALE / IPFS_REPRO_SEED to change)",
        Scale::from_env(),
        seed_from_env()
    );
    println!("==================================================================");
}

/// Pulls `"<field>": <x>` for the entry `"label": "<label>"` out of an
/// exported JSON (scanning, no parser dependency).
pub fn json_field(json: &str, label: &str, field: &str) -> Option<f64> {
    let entry = json.split("\"label\"").find(|chunk| {
        chunk.trim_start().trim_start_matches(':').trim_start().starts_with(&format!("\"{label}\""))
    })?;
    let after = entry.split(&format!("\"{field}\"")).nth(1)?;
    let num: String = after
        .chars()
        .skip_while(|c| *c == ':' || c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The wall-clock regression gate of the harness binaries: `current`, the
/// headline cell's `field` (a rate such as `events_per_sec`), must stay at
/// or above 0.7× the value recorded for `label` in the baseline JSON at
/// `path`. Exits 2 when the baseline cannot be read and 1 on a
/// regression; `bin` names the binary in the messages.
pub fn baseline_gate(bin: &str, path: &str, label: &str, field: &str, current: f64) {
    let baseline = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| json_field(&s, label, field))
        .unwrap_or_else(|| {
            eprintln!("{bin}: cannot read baseline {field} for {label} from {path}");
            std::process::exit(2);
        });
    let unit = field.replace("_per_sec", "/s");
    let ratio = current / baseline.max(1e-9);
    eprintln!(
        "regression gate [{label}]: current {current:.0} {unit} vs baseline {baseline:.0} {unit} \
(ratio {ratio:.2})"
    );
    if ratio < 0.7 {
        eprintln!("{bin}: {label} {field} regressed >30% against {path}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_reads_every_committed_baseline_headline() {
        let baselines = [
            (include_str!("../../../results/BENCH_throughput_smoke_baseline.json"), "smoke"),
            (include_str!("../../../results/BENCH_throughput_smoke_baseline.json"), "pdes_smoke"),
            (
                include_str!("../../../results/BENCH_swarm_smoke_baseline.json"),
                crate::swarm::headline_label(true),
            ),
            (
                include_str!("../../../results/BENCH_lifecycle_smoke_baseline.json"),
                crate::lifecycle::headline_label(true),
            ),
        ];
        for (json, label) in baselines {
            let v = json_field(json, label, "events_per_sec");
            assert!(v.is_some_and(|v| v > 0.0), "{label}: {v:?}");
        }
        let fleet = include_str!("../../../results/BENCH_gateway_fleet.json");
        let label = crate::gateway_fleet::headline_label(true);
        assert!(json_field(fleet, label, "requests_per_sec").is_some_and(|v| v > 0.0));
        // A label that is absent, or a field its entry lacks, reads as None.
        assert_eq!(json_field(fleet, "no_such_cell", "requests_per_sec"), None);
        assert_eq!(json_field(fleet, label, "events_per_sec"), None);
    }

    #[test]
    fn default_scale_is_small() {
        // Unless the environment says otherwise.
        if env::var("IPFS_REPRO_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
    }

    #[test]
    fn paper_scale_is_larger_everywhere() {
        let s = ScaleConfig::resolve(Scale::Small);
        let p = ScaleConfig::resolve(Scale::Paper);
        assert!(p.population > s.population);
        assert!(p.iterations_per_region > s.iterations_per_region);
        assert!(p.gateway_requests > s.gateway_requests);
        assert!(p.census_population > s.census_population);
    }
}
