//! Table 3: percentage of nodes hosted on cloud providers.
//!
//! Paper: Contabo 0.44 %, Amazon AWS 0.39 %, Azure 0.33 %, Digital Ocean
//! 0.18 %, Hetzner 0.13 %, ...; Non-Cloud 97.71 %.

use bench::runner::{banner, seed_from_env, ScaleConfig};
use bench::stats::{markdown_table, rank_by_count};
use simnet::geodb::CLOUD_PROVIDERS;
use simnet::{Population, PopulationConfig, SimDuration};
use std::collections::HashMap;

fn main() {
    banner("Table 3", "cloud-provider share of IPFS nodes");
    let cfg = ScaleConfig::from_env();
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.census_population,
            horizon: SimDuration::from_hours(1),
            ..Default::default()
        },
        seed_from_env(),
    );

    let mut per_provider: HashMap<u8, u64> = HashMap::new();
    let mut cloud_total = 0u64;
    for p in &pop.peers {
        if let Some(idx) = p.host.cloud {
            *per_provider.entry(idx).or_default() += 1;
            cloud_total += 1;
        }
    }
    let total = pop.peers.len() as f64;
    let mut rows: Vec<(u8, u64)> = per_provider.into_iter().collect();
    rank_by_count(&mut rows, |&(idx, n)| (n, idx));

    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(rank, (idx, n))| {
            let p = &CLOUD_PROVIDERS[*idx as usize];
            vec![
                (rank + 1).to_string(),
                p.name.to_string(),
                n.to_string(),
                format!("{:.2} %", 100.0 * *n as f64 / total),
                format!("{:.2} %", p.share_bps as f64 / 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["Rank", "Provider", "IP Addresses", "Share", "Paper share"], &table)
    );
    println!(
        "Non-Cloud: {:.2} % (paper: 97.71 %); cloud total: {:.2} % (paper: 2.29 %)",
        100.0 * (total - cloud_total as f64) / total,
        100.0 * cloud_total as f64 / total
    );
}
