//! Figure 6: geographical distribution of users requesting content via the
//! gateway.
//!
//! Paper: US 50.4 %, CN 31.9 %, HK 6.6 %, CA 4.6 %, JP 1.7 % (the sampled
//! gateway is in the US, so its anycast catchment skews American).

use bench::runner::{banner, seed_from_env, ScaleConfig};
use bench::stats::{markdown_table, rank_by_count};
use gateway::workload::{GatewayWorkload, WorkloadConfig};
use simnet::geodb::Country;
use std::collections::HashMap;

fn main() {
    banner("Figure 6", "geographical distribution of gateway users");
    let cfg = ScaleConfig::from_env();
    let workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: cfg.gateway_catalog,
        users: cfg.gateway_users,
        requests: cfg.gateway_requests,
        seed: seed_from_env(),
        ..Default::default()
    });

    // The paper counts *requests* per country (Figure 6 caption: "users
    // requesting content"), aggregated by unique IP+agent; report both.
    let mut req_counts: HashMap<Country, u64> = HashMap::new();
    for r in &workload.requests {
        *req_counts.entry(r.country).or_default() += 1;
    }
    let mut user_counts: HashMap<Country, u64> = HashMap::new();
    for c in &workload.user_countries {
        *user_counts.entry(*c).or_default() += 1;
    }

    let paper: &[(&str, f64)] =
        &[("US", 50.4), ("CN", 31.9), ("HK", 6.6), ("CA", 4.6), ("JP", 1.7)];
    let total_req = workload.requests.len() as f64;
    let total_users = workload.user_countries.len() as f64;
    let mut rows: Vec<(Country, u64)> = req_counts.iter().map(|(c, n)| (*c, *n)).collect();
    rank_by_count(&mut rows, |&(c, n)| (n, c));

    let table: Vec<Vec<String>> = rows
        .iter()
        .take(10)
        .map(|(c, reqs)| {
            let users = *user_counts.get(c).unwrap_or(&0);
            let paper_share = paper
                .iter()
                .find(|(code, _)| *code == c.code())
                .map(|(_, s)| format!("{s:.1}"))
                .unwrap_or_else(|| "—".into());
            vec![
                c.code().to_string(),
                format!("{:.1}", 100.0 * *reqs as f64 / total_req),
                format!("{:.1}", 100.0 * users as f64 / total_users),
                paper_share,
            ]
        })
        .collect();
    println!("{}", markdown_table(&["Country", "Requests %", "Users %", "Paper %"], &table));
    println!(
        "{} users, {} requests, {} unique CIDs in catalog (paper: 101 k users, 7.1 M requests, 274 k CIDs)",
        workload.user_countries.len(),
        workload.requests.len(),
        workload.objects.len()
    );
}
