//! Table 2: autonomous systems covering >50 % of all found IP addresses.
//!
//! Paper: AS4134 CHINANET 18.9 % (rank 76), AS4837 CHINA169 12.8 %
//! (rank 160), AS4760 HKT 9.6 % (rank 2976), AS26599 Telefonica Brasil
//! 6.9 % (rank 6797), AS3462 HINET 5.3 % (rank 340).

use bench::runner::{banner, seed_from_env, ScaleConfig};
use bench::stats::{markdown_table, rank_by_count};
use simnet::geodb::NAMED_ASES;
use simnet::{Population, PopulationConfig, SimDuration};
use std::collections::{HashMap, HashSet};

fn main() {
    banner("Table 2", "top autonomous systems by IP share");
    let cfg = ScaleConfig::from_env();
    let pop = Population::generate(
        PopulationConfig {
            size: cfg.census_population,
            horizon: SimDuration::from_hours(1),
            ..Default::default()
        },
        seed_from_env(),
    );

    // Count distinct IPs per AS (the paper counts IP addresses).
    let mut ips_per_as: HashMap<u32, (u32, HashSet<std::net::Ipv4Addr>)> = HashMap::new();
    for p in &pop.peers {
        let e = ips_per_as.entry(p.host.asn).or_insert((p.host.as_rank, HashSet::new()));
        e.1.insert(p.host.ip);
        if let Some(sec) = &p.secondary_host {
            let e = ips_per_as.entry(sec.asn).or_insert((sec.as_rank, HashSet::new()));
            e.1.insert(sec.ip);
        }
    }
    let total_ips: usize = ips_per_as.values().map(|(_, s)| s.len()).sum();
    let mut rows: Vec<(u32, u32, usize)> =
        ips_per_as.into_iter().map(|(asn, (rank, ips))| (asn, rank, ips.len())).collect();
    rank_by_count(&mut rows, |&(asn, _, n)| (n, asn));

    // Emit ASes until cumulative share exceeds 50 % (the paper's cut).
    let mut cum = 0.0;
    let mut table = Vec::new();
    for (asn, rank, n) in &rows {
        let share = 100.0 * *n as f64 / total_ips as f64;
        cum += share;
        let name =
            NAMED_ASES.iter().find(|a| a.asn == *asn).map(|a| a.name).unwrap_or("synthetic AS");
        let paper = match asn {
            4134 => "18.9 %",
            4837 => "12.8 %",
            4760 => "9.6 %",
            26599 => "6.9 %",
            3462 => "5.3 %",
            _ => "—",
        };
        table.push(vec![
            format!("{share:.1} %"),
            format!("AS{asn}"),
            rank.to_string(),
            name.to_string(),
            paper.to_string(),
        ]);
        if cum > 50.0 {
            break;
        }
    }
    println!("{}", markdown_table(&["Share", "ASN", "Rank", "AS Name", "Paper share"], &table));
    println!(
        "{} ASes cover {cum:.1} % of {total_ips} IPs (paper: 5 ASes cover >50 % of 464 k IPs)",
        table.len()
    );
}
