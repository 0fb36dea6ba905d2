//! `bulk_transfer`: chunked DAGs imported at a swarm of providers and
//! fetched cold through one multi-provider Bitswap session.
//!
//! Each rep moves a fixed schedule of non-repeating DAGs, 256 KiB to
//! 32 MiB, each imported and published at 1–8 providers, then fetched by
//! one requester and read back with verification. Provider records carry
//! addresses, providers stay online and the population is small, so
//! routing costs little: the time goes to SHA-256, DAG build and verify,
//! the blockstore and the session. One transfer runs at a time.

use super::{counters, Call, Rep, Size};
use crate::layers::{self, Input};
use crate::stats::{mix, payload};
use crate::trace::Recorder;
use bytes::Bytes;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use merkledag::{BlockStore, Resolver};
use multiformats::Cid;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;

/// Simulated time every provider stays online from the start; a rep
/// simulates well under a minute.
const STABLE_FOR: SimDuration = SimDuration::from_hours(1);
const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

pub fn run(seed: u64, size: Size, rec: &mut Recorder, want_layers: bool) -> Rep {
    // (DAG bytes, providers): the median call is a 2 MiB import or fetch.
    let (peers, schedule): (usize, &[(usize, usize)]) = match size {
        Size::Full => (200, &[(256 * KIB, 8), (2 * MIB, 4), (8 * MIB, 2), (32 * MIB, 1)]),
        Size::Smoke => (200, &[(256 * KIB, 2), (MIB, 1)]),
    };

    let horizon = SimDuration::from_hours(6);
    let setup = rec.enter("setup", 0);
    let (pop, population_ns) = rec.span("simnet.population", 0, || {
        Population::generate(
            PopulationConfig { size: peers, nat_fraction: 0.3, horizon, ..Default::default() },
            seed,
        )
    });
    // Providers are servers online for the whole simulated span of a rep:
    // a provider churning away mid-fetch would fail the transfer, and churn
    // is dht_lookup's subject, not this workload's.
    let stable_until = SimTime::ZERO + STABLE_FOR;
    let servers: Vec<NodeId> = pop
        .peers
        .iter()
        .filter(|p| {
            !p.nat
                && p.schedule.sessions.iter().any(|&(s, e)| s <= SimTime::ZERO && e >= stable_until)
        })
        .map(|p| p.index)
        .collect();
    let cfg = NetworkConfig { provider_records_carry_addrs: true, ..Default::default() };
    let (mut net, from_population_ns) = rec.span("ipfs_core.from_population", 0, || {
        IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed)
    });
    drop(pop);
    let requester = net.vantage_ids(1)[0];
    let widest = schedule.iter().map(|&(_, swarm)| swarm).max().unwrap_or(0);
    assert!(servers.len() >= widest, "too few stable servers for the widest swarm");
    let dags: Vec<Bytes> = schedule
        .iter()
        .enumerate()
        .map(|(d, &(len, _))| Bytes::from(payload(len, mix(seed, 0xb0 + d as u64))))
        .collect();
    let setup_ns = rec.exit(setup);

    let before = counters(&net);
    let mut calls = Vec::new();
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut digest = String::new();
    let mut fetched_bytes = 0u64;
    let mut import_ns = 0u64;
    let mut imports = 0u64;
    let mut placed = Vec::new();
    let mut check_ns = 0u64;
    let timed = Instant::now();
    for (d, (data, &(len, swarm))) in dags.iter().zip(schedule).enumerate() {
        let op = d as u64;
        let providers: Vec<NodeId> =
            (0..swarm).map(|j| servers[(d * 8 + j) % servers.len()]).collect();
        let mut root = None;
        for &p in &providers {
            let events = net.events_processed;
            let (cid, wall_ns) = rec.span("bulk.import", op, || net.import_content(p, data));
            calls.push(Call {
                kind: "import",
                wall_ns,
                events: net.events_processed - events,
                bytes: len as u64,
            });
            import_ns += wall_ns;
            imports += 1;
            root = Some(cid);
        }
        let root = root.expect("every DAG has a provider");
        let ((), _) = rec.span("bulk.publish", op, || {
            for &p in &providers {
                net.publish(p, root.clone());
            }
            net.run_until_quiet();
        });
        let published = net.publish_reports.drain(..).filter(|r| r.success).count();
        // Cold requester: the fetch walks the DHT and opens a fresh swarm.
        net.disconnect_all(requester);

        let events = net.events_processed;
        let (read, wall_ns) = rec.span("bulk.fetch", op, || {
            net.retrieve(requester, root.clone());
            net.run_until_quiet();
            net.node_mut(requester).read_content(&root)
        });
        calls.push(Call {
            kind: "fetch",
            wall_ns,
            events: net.events_processed - events,
            bytes: len as u64,
        });
        let report = net.retrieve_reports.drain(..).next_back();
        let ok = report.as_ref().is_some_and(|r| r.success);
        let t = Instant::now();
        let intact = read.as_ref().ok() == Some(data);
        check_ns += t.elapsed().as_nanos() as u64;
        if !ok || read.is_err() {
            failed += 1;
        } else if !intact {
            failed += 1;
            errors.push(format!("DAG {d}: read-back bytes differ from the generated bytes"));
        } else {
            fetched_bytes += len as u64;
        }
        let _ = write!(
            digest,
            "dag{d}={root} published={published}/{swarm} fetched={ok} fetch_sim_ns={} ",
            report.map_or(0, |r| r.fetch.as_nanos()),
        );
        placed.push((root, providers[0], swarm));
        // Drop the fetched copy so the requester stays cold.
        let store = &mut net.node_mut(requester).store;
        let held: Vec<_> = store.cids().cloned().collect();
        for c in held {
            store.delete(&c);
        }
    }
    let timed_ns = timed.elapsed().as_nanos() as u64 - check_ns;
    if net.now() > stable_until {
        errors.push("the rep outlasted the providers' guaranteed uptime".into());
    }
    let m = |n: &str| net.metrics().get(n);
    let _ = write!(
        digest,
        "events={} blocks_received={} duplicate_blocks={} reroutes={}",
        net.events_processed,
        m(names::BITSWAP_SESSION_BLOCKS_RECEIVED),
        m(names::BITSWAP_SESSION_DUP_BLOCKS),
        m(names::BITSWAP_SESSION_REROUTES),
    );

    let ops = calls.len() as u64;
    let layers = want_layers.then(|| {
        // (block, size) lists of every DAG, read from a provider's store.
        let block_lists: Vec<(Vec<(Cid, u64)>, usize)> = placed
            .iter()
            .map(|(root, provider, swarm)| {
                let store = &mut net.node_mut(*provider).store;
                let blocks = Resolver::new(store).block_list(root).expect("provider holds the DAG");
                let sized = blocks
                    .into_iter()
                    .map(|c| {
                        let n = store.get(&c).map_or(0, |b| b.len() as u64);
                        (c, n)
                    })
                    .collect();
                (sized, *swarm)
            })
            .collect();
        let imported: u64 = schedule.iter().map(|&(len, swarm)| (len * swarm) as u64).sum();
        let mut sample = Vec::new();
        let mut sample_bytes = 0;
        for data in &dags {
            if sample_bytes + data.len() <= 12 * MIB {
                sample_bytes += data.len();
                sample.push(data.clone());
            }
        }
        layers::compute(Input {
            bridge: requester,
            seed,
            calls: &calls,
            ops,
            timed_ns,
            before: &before,
            population_ns,
            from_population_ns,
            objects: sample,
            record_cids: placed.iter().map(|(root, _, _)| root.clone()).collect(),
            lru_seq: block_lists.iter().flat_map(|(b, _)| b.iter().cloned()).collect(),
            dags: block_lists
                .iter()
                .map(|(b, swarm)| (b.iter().map(|(c, _)| c.clone()).collect(), *swarm))
                .collect(),
            // Imports hash every byte at every provider; fetched blocks are
            // verified on receipt and again by the read-back.
            hashed_bytes: imported + 2 * fetched_bytes,
            imported_bytes: imported,
            read_bytes: fetched_bytes,
            gateway: None,
            import_us: Some(import_ns as f64 / 1e3 / imports.max(1) as f64),
            net: &mut net,
        })
    });
    Rep { setup_ns, timed_ns, calls, ops, failed, digest, errors, layers }
}
