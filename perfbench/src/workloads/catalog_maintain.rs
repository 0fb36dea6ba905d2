//! `catalog_maintain`: one pinning node keeping a 50,000-CID catalog
//! alive in the DHT.
//!
//! The catalog is seeded with `seed_provided` (no initial walks), then
//! the keyspace-ordered reprovide sweep maintains it through three cycles
//! of a scaled one-hour cadence. There is no client: timers drive all the
//! work, which lands in `kademlia::records` and ADD_PROVIDER_BATCH. The
//! first cycle places the records and the later ones refresh them, so the
//! median cycle is a steady-state refresh. An op is one CID's refresh in
//! one cycle. It fails when no node holds a record of it stored during
//! that cycle; the check reads the record stores themselves.

use super::{counters, Call, Rep, Size};
use crate::layers::{self, Input};
use crate::trace::Recorder;
use bytes::Bytes;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeConfig};
use kademlia::Key;
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration, SimTime};
use std::fmt::Write as _;
use std::time::Instant;

/// Scaled §3.1 republish cadence (the lifecycle harness's).
const INTERVAL: SimDuration = SimDuration::from_hours(1);
/// Each cycle runs until this long after its sweep fires, so the sweep's
/// walks and batch stores finish inside the cycle.
const TAIL: SimDuration = SimDuration::from_mins(30);
/// Simulated time one `run_until` step advances.
const STEP: SimDuration = SimDuration::from_secs(60);
const CYCLES: u64 = 3;

pub fn run(seed: u64, size: Size, rec: &mut Recorder, want_layers: bool) -> Rep {
    let (peers, catalog) = match size {
        Size::Full => (220, 50_000),
        Size::Smoke => (60, 500),
    };

    let setup = rec.enter("setup", 0);
    let (pop, population_ns) = rec.span("simnet.population", 0, || {
        Population::generate(
            PopulationConfig {
                size: peers,
                nat_fraction: 0.455,
                horizon: SimDuration::from_hours(12),
                ..Default::default()
            },
            seed,
        )
    });
    let cfg = NetworkConfig {
        auto_republish: true,
        reprovide_sweep: true,
        node: NodeConfig {
            republish_interval: INTERVAL,
            expiry_interval: SimDuration::from_hours(24),
            ..NodeConfig::default()
        },
        ..NetworkConfig::default()
    };
    let (mut net, from_population_ns) = rec.span("ipfs_core.from_population", 0, || {
        IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed)
    });
    drop(pop);
    let pinner = net.vantage_ids(1)[0];
    let (cids, _) =
        rec.span("ipfs_core.seed_provided", 0, || net.seed_provided(pinner, seed, catalog));
    let setup_ns = rec.exit(setup);

    let keys: Vec<Key> = cids.iter().map(Key::from_cid).collect();
    let before = counters(&net);
    let t0 = net.now();
    let mut calls = Vec::new();
    let mut per_cycle = Vec::new();
    let mut stale_per_cycle = Vec::new();
    let mut check_ns = 0;
    let timed = Instant::now();
    for c in 1..=CYCLES {
        let end = t0 + INTERVAL * c + TAIL;
        let started = net.now();
        let events = net.events_processed;
        let cycle = rec.enter("catalog.cycle", c);
        // run_until leaves the clock at the last event, so step on a cursor.
        let mut cursor = net.now();
        while cursor < end {
            cursor = (cursor + STEP).min(end);
            let ((), _) = rec.span("ipfs_core.run_until", c, || net.run_until(cursor));
        }
        let wall_ns = rec.exit(cycle);
        calls.push(Call {
            kind: "cycle",
            wall_ns,
            events: net.events_processed - events,
            bytes: 0,
        });
        per_cycle.push(net.provider_records_total());
        let t = Instant::now();
        stale_per_cycle.push(stale(&net, pinner, &keys, started));
        check_ns += t.elapsed().as_nanos() as u64;
    }
    let timed_ns = timed.elapsed().as_nanos() as u64 - check_ns;

    let delta = |n: &str| net.metrics().get(n) - before.get(n).copied().unwrap_or(0);
    let ops = CYCLES * catalog as u64;
    let failed: u64 = stale_per_cycle.iter().sum();
    let mut errors = Vec::new();
    // The pinner is always online, so every cycle refreshes every CID.
    if failed > 0 {
        errors.push(format!("CIDs left unrefreshed per cycle: {stale_per_cycle:?}"));
    }
    let mut digest = String::new();
    let _ = write!(
        digest,
        "events={} republishes={} sweep_batches={} batch_failed={} records_stored={} \
         unrefreshed_per_cycle={stale_per_cycle:?} resident_per_cycle={per_cycle:?} \
         bytes_per_node={}",
        net.events_processed,
        delta(names::PROVIDER_REPUBLISHES),
        delta(names::PROVIDER_SWEEP_BATCHES),
        delta(names::PROVIDER_SWEEP_BATCH_FAILED),
        delta(names::PROVIDER_RECORDS_STORED),
        net.bytes_per_node_estimate(),
    );

    let layers = want_layers.then(|| {
        let objects = (0..catalog.min(20_000) as u64)
            .map(|i| {
                // seed_provided's payload: (tag, index) little-endian.
                let mut p = [0u8; 16];
                p[..8].copy_from_slice(&seed.to_le_bytes());
                p[8..].copy_from_slice(&i.to_le_bytes());
                Bytes::copy_from_slice(&p)
            })
            .collect();
        layers::compute(Input {
            bridge: pinner,
            seed,
            calls: &calls,
            ops,
            timed_ns,
            before: &before,
            population_ns,
            from_population_ns,
            objects,
            record_cids: cids.clone(),
            lru_seq: cids.iter().map(|c| (c.clone(), 16)).collect(),
            dags: cids.iter().take(512).map(|c| (vec![c.clone()], 1)).collect(),
            hashed_bytes: 0,
            imported_bytes: 0,
            read_bytes: 0,
            gateway: None,
            import_us: None,
            net: &mut net,
        })
    });
    Rep { setup_ns, timed_ns, calls, ops, failed, digest, errors, layers }
}

/// How many of `keys` no node but `pinner` holds a provider record of
/// that was stored at or after `since`.
fn stale(net: &IpfsNetwork, pinner: usize, keys: &[Key], since: SimTime) -> u64 {
    let now = net.now();
    let fresh = |key: &Key| {
        (0..net.len()).filter(|&n| n != pinner).any(|n| {
            net.node(n).dht.store().providers(key, now).iter().any(|r| r.received_at >= since)
        })
    };
    keys.iter().filter(|k| !fresh(k)).count() as u64
}
