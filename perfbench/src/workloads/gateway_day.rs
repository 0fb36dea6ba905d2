//! `gateway_day`: the §6.3 diurnal Zipf trace served by one gateway.
//!
//! A 20,000-object catalog (10× the small scale's) is installed on the
//! population, and the trace is replayed through `Gateway::serve` on one
//! bridge node. Arrivals follow the trace in simulated time (open loop in
//! sim time); the wall-clock replay is serial. Most requests hit the nginx
//! or node-store tier in microseconds; misses pay a full retrieval, and
//! the bridge's history grows over the day.

use super::{counters, Call, Rep, Size};
use crate::layers::{self, GatewayObs, Input};
use crate::stats::{fnv1a, percentile_u64};
use crate::trace::Recorder;
use bytes::Bytes;
use gateway::workload::{CatalogObject, GatewayWorkload, WorkloadConfig};
use gateway::{Gateway, GatewayConfig};
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig, NodeId};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};
use std::fmt::Write as _;
use std::time::Instant;

pub fn run(seed: u64, size: Size, rec: &mut Recorder, want_layers: bool) -> Rep {
    let (peers, catalog, users, requests) = match size {
        Size::Full => (1_000, 20_000, 8_000, 36_000),
        Size::Smoke => (200, 300, 100, 600),
    };

    let setup = rec.enter("setup", 0);
    let (pop, population_ns) = rec.span("simnet.population", 0, || {
        Population::generate(
            PopulationConfig {
                size: peers,
                nat_fraction: 0.455,
                horizon: SimDuration::from_hours(26),
                ..Default::default()
            },
            seed,
        )
    });
    let (mut net, from_population_ns) = rec.span("ipfs_core.from_population", 0, || {
        IpfsNetwork::from_population(&pop, &[VantagePoint::UsWest1], NetworkConfig::default(), seed)
    });
    drop(pop);
    let bridge = net.vantage_ids(1)[0];
    let (workload, _) = rec.span("gateway.workload", 0, || {
        GatewayWorkload::generate(WorkloadConfig {
            catalog_size: catalog,
            users,
            requests,
            seed,
            ..Default::default()
        })
    });
    let mut gw = Gateway::new(bridge, GatewayConfig::default());
    let providers: Vec<NodeId> =
        net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(200).collect();
    let ((), install_ns) = rec
        .span("gateway.install_catalog", 0, || gw.install_catalog(&mut net, &workload, &providers));
    let setup_ns = rec.exit(setup);

    let before = counters(&net);
    let mut obs = GatewayObs { install_ns, ..Default::default() };
    let mut calls = Vec::with_capacity(workload.requests.len());
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut sim_latency = Vec::with_capacity(workload.requests.len());
    let mut log_hash = Vec::new();
    let timed = Instant::now();
    for (i, req) in workload.requests.iter().enumerate() {
        let (entry, wall_ns, events) =
            layers::serve(&mut gw, &mut net, &workload, req, &mut obs, rec, i as u64);
        calls.push(Call { kind: "request", wall_ns, events, bytes: 0 });
        failed += u64::from(!entry.success);
        sim_latency.push(entry.latency.as_nanos());
        if entry.cid != workload.objects[req.object].cid || entry.completed_at < entry.at {
            errors.push(format!("request {i}: log entry does not match the request"));
        }
        log_hash.extend_from_slice(&entry.latency.as_nanos().to_le_bytes());
        log_hash.push(entry.served_by as u8);
    }
    let timed_ns = timed.elapsed().as_nanos() as u64;
    obs.finish(&gw);

    let g = |n: &str| gw.metrics.get(n);
    let mut digest = String::new();
    let _ = write!(
        digest,
        "events={} nginx={} node_store={} network={} negative={} network_failures={} \
         waiters={} evictions={} latency_sim_ns_p50={} latency_sim_ns_p99={} log={:016x}",
        net.events_processed,
        obs.nginx_ns.len(),
        obs.node_store_ns.len(),
        obs.network_served,
        obs.negative_served,
        g(names::GATEWAY_NETWORK_FAILURES),
        obs.waiters,
        obs.evictions,
        percentile_u64(&sim_latency, 0.5),
        percentile_u64(&sim_latency, 0.99),
        fnv1a(&log_hash),
    );

    let ops = calls.len() as u64;
    let layers = want_layers.then(|| {
        let objects = (0..workload.objects.len().min(2_000))
            .map(|i| Bytes::from(CatalogObject::stub_payload(i)))
            .collect();
        let fetched = obs.network_ns.len() as u64;
        let stub = CatalogObject::stub_payload(0).len() as u64;
        layers::compute(Input {
            bridge,
            seed,
            calls: &calls,
            ops,
            timed_ns,
            before: &before,
            population_ns,
            from_population_ns,
            objects,
            record_cids: workload.objects.iter().map(|o| o.cid.clone()).collect(),
            lru_seq: workload
                .requests
                .iter()
                .map(|r| (workload.objects[r.object].cid.clone(), workload.objects[r.object].size))
                .collect(),
            dags: workload.objects.iter().take(512).map(|o| (vec![o.cid.clone()], 1)).collect(),
            // Each network fetch verifies one stub block on receipt.
            hashed_bytes: fetched * stub,
            imported_bytes: 0,
            read_bytes: 0,
            import_us: None,
            gateway: Some(obs),
            net: &mut net,
        })
    });
    Rep { setup_ns, timed_ns, calls, ops, failed, digest, errors, layers }
}
