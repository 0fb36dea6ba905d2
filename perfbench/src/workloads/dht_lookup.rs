//! `dht_lookup`: the §4.3 six-vantage loop on single-block objects.
//!
//! Each iteration one vantage imports and publishes a fresh 1 KiB object
//! and the other five retrieve it, with the §4.3 reset (disconnect, forget
//! the provider's address, drop the fetched blocks) after every op. One op
//! is outstanding at a time (closed loop). Objects fit one block, so the
//! time goes to DHT walks, RPC dispatch, dials and the scheduler, not to
//! hashing.

use super::{counters, Call, Rep, Size};
use crate::layers::{self, Input};
use crate::stats::{fnv1a, mix, payload, percentile_u64};
use crate::trace::Recorder;
use bytes::Bytes;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NetworkConfig};
use simnet::latency::VantagePoint;
use simnet::{Population, PopulationConfig, SimDuration};
use std::fmt::Write as _;
use std::time::Instant;

/// Object size: one block, far below the 256 KiB chunk size.
const OBJECT_BYTES: usize = 1024;

pub fn run(seed: u64, size: Size, rec: &mut Recorder, want_layers: bool) -> Rep {
    let (peers, rounds) = match size {
        Size::Full => (4_000, 200),
        Size::Smoke => (300, 2),
    };
    let vantages = VantagePoint::ALL.len();

    let setup = rec.enter("setup", 0);
    let (pop, population_ns) = rec.span("simnet.population", 0, || {
        Population::generate(
            PopulationConfig {
                size: peers,
                nat_fraction: 0.455,
                // DhtPerfExperiment's horizon: churn schedules cover the run.
                horizon: SimDuration::from_secs((rounds as u64 * 6 * 200).max(6 * 3600)),
                ..Default::default()
            },
            seed,
        )
    });
    let (mut net, from_population_ns) = rec.span("ipfs_core.from_population", 0, || {
        IpfsNetwork::from_population(&pop, &VantagePoint::ALL, NetworkConfig::default(), seed)
    });
    drop(pop);
    let ids = net.vantage_ids(vantages);
    let objects: Vec<Bytes> = (0..rounds * vantages)
        .map(|i| Bytes::from(payload(OBJECT_BYTES, mix(seed, i as u64))))
        .collect();
    let setup_ns = rec.exit(setup);

    let before = counters(&net);
    let mut calls = Vec::with_capacity(rounds * vantages * vantages);
    let mut errors = Vec::new();
    let mut cids = Vec::with_capacity(objects.len());
    let (mut pub_sim, mut ret_sim) = (Vec::new(), Vec::new());
    let (mut failed, mut retrieved_ok) = (0u64, 0u64);
    let mut import_ns = 0u64;
    let mut check_ns = 0u64;
    let timed = Instant::now();
    for (i, data) in objects.iter().enumerate() {
        let op = i as u64;
        let publisher = ids[i % vantages];
        let events = net.events_processed;
        let call = rec.enter("dht.publish", op);
        let (cid, ns) =
            rec.span("ipfs_core.import_content", op, || net.import_content(publisher, data));
        import_ns += ns;
        net.publish(publisher, cid.clone());
        let ((), _) = rec.span("ipfs_core.run_until_quiet", op, || net.run_until_quiet());
        let wall_ns = rec.exit(call);
        calls.push(Call {
            kind: "publish",
            wall_ns,
            events: net.events_processed - events,
            bytes: 0,
        });
        for r in net.publish_reports.drain(..) {
            pub_sim.push(r.total.as_nanos());
            failed += u64::from(!r.success);
        }
        net.disconnect_all(publisher);

        for &requester in ids.iter().filter(|&&r| r != publisher) {
            let events = net.events_processed;
            let call = rec.enter("dht.retrieve", op);
            net.retrieve(requester, cid.clone());
            let ((), _) = rec.span("ipfs_core.run_until_quiet", op, || net.run_until_quiet());
            let wall_ns = rec.exit(call);
            let bytes = OBJECT_BYTES as u64;
            calls.push(Call {
                kind: "retrieve",
                wall_ns,
                events: net.events_processed - events,
                bytes,
            });
            let reports: Vec<_> = net.retrieve_reports.drain(..).collect();
            for r in reports {
                ret_sim.push(r.total.as_nanos());
                if r.success {
                    retrieved_ok += 1;
                    let t = Instant::now();
                    if net.node_mut(requester).read_content(&cid).ok().as_ref() != Some(data) {
                        errors.push(format!("object {i}: retrieved bytes differ"));
                    }
                    check_ns += t.elapsed().as_nanos() as u64;
                } else {
                    failed += 1;
                }
            }
            // §4.3 reset: no warm connection, cached address or local copy
            // may short-circuit the next retrieval.
            net.disconnect_all(requester);
            let publisher_peer = net.peer_id(publisher).clone();
            net.forget_address(requester, &publisher_peer);
            let store = &mut net.node_mut(requester).store;
            let held: Vec<_> = store.cids().cloned().collect();
            for c in held {
                merkledag::BlockStore::delete(store, &c);
            }
        }
        net.disconnect_all(publisher);
        cids.push(cid);
    }
    let timed_ns = timed.elapsed().as_nanos() as u64 - check_ns;

    let ops = calls.len() as u64;
    let mut digest = String::new();
    let m = |n: &str| net.metrics().get(n);
    let _ = write!(
        digest,
        "events={} sim_end_s={} publish_ok={} publish_failed={} retrieve_ok={} retrieve_failed={} \
         retrieve_via_bitswap={} addr_book_hits={} publish_sim_ns_p50={} publish_sim_ns_p90={} \
         retrieve_sim_ns_p50={} retrieve_sim_ns_p90={} roots={:016x}",
        net.events_processed,
        net.now().since(simnet::SimTime::ZERO).as_secs_f64() as u64,
        m(names::PUBLISH_SUCCESS),
        m(names::PUBLISH_FAILED),
        m(names::RETRIEVE_SUCCESS),
        m(names::RETRIEVE_FAILED),
        m(names::RETRIEVE_VIA_BITSWAP),
        m(names::ADDR_BOOK_HITS),
        percentile_u64(&pub_sim, 0.5),
        percentile_u64(&pub_sim, 0.9),
        percentile_u64(&ret_sim, 0.5),
        percentile_u64(&ret_sim, 0.9),
        fnv1a(cids.iter().map(|c| c.to_string()).collect::<String>().as_bytes()),
    );
    if pub_sim.len() + ret_sim.len() != calls.len() {
        errors.push("an op produced no report".into());
    }

    let layers = want_layers.then(|| {
        let bytes = OBJECT_BYTES as u64;
        layers::compute(Input {
            bridge: ids[0],
            seed,
            calls: &calls,
            ops,
            timed_ns,
            before: &before,
            population_ns,
            from_population_ns,
            objects: objects.iter().take(512).cloned().collect(),
            record_cids: cids.clone(),
            lru_seq: cids.iter().flat_map(|c| std::iter::repeat_n((c.clone(), bytes), 5)).collect(),
            dags: cids.iter().take(512).map(|c| (vec![c.clone()], 1)).collect(),
            // Import hashes each object once; every fetched block is
            // verified on receipt.
            hashed_bytes: bytes * (objects.len() as u64 + retrieved_ok),
            imported_bytes: bytes * objects.len() as u64,
            read_bytes: 0,
            gateway: None,
            import_us: Some(import_ns as f64 / 1e3 / objects.len().max(1) as f64),
            net: &mut net,
        })
    });
    Rep { setup_ns, timed_ns, calls, ops, failed, digest, errors, layers }
}
