//! Per-layer metrics of the traced run.
//!
//! Each metric is a span around a public call the workload made, a replay
//! of one layer's public function on the workload's own inputs, or a
//! public counter of the program. A `*_share` metric bounds what the layer
//! can save on this workload: replay cost per op × the layer's op count in
//! the timed phase, over the timed wall time.

use crate::stats::{mix, percentile};
use crate::workloads::Call;
use bitswap::{BitswapEngine, Message, Session, SessionConfig, SessionHandle};
use bytes::Bytes;
use gateway::workload::{GatewayRequest, GatewayWorkload, WorkloadConfig};
use gateway::{Gateway, GatewayConfig, LruWebCache, ServedBy};
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, NodeId};
use kademlia::{Key, ProviderRecord, RecordStore, RoutingTable, K};
use merkledag::{BlockStore, DagBuilder, MemoryBlockStore, Resolver};
use multiformats::{sha256, Cid, PeerId};
use simnet::{EventQueue, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One layer: the end-to-end metrics a change to it should move, and the
/// workloads where it should move nothing.
pub struct Layer {
    pub name: &'static str,
    pub moves: &'static str,
    pub not: &'static str,
}

pub const LAYERS: &[Layer] = &[
    Layer {
        name: "multiformats",
        moves: "import_mb_per_s, fetch_mb_per_s (ops_per_s, call_ms_p50) on bulk_transfer; \
                setup_s on gateway_day",
        not: "ops_per_s on dht_lookup",
    },
    Layer {
        name: "merkledag",
        moves: "import_mb_per_s, fetch_mb_per_s (ops_per_s, call_ms_p50) on bulk_transfer",
        not: "dht_lookup",
    },
    Layer {
        name: "kademlia",
        moves: "publish_ms_*, retrieve_ms_* (ops_per_s, call_ms_p50) on dht_lookup",
        not: "bulk_transfer",
    },
    Layer {
        name: "kademlia.records",
        moves: "ops_per_s and peak_rss_mb on catalog_maintain",
        not: "dht_lookup, bulk_transfer",
    },
    Layer {
        name: "bitswap",
        moves: "fetch_mb_per_s on bulk_transfer; request_ms_p99 and ops_per_s on gateway_day",
        not: "catalog_maintain",
    },
    Layer {
        name: "simnet",
        moves: "setup_s (all); ops_per_s on dht_lookup and catalog_maintain",
        not: "bulk_transfer",
    },
    Layer {
        name: "ipfs_core",
        moves: "ops_per_s (all); request_ms_p99 on gateway_day; peak_rss_mb",
        not: "-",
    },
    Layer {
        name: "gateway",
        moves: "ops_per_s, request_ms_p99 (call_ms_p50), setup_s on gateway_day",
        not: "dht_lookup, bulk_transfer, catalog_maintain",
    },
    Layer { name: "trace", moves: "tracing overhead of this run", not: "-" },
];

/// Every per-layer metric: (name, unit, index into [`LAYERS`]).
pub const METRICS: &[(&str, &str, usize)] = &[
    ("multiformats.sha256_ns_per_kib", "ns/KiB", 0),
    ("multiformats.sha256_ns_64b", "ns", 0),
    ("multiformats.hash_share", "ratio", 0),
    ("merkledag.build_ns_per_kib", "ns/KiB", 1),
    ("merkledag.read_ns_per_kib", "ns/KiB", 1),
    ("merkledag.blocks", "count", 1),
    ("merkledag.share", "ratio", 1),
    ("kademlia.closest_ns", "ns", 2),
    ("kademlia.walk_rpcs", "count", 2),
    ("kademlia.rpc_sent.find_node", "count/op", 2),
    ("kademlia.rpc_sent.get_providers", "count/op", 2),
    ("kademlia.rpc_sent.add_provider", "count/op", 2),
    ("kademlia.rpc_sent.add_provider_batch", "count/op", 2),
    ("kademlia.rpc_failed_share", "ratio", 2),
    ("kademlia.closest_share", "ratio", 2),
    ("kademlia.records.add_ns", "ns", 3),
    ("kademlia.records.expire_ns_per_record", "ns", 3),
    ("kademlia.records.bytes_per_record", "B", 3),
    ("kademlia.provider_records", "count", 3),
    ("kademlia.records.share", "ratio", 3),
    ("bitswap.session_step_ns", "ns", 4),
    ("bitswap.inbound_ns", "ns", 4),
    ("bitswap.sessions_busiest", "count", 4),
    ("bitswap.blocks_received", "count", 4),
    ("bitswap.dup_share", "ratio", 4),
    ("bitswap.wants_sent", "count", 4),
    ("bitswap.reroutes", "count", 4),
    ("bitswap.probe_timeouts", "count", 4),
    ("bitswap.share", "ratio", 4),
    ("simnet.population_s", "s", 5),
    ("simnet.sched_ns_per_op", "ns", 5),
    ("simnet.events_per_op", "count/op", 5),
    ("simnet.sched_share", "ratio", 5),
    ("ipfs_core.from_population_s", "s", 6),
    ("ipfs_core.ns_per_event", "ns", 6),
    ("ipfs_core.ns_per_event_growth", "ratio", 6),
    ("ipfs_core.bytes_per_node", "B", 6),
    ("ipfs_core.dials_failed_share", "ratio", 6),
    ("ipfs_core.import_content_us", "us", 6),
    ("gateway.nginx_hit_rate", "ratio", 7),
    ("gateway.node_store_share", "ratio", 7),
    ("gateway.network_share", "ratio", 7),
    ("gateway.nginx_us_p50", "us", 7),
    ("gateway.node_store_us_p50", "us", 7),
    ("gateway.network_ms_p50", "ms", 7),
    ("gateway.network_ms_p99", "ms", 7),
    ("gateway.lru_get_ns", "ns", 7),
    ("gateway.lru_put_ns", "ns", 7),
    ("gateway.lru_share", "ratio", 7),
    ("gateway.install_catalog_s", "s", 7),
    ("gateway.evictions", "count", 7),
    ("gateway.singleflight_waiters", "count", 7),
    ("gateway.negative_hits", "count", 7),
    ("trace.overhead_ops_per_s", "ratio", 8),
    ("trace.overhead_call_ms_p50", "ratio", 8),
];

/// Wall time each replay keeps repeating its inputs for, so one pass over
/// a small input still measures well above the clock's resolution.
const REPLAY_NS: u64 = 20_000_000;

/// Repeats `pass` (which returns its unit count) until [`REPLAY_NS`] has
/// elapsed; returns nanoseconds per unit.
fn replay(mut pass: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut units = 0u64;
    loop {
        units += pass();
        let ns = t.elapsed().as_nanos() as u64;
        if ns >= REPLAY_NS || units == 0 {
            return ns as f64 / units.max(1) as f64;
        }
    }
}

/// What the gateway tiers served and how long each serve call took.
#[derive(Debug, Default)]
pub struct GatewayObs {
    pub nginx_ns: Vec<f64>,
    pub node_store_ns: Vec<f64>,
    /// Serve calls that led a network retrieval.
    pub network_ns: Vec<f64>,
    /// Requests answered by the network tier, waiters included.
    pub network_served: u64,
    pub negative_served: u64,
    pub evictions: u64,
    pub waiters: u64,
    pub negative_hits: u64,
    pub install_ns: u64,
}

impl GatewayObs {
    /// Files one serve call; `led_fetch` when it started a retrieval.
    pub fn record(&mut self, served_by: ServedBy, led_fetch: bool, wall_ns: u64) {
        match served_by {
            ServedBy::NginxCache => self.nginx_ns.push(wall_ns as f64),
            ServedBy::NodeStore => self.node_store_ns.push(wall_ns as f64),
            ServedBy::Network => {
                self.network_served += 1;
                if led_fetch {
                    self.network_ns.push(wall_ns as f64);
                }
            }
            ServedBy::NegativeCache => self.negative_served += 1,
        }
    }

    /// Copies the gateway's own counters in after the serve loop.
    pub fn finish(&mut self, gw: &Gateway) {
        self.evictions = gw.nginx.evictions;
        self.waiters = gw.metrics.get(names::GATEWAY_SINGLEFLIGHT_WAITERS);
        self.negative_hits = gw.metrics.get(names::GATEWAY_NEGATIVE_HITS);
    }

    fn requests(&self) -> u64 {
        (self.nginx_ns.len() + self.node_store_ns.len()) as u64
            + self.network_served
            + self.negative_served
    }
}

/// Serves `gw` one request and files it; returns the log entry, the wall
/// ns of the call and the simulator events it processed.
pub fn serve(
    gw: &mut Gateway,
    net: &mut IpfsNetwork,
    workload: &GatewayWorkload,
    req: &GatewayRequest,
    obs: &mut GatewayObs,
    rec: &mut crate::trace::Recorder,
    op: u64,
) -> (gateway::AccessLogEntry, u64, u64) {
    let fetches = gw.metrics.get(names::GATEWAY_NETWORK_FETCHES);
    let events = net.events_processed;
    let (entry, ns) = rec.span("gateway.serve", op, || gw.serve(net, workload, req));
    let led = gw.metrics.get(names::GATEWAY_NETWORK_FETCHES) > fetches;
    obs.record(entry.served_by, led, ns);
    (entry, ns, net.events_processed - events)
}

/// A small gateway day replayed on another workload's network, so the
/// gateway's metrics exist on every workload: a 200-object catalog on the
/// workload's servers, 1,000 Zipf requests through a bridge node, shifted
/// to start at the network's current time.
fn gateway_replay(net: &mut IpfsNetwork, bridge: NodeId, seed: u64) -> GatewayObs {
    let mut workload = GatewayWorkload::generate(WorkloadConfig {
        catalog_size: 200,
        users: 100,
        requests: 1_000,
        duration: SimDuration::from_hours(1),
        seed: mix(seed, 0x6777),
        ..Default::default()
    });
    let offset = net.now().since(SimTime::ZERO);
    for r in &mut workload.requests {
        r.at += offset;
    }
    let providers: Vec<NodeId> = net
        .server_ids()
        .into_iter()
        .filter(|&i| i != bridge && net.is_dialable(i))
        .take(50)
        .collect();
    let mut gw = Gateway::new(bridge, GatewayConfig::default());
    let mut obs = GatewayObs::default();
    let t = Instant::now();
    gw.install_catalog(net, &workload, &providers);
    obs.install_ns = t.elapsed().as_nanos() as u64;
    let mut rec = crate::trace::Recorder::new(false);
    for (i, req) in workload.requests.iter().enumerate() {
        serve(&mut gw, net, &workload, req, &mut obs, &mut rec, i as u64);
    }
    obs.finish(&gw);
    obs
}

/// Everything the layer computation needs from one traced repetition.
pub struct Input<'a> {
    pub net: &'a mut IpfsNetwork,
    /// An always-online server to bridge replays through.
    pub bridge: NodeId,
    pub seed: u64,
    pub calls: &'a [Call],
    pub ops: u64,
    pub timed_ns: u64,
    /// Counters as the timed phase began.
    pub before: &'a BTreeMap<&'static str, u64>,
    pub population_ns: u64,
    pub from_population_ns: u64,
    /// A sample of the workload's object payloads.
    pub objects: Vec<Bytes>,
    /// CIDs the workload's provider records are for.
    pub record_cids: Vec<Cid>,
    /// The (CID, size) sequence a cache in front of the workload sees.
    pub lru_seq: Vec<(Cid, u64)>,
    /// Block lists of the workload's DAGs with their swarm sizes.
    pub dags: Vec<(Vec<Cid>, usize)>,
    /// Content bytes hashed, imported and read back in the timed phase.
    pub hashed_bytes: u64,
    pub imported_bytes: u64,
    pub read_bytes: u64,
    /// Gateway tiers as served in the timed phase (gateway_day only).
    pub gateway: Option<GatewayObs>,
    /// Mean `import_content` span, where the timed phase imports.
    pub import_us: Option<f64>,
}

/// Computes every per-layer metric except the `trace.*` ones.
pub fn compute(inp: Input<'_>) -> Layers {
    let mut m = Layers::new();
    let timed = inp.timed_ns.max(1) as f64;
    let ops = inp.ops.max(1) as f64;
    let delta = |net: &IpfsNetwork, name: &str| {
        net.metrics().get(name).saturating_sub(inp.before.get(name).copied().unwrap_or(0))
    };

    // multiformats: SHA-256 over the workload's payloads, and a short
    // digest of the size every DHT key derivation hashes.
    let payload_bytes: u64 = inp.objects.iter().map(|o| o.len() as u64).sum::<u64>().max(1);
    let sha_ns_per_byte = replay(|| {
        for o in &inp.objects {
            black_box(sha256::digest(black_box(o)));
        }
        payload_bytes
    });
    let sha_kib = sha_ns_per_byte * 1024.0;
    m.insert("multiformats.sha256_ns_per_kib", sha_kib);
    let buf = [0x5au8; 64];
    m.insert(
        "multiformats.sha256_ns_64b",
        replay(|| {
            for _ in 0..1_000 {
                black_box(sha256::digest(black_box(&buf)));
            }
            1_000
        }),
    );
    m.insert("multiformats.hash_share", sha_ns_per_byte * inp.hashed_bytes as f64 / timed);

    // merkledag: build and verified read-back of the same payloads.
    let mut store = MemoryBlockStore::new();
    let mut roots = Vec::new();
    let mut blocks = 0usize;
    for o in &inp.objects {
        let r = DagBuilder::new(&mut store).add(o).expect("in-memory build");
        blocks += r.new_leaves + r.deduplicated_leaves + r.branch_nodes;
        roots.push(r.root);
    }
    let build_per_byte = replay(|| {
        let mut s = MemoryBlockStore::new();
        for o in &inp.objects {
            black_box(DagBuilder::new(&mut s).add(o).expect("in-memory build"));
        }
        payload_bytes
    });
    let read_per_byte = replay(|| {
        for r in &roots {
            black_box(Resolver::new(&mut store).read_file(r).expect("blocks present"));
        }
        payload_bytes
    });
    m.insert("merkledag.build_ns_per_kib", build_per_byte * 1024.0);
    m.insert("merkledag.read_ns_per_kib", read_per_byte * 1024.0);
    m.insert("merkledag.blocks", blocks as f64 / inp.objects.len().max(1) as f64);
    m.insert(
        "merkledag.share",
        (build_per_byte * inp.imported_bytes as f64 + read_per_byte * inp.read_bytes as f64)
            / timed,
    );

    // kademlia: closest() on a table filled from the population.
    let servers = inp.net.server_ids();
    let mut table = RoutingTable::new(Key::from_peer(inp.net.peer_id(inp.bridge)));
    for &s in &servers {
        table.insert(inp.net.node(s).info().clone());
    }
    let targets: Vec<Key> = (0..256u64)
        .map(|i| {
            let mut k = [0u8; 32];
            for (j, c) in k.chunks_mut(8).enumerate() {
                c.copy_from_slice(&mix(inp.seed, i * 4 + j as u64).to_le_bytes());
            }
            Key::from_bytes(k)
        })
        .collect();
    let closest_ns = replay(|| {
        for t in &targets {
            black_box(table.closest(t, K));
        }
        targets.len() as u64
    });
    m.insert("kademlia.closest_ns", closest_ns);
    let walk = inp.net.metrics().stats(names::DHT_WALK_RPCS).map(|s| s.mean).unwrap_or(0.0);
    m.insert("kademlia.walk_rpcs", walk);
    for (metric, counter) in [
        ("kademlia.rpc_sent.find_node", names::DHT_RPC_SENT_FIND_NODE),
        ("kademlia.rpc_sent.get_providers", names::DHT_RPC_SENT_GET_PROVIDERS),
        ("kademlia.rpc_sent.add_provider", names::DHT_RPC_SENT_ADD_PROVIDER),
        ("kademlia.rpc_sent.add_provider_batch", names::DHT_RPC_SENT_ADD_PROVIDER_BATCH),
    ] {
        m.insert(metric, delta(inp.net, counter) as f64 / ops);
    }
    let rpc_ok = delta(inp.net, names::DHT_RPC_OK);
    let rpc_failed = delta(inp.net, names::DHT_RPC_FAILED);
    m.insert("kademlia.rpc_failed_share", rpc_failed as f64 / (rpc_ok + rpc_failed).max(1) as f64);
    let lookups = delta(inp.net, names::DHT_RPC_RECV_FIND_NODE)
        + delta(inp.net, names::DHT_RPC_RECV_GET_PROVIDERS);
    m.insert("kademlia.closest_share", closest_ns * lookups as f64 / timed);

    // kademlia::records: add, refresh and expire the workload's keys.
    let keys: Vec<Key> = inp.record_cids.iter().map(Key::from_cid).collect();
    let provider = inp.net.peer_id(inp.bridge).clone();
    let fill = |store: &mut RecordStore, at: u64| {
        for (i, k) in keys.iter().enumerate() {
            store.add_provider(ProviderRecord {
                key: *k,
                provider: provider.clone(),
                addrs: Vec::new(),
                received_at: SimTime::from_nanos(at + i as u64),
            });
        }
    };
    let mut add_ns = 0u64;
    let mut expire_ns = 0u64;
    let mut expired = 0u64;
    let mut bytes_per_record = 0.0;
    let start = Instant::now();
    while start.elapsed().as_nanos() < u128::from(REPLAY_NS) || expired == 0 {
        let mut store = RecordStore::with_expiry(SimDuration::from_hours(24));
        let t = Instant::now();
        fill(&mut store, 0);
        fill(&mut store, 1 << 40); // the reprovide refresh
        add_ns += t.elapsed().as_nanos() as u64;
        bytes_per_record =
            store.bytes_estimate() as f64 / store.provider_entry_count().max(1) as f64;
        let t = Instant::now();
        expired += store.expire(SimTime::from_nanos(u64::MAX / 2)) as u64;
        expire_ns += t.elapsed().as_nanos() as u64;
        if keys.is_empty() {
            break;
        }
    }
    let adds = (expired * 2).max(1) as f64;
    let add_per = add_ns as f64 / adds;
    let expire_per = expire_ns as f64 / expired.max(1) as f64;
    m.insert("kademlia.records.add_ns", add_per);
    m.insert("kademlia.records.expire_ns_per_record", expire_per);
    m.insert("kademlia.records.bytes_per_record", bytes_per_record);
    m.insert("kademlia.provider_records", inp.net.provider_records_total() as f64);
    let stored = delta(inp.net, names::PROVIDER_RECORDS_STORED);
    let dropped = delta(inp.net, names::PROVIDER_RECORDS_EXPIRED);
    m.insert(
        "kademlia.records.share",
        (add_per * stored as f64 + expire_per * dropped as f64) / timed,
    );

    // bitswap: a session fetching the workload's DAGs from swarms of the
    // workload's size, and inbound HAVEs against the busiest engine.
    let peers: Vec<PeerId> = servers.iter().take(16).map(|&s| inp.net.peer_id(s).clone()).collect();
    let session_blocks: u64 = inp.dags.iter().map(|(b, _)| b.len() as u64).sum();
    let step_ns = replay(|| {
        for (blocks, swarm) in &inp.dags {
            black_box(session_pump(blocks, &peers[..(*swarm).clamp(1, peers.len())]));
        }
        session_blocks
    });
    m.insert("bitswap.session_step_ns", step_ns);
    let busiest = (0..inp.net.len()).map(|i| session_count(&inp.net.node(i).bitswap)).max();
    let busiest = busiest.unwrap_or(0);
    m.insert("bitswap.sessions_busiest", busiest as f64);
    m.insert("bitswap.inbound_ns", inbound_replay(busiest, &peers[0]));
    let received = delta(inp.net, names::BITSWAP_SESSION_BLOCKS_RECEIVED);
    let dups = delta(inp.net, names::BITSWAP_SESSION_DUP_BLOCKS);
    m.insert("bitswap.blocks_received", received as f64);
    m.insert("bitswap.dup_share", dups as f64 / (received + dups).max(1) as f64);
    m.insert("bitswap.wants_sent", delta(inp.net, names::BITSWAP_SESSION_WANTS_SENT) as f64);
    m.insert("bitswap.reroutes", delta(inp.net, names::BITSWAP_SESSION_REROUTES) as f64);
    m.insert("bitswap.probe_timeouts", delta(inp.net, names::BITSWAP_PROBE_TIMEOUTS) as f64);
    m.insert("bitswap.share", step_ns * received as f64 / timed);

    // simnet: population build, and scheduler churn at one pending event
    // per node.
    let events: u64 = inp.calls.iter().map(|c| c.events).sum();
    let depth = inp.net.len();
    let sched_ns = sched_replay(depth, inp.seed);
    m.insert("simnet.population_s", inp.population_ns as f64 / 1e9);
    m.insert("simnet.sched_ns_per_op", sched_ns);
    m.insert("simnet.events_per_op", events as f64 / ops);
    m.insert("simnet.sched_share", sched_ns * events as f64 / timed);

    // ipfs_core: dispatch cost per event and how it grows over the run.
    m.insert("ipfs_core.from_population_s", inp.from_population_ns as f64 / 1e9);
    let (per_event, growth) = event_cost(inp.calls);
    m.insert("ipfs_core.ns_per_event", per_event);
    m.insert("ipfs_core.ns_per_event_growth", growth);
    m.insert("ipfs_core.bytes_per_node", inp.net.bytes_per_node_estimate() as f64);
    let dials = delta(inp.net, names::DIALS_ATTEMPTED);
    let dials_failed = delta(inp.net, names::DIALS_FAILED);
    m.insert("ipfs_core.dials_failed_share", dials_failed as f64 / dials.max(1) as f64);
    let import_us = inp.import_us.unwrap_or_else(|| {
        let t = Instant::now();
        for o in &inp.objects {
            black_box(inp.net.import_content(inp.bridge, o));
        }
        t.elapsed().as_nanos() as f64 / 1e3 / inp.objects.len().max(1) as f64
    });
    m.insert("ipfs_core.import_content_us", import_us);

    // gateway: the tiers as served (gateway_day) or a small replayed day,
    // and the LRU tier replayed over the workload's key/size sequence.
    // Only the gateway_day serve loop calls the LRU tier in its timed phase.
    let lru_calls = if inp.gateway.is_some() { inp.lru_seq.len() as f64 } else { 0.0 };
    let bridge = inp.bridge;
    let gw = inp.gateway.unwrap_or_else(|| gateway_replay(inp.net, bridge, inp.seed));
    let requests = gw.requests().max(1) as f64;
    m.insert("gateway.nginx_hit_rate", gw.nginx_ns.len() as f64 / requests);
    m.insert("gateway.node_store_share", gw.node_store_ns.len() as f64 / requests);
    m.insert("gateway.network_share", gw.network_served as f64 / requests);
    m.insert("gateway.nginx_us_p50", percentile(&gw.nginx_ns, 0.5) / 1e3);
    m.insert("gateway.node_store_us_p50", percentile(&gw.node_store_ns, 0.5) / 1e3);
    m.insert("gateway.network_ms_p50", percentile(&gw.network_ns, 0.5) / 1e6);
    m.insert("gateway.network_ms_p99", percentile(&gw.network_ns, 0.99) / 1e6);
    m.insert("gateway.install_catalog_s", gw.install_ns as f64 / 1e9);
    m.insert("gateway.evictions", gw.evictions as f64);
    m.insert("gateway.singleflight_waiters", gw.waiters as f64);
    m.insert("gateway.negative_hits", gw.negative_hits as f64);
    let (get_ns, put_ns) = lru_replay(&inp.lru_seq);
    m.insert("gateway.lru_get_ns", get_ns);
    m.insert("gateway.lru_put_ns", put_ns);
    m.insert("gateway.lru_share", (get_ns + put_ns) * lru_calls / timed);
    m
}

/// Drives one session over `blocks` with every peer holding every block:
/// WANTs, then HAVE and BLOCK answers in send order. Returns blocks
/// received.
fn session_pump(blocks: &[Cid], peers: &[PeerId]) -> u64 {
    let mut s = Session::new(peers.to_vec(), SessionConfig::default());
    let mut now = 0u64;
    let mut queue: VecDeque<(PeerId, Message)> = VecDeque::new();
    let mut stalled = false;
    for cid in blocks {
        queue.extend(s.want_block(cid.clone(), now, &mut stalled));
    }
    while let Some((to, msg)) = queue.pop_front() {
        now += 1_000;
        match msg {
            Message::WantHave(cid) => queue.extend(s.on_have(&to, &cid, now)),
            Message::WantBlock(cid) => queue.extend(s.on_block(&to, &cid, now)),
            _ => {}
        }
    }
    s.stats().blocks_received
}

/// Sessions an engine holds: handles are dense and never reused, so count
/// until a run of absent handles.
fn session_count(engine: &BitswapEngine) -> usize {
    let mut n = 0;
    let mut gap = 0;
    let mut h = 0u64;
    while gap < 64 {
        if engine.session_state(SessionHandle(h)).is_some() {
            n += 1;
            gap = 0;
        } else {
            gap += 1;
        }
        h += 1;
    }
    n
}

/// `handle_inbound` of a HAVE for an unknown block on an engine holding
/// `sessions` completed sessions; ns per call.
fn inbound_replay(sessions: usize, from: &PeerId) -> f64 {
    let mut store = MemoryBlockStore::new();
    let local = Cid::from_raw_data(b"perfbench local block");
    store.put(local.clone(), Bytes::from_static(b"perfbench local block"));
    let mut engine = BitswapEngine::new();
    for _ in 0..sessions.max(1) {
        engine.start_session(local.clone(), Vec::new(), &mut store);
    }
    let unknown = Cid::from_raw_data(b"perfbench unknown block");
    replay(|| {
        for _ in 0..100 {
            black_box(engine.handle_inbound(from, Message::Have(unknown.clone()), &mut store));
        }
        100
    })
}

/// Schedule+pop pairs on an `EventQueue` holding `depth` pending events.
fn sched_replay(depth: usize, seed: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = mix(seed, 0x5c4ed) | 1;
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        SimDuration::from_micros(x % 10_000_000)
    };
    for i in 0..depth.max(1) as u64 {
        q.schedule(delay(), i);
    }
    replay(|| {
        for _ in 0..10_000 {
            let ev = q.pop().expect("queue never drains");
            q.schedule(delay(), black_box(ev.event));
        }
        10_000
    })
}

/// `LruWebCache::get` on a warm cache and `put` into a cold one over the
/// same (CID, size) sequence; ns per call each.
fn lru_replay(seq: &[(Cid, u64)]) -> (f64, f64) {
    let capacity = GatewayConfig::default().nginx_capacity_bytes;
    let mut warm = LruWebCache::new(capacity);
    for (c, s) in seq {
        warm.put(c.clone(), *s);
    }
    let n = seq.len().max(1) as u64;
    let get = replay(|| {
        for (c, _) in seq {
            black_box(warm.get(c));
        }
        n
    });
    let put = replay(|| {
        let mut cold = LruWebCache::new(capacity);
        for (c, s) in seq {
            cold.put(c.clone(), *s);
        }
        n
    });
    (get, put)
}

/// Wall ns per simulator event over the calls that ran the simulator, and
/// the same ratio over the calls holding the last tenth of the events
/// against the first.
fn event_cost(calls: &[Call]) -> (f64, f64) {
    let calls: Vec<&Call> = calls.iter().filter(|c| c.events > 0).collect();
    let events: u64 = calls.iter().map(|c| c.events).sum();
    let wall: u64 = calls.iter().map(|c| c.wall_ns).sum();
    let tenth = (events / 10).max(1);
    let ratio = |it: &mut dyn Iterator<Item = &Call>| {
        let (mut e, mut w) = (0u64, 0u64);
        for c in it {
            if e >= tenth {
                break;
            }
            e += c.events;
            w += c.wall_ns;
        }
        w as f64 / e.max(1) as f64
    };
    let first = ratio(&mut calls.iter().copied());
    let last = ratio(&mut calls.iter().rev().copied());
    (wall as f64 / events.max(1) as f64, last / first.max(1e-9))
}
