//! The sharded cell: a struct-of-arrays IPFS workload on the PDES engine.
//!
//! [`crate::netsim`] models every protocol detail of §3 — at ~8 µs per
//! event, which caps a cell near 20k nodes. This module is the scale
//! substrate: the same IPFS shape (α=3 iterative DHT walks, provider
//! records, the recently-seen address book, warm-connection dialing,
//! churn, regional partitions) compressed into flat arrays over `u64`
//! keys and `u32` node ids, dispatched by the region-sharded
//! deterministic engine ([`simnet::ShardedEngine`]). A node costs a few
//! hundred bytes, so 100k+-node worlds fit comfortably in RAM, and the
//! per-event handler is allocation-free on the hot path.
//!
//! **Layout.** Nodes are renumbered region-major at build time: region
//! `r` owns the contiguous id range `[start[r], start[r+1])`, so a
//! shard's state is a set of dense per-region arrays (`online`, warm-conn
//! rings, address rings) indexed by `node - start[r]`. Routing tables are
//! one flat arena of `ROUTE_PER_NODE` u32 slots per node — 20 XOR-nearest
//! DHT servers (found through a numeric-sort window, the standard
//! sorted-oracle approximation) plus 60 random servers, which gives
//! iterative walks the Kademlia-like convergence the workload needs.
//!
//! **Determinism.** Every guarantee of [`simnet::shard`] is preserved:
//! all mutable state is per-region and only touched by events delivered
//! in that region; request ids are `(slot, gen)` pairs allocated in
//! region-event order; randomness comes from the per-event
//! [`ShardCtx::rng`]; cross-region delays are sampled with
//! [`simnet::latency::LatencyModel::sample_one_way_floored`], whose floor
//! is exactly the engine lookahead. Partitions from a
//! [`faultsim::FaultPlan`] are precompiled into read-only time windows
//! checked at the *exact* event instant, so a boundary landing mid-window
//! changes nothing across shard counts. The result's order/metrics
//! fingerprints are therefore byte-identical for any `shards` in 1..=10.

use crate::obs::dtrace::{fragment_span, FlightRing, SpanFragment, NO_PEER};
use faultsim::{FaultEvent, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::latency::{LatencyModel, Region};
use simnet::{LeanPopulation, RegionEvent, ShardCtx, ShardedEngine, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Concurrent queries per DHT walk (§3.1: libp2p's α).
const ALPHA: u32 = 3;
/// Best-candidate window a walk keeps sorted by XOR distance.
const CAND: usize = 8;
/// Closer peers returned per lookup reply.
const REPLY_MAX: usize = 4;
/// Queried-peer memory per walk (also the walk's RPC budget).
const MAX_RPCS: usize = 16;
/// Closest-done peers kept: the provider-record replica set.
const REPLICAS: usize = 4;
/// Warm-connection ring slots per node.
const CONN_SLOTS: usize = 8;
/// Address-book ring slots per node (the lean stand-in for the
/// 900-entry book: the handful of providers this node met recently).
const ADDR_SLOTS: usize = 8;
/// Routing-arena slots per node: 20 XOR-near + 60 random servers.
const ROUTE_NEAR: usize = 20;
const ROUTE_PER_NODE: usize = 80;
/// Numeric-sort window radius used to find XOR-near servers at build.
const NEAR_WINDOW: usize = 64;
/// Walker-side RPC timeout.
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Empty slot sentinel in the u32 arenas.
const NONE32: u32 = u32::MAX;

/// FNV-1a offset basis / prime (64-bit).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one u64 into an FNV-1a chain, byte by byte.
fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: the key/cid derivation mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content key of the `i`-th op of region `region`'s tick `round` —
/// derivable by any retriever without shared mutable state.
fn cid_of(seed: u64, region: usize, round: u64, i: u32) -> u64 {
    splitmix64(seed ^ 0x6369_6400 ^ ((region as u64) << 48) ^ (round << 16) ^ i as u64)
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// Metric counters, sum-merged across shards at collection.
#[derive(Clone, Copy)]
#[repr(usize)]
enum Ctr {
    Ticks,
    PublishStart,
    PublishDone,
    RetrieveStart,
    RetrieveDone,
    RetrieveMiss,
    RpcSent,
    RpcReply,
    RpcOffline,
    RpcBlocked,
    RpcTimeout,
    ProviderStore,
    AddrHit,
    AddrMiss,
    DialWarm,
    DialCold,
    ChurnOff,
    ChurnOn,
    ProviderExpired,
    SweepRepublish,
    SweepDeferred,
    PublishNanos,
    RetrieveNanos,
}

const CTR_COUNT: usize = 23;
const CTR_NAMES: [&str; CTR_COUNT] = [
    "ticks",
    "publish_start",
    "publish_done",
    "retrieve_start",
    "retrieve_done",
    "retrieve_miss",
    "rpc_sent",
    "rpc_reply",
    "rpc_offline",
    "rpc_blocked",
    "rpc_timeout",
    "provider_store",
    "addr_hit",
    "addr_miss",
    "dial_warm",
    "dial_cold",
    "churn_off",
    "churn_on",
    "provider_expired",
    "sweep_republish",
    "sweep_deferred",
    "publish_nanos",
    "retrieve_nanos",
];

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// RPC kinds threaded through [`Ev::Rpc`]/[`Ev::Reply`].
const KIND_LOOKUP: u8 = 0;
const KIND_GETPROV: u8 = 1;
const KIND_FETCH: u8 = 2;

/// Events of the sharded cell. Every variant carries its delivery
/// region, so the engine can route it without touching world state.
#[derive(Clone, Debug)]
enum Ev {
    /// Per-region workload pulse: churn toggles + new publish/retrieve
    /// ops at random nodes of the region. Self-rescheduling.
    Tick { region: u8 },
    /// A request arrives at `to` (kind: lookup / get-providers / fetch).
    Rpc {
        region: u8,
        kind: u8,
        to: u32,
        walker: u32,
        wregion: u8,
        slot: u32,
        gen: u32,
        rpc_no: u8,
        target: u64,
    },
    /// A response arrives back at the walker (identified by its walk
    /// slot — slots are region-scoped, and `region` is the walker's).
    Reply {
        region: u8,
        kind: u8,
        slot: u32,
        gen: u32,
        rpc_no: u8,
        from: u32,
        found: [u32; REPLY_MAX],
    },
    /// Walker-side RPC timer (scheduled at every send; loser of the
    /// reply/timeout race is ignored via the walk's open-RPC bitmask).
    Timeout { region: u8, slot: u32, gen: u32, rpc_no: u8 },
    /// Fire-and-forget ADD_PROVIDER landing at a replica (§3.1).
    Store { region: u8, to: u32, cid: u64, provider: u32 },
}

// Same bound as `netsim::NetEvent`: shard-boundary messages are copied
// through timing-wheel slots *and* window mailboxes, so inline size is
// paid on every schedule, cascade, pop, and cross-shard hand-off.
const _: () = assert!(std::mem::size_of::<Ev>() <= 80);

impl RegionEvent for Ev {
    fn region(&self) -> usize {
        match self {
            Ev::Tick { region }
            | Ev::Rpc { region, .. }
            | Ev::Reply { region, .. }
            | Ev::Timeout { region, .. }
            | Ev::Store { region, .. } => *region as usize,
        }
    }
}

// ---------------------------------------------------------------------
// World (read-only after build)
// ---------------------------------------------------------------------

/// Immutable world data shared by every shard.
struct World {
    seed: u64,
    latency: LatencyModel,
    tick: SimDuration,
    ops_per_tick: u32,
    /// Churn toggles per region per tick, precomputed from `churn_prob`.
    churn_toggles: [u32; Region::COUNT],
    /// Region-major id ranges: region `r` owns `start[r]..start[r+1]`.
    start: [u32; Region::COUNT + 1],
    /// Regions with at least one node (tick targets, retrieve domains).
    active_regions: Vec<u8>,
    /// DHT key per node.
    keys: Vec<u64>,
    /// Whether the node is a dialable DHT server (non-NAT'ed).
    server: Vec<bool>,
    /// Flat routing arena, `ROUTE_PER_NODE` slots per node, NONE-padded.
    routing: Vec<u32>,
    /// Partition windows `(start_nanos, end_nanos, region bitmask)`
    /// compiled from the fault plan; checked at exact event instants.
    partitions: Vec<(u64, u64, u16)>,
    /// Provider-record lifetime (scaled §3.1 24 h expiry).
    provider_expiry: SimDuration,
    /// Reprovide interval (scaled §3.1 12 h republish cycle).
    provider_republish: SimDuration,
}

impl World {
    fn region_of(&self, node: u32) -> usize {
        // 10 regions: a linear scan beats binary search and stays simple.
        let mut r = 0;
        while self.start[r + 1] <= node {
            r += 1;
        }
        r
    }

    /// Whether a message between regions `a` and `b` is cut at `at`:
    /// some active partition window separates them (exactly one side in
    /// the severed group). Intra-group and intra-region traffic passes.
    fn blocked(&self, at: SimTime, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let t = at.as_nanos();
        self.partitions
            .iter()
            .any(|&(s, e, mask)| t >= s && t < e && ((mask >> a) ^ (mask >> b)) & 1 == 1)
    }

    /// Logical bytes of the read-only per-node arrays.
    fn static_bytes(&self) -> u64 {
        (self.keys.len() * std::mem::size_of::<u64>()
            + self.server.len()
            + self.routing.len() * std::mem::size_of::<u32>()) as u64
    }
}

// ---------------------------------------------------------------------
// Mutable per-region state
// ---------------------------------------------------------------------

/// One in-flight walk (lookup → get-providers → fetch state machine).
#[derive(Clone)]
struct Walk {
    gen: u32,
    node: u32,
    target: u64,
    t0: SimTime,
    /// Shard-invariant trace key ([`ShardCtx::trace_key`] of the event
    /// that started the walk) — the walk's flight-recorder trace id.
    tkey: u64,
    /// `true` = publish (stop after the lookup + provider stores).
    publish: bool,
    /// 0 lookup, 1 get-providers, 2 fetch.
    phase: u8,
    /// Next RPC number; doubles as the RPC budget spent. Lookups stop at
    /// `MAX_RPCS`; the get-providers and fetch phases may add two more,
    /// so the mask below must hold `MAX_RPCS + 2` bits.
    rpc_no: u8,
    /// Bitmask of in-flight RPC numbers (reply/timeout race arbiter).
    open: u32,
    /// Successful lookup replies received.
    done: u8,
    /// Closest XOR distance among replied peers.
    best_done: u64,
    /// Unqueried candidates, ascending XOR distance.
    cand: [(u64, u32); CAND],
    cand_len: u8,
    /// Closest replied peers: the replica set / fetch targets.
    closest: [(u64, u32); REPLICAS],
    closest_len: u8,
    /// Peers already queried (dedup for candidate insertion).
    seen: [u32; MAX_RPCS],
    seen_len: u8,
}

/// Dense mutable state of one region (only ever touched by events
/// delivered in this region).
struct RegionState {
    start: u32,
    count: u32,
    online: Vec<bool>,
    /// Warm-connection rings, `CONN_SLOTS` per node.
    conn: Vec<u32>,
    conn_cur: Vec<u8>,
    /// Recently-met-provider rings, `ADDR_SLOTS` per node.
    addr: Vec<u32>,
    addr_cur: Vec<u8>,
    /// Provider records stored at this region's replicas, keyed by
    /// `(replica node, cid)` — a record is only found by asking the node
    /// it was stored at, as on the real DHT. Value: `(provider,
    /// stored_at)`; the timestamp drives lazy expiry validation.
    providers: HashMap<(u32, u64), (u32, SimTime)>,
    /// Record-expiry queue `(deadline, replica, cid)`, appended at store
    /// dispatch so deadlines are nondecreasing, so each tick pops only
    /// the due prefix: O(expired), not O(records).
    /// A refreshed record is detected lazily (live `stored_at` newer
    /// than the popped deadline implies) and skipped.
    expiry: VecDeque<(SimTime, u32, u64)>,
    /// Reprovide queue `(deadline, publisher, cid)`: the region's
    /// keyspace-sweep equivalent. Every completed publish arms one
    /// entry; each tick pops the due prefix and re-walks (publisher
    /// online) or defers a full interval (publisher offline) —
    /// §3.1's 12 h republish cycle at the cell's scaled interval.
    reprovide: VecDeque<(SimTime, u32, u64)>,
    /// Walk slab; slots are recycled, `gen` guards stale events.
    walks: Vec<Walk>,
    free_walks: Vec<u32>,
    /// FNV-1a chain over this region's dispatch order `(at, key)`.
    order_fnv: u64,
    /// Flight recorder: the last [`RING_CAP`](crate::obs::dtrace::RING_CAP) walk-completion span
    /// fragments dispatched in this region. Fixed capacity, `Copy`
    /// payloads, shard-invariant ids — recording never allocates in
    /// steady state and never perturbs event order.
    flight: FlightRing,
    /// Tick rounds completed.
    round: u64,
}

impl RegionState {
    fn new(start: u32, count: u32) -> RegionState {
        let n = count as usize;
        RegionState {
            start,
            count,
            online: vec![true; n],
            conn: vec![NONE32; n * CONN_SLOTS],
            conn_cur: vec![0; n],
            addr: vec![NONE32; n * ADDR_SLOTS],
            addr_cur: vec![0; n],
            providers: HashMap::new(),
            expiry: VecDeque::new(),
            reprovide: VecDeque::new(),
            walks: Vec::new(),
            free_walks: Vec::new(),
            order_fnv: FNV_BASIS,
            flight: FlightRing::default(),
            round: 0,
        }
    }

    /// Records one walk-completion fragment into the flight ring. Every
    /// completion dispatches in the walk's home region, so the record
    /// order (and thus the ring contents) is identical at any shard
    /// count.
    #[allow(clippy::too_many_arguments)]
    fn record_flight(
        &mut self,
        tkey: u64,
        node: u32,
        peer: u32,
        detail: &'static str,
        rpcs: u8,
        t0: SimTime,
        at: SimTime,
    ) {
        let seq = self.flight.take_seq();
        self.flight.push(SpanFragment {
            trace_id: tkey,
            span_id: fragment_span(tkey, node as usize, seq),
            parent: tkey,
            node,
            peer,
            label: "walk",
            detail,
            a: at.since(t0).as_nanos(),
            b: rpcs as u64,
            start: t0,
            end: at,
            seq,
        });
    }

    /// Whether `peer` is in node `local`'s ring (warm conn or addr book).
    fn ring_contains(ring: &[u32], local: usize, slots: usize, peer: u32) -> bool {
        ring[local * slots..(local + 1) * slots].contains(&peer)
    }

    /// Round-robin overwrite insert into a ring; no-op if present.
    fn ring_insert(ring: &mut [u32], cur: &mut [u8], local: usize, slots: usize, peer: u32) {
        if Self::ring_contains(ring, local, slots, peer) {
            return;
        }
        let c = cur[local] as usize;
        ring[local * slots + c] = peer;
        cur[local] = ((c + 1) % slots) as u8;
    }

    /// Logical bytes of this region's mutable arrays.
    fn bytes(&self) -> u64 {
        (self.online.len()
            + self.conn.len() * 4
            + self.conn_cur.len()
            + self.addr.len() * 4
            + self.addr_cur.len()
            + self.providers.len() * std::mem::size_of::<((u32, u64), (u32, SimTime))>()
            + (self.expiry.len() + self.reprovide.len())
                * std::mem::size_of::<(SimTime, u32, u64)>()
            + self.walks.len() * std::mem::size_of::<Walk>()) as u64
    }
}

/// Per-shard handler state: the owned regions plus metric counters.
struct ShardState {
    regions: Vec<Option<RegionState>>,
    counters: [u64; CTR_COUNT],
}

// ---------------------------------------------------------------------
// Config / result
// ---------------------------------------------------------------------

/// Parameters of a sharded cell run.
#[derive(Clone, Debug)]
pub struct ShardSimConfig {
    /// World size (nodes across all regions).
    pub nodes: usize,
    /// Region shards (1 = exact serial path). Clamped to `1..=10` by
    /// [`ShardSim::build`].
    pub shards: usize,
    /// Worker-thread override (`None` = `min(shards, cores)`). Never
    /// affects results.
    pub workers: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Virtual run length.
    pub duration: SimDuration,
    /// Workload pulse interval per region.
    pub tick: SimDuration,
    /// Publish/retrieve ops started per region per tick.
    pub ops_per_tick: u32,
    /// Per-tick probability that any given node toggles on/offline.
    pub churn_prob: f64,
    /// Fraction of nodes behind NATs (non-servers), §4.1's 45.5 %.
    pub nat_fraction: f64,
    /// Provider-record lifetime — §3.1's 24 h expiry scaled to the
    /// cell's seconds-long runs. Records older than this drop at the
    /// replica's next tick (O(expired) queue pop).
    pub provider_expiry: SimDuration,
    /// Republish interval — §3.1's 12 h cycle, same scaling. Every
    /// completed publish arms a reprovide entry that re-walks here.
    pub provider_republish: SimDuration,
    /// Scripted faults (partition windows are honored; other fault
    /// kinds are netsim-only and ignored here).
    pub faults: FaultPlan,
}

impl Default for ShardSimConfig {
    fn default() -> Self {
        ShardSimConfig {
            nodes: 10_000,
            shards: 1,
            workers: None,
            seed: 2022,
            duration: SimDuration::from_secs(60),
            tick: SimDuration::from_millis(200),
            ops_per_tick: 8,
            churn_prob: 0.0005,
            nat_fraction: 0.455,
            provider_expiry: SimDuration::from_secs(30),
            provider_republish: SimDuration::from_secs(12),
            faults: FaultPlan::new(),
        }
    }
}

/// What a sharded cell run produced. Identical for every shard count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSimResult {
    /// Total events dispatched.
    pub events: u64,
    /// Named metric counters, sum-merged across shards.
    pub counters: Vec<(&'static str, u64)>,
    /// FNV-1a fingerprint of the counters (the metrics digest).
    pub metrics_fnv: u64,
    /// FNV-1a fingerprint of the per-region dispatch orders `(at, key)`,
    /// combined in region order — byte-equal iff the serial total order
    /// was reproduced exactly.
    pub order_fnv: u64,
    /// FNV-1a fingerprint of every region's flight-recorder ring
    /// (trace ids, span ids, peers, detail words, timestamps), combined
    /// in region order — byte-equal iff the crash flight recorder
    /// captured the identical causal trail at every shard count.
    pub flight_fnv: u64,
    /// Mean logical bytes of per-node state (arenas + rings + slabs).
    pub bytes_per_node: u64,
}

impl ShardSimResult {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }
}

// ---------------------------------------------------------------------
// The cell
// ---------------------------------------------------------------------

/// A built sharded cell, ready to run. Construction (world generation,
/// routing arenas) is separated from [`ShardSim::run`] so benchmarks can
/// time pure event dispatch.
pub struct ShardSim {
    world: World,
    engine: ShardedEngine<Ev>,
    states: Vec<ShardState>,
    deadline: SimTime,
}

impl ShardSim {
    /// Builds the world: region-major renumbered population, key space,
    /// routing arenas, partition windows, and the seeded region ticks.
    pub fn build(cfg: &ShardSimConfig) -> ShardSim {
        assert!(cfg.nodes >= 2, "cell needs at least two nodes");
        let shards = cfg.shards.clamp(1, Region::COUNT);
        let pop = LeanPopulation::generate(cfg.nodes, cfg.nat_fraction, cfg.seed);

        // Region-major renumbering: count, prefix-sum, then stable-place
        // every original index into its region's range.
        let mut counts = [0u32; Region::COUNT];
        for &r in &pop.region {
            counts[r as usize] += 1;
        }
        let mut start = [0u32; Region::COUNT + 1];
        for r in 0..Region::COUNT {
            start[r + 1] = start[r] + counts[r];
        }
        let mut cursor = start;
        let n = cfg.nodes;
        let mut keys = vec![0u64; n];
        let mut server = vec![false; n];
        for orig in 0..n {
            let r = pop.region[orig] as usize;
            let new = cursor[r];
            cursor[r] += 1;
            keys[new as usize] = splitmix64(cfg.seed ^ 0x6b65_7900 ^ new as u64);
            server[new as usize] = pop.server[orig];
        }

        // Servers sorted by key: the numeric oracle the routing build
        // windows over to find XOR-near entries.
        let mut by_key: Vec<u32> = (0..n as u32).filter(|&i| server[i as usize]).collect();
        by_key.sort_unstable_by_key(|&i| keys[i as usize]);
        assert!(by_key.len() >= ROUTE_NEAR, "too few DHT servers for routing tables");

        let mut routing = vec![NONE32; n * ROUTE_PER_NODE];
        let mut near: Vec<(u64, u32)> = Vec::with_capacity(2 * NEAR_WINDOW);
        for i in 0..n as u32 {
            let key = keys[i as usize];
            let pos = by_key.partition_point(|&s| keys[s as usize] < key);
            let lo = pos.saturating_sub(NEAR_WINDOW);
            let hi = (pos + NEAR_WINDOW).min(by_key.len());
            near.clear();
            near.extend(
                by_key[lo..hi].iter().filter(|&&s| s != i).map(|&s| (keys[s as usize] ^ key, s)),
            );
            near.sort_unstable();
            let row = &mut routing[i as usize * ROUTE_PER_NODE..(i as usize + 1) * ROUTE_PER_NODE];
            for (slot, &(_, s)) in near.iter().take(ROUTE_NEAR).enumerate() {
                row[slot] = s;
            }
            let mut rng = StdRng::seed_from_u64(splitmix64(cfg.seed ^ 0x726f_7500 ^ i as u64));
            for slot in row.iter_mut().take(ROUTE_PER_NODE).skip(ROUTE_NEAR) {
                let s = by_key[rng.random_range(0..by_key.len())];
                if s != i {
                    *slot = s;
                }
            }
        }

        // Compile partition windows; other fault kinds are out of scope
        // for the lean cell.
        let mut open: HashMap<u32, (u64, u16)> = HashMap::new();
        let mut partitions = Vec::new();
        for (at, ev) in cfg.faults.clone().into_timeline() {
            match ev {
                FaultEvent::PartitionStart { id, regions } => {
                    let mask = regions.iter().fold(0u16, |m, r| m | 1 << r.index());
                    open.insert(id, (at.as_nanos(), mask));
                }
                FaultEvent::PartitionEnd { id } => {
                    if let Some((s, mask)) = open.remove(&id) {
                        partitions.push((s, at.as_nanos(), mask));
                    }
                }
                _ => {}
            }
        }
        let mut leftovers: Vec<_> =
            open.into_values().map(|(s, mask)| (s, u64::MAX, mask)).collect();
        leftovers.sort_unstable();
        partitions.extend(leftovers);

        let mut churn_toggles = [0u32; Region::COUNT];
        for r in 0..Region::COUNT {
            churn_toggles[r] = (counts[r] as f64 * cfg.churn_prob).round() as u32;
        }
        let active_regions: Vec<u8> =
            (0..Region::COUNT as u8).filter(|&r| counts[r as usize] > 0).collect();

        let latency = LatencyModel::default();
        let lookahead = latency.cross_region_lookahead();
        let mut engine = ShardedEngine::new(Region::COUNT, shards, lookahead, cfg.seed);
        if let Some(w) = cfg.workers {
            engine.set_workers(w);
        }

        let states = (0..shards)
            .map(|s| ShardState {
                regions: (0..Region::COUNT)
                    .map(|r| (r % shards == s).then(|| RegionState::new(start[r], counts[r])))
                    .collect(),
                counters: [0; CTR_COUNT],
            })
            .collect();

        // Stagger the region pulses so they do not all land at the same
        // instant; seed order (region order) is part of the input.
        for &r in &active_regions {
            let offset = SimDuration::from_nanos(
                cfg.tick.as_nanos() * (r as u64 + 1) / Region::COUNT as u64,
            );
            engine.seed_event(SimTime::ZERO + offset, Ev::Tick { region: r });
        }

        let world = World {
            seed: cfg.seed,
            latency,
            tick: cfg.tick,
            ops_per_tick: cfg.ops_per_tick,
            churn_toggles,
            start,
            active_regions,
            keys,
            server,
            routing,
            partitions,
            provider_expiry: cfg.provider_expiry,
            provider_republish: cfg.provider_republish,
        };
        ShardSim { world, engine, states, deadline: SimTime::ZERO + cfg.duration }
    }

    /// Number of shards the cell was built with.
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// Runs the cell to its configured deadline and collects the result.
    pub fn run(&mut self) -> ShardSimResult {
        let world = &self.world;
        let events = self.engine.run_until(self.deadline, &mut self.states, &|st, ctx, at, ev| {
            handle(world, st, ctx, at, ev);
        });

        let mut counters = [0u64; CTR_COUNT];
        for st in &self.states {
            for (acc, v) in counters.iter_mut().zip(st.counters.iter()) {
                *acc += v;
            }
        }
        let metrics_fnv = counters.iter().fold(FNV_BASIS, |h, &v| fnv_u64(h, v));

        let shards = self.engine.shards();
        let mut order_fnv = FNV_BASIS;
        let mut flight_fnv = FNV_BASIS;
        let mut state_bytes = 0u64;
        for r in 0..Region::COUNT {
            if let Some(rs) = &self.states[r % shards].regions[r] {
                order_fnv = fnv_u64(order_fnv, rs.order_fnv);
                for f in rs.flight.iter() {
                    for v in [
                        f.trace_id,
                        f.span_id,
                        f.peer as u64,
                        f.a,
                        f.b,
                        f.start.as_nanos(),
                        f.end.as_nanos(),
                    ] {
                        flight_fnv = fnv_u64(flight_fnv, v);
                    }
                }
                state_bytes += rs.bytes();
            }
        }
        let bytes_per_node = (world.static_bytes() + state_bytes) / world.keys.len().max(1) as u64;

        ShardSimResult {
            events: self.engine.events_dispatched().max(events),
            counters: CTR_NAMES.iter().copied().zip(counters).collect(),
            metrics_fnv,
            order_fnv,
            flight_fnv,
            bytes_per_node,
        }
    }
}

// ---------------------------------------------------------------------
// Event handler
// ---------------------------------------------------------------------

/// Dispatches one event in its region. All state it mutates lives in
/// that region's [`RegionState`] (plus the shard-local counters).
fn handle(world: &World, st: &mut ShardState, ctx: &mut ShardCtx<'_, Ev>, at: SimTime, ev: Ev) {
    let region = ctx.region();
    let counters = &mut st.counters;
    let rs = st.regions[region].as_mut().expect("event delivered to unowned region");
    rs.order_fnv = fnv_u64(fnv_u64(rs.order_fnv, at.as_nanos()), ctx.event_key());

    match ev {
        Ev::Tick { region: r } => {
            counters[Ctr::Ticks as usize] += 1;
            rs.round += 1;
            let round = rs.round;

            for _ in 0..world.churn_toggles[region] {
                let local = ctx.rng().random_range(0..rs.count as usize);
                let on = !rs.online[local];
                rs.online[local] = on;
                counters[if on { Ctr::ChurnOn } else { Ctr::ChurnOff } as usize] += 1;
            }

            // Record expiry: pop only the due prefix (deadlines are
            // nondecreasing), validate lazily against the live record —
            // a refreshed record has a newer `stored_at` and survives.
            while rs.expiry.front().is_some_and(|&(d, ..)| d <= at) {
                let (_, to, cid) = rs.expiry.pop_front().unwrap();
                if let Some(&(_, stored)) = rs.providers.get(&(to, cid)) {
                    if stored + world.provider_expiry <= at {
                        rs.providers.remove(&(to, cid));
                        counters[Ctr::ProviderExpired as usize] += 1;
                    }
                }
            }

            // Reprovide sweep: re-walk every due publication whose
            // publisher is online; defer a full interval otherwise (the
            // constant offset keeps the queue's deadlines nondecreasing).
            while rs.reprovide.front().is_some_and(|&(d, ..)| d <= at) {
                let (_, node, cid) = rs.reprovide.pop_front().unwrap();
                let local = (node - rs.start) as usize;
                if rs.online[local] {
                    counters[Ctr::SweepRepublish as usize] += 1;
                    start_walk(world, rs, counters, ctx, at, node, cid, true);
                } else {
                    counters[Ctr::SweepDeferred as usize] += 1;
                    rs.reprovide.push_back((at + world.provider_republish, node, cid));
                }
            }

            for i in 0..world.ops_per_tick {
                let local = ctx.rng().random_range(0..rs.count as usize);
                if !rs.online[local] {
                    continue;
                }
                let node = rs.start + local as u32;
                if ctx.rng().random_bool(0.5) {
                    counters[Ctr::PublishStart as usize] += 1;
                    let cid = cid_of(world.seed, region, round, i);
                    start_walk(world, rs, counters, ctx, at, node, cid, true);
                } else {
                    counters[Ctr::RetrieveStart as usize] += 1;
                    let src = world.active_regions
                        [ctx.rng().random_range(0..world.active_regions.len())]
                        as usize;
                    let round2 = ctx.rng().random_range(1..=round);
                    let i2 = ctx.rng().random_range(0..world.ops_per_tick);
                    let cid = cid_of(world.seed, src, round2, i2);
                    start_walk(world, rs, counters, ctx, at, node, cid, false);
                }
            }

            ctx.schedule(world.tick, Ev::Tick { region: r });
        }

        Ev::Rpc { kind, to, walker, wregion, slot, gen, rpc_no, target, .. } => {
            let local = (to - rs.start) as usize;
            if !rs.online[local] {
                counters[Ctr::RpcOffline as usize] += 1;
                return;
            }
            // The reply leaves *now*; a partition active at this instant
            // cuts it (the walker's timeout covers the loss).
            if world.blocked(at, region, wregion as usize) {
                counters[Ctr::RpcBlocked as usize] += 1;
                return;
            }
            let mut found = [NONE32; REPLY_MAX];
            match kind {
                KIND_LOOKUP => {
                    // Up to REPLY_MAX routing entries closest to target.
                    let row = &world.routing
                        [to as usize * ROUTE_PER_NODE..(to as usize + 1) * ROUTE_PER_NODE];
                    let mut best: [(u64, u32); REPLY_MAX] = [(u64::MAX, NONE32); REPLY_MAX];
                    for &e in row {
                        if e == NONE32 || e == walker {
                            continue;
                        }
                        let d = world.keys[e as usize] ^ target;
                        if d < best[REPLY_MAX - 1].0 && !best.contains(&(d, e)) {
                            best[REPLY_MAX - 1] = (d, e);
                            best.sort_unstable();
                        }
                    }
                    for (f, &(_, e)) in found.iter_mut().zip(best.iter()) {
                        *f = e;
                    }
                }
                KIND_GETPROV => {
                    found[0] = rs.providers.get(&(to, target)).map_or(NONE32, |&(p, _)| p);
                }
                _ => {} // KIND_FETCH: the reply itself is the payload.
            }
            let delay = world.latency.sample_one_way_floored(
                ctx.rng(),
                Region::from_index(region),
                Region::from_index(wregion as usize),
            );
            ctx.schedule(
                delay,
                Ev::Reply { region: wregion, kind, slot, gen, rpc_no, from: to, found },
            );
        }

        Ev::Reply { kind, slot, gen, rpc_no, from, found, .. } => {
            let w = &mut rs.walks[slot as usize];
            if w.gen != gen || w.open & (1 << rpc_no) == 0 {
                return; // stale, or the timeout won the race
            }
            w.open &= !(1 << rpc_no);
            counters[Ctr::RpcReply as usize] += 1;
            match kind {
                KIND_LOOKUP => {
                    let d = world.keys[from as usize] ^ w.target;
                    w.done += 1;
                    w.best_done = w.best_done.min(d);
                    // Track the replica set (closest replied peers).
                    if (w.closest_len as usize) < REPLICAS {
                        w.closest[w.closest_len as usize] = (d, from);
                        w.closest_len += 1;
                        w.closest[..w.closest_len as usize].sort_unstable();
                    } else if d < w.closest[REPLICAS - 1].0 {
                        w.closest[REPLICAS - 1] = (d, from);
                        w.closest.sort_unstable();
                    }
                    for &f in found.iter().filter(|&&f| f != NONE32) {
                        insert_candidate(w, world.keys[f as usize] ^ w.target, f);
                    }
                    walk_step(world, rs, counters, ctx, at, slot);
                }
                KIND_GETPROV => {
                    let provider = found[0];
                    if provider == NONE32 {
                        counters[Ctr::RetrieveMiss as usize] += 1;
                        let (tkey, node, t0, rpcs) = (w.tkey, w.node, w.t0, w.rpc_no);
                        rs.record_flight(tkey, node, from, "retrieve_miss", rpcs, t0, at);
                        free_walk(rs, slot);
                        return;
                    }
                    start_fetch(world, rs, counters, ctx, at, slot, provider);
                }
                _ => {
                    // KIND_FETCH: content verified, retrieval complete.
                    let (node, t0) = (w.node, w.t0);
                    let (tkey, rpcs) = (w.tkey, w.rpc_no);
                    counters[Ctr::RetrieveDone as usize] += 1;
                    counters[Ctr::RetrieveNanos as usize] += at.since(t0).as_nanos();
                    let local = (node - rs.start) as usize;
                    RegionState::ring_insert(
                        &mut rs.conn,
                        &mut rs.conn_cur,
                        local,
                        CONN_SLOTS,
                        from,
                    );
                    RegionState::ring_insert(
                        &mut rs.addr,
                        &mut rs.addr_cur,
                        local,
                        ADDR_SLOTS,
                        from,
                    );
                    rs.record_flight(tkey, node, from, "retrieve_done", rpcs, t0, at);
                    free_walk(rs, slot);
                }
            }
        }

        Ev::Timeout { slot, gen, rpc_no, .. } => {
            let w = &mut rs.walks[slot as usize];
            if w.gen != gen || w.open & (1 << rpc_no) == 0 {
                return; // the reply already arrived
            }
            w.open &= !(1 << rpc_no);
            counters[Ctr::RpcTimeout as usize] += 1;
            if w.phase == 0 {
                walk_step(world, rs, counters, ctx, at, slot);
            } else {
                counters[Ctr::RetrieveMiss as usize] += 1;
                let (tkey, node, t0, rpcs) = (w.tkey, w.node, w.t0, w.rpc_no);
                rs.record_flight(tkey, node, NO_PEER, "retrieve_miss", rpcs, t0, at);
                free_walk(rs, slot);
            }
        }

        Ev::Store { to, cid, provider, .. } => {
            counters[Ctr::ProviderStore as usize] += 1;
            rs.providers.insert((to, cid), (provider, at));
            rs.expiry.push_back((at + world.provider_expiry, to, cid));
        }
    }
}

/// Allocates a walk slot, seeds candidates from the walker's own routing
/// arena, and issues the first α lookups.
#[allow(clippy::too_many_arguments)]
fn start_walk(
    world: &World,
    rs: &mut RegionState,
    counters: &mut [u64; CTR_COUNT],
    ctx: &mut ShardCtx<'_, Ev>,
    at: SimTime,
    node: u32,
    target: u64,
    publish: bool,
) {
    let slot = match rs.free_walks.pop() {
        Some(s) => s,
        None => {
            rs.walks.push(Walk {
                gen: 0,
                node: 0,
                target: 0,
                t0: SimTime::ZERO,
                tkey: 0,
                publish: false,
                phase: 0,
                rpc_no: 0,
                open: 0,
                done: 0,
                best_done: 0,
                cand: [(0, 0); CAND],
                cand_len: 0,
                closest: [(0, 0); REPLICAS],
                closest_len: 0,
                seen: [0; MAX_RPCS],
                seen_len: 0,
            });
            (rs.walks.len() - 1) as u32
        }
    };
    let w = &mut rs.walks[slot as usize];
    w.node = node;
    w.target = target;
    w.t0 = at;
    // One tick starts several walks; mix node+target into the event's
    // trace key so each walk gets a distinct, shard-invariant trace id.
    w.tkey = splitmix64(ctx.trace_key() ^ ((node as u64) << 32) ^ target) | 1;
    w.publish = publish;
    w.phase = 0;
    w.rpc_no = 0;
    w.open = 0;
    w.done = 0;
    w.best_done = u64::MAX;
    w.cand_len = 0;
    w.closest_len = 0;
    w.seen_len = 0;
    let row = &world.routing[node as usize * ROUTE_PER_NODE..(node as usize + 1) * ROUTE_PER_NODE];
    for &e in row {
        if e != NONE32 {
            let d = world.keys[e as usize] ^ target;
            insert_candidate(&mut rs.walks[slot as usize], d, e);
        }
    }
    walk_step(world, rs, counters, ctx, at, slot);
}

/// Inserts an unqueried candidate, deduped against the candidate window
/// and the queried set; keeps the window sorted by `(distance, id)`.
fn insert_candidate(w: &mut Walk, d: u64, peer: u32) {
    if peer == w.node
        || w.seen[..w.seen_len as usize].contains(&peer)
        || w.cand[..w.cand_len as usize].iter().any(|&(_, p)| p == peer)
    {
        return;
    }
    if (w.cand_len as usize) < CAND {
        w.cand[w.cand_len as usize] = (d, peer);
        w.cand_len += 1;
        w.cand[..w.cand_len as usize].sort_unstable();
    } else if d < w.cand[CAND - 1].0 {
        w.cand[CAND - 1] = (d, peer);
        w.cand.sort_unstable();
    }
}

/// Keeps up to α lookups in flight while progress is possible; finishes
/// the lookup phase once the walk has quiesced (converged, exhausted, or
/// out of budget).
fn walk_step(
    world: &World,
    rs: &mut RegionState,
    counters: &mut [u64; CTR_COUNT],
    ctx: &mut ShardCtx<'_, Ev>,
    at: SimTime,
    slot: u32,
) {
    loop {
        let w = &mut rs.walks[slot as usize];
        if w.open.count_ones() >= ALPHA
            || (w.rpc_no as usize) >= MAX_RPCS
            || w.cand_len == 0
            || (w.done >= 3 && w.cand[0].0 >= w.best_done)
        {
            break;
        }
        // Pop the closest candidate and query it.
        let (_, peer) = w.cand[0];
        w.cand.copy_within(1..w.cand_len as usize, 0);
        w.cand_len -= 1;
        w.seen[w.seen_len as usize] = peer;
        w.seen_len += 1;
        let rpc_no = w.rpc_no;
        w.rpc_no += 1;
        w.open |= 1 << rpc_no;
        let (walker, target, gen) = (w.node, w.target, w.gen);
        send_rpc(world, counters, ctx, at, KIND_LOOKUP, walker, peer, slot, gen, rpc_no, target);
    }
    let w = &rs.walks[slot as usize];
    if w.open == 0 && w.phase == 0 {
        finish_lookup(world, rs, counters, ctx, at, slot);
    }
}

/// Sends one RPC: always arms the walker-side timeout, then delivers the
/// request unless the link is partitioned at this exact instant.
#[allow(clippy::too_many_arguments)]
fn send_rpc(
    world: &World,
    counters: &mut [u64; CTR_COUNT],
    ctx: &mut ShardCtx<'_, Ev>,
    at: SimTime,
    kind: u8,
    walker: u32,
    to: u32,
    slot: u32,
    gen: u32,
    rpc_no: u8,
    target: u64,
) {
    counters[Ctr::RpcSent as usize] += 1;
    let wregion = ctx.region() as u8;
    ctx.schedule_at(at + RPC_TIMEOUT, Ev::Timeout { region: wregion, slot, gen, rpc_no });
    let dst = world.region_of(to);
    if world.blocked(at, wregion as usize, dst) {
        counters[Ctr::RpcBlocked as usize] += 1;
        return;
    }
    let delay = world.latency.sample_one_way_floored(
        ctx.rng(),
        Region::from_index(wregion as usize),
        Region::from_index(dst),
    );
    ctx.schedule(
        delay,
        Ev::Rpc { region: dst as u8, kind, to, walker, wregion, slot, gen, rpc_no, target },
    );
}

/// The lookup phase quiesced: publishers replicate their provider
/// record to the closest replied peers; retrievers ask the closest one
/// for providers.
fn finish_lookup(
    world: &World,
    rs: &mut RegionState,
    counters: &mut [u64; CTR_COUNT],
    ctx: &mut ShardCtx<'_, Ev>,
    at: SimTime,
    slot: u32,
) {
    let w = &rs.walks[slot as usize];
    let (node, target, t0, publish) = (w.node, w.target, w.t0, w.publish);
    let (tkey, rpcs) = (w.tkey, w.rpc_no);
    let closest: Vec<u32> = w.closest[..w.closest_len as usize].iter().map(|&(_, p)| p).collect();
    if publish {
        let wregion = ctx.region();
        for &peer in &closest {
            let dst = world.region_of(peer);
            if world.blocked(at, wregion, dst) {
                counters[Ctr::RpcBlocked as usize] += 1;
                continue;
            }
            let delay = world.latency.sample_one_way_floored(
                ctx.rng(),
                Region::from_index(wregion),
                Region::from_index(dst),
            );
            ctx.schedule(
                delay,
                Ev::Store { region: dst as u8, to: peer, cid: target, provider: node },
            );
        }
        counters[Ctr::PublishDone as usize] += 1;
        counters[Ctr::PublishNanos as usize] += at.since(t0).as_nanos();
        // Arm the reprovide chain: the next sweep tick past this
        // deadline re-walks the publication (completion re-arms again,
        // so the chain outlives any single record's 24 h expiry).
        rs.reprovide.push_back((at + world.provider_republish, node, target));
        rs.record_flight(tkey, node, NO_PEER, "publish_done", rpcs, t0, at);
        free_walk(rs, slot);
        return;
    }
    match closest.first() {
        None => {
            counters[Ctr::RetrieveMiss as usize] += 1;
            rs.record_flight(tkey, node, NO_PEER, "retrieve_miss", rpcs, t0, at);
            free_walk(rs, slot);
        }
        Some(&peer) => {
            let w = &mut rs.walks[slot as usize];
            w.phase = 1;
            let rpc_no = w.rpc_no;
            w.rpc_no += 1;
            w.open |= 1 << rpc_no;
            let gen = w.gen;
            send_rpc(world, counters, ctx, at, KIND_GETPROV, node, peer, slot, gen, rpc_no, target);
        }
    }
}

/// A provider was found: resolve its address (book hit skips the second
/// walk, §3.2), dial (warm connections skip the handshake), and fetch.
fn start_fetch(
    world: &World,
    rs: &mut RegionState,
    counters: &mut [u64; CTR_COUNT],
    ctx: &mut ShardCtx<'_, Ev>,
    at: SimTime,
    slot: u32,
    provider: u32,
) {
    let w = &rs.walks[slot as usize];
    let (node, gen) = (w.node, w.gen);
    let local = (node - rs.start) as usize;
    let wregion = ctx.region();
    let dst = world.region_of(provider);
    let one_way = |rng: &mut StdRng| {
        world.latency.sample_one_way_floored(
            rng,
            Region::from_index(wregion),
            Region::from_index(dst),
        )
    };
    // Address resolution: a book hit costs nothing; a miss pays a second
    // DHT walk, modeled as two extra round trips.
    let mut extra = SimDuration::ZERO;
    if RegionState::ring_contains(&rs.addr, local, ADDR_SLOTS, provider) {
        counters[Ctr::AddrHit as usize] += 1;
    } else {
        counters[Ctr::AddrMiss as usize] += 1;
        for _ in 0..4 {
            extra += one_way(ctx.rng());
        }
    }
    // Dialing: a warm connection skips the handshake round trip.
    if RegionState::ring_contains(&rs.conn, local, CONN_SLOTS, provider) {
        counters[Ctr::DialWarm as usize] += 1;
    } else {
        counters[Ctr::DialCold as usize] += 1;
        extra = extra + one_way(ctx.rng()) + one_way(ctx.rng());
    }
    let w = &mut rs.walks[slot as usize];
    w.phase = 2;
    let rpc_no = w.rpc_no;
    w.rpc_no += 1;
    w.open |= 1 << rpc_no;
    counters[Ctr::RpcSent as usize] += 1;
    ctx.schedule_at(
        at + extra + RPC_TIMEOUT,
        Ev::Timeout { region: wregion as u8, slot, gen, rpc_no },
    );
    if world.blocked(at, wregion, dst) {
        counters[Ctr::RpcBlocked as usize] += 1;
        return;
    }
    let delay = extra + one_way(ctx.rng());
    ctx.schedule(
        delay,
        Ev::Rpc {
            region: dst as u8,
            kind: KIND_FETCH,
            to: provider,
            walker: node,
            wregion: wregion as u8,
            slot,
            gen,
            rpc_no,
            target: 0,
        },
    );
}

/// Retires a walk slot: bump the generation (stale replies and timeouts
/// check it) and recycle.
fn free_walk(rs: &mut RegionState, slot: u32) {
    rs.walks[slot as usize].gen = rs.walks[slot as usize].gen.wrapping_add(1);
    rs.free_walks.push(slot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_cfg(nodes: usize, secs: u64, shards: usize, seed: u64) -> ShardSimConfig {
        ShardSimConfig {
            nodes,
            shards,
            seed,
            duration: SimDuration::from_secs(secs),
            tick: SimDuration::from_millis(200),
            ops_per_tick: 3,
            ..ShardSimConfig::default()
        }
    }

    fn run(cfg: &ShardSimConfig) -> ShardSimResult {
        ShardSim::build(cfg).run()
    }

    #[test]
    fn event_stays_small() {
        assert!(std::mem::size_of::<Ev>() <= 80, "Ev grew past the NetEvent bound");
    }

    #[test]
    fn cell_produces_work() {
        let r = run(&small_cfg(1500, 20, 1, 7));
        assert!(r.events > 1000, "events: {}", r.events);
        assert!(r.counter("publish_done") > 0);
        assert!(r.counter("retrieve_done") > 0, "no retrieval ever completed");
        assert!(r.counter("provider_store") > 0);
        assert!(r.counter("rpc_reply") > r.counter("rpc_timeout"));
        assert!(r.bytes_per_node > 100 && r.bytes_per_node < 2000, "{}", r.bytes_per_node);
    }

    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let serial = run(&small_cfg(1200, 15, 1, 42));
        for shards in [2, 3, 6] {
            let sharded = run(&small_cfg(1200, 15, shards, 42));
            assert_eq!(sharded, serial, "shards={shards} diverged");
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut cfg = small_cfg(1000, 10, 6, 9);
        cfg.workers = Some(1);
        let one = run(&cfg);
        cfg.workers = Some(3);
        assert_eq!(run(&cfg), one);
    }

    #[test]
    fn partition_boundary_mid_window_stays_deterministic() {
        // Lookahead is 6.25 ms; place both partition edges strictly
        // inside PDES windows (not multiples of the lookahead) and let it
        // sever two busy regions. Shard counts must still agree bit for
        // bit, and the partition must actually cut traffic.
        let mut cfg = small_cfg(1500, 20, 1, 11);
        cfg.faults.partition(
            SimTime::ZERO + SimDuration::from_nanos(4_003_117_001),
            SimDuration::from_nanos(7_000_000_999),
            vec![Region::EuropeCentral, Region::EastAsia],
        );
        let serial = run(&cfg);
        assert!(serial.counter("rpc_blocked") > 0, "partition never bit");
        for shards in [2, 3, 6] {
            cfg.shards = shards;
            assert_eq!(run(&cfg), serial, "shards={shards} diverged under faults");
        }
    }

    #[test]
    fn churn_toggles_nodes_and_stays_deterministic() {
        let mut cfg = small_cfg(1500, 15, 1, 5);
        cfg.churn_prob = 0.01;
        let serial = run(&cfg);
        assert!(serial.counter("churn_off") > 0);
        cfg.shards = 6;
        assert_eq!(run(&cfg), serial);
    }

    #[test]
    fn flight_recorder_captures_walk_completions_identically_across_shards() {
        let serial = run(&small_cfg(1200, 15, 1, 42));
        assert_ne!(serial.flight_fnv, FNV_BASIS, "flight rings stayed empty");
        for shards in [2, 6] {
            let sharded = run(&small_cfg(1200, 15, shards, 42));
            assert_eq!(sharded.flight_fnv, serial.flight_fnv, "shards={shards} flight diverged");
        }
    }

    #[test]
    fn provider_lifecycle_runs_and_stays_shard_invariant() {
        // Fast-forward lifecycle: 2 s republish / 5 s expiry over a 20 s
        // run means every publication re-walks several times and
        // unrefreshed records age out — and the whole lifecycle (expiry
        // pops, sweep re-walks, deferrals under churn) must land in the
        // shared metrics/order fingerprints identically at every shard
        // count.
        let mut cfg = small_cfg(1500, 20, 1, 31);
        cfg.provider_republish = SimDuration::from_secs(2);
        cfg.provider_expiry = SimDuration::from_secs(5);
        cfg.churn_prob = 0.01;
        let serial = run(&cfg);
        assert!(serial.counter("sweep_republish") > 0, "no reprovide sweep ran");
        assert!(serial.counter("provider_expired") > 0, "no record ever expired");
        assert!(serial.counter("sweep_deferred") > 0, "churn never parked a reprovide");
        // Refresh keeps the store bounded: stores outnumber expiries.
        assert!(serial.counter("provider_store") > serial.counter("provider_expired"));
        for shards in [2, 6] {
            cfg.shards = shards;
            assert_eq!(run(&cfg), serial, "shards={shards} diverged with lifecycle on");
        }
    }

    #[test]
    fn rerun_is_reproducible() {
        let cfg = small_cfg(1000, 10, 3, 123);
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn seeds_change_the_fingerprints() {
        let a = run(&small_cfg(1000, 10, 1, 1));
        let b = run(&small_cfg(1000, 10, 1, 2));
        assert_ne!(a.order_fnv, b.order_fnv);
        assert_ne!(a.metrics_fnv, b.metrics_fnv);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The tentpole guarantee at the workload level: shards ∈ {2,3,6}
        /// reproduce the serial (shards=1) order and metrics fingerprints
        /// for random seeds and op mixes.
        #[test]
        fn shard_count_invariance(seed in 0u64..1_000_000, ops in 1u32..5) {
            let mut cfg = small_cfg(800, 8, 1, seed);
            cfg.ops_per_tick = ops;
            let serial = run(&cfg);
            for shards in [2usize, 3, 6] {
                cfg.shards = shards;
                let r = run(&cfg);
                prop_assert_eq!(r.order_fnv, serial.order_fnv, "order diverged");
                prop_assert_eq!(r.metrics_fnv, serial.metrics_fnv, "metrics diverged");
                prop_assert_eq!(r.flight_fnv, serial.flight_fnv, "flight recorder diverged");
                prop_assert_eq!(r.events, serial.events);
                prop_assert_eq!(r.bytes_per_node, serial.bytes_per_node);
            }
        }
    }
}
