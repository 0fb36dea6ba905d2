//! The network simulation driver.
//!
//! Composes every node's sans-io protocol machines with the `simnet`
//! substrate: RPCs and Bitswap messages travel with geo latency and
//! bandwidth costs, dials to NAT'ed/offline peers burn the transport
//! timeouts of §6.1 (5 s TCP/QUIC, 45 s WebSocket), peers churn per their
//! population schedules, and every publish/retrieve produces a
//! phase-timed report ([`crate::ops`]).
//!
//! This module is the substitute for the live IPFS network the paper
//! measures (see DESIGN.md §2): the protocol code above it is identical in
//! structure to what would run on a real transport.

use crate::config::{NodeConfig, TimeoutModel};
use crate::conn::ConnSet;
use crate::ipns::IpnsRecord;
use crate::node::IpfsNode;
use crate::obs::dtrace::{self, DtraceSink, SpanFragment, TraceConfig, TraceCtx};
use crate::obs::span::SpanTree;
use crate::obs::{
    names, CounterHandle, DialClass, HistogramHandle, MetricsRegistry, OpTrace, TraceEventKind,
};
use crate::ops::{
    IpnsPublishReport, IpnsResolveReport, OpId, PublishPhase, PublishReport, RetrievePhase,
    RetrieveReport,
};
use bitswap::{EngineOutput, Message, SessionConfig, SessionHandle};
use bytes::Bytes;
use faultsim::{FaultEvent, FaultOracle, FaultPlan};
use kademlia::behaviour::{DhtMode, DhtOutput, QueryId, QueryStats};
use kademlia::query::{QueryOutcome, QueryTarget};
use kademlia::routing::PeerInfo;
use kademlia::rpc::{Request, Response};
use kademlia::Key;
use merkledag::BlockStore;
use multiformats::{Cid, Keypair, Multiaddr, PeerId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::latency::{BandwidthClass, LatencyModel, Region, VantagePoint};
use simnet::{EventQueue, Population, SimDuration, SimTime, TimerId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Dense node identifier within one simulation.
pub type NodeId = usize;

/// Key-seed base for vantage-node identities, outside the population's
/// seed-derived range.
const VANTAGE_KEY_BASE: u64 = 0xFFFF_0000_0000_0000;

/// Simulation-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Per-node protocol configuration.
    pub node: NodeConfig,
    /// Transport timeout model (drives the Figure 9c spikes).
    pub timeouts: TimeoutModel,
    /// Geo latency/bandwidth model.
    pub latency: LatencyModel,
    /// Server-side request processing time.
    pub server_processing: SimDuration,
    /// Whether provider records carry fresh addresses. go-ipfs v0.10
    /// expires provider addresses quickly, so the paper observed two DHT
    /// walks per retrieval (Figure 9e); `false` reproduces that.
    pub provider_records_carry_addrs: bool,
    /// Whether a successful retriever publishes a provider record itself
    /// (§3.1: retrieving peers become temporary providers).
    pub retriever_becomes_provider: bool,
    /// Ablation (§6.4): launch the DHT walk in parallel with the
    /// opportunistic Bitswap probe instead of waiting out the 1 s timeout.
    pub parallel_dht_and_bitswap: bool,
    /// Oracle-bootstrap: number of numerically-near peers per table.
    pub bootstrap_near_peers: usize,
    /// Oracle-bootstrap: number of random far peers per table.
    pub bootstrap_random_peers: usize,
    /// Republish provider records every 12 h (§3.1).
    pub auto_republish: bool,
    /// Keyspace-ordered reprovide sweep (go-ipfs's accelerated DHT
    /// client): instead of one timer chain and one Closest walk per
    /// published CID, a single per-node sweep timer walks the node's
    /// provided CIDs in DHT-key order, amortizing one FIND_NODE walk
    /// across every CID whose key lands in the same closest-peer
    /// neighborhood and carrying the stores as batched ADD_PROVIDER
    /// RPCs. Only consulted when `auto_republish` is on; `false` keeps
    /// the per-CID chains (the reference path the lifecycle bench and
    /// proptests compare against).
    pub reprovide_sweep: bool,
    /// Keyspace granularity of one sweep batch: provided CIDs are
    /// grouped by the top `reprovide_batch_bits` bits of their DHT key,
    /// one Closest walk per non-empty group. 8 bits ≈ 256 neighborhoods
    /// across the keyspace — coarser (fewer bits) amortizes more CIDs
    /// per walk but targets each store set less precisely.
    pub reprovide_batch_bits: u8,
    /// Ablation (§6.4): disable the DHT client/server split — NAT'ed
    /// clients enter routing tables as if they were servers (pre-v0.5
    /// behaviour), so walks waste time dialing unreachable peers.
    pub clients_in_routing_tables: bool,
    /// Guard timeout for a content fetch.
    pub fetch_timeout: SimDuration,
    /// The opportunistic-Bitswap probe window (§3.2's 1 s timeout before
    /// falling back to the DHT). A knob rather than a constant so the
    /// probe/DHT trade-off is explorable.
    pub bitswap_probe_timeout: SimDuration,
    /// Session duplicate factor: how many peers a live want is raced
    /// across as WANT-BLOCK. 1 fetches each block exactly once (no
    /// redundancy, go-bitswap's default posture); higher trades duplicate
    /// bytes for tail-latency resilience.
    pub duplicate_factor: usize,
    /// How many provider records from the DHT walk seed the fetch swarm
    /// (go-bitswap dials a handful of providers, not just the first).
    pub max_fetch_providers: usize,
    /// Probability that the connection to a walk-discovered peer is gone
    /// by the time the ADD_PROVIDER batch fires, forcing a fresh dial that
    /// fails with a transport timeout. This models what §6.1 observed:
    /// "the spike at 5 s is caused by dial timeouts ... the spike at 45 s
    /// ... by the handshake timeout of the Websocket transport". 53.7 % of
    /// the paper's batches exceeded 5 s, i.e. ≥1 of 20 stores timed out.
    pub stale_dial_prob: f64,
    /// Connection-manager cap: oldest warm connections are pruned beyond
    /// this (go-libp2p's connection manager; its pruning is one reason
    /// publish batches re-dial, §6.1).
    pub max_connections: usize,
    /// Idle-connection expiry: a warm connection unused for longer than
    /// this is torn down before reuse (go-libp2p's connection manager
    /// closes idle connections once past its grace period). Without it,
    /// any node that ever fetched from a provider keeps a warm path to it
    /// forever, letting the opportunistic Bitswap probe short-circuit
    /// retrievals that the paper's pipeline (§3.2) would resolve through
    /// the DHT.
    pub conn_idle_timeout: SimDuration,
    /// Future work the paper flags in §3.1: Direct Connection Upgrade
    /// through Relay (DCUtR) hole punching. When enabled, dials to
    /// NAT'ed-but-online peers succeed with
    /// [`NetworkConfig::dcutr_success_rate`], paying relay-signalling
    /// latency — letting NAT'ed peers host content.
    pub enable_dcutr: bool,
    /// Fraction of hole-punch attempts that succeed (measured deployments
    /// report ~70 %).
    pub dcutr_success_rate: f64,
    /// Hydra boosters (paper §8 future work): extra always-online,
    /// datacenter-hosted DHT heads spread across the keyspace. They join
    /// the network as ordinary servers; their stability accelerates walks
    /// and anchors records.
    pub hydra_heads: usize,
    /// Periodic Kademlia table refresh (go-ipfs refreshes stale buckets
    /// every ~10 min). `None` disables; refresh traffic is modeled as the
    /// oracle self-lookup of [`IpfsNetwork::announce_join`]. Adds one
    /// event per online server per interval — enable for long-horizon
    /// experiments where staleness matters.
    pub table_refresh_interval: Option<SimDuration>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            node: NodeConfig::default(),
            timeouts: TimeoutModel::default(),
            latency: LatencyModel::default(),
            server_processing: SimDuration::from_millis(3),
            provider_records_carry_addrs: false,
            retriever_becomes_provider: false,
            parallel_dht_and_bitswap: false,
            bootstrap_near_peers: 20,
            bootstrap_random_peers: 60,
            auto_republish: false,
            reprovide_sweep: true,
            reprovide_batch_bits: 8,
            clients_in_routing_tables: false,
            fetch_timeout: SimDuration::from_secs(120),
            bitswap_probe_timeout: SimDuration::from_secs(1),
            duplicate_factor: 1,
            max_fetch_providers: 8,
            stale_dial_prob: 0.045,
            max_connections: 900,
            conn_idle_timeout: SimDuration::from_secs(120),
            enable_dcutr: false,
            dcutr_success_rate: 0.7,
            hydra_heads: 0,
            table_refresh_interval: None,
        }
    }
}

/// Lifecycle state of one provided CID on its providing node.
struct ProvidedEntry {
    /// The CID itself (the map key is its DHT key).
    cid: Cid,
    /// Armed per-CID republish timer (per-CID mode only; sweep mode
    /// leaves this `None` — the node-level sweep timer covers it).
    timer: Option<TimerId>,
    /// Per-CID mode: the chain lapsed while the node was offline; the
    /// next rejoin re-announces this CID.
    deferred: bool,
}

/// One simulated node: the IPFS node plus its network-level attributes.
struct SimNode {
    node: IpfsNode,
    region: Region,
    bandwidth: BandwidthClass,
    online: bool,
    is_server: bool,
    /// Warm connections, indexed for O(log n) LRU pruning and O(expired)
    /// idle expiry.
    connections: ConnSet,
    /// Pending bucket-refresh timer. Armed only while the node is online
    /// (cancelled at churn-off, lazily re-armed at rejoin) so offline
    /// nodes contribute zero standing timers to the scheduler.
    refresh_timer: Option<TimerId>,
    /// Every CID this node provides, keyed by DHT key. A `BTreeMap` so
    /// iteration follows keyspace order — deterministic (it feeds
    /// event-scheduling and thus RNG-draw order) and exactly the order
    /// the reprovide sweep batches by. Lookup/removal is O(log n) where
    /// the old `Vec<(Cid, TimerId)>` paid an O(n) position scan per
    /// re-arm and per republish dispatch.
    provided: BTreeMap<Key, ProvidedEntry>,
    /// The single reprovide-sweep timer (sweep mode): one cancellable
    /// timer maintains every provided CID, instead of one chain each.
    sweep_timer: Option<TimerId>,
    /// A sweep lapsed while the node was offline (the timer is cancelled
    /// at churn-off); the next rejoin runs it immediately, mirroring
    /// go-ipfs's reprovide-on-startup sweep.
    sweep_deferred: bool,
    /// When this node's uplink finishes serializing the blocks it has
    /// already committed to send. Concurrent BLOCK transfers from one
    /// sender queue behind each other here (`sample_transfer` prices each
    /// message in isolation), so a swarm's aggregate goodput scales with
    /// the number of uplinks it draws from — the physics the swarm bench
    /// measures. Control messages are negligible and skip the queue, and
    /// an isolated single block sees zero wait, keeping the
    /// single-provider path's timing (and RNG stream) unchanged.
    uplink_free_at: SimTime,
}

/// Events flowing through the simulation.
#[derive(Debug, Clone)]
enum NetEvent {
    /// A DHT query RPC arrives at its target. Carries the sender's causal
    /// context so the server's handler span joins the requester's trace.
    RpcArrive { from: NodeId, to: NodeId, query: QueryId, request: Box<Request>, ctx: TraceCtx },
    /// A DHT response arrives back at the requester.
    RpcResponse { to: NodeId, query: QueryId, from_peer: PeerId, response: Box<Response> },
    /// A query RPC failed (dial timeout / no response within deadline).
    RpcFail { node: NodeId, query: QueryId, peer: PeerId },
    /// A fire-and-forget ADD_PROVIDER arrives at its target (§3.1).
    ProviderStoreArrive { from: NodeId, to: NodeId, key: Key, provider: Arc<PeerInfo> },
    /// One item of a publish RPC batch settled at the publisher.
    ProviderStoreSettled { op: OpId, ok: bool },
    /// A Bitswap message arrives. Carries the causal context of the
    /// session's op; responders echo it back on their replies.
    BitswapArrive { from: NodeId, to: NodeId, message: Box<Message>, ctx: TraceCtx },
    /// The 1 s opportunistic-Bitswap window expired (§3.2).
    BitswapProbeTimeout { op: OpId },
    /// The dial to a content provider completed; start the fetch session.
    FetchConnected { op: OpId, provider: PeerId },
    /// Guard: a fetch that has not completed by now fails.
    FetchTimeout { op: OpId },
    /// A peer's churn schedule moves it on- or offline.
    Churn { node: NodeId, online: bool },
    /// Periodic provider-record republication (§3.1, 12 h).
    Republish { node: NodeId, cid: Cid },
    /// Keyspace-ordered reprovide sweep fires for one node: walk the
    /// provided-CID set in DHT-key order, one Closest walk per key
    /// neighborhood, batched ADD_PROVIDER stores.
    ReprovideSweep { node: NodeId },
    /// A fire-and-forget batched ADD_PROVIDER arrives at its target.
    ProviderBatchArrive { from: NodeId, to: NodeId, keys: Arc<Vec<Key>>, provider: Arc<PeerInfo> },
    /// Periodic Kademlia bucket refresh for one node.
    RefreshTable { node: NodeId },
    /// A PUT_VALUE (IPNS record) arrives at its target (§3.3).
    ValueStoreArrive { from: NodeId, to: NodeId, key: Key, value: Vec<u8> },
    /// One item of an IPNS publish batch settled at the publisher.
    ValueStoreSettled { op: OpId, ok: bool },
}

// The scheduler copies pending events through timing-wheel slots, so the
// enum's footprint is paid on every schedule/cascade/pop. The RPC and
// Bitswap payloads above are boxed to keep the inline size capped by the
// plain-data variants; growing past this bound should be a deliberate
// choice, not an accident. The sharded cell's event enum
// (`crate::shardsim::Ev`) carries the same bound: its events additionally
// cross shard mailboxes at window boundaries, where the inline size is
// paid once more per hand-off.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 80);

/// Internal per-operation state.
enum OpState {
    Publish {
        node: NodeId,
        cid: Cid,
        t0: SimTime,
        t_walk_end: Option<SimTime>,
        phase: PublishPhase,
        silent: bool,
        /// Final stats of the Closest walk (filled at QueryDone).
        walk_rpcs: u64,
        walk_failures: u64,
    },
    Retrieve {
        node: NodeId,
        cid: Cid,
        t0: SimTime,
        phase: RetrievePhase,
        t_bitswap_end: Option<SimTime>,
        t_provider_end: Option<SimTime>,
        t_peer_end: Option<SimTime>,
        t_fetch_start: Option<SimTime>,
        probe_session: Option<SessionHandle>,
        fetch_session: Option<SessionHandle>,
        via_bitswap: bool,
        addrbook_hit: bool,
        /// Peers that answered the opportunistic probe with HAVE (or
        /// blocks) but didn't finish the transfer in the window: they
        /// short-circuit into the fetch session's candidate set instead of
        /// being discarded with the probe.
        probe_havers: Vec<PeerId>,
        /// Every swarm member whose dial is under way: the fetch session
        /// is seeded with all of them at the first connect, so the
        /// WANT-HAVE round runs while the remaining connects finish
        /// (go-bitswap feeds discovered providers to the session the same
        /// way, ahead of their connections).
        fetch_candidates: Vec<PeerId>,
        /// Outstanding peer-record walks for secondary providers. The op
        /// fails on a failed walk only when nothing else is in flight.
        walks_outstanding: usize,
    },
    PublishIpns {
        node: NodeId,
        name: PeerId,
        value: Vec<u8>,
        t0: SimTime,
        t_walk_end: Option<SimTime>,
        outstanding: usize,
        stored: usize,
    },
    ResolveIpns {
        node: NodeId,
        name: PeerId,
        t0: SimTime,
    },
    /// One sweep batch: a Closest walk toward the batch's first key,
    /// then one batched ADD_PROVIDER per closest peer. Silent — sweep
    /// maintenance produces metrics, not publish reports.
    SweepBatch {
        node: NodeId,
        /// CIDs in this keyspace neighborhood, in DHT-key order.
        cids: Vec<Cid>,
        /// Batched stores still in flight.
        outstanding: usize,
    },
}

/// Deferred action extracted from a borrow of the op table.
enum Action {
    PublishBatch { node: NodeId, cid: Cid, peers: Vec<Arc<PeerInfo>> },
    IpnsBatch { node: NodeId, key: Key, value: Vec<u8>, peers: Vec<Arc<PeerInfo>> },
    IpnsFail,
    IpnsResolved { value: Vec<u8> },
    PublishFail,
    SweepStoreBatch { node: NodeId, cids: Vec<Cid>, peers: Vec<Arc<PeerInfo>> },
    SweepFail,
    PeerWalk { node: NodeId, providers: Vec<PeerId> },
    Fetch { node: NodeId, providers: Vec<Arc<PeerInfo>> },
    JoinFetch { node: NodeId, provider: Arc<PeerInfo> },
    RetrieveFail,
    CancelProbe { node: NodeId, session: SessionHandle },
    Nothing,
}

/// Counter name for an outbound DHT RPC of the given type.
fn request_kind(request: &Request) -> usize {
    match request {
        Request::FindNode { .. } => 0,
        Request::GetProviders { .. } => 1,
        Request::AddProvider { .. } => 2,
        Request::PutPeerRecord { .. } => 3,
        Request::PutValue { .. } => 4,
        Request::GetValue { .. } => 5,
        Request::AddProviderBatch { .. } => 6,
    }
}

/// Index of a Bitswap message type into the [`HotMetrics`] counter arrays.
fn bitswap_kind(message: &Message) -> usize {
    match message {
        Message::WantHave(_) => 0,
        Message::Have(_) => 1,
        Message::DontHave(_) => 2,
        Message::WantBlock(_) => 3,
        Message::Block { .. } => 4,
        Message::Cancel(_) => 5,
    }
}

/// The first eight bytes of a CID's DHT key, big-endian — a compact,
/// deterministic identifier for naming a want in flight-recorder lines.
fn cid_low64(cid: &Cid) -> u64 {
    let key = cid.dht_key();
    u64::from_be_bytes(key[..8].try_into().unwrap())
}

/// Index of a dial-failure class into [`HotMetrics::dial_fail`].
fn dial_class_kind(class: DialClass) -> usize {
    match class {
        DialClass::FastRefuse => 0,
        DialClass::Timeout5s => 1,
        DialClass::Websocket45s => 2,
    }
}

/// Dense metric handles for everything the per-event hot path touches,
/// resolved once at [`IpfsNetwork::from_population`] from [`names`]
/// constants. Bumping through a handle is a bounds-checked array write —
/// no string hashing or tree walk per event. Cold paths (reports, fault
/// bookkeeping, per-operation counters) keep using the string-keyed API.
struct HotMetrics {
    /// Outbound DHT RPCs by [`request_kind`].
    rpc_sent: [CounterHandle; 7],
    /// Inbound DHT RPCs by [`request_kind`].
    rpc_recv: [CounterHandle; 7],
    /// Outbound Bitswap messages by [`bitswap_kind`].
    bitswap_sent: [CounterHandle; 6],
    /// Delivered Bitswap messages by [`bitswap_kind`].
    bitswap_recv: [CounterHandle; 6],
    /// Failed dials by [`dial_class_kind`].
    dial_fail: [CounterHandle; 3],
    dht_rpc_ok: CounterHandle,
    dht_rpc_failed: CounterHandle,
    dials_attempted: CounterHandle,
    dials_warm: CounterHandle,
    dials_ok: CounterHandle,
    dials_failed: CounterHandle,
    conn_idle_expired: CounterHandle,
    conn_prunes: CounterHandle,
    provider_records_stored: CounterHandle,
    dht_walk_rpcs: HistogramHandle,
    /// Blocks received and verified by client sessions.
    session_blocks_received: CounterHandle,
    /// Duplicate blocks attributed to client sessions.
    session_dup_blocks: CounterHandle,
    /// WANT-BLOCKs issued by client sessions (added at op completion).
    session_wants_sent: CounterHandle,
    /// Re-routed wants after a renege/crash (added at op completion).
    session_reroutes: CounterHandle,
    /// Per-peer WANT-BLOCK→BLOCK latency in ms.
    peer_latency_ms: HistogramHandle,
}

impl HotMetrics {
    fn resolve(m: &mut MetricsRegistry) -> HotMetrics {
        let c = |m: &mut MetricsRegistry, name| m.counter_handle(name);
        HotMetrics {
            rpc_sent: [
                c(m, names::DHT_RPC_SENT_FIND_NODE),
                c(m, names::DHT_RPC_SENT_GET_PROVIDERS),
                c(m, names::DHT_RPC_SENT_ADD_PROVIDER),
                c(m, names::DHT_RPC_SENT_PUT_PEER_RECORD),
                c(m, names::DHT_RPC_SENT_PUT_VALUE),
                c(m, names::DHT_RPC_SENT_GET_VALUE),
                c(m, names::DHT_RPC_SENT_ADD_PROVIDER_BATCH),
            ],
            rpc_recv: [
                c(m, names::DHT_RPC_RECV_FIND_NODE),
                c(m, names::DHT_RPC_RECV_GET_PROVIDERS),
                c(m, names::DHT_RPC_RECV_ADD_PROVIDER),
                c(m, names::DHT_RPC_RECV_PUT_PEER_RECORD),
                c(m, names::DHT_RPC_RECV_PUT_VALUE),
                c(m, names::DHT_RPC_RECV_GET_VALUE),
                c(m, names::DHT_RPC_RECV_ADD_PROVIDER_BATCH),
            ],
            bitswap_sent: [
                c(m, names::BITSWAP_SENT_WANT_HAVE),
                c(m, names::BITSWAP_SENT_HAVE),
                c(m, names::BITSWAP_SENT_DONT_HAVE),
                c(m, names::BITSWAP_SENT_WANT_BLOCK),
                c(m, names::BITSWAP_SENT_BLOCK),
                c(m, names::BITSWAP_SENT_CANCEL),
            ],
            bitswap_recv: [
                c(m, names::BITSWAP_RECV_WANT_HAVE),
                c(m, names::BITSWAP_RECV_HAVE),
                c(m, names::BITSWAP_RECV_DONT_HAVE),
                c(m, names::BITSWAP_RECV_WANT_BLOCK),
                c(m, names::BITSWAP_RECV_BLOCK),
                c(m, names::BITSWAP_RECV_CANCEL),
            ],
            dial_fail: [
                c(m, DialClass::FastRefuse.metric()),
                c(m, DialClass::Timeout5s.metric()),
                c(m, DialClass::Websocket45s.metric()),
            ],
            dht_rpc_ok: c(m, names::DHT_RPC_OK),
            dht_rpc_failed: c(m, names::DHT_RPC_FAILED),
            dials_attempted: c(m, names::DIALS_ATTEMPTED),
            dials_warm: c(m, names::DIALS_WARM),
            dials_ok: c(m, names::DIALS_OK),
            dials_failed: c(m, names::DIALS_FAILED),
            conn_idle_expired: c(m, names::CONN_IDLE_EXPIRED),
            conn_prunes: c(m, names::CONN_PRUNES),
            provider_records_stored: c(m, names::PROVIDER_RECORDS_STORED),
            dht_walk_rpcs: m.histogram_handle(names::DHT_WALK_RPCS),
            session_blocks_received: c(m, names::BITSWAP_SESSION_BLOCKS_RECEIVED),
            session_dup_blocks: c(m, names::BITSWAP_SESSION_DUP_BLOCKS),
            session_wants_sent: c(m, names::BITSWAP_SESSION_WANTS_SENT),
            session_reroutes: c(m, names::BITSWAP_SESSION_REROUTES),
            // Per-peer transfer latencies are high-volume and only read as
            // percentiles: streaming buckets bound the footprint at a
            // ≤2.5% relative error instead of retaining every sample.
            peer_latency_ms: m.histogram_handle_streaming(names::BITSWAP_PEER_LATENCY_MS),
        }
    }
}

/// The simulated IPFS network.
pub struct IpfsNetwork {
    queue: EventQueue<NetEvent>,
    rng: StdRng,
    cfg: NetworkConfig,
    nodes: Vec<SimNode>,
    peer_index: HashMap<PeerId, NodeId>,
    ops: HashMap<OpId, OpState>,
    /// Which operation owns each outstanding query.
    query_owner: HashMap<(NodeId, QueryId), OpId>,
    /// Which operation owns each Bitswap session.
    session_owner: HashMap<(NodeId, SessionHandle), OpId>,
    /// Outstanding query RPCs, for stale-timeout suppression.
    pending_rpcs: HashSet<(NodeId, QueryId, PeerId)>,
    next_op: u64,
    /// All DHT servers sorted by key — used by the join-time announcement
    /// (each churn-online event re-inserts the peer near its key, the
    /// effect a real node's bootstrap self-lookup has).
    sorted_servers: Vec<(Key, NodeId)>,
    /// Completed publish reports (drained by experiments).
    pub publish_reports: Vec<PublishReport>,
    /// Completed retrieve reports (drained by experiments).
    pub retrieve_reports: Vec<RetrieveReport>,
    /// Completed IPNS publish reports.
    pub ipns_publish_reports: Vec<IpnsPublishReport>,
    /// Completed IPNS resolve reports.
    pub ipns_resolve_reports: Vec<IpnsResolveReport>,
    /// Total events processed (diagnostics).
    pub events_processed: u64,
    /// Metrics accumulated over the run (RPC volume, dials, Bitswap
    /// traffic, record lifecycle, churn — see [`crate::obs`]).
    metrics: MetricsRegistry,
    /// Pre-resolved handles into `metrics` for the per-event hot path.
    hot: HotMetrics,
    /// Trace storage (off by default): each op's origin and event log,
    /// per-node flight rings and the stitching collection. Rings and
    /// collection fill only while the sink is active.
    dtrace: DtraceSink,
    /// Rendered flight-recorder post-mortems, drained by experiments.
    postmortems: Vec<(OpId, String)>,
    /// Scripted-fault state; idle (and cost-free) unless a plan is
    /// installed with [`IpfsNetwork::install_fault_plan`].
    faults: FaultOracle,
    /// Number of population peers (ids `0..crashable`) — the pool crash
    /// waves draw victims from; hydra/vantage infrastructure is exempt.
    crashable: usize,
}

impl IpfsNetwork {
    /// Builds a network from a generated population plus vantage nodes in
    /// the given AWS regions (§4.3). Vantage nodes are always-online DHT
    /// servers on datacenter links; their ids are the last
    /// `vantages.len()` indices (see [`IpfsNetwork::vantage_ids`]).
    pub fn from_population(
        pop: &Population,
        vantages: &[VantagePoint],
        cfg: NetworkConfig,
        seed: u64,
    ) -> IpfsNetwork {
        let rng = StdRng::seed_from_u64(seed ^ 0x6e65_7473_696d_2121);
        let mut nodes = Vec::with_capacity(pop.peers.len() + vantages.len());
        let mut peer_index = HashMap::new();
        let mut queue = EventQueue::new();

        for p in &pop.peers {
            let keypair = Keypair::from_seed(p.key_seed);
            let addr: Multiaddr =
                format!("/ip4/{}/tcp/4001", p.host.ip).parse().expect("valid addr");
            let mode = if p.nat { DhtMode::Client } else { DhtMode::Server };
            let node = IpfsNode::new(keypair, vec![addr], mode, cfg.node);
            peer_index.insert(node.peer_id().clone(), nodes.len());
            let id = nodes.len();
            for (start, end) in &p.schedule.sessions {
                queue.schedule_at(*start, NetEvent::Churn { node: id, online: true });
                queue.schedule_at(*end, NetEvent::Churn { node: id, online: false });
            }
            nodes.push(SimNode {
                node,
                region: p.host.region,
                bandwidth: p.bandwidth,
                online: p.schedule.online_at(SimTime::ZERO),
                is_server: !p.nat,
                connections: ConnSet::new(),
                refresh_timer: None,
                provided: BTreeMap::new(),
                sweep_timer: None,
                sweep_deferred: false,
                uplink_free_at: SimTime::ZERO,
            });
        }

        // Hydra boosters: many always-online heads, before the vantage
        // nodes so `vantage_ids` keeps addressing the trailing slots.
        for i in 0..cfg.hydra_heads {
            let keypair = Keypair::from_seed(VANTAGE_KEY_BASE + 0x1_0000 + i as u64);
            let addr: Multiaddr =
                format!("/ip4/198.51.100.{}/tcp/4001", (i % 250) + 1).parse().unwrap();
            let node = IpfsNode::new(keypair, vec![addr], DhtMode::Server, cfg.node);
            peer_index.insert(node.peer_id().clone(), nodes.len());
            nodes.push(SimNode {
                node,
                region: Region::NorthAmericaEast,
                bandwidth: BandwidthClass::Datacenter,
                online: true,
                is_server: true,
                connections: ConnSet::new(),
                refresh_timer: None,
                provided: BTreeMap::new(),
                sweep_timer: None,
                sweep_deferred: false,
                uplink_free_at: SimTime::ZERO,
            });
        }

        for (i, vp) in vantages.iter().enumerate() {
            let keypair = Keypair::from_seed(VANTAGE_KEY_BASE + i as u64);
            let addr: Multiaddr = format!("/ip4/203.0.113.{}/tcp/4001", i + 1).parse().unwrap();
            let node = IpfsNode::new(keypair, vec![addr], DhtMode::Server, cfg.node);
            peer_index.insert(node.peer_id().clone(), nodes.len());
            nodes.push(SimNode {
                node,
                region: vp.region(),
                bandwidth: BandwidthClass::Datacenter,
                online: true,
                is_server: true,
                connections: ConnSet::new(),
                refresh_timer: None,
                provided: BTreeMap::new(),
                sweep_timer: None,
                sweep_deferred: false,
                uplink_free_at: SimTime::ZERO,
            });
        }

        // Periodic table refresh, staggered per node to avoid a thundering
        // herd of simultaneous refresh events. Only online nodes are armed:
        // a node that starts (or goes) offline gets its chain armed at the
        // churn-online transition instead, so dead timers never sit in the
        // scheduler.
        if let Some(interval) = cfg.table_refresh_interval {
            for (id, node) in nodes.iter_mut().enumerate() {
                if !node.online {
                    continue;
                }
                let stagger = SimDuration::from_nanos(interval.as_nanos() * (id as u64 % 64) / 64);
                node.refresh_timer = Some(queue.schedule_at_cancellable(
                    SimTime::ZERO + stagger,
                    NetEvent::RefreshTable { node: id },
                ));
            }
        }

        let node_count = nodes.len();
        let mut metrics = MetricsRegistry::new();
        let hot = HotMetrics::resolve(&mut metrics);
        let mut net = IpfsNetwork {
            queue,
            rng,
            cfg,
            nodes,
            peer_index,
            ops: HashMap::new(),
            query_owner: HashMap::new(),
            session_owner: HashMap::new(),
            pending_rpcs: HashSet::new(),
            next_op: 0,
            sorted_servers: Vec::new(),
            publish_reports: Vec::new(),
            retrieve_reports: Vec::new(),
            ipns_publish_reports: Vec::new(),
            ipns_resolve_reports: Vec::new(),
            events_processed: 0,
            metrics,
            hot,
            dtrace: DtraceSink::new(node_count),
            postmortems: Vec::new(),
            faults: FaultOracle::idle(),
            crashable: pop.peers.len(),
        };
        net.oracle_bootstrap();
        net
    }

    /// Fills every node's routing table the way a converged network would
    /// have it: the k XOR-nearest servers (found via a numeric-neighbour
    /// window, since XOR-near implies a shared prefix implies numeric
    /// adjacency) plus random far servers to populate the top buckets.
    /// Each server is also inserted into the tables of the servers nearest
    /// to *its* key — the effect a real node's join-time self-lookup has —
    /// so peer walks (§3.2) can resolve PeerIDs to addresses.
    fn oracle_bootstrap(&mut self) {
        let near = self.cfg.bootstrap_near_peers;
        let random = self.cfg.bootstrap_random_peers;
        // Which peers may appear in routing tables: servers only (§2.3),
        // unless the client/server-split ablation is on.
        let include_clients = self.cfg.clients_in_routing_tables;
        // Only peers online at t=0 seed the tables: a converged live
        // network's tables are kept fresh by query traffic and failure
        // eviction, so at any instant they are dominated by live peers.
        // Staleness then accumulates realistically as peers churn off.
        let mut servers: Vec<(Key, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| (n.is_server || include_clients) && n.online)
            .map(|(i, n)| (Key::from_peer(n.node.peer_id()), i))
            .collect();
        servers.sort_by_key(|a| a.0 .0);
        if servers.is_empty() {
            return;
        }
        // Shared handles only — bumping a refcount per node instead of
        // deep-copying every identity and address list up front.
        let infos: Vec<Arc<PeerInfo>> =
            self.nodes.iter().map(|n| Arc::clone(n.node.info())).collect();

        for id in 0..self.nodes.len() {
            let own_key = Key::from_peer(self.nodes[id].node.peer_id());
            let pos = servers.partition_point(|(k, _)| k.0 < own_key.0);
            let window = 3 * near.max(1);
            let lo = pos.saturating_sub(window);
            let hi = (pos + window).min(servers.len());
            let mut candidates: Vec<(kademlia::Distance, NodeId)> = servers[lo..hi]
                .iter()
                .filter(|(_, sid)| *sid != id)
                .map(|(k, sid)| (k.distance(&own_key), *sid))
                .collect();
            candidates.sort_by_key(|a| a.0);
            for (_, sid) in candidates.into_iter().take(near) {
                self.nodes[id].node.dht.add_peer(infos[sid].clone(), true);
            }
            for _ in 0..random {
                let (_, sid) = servers[self.rng.random_range(0..servers.len())];
                if sid != id {
                    self.nodes[id].node.dht.add_peer(infos[sid].clone(), true);
                }
            }
        }

        // Persist the full server list (independent of t=0 online status)
        // for join-time announcements during the run.
        let mut all_servers: Vec<(Key, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_server)
            .map(|(i, n)| (Key::from_peer(n.node.peer_id()), i))
            .collect();
        all_servers.sort_by_key(|a| a.0 .0);
        self.sorted_servers = all_servers;

        // Reverse direction: make each server known (with addresses) to the
        // servers closest to its own key.
        for &(key, id) in &servers {
            let pos = servers.partition_point(|(k, _)| k.0 < key.0);
            let window = 2 * near.max(1);
            let lo = pos.saturating_sub(window);
            let hi = (pos + window).min(servers.len());
            let mut hosts: Vec<(kademlia::Distance, NodeId)> = servers[lo..hi]
                .iter()
                .filter(|(_, sid)| *sid != id)
                .map(|(k, sid)| (k.distance(&key), *sid))
                .collect();
            hosts.sort_by_key(|a| a.0);
            for (_, host) in hosts.into_iter().take(near) {
                if self.nodes[host].is_server {
                    self.nodes[host].node.dht.add_peer(infos[id].clone(), true);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total number of nodes (population + vantage).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node ids of the vantage nodes (the last `n` created).
    pub fn vantage_ids(&self, n: usize) -> Vec<NodeId> {
        (self.nodes.len() - n..self.nodes.len()).collect()
    }

    /// The PeerID of a node.
    pub fn peer_id(&self, id: NodeId) -> &PeerId {
        self.nodes[id].node.peer_id()
    }

    /// Resolves a PeerID to its node id.
    pub fn resolve(&self, peer: &PeerId) -> Option<NodeId> {
        self.peer_index.get(peer).copied()
    }

    /// Whether a node is currently dialable (online DHT server).
    pub fn is_dialable(&self, id: NodeId) -> bool {
        self.nodes[id].online && self.nodes[id].is_server
    }

    /// Whether a node is currently online (regardless of NAT status).
    pub fn is_online(&self, id: NodeId) -> bool {
        self.nodes[id].online
    }

    /// All k-bucket entries of a node (crawler support, §4.1).
    pub fn k_bucket_entries(&self, id: NodeId) -> Vec<Arc<PeerInfo>> {
        self.nodes[id].node.dht.routing().all_peers()
    }

    /// Ids of all DHT-server nodes.
    pub fn server_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_server).collect()
    }

    /// Mutable access to a node (tests, gateway integration).
    pub fn node_mut(&mut self, id: NodeId) -> &mut IpfsNode {
        &mut self.nodes[id].node
    }

    /// Shared access to a node.
    pub fn node(&self, id: NodeId) -> &IpfsNode {
        &self.nodes[id].node
    }

    /// Region of a node.
    pub fn region(&self, id: NodeId) -> Region {
        self.nodes[id].region
    }

    /// Whether `id` can act as a healthy gateway bridge right now: the
    /// node is online and at least one other region is reachable from its
    /// region (i.e. an active partition has not cut it off from the rest
    /// of the network). A fleet load balancer uses this to fail traffic
    /// over to surviving instances during a regional outage.
    pub fn bridge_healthy(&self, id: NodeId) -> bool {
        if !self.is_online(id) {
            return false;
        }
        if !self.faults.has_active_faults() {
            return true;
        }
        let r = self.nodes[id].region;
        Region::ALL.iter().any(|&other| other != r && !self.faults.blocked(r, other))
    }

    /// Number of currently active operations.
    pub fn active_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of warm connections a node currently holds.
    pub fn connection_count(&self, id: NodeId) -> usize {
        self.nodes[id].connections.len()
    }

    /// Mean logical bytes of per-node protocol state: warm-connection
    /// arena + routing-table entries + address-book slab + DHT record
    /// store. Length-based (not capacity-based), so the figure is
    /// independent of allocator growth policy and of how many shards
    /// executed the run.
    pub fn bytes_per_node_estimate(&self) -> u64 {
        if self.nodes.is_empty() {
            return 0;
        }
        let total: u64 = self
            .nodes
            .iter()
            .map(|n| {
                n.connections.bytes()
                    + n.node.dht.routing().bytes_estimate()
                    + n.node.addr_book.bytes_estimate()
                    + n.node.dht.store().bytes_estimate()
            })
            .sum();
        total / self.nodes.len() as u64
    }

    /// Whether two nodes currently share a warm connection.
    pub fn is_connected(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[a].connections.contains(b)
    }

    /// Read access to the run's accumulated metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the run's metrics (experiments fold their own
    /// counters in alongside the simulator's).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Configures tracing: op event logs and remote fragments kept for
    /// stitching, and flight-recorder post-mortems. The flight rings fill
    /// only while either is on. Already-collected traces are kept.
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.dtrace.set_config(config);
    }

    /// The trace collected for an operation (collection must have been on
    /// when the operation started).
    pub fn trace(&self, op: OpId) -> Option<&OpTrace> {
        self.dtrace.trace(op)
    }

    /// The remote span fragments collected so far (record order).
    pub fn dtrace_fragments(&self) -> &[SpanFragment] {
        self.dtrace.fragments()
    }

    /// Stitches an op's trace with every remote fragment its trace id
    /// produced, yielding one distributed [`SpanTree`]. `None` unless
    /// collection was on when the op started.
    pub fn stitched_trace(&self, op: OpId) -> Option<SpanTree> {
        dtrace::stitch(op, self.dtrace.trace(op)?, self.dtrace.fragments())
    }

    /// Removes and returns every rendered flight-recorder post-mortem, in
    /// op-completion order (deterministic: completion is simulation
    /// order).
    pub fn drain_postmortems(&mut self) -> Vec<(OpId, String)> {
        std::mem::take(&mut self.postmortems)
    }

    /// Records a gateway-side span (serve, bridge, fetch tiers) into an
    /// op's distributed trace, parented at the op root. The gateway layer
    /// sits above the simulator, so it reports its spans through this
    /// hook instead of carrying a [`TraceCtx`] of its own.
    pub fn record_gateway_span(
        &mut self,
        op: OpId,
        gateway_node: NodeId,
        detail: &'static str,
        bytes: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.dtrace.active() {
            return;
        }
        let Some(trace) = self.dtrace.trace(op) else { return };
        let tid = dtrace::trace_id(trace.origin, op);
        self.dtrace.record_span(
            tid,
            dtrace::root_span(tid),
            gateway_node,
            None,
            "gw",
            detail,
            bytes,
            0,
            start,
            end,
        );
    }

    /// Sweeps every node's provider store, dropping records past the 24 h
    /// expiry (§3.1) and metering them; returns how many were removed.
    /// The periodic table-refresh tick does this automatically when
    /// [`NetworkConfig::table_refresh_interval`] is set. Each store scans
    /// all of its provider records, so a sweep costs O(records stored).
    pub fn sweep_provider_records(&mut self) -> usize {
        let now = self.now();
        let mut removed = 0;
        for n in &mut self.nodes {
            removed += n.node.dht.expire_records(now);
        }
        self.metrics.add(names::PROVIDER_RECORDS_EXPIRED, removed as u64);
        removed
    }

    /// Seeds `id` as the provider of `count` synthetic single-block CIDs
    /// (derived from `tag`) and arms the reprovide machinery for each —
    /// WITHOUT running the initial publication walks. Maintenance-bench
    /// setup: at catalog sizes of 10^5–10^6 CIDs, paying one full walk
    /// per CID just to set the stage would dwarf the steady-state
    /// reprovide traffic under measurement; the first republish cycle
    /// (per-CID chains or the keyspace sweep, per
    /// [`NetworkConfig::reprovide_sweep`]) places the records instead.
    pub fn seed_provided(&mut self, id: NodeId, tag: u64, count: usize) -> Vec<Cid> {
        assert!(self.cfg.auto_republish, "seed_provided requires auto_republish");
        let mut cids = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let mut payload = [0u8; 16];
            payload[..8].copy_from_slice(&tag.to_le_bytes());
            payload[8..].copy_from_slice(&i.to_le_bytes());
            let cid = Cid::from_raw_data(&payload);
            self.nodes[id].node.store.put(cid.clone(), Bytes::copy_from_slice(&payload));
            self.arm_reprovide(id, cid.clone());
            cids.push(cid);
        }
        cids
    }

    /// Whether any online node currently holds an unexpired provider
    /// record for `cid` — record availability as an omniscient DHT-state
    /// probe (no walks run, no virtual time spent).
    pub fn provider_record_available(&self, cid: &Cid) -> bool {
        let key = Key::from_cid(cid);
        let now = self.now();
        self.nodes.iter().any(|n| n.online && !n.node.dht.store().providers(&key, now).is_empty())
    }

    /// Total provider-record entries across every node's store (expired
    /// entries not yet swept are included — this is resident state).
    pub fn provider_records_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.node.dht.store().provider_entry_count() as u64).sum()
    }

    /// Opens a warm connection between two nodes (no time charged; used
    /// for experiment setup, e.g. gateway neighbour sets).
    pub fn connect(&mut self, a: NodeId, b: NodeId) {
        let now = self.now();
        self.nodes[a].connections.insert(b, now);
        self.nodes[b].connections.insert(a, now);
        self.prune_connections(a);
        self.prune_connections(b);
    }

    /// Connection-manager pruning: drop least-recently-used connections
    /// beyond the cap.
    fn prune_connections(&mut self, id: NodeId) {
        while self.nodes[id].connections.len() > self.cfg.max_connections {
            match self.nodes[id].connections.lru() {
                Some(v) => {
                    self.nodes[id].connections.remove(v);
                    self.nodes[v].connections.remove(id);
                    self.metrics.incr_handle(self.hot.conn_prunes);
                }
                None => break,
            }
        }
    }

    /// Tears down warm connections of `id` that have sat unused past the
    /// idle timeout (lazy sweep, run before the connection set is used).
    /// Walks the recency index oldest-first, so the cost is proportional
    /// to the number of expired connections, not the set size.
    fn expire_idle_connections(&mut self, id: NodeId, now: SimTime) {
        let timeout = self.cfg.conn_idle_timeout;
        while let Some(peer) = self.nodes[id].connections.pop_idle(now, timeout) {
            self.nodes[peer].connections.remove(id);
            self.metrics.incr_handle(self.hot.conn_idle_expired);
        }
    }

    /// Closes every connection of a node — the experiment reset of §4.3
    /// ("they disconnect to prevent the next retrieval operation being
    /// resolved through Bitswap").
    pub fn disconnect_all(&mut self, id: NodeId) {
        for p in self.nodes[id].connections.drain() {
            self.nodes[p].connections.remove(id);
        }
    }

    /// Forgets `peer` in `node`'s address book (experiment control: forces
    /// the second DHT walk the paper measures in Figure 9e).
    pub fn forget_address(&mut self, node: NodeId, peer: &PeerId) {
        self.nodes[node].node.addr_book.remove(peer);
    }

    /// Join-time announcement: when a peer comes online it performs a
    /// self-lookup, which (a) makes the servers nearest its key learn its
    /// address — so peer walks can resolve it — and (b) refreshes its own
    /// routing table with currently-online peers. Modeled as an oracle
    /// shortcut (the walk itself adds no information at this fidelity).
    fn announce_join(&mut self, id: NodeId) {
        if self.sorted_servers.is_empty() {
            return;
        }
        let near = self.cfg.bootstrap_near_peers.max(1);
        let own_region = self.nodes[id].region;
        let info = self.nodes[id].node.info().clone();
        let own_key = info.key(); // cached SHA-256 of the PeerID
        let pos = self.sorted_servers.partition_point(|(k, _)| k.0 < own_key.0);
        let window = 3 * near;
        let lo = pos.saturating_sub(window);
        let hi = (pos + window).min(self.sorted_servers.len());
        // The self-lookup this models is ordinary DHT traffic: it cannot
        // cross an active partition, so neither may the oracle shortcut.
        let reachable = |net: &Self, sid: NodeId| {
            net.nodes[sid].online && !net.faults.blocked(own_region, net.nodes[sid].region)
        };
        // Both halves of the announcement see the same neighbourhood — the
        // `near` reachable servers closest to the joiner's key — so compute
        // the candidate list once. Distances are unique (SHA-256 keys), so
        // select-then-sort matches a full stable sort's first `near`.
        let mut nearby: Vec<(kademlia::Distance, NodeId)> = self.sorted_servers[lo..hi]
            .iter()
            .filter(|(_, sid)| *sid != id && reachable(self, *sid))
            .map(|(k, sid)| (k.distance(&own_key), *sid))
            .collect();
        if nearby.len() > near {
            nearby.select_nth_unstable(near - 1);
            nearby.truncate(near);
        }
        nearby.sort_unstable();
        // (a) Insert self into nearby online servers' tables.
        if self.nodes[id].is_server {
            for &(_, host) in &nearby {
                self.nodes[host].node.dht.add_peer(info.clone(), true);
            }
        }
        // (b) Refresh own table: nearby + random online servers.
        let mut to_add: Vec<NodeId> = nearby.into_iter().map(|(_, sid)| sid).collect();
        for _ in 0..self.cfg.bootstrap_random_peers / 3 {
            let (_, sid) = self.sorted_servers[self.rng.random_range(0..self.sorted_servers.len())];
            if sid != id && reachable(self, sid) {
                to_add.push(sid);
            }
        }
        for sid in to_add {
            let peer_info = self.nodes[sid].node.info().clone();
            self.nodes[id].node.dht.add_peer(peer_info, true);
        }
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Runs the AutoNAT probe for a node (§2.3): asks up to `probes`
    /// currently-online servers to dial back, then applies the verdict —
    /// more than three successful dial-backs upgrade a client to server;
    /// more than three failures keep it a client. Returns the verdict.
    /// (Instantaneous oracle of the dial-back exchange; the timing of
    /// AutoNAT is not part of any measured pipeline.)
    pub fn autonat_probe(&mut self, id: NodeId, probes: usize) -> crate::AutonatVerdict {
        use crate::{AutonatState, AutonatVerdict};
        let mut state = AutonatState::new();
        // The node is dialable iff it is not NAT'ed (its `is_server`
        // ground truth) and currently online.
        let reachable = self.nodes[id].is_server && self.nodes[id].online;
        let helpers: Vec<NodeId> = (0..self.nodes.len())
            .filter(|&h| h != id && self.is_dialable(h))
            .take(probes)
            .collect();
        let mut verdict = AutonatVerdict::Undecided;
        for _h in helpers {
            verdict = state.record(reachable);
            if verdict != AutonatVerdict::Undecided {
                break;
            }
        }
        match verdict {
            AutonatVerdict::Public => {
                self.nodes[id].node.dht.set_mode(kademlia::behaviour::DhtMode::Server)
            }
            AutonatVerdict::Private => {
                self.nodes[id].node.dht.set_mode(kademlia::behaviour::DhtMode::Client)
            }
            AutonatVerdict::Undecided => {}
        }
        verdict
    }

    /// Imports content at a node (local, Figure 3 step 1) and returns the
    /// root CID.
    pub fn import_content(&mut self, id: NodeId, data: &Bytes) -> Cid {
        self.nodes[id].node.add_content(data).root
    }

    /// Starts publishing `cid` from `id` (Figure 3, steps 2–3). Returns the
    /// operation id; a [`PublishReport`] lands in
    /// [`IpfsNetwork::publish_reports`] when it completes.
    pub fn publish(&mut self, id: NodeId, cid: Cid) -> OpId {
        self.publish_inner(id, cid, false)
    }

    /// Oracle setup helper: instantly stores provider records for `cid`
    /// (pointing at `provider`) on the k closest servers, without
    /// consuming virtual time. Used to pre-seed large content catalogs
    /// (e.g. the gateway workload) where simulating thousands of full
    /// publication walks would only burn events, not add fidelity. Not
    /// used by any timed experiment.
    pub fn seed_provider_record(&mut self, provider: NodeId, cid: &Cid) {
        let key = Key::from_cid(cid);
        let provider_info = self.nodes[provider].node.info().clone();
        let now = self.now();
        let k = self.cfg.node.replication;
        let mut targets: Vec<(kademlia::Distance, NodeId)> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_server)
            .map(|(i, n)| (Key::from_peer(n.node.peer_id()).distance(&key), i))
            .collect();
        targets.sort_by_key(|a| a.0);
        for (_, id) in targets.into_iter().take(k) {
            let from = provider_info.clone();
            self.nodes[id].node.dht.handle_request(
                &from,
                true,
                Request::AddProvider { key, provider: from.clone() },
                now,
            );
        }
    }

    /// Publishes a signed IPNS record from `id` into the DHT: a Closest
    /// walk to the name's key, then a PUT_VALUE batch to the k closest
    /// servers (§3.3). Records are validated and arbitrated (by sequence
    /// number) at each storing node.
    pub fn publish_ipns(&mut self, id: NodeId, record: &IpnsRecord) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(
            op,
            OpState::PublishIpns {
                node: id,
                name: record.name.clone(),
                value: record.encode(),
                t0: self.now(),
                t_walk_end: None,
                outstanding: 0,
                stored: 0,
            },
        );
        self.metrics.incr(names::IPNS_PUBLISH_OPS);
        let t0 = self.now();
        self.dtrace.note_op(op, id);
        self.dtrace.record_with(op, t0, || TraceEventKind::OpStarted { kind: "ipns_publish" });
        self.dtrace.record_with(op, t0, || TraceEventKind::PhaseEntered { phase: "walk" });
        let key = Key::from_peer(&record.name);
        let (qid, outputs) = self.nodes[id].node.dht.start_query(key, QueryTarget::Closest);
        self.query_owner.insert((id, qid), op);
        self.process_dht_outputs(id, outputs);
        op
    }

    /// Resolves an IPNS name from `id`: a Value walk that terminates on
    /// the first record found; the result is validated locally and cached
    /// in the node's IPNS store.
    pub fn resolve_ipns(&mut self, id: NodeId, name: &PeerId) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.ops.insert(op, OpState::ResolveIpns { node: id, name: name.clone(), t0: self.now() });
        self.metrics.incr(names::IPNS_RESOLVE_OPS);
        let t0 = self.now();
        self.dtrace.note_op(op, id);
        self.dtrace.record_with(op, t0, || TraceEventKind::OpStarted { kind: "ipns_resolve" });
        self.dtrace.record_with(op, t0, || TraceEventKind::PhaseEntered { phase: "walk" });
        let key = Key::from_peer(name);
        let (qid, outputs) = self.nodes[id].node.dht.start_query(key, QueryTarget::Value);
        self.query_owner.insert((id, qid), op);
        self.process_dht_outputs(id, outputs);
        op
    }

    fn publish_inner(&mut self, id: NodeId, cid: Cid, silent: bool) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        let t0 = self.now();
        self.ops.insert(
            op,
            OpState::Publish {
                node: id,
                cid: cid.clone(),
                t0,
                t_walk_end: None,
                phase: PublishPhase::Walk,
                silent,
                walk_rpcs: 0,
                walk_failures: 0,
            },
        );
        if !silent {
            self.metrics.incr(names::PUBLISH_OPS);
        }
        self.dtrace.note_op(op, id);
        self.dtrace.record_with(op, t0, || TraceEventKind::OpStarted { kind: "publish" });
        self.dtrace.record_with(op, t0, || TraceEventKind::PhaseEntered { phase: "walk" });
        let key = Key::from_cid(&cid);
        let (qid, outputs) = self.nodes[id].node.dht.start_query(key, QueryTarget::Closest);
        self.query_owner.insert((id, qid), op);
        self.process_dht_outputs(id, outputs);
        if self.cfg.auto_republish {
            self.arm_reprovide(id, cid);
        }
        op
    }

    /// Registers `cid` in `id`'s provided set and arms whatever keeps it
    /// alive: in sweep mode the single per-node sweep timer (armed once,
    /// when the first CID arrives); in per-CID mode a dedicated republish
    /// timer chain. Republishing content that already has a pending timer
    /// replaces it instead of stacking chains.
    fn arm_reprovide(&mut self, id: NodeId, cid: Cid) {
        let key = Key::from_cid(&cid);
        if self.cfg.reprovide_sweep {
            self.nodes[id]
                .provided
                .insert(key, ProvidedEntry { cid, timer: None, deferred: false });
            if self.nodes[id].sweep_timer.is_none() && !self.nodes[id].sweep_deferred {
                let timer = self.queue.schedule_cancellable(
                    self.cfg.node.republish_interval,
                    NetEvent::ReprovideSweep { node: id },
                );
                self.nodes[id].sweep_timer = Some(timer);
            }
        } else {
            if let Some(old) = self.nodes[id].provided.get_mut(&key).and_then(|e| e.timer.take()) {
                self.queue.cancel(old);
            }
            let timer = self.queue.schedule_cancellable(
                self.cfg.node.republish_interval,
                NetEvent::Republish { node: id, cid: cid.clone() },
            );
            self.nodes[id]
                .provided
                .insert(key, ProvidedEntry { cid, timer: Some(timer), deferred: false });
        }
    }

    /// The keyspace-ordered reprovide sweep: walks `id`'s provided CIDs in
    /// DHT-key order, groups them into keyspace neighborhoods by the top
    /// [`NetworkConfig::reprovide_batch_bits`] bits of their key, and runs
    /// one Closest walk per non-empty neighborhood, storing the whole
    /// group with batched ADD_PROVIDER RPCs — one walk + k messages per
    /// *neighborhood* instead of per CID. This is the maintenance loop
    /// go-ipfs's accelerated DHT client uses to survive million-record
    /// reprovides (§3.1's 12 h cycle).
    fn run_reprovide_sweep(&mut self, id: NodeId) {
        self.nodes[id].sweep_timer = None;
        if !self.nodes[id].online {
            // Raced with a churn-offline between scheduling and dispatch:
            // park the sweep; rejoin runs it immediately.
            self.nodes[id].sweep_deferred = true;
            self.metrics.incr(names::PROVIDER_REPUBLISH_DEFERRED);
            return;
        }
        // Unpinned CIDs leave the provided set; their records age out.
        let keep: Vec<(Key, Cid)> = {
            let sim = &mut self.nodes[id];
            let store = &sim.node.store;
            sim.provided.retain(|_, e| store.has(&e.cid));
            sim.provided.iter().map(|(k, e)| (*k, e.cid.clone())).collect()
        };
        if keep.is_empty() {
            return; // nothing provided: the sweep chain ends here
        }
        self.metrics.incr(names::PROVIDER_SWEEP_RUNS);
        self.metrics.add(names::PROVIDER_SWEEP_CIDS, keep.len() as u64);
        // Kept comparable across modes: one "republish" per maintained CID
        // per cycle, however the messages are amortized.
        self.metrics.add(names::PROVIDER_REPUBLISHES, keep.len() as u64);
        // Group by keyspace prefix. BTreeMap iteration handed us the CIDs
        // already key-sorted, so each group is a contiguous, ordered run.
        let bits = u32::from(self.cfg.reprovide_batch_bits.min(16));
        let mut batches: Vec<(Key, Vec<Cid>)> = Vec::new();
        let mut last_prefix: Option<u16> = None;
        for (key, cid) in keep {
            let wide = u16::from_be_bytes([key.0[0], key.0[1]]);
            let prefix = if bits == 0 { 0 } else { wide >> (16 - bits) };
            if last_prefix != Some(prefix) {
                last_prefix = Some(prefix);
                batches.push((key, Vec::new()));
            }
            batches.last_mut().unwrap().1.push(cid);
        }
        for (first_key, cids) in batches {
            self.metrics.incr(names::PROVIDER_SWEEP_BATCHES);
            let op = OpId(self.next_op);
            self.next_op += 1;
            self.ops.insert(op, OpState::SweepBatch { node: id, cids, outstanding: 0 });
            self.dtrace.note_op(op, id);
            // One walk toward the neighborhood's first key serves every
            // CID in the batch: within a 2^-bits slice of the keyspace,
            // the k closest peers are (to good approximation) shared.
            let (qid, outputs) =
                self.nodes[id].node.dht.start_query(first_key, QueryTarget::Closest);
            self.query_owner.insert((id, qid), op);
            self.process_dht_outputs(id, outputs);
        }
        // Re-arm: one timer maintains the whole provided set.
        let timer = self.queue.schedule_cancellable(
            self.cfg.node.republish_interval,
            NetEvent::ReprovideSweep { node: id },
        );
        self.nodes[id].sweep_timer = Some(timer);
    }

    /// Starts retrieving `cid` at `id` (Figure 3, steps 4–6). Returns the
    /// operation id; a [`RetrieveReport`] lands in
    /// [`IpfsNetwork::retrieve_reports`] when it completes.
    pub fn retrieve(&mut self, id: NodeId, cid: Cid) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        let t0 = self.now();
        self.ops.insert(
            op,
            OpState::Retrieve {
                node: id,
                cid: cid.clone(),
                t0,
                phase: RetrievePhase::BitswapProbe,
                t_bitswap_end: None,
                t_provider_end: None,
                t_peer_end: None,
                t_fetch_start: None,
                probe_session: None,
                fetch_session: None,
                via_bitswap: false,
                addrbook_hit: false,
                probe_havers: Vec::new(),
                fetch_candidates: Vec::new(),
                walks_outstanding: 0,
            },
        );
        self.metrics.incr(names::RETRIEVE_OPS);
        self.dtrace.note_op(op, id);
        self.dtrace.record_with(op, t0, || TraceEventKind::OpStarted { kind: "retrieve" });
        self.dtrace.record_with(op, t0, || TraceEventKind::PhaseEntered { phase: "bitswap_probe" });
        // Opportunistic Bitswap: broadcast WANT-HAVE to connected peers
        // (§3.2, Figure 3 step 4). Idle connections expired first: the
        // connection manager would have closed them long ago, so they must
        // not feed the probe.
        self.expire_idle_connections(id, t0);
        let connected: Vec<PeerId> = self.nodes[id]
            .connections
            .peers()
            .map(|c| self.nodes[c].node.peer_id().clone())
            .collect();
        let session_cfg = self.session_config();
        let sim_node = &mut self.nodes[id];
        sim_node.node.bitswap.set_clock(t0.as_nanos());
        let (session, outputs) = sim_node.node.bitswap.start_session_with(
            cid,
            connected,
            session_cfg,
            &mut sim_node.node.store,
        );
        self.session_owner.insert((id, session), op);
        if let Some(OpState::Retrieve { probe_session, .. }) = self.ops.get_mut(&op) {
            *probe_session = Some(session);
        }
        let ctx = self.op_ctx(id, op);
        self.process_bitswap_outputs(id, outputs, ctx);
        // The probe either already completed (content local) or runs
        // against the 1 s deadline.
        let still_probing = matches!(
            self.ops.get(&op),
            Some(OpState::Retrieve { phase: RetrievePhase::BitswapProbe, .. })
        );
        if still_probing {
            self.queue
                .schedule(self.cfg.bitswap_probe_timeout, NetEvent::BitswapProbeTimeout { op });
            self.dtrace
                .record_with(op, t0, || TraceEventKind::TimerArmed { timer: "bitswap_probe" });
            if self.cfg.parallel_dht_and_bitswap {
                self.begin_provider_walk(op);
            }
        }
        op
    }

    /// Runs the simulation until `deadline` (inclusive of events at it).
    /// Scripted fault boundaries due within the window apply at their
    /// exact virtual instants, interleaved with event dispatch.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            if let Some(fault_at) = self.faults.next_at() {
                if fault_at <= deadline && self.queue.peek_time().is_none_or(|t| fault_at <= t) {
                    let now = self.queue.advance_to(fault_at);
                    self.apply_due_faults(now);
                    continue;
                }
            }
            let Some(t) = self.queue.peek_time() else { break };
            if t > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.events_processed += 1;
            self.handle(ev.at, ev.event);
        }
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Runs until no operations remain active (or the queue drains).
    pub fn run_until_quiet(&mut self) {
        while !self.ops.is_empty() {
            if let Some(fault_at) = self.faults.next_at() {
                if self.queue.peek_time().is_none_or(|t| fault_at <= t) {
                    let now = self.queue.advance_to(fault_at);
                    self.apply_due_faults(now);
                    continue;
                }
            }
            let Some(ev) = self.queue.pop() else { break };
            self.events_processed += 1;
            self.handle(ev.at, ev.event);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a scripted fault plan, replacing any previous one. Events
    /// whose instant has already passed apply at the next run call (the
    /// oracle clamps, it never time-travels). Same seed + same plan ⇒
    /// byte-identical run: the oracle owns no randomness, and the fault
    /// paths draw from the engine RNG only while faults are active.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultOracle::new(plan);
    }

    /// Read access to the active fault state (tests, harnesses).
    pub fn fault_oracle(&self) -> &FaultOracle {
        &self.faults
    }

    /// Applies every scripted fault event due at `now`: folds topology
    /// events into the oracle, executes crash waves, severs warm
    /// connections that a new partition cut, and meters everything.
    fn apply_due_faults(&mut self, now: SimTime) {
        let due = self.faults.take_due(now);
        for event in due {
            self.metrics.incr(match event.label() {
                "partition_start" => names::FAULT_PARTITION_STARTS,
                "partition_end" => names::FAULT_PARTITION_HEALS,
                "degrade_start" => names::FAULT_DEGRADE_STARTS,
                "degrade_end" => names::FAULT_DEGRADE_ENDS,
                "dial_fail_spike_start" => names::FAULT_DIAL_SPIKE_STARTS,
                "dial_fail_spike_end" => names::FAULT_DIAL_SPIKE_ENDS,
                _ => names::FAULT_CRASH_WAVES,
            });
            let new_partition = matches!(event, FaultEvent::PartitionStart { .. });
            if !self.faults.apply(&event) {
                // Node-scoped event the oracle hands back to the driver.
                match event {
                    FaultEvent::CrashWave { fraction, restart_after } => {
                        self.crash_wave(now, fraction, restart_after);
                    }
                    FaultEvent::CrashNodes { ids, restart_after } => {
                        self.crash_nodes(now, &ids, restart_after);
                    }
                    _ => {}
                }
            } else if new_partition {
                // A partition just came up: tear down every warm connection
                // now crossing it. Without this the 1 s Bitswap probe would
                // keep riding pre-partition connections straight across the
                // cut (the transport would have reset them).
                self.sever_partitioned_connections();
            }
        }
        self.metrics.set(names::FAULT_PARTITIONS_ACTIVE, self.faults.partitions_active() as u64);
    }

    /// Drops every warm connection whose endpoints an active partition now
    /// separates (both directions at once — the sets are symmetric).
    fn sever_partitioned_connections(&mut self) {
        let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
        for a in 0..self.nodes.len() {
            let ra = self.nodes[a].region;
            for b in self.nodes[a].connections.peers() {
                if a < b && self.faults.blocked(ra, self.nodes[b].region) {
                    cut.push((a, b));
                }
            }
        }
        for (a, b) in cut {
            self.nodes[a].connections.remove(b);
            self.nodes[b].connections.remove(a);
            self.metrics.incr(names::FAULT_CONNS_SEVERED);
        }
    }

    /// Crashes a deterministic, seed-stable sample of the online
    /// population peers and schedules their restarts through the normal
    /// churn path (so recovery runs the join-time announcement).
    fn crash_wave(&mut self, now: SimTime, fraction: f64, restart_after: SimDuration) {
        let mut online: Vec<NodeId> =
            (0..self.crashable).filter(|&i| self.nodes[i].online).collect();
        let count = ((online.len() as f64) * fraction).round() as usize;
        let count = count.min(online.len());
        // Partial Fisher–Yates: the first `count` slots become the victims.
        for k in 0..count {
            let j = self.rng.random_range(k..online.len());
            online.swap(k, j);
        }
        for &id in &online[..count] {
            self.on_churn(id, false);
            self.metrics.incr(names::FAULT_NODES_CRASHED);
            self.queue.schedule_at(now + restart_after, NetEvent::Churn { node: id, online: true });
        }
    }

    /// Crashes the named nodes (targeted fault, e.g. a transfer's provider
    /// dying mid-DAG). No randomness: the scenario picked its victims.
    fn crash_nodes(&mut self, now: SimTime, ids: &[usize], restart_after: SimDuration) {
        for &id in ids {
            if id >= self.nodes.len() || !self.nodes[id].online {
                continue;
            }
            self.on_churn(id, false);
            self.metrics.incr(names::FAULT_NODES_CRASHED);
            self.queue.schedule_at(now + restart_after, NetEvent::Churn { node: id, online: true });
        }
    }

    /// Whether a message between two nodes dies at delivery time because a
    /// partition now separates them (covers messages already in flight
    /// when the partition started). Metered when it bites.
    fn cut_in_flight(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.faults.has_active_faults() {
            return false;
        }
        let blocked = self.faults.blocked(self.nodes[a].region, self.nodes[b].region);
        if blocked {
            self.metrics.incr(names::FAULT_MESSAGES_CUT);
        }
        blocked
    }

    /// Whether an outbound message is lost to an active degradation on the
    /// path. Draws from the engine RNG only when a lossy window covers the
    /// path, so fault-free runs stay byte-identical.
    fn degraded_loss(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.faults.has_active_faults() {
            return false;
        }
        let p = self.faults.loss_prob(self.nodes[a].region, self.nodes[b].region);
        if p > 0.0 && self.rng.random_range(0.0..1.0) < p {
            self.metrics.incr(names::FAULT_MESSAGES_LOST);
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, now: SimTime, event: NetEvent) {
        match event {
            NetEvent::Churn { node, online } => self.on_churn(node, online),
            NetEvent::RpcArrive { from, to, query, request, ctx } => {
                if self.cut_in_flight(from, to) {
                    return; // requester's guard timeout will fire
                }
                self.on_rpc_arrive(now, from, to, query, *request, ctx)
            }
            NetEvent::RpcResponse { to, query, from_peer, response } => {
                if let Some(responder) = self.resolve(&from_peer) {
                    if self.cut_in_flight(responder, to) {
                        return; // requester's guard timeout will fire
                    }
                }
                self.pending_rpcs.remove(&(to, query, from_peer.clone()));
                self.metrics.incr_handle(self.hot.dht_rpc_ok);
                if self.dtrace.collecting() {
                    if let Some(&op) = self.query_owner.get(&(to, query)) {
                        let peer = self.resolve(&from_peer).unwrap_or(usize::MAX);
                        self.dtrace.record_with(op, now, || TraceEventKind::RpcOk { peer });
                    }
                }
                let outputs = self.nodes[to].node.dht.on_response(query, &from_peer, &response);
                // Remember responder addresses (§3.2 address book).
                for info in response.closer() {
                    if !info.addrs.is_empty() {
                        self.nodes[to].node.addr_book.insert(&info.peer, &info.addrs);
                    }
                }
                self.process_dht_outputs(to, outputs);
            }
            NetEvent::RpcFail { node, query, peer } => {
                if self.pending_rpcs.remove(&(node, query, peer.clone())) {
                    self.metrics.incr_handle(self.hot.dht_rpc_failed);
                    if self.dtrace.collecting() {
                        if let Some(&op) = self.query_owner.get(&(node, query)) {
                            let p = self.resolve(&peer).unwrap_or(usize::MAX);
                            self.dtrace
                                .record_with(op, now, || TraceEventKind::RpcFailed { peer: p });
                        }
                    }
                    let outputs = self.nodes[node].node.dht.on_failure(query, &peer);
                    self.process_dht_outputs(node, outputs);
                }
            }
            NetEvent::ProviderStoreArrive { from, to, key, provider } => {
                if self.cut_in_flight(from, to) {
                    return; // fire-and-forget: the record is simply lost
                }
                if self.nodes[to].online {
                    let from_info = self.nodes[from].node.info().clone();
                    let from_is_server = self.nodes[from].is_server;
                    let request = Request::AddProvider { key, provider };
                    self.metrics.incr_handle(self.hot.rpc_recv[request_kind(&request)]);
                    self.metrics.incr_handle(self.hot.provider_records_stored);
                    self.nodes[to].node.dht.handle_request(
                        &from_info,
                        from_is_server,
                        request,
                        now,
                    );
                }
            }
            NetEvent::ProviderStoreSettled { op, ok } => self.on_provider_settled(now, op, ok),
            NetEvent::BitswapArrive { from, to, message, ctx } => {
                if !self.nodes[to].online || self.cut_in_flight(from, to) {
                    return; // dropped; guard timers handle the fallout
                }
                self.metrics.incr_handle(self.hot.bitswap_recv[bitswap_kind(&message)]);
                let from_peer = self.nodes[from].node.peer_id().clone();
                let n = &mut self.nodes[to];
                n.node.bitswap.set_clock(now.as_nanos());
                let outputs =
                    n.node.bitswap.handle_inbound(&from_peer, *message, &mut n.node.store);
                // Replies echo the inbound causal context: a responder's
                // BLOCK carries the op's trace id even though the responder
                // owns no session for it.
                self.process_bitswap_outputs(to, outputs, ctx);
            }
            NetEvent::BitswapProbeTimeout { op } => self.on_probe_timeout(now, op),
            NetEvent::FetchConnected { op, provider } => self.on_fetch_connected(op, provider),
            NetEvent::FetchTimeout { op } => {
                if self.ops.contains_key(&op) {
                    self.finish_retrieve(now, op, false);
                }
            }
            NetEvent::Republish { node, cid } => {
                // This firing consumes its chain entry — an O(log n) map
                // removal where the old Vec paid an O(n) position scan.
                let key = Key::from_cid(&cid);
                self.nodes[node].provided.remove(&key);
                if !self.nodes[node].node.store.has(&cid) {
                    // Unpinned since the timer was armed: the chain ends.
                } else if self.nodes[node].online {
                    self.metrics.incr(names::PROVIDER_REPUBLISHES);
                    self.publish_inner(node, cid, true);
                } else {
                    // Raced with a churn-offline between scheduling and
                    // dispatch: park the chain instead of dropping it.
                    self.metrics.incr(names::PROVIDER_REPUBLISH_DEFERRED);
                    self.nodes[node]
                        .provided
                        .insert(key, ProvidedEntry { cid, timer: None, deferred: true });
                }
            }
            NetEvent::ReprovideSweep { node } => self.run_reprovide_sweep(node),
            NetEvent::ProviderBatchArrive { from, to, keys, provider } => {
                if self.cut_in_flight(from, to) {
                    return; // fire-and-forget: the whole batch is lost
                }
                if self.nodes[to].online {
                    let from_info = self.nodes[from].node.info().clone();
                    let from_is_server = self.nodes[from].is_server;
                    let request = Request::AddProviderBatch { keys: (*keys).clone(), provider };
                    self.metrics.incr_handle(self.hot.rpc_recv[request_kind(&request)]);
                    self.metrics.add_handle(self.hot.provider_records_stored, keys.len() as u64);
                    self.nodes[to].node.dht.handle_request(
                        &from_info,
                        from_is_server,
                        request,
                        now,
                    );
                }
            }
            NetEvent::RefreshTable { node } => {
                self.nodes[node].refresh_timer = None;
                if self.nodes[node].online {
                    self.announce_join(node);
                    // Refresh doubles as the store's GC tick: drop provider
                    // records past the 24 h expiry (§3.1).
                    let expired = self.nodes[node].node.dht.expire_records(now);
                    self.metrics.add(names::PROVIDER_RECORDS_EXPIRED, expired as u64);
                    if let Some(interval) = self.cfg.table_refresh_interval {
                        self.nodes[node].refresh_timer = Some(
                            self.queue
                                .schedule_cancellable(interval, NetEvent::RefreshTable { node }),
                        );
                    }
                }
                // Offline nodes stop re-arming; churn-online restarts the
                // chain so a dead node never keeps timers in the scheduler.
            }
            NetEvent::ValueStoreArrive { from, to, key, value } => {
                if self.cut_in_flight(from, to) {
                    return; // lost in flight; the publisher already settled
                }
                if self.nodes[to].online {
                    let from_info = self.nodes[from].node.info().clone();
                    let from_is_server = self.nodes[from].is_server;
                    let request = Request::PutValue { key, value };
                    self.metrics.incr_handle(self.hot.rpc_recv[request_kind(&request)]);
                    self.metrics.incr(names::IPNS_RECORDS_STORED);
                    self.nodes[to].node.dht.handle_request(
                        &from_info,
                        from_is_server,
                        request,
                        now,
                    );
                }
            }
            NetEvent::ValueStoreSettled { op, ok } => self.on_value_settled(now, op, ok),
        }
    }

    fn on_value_settled(&mut self, now: SimTime, op: OpId, ok: bool) {
        let mut finalize = false;
        if let Some(OpState::PublishIpns { outstanding, stored, .. }) = self.ops.get_mut(&op) {
            *outstanding -= 1;
            if ok {
                *stored += 1;
            }
            finalize = *outstanding == 0;
        }
        if finalize {
            self.finish_ipns_publish(now, op);
        }
    }

    fn finish_ipns_publish(&mut self, now: SimTime, op: OpId) {
        let Some(OpState::PublishIpns { node, name, t0, t_walk_end, stored, .. }) =
            self.ops.remove(&op)
        else {
            return;
        };
        let t_walk = t_walk_end.unwrap_or(now);
        let ok = stored > 0;
        self.metrics.incr(if ok {
            names::IPNS_PUBLISH_SUCCESS
        } else {
            names::IPNS_PUBLISH_FAILED
        });
        self.dtrace.record_with(op, now, || TraceEventKind::OpFinished { success: ok });
        self.ipns_publish_reports.push(IpnsPublishReport {
            op,
            node,
            name,
            total: now - t0,
            dht_walk: t_walk - t0,
            records_stored: stored,
            success: ok,
        });
    }

    fn finish_ipns_resolve(&mut self, now: SimTime, op: OpId, value: Option<Vec<u8>>) {
        let Some(OpState::ResolveIpns { node, name, t0 }) = self.ops.remove(&op) else {
            return;
        };
        // Validate the record locally (signature, name binding, expiry) —
        // the resolver never trusts the serving peer (§3.3).
        let record = value
            .and_then(|v| IpnsRecord::decode(&v))
            .filter(|r| r.name == name && r.validate(now).is_ok());
        if let Some(r) = &record {
            let _ = self.nodes[node].node.ipns.put(r.clone(), now);
        }
        let success = record.is_some();
        self.metrics.incr(if success {
            names::IPNS_RESOLVE_SUCCESS
        } else {
            names::IPNS_RESOLVE_FAILED
        });
        self.dtrace.record_with(op, now, || TraceEventKind::OpFinished { success });
        self.ipns_resolve_reports.push(IpnsResolveReport {
            op,
            node,
            name,
            total: now - t0,
            record,
            success,
        });
    }

    fn on_churn(&mut self, id: NodeId, online: bool) {
        self.nodes[id].online = online;
        self.metrics.incr(if online { names::CHURN_ONLINE } else { names::CHURN_OFFLINE });
        if online {
            self.announce_join(id);
            // Restart the refresh chain the node dropped when it went
            // offline (armed lazily here rather than ticking while dead).
            if let Some(interval) = self.cfg.table_refresh_interval {
                if self.nodes[id].refresh_timer.is_none() {
                    self.nodes[id].refresh_timer = Some(
                        self.queue
                            .schedule_cancellable(interval, NetEvent::RefreshTable { node: id }),
                    );
                }
            }
            // Resume reprovide work parked while offline. go-ipfs
            // reprovides on startup, so parked content reannounces
            // immediately instead of waiting out a full interval.
            if self.nodes[id].sweep_deferred {
                self.nodes[id].sweep_deferred = false;
                self.metrics.incr(names::PROVIDER_REPUBLISH_RESUMED);
                let timer = self
                    .queue
                    .schedule_cancellable(SimDuration::ZERO, NetEvent::ReprovideSweep { node: id });
                self.nodes[id].sweep_timer = Some(timer);
            }
            // Per-CID chains: each deferred entry re-announces now.
            // BTreeMap order keeps the event-scheduling order (and thus
            // the RNG stream) deterministic.
            let mut deferred = Vec::new();
            for entry in self.nodes[id].provided.values_mut() {
                if entry.deferred {
                    entry.deferred = false;
                    deferred.push(entry.cid.clone());
                }
            }
            for cid in deferred {
                self.metrics.incr(names::PROVIDER_REPUBLISH_RESUMED);
                self.queue.schedule(SimDuration::ZERO, NetEvent::Republish { node: id, cid });
            }
        } else {
            // A dead node must not keep timers alive in the scheduler:
            // stop the refresh chain and park pending reprovide work.
            if let Some(t) = self.nodes[id].refresh_timer.take() {
                self.queue.cancel(t);
            }
            if let Some(t) = self.nodes[id].sweep_timer.take() {
                self.queue.cancel(t);
                self.nodes[id].sweep_deferred = true;
                self.metrics.incr(names::PROVIDER_REPUBLISH_DEFERRED);
            }
            let mut parked = 0u64;
            for entry in self.nodes[id].provided.values_mut() {
                if let Some(timer) = entry.timer.take() {
                    self.queue.cancel(timer);
                    entry.deferred = true;
                    parked += 1;
                }
            }
            self.metrics.add(names::PROVIDER_REPUBLISH_DEFERRED, parked);
            // Dropped connections surface to Bitswap: each neighbour's
            // sessions re-queue wants that were in flight at the dead peer
            // onto their surviving candidates (§3.2 swarm resilience).
            // A no-op (zero messages, zero RNG draws) for neighbours with
            // no live session touching this peer, so runs without
            // fetch-phase faults are byte-identical.
            let dead_peer = self.nodes[id].node.peer_id().clone();
            let now = self.now();
            for p in self.nodes[id].connections.drain() {
                self.nodes[p].connections.remove(id);
                self.nodes[p].node.bitswap.set_clock(now.as_nanos());
                // Per-session grouping keeps each re-routed want attributed
                // to the op that owns the session, so the flight recorder
                // can name exactly which wants moved where and why.
                let grouped = self.nodes[p].node.bitswap.peer_disconnected_by_session(&dead_peer);
                for (session, outputs) in grouped {
                    let op = self.session_owner.get(&(p, session)).copied();
                    let ctx = op.map(|o| self.op_ctx(p, o)).unwrap_or(TraceCtx::NONE);
                    if self.dtrace.active() {
                        if let Some(op) = op {
                            self.dtrace.flag(op);
                            self.record_reroute_fragments(op, p, id, &outputs, now);
                        }
                    }
                    self.process_bitswap_outputs(p, outputs, ctx);
                }
            }
        }
    }

    fn on_rpc_arrive(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        query: QueryId,
        request: Request,
        ctx: TraceCtx,
    ) {
        if !self.nodes[to].online {
            return; // requester's guard timeout will fire
        }
        self.metrics.incr_handle(self.hot.rpc_recv[request_kind(&request)]);
        let from_info = self.nodes[from].node.info().clone();
        let from_is_server = self.nodes[from].is_server;
        let req_name = request.name();
        let response =
            self.nodes[to].node.dht.handle_request(&from_info, from_is_server, request, now);
        if let Some(response) = response {
            if self.dtrace.active() && !ctx.is_none() {
                // The server's own view of the request — handler time plus
                // the walk fan-out it computed — recorded as a child of the
                // requester's rpc span, even if the response is later lost.
                self.dtrace.record_span(
                    ctx.trace_id,
                    ctx.parent_span,
                    to,
                    Some(from),
                    "srv",
                    req_name,
                    response.forwarded_hops(),
                    0,
                    now,
                    now + self.cfg.server_processing,
                );
            }
            let delay = self.cfg.server_processing + self.one_way(to, from);
            if self.degraded_loss(to, from) {
                return; // requester's guard timeout will fire
            }
            let from_peer = self.nodes[to].node.peer_id().clone();
            self.queue.schedule(
                delay,
                NetEvent::RpcResponse { to: from, query, from_peer, response: Box::new(response) },
            );
        }
    }

    fn on_provider_settled(&mut self, now: SimTime, op: OpId, ok: bool) {
        let mut finalize = false;
        match self.ops.get_mut(&op) {
            Some(OpState::Publish {
                phase: PublishPhase::RpcBatch { outstanding, stored },
                ..
            }) => {
                *outstanding -= 1;
                if ok {
                    *stored += 1;
                }
                finalize = *outstanding == 0;
            }
            Some(OpState::SweepBatch { outstanding, .. }) => {
                *outstanding -= 1;
                if *outstanding == 0 {
                    // Sweep maintenance is silent: no publish report.
                    self.ops.remove(&op);
                }
                return;
            }
            _ => {}
        }
        if finalize {
            self.finish_publish(now, op, true);
        }
    }

    fn on_probe_timeout(&mut self, now: SimTime, op: OpId) {
        // The 1 s timeout bounds *discovery*: if a neighbour has already
        // started delivering blocks, the transfer continues rather than
        // being cancelled mid-flight.
        let in_progress = {
            let Some(OpState::Retrieve { node, phase, probe_session, .. }) = self.ops.get(&op)
            else {
                return;
            };
            if *phase != RetrievePhase::BitswapProbe {
                return; // already advanced (e.g. satisfied via Bitswap)
            }
            probe_session
                .and_then(|s| self.nodes[*node].node.bitswap.session_state(s))
                .map(|st| st.received > 0)
                .unwrap_or(false)
        };
        if in_progress {
            // Guard the continuing transfer like any fetch.
            self.queue.schedule(self.cfg.fetch_timeout, NetEvent::FetchTimeout { op });
            return;
        }
        self.metrics.incr(names::BITSWAP_PROBE_TIMEOUTS);
        self.dtrace.record_with(op, now, || TraceEventKind::TimerFired { timer: "bitswap_probe" });
        self.dtrace
            .record_with(op, now, || TraceEventKind::PhaseEntered { phase: "provider_walk" });
        let action = {
            let Some(OpState::Retrieve {
                node,
                phase,
                probe_session,
                t_bitswap_end,
                probe_havers,
                ..
            }) = self.ops.get_mut(&op)
            else {
                return;
            };
            *t_bitswap_end = Some(now);
            *phase = RetrievePhase::ProviderWalk;
            match probe_session.take() {
                Some(session) => {
                    // Don't discard what the probe learned: peers that
                    // answered HAVE seed the fetch session's candidate set.
                    *probe_havers =
                        self.nodes[*node].node.bitswap.responsive_session_peers(session);
                    Action::CancelProbe { node: *node, session }
                }
                None => Action::Nothing,
            }
        };
        if let Action::CancelProbe { node, session } = action {
            self.session_owner.remove(&(node, session));
            self.drain_session_obs(node, session);
            let outputs = self.nodes[node].node.bitswap.cancel_session(session);
            let ctx = self.op_ctx(node, op);
            self.process_bitswap_outputs(node, outputs, ctx);
        }
        if !self.cfg.parallel_dht_and_bitswap {
            self.begin_provider_walk(op);
        }
    }

    fn begin_provider_walk(&mut self, op: OpId) {
        let Some(OpState::Retrieve { node, cid, .. }) = self.ops.get(&op) else {
            return;
        };
        let (node, cid) = (*node, cid.clone());
        let key = Key::from_cid(&cid);
        let (qid, outputs) = self.nodes[node].node.dht.start_query(key, QueryTarget::Providers);
        self.query_owner.insert((node, qid), op);
        self.process_dht_outputs(node, outputs);
    }

    // ------------------------------------------------------------------
    // DHT plumbing
    // ------------------------------------------------------------------

    fn process_dht_outputs(&mut self, id: NodeId, outputs: Vec<DhtOutput>) {
        for output in outputs {
            match output {
                DhtOutput::SendRequest { query, to, request } => {
                    self.send_query_rpc(id, query, to, request);
                }
                DhtOutput::QueryDone { query, outcome, stats } => {
                    if let Some(op) = self.query_owner.remove(&(id, query)) {
                        self.on_query_done(op, outcome, stats);
                    }
                }
            }
        }
    }

    fn send_query_rpc(
        &mut self,
        from: NodeId,
        query: QueryId,
        to: Arc<PeerInfo>,
        request: Request,
    ) {
        self.pending_rpcs.insert((from, query, to.peer.clone()));
        self.metrics.incr_handle(self.hot.rpc_sent[request_kind(&request)]);
        let mut ctx = TraceCtx::NONE;
        if self.dtrace.collecting() {
            if let Some(&op) = self.query_owner.get(&(from, query)) {
                let peer = self.resolve(&to.peer).unwrap_or(usize::MAX);
                ctx = self.dtrace.record_rpc_sent(op, self.now(), request.name(), peer);
            }
        }
        match self.dial(from, &to.peer) {
            Some((target, connect_delay)) => {
                let delay = connect_delay + self.one_way(from, target);
                if !self.degraded_loss(from, target) {
                    self.queue.schedule(
                        delay,
                        NetEvent::RpcArrive {
                            from,
                            to: target,
                            query,
                            request: Box::new(request),
                            ctx,
                        },
                    );
                }
                // Guard in case the target churns offline before arrival
                // (or the request was lost to a degraded link).
                self.queue.schedule(
                    self.cfg.node.rpc_timeout,
                    NetEvent::RpcFail { node: from, query, peer: to.peer.clone() },
                );
            }
            None => {
                let (delay, class) = self.sample_fail_delay();
                if self.dtrace.collecting() {
                    if let Some(&op) = self.query_owner.get(&(from, query)) {
                        let now = self.now();
                        let peer = self.resolve(&to.peer).unwrap_or(usize::MAX);
                        self.dtrace
                            .record_with(op, now, || TraceEventKind::DialFailed { peer, class });
                    }
                }
                self.queue.schedule(
                    delay,
                    NetEvent::RpcFail { node: from, query, peer: to.peer.clone() },
                );
            }
        }
    }

    fn on_query_done(&mut self, op: OpId, outcome: QueryOutcome, stats: QueryStats) {
        let now = self.now();
        self.dtrace.record_with(op, now, || TraceEventKind::QueryConverged {
            rpcs: stats.rpcs_sent,
            responses: stats.responses,
            failures: stats.failures,
            hops: stats.max_hops,
        });
        self.metrics.observe_handle(self.hot.dht_walk_rpcs, stats.rpcs_sent as f64);
        // Probe sessions to cancel once the op-table borrow is released.
        let mut self_probe_cancel: Vec<(NodeId, SessionHandle)> = Vec::new();
        // Phase 1: update op state under a scoped borrow, extract an action.
        let action = {
            let Some(state) = self.ops.get_mut(&op) else { return };
            match state {
                OpState::Publish {
                    node, cid, t_walk_end, phase, walk_rpcs, walk_failures, ..
                } => {
                    *t_walk_end = Some(now);
                    *walk_rpcs = stats.rpcs_sent;
                    *walk_failures = stats.failures;
                    match outcome {
                        QueryOutcome::Closest(peers) if !peers.is_empty() => {
                            *phase = PublishPhase::RpcBatch { outstanding: peers.len(), stored: 0 };
                            Action::PublishBatch { node: *node, cid: cid.clone(), peers }
                        }
                        _ => Action::PublishFail,
                    }
                }
                OpState::SweepBatch { node, cids, outstanding } => match outcome {
                    QueryOutcome::Closest(peers) if !peers.is_empty() => {
                        *outstanding = peers.len();
                        Action::SweepStoreBatch { node: *node, cids: cids.clone(), peers }
                    }
                    _ => Action::SweepFail,
                },
                OpState::PublishIpns { node, name, value, t_walk_end, outstanding, .. } => {
                    *t_walk_end = Some(now);
                    match outcome {
                        QueryOutcome::Closest(peers) if !peers.is_empty() => {
                            *outstanding = peers.len();
                            Action::IpnsBatch {
                                node: *node,
                                key: Key::from_peer(name),
                                value: value.clone(),
                                peers,
                            }
                        }
                        _ => Action::IpnsFail,
                    }
                }
                OpState::ResolveIpns { .. } => match outcome {
                    QueryOutcome::Value { value, .. } => Action::IpnsResolved { value },
                    _ => Action::IpnsFail,
                },
                OpState::Retrieve {
                    node,
                    phase,
                    t_bitswap_end,
                    t_provider_end,
                    t_peer_end,
                    probe_session,
                    probe_havers,
                    walks_outstanding,
                    ..
                } => match (&*phase, outcome) {
                    // A provider-walk result can arrive while still in the
                    // Bitswap probe when the parallel-lookup ablation is on
                    // (§6.4): the DHT won the race, so cancel the probe and
                    // proceed.
                    (
                        RetrievePhase::ProviderWalk | RetrievePhase::BitswapProbe,
                        QueryOutcome::Providers { records, .. },
                    ) => {
                        if *phase == RetrievePhase::BitswapProbe {
                            t_bitswap_end.get_or_insert(now);
                            if let Some(session) = probe_session.take() {
                                // Cancelled out-of-band below (phase 2 needs
                                // fresh borrows); stash in the fetch path,
                                // carrying any peers the probe turned up.
                                *probe_havers = self.nodes[*node]
                                    .node
                                    .bitswap
                                    .responsive_session_peers(session);
                                self_probe_cancel.push((*node, session));
                            }
                        }
                        *t_provider_end = Some(now);
                        // The whole provider set seeds the fetch swarm
                        // (deduped, order-preserving, capped) instead of
                        // just the first record.
                        let mut unique: Vec<&kademlia::ProviderRecord> = Vec::new();
                        for r in &records {
                            if !unique.iter().any(|u| u.provider == r.provider) {
                                unique.push(r);
                            }
                        }
                        unique.truncate(self.cfg.max_fetch_providers.max(1));
                        let primary_carries =
                            self.cfg.provider_records_carry_addrs && !unique[0].addrs.is_empty();
                        if primary_carries {
                            *t_peer_end = Some(now);
                            *phase = RetrievePhase::Fetch;
                            Action::Fetch {
                                node: *node,
                                providers: unique
                                    .iter()
                                    .filter(|r| !r.addrs.is_empty())
                                    .map(|r| {
                                        Arc::new(PeerInfo::new(r.provider.clone(), r.addrs.clone()))
                                    })
                                    .collect(),
                            }
                        } else {
                            // Defer the address-book lookups to phase 2
                            // (they need a different borrow); stash intent.
                            Action::PeerWalk {
                                node: *node,
                                providers: unique.iter().map(|r| r.provider.clone()).collect(),
                            }
                        }
                    }
                    (RetrievePhase::PeerWalk, QueryOutcome::Peer(Some(info))) => {
                        *walks_outstanding = walks_outstanding.saturating_sub(1);
                        *t_peer_end = Some(now);
                        *phase = RetrievePhase::Fetch;
                        Action::Fetch { node: *node, providers: vec![info] }
                    }
                    // A secondary provider's walk resolved after the swarm
                    // started: dial it into the running session.
                    (RetrievePhase::Fetch, QueryOutcome::Peer(Some(info))) => {
                        *walks_outstanding = walks_outstanding.saturating_sub(1);
                        Action::JoinFetch { node: *node, provider: info }
                    }
                    (RetrievePhase::PeerWalk, QueryOutcome::Peer(None)) => {
                        *walks_outstanding = walks_outstanding.saturating_sub(1);
                        if *walks_outstanding == 0 {
                            Action::RetrieveFail
                        } else {
                            Action::Nothing
                        }
                    }
                    (RetrievePhase::Fetch, QueryOutcome::Peer(None)) => {
                        *walks_outstanding = walks_outstanding.saturating_sub(1);
                        Action::Nothing
                    }
                    _ => Action::RetrieveFail,
                },
            }
        };
        // Phase 2: perform the action with fresh borrows.
        for (node, session) in self_probe_cancel {
            self.session_owner.remove(&(node, session));
            self.drain_session_obs(node, session);
            let outputs = self.nodes[node].node.bitswap.cancel_session(session);
            let ctx = self.op_ctx(node, op);
            self.process_bitswap_outputs(node, outputs, ctx);
        }
        match action {
            Action::PublishBatch { node, cid, peers } => {
                self.dtrace
                    .record_with(op, now, || TraceEventKind::PhaseEntered { phase: "rpc_batch" });
                let provider = Arc::clone(self.nodes[node].node.info());
                let key = Key::from_cid(&cid);
                for target in peers {
                    self.send_provider_store(op, node, target, key, Arc::clone(&provider));
                }
            }
            Action::PublishFail => self.finish_publish(now, op, false),
            Action::SweepStoreBatch { node, cids, peers } => {
                // One batched ADD_PROVIDER per closest peer carries every
                // CID in the neighborhood — k messages for the whole
                // batch instead of k per CID.
                let provider = Arc::clone(self.nodes[node].node.info());
                let keys: Arc<Vec<Key>> = Arc::new(cids.iter().map(Key::from_cid).collect());
                for target in peers {
                    self.send_provider_batch(
                        op,
                        node,
                        target,
                        Arc::clone(&keys),
                        Arc::clone(&provider),
                    );
                }
            }
            Action::SweepFail => {
                // The walk found nobody to store at: these CIDs miss this
                // refresh round and retry at the next sweep (their records
                // survive — expiry is 24 h against a 12 h sweep cadence).
                self.metrics.incr(names::PROVIDER_SWEEP_BATCH_FAILED);
                self.ops.remove(&op);
            }
            Action::IpnsBatch { node, key, value, peers } => {
                self.dtrace
                    .record_with(op, now, || TraceEventKind::PhaseEntered { phase: "rpc_batch" });
                for target in peers {
                    self.send_value_store(op, node, target, key, value.clone());
                }
            }
            Action::IpnsFail => match self.ops.get(&op) {
                Some(OpState::PublishIpns { .. }) => self.finish_ipns_publish(now, op),
                Some(OpState::ResolveIpns { .. }) => self.finish_ipns_resolve(now, op, None),
                _ => {}
            },
            Action::IpnsResolved { value } => self.finish_ipns_resolve(now, op, Some(value)),
            Action::PeerWalk { node, providers } => {
                // §3.2: check the address book before the second walk —
                // for every provider in the swarm. Book hits dial now;
                // misses get their own peer-record walks and join the
                // fetch as they resolve.
                let mut dial_now: Vec<Arc<PeerInfo>> = Vec::new();
                let mut to_walk: Vec<PeerId> = Vec::new();
                let mut primary_hit = false;
                for (i, provider) in providers.into_iter().enumerate() {
                    if let Some(addrs) = self.nodes[node].node.addr_book.lookup(&provider) {
                        if i == 0 {
                            primary_hit = true;
                        }
                        dial_now.push(Arc::new(PeerInfo::new(provider, addrs)));
                    } else {
                        to_walk.push(provider);
                    }
                }
                if !dial_now.is_empty() {
                    if let Some(OpState::Retrieve {
                        phase,
                        t_peer_end,
                        addrbook_hit,
                        walks_outstanding,
                        ..
                    }) = self.ops.get_mut(&op)
                    {
                        *t_peer_end = Some(now);
                        *phase = RetrievePhase::Fetch;
                        *addrbook_hit = primary_hit;
                        *walks_outstanding = to_walk.len();
                    }
                    self.metrics.incr(names::ADDR_BOOK_HITS);
                    self.dtrace.record_with(op, now, || TraceEventKind::AddrBookHit);
                    self.start_fetch(op, node, dial_now);
                } else {
                    if let Some(OpState::Retrieve { phase, walks_outstanding, .. }) =
                        self.ops.get_mut(&op)
                    {
                        *phase = RetrievePhase::PeerWalk;
                        *walks_outstanding = to_walk.len();
                    }
                    self.dtrace.record_with(op, now, || TraceEventKind::PhaseEntered {
                        phase: "peer_walk",
                    });
                }
                for provider in to_walk {
                    let key = Key::from_peer(&provider);
                    let (qid, outputs) =
                        self.nodes[node].node.dht.start_query(key, QueryTarget::Peer(provider));
                    self.query_owner.insert((node, qid), op);
                    self.process_dht_outputs(node, outputs);
                }
            }
            Action::Fetch { node, providers } => {
                for provider in &providers {
                    self.nodes[node].node.addr_book.insert(&provider.peer, &provider.addrs);
                }
                self.start_fetch(op, node, providers);
            }
            Action::JoinFetch { node, provider } => {
                self.nodes[node].node.addr_book.insert(&provider.peer, &provider.addrs);
                self.join_fetch(op, node, provider);
            }
            Action::RetrieveFail => self.finish_retrieve(now, op, false),
            Action::CancelProbe { .. } | Action::Nothing => {}
        }
    }

    fn send_provider_store(
        &mut self,
        op: OpId,
        from: NodeId,
        to: Arc<PeerInfo>,
        key: Key,
        provider: Arc<PeerInfo>,
    ) {
        // The connection from the walk may already be gone (conn-manager
        // pruning / churn between response and store): the re-dial then
        // burns a transport timeout — the source of Figure 9c's spikes.
        let stale = self.rng.random_range(0.0..1.0) < self.cfg.stale_dial_prob;
        match (stale, self.dial(from, &to.peer)) {
            (false, Some((target, connect_delay))) => {
                let delay = connect_delay + self.one_way(from, target);
                if self.degraded_loss(from, target) {
                    self.queue.schedule(delay, NetEvent::ProviderStoreSettled { op, ok: false });
                    return;
                }
                self.queue.schedule(
                    delay,
                    NetEvent::ProviderStoreArrive { from, to: target, key, provider },
                );
                // Fire-and-forget: the publisher's batch item settles when
                // the send completes (§3.1).
                self.queue.schedule(delay, NetEvent::ProviderStoreSettled { op, ok: true });
            }
            _ => {
                let (delay, _) = self.sample_fail_delay();
                self.queue.schedule(delay, NetEvent::ProviderStoreSettled { op, ok: false });
            }
        }
    }

    /// Like [`Self::send_provider_store`], but one message carries every
    /// key of a sweep batch. The dial economics (stale-connection draw,
    /// transport timeouts, degraded-link loss) are identical per message —
    /// the sweep's win is needing k messages per *batch* rather than per
    /// CID.
    fn send_provider_batch(
        &mut self,
        op: OpId,
        from: NodeId,
        to: Arc<PeerInfo>,
        keys: Arc<Vec<Key>>,
        provider: Arc<PeerInfo>,
    ) {
        let stale = self.rng.random_range(0.0..1.0) < self.cfg.stale_dial_prob;
        match (stale, self.dial(from, &to.peer)) {
            (false, Some((target, connect_delay))) => {
                let delay = connect_delay + self.one_way(from, target);
                if self.degraded_loss(from, target) {
                    self.queue.schedule(delay, NetEvent::ProviderStoreSettled { op, ok: false });
                    return;
                }
                self.queue.schedule(
                    delay,
                    NetEvent::ProviderBatchArrive { from, to: target, keys, provider },
                );
                self.queue.schedule(delay, NetEvent::ProviderStoreSettled { op, ok: true });
            }
            _ => {
                let (delay, _) = self.sample_fail_delay();
                self.queue.schedule(delay, NetEvent::ProviderStoreSettled { op, ok: false });
            }
        }
    }

    fn send_value_store(
        &mut self,
        op: OpId,
        from: NodeId,
        to: Arc<PeerInfo>,
        key: Key,
        value: Vec<u8>,
    ) {
        let stale = self.rng.random_range(0.0..1.0) < self.cfg.stale_dial_prob;
        match (stale, self.dial(from, &to.peer)) {
            (false, Some((target, connect_delay))) => {
                let delay = connect_delay + self.one_way(from, target);
                if self.degraded_loss(from, target) {
                    self.queue.schedule(delay, NetEvent::ValueStoreSettled { op, ok: false });
                    return;
                }
                self.queue
                    .schedule(delay, NetEvent::ValueStoreArrive { from, to: target, key, value });
                self.queue.schedule(delay, NetEvent::ValueStoreSettled { op, ok: true });
            }
            _ => {
                let (delay, _) = self.sample_fail_delay();
                self.queue.schedule(delay, NetEvent::ValueStoreSettled { op, ok: false });
            }
        }
    }

    // ------------------------------------------------------------------
    // Bitswap plumbing
    // ------------------------------------------------------------------

    /// Exports a session's counters and per-peer latency samples into the
    /// metrics registry through pre-resolved handles. Called exactly once
    /// per session, right before it is cancelled or its op finishes.
    fn drain_session_obs(&mut self, node: NodeId, session: SessionHandle) {
        if let Some(stats) = self.nodes[node].node.bitswap.session_stats(session) {
            self.metrics.add_handle(self.hot.session_wants_sent, stats.wants_sent);
            self.metrics.add_handle(self.hot.session_reroutes, stats.reroutes);
        }
        let samples = self.nodes[node].node.bitswap.take_latency_samples(session);
        for (_peer, nanos) in samples {
            self.metrics.observe_handle(self.hot.peer_latency_ms, nanos as f64 / 1e6);
        }
    }

    /// Session tuning derived from the network config.
    fn session_config(&self) -> SessionConfig {
        SessionConfig { duplicate_factor: self.cfg.duplicate_factor, ..SessionConfig::default() }
    }

    /// Dials every provider of the swarm concurrently. The first
    /// connection to come up creates the fetch session; later ones join it
    /// ([`IpfsNetwork::on_fetch_connected`]). One guard timer covers the
    /// whole fetch; with a single unreachable provider the op fails after
    /// the dial timeout exactly as the old single-provider path did.
    fn start_fetch(&mut self, op: OpId, node: NodeId, providers: Vec<Arc<PeerInfo>>) {
        let now = self.now();
        if let Some(OpState::Retrieve { t_fetch_start, .. }) = self.ops.get_mut(&op) {
            *t_fetch_start = Some(now);
        }
        self.dtrace.record_with(op, now, || TraceEventKind::PhaseEntered { phase: "fetch" });
        let mut guard_armed = false;
        let mut fail_delays: Vec<SimDuration> = Vec::new();
        for provider in providers {
            let peer = self.resolve(&provider.peer).unwrap_or(usize::MAX);
            self.dtrace.record_with(op, now, || TraceEventKind::DialStarted { peer });
            match self.dial(node, &provider.peer) {
                Some((_, connect_delay)) => {
                    let warm = connect_delay == SimDuration::ZERO;
                    self.dtrace.record_with(op, now, || TraceEventKind::DialOk { peer, warm });
                    if let Some(OpState::Retrieve { fetch_candidates, .. }) = self.ops.get_mut(&op)
                    {
                        if !fetch_candidates.contains(&provider.peer) {
                            fetch_candidates.push(provider.peer.clone());
                        }
                    }
                    self.queue.schedule(
                        connect_delay,
                        NetEvent::FetchConnected { op, provider: provider.peer.clone() },
                    );
                    if !guard_armed {
                        self.queue.schedule(self.cfg.fetch_timeout, NetEvent::FetchTimeout { op });
                        self.dtrace.record_with(op, now, || TraceEventKind::TimerArmed {
                            timer: "fetch_guard",
                        });
                        guard_armed = true;
                    }
                }
                None => {
                    let (delay, class) = self.sample_fail_delay();
                    self.dtrace.record_with(op, now, || TraceEventKind::DialFailed { peer, class });
                    fail_delays.push(delay);
                }
            }
        }
        if !guard_armed {
            // Every provider unreachable: the retrieval fails once the
            // slowest dial timeout has burned.
            let delay = fail_delays.into_iter().max().unwrap_or(self.cfg.fetch_timeout);
            self.queue.schedule(delay, NetEvent::FetchTimeout { op });
        }
    }

    /// Dials one extra provider for an already-running fetch (a secondary
    /// peer-record walk resolved after the swarm started). Dial failures
    /// are simply dropped — the running session carries the transfer.
    fn join_fetch(&mut self, op: OpId, node: NodeId, provider: Arc<PeerInfo>) {
        let now = self.now();
        let peer = self.resolve(&provider.peer).unwrap_or(usize::MAX);
        self.dtrace.record_with(op, now, || TraceEventKind::DialStarted { peer });
        match self.dial(node, &provider.peer) {
            Some((_, connect_delay)) => {
                let warm = connect_delay == SimDuration::ZERO;
                self.dtrace.record_with(op, now, || TraceEventKind::DialOk { peer, warm });
                if let Some(OpState::Retrieve { fetch_candidates, .. }) = self.ops.get_mut(&op) {
                    if !fetch_candidates.contains(&provider.peer) {
                        fetch_candidates.push(provider.peer.clone());
                    }
                }
                self.queue.schedule(
                    connect_delay,
                    NetEvent::FetchConnected { op, provider: provider.peer.clone() },
                );
            }
            None => {
                let (_, class) = self.sample_fail_delay();
                self.dtrace.record_with(op, now, || TraceEventKind::DialFailed { peer, class });
            }
        }
    }

    fn on_fetch_connected(&mut self, op: OpId, provider: PeerId) {
        let Some(OpState::Retrieve {
            node,
            cid,
            fetch_session,
            probe_havers,
            fetch_candidates,
            ..
        }) = self.ops.get(&op)
        else {
            return;
        };
        let (node, cid, existing, havers, candidates) =
            (*node, cid.clone(), *fetch_session, probe_havers.clone(), fetch_candidates.clone());
        let now = self.now();
        if self.dtrace.collecting() {
            // The dial component of the §6.2 split ends here: the
            // connection to the provider is up (instantly for warm
            // reuse) and the Bitswap exchange begins.
            let peer = self.resolve(&provider).unwrap_or(usize::MAX);
            self.dtrace.record_with(op, now, || TraceEventKind::DialCompleted { peer });
        }
        if let Some(session) = existing {
            // A later swarm member came up: join the running session.
            let n = &mut self.nodes[node];
            n.node.bitswap.set_clock(now.as_nanos());
            let outputs = n.node.bitswap.add_session_peer(session, provider, &mut n.node.store);
            let ctx = self.op_ctx(node, op);
            self.process_bitswap_outputs(node, outputs, ctx);
            return;
        }
        // First connection up: create the session. Every swarm member
        // whose dial is still completing joins the candidate set now (the
        // WANT-HAVE round overlaps their connects), and peers that
        // answered the opportunistic probe with HAVE short-circuit in —
        // they already proved they hold (part of) the content.
        let mut peers = vec![provider];
        for candidate in candidates.into_iter().chain(havers) {
            if !peers.contains(&candidate) {
                peers.push(candidate);
            }
        }
        let session_cfg = self.session_config();
        let n = &mut self.nodes[node];
        n.node.bitswap.set_clock(now.as_nanos());
        let (session, outputs) =
            n.node.bitswap.start_session_with(cid, peers, session_cfg, &mut n.node.store);
        if let Some(OpState::Retrieve { fetch_session, .. }) = self.ops.get_mut(&op) {
            *fetch_session = Some(session);
        }
        self.session_owner.insert((node, session), op);
        let ctx = self.op_ctx(node, op);
        self.process_bitswap_outputs(node, outputs, ctx);
    }

    /// The causal context of an op's current activity: trace id from the
    /// op's identity, parent span from its active retrieval phase (the op
    /// root for non-retrieve ops or ops already finalized). Returns
    /// [`TraceCtx::NONE`] when the sink is off, so the disabled path costs
    /// one branch and carries zeroes.
    fn op_ctx(&self, node: NodeId, op: OpId) -> TraceCtx {
        if !self.dtrace.active() {
            return TraceCtx::NONE;
        }
        let tid = dtrace::trace_id(node, op);
        let parent = match self.ops.get(&op) {
            Some(OpState::Retrieve { phase, .. }) => {
                let label = match phase {
                    RetrievePhase::BitswapProbe => "bitswap_probe",
                    RetrievePhase::ProviderWalk => "provider_walk",
                    RetrievePhase::PeerWalk => "peer_walk",
                    RetrievePhase::Fetch => "fetch",
                };
                dtrace::phase_span(tid, label)
            }
            _ => dtrace::root_span(tid),
        };
        TraceCtx { trace_id: tid, parent_span: parent }
    }

    /// Records the causal trail of a mid-fetch peer loss: one
    /// `bs:reroute` fragment per want re-sent to a surviving candidate
    /// and one `bs:want_failed` per want with nowhere left to go. `b`
    /// carries the dead node's id so post-mortems can name the lost peer.
    fn record_reroute_fragments(
        &mut self,
        op: OpId,
        node: NodeId,
        dead: NodeId,
        outputs: &[EngineOutput],
        now: SimTime,
    ) {
        let tid = dtrace::trace_id(node, op);
        let parent = dtrace::root_span(tid);
        for out in outputs {
            match out {
                EngineOutput::Send { to, message: Message::WantBlock(cid) } => {
                    let target = self.resolve(to);
                    self.dtrace.record_span(
                        tid,
                        parent,
                        node,
                        target,
                        "bs",
                        "reroute",
                        cid_low64(cid),
                        dead as u64,
                        now,
                        now,
                    );
                }
                EngineOutput::WantFailed { cid, .. } => {
                    self.dtrace.record_span(
                        tid,
                        parent,
                        node,
                        None,
                        "bs",
                        "want_failed",
                        cid_low64(cid),
                        dead as u64,
                        now,
                        now,
                    );
                }
                _ => {}
            }
        }
    }

    fn process_bitswap_outputs(&mut self, id: NodeId, outputs: Vec<EngineOutput>, ctx: TraceCtx) {
        for output in outputs {
            match output {
                EngineOutput::Send { to, message } => {
                    let Some(target) = self.resolve(&to) else { continue };
                    // The Bitswap engine tracks session peers on its own;
                    // a partition that severed the connection set must
                    // also stop sends the engine still believes possible.
                    if self.cut_in_flight(id, target) || self.degraded_loss(id, target) {
                        continue; // session guard timers handle the fallout
                    }
                    self.metrics.incr_handle(self.hot.bitswap_sent[bitswap_kind(&message)]);
                    let bytes = message.wire_size();
                    let from_region = self.nodes[id].region;
                    let from_bw = self.nodes[id].bandwidth;
                    let to_region = self.nodes[target].region;
                    let to_bw = self.nodes[target].bandwidth;
                    let delay = self.cfg.latency.sample_transfer(
                        &mut self.rng,
                        bytes,
                        from_region,
                        from_bw,
                        to_region,
                        to_bw,
                    );
                    let delay = self.inflate_latency(delay, from_region, to_region);
                    // BLOCK payloads serialize at the sender's uplink:
                    // concurrent transfers queue behind each other (zero
                    // wait for an isolated block, so single-provider
                    // timings are untouched). `sample_transfer` already
                    // prices this block's own serialization; the queue
                    // adds only the wait for earlier committed blocks.
                    let delay = if let Message::Block { data, .. } = &message {
                        let now = self.now();
                        let start = self.nodes[id].uplink_free_at.max(now);
                        let tx = SimDuration::from_secs_f64(
                            (data.len() as f64 * 8.0) / from_bw.up_bps() as f64,
                        );
                        self.nodes[id].uplink_free_at = start + tx;
                        if self.dtrace.active() {
                            // The serve span a remote peer contributes to the
                            // requester's trace: this block's serialization
                            // at the sender's uplink, with the queue wait
                            // behind earlier blocks kept in `b`.
                            self.dtrace.record_span(
                                ctx.trace_id,
                                ctx.parent_span,
                                id,
                                Some(target),
                                "bs",
                                "block_serve",
                                data.len() as u64,
                                start.since(now).as_nanos(),
                                start,
                                start + tx,
                            );
                        }
                        delay + start.since(now)
                    } else {
                        delay
                    };
                    self.queue.schedule(
                        delay,
                        NetEvent::BitswapArrive {
                            from: id,
                            to: target,
                            message: Box::new(message),
                            ctx,
                        },
                    );
                }
                EngineOutput::SessionComplete { session } => {
                    if let Some(op) = self.session_owner.remove(&(id, session)) {
                        self.on_session_complete(op, session);
                    }
                }
                EngineOutput::BlockStored { session, .. } => {
                    self.metrics.incr(names::BITSWAP_BLOCKS_STORED);
                    self.metrics.incr_handle(self.hot.session_blocks_received);
                    if self.dtrace.collecting() {
                        if let Some(&op) = self.session_owner.get(&(id, session)) {
                            let now = self.now();
                            self.dtrace.record_with(op, now, || TraceEventKind::BlockReceived);
                        }
                    }
                }
                EngineOutput::DuplicateBlock { .. } => {
                    // A duplicate-factor race (or re-routed want) delivered
                    // the same block twice: wasted bytes, counted.
                    self.metrics.incr_handle(self.hot.session_dup_blocks);
                }
                EngineOutput::WantFailed { session, .. } => {
                    // Expected during the probe phase (neighbours lack the
                    // content); fatal during a fetch (provider reneged).
                    let owner = self.session_owner.get(&(id, session)).copied();
                    if let Some(op) = owner {
                        let in_fetch = matches!(
                            self.ops.get(&op),
                            Some(OpState::Retrieve { phase: RetrievePhase::Fetch, .. })
                        );
                        if in_fetch {
                            self.session_owner.remove(&(id, session));
                            let now = self.now();
                            self.finish_retrieve(now, op, false);
                        }
                    }
                }
            }
        }
    }

    fn on_session_complete(&mut self, op: OpId, session: SessionHandle) {
        let now = self.now();
        let finish = {
            let Some(OpState::Retrieve {
                phase, probe_session, via_bitswap, t_bitswap_end, ..
            }) = self.ops.get_mut(&op)
            else {
                return;
            };
            match phase {
                RetrievePhase::BitswapProbe if *probe_session == Some(session) => {
                    // A neighbour had the content: resolved via Bitswap.
                    *via_bitswap = true;
                    *t_bitswap_end = Some(now);
                    true
                }
                RetrievePhase::Fetch => true,
                _ => false,
            }
        };
        if finish {
            self.finish_retrieve(now, op, true);
        }
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    fn finish_publish(&mut self, now: SimTime, op: OpId, success: bool) {
        let Some(OpState::Publish {
            node,
            cid,
            t0,
            t_walk_end,
            phase,
            silent,
            walk_rpcs,
            walk_failures,
        }) = self.ops.remove(&op)
        else {
            return;
        };
        if silent {
            return;
        }
        let t_walk = t_walk_end.unwrap_or(now);
        let stored = match phase {
            PublishPhase::RpcBatch { stored, .. } => stored,
            PublishPhase::Walk => 0,
        };
        let ok = success && stored > 0;
        self.metrics.incr(if ok { names::PUBLISH_SUCCESS } else { names::PUBLISH_FAILED });
        self.dtrace.record_with(op, now, || TraceEventKind::OpFinished { success: ok });
        self.publish_reports.push(PublishReport {
            op,
            node,
            cid,
            started_at: t0,
            total: now - t0,
            dht_walk: t_walk - t0,
            rpc_batch: now - t_walk,
            records_stored: stored,
            walk_rpcs,
            walk_failures,
            success: ok,
        });
    }

    fn finish_retrieve(&mut self, now: SimTime, op: OpId, success: bool) {
        let Some(OpState::Retrieve {
            node,
            cid,
            t0,
            t_bitswap_end,
            t_provider_end,
            t_peer_end,
            t_fetch_start,
            probe_session,
            fetch_session,
            via_bitswap,
            addrbook_hit,
            ..
        }) = self.ops.remove(&op)
        else {
            return;
        };
        for s in [probe_session, fetch_session].into_iter().flatten() {
            self.session_owner.remove(&(node, s));
            self.drain_session_obs(node, s);
            if !success {
                // Abort the transfer: CANCEL everything still in flight
                // and drop the session, so a later disconnect can't
                // resurrect a dead op's wants.
                let outputs = self.nodes[node].node.bitswap.cancel_session(s);
                let ctx = self.op_ctx(node, op);
                self.process_bitswap_outputs(node, outputs, ctx);
            }
        }
        let t_bs = t_bitswap_end.unwrap_or(now);
        let t_prov = t_provider_end.unwrap_or(t_bs);
        let t_peer = t_peer_end.unwrap_or(t_prov);
        let t_fetch0 = t_fetch_start.unwrap_or(t_peer);
        let bytes = if success { self.nodes[node].node.store.stats().bytes } else { 0 };
        self.metrics.incr(if success { names::RETRIEVE_SUCCESS } else { names::RETRIEVE_FAILED });
        if success && via_bitswap {
            self.metrics.incr(names::RETRIEVE_VIA_BITSWAP);
        }
        self.dtrace.record_with(op, now, || TraceEventKind::OpFinished { success });
        self.retrieve_reports.push(RetrieveReport {
            op,
            node,
            cid: cid.clone(),
            started_at: t0,
            total: now - t0,
            bitswap_probe: t_bs - t0,
            provider_walk: t_prov - t_bs,
            peer_walk: t_peer - t_prov,
            fetch: now - t_fetch0,
            bytes,
            success,
            via_bitswap,
            addrbook_hit,
        });
        // Flight recorder: a failed or flagged (mid-fetch re-route) op
        // dumps its full causal trail — every ring fragment its trace id
        // touched on any node.
        if self.dtrace.config().postmortem && (!success || self.dtrace.is_flagged(op)) {
            let entries = self.dtrace.ring_entries_for(dtrace::trace_id(node, op));
            let outcome = if success { "rerouted" } else { "failed" };
            let text = dtrace::render_postmortem(op, node, "retrieve", outcome, t0, now, &entries);
            self.postmortems.push((op, text));
        }
        // §3.1: "any peer that later retrieves the data becomes a
        // temporary ... content provider themselves by publishing a
        // provider record".
        if success && self.cfg.retriever_becomes_provider {
            self.publish_inner(node, cid, true);
        }
    }

    // ------------------------------------------------------------------
    // Physics
    // ------------------------------------------------------------------

    /// Attempts to dial `peer` from `from`: returns the target node id and
    /// the connection-establishment delay (zero over a warm connection,
    /// four latency legs for a fresh dial — TCP+TLS-style), or `None` if
    /// the peer is not dialable.
    fn dial(&mut self, from: NodeId, peer: &PeerId) -> Option<(NodeId, SimDuration)> {
        let target = self.resolve(peer)?;
        self.metrics.incr_handle(self.hot.dials_attempted);
        if !self.nodes[target].online {
            return None;
        }
        if self.faults.has_active_faults() {
            if self.faults.blocked(self.nodes[from].region, self.nodes[target].region) {
                // A warm connection across the cut is dead even if the
                // connection manager hasn't noticed: invalidate it so the
                // Bitswap probe can't reuse it either.
                if self.nodes[from].connections.remove(target) {
                    self.nodes[target].connections.remove(from);
                    self.metrics.incr(names::FAULT_CONNS_SEVERED);
                }
                self.metrics.incr(names::FAULT_DIALS_BLOCKED);
                return None;
            }
            let spike = self.faults.extra_dial_fail_prob();
            if spike > 0.0 && self.rng.random_range(0.0..1.0) < spike {
                self.metrics.incr(names::FAULT_DIALS_SPIKED);
                return None;
            }
        }
        if let Some(last_used) = self.nodes[from].connections.last_used(target) {
            let now = self.now();
            if now.since(last_used) > self.cfg.conn_idle_timeout {
                // The connection manager closed this idle connection long
                // ago; fall through to a fresh dial.
                self.nodes[from].connections.remove(target);
                self.nodes[target].connections.remove(from);
                self.metrics.incr_handle(self.hot.conn_idle_expired);
            } else {
                self.nodes[from].connections.insert(target, now);
                self.metrics.incr_handle(self.hot.dials_warm);
                return Some((target, SimDuration::ZERO));
            }
        }
        let extra_legs = if self.nodes[target].is_server {
            4 // SYN, SYN-ACK, TLS x2
        } else if self.cfg.enable_dcutr {
            // Hole punch through a relay (§3.1's DCUtR): relay signalling
            // plus the simultaneous-open attempt — roughly twice the legs
            // of a direct dial, and it only works sometimes.
            if self.rng.random_range(0.0..1.0) >= self.cfg.dcutr_success_rate {
                return None;
            }
            8
        } else {
            // NAT'ed peer without hole punching: not dialable (§3.1:
            // "peers behind NATs cannot host content themselves").
            return None;
        };
        let d = self.one_way(from, target) * extra_legs;
        let now = self.now();
        self.nodes[from].connections.insert(target, now);
        self.nodes[target].connections.insert(from, now);
        self.prune_connections(from);
        self.prune_connections(target);
        self.metrics.incr_handle(self.hot.dials_ok);
        Some((target, d))
    }

    fn one_way(&mut self, a: NodeId, b: NodeId) -> SimDuration {
        let ra = self.nodes[a].region;
        let rb = self.nodes[b].region;
        let base = self.cfg.latency.sample_one_way(&mut self.rng, ra, rb);
        self.inflate_latency(base, ra, rb)
    }

    /// Applies any active degradation's latency multiplier to a sampled
    /// delay. No-op (and float-exact) when no window covers the path.
    fn inflate_latency(&self, base: SimDuration, ra: Region, rb: Region) -> SimDuration {
        if !self.faults.has_active_faults() {
            return base;
        }
        let factor = self.faults.latency_factor(ra, rb);
        if factor > 1.0 {
            SimDuration::from_secs_f64(base.as_secs_f64() * factor)
        } else {
            base
        }
    }

    /// Samples the delay of a failed dial per the §6.1 timeout mix. A
    /// small positive overhead rides on top of each timer (address
    /// resolution, scheduler latency), so failures land just *past* the
    /// 5 s / 45 s marks like the spikes in Figure 9c. Returns the delay
    /// and its transport class, and meters the failure.
    fn sample_fail_delay(&mut self) -> (SimDuration, DialClass) {
        let x: f64 = self.rng.random_range(0.0..1.0);
        let overhead = SimDuration::from_millis(self.rng.random_range(20..300));
        let t = &self.cfg.timeouts;
        let (delay, class) = if x < t.fast_refuse_share {
            (t.fast_refuse_delay + overhead, DialClass::FastRefuse)
        } else if x < t.fast_refuse_share + t.websocket_share {
            (t.websocket_timeout + overhead, DialClass::Websocket45s)
        } else {
            (t.dial_timeout + overhead, DialClass::Timeout5s)
        };
        self.metrics.incr_handle(self.hot.dials_failed);
        self.metrics.incr_handle(self.hot.dial_fail[dial_class_kind(class)]);
        (delay, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::PopulationConfig;

    #[test]
    fn offline_nodes_leave_no_pending_timers() {
        // A node whose session ends must not keep a refresh chain ticking
        // in the scheduler. With no always-online vantage or hydra nodes,
        // only the currently-online population may hold pending timers
        // once every scheduled session has played out.
        let pop = Population::generate(
            PopulationConfig {
                size: 60,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(2),
                ..Default::default()
            },
            21,
        );
        let cfg = NetworkConfig {
            table_refresh_interval: Some(SimDuration::from_mins(10)),
            ..NetworkConfig::default()
        };
        let mut net = IpfsNetwork::from_population(&pop, &[], cfg, 21);
        let deadline = SimTime::ZERO + SimDuration::from_hours(3);
        net.run_until(deadline);
        let online = net.nodes.iter().filter(|n| n.online).count();
        assert!(online < net.nodes.len(), "test needs at least one offline node");
        for (id, node) in net.nodes.iter().enumerate() {
            if !node.online {
                assert!(node.refresh_timer.is_none(), "offline node {id} holds a refresh timer");
            }
        }
        // Everything still pending must be either one refresh timer per
        // online node or a churn transition scheduled past the deadline —
        // permanently-offline nodes contribute nothing.
        let future_churn: usize = pop
            .peers
            .iter()
            .flat_map(|p| p.schedule.sessions.iter())
            .map(|&(start, end)| usize::from(start > deadline) + usize::from(end > deadline))
            .sum();
        assert!(
            net.queue.len() <= online + future_churn,
            "{} pending events for {online} online nodes + {future_churn} future churns: \
             offline refresh chains leak",
            net.queue.len()
        );
    }

    fn lifecycle_net(sweep: bool) -> IpfsNetwork {
        let pop = Population::generate(
            PopulationConfig {
                size: 150,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(12),
                ..Default::default()
            },
            23,
        );
        let cfg = NetworkConfig {
            auto_republish: true,
            reprovide_sweep: sweep,
            node: NodeConfig {
                republish_interval: SimDuration::from_hours(1),
                ..NodeConfig::default()
            },
            ..NetworkConfig::default()
        };
        IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, 23)
    }

    #[test]
    fn republish_chain_survives_provider_downtime() {
        // go-ipfs reprovides on startup: a provider that is offline when
        // its republish tick would fire must reannounce after it
        // restarts, not drop the chain forever. Per-CID chain mode.
        let mut net = lifecycle_net(false);
        let [provider] = net.vantage_ids(1)[..] else { panic!() };
        let data = Bytes::from(vec![0x5A; 100_000]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        assert!(net.publish_reports[0].success);
        let entry = net.nodes[provider].provided.get(&Key::from_cid(&cid)).unwrap();
        assert!(entry.timer.is_some(), "republish chain armed");

        // Take the provider down before the boundary and run across it:
        // the parked chain must stay silent while the node is dead.
        net.on_churn(provider, false);
        let entry = net.nodes[provider].provided.get(&Key::from_cid(&cid)).unwrap();
        assert!(entry.timer.is_none() && entry.deferred, "chain parked");
        net.run_until(SimTime::ZERO + SimDuration::from_hours(2));
        assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISHES), 0);

        // Restart: the chain reannounces immediately and re-arms.
        net.on_churn(provider, true);
        let resume_by = net.now() + SimDuration::from_mins(30);
        net.run_until(resume_by);
        assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISH_RESUMED), 1);
        assert!(
            net.metrics.get(names::PROVIDER_REPUBLISHES) >= 1,
            "provider must reannounce after restart"
        );
        let entry = net.nodes[provider].provided.get(&Key::from_cid(&cid)).unwrap();
        assert!(entry.timer.is_some(), "chain re-armed after resume");
    }

    #[test]
    fn reprovide_sweep_survives_provider_downtime() {
        // Same offline-defer/resume contract, sweep mode: the single
        // sweep timer parks at churn-off and the rejoin runs the sweep
        // immediately (reprovide-on-startup), then re-arms it.
        let mut net = lifecycle_net(true);
        let [provider] = net.vantage_ids(1)[..] else { panic!() };
        let data = Bytes::from(vec![0x5A; 100_000]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        assert!(net.publish_reports[0].success);
        assert!(net.nodes[provider].provided.contains_key(&Key::from_cid(&cid)));
        assert!(net.nodes[provider].sweep_timer.is_some(), "sweep timer armed");

        net.on_churn(provider, false);
        assert!(net.nodes[provider].sweep_timer.is_none(), "sweep timer cancelled");
        assert!(net.nodes[provider].sweep_deferred, "sweep parked");
        net.run_until(SimTime::ZERO + SimDuration::from_hours(2));
        assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISHES), 0);
        assert_eq!(net.metrics.get(names::PROVIDER_SWEEP_RUNS), 0);

        net.on_churn(provider, true);
        let resume_by = net.now() + SimDuration::from_mins(30);
        net.run_until(resume_by);
        assert_eq!(net.metrics.get(names::PROVIDER_REPUBLISH_RESUMED), 1);
        assert!(net.metrics.get(names::PROVIDER_SWEEP_RUNS) >= 1, "sweep ran after restart");
        assert!(
            net.metrics.get(names::PROVIDER_REPUBLISHES) >= 1,
            "provider must reannounce after restart"
        );
        assert!(net.nodes[provider].sweep_timer.is_some(), "sweep re-armed after resume");
        // The reannounced record actually landed somewhere: batched
        // stores delivered.
        assert!(net.metrics.get(names::DHT_RPC_RECV_ADD_PROVIDER_BATCH) >= 1);
    }

    #[test]
    fn provided_set_scales_to_ten_thousand_cids() {
        // Regression guard for the O(n) `republish.iter().position(...)`
        // scans the Vec-based provided set paid on every re-arm and every
        // Republish dispatch: arming (and re-arming) 10k CIDs per node
        // must be keyed, not scanned. With the old quadratic path this
        // loop was ~10^8 tuple compares; keyed it is ~10^5 map ops.
        let mut per_cid = lifecycle_net(false);
        let mut sweep = lifecycle_net(true);
        let [p1] = per_cid.vantage_ids(1)[..] else { panic!() };
        let [p2] = sweep.vantage_ids(1)[..] else { panic!() };
        let cids: Vec<Cid> = (0u32..10_000).map(|i| Cid::from_raw_data(&i.to_le_bytes())).collect();
        let t0 = std::time::Instant::now();
        for cid in &cids {
            per_cid.arm_reprovide(p1, cid.clone());
            sweep.arm_reprovide(p2, cid.clone());
        }
        // Re-arm every CID once more: replaces the pending chain entry
        // instead of stacking a second one.
        for cid in &cids {
            per_cid.arm_reprovide(p1, cid.clone());
            sweep.arm_reprovide(p2, cid.clone());
        }
        assert_eq!(per_cid.nodes[p1].provided.len(), 10_000);
        assert_eq!(sweep.nodes[p2].provided.len(), 10_000);
        assert!(per_cid.nodes[p1].provided.values().all(|e| e.timer.is_some()));
        // Sweep mode: one timer maintains all 10k CIDs.
        assert!(sweep.nodes[p2].provided.values().all(|e| e.timer.is_none()));
        assert!(sweep.nodes[p2].sweep_timer.is_some());
        // Generous even for debug builds + CI noise; the quadratic path
        // took minutes here.
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "provided-set maintenance is no longer keyed: {:?}",
            t0.elapsed()
        );
    }

    /// Is a provider record for `key` held (unexpired) by any online node?
    fn record_available(net: &IpfsNetwork, key: &Key) -> bool {
        let now = net.now();
        net.nodes.iter().any(|n| n.online && !n.node.dht.store().providers(key, now).is_empty())
    }

    mod availability_timeline {
        use super::*;
        use proptest::prelude::*;

        /// One lifecycle run: publish `n_cids` from an always-online
        /// vantage provider, maintain them for 26 h (past the 24 h record
        /// expiry, so survival requires republication to actually work),
        /// with a provider outage spanning at least one republish
        /// boundary. Returns the availability observed at each checkpoint.
        fn run_timeline(
            sweep: bool,
            seed: u64,
            interval: SimDuration,
            off_at: SimTime,
            downtime: SimDuration,
            n_cids: usize,
        ) -> Vec<bool> {
            let pop = Population::generate(
                PopulationConfig {
                    size: 60,
                    nat_fraction: 0.3,
                    horizon: SimDuration::from_hours(30),
                    ..Default::default()
                },
                seed,
            );
            let cfg = NetworkConfig {
                auto_republish: true,
                reprovide_sweep: sweep,
                node: NodeConfig { republish_interval: interval, ..NodeConfig::default() },
                ..NetworkConfig::default()
            };
            let mut net =
                IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed);
            let [provider] = net.vantage_ids(1)[..] else { panic!() };
            let mut keys = Vec::new();
            for i in 0..n_cids {
                let data = Bytes::from(vec![seed as u8 ^ i as u8; 4096 + i]);
                let cid = net.import_content(provider, &data);
                keys.push(Key::from_cid(&cid));
                net.publish(provider, cid);
            }
            net.run_until_quiet();
            let on_at = off_at + downtime;
            let mut went_off = false;
            let mut came_back = false;
            let mut timeline = Vec::new();
            // 47 min stride: coprime with the republish interval, so
            // checkpoints land on both sides of every boundary.
            let stride = SimDuration::from_mins(47);
            let end = SimTime::ZERO + SimDuration::from_hours(26);
            let mut t = net.now() + stride;
            while t <= end {
                if !went_off && t >= off_at {
                    net.run_until(off_at);
                    net.on_churn(provider, false);
                    went_off = true;
                }
                if went_off && !came_back && t >= on_at {
                    net.run_until(on_at);
                    net.on_churn(provider, true);
                    came_back = true;
                }
                net.run_until(t);
                // Settling guard: skip the checkpoint immediately after
                // rejoin — the resumed reannounce needs its walk + stores
                // to land before records refresh.
                let settling = came_back && t < on_at + SimDuration::from_mins(45);
                if !settling {
                    timeline.push(keys.iter().all(|k| record_available(&net, k)));
                }
                t += stride;
            }
            timeline
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]
            /// The batched sweep maintains the same record-availability
            /// timeline as per-CID chains: no record expires while its
            /// provider is online, the records survive a provider outage
            /// shorter than the 24 h expiry even when it spans a
            /// republish boundary, and the deferred sweep resumes on
            /// rejoin. Availability must hold at every checkpoint of a
            /// 26 h run (past record expiry, so survival proves the
            /// maintenance loop refreshed them) — in both modes, giving
            /// identical timelines.
            #[test]
            fn sweep_matches_per_cid_availability(
                seed in 1u64..1000,
                interval_mins in 60u64..=120,
                downtime_extra_mins in 5u64..=40,
            ) {
                let interval = SimDuration::from_mins(interval_mins);
                // Outage begins mid-cycle and lasts one interval plus a
                // bit: it always crosses at least one republish boundary.
                let off_at = SimTime::ZERO + SimDuration::from_hours(18);
                let downtime =
                    interval + SimDuration::from_mins(downtime_extra_mins);
                let per_cid =
                    run_timeline(false, seed, interval, off_at, downtime, 3);
                let swept =
                    run_timeline(true, seed, interval, off_at, downtime, 3);
                prop_assert!(
                    per_cid.iter().all(|&a| a),
                    "per-CID chains dropped availability: {per_cid:?}"
                );
                prop_assert!(
                    swept.iter().all(|&a| a),
                    "sweep dropped availability: {swept:?}"
                );
                prop_assert_eq!(per_cid, swept);
            }
        }
    }

    fn small_net(n: usize, seed: u64) -> IpfsNetwork {
        let pop = Population::generate(
            PopulationConfig {
                size: n,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(6),
                ..Default::default()
            },
            seed,
        );
        IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            NetworkConfig::default(),
            seed,
        )
    }

    #[test]
    fn publish_then_retrieve_roundtrip() {
        let mut net = small_net(400, 7);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![0xAB; 512 * 1024]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        assert_eq!(net.publish_reports.len(), 1);
        let pr = &net.publish_reports[0];
        assert!(pr.success, "publish must succeed: {pr:?}");
        assert!(pr.records_stored > 0);
        assert!(pr.dht_walk > SimDuration::ZERO);

        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        assert_eq!(net.retrieve_reports.len(), 1);
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success, "retrieve must succeed: {rr:?}");
        assert!(!rr.via_bitswap, "no warm connections -> DHT path");
        // The 1 s Bitswap timeout is always paid in this setup (§4.3 note 4).
        assert_eq!(rr.bitswap_probe, SimDuration::from_secs(1));
        assert!(rr.provider_walk > SimDuration::ZERO);
        assert!(rr.total >= SimDuration::from_secs(1));
        // Content verifies end-to-end.
        assert_eq!(net.node_mut(requester).read_content(&cid).unwrap(), data);
    }

    #[test]
    fn bitswap_satisfies_connected_neighbours() {
        let mut net = small_net(300, 8);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![0xCD; 100_000]);
        let cid = net.import_content(provider, &data);
        // Warm connection: the opportunistic Bitswap probe should hit.
        net.connect(provider, requester);
        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success);
        assert!(rr.via_bitswap, "neighbour had the content: {rr:?}");
        assert!(rr.total < SimDuration::from_secs(1), "no DHT, no 1 s timeout: {}", rr.total);
        assert_eq!(rr.provider_walk, SimDuration::ZERO);
    }

    #[test]
    fn retrieval_fails_for_unpublished_content() {
        let mut net = small_net(200, 9);
        let [_, requester] = net.vantage_ids(2)[..] else { panic!() };
        let cid = Cid::from_raw_data(b"never published");
        net.retrieve(requester, cid);
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(!rr.success);
        assert!(rr.bitswap_probe >= SimDuration::from_secs(1));
    }

    #[test]
    fn determinism_same_seed_same_reports() {
        let run = |seed: u64| {
            let mut net = small_net(200, seed);
            let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
            let data = Bytes::from(vec![1u8; 200_000]);
            let cid = net.import_content(provider, &data);
            net.publish(provider, cid.clone());
            net.run_until_quiet();
            net.retrieve(requester, cid);
            net.run_until_quiet();
            (net.publish_reports[0].total, net.retrieve_reports[0].total, net.events_processed)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn eu_retrieval_faster_than_africa_on_average() {
        // Table 4's regional ordering must emerge from the latency model.
        let pop = Population::generate(
            PopulationConfig {
                size: 600,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(12),
                ..Default::default()
            },
            11,
        );
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::AfSouth1, VantagePoint::UsWest1],
            NetworkConfig::default(),
            11,
        );
        let [eu, af, us] = net.vantage_ids(3)[..] else { panic!() };
        let mut eu_total = 0.0;
        let mut af_total = 0.0;
        for i in 0..8 {
            let data = Bytes::from(vec![i as u8 + 1; 512 * 1024]);
            let cid = net.import_content(us, &data);
            net.publish(us, cid.clone());
            net.run_until_quiet();
            for requester in [eu, af] {
                net.retrieve(requester, cid.clone());
                net.run_until_quiet();
                let rr = net.retrieve_reports.last().unwrap().clone();
                assert!(rr.success, "iteration {i} from {requester}: {rr:?}");
                if requester == eu {
                    eu_total += rr.total.as_secs_f64();
                } else {
                    af_total += rr.total.as_secs_f64();
                }
                net.disconnect_all(requester);
                let us_peer = net.peer_id(us).clone();
                net.forget_address(requester, &us_peer);
            }
        }
        assert!(
            eu_total < af_total,
            "EU ({eu_total:.2}s) should beat Africa ({af_total:.2}s) in aggregate"
        );
    }

    #[test]
    fn partition_blocks_cross_partition_retrieval_until_heal() {
        let mut net = small_net(400, 7);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        assert_eq!(net.region(requester), Region::NorthAmericaWest);
        let data = Bytes::from(vec![0x5A; 256 * 1024]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        assert!(net.publish_reports[0].success);

        // Cut North America West off from t+10s to t+300s.
        let t0 = net.now();
        let mut plan = FaultPlan::new();
        plan.region_outage(
            t0 + SimDuration::from_secs(10),
            SimDuration::from_secs(290),
            Region::NorthAmericaWest,
        );
        net.install_fault_plan(plan);
        net.run_for(SimDuration::from_secs(20)); // partition is now up

        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(!rr.success, "cross-partition retrieval must fail: {rr:?}");
        assert!(net.metrics().get(names::FAULT_DIALS_BLOCKED) > 0);

        // Heal, then the same retrieval succeeds.
        net.run_until(t0 + SimDuration::from_secs(301));
        assert!(!net.fault_oracle().has_active_faults(), "partition healed");
        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        let rr = net.retrieve_reports[1].clone();
        assert!(rr.success, "post-heal retrieval must succeed: {rr:?}");
        assert_eq!(net.metrics().get(names::FAULT_PARTITION_HEALS), 1);
    }

    #[test]
    fn partition_severs_warm_connections_before_the_probe() {
        // Regression: a warm connection crossing a fresh partition must not
        // feed the 1 s Bitswap probe (the transport would have reset it).
        let mut net = small_net(300, 8);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![0xCD; 100_000]);
        let cid = net.import_content(provider, &data);
        net.connect(provider, requester);
        assert!(net.is_connected(requester, provider));

        let t0 = net.now();
        let mut plan = FaultPlan::new();
        plan.region_outage(
            t0 + SimDuration::from_secs(5),
            SimDuration::from_secs(600),
            net.region(requester),
        );
        net.install_fault_plan(plan);
        net.run_for(SimDuration::from_secs(10));
        assert!(!net.is_connected(requester, provider), "boundary severs the warm conn");
        assert!(net.metrics().get(names::FAULT_CONNS_SEVERED) > 0);

        net.retrieve(requester, cid);
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(!rr.via_bitswap, "probe must not cross the partition: {rr:?}");
        assert!(!rr.success, "provider unreachable during partition: {rr:?}");
    }

    #[test]
    fn crash_wave_takes_peers_down_and_restarts_them() {
        let mut net = small_net(300, 21);
        let t0 = net.now();
        let mut plan = FaultPlan::new();
        plan.crash_wave(t0 + SimDuration::from_secs(30), 0.5, SimDuration::from_secs(120));
        net.install_fault_plan(plan);

        let online_before: usize = (0..net.crashable).filter(|&i| net.is_online(i)).count();
        net.run_until(t0 + SimDuration::from_secs(31));
        let crashed = net.metrics().get(names::FAULT_NODES_CRASHED);
        assert!(crashed > 0, "half the online peers crash");
        let online_during: usize = (0..net.crashable).filter(|&i| net.is_online(i)).count();
        assert!(online_during < online_before);
        // After the restart delay the victims churn back online.
        net.run_until(t0 + SimDuration::from_secs(200));
        let online_after: usize = (0..net.crashable).filter(|&i| net.is_online(i)).count();
        assert!(online_after > online_during, "victims restart after the wave");
        assert_eq!(net.metrics().get(names::FAULT_CRASH_WAVES), 1);
    }

    #[test]
    fn fault_runs_are_deterministic_and_faultless_plans_change_nothing() {
        let run = |plan: Option<FaultPlan>| {
            let mut net = small_net(250, 42);
            let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
            if let Some(p) = plan {
                net.install_fault_plan(p);
            }
            let data = Bytes::from(vec![1u8; 200_000]);
            let cid = net.import_content(provider, &data);
            net.publish(provider, cid.clone());
            net.run_until_quiet();
            net.retrieve(requester, cid);
            net.run_until_quiet();
            net.run_for(SimDuration::from_secs(400));
            (
                net.publish_reports[0].total,
                net.retrieve_reports[0].total,
                net.events_processed,
                net.metrics().to_json(),
            )
        };
        let scripted = || {
            let mut p = FaultPlan::new();
            p.region_outage(
                SimTime::ZERO + SimDuration::from_secs(120),
                SimDuration::from_secs(60),
                Region::EastAsia,
            );
            p.crash_wave(
                SimTime::ZERO + SimDuration::from_secs(200),
                0.2,
                SimDuration::from_secs(90),
            );
            p
        };
        // Same seed + same plan ⇒ byte-identical metrics and reports.
        assert_eq!(run(Some(scripted())), run(Some(scripted())));
        // An installed-but-empty plan leaves the run byte-identical to a
        // plan-free run: the oracle adds no RNG draws while idle.
        assert_eq!(run(None), run(Some(FaultPlan::new())));
    }

    #[test]
    fn degraded_links_slow_but_do_not_stop_retrieval() {
        let mut net = small_net(300, 17);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![9u8; 256 * 1024]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();

        let mut plan = FaultPlan::new();
        plan.degrade(net.now(), SimDuration::from_hours(2), faultsim::LinkScope::All, 4.0, 0.05);
        net.install_fault_plan(plan);
        net.run_for(SimDuration::from_secs(1));
        net.retrieve(requester, cid);
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success, "degradation slows but does not cut: {rr:?}");
        assert_eq!(net.metrics().get(names::FAULT_DEGRADE_STARTS), 1);
    }

    #[test]
    fn churn_does_not_break_retrieval() {
        // Run several hours into the horizon so churn events have fired,
        // then publish/retrieve must still succeed.
        let mut net = small_net(500, 13);
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        net.run_for(SimDuration::from_hours(3));
        let data = Bytes::from(vec![3u8; 512 * 1024]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        assert!(net.publish_reports[0].success);
        net.retrieve(requester, cid);
        net.run_until_quiet();
        assert!(net.retrieve_reports[0].success, "{:?}", net.retrieve_reports[0]);
    }

    #[test]
    fn ipns_publish_and_resolve_over_the_dht() {
        use crate::ipns::{IpnsRecord, IPNS_VALIDITY};
        let mut net = small_net(400, 31);
        let [publisher, resolver] = net.vantage_ids(2)[..] else { panic!() };
        let keypair = net.node(publisher).keypair().clone();
        let cid = Cid::from_raw_data(b"site v1");
        let record = IpnsRecord::sign(&keypair, cid.clone(), 1, net.now(), IPNS_VALIDITY);
        net.publish_ipns(publisher, &record);
        net.run_until_quiet();
        let pr = net.ipns_publish_reports.last().unwrap();
        assert!(pr.success, "{pr:?}");
        assert!(pr.records_stored >= 10);

        net.resolve_ipns(resolver, &keypair.peer_id());
        net.run_until_quiet();
        let rr = net.ipns_resolve_reports.last().unwrap();
        assert!(rr.success, "{rr:?}");
        assert_eq!(rr.record.as_ref().unwrap().value, cid);
        // The resolver's local IPNS cache now has it.
        let name = keypair.peer_id();
        let now = net.now();
        assert!(net.node_mut(resolver).ipns.resolve(&name, now).is_some());
    }

    #[test]
    fn ipns_update_supersedes_older_record() {
        use crate::ipns::{IpnsRecord, IPNS_VALIDITY};
        let mut net = small_net(400, 32);
        let [publisher, resolver] = net.vantage_ids(2)[..] else { panic!() };
        let keypair = net.node(publisher).keypair().clone();
        let v1 = IpnsRecord::sign(&keypair, Cid::from_raw_data(b"v1"), 1, net.now(), IPNS_VALIDITY);
        net.publish_ipns(publisher, &v1);
        net.run_until_quiet();
        let v2 = IpnsRecord::sign(&keypair, Cid::from_raw_data(b"v2"), 2, net.now(), IPNS_VALIDITY);
        net.publish_ipns(publisher, &v2);
        net.run_until_quiet();

        net.resolve_ipns(resolver, &keypair.peer_id());
        net.run_until_quiet();
        let rr = net.ipns_resolve_reports.last().unwrap();
        assert!(rr.success);
        // Storing nodes arbitrated by sequence: v2 wins. (The walk stops at
        // the first record-holder, which must hold v2 because v1-holders
        // were replaced and the k-closest sets overlap.)
        assert_eq!(rr.record.as_ref().unwrap().value, Cid::from_raw_data(b"v2"));
        assert_eq!(rr.record.as_ref().unwrap().sequence, 2);
    }

    #[test]
    fn resolving_unknown_name_fails_cleanly() {
        let mut net = small_net(200, 33);
        let [_, resolver] = net.vantage_ids(2)[..] else { panic!() };
        let ghost = Keypair::from_seed(0xDEAD).peer_id();
        net.resolve_ipns(resolver, &ghost);
        net.run_until_quiet();
        let rr = net.ipns_resolve_reports.last().unwrap();
        assert!(!rr.success);
        assert!(rr.record.is_none());
    }

    #[test]
    fn dcutr_lets_nat_peers_host_content() {
        // §3.1: "peers behind NATs cannot host content themselves ...
        // a NAT hole-punching solution is currently being developed".
        // With DCUtR enabled (and fresh provider-record addresses, which
        // carry the relay addrs), a NAT'ed peer can serve.
        let build = |dcutr: bool| {
            let pop = Population::generate(
                PopulationConfig {
                    size: 300,
                    nat_fraction: 0.5,
                    horizon: SimDuration::from_hours(8),
                    ..Default::default()
                },
                41,
            );
            let cfg = NetworkConfig {
                enable_dcutr: dcutr,
                dcutr_success_rate: 1.0, // deterministic for the test
                provider_records_carry_addrs: true,
                ..Default::default()
            };
            let net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, 41);
            (net, pop)
        };
        for dcutr in [false, true] {
            let (mut net, pop) = build(dcutr);
            // A NAT'ed peer with a long session starting at t=0.
            let nat_provider = pop
                .peers
                .iter()
                .position(|p| {
                    p.nat
                        && p.schedule.online_at(SimTime::ZERO)
                        && p.schedule.online_at(SimTime::ZERO + SimDuration::from_hours(2))
                })
                .expect("a long-lived NAT'ed peer exists");
            let requester = net.vantage_ids(1)[0];
            let data = Bytes::from(vec![0x11u8; 64 * 1024]);
            let cid = net.import_content(nat_provider, &data);
            net.publish(nat_provider, cid.clone());
            net.run_until_quiet();
            assert!(
                net.publish_reports.last().unwrap().success,
                "NAT'ed peers can still *publish* records (they dial out)"
            );
            // Drop the outbound connections the publish walk opened — a
            // NAT'ed peer can serve over those (it dialed out), but here we
            // test reachability for a *fresh* requester.
            net.disconnect_all(nat_provider);

            net.retrieve(requester, cid.clone());
            net.run_until_quiet();
            let rr = net.retrieve_reports.last().unwrap();
            if dcutr {
                assert!(rr.success, "hole punching makes the NAT'ed host reachable: {rr:?}");
                assert_eq!(net.node_mut(requester).read_content(&cid).unwrap(), data);
            } else {
                assert!(!rr.success, "without DCUtR the NAT'ed host is unreachable");
            }
        }
    }

    #[test]
    fn table_refresh_keeps_tables_fresher() {
        // With periodic refresh, routing tables shed stale entries faster:
        // after hours of churn, the dialable fraction of an average
        // server's table is higher than without refresh.
        let build = |refresh: bool, seed: u64| {
            let pop = Population::generate(
                PopulationConfig {
                    size: 500,
                    nat_fraction: 0.4,
                    horizon: SimDuration::from_hours(8),
                    ..Default::default()
                },
                seed,
            );
            let cfg = NetworkConfig {
                table_refresh_interval: refresh.then(|| SimDuration::from_mins(10)),
                ..Default::default()
            };
            let mut net =
                IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, seed);
            net.run_for(SimDuration::from_hours(5));
            // Average dialable fraction across online servers' tables.
            let mut total = 0usize;
            let mut live = 0usize;
            for id in net.server_ids() {
                if !net.is_dialable(id) {
                    continue;
                }
                for info in net.k_bucket_entries(id) {
                    if let Some(t) = net.resolve(&info.peer) {
                        total += 1;
                        if net.is_dialable(t) {
                            live += 1;
                        }
                    }
                }
            }
            live as f64 / total.max(1) as f64
        };
        let with = build(true, 71);
        let without = build(false, 71);
        assert!(
            with > without,
            "refresh must keep tables fresher: with {with:.3} vs without {without:.3}"
        );
    }

    #[test]
    fn autonat_probe_matches_ground_truth() {
        use crate::AutonatVerdict;
        let mut net = small_net(300, 44);
        // Vantage node: public -> upgrades to Server.
        let v = net.vantage_ids(1)[0];
        assert_eq!(net.autonat_probe(v, 10), AutonatVerdict::Public);
        // A NAT'ed population node: stays Private.
        let nat = (0..net.len())
            .find(|&i| !net.is_dialable(i) && net.is_online(i))
            .expect("a NAT'ed online node exists");
        assert_eq!(net.autonat_probe(nat, 10), AutonatVerdict::Private);
    }

    #[test]
    fn connection_manager_prunes_lru() {
        let pop = Population::generate(
            PopulationConfig {
                size: 60,
                nat_fraction: 0.0,
                horizon: SimDuration::from_hours(2),
                ..Default::default()
            },
            42,
        );
        let cfg = NetworkConfig { max_connections: 5, ..Default::default() };
        let mut net = IpfsNetwork::from_population(&pop, &[VantagePoint::EuCentral1], cfg, 42);
        let hub = net.vantage_ids(1)[0];
        for other in 0..20 {
            net.connect(hub, other);
        }
        assert!(net.connection_count(hub) <= 5, "cap enforced");
        // The most recent connections survive.
        assert!(net.is_connected(hub, 19));
        assert!(!net.is_connected(hub, 0));
    }

    #[test]
    fn retriever_becomes_provider_republished() {
        let pop = Population::generate(
            PopulationConfig {
                size: 200,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(6),
                ..Default::default()
            },
            21,
        );
        let cfg = NetworkConfig { retriever_becomes_provider: true, ..Default::default() };
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
            cfg,
            21,
        );
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![5u8; 100_000]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        assert!(net.retrieve_reports[0].success);
        // The requester now holds the content and has (silently) published.
        assert!(net.node_mut(requester).has_content(&cid));
    }

    #[test]
    fn single_provider_fetch_identical_across_session_knobs() {
        // Regression guard (fig10 shape): with exactly one provider the
        // session must degrade to the legacy single-provider message
        // sequence, so cranking the swarm knobs cannot move any phase
        // timing — or the event count — at all.
        let run = |cfg: NetworkConfig| {
            let pop = Population::generate(
                PopulationConfig {
                    size: 300,
                    nat_fraction: 0.3,
                    horizon: SimDuration::from_hours(6),
                    ..Default::default()
                },
                31,
            );
            let mut net = IpfsNetwork::from_population(
                &pop,
                &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
                cfg,
                31,
            );
            let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
            let data = Bytes::from(vec![0x42; 700_000]);
            let cid = net.import_content(provider, &data);
            net.publish(provider, cid.clone());
            net.run_until_quiet();
            net.retrieve(requester, cid);
            net.run_until_quiet();
            let rr = net.retrieve_reports[0].clone();
            assert!(rr.success, "retrieve must succeed: {rr:?}");
            (
                rr.total,
                rr.bitswap_probe,
                rr.provider_walk,
                rr.peer_walk,
                rr.fetch,
                net.events_processed,
            )
        };
        let base = run(NetworkConfig::default());
        let tuned = run(NetworkConfig {
            duplicate_factor: 4,
            max_fetch_providers: 1,
            ..NetworkConfig::default()
        });
        assert_eq!(base, tuned, "session knobs must be inert with a single provider");
    }

    #[test]
    fn swarm_fetch_draws_blocks_from_multiple_providers() {
        // Five providers announce the same 2 MiB DAG; the requester's
        // session must fan the fetch out instead of draining one uplink.
        let pop = Population::generate(
            PopulationConfig {
                size: 300,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(6),
                ..Default::default()
            },
            33,
        );
        // Records carry multiaddrs so every discovered provider is dialed
        // up front — the swarm assembles before the transfer finishes.
        let cfg = NetworkConfig { provider_records_carry_addrs: true, ..Default::default() };
        let mut net = IpfsNetwork::from_population(&pop, &VantagePoint::ALL, cfg, 33);
        let vs = net.vantage_ids(6);
        let (requester, providers) = (vs[0], &vs[1..]);
        // Non-repeating bytes (xorshift64): uniform fill would dedup every
        // 256 KiB leaf into a single CID and collapse the DAG to 2 blocks.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let data = Bytes::from(
            (0..2 * 1024 * 1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect::<Vec<u8>>(),
        );
        let mut cid = None;
        for &p in providers {
            let c = net.import_content(p, &data);
            net.publish(p, c.clone());
            cid = Some(c);
        }
        let cid = cid.unwrap();
        net.run_until_quiet();
        assert!(net.publish_reports.iter().all(|r| r.success));

        net.retrieve(requester, cid.clone());
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success, "swarm retrieve must succeed: {rr:?}");
        assert_eq!(net.node_mut(requester).read_content(&cid).unwrap(), data);
        // 8 × 256 KiB leaves + root, all through the session layer.
        assert!(
            net.metrics.get(names::BITSWAP_SESSION_BLOCKS_RECEIVED) >= 9,
            "session counters must see the whole DAG: blocks={} wants={} via_bitswap={} fetch={:?}",
            net.metrics.get(names::BITSWAP_SESSION_BLOCKS_RECEIVED),
            net.metrics.get(names::BITSWAP_SESSION_WANTS_SENT),
            rr.via_bitswap,
            rr.fetch,
        );
        let serving =
            providers.iter().filter(|&&p| net.nodes[p].node.bitswap.counts_sent.block > 0).count();
        assert!(serving >= 2, "blocks must come from a swarm, not one uplink ({serving} served)");
        // Duplicate factor 1: nothing should be fetched twice.
        assert_eq!(net.metrics.get(names::BITSWAP_SESSION_DUP_BLOCKS), 0);
    }

    #[test]
    fn stitched_retrieval_trace_reconciles_with_its_report() {
        let mut net = small_net(400, 7);
        net.set_trace_config(TraceConfig::collecting());
        let [provider, requester] = net.vantage_ids(2)[..] else { panic!() };
        let data = Bytes::from(vec![0xAB; 512 * 1024]);
        let cid = net.import_content(provider, &data);
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        let op = net.retrieve(requester, cid);
        net.run_until_quiet();
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success, "retrieve must succeed: {rr:?}");

        let tree = net.stitched_trace(op).expect("op traced");
        // The distributed tree reconciles with the op report: same
        // envelope, and a critical path that never exceeds it (integer
        // nanoseconds, no tolerance).
        assert_eq!(tree.duration(), rr.total);
        assert!(tree.critical_path_duration() <= tree.duration());
        assert!(tree.critical_path_duration() > SimDuration::ZERO);

        fn collect(s: &crate::obs::span::Span, out: &mut Vec<String>) {
            out.push(s.label.clone());
            for c in &s.children {
                collect(c, out);
            }
        }
        let mut labels = Vec::new();
        collect(&tree.root, &mut labels);
        // Remote nodes contributed their own spans: DHT handler time for
        // the provider walk's RPCs and the provider's BLOCK serves.
        assert!(
            labels.iter().any(|l| l.starts_with("srv:GET_PROVIDERS@n")),
            "provider-walk handler spans missing: {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.starts_with("bs:block_serve@n")),
            "remote BLOCK serve spans missing: {labels:?}"
        );
        // Remote spans sit under requester-side causes, not at the root.
        let top_level: Vec<&String> = tree.root.children.iter().map(|c| &c.label).collect();
        assert!(
            top_level.iter().all(|l| !l.starts_with("srv:")),
            "handler spans must nest inside rpc spans: {top_level:?}"
        );
    }

    #[test]
    fn crashed_session_peer_triggers_a_reroute_postmortem() {
        let mut net = small_net(300, 8);
        net.set_trace_config(TraceConfig { collect: true, postmortem: true });
        let [a, b, requester] = net.vantage_ids(3)[..] else { panic!() };
        // Non-repeating payload: a uniform fill would dedup every leaf
        // into one CID and leave too few wants to observe a re-route.
        let mut x = 0x0FEE_DFAC_EDEA_D123u64;
        let data = Bytes::from(
            (0..2 * 1024 * 1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect::<Vec<u8>>(),
        );
        let cid = net.import_content(a, &data);
        let cid_b = net.import_content(b, &data);
        assert_eq!(cid, cid_b, "chunking is deterministic");
        net.connect(requester, a);
        net.connect(requester, b);
        let op = net.retrieve(requester, cid);
        // Crash peer `a` once the transfer is demonstrably under way but
        // unfinished: its outstanding wants must re-route to `b`.
        let mut crashed = false;
        let mut t = SimTime::ZERO;
        while net.retrieve_reports.is_empty() {
            t += SimDuration::from_millis(5);
            assert!(t < SimTime::ZERO + SimDuration::from_mins(5), "retrieval livelocked");
            net.run_until(t);
            // Crash once leaf transfers are under way (root plus at least
            // one leaf landed): leaf wants are past their WANT-HAVE probe
            // and in flight, which is what a mid-fetch loss re-routes.
            if !crashed
                && net.retrieve_reports.is_empty()
                && net.metrics.get(names::BITSWAP_BLOCKS_STORED) >= 2
            {
                net.on_churn(a, false);
                crashed = true;
            }
        }
        assert!(crashed, "op completed before the first leaf landed");
        let rr = net.retrieve_reports[0].clone();
        assert!(rr.success, "surviving peer must complete the swarm: {rr:?}");
        let pms = net.drain_postmortems();
        assert_eq!(pms.len(), 1, "one flagged op, one post-mortem");
        let (pm_op, text) = &pms[0];
        assert_eq!(*pm_op, op);
        assert!(text.contains("outcome=rerouted"), "{text}");
        assert!(text.contains(&format!("peers lost mid-op: n{a}")), "{text}");
        assert!(text.contains("bs:reroute"), "{text}");
        assert!(text.contains(&format!("-> n{b}")), "{text}");
        assert!(net.drain_postmortems().is_empty(), "drain removes what it returns");
    }
}
