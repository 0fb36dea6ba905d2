//! The multi-tier gateway bound to a simulated IPFS network.
//!
//! Request path (paper §3.4, §6.3): nginx LRU cache → the gateway's own
//! IPFS node store (pinned Web3/NFT content, ≈8 ms) → the P2P network
//! (full retrieval pipeline, §3.2). Responses from the slower tiers are
//! inserted into the nginx cache on the way out, optionally gated by a
//! TinyLFU admission filter ([`crate::admission`]).
//!
//! Two production behaviours sit in front of the tiers:
//!
//! - **singleflight**: requests arriving while a retrieval for the same
//!   CID is still in flight do not trigger a second backend fetch — they
//!   queue on the leader and complete when it does;
//! - **negative caching**: a failed retrieval is remembered for
//!   [`GatewayConfig::negative_ttl`], and repeat requests for the known-bad
//!   CID are answered immediately without hammering the DHT.

use crate::admission::{cid_key, TinyLfu, TinyLfuConfig};
use crate::cache::LruWebCache;
use crate::log::AccessLogEntry;
use crate::workload::{CatalogObject, GatewayRequest, GatewayWorkload};
use bytes::Bytes;
use ipfs_core::obs::names;
use ipfs_core::{IpfsNetwork, MetricsRegistry, NodeId};
use merkledag::BlockStore;
use multiformats::Cid;
use simnet::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};

/// Which tier served a request (Table 5's three rows, plus the negative
/// cache for known-failed CIDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// The nginx LRU web cache (latency ≈ 0).
    NginxCache,
    /// The gateway's local IPFS node store (pinned content, ≈ 8 ms).
    NodeStore,
    /// A full P2P retrieval ("Non Cached").
    Network,
    /// A remembered failure: the CID failed to retrieve within the last
    /// [`GatewayConfig::negative_ttl`], so the gateway answers the error
    /// immediately instead of retrying the network.
    NegativeCache,
}

impl ServedBy {
    /// Label as used in Table 5.
    pub fn label(self) -> &'static str {
        match self {
            ServedBy::NginxCache => "nginx cache",
            ServedBy::NodeStore => "IPFS node store",
            ServedBy::Network => "Non Cached",
            ServedBy::NegativeCache => "negative cache",
        }
    }
}

/// How responses are admitted into the nginx tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Classic nginx behaviour: every response is cached, LRU eviction.
    Lru,
    /// TinyLFU: a response only displaces the LRU victim if its estimated
    /// access frequency is higher (count-min sketch + doorkeeper).
    TinyLfu,
}

/// Gateway configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// nginx cache capacity in bytes. Table 5's ≈46 % nginx hit rate
    /// emerges from this capacity against the workload's Zipf skew.
    pub nginx_capacity_bytes: u64,
    /// Node-store service latency (paper: "consistently ... below 24 ms",
    /// median 8 ms).
    pub node_store_latency: SimDuration,
    /// Estimated edge bandwidth used to convert object size into the
    /// serialization component of non-cached latency (see
    /// [`crate::workload::CatalogObject::size`] for why stub payloads are
    /// fetched but full sizes accounted).
    pub edge_bandwidth_bps: u64,
    /// nginx-tier admission policy.
    pub admission: AdmissionPolicy,
    /// TinyLFU sketch dimensions (only used when `admission` is
    /// [`AdmissionPolicy::TinyLfu`]).
    pub tinylfu: TinyLfuConfig,
    /// How long a failed retrieval is remembered in the negative cache.
    pub negative_ttl: SimDuration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            nginx_capacity_bytes: 1_200_000_000, // ~1.2 GB
            node_store_latency: SimDuration::from_millis(8),
            edge_bandwidth_bps: 200_000_000,
            admission: AdmissionPolicy::Lru,
            tinylfu: TinyLfuConfig::default(),
            negative_ttl: SimDuration::from_secs(60),
        }
    }
}

/// A retrieval still in flight (for singleflight coalescing). Requests are
/// served in arrival order, so a request whose arrival predates
/// `completes_at` arrived while the leader's fetch was running.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    completes_at: SimTime,
    success: bool,
}

/// How one request was resolved through the tiers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TierOutcome {
    /// Upstream response latency as the user experiences it.
    pub latency: SimDuration,
    /// When the response finished serving (arrival-or-later + latency).
    pub completed_at: SimTime,
    /// The tier that answered.
    pub served_by: ServedBy,
    /// Whether the response carried the content.
    pub success: bool,
}

/// The gateway itself.
pub struct Gateway {
    /// The node in the network acting as the gateway's DHT-server bridge.
    pub node: NodeId,
    /// The nginx tier.
    pub nginx: LruWebCache,
    /// Tier-level request counters (`gateway_nginx_hits`,
    /// `gateway_node_store_hits`, `gateway_network_fetches`, …).
    pub metrics: MetricsRegistry,
    /// CIDs pinned into the gateway's node store.
    pub(crate) pinned: HashSet<Cid>,
    /// TinyLFU frequency sketch (consulted when the config says so).
    lfu: TinyLfu,
    /// In-flight retrievals for singleflight coalescing.
    inflight: HashMap<Cid, Inflight>,
    /// Negative cache: CID → expiry of the remembered failure.
    negative: HashMap<Cid, SimTime>,
    /// `nginx.evictions` already reported to `metrics` (the registry gets
    /// incremental deltas so merged parallel-cell metrics add correctly).
    evictions_reported: u64,
    pub(crate) cfg: GatewayConfig,
}

fn content_size(net: &mut IpfsNetwork, node: NodeId, cid: &Cid) -> u64 {
    net.node_mut(node).read_content(cid).map(|b| b.len() as u64).unwrap_or(0)
}

impl Gateway {
    /// Creates a gateway bridged through `node` (an always-online DHT
    /// server in `net`, e.g. a vantage node).
    pub fn new(node: NodeId, cfg: GatewayConfig) -> Gateway {
        Gateway {
            node,
            nginx: LruWebCache::new(cfg.nginx_capacity_bytes),
            metrics: MetricsRegistry::new(),
            pinned: HashSet::new(),
            lfu: TinyLfu::new(cfg.tinylfu),
            inflight: HashMap::new(),
            negative: HashMap::new(),
            evictions_reported: 0,
            cfg,
        }
    }

    /// Installs the workload's catalog: pinned objects go into the
    /// gateway's node store; every object (pinned or not) is stored at a
    /// provider in the population and announced via provider records.
    pub fn install_catalog(
        &mut self,
        net: &mut IpfsNetwork,
        workload: &GatewayWorkload,
        providers: &[NodeId],
    ) {
        assert!(!providers.is_empty(), "need at least one provider node");
        for (i, obj) in workload.objects.iter().enumerate() {
            let payload = Bytes::from(CatalogObject::stub_payload(i));
            if obj.pinned {
                let root = net.node_mut(self.node).add_content(&payload).root;
                debug_assert_eq!(root, obj.cid);
                net.node_mut(self.node).store.pin(root);
                self.pinned.insert(obj.cid.clone());
            } else {
                let provider = providers[i % providers.len()];
                let root = net.node_mut(provider).add_content(&payload).root;
                debug_assert_eq!(root, obj.cid);
                net.seed_provider_record(provider, &obj.cid);
            }
        }
    }

    /// Pins `cid` into this gateway's node store with the given payload
    /// (used by the fleet to replicate the pinned set to every instance).
    pub fn pin_object(&mut self, net: &mut IpfsNetwork, payload: &Bytes) -> Cid {
        let root = net.node_mut(self.node).add_content(payload).root;
        net.node_mut(self.node).store.pin(root.clone());
        self.pinned.insert(root.clone());
        root
    }

    /// Whether a CID is pinned in the node store.
    pub fn is_pinned(&self, cid: &Cid) -> bool {
        self.pinned.contains(cid)
    }

    /// Resolves one CID through the tier chain, advancing the network for
    /// backend fetches. `arrival` is when the request reached the gateway
    /// (the network clock may already be past it — requests are processed
    /// in arrival order and a leader's retrieval advances virtual time).
    pub(crate) fn serve_cid(
        &mut self,
        net: &mut IpfsNetwork,
        cid: &Cid,
        size_hint: Option<u64>,
        arrival: SimTime,
    ) -> TierOutcome {
        let start = net.now().max(arrival);
        if self.cfg.admission == AdmissionPolicy::TinyLfu {
            self.lfu.record(cid_key(cid));
        }
        // Singleflight first: a request that arrived while a retrieval of
        // the same CID was in flight rides the leader's fetch. This must
        // precede the nginx lookup — by the time a waiter is *processed*
        // the leader has already populated the cache, but at the waiter's
        // *arrival* the content was not there yet.
        if let Some(&inf) = self.inflight.get(cid) {
            if arrival < inf.completes_at {
                self.metrics.incr(names::GATEWAY_NGINX_MISSES);
                self.metrics.incr(names::GATEWAY_SINGLEFLIGHT_WAITERS);
                return TierOutcome {
                    latency: inf.completes_at.since(arrival),
                    completed_at: inf.completes_at,
                    served_by: ServedBy::Network,
                    success: inf.success,
                };
            }
            self.inflight.remove(cid);
        }
        if self.nginx.get(cid).is_some() {
            self.metrics.incr(names::GATEWAY_NGINX_HITS);
            return TierOutcome {
                latency: SimDuration::ZERO,
                completed_at: start,
                served_by: ServedBy::NginxCache,
                success: true,
            };
        }
        self.metrics.incr(names::GATEWAY_NGINX_MISSES);
        if let Some(&expiry) = self.negative.get(cid) {
            if arrival < expiry {
                self.metrics.incr(names::GATEWAY_NEGATIVE_HITS);
                return TierOutcome {
                    latency: SimDuration::ZERO,
                    completed_at: start,
                    served_by: ServedBy::NegativeCache,
                    success: false,
                };
            }
            self.negative.remove(cid);
        }
        if self.pinned.contains(cid) || net.node_mut(self.node).store.has(cid) {
            self.metrics.incr(names::GATEWAY_NODE_STORE_HITS);
            let size = size_hint.unwrap_or_else(|| content_size(net, self.node, cid));
            self.promote(cid, size);
            return TierOutcome {
                latency: self.cfg.node_store_latency,
                completed_at: start + self.cfg.node_store_latency,
                served_by: ServedBy::NodeStore,
                success: true,
            };
        }
        // Network leader: full P2P retrieval through the bridge node
        // (§3.2 pipeline).
        self.metrics.incr(names::GATEWAY_NETWORK_FETCHES);
        let before = net.retrieve_reports.len();
        net.retrieve(self.node, cid.clone());
        net.run_until_quiet();
        let report =
            net.retrieve_reports[before..].last().expect("retrieval produces a report").clone();
        net.retrieve_reports.truncate(before);
        // Serialization of the *accounted* size at the edge bandwidth
        // (the stub payload under-counts transfer time; the paper found
        // latency size-independent, Pearson r=0.13).
        let size = size_hint
            .or_else(|| report.success.then(|| content_size(net, self.node, cid)))
            .unwrap_or(0);
        let ser =
            SimDuration::from_secs_f64(size as f64 * 8.0 / self.cfg.edge_bandwidth_bps as f64);
        let latency = report.total + ser;
        let completed_at = start + latency;
        // The gateway's own tiers join the op's distributed trace (no-ops
        // when the sink is off): the end-to-end serve window, the bridge
        // node's P2P fetch inside it, and the edge serialization tail.
        let t_fetch_end = report.started_at + report.total;
        net.record_gateway_span(report.op, self.node, "serve", size, start, completed_at);
        net.record_gateway_span(
            report.op,
            self.node,
            "bridge_fetch",
            report.bytes,
            report.started_at,
            t_fetch_end,
        );
        net.record_gateway_span(
            report.op,
            self.node,
            "edge_serialize",
            size,
            t_fetch_end,
            t_fetch_end + ser,
        );
        if report.success {
            self.promote(cid, size);
        } else {
            self.metrics.incr(names::GATEWAY_NETWORK_FAILURES);
            self.metrics.incr(names::GATEWAY_NEGATIVE_INSERTS);
            self.negative.insert(cid.clone(), completed_at + self.cfg.negative_ttl);
        }
        self.inflight
            .insert(cid.clone(), Inflight { completes_at: completed_at, success: report.success });
        TierOutcome { latency, completed_at, served_by: ServedBy::Network, success: report.success }
    }

    /// Inserts a response into the nginx tier through the configured
    /// admission policy.
    fn promote(&mut self, cid: &Cid, size: u64) {
        let admitted = match self.cfg.admission {
            AdmissionPolicy::Lru => {
                self.nginx.put(cid.clone(), size);
                true
            }
            AdmissionPolicy::TinyLfu => self.nginx.put_with_admission(cid.clone(), size, &self.lfu),
        };
        if !admitted {
            self.metrics.incr(names::GATEWAY_ADMISSION_REJECTS);
        }
    }

    /// Reports new nginx evictions to the registry as an incremental
    /// delta, so merging per-cell registries sums instead of overwriting.
    fn sync_eviction_metric(&mut self) {
        let delta = self.nginx.evictions - self.evictions_reported;
        if delta > 0 {
            self.metrics.add(names::GATEWAY_NGINX_EVICTIONS, delta);
            self.evictions_reported = self.nginx.evictions;
        }
    }

    /// Serves one request, advancing the network as needed, and returns
    /// the log entry (`at` = arrival, `completed_at` = actual serve time).
    pub fn serve(
        &mut self,
        net: &mut IpfsNetwork,
        workload: &GatewayWorkload,
        request: &GatewayRequest,
    ) -> AccessLogEntry {
        let obj = &workload.objects[request.object];
        // Advance virtual time to the request's arrival.
        if net.now() < request.at {
            net.run_until(request.at);
        }
        let out = self.serve_cid(net, &obj.cid, Some(obj.size), request.at);
        self.sync_eviction_metric();
        AccessLogEntry {
            at: request.at,
            completed_at: out.completed_at,
            user: request.user,
            country: request.country,
            cid: obj.cid.clone(),
            bytes: obj.size,
            latency: out.latency,
            served_by: out.served_by,
            referrer: request.referrer,
            success: out.success,
        }
    }

    /// Serves an `/ipns/<name>` request (paper §3.4's gateway URLs also
    /// carry IPNS paths): resolves the name over the DHT through the
    /// bridge node, then serves the resulting CID through the same tier
    /// chain as `/ipfs/` requests (including nginx promotion and the
    /// serialization latency component). Returns the resolved CID and the
    /// end-to-end latency (resolution + serving).
    pub fn serve_ipns(
        &mut self,
        net: &mut IpfsNetwork,
        name: &multiformats::PeerId,
    ) -> Option<(multiformats::Cid, simnet::SimDuration, ServedBy)> {
        let before = net.ipns_resolve_reports.len();
        net.resolve_ipns(self.node, name);
        net.run_until_quiet();
        let resolution = net.ipns_resolve_reports[before..].last()?.clone();
        let record = resolution.record?;
        let cid = record.value;
        let out = self.serve_cid(net, &cid, None, net.now());
        self.sync_eviction_metric();
        if !out.success {
            return None;
        }
        Some((cid, resolution.total + out.latency, out.served_by))
    }

    /// Serves an entire workload, returning the full access log.
    pub fn serve_all(
        &mut self,
        net: &mut IpfsNetwork,
        workload: &GatewayWorkload,
    ) -> Vec<AccessLogEntry> {
        workload.requests.iter().map(|r| self.serve(net, workload, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;
    use ipfs_core::NetworkConfig;
    use simnet::latency::VantagePoint;
    use simnet::{Population, PopulationConfig};

    fn setup(requests: usize, catalog: usize) -> (IpfsNetwork, Gateway, GatewayWorkload) {
        let pop = Population::generate(
            PopulationConfig {
                size: 300,
                nat_fraction: 0.3,
                horizon: SimDuration::from_hours(30),
                ..Default::default()
            },
            3,
        );
        let mut net = IpfsNetwork::from_population(
            &pop,
            &[VantagePoint::UsWest1],
            NetworkConfig::default(),
            3,
        );
        let gw_node = net.vantage_ids(1)[0];
        let workload = GatewayWorkload::generate(WorkloadConfig {
            catalog_size: catalog,
            users: 50,
            requests,
            ..Default::default()
        });
        let mut gw = Gateway::new(gw_node, GatewayConfig::default());
        // Providers: stable dialable population peers.
        let providers: Vec<NodeId> =
            net.server_ids().into_iter().filter(|&i| net.is_dialable(i)).take(20).collect();
        gw.install_catalog(&mut net, &workload, &providers);
        (net, gw, workload)
    }

    #[test]
    fn tiers_serve_as_expected() {
        let (mut net, mut gw, workload) = setup(300, 50);
        let log = gw.serve_all(&mut net, &workload);
        assert_eq!(log.len(), 300);
        let count = |t: ServedBy| log.iter().filter(|e| e.served_by == t).count();
        let nginx = count(ServedBy::NginxCache);
        let node = count(ServedBy::NodeStore);
        let network = count(ServedBy::Network);
        let negative = count(ServedBy::NegativeCache);
        assert!(nginx > 0, "popular objects must hit nginx");
        assert!(node > 0, "pinned objects must hit the node store");
        assert!(network > 0, "unpinned cold objects must hit the network");
        assert_eq!(nginx + node + network + negative, 300);
        // The metrics registry must agree with the access log exactly.
        assert_eq!(gw.metrics.get(names::GATEWAY_NGINX_HITS), nginx as u64);
        assert_eq!(gw.metrics.get(names::GATEWAY_NODE_STORE_HITS), node as u64);
        // Network-tier entries are leaders (fetches) plus coalesced waiters.
        assert_eq!(
            gw.metrics.get(names::GATEWAY_NETWORK_FETCHES)
                + gw.metrics.get(names::GATEWAY_SINGLEFLIGHT_WAITERS),
            network as u64
        );
        assert_eq!(gw.metrics.get(names::GATEWAY_NEGATIVE_HITS), negative as u64);
        assert_eq!(gw.metrics.get(names::GATEWAY_NGINX_MISSES), (node + network + negative) as u64);
        assert_eq!(gw.metrics.get(names::GATEWAY_NGINX_EVICTIONS), gw.nginx.evictions);
    }

    #[test]
    fn network_fetches_record_gateway_spans_in_the_distributed_trace() {
        let (mut net, mut gw, workload) = setup(120, 40);
        net.set_trace_config(ipfs_core::TraceConfig::collecting());
        gw.serve_all(&mut net, &workload);
        assert!(gw.metrics.get(names::GATEWAY_NETWORK_FETCHES) > 0);
        let frags = net.dtrace_fragments();
        let has = |d: &str| frags.iter().any(|f| f.label == "gw" && f.detail == d);
        assert!(has("serve"), "gateway serve spans missing");
        assert!(has("bridge_fetch"), "bridge-node fetch spans missing");
        assert!(has("edge_serialize"), "edge serialization spans missing");
        // Every gateway span is recorded at the bridge node and joined to
        // a real trace (the op's root), never orphaned at trace id 0.
        for f in frags.iter().filter(|f| f.label == "gw") {
            assert_eq!(f.node as usize, gw.node);
            assert_ne!(f.trace_id, 0);
            assert!(f.end >= f.start);
        }
    }

    #[test]
    fn nginx_hits_have_zero_latency_node_store_8ms() {
        let (mut net, mut gw, workload) = setup(200, 40);
        let log = gw.serve_all(&mut net, &workload);
        for e in &log {
            match e.served_by {
                ServedBy::NginxCache | ServedBy::NegativeCache => {
                    assert_eq!(e.latency, SimDuration::ZERO)
                }
                ServedBy::NodeStore => assert_eq!(e.latency, SimDuration::from_millis(8)),
                ServedBy::Network => {
                    if e.success {
                        // Either the full DHT path (≥1 s Bitswap floor) or
                        // an opportunistic Bitswap hit over a connection
                        // kept warm from an earlier fetch — both are slower
                        // than the local tiers.
                        assert!(
                            e.latency > SimDuration::from_millis(20),
                            "network tier must cost real network time: {e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repeat_requests_promote_to_cache() {
        let (mut net, mut gw, workload) = setup(1, 10);
        // Serve the same object twice: network (or node store) first,
        // nginx afterwards. The repeat arrives after the first completes —
        // a same-instant repeat would (correctly) coalesce via singleflight.
        let req = &workload.requests[0];
        let first = gw.serve(&mut net, &workload, req);
        let mut later = req.clone();
        later.at = first.completed_at + SimDuration::from_secs(1);
        let second = gw.serve(&mut net, &workload, &later);
        assert_ne!(first.served_by, ServedBy::NginxCache);
        if first.success {
            assert_eq!(second.served_by, ServedBy::NginxCache);
            assert_eq!(second.latency, SimDuration::ZERO);
        }
    }

    #[test]
    fn log_records_arrival_and_completion() {
        // Regression for the old timestamp clamp
        // `request.at.max(net.now().min(request.at + 600s))`, which
        // recorded neither arrival nor completion. `at` must be the exact
        // arrival; `completed_at` the actual serve time.
        let (mut net, mut gw, workload) = setup(250, 40);
        let log = gw.serve_all(&mut net, &workload);
        let mut network_served = 0;
        for (e, r) in log.iter().zip(&workload.requests) {
            assert_eq!(e.at, r.at, "at must be the request's arrival time");
            assert!(e.completed_at >= e.at + e.latency, "completion covers the full latency");
            if e.served_by == ServedBy::Network {
                network_served += 1;
                assert!(e.completed_at > e.at, "network serves take time");
            }
        }
        assert!(network_served > 0);
    }

    #[test]
    fn singleflight_coalesces_concurrent_misses() {
        // k concurrent misses on one CID → exactly 1 network fetch,
        // k log entries, waiters accounted at the leader's completion.
        let (mut net, mut gw, workload) = setup(1, 30);
        let idx = workload.objects.iter().position(|o| !o.pinned).expect("an unpinned object");
        let base = workload.requests[0].clone();
        let k = 5;
        let entries: Vec<AccessLogEntry> = (0..k)
            .map(|i| {
                let mut r = base.clone();
                r.object = idx;
                // All k arrivals land inside the leader's multi-second
                // retrieval window.
                r.at = base.at + SimDuration::from_millis(i as u64);
                gw.serve(&mut net, &workload, &r)
            })
            .collect();
        assert_eq!(entries.len(), k);
        assert_eq!(gw.metrics.get(names::GATEWAY_NETWORK_FETCHES), 1, "one backend fetch");
        assert_eq!(gw.metrics.get(names::GATEWAY_SINGLEFLIGHT_WAITERS), (k - 1) as u64);
        for e in &entries {
            assert_eq!(e.served_by, ServedBy::Network);
            assert_eq!(e.success, entries[0].success);
        }
        // Every waiter completes exactly when the leader does, so later
        // arrivals experience shorter latencies.
        for pair in entries.windows(2) {
            assert_eq!(pair[1].completed_at, entries[0].completed_at);
            assert!(pair[1].latency < pair[0].latency);
        }
        if entries[0].success {
            // Once the flight lands the object is in nginx.
            let mut r = base.clone();
            r.object = idx;
            r.at = entries[0].completed_at + SimDuration::from_secs(1);
            let after = gw.serve(&mut net, &workload, &r);
            assert_eq!(after.served_by, ServedBy::NginxCache);
        }
    }

    #[test]
    fn failed_fetches_are_negatively_cached() {
        let (mut net, mut gw, _) = setup(1, 10);
        // A CID nobody provides: the retrieval fails.
        let missing = Cid::from_raw_data(b"no-such-object-anywhere");
        let at1 = net.now();
        let out1 = gw.serve_cid(&mut net, &missing, Some(10_000), at1);
        assert!(!out1.success);
        assert_eq!(out1.served_by, ServedBy::Network);
        assert_eq!(gw.metrics.get(names::GATEWAY_NETWORK_FETCHES), 1);
        assert_eq!(gw.metrics.get(names::GATEWAY_NEGATIVE_INSERTS), 1);
        // Within the TTL: answered from the negative cache, no refetch.
        let at2 = out1.completed_at + SimDuration::from_secs(1);
        let out2 = gw.serve_cid(&mut net, &missing, Some(10_000), at2);
        assert_eq!(out2.served_by, ServedBy::NegativeCache);
        assert!(!out2.success);
        assert_eq!(out2.latency, SimDuration::ZERO);
        assert_eq!(gw.metrics.get(names::GATEWAY_NETWORK_FETCHES), 1, "no refetch inside TTL");
        assert_eq!(gw.metrics.get(names::GATEWAY_NEGATIVE_HITS), 1);
        // Past the TTL the gateway tries the network again.
        let at3 = out1.completed_at + gw.cfg.negative_ttl + SimDuration::from_secs(2);
        let out3 = gw.serve_cid(&mut net, &missing, Some(10_000), at3);
        assert_eq!(out3.served_by, ServedBy::Network);
        assert_eq!(gw.metrics.get(names::GATEWAY_NETWORK_FETCHES), 2, "retries after expiry");
    }

    #[test]
    fn eviction_metric_reports_incremental_deltas() {
        // Regression for the gauge-semantics bug: the registry value must
        // equal the cache's lifetime eviction count *and* survive merging
        // (merge adds, so a gauge written with set() would double-count or
        // overwrite).
        let (mut net, mut gw, workload) = setup(80, 40);
        let small = GatewayConfig { nginx_capacity_bytes: 2_000_000, ..GatewayConfig::default() };
        gw.nginx = LruWebCache::new(small.nginx_capacity_bytes);
        gw.cfg = small;
        let half = workload.requests.len() / 2;
        for r in &workload.requests[..half] {
            gw.serve(&mut net, &workload, r);
        }
        assert!(gw.nginx.evictions > 0, "tiny cache must evict");
        assert_eq!(gw.metrics.get(names::GATEWAY_NGINX_EVICTIONS), gw.nginx.evictions);
        // The aggregation pattern fleets and parallel bench cells use:
        // another instance's counters get merged into a live registry that
        // then keeps serving. The old gauge-style `set(evictions)`
        // overwrote the merged-in contribution on the very next request.
        let mut other = MetricsRegistry::new();
        other.add(names::GATEWAY_NGINX_EVICTIONS, 123);
        gw.metrics.merge(&other);
        for r in &workload.requests[half..] {
            gw.serve(&mut net, &workload, r);
        }
        assert!(gw.nginx.evictions > 1, "more traffic must keep evicting");
        assert_eq!(
            gw.metrics.get(names::GATEWAY_NGINX_EVICTIONS),
            123 + gw.nginx.evictions,
            "merged-in counters must survive further serving"
        );
    }

    #[test]
    fn ipns_requests_resolve_and_serve() {
        use ipfs_core::ipns::{IpnsRecord, IPNS_VALIDITY};
        let (mut net, mut gw, _) = setup(307, 1);
        // A publisher (population server) puts up content + an IPNS name.
        let publisher =
            net.server_ids().into_iter().find(|&i| net.is_dialable(i) && i != gw.node).unwrap();
        let data = bytes::Bytes::from(vec![0x77u8; 30_000]);
        let cid = net.node_mut(publisher).add_content(&data).root;
        net.publish(publisher, cid.clone());
        net.run_until_quiet();
        let keypair = net.node(publisher).keypair().clone();
        let record = IpnsRecord::sign(&keypair, cid.clone(), 1, net.now(), IPNS_VALIDITY);
        net.publish_ipns(publisher, &record);
        net.run_until_quiet();
        net.disconnect_all(publisher);

        // GET /ipns/<name> via the gateway.
        let (resolved, latency, tier) =
            gw.serve_ipns(&mut net, &keypair.peer_id()).expect("resolves");
        assert_eq!(resolved, cid);
        assert_eq!(tier, ServedBy::Network);
        assert!(latency > SimDuration::ZERO);
        // Regression: the network fetch must promote into nginx (the old
        // serve_ipns never promoted, so repeat hits stalled at NodeStore).
        let (_, latency2, tier2) = gw.serve_ipns(&mut net, &keypair.peer_id()).unwrap();
        assert_eq!(tier2, ServedBy::NginxCache);
        assert!(latency2 < latency);
        // And the third hit stays in the nginx tier.
        let (_, _, tier3) = gw.serve_ipns(&mut net, &keypair.peer_id()).unwrap();
        assert_eq!(tier3, ServedBy::NginxCache);
    }

    #[test]
    fn non_cached_latency_dominates() {
        // Table 5: non-cached median ≈ 4 s vs 8 ms node store.
        let (mut net, mut gw, workload) = setup(400, 80);
        let log = gw.serve_all(&mut net, &workload);
        let mut net_lat: Vec<f64> = log
            .iter()
            .filter(|e| e.served_by == ServedBy::Network && e.success)
            .map(|e| e.latency.as_secs_f64())
            .collect();
        if net_lat.len() >= 5 {
            net_lat.sort_by(f64::total_cmp);
            let median = net_lat[net_lat.len() / 2];
            assert!(median > 1.0, "non-cached median {median}s");
        }
    }

    #[test]
    fn tinylfu_keeps_hot_set_under_scan() {
        // Direct policy comparison on the gateway: a tiny nginx tier, a
        // hot object, then a scan of cold objects. Under TinyLFU the hot
        // object must still be nginx-resident afterwards.
        let (mut net, mut gw, workload) = setup(1, 60);
        let lfu_cfg = GatewayConfig {
            nginx_capacity_bytes: 3_000_000,
            admission: AdmissionPolicy::TinyLfu,
            ..GatewayConfig::default()
        };
        gw.nginx = LruWebCache::new(lfu_cfg.nginx_capacity_bytes);
        gw.cfg = lfu_cfg;
        let hot = workload.objects.iter().position(|o| o.pinned).expect("a pinned object");
        let base = workload.requests[0].clone();
        let serve_obj = |gw: &mut Gateway, net: &mut IpfsNetwork, obj: usize| {
            let mut r = base.clone();
            r.object = obj;
            r.at = net.now();
            gw.serve(net, &workload, &r)
        };
        // Warm the hot object into nginx with repeated hits.
        for _ in 0..10 {
            serve_obj(&mut gw, &mut net, hot);
        }
        assert!(gw.nginx.contains(&workload.objects[hot].cid));
        // Scan every pinned cold object once (pinned → NodeStore backend,
        // fast and deterministic; each tries to enter nginx once).
        for (i, o) in workload.objects.iter().enumerate() {
            if i != hot && o.pinned {
                serve_obj(&mut gw, &mut net, i);
            }
        }
        assert!(
            gw.nginx.contains(&workload.objects[hot].cid),
            "TinyLFU must keep the hot object resident through the scan"
        );
        assert!(gw.metrics.get(names::GATEWAY_ADMISSION_REJECTS) > 0, "the scan was filtered");
    }
}
