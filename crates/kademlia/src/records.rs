//! Provider and peer record stores.
//!
//! A *provider record* maps a CID to a PeerID that can serve the content; a
//! *peer record* maps a PeerID to its Multiaddresses (paper §3.1). Both are
//! soft state: provider records expire after 24 h and are republished every
//! 12 h "to prevent the system from storing and providing stale records".
//!
//! Provider records live in one map from DHT key to that key's providers.
//! A refresh overwrites the record in place, so a store holds at most one
//! entry per `(key, provider)`. [`RecordStore::expire`] scans the whole map;
//! the only periodic caller sweeps small catalogs, so the scan is cheap.

use crate::key::Key;
use multiformats::{Multiaddr, PeerId};
use simnet::{SimDuration, SimTime};
use std::collections::HashMap;

/// Default provider-record expiry interval (paper §3.1: 24 h).
pub const PROVIDER_EXPIRY: SimDuration = SimDuration::from_hours(24);

/// Default provider-record republish interval (paper §3.1: 12 h).
pub const PROVIDER_REPUBLISH: SimDuration = SimDuration::from_hours(12);

/// A provider record: "this peer can serve this CID".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderRecord {
    /// DHT key of the CID being provided.
    pub key: Key,
    /// The providing peer.
    pub provider: PeerId,
    /// Addresses of the provider, if known (saves the requestor the second
    /// DHT walk when present).
    pub addrs: Vec<Multiaddr>,
    /// When the record was stored (drives expiry).
    pub received_at: SimTime,
}

/// A peer record: "this PeerID is reachable at these addresses".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerRecord {
    /// The subject peer.
    pub peer: PeerId,
    /// Its advertised addresses.
    pub addrs: Vec<Multiaddr>,
    /// When the record was stored.
    pub received_at: SimTime,
}

/// Replacement arbitration for stored values: `f(new, old) == true`
/// means the new value wins.
pub type Selector = fn(&[u8], &[u8]) -> bool;

/// An opaque DHT value (IPNS records travel this way, paper §3.3): the
/// DHT stores bytes it cannot interpret; the node-level validator decides
/// replacement (go-libp2p's `Validator.Select`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueRecord {
    /// The key the value is stored under.
    pub key: Key,
    /// The opaque payload.
    pub value: Vec<u8>,
    /// When it was stored.
    pub received_at: SimTime,
}

/// Storage for provider, peer, and value records held by one DHT server.
#[derive(Debug, Clone)]
pub struct RecordStore {
    providers: HashMap<Key, Vec<ProviderRecord>>,
    expiry: SimDuration,
    peers: HashMap<PeerId, PeerRecord>,
    values: HashMap<Key, ValueRecord>,
    /// Lifetime counters for diagnostics.
    pub stored_provider_records: u64,
    /// Lifetime count of peer records stored.
    pub stored_peer_records: u64,
    /// Lifetime count of value records stored.
    pub stored_value_records: u64,
}

impl Default for RecordStore {
    fn default() -> RecordStore {
        RecordStore::new()
    }
}

impl RecordStore {
    /// Creates an empty store with the paper's 24 h provider expiry.
    pub fn new() -> RecordStore {
        RecordStore::with_expiry(PROVIDER_EXPIRY)
    }

    /// Creates an empty store with a custom provider-record lifetime
    /// (churn/lifecycle harnesses scale §3.1's 24 h down to their run
    /// length).
    pub fn with_expiry(expiry: SimDuration) -> RecordStore {
        RecordStore {
            providers: HashMap::new(),
            expiry,
            peers: HashMap::new(),
            values: HashMap::new(),
            stored_provider_records: 0,
            stored_peer_records: 0,
            stored_value_records: 0,
        }
    }

    /// Stores (or refreshes) a provider record. Refreshing resets the
    /// expiry clock — this is what the 12 h republish achieves.
    pub fn add_provider(&mut self, record: ProviderRecord) {
        let entry = self.providers.entry(record.key).or_default();
        if let Some(existing) = entry.iter_mut().find(|r| r.provider == record.provider) {
            *existing = record;
        } else {
            entry.push(record);
            self.stored_provider_records += 1;
        }
    }

    /// Returns unexpired provider records for `key` at time `now`.
    pub fn providers(&self, key: &Key, now: SimTime) -> Vec<ProviderRecord> {
        self.providers
            .get(key)
            .map(|rs| {
                rs.iter().filter(|r| now.since(r.received_at) < self.expiry).cloned().collect()
            })
            .unwrap_or_default()
    }

    /// Stores (or refreshes) a peer record.
    pub fn put_peer_record(&mut self, record: PeerRecord) {
        if self.peers.insert(record.peer.clone(), record).is_none() {
            self.stored_peer_records += 1;
        }
    }

    /// Looks up a peer record.
    pub fn peer_record(&self, peer: &PeerId) -> Option<&PeerRecord> {
        self.peers.get(peer)
    }

    /// Drops expired provider records; returns how many were removed.
    /// Peer records persist (they are refreshed on every connection in
    /// practice).
    pub fn expire(&mut self, now: SimTime) -> usize {
        let expiry = self.expiry;
        let mut removed = 0;
        self.providers.retain(|_, rs| {
            let before = rs.len();
            rs.retain(|r| now.since(r.received_at) < expiry);
            removed += before - rs.len();
            !rs.is_empty()
        });
        removed
    }

    /// Number of live provider-record entries (across all keys).
    pub fn provider_entry_count(&self) -> usize {
        self.providers.values().map(|v| v.len()).sum()
    }

    /// Estimated resident bytes of the provider table, for memory-per-node
    /// accounting.
    pub fn bytes_estimate(&self) -> u64 {
        /// Estimated heap bytes per stored [`Multiaddr`].
        const ADDR_BYTES: usize = 48;
        let mut total = std::mem::size_of::<RecordStore>();
        for (key, rs) in &self.providers {
            total += std::mem::size_of_val(key);
            for r in rs {
                total += std::mem::size_of::<ProviderRecord>() + r.addrs.len() * ADDR_BYTES;
            }
        }
        total as u64
    }

    /// Stores a value record if `select` prefers it over any existing one
    /// (`select(new, old) == true` means replace). Returns whether it was
    /// stored.
    pub fn put_value(&mut self, record: ValueRecord, select: Option<Selector>) -> bool {
        match self.values.get(&record.key) {
            Some(existing) => {
                let replace = match select {
                    Some(f) => f(&record.value, &existing.value),
                    None => true, // last-writer-wins without a selector
                };
                if replace {
                    self.values.insert(record.key, record);
                    true
                } else {
                    false
                }
            }
            None => {
                self.values.insert(record.key, record);
                self.stored_value_records += 1;
                true
            }
        }
    }

    /// Looks up a value record.
    pub fn value(&self, key: &Key) -> Option<&ValueRecord> {
        self.values.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiformats::{Cid, Keypair};

    fn key(n: u64) -> Key {
        Key::from_cid(&Cid::from_raw_data(&n.to_be_bytes()))
    }

    fn record(k: Key, seed: u64, at: SimTime) -> ProviderRecord {
        ProviderRecord {
            key: k,
            provider: Keypair::from_seed(seed).peer_id(),
            addrs: vec![],
            received_at: at,
        }
    }

    #[test]
    fn add_and_get_providers() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        store.add_provider(record(k, 2, SimTime::ZERO));
        assert_eq!(store.providers(&k, SimTime::ZERO).len(), 2);
        assert_eq!(store.providers(&key(2), SimTime::ZERO).len(), 0);
    }

    #[test]
    fn records_expire_after_24h() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        let just_before = SimTime::ZERO + SimDuration::from_hours(23);
        let just_after = SimTime::ZERO + SimDuration::from_hours(25);
        assert_eq!(store.providers(&k, just_before).len(), 1);
        assert_eq!(store.providers(&k, just_after).len(), 0);
    }

    #[test]
    fn republish_resets_expiry() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        // Republish at 12 h (the paper's interval).
        let t12 = SimTime::ZERO + PROVIDER_REPUBLISH;
        store.add_provider(record(k, 1, t12));
        // At 30 h the original would be dead, but the refresh keeps it.
        let t30 = SimTime::ZERO + SimDuration::from_hours(30);
        assert_eq!(store.providers(&k, t30).len(), 1);
        // Only one entry exists (refresh, not duplicate).
        assert_eq!(store.provider_entry_count(), 1);
        // A sweep past the original 24 h deadline keeps the refreshed
        // record; one past the refreshed 36 h deadline removes it.
        assert_eq!(store.expire(t30), 0);
        assert_eq!(store.provider_entry_count(), 1);
        assert_eq!(store.expire(SimTime::ZERO + SimDuration::from_hours(37)), 1);
        assert_eq!(store.provider_entry_count(), 0);
    }

    #[test]
    fn expire_sweeps_dead_records() {
        let mut store = RecordStore::new();
        store.add_provider(record(key(1), 1, SimTime::ZERO));
        store.add_provider(record(key(2), 2, SimTime::ZERO + SimDuration::from_hours(20)));
        // Received far in the future of every sweep below but the last two.
        let far = SimTime::ZERO + SimDuration::from_hours(100);
        store.add_provider(record(key(3), 3, far));
        let t30 = SimTime::ZERO + SimDuration::from_hours(30);
        let removed = store.expire(t30);
        assert_eq!(removed, 1);
        assert_eq!(store.provider_entry_count(), 2);
        // A second sweep at the same instant is a no-op.
        assert_eq!(store.expire(t30), 0);
        assert_eq!(store.provider_entry_count(), 2);
        assert_eq!(store.expire(SimTime::ZERO + SimDuration::from_hours(45)), 1);
        // The far-future record lives its full 24 h from receipt.
        assert_eq!(store.expire(far + SimDuration::from_hours(23)), 0);
        assert_eq!(store.expire(far + SimDuration::from_hours(25)), 1);
        assert_eq!(store.provider_entry_count(), 0);
    }

    #[test]
    fn peer_records_roundtrip() {
        let mut store = RecordStore::new();
        let peer = Keypair::from_seed(5).peer_id();
        let addr: Multiaddr = "/ip4/1.2.3.4/tcp/3333".parse().unwrap();
        store.put_peer_record(PeerRecord {
            peer: peer.clone(),
            addrs: vec![addr.clone()],
            received_at: SimTime::ZERO,
        });
        assert_eq!(store.peer_record(&peer).unwrap().addrs, vec![addr]);
        assert!(store.peer_record(&Keypair::from_seed(6).peer_id()).is_none());
    }

    #[test]
    fn lifetime_counters() {
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        store.add_provider(record(k, 1, SimTime::ZERO)); // refresh, not new
        store.add_provider(record(k, 2, SimTime::ZERO));
        assert_eq!(store.stored_provider_records, 2);
    }

    #[test]
    fn bytes_estimate_tracks_stored_records() {
        let mut store = RecordStore::new();
        let empty = store.bytes_estimate();
        for n in 0..100u64 {
            store.add_provider(record(key(n), n, SimTime::ZERO));
        }
        let full = store.bytes_estimate();
        assert!(full > empty);
        store.expire(SimTime::ZERO + SimDuration::from_hours(25));
        assert!(store.bytes_estimate() < full);
    }

    #[test]
    fn refreshes_do_not_grow_the_store() {
        // The 12 h republish refreshes the same (key, provider) over and
        // over; the store must hold one entry for it, not one per refresh.
        let mut store = RecordStore::new();
        let k = key(1);
        store.add_provider(record(k, 1, SimTime::ZERO));
        let bytes = store.bytes_estimate();
        for n in 1..=1_000u64 {
            store.add_provider(record(k, 1, SimTime::ZERO + SimDuration::from_secs(n * 60)));
        }
        assert_eq!(store.bytes_estimate(), bytes);
        assert_eq!(store.provider_entry_count(), 1);
        assert_eq!(store.stored_provider_records, 1);
    }

    #[test]
    fn proptest_store_matches_brute_force_model() {
        use proptest::prelude::*;
        // Small key and provider domains so adds often hit an existing
        // (key, provider) and act as refreshes.
        let keys: Vec<Key> = (0..6).map(key).collect();
        let peers: Vec<PeerId> = (0..4).map(|n| Keypair::from_seed(n).peer_id()).collect();
        proptest!(ProptestConfig::with_cases(64), |(
            ops in proptest::collection::vec((0u8..4, any::<usize>(), 0u64..800), 1..200)
        )| {
            let mut store = RecordStore::new();
            let mut model: Vec<ProviderRecord> = Vec::new();
            let mut stored = 0u64;
            let mut now = SimTime::ZERO;
            for (op, pick, quarters) in ops {
                // Times count quarter hours up to 200 h: receipt times land
                // out of order, back-dated past the 24 h expiry, far in the
                // future, and often exactly on an expiry boundary.
                let at = SimTime::ZERO + SimDuration::from_secs(quarters * 900);
                match op {
                    // Add a record for a random (key, provider).
                    0 => {
                        let r = ProviderRecord {
                            key: keys[pick % keys.len()],
                            provider: peers[pick / keys.len() % peers.len()].clone(),
                            addrs: vec![],
                            received_at: at,
                        };
                        match model.iter_mut().find(|m| m.key == r.key && m.provider == r.provider) {
                            Some(m) => *m = r.clone(),
                            None => {
                                model.push(r.clone());
                                stored += 1;
                            }
                        }
                        store.add_provider(r);
                    }
                    // Refresh a record the model still holds.
                    1 if !model.is_empty() => {
                        let i = pick % model.len();
                        model[i].received_at = at;
                        store.add_provider(model[i].clone());
                    }
                    // Advance the clock and sweep.
                    2 => {
                        now += SimDuration::from_secs(quarters % 64 * 900);
                        let before = model.len();
                        model.retain(|m| now.since(m.received_at) < PROVIDER_EXPIRY);
                        prop_assert_eq!(store.expire(now), before - model.len());
                    }
                    // Sweep at an arbitrary instant, possibly in the past.
                    _ => {
                        let before = model.len();
                        model.retain(|m| at.since(m.received_at) < PROVIDER_EXPIRY);
                        prop_assert_eq!(store.expire(at), before - model.len());
                    }
                }
                for k in &keys {
                    let live: Vec<ProviderRecord> = model
                        .iter()
                        .filter(|m| m.key == *k && now.since(m.received_at) < PROVIDER_EXPIRY)
                        .cloned()
                        .collect();
                    prop_assert_eq!(store.providers(k, now), live);
                }
                prop_assert_eq!(store.provider_entry_count(), model.len());
                prop_assert_eq!(store.stored_provider_records, stored);
            }
        });
    }
}
