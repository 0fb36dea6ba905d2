//! Throughput harness: simulator events/sec and DHT walks/sec.
//!
//! Not a paper artifact — this measures the *reproduction itself* so that
//! performance PRs carry a recorded trajectory. Four sections per run:
//!
//! 1. **routing** — a standing `RoutingTable` is hammered with `closest()`
//!    calls on random targets (the FIND_NODE reply-set path, by far the
//!    hottest routine in the simulator).
//! 2. **sim** — a full `IpfsNetwork` runs publish/retrieve rounds; we
//!    report discrete events processed per wall-clock second and completed
//!    DHT walks per second, using the `obs` MetricsRegistry
//!    (`dht_walk_rpcs` sample count) as the source of truth, plus the mean
//!    logical bytes of per-node state (the SoA memory-pass metric).
//! 3. **pdes** — the sharded cells (`ipfs_core::shardsim` on
//!    `simnet::ShardedEngine`): the paper-population cell and the `huge`
//!    (≥100k-node) cell, with `IPFS_REPRO_SHARDS` region shards. Every
//!    deterministic output (events, order/metrics fingerprints,
//!    bytes_per_node) is byte-identical at any shard count; only the
//!    wall-clock rates may move.
//! 4. **scheduler** — a microbench of the event queue itself: steady-state
//!    schedule+pop churn at a fixed pending-set size, for both the
//!    `BinaryHeap` reference and the timing-wheel scheduler
//!    (`IPFS_REPRO_SCHED` selects which one the sim sections use) — plus
//!    the sharded engine dispatching a synthetic relay workload.
//!
//! Full (non-smoke) runs repeat each cell three times and report the
//! fastest repetition — min-of-N is robust to co-tenant noise — while
//! asserting that the deterministic outputs (event counts, walk counts,
//! metrics fingerprint) are identical across repetitions.
//!
//! Output goes to stdout and, when `IPFS_REPRO_CSV_DIR` is set, to
//! `BENCH_throughput.json` via [`bench::export::write_json`].
//!
//! Flags:
//! * `--smoke` — tiny fixed-size run for CI regression gating.
//! * `--digest` — print only deterministic per-cell results (event counts,
//!   walk counts, a metrics fingerprint) and skip everything wall-clock
//!   derived. Two runs at the same seed must produce byte-identical
//!   digests regardless of scheduler implementation — `scripts/check.sh`
//!   diffs heap vs wheel this way.
//! * `--check-against <path>` — compare this run's sim events/sec against
//!   a previously recorded JSON (same mode); exit non-zero on a >30%
//!   regression.
//! * `--overhead-check` — run the smoke sim cell twice, distributed
//!   tracing off then on; assert the deterministic outputs are identical
//!   and exit non-zero if the traced run falls under 0.8× the untraced
//!   throughput (the tracing overhead budget).
//!
//! The `IPFS_REPRO_DTRACE=1` environment knob arms distributed tracing +
//! the flight recorder inside the sim section; every deterministic output
//! (digest lines included) must be byte-identical with the knob on or off
//! — `scripts/check.sh` diffs both.

use bench::runner::{
    banner, baseline_gate, json_field, seed_from_env, shards_from_env, Scale, ScaleConfig,
};
use bytes::Bytes;
use ipfs_core::{IpfsNetwork, NetworkConfig, ShardSim, ShardSimConfig};
use kademlia::routing::{PeerInfo, RoutingTable, K};
use kademlia::Key;
use multiformats::Keypair;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::latency::{LatencyModel, VantagePoint};
use simnet::{
    EventQueue, Population, PopulationConfig, RegionEvent, SchedulerKind, ShardedEngine,
    SimDuration, SimTime,
};
use std::time::Instant;

/// One measured configuration.
struct Cell {
    label: &'static str,
    population: usize,
    closest_calls: usize,
    rounds: usize,
}

/// Routing-table section: `calls` `closest()` lookups against a table
/// seeded from `population` random peers (the table self-limits to
/// ~K·log(population) entries, as in a real node). Returns
/// (table_size, entries_touched, elapsed, calls/sec).
fn run_routing(cell: &Cell, seed: u64) -> (usize, usize, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rt = RoutingTable::new(Key::from_peer(&Keypair::from_seed(seed).peer_id()));
    for i in 0..cell.population {
        let peer = Keypair::from_seed(seed.wrapping_add(1 + i as u64)).peer_id();
        rt.insert(PeerInfo::new(peer, vec!["/ip4/127.0.0.1/tcp/4001".parse().unwrap()]));
    }
    let start = Instant::now();
    let mut touched = 0usize;
    for _ in 0..cell.closest_calls {
        let mut raw = [0u8; 32];
        for b in raw.iter_mut() {
            *b = rng.random_range(0..=255u32) as u8;
        }
        touched += std::hint::black_box(rt.closest(&Key::from_bytes(raw), K)).len();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (rt.len(), touched, elapsed, cell.closest_calls as f64 / elapsed)
}

/// Deterministic result of the sim section (identical across scheduler
/// implementations at the same seed), plus wall-clock rates.
struct SimResult {
    events: u64,
    walks: usize,
    /// FNV-1a over every touched counter — a cheap fingerprint that any
    /// behavioural divergence between runs will disturb.
    metrics_fnv: u64,
    /// Mean logical bytes of per-node state (connections + routing table
    /// + address book) at the end of the run — the memory-pass metric.
    bytes_per_node: u64,
    elapsed: f64,
    events_per_sec: f64,
    walks_per_sec: f64,
}

/// Whether the `IPFS_REPRO_DTRACE=1` knob arms distributed tracing in the
/// sim section.
fn dtrace_from_env() -> bool {
    std::env::var("IPFS_REPRO_DTRACE").map(|v| v == "1").unwrap_or(false)
}

/// Simulation section: publish/retrieve rounds on a live network. With
/// `dtrace` on, tracing runs with collection and post-mortems (op logs,
/// remote fragments, flight rings) — observation only, so every
/// deterministic field must match the untraced run exactly.
fn run_sim(cell: &Cell, seed: u64, dtrace: bool) -> SimResult {
    let pop = Population::generate(
        PopulationConfig {
            size: cell.population,
            nat_fraction: 0.455,
            horizon: SimDuration::from_hours(8),
            ..Default::default()
        },
        seed,
    );
    let mut net = IpfsNetwork::from_population(
        &pop,
        &[VantagePoint::EuCentral1, VantagePoint::UsWest1],
        NetworkConfig::default(),
        seed,
    );
    let [provider, requester] = net.vantage_ids(2)[..] else { unreachable!() };
    if dtrace {
        net.set_trace_config(ipfs_core::TraceConfig { collect: true, postmortem: true });
    }

    let events_before = net.events_processed;
    let walks_before = net.metrics().samples(ipfs_core::obs::names::DHT_WALK_RPCS).len();
    let start = Instant::now();
    for i in 0..cell.rounds {
        let mut data = vec![0u8; 1024];
        data[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let cid = net.import_content(provider, &Bytes::from(data));
        net.publish(provider, cid.clone());
        net.run_until_quiet();
        net.retrieve(requester, cid);
        net.run_until_quiet();
        // Reset the requester so every round walks the DHT honestly
        // (§4.3-style: drop connections, addresses, and fetched blocks).
        net.disconnect_all(requester);
        let p = net.peer_id(provider).clone();
        net.forget_address(requester, &p);
        let node = net.node_mut(requester);
        let cids: Vec<_> = node.store.cids().cloned().collect();
        for c in cids {
            merkledag::BlockStore::delete(&mut node.store, &c);
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let events = net.events_processed - events_before;
    let bytes_per_node = net.bytes_per_node_estimate();
    let walks = net.metrics().samples(ipfs_core::obs::names::DHT_WALK_RPCS).len() - walks_before;
    let mut metrics_fnv = 0xcbf2_9ce4_8422_2325u64;
    for (name, value) in net.metrics().counters() {
        for byte in name.bytes().chain(value.to_be_bytes()) {
            metrics_fnv = (metrics_fnv ^ byte as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    SimResult {
        events,
        walks,
        metrics_fnv,
        bytes_per_node,
        elapsed,
        events_per_sec: events as f64 / elapsed,
        walks_per_sec: walks as f64 / elapsed,
    }
}

/// Scheduler microbench: steady-state schedule+pop churn on an
/// [`EventQueue`] holding `pending` events. Every iteration pops the
/// earliest event and schedules a replacement at a random future delay, so
/// the pending-set size stays constant. Returns ops/sec (one pop plus one
/// schedule count as two ops).
fn run_scheduler(kind: SchedulerKind, pending: usize, churn_ops: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ (pending as u64).rotate_left(17));
    let mut q: EventQueue<u64> = EventQueue::with_scheduler(kind);
    for i in 0..pending {
        q.schedule(SimDuration::from_nanos(rng.random_range(0..60_000_000_000u64)), i as u64);
    }
    let start = Instant::now();
    for _ in 0..churn_ops {
        let ev = q.pop().expect("queue stays full");
        q.schedule(SimDuration::from_nanos(rng.random_range(0..60_000_000_000u64)), ev.event);
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(&q);
    (churn_ops * 2) as f64 / elapsed
}

/// One sharded-cell configuration (the struct-of-arrays PDES section).
struct PdesCell {
    label: &'static str,
    nodes: usize,
    sim_secs: u64,
    ops_per_tick: u32,
    /// Repetitions for full runs (the `huge` cell runs once — rebuilding a
    /// 100k+-node world three times buys little extra noise rejection).
    reps: usize,
}

/// Builds and runs one sharded cell. Returns the deterministic result plus
/// (build seconds, run seconds).
fn run_pdes(cell: &PdesCell, seed: u64, shards: usize) -> (ipfs_core::ShardSimResult, f64, f64) {
    let cfg = ShardSimConfig {
        nodes: cell.nodes,
        shards,
        seed,
        duration: SimDuration::from_secs(cell.sim_secs),
        ops_per_tick: cell.ops_per_tick,
        ..Default::default()
    };
    let t0 = Instant::now();
    let mut sim = ShardSim::build(&cfg);
    let build = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let result = sim.run();
    (result, build, t1.elapsed().as_secs_f64().max(1e-9))
}

fn measure_pdes(cell: &PdesCell, seed: u64, shards: usize, digest: bool) -> String {
    let (best, mut build_sec, mut run_sec) = run_pdes(cell, seed, shards);
    let reps = if digest { 1 } else { cell.reps.max(1) };
    for _ in 1..reps {
        let (rep, b, r) = run_pdes(cell, seed, shards);
        assert_eq!(rep, best, "pdes cell must be deterministic");
        if b < build_sec {
            build_sec = b;
        }
        if r < run_sec {
            run_sec = r;
        }
    }
    if digest {
        // Everything here is a pure function of (seed, cell) — identical
        // at every shard count, worker count, and scheduler implementation.
        // `scripts/check.sh` byte-diffs IPFS_REPRO_SHARDS=1 vs =6 runs.
        println!(
            "digest pdes {}: events={} order_fnv={:016x} metrics_fnv={:016x} bytes_per_node={}",
            cell.label, best.events, best.order_fnv, best.metrics_fnv, best.bytes_per_node
        );
        return String::new();
    }
    let events_per_sec = best.events as f64 / run_sec;
    println!("-- pdes {} ({} nodes, {} shards) --", cell.label, cell.nodes, shards);
    println!(
        "pdes: {} events in {:.3}s (+{:.3}s build) — {:.0} events/s, {} bytes/node",
        best.events, run_sec, build_sec, events_per_sec, best.bytes_per_node
    );
    println!(
        "pdes: {} publishes, {} retrieves ({} misses), {} RPC timeouts, order_fnv {:016x}",
        best.counter("publish_done"),
        best.counter("retrieve_done"),
        best.counter("retrieve_miss"),
        best.counter("rpc_timeout"),
        best.order_fnv
    );
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"nodes\": {},\n",
            "      \"shards\": {},\n",
            "      \"events\": {},\n",
            "      \"order_fnv\": \"{:016x}\",\n",
            "      \"metrics_fnv\": \"{:016x}\",\n",
            "      \"bytes_per_node\": {},\n",
            "      \"publish_done\": {},\n",
            "      \"retrieve_done\": {},\n",
            "      \"retrieve_miss\": {},\n",
            "      \"build_sec\": {:.6},\n",
            "      \"elapsed_sec\": {:.6},\n",
            "      \"events_per_sec\": {:.1}\n",
            "    }}"
        ),
        cell.label,
        cell.nodes,
        shards,
        best.events,
        best.order_fnv,
        best.metrics_fnv,
        best.bytes_per_node,
        best.counter("publish_done"),
        best.counter("retrieve_done"),
        best.counter("retrieve_miss"),
        build_sec,
        run_sec,
        events_per_sec
    )
}

/// A token circling the region ring — the sharded-engine microbench event.
#[derive(Clone, Copy)]
struct Relay {
    region: u8,
}

impl RegionEvent for Relay {
    fn region(&self) -> usize {
        self.region as usize
    }
}

/// Sharded-engine microbench: `tokens` relay tokens per region, each
/// forwarding to the next region after exactly the lookahead delay — pure
/// dispatch + window-synchronization overhead, no model work. Returns
/// (events dispatched, elapsed seconds).
fn run_sharded_relay(shards: usize, tokens: usize, sim_secs: u64, seed: u64) -> (u64, f64) {
    let lookahead = LatencyModel::default().cross_region_lookahead();
    let mut eng: ShardedEngine<Relay> = ShardedEngine::new(10, shards, lookahead, seed);
    for region in 0..10u8 {
        for _ in 0..tokens {
            eng.seed_event(SimTime::ZERO, Relay { region });
        }
    }
    let deadline = SimTime::ZERO + SimDuration::from_secs(sim_secs);
    let mut states: Vec<()> = vec![(); shards];
    let start = Instant::now();
    let dispatched = eng.run_until(deadline, &mut states, &|_, ctx, _, ev| {
        let hop = Relay { region: (ev.region + 1) % 10 };
        ctx.schedule(ctx.lookahead(), hop);
    });
    (dispatched, start.elapsed().as_secs_f64().max(1e-9))
}

fn sched_name(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Heap => "heap",
        SchedulerKind::Wheel => "wheel",
    }
}

fn measure(cell: &Cell, seed: u64, digest: bool, reps: usize) -> String {
    // Best-of-N: each section repeats and the fastest wall clock is
    // reported (the usual noisy-box benchmarking discipline). The
    // deterministic fields double as a free reproducibility check: every
    // repetition must agree on them exactly.
    let dtrace = dtrace_from_env();
    let (table_size, touched, mut r_elapsed, mut calls_per_sec) = run_routing(cell, seed);
    let mut sim = run_sim(cell, seed, dtrace);
    for _ in 1..reps.max(1) {
        let (ts, t, re, cps) = run_routing(cell, seed);
        assert_eq!((ts, t), (table_size, touched), "routing section must be deterministic");
        if re < r_elapsed {
            (r_elapsed, calls_per_sec) = (re, cps);
        }
        let rep = run_sim(cell, seed, dtrace);
        assert_eq!(
            (rep.events, rep.walks, rep.metrics_fnv, rep.bytes_per_node),
            (sim.events, sim.walks, sim.metrics_fnv, sim.bytes_per_node),
            "sim section must be deterministic"
        );
        if rep.elapsed < sim.elapsed {
            sim = rep;
        }
    }
    if digest {
        // Only values that are a pure function of (seed, scale, scheduler
        // equivalence) — nothing wall-clock derived.
        println!(
            "digest {}: table={} touched={} events={} walks={} metrics_fnv={:016x} \
bytes_per_node={}",
            cell.label,
            table_size,
            touched,
            sim.events,
            sim.walks,
            sim.metrics_fnv,
            sim.bytes_per_node
        );
        return String::new();
    }
    println!("-- {} (population {}) --", cell.label, cell.population);
    println!(
        "routing: {} closest() calls over a {}-entry table in {:.3}s — {:.0} calls/s",
        cell.closest_calls, table_size, r_elapsed, calls_per_sec
    );
    println!(
        "sim: {} rounds, {} events, {} walks in {:.3}s — {:.0} events/s, {:.1} walks/s, \
{} bytes/node",
        cell.rounds,
        sim.events,
        sim.walks,
        sim.elapsed,
        sim.events_per_sec,
        sim.walks_per_sec,
        sim.bytes_per_node
    );
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{}\",\n",
            "      \"population\": {},\n",
            "      \"routing\": {{\n",
            "        \"table_size\": {},\n",
            "        \"closest_calls\": {},\n",
            "        \"elapsed_sec\": {:.6},\n",
            "        \"closest_calls_per_sec\": {:.1}\n",
            "      }},\n",
            "      \"sim\": {{\n",
            "        \"rounds\": {},\n",
            "        \"events\": {},\n",
            "        \"walks\": {},\n",
            "        \"bytes_per_node\": {},\n",
            "        \"elapsed_sec\": {:.6},\n",
            "        \"events_per_sec\": {:.1},\n",
            "        \"walks_per_sec\": {:.3}\n",
            "      }}\n",
            "    }}"
        ),
        cell.label,
        cell.population,
        table_size,
        cell.closest_calls,
        r_elapsed,
        calls_per_sec,
        cell.rounds,
        sim.events,
        sim.walks,
        sim.bytes_per_node,
        sim.elapsed,
        sim.events_per_sec,
        sim.walks_per_sec
    )
}

/// Tracing overhead budget gate: the smoke sim cell with tracing + the
/// flight recorder armed must keep ≥ 0.8× the untraced events/sec, and
/// every deterministic output must be identical (tracing observes, never
/// perturbs). Best-of-3 each to shed co-tenant noise.
fn run_overhead_check(seed: u64) {
    const REPS: usize = 3;
    let cell = Cell { label: "smoke", population: 500, closest_calls: 0, rounds: 40 };
    let best = |dtrace: bool| {
        let mut best = run_sim(&cell, seed, dtrace);
        for _ in 1..REPS {
            let rep = run_sim(&cell, seed, dtrace);
            if rep.elapsed < best.elapsed {
                best = rep;
            }
        }
        best
    };
    let off = best(false);
    let on = best(true);
    assert_eq!(
        (on.events, on.walks, on.metrics_fnv, on.bytes_per_node),
        (off.events, off.walks, off.metrics_fnv, off.bytes_per_node),
        "tracing must not change any deterministic output"
    );
    let ratio = on.events_per_sec / off.events_per_sec.max(1e-9);
    println!(
        "overhead gate: traced {:.0} events/s vs untraced {:.0} events/s (ratio {ratio:.2})",
        on.events_per_sec, off.events_per_sec
    );
    if ratio < 0.8 {
        eprintln!("throughput: tracing overhead exceeds the 20% budget (ratio {ratio:.2})");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let digest = args.iter().any(|a| a == "--digest");
    let check_against = args
        .iter()
        .position(|a| a == "--check-against")
        .and_then(|i| args.get(i + 1))
        .map(String::from);

    let overhead_check = args.iter().any(|a| a == "--overhead-check");

    banner("Throughput", "simulator events/sec and DHT walks/sec (perf trajectory)");
    let seed = seed_from_env();
    if overhead_check {
        run_overhead_check(seed);
        return;
    }
    if digest {
        // To stderr: stdout must be byte-identical across scheduler
        // implementations, and this line names the one in use.
        eprintln!("scheduler: {}", sched_name(SchedulerKind::from_env()));
    }

    let cells: Vec<Cell> = if smoke {
        vec![Cell { label: "smoke", population: 500, closest_calls: 20_000, rounds: 40 }]
    } else {
        let cfg = ScaleConfig::from_env();
        let mut cells =
            vec![Cell { label: "small", population: 1_500, closest_calls: 200_000, rounds: 150 }];
        if Scale::from_env() == Scale::Paper {
            cells.push(Cell {
                label: "paper",
                population: cfg.population,
                closest_calls: 200_000,
                rounds: 40,
            });
        }
        cells
    };

    // PDES cells: `pdes_*` exercises the paper-scale population on the
    // sharded engine; `huge*` is the ≥100k-node headline the SoA memory
    // pass exists for. Smoke variants keep the same shapes, shorter.
    let pdes_cells: Vec<PdesCell> = if smoke {
        vec![
            PdesCell { label: "pdes_smoke", nodes: 4_000, sim_secs: 12, ops_per_tick: 6, reps: 1 },
            PdesCell { label: "huge_smoke", nodes: 100_000, sim_secs: 4, ops_per_tick: 4, reps: 1 },
        ]
    } else {
        vec![
            PdesCell { label: "paper_pdes", nodes: 20_000, sim_secs: 60, ops_per_tick: 8, reps: 3 },
            PdesCell { label: "huge", nodes: 120_000, sim_secs: 30, ops_per_tick: 8, reps: 1 },
        ]
    };
    let shards = shards_from_env();
    if digest {
        // Like the scheduler name: stdout must be byte-identical across
        // IPFS_REPRO_SHARDS values, so the shard count goes to stderr.
        eprintln!("pdes shards: {shards}");
    }

    // Smoke (CI gate) and digest (equivalence diff) run each cell once;
    // recorded full runs take the best of three to shed scheduler noise.
    let reps = if smoke || digest { 1 } else { 3 };
    let entries: Vec<String> = cells.iter().map(|c| measure(c, seed, digest, reps)).collect();
    let pdes_entries: Vec<String> =
        pdes_cells.iter().map(|c| measure_pdes(c, seed, shards, digest)).collect();
    if digest {
        // Digest runs exist to be byte-diffed across scheduler
        // implementations; rates and JSON export would only add noise.
        return;
    }

    // Scheduler microbench: heap vs wheel at fixed pending-set sizes.
    let sched_cells: &[(usize, usize)] =
        if smoke { &[(10_000, 50_000)] } else { &[(10_000, 200_000), (1_000_000, 200_000)] };
    let mut sched_entries: Vec<String> = Vec::new();
    for &(pending, churn_ops) in sched_cells {
        for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
            let ops_per_sec = run_scheduler(kind, pending, churn_ops, seed);
            println!(
                "scheduler: {} with {} pending — {:.0} schedule+pop ops/s",
                sched_name(kind),
                pending,
                ops_per_sec
            );
            sched_entries.push(format!(
                concat!(
                    "    {{\n",
                    "      \"impl\": \"{}\",\n",
                    "      \"pending\": {},\n",
                    "      \"churn_ops\": {},\n",
                    "      \"ops_per_sec\": {:.1}\n",
                    "    }}"
                ),
                sched_name(kind),
                pending,
                churn_ops,
                ops_per_sec
            ));
        }
    }
    // The sharded engine on a pure relay workload: dispatch + window
    // synchronization overhead with no model work in the handler.
    let (relay_tokens, relay_secs) = if smoke { (256, 1) } else { (1_024, 2) };
    let (relay_events, relay_elapsed) = run_sharded_relay(shards, relay_tokens, relay_secs, seed);
    let relay_rate = relay_events as f64 / relay_elapsed;
    println!(
        "scheduler: sharded relay ({shards} shards, {} tokens) — {:.0} events/s",
        relay_tokens * 10,
        relay_rate
    );
    sched_entries.push(format!(
        concat!(
            "    {{\n",
            "      \"impl\": \"sharded_relay\",\n",
            "      \"pending\": {},\n",
            "      \"churn_ops\": {},\n",
            "      \"ops_per_sec\": {:.1}\n",
            "    }}"
        ),
        relay_tokens * 10,
        relay_events,
        relay_rate
    ));

    let json = format!(
        concat!(
            "{{\n  \"harness\": \"throughput\",\n  \"seed\": {},\n",
            "  \"entries\": [\n{}\n  ],\n",
            "  \"pdes\": [\n{}\n  ],\n",
            "  \"scheduler\": [\n{}\n  ]\n}}\n"
        ),
        seed,
        entries.join(",\n"),
        pdes_entries.join(",\n"),
        sched_entries.join(",\n")
    );
    if let Some(path) = bench::write_json("BENCH_throughput", &json) {
        println!("wrote {}", path.display());
    }

    if let Some(path) = check_against {
        // Gate both headline rates: the netsim cell and the PDES cell.
        for label in [cells[0].label, pdes_cells[0].label] {
            let current = json_field(&json, label, "events_per_sec").expect("own JSON parses");
            baseline_gate("throughput", &path, label, "events_per_sec", current);
        }
    }
}
