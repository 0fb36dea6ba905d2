//! Observability integration: the per-op trace must reproduce the §3.2
//! retrieval pipeline in order, the metrics registry must account the
//! protocol work of a run, and the idle-connection expiry (the fix that
//! keeps gateway cold fetches on the full DHT path) must hold.

use integration_tests::{payload, test_network, test_network_with};
use ipfs_core::{LatencyBreakdown, NetworkConfig, TraceConfig, TraceEventKind};
use simnet::SimDuration;

#[test]
fn retrieval_trace_reproduces_the_section_3_2_pipeline() {
    // Same scenario as it_end_to_end::publish_and_retrieve_half_mb_object,
    // which pins down that this run walks all four §3.2 stages — here we
    // assert the *trace* exposes them in order.
    let (mut net, ids) = test_network(
        500,
        &[simnet::latency::VantagePoint::EuCentral1, simnet::latency::VantagePoint::SaEast1],
        101,
    );
    let [eu, sa] = ids[..] else { unreachable!() };
    net.set_trace_config(TraceConfig::collecting());

    let data = payload(512 * 1024, 1);
    let cid = net.import_content(sa, &data);
    let pub_op = net.publish(sa, cid.clone());
    net.run_until_quiet();
    assert!(net.publish_reports.last().unwrap().success);

    // Experiment reset (§4.3): no warm connections, so the Bitswap probe
    // cannot short-circuit the pipeline.
    net.disconnect_all(sa);

    let op = net.retrieve(eu, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);
    assert_eq!(rr.op, op);

    // The publish trace exists too, with its own pipeline.
    let pub_trace = net.trace(pub_op).expect("publish trace recorded");
    assert_eq!(pub_trace.phases(), vec!["walk", "rpc_batch"]);
    assert!(pub_trace.contains(|k| matches!(k, TraceEventKind::OpFinished { success: true })));

    let trace = net.trace(op).expect("retrieve trace recorded");
    // §3.2 in order: opportunistic Bitswap probe → provider-record walk →
    // peer-record walk → dial + fetch.
    assert_eq!(
        trace.phases(),
        vec!["bitswap_probe", "provider_walk", "peer_walk", "fetch"],
        "full §3.2 pipeline: {:?}",
        trace.events
    );
    // The probe ended by timeout (no warm connections had the content).
    let probe_fired = trace
        .position(|k| matches!(k, TraceEventKind::TimerFired { timer: "bitswap_probe" }))
        .expect("probe timeout fired");
    let dial = trace
        .position(|k| matches!(k, TraceEventKind::DialStarted { .. }))
        .expect("provider dialed");
    let block =
        trace.position(|k| matches!(k, TraceEventKind::BlockReceived)).expect("blocks arrived");
    let done = trace
        .position(|k| matches!(k, TraceEventKind::OpFinished { success: true }))
        .expect("op finished");
    assert!(probe_fired < dial && dial < block && block < done, "event order");
    // The walks converged (once per DHT walk) and sent RPCs.
    assert!(trace.contains(|k| matches!(k, TraceEventKind::QueryConverged { .. })));
    assert!(trace.contains(|k| matches!(k, TraceEventKind::RpcSent { .. })));

    // Machine-readable export: a JSON array of timestamped events.
    let json = trace.to_json();
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"event\":\"op_started\""));
    assert!(json.contains("\"event\":\"phase_entered\""));
    assert!(json.contains("\"phase\":\"provider_walk\""));
    assert!(json.contains("\"event\":\"op_finished\""));
    assert!(json.contains("\"t_us\":"));

    // The metrics registry accounted the protocol work of the run.
    let m = net.metrics();
    assert!(m.get("dht_rpc_sent_find_node") > 0, "walks sent FIND_NODE RPCs");
    assert!(m.get("dials_attempted") > 0);
    assert_eq!(m.get("retrieve_ops"), 1);
    assert_eq!(m.get("retrieve_success"), 1);
    assert_eq!(m.get("publish_ops"), 1);
    assert_eq!(m.get("publish_success"), 1);
    assert!(m.get("provider_records_stored") >= 15, "§3.1 k-replication");
    assert!(m.get("bitswap_sent_want_block") > 0, "fetch used WANT-BLOCK");
    assert!(m.get("bitswap_sent_block") > 0, "provider served BLOCKs");
    assert_eq!(m.get("bitswap_probe_timeouts"), 1, "1 s probe expired once");
    assert!(!m.samples("dht_walk_rpcs").is_empty());
}

#[test]
fn span_breakdown_pins_the_section_3_2_pipeline_timing() {
    // Same deterministic scenario as the pipeline test above, but folded
    // through the span layer: the LatencyBreakdown must reconcile
    // *exactly* (integer nanoseconds) with the retrieval state machine's
    // own phase report, and the span tree's critical path must be a
    // consistent sub-cover of the op interval.
    let (mut net, ids) = test_network(
        500,
        &[simnet::latency::VantagePoint::EuCentral1, simnet::latency::VantagePoint::SaEast1],
        101,
    );
    let [eu, sa] = ids[..] else { unreachable!() };
    net.set_trace_config(TraceConfig::collecting());

    let data = payload(512 * 1024, 1);
    let cid = net.import_content(sa, &data);
    let pub_op = net.publish(sa, cid.clone());
    net.run_until_quiet();
    let pr = net.publish_reports.last().unwrap().clone();
    assert!(pr.success);
    net.disconnect_all(sa);

    let op = net.retrieve(eu, cid.clone());
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);

    // Publish breakdown: "walk" and "rpc_batch" segments must agree with
    // the PublishReport to the nanosecond.
    let pub_trace = net.trace(pub_op).expect("publish trace recorded");
    let pub_bd = LatencyBreakdown::from_trace(pub_trace);
    assert_eq!(pub_bd.total(), pr.total, "publish partition is exact");
    assert_eq!(pub_bd.provider_walk, pr.dht_walk, "walk segment matches report");
    assert_eq!(pub_bd.other, pr.rpc_batch, "rpc batch lands in `other`");

    // Retrieval breakdown: every §3.2 phase matches the RetrieveReport
    // field for field, and the components partition the total exactly.
    let bd = LatencyBreakdown::from_trace(net.trace(op).expect("retrieve trace recorded"));
    assert_eq!(bd.total(), rr.total, "components sum exactly to op duration");
    assert_eq!(bd.bitswap_probe, rr.bitswap_probe);
    assert_eq!(bd.bitswap_probe, SimDuration::from_secs(1), "probe burned its 1 s timeout");
    assert_eq!(bd.provider_walk, rr.provider_walk);
    assert_eq!(bd.peer_walk, rr.peer_walk);
    // Note: `dial` may be zero here — the peer walk can leave a warm
    // connection to the provider, which completes the dial instantly.
    assert_eq!(bd.dial + bd.fetch, rr.fetch, "report's fetch = dial + transfer");
    assert_eq!(bd.other, SimDuration::ZERO, "no unattributed time in this pipeline");

    // Stitched span tree: op span nests phase spans, phases nest RPC/dial
    // spans (and the remote spans they caused); the critical path is
    // chronological, within the op, and bounded.
    let tree = net.stitched_trace(op).expect("span tree built");
    assert_eq!(tree.duration(), rr.total);
    assert!(!tree.root.children.is_empty(), "phases present");
    for phase in &tree.root.children {
        assert!(phase.start >= tree.root.start && phase.end <= tree.root.end);
        for child in &phase.children {
            assert!(child.start >= phase.start && child.end <= phase.end);
        }
    }
    let path = tree.critical_path();
    assert!(!path.is_empty());
    assert!(tree.critical_path_duration() <= tree.duration());
    for pair in path.windows(2) {
        assert!(pair[0].end <= pair[1].start, "critical path hops are disjoint and ordered");
    }
    // The walk phases decompose into per-RPC spans on the critical path.
    assert!(
        path.iter().any(|h| h.label.starts_with("rpc:") || h.label == "bitswap_probe"),
        "path descends into leaf spans: {path:?}"
    );
}

#[test]
fn tracing_disabled_records_nothing() {
    let (mut net, ids) = test_network(250, &[simnet::latency::VantagePoint::EuCentral1], 202);
    // Default config: tracing off. Ops must leave no trace behind.
    let cid = net.import_content(ids[0], &payload(10_000, 22));
    let op = net.publish(ids[0], cid);
    net.run_until_quiet();
    assert!(net.trace(op).is_none(), "disabled tracing must not allocate traces");
    // Metrics are always on: the publish was still counted.
    assert_eq!(net.metrics().get("publish_ops"), 1);
}

#[test]
fn idle_connections_expire_and_cold_fetches_pay_the_probe_floor() {
    // Regression for the seed failure in it_gateway::latency_ordering_
    // between_tiers: warm connections never expired, so a long-lived
    // bridge node accumulated provider connections and later "cold"
    // fetches were satisfied by the opportunistic Bitswap probe in
    // well under a second. With the idle timeout, a connection unused
    // longer than `conn_idle_timeout` is closed and the §3.2 pipeline
    // runs in full.
    let cfg = NetworkConfig { conn_idle_timeout: SimDuration::from_secs(60), ..Default::default() };
    let (mut net, ids) = test_network_with(
        300,
        &[simnet::latency::VantagePoint::EuCentral1, simnet::latency::VantagePoint::UsWest1],
        203,
        cfg,
    );
    let [eu, us] = ids[..] else { unreachable!() };
    let first = net.import_content(us, &payload(40_000, 23));
    let second = net.import_content(us, &payload(40_000, 24));
    net.publish(us, first.clone());
    net.run_until_quiet();
    net.publish(us, second.clone());
    net.run_until_quiet();

    // First retrieval warms eu↔us (and walk) connections.
    net.retrieve(eu, first);
    net.run_until_quiet();
    assert!(net.retrieve_reports.last().unwrap().success);

    // Let every connection sit idle past the timeout, then fetch cold.
    let resume = net.now() + SimDuration::from_secs(300);
    net.run_until(resume);
    net.retrieve(eu, second);
    net.run_until_quiet();
    let rr = net.retrieve_reports.last().unwrap().clone();
    assert!(rr.success);
    assert!(!rr.via_bitswap, "probe must not be satisfied over stale connections");
    assert_eq!(
        rr.bitswap_probe,
        SimDuration::from_secs(1),
        "cold fetch pays the full 1 s probe floor: {rr:?}"
    );
    assert!(net.metrics().get("conn_idle_expired") > 0, "idle connections were closed");
}
