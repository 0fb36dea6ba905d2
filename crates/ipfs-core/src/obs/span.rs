//! Span trees, critical-path analysis, and latency attribution.
//!
//! A raw [`OpTrace`] is a flat list of timestamped events; this module
//! holds the causal structure the paper's §6.2 decomposition needs:
//!
//! * [`SpanTree`] — op → phase → per-RPC / per-dial spans (phases tile
//!   the op interval; RPC and dial spans nest inside the phase that
//!   issued them; remote fragments nest under their causes). The one
//!   builder is [`stitch`](super::dtrace::stitch).
//! * [`SpanTree::critical_path`] — the backward-greedy chain of leaf
//!   spans that bounds the op's latency from below: starting at the op's
//!   end, repeatedly step to the child span that finished last and
//!   recurse into it. The covered time never exceeds the op duration.
//! * [`LatencyBreakdown`] — the §6.2 / Fig. 9b split of one retrieval
//!   into `bitswap_probe → provider_walk → peer_walk → dial → fetch`
//!   (plus `other`), computed so the components **exactly** sum to the
//!   op duration in integer-nanosecond arithmetic.
//!
//! The op interval and the phase windows come from one place,
//! `OpFrame`, so the tree and the breakdown can never disagree on where
//! a phase begins or ends. All of this is pure analysis over a collected
//! trace: nothing here touches the simulator.

use super::{OpTrace, TraceEventKind};
use simnet::{SimDuration, SimTime};
use std::ops::Range;

/// One node of a span tree: a labelled `[start, end]` interval with
/// child spans nested inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What the span covers ("retrieve", "provider_walk", "rpc:FIND_NODE",
    /// "dial", ...).
    pub label: String,
    /// When it began.
    pub start: SimTime,
    /// When it ended.
    pub end: SimTime,
    /// Spans causally contained in this one, in start order.
    pub children: Vec<Span>,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// One hop of a critical path: a leaf interval, clamped so hops never
/// overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Label of the leaf span the hop runs through.
    pub label: String,
    /// Hop start.
    pub start: SimTime,
    /// Hop end (clamped to the successor's start).
    pub end: SimTime,
}

impl CriticalHop {
    /// The hop's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// The causal span tree of one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The op-level span; phases are its children.
    pub root: Span,
}

impl SpanTree {
    /// The op duration (root span duration).
    pub fn duration(&self) -> SimDuration {
        self.root.duration()
    }

    /// Computes the critical path: starting from the op's end, repeatedly
    /// pick the child span that finished last before the cursor, recurse
    /// into it, and move the cursor to its start. Returned hops are in
    /// chronological order, non-overlapping, and clamped into their
    /// parents, so the summed hop time never exceeds the op duration.
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        let mut hops = Vec::new();
        cover(&self.root, self.root.end, &mut hops);
        hops
    }

    /// Total time covered by the critical path (≤ [`Self::duration`]).
    pub fn critical_path_duration(&self) -> SimDuration {
        self.critical_path().iter().fold(SimDuration::ZERO, |acc, h| acc + h.duration())
    }
}

/// Backward-greedy critical-path cover of `span` up to `limit`, appending
/// chronological hops to `out`.
fn cover(span: &Span, limit: SimTime, out: &mut Vec<CriticalHop>) {
    let end = span.end.min(limit);
    if end <= span.start && !span.children.is_empty() {
        return;
    }
    if span.children.is_empty() {
        out.push(CriticalHop { label: span.label.clone(), start: span.start, end });
        return;
    }
    let mut cursor = end;
    let mut picked: Vec<(&Span, SimTime)> = Vec::new();
    loop {
        let next = span
            .children
            .iter()
            .filter(|c| c.start < cursor)
            .max_by_key(|c| (c.end.min(cursor), c.start));
        match next {
            Some(c) => {
                picked.push((c, cursor));
                cursor = c.start;
            }
            None => break,
        }
    }
    for (child, lim) in picked.into_iter().rev() {
        cover(child, lim, out);
    }
}

/// The time frame of one traced op: its interval and the window of each
/// pipeline phase.
pub(crate) struct OpFrame {
    /// The first event.
    pub start: SimTime,
    /// `OpFinished`, or the last event if the op never finished; never
    /// before `start`.
    pub end: SimTime,
    /// Phases in entry order. Each runs until the next one is entered
    /// (the last until `end`), so together they tile the op interval
    /// from the first phase on.
    pub phases: Vec<PhaseWindow>,
}

/// One pipeline phase of an [`OpFrame`].
pub(crate) struct PhaseWindow {
    /// Phase label ("bitswap_probe", "walk", ...).
    pub label: &'static str,
    /// When the phase was entered.
    pub start: SimTime,
    /// When the next phase was entered or the op ended; never before
    /// `start`.
    pub end: SimTime,
    /// The phase's events: from its `PhaseEntered` up to the next
    /// phase's.
    pub events: Range<usize>,
}

impl OpFrame {
    /// The frame of `trace`; `None` for an empty trace.
    pub(crate) fn of(trace: &OpTrace) -> Option<OpFrame> {
        let events = &trace.events;
        let start = events.first()?.at;
        let end = events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::OpFinished { .. }))
            .or(events.last())
            .map_or(start, |e| e.at)
            .max(start);
        let entered: Vec<(usize, SimTime, &'static str)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.kind {
                TraceEventKind::PhaseEntered { phase } => Some((i, e.at, phase)),
                _ => None,
            })
            .collect();
        let phases = entered
            .iter()
            .enumerate()
            .map(|(pi, &(idx, at, label))| {
                let (next_idx, phase_end) =
                    entered.get(pi + 1).map_or((events.len(), end), |&(ni, na, _)| (ni, na));
                PhaseWindow { label, start: at, end: phase_end.max(at), events: idx..next_idx }
            })
            .collect();
        Some(OpFrame { start, end, phases })
    }
}

/// The §6.2 latency decomposition of one operation. All components are
/// disjoint slices of the op interval, so they sum to the op duration
/// exactly (integer nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Opportunistic 1 s Bitswap broadcast (§3.2 step 4).
    pub bitswap_probe: SimDuration,
    /// DHT walk for the provider record (also the single `walk` phase of
    /// publish and IPNS ops).
    pub provider_walk: SimDuration,
    /// DHT walk for the provider's peer record.
    pub peer_walk: SimDuration,
    /// Dialing the provider: from `DialStarted` to the connection coming
    /// up (`DialCompleted`); a fetch whose dial failed is attributed here
    /// entirely — the op burned its §6.1 timeout dialing.
    pub dial: SimDuration,
    /// Bitswap content exchange over the established connection.
    pub fetch: SimDuration,
    /// Everything else: pre-phase gap, `rpc_batch`, unknown phases.
    pub other: SimDuration,
}

impl LatencyBreakdown {
    /// Computes the breakdown of a trace. Empty traces yield all zeros.
    pub fn from_trace(trace: &OpTrace) -> LatencyBreakdown {
        let mut bd = LatencyBreakdown::default();
        let Some(frame) = OpFrame::of(trace) else { return bd };
        let Some(first) = frame.phases.first() else {
            bd.other = frame.end.since(frame.start);
            return bd;
        };
        bd.other += first.start.since(frame.start);
        for phase in &frame.phases {
            let seg = phase.end.since(phase.start);
            match phase.label {
                "bitswap_probe" => bd.bitswap_probe += seg,
                "provider_walk" | "walk" => bd.provider_walk += seg,
                "peer_walk" => bd.peer_walk += seg,
                "fetch" => {
                    // Split the fetch phase at the instant the provider
                    // connection came up; a failed dial burns the whole
                    // segment dialing.
                    let window = &trace.events[phase.events.clone()];
                    let connected = window
                        .iter()
                        .find(|e| matches!(e.kind, TraceEventKind::DialCompleted { .. }))
                        .map(|e| e.at.clamp(phase.start, phase.end));
                    let failed =
                        window.iter().any(|e| matches!(e.kind, TraceEventKind::DialFailed { .. }));
                    match connected {
                        Some(tc) => {
                            bd.dial += tc.since(phase.start);
                            bd.fetch += phase.end.since(tc);
                        }
                        None if failed => bd.dial += seg,
                        None => bd.fetch += seg,
                    }
                }
                _ => bd.other += seg,
            }
        }
        bd
    }

    /// Sum of all components — exactly the op duration.
    pub fn total(&self) -> SimDuration {
        self.bitswap_probe
            + self.provider_walk
            + self.peer_walk
            + self.dial
            + self.fetch
            + self.other
    }

    /// The components as `(label, duration)` pairs, pipeline order.
    pub fn components(&self) -> [(&'static str, SimDuration); 6] {
        [
            ("bitswap_probe", self.bitswap_probe),
            ("provider_walk", self.provider_walk),
            ("peer_walk", self.peer_walk),
            ("dial", self.dial),
            ("fetch", self.fetch),
            ("other", self.other),
        ]
    }

    /// Combined DHT-walk time (provider + peer walk) — the component the
    /// paper finds dominant (§6.2).
    pub fn dht_walk(&self) -> SimDuration {
        self.provider_walk + self.peer_walk
    }

    /// The largest component, `(label, duration)`; ties break toward the
    /// earlier pipeline stage.
    pub fn dominant(&self) -> (&'static str, SimDuration) {
        let mut best = ("bitswap_probe", self.bitswap_probe);
        for (label, d) in self.components() {
            if d > best.1 {
                best = (label, d);
            }
        }
        best
    }

    /// Serialises the breakdown as a JSON object of `<component>_us`
    /// fields (microseconds of simulated time).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .components()
            .iter()
            .map(|(label, d)| format!("\"{label}_us\":{}", d.as_nanos() / 1_000))
            .collect();
        format!("{{{},\"total_us\":{}}}", fields.join(","), self.total().as_nanos() / 1_000)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::obs::dtrace::stitch;
    use crate::obs::TraceEvent;
    use crate::ops::OpId;
    use proptest::prelude::*;

    pub(crate) fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    pub(crate) fn ev(ms: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { at: at(ms), kind }
    }

    fn trace_of(events: Vec<TraceEvent>) -> OpTrace {
        OpTrace { origin: 0, events }
    }

    /// The library's one tree builder, without remote fragments.
    fn tree_of(trace: &OpTrace) -> Option<SpanTree> {
        stitch(OpId(0), trace, &[])
    }

    /// A hand-built §3.2 retrieval trace:
    /// probe 1000 ms → provider walk 400 ms (2 RPCs) → peer walk 300 ms →
    /// fetch phase 500 ms split as dial 120 ms + transfer 380 ms.
    pub(crate) fn retrieval_trace() -> OpTrace {
        trace_of(vec![
            ev(0, TraceEventKind::OpStarted { kind: "retrieve" }),
            ev(0, TraceEventKind::PhaseEntered { phase: "bitswap_probe" }),
            ev(1000, TraceEventKind::PhaseEntered { phase: "provider_walk" }),
            ev(1000, TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer: 4 }),
            ev(1150, TraceEventKind::RpcOk { peer: 4 }),
            ev(1150, TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer: 9 }),
            ev(1400, TraceEventKind::RpcOk { peer: 9 }),
            ev(1400, TraceEventKind::PhaseEntered { phase: "peer_walk" }),
            ev(1450, TraceEventKind::RpcSent { kind: "FIND_NODE", peer: 2 }),
            ev(1700, TraceEventKind::RpcFailed { peer: 2 }),
            ev(1700, TraceEventKind::PhaseEntered { phase: "fetch" }),
            ev(1700, TraceEventKind::DialStarted { peer: 7 }),
            ev(1820, TraceEventKind::DialCompleted { peer: 7 }),
            ev(2200, TraceEventKind::OpFinished { success: true }),
        ])
    }

    /// Reference tree builder: an independent, direct reading of the
    /// span rules, kept to check [`stitch`] against.
    ///
    /// The op span runs from the first event to `OpFinished` (or the last
    /// event if the op never finished). Each `PhaseEntered` opens a phase
    /// span that closes when the next phase opens or the op ends. Within a
    /// phase, `RpcSent` pairs with the first later unclaimed
    /// `RpcOk`/`RpcFailed` for the same peer in that phase, and
    /// `DialStarted` with the first later unclaimed `DialCompleted`/
    /// `DialFailed` for the same peer anywhere after it; unmatched starts
    /// close at the phase end. Children keep event order and are clamped
    /// into their phase.
    fn reference_tree(trace: &OpTrace) -> Option<SpanTree> {
        let events = &trace.events;
        let start = events.first()?.at;
        let end = events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::OpFinished { .. }))
            .map(|e| e.at)
            .unwrap_or_else(|| events.last().map(|e| e.at).unwrap_or(start));
        let label = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::OpStarted { kind } => Some(kind),
                _ => None,
            })
            .unwrap_or("op");
        let bounds: Vec<(usize, SimTime, &'static str)> = events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.kind {
                TraceEventKind::PhaseEntered { phase } => Some((i, e.at, phase)),
                _ => None,
            })
            .collect();
        let clamped = |label: String, s: SimTime, e: SimTime, ps: SimTime, pe: SimTime| {
            let s = s.max(ps).min(pe);
            Span { label, start: s, end: e.clamp(s, pe), children: Vec::new() }
        };
        let mut phases = Vec::new();
        for (pi, &(idx, at, phase)) in bounds.iter().enumerate() {
            let (next_idx, phase_end) = match bounds.get(pi + 1) {
                Some(&(ni, na, _)) => (ni, na),
                None => (events.len(), end),
            };
            let phase_end = phase_end.max(at);
            let mut children = Vec::new();
            let mut claimed = vec![false; events.len()];
            for i in idx..next_idx {
                match events[i].kind {
                    TraceEventKind::RpcSent { kind, peer } => {
                        let matched = (i + 1..next_idx).find(|&j| {
                            !claimed[j]
                                && matches!(
                                    events[j].kind,
                                    TraceEventKind::RpcOk { peer: p }
                                    | TraceEventKind::RpcFailed { peer: p } if p == peer
                                )
                        });
                        let child_end = match matched {
                            Some(j) => {
                                claimed[j] = true;
                                events[j].at
                            }
                            None => phase_end,
                        };
                        let label = format!("rpc:{kind}");
                        children.push(clamped(label, events[i].at, child_end, at, phase_end));
                    }
                    TraceEventKind::DialStarted { peer } => {
                        let matched = (i + 1..events.len()).find(|&j| {
                            !claimed[j]
                                && matches!(
                                    events[j].kind,
                                    TraceEventKind::DialCompleted { peer: p }
                                    | TraceEventKind::DialFailed { peer: p, .. } if p == peer
                                )
                        });
                        let child_end = match matched {
                            Some(j) => {
                                claimed[j] = true;
                                events[j].at
                            }
                            None => phase_end,
                        };
                        let label = "dial".to_string();
                        children.push(clamped(label, events[i].at, child_end, at, phase_end));
                    }
                    _ => {}
                }
            }
            phases.push(Span { label: phase.to_string(), start: at, end: phase_end, children });
        }
        Some(SpanTree {
            root: Span { label: label.to_string(), start, end: end.max(start), children: phases },
        })
    }

    #[test]
    fn span_tree_reconstructs_the_pipeline() {
        let tree = tree_of(&retrieval_trace()).unwrap();
        assert_eq!(tree.root.label, "retrieve");
        assert_eq!(tree.duration(), SimDuration::from_millis(2200));
        let labels: Vec<&str> = tree.root.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["bitswap_probe", "provider_walk", "peer_walk", "fetch"]);
        // Phases tile the op interval.
        for pair in tree.root.children.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let walk = &tree.root.children[1];
        assert_eq!(walk.children.len(), 2, "two RPC spans: {walk:?}");
        assert_eq!(walk.children[0].duration(), SimDuration::from_millis(150));
        assert_eq!(walk.children[1].duration(), SimDuration::from_millis(250));
        let fetch = &tree.root.children[3];
        assert_eq!(fetch.children.len(), 1);
        assert_eq!(fetch.children[0].label, "dial");
        assert_eq!(fetch.children[0].duration(), SimDuration::from_millis(120));
    }

    #[test]
    fn breakdown_matches_the_pipeline_and_sums_exactly() {
        let bd = LatencyBreakdown::from_trace(&retrieval_trace());
        assert_eq!(bd.bitswap_probe, SimDuration::from_millis(1000));
        assert_eq!(bd.provider_walk, SimDuration::from_millis(400));
        assert_eq!(bd.peer_walk, SimDuration::from_millis(300));
        assert_eq!(bd.dial, SimDuration::from_millis(120));
        assert_eq!(bd.fetch, SimDuration::from_millis(380));
        assert_eq!(bd.other, SimDuration::ZERO);
        assert_eq!(bd.total(), SimDuration::from_millis(2200));
        assert_eq!(bd.dominant().0, "bitswap_probe");
        assert!(bd.to_json().contains("\"provider_walk_us\":400000"));
    }

    #[test]
    fn failed_dial_attributes_the_fetch_phase_to_dial() {
        let trace = trace_of(vec![
            ev(0, TraceEventKind::OpStarted { kind: "retrieve" }),
            ev(0, TraceEventKind::PhaseEntered { phase: "fetch" }),
            ev(0, TraceEventKind::DialStarted { peer: 3 }),
            ev(0, TraceEventKind::DialFailed { peer: 3, class: crate::DialClass::Timeout5s }),
            ev(5000, TraceEventKind::OpFinished { success: false }),
        ]);
        let bd = LatencyBreakdown::from_trace(&trace);
        assert_eq!(bd.dial, SimDuration::from_secs(5));
        assert_eq!(bd.fetch, SimDuration::ZERO);
        assert_eq!(bd.total(), SimDuration::from_secs(5));
    }

    #[test]
    fn empty_and_phaseless_traces_are_safe() {
        assert!(tree_of(&OpTrace::default()).is_none());
        assert_eq!(LatencyBreakdown::from_trace(&OpTrace::default()), LatencyBreakdown::default());
        let trace = trace_of(vec![
            ev(5, TraceEventKind::OpStarted { kind: "retrieve" }),
            ev(42, TraceEventKind::OpFinished { success: false }),
        ]);
        let bd = LatencyBreakdown::from_trace(&trace);
        assert_eq!(bd.other, SimDuration::from_millis(37));
        assert_eq!(bd.total(), SimDuration::from_millis(37));
        let tree = tree_of(&trace).unwrap();
        assert_eq!(tree.duration(), SimDuration::from_millis(37));
        assert_eq!(tree.critical_path_duration(), tree.duration());
    }

    #[test]
    fn critical_path_walks_the_latest_finishers() {
        let tree = tree_of(&retrieval_trace()).unwrap();
        let path = tree.critical_path();
        let labels: Vec<&str> = path.iter().map(|h| h.label.as_str()).collect();
        // Inside provider_walk the second RPC finishes at the phase end;
        // inside peer_walk the (failed) FIND_NODE does; inside fetch no
        // child reaches the end, so the dial is the last finisher.
        assert_eq!(
            labels,
            vec![
                "bitswap_probe",
                "rpc:GET_PROVIDERS",
                "rpc:GET_PROVIDERS",
                "rpc:FIND_NODE",
                "dial"
            ]
        );
        assert!(tree.critical_path_duration() <= tree.duration());
        for pair in path.windows(2) {
            assert!(pair[0].end <= pair[1].start, "hops must not overlap: {path:?}");
        }
    }

    /// Recursively asserts children nest within their parent and are
    /// clamped to it.
    fn assert_nested(span: &Span) {
        for c in &span.children {
            assert!(c.start >= span.start && c.end <= span.end, "child escapes parent: {span:?}");
            assert!(c.start <= c.end);
            assert_nested(c);
        }
    }

    /// Builds a synthetic retrieval trace from generated durations (ms)
    /// and per-walk RPC offsets, returning the trace and its exact end.
    #[allow(clippy::type_complexity)]
    fn synth_trace(
        probe_ms: u64,
        walk_ms: u64,
        peer_ms: u64,
        dial_ms: u64,
        transfer_ms: u64,
        rpcs: &[(u64, u64)],
    ) -> OpTrace {
        let mut events = vec![
            ev(0, TraceEventKind::OpStarted { kind: "retrieve" }),
            ev(0, TraceEventKind::PhaseEntered { phase: "bitswap_probe" }),
            ev(probe_ms, TraceEventKind::PhaseEntered { phase: "provider_walk" }),
        ];
        let walk_end = probe_ms + walk_ms;
        for (i, &(off, dur)) in rpcs.iter().enumerate() {
            let s = probe_ms + off % walk_ms.max(1);
            let e = (s + dur).min(walk_end);
            events.push(ev(s, TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer: i }));
            events.push(ev(e, TraceEventKind::RpcOk { peer: i }));
        }
        // RPC replies may land after the next phase starts; keep the
        // event list time-sorted as the tracer would have recorded it.
        events.sort_by_key(|e| e.at);
        let peer_end = walk_end + peer_ms;
        let fetch_end = peer_end + dial_ms + transfer_ms;
        events.push(ev(walk_end, TraceEventKind::PhaseEntered { phase: "peer_walk" }));
        events.push(ev(peer_end, TraceEventKind::PhaseEntered { phase: "fetch" }));
        events.push(ev(peer_end, TraceEventKind::DialStarted { peer: 99 }));
        events.push(ev(peer_end + dial_ms, TraceEventKind::DialCompleted { peer: 99 }));
        events.push(ev(fetch_end, TraceEventKind::OpFinished { success: true }));
        trace_of(events)
    }

    /// A time-ordered trace from generated `(event selector, peer, gap ms)`
    /// triples. Gaps are mostly zero, so sends, replies, dials and phase
    /// changes often share an instant; peers come from a small pool, so
    /// replies pair with earlier sends (or with none).
    fn random_trace(steps: &[(u8, usize, u64)], finished: bool) -> OpTrace {
        const PHASES: [&str; 6] =
            ["bitswap_probe", "provider_walk", "peer_walk", "fetch", "walk", "rpc_batch"];
        let mut t = 0;
        let mut events = vec![ev(0, TraceEventKind::OpStarted { kind: "retrieve" })];
        for &(sel, peer, gap) in steps {
            t += gap;
            let kind = match sel {
                0 => TraceEventKind::PhaseEntered { phase: PHASES[peer % PHASES.len()] },
                1 => TraceEventKind::RpcSent { kind: "FIND_NODE", peer },
                2 => TraceEventKind::RpcSent { kind: "GET_PROVIDERS", peer },
                3 => TraceEventKind::RpcOk { peer },
                4 => TraceEventKind::RpcFailed { peer },
                5 => TraceEventKind::DialStarted { peer },
                6 => TraceEventKind::DialCompleted { peer },
                7 => TraceEventKind::DialFailed { peer, class: crate::DialClass::FastRefuse },
                _ => TraceEventKind::BlockReceived,
            };
            events.push(ev(t, kind));
        }
        if finished {
            events.push(ev(t + 1, TraceEventKind::OpFinished { success: true }));
        }
        trace_of(events)
    }

    /// A phase's child spans as a sorted multiset of `(label, start, end)`.
    fn child_set(phase: &Span) -> Vec<(String, SimTime, SimTime)> {
        let mut v: Vec<_> =
            phase.children.iter().map(|c| (c.label.clone(), c.start, c.end)).collect();
        v.sort();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn spans_nest_breakdown_sums_and_critical_path_is_bounded(
            probe_ms in 1u64..3_000,
            walk_ms in 1u64..60_000,
            peer_ms in 0u64..30_000,
            dial_ms in 0u64..5_000,
            transfer_ms in 1u64..30_000,
            rpcs in proptest::collection::vec((0u64..60_000, 1u64..10_000), 0..12),
        ) {
            let trace = synth_trace(probe_ms, walk_ms, peer_ms, dial_ms, transfer_ms, &rpcs);
            let total = SimDuration::from_millis(
                probe_ms + walk_ms + peer_ms + dial_ms + transfer_ms,
            );

            // (a) child spans nest within their parents.
            let tree = tree_of(&trace).unwrap();
            assert_nested(&tree.root);

            // (b) breakdown components sum exactly to the op duration.
            let bd = LatencyBreakdown::from_trace(&trace);
            prop_assert_eq!(bd.total(), total);
            prop_assert_eq!(bd.total(), tree.duration());
            prop_assert_eq!(bd.bitswap_probe, SimDuration::from_millis(probe_ms));
            prop_assert_eq!(bd.dial, SimDuration::from_millis(dial_ms));

            // (c) the critical path never exceeds the op duration, and
            // its hops are chronological and disjoint.
            let path = tree.critical_path();
            prop_assert!(tree.critical_path_duration() <= tree.duration());
            for pair in path.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start);
            }
        }

        /// Without remote fragments, `stitch` builds the reference tree:
        /// the same phase windows, the same child spans in each phase (as
        /// a multiset: `stitch` orders children by start, end and label,
        /// the reference by event order) and the same critical-path
        /// length; and the breakdown partitions the same root interval.
        #[test]
        fn stitch_without_fragments_matches_the_reference_builder(
            steps in proptest::collection::vec((0u8..9, 0usize..4, 0u64..3), 0..40),
            finished in 0u8..4,
        ) {
            let trace = random_trace(&steps, finished != 0);
            let stitched = tree_of(&trace).unwrap();
            let reference = reference_tree(&trace).unwrap();
            let window = |s: &Span| (s.label.clone(), s.start, s.end);
            prop_assert_eq!(window(&stitched.root), window(&reference.root));
            prop_assert_eq!(stitched.root.children.len(), reference.root.children.len());
            for (s, r) in stitched.root.children.iter().zip(&reference.root.children) {
                prop_assert_eq!(window(s), window(r));
                prop_assert_eq!(child_set(s), child_set(r));
            }
            prop_assert_eq!(stitched.critical_path_duration(), reference.critical_path_duration());
            prop_assert_eq!(LatencyBreakdown::from_trace(&trace).total(), stitched.duration());
        }
    }
}
