//! The discrete-event scheduler.
//!
//! A single-threaded, deterministic event queue: events are (time, sequence)
//! ordered; ties break by insertion order so identical seeds replay
//! identically. The queue is generic over the event payload — the IPFS
//! layer defines its own event enum (message deliveries, timer fires, churn
//! transitions) and runs its own dispatch loop over [`EventQueue::pop`].
//!
//! [`EventQueue`] is a hierarchical timing wheel (hashed-and-hierarchical,
//! calendar-queue style): [`LEVELS`] levels of [`SLOTS`] slots each,
//! ~1.05 ms granularity at level 0, each level 256× coarser (level 0 spans
//! ~0.27 s, level 1 ~69 s, level 2 ~4.9 h, level 3 ~52 days … level 5 the
//! whole `u64` nanosecond range). `schedule` is O(1); `pop` amortizes slot
//! drains and cascades over the events they move. Dispatch order is
//! **exactly** the `(time, seq)` order of a binary heap: a drained level-0
//! slot is sorted before it reaches the ready buffer, and coarser slots
//! cascade down before anything inside them can fire. This module's tests
//! compare the wheel, call for call, with a binary-heap reference model.
//!
//! [`EventQueue::schedule_cancellable`] returns a [`TimerId`] that can be
//! O(1)-cancelled later: the entry is tombstoned and physically removed
//! whenever the scheduler would next surface it. Sequence numbers are never
//! reused, so a `TimerId` is immune to ABA confusion — cancelling an
//! already-fired timer is a no-op that returns `false`.

use crate::time::{SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};

/// An event queued for a future instant.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub at: SimTime,
    /// Insertion sequence number (tie-breaker, FIFO within an instant).
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Handle to a pending cancellable timer (see
/// [`EventQueue::schedule_cancellable`]). Wraps the event's unique sequence
/// number, which doubles as a generation stamp: seqs are never reused, so a
/// stale handle can never cancel a different timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// log2 of the level-0 slot width in nanoseconds (2^20 ns ≈ 1.05 ms).
const GRANULARITY_BITS: u32 = 20;
/// Wheel levels. Level 5 shifts by 60 bits, so its 16 in-range slots cover
/// every representable `u64` instant — insertion can never fall off the end.
const LEVELS: usize = 6;

/// Bit shift turning an instant into an absolute slot number at `level`.
const fn level_shift(level: usize) -> u32 {
    GRANULARITY_BITS + SLOT_BITS * level as u32
}

/// One wheel level: 256 slots plus an occupancy bitmap for O(words) scans.
#[derive(Debug)]
struct Level<E> {
    slots: Vec<Vec<ScheduledEvent<E>>>,
    occupied: [u64; SLOTS / 64],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level { slots: (0..SLOTS).map(|_| Vec::new()).collect(), occupied: [0; SLOTS / 64] }
    }

    fn set_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    fn clear_bit(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
    }

    fn is_empty(&self) -> bool {
        self.occupied.iter().all(|w| *w == 0)
    }

    /// First occupied slot index scanning circularly from `from`.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let words = self.occupied.len();
        let word0 = from / 64;
        let bit0 = from % 64;
        for i in 0..=words {
            let w = (word0 + i) % words;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0u64 << bit0; // only slots >= from
            } else if i == words {
                bits &= !(!0u64 << bit0); // wrapped: only slots < from
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Hierarchical timing wheel preserving exact `(at, seq)` dispatch order.
///
/// Invariants:
/// * every event stored in `levels` has `at >= drained_until`;
/// * `ready` holds events with `at < drained_until`, sorted by `(at, seq)`;
/// * `drained_until` is always a multiple of the level-0 slot width, and
///   only ever grows.
///
/// An event's level is the smallest `k` with
/// `(at >> shift_k) - (drained_until >> shift_k) < SLOTS`; that window makes
/// the masked slot index ↔ absolute slot mapping bijective at read time
/// (absolute slots at level `k` always lie in `[pos_k, pos_k + SLOTS - 1]`
/// where `pos_k = drained_until >> shift_k`), so no epoch tags are needed.
#[derive(Debug)]
struct TimerWheel<E> {
    levels: Vec<Level<E>>,
    /// Events already pulled below `drained_until`, in dispatch order.
    ready: VecDeque<ScheduledEvent<E>>,
    /// Nanosecond boundary: see type-level invariants.
    drained_until: u64,
    /// Events currently stored in `levels` (excludes `ready`).
    in_levels: usize,
}

impl<E> TimerWheel<E> {
    fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            ready: VecDeque::new(),
            drained_until: 0,
            in_levels: 0,
        }
    }

    fn push(&mut self, ev: ScheduledEvent<E>) {
        if ev.at.as_nanos() < self.drained_until {
            // Clamped-past or scheduled-during-dispatch inside an already
            // drained slot: merge into the sorted ready buffer. `seq` is
            // unique, so the search always yields an insertion point.
            let key = (ev.at, ev.seq);
            let idx = self
                .ready
                .binary_search_by(|e| (e.at, e.seq).cmp(&key))
                .unwrap_or_else(|insert_at| insert_at);
            self.ready.insert(idx, ev);
            return;
        }
        self.insert_into_levels(ev);
    }

    fn insert_into_levels(&mut self, ev: ScheduledEvent<E>) {
        let at = ev.at.as_nanos();
        debug_assert!(at >= self.drained_until);
        for (level, lv) in self.levels.iter_mut().enumerate() {
            let shift = level_shift(level);
            if (at >> shift) - (self.drained_until >> shift) < SLOTS as u64 {
                let slot = ((at >> shift) & SLOT_MASK) as usize;
                lv.slots[slot].push(ev);
                lv.set_bit(slot);
                self.in_levels += 1;
                return;
            }
        }
        unreachable!("the top wheel level covers the full u64 range");
    }

    /// Ensures `ready` is non-empty whenever any event is pending: drains
    /// the earliest level-0 slot (sorted) or cascades the earliest coarser
    /// slot one level down. Each cascaded event drops at least one level,
    /// so the loop terminates.
    fn advance_ready(&mut self) {
        while self.ready.is_empty() && self.in_levels > 0 {
            // Earliest upcoming slot across levels; ties go to the coarser
            // level so its events cascade before the finer slot drains
            // (they may be earlier than anything in the finer slot).
            let mut best: Option<(u64, usize, usize, u64)> = None; // (candidate, level, slot, abs)
            for (level, lv) in self.levels.iter().enumerate() {
                if lv.is_empty() {
                    continue;
                }
                let shift = level_shift(level);
                let pos = self.drained_until >> shift;
                let masked_pos = (pos & SLOT_MASK) as usize;
                let m = lv.first_occupied_from(masked_pos).expect("level has occupied bits");
                let wrap = if m < masked_pos { SLOTS as u64 } else { 0 };
                let abs = pos - masked_pos as u64 + m as u64 + wrap;
                // The slot holding `drained_until` itself starts before it;
                // clamp so candidates compare on first possible fire time.
                let candidate = (abs << shift).max(self.drained_until);
                if best.is_none_or(|(b, ..)| candidate <= b) {
                    best = Some((candidate, level, m, abs));
                }
            }
            let (candidate, level, slot, abs) = best.expect("in_levels > 0");
            let shift = level_shift(level);
            let events = std::mem::take(&mut self.levels[level].slots[slot]);
            self.levels[level].clear_bit(slot);
            self.in_levels -= events.len();
            if level == 0 {
                // These are the earliest pending events; sort the slot and
                // expose it. Saturating: the final slot ends at u64::MAX.
                self.drained_until = (abs << shift).saturating_add(1 << shift);
                let mut events = events;
                events.sort_unstable_by_key(|a| (a.at, a.seq));
                self.ready.extend(events);
            } else {
                // Cascade one level down. `candidate` is level-0 aligned
                // (every level's slot width is a multiple of level 0's).
                self.drained_until = candidate;
                for ev in events {
                    self.insert_into_levels(ev);
                }
            }
        }
    }

    fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.advance_ready();
        self.ready.front().map(|e| (e.at, e.seq))
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.advance_ready();
        self.ready.pop_front()
    }
}

/// The pending-event queue, backed by the timing wheel.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    next_seq: u64,
    now: SimTime,
    /// Logical pending count (excludes cancelled-but-not-yet-removed).
    pending: usize,
    /// Seqs of cancellable timers still armed.
    live: HashSet<u64>,
    /// Seqs cancelled but still physically queued (lazy tombstones).
    cancelled: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            pending: 0,
            live: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }

    /// Current virtual time (time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` after `delay`.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant. Instants in the past are
    /// clamped to "now" (they dispatch next, preserving causality).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.push_event(at, event);
    }

    /// Like [`EventQueue::schedule`], but returns a handle that can
    /// O(1)-cancel the event before it fires.
    pub fn schedule_cancellable(&mut self, delay: SimDuration, event: E) -> TimerId {
        self.schedule_at_cancellable(self.now + delay, event)
    }

    /// Like [`EventQueue::schedule_at`], but cancellable.
    pub fn schedule_at_cancellable(&mut self, at: SimTime, event: E) -> TimerId {
        let seq = self.push_event(at, event);
        self.live.insert(seq);
        TimerId(seq)
    }

    /// Cancels a pending timer. Returns `true` if it was still armed; a
    /// timer that already fired (or was already cancelled) returns `false`.
    /// The entry is tombstoned and reclaimed lazily — cancellation never
    /// perturbs the dispatch order of the surviving events.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
            self.pending -= 1;
            true
        } else {
            false
        }
    }

    /// Schedules `event` at an absolute instant under a *caller-supplied*
    /// tie-break key that takes the place of the internal insertion
    /// sequence. Dispatch order is (time, key), so two queues that receive
    /// the same keyed events in any insertion order dispatch identically —
    /// the property the region-sharded PDES driver ([`crate::shard`])
    /// relies on when cross-shard mailboxes are drained in nondeterministic
    /// order. Keys must be unique per (instant, queue) and keyed scheduling
    /// must not be mixed with the auto-sequenced `schedule*` methods on the
    /// same queue (the internal counter could collide with a caller key).
    /// Keyed events are not cancellable. Panics if `at` is in the past.
    pub fn schedule_at_keyed(&mut self, at: SimTime, key: u64, event: E) {
        assert!(at >= self.now, "keyed event scheduled in the past");
        self.pending += 1;
        self.wheel.push(ScheduledEvent { at, seq: key, event });
    }

    fn push_event(&mut self, at: SimTime, event: E) -> u64 {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        self.wheel.push(ScheduledEvent { at, seq, event });
        seq
    }

    /// Pops the next event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        loop {
            let ev = self.wheel.pop()?;
            if !self.cancelled.is_empty() && self.cancelled.remove(&ev.seq) {
                continue; // tombstone of a cancelled timer
            }
            if !self.live.is_empty() {
                self.live.remove(&ev.seq);
            }
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.pending -= 1;
            return Some(ev);
        }
    }

    /// Number of pending events (cancelled timers excluded).
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Instant of the next pending event, if any. Takes `&mut self`: the
    /// wheel may lazily cascade coarse slots downward, and cancelled
    /// tombstones surfacing at the front are reclaimed here — neither
    /// changes anything observable.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (at, seq) = self.wheel.peek()?;
            if !self.cancelled.is_empty() && self.cancelled.contains(&seq) {
                let ev = self.wheel.pop().expect("peeked event must pop");
                self.cancelled.remove(&ev.seq);
                continue;
            }
            return Some(at);
        }
    }

    /// Advances the clock to `at` without dispatching anything — the hook
    /// external controllers (fault plans, scripted scenarios) use to act at
    /// exact virtual instants between events. Clamped so time never runs
    /// backwards and never jumps past a pending event (which would trip the
    /// causality check in [`EventQueue::pop`]). Returns the new "now".
    pub fn advance_to(&mut self, at: SimTime) -> SimTime {
        let mut target = at.max(self.now);
        if let Some(next) = self.peek_time() {
            target = target.min(next);
        }
        self.now = target;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// Pops every event due by `deadline`, handing each to `handler` with
    /// the queue so it can schedule follow-ups (the dispatch loop netsim
    /// runs). Returns the number dispatched.
    fn run_until<E>(
        q: &mut EventQueue<E>,
        deadline: SimTime,
        mut handler: impl FnMut(&mut EventQueue<E>, SimTime, E),
    ) -> u64 {
        let mut n = 0;
        while q.peek_time().is_some_and(|at| at <= deadline) {
            let ev = q.pop().expect("peeked event must pop");
            handler(q, ev.at, ev.event);
            n += 1;
        }
        n
    }

    #[test]
    fn events_dispatch_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(SimDuration::from_millis(30), 3);
        q.schedule(SimDuration::from_millis(10), 1);
        q.schedule(SimDuration::from_millis(20), 2);
        let mut order = Vec::new();
        run_until(&mut q, SimTime::MAX, |_, t, e| order.push((t.as_millis(), e)));
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimDuration::from_millis(5), i);
        }
        let mut order = Vec::new();
        run_until(&mut q, SimTime::MAX, |_, _, e| order.push(e));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(SimDuration::from_secs(1), 0);
        let mut count = 0u32;
        run_until(&mut q, SimTime::MAX, |q, _, e| {
            count += 1;
            if e < 5 {
                q.schedule(SimDuration::from_secs(1), e + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(q.now(), secs(6));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 1..=10 {
            q.schedule(SimDuration::from_secs(i), i as u32);
        }
        assert_eq!(run_until(&mut q, secs(5), |_, _, _| {}), 5);
        assert_eq!(q.len(), 5);
        // Clock sits at the last dispatched event, not the deadline.
        assert_eq!(q.now(), secs(5));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(SimDuration::from_secs(10), 1);
        let mut seen = Vec::new();
        run_until(&mut q, SimTime::MAX, |q, t, e| {
            seen.push((t.as_millis(), e));
            if e == 1 {
                // "Past" absolute time: must clamp to now (10s), not 1s.
                q.schedule_at(secs(1), 2);
            }
        });
        assert_eq!(seen, vec![(10_000, 1), (10_000, 2)]);
    }

    #[test]
    fn advance_to_clamps_to_pending_events_and_now() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule(SimDuration::from_secs(10), 1);
        assert_eq!(q.advance_to(secs(4)), secs(4), "free advance below the next event");
        assert_eq!(q.advance_to(secs(1)), secs(4), "cannot move backwards");
        assert_eq!(q.advance_to(secs(60)), secs(10), "cannot jump past the pending event");
        assert_eq!(q.pop().expect("event still pending").at, secs(10));
        // With an empty queue the clock advances freely.
        assert_eq!(q.advance_to(secs(60)), secs(60));
        assert_eq!(q.now(), secs(60));
    }

    #[test]
    fn far_future_timers_cascade_in_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // Paper-realistic standing timers: 12 h republish, 10 min
        // refresh, sub-second RPCs — all interleaved.
        q.schedule(SimDuration::from_hours(12), 4);
        q.schedule(SimDuration::from_mins(10), 3);
        q.schedule(SimDuration::from_millis(250), 1);
        q.schedule(SimDuration::from_secs(30), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|ev| ev.event).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        assert_eq!(q.now(), secs(12 * 3600));
    }

    #[test]
    fn cancel_prevents_dispatch_exactly_once() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let keep = q.schedule_cancellable(SimDuration::from_secs(1), 1);
        let drop_ = q.schedule_cancellable(SimDuration::from_secs(2), 2);
        q.schedule(SimDuration::from_secs(3), 3);
        assert_eq!(q.len(), 3);
        assert!(q.cancel(drop_));
        assert_eq!(q.len(), 2);
        assert!(!q.cancel(drop_), "double cancel is a no-op");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|ev| ev.event).collect();
        assert_eq!(order, vec![1, 3]);
        assert!(!q.cancel(keep), "cancelling a fired timer is a no-op");
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_timer_never_blocks_peek_or_advance() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = q.schedule_cancellable(SimDuration::from_secs(5), 1);
        q.schedule(SimDuration::from_secs(10), 2);
        assert!(q.cancel(t));
        // peek skips the tombstone; advance_to is not clamped by it.
        assert_eq!(q.peek_time(), Some(secs(10)));
        assert_eq!(q.advance_to(secs(8)), secs(8));
        assert_eq!(q.pop().expect("real event").event, 2);
        assert!(q.pop().is_none());
    }

    /// The timing wheel and its reference, driven with the same calls;
    /// every call asserts that both observe the same thing. The reference
    /// is a `BinaryHeap` ordered by `(at, seq)`, with the queue's clock,
    /// past-instant clamping, lazy cancellation and keyed tie-breaks
    /// modelled apart from [`EventQueue`]'s bookkeeping.
    #[derive(Default)]
    struct Lockstep {
        wheel: EventQueue<u64>,
        /// Reference entries `(at, seq or key, payload)`, earliest first.
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        now: SimTime,
        next_seq: u64,
        /// Seqs of armed cancellable timers; of cancelled, unsurfaced ones.
        live: HashSet<u64>,
        cancelled: HashSet<u64>,
        payload: u64,
        handles: Vec<TimerId>,
    }

    impl Lockstep {
        fn check(&self) -> usize {
            assert_eq!(self.wheel.now(), self.now, "clocks diverged");
            let pending = self.heap.len() - self.cancelled.len();
            assert_eq!(self.wheel.len(), pending, "pending counts diverged");
            pending
        }

        fn schedule_at(&mut self, at: SimTime, cancellable: bool) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.payload += 1;
            self.heap.push(Reverse((at.max(self.now), seq, self.payload)));
            if cancellable {
                let id = self.wheel.schedule_at_cancellable(at, self.payload);
                assert_eq!(id, TimerId(seq));
                self.live.insert(seq);
                self.handles.push(id);
            } else {
                self.wheel.schedule_at(at, self.payload);
            }
            self.check();
        }

        /// Keyed scheduling, as the sharded engine uses it: never in the
        /// past, never mixed with the sequenced calls on one queue.
        fn schedule_at_keyed(&mut self, at: SimTime, key: u64) {
            self.payload += 1;
            self.wheel.schedule_at_keyed(at, key, self.payload);
            self.heap.push(Reverse((at, key, self.payload)));
            self.check();
        }

        fn cancel(&mut self, pick: u64) {
            if let Some(&id) = self.handles.get(pick as usize % self.handles.len().max(1)) {
                let armed = self.live.remove(&id.0) && self.cancelled.insert(id.0);
                assert_eq!(self.wheel.cancel(id), armed, "cancel {id:?}");
                self.check();
            }
        }

        /// The reference's next live instant; reclaims cancelled entries.
        fn peek(&mut self) -> Option<SimTime> {
            while let Some(&Reverse((at, seq, _))) = self.heap.peek() {
                if !self.cancelled.remove(&seq) {
                    return Some(at);
                }
                self.heap.pop();
            }
            None
        }

        fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
            let expected = self.peek().and_then(|_| self.heap.pop()).map(|Reverse(ev)| ev);
            if let Some((at, seq, _)) = expected {
                self.live.remove(&seq);
                self.now = at;
            }
            let popped = self.wheel.pop().map(|ev| (ev.at, ev.seq, ev.event));
            assert_eq!(popped, expected, "pop diverged");
            self.check();
            popped
        }

        fn advance_to(&mut self, at: SimTime) {
            let target = at.max(self.now);
            self.now = self.peek().map_or(target, |next| target.min(next));
            assert_eq!(self.wheel.advance_to(at), self.now, "advance diverged");
            assert_eq!(self.wheel.peek_time(), self.peek(), "peek diverged");
            self.check();
        }

        /// Pops everything left (far-future cascades included); returns
        /// how many events that was.
        fn drain(&mut self) -> usize {
            let n = std::iter::from_fn(|| self.pop()).count();
            assert!(self.wheel.is_empty());
            n
        }
    }

    /// A delay from sub-slot nanoseconds up to ~10 h, biased toward small
    /// values so same-instant ties actually occur.
    fn delay(a: u64, b: u64) -> SimDuration {
        SimDuration::from_nanos(a % (1u64 << (b % 46)).max(1))
    }

    /// An instant one ns before, on, or one or two ns past a slot boundary
    /// of wheel level `b % LEVELS`, 0, 1, 2, `SLOTS - 1`, `SLOTS` or
    /// `SLOTS + 1` slots past the slot holding `now`: where a cascade hands
    /// events down a level and where a level's window ends. Capped at
    /// 2^62 ns so later delays cannot overflow the clock.
    fn boundary_instant(now: SimTime, a: u64, b: u64) -> SimTime {
        let shift = level_shift((b % LEVELS as u64) as usize);
        let k = [0, 1, 2, SLOTS - 1, SLOTS, SLOTS + 1][(b >> 8) as usize % 6] as u64;
        let edge = ((now.as_nanos() >> shift) + k).saturating_mul(1 << shift);
        SimTime::from_nanos((edge.min(1 << 62) + a % 4).saturating_sub(1))
    }

    /// A coarse slot wins a tie with a fine slot: its events may be
    /// earlier than anything in the fine one. Event A waits in level 1
    /// while B, scheduled later, lands in level 0 in the slot whose start
    /// equals A's level-1 slot start; A must cascade before B's slot
    /// drains.
    #[test]
    fn coarse_slot_cascades_before_a_tied_fine_slot() {
        let slot1 = 1u64 << level_shift(1); // 256 level-0 slots
        let mut q: EventQueue<char> = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(slot1 + 1), 'A');
        q.schedule_at(SimTime::from_nanos((1 << GRANULARITY_BITS) + 7), 'x');
        assert_eq!(q.pop().map(|ev| ev.event), Some('x'));
        q.schedule_at(SimTime::from_nanos(slot1 + 3), 'B');
        let order: Vec<(u64, char)> =
            std::iter::from_fn(|| q.pop()).map(|ev| (ev.at.as_nanos(), ev.event)).collect();
        assert_eq!(order, vec![(slot1 + 1, 'A'), (slot1 + 3, 'B')]);
    }

    #[test]
    fn proptest_wheel_heap_trace_equivalence() {
        use proptest::prelude::*;
        proptest!(
            ProptestConfig::with_cases(512),
            |(ops in proptest::collection::vec((0u8..7, any::<u64>(), any::<u64>()), 1..120))| {
                let mut q = Lockstep::default();
                for &(op, a, b) in &ops {
                    match op {
                        0 | 1 => q.schedule_at(q.now + delay(a, b), false),
                        // Absolute instant, possibly in the (clamped) past.
                        2 => q.schedule_at(SimTime::from_nanos(a % 2_000_000_000), false),
                        3 => drop(q.pop()),
                        4 => q.schedule_at(q.now + delay(a, b), true),
                        5 if b % 3 == 0 => q.cancel(a),
                        5 => q.advance_to(q.now + SimDuration::from_nanos(a % (1 << 30))),
                        _ => q.schedule_at(boundary_instant(q.now, a, b), a & 4 != 0),
                    }
                }
                q.drain();
            }
        );
    }

    #[test]
    fn proptest_keyed_wheel_heap_equivalence() {
        use proptest::prelude::*;
        proptest!(
            ProptestConfig::with_cases(512),
            |(ops in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..160))| {
                let mut q = Lockstep::default();
                let mut last = SimTime::ZERO;
                for (i, &(op, a, b)) in ops.iter().enumerate() {
                    let at = match op {
                        0 | 1 => q.now + delay(a, b),
                        2 => boundary_instant(q.now, a, b).max(q.now),
                        3 => last.max(q.now), // a same-instant tie
                        4 => {
                            q.pop();
                            continue;
                        }
                        _ => {
                            q.advance_to(q.now + SimDuration::from_nanos(a % (1 << 30)));
                            continue;
                        }
                    };
                    // Unique keys out of insertion order (an odd multiplier
                    // is a bijection on u64): ties break on the key.
                    q.schedule_at_keyed(at, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    last = at;
                }
                q.drain();
            }
        );
    }

    /// A netsim-shaped timer mix: RPC hops of a few ms, the 1 s Bitswap
    /// probe, 5 s dial and 45 s WebSocket handshake timeouts, 10 min table
    /// refreshes, 12 h republishes and 24 h record expiry.
    fn netsim_delay(rng: &mut StdRng) -> SimDuration {
        match rng.random_range(0..10) {
            0..=3 => SimDuration::from_micros(rng.random_range(500..300_000)),
            4 => SimDuration::from_secs(1),
            5 => SimDuration::from_secs(5),
            6 => SimDuration::from_secs(45),
            7 => SimDuration::from_mins(10),
            8 => SimDuration::from_hours(12),
            _ => SimDuration::from_hours(24),
        }
    }

    #[test]
    fn long_netsim_shaped_program_matches_reference() {
        let mut rng = StdRng::seed_from_u64(0x1F5);
        let mut q = Lockstep::default();
        let mut peak = 0;
        for step in 0..72_000 {
            match if step < 12_000 { 8 } else { rng.random_range(0..20) } {
                0..=7 => drop(q.pop()),
                8..=16 => q.schedule_at(q.now + netsim_delay(&mut rng), rng.random_bool(0.5)),
                17 | 18 => q.cancel(rng.random()),
                _ => q.advance_to(q.now + SimDuration::from_millis(rng.random_range(0..2_000))),
            }
            peak = peak.max(q.check());
        }
        assert!(peak >= 10_000, "only {peak} events were ever pending");
        assert!(q.drain() >= 10_000);
    }

    #[test]
    fn proptest_dispatch_order_total() {
        use proptest::prelude::*;
        proptest!(ProptestConfig::with_cases(64), |(delays in proptest::collection::vec(0u64..1_000_000, 1..200))| {
            let mut q: EventQueue<usize> = EventQueue::new();
            for (i, d) in delays.iter().enumerate() {
                q.schedule(SimDuration::from_nanos(*d), i);
            }
            let mut dispatched: Vec<(u64, usize)> = Vec::new();
            run_until(&mut q, SimTime::MAX, |_, t, e| dispatched.push((t.as_nanos(), e)));
            assert_eq!(dispatched.len(), delays.len());
            // Times non-decreasing; equal times dispatch in insertion order.
            for w in dispatched.windows(2) {
                assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
            }
            // Each event fires at exactly its scheduled instant.
            for (t, e) in &dispatched {
                assert_eq!(*t, delays[*e]);
            }
        });
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let trace = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            q.schedule(SimDuration::ZERO, 0);
            let mut out = Vec::new();
            run_until(&mut q, SimTime::MAX, |q, t, e| {
                out.push((t.as_nanos(), e));
                if out.len() < 100 {
                    let jitter: u64 = rng.random_range(1..1_000_000);
                    q.schedule(SimDuration::from_nanos(jitter), e + 1);
                }
            });
            out
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(trace(7), trace(8));
    }
}
