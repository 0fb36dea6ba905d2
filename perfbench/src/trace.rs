//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, op id). Untraced runs only read
//! the clock, which the end-to-end numbers need anyway; traced runs also
//! keep every span, and the run writes them out when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// An open span, returned by [`Recorder::enter`] and closed by
/// [`Recorder::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    idx: u32,
}

/// Span recorder; records nothing but durations when tracing is off.
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder { traced, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Switches span keeping on or off (between repetitions only).
    pub fn set_traced(&mut self, traced: bool) {
        assert!(self.stack.is_empty(), "span still open");
        self.traced = traced;
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let start = Instant::now();
        if !self.traced {
            return Open { start, idx: NO_PARENT };
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.stack.push(idx);
        Open { start, idx }
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if open.idx != NO_PARENT {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans must nest");
            self.spans[open.idx as usize].end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        end.duration_since(open.start).as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.enter(name, op);
        let r = f();
        (r, self.exit(open))
    }

    /// Total and self time (duration minus the part covered by child
    /// spans) per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += own;
                }
                None => out.push((s.name, 1, total, own)),
            }
        }
        out
    }

    /// Renders every span as tab-separated lines:
    /// `index  parent  op  name  start_ns  end_ns` (parent `-` for roots).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("span\tparent\top\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            let _ =
                writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer", 1);
        let ((), _) =
            rec.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let total = rec.exit(outer);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, 0);
        let times = rec.self_times();
        let outer_row = times.iter().find(|t| t.0 == "outer").unwrap();
        assert!(outer_row.3 < outer_row.2 && outer_row.2 <= total);
        assert!(rec.to_tsv().lines().count() == 3);
    }

    #[test]
    fn untraced_recorder_keeps_no_spans() {
        let mut rec = Recorder::new(false);
        let (v, _) = rec.span("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(rec.spans.is_empty());
    }
}
