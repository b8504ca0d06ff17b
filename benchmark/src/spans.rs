//! Benchmark-owned spans around calls into the layers.
//!
//! Every timed operation goes through [`Rec`], traced or not: the timing
//! is the same `Instant` delta either way, and a span is kept only when
//! the recorder is on (the traced run, rank 0). End-to-end numbers never
//! come from a run with the recorder on.

use crate::json::Json;
use forestbal::comm::Comm;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Repetition (round or epoch) the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Rec {
    on: bool,
    origin: Instant,
    rep: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Rec {
    /// `origin` is the process-wide time zero, so that recordings of
    /// separate cluster runs share one time axis.
    pub fn new(on: bool, origin: Instant) -> Rec {
        Rec {
            on,
            origin,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a parent span; the spans recorded until [`Rec::close`] are
    /// its children.
    pub fn open(&mut self, name: &'static str) {
        if self.on {
            let t = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: t,
                end_ns: t,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn close(&mut self) {
        if self.on {
            let i = self.open.pop().expect("close without open");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Time a rank-local call: no barriers.
    pub fn local<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
        let t = Instant::now();
        self.open(name);
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.close();
        (secs, out)
    }

    /// Time a collective call barrier to barrier. On rank 0 of the
    /// threaded cluster the interval ends when the slowest rank is done;
    /// under the simulator it covers every rank's host work, because the
    /// ranks run one at a time.
    pub fn timed<C: Comm, T>(
        &mut self,
        ctx: &C,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        ctx.barrier();
        let t = Instant::now();
        self.open(name);
        let out = f();
        ctx.barrier();
        let secs = t.elapsed().as_secs_f64();
        self.close();
        (secs, out)
    }
}

/// Per-name totals of a recording: calls, busy time, and self time (busy
/// minus the part covered by child spans).
pub struct NameTotals {
    pub name: &'static str,
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> Vec<NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: Vec<NameTotals> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let row = match out.iter_mut().find(|r| r.name == s.name) {
            Some(row) => row,
            None => {
                out.push(NameTotals {
                    name: s.name,
                    calls: 0,
                    busy_ns: 0,
                    self_ns: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        row.calls += 1;
        row.busy_ns += s.duration_ns();
        row.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Span tiling: every child lies inside its parent, and the children of
/// one parent never add up to more than the parent. Returns the first
/// violation.
pub fn check_tiling(spans: &[Span]) -> Result<(), String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent {}",
                    s.name, parent.name
                ));
            }
            child_ns[p] += s.duration_ns();
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if child_ns[i] > s.duration_ns() {
            return Err(format!("children of span {i} ({}) exceed it", s.name));
        }
    }
    Ok(())
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event
/// per span on a single track, nested by time.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::Obj(vec![
                        ("workload", Json::str(workload)),
                        ("rep", Json::Num(s.rep as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Num(-1.0), |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![("traceEvents", Json::Arr(events))]).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn recorder_nests_and_self_time_subtracts_children() {
        let mut rec = Rec::new(true, Instant::now());
        rec.open("cycle");
        rec.local("a", || std::hint::black_box(1 + 1));
        rec.local("b", || ());
        rec.close();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        check_tiling(&rec.spans).expect("tiles");

        let spans = [
            span("cycle", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a", 50, 90, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!((t[0].busy_ns, t[0].self_ns), (100, 30));
        assert_eq!((t[1].calls, t[1].busy_ns, t[1].self_ns), (2, 70, 70));
    }

    #[test]
    fn recorder_off_keeps_timing_but_no_spans() {
        let mut rec = Rec::new(false, Instant::now());
        rec.open("x");
        let (secs, v) = rec.local("y", || 7);
        rec.close();
        assert!(secs >= 0.0 && v == 7 && rec.spans.is_empty());
    }

    #[test]
    fn tiling_violations_are_reported() {
        let leaves = [span("p", 0, 10, None), span("c", 5, 12, Some(0))];
        assert!(check_tiling(&leaves).is_err());
        let exceeds = [
            span("p", 0, 10, None),
            span("c", 0, 8, Some(0)),
            span("c", 2, 9, Some(0)),
        ];
        assert!(check_tiling(&exceeds).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = [span("p", 0, 2000, None), span("c", 500, 1500, Some(0))];
        let s = chrome_trace("w", &spans);
        forestbal::trace::validate_json(&s).expect("valid JSON");
        assert!(s.contains("\"traceEvents\""));
    }
}
