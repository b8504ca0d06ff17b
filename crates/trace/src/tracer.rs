//! The per-rank recorder: nested spans, point events, counters and
//! log2-bucket histograms.

use std::collections::BTreeMap;

#[cfg(feature = "record")]
use std::cell::RefCell;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values whose highest set bit is `b - 1` (i.e. `2^(b-1)..2^b`).
pub const HIST_BUCKETS: usize = 65;

/// Bucket index of a sample (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive value range `[lo, hi]` covered by bucket `b`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (b - 1), (1 << b) - 1),
    }
}

/// A log2-bucket histogram of `u64` samples. Fixed-size, order-free and
/// `Eq`-comparable, so histograms from a threaded and a simulated run of
/// the same algorithm can be asserted bit-equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[bucket_of(v)]` counts the samples close to `v`.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Add another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The non-empty buckets as `(bucket index, count)` pairs.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(b, &c)| (b, c))
    }
}

/// One recorded event. Spans are stored as begin/end pairs so recording is
/// a push, never a search; [`RankTrace::spans`] resolves the nesting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened at `t_ns`.
    Begin {
        /// Span name; `'static` so recording never allocates for names.
        name: &'static str,
        /// Clock reading (`Comm::now_ns`) at entry.
        t_ns: u64,
    },
    /// The innermost open span closed at `t_ns`.
    End {
        /// Clock reading at exit.
        t_ns: u64,
    },
    /// A point event.
    Instant {
        /// Event name.
        name: &'static str,
        /// Clock reading.
        t_ns: u64,
    },
}

/// A resolved span: name, nesting depth and clock interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name.
    pub name: &'static str,
    /// Nesting depth; 0 for top-level spans.
    pub depth: u16,
    /// Clock reading at entry.
    pub start_ns: u64,
    /// Clock reading at exit.
    pub end_ns: u64,
}

impl Span {
    /// Span length on the recording rank's clock.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one rank recorded: the event stream plus its named counters
/// and histograms.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankTrace {
    /// The recording rank.
    pub rank: usize,
    /// Begin/end/instant events in recording order.
    pub events: Vec<TraceEvent>,
    /// Named monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named log2-bucket histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl RankTrace {
    /// Resolve the event stream into spans, in begin order (pre-order of
    /// the span tree). Spans left open (a panic unwound past their end)
    /// are closed at the last timestamp seen.
    pub fn spans(&self) -> Vec<Span> {
        let mut out: Vec<Span> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut last_t = 0u64;
        for ev in &self.events {
            match *ev {
                TraceEvent::Begin { name, t_ns } => {
                    last_t = last_t.max(t_ns);
                    stack.push(out.len());
                    out.push(Span {
                        name,
                        depth: stack.len() as u16 - 1,
                        start_ns: t_ns,
                        end_ns: t_ns,
                    });
                }
                TraceEvent::End { t_ns } => {
                    last_t = last_t.max(t_ns);
                    if let Some(i) = stack.pop() {
                        out[i].end_ns = t_ns;
                    }
                }
                TraceEvent::Instant { t_ns, .. } => last_t = last_t.max(t_ns),
            }
        }
        while let Some(i) = stack.pop() {
            out[i].end_ns = last_t.max(out[i].start_ns);
        }
        out
    }

    /// Per-name `(span count, total duration ns)` over this rank's spans.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self.spans() {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.duration_ns();
        }
        out
    }

    /// Total duration of all spans named `name` on this rank.
    pub fn phase_total_ns(&self, name: &str) -> u64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// The timestamp-free shape of this trace: span tree (as a pre-order
    /// `(depth, name)` walk), instants, counters and histograms. Two runs
    /// of the same deterministic algorithm — threaded or simulated — must
    /// produce equal structures; only the timestamps may differ.
    pub fn structure(&self) -> TraceStructure {
        let mut spans = Vec::new();
        let mut instants = Vec::new();
        let mut depth: u16 = 0;
        for ev in &self.events {
            match *ev {
                TraceEvent::Begin { name, .. } => {
                    spans.push((depth, name));
                    depth += 1;
                }
                TraceEvent::End { .. } => depth = depth.saturating_sub(1),
                TraceEvent::Instant { name, .. } => instants.push((depth, name)),
            }
        }
        TraceStructure {
            spans,
            instants,
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// See [`RankTrace::structure`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStructure {
    /// Pre-order span tree walk as `(depth, name)`.
    pub spans: Vec<(u16, &'static str)>,
    /// Instant events as `(depth at emission, name)`.
    pub instants: Vec<(u16, &'static str)>,
    /// Final counter values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Final histogram buckets.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

#[cfg(feature = "record")]
thread_local! {
    static ACTIVE: RefCell<Option<RankTrace>> = const { RefCell::new(None) };
}

/// Guard that arms recording on the current thread (= the current rank on
/// both runtimes). While alive, the free functions in this module append
/// to its [`RankTrace`]; without it they are no-ops. Harvest the trace
/// with [`Tracer::finish`]; dropping without finishing (a panic unwind)
/// discards the recording.
///
/// Not `Send`: the recording is thread-local by construction.
pub struct Tracer {
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl Tracer {
    /// Arm recording for `rank` on this thread.
    ///
    /// # Panics
    /// If a `Tracer` is already active on this thread.
    pub fn begin(rank: usize) -> Tracer {
        #[cfg(feature = "record")]
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            assert!(a.is_none(), "a Tracer is already active on this thread");
            *a = Some(RankTrace {
                rank,
                ..RankTrace::default()
            });
        });
        #[cfg(not(feature = "record"))]
        let _ = rank;
        Tracer {
            _thread_bound: std::marker::PhantomData,
        }
    }

    /// Disarm recording and return everything recorded. Spans still open
    /// are closed at the last timestamp seen, so the result is always a
    /// balanced tree. With the `record` feature off this returns an empty
    /// trace.
    pub fn finish(self) -> RankTrace {
        #[cfg(feature = "record")]
        {
            let mut tr = ACTIVE
                .with(|a| a.borrow_mut().take())
                .expect("finish() with no active trace");
            let mut open = 0i64;
            let mut last_t = 0u64;
            for ev in &tr.events {
                match *ev {
                    TraceEvent::Begin { t_ns, .. } => {
                        open += 1;
                        last_t = last_t.max(t_ns);
                    }
                    TraceEvent::End { t_ns } => {
                        open -= 1;
                        last_t = last_t.max(t_ns);
                    }
                    TraceEvent::Instant { t_ns, .. } => last_t = last_t.max(t_ns),
                }
            }
            for _ in 0..open.max(0) {
                tr.events.push(TraceEvent::End { t_ns: last_t });
            }
            tr
        }
        #[cfg(not(feature = "record"))]
        RankTrace::default()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        #[cfg(feature = "record")]
        ACTIVE.with(|a| {
            a.borrow_mut().take();
        });
    }
}

#[cfg(feature = "record")]
#[inline]
fn with_active<R>(f: impl FnOnce(&mut RankTrace) -> R) -> Option<R> {
    ACTIVE.with(|a| a.borrow_mut().as_mut().map(f))
}

/// Is a [`Tracer`] active on this thread? Lets callers skip building
/// expensive inputs (e.g. `CommStats` deltas) when nothing records them.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "record")]
    {
        ACTIVE.with(|a| a.borrow().is_some())
    }
    #[cfg(not(feature = "record"))]
    false
}

/// Open a nested span. `now_ns` is only called if recording is active;
/// pass `|| ctx.now_ns()` so spans carry the runtime's clock (wall time on
/// the threaded cluster, virtual time under the simulator). The closure
/// must not itself call into this module.
#[inline]
pub fn span_begin(name: &'static str, now_ns: impl FnOnce() -> u64) {
    #[cfg(feature = "record")]
    with_active(|tr| {
        let t_ns = now_ns();
        tr.events.push(TraceEvent::Begin { name, t_ns });
    });
    #[cfg(not(feature = "record"))]
    let _ = (name, now_ns);
}

/// Close the innermost open span.
#[inline]
pub fn span_end(now_ns: impl FnOnce() -> u64) {
    #[cfg(feature = "record")]
    with_active(|tr| {
        let t_ns = now_ns();
        tr.events.push(TraceEvent::End { t_ns });
    });
    #[cfg(not(feature = "record"))]
    let _ = now_ns;
}

/// Record `f()` under a span named `name`.
#[inline]
pub fn span<T>(name: &'static str, now_ns: impl Fn() -> u64, f: impl FnOnce() -> T) -> T {
    span_begin(name, &now_ns);
    let out = f();
    span_end(&now_ns);
    out
}

/// Record a point event.
#[inline]
pub fn instant(name: &'static str, now_ns: impl FnOnce() -> u64) {
    #[cfg(feature = "record")]
    with_active(|tr| {
        let t_ns = now_ns();
        tr.events.push(TraceEvent::Instant { name, t_ns });
    });
    #[cfg(not(feature = "record"))]
    let _ = (name, now_ns);
}

/// Add `v` to the named counter (created at zero on first use).
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    #[cfg(feature = "record")]
    with_active(|tr| *tr.counters.entry(name).or_insert(0) += v);
    #[cfg(not(feature = "record"))]
    let _ = (name, v);
}

/// A suspended recording, detached from its thread — the hand-off token
/// stackful-coroutine runtimes use to keep per-rank recording working
/// when many ranks share one OS thread.
///
/// The recorder state is thread-local, which identifies "thread" with
/// "rank" on the threaded cluster and on the simulator's thread host
/// (every platform but x86_64 Linux). The simulator's fiber host, which
/// x86_64 Linux runs, breaks that identification: every rank runs on the
/// scheduler's thread. At each switch into a rank the scheduler calls
/// [`swap_active`] to park its own recording in a `SavedTrace` and
/// install the rank's, and swaps back when the rank yields, so
/// `Tracer::begin` / `finish` and all the free functions behave exactly
/// as if each rank had its own thread. (The scheduler swaps on both
/// hosts; on the thread host the rank's slot simply stays empty.)
///
/// Opaque and `Default` (an empty slot); zero-sized when the `record`
/// feature is off.
#[derive(Default)]
#[doc(hidden)]
pub struct SavedTrace {
    #[cfg(feature = "record")]
    inner: Option<RankTrace>,
}

/// Exchange the current thread's recording state with `saved`: installs
/// `saved` (possibly empty) and returns what was active. A no-op pair of
/// moves when the `record` feature is off.
#[doc(hidden)]
#[inline]
pub fn swap_active(saved: SavedTrace) -> SavedTrace {
    #[cfg(feature = "record")]
    {
        let prev = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), saved.inner));
        SavedTrace { inner: prev }
    }
    #[cfg(not(feature = "record"))]
    saved
}

/// Record a sample into the named log2-bucket histogram.
#[inline]
pub fn hist(name: &'static str, v: u64) {
    #[cfg(feature = "record")]
    with_active(|tr| tr.histograms.entry(name).or_default().record(v));
    #[cfg(not(feature = "record"))]
    let _ = (name, v);
}

#[cfg(all(test, feature = "record"))]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
        }
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 1);
        let mut h2 = h;
        h2.merge(&h);
        assert_eq!(h2.count(), 10);
        assert_eq!(h2.nonzero().count(), 4);
    }

    #[test]
    fn records_nested_spans_counters_hists() {
        assert!(!enabled());
        let tr = Tracer::begin(3);
        assert!(enabled());
        let mut t = 0u64;
        let mut tick = || {
            t += 10;
            t
        };
        span_begin("outer", &mut tick);
        span_begin("inner", &mut tick);
        instant("ping", &mut tick);
        counter_add("n", 2);
        counter_add("n", 3);
        hist("sizes", 7);
        span_end(&mut tick);
        span_end(&mut tick);
        let rt = tr.finish();
        assert!(!enabled());

        assert_eq!(rt.rank, 3);
        let spans = rt.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (10, 50));
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (20, 40));
        assert_eq!(rt.counters["n"], 5);
        assert_eq!(rt.histograms["sizes"].buckets[3], 1);
        assert_eq!(rt.phase_total_ns("outer"), 40);
        assert_eq!(rt.phase_totals()["inner"], (1, 20));

        let st = rt.structure();
        assert_eq!(st.spans, vec![(0, "outer"), (1, "inner")]);
        assert_eq!(st.instants, vec![(2, "ping")]);
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let tr = Tracer::begin(0);
        span_begin("a", || 5);
        span_begin("b", || 9);
        let rt = tr.finish();
        let spans = rt.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end_ns, 9);
        assert_eq!(spans[1].end_ns, 9);
        // The event stream itself is balanced after finish().
        assert_eq!(rt.structure().spans.len(), 2);
    }

    #[test]
    fn noop_without_tracer() {
        span_begin("ignored", || panic!("clock must not be read when disabled"));
        span_end(|| panic!("clock must not be read when disabled"));
        instant("ignored", || panic!("clock must not be read when disabled"));
        counter_add("ignored", 1);
        hist("ignored", 1);
    }

    #[test]
    fn drop_discards_recording() {
        {
            let _tr = Tracer::begin(1);
            span_begin("x", || 1);
        }
        assert!(!enabled());
        // A new tracer starts clean.
        let tr = Tracer::begin(2);
        let rt = tr.finish();
        assert!(rt.events.is_empty());
    }
}
