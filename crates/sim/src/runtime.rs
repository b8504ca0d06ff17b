//! The discrete-event scheduler and its [`Comm`] implementation.
//!
//! # How ranks execute
//!
//! Each simulated rank runs the user closure as a coroutine, and the
//! scheduler enforces that **exactly one rank executes at a time**: a
//! rank only runs between a `Resume` message from the scheduler and its
//! next blocking communication call, at which point it hands control back
//! (with its outbox of sends) and parks. There is no parallelism, no
//! shared mutable state between ranks, and therefore no nondeterminism.
//!
//! Control moves through a [`Host`] — fibers on x86_64 Linux, one OS
//! thread per rank elsewhere, chosen by the platform (see [`crate::host`]).
//! Data moves through one [`Mailbox`] per rank, the same for both hosts:
//! the scheduler writes a resume and switches in, the rank writes its
//! yield and switches out. One rank body, one shutdown path and one
//! results vector serve both hosts.
//!
//! # How time advances
//!
//! The scheduler owns a priority queue of events ordered by
//! `(virtual time, destination rank, sequence number)` — the total order
//! that makes runs bit-identical. Computation between communication calls
//! is charged zero virtual time (the paper's experiments measure
//! communication structure; CPU cost is measured by the real benches).
//! A rank's clock advances only when a blocking call completes:
//!
//! - `send` is asynchronous and free for the sender; the message's
//!   *arrival* time comes from the configured [`NetworkModel`]
//!   (`α + β·bytes` under the default flat model, plus topology and
//!   link-contention effects under the fat-tree model),
//!   then jitter and the FIFO floor apply,
//! - `recv` completes at `max(arrival time, receiver's clock)`,
//! - `allgather` completes for every participant at the model's
//!   collective completion time (`max(entry times) + ⌈log₂P⌉·α +
//!   β·total_bytes` under the flat model).

use crate::config::SimConfig;
use crate::host::{self, Host};
use crate::net::{NetStats, NetworkModel};
use crate::strategy::{hash_bytes, Candidate, Delivered, DeliveryStrategy, MsgMeta, Op};
use forestbal_comm::{install_quiet_panic_hook, Comm, CommStats, ShutdownSignal};
use forestbal_trace::{swap_active, SavedTrace};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A send buffered in the rank's outbox, flushed at the next yield.
struct OutMsg {
    dst: usize,
    tag: u32,
    data: Vec<u8>,
}

/// Why a rank handed control back to the scheduler.
enum BlockKind {
    Recv { src: Option<usize>, tag: u32 },
    Allgather { data: Vec<u8> },
}

/// Rank → scheduler.
enum RankYield {
    Block {
        kind: BlockKind,
        outbox: Vec<OutMsg>,
    },
    Finished {
        outbox: Vec<OutMsg>,
        // Boxed: CommStats carries the per-tag table and would otherwise
        // dominate the enum's size.
        stats: Box<CommStats>,
    },
    Panicked(Box<dyn Any + Send>),
    /// The rank unwound in response to `Shutdown`.
    ShutdownDone,
}

/// Scheduler → rank.
enum Resume {
    Start,
    Deliver { src: usize, data: Vec<u8>, now: u64 },
    Gather { all: Arc<Vec<Vec<u8>>>, now: u64 },
    Shutdown,
}

/// An entry in the event queue. Ordered by `(time, rank, seq)` — `seq` is
/// globally unique, so the order is total and runs are reproducible.
struct Event {
    time: u64,
    rank: usize,
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    /// Begin executing the rank's closure at t = 0.
    Start,
    /// A point-to-point message reaches its destination.
    Arrival { src: usize, tag: u32, data: Vec<u8> },
    /// An allgather round completes for this rank.
    GatherDone { gen: u64 },
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop smallest first.
        (other.time, other.rank, other.seq).cmp(&(self.time, self.rank, self.seq))
    }
}

/// What a parked rank is blocked on, for deadlock diagnostics and
/// arrival matching.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Parked {
    /// Running, or has a wake event already queued.
    No,
    Recv {
        src: Option<usize>,
        tag: u32,
    },
    Gather,
}

struct RankState {
    clock: u64,
    /// Arrived-but-unmatched messages as `(tag, src, data)` in arrival
    /// order — a flat vector, not a per-tag map: unmatched backlogs are
    /// tiny, and at P = 112k a `BTreeMap` + `VecDeque` per rank wastes
    /// hundreds of bytes each before holding anything.
    pending: Vec<(u32, usize, Vec<u8>)>,
    parked: Parked,
    alive: bool,
    stats: CommStats,
    finish_ns: u64,
}

/// In-progress allgather round. Rounds are strictly sequential (a rank
/// cannot enter round `g+1` before every rank finished round `g`), so one
/// accumulator plus one outstanding result is enough.
struct GatherRound {
    gen: u64,
    entries: Vec<Option<Vec<u8>>>,
    arrived: usize,
    latest_entry: u64,
}

/// A completed allgather: `(gen, result, undelivered wake events)`.
type GatherResult = (u64, Arc<Vec<Vec<u8>>>, usize);

/// Where undelivered events live. The default runtime pops them in
/// `(time, rank, seq)` order from a heap; under a [`DeliveryStrategy`]
/// they sit in an unordered pool and the strategy picks.
enum EventQueue {
    Heap(BinaryHeap<Event>),
    Pool(Vec<Event>),
}

/// One rank's side of the handoff. The scheduler and the rank never run
/// at once (the [`Host`] contract), so a single-slot cell each way is
/// enough — a few words per rank, which matters ×112k.
#[derive(Default)]
struct Mailbox {
    resume: Cell<Option<Resume>>,
    yielded: Cell<Option<RankYield>>,
    /// The rank's tracer state while it is switched out: the recorder is
    /// thread-local, and fibers share the scheduler's thread. (On the
    /// thread host the rank records on its own thread and this stays
    /// empty.)
    trace: Cell<SavedTrace>,
}

// Two lifetimes on purpose: `'io` is the (function-local) borrow of the
// host and mailboxes, `'x` the caller-supplied trait objects'. Folding
// them into one would — via `&mut` invariance — force the host borrow to
// outlive the function and block dropping the host.
struct Scheduler<'io, 'x> {
    cfg: SimConfig,
    size: usize,
    ranks: Vec<RankState>,
    host: &'io dyn Host,
    mailboxes: &'io [Mailbox],
    /// Prices every message and collective; see [`crate::net`].
    net: &'io mut (dyn NetworkModel + 'x),
    queue: EventQueue,
    /// Delivery-order policy in [`EventQueue::Pool`] mode.
    strategy: Option<&'io mut (dyn DeliveryStrategy + 'x)>,
    gather: GatherRound,
    gather_result: Option<GatherResult>,
    /// Latest arrival time per (src, dst), for FIFO (non-overtaking)
    /// delivery under jitter.
    fifo_floor: HashMap<(usize, usize), u64>,
    event_seq: u64,
    msg_seq: u64,
    live: usize,
    /// First rank panic, re-raised after the coroutines are torn down.
    panic_payload: Option<Box<dyn Any + Send>>,
    /// Scheduler-detected failure (deadlock, send to finished rank).
    fatal: Option<String>,
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Strategy-facing metadata of a queued arrival event.
fn msg_meta(ev: &Event) -> MsgMeta {
    match &ev.kind {
        EventKind::Arrival { src, tag, data } => MsgMeta {
            src: *src,
            dst: ev.rank,
            tag: *tag,
            bytes: data.len(),
            send_seq: ev.seq,
            payload_hash: hash_bytes(data),
        },
        _ => unreachable!("metadata of a non-message event"),
    }
}

impl<'io, 'x> Scheduler<'io, 'x> {
    fn push(&mut self, time: u64, rank: usize, kind: EventKind) {
        let seq = self.event_seq;
        self.event_seq += 1;
        let ev = Event {
            time,
            rank,
            seq,
            kind,
        };
        match &mut self.queue {
            EventQueue::Heap(h) => h.push(ev),
            EventQueue::Pool(p) => p.push(ev),
        }
    }

    /// The next event to act on: heap order in the default mode; in
    /// strategy mode, eager `Start`s first, then whatever the strategy
    /// picks from the deliverable set (handling `Drop`/`Duplicate` faults
    /// internally).
    ///
    /// Note the strategy-mode candidate set depends only on *which*
    /// messages are in flight and their send sequence numbers — never on
    /// their model-priced arrival times. Swapping in a contended network
    /// model therefore cannot change what the model checker explores;
    /// only the (ignored) timestamps differ.
    fn next_event(&mut self) -> Option<Event> {
        let pool = match &mut self.queue {
            EventQueue::Heap(h) => return h.pop(),
            EventQueue::Pool(p) => p,
        };
        loop {
            if pool.is_empty() {
                return None;
            }
            // Rank starts are never choice points: executing a rank up to
            // its first blocking call commutes with everything else.
            if let Some(i) = pool
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e.kind, EventKind::Start))
                .min_by_key(|(_, e)| e.rank)
                .map(|(i, _)| i)
            {
                let ev = pool.swap_remove(i);
                let strat = self.strategy.as_mut().expect("pool mode has a strategy");
                strat.delivered(&Delivered::Start { rank: ev.rank });
                return Some(ev);
            }
            // Build the deliverable set in canonical order: collectives
            // first by (rank, gen), then messages by (dst, src, tag, seq).
            // Under FIFO, a message is deliverable only if it is the
            // earliest-sent in-flight message of its (src, dst) pair.
            let fifo = self.cfg.fifo;
            let mut order: Vec<(u8, usize, usize, u32, u64, usize)> = pool
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match &e.kind {
                    EventKind::Start => unreachable!("starts drained above"),
                    EventKind::GatherDone { gen } => Some((0, e.rank, 0, 0, *gen, i)),
                    EventKind::Arrival { src, tag, .. } => {
                        let blocked = fifo
                            && pool.iter().any(|o| {
                                o.seq < e.seq
                                    && o.rank == e.rank
                                    && matches!(&o.kind,
                                        EventKind::Arrival { src: s2, .. } if *s2 == *src)
                            });
                        (!blocked).then_some((1, e.rank, *src, *tag, e.seq, i))
                    }
                })
                .collect();
            order.sort_unstable();
            let candidates: Vec<Candidate> = order
                .iter()
                .map(|&(_, _, _, _, _, i)| match &pool[i] {
                    Event {
                        rank,
                        kind: EventKind::GatherDone { gen },
                        ..
                    } => Candidate::Collective {
                        dst: *rank,
                        gen: *gen,
                    },
                    ev => Candidate::Message(msg_meta(ev)),
                })
                .collect();
            debug_assert!(!candidates.is_empty(), "non-empty pool, no candidates");
            let strat = self.strategy.as_mut().expect("pool mode has a strategy");
            let choice = strat.choose(&candidates);
            let pool_idx = order[choice.index].5;
            match (choice.op, &candidates[choice.index]) {
                (Op::Deliver, Candidate::Collective { dst, gen }) => {
                    strat.delivered(&Delivered::Collective {
                        dst: *dst,
                        gen: *gen,
                    });
                    return Some(pool.swap_remove(pool_idx));
                }
                (Op::Deliver, Candidate::Message(m)) => {
                    strat.delivered(&Delivered::Message(*m));
                    return Some(pool.swap_remove(pool_idx));
                }
                (Op::Drop, Candidate::Message(m)) => {
                    strat.delivered(&Delivered::Dropped(*m));
                    pool.swap_remove(pool_idx);
                }
                (Op::Duplicate, Candidate::Message(m)) => {
                    strat.delivered(&Delivered::Duplicated(*m));
                    // Deliver a copy; the original stays in flight under
                    // the same send seq.
                    let ev = &pool[pool_idx];
                    return Some(Event {
                        time: ev.time,
                        rank: ev.rank,
                        seq: ev.seq,
                        kind: match &ev.kind {
                            EventKind::Arrival { src, tag, data } => EventKind::Arrival {
                                src: *src,
                                tag: *tag,
                                data: data.clone(),
                            },
                            _ => unreachable!("duplicate of a non-message"),
                        },
                    });
                }
                (op, c) => panic!("strategy chose {op:?} for {c:?}"),
            }
        }
    }

    /// Schedule arrivals for everything the rank sent since it last
    /// yielded, stamped at its current clock. The network model prices
    /// the raw arrival; jitter (drawn per message) and the FIFO floor are
    /// layered on top and do not feed back into link-contention state.
    fn flush_outbox(&mut self, src: usize, outbox: Vec<OutMsg>) {
        let now = self.ranks[src].clock;
        for m in outbox {
            let seq = self.msg_seq;
            self.msg_seq += 1;
            let jitter = if self.cfg.jitter_ns == 0 {
                0
            } else {
                splitmix64(self.cfg.seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407))
                    % (self.cfg.jitter_ns + 1)
            };
            let arrival = self.net.message_arrival_ns(src, m.dst, m.data.len(), now);
            debug_assert!(arrival >= now, "network model moved time backwards");
            let mut t = arrival + jitter;
            if self.cfg.fifo {
                let floor = self.fifo_floor.entry((src, m.dst)).or_insert(0);
                t = t.max(*floor);
                *floor = t;
            }
            self.push(
                t,
                m.dst,
                EventKind::Arrival {
                    src,
                    tag: m.tag,
                    data: m.data,
                },
            );
        }
    }

    /// Pop the oldest pending message matching `(src, tag)`.
    fn match_pending(
        &mut self,
        rank: usize,
        src: Option<usize>,
        tag: u32,
    ) -> Option<(usize, Vec<u8>)> {
        let pending = &mut self.ranks[rank].pending;
        let i = pending
            .iter()
            .position(|(t, s, _)| *t == tag && src.is_none_or(|want| want == *s))?;
        let (_, s, data) = pending.remove(i);
        Some((s, data))
    }

    fn gather_enter(&mut self, rank: usize, data: Vec<u8>) {
        self.ranks[rank].parked = Parked::Gather;
        let clock = self.ranks[rank].clock;
        let g = &mut self.gather;
        debug_assert!(g.entries[rank].is_none(), "double allgather entry");
        g.entries[rank] = Some(data);
        g.arrived += 1;
        g.latest_entry = g.latest_entry.max(clock);
        if g.arrived == self.size {
            let entries: Vec<Vec<u8>> = g.entries.iter_mut().map(|e| e.take().unwrap()).collect();
            let total: usize = entries.iter().map(Vec::len).sum();
            let start = g.latest_entry;
            let done = self.net.collective_done_ns(self.size, total, start);
            debug_assert!(done >= start, "network model moved time backwards");
            let g = &mut self.gather;
            let gen = g.gen;
            g.gen += 1;
            g.arrived = 0;
            g.latest_entry = 0;
            debug_assert!(self.gather_result.is_none(), "overlapping gather results");
            self.gather_result = Some((gen, Arc::new(entries), self.size));
            for r in 0..self.size {
                self.push(done, r, EventKind::GatherDone { gen });
            }
        }
    }

    /// Hand `resume` to rank `r`, run it until it yields, and return the
    /// yield (`Err` if the host could not start the rank). Swaps the
    /// thread-local tracer state both ways, so per-rank `Tracer`s on
    /// fibers behave as if each rank had its own thread.
    fn roundtrip(&self, r: usize, resume: Resume) -> Result<RankYield, String> {
        let mbox = &self.mailboxes[r];
        mbox.resume.set(Some(resume));
        let sched_trace = swap_active(mbox.trace.take());
        let switched = self.host.switch_into(r);
        mbox.trace.set(swap_active(sched_trace));
        switched?;
        Ok(mbox
            .yielded
            .take()
            .expect("a rank yields before returning control"))
    }

    /// Resume rank `r` and keep it running until it parks, finishes, or
    /// panics. Instant recv hits (matched from pending) loop without
    /// advancing time.
    fn run_rank(&mut self, r: usize, mut resume: Resume) {
        loop {
            self.ranks[r].parked = Parked::No;
            let y = match self.roundtrip(r, resume) {
                Ok(y) => y,
                Err(msg) => return self.fail(msg),
            };
            match y {
                RankYield::Block { kind, outbox } => {
                    self.flush_outbox(r, outbox);
                    match kind {
                        BlockKind::Recv { src, tag } => {
                            if let Some((s, data)) = self.match_pending(r, src, tag) {
                                resume = Resume::Deliver {
                                    src: s,
                                    data,
                                    now: self.ranks[r].clock,
                                };
                                continue;
                            }
                            self.ranks[r].parked = Parked::Recv { src, tag };
                            return;
                        }
                        BlockKind::Allgather { data } => {
                            self.gather_enter(r, data);
                            return;
                        }
                    }
                }
                RankYield::Finished { outbox, stats } => {
                    self.flush_outbox(r, outbox);
                    let st = &mut self.ranks[r];
                    st.alive = false;
                    st.stats = *stats;
                    st.finish_ns = st.clock;
                    self.live -= 1;
                    return;
                }
                RankYield::Panicked(payload) => {
                    self.ranks[r].alive = false;
                    self.live -= 1;
                    if self.panic_payload.is_none() {
                        self.panic_payload = Some(payload);
                    }
                    self.shutdown_survivors();
                    return;
                }
                RankYield::ShutdownDone => {
                    unreachable!("shutdown yield outside shutdown_survivors")
                }
            }
        }
    }

    /// Unwind every still-parked rank: each is switched in once more with
    /// `Shutdown`, panics with [`ShutdownSignal`] and reports back, so its
    /// stack unwinds and runs destructors. Never-started ranks have
    /// nothing to unwind; their bodies drop with the host.
    fn shutdown_survivors(&mut self) {
        for r in 0..self.size {
            if !self.ranks[r].alive {
                continue;
            }
            self.ranks[r].alive = false;
            self.live -= 1;
            if self.host.is_parked(r) {
                let y = self.roundtrip(r, Resume::Shutdown);
                debug_assert!(
                    matches!(y, Ok(RankYield::ShutdownDone)),
                    "a shut-down rank yielded something else"
                );
            }
        }
    }

    fn fail(&mut self, msg: String) {
        if self.fatal.is_none() {
            self.fatal = Some(msg);
        }
        self.shutdown_survivors();
    }

    fn run(&mut self) {
        while let Some(ev) = self.next_event() {
            if self.panic_payload.is_some() || self.fatal.is_some() {
                return;
            }
            match ev.kind {
                EventKind::Start => self.run_rank(ev.rank, Resume::Start),
                EventKind::Arrival { src, tag, data } => {
                    let dst = ev.rank;
                    if !self.ranks[dst].alive {
                        self.fail(format!(
                            "rank {src} sent tag {tag:#x} to rank {dst}, which finished \
                             before the message arrived (t = {} ns)",
                            ev.time
                        ));
                        return;
                    }
                    let matched = matches!(
                        self.ranks[dst].parked,
                        Parked::Recv { src: wsrc, tag: wtag }
                            if wtag == tag && wsrc.is_none_or(|s| s == src)
                    );
                    if matched {
                        let st = &mut self.ranks[dst];
                        st.clock = st.clock.max(ev.time);
                        let now = st.clock;
                        self.run_rank(dst, Resume::Deliver { src, data, now });
                    } else {
                        self.ranks[dst].pending.push((tag, src, data));
                    }
                }
                EventKind::GatherDone { gen } => {
                    let r = ev.rank;
                    let all = {
                        let (rgen, arc, remaining) = self
                            .gather_result
                            .as_mut()
                            .expect("gather result outstanding");
                        debug_assert_eq!(*rgen, gen, "gather generations interleaved");
                        let all = Arc::clone(arc);
                        *remaining -= 1;
                        if *remaining == 0 {
                            self.gather_result = None;
                        }
                        all
                    };
                    let st = &mut self.ranks[r];
                    st.clock = st.clock.max(ev.time);
                    let now = st.clock;
                    self.run_rank(r, Resume::Gather { all, now });
                }
            }
        }
        if self.live > 0 {
            let blocked: Vec<String> = self
                .ranks
                .iter()
                .enumerate()
                .filter(|(_, st)| st.alive)
                .map(|(r, st)| match st.parked {
                    Parked::Recv { src, tag } => format!(
                        "rank {r} in recv(src={src:?}, tag={tag:#x}) at t={} ns",
                        st.clock
                    ),
                    Parked::Gather => format!("rank {r} in allgather at t={} ns", st.clock),
                    Parked::No => format!("rank {r} (runnable?) at t={} ns", st.clock),
                })
                .collect();
            self.fail(format!(
                "simulated deadlock: no events left but {} rank(s) blocked: {}",
                blocked.len(),
                blocked.join("; ")
            ));
            return;
        }
        // Quiescence: after every rank finished with no failure, nothing
        // may remain buffered — a leftover message was sent but never
        // received, which is a protocol bug (an orphan message).
        let orphans: Vec<String> = self
            .ranks
            .iter()
            .enumerate()
            .flat_map(|(dst, st)| {
                st.pending.iter().map(move |(tag, src, data)| {
                    format!("(src={src}, dst={dst}, tag={tag:#x}, {} bytes)", data.len())
                })
            })
            .collect();
        if !orphans.is_empty() {
            self.fail(format!(
                "quiescence violated: {} orphan message(s) arrived but were never \
                 received: {}",
                orphans.len(),
                orphans.join(", ")
            ));
        }
    }
}

/// Handle through which a simulated rank communicates. Rank code is
/// generic over [`Comm`] and cannot tell this apart from the threaded
/// `RankCtx` — except that [`Comm::now_ns`] reports virtual time.
pub struct SimCtx {
    rank: usize,
    size: usize,
    /// Raw because rank bodies have their lifetimes erased (see
    /// `SimCluster::run_inner`); both point into the `run_inner` frame,
    /// which outlives every rank body.
    host: *const dyn Host,
    mbox: *const Mailbox,
    outbox: RefCell<Vec<OutMsg>>,
    stats: RefCell<CommStats>,
    now: Cell<u64>,
}

impl SimCtx {
    /// Park until the scheduler hands back a resume, yielding the outbox.
    /// An empty mailbox on wake-up (a host dropped mid-run) unwinds like
    /// `Shutdown`.
    #[allow(unsafe_code)]
    fn block(&self, kind: BlockKind) -> Resume {
        // Safety: see the field docs; this rank holds control, so the
        // scheduler is not touching the mailbox.
        let (host, mbox) = unsafe { (&*self.host, &*self.mbox) };
        let outbox = self.outbox.take();
        mbox.yielded.set(Some(RankYield::Block { kind, outbox }));
        host.yield_out(self.rank);
        match mbox.resume.take() {
            Some(Resume::Shutdown) | None => panic_any(ShutdownSignal),
            Some(r) => r,
        }
    }
}

impl Comm for SimCtx {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, dst: usize, tag: u32, data: Vec<u8>) {
        assert!(dst < self.size, "destination rank out of range");
        self.stats.borrow_mut().record_send(tag, data.len());
        self.outbox.borrow_mut().push(OutMsg { dst, tag, data });
    }

    fn recv(&self, src: Option<usize>, tag: u32) -> (usize, Vec<u8>) {
        match self.block(BlockKind::Recv { src, tag }) {
            Resume::Deliver { src, data, now } => {
                self.now.set(now);
                (src, data)
            }
            _ => unreachable!("recv resumed with a non-delivery"),
        }
    }

    fn allgather(&self, data: Vec<u8>) -> Arc<Vec<Vec<u8>>> {
        self.stats.borrow_mut().record_collective(data.len());
        match self.block(BlockKind::Allgather { data }) {
            Resume::Gather { all, now } => {
                self.now.set(now);
                all
            }
            _ => unreachable!("allgather resumed with a non-gather"),
        }
    }

    fn stats(&self) -> CommStats {
        *self.stats.borrow()
    }

    fn now_ns(&self) -> u64 {
        self.now.get()
    }
}

/// Per-rank outputs of a simulated run, indexed by rank.
pub struct SimRunOutput<T> {
    /// The closure's return value per rank.
    pub results: Vec<T>,
    /// Communication counters per rank (identical to a threaded run of
    /// the same deterministic algorithm).
    pub stats: Vec<CommStats>,
    /// Virtual time at which each rank's closure returned.
    pub finish_ns: Vec<u64>,
    /// Traffic-class and link-contention counters from the network model
    /// (all p2p under `intra_node` for the flat model).
    pub net: NetStats,
}

impl<T> SimRunOutput<T> {
    /// Cluster-wide total of the per-rank counters.
    pub fn total_stats(&self) -> CommStats {
        self.stats
            .iter()
            .fold(CommStats::default(), |a, b| a.merge(b))
    }

    /// Virtual time at which the last rank finished — the simulated
    /// wall-clock of the whole run.
    pub fn makespan_ns(&self) -> u64 {
        self.finish_ns.iter().copied().max().unwrap_or(0)
    }
}

/// The deterministic discrete-event cluster runtime.
pub struct SimCluster;

impl SimCluster {
    /// Run `f` on `size` simulated ranks under `config` and collect the
    /// per-rank results, counters, and virtual finish times.
    ///
    /// Identical `(size, config, f)` produce bit-identical outputs. A
    /// panic in any rank unwinds the whole run with the original payload;
    /// a communication pattern that can never complete (e.g. a recv
    /// nothing will send) panics with a "simulated deadlock" report
    /// instead of hanging. A run in which every rank finishes but some
    /// message was never received panics with a "quiescence violated"
    /// report listing the orphan messages.
    pub fn run<T, F>(size: usize, config: SimConfig, f: F) -> SimRunOutput<T>
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        Self::run_inner(size, config, host::FIBERS, None, None, f)
    }

    /// Like [`SimCluster::run`], but event delivery order is picked by
    /// `strategy` instead of virtual time — the executor interface used by
    /// the `forestbal-mc` model checker to explore every interleaving.
    /// See [`crate::strategy`] for the contract.
    pub fn run_with_strategy<T, F>(
        size: usize,
        config: SimConfig,
        strategy: &mut dyn DeliveryStrategy,
        f: F,
    ) -> SimRunOutput<T>
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        Self::run_inner(size, config, host::FIBERS, Some(strategy), None, f)
    }

    /// Like [`SimCluster::run`], but every message and collective is
    /// priced by the caller's `model` instead of one built from
    /// [`SimConfig::network`] — the hook for custom [`NetworkModel`]
    /// implementations. The model is used in a deterministic call order,
    /// and its accumulated state (e.g. link occupancy) can be inspected
    /// by the caller afterwards; [`SimRunOutput::net`] carries its final
    /// [`NetStats`] either way.
    pub fn run_with_model<T, F>(
        size: usize,
        config: SimConfig,
        model: &mut dyn NetworkModel,
        f: F,
    ) -> SimRunOutput<T>
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        Self::run_inner(size, config, host::FIBERS, None, Some(model), f)
    }

    /// The one entry behind every `run*`: `fibers` picks the host of the
    /// rank coroutines (fibers, else one OS thread per rank). Public
    /// callers pass [`host::FIBERS`]; only the differential tests of this
    /// module pass anything else.
    fn run_inner<'a, T, F>(
        size: usize,
        config: SimConfig,
        fibers: bool,
        strategy: Option<&'a mut dyn DeliveryStrategy>,
        model: Option<&'a mut dyn NetworkModel>,
        f: F,
    ) -> SimRunOutput<T>
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        assert!(size >= 1, "a cluster needs at least one rank");
        install_quiet_panic_hook();

        let mut owned_model;
        let net: &mut dyn NetworkModel = match model {
            Some(m) => m,
            None => {
                owned_model = config.network.build();
                &mut owned_model
            }
        };

        // Declaration order is load-bearing: rank bodies borrow `f`,
        // `results` and `mailboxes`, and the scheduler borrows the host,
        // so drops must run scheduler → host (which finishes or drops
        // every body) → mailboxes → results → `f`, the reverse of this
        // order.
        let f = &f;
        let results: RefCell<Vec<Option<T>>> = RefCell::new((0..size).map(|_| None).collect());
        let mailboxes: Vec<Mailbox> = (0..size).map(|_| Mailbox::default()).collect();
        let host = host::new_host(fibers, size, config.stack_size);
        let host_ptr: *const dyn Host = &*host;
        for (rank, mbox) in mailboxes.iter().enumerate() {
            let results = &results;
            let body = move || {
                let start = mbox.resume.take();
                debug_assert!(
                    matches!(start, Some(Resume::Start)),
                    "first resume is Start"
                );
                let ctx = SimCtx {
                    rank,
                    size,
                    host: host_ptr,
                    mbox,
                    outbox: RefCell::new(Vec::new()),
                    stats: RefCell::new(CommStats::default()),
                    now: Cell::new(0),
                };
                let y = match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                    Ok(v) => {
                        results.borrow_mut()[rank] = Some(v);
                        RankYield::Finished {
                            outbox: ctx.outbox.take(),
                            stats: Box::new(ctx.stats()),
                        }
                    }
                    Err(p) if p.is::<ShutdownSignal>() => RankYield::ShutdownDone,
                    Err(p) => RankYield::Panicked(p),
                };
                mbox.yielded.set(Some(y));
            };
            let body: Box<dyn FnOnce() + '_> = Box::new(body);
            // Safety: the body borrows only `f`, `results` and
            // `mailboxes`, all declared before the host, which runs or
            // drops every body by the time it is dropped itself.
            #[allow(unsafe_code)]
            let body: Box<dyn FnOnce()> = unsafe { std::mem::transmute(body) };
            host.spawn(rank, body);
        }

        let mut sched = Scheduler {
            cfg: config,
            size,
            ranks: (0..size)
                .map(|_| RankState {
                    clock: 0,
                    pending: Vec::new(),
                    parked: Parked::No,
                    alive: true,
                    stats: CommStats::default(),
                    finish_ns: 0,
                })
                .collect(),
            host: &*host,
            mailboxes: &mailboxes,
            net,
            queue: if strategy.is_some() {
                EventQueue::Pool(Vec::new())
            } else {
                EventQueue::Heap(BinaryHeap::new())
            },
            strategy,
            gather: GatherRound {
                gen: 0,
                entries: (0..size).map(|_| None).collect(),
                arrived: 0,
                latest_entry: 0,
            },
            gather_result: None,
            fifo_floor: HashMap::new(),
            event_seq: 0,
            msg_seq: 0,
            live: size,
            panic_payload: None,
            fatal: None,
        };
        for r in 0..size {
            sched.push(0, r, EventKind::Start);
        }

        sched.run();

        let net_stats = sched.net.net_stats();
        if let Some(payload) = sched.panic_payload.take() {
            resume_unwind(payload);
        }
        if let Some(msg) = sched.fatal.take() {
            panic!("{msg}");
        }
        let stats = sched.ranks.iter().map(|st| st.stats).collect();
        let finish_ns = sched.ranks.iter().map(|st| st.finish_ns).collect();
        drop(sched);
        drop(host);
        let results = results
            .into_inner()
            .into_iter()
            .map(|r| r.expect("rank produced no result yet did not panic"))
            .collect();
        SimRunOutput {
            results,
            stats,
            finish_ns,
            net: net_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::FIBERS;
    use crate::net::{FatTreeParams, NetworkSpec};
    use crate::strategy::Choice;
    use forestbal_trace::{counter_add, span, Tracer};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn single_rank_runs() {
        let out = SimCluster::run(1, cfg(), |ctx| {
            assert_eq!(ctx.rank(), 0);
            assert_eq!(ctx.size(), 1);
            42
        });
        assert_eq!(out.results, vec![42]);
        assert_eq!(out.makespan_ns(), 0);
    }

    #[test]
    fn ring_pass_charges_alpha_beta() {
        let out = SimCluster::run(5, cfg(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 7, vec![ctx.rank() as u8]);
            let (src, data) = ctx.recv(Some(prev), 7);
            assert_eq!(src, prev);
            (data[0] as usize, ctx.now_ns())
        });
        for (r, &(v, t)) in out.results.iter().enumerate() {
            assert_eq!(v, (r + 4) % 5);
            // One 1-byte hop: α + β·1 = 1001 ns.
            assert_eq!(t, 1_001);
        }
        assert_eq!(out.total_stats().messages_sent, 5);
        assert_eq!(out.makespan_ns(), 1_001);
        assert_eq!(out.net.p2p_messages, 5);
    }

    #[test]
    fn recv_filters_by_tag_and_source() {
        let out = SimCluster::run(3, cfg(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(2, 1, vec![1]);
                ctx.send(2, 2, vec![2]);
                0
            } else if ctx.rank() == 1 {
                ctx.send(2, 1, vec![10]);
                0
            } else {
                let (_, a) = ctx.recv(Some(1), 1);
                let (_, b) = ctx.recv(Some(0), 2);
                let (_, c) = ctx.recv(None, 1);
                (a[0] as usize) * 100 + (b[0] as usize) * 10 + c[0] as usize
            }
        });
        assert_eq!(out.results[2], 10 * 100 + 2 * 10 + 1);
    }

    #[test]
    fn allgather_and_collectives() {
        let out = SimCluster::run(4, cfg(), |ctx| {
            let all = ctx.allgather(vec![ctx.rank() as u8; ctx.rank() + 1]);
            let lens: Vec<usize> = all.iter().map(Vec::len).collect();
            let s = ctx.allreduce_sum(ctx.rank() as u64);
            (lens, s, ctx.now_ns())
        });
        for (lens, s, t) in out.results {
            assert_eq!(lens, vec![1, 2, 3, 4]);
            assert_eq!(s, 6);
            // Gather 1: 2·α + β·10 = 2010. Gather 2 (allreduce): starts at
            // 2010, + 2·α + β·32 = 2032 → 4042.
            assert_eq!(t, 4_042);
        }
    }

    #[test]
    fn chained_sends_respect_clock() {
        // 0 → 1 → 2: the second hop starts only after rank 1 received.
        let out = SimCluster::run(3, cfg(), |ctx| match ctx.rank() {
            0 => {
                ctx.send(1, 0, vec![0; 99]);
                0
            }
            1 => {
                let (_, d) = ctx.recv(Some(0), 0);
                ctx.send(2, 0, d);
                ctx.now_ns()
            }
            _ => {
                ctx.recv(Some(1), 0);
                ctx.now_ns()
            }
        });
        assert_eq!(out.results[1], 1_099);
        assert_eq!(out.results[2], 2_198);
    }

    #[test]
    fn runs_are_bit_identical() {
        let run = || {
            SimCluster::run(
                16,
                SimConfig::builder().seed(7).jitter_ns(500).build(),
                |ctx| {
                    // Everyone shouts at everyone; receive in arrival order.
                    for dst in 0..ctx.size() {
                        if dst != ctx.rank() {
                            ctx.send(dst, 3, vec![ctx.rank() as u8]);
                        }
                    }
                    let mut order = Vec::new();
                    for _ in 0..ctx.size() - 1 {
                        let (src, _) = ctx.recv(None, 3);
                        order.push(src);
                    }
                    (order, ctx.now_ns())
                },
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.finish_ns, b.finish_ns);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.net, b.net);
    }

    /// The two hosts must be observationally identical: same results,
    /// same virtual times, same stats, same per-rank traces, for p2p,
    /// collectives and jitter. Every span straddles blocking calls, so
    /// on fibers the tracer handoff at each switch is exercised.
    #[test]
    fn fiber_and_thread_backends_agree() {
        if !FIBERS {
            return;
        }
        let work = |ctx: &SimCtx| {
            let tracer = Tracer::begin(ctx.rank());
            let now = || ctx.now_ns();
            let (src, total) = span("exchange", now, || {
                let next = (ctx.rank() + 1) % ctx.size();
                ctx.send(next, 1, vec![ctx.rank() as u8; 1 + ctx.rank() % 7]);
                let (src, d) = ctx.recv(None, 1);
                counter_add("bytes_in", d.len() as u64);
                (
                    src,
                    span("reduce", now, || ctx.allreduce_sum(d.len() as u64)),
                )
            });
            span("barrier", now, || ctx.barrier());
            (src, total, ctx.now_ns(), tracer.finish())
        };
        for jitter in [0, 700] {
            let base = SimConfig::builder().seed(11).jitter_ns(jitter);
            let t = SimCluster::run_inner(37, base.build(), false, None, None, work);
            let f = SimCluster::run_inner(37, base.build(), true, None, None, work);
            assert_eq!(t.results, f.results);
            assert_eq!(t.finish_ns, f.finish_ns);
            assert_eq!(t.stats, f.stats);
            assert_eq!(t.net, f.net);
            for (rank, (_, _, _, tr)) in f.results.iter().enumerate() {
                assert_eq!(tr.rank, rank);
                let st = tr.structure();
                assert_eq!(st.spans, [(0, "exchange"), (1, "reduce"), (0, "barrier")]);
                assert_eq!(st, t.results[rank].3.structure());
            }
        }
    }

    #[test]
    fn fiber_backend_handles_deep_recursion_within_stack() {
        if !FIBERS {
            return;
        }
        // Consume a good chunk of fiber stack to prove real frames live
        // there (and, in guarded pools, that the guard is not hit by
        // legitimate depth).
        fn burn(n: usize) -> u64 {
            let pad = [n as u64; 16];
            if n == 0 {
                pad.iter().sum()
            } else {
                burn(n - 1) + pad[0]
            }
        }
        let out = SimCluster::run(4, SimConfig::default(), |ctx| {
            let x = burn(500);
            ctx.barrier();
            x
        });
        assert!(out.results.iter().all(|&x| x == burn(500)));
    }

    #[test]
    fn jitter_reorders_but_fifo_holds() {
        // With heavy jitter and FIFO on, two same-pair messages must
        // still arrive in send order.
        let out = SimCluster::run(
            2,
            SimConfig::builder().seed(123).jitter_ns(1_000_000).build(),
            |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 9, vec![1]);
                    ctx.send(1, 9, vec![2]);
                    Vec::new()
                } else {
                    let (_, a) = ctx.recv(None, 9);
                    let (_, b) = ctx.recv(None, 9);
                    vec![a[0], b[0]]
                }
            },
        );
        assert_eq!(out.results[1], vec![1, 2]);
    }

    /// The failure message of a run on the given host.
    fn failure(fibers: bool, size: usize, work: impl Fn(&SimCtx) + Send + Sync) -> String {
        let result = catch_unwind(AssertUnwindSafe(|| {
            SimCluster::run_inner(size, cfg(), fibers, None, None, work);
        }));
        let payload = result.expect_err("run must fail");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        for fibers in [false, FIBERS] {
            let msg = failure(fibers, 2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.recv(Some(1), 5); // never sent
                }
            });
            assert!(msg.contains("simulated deadlock"), "got: {msg}");
            assert!(msg.contains("rank 0"), "got: {msg}");
        }
    }

    #[test]
    fn rank_panic_propagates_original_message() {
        for fibers in [false, FIBERS] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                SimCluster::run_inner(8, SimConfig::default(), fibers, None, None, |ctx| {
                    if ctx.rank() == 3 {
                        panic!("sim rank 3 exploded");
                    }
                    ctx.barrier();
                });
            }));
            let payload = result.expect_err("run must propagate the panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("sim rank 3 exploded"), "got: {msg}");
        }
    }

    #[test]
    fn now_ns_is_virtual_not_wall_clock() {
        let wall = std::time::Instant::now();
        let out = SimCluster::run(2, cfg(), |ctx| {
            ctx.barrier();
            ctx.barrier();
            ctx.now_ns()
        });
        // Two barriers at α = 1 µs: exactly 2 µs of virtual time, no
        // matter how long the host took.
        assert_eq!(out.results, vec![2_000, 2_000]);
        // Sanity: the virtual clock is not derived from the wall clock.
        let _ = wall.elapsed();
    }

    /// Always picks the last candidate — the exact reverse of the
    /// canonical order, maximally far from the default schedule.
    struct PickLast;
    impl DeliveryStrategy for PickLast {
        fn choose(&mut self, candidates: &[Candidate]) -> Choice {
            Choice {
                index: candidates.len() - 1,
                op: Op::Deliver,
            }
        }
        fn delivered(&mut self, _: &Delivered) {}
    }

    /// A scheduler that unwinds mid-run (here: its strategy panics while
    /// every rank is parked in `recv`) must not hang dropping the host.
    #[test]
    fn scheduler_panic_does_not_hang_parked_ranks() {
        struct GiveUp;
        impl DeliveryStrategy for GiveUp {
            fn choose(&mut self, _: &[Candidate]) -> Choice {
                panic!("strategy gave up");
            }
            fn delivered(&mut self, _: &Delivered) {}
        }
        for fibers in [false, FIBERS] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut strat = GiveUp;
                SimCluster::run_inner(4, cfg(), fibers, Some(&mut strat), None, |ctx| {
                    ctx.send((ctx.rank() + 1) % ctx.size(), 1, vec![0]);
                    ctx.recv(None, 1);
                });
            }));
            let payload = result.expect_err("the strategy's panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"strategy gave up"));
        }
    }

    #[test]
    fn strategy_reorders_same_pair_without_fifo() {
        let two_sends = |ctx: &SimCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, 9, vec![1]);
                ctx.send(1, 9, vec![2]);
                Vec::new()
            } else {
                let (_, a) = ctx.recv(None, 9);
                let (_, b) = ctx.recv(None, 9);
                vec![a[0], b[0]]
            }
        };
        let mut cfg_nofifo = cfg();
        cfg_nofifo.fifo = false;
        let out = SimCluster::run_with_strategy(2, cfg_nofifo, &mut PickLast, two_sends);
        assert_eq!(out.results[1], vec![2, 1], "strategy must overtake");
        // With FIFO on, only the earliest-sent same-pair message is ever
        // a candidate, so even the adversarial strategy preserves order.
        let out = SimCluster::run_with_strategy(2, cfg(), &mut PickLast, two_sends);
        assert_eq!(out.results[1], vec![1, 2], "FIFO must hold");
    }

    #[test]
    fn strategy_runs_collectives_and_matches_default() {
        let work = |ctx: &SimCtx| {
            let next = (ctx.rank() + 1) % ctx.size();
            ctx.send(next, 1, vec![ctx.rank() as u8]);
            let (_, d) = ctx.recv(None, 1);
            ctx.allreduce_sum(d[0] as u64)
        };
        let base = SimCluster::run(3, cfg(), work);
        let strat = SimCluster::run_with_strategy(3, cfg(), &mut PickLast, work);
        assert_eq!(base.results, strat.results);
        assert_eq!(base.stats, strat.stats);
    }

    /// Recording strategy: the sequence of delivered events, stripped of
    /// anything time-derived. Used to prove network models cannot change
    /// what a strategy explores.
    struct RecordChoices {
        picks: Vec<usize>,
        log: Vec<String>,
        step: usize,
    }
    impl DeliveryStrategy for RecordChoices {
        fn choose(&mut self, candidates: &[Candidate]) -> Choice {
            let index = self.picks[self.step % self.picks.len()] % candidates.len();
            self.step += 1;
            Choice {
                index,
                op: Op::Deliver,
            }
        }
        fn delivered(&mut self, d: &Delivered) {
            self.log.push(match d {
                Delivered::Start { rank } => format!("start {rank}"),
                Delivered::Message(m) => {
                    format!("msg {}->{} tag {} seq {}", m.src, m.dst, m.tag, m.send_seq)
                }
                Delivered::Collective { dst, gen } => format!("coll {dst} gen {gen}"),
                Delivered::Dropped(m) => format!("drop {}->{}", m.src, m.dst),
                Delivered::Duplicated(m) => format!("dup {}->{}", m.src, m.dst),
            });
        }
    }

    /// Strategy-pool soundness under model-dependent delivery times: the
    /// candidate sets (and hence the whole exploration) are identical
    /// under flat and contended fat-tree pricing, because candidates are
    /// ordered by send sequence, never by arrival time.
    #[test]
    fn strategy_exploration_is_network_model_independent() {
        let work = |ctx: &SimCtx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 1, vec![ctx.rank() as u8; 64]);
            ctx.send(prev, 2, vec![ctx.rank() as u8; 512]);
            let (_, a) = ctx.recv(None, 1);
            let (_, b) = ctx.recv(None, 2);
            ctx.allreduce_sum((a[0] + b[0]) as u64)
        };
        let run = |network| {
            let mut strat = RecordChoices {
                picks: vec![2, 0, 3, 1, 5],
                log: Vec::new(),
                step: 0,
            };
            let out = SimCluster::run_with_strategy(
                6,
                SimConfig::builder().network(network).build(),
                &mut strat,
                work,
            );
            (out.results, strat.log)
        };
        let (flat_results, flat_log) = run(NetworkSpec::Flat);
        let (fat_results, fat_log) = run(NetworkSpec::FatTree(FatTreeParams::default()));
        assert_eq!(flat_results, fat_results);
        assert_eq!(flat_log, fat_log, "exploration diverged across models");
    }

    #[test]
    fn orphan_message_violates_quiescence() {
        for fibers in [false, FIBERS] {
            let msg = failure(fibers, 2, |ctx| {
                if ctx.rank() == 0 {
                    ctx.send(1, 5, vec![9; 3]); // never received
                }
                ctx.barrier();
                ctx.barrier();
            });
            assert!(msg.contains("quiescence violated"), "got: {msg}");
            assert!(
                msg.contains("(src=0, dst=1, tag=0x5, 3 bytes)"),
                "got: {msg}"
            );
        }
    }

    #[test]
    fn thousand_ranks_smoke() {
        let out = SimCluster::run(1024, cfg(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            ctx.send(next, 1, vec![7]);
            let (_, d) = ctx.recv(None, 1);
            ctx.allreduce_sum(d[0] as u64)
        });
        assert!(out.results.iter().all(|&s| s == 7 * 1024));
    }

    #[test]
    fn fat_tree_contention_slows_hot_links() {
        // 48 ranks all sending to rank 0: under the fat tree, rank 0's
        // node downlink serializes the transfers, so the makespan beats
        // flat-model α+β but the model must report queueing.
        let work = |ctx: &SimCtx| {
            if ctx.rank() == 0 {
                let mut total = 0usize;
                for _ in 1..ctx.size() {
                    let (_, d) = ctx.recv(None, 4);
                    total += d.len();
                }
                total
            } else {
                ctx.send(0, 4, vec![0; 4096]);
                0
            }
        };
        let flat = SimCluster::run(48, cfg(), work);
        let fat = SimCluster::run(
            48,
            SimConfig::builder()
                .network(NetworkSpec::FatTree(FatTreeParams::default()))
                .build(),
            work,
        );
        assert_eq!(flat.results, fat.results);
        assert_eq!(flat.net.link_waits, 0);
        assert!(fat.net.link_waits > 0, "incast must queue on links");
        assert!(fat.net.link_wait_ns > 0);
        assert!(
            fat.makespan_ns() > flat.makespan_ns(),
            "contended incast must be slower than flat ({} <= {})",
            fat.makespan_ns(),
            flat.makespan_ns()
        );
    }
}
