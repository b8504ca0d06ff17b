//! The DFS exploration engine: exhaustively executes every delivery
//! ordering (within configured fault budgets and bounds), checking
//! invariants after each execution and minimizing counterexamples.

use crate::explore::ExploreStrategy;
use crate::invariant::Invariant;
use crate::trace::Trace;
use forestbal_sim::{SimCluster, SimConfig, SimCtx, SimRunOutput};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Checker configuration: the simulator config under test plus
/// exploration bounds and fault budgets.
#[derive(Clone, Copy, Debug)]
pub struct McConfig {
    /// Base simulator configuration. `sim.fifo` decides whether same-pair
    /// reorderings are explored (and checked as an invariant when kept
    /// on); jitter/latency only shape virtual clocks, never the explored
    /// orderings.
    pub sim: SimConfig,
    /// Deliver completed-collective resumptions eagerly instead of
    /// exploring their orderings (a sound partial-order reduction; turn
    /// off to stress collective resume orders, e.g. the marker exchange).
    pub eager_collectives: bool,
    /// Per-execution budget of injected message-drop faults. `0` (the
    /// default) disables drop branching.
    pub max_drops: u32,
    /// Per-execution budget of injected duplicate-delivery faults.
    pub max_duplicates: u32,
    /// Choice points deeper than this are executed (with arm 0) but not
    /// branched on; sets [`McReport::truncated`] when hit.
    pub max_depth: usize,
    /// Stop after this many executions, marking the report truncated.
    pub max_runs: usize,
    /// Stop once this many distinct states were expanded, marking the
    /// report truncated.
    pub max_states: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            sim: SimConfig::default(),
            eager_collectives: true,
            max_drops: 0,
            max_duplicates: 0,
            max_depth: 10_000,
            max_runs: 100_000,
            max_states: 1_000_000,
        }
    }
}

/// A confirmed invariant violation with its minimized counterexample.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the violated invariant (`"termination"`,
    /// `"no-orphan-messages"`, `"fifo"`, `"no-panic"`, or a scenario
    /// invariant's name).
    pub invariant: String,
    /// Human-readable description from the violating execution.
    pub message: String,
    /// Minimized, JSON-serializable, deterministically replayable trace.
    pub trace: Trace,
}

/// Exploration statistics and outcome.
#[derive(Clone, Debug, Default)]
pub struct McReport {
    /// Number of complete simulator executions performed (including the
    /// few extra runs used to minimize a counterexample).
    pub runs: usize,
    /// Distinct abstract states expanded at choice points.
    pub states_visited: usize,
    /// Choice points skipped because their state was already expanded
    /// (the payoff of canonical state hashing).
    pub states_pruned: usize,
    /// Deepest choice-point trail seen in any execution.
    pub max_depth_seen: usize,
    /// True if any bound (`max_depth`, `max_runs`, `max_states`) cut the
    /// exploration short — absence of a violation is then *not* a proof.
    pub truncated: bool,
    /// The first violation found, if any (exploration stops on it).
    pub violation: Option<Violation>,
}

/// Outcome of a single execution before invariant evaluation.
struct RunRecord<T> {
    outcome: Result<SimRunOutput<T>, String>,
    /// `(state, arms, chosen)` at each recorded choice point.
    trail: Vec<(u64, u32, u32)>,
    fifo_ok: bool,
}

/// The exhaustive model checker. See the [crate docs](crate) for the
/// exploration algorithm.
pub struct Checker {
    cfg: McConfig,
}

impl Checker {
    /// A checker over `cfg`.
    pub fn new(cfg: McConfig) -> Self {
        Checker { cfg }
    }

    /// The configuration this checker explores under.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Explore every delivery ordering of `f` on `size` ranks, checking
    /// the built-in structural invariants plus `invariants` after each
    /// execution. Stops at the first violation (minimized into
    /// [`McReport::violation`]) or when the space — or a bound — is
    /// exhausted.
    pub fn check<T, F>(&self, size: usize, f: F, invariants: &[Invariant<T>]) -> McReport
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        let mut report = McReport::default();
        let mut visited: HashSet<u64> = HashSet::new();
        // DFS worklist of decision prefixes; executions continue past
        // their prefix with arm 0.
        let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
        while let Some(prefix) = stack.pop() {
            if report.runs >= self.cfg.max_runs || visited.len() >= self.cfg.max_states {
                report.truncated = true;
                break;
            }
            report.runs += 1;
            let rec = self.run_once(size, &f, &prefix);
            report.max_depth_seen = report.max_depth_seen.max(rec.trail.len());
            if let Some((name, message)) = self.classify(&rec, invariants) {
                let executed: Vec<u32> = rec.trail.iter().map(|&(_, _, c)| c).collect();
                report.violation = Some(self.minimize(
                    size,
                    &f,
                    invariants,
                    &name,
                    message,
                    executed,
                    &mut report.runs,
                ));
                break;
            }
            // Expand alternatives at every *newly reached* choice point
            // beyond the prefix (points inside the prefix were expanded
            // by the ancestor execution that pushed this prefix).
            let executed: Vec<u32> = rec.trail.iter().map(|&(_, _, c)| c).collect();
            for (i, &(state, arms, chosen)) in rec.trail.iter().enumerate() {
                if i < prefix.len() {
                    continue;
                }
                if i >= self.cfg.max_depth {
                    report.truncated = true;
                    break;
                }
                if !visited.insert(state) {
                    report.states_pruned += 1;
                    continue;
                }
                for arm in 0..arms {
                    if arm != chosen {
                        let mut branch = executed[..i].to_vec();
                        branch.push(arm);
                        stack.push(branch);
                    }
                }
            }
        }
        report.states_visited = visited.len();
        report
    }

    /// One deterministic execution along `prefix`.
    fn run_once<T, F>(&self, size: usize, f: &F, prefix: &[u32]) -> RunRecord<T>
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        let mut strat = ExploreStrategy::new(
            size,
            prefix,
            self.cfg.eager_collectives,
            self.cfg.sim.fifo,
            self.cfg.max_drops,
            self.cfg.max_duplicates,
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            SimCluster::run_with_strategy(size, self.cfg.sim, &mut strat, f)
        }))
        .map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "rank panicked with a non-string payload".into())
        });
        RunRecord {
            outcome,
            trail: strat
                .trail
                .iter()
                .map(|t| (t.state, t.arms, t.chosen))
                .collect(),
            fifo_ok: strat.fifo_ok,
        }
    }

    /// Map an execution record to the first violated invariant, if any.
    fn classify<T>(
        &self,
        rec: &RunRecord<T>,
        invariants: &[Invariant<T>],
    ) -> Option<(String, String)> {
        match &rec.outcome {
            Err(msg) if msg.contains("simulated deadlock") => {
                return Some(("termination".into(), msg.clone()));
            }
            // "finished before the message arrived" is the same defect
            // class observed mid-run instead of at quiescence: a message
            // exists that no receive will ever consume.
            Err(msg)
                if msg.contains("quiescence violated")
                    || msg.contains("finished before the message arrived") =>
            {
                return Some(("no-orphan-messages".into(), msg.clone()));
            }
            Err(msg) => return Some(("no-panic".into(), msg.clone())),
            Ok(_) => {}
        }
        if !rec.fifo_ok {
            return Some((
                "fifo".into(),
                "a same-pair message was delivered out of send order despite fifo: true".into(),
            ));
        }
        let out = rec.outcome.as_ref().ok().unwrap();
        for inv in invariants {
            if let Err(msg) = inv.check(out) {
                return Some((inv.name().to_string(), msg));
            }
        }
        None
    }

    /// Shrink a violating decision sequence to the shortest prefix that
    /// still violates the *same* invariant, and package it as a trace.
    #[allow(clippy::too_many_arguments)]
    fn minimize<T, F>(
        &self,
        size: usize,
        f: &F,
        invariants: &[Invariant<T>],
        name: &str,
        message: String,
        executed: Vec<u32>,
        runs: &mut usize,
    ) -> Violation
    where
        T: Send,
        F: Fn(&SimCtx) -> T + Send + Sync,
    {
        let mut best = (executed.clone(), message);
        for cut in 0..executed.len() {
            *runs += 1;
            let rec = self.run_once(size, f, &executed[..cut]);
            if let Some((n, m)) = self.classify(&rec, invariants) {
                if n == name {
                    best = (executed[..cut].to_vec(), m);
                    break;
                }
            }
        }
        // Trailing arm-0 decisions are what an empty suffix replays to
        // anyway; strip them so the stored trace is minimal.
        let mut choices = best.0;
        while choices.last() == Some(&0) {
            choices.pop();
        }
        Violation {
            invariant: name.to_string(),
            message: best.1,
            trace: Trace {
                version: 1,
                size,
                fifo: self.cfg.sim.fifo,
                eager_collectives: self.cfg.eager_collectives,
                max_drops: self.cfg.max_drops,
                max_duplicates: self.cfg.max_duplicates,
                choices,
                invariant: name.to_string(),
                message: String::new(),
            },
        }
    }
}

/// Deterministically re-execute a serialized counterexample `trace`
/// against scenario closure `f`, returning the violation it reproduces
/// (`None` if the trace no longer violates anything — e.g. after a fix).
/// The simulator configuration is reconstructed from the trace itself.
pub fn replay<T, F>(trace: &Trace, f: F, invariants: &[Invariant<T>]) -> Option<Violation>
where
    T: Send,
    F: Fn(&SimCtx) -> T + Send + Sync,
{
    let cfg = McConfig {
        sim: SimConfig::builder().fifo(trace.fifo).build(),
        eager_collectives: trace.eager_collectives,
        max_drops: trace.max_drops,
        max_duplicates: trace.max_duplicates,
        ..McConfig::default()
    };
    let checker = Checker::new(cfg);
    let rec = checker.run_once(trace.size, &f, &trace.choices);
    checker
        .classify(&rec, invariants)
        .map(|(invariant, message)| Violation {
            invariant,
            message,
            trace: trace.clone(),
        })
}
