//! End-to-end tests of the model checker: exhaustive exploration of the
//! real protocols (which must pass in every interleaving), fault
//! injection, the mutation test (which must fail), and deterministic
//! counterexample replay from JSON. A failing "no violation" assert
//! prints the counterexample as replayable trace JSON.

use forestbal_comm::Comm;
use forestbal_mc::scenarios::reverse_notify_wildcard_bug;
use forestbal_mc::{replay, scenarios, Invariant, McConfig, Trace, Violation};
use forestbal_sim::{SimCluster, SimConfig, SimCtx};

/// Fail with the counterexample's trace JSON if there is a violation.
fn assert_no_violation(violation: &Option<Violation>) {
    if let Some(v) = violation {
        panic!(
            "{} violated: {}\ncounterexample trace: {}",
            v.invariant,
            v.message,
            v.trace.to_json()
        );
    }
}

#[test]
fn notify_p2_every_interleaving_satisfies_oracle() {
    let report = scenarios::check_notify(vec![vec![0, 1], vec![0]], McConfig::default());
    assert_no_violation(&report.violation);
    assert!(!report.truncated, "P = 2 must be fully explored");
    assert!(report.runs >= 2, "reordering must create > 1 execution");
    assert!(report.states_visited >= 1);
}

#[test]
fn notify_p3_is_robust_even_without_fifo() {
    // The real Notify keys every level on its own tag and filters recv by
    // source, so it survives even same-pair overtaking — the checker
    // proves it across ALL orderings, not one jitter sample.
    let mut cfg = McConfig::default();
    cfg.sim.fifo = false;
    let report = scenarios::check_notify(vec![vec![1], vec![2], vec![0]], cfg);
    assert_no_violation(&report.violation);
    assert!(!report.truncated);
    assert!(report.runs > 2);
}

#[test]
fn marker_exchange_p3_all_collective_orderings_agree() {
    let report = scenarios::check_markers(3, McConfig::default());
    assert_no_violation(&report.violation);
    assert!(!report.truncated);
    assert!(report.runs >= 2, "reordering must create > 1 execution");
    assert!(report.states_visited >= 1);
    assert!(
        report.states_pruned > 0,
        "collective resume orders must collapse via state hashing"
    );
}

#[test]
fn balance_p2_every_interleaving_matches_serial_oracle() {
    let report = scenarios::check_balance(2, McConfig::default());
    assert_no_violation(&report.violation);
    assert!(!report.truncated);
    assert!(report.runs >= 2, "reordering must create > 1 execution");
    assert!(report.states_visited >= 1);
}

#[test]
fn ghost_exchange_p2_every_interleaving_assembles_same_layer() {
    // The ghost exchange ships packed keys in tree runs (wire format
    // v2); every delivery ordering must decode to the identical layer.
    let report = scenarios::check_ghosts(2, McConfig::default());
    assert_no_violation(&report.violation);
    assert!(!report.truncated);
    assert!(report.runs >= 2, "reordering must create > 1 execution");
    assert!(report.states_visited >= 1);
}

#[test]
fn drop_fault_is_caught_as_termination_violation() {
    let report = scenarios::check_notify(
        vec![vec![0, 1], vec![0]],
        McConfig {
            max_drops: 1,
            ..McConfig::default()
        },
    );
    let v = report
        .violation
        .expect("losing a Notify message must deadlock");
    assert_eq!(v.invariant, "termination");
    assert!(v.message.contains("simulated deadlock"), "{}", v.message);
}

#[test]
fn duplicate_fault_is_caught_as_orphan_message() {
    let report = scenarios::check_notify(
        vec![vec![0, 1], vec![0]],
        McConfig {
            max_duplicates: 1,
            ..McConfig::default()
        },
    );
    let v = report
        .violation
        .expect("a duplicated Notify message is never consumed");
    assert_eq!(v.invariant, "no-orphan-messages");
    assert!(
        v.message.contains("quiescence violated")
            || v.message.contains("finished before the message arrived"),
        "{}",
        v.message
    );
}

fn mutant_closure(ctx: &SimCtx) -> Vec<usize> {
    let pattern = [vec![1], vec![2], vec![0]];
    reverse_notify_wildcard_bug(ctx, &pattern[ctx.rank()])
}

#[test]
fn mutation_is_invisible_to_the_default_schedule() {
    // The injected bug needs reordering to trigger: the single
    // time-ordered schedule (what a plain test would sample) passes.
    let out = SimCluster::run(3, SimConfig::default(), mutant_closure);
    assert_eq!(out.results, vec![vec![2], vec![0], vec![1]]);
}

#[test]
fn mutation_is_detected_minimized_and_replays_from_json() {
    let report = scenarios::check_notify_mutant(McConfig::default());
    let v = report
        .violation
        .as_ref()
        .expect("the checker must catch the injected reordering bug");
    assert_eq!(v.invariant, "notify-oracle");
    assert!(!v.trace.choices.is_empty(), "reordering needs a decision");

    // JSON round-trip, then deterministic replay through the sim.
    let json = v.trace.to_json();
    let parsed = Trace::from_json(&json).expect("trace JSON parses");
    assert_eq!(&parsed, &v.trace);
    let replayed = scenarios::replay_notify_mutant(&parsed)
        .expect("the minimized counterexample must still violate");
    assert_eq!(replayed.invariant, "notify-oracle");
    assert_eq!(replayed.message, v.message, "replay must be bit-identical");

    // The checker itself is deterministic: same config, same trace.
    let again = scenarios::check_notify_mutant(McConfig::default());
    assert_eq!(again.violation.unwrap().trace.choices, v.trace.choices);
}

#[test]
fn replaying_a_counterexample_against_fixed_code_passes() {
    let report = scenarios::check_notify_mutant(McConfig::default());
    let trace = report.violation.unwrap().trace;
    // The same adversarial schedule cannot hurt the correct Notify: the
    // trace replays clean once the bug is fixed.
    let pattern = vec![vec![1], vec![2], vec![0]];
    let expected = scenarios::transpose(&pattern);
    let invariants = [Invariant::oracle("notify-oracle", expected)];
    let fixed = replay(
        &trace,
        move |ctx: &SimCtx| forestbal_comm::reverse_notify(ctx, &pattern[ctx.rank()]),
        &invariants,
    );
    assert_no_violation(&fixed);
}

#[test]
fn epochs_p2_every_interleaving_matches_full_balance_oracle() {
    // Three incremental-rebalance epochs: the changed-leaf exchange must
    // terminate, match the serial full-balance oracle bit for bit, and
    // keep the patched ghost layer a superset of a fresh exchange, in
    // every delivery interleaving.
    let report = scenarios::check_epochs(2, McConfig::default());
    assert_no_violation(&report.violation);
    assert!(!report.truncated);
    assert!(report.runs >= 2, "reordering must create > 1 execution");
    assert!(report.states_visited >= 1);
}

#[test]
fn epochs_p3_bounded_exploration_finds_no_violation() {
    // P = 3 is too large to exhaust; a bounded frontier still must not
    // find any interleaving that breaks the epoch invariants.
    let report = scenarios::check_epochs(
        3,
        McConfig {
            max_runs: 2_000,
            ..McConfig::default()
        },
    );
    assert_no_violation(&report.violation);
    assert!(report.runs >= 2);
}
