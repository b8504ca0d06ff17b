//! Checker wirings over the three protocol surfaces: Notify reversal,
//! the partition-marker exchange, and the one-pass balance — plus the
//! mutation test (a deliberately broken Notify) that proves the checker
//! detects real reordering bugs.
//!
//! Each scenario comes as a `check_*` function (exhaustive exploration)
//! and a matching `replay_*` function (re-execute a serialized
//! counterexample trace through the same closure and invariants).

use crate::checker::{replay, Checker, McConfig, McReport, Violation};
use crate::invariant::Invariant;
use crate::trace::Trace;
use forestbal_comm::{reverse_notify, Comm};
use forestbal_core::Condition;
use forestbal_forest::serial::is_forest_balanced;
use forestbal_forest::{serial_forest_balance, AdaptBatch, BalanceVariant, ReversalScheme};
use forestbal_mesh::fractal::fractal_forest_2d;
use forestbal_sim::{SimCtx, SimRunOutput};

/// The expected sender lists of a communication pattern: its transpose,
/// sorted and deduplicated — the oracle for every reversal scheme.
pub fn transpose(pattern: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut want = vec![Vec::new(); pattern.len()];
    for (p, receivers) in pattern.iter().enumerate() {
        for &q in receivers {
            want[q].push(p);
        }
    }
    for w in &mut want {
        w.sort_unstable();
        w.dedup();
    }
    want
}

/// Exhaustively check [`reverse_notify`] on `pattern` (rank `p` notifies
/// `pattern[p]`): in every delivery ordering each rank must compute
/// exactly the transpose.
pub fn check_notify(pattern: Vec<Vec<usize>>, cfg: McConfig) -> McReport {
    let size = pattern.len();
    let invariants = [Invariant::oracle("notify-oracle", transpose(&pattern))];
    Checker::new(cfg).check(
        size,
        move |ctx: &SimCtx| reverse_notify(ctx, &pattern[ctx.rank()]),
        &invariants,
    )
}

/// The one tag the mutant sends every level under (the real Notify's
/// level-0 tag).
const MUTANT_TAG: u32 = 0xB000_0000;

/// A deliberately broken [`reverse_notify`], the target of the mutation
/// test: it collapses every level onto one tag **and** receives with a
/// wildcard source, so a message belonging to a later level can be
/// consumed by an earlier level's `recv` when deliveries are reordered
/// (observable with `fifo: false`). The real Notify is immune because it
/// keys each level on its own tag and filters `recv` by source. The
/// mutant returns silently wrong sender lists under adversarial
/// schedules and correct ones under the default time-ordered schedule.
pub fn reverse_notify_wildcard_bug(ctx: &impl Comm, receivers: &[usize]) -> Vec<usize> {
    let p = ctx.rank();
    let size = ctx.size();
    let mut items: Vec<(u32, u32)> = receivers.iter().map(|&q| (q as u32, p as u32)).collect();

    let mut l = 0u32;
    while (1usize << l) < size {
        let bit = 1usize << l;
        let (keep, give): (Vec<_>, Vec<_>) = items
            .into_iter()
            .partition(|&(q, _)| (q as usize >> l) & 1 == (p >> l) & 1);

        // The real Notify's peers, with its non-power-of-two redirection.
        let natural = p ^ bit;
        let target = if natural < size {
            Some(natural)
        } else if p >= bit {
            Some(p - bit)
        } else {
            None
        };
        if let Some(t) = target {
            let data = give
                .iter()
                .flat_map(|&(q, s)| [q, s])
                .flat_map(u32::to_le_bytes)
                .collect();
            // BUG 1: every level shares one tag.
            ctx.send(t, MUTANT_TAG, data);
        }
        let redirected = p + bit;
        let expect = usize::from(natural < size)
            + usize::from(redirected < size && (redirected ^ bit) >= size);

        items = keep;
        for _ in 0..expect {
            // BUG 2: wildcard source — any same-tag message satisfies it.
            let (_, data) = ctx.recv(None, MUTANT_TAG);
            let vals: Vec<u32> = data
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            items.extend(vals.chunks_exact(2).map(|c| (c[0], c[1])));
        }
        l += 1;
    }

    // No invariant assert: a misrouted item yields a silently wrong
    // answer instead of a panic, which is what the checker must detect
    // via its oracle invariant.
    let mut senders: Vec<usize> = items.into_iter().map(|(_, s)| s as usize).collect();
    senders.sort_unstable();
    senders.dedup();
    senders
}

/// The ring pattern the mutant provably misroutes on under reordering:
/// at level 0, rank 2 sends items to ranks 0 and 1 in the same step, and
/// the mutant's wildcard single-tag `recv` lets rank 0 consume the
/// level-1 payload during level 0.
fn mutant_pattern() -> Vec<Vec<usize>> {
    vec![vec![1], vec![2], vec![0]]
}

/// Run the mutation test: explore the deliberately broken
/// [`reverse_notify_wildcard_bug`] at P = 3 with FIFO off. A correct
/// checker must report an oracle violation (the default time-ordered
/// schedule passes — only reordering exposes the bug).
pub fn check_notify_mutant(mut cfg: McConfig) -> McReport {
    cfg.sim.fifo = false;
    let pattern = mutant_pattern();
    let invariants = [Invariant::oracle("notify-oracle", transpose(&pattern))];
    Checker::new(cfg).check(
        3,
        move |ctx: &SimCtx| reverse_notify_wildcard_bug(ctx, &pattern[ctx.rank()]),
        &invariants,
    )
}

/// Replay a serialized mutant counterexample through the same closure and
/// oracle.
pub fn replay_notify_mutant(trace: &Trace) -> Option<Violation> {
    let pattern = mutant_pattern();
    let invariants = [Invariant::oracle("notify-oracle", transpose(&pattern))];
    replay(
        trace,
        move |ctx: &SimCtx| reverse_notify_wildcard_bug(ctx, &pattern[ctx.rank()]),
        &invariants,
    )
}

/// The marker-exchange closure: build the 2D fractal forest (uniform
/// refine + fractal refine, each re-exchanging partition markers) and
/// re-run the marker exchange once more; return a printable digest of
/// the markers plus the forest checksum.
fn markers_digest(ctx: &SimCtx) -> String {
    let mut f = fractal_forest_2d(ctx, 1, 1);
    f.update_markers(ctx);
    format!("markers={:?} checksum={:#x}", f.markers(), f.checksum(ctx))
}

/// Exhaustively check the partition-marker exchange at P = `size`:
/// explore every collective resume ordering (eager-collective reduction
/// off) and require every rank, in every ordering, to agree with the
/// default schedule's markers bit-for-bit.
pub fn check_markers(size: usize, mut cfg: McConfig) -> McReport {
    cfg.eager_collectives = false;
    let expected = forestbal_sim::SimCluster::run(size, cfg.sim, markers_digest).results;
    let invariants = [
        Invariant::oracle("markers-oracle", expected),
        Invariant::all_ranks_equal("markers-agreement"),
    ];
    Checker::new(cfg).check(size, markers_digest, &invariants)
}

/// The ghost-exchange closure: build the 2D fractal forest and collect
/// the ghost layer — the exchange ships packed keys in tree runs
/// (`forestbal_forest::codec`), so this drives the wire format v2
/// encoder and decoder under adversarial delivery orders. The digest
/// also cross-checks every ghost against the gathered global forest:
/// the octant must exist under its tree and the claimed owner must be a
/// different rank.
fn ghosts_digest(ctx: &SimCtx) -> String {
    let mut f = fractal_forest_2d(ctx, 1, 2);
    let ghosts = f.ghost_layer(ctx);
    let global = f.gather(ctx);
    let mut valid = true;
    let mut items: Vec<String> = Vec::new();
    for (t, owner, g) in ghosts.iter() {
        valid &= owner != ctx.rank();
        valid &= global.get(&t).is_some_and(|v| v.binary_search(&g).is_ok());
        items.push(format!("{t}:{owner}:l{}@{:?}", g.level, g.coords));
    }
    items.sort();
    format!(
        "valid={valid} n={} ghosts={items:?} checksum={:#x}",
        ghosts.len(),
        f.checksum(ctx)
    )
}

/// Exhaustively check the ghost exchange at P = `size`: in every message
/// delivery ordering each rank must assemble exactly the ghost layer the
/// default schedule produces (the exchange is deterministic), every
/// ghost must decode to a real remote leaf, and ranks' layers must be
/// mutually consistent with the global forest.
pub fn check_ghosts(size: usize, cfg: McConfig) -> McReport {
    let expected = forestbal_sim::SimCluster::run(size, cfg.sim, ghosts_digest).results;
    let invariants = [Invariant::oracle("ghosts-oracle", expected)];
    Checker::new(cfg).check(size, ghosts_digest, &invariants)
}

/// The balance closure: fractal forest, one-pass balance
/// (`New` variant + `Notify` reversal), then compare the gathered result
/// against [`serial_forest_balance`] of the gathered input and check the
/// 2:1 condition globally. Returns `(matches_serial_oracle, balanced,
/// global_checksum)`.
fn balance_vs_oracle(ctx: &SimCtx) -> (bool, bool, u64) {
    let cond = Condition::full(2);
    let mut f = fractal_forest_2d(ctx, 1, 2);
    let before = f.gather(ctx);
    f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
    let after = f.gather(ctx);
    let conn = f.connectivity();
    let expected = serial_forest_balance(conn, &before, cond);
    (
        after == expected,
        is_forest_balanced(conn, &after, cond),
        f.checksum(ctx),
    )
}

/// Exhaustively check the one-pass balance at P = `size` (2D fractal
/// forest): in every message delivery ordering the result must be
/// bit-identical to the serial oracle and 2:1-balanced.
pub fn check_balance(size: usize, cfg: McConfig) -> McReport {
    let invariants = [
        Invariant::new(
            "balance-serial-oracle",
            |out: &SimRunOutput<(bool, bool, u64)>| {
                for (rank, &(matches, _, _)) in out.results.iter().enumerate() {
                    if !matches {
                        return Err(format!(
                            "rank {rank}: balanced forest differs from the serial oracle"
                        ));
                    }
                }
                Ok(())
            },
        ),
        Invariant::new("balance-2to1", |out: &SimRunOutput<(bool, bool, u64)>| {
            for (rank, &(_, balanced, _)) in out.results.iter().enumerate() {
                if !balanced {
                    return Err(format!("rank {rank}: 2:1 condition violated"));
                }
            }
            Ok(())
        }),
        Invariant::all_ranks_equal("balance-agreement"),
    ];
    Checker::new(cfg).check(size, balance_vs_oracle, &invariants)
}

/// The incremental-epoch closure: a balanced 2D fractal forest with its
/// ghost layer, then three targeted adaptation epochs committed through
/// `apply_edits` + `balance_incremental` — the changed-leaf exchange of
/// [`forestbal_forest::incremental`], with the ghost layer patched in
/// place across epochs. Per epoch the result is compared against
/// [`serial_forest_balance`] of the gathered post-edit forest. Returns
/// `(matches_serial_oracle, balanced, ghosts_superset, checksum)`,
/// where `ghosts_superset` verifies the patched layer still holds every
/// entry a fresh exchange would produce.
fn epochs_digest(ctx: &SimCtx) -> (bool, bool, bool, u64) {
    let cond = Condition::full(2);
    let mut f = fractal_forest_2d(ctx, 1, 2);
    f.balance(ctx, cond, BalanceVariant::New, ReversalScheme::Notify);
    let mut ghosts = f.ghost_layer(ctx);
    let mut oracle_ok = true;
    for epoch in 0..3u32 {
        let mut batch = AdaptBatch::new();
        if epoch == 0 {
            // Refine each rank's deepest leaf: forces splits across the
            // partition boundary in both directions.
            let deepest = f
                .trees()
                .flat_map(|(t, v)| v.iter().map(move |o| (t, o)))
                .max_by_key(|(_, o)| o.level);
            if let Some((t, o)) = deepest {
                batch.refine(t, &o);
            }
        } else if epoch == 1 {
            // Coarsen each rank's first family (or refine the first
            // leaf): simultaneous bilateral edits against patched ghosts.
            let first = f.trees().next().map(|(t, v)| (t, v.get(0)));
            if let Some((t, o)) = first {
                if o.level > 0 && o.child_id() == 0 {
                    batch.coarsen(t, &o.parent());
                } else {
                    batch.refine(t, &o);
                }
            }
        } else {
            // Coarsen every complete family on every rank: merged
            // parents face each other across the partition boundary
            // while each side still holds the other's finer pre-epoch
            // ghosts, which must be patched away before anything seeds
            // from them.
            for (t, v) in f.trees() {
                for o in v.iter().filter(|o| o.level > 0 && o.child_id() == 0) {
                    batch.coarsen(t, &o.parent());
                }
            }
        }
        let dirty = f.apply_edits(&batch, 5);
        let before = f.gather(ctx);
        f.balance_incremental(ctx, cond, &dirty, &mut ghosts);
        let expected = serial_forest_balance(f.connectivity(), &before, cond);
        oracle_ok &= f.gather(ctx) == expected;
    }
    let after = f.gather(ctx);
    let balanced = is_forest_balanced(f.connectivity(), &after, cond);
    let fresh = f.ghost_layer(ctx);
    let superset = fresh.iter().all(|(t, o, g)| ghosts.contains(t, o, &g));
    (oracle_ok, balanced, superset, f.checksum(ctx))
}

/// Exhaustively check three incremental epochs at P = `size`: in every
/// delivery interleaving the exchange terminates (the checker's
/// built-in quiescence), each epoch's result is bit-identical to the
/// full-balance serial oracle, the final forest is 2:1-balanced, the
/// patched ghost layer retains every fresh-exchange entry, and all
/// ranks agree on the checksum.
pub fn check_epochs(size: usize, cfg: McConfig) -> McReport {
    let invariants = [
        Invariant::new(
            "epochs-serial-oracle",
            |out: &SimRunOutput<(bool, bool, bool, u64)>| {
                for (rank, &(matches, _, _, _)) in out.results.iter().enumerate() {
                    if !matches {
                        return Err(format!(
                            "rank {rank}: incremental epoch differs from the serial oracle"
                        ));
                    }
                }
                Ok(())
            },
        ),
        Invariant::new(
            "epochs-2to1",
            |out: &SimRunOutput<(bool, bool, bool, u64)>| {
                for (rank, &(_, balanced, _, _)) in out.results.iter().enumerate() {
                    if !balanced {
                        return Err(format!("rank {rank}: 2:1 condition violated"));
                    }
                }
                Ok(())
            },
        ),
        Invariant::new(
            "epochs-ghost-superset",
            |out: &SimRunOutput<(bool, bool, bool, u64)>| {
                for (rank, &(_, _, superset, _)) in out.results.iter().enumerate() {
                    if !superset {
                        return Err(format!(
                            "rank {rank}: patched ghost layer lost a fresh-exchange entry"
                        ));
                    }
                }
                Ok(())
            },
        ),
        Invariant::all_ranks_equal("epochs-agreement"),
    ];
    Checker::new(cfg).check(size, epochs_digest, &invariants)
}
