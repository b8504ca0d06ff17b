//! The one-pass parallel 2:1 balance algorithm (§II-B) in its old and new
//! variants.
//!
//! Four phases, one query/response communication round:
//!
//! 1. **Local balance** — each rank balances its own contiguous slice of
//!    each tree with a serial subtree balance (old: Figure 6; new:
//!    Figure 7) rooted at the nearest common ancestor of the slice, then
//!    clips back to the owned range.
//! 2. **Query** — for every local octant `r` whose insulation layer
//!    `I(r)` reaches other partitions (or other trees), `r` is sent — in
//!    the *receiver's* tree frame — to every rank owning part of the
//!    layer. The asymmetric pattern is reversed with Naive / Ranges /
//!    Notify (§V) so receivers know whom to expect. Only the partition
//!    boundary is visited: the reach scan's boundary walk skips every
//!    subtree whose insulation box is interior, so its work follows the
//!    boundary, not the leaf count.
//! 3. **Response** — for each received query octant, the responder finds
//!    its local leaves inside `I(r)` that might split `r` and answers
//!    with the octants themselves (old) or with λ-tested seed octants
//!    (new, §IV). Siblings share their coarsest balanced tree,
//!    T_k(o) = T_k(s), so New builds one seed set per family of
//!    candidates, not one per candidate.
//! 4. **Local rebalance** — old: each tree's full partition is rebalanced
//!    with the received octants as exterior/interior constraints,
//!    constructing auxiliary octants across any gaps; new: each queried
//!    octant is reconstructed independently from its merged seeds and
//!    spliced into the leaf array — no full-partition work.
//!
//! Storage is packed keys end to end ([`crate::store`]). The subtree
//! kernels of `forestbal_core` run on the stored key arrays themselves:
//! phase 1 balances each tree's keys and clips the output back, phase 4
//! reconstructs and splices keys (New) or merges key arrays (Old). Query
//! octants, responses and candidate leaves stay keys, a cross-tree frame
//! change rewrites a key's top bit-planes ([`PackedOctant::translate`]),
//! and the λ/seed decision takes and returns keys
//! ([`forestbal_core::find_seeds_keys`]). The wire
//! carries fixed-width packed keys (queries as `(u32 eid, u32 tree, key)`
//! records, responses as `(u32 eid, u32 count, count × key)` groups — see
//! [`crate::codec`]).

use crate::codec;
use crate::connectivity::TreeId;
use crate::forest::Forest;
use forestbal_comm::{ranges_expansion, reverse_naive, reverse_notify, reverse_ranges, Comm};
use forestbal_core::{
    balance_subtree_new_keys, balance_subtree_old_keys, find_seeds_keys, BalanceScratch,
    BalanceStats, Condition,
};
use forestbal_octant::{
    directions, is_linear_keys, linearize_keys_with, merge_sorted, sort_keys_with, PackedOctant,
    SortScratch,
};
use forestbal_trace as trace;
use std::collections::BTreeMap;
use std::time::Duration;

/// Tag of the phase-3 query messages (for per-tag [`CommStats`] reports).
///
/// [`CommStats`]: forestbal_comm::CommStats
pub const QUERY_TAG: u32 = 0xBA1A_0001;
/// Tag of the phase-3 response messages.
pub const RESPONSE_TAG: u32 = 0xBA1A_0002;

/// Which balance implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceVariant {
    /// Pre-paper algorithm: raw response octants, full-partition rebalance
    /// with auxiliary octant construction.
    Old,
    /// The paper's algorithm: preclusion-based subtree balance, λ-tested
    /// seed responses, per-query reconstruction.
    New,
}

/// How to reverse the asymmetric query pattern (§V).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReversalScheme {
    /// Allgather counts + Allgatherv receiver lists (Figure 12).
    Naive,
    /// Fixed number of rank ranges per process; false positives get empty
    /// messages.
    Ranges(usize),
    /// Divide-and-conquer point-to-point reversal (Figure 13).
    Notify,
}

/// Time per phase on this rank, measured through [`Comm::now_ns`]: wall
/// clock on the threaded runtime, *virtual* cluster time under the
/// `forestbal-sim` discrete-event runtime (where computation is free and
/// only communication advances the clock).
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceTimings {
    /// Phase 1: serial subtree balance of the local partition.
    pub local_balance: Duration,
    /// Pattern reversal (Naive / Ranges / Notify).
    pub reversal: Duration,
    /// Phases 2-3: query construction, exchange, and responses.
    pub query_response: Duration,
    /// Phase 4: local rebalance.
    pub rebalance: Duration,
    /// End-to-end wall clock of the balance call.
    pub total: Duration,
}

impl BalanceTimings {
    /// Componentwise maximum — the cluster-critical path, which is what
    /// the paper's per-phase plots report.
    pub fn max(&self, o: &BalanceTimings) -> BalanceTimings {
        BalanceTimings {
            local_balance: self.local_balance.max(o.local_balance),
            reversal: self.reversal.max(o.reversal),
            query_response: self.query_response.max(o.query_response),
            rebalance: self.rebalance.max(o.rebalance),
            total: self.total.max(o.total),
        }
    }
}

/// Full per-rank accounting of one balance invocation: wall-clock per
/// phase plus the communication volume of the query/response round — the
/// axis on which the paper claims "much reduced ... communication
/// volume" for the seed-based responses.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceReport {
    /// Wall-clock time per phase.
    pub timings: BalanceTimings,
    /// Query payload bytes sent by this rank.
    pub query_bytes: u64,
    /// Response payload bytes sent by this rank (raw octants for the old
    /// variant, seeds for the new).
    pub response_bytes: u64,
    /// Query/response messages sent (excluding pattern reversal traffic).
    pub messages: u64,
}

impl BalanceReport {
    /// Componentwise aggregate: max of timings, sum of volumes.
    pub fn combine(&self, o: &BalanceReport) -> BalanceReport {
        BalanceReport {
            timings: self.timings.max(&o.timings),
            query_bytes: self.query_bytes + o.query_bytes,
            response_bytes: self.response_bytes + o.response_bytes,
            messages: self.messages + o.messages,
        }
    }
}

/// One outbound query entry: a local octant expressed in a target tree's
/// frame, with the frame change needed to map responses back home.
struct QueryEntry<const D: usize> {
    /// Index into the flat list of queried local octants.
    qid: u32,
    /// Target tree (responder frame).
    tree: TreeId,
    /// Tree steps such that `home.translate(steps)` is the target frame.
    steps: [i8; D],
}

/// Phase-4 work item: a qid's merged seed keys paired with its
/// reconstruction result (tree, query key, replacement keys).
type ReconTask = (Vec<u128>, Option<(TreeId, u128, Vec<u128>)>);

/// The root of one tree's local subtree balance: the nearest common
/// ancestor of the first and last leaf of its non-empty key array.
fn local_root<const D: usize>(v: &[u128]) -> PackedOctant<D> {
    PackedOctant(v[0]).nearest_common_ancestor(PackedOctant(v[v.len() - 1]))
}

/// Phase-1 body for one tree: the subtree kernel runs directly on the
/// tree's stored key array, rooted at its [`local_root`], and the owned run
/// of the output replaces the array ([`clip_to_owned`]). Nothing is
/// decoded. Each tree is independent (constraints never cross tree
/// boundaries in phase 1 — that is exactly what phases 2–4 exist for), so
/// the parallel path runs this per tree with per-worker scratch and the
/// result is bit-identical to the serial loop.
fn phase1_tree<const D: usize>(
    v: &mut Vec<u128>,
    cond: Condition,
    variant: BalanceVariant,
    scratch: &mut BalanceScratch<D>,
) -> BalanceStats {
    let sub = local_root::<D>(v);
    let (balanced, bs) = match variant {
        BalanceVariant::Old => balance_subtree_old_keys(sub, v, &[], cond, scratch),
        BalanceVariant::New => balance_subtree_new_keys(sub, v, cond, scratch),
    };
    clip_to_owned::<D>(&balanced, v);
    bs
}

/// Replace the non-empty leaf array `v` by the keys of `balanced` (a
/// subtree kernel's in-root, linear output) that lie inside the unit-cell
/// range `v` spans. First and last cell indices both grow along a linear
/// array, so the survivors are one contiguous run: two binary searches
/// find it, and the run is copied.
fn clip_to_owned<const D: usize>(balanced: &[u128], v: &mut Vec<u128>) {
    debug_assert!(is_linear_keys::<D>(balanced));
    let (lo, hi) = (
        PackedOctant::<D>(v[0]).index(),
        PackedOctant::<D>(v[v.len() - 1]).last_index(),
    );
    let start = balanced.partition_point(|&k| PackedOctant::<D>(k).index() < lo);
    let end = balanced.partition_point(|&k| PackedOctant::<D>(k).last_index() <= hi);
    v.clear();
    v.extend_from_slice(&balanced[start..end]);
}

impl<const D: usize> Forest<D> {
    /// Enforce the 2:1 balance condition `cond` across the whole forest.
    /// Returns per-phase timings for this rank.
    pub fn balance(
        &mut self,
        ctx: &impl Comm,
        cond: Condition,
        variant: BalanceVariant,
        reversal: ReversalScheme,
    ) -> BalanceTimings {
        self.balance_with_report(ctx, cond, variant, reversal)
            .timings
    }

    /// Like [`Forest::balance`], additionally reporting the query/response
    /// communication volume.
    pub fn balance_with_report(
        &mut self,
        ctx: &impl Comm,
        cond: Condition,
        variant: BalanceVariant,
        reversal: ReversalScheme,
    ) -> BalanceReport {
        let mut scratch = BalanceScratch::<D>::new();
        self.balance_with_report_scratch(ctx, cond, variant, reversal, &mut scratch)
    }

    /// Like [`Forest::balance_with_report`], with caller-provided kernel
    /// working memory. Long-running consumers (the epoch loop of
    /// `forestbal-service`) hold one [`BalanceScratch`] across epochs so
    /// a fallback full balance re-enters with warm arenas instead of
    /// reallocating them every time.
    pub fn balance_with_report_scratch(
        &mut self,
        ctx: &impl Comm,
        cond: Condition,
        variant: BalanceVariant,
        reversal: ReversalScheme,
        scratch: &mut BalanceScratch<D>,
    ) -> BalanceReport {
        let t_total = ctx.now_ns();
        trace::span_begin("balance", || t_total);
        let mut report = BalanceReport::default();
        self.update_markers(ctx);

        // ---- Phase 1: local balance --------------------------------
        let t0 = ctx.now_ns();
        trace::span_begin("local_balance", || t0);
        // One arena of kernel working memory serves every subtree of this
        // rank's phase-1 loop and is threaded on through phase 4.
        let ks_base = scratch.stats();
        let mut local_stats = BalanceStats::default();
        let mut tree_tasks: Vec<(&mut Vec<u128>, BalanceStats)> = self
            .local
            .iter_mut()
            .filter(|(_, v)| !v.is_empty())
            .map(|(_, v)| (v, BalanceStats::default()))
            .collect();
        // Independent subtree kernels, one task per tree; stats fold in
        // task order below, so nothing about the schedule reaches the
        // output.
        scratch.for_each_task(&mut tree_tasks, |_, (v, stats), ws| {
            *stats = phase1_tree(v, cond, variant, ws);
        });
        for (_, bs) in &tree_tasks {
            local_stats.hash_queries += bs.hash_queries;
            local_stats.binary_searches += bs.binary_searches;
            local_stats.sorted_len += bs.sorted_len;
            local_stats.output_len += bs.output_len;
        }
        drop(tree_tasks);
        let t1 = ctx.now_ns();
        trace::span_end(|| t1);
        trace::counter_add("balance.local.hash_queries", local_stats.hash_queries);
        trace::counter_add("balance.local.binary_searches", local_stats.binary_searches);
        trace::counter_add("balance.local.sorted_len", local_stats.sorted_len as u64);
        trace::counter_add("balance.local.output_len", local_stats.output_len as u64);
        let ks_local = scratch.stats();
        for (name, v) in ks_local.delta_since(&ks_base).counters("balance.local") {
            trace::counter_add(name, v);
        }
        report.timings.local_balance = Duration::from_nanos(t1 - t0);

        // ---- Phase 2: build queries --------------------------------
        let t0 = t1;
        trace::span_begin("query_response", || t0);
        let me = ctx.rank();
        // Flat list of queried local octants (tree, key).
        let mut queries: Vec<(TreeId, u128)> = Vec::new();
        // All entries, indexed by eid; `per_rank[d]` lists eids for rank d.
        let mut entries: Vec<QueryEntry<D>> = Vec::new();
        let mut per_rank: BTreeMap<usize, Vec<u32>> = BTreeMap::new();

        let (mut reach_tests, mut boundary_leaves) = (0u64, 0u64);
        for (t, v) in self.local.iter() {
            let Some(range) = self.local_range(t) else {
                continue;
            };
            let walk = self.for_each_boundary_leaf(t, v, range, |k| {
                let mut qid: Option<u32> = None;
                // (rank, tree, steps) destinations already recorded for k.
                let mut seen: Vec<(usize, TreeId, [i8; D])> = Vec::new();
                self.for_each_neighbor_owner(t, k, range, |owner, t2, steps| {
                    if owner == me && t2 == t && steps == [0; D] {
                        return; // same tree, same rank: phase 1 did it
                    }
                    let dest = (owner, t2, steps);
                    if seen.contains(&dest) {
                        return;
                    }
                    seen.push(dest);
                    let qid = *qid.get_or_insert_with(|| {
                        queries.push((t, k));
                        (queries.len() - 1) as u32
                    });
                    let eid = entries.len() as u32;
                    entries.push(QueryEntry {
                        qid,
                        tree: t2,
                        steps,
                    });
                    per_rank.entry(owner).or_default().push(eid);
                });
            });
            reach_tests += walk.tests;
            boundary_leaves += walk.boundary;
        }

        // Encode per-destination query buffers (self entries bypass the
        // network): `(u32 eid, u32 tree, key)` records — per-record tree
        // ids here, since consecutive entries rarely share a tree.
        let encode_entries = |eids: &[u32]| -> Vec<u8> {
            let mut buf = Vec::with_capacity(eids.len() * (8 + codec::key_size::<D>()));
            for &eid in eids {
                let e = &entries[eid as usize];
                let (_, r) = queries[e.qid as usize];
                codec::put_u32(&mut buf, eid);
                codec::put_u32(&mut buf, e.tree);
                codec::put_key::<D>(&mut buf, PackedOctant::<D>(r).translate(e.steps).0);
            }
            buf
        };

        let receivers: Vec<usize> = per_rank.keys().copied().filter(|&d| d != me).collect();
        let t1 = ctx.now_ns();
        trace::span_end(|| t1);
        trace::counter_add("balance.reach_tests", reach_tests);
        trace::counter_add("balance.boundary_leaves", boundary_leaves);
        trace::counter_add("balance.query_octants", queries.len() as u64);
        trace::counter_add("balance.query_entries", entries.len() as u64);
        report.timings.query_response = Duration::from_nanos(t1 - t0);

        // ---- Pattern reversal (timed separately, like Figure 15e) ---
        let t0 = t1;
        trace::span_begin("reversal", || t0);
        let s_reversal = trace::enabled().then(|| ctx.stats());
        let (senders, effective_receivers) = match reversal {
            ReversalScheme::Naive => (reverse_naive(ctx, &receivers), receivers.clone()),
            ReversalScheme::Notify => (reverse_notify(ctx, &receivers), receivers.clone()),
            ReversalScheme::Ranges(rmax) => {
                let senders = reverse_ranges(ctx, &receivers, rmax);
                let expansion: Vec<usize> = ranges_expansion(&receivers, rmax, ctx.size())
                    .into_iter()
                    .filter(|&d| d != me)
                    .collect();
                (senders, expansion)
            }
        };
        let senders: Vec<usize> = senders.into_iter().filter(|&s| s != me).collect();
        let t1 = ctx.now_ns();
        trace::span_end(|| t1);
        if let Some(before) = s_reversal {
            let d = ctx.stats().delta_since(&before);
            trace::counter_add("balance.reversal.messages", d.messages_sent);
            trace::counter_add("balance.reversal.bytes", d.bytes_sent);
            trace::counter_add("balance.reversal.collective_bytes", d.collective_bytes);
        }
        report.timings.reversal = Duration::from_nanos(t1 - t0);

        // ---- Phase 3: query / response exchange ---------------------
        let t0 = t1;
        trace::span_begin("query_response", || t0);
        let s_exchange = trace::enabled().then(|| ctx.stats());
        for &d in &effective_receivers {
            let buf = per_rank
                .get(&d)
                .map(|e| encode_entries(e))
                .unwrap_or_default();
            report.query_bytes += buf.len() as u64;
            report.messages += 1;
            ctx.send(d, QUERY_TAG, buf);
        }

        // Respond to each incoming query message.
        for &s in &senders {
            let (_, data) = ctx.recv(Some(s), QUERY_TAG);
            let reply = self.answer_queries(&data, cond, variant);
            report.response_bytes += reply.len() as u64;
            report.messages += 1;
            ctx.send(s, RESPONSE_TAG, reply);
        }

        // Self entries: answer locally.
        let self_reply = per_rank
            .get(&me)
            .map(|eids| self.answer_queries(&encode_entries(eids), cond, variant));

        // Collect responses: per qid, the constraint keys in home frame.
        let mut per_qid: Vec<Vec<u128>> = vec![Vec::new(); queries.len()];
        let absorb = |data: &[u8], per_qid: &mut Vec<Vec<u128>>| {
            let mut pos = 0;
            let mut octants = 0u64;
            while pos < data.len() {
                let eid = codec::get_u32(data, &mut pos) as usize;
                let count = codec::get_u32(data, &mut pos) as usize;
                octants += count as u64;
                let e = &entries[eid];
                let got = &mut per_qid[e.qid as usize];
                let base = got.len();
                codec::get_keys::<D>(data, &mut pos, count, got);
                if e.steps != [0; D] {
                    let back = e.steps.map(|s| -s);
                    for k in &mut got[base..] {
                        *k = PackedOctant::<D>(*k).translate(back).0;
                    }
                }
            }
            trace::counter_add("balance.response_octants_recv", octants);
        };
        for &_d in &effective_receivers {
            let (_, data) = ctx.recv(None, RESPONSE_TAG);
            absorb(&data, &mut per_qid);
        }
        if let Some(data) = self_reply {
            absorb(&data, &mut per_qid);
        }
        let t1 = ctx.now_ns();
        trace::span_end(|| t1);
        if let Some(before) = s_exchange {
            let d = ctx.stats().delta_since(&before);
            trace::counter_add("balance.query_response.messages", d.messages_sent);
            trace::counter_add("balance.query_response.bytes", d.bytes_sent);
        }
        trace::counter_add("balance.query_bytes", report.query_bytes);
        trace::counter_add("balance.response_bytes", report.response_bytes);
        report.timings.query_response += Duration::from_nanos(t1 - t0);

        // ---- Phase 4: local rebalance -------------------------------
        let t0 = t1;
        trace::span_begin("rebalance", || t0);
        match variant {
            BalanceVariant::New => self.rebalance_new(&queries, per_qid, cond, scratch),
            BalanceVariant::Old => self.rebalance_old(&queries, per_qid, cond, scratch),
        }
        let t1 = ctx.now_ns();
        trace::span_end(|| t1);
        trace::span_end(|| t1); // the enclosing "balance" span
        let ks = scratch.stats().delta_since(&ks_local);
        for (name, v) in ks.counters("balance.rebalance") {
            trace::counter_add(name, v);
        }
        report.timings.rebalance = Duration::from_nanos(t1 - t0);
        report.timings.total = Duration::from_nanos(t1 - t_total);
        report
    }

    /// Phase 3 responder: for each encoded query entry, find the local
    /// leaves inside the query octant's insulation layer that might cause
    /// it to split, and encode the response (raw octants or seeds, the
    /// latter built once per family of such leaves). The insulation scan,
    /// the seed decision and the response all stay on packed keys.
    fn answer_queries(&self, data: &[u8], cond: Condition, variant: BalanceVariant) -> Vec<u8> {
        let mut reply = Vec::new();
        let mut sort = SortScratch::new();
        let mut pos = 0;
        while pos < data.len() {
            let eid = codec::get_u32(data, &mut pos);
            let tree = codec::get_u32(data, &mut pos);
            let rk = PackedOctant::<D>(codec::get_key::<D>(data, &mut pos));

            let mut out: Vec<u128> = Vec::new();
            let mut seed_calls = 0u64;
            // Parent of the last candidate that ran `find_seeds_keys`.
            let mut family: Option<PackedOctant<D>> = None;
            if let Some(v) = self.local.get(tree) {
                for dir in directions::<D>() {
                    let n = rk.neighbor(&dir);
                    if !n.is_inside_root() {
                        continue; // insulation falling outside this tree
                    }
                    // Local leaves strictly inside the insulation member.
                    let (n_lo, n_hi) = (n.index(), n.last_index());
                    let lo = v.partition_point(|&k| PackedOctant::<D>(k).index() < n_lo);
                    for &k in v[lo..]
                        .iter()
                        .take_while(|&&k| PackedOctant::<D>(k).last_index() <= n_hi)
                    {
                        let p = PackedOctant::<D>(k);
                        if p.level() < rk.level() + 2 {
                            continue; // too coarse to split r
                        }
                        match variant {
                            BalanceVariant::Old => out.push(k),
                            BalanceVariant::New => {
                                // Siblings share their coarsest balanced
                                // tree, T_k(o) = T_k(s), so one seed set
                                // per family reconstructs the same T_k ∩ r.
                                // A candidate's family lies inside its
                                // insulation member, so it is consecutive
                                // in the run.
                                let parent = Some(p.parent());
                                if family == parent {
                                    continue;
                                }
                                family = parent;
                                seed_calls += 1;
                                find_seeds_keys(p, rk, cond, &mut out);
                            }
                        }
                    }
                }
            }
            trace::counter_add("balance.find_seeds_calls", seed_calls);
            sort_keys_with::<D>(&mut out, &mut sort);
            out.dedup();
            if variant == BalanceVariant::New {
                // Overlapping seeds from different source octants resolve
                // to the finest (already sorted: the fast path skips the
                // sort and only runs the ancestor sweep).
                linearize_keys_with::<D>(&mut out, &mut sort);
            }
            trace::counter_add("balance.queries_answered", 1);
            trace::counter_add("balance.response_octants", out.len() as u64);
            // The paper's §IV claim made measurable: seed responses are
            // tiny (New) versus raw insulation octants (Old).
            trace::hist(
                match variant {
                    BalanceVariant::New => "balance.seeds_per_query",
                    BalanceVariant::Old => "balance.octants_per_query",
                },
                out.len() as u64,
            );
            codec::put_u32(&mut reply, eid);
            codec::put_u32(&mut reply, out.len() as u32);
            codec::put_keys::<D>(&mut reply, &out);
        }
        reply
    }

    /// New-variant rebalance: reconstruct each queried octant from its
    /// merged seed keys with the new key kernel and splice the result into
    /// the leaf array. No full-partition work, no auxiliary octants, no
    /// decode: replaced leaves are found by exact key match.
    fn rebalance_new(
        &mut self,
        queries: &[(TreeId, u128)],
        per_qid: Vec<Vec<u128>>,
        cond: Condition,
        scratch: &mut BalanceScratch<D>,
    ) {
        // Per-qid reconstructions are fully independent (each queried
        // octant owns its seed set), so they form the phase-4 work queue.
        // Replacements are collected per qid and merged below in qid order
        // — the same insertion order as the serial loop, so the splice map
        // is bit-identical for any thread count.
        let mut tasks: Vec<ReconTask> = per_qid.into_iter().map(|s| (s, None)).collect();
        scratch.for_each_task(&mut tasks, |qid, (seeds, out), ws| {
            if seeds.is_empty() {
                return;
            }
            let (t, r) = queries[qid];
            ws.linearize(seeds);
            // T_k ∩ r from the merged seeds (§IV).
            let (s, _) = balance_subtree_new_keys(PackedOctant(r), seeds, cond, ws);
            if s.len() > 1 {
                *out = Some((t, r, s));
            }
        });
        // tree -> (query key -> packed replacement leaves)
        let mut splices: BTreeMap<TreeId, BTreeMap<u128, Vec<u128>>> = BTreeMap::new();
        for (t, rkey, packed) in tasks.into_iter().filter_map(|(_, out)| out) {
            splices.entry(t).or_default().insert(rkey, packed);
        }
        for (t, reps) in splices {
            self.local.splice(t, reps);
        }
    }

    /// Old-variant rebalance: per tree, re-run the full subtree balance
    /// over the partition's key array merged with every received key as a
    /// constraint, constructing auxiliary octants toward remote sources.
    fn rebalance_old(
        &mut self,
        queries: &[(TreeId, u128)],
        per_qid: Vec<Vec<u128>>,
        cond: Condition,
        scratch: &mut BalanceScratch<D>,
    ) {
        let mut per_tree: BTreeMap<TreeId, Vec<u128>> = BTreeMap::new();
        for (qid, got) in per_qid.into_iter().enumerate() {
            let (t, _) = queries[qid];
            per_tree.entry(t).or_default().extend(got);
        }
        for (t, mut received) in per_tree {
            scratch.sort(&mut received);
            received.dedup();
            // Only trees with local leaves are queried, and the store
            // holds no empty arrays.
            let v = self
                .local
                .get_mut(t)
                .expect("response for tree without leaves");
            let sub = local_root::<D>(v);
            let (interior_extra, exterior): (Vec<u128>, Vec<u128>) = received
                .into_iter()
                .partition(|&k| sub.contains(PackedOctant(k)));
            let mut interior = merge_sorted(v, &interior_extra);
            // Received octants are leaves of other partitions: disjoint
            // from ours, but deduplicate defensively.
            interior.dedup();
            debug_assert!(is_linear_keys::<D>(&interior));
            let (balanced, _) = balance_subtree_old_keys(sub, &interior, &exterior, cond, scratch);
            clip_to_owned::<D>(&balanced, v);
        }
    }
}
