//! Batch-at-a-time pattern matching (planner v4).
//!
//! The reference executor ([`crate::pattern::match_patterns`]) recurses
//! one seed row at a time: each seed re-plans the join order, re-runs
//! `start_candidates` and walks its own DFS. This module instead runs
//! **operator stages over candidate batches**: all seed rows that share a
//! plan advance together through one `Seed` stage and one `Expand` stage
//! per segment, so stage-level work can be shared across the whole batch:
//!
//! * the **seed candidate vector** is computed once per batch when the
//!   path's access decision cannot observe any binding a seed row carries
//!   (no transition variables, no pushed operand referencing a bound
//!   variable);
//! * **hop expansions are memoized per source node** within a stage when
//!   the relationship pattern is seed-independent — the common star-join
//!   shape where many intermediate rows fan into the same hub re-uses one
//!   adjacency scan (plus its index-vs-adjacency serve decision) instead
//!   of recomputing it per row;
//! * **target-node pattern checks are memoized per node** under the same
//!   kind of gate — a hub's label/prop conformance is decided once per
//!   stage, not once per incoming row.
//!
//! Sharing is gated on a **liveness analysis**: a stage input is shared
//! only if none of the variables the stage's planning consults (pattern
//! variables, transition-variable labels, free variables of inline props
//! and pushed-down operands) is bound in *any* batched row at that stage.
//! The live set is computed statically — a name is bound in some row at a
//! stage iff it is bound in some *seed* row or it is a pattern variable
//! of an already-traversed position — so the gates cost O(pattern), not
//! O(batch), per stage. An operand referencing a variable bound in no row
//! fails evaluation identically for every row, so the per-row fallbacks
//! also agree.
//!
//! **Equivalence to the reference executor** (exercised by the
//! differential fuzzer's executor-twin panel): stages process rows in
//! order and append candidates in enumeration order, so the stage-wise
//! (BFS) leaf order equals the reference DFS leaf order — both are the
//! lexicographic order of per-level candidate indices. Variable-length
//! segments do not batch (their DFS interleaves depths); a plan group
//! containing one falls back to the reference path per seed, as does a
//! singleton group (nothing to share).

use crate::ast::{Expr, NodePattern, PathPattern, RelPattern};
use crate::error::Result;
use crate::expr::{eval, EvalCtx};
use crate::pattern::{
    hop_candidates, match_patterns_pushed, node_matches, plan_patterns, start_candidates,
    MatchState, Pushdowns,
};
use crate::physical::{plan_parallelism, plan_path, ParallelPlan, MORSEL_SIZE};
use crate::row::Row;
use pg_graph::{NodeId, Value};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The executor's parallelism knobs (see
/// [`crate::exec::Executor::with_thread_limit`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ParallelCfg {
    /// Worker-degree ceiling, `None` = the process-wide one, which
    /// [`plan_parallelism`] resolves only for a group past its cost gate;
    /// clamps scheduling width only, never the morselize decision.
    pub threads: Option<usize>,
    /// Estimated-join-output-rows floor for morselization — normally
    /// [`crate::physical::PARALLEL_ROW_THRESHOLD`], overridable so tests
    /// can force the parallel path on small fixtures.
    pub threshold: f64,
}

/// Match `patterns` for every seed row, returning the matches **per
/// seed** (the caller owns `OPTIONAL MATCH` null-binding, which is a
/// per-seed decision). Row-for-row identical to calling
/// [`crate::pattern::match_patterns`] on each seed; batches only where
/// sharing is sound, and morselizes a batch across worker threads when
/// the cost model says the join output is large enough
/// ([`plan_parallelism`]). `pushed` is
/// [`crate::pattern::extract_pushdowns`] of `where_clause`.
pub(crate) fn match_patterns_batch(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
    par: &ParallelCfg,
) -> Result<Vec<Vec<Row>>> {
    let plans: Vec<Vec<PathPattern>> = seeds
        .iter()
        .map(|s| plan_patterns(ctx, s, patterns, pushed))
        .collect();
    let mut out: Vec<Vec<Row>> = Vec::with_capacity(seeds.len());
    let mut i = 0;
    while i < seeds.len() {
        let mut j = i + 1;
        while j < seeds.len() && plans[j] == plans[i] {
            j += 1;
        }
        let group = &seeds[i..j];
        let var_length = plans[i]
            .iter()
            .any(|p| p.segments.iter().any(|(r, _)| r.hops.is_some()));
        if group.len() == 1 || var_length {
            for seed in group {
                out.push(match_patterns_pushed(
                    ctx,
                    seed,
                    patterns,
                    where_clause,
                    pushed,
                    None,
                )?);
            }
        } else {
            let est = group_est_rows(ctx, group, &plans[i], pushed);
            // Pin only once the cost gate passes — pinning is cheap but
            // not free, and most groups are small.
            let snap = (est >= par.threshold)
                .then(|| ctx.view.parallel_snapshot())
                .flatten();
            let decision = plan_parallelism(
                group.len(),
                var_length,
                est,
                snap.is_some(),
                par.threads,
                par.threshold,
            );
            match decision {
                ParallelPlan::Parallel { degree, .. } => {
                    out.extend(run_group_morselized(
                        ctx,
                        group,
                        &plans[i],
                        where_clause,
                        pushed,
                        degree,
                        &snap.expect("Parallel decision implies a pinned view"),
                    )?);
                }
                ParallelPlan::Serial(_) => {
                    out.extend(run_group(ctx, group, &plans[i], where_clause, pushed)?);
                }
            }
        }
        i = j;
    }
    Ok(out)
}

/// Estimated join-output rows of one plan-equal group: the group size
/// times the product of each planned path's degree-statistics estimate
/// (see [`plan_path`]), evaluated against the group's representative
/// (first) seed row. Unlabeled source positions whose variable the
/// representative row binds to a concrete node borrow that node's stored
/// labels for the fanout lookup — at runtime the binding is real, so the
/// hint is exact where `EXPLAIN`'s plan-time `Null` representative can
/// only guess.
fn group_est_rows(
    ctx: &EvalCtx<'_>,
    group: &[Row],
    planned: &[PathPattern],
    pushed: &Pushdowns,
) -> f64 {
    let rep = &group[0];
    let mut hints: HashMap<String, Vec<String>> = HashMap::new();
    for path in planned {
        let mut note = |np: &NodePattern| {
            if let (Some(v), true) = (&np.var, np.labels.is_empty()) {
                if let Some(Value::Node(id)) = rep.get(v) {
                    hints
                        .entry(v.clone())
                        .or_insert_with(|| ctx.view.node_labels(*id));
                }
            }
        };
        note(&path.start);
        for (_, np) in &path.segments {
            note(np);
        }
    }
    let mut est = group.len() as f64;
    for path in planned {
        est *= plan_path(ctx, rep, path, pushed, &hints).est_rows();
    }
    est
}

/// One morsel's result slot: `None` until a worker claims and finishes
/// the morsel at that ordinal.
type MorselSlot = Mutex<Option<Result<Vec<Vec<Row>>>>>;

/// Morsel-driven execution of one plan-equal group: split the seeds into
/// [`MORSEL_SIZE`] chunks, drain the chunks through a shared claim
/// counter with `degree` scoped workers against a pinned snapshot, and
/// concatenate the per-morsel outputs in morsel order.
///
/// **Determinism.** [`run_group`]'s output for a seed depends only on
/// the seed row and the pinned state, never on which other seeds share
/// its batch (memo gates only *reuse* results that per-row evaluation
/// would reproduce). So per-morsel outputs concatenated in morsel
/// ordinal order equal the serial group output row-for-row — and since
/// the chunk boundaries don't depend on `degree`, every thread count
/// produces byte-identical rows *and* identical index-probe totals.
/// `degree == 1` skips the snapshot and runs the same morsels inline on
/// the caller's context.
///
/// **Errors.** Workers always drain the whole queue; the merge returns
/// the error of the lowest-ordinal failed morsel — the same error the
/// serial path would have hit first.
#[allow(clippy::too_many_arguments)]
fn run_group_morselized(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    planned: &[PathPattern],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
    degree: usize,
    snap: &pg_graph::Snapshot,
) -> Result<Vec<Vec<Row>>> {
    let morsels: Vec<&[Row]> = seeds.chunks(MORSEL_SIZE).collect();
    if degree <= 1 {
        let mut out = Vec::with_capacity(seeds.len());
        for m in &morsels {
            out.extend(run_group(ctx, m, planned, where_clause, pushed)?);
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<MorselSlot> = morsels.iter().map(|_| Mutex::new(None)).collect();
    // Workers share only `Sync` state: the pinned snapshot, the claim
    // counter, the morsel list, and the result slots. (`ctx` itself
    // holds a non-`Sync` `&dyn GraphView` and stays on this thread.)
    let (params, now_ms) = (ctx.params, ctx.now_ms);
    {
        let (next, slots, morsels) = (&next, &slots, &morsels);
        std::thread::scope(|scope| {
            for _ in 0..degree {
                scope.spawn(move || {
                    let wctx = EvalCtx::new(snap, params, now_ms);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(morsel) = morsels.get(i) else {
                            break;
                        };
                        let r = run_group(&wctx, morsel, planned, where_clause, pushed);
                        *slots[i].lock().expect("morsel slot poisoned") = Some(r);
                    }
                });
            }
        });
    }
    // The workers counted probes on the snapshot's own counters; fold
    // them back so totals match a serial run of the same morsels.
    ctx.view.absorb_probes(snap.index_probes());
    let mut out = Vec::with_capacity(seeds.len());
    for slot in slots {
        let result = slot
            .into_inner()
            .expect("morsel slot poisoned")
            .expect("scope joined every worker, every morsel was claimed");
        out.extend(result?);
    }
    Ok(out)
}

/// Stage-wise execution of one plan over a batch of seed rows.
fn run_group(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    planned: &[PathPattern],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
) -> Result<Vec<Vec<Row>>> {
    // The static live set: names bound in any seed row, extended with
    // every pattern variable as its position is traversed (an unbound
    // position binds unconditionally, so after its stage the name is
    // live in every surviving state).
    let mut live: HashSet<String> = HashSet::new();
    for s in seeds {
        live.extend(s.names().cloned());
    }

    // (seed index, in-progress match) — the batch the stages flow over.
    let mut states: Vec<(usize, MatchState)> = seeds
        .iter()
        .enumerate()
        .map(|(si, s)| {
            (
                si,
                MatchState {
                    row: s.clone(),
                    used: Vec::new(),
                },
            )
        })
        .collect();

    for path in planned {
        // ---- Seed stage: anchor candidates per surviving state ----
        let shared: Option<Vec<NodeId>> = if start_shareable(path, pushed, &live) {
            Some(start_candidates(ctx, &states[0].1.row, path, pushed)?)
        } else {
            None
        };
        let mut nmemo: Option<HashMap<NodeId, bool>> =
            node_shareable(&path.start, &live).then(HashMap::new);
        // States now also carry the node the path walk is currently at.
        let mut cur: Vec<(usize, MatchState, NodeId)> = Vec::new();
        for (si, st) in &states {
            let owned;
            let cands: &[NodeId] = match &shared {
                Some(c) => c,
                None => {
                    owned = start_candidates(ctx, &st.row, path, pushed)?;
                    &owned
                }
            };
            for &cand in cands {
                let ok = match &mut nmemo {
                    Some(memo) => match memo.get(&cand) {
                        Some(&ok) => ok,
                        None => {
                            let ok = node_matches(ctx, &st.row, cand, &path.start)?;
                            memo.insert(cand, ok);
                            ok
                        }
                    },
                    None => node_matches(ctx, &st.row, cand, &path.start)?,
                };
                if !ok {
                    continue;
                }
                let mut st2 = st.clone();
                if let Some(v) = &path.start.var {
                    if let Some(bound) = st2.row.get(v) {
                        if bound.eq3(&Value::Node(cand)) != Some(true) {
                            continue;
                        }
                    } else {
                        st2.row.set(v.clone(), Value::Node(cand));
                    }
                }
                cur.push((*si, st2, cand));
            }
        }
        if let Some(v) = &path.start.var {
            live.insert(v.clone());
        }

        // ---- Expand stages: one per segment, whole batch at a time ----
        for (rel_pat, node_pat) in &path.segments {
            let memoize = hop_shareable(rel_pat, pushed, &live);
            let mut memo: HashMap<NodeId, Vec<(pg_graph::RelId, NodeId)>> = HashMap::new();
            let mut nmemo: Option<HashMap<NodeId, bool>> =
                node_shareable(node_pat, &live).then(HashMap::new);
            let mut next: Vec<(usize, MatchState, NodeId)> = Vec::new();
            for (si, st, at) in &cur {
                let owned;
                let cands: &[(pg_graph::RelId, NodeId)] = if memoize {
                    if !memo.contains_key(at) {
                        let c = hop_candidates(ctx, &st.row, *at, rel_pat, pushed)?;
                        memo.insert(*at, c);
                    }
                    &memo[at]
                } else {
                    owned = hop_candidates(ctx, &st.row, *at, rel_pat, pushed)?;
                    &owned
                };
                for (rid, other) in cands {
                    if st.used.contains(rid) {
                        continue;
                    }
                    let ok = match &mut nmemo {
                        Some(memo) => match memo.get(other) {
                            Some(&ok) => ok,
                            None => {
                                let ok = node_matches(ctx, &st.row, *other, node_pat)?;
                                memo.insert(*other, ok);
                                ok
                            }
                        },
                        None => node_matches(ctx, &st.row, *other, node_pat)?,
                    };
                    if !ok {
                        continue;
                    }
                    let mut st2 = st.clone();
                    st2.used.push(*rid);
                    if let Some(v) = &rel_pat.var {
                        if let Some(bound) = st2.row.get(v) {
                            if bound.eq3(&Value::Rel(*rid)) != Some(true) {
                                continue;
                            }
                        } else {
                            st2.row.set(v.clone(), Value::Rel(*rid));
                        }
                    }
                    if let Some(v) = &node_pat.var {
                        if let Some(bound) = st2.row.get(v) {
                            if bound.eq3(&Value::Node(*other)) != Some(true) {
                                continue;
                            }
                        } else {
                            st2.row.set(v.clone(), Value::Node(*other));
                        }
                    }
                    next.push((*si, st2, *other));
                }
            }
            if let Some(v) = &rel_pat.var {
                live.insert(v.clone());
            }
            if let Some(v) = &node_pat.var {
                live.insert(v.clone());
            }
            cur = next;
        }

        states = cur.into_iter().map(|(si, st, _)| (si, st)).collect();
        if states.is_empty() {
            break;
        }
    }

    // ---- Filter stage: residual WHERE, regrouped per seed ----
    let mut out: Vec<Vec<Row>> = vec![Vec::new(); seeds.len()];
    for (si, st) in states {
        if let Some(w) = where_clause {
            if !eval(ctx, &st.row, w)?.is_truthy() {
                continue;
            }
        }
        out[si].push(st.row);
    }
    Ok(out)
}

/// Free variables of every pushed-down operand of `var`.
fn pushed_expr_vars(var: Option<&String>, pushed: &Pushdowns, out: &mut Vec<String>) {
    let Some(p) = var.and_then(|v| pushed.get(v)) else {
        return;
    };
    for (_, e) in &p.eqs {
        e.collect_vars(out);
    }
    for (_, _, e) in &p.ranges {
        e.collect_vars(out);
    }
    for (_, e) in &p.prefixes {
        e.collect_vars(out);
    }
}

/// Whether [`start_candidates`] is row-independent for this batch: none
/// of the names its access decision consults — the anchor variable, its
/// labels (transition-variable check), the free variables of its inline
/// props and pushdowns, and the same for the first segment's relationship
/// (a rel extent may seed the anchor) — is live in any batched row.
fn start_shareable(path: &PathPattern, pushed: &Pushdowns, live: &HashSet<String>) -> bool {
    if live.is_empty() {
        return true;
    }
    let mut names: Vec<String> = Vec::new();
    names.extend(path.start.var.iter().cloned());
    names.extend(path.start.labels.iter().cloned());
    for (_, e) in &path.start.props {
        e.collect_vars(&mut names);
    }
    pushed_expr_vars(path.start.var.as_ref(), pushed, &mut names);
    if let Some((rel_pat, _)) = path.segments.first() {
        names.extend(rel_pat.var.iter().cloned());
        for (_, e) in &rel_pat.props {
            e.collect_vars(&mut names);
        }
        pushed_expr_vars(rel_pat.var.as_ref(), pushed, &mut names);
    }
    names.iter().all(|n| !live.contains(n))
}

/// Whether [`hop_candidates`] depends only on the source node for this
/// batch: the relationship variable is unbound everywhere (no pre-bound
/// rel fast path) and no inline prop or pushdown operand reads a live
/// variable.
fn hop_shareable(rel_pat: &RelPattern, pushed: &Pushdowns, live: &HashSet<String>) -> bool {
    if live.is_empty() {
        return true;
    }
    let mut names: Vec<String> = Vec::new();
    names.extend(rel_pat.var.iter().cloned());
    for (_, e) in &rel_pat.props {
        e.collect_vars(&mut names);
    }
    pushed_expr_vars(rel_pat.var.as_ref(), pushed, &mut names);
    names.iter().all(|n| !live.contains(n))
}

/// Whether [`node_matches`] depends only on the candidate node for this
/// batch: no label doubles as a live transition variable and no inline
/// prop expression reads a live variable. (The pattern's own `var` is
/// irrelevant — `node_matches` never consults it; the bound-variable
/// equality check stays per state, outside the memo.)
fn node_shareable(np: &NodePattern, live: &HashSet<String>) -> bool {
    if live.is_empty() {
        return true;
    }
    let mut names: Vec<String> = Vec::new();
    names.extend(np.labels.iter().cloned());
    for (_, e) in &np.props {
        e.collect_vars(&mut names);
    }
    names.iter().all(|n| !live.contains(n))
}
