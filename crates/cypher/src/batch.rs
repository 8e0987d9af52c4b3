//! Batch-at-a-time pattern matching (planner v4).
//!
//! The reference executor ([`crate::pattern::match_patterns`]) recurses
//! one seed row at a time: each seed plans its join order, materializes
//! its seeds and walks its own DFS. This module plans each seed the same
//! way — once, with the same `plan_patterns` — and then runs **operator
//! stages over candidate batches**: all seed rows whose planned paths
//! agree advance together through one `Seed` stage and one `Expand` stage
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
//! containing one hands each seed's plan to the reference matcher, as
//! does a singleton group (nothing to share).

use crate::ast::{Expr, NodePattern, PathPattern, RelPattern};
use crate::error::Result;
use crate::expr::{eval, EvalCtx};
use crate::pattern::{
    hop_candidates, match_planned, node_matches, node_reads, plan_patterns, rel_reads, seed_reads,
    start_candidates, MatchState, Pushdowns,
};
use crate::physical::PhysicalPathPlan;
use crate::row::Row;
use pg_graph::{NodeId, Value};
use std::collections::{HashMap, HashSet};

/// Match `patterns` for every seed row, returning the matches **per
/// seed** (the caller owns `OPTIONAL MATCH` null-binding, which is a
/// per-seed decision). Row-for-row identical to calling
/// [`crate::pattern::match_patterns`] on each seed; batches only where
/// sharing is sound. `pushed` is [`crate::pattern::extract_pushdowns`] of
/// `where_clause`.
pub(crate) fn match_patterns_batch(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
) -> Result<Vec<Vec<Row>>> {
    let plans: Vec<Vec<PhysicalPathPlan>> = seeds
        .iter()
        .map(|s| plan_patterns(ctx, s, patterns, pushed))
        .collect();
    // Seeds batch together when their planned *paths* agree; each keeps
    // its own seed accesses, which may carry values of its own row.
    let same_paths = |a: &[PhysicalPathPlan], b: &[PhysicalPathPlan]| {
        a.iter().map(|p| &p.path).eq(b.iter().map(|p| &p.path))
    };
    let mut out: Vec<Vec<Row>> = Vec::with_capacity(seeds.len());
    let mut i = 0;
    while i < seeds.len() {
        let mut j = i + 1;
        while j < seeds.len() && same_paths(&plans[j], &plans[i]) {
            j += 1;
        }
        let (group, group_plans) = (&seeds[i..j], &plans[i..j]);
        let var_length = plans[i]
            .iter()
            .any(|p| p.path.segments.iter().any(|(r, _)| r.hops.is_some()));
        if group.len() == 1 || var_length {
            for (seed, planned) in group.iter().zip(group_plans) {
                out.push(match_planned(
                    ctx,
                    seed,
                    planned,
                    where_clause,
                    pushed,
                    None,
                )?);
            }
        } else {
            out.extend(run_group(ctx, group, group_plans, where_clause, pushed)?);
        }
        i = j;
    }
    Ok(out)
}

/// Stage-wise execution of a batch of seed rows whose plans (`plans[i]`
/// is `seeds[i]`'s) share one planned path list.
fn run_group(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    plans: &[Vec<PhysicalPathPlan>],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
) -> Result<Vec<Vec<Row>>> {
    // The static live set: names bound in any seed row, extended with
    // every pattern variable as its position is traversed (an unbound
    // position binds unconditionally, so after its stage the name is
    // live in every surviving state).
    let mut live: HashSet<String> = HashSet::new();
    for name in seeds.iter().flat_map(Row::names) {
        if !live.contains(name) {
            live.insert(name.to_string());
        }
    }

    // (seed index, in-progress match) — the batch the stages flow over.
    let mut states: Vec<(usize, MatchState)> = seeds
        .iter()
        .map(|s| MatchState::new(s.clone()))
        .enumerate()
        .collect();

    for (pi, plan) in plans[0].iter().enumerate() {
        let path = &plan.path;
        // ---- Seed stage: each state materializes its seed's plan ----
        let shared: Option<Vec<NodeId>> = if start_shareable(path, pushed, &live) {
            let (si, st) = &states[0];
            Some(start_candidates(ctx, &st.row, &plans[*si][pi], pushed)?)
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
                    owned = start_candidates(ctx, &st.row, &plans[*si][pi], pushed)?;
                    &owned
                }
            };
            for &cand in cands {
                if !node_ok(ctx, &st.row, cand, &path.start, &mut nmemo)? {
                    continue;
                }
                let mut st2 = st.fork(&[&path.start.var]);
                if st2.bind(path.start.var.as_ref(), Value::Node(cand)) {
                    cur.push((*si, st2, cand));
                }
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
                    if st.used.contains(rid)
                        || !node_ok(ctx, &st.row, *other, node_pat, &mut nmemo)?
                    {
                        continue;
                    }
                    let mut st2 = st.fork(&[&rel_pat.var, &node_pat.var]);
                    st2.used.push(*rid);
                    if st2.bind(rel_pat.var.as_ref(), Value::Rel(*rid))
                        && st2.bind(node_pat.var.as_ref(), Value::Node(*other))
                    {
                        next.push((*si, st2, *other));
                    }
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

/// [`node_matches`], decided once per node when the stage carries a memo
/// (the check is row-independent there, see [`node_shareable`]).
fn node_ok(
    ctx: &EvalCtx<'_>,
    row: &Row,
    node: NodeId,
    np: &NodePattern,
    memo: &mut Option<HashMap<NodeId, bool>>,
) -> Result<bool> {
    let Some(memo) = memo else {
        return node_matches(ctx, row, node, np);
    };
    if let Some(&ok) = memo.get(&node) {
        return Ok(ok);
    }
    let ok = node_matches(ctx, row, node, np)?;
    memo.insert(node, ok);
    Ok(ok)
}

/// Whether none of `names` is bound in any batched row.
fn none_live(names: &[String], live: &HashSet<String>) -> bool {
    names.iter().all(|n| !live.contains(n))
}

/// Whether [`start_candidates`] is row-independent for this batch: none
/// of the names choosing the seed reads is live in any batched row.
fn start_shareable(path: &PathPattern, pushed: &Pushdowns, live: &HashSet<String>) -> bool {
    live.is_empty() || none_live(&seed_reads(path, pushed), live)
}

/// Whether [`hop_candidates`] depends only on the source node for this
/// batch: the relationship variable is unbound everywhere (no pre-bound
/// rel fast path) and no inline prop or pushdown operand reads a live
/// variable.
fn hop_shareable(rel_pat: &RelPattern, pushed: &Pushdowns, live: &HashSet<String>) -> bool {
    live.is_empty() || none_live(&rel_reads(rel_pat, pushed), live)
}

/// Whether [`node_matches`] depends only on the candidate node for this
/// batch: no label doubles as a live transition variable and no inline
/// prop expression reads a live variable. (The pattern's own `var` is
/// irrelevant — `node_matches` never consults it; the bound-variable
/// equality check stays per state, outside the memo.)
fn node_shareable(np: &NodePattern, live: &HashSet<String>) -> bool {
    live.is_empty() || none_live(&node_reads(np), live)
}
