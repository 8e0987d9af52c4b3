//! Batch-at-a-time pattern matching (planner v4).
//!
//! The reference executor ([`crate::pattern::match_patterns`]) recurses
//! one seed row at a time: each seed plans its join order, materializes
//! its seeds and walks its own DFS. This module plans each seed the same
//! way — once per chunk of at most [`CHUNK_ROWS`] seed rows the executor
//! hands it, with the same `plan_patterns` — and then runs **operator
//! stages over candidate batches**: all seed rows whose planned paths
//! agree (a *group*) advance together through one `Seed` stage and one
//! `Expand` stage per segment, so stage-level work can be shared across
//! the whole group:
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
//! **Streaming.** The stages do not hand whole batches on: a stage passes
//! its output to the next every [`CHUNK_ROWS`] partial matches, and that
//! slice is drained through every later stage — down to the executor's
//! callback — before the stage continues. No stage holds a whole fan-out:
//! a hub join holds at most one chunk per stage, and stops as soon as the
//! callback breaks (a satisfied `LIMIT`). The seed candidate vector and
//! the memo tables live for the whole group, so sharing is what it was.
//!
//! **Equivalence to the reference executor** (exercised by the
//! differential fuzzer's executor-twin panel): stages process rows in
//! order, append candidates in enumeration order, and drain each slice
//! before producing the next, so the leaf order equals the reference DFS
//! leaf order — both are the lexicographic order of per-level candidate
//! indices. Variable-length segments do not batch (their DFS interleaves
//! depths); a plan group containing one hands each seed's plan to the
//! reference matcher, as does a singleton group (nothing to share), and
//! emits that seed's matches in turn.

use crate::ast::{Expr, NodePattern, PathPattern, RelPattern};
use crate::error::Result;
use crate::exec::{Flow, CHUNK_ROWS};
use crate::expr::{eval, EvalCtx};
use crate::pattern::{
    hop_candidates, match_planned, node_matches, node_reads, plan_patterns, rel_reads, seed_reads,
    start_candidates, MatchState, Pushdowns,
};
use crate::physical::PhysicalPathPlan;
use crate::row::Row;
use pg_graph::{NodeId, RelId, Value};
use std::collections::{HashMap, HashSet};

/// Where finished matches go: the index of the seed row a match extends,
/// and the match.
pub(crate) type Emit<'e> = dyn FnMut(usize, Row) -> Result<Flow> + 'e;

/// Match `patterns` for every seed row, handing each match to `emit` with
/// its seed's index (the caller owns `OPTIONAL MATCH` null-binding, which
/// is a per-seed decision) until `emit` breaks. Row-for-row and in order
/// identical to calling [`crate::pattern::match_patterns`] on each seed;
/// batches only where sharing is sound. `pushed` is
/// [`crate::pattern::extract_pushdowns`] of `where_clause`. The executor
/// passes at most [`CHUNK_ROWS`] seeds, so their plans are one chunk's.
pub(crate) fn match_patterns_batch(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
    emit: &mut Emit<'_>,
) -> Result<Flow> {
    let plans: Vec<Vec<PhysicalPathPlan>> = seeds
        .iter()
        .map(|s| plan_patterns(ctx, s, patterns, pushed))
        .collect();
    // Seeds batch together when their planned *paths* agree; each keeps
    // its own seed accesses, which may carry values of its own row.
    let same_paths = |a: &[PhysicalPathPlan], b: &[PhysicalPathPlan]| {
        a.iter().map(|p| &p.path).eq(b.iter().map(|p| &p.path))
    };
    let mut i = 0;
    while i < seeds.len() {
        let mut j = i + 1;
        while j < seeds.len() && same_paths(&plans[j], &plans[i]) {
            j += 1;
        }
        let var_length = plans[i]
            .iter()
            .any(|p| p.path.segments.iter().any(|(r, _)| r.hops.is_some()));
        if j - i == 1 || var_length {
            for (si, planned) in (i..j).zip(&plans[i..j]) {
                let rows = match_planned(ctx, &seeds[si], planned, where_clause, pushed, None)?;
                for row in rows {
                    if emit(si, row)?.is_break() {
                        return Ok(Flow::Break(()));
                    }
                }
            }
        } else {
            let group = Group {
                ctx,
                base: i,
                plans: &plans[i..j],
                where_clause,
                pushed,
            };
            if group.run(&seeds[i..j], emit)?.is_break() {
                return Ok(Flow::Break(()));
            }
        }
        i = j;
    }
    Ok(Flow::Continue(()))
}

/// A batch of seed rows whose plans (`plans[i]` is seed `base + i`'s) share
/// one planned path list.
struct Group<'g, 'c> {
    ctx: &'g EvalCtx<'c>,
    base: usize,
    plans: &'g [Vec<PhysicalPathPlan>],
    where_clause: Option<&'g Expr>,
    pushed: &'g Pushdowns,
}

/// An in-progress match: its seed's index in the group, the state, and the
/// node the path walk is at (meaningless before a path's first node).
type Partial = (usize, MatchState, NodeId);

/// One stage of a group: the seed access of planned path `path`
/// (`seg: None`) or the expansion of its segment `seg`, with what it
/// shares across the whole group.
struct Stage {
    path: usize,
    seg: Option<usize>,
    /// Seed stage: the candidate vector is row-independent. Expand stage:
    /// hop expansions are memoized per source node.
    share: bool,
    /// The shared seed candidates, computed from the first state to arrive.
    shared: Option<Vec<NodeId>>,
    memo: HashMap<NodeId, Vec<(RelId, NodeId)>>,
    /// Target-node checks, decided once per node when row-independent.
    nmemo: Option<HashMap<NodeId, bool>>,
}

impl Stage {
    fn new(path: usize, seg: Option<usize>, share: bool, node_shared: bool) -> Stage {
        Stage {
            path,
            seg,
            share,
            shared: None,
            memo: HashMap::new(),
            nmemo: node_shared.then(HashMap::new),
        }
    }
}

impl Group<'_, '_> {
    /// Stage-wise execution: one seed stage and one expand stage per
    /// segment for each planned path, then the residual `WHERE`.
    fn run(&self, seeds: &[Row], emit: &mut Emit<'_>) -> Result<Flow> {
        // The static live set: names bound in any seed row, extended with
        // every pattern variable as its position is traversed (an unbound
        // position binds unconditionally, so after its stage the name is
        // live in every surviving state). Each stage's gates are decided
        // from the set as it stands before the stage.
        let mut live: HashSet<String> = HashSet::new();
        for name in seeds.iter().flat_map(Row::names) {
            if !live.contains(name) {
                live.insert(name.to_string());
            }
        }
        let mut stages = Vec::new();
        for (pi, plan) in self.plans[0].iter().enumerate() {
            let path = &plan.path;
            let share = start_shareable(path, self.pushed, &live);
            stages.push(Stage::new(
                pi,
                None,
                share,
                node_shareable(&path.start, &live),
            ));
            live.extend(path.start.var.clone());
            for (k, (rel_pat, node_pat)) in path.segments.iter().enumerate() {
                let memoize = hop_shareable(rel_pat, self.pushed, &live);
                stages.push(Stage::new(
                    pi,
                    Some(k),
                    memoize,
                    node_shareable(node_pat, &live),
                ));
                live.extend(rel_pat.var.clone());
                live.extend(node_pat.var.clone());
            }
        }
        let states = seeds.iter().enumerate();
        let states = states.map(|(si, s)| (si, MatchState::new(s.clone()), NodeId(0)));
        self.drain(&mut stages, &mut states.collect(), emit)
    }

    /// Run `input` through `stages[0]`, handing its output on to the rest
    /// every [`CHUNK_ROWS`] states so no stage holds a whole fan-out. Each
    /// stage processes its input in order and every slice is drained before
    /// the next is produced, so leaves arrive in the lexicographic order of
    /// per-level candidate indices — the reference DFS order. Leaves
    /// `input` empty, its buffer kept for the caller's next slice.
    fn drain(
        &self,
        stages: &mut [Stage],
        input: &mut Vec<Partial>,
        emit: &mut Emit<'_>,
    ) -> Result<Flow> {
        let ctx = self.ctx;
        let Some((stage, rest)) = stages.split_first_mut() else {
            // ---- Filter stage: the residual WHERE ----
            for (si, st, _) in input.drain(..) {
                if let Some(w) = self.where_clause {
                    if !eval(ctx, &st.row, w)?.is_truthy() {
                        continue;
                    }
                }
                if emit(self.base + si, st.row)?.is_break() {
                    return Ok(Flow::Break(()));
                }
            }
            return Ok(Flow::Continue(()));
        };
        let path = &self.plans[0][stage.path].path;
        let mut out: Vec<Partial> = Vec::new();
        for (si, st, at) in input.drain(..) {
            match stage.seg {
                // ---- Seed stage: each state materializes its seed's plan ----
                None => {
                    let plan = &self.plans[si][stage.path];
                    if stage.share && stage.shared.is_none() {
                        stage.shared = Some(start_candidates(ctx, &st.row, plan, self.pushed)?);
                    }
                    let owned;
                    let cands: &[NodeId] = match &stage.shared {
                        Some(c) => c,
                        None => {
                            owned = start_candidates(ctx, &st.row, plan, self.pushed)?;
                            &owned
                        }
                    };
                    for &cand in cands {
                        if !node_ok(ctx, &st.row, cand, &path.start, &mut stage.nmemo)? {
                            continue;
                        }
                        let mut st2 = st.fork(&[&path.start.var]);
                        if st2.bind(path.start.var.as_ref(), Value::Node(cand)) {
                            out.push((si, st2, cand));
                            if self.flush_full(rest, &mut out, emit)?.is_break() {
                                return Ok(Flow::Break(()));
                            }
                        }
                    }
                }
                // ---- Expand stage: one hop of the path ----
                Some(k) => {
                    let (rel_pat, node_pat) = &path.segments[k];
                    if stage.share && !stage.memo.contains_key(&at) {
                        let c = hop_candidates(ctx, &st.row, at, rel_pat, self.pushed)?;
                        stage.memo.insert(at, c);
                    }
                    let owned;
                    let cands: &[(RelId, NodeId)] = if stage.share {
                        &stage.memo[&at]
                    } else {
                        owned = hop_candidates(ctx, &st.row, at, rel_pat, self.pushed)?;
                        &owned
                    };
                    for (rid, other) in cands {
                        if st.used.contains(rid)
                            || !node_ok(ctx, &st.row, *other, node_pat, &mut stage.nmemo)?
                        {
                            continue;
                        }
                        let mut st2 = st.fork(&[&rel_pat.var, &node_pat.var]);
                        st2.used.push(*rid);
                        if st2.bind(rel_pat.var.as_ref(), Value::Rel(*rid))
                            && st2.bind(node_pat.var.as_ref(), Value::Node(*other))
                        {
                            out.push((si, st2, *other));
                            if self.flush_full(rest, &mut out, emit)?.is_break() {
                                return Ok(Flow::Break(()));
                            }
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            return Ok(Flow::Continue(()));
        }
        self.drain(rest, &mut out, emit)
    }

    /// Drain `out` through `rest` once it holds a chunk.
    fn flush_full(
        &self,
        rest: &mut [Stage],
        out: &mut Vec<Partial>,
        emit: &mut Emit<'_>,
    ) -> Result<Flow> {
        if out.len() < CHUNK_ROWS {
            return Ok(Flow::Continue(()));
        }
        self.drain(rest, out, emit)
    }
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
