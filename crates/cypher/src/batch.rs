//! The pattern matcher: a streaming stage pipeline (planner v4).
//!
//! Every `MATCH`, `OPTIONAL MATCH`, `EXISTS`, `MERGE` and fused top-k
//! re-match runs here. Planning reads whether a name is bound, and the
//! values of `plan_reads` only (labels, inline props and pushed operands
//! over seed variables), so a chunk of seed rows is planned by
//! `plan_patterns` **once per run** of consecutive seeds that bind the
//! same names and hold equal values for those. Each run is a *group* with
//! one plan, and its rows flow through **operator stages** together: one
//! seed stage per planned path, one expand stage per segment, then the
//! residual `WHERE`. So a stage can share work across the group:
//!
//! * the **seed candidate vector** is computed once when the path's access
//!   decision cannot observe a binding any seed row carries;
//! * **hop expansions are memoized per source node** when the relationship
//!   pattern is seed-independent — a star join whose rows fan into one hub
//!   scans (and decides index-vs-adjacency for) the hub once per stage;
//! * when the **node test** is seed-independent too, what is shared keeps
//!   only the candidates that pass it, so a state that reuses a hub's
//!   expansion checks relationship uniqueness and nothing else.
//!
//! Sharing is gated on a **liveness analysis**: a stage shares only if
//! none of the names its decision reads (pattern variables,
//! transition-variable labels, free variables of inline props and pushed
//! operands) is bound in *any* row of the group at that stage. The live set
//! is static — the seed rows' names plus every pattern variable already
//! traversed — so a gate costs O(pattern), not O(group). An operand that
//! reads a name bound in no row fails evaluation identically for every
//! row, so the per-row fallbacks agree too. A group of one —
//! every trigger condition, `EXISTS`, `MERGE`, and every seed under
//! [`MatchMode::Reference`], which also plans every seed on its own —
//! shares nothing and builds no live set or memo.
//!
//! **Streaming.** A stage hands its output on every [`CHUNK_ROWS`] partial
//! matches, and that slice is drained through every later stage before the
//! stage continues; the last stage hands each match straight to the
//! `WHERE` and the caller's `Sink`, or, when the sink folds it, each
//! state's accepted candidates at once. So a hub join holds at most one chunk
//! per stage, and everything stops as soon as the callback breaks (a
//! satisfied `LIMIT`, an `EXISTS` with its first match, a top-k walk with
//! its rows).
//!
//! **Order.** Stages process rows in order and drain each slice before
//! producing the next, so matches arrive in seed order and, per seed, in
//! the lexicographic order of per-level candidate indices: a depth-first
//! walk's order. A variable-length segment is one stage whose depth-first
//! frontier emits its completions in pop order. Sharing never reorders:
//! [`MatchMode::Batched`] and [`MatchMode::Reference`] agree row for row,
//! which the executor twin in `tests/differential.rs` checks.

use crate::ast::{Expr, NodePattern, PathPattern, RelPattern};
use crate::error::Result;
use crate::exec::{Flow, MatchMode, CHUNK_ROWS};
use crate::expr::{eval, EvalCtx};
use crate::pattern::{
    hop_candidates, node_reads, plan_patterns, plan_reads, rel_reads, seed_reads, start_candidates,
    MatchState, NodeTest, Pushdowns,
};
use crate::physical::PhysicalPathPlan;
use crate::row::Row;
use pg_graph::{Hop, IdHashMap, NodeId, RelId, Value};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashSet;

/// Where finished matches go.
pub(crate) trait Sink {
    /// One match, and the index of the seed row it extends.
    fn row(&mut self, si: usize, row: Row) -> Result<Flow>;

    /// Whether [`Sink::fold`] takes the matches of a last single hop
    /// binding `vars`, its relationship's and its node's. A fold skips the
    /// `WHERE`, so only the sink of a `MATCH` without one may.
    fn folds(&self, _vars: [Option<&String>; 2]) -> bool {
        false
    }

    /// The matches of seed `si` extending `row` by each of `cands`, in
    /// order (at least one), `vars` unbound in `row`.
    fn fold(
        &mut self,
        _si: usize,
        _row: &Row,
        _vars: [Option<&String>; 2],
        _cands: &[(RelId, NodeId)],
    ) -> Result<Flow> {
        unreachable!("a sink that folds nothing is handed no fold")
    }
}

impl<F: FnMut(usize, Row) -> Result<Flow>> Sink for F {
    fn row(&mut self, si: usize, row: Row) -> Result<Flow> {
        self(si, row)
    }
}

/// Match `patterns` for every seed row, handing each match to `sink` with
/// its seed's index (the caller owns `OPTIONAL MATCH` null-binding, which
/// is a per-seed decision) until `sink` breaks. Matches arrive in seed
/// order. Planning reads whether a name is bound, and the values of
/// [`plan_reads`] only, so under [`MatchMode::Batched`] a run of
/// consecutive seeds that bind the same names and hold equal values for
/// those is one group with one plan; under [`MatchMode::Reference`] every
/// seed is its own. `pushed` is [`crate::pattern::extract_pushdowns`] of
/// `where_clause`. The executor passes at most [`CHUNK_ROWS`] seeds.
pub(crate) fn match_patterns_batch(
    ctx: &EvalCtx<'_>,
    seeds: &[Row],
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    pushed: &Pushdowns,
    mode: MatchMode,
    sink: &mut dyn Sink,
) -> Result<Flow> {
    let batched = mode == MatchMode::Batched && seeds.len() > 1;
    let reads = if batched {
        plan_reads(patterns, pushed)
    } else {
        Vec::new()
    };
    let plans_alike = |a: &Row, b: &Row| {
        batched && a.names().eq(b.names()) && reads.iter().all(|n| a.get(n) == b.get(n))
    };
    let mut i = 0;
    while i < seeds.len() {
        let mut j = i + 1;
        while j < seeds.len() && plans_alike(&seeds[i], &seeds[j]) {
            j += 1;
        }
        let group = Group {
            ctx,
            base: i,
            plans: plan_patterns(ctx, &seeds[i], patterns, pushed),
            where_clause,
            pushed,
        };
        if group.run(&seeds[i..j], sink)?.is_break() {
            return Ok(Flow::Break(()));
        }
        i = j;
    }
    Ok(Flow::Continue(()))
}

/// The most relationships a variable-length segment without an upper
/// bound (`*`, `*2..`) walks. A trail is relationship-unique, so it cannot
/// be longer than the relationships it may traverse; the cap bounds the
/// frontier on a graph larger than that, and no `MATCH` of the paper's §6
/// triggers comes near it.
const VAR_LENGTH_MAX_HOPS: u32 = 64;

/// A run of seed rows that plan alike, the first at `base` in the chunk,
/// and their one plan.
struct Group<'g, 'c> {
    ctx: &'g EvalCtx<'c>,
    base: usize,
    plans: Vec<PhysicalPathPlan>,
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
    /// What is shared is also the node test's verdict: it holds only the
    /// candidates that pass. Set when the test is row-independent too, on
    /// a seed stage or a single hop (a variable-length memo holds every
    /// hop of the walk); cleared when a hop's test fails to evaluate, so
    /// the error surfaces only where the per-state test would raise it.
    accept: bool,
    /// Expand stage: no relationship an earlier segment of the `MATCH`
    /// binds can be among this hop's candidates, so relationship
    /// uniqueness rejects none of them ([`types_disjoint`]).
    fresh: bool,
    /// The shared seed candidates, computed from the first state to arrive.
    shared: Option<Vec<NodeId>>,
    memo: IdHashMap<NodeId, Vec<Hop>>,
}

impl Stage {
    fn new(path: usize, seg: Option<usize>, share: bool, accept: bool, fresh: bool) -> Stage {
        Stage {
            path,
            seg,
            share,
            accept: share && accept,
            fresh,
            shared: None,
            memo: IdHashMap::default(),
        }
    }
}

impl<'c> Group<'_, 'c> {
    /// Stage-wise execution: one seed stage and one expand stage per
    /// segment for each planned path, then the residual `WHERE`.
    fn run(&self, seeds: &[Row], sink: &mut dyn Sink) -> Result<Flow> {
        // Each stage's gates are decided from the live set as it stands
        // before the stage: an unbound position binds unconditionally, so
        // after its stage its name is live in every surviving state.
        let mut live: Option<HashSet<String>> = (seeds.len() > 1).then(|| {
            let mut live = HashSet::new();
            for name in seeds.iter().flat_map(Row::names) {
                if !live.contains(name) {
                    live.insert(name.to_string());
                }
            }
            live
        });
        let (mut stages, pushed) = (Vec::new(), self.pushed);
        for (pi, plan) in self.plans.iter().enumerate() {
            let path = &plan.path;
            let share = shareable(&live, || seed_reads(path, pushed));
            let nodes = shareable(&live, || node_reads(&path.start));
            stages.push(Stage::new(pi, None, share, nodes, false));
            extend_live(&mut live, [&path.start.var]);
            for (k, (rel_pat, node_pat)) in path.segments.iter().enumerate() {
                let share = shareable(&live, || rel_reads(rel_pat, pushed));
                let nodes = rel_pat.hops.is_none() && shareable(&live, || node_reads(node_pat));
                let fresh = types_disjoint(&self.plans, pi, k);
                stages.push(Stage::new(pi, Some(k), share, nodes, fresh));
                extend_live(&mut live, [&rel_pat.var, &node_pat.var]);
            }
        }
        let states = seeds.iter().enumerate();
        let states = states.map(|(si, s)| (si, MatchState::new(s.clone()), NodeId(0)));
        self.drain(&mut stages, &mut states.collect(), sink)
    }

    /// Run `input` through `stages[0]`, handing its output on to the rest
    /// every [`CHUNK_ROWS`] states so no stage holds a whole fan-out. Leaves
    /// `input` empty, its buffer kept for the caller's next slice.
    fn drain(
        &self,
        stages: &mut [Stage],
        input: &mut Vec<Partial>,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let ctx = self.ctx;
        let Some((stage, rest)) = stages.split_first_mut() else {
            // An empty pattern list: every seed is a match.
            for partial in input.drain(..) {
                if self
                    .hand_on(&mut [], &mut Vec::new(), partial, sink)?
                    .is_break()
                {
                    return Ok(Flow::Break(()));
                }
            }
            return Ok(Flow::Continue(()));
        };
        let plan = &self.plans[stage.path];
        let path = &plan.path;
        let mut out: Vec<Partial> = Vec::new();
        let mut folded: Vec<Hop> = Vec::new();
        for (si, st, at) in input.drain(..) {
            match stage.seg {
                // ---- Seed stage: each state materializes the group's plan ----
                None => {
                    let test = NodeTest::new(&st.row, &path.start);
                    let seed = || start_candidates(ctx, &st.row, plan, self.pushed);
                    if stage.share && stage.shared.is_none() {
                        let mut cands = seed()?;
                        if stage.accept {
                            retain_accepted(ctx, &st.row, &test, &mut cands, |&n| n)?;
                        }
                        stage.shared = Some(cands);
                    }
                    let owned;
                    let cands: &[NodeId] = match &stage.shared {
                        Some(c) => c,
                        None => {
                            owned = seed()?;
                            &owned
                        }
                    };
                    for &cand in cands {
                        if !stage.accept && !test.matches(ctx, &st.row, cand)? {
                            continue;
                        }
                        let mut st2 = st.fork(&[&path.start.var]);
                        if st2.bind(path.start.var.as_ref(), Value::Node(cand)) {
                            let partial = (si, st2, cand);
                            if self.hand_on(rest, &mut out, partial, sink)?.is_break() {
                                return Ok(Flow::Break(()));
                            }
                        }
                    }
                }
                // ---- Expand stage: a variable-length segment ----
                Some(k) if path.segments[k].0.hops.is_some() => {
                    let flow = self.expand_var_length(stage, rest, (si, st, at), &mut out, sink)?;
                    if flow.is_break() {
                        return Ok(Flow::Break(()));
                    }
                }
                // ---- Expand stage: one hop of the path ----
                Some(k) => {
                    let (rel_pat, node_pat) = &path.segments[k];
                    let vars = [rel_pat.var.as_ref(), node_pat.var.as_ref()];
                    let bound = |v: &String| st.row.contains(v);
                    let fold = rest.is_empty()
                        && last_hop_folds(&path.segments[k], bound, |vs| sink.folds(vs));
                    folded.clear();
                    let test = NodeTest::new(&st.row, node_pat);
                    let fresh = stage.fresh;
                    let (hops, accepted) = self.hops(stage, &st.row, at, rel_pat, &test)?;
                    // Every shared candidate passed the node test and none
                    // can be a relationship the state used: the fold takes
                    // the memoized list as it is.
                    if fold && accepted && fresh {
                        if !hops.is_empty()
                            && sink.fold(self.base + si, &st.row, vars, &hops)?.is_break()
                        {
                            return Ok(Flow::Break(()));
                        }
                        continue;
                    }
                    for (rid, other) in hops.iter() {
                        if st.used.contains(rid)
                            || !accepted && !test.matches(ctx, &st.row, *other)?
                        {
                            continue;
                        }
                        if fold {
                            folded.push((*rid, *other));
                            continue;
                        }
                        let mut st2 = st.fork(&[&rel_pat.var, &node_pat.var]);
                        st2.used.push(*rid);
                        if st2.bind(rel_pat.var.as_ref(), Value::Rel(*rid))
                            && st2.bind(node_pat.var.as_ref(), Value::Node(*other))
                        {
                            let partial = (si, st2, *other);
                            if self.hand_on(rest, &mut out, partial, sink)?.is_break() {
                                return Ok(Flow::Break(()));
                            }
                        }
                    }
                    if fold
                        && !folded.is_empty()
                        && sink
                            .fold(self.base + si, &st.row, vars, &folded)?
                            .is_break()
                    {
                        return Ok(Flow::Break(()));
                    }
                }
            }
        }
        if out.is_empty() {
            return Ok(Flow::Continue(()));
        }
        self.drain(rest, &mut out, sink)
    }

    /// A variable-length segment from one state: a depth-first frontier of
    /// relationship-unique trails from `at`, each of length in the
    /// segment's bounds (at most [`VAR_LENGTH_MAX_HOPS`] when unbounded)
    /// that ends on a matching node completing the segment — in pop order,
    /// handed on like any stage output. The trail binds the relationship
    /// variable as a list, in the text's order, through
    /// [`MatchState::bind`], so a variable bound earlier must equal it.
    fn expand_var_length(
        &self,
        stage: &mut Stage,
        rest: &mut [Stage],
        (si, st, at): Partial,
        out: &mut Vec<Partial>,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        let plan = &self.plans[stage.path];
        let (rel_pat, node_pat) = &plan.path.segments[stage.seg.expect("an expand stage")];
        let (min, max) = rel_pat.hops.expect("a variable-length segment");
        let max = max.unwrap_or(VAR_LENGTH_MAX_HOPS);
        let test = NodeTest::new(&st.row, node_pat);
        let mut frontier: Vec<(NodeId, Vec<RelId>)> = vec![(at, Vec::new())];
        while let Some((node, rels)) = frontier.pop() {
            let depth = rels.len() as u32;
            if depth >= min && test.matches(self.ctx, &st.row, node)? {
                let mut st2 = st.fork(&[&rel_pat.var, &node_pat.var]);
                rels.iter().for_each(|&r| st2.used.push(r));
                let trail = || {
                    let mut trail: Vec<Value> = rels.iter().map(|&r| Value::Rel(r)).collect();
                    if plan.reversed {
                        trail.reverse();
                    }
                    Value::List(trail)
                };
                let var = rel_pat.var.as_ref();
                if var.is_none_or(|v| st2.bind(Some(v), trail()))
                    && st2.bind(node_pat.var.as_ref(), Value::Node(node))
                    && self.hand_on(rest, out, (si, st2, node), sink)?.is_break()
                {
                    return Ok(Flow::Break(()));
                }
            }
            if depth < max {
                for (rid, other) in self.hops(stage, &st.row, node, rel_pat, &test)?.0.iter() {
                    if !rels.contains(rid) && !st.used.contains(rid) {
                        let mut rels2 = rels.clone();
                        rels2.push(*rid);
                        frontier.push((*other, rels2));
                    }
                }
            }
        }
        Ok(Flow::Continue(()))
    }

    /// [`hop_candidates`] from `at`, memoized per source node when the
    /// stage shares them, and whether they all passed `test` already (the
    /// stage accepts).
    fn hops<'m>(
        &self,
        stage: &'m mut Stage,
        row: &Row,
        at: NodeId,
        rel_pat: &RelPattern,
        test: &NodeTest<'_>,
    ) -> Result<(Cow<'m, [Hop]>, bool)>
    where
        'c: 'm,
    {
        let hop = || hop_candidates(self.ctx, row, at, rel_pat, self.pushed);
        if !stage.share {
            return Ok((hop()?, false));
        }
        let entry = match stage.memo.entry(at) {
            Entry::Occupied(e) => return Ok((Cow::Borrowed(e.into_mut()), stage.accept)),
            Entry::Vacant(e) => e,
        };
        let mut hops = hop()?.into_owned();
        if stage.accept && retain_accepted(self.ctx, row, test, &mut hops, |&(_, n)| n).is_err() {
            // The state may have used every relationship whose test errors,
            // so test per state from now on; that keeps the lists
            // memoized so far whole, since each of them passed.
            stage.accept = false;
            hops = hop()?.into_owned();
        }
        Ok((Cow::Borrowed(entry.insert(hops)), stage.accept))
    }

    /// Hand one output of a stage on: into `out`, drained through `rest`
    /// once it holds a chunk — or, when no stage follows, as a complete
    /// match through the residual `WHERE` to the callback.
    fn hand_on(
        &self,
        rest: &mut [Stage],
        out: &mut Vec<Partial>,
        (si, st, at): Partial,
        sink: &mut dyn Sink,
    ) -> Result<Flow> {
        if !rest.is_empty() {
            out.push((si, st, at));
            if out.len() < CHUNK_ROWS {
                return Ok(Flow::Continue(()));
            }
            return self.drain(rest, out, sink);
        }
        if let Some(w) = self.where_clause {
            if !eval(self.ctx, &st.row, w)?.is_truthy() {
                return Ok(Flow::Continue(()));
            }
        }
        sink.row(self.base + si, st.row)
    }
}

/// Whether a `MATCH`'s last hop `seg` hands the sink each state's
/// candidates at once: one hop, no variable `bound` (binding one would test
/// equality), and the sink `folds` it. The executor and `EXPLAIN` ask it.
pub(crate) fn last_hop_folds(
    (rel_pat, node_pat): &(RelPattern, NodePattern),
    bound: impl Fn(&String) -> bool,
    folds: impl FnOnce([Option<&String>; 2]) -> bool,
) -> bool {
    let vars = [rel_pat.var.as_ref(), node_pat.var.as_ref()];
    rel_pat.hops.is_none() && !vars.into_iter().flatten().any(bound) && folds(vars)
}

/// Whether segment `k` of plan `pi` can take no relationship an earlier
/// segment of the `MATCH` (in stage order) binds: there is none, or every
/// one is typed with types disjoint from the segment's own, which it has.
/// Each bound relationship has one of its segment's types, so
/// relationship uniqueness can then reject none of the segment's
/// candidates.
fn types_disjoint(plans: &[PhysicalPathPlan], pi: usize, k: usize) -> bool {
    let types = &plans[pi].path.segments[k].0.types;
    let mut earlier = (plans[..pi].iter().flat_map(|p| &p.path.segments))
        .chain(&plans[pi].path.segments[..k])
        .map(|(rel_pat, _)| &rel_pat.types)
        .peekable();
    earlier.peek().is_none()
        || !types.is_empty()
            && earlier.all(|e| !e.is_empty() && e.iter().all(|t| !types.contains(t)))
}

/// Keep the candidates whose node passes `test`, or fail with the first
/// error it raises. A row-independent test reads no binding of the
/// candidate, so an error is raised by every candidate that gets as far
/// as the failing check: none passes before it.
fn retain_accepted<T>(
    ctx: &EvalCtx<'_>,
    row: &Row,
    test: &NodeTest<'_>,
    cands: &mut Vec<T>,
    node: impl Fn(&T) -> NodeId,
) -> Result<()> {
    let mut first = Ok(());
    cands.retain(|c| {
        first.is_ok()
            && test.matches(ctx, row, node(c)).unwrap_or_else(|e| {
                first = Err(e);
                false
            })
    });
    first
}

/// Whether what a stage decides from the names `reads` returns (a seed
/// access, a hop expansion or a node check) is row-independent across the
/// group: none of them is live. A group of one (no live set) shares
/// nothing.
fn shareable(live: &Option<HashSet<String>>, reads: impl FnOnce() -> Vec<String>) -> bool {
    live.as_ref()
        .is_some_and(|live| live.is_empty() || reads().iter().all(|n| !live.contains(n)))
}

/// Add the pattern variables a stage binds to the live set, if any.
fn extend_live<const N: usize>(live: &mut Option<HashSet<String>>, vars: [&Option<String>; N]) {
    if let Some(live) = live {
        live.extend(vars.into_iter().flatten().cloned());
    }
}
