//! Subgraph-isomorphism matching of [`Pattern`]s over a [`Graph`].
//!
//! The matcher is a VF2-style backtracking search. Candidates for a
//! labelled variable come from the graph's per-label node index. Two
//! optimizations carry the paper's "efficient" claim, each switchable via
//! [`MatchConfig`] for the F5 ablation:
//!
//! - **connected join order** — pattern variables are ordered by estimated
//!   candidate count, preferring variables adjacent to the matched prefix,
//!   so extension candidates come from adjacency lists;
//! - **attribute-index joins** — an equality join against a bound variable
//!   takes its candidates from the graph's (key, value) index.
//!
//! Negative edges and attribute constraints are verified as early as their
//! variables are bound. Matches are injective. [`Matcher::find_touching`]
//! is the delta-driven entry point used by the incremental repair engine:
//! it enumerates exactly the matches whose image intersects a given node
//! set, without duplicates.

use crate::pattern::{CmpOp, Constraint, Pattern, Rhs, Var};
use crate::plan::Planner;
use grepair_obs as obs;
use grepair_graph::{AttrKeyId, Direction, EdgeId, Graph, LabelId, NodeId, Value};
use rustc_hash::FxHashSet;
use std::fmt;
use std::sync::Arc;

/// Matcher feature toggles (both on by default; `naive()` turns both off).
#[derive(Clone, Copy, Debug)]
pub struct MatchConfig {
    /// Order the join by candidate count and connectivity (off = declaration
    /// order, candidates from the label index).
    pub connected_order: bool,
    /// Use the graph's (key, value) index to anchor equality joins
    /// (`x.k == y.k2` with one side bound) — turns pairwise dedup patterns
    /// from O(|V|²) into O(|V|·bucket).
    pub use_attr_index: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            connected_order: true,
            use_attr_index: true,
        }
    }
}

impl MatchConfig {
    /// Both optimizations disabled — the naive baseline engine.
    pub fn naive() -> Self {
        Self {
            connected_order: false,
            use_attr_index: false,
        }
    }
}

/// One match: an injective assignment of pattern variables to nodes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Match {
    /// Matched node per pattern variable (indexed by `Var::index()`).
    pub nodes: Vec<NodeId>,
    /// Witness edge per positive pattern edge (first found).
    pub edges: Vec<EdgeId>,
}

/// Node-set of elements touched by recent mutations; anchors incremental
/// re-matching.
pub type TouchSet = FxHashSet<NodeId>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LabelReq {
    Any,
    /// Required label is not interned in this graph: unmatchable.
    Unsatisfiable,
    Is(LabelId),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeyReq {
    /// Key not interned in this graph: attribute is absent everywhere.
    Unknown,
    Is(AttrKeyId),
}

#[derive(Clone, Debug)]
enum CRhs {
    Const(Value),
    Attr(usize, KeyReq),
}

#[derive(Clone, Debug)]
enum CC {
    HasAttr(usize, KeyReq),
    MissingAttr(usize, KeyReq),
    Cmp {
        var: usize,
        key: KeyReq,
        op: CmpOp,
        rhs: CRhs,
    },
    /// `Some(None)` would be meaningless; label resolved or constraint is
    /// trivially true (dropped at compile).
    NoOutEdge(usize, Option<LabelId>),
    NoInEdge(usize, Option<LabelId>),
}

impl CC {
    fn vars(&self) -> Vec<usize> {
        match self {
            CC::HasAttr(v, _)
            | CC::MissingAttr(v, _)
            | CC::NoOutEdge(v, _)
            | CC::NoInEdge(v, _) => vec![*v],
            CC::Cmp { var, rhs, .. } => match rhs {
                CRhs::Const(_) => vec![*var],
                CRhs::Attr(o, _) => vec![*var, *o],
            },
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct CEdge {
    src: usize,
    dst: usize,
    label: LabelReq,
}

/// How one plan step obtains its candidate nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanAccess {
    /// Candidates restricted to the incremental touch set.
    Anchor,
    /// Initial candidates from the per-label node index.
    LabelIndex,
    /// Initial candidates from a full node scan (unlabelled variable).
    Scan,
    /// Candidates extended along a positive edge from a bound neighbor's
    /// adjacency list.
    Extension,
}

impl fmt::Display for PlanAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanAccess::Anchor => "anchor",
            PlanAccess::LabelIndex => "label-index",
            PlanAccess::Scan => "scan",
            PlanAccess::Extension => "extend",
        })
    }
}

/// One step of a compiled plan, for `explain`-style introspection. The
/// access path recorded here is the *planner's expectation*; the search
/// still chooses the cheapest available access dynamically per binding.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// Pattern variable bound at this step.
    pub var: usize,
    /// Expected candidate access path.
    pub access: PlanAccess,
    /// The variable's candidate count at compile time: its label's live
    /// nodes (all nodes when unlabelled), capped by the touch set for
    /// an anchor.
    pub estimate: f64,
}

/// One rendered step of [`Matcher::explain`] output.
#[derive(Clone, Debug)]
pub struct ExplainStep {
    /// Pattern variable name.
    pub var: String,
    /// Required node label, if any.
    pub label: Option<String>,
    /// Expected candidate access path.
    pub access: PlanAccess,
    /// The variable's candidate count (see [`PlanStep::estimate`]).
    pub estimate: f64,
}

/// The plan a [`Matcher`] would run for a pattern — see
/// [`Matcher::explain`].
#[derive(Clone, Debug)]
pub struct PlanExplanation {
    /// `false` when the pattern cannot match this graph at all (e.g. a
    /// required label is not in the vocabulary); `steps` is then empty.
    pub satisfiable: bool,
    /// Plan steps in execution order.
    pub steps: Vec<ExplainStep>,
    /// Accumulated cost bound: the sum of running products of the step
    /// estimates (partial matches entering each step). Only meaningful
    /// relative to other plans.
    pub estimated_cost: f64,
}

/// A pattern compiled against a specific graph's interners + an execution
/// plan. Rebuilt whenever the graph's label vocabulary could have changed
/// (cheap: proportional to pattern size); the [`Planner`]'s plan cache
/// avoids even that for repeated matching over a stable vocabulary.
pub(crate) struct Compiled {
    labels: Vec<LabelReq>,
    edges: Vec<CEdge>,
    neg_edges: Vec<CEdge>,
    constraints: Vec<CC>,
    /// Variable order of the search.
    plan: Vec<usize>,
    /// plan position of each var.
    pos: Vec<usize>,
    /// For each plan step: positive pattern-edge indices whose second
    /// endpoint is bound at this step.
    edge_checks: Vec<Vec<usize>>,
    /// For each plan step: negative pattern-edge indices ready at this step.
    neg_checks: Vec<Vec<usize>>,
    /// For each plan step: constraint indices ready at this step.
    con_checks: Vec<Vec<usize>>,
    /// Vars that must bind inside the touch set (incremental mode).
    anchor_var: Option<usize>,
    /// Vars that must bind OUTSIDE the touch set (dedup in incremental
    /// mode): all vars with index < anchor var.
    forbid_touched: Vec<bool>,
    /// Per-step planner expectations (indexed like `plan`), for `explain`.
    steps: Vec<PlanStep>,
}

/// Pattern matcher over a single [`Graph`].
pub struct Matcher<'g> {
    g: &'g Graph,
    cfg: MatchConfig,
    planner: Option<&'g Planner>,
    budget: Option<obs::Budget>,
}

/// Candidate batches between full [`obs::Budget::checkpoint`]
/// evaluations. The per-batch poll is a single relaxed load
/// ([`obs::Budget::is_tripped`]); every `BUDGET_POLL_PERIOD`th batch
/// additionally flushes the locally accumulated frontier charge and
/// reads the deadline clock — the same two-tier cost split the tracing
/// layer uses.
const BUDGET_POLL_PERIOD: u32 = 64;

/// Locally accumulated frontier rows that force a flush/checkpoint even
/// before the batch-count period elapses, so one huge candidate batch
/// cannot defer cap enforcement indefinitely. Match/frontier caps are
/// therefore enforced with a granularity of roughly this many rows.
const FRONTIER_FLUSH_ROWS: u64 = 1024;

impl<'g> Matcher<'g> {
    /// Matcher with default (fully optimized) configuration.
    pub fn new(g: &'g Graph) -> Self {
        Self {
            g,
            cfg: MatchConfig::default(),
            planner: None,
            budget: None,
        }
    }

    /// Matcher with explicit configuration.
    pub fn with_config(g: &'g Graph, cfg: MatchConfig) -> Self {
        Self {
            g,
            cfg,
            planner: None,
            budget: None,
        }
    }

    /// Matcher backed by a [`Planner`]: compiled plans are cached across
    /// calls and search-state allocations are pooled. Matching *results*
    /// are identical with or without a planner — only cost changes.
    ///
    /// The planner must be dedicated to this graph's lineage (the graph
    /// across mutations) — never shared between unrelated graphs; see
    /// [`crate::plan`].
    pub fn with_planner(g: &'g Graph, cfg: MatchConfig, planner: &'g Planner) -> Self {
        Self {
            g,
            cfg,
            planner: Some(planner),
            budget: None,
        }
    }

    /// Attach a runtime [`obs::Budget`]: enumeration loops poll it once
    /// per candidate batch (amortized per the two-tier cost model) and
    /// stop early when it trips. A tripped scan returns a *partial*
    /// match set — callers that need all-or-nothing semantics must
    /// check [`obs::Budget::is_tripped`] afterwards and discard, which
    /// is exactly what the repair engine's round-atomicity does.
    #[must_use]
    pub fn with_budget(mut self, budget: &obs::Budget) -> Self {
        self.budget = Some(budget.clone());
        self
    }

    /// Amortized guardrail poll, called once per candidate batch.
    /// Returns true when the search should stop. Flushes the state's
    /// locally accumulated frontier charge on full-checkpoint ticks so
    /// the hot path never touches the shared counters.
    #[inline]
    fn poll_budget(&self, st: &mut SearchState) -> bool {
        let Some(b) = &self.budget else {
            return false;
        };
        st.budget_tick = st.budget_tick.wrapping_add(1);
        if st.budget_tick.is_multiple_of(BUDGET_POLL_PERIOD)
            || st.frontier_acc >= FRONTIER_FLUSH_ROWS
        {
            if st.frontier_acc > 0 {
                b.charge_matches(std::mem::take(&mut st.frontier_acc));
            }
            b.checkpoint().is_some()
        } else {
            b.is_tripped()
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The matcher configuration packed into a cache-key byte.
    pub(crate) fn config_bits(&self) -> u8 {
        (self.cfg.connected_order as u8) | (self.cfg.use_attr_index as u8) << 1
    }

    /// Compile via the planner's cache when one is attached.
    fn compiled(
        &self,
        pattern: &Pattern,
        anchor: Option<usize>,
        touched: &TouchSet,
    ) -> Option<Arc<Compiled>> {
        match self.planner {
            Some(p) => p.compiled(self, pattern, anchor, touched),
            None => self.compile(pattern, anchor, touched).map(Arc::new),
        }
    }

    fn acquire_state(&self, n_vars: usize, n_edges: usize) -> SearchState {
        let mut st = self
            .planner
            .and_then(|p| p.pool_pop())
            .unwrap_or_default();
        st.reset(n_vars, n_edges);
        st
    }

    fn release_state(&self, st: SearchState) {
        if let Some(p) = self.planner {
            p.pool_push(st);
        }
    }

    /// All matches of `pattern`.
    pub fn find_all(&self, pattern: &Pattern) -> Vec<Match> {
        let _span = obs::span("match.find_all", "match");
        let started = obs::timer();
        let mut out = Vec::new();
        self.for_each_state(pattern, &mut |st| {
            out.push(st.to_match());
            true
        });
        obs::record_since_named("match.find_all_ns", started);
        obs::counter("match.matches_found").add(out.len() as u64);
        out
    }

    /// Up to `limit` matches.
    pub fn find_limited(&self, pattern: &Pattern, limit: usize) -> Vec<Match> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        self.for_each(pattern, |m| {
            out.push(m);
            out.len() < limit
        });
        out
    }

    /// Whether at least one match exists. Allocation-free: no [`Match`]
    /// is materialized for the probe.
    pub fn exists(&self, pattern: &Pattern) -> bool {
        let mut found = false;
        self.for_each_state(pattern, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Number of matches. Count-only emission path: the search never
    /// materializes a [`Match`] (no assignment/witness clones), it only
    /// bumps the counter at each complete assignment.
    pub fn count(&self, pattern: &Pattern) -> usize {
        let mut n = 0usize;
        self.for_each_state(pattern, &mut |_| {
            n += 1;
            true
        });
        n
    }

    /// Enumerate matches, stopping when `f` returns `false`.
    pub fn for_each(&self, pattern: &Pattern, mut f: impl FnMut(Match) -> bool) {
        self.for_each_state(pattern, &mut |st| f(st.to_match()));
    }

    /// Internal enumeration over borrowed search states: callers that
    /// only count or probe never pay for `Match` allocations.
    fn for_each_state(&self, pattern: &Pattern, f: &mut dyn FnMut(&SearchState) -> bool) {
        debug_assert!(pattern.validate().is_ok());
        let empty = TouchSet::default();
        if let Some(comp) = self.compiled(pattern, None, &empty) {
            self.run(&comp, f, &empty);
        }
    }

    /// Enumerate matches whose image intersects `touched`, without
    /// duplicates across anchor choices. Sound for mutation deltas where
    /// every affected node (endpoints of added/removed/relabelled edges,
    /// relabelled nodes, attr-changed nodes, merge survivors) is in
    /// `touched`.
    ///
    /// With a [`Planner`] attached, the per-anchor compiles — one per
    /// pattern variable per call, the dominant compile cost of the
    /// incremental engine — come from the plan cache.
    pub fn find_touching(&self, pattern: &Pattern, touched: &TouchSet) -> Vec<Match> {
        debug_assert!(pattern.validate().is_ok());
        let mut out = Vec::new();
        if touched.is_empty() {
            return out;
        }
        for anchor in 0..pattern.num_vars() {
            let Some(comp) = self.compiled(pattern, Some(anchor), touched) else {
                continue;
            };
            self.run(
                &comp,
                &mut |st| {
                    out.push(st.to_match());
                    true
                },
                touched,
            );
        }
        out
    }

    /// Explain the plan this matcher would run for `pattern`: variable
    /// order, expected access path and candidate count per step, and an
    /// accumulated cost bound.
    pub fn explain(&self, pattern: &Pattern) -> PlanExplanation {
        let empty = TouchSet::default();
        let Some(comp) = self.compiled(pattern, None, &empty) else {
            return PlanExplanation {
                satisfiable: false,
                steps: Vec::new(),
                estimated_cost: 0.0,
            };
        };
        let mut rows = 1.0f64;
        let mut total = 0.0f64;
        let steps = comp
            .steps
            .iter()
            .map(|s| {
                rows *= s.estimate.max(0.0);
                total += rows;
                ExplainStep {
                    var: pattern.var_name(Var(s.var as u8)).to_owned(),
                    label: pattern.nodes[s.var].label.clone(),
                    access: s.access,
                    estimate: s.estimate,
                }
            })
            .collect();
        PlanExplanation {
            satisfiable: true,
            steps,
            estimated_cost: total,
        }
    }

    // ---- compilation -----------------------------------------------------

    pub(crate) fn compile(
        &self,
        pattern: &Pattern,
        anchor_var: Option<usize>,
        touched: &TouchSet,
    ) -> Option<Compiled> {
        let g = self.g;
        let n = pattern.num_vars();
        let labels: Vec<LabelReq> = pattern
            .nodes
            .iter()
            .map(|pn| match &pn.label {
                None => LabelReq::Any,
                Some(name) => match g.try_label(name) {
                    Some(id) => LabelReq::Is(id),
                    None => LabelReq::Unsatisfiable,
                },
            })
            .collect();
        if labels.contains(&LabelReq::Unsatisfiable) {
            return None;
        }
        let resolve_edge = |e: &crate::pattern::PatternEdge| CEdge {
            src: e.src.index(),
            dst: e.dst.index(),
            label: match &e.label {
                None => LabelReq::Any,
                Some(name) => match g.try_label(name) {
                    Some(id) => LabelReq::Is(id),
                    None => LabelReq::Unsatisfiable,
                },
            },
        };
        let edges: Vec<CEdge> = pattern.edges.iter().map(resolve_edge).collect();
        // A positive edge with an unknown label can never match.
        if edges.iter().any(|e| e.label == LabelReq::Unsatisfiable) {
            return None;
        }
        // A negative edge with an unknown label is trivially satisfied.
        let neg_edges: Vec<CEdge> = pattern
            .neg_edges
            .iter()
            .map(resolve_edge)
            .filter(|e| e.label != LabelReq::Unsatisfiable)
            .collect();
        let resolve_key = |k: &str| match g.try_attr_key(k) {
            Some(id) => KeyReq::Is(id),
            None => KeyReq::Unknown,
        };
        let constraints: Vec<CC> = pattern
            .constraints
            .iter()
            .filter_map(|c| match c {
                Constraint::HasAttr(v, k) => Some(CC::HasAttr(v.index(), resolve_key(k))),
                Constraint::MissingAttr(v, k) => {
                    Some(CC::MissingAttr(v.index(), resolve_key(k)))
                }
                Constraint::Cmp { var, key, op, rhs } => Some(CC::Cmp {
                    var: var.index(),
                    key: resolve_key(key),
                    op: *op,
                    rhs: match rhs {
                        Rhs::Const(v) => CRhs::Const(v.clone()),
                        Rhs::Attr(o, k2) => CRhs::Attr(o.index(), resolve_key(k2)),
                    },
                }),
                // An unknown edge label cannot occur on any edge: the
                // no-edge condition is trivially true — drop it.
                Constraint::NoOutEdge(v, l) => match l {
                    None => Some(CC::NoOutEdge(v.index(), None)),
                    Some(name) => g.try_label(name).map(|id| CC::NoOutEdge(v.index(), Some(id))),
                },
                Constraint::NoInEdge(v, l) => match l {
                    None => Some(CC::NoInEdge(v.index(), None)),
                    Some(name) => g.try_label(name).map(|id| CC::NoInEdge(v.index(), Some(id))),
                },
            })
            .collect();

        let (plan, steps) = self.order_plan(n, &labels, &edges, anchor_var, touched);
        let mut pos = vec![0usize; n];
        for (i, &v) in plan.iter().enumerate() {
            pos[v] = i;
        }

        // Readiness schedules.
        let mut edge_checks = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            let step = pos[e.src].max(pos[e.dst]);
            edge_checks[step].push(i);
        }
        let mut neg_checks = vec![Vec::new(); n];
        for (i, e) in neg_edges.iter().enumerate() {
            let step = pos[e.src].max(pos[e.dst]);
            neg_checks[step].push(i);
        }
        let mut con_checks = vec![Vec::new(); n];
        for (i, c) in constraints.iter().enumerate() {
            let step = c.vars().into_iter().map(|v| pos[v]).max().unwrap_or(0);
            con_checks[step].push(i);
        }

        let mut forbid_touched = vec![false; n];
        if let Some(a) = anchor_var {
            for (v, f) in forbid_touched.iter_mut().enumerate() {
                *f = v < a;
            }
        }

        Some(Compiled {
            labels,
            edges,
            neg_edges,
            constraints,
            plan,
            pos,
            edge_checks,
            neg_checks,
            con_checks,
            anchor_var,
            forbid_touched,
            steps,
        })
    }

    /// The join order: anchor first, then greedily by live candidate
    /// count with a hard preference for variables adjacent to the
    /// matched prefix (declaration order when `connected_order` is off).
    /// Ties break on variable index, so a plan is a function of the
    /// pattern, the graph's label counts and the configuration.
    fn order_plan(
        &self,
        n: usize,
        labels: &[LabelReq],
        edges: &[CEdge],
        anchor_var: Option<usize>,
        touched: &TouchSet,
    ) -> (Vec<usize>, Vec<PlanStep>) {
        let g = self.g;
        let estimate = |v: usize| -> usize {
            let base = match labels[v] {
                LabelReq::Any => g.num_nodes(),
                LabelReq::Is(l) => g.count_nodes_with_label(l),
                LabelReq::Unsatisfiable => 0,
            };
            if anchor_var == Some(v) {
                base.min(touched.len())
            } else {
                base
            }
        };
        let root_access = |v: usize| match labels[v] {
            LabelReq::Is(_) => PlanAccess::LabelIndex,
            _ => PlanAccess::Scan,
        };
        let mut plan: Vec<usize> = Vec::with_capacity(n);
        let mut steps: Vec<PlanStep> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        if let Some(a) = anchor_var {
            plan.push(a);
            placed[a] = true;
            steps.push(PlanStep {
                var: a,
                access: PlanAccess::Anchor,
                estimate: estimate(a) as f64,
            });
        }
        let mut adj = vec![Vec::new(); n];
        for e in edges {
            adj[e.src].push(e.dst);
            adj[e.dst].push(e.src);
        }
        while plan.len() < n {
            let connected = |v: usize| adj[v].iter().any(|&u| placed[u]);
            let mut best: Option<usize> = None;
            #[allow(clippy::needless_range_loop)]
            for v in 0..n {
                if placed[v] {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) if !self.cfg.connected_order => {
                        // Declaration order in naive mode.
                        let _ = b;
                        false
                    }
                    Some(b) if plan.is_empty() => estimate(v) < estimate(b),
                    Some(b) => {
                        let (cv, cb) = (connected(v), connected(b));
                        cv & !cb || (cv == cb && estimate(v) < estimate(b))
                    }
                };
                if better {
                    best = Some(v);
                }
            }
            let v = best.expect("some unplaced var remains");
            let access = if plan.is_empty() {
                root_access(v)
            } else if connected(v) {
                PlanAccess::Extension
            } else {
                root_access(v)
            };
            plan.push(v);
            placed[v] = true;
            steps.push(PlanStep {
                var: v,
                access,
                estimate: estimate(v) as f64,
            });
        }
        (plan, steps)
    }

    // ---- search ------------------------------------------------------------

    /// Execute a compiled plan to completion (or until an emit callback
    /// or the budget stops it).
    fn run(
        &self,
        comp: &Compiled,
        emit: &mut dyn FnMut(&SearchState) -> bool,
        touched: &TouchSet,
    ) {
        let mut st = self.acquire_state(comp.plan.len(), comp.edges.len());
        if comp.plan.is_empty() {
            // Zero-variable pattern: `step` emits the single empty match.
            self.step(comp, &mut st, 0, emit, touched);
        } else {
            let roots = self.candidates(comp, &st, 0, touched);
            self.run_roots(comp, &mut st, &roots, emit, touched);
        }
        self.release_state(st);
    }

    /// The depth-0 binding loop over an explicit root-candidate list:
    /// polls the budget once for the whole list, then binds each root
    /// and descends into [`Matcher::step`].
    fn run_roots(
        &self,
        comp: &Compiled,
        st: &mut SearchState,
        roots: &[NodeId],
        emit: &mut dyn FnMut(&SearchState) -> bool,
        touched: &TouchSet,
    ) {
        let v0 = comp.plan[0];
        st.frontier_acc += roots.len() as u64;
        if self.poll_budget(st) {
            st.stopped = true;
            return;
        }
        for &root in roots {
            if st.stopped {
                return;
            }
            if !self.accept(comp, st, 0, v0, root, touched) {
                continue;
            }
            st.assignment[v0] = root;
            st.used.insert(root);
            self.step(comp, st, 1, emit, touched);
            st.used.remove(&root);
            st.assignment[v0] = NodeId(u32::MAX);
        }
    }

    fn step(
        &self,
        comp: &Compiled,
        st: &mut SearchState,
        depth: usize,
        emit: &mut dyn FnMut(&SearchState) -> bool,
        touched: &TouchSet,
    ) {
        if st.stopped {
            return;
        }
        if depth == comp.plan.len() {
            if !emit(st) {
                st.stopped = true;
            }
            return;
        }
        let v = comp.plan[depth];
        let candidates = self.candidates(comp, st, depth, touched);
        st.frontier_acc += candidates.len() as u64;
        if self.poll_budget(st) {
            st.stopped = true;
            return;
        }
        for cand in candidates {
            if st.stopped {
                return;
            }
            if !self.accept(comp, st, depth, v, cand, touched) {
                continue;
            }
            st.assignment[v] = cand;
            st.used.insert(cand);
            self.step(comp, st, depth + 1, emit, touched);
            st.used.remove(&cand);
            st.assignment[v] = NodeId(u32::MAX);
        }
    }

    /// Candidate nodes for the variable at plan position `depth`.
    fn candidates(
        &self,
        comp: &Compiled,
        st: &SearchState,
        depth: usize,
        touched: &TouchSet,
    ) -> Vec<NodeId> {
        let g = self.g;
        let v = comp.plan[depth];

        // Incremental anchor: candidates restricted to the touch set.
        if comp.anchor_var == Some(v) {
            let mut c: Vec<NodeId> = touched
                .iter()
                .copied()
                .filter(|&n| g.contains_node(n))
                .collect();
            c.sort_unstable();
            return c;
        }

        // Prefer extending along a positive edge from a bound neighbor:
        // candidates come from an adjacency list instead of an index scan.
        if self.cfg.connected_order {
            let mut best: Option<Vec<NodeId>> = None;
            for e in &comp.edges {
                let (anchor, dir) = if e.src == v && comp.pos[e.dst] < depth {
                    (e.dst, Direction::In) // v --e--> bound: walk bound's in-edges
                } else if e.dst == v && comp.pos[e.src] < depth {
                    (e.src, Direction::Out)
                } else {
                    continue;
                };
                let anchor_node = st.assignment[anchor];
                let want = match e.label {
                    LabelReq::Is(l) => Some(l),
                    _ => None,
                };
                let mut cands = neighbors(g, anchor_node, dir, want);
                cands.sort_unstable();
                cands.dedup();
                if best.as_ref().map(|b| cands.len() < b.len()).unwrap_or(true) {
                    best = Some(cands);
                }
            }
            if let Some(c) = best {
                return c;
            }
        }

        // Equality-join anchor: `v.key == bound.key2` (either orientation)
        // retrieves candidates from the value index.
        if self.cfg.use_attr_index {
            for c in &comp.constraints {
                let CC::Cmp {
                    var,
                    key,
                    op: CmpOp::Eq,
                    rhs: CRhs::Attr(other, other_key),
                } = c
                else {
                    continue;
                };
                let (anchor_var, anchor_key, cand_key) = if *var == v && comp.pos[*other] < depth
                {
                    (*other, *other_key, *key)
                } else if *other == v && comp.pos[*var] < depth {
                    (*var, *key, *other_key)
                } else {
                    continue;
                };
                let KeyReq::Is(ck) = cand_key else {
                    return Vec::new(); // key unknown: constraint unsatisfiable
                };
                let value = match anchor_key {
                    KeyReq::Is(ak) => g.attr(st.assignment[anchor_var], ak),
                    KeyReq::Unknown => None,
                };
                let Some(value) = value else {
                    return Vec::new(); // absent lhs/rhs: constraint false
                };
                let mut cands = g.nodes_with_attr(ck, value);
                cands.sort_unstable();
                return cands;
            }
        }

        // Fall back to the label index, or a full scan for an unlabelled
        // variable.
        match comp.labels[v] {
            LabelReq::Is(l) => {
                let mut c = g.nodes_with_label(l).to_vec();
                c.sort_unstable();
                c
            }
            _ => g.nodes().collect(),
        }
    }

    /// Full acceptance check for binding `v → cand` at plan position `depth`.
    fn accept(
        &self,
        comp: &Compiled,
        st: &mut SearchState,
        depth: usize,
        v: usize,
        cand: NodeId,
        touched: &TouchSet,
    ) -> bool {
        let g = self.g;
        if st.used.contains(&cand) {
            return false;
        }
        if comp.anchor_var.is_some() && comp.forbid_touched[v] && touched.contains(&cand) {
            return false;
        }
        if let LabelReq::Is(l) = comp.labels[v] {
            if g.node_label(cand).ok() != Some(l) {
                return false;
            }
        } else if !g.contains_node(cand) {
            return false;
        }
        // Positive edges whose both endpoints are now bound.
        for &ei in &comp.edge_checks[depth] {
            let e = &comp.edges[ei];
            let s = if e.src == v { cand } else { st.assignment[e.src] };
            let d = if e.dst == v { cand } else { st.assignment[e.dst] };
            let found = match e.label {
                LabelReq::Is(l) => g.find_edge(s, d, l),
                LabelReq::Any => g.find_edge_any(s, d),
                LabelReq::Unsatisfiable => None,
            };
            match found {
                Some(eid) => st.witness[ei] = eid,
                None => return false,
            }
        }
        // Negative edges ready at this step.
        for &ni in &comp.neg_checks[depth] {
            let e = &comp.neg_edges[ni];
            let s = if e.src == v { cand } else { st.assignment[e.src] };
            let d = if e.dst == v { cand } else { st.assignment[e.dst] };
            let exists = match e.label {
                LabelReq::Is(l) => g.has_edge_labeled(s, d, l),
                LabelReq::Any => g.edges_between(s, d).next().is_some(),
                LabelReq::Unsatisfiable => false,
            };
            if exists {
                return false;
            }
        }
        // Constraints ready at this step.
        for &ci in &comp.con_checks[depth] {
            if !self.eval_constraint(&comp.constraints[ci], st, v, cand) {
                return false;
            }
        }
        true
    }

    fn eval_constraint(&self, c: &CC, st: &SearchState, v: usize, cand: NodeId) -> bool {
        let g = self.g;
        let node_of = |var: usize| if var == v { cand } else { st.assignment[var] };
        let attr_of = |var: usize, key: KeyReq| -> Option<&Value> {
            match key {
                KeyReq::Unknown => None,
                KeyReq::Is(k) => g.attr(node_of(var), k),
            }
        };
        match c {
            CC::HasAttr(var, key) => attr_of(*var, *key).is_some(),
            CC::MissingAttr(var, key) => attr_of(*var, *key).is_none(),
            CC::NoOutEdge(var, label) => {
                !has_adjacent_edge(g, node_of(*var), Direction::Out, *label)
            }
            CC::NoInEdge(var, label) => {
                !has_adjacent_edge(g, node_of(*var), Direction::In, *label)
            }
            CC::Cmp { var, key, op, rhs } => {
                let Some(lhs) = attr_of(*var, *key) else {
                    return false;
                };
                match rhs {
                    CRhs::Const(val) => op.eval(lhs, val),
                    CRhs::Attr(o, k2) => match attr_of(*o, *k2) {
                        Some(r) => op.eval(lhs, r),
                        None => false,
                    },
                }
            }
        }
    }
}

/// Neighbors of `id` over `dir`-oriented incident edges, optionally
/// restricted to one edge label. May contain duplicates (parallel
/// edges); unspecified order.
fn neighbors(g: &Graph, id: NodeId, dir: Direction, label: Option<LabelId>) -> Vec<NodeId> {
    // Hot path: one output allocation, no intermediate edge-id Vec.
    fn gather(
        g: &Graph,
        edges: impl Iterator<Item = EdgeId>,
        dir: Direction,
        label: Option<LabelId>,
    ) -> Vec<NodeId> {
        edges
            .filter_map(|e| {
                let er = g.edge(e).ok()?;
                if let Some(l) = label {
                    if er.label != l {
                        return None;
                    }
                }
                Some(match dir {
                    Direction::Out => er.dst,
                    Direction::In => er.src,
                })
            })
            .collect()
    }
    match dir {
        Direction::Out => gather(g, g.out_edges(id), dir, label),
        Direction::In => gather(g, g.in_edges(id), dir, label),
    }
}

/// Whether `id` has any `dir`-oriented incident edge with the given
/// label (`None` = any label at all).
fn has_adjacent_edge(g: &Graph, id: NodeId, dir: Direction, label: Option<LabelId>) -> bool {
    // Monomorphized per call site: `out_edges` and `in_edges` return
    // distinct opaque iterator types, and this sits in the matcher's
    // innermost constraint loop — no boxing.
    fn check(g: &Graph, mut edges: impl Iterator<Item = EdgeId>, label: Option<LabelId>) -> bool {
        match label {
            None => edges.next().is_some(),
            Some(l) => edges.any(|e| g.edge(e).map(|er| er.label == l).unwrap_or(false)),
        }
    }
    match dir {
        Direction::Out => check(g, g.out_edges(id), label),
        Direction::In => check(g, g.in_edges(id), label),
    }
}

/// Backtracking state of one search. Pooled by the [`Planner`] so
/// repeated matching reuses the assignment/witness buffers and the
/// `used` set's table across calls.
#[derive(Default)]
pub(crate) struct SearchState {
    assignment: Vec<NodeId>,
    used: FxHashSet<NodeId>,
    witness: Vec<EdgeId>,
    stopped: bool,
    /// Candidate-batch counter for the amortized budget poll.
    budget_tick: u32,
    /// Frontier rows generated since the last full budget checkpoint —
    /// accumulated locally so the hot path stays off the shared atomics.
    frontier_acc: u64,
}

impl SearchState {
    /// Ready the buffers for a fresh search of the given shape.
    fn reset(&mut self, n_vars: usize, n_edges: usize) {
        self.assignment.clear();
        self.assignment.resize(n_vars, NodeId(u32::MAX));
        self.witness.clear();
        self.witness.resize(n_edges, EdgeId(u32::MAX));
        self.used.clear();
        self.stopped = false;
        self.budget_tick = 0;
        self.frontier_acc = 0;
    }

    /// Materialize the completed assignment as an owned [`Match`].
    fn to_match(&self) -> Match {
        Match {
            nodes: self.assignment.clone(),
            edges: self.witness.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;

    fn kg() -> Graph {
        // Two persons in one city, one person in another; one edge-less org.
        let mut g = Graph::new();
        let p = g.label("Person");
        let c = g.label("City");
        let o = g.label("Org");
        let lives = g.label("livesIn");
        let knows = g.label("knows");
        let a = g.add_node(p);
        let b = g.add_node(p);
        let d = g.add_node(p);
        let c1 = g.add_node(c);
        let c2 = g.add_node(c);
        g.add_node(o);
        g.add_edge(a, c1, lives).unwrap();
        g.add_edge(b, c1, lives).unwrap();
        g.add_edge(d, c2, lives).unwrap();
        g.add_edge(a, b, knows).unwrap();
        g
    }

    fn lives_pattern() -> Pattern {
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let c = b.node("c", Some("City"));
        b.edge(x, c, "livesIn");
        b.build().unwrap()
    }

    #[test]
    fn finds_all_simple_matches() {
        let g = kg();
        let m = Matcher::new(&g);
        let found = m.find_all(&lives_pattern());
        assert_eq!(found.len(), 3);
        // Witness edges recorded.
        for mt in &found {
            let er = g.edge(mt.edges[0]).unwrap();
            assert_eq!(er.src, mt.nodes[0]);
            assert_eq!(er.dst, mt.nodes[1]);
        }
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let g = kg();
        let plain = Matcher::new(&g).find_all(&lives_pattern());
        let budget = obs::Budget::unlimited();
        let budgeted = Matcher::new(&g)
            .with_budget(&budget)
            .find_all(&lives_pattern());
        assert_eq!(plain.len(), budgeted.len());
        assert!(!budget.is_tripped());
    }

    #[test]
    fn tripped_budget_stops_enumeration_early() {
        let g = kg();
        let budget = obs::Budget::unlimited().cancel_at_check(1);
        // Drive the pre-tripped state through the first checkpoint.
        assert!(budget.checkpoint().is_some());
        let found = Matcher::new(&g)
            .with_budget(&budget)
            .find_all(&lives_pattern());
        assert!(found.is_empty(), "tripped scan must stop before emitting");
        assert!(budget.is_tripped());
    }

    #[test]
    fn match_cap_trips_on_large_scan() {
        // A scan big enough to cross the 64-batch amortized flush.
        let mut g = Graph::new();
        let p = g.label("Person");
        let c = g.label("City");
        let lives = g.label("livesIn");
        let city = g.add_node(c);
        for _ in 0..2000 {
            let n = g.add_node(p);
            g.add_edge(n, city, lives).unwrap();
        }
        let budget = obs::Budget::unlimited().with_match_cap(500);
        let found = Matcher::new(&g)
            .with_budget(&budget)
            .find_all(&lives_pattern());
        assert!(found.len() < 2000, "match cap never observed");
        assert_eq!(budget.tripped(), Some(obs::TripReason::OpBudget));
    }

    #[test]
    fn naive_and_optimized_agree() {
        let g = kg();
        let opt = Matcher::new(&g).find_all(&lives_pattern());
        let naive = Matcher::with_config(&g, MatchConfig::naive()).find_all(&lives_pattern());
        let key = |ms: &[Match]| {
            let mut v: Vec<Vec<NodeId>> = ms.iter().map(|m| m.nodes.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(key(&opt), key(&naive));
    }

    #[test]
    fn injectivity_enforced() {
        let g = kg();
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let y = b.node("y", Some("Person"));
        let c = b.node("c", Some("City"));
        b.edge(x, c, "livesIn");
        b.edge(y, c, "livesIn");
        let p = b.build().unwrap();
        let found = Matcher::new(&g).find_all(&p);
        // Only city c1 hosts two persons: (a,b) and (b,a).
        assert_eq!(found.len(), 2);
        for m in &found {
            assert_ne!(m.nodes[0], m.nodes[1]);
        }
    }

    #[test]
    fn negative_edge_filters() {
        let g = kg();
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let y = b.node("y", Some("Person"));
        let c = b.node("c", Some("City"));
        b.edge(x, c, "livesIn");
        b.edge(y, c, "livesIn");
        b.neg_edge(x, y, "knows");
        let p = b.build().unwrap();
        let found = Matcher::new(&g).find_all(&p);
        // (a,b) killed by knows; (b,a) survives (knows is directed).
        assert_eq!(found.len(), 1);
    }

    #[test]
    fn unknown_labels_mean_no_or_trivial_matches() {
        let g = kg();
        // Unknown node label → no matches.
        let mut b = Pattern::builder();
        b.node("x", Some("Ghost"));
        assert!(Matcher::new(&g).find_all(&b.build().unwrap()).is_empty());
        // Unknown negative edge label → trivially satisfied.
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let y = b.node("y", Some("Person"));
        b.neg_edge(x, y, "ghostRel");
        let p = b.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 6); // 3P2 ordered pairs
    }

    #[test]
    fn attribute_constraints() {
        let mut g = kg();
        let age = g.attr_key("age");
        let nodes: Vec<NodeId> = g.nodes().collect();
        g.set_attr(nodes[0], age, Value::Int(30)).unwrap();
        g.set_attr(nodes[1], age, Value::Int(30)).unwrap();
        g.set_attr(nodes[2], age, Value::Int(40)).unwrap();

        // Same-age distinct persons.
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let y = b.node("y", Some("Person"));
        b.attr_eq_var(x, "age", y, "age");
        let p = b.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 2); // (a,b),(b,a)

        // Missing attribute.
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        b.missing_attr(x, "age");
        let p = b.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 0);

        // Constant comparison.
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        b.attr_eq(x, "age", 40i64);
        let p = b.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 1);
    }

    #[test]
    fn cmp_on_absent_attr_is_false() {
        let g = kg();
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        b.attr_eq(x, "nonexistent", 1i64);
        let p = b.build().unwrap();
        assert!(Matcher::new(&g).find_all(&p).is_empty());
    }

    #[test]
    fn self_loop_pattern() {
        let mut g = Graph::new();
        let p = g.label("P");
        let r = g.label("r");
        let a = g.add_node(p);
        let b_ = g.add_node(p);
        g.add_edge(a, a, r).unwrap();
        g.add_edge(a, b_, r).unwrap();
        let mut pb = Pattern::builder();
        let x = pb.node("x", Some("P"));
        pb.edge(x, x, "r");
        let pat = pb.build().unwrap();
        let found = Matcher::new(&g).find_all(&pat);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].nodes[0], a);
    }

    #[test]
    fn find_limited_and_exists() {
        let g = kg();
        let p = lives_pattern();
        let m = Matcher::new(&g);
        assert_eq!(m.find_limited(&p, 2).len(), 2);
        assert_eq!(m.find_limited(&p, 0).len(), 0);
        assert!(m.exists(&p));
        assert_eq!(m.count(&p), 3);
    }

    #[test]
    fn find_touching_restricts_and_dedups() {
        let g = kg();
        let p = lives_pattern();
        let all = Matcher::new(&g).find_all(&p);
        // Touch everything → same match set, each exactly once.
        let touched: TouchSet = g.nodes().collect();
        let mut touching = Matcher::new(&g).find_touching(&p, &touched);
        let mut allv: Vec<_> = all.iter().map(|m| m.nodes.clone()).collect();
        let mut tv: Vec<_> = touching.iter().map(|m| m.nodes.clone()).collect();
        allv.sort();
        tv.sort();
        assert_eq!(allv, tv);

        // Touch only one city → only matches through it.
        let c1 = all[0].nodes[1];
        let single: TouchSet = [c1].into_iter().collect();
        touching = Matcher::new(&g).find_touching(&p, &single);
        assert!(touching.iter().all(|m| m.nodes.contains(&c1)));
        let expected = all.iter().filter(|m| m.nodes.contains(&c1)).count();
        assert_eq!(touching.len(), expected);
    }

    #[test]
    fn attr_index_join_agrees_with_scan() {
        // Pairwise dedup pattern: the value-index join must return exactly
        // the scan results.
        let mut g = Graph::new();
        let ssn = g.attr_key("ssn");
        let mut nodes = Vec::new();
        for i in 0..20 {
            let n = g.add_node_named("Person");
            g.set_attr(n, ssn, Value::Int((i % 7) as i64)).unwrap();
            nodes.push(n);
        }
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let y = b.node("y", Some("Person"));
        b.attr_eq_var(x, "ssn", y, "ssn");
        let p = b.build().unwrap();

        let with_index = Matcher::new(&g).find_all(&p);
        let without = Matcher::with_config(
            &g,
            MatchConfig {
                use_attr_index: false,
                ..MatchConfig::default()
            },
        )
        .find_all(&p);
        let key = |ms: &[Match]| {
            let mut v: Vec<Vec<NodeId>> = ms.iter().map(|m| m.nodes.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(key(&with_index), key(&without));
        assert!(!with_index.is_empty());
    }

    #[test]
    fn no_out_edge_constraint() {
        let mut g = Graph::new();
        let a = g.add_node_named("City");
        let b_ = g.add_node_named("City");
        let k = g.add_node_named("Country");
        g.add_edge_named(a, k, "inCountry").unwrap();
        let mut pb = Pattern::builder();
        let c = pb.node("c", Some("City"));
        pb.no_out_edge(c, Some("inCountry"));
        let p = pb.build().unwrap();
        let found = Matcher::new(&g).find_all(&p);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].nodes[0], b_);

        // Unknown label in a no-edge condition is trivially satisfied.
        let mut pb = Pattern::builder();
        let c = pb.node("c", Some("City"));
        pb.no_out_edge(c, Some("ghostRel"));
        let p = pb.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 2);

        // No incoming edge of any label.
        let mut pb = Pattern::builder();
        let kk = pb.node("k", Some("Country"));
        pb.no_in_edge(kk, None);
        let p = pb.build().unwrap();
        assert!(Matcher::new(&g).find_all(&p).is_empty());
    }

    #[test]
    fn disconnected_pattern_is_product() {
        let g = kg();
        let mut b = Pattern::builder();
        b.node("x", Some("City"));
        b.node("y", Some("Org"));
        let p = b.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 2); // 2 cities × 1 org
    }

    #[test]
    fn witness_is_minimal_edge_id_among_parallel_duplicates() {
        let mut g = Graph::new();
        let p = g.label("P");
        let r = g.label("r");
        let a = g.add_node(p);
        let b_ = g.add_node(p);
        let e1 = g.add_edge(a, b_, r).unwrap();
        let e2 = g.add_edge(a, b_, r).unwrap();
        // Re-adding after a delete reuses the lowest slot but appends to
        // the adjacency list: the minimal id is no longer listed first.
        g.remove_edge(e1).unwrap();
        assert_eq!(g.add_edge(a, b_, r).unwrap(), e1);
        assert!(e1 < e2);
        assert_eq!(g.out_edges(a).next(), Some(e2));

        for labelled in [true, false] {
            let mut pb = Pattern::builder();
            let x = pb.node("x", Some("P"));
            let y = pb.node("y", Some("P"));
            if labelled {
                pb.edge(x, y, "r");
            } else {
                pb.edge_any(x, y);
            }
            let found = Matcher::new(&g).find_all(&pb.build().unwrap());
            assert_eq!(found.len(), 1);
            assert_eq!(found[0].edges, vec![e1]);
        }
    }

    #[test]
    fn edge_any_label() {
        let g = kg();
        let mut b = Pattern::builder();
        let x = b.node("x", Some("Person"));
        let y = b.node("y", None);
        b.edge_any(x, y);
        let p = b.build().unwrap();
        assert_eq!(Matcher::new(&g).find_all(&p).len(), 4); // 3 lives + 1 knows
    }
}
