//! The repair engine.
//!
//! One loop — a cost-ordered worklist — discovers and repairs violations:
//! it seeds a violation queue from one scan, or from the nodes edited
//! since the caller last saw the graph clean ([`RepairSeed::Touched`]),
//! then after each applied repair re-matches **only** the rules the
//! repair's operations can enable, **only** around its touched nodes
//! ([`grepair_match::Matcher::find_touching_distinct`]). Work is
//! proportional to the affected neighbourhood, not the graph. The
//! rescan-every-round loop the paper compares against lives in
//! `grepair-eval` as a baseline, not here.
//!
//! The rule set alone fixes what one run of the loop covers — there is
//! no configuration of the schedule:
//!
//! - **Cyclic rule sets** — the loop runs once over the whole set, under
//!   the churn guard.
//! - **Acyclic rule sets** — the loop runs once per topological stratum
//!   of the trigger graph ([`crate::analysis::stratify`]), in order,
//!   re-matching only the stratum's own rules and without the churn
//!   guard: acyclicity proves that the seed and cascade work ends.
//!
//! Shared semantics:
//!
//! - **Footprints and existential variables** — a repair reads only its
//!   rule's footprint ([`Grr::footprint`]): the variables its actions
//!   name, plus both endpoints of an edge it deletes or relabels. The
//!   other variables are existential: every match that agrees on the
//!   footprint gets the same repair at the same cost, so the queue holds
//!   one violation per (rule, footprint binding), not one per match
//!   ([`Matcher::find_distinct`], [`Matcher::find_touching_distinct`]).
//!   The match it keeps is the one with the smallest nodes. The queue's
//!   key is (cost, priority, rule, nodes), and the matches of one binding
//!   tie on the first three, so that match is the one a queue holding
//!   every match would pop first, and the op order is that queue's —
//!   unless the churn guard refuses a violation: it counts repairs per
//!   (rule, matched nodes), so a binding whose repair never falsifies it
//!   is refused after 16 repairs of its smallest match, where a queue of
//!   every match went on to repair each other match 16 times. A rule
//!   whose footprint is every variable is matched and queued exactly as
//!   before.
//! - **Revalidation** — a queued violation is re-checked against the
//!   current graph before its repair is applied (earlier repairs may have
//!   fixed or invalidated it), by the matcher's own checks: each rule's
//!   [`CompiledPattern`], resolved at its first use in a run and again
//!   only after a repair grows the graph's label or attribute-key
//!   vocabulary. When the stored match fails, the violation is gone if a
//!   check on the footprint alone fails ([`CompiledPattern::holds_on`]);
//!   otherwise the smallest match of its footprint binding that holds
//!   ([`Matcher::min_witness`]) is queued again at the same cost — where
//!   the next match of the binding sat in a queue of every match. The
//!   test after a repair that requeues a violation left standing works
//!   the same way; in a stratum, such a next match does not count against
//!   the repair cap as a requeue.
//! - **Cost arbitration** — pending violations are applied cheapest-first
//!   (graph-edit-distance estimate, then rule priority, then deterministic
//!   tie-breaks), which implements the paper's best-repair selection: when
//!   several rules can fix overlapping violations, the cheapest repair
//!   lands first and the costlier alternatives revalidate away.
//! - **Ids, not names** — a run resolves each rule's pattern and the
//!   names its actions write to the graph's label and attribute-key ids
//!   at the rule's first use, and again only after a repair grows the
//!   vocabulary; pricing ([`crate::estimate_cost`]'s body) and applying
//!   ([`crate::apply_rule`]'s) a repair then hash no name, and every
//!   repair of a worklist is applied into one reused buffer.
//! - **Churn guard** — on cyclic sets the same (rule, matched nodes)
//!   repair may be applied at most 16 times, which bounds runtime even
//!   though the trigger graph has a cycle.
//! - **Repair cap** — a run over a cyclic set applies at most
//!   `10·(|V|+|E|+1)` repairs (sizes at the start of the run), a
//!   backstop that ends a run the churn guard cannot bound — e.g. a rule
//!   that keeps inserting nodes — with [`RepairOutcome::RoundLimit`]. A
//!   stratum's seed and cascade work is not capped: it reaches its
//!   fixpoint however many repairs that takes. Only the requeues of
//!   matches a repair left standing, the one thing acyclicity does not
//!   bound, count against the cap, per stratum.
//! - **Residue** — the fixpoint holds by construction: every violation
//!   was in a seed or was created by an op whose enabled rules were
//!   re-matched, so the only ones a run can leave are those its worklist
//!   revalidated as holding and chose not to repair — a churn-refused
//!   admission, a no-op repair, or, when the repair cap stops the run,
//!   the queue's remaining entries and the seeds of the strata it never
//!   reached. A run that no budget trip cut short revalidates that
//!   residue instead of sweeping the graph again
//!   ([`RepairReport::violations_remaining`]), counting every match of
//!   each residual footprint binding ([`Matcher::count_witnesses`]);
//!   debug builds also sweep and assert that both counts agree.

use crate::analysis::{edge_labels_at, preconditions_of, L};
use crate::apply::{apply_into, ActionIds, Applied, AppliedOp};
use crate::cost::estimate_with;
use crate::rule::{Action, Grr, PatternEdgeRef};
use grepair_graph::{EditCosts, Graph, NodeId};
use grepair_match::{CompiledPattern, Match, MatchConfig, Matcher, Planner, TouchSet};
use grepair_obs as obs;
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// How many times the identical (rule, matched nodes) repair may be
/// applied in one worklist over a cyclic set. More than one allows
/// legitimate re-application (e.g. deleting several parallel duplicate
/// edges) while still bounding oscillation.
const MAX_CHURN: u32 = 16;

/// Where a repair run looks for its first violations.
#[derive(Clone, Copy, Debug)]
pub enum RepairSeed<'a> {
    /// Scan the whole graph.
    Full,
    /// Match only around these nodes. The caller vouches that the graph
    /// had **no** match of any rule when the set was empty, and that
    /// every node affected by an edit since is in it (the definition
    /// [`Applied::touched`] uses). Every violation then intersects the
    /// set, [`Matcher::find_touching_distinct`] finds exactly those, and
    /// the run pops, applies and reports the same operations a
    /// [`RepairSeed::Full`] run would — the queue's order is total, so
    /// equal violation sets give equal runs. A stratified run seeds each
    /// stratum from the matches touching the set grown so far (the seed
    /// plus every node an earlier stratum's repairs touched): a match
    /// that exists when its stratum starts either existed before the run
    /// or was created by one of those repairs, so it touches that set.
    /// The residual count comes from the run's residue, as after a full
    /// seed: nothing is matched once the last stratum's queue empties.
    Touched(&'a TouchSet),
}

/// How a repair run ended — the typed answer to "did it finish, and if
/// not, what stopped it". `converged = false` alone is ambiguous: it
/// covers both "residual violations the rules cannot fix" (outcome
/// [`RepairOutcome::Completed`]) and "a guard stopped the run early"
/// (any other variant).
///
/// Guardrail trips ([`Deadline`](RepairOutcome::Deadline),
/// [`Cancelled`](RepairOutcome::Cancelled),
/// [`OpBudget`](RepairOutcome::OpBudget)) are **round-atomic**: the
/// engine only observes its [`obs::Budget`] between repairs (and aborts
/// in-progress scans before applying anything), so the graph is always
/// left equal to some completed prefix of the untripped run's repairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairOutcome {
    /// The run reached its natural fixpoint (or gave up on residual
    /// violations only noop/churn-guarded repairs could touch).
    #[default]
    Completed,
    /// The `10·(|V|+|E|+1)` repair cap stopped a repair that was still
    /// needed: on a cyclic rule set, or in a stratum whose rule keeps
    /// re-fixing a match its own repair leaves standing.
    RoundLimit,
    /// The budget deadline passed.
    Deadline,
    /// Cooperative cancellation (SIGINT, a [`obs::CancelToken`], or a
    /// scripted cancel schedule).
    Cancelled,
    /// The budget's op/match cap was exhausted.
    OpBudget,
}

impl RepairOutcome {
    /// Stable lowercase label (`completed`, `round-limit`, `deadline`,
    /// `cancelled`, `op-budget`) for CLI/JSON surfaces.
    pub fn as_str(&self) -> &'static str {
        match self {
            RepairOutcome::Completed => "completed",
            RepairOutcome::RoundLimit => "round-limit",
            RepairOutcome::Deadline => "deadline",
            RepairOutcome::Cancelled => "cancelled",
            RepairOutcome::OpBudget => "op-budget",
        }
    }

    /// Whether a runtime guardrail (not an engine iteration cap) ended
    /// the run.
    pub fn is_budget_trip(&self) -> bool {
        matches!(
            self,
            RepairOutcome::Deadline | RepairOutcome::Cancelled | RepairOutcome::OpBudget
        )
    }
}

impl std::fmt::Display for RepairOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<obs::TripReason> for RepairOutcome {
    fn from(r: obs::TripReason) -> Self {
        match r {
            obs::TripReason::Deadline => RepairOutcome::Deadline,
            obs::TripReason::Cancelled => RepairOutcome::Cancelled,
            obs::TripReason::OpBudget => RepairOutcome::OpBudget,
        }
    }
}

/// Consumer of a repair run's applied operations, one committed round
/// at a time.
///
/// [`RepairSink::round`] is called once per committed round — one
/// applied repair, whatever the schedule — with that round's operations
/// in application order, never an empty slice. A round is the unit of
/// atomicity for durable journaling and graceful shutdown: a budget trip
/// never leaves the graph inside one, so a consumer that records whole
/// calls records a prefix of the untripped run. The engine hands the
/// same slice to its trigger filter and then drops it; a caller that
/// wants the run's op log collects it here, e.g. with a closure
/// `|ops: &[AppliedOp]| log.extend_from_slice(ops)`.
pub trait RepairSink {
    /// The operations of one committed round, in application order.
    fn round(&mut self, ops: &[AppliedOp]);
}

impl<F: FnMut(&[AppliedOp])> RepairSink for F {
    fn round(&mut self, ops: &[AppliedOp]) {
        self(ops)
    }
}

/// Per-rule outcome counters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RuleStats {
    /// Rule name.
    pub name: String,
    /// Violations queued: one per footprint binding ([`Grr::footprint`])
    /// of each seed scan and re-match, before revalidation. A violation
    /// requeued after its own repair, or after its stored match failed
    /// and another held, is not counted again.
    pub matches_found: usize,
    /// Repairs actually applied (non-noop).
    pub repairs_applied: usize,
    /// Total edit cost of this rule's repairs.
    pub cost: f64,
    /// Full scans that included this rule: exactly one (the seed of its
    /// stratum under a stratified schedule, also of a stratum the repair
    /// cap kept from running), or none under [`RepairSeed::Touched`],
    /// where no sweep of the graph happens.
    pub scans: usize,
}

/// Result of a repair run: outcome and counts. The applied operations
/// themselves go only to the run's [`RepairSink`]; take the op log with
/// a closure sink passed to [`RepairEngine::repair_with`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RepairReport {
    /// Worklist runs: 1, or one per stratum under a stratified schedule.
    pub rounds: usize,
    /// Repairs applied (non-noop).
    pub repairs_applied: usize,
    /// Operations those repairs applied, summed over the rounds the
    /// sink received.
    #[serde(default)]
    pub ops_applied: usize,
    /// Per-rule statistics (indexed like the rule slice).
    pub per_rule: Vec<RuleStats>,
    /// Total edit cost.
    pub total_cost: f64,
    /// `true` if the run ended with `violations_remaining == 0`.
    pub converged: bool,
    /// Residual violations, counted in matches: those that still hold
    /// when the run ends, of every (rule, footprint binding) in its
    /// residue — the violations its worklist left unrepaired (see the
    /// module docs). Every match in the graph is among them: a [`RepairSeed::Full`] run seeded every
    /// match that existed, a [`RepairSeed::Touched`] run every match
    /// under the seed's contract, and each repair's new matches were
    /// re-matched. [`RepairEngine::count_violations`] is the independent
    /// check.
    pub violations_remaining: usize,
    /// Patterns actually compiled during the run (plan-cache misses).
    /// With a caller-owned [`Planner`] these counters are per-run
    /// deltas, so a reused planner shows its warm cache as
    /// `plan_cache_hits > 0` with `pattern_compiles == 0`.
    pub pattern_compiles: u64,
    /// Pattern compiles avoided by the plan cache — fixpoint rounds and
    /// `find_touching`'s per-anchor compiles hitting cached plans.
    pub plan_cache_hits: u64,
    /// Always 0: the matcher never re-plans during a scan. Kept only
    /// because the `e2e` benchmark reads it as `plan.replans`.
    pub plan_replans: u64,
    /// Number of topological strata the run was scheduled into, when the
    /// trigger graph was acyclic. `0` means one worklist ran over the
    /// whole, cyclic set.
    #[serde(default)]
    pub strata: usize,
    /// Wall-clock duration.
    #[serde(skip)]
    pub wall: Duration,
    /// How the run ended: natural fixpoint, the repair cap, or a runtime
    /// guardrail trip. `violations_remaining` is only
    /// meaningful for [`RepairOutcome::Completed`] /
    /// [`RepairOutcome::RoundLimit`] — a budget trip leaves it 0 and
    /// `converged` false: the tripped run's queue and seeds are partial.
    #[serde(default)]
    pub outcome: RepairOutcome,
}

/// Per-run engine telemetry: child counters of the global registry's
/// `engine.*` series, so a run's deltas both roll up into the
/// process-wide totals and serve as the authoritative source for the
/// corresponding [`RepairReport`] fields (`strata`, per-rule `scans`) —
/// the report is a *view* over these counters, not a parallel tally.
struct EngineTelemetry {
    rounds: obs::Counter,
    repairs_applied: obs::Counter,
    strata: obs::Counter,
    rule_scans: Vec<obs::Counter>,
    rule_repair_ns: std::sync::Arc<obs::Histogram>,
    rematch_rules: std::sync::Arc<obs::Histogram>,
    seed_full: std::sync::Arc<obs::Counter>,
    seed_delta: std::sync::Arc<obs::Counter>,
    seed_nodes: std::sync::Arc<obs::Histogram>,
    stratum_rematches: std::sync::Arc<obs::Counter>,
}

impl EngineTelemetry {
    fn for_run(n_rules: usize) -> Self {
        EngineTelemetry {
            rounds: obs::counter("engine.rounds").child(),
            repairs_applied: obs::counter("engine.repairs_applied").child(),
            strata: obs::counter("engine.strata").child(),
            rule_scans: (0..n_rules)
                .map(|_| obs::counter("engine.rule_scans").child())
                .collect(),
            rule_repair_ns: obs::histogram("engine.rule_repair_ns"),
            rematch_rules: obs::histogram("engine.rematch_rules"),
            seed_full: obs::counter("engine.seed_full"),
            seed_delta: obs::counter("engine.seed_delta"),
            seed_nodes: obs::histogram("engine.seed_nodes"),
            stratum_rematches: obs::counter("engine.stratum_rematches"),
        }
    }
}

/// One discovered violation, ordered for the arbitration queue.
#[derive(Clone, Debug)]
struct Violation {
    rule: usize,
    m: Match,
    cost: f64,
    priority: i32,
}

/// Monotone map from `f64` into `u64`: IEEE-754 total order
/// (`f64::total_cmp`) for non-NaN values — flip the sign bit for
/// non-negatives, all bits for negatives — with every NaN canonicalized
/// to sort *last*. Degenerate rule cost tables can produce `±inf` (e.g.
/// an infinite per-op cost) or `NaN` (`inf − inf`, `0 × inf` during
/// estimation), and hardware NaNs carry an arbitrary sign bit (`inf −
/// inf` yields a *negative* NaN on x86-64, which raw total order would
/// rank cheapest of all); canonicalizing keeps the arbitration queue
/// total and deterministic — negative costs first, then finite, `+inf`,
/// and any NaN last — instead of relying on raw `f64` comparisons whose
/// `NaN` behaviour breaks the `Eq`/`Ord` contracts.
#[inline]
fn cost_order_bits(cost: f64) -> u64 {
    if cost.is_nan() {
        return u64::MAX;
    }
    let bits = cost.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

impl Violation {
    /// Min-heap order: cheapest cost (total order over all `f64`s,
    /// including non-finite), then highest priority, then rule index,
    /// then node ids — fully deterministic.
    fn cmp_key(&self) -> (u64, i32, usize, &[NodeId]) {
        (
            cost_order_bits(self.cost),
            -self.priority,
            self.rule,
            &self.m.nodes,
        )
    }
}

impl PartialEq for Violation {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl Eq for Violation {}

impl PartialOrd for Violation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Violation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the cheapest first.
        other.cmp_key().cmp(&self.cmp_key())
    }
}

/// The worklist's arbitration queue: pops violations in exactly
/// `BinaryHeap<Violation>`'s order, but holds the seed — nearly every
/// entry of a full-scan run — as one sorted run drained from its cheap
/// end, and keeps a heap only for violations discovered during the run.
/// A pop is then `O(1)` against the seed and `O(log arrivals)` otherwise,
/// not `O(log (seed + arrivals))`. `Ord`-equal violations are
/// interchangeable (equal cost bits, priority, rule and nodes;
/// [`CompiledPattern::holds`] rewrites the witness edges before anything
/// reads them), so which of two tied heads pops first is unobservable.
struct ArbitrationQueue {
    /// Ascending in `Ord`, i.e. cheapest last.
    seed: Vec<Violation>,
    arrivals: BinaryHeap<Violation>,
}

impl ArbitrationQueue {
    fn from_seed(mut seed: Vec<Violation>) -> Self {
        seed.sort_unstable();
        ArbitrationQueue {
            seed,
            arrivals: BinaryHeap::new(),
        }
    }

    fn push(&mut self, v: Violation) {
        self.arrivals.push(v);
    }

    fn pop(&mut self) -> Option<Violation> {
        match (self.seed.last(), self.arrivals.peek()) {
            (Some(s), Some(a)) if a > s => self.arrivals.pop(),
            (Some(_), _) => self.seed.pop(),
            (None, _) => self.arrivals.pop(),
        }
    }

    /// A capped worklist's leftovers: push `stopped`, the entry the cap
    /// stopped at, and every entry not yet popped to `residue`.
    fn leave(self, stopped: Violation, residue: &mut Vec<(usize, Match)>) {
        let left = std::iter::once(stopped)
            .chain(self.seed)
            .chain(self.arrivals);
        residue.extend(left.map(|v| (v.rule, v.m)));
    }
}

/// One precondition class of a [`TriggerIndex`].
#[derive(Default)]
struct TriggerClass {
    /// Concrete label / attribute key → the rules naming it, ascending.
    named: FxHashMap<String, Vec<usize>>,
    /// Rules with an unlabelled (`None`) precondition here, ascending:
    /// every label overlaps it.
    wildcard: Vec<usize>,
}

impl TriggerClass {
    /// Record rule `ri`'s preconditions; rules arrive in ascending order.
    fn add(&mut self, ri: usize, pre: Vec<L>) {
        for l in pre {
            let rules = match l {
                Some(name) => self.named.entry(name).or_default(),
                None => &mut self.wildcard,
            };
            if rules.last() != Some(&ri) {
                rules.push(ri);
            }
        }
    }

    /// Append the rules holding a precondition that overlaps `name`.
    fn overlapping(&self, name: &str, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.wildcard);
        if let Some(rules) = self.named.get(name) {
            out.extend_from_slice(rules);
        }
    }

    /// Append the rules holding a precondition that overlaps some label
    /// (`None`) or `Some(name)`: the whole class, or [`Self::overlapping`].
    fn overlapping_label(&self, label: Option<&str>, out: &mut Vec<usize>) {
        match label {
            Some(name) => self.overlapping(name, out),
            None => {
                out.extend_from_slice(&self.wildcard);
                self.named.values().for_each(|rules| out.extend_from_slice(rules));
            }
        }
    }
}

/// Inverted trigger filter: which rules can a set of applied operations
/// *enable* (create a new match of)? Built once per run from
/// [`preconditions_of`], it maps each concrete edge label, node label
/// and attribute key a rule's pattern mentions — per precondition class
/// — to the rules mentioning it, next to the rules that accept any label
/// there. Answering for an op is then one `&str` lookup in the class the
/// op can affect: no allocation and no walk over Σ. The answer is a
/// sound label-level over-approximation — every real enablement is
/// caught; a spurious one only costs a re-match that finds nothing new.
/// Per rule, the index also holds the union of those answers over every
/// op the rule's actions can apply ([`TriggerIndex::may_enable`]): a
/// repair whose set meets no rule in scope needs no per-op lookup.
#[derive(Default)]
struct TriggerIndex {
    pos_edge: TriggerClass,
    node_label: TriggerClass,
    neg_edge: TriggerClass,
    missing_attr: TriggerClass,
    needs_attr: TriggerClass,
    /// Rules with any negative-edge precondition, ascending.
    any_neg_edge: Vec<usize>,
    /// Rules a merge can enable, ascending: those with any positive-edge,
    /// negative-edge or attribute-value precondition. A merge rewires
    /// edges of unknown labels, drops parallels and copies attributes of
    /// unknown keys — the effects `trigger_graph` gives it.
    merge_enables: Vec<usize>,
    /// Per rule, ascending: every rule an op of its repairs can enable
    /// ([`TriggerIndex::may_enable`]).
    by_rule: Vec<Vec<usize>>,
}

impl TriggerIndex {
    fn new(rules: &[Grr]) -> Self {
        let mut ix = TriggerIndex::default();
        for (ri, rule) in rules.iter().enumerate() {
            let pre = preconditions_of(rule);
            if !pre.neg_edge.is_empty() {
                ix.any_neg_edge.push(ri);
            }
            if !(pre.pos_edge.is_empty() && pre.neg_edge.is_empty() && pre.needs_attr.is_empty()) {
                ix.merge_enables.push(ri);
            }
            ix.pos_edge.add(ri, pre.pos_edge);
            ix.node_label.add(ri, pre.node_label);
            ix.neg_edge.add(ri, pre.neg_edge);
            ix.missing_attr.add(ri, pre.missing_attr);
            ix.needs_attr.add(ri, pre.needs_attr);
        }
        ix.by_rule = rules.iter().map(|rule| ix.may_enable(rule)).collect();
        ix
    }

    /// Every rule an op of a repair of `rule` can enable, ascending: each
    /// action looked up in the class its ops hit in
    /// [`TriggerIndex::enabled_by`], under the name it writes, or in the
    /// whole class where the name is known only once the repair runs (the
    /// label of an edge the pattern matches as `*`). Every `enabled_by`
    /// answer for the ops of one of its repairs is therefore a subset.
    fn may_enable(&self, rule: &Grr) -> Vec<usize> {
        let mut out = Vec::new();
        for (at, action) in rule.actions.iter().enumerate() {
            let removed = |i: usize, out: &mut Vec<usize>| {
                for label in edge_labels_at(rule, at, i) {
                    self.neg_edge.overlapping_label(label, out);
                }
            };
            match action {
                Action::InsertNode { label, .. } => self.node_label.overlapping(label, &mut out),
                Action::InsertEdge { label, .. } => self.pos_edge.overlapping(label, &mut out),
                Action::DeleteNode(_) => out.extend_from_slice(&self.any_neg_edge),
                Action::DeleteEdge(PatternEdgeRef(i)) => removed(*i, &mut out),
                Action::UpdateNode {
                    set_label,
                    set_attrs,
                    del_attrs,
                    ..
                } => {
                    if let Some(label) = set_label {
                        self.node_label.overlapping(label, &mut out);
                    }
                    for (key, _) in set_attrs {
                        self.needs_attr.overlapping(key, &mut out);
                    }
                    for key in del_attrs {
                        self.missing_attr.overlapping(key, &mut out);
                    }
                }
                Action::UpdateEdgeLabel {
                    edge: PatternEdgeRef(i),
                    label,
                } => {
                    self.pos_edge.overlapping(label, &mut out);
                    removed(*i, &mut out);
                }
                Action::MergeNodes { .. } => out.extend_from_slice(&self.merge_enables),
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Fill `out` with the rules any of `ops` can enable — ascending,
    /// without duplicates.
    fn enabled_by(&self, ops: &[AppliedOp], out: &mut Vec<usize>) {
        out.clear();
        for op in ops {
            match op {
                AppliedOp::InsertNode { label, .. } | AppliedOp::RelabelNode { to: label, .. } => {
                    self.node_label.overlapping(label, out)
                }
                AppliedOp::InsertEdge { label, .. } => self.pos_edge.overlapping(label, out),
                // Deleting a node removes incident edges of unknown
                // labels: any negative / no-edge condition could be
                // enabled.
                AppliedOp::DeleteNode { .. } => out.extend_from_slice(&self.any_neg_edge),
                AppliedOp::DeleteEdge { label, .. } => self.neg_edge.overlapping(label, out),
                AppliedOp::SetAttr { key, .. } => self.needs_attr.overlapping(key, out),
                AppliedOp::RemoveAttr { key, .. } => self.missing_attr.overlapping(key, out),
                AppliedOp::RelabelEdge { from, to, .. } => {
                    self.pos_edge.overlapping(to, out);
                    self.neg_edge.overlapping(from, out);
                }
                AppliedOp::Merge { .. } => out.extend_from_slice(&self.merge_enables),
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The repair engine. Stateless across runs; all state lives in the
/// [`RepairReport`] — except the attached [`obs::Budget`], whose trips
/// are *sticky*: once tripped it stops every later run too, so attach a
/// fresh budget per logical request.
pub struct RepairEngine {
    match_config: MatchConfig,
    budget: obs::Budget,
}

impl Default for RepairEngine {
    fn default() -> Self {
        Self::new(MatchConfig::default())
    }
}

impl RepairEngine {
    /// Engine whose scans use `match_config` (the F5 ablation's knob),
    /// with an unlimited budget.
    pub fn new(match_config: MatchConfig) -> Self {
        Self {
            match_config,
            budget: obs::Budget::unlimited(),
        }
    }

    /// Attach a runtime [`obs::Budget`] (deadline / cancel token /
    /// op-match caps). The engine polls it between repairs and threads it
    /// into every matcher scan; on a trip the run stops at a repair
    /// boundary with a typed [`RepairReport::outcome`].
    #[must_use]
    pub fn with_budget(mut self, budget: &obs::Budget) -> Self {
        self.budget = budget.clone();
        self
    }

    /// Repair `g` with `rules` until fixpoint (or a guard trips).
    pub fn repair(&self, g: &mut Graph, rules: &[Grr]) -> RepairReport {
        let sink = |_: &[AppliedOp]| {};
        self.repair_with(g, rules, &Planner::new(), RepairSeed::Full, sink)
    }

    /// [`RepairEngine::repair`] with a caller-owned [`Planner`], a
    /// [`RepairSeed`] and an op sink — the entry point of durable stores
    /// and watch loops.
    ///
    /// A long-lived `planner` (dedicated to `g`'s lineage, see
    /// [`grepair_match::plan`]) keeps its compiled plans and search
    /// buffers across runs: later runs plan from cache
    /// ([`RepairReport::plan_cache_hits`] with zero
    /// [`RepairReport::pattern_compiles`]). `sink` gets each applied
    /// repair's operations once, as one round, in application order — a
    /// store journals them, so the run is replayable; a plain
    /// `FnMut(&[AppliedOp])` closure collects the op log.
    pub fn repair_with(
        &self,
        g: &mut Graph,
        rules: &[Grr],
        planner: &Planner,
        seed: RepairSeed<'_>,
        mut sink: impl RepairSink,
    ) -> RepairReport {
        let start = Instant::now();
        let _span = obs::span("engine.repair", "engine");
        let tel = EngineTelemetry::for_run(rules.len());
        let mut report = RepairReport {
            per_rule: rules
                .iter()
                .map(|r| RuleStats {
                    name: r.name.clone(),
                    ..RuleStats::default()
                })
                .collect(),
            ..RepairReport::default()
        };
        let max_repairs = 10 * (g.num_nodes() + g.num_edges() + 1);

        // Planner counters are cumulative for the planner's lifetime;
        // the report captures this run's deltas so a reused planner
        // shows warm-cache behaviour per run.
        let compiles0 = planner.compile_count();
        let hits0 = planner.cache_hit_count();

        // Analysis-driven scheduling: an acyclic trigger graph yields a
        // topological stratification under which the run provably
        // terminates without churn guards.
        let schedule = crate::analysis::stratify(&crate::analysis::trigger_graph(rules));
        // A delta-seeded run grows its copy of the seed by every node a
        // repair touches: what each later stratum seeds from.
        let mut delta = match seed {
            RepairSeed::Touched(t) => {
                tel.seed_delta.inc();
                tel.seed_nodes.record(t.len() as u64);
                Some(t.clone())
            }
            RepairSeed::Full => {
                tel.seed_full.inc();
                None
            }
        };
        // Trigger filter: only rules whose label-level preconditions the
        // applied operations could have *enabled* are re-matched.
        let triggers = TriggerIndex::new(rules);
        // One worklist over the whole set, or one per stratum, in order.
        let scopes: Vec<Option<&[usize]>> = match &schedule {
            Some(strata) => {
                tel.strata.add(strata.len() as u64);
                strata.iter().map(|s| Some(s.as_slice())).collect()
            }
            None => vec![None],
        };
        // The violations the worklists revalidated as holding and left
        // unrepaired: the only ones a run can leave.
        let mut residue: Vec<(usize, Match)> = Vec::new();
        let mut checks = RuleChecks::new(rules);
        for scope in scopes {
            if report.outcome == RepairOutcome::Completed {
                self.run_worklist(
                    g, rules, scope, delta.as_mut(), &triggers, &mut checks, &mut report,
                    max_repairs, &mut sink, planner, &tel, &mut residue,
                );
            } else {
                // The repair cap stopped an earlier stratum: this one
                // never runs, and leaves its seed.
                let delta = delta.as_ref();
                self.discover(g, rules, &mut checks, scope, delta, planner, &tel, |_, ri, m| {
                    residue.push((ri, m))
                });
            }
            // A trip the worklist did not observe at a pop still cut a
            // search short — the re-match after the repair that reached
            // an op cap, or a discovery — so the residue is partial.
            if let Some(trip) = self.budget.tripped() {
                report.outcome = trip.into();
                break;
            }
        }
        // The report's scheduling counters are read back from the run's
        // registry-backed telemetry (per-run children, so the values are
        // exact per-run deltas).
        report.strata = tel.strata.get() as usize;
        for (stats, scans) in report.per_rule.iter_mut().zip(&tel.rule_scans) {
            stats.scans = scans.get() as usize;
        }

        if !report.outcome.is_budget_trip() {
            let matcher = Matcher::with_planner(g, self.match_config, planner);
            report.violations_remaining = checks.count_residue(g, rules, &matcher, residue);
            report.converged = report.violations_remaining == 0;
            #[cfg(debug_assertions)]
            self.assert_residue_is_the_sweep(g, rules, delta.as_ref(), report.violations_remaining);
        }
        obs::instant(
            match report.outcome {
                RepairOutcome::Completed => "engine.outcome.completed",
                RepairOutcome::RoundLimit => "engine.outcome.round_limit",
                RepairOutcome::Deadline => "engine.outcome.deadline",
                RepairOutcome::Cancelled => "engine.outcome.cancelled",
                RepairOutcome::OpBudget => "engine.outcome.op_budget",
            },
            "engine",
        );
        report.pattern_compiles = planner.compile_count() - compiles0;
        report.plan_cache_hits = planner.cache_hit_count() - hits0;
        report.wall = start.elapsed();
        report
    }

    /// Count current violations without repairing: one scan of every
    /// rule, independent of any run (a repair's own count comes from its
    /// residue).
    pub fn count_violations(&self, g: &Graph, rules: &[Grr]) -> usize {
        let planner = Planner::new();
        let matcher = self.matcher(g, &planner);
        rules.iter().map(|r| matcher.count(&r.pattern)).sum()
    }

    /// The matcher every scan and re-match of a run goes through: this
    /// engine's configuration, the run's planner, the attached budget.
    fn matcher<'a>(&self, g: &'a Graph, planner: &'a Planner) -> Matcher<'a> {
        Matcher::with_planner(g, self.match_config, planner).with_budget(&self.budget)
    }

    /// The sweep the residue replaces, as debug builds' cross-check: every
    /// match after a full seed, every match touching the grown `delta`
    /// after a [`RepairSeed::Touched`] one. Its matcher has no budget (a
    /// deadline must not cut the count short) and no planner (the check
    /// must not move the run's plan counters). A mismatch means the
    /// trigger index or a touched set missed an enablement.
    #[cfg(debug_assertions)]
    fn assert_residue_is_the_sweep(
        &self,
        g: &Graph,
        rules: &[Grr],
        delta: Option<&TouchSet>,
        remaining: usize,
    ) {
        let matcher = Matcher::with_config(g, self.match_config);
        let swept: usize = rules
            .iter()
            .map(|r| match delta {
                Some(closure) => matcher.find_touching(&r.pattern, closure).len(),
                None => matcher.count(&r.pattern),
            })
            .sum();
        debug_assert_eq!(remaining, swept, "the residue and the sweep disagree");
    }

    /// The rule indices `scope` names (`None` = every rule), ascending.
    fn rules_in<'a>(rules: &[Grr], scope: Option<&'a [usize]>) -> impl Iterator<Item = usize> + 'a {
        let all = if scope.is_some() { 0 } else { rules.len() };
        (0..all).chain(scope.unwrap_or_default().iter().copied())
    }

    /// A worklist's seed: hand `found` every violation — (rule index,
    /// smallest match of one footprint binding) — of the rules in `scope`:
    /// all of them (one counted scan per rule), or with `delta`, those
    /// whose matches intersect it.
    #[allow(clippy::too_many_arguments)]
    fn discover(
        &self,
        g: &Graph,
        rules: &[Grr],
        checks: &mut RuleChecks,
        scope: Option<&[usize]>,
        delta: Option<&TouchSet>,
        planner: &Planner,
        tel: &EngineTelemetry,
        mut found: impl FnMut(&mut RuleChecks, usize, Match),
    ) {
        let matcher = self.matcher(g, planner);
        for ri in Self::rules_in(rules, scope) {
            let (pattern, footprint) = (&rules[ri].pattern, checks.footprints[ri]);
            let matches = match delta {
                None => {
                    tel.rule_scans[ri].inc();
                    matcher.find_distinct(pattern, footprint)
                }
                Some(touched) => matcher.find_touching_distinct(pattern, footprint, touched),
            };
            for m in matches {
                found(checks, ri, m);
            }
        }
    }

    /// The worklist loop, over the rules in `scope` (`None` = the whole,
    /// cyclic set; `Some` = one stratum of an acyclic schedule). `delta`
    /// is the run's seed: `None` scans the scope's rules, `Some` matches
    /// them only around those nodes (see [`RepairSeed::Touched`]) and is
    /// grown by every node the repairs touch.
    ///
    /// Each step pops the cheapest outstanding violation from the
    /// [`ArbitrationQueue`], revalidates it and applies it into the
    /// worklist's one [`Applied`] buffer, reading the rule's names as the
    /// ids [`RuleChecks`] resolved, then asks the [`TriggerIndex`] which
    /// rules the applied operations can enable and re-matches only those
    /// in scope, only around the touched nodes. The question is skipped
    /// when no rule in scope is in the repaired rule's rule-level set
    /// ([`TriggerIndex::may_enable`]) — after every repair of a stratum.
    /// Neither structure walks the rule set: what a repair costs depends
    /// on the rules it enables, not on |Σ| (`engine.rematch_rules`
    /// records that number per repair).
    ///
    /// A stratum runs without the churn guard: [`crate::analysis::stratify`]
    /// puts every rule a stratum's rules can enable in a later stratum,
    /// so the caller runs each stratum once, in order, and its queue is
    /// its seed plus the requeues of matches a repair left standing (e.g.
    /// one of several parallel duplicate edges) and the next matches of
    /// bindings whose stored match failed. An effective rule's
    /// requeues shrink its match; a rule whose repair never falsifies its
    /// own match requeues forever, so the stratum's requeues, and only
    /// they, count against `max_repairs`; a binding's next match is no
    /// requeue, as a queue of every match held it from the seed on. A
    /// re-match that finds a match in the stratum means the trigger graph
    /// missed an edge: it is counted (`engine.stratum_rematches`),
    /// asserted against in debug builds, and puts the whole stratum back
    /// under `max_repairs`.
    ///
    /// Every violation of the scope that holds when the worklist returns
    /// is in `residue`: each one entered the queue after it last became
    /// true, and a popped violation that still holds is repaired,
    /// requeued, or pushed to `residue` — a churn-refused admission, a
    /// no-op repair, and, when the cap stops the run, the popped entry
    /// and the rest of the queue.
    ///
    /// Returns with [`RepairReport::outcome`] still
    /// [`RepairOutcome::Completed`] when the queue ran dry: the scope
    /// reached its fixpoint (or only noop / churn-guarded repairs
    /// remained) — unless a budget tripped inside a re-match after the
    /// last pop, which the caller checks.
    #[allow(clippy::too_many_arguments)]
    fn run_worklist(
        &self,
        g: &mut Graph,
        rules: &[Grr],
        scope: Option<&[usize]>,
        mut delta: Option<&mut TouchSet>,
        triggers: &TriggerIndex,
        checks: &mut RuleChecks,
        report: &mut RepairReport,
        max_repairs: usize,
        sink: &mut dyn RepairSink,
        planner: &Planner,
        tel: &EngineTelemetry,
        residue: &mut Vec<(usize, Match)>,
    ) {
        let mut churn: FxHashMap<u64, u32> = FxHashMap::default();
        // Requeues of a stratum, capped at `max_repairs`.
        let mut requeues = 0;
        // Set once a stratum re-match falsifies the stratum's proof.
        let mut unsound = false;
        report.rounds += 1;
        tel.rounds.inc();
        // After a repair only the rules its operations can enable are
        // re-matched — one index lookup per operation, so the
        // rule-dependency pruning keeps per-repair work independent of
        // |Σ| — and only after a repair of a rule whose ops can enable
        // one in scope at all: in a stratum, none can.
        let mut enabled = Vec::new();
        let rematches: Vec<bool> = triggers
            .by_rule
            .iter()
            .map(|enables| match scope {
                None => !enables.is_empty(),
                Some(stratum) => enables.iter().any(|ri| stratum.binary_search(ri).is_ok()),
            })
            .collect();
        debug_assert!(
            scope.is_none() || Self::rules_in(rules, scope).all(|ri| !rematches[ri]),
            "the trigger index lets a rule enable one of its own stratum"
        );
        // The one buffer every repair of the worklist is applied into.
        let mut applied = Applied::default();
        let mut seed: Vec<Violation> = Vec::new();
        {
            let _seed_span = obs::span("engine.round", "engine");
            let delta = delta.as_deref();
            self.discover(g, rules, checks, scope, delta, planner, tel, |checks, ri, m| {
                seed.push(self.violation(g, rules, checks, ri, m))
            });
        }
        if self.budget.is_tripped() {
            // Mid-seed-scan trip: the queue is partial — stop before
            // applying anything, leaving the graph untouched.
            report.outcome = self.budget.tripped().map(Into::into).unwrap_or_default();
            return;
        }
        for v in &seed {
            report.per_rule[v.rule].matches_found += 1;
        }
        let mut queue = ArbitrationQueue::from_seed(seed);
        while let Some(mut v) = queue.pop() {
            // Guardrail boundary: one applied repair (plus its cascade)
            // is the atomic unit, so the budget is observed between pops
            // only.
            if let Some(trip) = self.budget.checkpoint() {
                report.outcome = trip.into();
                return;
            }
            if !checks.holds(g, rules, v.rule, &mut v.m) {
                // Another match of the footprint binding may still hold:
                // it pops where a queue of every match would have it.
                if let Some(m) = self.other_witness(g, rules, checks, planner, &v) {
                    queue.push(Violation { m, ..v });
                }
                continue;
            }
            if scope.is_none() && !self.admit(&mut churn, &v) {
                residue.push((v.rule, v.m));
                continue;
            }
            // The backstop only stops a repair that is still needed: a
            // run whose last needed repair lands on the cap, with stale
            // entries still queued, completes. A stratum is capped here
            // only once a re-match has falsified its termination proof.
            if (scope.is_none() || unsound) && report.repairs_applied >= max_repairs {
                report.outcome = RepairOutcome::RoundLimit;
                queue.leave(v, residue);
                return;
            }
            if !self.apply(g, rules, checks, &v, report, tel, &mut applied) {
                residue.push((v.rule, v.m));
                continue;
            }
            if let Some(delta) = delta.as_deref_mut() {
                delta.extend(&applied.touched);
            }
            sink.round(&applied.ops);
            report.ops_applied += applied.ops.len();
            self.budget.charge_ops(applied.ops.len() as u64);
            // A repair may not fully eliminate its own violation (e.g. it
            // deleted one of several parallel witness edges): revalidate
            // the very violation just repaired and requeue it if it
            // persists — the trigger filter below only covers *newly
            // created* matches. On a cyclic set the churn guard bounds
            // these; in a stratum the cap does, for a rule whose repair
            // never falsifies its own violation.
            if checks.holds(g, rules, v.rule, &mut v.m) {
                if scope.is_some() {
                    if requeues == max_repairs {
                        // No rule of the stratum can be enabled by this
                        // repair: the queue holds the stratum's matches.
                        report.outcome = RepairOutcome::RoundLimit;
                        queue.leave(v, residue);
                        return;
                    }
                    requeues += 1;
                }
                queue.push(self.violation(g, rules, checks, v.rule, v.m));
            } else if let Some(m) = self.other_witness(g, rules, checks, planner, &v) {
                // Not a requeue: the binding's next match, which a queue
                // of every match held from the seed on.
                queue.push(Violation { m, ..v });
            }
            // Delta-driven discovery: only trigger-affected rules in
            // scope, only matches anchored in the delta. Within a stratum
            // no rule can label-enable another (that edge would have
            // forced a later stratum), so the precheck skips the lookup;
            // were the index ever to disagree with the stratification,
            // the lookup runs and the check below fires. The planner's
            // cache serves the per-anchor plans — compiled once per
            // (pattern, anchor), not once per repair.
            if rematches[v.rule] {
                triggers.enabled_by(&applied.ops, &mut enabled);
                if let Some(stratum) = scope {
                    enabled.retain(|ri| stratum.binary_search(ri).is_ok());
                }
            } else {
                enabled.clear();
            }
            tel.rematch_rules.record(enabled.len() as u64);
            if enabled.is_empty() {
                continue;
            }
            let matcher = self.matcher(g, planner);
            for &ri in &enabled {
                let (pattern, footprint) = (&rules[ri].pattern, checks.footprints[ri]);
                let found = matcher.find_touching_distinct(pattern, footprint, &applied.touched);
                // The trigger graph put every rule this repair can enable
                // in a later stratum: a match found here means it missed
                // an edge.
                if scope.is_some() && !found.is_empty() {
                    tel.stratum_rematches.add(found.len() as u64);
                    unsound = true;
                    debug_assert!(
                        false,
                        "trigger graph missed an edge: rule `{}` re-matched in its own stratum",
                        rules[ri].name
                    );
                }
                for m in found {
                    report.per_rule[ri].matches_found += 1;
                    queue.push(self.violation(g, rules, checks, ri, m));
                }
            }
        }
    }

    /// Price match `m` of `rules[ri]` for the arbitration queue.
    fn violation(
        &self,
        g: &Graph,
        rules: &[Grr],
        checks: &mut RuleChecks,
        ri: usize,
        m: Match,
    ) -> Violation {
        let ids = checks.actions(g, rules, ri);
        Violation {
            rule: ri,
            cost: estimate_with(g, &rules[ri], ids, &m, &EditCosts::default()),
            m,
            priority: rules[ri].priority,
        }
    }

    /// For violation `v` whose stored match no longer holds: the smallest
    /// match of its footprint binding that does. There is none for a rule
    /// without existential variables — tested here, inline, as every
    /// repair of such a rule in a stratum asks — nor when a check on the
    /// footprint alone fails; otherwise it is searched for.
    #[inline(always)]
    fn other_witness(
        &self,
        g: &Graph,
        rules: &[Grr],
        checks: &mut RuleChecks,
        planner: &Planner,
        v: &Violation,
    ) -> Option<Match> {
        if checks.footprints[v.rule] == rules[v.rule].pattern.all_vars() {
            return None;
        }
        self.search_other_witness(g, rules, checks, planner, v)
    }

    /// [`RepairEngine::other_witness`] for a rule with existential
    /// variables. Kept out of the worklist loop's body, which every repair
    /// runs through: inlined there, it slowed the `cascade-rounds-inmem`
    /// benchmark, whose rules have none (EXPERIMENTS.md, "Third build").
    #[cold]
    #[inline(never)]
    fn search_other_witness(
        &self,
        g: &Graph,
        rules: &[Grr],
        checks: &mut RuleChecks,
        planner: &Planner,
        v: &Violation,
    ) -> Option<Match> {
        if !checks.holds_on_footprint(g, rules, v.rule, &v.m) {
            return None;
        }
        let footprint = checks.footprints[v.rule];
        self.matcher(g, planner)
            .min_witness(&rules[v.rule].pattern, footprint, &v.m.nodes)
    }

    /// Churn admission: identical (rule, nodes) repairs are capped.
    fn admit(&self, churn: &mut FxHashMap<u64, u32>, v: &Violation) -> bool {
        use std::hash::{Hash, Hasher};
        let mut h = rustc_hash::FxHasher::default();
        (v.rule, &v.m.nodes).hash(&mut h);
        let counter = churn.entry(h.finish()).or_insert(0);
        if *counter >= MAX_CHURN {
            return false;
        }
        *counter += 1;
        true
    }

    /// Apply `v` into `applied`; returns whether it changed anything.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        g: &mut Graph,
        rules: &[Grr],
        checks: &mut RuleChecks,
        v: &Violation,
        report: &mut RepairReport,
        tel: &EngineTelemetry,
        applied: &mut Applied,
    ) -> bool {
        let repair_started = obs::timer();
        let ids = checks.actions(g, rules, v.rule);
        apply_into(g, &rules[v.rule], ids, &v.m, &EditCosts::default(), applied)
            .expect("validated rule on revalidated match cannot fail");
        obs::record_since(&tel.rule_repair_ns, repair_started);
        if applied.is_noop() {
            return false;
        }
        report.repairs_applied += 1;
        tel.repairs_applied.inc();
        report.total_cost += applied.cost;
        report.per_rule[v.rule].repairs_applied += 1;
        report.per_rule[v.rule].cost += applied.cost;
        true
    }
}

/// Per rule of a run: its footprint ([`Grr::footprint`]), and its pattern
/// and action names resolved against the graph's vocabulary, for
/// revalidation and for pricing and applying its repairs — each resolved
/// at its first use in a run, and again at its next use after a repair
/// interned a new label or attribute key (a name the old resolution read
/// as absent may now be present).
struct RuleChecks {
    footprints: Vec<u64>,
    resolved: Vec<Option<CompiledPattern>>,
    actions: Vec<Option<ActionIds>>,
}

impl RuleChecks {
    fn new(rules: &[Grr]) -> Self {
        RuleChecks {
            footprints: rules.iter().map(Grr::footprint).collect(),
            resolved: vec![None; rules.len()],
            actions: vec![None; rules.len()],
        }
    }

    /// `rules[ri]`'s action names, resolved for `g`'s vocabulary.
    fn actions(&mut self, g: &Graph, rules: &[Grr], ri: usize) -> &mut ActionIds {
        let rule = &rules[ri];
        let ids = self.actions[ri].get_or_insert_with(|| ActionIds::new(g, rule));
        ids.refresh(g, rule);
        ids
    }

    /// `rules[ri]`'s pattern, resolved for `g`'s vocabulary.
    fn resolve(&mut self, g: &Graph, rules: &[Grr], ri: usize) -> &CompiledPattern {
        let pattern = &rules[ri].pattern;
        let check = self.resolved[ri].get_or_insert_with(|| CompiledPattern::new(g, pattern));
        check.refresh(g, pattern);
        check
    }

    /// Whether match `m` of `rules[ri]` still holds; refreshes its
    /// witness edges.
    fn holds(&mut self, g: &Graph, rules: &[Grr], ri: usize, m: &mut Match) -> bool {
        self.resolve(g, rules, ri).holds(g, m)
    }

    /// Whether the checks of `rules[ri]` that read only its footprint pass
    /// on `m`: if not, no match of `m`'s footprint binding holds.
    fn holds_on_footprint(&mut self, g: &Graph, rules: &[Grr], ri: usize, m: &Match) -> bool {
        let footprint = self.footprints[ri];
        self.resolve(g, rules, ri).holds_on(g, &m.nodes, footprint)
    }

    /// The run's `violations_remaining`: each (rule, footprint binding)
    /// of the residue once, counting every match of it that still holds —
    /// the count a sweep of the graph finds.
    fn count_residue(
        &mut self,
        g: &Graph,
        rules: &[Grr],
        matcher: &Matcher<'_>,
        residue: Vec<(usize, Match)>,
    ) -> usize {
        let binding = |ri: usize, m: &Match| -> Vec<NodeId> {
            let footprint = self.footprints[ri];
            (0..m.nodes.len())
                .filter(|v| footprint >> v & 1 == 1)
                .map(|v| m.nodes[v])
                .collect()
        };
        let mut keyed: Vec<_> = residue
            .into_iter()
            .map(|(ri, m)| ((ri, binding(ri, &m)), m))
            .collect();
        keyed.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        keyed.dedup_by(|(a, _), (b, _)| a == b);
        keyed
            .into_iter()
            .map(|((ri, _), mut m)| {
                let (pattern, footprint) = (&rules[ri].pattern, self.footprints[ri]);
                if footprint == pattern.all_vars() {
                    usize::from(self.holds(g, rules, ri, &mut m))
                } else {
                    matcher.count_witnesses(pattern, footprint, &m.nodes)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{l_overlap, Preconditions};
    use crate::apply::apply_rule;
    use crate::dsl::parse_rules;
    use grepair_graph::Value;

    /// The trigger filter as a walk over one rule's preconditions — the
    /// predicate [`TriggerIndex::enabled_by`] must compute exactly: can
    /// any of `ops` enable a new match of a rule with preconditions `pre`?
    fn ops_can_enable(ops: &[AppliedOp], pre: &Preconditions) -> bool {
        let some = |l: &str| Some(l.to_owned());
        for op in ops {
            let hit = match op {
                AppliedOp::InsertNode { label, .. } => pre
                    .node_label
                    .iter()
                    .any(|p| l_overlap(&some(label), p)),
                AppliedOp::InsertEdge { label, .. } => {
                    pre.pos_edge.iter().any(|p| l_overlap(&some(label), p))
                }
                // Deleting a node removes incident edges of unknown labels:
                // any negative / no-edge condition could be enabled.
                AppliedOp::DeleteNode { .. } => !pre.neg_edge.is_empty(),
                AppliedOp::DeleteEdge { label, .. } => {
                    pre.neg_edge.iter().any(|p| l_overlap(&some(label), p))
                }
                AppliedOp::RelabelNode { to, .. } => {
                    pre.node_label.iter().any(|p| l_overlap(&some(to), p))
                }
                AppliedOp::SetAttr { key, .. } => {
                    pre.needs_attr.iter().any(|p| l_overlap(&some(key), p))
                }
                AppliedOp::RemoveAttr { key, .. } => {
                    pre.missing_attr.iter().any(|p| l_overlap(&some(key), p))
                }
                AppliedOp::RelabelEdge { from, to, .. } => {
                    pre.pos_edge.iter().any(|p| l_overlap(&some(to), p))
                        || pre.neg_edge.iter().any(|p| l_overlap(&some(from), p))
                }
                // Merges rewire edges of arbitrary labels and union
                // attributes: conservatively affects everything.
                AppliedOp::Merge { .. } => true,
            };
            if hit {
                return true;
            }
        }
        false
    }

    /// A small KG with one violation of each class.
    fn dirty_graph() -> Graph {
        let mut g = Graph::new();
        let ssn = g.attr_key("ssn");
        // Incompleteness: person in a city of a country, no citizenship.
        let p1 = g.add_node_named("Person");
        let c1 = g.add_node_named("City");
        let k1 = g.add_node_named("Country");
        g.add_edge_named(p1, c1, "livesIn").unwrap();
        g.add_edge_named(c1, k1, "inCountry").unwrap();
        // Conflict: self-marriage loop.
        let p2 = g.add_node_named("Person");
        g.add_edge_named(p2, p2, "marriedTo").unwrap();
        // Redundancy: two persons with the same ssn.
        let d1 = g.add_node_named("Person");
        let d2 = g.add_node_named("Person");
        g.set_attr(d1, ssn, Value::Int(42)).unwrap();
        g.set_attr(d2, ssn, Value::Int(42)).unwrap();
        g.add_edge_named(d1, c1, "livesIn").unwrap();
        g.add_edge_named(d2, c1, "livesIn").unwrap();
        g
    }

    fn rules() -> Vec<Grr> {
        parse_rules(
            "rule add_citizenship [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair insert edge (x)-[citizenOf]->(k)

             rule no_self_marriage [conflict]
             match (x:Person)-[marriedTo]->(x)
             repair delete edge (x)-[marriedTo]->(x)

             rule dedup_person [redundancy]
             match (x:Person), (y:Person)
             where x.ssn == y.ssn
             repair merge y into x",
        )
        .unwrap()
    }

    #[test]
    fn incremental_engine_repairs_all_classes() {
        let mut g = dirty_graph();
        let rules = rules();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert!(report.converged, "residual: {}", report.violations_remaining);
        assert!(report.repairs_applied >= 3);
        g.check_invariants().unwrap();
        // Citizenship edges exist for all remaining persons in c1/k1.
        let citizen = g.try_label("citizenOf").unwrap();
        assert!(g.edges().any(|e| g.edge(e).unwrap().label == citizen));
        // Duplicates merged: 42-ssn person unique.
        let ssn = g.try_attr_key("ssn").unwrap();
        let dupes = g
            .nodes()
            .filter(|&n| g.attr(n, ssn) == Some(&Value::Int(42)))
            .count();
        assert_eq!(dupes, 1);
    }

    #[test]
    fn repair_is_idempotent() {
        let mut g = dirty_graph();
        let rules = rules();
        let engine = RepairEngine::default();
        engine.repair(&mut g, &rules);
        let before = (g.num_nodes(), g.num_edges());
        let second = engine.repair(&mut g, &rules);
        assert!(second.converged);
        assert_eq!(second.repairs_applied, 0, "fixpoint must be stable");
        assert_eq!((g.num_nodes(), g.num_edges()), before);
    }

    #[test]
    fn cascading_repairs_propagate() {
        // Fixing citizenship enables a second rule keyed on citizenOf.
        let mut g = Graph::new();
        let p = g.add_node_named("Person");
        let c = g.add_node_named("City");
        let k = g.add_node_named("Country");
        g.add_edge_named(p, c, "livesIn").unwrap();
        g.add_edge_named(c, k, "inCountry").unwrap();
        let rules = parse_rules(
            "rule add_citizenship [incompleteness]
             match (x:Person)-[livesIn]->(c:City)-[inCountry]->(k:Country)
             where not (x)-[citizenOf]->(k)
             repair insert edge (x)-[citizenOf]->(k)

             rule mark_citizen [incompleteness]
             match (x:Person)-[citizenOf]->(k:Country)
             where missing(x.hasCitizenship)
             repair set x.hasCitizenship = true",
        )
        .unwrap();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert!(report.converged);
        assert_eq!(report.repairs_applied, 2);
        let key = g.try_attr_key("hasCitizenship").unwrap();
        assert_eq!(g.attr(p, key), Some(&Value::Bool(true)));
    }

    #[test]
    fn churn_guard_stops_oscillation() {
        // Two rules that flip an attribute forever: the trigger graph is a
        // 2-cycle, so the stratified scheduler declines and the
        // churn-guarded worklist runs. Two bystander nodes lift the repair
        // cap (10·(3+0+1) = 40) above the guard's 2 × 16.
        let mut g = Graph::new();
        g.add_node_named("Q");
        g.add_node_named("Q");
        let n = g.add_node_named("P");
        let k = g.attr_key("v");
        g.set_attr(n, k, Value::Int(0)).unwrap();
        let rules = parse_rules(
            "rule up [conflict] match (x:P) where x.v == 0 repair set x.v = 1
             rule down [conflict] match (x:P) where x.v == 1 repair set x.v = 0",
        )
        .unwrap();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(report.strata, 0, "the flip-flop is cyclic");
        assert!(!report.converged, "oscillation cannot converge");
        assert_eq!(report.outcome, RepairOutcome::Completed);
        assert_eq!(
            report.repairs_applied,
            2 * MAX_CHURN as usize,
            "the churn guard must stop each rule after MAX_CHURN repairs"
        );
        g.check_invariants().unwrap();
    }

    /// A few flagged nodes plus the single rule that clears the flag.
    fn flag_fixture() -> (Graph, Vec<Grr>) {
        let mut g = Graph::new();
        let k = g.attr_key("flag");
        for _ in 0..3 {
            let n = g.add_node_named("P");
            g.set_attr(n, k, Value::Int(0)).unwrap();
        }
        let rules =
            parse_rules("rule f [conflict] match (x:P) where x.flag == 0 repair set x.flag = 1")
                .unwrap();
        (g, rules)
    }

    #[test]
    fn converged_run_reports_completed_outcome() {
        let (mut g, rules) = flag_fixture();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert!(report.converged);
        assert_eq!(report.outcome, RepairOutcome::Completed);
        assert!(!report.outcome.is_budget_trip());
    }

    #[test]
    fn pre_cancelled_budget_yields_cancelled_outcome_and_untouched_graph() {
        let (mut g, rules) = flag_fixture();
        let before = g.to_doc();
        let budget = obs::Budget::unlimited();
        budget.cancel();
        let report = RepairEngine::default()
            .with_budget(&budget)
            .repair(&mut g, &rules);
        assert_eq!(report.outcome, RepairOutcome::Cancelled);
        assert_eq!(report.ops_applied, 0);
        assert_eq!(g.to_doc(), before);
    }

    #[test]
    fn expired_test_clock_deadline_yields_deadline_outcome() {
        let (mut g, rules) = flag_fixture();
        let clock = obs::TestClock::new();
        let budget = obs::Budget::unlimited()
            .with_test_clock(&clock)
            .with_deadline(std::time::Duration::from_millis(5));
        clock.advance(std::time::Duration::from_millis(10));
        for match_config in [MatchConfig::naive(), MatchConfig::default()] {
            let mut g2 = g.clone();
            let fresh = obs::Budget::unlimited()
                .with_test_clock(&clock)
                .with_deadline(std::time::Duration::from_millis(5));
            let report = RepairEngine::new(match_config)
                .with_budget(&fresh)
                .repair(&mut g2, &rules);
            assert_eq!(report.outcome, RepairOutcome::Deadline);
            assert_eq!(report.ops_applied, 0);
        }
        let report = RepairEngine::default()
            .with_budget(&budget)
            .repair(&mut g, &rules);
        assert_eq!(report.outcome, RepairOutcome::Deadline);
    }

    #[test]
    fn op_budget_trips_after_committed_round() {
        // Independent violations repaired one per round; an op cap of 1
        // trips after the first committed round.
        let mut g = Graph::new();
        let k = g.attr_key("flag");
        for _ in 0..4 {
            let n = g.add_node_named("P");
            g.set_attr(n, k, Value::Int(0)).unwrap();
        }
        let rules =
            parse_rules("rule f [conflict] match (x:P) where x.flag == 0 repair set x.flag = 1")
                .unwrap();
        let budget = obs::Budget::unlimited().with_op_cap(1);
        let report = RepairEngine::default()
            .with_budget(&budget)
            .repair(&mut g, &rules);
        assert_eq!(report.outcome, RepairOutcome::OpBudget);
        assert!(report.ops_applied > 0);
        assert!(report.ops_applied < 4, "should stop before fixing all nodes");
    }

    #[test]
    fn op_budget_tripped_by_the_last_repair_is_no_fixpoint() {
        // `f`'s one repair reaches the op cap, and the tripped budget
        // cuts short the re-match that would find `g`'s new match. The
        // queue is then empty, and no pop observes the trip: the run must
        // still end on it, not report a fixpoint its residue cannot see.
        let mut g = Graph::new();
        let k = g.attr_key("flag");
        let n = g.add_node_named("P");
        g.set_attr(n, k, Value::Int(0)).unwrap();
        let rules = parse_rules(
            "rule f [conflict] match (x:P) where x.flag == 0 repair set x.flag = 1
             rule g [conflict] match (x:P) where x.flag == 1 repair set x.flag = 2",
        )
        .unwrap();
        let budget = obs::Budget::unlimited().with_op_cap(1);
        let engine = RepairEngine::default().with_budget(&budget);
        let report = engine.repair(&mut g, &rules);
        assert_eq!(report.strata, 0, "a cyclic set: one worklist");
        assert_eq!(report.repairs_applied, 1);
        assert_eq!(report.outcome, RepairOutcome::OpBudget);
        assert!(!report.converged);
        assert_eq!(RepairEngine::default().count_violations(&g, &rules), 1);
    }

    #[test]
    fn sink_gets_one_round_per_applied_repair() {
        // The three-class set (cyclic: one worklist over Σ) and a
        // cascade (acyclic: one worklist per stratum).
        let (cascade, chain) = (parse_rules(&cascade_src(2)).unwrap(), cascade_graph(3));
        for (rules, base, strata) in [(&rules(), &dirty_graph(), 0), (&cascade, &chain, 2)] {
            let mut g2 = base.clone();
            let mut rounds: Vec<usize> = Vec::new();
            let sink = |ops: &[AppliedOp]| rounds.push(ops.len());
            let (planner, full) = (Planner::new(), RepairSeed::Full);
            let report = RepairEngine::default().repair_with(&mut g2, rules, &planner, full, sink);
            let ctx = format!("{} rules/{strata} strata", rules.len());
            assert_eq!(report.strata, strata, "{ctx}");
            assert_eq!(report.outcome, RepairOutcome::Completed, "{ctx}");
            assert_eq!(rounds.len(), report.repairs_applied, "{ctx}: one round per repair");
            assert!(rounds.iter().all(|&n| n > 0), "{ctx}: no empty round");
            assert_eq!(rounds.iter().sum::<usize>(), report.ops_applied, "{ctx}");
        }
    }

    #[test]
    fn cost_arbitration_prefers_cheap_repair() {
        // Two rules can fix the same violation: one deletes a hub node
        // (expensive), one deletes the offending edge (cheap). The cheap
        // one must win and the expensive one revalidate away.
        let mut g = Graph::new();
        let hub = g.add_node_named("Person");
        let spouse = g.add_node_named("Person");
        g.add_edge_named(hub, spouse, "marriedTo").unwrap();
        g.add_edge_named(hub, hub, "marriedTo").unwrap(); // violation
        for _ in 0..5 {
            let f = g.add_node_named("Person");
            g.add_edge_named(hub, f, "knows").unwrap();
        }
        let rules = parse_rules(
            "rule drop_self_marriage [conflict]
             match (x:Person)-[marriedTo]->(x)
             repair delete edge (x)-[marriedTo]->(x)

             rule nuke_self_marrier [conflict]
             match (x:Person)-[marriedTo]->(x)
             repair delete node x",
        )
        .unwrap();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert!(report.converged);
        assert!(g.contains_node(hub), "hub must survive (cheap repair wins)");
        assert_eq!(report.per_rule[0].repairs_applied, 1);
        assert_eq!(report.per_rule[1].repairs_applied, 0);
    }

    #[test]
    fn priority_breaks_cost_ties() {
        let mk = |g: &mut Graph| {
            let a = g.add_node_named("P");
            let b = g.add_node_named("P");
            g.add_edge_named(a, b, "bad").unwrap();
            (a, b)
        };
        let rules = parse_rules(
            "rule low [conflict] priority 1
             match (x:P)-[bad]->(y:P)
             repair relabel edge (x)-[bad]->(y) to fineLow

             rule high [conflict] priority 9
             match (x:P)-[bad]->(y:P)
             repair relabel edge (x)-[bad]->(y) to fineHigh",
        )
        .unwrap();
        let mut g = Graph::new();
        mk(&mut g);
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert!(report.converged);
        assert_eq!(report.per_rule[1].repairs_applied, 1, "high priority wins");
        assert_eq!(report.per_rule[0].repairs_applied, 0);
        assert!(g.try_label("fineHigh").is_some());
    }

    /// Repair nodes `P1`, `P2` and `Q` with rules `a` and `b`, where
    /// `a`'s repairs intern the name `b`'s pattern depends on, unknown
    /// when the run first resolved it: `b`'s no-op at `P1` (cost 0; `seed`
    /// makes it one) pops first, then `a`'s repairs (equal cost, higher
    /// priority), then `b` at `P2`, which must see the new name and find
    /// its violation gone. Returns the graph, `P2` and `Q`.
    fn repair_interning_mid_run(
        rules: &str,
        seed: impl FnOnce(&mut Graph, NodeId, NodeId),
    ) -> (Graph, NodeId, NodeId) {
        let rules = parse_rules(rules).unwrap();
        let mut g = Graph::new();
        let (p1, p2, q) = (g.add_node_named("P"), g.add_node_named("P"), g.add_node_named("Q"));
        seed(&mut g, p1, q);
        assert!(g.try_attr_key("k").is_none() && g.try_label("r").is_none());
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(report.per_rule[1].matches_found, 2, "b's violations were queued");
        assert_eq!(report.per_rule[0].repairs_applied, 2);
        assert_eq!(report.per_rule[1].repairs_applied, 0, "b must revalidate false");
        assert!(report.converged);
        (g, p2, q)
    }

    #[test]
    fn revalidation_sees_names_interned_mid_run() {
        // A key that `missing(x.k)` reads.
        let (g, p2, _) = repair_interning_mid_run(
            "rule a [incompleteness] priority 9
             match (x:P) where missing(x.k)
             repair set x.k = 1

             rule b [incompleteness] priority 1
             match (x:P) where missing(x.k)
             repair set x.j = 2",
            |g, p1, _| {
                let j = g.attr_key("j");
                g.set_attr(p1, j, Value::Int(2)).unwrap();
            },
        );
        assert!(g.attr(p2, g.try_attr_key("j").unwrap()).is_none());
        // The label of a negative edge.
        let (g, p2, q) = repair_interning_mid_run(
            "rule a [incompleteness] priority 9
             match (x:P), (y:Q) where not (x)-[r]->(y)
             repair insert edge (x)-[r]->(y)

             rule b [incompleteness] priority 1
             match (x:P), (y:Q) where not (x)-[r]->(y)
             repair insert edge (x)-[s]->(y)",
            |g, p1, q| {
                g.add_edge_named(p1, q, "s").unwrap();
            },
        );
        assert!(!g.has_edge_labeled(p2, q, g.try_label("s").unwrap()));
    }

    #[test]
    fn existential_violation_outlives_its_stored_witness() {
        // `tag`'s footprint is {x}: `c` is existential, and x's one
        // violation is queued with its smallest witness, (x, c1). `spoil`
        // (equal cost, higher priority) pops first and falsifies that
        // witness; (x, c2) still holds, so `tag` must still repair x.
        let rules = parse_rules(
            "rule spoil [conflict] priority 9
             match (c:C) where c.ok == 1, has(c.bad)
             repair set c.ok = 0

             rule tag [incompleteness]
             match (x:P)-[r]->(c:C) where missing(x.t), c.ok == 1
             repair set x.t = 1",
        )
        .unwrap();
        let mut g = Graph::new();
        let (ok, bad) = (g.attr_key("ok"), g.attr_key("bad"));
        let x = g.add_node_named("P");
        let (c1, c2) = (g.add_node_named("C"), g.add_node_named("C"));
        for c in [c1, c2] {
            g.add_edge_named(x, c, "r").unwrap();
            g.set_attr(c, ok, Value::Int(1)).unwrap();
        }
        g.set_attr(c1, bad, Value::Bool(true)).unwrap();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(report.strata, 0, "`spoil` can enable itself: one worklist");
        assert_eq!(
            report.per_rule[1].matches_found, 1,
            "one violation for x, not one per c"
        );
        assert_eq!(report.per_rule[0].repairs_applied, 1);
        assert_eq!(
            report.per_rule[1].repairs_applied, 1,
            "the surviving witness is repaired"
        );
        assert!(report.converged);
        assert_eq!(
            g.attr(x, g.try_attr_key("t").unwrap()),
            Some(&Value::Int(1))
        );

        // A repair that falsifies its own witness but not its binding:
        // x.v = 1 settles (x, c1) only. The binding is requeued at (x, c2),
        // and found there again by the re-match its own `SetAttr` triggers;
        // both entries' repair is a no-op: one residual violation.
        let rules = parse_rules(
            "rule align [conflict]
             match (x:P)-[r]->(c:C) where x.v != c.v
             repair set x.v = 1",
        )
        .unwrap();
        let mut g = Graph::new();
        let v = g.attr_key("v");
        let x = g.add_node_named("P");
        g.set_attr(x, v, Value::Int(0)).unwrap();
        for value in [1, 2] {
            let c = g.add_node_named("C");
            g.add_edge_named(x, c, "r").unwrap();
            g.set_attr(c, v, Value::Int(value)).unwrap();
        }
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(
            (report.per_rule[0].matches_found, report.repairs_applied),
            (2, 1)
        );
        assert_eq!(report.outcome, RepairOutcome::Completed);
        assert_eq!(report.violations_remaining, 1);
        assert!(!report.converged);
    }

    #[test]
    fn churn_guard_counts_a_binding_not_each_of_its_witnesses() {
        // `grow`'s footprint is {x}; its repair inserts a P node, so the set
        // is cyclic, and never falsifies (x, c1) or (x, c2). The churn guard
        // stops the binding after MAX_CHURN repairs of its smallest witness:
        // (x, c2) is never popped on its own, where a queue of every match
        // repaired it MAX_CHURN times more. Both witnesses are residue. The
        // cap, 10·(3+2+1) = 60, is not reached.
        let rules = parse_rules(
            "rule grow [incompleteness]
             match (x:P)-[r]->(c:C)
             repair insert node (n:P); insert edge (x)-[s]->(n)",
        )
        .unwrap();
        let mut g = Graph::new();
        let x = g.add_node_named("P");
        for _ in 0..2 {
            let c = g.add_node_named("C");
            g.add_edge_named(x, c, "r").unwrap();
        }
        let engine = RepairEngine::default();
        let report = engine.repair(&mut g, &rules);
        assert_eq!(report.strata, 0, "`grow` can enable itself: one worklist");
        assert_eq!(report.outcome, RepairOutcome::Completed);
        assert_eq!(report.repairs_applied, MAX_CHURN as usize);
        assert_eq!(report.violations_remaining, 2, "every witness of x");
        assert_eq!(
            report.violations_remaining,
            engine.count_violations(&g, &rules)
        );
    }

    #[test]
    fn empty_footprint_is_one_violation_counting_every_witness() {
        // `grow` reads no variable: its three matches are one violation,
        // repaired at the smallest, and its repair never falsifies it. The
        // stratum's requeues hit the cap, 10·(3+0+1) = 40, after the seed's
        // repair; the residual count is still every match.
        let rules =
            parse_rules("rule grow [incompleteness] match (x:P) repair insert node (n:Q)").unwrap();
        let mut g = Graph::new();
        for _ in 0..3 {
            g.add_node_named("P");
        }
        let engine = RepairEngine::default();
        let report = engine.repair(&mut g, &rules);
        assert_eq!(report.strata, 1);
        assert_eq!(
            report.per_rule[0].matches_found, 1,
            "one violation per footprint binding"
        );
        assert_eq!(report.outcome, RepairOutcome::RoundLimit);
        assert_eq!(report.repairs_applied, 41);
        assert_eq!(
            report.violations_remaining, 3,
            "every witness of the binding counts"
        );
        assert_eq!(
            report.violations_remaining,
            engine.count_violations(&g, &rules)
        );
    }

    #[test]
    fn sink_sees_every_applied_op_in_order() {
        let mut shapes = Vec::new();
        for match_config in [MatchConfig::default(), MatchConfig::naive()] {
            // Two runs from the same graph: the sink must see the same
            // ops in the same order, every one the report counts.
            let run = || {
                let mut g = dirty_graph();
                let mut seen: Vec<AppliedOp> = Vec::new();
                let sink = |ops: &[AppliedOp]| seen.extend_from_slice(ops);
                let (planner, full) = (Planner::new(), RepairSeed::Full);
                let engine = RepairEngine::new(match_config);
                let report = engine.repair_with(&mut g, &rules(), &planner, full, sink);
                (report, seen, g)
            };
            let (report, seen, g) = run();
            assert!(report.converged);
            assert_eq!(seen.len(), report.ops_applied, "sink must see every op");
            assert!(!seen.is_empty());
            assert_eq!(seen, run().1, "op order is deterministic");
            shapes.push((g.num_nodes(), g.num_edges()));
        }
        // Both matchers reach the same fixpoint shape (ids may differ).
        assert_eq!(shapes[0], shapes[1]);
    }

    #[test]
    fn report_accounting_consistent() {
        let mut g = dirty_graph();
        let rules = rules();
        let report = RepairEngine::default().repair(&mut g, &rules);
        let per_rule_sum: usize = report.per_rule.iter().map(|s| s.repairs_applied).sum();
        assert_eq!(per_rule_sum, report.repairs_applied);
        let per_rule_cost: f64 = report.per_rule.iter().map(|s| s.cost).sum();
        assert!((per_rule_cost - report.total_cost).abs() < 1e-9);
        assert!(report.ops_applied >= report.repairs_applied);
        assert!(report.repairs_applied > 0);
    }

    #[test]
    fn trigger_filter_skips_unrelated_rules() {
        // A cascade over attribute a0→a1→…, plus rules keyed on labels and
        // attributes the repairs never touch. The unrelated rules must not
        // be re-matched after any repair: their matches_found stays at the
        // initial-scan count (zero).
        let mut src = String::new();
        for i in 0..4 {
            src.push_str(&format!(
                "rule stage{i} [incompleteness]
                 match (x:T) where has(x.a{i}), missing(x.a{next})
                 repair set x.a{next} = true\n",
                next = i + 1
            ));
        }
        for i in 0..20 {
            src.push_str(&format!(
                "rule unrelated{i} [conflict]
                 match (x:Q)-[rel{i}]->(y:Q)
                 where x.other{i} == 1
                 repair delete edge (x)-[rel{i}]->(y)\n"
            ));
        }
        let rules = parse_rules(&src).unwrap();
        let mut g = Graph::new();
        let a0 = g.attr_key("a0");
        for _ in 0..20 {
            let n = g.add_node_named("T");
            g.set_attr(n, a0, Value::Bool(true)).unwrap();
        }
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert!(report.converged);
        assert_eq!(report.repairs_applied, 4 * 20);
        for s in report.per_rule.iter().filter(|s| s.name.starts_with("unrelated")) {
            assert_eq!(
                s.matches_found, 0,
                "{} must never be re-matched",
                s.name
            );
        }
    }

    /// The attribute-cascade rule source shared by the scheduling and
    /// plan-cache tests (the `e2e` benchmark's `cascade-rounds-inmem`
    /// workload runs the same shape at 8 stages).
    fn cascade_src(stages: usize) -> String {
        let mut src = String::new();
        for i in 0..stages {
            src.push_str(&format!(
                "rule stage{i} [incompleteness]
                 match (x:T) where has(x.a{i}), missing(x.a{next})
                 repair set x.a{next} = true\n",
                next = i + 1
            ));
        }
        src
    }

    /// The cascade plus a rule closing its trigger graph into a cycle:
    /// `back` is enabled by the last stage and enables the first, but
    /// never matches while every node keeps `a0`. The set runs as one
    /// worklist over Σ, to the cascade's fixpoint.
    fn cyclic_cascade_src(stages: usize) -> String {
        cascade_src(stages)
            + &format!(
                "rule back [incompleteness]
                 match (x:T) where has(x.a{stages}), missing(x.a0)
                 repair set x.a0 = true\n"
            )
    }

    /// `n` T-nodes carrying only `a0` — the cascade's starting line.
    fn cascade_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let a0 = g.attr_key("a0");
        for _ in 0..n {
            let node = g.add_node_named("T");
            g.set_attr(node, a0, Value::Bool(true)).unwrap();
        }
        g
    }

    #[test]
    fn plan_cache_avoids_per_repair_compiles_incremental() {
        // Attribute cascade: every repair triggers a `find_touching` of
        // the next stage, but the (pattern, anchor) plan is compiled once
        // and then served from the cache — SetAttr ops intern no new
        // name, so the plan key stays put.
        // The cyclic cascade runs one worklist over Σ: `find_touching`'s
        // per-anchor plan reuse is exactly what this test measures, and
        // the plain cascade would run stratified (no per-repair
        // re-matching at all).
        let rules = parse_rules(&cyclic_cascade_src(4)).unwrap();
        let mut g = cascade_graph(20);
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(report.strata, 0);
        assert!(report.converged);
        assert_eq!(report.repairs_applied, 80);
        assert!(report.pattern_compiles > 0);
        assert!(
            report.plan_cache_hits > report.pattern_compiles,
            "80 repairs × re-matching must mostly hit the cache (compiles {}, hits {})",
            report.pattern_compiles,
            report.plan_cache_hits
        );
    }

    #[test]
    fn caller_owned_planner_carries_plans_across_runs() {
        // One long-lived planner over repeated repair runs: once the
        // vocabulary stops growing, a run's scans must be served entirely
        // from the warmed plan cache, and the report counters must be
        // per-run deltas rather than planner-lifetime totals.
        // The cyclic cascade: the hit/compile arithmetic below assumes the
        // worklist's per-anchor plans, not stratified scans.
        let rules = parse_rules(&cyclic_cascade_src(3)).unwrap();
        let mut g = cascade_graph(10);
        let engine = RepairEngine::default();
        let planner = Planner::new();
        let run = |g: &mut Graph| {
            engine.repair_with(g, &rules, &planner, RepairSeed::Full, |_: &[AppliedOp]| {})
        };
        let r1 = run(&mut g);
        assert_eq!(r1.strata, 0);
        assert!(r1.converged);
        assert_eq!(r1.repairs_applied, 30);
        assert!(r1.pattern_compiles > 0);

        // A plan is compiled again only once a name it reads gets an id.
        // Run 1 compiled its seed's full-scan plans while only `a0` was
        // interned, and its repairs interned `a1`–`a3`, each read by some
        // rule's scan: run 2 compiles each rule's scan again, and nothing
        // else.
        let r2 = run(&mut g);
        assert!(r2.converged);
        assert_eq!(r2.repairs_applied, 0, "already at fixpoint");
        assert_eq!(
            r2.pattern_compiles,
            rules.len() as u64,
            "only the scans run 1 planned before their names existed recompile"
        );

        // Names no rule reads grow the vocabulary but leave every plan
        // valid.
        g.label("Unrelated");
        g.attr_key("unrelated");
        let r3 = run(&mut g);
        assert!(r3.converged);
        assert_eq!(
            r3.pattern_compiles, 0,
            "every run-3 plan must come from the warmed cache"
        );
        assert!(r3.plan_cache_hits > 0);
        assert!(
            r3.plan_cache_hits < r1.plan_cache_hits + r1.pattern_compiles,
            "counters must be per-run deltas, not lifetime totals"
        );
        g.check_invariants().unwrap();
    }

    /// Repair `g` from a full seed and from `touched`: both runs must
    /// apply the same ops to the same fixpoint and find the same matches,
    /// the full run sweeping every rule once and the delta run none.
    /// Returns the full run's report.
    fn assert_delta_seed_runs_what_a_full_seed_runs(
        g: &Graph,
        rules: &[Grr],
        touched: &TouchSet,
    ) -> RepairReport {
        let run = |seed: RepairSeed<'_>| {
            let mut g = g.clone();
            let mut ops: Vec<AppliedOp> = Vec::new();
            let sink = |round: &[AppliedOp]| ops.extend_from_slice(round);
            let report =
                RepairEngine::default().repair_with(&mut g, rules, &Planner::new(), seed, sink);
            (report, g.to_doc(), ops)
        };
        let (full, full_doc, full_ops) = run(RepairSeed::Full);
        let (delta, delta_doc, delta_ops) = run(RepairSeed::Touched(touched));
        assert_eq!(delta_ops, full_ops);
        assert_eq!(delta_doc, full_doc);
        assert!(delta.converged && delta.outcome == RepairOutcome::Completed);
        let found = |r: &RepairReport| -> Vec<usize> {
            r.per_rule.iter().map(|s| s.matches_found).collect()
        };
        assert_eq!(found(&delta), found(&full));
        assert_eq!(delta.strata, full.strata);
        assert!(full.per_rule.iter().all(|s| s.scans == 1));
        assert!(delta.per_rule.iter().all(|s| s.scans == 0), "no sweep");
        full
    }

    #[test]
    fn delta_seed_runs_what_a_full_seed_runs_without_a_sweep() {
        // The module's three-class rule set is cyclic (worklist). Clean
        // the graph, then edit it: a person moves in, married to
        // themselves, sharing an ssn with a resident.
        let rules = rules();
        let mut g = dirty_graph();
        assert!(RepairEngine::default().repair(&mut g, &rules).converged);
        let city = g.nodes_with_label(g.try_label("City").unwrap())[0];
        let p = g.add_node_named("Person");
        g.add_edge_named(p, city, "livesIn").unwrap();
        g.add_edge_named(p, p, "marriedTo").unwrap();
        let ssn = g.attr_key("ssn");
        g.set_attr(p, ssn, Value::Int(42)).unwrap();
        let touched: TouchSet = [p, city].into_iter().collect();
        let full = assert_delta_seed_runs_what_a_full_seed_runs(&g, &rules, &touched);
        assert!(full.repairs_applied >= 3);
    }

    #[test]
    fn delta_seed_runs_what_a_full_seed_runs_on_acyclic_sets() {
        // The cascade is acyclic: each stratum seeds from the matches
        // touching the delta grown so far. Clean the graph, then add
        // fresh cascade starts; only they are in the seed.
        let rules = parse_rules(&cascade_src(3)).unwrap();
        let mut g = cascade_graph(10);
        assert!(RepairEngine::default().repair(&mut g, &rules).converged);
        let a0 = g.attr_key("a0");
        let touched: TouchSet = (0..4)
            .map(|_| {
                let n = g.add_node_named("T");
                g.set_attr(n, a0, Value::Bool(true)).unwrap();
                n
            })
            .collect();
        let full = assert_delta_seed_runs_what_a_full_seed_runs(&g, &rules, &touched);
        assert_eq!((full.strata, full.repairs_applied), (3, 3 * 4));
    }

    #[test]
    fn repair_cap_on_the_last_needed_repair_completes() {
        // One T node, no edges: the derived cap is 10·(1+0+1) = 20
        // repairs. A 20-stage cascade needs exactly 20, the last of which
        // two rules can make: once one lands, the other's queued
        // violation is stale, and the run has still reached its
        // fixpoint. A 21st stage needs one repair too many — for the
        // cyclic set only: the stratified run caps only requeues, needs
        // none here, and converges.
        let dup = "rule dup [incompleteness]
             match (x:T) where has(x.a19), missing(x.a20)
             repair set x.a20 = 2\n";
        for (stages, strata, repairs, outcome) in [
            (20, 20, 20, RepairOutcome::Completed),
            (20, 0, 20, RepairOutcome::Completed),
            (21, 21, 21, RepairOutcome::Completed),
            (21, 0, 20, RepairOutcome::RoundLimit),
        ] {
            let src = match strata {
                0 => cyclic_cascade_src(stages),
                _ => cascade_src(stages),
            };
            let rules = parse_rules(&(src + dup)).unwrap();
            let mut g = cascade_graph(1);
            let report = RepairEngine::default().repair(&mut g, &rules);
            let ctx = format!("{stages} stages/{strata} strata");
            assert_eq!(report.strata, strata, "{ctx}");
            assert_eq!(report.repairs_applied, repairs, "{ctx}");
            assert_eq!(report.outcome, outcome, "{ctx}");
            let converged = outcome == RepairOutcome::Completed;
            assert_eq!(report.converged, converged, "{ctx}");
        }
    }

    #[test]
    fn stratified_scheduling_used_on_acyclic_sets() {
        // The attribute cascade's trigger graph is a chain: the engine
        // must run it stratified (one stratum per stage) and reach the
        // cascade's fixpoint.
        let rules = parse_rules(&cascade_src(4)).unwrap();
        let mut g = cascade_graph(20);
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(report.strata, 4, "one stratum per cascade stage");
        assert!(report.converged);
        assert_eq!(report.repairs_applied, 80);

        // The cascade's closed-form fixpoint: every node carries every
        // stage's attribute.
        for i in 0..=4 {
            let (key, set) = (g.try_attr_key(&format!("a{i}")).unwrap(), Value::Bool(true));
            assert!(g.nodes().all(|n| g.attr(n, key) == Some(&set)), "a{i}");
        }
    }

    #[test]
    fn stratified_handles_partial_fixes_without_churn_guard() {
        // Parallel duplicate edges: each repair deletes one witness and
        // the match persists until all of them are gone. The stratified
        // path has no churn guard, so this exercises its own
        // persisting-match requeue loop — past `MAX_CHURN` repairs of the
        // one match with 20 edges.
        let rules = parse_rules(
            "rule drop_dup [redundancy]
             match (x:P)-[dup]->(y:P)
             repair delete edge (x)-[dup]->(y)",
        )
        .unwrap();
        for dups in [3, 20] {
            let mut g = Graph::new();
            let a = g.add_node_named("P");
            let b = g.add_node_named("P");
            for _ in 0..dups {
                g.add_edge_named(a, b, "dup").unwrap();
            }
            let report = RepairEngine::default().repair(&mut g, &rules);
            assert_eq!(report.strata, 1);
            assert_eq!(report.outcome, RepairOutcome::Completed, "{dups} dups");
            assert!(report.converged, "{dups} dups");
            assert_eq!(report.repairs_applied, dups);
            assert_eq!(g.num_edges(), 0);
        }
    }

    #[test]
    fn stratified_stops_on_ineffective_noop_rules() {
        // An ineffective rule's match persists after its (first, real)
        // repair and every later application is a noop: without a churn
        // guard the stratified loop must still terminate via its
        // no-progress check.
        let rules = parse_rules(
            "rule noop [conflict]
             match (x:P)-[r]->(y:P)
             repair set x.seen = true",
        )
        .unwrap();
        let mut g = Graph::new();
        let a = g.add_node_named("P");
        let b = g.add_node_named("P");
        g.add_edge_named(a, b, "r").unwrap();
        let report = RepairEngine::default().repair(&mut g, &rules);
        assert_eq!(report.strata, 1);
        assert_eq!(report.repairs_applied, 1, "the attribute set lands once");
        assert!(!report.converged, "the match legitimately persists");
        assert_eq!(report.violations_remaining, 1);
    }

    #[test]
    fn stratified_requeues_are_capped() {
        // `grow` inserts a Q node no pattern of the set matches, so
        // `stratify` proves the set terminating, yet its repair never
        // falsifies its own match. The stratum's requeues count against
        // the cap, 10·(1+0+1) = 20: the seed's repair plus 20 requeued.
        let grow =
            parse_rules("rule grow [incompleteness] match (x:P) repair insert node (y:Q)").unwrap();
        let mut g = Graph::new();
        g.add_node_named("P");
        let report = RepairEngine::default().repair(&mut g, &grow);
        assert_eq!(report.strata, 1);
        assert_eq!(report.outcome, RepairOutcome::RoundLimit);
        assert_eq!(report.repairs_applied, 21);
        assert!(!report.converged);
        assert_eq!(report.violations_remaining, 1);

        // A merge re-finds matches already queued in its own stratum.
        // That is no trigger-graph miss: debug builds must not assert.
        let merge = parse_rules(
            "rule m [redundancy] match (x:P), (y:P) where missing(x.k) repair merge y into x",
        )
        .unwrap();
        let mut g = Graph::new();
        for _ in 0..4 {
            g.add_node_named("P");
        }
        let report = RepairEngine::default().repair(&mut g, &merge);
        assert_eq!(report.strata, 1);
        assert!(report.converged);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn round_limit_counts_the_strata_it_never_reached() {
        // `grow` requeues forever in the first stratum; every Q node it
        // inserts is a match of `tag`, a stratum the capped run never
        // reaches. The residue holds `grow`'s last match and `tag`'s
        // seed: 1 + 21 inserted nodes, as a fresh count finds.
        let rules = parse_rules(
            "rule grow [incompleteness] match (x:P) repair insert node (y:Q)
             rule tag [incompleteness] match (y:Q) where missing(y.t) repair set y.t = 1",
        )
        .unwrap();
        let mut g = Graph::new();
        g.add_node_named("P");
        let engine = RepairEngine::default();
        let report = engine.repair(&mut g, &rules);
        assert_eq!(report.strata, 2);
        assert_eq!(report.outcome, RepairOutcome::RoundLimit);
        assert_eq!((report.rounds, report.repairs_applied), (1, 21));
        assert_eq!(report.violations_remaining, 1 + 21);
        assert_eq!(
            report.violations_remaining,
            engine.count_violations(&g, &rules)
        );
        assert!(!report.converged);
        // The unreached stratum's seed is discovered, not found: nothing
        // of it was queued.
        assert_eq!(report.per_rule[1].matches_found, 0);
        assert_eq!(report.per_rule[1].scans, 1);
    }

    #[test]
    fn violation_order_is_total_for_non_finite_costs() {
        // Degenerate cost tables can estimate ±inf or NaN repairs; the
        // arbitration queue must still order them deterministically and
        // uphold the Eq/Ord contracts (regression: the key used raw f64s,
        // so a NaN violation was unequal to itself while Ord::cmp said
        // Equal — undefined queue behaviour).
        let mk = |cost: f64| Violation {
            rule: 0,
            m: Match {
                nodes: vec![NodeId(0)],
                edges: vec![],
            },
            cost,
            priority: 0,
        };
        let nan = mk(f64::NAN);
        assert_eq!(nan, mk(f64::NAN), "NaN violations must be self-equal");
        assert_eq!(nan.cmp(&mk(f64::NAN)), std::cmp::Ordering::Equal);
        // Hardware NaNs can carry a set sign bit (x86-64's `inf - inf`
        // does); they must rank identically to positive NaN, not below
        // -inf.
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        assert_eq!(nan.cmp(&mk(neg_nan)), std::cmp::Ordering::Equal);

        // Through the engine's queue, split across its two halves: a
        // sorted seed run and the arrivals heap.
        let seed = [neg_nan, f64::INFINITY, 1.0, f64::NEG_INFINITY];
        let mut queue = ArbitrationQueue::from_seed(seed.into_iter().map(mk).collect());
        for cost in [-0.0, 0.0, 2.0] {
            queue.push(mk(cost));
        }
        let mut popped = Vec::new();
        while let Some(v) = queue.pop() {
            popped.push(v.cost);
        }
        // Cheapest-first total order: -inf < -0.0 < +0.0 < finite < +inf
        // < NaN.
        assert_eq!(popped[0], f64::NEG_INFINITY);
        assert!(popped[1].is_sign_negative() && popped[1] == 0.0);
        assert!(!popped[2].is_sign_negative() && popped[2] == 0.0);
        assert_eq!(popped[3], 1.0);
        assert_eq!(popped[4], 2.0);
        assert_eq!(popped[5], f64::INFINITY);
        assert!(popped[6].is_nan(), "NaN must sort last: {popped:?}");
    }

    proptest::proptest! {
        /// Any interleaving of pushes and pops over any seed pops in
        /// exactly `BinaryHeap<Violation>`'s order — duplicates, equal
        /// costs and non-finite costs included. Ties may pop either
        /// instance, so sequences are compared by sort key.
        #[test]
        fn arbitration_queue_pops_in_binary_heap_order(
            seed in proptest::collection::vec((0usize..9, 0i32..2, 0usize..2, 0u32..3), 0..24),
            steps in proptest::collection::vec(
                proptest::option::of((0usize..9, 0i32..2, 0usize..2, 0u32..3)),
                0..48,
            ),
        ) {
            let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
            let costs =
                [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, 2.5, f64::INFINITY, f64::NAN, neg_nan];
            let mk = |&(cost, priority, rule, node): &(usize, i32, usize, u32)| Violation {
                rule,
                m: Match { nodes: vec![NodeId(node)], edges: vec![] },
                cost: costs[cost],
                priority,
            };
            let key = |v: Option<Violation>| {
                v.map(|v| (cost_order_bits(v.cost), v.priority, v.rule, v.m.nodes))
            };
            let mut heap: BinaryHeap<Violation> = seed.iter().map(mk).collect();
            let mut queue = ArbitrationQueue::from_seed(seed.iter().map(mk).collect());
            for step in &steps {
                match step {
                    Some(v) => {
                        heap.push(mk(v));
                        queue.push(mk(v));
                    }
                    None => proptest::prop_assert_eq!(key(queue.pop()), key(heap.pop())),
                }
            }
            while !heap.is_empty() {
                proptest::prop_assert_eq!(key(queue.pop()), key(heap.pop()));
            }
            proptest::prop_assert!(queue.pop().is_none());
        }
    }

    /// One op of every variant per name, plus the two name-free variants.
    fn probe_ops(names: &[String]) -> Vec<AppliedOp> {
        use grepair_graph::EdgeId;
        let (node, edge) = (NodeId(0), EdgeId(0));
        let mut ops = vec![
            AppliedOp::Merge {
                keep: node,
                merged: NodeId(1),
                rewired: 1,
                dropped: 0,
            },
            AppliedOp::DeleteNode {
                node,
                label: "__unmentioned".into(),
                removed_edges: 2,
            },
        ];
        for name in names {
            let s = || name.clone();
            ops.extend([
                AppliedOp::InsertNode {
                    node,
                    label: s(),
                    attrs: vec![(s(), Value::Int(1))],
                },
                AppliedOp::InsertEdge {
                    edge,
                    src: node,
                    dst: node,
                    label: s(),
                },
                AppliedOp::DeleteNode {
                    node,
                    label: s(),
                    removed_edges: 0,
                },
                AppliedOp::DeleteEdge {
                    edge,
                    src: node,
                    dst: node,
                    label: s(),
                },
                AppliedOp::RelabelNode {
                    node,
                    from: "__unmentioned".into(),
                    to: s(),
                },
                AppliedOp::SetAttr {
                    node,
                    key: s(),
                    value: Value::Int(1),
                    old: None,
                },
                AppliedOp::RemoveAttr {
                    node,
                    key: s(),
                    old: Value::Int(1),
                },
            ]);
            for other in names {
                ops.push(AppliedOp::RelabelEdge {
                    edge,
                    from: s(),
                    to: other.clone(),
                });
            }
        }
        ops
    }

    /// Unlabelled nodes and `*` edges: a wildcard in every class that can
    /// hold one, next to concrete names in the same classes.
    const WILDCARD_RULES: &str = "rule any_edge [conflict]
         match (x)-[*]->(y:Q)
         where not (y)-[*]->(x)
         repair delete edge (x)-[*]->(y)

         rule no_out [incompleteness]
         match (x:P)
         where not (x)-[*]->(*), missing(x.seen)
         repair set x.seen = true

         rule no_in [incompleteness]
         match (x)
         where not (*)-[r]->(x), has(x.k)
         repair unset x.k

         rule labelled [conflict]
         match (a:P)-[r]->(b)
         where not (b)-[r]->(a), a.k == b.j
         repair delete edge (a)-[r]->(b)

         rule label_only [conflict]
         match (x:Q)
         where x.k == 1
         repair relabel node x to P";

    /// The rule sets the trigger index is checked on: the gold KG and
    /// social catalogues, 16 synthetic rules, the 8-stage cascade and its
    /// cyclic variant, and [`WILDCARD_RULES`]. grepair-gen links the
    /// non-test build of this crate, so its rule sets cross over as text.
    fn trigger_fixture_sets() -> Vec<(&'static str, Vec<Grr>)> {
        use grepair_gen::catalog::{GOLD_KG_DSL, SOCIAL_DSL};
        let synthetic =
            crate::ruleset::RuleSet::from_json(&grepair_gen::synthetic_rules(16).to_json())
                .unwrap()
                .rules;
        let parse = |src: &str| parse_rules(src).unwrap();
        vec![
            ("gold-kg", parse(GOLD_KG_DSL)),
            ("social", parse(SOCIAL_DSL)),
            ("synthetic-16", synthetic),
            ("cascade", parse(&cascade_src(8))),
            ("cyclic-cascade", parse(&cyclic_cascade_src(8))),
            ("wildcards", parse(WILDCARD_RULES)),
        ]
    }

    #[test]
    fn trigger_index_agrees_with_the_per_rule_walk() {
        let mut wildcard_classes = [false; 3];
        for (set, rules) in trigger_fixture_sets() {
            let pre: Vec<Preconditions> = rules.iter().map(preconditions_of).collect();
            let index = TriggerIndex::new(&rules);

            let mut names: Vec<String> = pre
                .iter()
                .flat_map(|p| {
                    [
                        &p.pos_edge,
                        &p.node_label,
                        &p.neg_edge,
                        &p.missing_attr,
                        &p.needs_attr,
                    ]
                })
                .flatten()
                .flatten()
                .cloned()
                .collect();
            names.sort();
            names.dedup();
            names.push("__unmentioned".into());
            for p in &pre {
                wildcard_classes[0] |= p.pos_edge.contains(&None);
                wildcard_classes[1] |= p.node_label.contains(&None);
                wildcard_classes[2] |= p.neg_edge.contains(&None);
            }

            let singles = probe_ops(&names);
            let n = singles.len();
            let mixed = (0..n).map(|i| {
                vec![
                    singles[i].clone(),
                    singles[(7 * i + 3) % n].clone(),
                    singles[(13 * i + 5) % n].clone(),
                ]
            });
            // Then no op, every op, and every op but the leading `Merge`.
            let slices = singles
                .iter()
                .map(|op| vec![op.clone()])
                .chain(mixed)
                .chain([Vec::new(), singles.clone(), singles[1..].to_vec()]);
            let mut enabled = vec![usize::MAX]; // must be cleared, not appended to
            for ops in slices {
                index.enabled_by(&ops, &mut enabled);
                let walk: Vec<usize> = (0..rules.len())
                    .filter(|&ri| ops_can_enable(&ops, &pre[ri]))
                    .collect();
                assert_eq!(enabled, walk, "{set}: {ops:?}");
            }
        }
        assert_eq!(
            wildcard_classes, [true; 3],
            "the hand-written set lost a wildcard"
        );
    }

    /// Repair `g` the textbook way: sweep the rules in order, applying
    /// each match that still holds, until a sweep applies nothing or
    /// `sweeps` have run. Hands `seen` each applied repair's rule and ops.
    fn sweep_repairs(
        g: &mut Graph,
        rules: &[Grr],
        sweeps: usize,
        mut seen: impl FnMut(usize, &[AppliedOp]),
    ) {
        for _ in 0..sweeps {
            let mut applied_any = false;
            for (ri, rule) in rules.iter().enumerate() {
                let matches = Matcher::new(g).find_all(&rule.pattern);
                for mut m in matches {
                    if !CompiledPattern::new(g, &rule.pattern).holds(g, &mut m) {
                        continue;
                    }
                    let applied = apply_rule(g, rule, &m, &EditCosts::default()).unwrap();
                    if !applied.is_noop() {
                        seen(ri, &applied.ops);
                        applied_any = true;
                    }
                }
            }
            if !applied_any {
                break;
            }
        }
    }

    /// A graph every rule of [`WILDCARD_RULES`] repairs something in.
    /// `any_edge` deletes `a -r-> b`, an edge it matched as `*` whose
    /// label `labelled` and `no_in` name in their negative conditions;
    /// `e -r-> b`, answered by `b -s-> e`, keeps `b.k` from `no_in`.
    fn wildcard_graph() -> Graph {
        let mut g = Graph::new();
        let [a, b, c, d, e] = ["P", "Q", "P", "P", "P"].map(|l| g.add_node_named(l));
        for (s, t, l) in [(a, b, "r"), (c, a, "r"), (d, c, "r"), (e, b, "r"), (b, e, "s")] {
            g.add_edge_named(s, t, l).unwrap();
        }
        let (k, j) = (g.attr_key("k"), g.attr_key("j"));
        for (n, key) in [(c, k), (a, j), (b, k), (d, k)] {
            g.set_attr(n, key, Value::Int(1)).unwrap();
        }
        g
    }

    #[test]
    fn rule_level_triggers_cover_every_repair() {
        use grepair_gen::{generate_kg, generate_social, inject_kg_noise};
        use grepair_gen::{KgConfig, NoiseConfig, SocialConfig};
        let kg = || {
            let (mut g, refs) = generate_kg(&KgConfig {
                seed: 7,
                ..KgConfig::with_persons(150)
            });
            let noise = NoiseConfig {
                seed: 7,
                ..NoiseConfig::default()
            };
            inject_kg_noise(&mut g, &refs, &noise);
            g
        };
        let social = || {
            let cfg = SocialConfig {
                accounts: 150,
                seed: 7,
                ..SocialConfig::default()
            };
            generate_social(&cfg).0
        };
        let graphs: [Graph; 6] = [
            kg(),
            social(),
            kg(),
            cascade_graph(5),
            cascade_graph(5),
            wildcard_graph(),
        ];
        let mut enabled = Vec::new();
        for ((set, rules), mut g) in trigger_fixture_sets().into_iter().zip(graphs) {
            let index = TriggerIndex::new(&rules);
            let mut fired = vec![false; rules.len()];
            sweep_repairs(&mut g, &rules, 3, |ri, ops| {
                index.enabled_by(ops, &mut enabled);
                let may = &index.by_rule[ri];
                assert!(
                    enabled.iter().all(|r| may.binary_search(r).is_ok()),
                    "{set}: `{}` enabled {enabled:?} by {ops:?}, outside its {may:?}",
                    rules[ri].name
                );
                fired[ri] = true;
            });
            assert!(fired.contains(&true), "{set}: no repair ran");
            if set == "wildcards" {
                assert_eq!(fired, [true; 5], "every wildcard rule repairs");
            }
        }
    }

    #[test]
    fn a_noop_repair_after_an_effective_one_reports_nothing() {
        // One buffer for both applications, as in the worklist: the
        // second finds its attribute already set.
        let (mut g, rules) = flag_fixture();
        let rule = &rules[0];
        let m = Matcher::new(&g).find_all(&rule.pattern).remove(0);
        let (mut ids, mut applied) = (ActionIds::new(&g, rule), Applied::default());
        for effective in [true, false] {
            apply_into(&mut g, rule, &mut ids, &m, &EditCosts::default(), &mut applied).unwrap();
            assert_eq!(applied.ops.len(), usize::from(effective));
            assert_eq!(applied.touched.len(), usize::from(effective));
            assert_eq!(applied.cost > 0.0, effective);
        }
        assert_eq!(applied.cost, 0.0);
    }

    #[test]
    fn empty_rules_or_graph() {
        let mut g = dirty_graph();
        let report = RepairEngine::default().repair(&mut g, &[]);
        assert!(report.converged);
        assert_eq!(report.repairs_applied, 0);

        let mut empty = Graph::new();
        let report = RepairEngine::default().repair(&mut empty, &rules());
        assert!(report.converged);
        assert_eq!(report.repairs_applied, 0);
    }
}
