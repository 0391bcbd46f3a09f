//! The repair engine.
//!
//! One loop — a cost-ordered worklist — discovers and repairs violations:
//! it seeds a violation queue from one scan, or from the nodes edited
//! since the caller last saw the graph clean ([`RepairSeed::Touched`]),
//! then after each applied repair re-matches **only** the rules the
//! repair's operations can enable, **only** around its touched nodes
//! ([`grepair_match::Matcher::find_touching`]). Work is proportional to
//! the affected neighbourhood, not the graph. The rescan-every-round
//! loop the paper compares against lives in `grepair-eval` as a
//! baseline, not here.
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
//! - **Revalidation** — a queued violation is re-checked against the
//!   current graph before its repair is applied (earlier repairs may have
//!   fixed or invalidated it).
//! - **Cost arbitration** — pending violations are applied cheapest-first
//!   (graph-edit-distance estimate, then rule priority, then deterministic
//!   tie-breaks), which implements the paper's best-repair selection: when
//!   several rules can fix overlapping violations, the cheapest repair
//!   lands first and the costlier alternatives revalidate away.
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
//! - **Verification** — every run that no budget trip cut short ends
//!   with a scan for residual violations
//!   ([`RepairReport::violations_remaining`]).

use crate::analysis::{preconditions_of, L};
use crate::apply::{apply_rule, revalidate, Applied, AppliedOp};
use crate::cost::estimate_cost;
use crate::rule::Grr;
use grepair_graph::{EditCosts, Graph, NodeId};
use grepair_match::{Match, MatchConfig, Matcher, Planner, TouchSet};
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
    /// set, [`Matcher::find_touching`] finds exactly those, and the run
    /// pops, applies and reports the same operations a
    /// [`RepairSeed::Full`] run would — the queue's order is total, so
    /// equal violation sets give equal runs. A stratified run seeds each
    /// stratum from the matches touching the set grown so far (the seed
    /// plus every node an earlier stratum's repairs touched): a match
    /// that exists when its stratum starts either existed before the run
    /// or was created by one of those repairs, so it touches that set.
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

/// Consumer of a repair run's applied operations, with round-boundary
/// notifications.
///
/// [`RepairSink::op`] fires for every applied operation as it lands, in
/// application order. [`RepairSink::round_committed`] fires when the
/// ops delivered since the previous boundary form one *completed* round
/// — one applied repair, whatever the schedule — the unit of atomicity
/// for durable journaling and graceful shutdown: a budget trip never
/// leaves the graph between two boundaries. Plain `FnMut(&AppliedOp)`
/// closures implement the trait with a no-op boundary, so op-only
/// consumers are unaffected.
pub trait RepairSink {
    /// One applied operation, as it lands.
    fn op(&mut self, op: &AppliedOp);
    /// The ops since the previous boundary form one committed round.
    fn round_committed(&mut self) {}
}

impl<F: FnMut(&AppliedOp)> RepairSink for F {
    fn op(&mut self, op: &AppliedOp) {
        self(op)
    }
}

/// Per-rule outcome counters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RuleStats {
    /// Rule name.
    pub name: String,
    /// Violations found (pre-revalidation).
    pub matches_found: usize,
    /// Repairs actually applied (non-noop).
    pub repairs_applied: usize,
    /// Total edit cost of this rule's repairs.
    pub cost: f64,
    /// Full scans that included this rule: exactly one (its worklist's
    /// seed, in its stratum under a stratified schedule), or none under
    /// [`RepairSeed::Touched`], where no sweep of the graph happens.
    pub scans: usize,
}

/// Result of a repair run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RepairReport {
    /// Worklist runs: 1, or one per stratum under a stratified schedule.
    pub rounds: usize,
    /// Repairs applied (non-noop).
    pub repairs_applied: usize,
    /// Concrete operation log, in application order.
    #[serde(skip)]
    pub ops: Vec<AppliedOp>,
    /// Per-rule statistics (indexed like the rule slice).
    pub per_rule: Vec<RuleStats>,
    /// Total edit cost.
    pub total_cost: f64,
    /// `true` if the run ended with no detectable violations.
    pub converged: bool,
    /// Residual violations, counted by the final verification scan. After
    /// a [`RepairSeed::Touched`] run this counts the matches touching the
    /// seed or any node a repair of the run touched, which under the
    /// seed's contract is every match in the graph: one that avoids all
    /// of them existed, untouched, before the seed started filling —
    /// when there were none.
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
    /// [`RepairOutcome::RoundLimit`] — budget trips skip the final
    /// verification scan (it would itself be cut short).
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
/// [`revalidate`] rewrites the witness edges before anything reads
/// them), so which of two tied heads pops first is unobservable.
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
        ix
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
        let sink = |_: &AppliedOp| {};
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
    /// [`RepairReport::pattern_compiles`]). `sink` sees every applied
    /// operation as it lands, in application order, never a no-op — a
    /// store journals them, so the run is replayable; a plain
    /// `FnMut(&AppliedOp)` closure is a sink without round boundaries.
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
        // topological stratification (cached per rule-set fingerprint)
        // under which the run provably terminates without churn guards.
        let schedule = cached_schedule(rules);
        // A delta-seeded run grows its copy of the seed by every node a
        // repair touches — where any residual violation must lie.
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
        for scope in scopes {
            self.run_worklist(
                g, rules, scope, delta.as_mut(), &triggers, &mut report, max_repairs, &mut sink,
                planner, &tel,
            );
            if report.outcome != RepairOutcome::Completed {
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
            report.violations_remaining = match &delta {
                Some(closure) => self.matches_touching(g, rules, None, planner, closure).count(),
                None => self.count_violations_with(g, rules, planner),
            };
            report.converged = report.violations_remaining == 0;
            // The deadline can expire during the verification scan
            // itself, cutting the count short — surface the trip rather
            // than report a bogus fixpoint.
            if report.outcome == RepairOutcome::Completed {
                if let Some(trip) = self.budget.tripped() {
                    report.outcome = trip.into();
                    report.converged = false;
                }
            }
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

    /// Count current violations without repairing.
    pub fn count_violations(&self, g: &Graph, rules: &[Grr]) -> usize {
        self.count_violations_with(g, rules, &Planner::new())
    }

    /// The matcher every scan and re-match of a run goes through: this
    /// engine's configuration, the run's planner, the attached budget.
    fn matcher<'a>(&self, g: &'a Graph, planner: &'a Planner) -> Matcher<'a> {
        Matcher::with_planner(g, self.match_config, planner).with_budget(&self.budget)
    }

    fn count_violations_with(&self, g: &Graph, rules: &[Grr], planner: &Planner) -> usize {
        let matcher = self.matcher(g, planner);
        rules.iter().map(|r| matcher.count(&r.pattern)).sum()
    }

    /// The rule indices `scope` names (`None` = every rule), ascending.
    fn rules_in<'a>(rules: &[Grr], scope: Option<&'a [usize]>) -> impl Iterator<Item = usize> + 'a {
        let all = if scope.is_some() { 0 } else { rules.len() };
        (0..all).chain(scope.unwrap_or_default().iter().copied())
    }

    /// Every (rule index, match) of the rules in `scope` whose match
    /// intersects `touched` — a delta seed's discovery and its fixpoint
    /// check.
    fn matches_touching<'a>(
        &self,
        g: &'a Graph,
        rules: &'a [Grr],
        scope: Option<&'a [usize]>,
        planner: &'a Planner,
        touched: &'a TouchSet,
    ) -> impl Iterator<Item = (usize, Match)> + 'a {
        let matcher = self.matcher(g, planner);
        Self::rules_in(rules, scope).flat_map(move |ri| {
            let found = matcher.find_touching(&rules[ri].pattern, touched);
            found.into_iter().map(move |m| (ri, m))
        })
    }

    /// The worklist loop, over the rules in `scope` (`None` = the whole,
    /// cyclic set; `Some` = one stratum of an acyclic schedule). `delta`
    /// is the run's seed: `None` scans the scope's rules, `Some` matches
    /// them only around those nodes (see [`RepairSeed::Touched`]) and is
    /// grown by every node the repairs touch.
    ///
    /// Each step pops the cheapest outstanding violation from the
    /// [`ArbitrationQueue`], revalidates and applies it, then asks the
    /// [`TriggerIndex`] which rules the applied operations can enable and
    /// re-matches only those in scope, only around the touched nodes.
    /// Neither structure walks the rule set: what a repair costs depends
    /// on the rules it enables, not on |Σ| (`engine.rematch_rules`
    /// records that number per repair).
    ///
    /// A stratum runs without the churn guard: [`crate::analysis::stratify`]
    /// puts every rule a stratum's rules can enable in a later stratum,
    /// so the caller runs each stratum once, in order, and its queue is
    /// its seed plus the requeues of matches a repair left standing (e.g.
    /// one of several parallel duplicate edges). An effective rule's
    /// requeues shrink its match; a rule whose repair never falsifies its
    /// own match requeues forever, so the stratum's requeues, and only
    /// they, count against `max_repairs`. A re-match that finds a match
    /// in the stratum means the trigger graph missed an edge: it is
    /// counted (`engine.stratum_rematches`), asserted against in debug
    /// builds, and puts the whole stratum back under `max_repairs`.
    ///
    /// Returns with [`RepairReport::outcome`] still
    /// [`RepairOutcome::Completed`] exactly when the scope reached its
    /// fixpoint (or only noop / churn-guarded repairs remained).
    #[allow(clippy::too_many_arguments)]
    fn run_worklist(
        &self,
        g: &mut Graph,
        rules: &[Grr],
        scope: Option<&[usize]>,
        mut delta: Option<&mut TouchSet>,
        triggers: &TriggerIndex,
        report: &mut RepairReport,
        max_repairs: usize,
        sink: &mut dyn RepairSink,
        planner: &Planner,
        tel: &EngineTelemetry,
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
        // |Σ|.
        let mut enabled = Vec::new();
        let seed: Vec<Violation> = {
            let _seed_span = obs::span("engine.round", "engine");
            match delta.as_deref() {
                None => {
                    let matcher = self.matcher(g, planner);
                    let mut seed = Vec::new();
                    for ri in Self::rules_in(rules, scope) {
                        tel.rule_scans[ri].inc();
                        for m in matcher.find_all(&rules[ri].pattern) {
                            seed.push(self.violation(g, rules, ri, m));
                        }
                    }
                    seed
                }
                Some(touched) => self
                    .matches_touching(g, rules, scope, planner, touched)
                    .map(|(ri, m)| self.violation(g, rules, ri, m))
                    .collect(),
            }
        };
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
            if !revalidate(g, &rules[v.rule].pattern, &mut v.m) {
                continue;
            }
            if scope.is_none() && !self.admit(&mut churn, &v) {
                continue;
            }
            // The backstop only stops a repair that is still needed: a
            // run whose last needed repair lands on the cap, with stale
            // entries still queued, completes. A stratum is capped here
            // only once a re-match has falsified its termination proof.
            if (scope.is_none() || unsound) && report.repairs_applied >= max_repairs {
                report.outcome = RepairOutcome::RoundLimit;
                return;
            }
            let ops_start = report.ops.len();
            let Some(touched) = self.apply(g, rules, &v, report, sink, tel) else {
                continue;
            };
            if let Some(delta) = delta.as_deref_mut() {
                delta.extend(&touched);
            }
            sink.round_committed();
            self.budget.charge_ops((report.ops.len() - ops_start) as u64);
            // A repair may not fully eliminate its own violation (e.g. it
            // deleted one of several parallel witness edges): revalidate
            // the very match just repaired and requeue it if it persists —
            // the trigger filter below only covers *newly created* matches.
            // On a cyclic set the churn guard bounds these; in a stratum
            // the cap does, for a rule whose repair never falsifies its
            // own match.
            if revalidate(g, &rules[v.rule].pattern, &mut v.m) {
                if scope.is_some() {
                    if requeues == max_repairs {
                        report.outcome = RepairOutcome::RoundLimit;
                        return;
                    }
                    requeues += 1;
                }
                queue.push(self.violation(g, rules, v.rule, v.m));
            }
            // Delta-driven discovery: only trigger-affected rules in
            // scope, only matches anchored in the delta. Within a stratum
            // no rule can label-enable another (that edge would have
            // forced a later stratum), but the filter keeps the schedule
            // honest if the approximation drifts. The planner's cache
            // serves the per-anchor plans — compiled once per (pattern,
            // anchor), not once per repair.
            triggers.enabled_by(&report.ops[ops_start..], &mut enabled);
            if let Some(stratum) = scope {
                enabled.retain(|ri| stratum.binary_search(ri).is_ok());
            }
            tel.rematch_rules.record(enabled.len() as u64);
            if enabled.is_empty() {
                continue;
            }
            let matcher = self.matcher(g, planner);
            for &ri in &enabled {
                let found = matcher.find_touching(&rules[ri].pattern, &touched);
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
                    queue.push(self.violation(g, rules, ri, m));
                }
            }
        }
    }

    /// Price match `m` of `rules[ri]` for the arbitration queue.
    fn violation(&self, g: &Graph, rules: &[Grr], ri: usize, m: Match) -> Violation {
        Violation {
            rule: ri,
            cost: estimate_cost(g, &rules[ri], &m, &EditCosts::default()),
            m,
            priority: rules[ri].priority,
        }
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

    /// Apply; returns the touched set if the repair changed anything.
    fn apply(
        &self,
        g: &mut Graph,
        rules: &[Grr],
        v: &Violation,
        report: &mut RepairReport,
        sink: &mut dyn RepairSink,
        tel: &EngineTelemetry,
    ) -> Option<TouchSet> {
        let repair_started = obs::timer();
        let applied: Applied = apply_rule(g, &rules[v.rule], &v.m, &EditCosts::default())
            .expect("validated rule on revalidated match cannot fail");
        obs::record_since(&tel.rule_repair_ns, repair_started);
        if applied.is_noop() {
            return None;
        }
        report.repairs_applied += 1;
        tel.repairs_applied.inc();
        report.total_cost += applied.cost;
        report.per_rule[v.rule].repairs_applied += 1;
        report.per_rule[v.rule].cost += applied.cost;
        for op in &applied.ops {
            sink.op(op);
        }
        report.ops.extend(applied.ops);
        Some(applied.touched)
    }
}

/// Process-global cache of stratification results keyed by the rule
/// set's fingerprint ([`crate::analysis::set_fingerprint`]); repeated
/// runs over the same set — a watch loop, a store's repair hook — skip
/// the trigger-graph analysis entirely. A cached `None` records "the
/// trigger graph is cyclic: run one worklist over the whole set".
fn cached_schedule(rules: &[Grr]) -> Option<std::sync::Arc<Vec<Vec<usize>>>> {
    use std::sync::{Arc, Mutex, OnceLock};
    type Cache = Mutex<FxHashMap<u64, Option<Arc<Vec<Vec<usize>>>>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let fp = crate::analysis::set_fingerprint(rules);
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(FxHashMap::default()))
        .lock()
        .unwrap();
    cache
        .entry(fp)
        .or_insert_with(|| {
            crate::analysis::stratify(&crate::analysis::trigger_graph(rules)).map(Arc::new)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{l_overlap, Preconditions};
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
        assert!(report.ops.is_empty());
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
            assert!(report.ops.is_empty());
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
        assert!(!report.ops.is_empty());
        assert!(report.ops.len() < 4, "should stop before fixing all nodes");
    }

    #[test]
    fn sink_round_committed_marks_every_applied_prefix() {
        #[derive(Clone, Default)]
        struct Recorder {
            state: std::rc::Rc<std::cell::RefCell<(usize, Vec<usize>)>>,
        }
        impl RepairSink for Recorder {
            fn op(&mut self, _op: &AppliedOp) {
                self.state.borrow_mut().0 += 1;
            }
            fn round_committed(&mut self) {
                let mut st = self.state.borrow_mut();
                let n = std::mem::take(&mut st.0);
                st.1.push(n);
            }
        }
        // The three-class set (cyclic: one worklist over Σ) and a
        // cascade (acyclic: one worklist per stratum).
        let (cascade, chain) = (parse_rules(&cascade_src(2)).unwrap(), cascade_graph(3));
        for (rules, base, strata) in [(&rules(), &dirty_graph(), 0), (&cascade, &chain, 2)] {
            let mut g2 = base.clone();
            let rec = Recorder::default();
            let (planner, full) = (Planner::new(), RepairSeed::Full);
            let report =
                RepairEngine::default().repair_with(&mut g2, rules, &planner, full, rec.clone());
            let ctx = format!("{} rules/{strata} strata", rules.len());
            assert_eq!(report.strata, strata, "{ctx}");
            assert_eq!(report.outcome, RepairOutcome::Completed, "{ctx}");
            let st = rec.state.borrow();
            assert_eq!(st.0, 0, "{ctx}: ops after final round_committed");
            assert_eq!(st.1.len(), report.repairs_applied, "{ctx}: one round per repair");
            let total: usize = st.1.iter().sum();
            assert_eq!(total, report.ops.len(), "{ctx}");
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

    #[test]
    fn sink_sees_every_applied_op_in_order() {
        let mut shapes = Vec::new();
        for match_config in [MatchConfig::default(), MatchConfig::naive()] {
            let mut g = dirty_graph();
            let mut seen: Vec<AppliedOp> = Vec::new();
            let sink = |op: &AppliedOp| seen.push(op.clone());
            let (planner, full) = (Planner::new(), RepairSeed::Full);
            let report =
                RepairEngine::new(match_config).repair_with(&mut g, &rules(), &planner, full, sink);
            assert!(report.converged);
            assert_eq!(seen, report.ops, "sink must mirror the op log exactly");
            assert!(!seen.is_empty());
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
        assert!(!report.ops.is_empty());
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
        // One long-lived planner over repeated repair runs: the second
        // run's scans must be served entirely from the warmed plan
        // cache, and the report counters must be per-run deltas rather
        // than planner-lifetime totals.
        // The cyclic cascade: the hit/compile arithmetic below assumes the
        // worklist's per-anchor plans, not stratified scans.
        let rules = parse_rules(&cyclic_cascade_src(3)).unwrap();
        let mut g = cascade_graph(10);
        let engine = RepairEngine::default();
        let planner = Planner::new();
        let run = |g: &mut Graph| {
            engine.repair_with(g, &rules, &planner, RepairSeed::Full, |_: &AppliedOp| {})
        };
        let r1 = run(&mut g);
        assert_eq!(r1.strata, 0);
        assert!(r1.converged);
        assert_eq!(r1.repairs_applied, 30);
        assert!(r1.pattern_compiles > 0);

        let r2 = run(&mut g);
        assert!(r2.converged);
        assert_eq!(r2.repairs_applied, 0, "already at fixpoint");
        assert_eq!(
            r2.pattern_compiles, 0,
            "every run-2 plan must come from the warmed cache"
        );
        assert!(r2.plan_cache_hits > 0);
        assert!(
            r2.plan_cache_hits < r1.plan_cache_hits + r1.pattern_compiles,
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
            let report = RepairEngine::default().repair_with(
                &mut g,
                rules,
                &Planner::new(),
                seed,
                |_: &AppliedOp| {},
            );
            (report, g.to_doc())
        };
        let (full, full_doc) = run(RepairSeed::Full);
        let (delta, delta_doc) = run(RepairSeed::Touched(touched));
        assert_eq!(delta.ops, full.ops);
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

    #[test]
    fn trigger_index_agrees_with_the_per_rule_walk() {
        use grepair_gen::catalog::{GOLD_KG_DSL, SOCIAL_DSL};
        // grepair-gen links the non-test build of this crate, so its rule
        // sets cross over as text.
        let synthetic =
            crate::ruleset::RuleSet::from_json(&grepair_gen::synthetic_rules(16).to_json())
                .unwrap()
                .rules;
        let parse = |src: &str| parse_rules(src).unwrap();
        // Unlabelled nodes and `*` edges: a wildcard in every class that
        // can hold one, next to concrete names in the same classes.
        let wildcards = "rule any_edge [conflict]
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
        let mut wildcard_classes = [false; 3];
        for (set, rules) in [
            ("gold-kg", parse(GOLD_KG_DSL)),
            ("social", parse(SOCIAL_DSL)),
            ("synthetic-16", synthetic),
            ("cascade", parse(&cascade_src(8))),
            ("wildcards", parse(wildcards)),
        ] {
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
