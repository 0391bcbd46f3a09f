//! Guardrail property tests: cancellation and deadline trips at *any*
//! check boundary leave the graph equal to a completed prefix of
//! rounds, with a typed outcome and zero panics.
//!
//! The driver is deterministic in the spirit of the store's scripted
//! `FaultyFs` schedules: [`Budget::cancel_at_check`] trips cancellation
//! at exactly the Nth checkpoint, and a reference run (same substrate,
//! same rules, no trip) records every committed round through a
//! [`RepairSink`], so each cancelled run can be checked for
//! committed-round-prefix equality by replaying rounds 0..k and
//! comparing [`Graph::to_doc`] documents.

use grepair_core::{
    parse_rules, AppliedOp, Grr, Planner, RepairEngine, RepairOutcome, RepairSeed, RepairSink,
};
use grepair_gen::{
    generate_kg, generate_social, gold_kg_rules, inject_kg_noise, social_rules, KgConfig,
    NoiseConfig, SocialConfig,
};
use grepair_graph::{Graph, GraphDoc};
use grepair_match::MatchConfig;
use grepair_obs::{Budget, TestClock, TripReason};
use grepair_store::{DurableGraph, Mutation, StoreConfig};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::mpsc;
use std::time::Duration;

// ---- deterministic fixtures -----------------------------------------------

/// One randomized scenario: a dirty substrate, a rule subset, a
/// matcher configuration.
#[derive(Clone, Debug)]
struct Case {
    /// 0 = noisy KG, 1 = social network (dirty by construction).
    substrate: u8,
    seed: u64,
    size: usize,
    /// Bit i keeps rule i (mod rule count); 0 keeps the full set.
    rule_mask: u8,
    /// 0 = naive matcher, 1 = default matcher.
    matcher: u8,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        any::<u8>(),
        any::<u64>(),
        40usize..100,
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(substrate, seed, size, rule_mask, matcher)| Case {
            substrate: substrate % 2,
            seed,
            size,
            rule_mask,
            matcher: matcher % 2,
        })
}

fn build_case(c: &Case) -> (Graph, Vec<Grr>, MatchConfig) {
    let g = if c.substrate == 0 {
        let (mut g, refs) = generate_kg(&KgConfig {
            seed: c.seed,
            ..KgConfig::with_persons(c.size)
        });
        inject_kg_noise(
            &mut g,
            &refs,
            &NoiseConfig {
                rate: 0.12,
                seed: c.seed,
                ..NoiseConfig::default()
            },
        );
        g
    } else {
        generate_social(&SocialConfig {
            accounts: c.size,
            seed: c.seed,
            ..SocialConfig::default()
        })
        .0
    };
    let full = if c.substrate == 0 {
        gold_kg_rules().rules
    } else {
        social_rules().rules
    };
    let picked: Vec<Grr> = full
        .iter()
        .enumerate()
        .filter(|(i, _)| c.rule_mask == 0 || c.rule_mask & (1 << (i % 8)) != 0)
        .map(|(_, r)| r.clone())
        .collect();
    let rules = if picked.is_empty() { full } else { picked };
    let config = match c.matcher {
        0 => MatchConfig::naive(),
        _ => MatchConfig::default(),
    };
    (g, rules, config)
}

// ---- round recording and prefix replay ------------------------------------

#[derive(Default)]
struct RecState {
    current: Vec<AppliedOp>,
    rounds: Vec<Vec<AppliedOp>>,
}

/// Sink that groups applied ops by `round_committed` boundaries.
#[derive(Clone, Default)]
struct RoundRecorder {
    state: Rc<RefCell<RecState>>,
}

impl RepairSink for RoundRecorder {
    fn op(&mut self, op: &AppliedOp) {
        self.state.borrow_mut().current.push(op.clone());
    }
    fn round_committed(&mut self) {
        let mut st = self.state.borrow_mut();
        let ops = std::mem::take(&mut st.current);
        st.rounds.push(ops);
    }
}

/// Documents of every completed-round prefix: element k is the graph
/// after rounds 0..k, built by replaying the recorded ops (the same
/// journal replay path the durable store trusts).
fn prefix_docs(initial: &Graph, rounds: &[Vec<AppliedOp>]) -> Vec<GraphDoc> {
    let mut g = initial.clone();
    let mut docs = vec![g.to_doc()];
    for round in rounds {
        for op in round {
            Mutation::from_applied(op)
                .apply(&mut g)
                .expect("recorded round replays");
        }
        docs.push(g.to_doc());
    }
    docs
}

/// The checkpoint indices to cancel at: every boundary when the run is
/// small, otherwise the full head, an even stride through the middle,
/// and the exact end.
fn cancel_points(total_checks: u64) -> Vec<u64> {
    if total_checks <= 48 {
        return (1..=total_checks).collect();
    }
    let mut points: Vec<u64> = (1..=16).collect();
    let stride = (total_checks - 16) / 24;
    points.extend((1..=24).map(|k| 16 + k * stride));
    points.push(total_checks);
    points.sort_unstable();
    points.dedup();
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cancelling at every checkpoint boundary yields a graph equal to
    /// SOME completed prefix of the reference run's rounds, with a
    /// typed outcome and no panic.
    #[test]
    fn cancellation_at_every_check_boundary_is_a_round_prefix(case in case_strategy()) {
        let (g0, rules, config) = build_case(&case);

        // Reference run: record rounds and count checkpoints.
        let reference = Budget::unlimited();
        let rec = RoundRecorder::default();
        let mut g_ref = g0.clone();
        let ref_report = RepairEngine::new(config)
            .with_budget(&reference)
            .repair_with(&mut g_ref, &rules, &Planner::new(), RepairSeed::Full, rec.clone());
        prop_assert!(
            !ref_report.outcome.is_budget_trip(),
            "unlimited budget must not trip: {:?}", ref_report.outcome
        );
        let rounds = std::mem::take(&mut rec.state.borrow_mut().rounds);
        let prefixes = prefix_docs(&g0, &rounds);
        // Replay sanity: the full prefix reproduces the reference graph.
        prop_assert_eq!(prefixes.last().unwrap(), &g_ref.to_doc());

        for n in cancel_points(reference.checks()) {
            let budget = Budget::unlimited().cancel_at_check(n);
            let mut g = g0.clone();
            let report = RepairEngine::new(config).with_budget(&budget).repair(&mut g, &rules);
            prop_assert!(
                matches!(report.outcome, RepairOutcome::Cancelled | RepairOutcome::Completed
                         | RepairOutcome::RoundLimit),
                "cancel at {}: unexpected outcome {:?}", n, report.outcome
            );
            let doc = g.to_doc();
            let k = prefixes.iter().position(|p| *p == doc);
            prop_assert!(
                k.is_some(),
                "cancel at check {} of {} left a graph that matches no completed-round prefix \
                 (outcome {:?}, {} ops)",
                n, reference.checks(), report.outcome, report.ops.len()
            );
        }
    }

    /// A pre-expired test-clock deadline trips before any work: typed
    /// `Deadline` outcome, untouched graph, zero ops.
    #[test]
    fn expired_deadline_leaves_graph_untouched(case in case_strategy()) {
        let (g0, rules, config) = build_case(&case);
        let clock = TestClock::new();
        let budget = Budget::unlimited()
            .with_test_clock(&clock)
            .with_deadline(Duration::from_millis(1));
        clock.advance(Duration::from_secs(1));
        let mut g = g0.clone();
        let report = RepairEngine::new(config)
            .with_budget(&budget)
            .repair(&mut g, &rules);
        prop_assert_eq!(report.outcome, RepairOutcome::Deadline);
        prop_assert_eq!(report.ops.len(), 0);
        prop_assert_eq!(g.to_doc(), g0.to_doc());
        prop_assert_eq!(budget.tripped(), Some(TripReason::Deadline));
    }
}

proptest! {
    // Store cases are heavier (create + repair + reopen per schedule);
    // keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A cancelled durable repair journals only completed rounds:
    /// reopening the store recovers exactly the in-memory graph the
    /// engine returned, for every sampled cancel schedule.
    #[test]
    fn reopened_store_after_cancelled_repair_shows_only_committed_rounds(
        case in case_strategy(),
        cancel_at in 1u64..24,
    ) {
        let (g0, rules, config) = build_case(&case);
        let dir = std::env::temp_dir().join(format!(
            "grepair-guardrails-{}-{:?}-{}-{}",
            std::process::id(),
            std::thread::current().id(),
            case.seed,
            cancel_at,
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DurableGraph::create_with(&dir, StoreConfig::default(), g0).unwrap();
        let budget = Budget::unlimited().cancel_at_check(cancel_at);
        let engine = RepairEngine::new(config).with_budget(&budget);
        let report = store.repair(&engine, &rules).unwrap();
        let in_memory = store.graph().dump_slots();
        let last_seq = store.last_seq();
        prop_assert_eq!(last_seq, report.ops.len() as u64);
        drop(store);

        let store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        prop_assert_eq!(store.graph().dump_slots(), in_memory);
        store.graph().check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A clean social store that [`DurableGraph::repair`] has verified (so
/// the next repair is delta-seeded), with one dirty batch ingested on
/// top: a duplicate handle, a self-follow, a flagged account and a
/// missing display name, each wired to existing accounts.
fn delta_fixture(clean: &Graph, dir: &std::path::Path) -> DurableGraph {
    let _ = std::fs::remove_dir_all(dir);
    let rules = social_rules().rules;
    let mut store = DurableGraph::create_with(dir, StoreConfig::default(), clean.clone()).unwrap();
    let verified = store.repair(&RepairEngine::default(), &rules).unwrap();
    assert!(verified.converged && verified.repairs_applied == 0);
    let g = store.graph();
    let handle = g.try_attr_key("handle").unwrap();
    let old: Vec<_> = g.nodes().take(4).collect();
    let taken = g.attr(old[0], handle).unwrap().clone();
    let attrs = |pairs: &[(&str, grepair_graph::Value)]| -> Vec<(String, grepair_graph::Value)> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
    };
    let dup = store
        .add_node_with_attrs("Account", &attrs(&[("handle", taken)]))
        .unwrap();
    let narcissist = store
        .add_node_with_attrs("Account", &attrs(&[("handle", "@narcissist".into())]))
        .unwrap();
    let bot = store
        .add_node_with_attrs(
            "Account",
            &attrs(&[("handle", "@bot".into()), ("flagged", true.into())]),
        )
        .unwrap();
    store.add_edge(narcissist, narcissist, "follows").unwrap();
    for (i, &n) in [dup, narcissist, bot].iter().enumerate() {
        store.add_edge(n, old[i + 1], "follows").unwrap();
        store.add_edge(old[i], n, "follows").unwrap();
    }
    store
}

/// Cancelling a *delta-seeded* durable repair at every check boundary
/// leaves the graph — and the reopened store — at a completed-round
/// prefix of the untripped run, and the next repair (a full scan: the
/// trip, and the reopen, dropped the clean mark) finishes at the
/// untripped run's graph.
#[test]
fn cancelled_delta_seeded_durable_repair_is_a_round_prefix() {
    let rules = social_rules().rules;
    let mut clean = generate_social(&SocialConfig {
        accounts: 60,
        seed: 5,
        ..SocialConfig::default()
    })
    .0;
    assert!(RepairEngine::default().repair(&mut clean, &rules).converged);
    let dir = std::env::temp_dir().join(format!(
        "grepair-guardrails-delta-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));

    // Untripped run: its check count, and — from the same graph in
    // memory, full-seeded, which applies the identical rounds — every
    // completed-round prefix.
    let mut store = delta_fixture(&clean, &dir);
    let rec = RoundRecorder::default();
    let dirty = store.graph().clone();
    let (planner, full) = (Planner::new(), RepairSeed::Full);
    RepairEngine::default().repair_with(&mut dirty.clone(), &rules, &planner, full, rec.clone());
    let prefixes = prefix_docs(&dirty, &rec.state.borrow().rounds);
    let unlimited = Budget::unlimited();
    let untripped = store
        .repair(&RepairEngine::default().with_budget(&unlimited), &rules)
        .unwrap();
    assert!(untripped.converged && untripped.repairs_applied >= 4);
    assert!(
        untripped.per_rule.iter().all(|r| r.scans == 0),
        "fixture must take the delta seed"
    );
    assert_eq!(rec.state.borrow().rounds.concat(), untripped.ops);
    let done = store.graph().to_doc();
    assert_eq!(prefixes.last(), Some(&done));
    drop(store);
    assert!(unlimited.checks() > 4, "one boundary per pop: {}", unlimited.checks());

    for n in 1..=unlimited.checks() {
        let mut store = delta_fixture(&clean, &dir);
        let budget = Budget::unlimited().cancel_at_check(n);
        let report = store
            .repair(&RepairEngine::default().with_budget(&budget), &rules)
            .unwrap();
        assert!(report.per_rule.iter().all(|r| r.scans == 0));
        let doc = store.graph().to_doc();
        assert!(
            prefixes.contains(&doc),
            "cancel at check {n}: outcome {:?} after {} ops matches no round prefix",
            report.outcome,
            report.ops.len()
        );
        let slots = store.graph().dump_slots();
        drop(store);

        let mut store = DurableGraph::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.graph().dump_slots(), slots, "cancel at check {n}: reopened");
        let resumed = store.repair(&RepairEngine::default(), &rules).unwrap();
        assert!(resumed.per_rule.iter().all(|r| r.scans == 1), "full scan after a trip and a reopen");
        assert!(resumed.converged);
        assert_eq!(store.graph().to_doc(), done, "cancel at check {n}: resumed run");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cancel token flipped from another thread — what the CLI's SIGINT
/// watcher does — stops a running repair at its next checkpoint, with a
/// `Cancelled` outcome and a completed-round prefix left behind. The
/// repair's first applied op hands control to the test thread, which
/// flips the token before letting the repair go on, so the flip always
/// lands mid-run.
#[test]
fn cancel_from_another_thread_stops_a_running_repair() {
    let (g0, rules, config) = build_case(&Case {
        substrate: 0,
        seed: 11,
        size: 200,
        rule_mask: 0,
        matcher: 0,
    });
    let rec = RoundRecorder::default();
    let (planner, full) = (Planner::new(), RepairSeed::Full);
    RepairEngine::new(config).repair_with(&mut g0.clone(), &rules, &planner, full, rec.clone());
    assert!(
        rec.state.borrow().rounds.len() > 1,
        "the flip must land before the last round"
    );
    let prefixes = prefix_docs(&g0, &rec.state.borrow().rounds);

    let budget = Budget::unlimited();
    let token = budget.token();
    let (started, on_started) = mpsc::channel();
    let (resume, on_resume) = mpsc::channel();
    let (outcome, doc) = std::thread::scope(|s| {
        let worker = s.spawn(move || {
            let mut g = g0;
            let mut handshake = Some((started, on_resume));
            let sink = move |_: &AppliedOp| {
                if let Some((started, on_resume)) = handshake.take() {
                    started.send(()).expect("test thread is waiting");
                    on_resume.recv().expect("test thread resumes the repair");
                }
            };
            let report = RepairEngine::new(config).with_budget(&budget).repair_with(
                &mut g,
                &rules,
                &Planner::new(),
                RepairSeed::Full,
                sink,
            );
            (report.outcome, g.to_doc())
        });
        on_started.recv().expect("the repair applies an op");
        token.cancel();
        resume.send(()).expect("worker is waiting");
        worker.join().expect("a cancelled repair must not panic")
    });
    assert_eq!(outcome, RepairOutcome::Cancelled);
    assert!(
        prefixes.contains(&doc),
        "the cancelled run left a torn round"
    );
}

/// Non-convergence is typed, not silent: a run the derived repair cap
/// stops reports `RoundLimit`, while a run that ends on residual
/// violations no repair can fix reports `Completed` — the two
/// `converged = false` causes are distinguishable.
#[test]
fn round_limit_outcome_is_distinguishable_from_residuals() {
    // Every repair inserts a fresh P its own pattern matches: on one node
    // the cap 10·(|V|+|E|+1) = 20 ends the run.
    let grow =
        parse_rules("rule grow [incompleteness] match (x:P) repair insert node (y:P)").unwrap();
    let mut g = Graph::new();
    g.add_node_named("P");
    let limited = RepairEngine::default().repair(&mut g, &grow);
    assert_eq!(limited.outcome, RepairOutcome::RoundLimit);
    assert_eq!(limited.repairs_applied, 20);
    assert!(!limited.converged);

    // The attribute lands once, yet the match persists: a residual.
    let stuck =
        parse_rules("rule stuck [conflict] match (x:P)-[r]->(y:P) repair set x.seen = true")
            .unwrap();
    let mut g = Graph::new();
    let (a, b) = (g.add_node_named("P"), g.add_node_named("P"));
    g.add_edge_named(a, b, "r").unwrap();
    let residual = RepairEngine::default().repair(&mut g, &stuck);
    assert_eq!(residual.outcome, RepairOutcome::Completed);
    assert_eq!(residual.violations_remaining, 1);
    assert!(!residual.converged);
}
