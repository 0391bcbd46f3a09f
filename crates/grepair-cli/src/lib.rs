//! # grepair-cli
//!
//! Command-line workflows over the `grepair` stack. All command logic
//! lives here (the binary is a thin wrapper) so it is unit-testable.
//!
//! ```text
//! grepair gen kg --persons 2000 --noise 0.1 -o dirty.json --clean clean.json
//! grepair stats dirty.json
//! grepair check -r rules.grr -g dirty.json
//! grepair repair -r rules.grr -g dirty.json -o repaired.json
//! grepair analyze -r rules.grr
//! grepair mine -g clean.json -o mined.grr
//! grepair fmt -r rules.grr
//! grepair store init -d ./kg.store --from dirty.json
//! grepair repair -r rules.grr --store ./kg.store
//! grepair store status -d ./kg.store
//! ```
//!
//! All file outputs are written atomically (temp file + rename), so an
//! interrupted command never leaves a truncated graph on disk.

#![forbid(unsafe_code)]

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use grepair_core::{
    analyze, lint_rules, parse_rules_with_spans, rule_to_dsl, AppliedOp, LintCode, LintPolicy,
    Planner, RepairEngine, RepairOutcome, RepairSeed, RuleSet, RuleSpan, Severity,
};
use grepair_gen::{
    generate_kg, generate_social, inject_kg_noise, KgConfig, NoiseConfig, SocialConfig,
};
use grepair_graph::{Graph, GraphDoc, GraphStats};
use grepair_mine::{mine_all, MinerConfig};
use grepair_store::{
    fsck, DurableGraph, FsckVerdict, ReadOnlyStore, StdFs, StoreConfig, Vfs, VfsFile,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// CLI error: message + suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            code: 2,
        }
    }
    fn io(msg: impl Into<String>) -> Self {
        CliError {
            message: msg.into(),
            code: 1,
        }
    }
}

type CliResult = Result<String, CliError>;

/// Minimal flag parser: `--key value` pairs plus positionals.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parse a raw token list. A `--switch` stands alone, a `--option`
    /// takes the next token as its value, and any other `--name` is a
    /// usage error — never silently an option that eats the next token.
    pub fn parse(tokens: &[String]) -> Result<Self, CliError> {
        const SWITCHES: &[&str] = &["lint", "read-only"];
        const OPTIONS: &[&str] = &[
            "rules", "graph", "out", "store", "dir", "from", "report", "trace", "format",
            "timeout", "max-ops", "runs", "deny", "warn", "allow", "persons", "accounts",
            "seed", "noise", "clean", "ledger", "min-support", "min-confidence",
        ];
        let mut out = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    out.switches.push(name.to_owned());
                    i += 1;
                } else if !OPTIONS.contains(&name) {
                    return Err(CliError::usage(format!("unknown option {t}\n\n{USAGE}")));
                } else if i + 1 < tokens.len() {
                    out.flags.push((name.to_owned(), tokens[i + 1].clone()));
                    i += 2;
                } else {
                    out.switches.push(name.to_owned());
                    i += 1;
                }
            } else if let Some(name) = t.strip_prefix('-') {
                if i + 1 < tokens.len() {
                    out.flags.push((name.to_owned(), tokens[i + 1].clone()));
                    i += 2;
                } else {
                    out.switches.push(name.to_owned());
                    i += 1;
                }
            } else {
                out.positional.push(t.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    fn get(&self, names: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| names.contains(&k.as_str()))
            .map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, names: &[&str], default: usize) -> Result<usize, CliError> {
        match self.get(names) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("bad integer for {names:?}: {v}"))),
        }
    }

    fn get_f64(&self, names: &[&str], default: f64) -> Result<f64, CliError> {
        match self.get(names) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("bad number for {names:?}: {v}"))),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// Arm span tracing when `--trace FILE` was given. Any spans already
/// buffered by earlier work in this process are discarded so the export
/// covers exactly this command. Returns the output path.
fn trace_arg(args: &Args) -> Option<String> {
    let path = args.get(&["trace"])?.to_owned();
    grepair_obs::take_events();
    grepair_obs::set_tracing(true);
    Some(path)
}

/// Disarm tracing and export the buffered spans as a Chrome trace file
/// (load it in `chrome://tracing` or Perfetto).
///
/// Export failure is *not* an error: the repair (or check) the trace
/// was recording has already succeeded, and losing a diagnostics file
/// must never make the command that produced real results exit
/// non-zero. A failure is recorded as a warn-level `trace.export_failed`
/// obs event and noted in the output instead.
fn write_trace(path: &str, out: &mut String) {
    grepair_obs::set_tracing(false);
    let events = grepair_obs::take_events();
    match write_atomic(path, &grepair_obs::chrome_trace_json(&events)) {
        Ok(()) => writeln!(out, "wrote trace ({} events) to {path}", events.len()).unwrap(),
        Err(e) => {
            grepair_obs::event(
                grepair_obs::Level::Warn,
                "trace.export_failed",
                e.message.clone(),
            );
            writeln!(out, "warning: trace export failed: {}", e.message).unwrap();
        }
    }
}

/// What `--max-ops N` caps: applied repair operations (repair/watch) or
/// enumerated candidate matches (check, which never applies anything).
#[derive(Clone, Copy)]
enum MaxOps {
    Ops,
    Matches,
}

/// Build this run's [`grepair_obs::Budget`] from `--timeout SECS` /
/// `--max-ops N` and register its cancel token so the binary's SIGINT
/// handler (see [`cancel_active`]) can flip it for graceful shutdown.
fn make_budget(args: &Args, cmd: &str, max_ops: MaxOps) -> Result<grepair_obs::Budget, CliError> {
    let mut budget = grepair_obs::Budget::unlimited();
    if let Some(v) = args.get(&["timeout"]) {
        let secs: f64 = v
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0)
            .ok_or_else(|| {
                CliError::usage(format!("{cmd}: bad --timeout {v:?} (want seconds > 0)"))
            })?;
        budget = budget.with_deadline(Duration::from_secs_f64(secs));
    }
    if let Some(v) = args.get(&["max-ops"]) {
        let n: u64 = v
            .parse()
            .ok()
            .filter(|n: &u64| *n > 0)
            .ok_or_else(|| {
                CliError::usage(format!("{cmd}: bad --max-ops {v:?} (want a positive integer)"))
            })?;
        budget = match max_ops {
            MaxOps::Ops => budget.with_op_cap(n),
            MaxOps::Matches => budget.with_match_cap(n),
        };
    }
    register_cancel_token(budget.token());
    Ok(budget)
}

fn cancel_registry() -> &'static Mutex<Vec<grepair_obs::CancelToken>> {
    static REGISTRY: OnceLock<Mutex<Vec<grepair_obs::CancelToken>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a budget's cancel token with the process-wide SIGINT hook.
pub fn register_cancel_token(token: grepair_obs::CancelToken) {
    cancel_registry().lock().unwrap().push(token);
}

/// Cancel every budget registered so far. The binary wires this to
/// SIGINT: the engine finishes its current round, commits, and the
/// command prints a partial report with outcome `cancelled`.
pub fn cancel_active() {
    for token in cancel_registry().lock().unwrap().iter() {
        token.cancel();
    }
}

/// Exit code for a repair/check that stopped early: 130 (128+SIGINT)
/// for cancellation, 5 for every other limit trip (deadline, op
/// budget, repair cap). `None` means the run completed.
fn outcome_exit_code(outcome: RepairOutcome) -> Option<i32> {
    match outcome {
        RepairOutcome::Completed => None,
        RepairOutcome::Cancelled => Some(130),
        RepairOutcome::RoundLimit | RepairOutcome::Deadline | RepairOutcome::OpBudget => Some(5),
    }
}

/// One-line human explanation of a non-`Completed` outcome.
fn explain_outcome(outcome: RepairOutcome) -> &'static str {
    match outcome {
        RepairOutcome::Completed => "ran to convergence",
        RepairOutcome::RoundLimit => {
            "repair cap of 10·(|V|+|E|+1) repairs reached before convergence on a rule set \
             with a trigger cycle or a rule whose repair leaves its own match standing; \
             residual violations remain (run `grepair lint` for the rule set's termination \
             and effectiveness findings)"
        }
        RepairOutcome::Deadline => {
            "deadline exceeded; stopped at a round boundary (the graph holds the completed rounds)"
        }
        RepairOutcome::Cancelled => {
            "cancelled; stopped at a round boundary (the graph holds the completed rounds)"
        }
        RepairOutcome::OpBudget => {
            "op budget exhausted; stopped at a round boundary (the graph holds the completed rounds)"
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    let doc = if path.ends_with(".txt") {
        GraphDoc::from_text(&text)
    } else {
        GraphDoc::from_json(&text)
    }
    .map_err(|e| CliError::io(format!("cannot parse {path}: {e}")))?;
    Graph::from_doc(&doc).map_err(|e| CliError::io(format!("cannot build graph: {e}")))
}

/// Write `contents` to `path` atomically: temp file in the same
/// directory, fsync, then rename over the target. An interrupted command
/// leaves either the old file or the new one — never a truncated mix.
///
/// Non-regular targets (`/dev/null`, pipes) are written in place —
/// renaming a temp file over a device would *replace the device*. A
/// symlink target is resolved first so the write goes *through* the
/// link (renaming would replace the link itself with a regular file).
fn write_atomic(path: &str, contents: &str) -> Result<(), CliError> {
    let io_err = |e: std::io::Error| CliError::io(format!("cannot write {path}: {e}"));
    let target: std::path::PathBuf =
        if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_symlink()) {
            match std::fs::canonicalize(path) {
                Ok(resolved) => resolved,
                // Dangling link: write through it, creating the target.
                Err(_) => return std::fs::write(path, contents).map_err(io_err),
            }
        } else {
            path.into()
        };
    if std::fs::metadata(&target).is_ok_and(|m| !m.is_file()) {
        return std::fs::write(&target, contents).map_err(io_err);
    }
    write_atomic_on(&StdFs, &target, contents).map_err(io_err)
}

/// The atomic-write core, over a swappable [`Vfs`] backend: temp file
/// in the target's directory, `fdatasync`, rename over the target,
/// temp cleanup on any failure. `write_atomic` (every CLI file
/// output and the `--trace` export) runs this over [`StdFs`] after
/// resolving symlinks and diverting non-regular targets; the
/// fault-injection tests drive the *same code* over a `FaultyFs` that
/// fails each step in turn.
pub fn write_atomic_on<V: Vfs>(vfs: &V, target: &Path, contents: &str) -> std::io::Result<()> {
    let dir = target.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = target
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid output path {}", target.display()),
            )
        })?;
    let tmp = dir
        .unwrap_or_else(|| Path::new("."))
        .join(format!(".{file_name}.{}.tmp", std::process::id()));
    let write_tmp = || -> std::io::Result<()> {
        let mut f = vfs.create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_data()
    };
    write_tmp()
        .and_then(|()| vfs.rename(&tmp, target))
        .inspect_err(|_| {
            // Never leave temp droppings, whichever step failed.
            let _ = vfs.remove_file(&tmp);
        })
}

fn save_graph(g: &Graph, path: &str) -> Result<(), CliError> {
    let doc = g.to_doc();
    let text = if path.ends_with(".txt") {
        doc.to_text()
    } else {
        doc.to_json()
    };
    write_atomic(path, &text)
}

fn load_rules(path: &str) -> Result<RuleSet, CliError> {
    load_rules_spanned(path).map(|(rules, _)| rules)
}

/// Load rules plus source spans. `.grr` text carries rule positions for
/// lint diagnostics; `.json` rule sets have none.
fn load_rules_spanned(path: &str) -> Result<(RuleSet, Vec<RuleSpan>), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    if path.ends_with(".json") {
        let rules =
            RuleSet::from_json(&text).map_err(|e| CliError::io(format!("bad rule json: {e}")))?;
        Ok((rules, Vec::new()))
    } else {
        let (rules, spans) =
            parse_rules_with_spans(&text).map_err(|e| CliError::io(format!("bad rule DSL: {e}")))?;
        let set = RuleSet::new(path.to_owned(), rules)
            .map_err(|e| CliError::io(format!("invalid rule set: {e}")))?;
        Ok((set, spans))
    }
}

/// Build a [`LintPolicy`] from `--deny CODE` / `--warn CODE` /
/// `--allow CODE` flags, applied in command-line order (last wins).
fn lint_policy(args: &Args) -> Result<LintPolicy, CliError> {
    let mut policy = LintPolicy::default();
    for (name, value) in &args.flags {
        let severity = match name.as_str() {
            "deny" => Severity::Deny,
            "warn" => Severity::Warn,
            "allow" => Severity::Allow,
            _ => continue,
        };
        let code = LintCode::parse(value).ok_or_else(|| {
            CliError::usage(format!(
                "unknown lint code {value:?} (expected GR001..GR007 or a lint name)"
            ))
        })?;
        policy.set(code, severity);
    }
    Ok(policy)
}

/// `--lint` pre-flight for check/repair/watch: refuse deny-level rule
/// sets before touching the graph.
fn lint_preflight(
    cmd: &str,
    origin: &str,
    rules: &RuleSet,
    spans: &[RuleSpan],
    args: &Args,
) -> Result<(), CliError> {
    if !args.has("lint") {
        return Ok(());
    }
    let report = lint_rules(&rules.rules, spans, &lint_policy(args)?);
    if report.has_denials() {
        return Err(CliError {
            message: format!(
                "{cmd}: refusing deny-level rule set (pass --allow CODE to override)\n\n{}",
                report.render_text(origin)
            ),
            code: 3,
        });
    }
    Ok(())
}

/// Top-level usage text.
pub const USAGE: &str = "grepair — rule-based graph repairing

usage: grepair <command> [args]

commands:
  gen kg        --persons N [--seed S] [--noise RATE] -o OUT [--clean C] [--ledger L]
  gen social    --accounts N [--seed S] -o OUT
  stats         GRAPH
  check         -r RULES (-g GRAPH | --store DIR [--read-only]) [--trace FILE]
                [--timeout SECS] [--max-ops N]
  explain       -r RULES (-g GRAPH | --store DIR [--read-only])
  repair        -r RULES -g GRAPH -o OUT [--report R] [--trace FILE]
                [--timeout SECS] [--max-ops N]
  repair        -r RULES --store DIR [-o OUT] [--report R] [--trace FILE]
  watch         -r RULES (-g GRAPH [-o OUT] | --store DIR) [--runs N] [--trace FILE]
                [--timeout SECS] [--max-ops N]
  metrics       [-r RULES (-g GRAPH | --store DIR)] [--format json]
  lint          -r RULES [--format json] [--deny CODE] [--warn CODE] [--allow CODE]
  analyze       -r RULES
  mine          -g GRAPH [-o RULES.grr] [--min-support N] [--min-confidence C]
  fmt           -r RULES
  store init    -d DIR [--from GRAPH]
  store status  -d DIR
  store compact -d DIR
  store export  -d DIR -o OUT
  store fsck    -d DIR [--format json]

Graph files are .json (GraphDoc) or .txt (fixture format); rule files are
.grr DSL or .json.

`lint` runs the static rule-set analyses as stable diagnostics
(GR001..GR007: termination, consistency, effectiveness, implication,
satisfiability, unused variables, value-kind mismatches). Deny-level
findings exit with code 3; --deny/--warn/--allow override per-code
severities (last flag wins), --format json emits machine output.
check/repair/watch accept --lint to run the same pre-flight and refuse
deny-level rule sets before touching the graph.

`explain` prints, per rule, the join plan the matcher runs against the
given graph: variable order (greedy by candidate count, preferring
variables adjacent to the matched prefix), the expected candidate access
path per step (label-index / extend / scan), the candidate count, and the
accumulated cost bound — plus the graph's size and version, and
plan-cache compile/hit counters.

`watch` runs N repair passes (default 2) through one long-lived
planner, printing per-run plan-cache counters — run 2 onwards should
show cache hits and zero compiles. With --store the store's own
always-warm planner is used and every pass commits durably.

A store (--store/-d DIR) is a durable graph: every mutation and every
applied repair is journaled to a checksummed write-ahead log with
periodic binary snapshots, and reopening recovers the exact committed
state even after a crash mid-write. `repair --store` commits repairs
durably and compacts the log when it outgrows its threshold.

`store fsck` is a dry-run recovery: it walks the directory exactly the
way open would — newest loadable snapshot, ordered replay, torn-tail
detection — and reports per-file health, where valid data ends, and the
lock state, without modifying anything. Verdict 'clean' or 'torn-tail'
exits 0 (a writable open succeeds); 'degraded' (damage open refuses to
absorb) prints the report on stderr and exits 4. check/explain accept
--read-only alongside --store: the store opens without taking the lock
(safe beside a live writer) and, when degraded, serves the newest
loadable snapshot plus the longest clean log prefix instead of
refusing.

Runtime limits: --timeout SECS and --max-ops N (on check/repair/watch)
attach a budget to the run — a deadline and an applied-op cap (for
check, a candidate-match cap). Limits are observed cooperatively
between repairs and at scan boundaries: a tripped run finishes nothing
mid-repair, commits the completed repairs (durably, with --store),
prints a partial report with a typed outcome, and exits 5. SIGINT (^C)
cancels the same way — finish the repair, commit, report, exit 130; a
second ^C aborts immediately. A run that the engine's repair cap (10 per
graph element) stops before converging — possible only with a cyclic
trigger graph or a rule whose repair leaves its own match standing —
reports outcome 'round-limit' and also exits 5, distinguishing a blown
limit from residual violations under a completed fixpoint.

Observability: --trace FILE (on check/repair/watch) records spans from
every layer — engine rounds, matching, planning, WAL writes —
and exports them as a Chrome trace (load in chrome://tracing or
Perfetto). `metrics` prints the process-wide metrics registry (counters,
gauges, latency histograms with p50/p90/p99, warn events) as text or,
with --format json, in a stable JSON schema; given -r plus a graph or
store it first runs a read-only check pass with telemetry armed so every
layer contributes fresh samples. `watch` appends a per-run metrics
line with that run's round and match counts.";

/// Dispatch a command line (without the program name). Returns the text
/// to print on stdout.
pub fn dispatch(tokens: &[String]) -> CliResult {
    let Some(cmd) = tokens.first().map(String::as_str) else {
        return Err(CliError::usage(USAGE));
    };
    let rest = &tokens[1..];
    match cmd {
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        "check" => cmd_check(rest),
        "explain" => cmd_explain(rest),
        "repair" => cmd_repair(rest),
        "watch" => cmd_watch(rest),
        "lint" => cmd_lint(rest),
        "analyze" => cmd_analyze(rest),
        "mine" => cmd_mine(rest),
        "fmt" => cmd_fmt(rest),
        "store" => cmd_store(rest),
        "metrics" => cmd_metrics(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

fn cmd_gen(tokens: &[String]) -> CliResult {
    let Some(kind) = tokens.first().map(String::as_str) else {
        return Err(CliError::usage("gen: expected 'kg' or 'social'"));
    };
    let args = Args::parse(&tokens[1..])?;
    let out = args
        .get(&["o", "out"])
        .ok_or_else(|| CliError::usage("gen: missing -o OUT"))?
        .to_owned();
    match kind {
        "kg" => {
            let persons = args.get_usize(&["persons"], 1000)?;
            let seed = args.get_usize(&["seed"], 42)? as u64;
            let noise = args.get_f64(&["noise"], 0.0)?;
            let (clean, refs) = generate_kg(&KgConfig {
                seed,
                ..KgConfig::with_persons(persons)
            });
            let mut report = String::new();
            if noise > 0.0 {
                let mut dirty = clean.clone();
                let truth = inject_kg_noise(
                    &mut dirty,
                    &refs,
                    &NoiseConfig {
                        rate: noise,
                        seed,
                        ..NoiseConfig::default()
                    },
                );
                save_graph(&dirty, &out)?;
                if let Some(clean_path) = args.get(&["clean"]) {
                    save_graph(&clean, clean_path)?;
                }
                if let Some(ledger_path) = args.get(&["ledger"]) {
                    let json = serde_json::to_string_pretty(&truth.errors)
                        .expect("ledger serializes");
                    write_atomic(ledger_path, &json)?;
                }
                let (i, c, r) = truth.class_counts();
                writeln!(
                    report,
                    "wrote dirty KG to {out} ({} errors: {i} incompleteness, {c} conflict, {r} redundancy)",
                    truth.len()
                )
                .unwrap();
            } else {
                save_graph(&clean, &out)?;
                writeln!(report, "wrote clean KG to {out}").unwrap();
            }
            write!(report, "{}", GraphStats::compute(&clean)).unwrap();
            Ok(report)
        }
        "social" => {
            let accounts = args.get_usize(&["accounts"], 1000)?;
            let seed = args.get_usize(&["seed"], 99)? as u64;
            let (g, _) = generate_social(&SocialConfig {
                accounts,
                seed,
                ..SocialConfig::default()
            });
            save_graph(&g, &out)?;
            Ok(format!(
                "wrote social graph to {out}\n{}",
                GraphStats::compute(&g)
            ))
        }
        other => Err(CliError::usage(format!("gen: unknown kind {other:?}"))),
    }
}

fn cmd_stats(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("stats: expected GRAPH path"))?;
    let g = load_graph(path)?;
    Ok(format!("{path}: {}", GraphStats::compute(&g)))
}

fn open_store(dir: &str) -> Result<DurableGraph, CliError> {
    DurableGraph::open(Path::new(dir), StoreConfig::default())
        .map_err(|e| CliError::io(format!("cannot open store {dir}: {e}")))
}

fn recovery_summary(store: &DurableGraph) -> String {
    let r = store.last_recovery();
    let mut out = format!(
        "opened store in {:?}: snapshot seq {} loaded in {:?}, {} records replayed in {:?}",
        r.wall, r.snapshot_seq, r.snapshot_load, r.records_replayed, r.replay
    );
    if r.torn_tail_bytes > 0 {
        write!(out, " (truncated {} torn tail bytes)", r.torn_tail_bytes).unwrap();
    }
    if r.snapshots_skipped > 0 {
        write!(out, " ({} damaged snapshots skipped)", r.snapshots_skipped).unwrap();
    }
    out
}

/// Open a store as a graph for a read path. With `--read-only` the
/// degraded open is used: no lock is taken (works beside a live
/// writer) and a damaged tail is served as the newest loadable prefix
/// instead of refusing. The summary of what was (or wasn't) recovered
/// goes into `header`.
fn store_graph(dir: &str, read_only: bool, header: &mut String) -> Result<Graph, CliError> {
    if !read_only {
        let store = open_store(dir)?;
        writeln!(header, "{}", recovery_summary(&store)).unwrap();
        return Ok(store.into_graph());
    }
    let ro = ReadOnlyStore::open(Path::new(dir))
        .map_err(|e| CliError::io(format!("cannot open store {dir} read-only: {e}")))?;
    writeln!(
        header,
        "opened store read-only: last seq {} (snapshot {}, {} records replayed)",
        ro.last_seq(),
        ro.snapshot_seq(),
        ro.records_replayed()
    )
    .unwrap();
    if ro.degraded() {
        writeln!(
            header,
            "DEGRADED: serving newest loadable prefix; run `grepair store fsck -d {dir}` for details"
        )
        .unwrap();
        for issue in ro.issues() {
            writeln!(header, "  issue: {issue}").unwrap();
        }
    }
    Ok(ro.into_graph())
}

fn cmd_check(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules_path = args
        .get(&["r", "rules"])
        .ok_or_else(|| CliError::usage("check: missing -r RULES"))?
        .to_owned();
    let (rules, spans) = load_rules_spanned(&rules_path)?;
    lint_preflight("check", &rules_path, &rules, &spans, &args)?;
    let trace = trace_arg(&args);
    let mut header = String::new();
    let g = match (args.get(&["g", "graph"]), args.get(&["store"])) {
        (Some(path), None) => load_graph(path)?,
        (None, Some(dir)) => store_graph(dir, args.has("read-only"), &mut header)?,
        _ => {
            return Err(CliError::usage(
                "check: need exactly one of -g GRAPH or --store DIR",
            ))
        }
    };
    // One warm planner for the whole check: plans compiled once even
    // when several rules share a pattern shape.
    let planner = Planner::new();
    let budget = make_budget(&args, "check", MaxOps::Matches)?;
    let cfg = grepair_match::MatchConfig::default();
    let matcher = grepair_match::Matcher::with_planner(&g, cfg, &planner).with_budget(&budget);
    let counts: Vec<usize> = rules.rules.iter().map(|r| matcher.count(&r.pattern)).collect();
    let mut out = header;
    let mut total = 0usize;
    for (r, n) in rules.rules.iter().zip(counts) {
        total += n;
        writeln!(out, "{:<40} {:>6}", r.name, n).unwrap();
    }
    writeln!(out, "{:<40} {:>6}", "TOTAL", total).unwrap();
    if let Some(reason) = budget.tripped() {
        writeln!(
            out,
            "stopped early ({reason}); counts are a lower bound over the scanned prefix"
        )
        .unwrap();
    }
    if let Some(path) = &trace {
        write_trace(path, &mut out);
    }
    if let Some(reason) = budget.tripped() {
        let code = outcome_exit_code(RepairOutcome::from(reason)).unwrap_or(5);
        return Err(CliError { message: out, code });
    }
    Ok(out)
}

fn cmd_explain(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules = load_rules(
        args.get(&["r", "rules"])
            .ok_or_else(|| CliError::usage("explain: missing -r RULES"))?,
    )?;
    let mut out = String::new();
    let g = match (args.get(&["g", "graph"]), args.get(&["store"])) {
        (Some(path), None) => load_graph(path)?,
        (None, Some(dir)) => store_graph(dir, args.has("read-only"), &mut out)?,
        _ => {
            return Err(CliError::usage(
                "explain: need exactly one of -g GRAPH or --store DIR",
            ))
        }
    };
    let planner = Planner::new();
    writeln!(
        out,
        "graph: |V|={} |E|={} (version {})",
        g.num_nodes(),
        g.num_edges(),
        g.version()
    )
    .unwrap();
    let matcher =
        grepair_match::Matcher::with_planner(&g, grepair_match::MatchConfig::default(), &planner);
    for r in &rules.rules {
        let ex = matcher.explain(&r.pattern);
        writeln!(out, "\nrule {}:", r.name).unwrap();
        if !ex.satisfiable {
            writeln!(
                out,
                "  unmatchable: a required label or edge label is absent from this graph"
            )
            .unwrap();
            continue;
        }
        for (i, s) in ex.steps.iter().enumerate() {
            let label = s.label.as_deref().unwrap_or("*");
            writeln!(
                out,
                "  {}. {:<20} {:<12} est {:.2}",
                i + 1,
                format!("{}:{label}", s.var),
                s.access.to_string(),
                s.estimate
            )
            .unwrap();
        }
        writeln!(out, "  estimated cost: {:.1}", ex.estimated_cost).unwrap();
    }
    writeln!(
        out,
        "\nplan cache: {} compiled, {} hits",
        planner.compile_count(),
        planner.cache_hit_count()
    )
    .unwrap();
    out.truncate(out.trim_end().len());
    Ok(out)
}

fn cmd_watch(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules_path = args
        .get(&["r", "rules"])
        .ok_or_else(|| CliError::usage("watch: missing -r RULES"))?
        .to_owned();
    let (rules, spans) = load_rules_spanned(&rules_path)?;
    lint_preflight("watch", &rules_path, &rules, &spans, &args)?;
    let runs = args.get_usize(&["runs"], 2)?.max(1);
    let trace = trace_arg(&args);
    let budget = make_budget(&args, "watch", MaxOps::Ops)?;
    let engine = RepairEngine::default().with_budget(&budget);
    let mut out = String::new();
    let mut final_outcome = RepairOutcome::Completed;
    // Per-update metrics: global counters sampled around each run so the
    // line shows this run's delta.
    let rounds_ctr = grepair_obs::counter("engine.rounds");
    let matches_ctr = grepair_obs::counter("match.matches_found");
    let delta_ctr = grepair_obs::counter("engine.seed_delta");
    let print_metrics = |out: &mut String, r0: u64, m0: u64, d0: u64| {
        writeln!(
            out,
            "  metrics: {} rounds, {} matches found, seeded by {}",
            rounds_ctr.get() - r0,
            matches_ctr.get() - m0,
            if delta_ctr.get() > d0 {
                "the nodes touched since the last fixpoint"
            } else {
                "a full scan"
            },
        )
        .unwrap();
    };
    let print_run = |out: &mut String, i: usize, report: &grepair_core::RepairReport| {
        writeln!(
            out,
            "run {}: {} repairs, residual {}, {} plans compiled, {} cache hits, outcome {}",
            i + 1,
            report.repairs_applied,
            report.violations_remaining,
            report.pattern_compiles,
            report.plan_cache_hits,
            report.outcome
        )
        .unwrap();
    };
    match (args.get(&["g", "graph"]), args.get(&["store"])) {
        (Some(path), None) => {
            let mut g = load_graph(path)?;
            // The whole point of the watch loop: one planner outlives
            // every run, so run 2+ plans entirely from cache.
            let planner = Planner::new();
            for i in 0..runs {
                let (r0, m0, d0) = (rounds_ctr.get(), matches_ctr.get(), delta_ctr.get());
                let sink = |_: &AppliedOp| {};
                let report =
                    engine.repair_with(&mut g, &rules.rules, &planner, RepairSeed::Full, sink);
                print_run(&mut out, i, &report);
                print_metrics(&mut out, r0, m0, d0);
                final_outcome = report.outcome;
                // A budget trip is sticky: every later run would return
                // the same outcome immediately. Stop at this boundary.
                if report.outcome.is_budget_trip() {
                    break;
                }
            }
            // The graph holds the committed prefix even on a trip —
            // still worth exporting.
            if let Some(out_path) = args.get(&["o", "out"]) {
                save_graph(&g, out_path)?;
                writeln!(out, "wrote repaired graph to {out_path}").unwrap();
            }
        }
        (None, Some(dir)) => {
            let mut store = open_store(dir)?;
            writeln!(out, "{}", recovery_summary(&store)).unwrap();
            for i in 0..runs {
                let (r0, m0, d0) = (rounds_ctr.get(), matches_ctr.get(), delta_ctr.get());
                let report = store
                    .repair(&engine, &rules.rules)
                    .map_err(|e| CliError::io(format!("durable repair failed: {e}")))?;
                print_run(&mut out, i, &report);
                print_metrics(&mut out, r0, m0, d0);
                final_outcome = report.outcome;
                if report.outcome.is_budget_trip() {
                    break;
                }
            }
            writeln!(out, "last seq {}", store.last_seq()).unwrap();
        }
        _ => {
            return Err(CliError::usage(
                "watch: need exactly one of -g GRAPH or --store DIR",
            ))
        }
    }
    if final_outcome != RepairOutcome::Completed {
        writeln!(out, "stopped: {}", explain_outcome(final_outcome)).unwrap();
    }
    if let Some(path) = &trace {
        write_trace(path, &mut out);
    }
    out.truncate(out.trim_end().len());
    if let Some(code) = outcome_exit_code(final_outcome) {
        return Err(CliError { message: out, code });
    }
    Ok(out)
}

fn cmd_repair(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules_path = args
        .get(&["r", "rules"])
        .ok_or_else(|| CliError::usage("repair: missing -r RULES"))?
        .to_owned();
    let (rules, spans) = load_rules_spanned(&rules_path)?;
    lint_preflight("repair", &rules_path, &rules, &spans, &args)?;
    let trace = trace_arg(&args);
    let budget = make_budget(&args, "repair", MaxOps::Ops)?;
    let engine = RepairEngine::default().with_budget(&budget);

    let mut out = String::new();
    let report = match (args.get(&["g", "graph"]), args.get(&["store"])) {
        (Some(graph_path), None) => {
            let mut g = load_graph(graph_path)?;
            let out_path = args
                .get(&["o", "out"])
                .ok_or_else(|| CliError::usage("repair: missing -o OUT"))?;
            let report = engine.repair(&mut g, &rules.rules);
            save_graph(&g, out_path)?;
            writeln!(out, "wrote repaired graph to {out_path}").unwrap();
            report
        }
        (None, Some(dir)) => {
            let mut store = open_store(dir)?;
            writeln!(out, "{}", recovery_summary(&store)).unwrap();
            let report = store
                .repair(&engine, &rules.rules)
                .map_err(|e| CliError::io(format!("durable repair failed: {e}")))?;
            if let Some(c) = store
                .maybe_compact()
                .map_err(|e| CliError::io(format!("compaction failed: {e}")))?
            {
                writeln!(
                    out,
                    "compacted: snapshot at seq {}, {} segments retired",
                    c.snapshot_seq, c.segments_retired
                )
                .unwrap();
            }
            writeln!(
                out,
                "durably committed {} repairs to {dir} (last seq {})",
                report.repairs_applied,
                store.last_seq()
            )
            .unwrap();
            // -o alongside --store exports the repaired graph too.
            if let Some(out_path) = args.get(&["o", "out"]) {
                save_graph(store.graph(), out_path)?;
                writeln!(out, "wrote repaired graph to {out_path}").unwrap();
            }
            report
        }
        _ => {
            return Err(CliError::usage(
                "repair: need exactly one of -g GRAPH (with -o OUT) or --store DIR",
            ))
        }
    };
    if let Some(rp) = args.get(&["report"]) {
        write_atomic(rp, &serde_json::to_string_pretty(&report).unwrap())?;
    }
    writeln!(
        out,
        "applied {} repairs in {:?} (converged: {}, outcome: {}, residual: {})",
        report.repairs_applied,
        report.wall,
        report.converged,
        report.outcome,
        report.violations_remaining
    )
    .unwrap();
    for s in report.per_rule.iter().filter(|s| s.repairs_applied > 0) {
        writeln!(out, "  {:<40} {:>6}", s.name, s.repairs_applied).unwrap();
    }
    if report.outcome != RepairOutcome::Completed {
        writeln!(out, "stopped: {}", explain_outcome(report.outcome)).unwrap();
    }
    if let Some(path) = &trace {
        write_trace(path, &mut out);
    }
    out.truncate(out.trim_end().len());
    if let Some(code) = outcome_exit_code(report.outcome) {
        return Err(CliError { message: out, code });
    }
    Ok(out)
}

/// `metrics` — print the global metrics registry. With `-r RULES` and a
/// graph (or store) a read-only check pass runs first with telemetry
/// armed, so the snapshot carries fresh counters, histograms and spans
/// from every layer; bare `metrics` prints whatever the process has
/// accumulated so far.
fn cmd_metrics(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    if args.get(&["r", "rules"]).is_some() {
        grepair_obs::set_tracing(true);
        let pass = cmd_check(tokens);
        grepair_obs::set_tracing(false);
        grepair_obs::take_events();
        pass?;
    }
    Ok(match args.get(&["format"]) {
        Some("json") => grepair_obs::snapshot_json(),
        _ => grepair_obs::snapshot_text(),
    })
}

fn cmd_store(tokens: &[String]) -> CliResult {
    let Some(sub) = tokens.first().map(String::as_str) else {
        return Err(CliError::usage(
            "store: expected 'init', 'status', 'compact', 'export' or 'fsck'",
        ));
    };
    let args = Args::parse(&tokens[1..])?;
    let dir = args
        .get(&["d", "dir", "store"])
        .ok_or_else(|| CliError::usage(format!("store {sub}: missing -d DIR")))?;
    match sub {
        "init" => {
            let store = match args.get(&["from"]) {
                Some(graph_path) => {
                    let g = load_graph(graph_path)?;
                    DurableGraph::create_with(Path::new(dir), StoreConfig::default(), g)
                }
                None => DurableGraph::create(Path::new(dir), StoreConfig::default()),
            }
            .map_err(|e| CliError::io(format!("cannot init store {dir}: {e}")))?;
            let status = store
                .status()
                .map_err(|e| CliError::io(e.to_string()))?;
            Ok(format!("initialized store at {dir}\n{status}"))
        }
        "status" => {
            let store = open_store(dir)?;
            let status = store
                .status()
                .map_err(|e| CliError::io(e.to_string()))?;
            Ok(format!("{}\n{status}", recovery_summary(&store)))
        }
        "compact" => {
            let mut store = open_store(dir)?;
            let c = store
                .compact()
                .map_err(|e| CliError::io(format!("compaction failed: {e}")))?;
            Ok(format!(
                "compacted {dir}: snapshot at seq {}, {} segments and {} snapshots retired, {} bytes reclaimed",
                c.snapshot_seq, c.segments_retired, c.snapshots_retired, c.bytes_reclaimed
            ))
        }
        "export" => {
            let out_path = args
                .get(&["o", "out"])
                .ok_or_else(|| CliError::usage("store export: missing -o OUT"))?;
            let store = open_store(dir)?;
            save_graph(store.graph(), out_path)?;
            Ok(format!("exported store {dir} to {out_path}"))
        }
        "fsck" => {
            let report = fsck(Path::new(dir))
                .map_err(|e| CliError::io(format!("cannot fsck store {dir}: {e}")))?;
            let rendered = match args.get(&["format"]) {
                None | Some("text") => report.render_text(),
                Some("json") => report.to_json(),
                Some(other) => {
                    return Err(CliError::usage(format!(
                        "store fsck: unknown format {other:?} (expected 'text' or 'json')"
                    )))
                }
            };
            if report.verdict == FsckVerdict::Degraded {
                // A store a writable open would refuse fails the check:
                // the report goes to stderr with a distinct exit code so
                // scripts and CI can gate on it. A torn tail is not a
                // failure — it is the normal residue of a crash and a
                // writable open absorbs it.
                return Err(CliError {
                    message: rendered,
                    code: 4,
                });
            }
            Ok(rendered)
        }
        other => Err(CliError::usage(format!("store: unknown subcommand {other:?}"))),
    }
}

fn cmd_lint(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules_path = args
        .get(&["r", "rules"])
        .ok_or_else(|| CliError::usage("lint: missing -r RULES"))?
        .to_owned();
    let (rules, spans) = load_rules_spanned(&rules_path)?;
    let report = lint_rules(&rules.rules, &spans, &lint_policy(&args)?);
    let rendered = match args.get(&["format"]) {
        None | Some("text") => report.render_text(&rules_path),
        Some("json") => report.to_json(),
        Some(other) => {
            return Err(CliError::usage(format!(
                "lint: unknown format {other:?} (expected 'text' or 'json')"
            )))
        }
    };
    if report.has_denials() {
        // Deny-level findings fail the lint: the report goes to stderr
        // with a distinct exit code so CI can gate on it.
        return Err(CliError {
            message: rendered,
            code: 3,
        });
    }
    Ok(rendered)
}

fn cmd_analyze(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules = load_rules(
        args.get(&["r", "rules"])
            .ok_or_else(|| CliError::usage("analyze: missing -r RULES"))?,
    )?;
    let report = analyze(&rules.rules);
    let mut out = String::new();
    writeln!(out, "analysed {} rules in {}µs", rules.len(), report.micros).unwrap();
    for (r, e) in rules.rules.iter().zip(&report.effectiveness) {
        writeln!(out, "  {:<40} {:?}", r.name, e).unwrap();
    }
    writeln!(out, "terminating: {}", report.terminating).unwrap();
    for c in &report.cycles {
        let names: Vec<&str> = c.iter().map(|&i| rules.rules[i].name.as_str()).collect();
        writeln!(out, "  cycle: {}", names.join(" → ")).unwrap();
    }
    writeln!(out, "conflicts: {}", report.conflicts.len()).unwrap();
    for c in &report.conflicts {
        writeln!(
            out,
            "  {} ↔ {} [{}] {}",
            rules.rules[c.a].name, rules.rules[c.b].name, c.kind, c.detail
        )
        .unwrap();
    }
    writeln!(out, "implications: {}", report.implications.len()).unwrap();
    for i in &report.implications {
        writeln!(
            out,
            "  {} ⊑ {}",
            rules.rules[i.redundant].name, rules.rules[i.by].name
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_mine(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let g = load_graph(
        args.get(&["g", "graph"])
            .ok_or_else(|| CliError::usage("mine: missing -g GRAPH"))?,
    )?;
    let cfg = MinerConfig {
        min_support: args.get_usize(&["min-support"], 20)?,
        min_confidence: args.get_f64(&["min-confidence"], 0.9)?,
        ..MinerConfig::default()
    };
    let mined = mine_all(&g, &cfg);
    let mut dsl = String::new();
    let mut summary = String::new();
    writeln!(summary, "mined {} rules:", mined.len()).unwrap();
    for m in &mined {
        writeln!(
            summary,
            "  {:<55} {:?} support {:>5} confidence {:.3}",
            m.rule.name, m.kind, m.support, m.confidence
        )
        .unwrap();
        writeln!(
            dsl,
            "# {:?}: support {}, confidence {:.3}",
            m.kind, m.support, m.confidence
        )
        .unwrap();
        dsl.push_str(&rule_to_dsl(&m.rule));
        dsl.push('\n');
    }
    if let Some(out) = args.get(&["o", "out"]) {
        write_atomic(out, &dsl)?;
        writeln!(summary, "wrote DSL to {out}").unwrap();
    } else {
        summary.push('\n');
        summary.push_str(&dsl);
    }
    Ok(summary)
}

fn cmd_fmt(tokens: &[String]) -> CliResult {
    let args = Args::parse(tokens)?;
    let rules = load_rules(
        args.get(&["r", "rules"])
            .ok_or_else(|| CliError::usage("fmt: missing -r RULES"))?,
    )?;
    Ok(grepair_core::ruleset_to_dsl(&rules))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grepair-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn toks(s: &[&str]) -> Vec<String> {
        s.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(dispatch(&toks(&["help"])).unwrap().contains("usage:"));
        let err = dispatch(&toks(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(dispatch(&[]).is_err());
        // An unknown option is named and refused before anything runs —
        // it must not pass for an option and swallow the next token.
        for name in ["frozen", "quick", "parallel", "no-such-option"] {
            let opt = &format!("--{name}");
            let err = dispatch(&toks(&["repair", opt, "-r", "absent.grr"])).unwrap_err();
            assert_eq!(err.code, 2, "{opt}: {}", err.message);
            assert!(err.message.contains(&format!("unknown option {opt}")), "{}", err.message);
        }
    }

    #[test]
    fn full_file_workflow() {
        let dir = tmpdir();
        let dirty = dir.join("dirty.json");
        let clean = dir.join("clean.json");
        let repaired = dir.join("repaired.json");
        let rules = dir.join("rules.grr");
        let mined = dir.join("mined.grr");
        let report = dir.join("report.json");

        // gen with noise.
        let out = dispatch(&toks(&[
            "gen", "kg", "--persons", "300", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
            "--clean", clean.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("errors"), "{out}");

        // stats.
        let out = dispatch(&toks(&["stats", dirty.to_str().unwrap()])).unwrap();
        assert!(out.contains("|V|="), "{out}");

        // mine rules from the clean graph.
        let out = dispatch(&toks(&[
            "mine", "-g", clean.to_str().unwrap(), "-o", mined.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("mined"), "{out}");

        // write the gold rules and check.
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("TOTAL"), "{out}");
        let total: usize = out
            .lines()
            .find(|l| l.starts_with("TOTAL"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert!(total > 0);

        // repair.
        let out = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "-o", repaired.to_str().unwrap(), "--report", report.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("converged: true"), "{out}");
        assert!(report.exists());

        // re-check: zero violations.
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "-g", repaired.to_str().unwrap(),
        ]))
        .unwrap();
        let total: usize = out
            .lines()
            .find(|l| l.starts_with("TOTAL"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
            .unwrap();
        assert_eq!(total, 0, "{out}");

        // analyze + fmt on the gold rules.
        let out = dispatch(&toks(&["analyze", "-r", rules.to_str().unwrap()])).unwrap();
        assert!(out.contains("analysed 10 rules"), "{out}");
        let out = dispatch(&toks(&["fmt", "-r", rules.to_str().unwrap()])).unwrap();
        assert!(out.contains("rule add_citizenship"), "{out}");

        // mined rules parse back and can repair too.
        let out = dispatch(&toks(&[
            "repair", "-r", mined.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "-o", repaired.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("applied"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_prints_plans_with_estimates() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-explain.json");
        let rules = dir.join("rules-explain.grr");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "200", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        let out = dispatch(&toks(&[
            "explain", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("graph: |V|="), "{out}");
        assert!(out.contains("(version "), "{out}");
        assert!(out.contains("plan cache:"), "{out}");
        assert!(out.contains("rule add_citizenship"), "{out}");
        assert!(out.contains("estimated cost"), "{out}");
        assert!(
            out.contains("label-index") || out.contains("scan"),
            "{out}"
        );
        assert!(out.contains("extend"), "{out}");
        // A rule whose labels are absent from the graph is called out.
        let ghost = dir.join("ghost.grr");
        std::fs::write(
            &ghost,
            "rule ghost [conflict]\nmatch (x:Ghost)-[haunts]->(y:Ghost)\nrepair delete edge (x)-[haunts]->(y)",
        )
        .unwrap();
        let out = dispatch(&toks(&[
            "explain", "-r", ghost.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("unmatchable"), "{out}");
        // Missing graph source is a usage error.
        assert!(dispatch(&toks(&["explain", "-r", rules.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_reuses_one_planner_across_runs() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-watch.json");
        let rules = dir.join("rules-watch.grr");
        let store_dir = dir.join("watch.store");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "150", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();

        // File-backed watch: run 1 compiles, run 2 runs from cache.
        let out = dispatch(&toks(&[
            "watch", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "--runs", "2",
        ]))
        .unwrap();
        assert!(out.contains("run 1:"), "{out}");
        assert!(out.contains("run 2: 0 repairs"), "{out}");
        let run2 = out.lines().find(|l| l.starts_with("run 2:")).unwrap();
        assert!(run2.contains("0 plans compiled"), "{out}");
        assert!(!run2.contains(" 0 cache hits"), "{out}");

        // Store-backed watch goes through the store's own warm planner.
        dispatch(&toks(&[
            "store", "init", "-d", store_dir.to_str().unwrap(),
            "--from", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dispatch(&toks(&[
            "watch", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("run 2: 0 repairs"), "{out}");
        assert!(out
            .lines()
            .find(|l| l.starts_with("run 2:"))
            .unwrap()
            .contains("0 plans compiled"), "{out}");

        // Graph source must be exactly one of -g / --store.
        assert!(dispatch(&toks(&["watch", "-r", rules.to_str().unwrap()])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn social_gen_and_text_format() {
        let dir = tmpdir();
        let social = dir.join("social.txt");
        let out = dispatch(&toks(&[
            "gen", "social", "--accounts", "100", "-o", social.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("social"), "{out}");
        // .txt graphs load back.
        let out = dispatch(&toks(&["stats", social.to_str().unwrap()])).unwrap();
        assert!(out.contains("|V|="), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_args_are_usage_errors() {
        for cmd in [
            vec!["gen", "kg"],
            vec!["check", "-r", "x.grr"],
            vec!["repair", "-g", "x.json"],
            vec!["analyze"],
            vec!["mine"],
            vec!["fmt"],
            vec!["store"],
            vec!["store", "init"],
            vec!["store", "frobnicate", "-d", "x"],
            vec!["store", "export", "-d", "x"],
            vec!["store", "fsck"],
        ] {
            let err = dispatch(&toks(&cmd)).unwrap_err();
            assert!(err.code == 2 || err.code == 1, "{cmd:?}: {}", err.message);
        }
        // Graph source must be exactly one of -g / --store.
        let dir = tmpdir();
        let rules = dir.join("conflict-rules.grr");
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        let err = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "-g", "a.json", "--store", "d",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2);
        let err = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "-g", "a.json", "--store", "d",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_workflow_end_to_end() {
        let dir = tmpdir();
        let dirty = dir.join("dirty.json");
        let store_dir = dir.join("kg.store");
        let rules = dir.join("rules.grr");
        let exported = dir.join("exported.json");
        let report = dir.join("report.json");

        dispatch(&toks(&[
            "gen", "kg", "--persons", "150", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();

        // init --from imports the graph as a genesis snapshot.
        let out = dispatch(&toks(&[
            "store", "init", "-d", store_dir.to_str().unwrap(),
            "--from", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("initialized store"), "{out}");
        // Double-init fails.
        assert!(dispatch(&toks(&[
            "store", "init", "-d", store_dir.to_str().unwrap(),
        ]))
        .is_err());

        // check --store sees the same violations as check -g.
        let from_store = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let from_file = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        let totals = |s: &str| -> usize {
            s.lines()
                .find(|l| l.starts_with("TOTAL"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
                .unwrap()
        };
        assert!(totals(&from_store) > 0);
        assert_eq!(totals(&from_store), totals(&from_file));

        // repair --store commits durably and writes the report.
        let out = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
            "--report", report.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("durably committed"), "{out}");
        assert!(out.contains("converged: true"), "{out}");
        assert!(report.exists());

        // Reopen: repairs survived; zero violations.
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(totals(&out), 0, "{out}");

        // status + compact + export round-trip.
        let out = dispatch(&toks(&["store", "status", "-d", store_dir.to_str().unwrap()]))
            .unwrap();
        assert!(out.contains("last_seq"), "{out}");
        let out = dispatch(&toks(&["store", "compact", "-d", store_dir.to_str().unwrap()]))
            .unwrap();
        assert!(out.contains("snapshot at seq"), "{out}");
        dispatch(&toks(&[
            "store", "export", "-d", store_dir.to_str().unwrap(),
            "-o", exported.to_str().unwrap(),
        ]))
        .unwrap();
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "-g", exported.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(totals(&out), 0, "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_open_reports_snapshot_load_and_replay_separately() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-times.json");
        let store_dir = dir.join("times.store");
        let rules = dir.join("rules-times.grr");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "60", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        dispatch(&toks(&[
            "store", "init", "-d", store_dir.to_str().unwrap(),
            "--from", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();
        let status = || {
            let out = dispatch(&toks(&["store", "status", "-d", store_dir.to_str().unwrap()]))
                .unwrap();
            let summary = out
                .lines()
                .find(|l| l.starts_with("opened store in "))
                .unwrap_or_else(|| panic!("no open summary in {out}"))
                .to_owned();
            let last_seq: u64 = out
                .split_whitespace()
                .find_map(|w| w.strip_prefix("last_seq="))
                .and_then(|n| n.parse().ok())
                .unwrap();
            (summary, last_seq)
        };

        // The genesis snapshot, then every record the repair journaled.
        let (summary, last_seq) = status();
        assert!(last_seq > 0, "the repair journaled nothing");
        assert!(summary.contains("snapshot seq 0 loaded in "), "{summary}");
        assert!(
            summary.contains(&format!(", {last_seq} records replayed in ")),
            "{summary}"
        );

        // After compaction the snapshot covers the whole log.
        dispatch(&toks(&["store", "compact", "-d", store_dir.to_str().unwrap()])).unwrap();
        let (summary, _) = status();
        assert!(
            summary.contains(&format!("snapshot seq {last_seq} loaded in ")),
            "{summary}"
        );
        assert!(summary.contains(", 0 records replayed in "), "{summary}");
        std::fs::remove_dir_all(&store_dir).ok();
    }

    #[test]
    fn repair_store_survives_simulated_crash() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-crash.json");
        let store_dir = dir.join("crash.store");
        let rules = dir.join("rules-crash.grr");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "120", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        dispatch(&toks(&[
            "store", "init", "-d", store_dir.to_str().unwrap(),
            "--from", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();

        // Crash simulation: torn garbage on the active segment.
        let seg = std::fs::read_dir(&store_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .max()
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0xEE; 9]);
        std::fs::write(&seg, &bytes).unwrap();

        // The store reopens, reports the truncation, and keeps repairs.
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("torn tail"), "{out}");
        assert!(out.lines().any(|l| l.starts_with("TOTAL") && l.contains('0')), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_fsck_and_read_only_degraded_open() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-fsck.json");
        let store_dir = dir.join("fsck.store");
        let rules = dir.join("rules-fsck.grr");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "120", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        dispatch(&toks(&[
            "store", "init", "-d", store_dir.to_str().unwrap(),
            "--from", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap();

        // Healthy store: verdict clean, exit 0, both renderings.
        let out = dispatch(&toks(&["store", "fsck", "-d", store_dir.to_str().unwrap()]))
            .unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("lock: unlocked"), "{out}");
        assert!(out.contains("issues: none"), "{out}");
        let out = dispatch(&toks(&[
            "store", "fsck", "-d", store_dir.to_str().unwrap(), "--format", "json",
        ]))
        .unwrap();
        assert!(out.contains("\"verdict\":\"clean\""), "{out}");
        assert!(out.contains("\"issues\":[]"), "{out}");
        let err = dispatch(&toks(&[
            "store", "fsck", "-d", store_dir.to_str().unwrap(), "--format", "yaml",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2);

        // --read-only works on a healthy store too (no lock, no
        // degradation banner).
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(),
            "--store", store_dir.to_str().unwrap(), "--read-only",
        ]))
        .unwrap();
        assert!(out.contains("opened store read-only"), "{out}");
        assert!(!out.contains("DEGRADED"), "{out}");

        // Torn tail (garbage past the last valid frame): still exit 0 —
        // a writable open absorbs this — but the verdict and truncation
        // point are reported.
        let seg = std::fs::read_dir(&store_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .max()
            .unwrap();
        let clean_bytes = std::fs::read(&seg).unwrap();
        let clean_len = clean_bytes.len();
        let mut bytes = clean_bytes.clone();
        bytes.extend_from_slice(&[0xEE; 9]);
        std::fs::write(&seg, &bytes).unwrap();
        let out = dispatch(&toks(&["store", "fsck", "-d", store_dir.to_str().unwrap()]))
            .unwrap();
        assert!(out.contains("torn-tail"), "{out}");
        assert!(
            out.contains(&format!("valid data ends at byte {clean_len}")),
            "{out}"
        );

        // Mid-log damage (valid frames after the corrupt byte): fsck
        // fails with exit 4, a writable open refuses, and --read-only
        // serves the recoverable prefix with a degradation banner. The
        // damaged image is a flipped byte in the first frame followed by
        // an intact, CRC-valid frame — truncating here would silently
        // drop it, which is exactly what the store must refuse to do.
        let header = grepair_store::wal::SEGMENT_HEADER_LEN as usize;
        let mut bytes = clean_bytes.clone();
        bytes[header + 10] ^= 0xFF;
        bytes.extend_from_slice(&clean_bytes[header..]);
        std::fs::write(&seg, &bytes).unwrap();
        let err = dispatch(&toks(&["store", "fsck", "-d", store_dir.to_str().unwrap()]))
            .unwrap_err();
        assert_eq!(err.code, 4);
        assert!(err.message.contains("degraded"), "{}", err.message);
        let err = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "--store", store_dir.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, 1);
        let out = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(),
            "--store", store_dir.to_str().unwrap(), "--read-only",
        ]))
        .unwrap();
        assert!(out.contains("DEGRADED"), "{out}");
        assert!(out.contains("TOTAL"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_never_leaves_truncated_output() {
        let dir = tmpdir();
        let path = dir.join("out.json");
        // Overwrite an existing file; failure of the rename would leave
        // the old contents, never a mix.
        std::fs::write(&path, "OLD").unwrap();
        write_atomic(path.to_str().unwrap(), "NEW CONTENTS").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "NEW CONTENTS");
        // No temp droppings.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        // Writing into a missing directory errors cleanly.
        let bad = dir.join("no-such-dir").join("x.json");
        assert!(write_atomic(bad.to_str().unwrap(), "x").is_err());
        // Special files are written in place, not renamed over: /dev/null
        // must still be a character device afterwards.
        #[cfg(unix)]
        {
            write_atomic("/dev/null", "discard me").unwrap();
            use std::os::unix::fs::FileTypeExt as _;
            let ft = std::fs::metadata("/dev/null").unwrap().file_type();
            assert!(ft.is_char_device(), "/dev/null clobbered: {ft:?}");
        }
        // Symlinked outputs are written *through*, not replaced: the
        // link survives and its target gets the new contents.
        #[cfg(unix)]
        {
            let real = dir.join("real.json");
            let link = dir.join("link.json");
            std::fs::write(&real, "stale").unwrap();
            std::os::unix::fs::symlink(&real, &link).unwrap();
            write_atomic(link.to_str().unwrap(), "via link").unwrap();
            assert!(std::fs::symlink_metadata(&link)
                .unwrap()
                .file_type()
                .is_symlink());
            assert_eq!(std::fs::read_to_string(&real).unwrap(), "via link");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_files_are_io_errors() {
        let err = dispatch(&toks(&["stats", "/nonexistent/graph.json"])).unwrap_err();
        assert_eq!(err.code, 1);
    }

    /// A rule set tripping GR003 (deny by default): the repair never
    /// removes its own match.
    const NOOP_GRR: &str = "rule noop [conflict]
match (x:P)-[r]->(y:P)
repair set x.seen = true
";

    #[test]
    fn lint_subcommand_text_json_and_policy() {
        let dir = tmpdir();
        let bad = dir.join("bad.grr");
        std::fs::write(&bad, NOOP_GRR).unwrap();

        // Deny-level finding: exit code 3, rustc-style rendering.
        let err = dispatch(&toks(&["lint", "-r", bad.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("error[GR003]"), "{}", err.message);
        assert!(err.message.contains("rule `noop`"), "{}", err.message);
        assert!(err.message.contains("bad.grr:1:1"), "{}", err.message);

        // Machine output carries the same verdict.
        let err = dispatch(&toks(&[
            "lint", "-r", bad.to_str().unwrap(), "--format", "json",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("\"code\": \"GR003\""), "{}", err.message);
        assert!(err.message.contains("\"severity\": \"deny\""), "{}", err.message);

        // --allow downgrades; lint exits cleanly. Both the code and the
        // lint name are accepted.
        let out = dispatch(&toks(&[
            "lint", "-r", bad.to_str().unwrap(), "--allow", "GR003",
        ]))
        .unwrap();
        assert!(!out.contains("error[GR003]"), "{out}");
        dispatch(&toks(&[
            "lint", "-r", bad.to_str().unwrap(), "--allow", "ineffective-rule",
        ]))
        .unwrap();
        // Last flag wins: allow-then-deny still denies.
        let err = dispatch(&toks(&[
            "lint", "-r", bad.to_str().unwrap(),
            "--allow", "GR003", "--deny", "GR003",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3);

        // --deny escalates a default-warn lint.
        let loose = dir.join("loose.grr");
        std::fs::write(
            &loose,
            "rule loose [conflict]\nmatch (x:P)-[r]->(y:P), (z:Q)\nrepair delete edge (x)-[r]->(y)\n",
        )
        .unwrap();
        dispatch(&toks(&["lint", "-r", loose.to_str().unwrap()])).unwrap();
        let err = dispatch(&toks(&[
            "lint", "-r", loose.to_str().unwrap(), "--deny", "GR006",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("error[GR006]"), "{}", err.message);

        // Unknown codes and formats are usage errors.
        let err = dispatch(&toks(&[
            "lint", "-r", bad.to_str().unwrap(), "--deny", "GR999",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2);
        let err = dispatch(&toks(&[
            "lint", "-r", bad.to_str().unwrap(), "--format", "yaml",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2);
        assert!(dispatch(&toks(&["lint"])).is_err());

        // The gold catalog lints clean at deny level.
        let gold = dir.join("gold.grr");
        std::fs::write(&gold, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        let out = dispatch(&toks(&["lint", "-r", gold.to_str().unwrap()])).unwrap();
        assert!(!out.contains("error["), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_preflight_refuses_deny_level_rule_sets() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-lint.json");
        let bad = dir.join("bad-preflight.grr");
        let gold = dir.join("gold-preflight.grr");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "100", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&bad, NOOP_GRR).unwrap();
        std::fs::write(&gold, grepair_gen::catalog::GOLD_KG_DSL).unwrap();

        // check/repair with --lint refuse the deny-level set before
        // touching the graph.
        let err = dispatch(&toks(&[
            "check", "--lint", "-r", bad.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3);
        assert!(err.message.contains("refusing deny-level rule set"), "{}", err.message);
        assert!(err.message.contains("error[GR003]"), "{}", err.message);
        let err = dispatch(&toks(&[
            "repair", "--lint", "-r", bad.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, 3);

        // An --allow override lets the run proceed.
        let out = dispatch(&toks(&[
            "check", "--lint", "--allow", "GR003",
            "-r", bad.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("TOTAL"), "{out}");

        // Clean sets pass the pre-flight untouched.
        let out = dispatch(&toks(&[
            "check", "--lint", "-r", gold.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("TOTAL"), "{out}");
        // Without --lint the deny-level set still runs (opt-in gate).
        let out = dispatch(&toks(&[
            "check", "-r", bad.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("TOTAL"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Typed mirror of the Chrome trace file schema — parsing into it *is*
    /// the schema check (the derive rejects missing required fields).
    #[derive(serde::Deserialize)]
    #[allow(non_snake_case)]
    struct TraceFile {
        traceEvents: Vec<TraceRow>,
    }

    #[derive(serde::Deserialize)]
    struct TraceRow {
        name: String,
        cat: String,
        ph: char,
        ts: f64,
        /// Complete (`X`) spans carry a duration…
        dur: Option<f64>,
        /// …instants carry a scope instead.
        s: Option<String>,
        pid: u64,
        tid: u64,
    }

    /// One combined test for `--trace` and `metrics`: tracing state is
    /// process-global, so splitting this across tests would let the
    /// parallel test harness interleave enable/disable calls.
    #[test]
    fn trace_export_and_metrics_snapshot() {
        let dir = tmpdir();
        let dirty = dir.join("dirty-trace.json");
        let repaired = dir.join("repaired-trace.json");
        let rules = dir.join("rules-trace.grr");
        let trace = dir.join("trace.json");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "200", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();

        let out = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "-o", repaired.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("converged: true"), "{out}");
        assert!(out.contains("wrote trace"), "{out}");

        // The exported file is valid Chrome trace format.
        let text = std::fs::read_to_string(&trace).unwrap();
        let parsed: TraceFile = serde_json::from_str(&text).expect("trace must parse");
        assert!(!parsed.traceEvents.is_empty());
        let names: Vec<&str> = parsed.traceEvents.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"engine.repair"), "{names:?}");
        assert!(names.contains(&"match.find_all"), "{names:?}");
        for e in &parsed.traceEvents {
            assert!(!e.cat.is_empty());
            assert_eq!(e.pid, 1);
            assert!(e.ts >= 0.0, "negative ts on tid {}", e.tid);
            match e.ph {
                'X' => assert!(e.dur.is_some(), "complete span {} missing dur", e.name),
                'i' => assert_eq!(e.s.as_deref(), Some("t"), "instant {} missing scope", e.name),
                other => panic!("unexpected phase {other:?}"),
            }
        }

        // metrics with a run (-r/-g) produces a populated text snapshot…
        let out = dispatch(&toks(&[
            "metrics", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("counter   engine.rounds"), "{out}");
        assert!(out.contains("histogram match.find_all_ns"), "{out}");

        // …and the JSON form carries the stable schema.
        let out = dispatch(&toks(&["metrics", "--format", "json"])).unwrap();
        for key in ["\"counters\"", "\"gauges\"", "\"histograms\"", "\"events\""] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(out.contains("\"engine.rounds\""), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write a dirty KG and the gold rules into `dir`; returns their
    /// paths.
    fn guardrail_fixture(dir: &Path) -> (std::path::PathBuf, std::path::PathBuf) {
        let dirty = dir.join("guardrail-dirty.json");
        let rules = dir.join("guardrail-rules.grr");
        dispatch(&toks(&[
            "gen", "kg", "--persons", "300", "--noise", "0.1",
            "-o", dirty.to_str().unwrap(),
        ]))
        .unwrap();
        std::fs::write(&rules, grepair_gen::catalog::GOLD_KG_DSL).unwrap();
        (dirty, rules)
    }

    #[test]
    fn repair_max_ops_trips_with_exit_5() {
        let dir = tmpdir();
        let (dirty, rules) = guardrail_fixture(&dir);
        let out_path = dir.join("partial.json");
        let err = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "-o", out_path.to_str().unwrap(), "--max-ops", "1",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 5, "{}", err.message);
        assert!(err.message.contains("outcome: op-budget"), "{}", err.message);
        assert!(err.message.contains("stopped:"), "{}", err.message);
        // The partial (committed-prefix) graph was still exported.
        assert!(out_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_cap_trip_exits_5_and_names_the_derived_cap() {
        // A rule that inserts a node its own pattern matches never
        // converges; on one node the derived cap 10·(1+0+1) stops it.
        let dir = tmpdir();
        let (graph, rules) = (dir.join("grow.json"), dir.join("grow.grr"));
        let mut g = Graph::new();
        g.add_node_named("P");
        save_graph(&g, graph.to_str().unwrap()).unwrap();
        let grow = "rule grow [incompleteness] match (x:P) repair insert node (y:P)";
        std::fs::write(&rules, grow).unwrap();
        let out_path = dir.join("grown.json");
        let err = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "-g", graph.to_str().unwrap(),
            "-o", out_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.code, 5, "{}", err.message);
        for text in [
            "applied 20 repairs",
            "outcome: round-limit",
            "stopped: repair cap of 10·(|V|+|E|+1) repairs reached before convergence",
            "`grepair lint`",
        ] {
            assert!(err.message.contains(text), "{text}: {}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_max_ops_caps_matches_with_exit_5() {
        let dir = tmpdir();
        let (dirty, rules) = guardrail_fixture(&dir);
        let err = dispatch(&toks(&[
            "check", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "--max-ops", "1",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 5, "{}", err.message);
        assert!(err.message.contains("lower bound"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_budget_flags_are_usage_errors() {
        let dir = tmpdir();
        let (dirty, rules) = guardrail_fixture(&dir);
        for flags in [["--timeout", "abc"], ["--timeout", "0"], ["--max-ops", "0"]] {
            let err = dispatch(&toks(&[
                "repair", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
                "-o", "/dev/null", flags[0], flags[1],
            ]))
            .unwrap_err();
            assert_eq!(err.code, 2, "{flags:?}: {}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancel_registry_flips_registered_tokens() {
        let budget = grepair_obs::Budget::unlimited();
        register_cancel_token(budget.token());
        cancel_active();
        assert_eq!(
            budget.checkpoint(),
            Some(grepair_obs::TripReason::Cancelled)
        );
    }

    #[test]
    fn failed_trace_export_warns_but_never_fails_the_repair() {
        let dir = tmpdir();
        let (dirty, rules) = guardrail_fixture(&dir);
        // A directory as the trace target makes the export fail; the
        // repair itself must still succeed (exit 0).
        let trace_target = dir.join("not-a-file");
        std::fs::create_dir_all(&trace_target).unwrap();
        let out = dispatch(&toks(&[
            "repair", "-r", rules.to_str().unwrap(), "-g", dirty.to_str().unwrap(),
            "-o", dir.join("repaired.json").to_str().unwrap(),
            "--trace", trace_target.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("converged: true"), "{out}");
        assert!(out.contains("warning: trace export failed"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_on_faulty_fs_cleans_up_and_recovers() {
        use grepair_store::{FaultOp, FaultyFs, InjectedError};
        let vfs = FaultyFs::new();
        let target = Path::new("/out/result.json");
        vfs.create_dir_all(Path::new("/out")).unwrap();

        // Fail each step of the atomic write in turn; the target must
        // never hold partial content and no temp droppings may remain.
        for op in [FaultOp::Create, FaultOp::Write, FaultOp::Sync, FaultOp::Rename] {
            vfs.inject(op, 0, InjectedError::Enospc);
            assert!(
                write_atomic_on(&vfs, target, "fresh contents").is_err(),
                "{op:?} fault must surface"
            );
            for (path, _) in vfs.durable_image() {
                assert!(
                    !path.to_string_lossy().contains(".tmp"),
                    "temp dropping survived a {op:?} fault: {}",
                    path.display()
                );
            }
        }

        // Fault-free retry over the same backend succeeds.
        write_atomic_on(&vfs, target, "fresh contents").unwrap();
        assert_eq!(vfs.read(target).unwrap(), b"fresh contents");
    }
}
