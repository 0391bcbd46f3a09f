//! `e2e` — the repository's benchmark: the paper's whole job (load →
//! lint + schedule → match → repair to fixpoint → commit → compact →
//! reopen) on four workloads, timed end to end with tracing off and
//! attributed to layers from one traced rep. See `README.md` beside this
//! file for the workloads, the metrics and how to read the output.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--dir DIR]
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of
//! its own so that `peak_rss_mb` is that workload's alone.

#![forbid(unsafe_code)]

mod api;
mod inputs;
mod jobs;
mod report;
mod spans;

use inputs::{Sizes, Workload};
use jobs::{Checks, Rep};
use report::{Outcome, RepTimes};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// How much one invocation measures.
struct Plan {
    /// Set-ups run (the median is `setup_s`; the last one's input is used).
    setups: usize,
    /// Timed reps continue until both limits are met.
    min_timed_reps: usize,
    seconds: f64,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU-seconds the hypervisor has taken from this VM since boot: the
/// steal column of `/proc/stat`, in ticks of 1/100 s. 0 where absent.
fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Run one workload: set-ups, a discarded warm-up rep with full
/// verification, timed reps with the library's tracing off, and — when
/// `traced` — one rep with it on that also repairs the same input in
/// memory. Store directories and trace files live under `out`.
fn run_workload(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    plan: &Plan,
    traced: bool,
    out: &Path,
) -> Result<Outcome, String> {
    let scratch = out.join(format!("tmp-{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = measure(workload, sizes, seed, plan, traced, out, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn measure(
    workload: Workload,
    sizes: &Sizes,
    seed: u64,
    plan: &Plan,
    traced: bool,
    out: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut setups_s = Vec::new();
    let mut input = None;
    for _ in 0..plan.setups {
        drop(input.take());
        let started = Instant::now();
        input = Some(inputs::set_up(workload, sizes, seed, scratch)?);
        setups_s.push(started.elapsed().as_secs_f64());
    }
    let input = input.ok_or("a run needs at least one set-up")?;

    let mut ck = Checks::default();
    let rep_dir = scratch.join("rep");
    let one_rep = |ck: &mut Checks, full: bool, reference: bool| {
        let mut rep = Rep::new(ck, full, reference);
        let result = jobs::run(&mut rep, &input, &rep_dir);
        let _ = std::fs::remove_dir_all(&rep_dir);
        result.map(|()| (rep.rec, rep.counts))
    };

    // The first rep is up to 1.4x slower than steady state (cold
    // allocator, page cache, plan caches): run it, verify it in full,
    // discard its timings.
    one_rep(&mut ck, true, false)?;

    let mut reps: Vec<RepTimes> = Vec::new();
    let stolen_before = host_steal_s();
    let timed = Instant::now();
    while reps.len() < plan.min_timed_reps || timed.elapsed().as_secs_f64() < plan.seconds {
        let (rec, counts) = one_rep(&mut ck, false, false)?;
        reps.push(RepTimes::of(&rec, &counts));
    }

    let host_steal_share = (host_steal_s() - stolen_before) / timed.elapsed().as_secs_f64();
    let timed_job_s: Vec<f64> = reps.iter().map(|r| r.job_s).collect();
    let per_layer = if traced {
        api::set_tracing(true);
        let rep = one_rep(&mut ck, true, true);
        api::set_tracing(false);
        let (rec, counts) = rep?;
        let trace_events = api::drain_library_trace();
        let write = |name: String, body: String| {
            let path = out.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(
            format!("trace-{}.json", workload.name()),
            rec.chrome_trace_json(workload.name(), reps.len() + 1),
        )?;
        write(
            format!("obs-{}.json", workload.name()),
            api::metrics_snapshot_json(),
        )?;
        Some(report::per_layer(
            &rec,
            &counts,
            trace_events,
            &timed_job_s,
            host_steal_share,
        ))
    } else {
        None
    };

    Ok(Outcome {
        timed_job_s,
        host_steal_share,
        end_to_end: report::end_to_end(&setups_s, &reps, peak_rss_mb()),
        per_layer,
        attempted: ck.attempted,
        failed: ck.failed,
        failures: ck.failures,
    })
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    // Store directories and traces stay inside the build tree: the
    // driver's checkout is the only place a run may write.
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: true,
        dir: target.join("e2e"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--dir" => args.dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Run every workload as a child of this executable, passing the
/// arguments through.
fn run_all(argv: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(argv)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// 0 = measured and correct, 1 = a call or check failed, 2 = could not run.
fn exit_status(run: &Result<bool, String>) -> u8 {
    match run {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(_) => 2,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<bool, String> {
        let args = parse_args(&argv)?;
        let Some(workload) = args.workload else {
            return run_all(&argv);
        };
        std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
        let plan = Plan {
            setups: 5,
            min_timed_reps: 3,
            seconds: args.seconds,
        };
        let outcome = run_workload(
            workload,
            &Sizes::FULL,
            args.seed,
            &plan,
            args.trace,
            &args.dir,
        )?;
        println!(
            "e2e seed {}: closed loop, one client, one thread; sync_on_commit on; \
             latencies are this sandbox's, not a device's",
            args.seed
        );
        print!("{}", outcome.render_text(workload.name()));
        println!("{}", outcome.result_json());
        Ok(outcome.correct())
    };
    let run = run();
    if let Err(e) = &run {
        eprintln!("e2e: {e}");
    }
    ExitCode::from(exit_status(&run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    /// Test-only sizes: a function argument, never a flag.
    const TINY: Sizes = Sizes {
        kg_bulk_persons: 300,
        manyrules_persons: 300,
        synthetic_rules: 16,
        cascade_nodes: 1000,
        cascade_stages: 8,
        social_accounts: 300,
        stream_batches: 5,
    };
    const ONE_REP: Plan = Plan {
        setups: 1,
        min_timed_reps: 1,
        seconds: 0.0,
    };

    #[derive(Deserialize)]
    struct Declared {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<DeclaredWorkload>,
        end_to_end: Vec<DeclaredMetric>,
        per_layer: Vec<DeclaredMetric>,
    }
    #[derive(Deserialize)]
    struct DeclaredWorkload {
        name: String,
        why: String,
    }
    #[derive(Deserialize)]
    struct DeclaredMetric {
        name: String,
        unit: String,
        better: String,
        bound: Option<f64>,
    }
    #[derive(Deserialize)]
    struct ResultLine {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, Measured>,
    }
    #[derive(Deserialize)]
    struct Measured {
        value: f64,
        unit: String,
    }

    fn declared() -> Declared {
        serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    /// Every workload at tiny size, traced: seed 42 twice, seed 43 once.
    /// Run once and shared — the library's tracing switch is
    /// process-global, so workload runs must not overlap.
    fn tiny_runs() -> &'static Vec<(Workload, [Outcome; 3])> {
        static RUNS: OnceLock<Vec<(Workload, [Outcome; 3])>> = OnceLock::new();
        RUNS.get_or_init(|| {
            let out = std::env::temp_dir().join(format!("grepair-e2e-test-{}", std::process::id()));
            std::fs::create_dir_all(&out).unwrap();
            let runs = Workload::ALL
                .into_iter()
                .map(|w| {
                    let run = |seed| run_workload(w, &TINY, seed, &ONE_REP, true, &out).unwrap();
                    (w, [run(42), run(42), run(43)])
                })
                .collect();
            for w in Workload::ALL {
                assert!(out.join(format!("trace-{}.json", w.name())).is_file());
                assert!(out.join(format!("obs-{}.json", w.name())).is_file());
            }
            std::fs::remove_dir_all(&out).unwrap();
            runs
        })
    }

    fn layer(outcome: &Outcome, name: &str) -> f64 {
        let at = report::PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap();
        outcome.per_layer.as_ref().unwrap()[at]
    }

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let d = declared();
        let names = |ms: &[DeclaredMetric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let own = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&d.end_to_end), own(report::END_TO_END));
        assert_eq!(names(&d.per_layer), own(report::PER_LAYER));
        let workloads: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));

        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(well_formed(&m.name), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        }
        for m in &d.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(d
            .workloads
            .iter()
            .all(|w| well_formed(&w.name) && w.why.len() <= 200));
        assert!((1..=60).contains(&d.run_seconds));
        // The command and every path stay inside the benchmark's directory.
        let dir = "crates/grepair-bench/src/bin/e2e";
        assert_eq!(d.paths, [dir]);
        assert!(d.command.iter().any(|a| a.starts_with(dir)));
    }

    #[test]
    fn result_lines_parse_and_carry_every_metric() {
        for (w, runs) in tiny_runs() {
            let outcome = &runs[0];
            let traced: ResultLine = serde_json::from_str(&outcome.result_json()).unwrap();
            let timed_only = Outcome {
                timed_job_s: Vec::new(),
                host_steal_share: 0.0,
                end_to_end: outcome.end_to_end.clone(),
                per_layer: None,
                attempted: outcome.attempted,
                failed: outcome.failed,
                failures: Vec::new(),
            };
            let timed: ResultLine = serde_json::from_str(&timed_only.result_json()).unwrap();
            for (line, table) in [(&traced, report::PER_LAYER), (&timed, report::END_TO_END)] {
                assert!(
                    line.correct && line.failed == 0 && line.attempted > 0,
                    "{w:?}"
                );
                assert_eq!(line.metrics.len(), table.len());
                for (name, unit) in table {
                    let m = &line.metrics[*name];
                    assert_eq!(m.unit, *unit);
                    assert!(m.value.is_finite(), "{w:?} {name}");
                }
            }
            // End-to-end metrics are never 0: the driver divides by them.
            assert!(timed.metrics.values().all(|m| m.value > 0.0), "{w:?}");
            let text = outcome.render_text(w.name());
            for (name, _) in report::END_TO_END.iter().chain(report::PER_LAYER) {
                assert!(text.contains(name), "{name} missing from the text report");
            }
        }
    }

    #[test]
    fn nothing_fails_and_layers_account_for_the_job() {
        for (w, runs) in tiny_runs() {
            for outcome in runs {
                assert_eq!(outcome.failed, 0, "{w:?}: {:?}", outcome.failures);
                assert!(outcome.correct());
                let share = layer(outcome, "bench.unattributed_share");
                assert!((0.0..=0.05).contains(&share), "{w:?}: unattributed {share}");
                assert_eq!(layer(outcome, "engine.residual"), 0.0);
            }
        }
    }

    #[test]
    fn exact_counts_repeat_within_a_seed_and_move_with_it() {
        for (w, [a, b, other_seed]) in tiny_runs() {
            let exact = |o: &Outcome| {
                let mut v: Vec<f64> = [
                    "graph.elements",
                    "match.matches",
                    "engine.repairs_applied",
                    "store.records",
                ]
                .iter()
                .map(|name| layer(o, name))
                .collect();
                let at = report::END_TO_END
                    .iter()
                    .position(|(n, _)| *n == "disk_bytes_per_element")
                    .unwrap();
                v.push(o.end_to_end[at]);
                v
            };
            assert_eq!(exact(a), exact(b), "{w:?}: same seed, different counts");
            assert_ne!(
                exact(a),
                exact(other_seed),
                "{w:?}: the seed changes nothing"
            );
        }
    }

    #[test]
    fn each_workload_exercises_the_layers_it_was_chosen_for() {
        for (w, [o, ..]) in tiny_runs() {
            let durable = matches!(w, Workload::KgBulkDurable | Workload::SocialStreamDurable);
            assert_eq!(layer(o, "store.records") > 0.0, durable, "{w:?}");
            assert_eq!(layer(o, "store.journal_tax_ratio") > 0.0, durable, "{w:?}");
            assert_eq!(layer(o, "match.matches") > 0.0, !durable, "{w:?}");
            let multi_round = *w == Workload::CascadeRoundsInmem;
            assert_eq!(layer(o, "engine.strata") > 0.0, multi_round, "{w:?}");
            let stream = *w == Workload::SocialStreamDurable;
            assert_eq!(layer(o, "watch.fresh_violations") > 0.0, stream, "{w:?}");
            assert_eq!(
                layer(o, "store.compactions") == 0.0,
                *w != Workload::KgBulkDurable
            );
        }
    }

    #[test]
    fn a_failed_check_is_a_non_zero_exit() {
        assert_eq!(exit_status(&Ok(true)), 0);
        assert_ne!(exit_status(&Ok(false)), 0);
        assert_ne!(exit_status(&Err("no input".to_owned())), 0);
        assert!(parse_args(&["--workload".to_owned(), "no-such".to_owned()]).is_err());
        assert!(parse_args(&["--trace".to_owned(), "2".to_owned()]).is_err());
    }
}
