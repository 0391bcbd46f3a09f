//! Validate the machine-readable bench results committed at the repo
//! root: every `BENCH_*.json` must parse and carry the schema the perf
//! trajectory tooling depends on (`bench`, `smoke`, `results[]` with
//! `id` + `median_ns` + `iters_per_sec`, `metrics{}`). The serde derive
//! rejects missing fields, so parsing into [`BenchJson`] *is* the schema
//! check.
//!
//! CI additionally sets `GREPAIR_REQUIRE_BENCH=<name>[,<name>...]` after
//! smoke-running those benches, turning "file absent" into a failure for
//! exactly the benches it just ran.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Deserialize)]
struct BenchJson {
    bench: String,
    #[allow(dead_code)]
    smoke: bool,
    results: Vec<ResultRow>,
    metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Deserialize)]
struct ResultRow {
    id: String,
    median_ns: f64,
    iters_per_sec: f64,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/grepair-bench")
        .to_path_buf()
}

fn validate(name: &str, text: &str) {
    let parsed: BenchJson =
        serde_json::from_str(text).unwrap_or_else(|e| panic!("{name}: schema violation: {e}"));
    assert_eq!(
        format!("BENCH_{}.json", parsed.bench),
        name,
        "{name}: \"bench\" must match the file name"
    );
    assert!(
        !parsed.results.is_empty(),
        "{name}: results must not be empty (latencies are the point)"
    );
    for r in &parsed.results {
        assert!(!r.id.is_empty(), "{name}: empty result id");
        assert!(
            r.median_ns.is_finite() && r.median_ns >= 0.0,
            "{name}: {}: median_ns = {}",
            r.id,
            r.median_ns
        );
        assert!(
            r.iters_per_sec.is_finite() && r.iters_per_sec >= 0.0,
            "{name}: {}: iters_per_sec = {}",
            r.id,
            r.iters_per_sec
        );
    }
    for (k, v) in &parsed.metrics {
        assert!(v.is_finite(), "{name}: metric {k} = {v}");
    }
    if parsed.bench == "observability" {
        validate_observability(name, &parsed);
    }
    if parsed.bench == "guardrails" {
        validate_guardrails(name, &parsed);
    }
    if parsed.bench == "store_faults" {
        validate_store_faults(name, &parsed);
    }
}

/// Extra contract for the observability bench: the telemetry layer's
/// headline numbers must be present, and the *disabled* overhead on the
/// matching hot path must stay under 5% — instrumentation that is not
/// near-free when off does not get committed as an improvement.
fn validate_observability(name: &str, parsed: &BenchJson) {
    for key in [
        "disabled_overhead_ratio",
        "enabled_overhead_ratio",
        "events_per_sec",
    ] {
        assert!(
            parsed.metrics.contains_key(key),
            "{name}: observability must record metric {key}"
        );
    }
    let disabled = parsed.metrics["disabled_overhead_ratio"];
    assert!(
        (1.0..1.05).contains(&disabled),
        "{name}: disabled telemetry must cost < 5% on the matching hot \
         path (and cannot be a speedup), got {disabled}"
    );
    let enabled = parsed.metrics["enabled_overhead_ratio"];
    assert!(
        enabled > 0.0,
        "{name}: enabled_overhead_ratio must be positive, got {enabled}"
    );
    let eps = parsed.metrics["events_per_sec"];
    assert!(
        eps > 0.0,
        "{name}: events_per_sec must be positive, got {eps}"
    );
}

/// Extra contract for the guardrails bench: budget checks that are not
/// near-free when no limits are set do not ship, and a cancellation
/// that does not land promptly is not "cooperative". The computed
/// disabled-check overhead must stay under 5% (and cannot be a
/// speedup — that would mean the computation is broken), the
/// checkpoint count must prove a real budgeted pass ran, and the
/// flip-to-return p99 must be positive.
fn validate_guardrails(name: &str, parsed: &BenchJson) {
    for key in [
        "disabled_check_overhead_ratio",
        "checkpoints_per_pass",
        "cancel_latency_p99_ms",
    ] {
        assert!(
            parsed.metrics.contains_key(key),
            "{name}: guardrails must record metric {key}"
        );
    }
    let disabled = parsed.metrics["disabled_check_overhead_ratio"];
    assert!(
        (1.0..1.05).contains(&disabled),
        "{name}: no-limit budget checks must cost < 5% on the matching \
         hot path (and cannot be a speedup), got {disabled}"
    );
    let checkpoints = parsed.metrics["checkpoints_per_pass"];
    assert!(
        checkpoints >= 1.0 && checkpoints.fract() == 0.0,
        "{name}: checkpoints_per_pass must be a positive integer \
         (a budgeted pass that never checkpointed measured nothing), \
         got {checkpoints}"
    );
    let p99 = parsed.metrics["cancel_latency_p99_ms"];
    assert!(
        p99 > 0.0,
        "{name}: cancel_latency_p99_ms must be positive, got {p99}"
    );
}

/// Extra contract for the fault-path bench: the fault-density axis and
/// fsck throughput must be present and sane. A recovery "speedup" under
/// injected faults (slowdown < 1) is a measurement bug — skipping
/// snapshots and replaying more log can only cost time — and zero fsck
/// throughput means the dry-run replay never ran.
fn validate_store_faults(name: &str, parsed: &BenchJson) {
    for key in [
        "fault_density_max",
        "recovery_slowdown_faults",
        "fsck_records_per_sec",
    ] {
        assert!(
            parsed.metrics.contains_key(key),
            "{name}: store_faults must record metric {key}"
        );
    }
    let density = parsed.metrics["fault_density_max"];
    assert!(
        density >= 1.0 && density.fract() == 0.0,
        "{name}: fault_density_max must be a positive integer, got {density}"
    );
    let slowdown = parsed.metrics["recovery_slowdown_faults"];
    // >= 1 in principle (skipping snapshots and replaying more log only
    // costs time); 0.9 leaves room for timing noise in smoke runs.
    assert!(
        slowdown >= 0.9,
        "{name}: recovery under {density} faults cannot beat the clean \
         open, got slowdown {slowdown}"
    );
    let fsck_rps = parsed.metrics["fsck_records_per_sec"];
    assert!(
        fsck_rps > 0.0,
        "{name}: fsck_records_per_sec must be positive, got {fsck_rps}"
    );
    // The density axis itself must have been measured, fault-free open
    // included.
    for k in 0..=(density as u64) {
        let id = format!("store_faults/open/faults_{k}");
        assert!(
            parsed.results.iter().any(|r| r.id == id),
            "{name}: missing result row {id}"
        );
    }
}

#[test]
fn committed_bench_json_files_parse_with_required_keys() {
    let root = repo_root();
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&root).expect("read repo root") {
        let entry = entry.expect("dir entry");
        let file_name = entry.file_name();
        let Some(name) = file_name.to_str() else { continue };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).expect("read bench json");
        validate(name, &text);
        seen.push(
            name.trim_start_matches("BENCH_")
                .trim_end_matches(".json")
                .to_owned(),
        );
    }
    if let Ok(required) = std::env::var("GREPAIR_REQUIRE_BENCH") {
        for want in required.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            assert!(
                seen.iter().any(|s| s == want),
                "required BENCH_{want}.json missing at repo root (found: {seen:?})"
            );
        }
    }
}

#[test]
fn validator_rejects_malformed_results() {
    let ok = r#"{"bench":"x","smoke":true,"results":[{"id":"a","median_ns":1.0,"iters_per_sec":2.0}],"metrics":{}}"#;
    validate("BENCH_x.json", ok);
    for bad in [
        // No "bench".
        r#"{"smoke":true,"results":[{"id":"a","median_ns":1.0,"iters_per_sec":2.0}],"metrics":{}}"#,
        // Empty results.
        r#"{"bench":"x","smoke":true,"results":[],"metrics":{}}"#,
        // Row missing a latency key.
        r#"{"bench":"x","smoke":true,"results":[{"id":"a","median_ns":1.0}],"metrics":{}}"#,
        // Name mismatch.
        r#"{"bench":"y","smoke":true,"results":[{"id":"a","median_ns":1.0,"iters_per_sec":2.0}],"metrics":{}}"#,
        // Not JSON at all.
        r#"not json"#,
    ] {
        assert!(
            std::panic::catch_unwind(|| validate("BENCH_x.json", bad)).is_err(),
            "must reject: {bad}"
        );
    }
}

#[test]
fn validator_enforces_store_faults_contract() {
    let rows = r#"[
        {"id":"store_faults/open/faults_0","median_ns":1.0,"iters_per_sec":2.0},
        {"id":"store_faults/open/faults_1","median_ns":1.5,"iters_per_sec":2.0},
        {"id":"store_faults/open/faults_2","median_ns":2.0,"iters_per_sec":2.0}]"#;
    let ok = format!(
        r#"{{"bench":"store_faults","smoke":true,"results":{rows},"metrics":{{
            "fault_density_max":2.0,"recovery_slowdown_faults":1.4,
            "fsck_records_per_sec":10000.0}}}}"#
    );
    validate("BENCH_store_faults.json", &ok);
    for bad_metrics in [
        // Missing the density axis.
        r#""recovery_slowdown_faults":1.4,"fsck_records_per_sec":1e4"#,
        // Missing the headline slowdown.
        r#""fault_density_max":2.0,"fsck_records_per_sec":1e4"#,
        // Missing fsck throughput.
        r#""fault_density_max":2.0,"recovery_slowdown_faults":1.4"#,
        // A recovery "speedup" under injected faults is a measurement bug.
        r#""fault_density_max":2.0,"recovery_slowdown_faults":0.5,"fsck_records_per_sec":1e4"#,
        // Zero fsck throughput means the dry-run replay never ran.
        r#""fault_density_max":2.0,"recovery_slowdown_faults":1.4,"fsck_records_per_sec":0.0"#,
        // Fractional density is nonsense.
        r#""fault_density_max":1.5,"recovery_slowdown_faults":1.4,"fsck_records_per_sec":1e4"#,
    ] {
        let text = format!(
            r#"{{"bench":"store_faults","smoke":true,"results":{rows},"metrics":{{{bad_metrics}}}}}"#
        );
        assert!(
            std::panic::catch_unwind(|| validate("BENCH_store_faults.json", &text)).is_err(),
            "must reject metrics: {bad_metrics}"
        );
    }
    // A density claimed but not measured (missing faults_2 row) fails.
    let short_rows = r#"[{"id":"store_faults/open/faults_0","median_ns":1.0,"iters_per_sec":2.0}]"#;
    let text = format!(
        r#"{{"bench":"store_faults","smoke":true,"results":{short_rows},"metrics":{{
            "fault_density_max":2.0,"recovery_slowdown_faults":1.4,
            "fsck_records_per_sec":1e4}}}}"#
    );
    assert!(
        std::panic::catch_unwind(|| validate("BENCH_store_faults.json", &text)).is_err(),
        "must reject a density axis without its result rows"
    );
}

#[test]
fn validator_enforces_guardrails_contract() {
    let row = r#"[{"id":"a","median_ns":1.0,"iters_per_sec":2.0}]"#;
    let ok = format!(
        r#"{{"bench":"guardrails","smoke":true,"results":{row},"metrics":{{
            "disabled_check_overhead_ratio":1.002,"checkpoints_per_pass":7.0,
            "cancel_latency_p99_ms":0.3}}}}"#
    );
    validate("BENCH_guardrails.json", &ok);
    for bad_metrics in [
        // Missing the headline overhead number.
        r#""checkpoints_per_pass":7.0,"cancel_latency_p99_ms":0.3"#,
        // Missing the checkpoint count.
        r#""disabled_check_overhead_ratio":1.002,"cancel_latency_p99_ms":0.3"#,
        // Missing cancellation latency.
        r#""disabled_check_overhead_ratio":1.002,"checkpoints_per_pass":7.0"#,
        // Overhead past the 5% budget.
        r#""disabled_check_overhead_ratio":1.2,"checkpoints_per_pass":7.0,"cancel_latency_p99_ms":0.3"#,
        // A "speedup" from adding checks is a measurement bug.
        r#""disabled_check_overhead_ratio":0.9,"checkpoints_per_pass":7.0,"cancel_latency_p99_ms":0.3"#,
        // A pass that never checkpointed measured nothing.
        r#""disabled_check_overhead_ratio":1.002,"checkpoints_per_pass":0.0,"cancel_latency_p99_ms":0.3"#,
        // Zero latency means the cancellation was never timed.
        r#""disabled_check_overhead_ratio":1.002,"checkpoints_per_pass":7.0,"cancel_latency_p99_ms":0.0"#,
    ] {
        let text = format!(
            r#"{{"bench":"guardrails","smoke":true,"results":{row},"metrics":{{{bad_metrics}}}}}"#
        );
        assert!(
            std::panic::catch_unwind(|| validate("BENCH_guardrails.json", &text)).is_err(),
            "must reject metrics: {bad_metrics}"
        );
    }
}

#[test]
fn validator_enforces_observability_contract() {
    let row = r#"[{"id":"a","median_ns":1.0,"iters_per_sec":2.0}]"#;
    let ok = format!(
        r#"{{"bench":"observability","smoke":true,"results":{row},"metrics":{{
            "disabled_overhead_ratio":1.001,"enabled_overhead_ratio":1.4,
            "events_per_sec":1000000.0}}}}"#
    );
    validate("BENCH_observability.json", &ok);
    for bad_metrics in [
        // Missing the headline disabled-overhead number.
        r#""enabled_overhead_ratio":1.4,"events_per_sec":1e6"#,
        // Missing the enabled ratio.
        r#""disabled_overhead_ratio":1.001,"events_per_sec":1e6"#,
        // Missing throughput.
        r#""disabled_overhead_ratio":1.001,"enabled_overhead_ratio":1.4"#,
        // Disabled overhead past the 5% budget.
        r#""disabled_overhead_ratio":1.2,"enabled_overhead_ratio":1.4,"events_per_sec":1e6"#,
        // A disabled "speedup" is a measurement bug, not a win.
        r#""disabled_overhead_ratio":0.8,"enabled_overhead_ratio":1.4,"events_per_sec":1e6"#,
        // Zero throughput.
        r#""disabled_overhead_ratio":1.001,"enabled_overhead_ratio":1.4,"events_per_sec":0.0"#,
    ] {
        let text = format!(
            r#"{{"bench":"observability","smoke":true,"results":{row},"metrics":{{{bad_metrics}}}}}"#
        );
        assert!(
            std::panic::catch_unwind(|| validate("BENCH_observability.json", &text)).is_err(),
            "must reject metrics: {bad_metrics}"
        );
    }
}
