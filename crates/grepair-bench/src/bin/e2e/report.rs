//! Metric names, how each is derived from a rep's spans and counts, and
//! the result line. `BENCHMARK.json` lists the same names; a unit test
//! keeps the two in step.

use crate::jobs::Counts;
use crate::spans::{Recorder, BATCH};

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("repair_s", "s"),
    ("reopen_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("disk_bytes_per_element", "B"),
];

/// Spans that are one layer's work; each gives the per-layer metric
/// `<span>_s` (its self time in the traced rep).
const LAYER_SPANS: &[&str] = &[
    "graph.parse_text",
    "graph.build",
    "graph.export",
    "graph.reload",
    "core.dsl_parse",
    "core.lint",
    "core.schedule",
    "match.check",
    "engine.repair",
    "engine.count_violations",
    "watch.new",
    "watch.update",
    "store.create",
    "store.ingest",
    "store.commit",
    "store.repair",
    "store.compact",
    "store.maybe_compact",
    "store.close",
    "store.open_replay",
    "store.open_snapshot",
];

/// Per-layer metrics `(name, unit)`, from the traced rep.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_text_s", "s"),
    ("graph.build_s", "s"),
    ("graph.export_s", "s"),
    ("graph.reload_s", "s"),
    ("graph.elements", "count"),
    ("core.dsl_parse_s", "s"),
    ("core.lint_s", "s"),
    ("core.schedule_s", "s"),
    ("core.lint_findings", "count"),
    ("match.check_s", "s"),
    ("match.matches", "count"),
    ("match.matches_per_s", "1/s"),
    ("plan.compiles", "count"),
    ("plan.cache_hits", "count"),
    ("plan.replans", "count"),
    ("engine.repair_s", "s"),
    ("engine.count_violations_s", "s"),
    ("engine.rounds", "count"),
    ("engine.strata", "count"),
    ("engine.repairs_applied", "count"),
    ("engine.rule_scans", "count"),
    ("engine.residual", "count"),
    ("engine.matches_found", "count"),
    ("engine.repairs_per_s", "1/s"),
    ("engine.applied_per_match", "ratio"),
    ("watch.new_s", "s"),
    ("watch.update_s", "s"),
    ("watch.fresh_violations", "count"),
    ("store.create_s", "s"),
    ("store.ingest_s", "s"),
    ("store.ingest_records_per_s", "1/s"),
    ("store.commit_s", "s"),
    ("store.commits", "count"),
    ("store.repair_s", "s"),
    ("store.records", "count"),
    ("store.wal_bytes", "B"),
    ("store.wal_bytes_per_record", "B"),
    ("store.journal_tax_ratio", "ratio"),
    ("store.compact_s", "s"),
    ("store.maybe_compact_s", "s"),
    ("store.compactions", "count"),
    ("store.snapshot_bytes", "B"),
    ("store.segments_retired", "count"),
    ("store.open_replay_s", "s"),
    ("store.open_snapshot_s", "s"),
    ("store.close_s", "s"),
    ("store.records_replayed", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.trace_events", "count"),
    ("bench.unattributed_s", "s"),
    ("bench.unattributed_share", "ratio"),
    ("bench.rep_spread", "ratio"),
    ("bench.job_min_s", "s"),
    ("bench.job_max_s", "s"),
    ("bench.timed_reps", "count"),
    ("bench.host_steal_share", "ratio"),
];

/// Rules text + graph in hand → fixpoint verified.
const REPAIR_SPANS: &[&str] = &[
    "core.dsl_parse",
    "core.lint",
    "core.schedule",
    "match.check",
    "engine.repair",
    "store.repair",
];
/// Getting the persisted result back into memory.
const REOPEN_SPANS: &[&str] = &["store.open_replay", "store.open_snapshot", "graph.reload"];
/// Getting the data in: with [`REPAIR_SPANS`], the one "batch" of a job
/// that is not a stream.
const INGEST_SPANS: &[&str] = &[
    "graph.build",
    "store.create",
    "store.ingest",
    "store.commit",
];

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// a ÷ b, or 0 where the layer did no such work on this workload.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The timings one rep contributes to the end-to-end metrics.
pub struct RepTimes {
    pub job_s: f64,
    pub repair_s: f64,
    pub reopen_s: f64,
    pub batch_p50_ms: f64,
    pub batch_p95_ms: f64,
    pub bytes_per_element: f64,
}

impl RepTimes {
    pub fn of(rec: &Recorder, counts: &Counts) -> RepTimes {
        let mut batches = rec.durations_ms(BATCH);
        if batches.is_empty() {
            batches.push((rec.total_s(INGEST_SPANS) + rec.total_s(REPAIR_SPANS)) * 1e3);
        }
        RepTimes {
            job_s: rec.job_s(),
            repair_s: rec.total_s(REPAIR_SPANS),
            reopen_s: rec.total_s(REOPEN_SPANS),
            batch_p50_ms: median(&batches),
            batch_p95_ms: percentile(&batches, 0.95),
            bytes_per_element: ratio(
                counts["bench.persisted_bytes"],
                counts["bench.live_elements"],
            ),
        }
    }
}

/// Every end-to-end metric, in [`END_TO_END`] order: medians across the
/// set-ups and across the timed reps.
pub fn end_to_end(setups_s: &[f64], reps: &[RepTimes], peak_rss_mb: f64) -> Vec<f64> {
    let med = |f: fn(&RepTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        median(setups_s),
        med(|r| r.job_s),
        med(|r| r.repair_s),
        med(|r| r.reopen_s),
        med(|r| r.batch_p50_ms),
        med(|r| r.batch_p95_ms),
        peak_rss_mb,
        // Exact: the same in every rep.
        med(|r| r.bytes_per_element),
    ]
}

/// Every per-layer metric, in [`PER_LAYER`] order, from the traced rep
/// (`rec`, `counts`), the library events it produced, the timed reps'
/// `job_s` values and the host's steal share while they ran.
pub fn per_layer(
    rec: &Recorder,
    counts: &Counts,
    trace_events: usize,
    timed_job_s: &[f64],
    host_steal_share: f64,
) -> Vec<f64> {
    let self_s = rec.self_times_s();
    let span_s = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let traced_job_s = rec.job_s();
    let attributed: f64 = LAYER_SPANS.iter().map(|s| span_s(s)).sum();
    let timed_median = median(timed_job_s);
    let job_min = timed_job_s.iter().copied().fold(f64::INFINITY, f64::min);
    let job_max = timed_job_s.iter().copied().fold(0.0, f64::max);
    // The repair call the job itself made: in memory or through the store.
    let job_repair_s = span_s("engine.repair") + span_s("store.repair");

    PER_LAYER
        .iter()
        .map(|&(name, _)| match name {
            // On the durable workloads the in-memory engine only runs as
            // the reference, outside the job.
            "engine.repair_s" if count("ref.engine_repair_s") > 0.0 => count("ref.engine_repair_s"),
            "match.matches_per_s" => ratio(count("match.matches"), span_s("match.check")),
            "engine.repairs_per_s" => ratio(count("engine.repairs_applied"), job_repair_s),
            "engine.applied_per_match" => ratio(
                count("engine.repairs_applied"),
                count("engine.matches_found"),
            ),
            "store.ingest_records_per_s" => {
                ratio(count("bench.ingested_records"), span_s("store.ingest"))
            }
            "store.wal_bytes_per_record" => ratio(count("store.wal_bytes"), count("store.records")),
            "store.journal_tax_ratio" => {
                ratio(span_s("store.repair"), count("ref.engine_repair_s"))
            }
            "obs.trace_overhead_ratio" => ratio(traced_job_s, timed_median),
            "obs.trace_events" => trace_events as f64,
            "bench.unattributed_s" => traced_job_s - attributed,
            "bench.unattributed_share" => ratio(traced_job_s - attributed, traced_job_s),
            "bench.rep_spread" => ratio(job_max - job_min, timed_median),
            "bench.job_min_s" => job_min,
            "bench.job_max_s" => job_max,
            "bench.timed_reps" => timed_job_s.len() as f64,
            "bench.host_steal_share" => host_steal_share,
            _ => match name.strip_suffix("_s") {
                Some(span) if LAYER_SPANS.contains(&span) => span_s(span),
                _ => count(name),
            },
        })
        .collect()
}

/// What one invocation measured.
pub struct Outcome {
    /// `job_s` of every timed rep, in order: the raw samples, for
    /// judging the noise of a run.
    pub timed_job_s: Vec<f64>,
    /// CPU-seconds the hypervisor took from this VM per second of the
    /// timed reps (`/proc/stat` steal; 0 where the host does not report
    /// it). Far from 0, the timings measured the neighbours.
    pub host_steal_share: f64,
    pub end_to_end: Vec<f64>,
    /// Present after a traced rep.
    pub per_layer: Option<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with its unit, one per line.
    pub fn render_text(&self, workload: &str) -> String {
        let mut out = format!(
            "workload {workload}: {} of {} calls and checks failed\n",
            self.failed, self.attempted
        );
        out.push_str(&format!(
            "  timed reps, job_s each: {:.4?}; host steal {:.4} CPU-s per s\n",
            self.timed_job_s, self.host_steal_share
        ));
        let layers = self.per_layer.iter().flat_map(|v| PER_LAYER.iter().zip(v));
        for ((name, unit), value) in END_TO_END.iter().zip(&self.end_to_end).chain(layers) {
            out.push_str(&format!("  {name:<28} {value:>16.6} {unit}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        out
    }

    /// The result line: per-layer metrics after a traced rep, end-to-end
    /// metrics otherwise. Written by hand as `grepair_obs::snapshot_json`
    /// is — the benchmark has no JSON dependency outside its tests.
    pub fn result_json(&self) -> String {
        let (names, values) = match &self.per_layer {
            Some(values) => (PER_LAYER, values),
            None => (END_TO_END, &self.end_to_end),
        };
        let metrics: Vec<String> = names
            .iter()
            .zip(values)
            .map(|((name, unit), value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn every_layer_span_has_its_metric() {
        for span in LAYER_SPANS {
            let metric = format!("{span}_s");
            assert!(
                PER_LAYER.iter().any(|(n, u)| *n == metric && *u == "s"),
                "{metric}"
            );
        }
    }
}
