//! The benchmark's own span recorder: one span around every adapter
//! call, kept in memory, written out as a Chrome trace when a traced
//! rep ends.
//!
//! It is on in every rep — the end-to-end metrics (`repair_s`,
//! `reopen_s`, batch latencies) are sums of the same spans, and a rep
//! takes at most a few thousand of them (one per phase, five per stream
//! batch, never one per mutation). What is off in timed reps is the
//! library's `grepair_obs` tracing.

use std::collections::BTreeMap;
use std::time::Instant;

/// Root span of a rep; everything the job does is a descendant.
pub const JOB: &str = "job";
/// Correctness checks between phases. Direct children of [`JOB`] only;
/// their time is excluded from `job_s`.
pub const VERIFY: &str = "bench.verify";
/// One stream batch: ingest → watch.update → store.repair → maybe_compact.
pub const BATCH: &str = "bench.batch";

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Recorder::enter`].
pub struct SpanId(usize);

/// In-memory span recorder for one rep.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span; spans close innermost-first.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Summed duration in seconds of every span whose name is in `names`.
    pub fn total_s(&self, names: &[&str]) -> f64 {
        self.spans
            .iter()
            .filter(|sp| names.contains(&sp.name))
            .map(Span::secs)
            .sum()
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.secs() * 1e3)
            .collect()
    }

    /// Wall-clock of the job with verification taken out.
    pub fn job_s(&self) -> f64 {
        self.total_s(&[JOB]) - self.total_s(&[VERIFY])
    }

    /// Self time per span name: a span's duration minus the part its
    /// direct children cover. The values sum to the [`JOB`] span's
    /// duration.
    pub fn self_times_s(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|sp| (sp.end_ns - sp.start_ns) as i128)
            .collect();
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                self_ns[p] -= (sp.end_ns - sp.start_ns) as i128;
            }
        }
        let mut by_name = BTreeMap::new();
        for (sp, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(sp.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) rendering; every event
    /// carries its parent's index, the workload and the rep.
    pub fn chrome_trace_json(&self, workload: &str, rep: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"rep\":{rep}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_job_and_verify_is_excluded() {
        let mut rec = Recorder::new();
        let job = rec.enter(JOB);
        rec.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let batch = rec.enter(BATCH);
        rec.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.exit(batch);
        rec.time(VERIFY, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        rec.exit(job);

        let selfs = rec.self_times_s();
        let sum: f64 = selfs.values().sum();
        assert!((sum - rec.total_s(&[JOB])).abs() < 1e-9);
        assert!(selfs["a"] >= 0.003);
        assert!(rec.job_s() < rec.total_s(&[JOB]) - 0.0029);
        assert_eq!(rec.durations_ms(BATCH).len(), 1);
        assert!(rec.chrome_trace_json("w", 0).contains("\"parent\":0"));
    }
}
