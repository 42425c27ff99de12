//! Metrics, correctness checks and in-memory spans for one benchmark run.
//!
//! A run collects named metrics and pass/fail checks into a [`Report`]
//! and prints them at the end: one `metric <name> <value> <unit>` line
//! per metric, then the machine-readable result as the last line of
//! standard output. Traced runs also collect [`Spans`]: coarse spans
//! around calls into each layer, plus per-name call counters for hot
//! calls too frequent to keep one span each. Spans stay in memory and
//! are written to a file when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of a non-empty sample (mean of the middle pair for even
/// counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A field of `/proc/self/status` in KiB (`VmHWM` is the resident
/// high-water mark, `VmRSS` the current resident set). Zero where the
/// file is unavailable.
fn proc_status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The process's resident high-water mark, in bytes.
pub fn peak_rss_bytes() -> u64 {
    proc_status_kib("VmHWM:") * 1024
}

/// The process's current resident set, in bytes.
pub fn rss_bytes() -> u64 {
    proc_status_kib("VmRSS:") * 1024
}

/// The metrics and checks of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records metric `name` (printed with `unit`).
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            !self.metrics.iter().any(|(n, _, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name, value, unit));
    }

    /// Records `value`, a statistic of `samples`, as metric `name`,
    /// printing the count and quartiles of the samples it came from.
    pub fn sampled_metric(&mut self, name: &str, samples: &[f64], value: f64, unit: &'static str) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        // nearest-rank quartiles, for the printout only
        let at = |q: usize| sorted[((sorted.len() - 1) * q + 2) / 4];
        println!(
            "samples {name} n={} min={} q1={} median={} q3={} max={} {unit}",
            sorted.len(),
            at(0),
            at(1),
            median(samples),
            at(3),
            at(4)
        );
        self.metric(name, value, unit);
    }

    /// Counts one correctness check; a failure is reported on standard
    /// error and turns the run's `correct` flag off.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// The recorded metrics, in recording order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// Checks attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Prints every metric by name and unit, then the result object as
    /// the last line. A non-finite metric would not be valid JSON: it is
    /// printed as 0 and counted as a failed check.
    pub fn print(mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect();
        for name in bad {
            self.check(false, &format!("metric {name} is not finite"));
        }
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            println!("metric {name} {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// One recorded span: a named interval, nested under `parent`.
struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Call count and total time of one hot call site.
#[derive(Default, Clone, Copy)]
pub struct CallStat {
    /// Calls timed.
    pub calls: u64,
    /// Total nanoseconds inside those calls.
    pub total_ns: u64,
}

impl CallStat {
    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// In-memory spans and call counters of a traced run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: BTreeMap<&'static str, CallStat>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: BTreeMap::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span, and returns its result with the span's seconds.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Times one call of the hot call site `name` into its counter.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let stat = self.calls.entry(name).or_default();
        stat.calls += 1;
        stat.total_ns += ns;
        out
    }

    /// The counter of call site `name` (zero if never called).
    pub fn calls(&self, name: &str) -> CallStat {
        self.calls.get(name).copied().unwrap_or_default()
    }

    /// Writes every span and counter as JSON to `path`; a failure is
    /// reported on standard error and does not affect the run.
    pub fn write(&self, path: &std::path::Path) {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("], \"calls\": {");
        for (i, (name, c)) in self.calls.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"calls\": {}, \"total_ns\": {}}}",
                c.calls, c.total_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}\n");
        let result = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, out));
        if let Err(e) = result {
            eprintln!("warning: could not write spans to {}: {e}", path.display());
        }
    }
}
