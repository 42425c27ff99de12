//! The repository benchmark: two seeded workloads driven through the
//! workspace's public APIs on one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mc_proof|sweep_audit> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! An untraced run (`--trace 0`) repeats the workload's set-up and fixed
//! work for `--seconds` and reports the end-to-end metrics: the fastest
//! `task_s` and `setup_s`, and `peak_rss_mb`. A traced run (`--trace 1`)
//! runs the workload once with spans and call counters around every call
//! into a layer, once without, and reports the per-layer metrics plus the
//! tracing overhead. Every traced run reports every per-layer metric;
//! layers a workload never calls read 0 there. `--smoke` shrinks every
//! workload for the benchmark's own tests.
//!
//! The last line of standard output is the result object: correctness
//! checks attempted and failed, and every metric with its unit.

mod audit;
mod mc_proof;
mod report;
mod sweep;
mod sweep_audit;

use report::{Report, Spans};

/// Every per-layer metric name with its unit, in reporting order. A
/// traced run of any workload reports all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mc.states", "count"),
    ("mc.transitions", "count"),
    ("mc.terminals", "count"),
    ("mc.ns_per_state", "ns"),
    ("mc.fingerprint_ns", "ns"),
    ("mc.property_ns", "ns"),
    ("mc.residual_ns_per_transition", "ns"),
    ("mc.key_words", "words"),
    ("mc.bytes_per_state", "B"),
    ("mc.cex_states", "count"),
    ("mc.replay_ms", "ms"),
    ("net.snapshot_ns", "ns"),
    ("net.restore_ns", "ns"),
    ("net.enabled_ns", "ns"),
    ("net.step_chosen_ns", "ns"),
    ("net.null_ns_per_event", "ns"),
    ("net.ns_per_event.ben_or", "ns"),
    ("net.ns_per_event.bracha", "ns"),
    ("net.ns_per_event.paxos", "ns"),
    ("net.ns_per_event.hsuc", "ns"),
    ("net.events.ben_or", "count"),
    ("net.events.bracha", "count"),
    ("net.events.paxos", "count"),
    ("net.events.hsuc", "count"),
    ("net.timers.ben_or", "count"),
    ("net.timers.bracha", "count"),
    ("net.timers.paxos", "count"),
    ("net.timers.hsuc", "count"),
    ("net.messages.ben_or.n4", "count"),
    ("net.messages.ben_or.n7", "count"),
    ("net.messages.ben_or.n10", "count"),
    ("net.messages.ben_or.n13", "count"),
    ("net.messages.bracha.n4", "count"),
    ("net.messages.bracha.n7", "count"),
    ("net.messages.bracha.n10", "count"),
    ("net.messages.bracha.n13", "count"),
    ("net.messages.paxos.n4", "count"),
    ("net.messages.paxos.n7", "count"),
    ("net.messages.paxos.n10", "count"),
    ("net.messages.paxos.n13", "count"),
    ("net.messages.hsuc.n4", "count"),
    ("net.messages.hsuc.n7", "count"),
    ("net.messages.hsuc.n10", "count"),
    ("net.messages.hsuc.n13", "count"),
    ("net.msg_slope.ben_or", "1"),
    ("net.msg_slope.bracha", "1"),
    ("net.msg_slope.paxos", "1"),
    ("net.msg_slope.hsuc", "1"),
    ("sim.run_s", "s"),
    ("sim.overhead_s", "s"),
    ("games.build_ms", "ms"),
    ("games.search_ms", "ms"),
    ("games.profiles", "count"),
    ("games.pruned_profiles", "count"),
    ("games.sampled_audit_ms", "ms"),
    ("scrip.agent_rounds_per_s", "1/s"),
    ("scrip.resident_mb", "MB"),
    ("trace.task_s", "s"),
    ("trace.untraced_task_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The end-to-end metric names with their units.
pub const END_TO_END: &[(&str, &str)] = &[("task_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The workloads, in documentation order.
pub const WORKLOADS: &[&str] = &["mc_proof", "sweep_audit"];

/// How one run was asked to behave.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Wall seconds an untraced run keeps repeating the fixed work.
    pub seconds: f64,
    /// Shrunken workloads for the benchmark's own tests.
    pub smoke: bool,
}

/// A splitmix64 stream: the benchmark's only source of generated
/// inputs, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// How an untraced run times its set-up: `batches` timed batches of
/// `per_batch` set-ups before every repetition (both at least 1). One
/// set-up sample is a batch's mean, so a set-up of a few microseconds is
/// not at the mercy of the timer's granularity or of one cold call. Each
/// set-up in a batch drops the one before it, so a sample includes that
/// drop.
#[derive(Debug, Clone, Copy)]
pub struct SetupTiming {
    /// Timed batches per repetition.
    pub batches: usize,
    /// Set-ups per batch.
    pub per_batch: usize,
}

/// One timed batch of set-ups: the last set-up and the batch's mean
/// seconds.
fn setup_batch<S>(per_batch: usize, setup: &mut impl FnMut() -> S) -> (S, f64) {
    let mut input = None;
    let (t, ()) = timed(|| {
        for _ in 0..per_batch {
            input = Some(setup());
        }
    });
    let input = input.expect("a batch holds at least one set-up");
    (input, t / per_batch as f64)
}

/// An untraced run's loop: the timed set-up batches, then the timed
/// fixed work on the last set-up's output, over and over while the next
/// repetition is expected to end within four fifths of `seconds` (at
/// least once). The rest of the run, at least a fifth, times set-up
/// batches alone, so a workload of a few long repetitions still samples
/// its set-up over a stretch of the run rather than at a few instants.
/// `check` sees each repetition's output and index. Returns the (task,
/// set-up) seconds.
pub fn repeat<S, O>(
    seconds: f64,
    timing: SetupTiming,
    mut setup: impl FnMut() -> S,
    mut task: impl FnMut(S) -> O,
    mut check: impl FnMut(O, usize),
) -> (Vec<f64>, Vec<f64>) {
    let start = std::time::Instant::now();
    let (mut task_s, mut setup_s) = (Vec::new(), Vec::new());
    loop {
        let rep_start = std::time::Instant::now();
        let mut input = None;
        for _ in 0..timing.batches {
            let (s, t) = setup_batch(timing.per_batch, &mut setup);
            setup_s.push(t);
            input = Some(s);
        }
        let input = input.expect("set up at least once");
        let (t, out) = timed(|| task(input));
        task_s.push(t);
        check(out, task_s.len() - 1);
        let next_end = start.elapsed() + rep_start.elapsed();
        if next_end.as_secs_f64() > 0.8 * seconds {
            break;
        }
    }
    while start.elapsed().as_secs_f64() < seconds {
        setup_s.push(setup_batch(timing.per_batch, &mut setup).1);
    }
    (task_s, setup_s)
}

/// Records an untraced run's end-to-end metrics: `task_s` and `setup_s`
/// are the fastest of the run's samples, `peak_rss_mb` the resident
/// high-water mark in MB (10^6 bytes). Every sample of one metric times
/// the same work, and the host's interference only adds time, in phases
/// of seconds to a minute that move a run's median sample by up to a
/// half; the fastest sample is the steadiest estimate of the work's cost.
pub fn report_untraced(report: &mut Report, task_s: &[f64], setup_s: &[f64]) {
    report.sampled_metric("task_s", task_s, fastest(task_s), "s");
    report.sampled_metric("setup_s", setup_s, fastest(setup_s), "s");
    report.metric("peak_rss_mb", report::peak_rss_bytes() as f64 / 1e6, "MB");
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs one workload and returns its report. Traced runs also return
/// their spans.
pub fn run_workload(workload: &str, cfg: &RunCfg, trace: bool) -> (Report, Option<Spans>) {
    let mut report = Report::default();
    let spans = if trace {
        let mut spans = Spans::default();
        let mut layer = LayerMetrics::default();
        let (traced_s, untraced_s) = match workload {
            "mc_proof" => mc_proof::traced(cfg, &mut report, &mut spans, &mut layer),
            "sweep_audit" => sweep_audit::traced(cfg, &mut report, &mut spans, &mut layer),
            other => panic!("unknown workload {other}"),
        };
        layer.set("trace.task_s", traced_s);
        layer.set("trace.untraced_task_s", untraced_s);
        layer.set("trace.overhead_s", traced_s - untraced_s);
        layer.emit(&mut report);
        Some(spans)
    } else {
        match workload {
            "mc_proof" => mc_proof::untraced(cfg, &mut report),
            "sweep_audit" => sweep_audit::untraced(cfg, &mut report),
            other => panic!("unknown workload {other}"),
        }
        None
    };
    (report, spans)
}

/// The per-layer values a traced run fills in; whatever a workload does
/// not set stays 0 (the layer was not called).
#[derive(Default)]
pub struct LayerMetrics {
    values: std::collections::BTreeMap<&'static str, f64>,
}

impl LayerMetrics {
    /// Sets per-layer metric `name`, which must be listed in
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (name, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values.insert(name, value);
    }

    fn emit(self, report: &mut Report) {
        for &(name, unit) in PER_LAYER {
            report.metric(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

fn parse_args() -> Result<(String, RunCfg, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let cfg = RunCfg {
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        smoke,
    };
    Ok((workload, cfg, trace.unwrap_or(false)))
}

fn main() {
    let (workload, cfg, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={} mode={} nproc={nproc} threads=1",
        cfg.seed,
        cfg.seconds,
        u8::from(trace),
        if cfg.smoke { "smoke" } else { "full" },
    );
    let (report, spans) = run_workload(&workload, &cfg, trace);
    if let Some(spans) = spans {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        spans.write(
            &std::path::Path::new(&dir)
                .join("perfbench-spans")
                .join(format!("{workload}-seed{}.json", cfg.seed)),
        );
    }
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `section` of the repository's
    /// `BENCHMARK.json` (a flat scan for `"name"` keys inside the
    /// section's array).
    fn benchmark_names(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let quoted = chunk.split('"').nth(1).expect("name value is quoted");
                quoted.to_string()
            })
            .collect()
    }

    fn names(report: &Report) -> Vec<String> {
        report.metrics().iter().map(|(n, _, _)| n.clone()).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(benchmark_names("end_to_end"), e2e);
        assert_eq!(benchmark_names("per_layer"), layer);
        assert_eq!(benchmark_names("workloads"), WORKLOADS);
    }

    #[test]
    fn every_workload_emits_every_named_metric_and_passes_its_checks() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 0.0,
            smoke: true,
        };
        for workload in WORKLOADS {
            let (untraced, _) = run_workload(workload, &cfg, false);
            assert_eq!(
                names(&untraced),
                benchmark_names("end_to_end"),
                "{workload}"
            );
            assert!(
                untraced.attempted() > 0 && untraced.failed() == 0,
                "{workload}"
            );
            assert!(
                untraced.metrics().iter().all(|(_, v, _)| *v > 0.0),
                "{workload}"
            );
            let (traced, spans) = run_workload(workload, &cfg, true);
            assert!(spans.is_some());
            assert_eq!(names(&traced), benchmark_names("per_layer"), "{workload}");
            assert!(traced.attempted() > 0 && traced.failed() == 0, "{workload}");
        }
    }
}
