//! The protocol sweep, first half of the `sweep_audit` workload:
//! `SimRunner::run_sequential` over four protocols at n ∈ {4, 7, 10,
//! 13} — Ben-Or under FIFO, rushing and random schedulers; Bracha with
//! 20% loss and exponential retry; Paxos and HSUC under no crash,
//! crash-stop and crash-recovery.
//!
//! The event queue, dispatch and protocol handlers do almost all the
//! work through `EventNet::run`; the checker is idle. Bracha-retry and
//! the crash-recovery grids are timer-heavy while Ben-Or is
//! delivery-only, so a queue change that favours one event kind shows.
//! The seed is the runner's base seed.

use crate::report::{Report, Spans};
use crate::{timed, LayerMetrics, RunCfg, SplitMix};
use bne_core::net::scenario::{AsyncBrachaCell, BenOrCell, BenOrScenario};
use bne_core::net::{
    quorum_consensus_grid, AsyncBrachaScenario, AsyncProcess, ConsensusStats, CrashRegime,
    EventNet, HsucScenario, LatencyModel, NetConfig, NetCtx, NetProfile, PaxosScenario, RbStats,
    RetryPolicy, SchedulerSpec,
};
use bne_core::sim::{canonical_fold, derive_seed, CellResult, Scenario, SimRunner, StreamingStats};
use std::cell::Cell;

/// Process counts every protocol is swept over.
const SIZES: [usize; 4] = [4, 7, 10, 13];

/// Replicas per grid cell.
const REPLICAS: usize = 256;

/// Events the null relay processes.
const NULL_EVENTS: u64 = 2_000_000;

/// The four grids of one sweep.
struct Grids {
    ben_or: Vec<BenOrCell>,
    bracha: Vec<AsyncBrachaCell>,
    quorum: Vec<bne_core::net::QuorumConsensusCell>,
}

fn grids() -> Grids {
    let mut ben_or = Vec::new();
    for scheduler in [
        SchedulerSpec::Fifo,
        SchedulerSpec::Rush { honest_delay: 2 },
        SchedulerSpec::Random { jitter: 2 },
    ] {
        for n in SIZES {
            // Byzantine Ben-Or needs n > 5t; the t noise adversaries are
            // the last process ids
            let t = (n - 1) / 5;
            ben_or.push(BenOrCell {
                n,
                t,
                faults: t,
                noisy: true,
                unanimous_start: false,
                max_rounds: 400,
                net: NetProfile {
                    latency: LatencyModel::Constant(1),
                    scheduler: scheduler.clone(),
                    ..NetProfile::lockstep()
                },
            });
        }
    }
    let bracha = SIZES
        .iter()
        .map(|&n| AsyncBrachaCell {
            n,
            t: (n - 1) / 3,
            retry: Some(RetryPolicy::exponential(2)),
            net: NetProfile {
                latency: LatencyModel::Constant(1),
                ..NetProfile::lossy(0.2)
            },
        })
        .collect();
    let quorum = quorum_consensus_grid(
        &SIZES,
        &[
            CrashRegime::None,
            CrashRegime::CrashStop { after_events: 3 },
            CrashRegime::CrashRecovery {
                after_events: 3,
                recover_at: 300,
            },
        ],
        &[SchedulerSpec::Fifo],
        40,
        12,
    );
    Grids {
        ben_or,
        bracha,
        quorum,
    }
}

/// The per-run counters both outcome types carry.
trait Counters {
    fn events(&self) -> &StreamingStats;
    fn timers(&self) -> &StreamingStats;
    fn messages(&self) -> &StreamingStats;
    fn agreement(&self) -> &StreamingStats;
}

impl Counters for ConsensusStats {
    fn events(&self) -> &StreamingStats {
        &self.events
    }
    fn timers(&self) -> &StreamingStats {
        &self.timers
    }
    fn messages(&self) -> &StreamingStats {
        &self.messages
    }
    fn agreement(&self) -> &StreamingStats {
        &self.agreement
    }
}

impl Counters for RbStats {
    fn events(&self) -> &StreamingStats {
        &self.events
    }
    fn timers(&self) -> &StreamingStats {
        &self.timers
    }
    fn messages(&self) -> &StreamingStats {
        &self.messages
    }
    fn agreement(&self) -> &StreamingStats {
        &self.agreement
    }
}

/// One sweep's results, per protocol.
pub struct Sweep {
    ben_or: Vec<CellResult<ConsensusStats>>,
    bracha: Vec<CellResult<RbStats>>,
    paxos: Vec<CellResult<ConsensusStats>>,
    hsuc: Vec<CellResult<ConsensusStats>>,
}

/// Everything one sweep needs: the runner and the grids.
pub struct Inputs {
    runner: SimRunner,
    grids: Grids,
}

/// The whole set-up.
pub fn setup(cfg: &RunCfg) -> Inputs {
    let replicas = if cfg.smoke { 1 } else { REPLICAS };
    Inputs {
        runner: SimRunner::new(replicas, SplitMix::new(cfg.seed, 0).next_u64()),
        grids: grids(),
    }
}

/// The fixed work: every grid through the runner, on this thread.
pub fn task(inputs: &Inputs) -> Sweep {
    let (runner, g) = (&inputs.runner, &inputs.grids);
    Sweep {
        ben_or: runner.run_sequential(&BenOrScenario, &g.ben_or),
        bracha: runner.run_sequential(&AsyncBrachaScenario, &g.bracha),
        paxos: runner.run_sequential(&PaxosScenario, &g.quorum),
        hsuc: runner.run_sequential(&HsucScenario, &g.quorum),
    }
}

/// Direct `Scenario::run` calls for every replica of every cell, folded
/// the way the runner folds them.
fn direct<S: Scenario>(scenario: &S, runner: &SimRunner, grid: &[S::Config]) -> Vec<S::Outcome> {
    grid.iter()
        .enumerate()
        .map(|(cell, config)| {
            let outcomes = (0..runner.replicas()).map(|r| {
                scenario.run(
                    config,
                    derive_seed(runner.base_seed(), cell as u64, r as u64),
                )
            });
            canonical_fold(outcomes).expect("at least one replica")
        })
        .collect()
}

/// A scenario that times every `run` call the runner makes into it, so
/// a traced sweep splits runner time into per-run work and the runner's
/// own seeding and merging.
struct Timed<'a, S> {
    inner: &'a S,
    run_s: Cell<f64>,
}

impl<'a, S> Timed<'a, S> {
    fn new(inner: &'a S) -> Self {
        Timed {
            inner,
            run_s: Cell::new(0.0),
        }
    }
}

impl<S: Scenario> Scenario for Timed<'_, S> {
    type Config = S::Config;
    type Outcome = S::Outcome;

    fn run(&self, config: &S::Config, seed: u64) -> S::Outcome {
        let (t, out) = timed(|| self.inner.run(config, seed));
        self.run_s.set(self.run_s.get() + t);
        out
    }
}

/// Gates one protocol's results: the runner equals the canonical fold of
/// direct runs cell by cell, and every run agreed.
fn check_protocol<O: Counters + PartialEq>(
    report: &mut Report,
    name: &str,
    runner_out: &[CellResult<O>],
    direct_out: &[O],
) {
    report.check(
        runner_out.len() == direct_out.len()
            && runner_out
                .iter()
                .zip(direct_out)
                .all(|(r, d)| r.outcome == *d),
        &format!("{name}: runner result differs from the fold of direct runs"),
    );
    report.check(
        runner_out
            .iter()
            .all(|r| r.outcome.agreement().mean() == 1.0),
        &format!("{name}: a run violated agreement"),
    );
}

/// Direct runs of every protocol, gated against a runner sweep.
fn check_sweep(report: &mut Report, runner: &SimRunner, g: &Grids, sweep: &Sweep) {
    let ben_or = direct(&BenOrScenario, runner, &g.ben_or);
    check_protocol(report, "ben_or", &sweep.ben_or, &ben_or);
    let bracha = direct(&AsyncBrachaScenario, runner, &g.bracha);
    check_protocol(report, "bracha", &sweep.bracha, &bracha);
    let paxos = direct(&PaxosScenario, runner, &g.quorum);
    check_protocol(report, "paxos", &sweep.paxos, &paxos);
    let hsuc = direct(&HsucScenario, runner, &g.quorum);
    check_protocol(report, "hsuc", &sweep.hsuc, &hsuc);
}

/// The sweep's gates over an untraced run: the first repetition against
/// direct `Scenario::run` calls, every later one against the first's
/// counters.
#[derive(Default)]
pub struct Gate {
    first: Option<[ProtoCounts; 4]>,
}

impl Gate {
    /// Gates one repetition's `sweep`, run on `inputs`.
    pub fn check(&mut self, report: &mut Report, inputs: &Inputs, sweep: &Sweep) {
        let counts = counts(&inputs.grids, sweep);
        match &self.first {
            None => {
                check_sweep(report, &inputs.runner, &inputs.grids, sweep);
                self.first = Some(counts);
            }
            Some(first) => report.check(*first == counts, "a repeated sweep changed its counters"),
        }
    }
}

/// Per-protocol totals of one sweep: events, timers, and the mean
/// messages per run at each size.
#[derive(Debug, PartialEq)]
struct ProtoCounts {
    events: f64,
    timers: f64,
    messages_by_n: [f64; 4],
}

fn proto_counts<O: Counters>(
    cells: &[CellResult<O>],
    sizes: impl Fn(usize) -> usize,
) -> ProtoCounts {
    let total = |s: &StreamingStats| s.mean() * s.count() as f64;
    let mut messages = [0.0; 4];
    let mut runs = [0.0; 4];
    for c in cells {
        let i = SIZES
            .iter()
            .position(|&n| n == sizes(c.cell))
            .expect("every cell size is swept");
        messages[i] += total(c.outcome.messages());
        runs[i] += c.outcome.messages().count() as f64;
    }
    let messages_by_n = std::array::from_fn(|i| messages[i] / runs[i]);
    ProtoCounts {
        events: cells.iter().map(|c| total(c.outcome.events())).sum(),
        timers: cells.iter().map(|c| total(c.outcome.timers())).sum(),
        messages_by_n,
    }
}

/// Per-protocol totals of `sweep`, run over the grids `g`.
fn counts(g: &Grids, sweep: &Sweep) -> [ProtoCounts; 4] {
    [
        proto_counts(&sweep.ben_or, |c| g.ben_or[c].n),
        proto_counts(&sweep.bracha, |c| g.bracha[c].n),
        proto_counts(&sweep.paxos, |c| g.quorum[c].n),
        proto_counts(&sweep.hsuc, |c| g.quorum[c].n),
    ]
}

/// Least-squares slope of ln(messages) against ln(n): the exponent of
/// the protocol's message complexity.
fn log_log_slope(messages_by_n: &[f64; 4]) -> f64 {
    let xs: Vec<f64> = SIZES.iter().map(|&n| (n as f64).ln()).collect();
    let ys: Vec<f64> = messages_by_n.iter().map(|m| m.ln()).collect();
    let mx = xs.iter().sum::<f64>() / 4.0;
    let my = ys.iter().sum::<f64>() / 4.0;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// A relay that forwards each token to the next process until its hop
/// budget runs out: no protocol logic, so a run's cost is the queue and
/// dispatch alone.
struct NullRelay {
    tokens: u64,
    hops: u64,
}

impl AsyncProcess for NullRelay {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut NetCtx<u64>) {
        let next = (ctx.id() + 1) % ctx.n();
        for _ in 0..self.tokens {
            ctx.send(next, self.hops);
        }
    }

    fn on_message(&mut self, _src: usize, hops_left: u64, ctx: &mut NetCtx<u64>) {
        if hops_left > 1 {
            ctx.send((ctx.id() + 1) % ctx.n(), hops_left - 1);
        }
    }

    fn decision(&self) -> Option<u64> {
        None
    }
}

/// Runs the null relay for about `events` deliveries; returns (seconds,
/// events processed, events expected).
fn null_relay(events: u64) -> (f64, u64, u64) {
    let (n, tokens) = (16u64, 4u64);
    let hops = events / (n * tokens);
    let procs: Vec<Box<dyn AsyncProcess<Msg = u64>>> = (0..n)
        .map(|_| Box::new(NullRelay { tokens, hops }) as _)
        .collect();
    let mut cfg = NetConfig::lockstep(0);
    cfg.latency = LatencyModel::Constant(1);
    let mut net = EventNet::new(procs, cfg);
    let (t, drained) = timed(|| net.run(usize::MAX));
    assert!(drained, "the null relay drains");
    (t, net.stats().events_processed as u64, n * tokens * hops)
}

/// Runs one protocol's grid through the runner inside a span, timing
/// every `Scenario::run` call; returns (results, runner seconds, seconds
/// inside `Scenario::run`).
fn traced_grid<S: Scenario>(
    spans: &mut Spans,
    name: &str,
    runner: &SimRunner,
    scenario: &S,
    grid: &[S::Config],
) -> (Vec<CellResult<S::Outcome>>, f64, f64) {
    let timed_scenario = Timed::new(scenario);
    let (out, runner_s) = spans.span(format!("sim.run_sequential {name}"), |_| {
        runner.run_sequential(&timed_scenario, grid)
    });
    (out, runner_s, timed_scenario.run_s.get())
}

/// Per-layer metrics: one sweep with a span around each protocol's
/// runner call and every `Scenario::run` timed, the null relay, one
/// untraced sweep, and the counters compared between the two sweeps.
/// Returns the traced and the untraced sweep's seconds.
pub fn traced(
    cfg: &RunCfg,
    report: &mut Report,
    spans: &mut Spans,
    layer: &mut LayerMetrics,
) -> (f64, f64) {
    let inputs = setup(cfg);
    let (runner, g) = (&inputs.runner, &inputs.grids);
    let ((sweep, runner_s, run_s), traced_s) = spans.span("protocol_sweep", |sp| {
        let (ben_or, a, ra) = traced_grid(sp, "ben_or", runner, &BenOrScenario, &g.ben_or);
        let (bracha, b, rb) = traced_grid(sp, "bracha", runner, &AsyncBrachaScenario, &g.bracha);
        let (paxos, c, rc) = traced_grid(sp, "paxos", runner, &PaxosScenario, &g.quorum);
        let (hsuc, d, rd) = traced_grid(sp, "hsuc", runner, &HsucScenario, &g.quorum);
        let sweep = Sweep {
            ben_or,
            bracha,
            paxos,
            hsuc,
        };
        (sweep, [a, b, c, d], [ra, rb, rc, rd])
    });
    check_sweep(report, runner, g, &sweep);
    let null_events = if cfg.smoke { 20_000 } else { NULL_EVENTS };
    let ((null_s, processed, expected), _) =
        spans.span("net.EventNet::run null_relay", |_| null_relay(null_events));
    report.check(processed == expected, "null relay processed every hop");

    let (untraced_s, plain) = timed(|| task(&inputs));
    let traced_counts = counts(g, &sweep);
    report.check(
        counts(g, &plain) == traced_counts,
        "traced and untraced sweeps differ in events, timers or messages",
    );

    for (i, name) in ["ben_or", "bracha", "paxos", "hsuc"]
        .into_iter()
        .enumerate()
    {
        let c = &traced_counts[i];
        layer.set(&format!("net.events.{name}"), c.events);
        layer.set(&format!("net.timers.{name}"), c.timers);
        layer.set(
            &format!("net.ns_per_event.{name}"),
            run_s[i] * 1e9 / c.events,
        );
        for (j, n) in SIZES.iter().enumerate() {
            layer.set(&format!("net.messages.{name}.n{n}"), c.messages_by_n[j]);
        }
        layer.set(
            &format!("net.msg_slope.{name}"),
            log_log_slope(&c.messages_by_n),
        );
    }
    layer.set("net.null_ns_per_event", null_s * 1e9 / processed as f64);
    let run_s: f64 = run_s.iter().sum();
    layer.set("sim.run_s", run_s);
    layer.set("sim.overhead_s", runner_s.iter().sum::<f64>() - run_s);
    (traced_s, untraced_s)
}
