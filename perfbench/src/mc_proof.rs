//! `mc_proof`: the model checker's exhaustive proof of Paxos (n = 3,
//! f = 1, no retry, any process crashable), the planted-bug Bracha
//! (n = 4) liar search, and the replay of the counterexample it finds.
//!
//! The checker does almost all the work and drives the runtime through
//! `snapshot` / `restore` / `enabled_events` / `step_chosen`; the game
//! layers do none. The seed picks the Paxos proposal vector and the
//! traced walk's sample.
//!
//! `Explorer::run` is opaque from outside, so the traced run also drives
//! the same Paxos model through the same public calls the explorer makes
//! — a seeded depth-first sample over the `EventNet`, key encoding via
//! `process_state_words` and `McWords::words`, and `Property::check` —
//! and times each call.

use crate::report::{peak_rss_bytes, rss_bytes, Report, Spans};
use crate::{repeat, report_untraced, timed, LayerMetrics, RunCfg, SetupTiming, SplitMix};
use bne_core::byzantine::bracha::BrachaMsg;
use bne_core::byzantine::PaxosMsg;
use bne_core::mc::{
    bracha_net, paxos_net, replay_trace, BrachaParams, CounterexampleTrace, ExploreReport,
    Explorer, McWords, PaxosParams, Property, StateView, Verdict,
};
use bne_core::net::{EnabledEvent, EnabledKind, EventNet, NetSnapshot};
use std::collections::BTreeSet;

/// Proposal vectors the seed chooses among; each yields the same proof
/// size (247,332 states) and the decision-vector set pinned below.
const INPUTS: [[u64; 3]; 4] = [[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 1]];

/// Stream tags separating the seed's uses.
const STREAM_INPUTS: u64 = 1;
const STREAM_WALK: u64 = 2;

/// Set-up takes microseconds: 20 batches of 50 before each repetition.
const SETUP_TIMING: SetupTiming = SetupTiming {
    batches: 20,
    per_batch: 50,
};

/// The terminal decision vectors the Paxos proof must report for
/// `INPUTS[i]`, written one process per character (`-` undecided).
/// Without retries only the initial leader's proposal can be chosen, so
/// every decided value is `inputs[0]`.
const PINNED_DECISIONS: [&[&str]; 4] = [
    &["---", "-00", "0-0", "00-", "000"],
    &["---", "-11", "1-1", "11-", "111"],
    &["---", "-11", "1-1", "11-", "111"],
    &["---", "-00", "0-0", "00-", "000"],
];

fn paxos_params(inputs: &[u64], smoke: bool) -> (PaxosParams, Vec<usize>) {
    // the smoke model is two processes and injects no crash
    let params = if smoke {
        PaxosParams::new(inputs[..2].to_vec(), 8, 0)
    } else {
        PaxosParams::new(inputs.to_vec(), 8, 0).with_crash_budget(1)
    };
    let crashable = (0..params.n).collect();
    (params, crashable)
}

fn planted_params() -> BrachaParams {
    BrachaParams::new(4, 1, 1).with_liar().with_thresholds(1, 3)
}

/// Everything the fixed work needs, built fresh for every repetition
/// (an explorer is consumed by its run).
struct Setup {
    paxos: Explorer<PaxosMsg>,
    bracha: Explorer<BrachaMsg>,
}

fn setup(inputs: &[u64], smoke: bool) -> Setup {
    let (params, crashable) = paxos_params(inputs, smoke);
    let (net, tap) = paxos_net(&params);
    let mut cfg = params.explore_config();
    cfg.max_states = 10_000_000;
    cfg.crashable = crashable;
    let paxos = Explorer::new(net, tap, params.properties(), cfg);
    let planted = planted_params();
    let (net, tap) = bracha_net(&planted);
    let mut cfg = planted.explore_config();
    cfg.max_states = 10_000_000;
    let bracha = Explorer::new(net, tap, planted.properties(), cfg);
    Setup { paxos, bracha }
}

/// What one repetition of the fixed work produced.
struct Outcome {
    paxos: ExploreReport,
    bracha: ExploreReport,
    replay: Option<bne_core::mc::ReplayReport>,
    trace: Option<Box<CounterexampleTrace>>,
}

impl Outcome {
    /// The deterministic counters a traced and an untraced run must
    /// agree on.
    fn counters(&self) -> [u64; 7] {
        [
            self.paxos.states,
            self.paxos.transitions,
            self.paxos.terminals,
            self.bracha.states,
            self.bracha.transitions,
            self.trace.as_ref().map_or(0, |t| t.choices.len() as u64),
            self.replay.as_ref().map_or(0, |r| r.events as u64),
        ]
    }
}

fn replay(trace: &Option<Box<CounterexampleTrace>>) -> Option<bne_core::mc::ReplayReport> {
    let trace = trace.as_ref()?;
    let round_trip = CounterexampleTrace::from_json(&trace.to_json()).ok()?;
    replay_trace(&round_trip).ok()
}

fn violation_trace(report: &ExploreReport) -> Option<Box<CounterexampleTrace>> {
    match &report.verdict {
        Verdict::Violated(trace) => Some(trace.clone()),
        _ => None,
    }
}

/// The fixed work: both searches and the replay.
fn task(s: Setup) -> Outcome {
    let paxos = s.paxos.run();
    let bracha = s.bracha.run();
    let trace = violation_trace(&bracha);
    let replay = replay(&trace);
    Outcome {
        paxos,
        bracha,
        replay,
        trace,
    }
}

fn render(vector: &[Option<u64>]) -> String {
    vector
        .iter()
        .map(|d| d.map_or('-', |v| char::from_digit(v as u32, 10).unwrap_or('?')))
        .collect()
}

/// Verdict and outcome gates: they check what was proved and found, not
/// how many states it took, so a reduction that visits fewer states
/// still passes.
fn check(report: &mut Report, out: &Outcome, input: usize, smoke: bool) {
    report.check(
        matches!(out.paxos.verdict, Verdict::Proven),
        &format!("Paxos proof verdict {:?}", out.paxos.verdict),
    );
    let seen: BTreeSet<String> = out
        .paxos
        .decision_vectors
        .iter()
        .map(|v| render(v))
        .collect();
    if !smoke {
        let pinned: BTreeSet<String> = PINNED_DECISIONS[input]
            .iter()
            .map(|s| s.to_string())
            .collect();
        report.check(
            seen == pinned,
            &format!(
                "Paxos decision vectors for inputs {:?}: {seen:?}, pinned {pinned:?}",
                INPUTS[input]
            ),
        );
    }
    report.check(
        out.trace.is_some(),
        &format!("planted Bracha search verdict {:?}", out.bracha.verdict),
    );
    let same_violation = match (&out.trace, &out.replay) {
        (Some(trace), Some(replay)) => replay
            .violation
            .as_ref()
            .is_some_and(|v| v.property == trace.property && v.detail == trace.detail),
        _ => false,
    };
    report.check(
        same_violation,
        "counterexample replays to the same violation",
    );
}

/// End-to-end metrics: set-up and fixed work repeated for
/// `cfg.seconds`, every repetition gated.
pub fn untraced(cfg: &RunCfg, report: &mut Report) {
    let input = SplitMix::new(cfg.seed, STREAM_INPUTS).below(INPUTS.len());
    let inputs = INPUTS[input];
    let (task_s, setup_s) = repeat(
        cfg.seconds,
        SETUP_TIMING,
        || setup(&inputs, cfg.smoke),
        task,
        |out, _| check(report, &out, input, cfg.smoke),
    );
    report_untraced(report, &task_s, &setup_s);
}

/// The explorer's canonical state key rebuilt from public calls: each
/// process's crash flag and `state_words`, then the sorted pending
/// events' content words.
fn fingerprint<M: Clone + McWords>(net: &EventNet<M>, events: &[EnabledEvent]) -> Vec<u64> {
    let n = net.num_processes();
    let mut key = Vec::with_capacity(16 * n);
    for id in 0..n {
        let words = net
            .process_state_words(id)
            .expect("model processes have canonical state words");
        key.push(u64::from(net.is_crashed(id)));
        key.push(words.len() as u64);
        key.extend(words);
    }
    let mut pending: Vec<Vec<u64>> = events
        .iter()
        .map(|ev| {
            let mut w = Vec::with_capacity(8);
            match ev.kind {
                EnabledKind::Deliver { src, dst } => {
                    w.extend([0, src as u64, dst as u64]);
                    net.event_msg(ev)
                        .expect("deliveries carry a message")
                        .words(&mut w);
                }
                EnabledKind::Timer { proc, timer } => w.extend([1, proc as u64, timer]),
                EnabledKind::Crash { proc } => w.extend([2, proc as u64]),
                EnabledKind::Recover { proc } => w.extend([3, proc as u64]),
            }
            w
        })
        .collect();
    pending.sort_unstable();
    key.push(pending.len() as u64);
    for w in pending {
        key.push(w.len() as u64);
        key.extend(w);
    }
    key
}

fn violates(net: &EventNet<PaxosMsg>, properties: &[Box<dyn Property>]) -> bool {
    let decisions = net.decisions();
    let crashed: Vec<bool> = (0..net.num_processes())
        .map(|p| net.is_crashed(p))
        .collect();
    let view = StateView {
        decisions: &decisions,
        crashed: &crashed,
    };
    properties.iter().any(|p| p.check(&view).is_some())
}

/// A seeded depth-first sample of the Paxos model: at every state take a
/// snapshot, list the enabled events, encode the key and check the
/// properties, then dispatch a random event; at a terminal state restore
/// a random ancestor. Returns (mean key words, property violations).
fn walk(spans: &mut Spans, inputs: &[u64], steps: usize, seed: u64, smoke: bool) -> (f64, u64) {
    let (params, _) = paxos_params(inputs, smoke);
    let (mut net, _tap) = paxos_net(&params);
    let properties = params.properties();
    let mut rng = SplitMix::new(seed, STREAM_WALK);
    let mut stack: Vec<NetSnapshot<PaxosMsg>> = Vec::new();
    let (mut key_words, mut violations) = (0usize, 0u64);
    for _ in 0..steps {
        let events = spans.call("net.enabled_events", || net.enabled_events());
        let key = spans.call("mc.fingerprint", || fingerprint(&net, &events));
        key_words += key.len();
        if spans.call("mc.property_check", || violates(&net, &properties)) {
            violations += 1;
        }
        if events.is_empty() {
            let back = rng.below(stack.len().max(1));
            if let Some(snap) = stack.get(back) {
                spans.call("net.restore", || net.restore(snap));
                stack.truncate(back);
            }
            continue;
        }
        let snap = spans
            .call("net.snapshot", || net.snapshot())
            .expect("model processes fork");
        stack.push(snap);
        let ev = events[rng.below(events.len())];
        let dispatched = spans.call("net.step_chosen", || net.step_chosen(&ev));
        assert!(dispatched, "an enabled event dispatches");
    }
    (key_words as f64 / steps as f64, violations)
}

/// Per-layer metrics: one traced repetition (spans around each layer
/// call), the sampled walk, one untraced repetition, and the
/// deterministic counters compared between the two repetitions. Returns
/// the traced and the untraced repetition's seconds.
pub fn traced(
    cfg: &RunCfg,
    report: &mut Report,
    spans: &mut Spans,
    layer: &mut LayerMetrics,
) -> (f64, f64) {
    let input = SplitMix::new(cfg.seed, STREAM_INPUTS).below(INPUTS.len());
    let inputs = INPUTS[input];
    let steps = if cfg.smoke { 2_000 } else { 200_000 };
    let s = setup(&inputs, cfg.smoke);
    let ((out, proof_s, grown, replay_s), traced_s) = spans.span("mc_proof", |sp| {
        let rss_before = rss_bytes();
        let (paxos, proof_s) = sp.span("mc.Explorer::run paxos", |_| s.paxos.run());
        let grown = peak_rss_bytes().saturating_sub(rss_before);
        let (bracha, _) = sp.span("mc.Explorer::run bracha_planted", |_| s.bracha.run());
        let trace = violation_trace(&bracha);
        let (replay, replay_s) = sp.span("mc.replay_trace", |_| replay(&trace));
        let out = Outcome {
            paxos,
            bracha,
            replay,
            trace,
        };
        (out, proof_s, grown, replay_s)
    });
    check(report, &out, input, cfg.smoke);
    // the walk is extra work of the traced run, outside the repetition
    // that the tracing overhead compares
    let ((key_words, violations), _) = spans.span("mc.sampled_walk", |sp| {
        walk(sp, &inputs, steps, cfg.seed, cfg.smoke)
    });
    report.check(violations == 0, "sampled walk found a Paxos violation");

    let s = setup(&inputs, cfg.smoke);
    let (untraced_s, plain) = timed(|| task(s));
    check(report, &plain, input, cfg.smoke);
    report.check(
        plain.counters() == out.counters(),
        &format!(
            "traced counters {:?} differ from untraced {:?}",
            out.counters(),
            plain.counters()
        ),
    );

    let states = out.paxos.states as f64;
    let transitions = out.paxos.transitions as f64;
    layer.set("mc.states", states);
    layer.set("mc.transitions", transitions);
    layer.set("mc.terminals", out.paxos.terminals as f64);
    layer.set("mc.ns_per_state", proof_s * 1e9 / states);
    let per_call = |name| spans.calls(name).ns_per_call();
    let public_ns: f64 = [
        "net.snapshot",
        "net.restore",
        "net.enabled_events",
        "net.step_chosen",
        "mc.fingerprint",
        "mc.property_check",
    ]
    .into_iter()
    .map(per_call)
    .sum();
    layer.set("net.snapshot_ns", per_call("net.snapshot"));
    layer.set("net.restore_ns", per_call("net.restore"));
    layer.set("net.enabled_ns", per_call("net.enabled_events"));
    layer.set("net.step_chosen_ns", per_call("net.step_chosen"));
    layer.set("mc.fingerprint_ns", per_call("mc.fingerprint"));
    layer.set("mc.property_ns", per_call("mc.property_check"));
    layer.set(
        "mc.residual_ns_per_transition",
        proof_s * 1e9 / transitions - public_ns,
    );
    layer.set("mc.key_words", key_words);
    layer.set("mc.bytes_per_state", grown as f64 / states);
    layer.set("mc.cex_states", out.bracha.states as f64);
    layer.set("mc.replay_ms", replay_s * 1e3);
    (traced_s, untraced_s)
}
