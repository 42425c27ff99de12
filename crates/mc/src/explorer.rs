//! The depth-first schedule-space explorer.
//!
//! # Search model
//!
//! A state is the whole runtime: process states, the pending-event
//! multiset, crash flags and the remaining crash budget. Transitions
//! are:
//!
//! * dispatching one pending event ([`bne_net::EventNet::step_chosen`]),
//!   possibly refined by **tap choices** — if the handler drew from the
//!   shared [`ChoiceTap`] past the end
//!   of its script (a coin flip, a Byzantine lie), the transition is
//!   re-run once per candidate value of the first uncovered draw until
//!   every draw is covered ("fork on demand");
//! * crashing one live process ([`bne_net::EventNet::inject_crash`]),
//!   while the crash budget lasts.
//!
//! The explorer requires a deterministic substrate so that transitions
//! commute with snapshot/restore: [`LatencyModel::Constant`] latency,
//! the [`SchedulerPolicy::Fifo`] scheduler and no link faults (none of
//! which draw from an RNG). The [`crate::scenario`] constructors build
//! exactly such configurations.
//!
//! # Exact deduplication
//!
//! Visited states are stored as **exact canonical keys** (`Vec<u64>`):
//! per-process words from [`bne_net::AsyncProcess::state_words`] plus
//! the sorted pending-event multiset encoded via [`crate::words::McWords`]
//! plus the crash state. Equal keys mean equal states — keys are
//! compared in full, so a hash collision costs a probe, never a
//! soundness hole. Virtual times, tiebreaks and sequence numbers are
//! deliberately **excluded**: they affect when the runtime says things
//! happen, not what can happen next, and folding them in would shatter
//! the state space into timestamp-distinct copies. For the same reason
//! two pending events with identical canonical content are
//! *interchangeable*, and the explorer dispatches only one
//! representative per content class.
//!
//! # Partial-order reduction
//!
//! Two pending events targeting *different* processes commute: each
//! mutates only its target's state and appends its own sends, so
//! executing them in either order reaches the same state. The explorer
//! exploits that with two complementary, independently sound devices
//! (both off when [`ExploreConfig::por`] is false):
//!
//! **Sleep sets** (Godefroid), keyed on the `(time, tie, seq)`
//! exploration order. After a transition `t` is explored at a state, the
//! subtrees of `t`'s later siblings carry `t` in their *sleep set*: as
//! long as every transition taken since stays independent of `t`
//! (different target), re-exploring `t` would commute back into `t`'s
//! own subtree, so it is skipped. A transition that *conflicts* with a
//! slept `t` (same target process — this includes a newly created
//! delivery racing `t` for its receiver, the order that breaks quorum
//! protocols) removes `t` from the sleep set, and a transition that
//! *creates* a fresh event with `t`'s exact content does too (the copy
//! is a new transition, not the explored one). Sleep sets prune
//! redundant interleavings but still visit **every reachable state**
//! along some representative ordering, so checking properties at every
//! visited state remains a proof. They interact with deduplication
//! through subset caching: each visited key remembers the sleep sets it
//! was expanded under, and a revisit is pruned only when some remembered
//! sleep set is a subset of the current one (the earlier expansion
//! explored a superset of what this visit would).
//!
//! **Inert-event draining.** A delivery can be *permanently inert*
//! three ways: its target is crashed (the runtime absorbs it), its
//! target reports itself forever quiet
//! ([`bne_net::AsyncProcess::quiescent`] — e.g. a Bracha participant
//! after `echoed && readied && delivered`, whose remaining vote-set
//! inserts commute), or the target declares that specific message a
//! permanent behavioral no-op ([`bne_net::AsyncProcess::absorbs`] —
//! duplicate votes, messages whose rule sits behind an already-set
//! one-shot flag). An inert delivery commutes with *every* other
//! transition, present or future, and is invisible to the properties,
//! so the singleton containing the oldest such delivery is a persistent
//! set: the explorer dispatches it alone instead of interleaving it
//! against live traffic. This is what actually shrinks
//! the visited-state count (sleep sets alone reduce transitions, not
//! states): straggler traffic to finished processes is linearized. The
//! claim a `quiescent` override makes is a soundness obligation; the
//! POR-vs-full property tests in `tests/` compare verdicts and terminal
//! decision vectors against the unreduced search to guard it. Draining
//! is suppressed for processes the crash adversary could still kill
//! (a crash does not commute with deliveries to its victim) and for
//! crashed processes with a pending recovery.
//!
//! **Confluent models.** A scenario may additionally vouch (via
//! [`ExploreConfig::confluent`]) that *any* two deliveries to the same
//! process commute — true for single-valued set-semantics protocols
//! like honest Bracha. Combined with cross-process commutation that
//! makes the oldest pending delivery a singleton persistent set
//! everywhere, collapsing the proof to one representative execution;
//! see the flag's documentation for the soundness argument and its
//! limits.
//!
//! The one liveness-of-the-search caveat is the classical *ignoring
//! problem*: a reduction may starve a class forever around a state-graph
//! cycle. These protocol graphs are acyclic (every transition consumes
//! an event and quorum state only grows), but the explorer does not take
//! that on faith — it tracks the DFS stack, counts any back edge, and
//! degrades the verdict to [`Verdict::Truncated`] if a cycle shows up
//! under POR.
//!
//! [`LatencyModel::Constant`]: bne_net::LatencyModel::Constant
//! [`SchedulerPolicy::Fifo`]: bne_net::SchedulerPolicy::Fifo

use crate::property::{first_violation, Property, Violation};
use crate::trace::CounterexampleTrace;
use crate::words::McWords;
use bne_byzantine::choice::{ChoiceTap, SharedTap};
use bne_byzantine::{ProcId, Value};
use bne_net::{EnabledEvent, EnabledKind, EventNet, NetSnapshot};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One choice along an execution path — the replayable unit of a
/// counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Dispatch the pending event with this sequence number. The kind is
    /// recorded redundantly so traces are human-readable and replay can
    /// cross-check it.
    Event {
        /// The chosen event's unique sequence number.
        seq: u64,
        /// What the event was (delivery, timer, …).
        kind: EnabledKind,
    },
    /// Crash this process, crash-stop style.
    Crash {
        /// The process to kill.
        proc: ProcId,
    },
}

/// A transition's canonical identity: the content encoding of a pending
/// event (tag, endpoints, message words — exactly the per-event
/// component of the state fingerprint), or `[CRASH_TAG, proc]` for a
/// crash choice. Content-based (not sequence-number-based) so that
/// identities line up across different paths to the same state.
type TransId = Vec<u64>;

/// Tag distinguishing injected-crash transitions from event encodings
/// (whose first word is a small kind tag).
const CRASH_TAG: u64 = u64::MAX;

/// Exploration limits and options.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Enable partial-order reduction (sleep sets + quiescence
    /// draining — see the module docs).
    pub por: bool,
    /// Model-level guarantee that **any two deliveries to the same
    /// process commute**: dispatching them in either order yields the
    /// same process state and the same sends. True for single-valued
    /// set-semantics protocols — honest Bracha is the stock example:
    /// with no Byzantine participant only the broadcaster's value ever
    /// circulates, and every handler rule is a monotone threshold test
    /// over the *set* of receipts, so receipt order is immaterial. Under
    /// this guarantee (plus the always-true cross-process commutation)
    /// the oldest pending delivery is a singleton persistent set and the
    /// explorer drains it as the sole successor, collapsing the
    /// interleaving space to one representative execution; agreement and
    /// validity are stable properties, so any violation reachable by
    /// some order is still reached. The flag is the *scenario's* claim
    /// about its protocol, not something the explorer can check — assert
    /// it only when the argument above applies (never with a liar or
    /// mixed inputs), and keep it covered by POR-vs-full comparison
    /// tests. Draining still defers to pending faults, crash-adversary
    /// targets and pending timers for the same process, which the
    /// guarantee says nothing about.
    pub confluent: bool,
    /// How many crash-stop faults the schedule adversary may inject.
    pub crash_budget: usize,
    /// Which processes the crash adversary may kill (ignored when the
    /// budget is zero).
    pub crashable: Vec<ProcId>,
    /// Abort ([`Verdict::Truncated`]) after visiting this many states.
    pub max_states: u64,
    /// Abort ([`Verdict::Truncated`]) beyond this search depth.
    pub max_depth: usize,
    /// Scenario name recorded into counterexample traces (must name a
    /// [`crate::scenario`] registry entry for replay to work).
    pub scenario: String,
    /// Scenario parameters recorded into counterexample traces.
    pub params: Vec<(String, u64)>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            por: true,
            confluent: false,
            crash_budget: 0,
            crashable: Vec::new(),
            max_states: 4_000_000,
            max_depth: 4_096,
            scenario: String::new(),
            params: Vec::new(),
        }
    }
}

/// The explorer's final answer.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Every reachable state satisfies every property: for this model,
    /// the properties are **proved**, not sampled.
    Proven,
    /// A reachable state violates a property; the trace replays the
    /// violation deterministically on a production net.
    Violated(Box<CounterexampleTrace>),
    /// Exploration was cut short (state/depth limit, or a cycle under
    /// POR) — no claim either way beyond the states actually visited.
    Truncated(String),
}

/// Everything the search measured.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// The verdict (see [`Verdict`]).
    pub verdict: Verdict,
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed (including tap-refinement re-runs).
    pub transitions: u64,
    /// Terminal (fully drained) states reached.
    pub terminals: u64,
    /// Deepest point of the search.
    pub max_depth_seen: usize,
    /// Back edges observed on the DFS stack (always 0 for these
    /// protocols; nonzero degrades the verdict under POR).
    pub cycles: u64,
    /// The distinct per-process decision vectors over all terminal
    /// states — the observable outcomes of the model, used by the POR
    /// soundness property tests.
    pub decision_vectors: BTreeSet<Vec<Option<Value>>>,
}

enum Stop {
    Violation(Box<CounterexampleTrace>),
    Limit(String),
}

/// The exhaustive DFS explorer. Build with [`Explorer::new`], consume
/// with [`Explorer::run`].
pub struct Explorer<M: Clone + McWords> {
    net: EventNet<M>,
    tap: SharedTap,
    properties: Vec<Box<dyn Property>>,
    cfg: ExploreConfig,
    /// Visited state keys, each with the sleep sets it has been expanded
    /// under (kept as a minimal antichain; see module docs on subset
    /// caching). Without POR every entry is `[{}]` and this degenerates
    /// to a plain visited set.
    visited: HashMap<Vec<u64>, Vec<BTreeSet<TransId>>>,
    on_stack: HashSet<Vec<u64>>,
    path: Vec<Choice>,
    crash_budget: usize,
    states: u64,
    transitions: u64,
    terminals: u64,
    max_depth_seen: usize,
    cycles: u64,
    decision_vectors: BTreeSet<Vec<Option<Value>>>,
}

impl<M: Clone + McWords> Explorer<M> {
    /// Wraps a freshly built network (its `on_start`s have run, nothing
    /// else) for exploration. `tap` must be the same shared tap the
    /// processes draw from; pass a fresh one for fully deterministic
    /// protocols.
    ///
    /// # Panics
    ///
    /// If the network does not support exploration: a process without
    /// [`bne_net::AsyncProcess::fork`]/`state_words`, or a start-up that
    /// already drew uncovered choices (protocol nondeterminism must be
    /// event-driven so the search can fork on it).
    pub fn new(
        net: EventNet<M>,
        tap: SharedTap,
        properties: Vec<Box<dyn Property>>,
        cfg: ExploreConfig,
    ) -> Self {
        assert!(
            net.snapshot().is_some(),
            "every process must implement fork() to be explorable"
        );
        assert!(
            tap.borrow().demands().is_empty(),
            "tap demands during on_start: draw choices on events, not at startup"
        );
        let crash_budget = cfg.crash_budget;
        let ex = Explorer {
            net,
            tap,
            properties,
            cfg,
            visited: HashMap::new(),
            on_stack: HashSet::new(),
            path: Vec::new(),
            crash_budget,
            states: 0,
            transitions: 0,
            terminals: 0,
            max_depth_seen: 0,
            cycles: 0,
            decision_vectors: BTreeSet::new(),
        };
        // fail fast (with a clear message) if any process lacks a
        // canonical encoding, rather than deep inside the search
        let _ = ex.fingerprint();
        ex
    }

    /// Runs the search to completion and reports.
    pub fn run(mut self) -> ExploreReport {
        let verdict = match self.dfs(0, BTreeSet::new()) {
            Ok(()) => {
                if self.cycles > 0 && self.cfg.por {
                    // a cycle means the reduction could in principle
                    // starve a transition around it (the ignoring
                    // problem); refuse to claim a proof
                    Verdict::Truncated(format!(
                        "{} cycle(s) under partial-order reduction",
                        self.cycles
                    ))
                } else {
                    Verdict::Proven
                }
            }
            Err(Stop::Violation(trace)) => Verdict::Violated(trace),
            Err(Stop::Limit(why)) => Verdict::Truncated(why),
        };
        ExploreReport {
            verdict,
            states: self.states,
            transitions: self.transitions,
            terminals: self.terminals,
            max_depth_seen: self.max_depth_seen,
            cycles: self.cycles,
            decision_vectors: self.decision_vectors,
        }
    }

    /// The canonical content identity of one pending event — also the
    /// per-event component of the state fingerprint.
    fn event_id(&self, ev: &EnabledEvent) -> TransId {
        let mut w = Vec::with_capacity(8);
        match ev.kind {
            EnabledKind::Deliver { src, dst } => {
                w.extend([0, src as u64, dst as u64]);
                self.net
                    .event_msg(ev)
                    .expect("deliver events carry a message")
                    .words(&mut w);
            }
            EnabledKind::Timer { proc, timer } => w.extend([1, proc as u64, timer]),
            EnabledKind::Crash { proc } => w.extend([2, proc as u64]),
            EnabledKind::Recover { proc } => w.extend([3, proc as u64]),
        }
        w
    }

    /// The canonical identity of an injected-crash choice.
    fn crash_id(proc: ProcId) -> TransId {
        vec![CRASH_TAG, proc as u64]
    }

    /// The process a transition acts on — the whole dependence relation:
    /// transitions are independent iff their targets differ.
    fn id_target(id: &[u64]) -> u64 {
        match id[0] {
            0 => id[2], // delivery: dst
            _ => id[1], // timer/crash/recover/injected-crash: the process
        }
    }

    fn independent(a: &[u64], b: &[u64]) -> bool {
        Self::id_target(a) != Self::id_target(b)
    }

    /// The exact canonical key of the current state (see module docs for
    /// what is included and what is deliberately left out).
    fn fingerprint(&self) -> Vec<u64> {
        let n = self.net.num_processes();
        let mut key = Vec::with_capacity(16 * n);
        for id in 0..n {
            let words = self
                .net
                .process_state_words(id)
                .expect("explorable processes have canonical state_words");
            key.push(u64::from(self.net.is_crashed(id)));
            key.push(words.len() as u64);
            key.extend(words);
        }
        let mut pending: Vec<TransId> = self
            .net
            .enabled_events()
            .iter()
            .map(|ev| self.event_id(ev))
            .collect();
        pending.sort_unstable();
        key.push(pending.len() as u64);
        for w in pending {
            key.push(w.len() as u64);
            key.extend(w);
        }
        key.push(self.crash_budget as u64);
        key
    }

    fn make_trace(&self, violation: Violation) -> Box<CounterexampleTrace> {
        Box::new(CounterexampleTrace {
            scenario: self.cfg.scenario.clone(),
            params: self.cfg.params.clone(),
            script: self.tap.borrow().script().to_vec(),
            choices: self.path.clone(),
            property: violation.property,
            detail: violation.detail,
        })
    }

    /// The oldest pending delivery whose dispatch commutes with every
    /// other transition, present or future: its target is crashed (the
    /// runtime absorbs it) or self-declared quiescent. `None` if no such
    /// delivery exists or draining is unsafe here (crash adversary still
    /// aiming at the target, or a recovery pending for it).
    fn pick_drain(&self, events: &[EnabledEvent]) -> Option<EnabledEvent> {
        events
            .iter()
            .filter(|ev| {
                let target = match ev.kind {
                    EnabledKind::Deliver { dst, .. } => dst,
                    // timers to crashed processes are absorbed, and a
                    // live process can declare a timer a permanent no-op
                    // (an exhausted retry budget); a *live* quiescent
                    // process makes no timer claim, so nothing else drains
                    EnabledKind::Timer { proc, .. } => {
                        return !pending_fault(events, proc)
                            && (self.net.is_crashed(proc) || self.net.event_absorbed(ev));
                    }
                    _ => return false,
                };
                if self.net.is_crashed(target) {
                    // absorbed on dispatch; sound unless a recovery could
                    // race it back to life
                    !pending_fault(events, target)
                } else if pending_fault(events, target) {
                    // a scheduled crash/recovery for the target races
                    // anything addressed to it
                    false
                } else if self.net.event_absorbed(ev) {
                    // a permanent behavioral no-op commutes with every
                    // transition — even an injected crash of its target,
                    // since crash-stop absorption is a no-op too
                    true
                } else if self.crash_budget > 0 && self.cfg.crashable.contains(&target) {
                    // an injected crash of the target does not commute
                    // with a live delivery to it
                    false
                } else if self.cfg.confluent {
                    // the scenario vouches that same-target deliveries
                    // commute; cross-target ones always do, and timers
                    // (which the guarantee says nothing about) must not
                    // race this target
                    !pending_timer(events, target)
                } else {
                    self.net.process_quiescent(target)
                }
            })
            .min_by_key(|ev| (ev.time, ev.tie, ev.seq))
            .cloned()
    }

    fn dfs(&mut self, depth: usize, sleep: BTreeSet<TransId>) -> Result<(), Stop> {
        let key = self.fingerprint();
        let new_state = match self.visited.get(&key) {
            Some(explored) => {
                if explored.iter().any(|z| z.is_subset(&sleep)) {
                    // an earlier expansion under a smaller (or equal)
                    // sleep set explored a superset of what this visit
                    // would
                    if self.on_stack.contains(&key) {
                        self.cycles += 1;
                    }
                    return Ok(());
                }
                false
            }
            None => true,
        };
        if new_state {
            self.states += 1;
            self.max_depth_seen = self.max_depth_seen.max(depth);
            if self.states > self.cfg.max_states {
                return Err(Stop::Limit(format!(
                    "state limit {} exceeded",
                    self.cfg.max_states
                )));
            }
            if depth > self.cfg.max_depth {
                return Err(Stop::Limit(format!(
                    "depth limit {} exceeded",
                    self.cfg.max_depth
                )));
            }
            if let Some(violation) = first_violation(&self.net, &self.properties) {
                return Err(Stop::Violation(self.make_trace(violation)));
            }
        }

        let events = self.net.enabled_events();
        if events.is_empty() {
            // fully drained: a terminal state. Spending leftover crash
            // budget here cannot change anything observable, so the
            // search does not. Nothing can be missed from a terminal, so
            // it is cached under the empty sleep set (prunes every
            // revisit).
            self.terminals += 1;
            self.decision_vectors.insert(self.net.decisions());
            self.visited.insert(key, vec![BTreeSet::new()]);
            return Ok(());
        }

        // record this expansion for the subset cache, keeping the entry
        // a minimal antichain
        let explored = self.visited.entry(key.clone()).or_default();
        explored.retain(|z| !sleep.is_subset(z));
        explored.push(sleep.clone());

        if self.cfg.por {
            if let Some(drain) = self.pick_drain(&events) {
                let id = self.event_id(&drain);
                if sleep.contains(&id) {
                    // the lone successor is covered where this very
                    // transition was explored (everything since has been
                    // independent of it)
                    return Ok(());
                }
                // singleton persistent set: the drain commutes with all
                // other transitions, so the sleep set survives (minus
                // anything sharing its target)
                let child_sleep: BTreeSet<TransId> = sleep
                    .iter()
                    .filter(|z| Self::independent(z, &id))
                    .cloned()
                    .collect();
                let snap = self.net.snapshot().expect("checked at construction");
                let tap_save = self.tap.borrow().save();
                self.on_stack.insert(key.clone());
                let r = self.explore_event(&snap, &tap_save, &drain, depth, &child_sleep);
                self.on_stack.remove(&key);
                return r;
            }
        }

        let snap = self.net.snapshot().expect("checked at construction");
        let tap_save = self.tap.borrow().save();
        self.on_stack.insert(key.clone());
        let result = self.expand(&snap, &tap_save, &events, depth, sleep);
        self.on_stack.remove(&key);
        result
    }

    /// Expands every choice at one state: each pending event (one
    /// representative per content class, with tap refinement) and each
    /// permitted crash, threading the sleep set through in `(time, tie,
    /// seq)` order.
    fn expand(
        &mut self,
        snap: &NetSnapshot<M>,
        tap_save: &ChoiceTap,
        events: &[EnabledEvent],
        depth: usize,
        sleep: BTreeSet<TransId>,
    ) -> Result<(), Stop> {
        // one representative per canonical content id: identical pending
        // events are interchangeable
        let mut reps: Vec<(TransId, &EnabledEvent)> = Vec::new();
        for ev in events {
            let id = self.event_id(ev);
            if !reps.iter().any(|(existing, _)| *existing == id) {
                reps.push((id, ev));
            }
        }
        let mut cur_sleep = sleep;
        for (id, ev) in &reps {
            if cur_sleep.contains(id) {
                continue; // covered by the sibling that explored it
            }
            let child_sleep: BTreeSet<TransId> = cur_sleep
                .iter()
                .filter(|z| Self::independent(z, id))
                .cloned()
                .collect();
            self.explore_event(snap, tap_save, ev, depth, &child_sleep)?;
            if self.cfg.por {
                cur_sleep.insert(id.clone());
            }
        }
        if self.crash_budget > 0 {
            let crashable: Vec<ProcId> = self
                .cfg
                .crashable
                .iter()
                .copied()
                .filter(|&p| !self.net.is_crashed(p))
                .collect();
            for proc in crashable {
                let id = Self::crash_id(proc);
                if cur_sleep.contains(&id) {
                    continue;
                }
                let child_sleep: BTreeSet<TransId> = cur_sleep
                    .iter()
                    .filter(|z| Self::independent(z, &id))
                    .cloned()
                    .collect();
                self.net.restore(snap);
                self.tap.borrow_mut().restore(tap_save);
                self.net.inject_crash(proc);
                self.crash_budget -= 1;
                self.transitions += 1;
                self.path.push(Choice::Crash { proc });
                let r = self.dfs(depth + 1, child_sleep);
                self.path.pop();
                self.crash_budget += 1;
                r?;
                if self.cfg.por {
                    cur_sleep.insert(id);
                }
            }
        }
        Ok(())
    }

    /// Dispatches `ev` from the snapshotted state, forking on every
    /// uncovered tap draw until the transition is fully scripted, and
    /// recurses into each resulting state with `sleep` (minus any slept
    /// id the dispatch re-created — a fresh copy is a new transition).
    fn explore_event(
        &mut self,
        snap: &NetSnapshot<M>,
        tap_save: &ChoiceTap,
        ev: &EnabledEvent,
        depth: usize,
        sleep: &BTreeSet<TransId>,
    ) -> Result<(), Stop> {
        // the net may still hold a sibling's child state; go back to the
        // snapshot before reading anything off it
        self.net.restore(snap);
        // the pending multiset before dispatch, for the created-id purge
        // (only needed when something is asleep)
        let before: Vec<TransId> = if sleep.is_empty() {
            Vec::new()
        } else {
            self.net
                .enabled_events()
                .iter()
                .map(|e| self.event_id(e))
                .collect()
        };
        let dispatched_id = self.event_id(ev);
        // stack of script extensions still to try; empty extension first
        let mut extensions: Vec<Vec<u64>> = vec![Vec::new()];
        while let Some(ext) = extensions.pop() {
            self.net.restore(snap);
            {
                let mut tap = self.tap.borrow_mut();
                tap.restore(tap_save);
                for &v in &ext {
                    tap.push_choice(v);
                }
            }
            let dispatched = self.net.step_chosen(ev);
            debug_assert!(dispatched, "snapshot restore must re-enable the event");
            self.transitions += 1;
            let first_demand = self.tap.borrow().demands().first().copied();
            match first_demand {
                Some(domain) => {
                    // the handler drew past the script: fork this
                    // transition on every candidate value of the first
                    // uncovered draw ((rev) keeps exploration in value
                    // order, matching scripted-replay intuition)
                    for v in (0..domain).rev() {
                        let mut e = ext.clone();
                        e.push(v);
                        extensions.push(e);
                    }
                }
                None => {
                    let mut child_sleep = sleep.clone();
                    if !child_sleep.is_empty() {
                        // multiset difference: ids with more copies
                        // pending now than survived the dispatch were
                        // (re-)created by it and must wake up
                        let mut balance: BTreeMap<TransId, i64> = BTreeMap::new();
                        for id in &before {
                            *balance.entry(id.clone()).or_insert(0) -= 1;
                        }
                        *balance.entry(dispatched_id.clone()).or_insert(0) += 1;
                        for e in self.net.enabled_events() {
                            *balance.entry(self.event_id(&e)).or_insert(0) += 1;
                        }
                        for (id, count) in balance {
                            if count > 0 {
                                child_sleep.remove(&id);
                            }
                        }
                    }
                    self.path.push(Choice::Event {
                        seq: ev.seq,
                        kind: ev.kind,
                    });
                    let r = self.dfs(depth + 1, child_sleep);
                    self.path.pop();
                    r?;
                }
            }
        }
        Ok(())
    }
}

fn pending_timer(events: &[EnabledEvent], target: ProcId) -> bool {
    events
        .iter()
        .any(|e| matches!(e.kind, EnabledKind::Timer { proc, .. } if proc == target))
}

fn pending_fault(events: &[EnabledEvent], target: ProcId) -> bool {
    events.iter().any(|e| {
        matches!(e.kind,
            EnabledKind::Recover { proc } | EnabledKind::Crash { proc } if proc == target)
    })
}
