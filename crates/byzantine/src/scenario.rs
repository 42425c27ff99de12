//! Byzantine protocol runs as [`bne_sim::Scenario`]s: agreement/validity
//! rates over adversary strategies × fault ratios, estimated from ensembles
//! of seeded executions instead of single hand-picked runs.
//!
//! Three protocols are covered — OM(t) ([`OmScenario`]), phase king
//! ([`PhaseKingScenario`]) and Dolev–Strong signed broadcast
//! ([`BroadcastScenario`]) — all reporting into the shared
//! [`ProtocolStats`] aggregate, so grids across protocols are directly
//! comparable.
//!
//! Every scenario builds its processes, runs them, and judges the
//! decisions with [`crate::properties`]. The phase-king and Dolev–Strong
//! process sets come from [`phase_king_replica`] and
//! [`dolev_strong_replica`], which the asynchronous scenarios in
//! `bne-net` call too, so a sync replica and its async counterpart differ
//! only in the network that runs them.

use crate::adversary::{FaultyBehavior, FaultyProcess};
use crate::broadcast::{run_dolev_strong, DolevStrongProcess, EquivocatingSender, SignedMessage};
use crate::network::Process;
use crate::om::{om_byzantine_generals, OmConfig, TraitorStrategy};
use crate::phase_king::{run_phase_king, PhaseKingProcess};
use crate::properties::{report, AgreementReport};
use crate::{ProcId, Value};
use bne_crypto::pki::PublicKeyInfrastructure;
use bne_sim::{Merge, Scenario, StreamingStats};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Streaming aggregate of protocol executions (one grid cell). All rates
/// are 0/1 per replica, so `mean()` is the empirical probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolStats {
    /// Did every honest process decide?
    pub decided: StreamingStats,
    /// Did all honest decisions agree (IC1)?
    pub agreement: StreamingStats,
    /// Did honest decisions match the honest source / unanimous input
    /// (IC2; vacuously satisfied when there is no honest reference value)?
    pub validity: StreamingStats,
    /// Point-to-point messages used by the execution.
    pub messages: StreamingStats,
}

impl ProtocolStats {
    /// Summarizes one execution from its judged [`AgreementReport`].
    pub fn of_run(report: AgreementReport, messages: usize) -> Self {
        ProtocolStats {
            decided: StreamingStats::of(f64::from(report.all_decided)),
            agreement: StreamingStats::of(f64::from(report.agreement)),
            validity: StreamingStats::of(f64::from(report.validity)),
            messages: StreamingStats::of(messages as f64),
        }
    }
}

impl Merge for ProtocolStats {
    fn merge(&mut self, other: &Self) {
        self.decided.merge(&other.decided);
        self.agreement.merge(&other.agreement);
        self.validity.merge(&other.validity);
        self.messages.merge(&other.messages);
    }
}

/// What a replica's decisions are judged against.
#[derive(Debug, Clone)]
pub struct Judge {
    /// The faulty process ids.
    pub faulty: BTreeSet<ProcId>,
    /// `honest[i]`: whether process `i`'s decision is judged.
    pub honest: Vec<bool>,
    /// The value validity holds the honest processes to (the honest
    /// source's input, or the unanimous honest start); `None` makes
    /// validity vacuous.
    pub reference: Option<Value>,
}

impl Judge {
    /// The judge of an OM run: the loyal lieutenants must agree and,
    /// under a loyal commander, obey its order.
    pub fn om(config: &OmConfig) -> Self {
        Judge {
            faulty: config.traitors.clone(),
            honest: (0..config.n)
                .map(|i| i != 0 && !config.traitors.contains(&i))
                .collect(),
            reference: (!config.traitors.contains(&0)).then_some(config.commander_value),
        }
    }

    /// Judges one run's decisions with [`report`].
    pub fn report(&self, decisions: &[Option<Value>]) -> AgreementReport {
        report(decisions, &self.honest, self.reference)
    }

    /// Summarizes one judged run.
    pub fn stats(&self, decisions: &[Option<Value>], messages: usize) -> ProtocolStats {
        ProtocolStats::of_run(self.report(decisions), messages)
    }
}

/// One seeded replica of a round-based protocol: its process set plus
/// what the run is judged against.
pub struct Replica<M> {
    /// The processes, indexed by id.
    pub processes: Vec<Box<dyn Process<Msg = M>>>,
    /// How the run is judged.
    pub judge: Judge,
}

// ---------------------------------------------------------------------------
// OM(t)
// ---------------------------------------------------------------------------

/// One grid cell of the OM sweep: `(n, t)` plus the adversary.
#[derive(Debug, Clone)]
pub struct OmCell {
    /// Total number of participants (commander + lieutenants).
    pub n: usize,
    /// Number of traitors (also the recursion depth `m`).
    pub t: usize,
    /// How traitors lie.
    pub strategy: TraitorStrategy,
    /// Whether the commander is one of the traitors.
    pub commander_faulty: bool,
}

/// Oral-messages Byzantine generals, with the commander's order drawn from
/// the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct OmScenario;

impl Scenario for OmScenario {
    type Config = OmCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &OmCell, seed: u64) -> ProtocolStats {
        let config = om_replica_config(cell.n, cell.t, cell.strategy, cell.commander_faulty, seed);
        let outcome = om_byzantine_generals(&config);
        Judge::om(&config).stats(&outcome.decision_vector(config.n), outcome.messages)
    }
}

/// Builds the OM configuration of `seed`: the commander's order is drawn
/// from the seed, and the `t` traitors are the first lieutenants, or the
/// commander and the first `t - 1` lieutenants when `commander_faulty`.
pub fn om_replica_config(
    n: usize,
    t: usize,
    strategy: TraitorStrategy,
    commander_faulty: bool,
    seed: u64,
) -> OmConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    OmConfig {
        n,
        m: t,
        commander_value: rng.random_range(0..2u64),
        traitors: if commander_faulty {
            (0..t).collect()
        } else {
            (1..=t).collect()
        },
        strategy,
        default_value: 0,
    }
}

/// OM grid over fault ratios × adversary strategies.
pub fn om_grid(
    cells: &[(usize, usize)],
    strategies: &[TraitorStrategy],
    commander_faulty: bool,
) -> Vec<OmCell> {
    let mut grid = Vec::new();
    for &strategy in strategies {
        for &(n, t) in cells {
            grid.push(OmCell {
                n,
                t,
                strategy,
                commander_faulty,
            });
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Phase king
// ---------------------------------------------------------------------------

/// One grid cell of the phase-king sweep.
#[derive(Debug, Clone)]
pub struct PhaseKingCell {
    /// Total number of processes (honest + faulty).
    pub n: usize,
    /// Fault budget; the last `t` process ids are faulty. Since kings are
    /// ids `0..=t`, every king is honest under this placement — the regime
    /// the simple `n > 4t` protocol actually supports (a faulty king is
    /// where its guarantees stop, not an adversary this grid stresses).
    pub t: usize,
    /// The faulty behavior (RNG-based behaviors are re-seeded per replica).
    pub behavior: FaultyBehavior,
    /// `true`: all honest processes start with the same seed-drawn bit
    /// (validity is checkable); `false`: independent random preferences
    /// (validity is vacuous, agreement still must hold).
    pub unanimous_start: bool,
}

/// Phase-king consensus under a configurable adversary, with honest inputs
/// drawn from the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseKingScenario;

impl Scenario for PhaseKingScenario {
    type Config = PhaseKingCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &PhaseKingCell, seed: u64) -> ProtocolStats {
        let Replica { processes, judge } =
            phase_king_replica(cell.n, cell.t, &cell.behavior, cell.unanimous_start, seed);
        let (decisions, stats) = run_phase_king(processes, cell.t);
        judge.stats(&decisions, stats.messages_sent)
    }
}

/// Builds the phase-king replica of `seed`: `n - t` honest processes, with
/// one seed-drawn bit each or a common one under `unanimous_start`, then
/// `t` faulty ones running `behavior` re-seeded from the same stream.
pub fn phase_king_replica(
    n: usize,
    t: usize,
    behavior: &FaultyBehavior,
    unanimous_start: bool,
    seed: u64,
) -> Replica<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let honest_count = n - t;
    let common: Value = rng.random_range(0..2u64);
    let mut processes: Vec<Box<dyn Process<Msg = Value>>> = Vec::with_capacity(n);
    for _ in 0..honest_count {
        let initial = if unanimous_start {
            common
        } else {
            rng.random_range(0..2u64)
        };
        processes.push(Box::new(PhaseKingProcess::new(initial, t)));
    }
    for _ in 0..t {
        // re-seed stochastic adversaries from the replica seed so
        // replicas see independent noise (deterministic behaviors are
        // unchanged; the draw keeps the stream layout uniform)
        processes.push(Box::new(FaultyProcess::new(
            behavior.with_seed(rng.random::<u64>()),
        )));
    }
    Replica {
        processes,
        judge: Judge {
            faulty: (honest_count..n).collect(),
            honest: (0..n).map(|i| i < honest_count).collect(),
            reference: unanimous_start.then_some(common),
        },
    }
}

/// Phase-king grid over fault ratios × adversary strategies.
pub fn phase_king_grid(
    cells: &[(usize, usize)],
    behaviors: &[FaultyBehavior],
    unanimous_start: bool,
) -> Vec<PhaseKingCell> {
    let mut grid = Vec::new();
    for behavior in behaviors {
        for &(n, t) in cells {
            grid.push(PhaseKingCell {
                n,
                t,
                behavior: behavior.clone(),
                unanimous_start,
            });
        }
    }
    grid
}

// ---------------------------------------------------------------------------
// Dolev–Strong signed broadcast
// ---------------------------------------------------------------------------

/// One grid cell of the signed-broadcast sweep.
#[derive(Debug, Clone)]
pub struct BroadcastCell {
    /// Total number of processes.
    pub n: usize,
    /// Fault budget (protocol runs `t + 1` rounds).
    pub t: usize,
    /// Whether the designated sender (process 0) equivocates.
    pub equivocating_sender: bool,
}

/// Dolev–Strong authenticated broadcast over a per-replica simulated PKI,
/// with the sender's input drawn from the replica seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct BroadcastScenario;

impl Scenario for BroadcastScenario {
    type Config = BroadcastCell;
    type Outcome = ProtocolStats;

    fn run(&self, cell: &BroadcastCell, seed: u64) -> ProtocolStats {
        let Replica { processes, judge } =
            dolev_strong_replica(cell.n, cell.t, cell.equivocating_sender, seed);
        let (decisions, stats) = run_dolev_strong(processes, cell.t);
        judge.stats(&decisions, stats.messages_sent)
    }
}

/// Builds the Dolev–Strong replica of `seed`: a fresh simulated PKI and
/// a seed-drawn input for sender 0, which equivocates instead when
/// `equivocating_sender` is set.
pub fn dolev_strong_replica(
    n: usize,
    t: usize,
    equivocating_sender: bool,
    seed: u64,
) -> Replica<SignedMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pki, keys) = PublicKeyInfrastructure::setup(n, &mut rng);
    let input: Value = rng.random_range(0..2u64);
    let processes = (0..n)
        .map(|i| -> Box<dyn Process<Msg = SignedMessage>> {
            if i == 0 && equivocating_sender {
                Box::new(EquivocatingSender::new(keys[0]))
            } else {
                Box::new(DolevStrongProcess::new(
                    0,
                    input,
                    t,
                    pki.clone(),
                    keys[i],
                    0,
                ))
            }
        })
        .collect();
    let faulty: BTreeSet<ProcId> = if equivocating_sender {
        [0].into_iter().collect()
    } else {
        BTreeSet::new()
    };
    Replica {
        processes,
        judge: Judge {
            honest: (0..n).map(|i| !faulty.contains(&i)).collect(),
            faulty,
            reference: (!equivocating_sender).then_some(input),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bne_sim::SimRunner;

    #[test]
    fn om_within_the_bound_is_always_correct() {
        let grid = om_grid(
            &[(4, 1), (7, 2)],
            &[TraitorStrategy::Flip, TraitorStrategy::SplitByParity],
            false,
        );
        for cell in SimRunner::new(12, 1).run_sequential(&OmScenario, &grid) {
            assert_eq!(cell.outcome.agreement.mean(), 1.0, "cell {}", cell.cell);
            assert_eq!(cell.outcome.validity.mean(), 1.0, "cell {}", cell.cell);
        }
    }

    #[test]
    fn om_beyond_the_bound_fails_sometimes() {
        // n = 3, t = 1: the classical impossible configuration.
        let grid = om_grid(&[(3, 1)], &[TraitorStrategy::SplitByParity], false);
        let results = SimRunner::new(16, 2).run_sequential(&OmScenario, &grid);
        let correct = results[0]
            .outcome
            .agreement
            .mean()
            .min(results[0].outcome.validity.mean());
        assert!(correct < 1.0, "n=3,t=1 should not be reliably correct");
    }

    #[test]
    fn phase_king_tolerates_its_budget_and_reports_full_agreement() {
        let grid = phase_king_grid(
            &[(6, 1), (9, 2)],
            &[
                FaultyBehavior::Equivocate { seed: 7 },
                FaultyBehavior::RandomNoise { seed: 7 },
                FaultyBehavior::Garbage { seed: 7 },
            ],
            true,
        );
        for cell in SimRunner::new(10, 3).run_sequential(&PhaseKingScenario, &grid) {
            assert_eq!(cell.outcome.decided.mean(), 1.0);
            assert_eq!(cell.outcome.agreement.mean(), 1.0);
            assert_eq!(cell.outcome.validity.mean(), 1.0);
        }
    }

    #[test]
    fn phase_king_mixed_starts_still_agree() {
        let grid = phase_king_grid(&[(9, 2)], &[FaultyBehavior::Equivocate { seed: 4 }], false);
        let results = SimRunner::new(10, 4).run_sequential(&PhaseKingScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
    }

    #[test]
    fn broadcast_honest_sender_delivers_even_with_large_t() {
        let grid = vec![BroadcastCell {
            n: 5,
            t: 3,
            equivocating_sender: false,
        }];
        let results = SimRunner::new(6, 5).run_sequential(&BroadcastScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
        assert_eq!(results[0].outcome.validity.mean(), 1.0);
    }

    #[test]
    fn broadcast_equivocating_sender_still_yields_agreement() {
        let grid = vec![BroadcastCell {
            n: 5,
            t: 1,
            equivocating_sender: true,
        }];
        let results = SimRunner::new(6, 6).run_sequential(&BroadcastScenario, &grid);
        assert_eq!(results[0].outcome.agreement.mean(), 1.0);
    }
}
