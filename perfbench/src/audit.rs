//! The equilibrium audit, second half of the `sweep_audit` workload: the
//! paper's solution-concept layer. A seeded batch of normal-form games
//! goes through `DeviationOracle` Nash enumeration and the 9-cell (k,t)
//! robust frontier, then the `SampledOracle` audits the common threshold
//! of a 10^6-agent scrip economy through `ThresholdAuditBackend`.
//!
//! The batch mixes random 7p×5a and 8p×4a games, dominated 4p×5a games
//! where never-best-response elimination bites, and 7p×5a coordination
//! games where it removes nothing. The dense oracle is cache-resident
//! table work; the audit is memory-bound simulation. Neither the event
//! runtime nor the checker runs here.

use crate::report::{Report, Spans};
use crate::{timed, LayerMetrics, RunCfg, SplitMix};
use bne_core::games::random::random_game;
use bne_core::games::sampled::{AuditSpec, SampledAudit, SampledOracle};
use bne_core::games::{ActionProfile, DeviationOracle, NormalFormGame, SearchStrategy};
use bne_core::scrip::{Economy, EconomyConfig, ThresholdAuditBackend};

/// The (k,t) cells of the robust frontier.
const FRONTIER: [(usize, usize); 9] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (1, 1),
    (2, 1),
    (3, 1),
    (1, 2),
    (2, 2),
    (3, 2),
];

/// Agents in the audited economy.
const AGENTS: usize = 1_000_000;

/// Stream tags separating the seed's uses.
const STREAM_GAMES: u64 = 10;
const STREAM_SCRIP: u64 = 11;

/// Seed of the sampled audit's deviation draws, the same for every
/// workload seed: a drawn deviation that keeps the common threshold costs
/// no economy run, so seeded draws would vary the work per seed by whole
/// 10^6-agent runs. The workload seed still picks the economies' request
/// streams.
const AUDIT_DRAW_SEED: u64 = 0xA0D1_7000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Random,
    Dominated,
    Coordination,
}

/// The generated inputs of one run.
pub struct Inputs {
    games: Vec<(Kind, NormalFormGame)>,
    economy: Economy,
    audit: ThresholdAuditBackend,
    economy_seed: u64,
    audit_spec: AuditSpec,
}

/// Sizes of the generated batch.
struct Shape {
    random_7p5a: usize,
    random_8p4a: usize,
    dominated_4p5a: usize,
    coordination_7p5a: usize,
    economy_rounds: u64,
    audit_rounds: u64,
    audit_samples: usize,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            random_7p5a: 0,
            random_8p4a: 1,
            dominated_4p5a: 1,
            coordination_7p5a: 0,
            economy_rounds: 10_000,
            audit_rounds: 2_000,
            audit_samples: 2,
        }
    } else {
        Shape {
            random_7p5a: 8,
            random_8p4a: 8,
            dominated_4p5a: 16,
            coordination_7p5a: 4,
            economy_rounds: 200_000,
            audit_rounds: 100_000,
            audit_samples: 4,
        }
    }
}

/// Integer payoffs in `[-5, 5]` with the top two actions of every player
/// shifted strictly below that player's action 0 in every opponent
/// context, so iterated elimination provably removes them.
fn dominated_game(rng: &mut SplitMix, radices: &[usize]) -> NormalFormGame {
    let total: usize = radices.iter().product();
    let mut stride = 1;
    let mut payoffs = Vec::with_capacity(radices.len());
    let mut strides = Vec::with_capacity(radices.len());
    for &r in radices.iter().rev() {
        strides.push(stride);
        stride *= r;
    }
    strides.reverse();
    for (p, &r) in radices.iter().enumerate() {
        let mut table: Vec<f64> = (0..total).map(|_| (rng.below(11) as f64) - 5.0).collect();
        let cutoff = r - 2;
        for flat in 0..total {
            let a = (flat / strides[p]) % r;
            if a >= cutoff {
                table[flat] = table[flat - a * strides[p]] - (2.0 + (a - cutoff) as f64);
            }
        }
        payoffs.push(table);
    }
    let actions = radices
        .iter()
        .map(|&r| (0..r).map(|a| format!("a{a}")).collect())
        .collect();
    NormalFormGame::new("dominated", actions, payoffs).expect("generated tensors are well formed")
}

/// Pure coordination: a player's payoff is four per player (itself
/// included) sharing its action, plus a seeded per-action bonus below
/// four. Every action is a best response to everyone else playing it, so
/// elimination removes nothing and every profile is searched.
fn coordination_game(rng: &mut SplitMix, players: usize, actions: usize) -> NormalFormGame {
    let bonus: Vec<Vec<f64>> = (0..players)
        .map(|_| (0..actions).map(|_| rng.below(4) as f64).collect())
        .collect();
    let radices = vec![actions; players];
    let total: usize = radices.iter().product();
    let mut payoffs = vec![Vec::with_capacity(total); players];
    let mut profile = vec![0usize; players];
    for _ in 0..total {
        for (p, table) in payoffs.iter_mut().enumerate() {
            let same = profile.iter().filter(|&&a| a == profile[p]).count();
            table.push(4.0 * same as f64 + bonus[p][profile[p]]);
        }
        // advance the mixed-radix counter, last player fastest
        for digit in profile.iter_mut().rev() {
            *digit += 1;
            if *digit < actions {
                break;
            }
            *digit = 0;
        }
    }
    let labels = radices
        .iter()
        .map(|&r| (0..r).map(|a| format!("a{a}")).collect())
        .collect();
    NormalFormGame::new("coordination", labels, payoffs).expect("generated tensors are well formed")
}

fn economy_config(rounds: u64) -> EconomyConfig {
    // one percent hoarders, no churn: scrip is conserved
    EconomyConfig {
        hoarders: AGENTS / 100,
        ..EconomyConfig::homogeneous(AGENTS - AGENTS / 100, 10, rounds)
    }
}

/// Generates the batch and allocates the economy: the whole set-up.
pub fn setup(cfg: &RunCfg) -> Inputs {
    let s = shape(cfg.smoke);
    let mut rng = SplitMix::new(cfg.seed, STREAM_GAMES);
    let mut games = Vec::new();
    for _ in 0..s.random_7p5a {
        games.push((Kind::Random, random_game(rng.next_u64(), &[5; 7])));
    }
    for _ in 0..s.random_8p4a {
        games.push((Kind::Random, random_game(rng.next_u64(), &[4; 8])));
    }
    for _ in 0..s.dominated_4p5a {
        games.push((Kind::Dominated, dominated_game(&mut rng, &[5; 4])));
    }
    for _ in 0..s.coordination_7p5a {
        games.push((Kind::Coordination, coordination_game(&mut rng, 7, 5)));
    }
    let mut scrip = SplitMix::new(cfg.seed, STREAM_SCRIP);
    let economy = Economy::new(&economy_config(s.economy_rounds));
    let audit = ThresholdAuditBackend::new(
        economy_config(s.audit_rounds),
        vec![0, 5, 10, 20],
        1,
        scrip.next_u64(),
    );
    let audit_spec = AuditSpec::unilateral(0.05, 0.05, s.audit_samples, AUDIT_DRAW_SEED);
    Inputs {
        games,
        economy,
        audit,
        economy_seed: scrip.next_u64(),
        audit_spec,
    }
}

/// What the oracle found on one game.
struct GameResult {
    nash: Vec<ActionProfile>,
    frontier: Vec<Vec<ActionProfile>>,
    profiles: usize,
    pruned: usize,
}

/// What one repetition of the fixed work produced.
pub struct Outcome {
    games: Vec<GameResult>,
    money_supply: u64,
    audit: SampledAudit,
}

/// The oracle work on one game, split at the public boundary between
/// table build plus elimination (`pruned_profile_count` forces both) and
/// the searches. Returns the result with (build, search) seconds.
fn solve(game: &NormalFormGame) -> (GameResult, f64, f64) {
    let oracle = DeviationOracle::new(game);
    let (build_s, pruned) = timed(|| oracle.pruned_profile_count());
    let (search_s, (nash, frontier)) =
        timed(|| (oracle.nash_profiles(), oracle.robust_frontier(&FRONTIER)));
    let result = GameResult {
        nash,
        frontier,
        profiles: game.num_profiles(),
        pruned,
    };
    (result, build_s, search_s)
}

/// The fixed work: the oracle over the batch, one economy run, the
/// sampled audit.
pub fn task(inputs: &mut Inputs) -> Outcome {
    let games = inputs.games.iter().map(|(_, g)| solve(g).0).collect();
    let money_supply = inputs.economy.run(inputs.economy_seed).money_supply;
    let base = inputs.audit.base_profile();
    let audit = SampledOracle::new(&inputs.audit).audit(&base, &inputs.audit_spec);
    Outcome {
        games,
        money_supply,
        audit,
    }
}

/// Outcome gates. The exhaustive frontier comparison is the expensive
/// one; `exhaustive` turns it on.
pub fn check(report: &mut Report, inputs: &Inputs, out: &Outcome, exhaustive: bool) {
    for ((kind, game), r) in inputs.games.iter().zip(&out.games) {
        report.check(
            r.frontier[0] == r.nash,
            &format!("{kind:?}: the (1,0) frontier cell differs from the Nash set"),
        );
        match kind {
            Kind::Dominated => {
                report.check(
                    r.pruned < r.profiles,
                    &format!(
                        "dominated game: elimination kept {} of {}",
                        r.pruned, r.profiles
                    ),
                );
                if exhaustive {
                    let full = DeviationOracle::with_strategy(game, SearchStrategy::Exhaustive);
                    report.check(
                        full.robust_frontier(&FRONTIER) == r.frontier,
                        "dominated game: pruned frontier differs from the exhaustive one",
                    );
                }
            }
            Kind::Coordination => {
                report.check(
                    r.pruned == r.profiles,
                    "coordination game: elimination removed an action",
                );
                report.check(
                    (0..game.num_actions(0)).all(|a| r.nash.contains(&vec![a; game.num_players()])),
                    "coordination game: an all-same profile is not Nash",
                );
            }
            Kind::Random => {}
        }
    }
    let config = inputs.economy.config();
    report.check(
        out.money_supply == config.total_agents() as u64 * u64::from(config.initial_scrip),
        "scrip is not conserved without churn",
    );
    let certs = &out.audit.certificates;
    report.check(
        certs.len() == 1
            && certs[0].samples == inputs.audit_spec.samples
            && out.audit.accepted == certs[0].accepted
            && certs[0]
                .counterexample
                .as_ref()
                .is_none_or(|c| c.gain > inputs.audit_spec.epsilon),
        "sampled audit certificate is inconsistent",
    );
}

/// Per-layer metrics: one repetition with spans around each layer call,
/// one untraced repetition, and the results compared between the two.
/// Returns the traced and the untraced repetition's seconds.
pub fn traced(
    cfg: &RunCfg,
    report: &mut Report,
    spans: &mut Spans,
    layer: &mut LayerMetrics,
) -> (f64, f64) {
    let mut inputs = setup(cfg);
    let ((out, build_s, search_s, economy_s, audit_s), traced_s) =
        spans.span("equilibrium_audit", |sp| {
            let (mut build_s, mut search_s) = (0.0, 0.0);
            let mut games = Vec::new();
            for (kind, game) in &inputs.games {
                let ((r, b, s), _) =
                    sp.span(format!("games.DeviationOracle {kind:?}"), |_| solve(game));
                build_s += b;
                search_s += s;
                games.push(r);
            }
            let seed = inputs.economy_seed;
            let (money_supply, economy_s) = sp.span("scrip.Economy::run", |_| {
                inputs.economy.run(seed).money_supply
            });
            let base = inputs.audit.base_profile();
            let (audit, audit_s) = sp.span("games.SampledOracle::audit", |_| {
                SampledOracle::new(&inputs.audit).audit(&base, &inputs.audit_spec)
            });
            let out = Outcome {
                games,
                money_supply,
                audit,
            };
            (out, build_s, search_s, economy_s, audit_s)
        });
    check(report, &inputs, &out, true);
    let (untraced_s, plain) = timed(|| task(&mut inputs));
    report.check(
        plain.money_supply == out.money_supply
            && plain.audit == out.audit
            && plain
                .games
                .iter()
                .zip(&out.games)
                .all(|(a, b)| a.frontier == b.frontier && a.pruned == b.pruned),
        "traced and untraced repetitions differ",
    );

    let config = inputs.economy.config();
    layer.set("games.build_ms", build_s * 1e3);
    layer.set("games.search_ms", search_s * 1e3);
    layer.set(
        "games.profiles",
        out.games.iter().map(|g| g.profiles as f64).sum(),
    );
    layer.set(
        "games.pruned_profiles",
        out.games.iter().map(|g| g.pruned as f64).sum(),
    );
    layer.set("games.sampled_audit_ms", audit_s * 1e3);
    // a round is one agent's request: requester, volunteer, transfer
    layer.set("scrip.agent_rounds_per_s", config.rounds as f64 / economy_s);
    layer.set(
        "scrip.resident_mb",
        inputs.economy.resident_bytes() as f64 / 1e6,
    );
    (traced_s, untraced_s)
}
