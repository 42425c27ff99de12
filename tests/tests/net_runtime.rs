//! Cross-crate tests of the `bne-net` async discrete-event runtime:
//!
//! * **lockstep equality** — under the zero-latency FIFO configuration,
//!   the async runtime reproduces `SyncNetwork` bit-identically
//!   (decisions, round counts, messages_sent) for OM and phase king
//!   across proptest-generated `(n, t, seed)` grids;
//! * **scenario lockstep equality** — the async phase-king and
//!   Dolev–Strong scenarios at `NetProfile::lockstep()` report the same
//!   statistics as their sync counterparts;
//! * **determinism** — the same `(config, seed)` yields an identical
//!   event trace, with scheduler seeds derived via the bijective
//!   `bne_sim::derive_seed` convention.

use bne_core::byzantine::adversary::{FaultyBehavior, FaultyProcess};
use bne_core::byzantine::network::{Process, SyncNetwork};
use bne_core::byzantine::om::{OmConfig, TraitorStrategy};
use bne_core::byzantine::om_process::{om_process_set, OmProcess};
use bne_core::byzantine::phase_king::PhaseKingProcess;
use bne_core::byzantine::scenario::{
    BroadcastCell, BroadcastScenario, PhaseKingCell, PhaseKingScenario,
};
use bne_core::byzantine::Value;
use bne_core::net::scenario::{
    AsyncBroadcastCell, AsyncBroadcastScenario, AsyncPhaseKingCell, AsyncPhaseKingScenario,
    NetProfile,
};
use bne_core::net::{
    run_round_protocol, AsyncProcess, EventNet, LatencyModel, LinkFaults, NetConfig, RoundAdapter,
    SchedulerPolicy,
};
use bne_core::sim::{derive_seed, Scenario};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeSet;

/// Picks one of the canned faulty behaviors from small integers, with an
/// explicit seed for the stochastic ones (the PR2 seeding convention).
fn behavior_from(kind: u8, seed: u64) -> FaultyBehavior {
    match kind % 6 {
        0 => FaultyBehavior::Silent,
        1 => FaultyBehavior::Crash { after: 1, value: 1 },
        2 => FaultyBehavior::FixedValue(0),
        3 => FaultyBehavior::Equivocate { seed },
        4 => FaultyBehavior::RandomNoise { seed },
        _ => FaultyBehavior::Garbage { seed },
    }
}

/// Builds one phase-king process set: `n - t` honest processes with
/// seed-drawn initial bits, then `t` faulty ones.
fn phase_king_set(
    n: usize,
    t: usize,
    behavior: &FaultyBehavior,
    seed: u64,
) -> Vec<Box<dyn Process<Msg = Value>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut processes: Vec<Box<dyn Process<Msg = Value>>> = (0..n - t)
        .map(|_| {
            Box::new(PhaseKingProcess::new(rng.random_range(0..2u64), t))
                as Box<dyn Process<Msg = Value>>
        })
        .collect();
    for _ in 0..t {
        processes.push(Box::new(FaultyProcess::new(behavior.clone())));
    }
    processes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Zero-latency FIFO async phase king is bit-identical to the
    /// lockstep SyncNetwork: same decisions, same round count, same
    /// message count — for arbitrary fault budgets, behaviors and seeds.
    #[test]
    fn async_fifo_phase_king_equals_sync_network(
        n in 4usize..11,
        t_raw in 0usize..3,
        behavior_kind in 0u8..6,
        seed in 0u64..u64::MAX,
    ) {
        let t = t_raw.min(n - 2);
        let behavior = behavior_from(behavior_kind, seed ^ 0xB44D);
        let rounds = PhaseKingProcess::rounds_needed(t);

        let mut sync = SyncNetwork::new(phase_king_set(n, t, &behavior, seed));
        sync.run(rounds);

        let async_out = run_round_protocol(
            phase_king_set(n, t, &behavior, seed),
            rounds,
            NetConfig::lockstep(seed),
        );

        prop_assert_eq!(sync.decisions(), async_out.decisions.clone());
        prop_assert_eq!(sync.stats().messages_sent, async_out.stats.messages_sent);
        prop_assert_eq!(sync.stats().rounds, async_out.rounds);
        prop_assert_eq!(async_out.stats.messages_dropped, 0);
        prop_assert_eq!(
            async_out.stats.messages_delivered,
            async_out.stats.messages_sent
        );
    }

    /// Zero-latency FIFO async OM (EIG processes) is bit-identical to the
    /// same processes on the SyncNetwork, traitorous commander included.
    #[test]
    fn async_fifo_om_equals_sync_network(
        n in 4usize..8,
        t in 1usize..3,
        commander_faulty_bit in 0u8..2,
        strategy_kind in 0u8..4,
        seed in 0u64..u64::MAX,
    ) {
        let commander_faulty = commander_faulty_bit == 1;
        let strategy = match strategy_kind {
            0 => TraitorStrategy::Flip,
            1 => TraitorStrategy::SplitByParity,
            2 => TraitorStrategy::Fixed(0),
            _ => TraitorStrategy::Silent,
        };
        let traitors: BTreeSet<usize> = if commander_faulty {
            (0..t).collect()
        } else {
            (1..=t).collect()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let config = OmConfig {
            n,
            m: t,
            commander_value: rng.random_range(0..2u64),
            traitors,
            strategy,
            default_value: 0,
        };
        let rounds = OmProcess::rounds_needed(config.m);

        let mut sync = SyncNetwork::new(om_process_set(&config));
        sync.run(rounds);

        let async_out =
            run_round_protocol(om_process_set(&config), rounds, NetConfig::lockstep(seed));

        prop_assert_eq!(sync.decisions(), async_out.decisions.clone());
        prop_assert_eq!(sync.stats().messages_sent, async_out.stats.messages_sent);
        prop_assert_eq!(sync.stats().rounds, async_out.rounds);
    }

    /// At the lockstep profile the async phase-king and Dolev–Strong
    /// scenarios report exactly the statistics of their sync
    /// counterparts: both sides build the replica through the same
    /// `bne_byzantine::scenario` builder, so only the network differs.
    #[test]
    fn lockstep_async_scenarios_equal_sync_scenarios(
        large in 0u8..2,
        unanimous_bit in 0u8..2,
        faulty_bit in 0u8..2,
        seed in 0u64..200,
    ) {
        let (n, t) = if large == 1 { (9, 2) } else { (5, 1) };
        let unanimous_start = unanimous_bit == 1;
        let behavior = if faulty_bit == 1 {
            FaultyBehavior::Equivocate { seed: 7 }
        } else {
            FaultyBehavior::Silent
        };
        let sync_pk = PhaseKingCell { n, t, behavior: behavior.clone(), unanimous_start };
        let async_pk = AsyncPhaseKingCell {
            n,
            t,
            behavior,
            unanimous_start,
            net: NetProfile::lockstep(),
        };
        prop_assert_eq!(
            PhaseKingScenario.run(&sync_pk, seed),
            AsyncPhaseKingScenario.run(&async_pk, seed)
        );

        let equivocating_sender = faulty_bit == 1;
        let sync_ds = BroadcastCell { n, t, equivocating_sender };
        let async_ds = AsyncBroadcastCell {
            n,
            t,
            equivocating_sender,
            net: NetProfile::lockstep(),
        };
        prop_assert_eq!(
            BroadcastScenario.run(&sync_ds, seed),
            AsyncBroadcastScenario.run(&async_ds, seed)
        );
    }

    /// The same (config, seed) yields an identical event trace — across
    /// arbitrary latency models, schedulers, loss rates and round
    /// durations. Scheduler seeds derive from the replica seed via the
    /// bijective `derive_seed` mix.
    #[test]
    fn same_config_and_seed_yield_identical_event_traces(
        n in 4usize..9,
        t in 1usize..3,
        latency_kind in 0u8..3,
        scheduler_kind in 0u8..3,
        drop_percent in 0u64..40,
        round_ticks in 1u64..6,
        seed in 0u64..u64::MAX,
    ) {
        let t = t.min(n - 2);
        let latency = match latency_kind {
            0 => LatencyModel::Constant(seed % 4),
            1 => LatencyModel::UniformJitter { min: 0, max: 1 + seed % 7 },
            _ => LatencyModel::HeavyTail {
                base: 1 + seed % 3,
                tail_prob: 0.3,
                max_doublings: 4,
            },
        };
        let byzantine: BTreeSet<usize> = (n - t..n).collect();
        let scheduler = match scheduler_kind {
            0 => SchedulerPolicy::Fifo,
            1 => SchedulerPolicy::RandomInterleave {
                seed: derive_seed(seed, 7, 0),
                jitter: 3,
            },
            _ => SchedulerPolicy::AdversarialRush {
                byzantine: byzantine.clone(),
                honest_delay: 2,
            },
        };
        let cfg = NetConfig {
            latency,
            scheduler,
            faults: LinkFaults::lossy(drop_percent as f64 / 100.0).into(),
            round_ticks,
            record_trace: true,
            ..NetConfig::lockstep(seed)
        };
        let behavior = FaultyBehavior::RandomNoise { seed: derive_seed(seed, 8, 0) };
        let rounds = PhaseKingProcess::rounds_needed(t);

        let run = |cfg: NetConfig| {
            let adapters: Vec<Box<dyn AsyncProcess<Msg = Value>>> =
                phase_king_set(n, t, &behavior, seed)
                    .into_iter()
                    .map(|p| {
                        Box::new(RoundAdapter::new(p, rounds, cfg.round_ticks)) as _
                    })
                    .collect();
            let mut net = EventNet::new(adapters, cfg);
            assert!(net.run(1_000_000), "queue must drain");
            net
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        prop_assert!(!a.trace().is_empty());
        prop_assert_eq!(a.trace(), b.trace());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.decisions(), b.decisions());
    }
}

/// Different base seeds must change a stochastic execution's trace (the
/// deterministic counterpart: the proptest above pins equal seeds).
#[test]
fn different_seeds_change_stochastic_traces() {
    let cfg = |seed: u64| NetConfig {
        latency: LatencyModel::UniformJitter { min: 0, max: 5 },
        scheduler: SchedulerPolicy::RandomInterleave {
            seed: derive_seed(seed, 7, 0),
            jitter: 3,
        },
        faults: LinkFaults::lossy(0.2).into(),
        round_ticks: 2,
        record_trace: true,
        ..NetConfig::lockstep(seed)
    };
    let behavior = FaultyBehavior::RandomNoise { seed: 5 };
    let rounds = PhaseKingProcess::rounds_needed(1);
    let run = |cfg: NetConfig| {
        let adapters: Vec<Box<dyn AsyncProcess<Msg = Value>>> = phase_king_set(6, 1, &behavior, 9)
            .into_iter()
            .map(|p| Box::new(RoundAdapter::new(p, rounds, cfg.round_ticks)) as _)
            .collect();
        let mut net = EventNet::new(adapters, cfg);
        assert!(net.run(1_000_000));
        net
    };
    let a = run(cfg(1));
    let b = run(cfg(2));
    assert_ne!(a.trace(), b.trace(), "different seeds, different schedules");
}

/// The seed streams inside the runtime derive from the config seed via
/// the workspace's bijective mix — spot-check the convention holds (no
/// accidental stream aliasing between the link and scheduler streams).
#[test]
fn derive_seed_streams_do_not_alias() {
    for seed in [0u64, 1, 42, u64::MAX] {
        let mut seen = BTreeSet::new();
        for stream in 0..16u64 {
            assert!(seen.insert(derive_seed(seed, stream, 0)));
            assert!(seen.insert(derive_seed(seed, stream, 1)));
        }
    }
}
