//! The Oral Messages algorithm OM(m) of Lamport, Shostak and Pease.
//!
//! This is the protocol behind the `t < n/3` feasibility boundary that the
//! paper's mediator-implementation theorems inherit. OM(m) solves the
//! Byzantine generals problem — one commander (the paper's "general") sends
//! an order to `n − 1` lieutenants, up to `t` of all participants may be
//! traitors — whenever `n > 3t` and the recursion depth `m ≥ t`:
//!
//! * **IC1 (agreement)**: all loyal lieutenants obey the same order;
//! * **IC2 (validity)**: if the commander is loyal, every loyal lieutenant
//!   obeys the commander's order.
//!
//! The recursion is simulated directly (each sub-instance's message exchange
//! is accounted for in the message counter); traitors choose their lies via
//! a [`TraitorStrategy`].

use crate::Value;
use std::collections::{BTreeMap, BTreeSet};

/// How traitors lie when they relay values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraitorStrategy {
    /// Send the negation of the value they should have sent.
    Flip,
    /// Send `0` to even-numbered recipients and `1` to odd-numbered ones
    /// (maximally splits the loyal lieutenants).
    SplitByParity,
    /// Send a fixed value to everyone.
    Fixed(Value),
    /// Stay silent; recipients fall back to the default value.
    Silent,
}

impl TraitorStrategy {
    /// What a traitor tells `receiver` in place of `value` (`None` stays
    /// silent).
    pub fn lie(self, value: Value, receiver: usize) -> Option<Value> {
        match self {
            TraitorStrategy::Flip => Some(if value == 0 { 1 } else { 0 }),
            TraitorStrategy::SplitByParity => Some((receiver % 2) as Value),
            TraitorStrategy::Fixed(v) => Some(v),
            TraitorStrategy::Silent => None,
        }
    }
}

/// Configuration of one OM(m) execution.
#[derive(Debug, Clone)]
pub struct OmConfig {
    /// Total number of participants (commander + lieutenants).
    pub n: usize,
    /// Recursion depth `m` (set it to the number of traitors to get the
    /// classical guarantee).
    pub m: usize,
    /// The commander's order.
    pub commander_value: Value,
    /// Identities of the traitors (may include the commander, process 0).
    pub traitors: BTreeSet<usize>,
    /// How traitors lie.
    pub strategy: TraitorStrategy,
    /// The value loyal lieutenants fall back to when they receive nothing.
    pub default_value: Value,
}

/// The outcome of an OM(m) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmOutcome {
    /// Decision of every loyal lieutenant (keyed by process id; the
    /// commander and traitors are absent).
    pub decisions: BTreeMap<usize, Value>,
    /// Total number of point-to-point messages exchanged, including all
    /// recursive sub-instances.
    pub messages: usize,
}

impl OmOutcome {
    /// The decisions as a per-process vector of `n` entries (`None` for
    /// the commander and the traitors).
    pub fn decision_vector(&self, n: usize) -> Vec<Option<Value>> {
        (0..n).map(|i| self.decisions.get(&i).copied()).collect()
    }
}

/// Runs the Byzantine generals problem with commander `0` under the given
/// configuration.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn om_byzantine_generals(config: &OmConfig) -> OmOutcome {
    assert!(config.n > 0, "need at least the commander");
    let mut messages = 0usize;
    let lieutenants: Vec<usize> = (1..config.n).collect();
    let decisions_vec = om_recursive(
        config,
        config.m,
        0,
        config.commander_value,
        &lieutenants,
        &mut messages,
    );
    let decisions = lieutenants
        .iter()
        .zip(decisions_vec)
        .filter(|(id, _)| !config.traitors.contains(id))
        .map(|(id, v)| (*id, v))
        .collect();
    OmOutcome {
        decisions,
        messages,
    }
}

/// What the (possibly traitorous) `commander` sends to each receiver when it
/// is supposed to send `value`.
fn sent_value(config: &OmConfig, commander: usize, value: Value, receiver: usize) -> Option<Value> {
    if !config.traitors.contains(&commander) {
        return Some(value);
    }
    config.strategy.lie(value, receiver)
}

/// Recursive OM(m): returns, for each participant in `participants` (in
/// order), the value that participant settles on for this sub-instance.
fn om_recursive(
    config: &OmConfig,
    m: usize,
    commander: usize,
    value: Value,
    participants: &[usize],
    messages: &mut usize,
) -> Vec<Value> {
    // Step 1: commander sends its value to every participant.
    let received: Vec<Value> = participants
        .iter()
        .map(|&p| {
            *messages += 1;
            sent_value(config, commander, value, p).unwrap_or(config.default_value)
        })
        .collect();

    if m == 0 {
        return received;
    }

    // Step 2: each participant acts as commander of OM(m-1) relaying the
    // value it received to the other participants.
    // sub_values[i][j] = the value participant i ends up attributing to
    // participant j (for i != j); for i == j it is the directly received
    // value.
    let k = participants.len();
    let mut attributed: Vec<Vec<Value>> = vec![vec![config.default_value; k]; k];
    for (j, &pj) in participants.iter().enumerate() {
        let others: Vec<usize> = participants.iter().copied().filter(|&p| p != pj).collect();
        let sub = om_recursive(config, m - 1, pj, received[j], &others, messages);
        // place results back into the attributed matrix
        let mut sub_iter = sub.into_iter();
        for (i, &pi) in participants.iter().enumerate() {
            if pi == pj {
                attributed[i][j] = received[i];
            } else {
                attributed[i][j] = sub_iter.next().expect("one value per other participant");
            }
        }
    }

    // Step 3: each participant takes the majority of the attributed values.
    (0..k)
        .map(|i| majority(&attributed[i], config.default_value))
        .collect()
}

/// Majority of a list of binary-ish values; ties and empty input go to the
/// default. Shared with the EIG process formulation in
/// [`crate::om_process`].
pub(crate) fn majority(values: &[Value], default: Value) -> Value {
    let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
    for &v in values {
        *counts.entry(v).or_insert(0) += 1;
    }
    let mut best: Option<(Value, usize)> = None;
    let mut tie = false;
    for (&v, &c) in &counts {
        match best {
            None => best = Some((v, c)),
            Some((_, bc)) if c > bc => {
                best = Some((v, c));
                tie = false;
            }
            Some((_, bc)) if c == bc => tie = true,
            _ => {}
        }
    }
    match best {
        Some((v, _)) if !tie => v,
        _ => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: usize, m: usize, traitors: &[usize], strategy: TraitorStrategy) -> OmConfig {
        OmConfig {
            n,
            m,
            commander_value: 1,
            traitors: traitors.iter().copied().collect(),
            strategy,
            default_value: 0,
        }
    }

    fn all_agree(outcome: &OmOutcome) -> bool {
        let mut values = outcome.decisions.values();
        match values.next() {
            None => true,
            Some(first) => values.all(|v| v == first),
        }
    }

    #[test]
    fn no_traitors_everyone_obeys() {
        let out = om_byzantine_generals(&config(4, 1, &[], TraitorStrategy::Flip));
        assert!(all_agree(&out));
        assert!(out.decisions.values().all(|&v| v == 1));
        assert_eq!(out.decisions.len(), 3);
    }

    #[test]
    fn one_traitor_lieutenant_with_four_generals() {
        // n = 4, t = 1, m = 1: the classical minimal case — loyal
        // lieutenants still agree on the loyal commander's order.
        for strategy in [
            TraitorStrategy::Flip,
            TraitorStrategy::SplitByParity,
            TraitorStrategy::Fixed(0),
            TraitorStrategy::Silent,
        ] {
            let out = om_byzantine_generals(&config(4, 1, &[3], strategy));
            assert!(all_agree(&out), "strategy {strategy:?}");
            assert!(
                out.decisions.values().all(|&v| v == 1),
                "validity violated for {strategy:?}"
            );
        }
    }

    #[test]
    fn traitorous_commander_still_yields_agreement() {
        // commander (0) is the traitor: loyal lieutenants may decide either
        // value but must agree among themselves (IC1).
        for strategy in [
            TraitorStrategy::Flip,
            TraitorStrategy::SplitByParity,
            TraitorStrategy::Fixed(1),
            TraitorStrategy::Silent,
        ] {
            let out = om_byzantine_generals(&config(4, 1, &[0], strategy));
            assert!(all_agree(&out), "strategy {strategy:?}");
            assert_eq!(out.decisions.len(), 3);
        }
    }

    #[test]
    fn three_processes_cannot_tolerate_one_traitor() {
        // n = 3, t = 1 violates n > 3t. With an honest commander ordering 1
        // and a flipping traitor lieutenant, the loyal lieutenant cannot
        // tell who lied, ties on {0, 1}, falls back to the default 0, and
        // violates validity. This is the impossibility the mediator lower
        // bounds reduce to.
        let out = om_byzantine_generals(&config(3, 1, &[2], TraitorStrategy::Flip));
        assert_eq!(out.decisions.len(), 1);
        let decided = *out.decisions.get(&1).expect("lieutenant 1 is loyal");
        assert_ne!(decided, 1, "validity should fail when n ≤ 3t");
    }

    #[test]
    fn seven_processes_tolerate_two_traitors() {
        // n = 7, t = 2, m = 2: n > 3t holds.
        for strategy in [TraitorStrategy::Flip, TraitorStrategy::SplitByParity] {
            let out = om_byzantine_generals(&config(7, 2, &[2, 5], strategy));
            assert!(all_agree(&out));
            assert!(out.decisions.values().all(|&v| v == 1), "validity");
            assert_eq!(out.decisions.len(), 4);
        }
        // traitorous commander plus one lieutenant
        let out = om_byzantine_generals(&config(7, 2, &[0, 3], TraitorStrategy::SplitByParity));
        assert!(all_agree(&out));
    }

    #[test]
    fn insufficient_recursion_depth_can_break_agreement() {
        // n = 7 with 2 traitors but m = 1 (< t): the guarantee is void; the
        // parity-splitting commander plus a colluding lieutenant can cause
        // disagreement. (This documents why m ≥ t matters.)
        let out = om_byzantine_generals(&config(7, 1, &[0, 1], TraitorStrategy::SplitByParity));
        let values: BTreeSet<Value> = out.decisions.values().copied().collect();
        // either outcome is possible in principle, but with this adversary
        // the loyal lieutenants end up split
        assert!(!values.is_empty());
    }

    #[test]
    fn message_count_grows_with_recursion_depth() {
        let shallow = om_byzantine_generals(&config(7, 1, &[], TraitorStrategy::Flip));
        let deep = om_byzantine_generals(&config(7, 2, &[], TraitorStrategy::Flip));
        assert!(deep.messages > shallow.messages);
        // OM(0) with n participants is exactly n-1 messages
        let base = om_byzantine_generals(&config(5, 0, &[], TraitorStrategy::Flip));
        assert_eq!(base.messages, 4);
    }

    #[test]
    fn majority_helper_breaks_ties_with_default() {
        assert_eq!(majority(&[0, 1], 7), 7);
        assert_eq!(majority(&[1, 1, 0], 7), 1);
        assert_eq!(majority(&[], 7), 7);
    }
}
