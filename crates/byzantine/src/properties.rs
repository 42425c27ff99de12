//! Agreement and validity checking for every protocol harness in the
//! workspace, plus the sweep helper used by experiment E4 (the t < n/3
//! boundary table).
//!
//! The two safety conditions each have exactly one implementation here,
//! [`agreement_witness`] and [`validity_witness`]. Both walk the decided
//! `(process, value)` pairs and return the first offending witness without
//! allocating, so the model checker can run them at every explored state;
//! the boolean checks ([`check_agreement`], [`check_validity`]) and the
//! per-run judges ([`report`], [`uniform_report`], [`rb_report`]) the
//! sampler scenarios use are thin wrappers over them.

use crate::om::{om_byzantine_generals, OmConfig, TraitorStrategy};
use crate::scenario::Judge;
use crate::{ProcId, Value};
use std::collections::BTreeSet;

/// The classical correctness conditions of Byzantine agreement, evaluated on
/// the decisions of the honest processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreementReport {
    /// All honest processes decided.
    pub all_decided: bool,
    /// All honest decisions are equal (IC1).
    pub agreement: bool,
    /// If the source/general is honest, every honest decision equals its
    /// preference (IC2). Vacuously true when the general is faulty.
    pub validity: bool,
}

impl AgreementReport {
    /// Whether the execution satisfies all conditions.
    pub fn correct(&self) -> bool {
        self.all_decided && self.agreement && self.validity
    }
}

/// Agreement: the first two of the `decided` `(process, value)` pairs
/// whose values differ, or `None` when every listed decision is the same.
///
/// The witness pairs the first decision with the first one that
/// contradicts it. Allocation-free.
pub fn agreement_witness<I>(decided: I) -> Option<((ProcId, Value), (ProcId, Value))>
where
    I: IntoIterator<Item = (ProcId, Value)>,
{
    let mut decided = decided.into_iter();
    let first = decided.next()?;
    decided
        .find(|&(_, v)| v != first.1)
        .map(|other| (first, other))
}

/// Set validity: the first of the `decided` `(process, value)` pairs whose
/// value `allowed` rejects, or `None` when every listed decision is
/// permissible. Undecided processes are not listed, so they never violate
/// it. Allocation-free.
pub fn validity_witness<I>(decided: I, allowed: impl Fn(Value) -> bool) -> Option<(ProcId, Value)>
where
    I: IntoIterator<Item = (ProcId, Value)>,
{
    decided.into_iter().find(|&(_, v)| !allowed(v))
}

/// The `(process, value)` pairs of the processes `mask` selects that
/// have decided.
fn decided_in<'a>(
    decisions: &'a [Option<Value>],
    mask: &'a [bool],
) -> impl Iterator<Item = (ProcId, Value)> + 'a {
    decisions
        .iter()
        .zip(mask)
        .enumerate()
        .filter_map(|(i, (d, &m))| d.filter(|_| m).map(|v| (i, v)))
}

/// Whether every process `mask` selects has decided.
fn all_decided_in(decisions: &[Option<Value>], mask: &[bool]) -> bool {
    decisions.iter().zip(mask).all(|(d, &m)| !m || d.is_some())
}

/// Checks agreement over a slice of optional decisions, where `honest[i]`
/// says whether process `i` is honest. Faulty processes' entries are
/// ignored.
pub fn check_agreement(decisions: &[Option<Value>], honest: &[bool]) -> bool {
    agreement_witness(decided_in(decisions, honest)).is_none()
}

/// Checks validity: every honest decision equals `expected` (use only when
/// the source is honest). An undecided honest process fails it.
pub fn check_validity(decisions: &[Option<Value>], honest: &[bool], expected: Value) -> bool {
    all_decided_in(decisions, honest)
        && validity_witness(decided_in(decisions, honest), |v| v == expected).is_none()
}

/// Builds the full [`AgreementReport`] from decisions and the honesty
/// mask. `reference` is the value validity holds the honest processes
/// to — the honest general's preference, or the unanimous honest input —
/// and `None` when there is none (validity is then vacuous).
pub fn report(
    decisions: &[Option<Value>],
    honest: &[bool],
    reference: Option<Value>,
) -> AgreementReport {
    AgreementReport {
        all_decided: all_decided_in(decisions, honest),
        agreement: check_agreement(decisions, honest),
        validity: reference.is_none_or(|v| check_validity(decisions, honest, v)),
    }
}

/// The [`AgreementReport`] of a crash-fault consensus run (Paxos, HSUC):
/// every process `obligated` selects must decide, while agreement and
/// validity range over **all** decisions ever made, crashed deciders
/// included (uniform agreement), and validity only asks that each decided
/// value be some process's input.
pub fn uniform_report(
    decisions: &[Option<Value>],
    obligated: &[bool],
    inputs: &[Value],
) -> AgreementReport {
    let all = decisions
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|v| (i, v)));
    AgreementReport {
        all_decided: all_decided_in(decisions, obligated),
        agreement: agreement_witness(all.clone()).is_none(),
        validity: validity_witness(all, |v| inputs.contains(&v)).is_none(),
    }
}

/// The correctness conditions of **reliable broadcast** (Bracha), evaluated
/// on the honest processes' delivered values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbReport {
    /// Every honest process delivered.
    pub all_delivered: bool,
    /// Validity: the honest broadcaster's value was delivered by every
    /// honest process (vacuously true when the broadcaster is faulty).
    pub validity: bool,
    /// Agreement: no two honest processes delivered different values.
    pub agreement: bool,
    /// Totality: if any honest process delivered, every honest process
    /// delivered.
    pub totality: bool,
}

impl RbReport {
    /// Whether validity, agreement and totality all hold.
    pub fn correct(&self) -> bool {
        self.validity && self.agreement && self.totality
    }
}

/// Builds the [`RbReport`] of one reliable-broadcast execution.
/// `delivered[i]` is process `i`'s delivered value (if any), `honest[i]`
/// its honesty; `broadcaster_value` is `Some(v)` when the broadcaster is
/// honest and broadcast `v`.
pub fn rb_report(
    delivered: &[Option<Value>],
    honest: &[bool],
    broadcaster_value: Option<Value>,
) -> RbReport {
    let base = report(delivered, honest, broadcaster_value);
    let any = decided_in(delivered, honest).next().is_some();
    RbReport {
        all_delivered: base.all_decided,
        validity: base.validity,
        agreement: base.agreement,
        totality: !any || base.all_decided,
    }
}

/// One row of the E4 sweep: for a given `(n, t)`, whether OM(t) with the
/// worst adversary we implement preserved agreement and validity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundarySweepRow {
    /// Number of processes.
    pub n: usize,
    /// Number of traitors.
    pub t: usize,
    /// Whether `n > 3t` (the theoretical feasibility condition).
    pub theoretically_possible: bool,
    /// Whether agreement held in the simulated execution.
    pub agreement: bool,
    /// Whether validity held (general honest case).
    pub validity: bool,
    /// Messages used by OM(t).
    pub messages: usize,
}

/// Runs the OM(t) boundary sweep used by experiment E4: for each `(n, t)`,
/// places the traitors adversarially (commander first when `commander_faulty`
/// is set) and uses the parity-splitting lie.
pub fn om_boundary_sweep(
    max_n: usize,
    max_t: usize,
    commander_faulty: bool,
) -> Vec<BoundarySweepRow> {
    let mut rows = Vec::new();
    for n in 2..=max_n {
        for t in 0..=max_t.min(n - 1) {
            let traitors: BTreeSet<usize> = if commander_faulty {
                (0..t).collect()
            } else {
                (1..=t).collect()
            };
            let config = OmConfig {
                n,
                m: t,
                commander_value: 1,
                traitors,
                strategy: TraitorStrategy::SplitByParity,
                default_value: 0,
            };
            let outcome = om_byzantine_generals(&config);
            let judged = Judge::om(&config).report(&outcome.decision_vector(n));
            rows.push(BoundarySweepRow {
                n,
                t,
                theoretically_possible: n > 3 * t,
                agreement: judged.agreement,
                validity: judged.validity,
                messages: outcome.messages,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_and_validity_helpers() {
        let decisions = vec![Some(1), Some(1), None, Some(1)];
        let honest = vec![true, true, false, true];
        assert!(check_agreement(&decisions, &honest));
        assert!(check_validity(&decisions, &honest, 1));
        assert!(!check_validity(&decisions, &honest, 0));

        let decisions = vec![Some(1), Some(0), Some(1)];
        let honest = vec![true, true, true];
        assert!(!check_agreement(&decisions, &honest));
    }

    #[test]
    fn faulty_entries_are_ignored() {
        let decisions = vec![Some(1), Some(0)];
        let honest = vec![true, false];
        assert!(check_agreement(&decisions, &honest));
        let r = report(&decisions, &honest, Some(1));
        assert!(r.correct());
    }

    #[test]
    fn report_flags_missing_decisions() {
        let decisions = vec![Some(1), None];
        let honest = vec![true, true];
        let r = report(&decisions, &honest, Some(1));
        assert!(!r.all_decided);
        assert!(!r.correct());
    }

    #[test]
    fn rb_report_covers_the_three_conditions() {
        let honest = vec![true, true, true, false];
        // all honest delivered the broadcast value: fully correct
        let r = rb_report(&[Some(1), Some(1), Some(1), None], &honest, Some(1));
        assert!(r.correct());
        // one honest delivery missing: totality (and validity) broken
        let r = rb_report(&[Some(1), None, Some(1), None], &honest, Some(1));
        assert!(!r.totality);
        assert!(!r.validity);
        assert!(r.agreement, "agreement only constrains actual deliveries");
        // split deliveries: agreement broken, totality fine
        let r = rb_report(&[Some(1), Some(0), Some(1), None], &honest, None);
        assert!(!r.agreement);
        assert!(r.totality);
        assert!(r.validity, "vacuous under a faulty broadcaster");
        // nobody delivered anything: totality vacuous, validity not
        let r = rb_report(&[None, None, None, None], &honest, Some(1));
        assert!(r.totality);
        assert!(!r.validity);
    }

    #[test]
    fn boundary_sweep_matches_theory_when_feasible() {
        // whenever n > 3t the simulated OM(t) run must be correct
        for row in om_boundary_sweep(8, 2, false) {
            if row.theoretically_possible {
                assert!(
                    row.agreement && row.validity,
                    "n = {}, t = {} should succeed",
                    row.n,
                    row.t
                );
            }
        }
    }

    #[test]
    fn boundary_sweep_shows_failures_below_the_bound() {
        // the classic n = 3, t = 1 case with an honest commander and one
        // traitorous lieutenant must violate validity
        let rows = om_boundary_sweep(4, 1, false);
        let bad = rows
            .iter()
            .find(|r| r.n == 3 && r.t == 1)
            .expect("row exists");
        assert!(!bad.theoretically_possible);
        assert!(
            !(bad.agreement && bad.validity),
            "correctness should fail when n ≤ 3t"
        );
    }
}
