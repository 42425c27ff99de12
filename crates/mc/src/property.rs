//! Safety properties checked at every explored state.
//!
//! A [`Property`] looks at a [`StateView`] — the per-process decision
//! vector plus crash flags — and reports a violation description, or
//! `None` if the state is fine. The explorer evaluates every property at
//! every state it visits, so the first violation found sits at minimal
//! depth along the search order (short counterexamples by construction).
//!
//! All stock properties here are **stable**: once decisions are made
//! they are never retracted by any protocol in this workspace, so a
//! violated state stays violated along every extension. Stability is
//! what makes checking under partial-order reduction sound — a deferred
//! independent event can never un-violate agreement (see
//! [`crate::explorer`]).
//!
//! [`Agreement`] and [`Validity`] are the model checker's names for the
//! workspace's one agreement/validity implementation,
//! [`bne_byzantine::properties`]: they only pick the processes to judge
//! and word the witness.

use bne_byzantine::properties::{agreement_witness, validity_witness};
use bne_byzantine::{ProcId, Value};
use bne_net::EventNet;
use std::collections::BTreeSet;

/// The slice of runtime state a property may look at.
pub struct StateView<'a> {
    /// Each process's decision, `None` while undecided
    /// ([`bne_net::EventNet::decisions`]).
    pub decisions: &'a [Option<Value>],
    /// Which processes are currently crashed
    /// ([`bne_net::EventNet::is_crashed`]).
    pub crashed: &'a [bool],
}

/// A property violation: which property, and a human-readable witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated property ([`Property::name`]).
    pub property: String,
    /// What went wrong, naming the offending processes and values.
    pub detail: String,
}

/// The first of `properties` that `net`'s current state violates.
pub(crate) fn first_violation<M: Clone>(
    net: &EventNet<M>,
    properties: &[Box<dyn Property>],
) -> Option<Violation> {
    let decisions = net.decisions();
    let crashed: Vec<bool> = (0..net.num_processes())
        .map(|p| net.is_crashed(p))
        .collect();
    let view = StateView {
        decisions: &decisions,
        crashed: &crashed,
    };
    properties.iter().find_map(|p| {
        p.check(&view).map(|detail| Violation {
            property: p.name().to_string(),
            detail,
        })
    })
}

/// A safety property evaluated at every explored state.
///
/// Implementations must be **stable** (violations persist along every
/// extension of the run) for exploration under partial-order reduction
/// to be sound; both stock properties qualify because decisions are
/// irrevocable.
pub trait Property {
    /// Short stable name, recorded in counterexample traces.
    fn name(&self) -> &'static str;
    /// `Some(detail)` iff the state violates the property.
    fn check(&self, view: &StateView<'_>) -> Option<String>;
}

/// The `(process, value)` pairs of the listed processes that have decided.
fn decided<'a>(
    procs: &'a [ProcId],
    view: &'a StateView<'_>,
) -> impl Iterator<Item = (ProcId, Value)> + 'a {
    procs
        .iter()
        .filter_map(|&p| view.decisions.get(p).copied().flatten().map(|v| (p, v)))
}

/// Agreement: no two of the listed processes decide different values.
///
/// For Byzantine models list only the honest processes (a liar's
/// "decision" is meaningless); for crash models list everyone — decided
/// values of processes that later crash still count, which makes this
/// **uniform** agreement, the stronger property Paxos actually provides.
#[derive(Debug, Clone)]
pub struct Agreement {
    /// The processes whose decisions must agree.
    pub procs: Vec<ProcId>,
}

impl Agreement {
    /// Agreement among `procs`.
    pub fn new(procs: Vec<ProcId>) -> Self {
        Agreement { procs }
    }
}

impl Property for Agreement {
    fn name(&self) -> &'static str {
        "agreement"
    }

    fn check(&self, view: &StateView<'_>) -> Option<String> {
        agreement_witness(decided(&self.procs, view))
            .map(|((q, w), (p, v))| format!("process {q} decided {w} but process {p} decided {v}"))
    }
}

/// Validity: every decided value of the listed processes lies in the
/// allowed set.
///
/// Instances cover the classical validity conditions at once:
///
/// * **RB validity** — the broadcaster is honest with input `v`, so
///   `allowed = {v}`: an honest process delivering anything else is the
///   witness the planted-quorum-bug corpus replays;
/// * **consensus validity** — `allowed` = the set of honest inputs;
/// * **OM validity (IC2)** — the general is honest with order `v`, so
///   `allowed = {v}` for every honest lieutenant.
#[derive(Debug, Clone)]
pub struct Validity {
    /// The processes whose decisions are constrained.
    pub procs: Vec<ProcId>,
    /// The set of permissible decision values.
    pub allowed: BTreeSet<Value>,
}

impl Validity {
    /// Validity of `procs`' decisions against `allowed`.
    pub fn new(procs: Vec<ProcId>, allowed: impl IntoIterator<Item = Value>) -> Self {
        Validity {
            procs,
            allowed: allowed.into_iter().collect(),
        }
    }
}

impl Property for Validity {
    fn name(&self) -> &'static str {
        "validity"
    }

    fn check(&self, view: &StateView<'_>) -> Option<String> {
        validity_witness(decided(&self.procs, view), |v| self.allowed.contains(&v)).map(|(p, v)| {
            format!(
                "process {p} decided {v}, outside the valid set {:?}",
                self.allowed
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_flags_split_decisions_and_ignores_unlisted() {
        let prop = Agreement::new(vec![0, 1, 2]);
        let crashed = [false; 4];
        let ok = [Some(1), None, Some(1), Some(0)];
        assert!(prop
            .check(&StateView {
                decisions: &ok,
                crashed: &crashed,
            })
            .is_none());
        let bad = [Some(1), Some(0), None, None];
        assert!(prop
            .check(&StateView {
                decisions: &bad,
                crashed: &crashed,
            })
            .is_some());
    }

    #[test]
    fn validity_flags_out_of_set_decisions() {
        let prop = Validity::new(vec![0, 1], [1]);
        let crashed = [false; 2];
        assert!(prop
            .check(&StateView {
                decisions: &[Some(1), None],
                crashed: &crashed,
            })
            .is_none());
        let v = prop
            .check(&StateView {
                decisions: &[Some(1), Some(0)],
                crashed: &crashed,
            })
            .unwrap();
        assert!(v.contains("process 1"), "{v}");
    }
}
