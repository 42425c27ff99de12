//! `sweep_audit`: the protocol sweep and the equilibrium audit, one after
//! the other in every repetition. Between them they run every layer the
//! model checker does not: the sweep drives the event runtime, the
//! protocol handlers and the simulation runner; the audit drives the
//! game oracles and the scrip economy. The two share no code, so the
//! per-layer metrics of the traced run still split the work by layer.
//!
//! They form one workload rather than two so that each run can be long
//! enough for its fastest repetition to catch a quiet phase of the host
//! within the benchmark's time budget.

use crate::report::{Report, Spans};
use crate::{audit, repeat, report_untraced, sweep, LayerMetrics, RunCfg, SetupTiming};

/// End-to-end metrics: set-up (the sweep's runner and grids, the audit's
/// games and economy) and both parts of the fixed work, repeated for
/// `cfg.seconds`. The first repetition is gated against direct runs and
/// the exhaustive frontier, later ones against the first.
pub fn untraced(cfg: &RunCfg, report: &mut Report) {
    let mut gate = sweep::Gate::default();
    let (task_s, setup_s) = repeat(
        cfg.seconds,
        // the audit's set-up takes tens of milliseconds: one per sample
        SetupTiming {
            batches: 1,
            per_batch: 1,
        },
        || (sweep::setup(cfg), audit::setup(cfg)),
        |(s, mut a)| {
            let swept = sweep::task(&s);
            let audited = audit::task(&mut a);
            (s, swept, a, audited)
        },
        |(s, swept, a, audited), i| {
            gate.check(report, &s, &swept);
            audit::check(report, &a, &audited, i == 0);
        },
    );
    report_untraced(report, &task_s, &setup_s);
}

/// Per-layer metrics: the sweep's traced run, then the audit's. Returns
/// the traced and the untraced seconds of both together.
pub fn traced(
    cfg: &RunCfg,
    report: &mut Report,
    spans: &mut Spans,
    layer: &mut LayerMetrics,
) -> (f64, f64) {
    let (sweep_traced, sweep_plain) = sweep::traced(cfg, report, spans, layer);
    let (audit_traced, audit_plain) = audit::traced(cfg, report, spans, layer);
    (sweep_traced + audit_traced, sweep_plain + audit_plain)
}
