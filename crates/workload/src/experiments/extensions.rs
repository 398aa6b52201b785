//! Extension experiments beyond the paper's Fig. 10:
//!
//! * **E-CP control plane** — the cost of the link-state dissemination the
//!   paper assumes ("based on link states"): flooding messages and
//!   convergence time vs network size;
//! * **E-AG agility** — the title's *agile* claim quantified: after killing
//!   the selected instances of `k` services, how much of the federation does
//!   pin-preserving [`sflow_core::repair`] move, versus a full
//!   re-federation?

use serde::{Deserialize, Serialize};
use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow_core::repair::repair;
use sflow_core::FederationContext;
use sflow_net::ServiceInstance;
use sflow_sim::linkstate::flood_link_state;

use crate::experiments::{mean, SweepConfig};
use crate::generator::{build_trial, mixed_kind};
use crate::table::{f1, f3, Table};

/// One row of the control-plane series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ControlPlaneRow {
    /// Network size (hosts).
    pub size: usize,
    /// Mean LSA transmissions until quiescence.
    pub messages: f64,
    /// Mean duplicate receptions (suppressed).
    pub duplicates: f64,
    /// Mean simulated convergence time (µs).
    pub converged_us: f64,
}

/// Runs the control-plane experiment.
pub fn run_control_plane(cfg: &SweepConfig) -> Vec<ControlPlaneRow> {
    let mut rows = Vec::new();
    for &size in &cfg.sizes {
        let mut msgs = Vec::new();
        let mut dups = Vec::new();
        let mut conv = Vec::new();
        for trial in 0..cfg.trials {
            let t = build_trial(
                size,
                cfg.services,
                cfg.instances_per_service,
                mixed_kind(trial),
                cfg.base_seed,
                trial,
            );
            let out = flood_link_state(&t.fixture.net);
            assert!(out.all_converged(&t.fixture.net));
            msgs.push(out.stats.messages as f64);
            dups.push(out.stats.duplicates as f64);
            conv.push(out.stats.converged_at_us as f64);
        }
        rows.push(ControlPlaneRow {
            size,
            messages: mean(&msgs),
            duplicates: mean(&dups),
            converged_us: mean(&conv),
        });
    }
    rows
}

/// Renders the control-plane series.
pub fn control_plane_table(rows: &[ControlPlaneRow]) -> Table {
    let mut t = Table::new(
        "E-CP — link-state flooding cost vs network size",
        &["size", "messages", "duplicates", "converged µs"],
    );
    for r in rows {
        t.row(vec![
            r.size.to_string(),
            f1(r.messages),
            f1(r.duplicates),
            f1(r.converged_us),
        ]);
    }
    t
}

/// One row of the agility series.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AgilityRow {
    /// How many services' selected instances were killed simultaneously.
    pub failures: usize,
    /// Fraction of trials where repair (including its fallback) succeeded.
    pub success: f64,
    /// Mean fraction of services whose instance moved, with pin-preserving
    /// repair.
    pub moved_repair: f64,
    /// Mean fraction of services whose instance moved, re-federating from
    /// scratch.
    pub moved_refederate: f64,
    /// Mean bandwidth of the repaired flow relative to the fresh one.
    pub bandwidth_ratio: f64,
}

/// Runs the agility experiment at the largest configured network size.
pub fn run_agility(cfg: &SweepConfig) -> Vec<AgilityRow> {
    let size = *cfg.sizes.last().expect("non-empty sizes");
    let mut rows = Vec::new();
    for failures in 1..=3usize {
        let mut success = Vec::new();
        let mut moved_repair = Vec::new();
        let mut moved_fresh = Vec::new();
        let mut bw_ratio = Vec::new();
        for trial in 0..cfg.trials {
            let t = build_trial(
                size,
                cfg.services,
                cfg.instances_per_service,
                mixed_kind(trial),
                cfg.base_seed ^ 0xA61,
                trial,
            );
            let ctx = t.fixture.context();
            let Ok(flow) = SflowAlgorithm::default().federate(&ctx, &t.requirement) else {
                continue;
            };
            // Kill the selected instances of the last `failures` non-source
            // services (deterministic choice).
            let victims: Vec<ServiceInstance> = t
                .requirement
                .topo_order()
                .into_iter()
                .rev()
                .filter(|&s| s != t.requirement.source())
                .take(failures)
                .map(|s| flow.instances()[&s])
                .collect();
            let (degraded, cut) = t.fixture.overlay.with_failed(&victims);
            let (ap, _) = t.fixture.all_pairs.patched_with(degraded.graph(), &cut, 1);
            let ctx2 = FederationContext::new(&degraded, &ap, t.fixture.source);
            match repair(&ctx2, &t.requirement, &flow) {
                Ok(outcome) => {
                    success.push(1.0);
                    let total = t.requirement.len() as f64;
                    moved_repair.push(outcome.reselected.len() as f64 / total);
                    // Full re-federation baseline: solve fresh, count moves
                    // vs the original flow.
                    if let Ok(fresh) = SflowAlgorithm::default().federate(&ctx2, &t.requirement) {
                        let moved = fresh
                            .instances()
                            .iter()
                            .filter(|(sid, inst)| flow.instances().get(sid) != Some(inst))
                            .count();
                        moved_fresh.push(moved as f64 / total);
                        let fb = fresh.bandwidth().as_kbps().max(1) as f64;
                        bw_ratio.push(outcome.flow.bandwidth().as_kbps() as f64 / fb);
                    }
                }
                Err(_) => success.push(0.0),
            }
        }
        rows.push(AgilityRow {
            failures,
            success: mean(&success),
            moved_repair: mean(&moved_repair),
            moved_refederate: mean(&moved_fresh),
            bandwidth_ratio: mean(&bw_ratio),
        });
    }
    rows
}

/// Renders the agility series.
pub fn agility_table(rows: &[AgilityRow]) -> Table {
    let mut t = Table::new(
        "E-AG — repair disruption vs simultaneous failures",
        &[
            "failures",
            "success",
            "moved (repair)",
            "moved (refederate)",
            "bw ratio",
        ],
    );
    for r in rows {
        t.row(vec![
            r.failures.to_string(),
            f3(r.success),
            f3(r.moved_repair),
            f3(r.moved_refederate),
            f3(r.bandwidth_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_plane_flooding_scales_and_converges() {
        let rows = run_control_plane(&SweepConfig::smoke());
        assert_eq!(rows.len(), 2);
        assert!(rows[1].messages > rows[0].messages, "more hosts, more LSAs");
        for r in &rows {
            assert!(r.converged_us > 0.0);
        }
    }

    #[test]
    fn repair_moves_less_than_refederation() {
        let rows = run_agility(&SweepConfig::smoke());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.success > 0.0);
            // Pin-preserving repair never moves more than a fresh solve
            // moves relative to the old flow (on average).
            assert!(
                r.moved_repair <= r.moved_refederate + 1e-9,
                "repair {} > refederate {}",
                r.moved_repair,
                r.moved_refederate
            );
            // Moving k services means at least k/|services| moved.
            assert!(r.moved_repair > 0.0);
        }
    }
}
