//! Fig. 10(b): computation time vs network size.
//!
//! As in the paper, "we use only simple requirements in order to make
//! reasonable comparison between the sFlow algorithm and the global optimal
//! algorithm" — on path requirements the optimum is polynomial, so the two
//! curves measure comparable work. The sFlow curve sits slightly above the
//! global-optimal one because of per-hop re-computation (hop-limited local
//! solves at every node), which is exactly the gap the paper describes.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use sflow_core::algorithms::{FederationAlgorithm, GlobalOptimalAlgorithm};
use sflow_core::FederationContext;
use sflow_sim::{run_distributed, SimConfig};

use crate::experiments::{mean, SweepConfig};
use crate::generator::{build_trial, RequirementKind};
use crate::table::{f1, Table};

/// One row of the Fig. 10(b) series: mean wall-clock computation time (µs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimingRow {
    /// Network size (hosts).
    pub size: usize,
    /// Distributed sFlow: the sum of local computations across all nodes
    /// (measured by running the full protocol).
    pub sflow_us: f64,
    /// Global optimal computed once (at the sink, in the paper's setup).
    pub global_optimal_us: f64,
}

/// Runs the timing sweep on path requirements.
pub fn run(cfg: &SweepConfig) -> Vec<TimingRow> {
    let mut rows = Vec::with_capacity(cfg.sizes.len());
    for &size in &cfg.sizes {
        let mut sflow_t = Vec::new();
        let mut opt_t = Vec::new();
        for trial in 0..cfg.trials {
            let t = build_trial(
                size,
                cfg.services,
                cfg.instances_per_service,
                RequirementKind::Path,
                cfg.base_seed,
                trial,
            );
            // The timed region includes the all-pairs shortest-widest table
            // over all N network nodes (step 1 of Table 1 — in the paper's
            // setup every node is a service node, so this is the O(N³) term
            // that makes computation time grow with network size in
            // Fig. 10(b)).
            let start = Instant::now();
            {
                let _link_state = t.fixture.net.all_pairs();
                let ap = t.fixture.overlay.all_pairs();
                let ctx = FederationContext::new(&t.fixture.overlay, &ap, t.fixture.source);
                if run_distributed(&ctx, &t.requirement, &SimConfig::default()).is_ok() {
                    sflow_t.push(start.elapsed().as_micros() as f64);
                }
            }

            let start = Instant::now();
            {
                let _link_state = t.fixture.net.all_pairs();
                let ap = t.fixture.overlay.all_pairs();
                let ctx = FederationContext::new(&t.fixture.overlay, &ap, t.fixture.source);
                if GlobalOptimalAlgorithm
                    .federate(&ctx, &t.requirement)
                    .is_ok()
                {
                    opt_t.push(start.elapsed().as_micros() as f64);
                }
            }
        }
        rows.push(TimingRow {
            size,
            sflow_us: mean(&sflow_t),
            global_optimal_us: mean(&opt_t),
        });
    }
    rows
}

/// Renders the series as a table.
pub fn to_table(rows: &[TimingRow]) -> Table {
    let mut t = Table::new(
        "Fig. 10(b) — computation time vs network size (µs, wall clock)",
        &["size", "sflow", "global-optimal"],
    );
    for r in rows {
        t.row(vec![
            r.size.to_string(),
            f1(r.sflow_us),
            f1(r.global_optimal_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_measures_positive_times() {
        let rows = run(&SweepConfig::smoke());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.sflow_us > 0.0);
            assert!(r.global_optimal_us > 0.0);
        }
        assert_eq!(to_table(&rows).len(), 2);
    }
}
