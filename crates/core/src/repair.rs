//! Agile federation: repairing a flow graph after a change to the overlay.
//!
//! The paper's title promises *agile* service federation; this module makes
//! the property concrete. When service instances fail or service links
//! change QoS, a previously federated flow graph may lose selected nodes or
//! the streams between them. [`repair`] re-federates the requirement over
//! the new overlay while **pinning every surviving selection**, so only the
//! broken parts of the federation move — the minimal-disruption policy a
//! deployed system wants (sessions on surviving instances keep their
//! state).
//!
//! A repair tries three things, cheapest first:
//!
//! 1. **Re-price.** If every service's instance survived, the pins leave
//!    the solver no choice: the only pinned answer is that selection,
//!    assembled on the new routing table. So it is assembled directly, with
//!    no plan analysis and no chain DP — what a link-QoS change, or the
//!    failure of an instance the flow does not use, costs per flow.
//! 2. **Pinned re-solve.** Otherwise the vanished services are re-solved
//!    by a horizon-less sFlow [`Solver`] around the survivors. A
//!    re-pricing that found a pinned pair unreachable lands here too, and
//!    fails here the same way.
//! 3. **Re-federation.** If the survivors corner the solver, the
//!    requirement is solved from scratch and the outcome says how much
//!    moved. [`repair`] re-federates with sFlow; [`repair_with`] takes the
//!    caller's solve, so a flow federated under other rules (another
//!    algorithm, a hop limit) is re-federated under them.
//!
//! # Example
//!
//! ```
//! use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
//! use sflow_core::fixtures::{diamond_fixture, diamond_requirement};
//! use sflow_core::{repair, FederationContext};
//!
//! let fx = diamond_fixture();
//! let ctx = fx.context();
//! let req = diamond_requirement();
//! let flow = SflowAlgorithm::default().federate(&ctx, &req)?;
//!
//! // Fail the selected instance of service 1 and repair.
//! let s1 = sflow_net::ServiceId::new(1);
//! let failed = [*flow.instances().get(&s1).unwrap()];
//! let (degraded, cut) = fx.overlay.with_failed(&failed);
//! let (ap, _) = fx.all_pairs.patched_with(degraded.graph(), &cut, 1);
//! let ctx2 = FederationContext::new(&degraded, &ap, fx.source);
//!
//! let outcome = repair::repair(&ctx2, &req, &flow)?;
//! assert!(outcome.reselected.contains(&s1));
//! # Ok::<(), sflow_core::FederationError>(())
//! ```

use std::collections::BTreeMap;

use sflow_net::{ServiceId, ServiceInstance};

use crate::{FederationContext, FederationError, FlowGraph, Selection, ServiceRequirement, Solver};

/// The result of a repair.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// The repaired flow graph over the new overlay.
    pub flow: FlowGraph,
    /// Services whose instance changed (failed, or moved by the fallback).
    pub reselected: Vec<ServiceId>,
    /// Services whose previous instance was preserved.
    pub preserved: Vec<ServiceId>,
    /// `true` if neither the re-pricing nor the pinned re-solve yielded a
    /// flow and a full re-federation was required.
    pub full_refederation: bool,
}

impl RepairOutcome {
    /// `true` if every service kept its instance and no re-federation ran:
    /// the repair re-priced the previous selection on the new table.
    pub fn repriced(&self) -> bool {
        self.reselected.is_empty() && !self.full_refederation
    }
}

/// Repairs `previous` over the changed overlay in `ctx`, re-federating with
/// a horizon-less sFlow [`Solver`] if the pinned steps fail.
///
/// `ctx` must be built over the post-change overlay (for a failure, see
/// [`sflow_net::OverlayGraph::with_failed`]); its source instance is where
/// the consumer re-issues the requirement — usually the old source, which
/// survives unless the failure took it out.
///
/// Surviving selections are translated into the new overlay by their
/// `(service, host)` identity and pinned. A selection that survived whole
/// is re-priced; otherwise only vanished services are re-solved. On
/// infeasibility the repair falls back to a clean solve.
///
/// # Errors
///
/// Propagates [`FederationError`] if even the fallback cannot federate the
/// requirement over the new overlay.
pub fn repair(
    ctx: &FederationContext<'_>,
    req: &ServiceRequirement,
    previous: &FlowGraph,
) -> Result<RepairOutcome, FederationError> {
    repair_with(ctx, req, previous, || Solver::new(ctx).solve(req))
}

/// [`repair`] with the re-federation supplied by the caller: `refederate`
/// runs only if neither the re-pricing nor the pinned re-solve yields a
/// flow, and its answer is the outcome. The pinned re-solve is always a
/// horizon-less sFlow [`Solver`], whatever `refederate` solves with.
///
/// # Errors
///
/// Propagates `refederate`'s [`FederationError`].
pub fn repair_with(
    ctx: &FederationContext<'_>,
    req: &ServiceRequirement,
    previous: &FlowGraph,
    refederate: impl FnOnce() -> Result<FlowGraph, FederationError>,
) -> Result<RepairOutcome, FederationError> {
    let overlay = ctx.overlay();
    // Translate surviving selections into the new overlay.
    let mut pins: Selection = BTreeMap::new();
    pins.insert(req.source(), ctx.source_instance());
    for (&sid, &inst) in previous.instances() {
        if sid == req.source() {
            continue;
        }
        if let Some(node) = overlay.node_of(inst) {
            pins.insert(sid, node);
        }
    }

    // With every service pinned, the pinned re-solve could only assemble
    // the pins themselves, so a selection that survived whole is assembled
    // directly; `assemble` refuses one that lost a service.
    let resolved =
        FlowGraph::assemble(ctx, req, &pins).or_else(|_| Solver::new(ctx).solve_pinned(req, &pins));
    let (flow, full_refederation) = match resolved {
        Ok(flow) => (flow, false),
        Err(_) => (refederate()?, true),
    };

    let mut reselected = Vec::new();
    let mut preserved = Vec::new();
    for (&sid, &inst) in flow.instances() {
        let was: Option<ServiceInstance> = previous.instances().get(&sid).copied();
        if was == Some(inst) {
            preserved.push(sid);
        } else {
            reselected.push(sid);
        }
    }
    Ok(RepairOutcome {
        flow,
        reselected,
        preserved,
        full_refederation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FederationAlgorithm, SflowAlgorithm};
    use crate::fixtures::{diamond_fixture, diamond_requirement, random_fixture};
    use sflow_net::ServiceId;
    use sflow_routing::{Bandwidth, Latency, Qos};

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn repair_moves_only_the_failed_service() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let flow = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        let failed = [flow.instances()[&s(1)]];
        let (degraded, cut) = fx.overlay.with_failed(&failed);
        let (ap, _) = fx.all_pairs.patched_with(degraded.graph(), &cut, 1);
        let ctx2 = crate::FederationContext::new(&degraded, &ap, fx.source);

        let outcome = repair(&ctx2, &req, &flow).unwrap();
        assert!(!outcome.full_refederation);
        assert_eq!(outcome.reselected, vec![s(1)]);
        assert_eq!(outcome.preserved.len(), 3);
        // The repaired selection is complete and avoids the failed instance.
        assert_eq!(outcome.flow.selection().len(), 4);
        assert_ne!(outcome.flow.instances()[&s(1)], failed[0]);
    }

    #[test]
    fn repair_with_no_failures_changes_nothing() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let flow = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        let outcome = repair(&ctx, &req, &flow).unwrap();
        assert!(outcome.reselected.is_empty());
        assert_eq!(outcome.preserved.len(), 4);
        assert_eq!(outcome.flow.instances(), flow.instances());
    }

    /// A link-QoS change that cuts a pinned stream's only overlay link
    /// leaves the pinned pair unreachable: the re-pricing fails, the pinned
    /// re-solve fails the same way, and the repair re-federates exactly as
    /// a repair without the re-pricing step does.
    #[test]
    fn cutting_a_pinned_streams_only_link_falls_back_to_a_full_solve() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let flow = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        // s0 reaches an s1 instance only over their direct service link.
        let (from, to) = (flow.selection()[&s(0)], flow.selection()[&s(1)]);
        let cut = Qos::new(Bandwidth::kbps(0), Latency::from_micros(10));
        let (overlay, _) = fx.overlay.with_link_qos(from, to, cut).unwrap();
        let ap = overlay.all_pairs();
        let ctx2 = crate::FederationContext::new(&overlay, &ap, fx.source);
        assert_eq!(ctx2.qos(from, to), None, "the cut leaves no other path");

        let solver = Solver::new(&ctx2);
        assert!(solver.solve_pinned(&req, flow.selection()).is_err());
        let reference = solver.solve(&req).unwrap();
        let outcome = repair(&ctx2, &req, &flow).unwrap();
        assert!(outcome.full_refederation);
        assert!(!outcome.repriced());
        assert_eq!(outcome.flow.selection(), reference.selection());
        assert_eq!(outcome.flow.edges(), reference.edges());
        assert_eq!(outcome.flow.quality(), reference.quality());
        assert!(outcome.reselected.contains(&s(1)));
    }

    /// A selection that survives whole is re-priced on the new table: the
    /// same instances, the new QoS, and the caller's re-federation never
    /// runs.
    #[test]
    fn a_surviving_selection_is_repriced_without_refederating() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let flow = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        let (from, to) = (flow.selection()[&s(0)], flow.selection()[&s(1)]);
        let halved = Qos::new(Bandwidth::kbps(5), Latency::from_micros(10));
        let (overlay, _) = fx.overlay.with_link_qos(from, to, halved).unwrap();
        let ap = overlay.all_pairs();
        let ctx2 = crate::FederationContext::new(&overlay, &ap, fx.source);

        let outcome = repair_with(&ctx2, &req, &flow, || {
            panic!("a surviving selection must not re-federate")
        })
        .unwrap();
        assert!(outcome.repriced());
        assert_eq!(outcome.preserved.len(), 4);
        assert_eq!(outcome.flow.selection(), flow.selection());
        assert_eq!(outcome.flow.bandwidth(), Bandwidth::kbps(5));
    }

    #[test]
    fn repair_survives_multi_failures_on_random_worlds() {
        let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
        let req = ServiceRequirement::from_edges([
            (s(0), s(1)),
            (s(0), s(2)),
            (s(1), s(3)),
            (s(2), s(3)),
            (s(3), s(4)),
        ])
        .unwrap();
        for seed in 0..6u64 {
            let fx = random_fixture(20, &services, 3, None, 600 + seed);
            let ctx = fx.context();
            let Ok(flow) = SflowAlgorithm::default().federate(&ctx, &req) else {
                continue;
            };
            // Fail the selected instances of two services at once.
            let failed = [flow.instances()[&s(1)], flow.instances()[&s(3)]];
            let (degraded, cut) = fx.overlay.with_failed(&failed);
            let (ap, _) = fx.all_pairs.patched_with(degraded.graph(), &cut, 1);
            let ctx2 = crate::FederationContext::new(&degraded, &ap, fx.source);
            let outcome = repair(&ctx2, &req, &flow).unwrap();
            assert_eq!(outcome.flow.selection().len(), 5, "seed {seed}");
            for f in failed {
                assert!(!outcome.flow.instances().values().any(|&i| i == f));
            }
            assert!(outcome.reselected.iter().any(|&x| x == s(1)));
            assert!(outcome.reselected.iter().any(|&x| x == s(3)));
        }
    }
}
