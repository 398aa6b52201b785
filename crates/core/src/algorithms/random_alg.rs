//! The "random" control algorithm of Sec. 5.
//!
//! "The random algorithm randomly chooses a direct downstream in the local
//! overlay graph that leads to the corresponding downstream required in the
//! service requirement."

// The core crate sits below the server and its `Lock`: this mutex keeps one
// seeded RNG for the whole walk of one federation, so draws stay
// reproducible however callers interleave.
#![expect(
    clippy::disallowed_types,
    reason = "the core crate cannot use the server's `Lock`; one RNG per federation walk"
)]

use std::collections::BTreeMap;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow_graph::NodeIx;

use crate::algorithms::FederationAlgorithm;
use crate::{FederationContext, FederationError, FlowGraph, ServiceRequirement};

/// Uniformly random federation: walk the requirement in topological order
/// and pick, for each service, a uniformly random instance among those with
/// a direct service link from every already-selected upstream instance.
///
/// The RNG is seeded explicitly so experiments are reproducible; a fresh
/// draw is made per federated requirement.
#[derive(Debug)]
pub struct RandomAlgorithm {
    rng: Mutex<StdRng>,
}

impl RandomAlgorithm {
    /// Creates a reproducible random federator.
    pub fn with_seed(seed: u64) -> Self {
        RandomAlgorithm {
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }
}

impl FederationAlgorithm for RandomAlgorithm {
    fn name(&self) -> &'static str {
        "random"
    }

    fn federate(
        &self,
        ctx: &FederationContext<'_>,
        req: &ServiceRequirement,
    ) -> Result<FlowGraph, FederationError> {
        let overlay = ctx.overlay();
        let mut rng = self.rng.lock();
        let mut selection: BTreeMap<_, _> = [(req.source(), ctx.source_instance())]
            .into_iter()
            .collect();
        for sid in req.topo_order() {
            if sid == req.source() {
                continue;
            }
            let upstream_nodes: Vec<NodeIx> =
                req.upstream(sid).iter().map(|u| selection[u]).collect();
            let all = overlay.instances_of(sid);
            if all.is_empty() {
                return Err(FederationError::NoInstances(sid));
            }
            // Directly linked candidates first; fall back to any candidate
            // reachable through the overlay (the requirement stays
            // satisfiable, just through a longer service stream).
            let direct: Vec<NodeIx> = all
                .iter()
                .copied()
                .filter(|&c| {
                    upstream_nodes
                        .iter()
                        .all(|&u| overlay.graph().contains_edge(u, c))
                })
                .collect();
            let reachable: Vec<NodeIx> = if direct.is_empty() {
                all.iter()
                    .copied()
                    .filter(|&c| upstream_nodes.iter().all(|&u| ctx.qos(u, c).is_some()))
                    .collect()
            } else {
                direct
            };
            if reachable.is_empty() {
                return Err(FederationError::NoFeasibleSelection);
            }
            let pick = reachable[rng.gen_range(0..reachable.len())];
            selection.insert(sid, pick);
        }
        drop(rng);
        FlowGraph::assemble(ctx, req, &selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{diamond_fixture, diamond_requirement, line_fixture};
    use sflow_net::ServiceId;
    use std::collections::HashSet;

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn is_reproducible_per_seed() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let a = RandomAlgorithm::with_seed(42).federate(&ctx, &req).unwrap();
        let b = RandomAlgorithm::with_seed(42).federate(&ctx, &req).unwrap();
        assert_eq!(a.selection(), b.selection());
        assert_eq!(RandomAlgorithm::with_seed(0).name(), "random");
    }

    #[test]
    fn explores_different_instances_across_draws() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let alg = RandomAlgorithm::with_seed(7);
        let mut seen = HashSet::new();
        for _ in 0..32 {
            if let Ok(flow) = alg.federate(&ctx, &req) {
                seen.insert(flow.selection().clone());
            }
        }
        assert!(seen.len() > 1, "random algorithm never varied its choice");
    }

    #[test]
    fn completes_a_simple_chain() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let flow = RandomAlgorithm::with_seed(3).federate(&ctx, &req).unwrap();
        assert_eq!(flow.selection().len(), 3);
    }

    #[test]
    fn missing_instances_error() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(9)]).unwrap();
        assert_eq!(
            RandomAlgorithm::with_seed(1)
                .federate(&ctx, &req)
                .unwrap_err(),
            FederationError::NoInstances(s(9))
        );
    }
}
