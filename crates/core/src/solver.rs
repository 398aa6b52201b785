//! The sFlow solving engine: executes a reduction [`Plan`] over a federation
//! context, producing a complete instance selection.
//!
//! This is the *computation* every sFlow node performs; the `sflow-sim` and
//! `sflow-runtime` crates run it hop-by-hop inside `sfederate` message
//! handlers, while [`Solver::solve`] runs it in one place (which is also how
//! the paper's evaluation obtains the sFlow result to compare against the
//! global optimum).
//!
//! Plan pieces are solved as follows:
//!
//! * [`Plan::Chain`] — the baseline algorithm ([`ChainSolver`]), exact;
//! * [`Plan::Parallel`] — each disjoint path solved by the baseline, with the
//!   shared sink instance chosen jointly (best combined bottleneck, then
//!   slowest-branch latency);
//! * [`Plan::SplitMerge`] — the inner block is solved for every (split,
//!   merge) instance pair and collapsed into a virtual edge; the outer
//!   requirement is then solved against the virtual-edge table, and the inner
//!   block re-solved under the chosen endpoints;
//! * [`Plan::Cover`] — chains solved longest-first, each pinning its
//!   selections for the next (the divide-and-pin discipline of the
//!   distributed algorithm).

use std::collections::BTreeMap;
use std::sync::Arc;

use sflow_graph::NodeIx;
use sflow_net::ServiceId;
use sflow_routing::{Bandwidth, Latency, Qos};

use crate::baseline::{ChainSolution, ChainSolver, HopMatrix, VirtualEdges};
use crate::reduction::Plan;
use crate::{FederationContext, FederationError, FlowGraph, ServiceRequirement};

/// A selection being accumulated: required service → overlay instance node.
pub type Selection = BTreeMap<ServiceId, NodeIx>;

/// Executes reduction plans over a federation context.
#[derive(Debug)]
pub struct Solver<'a> {
    ctx: &'a FederationContext<'a>,
    hop: Option<(usize, Arc<HopMatrix>)>,
}

impl<'a> Solver<'a> {
    /// A solver with full overlay knowledge (no horizon).
    pub fn new(ctx: &'a FederationContext<'a>) -> Self {
        Solver { ctx, hop: None }
    }

    /// Restricts every hand-off to instances within `limit` overlay hops of
    /// the upstream instance — the distributed algorithm's local-view model
    /// (the paper assumes a two-hop vicinity).
    ///
    /// Convenience wrapper over [`Solver::with_hop_matrix`] that builds a
    /// fresh [`HopMatrix`] for this solver alone.
    pub fn with_hop_limit(self, limit: usize) -> Self {
        let matrix = Arc::new(HopMatrix::new(self.ctx.overlay()));
        self.with_hop_matrix(limit, matrix)
    }

    /// Like [`Solver::with_hop_limit`], but reusing a precomputed hop matrix
    /// (the distributed simulation solves at every node, and the federation
    /// server solves for every request; one matrix serves them all).
    pub fn with_hop_matrix(mut self, limit: usize, matrix: Arc<HopMatrix>) -> Self {
        self.hop = Some((limit, matrix));
        self
    }

    fn chain_solver<'s>(&'s self, pins: &'s Selection, virt: &'s VirtualEdges) -> ChainSolver<'s> {
        let mut cs = ChainSolver::new(self.ctx)
            .with_pins(pins)
            .with_virtual_edges(virt);
        if let Some((limit, ref matrix)) = self.hop {
            cs = cs.with_hop_limit(limit, matrix.as_ref());
        }
        cs
    }

    /// Solves `req` end to end: analyse, execute the plan, assemble.
    ///
    /// The requirement's source service is pinned to the context's source
    /// instance.
    ///
    /// # Errors
    ///
    /// Propagates [`FederationError`] from planning or assembly.
    pub fn solve(&self, req: &ServiceRequirement) -> Result<FlowGraph, FederationError> {
        self.solve_pinned(req, &Selection::new())
    }

    /// Like [`Solver::solve`], but with additional services pinned to
    /// specific instances (used by repair and by tests). The source pin from
    /// the context always applies.
    ///
    /// # Errors
    ///
    /// Propagates [`FederationError`] from planning or assembly.
    pub fn solve_pinned(
        &self,
        req: &ServiceRequirement,
        extra_pins: &Selection,
    ) -> Result<FlowGraph, FederationError> {
        let plan = Plan::analyze(req);
        let mut pinned: Selection = extra_pins.clone();
        pinned.insert(req.source(), self.ctx.source_instance());
        self.solve_plan(&plan, &mut pinned, &VirtualEdges::new())?;
        FlowGraph::assemble(self.ctx, req, &pinned)
    }

    /// Executes one plan node, extending `pinned` with its selections.
    ///
    /// # Errors
    ///
    /// Returns the first [`FederationError`] hit by any sub-plan.
    pub fn solve_plan(
        &self,
        plan: &Plan,
        pinned: &mut Selection,
        virt: &VirtualEdges,
    ) -> Result<(), FederationError> {
        match plan {
            Plan::Chain(chain) => {
                let sol = self.chain_solver(pinned, virt).solve(chain)?;
                pinned.extend(sol.selection);
                Ok(())
            }
            Plan::Cover { chains } => {
                for chain in chains {
                    let sol = self.chain_solver(pinned, virt).solve(chain)?;
                    pinned.extend(sol.selection);
                }
                Ok(())
            }
            Plan::Parallel { chains } => self.solve_parallel(chains, pinned, virt),
            Plan::SplitMerge {
                split,
                merge,
                inner_req,
                inner,
                outer,
                ..
            } => self.solve_split_merge(*split, *merge, inner_req, inner, outer, pinned, virt),
        }
    }

    /// Joint solve for disjoint parallel chains sharing source and sink: try
    /// every sink instance, solve each chain under it, keep the candidate
    /// with the best (bottleneck bandwidth, slowest-branch latency).
    fn solve_parallel(
        &self,
        chains: &[Vec<ServiceId>],
        pinned: &mut Selection,
        virt: &VirtualEdges,
    ) -> Result<(), FederationError> {
        let last = *chains[0].last().expect("chains are non-empty");
        let sink_cands: Vec<NodeIx> = match pinned.get(&last) {
            Some(&n) => vec![n],
            None => {
                let c = self.ctx.overlay().instances_of(last);
                if c.is_empty() {
                    return Err(FederationError::NoInstances(last));
                }
                c.to_vec()
            }
        };
        let mut best: Option<(NodeIx, Vec<ChainSolution>, Qos)> = None;
        for &t in &sink_cands {
            let mut pins2 = pinned.clone();
            pins2.insert(last, t);
            let mut sols = Vec::with_capacity(chains.len());
            let mut feasible = true;
            let mut bw = Bandwidth::INFINITE;
            let mut lat = Latency::ZERO;
            for chain in chains {
                match self.chain_solver(&pins2, virt).solve(chain) {
                    Ok(sol) => {
                        bw = bw.bottleneck(sol.qos.bandwidth);
                        lat = lat.max(sol.qos.latency);
                        // Chains are disjoint except at the endpoints, so the
                        // selections cannot conflict; still, pin as we go so
                        // any service shared in degenerate inputs stays
                        // consistent.
                        pins2.extend(sol.selection.clone());
                        sols.push(sol);
                    }
                    Err(_) => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            let combined = Qos::new(bw, lat);
            if best
                .as_ref()
                .is_none_or(|(_, _, q)| combined.is_better_than(q))
            {
                best = Some((t, sols, combined));
            }
        }
        let Some((t, sols, _)) = best else {
            return Err(FederationError::NoFeasibleSelection);
        };
        pinned.insert(last, t);
        for sol in sols {
            pinned.extend(sol.selection);
        }
        Ok(())
    }

    /// Split-and-merge reduction: collapse the solved inner block into a
    /// virtual edge, solve the outer requirement against it, then re-solve
    /// the block under the endpoints the outer solution picked.
    #[expect(clippy::too_many_arguments)]
    fn solve_split_merge(
        &self,
        split: ServiceId,
        merge: ServiceId,
        inner_req: &ServiceRequirement,
        inner: &Plan,
        outer: &Plan,
        pinned: &mut Selection,
        virt: &VirtualEdges,
    ) -> Result<(), FederationError> {
        let cands = |sid: ServiceId| -> Result<Vec<NodeIx>, FederationError> {
            match pinned.get(&sid) {
                Some(&n) => Ok(vec![n]),
                None => {
                    let c = self.ctx.overlay().instances_of(sid);
                    if c.is_empty() {
                        Err(FederationError::NoInstances(sid))
                    } else {
                        Ok(c.to_vec())
                    }
                }
            }
        };
        let splits = cands(split)?;
        let merges = cands(merge)?;

        let mut table = std::collections::HashMap::new();
        for &a in &splits {
            for &b in &merges {
                let mut pins2 = pinned.clone();
                pins2.insert(split, a);
                pins2.insert(merge, b);
                if self.solve_plan(inner, &mut pins2, virt).is_err() {
                    continue;
                }
                let Ok(flow) = FlowGraph::assemble(self.ctx, inner_req, &pins2) else {
                    continue;
                };
                table.insert((a, b), Qos::new(flow.bandwidth(), flow.latency()));
            }
        }
        if table.is_empty() {
            return Err(FederationError::NoFeasibleSelection);
        }
        let mut virt2 = virt.clone();
        virt2.entry((split, merge)).or_default().extend(table);

        // Outer solve fixes the block endpoints…
        self.solve_plan(outer, pinned, &virt2)?;
        debug_assert!(pinned.contains_key(&split) && pinned.contains_key(&merge));
        // …then the block itself is re-solved under those endpoints.
        self.solve_plan(inner, pinned, virt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{diamond_fixture, diamond_requirement, line_fixture, random_fixture};
    use sflow_net::ServiceId;

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn solves_a_path_requirement() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let flow = Solver::new(&ctx).solve(&req).unwrap();
        assert_eq!(flow.bandwidth(), Bandwidth::kbps(6));
        assert_eq!(flow.latency(), Latency::from_micros(3));
    }

    #[test]
    fn solves_the_diamond_requirement() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let flow = Solver::new(&ctx).solve(&diamond_requirement()).unwrap();
        // The wide "north" instances (h1, h2) must win over the narrow south.
        assert_eq!(flow.bandwidth(), Bandwidth::kbps(80));
        let hosts: Vec<u32> = flow.instances().values().map(|i| i.host.as_u32()).collect();
        assert!(hosts.contains(&1) && hosts.contains(&2), "hosts: {hosts:?}");
    }

    #[test]
    fn hop_limited_solver_still_succeeds_on_dense_overlay() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let flow = Solver::new(&ctx)
            .with_hop_limit(2)
            .solve(&diamond_requirement())
            .unwrap();
        assert_eq!(flow.bandwidth(), Bandwidth::kbps(80));
    }

    #[test]
    fn split_merge_plan_executes_end_to_end() {
        // Fig. 8(a) requirement over a random world with instances for all
        // seven services.
        let services: Vec<ServiceId> = (0..7).map(ServiceId::new).collect();
        let req = ServiceRequirement::from_edges([
            (s(0), s(1)),
            (s(1), s(2)),
            (s(1), s(3)),
            (s(2), s(4)),
            (s(3), s(4)),
            (s(4), s(5)),
            (s(0), s(6)),
            (s(6), s(5)),
        ])
        .unwrap();
        let fx = random_fixture(20, &services, 3, None, 77);
        let ctx = fx.context();
        let flow = Solver::new(&ctx).solve(&req).unwrap();
        assert_eq!(flow.selection().len(), 7);
        assert!(flow.bandwidth() > Bandwidth::ZERO);
    }

    #[test]
    fn cover_fallback_handles_interleaved_dags() {
        let services: Vec<ServiceId> = (0..6).map(ServiceId::new).collect();
        let req = ServiceRequirement::from_edges([
            (s(0), s(1)),
            (s(0), s(2)),
            (s(1), s(3)),
            (s(1), s(4)),
            (s(2), s(4)),
            (s(2), s(3)),
            (s(3), s(5)),
            (s(4), s(5)),
        ])
        .unwrap();
        let fx = random_fixture(25, &services, 2, None, 5);
        let ctx = fx.context();
        let flow = Solver::new(&ctx).solve(&req).unwrap();
        assert_eq!(flow.selection().len(), 6);
    }

    #[test]
    fn source_is_always_the_pinned_instance() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let flow = Solver::new(&ctx).solve(&diamond_requirement()).unwrap();
        assert_eq!(flow.instance_for(s(0)), Some(fx.source));
    }
}
