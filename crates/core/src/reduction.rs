//! Requirement reduction strategies (Sec. 3.4 of the paper).
//!
//! The baseline algorithm is only optimal for single-path requirements, so
//! general DAG requirements are *reduced* towards paths:
//!
//! * **Path reduction** (Sec. 3.4.1, Fig. 8): a requirement whose
//!   intermediates all have in-degree = out-degree = 1 is a bundle of
//!   disjoint source→sink paths; each is solved independently.
//! * **Split-and-merge reduction** (Sec. 3.4.2): an isolated sub-topology
//!   between a splitting service and a merging service is solved on its own
//!   and replaced by a single (virtual) edge.
//!
//! [`Plan::analyze`] applies these recursively, producing a tree of solvable
//! pieces; requirements that resist both reductions ("these reduction
//!   strategies are best-effort heuristics") fall back to a
//! [`Plan::Cover`]: the set of all source→sink chains, solved longest-first
//! with instance pinning — the same divide-and-pin discipline the distributed
//! algorithm applies hop by hop.

use std::collections::HashSet;

use sflow_graph::algo;
use sflow_net::ServiceId;

use crate::{RequirementShape, ServiceRequirement};

/// Cap on the number of chains enumerated for a [`Plan::Cover`]; requirement
/// DAGs are small (the paper's have ≤ ~10 services), so this is generous.
pub const MAX_COVER_CHAINS: usize = 128;

/// A recursive solving plan for a requirement.
// Plans are built a handful of times per solve and never stored in bulk,
// so the size skew of `SplitMerge` is irrelevant; boxing its fields would
// only complicate every consumer's pattern match.
#[expect(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Plan {
    /// The requirement is a single chain — solve with the baseline algorithm.
    Chain(Vec<ServiceId>),
    /// Disjoint source→sink paths (path reduction): solve each chain with the
    /// shared endpoints selected jointly.
    Parallel {
        /// The parallel chains; all share first and last element.
        chains: Vec<Vec<ServiceId>>,
    },
    /// An isolated split…merge block: solve `inner` for every (split, merge)
    /// instance pair, collapse to a virtual edge, then solve `outer`.
    SplitMerge {
        /// The splitting service.
        split: ServiceId,
        /// The merging service.
        merge: ServiceId,
        /// The requirement induced by the block (source `split`, sink `merge`).
        inner_req: ServiceRequirement,
        /// Plan for the block.
        inner: Box<Plan>,
        /// The outer requirement with the block replaced by `split → merge`.
        outer_req: ServiceRequirement,
        /// Plan for the outer requirement.
        outer: Box<Plan>,
    },
    /// Fallback: cover the DAG with all its source→sink chains, solved
    /// longest-first with pinning.
    Cover {
        /// The covering chains, sorted by decreasing length.
        chains: Vec<Vec<ServiceId>>,
    },
}

impl Plan {
    /// Builds the reduction plan for `req`.
    pub fn analyze(req: &ServiceRequirement) -> Plan {
        if let Some(chain) = as_chain(req) {
            return Plan::Chain(chain);
        }
        if let Some(chains) = disjoint_paths(req) {
            return Plan::Parallel { chains };
        }
        if let Some(sm) = find_split_merge(req) {
            let inner = Box::new(Plan::analyze(&sm.inner));
            let outer = Box::new(Plan::analyze(&sm.outer));
            return Plan::SplitMerge {
                split: sm.split,
                merge: sm.merge,
                inner_req: sm.inner,
                inner,
                outer_req: sm.outer,
                outer,
            };
        }
        Plan::Cover {
            chains: chain_cover(req),
        }
    }

    /// A short human-readable description of the plan's shape, e.g.
    /// `"split-merge(s1..s4; inner: parallel×2, outer: chain)"`.
    pub fn describe(&self) -> String {
        match self {
            Plan::Chain(c) => format!("chain×{}", c.len()),
            Plan::Parallel { chains } => format!("parallel×{}", chains.len()),
            Plan::SplitMerge {
                split,
                merge,
                inner,
                outer,
                ..
            } => format!(
                "split-merge({split}..{merge}; inner: {}, outer: {})",
                inner.describe(),
                outer.describe()
            ),
            Plan::Cover { chains } => format!("cover×{}", chains.len()),
        }
    }
}

/// Returns the chain of services if `req` is a single path.
pub fn as_chain(req: &ServiceRequirement) -> Option<Vec<ServiceId>> {
    if req.shape() == RequirementShape::Path {
        Some(req.topo_order())
    } else {
        None
    }
}

/// Path reduction: if `req` is a bundle of source→sink paths that are
/// disjoint except for the shared source and sink, returns those paths.
pub fn disjoint_paths(req: &ServiceRequirement) -> Option<Vec<Vec<ServiceId>>> {
    if req.shape() != RequirementShape::DisjointPaths {
        return None;
    }
    let g = req.graph();
    let src = req.node_of(req.source())?;
    let sink = req.node_of(req.sinks()[0])?;
    let paths = algo::all_simple_paths(g, src, sink, MAX_COVER_CHAINS);
    Some(
        paths
            .into_iter()
            .map(|p| p.into_iter().map(|n| *g.node(n)).collect())
            .collect(),
    )
}

/// An isolated split…merge block found by [`find_split_merge`].
#[derive(Clone, Debug)]
pub struct SplitMergeBlock {
    /// The splitting service.
    pub split: ServiceId,
    /// The merging service.
    pub merge: ServiceId,
    /// The block as a requirement (source `split`, sink `merge`).
    pub inner: ServiceRequirement,
    /// The outer requirement with the block collapsed to `split → merge`.
    pub outer: ServiceRequirement,
}

/// Finds an isolated split-and-merge block (Sec. 3.4.2): a splitting service
/// `u` (out-degree ≥ 2) and a merging service `w` (in-degree ≥ 2) such that
/// the region strictly between them touches nothing else — every region
/// node's upstreams lie in the region or `u`, and its downstreams in the
/// region or `w`. The block must be a *proper* subgraph (collapsing it must
/// shrink the requirement), and the outer remainder must stay a valid
/// requirement.
///
/// Splits are scanned in *reverse* topological order and merges in forward
/// order, so the innermost (tightest) block of nested diamonds is found
/// first — recursion then peels blocks inside-out, as the paper's Fig. 8
/// walkthrough does. Deterministic.
pub fn find_split_merge(req: &ServiceRequirement) -> Option<SplitMergeBlock> {
    let g = req.graph();
    let order = req.topo_order();
    for &u_sid in order.iter().rev() {
        let u = req.node_of(u_sid)?;
        if g.out_degree(u) < 2 {
            continue;
        }
        let desc = algo::descendants(g, u);
        for &w_sid in &order {
            if w_sid == u_sid {
                continue;
            }
            let w = req.node_of(w_sid)?;
            if g.in_degree(w) < 2 || !desc.contains(&w) {
                continue;
            }
            let anc = algo::ancestors(g, w);
            let region: HashSet<_> = desc
                .intersection(&anc)
                .copied()
                .filter(|&n| n != u && n != w)
                .collect();
            if region.is_empty() {
                continue;
            }
            // Properness: collapsing must remove at least one service, and
            // the block must not swallow the whole requirement.
            if region.len() + 2 >= req.len() {
                continue;
            }
            let isolated = region.iter().all(|&x| {
                g.predecessors(x).all(|p| p == u || region.contains(&p))
                    && g.successors(x).all(|s| s == w || region.contains(&s))
            });
            if !isolated {
                continue;
            }

            // Build the inner requirement: induced over {u} ∪ region ∪ {w}.
            let mut keep = region.clone();
            keep.insert(u);
            keep.insert(w);
            let mut inner_b = ServiceRequirement::builder();
            for (a, b) in req.edges() {
                let (na, nb) = (req.node_of(a)?, req.node_of(b)?);
                if keep.contains(&na) && keep.contains(&nb) {
                    inner_b.edge(a, b);
                }
            }
            let Ok(inner) = inner_b.build() else { continue };

            // Build the outer requirement: drop region services, add u → w.
            let mut outer_b = ServiceRequirement::builder();
            for (a, b) in req.edges() {
                let (na, nb) = (req.node_of(a)?, req.node_of(b)?);
                if !region.contains(&na) && !region.contains(&nb) {
                    outer_b.edge(a, b);
                }
            }
            outer_b.edge(u_sid, w_sid);
            let Ok(outer) = outer_b.build() else { continue };

            return Some(SplitMergeBlock {
                split: u_sid,
                merge: w_sid,
                inner,
                outer,
            });
        }
    }
    None
}

/// Covers the requirement with all of its source→sink chains, sorted by
/// decreasing length (then lexicographically for determinism). Every
/// requirement edge lies on at least one such chain, so solving all chains
/// covers the whole DAG.
pub fn chain_cover(req: &ServiceRequirement) -> Vec<Vec<ServiceId>> {
    let g = req.graph();
    let src = req
        .node_of(req.source())
        .expect("source is part of the requirement");
    let mut chains: Vec<Vec<ServiceId>> = Vec::new();
    for sink in req.sinks() {
        let sink_n = req.node_of(sink).expect("sink is part of the requirement");
        for p in algo::all_simple_paths(g, src, sink_n, MAX_COVER_CHAINS) {
            chains.push(p.into_iter().map(|n| *g.node(n)).collect());
        }
    }
    chains.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    chains.truncate(MAX_COVER_CHAINS);
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::diamond_requirement;

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn chain_plan_for_path() {
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let plan = Plan::analyze(&req);
        assert!(matches!(plan, Plan::Chain(ref c) if c == &vec![s(0), s(1), s(2)]));
        assert_eq!(plan.describe(), "chain×3");
        assert_eq!(as_chain(&req), Some(vec![s(0), s(1), s(2)]));
    }

    #[test]
    fn parallel_plan_for_disjoint_paths() {
        // Fig. 3 shape: 0 → {1, 2, (3→4)} → 5.
        let req = ServiceRequirement::from_edges([
            (s(0), s(1)),
            (s(1), s(5)),
            (s(0), s(2)),
            (s(2), s(5)),
            (s(0), s(3)),
            (s(3), s(4)),
            (s(4), s(5)),
        ])
        .unwrap();
        let plan = Plan::analyze(&req);
        let Plan::Parallel { chains } = plan else {
            panic!("expected parallel plan");
        };
        assert_eq!(chains.len(), 3);
        for c in &chains {
            assert_eq!(c[0], s(0));
            assert_eq!(*c.last().unwrap(), s(5));
        }
    }

    #[test]
    fn diamond_is_a_cover_not_a_block() {
        // The plain diamond has an *improper* block (region+endpoints == all),
        // so it falls back to a 2-chain cover.
        let req = diamond_requirement();
        assert!(find_split_merge(&req).is_none());
        let plan = Plan::analyze(&req);
        // The diamond is also a disjoint-paths bundle (intermediates have
        // in = out = 1), which path reduction handles first.
        assert!(matches!(plan, Plan::Parallel { .. }));
    }

    #[test]
    fn split_merge_found_in_fig8_requirement() {
        // Fig. 8(a): 0 → 1 → {2, 3} → 4 → 5, plus a disjoint chain 0 → 6 → 5.
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
        let block = find_split_merge(&req).expect("diamond between 1 and 4 is isolated");
        assert_eq!(block.split, s(1));
        assert_eq!(block.merge, s(4));
        assert_eq!(block.inner.len(), 4); // {1, 2, 3, 4}
        assert_eq!(block.inner.source(), s(1));
        assert_eq!(block.inner.sinks(), vec![s(4)]);
        // Outer: 0 → 1 → 4 → 5 and 0 → 6 → 5.
        assert_eq!(block.outer.len(), 5);
        assert!(block.outer.contains(s(6)));
        assert!(!block.outer.contains(s(2)));
        let plan = Plan::analyze(&req);
        assert!(matches!(plan, Plan::SplitMerge { .. }));
        assert!(plan.describe().starts_with("split-merge(s1..s4"));
    }

    #[test]
    fn interleaved_dag_falls_back_to_cover() {
        // Fig. 5 shape: 0 → {1, 2}, 1 → 3, 1 → 4, 2 → 4, 3 → 5, 4 → 5
        // with a crossing edge 2 → 3 making the block non-isolated.
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
        let plan = Plan::analyze(&req);
        let Plan::Cover { chains } = plan else {
            panic!("expected cover fallback, got {}", plan.describe());
        };
        // Chains: 0-1-3-5, 0-1-4-5, 0-2-3-5, 0-2-4-5.
        assert_eq!(chains.len(), 4);
        assert!(chains.iter().all(|c| c.len() == 4));
        // Every requirement edge is covered by some chain.
        for (a, b) in req.edges() {
            assert!(
                chains
                    .iter()
                    .any(|c| c.windows(2).any(|w| w[0] == a && w[1] == b)),
                "edge {a}→{b} uncovered"
            );
        }
    }

    #[test]
    fn multi_sink_tree_gets_cover() {
        let req =
            ServiceRequirement::from_edges([(s(0), s(1)), (s(0), s(2)), (s(1), s(3))]).unwrap();
        let chains = chain_cover(&req);
        // Chains to each sink: 0-2 and 0-1-3, longest first.
        assert_eq!(chains, vec![vec![s(0), s(1), s(3)], vec![s(0), s(2)]]);
    }

    #[test]
    fn cover_is_sorted_longest_first_then_lexicographic() {
        let req = diamond_requirement();
        let chains = chain_cover(&req);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0], vec![s(0), s(1), s(3)]);
        assert_eq!(chains[1], vec![s(0), s(2), s(3)]);
    }
}
