//! The all-pairs routing *engine*: parallel construction and incremental
//! maintenance of the [`AllPairs`] shortest-widest table.
//!
//! The sequential [`all_pairs`](crate::all_pairs) sweep is
//! `O(V · L · E log V)`; both the paper's baseline algorithm (Table 1) and
//! sFlow's per-hop local solves stand on its output, and a long-lived
//! federation server re-derives it on every topology mutation. This module
//! attacks that cost twice:
//!
//! * [`all_pairs_parallel_with`] derives one [`QosCsr`] for the graph and
//!   fans the per-source [`single_source_csr`] calls across a
//!   `std::thread::scope` worker pool (sized by [`auto_workers`], i.e. a
//!   cached `available_parallelism`, when asked for `0` workers), with one
//!   reusable [`DijkstraScratch`] per worker so the inner Dijkstras stop
//!   allocating per bandwidth level. Sources are claimed off an atomic
//!   counter — work-stealing granularity of one tree — so skewed per-source
//!   costs (hub nodes see more levels) still balance. Because workers read
//!   only the CSR, the node payload `N` needs no `Sync` bound.
//! * [`AllPairs::patched_with`] derives a *successor* table after a batch
//!   of [`EdgeChange`]s by recomputing only the source trees that can
//!   actually be affected; it shares every clean tree with its predecessor
//!   by `Arc` pointer — the per-epoch cost is proportional to the dirty
//!   set, never a copy of the world. [`AllPairs::patch`] is the same thing
//!   assigned in place.
//!
//! Both funnel into one non-generic `compute_trees` over [`QosCsr`], so the
//! kernel and its fan-out are compiled once, in this crate: what a build
//! and a patch cost does not depend on which downstream crate asked.
//!
//! # Dirty rules and why they are sound
//!
//! Write the changed edge as `e = u → v`, weight `(bw₀, lat₀) → (bw₁, lat₁)`.
//! Three facts anchor every rule below. (i) A simple path *to* `u` never
//! contains `e` (it would have to leave `u` first), so per-source bandwidth
//! and latency *to the tail* are identical before and after the change.
//! (ii) The exact algorithm works per bandwidth level `b`: the subgraph of
//! edges with bandwidth ≥ `b`. (iii) Paths that avoid `e` keep their exact
//! QoS.
//!
//! **Degradations** (`bw₁ ≤ bw₀`, `lat₁ ≥ lat₀`) can only *remove or worsen*
//! paths through `e`, so a tree none of whose recorded paths traverses `e`
//! is clean. The rule is sharpened per level by
//! [`PathTree::traverses_above`]: a pure bandwidth cut (`lat₁ = lat₀`)
//! leaves every level `b ≤ bw₁` subgraph — and hence every recorded path
//! whose bottleneck is ≤ `bw₁` — completely untouched, so the traversal
//! only dirties at levels *above* `bw₁`. A latency degradation worsens `e`
//! at every surviving level, so its floor is zero (any traversal dirties).
//!
//! **Non-degradations** (bandwidth up, latency down, or mixed) can also
//! *create* better paths, but only for sources that reach `u`; for a batch
//! with at most one non-degradation change the engine applies three gain
//! gates per source tree, with `reach = min(B(s,u), bw₁)` (the widest any
//! through-`e` path can be, unchanged-by-(i)):
//!
//! - **bandwidth gain** — `reach > B(s,v)`: a through-`e` path can widen
//!   the table entry at `v` (and possibly beyond);
//! - **latency gain** — `lat₁ < lat₀` and `reach > 0`: every through-`e`
//!   path got faster, and at its levels `e` may now undercut paths that
//!   previously won;
//! - **membership gain** — `bw₁ > bw₀` and `reach > bw₀`: `e` joins level
//!   subgraphs in `(bw₀, bw₁]` where it did not exist, opening paths at
//!   levels the source can actually use.
//!
//! If no gate fires, every through-`e` path at some level `b` satisfies
//! `b ≤ bw₀` (no membership gain) and `lat₁ ≥ lat₀` (no latency gain), so
//! the *same* path already existed in the old graph at level `b` with
//! latency no worse — the old optimum already dominates it, and the tree is
//! clean on the gain side. The loss side of a *mixed* change is handled by
//! the degradation traversal rule with the same floors. A batch with two or
//! more non-degradation changes falls back to the coarser (but still sound)
//! reach-the-tail rule: any path through `u → v` must first arrive at `u`,
//! so a reverse reachability sweep from `u` bounds the dirty set.
//!
//! Structural changes (node add/remove, i.e. a table/graph size mismatch)
//! fall back to a full parallel rebuild. The property tests in
//! `tests/prop_engine.rs` check a patch against a from-scratch rebuild on
//! random graphs and random mutations, and that the tightened rules never
//! dirty more trees than the coarse ones.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

use sflow_graph::{DiGraph, EdgeIx, NodeIx};

use crate::shortest_widest::{
    single_source_csr, AllPairs, DijkstraScratch, PathTree, QosCsr, TraversalScratch,
};
use crate::{Bandwidth, Qos};

/// One edge whose QoS changed, described by before/after weights.
///
/// The graph handed to [`AllPairs::patch`] must already carry `new` on
/// `edge`; `old` is what the table being patched was computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeChange {
    /// The edge whose weight changed.
    pub edge: EdgeIx,
    /// The weight the current table was computed against.
    pub old: Qos,
    /// The weight now on the graph.
    pub new: Qos,
}

impl EdgeChange {
    /// `true` if nothing actually changed.
    pub fn is_noop(&self) -> bool {
        self.old == self.new
    }

    /// `true` if the change is a pure degradation: bandwidth no higher and
    /// latency no lower. Anything else (including mixed changes) must be
    /// treated as a potential improvement.
    pub fn is_degradation(&self) -> bool {
        self.new.bandwidth <= self.old.bandwidth && self.new.latency >= self.old.latency
    }

    /// The bandwidth level at or below which this change is invisible to
    /// recorded paths traversing the edge, or `None` if the change has no
    /// loss side at all (nothing got worse for anyone already using it).
    ///
    /// A latency increase worsens the edge at every level it survives in
    /// (floor zero); a pure bandwidth cut leaves levels `≤ new.bandwidth`
    /// untouched (floor `new.bandwidth`).
    fn loss_floor(&self) -> Option<Bandwidth> {
        if self.new.latency > self.old.latency {
            Some(Bandwidth::ZERO)
        } else if self.new.bandwidth < self.old.bandwidth {
            Some(self.new.bandwidth)
        } else {
            None
        }
    }
}

/// What one [`AllPairs::patch`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Source trees recomputed by this patch.
    pub trees_recomputed: usize,
    /// Source trees in the table (== node count).
    pub trees_total: usize,
    /// `true` if the patch degenerated to a full rebuild (structural
    /// change).
    pub full_rebuild: bool,
}

/// The endpoint set of a patch's changed edges — the invalidation hook for
/// callers that cache *path-shaped artifacts* derived from link QoS (the
/// server's per-snapshot solve cache of federated flow graphs being the
/// motivating one).
///
/// When a successor table is derived with [`AllPairs::patched_with`], any
/// cached artifact whose recorded paths avoid every changed link is still
/// exact in the successor epoch (fact (iii) of the dirty rules above: paths
/// that avoid a changed edge keep their exact QoS), so it can be adopted
/// wholesale; an artifact traversing a changed link must be dropped. This
/// is deliberately coarser than the per-tree loss floors / gain gates —
/// a flow graph records concrete hops, not a per-level frontier, so plain
/// traversal is the right rule.
///
/// No-op changes are filtered out; endpoints are sorted for binary-search
/// membership tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirtyLinks {
    pairs: Vec<(NodeIx, NodeIx)>,
}

impl DirtyLinks {
    /// Collects the `(from, to)` endpoints of every effective change.
    pub fn of<N>(g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> Self {
        let mut pairs: Vec<(NodeIx, NodeIx)> = changes
            .iter()
            .filter(|c| !c.is_noop())
            .map(|c| g.edge_endpoints(c.edge))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        DirtyLinks { pairs }
    }

    /// `true` if no link actually changed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// `true` if the directed link `from → to` changed.
    pub fn touches(&self, from: NodeIx, to: NodeIx) -> bool {
        self.pairs.binary_search(&(from, to)).is_ok()
    }

    /// `true` if the node path (consecutive overlay hops) avoids every
    /// changed link — the condition under which a cached artifact recorded
    /// along `path` survives into the successor epoch unchanged.
    pub fn path_is_clean(&self, path: &[NodeIx]) -> bool {
        self.pairs.is_empty() || path.windows(2).all(|w| !self.touches(w[0], w[1]))
    }
}

/// The number of routing workers `available_parallelism` suggests (≥ 1).
///
/// The lookup is a syscall on most platforms; the answer is cached in a
/// `OnceLock` so per-patch callers pay it exactly once per process.
pub fn auto_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// [`all_pairs`](crate::all_pairs) computed on a scoped worker pool (`0`
/// workers means [`auto_workers`]; the pool never exceeds the number of
/// sources, and one worker sweeps inline on the caller's thread). Results
/// are identical to the sequential sweep.
pub fn all_pairs_parallel_with<N>(g: &DiGraph<N, Qos>, workers: usize) -> AllPairs {
    let n = g.node_count();
    let csr = QosCsr::new(g);
    let sources: Vec<NodeIx> = g.node_ids().collect();
    let mut trees: Vec<Option<Arc<PathTree>>> = Vec::with_capacity(n);
    trees.resize_with(n, || None);
    compute_trees(&csr, &sources, effective_workers(workers, n), &mut trees);
    AllPairs {
        trees: trees
            .into_iter()
            .map(|t| t.expect("every source index is claimed exactly once")) // audit:allow(no-unwrap): disjoint claim invariant
            .collect(),
    }
}

/// Clamps a requested worker count to something sensible for `tasks`.
fn effective_workers(workers: usize, tasks: usize) -> usize {
    let workers = if workers == 0 {
        auto_workers()
    } else {
        workers
    };
    workers.min(tasks).max(1)
}

/// Computes one tree per listed source into `out[source.index()]`, fanning
/// the sources over `workers` scoped threads (atomic work stealing, one
/// scratch per worker). `workers` must already be clamped; with 1 worker
/// the sweep runs inline on the caller's thread. All workers read the same
/// [`QosCsr`], so no graph payload bounds are needed. Deliberately not
/// generic and not `#[inline]`: every build and patch in the workspace runs
/// this one compiled copy.
fn compute_trees(
    csr: &QosCsr,
    sources: &[NodeIx],
    workers: usize,
    out: &mut [Option<Arc<PathTree>>],
) {
    if workers <= 1 {
        let mut scratch = DijkstraScratch::new();
        for &s in sources {
            out[s.index()] = Some(Arc::new(single_source_csr(csr, s, &mut scratch)));
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let computed: Vec<Vec<(usize, Arc<PathTree>)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = DijkstraScratch::new();
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&s) = sources.get(i) else { break };
                        mine.push((s.index(), Arc::new(single_source_csr(csr, s, &mut scratch))));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("routing worker panicked")) // audit:allow(no-unwrap): worker panic is fatal by design
            .collect()
    });
    for batch in computed {
        for (i, tree) in batch {
            out[i] = Some(tree);
        }
    }
}

/// Buffers reused across every change of a patch batch and every tree the
/// dirty planner inspects — one allocation set per patch, not per change
/// (the old code allocated a bitmap + queue per [`EdgeChange`] and a stamp
/// vector per tree per traversal test).
#[derive(Debug, Default)]
struct PatchScratch {
    seen: Vec<bool>,
    queue: VecDeque<NodeIx>,
    traversal: TraversalScratch,
    floors: Vec<Bandwidth>,
}

/// Marks every node that can reach `tail` in `g` over usable (non-zero
/// bandwidth) links, `tail` included, via a reverse BFS using the
/// caller-provided `seen`/`queue` buffers.
fn mark_sources_reaching<N>(
    g: &DiGraph<N, Qos>,
    tail: NodeIx,
    dirty: &mut [bool],
    seen: &mut Vec<bool>,
    queue: &mut VecDeque<NodeIx>,
) {
    seen.clear();
    seen.resize(g.node_count(), false);
    queue.clear();
    seen[tail.index()] = true;
    dirty[tail.index()] = true;
    queue.push_back(tail);
    while let Some(v) = queue.pop_front() {
        for &eid in g.in_edge_ids(v) {
            let (from, _, weight) = g.edge_parts(eid);
            if weight.bandwidth == Bandwidth::ZERO || seen[from.index()] {
                continue;
            }
            seen[from.index()] = true;
            dirty[from.index()] = true;
            queue.push_back(from);
        }
    }
}

impl AllPairs {
    /// Derives the table for a graph whose edge QoS changed, recomputing
    /// only the source trees the changes can affect (see the module docs
    /// for the dirty rules and why they are sound). `g` must already carry
    /// the new weights; `workers` sizes the recomputation (`0` = auto).
    ///
    /// Copy-on-write: `self` is an immutable predecessor and the result a
    /// *fresh* table. Every clean tree is shared with the predecessor by
    /// `Arc` pointer — deriving the successor costs one refcount bump per
    /// clean tree plus a Dijkstra per dirty one, never a copy of the table.
    /// Readers concurrently solving against the predecessor are never
    /// disturbed — this is the routing half of an epoch-published world,
    /// where the successor table is assembled entirely off-lock and swapped
    /// in with one pointer store.
    ///
    /// Falls back to a full parallel rebuild when the table and graph
    /// disagree on node count (nodes were added or removed).
    pub fn patched_with<N>(
        &self,
        g: &DiGraph<N, Qos>,
        changes: &[EdgeChange],
        workers: usize,
    ) -> (AllPairs, PatchStats) {
        let n = g.node_count();
        if n != self.trees.len() {
            let next = all_pairs_parallel_with(g, workers);
            return (
                next,
                PatchStats {
                    trees_recomputed: n,
                    trees_total: n,
                    full_rebuild: true,
                },
            );
        }

        let mut scratch = PatchScratch::default();
        let dirty = self.plan_dirty(g, changes, &mut scratch);
        let sources: Vec<NodeIx> = (0..n)
            .filter(|&i| dirty[i])
            .map(NodeIx::from_index)
            .collect();
        if sources.is_empty() {
            return (
                AllPairs {
                    trees: self.trees.clone(), // Arc bumps only
                },
                PatchStats {
                    trees_recomputed: 0,
                    trees_total: n,
                    full_rebuild: false,
                },
            );
        }

        let csr = QosCsr::new(g);
        let workers = effective_workers(workers, sources.len());
        let mut fresh: Vec<Option<Arc<PathTree>>> = Vec::with_capacity(n);
        fresh.resize_with(n, || None);
        compute_trees(&csr, &sources, workers, &mut fresh);
        let trees = self
            .trees
            .iter()
            .zip(fresh)
            .map(|(old, new)| new.unwrap_or_else(|| Arc::clone(old)))
            .collect();
        (
            AllPairs { trees },
            PatchStats {
                trees_recomputed: sources.len(),
                trees_total: n,
                full_rebuild: false,
            },
        )
    }

    /// [`AllPairs::patched_with`] assigned in place with [`auto_workers`] —
    /// the form for callers that own the table (tests, benches).
    pub fn patch<N>(&mut self, g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> PatchStats {
        let (next, stats) = self.patched_with(g, changes, 0);
        *self = next;
        stats
    }

    /// Decides which source trees `changes` can affect, per the rules (and
    /// soundness argument) in the module docs.
    fn plan_dirty<N>(
        &self,
        g: &DiGraph<N, Qos>,
        changes: &[EdgeChange],
        scratch: &mut PatchScratch,
    ) -> Vec<bool> {
        let n = g.node_count();
        let mut dirty = vec![false; n];
        // The gain gates are proven sound for at most one non-degradation
        // change per batch (interactions between two newly-opened edges are
        // not covered by the single-change argument); larger batches use
        // the coarser reach-the-tail rule for their non-degradations.
        let use_gates = changes
            .iter()
            .filter(|c| !c.is_noop() && !c.is_degradation())
            .count()
            <= 1;

        scratch.floors.clear();
        scratch.floors.resize(g.edge_count(), Bandwidth::INFINITE);
        let mut any_floor = false;
        for change in changes.iter().filter(|c| !c.is_noop()) {
            if change.is_degradation() || use_gates {
                // Loss side (a pure degradation, or the degraded half of
                // the single mixed change): dirty only the trees that
                // traverse the edge above the change's loss floor.
                if let Some(floor) = change.loss_floor() {
                    let slot = &mut scratch.floors[change.edge.index()];
                    *slot = (*slot).min(floor);
                    any_floor = true;
                }
            } else {
                let (tail, _, _) = g.edge_parts(change.edge);
                mark_sources_reaching(g, tail, &mut dirty, &mut scratch.seen, &mut scratch.queue);
            }
        }

        if use_gates {
            if let Some(change) = changes.iter().find(|c| !c.is_noop() && !c.is_degradation()) {
                let (tail, head, _) = g.edge_parts(change.edge);
                let latency_gain = change.new.latency < change.old.latency;
                let wider_edge = change.new.bandwidth > change.old.bandwidth;
                for (i, tree) in self.trees.iter().enumerate() {
                    if dirty[i] {
                        continue;
                    }
                    // Reachability to the tail never depends on the changed
                    // edge itself (no simple path to `u` contains `u → v`),
                    // so the predecessor tree answers exactly.
                    let Some(to_tail) = tree.qos_to(tail) else {
                        continue;
                    };
                    let reach = to_tail.bandwidth.bottleneck(change.new.bandwidth);
                    if reach == Bandwidth::ZERO {
                        continue;
                    }
                    let head_bw = tree.qos_to(head).map(|q| q.bandwidth);
                    let gain_bw = head_bw.is_none_or(|b| reach > b);
                    let gain_membership = wider_edge && reach > change.old.bandwidth;
                    if gain_bw || latency_gain || gain_membership {
                        dirty[i] = true;
                    }
                }
            }
        }

        if any_floor {
            for (i, tree) in self.trees.iter().enumerate() {
                if !dirty[i] && tree.traverses_above(&scratch.floors, &mut scratch.traversal) {
                    dirty[i] = true;
                }
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_widest::all_pairs;
    use crate::{Latency, Qos};

    fn q(bw: u64, lat: u64) -> Qos {
        Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
    }

    /// A 5-node world with an unused backup edge and a clear main artery.
    fn world() -> (DiGraph<(), Qos>, Vec<NodeIx>, Vec<EdgeIx>) {
        let mut g = DiGraph::new();
        let n: Vec<NodeIx> = (0..5).map(|_| g.add_node(())).collect();
        let e = vec![
            g.add_edge(n[0], n[1], q(10, 1)), // artery
            g.add_edge(n[1], n[2], q(10, 1)),
            g.add_edge(n[2], n[3], q(10, 1)),
            g.add_edge(n[0], n[4], q(2, 5)), // spur to a leaf
            g.add_edge(n[4], n[3], q(1, 9)), // narrow backup
            g.add_edge(n[0], n[1], q(1, 0)), // dead parallel: loses on bw
        ];
        (g, n, e)
    }

    fn assert_tables_equal(a: &AllPairs, b: &AllPairs, g: &DiGraph<(), Qos>) {
        for u in g.node_ids() {
            for v in g.node_ids() {
                assert_eq!(a.qos(u, v), b.qos(u, v), "{u:?} -> {v:?}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (g, ..) = world();
        for workers in [0, 1, 2, 7, 64] {
            let par = all_pairs_parallel_with(&g, workers);
            assert_tables_equal(&par, &all_pairs(&g), &g);
        }
    }

    #[test]
    fn parallel_handles_empty_graph() {
        let g: DiGraph<(), Qos> = DiGraph::new();
        assert!(all_pairs_parallel_with(&g, 0).is_empty());
        assert!(all_pairs_parallel_with(&g, 8).is_empty());
    }

    #[test]
    fn auto_workers_is_cached_and_positive() {
        assert!(auto_workers() >= 1);
        assert_eq!(auto_workers(), auto_workers());
    }

    #[test]
    fn noop_change_recomputes_nothing() {
        let (g, _, e) = world();
        let mut ap = all_pairs(&g);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e[0],
                old: q(10, 1),
                new: q(10, 1),
            }],
        );
        assert_eq!(stats.trees_recomputed, 0);
        assert!(!stats.full_rebuild);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn degrading_an_unused_edge_touches_no_tree() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // The dead parallel n0→n1 loses on bandwidth everywhere: it is on
        // nobody's shortest-widest path.
        let old = *g.edge(e[5]);
        *g.edge_mut(e[5]) = q(1, 50);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e[5],
                old,
                new: q(1, 50),
            }],
        );
        assert_eq!(stats.trees_recomputed, 0);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn degrading_the_artery_dirties_only_trees_crossing_it() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // n1→n2 is used by the trees rooted at n0 and n1 only.
        let old = *g.edge(e[1]);
        *g.edge_mut(e[1]) = q(3, 4);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e[1],
                old,
                new: q(3, 4),
            }],
        );
        assert_eq!(stats.trees_recomputed, 2);
        assert!(stats.trees_recomputed < stats.trees_total);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn bandwidth_cut_keeps_narrower_paths_clean() {
        // a reaches c through b with bottleneck 3; cutting b→c from 10 to 5
        // is invisible at level 3, so only b's own tree is dirty.
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, q(3, 1));
        let e = g.add_edge(b, c, q(10, 1));
        let mut ap = all_pairs(&g);
        *g.edge_mut(e) = q(5, 1);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e,
                old: q(10, 1),
                new: q(5, 1),
            }],
        );
        assert_eq!(stats.trees_recomputed, 1);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn improving_an_edge_dirties_sources_reaching_its_tail() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // Improving n4→n3 can only help sources that reach n4: n0 and n4.
        let old = *g.edge(e[4]);
        *g.edge_mut(e[4]) = q(50, 0);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e[4],
                old,
                new: q(50, 0),
            }],
        );
        assert_eq!(stats.trees_recomputed, 2);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn bandwidth_restore_skips_narrow_upstream_sources() {
        // Restoring b→c from 5 back to 10 cannot help a: its bottleneck to
        // b is 1, so every through-edge path is capped at 1 regardless.
        // The old reach-the-tail rule recomputed a's tree anyway.
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, q(1, 1));
        let e = g.add_edge(b, c, q(5, 1));
        let mut ap = all_pairs(&g);
        *g.edge_mut(e) = q(10, 1);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e,
                old: q(5, 1),
                new: q(10, 1),
            }],
        );
        assert_eq!(stats.trees_recomputed, 1); // b only
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn mixed_change_is_treated_as_improvement() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // Wider but slower: gain gates plus loss-side traversal.
        let old = *g.edge(e[1]);
        *g.edge_mut(e[1]) = q(20, 9);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: e[1],
                old,
                new: q(20, 9),
            }],
        );
        assert!(stats.trees_recomputed >= 2);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn patched_produces_a_fresh_table_and_preserves_the_predecessor() {
        let (mut g, n, e) = world();
        let before = all_pairs(&g);
        let old = *g.edge(e[1]);
        *g.edge_mut(e[1]) = q(3, 4);
        let (next, stats) = before.patched_with(
            &g,
            &[EdgeChange {
                edge: e[1],
                old,
                new: q(3, 4),
            }],
            0,
        );
        assert_eq!(stats.trees_recomputed, 2);
        assert!(!stats.full_rebuild);
        // The successor matches a from-scratch rebuild of the new graph…
        assert_tables_equal(&next, &all_pairs(&g), &g);
        // …while the predecessor still answers with the pre-change QoS.
        assert_eq!(before.qos(n[0], n[3]), Some(q(10, 3)));
        assert_eq!(next.qos(n[0], n[3]), Some(q(3, 6)));
    }

    #[test]
    fn patched_shares_clean_trees_by_pointer() {
        let (mut g, _, e) = world();
        let before = all_pairs(&g);
        let old = *g.edge(e[1]);
        *g.edge_mut(e[1]) = q(3, 4);
        let (next, stats) = before.patched_with(
            &g,
            &[EdgeChange {
                edge: e[1],
                old,
                new: q(3, 4),
            }],
            0,
        );
        // Every clean tree is the predecessor's Arc, not a copy.
        assert_eq!(
            before.shared_trees(&next),
            stats.trees_total - stats.trees_recomputed
        );
        // A no-op patch shares everything.
        let (same, stats) = next.patched_with(&g, &[], 0);
        assert_eq!(stats.trees_recomputed, 0);
        assert_eq!(next.shared_trees(&same), next.len());
    }

    #[test]
    fn structural_mismatch_forces_full_rebuild() {
        let (mut g, ..) = world();
        let mut ap = all_pairs(&g);
        let extra = g.add_node(());
        g.add_edge(extra, NodeIx::from_index(0), q(5, 5));
        let stats = ap.patch(&g, &[]);
        assert!(stats.full_rebuild);
        assert_eq!(stats.trees_recomputed, g.node_count());
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn batched_changes_union_their_dirty_sets() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        let old1 = *g.edge(e[2]);
        let old4 = *g.edge(e[4]);
        *g.edge_mut(e[2]) = q(10, 7); // degrade n2→n3
        *g.edge_mut(e[4]) = q(9, 1); // improve n4→n3
        let stats = ap.patch(
            &g,
            &[
                EdgeChange {
                    edge: e[2],
                    old: old1,
                    new: q(10, 7),
                },
                EdgeChange {
                    edge: e[4],
                    old: old4,
                    new: q(9, 1),
                },
            ],
        );
        assert!(stats.trees_recomputed < stats.trees_total);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn many_improvements_fall_back_to_reach_tail() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        let old3 = *g.edge(e[3]);
        let old4 = *g.edge(e[4]);
        *g.edge_mut(e[3]) = q(20, 1); // improve n0→n4
        *g.edge_mut(e[4]) = q(20, 1); // improve n4→n3
        let stats = ap.patch(
            &g,
            &[
                EdgeChange {
                    edge: e[3],
                    old: old3,
                    new: q(20, 1),
                },
                EdgeChange {
                    edge: e[4],
                    old: old4,
                    new: q(20, 1),
                },
            ],
        );
        assert!(!stats.full_rebuild);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn edge_change_classification() {
        let c = |old, new| EdgeChange {
            edge: EdgeIx::from_index(0),
            old,
            new,
        };
        assert!(c(q(5, 5), q(5, 5)).is_noop());
        assert!(c(q(5, 5), q(4, 6)).is_degradation());
        assert!(c(q(5, 5), q(5, 6)).is_degradation());
        assert!(!c(q(5, 5), q(6, 4)).is_degradation());
        assert!(!c(q(5, 5), q(6, 6)).is_degradation()); // mixed
        assert_eq!(c(q(5, 5), q(4, 5)).loss_floor(), Some(Bandwidth::kbps(4)));
        assert_eq!(c(q(5, 5), q(4, 6)).loss_floor(), Some(Bandwidth::ZERO));
        assert_eq!(c(q(5, 5), q(6, 5)).loss_floor(), None);
        assert_eq!(c(q(5, 5), q(6, 4)).loss_floor(), None);
    }
}
