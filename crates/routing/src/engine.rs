//! The all-pairs routing *engine*: incremental maintenance of the
//! [`AllPairs`] shortest-widest table.
//!
//! The sequential [`all_pairs`](crate::all_pairs) sweep is one
//! shortest-widest tree per node; both the paper's baseline algorithm
//! (Table 1) and sFlow's per-hop local solves stand on its output, and a
//! long-lived federation server would re-derive it on every topology
//! mutation. This module derives a successor instead:
//! [`AllPairs::patched_with`] takes the table after a batch of
//! [`EdgeChange`]s by invalidating only the source trees that can actually
//! be affected; it shares every clean tree with its predecessor by `Arc`
//! pointer and leaves every invalidated slot *shadowed* (after a pure
//! bandwidth cut: the old tree still answers for the destinations the cut
//! did not move) or *stale*, to be swept on the first read that needs it —
//! the per-epoch cost is a plan, never a copy of the world, and a row is
//! routed only when a read needs it. A table carries the
//! [`QosCsr`](crate::QosCsr) of its graph, and the successor's is that one
//! reweighted ([`QosCsr::reweighted`](crate::QosCsr::reweighted): the
//! topology shared, `O(E)` with no sort), not a fresh derivation.
//!
//! A build and a stale slot's sweep both run the same non-generic
//! [`single_source_csr`](crate::shortest_widest::single_source_csr) over a
//! table's own CSR, on the caller's thread, so the kernel is compiled once,
//! in this crate: what a build and a sweep cost does not depend on which
//! downstream crate asked.
//!
//! # Dirty rules and why they are sound
//!
//! A tree is *kept* only if rerunning the kernel from its source on the
//! patched graph would reproduce everything the tree reports — every QoS
//! and every path, tie-breaks included, because a kept tree stands in for a
//! recomputed one. Write a changed edge as `e = u → v`, weight
//! `(bw₀, lat₀) → (bw₁, lat₁)`; the batch is first folded to one record per
//! edge (first `old`, the graph's weight as `new`, net no-ops dropped), so
//! `(bw₀, lat₀)` really is what the table was computed from.
//!
//! The exact algorithm works per bandwidth *level* `b`: a widest-path pass
//! fixes `B(s,·)`, and each distinct value `b` of it is a level whose
//! *pinned* nodes (`B(s,x) = b`) are priced by latency distance over the
//! edges with bandwidth `≥ b`. One descending sweep visits the levels
//! widest first, carrying labels and heap across them: a level admits the
//! edges between it and the level before, offers each from its tail's
//! standing label, propagates decrease-only and moves on when the last
//! node pinned there settles (see the module docs of
//! [`crate::shortest_widest`]). The tree stores, per node, the
//! `(label, predecessor)` entries that changed at a level; `d_b(x)` is
//! `x`'s newest entry from `b` or a wider level. Let `Λ_b` be the largest
//! latency recorded among the nodes pinned at `b` — where the sweep left
//! that level. A node with `d_b(x) ≤ Λ_b` was settled there (by this level
//! or one before it, nothing having beaten it since) and its label is
//! exact; anything else — no entry yet, or one beyond `Λ_b`, which is only
//! an upper bound still waiting on the heap — is known to lie at or
//! *beyond* `Λ_b` and nothing more, and no rule reads past that.
//!
//! **The invariant.** What every rule below preserves, for every tree the
//! table holds and every level `b` of it, is that the stored labels are as
//! good as the kernel's own: each pinned node's chain is intact and its
//! label is the latency the tree reports, and the labels capped at
//! `Λ_b` — `φ(x) = min(d_b(x), Λ_b)`, no label counting as `Λ_b` — are a
//! *feasible potential* of today's level graph, `φ(y) ≤ φ(x) + lat(x→y)`
//! over every edge of bandwidth `≥ b`. A feasible potential is a lower
//! bound on every distance, and a bound a real path attains is the
//! distance: that is the whole proof that a pinned node's answer stands.
//! Lower bounds alone are not enough — a label that has drifted *below* a
//! neighbour's reach makes a later gain into that node look like a loss —
//! and the unit test `kept_trees_keep_labels_the_certificate_can_stand_on`
//! checks the invariant from first principles after every patch of random
//! lineages.
//!
//! **Re-timed edges** (`lat₁ ≠ lat₀`, either way). A tree is dirty if *any*
//! label it settled came over `e`, read by a reported path or not — any
//! stored entry over `e` that is `≤ Λ_b` at some level `b` it stands for.
//! A stored label is a sum over the latencies of the day it was built, and
//! so is every label downstream of it: once `e` is re-timed they describe a
//! graph that is gone, while the true labels may have found, or never
//! needed, a detour — a slowed edge leaves the labels behind it
//! under-priced (a head that looks cheaper than it is turns a real gain
//! away), a sped-up one over-priced (a tail that looks dearer than it is
//! makes a real gain look like a loss). Either breaks the invariant, and
//! neither shows on a reported path, so such a tree is recomputed rather
//! than kept with a label that lies. (An entry beyond `Λ_b` at every level
//! it stands for reads "beyond `Λ_b`" whatever `e` costs: a slow-down only
//! moves it further out, and a speed-up that could bring it in has a
//! settled tail, which is the certificate's case below.) From here on
//! every settled label is one the kernel would compute today.
//!
//! **Gains — the certificate** (`PathTree::certifies`, for every record
//! with `bw₁ > bw₀` or `lat₁ < lat₀`). With
//! `reach = min(B(s,u), bw₁)`, the widest any path through `e` can be:
//!
//! 1. *Widest labels.* `reach ≤ B(s,v)` for every such edge. The old labels
//!    then still satisfy every edge, and each is still attained by its old
//!    path, so `B(s,·)` — hence the levels and who is pinned where — is
//!    unchanged.
//! 2. *Latency labels.* At every level `b ≤ reach` of the tree that `e`
//!    newly joins (`b > bw₀`) or got faster at (`lat₁ < lat₀`), the edge
//!    must keep the potential feasible: a tail with no label or
//!    `d_b(u) > Λ_b` contributes nothing (`φ(u) = Λ_b` bounds every `φ`);
//!    otherwise with `cand = d_b(u) + lat₁` the tree is dirty if
//!    `cand < d_b(v)` for a settled head, or `cand ≤ Λ_b` for an unsettled
//!    one. Above `reach` the edge is either absent (`b > bw₁`) or its tail
//!    has no label (`b > B(s,u)`).
//!
//! This is the classic edge-insertion test of dynamic shortest paths, per
//! level. Because every record is checked against the same *fixed* labels,
//! any number of simultaneous improvements is covered — if no new edge
//! violates the potential it is still feasible, and no chain of new edges
//! can beat it either. The rule and the kernel's early stop have to be read
//! together: `Λ_b` is exactly what the stop leaves known about the
//! unsettled.
//!
//! *Ties.* On `cand == d_b(v)` the QoS stands but the path may not: among
//! the tails that offer a node its final label the kernel keeps the one
//! that settles first. The tree stays clean only if the head is settled and
//! its recorded predecessor `x` has `d_b(x) < d_b(u)` — `x` settles
//! strictly first whatever else ties, the edge `x → v` has positive
//! latency, so `v`'s own place in the order stands too, and `u`'s equal
//! offer is refused exactly as before. Every other tie is dirty, including
//! the one place the rule is knowingly conservative: an unsettled head with
//! `cand == Λ_b`.
//!
//! **Bandwidth cuts** (`bw₁ < bw₀`) remove `e` from the levels in
//! `(bw₁, bw₀]` and leave the rest untouched, so the tree is dirty only if
//! a *reported* path crosses `e` at a level above `bw₁`
//! ([`PathTree::traverses_above`](crate::PathTree::traverses_above) with
//! `bw₁` as the edge's floor). Removing an edge drops a constraint, so the
//! potential stays feasible; if the edge sat under a label nobody reports,
//! that label is now the price of a chain the level no longer has, but
//! still a feasible bound — which is why such an edge must not be re-timed
//! under the tree afterwards, and is not: the entry still names it.
//!
//! *Asking the heads first.* A reported path at level `b` is rebuilt by
//! reading every node on it at `b`, so it steps into `v` over `e` exactly
//! when `v` is on it and `v`'s entry at `b` names `e`; and `v` is on a path
//! of level `b` only if `b ≤ B(s,v)` — every node of a path at least as
//! wide as it. The plan therefore collects one `(e, v, bw₁)` per cut record
//! (sorted by edge, which is also where the walk looks a floor up) and, per
//! tree, reads only the cut heads' chains. Each entry over the cut edge
//! standing at a level in `(bw₁, B(s,v)]` is a *crossing*: the head, the
//! levels the entry stands at from `v`'s own level on, and the floor. A
//! tree with no crossing is clean without a walk; one with a crossing at
//! `v`'s own level is dirty without one (`v`'s own path crosses the edge at
//! `B(s,v) > bw₁`); the rest are walked at only the crossings' levels,
//! from the nodes pinned there (a per-level index, counting sort), instead
//! of every level from every node. Each step only skips levels at which
//! the full walk cannot find the edge, and a walk is exact, so the dirty
//! set is the full walk's by construction — `tests/prop_engine.rs` holds
//! the plan's tree count to `traverses_above`'s on random lineages.
//!
//! A record that is several of these at once (narrower *and* faster, wider
//! *and* slower) is held to each rule it falls under; the steps compose in
//! any order because each is checked against the same frozen labels.
//!
//! **Stale slots.** A dirty tree is not recomputed by the patch: its slot
//! in the successor is left *stale* and swept by the first read, over the
//! successor's own CSR — the graph of the day, so what it reports is what
//! a recomputation would have. A slot that is stale already stays stale,
//! with no plan: the plan could not read chains it does not have, and it
//! does not need to. Every rule above only ever decides whether a tree
//! may be *kept* in place of a recomputation; a stale slot keeps nothing,
//! and a sweep from scratch on the graph it is read against is exactly
//! what a dirty verdict would have bought. So the invariant is carried by
//! every materialised tree — kept through any number of patches, or swept
//! at any point of the lineage — and needs no new argument. Each slot is
//! looked at once per patch, and a tree a concurrent reader materialises
//! after that look is not carried over: the successor's slot stays stale.
//!
//! **Shadowed slots.** After a *pure* bandwidth cut — a coalesced batch of
//! nothing but `bw₁ < bw₀, lat₁ = lat₀` records — a dirty tree is not
//! dropped: its slot is left *shadowed*, holding the tree and its
//! crossings. A destination is *moved* if its reported path crosses a cut
//! edge above the edge's floor; by the argument above, that is exactly when
//! the path, read at the destination's own level, passes through a
//! crossing's head at one of the crossing's levels, above its floor. The
//! table answers `qos` and `path` for every other destination from the
//! shadow's tree, testing the destination's path against the crossings on
//! each read (a few hops, a few crossings); a read of a moved destination,
//! or of the whole tree, sweeps the slot as a stale one is swept. The
//! moved set is kept as crossings rather than marked node by node because
//! the crossings cost the plan nothing beyond the verdict, where marking
//! takes a walk of every level a crossing covers, and the walk above stops
//! at the first crossed edge. An unmoved destination `x`, pinned at `b`,
//! keeps its answer, tie-breaks included:
//!
//! * *Its old path is still present.* It crosses no edge cut below `b`,
//!   and no latency moved, so it is still in the level graph of `b` with
//!   the QoS the tree reports.
//! * *No label falls.* A cut only takes edges out of level graphs, so no
//!   widest or latency label (zero-hops count included) can drop; the old
//!   path still attains the old labels, so `B(s,x) = b`, `x`'s latency and
//!   the label of every node on the path stand.
//! * *Every tail on that path keeps its label, so the settle order that
//!   breaks ties keeps the same predecessor.* A tail that offers a node on
//!   the path its label today offered the same label before (labels only
//!   rise, and the node's did not), so today's candidates are some of
//!   yesterday's at yesterday's labels; the recorded predecessor is still
//!   one of them, over the same, still earliest, link, and still settles
//!   first among them. A fresh sweep reads the same path at `b`.
//!
//! A later pure cut adds its own crossings to an existing shadow, found on
//! the shadow's own tree: an unmoved destination's path is that tree's, so
//! the three facts carry it across any number of cuts, and the crossings
//! are exact on it. A batch with any gain or re-timing turns
//! every shadow stale, as it does every tree it invalidates: the
//! certificate reads labels, and a shadow's are those of a graph that is
//! gone. So a shadow is never kept as a tree, certified, or counted by
//! `materialised()`, and the invariant above is still carried by the
//! materialised trees alone; `trees_recomputed` counts the materialised
//! trees a patch shadowed or left stale.
//!
//! All of this applies to exact trees only: an
//! [`all_pairs_lexicographic`](crate::shortest_widest::all_pairs_lexicographic)
//! table's one level is not a latency Dijkstra, and such tables are never
//! patched.
//!
//! A patch never adds or removes a node: a failed instance is a tombstone
//! whose links are cut, so the graph keeps the table's numbering, and a
//! graph of another size is a caller's bug the patch refuses. The property
//! tests in
//! `tests/prop_engine.rs` check patches — single batches, sequences of
//! batches, cut-then-restore pairs, lineages read only in part between
//! batches — against a from-scratch rebuild in QoS and path, that the
//! rules never dirty more trees than the coarse ones (any-traversal for
//! pure bandwidth cuts, reach-the-tail for the rest), that a pure cut
//! dirties exactly the trees the full walk finds, that a partly
//! stale table invalidates exactly its eagerly swept twin's dirty set
//! restricted to the slots it had materialised, and that a read sweeps a
//! row exactly when a cut moved the destination read, or a gain or
//! re-timing left the row stale.

use std::sync::Arc;

use sflow_graph::{DiGraph, EdgeIx, NodeIx};

use crate::shortest_widest::{AllPairs, Shadow, Slot, TraversalScratch};
use crate::{Bandwidth, Latency, Qos};

/// One edge whose QoS changed, described by before/after weights.
///
/// The graph handed to [`AllPairs::patched_with`] must already carry `new` on
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

    /// `true` if the edge's latency moved, either way: every label walked
    /// over it is no longer the label the kernel computed.
    pub(crate) fn is_retimed(&self) -> bool {
        self.new.latency != self.old.latency
    }

    /// For a bandwidth cut, the level at or below which it is invisible:
    /// the subgraphs of levels `≤ new.bandwidth` keep the edge.
    fn loss_floor(&self) -> Option<Bandwidth> {
        (self.new.bandwidth < self.old.bandwidth).then_some(self.new.bandwidth)
    }
}

/// What one [`AllPairs::patched_with`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Materialised trees this patch invalidated, each swept again on the
    /// first read of a destination it moved (after a gain or a re-timing,
    /// every destination counts as moved). The successor shares
    /// `materialised(pred) − trees_recomputed` trees with its predecessor.
    pub trees_recomputed: usize,
    /// Source trees in the table (== node count).
    pub trees_total: usize,
}

/// Folds a batch to one record per edge, sorted by edge: the first `old`
/// seen for it and the weight `g` carries now as `new`, net no-ops dropped.
fn coalesce<N>(g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> Vec<EdgeChange> {
    let mut folded: Vec<EdgeChange> = changes.to_vec();
    folded.sort_by_key(|c| c.edge); // stable: the first record's `old` leads
    folded.dedup_by_key(|c| c.edge);
    for c in &mut folded {
        c.new = *g.edge(c.edge);
    }
    folded.retain(|c| !c.is_noop());
    folded
}

impl AllPairs {
    /// Derives the table for a graph whose edge QoS changed, invalidating
    /// only the source trees the changes can affect (see the module docs
    /// for the dirty rules and why they are sound). `g` must already carry
    /// the new weights, on the nodes and edges the table was swept over.
    /// `_workers` is read by nothing: a patch sweeps nothing itself, and no
    /// table is built on a pool. It stays for the callers that pass it.
    ///
    /// Copy-on-write: `self` is an immutable predecessor and the result a
    /// *fresh* table. Every materialised tree the plan keeps is shared with
    /// the predecessor by `Arc` pointer. After a pure bandwidth cut every
    /// one it invalidates is shadowed in the successor, and every shadow
    /// the predecessor held stays one, taking on the cut's crossings on
    /// its tree; after any other batch they are all stale, and so is every
    /// slot that was stale already. A slot is swept on the first read
    /// that needs it, against the successor's CSR. Deriving the successor
    /// therefore costs the plan, one reweighting of the predecessor's
    /// [`QosCsr`](crate::QosCsr) and a refcount bump per kept tree or shadow, never a
    /// copy of the table, and no Dijkstra. Readers concurrently solving
    /// against the predecessor are never disturbed — this is the routing
    /// half of an epoch-published world, where the successor table is
    /// assembled entirely off-lock and swapped in with one pointer store.
    ///
    /// # Panics
    ///
    /// If `g` has another node count than the table: no mutation renumbers
    /// a graph (a failed instance is a tombstone), so a patch never needs
    /// a full build.
    pub fn patched_with<N>(
        &self,
        g: &DiGraph<N, Qos>,
        changes: &[EdgeChange],
        _workers: usize,
    ) -> (AllPairs, PatchStats) {
        let n = g.node_count();
        assert_eq!(
            n,
            self.trees.len(),
            "a patch keeps the table's numbering: the graph must have its node count"
        );
        let mut stats = PatchStats {
            trees_recomputed: 0,
            trees_total: n,
        };
        let changes = coalesce(g, changes);
        if changes.is_empty() {
            return (self.clone(), stats); // the graph is the one `self` was swept over
        }

        // The reweight reads every edge of `g`, which the caller has just
        // diffed: before the plan's walks move the cache on, not after.
        let csr = Arc::new(self.csr.reweighted(g));
        // Each slot is read once: a tree a concurrent reader sweeps after
        // this look is not one the plan saw, so it stays behind.
        let mut plan = Plan::new(g, &changes);
        let trees = self
            .trees
            .iter()
            .map(|slot| {
                let (next, invalidated) = plan.next(slot);
                stats.trees_recomputed += usize::from(invalidated);
                next
            })
            .collect();
        (AllPairs { trees, csr }, stats)
    }
}

/// The rules (and soundness argument) in the module docs, applied to one
/// coalesced batch slot by slot. The buffers they reuse across the slots
/// are allocated once per patch, not per tree.
struct Plan<'a, N> {
    g: &'a DiGraph<N, Qos>,
    changes: &'a [EdgeChange],
    /// One `(edge, head, floor)` per cut record, sorted by edge: the walk
    /// looks a floor up here, so no patch builds an edge-long array.
    cuts: Vec<(EdgeIx, NodeIx, Bandwidth)>,
    /// Anything but a pure bandwidth cut: the certificate's business, and
    /// the end of every shadow.
    label_side: bool,
    traversal: TraversalScratch,
    levels: Vec<(Bandwidth, Latency)>,
}

impl<'a, N> Plan<'a, N> {
    fn new(g: &'a DiGraph<N, Qos>, changes: &'a [EdgeChange]) -> Self {
        let cuts: Vec<(EdgeIx, NodeIx, Bandwidth)> = changes
            .iter()
            .filter_map(|c| Some((c.edge, g.edge_endpoints(c.edge).1, c.loss_floor()?)))
            .collect();
        Plan {
            g,
            changes,
            cuts,
            label_side: changes
                .iter()
                .any(|c| c.is_retimed() || c.new.bandwidth > c.old.bandwidth),
            traversal: TraversalScratch::new(),
            levels: Vec::new(),
        }
    }

    /// `slot`'s successor, and whether the patch invalidated the tree it
    /// held: a kept tree is shared by pointer, one a pure cut invalidated
    /// is shadowed with the cut's crossings, any other invalidated tree is
    /// stale. A shadow survives a pure cut, taking on the crossings the cut
    /// has on its tree, and nothing else.
    fn next(&mut self, slot: &Slot) -> (Slot, bool) {
        match (slot.tree.get(), &slot.shadow) {
            (Some(tree), _) if self.label_side => {
                let dirty = !tree.certifies(self.g, self.changes, &mut self.levels)
                    || tree.crosses_cuts(&self.cuts, &mut self.traversal);
                if dirty {
                    (Slot::default(), true)
                } else {
                    (Slot::holding(Arc::clone(tree)), false)
                }
            }
            (Some(tree), _) => {
                if !tree.crosses_cuts(&self.cuts, &mut self.traversal) {
                    return (Slot::holding(Arc::clone(tree)), false);
                }
                let shadow = Shadow {
                    tree: Arc::clone(tree),
                    crossings: Arc::from(self.traversal.crossings.as_slice()),
                };
                (Slot::shadowed(shadow), true)
            }
            (None, Some(shadow)) if !self.label_side => {
                let crossings = &mut self.traversal.crossings;
                shadow.tree.crossings(&self.cuts, crossings);
                if crossings.is_empty() {
                    return (Slot::shadowed(shadow.clone()), false);
                }
                crossings.extend_from_slice(&shadow.crossings);
                let next = Shadow {
                    tree: Arc::clone(&shadow.tree),
                    crossings: Arc::from(crossings.as_slice()),
                };
                (Slot::shadowed(next), false)
            }
            _ => (Slot::default(), false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_widest::{all_pairs, PathTree, SWEEP_SCRATCH};
    use crate::{Latency, Qos};
    use std::thread as threads;

    impl AllPairs {
        /// [`AllPairs::patched_with`] assigned in place.
        fn patch<N>(&mut self, g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> PatchStats {
            let (next, stats) = self.patched_with(g, changes, 1);
            *self = next;
            stats
        }
    }

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
                assert_eq!(a.path(u, v), b.path(u, v), "{u:?} -> {v:?}");
            }
        }
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
    fn a_cut_edge_named_only_below_its_floor_keeps_the_tree_clean() {
        // s pins v at 10 directly and u, w at 3; at level 3 the sweep finds
        // v cheaper through u, so s reports s→u→v→w — over u→v, at level 3.
        // Cutting u→v from 5 to 4 leaves it in level 3: v's chain names the
        // edge, but only at a level at or below the floor, so s stays clean.
        // u reports u→v at level 5, which the cut does remove.
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let s = g.add_node(());
        let u = g.add_node(());
        let v = g.add_node(());
        let w = g.add_node(());
        g.add_edge(s, v, q(10, 10));
        g.add_edge(s, u, q(3, 1));
        let cut = g.add_edge(u, v, q(5, 1));
        g.add_edge(v, w, q(3, 1));
        let mut ap = all_pairs(&g);
        assert_eq!(ap.path(s, w), Some(vec![s, u, v, w]));

        *g.edge_mut(cut) = q(4, 1);
        let mut floors = vec![Bandwidth::INFINITE; g.edge_count()];
        floors[cut.index()] = Bandwidth::kbps(4);
        let mut scratch = TraversalScratch::new();
        assert!(!ap.tree(s).traverses_above(&floors, &mut scratch));
        assert!(ap.tree(u).traverses_above(&floors, &mut scratch));
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: cut,
                old: q(5, 1),
                new: q(4, 1),
            }],
        );
        assert_eq!(stats.trees_recomputed, 1);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn improving_an_edge_dirties_only_the_trees_it_can_improve() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // n4→n3 goes (1, 9) → (50, 0); only n0 and n4 reach n4.
        // n4's own tree: reach = min(∞, 50) = 50 > B(n4,n3) = 1 — dirty.
        // n0's tree: reach = min(B(n0,n4), 50) = 2 ≤ B(n0,n3) = 10, so its
        // levels {10, 2} stand. The edge joins level 2 only (1 < 2 ≤ 2);
        // there the Dijkstra settled n1, n2, n3, n4 at 1, 2, 3, 5 µs
        // (Λ = 5, n4 the one node pinned), and the candidate
        // d₂(n4) + 0 = 5 µs loses to the artery's 3 µs at n3 — clean.
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
        assert_eq!(stats.trees_recomputed, 1);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn bandwidth_restore_skips_narrow_upstream_sources() {
        // Restoring b→c from 5 back to 10 cannot help a: its bottleneck to
        // b is 1, so every through-edge path is capped at 1 regardless, and
        // at a's one level (1) the edge is what it always was.
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
        // Wider but slower. Re-timed: n0 and n1 record labels through
        // n1→n2, nobody else reaches it. Gain side: reach is min(10, 20),
        // no wider than n2 already is, and the edge joins no level ≤ 10.
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
        assert_eq!(stats.trees_recomputed, 2);
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
            1,
        );
        assert_eq!(stats.trees_recomputed, 2);
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
            1,
        );
        // Every clean tree is the predecessor's Arc, not a copy; the two
        // the patch invalidated are stale until read.
        assert_eq!(before.materialised(), before.len());
        assert_eq!(
            before.shared_trees(&next),
            before.materialised() - stats.trees_recomputed
        );
        assert_eq!(next.materialised(), next.len() - 2);
        // A no-op patch shares every materialised tree and leaves the stale
        // slots stale.
        let (same, stats) = next.patched_with(&g, &[], 1);
        assert_eq!(stats.trees_recomputed, 0);
        assert_eq!(next.shared_trees(&same), next.materialised());
        assert_eq!(same.materialised(), next.materialised());
    }

    #[test]
    fn a_stale_slot_stays_stale_and_is_swept_against_its_own_table() {
        let (mut g, n, e) = world();
        let first = all_pairs(&g);
        *g.edge_mut(e[1]) = q(3, 4);
        let change = EdgeChange {
            edge: e[1],
            old: q(10, 1),
            new: q(3, 4),
        };
        let (second, stats) = first.patched_with(&g, &[change], 1);
        assert_eq!(stats.trees_recomputed, 2); // n0 and n1, both stale now
        let second_graph = g.clone();
        // A second patch plans only what is materialised: n0's and n1's
        // slots are dirty already and stay stale with no plan.
        *g.edge_mut(e[2]) = q(10, 9);
        let change = EdgeChange {
            edge: e[2],
            old: q(10, 1),
            new: q(10, 9),
        };
        let (third, stats) = second.patched_with(&g, &[change], 1);
        assert_eq!(stats.trees_recomputed, 1); // n2; n0 and n1 are not counted
        assert_eq!(third.materialised(), 2);
        assert_eq!(second.shared_trees(&third), 3 - 1);
        // Each table sweeps its stale slots against its own graph.
        assert_tables_equal(&second, &all_pairs(&second_graph), &second_graph);
        assert_tables_equal(&third, &all_pairs(&g), &g);
        assert_eq!(second.qos(n[0], n[3]), Some(q(3, 6)));
        assert_eq!(third.qos(n[0], n[3]), Some(q(3, 14)));
    }

    #[test]
    fn concurrent_first_readers_sweep_a_stale_slot_once() {
        let (mut g, n, e) = world();
        let before = all_pairs(&g);
        *g.edge_mut(e[0]) = q(4, 1);
        let change = EdgeChange {
            edge: e[0],
            old: q(10, 1),
            new: q(4, 1),
        };
        let (table, stats) = before.patched_with(&g, &[change], 1);
        assert!(stats.trees_recomputed > 0);
        assert!(
            table.trees[n[0].index()].tree.get().is_none(),
            "n0's slot is stale"
        );
        let gate = std::sync::Barrier::new(8);
        let (trees, swept): (Vec<&PathTree>, Vec<u64>) = threads::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        let tree = table.tree(n[0]);
                        // Each reader is a fresh thread with its own scratch:
                        // only the one that swept has done any work.
                        let work = SWEEP_SCRATCH.with_borrow(|s| s.label_updates());
                        (tree, work)
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).unzip()
        });
        let slot = table.trees[n[0].index()].tree.get().expect("swept");
        assert!(trees
            .iter()
            .all(|&tree| std::ptr::eq(tree, Arc::as_ptr(slot))));
        assert_eq!(swept.iter().filter(|&&w| w > 0).count(), 1, "{swept:?}");
        assert_tables_equal(&table, &all_pairs(&g), &g);
    }

    #[test]
    #[should_panic(expected = "a patch keeps the table's numbering")]
    fn a_graph_of_another_size_is_refused() {
        let (mut g, ..) = world();
        let ap = all_pairs(&g);
        let extra = g.add_node(());
        g.add_edge(extra, NodeIx::from_index(0), q(5, 5));
        let _ = ap.patched_with(&g, &[], 1);
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
    fn simultaneous_improvements_are_certified_against_the_same_labels() {
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
        // n0 (20 > B(n0,n4) = 2) and n4 (20 > B(n4,n3) = 1) widen; n1, n2
        // and n3 reach neither tail.
        assert_eq!(stats.trees_recomputed, 2);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn two_improvements_that_lose_everywhere_leave_upstream_clean() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        let old4 = *g.edge(e[4]);
        let old5 = *g.edge(e[5]);
        *g.edge_mut(e[4]) = q(2, 9); // widen n4→n3
        *g.edge_mut(e[5]) = q(2, 3); // widen the dead parallel n0→n1
        let stats = ap.patch(
            &g,
            &[
                EdgeChange {
                    edge: e[4],
                    old: old4,
                    new: q(2, 9),
                },
                EdgeChange {
                    edge: e[5],
                    old: old5,
                    new: q(2, 3),
                },
            ],
        );
        // Both join n0's level 2 and both lose there: 5 + 9 µs against
        // n3's 3 µs, 0 + 3 µs against n1's 1 µs. Only n4's own tree widens
        // (2 > 1); reaching the tails would have dirtied n0 as well.
        assert_eq!(stats.trees_recomputed, 1);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn a_cut_and_its_restore_in_one_batch_recompute_nothing() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        let full = *g.edge(e[1]);
        let stats = ap.patch(
            &g,
            &[
                EdgeChange {
                    edge: e[1],
                    old: full,
                    new: q(3, 1),
                },
                EdgeChange {
                    edge: e[1],
                    old: q(3, 1),
                    new: full,
                },
            ],
        );
        assert_eq!(stats.trees_recomputed, 0);
        // Two records for one edge fold to first `old` → the graph's weight.
        *g.edge_mut(e[1]) = q(4, 1);
        let folded = coalesce(
            &g,
            &[
                EdgeChange {
                    edge: e[1],
                    old: full,
                    new: q(3, 1),
                },
                EdgeChange {
                    edge: e[1],
                    old: q(3, 1),
                    new: q(4, 1),
                },
            ],
        );
        assert_eq!(
            folded,
            [EdgeChange {
                edge: e[1],
                old: full,
                new: q(4, 1),
            }]
        );
    }

    #[test]
    fn a_slow_down_under_an_unreported_label_dirties_the_tree() {
        // s reaches u at level 10 directly (5 µs) and, at level 5, faster
        // through a (2 µs) — a label no reported path reads, because u is
        // pinned at 10. Slowing a→u leaves every reported path alone, but
        // a later certificate would walk that label: kept, the tree would
        // price u→v from 101 µs instead of 5 and miss s→u→v at 8 µs.
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let s = g.add_node(());
        let a = g.add_node(());
        let u = g.add_node(());
        let v = g.add_node(());
        g.add_edge(s, a, q(5, 1));
        let slow = g.add_edge(a, u, q(5, 1));
        g.add_edge(s, u, q(10, 5));
        g.add_edge(s, v, q(5, 10));
        let gain = g.add_edge(u, v, q(5, 100));
        let mut ap = all_pairs(&g);

        *g.edge_mut(slow) = q(5, 100);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: slow,
                old: q(5, 1),
                new: q(5, 100),
            }],
        );
        assert_eq!(stats.trees_recomputed, 2); // s and a
        assert_tables_equal(&ap, &all_pairs(&g), &g);

        *g.edge_mut(gain) = q(5, 3);
        ap.patch(
            &g,
            &[EdgeChange {
                edge: gain,
                old: q(5, 100),
                new: q(5, 3),
            }],
        );
        assert_eq!(ap.qos(s, v), Some(q(5, 8)));
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn a_speed_up_under_an_unreported_label_dirties_the_tree() {
        // At level 3, s settles q at 2 µs through p→q — a label no reported
        // path reads, because q is pinned at 5 — and w, the one node pinned
        // at 3, directly at 2 µs (Λ = 2). Narrowing p→q to 2 and speeding
        // it up takes it out of level 3 without touching a reported path,
        // but q's recorded level-3 chain still runs over it: kept, the tree
        // would walk that chain to 0 µs, let the widened spare p→q (1 µs)
        // "lose" to it, and miss s→p→q→w at (3, 1).
        let mut g: DiGraph<(), Qos> = DiGraph::new();
        let s = g.add_node(());
        let p = g.add_node(());
        let q_ = g.add_node(());
        let w = g.add_node(());
        g.add_edge(s, p, q(4, 0));
        let chain = g.add_edge(p, q_, q(4, 2));
        g.add_edge(s, q_, q(5, 3));
        g.add_edge(s, w, q(3, 2));
        g.add_edge(q_, w, q(3, 0));
        let spare = g.add_edge(p, q_, q(1, 1));
        let mut ap = all_pairs(&g);
        assert_eq!(ap.qos(s, w), Some(q(3, 2)));

        *g.edge_mut(chain) = q(2, 0);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: chain,
                old: q(4, 2),
                new: q(2, 0),
            }],
        );
        // p reports p→q over the edge; s only records it, at level 3.
        assert_eq!(stats.trees_recomputed, 2);
        assert_tables_equal(&ap, &all_pairs(&g), &g);

        *g.edge_mut(spare) = q(3, 1);
        ap.patch(
            &g,
            &[EdgeChange {
                edge: spare,
                old: q(1, 1),
                new: q(3, 1),
            }],
        );
        assert_eq!(ap.qos(s, w), Some(q(3, 1)));
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    proptest::proptest! {
        /// The certificate's own premise, checked from first principles
        /// after every patch of a random lineage: whatever tree the table
        /// holds — fresh or kept through any number of batches — its walked
        /// labels are exact on pinned nodes and, capped at `Λ`, a feasible
        /// potential of the graph of the day. A rule that keeps a tree whose
        /// labels have gone stale fails here at the patch that staled them,
        /// not at the rare later gain that would read the stale label.
        ///
        /// Between batches only some rows are read (the two masks, ANDed:
        /// about a quarter), so later patches plan over tables whose slots
        /// are partly stale and whose kept trees were swept at different
        /// points of the lineage. Every materialised tree is checked after
        /// every patch, and every tree once all are forced at the end.
        #[test]
        fn kept_trees_keep_labels_the_certificate_can_stand_on(
            nodes in 3usize..8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0u64..6, 0u64..4), 1..24),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 1..3),
                    0u8..255,
                    0u8..255,
                ),
                1..9,
            ),
        ) {
            let mut g: DiGraph<(), Qos> = DiGraph::new();
            let ids: Vec<NodeIx> = (0..nodes).map(|_| g.add_node(())).collect();
            for (a, b, bw, lat) in edges {
                if a % nodes != b % nodes {
                    g.add_edge(ids[a % nodes], ids[b % nodes], q(bw, lat));
                }
            }
            if g.edge_count() == 0 {
                return Ok(());
            }
            let mut ap = all_pairs(&g);
            for (batch, reads, also) in batches {
                let changes: Vec<EdgeChange> = batch
                    .into_iter()
                    .map(|(raw, bw, lat)| {
                        let edge = EdgeIx::from_index(raw % g.edge_count());
                        let old = std::mem::replace(g.edge_mut(edge), q(bw, lat));
                        EdgeChange { edge, old, new: q(bw, lat) }
                    })
                    .collect();
                ap.patch(&g, &changes);
                for s in g.node_ids().filter(|s| ((reads & also) >> s.index()) & 1 == 1) {
                    ap.tree(s);
                }
                for (s, slot) in ap.trees.iter().enumerate() {
                    if let Some(tree) = slot.tree.get() {
                        proptest::prop_assert!(
                            tree.labels_are_a_feasible_potential(&g),
                            "tree of {s} after {changes:?}"
                        );
                    }
                }
            }
            for s in g.node_ids() {
                proptest::prop_assert!(ap.tree(s).labels_are_a_feasible_potential(&g));
            }
        }
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
        assert_eq!(c(q(5, 5), q(4, 4)).loss_floor(), Some(Bandwidth::kbps(4)));
        assert_eq!(c(q(5, 5), q(6, 5)).loss_floor(), None);
        assert_eq!(c(q(5, 5), q(5, 6)).loss_floor(), None);
        assert!(c(q(5, 5), q(4, 6)).is_retimed());
        assert!(c(q(5, 5), q(6, 4)).is_retimed());
        assert!(!c(q(5, 5), q(4, 5)).is_retimed());
    }
}
