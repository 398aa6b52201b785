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
//! pointer and leaves every invalidated slot *shadowed* (after a
//! degradation: the old tree still answers for the destinations it did not
//! move) or *stale*, to be swept on the first read that needs it. Each
//! tree is judged by the net change since it was swept, not by the batch
//! alone, so a batch that undoes earlier cuts hands back the trees and
//! shadows it returns to —
//! the per-epoch cost is a plan, never a copy of the world, and a row is
//! routed only when a read needs it. A table carries the
//! [`QosCsr`](crate::QosCsr) of its graph, and the successor's is that one
//! reweighted from the batch's change list
//! ([`QosCsr::reweighted`](crate::QosCsr::reweighted): the topology
//! shared, the bandwidths copied and only the changed slots written),
//! not a fresh derivation and not a read of the graph.
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
//! `(bw₀, lat₀) → (bw₁, lat₁)`; a batch is first folded to one record per
//! edge (first `old`, the graph's weight as `new`, net no-ops dropped).
//!
//! The exact algorithm works per bandwidth *level* `b`: a widest-path pass
//! fixes `B(s,·)`, and each distinct value `b` of it is a level whose
//! *pinned* nodes (`B(s,x) = b`) are priced by latency distance over the
//! edges with bandwidth `≥ b`. One descending sweep visits the levels
//! widest first, carrying labels and heap across them (see the module docs
//! of [`crate::shortest_widest`]). The tree stores, per node, the
//! predecessor entries that changed at a level, and a path reported at
//! level `b` is read through each node's newest entry from `b` or a wider
//! level.
//!
//! **The invariant.** A tree is the kernel's output on its *sweep graph*,
//! the graph it was swept on, bit for bit: a patch never edits a tree, it
//! only decides whether the tree still answers on the table's graph. So a
//! tree, or a shadow's, is judged by its *net change* — the coalesced
//! change from its sweep graph to the table's graph (see *Net change since
//! the sweep*) — under two rules.
//!
//! **Degradations** (every record has `bw₁ ≤ bw₀` and `lat₁ ≥ lat₀`). A
//! narrowing takes `e` out of the levels in `(bw₁, bw₀]` and leaves the
//! others as they were; a slow-down prices `e` dearer at every level. So
//! each record gets a *floor*: `bw₁` for a narrowing, zero for a slow-down.
//! A destination is *moved* if its reported path crosses a degraded edge at
//! a level above the edge's floor
//! ([`PathTree::traverses_above`](crate::PathTree::traverses_above) with
//! those floors), and a tree that moves none is held. An unmoved
//! destination `x`, pinned at `b`, keeps its answer, tie-breaks included:
//!
//! * *Its old path is still present.* It crosses no edge narrowed below `b`
//!   and no slowed edge, so it is still in the level graph of `b` with the
//!   QoS the tree reports.
//! * *No label falls.* A degradation only takes edges out of level graphs
//!   and prices them dearer, so no widest or latency label (zero-hops count
//!   included) can drop; the old path still attains the old labels, so
//!   `B(s,x) = b`, `x`'s latency and the label of every node on the path
//!   stand.
//! * *Every tail on that path keeps its label, so the settle order that
//!   breaks ties keeps the same predecessor.* A tail that offers a node on
//!   the path its label today offered the same label before (labels and
//!   link latencies only rise, and the node's label did not), so today's
//!   candidates are some of yesterday's at yesterday's labels; the recorded
//!   predecessor is still one of them, over the same, still earliest,
//!   link, and still settles first among them. A fresh sweep reads the same
//!   path at `b`.
//!
//! *Asking the heads first.* A reported path at level `b` is rebuilt by
//! reading every node on it at `b`, so it steps into `v` over `e` exactly
//! when `v` is on it and `v`'s entry at `b` names `e`; and `v` is on a path
//! of level `b` only if `b ≤ B(s,v)` — every node of a path at least as
//! wide as it. The plan therefore collects one `(e, v, floor)` per degraded
//! record (sorted by edge, which is also where the walk looks a floor up)
//! and, per tree, reads only the degraded heads' chains. Each entry over
//! the edge standing at a level in `(floor, B(s,v)]` is a *crossing*: the
//! head, the levels the entry stands at from `v`'s own level on, and the
//! floor. A tree with no crossing is held without a walk; one with a
//! crossing at `v`'s own level is dirty without one (`v`'s own path crosses
//! the edge at `B(s,v)`, above the floor); the rest are walked at only the
//! crossings' levels, from the nodes pinned there (a per-level index,
//! counting sort), instead of every level from every node. Each step only
//! skips levels at which the full walk cannot find the edge, and a walk is
//! exact, so the dirty set is the full walk's by construction —
//! `tests/prop_engine.rs` holds the plan's tree count to
//! `traverses_above`'s on random lineages.
//!
//! **Gains** (any other net change: some record wider or faster, mixed
//! ones included). If the tree's source reaches the tail of a gained edge
//! in the table's graph, over edges of positive bandwidth, the tree is
//! stale. If it does not, it does not reach one in the table's graph with
//! the gains put back at their sweep weights either — the two graphs
//! differ only in edges out of nodes it does not reach — and the kernel
//! only ever offers the edges out of nodes it has labelled, so its tree
//! from that source is the same on both. That graph is the sweep graph
//! after the net change's degradations alone, and the tree is judged by
//! them, as above. The reach is one reverse pass from the gained tails,
//! once per distinct net change, built by the first tree judged by it.
//!
//! **Net change since the sweep.** The one tree a patch judges per slot —
//! its materialised tree, or else its shadow's — carries `since`: the
//! coalesced change list from its sweep graph to the table's graph, one
//! record per edge, an edge back at its sweep-time weight dropped. A patch
//! folds its batch into it (once per distinct list: trees swept together
//! share one), giving the tree's `net` change, and judges the tree:
//!
//! 1. *`net` is empty.* The table's graph is the tree's sweep graph: the
//!    tree is held, with no walk, and a shadow becomes its tree again.
//! 2. *The batch is a degradation.* A materialised tree is walked on the
//!    batch alone, and a shadow takes on the batch's crossings on its
//!    tree. Both stand on what every verdict here keeps true of every tree
//!    a table holds: the paths it reports (a shadow, to its unmoved
//!    destinations) are the kernel's on the table's graph. The argument
//!    above then holds for the kernel's tree on the graph before the batch,
//!    and a walk reads reported paths only. It is `net`'s verdict too, at
//!    the cost of the batch: the lineage model in `tests/prop_engine.rs`
//!    predicts every row from `net` alone. So the batch walk and a
//!    shadow's accumulated crossings are cost rules, not soundness ones:
//!    verdict 3 alone would decide the same, walking all of `net` where
//!    they walk the batch. They stay because that costs more: on
//!    `bench_e2e`'s `zipf-mix`, whose lineages are long, judging every
//!    tree by `net` alone cut throughput by ~17 % (EXPERIMENTS.md, "One
//!    tree per slot").
//! 3. *Anything else* is judged by `net` alone, by the two rules: a tree
//!    or a shadow is held, shadowed with the crossings of `net`'s
//!    degradations (a shadow's replace those it had accumulated: some of
//!    those cuts may be undone) or left stale.
//!
//! `since` is never reset, in particular not when a tree is kept: a kept
//! tree is the same `Arc`, the kernel's output on its sweep graph only,
//! and verdicts 1 and 3 stand on exactly that. A tree swept on read — in
//! full, or by a cut-short sweep that reached the last level — is swept on
//! its table's own graph, so its `since` is empty. A successor shares
//! `materialised(pred) − trees_recomputed` trees with its predecessor and
//! holds `trees_restored` more: the shadows it turned back into trees.
//!
//! **Stale slots.** A set-up table starts stale: [`AllPairs::lazy`] derives
//! the CSR and sweeps no row, so a table built for a server (through
//! `OverlayGraph::all_pairs`) materialises only the rows its reads need,
//! and a patch judges only those. A dirty tree is not recomputed by the
//! patch either: its slot
//! in the successor is left *stale* and swept by the first read, over the
//! successor's own CSR — the graph of the day, so what it reports is what
//! a recomputation would have. A slot that is stale already stays stale,
//! with no plan: a stale slot keeps nothing, and a sweep from scratch on
//! the graph it is read against is exactly what a dirty verdict would have
//! bought. Each slot is looked at once per patch, and a tree a concurrent
//! reader materialises after that look is not carried over: the
//! successor's slot stays stale.
//!
//! **Shadowed slots.** A tree the walk of a degradation dirties is not
//! dropped: its slot is left *shadowed*, holding the tree and its
//! crossings. The table answers `qos` and `path` for every unmoved
//! destination from the shadow's tree — by the three facts above, and the
//! gains' argument, the kernel's answer — testing the destination's path
//! against the crossings on each read (a few hops, a few crossings); a
//! read of the whole tree sweeps the slot as a stale one is swept, and a
//! read of a moved destination sweeps it cut short (below). The moved set
//! is kept as crossings rather than marked node by node because the
//! crossings cost the plan nothing beyond the verdict, where marking takes
//! a walk of every level a crossing covers, and the walk above stops at
//! the first crossed edge. A later degradation adds its own crossings to
//! an existing shadow, found on the shadow's own tree: an unmoved
//! destination's path is that tree's, so the three facts carry it across
//! any number of degradations, and the crossings are exact on it.
//!
//! *Cut-short sweeps.* The first read of a moved destination sweeps the
//! row over the successor's CSR only until every moved destination has
//! settled, and the slot keeps that tree beside the shadow to answer its
//! moved destinations; the shadow still answers the rest. Two steps make
//! what it settled exact:
//!
//! * *The level sweep stopped early is the full sweep's prefix.* Given the
//!   same per-node bandwidths, the sweep's admissions, offers and pops
//!   depend on nothing else, so a sweep that stops right after the last
//!   moved destination settles has performed the full sweep's operations,
//!   in the full sweep's order, up to that pop. A node's label and
//!   predecessor at a level are final once it pops there: pops come in
//!   label order and a label strictly grows along every link, so a later
//!   pop offers it only a larger label, and the tie rule moves a
//!   predecessor only to a tail that settles first, which has popped
//!   already. A settled node's path at its level is read through nodes
//!   with smaller labels, which popped before it there (or at a wider
//!   level, unchanged since), so its QoS, level and path are the full
//!   tree's. If the last moved destination is pinned at the last level,
//!   the sweep finishes that level: then it is the full tree, and the slot
//!   holds it as its tree.
//! * *The widest pass stops early too.* The level sweep needs every
//!   node's `B(s,x)`: the levels, and who is pinned at each, fix its
//!   operations. By *no label falls*, an unmoved destination keeps
//!   `B(s,x)`, so the shadow supplies it. Only the moved need the max–min
//!   pass, whose label is final when its node pops, so the pass stops once
//!   the last moved node has popped. A moved node the cut made unreachable
//!   never pops, so the pass runs to the end and finds it unreachable, as
//!   the full pass does.
//!
//! A cut-short tree is never planned against or counted by
//! `materialised()`, and a patch builds fresh slots, so it never outlives
//! the CSR it was swept on. A shadowed row read only at its destinations
//! therefore stays shadowed; a shadow is never counted by `materialised()`
//! either, and `trees_recomputed` counts the materialised trees a patch
//! shadowed or left stale.
//!
//! A patch judges one tree per slot: the slot's materialised tree if it
//! has one, else its shadow's. A read that materialises a shadowed row —
//! of its whole tree, or a cut-short sweep that reached the last level —
//! leaves the shadow answering nothing, and the next patch drops it. An
//! undo of the cuts since is a gain on the swept tree's graph: the row
//! goes stale if its source reaches a link the undo restores.
//!
//! All of this applies to exact trees only: an
//! [`all_pairs_lexicographic`](crate::shortest_widest::all_pairs_lexicographic)
//! table's one level is not a latency Dijkstra, and such tables are never
//! patched.
//!
//! A patch never adds or removes a node: a failed instance is a tombstone
//! whose links are cut, so the graph keeps the table's numbering, and a
//! graph of another size is a caller's bug the patch refuses. The property
//! tests in `tests/prop_engine.rs` check patches — single batches,
//! sequences of batches, cut-then-restore pairs, lineages read only in part
//! between batches, undos of cut lineages whole or in part — against a
//! from-scratch rebuild in QoS and path, that an exact undo, in one patch
//! or several, hands every row back the tree it held, that a partial one
//! leaves shadows moving what the rest of the net cut crosses, that the
//! rules never dirty more trees than the coarse ones (any-traversal for
//! pure bandwidth cuts, reach-the-tail for the rest), that a pure cut
//! dirties exactly the trees the full walk finds, that a partly stale
//! table invalidates exactly its eagerly swept twin's dirty set restricted
//! to the slots it had materialised, that a read materialises a row exactly
//! when a patch left it stale, or a degradation moved the destination read
//! and the row's cut-short sweep reaches its last level (a model that
//! tracks each row's sweep-time weights predicts every hold, shadow,
//! restore and stale from the net change alone), and that a cut-short
//! sweep is the full sweep on every node it settled, every moved node a
//! path reaches among them.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use sflow_graph::{DiGraph, EdgeIx, NodeIx};

use crate::shortest_widest::{AllPairs, PathTree, Shadow, Slot, TraversalScratch};
use crate::{Bandwidth, Qos};

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

    /// For a degradation, the level at or below which a reported path over
    /// the edge lost nothing: the subgraphs of levels `≤ new.bandwidth`
    /// keep a narrowed edge as it was, and a slowed one is priced anew at
    /// every level, so its floor is zero. `None` for a gain or a no-op.
    fn loss_floor(&self) -> Option<Bandwidth> {
        if self.is_noop() || !self.is_degradation() {
            None
        } else if self.new.latency > self.old.latency {
            Some(Bandwidth::ZERO)
        } else {
            Some(self.new.bandwidth)
        }
    }
}

/// What one [`AllPairs::patched_with`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Materialised trees this patch invalidated. A tree left stale by a
    /// gain its source reaches is swept again on its row's first read; a
    /// tree a degradation moved is shadowed, the first read of a moved
    /// destination sweeps the row only until its last moved destination
    /// has settled, and the row is swept in full only by a read of its
    /// whole tree, or by a cut-short sweep whose last moved destination is
    /// pinned at the last level. The successor shares
    /// `materialised(pred) − trees_recomputed` trees with its predecessor.
    pub trees_recomputed: usize,
    /// Shadows this patch turned back into trees: the net change since the
    /// shadow's tree was swept is empty, or moves none of its reported
    /// paths. The successor holds
    /// `materialised(pred) − trees_recomputed + trees_restored` trees.
    pub trees_restored: usize,
    /// Source trees in the table (== node count).
    pub trees_total: usize,
}

/// Folds a batch to one record per edge, sorted by edge: the first `old`
/// seen for it and the weight `g` carries now as `new`, net no-ops dropped.
pub(crate) fn coalesce<N>(g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> Vec<EdgeChange> {
    let mut folded: Vec<EdgeChange> = changes.to_vec();
    folded.sort_by_key(|c| c.edge); // stable: the first record's `old` leads
    folded.dedup_by_key(|c| c.edge);
    for c in &mut folded {
        c.new = *g.edge(c.edge);
    }
    folded.retain(|c| !c.is_noop());
    folded
}

/// `since` followed by `batch`, both coalesced: per edge, `since`'s `old`
/// and the later `new`, an edge back at its `since` weight dropped. A
/// merge of the two sorted lists.
fn fold(since: &[EdgeChange], batch: &[EdgeChange]) -> Vec<EdgeChange> {
    let mut net = Vec::with_capacity(since.len() + batch.len());
    let (mut a, mut b) = (since, batch);
    loop {
        let order = match (a.first(), b.first()) {
            (Some(x), Some(y)) => x.edge.cmp(&y.edge),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return net,
        };
        match order {
            Ordering::Less => {
                net.push(a[0]);
                a = &a[1..];
            }
            Ordering::Greater => {
                net.push(b[0]);
                b = &b[1..];
            }
            Ordering::Equal => {
                let c = EdgeChange {
                    new: b[0].new,
                    ..a[0]
                };
                if !c.is_noop() {
                    net.push(c);
                }
                (a, b) = (&a[1..], &b[1..]);
            }
        }
    }
}

/// One `(edge, head, floor)` per degradation of `changes`, in its order.
fn cuts_of<N>(g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> Vec<Cut> {
    changes
        .iter()
        .filter_map(|c| Some((c.edge, g.edge_endpoints(c.edge).1, c.loss_floor()?)))
        .collect()
}

/// One flag per node of `g`: `true` if it reaches the tail of a gain of
/// `changes` over links of positive bandwidth. One reverse pass from the
/// gained tails.
fn reaching<N>(g: &DiGraph<N, Qos>, changes: &[EdgeChange]) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    let mut stack = Vec::new();
    for c in changes.iter().filter(|c| c.loss_floor().is_none()) {
        let tail = g.edge_endpoints(c.edge).0;
        if !std::mem::replace(&mut seen[tail.index()], true) {
            stack.push(tail);
        }
    }
    while let Some(node) = stack.pop() {
        for &edge in g.in_edge_ids(node) {
            let (from, _, qos) = g.edge_parts(edge);
            if qos.bandwidth > Bandwidth::ZERO && !std::mem::replace(&mut seen[from.index()], true)
            {
                stack.push(from);
            }
        }
    }
    seen
}

/// A degradation as the walk reads it: `(edge, head, floor)`.
type Cut = (EdgeIx, NodeIx, Bandwidth);

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
    /// the predecessor by `Arc` pointer. Each tree is judged by the net
    /// change since its sweep: one that net change leaves on its sweep
    /// graph is held as it is, and so is a shadow's, which the successor
    /// holds as its tree again. After a degradation every tree the patch
    /// invalidates is shadowed in the successor, and every shadow the
    /// predecessor held stays one, taking on the batch's crossings on its
    /// tree; after any other batch a tree or shadow is left stale if its
    /// source reaches a gain of its net change, and is otherwise held or
    /// shadowed as the walk of that change's degradations says. A slot
    /// that was stale stays stale, and a slot that holds a tree is judged
    /// by that tree alone: a shadow left beside it by a read is dropped.
    /// A slot is swept on the first read that needs it, against the
    /// successor's CSR. Deriving the successor therefore costs the plan,
    /// the net change of each distinct `since` list (and for one with a
    /// gain, a reverse pass over `g`), the predecessor's
    /// [`QosCsr`](crate::QosCsr) reweighted from the coalesced change list
    /// (its bandwidths copied, the changed slots written — no read of
    /// `g`'s edges) and a refcount bump per kept tree or shadow, never a
    /// copy of the table, and no Dijkstra. Readers concurrently solving
    /// against the predecessor are never disturbed — this is the routing
    /// half of an epoch-published world, where the successor table is
    /// assembled entirely off-lock and swapped in with one pointer store.
    ///
    /// # Panics
    ///
    /// If `g` has another node or edge count than the table: no mutation
    /// renumbers a graph (a failed instance is a tombstone), so a patch
    /// never needs a full build.
    pub fn patched_with<N>(
        &self,
        g: &DiGraph<N, Qos>,
        changes: &[EdgeChange],
        _workers: usize,
    ) -> (AllPairs, PatchStats) {
        let n = g.node_count();
        assert!(
            n == self.trees.len() && g.edge_count() == self.csr.edge_count(),
            "a patch keeps the table's numbering: the graph must have its node and edge counts"
        );
        let mut stats = PatchStats {
            trees_total: n,
            ..PatchStats::default()
        };
        let changes = coalesce(g, changes);
        if changes.is_empty() {
            return (self.clone(), stats); // the graph is the one `self` was swept over
        }

        let csr = Arc::new(self.csr.reweighted(&changes));
        // Each slot is read once: a tree a concurrent reader sweeps after
        // this look is not one the plan saw, so it stays behind.
        let mut plan = Plan::new(g, changes);
        let trees = self
            .trees
            .iter()
            .map(|slot| plan.next(slot, &mut stats))
            .collect();
        (AllPairs { trees, csr }, stats)
    }
}

/// A net change: the batch itself, or a `since` list with the batch
/// folded in.
struct Net {
    changes: Arc<[EdgeChange]>,
    /// `changes` is a non-empty degradation: no edge wider or faster.
    degradation: bool,
    /// One `(edge, head, floor)` per degradation of `changes`, sorted by
    /// edge: the walk looks a floor up here, so no patch builds an
    /// edge-long array. Built by the first walk that needs it.
    cuts: OnceCell<Vec<Cut>>,
    /// [`reaching`] `changes`' gains, built by the first tree judged by
    /// them.
    reach: OnceCell<Vec<bool>>,
}

impl Net {
    fn new(changes: Arc<[EdgeChange]>) -> Self {
        Net {
            degradation: !changes.is_empty() && changes.iter().all(|c| c.loss_floor().is_some()),
            changes,
            cuts: OnceCell::new(),
            reach: OnceCell::new(),
        }
    }

    fn cuts<N>(&self, g: &DiGraph<N, Qos>) -> &[Cut] {
        self.cuts.get_or_init(|| cuts_of(g, &self.changes))
    }

    /// `true` if `source` reaches the tail of a gain of `changes` in `g`.
    fn reaches<N>(&self, g: &DiGraph<N, Qos>, source: NodeIx) -> bool {
        !self.degradation && self.reach.get_or_init(|| reaching(g, &self.changes))[source.index()]
    }
}

/// What a patch makes of one tree a slot holds, its own or its shadow's.
enum Verdict {
    /// The tree answers on the table's graph, which `since` turns its
    /// sweep graph into.
    Hold(Arc<[EdgeChange]>),
    /// The tree answers the destinations no degradation since moved.
    Shadow(Shadow),
    Stale,
}

/// The rules (and soundness argument) in the module docs, applied to one
/// coalesced batch slot by slot. The buffers they reuse across the slots
/// are allocated once per patch, not per tree.
struct Plan<'a, N> {
    g: &'a DiGraph<N, Qos>,
    /// `nets[0]` is the coalesced batch, the net change of a tree swept on
    /// the predecessor's graph; then the net change of each distinct
    /// non-empty `since` list met so far.
    nets: Vec<Net>,
    /// Where each distinct `since` list's net change is in `nets`, by the
    /// list's address: trees swept together share one list, so the batch
    /// is folded into it once per patch. The predecessor holds every list
    /// for the whole patch, so no address is reused.
    seen: HashMap<*const [EdgeChange], usize>,
    traversal: TraversalScratch,
}

impl<'a, N> Plan<'a, N> {
    fn new(g: &'a DiGraph<N, Qos>, changes: Vec<EdgeChange>) -> Self {
        Plan {
            g,
            nets: vec![Net::new(Arc::from(changes))],
            seen: HashMap::new(),
            traversal: TraversalScratch::new(),
        }
    }

    /// Where the net change of a tree whose `since` is `since` is in
    /// `nets`, this batch folded in.
    fn net(&mut self, since: &Arc<[EdgeChange]>) -> usize {
        if since.is_empty() {
            return 0;
        }
        let fresh = self.nets.len();
        let at = *self.seen.entry(Arc::as_ptr(since)).or_insert(fresh);
        if at == fresh {
            let net = fold(since, &self.nets[0].changes);
            self.nets.push(Net::new(Arc::from(net)));
        }
        at
    }

    /// `slot`'s successor, from the one tree it holds: its materialised
    /// tree if it has one, else its shadow's. A stale slot stays stale. A
    /// materialised tree not held counts as recomputed, a shadow held as
    /// restored: it is the slot's tree again.
    fn next(&mut self, slot: &Slot, stats: &mut PatchStats) -> Slot {
        let materialised = slot.tree.get();
        let (tree, verdict) = match (materialised, &slot.shadow) {
            (Some(tree), _) => (tree, self.judge_tree(tree, &slot.since)),
            (None, Some(shadow)) => (&shadow.tree, self.judge_shadow(shadow)),
            (None, None) => return Slot::default(),
        };
        if let Verdict::Hold(since) = verdict {
            stats.trees_restored += usize::from(materialised.is_none());
            return Slot::holding(Arc::clone(tree), since);
        }
        stats.trees_recomputed += usize::from(materialised.is_some());
        match verdict {
            Verdict::Shadow(shadow) => Slot::shadowed(shadow),
            _ => Slot::default(),
        }
    }

    /// A materialised tree: held if its net change is empty; after a
    /// degradation, held or shadowed as the batch's walk says; after any
    /// other batch, judged by its net change alone.
    fn judge_tree(&mut self, tree: &Arc<PathTree>, since: &Arc<[EdgeChange]>) -> Verdict {
        let at = self.net(since);
        if self.nets[at].changes.is_empty() {
            return Verdict::Hold(Arc::clone(&self.nets[at].changes));
        }
        if self.nets[0].degradation {
            return self.walk(tree, 0, at);
        }
        self.judge(tree, at)
    }

    /// The shadow of a slot that holds no tree: held if its net change is
    /// empty; after a degradation, still a shadow, taking on the batch's
    /// crossings on its tree; after any other batch, judged by its net
    /// change alone.
    fn judge_shadow(&mut self, shadow: &Shadow) -> Verdict {
        let at = self.net(&shadow.since);
        let net = &self.nets[at];
        if net.changes.is_empty() {
            return Verdict::Hold(Arc::clone(&net.changes));
        }
        let batch = &self.nets[0];
        if !batch.degradation {
            return self.judge(&shadow.tree, at);
        }
        let found = &mut self.traversal.crossings;
        shadow.tree.crossings(batch.cuts(self.g), found);
        let crossings = if found.is_empty() {
            Arc::clone(&shadow.crossings)
        } else {
            found.extend_from_slice(&shadow.crossings);
            Arc::from(found.as_slice())
        };
        Verdict::Shadow(Shadow {
            tree: Arc::clone(&shadow.tree),
            crossings,
            since: Arc::clone(&net.changes),
        })
    }

    /// `tree` by its net change `nets[at]` alone: stale if that has a gain
    /// whose tail the tree's source reaches, else held or shadowed as the
    /// walk of its degradations says.
    fn judge(&mut self, tree: &Arc<PathTree>, at: usize) -> Verdict {
        if self.nets[at].reaches(self.g, tree.source()) {
            Verdict::Stale
        } else {
            self.walk(tree, at, at)
        }
    }

    /// The walk of `tree` over the degradations of `nets[cuts]`: held if no
    /// reported path crosses them, else shadowed with their crossings.
    /// Either way the tree's net change is `nets[net]`.
    fn walk(&mut self, tree: &Arc<PathTree>, cuts: usize, net: usize) -> Verdict {
        let since = Arc::clone(&self.nets[net].changes);
        if !tree.crosses_cuts(self.nets[cuts].cuts(self.g), &mut self.traversal) {
            return Verdict::Hold(since);
        }
        Verdict::Shadow(Shadow {
            tree: Arc::clone(tree),
            crossings: Arc::from(self.traversal.crossings.as_slice()),
            since,
        })
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
    fn improving_an_edge_dirties_the_trees_that_reach_its_tail() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // n4→n3 goes (1, 9) → (50, 0); only n0 and n4 reach n4, and both
        // are left stale, n0's although the edge loses to its artery.
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
        assert_eq!(ap.materialised(), 3);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn a_widen_dirties_every_source_reaching_its_tail() {
        // Widening b→c from 5 to 10 cannot help a, whose bottleneck to b is
        // 1, but a reaches b: the rule does not look at bottlenecks, and
        // leaves a's tree stale with b's. c reaches nothing.
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
        assert_eq!(stats.trees_recomputed, 2);
        assert!(ap.trees[c.index()].tree.get().is_some());
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn mixed_change_is_treated_as_improvement() {
        let (mut g, _, e) = world();
        let mut ap = all_pairs(&g);
        // Wider but slower is a gain: n0 and n1 reach the tail n1, nobody
        // else does.
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
        // the patch invalidated are shadowed until read.
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
        *g.edge_mut(e[1]) = q(20, 9);
        let change = EdgeChange {
            edge: e[1],
            old: q(10, 1),
            new: q(20, 9),
        };
        let (second, stats) = first.patched_with(&g, &[change], 1);
        assert_eq!(stats.trees_recomputed, 2); // n0 and n1, both stale now
        assert_eq!(second.materialised(), 3);
        let second_graph = g.clone();
        // A second patch plans only what is materialised: n0's and n1's
        // slots are dirty already and stay stale with no plan; n2 reports
        // the slowed n2→n3 and is shadowed.
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
        assert_eq!(second.qos(n[0], n[3]), Some(q(10, 11)));
        assert_eq!(third.qos(n[0], n[3]), Some(q(10, 19)));
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
    fn a_gain_a_source_cannot_reach_leaves_its_tree_to_the_degradations_walk() {
        // Slowing n2→n3 and speeding up n4→n3 in one batch: n0 and n4
        // reach the gained tail n4 and are stale; n1 and n2 cannot, and
        // their trees are walked on the slow-down alone, which both report:
        // shadowed. n3 reaches nothing.
        let (mut g, n, e) = world();
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
        assert_eq!(stats.trees_recomputed, 4);
        let shadowed: Vec<bool> = n.iter().map(|&u| ap.moved(u).is_some()).collect();
        assert_eq!(shadowed, [false, true, true, false, false]);
        assert_eq!(ap.materialised(), 1);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn simultaneous_improvements_dirty_the_sources_reaching_either_tail() {
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
        // n0 reaches both tails, n4 its own; n1, n2 and n3 reach neither.
        assert_eq!(stats.trees_recomputed, 2);
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn two_improvements_that_lose_everywhere_still_dirty_their_tails_sources() {
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
        // Both lose in n0's tree — 5 + 9 µs against n3's 3 µs, 0 + 3 µs
        // against n1's 1 µs — but n0 reaches both tails, so its tree is
        // swept again with n4's, whose own widens (2 > 1).
        assert_eq!(stats.trees_recomputed, 2);
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
    fn a_net_change_folds_a_batch_into_the_list_since_a_sweep() {
        let c = |i, old, new| EdgeChange {
            edge: EdgeIx::from_index(i),
            old,
            new,
        };
        // Since the sweep: e1 cut, e3 widened. The batch puts e1 back,
        // cuts e2 and re-times e3.
        let since = [c(1, q(10, 1), q(5, 1)), c(3, q(2, 2), q(4, 2))];
        let batch = [
            c(1, q(5, 1), q(10, 1)),
            c(2, q(7, 1), q(3, 1)),
            c(3, q(4, 2), q(4, 5)),
        ];
        assert_eq!(
            fold(&since, &batch),
            [c(2, q(7, 1), q(3, 1)), c(3, q(2, 2), q(4, 5))]
        );
        assert_eq!(fold(&[], &batch), batch);
        assert_eq!(fold(&since, &[]), since);
    }

    #[test]
    fn an_undo_holds_the_kept_trees_and_restores_the_shadows() {
        // Cutting the artery n1→n2 shadows n0's and n1's trees; a read of
        // n0's whole tree sweeps it, and the slot holds that tree. Putting
        // the artery back is an undo: every kept tree is held and n1's
        // shadow is its tree again. n0's slot is judged by its swept tree
        // alone, whose net change is the widen: n0 reaches its tail, so the
        // slot is stale and its shadow dropped.
        let (mut g, n, e) = world();
        let original = all_pairs(&g);
        let full = *g.edge(e[1]);
        *g.edge_mut(e[1]) = q(3, 1);
        let (cut, stats) = original.patched_with(
            &g,
            &[EdgeChange {
                edge: e[1],
                old: full,
                new: q(3, 1),
            }],
            1,
        );
        assert_eq!((stats.trees_recomputed, stats.trees_restored), (2, 0));
        cut.tree(n[0]);
        assert_eq!(cut.materialised(), 4);
        *g.edge_mut(e[1]) = full;
        let (undone, stats) = cut.patched_with(
            &g,
            &[EdgeChange {
                edge: e[1],
                old: q(3, 1),
                new: full,
            }],
            1,
        );
        assert_eq!((stats.trees_recomputed, stats.trees_restored), (1, 1));
        assert_eq!(undone.materialised(), 4);
        assert_eq!(original.shared_trees(&undone), 4);
        assert!(undone.trees[n[0].index()].shadow.is_none());
        assert!(undone.trees.iter().all(|slot| slot.since.is_empty()));
        assert_tables_equal(&undone, &all_pairs(&g), &g);
    }

    #[test]
    fn a_slow_down_under_an_unreported_label_holds_the_tree() {
        // s reaches u at level 10 directly (5 µs) and, at level 5, faster
        // through a (2 µs) — a label no reported path reads, because u is
        // pinned at 10. Slowing a→u leaves every path s reports alone, so
        // s's tree is held; a reports a→u and is shadowed. The later gain
        // on u→v reaches s through u, and s's tree is swept again.
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
        assert_eq!(stats.trees_recomputed, 1);
        assert!(ap.trees[s.index()].tree.get().is_some());
        assert!(ap.moved(a).is_some());
        assert_tables_equal(&ap, &all_pairs(&g), &g);

        *g.edge_mut(gain) = q(5, 3);
        let stats = ap.patch(
            &g,
            &[EdgeChange {
                edge: gain,
                old: q(5, 100),
                new: q(5, 3),
            }],
        );
        assert_eq!(stats.trees_recomputed, 3); // s, a and u reach u
        assert_eq!(ap.qos(s, v), Some(q(5, 8)));
        assert_tables_equal(&ap, &all_pairs(&g), &g);
    }

    #[test]
    fn a_speed_up_under_an_unreported_label_dirties_the_tree() {
        // At level 3, s settles q at 2 µs through p→q — a label no reported
        // path reads, because q is pinned at 5 — and w directly at 2 µs.
        // Narrowing p→q to 2 and speeding it up takes it out of level 3
        // without touching a reported path, but it is a gain, and s
        // reaches its tail: s's tree is swept again with p's, and so is
        // it when the spare p→q widens, which s→p→q→w at (3, 1) needs.
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
        assert_eq!(stats.trees_recomputed, 2); // s and p reach p
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
                                                        // A narrowing keeps its new bandwidth as the floor, a slow-down
                                                        // has none; a gain, mixed or not, is no degradation at all.
        assert_eq!(c(q(5, 5), q(4, 5)).loss_floor(), Some(Bandwidth::kbps(4)));
        assert_eq!(c(q(5, 5), q(5, 6)).loss_floor(), Some(Bandwidth::ZERO));
        assert_eq!(c(q(5, 5), q(4, 6)).loss_floor(), Some(Bandwidth::ZERO));
        assert_eq!(c(q(5, 5), q(4, 4)).loss_floor(), None);
        assert_eq!(c(q(5, 5), q(6, 5)).loss_floor(), None);
        assert_eq!(c(q(5, 5), q(6, 6)).loss_floor(), None);
        assert_eq!(c(q(5, 5), q(5, 5)).loss_floor(), None);
    }
}
