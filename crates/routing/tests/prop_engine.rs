//! Property-based parity tests for the incremental engine.
//!
//! One oracle, the from-scratch build, compared in QoS *and* path — a
//! patched table must be the table a rebuild would produce, down to the
//! tie-breaks, because a kept tree stands in for a recomputed one:
//!
//! * [`AllPairs::patched_with`] after a random batch of 1–8 edge-QoS
//!   mutations — degradations, improvements, mixed, unusable (zero
//!   bandwidth) and zero-latency links, duplicates for one edge — and after
//!   a *sequence* of such batches, each patched from the last patched table,
//!   independent or aimed at the edges the batch before hit;
//! * cutting k links in one batch and restoring them in the next returns the
//!   original table;
//! * a lineage whose tables are read only in part between batches, so
//!   patches plan over partly stale tables: every row read, and every row
//!   once all are forced, is the rebuild's (QoS, path and hop count), and
//!   each patch invalidates exactly what it would on the eagerly swept
//!   twin of the same table, restricted to the slots it had materialised;
//! * a lineage of mostly pure cuts with random `(row, destination)` reads
//!   in between: every read is the rebuild's, and it materialises its row
//!   exactly when a gain or re-timing left the row stale, or a cut since
//!   the row's tree moved the destination read (its path crosses a cut
//!   link above the link's new bandwidth) and the row's cut-short sweep
//!   reaches its last level;
//! * on the same lineages, a cut-short sweep answers every node it settled
//!   as the full sweep does, in QoS, path and level, and settles every
//!   moved node a path reaches.
//!
//! Plus three structural properties: a patch shares every materialised tree
//! it keeps with its predecessor by `Arc` pointer
//! (`shared_trees(next) == materialised(pred) − trees_recomputed`), the
//! dirty rules never recompute more
//! trees than the coarse rules they refine (a bandwidth cut dirties every
//! tree traversing the edge, anything else every source reaching its tail),
//! and a pure cut — planned from the cut edges' heads, walked only at the
//! levels they stand at — recomputes exactly the trees the public full walk
//! (`PathTree::traverses_above`) finds, on trees kept through earlier
//! patches too.
//!
//! Case count: `PROPTEST_CASES` (default 64); CI runs 20 000 in release.

use std::collections::VecDeque;

use proptest::prelude::*;
use sflow_graph::{DiGraph, NodeIx};
use sflow_routing::shortest_widest::{single_source_csr, single_source_moved_csr};
use sflow_routing::{
    all_pairs, AllPairs, Bandwidth, DijkstraScratch, EdgeChange, Latency, PathTree, Qos, QosCsr,
    TraversalScratch,
};

fn q(bw: u64, lat: u64) -> Qos {
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

/// Small graphs over tiny bandwidth and latency domains, so bottleneck
/// ties, latency ties, zero-latency links and unusable links — the hard
/// cases for a rule that must reproduce tie-breaks — are all common.
fn graph_strategy() -> impl Strategy<Value = DiGraph<(), Qos>> {
    (3usize..10).prop_flat_map(|n| {
        let edges =
            proptest::collection::vec((0..n, 0..n, 0u64..6, 0u64..4), 1..(n * (n - 1)).max(2));
        edges.prop_map(move |es| {
            let mut g = DiGraph::new();
            let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
            for (a, b, bw, lat) in es {
                if a != b {
                    g.add_edge(ids[a], ids[b], q(bw, lat));
                }
            }
            g
        })
    })
}

/// A batch of edge-QoS mutations: per mutation an edge index (reduced
/// modulo the edge count, so one edge can be hit twice), a new bandwidth
/// and a new latency.
type MutationBatch = Vec<(usize, u64, u64)>;

fn batch_strategy() -> impl Strategy<Value = MutationBatch> {
    proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 1..9)
}

/// Writes `batch` into `g`, returning the change records the way
/// `OverlayGraph::update_link_qos` would produce them.
fn apply(g: &mut DiGraph<(), Qos>, batch: &MutationBatch) -> Vec<EdgeChange> {
    let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
    batch
        .iter()
        .map(|&(raw, bw, lat)| {
            let edge = edge_ids[raw % edge_ids.len()];
            let old = *g.edge(edge);
            let new = q(bw, lat);
            *g.edge_mut(edge) = new;
            EdgeChange { edge, old, new }
        })
        .collect()
}

/// A follow-up mutation aimed at what the batch before it changed: `(aim,
/// raw, bandwidth, latency)`. A kept tree is re-read by later patches, so
/// the lineages that matter re-hit the same few edges — narrow and speed up
/// an edge, then widen another edge into the same head — and independent
/// random batches almost never draw them.
type FollowUp = Vec<(usize, usize, u64, u64)>;

fn follow_up_strategy() -> impl Strategy<Value = FollowUp> {
    proptest::collection::vec((0usize..4, 0usize..64, 0u64..6, 0u64..4), 1..4)
}

/// Writes `follow_up` into `g`. Per mutation, `aim` picks the edge: `0` one
/// the previous batch changed, `1` one the previous batch changed, put back
/// to the weight it had before that batch, `2` an in-edge of the head of
/// one the previous batch changed, `3` any edge.
fn apply_follow_up(
    g: &mut DiGraph<(), Qos>,
    previous: &[EdgeChange],
    follow_up: &FollowUp,
) -> Vec<EdgeChange> {
    let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
    follow_up
        .iter()
        .map(|&(aim, raw, bw, lat)| {
            let hit = previous[raw % previous.len()];
            let (edge, new) = match aim {
                0 => (hit.edge, q(bw, lat)),
                1 => (hit.edge, hit.old),
                2 => {
                    let (_, head, _) = g.edge_parts(hit.edge);
                    let into = g.in_edge_ids(head);
                    (into[raw / previous.len() % into.len()], q(bw, lat))
                }
                _ => (edge_ids[raw % edge_ids.len()], q(bw, lat)),
            };
            let old = *g.edge(edge);
            *g.edge_mut(edge) = new;
            EdgeChange { edge, old, new }
        })
        .collect()
}

/// `table` is the table a from-scratch build of `g` produces, in QoS, path
/// and hop count. The message carries the whole case: the shim does not
/// shrink.
fn assert_is_rebuild(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    changes: &[EdgeChange],
) -> Result<(), TestCaseError> {
    assert_rows_are_rebuild(table, g, |_| true, changes)
}

/// [`assert_is_rebuild`] for the rows `read` picks; the rest are not read,
/// so a shadowed or stale one stays so.
fn assert_rows_are_rebuild(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    read: impl Fn(NodeIx) -> bool,
    changes: &[EdgeChange],
) -> Result<(), TestCaseError> {
    let rebuilt = all_pairs(g);
    let case = |u: NodeIx, v: NodeIx| {
        let edges: Vec<_> = g.edges().map(|e| (e.from, e.to, *e.weight)).collect();
        format!("{u:?}->{v:?}, graph now {edges:?}, after {changes:?}")
    };
    for u in g.node_ids().filter(|&u| read(u)) {
        // Every `qos` and `path` read before `tree`, which sweeps the row:
        // a shadowed row answers its unmoved destinations from its shadow.
        for v in g.node_ids() {
            prop_assert_eq!(table.qos(u, v), rebuilt.qos(u, v), "qos {}", case(u, v));
            prop_assert_eq!(table.path(u, v), rebuilt.path(u, v), "path {}", case(u, v));
        }
        for v in g.node_ids() {
            prop_assert_eq!(
                table.tree(u).hops_to(v),
                rebuilt.tree(u).hops_to(v),
                "hops {}",
                case(u, v)
            );
        }
    }
    Ok(())
}

/// Cuts each drawn link to at most the drawn bandwidth, latency untouched
/// (a link already that narrow is left as it is), returning the change
/// records.
fn cut(g: &mut DiGraph<(), Qos>, cuts: &[(usize, u64)]) -> Vec<EdgeChange> {
    let edge_ids: Vec<_> = g.edges().map(|e| e.id).collect();
    cuts.iter()
        .map(|&(raw, left)| {
            let edge = edge_ids[raw % edge_ids.len()];
            let old = *g.edge(edge);
            let new = Qos::new(old.bandwidth.min(Bandwidth::kbps(left)), old.latency);
            *g.edge_mut(edge) = new;
            EdgeChange { edge, old, new }
        })
        .collect()
}

/// [`graph_strategy`] with one link per ordered pair at most: a path names
/// its links by their endpoints, so a test that checks a reported path
/// link by link needs no parallel links.
fn simple_graph_strategy() -> impl Strategy<Value = DiGraph<(), Qos>> {
    graph_strategy().prop_map(|g| {
        let mut simple = DiGraph::new();
        for _ in g.node_ids() {
            simple.add_node(());
        }
        for e in g.edges() {
            if simple.find_edge(e.from, e.to).is_none() {
                simple.add_edge(e.from, e.to, *e.weight);
            }
        }
        simple
    })
}

/// `true` if the path `table` reports from `u` to `x` has a link `g` now
/// carries narrower than the path's bandwidth: the destinations a pure cut
/// moves, read off the predecessor's answers.
fn crosses_a_cut(table: &AllPairs, g: &DiGraph<(), Qos>, u: NodeIx, x: NodeIx) -> bool {
    narrowed(g, table.qos(u, x), table.path(u, x))
}

/// [`crosses_a_cut`] for one tree: `true` if the path `tree` reports to
/// `x` has a link `g` now carries narrower than the path's bandwidth.
fn tree_crosses_a_cut(tree: &PathTree, g: &DiGraph<(), Qos>, x: NodeIx) -> bool {
    narrowed(g, tree.qos_to(x), tree.path_to(x))
}

/// `true` if a reported `path` at `qos` has a link `g` now carries
/// narrower than the path's bandwidth.
fn narrowed(g: &DiGraph<(), Qos>, qos: Option<Qos>, path: Option<Vec<NodeIx>>) -> bool {
    let (Some(qos), Some(path)) = (qos, path) else {
        return false;
    };
    path.windows(2).any(|hop| {
        let link = g.find_edge(hop[0], hop[1]).expect("a reported link exists");
        g.edge(link).bandwidth < qos.bandwidth
    })
}

/// What a row of a table holds, as far as the test can tell from outside.
#[derive(Clone, Debug)]
enum Row {
    /// Its tree: no read sweeps it.
    Materialised,
    /// A shadow: a read of a destination marked here sweeps the row cut
    /// short (in full only if that reaches the row's last level), a read
    /// of any other does not.
    Shadowed(Vec<bool>),
    /// Nothing: the next read sweeps it.
    Stale,
}

/// The coarse rules the engine's dirty plan refines: a pure bandwidth cut
/// dirties every tree traversing the edge at any level; everything else
/// dirties every source that can reach the edge's tail. Kept here as the
/// upper-bound oracle.
fn coarse_rule_dirty_count(
    table: &AllPairs,
    g: &DiGraph<(), Qos>,
    changes: &[EdgeChange],
) -> usize {
    let n = g.node_count();
    let mut dirty = vec![false; n];
    let mut cut = vec![false; g.edge_count()];
    let mut any_cut = false;
    for c in changes.iter().filter(|c| !c.is_noop()) {
        if c.is_degradation() && c.new.latency == c.old.latency {
            cut[c.edge.index()] = true;
            any_cut = true;
        } else {
            let (tail, _, _) = g.edge_parts(c.edge);
            let mut seen = vec![false; n];
            let mut queue = VecDeque::new();
            seen[tail.index()] = true;
            dirty[tail.index()] = true;
            queue.push_back(tail);
            while let Some(v) = queue.pop_front() {
                for &eid in g.in_edge_ids(v) {
                    let (from, _, w) = g.edge_parts(eid);
                    if w.bandwidth == Bandwidth::ZERO || seen[from.index()] {
                        continue;
                    }
                    seen[from.index()] = true;
                    dirty[from.index()] = true;
                    queue.push_back(from);
                }
            }
        }
    }
    if any_cut {
        for (i, node) in g.node_ids().enumerate() {
            if !dirty[i] && table.tree(node).traverses_any(&cut) {
                dirty[i] = true;
            }
        }
    }
    dirty.iter().filter(|&&d| d).count()
}

proptest! {
    #[test]
    fn patch_matches_from_scratch_rebuild(
        g in graph_strategy(),
        batch in batch_strategy(),
    ) {
        let mut g = g;
        // Every generated tuple can be a self-loop, leaving no edges to
        // mutate; nothing to check then.
        if g.edge_count() == 0 {
            return Ok(());
        }
        let before = all_pairs(&g);
        let changes = apply(&mut g, &batch);
        let (table, _) = before.patched_with(&g, &changes, 1);
        assert_is_rebuild(&table, &g, &changes)?;
    }

    #[test]
    fn successive_patches_compose(
        g in graph_strategy(),
        batches in proptest::collection::vec(batch_strategy(), 2..5),
    ) {
        // A kept tree is patched again and again in a server's life; what a
        // later rule reads off it must still hold after earlier batches.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        for batch in &batches {
            let changes = apply(&mut g, batch);
            table = table.patched_with(&g, &changes, 1).0;
            assert_is_rebuild(&table, &g, &changes)?;
        }
    }

    #[test]
    fn follow_ups_on_the_same_edges_compose(
        g in graph_strategy(),
        first in batch_strategy(),
        follow_ups in proptest::collection::vec(follow_up_strategy(), 1..5),
    ) {
        // The labels a kept tree records but no reported path reads are the
        // ones a later patch can find stale: keep hitting the edges the last
        // batch hit, and the in-edges of their heads.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        let mut changes = apply(&mut g, &first);
        table = table.patched_with(&g, &changes, 1).0;
        assert_is_rebuild(&table, &g, &changes)?;
        for follow_up in &follow_ups {
            changes = apply_follow_up(&mut g, &changes, follow_up);
            table = table.patched_with(&g, &changes, 1).0;
            assert_is_rebuild(&table, &g, &changes)?;
        }
    }

    #[test]
    fn cutting_links_then_restoring_them_returns_the_original_table(
        g in graph_strategy(),
        cuts in proptest::collection::vec((0usize..64, 0u64..6), 1..9),
    ) {
        // The shape of a forest's life: k links lose bandwidth in one batch
        // and get it back in another.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let original = all_pairs(&g);
        let cut = cut(&mut g, &cuts);
        let (clamped, cut_stats) = original.patched_with(&g, &cut, 1);
        assert_is_rebuild(&clamped, &g, &cut)?;

        let mut restore = Vec::new();
        for c in cut.iter().rev() {
            let old = *g.edge(c.edge);
            *g.edge_mut(c.edge) = c.old;
            restore.push(EdgeChange { edge: c.edge, old, new: c.old });
        }
        let (restored, restore_stats) = clamped.patched_with(&g, &restore, 1);
        assert_is_rebuild(&restored, &g, &restore)?;
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(restored.qos(u, v), original.qos(u, v));
                prop_assert_eq!(restored.path(u, v), original.path(u, v));
            }
        }
        // Trees neither batch dirtied are still the original allocations.
        prop_assert!(
            original.shared_trees(&restored) + cut_stats.trees_recomputed
                + restore_stats.trees_recomputed >= original.len()
        );
    }

    #[test]
    fn a_cut_recomputes_exactly_the_trees_the_full_walk_finds(
        g in graph_strategy(),
        lineage in proptest::collection::vec(batch_strategy(), 0..3),
        cuts in proptest::collection::vec((0usize..64, 0u64..6), 1..9),
    ) {
        // The plan answers a cut from the cut edges' heads and walks only
        // the levels they stand at; it must dirty exactly the trees the
        // public full walk does — on trees kept through earlier patches too.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        for batch in &lineage {
            let changes = apply(&mut g, batch);
            table = table.patched_with(&g, &changes, 1).0;
        }
        let before = g.clone();
        let cut = cut(&mut g, &cuts);
        let floors: Vec<Bandwidth> = before
            .edges()
            .zip(g.edges())
            .map(|(was, now)| {
                if now.weight.bandwidth < was.weight.bandwidth {
                    now.weight.bandwidth
                } else {
                    Bandwidth::INFINITE
                }
            })
            .collect();
        let mut scratch = TraversalScratch::new();
        let walked = g
            .node_ids()
            .filter(|&s| table.tree(s).traverses_above(&floors, &mut scratch))
            .count();
        let (next, stats) = table.patched_with(&g, &cut, 1);
        prop_assert_eq!(stats.trees_recomputed, walked, "after {:?}", cut);
        assert_is_rebuild(&next, &g, &cut)?;
    }

    #[test]
    fn a_table_read_in_part_is_the_eager_table(
        g in graph_strategy(),
        batches in proptest::collection::vec((batch_strategy(), 0u16..1024, 0u16..1024), 1..6),
    ) {
        // A patch leaves every slot it invalidates stale, a stale slot stays
        // stale with no plan, and the first read sweeps it. Between batches
        // only the rows the two masks (ANDed: about a quarter) pick are
        // read, so lineages cut, widen and re-time tables whose slots are
        // partly stale. Against an eager twin — the same table with every
        // slot forced, so it holds the very same `Arc`s wherever this one
        // is materialised — each patch must invalidate exactly the eager
        // dirty set restricted to the materialised slots, and every row
        // read, and at the end every row, must be the rebuild's.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let mut table = all_pairs(&g);
        for (batch, reads, also) in &batches {
            let changes = apply(&mut g, batch);
            let eager = table.clone();
            for s in g.node_ids() {
                eager.tree(s);
            }
            let materialised = table.materialised();
            let (next, stats) = table.patched_with(&g, &changes, 1);
            let (eager_next, eager_stats) = eager.patched_with(&g, &changes, 1);
            prop_assert!(stats.trees_recomputed <= eager_stats.trees_recomputed);
            prop_assert_eq!(
                table.shared_trees(&next),
                materialised - stats.trees_recomputed
            );
            prop_assert_eq!(next.materialised(), materialised - stats.trees_recomputed);
            // Forcing the predecessor now gives its stale slots fresh
            // `Arc`s: only the slots it had materialised match the twin's.
            let invalidated = g
                .node_ids()
                .filter(|&s| {
                    std::ptr::eq(table.tree(s), eager.tree(s))
                        && !std::ptr::eq(eager.tree(s), eager_next.tree(s))
                })
                .count();
            prop_assert_eq!(stats.trees_recomputed, invalidated, "after {:?}", changes);
            table = next;
            let read = |s: NodeIx| ((reads & also) >> s.index()) & 1 == 1;
            assert_rows_are_rebuild(&table, &g, read, &changes)?;
        }
        assert_is_rebuild(&table, &g, &[])?;
        prop_assert_eq!(table.materialised(), table.len());
    }

    #[test]
    fn a_cut_moves_only_the_destinations_it_crosses(
        g in simple_graph_strategy(),
        lineage in proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec((0usize..64, 0u64..6, 0u64..4), 1..5),
                proptest::collection::vec((0usize..16, 0usize..16), 0..12),
            ),
            1..7,
        ),
    ) {
        // Mostly pure cuts (kind 1–3: each drawn link cut to at most the
        // drawn bandwidth), some mixed batches (kind 0), random `(row,
        // destination)` reads through `qos` / `path` only in between. A
        // model of every row, kept from the predecessor's answers alone,
        // says which reads may sweep: a pure cut moves a destination of a
        // materialised or shadowed row exactly when the path the row
        // reports crosses a link now narrower than the path's bandwidth,
        // and a mixed batch leaves no shadow. Every read must be the
        // rebuild's, and materialise its row (raise `materialised()` by
        // one) exactly when the model says it does: any read of a stale
        // row, and a read of a moved destination of a shadowed row only
        // if the row's cut-short sweep reaches the last level — the last
        // moved destination a path reaches is pinned there, or none is and
        // the row reaches nothing.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let n = g.node_count();
        let node = NodeIx::from_index;
        let mut table = all_pairs(&g);
        let mut rows = vec![Row::Materialised; n];
        for (kind, batch, reads) in &lineage {
            let was = g.clone();
            let changes = if *kind == 0 {
                apply(&mut g, batch)
            } else {
                let cuts: Vec<(usize, u64)> = batch.iter().map(|&(raw, bw, _)| (raw, bw)).collect();
                cut(&mut g, &cuts)
            };
            let pure = was.edges().zip(g.edges()).all(|(was, now)| {
                let (was, now) = (was.weight, now.weight);
                was == now || (now.bandwidth < was.bandwidth && now.latency == was.latency)
            });
            let materialised = table.materialised();
            let (next, stats) = table.patched_with(&g, &changes, 1);
            prop_assert_eq!(
                table.shared_trees(&next),
                materialised - stats.trees_recomputed
            );

            let mut invalidated = 0;
            for (u, row) in rows.iter_mut().enumerate() {
                let successor = match (&*row, pure) {
                    (Row::Stale, _) | (Row::Shadowed(_), false) => Row::Stale,
                    (Row::Materialised, false) => {
                        // Kept, or left stale: one read of the source, which
                        // no batch moves, sweeps at most once and tells.
                        let before = next.materialised();
                        next.qos(node(u), node(u));
                        prop_assert!(next.materialised() - before <= 1);
                        Row::Materialised
                    }
                    (kept, true) => {
                        // The predecessor's answers for the destinations it
                        // has not moved yet: read without a sweep.
                        let before = table.materialised();
                        let mut moved = match kept {
                            Row::Shadowed(moved) => moved.clone(),
                            _ => vec![false; n],
                        };
                        let mut grew = false;
                        for (x, was_moved) in moved.iter_mut().enumerate() {
                            if !*was_moved && crosses_a_cut(&table, &g, node(u), node(x)) {
                                *was_moved = true;
                                grew = true;
                            }
                        }
                        prop_assert_eq!(
                            table.materialised(), before,
                            "row {} swept for destinations no cut moved", u
                        );
                        match kept {
                            Row::Materialised if !grew => Row::Materialised,
                            Row::Materialised => {
                                invalidated += 1;
                                Row::Shadowed(moved)
                            }
                            _ => Row::Shadowed(moved),
                        }
                    }
                };
                *row = successor;
            }
            if pure {
                prop_assert_eq!(stats.trees_recomputed, invalidated, "after {:?}", changes);
            }
            table = next;
            for (u, row) in rows.iter().enumerate() {
                let want = match row {
                    Row::Shadowed(moved) => Some(moved.iter().filter(|&&m| m).count()),
                    _ => None,
                };
                prop_assert_eq!(table.moved(node(u)), want, "row {} after {:?}", u, changes);
            }

            let rebuilt = all_pairs(&g);
            for &(u, x) in reads {
                let (u, x) = (u % n, x % n);
                let before = table.materialised();
                prop_assert_eq!(table.qos(node(u), node(x)), rebuilt.qos(node(u), node(x)));
                prop_assert_eq!(table.path(node(u), node(x)), rebuilt.path(node(u), node(x)));
                let swept = table.materialised() - before;
                let expected = match &rows[u] {
                    Row::Materialised => 0,
                    Row::Shadowed(moved) => {
                        let full = rebuilt.tree(node(u));
                        let last_moved = (0..n)
                            .filter(|&y| moved[y])
                            .filter_map(|y| full.level_of(node(y)))
                            .max();
                        let reaches_last = last_moved == full.level_count().checked_sub(1);
                        usize::from(moved[x] && reaches_last)
                    }
                    Row::Stale => 1,
                };
                prop_assert_eq!(
                    swept, expected,
                    "read {}->{} of {:?} after {:?}", u, x, rows[u], changes
                );
                if swept == 1 {
                    rows[u] = Row::Materialised;
                }
            }
        }
        assert_is_rebuild(&table, &g, &[])?;
        prop_assert_eq!(table.materialised(), table.len());
    }

    #[test]
    fn a_cut_short_sweep_is_the_full_sweep_where_it_settled(
        g in simple_graph_strategy(),
        lineage in proptest::collection::vec(
            proptest::collection::vec((0usize..64, 0u64..6), 1..5),
            1..5,
        ),
    ) {
        // Every row's tree is swept on the first graph and kept as the
        // shadow of a lineage of pure cuts (zero bandwidth included, so
        // some destinations become unreachable). Its moved destinations
        // are the ones whose reported path crosses a link now narrower
        // than the path. The cut-short sweep over the last graph must
        // answer every node it settled as the full sweep does — QoS,
        // path and level — and settle every moved node a path reaches;
        // one that says it reached the end must be the full tree.
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let shadows: Vec<PathTree> = {
            let csr = QosCsr::new(&g);
            let mut scratch = DijkstraScratch::new();
            g.node_ids().map(|s| single_source_csr(&csr, s, &mut scratch)).collect()
        };
        let mut changes = Vec::new();
        for cuts in &lineage {
            changes.extend(cut(&mut g, cuts));
        }
        let csr = QosCsr::new(&g);
        let (mut short_scratch, mut full_scratch) = (DijkstraScratch::new(), DijkstraScratch::new());
        for shadow in &shadows {
            let s = shadow.source();
            let moved: Vec<bool> = g.node_ids().map(|x| tree_crosses_a_cut(shadow, &g, x)).collect();
            let (short, complete) =
                single_source_moved_csr(&csr, shadow, &moved, &mut short_scratch);
            let full = single_source_csr(&csr, s, &mut full_scratch);
            if complete {
                // The slot holds it as its tree: the certificate reads its
                // entries and level bounds.
                prop_assert_eq!(short.stored_entries(), full.stored_entries());
                prop_assert_eq!(short.level_count(), full.level_count());
                for li in 0..full.level_count() {
                    prop_assert_eq!(short.level_bound(li), full.level_bound(li));
                }
            }
            for x in g.node_ids() {
                let settled = short.qos_to(x).is_some();
                if settled || complete {
                    let at = format!("{s:?}->{x:?} after {changes:?}");
                    prop_assert_eq!(short.qos_to(x), full.qos_to(x), "qos {}", at);
                    prop_assert_eq!(short.path_to(x), full.path_to(x), "path {}", at);
                    prop_assert_eq!(short.level_of(x), full.level_of(x), "level {}", at);
                }
                if moved[x.index()] {
                    prop_assert_eq!(
                        settled,
                        full.qos_to(x).is_some(),
                        "moved {:?}->{:?} after {:?}", s, x, changes
                    );
                }
            }
        }
    }

    #[test]
    fn patched_shares_clean_trees_and_dirties_no_more_than_coarse_rules(
        g in graph_strategy(),
        batch in batch_strategy(),
    ) {
        let mut g = g;
        if g.edge_count() == 0 {
            return Ok(());
        }
        let before = all_pairs(&g);
        let changes = apply(&mut g, &batch);
        let (next, stats) = before.patched_with(&g, &changes, 1);

        // Every clean tree is shared by pointer with the predecessor —
        // deriving an epoch never clones the table.
        prop_assert_eq!(
            before.shared_trees(&next),
            before.materialised() - stats.trees_recomputed
        );

        // The dirty rules are a refinement of the coarse ones.
        let coarse = coarse_rule_dirty_count(&before, &g, &changes);
        prop_assert!(
            stats.trees_recomputed <= coarse,
            "dirty plan recomputed {} trees, coarse rule {}",
            stats.trees_recomputed, coarse
        );
    }
}
