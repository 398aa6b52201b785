//! What the routing kernels ask of the allocator, counted.
//!
//! The all-pairs engine runs `single_source_csr` once per source per
//! rebuild, so the sweep keeps every working buffer in a reusable
//! [`DijkstraScratch`] and allocates only the arrays the [`PathTree`] it
//! returns owns, and so does a cut-short sweep (`single_source_moved_csr`,
//! what a read of a destination a cut moved runs). A bounded sweep
//! (`settle_csr`, what pricing an underlay's
//! host pairs runs once per host) returns no tree, so a warmed one
//! allocates nothing at all. The ablation kernels (`classic::widest` / `shortest`,
//! `single_source_lexicographic`) allocate their per-node arrays per call,
//! but none of them may allocate per heap pop: their counts may grow with
//! the graph only by a heap's (or a collected log's) capacity doublings.
//!
//! A counting global allocator measures both. This file is its own test
//! crate, so the `unsafe impl` the allocator trait demands does not touch
//! the routing crate's `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow_graph::{DiGraph, NodeIx};
use sflow_routing::shortest_widest::{
    self, settle_csr, single_source_csr, single_source_moved_csr,
};
use sflow_routing::{classic, Bandwidth, DijkstraScratch, Latency, PathTree, Qos, QosCsr};

/// Counts the allocator calls (allocations and reallocations) each thread
/// makes, so a test can bracket one call without hearing its neighbours
/// (`cargo test` runs tests on parallel threads).
struct CountingAllocator;

thread_local! {
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell<usize>` with a const initialiser, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocator calls this thread made while `f` ran.
fn allocations_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// A returned tree owns four arrays: per-node QoS, per-node level, and the
/// version chains' offsets and entries.
const TREE_ALLOCATIONS: usize = 4;

/// A strongly connected `n`-node graph (a ring both ways plus `3n` seeded
/// chords) whose bandwidths come from eight values, so the sweep meets
/// several bottleneck levels and many ties.
fn graph(n: usize) -> DiGraph<(), Qos> {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut g = DiGraph::new();
    let ids: Vec<NodeIx> = (0..n).map(|_| g.add_node(())).collect();
    let mut links: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| [(a, (a + 1) % n), ((a + 1) % n, a)])
        .collect();
    for _ in 0..3 * n {
        links.push((rng.gen_range(0..n), rng.gen_range(0..n)));
    }
    for (a, b) in links {
        if a != b {
            let bandwidth = Bandwidth::kbps(10 * rng.gen_range(1..=8));
            let latency = Latency::from_micros(rng.gen_range(1..=20));
            g.add_edge(ids[a], ids[b], Qos::new(bandwidth, latency));
        }
    }
    g
}

#[test]
fn a_warmed_sweep_allocates_only_the_tree_it_returns() {
    for n in [20, 80, 400] {
        let g = graph(n);
        let csr = QosCsr::new(&g);
        let mut scratch = DijkstraScratch::new();
        // One pass grows the scratch to what any source of this graph needs.
        for s in g.node_ids() {
            single_source_csr(&csr, s, &mut scratch);
        }
        let mut levels = Vec::new();
        for s in g.node_ids() {
            let (tree, calls) = allocations_by(|| single_source_csr(&csr, s, &mut scratch));
            assert_eq!(
                calls,
                TREE_ALLOCATIONS,
                "{n} nodes, source {}: {} levels",
                s.index(),
                tree.level_count()
            );
            levels.push(tree.level_count());
        }
        // The graphs are meant to exercise the level loop, not one level.
        assert!(levels.iter().any(|&l| l > 1), "{n} nodes: {levels:?}");
    }
}

#[test]
fn a_warmed_cut_short_sweep_allocates_only_the_tree_it_returns() {
    for n in [20, 80, 400] {
        let mut g = graph(n);
        let mut scratch = DijkstraScratch::new();
        let shadows: Vec<PathTree> = {
            let csr = QosCsr::new(&g);
            g.node_ids()
                .map(|s| single_source_csr(&csr, s, &mut scratch))
                .collect()
        };
        // A pure cut: every seventh of the widest links halved, so the
        // narrow levels a sweep ends at keep their nodes.
        let wide = Bandwidth::kbps(60);
        let edges: Vec<_> = g
            .edges()
            .filter(|e| e.weight.bandwidth >= wide)
            .map(|e| e.id)
            .step_by(7)
            .collect();
        for edge in edges {
            let w = *g.edge(edge);
            *g.edge_mut(edge) = Qos::new(Bandwidth::kbps(w.bandwidth.as_kbps() / 2), w.latency);
        }
        let csr = QosCsr::new(&g);
        // Marked: every node whose answer the cut changed, which covers
        // every node whose widest bandwidth it lowered. A row is swept for
        // a moved destination, so a row with none that a path still
        // reaches is not read.
        let rows: Vec<(&PathTree, Vec<bool>)> = shadows
            .iter()
            .filter_map(|shadow| {
                let full = single_source_csr(&csr, shadow.source(), &mut scratch);
                let moved: Vec<bool> = g
                    .node_ids()
                    .map(|x| full.qos_to(x) != shadow.qos_to(x))
                    .collect();
                let read = g
                    .node_ids()
                    .any(|x| moved[x.index()] && full.qos_to(x).is_some());
                read.then_some((shadow, moved))
            })
            .collect();
        for (shadow, moved) in &rows {
            single_source_moved_csr(&csr, shadow, moved, &mut scratch);
        }
        let mut cut_short = 0;
        for &(shadow, ref moved) in &rows {
            let ((tree, complete), calls) =
                allocations_by(|| single_source_moved_csr(&csr, shadow, moved, &mut scratch));
            assert_eq!(
                calls,
                TREE_ALLOCATIONS,
                "{n} nodes, source {}: {} levels",
                shadow.source().index(),
                tree.level_count()
            );
            cut_short += usize::from(!complete);
        }
        // The cut is meant to leave sweeps that stop early.
        assert!(cut_short > 0, "{n} nodes: every sweep ran to the end");
    }
}

/// A bounded sweep answers in the scratch: warmed, it allocates nothing,
/// whatever the graph's size.
const SETTLE_ALLOCATIONS: usize = 0;

#[test]
fn a_warmed_bounded_sweep_allocates_nothing() {
    for n in [20, 80, 400] {
        let g = graph(n);
        let csr = QosCsr::new(&g);
        let mut scratch = DijkstraScratch::new();
        // Every third node, at its widest bandwidth from each source.
        let wants: Vec<Vec<Option<Bandwidth>>> = g
            .node_ids()
            .map(|s| {
                let tree = single_source_csr(&csr, s, &mut scratch);
                g.node_ids()
                    .map(|x| {
                        let named = x.index() % 3 == 0 && x != s;
                        tree.qos_to(x).filter(|_| named).map(|qos| qos.bandwidth)
                    })
                    .collect()
            })
            .collect();
        for (s, want) in g.node_ids().zip(&wants) {
            settle_csr(&csr, s, want, &mut scratch);
        }
        for (s, want) in g.node_ids().zip(&wants) {
            let (_, calls) = allocations_by(|| {
                std::hint::black_box(settle_csr(&csr, s, want, &mut scratch));
            });
            assert_eq!(calls, SETTLE_ALLOCATIONS, "{n} nodes, source {}", s.index());
        }
    }
}

/// The graph sizes the ablation kernels run at: from the first to the last
/// a growing buffer doubles about log2(80) ≈ 6.3 times, while a kernel that
/// allocated once per pop would make ~1580 more calls.
const SIZES: [usize; 4] = [20, 80, 400, 1600];

/// What the calls of an ablation kernel may grow by across [`SIZES`]: seven
/// doublings of up to four growing buffers.
const MAX_GROWTH: usize = 4 * 7;

/// Allocator calls of one run of `kernel` from node 0, at each of [`SIZES`].
fn kernel_allocations<T>(kernel: fn(&DiGraph<(), Qos>, NodeIx) -> T) -> Vec<usize> {
    SIZES
        .iter()
        .map(|&n| {
            let g = graph(n);
            allocations_by(|| std::hint::black_box(kernel(&g, NodeIx::from_index(0)))).1
        })
        .collect()
}

#[test]
fn the_ablation_kernels_allocate_per_doubling_never_per_pop() {
    for (name, calls) in [
        ("classic::widest", kernel_allocations(classic::widest)),
        ("classic::shortest", kernel_allocations(classic::shortest)),
        (
            "single_source_lexicographic",
            kernel_allocations(shortest_widest::single_source_lexicographic),
        ),
    ] {
        assert!(
            calls[SIZES.len() - 1] - calls[0] <= MAX_GROWTH,
            "{name}: {calls:?} allocator calls at {SIZES:?} nodes"
        );
    }
}
