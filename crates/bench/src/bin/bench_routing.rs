//! `bench_routing` — evidence emitter for the routing engine.
//!
//! Times the two ways the workspace builds/maintains its all-pairs
//! shortest-widest table — a from-scratch sequential build ([`all_pairs`],
//! `build_us`) and incremental epoch derivation
//! ([`patched_with`](sflow_routing::AllPairs::patched_with)) — over the
//! paper's Fig. 4 overlay, a 200-node random overlay, the 80-instance
//! overlay `bench_e2e` serves (`waxman-400-overlay`) and 2k/10k-node Waxman
//! topologies, then writes the numbers to `BENCH_routing.json` at the
//! repository root.
//!
//! The patch rows are the headline, in four shapes. A *jitter pair* shaves
//! 1 kbit/s off one random link and puts it back, latency untouched; a
//! *forest pair* halves five random links in one batch and puts them back
//! in one batch — what founding and dissolving a forest does to the load
//! plane's table; a *latency pair* doubles one random link's latency and
//! puts it back, bandwidth untouched; a *widen* doubles one random link's
//! bandwidth off the baseline table. The cut exercises the loss floor
//! (trees whose recorded paths bottleneck at or below the surviving
//! bandwidth are provably clean), the latency pair the zero floor of a
//! slow-down (a tree is shadowed exactly if a path it reports crosses the
//! edge, at any level), the widen the gain rule (a tree is stale exactly if
//! its source reaches the widened edge's tail). The *undo* rows put a cut
//! back exactly: a patch judges each tree by the net change since its
//! sweep, so a kept tree is held as it is and a shadow hands its tree back.
//! A row the sample's reads swept since the cut holds that tree alone, and
//! the undo, a gain whose tail its source reaches, leaves it stale.
//! Each sample also undoes its change on a successor nobody read, and
//! asserts that this recomputes no tree. Each direction reports what the
//! *coarse* rules — any-traversal for cuts, reach-the-tail for everything
//! else — would have recomputed on the same samples, and `plan_us`: the
//! median wall time of a patch that recomputed no tree — the dirty plan,
//! the CSR reweight and one refcount bump per tree. Its samples are the
//! patches that recomputed none; a cut's are every sample replayed
//! [`PLAN_ROUNDS`] times against the table it produced (see
//! [`patch_sample`]), each replay followed by a kernel reference, and a
//! widen books every sample's patch alone, which sweeps nothing.
//! `plan_samples` says how many there were, `null` if none. On
//! [`PLAN_GATED`]'s worlds the shave's `plan_us` must stay below the median
//! of its kernel references, and the widen's below one kernel tree
//! (`us_per_tree`): a patch costs what it changed. On every world each
//! widen must recompute exactly the trees the coarse rule does, and each
//! slow-down exactly the trees with the edge on a *reported* path — the
//! fewest any sound rule can recompute, which the row also reports. Every
//! sample also asserts the
//! epoch-sharing contract: the successor table shares exactly
//! `materialised(pred) − trees_recomputed` trees with its predecessor by
//! `Arc` pointer — deriving an epoch never clones the world. A patch only
//! plans and leaves the trees it invalidated stale, or after a cut
//! shadowed, to be swept on their first read (of a destination the cut
//! moved); each sample reads every row of the successor inside its
//! timing, so a row still costs plan plus sweep, and the next sample
//! patches a fully materialised table (`trees_total` materialised). The
//! cut rows also report `avg_moved_share`: per tree the cut invalidated,
//! the destinations it moved over those the tree reaches — what a reader
//! of that row still has to sweep for. Before the successor is read in
//! full, a copy of it reads the `qos` and `path` of every destination the
//! cut moved in each shadowed row — cut-short sweeps, each stopping once
//! the row's last moved destination settles — and the cut rows report
//! that time against the full sweeps of the same rows (`moved_reads`:
//! `share` is the first over the second, `rows_materialised` the rows
//! whose cut-short sweep reached the last level). On worlds of at most
//! [`WORK_COUNTED_NODES`] nodes the same sweeps are also run directly
//! and their label updates counted, a share that repeats exactly
//! (`label_update_share`). On `waxman-400-overlay` the forest cut's label
//! update share must stay at most [`MAX_MOVED_READ_WORK`] and its time
//! share at most [`MAX_MOVED_READ_SHARE`], a ratio of two timings of one
//! run.
//!
//! Each world also records `csr_build_us`, the cost of deriving the
//! [`QosCsr`] index every build starts with, and `csr_reweight_us`, what a
//! patch pays instead once a forest cut moved [`FOREST_LINKS`] links
//! ([`QosCsr::reweighted`] from the cut's change list). On [`PLAN_GATED`]'s
//! worlds the reweight must cost at most [`MAX_REWEIGHT_SHARE`] of the
//! build, a ratio of two timings of one run. Each world also records a `kernel`
//! block from one direct sequential sweep of [`single_source_csr`] over every
//! source: µs per tree beside the counts that predict it and repeat exactly
//! from run to run — bottleneck levels per source, label decreases per
//! source (the sweep's unit of work), `(label, predecessor)` entries stored
//! per tree, and those entries as a share of the `levels × nodes` slots one
//! predecessor array per level would hold. On the 2k-node Waxman world that
//! share is gated ([`MAX_ENTRY_SHARE`]): a kernel that goes back to
//! `O(L · V)` memory per tree fails on any machine.
//!
//! On [`LINEAGE_WORLDS`] a `lineage` row runs [`LINEAGE_PATCHES`] patches
//! that never undo one another: widens and shaves alternate, each on a link
//! no earlier patch touched, and every row of each successor is read
//! before the next patch. A tree's net change since its sweep only grows
//! there, so the row reports how a patch's plan time moves along such a
//! lineage: the median over its patches, the first and the last, with the
//! trees the lineage recomputed and restored. It is reported, not gated.
//!
//! An `underlay_pricing` block times what `OverlayGraph::build_with` pays
//! at set-up on the world `bench_e2e` serves: the shortest-widest QoS
//! between every two of the 71 underlay hosts that carry an instance.
//! `per_host_trees_ms` is the reference, one [`single_source_csr`] tree
//! per host; `pair_qos_ms` is `UnderlyingNetwork::pair_qos`, one maximum
//! spanning forest and one bounded sweep per host. Both include deriving
//! the [`QosCsr`], each is the median of [`PRICING_REPS`] interleaved
//! runs, and `levels_per_tree_mean` is the reference trees' mean level
//! count. Every pair must agree, and `pair_qos_ms` must stay at most
//! [`MAX_PRICING_SHARE`] of `per_host_trees_ms`, a ratio of two timings
//! of one run.
//!
//! A `repair_reprice` block times what a mutation's repair sweep pays per
//! booking on the same world: [`REPAIR_BOOKINGS`] sFlow-solved
//! requirements of the Fig. 10 mix are repaired after the overlay link
//! most of them cross is halved, after it is restored, and after the
//! instance most of them select fails (a tombstone, as the server fails
//! it: the fixture's table patched for the cut). Each row counts the bookings
//! `repair` re-priced, re-solved and re-federated, and times it against the
//! repair before re-pricing (a pinned re-solve, a full solve if that
//! fails), median of [`REPAIR_REPS`] interleaved runs; every repair must
//! equal that reference. After a QoS change every booking must be
//! re-priced, at most [`MAX_REPRICE_SHARE`] of the reference's time, again
//! two timings of one run.
//!
//! A `fail_instance` block fails that instance again, from the fixture's
//! table, as `World::apply` does: `OverlayGraph::with_failed` tombstones
//! it and cuts its links, and one [`patched_with`](AllPairs::patched_with)
//! plans the cut (`apply_ms`). Then the QoS and path of every live pair
//! are read (`read_ms`; `rows_swept` counts the rows those reads swept —
//! the rest answer from their shadows). The reference is the renumbering
//! rebuild it replaced, `without_instances` and a fresh table
//! (`reference_ms`). Every live pair must equal the reference's, node ids
//! mapped across, and `apply_ms + read_ms` must stay at most
//! [`MAX_FAIL_SHARE`] of `reference_ms`, medians of [`FAIL_REPS`]
//! interleaved runs.
//!
//! Everything runs on the caller's thread; `available_parallelism` is
//! recorded as a fact about the machine. Pass `--max-nodes N` to skip
//! worlds larger than `N` (CI uses `--max-nodes 2000`; the 10k world is a
//! local run).

#![forbid(unsafe_code)]
#![expect(clippy::print_stdout)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow_bench::{median, usize_flag, write_report};
use sflow_core::fixtures::{paper_fig4_fixture, random_fixture, Fixture};
use sflow_core::repair::repair;
use sflow_core::{
    FederationContext, FlowEdge, FlowGraph, FlowQuality, Selection, ServiceRequirement, Solver,
};
use sflow_graph::{DiGraph, EdgeIx, NodeIx};
use sflow_net::{HostId, OverlayGraph, ServiceId, ServiceInstance};
use sflow_routing::shortest_widest::{single_source_csr, single_source_moved_csr};
use sflow_routing::{
    all_pairs, AllPairs, Bandwidth, DijkstraScratch, EdgeChange, Latency, Qos, QosCsr,
};
use sflow_workload::generator::{mixed_kind, random_requirement};

/// Timing repetitions per measurement (median reported), scaled down for
/// the big worlds so a run stays tractable.
fn reps_for(nodes: usize) -> usize {
    if nodes <= 500 {
        5
    } else if nodes <= 4_000 {
        3
    } else {
        1
    }
}

/// Most a tree may store, as a share of its `levels × nodes` slots, on the
/// 2k-node Waxman world: measured 0.4263 (6.6 entries per node over 15.4
/// levels — a sparse graph over twenty bandwidths, where every level moves
/// about half the labels), against 1.0 for one predecessor array per level.
const MAX_ENTRY_SHARE: f64 = 0.6;

/// Links cut and restored together in one forest pair.
const FOREST_LINKS: usize = 5;

/// Worlds whose shave and widen `plan_us` must stay below one kernel tree:
/// what a patch pays beyond its dirty trees — the plan (for a widen, one
/// reverse pass from the widened tail), the CSR reweight and a refcount
/// bump per tree — is gated to be less than the one tree it would
/// otherwise recompute.
const PLAN_GATED: [&str; 3] = ["random-200", "waxman-400-overlay", "waxman-2000"];

/// Times each cut sample's plan is replayed, each replay followed by a
/// kernel reference of [`REFERENCE_TREES`] trees: on random-200 the plan
/// and the tree are within a fifth of each other, so the two are timed
/// side by side, not minutes apart.
const PLAN_ROUNDS: usize = 5;

/// Trees one kernel reference sweeps, from sources spread over the world
/// and shifted by one each round.
const REFERENCE_TREES: usize = 8;

/// Most a forest cut's CSR reweight may cost, as a share of deriving the
/// CSR afresh, on [`PLAN_GATED`]'s worlds: the reweight copies two weight
/// arrays and writes the changed slots, where a build reads every edge of
/// the graph and sorts every slot.
const MAX_REWEIGHT_SHARE: f64 = 0.25;

/// Most label updates the forest cut's moved reads may make on
/// `waxman-400-overlay`, as a share of sweeping the same rows in full: a
/// read of a destination a cut moved sweeps its row only until the row's
/// last moved destination has settled. Measured 0.37.
const MAX_MOVED_READ_WORK: f64 = 0.5;

/// Most the same reads may take there, as a share of the full sweeps'
/// time. Measured 0.50–0.52: a cut-short sweep still pays most of the
/// widest pass (the moved nodes' bottlenecks fell, so they pop late) and
/// the first levels, which carry a large part of a sweep's pops. A sweep
/// that no longer stops early reads above 1.
const MAX_MOVED_READ_SHARE: f64 = 0.75;

/// Worlds up to this size also count the moved reads' label updates,
/// sweeping each shadowed row once more in full to compare.
const WORK_COUNTED_NODES: usize = 500;

/// The worlds the `lineage` row runs on.
const LINEAGE_WORLDS: [&str; 2] = ["random-200", "waxman-400-overlay"];

/// Patches in the `lineage` row.
const LINEAGE_PATCHES: usize = 48;

/// Cut/restore pairs sampled per world for each shape of patch row.
fn patch_pairs_for(nodes: usize) -> usize {
    if nodes <= 4_000 {
        10
    } else {
        5
    }
}

/// Times `f` `reps` times and returns the median wall-clock in µs.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> u128 {
    let samples = (0..reps)
        .map(|_| {
            let started = Instant::now();
            let out = f();
            let us = started.elapsed().as_micros();
            drop(out);
            us
        })
        .collect();
    median(samples)
}

fn random_qos(rng: &mut StdRng) -> Qos {
    Qos::new(
        Bandwidth::kbps(rng.gen_range(1..=20)),
        Latency::from_micros(rng.gen_range(1..=1_000)),
    )
}

/// A random 200-node overlay-shaped graph: out-degree ~8, bandwidths drawn
/// from a small domain (1..=20 kbit/s) so the per-level latency passes of
/// the exact algorithm have real work to do.
fn random_overlay(nodes: usize, out_degree: usize, seed: u64) -> DiGraph<(), Qos> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g: DiGraph<(), Qos> = DiGraph::new();
    let ids: Vec<_> = (0..nodes).map(|_| g.add_node(())).collect();
    for &from in &ids {
        for _ in 0..out_degree {
            let to = ids[rng.gen_range(0..nodes)];
            if to == from {
                continue;
            }
            let qos = random_qos(&mut rng);
            g.add_edge(from, to, qos);
        }
    }
    g
}

/// A Waxman random topology (Waxman, JSAC 1988): nodes uniform in the unit
/// square, each ordered pair linked with probability `α·exp(−d/(β·L))`
/// where `d` is Euclidean distance and `L = √2` the square's diameter. `α`
/// is calibrated on a pair sample so the expected out-degree hits
/// `target_out_degree` — the standard shape for internet-like overlay
/// benchmarks (locality-biased, a few long-haul links).
fn waxman_overlay(nodes: usize, target_out_degree: f64, seed: u64) -> DiGraph<(), Qos> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pos: Vec<(f64, f64)> = (0..nodes)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let beta = 0.4_f64;
    let diameter = std::f64::consts::SQRT_2;
    let decay = |a: (f64, f64), b: (f64, f64)| {
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        (-d / (beta * diameter)).exp()
    };

    // Calibrate α on a sample of pairs so E[out-degree] ≈ target.
    let samples = 20_000;
    let mut acc = 0.0;
    let mut counted = 0usize;
    while counted < samples {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a == b {
            continue;
        }
        acc += decay(pos[a], pos[b]);
        counted += 1;
    }
    let alpha = target_out_degree / ((nodes - 1) as f64 * (acc / counted as f64));

    let mut g: DiGraph<(), Qos> = DiGraph::new();
    let ids: Vec<_> = (0..nodes).map(|_| g.add_node(())).collect();
    for i in 0..nodes {
        for j in 0..nodes {
            if i == j {
                continue;
            }
            if rng.gen::<f64>() < alpha * decay(pos[i], pos[j]) {
                let qos = random_qos(&mut rng);
                g.add_edge(ids[i], ids[j], qos);
            }
        }
    }
    g
}

/// Aggregated patch stats for one direction (cut, undo or widen).
/// `coarse` holds, per sample, how many trees the coarse rules —
/// any-traversal for cuts, reach-the-tail for everything else — would have
/// recomputed on the same batch. `plans` holds the wall times of patches
/// that recomputed no tree, or of every patch alone (see [`patch_sample`]).
#[derive(Default)]
struct PatchDir {
    times: Vec<u128>,
    trees: Vec<u64>,
    coarse: Vec<u64>,
    plans: Vec<u128>,
    /// Per tree a cut invalidated, the share of its reachable destinations
    /// the cut moved (see [`moved_shares`]).
    moved_shares: Vec<f64>,
    /// What reading the cuts' moved destinations cost, over every sample.
    moved_reads: MovedReads,
    /// Book every sample's plan — the patch alone, which sweeps nothing —
    /// in `plans`, not only the samples that recomputed no tree.
    plan_alone: bool,
    /// For a cut, the kernel references timed between its plan replays:
    /// ns per tree.
    kernel_refs: Vec<u128>,
}

/// The reads of every destination a cut moved in the rows it shadowed,
/// against sweeping those rows in full (see [`patch_sample`]).
#[derive(Default)]
struct MovedReads {
    rows: usize,
    reads: usize,
    /// Rows whose cut-short sweep reached the last level: their tree.
    rows_materialised: usize,
    /// The `qos` and `path` reads of the moved destinations.
    cut_short: Duration,
    /// Reading every row of the successor, which sweeps the shadowed ones.
    full: Duration,
    /// Label updates of the same cut-short and full sweeps, run directly;
    /// both 0 on a world larger than [`WORK_COUNTED_NODES`].
    cut_short_updates: u64,
    full_updates: u64,
}

impl MovedReads {
    /// `cut_short` over `full`, `None` before any row was read.
    fn share(&self) -> Option<f64> {
        (self.rows > 0).then(|| self.cut_short.as_secs_f64() / self.full.as_secs_f64())
    }

    /// `cut_short_updates` over `full_updates`, `None` if none were counted.
    fn work_share(&self) -> Option<f64> {
        (self.full_updates > 0).then(|| self.cut_short_updates as f64 / self.full_updates as f64)
    }

    fn json(&self) -> String {
        let ratio = |share: Option<f64>| share.map_or("null".to_string(), |s| format!("{s:.4}"));
        format!(
            "{{\"rows\": {}, \"reads\": {}, \"rows_materialised\": {}, \"cut_short_us\": {}, \
             \"full_us\": {}, \"share\": {}, \"label_update_share\": {}}}",
            self.rows,
            self.reads,
            self.rows_materialised,
            self.cut_short.as_micros(),
            self.full.as_micros(),
            ratio(self.share()),
            ratio(self.work_share()),
        )
    }
}

/// Reads, on a copy of `next`, the `qos` and `path` of every destination
/// the cut moved in each row it shadowed, into `reads`. On a world of at
/// most [`WORK_COUNTED_NODES`] nodes it also runs each such row's
/// cut-short sweep — from the row's tree in `pred`, its shadow — and its
/// full sweep over `world` directly, counting their label updates.
fn read_moved<N>(
    pred: &AllPairs,
    next: &AllPairs,
    world: &DiGraph<N, Qos>,
    reads: &mut MovedReads,
) {
    let nodes = || (0..next.len()).map(NodeIx::from_index);
    let moved: Vec<(NodeIx, Vec<bool>)> = nodes()
        .filter(|&u| next.moved(u).is_some())
        .map(|u| (u, nodes().map(|x| next.is_moved(u, x)).collect()))
        .collect();
    if next.len() <= WORK_COUNTED_NODES {
        let csr = QosCsr::new(world);
        let (mut short, mut full) = (DijkstraScratch::new(), DijkstraScratch::new());
        for (u, mask) in &moved {
            single_source_moved_csr(&csr, pred.tree(*u), mask, &mut short);
            single_source_csr(&csr, *u, &mut full);
        }
        reads.cut_short_updates += short.label_updates();
        reads.full_updates += full.label_updates();
    }
    let moved: Vec<(NodeIx, Vec<NodeIx>)> = moved
        .into_iter()
        .map(|(u, mask)| (u, nodes().filter(|x| mask[x.index()]).collect()))
        .collect();
    let table = next.clone();
    let before = table.materialised();
    let started = Instant::now();
    for (u, destinations) in &moved {
        for &x in destinations {
            black_box((table.qos(*u, x), table.path(*u, x)));
        }
    }
    reads.cut_short += started.elapsed();
    reads.rows += moved.len();
    reads.reads += moved.iter().map(|(_, d)| d.len()).sum::<usize>();
    reads.rows_materialised += table.materialised() - before;
}

fn avg(samples: &[u128]) -> u128 {
    samples.iter().sum::<u128>() / samples.len().max(1) as u128
}

impl PatchDir {
    fn avg_us(&self) -> u128 {
        avg(&self.times)
    }
    /// The median of `plans`, `None` if there are none.
    fn plan_us(&self) -> Option<u128> {
        (!self.plans.is_empty()).then(|| median(self.plans.clone()))
    }
    /// The median kernel reference in µs per tree, `None` if none ran.
    fn kernel_ref_us(&self) -> Option<f64> {
        (!self.kernel_refs.is_empty()).then(|| median(self.kernel_refs.clone()) as f64 / 1e3)
    }
    /// [`PatchDir::plan_us`] as JSON.
    fn plan_us_json(&self) -> String {
        self.plan_us()
            .map_or("null".to_string(), |us| us.to_string())
    }
    fn avg_trees(&self) -> f64 {
        self.trees.iter().sum::<u64>() as f64 / self.trees.len().max(1) as f64
    }
    fn max_trees(&self) -> u64 {
        self.trees.iter().copied().max().unwrap_or(0)
    }
    fn avg_coarse(&self) -> f64 {
        self.coarse.iter().sum::<u64>() as f64 / self.coarse.len().max(1) as f64
    }
    fn max_coarse(&self) -> u64 {
        self.coarse.iter().copied().max().unwrap_or(0)
    }
    /// The mean of `moved_shares` as JSON, `null` if there are none.
    fn avg_moved_share_json(&self) -> String {
        let shares = &self.moved_shares;
        if shares.is_empty() {
            return "null".to_string();
        }
        format!("{:.4}", shares.iter().sum::<f64>() / shares.len() as f64)
    }
}

/// Trees the coarse cut rule would recompute: every tree in `table`
/// traversing one of `edges` at any bandwidth level.
fn coarse_cut_trees<N>(table: &AllPairs, g: &DiGraph<N, Qos>, edges: &[EdgeIx]) -> u64 {
    let mut marked = vec![false; g.edge_count()];
    for edge in edges {
        marked[edge.index()] = true;
    }
    g.node_ids()
        .filter(|&s| table.tree(s).traverses_any(&marked))
        .count() as u64
}

/// Trees the coarse restore rule would recompute: every source that can
/// reach the tail of one of `edges` over positive-bandwidth links.
fn coarse_restore_trees<N>(g: &DiGraph<N, Qos>, edges: &[EdgeIx]) -> u64 {
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    for &edge in edges {
        let (tail, _, _) = g.edge_parts(edge);
        if !seen[tail.index()] {
            seen[tail.index()] = true;
            queue.push_back(tail);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &eid in g.in_edge_ids(v) {
            let (from, _, w) = g.edge_parts(eid);
            if w.bandwidth == Bandwidth::ZERO || seen[from.index()] {
                continue;
            }
            seen[from.index()] = true;
            queue.push_back(from);
        }
    }
    seen.iter().filter(|&&s| s).count() as u64
}

/// One direct sequential sweep of the kernel over every source.
struct KernelSweep {
    us_per_tree: f64,
    levels_mean: f64,
    label_updates_mean: f64,
    entries_mean: f64,
    /// Entries stored over `levels × nodes` slots, summed over the trees.
    entry_share: f64,
}

fn kernel_sweep<N>(g: &DiGraph<N, Qos>) -> KernelSweep {
    let csr = QosCsr::new(g);
    let mut scratch = DijkstraScratch::new();
    let (mut levels, mut entries) = (0usize, 0usize);
    let started = Instant::now();
    for s in g.node_ids() {
        let tree = single_source_csr(&csr, s, &mut scratch);
        levels += tree.level_count();
        entries += tree.stored_entries();
    }
    let us = started.elapsed().as_secs_f64() * 1e6;
    let sources = g.node_count().max(1) as f64;
    KernelSweep {
        us_per_tree: us / sources,
        levels_mean: levels as f64 / sources,
        label_updates_mean: scratch.label_updates() as f64 / sources,
        entries_mean: entries as f64 / sources,
        entry_share: entries as f64 / (levels * g.node_count()).max(1) as f64,
    }
}

/// Interleaved timing runs of each underlay pricing.
const PRICING_REPS: usize = 15;

/// The most `pair_qos_ms` may take, as a share of `per_host_trees_ms`.
const MAX_PRICING_SHARE: f64 = 0.6;

/// The underlay pricing `OverlayGraph::build_with` does, against one full
/// tree per host.
struct UnderlayPricing {
    hosts: usize,
    pairs: usize,
    levels_mean: f64,
    per_host_trees_ms: f64,
    pair_qos_ms: f64,
}

fn underlay_pricing(fixture: &Fixture) -> UnderlayPricing {
    let net = &fixture.net;
    let mut hosts: Vec<HostId> = fixture
        .overlay
        .graph()
        .nodes()
        .map(|(_, i)| i.host)
        .collect();
    hosts.sort_unstable();
    hosts.dedup();
    let nodes: Vec<NodeIx> = hosts.iter().map(|&h| net.node_of(h)).collect();
    let per_host_trees = || {
        let csr = QosCsr::new(net.graph());
        let mut scratch = DijkstraScratch::new();
        nodes
            .iter()
            .map(|&s| single_source_csr(&csr, s, &mut scratch))
            .collect::<Vec<_>>()
    };
    let trees = per_host_trees();
    let priced = net.pair_qos(&hosts);
    for (i, tree) in trees.iter().enumerate() {
        for (j, &to) in nodes.iter().enumerate() {
            assert_eq!(
                priced.qos(i, j),
                tree.qos_to(to),
                "pair_qos and the full tree disagree from {} to {}",
                hosts[i],
                hosts[j],
            );
        }
    }
    let (mut tree_us, mut pair_us) = (Vec::new(), Vec::new());
    for _ in 0..PRICING_REPS {
        tree_us.push(time_us(1, per_host_trees));
        pair_us.push(time_us(1, || net.pair_qos(&hosts)));
    }
    let levels: usize = trees.iter().map(|t| t.level_count()).sum();
    UnderlayPricing {
        hosts: hosts.len(),
        pairs: hosts.len() * hosts.len().saturating_sub(1) / 2,
        levels_mean: levels as f64 / trees.len().max(1) as f64,
        per_host_trees_ms: median(tree_us) as f64 / 1e3,
        pair_qos_ms: median(pair_us) as f64 / 1e3,
    }
}

/// Requirements the `repair_reprice` block books on the world `bench_e2e`
/// serves.
const REPAIR_BOOKINGS: usize = 32;

/// Interleaved timing runs per `repair_reprice` row (median reported).
const REPAIR_REPS: usize = 15;

/// The most re-pricing a surviving booking may cost, as a share of
/// re-solving it with every service pinned.
const MAX_REPRICE_SHARE: f64 = 0.5;

/// One change of the `repair_reprice` block: how `repair` treated the
/// bookings, and per booking what it and the repair before re-pricing (a
/// pinned re-solve, a full solve if that fails) cost.
struct RepairRow {
    change: &'static str,
    repriced: usize,
    resolved: usize,
    refederated: usize,
    repair_us: f64,
    reference_us: f64,
}

/// A flow's answer: selection, streams and quality.
fn answer(flow: &FlowGraph) -> (&Selection, &[FlowEdge], FlowQuality) {
    (flow.selection(), flow.edges(), flow.quality())
}

/// [`REPAIR_BOOKINGS`] feasible 4–6-service requirements of the Fig. 10
/// mix, sFlow-solved on `fixture`.
fn book_requirements(fixture: &Fixture) -> Vec<(ServiceRequirement, FlowGraph)> {
    let ctx = fixture.context();
    let mut rng = StdRng::seed_from_u64(42);
    let mut bookings = Vec::new();
    for attempt in 0..20 * REPAIR_BOOKINGS {
        if bookings.len() == REPAIR_BOOKINGS {
            break;
        }
        let mut services: Vec<ServiceId> = (1..10).map(ServiceId::new).collect();
        for i in 0..services.len() {
            let j = rng.gen_range(i..services.len());
            services.swap(i, j);
        }
        services.truncate(rng.gen_range(3..=5));
        services.insert(0, ServiceId::new(0));
        let req = random_requirement(&services, mixed_kind(attempt), &mut rng);
        if let Ok(flow) = Solver::new(&ctx).solve(&req) {
            bookings.push((req, flow));
        }
    }
    assert_eq!(
        bookings.len(),
        REPAIR_BOOKINGS,
        "too few feasible requirements"
    );
    bookings
}

/// Repairs every booking over `overlay` routed by `table`, asserting each
/// repair equal to the repair before re-pricing, times both, and leaves
/// the repaired flows in `bookings`.
fn repair_row(
    change: &'static str,
    overlay: &OverlayGraph,
    table: &AllPairs,
    source: NodeIx,
    bookings: &mut [(ServiceRequirement, FlowGraph)],
) -> RepairRow {
    let ctx = FederationContext::new(overlay, table, source);
    let solver = Solver::new(&ctx);
    let reference = |req: &ServiceRequirement, flow: &FlowGraph| {
        let survivors = flow.instances().iter();
        let mut pins: Selection = survivors
            .filter_map(|(&sid, &i)| Some((sid, overlay.node_of(i)?)))
            .collect();
        pins.insert(req.source(), source);
        match solver.solve_pinned(req, &pins) {
            Ok(flow) => Ok((flow, false)),
            Err(_) => solver.solve(req).map(|flow| (flow, true)),
        }
    };
    let (mut repriced, mut resolved, mut refederated) = (0, 0, 0);
    let mut repaired = Vec::new();
    for (req, flow) in bookings.iter() {
        let outcome = repair(&ctx, req, flow).expect("every booking repairs");
        let (want, want_refederated) = reference(req, flow).expect("the reference repairs");
        assert_eq!(
            (answer(&outcome.flow), outcome.full_refederation),
            (answer(&want), want_refederated),
            "{change}: re-pricing changed a repair"
        );
        if outcome.repriced() {
            repriced += 1;
        } else if outcome.full_refederation {
            refederated += 1;
        } else {
            resolved += 1;
        }
        repaired.push(outcome.flow);
    }
    // Interleaved runs over all bookings; the medians, per booking.
    let (mut repair_us, mut reference_us) = (Vec::new(), Vec::new());
    for _ in 0..REPAIR_REPS {
        repair_us.push(time_us(1, || {
            for (req, flow) in bookings.iter() {
                black_box(repair(&ctx, req, flow).ok());
            }
        }));
        reference_us.push(time_us(1, || {
            for (req, flow) in bookings.iter() {
                black_box(reference(req, flow).ok());
            }
        }));
    }
    let per_booking = |us: Vec<u128>| median(us) as f64 / bookings.len() as f64;
    let (repair_us, reference_us) = (per_booking(repair_us), per_booking(reference_us));
    for ((_, flow), now) in bookings.iter_mut().zip(repaired) {
        *flow = now;
    }
    RepairRow {
        change,
        repriced,
        resolved,
        refederated,
        repair_us,
        reference_us,
    }
}

/// The `repair_reprice` block: books [`REPAIR_BOOKINGS`] flows on
/// `fixture`, halves and then restores the overlay link most of them
/// cross, then fails the instance most of them select (a tombstone, the
/// fixture's table patched for the cut), and reports a [`repair_row`]
/// after each change. Also returns how many bookings cross the link, and
/// the failed instance.
fn repair_reprice(fixture: &Fixture) -> (usize, ServiceInstance, Vec<RepairRow>) {
    let mut bookings = book_requirements(fixture);
    let mut crossing: BTreeMap<(NodeIx, NodeIx), usize> = BTreeMap::new();
    let mut selecting: BTreeMap<ServiceInstance, usize> = BTreeMap::new();
    let source = fixture.overlay.instance(fixture.source);
    for (_, flow) in &bookings {
        let links: BTreeSet<(NodeIx, NodeIx)> = flow
            .edges()
            .iter()
            .flat_map(|e| e.overlay_path.windows(2).map(|w| (w[0], w[1])))
            .collect();
        for link in links {
            *crossing.entry(link).or_default() += 1;
        }
        for &instance in flow.instances().values().filter(|&&i| i != source) {
            *selecting.entry(instance).or_default() += 1;
        }
    }
    let (&(from, to), &link_users) = crossing.iter().max_by_key(|&(_, n)| n).expect("a link");
    let (&victim, _) = selecting.iter().max_by_key(|&(_, n)| n).expect("a victim");
    let graph = fixture.overlay.graph();
    let original = *graph.edge(graph.find_edge(from, to).expect("a booked link"));
    let halved = Qos::new(
        Bandwidth::kbps(original.bandwidth.as_kbps() / 2),
        original.latency,
    );
    let mut rows = Vec::new();
    for (change, qos) in [("halve", halved), ("restore", original)] {
        let (overlay, _) = fixture
            .overlay
            .with_link_qos(from, to, qos)
            .expect("a booked link");
        let table = overlay.all_pairs();
        rows.push(repair_row(
            change,
            &overlay,
            &table,
            fixture.source,
            &mut bookings,
        ));
    }
    let (overlay, cut) = fixture.overlay.with_failed(&[victim]);
    let (table, _) = fixture.all_pairs.patched_with(overlay.graph(), &cut, 1);
    rows.push(repair_row(
        "fail",
        &overlay,
        &table,
        fixture.source,
        &mut bookings,
    ));
    (link_users, victim, rows)
}

/// Interleaved timing runs of the `fail_instance` block (median reported).
const FAIL_REPS: usize = 15;

/// The most failing an instance by tombstone — the apply, then a read of
/// every live pair — may cost, as a share of the renumbering rebuild it
/// replaced.
const MAX_FAIL_SHARE: f64 = 0.5;

/// The `fail_instance` block: one instance failed as the server fails it,
/// against the rebuild it replaced.
struct FailInstance {
    victim: ServiceInstance,
    cut_links: usize,
    trees_shadowed: usize,
    rows_swept: usize,
    apply_ms: f64,
    read_ms: f64,
    reference_ms: f64,
}

/// Fails `victim` on `fixture` by tombstone — [`OverlayGraph::with_failed`]
/// and one [`AllPairs::patched_with`] of the fixture's table, what
/// `World::apply` runs — and reads the QoS and path of every live pair
/// afterwards, counting the rows the reads swept. The reference is the
/// renumbering rebuild: [`OverlayGraph::without_instances`] and a fresh
/// [`OverlayGraph::all_pairs`]. Every live pair must equal the
/// reference's, node ids mapped across; the timings are medians of
/// [`FAIL_REPS`] interleaved runs.
fn fail_instance(fixture: &Fixture, victim: ServiceInstance) -> FailInstance {
    let apply = || {
        let (overlay, cut) = fixture.overlay.with_failed(&[victim]);
        let (table, stats) = fixture.all_pairs.patched_with(overlay.graph(), &cut, 1);
        (overlay, table, cut.len(), stats.trees_recomputed)
    };
    let live = |overlay: &OverlayGraph| -> Vec<NodeIx> {
        let g = overlay.graph();
        g.node_ids().filter(|&n| overlay.is_live(n)).collect()
    };
    let read = |overlay: &OverlayGraph, table: &AllPairs| {
        let nodes = live(overlay);
        for &u in &nodes {
            for &v in &nodes {
                black_box((table.qos(u, v), table.path(u, v)));
            }
        }
    };
    let reference = || {
        let overlay = fixture.overlay.without_instances(&[victim]);
        let table = overlay.all_pairs();
        (overlay, table)
    };

    let (overlay, table, cut_links, trees_shadowed) = apply();
    let before = table.materialised();
    read(&overlay, &table);
    let rows_swept = table.materialised() - before;
    let (rebuilt, rebuilt_table) = reference();
    let to_rebuilt = |n: NodeIx| rebuilt.node_of(overlay.instance(n)).expect("a survivor");
    let nodes = live(&overlay);
    for &u in &nodes {
        for &v in &nodes {
            let (ru, rv) = (to_rebuilt(u), to_rebuilt(v));
            assert_eq!(table.qos(u, v), rebuilt_table.qos(ru, rv), "{u:?} -> {v:?}");
            let path = table
                .path(u, v)
                .map(|p| p.into_iter().map(to_rebuilt).collect());
            assert_eq!(path, rebuilt_table.path(ru, rv), "{u:?} -> {v:?}");
        }
    }

    let (mut apply_us, mut read_us, mut reference_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..FAIL_REPS {
        let started = Instant::now();
        let (overlay, table, ..) = apply();
        apply_us.push(started.elapsed().as_micros());
        let started = Instant::now();
        read(&overlay, &table);
        read_us.push(started.elapsed().as_micros());
        reference_us.push(time_us(1, reference));
    }
    let ms = |us: Vec<u128>| median(us) as f64 / 1e3;
    FailInstance {
        victim,
        cut_links,
        trees_shadowed,
        rows_swept,
        apply_ms: ms(apply_us),
        read_ms: ms(read_us),
        reference_ms: ms(reference_us),
    }
}

fn fail_instance_json(f: &FailInstance) -> String {
    format!(
        "{{\"world\": \"waxman-400\", \"victim\": \"{}\", \"cut_links\": {}, \
         \"trees_shadowed\": {}, \"rows_swept\": {}, \"apply_ms\": {:.3}, \
         \"read_ms\": {:.3}, \"reference_ms\": {:.3}}}",
        f.victim,
        f.cut_links,
        f.trees_shadowed,
        f.rows_swept,
        f.apply_ms,
        f.read_ms,
        f.reference_ms,
    )
}

fn repair_reprice_json(link_users: usize, rows: &[RepairRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"change\": \"{}\", \"repriced\": {}, \"resolved\": {}, \
                 \"refederated\": {}, \"repair_us\": {:.2}, \"reference_us\": {:.2}}}",
                r.change, r.repriced, r.resolved, r.refederated, r.repair_us, r.reference_us,
            )
        })
        .collect();
    format!(
        "{{\"world\": \"waxman-400\", \"bookings\": {REPAIR_BOOKINGS}, \
         \"link_users\": {link_users}, \"rows\": [{}]}}",
        rows.join(", "),
    )
}

/// One world's rows of the report.
struct WorldReport {
    name: &'static str,
    nodes: usize,
    edges: usize,
    reps: usize,
    /// One sequential [`all_pairs`] build, µs.
    build_us: u128,
    csr_build_us: u128,
    csr_reweight_us: u128,
    kernel: KernelSweep,
    patch_samples: usize,
    cut: PatchDir,
    undo: PatchDir,
    forest_cut: PatchDir,
    forest_undo: PatchDir,
    slow_down: PatchDir,
    speed_up: PatchDir,
    widen: PatchDir,
    /// Per slow-down sample, the trees with the slowed edge on a reported
    /// path.
    slow_down_reported: Vec<u64>,
    /// On [`LINEAGE_WORLDS`], a lineage that never undoes itself.
    lineage: Option<Lineage>,
    trees_total: usize,
    min_trees_shared: usize,
}

/// Writes `batch` (`(edge, before, after)` per link, all one way) into
/// `world`, patches `table` for it and books the sample under `dir`,
/// asserting what every patch must hold: clean trees shared by pointer,
/// never dirtier than the coarse rule.
///
/// A patch that recomputed no tree is booked as a plan sample as well. A
/// cut is booked by replaying it against the table it produced instead,
/// [`PLAN_ROUNDS`] times: its recomputed trees were swept without the lost
/// headroom and its kept ones were clean already, so the replay recomputes
/// nothing and costs what the cut cost beyond its trees — on a world where
/// every link is on its tail's reported path (an overlay), the only way to
/// see it. Each replay is followed by a kernel reference, the same machine
/// moments later. A direction that books its plans alone books the patch's
/// own time, before any read.
fn patch_sample<N>(
    table: &AllPairs,
    world: &mut DiGraph<N, Qos>,
    batch: &[(EdgeIx, Qos, Qos)],
    dir: &mut PatchDir,
) -> AllPairs {
    let edges: Vec<EdgeIx> = batch.iter().map(|&(edge, ..)| edge).collect();
    let mut changes = Vec::with_capacity(batch.len());
    for &(edge, old, new) in batch {
        *world.edge_mut(edge) = new;
        changes.push(EdgeChange { edge, old, new });
    }
    let pure_cut = batch
        .iter()
        .all(|(_, old, new)| new.bandwidth < old.bandwidth && new.latency == old.latency);
    let coarse = if pure_cut {
        coarse_cut_trees(table, world, &edges)
    } else {
        coarse_restore_trees(world, &edges)
    };
    let started = Instant::now();
    let (next, stats) = table.patched_with(world, &changes, 1);
    let planned = started.elapsed();
    if pure_cut {
        let shares = moved_shares(table, &next);
        assert_eq!(
            shares.len(),
            stats.trees_recomputed,
            "a cut shadows every tree it invalidates"
        );
        dir.moved_shares.extend(shares);
        read_moved(table, &next, world, &mut dir.moved_reads);
    }
    // The patch leaves the trees it invalidated shadowed or stale; sweeping
    // them inside the sample keeps the row timing plan and sweep as it
    // always has, and the next sample patches a fully materialised table.
    let started = Instant::now();
    read_every_row(&next);
    let read = started.elapsed();
    if pure_cut {
        dir.moved_reads.full += read;
    }
    let us = (planned + read).as_micros();
    dir.times.push(us);
    if pure_cut {
        replay_beside_the_kernel(&next, world, &changes, dir);
    } else if stats.trees_recomputed == 0 {
        dir.plans.push(us);
    } else if dir.plan_alone {
        dir.plans.push(planned.as_micros());
    }
    assert_eq!(
        table.shared_trees(&next),
        table.materialised() - stats.trees_recomputed,
        "every clean tree must be shared with the predecessor by pointer"
    );
    assert!(
        stats.trees_recomputed as u64 <= coarse,
        "the dirty plan must never recompute more than the coarse rules ({} > {coarse})",
        stats.trees_recomputed,
    );
    dir.trees.push(stats.trees_recomputed as u64);
    dir.coarse.push(coarse);
    next
}

/// Replays a cut on `next`, its own successor, [`PLAN_ROUNDS`] times into
/// `dir.plans`, each replay followed by a kernel reference into
/// `dir.kernel_refs`: [`REFERENCE_TREES`] trees of `world`, from sources
/// spread over it and shifted by one per reference.
fn replay_beside_the_kernel<N>(
    next: &AllPairs,
    world: &DiGraph<N, Qos>,
    changes: &[EdgeChange],
    dir: &mut PatchDir,
) {
    let csr = QosCsr::new(world);
    let mut scratch = DijkstraScratch::new();
    let n = world.node_count();
    for _ in 0..PLAN_ROUNDS {
        let started = Instant::now();
        let (replayed, replay) = next.patched_with(world, changes, 1);
        dir.plans.push(started.elapsed().as_micros());
        drop(replayed);
        assert_eq!(
            replay.trees_recomputed, 0,
            "a cut replayed on its own successor"
        );
        let shift = dir.kernel_refs.len();
        let started = Instant::now();
        for i in 0..REFERENCE_TREES {
            let source = NodeIx::from_index((i * n / REFERENCE_TREES + shift) % n);
            black_box(single_source_csr(&csr, source, &mut scratch));
        }
        dir.kernel_refs
            .push(started.elapsed().as_nanos() / REFERENCE_TREES as u128);
    }
}

/// Per tree a cut shadowed in `next`, the share of the destinations it
/// reaches (in `pred`, the source aside) that the cut moved.
fn moved_shares(pred: &AllPairs, next: &AllPairs) -> Vec<f64> {
    let nodes = || (0..next.len()).map(NodeIx::from_index);
    nodes()
        .filter_map(|u| {
            let moved = next.moved(u)?;
            let tree = pred.tree(u);
            let reachable = nodes()
                .filter(|&v| v != u && tree.qos_to(v).is_some())
                .count();
            Some(moved as f64 / reachable as f64)
        })
        .collect()
}

/// Reads every row of `table` on the caller's thread, sweeping its stale
/// and shadowed slots.
fn read_every_row(table: &AllPairs) {
    for row in 0..table.len() {
        table.tree(NodeIx::from_index(row));
    }
}

/// What a shape of patch row leaves of a link, `None` if the link cannot
/// take it (cutting a 1 kbit/s link would sever it).
type Worsen = fn(Qos) -> Option<Qos>;

fn shave(w: Qos) -> Option<Qos> {
    let kbps = w.bandwidth.as_kbps();
    (kbps >= 2).then(|| Qos::new(Bandwidth::kbps(kbps - 1), w.latency))
}

fn halve(w: Qos) -> Option<Qos> {
    let kbps = w.bandwidth.as_kbps();
    (kbps >= 2).then(|| Qos::new(Bandwidth::kbps(kbps - kbps / 2), w.latency))
}

fn slow(w: Qos) -> Option<Qos> {
    Some(Qos::new(w.bandwidth, w.latency + w.latency))
}

/// Doubles a link's bandwidth; `None` for one that has none or no limit.
fn widen(w: Qos) -> Option<Qos> {
    let kbps = w.bandwidth.as_kbps();
    (kbps >= 1 && w.bandwidth != Bandwidth::INFINITE)
        .then(|| Qos::new(Bandwidth::kbps(kbps * 2), w.latency))
}

/// `batch`, `(edge, before, after)` per link, as change records.
fn changes_of(batch: &[(EdgeIx, Qos, Qos)]) -> Vec<EdgeChange> {
    batch
        .iter()
        .map(|&(edge, old, new)| EdgeChange { edge, old, new })
        .collect()
}

/// A lineage of patches that never undo one another (see the `lineage`
/// row in the module doc).
struct Lineage {
    /// Each patch's plan time, µs, in lineage order.
    plans: Vec<u128>,
    trees_recomputed: usize,
    trees_restored: usize,
}

/// Runs [`LINEAGE_PATCHES`] patches off `baseline` (the table of `g`):
/// even patches widen a link, odd ones shave one, each on a link no earlier
/// patch touched, and every row of each successor is read, untimed, before
/// the next patch.
fn lineage<N: Clone>(baseline: &AllPairs, g: &DiGraph<N, Qos>, seed: u64) -> Lineage {
    let mut world = g.clone();
    let edge_ids: Vec<EdgeIx> = world.edges().map(|e| e.id).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut touched = BTreeSet::new();
    let mut table: Option<AllPairs> = None;
    let mut out = Lineage {
        plans: Vec::with_capacity(LINEAGE_PATCHES),
        trees_recomputed: 0,
        trees_restored: 0,
    };
    for i in 0..LINEAGE_PATCHES {
        let change: Worsen = if i % 2 == 0 { widen } else { shave };
        let (edge, old, new) = loop {
            let edge = edge_ids[rng.gen_range(0..edge_ids.len())];
            if touched.contains(&edge) {
                continue;
            }
            let old = *world.edge(edge);
            if let Some(new) = change(old) {
                break (edge, old, new);
            }
        };
        touched.insert(edge);
        *world.edge_mut(edge) = new;
        let pred = table.as_ref().unwrap_or(baseline);
        let started = Instant::now();
        let (next, stats) = pred.patched_with(&world, &[EdgeChange { edge, old, new }], 1);
        out.plans.push(started.elapsed().as_micros());
        assert_eq!(
            pred.shared_trees(&next),
            pred.materialised() - stats.trees_recomputed,
            "every clean tree must be shared with the predecessor by pointer"
        );
        out.trees_recomputed += stats.trees_recomputed;
        out.trees_restored += stats.trees_restored;
        read_every_row(&next);
        table = Some(next);
    }
    out
}

impl Lineage {
    fn json(&self) -> String {
        format!(
            "{{\"patches\": {}, \"plan_us_median\": {}, \"plan_us_first\": {}, \
             \"plan_us_last\": {}, \"trees_recomputed\": {}, \"trees_restored\": {}}}",
            self.plans.len(),
            median(self.plans.clone()),
            self.plans.first().copied().unwrap_or(0),
            self.plans.last().copied().unwrap_or(0),
            self.trees_recomputed,
            self.trees_restored,
        )
    }
}

/// Measures one graph end to end; generic over the node payload so the
/// Fig. 4 overlay (instance-labelled) and the raw random overlays share it.
///
/// Each jitter sample shaves 1 kbit/s off one link off the shared baseline
/// table, then undoes it off the shaved table; each forest sample does
/// the same to [`FOREST_LINKS`] links at once, halving them; each latency
/// sample doubles one link's latency and puts it back; each widen sample
/// doubles one link's bandwidth off the baseline table. The directions are
/// reported separately because their rules differ: a cut only invalidates
/// trees whose recorded paths lean on the lost headroom (bottleneck
/// strictly above the surviving bandwidth), a slow-down every tree with
/// the edge on a reported path, an undo — of either — leaves stale only the
/// trees swept since (the rest are back on their sweep graph), and a widen
/// invalidates every tree whose source reaches the widened edge's tail.
fn measure<N: Clone>(name: &'static str, g: &DiGraph<N, Qos>, seed: u64) -> WorldReport {
    let reps = reps_for(g.node_count());
    // The last timed build serves as the patch baseline, which saves a
    // second full build on the 10k world.
    let mut baseline = None;
    let build_us = time_us(reps, || baseline = Some(all_pairs(g)));
    let baseline = baseline.expect("a timed build ran");
    let trees_total = baseline.len();

    let csr = QosCsr::new(g);
    let csr_build_us = time_us(reps, || QosCsr::new(g));
    // What a patch derives its CSR with once a forest cut has moved
    // `FOREST_LINKS` links: the predecessor's, reweighted from the change
    // list (one record per edge, sorted by edge, as a patch folds it).
    let cut: Vec<EdgeChange> = (0..FOREST_LINKS)
        .filter_map(|i| {
            let edge = EdgeIx::from_index(i * g.edge_count() / FOREST_LINKS);
            let old = *g.edge(edge);
            let new = halve(old)?;
            Some(EdgeChange { edge, old, new })
        })
        .collect();
    let csr_reweight_us = time_us(reps, || csr.reweighted(&cut));

    let mut world = g.clone();
    let edge_ids: Vec<_> = world.edges().map(|e| e.id).collect();
    let mut report = WorldReport {
        name,
        nodes: world.node_count(),
        edges: world.edge_count(),
        reps,
        build_us,
        csr_build_us,
        csr_reweight_us,
        kernel: kernel_sweep(g),
        patch_samples: patch_pairs_for(world.node_count()),
        cut: PatchDir::default(),
        undo: PatchDir::default(),
        forest_cut: PatchDir::default(),
        forest_undo: PatchDir::default(),
        slow_down: PatchDir::default(),
        speed_up: PatchDir::default(),
        widen: PatchDir {
            plan_alone: true,
            ..PatchDir::default()
        },
        slow_down_reported: Vec::new(),
        lineage: None,
        trees_total,
        min_trees_shared: trees_total,
    };
    let shapes: [(usize, u64, Worsen, &mut PatchDir, &mut PatchDir); 3] = [
        (1, seed, shave, &mut report.cut, &mut report.undo),
        (
            FOREST_LINKS,
            seed + 1,
            halve,
            &mut report.forest_cut,
            &mut report.forest_undo,
        ),
        (
            1,
            seed + 2,
            slow,
            &mut report.slow_down,
            &mut report.speed_up,
        ),
    ];
    // One generator per shape, so each series stays the series it was
    // before the others existed.
    for (links, shape_seed, worsen, worse_dir, back_dir) in shapes {
        let mut rng = StdRng::seed_from_u64(shape_seed);
        for _ in 0..report.patch_samples {
            let mut worse: Vec<(EdgeIx, Qos, Qos)> = Vec::with_capacity(links);
            while worse.len() < links {
                let edge = edge_ids[rng.gen_range(0..edge_ids.len())];
                let old = *world.edge(edge);
                if worse.iter().any(|&(drawn, ..)| drawn == edge) {
                    continue;
                }
                if let Some(left) = worsen(old) {
                    worse.push((edge, old, left));
                }
            }
            let slowed = worse.iter().all(|(_, old, new)| new.latency > old.latency);
            if slowed {
                let edges: Vec<EdgeIx> = worse.iter().map(|&(edge, ..)| edge).collect();
                report
                    .slow_down_reported
                    .push(coarse_cut_trees(&baseline, &world, &edges));
            }
            let back: Vec<_> = worse.iter().map(|&(e, old, new)| (e, new, old)).collect();
            let worsened = patch_sample(&baseline, &mut world, &worse, worse_dir);
            // A slowed link is a cut with a zero floor: a slow-down
            // shadows exactly the trees with the link on a reported path.
            if slowed {
                assert_eq!(
                    worse_dir.trees.last(),
                    report.slow_down_reported.last(),
                    "{name}: a slow-down recomputed other trees than those reporting the link"
                );
            }
            // The same change on a successor nobody has read yet.
            let (unread, _) = baseline.patched_with(&world, &changes_of(&worse), 1);
            // Putting it back leaves `world` (and the table values) at
            // baseline.
            patch_sample(&worsened, &mut world, &back, back_dir);
            // An undo judges every tree by its net change since its sweep:
            // from the unread successor, that is nothing for every tree
            // and shadow, so nothing the baseline held is recomputed.
            let (_, undo) = unread.patched_with(&world, &changes_of(&back), 1);
            assert_eq!(
                undo.trees_recomputed, 0,
                "{name}: an undo of an unread change recomputed trees"
            );
        }
    }
    // Widening a link off the baseline is a gain that undoes nothing: every
    // source that reaches its tail is left stale, and the plan is booked
    // alone.
    let mut rng = StdRng::seed_from_u64(seed + 3);
    for _ in 0..report.patch_samples {
        let (edge, old, wide) = loop {
            let edge = edge_ids[rng.gen_range(0..edge_ids.len())];
            let old = *world.edge(edge);
            if let Some(wide) = widen(old) {
                break (edge, old, wide);
            }
        };
        patch_sample(
            &baseline,
            &mut world,
            &[(edge, old, wide)],
            &mut report.widen,
        );
        assert_eq!(
            report.widen.trees.last(),
            report.widen.coarse.last(),
            "{name}: a widen recomputed other trees than the sources reaching its tail"
        );
        *world.edge_mut(edge) = old;
    }
    if LINEAGE_WORLDS.contains(&name) {
        report.lineage = Some(lineage(&baseline, g, seed + 4));
    }
    let dirs = [
        &report.cut,
        &report.undo,
        &report.forest_cut,
        &report.forest_undo,
        &report.slow_down,
        &report.speed_up,
        &report.widen,
    ];
    let most_recomputed = dirs.iter().map(|d| d.max_trees()).max().unwrap_or(0);
    report.min_trees_shared = trees_total - most_recomputed as usize;
    report
}

fn world_json(r: &WorldReport) -> String {
    // A cut row also says how much of each tree it invalidated it moved.
    let dir_json = |d: &PatchDir, cut: bool| {
        let moved = if cut {
            format!(
                ", \"avg_moved_share\": {}, \"moved_reads\": {}",
                d.avg_moved_share_json(),
                d.moved_reads.json()
            )
        } else {
            String::new()
        };
        format!(
            "{{\"avg_us\": {}, \"plan_us\": {}, \"plan_samples\": {}, \
             \"avg_trees_recomputed\": {:.1}, \"max_trees_recomputed\": {}, \
             \"avg_trees_coarse_rule\": {:.1}, \"max_trees_coarse_rule\": {}{}}}",
            d.avg_us(),
            d.plan_us_json(),
            d.plans.len(),
            d.avg_trees(),
            d.max_trees(),
            d.avg_coarse(),
            d.max_coarse(),
            moved,
        )
    };
    let reported = &r.slow_down_reported;
    let avg_reported = reported.iter().sum::<u64>() as f64 / reported.len().max(1) as f64;
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"nodes\": {},\n      \"edges\": {},\n      \
         \"reps\": {},\n      \"build_us\": {},\n      \
         \"csr_build_us\": {},\n      \"csr_reweight_us\": {},\n      \
         \"kernel\": {{\"us_per_tree\": {:.1}, \"levels_per_source_mean\": {:.2}, \
         \"label_updates_per_source_mean\": {:.2}, \"pred_entries_per_tree_mean\": {:.2}, \
         \"pred_entries_share_of_level_slots\": {:.4}}},\n      \
         \"patch\": {{\n        \"samples\": {},\n        \
         \"cut\": {},\n        \"undo\": {},\n        \
         \"forest_links\": {},\n        \
         \"forest_cut\": {},\n        \"forest_undo\": {},\n        \
         \"slow_down\": {},\n        \"speed_up\": {},\n        \
         \"widen\": {},\n        \
         \"slow_down_avg_trees_on_reported_paths\": {:.1},\n        \
         \"lineage\": {},\n        \
         \"trees_total\": {},\n        \"min_trees_shared\": {}\n      }}\n    }}",
        r.name,
        r.nodes,
        r.edges,
        r.reps,
        r.build_us,
        r.csr_build_us,
        r.csr_reweight_us,
        r.kernel.us_per_tree,
        r.kernel.levels_mean,
        r.kernel.label_updates_mean,
        r.kernel.entries_mean,
        r.kernel.entry_share,
        r.patch_samples,
        dir_json(&r.cut, true),
        dir_json(&r.undo, false),
        FOREST_LINKS,
        dir_json(&r.forest_cut, true),
        dir_json(&r.forest_undo, false),
        dir_json(&r.slow_down, false),
        dir_json(&r.speed_up, false),
        dir_json(&r.widen, false),
        avg_reported,
        r.lineage.as_ref().map_or("null".to_string(), Lineage::json),
        r.trees_total,
        r.min_trees_shared,
    )
}

fn main() {
    let max_nodes = usize_flag("--max-nodes", usize::MAX);
    let fig4 = paper_fig4_fixture();
    // The world `bench_e2e` serves: 80 instances over a 400-host Waxman
    // underlay, each linked to every instance of the other nine services.
    let services: Vec<ServiceId> = (0..10).map(ServiceId::new).collect();
    let waxman_400 = random_fixture(400, &services, 8, None, 42);
    let pricing = underlay_pricing(&waxman_400);
    println!(
        "underlay pricing: {} hosts, {} pairs, {:.1} levels per tree — one tree per host \
         {:.2} ms, pair_qos {:.2} ms",
        pricing.hosts,
        pricing.pairs,
        pricing.levels_mean,
        pricing.per_host_trees_ms,
        pricing.pair_qos_ms,
    );
    assert!(
        pricing.pair_qos_ms <= MAX_PRICING_SHARE * pricing.per_host_trees_ms,
        "pair_qos took {:.2} ms, more than {MAX_PRICING_SHARE} of one tree per host ({:.2} ms)",
        pricing.pair_qos_ms,
        pricing.per_host_trees_ms,
    );
    let (link_users, victim, repairs) = repair_reprice(&waxman_400);
    println!("repairs of {REPAIR_BOOKINGS} bookings, {link_users} of them on the halved link:");
    for r in &repairs {
        println!(
            "  after a {}: {} re-priced, {} re-solved, {} re-federated — {:.2} µs per \
             booking, {:.2} µs before re-pricing",
            r.change, r.repriced, r.resolved, r.refederated, r.repair_us, r.reference_us,
        );
    }
    // A QoS change kills no instance: every booking must be re-priced, at
    // a fraction of what its pinned re-solve cost.
    for r in repairs.iter().filter(|r| r.change != "fail") {
        assert_eq!(
            r.repriced, REPAIR_BOOKINGS,
            "{}: a booking was re-solved",
            r.change
        );
        assert!(
            r.repair_us <= MAX_REPRICE_SHARE * r.reference_us,
            "{}: re-pricing took {:.2} µs per booking, more than {MAX_REPRICE_SHARE} of a \
             pinned re-solve ({:.2} µs)",
            r.change,
            r.repair_us,
            r.reference_us,
        );
    }
    let failure = fail_instance(&waxman_400, victim);
    println!(
        "fail {}: {} links cut, {} trees shadowed — apply {:.3} ms, read every live pair \
         {:.3} ms ({} rows swept); rebuild {:.3} ms",
        failure.victim,
        failure.cut_links,
        failure.trees_shadowed,
        failure.apply_ms,
        failure.read_ms,
        failure.rows_swept,
        failure.reference_ms,
    );
    // A failure is a cut: applying it and reading every answer afterwards
    // costs a fraction of the renumbering rebuild it replaced.
    assert!(
        failure.apply_ms + failure.read_ms <= MAX_FAIL_SHARE * failure.reference_ms,
        "a tombstone failure took {:.3} + {:.3} ms, more than {MAX_FAIL_SHARE} of the \
         rebuild ({:.3} ms)",
        failure.apply_ms,
        failure.read_ms,
        failure.reference_ms,
    );
    let mut reports = vec![
        measure("paper-fig4", fig4.overlay.graph(), 7),
        measure("random-200", &random_overlay(200, 8, 42), 7),
        measure("waxman-400-overlay", waxman_400.overlay.graph(), 7),
    ];
    if max_nodes >= 2_000 {
        reports.push(measure("waxman-2000", &waxman_overlay(2_000, 6.0, 42), 7));
    }
    if max_nodes >= 10_000 {
        reports.push(measure("waxman-10000", &waxman_overlay(10_000, 6.0, 42), 7));
    }

    for r in &reports {
        println!(
            "{}: {} nodes / {} edges — build {} µs, CSR index {} µs (reweight {} µs), \
             min shared {}",
            r.name,
            r.nodes,
            r.edges,
            r.build_us,
            r.csr_build_us,
            r.csr_reweight_us,
            r.min_trees_shared,
        );
        let k = &r.kernel;
        println!(
            "  kernel: {:.1} µs/tree — {:.1} levels, {:.1} label updates, {:.1} stored entries \
             per source ({:.2}% of levels × nodes)",
            k.us_per_tree,
            k.levels_mean,
            k.label_updates_mean,
            k.entries_mean,
            k.entry_share * 100.0,
        );
        for (label, d) in [
            ("shave", &r.cut),
            ("undo", &r.undo),
            ("forest cut", &r.forest_cut),
            ("forest undo", &r.forest_undo),
            ("slow-down", &r.slow_down),
            ("speed-up", &r.speed_up),
            ("widen", &r.widen),
        ] {
            let beside = d.kernel_ref_us().map_or(String::new(), |us| {
                format!(", kernel {us:.1} µs/tree beside it")
            });
            println!(
                "  {label}: avg {} µs (plan {} µs{beside}) recomputing {:.1}/{} trees \
                 (max {}, coarse rule avg {:.1}, moved share {})",
                d.avg_us(),
                d.plan_us_json(),
                d.avg_trees(),
                r.trees_total,
                d.max_trees(),
                d.avg_coarse(),
                d.avg_moved_share_json(),
            );
        }
        if let Some(l) = &r.lineage {
            println!(
                "  lineage: {} widens and shaves on untouched links, every row read between \
                 them — plan median {} µs (first {}, last {}), {} trees recomputed, {} restored",
                l.plans.len(),
                median(l.plans.clone()),
                l.plans.first().copied().unwrap_or(0),
                l.plans.last().copied().unwrap_or(0),
                l.trees_recomputed,
                l.trees_restored,
            );
        }
        for (label, d) in [("shave", &r.cut), ("forest cut", &r.forest_cut)] {
            let m = &d.moved_reads;
            let ratio = |share: Option<f64>| share.map_or("-".to_string(), |s| format!("{s:.3}×"));
            println!(
                "  {label} moved reads: {} destinations in {} rows — cut short {} µs, swept in \
                 full {} µs ({}, label updates {}; {} rows reached the last level)",
                m.reads,
                m.rows,
                m.cut_short.as_micros(),
                m.full.as_micros(),
                ratio(m.share()),
                ratio(m.work_share()),
                m.rows_materialised,
            );
        }
        if r.name == "waxman-400-overlay" {
            let m = &r.forest_cut.moved_reads;
            let unmeasured = || -> f64 {
                panic!(
                    "{}: no forest cut shadowed a row: the moved reads went unmeasured",
                    r.name
                )
            };
            let work = m.work_share().unwrap_or_else(unmeasured);
            assert!(
                work <= MAX_MOVED_READ_WORK,
                "{}: the forest cut's moved reads made {work:.3} of the label updates of sweeping \
                 their rows in full (limit {MAX_MOVED_READ_WORK})",
                r.name,
            );
            let share = m.share().unwrap_or_else(unmeasured);
            assert!(
                share <= MAX_MOVED_READ_SHARE,
                "{}: the forest cut's moved reads took {share:.3} of sweeping their rows in \
                 full (limit {MAX_MOVED_READ_SHARE})",
                r.name,
            );
        }
        assert!(
            (r.cut.max_trees() as usize) < r.trees_total,
            "{}: a single-link degradation must recompute strictly fewer trees than a rebuild",
            r.name,
        );
        // The smoke assertions CI relies on: on the big worlds a
        // single-link change must recompute well under a quarter of the
        // table on average, whichever way it goes. (The bound is on the
        // average, not the max: a sparse Waxman world contains
        // regional-bottleneck links whose shave legitimately dirties most
        // trees — the coarse rule agrees there.)
        let quarter = |dir: &PatchDir, what: &str| {
            assert!(
                dir.avg_trees() * 4.0 < r.trees_total as f64,
                "{}: single-link {what}s recomputed {:.1} of {} trees on average (≥ 25%)",
                r.name,
                dir.avg_trees(),
                r.trees_total,
            );
        };
        if r.nodes >= 2_000 {
            quarter(&r.cut, "shave");
            assert!(
                k.entry_share < MAX_ENTRY_SHARE,
                "{}: a tree stores {:.2}% of its levels × nodes slots (limit {:.0}%)",
                r.name,
                k.entry_share * 100.0,
                MAX_ENTRY_SHARE * 100.0,
            );
        }
        if r.nodes >= 200 {
            quarter(&r.undo, "undo");
        }
        if PLAN_GATED.contains(&r.name) {
            assert!(
                r.csr_reweight_us as f64 <= MAX_REWEIGHT_SHARE * r.csr_build_us as f64,
                "{}: a forest cut's CSR reweight took {} µs, more than {:.0}% of a build ({} µs)",
                r.name,
                r.csr_reweight_us,
                MAX_REWEIGHT_SHARE * 100.0,
                r.csr_build_us,
            );
            let unmeasured =
                || -> u128 { panic!("{}: no shave was sampled: the plan went unmeasured", r.name) };
            let plan = r.cut.plan_us().unwrap_or_else(unmeasured);
            let reference = r.cut.kernel_ref_us().unwrap_or_else(|| unmeasured() as f64);
            assert!(
                (plan as f64) < reference,
                "{}: a shave's plan took {plan} µs, more than one kernel tree timed beside it \
                 ({reference:.1} µs)",
                r.name,
            );
            let plan = r.widen.plan_us().unwrap_or_else(|| {
                panic!("{}: no widen was sampled: its plan went unmeasured", r.name)
            });
            assert!(
                (plan as f64) < k.us_per_tree,
                "{}: a widen's plan took {plan} µs, more than one kernel tree ({:.1} µs)",
                r.name,
                k.us_per_tree,
            );
        }
    }

    let worlds: Vec<String> = reports.iter().map(world_json).collect();
    let json = format!(
        "{{\n  \"generated_by\": \"bench_routing\",\n  \"available_parallelism\": {},\n  \
         \"underlay_pricing\": {{\"world\": \"waxman-400\", \
         \"hosts\": {}, \"pairs\": {}, \"levels_per_tree_mean\": {:.2}, \
         \"per_host_trees_ms\": {:.2}, \"pair_qos_ms\": {:.2}}},\n  \
         \"repair_reprice\": {},\n  \"fail_instance\": {},\n  \"worlds\": [\n{}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pricing.hosts,
        pricing.pairs,
        pricing.levels_mean,
        pricing.per_host_trees_ms,
        pricing.pair_qos_ms,
        repair_reprice_json(link_users, &repairs),
        fail_instance_json(&failure),
        worlds.join(",\n"),
    );
    println!("wrote {}", write_report("BENCH_routing.json", &json));
}
