//! `bench_routing` — evidence emitter for the routing engine.
//!
//! Times the two ways the workspace builds/maintains its all-pairs
//! shortest-widest table — a from-scratch build across a worker sweep
//! ([`all_pairs_parallel_with`] at 1/2/4/8 workers, where 1 worker is the
//! sequential [`all_pairs`](sflow_routing::all_pairs) path) and
//! incremental epoch derivation
//! ([`patched_with`](sflow_routing::AllPairs::patched_with)) — over the
//! paper's Fig. 4 overlay, a 200-node random overlay and 2k/10k-node Waxman
//! topologies, then writes the numbers to `BENCH_routing.json` at the
//! repository root.
//!
//! The patch rows are the headline. Each sample is a *bandwidth jitter
//! pair* on one random link — shave 1 kbit/s, then restore it, latency
//! untouched: the shave exercises the thresholded degradation rule (trees
//! whose recorded paths bottleneck at or below the surviving bandwidth are
//! provably clean), the restore exercises the gain gates (only sources
//! whose own bottleneck to the link's tail could use the recovered
//! headroom are dirty). For each direction the report also records what
//! the engine's pre-tightening *coarse* rules — any-traversal for
//! degradations, reach-the-tail for improvements — would have recomputed
//! on the same samples, so the over-invalidation cut is visible in the
//! numbers (on the 200-node world a shave of the most popular link
//! recomputes ~1 tree where the coarse rule recomputed 154). Every sample
//! also asserts the epoch-sharing contract: the successor table shares
//! exactly `trees_total − trees_recomputed` trees with its predecessor by
//! `Arc` pointer — deriving an epoch never clones the world.
//!
//! Each world also records `csr_build_us`, the cost of deriving the
//! [`QosCsr`] index every build and every patch starts with.
//!
//! A worker-sweep point gets a `speedup_vs_w1` ratio only when the box has
//! at least that many cores (`available_parallelism` is recorded): beyond
//! that the threads time-share and the ratio is noise, so the timing is
//! emitted and the ratio omitted. Pass `--max-nodes N` to skip worlds
//! larger than `N` (CI uses `--max-nodes 2000`; the 10k world is a local
//! run).

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow_bench::{median, usize_flag, write_report};
use sflow_core::fixtures::paper_fig4_fixture;
use sflow_graph::{DiGraph, EdgeIx};
use sflow_routing::{
    all_pairs_parallel_with, auto_workers, AllPairs, Bandwidth, EdgeChange, Latency, Qos, QosCsr,
};

/// Worker counts swept for the build rows.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Timing repetitions per measurement (median reported), scaled down for
/// the big worlds so the sweep stays tractable on one core.
fn reps_for(nodes: usize) -> usize {
    if nodes <= 500 {
        5
    } else if nodes <= 4_000 {
        3
    } else {
        1
    }
}

/// Bandwidth shave/restore pairs sampled per world for the patch rows.
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

/// One point of the build worker sweep.
struct BuildPoint {
    workers: usize,
    us: u128,
}

/// Aggregated patch stats for one direction (shave or restore). `coarse`
/// holds, per sample, how many trees the engine's pre-tightening rules —
/// any-traversal for degradations, reach-the-tail for improvements —
/// would have recomputed on the same change.
#[derive(Default)]
struct PatchDir {
    times: Vec<u128>,
    trees: Vec<u64>,
    coarse: Vec<u64>,
}

impl PatchDir {
    fn avg_us(&self) -> u128 {
        self.times.iter().sum::<u128>() / self.times.len().max(1) as u128
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
}

/// Trees the pre-tightening degradation rule would have recomputed: every
/// tree in `table` traversing `edge` at any bandwidth level.
fn coarse_cut_trees<N>(table: &AllPairs, g: &DiGraph<N, Qos>, edge: EdgeIx) -> u64 {
    let mut marked = vec![false; g.edge_count()];
    marked[edge.index()] = true;
    g.node_ids()
        .filter(|&s| table.tree(s).traverses_any(&marked))
        .count() as u64
}

/// Trees the pre-tightening improvement rule would have recomputed: every
/// source that can reach `edge`'s tail over positive-bandwidth links.
fn coarse_restore_trees<N>(g: &DiGraph<N, Qos>, edge: EdgeIx) -> u64 {
    let (tail, _, _) = g.edge_parts(edge);
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    seen[tail.index()] = true;
    queue.push_back(tail);
    let mut count = 1u64;
    while let Some(v) = queue.pop_front() {
        for &eid in g.in_edge_ids(v) {
            let (from, _, w) = g.edge_parts(eid);
            if w.bandwidth == Bandwidth::ZERO || seen[from.index()] {
                continue;
            }
            seen[from.index()] = true;
            count += 1;
            queue.push_back(from);
        }
    }
    count
}

/// One world's rows of the report.
struct WorldReport {
    name: &'static str,
    nodes: usize,
    edges: usize,
    reps: usize,
    build: Vec<BuildPoint>,
    csr_build_us: u128,
    patch_samples: usize,
    cut: PatchDir,
    restore: PatchDir,
    trees_total: usize,
    min_trees_shared: usize,
}

/// Measures one graph end to end; generic over the node payload so the
/// Fig. 4 overlay (instance-labelled) and the raw random overlays share it.
///
/// Each patch sample shaves 1 kbit/s off one link's bandwidth (latency
/// untouched) off the shared baseline table, then restores it off the
/// shaved table — the two directions exercise the thresholded degradation
/// floor and the gain gates respectively. They are reported separately
/// because their dirty sets are structurally different: a shave only
/// invalidates trees whose recorded paths actually lean on the lost
/// headroom (bottleneck strictly above the surviving bandwidth), while a
/// restore must conservatively recompute every source whose own
/// bottleneck could use the recovered headroom (new paths may appear
/// anywhere downstream). Each direction also records what the coarse
/// pre-tightening rules would have recomputed on the identical change.
fn measure<N: Clone>(name: &'static str, g: &DiGraph<N, Qos>, seed: u64) -> WorldReport {
    let reps = reps_for(g.node_count());
    // Any sweep build serves as the patch baseline — the table is
    // observationally identical at every worker count (property-tested),
    // and keeping one saves a fifth full build on the 10k world.
    let mut baseline = None;
    let build: Vec<BuildPoint> = WORKER_SWEEP
        .iter()
        .map(|&w| BuildPoint {
            workers: w,
            us: time_us(reps, || baseline = Some(all_pairs_parallel_with(g, w))),
        })
        .collect();
    let baseline = baseline.expect("worker sweep is non-empty");
    let trees_total = baseline.len();

    let csr_build_us = time_us(reps, || QosCsr::new(g));

    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = g.clone();
    let edge_ids: Vec<_> = world.edges().map(|e| e.id).collect();
    let mut cut_dir = PatchDir::default();
    let mut restore_dir = PatchDir::default();
    let mut min_trees_shared = usize::MAX;
    let samples = patch_pairs_for(world.node_count());
    let mut done = 0;
    while done < samples {
        let edge = edge_ids[rng.gen_range(0..edge_ids.len())];
        let old = *world.edge(edge);
        if old.bandwidth.as_kbps() < 2 {
            continue; // shaving a 1 kbit/s link would sever it
        }
        done += 1;
        let cut = Qos::new(Bandwidth::kbps(old.bandwidth.as_kbps() - 1), old.latency);
        let mut table = baseline.clone(); // Arc bumps, not a deep copy
        for (before, after, dir) in [(old, cut, &mut cut_dir), (cut, old, &mut restore_dir)] {
            *world.edge_mut(edge) = after;
            let change = EdgeChange {
                edge,
                old: before,
                new: after,
            };
            let coarse = if after.bandwidth < before.bandwidth {
                coarse_cut_trees(&table, &world, edge)
            } else {
                coarse_restore_trees(&world, edge)
            };
            dir.coarse.push(coarse);
            let started = Instant::now();
            let (next, stats) = table.patched_with(&world, &[change], 0);
            dir.times.push(started.elapsed().as_micros());
            assert!(!stats.full_rebuild, "QoS-only change must not full-rebuild");
            let shared = table.shared_trees(&next);
            assert_eq!(
                shared,
                stats.trees_total - stats.trees_recomputed,
                "every clean tree must be shared with the predecessor by pointer"
            );
            min_trees_shared = min_trees_shared.min(shared);
            assert!(
                stats.trees_recomputed as u64 <= coarse,
                "tightened rules must never dirty more than the coarse rules \
                 ({} > {})",
                stats.trees_recomputed,
                coarse,
            );
            dir.trees.push(stats.trees_recomputed as u64);
            table = next;
        }
        // The restore left `world` (and the table values) back at baseline.
    }

    WorldReport {
        name,
        nodes: world.node_count(),
        edges: world.edge_count(),
        reps,
        build,
        csr_build_us,
        patch_samples: samples,
        cut: cut_dir,
        restore: restore_dir,
        trees_total,
        min_trees_shared,
    }
}

fn world_json(r: &WorldReport) -> String {
    let w1_us = r.build.first().map_or(1, |b| b.us).max(1);
    let build: Vec<String> = r
        .build
        .iter()
        .map(|b| {
            // More workers than cores time-share: the ratio would be noise.
            let speedup = if b.workers <= auto_workers() {
                format!(
                    ", \"speedup_vs_w1\": {:.2}",
                    w1_us as f64 / b.us.max(1) as f64
                )
            } else {
                String::new()
            };
            format!(
                "        {{\"workers\": {}, \"us\": {}{}}}",
                b.workers, b.us, speedup,
            )
        })
        .collect();
    let dir_json = |d: &PatchDir| {
        format!(
            "{{\"avg_us\": {}, \"avg_trees_recomputed\": {:.1}, \"max_trees_recomputed\": {}, \
             \"avg_trees_coarse_rule\": {:.1}, \"max_trees_coarse_rule\": {}}}",
            d.avg_us(),
            d.avg_trees(),
            d.max_trees(),
            d.avg_coarse(),
            d.max_coarse(),
        )
    };
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"nodes\": {},\n      \"edges\": {},\n      \
         \"reps\": {},\n      \"build\": [\n{}\n      ],\n      \
         \"csr_build_us\": {},\n      \
         \"patch\": {{\n        \"samples\": {},\n        \
         \"cut\": {},\n        \"restore\": {},\n        \
         \"trees_total\": {},\n        \"min_trees_shared\": {}\n      }}\n    }}",
        r.name,
        r.nodes,
        r.edges,
        r.reps,
        build.join(",\n"),
        r.csr_build_us,
        r.patch_samples,
        dir_json(&r.cut),
        dir_json(&r.restore),
        r.trees_total,
        r.min_trees_shared,
    )
}

fn main() {
    let max_nodes = usize_flag("--max-nodes", usize::MAX);
    let fig4 = paper_fig4_fixture();
    let mut reports = vec![
        measure("paper-fig4", fig4.overlay.graph(), 7),
        measure("random-200", &random_overlay(200, 8, 42), 7),
    ];
    if max_nodes >= 2_000 {
        reports.push(measure("waxman-2000", &waxman_overlay(2_000, 6.0, 42), 7));
    }
    if max_nodes >= 10_000 {
        reports.push(measure("waxman-10000", &waxman_overlay(10_000, 6.0, 42), 7));
    }

    for r in &reports {
        let sweep: Vec<String> = r
            .build
            .iter()
            .map(|b| format!("w{}={} µs", b.workers, b.us))
            .collect();
        println!(
            "{}: {} nodes / {} edges — build [{}], CSR index {} µs, \
             shave avg {} µs recomputing {:.1}/{} trees \
             (max {}, coarse rule max {}), restore avg {} µs recomputing {:.1} (max {}, \
             coarse rule max {}), min shared {}",
            r.name,
            r.nodes,
            r.edges,
            sweep.join(", "),
            r.csr_build_us,
            r.cut.avg_us(),
            r.cut.avg_trees(),
            r.trees_total,
            r.cut.max_trees(),
            r.cut.max_coarse(),
            r.restore.avg_us(),
            r.restore.avg_trees(),
            r.restore.max_trees(),
            r.restore.max_coarse(),
            r.min_trees_shared,
        );
        assert!(
            (r.cut.max_trees() as usize) < r.trees_total,
            "{}: a single-link degradation must recompute strictly fewer trees than a rebuild",
            r.name,
        );
        // The smoke assertion CI relies on: on the big worlds a single-link
        // QoS degradation must recompute well under a quarter of the table
        // on average. (The bound is on the average, not the max: a sparse
        // Waxman world contains regional-bottleneck links whose shave
        // legitimately dirties most trees — the coarse rule agrees there.)
        if r.nodes >= 2_000 {
            assert!(
                r.cut.avg_trees() * 4.0 < r.trees_total as f64,
                "{}: single-link patches recomputed {:.1} of {} trees on average (≥ 25%)",
                r.name,
                r.cut.avg_trees(),
                r.trees_total,
            );
        }
    }

    let worlds: Vec<String> = reports.iter().map(world_json).collect();
    let json = format!(
        "{{\n  \"generated_by\": \"bench_routing\",\n  \"available_parallelism\": {},\n  \
         \"workers_sweep\": {:?},\n  \"worlds\": [\n{}\n  ]\n}}\n",
        auto_workers(),
        WORKER_SWEEP,
        worlds.join(",\n"),
    );
    println!("wrote {}", write_report("BENCH_routing.json", &json));
}
