//! `bench_world` — evidence emitter for the snapshot world's read path.
//!
//! Measures read-side federate latency (p50/p99) *under concurrent
//! mutation* for the two world architectures this workspace has had:
//!
//! * **rwlock-world** (before): the topology lives behind one
//!   `parking_lot::RwLock`; solvers hold the read guard across the solve,
//!   the mutator patches the routing table while holding the write guard —
//!   so every rebuild stalls every reader that arrives behind it.
//! * **snapshot-world** (after): solvers load an immutable
//!   [`WorldSnapshot`](sflow_server::WorldSnapshot) from the [`Snap`] cell
//!   (one `Arc` clone) and solve with no shared lock held; the mutator
//!   assembles successors copy-on-write and publishes with a pointer swap.
//!
//! Both modes run the same fixture, the same requirement, the same number
//! of solver threads and a mutator flapping the same link QoS as fast as it
//! can. The tail is the headline: the rwlock p99 absorbs whole routing
//! patches, the snapshot p99 does not. Results land in `BENCH_world.json`
//! at the repository root.
//!
//! [`Snap`]: sflow_server::Snap

#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use sflow_bench::{median, percentile, write_report};
use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow_core::fixtures::random_fixture;
use sflow_core::{FederationContext, ServiceRequirement};
use sflow_graph::NodeIx;
use sflow_net::{OverlayGraph, ServiceId};
use sflow_routing::{AllPairs, Bandwidth, Latency, Qos};
use sflow_server::{Mutation, World};

/// Concurrent solver threads per mode. One: the quantity under test is the
/// latency a *reader* pays when a mutation lands mid-solve, and extra
/// always-runnable readers only stack scheduler queueing on top of it
/// (this container pins the workspace to a single core).
const SOLVERS: usize = 1;
/// Timed solves per solver thread (after warmup).
const SOLVES_PER_THREAD: usize = 2_000;
/// Untimed warmup solves per solver thread.
const WARMUP: usize = 100;
/// Pause between mutations, identical in both modes. Churn is paced (a
/// half-kHz of topology updates is already far beyond any real overlay) so
/// the benchmark measures reader *stalls*, not two architectures fighting
/// for the same saturated cores with different amounts of mutator work.
const MUTATION_PACE: Duration = Duration::from_millis(1);
/// Interleaved trials per mode; the report takes the per-mode *median* p99
/// so one noisy-neighbour episode on a shared core cannot decide the
/// verdict in either direction.
const TRIALS: usize = 5;
/// Links each churn event touches. A real churn event (a congested access
/// segment, a failing rack uplink) degrades a neighbourhood, not one edge:
/// the rwlock world must apply the whole batch under one write guard to
/// stay consistent, while the snapshot world publishes an epoch per link
/// and readers never wait for the batch.
const LINKS_PER_EVENT: usize = 8;

struct ModeReport {
    name: &'static str,
    p50_us: u128,
    p99_us: u128,
    max_us: u128,
    solves: usize,
    mutations: u64,
}

fn summarize(name: &'static str, mut samples: Vec<u128>, mutations: u64) -> ModeReport {
    samples.sort_unstable();
    ModeReport {
        name,
        p50_us: percentile(&samples, 50),
        p99_us: percentile(&samples, 99),
        max_us: samples.last().copied().unwrap_or(0),
        solves: samples.len(),
        mutations,
    }
}

/// Per-mode aggregate over [`TRIALS`] interleaved runs.
struct ModeAggregate {
    name: &'static str,
    p50_us: u128,
    p99_us: u128,
    max_us: u128,
    solves: usize,
    mutations: u64,
    trial_p99s: Vec<u128>,
}

fn aggregate(trials: Vec<ModeReport>) -> ModeAggregate {
    ModeAggregate {
        name: trials[0].name,
        p50_us: median(trials.iter().map(|t| t.p50_us).collect()),
        p99_us: median(trials.iter().map(|t| t.p99_us).collect()),
        max_us: trials.iter().map(|t| t.max_us).max().unwrap_or(0),
        solves: trials.iter().map(|t| t.solves).sum(),
        mutations: trials.iter().map(|t| t.mutations).sum(),
        trial_p99s: trials.iter().map(|t| t.p99_us).collect(),
    }
}

/// The QoS flap both mutators apply: congest/restore the given link.
fn flap_qos(tick: u64) -> Qos {
    if tick.is_multiple_of(2) {
        Qos::new(Bandwidth::kbps(64), Latency::from_micros(9_000))
    } else {
        Qos::new(Bandwidth::kbps(512), Latency::from_micros(2_000))
    }
}

/// Before: solves run under a read guard on one big `RwLock`; the mutator
/// patches the table in place under the write guard.
fn run_rwlock_mode(
    overlay: OverlayGraph,
    all_pairs: AllPairs,
    source: NodeIx,
    req: &ServiceRequirement,
) -> ModeReport {
    let links: Vec<(NodeIx, NodeIx)> = {
        let g = overlay.graph();
        g.node_ids()
            .flat_map(|n| g.out_edges(n))
            .take(LINKS_PER_EVENT)
            .map(|e| (e.from, e.to))
            .collect()
    };
    assert!(!links.is_empty(), "overlay has links to flap");
    let world = Arc::new(RwLock::new((overlay, all_pairs)));
    let done = Arc::new(AtomicBool::new(false));

    let mutator = {
        let world = Arc::clone(&world);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut ticks = 0u64;
            while !done.load(Ordering::SeqCst) {
                // One churn event: the whole batch lands under one write
                // guard — readers arriving mid-event wait it all out.
                let mut guard = world.write();
                let (overlay, table) = &mut *guard;
                let changes: Vec<_> = links
                    .iter()
                    .filter_map(|&(from, to)| overlay.update_link_qos(from, to, flap_qos(ticks)))
                    .collect();
                if !changes.is_empty() {
                    table.patch(overlay.graph(), &changes);
                }
                drop(guard);
                ticks += 1;
                thread::sleep(MUTATION_PACE);
            }
            ticks
        })
    };

    let solvers: Vec<_> = (0..SOLVERS)
        .map(|_| {
            let world = Arc::clone(&world);
            let req = req.clone();
            thread::spawn(move || {
                let mut samples = Vec::with_capacity(SOLVES_PER_THREAD);
                for i in 0..WARMUP + SOLVES_PER_THREAD {
                    let started = Instant::now();
                    let guard = world.read();
                    let ctx = FederationContext::new(&guard.0, &guard.1, source);
                    let flow = SflowAlgorithm::default().federate(&ctx, &req);
                    drop(guard);
                    let us = started.elapsed().as_micros();
                    assert!(flow.is_ok(), "rwlock-world solve failed");
                    if i >= WARMUP {
                        samples.push(us);
                    }
                }
                samples
            })
        })
        .collect();

    let mut samples = Vec::new();
    for s in solvers {
        samples.extend(s.join().expect("rwlock solver panicked"));
    }
    done.store(true, Ordering::SeqCst);
    let mutations = mutator.join().expect("rwlock mutator panicked");
    summarize("rwlock-world", samples, mutations)
}

/// After: solves load a published snapshot and hold no lock while solving;
/// the mutator
/// builds successors copy-on-write and swaps the pointer.
fn run_snapshot_mode(mut world: World, req: &ServiceRequirement) -> ModeReport {
    // One rebuild worker: the copy-on-write patch must not win by (or be
    // penalised for) fanning rebuild work across the solver threads' cores.
    world.set_route_workers(1);
    let snap = world.handle();
    let first = world.snapshot();
    let links: Vec<_> = {
        let overlay = first.overlay();
        let g = overlay.graph();
        g.node_ids()
            .flat_map(|n| g.out_edges(n))
            .take(LINKS_PER_EVENT)
            .map(|e| (overlay.instance(e.from), overlay.instance(e.to)))
            .collect()
    };
    assert!(!links.is_empty(), "overlay has links to flap");
    drop(first);
    let done = Arc::new(AtomicBool::new(false));

    let mutator = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut ticks = 0u64;
            while !done.load(Ordering::SeqCst) {
                // The same churn event as one copy-on-write batch: the
                // successor is assembled off the published cell and swapped
                // in as a single epoch — readers never block on any of it.
                let qos = flap_qos(ticks);
                let batch: Vec<Mutation> = links
                    .iter()
                    .map(|&(from, to)| Mutation::SetLinkQos {
                        from,
                        to,
                        bandwidth_kbps: qos.bandwidth.as_kbps(),
                        latency_us: qos.latency.as_micros(),
                    })
                    .collect();
                world.apply_batch(&batch).expect("QoS flap applies");
                ticks += 1;
                thread::sleep(MUTATION_PACE);
            }
            ticks
        })
    };

    let solvers: Vec<_> = (0..SOLVERS)
        .map(|_| {
            let snap = Arc::clone(&snap);
            let req = req.clone();
            thread::spawn(move || {
                let mut samples = Vec::with_capacity(SOLVES_PER_THREAD);
                for i in 0..WARMUP + SOLVES_PER_THREAD {
                    let started = Instant::now();
                    let snapshot = snap.load();
                    let ctx = snapshot.context();
                    let flow = SflowAlgorithm::default().federate(&ctx, &req);
                    let us = started.elapsed().as_micros();
                    assert!(flow.is_ok(), "snapshot-world solve failed");
                    if i >= WARMUP {
                        samples.push(us);
                    }
                }
                samples
            })
        })
        .collect();

    let mut samples = Vec::new();
    for s in solvers {
        samples.extend(s.join().expect("snapshot solver panicked"));
    }
    done.store(true, Ordering::SeqCst);
    let mutations = mutator.join().expect("snapshot mutator panicked");
    summarize("snapshot-world", samples, mutations)
}

fn mode_json(r: &ModeAggregate) -> String {
    let trials: Vec<String> = r.trial_p99s.iter().map(u128::to_string).collect();
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"solve_p50_us\": {},\n      \
         \"solve_p99_us\": {},\n      \"solve_max_us\": {},\n      \"solves\": {},\n      \
         \"mutations_applied\": {},\n      \"trial_p99s_us\": [{}]\n    }}",
        r.name,
        r.p50_us,
        r.p99_us,
        r.max_us,
        r.solves,
        r.mutations,
        trials.join(", "),
    )
}

fn main() {
    let sids: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
    let req: ServiceRequirement = "0>1>3, 0>2>3".parse().expect("requirement parses");

    // Interleave the modes so ambient load on a shared core hits both, and
    // rebuild the identical fixture for every trial so no mode inherits a
    // churned topology.
    let mut rwlock_trials = Vec::with_capacity(TRIALS);
    let mut snapshot_trials = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        let fx = random_fixture(64, &sids, 3, None, 11);
        rwlock_trials.push(run_rwlock_mode(
            fx.overlay.clone(),
            fx.all_pairs.clone(),
            fx.source,
            &req,
        ));
        snapshot_trials.push(run_snapshot_mode(World::new(fx), &req));
        eprintln!("trial {}/{TRIALS} done", trial + 1);
    }
    let rwlock = aggregate(rwlock_trials);
    let snapshot = aggregate(snapshot_trials);

    for r in [&rwlock, &snapshot] {
        println!(
            "{}: {} solves over {} mutations — median-trial solve p50 {} µs, p99 {} µs, max {} µs",
            r.name, r.solves, r.mutations, r.p50_us, r.p99_us, r.max_us,
        );
    }
    let p99_ratio = rwlock.p99_us as f64 / (snapshot.p99_us.max(1)) as f64;
    println!("read-side p99 under churn: snapshot-world is {p99_ratio:.2}x the rwlock baseline");

    let json = format!(
        "{{\n  \"generated_by\": \"bench_world\",\n  \"solvers\": {},\n  \
         \"solves_per_thread\": {},\n  \"trials\": {},\n  \"modes\": [\n{}\n  ],\n  \
         \"p99_rwlock_over_snapshot\": {:.2}\n}}\n",
        SOLVERS,
        SOLVES_PER_THREAD,
        TRIALS,
        [mode_json(&rwlock), mode_json(&snapshot)].join(",\n"),
        p99_ratio,
    );
    println!("wrote {}", write_report("BENCH_world.json", &json));
}
