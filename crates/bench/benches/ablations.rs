//! Ablation benches for the design choices called out in `DESIGN.md`:
//!
//! * A1 — local-view horizon (1/2/3/full) on solver runtime + the printed
//!   correctness series;
//! * A2 — exact vs lexicographic shortest-widest routing-table build;
//! * A3 — full reduction plan vs chain-cover fallback solving.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sflow_bench::bench_sweep;
use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow_core::baseline::VirtualEdges;
use sflow_core::reduction::{chain_cover, Plan};
use sflow_core::{Selection, Solver};
use sflow_routing::shortest_widest;
use sflow_workload::experiments::ablations;
use sflow_workload::generator::{build_trial, RequirementKind};

fn series() {
    let cfg = bench_sweep();
    let rows = ablations::run_horizon(&cfg);
    println!("\n{}", ablations::horizon_table(&rows).render());
    let rows = ablations::run_routing_policy(&cfg);
    println!("{}", ablations::routing_policy_table(&rows).render());
    let rows = ablations::run_reductions(&cfg);
    println!("{}", ablations::reductions_table(&rows).render());
}

fn bench(c: &mut Criterion) {
    series();
    let trial = build_trial(40, 6, 3, RequirementKind::Dag, 2004, 4);
    let ctx = trial.fixture.context();
    let req = &trial.requirement;

    // A1: horizon.
    let mut g = c.benchmark_group("ablation/horizon");
    for horizon in [1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::from_parameter(horizon), &horizon, |b, &h| {
            let alg = SflowAlgorithm::with_hop_limit(h);
            b.iter(|| alg.federate(&ctx, req))
        });
    }
    g.bench_function("full", |b| {
        let alg = SflowAlgorithm::with_full_view();
        b.iter(|| alg.federate(&ctx, req))
    });
    g.finish();

    // A2: routing policy (table construction over the overlay).
    let overlay_graph = trial.fixture.overlay.graph();
    let mut g = c.benchmark_group("ablation/routing");
    g.bench_function("exact", |b| {
        b.iter(|| shortest_widest::all_pairs(overlay_graph))
    });
    g.bench_function("lexicographic", |b| {
        b.iter(|| shortest_widest::all_pairs_lexicographic(overlay_graph))
    });
    g.finish();

    // A3: reduction plan vs cover-only.
    let mut g = c.benchmark_group("ablation/reductions");
    g.bench_function("plan", |b| {
        b.iter(|| {
            let solver = Solver::new(&ctx).with_hop_limit(2);
            let plan = Plan::analyze(req);
            let mut pinned: Selection = [(req.source(), ctx.source_instance())]
                .into_iter()
                .collect();
            solver.solve_plan(&plan, &mut pinned, &VirtualEdges::new())
        })
    });
    g.bench_function("cover-only", |b| {
        b.iter(|| {
            let solver = Solver::new(&ctx).with_hop_limit(2);
            let plan = Plan::Cover {
                chains: chain_cover(req),
            };
            let mut pinned: Selection = [(req.source(), ctx.source_instance())]
                .into_iter()
                .collect();
            solver.solve_plan(&plan, &mut pinned, &VirtualEdges::new())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
