//! Fig. 10(d) — end-to-end bandwidth vs network size.
//!
//! Prints the reproduced bandwidth series, then benchmarks the bandwidth
//! evaluation of each algorithm's flow graph.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sflow_bench::{bench_sweep, BENCH_SIZES};
use sflow_core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, SflowAlgorithm,
};
use sflow_workload::experiments::bandwidth;
use sflow_workload::generator::{build_trial, RequirementKind};

fn series() {
    let rows = bandwidth::run(&bench_sweep());
    println!("\n{}", bandwidth::to_table(&rows).render());
}

fn bench(c: &mut Criterion) {
    series();
    let mut g = c.benchmark_group("fig10d/bandwidth");
    for &size in &BENCH_SIZES {
        let trial = build_trial(size, 6, 3, RequirementKind::DisjointPaths, 2004, 3);
        let ctx = trial.fixture.context();
        let req = &trial.requirement;
        g.bench_with_input(BenchmarkId::new("sflow", size), &size, |b, _| {
            let alg = SflowAlgorithm::default();
            b.iter(|| alg.federate(&ctx, req).map(|f| f.bandwidth()))
        });
        g.bench_with_input(BenchmarkId::new("global-optimal", size), &size, |b, _| {
            b.iter(|| {
                GlobalOptimalAlgorithm
                    .federate(&ctx, req)
                    .map(|f| f.bandwidth())
            })
        });
        g.bench_with_input(BenchmarkId::new("fixed", size), &size, |b, _| {
            b.iter(|| FixedAlgorithm.federate(&ctx, req).map(|f| f.bandwidth()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
