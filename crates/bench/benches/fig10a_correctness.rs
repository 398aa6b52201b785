//! Fig. 10(a) — correctness coefficient vs network size.
//!
//! Prints the reproduced series, then benchmarks the federation step of each
//! algorithm on the experiment's worlds.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sflow_bench::{bench_sweep, BENCH_SIZES};
use sflow_core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, RandomAlgorithm, SflowAlgorithm,
};
use sflow_workload::experiments::correctness;
use sflow_workload::generator::{build_trial, RequirementKind};

fn series() {
    let rows = correctness::run(&bench_sweep());
    println!("\n{}", correctness::to_table(&rows).render());
}

fn bench(c: &mut Criterion) {
    series();
    let mut g = c.benchmark_group("fig10a/federate");
    for &size in &BENCH_SIZES {
        let trial = build_trial(size, 6, 3, RequirementKind::Dag, 2004, 0);
        let ctx = trial.fixture.context();
        let req = &trial.requirement;
        g.bench_with_input(BenchmarkId::new("sflow", size), &size, |b, _| {
            let alg = SflowAlgorithm::default();
            b.iter(|| alg.federate(&ctx, req))
        });
        g.bench_with_input(BenchmarkId::new("global-optimal", size), &size, |b, _| {
            b.iter(|| GlobalOptimalAlgorithm.federate(&ctx, req))
        });
        g.bench_with_input(BenchmarkId::new("fixed", size), &size, |b, _| {
            b.iter(|| FixedAlgorithm.federate(&ctx, req))
        });
        g.bench_with_input(BenchmarkId::new("random", size), &size, |b, _| {
            let alg = RandomAlgorithm::with_seed(1);
            b.iter(|| alg.federate(&ctx, req))
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
