//! Fig. 10(c) — end-to-end latency vs network size.
//!
//! Prints the reproduced latency series, then benchmarks the full latency
//! experiment pipeline (world build + federate + evaluate) per size.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sflow_bench::{bench_sweep, BENCH_SIZES};
use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow_workload::experiments::latency;
use sflow_workload::generator::{build_trial, RequirementKind};

fn series() {
    let rows = latency::run(&bench_sweep());
    println!("\n{}", latency::to_table(&rows).render());
}

fn bench(c: &mut Criterion) {
    series();
    let mut g = c.benchmark_group("fig10c/evaluate");
    for &size in &BENCH_SIZES {
        // World construction dominates experiment wall time; measure it
        // separately from federation.
        g.bench_with_input(BenchmarkId::new("world-build", size), &size, |b, _| {
            b.iter(|| build_trial(size, 6, 3, RequirementKind::Dag, 2004, 2))
        });
        let trial = build_trial(size, 6, 3, RequirementKind::Dag, 2004, 2);
        let ctx = trial.fixture.context();
        g.bench_with_input(
            BenchmarkId::new("sflow-federate+latency", size),
            &size,
            |b, _| {
                let alg = SflowAlgorithm::default();
                b.iter(|| alg.federate(&ctx, &trial.requirement).map(|f| f.latency()))
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
