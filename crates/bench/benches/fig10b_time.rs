//! Fig. 10(b) — computation time vs network size.
//!
//! This figure *is* a timing plot, so the Criterion series is the
//! reproduction: the full sFlow computation (link-state table + distributed
//! protocol) vs the global-optimal computation, across the paper's network
//! sizes. The experiment-runner's wall-clock table is printed first.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sflow_bench::bench_sweep;
use sflow_core::algorithms::{FederationAlgorithm, GlobalOptimalAlgorithm};
use sflow_core::FederationContext;
use sflow_sim::{run_distributed, SimConfig};
use sflow_workload::experiments::timing;
use sflow_workload::generator::{build_trial, RequirementKind};

fn series() {
    let rows = timing::run(&bench_sweep());
    println!("\n{}", timing::to_table(&rows).render());
}

fn bench(c: &mut Criterion) {
    series();
    let mut g = c.benchmark_group("fig10b/computation");
    for size in [10usize, 20, 30, 40, 50] {
        let trial = build_trial(size, 6, 3, RequirementKind::Path, 2004, 1);
        g.bench_with_input(
            BenchmarkId::new("sflow-distributed", size),
            &size,
            |b, _| {
                b.iter(|| {
                    let _link_state = trial.fixture.net.all_pairs();
                    let ap = trial.fixture.overlay.all_pairs();
                    let ctx =
                        FederationContext::new(&trial.fixture.overlay, &ap, trial.fixture.source);
                    run_distributed(&ctx, &trial.requirement, &SimConfig::default())
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("global-optimal", size), &size, |b, _| {
            b.iter(|| {
                let _link_state = trial.fixture.net.all_pairs();
                let ap = trial.fixture.overlay.all_pairs();
                let ctx = FederationContext::new(&trial.fixture.overlay, &ap, trial.fixture.source);
                GlobalOptimalAlgorithm.federate(&ctx, &trial.requirement)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
