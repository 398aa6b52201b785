//! Consistency of the executions of the sFlow algorithm: centralized
//! solver, discrete-event simulation, threaded actor runtime, and the
//! resident server's `Algorithm::Sflow`.

use sflow::core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow::core::fixtures::random_fixture;
use sflow::runtime::{run_actors, RuntimeConfig};
use sflow::server::{serve, Algorithm, Client, Response, ServerConfig, World};
use sflow::sim::{run_distributed, SimConfig};
use sflow::{ServiceId, ServiceRequirement};

fn services(n: u32) -> Vec<ServiceId> {
    (0..n).map(ServiceId::new).collect()
}

fn worlds_and_requirements() -> Vec<(ServiceRequirement, u64)> {
    let s = services(6);
    let chain = ServiceRequirement::path(&s[..4]).unwrap();
    let diamond =
        ServiceRequirement::from_edges([(s[0], s[1]), (s[0], s[2]), (s[1], s[3]), (s[2], s[3])])
            .unwrap();
    let tree =
        ServiceRequirement::from_edges([(s[0], s[1]), (s[0], s[2]), (s[1], s[3]), (s[1], s[4])])
            .unwrap();
    let dag = ServiceRequirement::from_edges([
        (s[0], s[1]),
        (s[0], s[2]),
        (s[1], s[3]),
        (s[2], s[3]),
        (s[2], s[4]),
        (s[3], s[5]),
        (s[4], s[5]),
    ])
    .unwrap();
    vec![(chain, 11), (diamond, 22), (tree, 33), (dag, 44)]
}

/// `req` as the server's chain expression, one chain per edge.
fn chain_expression(req: &ServiceRequirement) -> String {
    let edges: Vec<String> = req
        .edges()
        .iter()
        .map(|(from, to)| format!("{}>{}", from.as_u32(), to.as_u32()))
        .collect();
    edges.join(", ")
}

/// The bottleneck a fresh server answers for `req` under `Algorithm::Sflow`
/// at the horizon `SflowAlgorithm::default()` uses.
fn served_bandwidth_kbps(world: World, req: &ServiceRequirement) -> u64 {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let handle = serve(world, &config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let hop_limit = SflowAlgorithm::default().hop_limit();
    let served = match client
        .federate(&chain_expression(req), Algorithm::Sflow, hop_limit)
        .unwrap()
    {
        Response::Federated(summary) => summary.bandwidth_kbps,
        other => panic!("expected Federated, got {other:?}"),
    };
    handle.shutdown();
    served
}

#[test]
fn simulation_matches_centralized_selection_quality() {
    for (req, base) in worlds_and_requirements() {
        for seed in 0..4u64 {
            let s = services(6);
            let fx = random_fixture(18, &s, 3, None, base + seed);
            let ctx = fx.context();
            let Ok(central) = SflowAlgorithm::default().federate(&ctx, &req) else {
                continue;
            };
            let sim = run_distributed(&ctx, &req, &SimConfig::default())
                .unwrap_or_else(|e| panic!("sim failed on seed {seed}: {e}"));
            assert_eq!(
                sim.flow.bandwidth(),
                central.bandwidth(),
                "req {req} seed {seed}"
            );
            assert_eq!(sim.flow.selection().len(), req.len());
            let served = served_bandwidth_kbps(World::new(fx.clone()), &req);
            assert_eq!(
                served,
                central.bandwidth().as_kbps(),
                "server: req {req} seed {seed}"
            );
        }
    }
}

#[test]
fn actor_runtime_matches_simulation() {
    for (req, base) in worlds_and_requirements() {
        for seed in 0..3u64 {
            let s = services(6);
            let fx = random_fixture(18, &s, 3, None, 1000 + base + seed);
            let ctx = fx.context();
            let Ok(sim) = run_distributed(&ctx, &req, &SimConfig::default()) else {
                continue;
            };
            let act = run_actors(&ctx, &req, &RuntimeConfig::default())
                .unwrap_or_else(|e| panic!("actors failed on seed {seed}: {e}"));
            assert_eq!(act.flow.bandwidth(), sim.flow.bandwidth());
            assert_eq!(act.flow.selection().len(), req.len());
        }
    }
}

#[test]
fn simulation_is_fully_deterministic() {
    let s = services(6);
    let (req, _) = &worlds_and_requirements()[3];
    let fx = random_fixture(20, &s, 3, None, 999);
    let ctx = fx.context();
    let a = run_distributed(&ctx, req, &SimConfig::default()).unwrap();
    let b = run_distributed(&ctx, req, &SimConfig::default()).unwrap();
    assert_eq!(a.flow.selection(), b.flow.selection());
    assert_eq!(a.stats, b.stats);
}

#[test]
fn message_counts_scale_with_requirement_edges() {
    // Each requirement edge induces at least one sfederate hand-off.
    let s = services(6);
    let (dag, _) = worlds_and_requirements().pop().unwrap();
    let fx = random_fixture(18, &s, 3, None, 77);
    let ctx = fx.context();
    let out = run_distributed(&ctx, &dag, &SimConfig::default()).unwrap();
    assert!(out.stats.messages >= dag.edge_count());
    // And stays bounded: forwards + pin updates + reports.
    let bound = dag.edge_count() * (dag.len() + 2) + 4 * dag.sinks().len() * dag.len();
    assert!(
        out.stats.messages <= bound,
        "{} messages exceeds bound {bound}",
        out.stats.messages
    );
}

#[test]
fn hop_horizon_affects_only_quality_not_validity() {
    let s = services(6);
    let (dag, _) = worlds_and_requirements().pop().unwrap();
    for horizon in [1usize, 2, 4] {
        let fx = random_fixture(18, &s, 3, None, 555);
        let ctx = fx.context();
        let cfg = SimConfig {
            hop_limit: Some(horizon),
            ..SimConfig::default()
        };
        match run_distributed(&ctx, &dag, &cfg) {
            Ok(out) => assert_eq!(out.flow.selection().len(), dag.len()),
            Err(_) => {
                // A 1-hop horizon may legitimately make a requirement
                // infeasible; larger horizons on this seed must not.
                assert_eq!(horizon, 1, "horizon {horizon} should succeed");
            }
        }
    }
}
