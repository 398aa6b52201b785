//! The distributed sFlow protocol in action (the paper's Fig. 9
//! walkthrough): the same federation executed three ways —
//!
//! 1. centralized (the solver run in one place),
//! 2. under the deterministic discrete-event simulator, and
//! 3. on the threaded actor runtime (one thread per service instance,
//!    crossbeam channels as the transport).
//!
//! ```text
//! cargo run --example distributed_federation
//! ```

#![expect(clippy::print_stdout)]

use sflow::core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow::core::fixtures::paper_fig4_fixture;
use sflow::core::reduction::Plan;
use sflow::runtime::{run_actors, RuntimeConfig};
use sflow::sim::{run_distributed, SimConfig};
use sflow::{ServiceId, ServiceRequirement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The world of the paper's Fig. 4: a 12-host network with services 0–4
    // placed as in the figure.
    let fx = paper_fig4_fixture();
    let ctx = fx.context();
    let s: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();

    // The requirement of Fig. 9: service 0 feeds both the 1 → 2 → 3 chain
    // and service 4; everything is consumed downstream of node 0's data.
    let req = ServiceRequirement::from_edges([
        (s[0], s[1]),
        (s[1], s[2]),
        (s[2], s[3]),
        (s[0], s[4]),
        (s[1], s[3]),
    ])?;
    println!("requirement: {req}");
    println!("reduction plan: {}\n", Plan::analyze(&req).describe());

    // 1. Centralized reference.
    let central = SflowAlgorithm::default().federate(&ctx, &req)?;
    println!("centralized sFlow:\n{central}");

    // 2. Discrete-event simulation of sfederate message passing.
    let sim = run_distributed(&ctx, &req, &SimConfig::default())?;
    println!("event-driven simulation:\n{}", sim.flow);
    println!(
        "  {} messages, {} bytes on the wire, {} sink completions,\n  \
         {} local computations ({} conflicts), finished at t = {} µs, \
         longest chain {} hops\n",
        sim.stats.messages,
        sim.stats.bytes,
        sim.stats.completed_sinks,
        sim.stats.computations,
        sim.stats.conflicts,
        sim.stats.duration_us,
        sim.stats.max_hops
    );

    // 3. The threaded actor runtime: same protocol, real concurrency.
    let act = run_actors(&ctx, &req, &RuntimeConfig::default())?;
    println!("actor runtime:\n{}", act.flow);
    println!(
        "  {} actors participated, {} messages, federated in {} µs wall clock\n",
        act.stats.actors, act.stats.messages, act.stats.wall_us
    );

    // All three transports express the same algorithm.
    assert_eq!(central.bandwidth(), sim.flow.bandwidth());
    assert_eq!(central.bandwidth(), act.flow.bandwidth());
    println!(
        "all three executions agree on the bottleneck bandwidth: {}",
        central.bandwidth()
    );
    Ok(())
}
