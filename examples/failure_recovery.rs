//! Agile federation: instance failures and minimal-disruption repair.
//!
//! A media-ish federation runs; we kill the selected instance of one service
//! (then two at once), tombstone the casualties — their links are cut, and
//! the routing table is patched for the cut rather than rebuilt — and
//! repair. Surviving selections are pinned — only the broken parts of the
//! flow graph move.
//!
//! ```text
//! cargo run --example failure_recovery
//! ```

#![expect(clippy::print_stdout)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sflow::core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow::core::repair::repair;
use sflow::net::topology::{self, LinkProfile};
use sflow::{
    Compatibility, FederationContext, OverlayGraph, Placement, ServiceId, ServiceRequirement,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let services: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
    let mut rng = StdRng::seed_from_u64(7);
    let net = topology::waxman(22, 0.3, 0.3, &LinkProfile::default(), &mut rng);
    let placement = Placement::random(&net, &services, 3, &mut rng);
    let overlay = OverlayGraph::build(&net, &placement, &Compatibility::universal())?;
    let ap = overlay.all_pairs();
    let source = overlay.instances_of(services[0])[0];
    let ctx = FederationContext::new(&overlay, &ap, source);

    let req = ServiceRequirement::from_edges([
        (services[0], services[1]),
        (services[0], services[2]),
        (services[1], services[3]),
        (services[2], services[3]),
        (services[3], services[4]),
    ])?;

    let flow = SflowAlgorithm::default().federate(&ctx, &req)?;
    println!("initial federation:\n{flow}");

    // Failure 1: the selected instance of service 1 dies.
    let victim = flow.instances()[&services[1]];
    println!("✗ instance {victim} fails\n");
    let (degraded, cut) = overlay.with_failed(&[victim]);
    let (ap2, _) = ap.patched_with(degraded.graph(), &cut, 1);
    let ctx2 = FederationContext::new(&degraded, &ap2, source);
    let outcome = repair(&ctx2, &req, &flow)?;
    println!("repaired federation:\n{}", outcome.flow);
    println!(
        "moved: {:?}; preserved: {:?}; full re-federation: {}\n",
        outcome.reselected, outcome.preserved, outcome.full_refederation
    );

    // Failure 2: two more selected instances die simultaneously.
    let victims = [
        outcome.flow.instances()[&services[2]],
        outcome.flow.instances()[&services[3]],
    ];
    println!("✗ instances {} and {} fail\n", victims[0], victims[1]);
    let (degraded2, cut) = degraded.with_failed(&victims);
    let (ap3, _) = ap2.patched_with(degraded2.graph(), &cut, 1);
    let ctx3 = FederationContext::new(&degraded2, &ap3, source);
    let outcome2 = repair(&ctx3, &req, &outcome.flow)?;
    println!("repaired federation:\n{}", outcome2.flow);
    println!(
        "moved: {:?}; preserved: {:?}; full re-federation: {}",
        outcome2.reselected, outcome2.preserved, outcome2.full_refederation
    );

    // Render the final flow for graphviz users.
    println!("\nDOT of the final flow graph:\n{}", outcome2.flow.to_dot());
    Ok(())
}
