//! Quickstart: build a world from scratch, federate a requirement, inspect
//! the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![expect(clippy::print_stdout)]

use sflow::core::algorithms::{FederationAlgorithm, SflowAlgorithm};
use sflow::{
    Bandwidth, Compatibility, FederationContext, Latency, OverlayGraph, Placement, Qos, ServiceId,
    ServiceInstance, ServiceRequirement, UnderlyingNetwork,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The underlying (physical) network: six hosts, a handful of links,
    //    each labelled (bandwidth, latency) like the paper's Fig. 4.
    let q = |bw: u64, ms: u64| Qos::new(Bandwidth::kbps(bw), Latency::from_millis(ms));
    let mut b = UnderlyingNetwork::builder();
    let h = b.add_hosts(6);
    b.link(h[0], h[1], q(800, 2))
        .link(h[1], h[2], q(600, 3))
        .link(h[2], h[5], q(700, 2))
        .link(h[0], h[3], q(300, 1))
        .link(h[3], h[4], q(250, 1))
        .link(h[4], h[5], q(400, 1))
        .link(h[1], h[4], q(500, 4));
    let net = b.build();
    println!(
        "underlying network: {} hosts, {} links, connected = {}",
        net.host_count(),
        net.link_count(),
        net.is_connected()
    );

    // 2. Services and placement. Service 1 (a filter) and service 2 (a
    //    transcoder) each have two instances; the consumer-facing sink has
    //    one.
    let s: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
    let mut placement = Placement::new();
    placement.add(ServiceInstance::new(s[0], h[0])); // source: content engine
    placement.add(ServiceInstance::new(s[1], h[1]));
    placement.add(ServiceInstance::new(s[1], h[3]));
    placement.add(ServiceInstance::new(s[2], h[2]));
    placement.add(ServiceInstance::new(s[2], h[4]));
    placement.add(ServiceInstance::new(s[3], h[5])); // sink: the consumer side

    // 3. Compatibility: which service can feed which (Sec. 2.2).
    let compat = Compatibility::from_pairs([
        (s[0], s[1]),
        (s[1], s[2]),
        (s[2], s[3]),
        (s[0], s[2]),
        (s[1], s[3]),
    ]);

    // 4. The service overlay: one node per instance, service links labelled
    //    with the shortest-widest QoS through the underlying network.
    let overlay = OverlayGraph::build(&net, &placement, &compat)?;
    println!(
        "overlay: {} instances, {} service links",
        overlay.instance_count(),
        overlay.link_count()
    );
    for e in overlay.graph().edges() {
        println!(
            "  {} → {}  {}",
            overlay.instance(e.from),
            overlay.instance(e.to),
            e.weight
        );
    }

    // 5. A service requirement: a diamond — the filter and the transcoder
    //    work in parallel before the results merge at the sink.
    let req =
        ServiceRequirement::from_edges([(s[0], s[1]), (s[0], s[2]), (s[1], s[3]), (s[2], s[3])])?;
    println!("\nrequirement: {req}");

    // 6. Federate with sFlow (2-hop local views, as in the paper).
    let all_pairs = overlay.all_pairs();
    let source = overlay.instances_of(s[0])[0];
    let ctx = FederationContext::new(&overlay, &all_pairs, source);
    let flow = SflowAlgorithm::default().federate(&ctx, &req)?;

    println!("\n{flow}");
    println!(
        "bottleneck bandwidth = {}, end-to-end latency = {}",
        flow.bandwidth(),
        flow.latency()
    );
    Ok(())
}
