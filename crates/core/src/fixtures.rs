//! Ready-made worlds (network + overlay + context) used by unit tests,
//! integration tests, examples and benchmarks across the workspace.
//!
//! Each fixture owns everything a [`FederationContext`] borrows, so a context
//! can be materialised on demand with [`Fixture::context`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use sflow_graph::NodeIx;
use sflow_net::{
    topology, Compatibility, HostId, OverlayGraph, Placement, ServiceId, ServiceInstance,
    UnderlyingNetwork,
};
use sflow_routing::{AllPairs, Bandwidth, Latency, Qos};

use crate::{FederationContext, ServiceRequirement};

/// A self-contained world: underlying network, overlay, routing table and a
/// pinned source instance.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// The physical network.
    pub net: UnderlyingNetwork,
    /// The service overlay built over it.
    pub overlay: OverlayGraph,
    /// All-pairs shortest-widest paths over the overlay.
    pub all_pairs: AllPairs,
    /// The overlay node the consumer delivers requirements to.
    pub source: NodeIx,
}

impl Fixture {
    /// Builds a fixture from its parts, with the overlay's lazy routing
    /// table ([`OverlayGraph::all_pairs`]: no row is swept until a read
    /// needs it), pinning the first instance of `source_service` as the
    /// source.
    ///
    /// # Panics
    ///
    /// Panics if the overlay has no instance of `source_service`.
    pub fn new(net: UnderlyingNetwork, overlay: OverlayGraph, source_service: ServiceId) -> Self {
        let all_pairs = overlay.all_pairs();
        let source = overlay.instances_of(source_service)[0];
        Fixture {
            net,
            overlay,
            all_pairs,
            source,
        }
    }

    /// A federation context borrowing this fixture.
    pub fn context(&self) -> FederationContext<'_> {
        FederationContext::new(&self.overlay, &self.all_pairs, self.source)
    }
}

fn q(bw: u64, lat: u64) -> Qos {
    Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
}

/// Four hosts in a line; s0 on h0, s1 on {h1, h2}, s2 on h3, compatibility
/// s0→s1→s2. The minimal world with a real instance choice.
pub fn line_fixture() -> Fixture {
    let mut b = UnderlyingNetwork::builder();
    let h = b.add_hosts(4);
    b.link(h[0], h[1], q(10, 1))
        .link(h[1], h[2], q(8, 1))
        .link(h[2], h[3], q(6, 1));
    let net = b.build();
    let s: Vec<ServiceId> = (0..3).map(ServiceId::new).collect();
    let mut p = Placement::new();
    p.add(ServiceInstance::new(s[0], h[0]));
    p.add(ServiceInstance::new(s[1], h[1]));
    p.add(ServiceInstance::new(s[1], h[2]));
    p.add(ServiceInstance::new(s[2], h[3]));
    let compat = Compatibility::from_pairs([(s[0], s[1]), (s[1], s[2])]);
    let overlay = OverlayGraph::build(&net, &p, &compat).unwrap();
    Fixture::new(net, overlay, s[0])
}

/// A diamond world for the requirement `0 → {1, 2} → 3`, with two instances
/// of every non-source service placed so that instance choice matters:
/// hosts on the "north" route have high bandwidth, hosts on the "south"
/// route low bandwidth.
pub fn diamond_fixture() -> Fixture {
    let mut b = UnderlyingNetwork::builder();
    let h = b.add_hosts(7);
    // North ring: h0–h1–h2–h3 wide; south: h0–h4–h5–h3 narrow; h6 spare.
    b.link(h[0], h[1], q(100, 10))
        .link(h[1], h[2], q(90, 10))
        .link(h[2], h[3], q(80, 10))
        .link(h[0], h[4], q(10, 5))
        .link(h[4], h[5], q(9, 5))
        .link(h[5], h[3], q(8, 5))
        .link(h[6], h[1], q(50, 20));
    let net = b.build();
    let s: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
    let mut p = Placement::new();
    p.add(ServiceInstance::new(s[0], h[0]));
    p.add(ServiceInstance::new(s[1], h[1]));
    p.add(ServiceInstance::new(s[1], h[4]));
    p.add(ServiceInstance::new(s[2], h[2]));
    p.add(ServiceInstance::new(s[2], h[5]));
    p.add(ServiceInstance::new(s[3], h[3]));
    p.add(ServiceInstance::new(s[3], h[6]));
    let compat = Compatibility::from_pairs([
        (s[0], s[1]),
        (s[0], s[2]),
        (s[1], s[3]),
        (s[2], s[3]),
        (s[1], s[2]),
    ]);
    let overlay = OverlayGraph::build(&net, &p, &compat).unwrap();
    Fixture::new(net, overlay, s[0])
}

/// The diamond requirement `0 → {1, 2} → 3` matching [`diamond_fixture`].
pub fn diamond_requirement() -> ServiceRequirement {
    let s: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
    ServiceRequirement::from_edges([(s[0], s[1]), (s[0], s[2]), (s[1], s[3]), (s[2], s[3])])
        .unwrap()
}

/// A reproduction of the paper's Fig. 4 world: a 12-host underlying network
/// with services 0–4 placed as in the figure (service 1 on hosts 5 and 7,
/// service 2 on hosts 9 and 11, etc.), universal compatibility restricted to
/// the requirement edges of Fig. 6.
///
/// Exact link weights in the figure are partially illegible in the published
/// scan; the weights used here preserve the property discussed in Sec. 2.2:
/// host 5 beats host 7 for service 1, and host 9 beats host 11 for
/// service 2.
pub fn paper_fig4_fixture() -> Fixture {
    let mut b = UnderlyingNetwork::builder();
    let h = b.add_hosts(12);
    b.link(h[0], h[1], q(5, 5))
        .link(h[1], h[2], q(4, 9))
        .link(h[0], h[3], q(5, 6))
        .link(h[1], h[4], q(3, 6))
        .link(h[2], h[5], q(6, 3))
        .link(h[3], h[4], q(4, 4))
        .link(h[4], h[5], q(2, 6))
        .link(h[3], h[6], q(4, 5))
        .link(h[4], h[7], q(2, 3))
        .link(h[5], h[8], q(4, 6))
        .link(h[6], h[7], q(3, 2))
        .link(h[7], h[8], q(2, 4))
        .link(h[6], h[9], q(4, 6))
        .link(h[7], h[10], q(2, 6))
        .link(h[8], h[11], q(2, 2))
        .link(h[9], h[10], q(4, 3))
        .link(h[10], h[11], q(1, 6));
    let net = b.build();
    let s: Vec<ServiceId> = (0..5).map(ServiceId::new).collect();
    let mut p = Placement::new();
    p.add(ServiceInstance::new(s[0], h[0])); // source service
    p.add(ServiceInstance::new(s[1], h[5]));
    p.add(ServiceInstance::new(s[1], h[7]));
    p.add(ServiceInstance::new(s[2], h[9]));
    p.add(ServiceInstance::new(s[2], h[11]));
    p.add(ServiceInstance::new(s[3], h[10]));
    p.add(ServiceInstance::new(s[4], h[2])); // alternate consumer
    let compat = Compatibility::from_pairs([
        (s[0], s[1]),
        (s[1], s[2]),
        (s[2], s[3]),
        (s[0], s[4]),
        (s[1], s[3]),
    ]);
    let overlay = OverlayGraph::build(&net, &p, &compat).unwrap();
    Fixture::new(net, overlay, s[0])
}

/// A seeded random world: a Waxman network of `hosts` hosts, `services`
/// services with `per_service` instances each, compatibility restricted to
/// `compat_pairs` (or universal when `None`).
pub fn random_fixture(
    hosts: usize,
    services: &[ServiceId],
    per_service: usize,
    compat_pairs: Option<&[(ServiceId, ServiceId)]>,
    seed: u64,
) -> Fixture {
    random_fixture_with(hosts, services, per_service, compat_pairs, seed, None)
}

/// [`random_fixture`] with an explicit overlay sparsity cap: each instance
/// keeps only its best `max_links_per_service` service links per downstream
/// service (see [`sflow_net::OverlayOptions`]). Sparse service meshes are
/// what make local views — and greedy traps — matter.
pub fn random_fixture_with(
    hosts: usize,
    services: &[ServiceId],
    per_service: usize,
    compat_pairs: Option<&[(ServiceId, ServiceId)]>,
    seed: u64,
    max_links_per_service: Option<usize>,
) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = topology::LinkProfile::new(10..=1000, 1_000..=10_000);
    let net = topology::waxman(hosts, 0.25, 0.25, &profile, &mut rng);
    fixture_over(
        net,
        services,
        per_service,
        compat_pairs,
        seed,
        max_links_per_service,
    )
}

/// Builds a fixture over an *existing* underlying network: random placement
/// of `per_service` instances per service, compatibility from `compat_pairs`
/// (universal when `None`), and an overlay capped at `max_links_per_service`
/// links per downstream service.
pub fn fixture_over(
    net: UnderlyingNetwork,
    services: &[ServiceId],
    per_service: usize,
    compat_pairs: Option<&[(ServiceId, ServiceId)]>,
    seed: u64,
    max_links_per_service: Option<usize>,
) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51AC_ED00);
    let placement = Placement::random(&net, services, per_service, &mut rng);
    let compat = match compat_pairs {
        Some(pairs) => Compatibility::from_pairs(pairs.iter().copied()),
        None => Compatibility::universal(),
    };
    let options = sflow_net::OverlayOptions {
        max_links_per_service,
    };
    let overlay = OverlayGraph::build_with(&net, &placement, &compat, &options).unwrap();
    Fixture::new(net, overlay, services[0])
}

/// Convenience: the host of the fixture's pinned source instance.
pub fn source_host(fx: &Fixture) -> HostId {
    fx.overlay.instance(fx.source).host
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fixture_is_well_formed() {
        let fx = line_fixture();
        assert!(fx.net.is_connected());
        assert_eq!(fx.overlay.instance_count(), 4);
        assert_eq!(fx.context().source().service, ServiceId::new(0));
        assert_eq!(source_host(&fx), HostId::new(0));
    }

    #[test]
    fn diamond_fixture_has_choices() {
        let fx = diamond_fixture();
        assert_eq!(fx.overlay.instances_of(ServiceId::new(1)).len(), 2);
        assert_eq!(fx.overlay.instances_of(ServiceId::new(2)).len(), 2);
        let req = diamond_requirement();
        assert_eq!(req.len(), 4);
    }

    #[test]
    fn paper_fig4_fixture_is_connected() {
        let fx = paper_fig4_fixture();
        assert!(fx.net.is_connected());
        assert_eq!(fx.net.host_count(), 12);
        assert_eq!(fx.overlay.instances_of(ServiceId::new(1)).len(), 2);
    }

    #[test]
    fn random_fixture_is_reproducible() {
        let services: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
        let a = random_fixture(20, &services, 2, None, 9);
        let b = random_fixture(20, &services, 2, None, 9);
        assert_eq!(a.overlay.instance_count(), b.overlay.instance_count());
        assert_eq!(a.overlay.link_count(), b.overlay.link_count());
    }
}
