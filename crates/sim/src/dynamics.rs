//! Network dynamics: QoS churn on the underlying links.
//!
//! Overlay link state is not static — cross traffic moves bottlenecks and
//! queues around. This module evolves an [`UnderlyingNetwork`]'s link QoS by
//! a bounded random walk, which the churn experiment
//! (`sflow-workload::experiments::churn`) uses to measure how a *static*
//! federation decays over time versus periodically re-federated (*agile*)
//! ones.

use rand::Rng;
use sflow_net::{Compatibility, OverlayGraph, Placement, UnderlyingNetwork};
use sflow_routing::{Bandwidth, Latency, Qos};

/// Churn parameters: each epoch, every link's bandwidth and latency are
/// multiplied by an independent factor drawn uniformly from
/// `[1 − drift, 1 + drift]` (clamped to stay positive).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnModel {
    /// Maximum relative change per epoch, e.g. `0.3` for ±30%.
    pub drift: f64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel { drift: 0.3 }
    }
}

impl ChurnModel {
    /// Applies one epoch of churn, producing a new network with the same
    /// hosts and links but jittered QoS.
    ///
    /// # Panics
    ///
    /// Panics if `drift` is not in `[0, 1)`.
    pub fn evolve(&self, net: &UnderlyingNetwork, rng: &mut impl Rng) -> UnderlyingNetwork {
        assert!((0.0..1.0).contains(&self.drift), "drift must be in [0, 1)");
        let mut b = UnderlyingNetwork::builder();
        b.add_hosts(net.host_count());
        for e in net.graph().edges() {
            let (from, to) = (net.host_of(e.from), net.host_of(e.to));
            // Each undirected link appears as two antiparallel edges; jitter
            // it once, on the canonical orientation.
            if from < to {
                b.link(from, to, self.jitter(*e.weight, rng));
            }
        }
        b.build()
    }

    fn jitter(&self, qos: Qos, rng: &mut impl Rng) -> Qos {
        let f = |v: u64, factor: f64| -> u64 { ((v as f64 * factor).round() as u64).max(1) };
        let bw_factor = 1.0 + rng.gen_range(-self.drift..=self.drift);
        let lat_factor = 1.0 + rng.gen_range(-self.drift..=self.drift);
        Qos::new(
            Bandwidth::kbps(f(qos.bandwidth.as_kbps(), bw_factor)),
            Latency::from_micros(f(qos.latency.as_micros(), lat_factor)),
        )
    }
}

/// Recovers the placement and (link-level) compatibility relation from an
/// existing overlay, so the overlay can be rebuilt over an evolved network:
/// the placement is the overlay's instance set; the compatibility is the set
/// of service pairs that had at least one service link.
pub fn extract_placement_and_compat(overlay: &OverlayGraph) -> (Placement, Compatibility) {
    let placement: Placement = overlay.graph().nodes().map(|(_, &inst)| inst).collect();
    let mut compat = Compatibility::from_pairs([]);
    for e in overlay.graph().edges() {
        compat.allow(
            overlay.instance(e.from).service,
            overlay.instance(e.to).service,
        );
    }
    (placement, compat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sflow_net::topology::{self, LinkProfile};
    use sflow_net::ServiceId;
    use sflow_routing::DijkstraScratch;

    #[test]
    fn evolve_preserves_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = topology::waxman(20, 0.3, 0.3, &LinkProfile::default(), &mut rng);
        let churn = ChurnModel { drift: 0.3 };
        let evolved = churn.evolve(&net, &mut rng);
        assert_eq!(evolved.host_count(), net.host_count());
        assert_eq!(evolved.link_count(), net.link_count());
        assert_eq!(evolved.is_connected(), net.is_connected());
    }

    #[test]
    fn zero_drift_is_identity_on_qos() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = topology::ring(
            5,
            Qos::new(Bandwidth::kbps(100), Latency::from_micros(1000)),
        );
        let churn = ChurnModel { drift: 0.0 };
        let evolved = churn.evolve(&net, &mut rng);
        for a in net.hosts() {
            for b in net.hosts() {
                assert_eq!(net.qos_between(a, b), evolved.qos_between(a, b));
            }
        }
    }

    #[test]
    fn drift_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = topology::ring(
            4,
            Qos::new(Bandwidth::kbps(1000), Latency::from_micros(1000)),
        );
        let churn = ChurnModel { drift: 0.2 };
        let evolved = churn.evolve(&net, &mut rng);
        for e in evolved.graph().edges() {
            let bw = e.weight.bandwidth.as_kbps();
            assert!((800..=1200).contains(&bw), "bw {bw} out of ±20%");
            let lat = e.weight.latency.as_micros();
            assert!((800..=1200).contains(&lat), "lat {lat} out of ±20%");
        }
    }

    /// The overlay's pricing holds on churned networks too: pricing
    /// every host pair from one forest and one bounded sweep per host
    /// answers what the evolved network's full table does, and the overlay
    /// rebuilt over it links every instance pair at that price.
    #[test]
    fn an_evolved_network_prices_every_pair_as_its_full_table() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = topology::waxman(40, 0.25, 0.25, &LinkProfile::new(1..=4, 1..=4), &mut rng);
        let churn = ChurnModel { drift: 0.5 };
        let services: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
        for _ in 0..3 {
            net = churn.evolve(&net, &mut rng);
            let hosts: Vec<_> = net.hosts().collect();
            let table = net.all_pairs();
            let between = |a, b| table.qos(net.node_of(a), net.node_of(b));
            let priced = net.pair_qos(&hosts, &mut DijkstraScratch::new());
            for (i, &a) in hosts.iter().enumerate() {
                for (j, &b) in hosts.iter().enumerate() {
                    assert_eq!(priced.qos(i, j), between(a, b), "{a} -> {b}");
                }
            }
            let placement = Placement::random(&net, &services, 3, &mut rng);
            let overlay = OverlayGraph::build(&net, &placement, &Compatibility::universal())
                .expect("every placed host exists");
            for e in overlay.graph().edges() {
                let (a, b) = (overlay.instance(e.from).host, overlay.instance(e.to).host);
                let expected = if a == b {
                    Some(Qos::IDENTITY)
                } else {
                    between(a, b)
                };
                assert_eq!(Some(*e.weight), expected, "{a} -> {b}");
            }
            // A connected network and universal compatibility: every pair of
            // instances of two services is linked, both ways.
            let per_service = 3;
            let pairs = services.len() * (services.len() - 1) * per_service * per_service;
            assert_eq!(overlay.link_count(), pairs);
        }
    }

    #[test]
    fn extract_round_trips_the_overlay() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = topology::waxman(15, 0.3, 0.3, &LinkProfile::default(), &mut rng);
        let services: Vec<ServiceId> = (0..4).map(ServiceId::new).collect();
        let placement = Placement::random(&net, &services, 2, &mut rng);
        let compat = Compatibility::from_pairs([
            (services[0], services[1]),
            (services[1], services[2]),
            (services[2], services[3]),
        ]);
        let overlay = OverlayGraph::build(&net, &placement, &compat).unwrap();
        let (p2, c2) = extract_placement_and_compat(&overlay);
        assert_eq!(p2.len(), placement.len());
        // Rebuilding over the same network reproduces the same overlay shape.
        let rebuilt = OverlayGraph::build(&net, &p2, &c2).unwrap();
        assert_eq!(rebuilt.instance_count(), overlay.instance_count());
        assert_eq!(rebuilt.link_count(), overlay.link_count());
    }

    #[test]
    #[should_panic(expected = "drift must be")]
    fn invalid_drift_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = topology::ring(3, Qos::new(Bandwidth::kbps(1), Latency::ZERO));
        ChurnModel { drift: 1.5 }.evolve(&net, &mut rng);
    }
}
