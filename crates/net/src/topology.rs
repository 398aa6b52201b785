//! Topology generators for the underlying network.
//!
//! The paper evaluates sFlow over simulated networks of 10–50 nodes without
//! specifying a generator. We provide the standard choices of the era:
//!
//! * [`waxman`] — the Waxman model (random points on the unit square, edge
//!   probability decaying with distance), the default topology for overlay
//!   evaluations circa 2004;
//! * [`random_connected`] — a uniform random graph grown over a random
//!   spanning tree, which guarantees connectivity at any target degree;
//! * [`ring`] and [`grid`] — deterministic topologies for tests and examples.
//!
//! All stochastic generators take an explicit RNG so experiments are
//! reproducible; link QoS is sampled from a [`LinkProfile`].

use std::ops::RangeInclusive;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use sflow_routing::{Bandwidth, Latency, Qos};

use crate::UnderlyingNetwork;

/// Distribution of link QoS values used by the generators.
///
/// Bandwidth is sampled uniformly from `bandwidth_kbps` and latency from
/// `latency_us`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Range of link bandwidths, in kbit/s.
    pub bandwidth_kbps: RangeInclusive<u64>,
    /// Range of link latencies, in microseconds.
    pub latency_us: RangeInclusive<u64>,
}

impl LinkProfile {
    /// Creates a profile from explicit ranges.
    pub fn new(bandwidth_kbps: RangeInclusive<u64>, latency_us: RangeInclusive<u64>) -> Self {
        LinkProfile {
            bandwidth_kbps,
            latency_us,
        }
    }

    /// Samples one link QoS.
    pub fn sample(&self, rng: &mut impl Rng) -> Qos {
        Qos::new(
            Bandwidth::kbps(rng.gen_range(self.bandwidth_kbps.clone())),
            Latency::from_micros(rng.gen_range(self.latency_us.clone())),
        )
    }
}

impl Default for LinkProfile {
    /// Access-network-ish defaults: 100–1000 kbit/s links with 1–10 ms
    /// propagation delay.
    fn default() -> Self {
        LinkProfile::new(100..=1000, 1_000..=10_000)
    }
}

/// Generates a connected uniform random network.
///
/// A random spanning tree guarantees connectivity; additional random links
/// are then added until the network has `⌈n · avg_degree / 2⌉` links (or the
/// complete graph is reached). Self-loops and duplicate links are never
/// produced.
///
/// # Panics
///
/// Panics if `avg_degree < 0`.
pub fn random_connected(
    n: usize,
    avg_degree: f64,
    profile: &LinkProfile,
    rng: &mut impl Rng,
) -> UnderlyingNetwork {
    assert!(avg_degree >= 0.0, "average degree must be non-negative");
    let mut b = UnderlyingNetwork::builder();
    let hosts = b.add_hosts(n);
    if n > 1 {
        // Random spanning tree: attach each host (in shuffled order) to a
        // uniformly random, already-attached host.
        let mut order = hosts.clone();
        order.shuffle(rng);
        for i in 1..n {
            let parent = order[rng.gen_range(0..i)];
            b.link(order[i], parent, profile.sample(rng));
        }
        let max_links = n * (n - 1) / 2;
        let target = (((n as f64 * avg_degree) / 2.0).ceil() as usize).clamp(n - 1, max_links);
        let mut links = n - 1; // the spanning tree
        let mut guard = 0usize;
        while links < target && guard < 100 * max_links {
            guard += 1;
            let a = hosts[rng.gen_range(0..n)];
            let c = hosts[rng.gen_range(0..n)];
            if a == c || b.has_link(a, c) {
                continue;
            }
            b.link(a, c, profile.sample(rng));
            links += 1;
        }
    }
    b.build()
}

/// Generates a Waxman-model network.
///
/// Hosts are placed uniformly at random on the unit square; each candidate
/// link `(u, v)` is included with probability `α · exp(−d(u,v) / (β · √2))`.
/// Components are then stitched together with nearest-point links so the
/// result is always connected.
///
/// Typical parameters: `alpha ∈ [0.1, 0.3]`, `beta ∈ [0.1, 0.3]`.
///
/// # Panics
///
/// Panics if `alpha` or `beta` is not finite and positive.
pub fn waxman(
    n: usize,
    alpha: f64,
    beta: f64,
    profile: &LinkProfile,
    rng: &mut impl Rng,
) -> UnderlyingNetwork {
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
    assert!(beta.is_finite() && beta > 0.0, "beta must be positive");
    let mut b = UnderlyingNetwork::builder();
    let hosts = b.add_hosts(n);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    // Connectivity repair: union-find over the links as they are drawn,
    // then join each component to the first by its geometrically closest
    // pair.
    let mut comp: Vec<usize> = (0..n).collect();
    fn find(comp: &mut Vec<usize>, x: usize) -> usize {
        if comp[x] != x {
            let root = find(comp, comp[x]);
            comp[x] = root;
        }
        comp[x]
    }
    let diag = 2f64.sqrt();
    for i in 0..n {
        for j in (i + 1)..n {
            let d = dist(pts[i], pts[j]);
            let p = alpha * (-d / (beta * diag)).exp();
            if rng.gen::<f64>() < p {
                b.link(hosts[i], hosts[j], profile.sample(rng));
                let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                if ri != rj {
                    comp[ri] = rj;
                }
            }
        }
    }
    if n > 0 {
        loop {
            let root0 = find(&mut comp, 0);
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if find(&mut comp, i) != root0 {
                    for j in 0..n {
                        if find(&mut comp, j) == root0 {
                            let d = dist(pts[i], pts[j]);
                            if best.is_none_or(|(_, _, bd)| d < bd) {
                                best = Some((i, j, d));
                            }
                        }
                    }
                }
            }
            match best {
                None => break,
                Some((i, j, _)) => {
                    b.link(hosts[i], hosts[j], profile.sample(rng));
                    let (ri, rj) = (find(&mut comp, i), find(&mut comp, j));
                    comp[ri] = rj;
                }
            }
        }
    }
    b.build()
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Generates a transit–stub network (GT-ITM style, the other standard
/// topology of the paper's era): a well-connected backbone of `transit`
/// nodes with fast links, each attaching `stubs_per_transit` stub clusters
/// of `stub_size` hosts with slower access links.
///
/// Total hosts: `transit · (1 + stubs_per_transit · stub_size)`.
/// Deterministic given the RNG. Always connected.
///
/// # Panics
///
/// Panics if `transit == 0` or `stub_size == 0` with `stubs_per_transit > 0`.
pub fn transit_stub(
    transit: usize,
    stubs_per_transit: usize,
    stub_size: usize,
    backbone: &LinkProfile,
    access: &LinkProfile,
    rng: &mut impl Rng,
) -> UnderlyingNetwork {
    assert!(transit > 0, "need at least one transit node");
    assert!(
        stubs_per_transit == 0 || stub_size > 0,
        "stub clusters must be non-empty"
    );
    let mut b = UnderlyingNetwork::builder();
    let backbone_hosts = b.add_hosts(transit);
    // Backbone: ring plus random chords.
    if transit >= 2 {
        for i in 0..transit {
            let j = (i + 1) % transit;
            if !(transit == 2 && i == 1) {
                b.link(backbone_hosts[i], backbone_hosts[j], backbone.sample(rng));
            }
        }
        for i in 0..transit {
            for j in (i + 2)..transit {
                if (i, j) != (0, transit - 1) && rng.gen_bool(0.3) {
                    b.link(backbone_hosts[i], backbone_hosts[j], backbone.sample(rng));
                }
            }
        }
    }
    // Stub clusters.
    for &t in &backbone_hosts {
        for _ in 0..stubs_per_transit {
            let cluster = b.add_hosts(stub_size);
            // Random spanning tree within the cluster.
            for k in 1..stub_size {
                let parent = cluster[rng.gen_range(0..k)];
                b.link(cluster[k], parent, access.sample(rng));
            }
            // Occasional intra-cluster chord.
            if stub_size >= 3 && rng.gen_bool(0.5) {
                let a = cluster[rng.gen_range(0..stub_size)];
                let c = cluster[rng.gen_range(0..stub_size)];
                if a != c && !b.has_link(a, c) {
                    b.link(a, c, access.sample(rng));
                }
            }
            // Gateway up to the transit node.
            b.link(cluster[0], t, access.sample(rng));
        }
    }
    b.build()
}

/// Generates a ring of `n` hosts with uniform link QoS. Deterministic.
pub fn ring(n: usize, qos: Qos) -> UnderlyingNetwork {
    let mut b = UnderlyingNetwork::builder();
    let hosts = b.add_hosts(n);
    if n >= 2 {
        for i in 0..n {
            let j = (i + 1) % n;
            if !(n == 2 && i == 1) {
                b.link(hosts[i], hosts[j], qos);
            }
        }
    }
    b.build()
}

/// Generates a `w × h` grid (4-neighbourhood) with uniform link QoS.
/// Deterministic.
pub fn grid(w: usize, h: usize, qos: Qos) -> UnderlyingNetwork {
    let mut b = UnderlyingNetwork::builder();
    let hosts = b.add_hosts(w * h);
    let at = |x: usize, y: usize| hosts[y * w + x];
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.link(at(x, y), at(x + 1, y), qos);
            }
            if y + 1 < h {
                b.link(at(x, y), at(x, y + 1), qos);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn q(bw: u64, lat: u64) -> Qos {
        Qos::new(Bandwidth::kbps(bw), Latency::from_micros(lat))
    }

    #[test]
    fn random_connected_is_connected_at_every_size() {
        let profile = LinkProfile::default();
        for n in [1usize, 2, 5, 10, 30] {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let net = random_connected(n, 3.0, &profile, &mut rng);
            assert_eq!(net.host_count(), n);
            assert!(net.is_connected(), "n = {n}");
            assert!(net.link_count() >= n.saturating_sub(1));
        }
    }

    #[test]
    fn random_connected_hits_target_degree_roughly() {
        let profile = LinkProfile::default();
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_connected(40, 4.0, &profile, &mut rng);
        let target = (40.0 * 4.0 / 2.0) as usize;
        assert!(net.link_count() >= target.min(40 * 39 / 2));
    }

    #[test]
    fn random_connected_is_reproducible() {
        let profile = LinkProfile::default();
        let n1 = random_connected(20, 3.0, &profile, &mut StdRng::seed_from_u64(42));
        let n2 = random_connected(20, 3.0, &profile, &mut StdRng::seed_from_u64(42));
        assert_eq!(n1.link_count(), n2.link_count());
        for a in n1.hosts() {
            for bq in n1.hosts() {
                assert_eq!(n1.qos_between(a, bq), n2.qos_between(a, bq));
            }
        }
    }

    #[test]
    fn waxman_is_connected() {
        let profile = LinkProfile::default();
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = waxman(25, 0.2, 0.2, &profile, &mut rng);
            assert!(net.is_connected(), "seed {seed}");
            assert_eq!(net.host_count(), 25);
        }
    }

    /// `waxman-400`, the end-to-end benchmark's world, pinned: its link
    /// count and a checksum of every directed edge's endpoints and QoS in
    /// insertion order. A faster generator must build the same network.
    #[test]
    fn waxman_400_at_seed_42_is_pinned() {
        let profile = LinkProfile::new(10..=1000, 1_000..=10_000);
        let net = waxman(400, 0.25, 0.25, &profile, &mut StdRng::seed_from_u64(42));
        let checksum = net.graph().edges().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
            [
                e.from.index() as u64,
                e.to.index() as u64,
                e.weight.bandwidth.as_kbps(),
                e.weight.latency.as_micros(),
            ]
            .into_iter()
            .fold(h, |h, x| (h ^ x).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!(
            (net.link_count(), checksum),
            (5_734, 17_009_345_874_052_426_269)
        );
    }

    #[test]
    fn waxman_density_grows_with_alpha() {
        let profile = LinkProfile::default();
        let sparse = waxman(30, 0.05, 0.15, &profile, &mut StdRng::seed_from_u64(1));
        let dense = waxman(30, 0.9, 0.9, &profile, &mut StdRng::seed_from_u64(1));
        assert!(dense.link_count() > sparse.link_count());
    }

    #[test]
    fn ring_topology() {
        let net = ring(5, q(10, 1));
        assert_eq!(net.link_count(), 5);
        assert!(net.is_connected());
        let two_node = ring(2, q(10, 1));
        assert_eq!(two_node.link_count(), 1);
        assert!(ring(0, q(1, 1)).is_connected());
        assert!(ring(1, q(1, 1)).is_connected());
    }

    #[test]
    fn grid_topology() {
        let net = grid(3, 2, q(10, 1));
        assert_eq!(net.host_count(), 6);
        assert_eq!(net.link_count(), 7); // 3 vertical + 4 horizontal
        assert!(net.is_connected());
    }

    #[test]
    fn transit_stub_shape_and_connectivity() {
        let backbone = LinkProfile::new(1_000..=2_000, 500..=1_000);
        let access = LinkProfile::new(50..=300, 2_000..=10_000);
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = transit_stub(4, 2, 3, &backbone, &access, &mut rng);
            assert_eq!(net.host_count(), 4 * (1 + 2 * 3));
            assert!(net.is_connected(), "seed {seed}");
        }
        // Degenerate shapes.
        let mut rng = StdRng::seed_from_u64(0);
        let solo = transit_stub(1, 0, 1, &backbone, &access, &mut rng);
        assert_eq!(solo.host_count(), 1);
        assert!(solo.is_connected());
        let two = transit_stub(2, 1, 1, &backbone, &access, &mut rng);
        assert_eq!(two.host_count(), 4);
        assert!(two.is_connected());
    }

    #[test]
    fn transit_stub_backbone_is_faster_than_access() {
        let backbone = LinkProfile::new(1_000..=1_000, 100..=100);
        let access = LinkProfile::new(10..=10, 5_000..=5_000);
        let mut rng = StdRng::seed_from_u64(3);
        let net = transit_stub(3, 1, 2, &backbone, &access, &mut rng);
        // Transit-to-transit QoS must be backbone-class.
        let q01 = net
            .qos_between(crate::HostId::new(0), crate::HostId::new(1))
            .unwrap();
        assert_eq!(q01.bandwidth.as_kbps(), 1_000);
        // Stub hosts reach their transit over access-class links.
        let stub_q = net
            .qos_between(crate::HostId::new(3), crate::HostId::new(0))
            .unwrap();
        assert_eq!(stub_q.bandwidth.as_kbps(), 10);
    }

    #[test]
    fn link_profile_sampling_stays_in_range() {
        let p = LinkProfile::new(5..=10, 100..=200);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let qos = p.sample(&mut rng);
            assert!((5..=10).contains(&qos.bandwidth.as_kbps()));
            assert!((100..=200).contains(&qos.latency.as_micros()));
        }
    }
}
