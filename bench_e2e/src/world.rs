//! The benchmark's world (`waxman-400`) and its menu of feasible
//! requirements.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sflow_core::fixtures::Fixture;
use sflow_core::{ServiceRequirement, Solver};
use sflow_net::{topology, Compatibility, OverlayGraph, OverlayOptions, Placement, ServiceId};
use sflow_workload::generator::{mixed_kind, random_requirement};

const HOSTS: usize = 400;
const SERVICES: u32 = 10;
const PER_SERVICE: usize = 8;

/// The world is the same on every seed: `--seed` draws the traffic, not the
/// topology, so runs on different seeds measure the same routing tables and
/// their medians can be compared.
const WORLD_SEED: u64 = 42;

/// Wall-clock of one cold world build, by layer, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildTimes {
    pub overlay_s: f64,
    pub all_pairs_s: f64,
}

/// Builds `waxman-400` the way `sflow_core::fixtures::random_fixture` does
/// (same generators, same seed derivation), timing each layer's share.
pub fn build_world() -> (Fixture, BuildTimes) {
    let services: Vec<ServiceId> = (0..SERVICES).map(ServiceId::new).collect();
    let mut rng = StdRng::seed_from_u64(WORLD_SEED);
    let profile = topology::LinkProfile::new(10..=1000, 1_000..=10_000);
    let net = topology::waxman(HOSTS, 0.25, 0.25, &profile, &mut rng);
    let t1 = Instant::now();
    let mut rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x51AC_ED00);
    let placement = Placement::random(&net, &services, PER_SERVICE, &mut rng);
    let overlay = OverlayGraph::build_with(
        &net,
        &placement,
        &Compatibility::universal(),
        &OverlayOptions::default(),
    )
    .expect("every placed host exists in the network");
    let t2 = Instant::now();
    let all_pairs = overlay.all_pairs();
    let t3 = Instant::now();
    let source = overlay.instances_of(services[0])[0];
    let fixture = Fixture {
        net,
        overlay,
        all_pairs,
        source,
    };
    let times = BuildTimes {
        overlay_s: (t2 - t1).as_secs_f64(),
        all_pairs_s: (t3 - t2).as_secs_f64(),
    };
    (fixture, times)
}

/// Renders a requirement as the edge-list expression the wire carries.
fn edge_list(requirement: &ServiceRequirement) -> String {
    requirement
        .edges()
        .iter()
        .map(|(from, to)| format!("{}>{}", from.as_u32(), to.as_u32()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Catalogue size and the seed it is drawn with: like the world, the same
/// on every `--seed`.
const CATALOGUE: usize = 64;
const CATALOGUE_SEED: u64 = 7;

/// The catalogue: [`CATALOGUE`] distinct feasible requirements in the paper's
/// mix (DAGs, disjoint paths, trees) over 4–6 services rooted at service 0,
/// each screened by an in-process solve so that it federates on the empty
/// plane.
pub fn catalogue(fixture: &Fixture) -> Vec<String> {
    let context = fixture.context();
    let solver = Solver::new(&context);
    let mut rng = StdRng::seed_from_u64(CATALOGUE_SEED);
    let mut keys = std::collections::BTreeSet::new();
    let mut menu = Vec::with_capacity(CATALOGUE);
    let mut trial = 0usize;
    while menu.len() < CATALOGUE {
        assert!(
            trial < CATALOGUE * 64,
            "world too hostile for the catalogue"
        );
        let len = 4 + trial % 3;
        let mut services: Vec<ServiceId> = (1..SERVICES).map(ServiceId::new).collect();
        rand::seq::SliceRandom::shuffle(&mut services[..], &mut rng);
        services.truncate(len - 1);
        services.insert(0, ServiceId::new(0));
        let requirement = random_requirement(&services, mixed_kind(trial), &mut rng);
        trial += 1;
        if solver.solve(&requirement).is_ok() && keys.insert(requirement.canonical_key()) {
            menu.push(edge_list(&requirement));
        }
    }
    menu
}
