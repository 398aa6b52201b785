//! `bench_federation` — evidence emitter for the multi-tenant solve cache.
//!
//! Replays **Zipf(1.0) repeat traces** — each request draws its requirement
//! from a menu with the popularity skew real tenant populations show — over
//! two live servers:
//!
//! * a **chain ladder**: a `layers`-service chain over `routes` disjoint
//!   rungs of descending capacity, menu = the prefix chains (`0>1`,
//!   `0>1>2`, …) — few keys, extreme repetition;
//! * a **Waxman world** (`sflow_core::fixtures::random_fixture`): hundreds
//!   of hosts, universal compatibility, menu = feasible random service
//!   chains — many keys, realistic skew, and solves expensive enough that
//!   cache hits visibly beat cold solves *over the wire*.
//!
//! Each trace measures the cold (first-touch: solver, booking, load-plane
//! patch) and warm (cache hit: the tenant attaches to a live service
//! forest and books nothing) p50/p99 round-trip latency, the effective
//! solves-per-second-per-core, and cross-checks the client-side cold/warm
//! classification against the server's own `cache_hits`/`cache_misses`
//! counters and forest census — exact, not approximate, because every
//! session is held open for the whole trace.
//!
//! A second pass per scenario holds `tenants` identical sessions open
//! concurrently and compares the wire-visible reserved bandwidth of a
//! forest-sharing server against one federating every client privately:
//! shared links reserve the max, not the sum.
//!
//! Writes `BENCH_federation.json` at the repository root. Pass
//! `--max-nodes N` to skip scenarios with more hosts than `N` (CI uses
//! `--max-nodes 500`).

#![forbid(unsafe_code)]
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::time::Instant;

use sflow_bench::{percentile, usize_flag, write_report};
use sflow_core::fixtures::{random_fixture, Fixture};
use sflow_core::{ServiceRequirement, Solver};
use sflow_net::{
    Compatibility, OverlayGraph, Placement, ServiceId, ServiceInstance, UnderlyingNetwork,
};
use sflow_routing::{Bandwidth, Latency, Qos};
use sflow_server::{serve, Algorithm, Client, Response, ServerConfig, World};

/// Capacity of the widest rung, kbit/s; each next rung is `STEP` narrower.
const TOP_KBPS: u64 = 100;
const STEP_KBPS: u64 = 10;

/// Knuth's MMIX linear congruential generator — the workspace convention
/// for deterministic test randomness without an RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// A Zipf(s = 1.0) sampler over `n` ranks via inverse CDF.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank + 1) as f64;
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut Lcg) -> usize {
        let u = rng.next_f64() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// A chain ladder: services `0..layers` in a line, carried by `routes`
/// disjoint rungs of strictly descending capacity. The menu is the set of
/// prefix chains — every prefix is a distinct canonical requirement key
/// over the same world.
fn chain_ladder(layers: usize, routes: usize) -> (Fixture, Vec<String>) {
    assert!(layers >= 3 && routes >= 1);
    assert!((routes as u64) * STEP_KBPS < TOP_KBPS + STEP_KBPS);
    let middles = layers - 2;
    let mut b = UnderlyingNetwork::builder();
    let h = b.add_hosts(1 + routes * middles + 1);
    let sink = h[1 + routes * middles];
    for i in 0..routes {
        let q = Qos::new(
            Bandwidth::kbps(TOP_KBPS - i as u64 * STEP_KBPS),
            Latency::from_micros(10),
        );
        let rung: Vec<_> = (0..middles).map(|j| h[1 + i * middles + j]).collect();
        b.link(h[0], rung[0], q);
        for w in rung.windows(2) {
            b.link(w[0], w[1], q);
        }
        b.link(rung[middles - 1], sink, q);
    }
    let net = b.build();
    let s: Vec<ServiceId> = (0..layers).map(|i| ServiceId::new(i as u32)).collect();
    let mut p = Placement::new();
    p.add(ServiceInstance::new(s[0], h[0]));
    for i in 0..routes {
        for (j, service) in s.iter().enumerate().take(layers - 1).skip(1) {
            p.add(ServiceInstance::new(*service, h[1 + i * middles + j - 1]));
        }
    }
    p.add(ServiceInstance::new(s[layers - 1], sink));
    let compat = Compatibility::from_pairs(s.windows(2).map(|w| (w[0], w[1])));
    let overlay = OverlayGraph::build(&net, &p, &compat).unwrap();
    let fixture = Fixture::new(net, overlay, s[0]);

    let menu: Vec<String> = (2..=layers)
        .map(|len| {
            (0..len)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(">")
        })
        .collect();
    (fixture, menu)
}

/// A Waxman world plus a menu of `want` feasible random service chains of
/// `chain_len` services each, screened with an in-process solve so every
/// menu entry federates. The menu is LCG-shuffled so Zipf popularity is
/// uncorrelated with service-id order.
fn waxman_menu(
    hosts: usize,
    services: usize,
    per_service: usize,
    chain_len: usize,
    want: usize,
    seed: u64,
) -> (Fixture, Vec<String>) {
    let ids: Vec<ServiceId> = (0..services).map(|i| ServiceId::new(i as u32)).collect();
    let fixture = random_fixture(hosts, &ids, per_service, None, seed);
    let context = fixture.context();
    let solver = Solver::new(&context);

    let mut rng = Lcg(seed ^ 0x5eed_f0e5);
    let mut menu: Vec<String> = Vec::new();
    let mut tried = 0usize;
    while menu.len() < want && tried < want * 64 {
        tried += 1;
        // A chain 0 > a > b > … of distinct non-source services.
        let mut tail: Vec<u32> = Vec::new();
        while tail.len() < chain_len - 1 {
            let candidate = 1 + rng.below(services - 1) as u32;
            if !tail.contains(&candidate) {
                tail.push(candidate);
            }
        }
        let spec = std::iter::once(0u32)
            .chain(tail)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(">");
        if menu.contains(&spec) {
            continue;
        }
        let requirement: ServiceRequirement = spec.parse().unwrap();
        if solver.solve(&requirement).is_ok() {
            menu.push(spec);
        }
    }
    assert!(
        menu.len() >= want / 2,
        "Waxman world too hostile: only {} of {want} chains feasible",
        menu.len()
    );
    (fixture, menu)
}

/// One trace's row of the report.
struct TraceReport {
    requests: usize,
    distinct: usize,
    cold_p50_us: u128,
    cold_p99_us: u128,
    warm_p50_us: u128,
    warm_p99_us: u128,
    hit_ratio: f64,
    solves_per_sec_per_core: f64,
}

/// Replays `requests` Zipf-drawn federates against a live server, holding
/// every session open — the multi-tenant shape the cache exists for. A
/// first touch of a menu entry runs cold: full solve, booking, load-plane
/// patch. Every repeat attaches to the entry's live service forest, which
/// books *nothing* — so warm latency is what a tenant actually pays. The
/// client-side cold/warm split is cross-checked against the server's own
/// counters, and the end state against the forest census. Admission is
/// load-blind here so the trace is deterministic (the pre-screened menu
/// never rejects); admission control has its own emitter in `bench_load`.
fn replay_zipf(fixture: Fixture, menu: &[String], requests: usize, seed: u64) -> TraceReport {
    let config = ServerConfig {
        residual: false,
        route_workers: 1,
        ..ServerConfig::default()
    };
    let handle = serve(World::new(fixture), &config).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let zipf = Zipf::new(menu.len());
    let mut rng = Lcg(seed);
    let mut seen = vec![false; menu.len()];
    let mut cold_us: Vec<u128> = Vec::new();
    let mut warm_us: Vec<u128> = Vec::new();
    for _ in 0..requests {
        let pick = zipf.sample(&mut rng);
        let started = Instant::now();
        let response = client
            .federate(&menu[pick], Algorithm::Sflow, None)
            .unwrap();
        let elapsed = started.elapsed().as_micros();
        match response {
            Response::Federated(_) => {}
            other => panic!(
                "menu entry {:?} was pre-screened, got {other:?}",
                menu[pick]
            ),
        }
        if seen[pick] {
            warm_us.push(elapsed);
        } else {
            seen[pick] = true;
            cold_us.push(elapsed);
        }
    }

    let distinct = seen.iter().filter(|&&s| s).count();
    let stats = client.stats().unwrap();
    // The split above is exact, and the server agrees over the wire.
    assert_eq!(
        stats.cache_misses as usize, distinct,
        "cold = first touches"
    );
    assert_eq!(
        stats.cache_hits as usize,
        requests - distinct,
        "every repeat must be served from the solve cache"
    );
    assert_eq!(
        stats.cache_revalidation_fails, 0,
        "load-blind admission never revalidates"
    );
    assert_eq!(stats.sessions as usize, requests, "every tenant stays open");
    assert_eq!(
        stats.forests as usize, distinct,
        "one live forest per distinct requirement"
    );
    assert_eq!(
        stats.forest_tenants as usize, requests,
        "every session is attached to its requirement's forest"
    );
    handle.shutdown();

    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let total_us: u128 = cold_us.iter().sum::<u128>() + warm_us.iter().sum::<u128>();
    TraceReport {
        requests,
        distinct,
        cold_p50_us: percentile(&cold_us, 50),
        cold_p99_us: percentile(&cold_us, 99),
        warm_p50_us: percentile(&warm_us, 50),
        warm_p99_us: percentile(&warm_us, 99),
        hit_ratio: (requests - distinct) as f64 / requests as f64,
        solves_per_sec_per_core: requests as f64
            / (total_us as f64 / 1e6)
            / config.route_workers as f64,
    }
}

/// One forest pass: `tenants` identical federates held open at once.
struct ForestReport {
    tenants: usize,
    shared_reserved_kbps: u64,
    per_client_reserved_kbps: u64,
    savings_permille: u64,
}

/// Books `tenants` sessions for the same requirement on two servers — one
/// sharing a service forest, one federating every client privately — and
/// compares the wire-visible reserved bandwidth. Load-blind admission on
/// both sides so the private server stacks everyone on the same best route,
/// which is exactly the duplication forests collapse.
fn forest_pass(fixture: Fixture, spec: &str, tenants: usize) -> ForestReport {
    let mut reserved = [0u64; 2];
    for (slot, solve_cache) in [(0usize, true), (1usize, false)] {
        let config = ServerConfig {
            residual: false,
            route_workers: 1,
            solve_cache,
            ..ServerConfig::default()
        };
        let handle = serve(World::new(fixture.clone()), &config).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for _ in 0..tenants {
            match client.federate(spec, Algorithm::Sflow, None).unwrap() {
                Response::Federated(_) => {}
                other => panic!("load-blind admission must accept, got {other:?}"),
            }
        }
        let ledger = client.load_map().unwrap();
        reserved[slot] = ledger.links.iter().map(|l| l.reserved_kbps).sum();
        let stats = client.stats().unwrap();
        if solve_cache {
            assert_eq!(stats.forests, 1, "same key, same epoch: one forest");
            assert_eq!(stats.forest_tenants as usize, tenants);
        } else {
            assert_eq!(stats.forests, 0, "no forests without the solve cache");
        }
        handle.shutdown();
    }
    let [shared, per_client] = reserved;
    assert!(
        shared < per_client,
        "a shared forest must reserve strictly less than per-client graphs \
         ({shared} vs {per_client} kbit/s)"
    );
    ForestReport {
        tenants,
        shared_reserved_kbps: shared,
        per_client_reserved_kbps: per_client,
        savings_permille: 1000 - 1000 * shared / per_client,
    }
}

struct Scenario {
    name: &'static str,
    hosts: usize,
    menu: usize,
    trace: TraceReport,
    forest: ForestReport,
}

fn trace_json(t: &TraceReport) -> String {
    format!(
        "{{\"requests\": {}, \"distinct_requirements\": {}, \"cold_p50_us\": {}, \
         \"cold_p99_us\": {}, \"warm_p50_us\": {}, \"warm_p99_us\": {}, \
         \"hit_ratio\": {:.3}, \"solves_per_sec_per_core\": {:.0}}}",
        t.requests,
        t.distinct,
        t.cold_p50_us,
        t.cold_p99_us,
        t.warm_p50_us,
        t.warm_p99_us,
        t.hit_ratio,
        t.solves_per_sec_per_core,
    )
}

fn forest_json(f: &ForestReport) -> String {
    format!(
        "{{\"tenants\": {}, \"shared_reserved_kbps\": {}, \
         \"per_client_reserved_kbps\": {}, \"savings_permille\": {}}}",
        f.tenants, f.shared_reserved_kbps, f.per_client_reserved_kbps, f.savings_permille,
    )
}

fn scenario_json(s: &Scenario) -> String {
    format!(
        "    {{\n      \"name\": \"{}\",\n      \"hosts\": {},\n      \"menu\": {},\n      \
         \"zipf_s\": 1.0,\n      \"trace\": {},\n      \"forest\": {}\n    }}",
        s.name,
        s.hosts,
        s.menu,
        trace_json(&s.trace),
        forest_json(&s.forest),
    )
}

fn run(
    name: &'static str,
    fixture: Fixture,
    menu: Vec<String>,
    requests: usize,
    gate_latency: bool,
) -> Scenario {
    let hosts = fixture.net.host_count();
    let trace = replay_zipf(fixture.clone(), &menu, requests, 0x2af1_c0de ^ hosts as u64);
    let forest = forest_pass(fixture, &menu[0], 8);

    // The acceptance gates. Zipf(1.0) repetition must make the cache earn
    // its keep: most requests are hits, and on worlds large enough that the
    // solver (not the socket) dominates, a warm hit is at least 5× faster
    // than a cold solve end to end.
    assert!(
        trace.hit_ratio >= 0.5,
        "{name}: Zipf(1.0) trace must hit at least half the time, got {:.3}",
        trace.hit_ratio
    );
    if gate_latency {
        assert!(
            trace.warm_p50_us * 5 <= trace.cold_p50_us,
            "{name}: warm p50 must be at least 5x faster than cold \
             ({} vs {} us)",
            trace.warm_p50_us,
            trace.cold_p50_us,
        );
    }

    Scenario {
        name,
        hosts,
        menu: menu.len(),
        trace,
        forest,
    }
}

fn main() {
    let max_nodes = usize_flag("--max-nodes", usize::MAX);
    let mut scenarios = Vec::new();
    if max_nodes >= 34 {
        let (fixture, menu) = chain_ladder(6, 8);
        scenarios.push(run("ladder-8x6", fixture, menu, 200, false));
    }
    if max_nodes >= 400 {
        let (fixture, menu) = waxman_menu(400, 10, 8, 4, 32, 42);
        scenarios.push(run("waxman-400", fixture, menu, 256, true));
    }

    for s in &scenarios {
        println!(
            "{}: {} requests over {} requirements — cold p50 {} us, warm p50 {} us \
             ({:.0}% hits, {:.0} solves/s/core); forests: {} tenants reserve {} \
             vs {} kbit/s per-client ({}‰ saved)",
            s.name,
            s.trace.requests,
            s.menu,
            s.trace.cold_p50_us,
            s.trace.warm_p50_us,
            100.0 * s.trace.hit_ratio,
            s.trace.solves_per_sec_per_core,
            s.forest.tenants,
            s.forest.shared_reserved_kbps,
            s.forest.per_client_reserved_kbps,
            s.forest.savings_permille,
        );
    }

    let rows: Vec<String> = scenarios.iter().map(scenario_json).collect();
    let json = format!(
        "{{\n  \"generated_by\": \"bench_federation\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
    );
    println!("wrote {}", write_report("BENCH_federation.json", &json));
}
