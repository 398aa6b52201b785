//! The `sflow` command-line tool: generate worlds, federate requirements,
//! run the distributed protocol and inspect the NP-completeness reduction
//! without writing any code.
//!
//! ```text
//! sflow demo                          # the paper's Fig. 4/9 walkthrough
//! sflow federate --hosts 30 --services 6 --shape dag --seed 7 --dot
//! sflow world --hosts 40 --seed 3
//! sflow proof --vars 4 --clauses 6 --seed 1
//! ```

#![forbid(unsafe_code)]
#![expect(clippy::print_stdout, clippy::print_stderr)]

use std::collections::HashMap;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sflow::core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, RandomAlgorithm,
    ServicePathAlgorithm, SflowAlgorithm,
};
use sflow::core::fixtures::paper_fig4_fixture;
use sflow::core::metrics::correctness_coefficient;
use sflow::core::reduction::Plan;
use sflow::sim::{run_distributed, SimConfig};
use sflow::workload::generator::{build_trial, RequirementKind};
use sflow::ServiceRequirement;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(&(cmd, switches, options)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        return usage();
    };
    let flags = match parse_flags(cmd, rest, switches, options) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sflow: {e}");
            return usage();
        }
    };
    let result = match cmd {
        "demo" => demo(),
        "world" => world(&flags),
        "federate" => federate(&flags),
        "proof" => proof(&flags),
        "serve" => serve(&flags),
        "request" => request(&flags),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sflow: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sflow <command> [flags]\n\
         \n\
         commands:\n\
         \x20 demo       the paper's Fig. 4 world: federation three ways\n\
         \x20 world      generate a world and describe it\n\
         \x20            [--hosts N] [--services K] [--instances M] [--seed S]\n\
         \x20 federate   generate a world + requirement and run the algorithms\n\
         \x20            [--hosts N] [--services K] [--instances M] [--seed S]\n\
         \x20            [--shape path|disjoint|tree|dag] [--edges \"0>1>3,0>2>3\"]\n\
         \x20            [--dot] [--distributed]\n\
         \x20 proof      Theorem 1 round-trip on a random CNF formula\n\
         \x20            [--vars N] [--clauses M] [--seed S]\n\
         \x20 serve      run the federation server (default world: Fig. 4)\n\
         \x20            [--addr IP:PORT] [--workers N] [--queue D]\n\
         \x20            [--max-conns N] open-connection cap (0 = 65536)\n\
         \x20            [--write-high-water BYTES] per-connection backpressure mark\n\
         \x20            [--no-residual] federate against raw instead of residual capacity\n\
         \x20            [--no-solve-cache] cold-solve every federate, no shared forests\n\
         \x20            [--rebalance-interval-ms MS] background rebalancer sweeps\n\
         \x20            [--utilization-threshold F] links hotter than F (e.g. 0.9) rebalance\n\
         \x20            [--hosts N --services K --instances M --seed S]\n\
         \x20 request    talk to a running server\n\
         \x20            --addr IP:PORT --edges \"0>1>3,0>2>3\"\n\
         \x20            [--algorithm sflow|global|fixed|service-path]\n\
         \x20            [--hop-limit H | --full-view] [--repeat N] [--concurrency D]\n\
         \x20            | --stats | --shutdown | --fail S/H\n\
         \x20            | --release N | --rebalance | --load-map\n\
         \x20            | --set-link \"S/H>S/H\" --bandwidth KBPS --latency US"
    );
    ExitCode::FAILURE
}

/// Every command and the flags it reads, space-separated: `(command,
/// switches, flags that take a value)`. Any other flag is refused by name.
const COMMANDS: [(&str, &str, &str); 6] = [
    ("demo", "", ""),
    ("world", "", "hosts services instances seed"),
    (
        "federate",
        "dot distributed",
        "hosts services instances seed shape edges",
    ),
    ("proof", "", "vars clauses seed"),
    (
        "serve",
        "no-residual no-solve-cache",
        "addr workers queue max-conns write-high-water \
         rebalance-interval-ms utilization-threshold hosts services instances seed",
    ),
    (
        "request",
        "stats shutdown full-view rebalance load-map",
        "addr edges algorithm hop-limit repeat concurrency release fail set-link \
         bandwidth latency",
    ),
];

type Flags = HashMap<String, String>;

fn parse_flags(cmd: &str, args: &[String], switches: &str, options: &str) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a}"));
        };
        let names = |list: &str| list.split_whitespace().any(|name| name == key);
        if names(switches) {
            flags.insert(key.into(), "true".into());
        } else if names(options) {
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key.into(), v.clone());
        } else {
            return Err(format!("{cmd} has no flag --{key}"));
        }
    }
    Ok(flags)
}

/// The value of a flag the command cannot do without.
fn required<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<T, String> {
    let v = flags.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse().map_err(|_| format!("bad value for --{key}: {v}"))
}

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
    }
}

fn demo() -> Result<(), String> {
    let fx = paper_fig4_fixture();
    let ctx = fx.context();
    let s = sflow::ServiceId::new;
    let req = ServiceRequirement::from_edges([
        (s(0), s(1)),
        (s(1), s(2)),
        (s(2), s(3)),
        (s(0), s(4)),
        (s(1), s(3)),
    ])
    .map_err(|e| e.to_string())?;
    println!("the paper's Fig. 4 world: 12 hosts, services 0–4");
    println!("requirement: {req}");
    println!("plan: {}\n", Plan::analyze(&req).describe());
    let flow = SflowAlgorithm::default()
        .federate(&ctx, &req)
        .map_err(|e| e.to_string())?;
    println!("{flow}");
    let sim = run_distributed(&ctx, &req, &SimConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "distributed: {} messages, federated at t = {} µs (simulated)",
        sim.stats.messages, sim.stats.duration_us
    );
    Ok(())
}

fn world(flags: &Flags) -> Result<(), String> {
    let hosts = get(flags, "hosts", 30usize)?;
    let services = get(flags, "services", 6usize)?;
    let instances = get(flags, "instances", 3usize)?;
    let seed = get(flags, "seed", 1u64)?;
    let t = build_trial(hosts, services, instances, RequirementKind::Dag, seed, 0);
    println!(
        "underlying network: {} hosts, {} links, connected = {}",
        t.fixture.net.host_count(),
        t.fixture.net.link_count(),
        t.fixture.net.is_connected()
    );
    println!(
        "overlay: {} instances of {} services, {} service links",
        t.fixture.overlay.instance_count(),
        services,
        t.fixture.overlay.link_count()
    );
    println!(
        "source instance: {}",
        t.fixture.overlay.instance(t.fixture.source)
    );
    println!(
        "sample requirement: {}  shape {:?}",
        t.requirement,
        t.requirement.shape()
    );
    Ok(())
}

fn shape_of(name: &str) -> Result<RequirementKind, String> {
    match name {
        "path" => Ok(RequirementKind::Path),
        "disjoint" => Ok(RequirementKind::DisjointPaths),
        "tree" => Ok(RequirementKind::Tree),
        "dag" => Ok(RequirementKind::Dag),
        other => Err(format!("unknown shape {other} (path|disjoint|tree|dag)")),
    }
}

fn federate(flags: &Flags) -> Result<(), String> {
    let hosts = get(flags, "hosts", 30usize)?;
    let services = get(flags, "services", 6usize)?;
    let instances = get(flags, "instances", 3usize)?;
    let seed = get(flags, "seed", 1u64)?;
    let t = match flags.get("edges") {
        // Explicit requirement: "--edges 0>1>3,0>2>3".
        Some(spec) => {
            let requirement: ServiceRequirement =
                spec.parse().map_err(|e| format!("--edges: {e}"))?;
            // The fixture pins the first listed service as the consumer's
            // entry point; make sure that is the requirement's source.
            let mut svc = requirement.services();
            if let Some(pos) = svc.iter().position(|&x| x == requirement.source()) {
                svc.swap(0, pos);
            }
            let fixture = sflow::core::fixtures::random_fixture_with(
                hosts,
                &svc,
                instances,
                Some(&requirement.edges()),
                seed,
                Some(2),
            );
            sflow::workload::generator::Trial {
                fixture,
                requirement,
            }
        }
        None => {
            let shape = shape_of(flags.get("shape").map(String::as_str).unwrap_or("dag"))?;
            build_trial(hosts, services, instances, shape, seed, 0)
        }
    };
    let ctx = t.fixture.context();
    println!(
        "requirement: {}  shape {:?}",
        t.requirement,
        t.requirement.shape()
    );
    println!("plan: {}\n", Plan::analyze(&t.requirement).describe());

    let opt = GlobalOptimalAlgorithm.federate(&ctx, &t.requirement).ok();
    let algos: [(&str, &dyn FederationAlgorithm); 5] = [
        ("sflow", &SflowAlgorithm::default()),
        ("global-optimal", &GlobalOptimalAlgorithm),
        ("fixed", &FixedAlgorithm),
        ("random", &RandomAlgorithm::with_seed(seed)),
        ("service-path", &ServicePathAlgorithm),
    ];
    for (label, alg) in algos {
        match alg.federate(&ctx, &t.requirement) {
            Ok(flow) => {
                let corr = opt
                    .as_ref()
                    .map(|o| format!(" correctness {:.2}", correctness_coefficient(&flow, o)))
                    .unwrap_or_default();
                println!("{label:<15} {}{corr}", flow.quality());
            }
            Err(e) => println!("{label:<15} failed: {e}"),
        }
    }

    if flags.contains_key("distributed") {
        let out = run_distributed(&ctx, &t.requirement, &SimConfig::default())
            .map_err(|e| e.to_string())?;
        println!(
            "\ndistributed: {} messages, {} bytes, {} computations, t = {} µs",
            out.stats.messages, out.stats.bytes, out.stats.computations, out.stats.duration_us
        );
    }
    if flags.contains_key("dot") {
        let flow = SflowAlgorithm::default()
            .federate(&ctx, &t.requirement)
            .map_err(|e| e.to_string())?;
        println!("\n{}", flow.to_dot());
    }
    Ok(())
}

fn serve(flags: &Flags) -> Result<(), String> {
    use sflow::server::{serve_on, ServerConfig, World};
    let addr = flags
        .get("addr")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    let threshold: f64 = get(flags, "utilization-threshold", 0.9)?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(format!(
            "--utilization-threshold wants a fraction in [0, 1], got {threshold}"
        ));
    }
    let config = ServerConfig {
        workers: get(flags, "workers", ServerConfig::default().workers)?,
        queue_depth: get(flags, "queue", ServerConfig::default().queue_depth)?,
        max_connections: get(flags, "max-conns", ServerConfig::default().max_connections)?,
        write_high_water: get(
            flags,
            "write-high-water",
            ServerConfig::default().write_high_water,
        )?,
        residual: !flags.contains_key("no-residual"),
        solve_cache: !flags.contains_key("no-solve-cache"),
        rebalance_interval: match get(flags, "rebalance-interval-ms", 0u64)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        utilization_threshold_permille: (threshold * 1000.0) as u64,
        ..ServerConfig::default()
    };
    // Default world: the paper's Fig. 4. With --hosts, a seeded random world
    // with universal compatibility, so any requirement over its services can
    // be federated.
    let fixture = match flags.get("hosts") {
        None => paper_fig4_fixture(),
        Some(_) => {
            let hosts = get(flags, "hosts", 30usize)?;
            let services = get(flags, "services", 6u32)?;
            let instances = get(flags, "instances", 3usize)?;
            let seed = get(flags, "seed", 1u64)?;
            let sids: Vec<sflow::ServiceId> = (0..services).map(sflow::ServiceId::new).collect();
            sflow::core::fixtures::random_fixture(hosts, &sids, instances, None, seed)
        }
    };
    let world = World::new(fixture);
    let snapshot = world.snapshot();
    println!(
        "world: {} instances, {} service links, source {}",
        snapshot.overlay().instance_count(),
        snapshot.overlay().link_count(),
        snapshot.source()
    );
    drop(snapshot);
    let handle = serve_on(addr, world, &config).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "sflow-server listening on {} ({} workers, queue depth {})",
        handle.addr(),
        config.workers,
        config.queue_depth
    );
    handle.wait();
    println!("sflow-server stopped");
    Ok(())
}

/// Parses an instance written as `S/H` (also tolerating `s1/h5`).
fn parse_instance(text: &str) -> Result<sflow::ServiceInstance, String> {
    let (s, h) = text
        .split_once('/')
        .ok_or_else(|| format!("bad instance {text:?}: want S/H, e.g. 1/5"))?;
    let sid: u32 = s
        .trim()
        .trim_start_matches('s')
        .parse()
        .map_err(|_| format!("bad service id in {text:?}"))?;
    let hid: u32 = h
        .trim()
        .trim_start_matches('h')
        .parse()
        .map_err(|_| format!("bad host id in {text:?}"))?;
    Ok(sflow::ServiceInstance::new(
        sflow::ServiceId::new(sid),
        sflow::HostId::new(hid),
    ))
}

fn request(flags: &Flags) -> Result<(), String> {
    use sflow::server::Client;
    let addr = flags.get("addr").ok_or("request needs --addr")?;
    let request = request_of(flags)?;
    // `--repeat N` sends the request N times on one connection — for a
    // federate, a quick smoke test of the server's warm path (the repeats
    // should show up as solve-cache hits and forest tenants in `--stats`).
    // `--concurrency D` keeps up to D federates in flight at once on the
    // same socket (pipelined framing).
    let repeat: usize = get(flags, "repeat", 1usize)?;
    if repeat == 0 {
        return Err("--repeat wants at least 1".into());
    }
    let concurrency: usize = get(flags, "concurrency", 1usize)?;
    if concurrency == 0 {
        return Err("--concurrency wants at least 1".into());
    }
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    if concurrency > 1 {
        return pipelined_federate(client, &request, repeat, concurrency);
    }
    for round in 0..repeat {
        let reply = client.request(&request).map_err(|e| e.to_string())?;
        print_reply(reply, round == 0)?;
    }
    Ok(())
}

/// The one request the `request` flags ask for.
fn request_of(flags: &Flags) -> Result<sflow::server::Request, String> {
    use sflow::server::{Algorithm, Mutation, Request};
    if flags.contains_key("stats") {
        return Ok(Request::Stats);
    }
    if flags.contains_key("load-map") {
        return Ok(Request::LoadMap);
    }
    if flags.contains_key("rebalance") {
        return Ok(Request::Rebalance);
    }
    if let Some(session) = flags.get("release") {
        let session = session
            .parse()
            .map_err(|_| format!("bad session id {session:?}"))?;
        return Ok(Request::Release { session });
    }
    if flags.contains_key("shutdown") {
        return Ok(Request::Shutdown);
    }
    if let Some(victim) = flags.get("fail") {
        let instance = parse_instance(victim)?;
        return Ok(Request::Mutate(Mutation::FailInstance { instance }));
    }
    if let Some(link) = flags.get("set-link") {
        let (from, to) = link
            .split_once('>')
            .ok_or_else(|| format!("bad --set-link {link:?}: want S/H>S/H"))?;
        return Ok(Request::Mutate(Mutation::SetLinkQos {
            from: parse_instance(from)?,
            to: parse_instance(to)?,
            bandwidth_kbps: required(flags, "bandwidth")?,
            latency_us: required(flags, "latency")?,
        }));
    }

    let spec = flags.get("edges").ok_or(
        "request needs --edges (or --stats/--load-map/--rebalance/--release/\
             --shutdown/--fail/--set-link)",
    )?;
    let algorithm = match flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("sflow")
    {
        "sflow" => Algorithm::Sflow,
        "global" => Algorithm::Global,
        "fixed" => Algorithm::Fixed,
        "service-path" => Algorithm::ServicePath,
        other => return Err(format!("unknown algorithm {other}")),
    };
    let hop_limit = if flags.contains_key("full-view") {
        None
    } else {
        Some(get(flags, "hop-limit", 2usize)?)
    };
    Ok(Request::Federate {
        requirement: spec.to_owned(),
        algorithm,
        hop_limit,
    })
}

/// Prints one reply, whichever request it answers: every `Response`
/// variant is named, so a new one does not compile until it is printed.
/// A refusal — an error, a shed request, a stale answer — is the `Err`.
/// `detail` adds a federation's instance list.
fn print_reply(reply: sflow::server::Response, detail: bool) -> Result<(), String> {
    use sflow::server::Response;
    match reply {
        Response::Federated(s) => {
            println!(
                "federated: session {} epoch {}  {} kbit/s, {} µs",
                s.session, s.epoch, s.bandwidth_kbps, s.latency_us
            );
            if detail {
                for (service, instance) in &s.instances {
                    println!("  {service} -> {instance}");
                }
            }
        }
        Response::Mutated {
            epoch,
            repaired,
            dropped,
        } => println!("mutated: epoch {epoch}, {repaired} sessions repaired, {dropped} dropped"),
        Response::Stale {
            solved_epoch,
            current_epoch,
        } => {
            return Err(format!(
                "stale: solved at epoch {solved_epoch}, world moved to {current_epoch}; re-issue"
            ))
        }
        Response::Released { session } => println!("released: session {session}"),
        Response::Rebalanced {
            migrations,
            migration_failures,
            max_utilization_permille,
        } => println!(
            "rebalanced: {migrations} migration(s), {migration_failures} failure(s), \
             max link utilization {max_utilization_permille}‰"
        ),
        Response::LoadMap(ledger) => {
            println!(
                "load map: epoch {} version {}  max utilization {}‰  {} booked link(s)",
                ledger.epoch,
                ledger.version,
                ledger.max_utilization_permille,
                ledger.links.len()
            );
            for l in &ledger.links {
                println!(
                    "  {} -> {}  reserved {} / {} kbit/s  residual {}  ({}‰)",
                    l.from,
                    l.to,
                    l.reserved_kbps,
                    l.capacity_kbps,
                    l.residual_kbps,
                    l.utilization_permille
                );
            }
        }
        Response::Stats(stats) => print_stats(stats),
        Response::Overloaded => return Err("server overloaded; request shed".into()),
        Response::ShuttingDown => println!("server shutting down"),
        Response::Error(msg) => return Err(msg),
    }
    Ok(())
}

fn print_stats(stats: sflow::server::StatsSnapshot) {
    // Every field is bound by name and nothing is left to `..`: a counter
    // added to the server's table does not compile here until it is bound,
    // and warns as unused until it is printed.
    let sflow::server::StatsSnapshot {
        served,
        shed,
        failed,
        cache_hits,
        cache_misses,
        cache_revalidation_fails,
        forests,
        forest_tenants,
        hop_cache_hits,
        hop_cache_misses,
        stale,
        epoch,
        sessions,
        latency_p50_us,
        latency_p90_us,
        latency_p99_us,
        rebuilds,
        rebuild_us_total,
        trees_recomputed,
        plane_flushes,
        plane_flush_us_total,
        plane_trees_recomputed,
        wire_errors,
        panics,
        migrations,
        migration_failures,
        max_link_utilization_permille,
        residual_rejects,
        connections_open,
        frames_in_flight,
        reactor_wakeups,
        backpressure_pauses,
        write_buffered_bytes,
        repair_us_total,
        repairs_resolved,
        trees_restored,
        plane_trees_restored,
    } = stats;
    println!(
        "epoch {epoch}  sessions {sessions}  served {served}  shed {shed}  \
         failed {failed}  stale {stale}"
    );
    println!(
        "solve cache: {cache_hits} hits / {cache_misses} misses / \
         {cache_revalidation_fails} revalidation failures"
    );
    println!("forests: {forests} live, {forest_tenants} tenants attached");
    println!("hop-matrix cache: {hop_cache_hits} hits / {hop_cache_misses} misses");
    println!("latency: p50 {latency_p50_us} µs  p90 {latency_p90_us} µs  p99 {latency_p99_us} µs");
    println!(
        "routing rebuilds: {rebuilds} ({rebuild_us_total} µs applying mutations, \
         {trees_recomputed} trees recomputed, {trees_restored} restored)"
    );
    println!(
        "repair sweeps: {repair_us_total} µs total, \
         {repairs_resolved} bookings re-solved instead of re-priced"
    );
    println!(
        "plane flushes: {plane_flushes} ({plane_flush_us_total} µs total, \
         {plane_trees_recomputed} trees recomputed, {plane_trees_restored} restored)"
    );
    println!("correctness: {wire_errors} wire errors, {panics} panicked requests");
    println!(
        "reactor: {connections_open} connections open, {frames_in_flight} frames in flight, \
         {reactor_wakeups} wakeups"
    );
    println!(
        "backpressure: {backpressure_pauses} pauses, \
         {write_buffered_bytes} bytes write-buffered"
    );
    println!(
        "load: {migrations} migrations, {migration_failures} migration failures, \
         {residual_rejects} residual rejects, \
         max link utilization {max_link_utilization_permille}‰"
    );
}

/// Sends `request` (a federate) `max(repeat, concurrency)` times with up to
/// `concurrency` frames in flight on one socket, then reports the depth
/// actually reached and the response mix. Responses may arrive out of
/// order against a reactor server; each is matched by its request id.
fn pipelined_federate(
    client: sflow::server::Client,
    request: &sflow::server::Request,
    repeat: usize,
    concurrency: usize,
) -> Result<(), String> {
    use sflow::server::{Request, Response};
    if !matches!(request, Request::Federate { .. }) {
        return Err("--concurrency pipelines federates only (--edges)".into());
    }
    let mut pipe = client.into_pipelined();
    // At least one full window, so `--concurrency 8` alone demonstrates
    // depth 8 instead of a single lonely frame.
    let total = repeat.max(concurrency);
    let (mut sent, mut done) = (0usize, 0usize);
    let (mut federated, mut errors, mut max_depth) = (0usize, 0usize, 0usize);
    while done < total {
        while sent < total && pipe.in_flight() < concurrency {
            pipe.send(request).map_err(|e| e.to_string())?;
            sent += 1;
            max_depth = max_depth.max(pipe.in_flight());
        }
        let frame = pipe.recv_any().map_err(|e| e.to_string())?;
        done += 1;
        match frame.response {
            Response::Federated(s) => {
                federated += 1;
                if done == 1 {
                    println!(
                        "federated: session {} epoch {}  {} kbit/s, {} µs  (request {})",
                        s.session, s.epoch, s.bandwidth_kbps, s.latency_us, frame.request_id
                    );
                }
            }
            Response::Overloaded | Response::Error(_) | Response::Stale { .. } => errors += 1,
            other => return Err(format!("a federate answered {other:?}")),
        }
    }
    println!(
        "pipelined: depth {max_depth} reached ({concurrency} requested), \
         {federated} federated, {errors} rejected, {total} total"
    );
    Ok(())
}

fn proof(flags: &Flags) -> Result<(), String> {
    use sflow::sat::cnf::{Cnf, Lit, Var};
    use sflow::sat::{dpll, msfg, reduction};
    let vars = get(flags, "vars", 4u32)?;
    let clauses = get(flags, "clauses", 5usize)?;
    let seed = get(flags, "seed", 1u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = Cnf::new(vars);
    for _ in 0..clauses {
        let len = rng.gen_range(1..=3usize);
        let lits: Vec<Lit> = (0..len)
            .map(|_| {
                let v = Var::new(rng.gen_range(0..vars));
                if rng.gen_bool(0.5) {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        f.add_clause(lits);
    }
    println!("φ = {f}");
    let sat = dpll::solve(&f);
    println!(
        "DPLL: {}",
        if sat.is_some() {
            "satisfiable"
        } else {
            "unsatisfiable"
        }
    );
    let inst = reduction::sat_to_msfg(&f);
    println!(
        "reduced MSFG instance: {} nodes in {} groups, {} edges, K = {}",
        inst.graph.node_count(),
        inst.groups.len(),
        inst.graph.edge_count(),
        inst.k
    );
    match msfg::max_bottleneck(&inst) {
        Some(sol) => {
            println!(
                "best service flow graph bottleneck: {} → {}",
                sol.bottleneck,
                if sol.bottleneck >= inst.k {
                    "feasible"
                } else {
                    "infeasible"
                }
            );
            assert_eq!(
                sol.bottleneck >= inst.k,
                sat.is_some(),
                "Theorem 1 violated!"
            );
            println!("Theorem 1 equivalence holds on this instance ✓");
        }
        None => println!("no connected selection (degenerate instance)"),
    }
    Ok(())
}
