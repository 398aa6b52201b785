//! `bench_e2e` — the repository's end-to-end federate benchmark.
//!
//! Drives the real path — `PipelinedClient` → loopback TCP → reactor →
//! admission queue → solve cache or cold solve → `open_session` / `release`
//! / `mutate` → reply — against an in-process `serve`, pinned to one CPU,
//! in rounds of byte-identical work, and reports each timing as a p50 over
//! requests at the best round. See `README.md` beside this package for the
//! method and its evidence.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
//! bench_e2e --compare A.jsonl B.jsonl
//! ```
//!
//! The last line of standard output is the result object; every run also
//! appends its full report (machine block, diagnostics, every metric) as one
//! JSON line to `--out` (default `out/runs.jsonl` in this package).

mod compare;
mod layers;
mod plan;
mod round;
mod trace;
mod world;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bench_e2e::{
    best_high, best_low, best_slice_p50, best_slice_rate, float, mean, median, metric, object,
    percentile, text, uint, MemWalk,
};
use layers::Rows;
use plan::Plan;
use round::{Entry, Fallible, Harness, Round};
use serde_json::Value;
use sflow_core::fixtures::Fixture;
use trace::{Shadow, Spans, TracedClient};

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Latency samples per slice and completions per throughput slice: about
/// 20 ms of hot traffic, short enough to fall between interference bursts.
const LATENCY_SLICE: usize = 256;
const WINDOW_SLICE: usize = 512;

/// Rounds recorded with spans in a traced run, and the fewest untraced
/// rounds any run measures.
const TRACED_ROUNDS: usize = 5;
const MIN_ROUNDS: usize = 3;

/// Shadow replays of the op list in a traced run.
const SHADOW_REPLAYS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

impl Args {
    fn scale(&self) -> plan::Scale {
        plan::Scale { smoke: self.smoke }
    }
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 24.0,
        trace: false,
        smoke: false,
        out: package_dir().join("out/runs.jsonl"),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !plan::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            plan::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

/// One cold set-up: world build, `serve`, connect, first `Stats` reply.
fn setup_once() -> Fallible<(Fixture, f64, world::BuildTimes)> {
    let t = Instant::now();
    let (fixture, times) = world::build_world();
    let handle = round::serve_fresh(&fixture)?;
    let mut client = sflow_server::Client::connect(handle.addr())?;
    client.stats()?;
    let seconds = t.elapsed().as_secs_f64();
    drop(client);
    handle.shutdown();
    Ok((fixture, seconds, times))
}

/// Every round of one run, and the box's state beside each.
#[derive(Default)]
struct Rounds {
    all: Vec<Round>,
    spin_ms: Vec<f64>,
    memwalk_ms: Vec<f64>,
}

impl Rounds {
    fn run(&mut self, harness: &Harness, plan: &Plan, canary: &MemWalk) -> Fallible<()> {
        self.all.push(harness.round(plan)?);
        self.spin_ms.push(bench_e2e::spin_ms());
        self.memwalk_ms.push(canary.walk_ms());
        Ok(())
    }

    fn each(&self, of: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.all.iter().map(of).collect()
    }
}

fn federate_p50(round: &Round) -> f64 {
    best_slice_p50(&round.federate_ms, LATENCY_SLICE)
}

fn release_p50(round: &Round) -> f64 {
    best_slice_p50(&round.release_ms, LATENCY_SLICE)
}

fn throughput(round: &Round) -> f64 {
    best_slice_rate(&round.window_done_s, WINDOW_SLICE)
}

fn median_of(values: &[f64]) -> f64 {
    median(&mut values.to_vec())
}

/// The end-to-end metrics: each timing at its best round.
fn end_to_end(rounds: &Rounds, setup_s: f64) -> Rows {
    let first = &rounds.all[0];
    let bandwidth = first.bandwidth_kbps_sum as f64 / first.federated.max(1) as f64;
    vec![
        ("setup_s", setup_s, "s"),
        ("throughput_rps", best_high(&rounds.each(throughput)), "1/s"),
        (
            "federate_p50_ms",
            best_low(&rounds.each(federate_p50)),
            "ms",
        ),
        ("release_p50_ms", best_low(&rounds.each(release_p50)), "ms"),
        (
            "mutate_p50_ms",
            best_low(&rounds.each(Round::mutate_ms)),
            "ms",
        ),
        ("flow_bandwidth_kbps_mean", bandwidth, "kbit/s"),
        ("peak_rss_mb", bench_e2e::peak_rss_mb(), "MB"),
    ]
}

/// The median round, kept beside the best one as a diagnostic.
fn median_round(rounds: &Rounds) -> Rows {
    vec![
        (
            "round.throughput_rps_median",
            median_of(&rounds.each(throughput)),
            "1/s",
        ),
        (
            "round.federate_p50_ms_median",
            median_of(&rounds.each(federate_p50)),
            "ms",
        ),
        (
            "round.release_p50_ms_median",
            median_of(&rounds.each(release_p50)),
            "ms",
        ),
        (
            "round.mutate_ms_median",
            median_of(&rounds.each(Round::mutate_ms)),
            "ms",
        ),
        (
            "round.degrade_ms_best",
            best_low(&rounds.each(|r| r.degrade_ms)),
            "ms",
        ),
        (
            "round.restore_ms_best",
            best_low(&rounds.each(|r| r.restore_ms)),
            "ms",
        ),
    ]
}

/// The per-layer metrics the rounds themselves yield: counts and shares at
/// the client, reactor, server and snapshot, and the noise canaries.
fn round_layers(rounds: &Rounds) -> Rows {
    let thr = rounds.each(throughput);
    let first = &rounds.all[0];
    let lookups = first.cache_hits + first.cache_misses + first.revalidation_fails;
    let pooled = |of: fn(&Round) -> &Vec<f64>| {
        let mut all: Vec<f64> = rounds
            .all
            .iter()
            .flat_map(|r| of(r).iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, 99)
    };
    let best = rounds
        .all
        .iter()
        .max_by(|a, b| throughput(a).total_cmp(&throughput(b)))
        .expect("at least one round");
    let ops = best.window_done_s.len().max(1) as f64;
    vec![
        (
            "noise.round_spread_pct",
            (best_high(&thr) - median_of(&thr)) / best_high(&thr) * 100.0,
            "%",
        ),
        ("machine.spin_ms_best", best_low(&rounds.spin_ms), "ms"),
        ("machine.spin_ms_median", median_of(&rounds.spin_ms), "ms"),
        (
            "machine.memwalk_ms_best",
            best_low(&rounds.memwalk_ms),
            "ms",
        ),
        (
            "machine.memwalk_ms_median",
            median_of(&rounds.memwalk_ms),
            "ms",
        ),
        ("client.federate_p99_ms", pooled(|r| &r.federate_ms), "ms"),
        ("client.release_p99_ms", pooled(|r| &r.release_ms), "ms"),
        ("client.cpu_us_per_op", best.window_cpu_s * 1e6 / ops, "us"),
        (
            "reactor.wakeups_per_op",
            best.window_wakeups as f64 / ops,
            "ratio",
        ),
        (
            "server.execute_us_p50",
            best_low(&rounds.each(|r| r.execute_us_p50 as f64)),
            "us",
        ),
        (
            "snapshot.cache_hit_share",
            first.cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        (
            "failed_share",
            first.failed as f64 / first.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn value_of(rows: &Rows, name: &str) -> f64 {
    rows.iter()
        .find(|(n, _, _)| *n == name)
        .map_or(0.0, |(_, v, _)| *v)
}

/// The traced part of a `--trace 1` run: [`TRACED_ROUNDS`] rounds over the
/// span-recording client, then the shadow replays of the same op list.
fn traced(
    args: &Args,
    harness: &Harness,
    plan: &Plan,
    untraced: &Rounds,
    e2e: &Rows,
) -> Fallible<Rows> {
    let scale = args.scale();
    let shadow_replays = scale.of(SHADOW_REPLAYS, 1);
    let mut spans = Spans::new();
    let mut traced_rps = Vec::new();
    let mut ledger = Vec::new();
    let mut base = 0;
    for _ in 0..scale.of(TRACED_ROUNDS, 1) {
        let (round, client) =
            harness.round_over(plan, |addr| TracedClient::connect(addr, spans, base))?;
        base += client.sent();
        spans = client.spans;
        traced_rps.push(throughput(&round));
        ledger = round.ledger;
    }
    // The shadow replays the identical list several times; per op, the
    // fastest replay is the least disturbed one. The last replay's spans
    // join the trace.
    let measured: Vec<plan::Op> = plan
        .latency
        .iter()
        .chain(&plan.throughput)
        .copied()
        .collect();
    let mut stage_us = vec![f64::MAX; measured.len()];
    let mut ledger_matches = true;
    for replay in 0..shadow_replays {
        let mut scratch = Spans::new();
        let last = replay + 1 == shadow_replays;
        let into = if last { &mut spans } else { &mut scratch };
        let from = into.table.len();
        let mut shadow = Shadow::new(harness);
        shadow.replay(plan, into);
        ledger_matches &= shadow.ledger() == ledger;
        let own = into.self_micros();
        let roots = (from..into.table.len()).filter(|&i| into.table[i].name == "shadow.op");
        for (slot, root) in stage_us.iter_mut().zip(roots) {
            *slot = slot.min(into.table[root].micros() - own[root]);
        }
    }
    spans.write(
        &package_dir().join(format!("out/{}.trace.json", args.workload)),
        &args.workload,
        args.seed,
    )?;
    // Compared with the latency phase's p50s, so over its ops only.
    let by_kind = |want: fn(&plan::Op) -> bool| -> Vec<f64> {
        let latency = measured.iter().zip(&stage_us).take(plan.latency.len());
        latency
            .filter(|(op, _)| want(op))
            .map(|(_, us)| *us)
            .collect()
    };
    let shadow_federate = median_of(&by_kind(|op| matches!(op, plan::Op::Federate { .. })));
    let shadow_release = median_of(&by_kind(|op| matches!(op, plan::Op::Release { .. })));
    let patch_us: f64 = ["load.patch", "load.rebase", "world.apply"]
        .iter()
        .flat_map(|name| spans.durations(name))
        .sum();
    let untraced_rps = best_high(&untraced.each(throughput));
    let federate_us = value_of(e2e, "federate_p50_ms") * 1e3;
    Ok(vec![
        ("trace.spans", spans.table.len() as f64, "count"),
        (
            "trace.overhead_pct",
            (untraced_rps - best_high(&traced_rps)) / untraced_rps * 100.0,
            "%",
        ),
        (
            "trace.wire_wait_us_p50",
            median_of(&spans.durations("wire.wait")),
            "us",
        ),
        (
            "trace.client_encode_us_p50",
            median_of(&spans.durations("client.encode")),
            "us",
        ),
        (
            "trace.client_decode_us_p50",
            median_of(&spans.durations("client.decode")),
            "us",
        ),
        ("shadow.federate_us_p50", shadow_federate, "us"),
        ("shadow.release_us_p50", shadow_release, "us"),
        ("shadow.patch_ms_total", patch_us / 1e3, "ms"),
        (
            "shadow.ledger_matches",
            f64::from(u8::from(ledger_matches)),
            "count",
        ),
        (
            "server.unattributed_us",
            federate_us - shadow_federate,
            "us",
        ),
    ])
}

fn metrics_object(rows: &Rows) -> Value {
    object(
        rows.iter()
            .map(|(name, value, unit)| (*name, metric(*value, unit))),
    )
}

fn run(args: &Args) -> Fallible<Value> {
    let allowed = bench_e2e::pin_to_first_cpu();
    if allowed.len() != 1 {
        return Err(format!("could not pin to one CPU (allowed: {allowed:?})").into());
    }
    let machine = bench_e2e::machine_facts();

    let (mut setups, mut overlay_ms, mut all_pairs_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut world = None;
    let scale = args.scale();
    for _ in 0..scale.of(SETUPS, 1) {
        let (fixture, seconds, times) = setup_once()?;
        setups.push(seconds);
        overlay_ms.push(times.overlay_s * 1e3);
        all_pairs_ms.push(times.all_pairs_s * 1e3);
        world = Some(fixture);
    }
    let fixture = world.expect("SETUPS > 0");
    let catalogue = world::catalogue(&fixture);
    let harness = Harness {
        fixture,
        catalogue: catalogue.into_iter().map(Entry::new).collect(),
    };
    let plan = plan::plan(&args.workload, args.seed, scale);

    // Correctness first: no metric prints unless the verification round
    // reconciles.
    let verified = harness.verify(&plan)?;
    eprintln!(
        "verified {}: {} ops, {} failed; cache {} hits / {} misses / {} revalidation failures",
        args.workload,
        verified.attempted,
        verified.failed,
        verified.cache_hits,
        verified.cache_misses,
        verified.revalidation_fails,
    );

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let layer_rows = if args.trace {
        layers::measure(&harness, scale)?
    } else {
        Rows::new()
    };
    let canary = MemWalk::new();
    let mut rounds = Rounds::default();
    for _ in 0..MIN_ROUNDS {
        rounds.run(&harness, &plan, &canary)?;
    }
    // A traced run keeps room for its traced rounds and the shadow replays,
    // each about as long as a round.
    let reserved = if args.trace {
        TRACED_ROUNDS + SHADOW_REPLAYS
    } else {
        0
    };
    let reserve = Duration::from_secs_f64(mean(&rounds.each(|r| r.round_s)) * reserved as f64);
    while !args.smoke && Instant::now() + reserve < deadline {
        rounds.run(&harness, &plan, &canary)?;
    }

    let e2e = end_to_end(&rounds, median(&mut setups));
    let mut per_layer = round_layers(&rounds);
    if args.trace {
        per_layer.push(("net.overlay_build_ms", best_low(&overlay_ms), "ms"));
        per_layer.push(("routing.all_pairs_build_ms", best_low(&all_pairs_ms), "ms"));
        per_layer.extend(traced(args, &harness, &plan, &rounds, &e2e)?);
        let queue_hop = value_of(&e2e, "federate_p50_ms") * 1e3
            - value_of(&layer_rows, "reactor.stats_rtt_us_p50")
            - value_of(&per_layer, "server.execute_us_p50");
        per_layer.push(("server.queue_hop_us", queue_hop, "us"));
        per_layer.extend(layer_rows);
    }

    let attempted: usize = rounds.all.iter().map(|r| r.attempted).sum();
    let failed: usize = rounds.all.iter().map(|r| r.failed).sum();
    let first = &rounds.all[0];
    let report = object([
        ("machine", machine),
        ("workload", text(&*args.workload)),
        ("seed", uint(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("seconds", float(args.seconds)),
        (
            "server_config",
            text(format!("{:?}", round::server_config())),
        ),
        ("rounds", uint(rounds.all.len() as u64)),
        ("round_s_mean", float(mean(&rounds.each(|r| r.round_s)))),
        (
            "samples_per_round",
            object([
                ("federate", uint(first.federate_ms.len() as u64)),
                ("release", uint(first.release_ms.len() as u64)),
                ("window_ops", uint(first.window_done_s.len() as u64)),
                ("mutate", uint(1)),
                ("setup", uint(setups.len() as u64)),
            ]),
        ),
        ("attempted", uint(attempted as u64)),
        ("failed", uint(failed as u64)),
        ("end_to_end", metrics_object(&e2e)),
        ("median_round", metrics_object(&median_round(&rounds))),
        ("per_layer", metrics_object(&per_layer)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&args.out)?;
    writeln!(out, "{}", serde_json::to_string(&report)?)?;
    for (name, value, unit) in e2e.iter().chain(&per_layer) {
        eprintln!("{name:34} {value:>14.4} {unit}");
    }

    let reported = if args.trace { &per_layer } else { &e2e };
    Ok(object([
        ("correct", Value::Bool(true)),
        ("attempted", uint(attempted as u64)),
        ("failed", uint(failed as u64)),
        ("metrics", metrics_object(reported)),
    ]))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [flag, a, b] if flag == "--compare" => compare::compare(
            Path::new(a),
            Path::new(b),
            &package_dir().join("../BENCHMARK.json"),
        )
        .map(|within| if within { 0 } else { 1 }),
        _ => match parse_args(argv.into_iter()) {
            Ok(args) => run(&args).map(|result| {
                println!(
                    "{}",
                    serde_json::to_string(&result).expect("result serialises")
                );
                0
            }),
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                std::process::exit(2);
            }
        },
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(1);
        }
    }
}
