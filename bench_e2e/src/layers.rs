//! Per-layer micro-measurements, timed around public calls.
//!
//! Each metric is the p50 over a fixed call list (the catalogue, or a few of
//! its flows' links), at the best of several passes over that list — the
//! same "identical work, best pass" rule the rounds use. Microsecond-scale
//! lists get [`PASSES`] passes, millisecond-scale ones [`SLOW_PASSES`]: a
//! restore patch is 50 ms, and the whole run is capped.
//!
//! The lists depend on the world and the catalogue only, so these metrics
//! read the same on every workload and every seed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sflow_core::repair::repair;
use sflow_core::{FlowGraph, ServiceRequirement, Solver};
use sflow_net::OverlayGraph;
use sflow_routing::{Bandwidth, EdgeChange, Qos};
use sflow_server::load::links_of;
use sflow_server::wire::{encode_frame, FrameDecoder};
use sflow_server::{
    Algorithm, FlowSummary, LoadMap, LoadPlane, PipelinedClient, Request, RequestFrame, Response,
    ResponseFrame, SolveKey, World,
};

use crate::plan::Scale;
use crate::round::{Fallible, Harness, Link};
use bench_e2e::{best_low, mean, median};

/// Passes over the microsecond-scale and the millisecond-scale lists.
const PASSES: usize = 30;
const SLOW_PASSES: usize = 8;
/// Flows whose links the millisecond-scale lists patch.
const SLOW_LIST: usize = 3;

/// `(name, value, unit)` rows.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// Seconds per call of `call` over `inputs`: p50 within a pass, best pass.
fn best_p50<T>(passes: usize, inputs: &[T], mut call: impl FnMut(&T)) -> f64 {
    let pass = |call: &mut dyn FnMut(&T)| {
        let mut samples: Vec<f64> = inputs
            .iter()
            .map(|input| {
                let t = Instant::now();
                call(input);
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&mut samples)
    };
    let p50s: Vec<f64> = (0..passes).map(|_| pass(&mut call)).collect();
    best_low(&p50s)
}

/// `from` with each of `links` set to what its reservation leaves free of
/// the `raw` capacity (or, with `restore`, back to `raw`), and the edge
/// changes that took it there.
fn requalified(
    raw: &OverlayGraph,
    from: &OverlayGraph,
    links: &[(Link, u64)],
    restore: bool,
) -> (OverlayGraph, Vec<EdgeChange>) {
    let mut next = from.clone();
    let changes = links
        .iter()
        .filter_map(|&(link, kbps)| {
            let (a, b) = (raw.node_of(link.0)?, raw.node_of(link.1)?);
            let full = *raw.graph().edge(raw.graph().find_edge(a, b)?);
            let left = full.bandwidth.saturating_sub(Bandwidth::kbps(kbps));
            let qos = if restore {
                full
            } else {
                Qos::new(left, full.latency)
            };
            next.update_link_qos(a, b, qos)
        })
        .collect();
    (next, changes)
}

/// Measures every workload-independent layer metric.
pub fn measure(harness: &Harness, scale: Scale) -> Fallible<Rows> {
    let (passes, slow_passes) = (scale.of(PASSES, 2), scale.of(SLOW_PASSES, 1));
    let mut rows = Rows::new();
    let mut world = World::new(harness.fixture.clone());
    world.set_route_workers(1);
    let snapshot = world.snapshot();
    let overlay = snapshot.overlay();
    let ctx = snapshot.context();
    let specs: Vec<&str> = harness.catalogue.iter().map(|e| e.spec.as_str()).collect();
    let key_of = |requirement: &ServiceRequirement| SolveKey {
        requirement: requirement.canonical_key(),
        algorithm: Algorithm::Sflow,
        hop_limit: None,
    };

    // core: parse + canonical key, cold solve.
    let parse = best_p50(passes, &specs, |spec| {
        let requirement: ServiceRequirement = spec.parse().expect("catalogue entries parse");
        black_box(requirement.canonical_key());
    });
    rows.push(("core.parse_key_us_p50", parse * 1e6, "us"));
    let requirements: Vec<ServiceRequirement> = specs
        .iter()
        .map(|spec| spec.parse().expect("catalogue entries parse"))
        .collect();
    let solve = best_p50(passes, &requirements, |requirement| {
        black_box(
            Solver::new(&ctx)
                .solve(requirement)
                .expect("catalogue entries federate"),
        );
    });
    rows.push(("core.solve_us_p50", solve * 1e6, "us"));

    // server.snapshot: the solve-cache lookup, on a cache that holds the key.
    let keys: Vec<SolveKey> = requirements.iter().map(key_of).collect();
    let flows: Vec<Arc<FlowGraph>> = requirements
        .iter()
        .zip(&keys)
        .map(|(requirement, key)| {
            let flow = Solver::new(&ctx)
                .solve(requirement)
                .expect("catalogue entries federate");
            snapshot.cache_solve(key.clone(), flow)
        })
        .collect();
    let cached = best_p50(passes, &keys, |key| {
        black_box(snapshot.cached_solve(key));
    });
    rows.push(("snapshot.cached_solve_us_p50", cached * 1e6, "us"));

    // server.load: ledger lookups, then the patch in its two directions.
    let fresh = LoadPlane::fresh(&snapshot);
    let links_us = best_p50(passes, &flows, |flow| {
        black_box(links_of(flow, overlay));
    });
    rows.push(("load.links_of_us_p50", links_us * 1e6, "us"));
    let links: Vec<Vec<(Link, u64)>> = flows.iter().map(|f| links_of(f, overlay)).collect();
    let fits = best_p50(passes, &links, |links| {
        black_box(fresh.fits(links));
    });
    rows.push(("load.fits_us_p50", fits * 1e6, "us"));
    let slow = &links[..SLOW_LIST];
    let open = best_p50(slow_passes, slow, |links| {
        black_box(fresh.with_changes(links, &[], 1));
    });
    rows.push(("load.open_patch_ms_p50", open * 1e3, "ms"));
    let booked: Vec<(LoadPlane, &Vec<(Link, u64)>)> = slow
        .iter()
        .map(|links| (fresh.with_changes(links, &[], 1), links))
        .collect();
    let release = best_p50(slow_passes, &booked, |(plane, links)| {
        black_box(plane.with_changes(&[], links, 1));
    });
    rows.push(("load.release_patch_ms_p50", release * 1e3, "ms"));
    // 32 reservations: as many whole flows as it takes.
    let mut reservations: Vec<(Link, u64)> = Vec::new();
    for flow_links in &links {
        if reservations.len() >= 32 {
            break;
        }
        reservations.extend(flow_links);
    }
    reservations.truncate(32);
    let rebase = best_p50(slow_passes, &[()], |()| {
        let map = LoadMap::from_reservations(reservations.iter().copied());
        black_box(LoadPlane::rebased(&snapshot, map, 1));
    });
    rows.push(("load.rebase_ms_p50", rebase * 1e3, "ms"));

    // routing: one menu flow's links clamped to what the flow leaves free,
    // then restored, through the table patch alone — what the load patch
    // above pays the routing engine for.
    let cuts: Vec<_> = slow
        .iter()
        .map(|links| requalified(overlay, overlay, links, false))
        .collect();
    let mut cut_trees = Vec::new();
    let cut_s = best_p50(slow_passes, &cuts, |(cut, changes)| {
        let (_, stats) = snapshot.all_pairs().patched_with(cut.graph(), changes, 1);
        cut_trees.push(stats.trees_recomputed as f64);
    });
    rows.push(("routing.patch_cut_ms_p50", cut_s * 1e3, "ms"));
    rows.push(("routing.patch_cut_trees_mean", mean(&cut_trees), "count"));
    let restores: Vec<_> = slow
        .iter()
        .zip(&cuts)
        .map(|(links, (cut, changes))| {
            let (table, _) = snapshot.all_pairs().patched_with(cut.graph(), changes, 1);
            let (restored, back) = requalified(overlay, cut, links, true);
            (table, restored, back)
        })
        .collect();
    let mut restore_trees = Vec::new();
    let restore_s = best_p50(slow_passes, &restores, |(table, restored, back)| {
        let (_, stats) = table.patched_with(restored.graph(), back, 1);
        restore_trees.push(stats.trees_recomputed as f64);
    });
    rows.push(("routing.patch_restore_ms_p50", restore_s * 1e3, "ms"));
    rows.push((
        "routing.patch_restore_trees_mean",
        mean(&restore_trees),
        "count",
    ));

    // server.world: the same links halved and restored through `World::apply`
    // on a world whose solve cache holds the whole catalogue; then what
    // survives (adoption) and what a repair of each flow costs.
    let targets: Vec<Link> = slow.iter().map(|links| links[0].0).collect();
    let solved: Vec<(&ServiceRequirement, &Arc<FlowGraph>)> =
        requirements.iter().zip(&flows).collect();
    let (mut degrade, mut restore, mut trees, mut adopted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut repair_us = Vec::new();
    for _ in 0..slow_passes {
        let (mut pass_degrade, mut pass_restore) = (Vec::new(), Vec::new());
        for &target in &targets {
            let mut world = World::new(harness.fixture.clone());
            world.set_route_workers(1);
            let before = world.snapshot();
            for (key, flow) in keys.iter().zip(&flows) {
                before.cache_solve(key.clone(), flow.as_ref().clone());
            }
            let t = Instant::now();
            let stats = world.apply(&harness.link_mutation(target, false))?;
            pass_degrade.push(t.elapsed().as_secs_f64());
            trees.push(stats.trees_recomputed as f64);
            let after = world.snapshot();
            adopted.push(after.cached_solve_count() as f64 / before.cached_solve_count() as f64);
            if target == targets[0] {
                let ctx = after.context();
                repair_us.push(best_p50(1, &solved, |(requirement, flow)| {
                    black_box(repair(&ctx, requirement, flow).ok());
                }));
            }
            let t = Instant::now();
            let stats = world.apply(&harness.link_mutation(target, true))?;
            pass_restore.push(t.elapsed().as_secs_f64());
            trees.push(stats.trees_recomputed as f64);
        }
        degrade.push(median(&mut pass_degrade));
        restore.push(median(&mut pass_restore));
    }
    rows.push(("world.apply_degrade_ms_p50", best_low(&degrade) * 1e3, "ms"));
    rows.push(("world.apply_restore_ms_p50", best_low(&restore) * 1e3, "ms"));
    rows.push(("world.trees_recomputed_mean", mean(&trees), "count"));
    rows.push(("snapshot.adopted_share", mean(&adopted), "ratio"));
    rows.push(("core.repair_us_p50", best_low(&repair_us) * 1e6, "us"));

    // server.wire: the codec in both directions, on the catalogue's frames.
    let requests: Vec<RequestFrame> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| RequestFrame {
            request_id: i as u64 + 1,
            request: Request::Federate {
                requirement: (*spec).to_owned(),
                algorithm: Algorithm::Sflow,
                hop_limit: None,
            },
        })
        .collect();
    let responses: Vec<ResponseFrame> = flows
        .iter()
        .enumerate()
        .map(|(i, flow)| ResponseFrame {
            request_id: i as u64 + 1,
            response: Response::Federated(FlowSummary {
                session: i as u64,
                epoch: 0,
                bandwidth_kbps: flow.quality().bandwidth.as_kbps(),
                latency_us: flow.quality().latency.as_micros(),
                instances: flow.instances().clone(),
            }),
        })
        .collect();
    let encode_request = best_p50(passes, &requests, |frame| {
        black_box(encode_frame(frame).ok());
    });
    let encode_response = best_p50(passes, &responses, |frame| {
        black_box(encode_frame(frame).ok());
    });
    let request_bytes: Vec<Vec<u8>> = requests
        .iter()
        .map(|f| encode_frame(f).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let response_bytes: Vec<Vec<u8>> = responses
        .iter()
        .map(|f| encode_frame(f).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut decoder = FrameDecoder::new();
    let decode_request = best_p50(passes, &request_bytes, |bytes| {
        decoder.feed(bytes);
        black_box(decoder.next_frame::<RequestFrame>().ok());
    });
    let decode_response = best_p50(passes, &response_bytes, |bytes| {
        decoder.feed(bytes);
        black_box(decoder.next_frame::<ResponseFrame>().ok());
    });
    let mean_len =
        |frames: &[Vec<u8>]| mean(&frames.iter().map(|f| f.len() as f64).collect::<Vec<_>>());
    rows.push(("wire.encode_request_us_p50", encode_request * 1e6, "us"));
    rows.push(("wire.decode_request_us_p50", decode_request * 1e6, "us"));
    rows.push(("wire.encode_response_us_p50", encode_response * 1e6, "us"));
    rows.push(("wire.decode_response_us_p50", decode_response * 1e6, "us"));
    rows.push(("wire.request_bytes", mean_len(&request_bytes), "B"));
    rows.push(("wire.response_bytes", mean_len(&response_bytes), "B"));

    // server.reactor: `Stats` never leaves the reactor thread, so its round
    // trip is the socket-plus-framing floor under every other request.
    let handle = harness.serve()?;
    let mut client = PipelinedClient::connect(handle.addr())?;
    let mut failed = None;
    let stats_rtt = best_p50(passes, &[(); 200], |()| {
        let answered = client.send(&Request::Stats).and_then(|id| client.recv(id));
        if let Err(e) = answered {
            failed.get_or_insert(e);
        }
    });
    drop(client);
    handle.shutdown();
    if let Some(e) = failed {
        return Err(e.into());
    }
    rows.push(("reactor.stats_rtt_us_p50", stats_rtt * 1e6, "us"));
    Ok(rows)
}
