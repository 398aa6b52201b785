//! One round over the wire: a fresh server, one pipelined connection, the
//! plan's three phases and the closing agility probe.

use std::collections::{BTreeSet, VecDeque};
use std::error::Error;
use std::io;
use std::net::SocketAddr;
use std::time::Instant;

use sflow_core::fixtures::Fixture;
use sflow_core::ServiceRequirement;
use sflow_net::{ServiceId, ServiceInstance};
use sflow_server::{
    serve, Algorithm, LoadMapSummary, Mutation, PipelinedClient, Request, Response, ResponseFrame,
    ServerConfig, ServerHandle, StatsSnapshot, World,
};

use crate::plan::{Op, Plan, WINDOW};
use bench_e2e::process_cpu_seconds;

pub type Fallible<T> = Result<T, Box<dyn Error>>;

/// A service link by its stable endpoints.
pub type Link = (ServiceInstance, ServiceInstance);

/// The client side of one connection, as far as a round needs it: stage a
/// request, take the next response. [`PipelinedClient`] in measured rounds;
/// the span-recording client of `trace.rs` in traced ones.
pub trait Wire {
    fn send(&mut self, request: &Request) -> io::Result<u64>;
    fn recv_any(&mut self) -> io::Result<ResponseFrame>;
}

impl Wire for PipelinedClient {
    fn send(&mut self, request: &Request) -> io::Result<u64> {
        PipelinedClient::send(self, request)
    }

    fn recv_any(&mut self) -> io::Result<ResponseFrame> {
        PipelinedClient::recv_any(self)
    }
}

/// One catalogue requirement: the wire expression and the services a
/// correct answer must select.
pub struct Entry {
    pub spec: String,
    pub services: Vec<ServiceId>,
}

impl Entry {
    pub fn new(spec: String) -> Self {
        let requirement: ServiceRequirement = spec.parse().expect("catalogue entries parse");
        let mut services = requirement.services();
        services.sort();
        Entry { spec, services }
    }
}

/// The server sizing every round uses: one worker, one reactor and one
/// routing thread, so that — pinned to one CPU — nothing overlaps and a
/// faster layer saves exactly its share of the round trip.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        reactor_threads: 1,
        route_workers: 1,
        ..ServerConfig::default()
    }
}

/// A fresh server over a copy of the world: empty caches, no forests, an
/// empty ledger.
pub fn serve_fresh(fixture: &Fixture) -> io::Result<ServerHandle> {
    serve(World::new(fixture.clone()), &server_config())
}

/// What every round starts from.
pub struct Harness {
    pub fixture: Fixture,
    pub catalogue: Vec<Entry>,
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Latency-phase round trips by kind, milliseconds.
    pub federate_ms: Vec<f64>,
    pub release_ms: Vec<f64>,
    /// Throughput phase: when each op completed (seconds into the phase),
    /// process CPU seconds and reactor wake-ups.
    pub window_done_s: Vec<f64>,
    pub window_cpu_s: f64,
    pub window_wakeups: u64,
    /// The agility probe: halve, then restore, the most-reserved link.
    pub degrade_ms: f64,
    pub restore_ms: f64,
    /// `StatsSnapshot::latency_p50_us` read right after the latency phase.
    pub execute_us_p50: u64,
    /// Measured-phase ops sent, and those answered with anything but
    /// success.
    pub attempted: usize,
    pub failed: usize,
    /// Sum and count of the bottleneck bandwidth of admitted flows.
    pub bandwidth_kbps_sum: u64,
    pub federated: usize,
    /// Server-side counter movement over the measured phases.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub revalidation_fails: u64,
    /// The ledger once the measured phases are over: `(link, reserved)`.
    pub ledger: Vec<(Link, u64)>,
    /// Whole-round wall seconds, server start to server stop.
    pub round_s: f64,
}

impl Round {
    pub fn mutate_ms(&self) -> f64 {
        (self.degrade_ms + self.restore_ms) / 2.0
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Slot {
    Pending,
    Open(u64),
    Failed,
}

/// The live connection plus what the client has learned so far.
struct Session<'a, W> {
    harness: &'a Harness,
    client: W,
    slots: Vec<Slot>,
    /// The link in-trace mutations hit: the most reserved after the prefill.
    loaded: Link,
    /// Verify each `Federated` reply's selection (verification round only).
    check: bool,
    round: Round,
    mutations: usize,
    released: usize,
    /// Filled when a check fails; reported after the round.
    mismatch: Option<String>,
}

impl Harness {
    /// A fresh server: see [`serve_fresh`].
    pub fn serve(&self) -> io::Result<ServerHandle> {
        serve_fresh(&self.fixture)
    }

    /// A `SetLinkQos` that halves (or restores) the raw bandwidth of the
    /// service link `from → to`.
    pub fn link_mutation(&self, link: Link, restore: bool) -> Mutation {
        let overlay = &self.fixture.overlay;
        let qos = overlay
            .node_of(link.0)
            .zip(overlay.node_of(link.1))
            .and_then(|(from, to)| overlay.graph().find_edge(from, to))
            .map(|edge| *overlay.graph().edge(edge))
            .expect("mutation targets are overlay links");
        let kbps = qos.bandwidth.as_kbps();
        Mutation::SetLinkQos {
            from: link.0,
            to: link.1,
            bandwidth_kbps: if restore { kbps } else { kbps / 2 },
            latency_us: qos.latency.as_micros(),
        }
    }

    fn first_source_link(&self) -> Link {
        let overlay = &self.fixture.overlay;
        let edge = overlay
            .graph()
            .out_edges(self.fixture.source)
            .next()
            .expect("the source has service links");
        (overlay.instance(edge.from), overlay.instance(edge.to))
    }

    /// The most-reserved link of `ledger` (the first on ties, in the
    /// ledger's stable link order), or the first source link when nothing
    /// is booked.
    pub fn loaded_link(&self, ledger: &[(Link, u64)]) -> Link {
        let mut best: Option<(Link, u64)> = None;
        for &(link, reserved) in ledger {
            if best.is_none_or(|(_, most)| reserved > most) {
                best = Some((link, reserved));
            }
        }
        best.map_or_else(|| self.first_source_link(), |(link, _)| link)
    }

    /// Runs `plan` once against a fresh server.
    pub fn round(&self, plan: &Plan) -> Fallible<Round> {
        let (round, _, _) = self.run(plan, false, PipelinedClient::connect)?;
        Ok(round)
    }

    /// Runs `plan` drained, checking every reply and reconciling the
    /// client's counts with the server's; `Err` names the first mismatch.
    pub fn verify(&self, plan: &Plan) -> Fallible<Round> {
        let (round, mismatch, _) = self.run(&plan.drained(), true, PipelinedClient::connect)?;
        match mismatch {
            Some(what) => Err(what.into()),
            None => Ok(round),
        }
    }

    /// Runs `plan` once over the client `connect` opens, and hands that
    /// client back with whatever it recorded.
    pub fn round_over<W: Wire>(
        &self,
        plan: &Plan,
        connect: impl FnOnce(SocketAddr) -> io::Result<W>,
    ) -> Fallible<(Round, W)> {
        let (round, _, client) = self.run(plan, false, connect)?;
        Ok((round, client))
    }

    fn run<W: Wire>(
        &self,
        plan: &Plan,
        check: bool,
        connect: impl FnOnce(SocketAddr) -> io::Result<W>,
    ) -> Fallible<(Round, Option<String>, W)> {
        let started = Instant::now();
        let handle = self.serve()?;
        let mut s = Session {
            harness: self,
            client: connect(handle.addr())?,
            slots: vec![Slot::Pending; plan.slots],
            loaded: self.first_source_link(),
            check,
            round: Round::default(),
            mutations: 0,
            released: 0,
            mismatch: None,
        };

        s.phase(&plan.prefill, 1)?;
        let held = s.ledger()?;
        s.loaded = self.loaded_link(&held);
        // The prefill is unmeasured: its ops count for nothing below.
        s.round = Round::default();
        (s.mutations, s.released) = (0, 0);
        let before = s.stats()?;

        s.phase(&plan.latency, 1)?;
        let mid = s.stats()?;
        s.round.execute_us_p50 = mid.latency_p50_us;

        let cpu = process_cpu_seconds();
        s.phase(&plan.throughput, WINDOW)?;
        s.round.window_cpu_s = process_cpu_seconds() - cpu;
        let after = s.stats()?;
        s.round.window_wakeups = after.reactor_wakeups - mid.reactor_wakeups;
        s.round.cache_hits = after.cache_hits - before.cache_hits;
        s.round.cache_misses = after.cache_misses - before.cache_misses;
        s.round.revalidation_fails =
            after.cache_revalidation_fails - before.cache_revalidation_fails;

        if check {
            s.reconcile(plan, &held, &before, &after)?;
        }

        // The agility probe: the world is frozen this long, at this
        // workload's live-session population.
        s.round.ledger = s.ledger()?;
        let target = self.loaded_link(&s.round.ledger);
        s.round.degrade_ms = s.probe(self.link_mutation(target, false))?;
        s.round.restore_ms = s.probe(self.link_mutation(target, true))?;
        if check {
            let probed = s.stats()?;
            if probed.rebuilds - after.rebuilds != 2 {
                s.mismatch.get_or_insert(format!(
                    "probe sent 2 mutations, server counted {}",
                    probed.rebuilds - after.rebuilds
                ));
            }
        }

        let Session {
            client,
            mut round,
            mismatch,
            ..
        } = s;
        handle.shutdown();
        round.round_s = started.elapsed().as_secs_f64();
        Ok((round, mismatch, client))
    }
}

/// The connection request id every measured op of `plan` travels under, in
/// plan order: a round sends the prefill, one `LoadMap` and one `Stats`
/// before the latency phase, and one more `Stats` before the throughput
/// phase (ids count from 1; no op is skipped while none fails).
pub fn request_ids(plan: &Plan) -> impl Iterator<Item = u64> {
    let latency_from = plan.prefill.len() as u64 + 3;
    let window_from = latency_from + plan.latency.len() as u64 + 1;
    (latency_from..window_from - 1).chain(window_from..window_from + plan.throughput.len() as u64)
}

/// `ledger` as `(link, reserved)` rows, in the server's stable link order.
fn book(ledger: LoadMapSummary) -> Vec<(Link, u64)> {
    let row = |l: &sflow_server::LinkLoad| ((l.from, l.to), l.reserved_kbps);
    ledger.links.iter().map(row).collect()
}

impl<W: Wire> Session<'_, W> {
    /// One request with nothing else in flight.
    fn ask(&mut self, request: &Request) -> Fallible<Response> {
        self.client.send(request)?;
        Ok(self.client.recv_any()?.response)
    }

    fn stats(&mut self) -> Fallible<StatsSnapshot> {
        match self.ask(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("expected Stats, got {other:?}").into()),
        }
    }

    fn ledger(&mut self) -> Fallible<Vec<(Link, u64)>> {
        match self.ask(&Request::LoadMap)? {
            Response::LoadMap(ledger) => Ok(book(ledger)),
            other => Err(format!("expected LoadMap, got {other:?}").into()),
        }
    }

    /// One timed mutation round trip, milliseconds.
    fn probe(&mut self, mutation: Mutation) -> Fallible<f64> {
        let t = Instant::now();
        let response = self.ask(&Request::Mutate(mutation))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match response {
            Response::Mutated { .. } => Ok(ms),
            other => Err(format!("probe mutation answered {other:?}").into()),
        }
    }

    /// The request for `op`, or `None` while the session it releases is
    /// still in flight. `Err` carries a release whose federate failed.
    fn request(&self, op: Op) -> Result<Option<Request>, ()> {
        Ok(Some(match op {
            Op::Federate { key, .. } => Request::Federate {
                requirement: self.harness.catalogue[key].spec.clone(),
                algorithm: Algorithm::Sflow,
                hop_limit: None,
            },
            Op::Release { slot } => match self.slots[slot] {
                Slot::Open(session) => Request::Release { session },
                Slot::Pending => return Ok(None),
                Slot::Failed => return Err(()),
            },
            Op::Mutate { restore } => {
                Request::Mutate(self.harness.link_mutation(self.loaded, restore))
            }
        }))
    }

    /// Sends `ops` in order with up to `window` in flight, waiting where a
    /// release needs a session id that has not come back yet. With a window
    /// of one every round trip is a latency sample; with a wider one every
    /// completion time is kept.
    fn phase(&mut self, ops: &[Op], window: usize) -> Fallible<()> {
        let started = Instant::now();
        let mut in_flight: VecDeque<(u64, Op, Instant)> = VecDeque::with_capacity(window);
        let mut next = 0;
        while next < ops.len() || !in_flight.is_empty() {
            while next < ops.len() && in_flight.len() < window {
                let sent = Instant::now();
                match self.request(ops[next]) {
                    Ok(Some(request)) => {
                        let id = self.client.send(&request)?;
                        in_flight.push_back((id, ops[next], sent));
                        self.round.attempted += 1;
                    }
                    Ok(None) if in_flight.is_empty() => {
                        return Err(format!("{:?} precedes its federate", ops[next]).into());
                    }
                    Ok(None) => break,
                    Err(()) => {
                        self.round.attempted += 1;
                        self.round.failed += 1;
                    }
                }
                next += 1;
            }
            if in_flight.is_empty() {
                break; // the tail was releases of failed federates
            }
            let frame = self.client.recv_any()?;
            let arrived = Instant::now();
            let at = in_flight
                .iter()
                .position(|(id, _, _)| *id == frame.request_id)
                .ok_or_else(|| format!("unsolicited response id {}", frame.request_id))?;
            let (_, op, sent) = in_flight.remove(at).expect("position is in range");
            let ms = (arrived - sent).as_secs_f64() * 1e3;
            if window > 1 {
                self.round
                    .window_done_s
                    .push((arrived - started).as_secs_f64());
            }
            self.settle(op, frame.response, (window == 1).then_some(ms));
        }
        Ok(())
    }

    /// Books one reply: fills the session slot, counts failures, keeps the
    /// latency sample.
    fn settle(&mut self, op: Op, response: Response, sample_ms: Option<f64>) {
        match (op, response) {
            (Op::Federate { key, slot }, Response::Federated(flow)) => {
                self.slots[slot] = Slot::Open(flow.session);
                self.round.federated += 1;
                self.round.bandwidth_kbps_sum += flow.bandwidth_kbps;
                self.round.federate_ms.extend(sample_ms);
                if self.check {
                    let want = &self.harness.catalogue[key].services;
                    let selected: Vec<ServiceId> = flow.instances.keys().copied().collect();
                    let consistent = flow
                        .instances
                        .iter()
                        .all(|(sid, inst)| inst.service == *sid);
                    if selected != *want || !consistent || flow.bandwidth_kbps == 0 {
                        self.mismatch.get_or_insert(format!(
                            "federate {:?} selected {:?} at {} kbit/s, wanted one instance of each of {want:?}",
                            self.harness.catalogue[key].spec, flow.instances, flow.bandwidth_kbps
                        ));
                    }
                }
            }
            (Op::Release { slot }, Response::Released { session }) => {
                if self.slots[slot] != Slot::Open(session) {
                    self.mismatch
                        .get_or_insert(format!("release of slot {slot} closed session {session}"));
                }
                self.released += 1;
                self.round.release_ms.extend(sample_ms);
            }
            (Op::Mutate { .. }, Response::Mutated { .. }) => self.mutations += 1,
            (op, _) => {
                if let Op::Federate { slot, .. } = op {
                    self.slots[slot] = Slot::Failed;
                }
                self.round.failed += 1;
            }
        }
    }

    /// Client-side counts against the server's own, after the drained plan:
    /// they must agree exactly.
    fn reconcile(
        &mut self,
        plan: &Plan,
        held: &[(Link, u64)],
        before: &StatsSnapshot,
        after: &StatsSnapshot,
    ) -> Fallible<()> {
        let measured = || plan.latency.iter().chain(&plan.throughput);
        let mut problems = Vec::new();
        let mut expect = |what: &str, client: u64, server: u64| {
            if client != server {
                problems.push(format!("{what}: client {client}, server {server}"));
            }
        };
        let federates = measured()
            .filter(|op| matches!(op, Op::Federate { .. }))
            .count();
        let mutations = measured()
            .filter(|op| matches!(op, Op::Mutate { .. }))
            .count();
        expect(
            "federated",
            self.round.federated as u64,
            after.served - before.served,
        );
        expect(
            "cache lookups",
            federates as u64,
            self.round.cache_hits + self.round.cache_misses + self.round.revalidation_fails,
        );
        expect(
            "mutations",
            self.mutations as u64,
            after.rebuilds - before.rebuilds,
        );
        expect("mutations sent", mutations as u64, self.mutations as u64);
        expect(
            "failures",
            self.round.failed as u64,
            (after.failed - before.failed)
                + (after.shed - before.shed)
                + (after.stale - before.stale),
        );
        if mutations == 0 && self.round.revalidation_fails == 0 && self.round.failed == 0 {
            // With the epoch fixed and every cached flow still fitting, a
            // federate hits exactly when its key was solved before.
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for op in &plan.prefill {
                if let Op::Federate { key, .. } = op {
                    seen.insert(*key);
                }
            }
            let first_touches = measured()
                .filter(|op| matches!(op, Op::Federate { key, .. } if seen.insert(*key)))
                .count();
            expect(
                "cache misses",
                first_touches as u64,
                self.round.cache_misses,
            );
            expect(
                "cache hits",
                (federates - first_touches) as u64,
                self.round.cache_hits,
            );
        }
        let releases = measured()
            .filter(|op| matches!(op, Op::Release { .. }))
            .count();
        if self.round.failed == 0 {
            expect("released", releases as u64, self.released as u64);
            expect("sessions left open", plan.permanent as u64, after.sessions);
        }
        let ledger = self.ledger()?;
        if mutations == 0 && self.round.failed == 0 {
            // Everything the measured phases booked is released again, so
            // the ledger is back to what the permanent sessions hold —
            // nothing at all when there are none.
            let want = if plan.permanent == 0 { &[][..] } else { held };
            if ledger != want {
                problems.push(format!(
                    "ledger after the last release holds {} links, expected {}",
                    ledger.len(),
                    want.len()
                ));
            }
        }
        if let Some(first) = problems.into_iter().next() {
            self.mismatch.get_or_insert(first);
        }
        Ok(())
    }
}
