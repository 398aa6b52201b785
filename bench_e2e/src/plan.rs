//! The four workloads, each as one round's op list generated from `--seed`.
//!
//! A round is byte-identical every time it runs: an unmeasured prefill, a
//! latency phase (one request in flight) and a throughput phase (a window of
//! requests in flight), all over one connection to a fresh server.
//!
//! What the seed draws is the *measured traffic* — which held forest a
//! request attaches to, in what order keys are visited, which tenant holds
//! which popular rank. The world, the catalogue, the forests a prefill founds
//! and the shape of each trace (how many foundings, attaches and dissolves a
//! round holds) are the same on every seed, so runs on different seeds
//! measure the same amount of work and their medians can be compared.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bench_e2e::Zipf;

/// Requests in flight during the throughput phase.
pub const WINDOW: usize = 8;

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["hot-attach", "cold-unique", "zipf-mix", "churn-repair"];

/// One request of a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Federate catalogue entry `key`; the session id lands in `slot`.
    Federate { key: usize, slot: usize },
    /// Release the session in `slot`.
    Release { slot: usize },
    /// Halve (`restore == false`) or restore the bandwidth of the link that
    /// is most reserved once the prefill has booked its sessions.
    Mutate { restore: bool },
}

/// One round's op lists.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Sessions opened before timing starts.
    pub prefill: Vec<Op>,
    /// Ops sent one at a time; each round trip is a latency sample.
    pub latency: Vec<Op>,
    /// Ops sent with up to [`WINDOW`] in flight; their rate is throughput.
    pub throughput: Vec<Op>,
    /// Session slots the plan uses.
    pub slots: usize,
    /// The leading slots that stay open for good: the held forests of
    /// `hot-attach` and `churn-repair`. Every other session is released by
    /// the trace or by [`Plan::drained`].
    pub permanent: usize,
}

impl Plan {
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.prefill
            .iter()
            .chain(&self.latency)
            .chain(&self.throughput)
    }

    /// The sessions still open when every op has run.
    #[cfg(test)]
    pub fn open_at_end(&self) -> usize {
        let opened = self
            .ops()
            .filter(|op| matches!(op, Op::Federate { .. }))
            .count();
        let closed = self
            .ops()
            .filter(|op| matches!(op, Op::Release { .. }))
            .count();
        opened - closed
    }

    /// The plan with a tail that releases every non-permanent session still
    /// open — what the verification round runs, so that the ledger must
    /// return to what the permanent sessions alone book.
    pub fn drained(&self) -> Plan {
        let mut open = vec![false; self.slots];
        for op in self.ops() {
            match *op {
                Op::Federate { slot, .. } => open[slot] = true,
                Op::Release { slot } => open[slot] = false,
                Op::Mutate { .. } => {}
            }
        }
        let mut plan = self.clone();
        plan.throughput.extend(
            (self.permanent..self.slots)
                .filter(|&slot| open[slot])
                .map(|slot| Op::Release { slot }),
        );
        plan
    }
}

/// Hands out session slots and writes "federate now, release `hold`
/// federates later" traces.
struct Trace {
    ops: Vec<Op>,
    live: std::collections::VecDeque<usize>,
    hold: usize,
}

impl Trace {
    fn new(hold: usize) -> Self {
        Trace {
            ops: Vec::new(),
            live: std::collections::VecDeque::new(),
            hold,
        }
    }

    fn federate(&mut self, key: usize, slots: &mut usize) {
        let slot = *slots;
        *slots += 1;
        self.ops.push(Op::Federate { key, slot });
        self.live.push_back(slot);
        if self.live.len() > self.hold {
            if let Some(slot) = self.live.pop_front() {
                self.ops.push(Op::Release { slot });
            }
        }
    }

    fn drain(&mut self) {
        while let Some(slot) = self.live.pop_front() {
            self.ops.push(Op::Release { slot });
        }
    }
}

/// How much work a run does; `smoke` shrinks it for the test run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    pub fn of(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Builds `workload`'s round over the first entries of the catalogue.
///
/// Which entries a workload uses, and the order its prefill founds them in,
/// is the same on every seed: a founding solves against what the forests
/// before it left free, so another order books other links and the round
/// would measure another ledger. The seed draws the measured traffic.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first).
pub fn plan(workload: &str, seed: u64, scale: Scale) -> Plan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Plan::default();
    let slots = &mut plan.slots;
    match workload {
        // 16 forests held open; measured traffic attaches to and detaches
        // from them in an order the seed draws, so no solve, booking or
        // patch ever runs.
        "hot-attach" => {
            let keys: Vec<usize> = (0..16).collect();
            let mut prefill = Trace::new(usize::MAX);
            for &key in &keys {
                prefill.federate(key, slots);
            }
            plan.prefill = prefill.ops;
            plan.permanent = keys.len();
            let mut latency = Trace::new(0);
            for _ in 0..scale.of(1536, 64) {
                latency.federate(keys[rng.gen_range(0..keys.len())], slots);
            }
            plan.latency = latency.ops;
            let mut throughput = Trace::new(WINDOW);
            for _ in 0..scale.of(3072, 128) {
                throughput.federate(keys[rng.gen_range(0..keys.len())], slots);
            }
            throughput.drain();
            plan.throughput = throughput.ops;
        }
        // Every federate founds a forest on a first-touch key and every
        // release dissolves one; the seed orders the keys of each phase.
        // (The booking patch's cost differs threefold between keys and a
        // phase holds five, so the keys themselves must not change.)
        "cold-unique" => {
            let per_phase = scale.of(5, 2);
            let mut first: Vec<usize> = (0..per_phase).collect();
            let mut second: Vec<usize> = (per_phase..2 * per_phase).collect();
            first.shuffle(&mut rng);
            second.shuffle(&mut rng);
            let mut latency = Trace::new(0);
            for &key in &first {
                latency.federate(key, slots);
            }
            plan.latency = latency.ops;
            let mut throughput = Trace::new(per_phase);
            for &key in &second {
                throughput.federate(key, slots);
            }
            throughput.drain();
            plan.throughput = throughput.ops;
        }
        // Zipf(1.0) popularity over 32 tenants, each session held for the
        // next HOLD federates. The prefill founds every tenant once, then
        // runs the trace until HOLD sessions are live. The rank sequence is
        // fixed and so are the tenants of the rare ranks, so every seed has
        // the same foundings, hand-overs and dissolves; the seed decides
        // which of the eight always-live tenants holds which popular rank,
        // and draws the extra visits of the latency phase.
        "zipf-mix" => {
            const HOLD: usize = 128;
            const TRACE_SEED: u64 = 0x21bf_0a1e;
            let mut keys: Vec<usize> = (0..32).collect();
            let mut trace = Trace::new(HOLD);
            for &key in &keys {
                trace.federate(key, slots);
            }
            keys[..8].shuffle(&mut rng);
            let zipf = Zipf::new(keys.len());
            let mut ranks = StdRng::seed_from_u64(TRACE_SEED);
            for _ in keys.len()..HOLD {
                trace.federate(keys[zipf.sample(&mut ranks)], slots);
            }
            plan.prefill = std::mem::take(&mut trace.ops);
            for _ in 0..scale.of(64, 20) {
                trace.federate(keys[zipf.sample(&mut ranks)], slots);
            }
            plan.latency = std::mem::take(&mut trace.ops);
            // 64 trace steps give one p50 per round, too few rounds to find a
            // quiet one; visits to the eight always-live tenants — attaches,
            // like nine trace steps in ten — bring the phase to 768 samples.
            let mut visits = Trace::new(0);
            for _ in 0..scale.of(704, 12) {
                visits.federate(keys[rng.gen_range(0..8)], slots);
            }
            plan.latency.extend(visits.ops);
            for _ in 0..scale.of(64, 20) {
                trace.federate(keys[zipf.sample(&mut ranks)], slots);
            }
            plan.throughput = trace.ops;
        }
        // 32 sessions over 8 forests stay live; the most-reserved link is
        // halved, then restored, each followed by a burst of attach traffic,
        // so the writer side — apply, repair sweep, cache adoption, ledger
        // rebase — carries the round.
        "churn-repair" => {
            let keys: Vec<usize> = (0..8).collect();
            let mut prefill = Trace::new(usize::MAX);
            for _ in 0..4 {
                for &key in &keys {
                    prefill.federate(key, slots);
                }
            }
            plan.prefill = prefill.ops;
            plan.permanent = plan.prefill.len();
            let mut latency = Trace::new(0);
            for _ in 0..scale.of(768, 32) {
                latency.federate(keys[rng.gen_range(0..keys.len())], slots);
            }
            plan.latency = latency.ops;
            // Each burst attaches once to every forest, in the same order on
            // every seed: a mutation that moves a forest, or evicts its
            // cached solve, turns that key's later attaches into foundings,
            // and a founding solves against what the ones before it booked.
            let mut throughput = Trace::new(WINDOW);
            for restore in [false, true] {
                throughput.ops.push(Op::Mutate { restore });
                for &key in &keys {
                    throughput.federate(key, slots);
                }
            }
            plan.throughput = throughput.ops;
        }
        other => panic!("unknown workload {other:?}"),
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        let scale = Scale { smoke: false };
        for workload in WORKLOADS {
            let a = plan(workload, 7, scale);
            let b = plan(workload, 7, scale);
            let c = plan(workload, 8, scale);
            assert_eq!(a.latency, b.latency, "{workload}");
            assert_eq!(a.throughput, b.throughput, "{workload}");
            // Which forests the prefill founds, and in what order, must not
            // depend on the seed.
            let foundings = |plan: &Plan| {
                let mut seen = Vec::new();
                for op in &plan.prefill {
                    if let Op::Federate { key, .. } = *op {
                        if !seen.contains(&key) {
                            seen.push(key);
                        }
                    }
                }
                seen
            };
            assert_eq!(foundings(&a), foundings(&c), "{workload}");
            assert_ne!(
                (a.latency, a.throughput),
                (c.latency, c.throughput),
                "{workload}"
            );
        }
    }

    #[test]
    fn drained_plans_close_what_they_open() {
        let scale = Scale { smoke: false };
        for workload in WORKLOADS {
            let p = plan(workload, 3, scale);
            assert_eq!(p.drained().open_at_end(), p.permanent, "{workload}");
        }
    }
}
