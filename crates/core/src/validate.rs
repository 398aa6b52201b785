//! Runtime invariant auditing of federation answers.
//!
//! The paper proves the Maximum Service Flow Graph Problem NP-complete
//! (Theorem 1) and then ships heuristics — so every answer the solver or the
//! server emits is plausible-but-unproven. [`FlowGraphAuditor`] re-derives
//! the paper's model constraints for a finished [`FlowGraph`] from first
//! principles (walking real overlay links, not the all-pairs table the
//! solver used) and reports every discrepancy as a typed [`Violation`]:
//!
//! 1. exactly one instance is selected for each required service, hosted on
//!    a live node that really offers that service;
//! 2. there is exactly one stream per requirement edge and the streams form
//!    an acyclic graph;
//! 3. every stream's overlay path connects its endpoint instances over links
//!    that exist with sufficient bandwidth;
//! 4. the reported stream QoS matches the path: bottleneck bandwidth equals
//!    the true minimum over member links, latency the true sum;
//! 5. the flow-graph quality is consistent: bandwidth is the min over
//!    streams, latency the longest source→sink branch.
//!
//! In every debug build [`FlowGraph::assemble`] audits each flow graph it
//! produces and panics on a violation, so every test and debug server checks
//! every solve, repair and served flow. Release builds compile it out; call
//! [`FlowGraphAuditor::audit`] directly to check an answer there.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use sflow_graph::NodeIx;
use sflow_net::ServiceId;
use sflow_routing::{Bandwidth, Latency, Qos};

use crate::{FederationContext, FlowGraph, ServiceRequirement};

/// One violated model constraint, with enough context to debug it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A required service has no selected instance.
    MissingInstance {
        /// The service the selection misses.
        service: ServiceId,
    },
    /// The selection contains a service the requirement never asked for.
    ExtraInstance {
        /// The surplus service.
        service: ServiceId,
    },
    /// The selected node does not host the service it was selected for.
    WrongService {
        /// The service the selection claims.
        service: ServiceId,
        /// The selected overlay node.
        node: NodeIx,
        /// What that node actually hosts.
        hosts: ServiceId,
    },
    /// The selected node's instance has failed (a tombstone).
    FailedInstance {
        /// The service the selection claims.
        service: ServiceId,
        /// The selected overlay node.
        node: NodeIx,
    },
    /// A requirement edge has no stream, or has more than one.
    StreamMismatch {
        /// Upstream service of the requirement edge.
        from: ServiceId,
        /// Downstream service of the requirement edge.
        to: ServiceId,
        /// How many streams carry this edge (expected exactly 1).
        count: usize,
    },
    /// The streams contain a directed cycle (the flow graph must be a DAG).
    CyclicStreams,
    /// A stream's overlay path does not start/end at its selected instances.
    PathEndpoints {
        /// Upstream service of the stream.
        from: ServiceId,
        /// Downstream service of the stream.
        to: ServiceId,
    },
    /// Two consecutive path nodes are not connected by any overlay link.
    MissingLink {
        /// Upstream service of the stream.
        from: ServiceId,
        /// Downstream service of the stream.
        to: ServiceId,
        /// Tail of the missing link.
        hop_from: NodeIx,
        /// Head of the missing link.
        hop_to: NodeIx,
    },
    /// The reported stream bandwidth differs from the true path bottleneck.
    BandwidthMismatch {
        /// Upstream service of the stream.
        from: ServiceId,
        /// Downstream service of the stream.
        to: ServiceId,
        /// What the flow graph claims.
        reported: Bandwidth,
        /// The true minimum over the path's member links.
        actual: Bandwidth,
    },
    /// The reported stream latency differs from the true path latency sum.
    LatencyMismatch {
        /// Upstream service of the stream.
        from: ServiceId,
        /// Downstream service of the stream.
        to: ServiceId,
        /// What the flow graph claims.
        reported: Latency,
        /// The true sum over the path's member links.
        actual: Latency,
    },
    /// The flow quality's bandwidth is not the min over stream bandwidths.
    QualityBandwidth {
        /// What the flow graph claims.
        reported: Bandwidth,
        /// The min over stream bandwidths.
        actual: Bandwidth,
    },
    /// The flow quality's latency is not the longest source→sink branch.
    QualityLatency {
        /// What the flow graph claims.
        reported: Latency,
        /// The longest-branch latency recomputed over the requirement DAG.
        actual: Latency,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingInstance { service } => {
                write!(f, "required service {service} has no selected instance")
            }
            Violation::ExtraInstance { service } => {
                write!(f, "selection contains unrequired service {service}")
            }
            Violation::WrongService {
                service,
                node,
                hosts,
            } => write!(
                f,
                "node {node:?} selected for {service} actually hosts {hosts}"
            ),
            Violation::FailedInstance { service, node } => {
                write!(f, "node {node:?} selected for {service} has failed")
            }
            Violation::StreamMismatch { from, to, count } => write!(
                f,
                "requirement edge {from} → {to} carried by {count} streams (expected 1)"
            ),
            Violation::CyclicStreams => write!(f, "selected streams contain a directed cycle"),
            Violation::PathEndpoints { from, to } => write!(
                f,
                "stream {from} → {to}: overlay path does not join the selected instances"
            ),
            Violation::MissingLink {
                from,
                to,
                hop_from,
                hop_to,
            } => write!(
                f,
                "stream {from} → {to}: no overlay link {hop_from:?} → {hop_to:?}"
            ),
            Violation::BandwidthMismatch {
                from,
                to,
                reported,
                actual,
            } => write!(
                f,
                "stream {from} → {to}: reported {reported}, true bottleneck {actual}"
            ),
            Violation::LatencyMismatch {
                from,
                to,
                reported,
                actual,
            } => write!(
                f,
                "stream {from} → {to}: reported {reported}, true path latency {actual}"
            ),
            Violation::QualityBandwidth { reported, actual } => write!(
                f,
                "flow bandwidth {reported} is not the stream minimum {actual}"
            ),
            Violation::QualityLatency { reported, actual } => write!(
                f,
                "flow latency {reported} is not the longest branch {actual}"
            ),
        }
    }
}

/// The result of auditing one flow graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Every violated constraint, in check order.
    pub violations: Vec<Violation>,
}

impl InvariantReport {
    /// True when the flow graph satisfies the full model.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for InvariantReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "flow graph satisfies all model invariants");
        }
        writeln!(f, "{} invariant violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Audits finished flow graphs against the requirement and the overlay.
///
/// Deliberately independent of the solver: it trusts nothing but the overlay
/// links themselves, so a bug in the all-pairs table, a stale routing cache,
/// or a corrupted selection all surface here.
pub struct FlowGraphAuditor<'a> {
    ctx: &'a FederationContext<'a>,
    req: &'a ServiceRequirement,
}

impl<'a> FlowGraphAuditor<'a> {
    /// Creates an auditor for one requirement over one overlay context.
    pub fn new(ctx: &'a FederationContext<'a>, req: &'a ServiceRequirement) -> Self {
        FlowGraphAuditor { ctx, req }
    }

    /// Runs every check on `flow` and collects all violations (the auditor
    /// never stops at the first finding — a debugging session wants the
    /// complete picture).
    pub fn audit(&self, flow: &FlowGraph) -> InvariantReport {
        let mut report = InvariantReport::default();
        self.check_selection(flow, &mut report);
        self.check_streams(flow, &mut report);
        self.check_paths(flow, &mut report);
        self.check_quality(flow, &mut report);
        report
    }

    /// Invariant 1: exactly one instance per required service, no extras,
    /// each hosted on a live node that really offers the service.
    fn check_selection(&self, flow: &FlowGraph, report: &mut InvariantReport) {
        let required: BTreeSet<ServiceId> = self.req.services().into_iter().collect();
        for &sid in &required {
            if !flow.selection().contains_key(&sid) {
                report
                    .violations
                    .push(Violation::MissingInstance { service: sid });
            }
        }
        for (&sid, &node) in flow.selection() {
            if !required.contains(&sid) {
                report
                    .violations
                    .push(Violation::ExtraInstance { service: sid });
                continue;
            }
            if !self.ctx.overlay().is_live(node) {
                report
                    .violations
                    .push(Violation::FailedInstance { service: sid, node });
            }
            let hosts = self.ctx.overlay().instance(node).service;
            if hosts != sid {
                report.violations.push(Violation::WrongService {
                    service: sid,
                    node,
                    hosts,
                });
            }
        }
    }

    /// Invariant 2: one stream per requirement edge; the streams are acyclic.
    fn check_streams(&self, flow: &FlowGraph, report: &mut InvariantReport) {
        let mut counts: BTreeMap<(ServiceId, ServiceId), usize> = BTreeMap::new();
        for (from, to) in self.req.edges() {
            counts.insert((from, to), 0);
        }
        for e in flow.edges() {
            *counts.entry((e.from, e.to)).or_insert(0) += 1;
        }
        for ((from, to), count) in counts {
            if count != 1 {
                report
                    .violations
                    .push(Violation::StreamMismatch { from, to, count });
            }
        }
        if has_cycle(flow) {
            report.violations.push(Violation::CyclicStreams);
        }
    }

    /// Invariants 3–4: every stream's path joins its endpoints over existing
    /// links, and the reported QoS matches the true path QoS.
    fn check_paths(&self, flow: &FlowGraph, report: &mut InvariantReport) {
        let g = self.ctx.overlay().graph();
        for e in flow.edges() {
            let p = &e.overlay_path;
            let joins = if e.from_node == e.to_node {
                p.as_slice() == [e.from_node]
            } else {
                p.len() >= 2 && p[0] == e.from_node && *p.last().unwrap() == e.to_node
            };
            if !joins {
                report.violations.push(Violation::PathEndpoints {
                    from: e.from,
                    to: e.to,
                });
                continue;
            }
            // Walk the real links. Overlay service links are simple (one
            // link per ordered node pair), so per hop the path contributes
            // that link's bandwidth to the bottleneck and its latency to the
            // sum. A hop with no link at all is the hard failure.
            let mut actual = Qos::IDENTITY;
            let mut broken = false;
            for hop in p.windows(2) {
                let mut best: Option<Qos> = None;
                for link in g.out_edges(hop[0]) {
                    if link.to == hop[1] {
                        let q = *link.weight;
                        best = Some(match best {
                            Some(b) if b.cmp_shortest_widest(&q).is_ge() => b,
                            _ => q,
                        });
                    }
                }
                match best {
                    Some(q) => actual = actual.then(q),
                    None => {
                        report.violations.push(Violation::MissingLink {
                            from: e.from,
                            to: e.to,
                            hop_from: hop[0],
                            hop_to: hop[1],
                        });
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                continue;
            }
            if actual.bandwidth != e.qos.bandwidth {
                report.violations.push(Violation::BandwidthMismatch {
                    from: e.from,
                    to: e.to,
                    reported: e.qos.bandwidth,
                    actual: actual.bandwidth,
                });
            }
            if actual.latency != e.qos.latency {
                report.violations.push(Violation::LatencyMismatch {
                    from: e.from,
                    to: e.to,
                    reported: e.qos.latency,
                    actual: actual.latency,
                });
            }
        }
    }

    /// Invariant 5: the flow quality is consistent with the streams.
    fn check_quality(&self, flow: &FlowGraph, report: &mut InvariantReport) {
        let actual_bw = flow
            .edges()
            .iter()
            .map(|e| e.qos.bandwidth)
            .fold(Bandwidth::INFINITE, Bandwidth::bottleneck);
        if actual_bw != flow.bandwidth() {
            report.violations.push(Violation::QualityBandwidth {
                reported: flow.bandwidth(),
                actual: actual_bw,
            });
        }
        if let Some(actual_lat) = longest_branch(self.req, flow) {
            if actual_lat != flow.latency() {
                report.violations.push(Violation::QualityLatency {
                    reported: flow.latency(),
                    actual: actual_lat,
                });
            }
        }
    }
}

/// Detects a directed cycle among the streams (Kahn's algorithm over the
/// service nodes that appear in streams).
fn has_cycle(flow: &FlowGraph) -> bool {
    let mut indeg: BTreeMap<ServiceId, usize> = BTreeMap::new();
    let mut out: BTreeMap<ServiceId, Vec<ServiceId>> = BTreeMap::new();
    for e in flow.edges() {
        indeg.entry(e.from).or_insert(0);
        *indeg.entry(e.to).or_insert(0) += 1;
        out.entry(e.from).or_default().push(e.to);
    }
    let mut ready: Vec<ServiceId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&s, _)| s)
        .collect();
    let mut seen = 0usize;
    while let Some(s) = ready.pop() {
        seen += 1;
        for &t in out.get(&s).map(Vec::as_slice).unwrap_or(&[]) {
            let d = indeg.get_mut(&t).expect("targets were seeded above");
            *d -= 1;
            if *d == 0 {
                ready.push(t);
            }
        }
    }
    seen != indeg.len()
}

/// Recomputes the longest source→sink branch latency over the requirement
/// DAG with the streams' reported latencies. `None` when a stream is
/// missing (covered by [`Violation::StreamMismatch`] already).
fn longest_branch(req: &ServiceRequirement, flow: &FlowGraph) -> Option<Latency> {
    let mut lat: BTreeMap<(ServiceId, ServiceId), Latency> = BTreeMap::new();
    for e in flow.edges() {
        lat.insert((e.from, e.to), e.qos.latency);
    }
    for pair in req.edges() {
        lat.get(&pair)?;
    }
    // Relax in topological order of the requirement DAG.
    let order = req.topo_order();
    let mut dist: BTreeMap<ServiceId, Option<u64>> = order.iter().map(|&s| (s, None)).collect();
    dist.insert(req.source(), Some(0));
    for &s in &order {
        let Some(d) = dist[&s] else { continue };
        for t in req.downstream(s) {
            let step = lat[&(s, t)].as_micros();
            let cand = d + step;
            let slot = dist.get_mut(&t)?;
            if slot.is_none_or(|cur| cand > cur) {
                *slot = Some(cand);
            }
        }
    }
    req.sinks()
        .iter()
        .filter_map(|s| dist.get(s).copied().flatten())
        .max()
        .map(Latency::from_micros)
        .or(Some(Latency::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{FederationAlgorithm, SflowAlgorithm};
    use crate::fixtures::{diamond_fixture, diamond_requirement, line_fixture};

    fn s(i: u32) -> ServiceId {
        ServiceId::new(i)
    }

    #[test]
    fn solver_answers_audit_clean() {
        let fx = diamond_fixture();
        let ctx = fx.context();
        let req = diamond_requirement();
        let flow = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        let report = FlowGraphAuditor::new(&ctx, &req).audit(&flow);
        assert!(report.is_clean(), "{report}");
        assert!(report.to_string().contains("satisfies"));
    }

    #[test]
    fn line_answer_audits_clean() {
        let fx = line_fixture();
        let ctx = fx.context();
        let req = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let flow = SflowAlgorithm::default().federate(&ctx, &req).unwrap();
        let report = FlowGraphAuditor::new(&ctx, &req).audit(&flow);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn mismatched_requirement_is_caught() {
        // Audit a 3-service answer against a 4-service requirement: the
        // auditor must flag the missing instance and missing stream.
        let fx = line_fixture();
        let ctx = fx.context();
        let small = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let flow = SflowAlgorithm::default().federate(&ctx, &small).unwrap();

        let bigger = ServiceRequirement::path(&[s(0), s(1), s(2), s(3)]).unwrap();
        let report = FlowGraphAuditor::new(&ctx, &bigger).audit(&flow);
        assert!(!report.is_clean());
        assert!(
            report
                .violations
                .contains(&Violation::MissingInstance { service: s(3) }),
            "{report}"
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::StreamMismatch { count: 0, .. })),
            "{report}"
        );
        assert!(report.to_string().contains("violation"));
    }

    #[test]
    fn wrong_requirement_shape_flags_extra_instances() {
        let fx = line_fixture();
        let ctx = fx.context();
        let big = ServiceRequirement::path(&[s(0), s(1), s(2)]).unwrap();
        let flow = SflowAlgorithm::default().federate(&ctx, &big).unwrap();
        let smaller = ServiceRequirement::path(&[s(0), s(1)]).unwrap();
        let report = FlowGraphAuditor::new(&ctx, &smaller).audit(&flow);
        assert!(
            report
                .violations
                .contains(&Violation::ExtraInstance { service: s(2) }),
            "{report}"
        );
    }

    /// An answer found before an instance failed is audited against the
    /// world after it: the failed selection is flagged.
    #[test]
    fn a_failed_selection_is_caught() {
        let fx = diamond_fixture();
        let req = diamond_requirement();
        let flow = SflowAlgorithm::default()
            .federate(&fx.context(), &req)
            .unwrap();
        let victim = flow.selection()[&s(1)];
        let (overlay, changes) = fx.overlay.with_failed(&[fx.overlay.instance(victim)]);
        let (table, _) = fx.all_pairs.patched_with(overlay.graph(), &changes, 1);
        let ctx = FederationContext::new(&overlay, &table, fx.source);
        let report = FlowGraphAuditor::new(&ctx, &req).audit(&flow);
        assert!(
            report.violations.contains(&Violation::FailedInstance {
                service: s(1),
                node: victim,
            }),
            "{report}"
        );
    }
}
