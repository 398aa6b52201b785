//! The server's world: a mutator that grows a chain of immutable snapshots.
//!
//! A [`World`] no longer *is* the topology — it is the thing that builds the
//! next [`WorldSnapshot`] and holds the current one as a plain `Arc`.
//! Mutations assemble the successor epoch copy-on-write — an overlay that
//! shares the predecessor's topology and copies only its weights, and a
//! routing table patched from the predecessor's — and replace the `Arc`;
//! only [`World::apply`], through `&mut self`, can. The epoch is carried
//! by the snapshots themselves: 0 at birth, +1 per applied mutation. No
//! mutation renumbers the overlay: a failed instance is a tombstone whose
//! links are cut, so every node and edge, the source's included, keeps
//! its number across every epoch.
//!
//! The server's readers never touch the `World` (or the lock it sits
//! behind): the one published world is the load plane, which carries the
//! snapshot it indexes ([`LoadPlane::snapshot`](crate::LoadPlane::snapshot)),
//! and a mutation publishes its successor by rebasing that plane.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sflow_core::fixtures::Fixture;
use sflow_core::OwnedFederationContext;
use sflow_net::ServiceInstance;
use sflow_routing::{Bandwidth, Latency, Qos};

use crate::snapshot::WorldSnapshot;
use crate::Mutation;

/// A mutation that could not be applied; the published snapshot is left
/// untouched and the epoch is not bumped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldError {
    /// The named instance is not in the overlay, or has failed.
    UnknownInstance(ServiceInstance),
    /// No service link exists between the two instances.
    NoSuchLink(ServiceInstance, ServiceInstance),
    /// Refusing to fail the pinned source instance — it is the consumer's
    /// entry point, and every context needs it.
    SourceUnfailable(ServiceInstance),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::UnknownInstance(i) => write!(f, "unknown instance {i}"),
            WorldError::NoSuchLink(a, b) => write!(f, "no service link {a} -> {b}"),
            WorldError::SourceUnfailable(i) => {
                write!(f, "cannot fail the source instance {i}")
            }
        }
    }
}

impl std::error::Error for WorldError {}

/// How much routing work one applied mutation cost.
///
/// Every mutation goes through the incremental
/// [`AllPairs::patched_with`](sflow_routing::AllPairs::patched_with) path,
/// which only plans: the trees it invalidates are swept when a solve first
/// reads their rows. A QoS change typically invalidates far fewer than
/// `trees_total`; an instance failure shadows every tree that reaches the
/// failed instance, and a read sweeps only the rows whose answer it moved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Wall-clock spent in the whole [`World::apply`]: the successor
    /// overlay, the routing patch (a plan) and the snapshot around them.
    pub duration: Duration,
    /// Materialised source trees the patch invalidated.
    pub trees_recomputed: u64,
    /// Shadows the patch turned back into trees: a mutation that undoes
    /// the cuts since a shadow's tree was swept returns that tree.
    pub trees_restored: u64,
    /// Source trees in the table (== overlay nodes, failed ones included).
    pub trees_total: u64,
}

/// The mutator side of a snapshot-published world.
///
/// Owns the current [`WorldSnapshot`]; everything topological lives in the
/// snapshot. Only [`World::apply`] replaces it, and that takes `&mut self`,
/// so epochs advance only through a mutation, one at a time, by borrow.
#[derive(Debug)]
pub struct World {
    current: Arc<WorldSnapshot>,
}

impl World {
    /// Adopts a fixture's overlay, table and source as the world,
    /// publishing its topology at epoch 0. The underlay the overlay was
    /// priced from is dropped: no mutation reads it.
    pub fn new(fixture: Fixture) -> Self {
        let first = WorldSnapshot::new(
            Arc::new(fixture.overlay),
            Arc::new(fixture.all_pairs),
            fixture.source,
            0,
        );
        World {
            current: Arc::new(first),
        }
    }

    /// Does nothing: no table is built on a worker pool, and a mutation's
    /// patch only plans. Kept for the callers that still size one.
    pub fn set_route_workers(&mut self, _workers: usize) {}

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<WorldSnapshot> {
        Arc::clone(&self.current)
    }

    /// An owned federation context over the current snapshot.
    pub fn context(&self) -> OwnedFederationContext {
        self.snapshot().context()
    }

    /// The pinned source instance (survives every mutation).
    pub fn source(&self) -> ServiceInstance {
        self.snapshot().source()
    }

    /// The topology epoch: 0 at birth, +1 per applied mutation.
    pub fn epoch(&self) -> u64 {
        self.current.epoch()
    }

    /// Applies one mutation: builds the successor snapshot copy-on-write —
    /// an overlay carrying the new weights on the predecessor's shared
    /// topology, plus a routing table patched from the predecessor's
    /// ([`AllPairs::patched_with`](sflow_routing::AllPairs::patched_with))
    /// — and makes it current. A link-QoS change re-weights one edge; an
    /// instance failure tombstones the instance and cuts its links
    /// ([`OverlayGraph::with_failed`](sflow_net::OverlayGraph::with_failed)).
    /// Either way the node and edge numbering survives, so both share one
    /// tail: one patch, and the source keeps its node. Holders of the
    /// predecessor keep solving against it for as long as they hold it; the
    /// server publishes the successor to its readers with the ledger rebased
    /// onto it (the session table's repair copy-out). A QoS change adopts
    /// the predecessor's hop matrix (hop counts are structural); after a
    /// failure it starts cold, as the failed instance may have been a relay.
    ///
    /// # Errors
    ///
    /// Returns a [`WorldError`] (and publishes nothing) if the mutation
    /// names an unknown or failed instance or an unknown link, or would
    /// fail the source.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<RebuildStats, WorldError> {
        let started = Instant::now();
        let prev = self.snapshot();
        let live = |instance| {
            prev.overlay()
                .node_of(instance)
                .ok_or(WorldError::UnknownInstance(instance))
        };
        let (overlay, changes) = match *mutation {
            Mutation::SetLinkQos {
                from,
                to,
                bandwidth_kbps,
                latency_us,
            } => {
                let qos = Qos::new(
                    Bandwidth::kbps(bandwidth_kbps),
                    Latency::from_micros(latency_us),
                );
                let (overlay, change) = prev
                    .overlay()
                    .with_link_qos(live(from)?, live(to)?, qos)
                    .ok_or(WorldError::NoSuchLink(from, to))?;
                (overlay, vec![change])
            }
            Mutation::FailInstance { instance } => {
                if instance == prev.source() {
                    return Err(WorldError::SourceUnfailable(instance));
                }
                live(instance)?;
                prev.overlay().with_failed(&[instance])
            }
        };
        // Only trees the changes can affect are invalidated (and swept on
        // first read); the rest are shared work carried across the epoch.
        let (table, patched) = prev.all_pairs().patched_with(overlay.graph(), &changes, 1);
        let next = WorldSnapshot::new(
            Arc::new(overlay),
            Arc::new(table),
            prev.source_node(),
            prev.epoch() + 1,
        );
        // Hop counts are structural, so a QoS change keeps the matrix; a
        // failed instance may have been a relay, so a failure starts cold.
        if let (Mutation::SetLinkQos { .. }, Some(matrix)) = (mutation, prev.cached_hop_matrix()) {
            next.adopt_hop_matrix(matrix);
        }
        // The solve cache starts empty; the repair sweep files every live
        // booking's flow under its key.
        self.current = Arc::new(next);
        Ok(RebuildStats {
            duration: started.elapsed(),
            trees_recomputed: patched.trees_recomputed as u64,
            trees_restored: patched.trees_restored as u64,
            trees_total: patched.trees_total as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement, random_fixture};
    use sflow_graph::NodeIx;
    use sflow_net::{HostId, OverlayGraph, ServiceId};

    fn inst(s: u32, h: u32) -> ServiceInstance {
        ServiceInstance::new(ServiceId::new(s), HostId::new(h))
    }

    #[test]
    fn mutations_bump_the_epoch_and_keep_contexts_solvable() {
        let mut w = World::new(diamond_fixture());
        assert_eq!(w.epoch(), 0);
        let req = diamond_requirement();
        let before = SflowAlgorithm::default()
            .federate(&w.context(), &req)
            .unwrap();

        // Fail the instance the sFlow solution routes through; the solve
        // must still succeed over the degraded world.
        let &victim = before
            .instances()
            .values()
            .find(|i| **i != w.source())
            .unwrap();
        w.apply(&Mutation::FailInstance { instance: victim })
            .unwrap();
        assert_eq!(w.epoch(), 1);
        assert!(w.snapshot().overlay().node_of(victim).is_none());
        let after = SflowAlgorithm::default()
            .federate(&w.context(), &req)
            .unwrap();
        assert!(after.bandwidth() <= before.bandwidth());
    }

    #[test]
    fn bad_mutations_leave_the_world_untouched() {
        let mut w = World::new(diamond_fixture());
        let source = w.source();
        assert_eq!(
            w.apply(&Mutation::FailInstance { instance: source }),
            Err(WorldError::SourceUnfailable(source))
        );
        assert_eq!(
            w.apply(&Mutation::FailInstance {
                instance: inst(9, 9)
            }),
            Err(WorldError::UnknownInstance(inst(9, 9)))
        );
        assert_eq!(w.epoch(), 0);
    }

    #[test]
    fn set_link_qos_requires_an_existing_link() {
        let mut w = World::new(diamond_fixture());
        // The diamond's source feeds both s1 and s2; pick a real link.
        let ctx = w.context();
        let overlay = ctx.overlay();
        let from_node = ctx.source_instance();
        let link = overlay.graph().out_edges(from_node).next().unwrap();
        let from = overlay.instance(link.from);
        let to = overlay.instance(link.to);
        drop(ctx);
        w.apply(&Mutation::SetLinkQos {
            from,
            to,
            bandwidth_kbps: 1,
            latency_us: 99,
        })
        .unwrap();
        assert_eq!(w.epoch(), 1);
        // Reverse direction does not exist in the diamond.
        assert_eq!(
            w.apply(&Mutation::SetLinkQos {
                from: to,
                to: from,
                bandwidth_kbps: 1,
                latency_us: 1,
            }),
            Err(WorldError::NoSuchLink(to, from))
        );
    }

    #[test]
    fn readers_holding_the_old_snapshot_survive_a_mutation() {
        let mut w = World::new(diamond_fixture());
        let held = w.snapshot();
        let req = diamond_requirement();
        let before = SflowAlgorithm::default()
            .federate(&held.context(), &req)
            .unwrap();

        let &victim = before
            .instances()
            .values()
            .find(|i| **i != w.source())
            .unwrap();
        w.apply(&Mutation::FailInstance { instance: victim })
            .unwrap();

        // The held snapshot is the untouched epoch-0 world: same solve,
        // same answer — even though the published world moved on.
        assert_eq!(held.epoch(), 0);
        assert!(held.overlay().node_of(victim).is_some());
        let again = SflowAlgorithm::default()
            .federate(&held.context(), &req)
            .unwrap();
        assert_eq!(again.bandwidth(), before.bandwidth());
        assert_eq!(w.snapshot().epoch(), 1);
    }

    #[test]
    fn qos_mutations_carry_the_hop_matrix_forward_and_failures_do_not() {
        let mut w = World::new(diamond_fixture());
        let first = w.snapshot();
        let (matrix, built) = first.hop_matrix_tracked();
        assert!(built);

        let ctx = first.context();
        let link = ctx
            .overlay()
            .graph()
            .out_edges(ctx.source_instance())
            .next()
            .unwrap();
        let from = ctx.overlay().instance(link.from);
        let to = ctx.overlay().instance(link.to);
        w.apply(&Mutation::SetLinkQos {
            from,
            to,
            bandwidth_kbps: 2,
            latency_us: 40,
        })
        .unwrap();
        let qos_next = w.snapshot();
        let carried = qos_next.cached_hop_matrix().expect("carried forward");
        assert!(Arc::ptr_eq(&carried, &matrix), "QoS keeps the hop matrix");

        let victim = qos_next
            .overlay()
            .graph()
            .node_ids()
            .map(|n| qos_next.overlay().instance(n))
            .find(|i| *i != w.source())
            .unwrap();
        w.apply(&Mutation::FailInstance { instance: victim })
            .unwrap();
        assert!(
            w.snapshot().cached_hop_matrix().is_none(),
            "a failure starts the hop cache cold"
        );
    }

    /// A failure renumbers nothing: every surviving instance and the source
    /// keep their nodes. The failed instance is gone for good — a link at
    /// it cannot be re-weighted back to life, and it cannot fail twice.
    #[test]
    fn a_failure_keeps_every_survivors_node_and_refuses_the_tombstone() {
        let mut w = World::new(diamond_fixture());
        let before = w.snapshot();
        let overlay = before.overlay();
        let victim = overlay.instance(overlay.instances_of(ServiceId::new(1))[0]);
        let survivors: Vec<(ServiceInstance, NodeIx)> = overlay
            .graph()
            .node_ids()
            .map(|n| (overlay.instance(n), n))
            .filter(|&(i, _)| i != victim)
            .collect();
        w.apply(&Mutation::FailInstance { instance: victim })
            .unwrap();
        let after = w.snapshot();
        for &(instance, node) in &survivors {
            assert_eq!(after.overlay().node_of(instance), Some(node), "{instance}");
        }
        assert_eq!(after.source_node(), before.source_node());

        // Every link the victim had, in either direction, is refused.
        let links = overlay.graph().edges().filter_map(|e| {
            let (from, to) = (overlay.instance(e.from), overlay.instance(e.to));
            (from == victim || to == victim).then_some((from, to))
        });
        let mut refused = 0;
        for (from, to) in links {
            assert_eq!(
                w.apply(&Mutation::SetLinkQos {
                    from,
                    to,
                    bandwidth_kbps: 100,
                    latency_us: 1,
                }),
                Err(WorldError::UnknownInstance(victim))
            );
            refused += 1;
        }
        assert!(refused >= 2, "the victim had links both ways");
        assert_eq!(
            w.apply(&Mutation::FailInstance { instance: victim }),
            Err(WorldError::UnknownInstance(victim))
        );
        assert_eq!(w.epoch(), 1);
    }

    /// A latency-only `SetLinkQos` is a degradation: on a fully read world
    /// it shadows exactly the trees that report the link, at any level of
    /// theirs, and its undo, patched onto a copy nobody read, hands every
    /// one of them back by pointer (`trees_restored`). On the world, whose
    /// rows are read whole in between, the undo judges each tree a read
    /// swept alone: a speed-up whose tail every such row reaches, so all
    /// of them are left stale. A booking is re-priced after both, never
    /// re-solved.
    #[test]
    fn a_slow_down_shadows_the_trees_that_report_the_link_and_its_undo_restores_them() {
        let fx = random_fixture(
            30,
            &(0..5).map(ServiceId::new).collect::<Vec<_>>(),
            3,
            None,
            7,
        );
        let mut w = World::new(fx);
        let before = w.snapshot();
        let (overlay, table) = (before.overlay(), before.all_pairs());
        let g = overlay.graph();
        let read_every_row = |table: &sflow_routing::AllPairs| {
            for u in g.node_ids() {
                table.tree(u);
            }
        };
        read_every_row(table);
        // The link the most trees report, and which trees those are.
        let reporting = |edge: sflow_graph::EdgeIx| -> Vec<bool> {
            let mut marked = vec![false; g.edge_count()];
            marked[edge.index()] = true;
            g.node_ids()
                .map(|u| table.tree(u).traverses_any(&marked))
                .collect()
        };
        let count = |flags: &[bool]| flags.iter().filter(|&&f| f).count();
        let link = g
            .edges()
            .max_by_key(|e| count(&reporting(e.id)))
            .expect("a linked overlay");
        let reported = reporting(link.id);
        assert!(count(&reported) > 0);
        let (from, to, old) = (
            overlay.instance(link.from),
            overlay.instance(link.to),
            *link.weight,
        );
        let set = |latency_us| Mutation::SetLinkQos {
            from,
            to,
            bandwidth_kbps: old.bandwidth.as_kbps(),
            latency_us,
        };
        let req: sflow_core::ServiceRequirement = "0>1>2".parse().unwrap();
        let flow = SflowAlgorithm::default()
            .federate(&before.context(), &req)
            .unwrap();
        let repriced = |w: &World| {
            let snapshot = w.snapshot();
            let ctx = snapshot.context();
            sflow_core::repair::repair(&ctx, &req, &flow)
                .unwrap()
                .repriced()
        };

        let slowed_us = old.latency.as_micros() * 2 + 1;
        let slowed = w.apply(&set(slowed_us)).unwrap();
        assert_eq!(slowed.trees_recomputed as usize, count(&reported));
        let after = w.snapshot();
        let shadowed: Vec<bool> = g
            .node_ids()
            .map(|u| after.all_pairs().moved(u).is_some())
            .collect();
        assert_eq!(shadowed, reported);
        // A cloned slot's `OnceLock` is its own: reads of the world's
        // table below leave this copy as the slow-down left it.
        let unread = after.all_pairs().clone();
        assert!(repriced(&w));

        read_every_row(after.all_pairs());
        let undone = w.apply(&set(old.latency.as_micros())).unwrap();
        assert_eq!(undone.trees_restored, 0);
        assert_eq!(undone.trees_recomputed as usize, count(&reported));
        let back = w.snapshot();
        assert_eq!(
            back.all_pairs().shared_trees(table),
            g.node_count() - count(&reported)
        );
        assert!(repriced(&w));

        let undo = sflow_routing::EdgeChange {
            edge: link.id,
            old: Qos::new(old.bandwidth, Latency::from_micros(slowed_us)),
            new: old,
        };
        let (restored, stats) = unread.patched_with(back.overlay().graph(), &[undo], 1);
        assert_eq!(
            (stats.trees_recomputed, stats.trees_restored),
            (0, count(&reported))
        );
        assert_eq!(restored.shared_trees(table), g.node_count());
    }

    /// `apply(FailInstance)` publishes exactly the tombstone lineage: the
    /// predecessor's overlay with the instance failed, and the predecessor's
    /// table patched for that cut — the same weights, the same answers and
    /// the same trees shared by pointer.
    #[test]
    fn a_failure_publishes_the_tombstone_lineages_table() {
        let fx = random_fixture(
            30,
            &(0..5).map(ServiceId::new).collect::<Vec<_>>(),
            3,
            None,
            7,
        );
        let mut w = World::new(fx);
        let before = w.snapshot();
        let victim = before
            .overlay()
            .graph()
            .node_ids()
            .map(|n| before.overlay().instance(n))
            .find(|&i| i != w.source())
            .unwrap();
        let (overlay, cut) = before.overlay().with_failed(&[victim]);
        let (table, _) = before.all_pairs().patched_with(overlay.graph(), &cut, 1);
        w.apply(&Mutation::FailInstance { instance: victim })
            .unwrap();
        let after = w.snapshot();
        let weights = |g: &OverlayGraph| g.graph().edges().map(|e| *e.weight).collect::<Vec<_>>();
        assert_eq!(weights(after.overlay()), weights(&overlay));
        assert_eq!(
            after.all_pairs().shared_trees(before.all_pairs()),
            table.shared_trees(before.all_pairs())
        );
        for u in overlay.graph().node_ids() {
            for v in overlay.graph().node_ids() {
                assert_eq!(after.all_pairs().qos(u, v), table.qos(u, v));
                assert_eq!(after.all_pairs().path(u, v), table.path(u, v));
            }
        }
    }
}
