//! The server's world: a mutator that grows a chain of immutable snapshots.
//!
//! A [`World`] no longer *is* the topology — it is the thing that builds the
//! next [`WorldSnapshot`] and holds the current one as a plain `Arc`.
//! Mutations assemble the successor epoch copy-on-write — a patched clone
//! of the overlay and a routing table derived from the predecessor's — and
//! replace the `Arc`; only [`World::apply`], through `&mut self`, can. The
//! epoch is carried by the snapshots themselves: 0 at birth, +1 per applied
//! mutation.
//!
//! The server's readers never touch the `World` (or the lock it sits
//! behind): the one published world is the load plane, which carries the
//! snapshot it indexes ([`LoadPlane::snapshot`](crate::LoadPlane::snapshot)),
//! and a mutation publishes its successor by rebasing that plane.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sflow_core::fixtures::Fixture;
use sflow_core::OwnedFederationContext;
use sflow_net::{ServiceInstance, UnderlyingNetwork};
use sflow_routing::{Bandwidth, Latency, Qos};

use crate::snapshot::WorldSnapshot;
use crate::Mutation;

/// A mutation that could not be applied; the published snapshot is left
/// untouched and the epoch is not bumped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldError {
    /// The named instance is not (or no longer) in the overlay.
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
/// `SetLinkQos` goes through the incremental
/// [`AllPairs::patched_with`](sflow_routing::AllPairs::patched_with) path, so
/// `trees_recomputed` is typically far below `trees_total`, and the patch
/// only plans: the trees it invalidates are swept when a solve first reads
/// their rows. Instance failures renumber the overlay and force a full
/// parallel rebuild.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Wall-clock spent rebuilding or patching (planning) the routing table.
    pub duration: Duration,
    /// Source trees rebuilt, or for a patch the materialised trees it
    /// invalidated.
    pub trees_recomputed: u64,
    /// Source trees in the table (== overlay instances).
    pub trees_total: u64,
    /// `true` if the whole table was rebuilt (structural mutation).
    pub full_rebuild: bool,
}

/// The mutator side of a snapshot-published world.
///
/// Owns the underlying physical network and the current [`WorldSnapshot`];
/// everything topological lives in the snapshot. Only [`World::apply`]
/// replaces it, and that takes `&mut self`, so epochs advance only through
/// a mutation, one at a time, by borrow.
#[derive(Debug)]
pub struct World {
    net: UnderlyingNetwork,
    current: Arc<WorldSnapshot>,
    /// Worker threads for routing rebuilds/patches; 0 = auto-size.
    route_workers: usize,
}

impl World {
    /// Adopts a fixture as the world, publishing its topology at epoch 0
    /// (auto-sized routing pool).
    pub fn new(fixture: Fixture) -> Self {
        let first = WorldSnapshot::new(
            Arc::new(fixture.overlay),
            Arc::new(fixture.all_pairs),
            fixture.source,
            0,
        );
        World {
            net: fixture.net,
            current: Arc::new(first),
            route_workers: 0,
        }
    }

    /// Sets the routing worker-pool size used by full rebuilds (`0` =
    /// auto-size from `available_parallelism`); a patch only plans.
    pub fn set_route_workers(&mut self, workers: usize) {
        self.route_workers = workers;
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> Arc<WorldSnapshot> {
        Arc::clone(&self.current)
    }

    /// An owned federation context over the current snapshot.
    pub fn context(&self) -> OwnedFederationContext {
        self.snapshot().context()
    }

    /// The underlying physical network (unchanged by overlay mutations).
    pub fn net(&self) -> &UnderlyingNetwork {
        &self.net
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
    /// a patched overlay clone plus a routing table derived from the
    /// predecessor's ([`AllPairs::patched_with`](sflow_routing::AllPairs::patched_with)
    /// for link-QoS changes, full parallel rebuild for structural ones) —
    /// and makes it current. Holders of the predecessor keep solving
    /// against it for as long as they hold it; the server publishes the
    /// successor to its readers with the ledger rebased onto it (the session
    /// table's repair copy-out). QoS-only successors adopt the predecessor's hop
    /// matrix (hop counts are structural), so the per-epoch cache survives
    /// non-structural churn for free.
    ///
    /// # Errors
    ///
    /// Returns a [`WorldError`] (and publishes nothing) if the mutation
    /// names an unknown instance or link, or would fail the source.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<RebuildStats, WorldError> {
        let prev = self.snapshot();
        let (next, stats) = match *mutation {
            Mutation::SetLinkQos {
                from,
                to,
                bandwidth_kbps,
                latency_us,
            } => {
                let f = prev
                    .overlay()
                    .node_of(from)
                    .ok_or(WorldError::UnknownInstance(from))?;
                let t = prev
                    .overlay()
                    .node_of(to)
                    .ok_or(WorldError::UnknownInstance(to))?;
                let qos = Qos::new(
                    Bandwidth::kbps(bandwidth_kbps),
                    Latency::from_micros(latency_us),
                );
                let (overlay, change) = prev
                    .overlay()
                    .with_link_qos(f, t, qos)
                    .ok_or(WorldError::NoSuchLink(from, to))?;
                // The successor keeps the node set, so its table derives
                // incrementally from the predecessor's: only trees the
                // change can affect are invalidated (and swept on first
                // read), the rest are shared work carried across the epoch.
                let started = Instant::now();
                let (table, patched) =
                    prev.all_pairs()
                        .patched_with(overlay.graph(), &[change], self.route_workers);
                let stats = RebuildStats {
                    duration: started.elapsed(),
                    trees_recomputed: patched.trees_recomputed as u64,
                    trees_total: patched.trees_total as u64,
                    full_rebuild: patched.full_rebuild,
                };
                let next = WorldSnapshot::new(
                    Arc::new(overlay),
                    Arc::new(table),
                    prev.source_node(),
                    prev.epoch() + 1,
                );
                // QoS changes do not move nodes or edges, so the hop
                // matrix (pure structure) is carried forward verbatim.
                if let Some(matrix) = prev.cached_hop_matrix() {
                    next.adopt_hop_matrix(matrix);
                }
                // The solve cache starts empty; the repair sweep files every
                // live booking's flow under its key.
                (next, stats)
            }
            Mutation::FailInstance { instance } => {
                if instance == prev.source() {
                    return Err(WorldError::SourceUnfailable(instance));
                }
                if prev.overlay().node_of(instance).is_none() {
                    return Err(WorldError::UnknownInstance(instance));
                }
                // Failure rebuilds the overlay and renumbers its nodes; the
                // source must be re-resolved by identity, the routing table
                // rebuilt from scratch (on the worker pool), and the hop
                // matrix left for the successor's first touch.
                let overlay = prev.overlay().without_instances(&[instance]);
                #[expect(
                    clippy::expect_used,
                    reason = "failing a non-source instance cannot remove the source"
                )]
                let source_node = overlay
                    .node_of(prev.source())
                    .expect("source survives non-source failure");
                let started = Instant::now();
                let table = overlay.all_pairs_parallel_with(self.route_workers);
                let trees = table.len() as u64;
                let stats = RebuildStats {
                    duration: started.elapsed(),
                    trees_recomputed: trees,
                    trees_total: trees,
                    full_rebuild: true,
                };
                let next = WorldSnapshot::new(
                    Arc::new(overlay),
                    Arc::new(table),
                    source_node,
                    prev.epoch() + 1,
                );
                (next, stats)
            }
        };
        self.current = Arc::new(next);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_core::algorithms::{FederationAlgorithm, SflowAlgorithm};
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement};
    use sflow_net::{HostId, ServiceId};

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
            "structural mutations start the hop cache cold"
        );
    }
}
