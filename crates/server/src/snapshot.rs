//! Epoch-published world snapshots: a read path that never waits on a
//! rebuild.
//!
//! A [`WorldSnapshot`] is an immutable, `Send + Sync` bundle of everything a
//! solve needs — the overlay, its all-pairs table, the pinned source and the
//! topology epoch — plus the per-epoch [`HopMatrix`] materialised lazily
//! *inside* the snapshot (a `OnceLock`, so concurrent first touches build it
//! at most once and every later solve reuses the `Arc`).
//!
//! [`World::apply`](crate::World::apply) assembles the *next* snapshot
//! entirely off to the side (copy-on-write overlay, routing table patched
//! from the predecessor). The server publishes it inside the load plane
//! that indexes it ([`LoadPlane::snapshot`](crate::LoadPlane::snapshot)):
//! readers load the plane, which clones an `Arc` under a mutex held for a
//! handful of instructions (short, but not lock-free) — no reader ever
//! waits on a rebuild, and a solve runs against its snapshot with **zero
//! shared locks held**. The previous epoch's snapshot stays alive (and
//! solvable) for as long as any in-flight request still holds its `Arc`.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use sflow_core::baseline::HopMatrix;
use sflow_core::{CanonicalKey, FederationContext, FlowGraph, OwnedFederationContext};
use sflow_graph::NodeIx;
use sflow_net::{OverlayGraph, ServiceInstance};
use sflow_routing::AllPairs;

use crate::lock::Lock;
use crate::Algorithm;

/// The identity of one cached solve: the requirement's structural
/// [`CanonicalKey`] plus the solve parameters that shape the answer
/// (algorithm and hop horizon). Everything else a solve depends on — the
/// overlay, its QoS and the routing table — is pinned by the snapshot the
/// cache lives in, and *load* is deliberately excluded: cached flows are
/// revalidated against the live [`LoadPlane`](crate::load::LoadPlane) at
/// hit time instead of being keyed by it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SolveKey {
    /// Structural identity of the requirement (order-insensitive).
    pub requirement: CanonicalKey,
    /// Which federation algorithm solved it.
    pub algorithm: Algorithm,
    /// The hop horizon the solve ran under, if any.
    pub hop_limit: Option<usize>,
}

/// `true` if two flows describe the same federation: same instance
/// selection, same streams over the same overlay paths, same quality.
pub(crate) fn same_flow(a: &FlowGraph, b: &FlowGraph) -> bool {
    a.selection() == b.selection() && a.quality() == b.quality() && a.edges() == b.edges()
}

/// One immutable epoch of the world: overlay + routing table + source pin +
/// epoch number, with the epoch's hop matrix built lazily on first use.
#[derive(Debug)]
pub struct WorldSnapshot {
    overlay: Arc<OverlayGraph>,
    all_pairs: Arc<AllPairs>,
    source: ServiceInstance,
    source_node: NodeIx,
    epoch: u64,
    /// The hop matrix for exactly this epoch's overlay, built by the first
    /// solver that needs a horizon and shared by every later one. Lives in
    /// the snapshot itself, so it can never be paired with the wrong epoch
    /// and dies with the snapshot.
    hop_matrix: OnceLock<Arc<HopMatrix>>,
    /// The requirement-keyed solve cache for exactly this epoch: flow
    /// graphs federated against this snapshot, shared by every tenant that
    /// presents the same [`SolveKey`]. The same lives-inside-the-snapshot
    /// reasoning as the hop matrix applies — an entry can never be paired
    /// with the wrong epoch and dies with the snapshot — but the cache is a
    /// keyed map, not a single value, so it sits behind a short `Lock`
    /// (held for a lookup or an insert, never across a solve, which
    /// debug-asserts that no such guard is live).
    /// In the current epoch, a key whose booking holds its `by_key` slot
    /// maps to that booking's own flow `Arc` ([`WorldSnapshot::file_solve`]).
    solves: Lock<BTreeMap<SolveKey, Arc<FlowGraph>>>,
}

impl WorldSnapshot {
    /// Bundles one epoch of the world.
    ///
    /// # Panics
    ///
    /// Panics if `source_node` is not a node of `overlay`.
    pub fn new(
        overlay: Arc<OverlayGraph>,
        all_pairs: Arc<AllPairs>,
        source_node: NodeIx,
        epoch: u64,
    ) -> Self {
        assert!(
            overlay.graph().contains_node(source_node),
            "source instance must be an overlay node"
        );
        let source = overlay.instance(source_node);
        WorldSnapshot {
            overlay,
            all_pairs,
            source,
            source_node,
            epoch,
            hop_matrix: OnceLock::new(),
            solves: Lock::default(),
        }
    }

    /// The topology epoch this snapshot publishes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The overlay of this epoch.
    pub fn overlay(&self) -> &OverlayGraph {
        &self.overlay
    }

    /// The all-pairs shortest-widest table of this epoch.
    pub fn all_pairs(&self) -> &AllPairs {
        &self.all_pairs
    }

    /// The overlay, shared — the load plane's residual view of an empty
    /// ledger, and the graph an epoch's first flush clamps from.
    pub fn overlay_arc(&self) -> Arc<OverlayGraph> {
        Arc::clone(&self.overlay)
    }

    /// The routing table, shared — an epoch's residual tables are patched
    /// from this one, when a cold solve asks the load plane for one.
    pub fn all_pairs_arc(&self) -> Arc<AllPairs> {
        Arc::clone(&self.all_pairs)
    }

    /// The pinned source instance (survives every mutation).
    pub fn source(&self) -> ServiceInstance {
        self.source
    }

    /// The source's overlay node *in this epoch's numbering*.
    pub fn source_node(&self) -> NodeIx {
        self.source_node
    }

    /// An owned federation context sharing this snapshot's overlay and
    /// table. The context is `'static` and `Send + Sync`: the solve it
    /// feeds runs detached from any lock, against exactly this epoch.
    pub fn context(&self) -> OwnedFederationContext {
        FederationContext::from_arcs(
            Arc::clone(&self.overlay),
            Arc::clone(&self.all_pairs),
            self.source_node,
        )
    }

    /// This epoch's hop matrix, built on first touch and shared afterwards.
    pub fn hop_matrix(&self) -> Arc<HopMatrix> {
        self.hop_matrix_tracked().0
    }

    /// Like [`WorldSnapshot::hop_matrix`], but also reports whether *this*
    /// call performed the build (`true` for exactly one caller per epoch,
    /// however many race on the first touch) — the servers' cache-hit/miss
    /// accounting without a side cache to tag.
    pub fn hop_matrix_tracked(&self) -> (Arc<HopMatrix>, bool) {
        let mut built = false;
        let matrix = self.hop_matrix.get_or_init(|| {
            built = true;
            Arc::new(HopMatrix::new(&self.overlay))
        });
        (Arc::clone(matrix), built)
    }

    /// The hop matrix if some solve already built (or a mutation carried)
    /// it; `None` before the epoch's first touch.
    pub fn cached_hop_matrix(&self) -> Option<Arc<HopMatrix>> {
        self.hop_matrix.get().map(Arc::clone)
    }

    /// Pre-seeds the hop matrix, used when assembling the successor of a
    /// QoS-only mutation: hop counts are purely structural, so the
    /// predecessor's matrix is still exact and first-touch cost is saved.
    /// A no-op if this snapshot already built its own.
    pub fn adopt_hop_matrix(&self, matrix: Arc<HopMatrix>) {
        let _ = self.hop_matrix.set(matrix);
    }

    /// The cached solve for `key`, if some earlier federate against this
    /// snapshot filled it, or a repair or migration filed it. A new epoch's
    /// cache starts empty: nothing is carried over from its predecessor.
    ///
    /// A hit is exact w.r.t. topology and QoS by construction — the cache
    /// lives inside one epoch — but says nothing about *load*: callers on
    /// the residual path must revalidate the flow against the live
    /// `LoadPlane` before serving it.
    pub fn cached_solve(&self, key: &SolveKey) -> Option<Arc<FlowGraph>> {
        self.solves.lock().get(key).map(Arc::clone)
    }

    /// Files a freshly solved flow under `key` and returns the canonical
    /// shared instance: if a racing filler got there first, *its* flow wins
    /// and the argument is dropped, so every tenant of the key federates
    /// onto one pointer-identical flow graph (the forest layer's anchor).
    pub fn cache_solve(&self, key: SolveKey, flow: FlowGraph) -> Arc<FlowGraph> {
        Arc::clone(
            self.solves
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::new(flow)),
        )
    }

    /// Files `flow` under `key` for the booking that holds the key's
    /// `by_key` slot, and returns the `Arc` that booking must hold: an entry
    /// describing the same federation ([`same_flow`]) is kept, `Arc` and
    /// all — the fill the booking was founded on, or a racing cold solve's
    /// — and any other entry is replaced. Unlike
    /// [`WorldSnapshot::cache_solve`] the last writer wins: callers hold the
    /// sessions lock and the key's slot, so their flow is the one the key's
    /// next tenant must attach to. The cache's mutex is a leaf lock, so
    /// taking it under the sessions lock cannot deadlock.
    pub(crate) fn file_solve(&self, key: &SolveKey, flow: Arc<FlowGraph>) -> Arc<FlowGraph> {
        let mut solves = self.solves.lock();
        match solves.get(key) {
            Some(cached) if Arc::ptr_eq(cached, &flow) || same_flow(cached, &flow) => {
                Arc::clone(cached)
            }
            _ => {
                solves.insert(key.clone(), Arc::clone(&flow));
                flow
            }
        }
    }

    /// Drops the cached solve for `key`, if any. Used when a served flow
    /// turns out to be inconsistent with live state (e.g. its forest was
    /// torn down between lookup and admission).
    pub fn evict_solve(&self, key: &SolveKey) {
        self.solves.lock().remove(key);
    }

    /// Drops `key`'s entry only if it is still `flow`, the one that failed
    /// revalidation: an entry some booking filed since the lookup stays.
    pub(crate) fn evict_refused(&self, key: &SolveKey, flow: &Arc<FlowGraph>) {
        let mut solves = self.solves.lock();
        if solves
            .get(key)
            .is_some_and(|cached| Arc::ptr_eq(cached, flow))
        {
            solves.remove(key);
        }
    }

    /// Entries currently cached (tests and stats gauges).
    pub fn cached_solve_count(&self) -> usize {
        self.solves.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_core::fixtures::{diamond_fixture, diamond_requirement};
    use sflow_core::Solver;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn snapshot_of_diamond() -> WorldSnapshot {
        let fx = diamond_fixture();
        WorldSnapshot::new(Arc::new(fx.overlay), Arc::new(fx.all_pairs), fx.source, 0)
    }

    /// Satellite regression: concurrent first-touch solves build the hop
    /// matrix at most once per epoch, and all of them share the one build.
    #[test]
    fn concurrent_first_touches_build_the_hop_matrix_at_most_once() {
        for _ in 0..20 {
            let snap = Arc::new(snapshot_of_diamond());
            let builds = Arc::new(AtomicUsize::new(0));
            let matrices: Vec<Arc<HopMatrix>> = (0..8)
                .map(|_| {
                    let snap = Arc::clone(&snap);
                    let builds = Arc::clone(&builds);
                    thread::spawn(move || {
                        let (matrix, built) = snap.hop_matrix_tracked();
                        if built {
                            builds.fetch_add(1, Ordering::SeqCst);
                        }
                        matrix
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            assert_eq!(
                builds.load(Ordering::SeqCst),
                1,
                "exactly one thread may build per epoch"
            );
            for m in &matrices {
                assert!(Arc::ptr_eq(m, &matrices[0]), "all callers share one matrix");
            }
        }
    }

    #[test]
    fn adopted_matrices_preempt_the_first_touch() {
        let a = snapshot_of_diamond();
        let (built_matrix, built) = a.hop_matrix_tracked();
        assert!(built);
        let b = snapshot_of_diamond();
        b.adopt_hop_matrix(Arc::clone(&built_matrix));
        let (reused, built) = b.hop_matrix_tracked();
        assert!(!built, "an adopted matrix satisfies the first touch");
        assert!(Arc::ptr_eq(&reused, &built_matrix));
        // Adoption after the fact is a no-op.
        a.adopt_hop_matrix(Arc::new(HopMatrix::new(a.overlay())));
        assert!(Arc::ptr_eq(&a.hop_matrix(), &built_matrix));
    }

    fn diamond_solve_key() -> (SolveKey, sflow_core::ServiceRequirement) {
        let req = diamond_requirement();
        let key = SolveKey {
            requirement: req.canonical_key(),
            algorithm: Algorithm::Sflow,
            hop_limit: None,
        };
        (key, req)
    }

    #[test]
    fn solve_cache_first_writer_wins_and_eviction_clears() {
        let snap = snapshot_of_diamond();
        let (key, req) = diamond_solve_key();
        assert!(snap.cached_solve(&key).is_none());
        assert_eq!(snap.cached_solve_count(), 0);

        let flow = Solver::new(&snap.context()).solve(&req).unwrap();
        let first = snap.cache_solve(key.clone(), flow.clone());
        let racer = snap.cache_solve(key.clone(), flow);
        assert!(
            Arc::ptr_eq(&first, &racer),
            "a racing filler adopts the first writer's flow"
        );
        let hit = snap.cached_solve(&key).expect("filled");
        assert!(Arc::ptr_eq(&hit, &first), "hits share the canonical arc");
        assert_eq!(snap.cached_solve_count(), 1);

        snap.evict_solve(&key);
        assert!(snap.cached_solve(&key).is_none());
        assert_eq!(snap.cached_solve_count(), 0);
        snap.evict_solve(&key); // eviction of a missing key is a no-op
    }
}
