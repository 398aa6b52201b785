//! The shared inputs every federation algorithm operates on.

use std::sync::Arc;

use sflow_graph::NodeIx;
use sflow_net::{OverlayGraph, ServiceInstance};
use sflow_routing::{AllPairs, Qos};

/// How a context holds one of its inputs: borrowed from a surrounding owner
/// (a [`Fixture`](crate::fixtures::Fixture), a simulation world) or shared
/// via `Arc` (an epoch-published snapshot that must outlive any one stack
/// frame). Either way the accessor surface is identical.
#[derive(Clone, Debug)]
enum Slot<'a, T> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T> Slot<'_, T> {
    fn get(&self) -> &T {
        match self {
            Slot::Borrowed(r) => r,
            Slot::Shared(a) => a,
        }
    }
}

/// A [`FederationContext`] that owns (shares) its inputs and can therefore
/// be moved across threads, stored in long-lived state, or dropped after the
/// borrow that produced it is gone. Produced by
/// [`FederationContext::from_arcs`].
pub type OwnedFederationContext = FederationContext<'static>;

/// Everything a federation algorithm needs besides the requirement itself:
/// the overlay, its all-pairs shortest-widest table, and the pinned source
/// instance the consumer delivered the requirement to.
///
/// The all-pairs table corresponds to the link-state knowledge the paper
/// assumes ("based on link states", Sec. 2.2); building it once and sharing
/// it across algorithms keeps experiment comparisons apples-to-apples.
///
/// A context comes in two forms with one API:
///
/// * **borrowed** ([`FederationContext::new`]) — references into an owner
///   such as a fixture; zero-cost, scoped to the owner's lifetime. This is
///   what the sim, workload and test crates use.
/// * **owned** ([`FederationContext::from_arcs`]) — `Arc`-backed, `'static`,
///   `Send + Sync`; a solver holding one runs detached from any lock or
///   owner. This is what a server solving against an immutable world
///   snapshot uses.
#[derive(Clone, Debug)]
pub struct FederationContext<'a> {
    overlay: Slot<'a, OverlayGraph>,
    all_pairs: Slot<'a, AllPairs>,
    source_instance: NodeIx,
}

impl<'a> FederationContext<'a> {
    /// Creates a borrowed context.
    ///
    /// # Panics
    ///
    /// Panics if `source_instance` is not a live node of `overlay`.
    pub fn new(
        overlay: &'a OverlayGraph,
        all_pairs: &'a AllPairs,
        source_instance: NodeIx,
    ) -> Self {
        assert!(
            overlay.graph().contains_node(source_instance) && overlay.is_live(source_instance),
            "source instance must be an overlay node, and live"
        );
        FederationContext {
            overlay: Slot::Borrowed(overlay),
            all_pairs: Slot::Borrowed(all_pairs),
            source_instance,
        }
    }

    /// Creates an owned (`Arc`-backed, `'static`) context sharing the given
    /// inputs. The result is `Send + Sync` and independent of any borrow,
    /// so a solve can run without holding a lock on whatever published the
    /// overlay.
    ///
    /// # Panics
    ///
    /// Panics if `source_instance` is not a live node of `overlay`.
    pub fn from_arcs(
        overlay: Arc<OverlayGraph>,
        all_pairs: Arc<AllPairs>,
        source_instance: NodeIx,
    ) -> OwnedFederationContext {
        assert!(
            overlay.graph().contains_node(source_instance) && overlay.is_live(source_instance),
            "source instance must be an overlay node, and live"
        );
        FederationContext {
            overlay: Slot::Shared(overlay),
            all_pairs: Slot::Shared(all_pairs),
            source_instance,
        }
    }

    /// The overlay graph.
    pub fn overlay(&self) -> &OverlayGraph {
        self.overlay.get()
    }

    /// All-pairs shortest-widest paths over the overlay.
    pub fn all_pairs(&self) -> &AllPairs {
        self.all_pairs.get()
    }

    /// The overlay node the consumer delivered the requirement to.
    pub fn source_instance(&self) -> NodeIx {
        self.source_instance
    }

    /// The source instance's (service, host) pair.
    pub fn source(&self) -> ServiceInstance {
        self.overlay().instance(self.source_instance)
    }

    /// Shortest-widest QoS between two overlay instances (`None` if
    /// disconnected).
    pub fn qos(&self, from: NodeIx, to: NodeIx) -> Option<Qos> {
        if from == to {
            Some(Qos::IDENTITY)
        } else {
            self.all_pairs().qos(from, to)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sflow_net::{Compatibility, Placement, ServiceId, UnderlyingNetwork};
    use sflow_routing::{Bandwidth, Latency};

    fn tiny_world() -> (OverlayGraph, AllPairs) {
        let mut b = UnderlyingNetwork::builder();
        let h = b.add_hosts(2);
        b.link(
            h[0],
            h[1],
            Qos::new(Bandwidth::kbps(5), Latency::from_micros(1)),
        );
        let net = b.build();
        let mut p = Placement::new();
        let s0 = ServiceId::new(0);
        let s1 = ServiceId::new(1);
        p.add(ServiceInstance::new(s0, h[0]));
        p.add(ServiceInstance::new(s1, h[1]));
        let ov = OverlayGraph::build(&net, &p, &Compatibility::from_pairs([(s0, s1)])).unwrap();
        let ap = ov.all_pairs();
        (ov, ap)
    }

    #[test]
    fn context_exposes_source() {
        let (ov, ap) = tiny_world();
        let s0 = ServiceId::new(0);
        let s1 = ServiceId::new(1);
        let src = ov.instances_of(s0)[0];
        let dst = ov.instances_of(s1)[0];
        let ctx = FederationContext::new(&ov, &ap, src);
        assert_eq!(ctx.source().service, s0);
        assert_eq!(ctx.source_instance(), src);
        assert_eq!(
            ctx.qos(src, dst),
            Some(Qos::new(Bandwidth::kbps(5), Latency::from_micros(1)))
        );
        assert_eq!(ctx.qos(src, src), Some(Qos::IDENTITY));
    }

    #[test]
    fn owned_context_outlives_its_construction_scope_and_crosses_threads() {
        let (ov, ap) = tiny_world();
        let src = ov.instances_of(ServiceId::new(0))[0];
        let dst = ov.instances_of(ServiceId::new(1))[0];
        let ctx: OwnedFederationContext =
            FederationContext::from_arcs(Arc::new(ov), Arc::new(ap), src);
        // The borrowed inputs are gone; the owned context still answers.
        let moved = std::thread::spawn(move || ctx.qos(src, dst))
            .join()
            .unwrap();
        assert_eq!(
            moved,
            Some(Qos::new(Bandwidth::kbps(5), Latency::from_micros(1)))
        );
    }

    #[test]
    fn owned_and_borrowed_contexts_answer_identically() {
        let (ov, ap) = tiny_world();
        let src = ov.instances_of(ServiceId::new(0))[0];
        let dst = ov.instances_of(ServiceId::new(1))[0];
        let borrowed = FederationContext::new(&ov, &ap, src);
        let owned = FederationContext::from_arcs(Arc::new(ov.clone()), Arc::new(ap.clone()), src);
        assert_eq!(borrowed.qos(src, dst), owned.qos(src, dst));
        assert_eq!(borrowed.source(), owned.source());
        assert_eq!(borrowed.source_instance(), owned.source_instance());
    }

    #[test]
    #[should_panic(expected = "source instance must be an overlay node")]
    fn owned_constructor_validates_the_source() {
        let (ov, ap) = tiny_world();
        let bogus = NodeIx::from_index(99);
        let _ = FederationContext::from_arcs(Arc::new(ov), Arc::new(ap), bogus);
    }
}
