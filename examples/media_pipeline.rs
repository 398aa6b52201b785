//! A media-delivery federation: the workload family that motivated service
//! composition in the first place (the paper's intro cites transcoding and
//! streaming), extended to a DAG the older path-based systems cannot
//! express.
//!
//! Pipeline: an origin server's stream is demuxed; video and audio are
//! transcoded *in parallel* on different nodes; a subtitle service taps the
//! demuxer output too; everything re-muxes before hitting the edge cache
//! that serves the viewer.
//!
//! The example contrasts the DAG federation against forcing the pipeline
//! through a single sequential service path, quantifying the latency the
//! parallel branches save — the paper's core argument for the flow-graph
//! model.
//!
//! ```text
//! cargo run --example media_pipeline
//! ```

#![expect(clippy::print_stdout)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sflow::core::algorithms::{
    sequential_latency, FederationAlgorithm, ServicePathAlgorithm, SflowAlgorithm,
};
use sflow::net::topology::{self, LinkProfile};
use sflow::sim::{run_distributed, SimConfig};
use sflow::{
    Compatibility, FederationContext, OverlayGraph, Placement, ServiceId, ServiceRequirement,
};

const ORIGIN: ServiceId = ServiceId::new(0);
const DEMUX: ServiceId = ServiceId::new(1);
const VIDEO_TRANSCODE: ServiceId = ServiceId::new(2);
const AUDIO_TRANSCODE: ServiceId = ServiceId::new(3);
const SUBTITLES: ServiceId = ServiceId::new(4);
const MUX: ServiceId = ServiceId::new(5);
const EDGE_CACHE: ServiceId = ServiceId::new(6);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let services = [
        ORIGIN,
        DEMUX,
        VIDEO_TRANSCODE,
        AUDIO_TRANSCODE,
        SUBTITLES,
        MUX,
        EDGE_CACHE,
    ];
    // A 30-host access network; three replicas of every processing service.
    let mut rng = StdRng::seed_from_u64(42);
    let profile = LinkProfile::new(200..=2_000, 2_000..=15_000);
    let net = topology::waxman(30, 0.25, 0.3, &profile, &mut rng);
    let placement = Placement::random(&net, &services, 3, &mut rng);
    let overlay = OverlayGraph::build(&net, &placement, &Compatibility::universal())?;
    let all_pairs = overlay.all_pairs();
    let source = overlay.instances_of(ORIGIN)[0];
    let ctx = FederationContext::new(&overlay, &all_pairs, source);

    // The DAG: demux splits the stream, transcoders and subtitles work in
    // parallel, mux merges, cache delivers.
    let req = ServiceRequirement::from_edges([
        (ORIGIN, DEMUX),
        (DEMUX, VIDEO_TRANSCODE),
        (DEMUX, AUDIO_TRANSCODE),
        (DEMUX, SUBTITLES),
        (VIDEO_TRANSCODE, MUX),
        (AUDIO_TRANSCODE, MUX),
        (SUBTITLES, MUX),
        (MUX, EDGE_CACHE),
    ])?;
    println!("requirement: {req}  (shape: {:?})", req.shape());

    // Parallel federation with sFlow.
    let flow = SflowAlgorithm::default().federate(&ctx, &req)?;
    println!("\nsFlow federation:\n{flow}");

    // What a path-only composer must do with the same request: serialize it.
    match ServicePathAlgorithm.federate(&ctx, &req) {
        Ok(path_flow) => {
            let seq =
                sequential_latency(&ctx, &req, &path_flow).expect("sequential chain is connected");
            println!("single-service-path (sequential) latency: {seq}");
            println!(
                "parallel (sFlow) end-to-end latency:      {}",
                flow.latency()
            );
            let speedup = seq.as_micros() as f64 / flow.latency().as_micros().max(1) as f64;
            println!("parallelism speedup: {speedup:.2}×");
        }
        Err(e) => println!("single-service-path composer failed outright: {e}"),
    }

    // The same federation, but actually executed by the distributed
    // protocol — message counts tell the deployment story.
    let outcome = run_distributed(&ctx, &req, &SimConfig::default())?;
    println!(
        "\ndistributed run: {} messages, {} bytes, {} local computations, \
         federated in {} µs of simulated time",
        outcome.stats.messages,
        outcome.stats.bytes,
        outcome.stats.computations,
        outcome.stats.duration_us
    );
    assert_eq!(outcome.flow.selection().len(), req.len());
    Ok(())
}
