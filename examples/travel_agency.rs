//! The paper's running example: a travel-agency service federation
//! (Figs. 1–3 and 5 of the paper).
//!
//! A Travel Engine feeds airline, hotel and attraction data through
//! currency-conversion, map and translation services to a travel agency.
//! The example walks through the paper's four requirement forms — a single
//! service path, optional services, disjoint parallel paths and the generic
//! DAG — federating each over the same overlay and comparing the quality of
//! all algorithms.
//!
//! ```text
//! cargo run --example travel_agency
//! ```

#![expect(clippy::print_stdout)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sflow::core::algorithms::{
    FederationAlgorithm, FixedAlgorithm, GlobalOptimalAlgorithm, RandomAlgorithm, SflowAlgorithm,
};
use sflow::core::metrics::correctness_coefficient;
use sflow::net::topology::{self, LinkProfile};
use sflow::{
    Compatibility, FederationContext, OverlayGraph, Placement, ServiceId, ServiceRequirement,
};

// The cast, with the paper's names.
const TRAVEL_ENGINE: ServiceId = ServiceId::new(0);
const AIRLINE: ServiceId = ServiceId::new(1);
const HOTEL: ServiceId = ServiceId::new(2);
const ATTRACTION: ServiceId = ServiceId::new(3);
const CURRENCY: ServiceId = ServiceId::new(4);
const MAP: ServiceId = ServiceId::new(5);
const TRANSLATOR: ServiceId = ServiceId::new(6);
const AGENCY: ServiceId = ServiceId::new(7);

fn name(s: ServiceId) -> &'static str {
    match s.as_u32() {
        0 => "TravelEngine",
        1 => "Airline",
        2 => "Hotel",
        3 => "Attraction",
        4 => "Currency",
        5 => "Map",
        6 => "Translator",
        _ => "AgencyA",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One shared world for all four requirement forms: a 24-host Waxman
    // network with two instances of every intermediate service (two airline
    // companies, two hotel databases, …).
    let services = [
        TRAVEL_ENGINE,
        AIRLINE,
        HOTEL,
        ATTRACTION,
        CURRENCY,
        MAP,
        TRANSLATOR,
        AGENCY,
    ];
    let mut rng = StdRng::seed_from_u64(1977);
    let profile = LinkProfile::new(50..=1000, 1_000..=8_000);
    let net = topology::waxman(24, 0.3, 0.3, &profile, &mut rng);
    let placement = Placement::random(&net, &services, 2, &mut rng);
    // Everything may feed everything downstream here — the requirements
    // constrain the actual flows.
    let overlay = OverlayGraph::build(&net, &placement, &Compatibility::universal())?;
    let all_pairs = overlay.all_pairs();
    let source = overlay.instances_of(TRAVEL_ENGINE)[0];
    let ctx = FederationContext::new(&overlay, &all_pairs, source);
    println!(
        "world: {} hosts, {} overlay instances, {} service links\n",
        net.host_count(),
        overlay.instance_count(),
        overlay.link_count()
    );

    // Fig. 1 — the basic service path: Travel Engine → Hotel → Currency →
    // Agency A.
    let fig1 = ServiceRequirement::path(&[TRAVEL_ENGINE, HOTEL, CURRENCY, AGENCY])?;
    showcase("Fig. 1  service path", &ctx, &fig1);

    // Fig. 2 — optional services: Attraction data flows through either the
    // Map or the Translator. Federate both options; the better one wins.
    let map_option = ServiceRequirement::path(&[TRAVEL_ENGINE, ATTRACTION, MAP, AGENCY])?;
    let translator_option =
        ServiceRequirement::path(&[TRAVEL_ENGINE, ATTRACTION, TRANSLATOR, AGENCY])?;
    let alg = SflowAlgorithm::default();
    let via_map = alg.federate(&ctx, &map_option)?;
    let via_translator = alg.federate(&ctx, &translator_option)?;
    let (label, better) = if via_map.quality().is_better_than(&via_translator.quality()) {
        ("Map", &via_map)
    } else {
        ("Translator", &via_translator)
    };
    println!("Fig. 2  optional services: federating both options");
    println!("  via Map        → {}", via_map.quality());
    println!("  via Translator → {}", via_translator.quality());
    println!("  picked the {label} option: {}\n", better.quality());

    // Fig. 3 — disjoint service paths: airline, hotel and attraction data
    // travel in three parallel streams.
    let fig3 = ServiceRequirement::from_edges([
        (TRAVEL_ENGINE, AIRLINE),
        (AIRLINE, CURRENCY),
        (CURRENCY, AGENCY),
        (TRAVEL_ENGINE, HOTEL),
        (HOTEL, AGENCY),
        (TRAVEL_ENGINE, ATTRACTION),
        (ATTRACTION, MAP),
        (MAP, AGENCY),
    ])?;
    showcase("Fig. 3  disjoint service paths", &ctx, &fig3);

    // Fig. 5 — the generic DAG: hotel results feed both the currency and the
    // map services; the translator consumes attraction and map output; all
    // merge at the agency.
    let fig5 = ServiceRequirement::from_edges([
        (TRAVEL_ENGINE, AIRLINE),
        (TRAVEL_ENGINE, HOTEL),
        (TRAVEL_ENGINE, ATTRACTION),
        (AIRLINE, CURRENCY),
        (HOTEL, CURRENCY),
        (HOTEL, MAP),
        (ATTRACTION, MAP),
        (ATTRACTION, TRANSLATOR),
        (MAP, TRANSLATOR),
        (CURRENCY, AGENCY),
        (TRANSLATOR, AGENCY),
    ])?;
    showcase("Fig. 5  generic DAG requirement", &ctx, &fig5);

    Ok(())
}

/// Federates `req` with every algorithm and prints a comparison.
fn showcase(title: &str, ctx: &FederationContext<'_>, req: &ServiceRequirement) {
    println!(
        "{title}: {} services, {} streams",
        req.len(),
        req.edge_count()
    );
    let opt = GlobalOptimalAlgorithm.federate(ctx, req).ok();
    let algos: [(&str, &dyn FederationAlgorithm); 4] = [
        ("sflow", &SflowAlgorithm::default()),
        ("global-optimal", &GlobalOptimalAlgorithm),
        ("fixed", &FixedAlgorithm),
        ("random", &RandomAlgorithm::with_seed(7)),
    ];
    for (label, alg) in algos {
        match alg.federate(ctx, req) {
            Ok(flow) => {
                let corr = opt
                    .as_ref()
                    .map(|o| format!("{:.2}", correctness_coefficient(&flow, o)))
                    .unwrap_or_else(|| "-".into());
                println!("  {label:<15} {}  correctness {corr}", flow.quality());
                if label == "sflow" {
                    for (sid, inst) in flow.instances() {
                        println!("      {:<12} ← {}", name(*sid), inst);
                    }
                }
            }
            Err(e) => println!("  {label:<15} failed: {e}"),
        }
    }
    println!();
}
