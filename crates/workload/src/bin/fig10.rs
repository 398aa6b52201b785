//! Regenerates the paper's evaluation figures (Fig. 10(a)–(d)), the design
//! ablations and the extension experiments as plain-text tables plus
//! CSV/JSON files.
//!
//! Usage:
//!
//! ```text
//! fig10 [a|b|c|d|ablations|extensions|all]
//!       [--trials N] [--sizes 10,20,30,40,50] [--seed S] [--out DIR]
//! ```

#![forbid(unsafe_code)]
#![expect(clippy::print_stdout, clippy::print_stderr)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use sflow_workload::experiments::{
    ablations, bandwidth, churn, correctness, extensions, latency, timing, SweepConfig,
};
use sflow_workload::table::Table;

struct Args {
    which: String,
    cfg: SweepConfig,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut which = "all".to_string();
    let mut cfg = SweepConfig::default();
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "a" | "b" | "c" | "d" | "ablations" | "extensions" | "all" => which = a,
            "--trials" => {
                let v = argv.next().ok_or("--trials needs a value")?;
                cfg.trials = v.parse().map_err(|_| format!("bad trial count {v}"))?;
            }
            "--sizes" => {
                let v = argv.next().ok_or("--sizes needs a value")?;
                cfg.sizes = v
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad size {s}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                cfg.base_seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                out = Some(PathBuf::from(argv.next().ok_or("--out needs a value")?));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args { which, cfg, out })
}

fn emit<T: serde::Serialize>(table: &Table, rows: &[T], name: &str, out: &Option<PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        match fs::write(&path, table.to_csv()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(rows).expect("rows serialize");
        match fs::write(&path, json) {
            Ok(()) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fig10: {e}");
            eprintln!(
                "usage: fig10 [a|b|c|d|ablations|extensions|all] [--trials N] [--sizes 10,20,...] [--seed S] [--out DIR]"
            );
            return ExitCode::FAILURE;
        }
    };
    let cfg = &args.cfg;
    println!(
        "sweep: sizes {:?}, {} trials/size, {} services × {} instances, seed {}\n",
        cfg.sizes, cfg.trials, cfg.services, cfg.instances_per_service, cfg.base_seed
    );
    if matches!(args.which.as_str(), "a" | "all") {
        let rows = correctness::run(cfg);
        emit(
            &correctness::to_table(&rows),
            &rows,
            "fig10a_correctness",
            &args.out,
        );
    }
    if matches!(args.which.as_str(), "b" | "all") {
        let rows = timing::run(cfg);
        emit(&timing::to_table(&rows), &rows, "fig10b_time", &args.out);
    }
    if matches!(args.which.as_str(), "c" | "all") {
        let rows = latency::run(cfg);
        emit(
            &latency::to_table(&rows),
            &rows,
            "fig10c_latency",
            &args.out,
        );
    }
    if matches!(args.which.as_str(), "d" | "all") {
        let rows = bandwidth::run(cfg);
        emit(
            &bandwidth::to_table(&rows),
            &rows,
            "fig10d_bandwidth",
            &args.out,
        );
    }
    if matches!(args.which.as_str(), "extensions" | "all") {
        let rows = extensions::run_control_plane(cfg);
        emit(
            &extensions::control_plane_table(&rows),
            &rows,
            "ext_control_plane",
            &args.out,
        );
        let rows = extensions::run_agility(cfg);
        emit(
            &extensions::agility_table(&rows),
            &rows,
            "ext_agility",
            &args.out,
        );
        let rows = churn::run(cfg);
        emit(&churn::to_table(&rows), &rows, "ext_churn", &args.out);
    }
    if matches!(args.which.as_str(), "ablations" | "all") {
        let rows = ablations::run_horizon(cfg);
        emit(
            &ablations::horizon_table(&rows),
            &rows,
            "ablation_horizon",
            &args.out,
        );
        let rows = ablations::run_routing_policy(cfg);
        emit(
            &ablations::routing_policy_table(&rows),
            &rows,
            "ablation_routing",
            &args.out,
        );
        let rows = ablations::run_reductions(cfg);
        emit(
            &ablations::reductions_table(&rows),
            &rows,
            "ablation_reductions",
            &args.out,
        );
        let rows = ablations::run_view_model(cfg);
        emit(
            &ablations::view_model_table(&rows),
            &rows,
            "ablation_view_model",
            &args.out,
        );
        let rows = ablations::run_topology(cfg);
        emit(
            &ablations::topology_table(&rows),
            &rows,
            "ablation_topology",
            &args.out,
        );
    }
    ExitCode::SUCCESS
}
