//! The `sflow` binary's flag parsing, run as a child process: a flag the
//! command does not read is refused by name, and a mutation that needs a
//! value is not sent with a silent default.

use std::process::{Command, Output};

fn sflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sflow"))
        .args(args)
        .output()
        .expect("the sflow binary runs")
}

/// Runs `args`, which must fail, and returns the error line: the first
/// one on stderr (a refused flag is followed by the usage text, which names
/// every flag).
fn refused(args: &[&str]) -> String {
    let out = sflow(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded:\n{stderr}");
    stderr.lines().next().unwrap_or_default().to_owned()
}

#[test]
fn a_retired_switch_is_refused_by_name() {
    // The address cannot be bound: were `--audit` let through, `serve`
    // would still fail, but on the bind, not on the flag.
    let error = refused(&["serve", "--audit", "--addr", "256.0.0.1:0"]);
    assert!(error.ends_with("--audit"), "{error}");
}

#[test]
fn a_retired_flag_is_refused_by_name() {
    // No routing table is built on a worker pool and one event loop serves
    // every connection, so nothing sizes either; the unbindable address
    // again keeps a let-through flag from passing.
    for flag in ["route-workers", "reactor-threads"] {
        let error = refused(&["serve", &format!("--{flag}"), "2", "--addr", "256.0.0.1:0"]);
        assert!(error.ends_with(&format!("--{flag}")), "{error}");
    }
}

#[test]
fn a_misspelt_flag_is_refused_by_name() {
    let error = refused(&["world", "--host", "5"]);
    assert!(error.ends_with("--host"), "{error}");
    let out = sflow(&["world", "--hosts", "5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn set_link_needs_both_values_and_takes_an_explicit_zero() {
    // The request is built before the connect, so no server is needed.
    let base = ["request", "--addr", "127.0.0.1:9", "--set-link", "0/0>1/5"];
    let error = refused(&[&base[..], &["--latency", "10"]].concat());
    assert!(error.ends_with("--bandwidth"), "{error}");
    let error = refused(&[&base[..], &["--bandwidth", "10"]].concat());
    assert!(error.ends_with("--latency"), "{error}");
    // An explicit zero gets as far as the connect.
    let error = refused(&[&base[..], &["--bandwidth", "0", "--latency", "10"]].concat());
    assert!(error.contains("connect 127.0.0.1:9"), "{error}");
}
