//! Rule-engine tests over synthetic sources, cross-file rules over
//! synthetic workspaces, plus a whole-repo integration check that the real
//! workspace audits clean.

use sflow_audit::{
    audit_files, audit_workspace, find_root, scan_source, workspace_sources, FileClass, SourceFile,
};

// ---------------------------------------------------------------------------
// suppressions and unused-suppression
// ---------------------------------------------------------------------------

/// A guard held across a solve, all on one line of `server.rs`: the finding
/// the suppression tests suppress.
const GUARDED_SOLVE: &str =
    "fn f(s: &Shared) { let w = s.world.lock(); let flow = solver.solve(&req); }";

#[test]
fn allow_directive_suppresses_same_line_and_line_above() {
    let same = format!("{GUARDED_SOLVE} // audit:allow(guard-across-solve)\n");
    let (fs, sup) = scan_source("crates/server/src/server.rs", &same);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(sup, 1);

    let above = format!("// audit:allow(guard-across-solve)\n{GUARDED_SOLVE}\n");
    let (fs, sup) = scan_source("crates/server/src/server.rs", &above);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(sup, 1);

    // A directive naming the wrong rule suppresses nothing — and is itself
    // flagged as unused.
    let wrong_rule = format!("{GUARDED_SOLVE} // audit:allow(wire-exhaustive)\n");
    let (fs, _) = scan_source("crates/server/src/server.rs", &wrong_rule);
    let rules: Vec<_> = fs.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"guard-across-solve"), "{fs:?}");
    assert!(rules.contains(&"unused-suppression"), "{fs:?}");
}

#[test]
fn unused_suppression_flags_dead_and_unknown_directives() {
    // Nothing to suppress: the directive is dead.
    let src = "// audit:allow(guard-across-solve)\nfn f() { let x = 1; }\n";
    let (fs, _) = scan_source("crates/server/src/clean.rs", src);
    let us: Vec<_> = fs
        .iter()
        .filter(|f| f.rule == "unused-suppression")
        .collect();
    assert_eq!(us.len(), 1, "{fs:?}");
    assert_eq!(us[0].line, 1);
    assert!(us[0].message.contains("suppresses nothing"), "{us:?}");

    // A misspelled rule name is called out as unknown, not just unused — and
    // so is a rule that clippy took over.
    for unknown in ["guard-across-solves", "no-unwrap", "reactor-nonblocking"] {
        let src = format!("{GUARDED_SOLVE} // audit:allow({unknown})\n");
        let (fs, _) = scan_source("crates/server/src/server.rs", &src);
        assert!(
            fs.iter()
                .any(|f| f.rule == "unused-suppression" && f.message.contains("unknown rule")),
            "{unknown}: {fs:?}"
        );
    }
}

#[test]
fn unused_suppression_is_itself_suppressible_at_the_site() {
    let src = "// audit:allow(unused-suppression)\n\
               // audit:allow(guard-across-solve)\n\
               fn f() { let x = 1; }\n";
    let (fs, sup) = scan_source("crates/server/src/clean.rs", src);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(sup, 1);
}

#[test]
fn a_used_directive_is_not_flagged_as_unused() {
    let src = format!("{GUARDED_SOLVE} // audit:allow(guard-across-solve): sanctioned mutator\n");
    let (fs, sup) = scan_source("crates/server/src/server.rs", &src);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(sup, 1);
}

#[test]
fn doc_prose_with_placeholder_rule_names_is_not_a_directive() {
    let src = "//! Suppress with `audit:allow(<rule>)` on the line above.\nfn f() {}\n";
    let (fs, sup) = scan_source("crates/server/src/clean.rs", src);
    assert!(fs.is_empty(), "{fs:?}");
    assert_eq!(sup, 0);
}

// ---------------------------------------------------------------------------
// guard-across-solve
// ---------------------------------------------------------------------------

#[test]
fn guard_across_solve_flags_a_guard_live_over_a_solve() {
    let src = "fn f(shared: &Shared) {\n\
                   let world = shared.world.lock();\n\
                   let flow = solver.solve(&req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    let gs: Vec<_> = fs
        .iter()
        .filter(|f| f.rule == "guard-across-solve")
        .collect();
    assert_eq!(gs.len(), 1, "{gs:?}");
    assert_eq!(gs[0].line, 2, "anchored at the guard binding");
    assert!(gs[0].message.contains("`world`"), "{gs:?}");
    assert!(gs[0].message.contains("line 3"), "{gs:?}");
}

#[test]
fn guard_across_solve_tracks_a_multi_line_binding() {
    // The acquisition spans lines — `let` on one line, `.lock();` three
    // lines later. The old line scanner required `let … .lock();` on a
    // single line and missed exactly this shape.
    let src = "fn f(shared: &Shared) {\n\
                   let world = shared\n\
                       .world\n\
                       .lock();\n\
                   let flow = solver.solve(&req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    let gs: Vec<_> = fs
        .iter()
        .filter(|f| f.rule == "guard-across-solve")
        .collect();
    assert_eq!(gs.len(), 1, "{gs:?}");
    assert_eq!(gs[0].line, 2, "anchored at the `let`");
    assert!(gs[0].message.contains("`world`"), "{gs:?}");
    assert!(gs[0].message.contains("line 5"), "{gs:?}");
}

#[test]
fn guard_across_solve_ends_at_the_binding_scope() {
    // Brace-awareness: the guard dies when its block closes, so a solve
    // after the block is off-lock and clean. The old scanner kept every
    // guard "live" to the end of the function.
    let src = "fn f(shared: &Shared) {\n\
                   {\n\
                       let world = shared.world.lock();\n\
                       world.touch();\n\
                   }\n\
                   let flow = solver.solve(&req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn a_lock_temporary_consumed_in_the_statement_is_not_a_guard() {
    // `mem::take(&mut x.lock().y)` holds the guard only to the `;` — a
    // later solve is off-lock. The bare-identifier heuristic this replaces
    // called `taken` a guard and flagged the solve below.
    let src = "fn f(shared: &Shared) {\n\
                   let taken = std::mem::take(&mut shared.sessions.lock().live);\n\
                   let flow = solver.solve(&req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn guard_across_solve_covers_repair_federate_and_read_guards() {
    let src = "fn f(shared: &Shared) {\n\
                   let w = shared.world.read();\n\
                   let out = repair(&ctx, &req, &prev);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");

    let src = "fn f(shared: &Shared) {\n\
                   let mut sessions = shared.sessions.lock();\n\
                   let flow = algo.federate(&ctx, &req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");
}

#[test]
fn guard_across_solve_covers_the_rebalancer_entry_points() {
    // A guard live across the rebalancer's re-solve is the same coupling a
    // direct `.solve(` would be.
    let src = "fn sweep(shared: &Shared) {\n\
                   let sessions = shared.sessions.lock();\n\
                   let moved = resolve_mover(&ctx, &req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/rebalance.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");

    // Same for re-entering the federate path with a guard held.
    let src = "fn f(shared: &Shared) {\n\
                   let w = shared.world.lock();\n\
                   let r = federate_against(shared, snap, req, algo, None);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");

    // The server's one cold-solve function is what `resolve_mover` and the
    // federate path both bottom out in.
    let src = "fn f(shared: &Shared) {\n\
                   let sessions = shared.sessions.lock();\n\
                   let flow = cold_solve(shared, &snap, &ctx, &req, algo, None);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");

    // The sweep's real shape — copy candidates out under the lock, drop
    // the guard, then re-solve — is clean; a longer identifier that merely
    // ends in the token is not a solve.
    let src = "fn sweep(shared: &Shared) {\n\
                   let sessions = shared.sessions.lock();\n\
                   let candidates = collect(&sessions);\n\
                   drop(sessions);\n\
                   let moved = resolve_mover(&ctx, &req);\n\
                   let other = unresolve_mover(&ctx);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/rebalance.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn guard_across_solve_covers_the_cache_fill_and_admission_entry_points() {
    // A guard live across the solve-cache fill: the fill takes the cache
    // lock internally, and the cold solve that produced the flow should
    // already have run off-lock anyway.
    let src = "fn f(shared: &Shared, snapshot: &WorldSnapshot) {\n\
                   let sessions = shared.sessions.lock();\n\
                   let flow = snapshot.cache_solve(key, flow);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");

    // Same for admission: `open_session` takes the sessions lock itself,
    // so a caller holding any guard across it risks deadlock.
    let src = "fn f(shared: &Shared) {\n\
                   let world = shared.world.lock();\n\
                   let out = open_session(shared, &snap, &req, &flow, None, false);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");

    // And for the repair sweep's two halves: each takes the sessions lock
    // itself, and the commit half runs the repairs.
    for half in [
        "let plan = plan_repairs(shared, from_epoch);",
        "let done = commit_repairs(shared, &snap, plan);",
    ] {
        let src = format!(
            "fn f(shared: &Shared) {{\n let sessions = shared.sessions.lock();\n {half}\n}}\n"
        );
        let (fs, _) = scan_source("crates/server/src/server.rs", &src);
        assert!(fs.iter().any(|f| f.rule == "guard-across-solve"), "{fs:?}");
    }

    // The real shape — drop the guard first — is clean, and a longer
    // identifier ending in the token is not the entry point.
    let src = "fn f(shared: &Shared) {\n\
                   let sessions = shared.sessions.lock();\n\
                   drop(sessions);\n\
                   let out = open_session(shared, &snap, &req, &flow, None, true);\n\
                   let other = reopen_session(shared);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn guard_across_solve_covers_the_session_table_entry_points() {
    // Each function of the session table takes its lock, and the repair
    // sweep's re-solve runs `repair` before one of them: a caller holding
    // any guard across a call risks a deadlock or a solve under a lock.
    for call in [
        "let closed = release_session(shared, session);",
        "let done = repair_bookings(shared, &snap, plan);",
        "tick_estimates(shared);",
        "let movers = plan_migrations(shared, epoch, &hot);",
        "let moved = commit_migration(shared, &snap, id, flow);",
    ] {
        let src =
            format!("fn f(shared: &Shared) {{\n let world = shared.world.lock();\n {call}\n}}\n");
        let (fs, _) = scan_source("crates/server/src/server.rs", &src);
        assert!(
            fs.iter().any(|f| f.rule == "guard-across-solve"),
            "{call}: {fs:?}"
        );
    }

    // The real shape — drop the guard first — is clean, and a longer
    // identifier ending in the name is not the entry point.
    let src = "fn f(shared: &Shared) {\n\
                   let world = shared.world.lock();\n\
                   drop(world);\n\
                   tick_estimates(shared);\n\
                   let other = retick_estimates(shared);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/rebalance.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn guard_dropped_before_the_solve_is_clean() {
    let src = "fn f(shared: &Shared) {\n\
                   let world = shared.world.lock();\n\
                   let snapshot = world.snapshot();\n\
                   drop(world);\n\
                   let flow = solver.solve(&req);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn lockless_solves_and_non_server_crates_are_clean() {
    // The snapshot read path: load, solve, no guard anywhere.
    let src = "fn f(shared: &Shared) {\n\
                   let snapshot = shared.snap.load();\n\
                   let ctx = snapshot.context();\n\
                   let flow = Solver::new(&ctx).solve(&req);\n\
                   let mut sessions = shared.sessions.lock();\n\
                   sessions.live.insert(0, flow);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");

    // Other crates may structure locking however they like.
    let src = "fn f() { let g = m.lock(); let flow = solver.solve(&req); }\n";
    let (fs, _) = scan_source("crates/sim/src/lib.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

#[test]
fn a_temporary_guard_and_solve_in_one_statement_is_flagged() {
    let src = "fn f(shared: &Shared) {\n\
                   let out = repair(&shared.world.lock().context(), &req, &prev);\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    let gs: Vec<_> = fs
        .iter()
        .filter(|f| f.rule == "guard-across-solve")
        .collect();
    assert_eq!(gs.len(), 1, "{gs:?}");
    assert_eq!(gs[0].line, 2);
}

#[test]
fn a_solve_in_a_nested_fn_item_does_not_leak_into_the_outer_guard() {
    // The nested fn's body runs when called, not where it is written; the
    // guard in the outer fn never spans its execution.
    let src = "fn outer(shared: &Shared) {\n\
                   let world = shared.world.lock();\n\
                   fn helper(ctx: &Ctx) -> Flow { solver.solve(&req) }\n\
                   world.touch();\n\
               }\n";
    let (fs, _) = scan_source("crates/server/src/server.rs", src);
    assert!(fs.iter().all(|f| f.rule != "guard-across-solve"), "{fs:?}");
}

// ---------------------------------------------------------------------------
// cross-file: wire-exhaustive
// ---------------------------------------------------------------------------

fn parse_set(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|(rel, text)| SourceFile::parse(rel, text))
        .collect()
}

const WIRE_LIB: &str = "#![forbid(unsafe_code)]\n\
    pub enum Request {\n\
        Ping,\n\
        #[expect(dead_code)]\n\
        Fetch { key: u64 },\n\
    }\n\
    pub enum Response {\n\
        Pong,\n\
        Value(u64),\n\
    }\n";

const WIRE_SERVER: &str = "fn dispatch(req: Request) -> Response {\n\
        match req {\n\
            Request::Ping => Response::Pong,\n\
            Request::Fetch { key } => Response::Value(key),\n\
        }\n\
    }\n";

const WIRE_CLIENT: &str = "impl Client {\n\
        pub fn ping(&mut self) -> Result<Response, WireError> {\n\
            self.request(&Request::Ping)\n\
        }\n\
        pub fn fetch(&mut self, key: u64) -> Result<Response, WireError> {\n\
            self.request(&Request::Fetch { key })\n\
        }\n\
    }\n";

const WIRE_CLI: &str = "#![forbid(unsafe_code)]\n\
    fn main() {\n\
        match client.ping() {\n\
            Ok(Response::Pong) => println!(\"pong\"),\n\
            Ok(Response::Value(v)) => println!(\"{v}\"),\n\
            _ => {}\n\
        }\n\
        let _ = client.fetch(7);\n\
    }\n";

fn wire_set(lib: &str, server: &str, client: &str, cli: &str) -> Vec<SourceFile> {
    parse_set(&[
        ("crates/server/src/lib.rs", lib),
        ("crates/server/src/server.rs", server),
        ("crates/server/src/client.rs", client),
        ("src/bin/sflow.rs", cli),
    ])
}

#[test]
fn wire_exhaustive_accepts_a_complete_surface() {
    let report = audit_files(&wire_set(WIRE_LIB, WIRE_SERVER, WIRE_CLIENT, WIRE_CLI));
    assert!(
        report.findings.iter().all(|f| f.rule != "wire-exhaustive"),
        "{}",
        report.render_human()
    );
}

#[test]
fn wire_exhaustive_flags_each_missing_leg() {
    // A request variant with no dispatch arm.
    let server = WIRE_SERVER.replace("Request::Ping => Response::Pong,\n", "");
    let report = audit_files(&wire_set(WIRE_LIB, &server, WIRE_CLIENT, WIRE_CLI));
    let wf: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "wire-exhaustive")
        .collect();
    assert!(
        wf.iter()
            .any(|f| f.message.contains("`Request::Ping`")
                && f.message.contains("server dispatch arm")),
        "{}",
        report.render_human()
    );
    assert_eq!(
        wf[0].path, "crates/server/src/lib.rs",
        "anchored at the enum"
    );

    // A request variant the client cannot send.
    let client = WIRE_CLIENT.replace(
        "pub fn ping(&mut self) -> Result<Response, WireError> {\n\
            self.request(&Request::Ping)\n\
        }\n",
        "",
    );
    let report = audit_files(&wire_set(WIRE_LIB, WIRE_SERVER, &client, WIRE_CLI));
    assert!(
        report.findings.iter().any(|f| f.rule == "wire-exhaustive"
            && f.message.contains("`Request::Ping`")
            && f.message.contains("client method")),
        "{}",
        report.render_human()
    );

    // A client method the CLI never invokes.
    let cli = WIRE_CLI.replace("match client.ping() {", "match noop() {");
    let report = audit_files(&wire_set(WIRE_LIB, WIRE_SERVER, WIRE_CLIENT, &cli));
    assert!(
        report.findings.iter().any(|f| f.rule == "wire-exhaustive"
            && f.message.contains("`Request::Ping`")
            && f.message.contains("CLI path")),
        "{}",
        report.render_human()
    );

    // A response variant the server never constructs…
    let server = WIRE_SERVER.replace(
        "Request::Ping => Response::Pong,",
        "Request::Ping => todo(),",
    );
    let report = audit_files(&wire_set(WIRE_LIB, &server, WIRE_CLIENT, WIRE_CLI));
    assert!(
        report.findings.iter().any(|f| f.rule == "wire-exhaustive"
            && f.message.contains("`Response::Pong`")
            && f.message.contains("server construction site")),
        "{}",
        report.render_human()
    );

    // …unless the session table builds it, which answers for the server.
    let mut set = wire_set(WIRE_LIB, &server, WIRE_CLIENT, WIRE_CLI);
    set.extend(parse_set(&[(
        "crates/server/src/sessions.rs",
        "fn open() -> Response {\n Response::Pong\n}\n",
    )]));
    let report = audit_files(&set);
    assert!(
        report.findings.iter().all(|f| f.rule != "wire-exhaustive"),
        "{}",
        report.render_human()
    );

    // …and one nobody consumes.
    let cli = WIRE_CLI.replace("Ok(Response::Pong) => println!(\"pong\"),\n", "");
    let report = audit_files(&wire_set(WIRE_LIB, WIRE_SERVER, WIRE_CLIENT, &cli));
    assert!(
        report.findings.iter().any(|f| f.rule == "wire-exhaustive"
            && f.message.contains("`Response::Pong`")
            && f.message.contains("consumer")),
        "{}",
        report.render_human()
    );
}

#[test]
fn wire_exhaustive_ignores_payload_fields_and_test_dispatch() {
    // `key: u64` inside Fetch and `Value(u64)`'s payload are not variants;
    // a complete surface yields no findings for them (see the accepting
    // test). A dispatch arm that exists only in test code does not count.
    let server = "#[cfg(test)]\n\
                  mod tests {\n\
                      fn fake(req: Request) -> Response {\n\
                          match req {\n\
                              Request::Ping => Response::Pong,\n\
                              Request::Fetch { key } => Response::Value(key),\n\
                          }\n\
                      }\n\
                  }\n";
    let report = audit_files(&wire_set(WIRE_LIB, server, WIRE_CLIENT, WIRE_CLI));
    assert!(
        report.findings.iter().any(|f| f.rule == "wire-exhaustive"
            && f.message.contains("`Request::Ping`")
            && f.message.contains("server dispatch arm")),
        "{}",
        report.render_human()
    );
}

// ---------------------------------------------------------------------------
// classification and the real workspace
// ---------------------------------------------------------------------------

#[test]
fn file_classification() {
    let c = FileClass::of("crates/server/src/wire.rs");
    assert_eq!(c.crate_dir, "crates/server");
    assert!(!c.in_tests);
    assert!(FileClass::of("crates/server/tests/wire_negative.rs").in_tests);
    assert_eq!(FileClass::of("src/bin/sflow.rs").crate_dir, "");
    // Root-level integration tests and examples are test-class sources.
    assert!(FileClass::of("tests/end_to_end.rs").in_tests);
    assert!(FileClass::of("examples/overlay_demo.rs").in_tests);
}

#[test]
fn workspace_walk_covers_root_tests_and_examples() {
    let root = find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/audit");
    let sources = workspace_sources(&root);
    let rels: Vec<String> = sources
        .iter()
        .filter_map(|p| p.strip_prefix(&root).ok())
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    assert!(
        rels.iter().any(|r| r.starts_with("tests/")),
        "root tests/ must be scanned: {rels:?}"
    );
    assert!(
        rels.iter().any(|r| r.starts_with("examples/")),
        "root examples/ must be scanned: {rels:?}"
    );
    assert!(
        rels.iter().any(|r| r.starts_with("crates/server/src/")),
        "crate sources must be scanned"
    );
}

/// The shipped tree must audit clean, and a violation of each of the three
/// rules seeded into the real sources must be caught.
#[test]
fn real_workspace_audits_clean_and_seeded_violations_fail() {
    let root = find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/audit");
    let report = audit_workspace(&root).expect("scan workspace");
    assert!(
        report.is_clean(),
        "workspace must audit clean:\n{}",
        report.render_human()
    );
    assert!(
        report.files_scanned >= 110,
        "scanned {} (root tests/ and examples/ should be included)",
        report.files_scanned
    );
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
    let fires = |rel: &str, seeded: &str, rule: &str, needle: &str| {
        let (fs, _) = scan_source(rel, seeded);
        assert!(
            fs.iter()
                .any(|f| f.rule == rule && f.message.contains(needle)),
            "{rule} on {rel}: {fs:?}"
        );
    };

    // A dead suppression in the real world.rs.
    let seeded = format!(
        "// audit:allow(guard-across-solve)\n{}",
        read("crates/server/src/world.rs")
    );
    fires(
        "crates/server/src/world.rs",
        &seeded,
        "unused-suppression",
        "suppresses nothing",
    );

    // guard-across-solve: the sessions lock held across the real cold solve.
    let rel = "crates/server/src/server.rs";
    let server = read(rel);
    let seeded = format!(
        "{server}\nfn seed(shared: &Shared) {{\n    let held = shared.sessions.lock();\n    \
         let flow = cold_solve(shared, &snap, &ctx, &req, algo, None);\n}}\n"
    );
    fires(rel, &seeded, "guard-across-solve", "`held`");

    // wire-exhaustive: a new variant in the real protocol enum, against the
    // real server, client and CLI.
    let protocol = read("crates/server/src/lib.rs");
    let seeded = protocol.replace("pub enum Request {", "pub enum Request {\n    ProbeSeed,");
    assert_ne!(protocol, seeded, "seed point missing from server lib.rs");
    let report = audit_files(&parse_set(&[
        ("crates/server/src/lib.rs", &seeded),
        ("crates/server/src/server.rs", &server),
        (
            "crates/server/src/client.rs",
            &read("crates/server/src/client.rs"),
        ),
        ("src/bin/sflow.rs", &read("src/bin/sflow.rs")),
    ]));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "wire-exhaustive" && f.message.contains("ProbeSeed")),
        "{}",
        report.render_human()
    );
}
