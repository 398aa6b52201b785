//! The rule catalogue and the per-file lint engine.
//!
//! Each rule needs what neither `rustc` nor `clippy` has: how long a guard
//! lives, or what three other files say. What a compiler, a clippy lint, a
//! visibility boundary or a test can check is checked there instead
//! (`#![forbid(unsafe_code)]`; the `[workspace.lints]` table, the crate-root
//! and module-level denies and `clippy.toml`, which ban `unwrap` / `expect`
//! in the server and routing crates, blocking calls in the reactor and the
//! clock in routing; the counting allocator of `kernel_alloc.rs`; the one
//! plane cell — `LoadCell`, published only by the session table, whose lock
//! and `LoadCell::publish` are private — and the counter table in
//! `stats.rs`).
//!
//! | rule | scope | what it enforces |
//! |---|---|---|
//! | `guard-across-solve` | `crates/server` non-test code | no lock guard live across a solve/federate/repair call |
//! | `wire-exhaustive` | workspace (cross-file) | every `Request`/`Response` variant spans server, client and CLI |
//! | `unused-suppression` | every scanned file | an `audit:allow` that silences nothing is itself a finding |
//!
//! All rules run over the token stream produced by [`crate::lex`]: rules see
//! scopes (brace depth), statements and bindings, never raw lines, so string
//! literals and comments can't fire them and guard liveness is tracked from
//! the binding to end-of-scope or `drop(guard)`.
//!
//! Findings can be suppressed per site with an `audit:allow(<rule>)` comment
//! directive on the same line or the line directly above. A directive that
//! suppresses nothing is flagged by `unused-suppression`.

use crate::lex::{self, FnItem, Lexed, Token, TokenKind};
use crate::report::Finding;

/// One lint rule: stable name, scope summary, rationale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Stable kebab-case identifier, as used by `audit:allow(...)`.
    pub name: &'static str,
    /// One-line description of scope and intent.
    pub description: &'static str,
}

/// The full rule catalogue, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "guard-across-solve",
        description: "no lock guard may be live across a solve/federate/repair call in \
                      crates/server (the read path loads an immutable snapshot and solves \
                      off-lock; a guard spanning a solve reintroduces reader/mutator coupling)",
    },
    Rule {
        name: "wire-exhaustive",
        description: "every Request/Response wire variant has a server dispatch arm, a client \
                      method and a CLI path (the wire surface moves in lockstep or not at all; \
                      the codec's own arms are the compiler's and a round-trip test's)",
    },
    Rule {
        name: "unused-suppression",
        description: "an audit:allow directive that suppresses no finding is itself a finding \
                      (stale allows hide real regressions behind dead exemptions)",
    },
];

/// How a source file is classified, derived purely from its repo-relative
/// path (always `/`-separated).
#[derive(Clone, Debug)]
pub struct FileClass {
    /// The crate directory (`"crates/server"`, …; `""` for the root crate).
    pub crate_dir: String,
    /// Lives under a `tests/`, `benches/` or `examples/` directory.
    pub in_tests: bool,
}

impl FileClass {
    /// Classifies a repo-relative path such as `crates/server/src/wire.rs`.
    pub fn of(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_dir = if parts.first() == Some(&"crates") && parts.len() > 2 {
            format!("crates/{}", parts[1])
        } else {
            String::new()
        };
        let in_tests = parts
            .iter()
            .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
        FileClass {
            crate_dir,
            in_tests,
        }
    }
}

/// One parsed source file: the unit every rule (local or cross-file)
/// operates on. Parsing happens once per file; local rules, cross-file
/// rules and suppression matching all share the result.
pub struct SourceFile {
    /// Repo-relative `/`-separated path.
    pub rel: String,
    /// Path-derived classification.
    pub class: FileClass,
    /// Original source lines (for snippets).
    pub lines: Vec<String>,
    /// The token stream and harvested `audit:allow` directives.
    pub lexed: Lexed,
    /// `true` for every 1-based line inside a test item body (index 0 is
    /// line 1).
    pub test_mask: Vec<bool>,
    /// Every `fn` item, nested ones included.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lexes and classifies one source file.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        let lexed = lex::lex(text);
        let test_mask = lex::test_lines(&lexed);
        let fns = lex::functions(&lexed.tokens);
        SourceFile {
            rel: rel.to_string(),
            class: FileClass::of(rel),
            lines: text.lines().map(str::to_string).collect(),
            lexed,
            test_mask,
            fns,
        }
    }

    /// True when the 1-based `line` lies inside a test item body.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.test_mask.get(line - 1).copied().unwrap_or(false)
    }

    /// The trimmed source text of the 1-based `line`.
    pub fn snippet(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Runs every single-file rule over `file` and returns the raw findings
/// (suppressions not yet applied, snippets not yet attached).
pub fn local_findings(file: &SourceFile) -> Vec<Finding> {
    let mut raw = Vec::new();
    if file.class.crate_dir == "crates/server" && !file.class.in_tests {
        guard_across_solve(file, &mut raw);
    }
    raw
}

/// Scans one source file in isolation; returns `(findings, suppressed)`.
///
/// `rel` is the repo-relative path (used for rule scoping and reporting),
/// `text` the file contents. Cross-file rules need the whole workspace and
/// run in [`crate::audit_workspace`], not here.
pub fn scan_source(rel: &str, text: &str) -> (Vec<Finding>, usize) {
    if !rel.ends_with(".rs") {
        return (Vec::new(), 0);
    }
    let file = SourceFile::parse(rel, text);
    let raw = local_findings(&file);
    let (mut findings, suppressed) = apply_suppressions(&file, raw);
    findings.sort_by_key(|f| (f.line, f.column));
    (findings, suppressed)
}

/// Applies `audit:allow` directives to `raw` findings for `file`: a finding
/// is suppressed by a directive naming its rule on the same line or the line
/// directly above. Directives that suppress nothing become
/// `unused-suppression` findings — themselves suppressible by an
/// `unused-suppression` directive at the site. Also attaches snippets.
/// Returns `(findings, suppressed_count)`.
pub fn apply_suppressions(file: &SourceFile, raw: Vec<Finding>) -> (Vec<Finding>, usize) {
    let allows = &file.lexed.allows;
    let mut used = vec![false; allows.len()];
    let mut findings = Vec::new();
    let mut suppressed = 0usize;

    for f in raw {
        let mut hit = false;
        for (k, a) in allows.iter().enumerate() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                used[k] = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }

    // A directive that silenced nothing is dead: either the violation was
    // fixed (remove the allow) or the rule name is wrong (it guards nothing).
    let known: Vec<&str> = RULES.iter().map(|r| r.name).collect();
    for (k, a) in allows.iter().enumerate() {
        if used[k] || a.rule == "unused-suppression" {
            continue;
        }
        let message = if known.contains(&a.rule.as_str()) {
            format!("`audit:allow({})` suppresses nothing: remove it", a.rule)
        } else {
            format!(
                "`audit:allow({})` names an unknown rule (see --list-rules): remove or fix it",
                a.rule
            )
        };
        let f = Finding::new(
            "unused-suppression",
            &file.rel,
            a.line,
            1,
            message,
            String::new(),
        );
        // The dead directive itself may be intentionally kept (e.g. a
        // template); that exemption must be explicit at the site.
        let mut hit = false;
        for (j, b) in allows.iter().enumerate() {
            if b.rule == "unused-suppression" && (b.line == f.line || b.line + 1 == f.line) {
                used[j] = true;
                hit = true;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            findings.push(f);
        }
    }

    for f in &mut findings {
        if f.snippet.is_empty() {
            f.snippet = file.snippet(f.line);
        }
    }
    (findings, suppressed)
}

// ---------------------------------------------------------------------------
// Token-stream helpers
// ---------------------------------------------------------------------------

/// True when `tokens[at..]` is an empty-argument guard acquisition:
/// `. lock ( )` (or `.read()` / `.write()`).
fn is_guard_acq(tokens: &[Token], at: usize) -> bool {
    tokens[at].is_punct('.')
        && tokens.get(at + 1).is_some_and(|t| {
            t.kind == TokenKind::Ident && matches!(t.text.as_str(), "lock" | "read" | "write")
        })
        && tokens.get(at + 2).is_some_and(|t| t.is_punct('('))
        && tokens.get(at + 3).is_some_and(|t| t.is_punct(')'))
}

/// The token index just past the end of the `let` statement starting at
/// `let_at`: the `;` at the `let`'s brace depth outside any parens/brackets,
/// or — for `if let` / `while let` conditions — the `{` opening the block.
/// Returns the index of that terminator (capped at `limit`).
fn let_statement_end(tokens: &[Token], let_at: usize, limit: usize) -> usize {
    let d = tokens[let_at].depth;
    let in_condition =
        let_at > 0 && (tokens[let_at - 1].is_ident("if") || tokens[let_at - 1].is_ident("while"));
    let mut brackets = 0i64;
    for (j, t) in tokens.iter().enumerate().take(limit).skip(let_at + 1) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => brackets += 1,
            ")" | "]" => brackets -= 1,
            ";" if brackets == 0 && t.depth == d => return j,
            "{" if in_condition && brackets == 0 && t.depth == d => return j,
            _ => {}
        }
    }
    limit
}

// ---------------------------------------------------------------------------
// Local rules
// ---------------------------------------------------------------------------

/// Entry points that run a federation solve (directly, via repair, via the
/// server's one cold-solve function, the repair sweep's re-solves or the
/// rebalancer's), plus the solve-cache fill (`cache_solve`, which takes the
/// cache lock) and every session-table function that takes its lock
/// (`open_session`, `release_session`, `plan_repairs`, `commit_repairs`,
/// `tick_estimates`, `plan_migrations`, `commit_migration`). A lock guard
/// live across any of these couples readers to mutators again — exactly
/// what the snapshot architecture removed — or re-enters a lock the callee
/// takes itself.
const SOLVE_NAMES: &[&str] = &[
    "solve",
    "solve_pinned",
    "federate",
    "repair",
    "cold_solve",
    "resolve_mover",
    "federate_against",
    "repair_bookings",
    "cache_solve",
    "open_session",
    "release_session",
    "plan_repairs",
    "commit_repairs",
    "tick_estimates",
    "plan_migrations",
    "commit_migration",
];

fn guard_across_solve(file: &SourceFile, out: &mut Vec<Finding>) {
    let tokens = &file.lexed.tokens;
    for f in &file.fns {
        if file.is_test_line(f.line) {
            continue;
        }
        // A nested `fn` item's body executes when called, not where it is
        // written: exclude its token range from this function's analysis
        // (it gets its own pass).
        let nested: Vec<(usize, usize)> = file
            .fns
            .iter()
            .filter(|g| g.open > f.open && g.close < f.close)
            .map(|g| (g.open, g.close))
            .collect();
        let nested_range = |i: usize| nested.iter().find(|&&(a, b)| i >= a && i <= b).copied();

        // Solve call sites inside this body, with a display pattern that
        // mirrors the source (`.solve(` for methods, `repair(` for frees).
        let mut solves: Vec<(usize, String)> = Vec::new();
        for k in f.open + 1..f.close {
            if nested_range(k).is_some() {
                continue;
            }
            let t = &tokens[k];
            if t.kind != TokenKind::Ident
                || !SOLVE_NAMES.contains(&t.text.as_str())
                || !tokens.get(k + 1).is_some_and(|n| n.is_punct('('))
                || tokens[k - 1].is_ident("fn")
            {
                continue;
            }
            let pat = if tokens[k - 1].is_punct('.') {
                format!(".{}(", t.text)
            } else {
                format!("{}(", t.text)
            };
            solves.push((k, pat));
        }

        // Walk the body statement by statement. A `let` whose initializer
        // contains an empty-argument `.lock()`/`.read()`/`.write()` binds a
        // guard; the guard is live from the end of that statement until a
        // `drop(<guard>)` or its scope closes (the first `}` shallower than
        // the binding). A solve inside the live range is the finding.
        let mut i = f.open + 1;
        while i < f.close {
            if let Some((_, b)) = nested_range(i) {
                i = b + 1;
                continue;
            }
            if !tokens[i].is_ident("let") {
                i += 1;
                continue;
            }
            let let_tok = &tokens[i];
            let end = let_statement_end(tokens, i, f.close);
            let acquires = (i..end).any(|k| is_guard_acq(tokens, k));
            if !acquires {
                i = end + 1;
                continue;
            }
            // Guard temporary and solve in one statement: the same coupling
            // without even a name to drop.
            if solves.iter().any(|(si, _)| (i..end).contains(si)) {
                out.push(Finding::new(
                    "guard-across-solve",
                    &file.rel,
                    let_tok.line,
                    let_tok.col,
                    "lock acquired and solve run in one statement: the temporary guard \
                     spans the solve"
                        .to_string(),
                    String::new(),
                ));
                i = end + 1;
                continue;
            }
            // The binding holds the guard only when the acquisition is the
            // statement's final expression (`let g = x.lock();`, possibly
            // spanning lines). In `let v = x.lock().field;` or
            // `mem::take(&mut x.lock().y)` the guard is a temporary that
            // dies at the `;`, which the same-statement check covers.
            if !(end >= 4 && is_guard_acq(tokens, end - 4)) {
                i = end + 1;
                continue;
            }
            // Simple binding pattern: `let [mut] g = …`. Destructuring
            // patterns bind no droppable guard name; their temporaries die
            // at the statement end, which the same-statement check covers.
            let mut ni = i + 1;
            if tokens.get(ni).is_some_and(|t| t.is_ident("mut")) {
                ni += 1;
            }
            let named = tokens
                .get(ni)
                .filter(|t| t.kind == TokenKind::Ident)
                .cloned();
            let Some(guard) = named else {
                i = end + 1;
                continue;
            };
            let d_let = let_tok.depth;
            let mut death = f.close;
            let mut k = end + 1;
            while k < f.close {
                if let Some((_, b)) = nested_range(k) {
                    k = b + 1;
                    continue;
                }
                let t = &tokens[k];
                if t.is_punct('}') && t.depth < d_let {
                    death = k;
                    break;
                }
                if t.is_ident("drop")
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))
                    && tokens.get(k + 2).is_some_and(|t| t.text == guard.text)
                    && tokens.get(k + 3).is_some_and(|t| t.is_punct(')'))
                {
                    death = k;
                    break;
                }
                k += 1;
            }
            if let Some((si, pat)) = solves.iter().find(|(si, _)| (end..death).contains(si)) {
                out.push(Finding::new(
                    "guard-across-solve",
                    &file.rel,
                    let_tok.line,
                    let_tok.col,
                    format!(
                        "lock guard `{}` is live across a `{pat}` call on line {}: \
                         load a snapshot and solve off-lock instead",
                        guard.text, tokens[*si].line
                    ),
                    String::new(),
                ));
            }
            i = end + 1;
        }
    }
}
