//! Cross-file workspace rules.
//!
//! Unlike the per-file rules in [`crate::rules`], these invariants span the
//! whole tree: a wire variant added to the protocol enum must grow a
//! dispatch arm, a client method *and* a CLI path. They run over the full
//! set of parsed [`SourceFile`]s and anchor their findings at the
//! declaration site (the enum variant), so a suppression directive at that
//! site governs the whole invariant.

use crate::lex::{self, TokenKind};
use crate::report::Finding;
use crate::rules::SourceFile;

/// Where the cross-file anchors live. The rules are skipped gracefully when
/// an anchor file is absent (synthetic test sets, partial trees).
const PROTOCOL_RS: &str = "crates/server/src/lib.rs";
const SERVER_RS: &str = "crates/server/src/server.rs";
/// The session table, which answers opens, releases and repair commits.
const SESSIONS_RS: &str = "crates/server/src/sessions.rs";
const CLIENT_RS: &str = "crates/server/src/client.rs";
const CLI_RS: &str = "src/bin/sflow.rs";

/// Runs every cross-file rule over the parsed workspace.
pub fn cross_findings(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    wire_exhaustive(files, &mut out);
    out
}

fn by_rel<'a>(files: &'a [SourceFile], rel: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.rel == rel)
}

/// True when `file` contains the exact token sequence `seq` outside test
/// regions.
fn has_seq(file: &SourceFile, seq: &[&str]) -> bool {
    let tokens = &file.lexed.tokens;
    (0..tokens.len()).any(|i| lex::match_seq(tokens, i, seq) && !file.is_test_line(tokens[i].line))
}

/// The variants of `enum <name>` in `file`: `(variant_token_index)` per
/// variant. Tuple payloads, struct payloads, and `#[...]` attributes are
/// skipped (payload field names live deeper or inside brackets/parens).
fn enum_variants(file: &SourceFile, name: &str) -> Vec<usize> {
    let tokens = &file.lexed.tokens;
    let Some(open) = (0..tokens.len()).find_map(|i| {
        (lex::match_seq(tokens, i, &["enum", name])
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{')))
        .then_some(i + 2)
    }) else {
        return Vec::new();
    };
    let Some(close) = lex::matching_close(tokens, open) else {
        return Vec::new();
    };
    let variant_depth = tokens[open].depth + 1;
    let mut variants = Vec::new();
    let mut brackets = 0i64;
    let mut prev_meaningful = "{".to_string();
    for (i, t) in tokens.iter().enumerate().take(close).skip(open + 1) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => brackets += 1,
                ")" | "]" => brackets -= 1,
                _ => {}
            }
        }
        if t.kind == TokenKind::Ident
            && t.depth == variant_depth
            && brackets == 0
            && matches!(prev_meaningful.as_str(), "{" | "," | "]")
        {
            variants.push(i);
        }
        if !t.text.trim().is_empty() && t.depth <= variant_depth {
            prev_meaningful = t.text.clone();
        }
    }
    variants
}

/// `wire-exhaustive`: every `Request` variant in `crates/server/src/lib.rs`
/// must have a server dispatch arm (`Request::V` in server.rs outside
/// tests), a client constructor (`Request::V` in client.rs), and a CLI path
/// (the CLI invokes the client method that builds it, or names the variant
/// itself). Every `Response` variant must be constructed by the server
/// (server.rs or the session table) and consumed by the client or the CLI. The wire surface moves in lockstep or
/// not at all. (The codec's own two arms per variant are not this rule's:
/// encode is an exhaustive `match`, and a variant without a decode arm fails
/// `wire_fuzz.rs`'s every-variant round trip.)
fn wire_exhaustive(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(wire) = by_rel(files, PROTOCOL_RS) else {
        return;
    };
    let server = by_rel(files, SERVER_RS);
    let sessions = by_rel(files, SESSIONS_RS);
    let client = by_rel(files, CLIENT_RS);
    let cli = by_rel(files, CLI_RS);
    let tokens = &wire.lexed.tokens;

    for at in enum_variants(wire, "Request") {
        let v = tokens[at].text.as_str();
        let mut missing = Vec::new();
        if !server.is_none_or(|s| has_seq(s, &["Request", "::", v])) {
            missing.push("a server dispatch arm".to_string());
        }
        // The client method(s) whose body constructs this request.
        let methods: Vec<String> = client.map_or_else(Vec::new, |c| {
            let ct = &c.lexed.tokens;
            (0..ct.len())
                .filter(|&i| lex::match_seq(ct, i, &["Request", "::", v]))
                .filter_map(|i| {
                    c.fns
                        .iter()
                        .filter(|f| f.open < i && i < f.close)
                        .max_by_key(|f| f.open)
                        .map(|f| f.name.clone())
                })
                .collect()
        });
        if client.is_some() && methods.is_empty() {
            missing.push("a client method".to_string());
        }
        if let Some(cli) = cli {
            let reaches_cli = methods.iter().any(|m| has_seq(cli, &[".", m, "("]))
                || has_seq(cli, &["Request", "::", v]);
            if !reaches_cli {
                missing.push(format!(
                    "a CLI path (src/bin/sflow.rs never calls {})",
                    if methods.is_empty() {
                        "any client method for it".to_string()
                    } else {
                        format!(".{}()", methods.join("()/."))
                    }
                ));
            }
        }
        push_wire_finding(out, wire, at, "Request", v, missing);
    }

    for at in enum_variants(wire, "Response") {
        let v = tokens[at].text.as_str();
        let mut missing = Vec::new();
        let seq = ["Response", "::", v];
        if !(server.is_none_or(|s| has_seq(s, &seq)) || sessions.is_some_and(|s| has_seq(s, &seq)))
        {
            missing.push("a server construction site".to_string());
        }
        let consumed = client.is_none_or(|c| has_seq(c, &["Response", "::", v]))
            || cli.is_none_or(|b| has_seq(b, &["Response", "::", v]));
        if !consumed {
            missing.push("a consumer (neither client.rs nor the CLI matches it)".to_string());
        }
        push_wire_finding(out, wire, at, "Response", v, missing);
    }
}

fn push_wire_finding(
    out: &mut Vec<Finding>,
    wire: &SourceFile,
    at: usize,
    enum_name: &str,
    variant: &str,
    missing: Vec<String>,
) {
    if missing.is_empty() {
        return;
    }
    let t = &wire.lexed.tokens[at];
    out.push(Finding::new(
        "wire-exhaustive",
        &wire.rel,
        t.line,
        t.col,
        format!(
            "wire variant `{enum_name}::{variant}` is missing {}: the wire surface must \
             stay in lockstep across server, client and CLI",
            missing.join(" and ")
        ),
        String::new(),
    ));
}
