//! Cross-file workspace rules.
//!
//! Unlike the per-file rules in [`crate::rules`], these invariants span the
//! whole tree: a counter declared in one file must be rendered in another,
//! a wire variant added to the protocol enum must grow a dispatch arm, a
//! client method *and* a CLI path. They run over the full set of parsed
//! [`SourceFile`]s and anchor their findings at the declaration site (the
//! counter field, the enum variant), so a suppression directive at that
//! site governs the whole invariant.

use crate::lex::{self, TokenKind};
use crate::report::Finding;
use crate::rules::SourceFile;

/// Where the cross-file anchors live. The rules are skipped gracefully when
/// an anchor file is absent (synthetic test sets, partial trees).
const STATS_RS: &str = "crates/server/src/stats.rs";
const WIRE_RS: &str = "crates/server/src/lib.rs";
const SERVER_RS: &str = "crates/server/src/server.rs";
const CLIENT_RS: &str = "crates/server/src/client.rs";
const CODEC_RS: &str = "crates/server/src/wire.rs";
const CLI_RS: &str = "src/bin/sflow.rs";

/// Runs every cross-file rule over the parsed workspace.
pub fn cross_findings(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    counter_coverage(files, &mut out);
    wire_exhaustive(files, &mut out);
    out
}

fn by_rel<'a>(files: &'a [SourceFile], rel: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.rel == rel)
}

/// How often `file` contains the exact token sequence `seq` outside test
/// regions.
fn count_seq(file: &SourceFile, seq: &[&str]) -> usize {
    let tokens = &file.lexed.tokens;
    (0..tokens.len())
        .filter(|&i| lex::match_seq(tokens, i, seq) && !file.is_test_line(tokens[i].line))
        .count()
}

/// True when `file` contains `seq` outside test regions.
fn has_seq(file: &SourceFile, seq: &[&str]) -> bool {
    count_seq(file, seq) > 0
}

/// The fields of the struct named `name` in `file`: `(field_name_token_index,
/// type_token_range)` per field, skipping attributes and nested braces.
fn struct_fields(file: &SourceFile, name: &str) -> Vec<(usize, (usize, usize))> {
    let tokens = &file.lexed.tokens;
    let Some(open) = (0..tokens.len()).find_map(|i| {
        (lex::match_seq(tokens, i, &["struct", name])
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{')))
        .then_some(i + 2)
    }) else {
        return Vec::new();
    };
    let Some(close) = lex::matching_close(tokens, open) else {
        return Vec::new();
    };
    let field_depth = tokens[open].depth + 1;
    let mut fields = Vec::new();
    let mut brackets = 0i64;
    let mut prev_meaningful = "{".to_string();
    let mut i = open + 1;
    while i < close {
        let t = &tokens[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => brackets += 1,
                ")" | "]" => brackets -= 1,
                _ => {}
            }
        }
        let starts_field = t.kind == TokenKind::Ident
            && t.depth == field_depth
            && brackets == 0
            && matches!(prev_meaningful.as_str(), "{" | "," | "]" | "pub")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !tokens.get(i + 2).is_some_and(|n| n.is_punct(':'));
        if starts_field {
            // The type runs to the `,` back at field depth (or the close).
            let mut ty_end = close;
            let mut tb = 0i64;
            for (j, ty) in tokens.iter().enumerate().take(close).skip(i + 2) {
                if ty.kind != TokenKind::Punct {
                    continue;
                }
                match ty.text.as_str() {
                    "(" | "[" => tb += 1,
                    ")" | "]" => tb -= 1,
                    "," if tb == 0 && ty.depth == field_depth => {
                        ty_end = j;
                        break;
                    }
                    _ => {}
                }
            }
            fields.push((i, (i + 2, ty_end)));
            prev_meaningful = ",".to_string();
            i = ty_end + 1;
            continue;
        }
        if !t.text.trim().is_empty() {
            prev_meaningful = t.text.clone();
        }
        i += 1;
    }
    fields
}

/// `counter-coverage`: every `AtomicU64` field of `struct Metrics` in
/// `server/src/stats.rs` must be (a) bumped somewhere in stats.rs
/// (`self.N.fetch_add/fetch_sub/store`), (b) read into the snapshot
/// (`self.N.load`), and (c) rendered by the CLI stats view (the field name
/// appears in `src/bin/sflow.rs`). A counter missing a leg is dead
/// telemetry or an invisible hole in the operator's report.
fn counter_coverage(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(stats) = by_rel(files, STATS_RS) else {
        return;
    };
    let cli = by_rel(files, CLI_RS);
    let tokens = &stats.lexed.tokens;
    for (name_at, (ty_from, ty_to)) in struct_fields(stats, "Metrics") {
        let is_atomic = tokens[ty_from..ty_to]
            .iter()
            .any(|t| t.is_ident("AtomicU64"));
        if !is_atomic {
            continue;
        }
        let name = tokens[name_at].text.as_str();
        let bumped = ["fetch_add", "fetch_sub", "store"]
            .iter()
            .any(|m| has_seq(stats, &["self", ".", name, ".", m, "("]));
        let loaded = has_seq(stats, &["self", ".", name, ".", "load"]);
        let rendered = cli.is_none_or(|cli| cli.lexed.tokens.iter().any(|t| t.is_ident(name)));
        let mut missing = Vec::new();
        if !bumped {
            missing.push("never incremented (no self.<field>.fetch_add/store in stats.rs)");
        }
        if !loaded {
            missing.push("never snapshotted (no self.<field>.load)");
        }
        if !rendered {
            missing.push("not rendered by src/bin/sflow.rs");
        }
        if missing.is_empty() {
            continue;
        }
        out.push(Finding::new(
            "counter-coverage",
            &stats.rel,
            tokens[name_at].line,
            tokens[name_at].col,
            format!(
                "atomic counter `{name}` is {}: every Metrics counter must be bumped, \
                 snapshotted, and rendered in the stats report",
                missing.join(", ")
            ),
            String::new(),
        ));
    }
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
/// itself). Every `Response` variant must be constructed by the server and
/// consumed by the client or the CLI. And every variant of either must be
/// named at least twice in the hand-written codec (`crates/server/src/wire.rs`
/// outside tests): the encode arm the compiler's exhaustiveness check already
/// forces, and the decode arm — a `tag => Enum::Variant` the compiler cannot
/// miss. The wire surface moves in lockstep or not at all.
fn wire_exhaustive(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(wire) = by_rel(files, WIRE_RS) else {
        return;
    };
    let server = by_rel(files, SERVER_RS);
    let client = by_rel(files, CLIENT_RS);
    let cli = by_rel(files, CLI_RS);
    let codec = by_rel(files, CODEC_RS);
    let tokens = &wire.lexed.tokens;
    let codec_gap = |enum_name: &str, v: &str| {
        let named = codec.map_or(2, |c| count_seq(c, &[enum_name, "::", v]));
        (named < 2).then(|| {
            format!(
                "an encode and a decode arm in the codec ({CODEC_RS} names it {named} time(s), \
                 want 2)"
            )
        })
    };

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
        missing.extend(codec_gap("Request", v));
        push_wire_finding(out, wire, at, "Request", v, missing);
    }

    for at in enum_variants(wire, "Response") {
        let v = tokens[at].text.as_str();
        let mut missing = Vec::new();
        if !server.is_none_or(|s| has_seq(s, &["Response", "::", v])) {
            missing.push("a server construction site".to_string());
        }
        let consumed = client.is_none_or(|c| has_seq(c, &["Response", "::", v]))
            || cli.is_none_or(|b| has_seq(b, &["Response", "::", v]));
        if !consumed {
            missing.push("a consumer (neither client.rs nor the CLI matches it)".to_string());
        }
        missing.extend(codec_gap("Response", v));
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
             stay in lockstep across server, client, CLI and codec",
            missing.join(" and ")
        ),
        String::new(),
    ));
}
