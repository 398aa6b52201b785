//! `sflow-audit`: a dependency-free workspace lint engine.
//!
//! Enforces the sflow source discipline that needs flow or cross-file
//! knowledge no compiler pass has: guard-free solve paths, wire variants
//! that reach server, client and CLI, and dead-suppression hygiene. See
//! [`rules::RULES`] for the catalogue and `DESIGN.md` §8 for rationale —
//! and for what `rustc`, clippy, the type system and a counting allocator
//! check instead.
//!
//! The engine lexes every file once ([`lex`]) into a token stream with
//! brace depth; per-file rules ([`rules`]) and cross-file rules ([`cross`])
//! share that parse. The binary exits non-zero on any finding.
//!
//! The crate intentionally has **zero dependencies** — not even the
//! workspace's vendored shims — so the audit gate stays green-buildable even
//! when the rest of the tree is broken mid-refactor.

#![forbid(unsafe_code)]

pub mod cross;
pub mod lex;
pub mod report;
pub mod rules;

pub use report::{AuditReport, Finding};
pub use rules::{scan_source, FileClass, Rule, SourceFile, RULES};

use std::path::{Path, PathBuf};

/// Walks up from `start` to the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Collects every workspace `.rs` source under `root`: the top-level
/// `src/`, `tests/`, `benches/` and `examples/` trees plus each
/// `crates/*/{src,tests,benches,examples}`. Vendored shims (`vendor/`) are
/// third-party style and exempt.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    const SOURCE_DIRS: &[&str] = &["src", "tests", "benches", "examples"];
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        collect_rs(&root.join(dir), &mut files);
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let dir = entry.path();
            if dir.is_dir() {
                for sub in SOURCE_DIRS {
                    collect_rs(&dir.join(sub), &mut files);
                }
            }
        }
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Audits an already-parsed set of files: per-file rules, cross-file rules,
/// suppression matching (including `unused-suppression`). Public so tests
/// can audit synthetic workspaces without touching the filesystem.
pub fn audit_files(files: &[SourceFile]) -> AuditReport {
    let mut report = AuditReport {
        files_scanned: files.len(),
        ..AuditReport::default()
    };
    // Cross-file findings are anchored at a declaration site in some file;
    // route each to that file so site-local `audit:allow` directives govern
    // them like any other finding.
    let mut cross_by_file: Vec<Vec<Finding>> = vec![Vec::new(); files.len()];
    for f in cross::cross_findings(files) {
        match files.iter().position(|s| s.rel == f.path) {
            Some(i) => cross_by_file[i].push(f),
            None => report.findings.push(f),
        }
    }
    for (file, extra) in files.iter().zip(cross_by_file) {
        let mut raw = rules::local_findings(file);
        raw.extend(extra);
        let (findings, suppressed) = rules::apply_suppressions(file, raw);
        report.findings.extend(findings);
        report.suppressed += suppressed;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.column).cmp(&(&b.path, b.line, b.column)));
    report
}

/// Audits the whole workspace rooted at `root`.
pub fn audit_workspace(root: &Path) -> std::io::Result<AuditReport> {
    let mut files = Vec::new();
    for path in workspace_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = std::fs::read_to_string(&path)?;
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(audit_files(&files))
}
