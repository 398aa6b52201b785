//! Diagnostics: findings and the aggregate report.

/// One rule violation at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (stable name from [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (chars).
    pub column: usize,
    /// What went wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Finding {
    pub fn new(
        rule: &'static str,
        path: &str,
        line: usize,
        column: usize,
        message: String,
        snippet: String,
    ) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            column,
            message,
            snippet,
        }
    }
}

/// The result of auditing a set of files.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// All unsuppressed findings, in (path, line, column) order.
    pub findings: Vec<Finding>,
    /// How many findings were silenced by `audit:allow` directives.
    pub suppressed: usize,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// True when the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders a compiler-style human report.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&format!(
                "error[{}]: {}\n  --> {}:{}:{}\n",
                f.rule, f.message, f.path, f.line, f.column
            ));
            if !f.snippet.is_empty() {
                s.push_str(&format!("   | {}\n", f.snippet));
            }
        }
        s.push_str(&format!(
            "audit: {} file(s) scanned, {} finding(s), {} suppressed\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed
        ));
        s
    }
}
