//! A hand-rolled, dependency-free Rust lexer: the token stream every rule
//! in this crate is written against.
//!
//! The previous engine masked comments and literals out of the source and
//! pattern-matched the remaining *lines*; rules therefore saw text, not
//! structure, and each sharper check (guard liveness, enum bodies) had to
//! re-derive brace nesting with ad-hoc scans. [`lex`] does that derivation
//! once: it walks the source a single time and produces [`Token`]s — idents,
//! lifetimes, literals, punctuation — each carrying its line, column and
//! **brace depth**, so rules can reason about scopes, statements and
//! bindings directly.
//!
//! The lexer understands everything the masker did: line comments, nested
//! block comments, plain/byte strings with escapes, raw strings (`r"…"`,
//! `r#"…"#`, any hash count, `br` prefixes), char and byte-char literals
//! (distinguished from lifetimes), raw identifiers (`r#fn`), and numeric
//! literals (without swallowing a trailing method call: `x.0.unwrap()`
//! lexes the `0` and stops before `.unwrap`). Comment *contents* are not
//! tokenised — a `.unwrap()` inside a doc comment or a string can never
//! fire a rule — but comments are still harvested for `audit:allow(<rule>)`
//! suppression directives.

/// What kind of lexeme a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `let`, `unwrap`, `r#match`).
    Ident,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A string, raw-string, byte-string, char or byte-char literal. The
    /// token's text is the raw literal, contents included — rules match on
    /// [`TokenKind::Ident`] text, so literal contents can never fire one.
    Literal,
    /// A numeric literal (`42`, `0xff`, `1_000u64`, `2.5`).
    Number,
    /// Punctuation. One character per token (`.`, `{`, `!`, …) except the
    /// path separator `::`, which lexes as a single two-character token;
    /// other multi-character operators are consecutive `Punct` tokens.
    Punct,
}

/// One lexeme with its source position and brace depth.
#[derive(Clone, Debug)]
pub struct Token {
    /// What kind of lexeme this is.
    pub kind: TokenKind,
    /// The token's text, verbatim from the source.
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: usize,
    /// 1-based column (in chars) of the token's first character.
    pub col: usize,
    /// Brace nesting depth: a `{` and its matching `}` carry the *same*
    /// depth, and every token between them carries `depth + 1`. The
    /// matching close of the `{` at index `i` is therefore the first `}`
    /// after `i` with equal depth ([`matching_close`]).
    pub depth: u32,
}

impl Token {
    /// True when this token is the identifier `text`.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One `audit:allow(<rule>)` suppression directive harvested from a comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the directive appears on.
    pub line: usize,
    /// The rule name between the parentheses (kebab-case).
    pub rule: String,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// Every `audit:allow(...)` directive found in comments.
    pub allows: Vec<Allow>,
    /// How many lines the source has.
    pub n_lines: usize,
}

/// Extracts `audit:allow(<rule>, <rule>)` names from one line of comment text.
/// Only names in the rule charset (`[a-z0-9-]`) are harvested, so prose
/// placeholders like `audit:allow(<rule>)` in documentation do not count
/// as directives.
fn harvest_allows(comment: &str, line: usize, allows: &mut Vec<Allow>) {
    let mut rest = comment;
    while let Some(at) = rest.find("audit:allow(") {
        rest = &rest[at + "audit:allow(".len()..];
        let Some(close) = rest.find(')') else { return };
        for rule in rest[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty()
                && rule
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                allows.push(Allow {
                    line,
                    rule: rule.to_string(),
                });
            }
        }
        rest = &rest[close + 1..];
    }
}

/// A cursor over the source chars, tracking line and column.
struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and suppression directives.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Lexed {
        n_lines: src.lines().count(),
        ..Lexed::default()
    };
    let mut depth: u32 = 0;

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);

        // --- whitespace --------------------------------------------------
        if c.is_whitespace() {
            cur.bump();
            continue;
        }

        // --- line comment ------------------------------------------------
        if c == '/' && cur.peek(1) == Some('/') {
            let mut text = String::new();
            while cur.peek(0).is_some_and(|c| c != '\n') {
                text.push(cur.bump().unwrap_or('\n'));
            }
            harvest_allows(&text, line, &mut out.allows);
            continue;
        }

        // --- block comment (nested) --------------------------------------
        if c == '/' && cur.peek(1) == Some('*') {
            let mut nest = 0usize;
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                if c == '/' && cur.peek(1) == Some('*') {
                    nest += 1;
                    cur.bump();
                    cur.bump();
                } else if c == '*' && cur.peek(1) == Some('/') {
                    nest -= 1;
                    cur.bump();
                    cur.bump();
                    if nest == 0 {
                        break;
                    }
                } else if c == '\n' {
                    harvest_allows(&text, cur.line, &mut out.allows);
                    text.clear();
                    cur.bump();
                } else {
                    text.push(c);
                    cur.bump();
                }
            }
            harvest_allows(&text, cur.line, &mut out.allows);
            continue;
        }

        // --- raw strings & raw idents: r"…", r#"…"#, br"…", r#ident ------
        if c == 'r' || (c == 'b' && cur.peek(1) == Some('r')) {
            let prefix = if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while cur.peek(prefix + hashes) == Some('#') {
                hashes += 1;
            }
            if cur.peek(prefix + hashes) == Some('"') {
                let mut text = String::new();
                for _ in 0..prefix + hashes + 1 {
                    text.push(cur.bump().unwrap_or('"'));
                }
                'raw: while let Some(c) = cur.peek(0) {
                    if c == '"' {
                        let mut k = 0;
                        while k < hashes && cur.peek(1 + k) == Some('#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..hashes + 1 {
                                text.push(cur.bump().unwrap_or('"'));
                            }
                            break 'raw;
                        }
                    }
                    text.push(cur.bump().unwrap_or('"'));
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text,
                    line,
                    col,
                    depth,
                });
                continue;
            }
            if c == 'r' && hashes == 1 && cur.peek(2).is_some_and(is_ident_start) {
                // Raw identifier `r#match`: lex as an ident (keeping the
                // prefix in the text, which no rule matches on anyway).
                let mut text = String::new();
                text.push(cur.bump().unwrap_or('r'));
                text.push(cur.bump().unwrap_or('#'));
                while cur.peek(0).is_some_and(is_ident_continue) {
                    text.push(cur.bump().unwrap_or('_'));
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text,
                    line,
                    col,
                    depth,
                });
                continue;
            }
        }

        // --- byte-char literal: b'x' -------------------------------------
        if c == 'b' && cur.peek(1) == Some('\'') {
            let mut text = String::new();
            text.push(cur.bump().unwrap_or('b'));
            lex_char_body(&mut cur, &mut text);
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line,
                col,
                depth,
            });
            continue;
        }

        // --- plain / byte strings ----------------------------------------
        if c == '"' || (c == 'b' && cur.peek(1) == Some('"')) {
            let mut text = String::new();
            if c == 'b' {
                text.push(cur.bump().unwrap_or('b'));
            }
            text.push(cur.bump().unwrap_or('"'));
            while let Some(c) = cur.peek(0) {
                if c == '\\' {
                    text.push(cur.bump().unwrap_or('\\'));
                    if let Some(esc) = cur.bump() {
                        text.push(esc);
                    }
                } else if c == '"' {
                    text.push(cur.bump().unwrap_or('"'));
                    break;
                } else {
                    text.push(cur.bump().unwrap_or('"'));
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line,
                col,
                depth,
            });
            continue;
        }

        // --- char literal vs lifetime ------------------------------------
        if c == '\'' {
            let is_char = match cur.peek(1) {
                Some('\\') => true,
                Some(n) if is_ident_start(n) => cur.peek(2) == Some('\''),
                Some(_) => true, // '{', '.', … — punctuation chars
                None => false,
            };
            if is_char {
                let mut text = String::new();
                lex_char_body(&mut cur, &mut text);
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text,
                    line,
                    col,
                    depth,
                });
            } else {
                let mut text = String::new();
                text.push(cur.bump().unwrap_or('\''));
                while cur.peek(0).is_some_and(is_ident_continue) {
                    text.push(cur.bump().unwrap_or('_'));
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                    col,
                    depth,
                });
            }
            continue;
        }

        // --- identifiers & keywords --------------------------------------
        if is_ident_start(c) {
            let mut text = String::new();
            while cur.peek(0).is_some_and(is_ident_continue) {
                text.push(cur.bump().unwrap_or('_'));
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
                col,
                depth,
            });
            continue;
        }

        // --- numbers -----------------------------------------------------
        if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    text.push(cur.bump().unwrap_or('0'));
                } else if c == '.' && cur.peek(1).is_some_and(|n| n.is_ascii_digit()) {
                    // `1.5` continues the number; `1..10` and `x.0.unwrap()`
                    // stop before the dot.
                    text.push(cur.bump().unwrap_or('.'));
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text,
                line,
                col,
                depth,
            });
            continue;
        }

        // --- punctuation -------------------------------------------------
        // One char per token, except `::` which lexes as a single token so
        // path patterns (`std::sync::Mutex`, `Request::Federate`) match as
        // written and a path separator never collides with a field's `:`.
        if c == ':' && cur.peek(1) == Some(':') {
            cur.bump();
            cur.bump();
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: "::".to_string(),
                line,
                col,
                depth,
            });
            continue;
        }
        let c = cur.bump().unwrap_or(' ');
        let token_depth = match c {
            '{' => {
                let d = depth;
                depth += 1;
                d
            }
            '}' => {
                depth = depth.saturating_sub(1);
                depth
            }
            _ => depth,
        };
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
            col,
            depth: token_depth,
        });
    }

    out
}

/// Consumes a char-literal body starting at the opening `'`.
fn lex_char_body(cur: &mut Cursor, text: &mut String) {
    text.push(cur.bump().unwrap_or('\'')); // opening quote
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(cur.bump().unwrap_or('\\'));
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == '\'' {
            text.push(cur.bump().unwrap_or('\''));
            break;
        } else {
            text.push(cur.bump().unwrap_or('\''));
        }
    }
}

/// The index of the `}` matching the `{` at `open` (same [`Token::depth`]).
pub fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let depth = tokens.get(open)?.depth;
    tokens[open + 1..]
        .iter()
        .position(|t| t.is_punct('}') && t.depth == depth)
        .map(|off| open + 1 + off)
}

/// True when `tokens[at..]` starts with exactly the texts in `seq`
/// (idents and punctuation compared by text; literals never match).
pub fn match_seq(tokens: &[Token], at: usize, seq: &[&str]) -> bool {
    seq.iter().enumerate().all(|(k, want)| {
        tokens.get(at + k).is_some_and(|t| {
            t.text == *want && matches!(t.kind, TokenKind::Ident | TokenKind::Punct)
        })
    })
}

/// One `fn` item: its name and the token indices of its body braces.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index of the body's `{`.
    pub open: usize,
    /// Token index of the body's matching `}`.
    pub close: usize,
}

/// Every `fn` item in the stream, nested functions included (each appears
/// as its own entry; a nested body is inside its parent's token range).
pub fn functions(tokens: &[Token]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(` in a function-pointer type
        }
        // Walk to the body `{`, skipping the parameter list, generics and
        // return type; a `;` at bracket depth 0 means a body-less decl.
        let mut brackets = 0i64;
        let mut open = None;
        for (j, t) in tokens.iter().enumerate().skip(i + 2) {
            if t.kind != TokenKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "(" | "[" => brackets += 1,
                ")" | "]" => brackets -= 1,
                "{" if brackets == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if brackets == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = matching_close(tokens, open) else {
            continue;
        };
        fns.push(FnItem {
            name: name_tok.text.clone(),
            line: tokens[i].line,
            open,
            close,
        });
    }
    fns
}

/// Marks every line inside a `#[test]` / `#[cfg(test)]` / `#[cfg(all(test`
/// item body (including the closing brace's line). Index 0 is line 1.
pub fn test_lines(lexed: &Lexed) -> Vec<bool> {
    let tokens = &lexed.tokens;
    let mut mask = vec![false; lexed.n_lines];
    let mut pending: Option<u32> = None;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let marks_test = match tokens.get(i + 2) {
                Some(t) if t.is_ident("test") => true,
                Some(t) if t.is_ident("cfg") => {
                    match_seq(tokens, i + 3, &["(", "test"])
                        || match_seq(tokens, i + 3, &["(", "all", "(", "test"])
                }
                _ => false,
            };
            if marks_test {
                pending = Some(t.depth);
            }
        } else if t.is_punct(';') && pending == Some(t.depth) {
            pending = None; // attribute on a brace-less item: `mod t;`
        } else if t.is_punct('{') && pending == Some(t.depth) {
            pending = None;
            let close = matching_close(tokens, i).unwrap_or(tokens.len() - 1);
            let (from, to) = (t.line, tokens[close].line);
            for line in from..=to.min(lexed.n_lines) {
                if line >= 1 {
                    mask[line - 1] = true;
                }
            }
            i = close; // regions never interleave; jump past this one
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_produce_no_idents() {
        let l = lex("let x = \".unwrap()\"; // .unwrap()\nlet y = 1;\n");
        let ids = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>();
        assert_eq!(ids, vec!["let", "x", "let", "y"]);
        // The string literal is one token; its contents never match idents.
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text.contains(".unwrap()")));
    }

    #[test]
    fn raw_strings_any_hash_count_are_one_literal() {
        for src in [
            "let s = r\"println!(1)\";",
            "let s = r#\"println!(\"x\")\"#;",
            "let s = r##\"a \"# b\"##;",
            "let s = br#\"bytes\"#;",
        ] {
            let ids = idents(src);
            assert_eq!(ids, vec!["let", "s"], "{src}");
        }
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let ids = idents("a /* outer /* inner */ still comment */ b");
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let l = lex("fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        // The brace inside the char literal must not affect depth: the
        // function body's close is found.
        let open = l.tokens.iter().position(|t| t.is_punct('{')).unwrap();
        assert!(matching_close(&l.tokens, open).is_some());
        let braces = l.tokens.iter().filter(|t| t.is_punct('{')).count();
        assert_eq!(braces, 1);
    }

    #[test]
    fn byte_char_literals_do_not_start_lifetimes() {
        let ids = idents("let nl = b'\\n'; let q = b'{'; done();");
        assert_eq!(ids, vec!["let", "nl", "let", "q", "done"]);
    }

    #[test]
    fn numbers_stop_before_method_calls_and_ranges() {
        let l = lex("x.0.unwrap(); for i in 1..10 { } let f = 2.5e3;");
        assert!(l.tokens.iter().any(|t| t.is_ident("unwrap")));
        let numbers: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text.as_str())
            .collect();
        assert!(numbers.contains(&"0"));
        assert!(numbers.contains(&"1"));
        assert!(numbers.contains(&"10"));
        assert!(numbers.contains(&"2.5e3"));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("let r#match = 1; use_it(r#match);");
        assert!(ids.contains(&"r#match".to_string()));
        assert!(ids.contains(&"use_it".to_string()));
    }

    #[test]
    fn depth_pairs_braces() {
        let l = lex("fn f() { if x { y(); } }");
        let opens: Vec<_> = l.tokens.iter().filter(|t| t.is_punct('{')).collect();
        let closes: Vec<_> = l.tokens.iter().filter(|t| t.is_punct('}')).collect();
        assert_eq!(opens[0].depth, 0);
        assert_eq!(opens[1].depth, 1);
        assert_eq!(closes[0].depth, 1); // inner close pairs inner open
        assert_eq!(closes[1].depth, 0);
    }

    #[test]
    fn allow_directives_are_harvested_with_lines() {
        let l = lex(
            "x(); // audit:allow(guard-across-solve, wire-exhaustive)\n// audit:allow(unused-suppression)\ny();\n",
        );
        let got: Vec<(usize, &str)> = l.allows.iter().map(|a| (a.line, a.rule.as_str())).collect();
        assert_eq!(
            got,
            vec![
                (1, "guard-across-solve"),
                (1, "wire-exhaustive"),
                (2, "unused-suppression"),
            ]
        );
    }

    #[test]
    fn directives_inside_strings_or_with_placeholders_do_not_count() {
        assert!(lex("let s = \"audit:allow(guard-across-solve)\";\n")
            .allows
            .is_empty());
        // Documentation writing `audit:allow(<rule>)` is prose, not a
        // directive: the placeholder is outside the rule-name charset.
        assert!(lex("// suppress with audit:allow(<rule>) on the line\n")
            .allows
            .is_empty());
    }

    #[test]
    fn functions_find_bodies_past_generics_and_return_types() {
        let l = lex(
            "fn a<T: Into<U>>(x: [u8; 4]) -> BTreeMap<K, V> { body(); }\nfn decl();\nfn b() {}\n",
        );
        let fns = functions(&l.tokens);
        let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert!(l.tokens[fns[0].open].is_punct('{'));
        assert!(l.tokens[fns[0].close].is_punct('}'));
    }

    #[test]
    fn test_line_masks_cover_cfg_test_and_test_fns() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        let l = lex(src);
        let mask = test_lines(&l);
        assert!(!mask[0], "fn f is not a test");
        assert!(mask[2] && mask[3] && mask[4] && mask[5], "{mask:?}");
        // A brace-less attribute target opens no region.
        let l = lex("#[cfg(test)]\nmod tests;\nfn g() { x(); }\n");
        let mask = test_lines(&l);
        assert!(!mask[2]);
    }
}
