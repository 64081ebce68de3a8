//! A small Rust lexer for the whole-workspace analyses.
//!
//! The token rules in [`crate::rules`] work on the per-line stripped code
//! view of [`crate::source`]; the flow-sensitive analyses (items, call
//! graph, panic reachability) need a token stream instead. This lexer is a
//! second, independent implementation of Rust's lexical structure —
//! comments, string/char/byte literals (raw and cooked), lifetimes,
//! numbers, identifiers, punctuation — which lets the test suite diff the
//! two implementations against each other over every workspace file (see
//! `lexer_agrees_with_strip` in the lint tests): a divergence means one of
//! them mis-lexed, which historically is how the raw-/byte-string bugs in
//! `source::strip` were found.
//!
//! The lexer is lossy where the analyses don't care: literal *contents*
//! are dropped (a string becomes one [`TokenKind::Literal`] token), and
//! multi-character operators are emitted as single-character
//! [`TokenKind::Punct`] tokens (`::` is two `:` tokens). Both are enough
//! to parse item structure and call sites.

/// What a token is; contents are only kept for identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `impl`, `unwrap`, …).
    Ident,
    /// Lifetime (`'a`) — the tick plus the name, kept distinct from char
    /// literals.
    Lifetime,
    /// Any literal: string/raw string/byte string/char/byte/number.
    /// Contents are dropped so later passes can never match inside them.
    Literal,
    /// One punctuation character (`.`, `(`, `{`, `!`, `:`, …).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's class.
    pub kind: TokenKind,
    /// Identifier text (empty for literals and lifetimes), or the single
    /// punctuation character.
    pub text: String,
    /// 1-indexed source line of the token's first character.
    pub line: usize,
}

impl Token {
    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }
}

/// Lexes `text` into a token stream, skipping comments and whitespace.
///
/// Unterminated constructs (a string or block comment still open at EOF)
/// simply end the stream — the lexer is for analysis, not compilation, so
/// it never fails.
pub fn lex(text: &str) -> Vec<Token> {
    Lexer {
        chars: text.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if is_ident_start(c) => self.ident_or_prefixed_literal(),
                _ => {
                    self.push(TokenKind::Punct, c.to_string());
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String) {
        self.out.push(Token {
            kind,
            text,
            line: self.line,
        });
    }

    /// Advances one char, tracking line numbers.
    fn bump(&mut self) {
        if self.chars.get(self.pos) == Some(&'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn line_comment(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos] != '\n' {
            self.pos += 1;
        }
    }

    /// Nested block comment: `/* /* */ */` only closes at depth zero.
    fn block_comment(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.chars.len() {
            if self.chars[self.pos] == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.chars[self.pos] == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    /// Cooked string starting at the opening `"`: `\` escapes the next
    /// character (so `\"` does not close).
    fn string(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while self.pos < self.chars.len() {
            match self.chars[self.pos] {
                '\\' => {
                    self.bump();
                    self.bump();
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => self.bump(),
            }
        }
        self.out.push(Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        });
    }

    /// Raw string starting at the first `#` or `"` after the `r`/`br`
    /// prefix: `r##"…"##` closes only on `"` followed by the same number
    /// of hashes. Backslashes are NOT escapes inside raw strings.
    fn raw_string(&mut self) {
        let line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        while self.pos < self.chars.len() {
            if self.chars[self.pos] == '"' && (1..=hashes).all(|k| self.peek(k) == Some('#')) {
                for _ in 0..=hashes {
                    self.bump();
                }
                break;
            }
            self.bump();
        }
        self.out.push(Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        });
    }

    /// `'a` lifetime vs `'x'` / `'\n'` char literal, starting at the tick.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Escaped char literal: `'\…'` — scan to the closing tick,
        // honouring `\\` and `\'`.
        if self.peek(1) == Some('\\') {
            self.bump(); // tick
            self.bump(); // backslash
            self.bump(); // escaped char
                         // Multi-char escapes (`\x41`, `\u{…}`): consume to the tick.
            while self.pos < self.chars.len() && self.chars[self.pos] != '\'' {
                self.bump();
            }
            self.bump(); // closing tick
            self.out.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
            });
            return;
        }
        // `'c'` (any single char, including `'` via the escape path above).
        if self.peek(2) == Some('\'') && self.peek(1) != Some('\'') {
            self.bump();
            self.bump();
            self.bump();
            self.out.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
            });
            return;
        }
        // Lifetime: tick + identifier.
        self.bump();
        let mut name = String::new();
        while self.peek(0).is_some_and(is_ident_continue) {
            name.push(self.chars[self.pos]);
            self.bump();
        }
        self.out.push(Token {
            kind: TokenKind::Lifetime,
            text: name,
            line,
        });
    }

    /// Number literal: digits, `_`, radix prefixes, exponents, type
    /// suffixes — all folded into one [`TokenKind::Literal`]. A trailing
    /// `.` is included only when followed by a digit (so `1.max(2)` lexes
    /// the method call).
    fn number(&mut self) {
        let line = self.line;
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.bump();
            }
        }
        // Signed exponent (`1e-3`): the alnum scan stops at the sign.
        if self.peek(0) == Some('-') || self.peek(0) == Some('+') {
            let prev = self.chars[self.pos - 1];
            if (prev == 'e' || prev == 'E') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                while self
                    .peek(0)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    self.bump();
                }
            }
        }
        self.out.push(Token {
            kind: TokenKind::Literal,
            text: String::new(),
            line,
        });
    }

    /// Identifier, keyword, or a literal prefix (`r"`, `r#"`, `b"`, `br"`,
    /// `b'`, `r#ident` raw identifiers).
    fn ident_or_prefixed_literal(&mut self) {
        let start = self.pos;
        let mut ident = String::new();
        while self.peek(0).is_some_and(is_ident_continue) {
            ident.push(self.chars[self.pos]);
            self.bump();
        }
        let next = self.peek(0);
        match (ident.as_str(), next) {
            // Raw string / raw byte string prefixes.
            ("r" | "br", Some('"')) => self.raw_string(),
            ("r" | "br", Some('#')) => {
                // `r#"…"#` raw string vs `r#ident` raw identifier: a raw
                // string has `"` after the hashes.
                let mut k = 0;
                while self.peek(k) == Some('#') {
                    k += 1;
                }
                if self.peek(k) == Some('"') {
                    self.raw_string();
                } else if ident == "r" {
                    // Raw identifier `r#ident`: skip the hash, lex the name.
                    self.bump();
                    self.ident_or_prefixed_literal();
                } else {
                    self.push_ident_at(start, ident);
                }
            }
            // Cooked byte string `b"…"` / byte char `b'…'`.
            ("b", Some('"')) => self.string(),
            ("b", Some('\'')) => self.char_or_lifetime(),
            _ => self.push_ident_at(start, ident),
        }
    }

    fn push_ident_at(&mut self, start: usize, ident: String) {
        // Recover the line of the ident's first char: idents never span
        // lines, so the current line is correct unless bump crossed one —
        // it cannot have, but keep the invariant explicit.
        let _ = start;
        self.out.push(Token {
            kind: TokenKind::Ident,
            text: ident,
            line: self.line,
        });
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<(usize, String)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.line, t.text))
            .collect()
    }

    #[test]
    fn idents_and_lines() {
        let toks = idents("fn main() {\n    let x = foo();\n}");
        assert_eq!(
            toks,
            vec![
                (1, "fn".into()),
                (1, "main".into()),
                (2, "let".into()),
                (2, "x".into()),
                (2, "foo".into()),
            ]
        );
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let toks =
            idents("a(); // unwrap()\n/* panic! /* nested */ still */ b();\n\"expect(\" c();");
        assert_eq!(
            toks,
            vec![(1, "a".into()), (2, "b".into()), (3, "c".into())]
        );
    }

    #[test]
    fn raw_and_byte_strings_are_single_literals() {
        for src in [
            "let s = r#\"unwrap() \"inner\" panic!\"#; done();",
            "let s = br#\"unwrap() \\\"#; done();",
            "let s = b\"unwrap()\"; done();",
            "let s = r\"unwrap()\"; done();",
            "let s = r##\"one \"# two\"##; done();",
        ] {
            let ids = idents(src);
            assert!(
                ids.iter().all(|(_, t)| t != "unwrap" && t != "panic"),
                "{src}: {ids:?}"
            );
            assert!(ids.iter().any(|(_, t)| t == "done"), "{src}: {ids:?}");
        }
    }

    #[test]
    fn multiline_raw_string_tracks_lines() {
        let toks = idents("let s = r#\"line one\nline two\"#;\nafter();");
        assert_eq!(toks.last().unwrap(), &(3, "after".to_string()));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let toks = lex("fn f<'a>(x: &'a str) { let q = '\"'; let e = '\\''; }");
        let lifetimes: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        // The quote/escaped-quote char literals must not open string state:
        // the closing brace survives as punctuation.
        assert!(toks.iter().any(|t| t.is_punct('}')));
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = idents("let x = 1.max(2) + 0xff + 1.0e-3 + 10usize;");
        assert!(toks.iter().any(|(_, t)| t == "max"));
        assert!(!toks
            .iter()
            .any(|(_, t)| t == "ff" || t == "e" || t == "usize"));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = idents("let r#type = r#match();");
        assert!(toks.iter().any(|(_, t)| t == "type"));
        assert!(toks.iter().any(|(_, t)| t == "match"));
    }
}
