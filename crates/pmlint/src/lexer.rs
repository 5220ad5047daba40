//! A minimal hand-rolled Rust lexer — just enough structure for the lint
//! rules: identifiers, punctuation, literals, and a per-line comment map.
//!
//! The lexer is deliberately lossy (no keywords, no full literal grammar)
//! but it is *sound* about the things that matter for linting: comments and
//! string/char literals never leak tokens, raw strings and nested block
//! comments are handled, and `'a` lifetimes are distinguished from `'x'`
//! char literals so the rest of a file cannot be swallowed by a phantom
//! quote.

use std::collections::HashMap;

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct(char),
    /// String literal (including raw/byte strings); `text` holds the
    /// unescaped-as-written contents.
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Identifier text or string-literal contents; empty for punctuation.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl Tok {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexer output: the token stream plus a map of line number → all comment
/// text on that line (line comments and block-comment fragments).
pub struct Lexed {
    /// Significant tokens in source order.
    pub tokens: Vec<Tok>,
    /// 1-based line number → concatenated comment text on that line.
    pub comments: HashMap<u32, String>,
    /// How each source line starts (index = line - 1).
    starts: Vec<LineStart>,
}

#[derive(Clone, Copy, PartialEq)]
enum LineStart {
    Comment,
    Attribute,
    Other,
}

impl Lexed {
    /// The one annotation lookup: the comment on `line` itself, then the
    /// `//` comment block directly above it — attribute lines are skipped, a
    /// blank line or a code line ends the block. Returns the first line
    /// (walking up) whose comment satisfies `pred`, with that comment.
    pub fn annotation(&self, line: u32, pred: impl Fn(&str) -> bool) -> Option<(u32, &str)> {
        let hit = |l: u32| {
            let c = self.comments.get(&l).filter(|c| pred(c))?;
            Some((l, c.as_str()))
        };
        let start = |l: u32| self.starts.get(l as usize - 1).copied();
        let above = (1..line)
            .rev()
            .take_while(|&l| start(l) != Some(LineStart::Other));
        hit(line).or_else(|| {
            let mut block = above.filter(|&l| start(l) == Some(LineStart::Comment));
            block.find_map(hit)
        })
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lex `source` into tokens and a comment map.
pub fn lex(source: &str) -> Lexed {
    let mut cur = Cursor {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut tokens = Vec::new();
    let mut comments: HashMap<u32, String> = HashMap::new();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if ch == b'\n' {
                        break;
                    }
                    text.push(ch as char);
                    cur.bump();
                }
                comments.entry(line).or_default().push_str(&text);
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                // Nested block comment; record text per spanned line.
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                let mut text = String::new();
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'\n'), _) => {
                            comments
                                .entry(cur.line)
                                .or_default()
                                .push_str(&std::mem::take(&mut text));
                            cur.bump();
                        }
                        (Some(ch), _) => {
                            text.push(ch as char);
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                comments.entry(cur.line).or_default().push_str(&text);
            }
            b'"' => {
                tokens.push(lex_string(&mut cur, line, col));
            }
            b'\'' => {
                tokens.push(lex_quote(&mut cur, line, col));
            }
            _ if c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch as char);
                    cur.bump();
                }
                tokens.push(Tok {
                    kind: TokKind::Num,
                    text,
                    line,
                    col,
                });
            }
            _ if is_ident_start(c) => {
                // Raw / byte string prefixes: r" r#" b" br" br#".
                if matches!(c, b'r' | b'b') {
                    if let Some(tok) = try_lex_prefixed_string(&mut cur, line, col) {
                        tokens.push(tok);
                        continue;
                    }
                }
                // Raw identifier `r#ident`: one Ident token whose text is
                // the part after `r#` (so `r#fn` compares equal to "fn"
                // nowhere, but HIR name matching still sees the name).
                if c == b'r'
                    && cur.peek_at(1) == Some(b'#')
                    && cur.peek_at(2).map(is_ident_start).unwrap_or(false)
                {
                    cur.bump();
                    cur.bump();
                    let mut text = String::new();
                    while let Some(ch) = cur.peek() {
                        if !is_ident_continue(ch) {
                            break;
                        }
                        text.push(ch as char);
                        cur.bump();
                    }
                    tokens.push(Tok {
                        kind: TokKind::Ident,
                        text,
                        line,
                        col,
                    });
                    continue;
                }
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch as char);
                    cur.bump();
                }
                tokens.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                tokens.push(Tok {
                    kind: TokKind::Punct(c as char),
                    text: String::new(),
                    line,
                    col,
                });
            }
        }
    }
    let starts = source
        .lines()
        .map(|l| match l.trim_start() {
            l if l.starts_with("//") => LineStart::Comment,
            l if l.starts_with("#[") || l.starts_with("#![") => LineStart::Attribute,
            _ => LineStart::Other,
        })
        .collect();
    Lexed {
        tokens,
        comments,
        starts,
    }
}

/// Plain string literal starting at the opening `"`.
fn lex_string(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(ch) = cur.bump() {
        match ch {
            b'\\' => {
                // Keep the escaped char verbatim; its value never matters
                // for linting, only that the literal terminates correctly.
                if let Some(esc) = cur.bump() {
                    text.push(esc as char);
                }
            }
            b'"' => break,
            _ => text.push(ch as char),
        }
    }
    Tok {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

/// `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` — returns `None` when the cursor is
/// on a plain identifier that merely starts with `r`/`b`.
fn try_lex_prefixed_string(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let mut ahead = 1;
    if cur.peek() == Some(b'b') && cur.peek_at(1) == Some(b'r') {
        ahead = 2;
    }
    let raw = ahead == 2 || cur.peek() == Some(b'r');
    let mut hashes = 0usize;
    if raw {
        while cur.peek_at(ahead + hashes) == Some(b'#') {
            hashes += 1;
        }
    }
    if cur.peek_at(ahead + hashes) != Some(b'"') {
        return None;
    }
    if !raw && hashes > 0 {
        return None;
    }
    for _ in 0..(ahead + hashes + 1) {
        cur.bump();
    }
    let mut text = String::new();
    if raw {
        // Raw string: ends at `"` followed by `hashes` hash marks.
        'outer: while let Some(ch) = cur.bump() {
            if ch == b'"' {
                for h in 0..hashes {
                    if cur.peek_at(h) != Some(b'#') {
                        text.push('"');
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
            text.push(ch as char);
        }
    } else {
        // Byte string: same escape handling as a plain string.
        while let Some(ch) = cur.bump() {
            match ch {
                b'\\' => {
                    if let Some(esc) = cur.bump() {
                        text.push(esc as char);
                    }
                }
                b'"' => break,
                _ => text.push(ch as char),
            }
        }
    }
    Some(Tok {
        kind: TokKind::Str,
        text,
        line,
        col,
    })
}

/// Disambiguate a lifetime from a char literal, starting at the `'`.
fn lex_quote(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    // Lifetime: 'ident NOT followed by a closing quote ('a, 'static).
    // Char:    'x' or '\n' or a multi-char escape.
    let next = cur.peek_at(1);
    let after = cur.peek_at(2);
    let is_lifetime =
        next.map(is_ident_start).unwrap_or(false) && after != Some(b'\'') && next != Some(b'\\');
    cur.bump(); // the quote
    if is_lifetime {
        let mut text = String::new();
        while let Some(ch) = cur.peek() {
            if !is_ident_continue(ch) {
                break;
            }
            text.push(ch as char);
            cur.bump();
        }
        return Tok {
            kind: TokKind::Lifetime,
            text,
            line,
            col,
        };
    }
    let mut text = String::new();
    while let Some(ch) = cur.bump() {
        match ch {
            b'\\' => {
                if let Some(esc) = cur.bump() {
                    text.push(esc as char);
                }
            }
            b'\'' => break,
            _ => text.push(ch as char),
        }
    }
    Tok {
        kind: TokKind::Char,
        text,
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_do_not_leak_tokens() {
        let l = lex("a // panic!(b)\n/* c [d] */ e");
        let idents: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, vec!["a", "e"]);
        assert!(l.comments.get(&1).is_some_and(|c| c.contains("panic")));
    }

    #[test]
    fn strings_and_chars_do_not_leak() {
        let l = lex(r#"f("unwrap [x]", 'y', '\'', b"z", r#raw)"#);
        let bad = l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "unwrap" || t.text == "x"));
        assert!(!bad);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let l = lex(r##"let s = r#"has "quote" inside"#; tail"##);
        assert!(l.tokens.iter().any(|t| t.is_ident("tail")));
        let s = l.tokens.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert!(s.text.contains("quote"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(l.tokens.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("a /* x /* y */ z */ b");
        let idents: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn positions_are_one_based() {
        let l = lex("ab\n  cd");
        assert_eq!((l.tokens[0].line, l.tokens[0].col), (1, 1));
        assert_eq!((l.tokens[1].line, l.tokens[1].col), (2, 3));
    }
}
