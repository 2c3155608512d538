//! Language-independent lexing infrastructure.
//!
//! Both HDL front-ends produce the same [`Token`] stream shape; only comment
//! syntax, literal formats, and identifier rules differ, and those live in
//! the per-language lexers ([`crate::vhdl::lexer`], [`crate::verilog::lexer`]).

use crate::error::{ParseError, ParseResult};
use crate::span::Span;
use std::fmt;

/// What kind of token this is.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keyword-ness is decided by the parsers).
    Ident,
    /// Integer literal, already decoded to a value.
    Int(i64),
    /// Real literal; Dovado only needs these to skip over them.
    Real(f64),
    /// String literal with quotes stripped.
    Str(String),
    /// Character literal (VHDL `'0'`) with quotes stripped.
    Char(char),
    /// Punctuation or operator; the text field holds the lexeme (`"("`,
    /// `"**"`, `"<="`, ...).
    Sym,
    /// End of input.
    Eof,
}

/// One lexed token. Its text borrows the source it was lexed from, so
/// lexing allocates nothing per token but a string literal's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token class.
    pub kind: TokenKind,
    /// The lexeme as written: the source slice under [`Token::span`]
    /// (identifiers keep their original case). Escaped and extended
    /// identifiers are the exception: the text leaves out their
    /// delimiters (a Verilog `\name`'s leading backslash, a VHDL
    /// `\name\`'s two), and a VHDL doubled backslash stays doubled.
    pub text: &'a str,
    /// Source location.
    pub span: Span,
}

impl<'a> Token<'a> {
    /// End-of-file token at the given span.
    pub fn eof(span: Span) -> Self {
        Token {
            kind: TokenKind::Eof,
            text: "",
            span,
        }
    }

    /// True if this token is an identifier equal to `kw` ignoring case.
    pub fn is_kw_ci(&self, kw: &str) -> bool {
        self.kind == TokenKind::Ident && self.text.eq_ignore_ascii_case(kw)
    }

    /// True if this token is an identifier exactly equal to `kw`.
    pub fn is_kw(&self, kw: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == kw
    }

    /// True if this token is the given punctuation/operator.
    pub fn is_sym(&self, sym: &str) -> bool {
        self.kind == TokenKind::Sym && self.text == sym
    }

    /// True if this is the end-of-file marker.
    pub fn is_eof(&self) -> bool {
        self.kind == TokenKind::Eof
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TokenKind::Eof => write!(f, "<eof>"),
            TokenKind::Str(s) => write!(f, "\"{s}\""),
            _ => write!(f, "{}", self.text),
        }
    }
}

/// A character cursor with byte-offset and line/column tracking.
///
/// HDL sources are almost all ASCII, so each step reads one byte and
/// decodes a UTF-8 character only when that byte is not ASCII.
pub struct Cursor<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    /// Creates a cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// The full source text.
    pub fn source(&self) -> &'a str {
        self.src
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True when all input has been consumed.
    pub fn at_eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// The character starting at byte offset `at`, if any.
    fn char_at(&self, at: usize) -> Option<char> {
        match self.src.as_bytes().get(at) {
            Some(&b) if b.is_ascii() => Some(b as char),
            Some(_) => self.src[at..].chars().next(),
            None => None,
        }
    }

    /// Peeks at the next character without consuming it.
    pub fn peek(&self) -> Option<char> {
        self.char_at(self.pos)
    }

    /// Peeks at the character after the next one.
    pub fn peek2(&self) -> Option<char> {
        let next = self.peek()?;
        self.char_at(self.pos + next.len_utf8())
    }

    /// Consumes and returns the next character.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Consumes the next character if it equals `c`.
    pub fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consumes characters while `pred` holds; returns the consumed slice.
    pub fn eat_while(&mut self, mut pred: impl FnMut(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if pred(c) {
                self.bump();
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    /// Skips to (and past) the end of the current line.
    pub fn skip_line(&mut self) {
        while let Some(c) = self.bump() {
            if c == '\n' {
                break;
            }
        }
    }

    /// Marker for [`Cursor::span_from`].
    pub fn mark(&self) -> (usize, u32, u32) {
        (self.pos, self.line, self.col)
    }

    /// Builds the span from a previously taken [`Cursor::mark`] to the
    /// current position.
    pub fn span_from(&self, mark: (usize, u32, u32)) -> Span {
        Span::new(mark.0, self.pos, mark.1, mark.2)
    }

    /// The source text from a previously taken [`Cursor::mark`] to the
    /// current position.
    pub fn text_from(&self, mark: (usize, u32, u32)) -> &'a str {
        &self.src[mark.0..self.pos]
    }

    /// A token of `kind` spanning from `mark` to the current position,
    /// its text the source slice it spans.
    pub fn token_from(&self, mark: (usize, u32, u32), kind: TokenKind) -> Token<'a> {
        Token {
            kind,
            text: self.text_from(mark),
            span: self.span_from(mark),
        }
    }

    /// Span of zero width at the current position (for EOF tokens).
    pub fn here(&self) -> Span {
        Span::new(self.pos, self.pos, self.line, self.col)
    }
}

/// A token vector sized for `source`: a declaration-heavy HDL text holds
/// about one token per four bytes, so most files lex without regrowing it.
pub(crate) fn token_buffer<'a>(source: &str) -> Vec<Token<'a>> {
    Vec::with_capacity(source.len() / 4 + 8)
}

/// A finished token stream with parser-friendly accessors.
///
/// Consuming a token only moves the cursor; [`TokenStream::next_tok`]
/// hands out a copy, which borrows the same source text.
#[derive(Debug, Clone)]
pub struct TokenStream<'a> {
    tokens: Vec<Token<'a>>,
    idx: usize,
}

impl<'a> TokenStream<'a> {
    /// Wraps a token vector; appends an EOF token if missing.
    pub fn new(mut tokens: Vec<Token<'a>>) -> Self {
        if tokens.last().is_none_or(|t| !t.is_eof()) {
            let span = tokens.last().map(|t| t.span).unwrap_or_default();
            tokens.push(Token::eof(span));
        }
        TokenStream { tokens, idx: 0 }
    }

    /// The token about to be consumed.
    pub fn peek(&self) -> &Token<'a> {
        &self.tokens[self.idx.min(self.tokens.len() - 1)]
    }

    /// Looks `n` tokens ahead (0 = same as [`TokenStream::peek`]).
    pub fn peek_n(&self, n: usize) -> &Token<'a> {
        let i = (self.idx + n).min(self.tokens.len() - 1);
        &self.tokens[i]
    }

    /// Consumes the next token; past the end, the EOF token stays next.
    pub fn advance(&mut self) {
        if self.idx < self.tokens.len() - 1 {
            self.idx += 1;
        }
    }

    /// Consumes and returns the next token.
    pub fn next_tok(&mut self) -> Token<'a> {
        let t = self.peek().clone();
        self.advance();
        t
    }

    /// Current position (for backtracking).
    pub fn save(&self) -> usize {
        self.idx
    }

    /// Restores a position previously returned by [`TokenStream::save`].
    pub fn restore(&mut self, idx: usize) {
        self.idx = idx;
    }

    /// True when only the EOF token remains.
    pub fn at_eof(&self) -> bool {
        self.peek().is_eof()
    }

    /// Consumes the next token if it is the symbol `sym`.
    pub fn eat_sym(&mut self, sym: &str) -> bool {
        let hit = self.peek().is_sym(sym);
        if hit {
            self.advance();
        }
        hit
    }

    /// Consumes the next token if it is the keyword `kw` (case-insensitive).
    pub fn eat_kw_ci(&mut self, kw: &str) -> bool {
        let hit = self.peek().is_kw_ci(kw);
        if hit {
            self.advance();
        }
        hit
    }

    /// Consumes the next token if it is exactly the keyword `kw`.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = self.peek().is_kw(kw);
        if hit {
            self.advance();
        }
        hit
    }

    /// Requires the symbol `sym` next, consuming it; returns its span.
    pub fn expect_sym(&mut self, sym: &str) -> ParseResult<Span> {
        if self.peek().is_sym(sym) {
            let span = self.peek().span;
            self.advance();
            Ok(span)
        } else {
            Err(ParseError::new(
                format!("expected `{sym}`, found `{}`", self.peek()),
                self.peek().span,
            ))
        }
    }

    /// Requires an identifier next, consuming and returning it.
    pub fn expect_ident(&mut self) -> ParseResult<Token<'a>> {
        if self.peek().kind == TokenKind::Ident {
            Ok(self.next_tok())
        } else {
            Err(ParseError::new(
                format!("expected identifier, found `{}`", self.peek()),
                self.peek().span,
            ))
        }
    }

    /// Requires the case-insensitive keyword `kw` next, consuming it;
    /// returns its span.
    pub fn expect_kw_ci(&mut self, kw: &str) -> ParseResult<Span> {
        if self.peek().is_kw_ci(kw) {
            let span = self.peek().span;
            self.advance();
            Ok(span)
        } else {
            Err(ParseError::new(
                format!("expected keyword `{kw}`, found `{}`", self.peek()),
                self.peek().span,
            ))
        }
    }

    /// Skips tokens until one of `syms` (or EOF) is the next token.
    /// Returns the matched symbol text, if any.
    ///
    /// Used for error recovery and for skipping uninteresting bodies.
    pub fn skip_until_sym(&mut self, syms: &[&str]) -> Option<&'a str> {
        loop {
            let t = self.peek();
            if t.is_eof() {
                return None;
            }
            if t.kind == TokenKind::Sym && syms.contains(&t.text) {
                return Some(t.text);
            }
            self.advance();
        }
    }

    /// Skips a balanced parenthesised region assuming the opening `(` has
    /// already been consumed. Respects nesting.
    pub fn skip_balanced_parens(&mut self) -> ParseResult<()> {
        let mut depth = 1usize;
        loop {
            let t = self.peek();
            if t.is_eof() {
                return Err(ParseError::new("unbalanced parentheses", t.span));
            }
            if t.is_sym("(") {
                depth += 1;
            } else if t.is_sym(")") {
                depth -= 1;
            }
            self.advance();
            if depth == 0 {
                return Ok(());
            }
        }
    }

    /// Total number of tokens (including EOF).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the stream contains only the EOF token.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= 1
    }
}

/// How deep an expression may nest in either parser. The outermost
/// expression is level 1; each parenthesis, call argument, ternary
/// branch, prefix operator and chained binary operator opens one more, so
/// the cap also bounds the depth of the expression tree. Both parsers
/// recurse per level, so the cap bounds their stack use on hostile input;
/// like the serve protocol's JSON cap it is fixed, far above what real
/// HDL nests.
pub const MAX_EXPR_DEPTH: usize = 256;

/// The error for an expression that opens level [`MAX_EXPR_DEPTH`]` + 1`
/// at `span`.
pub fn expr_too_deep(span: Span) -> ParseError {
    ParseError::new(
        format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"),
        span,
    )
}

/// Runs `f` on a thread with an 8 MiB stack, a main thread's size, for
/// the parsers' depth-cap tests: debug builds spend up to ~7 KB of stack
/// per expression level (a release build under 1.4 KB), so 256 levels
/// can outgrow a 2 MiB test thread.
#[cfg(test)]
pub(crate) fn with_main_stack(f: impl FnOnce() + Send + 'static) {
    let run = std::thread::Builder::new().stack_size(8 << 20).spawn(f);
    if let Err(panic) = run.unwrap().join() {
        std::panic::resume_unwind(panic);
    }
}

/// Shared helper: decode a decimal integer literal, tolerating `_`
/// separators (legal in both languages).
pub fn parse_decimal(text: &str) -> Option<i64> {
    if !text.contains('_') {
        return text.parse::<i64>().ok();
    }
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    clean.parse::<i64>().ok()
}

/// Shared helper: decode a real literal, tolerating `_` separators.
pub fn parse_real(text: &str) -> Option<f64> {
    if !text.contains('_') {
        return text.parse().ok();
    }
    text.replace('_', "").parse().ok()
}

/// Shared helper: decode digits of the given radix, tolerating `_`.
/// Verilog `x`/`z`/`?` digits decode as 0 (Dovado only needs a value to
/// carry defaults around, and x/z bits are "unknown anyway").
pub fn parse_radix(text: &str, radix: u32) -> Option<i64> {
    let mut value: i64 = 0;
    let mut any = false;
    for c in text.chars() {
        if c == '_' {
            continue;
        }
        let d = if matches!(c, 'x' | 'X' | 'z' | 'Z' | '?') {
            0
        } else {
            c.to_digit(radix)? as i64
        };
        value = value.checked_mul(radix as i64)?.checked_add(d)?;
        any = true;
    }
    if any {
        Some(value)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(kind: TokenKind, text: &str) -> Token<'_> {
        Token {
            kind,
            text,
            span: Span::dummy(),
        }
    }

    #[test]
    fn cursor_tracks_lines_and_cols() {
        let mut c = Cursor::new("ab\ncd");
        assert_eq!(c.bump(), Some('a'));
        assert_eq!(c.bump(), Some('b'));
        assert_eq!(c.bump(), Some('\n'));
        let m = c.mark();
        assert_eq!(m.1, 2); // line 2
        assert_eq!(m.2, 1); // col 1
        assert_eq!(c.bump(), Some('c'));
        let sp = c.span_from(m);
        assert_eq!(sp.slice(c.source()), "c");
    }

    #[test]
    fn cursor_eat_while() {
        let mut c = Cursor::new("abc123");
        let s = c.eat_while(|ch| ch.is_ascii_alphabetic());
        assert_eq!(s, "abc");
        assert_eq!(c.peek(), Some('1'));
    }

    #[test]
    fn cursor_peek2() {
        let c = Cursor::new("xy");
        assert_eq!(c.peek(), Some('x'));
        assert_eq!(c.peek2(), Some('y'));
    }

    #[test]
    fn cursor_skip_line() {
        let mut c = Cursor::new("-- comment\nnext");
        c.skip_line();
        assert_eq!(c.peek(), Some('n'));
    }

    #[test]
    fn cursor_handles_utf8() {
        let mut c = Cursor::new("é9");
        assert_eq!(c.bump(), Some('é'));
        assert_eq!(c.peek(), Some('9'));
    }

    #[test]
    fn stream_appends_eof() {
        let ts = TokenStream::new(vec![tok(TokenKind::Ident, "a")]);
        assert_eq!(ts.len(), 2);
        assert!(!ts.at_eof());
    }

    #[test]
    fn stream_peek_next_save_restore() {
        let mut ts = TokenStream::new(vec![tok(TokenKind::Ident, "a"), tok(TokenKind::Sym, "(")]);
        let save = ts.save();
        assert_eq!(ts.next_tok().text, "a");
        assert!(ts.peek().is_sym("("));
        ts.restore(save);
        assert_eq!(ts.peek().text, "a");
    }

    #[test]
    fn stream_next_past_eof_is_safe() {
        let mut ts = TokenStream::new(vec![]);
        for _ in 0..5 {
            assert!(ts.next_tok().is_eof());
        }
    }

    #[test]
    fn stream_expect_and_eat() {
        let mut ts = TokenStream::new(vec![
            tok(TokenKind::Ident, "Entity"),
            tok(TokenKind::Ident, "box"),
            tok(TokenKind::Sym, "("),
            tok(TokenKind::Sym, ")"),
        ]);
        assert!(ts.eat_kw_ci("ENTITY"));
        let id = ts.expect_ident().unwrap();
        assert_eq!(id.text, "box");
        assert!(ts.expect_sym("(").is_ok());
        assert!(ts.expect_sym("(").is_err());
        assert!(ts.eat_sym(")"));
    }

    #[test]
    fn stream_kw_exact_vs_ci() {
        let mut ts = TokenStream::new(vec![tok(TokenKind::Ident, "Module")]);
        assert!(!ts.eat_kw("module"));
        assert!(ts.eat_kw_ci("module"));
    }

    #[test]
    fn skip_until_sym_finds_target() {
        let mut ts = TokenStream::new(vec![
            tok(TokenKind::Ident, "x"),
            tok(TokenKind::Int(3), "3"),
            tok(TokenKind::Sym, ";"),
            tok(TokenKind::Ident, "rest"),
        ]);
        assert_eq!(ts.skip_until_sym(&[";"]), Some(";"));
        assert!(ts.peek().is_sym(";"));
    }

    #[test]
    fn skip_until_sym_eof_returns_none() {
        let mut ts = TokenStream::new(vec![tok(TokenKind::Ident, "x")]);
        assert_eq!(ts.skip_until_sym(&[";"]), None);
    }

    #[test]
    fn skip_balanced_parens_nested() {
        let mut ts = TokenStream::new(vec![
            tok(TokenKind::Sym, "("),
            tok(TokenKind::Ident, "a"),
            tok(TokenKind::Sym, ")"),
            tok(TokenKind::Sym, ")"),
            tok(TokenKind::Ident, "after"),
        ]);
        // Outer "(" assumed consumed; stream starts inside.
        ts.skip_balanced_parens().unwrap();
        assert_eq!(ts.peek().text, "after");
    }

    #[test]
    fn skip_balanced_parens_unbalanced_errors() {
        let mut ts = TokenStream::new(vec![tok(TokenKind::Sym, "("), tok(TokenKind::Ident, "a")]);
        assert!(ts.skip_balanced_parens().is_err());
    }

    #[test]
    fn decimal_with_underscores() {
        assert_eq!(parse_decimal("1_000_000"), Some(1_000_000));
        assert_eq!(parse_decimal("42"), Some(42));
        assert_eq!(parse_decimal("x"), None);
    }

    #[test]
    fn radix_decoding() {
        assert_eq!(parse_radix("ff", 16), Some(255));
        assert_eq!(parse_radix("1010", 2), Some(10));
        assert_eq!(parse_radix("777", 8), Some(511));
        assert_eq!(parse_radix("1x0z", 2), Some(8)); // x/z decode as 0
        assert_eq!(parse_radix("", 16), None);
        assert_eq!(parse_radix("g", 16), None);
    }
}
