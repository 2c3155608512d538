//! VHDL lexer.
//!
//! Handles `--` line comments, VHDL-2008 `/* */` block comments, basic and
//! extended (`\...\`) identifiers, decimal and based (`16#FF#`) literals,
//! character/string/bit-string literals, and the VHDL operator set.
//!
//! Attribute ticks (`clk'event`) are disambiguated from character literals
//! by lookahead: `'x'` is a character literal only when the closing quote is
//! exactly one character away.

use crate::error::{ParseError, ParseResult};
use crate::lexer::{
    parse_decimal, parse_radix, parse_real, token_buffer, Cursor, Token, TokenKind, TokenStream,
};

/// Multi-character VHDL operators, longest first.
const MULTI_SYMS: &[&str] = &["**", ":=", "=>", "<=", ">=", "/=", "<>", "<<", ">>", "??"];

/// Lexes a VHDL buffer into a token stream whose texts borrow `source`.
pub fn lex(source: &str) -> ParseResult<TokenStream<'_>> {
    let mut cur = Cursor::new(source);
    let mut out: Vec<Token> = token_buffer(source);

    loop {
        // Skip whitespace and comments.
        loop {
            cur.eat_while(|c| c.is_whitespace());
            if cur.peek() == Some('-') && cur.peek2() == Some('-') {
                cur.skip_line();
                continue;
            }
            if cur.peek() == Some('/') && cur.peek2() == Some('*') {
                let mark = cur.mark();
                cur.bump();
                cur.bump();
                let mut closed = false;
                while let Some(c) = cur.bump() {
                    if c == '*' && cur.peek() == Some('/') {
                        cur.bump();
                        closed = true;
                        break;
                    }
                }
                if !closed {
                    return Err(ParseError::new(
                        "unterminated block comment",
                        cur.span_from(mark),
                    ));
                }
                continue;
            }
            break;
        }

        if cur.at_eof() {
            out.push(Token::eof(cur.here()));
            break;
        }

        let mark = cur.mark();
        let c = cur.peek().expect("not at EOF");

        // Identifiers / keywords / bit-string prefixes.
        if c.is_ascii_alphabetic() {
            let word = cur.eat_while(|ch| ch.is_ascii_alphanumeric() || ch == '_');
            // Bit-string literal such as x"FF" / b"1010" / o"77" (and 2008
            // signed/unsigned variants ux"", sb"", ...).
            let is_bitstring_prefix = word.len() <= 2
                && ["x", "b", "o", "d", "ux", "sx", "ub", "sb", "uo", "so"]
                    .iter()
                    .any(|prefix| word.eq_ignore_ascii_case(prefix));
            if is_bitstring_prefix && cur.peek() == Some('"') {
                cur.bump();
                let mut text = String::new();
                loop {
                    match cur.bump() {
                        Some('"') => break,
                        Some(ch) => text.push(ch),
                        None => {
                            return Err(ParseError::new(
                                "unterminated bit-string literal",
                                cur.span_from(mark),
                            ))
                        }
                    }
                }
                out.push(cur.token_from(mark, TokenKind::Str(text)));
                continue;
            }
            out.push(cur.token_from(mark, TokenKind::Ident));
            continue;
        }

        // Extended identifier \...\ . The text is what lies between the
        // delimiters, a doubled backslash still doubled: the parser
        // un-doubles it when it makes the name (see `parser::name`).
        if c == '\\' {
            cur.bump();
            let start = cur.pos();
            loop {
                match cur.bump() {
                    Some('\\') => {
                        if cur.peek() == Some('\\') {
                            // doubled backslash inside extended identifier
                            cur.bump();
                        } else {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => {
                        return Err(ParseError::new(
                            "unterminated extended identifier",
                            cur.span_from(mark),
                        ))
                    }
                }
            }
            out.push(Token {
                kind: TokenKind::Ident,
                text: &source[start..cur.pos() - 1],
                span: cur.span_from(mark),
            });
            continue;
        }

        // Numeric literals: decimal, based, real.
        if c.is_ascii_digit() {
            let digits = cur.eat_while(|ch| ch.is_ascii_digit() || ch == '_');
            // Based literal: 16#FF# or 2#1010#
            if cur.peek() == Some('#') {
                cur.bump();
                let radix: u32 = parse_decimal(digits)
                    .and_then(|v| u32::try_from(v).ok())
                    .filter(|r| (2..=16).contains(r))
                    .ok_or_else(|| {
                        ParseError::new(format!("invalid base `{digits}`"), cur.span_from(mark))
                    })?;
                let body = cur.eat_while(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '.');
                if !cur.eat('#') {
                    return Err(ParseError::new(
                        "unterminated based literal",
                        cur.span_from(mark),
                    ));
                }
                // Optional exponent.
                if matches!(cur.peek(), Some('e') | Some('E')) {
                    cur.bump();
                    cur.eat('+');
                    cur.eat_while(|ch| ch.is_ascii_digit());
                }
                let value = parse_radix(body, radix).ok_or_else(|| {
                    ParseError::new(
                        format!("invalid digits `{body}` for base {radix}"),
                        cur.span_from(mark),
                    )
                })?;
                out.push(cur.token_from(mark, TokenKind::Int(value)));
                continue;
            }
            // Real literal: 1.5, 1.5e3
            if cur.peek() == Some('.') && cur.peek2().is_some_and(|d| d.is_ascii_digit()) {
                cur.bump();
                cur.eat_while(|ch| ch.is_ascii_digit() || ch == '_');
                if matches!(cur.peek(), Some('e') | Some('E')) {
                    cur.bump();
                    if matches!(cur.peek(), Some('+') | Some('-')) {
                        cur.bump();
                    }
                    cur.eat_while(|ch| ch.is_ascii_digit());
                }
                let text = cur.text_from(mark);
                let value = parse_real(text).ok_or_else(|| {
                    ParseError::new(
                        format!("invalid real literal `{text}`"),
                        cur.span_from(mark),
                    )
                })?;
                out.push(cur.token_from(mark, TokenKind::Real(value)));
                continue;
            }
            // Integer with optional exponent (1e3 is an integer in VHDL).
            let mut value = parse_decimal(digits).ok_or_else(|| {
                ParseError::new(format!("invalid integer `{digits}`"), cur.span_from(mark))
            })?;
            if matches!(cur.peek(), Some('e') | Some('E'))
                && cur.peek2().is_some_and(|d| d.is_ascii_digit() || d == '+')
            {
                cur.bump();
                cur.eat('+');
                let exp_digits = cur.eat_while(|ch| ch.is_ascii_digit());
                let exp = parse_decimal(exp_digits).unwrap_or(0);
                for _ in 0..exp {
                    value = value.checked_mul(10).ok_or_else(|| {
                        ParseError::new("integer literal overflow", cur.span_from(mark))
                    })?;
                }
            }
            out.push(cur.token_from(mark, TokenKind::Int(value)));
            continue;
        }

        // String literal with "" escaping.
        if c == '"' {
            cur.bump();
            let mut text = String::new();
            loop {
                match cur.bump() {
                    Some('"') => {
                        if cur.peek() == Some('"') {
                            cur.bump();
                            text.push('"');
                        } else {
                            break;
                        }
                    }
                    Some(ch) => text.push(ch),
                    None => {
                        return Err(ParseError::new(
                            "unterminated string literal",
                            cur.span_from(mark),
                        ))
                    }
                }
            }
            out.push(cur.token_from(mark, TokenKind::Str(text)));
            continue;
        }

        // Character literal vs attribute tick.
        if c == '\'' {
            // 'x' is a char literal only if pattern is '<char>' exactly.
            let mut rest = cur.source()[cur.pos()..].chars().skip(1);
            if let (Some(ch), Some('\'')) = (rest.next(), rest.next()) {
                cur.bump(); // '
                cur.bump(); // the character
                cur.bump(); // '
                out.push(cur.token_from(mark, TokenKind::Char(ch)));
                continue;
            }
            cur.bump();
            out.push(cur.token_from(mark, TokenKind::Sym));
            continue;
        }

        // Multi-char operators.
        let rest = &cur.source()[cur.pos()..];
        if let Some(sym) = MULTI_SYMS.iter().find(|s| rest.starts_with(**s)) {
            for _ in 0..sym.len() {
                cur.bump();
            }
            out.push(cur.token_from(mark, TokenKind::Sym));
            continue;
        }

        // Single-char symbol.
        let ch = cur.bump().expect("not at EOF");
        if ch.is_ascii_graphic() {
            out.push(cur.token_from(mark, TokenKind::Sym));
        } else {
            return Err(ParseError::new(
                format!("unexpected character `{ch}` (U+{:04X})", ch as u32),
                cur.span_from(mark),
            ));
        }
    }

    Ok(TokenStream::new(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::TokenKind;

    fn kinds(src: &str) -> Vec<Token<'_>> {
        let mut ts = lex(src).unwrap();
        let mut out = Vec::new();
        loop {
            let t = ts.next_tok();
            let eof = t.is_eof();
            out.push(t);
            if eof {
                break;
            }
        }
        out
    }

    #[test]
    fn lexes_identifiers_and_keywords() {
        let toks = kinds("entity Box is end;");
        assert_eq!(toks[0].text, "entity");
        assert_eq!(toks[1].text, "Box");
        assert!(toks[0].is_kw_ci("ENTITY"));
        assert!(toks[3].is_kw_ci("end"));
        assert!(toks[4].is_sym(";"));
    }

    #[test]
    fn skips_line_comments() {
        let toks = kinds("a -- comment ' \" stuff\nb");
        assert_eq!(toks[0].text, "a");
        assert_eq!(toks[1].text, "b");
    }

    #[test]
    fn skips_block_comments() {
        let toks = kinds("a /* multi\nline */ b");
        assert_eq!(toks[0].text, "a");
        assert_eq!(toks[1].text, "b");
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("a /* no end").is_err());
    }

    #[test]
    fn decimal_literals() {
        let toks = kinds("42 1_000");
        assert_eq!(toks[0].kind, TokenKind::Int(42));
        assert_eq!(toks[1].kind, TokenKind::Int(1000));
    }

    #[test]
    fn integer_exponent() {
        let toks = kinds("1e3");
        assert_eq!(toks[0].kind, TokenKind::Int(1000));
    }

    #[test]
    fn based_literals() {
        let toks = kinds("16#FF# 2#1010# 8#17#");
        assert_eq!(toks[0].kind, TokenKind::Int(255));
        assert_eq!(toks[1].kind, TokenKind::Int(10));
        assert_eq!(toks[2].kind, TokenKind::Int(15));
    }

    #[test]
    fn invalid_base_errors() {
        assert!(lex("17#0#").is_err());
        assert!(lex("16#GG#").is_err());
        assert!(lex("16#12").is_err());
    }

    #[test]
    fn real_literals() {
        let toks = kinds("3.25 1.0e-2");
        assert_eq!(toks[0].kind, TokenKind::Real(3.25));
        assert_eq!(toks[1].kind, TokenKind::Real(0.01));
    }

    #[test]
    fn char_literal_vs_attribute_tick() {
        let toks = kinds("'1' clk'event");
        assert_eq!(toks[0].kind, TokenKind::Char('1'));
        assert_eq!(toks[1].text, "clk");
        assert!(toks[2].is_sym("'"));
        assert_eq!(toks[3].text, "event");
    }

    #[test]
    fn string_with_escape() {
        let toks = kinds(r#""hello ""world""""#);
        assert_eq!(toks[0].kind, TokenKind::Str("hello \"world\"".into()));
    }

    #[test]
    fn bit_string_literals() {
        let toks = kinds("x\"FF\" b\"1010\"");
        assert!(matches!(&toks[0].kind, TokenKind::Str(s) if s == "FF"));
        assert!(matches!(&toks[1].kind, TokenKind::Str(s) if s == "1010"));
    }

    #[test]
    fn extended_identifier() {
        let toks = kinds(r"\weird name!\ x");
        assert_eq!(toks[0].kind, TokenKind::Ident);
        assert_eq!(toks[0].text, "weird name!");
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn multi_char_operators() {
        let toks = kinds(":= => <= ** /= <>");
        let texts: Vec<_> = toks.iter().take(6).map(|t| t.text).collect();
        assert_eq!(texts, vec![":=", "=>", "<=", "**", "/=", "<>"]);
    }

    #[test]
    fn spans_point_into_source() {
        let src = "entity foo is";
        let mut ts = lex(src).unwrap();
        ts.next_tok();
        let t = ts.next_tok();
        assert_eq!(t.span.slice(src), "foo");
        assert_eq!(t.span.line, 1);
        assert_eq!(t.span.col, 8);
    }

    #[test]
    fn empty_input_is_just_eof() {
        let mut ts = lex("").unwrap();
        assert!(ts.next_tok().is_eof());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn extended_identifier_keeps_a_doubled_backslash_as_written() {
        // The text is the slice between the delimiters; the parser makes
        // the name `a\b` (see `parser::name`).
        let toks = kinds(r"\a\\b\ x");
        assert_eq!(toks[0].kind, TokenKind::Ident);
        assert_eq!(toks[0].text, r"a\\b");
        assert_eq!(toks[0].span.slice(r"\a\\b\ x"), r"\a\\b\");
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn literal_values_are_decoded_and_their_texts_are_the_lexemes() {
        let src = r#"x"FF" "say ""hi""" 'x' 16#1F#"#;
        let toks = kinds(src);
        assert_eq!(toks[0].kind, TokenKind::Str("FF".into()));
        assert_eq!(toks[0].text, r#"x"FF""#);
        assert_eq!(toks[1].kind, TokenKind::Str(r#"say "hi""#.into()));
        assert_eq!(toks[1].text, r#""say ""hi""""#);
        assert_eq!(toks[2].kind, TokenKind::Char('x'));
        assert_eq!(toks[2].text, "'x'");
        assert_eq!(toks[3].kind, TokenKind::Int(31));
        assert_eq!(toks[3].text, "16#1F#");
        for t in &toks[..4] {
            assert_eq!(t.span.slice(src), t.text);
        }
    }
}
