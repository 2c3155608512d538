//! Verilog / SystemVerilog lexer.
//!
//! Handles `//` and `/* */` comments, simple and escaped identifiers,
//! system identifiers (`$clog2`), sized/based literals (`8'hFF`, `'d10`,
//! `'1`), decimal/real literals, compiler directives (skipped or recorded),
//! and the operator set needed for declaration parsing.

use crate::error::{ParseError, ParseResult};
use crate::lexer::{
    parse_decimal, parse_radix, parse_real, token_buffer, Cursor, Token, TokenKind, TokenStream,
};
use crate::span::Span;

/// Multi-character operators, longest first so maximal munch works.
const MULTI_SYMS: &[&str] = &[
    "<<<", ">>>", "===", "!==", "<->", "**", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "::",
    "+:", "-:", "->", "'{",
];

/// Directives whose whole line is irrelevant to interface extraction.
const LINE_DIRECTIVES: &[&str] = &[
    "define",
    "undef",
    "timescale",
    "ifdef",
    "ifndef",
    "elsif",
    "else",
    "endif",
    "default_nettype",
    "celldefine",
    "endcelldefine",
    "resetall",
    "pragma",
    "line",
    "unconnected_drive",
    "nounconnected_drive",
    "begin_keywords",
    "end_keywords",
];

/// Lexes a Verilog/SystemVerilog buffer into a token stream whose texts
/// borrow `source`.
pub fn lex(source: &str) -> ParseResult<TokenStream<'_>> {
    let mut cur = Cursor::new(source);
    let mut out: Vec<Token> = token_buffer(source);

    loop {
        // Whitespace and comments.
        loop {
            cur.eat_while(|c| c.is_whitespace());
            if cur.peek() == Some('/') && cur.peek2() == Some('/') {
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

        // Compiler directives.
        if c == '`' {
            cur.bump();
            let word = cur.eat_while(|ch| ch.is_ascii_alphanumeric() || ch == '_');
            if word == "include" {
                // `include "file" — emit a marker symbol; the string token
                // follows naturally.
                out.push(cur.token_from(mark, TokenKind::Sym));
                continue;
            }
            if LINE_DIRECTIVES.contains(&word) {
                cur.skip_line();
                continue;
            }
            // Macro usage: treat as an identifier spelled with the backtick
            // so downstream width expressions stay symbolic.
            out.push(cur.token_from(mark, TokenKind::Ident));
            continue;
        }

        // Identifiers / keywords / system identifiers.
        if c.is_ascii_alphabetic() || c == '_' || c == '$' {
            cur.eat_while(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '$');
            out.push(cur.token_from(mark, TokenKind::Ident));
            continue;
        }

        // Escaped identifier: backslash up to whitespace.
        if c == '\\' {
            cur.bump();
            let word = cur.eat_while(|ch| !ch.is_whitespace());
            if word.is_empty() {
                return Err(ParseError::new(
                    "empty escaped identifier",
                    cur.span_from(mark),
                ));
            }
            out.push(Token {
                kind: TokenKind::Ident,
                text: word,
                span: cur.span_from(mark),
            });
            continue;
        }

        // Unsized based literal or unbased unsized literal: 'd10, 'h FF, '0, '1, 'x, 'z
        if c == '\'' && !matches!(cur.peek2(), Some('{')) {
            cur.bump();
            cur.eat('s');
            cur.eat('S');
            let b = cur.peek();
            match b {
                Some('b' | 'B' | 'o' | 'O' | 'd' | 'D' | 'h' | 'H') => {
                    let radix = match b.expect("peeked") {
                        'b' | 'B' => 2,
                        'o' | 'O' => 8,
                        'd' | 'D' => 10,
                        _ => 16,
                    };
                    cur.bump();
                    cur.eat_while(|ch| ch.is_whitespace());
                    let digits =
                        cur.eat_while(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '?');
                    let value = parse_radix(digits, radix).ok_or_else(|| {
                        ParseError::new(
                            format!("invalid digits `{digits}` for base {radix}"),
                            cur.span_from(mark),
                        )
                    })?;
                    out.push(cur.token_from(mark, TokenKind::Int(value)));
                }
                Some('0' | '1' | 'x' | 'X' | 'z' | 'Z') => {
                    let d = cur.bump().expect("peeked");
                    let value = if d == '1' { 1 } else { 0 };
                    out.push(cur.token_from(mark, TokenKind::Int(value)));
                }
                _ => {
                    // Lone tick (e.g. cast `int'(x)`): emit as a symbol.
                    // A signedness `s` read after it is dropped.
                    let (start, line, col) = mark;
                    out.push(Token {
                        kind: TokenKind::Sym,
                        text: &source[start..start + 1],
                        span: Span::new(start, start + 1, line, col),
                    });
                }
            }
            continue;
        }

        // Numbers: sized literal, decimal, real.
        if c.is_ascii_digit() {
            let digits = cur.eat_while(|ch| ch.is_ascii_digit() || ch == '_');
            // Sized based literal: 8'hFF
            if cur.peek() == Some('\'')
                && matches!(
                    cur.peek2(),
                    Some('b' | 'B' | 'o' | 'O' | 'd' | 'D' | 'h' | 'H' | 's' | 'S')
                )
            {
                cur.bump(); // '
                cur.eat('s');
                cur.eat('S');
                let bc = cur.bump().ok_or_else(|| {
                    ParseError::new("truncated based literal", cur.span_from(mark))
                })?;
                let radix = match bc {
                    'b' | 'B' => 2,
                    'o' | 'O' => 8,
                    'd' | 'D' => 10,
                    'h' | 'H' => 16,
                    other => {
                        return Err(ParseError::new(
                            format!("invalid base character `{other}`"),
                            cur.span_from(mark),
                        ))
                    }
                };
                cur.eat_while(|ch| ch.is_whitespace());
                let body = cur.eat_while(|ch| ch.is_ascii_alphanumeric() || ch == '_' || ch == '?');
                let value = parse_radix(body, radix).ok_or_else(|| {
                    ParseError::new(
                        format!("invalid digits `{body}` for base {radix}"),
                        cur.span_from(mark),
                    )
                })?;
                out.push(cur.token_from(mark, TokenKind::Int(value)));
                continue;
            }
            // Real literal.
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
            let value = parse_decimal(digits).ok_or_else(|| {
                ParseError::new(format!("invalid integer `{digits}`"), cur.span_from(mark))
            })?;
            out.push(cur.token_from(mark, TokenKind::Int(value)));
            continue;
        }

        // String literal with backslash escapes.
        if c == '"' {
            cur.bump();
            let mut text = String::new();
            loop {
                match cur.bump() {
                    Some('"') => break,
                    Some('\\') => {
                        let esc = cur.bump().ok_or_else(|| {
                            ParseError::new("unterminated string literal", cur.span_from(mark))
                        })?;
                        text.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
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

        // Multi-char operators.
        let rest = &cur.source()[cur.pos()..];
        if let Some(sym) = MULTI_SYMS.iter().find(|s| rest.starts_with(**s)) {
            for _ in 0..sym.len() {
                cur.bump();
            }
            out.push(cur.token_from(mark, TokenKind::Sym));
            continue;
        }

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

    fn all(src: &str) -> Vec<Token<'_>> {
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
    fn identifiers_and_system_ids() {
        let toks = all("module fifo $clog2 _x a$b");
        assert_eq!(toks[0].text, "module");
        assert_eq!(toks[1].text, "fifo");
        assert_eq!(toks[2].text, "$clog2");
        assert_eq!(toks[3].text, "_x");
        assert_eq!(toks[4].text, "a$b");
    }

    #[test]
    fn escaped_identifier() {
        let toks = all(r"\bus-sel! x");
        assert_eq!(toks[0].text, "bus-sel!");
        assert_eq!(toks[1].text, "x");
    }

    #[test]
    fn comments_skipped() {
        let toks = all("a // line 'h\n b /* block\n*/ c");
        let texts: Vec<_> = toks.iter().take(3).map(|t| t.text).collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn sized_literals() {
        let toks = all("8'hFF 4'b1010 12'd100 8'sh7F");
        assert_eq!(toks[0].kind, TokenKind::Int(255));
        assert_eq!(toks[1].kind, TokenKind::Int(10));
        assert_eq!(toks[2].kind, TokenKind::Int(100));
        assert_eq!(toks[3].kind, TokenKind::Int(127));
    }

    #[test]
    fn unsized_based_literals() {
        let toks = all("'d10 'hff '0 '1");
        assert_eq!(toks[0].kind, TokenKind::Int(10));
        assert_eq!(toks[1].kind, TokenKind::Int(255));
        assert_eq!(toks[2].kind, TokenKind::Int(0));
        assert_eq!(toks[3].kind, TokenKind::Int(1));
    }

    #[test]
    fn xz_digits_decode_to_zero() {
        let toks = all("4'b1x1z");
        assert_eq!(toks[0].kind, TokenKind::Int(0b1010));
    }

    #[test]
    fn decimal_and_real() {
        let toks = all("42 1_000 3.5 2.5e3");
        assert_eq!(toks[0].kind, TokenKind::Int(42));
        assert_eq!(toks[1].kind, TokenKind::Int(1000));
        assert_eq!(toks[2].kind, TokenKind::Real(3.5));
        assert_eq!(toks[3].kind, TokenKind::Real(2500.0));
    }

    #[test]
    fn directives_skipped() {
        let toks = all("`timescale 1ns/1ps\n`define W 8\nmodule m;");
        assert_eq!(toks[0].text, "module");
    }

    #[test]
    fn include_directive_recorded() {
        let toks = all("`include \"defs.svh\"\nmodule m;");
        assert!(toks[0].is_sym("`include"));
        assert!(matches!(&toks[1].kind, TokenKind::Str(s) if s == "defs.svh"));
        assert_eq!(toks[2].text, "module");
    }

    #[test]
    fn macro_usage_becomes_identifier() {
        let toks = all("parameter W = `WIDTH;");
        assert_eq!(toks[3].text, "`WIDTH");
        assert_eq!(toks[3].kind, TokenKind::Ident);
    }

    #[test]
    fn multi_char_operators() {
        let toks = all(":: <= >= == ** << >> <<<");
        let texts: Vec<_> = toks.iter().take(8).map(|t| t.text).collect();
        assert_eq!(texts, vec!["::", "<=", ">=", "==", "**", "<<", ">>", "<<<"]);
    }

    #[test]
    fn string_with_escapes() {
        let toks = all(r#""a\n\"b""#);
        assert!(matches!(&toks[0].kind, TokenKind::Str(s) if s == "a\n\"b"));
    }

    #[test]
    fn cast_tick_is_symbol() {
        let toks = all("int'(x)");
        assert_eq!(toks[0].text, "int");
        assert!(toks[1].is_sym("'"));
        assert!(toks[2].is_sym("("));
    }

    #[test]
    fn sized_literal_with_space() {
        let toks = all("8'h FF");
        assert_eq!(toks[0].kind, TokenKind::Int(255));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("a /* b").is_err());
    }

    #[test]
    fn assignment_pattern_tick_brace() {
        let toks = all("'{0, 1}");
        assert!(toks[0].is_sym("'{"));
    }

    #[test]
    fn token_texts_are_slices_of_the_source() {
        let src = "module m #(parameter W = 8'hFF, R = 2.5) (input [3:0] a);\n`WIDTH <<< 'd3 \"s\" \\esc+id x";
        let mut ts = lex(src).unwrap();
        while !ts.at_eof() {
            let t = ts.next_tok();
            let (start, end) = (t.span.start, t.span.end);
            // An escaped identifier's text leaves out its backslash.
            let lexeme = if src[start..].starts_with('\\') {
                &src[start + 1..end]
            } else {
                &src[start..end]
            };
            assert_eq!(t.text, lexeme);
            assert!(
                std::ptr::eq(t.text.as_ptr(), lexeme.as_ptr()),
                "`{}` is a copy",
                t.text
            );
        }
    }

    #[test]
    fn string_literal_value_is_decoded_and_its_text_is_the_lexeme() {
        let toks = all(r#"x "a\n\"b\\" y"#);
        assert_eq!(toks[1].kind, TokenKind::Str("a\n\"b\\".into()));
        assert_eq!(toks[1].text, r#""a\n\"b\\""#);
        assert_eq!(toks[1].to_string(), "\"a\n\"b\\\"");
        assert_eq!(toks[2].text, "y");
    }

    #[test]
    fn a_lone_tick_is_one_character_even_after_a_signedness_s() {
        let toks = all("int'(x) 's(");
        assert!(toks[1].is_sym("'"));
        assert!(toks[5].is_sym("'"));
        assert_eq!((toks[5].span.start, toks[5].span.end), (8, 9));
        // The `s` is consumed with the tick.
        assert!(toks[6].is_sym("("));
    }
}
