//! `expr` evaluator for the TCL subset.
//!
//! Handles the arithmetic/comparison/logical operators that appear in flow
//! scripts (`if {$wns < 0} { … }`, `expr {1000.0 / $period}` …). Values are
//! doubles internally; results print as integers when integral, matching
//! TCL's behaviour closely enough for the flow scripts.

use crate::error::{EdaError, EdaResult};

/// A value with its TCL "intness": written-as-integer operands divide
/// integrally, anything float-tainted divides as doubles.
#[derive(Debug, Clone, Copy, PartialEq)]
struct V {
    v: f64,
    int: bool,
}

impl V {
    fn int(v: f64) -> V {
        V { v, int: true }
    }
    fn float(v: f64) -> V {
        V { v, int: false }
    }
    fn join(self, other: V, v: f64) -> V {
        V {
            v,
            int: self.int && other.int,
        }
    }
}

/// How deeply an expression may nest. The whole expression is level 0;
/// each parenthesis, function argument, ternary branch, prefix operator
/// and `**` exponent opens one more level of the recursive descent.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Evaluates an expression string (after variable substitution).
pub fn eval_expr(src: &str) -> EdaResult<String> {
    eval_expr_at(src, 1)
}

/// [`eval_expr`] for an expression on script line `line`, which the error
/// for an expression nested deeper than [`MAX_EXPR_DEPTH`] names.
pub(crate) fn eval_expr_at(src: &str, line: u32) -> EdaResult<String> {
    let toks = tokenize(src)?;
    let mut p = E {
        toks,
        pos: 0,
        depth: 0,
        line,
        src: src.to_string(),
    };
    let v = p.ternary()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing tokens"));
    }
    Ok(if v.int {
        format!("{}", v.v as i64)
    } else {
        format_num(v.v)
    })
}

/// Formats a double the TCL way: integral values print without a decimal
/// point.
pub fn format_num(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Numeric literal; the bool records whether it was written as an
    /// integer (drives TCL's integer-division rule).
    Num(f64, bool),
    Str(String),
    Op(String),
}

fn tokenize(src: &str) -> EdaResult<Vec<Tok>> {
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_digit() || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
        {
            let start = i;
            // Hex literal.
            if c == '0' && matches!(chars.get(i + 1), Some('x') | Some('X')) {
                i += 2;
                while i < chars.len() && chars[i].is_ascii_hexdigit() {
                    i += 1;
                }
                let text: String = chars[start + 2..i].iter().collect();
                let v = i64::from_str_radix(&text, 16)
                    .map_err(|_| EdaError::Tcl(format!("bad hex literal in `{src}`")))?;
                out.push(Tok::Num(v as f64, true));
                continue;
            }
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || ((chars[i] == '+' || chars[i] == '-')
                        && matches!(chars.get(i.wrapping_sub(1)), Some('e') | Some('E'))))
            {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let v: f64 = text
                .parse()
                .map_err(|_| EdaError::Tcl(format!("bad number `{text}` in `{src}`")))?;
            let is_int = !text.contains('.') && !text.contains('e') && !text.contains('E');
            out.push(Tok::Num(v, is_int));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            match word.as_str() {
                "true" => out.push(Tok::Num(1.0, true)),
                "false" => out.push(Tok::Num(0.0, true)),
                // Function names are passed through as operators.
                "abs" | "int" | "round" | "floor" | "ceil" | "min" | "max" | "pow" | "sqrt"
                | "log2" => out.push(Tok::Op(word)),
                _ => out.push(Tok::Str(word)),
            }
            continue;
        }
        if c == '"' {
            i += 1;
            let start = i;
            while i < chars.len() && chars[i] != '"' {
                i += 1;
            }
            if i >= chars.len() {
                return Err(EdaError::Tcl(format!(
                    "unterminated string in expr `{src}`"
                )));
            }
            out.push(Tok::Str(chars[start..i].iter().collect()));
            i += 1;
            continue;
        }
        // Operators, longest first.
        let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        if ["**", "==", "!=", "<=", ">=", "&&", "||", "eq", "ne"].contains(&two.as_str()) {
            out.push(Tok::Op(two));
            i += 2;
            continue;
        }
        if "+-*/%()<>!,?:".contains(c) {
            out.push(Tok::Op(c.to_string()));
            i += 1;
            continue;
        }
        return Err(EdaError::Tcl(format!(
            "unexpected character `{c}` in expr `{src}`"
        )));
    }
    Ok(out)
}

struct E {
    toks: Vec<Tok>,
    pos: usize,
    /// Open nesting levels (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    line: u32,
    src: String,
}

impl E {
    fn err(&self, msg: &str) -> EdaError {
        EdaError::Tcl(format!("expr `{}`: {msg}", self.src))
    }

    /// Runs `level` one nesting level deeper. An error abandons the whole
    /// evaluation, so only the success path closes the level.
    fn nested(&mut self, level: fn(&mut E) -> EdaResult<V>) -> EdaResult<V> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(EdaError::Tcl(format!(
                "line {}: expression nests deeper than {MAX_EXPR_DEPTH} levels",
                self.line
            )));
        }
        self.depth += 1;
        let v = level(self)?;
        self.depth -= 1;
        Ok(v)
    }

    fn peek_op(&self) -> Option<&str> {
        match self.toks.get(self.pos) {
            Some(Tok::Op(o)) => Some(o.as_str()),
            _ => None,
        }
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if self.peek_op() == Some(op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ternary(&mut self) -> EdaResult<V> {
        let c = self.or()?;
        if self.eat_op("?") {
            let a = self.nested(E::ternary)?;
            if !self.eat_op(":") {
                return Err(self.err("expected `:`"));
            }
            let b = self.nested(E::ternary)?;
            return Ok(if c.v != 0.0 { a } else { b });
        }
        Ok(c)
    }

    fn or(&mut self) -> EdaResult<V> {
        let mut v = self.and()?;
        while self.eat_op("||") {
            let r = self.and()?;
            v = V::int((((v.v != 0.0) || (r.v != 0.0)) as i64) as f64);
        }
        Ok(v)
    }

    fn and(&mut self) -> EdaResult<V> {
        let mut v = self.cmp()?;
        while self.eat_op("&&") {
            let r = self.cmp()?;
            v = V::int((((v.v != 0.0) && (r.v != 0.0)) as i64) as f64);
        }
        Ok(v)
    }

    // `while let` can't hold the peeked &str across the mutating body.
    #[allow(clippy::while_let_loop)]
    fn cmp(&mut self) -> EdaResult<V> {
        let mut v = self.add()?;
        loop {
            let op = match self.peek_op() {
                Some(o @ ("==" | "!=" | "<" | ">" | "<=" | ">=")) => o.to_string(),
                _ => break,
            };
            self.pos += 1;
            let r = self.add()?;
            let b = match op.as_str() {
                "==" => v.v == r.v,
                "!=" => v.v != r.v,
                "<" => v.v < r.v,
                ">" => v.v > r.v,
                "<=" => v.v <= r.v,
                _ => v.v >= r.v,
            };
            v = V::int((b as i64) as f64);
        }
        Ok(v)
    }

    fn add(&mut self) -> EdaResult<V> {
        let mut v = self.mul()?;
        loop {
            if self.eat_op("+") {
                let r = self.mul()?;
                v = v.join(r, v.v + r.v);
            } else if self.eat_op("-") {
                let r = self.mul()?;
                v = v.join(r, v.v - r.v);
            } else {
                break;
            }
        }
        Ok(v)
    }

    fn mul(&mut self) -> EdaResult<V> {
        let mut v = self.pow()?;
        loop {
            if self.eat_op("*") {
                let r = self.pow()?;
                v = v.join(r, v.v * r.v);
            } else if self.eat_op("/") {
                let r = self.pow()?;
                if r.v == 0.0 {
                    return Err(self.err("division by zero"));
                }
                // Integer division only when both operands were written as
                // integers (TCL semantics).
                if v.int && r.int {
                    v = V::int(((v.v as i64).div_euclid(r.v as i64)) as f64);
                } else {
                    v = V::float(v.v / r.v);
                }
            } else if self.eat_op("%") {
                let r = self.pow()?;
                if r.v == 0.0 {
                    return Err(self.err("modulo by zero"));
                }
                v = V::int(((v.v as i64).rem_euclid(r.v as i64)) as f64);
            } else {
                break;
            }
        }
        Ok(v)
    }

    fn pow(&mut self) -> EdaResult<V> {
        let base = self.unary()?;
        if self.eat_op("**") {
            let e = self.nested(E::pow)?;
            return Ok(base.join(e, base.v.powf(e.v)));
        }
        Ok(base)
    }

    fn unary(&mut self) -> EdaResult<V> {
        // Unary minus binds below `**` in TCL: -2**2 == -(2**2).
        if self.eat_op("-") {
            let v = self.nested(E::pow)?;
            return Ok(V {
                v: -v.v,
                int: v.int,
            });
        }
        if self.eat_op("+") {
            return self.nested(E::pow);
        }
        if self.eat_op("!") {
            let v = self.nested(E::pow)?;
            return Ok(V::int(((v.v == 0.0) as i64) as f64));
        }
        self.primary()
    }

    fn primary(&mut self) -> EdaResult<V> {
        match self.toks.get(self.pos).cloned() {
            Some(Tok::Num(v, int)) => {
                self.pos += 1;
                Ok(V { v, int })
            }
            Some(Tok::Str(s)) => {
                // Bare strings must be numeric in our numeric-only expr.
                self.pos += 1;
                let int = !s.contains('.') && !s.contains('e') && !s.contains('E');
                s.parse::<f64>()
                    .map(|v| V { v, int })
                    .map_err(|_| self.err(&format!("non-numeric operand `{s}`")))
            }
            Some(Tok::Op(o)) if o == "(" => {
                self.pos += 1;
                let v = self.nested(E::ternary)?;
                if !self.eat_op(")") {
                    return Err(self.err("expected `)`"));
                }
                Ok(v)
            }
            Some(Tok::Op(f))
                if matches!(
                    f.as_str(),
                    "abs"
                        | "int"
                        | "round"
                        | "floor"
                        | "ceil"
                        | "min"
                        | "max"
                        | "pow"
                        | "sqrt"
                        | "log2"
                ) =>
            {
                self.pos += 1;
                if !self.eat_op("(") {
                    return Err(self.err(&format!("expected `(` after `{f}`")));
                }
                let mut args = vec![self.nested(E::ternary)?];
                while self.eat_op(",") {
                    args.push(self.nested(E::ternary)?);
                }
                if !self.eat_op(")") {
                    return Err(self.err("expected `)`"));
                }
                let vals: Vec<f64> = args.iter().map(|a| a.v).collect();
                let (v, int) = match (f.as_str(), vals.as_slice()) {
                    ("abs", [a]) => (a.abs(), args[0].int),
                    ("int", [a]) => (a.trunc(), true),
                    ("round", [a]) => (a.round(), true),
                    ("floor", [a]) => (a.floor(), true),
                    ("ceil", [a]) => (a.ceil(), true),
                    ("sqrt", [a]) => (a.sqrt(), false),
                    ("log2", [a]) => (a.log2(), false),
                    ("min", [a, b]) => (a.min(*b), args[0].int && args[1].int),
                    ("max", [a, b]) => (a.max(*b), args[0].int && args[1].int),
                    ("pow", [a, b]) => (a.powf(*b), args[0].int && args[1].int),
                    _ => return Err(self.err(&format!("wrong arity for `{f}`"))),
                };
                Ok(V { v, int })
            }
            _ => Err(self.err("expected operand")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: &str) -> String {
        eval_expr(s).unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("1 + 2 * 3"), "7");
        assert_eq!(ev("(1 + 2) * 3"), "9");
        assert_eq!(ev("2 ** 10"), "1024");
        assert_eq!(ev("7 % 3"), "1");
        assert_eq!(ev("10 / 4"), "2"); // integer division
        assert_eq!(ev("10.0 / 4"), "2.5");
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("1 < 2"), "1");
        assert_eq!(ev("2 <= 1"), "0");
        assert_eq!(ev("1 == 1 && 2 != 3"), "1");
        assert_eq!(ev("0 || 1"), "1");
        assert_eq!(ev("!1"), "0");
    }

    #[test]
    fn ternary() {
        assert_eq!(ev("1 ? 10 : 20"), "10");
        assert_eq!(ev("0 ? 10 : 20"), "20");
    }

    #[test]
    fn unary_and_precedence() {
        assert_eq!(ev("-3 + 5"), "2");
        assert_eq!(ev("- 2 ** 2"), "-4");
    }

    #[test]
    fn functions() {
        assert_eq!(ev("max(3, 9)"), "9");
        assert_eq!(ev("min(3, 9)"), "3");
        assert_eq!(ev("abs(-4)"), "4");
        assert_eq!(ev("ceil(2.1)"), "3");
        assert_eq!(ev("floor(2.9)"), "2");
        assert_eq!(ev("pow(2, 8)"), "256");
        assert_eq!(ev("log2(1024)"), "10");
    }

    #[test]
    fn hex_and_floats() {
        assert_eq!(ev("0xFF"), "255");
        assert_eq!(ev("1.5e3"), "1500");
        assert_eq!(ev("1000.0 / (1.0 - -4.0)"), "200");
    }

    #[test]
    fn negative_wns_use_case() {
        // Eq. 1 with T = 1 ns, WNS = -4 ns.
        assert_eq!(ev("1000.0 / (1.0 - (-4.0))"), "200");
    }

    #[test]
    fn errors() {
        assert!(eval_expr("1 +").is_err());
        assert!(eval_expr("1 / 0").is_err());
        assert!(eval_expr("foo + 1").is_err());
        assert!(eval_expr("(1").is_err());
        assert!(eval_expr("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_located_error() {
        let d = MAX_EXPR_DEPTH;
        // Each form opens one level per repetition.
        let forms: [fn(usize) -> String; 5] = [
            |n| format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            |n| format!("{}1{}", "abs(".repeat(n), ")".repeat(n)),
            |n| format!("{}1{}", "1 ? ".repeat(n), " : 0".repeat(n)),
            |n| format!("{}1", "- ".repeat(n)),
            |n| format!("{}1", "1 ** ".repeat(n)),
        ];
        for form in forms {
            assert_eq!(ev(&form(d)), "1", "{}", form(d));
            let err = eval_expr_at(&form(d + 1), 7).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("TCL error: line 7: expression nests deeper than {d} levels")
            );
        }
        // Far deeper input fails the same way instead of overflowing.
        let deep = format!("{}1{}", "(".repeat(20_000), ")".repeat(20_000));
        assert!(eval_expr(&deep)
            .unwrap_err()
            .to_string()
            .contains("line 1: expression nests deeper"));
    }

    #[test]
    fn true_false_literals() {
        assert_eq!(ev("true && true"), "1");
        assert_eq!(ev("false || false"), "0");
    }

    #[test]
    fn format_num_integral() {
        assert_eq!(format_num(3.0), "3");
        assert_eq!(format_num(3.5), "3.5");
        assert_eq!(format_num(-0.0), "0");
    }
}
