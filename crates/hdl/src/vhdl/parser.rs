//! Recursive-descent parser for the VHDL declaration subset.
//!
//! Extracts context clauses, entity interfaces (generics + ports), package
//! names, and architecture/entity pairs. Entity declarative parts and
//! architecture bodies are skipped with a conservative recovery scanner, so
//! arbitrary synthesizable VHDL passes through without needing a full
//! grammar — exactly the robustness/coverage trade-off the paper describes
//! for its ANTLR-based step.

use crate::ast::{
    BinOp, ConfigurationDecl, ContextClause, Direction, Expr, Instantiation, ModuleInterface,
    PackageDecl, Parameter, Port, Range, RangeDir, SourceFile, TypeSpec,
};
use crate::error::{Diagnostics, ParseError, ParseResult};
use crate::lexer::{expr_too_deep, TokenKind, TokenStream, MAX_EXPR_DEPTH};
use crate::span::Span;
use std::borrow::Cow;

/// Keywords that may legitimately begin a new design unit; used by the body
/// skipper to decide whether a bare `end;` closed the current unit.
const UNIT_STARTERS: &[&str] = &[
    "library",
    "use",
    "entity",
    "architecture",
    "package",
    "configuration",
    "context",
];

/// The name an identifier token's text spells: an extended identifier's
/// doubled backslashes stand for one (`\a\\b\` names `a\b`). A basic
/// identifier holds no backslash, so its name is its text.
fn name(text: &str) -> Cow<'_, str> {
    if text.contains('\\') {
        Cow::Owned(text.replace("\\\\", "\\"))
    } else {
        Cow::Borrowed(text)
    }
}

/// The VHDL declaration parser.
pub struct Parser<'a> {
    ts: TokenStream<'a>,
    diags: Diagnostics,
    /// Set by `bump_binop` when the consumed operator was `&`; `parse_bin`
    /// then rewrites the node into a `concat` call instead of an arithmetic
    /// one.
    concat_pending: bool,
    /// Instantiations collected while skipping architecture bodies.
    insts: Vec<Instantiation>,
    /// Expression levels currently open (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
    /// Set once an expression crossed [`MAX_EXPR_DEPTH`], so the aggregate
    /// fallback in `parse_paren` passes that error on instead of skipping
    /// the parentheses.
    too_deep: bool,
}

impl<'a> Parser<'a> {
    /// Wraps a token stream produced by [`crate::vhdl::lexer::lex`].
    pub fn new(ts: TokenStream<'a>) -> Self {
        Parser {
            ts,
            diags: Diagnostics::new(),
            concat_pending: false,
            insts: Vec::new(),
            depth: 0,
            too_deep: false,
        }
    }

    /// Parses the whole file.
    pub fn parse_file(mut self) -> ParseResult<(SourceFile, Diagnostics)> {
        let mut file = SourceFile::default();
        while !self.ts.at_eof() {
            let t = self.ts.peek().clone();
            if t.is_kw_ci("library") {
                self.ts.next_tok();
                loop {
                    let lib = self.ts.expect_ident()?;
                    file.context
                        .push(ContextClause::Library(name(lib.text).into_owned()));
                    if !self.ts.eat_sym(",") {
                        break;
                    }
                }
                self.ts.expect_sym(";")?;
            } else if t.is_kw_ci("use") {
                self.ts.next_tok();
                let name = self.selected_name()?;
                file.context.push(ContextClause::Use(name));
                self.ts.expect_sym(";")?;
            } else if t.is_kw_ci("entity") {
                let m = self.parse_entity()?;
                file.modules.push(m);
            } else if t.is_kw_ci("architecture") {
                self.ts.next_tok();
                let arch = self.ident_name()?;
                self.ts.expect_kw_ci("of")?;
                let ent = self.selected_name()?;
                self.ts.expect_kw_ci("is")?;
                self.skip_body(&arch, "architecture")?;
                // `of work.foo` style: keep the last component as entity name.
                let ent_simple = ent.rsplit('.').next().unwrap_or(&ent).to_string();
                file.architectures.push((arch, ent_simple));
            } else if t.is_kw_ci("package") {
                self.ts.next_tok();
                let body = self.ts.eat_kw_ci("body");
                let name = self.ident_name()?;
                self.ts.expect_kw_ci("is")?;
                self.skip_body(&name, if body { "body" } else { "package" })?;
                if body {
                    file.package_bodies.push(name);
                } else {
                    file.packages.push(PackageDecl { name });
                }
            } else if t.is_kw_ci("context") {
                // Context declarations/references: skip to `;` or end of body.
                self.ts.next_tok();
                let name = self.ident_name()?;
                if self.ts.eat_kw_ci("is") {
                    self.skip_body(&name, "context")?;
                } else {
                    self.ts.skip_until_sym(&[";"]);
                    self.ts.eat_sym(";");
                }
            } else if t.is_kw_ci("configuration") {
                self.ts.next_tok();
                let name = self.ident_name()?;
                self.ts.expect_kw_ci("of")?;
                let ent = self.selected_name()?;
                self.ts.expect_kw_ci("is")?;
                self.skip_body(&name, "configuration")?;
                let ent_simple = ent.rsplit('.').next().unwrap_or(&ent).to_string();
                file.configurations.push(ConfigurationDecl {
                    name,
                    entity: ent_simple,
                });
            } else {
                self.diags
                    .warn(format!("skipping unexpected token `{t}`"), t.span);
                self.ts.next_tok();
            }
        }
        file.instantiations = std::mem::take(&mut self.insts);
        Ok((file, self.diags))
    }

    /// `entity NAME is [generic(...);] [port(...);] ... end [entity] [NAME];`
    fn parse_entity(&mut self) -> ParseResult<ModuleInterface> {
        let start = self.ts.expect_kw_ci("entity")?;
        let name = self.ident_name()?;
        self.ts.expect_kw_ci("is")?;

        let mut parameters = Vec::new();
        let mut ports = Vec::new();

        if self.ts.eat_kw_ci("generic") {
            self.ts.expect_sym("(")?;
            parameters = self.parse_generic_list()?;
            self.ts.expect_sym(")")?;
            self.ts.expect_sym(";")?;
        }
        if self.ts.eat_kw_ci("port") {
            self.ts.expect_sym("(")?;
            ports = self.parse_port_list()?;
            self.ts.expect_sym(")")?;
            self.ts.expect_sym(";")?;
        }

        // Entity declarative part + optional statement part: skip to the
        // entity's `end`.
        let end_span = self.skip_entity_tail(&name)?;

        Ok(ModuleInterface {
            name,
            language: crate::ast::Language::Vhdl,
            parameters,
            ports,
            span: start.merge(end_span),
        })
    }

    /// Skips entity declarative items until `end [entity] [name] ;`.
    fn skip_entity_tail(&mut self, name: &str) -> ParseResult<Span> {
        loop {
            let t = self.ts.next_tok();
            if t.is_eof() {
                return Err(ParseError::new(
                    format!("entity `{name}` is missing its `end`"),
                    t.span,
                ));
            }
            if t.is_kw_ci("end") {
                self.ts.eat_kw_ci("entity");
                // Optional repetition of the entity name.
                if self.ts.peek().kind == TokenKind::Ident && !self.ts.peek().is_sym(";") {
                    let rep = self.ts.next_tok();
                    let rep_name = self::name(rep.text);
                    if !rep_name.eq_ignore_ascii_case(name) {
                        self.diags.warn(
                            format!("`end {rep_name}` does not match entity `{name}`"),
                            rep.span,
                        );
                    }
                }
                return self.ts.expect_sym(";");
            }
        }
    }

    /// Requires an identifier next, consuming it; returns its name.
    fn ident_name(&mut self) -> ParseResult<String> {
        Ok(name(self.ts.expect_ident()?.text).into_owned())
    }

    /// `name[.name]*[.all]` — returns the dotted path as a single string.
    fn selected_name(&mut self) -> ParseResult<String> {
        let mut s = self.ident_name()?;
        while self.ts.eat_sym(".") {
            let part = if self.ts.peek().is_kw_ci("all") {
                self.ts.next_tok().text
            } else {
                self.ts.expect_ident()?.text
            };
            s.push('.');
            s.push_str(&name(part));
        }
        Ok(s)
    }

    /// Interface list inside `generic ( ... )`.
    fn parse_generic_list(&mut self) -> ParseResult<Vec<Parameter>> {
        let mut out = Vec::new();
        loop {
            // Optional interface class keyword.
            let _ = self.ts.eat_kw_ci("constant");
            let mut names = Vec::new();
            loop {
                let id = self.ts.expect_ident()?;
                names.push((name(id.text).into_owned(), id.span));
                if !self.ts.eat_sym(",") {
                    break;
                }
            }
            self.ts.expect_sym(":")?;
            // Generics rarely have a mode; eat `in` if present.
            let _ = self.ts.eat_kw_ci("in");
            let ty = self.parse_subtype()?;
            let default = if self.ts.eat_sym(":=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            for (param, span) in names {
                out.push(Parameter {
                    name: param,
                    ty: Some(ty.clone()),
                    default: default.clone(),
                    span,
                    local: false,
                });
            }
            if !self.ts.eat_sym(";") {
                break;
            }
            // Tolerate a trailing `;` before `)`.
            if self.ts.peek().is_sym(")") {
                self.diags
                    .warn("trailing `;` in generic list", self.ts.peek().span);
                break;
            }
        }
        Ok(out)
    }

    /// Interface list inside `port ( ... )`.
    fn parse_port_list(&mut self) -> ParseResult<Vec<Port>> {
        let mut out = Vec::new();
        loop {
            let _ = self.ts.eat_kw_ci("signal");
            let mut names = Vec::new();
            loop {
                let id = self.ts.expect_ident()?;
                names.push((name(id.text).into_owned(), id.span));
                if !self.ts.eat_sym(",") {
                    break;
                }
            }
            self.ts.expect_sym(":")?;
            let direction = if self.ts.eat_kw_ci("in") {
                Direction::In
            } else if self.ts.eat_kw_ci("out") {
                Direction::Out
            } else if self.ts.eat_kw_ci("inout") {
                Direction::InOut
            } else if self.ts.eat_kw_ci("buffer") {
                Direction::Buffer
            } else if self.ts.eat_kw_ci("linkage") {
                self.diags
                    .warn("`linkage` port treated as inout", self.ts.peek().span);
                Direction::InOut
            } else {
                // VHDL defaults the mode to `in`.
                Direction::In
            };
            let ty = self.parse_subtype()?;
            // Ports may carry defaults too.
            let _default = if self.ts.eat_sym(":=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            for (port, span) in names {
                out.push(Port {
                    name: port,
                    direction,
                    ty: ty.clone(),
                    span,
                });
            }
            if !self.ts.eat_sym(";") {
                break;
            }
            if self.ts.peek().is_sym(")") {
                self.diags
                    .warn("trailing `;` in port list", self.ts.peek().span);
                break;
            }
        }
        Ok(out)
    }

    /// `subtype_indication`: selected name with optional index or `range`
    /// constraints, e.g. `std_logic_vector(W-1 downto 0)`,
    /// `integer range 0 to 7`, `natural range <>`.
    fn parse_subtype(&mut self) -> ParseResult<TypeSpec> {
        let name = self.selected_name()?;
        let mut ranges = Vec::new();
        if self.ts.eat_sym("(") {
            loop {
                if self.ts.peek().is_sym(")") {
                    break;
                }
                // `open` or `<>` boxes inside unconstrained types.
                if self.ts.eat_sym("<>") {
                    if !self.ts.eat_sym(",") {
                        break;
                    }
                    continue;
                }
                let left = self.parse_expr()?;
                let dir = if self.ts.eat_kw_ci("downto") {
                    Some(RangeDir::Downto)
                } else if self.ts.eat_kw_ci("to") {
                    Some(RangeDir::To)
                } else {
                    None
                };
                match dir {
                    Some(d) => {
                        let right = self.parse_expr()?;
                        ranges.push(Range {
                            left,
                            right,
                            dir: d,
                        });
                    }
                    None => {
                        // Single index constraint, e.g. `bit_vector(7)` —
                        // treat as a one-element range.
                        ranges.push(Range {
                            left: left.clone(),
                            right: left,
                            dir: RangeDir::Downto,
                        });
                    }
                }
                if !self.ts.eat_sym(",") {
                    break;
                }
            }
            self.ts.expect_sym(")")?;
        } else if self.ts.eat_kw_ci("range") {
            if self.ts.eat_sym("<>") {
                // unconstrained
            } else {
                let left = self.parse_expr()?;
                let dir = if self.ts.eat_kw_ci("downto") {
                    RangeDir::Downto
                } else {
                    self.ts.expect_kw_ci("to")?;
                    RangeDir::To
                };
                let right = self.parse_expr()?;
                ranges.push(Range { left, right, dir });
            }
        }
        Ok(TypeSpec {
            name,
            ranges,
            signed: false,
        })
    }

    /// Expression parser (precedence climbing) over the VHDL operator
    /// subset relevant to widths and defaults.
    pub fn parse_expr(&mut self) -> ParseResult<Expr> {
        let outer = self.depth;
        self.open_level()?;
        let e = self.parse_bin(0)?;
        self.depth = outer;
        Ok(e)
    }

    /// Opens one expression level at the current token, refusing input
    /// that nests past [`MAX_EXPR_DEPTH`]. Levels close when the
    /// `parse_expr` or `parse_bin` that opened them returns; an error
    /// fails the whole parse, except in `parse_paren`, which restores the
    /// depth before it backtracks.
    fn open_level(&mut self) -> ParseResult<()> {
        if self.depth == MAX_EXPR_DEPTH {
            self.too_deep = true;
            return Err(expr_too_deep(self.ts.peek().span));
        }
        self.depth += 1;
        Ok(())
    }

    /// Binary operators binding at `min_prec` or tighter, left-associative.
    /// Each operator in the chain opens a level: the tree it builds grows
    /// one deeper per operator.
    fn parse_bin(&mut self, min_prec: u8) -> ParseResult<Expr> {
        let outer = self.depth;
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek_binop() {
                Some(op) if op.precedence() >= min_prec => op,
                _ => break,
            };
            self.bump_binop();
            self.open_level()?;
            let rhs = self.parse_bin(op.precedence() + 1)?;
            lhs = if self.concat_pending {
                self.concat_pending = false;
                Expr::Call("concat".into(), vec![lhs, rhs])
            } else {
                Expr::bin(op, lhs, rhs)
            };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn peek_binop(&mut self) -> Option<BinOp> {
        let t = self.ts.peek();
        let op = match &t.kind {
            TokenKind::Sym => match t.text {
                "+" => BinOp::Add,
                "-" => BinOp::Sub,
                "*" => BinOp::Mul,
                "/" => BinOp::Div,
                "**" => BinOp::Pow,
                "&" => BinOp::Add, // concat, rewritten to a call below
                _ => return None,
            },
            TokenKind::Ident => {
                if t.is_kw_ci("mod") || t.is_kw_ci("rem") {
                    BinOp::Mod
                } else if t.is_kw_ci("sll") {
                    BinOp::Shl
                } else if t.is_kw_ci("srl") {
                    BinOp::Shr
                } else {
                    return None;
                }
            }
            _ => return None,
        };
        Some(op)
    }

    fn bump_binop(&mut self) {
        let t = self.ts.next_tok();
        self.concat_pending = t.is_sym("&");
    }

    /// A primary behind any prefix operators (`-`, `+`, `abs`, `not`);
    /// each operator opens one expression level.
    fn parse_unary(&mut self) -> ParseResult<Expr> {
        let mut prefixes = Vec::new();
        loop {
            let t = self.ts.peek();
            let op = if t.is_sym("-") {
                "-"
            } else if t.is_sym("+") {
                "+"
            } else if t.is_kw_ci("abs") {
                "abs"
            } else if t.is_kw_ci("not") {
                "not"
            } else {
                break;
            };
            self.ts.next_tok();
            self.open_level()?;
            prefixes.push(op);
        }
        let mut e = self.parse_primary()?;
        for op in prefixes.into_iter().rev() {
            e = match op {
                "-" => Expr::Neg(Box::new(e)),
                "+" => e,
                _ => Expr::Call(op.into(), vec![e]),
            };
        }
        Ok(e)
    }

    /// A parenthesised expression or aggregate, a name, or an atom. The
    /// others stay out of this frame, keeping it small: nested
    /// parentheses recurse through it.
    fn parse_primary(&mut self) -> ParseResult<Expr> {
        if self.ts.peek().is_sym("(") {
            return self.parse_paren();
        }
        if self.ts.peek().kind == TokenKind::Ident {
            return self.parse_name();
        }
        self.parse_atom()
    }

    /// A parenthesised expression or an aggregate like `(others => '0')`:
    /// try the expression, fall back to skipping the parentheses.
    fn parse_paren(&mut self) -> ParseResult<Expr> {
        let save = self.ts.save();
        let depth = self.depth;
        self.ts.next_tok();
        match self.parse_expr() {
            Ok(e) if self.ts.peek().is_sym(")") => {
                self.ts.next_tok();
                Ok(e)
            }
            Err(e) if self.too_deep => Err(e),
            _ => {
                self.ts.restore(save);
                self.depth = depth;
                self.ts.next_tok(); // re-consume `(`
                self.ts.skip_balanced_parens()?;
                Ok(Expr::Str("<aggregate>".into()))
            }
        }
    }

    /// A literal.
    fn parse_atom(&mut self) -> ParseResult<Expr> {
        let t = self.ts.peek().clone();
        match &t.kind {
            TokenKind::Int(v) => {
                self.ts.next_tok();
                Ok(Expr::Int(*v))
            }
            TokenKind::Real(v) => {
                self.diags.warn("real literal truncated to integer", t.span);
                self.ts.next_tok();
                Ok(Expr::Int(*v as i64))
            }
            TokenKind::Char(c) => {
                self.ts.next_tok();
                // '0'/'1' appear in boolean-ish defaults; map to 0/1.
                Ok(Expr::Int(match c {
                    '1' => 1,
                    _ => 0,
                }))
            }
            TokenKind::Str(s) => {
                self.ts.next_tok();
                Ok(Expr::Str(s.clone()))
            }
            _ => Err(ParseError::new(
                format!("expected expression, found `{t}`"),
                t.span,
            )),
        }
    }

    /// A boolean, a (selected) name, an attribute, or a call.
    fn parse_name(&mut self) -> ParseResult<Expr> {
        let first = self.ts.next_tok().text;
        // Booleans read naturally as ints in the integer formulation
        // (paper §III-B1: booleans are 0/1 integers).
        if first.eq_ignore_ascii_case("true") {
            return Ok(Expr::Int(1));
        }
        if first.eq_ignore_ascii_case("false") {
            return Ok(Expr::Int(0));
        }
        let mut name = self::name(first).into_owned();
        while self.ts.eat_sym(".") {
            let part = self.ts.expect_ident()?;
            name.push('.');
            name.push_str(&self::name(part.text));
        }
        // Attribute: `name'length` → Call("length", [Ident name]).
        if self.ts.peek().is_sym("'") && self.ts.peek_n(1).kind == TokenKind::Ident {
            self.ts.next_tok();
            let attr = self.ident_name()?;
            return Ok(Expr::Call(attr, vec![Expr::Ident(name)]));
        }
        if self.ts.eat_sym("(") {
            let mut args = Vec::new();
            if !self.ts.peek().is_sym(")") {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.ts.eat_sym(",") {
                        break;
                    }
                }
            }
            self.ts.expect_sym(")")?;
            return Ok(Expr::Call(name, args));
        }
        Ok(Expr::Ident(name))
    }

    /// Skips a unit body (`architecture`/`package`/`configuration`/`context`)
    /// until its closing `end`. `kind` is the keyword that may follow `end`.
    /// Inside architecture bodies, entity/component instantiations are
    /// collected on the way through.
    fn skip_body(&mut self, name: &str, kind: &str) -> ParseResult<()> {
        loop {
            // Opportunistic instantiation detection: `label : entity …`,
            // `label : component …`, or `label : name generic|port map …`.
            if kind == "architecture"
                && self.ts.peek().kind == TokenKind::Ident
                && self.ts.peek_n(1).is_sym(":")
            {
                let n2 = self.ts.peek_n(2).clone();
                let n3 = self.ts.peek_n(3).clone();
                let n4 = self.ts.peek_n(4).clone();
                let direct = n2.is_kw_ci("entity") || n2.is_kw_ci("component");
                let implicit = n2.kind == TokenKind::Ident
                    && (n3.is_kw_ci("generic") || n3.is_kw_ci("port"))
                    && n4.is_kw_ci("map");
                if direct || implicit {
                    if let Err(e) = self.parse_instantiation(name) {
                        self.diags
                            .warn(format!("unparsed instantiation: {e}"), e.span);
                        self.ts.skip_until_sym(&[";"]);
                        self.ts.eat_sym(";");
                    }
                    continue;
                }
            }
            let t = self.ts.next_tok();
            if t.is_eof() {
                return Err(ParseError::new(
                    format!("{kind} `{name}` is missing its `end`"),
                    t.span,
                ));
            }
            if !t.is_kw_ci("end") {
                continue;
            }
            let next = self.ts.peek().clone();
            // `end architecture [name];` / `end package [name];` …
            if next.is_kw_ci(kind) || (kind == "body" && next.is_kw_ci("package")) {
                self.ts.next_tok();
                self.ts.eat_kw_ci("body");
                if self.ts.peek().kind == TokenKind::Ident {
                    self.ts.next_tok();
                }
                self.ts.eat_sym(";");
                return Ok(());
            }
            // `end <name>;` where <name> matches this unit.
            if next.kind == TokenKind::Ident && self::name(next.text).eq_ignore_ascii_case(name) {
                self.ts.next_tok();
                self.ts.eat_sym(";");
                return Ok(());
            }
            // Bare `end;` closes the unit only when what follows could begin
            // a new design unit (or the file ends) — inner `end;` of
            // subprograms is followed by more body tokens in practice.
            if next.is_sym(";") {
                let save = self.ts.save();
                self.ts.next_tok(); // `;`
                let after = self.ts.peek().clone();
                if after.is_eof() || UNIT_STARTERS.iter().any(|k| after.is_kw_ci(k)) {
                    return Ok(());
                }
                self.ts.restore(save);
                self.ts.next_tok(); // consume `;` and keep scanning
            }
            // `end if;`, `end process;` … — keep scanning.
        }
    }

    /// Parses one instantiation statement inside an architecture body.
    ///
    /// Grammar (subset):
    /// `label : [entity|component] name [(arch)] [generic map (assocs)]
    ///  [port map (assocs)] ;`
    fn parse_instantiation(&mut self, parent: &str) -> ParseResult<()> {
        let label_tok = self.ts.expect_ident()?;
        self.ts.expect_sym(":")?;
        let _ = self.ts.eat_kw_ci("entity") || self.ts.eat_kw_ci("component");
        let target = self.selected_name()?;
        // Optional architecture selector: entity work.foo(rtl).
        if self.ts.peek().is_sym("(")
            && self.ts.peek_n(1).kind == TokenKind::Ident
            && self.ts.peek_n(2).is_sym(")")
        {
            self.ts.next_tok();
            self.ts.next_tok();
            self.ts.next_tok();
        }
        let mut generics = Vec::new();
        if self.ts.peek().is_kw_ci("generic") && self.ts.peek_n(1).is_kw_ci("map") {
            self.ts.next_tok();
            self.ts.next_tok();
            self.ts.expect_sym("(")?;
            loop {
                if self.ts.peek().is_sym(")") {
                    break;
                }
                if self.ts.peek().kind == TokenKind::Ident && self.ts.peek_n(1).is_sym("=>") {
                    let gname = self.ident_name()?;
                    self.ts.next_tok(); // =>
                    let value = self.parse_expr()?;
                    generics.push((gname, value));
                } else {
                    // Positional association — parsed and dropped (Dovado's
                    // box always uses named associations).
                    let v = self.parse_expr()?;
                    self.diags.note(
                        format!("positional generic association `{v}` ignored"),
                        label_tok.span,
                    );
                }
                if !self.ts.eat_sym(",") {
                    break;
                }
            }
            self.ts.expect_sym(")")?;
        }
        if self.ts.peek().is_kw_ci("port") && self.ts.peek_n(1).is_kw_ci("map") {
            self.ts.next_tok();
            self.ts.next_tok();
            self.ts.expect_sym("(")?;
            self.ts.skip_balanced_parens()?;
        }
        self.ts.expect_sym(";")?;
        self.insts.push(Instantiation {
            label: name(label_tok.text).into_owned(),
            target,
            generics,
            parent: parent.to_string(),
            span: label_tok.span,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Language;
    use crate::vhdl::lexer::lex;
    use std::collections::BTreeMap;

    fn parse_ok(src: &str) -> SourceFile {
        let (f, d) = Parser::new(lex(src).unwrap()).parse_file().unwrap();
        assert!(
            !d.has_errors(),
            "diagnostics: {:?}",
            d.iter().collect::<Vec<_>>()
        );
        f
    }

    const COUNTER: &str = r#"
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity counter is
  generic (
    WIDTH      : natural := 8;
    MAX_COUNT  : integer := 2**8 - 1;
    WITH_CARRY : boolean := true
  );
  port (
    clk_i   : in  std_logic;
    rst_n   : in  std_logic;
    en      : in  std_logic;
    count_o : out std_logic_vector(WIDTH-1 downto 0);
    carry_o : out std_logic
  );
end entity counter;

architecture rtl of counter is
  signal cnt : unsigned(WIDTH-1 downto 0);
begin
  process (clk_i)
  begin
    if rising_edge(clk_i) then
      if rst_n = '0' then
        cnt <= (others => '0');
      elsif en = '1' then
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  count_o <= std_logic_vector(cnt);
end architecture rtl;
"#;

    #[test]
    fn parses_counter_entity() {
        let f = parse_ok(COUNTER);
        assert_eq!(f.modules.len(), 1);
        let m = &f.modules[0];
        assert_eq!(m.name, "counter");
        assert_eq!(m.language, Language::Vhdl);
        assert_eq!(m.parameters.len(), 3);
        assert_eq!(m.ports.len(), 5);
        assert_eq!(
            f.architectures,
            vec![("rtl".to_string(), "counter".to_string())]
        );
        assert_eq!(f.libraries(), vec!["ieee".to_string()]);
    }

    #[test]
    fn generic_defaults_evaluate() {
        let f = parse_ok(COUNTER);
        let m = &f.modules[0];
        assert_eq!(m.parameter("WIDTH").unwrap().const_default(), Some(8));
        assert_eq!(m.parameter("MAX_COUNT").unwrap().const_default(), Some(255));
        // boolean true → 1 in the integer formulation
        assert_eq!(m.parameter("WITH_CARRY").unwrap().const_default(), Some(1));
    }

    #[test]
    fn port_width_is_symbolic() {
        let f = parse_ok(COUNTER);
        let m = &f.modules[0];
        let count = m.port("count_o").unwrap();
        let mut env = BTreeMap::new();
        env.insert("WIDTH".to_string(), 16i64);
        assert_eq!(count.ty.bit_width(&env).unwrap(), 16);
        assert_eq!(count.direction, Direction::Out);
    }

    #[test]
    fn clock_detected() {
        let f = parse_ok(COUNTER);
        assert_eq!(f.modules[0].clock_port().unwrap().name, "clk_i");
    }

    #[test]
    fn entity_without_generics() {
        let f = parse_ok("entity top is port (clk : in std_logic); end top;");
        assert_eq!(f.modules[0].parameters.len(), 0);
        assert_eq!(f.modules[0].ports.len(), 1);
    }

    #[test]
    fn entity_without_ports() {
        let f = parse_ok("entity tb is end tb;");
        assert!(f.modules[0].ports.is_empty());
    }

    #[test]
    fn end_entity_variants() {
        for src in [
            "entity a is end;",
            "entity a is end a;",
            "entity a is end entity;",
            "entity a is end entity a;",
        ] {
            let f = parse_ok(src);
            assert_eq!(f.modules[0].name, "a", "failed on {src}");
        }
    }

    #[test]
    fn shared_port_declaration() {
        let f = parse_ok("entity m is port (a, b, c : in std_logic; q : out std_logic); end m;");
        let m = &f.modules[0];
        assert_eq!(m.ports.len(), 4);
        assert!(m.ports[..3].iter().all(|p| p.direction == Direction::In));
        assert_eq!(m.ports[3].direction, Direction::Out);
    }

    #[test]
    fn mode_defaults_to_in() {
        let f = parse_ok("entity m is port (a : std_logic); end m;");
        assert_eq!(f.modules[0].ports[0].direction, Direction::In);
    }

    #[test]
    fn buffer_and_inout_modes() {
        let f = parse_ok("entity m is port (x : inout std_logic; y : buffer std_logic); end m;");
        assert_eq!(f.modules[0].ports[0].direction, Direction::InOut);
        assert_eq!(f.modules[0].ports[1].direction, Direction::Buffer);
    }

    #[test]
    fn integer_range_generic() {
        let f = parse_ok(
            "entity m is generic (G : integer range 0 to 15 := 3); port (c : in std_logic); end m;",
        );
        let p = f.modules[0].parameter("G").unwrap();
        assert_eq!(p.const_default(), Some(3));
        let ty = p.ty.as_ref().unwrap();
        assert_eq!(ty.name, "integer");
        assert_eq!(ty.ranges.len(), 1);
    }

    #[test]
    fn unconstrained_port_type() {
        let f = parse_ok("entity m is port (d : in std_logic_vector); end m;");
        assert!(f.modules[0].ports[0].ty.ranges.is_empty());
    }

    #[test]
    fn based_literal_default() {
        let f = parse_ok("entity m is generic (G : integer := 16#20#); end m;");
        assert_eq!(
            f.modules[0].parameter("G").unwrap().const_default(),
            Some(32)
        );
    }

    #[test]
    fn string_generic_default() {
        let f = parse_ok(r#"entity m is generic (MODE : string := "fast"); end m;"#);
        let p = f.modules[0].parameter("MODE").unwrap();
        assert_eq!(p.default, Some(Expr::Str("fast".into())));
        assert_eq!(p.const_default(), None);
    }

    #[test]
    fn aggregate_default_is_tolerated() {
        let f = parse_ok(
            "entity m is generic (G : std_logic_vector(3 downto 0) := (others => '0')); end m;",
        );
        assert_eq!(f.modules[0].parameters.len(), 1);
    }

    #[test]
    fn clog2_style_width() {
        let f = parse_ok(
            "entity m is generic (DEPTH : natural := 16);
             port (addr : in std_logic_vector(log2(DEPTH)-1 downto 0)); end m;",
        );
        let mut env = BTreeMap::new();
        env.insert("DEPTH".to_string(), 16i64);
        assert_eq!(f.modules[0].ports[0].ty.bit_width(&env).unwrap(), 4);
    }

    #[test]
    fn multiple_entities_one_file() {
        let f = parse_ok(
            "entity a is end a;
             entity b is generic (W : natural := 1); end b;",
        );
        assert_eq!(f.modules.len(), 2);
        assert!(f.module("B").is_some());
    }

    #[test]
    fn architecture_with_nested_ends_is_skipped() {
        let f = parse_ok(COUNTER);
        // The architecture body contains `end if`, `end process` — none of
        // which should terminate scanning early.
        assert_eq!(f.architectures.len(), 1);
    }

    #[test]
    fn architecture_end_variants() {
        for end in ["end rtl;", "end architecture;", "end architecture rtl;"] {
            let src = format!("entity e is end e; architecture rtl of e is begin {end}");
            let f = parse_ok(&src);
            assert_eq!(f.architectures.len(), 1, "failed on `{end}`");
        }
    }

    #[test]
    fn package_names_recorded_bodies_skipped() {
        let f = parse_ok(
            "package pkg is constant C : integer := 3; end package pkg;
             package body pkg is end package body pkg;
             entity e is end e;",
        );
        assert_eq!(f.packages.len(), 1);
        assert_eq!(f.packages[0].name, "pkg");
        assert_eq!(f.modules.len(), 1);
    }

    #[test]
    fn missing_end_is_fatal() {
        let r = Parser::new(lex("entity e is port (c : in std_logic);").unwrap()).parse_file();
        assert!(r.is_err());
    }

    #[test]
    fn dont_touch_attribute_entity_parses() {
        // The exact pattern Dovado's box (Listing 1) relies on.
        let src = r#"
library ieee;
use ieee.std_logic_1164.all;
entity box is
  port ( clk : in std_logic );
end entity box;
architecture box_arch of box is
  attribute DONT_TOUCH : string;
  attribute DONT_TOUCH of BOXED : label is "TRUE";
begin
end architecture box_arch;
"#;
        let f = parse_ok(src);
        assert_eq!(f.modules[0].name, "box");
        assert_eq!(
            f.architectures[0],
            ("box_arch".to_string(), "box".to_string())
        );
    }

    #[test]
    fn case_insensitivity() {
        let f = parse_ok(
            "ENTITY Foo IS GENERIC (w : NATURAL := 4); PORT (CLK : IN STD_LOGIC); END ENTITY Foo;",
        );
        let m = &f.modules[0];
        assert_eq!(m.name, "Foo");
        assert!(m.parameter("W").is_some());
        assert!(m.port("clk").is_some());
    }

    #[test]
    fn power_of_two_expression() {
        let f = parse_ok("entity m is generic (SIZE : natural := 2**14); end m;");
        assert_eq!(
            f.modules[0].parameter("SIZE").unwrap().const_default(),
            Some(16384)
        );
    }

    #[test]
    fn box_instantiation_collected() {
        // The paper's Listing 1 box shape, filled in.
        let src = r#"
library ieee;
use ieee.std_logic_1164.all;
entity box is
  port ( clk : in std_logic );
end entity box;
architecture box_arch of box is
  attribute DONT_TOUCH : string;
  attribute DONT_TOUCH of BOXED : label is "TRUE";
begin
  BOXED: entity work.fifo
    generic map (
      DEPTH => 64,
      DATA_WIDTH => 2**5
    )
    port map (
      clk_i => clk
    );
end architecture box_arch;
"#;
        let f = parse_ok(src);
        assert_eq!(f.instantiations.len(), 1);
        let i = &f.instantiations[0];
        assert_eq!(i.label, "BOXED");
        assert_eq!(i.target, "work.fifo");
        assert_eq!(i.target_simple(), "fifo");
        assert_eq!(i.parent, "box_arch");
        assert_eq!(i.generics.len(), 2);
        let mut env = std::collections::BTreeMap::new();
        env.insert("_".to_string(), 0i64);
        assert_eq!(i.generics[1].1.eval(&env).unwrap(), 32);
    }

    #[test]
    fn component_instantiation_collected() {
        let src = r#"
entity top is port (clk : in std_logic); end top;
architecture rtl of top is
begin
  u0: my_core generic map (W => 8) port map (clk => clk);
end rtl;
"#;
        let f = parse_ok(src);
        assert_eq!(f.instantiations.len(), 1);
        assert_eq!(f.instantiations[0].target, "my_core");
    }

    #[test]
    fn process_labels_not_instantiations() {
        let src = r#"
entity e is port (clk : in std_logic); end e;
architecture rtl of e is
  signal x : std_logic;
begin
  main_proc: process (clk)
  begin
    if rising_edge(clk) then
      x <= not x;
    end if;
  end process main_proc;
end rtl;
"#;
        let f = parse_ok(src);
        assert!(f.instantiations.is_empty());
    }

    #[test]
    fn expression_nesting_is_capped_with_a_located_error() {
        crate::lexer::with_main_stack(expression_nesting_cap);
    }

    fn expression_nesting_cap() {
        const PREFIX: &str = "  generic (P : integer := ";
        let entity = |expr: String| format!("entity e is\n{PREFIX}{expr});\nend e;");
        // An expression `levels` deep: the outermost level plus one per
        // parenthesis, prefix operator or chained binary operator.
        let parens = |levels: usize| {
            let n = levels - 1;
            entity(format!("{}1{}", "(".repeat(n), ")".repeat(n)))
        };
        let prefixed = |op: &str, levels: usize| entity(format!("{}1", op.repeat(levels - 1)));
        let chain = |levels: usize| entity(format!("1{}", " + 1".repeat(levels - 1)));

        for src in [
            parens(MAX_EXPR_DEPTH),
            prefixed("- ", MAX_EXPR_DEPTH),
            prefixed("abs ", MAX_EXPR_DEPTH),
            chain(MAX_EXPR_DEPTH),
        ] {
            let f = parse_ok(&src);
            assert!(f.modules[0].parameters[0].default.is_some());
        }
        let refused = |src: String| Parser::new(lex(&src).unwrap()).parse_file().unwrap_err();
        // Level 257 opens at its first token: the `1` behind 256 openers.
        // Parentheses past the cap are refused, not skipped as an aggregate.
        for (src, opener_len) in [
            (parens(MAX_EXPR_DEPTH + 1), 1),
            (prefixed("- ", MAX_EXPR_DEPTH + 1), 2),
            (prefixed("not ", MAX_EXPR_DEPTH + 1), 4),
            (chain(MAX_EXPR_DEPTH + 1), 4),
        ] {
            let err = refused(src);
            assert!(
                err.message.contains("nests deeper than 256 levels"),
                "{err}"
            );
            let col = PREFIX.len() + opener_len * MAX_EXPR_DEPTH + 1;
            assert_eq!((err.span.line, err.span.col as usize), (2, col), "{err}");
        }
        // Far past the cap the parser refuses without recursing that deep.
        let err = refused(parens(20_000));
        assert_eq!(
            (err.span.line, err.span.col as usize),
            (2, PREFIX.len() + 257)
        );
        let err = refused(prefixed("- ", 100_000));
        assert_eq!(
            (err.span.line, err.span.col as usize),
            (2, PREFIX.len() + 513)
        );
    }

    #[test]
    fn use_clauses_recorded() {
        let f = parse_ok("library ieee; use ieee.std_logic_1164.all; entity e is end e;");
        assert!(f
            .context
            .iter()
            .any(|c| matches!(c, ContextClause::Use(u) if u == "ieee.std_logic_1164.all")));
    }

    #[test]
    fn a_doubled_backslash_in_an_extended_identifier_names_one_backslash() {
        let src = r"entity \a\\b\ is
  generic (\w\\x\ : natural := 4);
  port (clk : in std_logic; \d\\o\ : out std_logic_vector(\w\\x\ - 1 downto 0));
end entity \a\\b\;";
        let (f, d) = Parser::new(lex(src).unwrap()).parse_file().unwrap();
        // The repeated name matches, so nothing is reported.
        assert_eq!(d.len(), 0, "{:?}", d.iter().collect::<Vec<_>>());
        let m = &f.modules[0];
        assert_eq!(m.name, r"a\b");
        assert_eq!(m.parameters[0].name, r"w\x");
        assert_eq!(m.ports[1].name, r"d\o");
        let env = BTreeMap::from([(r"w\x".to_string(), 4)]);
        assert_eq!(m.ports[1].ty.bit_width(&env), Ok(4));
        // Without a doubled backslash the name is the text between the
        // delimiters, as before.
        let f = parse_ok(r"entity \plain name\ is end;");
        assert_eq!(f.modules[0].name, "plain name");
    }
}
