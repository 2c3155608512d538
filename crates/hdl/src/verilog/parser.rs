//! Declaration parser for Verilog-2001 and SystemVerilog modules.
//!
//! Supports ANSI and non-ANSI header styles, parameter/localparam
//! declarations in both the `#(...)` header and the module body, and port
//! re-declarations in the body (non-ANSI style). Function/task bodies are
//! skipped so their `input`/`output` argument declarations are not mistaken
//! for ports.

use crate::ast::{
    BinOp, ContextClause, Direction, Expr, Instantiation, Language, ModuleInterface, PackageDecl,
    Parameter, Port, Range, RangeDir, SourceFile, TypeSpec,
};
use crate::error::{Diagnostics, ParseError, ParseResult};
use crate::lexer::{expr_too_deep, TokenKind, TokenStream, MAX_EXPR_DEPTH};
use crate::span::Span;

/// Built-in data/net type keywords that can open a type in a declaration.
const TYPE_KEYWORDS: &[&str] = &[
    "wire",
    "reg",
    "logic",
    "bit",
    "byte",
    "shortint",
    "int",
    "longint",
    "integer",
    "time",
    "real",
    "realtime",
    "shortreal",
    "string",
    "tri",
    "tri0",
    "tri1",
    "triand",
    "trior",
    "trireg",
    "wand",
    "wor",
    "supply0",
    "supply1",
    "uwire",
    "var",
    "genvar",
    "event",
];

/// Statement/control keywords that can never be an instantiation target or
/// instance name (guards the opportunistic instantiation detector).
const STMT_KEYWORDS: &[&str] = &[
    "if",
    "else",
    "begin",
    "end",
    "assign",
    "deassign",
    "always",
    "always_ff",
    "always_comb",
    "always_latch",
    "initial",
    "final",
    "case",
    "casex",
    "casez",
    "endcase",
    "default",
    "for",
    "while",
    "repeat",
    "forever",
    "wait",
    "disable",
    "fork",
    "join",
    "join_any",
    "join_none",
    "posedge",
    "negedge",
    "return",
    "typedef",
    "enum",
    "struct",
    "union",
    "packed",
    "assert",
    "assume",
    "cover",
    "unique",
    "priority",
    "force",
    "release",
    "specify",
    "endspecify",
    "defparam",
    "generate",
    "endgenerate",
    "genvar",
    "module",
    "endmodule",
    "function",
    "endfunction",
    "task",
    "endtask",
    "parameter",
    "localparam",
    "input",
    "output",
    "inout",
];

/// Keyword pairs whose bodies must be skipped while scanning a module.
const SKIP_BLOCKS: &[(&str, &str)] = &[
    ("function", "endfunction"),
    ("task", "endtask"),
    ("class", "endclass"),
    ("clocking", "endclocking"),
    ("covergroup", "endgroup"),
    ("property", "endproperty"),
    ("sequence", "endsequence"),
];

/// A binary operator, loosest tier first: `&&`/`||`, comparisons, then
/// arithmetic by [`BinOp::precedence`]. Logic and comparison operators
/// build `Call` nodes named after them, arithmetic ones `Bin` nodes.
#[derive(Clone, Copy)]
enum Infix {
    Logic(&'static str),
    Cmp(&'static str),
    Arith(BinOp),
}

impl Infix {
    fn precedence(self) -> u8 {
        match self {
            Infix::Logic(_) => 0,
            Infix::Cmp(_) => 1,
            Infix::Arith(op) => 2 + op.precedence(),
        }
    }

    fn apply(self, lhs: Expr, rhs: Expr) -> Expr {
        match self {
            Infix::Logic(name) | Infix::Cmp(name) => Expr::Call(name.into(), vec![lhs, rhs]),
            Infix::Arith(op) => Expr::bin(op, lhs, rhs),
        }
    }
}

/// The Verilog/SystemVerilog declaration parser.
pub struct Parser<'a> {
    ts: TokenStream<'a>,
    diags: Diagnostics,
    /// Set to true when a SystemVerilog-only construct is seen, upgrading
    /// the reported language from Verilog to SystemVerilog.
    saw_sv: bool,
    /// Instantiations collected while scanning module bodies.
    insts: Vec<Instantiation>,
    /// Expression levels currently open (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Wraps a token stream produced by [`crate::verilog::lexer::lex`].
    pub fn new(ts: TokenStream<'a>) -> Self {
        Parser {
            ts,
            diags: Diagnostics::new(),
            saw_sv: false,
            insts: Vec::new(),
            depth: 0,
        }
    }

    /// Parses the whole file.
    pub fn parse_file(mut self) -> ParseResult<(SourceFile, Diagnostics)> {
        let mut file = SourceFile::default();
        while !self.ts.at_eof() {
            let t = self.ts.peek().clone();
            if t.is_sym("`include") {
                self.ts.next_tok();
                if let TokenKind::Str(path) = &self.ts.peek().kind {
                    file.context.push(ContextClause::Include(path.clone()));
                    self.ts.next_tok();
                } else {
                    self.diags.warn("`include without a string path", t.span);
                }
            } else if t.is_kw("import") {
                self.ts.next_tok();
                self.saw_sv = true;
                let name = self.scoped_name_string()?;
                file.context.push(ContextClause::Import(name));
                self.ts.skip_until_sym(&[";"]);
                self.ts.eat_sym(";");
            } else if t.is_kw("package") {
                self.ts.next_tok();
                self.saw_sv = true;
                let name = self.ts.expect_ident()?.text.to_string();
                self.skip_until_kw("endpackage", &name)?;
                // optional `: name` label
                if self.ts.eat_sym(":") {
                    let _ = self.ts.expect_ident();
                }
                file.packages.push(PackageDecl { name });
            } else if t.is_kw("interface") {
                self.ts.next_tok();
                self.saw_sv = true;
                let name = if self.ts.peek().kind == TokenKind::Ident {
                    self.ts.next_tok().text
                } else {
                    ""
                };
                self.skip_until_kw("endinterface", name)?;
                if self.ts.eat_sym(":") {
                    let _ = self.ts.expect_ident();
                }
            } else if t.is_kw("module") || t.is_kw("macromodule") {
                let m = self.parse_module()?;
                file.modules.push(m);
            } else {
                self.diags
                    .warn(format!("skipping unexpected token `{t}`"), t.span);
                self.ts.next_tok();
            }
        }
        // Upgrade module languages if SV constructs were seen anywhere.
        if self.saw_sv {
            for m in &mut file.modules {
                m.language = Language::SystemVerilog;
            }
        }
        file.instantiations = std::mem::take(&mut self.insts);
        Ok((file, self.diags))
    }

    /// Consumes tokens until the given end keyword; errors at EOF.
    fn skip_until_kw(&mut self, end: &str, name: &str) -> ParseResult<()> {
        loop {
            let t = self.ts.next_tok();
            if t.is_eof() {
                return Err(ParseError::new(
                    format!("`{name}` is missing its `{end}`"),
                    t.span,
                ));
            }
            if t.is_kw(end) {
                return Ok(());
            }
        }
    }

    /// `pkg::name` or `pkg::*` joined into one string.
    fn scoped_name_string(&mut self) -> ParseResult<String> {
        let mut s = self.ts.expect_ident()?.text.to_string();
        while self.ts.eat_sym("::") {
            if self.ts.eat_sym("*") {
                s.push_str("::*");
                break;
            }
            let part = self.ts.expect_ident()?;
            s.push_str("::");
            s.push_str(part.text);
        }
        Ok(s)
    }

    /// Parses one `module ... endmodule`.
    fn parse_module(&mut self) -> ParseResult<ModuleInterface> {
        let start = self.ts.next_tok().span; // module / macromodule
                                             // Lifetime qualifier (SV).
        if self.ts.peek().is_kw("static") || self.ts.peek().is_kw("automatic") {
            self.saw_sv = true;
            self.ts.next_tok();
        }
        let name = self.ts.expect_ident()?.text.to_string();

        let mut parameters: Vec<Parameter> = Vec::new();
        let mut ports: Vec<Port> = Vec::new();
        // Ports named in a non-ANSI header, in order, pending body decls.
        let mut header_names: Vec<(String, Span)> = Vec::new();

        // Header package imports.
        while self.ts.peek().is_kw("import") {
            self.saw_sv = true;
            self.ts.next_tok();
            self.ts.skip_until_sym(&[";"]);
            self.ts.eat_sym(";");
        }

        // Parameter port list.
        if self.ts.eat_sym("#") {
            self.ts.expect_sym("(")?;
            self.parse_param_port_list(&mut parameters)?;
            self.ts.expect_sym(")")?;
        }

        // Port list.
        if self.ts.eat_sym("(") {
            self.parse_port_list(&mut ports, &mut header_names)?;
            self.ts.expect_sym(")")?;
        }
        self.ts.expect_sym(";")?;

        // Body scan.
        let end_span = self.scan_body(&name, &mut parameters, &mut ports, &mut header_names)?;

        // Any header names never given a body declaration become inputs with
        // an implicit net type (legal in old Verilog for 1-bit nets).
        for (hn, hspan) in header_names {
            if !ports.iter().any(|p| p.name.eq_ignore_ascii_case(&hn)) {
                self.diags.warn(
                    format!("port `{hn}` has no direction declaration; assuming `input`"),
                    hspan,
                );
                ports.push(Port {
                    name: hn,
                    direction: Direction::In,
                    ty: TypeSpec::scalar("wire"),
                    span: hspan,
                });
            }
        }

        Ok(ModuleInterface {
            name,
            language: if self.saw_sv {
                Language::SystemVerilog
            } else {
                Language::Verilog
            },
            parameters,
            ports,
            span: start.merge(end_span),
        })
    }

    /// Scans the module body for parameter/port declarations until
    /// `endmodule`. Returns the span of the `endmodule` keyword.
    fn scan_body(
        &mut self,
        name: &str,
        parameters: &mut Vec<Parameter>,
        ports: &mut Vec<Port>,
        header_names: &mut Vec<(String, Span)>,
    ) -> ParseResult<Span> {
        let mut module_depth = 0usize;
        // True at positions where a new statement/item could begin — gates
        // instantiation detection to avoid matching inside expressions.
        let mut stmt_start = true;
        loop {
            let t = self.ts.peek().clone();
            if t.is_eof() {
                return Err(ParseError::new(
                    format!("module `{name}` is missing `endmodule`"),
                    t.span,
                ));
            }
            // Instantiation patterns at statement level (depth 0 only):
            //   target #( .P(v) ) label ( … );
            //   target label ( … );
            if module_depth == 0
                && stmt_start
                && t.kind == TokenKind::Ident
                && !TYPE_KEYWORDS.contains(&t.text)
                && !STMT_KEYWORDS.contains(&t.text)
                && ((self.ts.peek_n(1).is_sym("#") && self.ts.peek_n(2).is_sym("("))
                    || (self.ts.peek_n(1).kind == TokenKind::Ident
                        && !STMT_KEYWORDS.contains(&self.ts.peek_n(1).text)
                        && self.ts.peek_n(2).is_sym("(")))
            {
                match self.parse_instantiation(name) {
                    Ok(()) => {}
                    Err(e) => {
                        self.diags
                            .note(format!("unparsed instantiation: {e}"), t.span);
                        self.ts.skip_until_sym(&[";"]);
                        self.ts.eat_sym(";");
                    }
                }
                stmt_start = true;
                continue;
            }
            if t.is_kw("module") || t.is_kw("macromodule") {
                self.ts.next_tok();
                module_depth += 1;
                continue;
            }
            if t.is_kw("endmodule") {
                self.ts.next_tok();
                if self.ts.eat_sym(":") {
                    let _ = self.ts.expect_ident();
                }
                if module_depth == 0 {
                    return Ok(t.span);
                }
                module_depth -= 1;
                continue;
            }
            if module_depth > 0 {
                self.ts.next_tok();
                continue;
            }
            if let Some((_, end)) = SKIP_BLOCKS.iter().find(|(open, _)| t.is_kw(open)) {
                self.ts.next_tok();
                self.skip_until_kw(end, name)?;
                if self.ts.eat_sym(":") {
                    let _ = self.ts.expect_ident();
                }
                stmt_start = true;
                continue;
            }
            if t.is_kw("parameter") || t.is_kw("localparam") {
                // Statement form: `parameter [type] N = v [, M = v];`
                if let Err(e) = self.parse_param_statement(parameters) {
                    self.diags
                        .warn(format!("unparsed parameter declaration: {e}"), t.span);
                    self.ts.skip_until_sym(&[";"]);
                    self.ts.eat_sym(";");
                }
                stmt_start = true;
                continue;
            }
            if t.is_kw("input") || t.is_kw("output") || t.is_kw("inout") {
                if let Err(e) = self.parse_body_port_decl(ports, header_names) {
                    self.diags
                        .warn(format!("unparsed port declaration: {e}"), t.span);
                    self.ts.skip_until_sym(&[";"]);
                    self.ts.eat_sym(";");
                }
                stmt_start = true;
                continue;
            }
            stmt_start = t.is_sym(";")
                || t.is_sym(")")
                || t.is_kw("begin")
                || t.is_kw("end")
                || t.is_kw("else")
                || t.is_kw("generate")
                || t.is_kw("endgenerate");
            self.ts.next_tok();
        }
    }

    /// Parses `target [#(.P(v), …)] label [dims] ( … ) [, label2 ( … )] ;`
    /// collecting the named parameter overrides.
    fn parse_instantiation(&mut self, parent: &str) -> ParseResult<()> {
        let target_tok = self.ts.expect_ident()?;
        let mut generics = Vec::new();
        if self.ts.eat_sym("#") {
            self.ts.expect_sym("(")?;
            if !self.ts.peek().is_sym(")") {
                loop {
                    if self.ts.eat_sym(".") {
                        let gname = self.ts.expect_ident()?.text.to_string();
                        self.ts.expect_sym("(")?;
                        if self.ts.peek().is_sym(")") {
                            // `.P()` — explicitly unconnected; skip.
                            self.ts.next_tok();
                        } else {
                            let value = self.parse_expr()?;
                            self.ts.expect_sym(")")?;
                            generics.push((gname, value));
                        }
                    } else {
                        // Positional parameter override.
                        let _ = self.parse_expr()?;
                    }
                    if !self.ts.eat_sym(",") {
                        break;
                    }
                }
            }
            self.ts.expect_sym(")")?;
        }
        loop {
            let label = self.ts.expect_ident()?;
            self.skip_unpacked_dims()?;
            self.ts.expect_sym("(")?;
            self.ts.skip_balanced_parens()?;
            // Every instance of the statement shares the overrides; the
            // last one takes them.
            let more = self.ts.eat_sym(",");
            self.insts.push(Instantiation {
                label: label.text.to_string(),
                target: target_tok.text.to_string(),
                generics: if more {
                    generics.clone()
                } else {
                    std::mem::take(&mut generics)
                },
                parent: parent.to_string(),
                span: label.span,
            });
            if !more {
                break;
            }
        }
        self.ts.expect_sym(";")?;
        Ok(())
    }

    /// Parameter list inside `#( ... )`.
    fn parse_param_port_list(&mut self, out: &mut Vec<Parameter>) -> ParseResult<()> {
        if self.ts.peek().is_sym(")") {
            return Ok(());
        }
        let mut local = false;
        loop {
            if self.ts.eat_kw("parameter") {
                local = false;
            } else if self.ts.eat_kw("localparam") {
                local = true;
                self.saw_sv = true;
            }
            // Type parameter: `parameter type T = logic`.
            if self.ts.peek().is_kw("type") {
                self.saw_sv = true;
                self.ts.next_tok();
                let id = self.ts.expect_ident()?;
                self.diags.note(
                    format!("type parameter `{}` is not explorable by Dovado", id.text),
                    id.span,
                );
                out.push(Parameter {
                    name: id.text.to_string(),
                    ty: None,
                    default: None,
                    span: id.span,
                    local,
                });
                if self.ts.eat_sym("=") {
                    // Skip the type default up to `,` or `)`.
                    self.skip_param_default()?;
                }
                if !self.ts.eat_sym(",") {
                    break;
                }
                continue;
            }
            let ty = self.try_parse_type()?;
            let id = self.ts.expect_ident()?;
            self.skip_unpacked_dims()?;
            let default = if self.ts.eat_sym("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            out.push(Parameter {
                name: id.text.to_string(),
                ty,
                default,
                span: id.span,
                local,
            });
            if !self.ts.eat_sym(",") {
                break;
            }
        }
        Ok(())
    }

    /// `parameter [type] N = v [, M = v];` in the module body.
    fn parse_param_statement(&mut self, out: &mut Vec<Parameter>) -> ParseResult<()> {
        let local = self.ts.peek().is_kw("localparam");
        if local {
            self.saw_sv = true;
        }
        self.ts.next_tok(); // parameter | localparam
        if self.ts.peek().is_kw("type") {
            self.ts.next_tok();
            let id = self.ts.expect_ident()?;
            out.push(Parameter {
                name: id.text.to_string(),
                ty: None,
                default: None,
                span: id.span,
                local,
            });
            self.ts.skip_until_sym(&[";"]);
            self.ts.eat_sym(";");
            return Ok(());
        }
        let ty = self.try_parse_type()?;
        loop {
            let id = self.ts.expect_ident()?;
            self.skip_unpacked_dims()?;
            let default = if self.ts.eat_sym("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            out.push(Parameter {
                name: id.text.to_string(),
                ty: ty.clone(),
                default,
                span: id.span,
                local,
            });
            if !self.ts.eat_sym(",") {
                break;
            }
        }
        self.ts.expect_sym(";")?;
        Ok(())
    }

    /// Skips a type-parameter default (anything up to `,` or `)` at depth 0).
    fn skip_param_default(&mut self) -> ParseResult<()> {
        let mut depth = 0usize;
        loop {
            let t = self.ts.peek().clone();
            if t.is_eof() {
                return Err(ParseError::new("unterminated parameter default", t.span));
            }
            if t.is_sym("(") || t.is_sym("[") || t.is_sym("{") {
                depth += 1;
            } else if t.is_sym(")") {
                if depth == 0 {
                    return Ok(());
                }
                depth -= 1;
            } else if t.is_sym("]") || t.is_sym("}") {
                depth = depth.saturating_sub(1);
            } else if t.is_sym(",") && depth == 0 {
                return Ok(());
            }
            self.ts.next_tok();
        }
    }

    /// Port list inside `( ... )` — handles ANSI, non-ANSI, and mixtures.
    fn parse_port_list(
        &mut self,
        ports: &mut Vec<Port>,
        header_names: &mut Vec<(String, Span)>,
    ) -> ParseResult<()> {
        if self.ts.peek().is_sym(")") {
            return Ok(());
        }
        let mut dir: Option<Direction> = None;
        let mut ty = TypeSpec::scalar("");
        loop {
            let t = self.ts.peek().clone();
            let new_dir = if t.is_kw("input") {
                Some(Direction::In)
            } else if t.is_kw("output") {
                Some(Direction::Out)
            } else if t.is_kw("inout") {
                Some(Direction::InOut)
            } else {
                None
            };
            if let Some(d) = new_dir {
                self.ts.next_tok();
                dir = Some(d);
                ty = self
                    .try_parse_type()?
                    .unwrap_or_else(|| TypeSpec::scalar(""));
                let id = self.ts.expect_ident()?;
                self.skip_unpacked_dims()?;
                if self.ts.eat_sym("=") {
                    self.saw_sv = true;
                    let _ = self.parse_expr()?;
                }
                ports.push(Port {
                    name: id.text.to_string(),
                    direction: d,
                    ty: ty.clone(),
                    span: id.span,
                });
            } else if t.kind == TokenKind::Ident {
                // Might be: continuation item (name only, inheriting
                // direction/type), a typed continuation, or a non-ANSI name.
                let save = self.ts.save();
                let maybe_ty = self.try_parse_type()?;
                if self.ts.peek().kind != TokenKind::Ident {
                    // It wasn't a type after all (e.g. plain name): rewind.
                    self.ts.restore(save);
                    let id = self.ts.expect_ident()?;
                    self.skip_unpacked_dims()?;
                    match dir {
                        Some(d) => ports.push(Port {
                            name: id.text.to_string(),
                            direction: d,
                            ty: ty.clone(),
                            span: id.span,
                        }),
                        None => header_names.push((id.text.to_string(), id.span)),
                    }
                } else {
                    let id = self.ts.expect_ident()?;
                    self.skip_unpacked_dims()?;
                    if self.ts.eat_sym("=") {
                        let _ = self.parse_expr()?;
                    }
                    match dir {
                        Some(d) => {
                            if let Some(nt) = maybe_ty {
                                ty = nt;
                            }
                            ports.push(Port {
                                name: id.text.to_string(),
                                direction: d,
                                ty: ty.clone(),
                                span: id.span,
                            });
                        }
                        None => header_names.push((id.text.to_string(), id.span)),
                    }
                }
            } else if t.is_sym(".") {
                // Interface-port or explicit-port syntax `.name(expr)`:
                // record the external name, skip the inner expression.
                self.ts.next_tok();
                let id = self.ts.expect_ident()?;
                if self.ts.eat_sym("(") {
                    self.ts.skip_balanced_parens()?;
                }
                header_names.push((id.text.to_string(), id.span));
            } else {
                return Err(ParseError::new(
                    format!("unexpected `{t}` in port list"),
                    t.span,
                ));
            }
            if !self.ts.eat_sym(",") {
                break;
            }
        }
        Ok(())
    }

    /// Non-ANSI body declaration: `input [W-1:0] a, b;` etc. Updates or
    /// creates the corresponding ports.
    fn parse_body_port_decl(
        &mut self,
        ports: &mut Vec<Port>,
        header_names: &mut Vec<(String, Span)>,
    ) -> ParseResult<()> {
        let t = self.ts.next_tok();
        let dir = if t.is_kw("input") {
            Direction::In
        } else if t.is_kw("output") {
            Direction::Out
        } else {
            Direction::InOut
        };
        let ty = self
            .try_parse_type()?
            .unwrap_or_else(|| TypeSpec::scalar("wire"));
        loop {
            let id = self.ts.expect_ident()?;
            self.skip_unpacked_dims()?;
            if self.ts.eat_sym("=") {
                self.saw_sv = true;
                let _ = self.parse_expr()?;
            }
            if let Some(p) = ports
                .iter_mut()
                .find(|p| p.name.eq_ignore_ascii_case(id.text))
            {
                p.direction = dir;
                // Keep the more specific type (body decls carry the range).
                if !ty.ranges.is_empty() || p.ty.name.is_empty() {
                    p.ty = ty.clone();
                }
            } else {
                header_names.retain(|(n, _)| !n.eq_ignore_ascii_case(id.text));
                ports.push(Port {
                    name: id.text.to_string(),
                    direction: dir,
                    ty: ty.clone(),
                    span: id.span,
                });
            }
            if !self.ts.eat_sym(",") {
                break;
            }
        }
        self.ts.expect_sym(";")?;
        Ok(())
    }

    /// Attempts to parse a data type (keyword or user-defined name followed
    /// by another identifier), `signed`/`unsigned` qualifiers, and packed
    /// dimensions. Returns `None` when the next tokens are not a type.
    fn try_parse_type(&mut self) -> ParseResult<Option<TypeSpec>> {
        let mut name = String::new();
        let mut signed = false;

        let t = self.ts.peek().clone();
        if t.kind == TokenKind::Ident {
            if TYPE_KEYWORDS.contains(&t.text) {
                self.ts.next_tok();
                name = t.text.to_string();
                if matches!(
                    name.as_str(),
                    "logic" | "bit" | "byte" | "int" | "longint" | "shortint"
                ) {
                    self.saw_sv = true;
                }
                // `wire logic` style double keyword.
                let t2 = self.ts.peek().clone();
                if t2.kind == TokenKind::Ident && TYPE_KEYWORDS.contains(&t2.text) {
                    self.ts.next_tok();
                    name.push(' ');
                    name.push_str(t2.text);
                }
            } else if t.is_kw("signed") || t.is_kw("unsigned") {
                // handled below
            } else {
                // User-defined type only if followed by an identifier
                // (possibly after a `::` scope).
                let save = self.ts.save();
                let looks_scoped = self.ts.peek_n(1).is_sym("::");
                if looks_scoped {
                    let scoped = self.scoped_name_string()?;
                    if self.ts.peek().kind == TokenKind::Ident {
                        name = scoped;
                        self.saw_sv = true;
                    } else {
                        self.ts.restore(save);
                        return Ok(None);
                    }
                } else if self.ts.peek_n(1).kind == TokenKind::Ident {
                    self.ts.next_tok();
                    name = t.text.to_string();
                } else {
                    return Ok(None);
                }
            }
        }

        if self.ts.peek().is_kw("signed") {
            self.ts.next_tok();
            signed = true;
        } else if self.ts.peek().is_kw("unsigned") {
            self.ts.next_tok();
        }

        let mut ranges = Vec::new();
        while self.ts.peek().is_sym("[") {
            self.ts.next_tok();
            let left = self.parse_expr()?;
            self.ts.expect_sym(":")?;
            let right = self.parse_expr()?;
            self.ts.expect_sym("]")?;
            ranges.push(Range {
                left,
                right,
                dir: RangeDir::Downto,
            });
        }

        if name.is_empty() && !signed && ranges.is_empty() {
            return Ok(None);
        }
        Ok(Some(TypeSpec {
            name,
            ranges,
            signed,
        }))
    }

    /// Skips unpacked dimensions after a name: `[3:0]`, `[SIZE]`, `[]`.
    fn skip_unpacked_dims(&mut self) -> ParseResult<()> {
        while self.ts.peek().is_sym("[") {
            self.ts.next_tok();
            let mut depth = 1usize;
            loop {
                let t = self.ts.next_tok();
                if t.is_eof() {
                    return Err(ParseError::new("unbalanced `[`", t.span));
                }
                if t.is_sym("[") {
                    depth += 1;
                } else if t.is_sym("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Expression parser (precedence climbing over logic, comparison and
    /// arithmetic tiers, plus the ternary). Comparisons and logical ops
    /// become `Call` nodes: Dovado only needs to carry them symbolically
    /// (they appear in `localparam` defaults like
    /// `(DEPTH > 1) ? $clog2(DEPTH) : 1`).
    pub fn parse_expr(&mut self) -> ParseResult<Expr> {
        let outer = self.depth;
        self.open_level()?;
        let mut e = self.parse_bin(0)?;
        if self.ts.eat_sym("?") {
            e = self.parse_branches(e)?;
        }
        self.depth = outer;
        Ok(e)
    }

    /// The `then : else` of a ternary whose condition is parsed.
    fn parse_branches(&mut self, cond: Expr) -> ParseResult<Expr> {
        let then = self.parse_expr()?;
        self.ts.expect_sym(":")?;
        let els = self.parse_expr()?;
        Ok(Expr::Call("cond".into(), vec![cond, then, els]))
    }

    /// Opens one expression level at the current token, refusing input
    /// that nests past [`MAX_EXPR_DEPTH`]. Levels close when the
    /// `parse_expr` or `parse_bin` that opened them returns; on an error
    /// the whole parse fails, so only success paths restore the depth.
    fn open_level(&mut self) -> ParseResult<()> {
        if self.depth == MAX_EXPR_DEPTH {
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
        while let Some(op) = self.peek_infix().filter(|op| op.precedence() >= min_prec) {
            self.ts.next_tok();
            self.open_level()?;
            let rhs = self.parse_bin(op.precedence() + 1)?;
            lhs = op.apply(lhs, rhs);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn peek_infix(&mut self) -> Option<Infix> {
        let t = self.ts.peek();
        if t.kind != TokenKind::Sym {
            return None;
        }
        Some(match t.text {
            "&&" => Infix::Logic("and"),
            "||" => Infix::Logic("or"),
            "<" => Infix::Cmp("cmp<"),
            ">" => Infix::Cmp("cmp>"),
            "<=" => Infix::Cmp("cmp<="),
            ">=" => Infix::Cmp("cmp>="),
            "==" => Infix::Cmp("cmp=="),
            "!=" => Infix::Cmp("cmp!="),
            "===" => Infix::Cmp("cmp==="),
            "!==" => Infix::Cmp("cmp!=="),
            "+" => Infix::Arith(BinOp::Add),
            "-" => Infix::Arith(BinOp::Sub),
            "*" => Infix::Arith(BinOp::Mul),
            "/" => Infix::Arith(BinOp::Div),
            "%" => Infix::Arith(BinOp::Mod),
            "**" => Infix::Arith(BinOp::Pow),
            "<<" => Infix::Arith(BinOp::Shl),
            ">>" => Infix::Arith(BinOp::Shr),
            _ => return None,
        })
    }

    /// A primary behind any prefix operators; each operator opens one
    /// expression level.
    fn parse_unary(&mut self) -> ParseResult<Expr> {
        let mut negations = 0;
        loop {
            if self.ts.eat_sym("-") {
                negations += 1;
            } else if !self.ts.eat_sym("+") {
                break;
            }
            self.open_level()?;
        }
        let mut e = self.parse_primary()?;
        for _ in 0..negations {
            e = Expr::Neg(Box::new(e));
        }
        Ok(e)
    }

    /// A parenthesised expression, a name or call, or an atom. The paren
    /// case stays here and the others in their own functions, keeping
    /// this frame small: nested parentheses recurse through it.
    fn parse_primary(&mut self) -> ParseResult<Expr> {
        if self.ts.eat_sym("(") {
            let e = self.parse_expr()?;
            self.ts.expect_sym(")")?;
            return Ok(e);
        }
        if self.ts.peek().kind == TokenKind::Ident {
            return self.parse_name();
        }
        self.parse_atom()
    }

    /// A literal, a concatenation or an assignment pattern.
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
            TokenKind::Str(s) => {
                self.ts.next_tok();
                Ok(Expr::Str(s.clone()))
            }
            TokenKind::Sym if t.text == "{" => {
                // Concatenation / replication — skip balanced, keep a marker.
                self.ts.next_tok();
                let mut depth = 1usize;
                loop {
                    let t2 = self.ts.next_tok();
                    if t2.is_eof() {
                        return Err(ParseError::new("unbalanced `{`", t2.span));
                    }
                    if t2.is_sym("{") {
                        depth += 1;
                    } else if t2.is_sym("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                Ok(Expr::Str("<concat>".into()))
            }
            TokenKind::Sym if t.text == "'{" => {
                // Assignment pattern.
                self.ts.next_tok();
                let mut depth = 1usize;
                loop {
                    let t2 = self.ts.next_tok();
                    if t2.is_eof() {
                        return Err(ParseError::new("unbalanced `'{`", t2.span));
                    }
                    if t2.is_sym("{") || t2.is_sym("'{") {
                        depth += 1;
                    } else if t2.is_sym("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
                Ok(Expr::Str("<pattern>".into()))
            }
            _ => Err(ParseError::new(
                format!("expected expression, found `{t}`"),
                t.span,
            )),
        }
    }

    /// A (package-scoped) name, a call, or a name with selects skipped.
    fn parse_name(&mut self) -> ParseResult<Expr> {
        let mut name = self.ts.next_tok().text.to_string();
        while self.ts.eat_sym("::") {
            let part = self.ts.expect_ident()?;
            name.push_str("::");
            name.push_str(part.text);
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
        // Bit/part select after a name: skip, keep the name.
        while self.ts.peek().is_sym("[") {
            self.skip_unpacked_dims()?;
        }
        Ok(Expr::Ident(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::lexer::lex;
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

    const ANSI_FIFO: &str = r#"
// Synchronous FIFO in the cv32e40p style.
module fifo #(
    parameter int unsigned DEPTH = 8,
    parameter int unsigned DATA_WIDTH = 32,
    parameter bit FALL_THROUGH = 1'b0,
    localparam int unsigned ADDR_DEPTH = (DEPTH > 1) ? $clog2(DEPTH) : 1
) (
    input  logic                  clk_i,
    input  logic                  rst_ni,
    input  logic [DATA_WIDTH-1:0] data_i,
    input  logic                  push_i,
    output logic [DATA_WIDTH-1:0] data_o,
    output logic                  pop_o,
    output logic                  full_o,
    output logic                  empty_o
);
  logic [ADDR_DEPTH-1:0] rd_ptr, wr_ptr;
  always_ff @(posedge clk_i or negedge rst_ni) begin
    if (!rst_ni) rd_ptr <= '0;
  end
endmodule : fifo
"#;

    #[test]
    fn ansi_module_parses() {
        let f = parse_ok(ANSI_FIFO);
        assert_eq!(f.modules.len(), 1);
        let m = &f.modules[0];
        assert_eq!(m.name, "fifo");
        assert_eq!(m.language, Language::SystemVerilog);
        assert_eq!(m.parameters.len(), 4);
        assert_eq!(m.ports.len(), 8);
    }

    #[test]
    fn localparam_excluded_from_free() {
        let f = parse_ok(ANSI_FIFO);
        let m = &f.modules[0];
        assert_eq!(m.free_parameters().count(), 3);
        assert!(m.parameter("ADDR_DEPTH").unwrap().local);
    }

    #[test]
    fn parameter_defaults_evaluate() {
        let f = parse_ok(ANSI_FIFO);
        let m = &f.modules[0];
        assert_eq!(m.parameter("DEPTH").unwrap().const_default(), Some(8));
        assert_eq!(m.parameter("DATA_WIDTH").unwrap().const_default(), Some(32));
        assert_eq!(
            m.parameter("FALL_THROUGH").unwrap().const_default(),
            Some(0)
        );
    }

    #[test]
    fn port_widths_symbolic() {
        let f = parse_ok(ANSI_FIFO);
        let m = &f.modules[0];
        let mut env = BTreeMap::new();
        env.insert("DATA_WIDTH".to_string(), 64i64);
        assert_eq!(m.port("data_i").unwrap().ty.bit_width(&env).unwrap(), 64);
        assert_eq!(m.port("clk_i").unwrap().ty.bit_width(&env).unwrap(), 1);
    }

    #[test]
    fn clock_found() {
        let f = parse_ok(ANSI_FIFO);
        assert_eq!(f.modules[0].clock_port().unwrap().name, "clk_i");
    }

    const NON_ANSI: &str = r#"
module adder(a, b, cin, sum, cout);
  parameter WIDTH = 8;
  input  [WIDTH-1:0] a, b;
  input              cin;
  output [WIDTH:0]   sum;
  output             cout;
  assign {cout, sum} = a + b + cin;
endmodule
"#;

    #[test]
    fn non_ansi_module_parses() {
        let f = parse_ok(NON_ANSI);
        let m = &f.modules[0];
        assert_eq!(m.name, "adder");
        assert_eq!(m.language, Language::Verilog);
        assert_eq!(m.parameters.len(), 1);
        assert_eq!(m.ports.len(), 5);
        assert_eq!(m.port("a").unwrap().direction, Direction::In);
        assert_eq!(m.port("sum").unwrap().direction, Direction::Out);
    }

    #[test]
    fn non_ansi_widths_resolved_from_body() {
        let f = parse_ok(NON_ANSI);
        let m = &f.modules[0];
        let mut env = BTreeMap::new();
        env.insert("WIDTH".to_string(), 8i64);
        assert_eq!(m.port("a").unwrap().ty.bit_width(&env).unwrap(), 8);
        assert_eq!(m.port("sum").unwrap().ty.bit_width(&env).unwrap(), 9);
    }

    #[test]
    fn ternary_default_parses() {
        let f = parse_ok(ANSI_FIFO);
        let p = f.modules[0].parameter("ADDR_DEPTH").unwrap();
        assert!(matches!(&p.default, Some(Expr::Call(n, _)) if n == "cond"));
    }

    #[test]
    fn function_inputs_not_ports() {
        let src = r#"
module m(input logic clk);
  function automatic logic [3:0] f;
    input [3:0] x;
    f = x + 1;
  endfunction
endmodule
"#;
        let f = parse_ok(src);
        assert_eq!(f.modules[0].ports.len(), 1);
    }

    #[test]
    fn nested_module_skipped() {
        let src = r#"
module outer(input wire clk);
  module inner(input wire c2); endmodule
endmodule
"#;
        let f = parse_ok(src);
        assert_eq!(f.modules.len(), 1);
        assert_eq!(f.modules[0].name, "outer");
    }

    #[test]
    fn package_and_import_recorded() {
        let src = r#"
package my_pkg;
  localparam int W = 4;
endpackage : my_pkg
import my_pkg::*;
module m(input logic clk);
endmodule
"#;
        let f = parse_ok(src);
        assert_eq!(f.packages.len(), 1);
        assert_eq!(f.packages[0].name, "my_pkg");
        assert!(f
            .context
            .iter()
            .any(|c| matches!(c, ContextClause::Import(i) if i == "my_pkg::*")));
    }

    #[test]
    fn include_recorded() {
        let f = parse_ok("`include \"defs.vh\"\nmodule m(input wire c); endmodule");
        assert!(f
            .context
            .iter()
            .any(|c| matches!(c, ContextClause::Include(i) if i == "defs.vh")));
    }

    #[test]
    fn direction_inheritance_in_ansi_list() {
        let src = "module m(input logic a, b, output logic q, r); endmodule";
        let f = parse_ok(src);
        let m = &f.modules[0];
        assert_eq!(m.port("a").unwrap().direction, Direction::In);
        assert_eq!(m.port("b").unwrap().direction, Direction::In);
        assert_eq!(m.port("q").unwrap().direction, Direction::Out);
        assert_eq!(m.port("r").unwrap().direction, Direction::Out);
    }

    #[test]
    fn type_inheritance_keeps_ranges() {
        let src = "module m(input logic [7:0] a, b); endmodule";
        let f = parse_ok(src);
        let m = &f.modules[0];
        let env = BTreeMap::new();
        assert_eq!(m.port("b").unwrap().ty.bit_width(&env).unwrap(), 8);
    }

    #[test]
    fn parameter_without_keyword_in_header() {
        let src = "module m #(W = 4, D = 16)(input wire clk); endmodule";
        let f = parse_ok(src);
        let m = &f.modules[0];
        assert_eq!(m.parameters.len(), 2);
        assert_eq!(m.parameter("D").unwrap().const_default(), Some(16));
    }

    #[test]
    fn body_parameters_found() {
        let src =
            "module m(input wire clk); parameter DEPTH = 32; localparam L = DEPTH * 2; endmodule";
        let f = parse_ok(src);
        let m = &f.modules[0];
        assert_eq!(m.parameters.len(), 2);
        assert!(!m.parameter("DEPTH").unwrap().local);
        assert!(m.parameter("L").unwrap().local);
    }

    #[test]
    fn empty_port_list() {
        let f = parse_ok("module tb(); endmodule");
        assert!(f.modules[0].ports.is_empty());
        let f2 = parse_ok("module tb2; endmodule");
        assert!(f2.modules[0].ports.is_empty());
    }

    #[test]
    fn signed_type() {
        let f = parse_ok("module m(input signed [7:0] x); endmodule");
        assert!(f.modules[0].port("x").unwrap().ty.signed);
    }

    #[test]
    fn two_modules() {
        let f = parse_ok("module a(input wire c); endmodule module b(input wire c); endmodule");
        assert_eq!(f.modules.len(), 2);
    }

    #[test]
    fn missing_endmodule_is_fatal() {
        let r = Parser::new(lex("module m(input wire c);").unwrap()).parse_file();
        assert!(r.is_err());
    }

    #[test]
    fn clog2_width_evaluates() {
        let src = "module m #(parameter Q = 64)(input wire [$clog2(Q)-1:0] sel); endmodule";
        let f = parse_ok(src);
        let mut env = BTreeMap::new();
        env.insert("Q".to_string(), 64i64);
        assert_eq!(
            f.modules[0]
                .port("sel")
                .unwrap()
                .ty
                .bit_width(&env)
                .unwrap(),
            6
        );
    }

    #[test]
    fn user_defined_type_port() {
        let src = "module m(input my_pkg::req_t req, input logic clk); endmodule";
        let f = parse_ok(src);
        let m = &f.modules[0];
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.port("req").unwrap().ty.name, "my_pkg::req_t");
    }

    #[test]
    fn shift_and_pow_defaults() {
        let src = "module m #(parameter A = 1 << 4, parameter B = 2 ** 5)(input wire c); endmodule";
        let f = parse_ok(src);
        let m = &f.modules[0];
        assert_eq!(m.parameter("A").unwrap().const_default(), Some(16));
        assert_eq!(m.parameter("B").unwrap().const_default(), Some(32));
    }

    #[test]
    fn concat_default_tolerated() {
        let src = "module m #(parameter [15:0] MAGIC = {8'hAB, 8'hCD})(input wire c); endmodule";
        let f = parse_ok(src);
        assert_eq!(f.modules[0].parameters.len(), 1);
    }

    #[test]
    fn instantiation_with_params_collected() {
        let src = r#"
module box(input wire clk);
  fifo #(
      .DEPTH(64),
      .DATA_WIDTH(32)
  ) BOXED (
      .clk_i(clk),
      .rst_ni(1'b1)
  );
endmodule
"#;
        let f = parse_ok(src);
        assert_eq!(f.instantiations.len(), 1);
        let i = &f.instantiations[0];
        assert_eq!(i.label, "BOXED");
        assert_eq!(i.target, "fifo");
        assert_eq!(i.parent, "box");
        assert_eq!(i.generics.len(), 2);
        assert_eq!(i.generics[0], ("DEPTH".to_string(), Expr::Int(64)));
    }

    #[test]
    fn instantiation_without_params() {
        let src = "module top(input wire clk); sub u_sub (.clk(clk)); endmodule";
        let f = parse_ok(src);
        assert_eq!(f.instantiations.len(), 1);
        assert_eq!(f.instantiations[0].target, "sub");
        assert!(f.instantiations[0].generics.is_empty());
    }

    #[test]
    fn multiple_instances_one_statement() {
        let src = "module top(input wire clk); buf_x b1 (clk), b2 (clk); endmodule";
        let f = parse_ok(src);
        assert_eq!(f.instantiations.len(), 2);
        assert_eq!(f.instantiations[1].label, "b2");
    }

    #[test]
    fn assignments_not_mistaken_for_instantiations() {
        let src = r#"
module m(input wire clk, output reg [3:0] q);
  always @(posedge clk) begin
    q <= q + 1;
  end
  assign w = f(q);
endmodule
"#;
        let f = parse_ok(src);
        assert!(f.instantiations.is_empty());
    }

    #[test]
    fn unpacked_dims_skipped() {
        let src = "module m(input logic arr [0:3], input logic clk); endmodule";
        let f = parse_ok(src);
        assert_eq!(f.modules[0].ports.len(), 2);
    }

    #[test]
    fn expression_nesting_is_capped_with_a_located_error() {
        crate::lexer::with_main_stack(expression_nesting_cap);
    }

    fn expression_nesting_cap() {
        const PREFIX: &str = "  parameter P = ";
        let module =
            |expr: String| format!("module m #(\n{PREFIX}{expr}\n)(input wire c); endmodule");
        // An expression `levels` deep: the outermost level plus one per
        // parenthesis, call, ternary, prefix operator or chained binary
        // operator.
        let parens = |levels: usize| {
            let n = levels - 1;
            module(format!("{}1{}", "(".repeat(n), ")".repeat(n)))
        };
        let calls = |levels: usize| {
            let n = levels - 1;
            module(format!("{}1{}", "f(".repeat(n), ")".repeat(n)))
        };
        let prefixed = |levels: usize| module(format!("{}1", "-".repeat(levels - 1)));
        let chain = |levels: usize| module(format!("1{}", "+1".repeat(levels - 1)));
        let ternary = |levels: usize| module(format!("{}1", "1 ? 1 : ".repeat(levels - 1)));

        for src in [
            parens(MAX_EXPR_DEPTH),
            calls(MAX_EXPR_DEPTH),
            prefixed(MAX_EXPR_DEPTH),
            chain(MAX_EXPR_DEPTH),
            ternary(MAX_EXPR_DEPTH),
        ] {
            let f = parse_ok(&src);
            assert!(f.modules[0].parameters[0].default.is_some());
        }
        let refused = |src: String| Parser::new(lex(&src).unwrap()).parse_file().unwrap_err();
        // Level 257 opens at its first token: the `1` behind 256 openers.
        for (src, opener_len) in [
            (parens(MAX_EXPR_DEPTH + 1), 1),
            (calls(MAX_EXPR_DEPTH + 1), 2),
            (prefixed(MAX_EXPR_DEPTH + 1), 1),
            (chain(MAX_EXPR_DEPTH + 1), 2),
        ] {
            let err = refused(src);
            assert!(
                err.message.contains("nests deeper than 256 levels"),
                "{err}"
            );
            let col = PREFIX.len() + opener_len * MAX_EXPR_DEPTH + 1;
            assert_eq!((err.span.line, err.span.col as usize), (2, col), "{err}");
        }
        // A ternary chain first crosses in the `then` of its 256th `?`.
        let err = refused(ternary(MAX_EXPR_DEPTH + 1));
        let col = PREFIX.len() + "1 ? 1 : ".len() * (MAX_EXPR_DEPTH - 1) + "1 ? ".len() + 1;
        assert_eq!((err.span.line, err.span.col as usize), (2, col), "{err}");
        // Far past the cap the parser refuses without recursing that deep.
        for src in [parens(5_000), prefixed(100_000), chain(100_000)] {
            let err = refused(src);
            assert_eq!(err.span.line, 2, "{err}");
        }
    }
}
