//! The TCL interpreter: substitution, builtins, and dispatch to the
//! embedding context's commands.
//!
//! Words borrow from the script's cached parse: a literal or braced word
//! reaches its command as a slice of the parse, and only a word that a
//! `$variable` or `[command]` substitution changed owns its text. One
//! words buffer serves every command of a script.

use crate::error::{EdaError, EdaResult};
use crate::tcl::expr::eval_expr_at;
use crate::tcl::parser::{parse_script, Command, Part, ScriptCache, Word};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// How deeply scripts may nest: the script handed to [`Interp::eval`] is
/// level 1, and each command substitution, control-structure body and
/// `proc` call opens one more. All of them enter one recursive evaluator,
/// so the cap keeps hostile or runaway input (10,000 nested `[…]`, a
/// `proc` calling itself) from overflowing the stack.
pub const MAX_SCRIPT_DEPTH: usize = 64;

/// The embedding context supplies non-builtin commands (the Vivado command
/// set, in this crate's case).
pub trait TclContext {
    /// Executes `name args…`, returning the command's string result. An
    /// argument borrows the script's parse unless a substitution built it.
    fn run_command(
        &mut self,
        interp: &mut Interp,
        name: &str,
        args: &[Cow<'_, str>],
    ) -> EdaResult<String>;
}

/// A context with no commands: every non-builtin is an error. Useful for
/// testing the interpreter itself.
pub struct NoContext;

impl TclContext for NoContext {
    fn run_command(
        &mut self,
        _interp: &mut Interp,
        name: &str,
        _args: &[Cow<'_, str>],
    ) -> EdaResult<String> {
        Err(EdaError::Tcl(format!("invalid command name \"{name}\"")))
    }
}

/// Non-error control flow raised by `break`/`continue` inside loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Break,
    Continue,
}

/// A user-defined procedure (`proc name {params} {body}`).
#[derive(Debug)]
struct Proc {
    params: Vec<String>,
    body: String,
}

/// Interpreter state: variables and collected `puts` output.
#[derive(Debug)]
pub struct Interp {
    vars: HashMap<String, String>,
    procs: HashMap<String, Arc<Proc>>,
    /// Loop control raised inside an `if` body, consumed by the enclosing
    /// loop (or surfaced as an error at the top level).
    pending_flow: Option<Flow>,
    /// Where every evaluated script is parsed.
    scripts: ScriptCache,
    /// Scripts being evaluated, outermost included.
    depth: usize,
    /// Line of the running command in the outermost script, which the
    /// depth errors name.
    line: u32,
    /// Everything printed via `puts`.
    pub output: String,
}

impl Default for Interp {
    fn default() -> Interp {
        Interp::new()
    }
}

impl Interp {
    /// Creates a fresh interpreter with a private script cache.
    pub fn new() -> Interp {
        Interp::with_scripts(ScriptCache::new())
    }

    /// Creates a fresh interpreter that parses scripts through `scripts`,
    /// shared with other interpreters.
    pub fn with_scripts(scripts: ScriptCache) -> Interp {
        Interp {
            vars: HashMap::new(),
            procs: HashMap::new(),
            pending_flow: None,
            scripts,
            depth: 0,
            line: 0,
            output: String::new(),
        }
    }

    /// Sets a variable (as `set name value` would).
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.vars.insert(name.into(), value.into());
    }

    /// Reads a variable.
    pub fn get_var(&self, name: &str) -> Option<&str> {
        self.vars.get(name).map(String::as_str)
    }

    /// Evaluates a script, returning the result of its last command.
    pub fn eval<C: TclContext>(&mut self, ctx: &mut C, script: &str) -> EdaResult<String> {
        let (result, flow) = self.eval_flow(ctx, script)?;
        if flow != Flow::Normal || self.pending_flow.take().is_some() {
            return Err(EdaError::Tcl("`break`/`continue` outside a loop".into()));
        }
        Ok(result)
    }

    /// Evaluates a script, propagating loop control flow to the caller.
    fn eval_flow<C: TclContext>(&mut self, ctx: &mut C, script: &str) -> EdaResult<(String, Flow)> {
        if self.depth == MAX_SCRIPT_DEPTH {
            return Err(EdaError::Tcl(format!(
                "line {}: scripts nest deeper than {MAX_SCRIPT_DEPTH} levels",
                self.line
            )));
        }
        // Holding the parse keeps every word borrowed from it alive, even
        // if a nested script empties the cache meanwhile.
        let commands = self.scripts.parse(script)?;
        self.depth += 1;
        let result = self.run_commands(ctx, &commands);
        self.depth -= 1;
        result
    }

    fn run_commands<C: TclContext>(
        &mut self,
        ctx: &mut C,
        commands: &[Command],
    ) -> EdaResult<(String, Flow)> {
        let mut last = String::new();
        let widest = commands.iter().map(|c| c.words.len()).max().unwrap_or(0);
        let mut words: Vec<Cow<'_, str>> = Vec::with_capacity(widest);
        for cmd in commands {
            if self.depth == 1 {
                self.line = cmd.line;
            }
            words.clear();
            for w in &cmd.words {
                let word = self.subst_word(ctx, w)?;
                words.push(word);
            }
            let Some((name, args)) = words.split_first() else {
                continue;
            };
            match name.as_ref() {
                "break" => return Ok((last, Flow::Break)),
                "continue" => return Ok((last, Flow::Continue)),
                _ => {}
            }
            last = self.dispatch(ctx, name, args)?;
            // `break`/`continue` raised inside an `if` body propagates out
            // of the surrounding script.
            if let Some(flow) = self.pending_flow.take() {
                return Ok((last, flow));
            }
        }
        Ok((last, Flow::Normal))
    }

    /// Substitutes `$vars` and `[commands]` inside a plain string (used by
    /// `expr` and `if` conditions that arrive as braced literals).
    pub fn subst_string<C: TclContext>(&mut self, ctx: &mut C, s: &str) -> EdaResult<String> {
        // Reuse the parser by wrapping the string in a fake quoted word.
        // Escape embedded quotes/backslashes first so the parse is exact.
        let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
        let cmds = parse_script(&format!("__subst \"{escaped}\""))?;
        let word = &cmds[0].words[1];
        Ok(self.subst_word(ctx, word)?.into_owned())
    }

    /// The text of word `w`: borrowed from the parse when it is literal,
    /// built when a substitution changes it.
    fn subst_word<'w, C: TclContext>(
        &mut self,
        ctx: &mut C,
        w: &'w Word,
    ) -> EdaResult<Cow<'w, str>> {
        let parts = match w {
            Word::Braced(s) => return Ok(Cow::Borrowed(s)),
            Word::Bare(parts) => parts,
        };
        match parts.as_slice() {
            [] => return Ok(Cow::Borrowed("")),
            [Part::Lit(s)] => return Ok(Cow::Borrowed(s)),
            [Part::Cmd(script)] => return self.eval(ctx, script).map(Cow::Owned),
            _ => {}
        }
        let mut out = String::new();
        for p in parts {
            match p {
                Part::Lit(s) => out.push_str(s),
                Part::Var(name) => out.push_str(self.var(name)?),
                Part::Cmd(script) => {
                    let v = self.eval(ctx, script)?;
                    out.push_str(&v);
                }
            }
        }
        Ok(Cow::Owned(out))
    }

    /// The value of variable `name`, or the error `$name` raises.
    fn var(&self, name: &str) -> EdaResult<&str> {
        self.get_var(name)
            .ok_or_else(|| EdaError::Tcl(format!("can't read \"{name}\": no such variable")))
    }

    fn dispatch<C: TclContext>(
        &mut self,
        ctx: &mut C,
        name: &str,
        args: &[Cow<'_, str>],
    ) -> EdaResult<String> {
        match name {
            "set" => match args {
                [n] => self.var(n).map(str::to_string),
                [n, v] => {
                    self.vars.insert(n.to_string(), v.to_string());
                    Ok(v.to_string())
                }
                _ => Err(EdaError::Tcl("wrong # args: set varName ?value?".into())),
            },
            "unset" => {
                for a in args {
                    self.vars.remove(a.as_ref());
                }
                Ok(String::new())
            }
            "puts" => {
                let (nonewline, text) = match args {
                    [flag, t] if flag == "-nonewline" => (true, t.as_ref()),
                    [t] => (false, t.as_ref()),
                    [] => (false, ""),
                    _ => {
                        return Err(EdaError::Tcl(
                            "wrong # args: puts ?-nonewline? string".into(),
                        ))
                    }
                };
                self.output.push_str(text);
                if !nonewline {
                    self.output.push('\n');
                }
                Ok(String::new())
            }
            "expr" => {
                let joined = args.join(" ");
                let substituted = self.subst_string(ctx, &joined)?;
                eval_expr_at(&substituted, self.line)
            }
            "incr" => match args {
                [n] | [n, _] => {
                    let by: i64 = if args.len() == 2 {
                        args[1]
                            .parse()
                            .map_err(|_| EdaError::Tcl(format!("bad increment `{}`", args[1])))?
                    } else {
                        1
                    };
                    let cur: i64 = self
                        .vars
                        .get(n.as_ref())
                        .map(|v| v.parse().unwrap_or(0))
                        .unwrap_or(0);
                    let v = (cur + by).to_string();
                    self.vars.insert(n.to_string(), v.clone());
                    Ok(v)
                }
                _ => Err(EdaError::Tcl(
                    "wrong # args: incr varName ?increment?".into(),
                )),
            },
            "if" => self.run_if(ctx, args),
            "foreach" => match args {
                [var, list, body] => {
                    let mut last = String::new();
                    for item in list.split_whitespace() {
                        self.vars.insert(var.to_string(), item.to_string());
                        let (r, flow) = self.eval_flow(ctx, body)?;
                        last = r;
                        match flow {
                            Flow::Break => break,
                            Flow::Continue | Flow::Normal => {}
                        }
                    }
                    Ok(last)
                }
                _ => Err(EdaError::Tcl("wrong # args: foreach var list body".into())),
            },
            "while" => match args {
                [cond, body] => {
                    let mut last = String::new();
                    let mut guard = 0u64;
                    loop {
                        let c = self.subst_string(ctx, cond)?;
                        if eval_expr_at(&c, self.line)? == "0" {
                            break;
                        }
                        let (r, flow) = self.eval_flow(ctx, body)?;
                        last = r;
                        if flow == Flow::Break {
                            break;
                        }
                        guard += 1;
                        if guard > 100_000 {
                            return Err(EdaError::Tcl("while: iteration limit exceeded".into()));
                        }
                    }
                    Ok(last)
                }
                _ => Err(EdaError::Tcl("wrong # args: while cond body".into())),
            },
            "proc" => match args {
                [name, params, body] => {
                    let proc = Proc {
                        params: params.split_whitespace().map(str::to_string).collect(),
                        body: body.to_string(),
                    };
                    self.procs.insert(name.to_string(), Arc::new(proc));
                    Ok(String::new())
                }
                _ => Err(EdaError::Tcl("wrong # args: proc name params body".into())),
            },
            "list" => Ok(args.join(" ")),
            "string" => match args {
                [op, s] if op == "length" => Ok(s.chars().count().to_string()),
                [op, s] if op == "tolower" => Ok(s.to_lowercase()),
                [op, s] if op == "toupper" => Ok(s.to_uppercase()),
                _ => Err(EdaError::Tcl("unsupported `string` form".into())),
            },
            _ => {
                if let Some(p) = self.procs.get(name).cloned() {
                    if args.len() != p.params.len() {
                        return Err(EdaError::Tcl(format!(
                            "wrong # args for proc `{name}`: want {}, got {}",
                            p.params.len(),
                            args.len()
                        )));
                    }
                    // TCL procs have their own scope; this subset shares the
                    // global one but restores shadowed parameters afterward.
                    let saved: Vec<(String, Option<String>)> = p
                        .params
                        .iter()
                        .map(|k| (k.clone(), self.vars.get(k).cloned()))
                        .collect();
                    for (k, v) in p.params.iter().zip(args) {
                        self.vars.insert(k.clone(), v.to_string());
                    }
                    let result = self.eval(ctx, &p.body);
                    for (k, old) in saved {
                        match old {
                            Some(v) => self.vars.insert(k, v),
                            None => self.vars.remove(&k),
                        };
                    }
                    return result;
                }
                ctx.run_command(self, name, args)
            }
        }
    }

    fn run_if<C: TclContext>(&mut self, ctx: &mut C, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let mut i = 0usize;
        loop {
            if i + 1 >= args.len() {
                return Err(EdaError::Tcl("wrong # args: if cond body …".into()));
            }
            let cond = self.subst_string(ctx, &args[i])?;
            let truth = eval_expr_at(&cond, self.line)?;
            if truth != "0" {
                let (r, flow) = self.eval_flow(ctx, &args[i + 1])?;
                if flow != Flow::Normal {
                    self.pending_flow = Some(flow);
                }
                return Ok(r);
            }
            i += 2;
            match args.get(i).map(AsRef::as_ref) {
                Some("elseif") => {
                    i += 1;
                    continue;
                }
                Some("else") => {
                    let body = args
                        .get(i + 1)
                        .ok_or_else(|| EdaError::Tcl("missing else body".into()))?;
                    let (r, flow) = self.eval_flow(ctx, body)?;
                    if flow != Flow::Normal {
                        self.pending_flow = Some(flow);
                    }
                    return Ok(r);
                }
                None => return Ok(String::new()),
                Some(other) => {
                    return Err(EdaError::Tcl(format!(
                        "expected elseif/else, got `{other}`"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcl::MAX_CACHED_SCRIPTS;

    fn run(script: &str) -> (String, String) {
        let mut i = Interp::new();
        let r = i.eval(&mut NoContext, script).unwrap();
        (r, i.output)
    }

    #[test]
    fn set_and_substitute() {
        let (r, _) = run("set a 5\nset b $a");
        assert_eq!(r, "5");
    }

    #[test]
    fn puts_collects_output() {
        let (_, out) = run("puts hello\nputs \"a b\"");
        assert_eq!(out, "hello\na b\n");
    }

    #[test]
    fn puts_nonewline() {
        let (_, out) = run("puts -nonewline x\nputs y");
        assert_eq!(out, "xy\n");
    }

    #[test]
    fn expr_with_variables() {
        let (r, _) = run("set t 1.0\nset wns -4.0\nexpr {1000.0 / ($t - $wns)}");
        assert_eq!(r, "200");
    }

    #[test]
    fn bracket_substitution_runs_commands() {
        let (r, _) = run("set x [expr {2 + 3}]");
        assert_eq!(r, "5");
    }

    #[test]
    fn if_elseif_else() {
        let (r, _) = run("set x 5\nif {$x > 10} {set y big} elseif {$x > 3} {set y mid} else {set y small}\nset y");
        assert_eq!(r, "mid");
        let (r2, _) = run("set x 1\nif {$x > 10} {set y big} else {set y small}\nset y");
        assert_eq!(r2, "small");
        let (r3, _) = run("if {0} {set y never}");
        assert_eq!(r3, "");
    }

    #[test]
    fn foreach_iterates() {
        let (_, out) = run("foreach p {a b c} { puts $p }");
        assert_eq!(out, "a\nb\nc\n");
    }

    #[test]
    fn incr_counts() {
        let (r, _) = run("set i 0\nincr i\nincr i 10\nset i");
        assert_eq!(r, "11");
    }

    #[test]
    fn unset_removes() {
        let mut i = Interp::new();
        i.eval(&mut NoContext, "set a 1\nunset a").unwrap();
        assert!(i.eval(&mut NoContext, "set b $a").is_err());
    }

    #[test]
    fn unknown_command_reported_by_context() {
        let mut i = Interp::new();
        let e = i.eval(&mut NoContext, "synth_design -top foo").unwrap_err();
        assert!(e.to_string().contains("synth_design"));
    }

    #[test]
    fn undefined_variable_is_error() {
        let mut i = Interp::new();
        assert!(i.eval(&mut NoContext, "puts $nope").is_err());
    }

    #[test]
    fn string_ops() {
        let (r, _) = run("string toupper abc");
        assert_eq!(r, "ABC");
        let (r2, _) = run("string length hello");
        assert_eq!(r2, "5");
    }

    #[test]
    fn list_builds_space_joined() {
        let (r, _) = run("list a b c");
        assert_eq!(r, "a b c");
    }

    #[test]
    fn braced_body_not_substituted_until_needed() {
        // $y does not exist, but the false branch is never evaluated.
        let (r, _) = run("set x 1\nif {$x} {set z ok} else {puts $y}\nset z");
        assert_eq!(r, "ok");
    }

    #[test]
    fn while_loop_with_break_and_continue() {
        let (r, out) = run(
            "set i 0\nset acc 0\nwhile {$i < 10} {\n  incr i\n  if {$i == 3} { continue }\n  if {$i == 6} { break }\n  set acc [expr {$acc + $i}]\n}\nset acc",
        );
        // Sums 1+2+4+5 (3 skipped, loop broken at 6).
        assert_eq!(r, "12");
        assert_eq!(out, "");
    }

    #[test]
    fn while_false_never_runs() {
        let (r, _) = run("set x 1\nwhile {0} { set x 2 }\nset x");
        assert_eq!(r, "1");
    }

    #[test]
    fn foreach_break_stops_early() {
        let (_, out) = run("foreach n {1 2 3 4} { puts $n\nif {$n >= 2} { break } }");
        assert_eq!(out, "1\n2\n");
    }

    #[test]
    fn proc_definition_and_call() {
        let (r, out) = run(
            "proc fmax {period wns} { expr {1000.0 / ($period - $wns)} }\n\
             puts [fmax 1.0 -4.0]\n\
             fmax 2.0 -3.0",
        );
        assert_eq!(out, "200\n");
        assert_eq!(r, "200");
    }

    #[test]
    fn proc_restores_shadowed_variables() {
        let (r, _) = run("set x outer\nproc shadow {x} { set x inner }\nshadow bound\nset x");
        assert_eq!(r, "outer");
    }

    #[test]
    fn proc_wrong_arity_errors() {
        let mut i = Interp::new();
        i.eval(&mut NoContext, "proc two {a b} { set a }").unwrap();
        assert!(i.eval(&mut NoContext, "two 1").is_err());
    }

    #[test]
    fn break_outside_loop_is_error() {
        let mut i = Interp::new();
        assert!(i.eval(&mut NoContext, "break").is_err());
        assert!(i.eval(&mut NoContext, "continue").is_err());
    }

    #[test]
    fn while_iteration_limit_guards_infinite_loops() {
        let mut i = Interp::new();
        let e = i.eval(&mut NoContext, "while {1} { set x 1 }").unwrap_err();
        assert!(e.to_string().contains("iteration limit"));
    }

    /// `list [list [… [list a] …]]`: a script `levels` deep.
    fn nested_brackets(levels: usize) -> String {
        format!(
            "{}list a{}",
            "list [".repeat(levels - 1),
            "]".repeat(levels - 1)
        )
    }

    /// `if {1} { if {1} { … set r ok … } }`: a script `levels` deep.
    fn nested_bodies(levels: usize, innermost: &str) -> String {
        format!(
            "{}{innermost}{}",
            "if {1} { ".repeat(levels - 1),
            " }".repeat(levels - 1)
        )
    }

    #[test]
    fn script_nesting_is_capped_with_a_located_error() {
        let too_deep = format!("line 3: scripts nest deeper than {MAX_SCRIPT_DEPTH} levels");
        let mut i = Interp::new();
        let r = i.eval(&mut NoContext, &nested_brackets(MAX_SCRIPT_DEPTH));
        assert_eq!(r.unwrap(), "a");
        let deeper = format!(
            "set a 1\nset b 2\nset c [{}]",
            nested_brackets(MAX_SCRIPT_DEPTH)
        );
        match i.eval(&mut NoContext, &deeper) {
            Err(EdaError::Tcl(m)) => assert_eq!(m, too_deep),
            other => panic!("expected the depth error, got {other:?}"),
        }
        // The same interpreter is back at level 0 afterwards.
        let body = nested_bodies(MAX_SCRIPT_DEPTH, "set r ok");
        assert_eq!(i.eval(&mut NoContext, &body).unwrap(), "ok");
        let deeper = format!("\n\n{}", nested_bodies(MAX_SCRIPT_DEPTH + 1, "set r ok"));
        match i.eval(&mut NoContext, &deeper) {
            Err(EdaError::Tcl(m)) => assert_eq!(m, too_deep),
            other => panic!("expected the depth error, got {other:?}"),
        }
        // A proc that calls itself forever stops at the cap too.
        let e = i.eval(&mut NoContext, "proc f {} { f }\n\nf").unwrap_err();
        assert_eq!(e.to_string(), format!("TCL error: {too_deep}"));
        // 10,000 levels fail the same way instead of overflowing the stack.
        let e = i
            .eval(&mut NoContext, &nested_brackets(10_000))
            .unwrap_err();
        assert!(e.to_string().contains("line 1: scripts nest deeper"), "{e}");
    }

    #[test]
    fn expression_nesting_is_capped_with_a_located_error() {
        use crate::tcl::expr::MAX_EXPR_DEPTH;
        let parens = |levels: usize| format!("{}1{}", "(".repeat(levels), ")".repeat(levels));
        let mut i = Interp::new();
        let at_cap = format!("set x 1\nexpr {{{}}}", parens(MAX_EXPR_DEPTH));
        assert_eq!(i.eval(&mut NoContext, &at_cap).unwrap(), "1");
        let deeper = format!("set x 1\nexpr {{{}}}", parens(MAX_EXPR_DEPTH + 1));
        match i.eval(&mut NoContext, &deeper) {
            Err(EdaError::Tcl(m)) => assert_eq!(
                m,
                format!("line 2: expression nests deeper than {MAX_EXPR_DEPTH} levels")
            ),
            other => panic!("expected the depth error, got {other:?}"),
        }
        // Conditions are expressions too.
        let cond = format!("\n\nif {{{}}} {{set y 1}}", parens(20_000));
        let e = i.eval(&mut NoContext, &cond).unwrap_err();
        assert!(
            e.to_string().contains("line 3: expression nests deeper"),
            "{e}"
        );
    }

    #[test]
    fn both_caps_together_fit_a_two_mebibyte_thread() {
        use crate::tcl::expr::MAX_EXPR_DEPTH;
        // The deepest input the caps admit: every script level a control
        // body, with an expression at its cap innermost.
        let innermost = format!(
            "expr {{{}1{}}}",
            "(".repeat(MAX_EXPR_DEPTH),
            ")".repeat(MAX_EXPR_DEPTH)
        );
        let script = nested_bodies(MAX_SCRIPT_DEPTH, &innermost);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Interp::new().eval(&mut NoContext, &script))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(result.unwrap(), "1");
    }

    #[test]
    fn context_commands_receive_interp() {
        struct Ctx;
        impl TclContext for Ctx {
            fn run_command(
                &mut self,
                interp: &mut Interp,
                name: &str,
                args: &[Cow<'_, str>],
            ) -> EdaResult<String> {
                interp.set_var("seen", format!("{name}:{}", args.join(",")));
                Ok("done".into())
            }
        }
        let mut i = Interp::new();
        let r = i.eval(&mut Ctx, "mycmd a b").unwrap();
        assert_eq!(r, "done");
        assert_eq!(i.get_var("seen"), Some("mycmd:a,b"));
    }

    /// Records every command the context runs: its name, and each
    /// argument's text and whether it borrowed the parse.
    #[derive(Default)]
    struct Recorder {
        calls: Vec<(String, Vec<(String, bool)>)>,
    }

    impl TclContext for Recorder {
        fn run_command(
            &mut self,
            _interp: &mut Interp,
            name: &str,
            args: &[Cow<'_, str>],
        ) -> EdaResult<String> {
            let args = args
                .iter()
                .map(|a| (a.to_string(), matches!(a, Cow::Borrowed(_))))
                .collect();
            self.calls.push((name.to_string(), args));
            Ok(format!("<{name}>"))
        }
    }

    #[test]
    fn words_reach_the_context_as_before_and_borrow_unless_substituted() {
        let mut i = Interp::new();
        let mut rec = Recorder::default();
        let script = "set b B\nrec lit {br {a} ced} $b [c] a$b\\[x\\][c] \"q $b\" {} \"\" -x";
        i.eval(&mut rec, script).unwrap();
        let (name, args) = rec.calls.last().unwrap();
        assert_eq!(name, "rec");
        let texts: Vec<&str> = args.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(
            texts,
            [
                "lit",
                "br {a} ced",
                "B",
                "<c>",
                "aB[x]<c>",
                "q B",
                "",
                "",
                "-x"
            ]
        );
        let borrowed: Vec<bool> = args.iter().map(|&(_, b)| b).collect();
        assert_eq!(
            borrowed,
            [true, true, false, false, false, false, true, true, true]
        );
        // `[c]` ran as its own command, with no arguments.
        assert_eq!(rec.calls[0], ("c".to_string(), Vec::new()));
    }

    #[test]
    fn kept_values_outlive_their_scripts_cache_entries() {
        let mut i = Interp::new();
        let defs = "set kept {braced value}\n\
                    proc greet {who} { set greeting \"hi $who\" }\n\
                    foreach item {a b c} { set last $item }";
        i.eval(&mut NoContext, defs).unwrap();
        // 64 other texts fill the shared cache, and the next one empties
        // it: the parse those values were read from is gone.
        for n in 0..=MAX_CACHED_SCRIPTS {
            i.eval(&mut NoContext, &format!("set filler {n}")).unwrap();
        }
        assert!(i.scripts.cached(defs).is_none());
        assert_eq!(i.eval(&mut NoContext, "set kept").unwrap(), "braced value");
        assert_eq!(i.eval(&mut NoContext, "greet bob").unwrap(), "hi bob");
        assert_eq!(i.eval(&mut NoContext, "set last").unwrap(), "c");
        assert_eq!(i.get_var("item"), Some("c"));
    }

    #[test]
    fn a_substituted_command_name_still_dispatches() {
        let mut i = Interp::new();
        let mut rec = Recorder::default();
        let r = i
            .eval(
                &mut rec,
                "set p puts\n$p hello\nset v set\n[list $v] x 5\nset c rec\n${c}2 a\n[list $c] b",
            )
            .unwrap();
        assert_eq!(r, "<rec>");
        assert_eq!(i.output, "hello\n");
        assert_eq!(i.get_var("x"), Some("5"));
        let names: Vec<&str> = rec.calls.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["rec2", "rec"]);
        assert_eq!(rec.calls[1].1, [("b".to_string(), true)]);
    }
}
