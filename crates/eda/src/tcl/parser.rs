//! TCL script parsing: splits a script into commands and words, preserving
//! substitution structure for the interpreter.

use crate::error::{EdaError, EdaResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// One substitutable fragment of a word.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// Literal text.
    Lit(String),
    /// `$name` or `${name}` variable reference.
    Var(String),
    /// `[script]` command substitution (inner script, brackets stripped).
    Cmd(String),
}

/// One word of a command.
#[derive(Debug, Clone, PartialEq)]
pub enum Word {
    /// Bare or quoted word: a sequence of parts substituted at evaluation.
    Bare(Vec<Part>),
    /// `{braced}` word: literal, no substitution.
    Braced(String),
}

/// One command: a non-empty list of words.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// The words, in order; `words[0]` is the command name.
    pub words: Vec<Word>,
    /// 1-based line of the first word (for error messages).
    pub line: u32,
}

struct P<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    src: &'a str,
}

impl P<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn err(&self, msg: &str) -> EdaError {
        EdaError::Tcl(format!(
            "line {}: {msg} (in script: {:.40}…)",
            self.line, self.src
        ))
    }
}

/// Parses a script into commands.
pub fn parse_script(src: &str) -> EdaResult<Vec<Command>> {
    let mut p = P {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        src,
    };
    let mut commands = Vec::new();

    loop {
        // Skip inter-command whitespace, command separators, comments.
        loop {
            match p.peek() {
                Some(c) if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' => {
                    p.bump();
                }
                Some('#') => {
                    while let Some(c) = p.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
        if p.peek().is_none() {
            break;
        }

        let line = p.line;
        let mut words = Vec::new();
        // Parse words until end of command.
        loop {
            // Intra-command whitespace (and line continuations).
            loop {
                match p.peek() {
                    Some(' ') | Some('\t') | Some('\r') => {
                        p.bump();
                    }
                    Some('\\') if p.chars.get(p.pos + 1) == Some(&'\n') => {
                        p.bump();
                        p.bump();
                    }
                    _ => break,
                }
            }
            match p.peek() {
                None | Some('\n') | Some(';') => {
                    p.bump();
                    break;
                }
                Some('{') => words.push(parse_braced(&mut p)?),
                Some('"') => words.push(parse_quoted(&mut p)?),
                _ => words.push(parse_bare(&mut p)?),
            }
        }
        if !words.is_empty() {
            commands.push(Command { words, line });
        }
    }
    Ok(commands)
}

fn parse_braced(p: &mut P<'_>) -> EdaResult<Word> {
    p.bump(); // {
    let mut depth = 1usize;
    let mut out = String::new();
    loop {
        match p.bump() {
            Some('{') => {
                depth += 1;
                out.push('{');
            }
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return Ok(Word::Braced(out));
                }
                out.push('}');
            }
            Some('\\') => {
                // Backslash inside braces is literal except before braces.
                match p.peek() {
                    Some('{') | Some('}') => {
                        out.push('\\');
                        out.push(p.bump().expect("peeked"));
                    }
                    _ => out.push('\\'),
                }
            }
            Some(c) => out.push(c),
            None => return Err(p.err("unterminated brace")),
        }
    }
}

fn parse_quoted(p: &mut P<'_>) -> EdaResult<Word> {
    p.bump(); // "
    let mut parts = Vec::new();
    let mut lit = String::new();
    loop {
        match p.peek() {
            Some('"') => {
                p.bump();
                if !lit.is_empty() {
                    parts.push(Part::Lit(lit));
                }
                return Ok(Word::Bare(parts));
            }
            Some('$') => {
                if !lit.is_empty() {
                    parts.push(Part::Lit(std::mem::take(&mut lit)));
                }
                parts.push(parse_var(p)?);
            }
            Some('[') => {
                if !lit.is_empty() {
                    parts.push(Part::Lit(std::mem::take(&mut lit)));
                }
                parts.push(parse_bracket(p)?);
            }
            Some('\\') => {
                p.bump();
                lit.push(unescape(
                    p.bump().ok_or_else(|| p.err("dangling backslash"))?,
                ));
            }
            Some(_) => lit.push(p.bump().expect("peeked")),
            None => return Err(p.err("unterminated quote")),
        }
    }
}

fn parse_bare(p: &mut P<'_>) -> EdaResult<Word> {
    let mut parts = Vec::new();
    let mut lit = String::new();
    loop {
        match p.peek() {
            None | Some(' ') | Some('\t') | Some('\r') | Some('\n') | Some(';') => break,
            Some('$') => {
                if !lit.is_empty() {
                    parts.push(Part::Lit(std::mem::take(&mut lit)));
                }
                parts.push(parse_var(p)?);
            }
            Some('[') => {
                if !lit.is_empty() {
                    parts.push(Part::Lit(std::mem::take(&mut lit)));
                }
                parts.push(parse_bracket(p)?);
            }
            Some('\\') => {
                p.bump();
                match p.peek() {
                    Some('\n') => break, // line continuation handled by caller
                    Some(_) => lit.push(unescape(p.bump().expect("peeked"))),
                    None => return Err(p.err("dangling backslash")),
                }
            }
            Some(_) => lit.push(p.bump().expect("peeked")),
        }
    }
    if !lit.is_empty() {
        parts.push(Part::Lit(lit));
    }
    Ok(Word::Bare(parts))
}

fn parse_var(p: &mut P<'_>) -> EdaResult<Part> {
    p.bump(); // $
    if p.peek() == Some('{') {
        p.bump();
        let mut name = String::new();
        loop {
            match p.bump() {
                Some('}') => return Ok(Part::Var(name)),
                Some(c) => name.push(c),
                None => return Err(p.err("unterminated ${…}")),
            }
        }
    }
    let mut name = String::new();
    while let Some(c) = p.peek() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            name.push(c);
            p.bump();
        } else {
            break;
        }
    }
    if name.is_empty() {
        return Err(p.err("`$` not followed by a variable name"));
    }
    Ok(Part::Var(name))
}

fn parse_bracket(p: &mut P<'_>) -> EdaResult<Part> {
    p.bump(); // [
    let mut depth = 1usize;
    let mut out = String::new();
    loop {
        match p.bump() {
            Some('[') => {
                depth += 1;
                out.push('[');
            }
            Some(']') => {
                depth -= 1;
                if depth == 0 {
                    return Ok(Part::Cmd(out));
                }
                out.push(']');
            }
            Some(c) => out.push(c),
            None => return Err(p.err("unterminated bracket")),
        }
    }
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        other => other,
    }
}

/// How many distinct script texts a [`ScriptCache`] holds. A flow run
/// evaluates a handful (the two synthesis variants, the implementation
/// script and their command substitutions); inserting into a full cache
/// first empties it.
pub const MAX_CACHED_SCRIPTS: usize = 64;

/// Parsed scripts keyed by their full text, shared by the sessions of one
/// tool backend the way they share a [`crate::ParseCache`].
///
/// A lookup hits only when the text is byte-for-byte equal to a cached
/// one, and a hit returns the shared parse. Parse errors are never cached.
/// The lock is held to look up and to insert, never while parsing.
/// Cloning shares the cache.
#[derive(Debug, Clone, Default)]
pub struct ScriptCache {
    entries: Arc<Mutex<HashMap<String, Arc<[Command]>>>>,
}

impl ScriptCache {
    /// Creates an empty cache.
    pub fn new() -> ScriptCache {
        ScriptCache::default()
    }

    /// The parse of `src`: the cached one when the same text was parsed
    /// before, else a fresh [`parse_script`] (with its exact error on
    /// failure).
    pub(crate) fn parse(&self, src: &str) -> EdaResult<Arc<[Command]>> {
        if let Some(hit) = self.entries.lock().get(src) {
            return Ok(Arc::clone(hit));
        }
        let parsed: Arc<[Command]> = parse_script(src)?.into();
        let mut entries = self.entries.lock();
        // Another session may have parsed the same text meanwhile: keep
        // its parse so every session shares one.
        if let Some(hit) = entries.get(src) {
            return Ok(Arc::clone(hit));
        }
        if entries.len() >= MAX_CACHED_SCRIPTS {
            entries.clear();
        }
        entries.insert(src.to_string(), Arc::clone(&parsed));
        Ok(parsed)
    }

    /// The cached parse of `src`, without parsing on a miss.
    #[cfg(test)]
    pub(crate) fn cached(&self, src: &str) -> Option<Arc<[Command]>> {
        self.entries.lock().get(src).cloned()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_commands_on_newline_and_semicolon() {
        let cmds = parse_script("set a 1\nset b 2; set c 3").unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[2].words.len(), 3);
    }

    #[test]
    fn comments_skipped() {
        let cmds = parse_script("# a comment\nset a 1").unwrap();
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].line, 2);
    }

    #[test]
    fn braced_word_is_literal() {
        let cmds = parse_script("if {$x > 1} {puts hi}").unwrap();
        assert_eq!(cmds[0].words.len(), 3);
        assert_eq!(cmds[0].words[1], Word::Braced("$x > 1".into()));
        assert_eq!(cmds[0].words[2], Word::Braced("puts hi".into()));
    }

    #[test]
    fn nested_braces() {
        let cmds = parse_script("proc x {} { if {1} { puts a } }").unwrap();
        assert_eq!(cmds[0].words[3], Word::Braced(" if {1} { puts a } ".into()));
    }

    #[test]
    fn variable_forms() {
        let cmds = parse_script("puts $abc-${d e}").unwrap();
        let Word::Bare(parts) = &cmds[0].words[1] else {
            panic!()
        };
        assert_eq!(
            parts,
            &vec![
                Part::Var("abc".into()),
                Part::Lit("-".into()),
                Part::Var("d e".into())
            ]
        );
    }

    #[test]
    fn bracket_substitution() {
        let cmds = parse_script("set f [report_utilization -file u.rpt]").unwrap();
        let Word::Bare(parts) = &cmds[0].words[2] else {
            panic!()
        };
        assert_eq!(
            parts,
            &vec![Part::Cmd("report_utilization -file u.rpt".into())]
        );
    }

    #[test]
    fn quoted_word_with_substitutions() {
        let cmds = parse_script(r#"puts "value: $x [get_it] end""#).unwrap();
        let Word::Bare(parts) = &cmds[0].words[1] else {
            panic!()
        };
        // Lit("value: "), Var(x), Lit(" "), Cmd(get_it), Lit(" end")
        assert_eq!(parts.len(), 5);
        assert!(matches!(&parts[1], Part::Var(v) if v == "x"));
        assert!(matches!(&parts[3], Part::Cmd(c) if c == "get_it"));
    }

    #[test]
    fn line_continuation_joins_commands() {
        let cmds = parse_script("synth_design -top box \\\n  -part xc7k70t").unwrap();
        assert_eq!(cmds.len(), 1);
        assert_eq!(cmds[0].words.len(), 5);
    }

    #[test]
    fn escapes_in_bare_words() {
        let cmds = parse_script(r"puts a\ b").unwrap();
        let Word::Bare(parts) = &cmds[0].words[1] else {
            panic!()
        };
        assert_eq!(parts, &vec![Part::Lit("a b".into())]);
    }

    #[test]
    fn unterminated_constructs_error() {
        assert!(parse_script("set a {oops").is_err());
        assert!(parse_script("set a \"oops").is_err());
        assert!(parse_script("set a [oops").is_err());
        assert!(parse_script("set a ${oops").is_err());
    }

    const SCRIPT: &str = "create_project dovado -part xc7k70tfbv676-1\n\
                          set_property top box [current_fileset]";

    #[test]
    fn the_same_text_shares_one_parse() {
        let cache = ScriptCache::new();
        let first = cache.parse(SCRIPT).unwrap();
        // A byte-equal copy at another address hits too.
        let copy = String::from(SCRIPT);
        let again = cache.clone().parse(&copy).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(&first[..], &parse_script(SCRIPT).unwrap()[..]);
        let other = ScriptCache::new().parse(SCRIPT).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
    }

    #[test]
    fn an_edited_byte_parses_again() {
        let cache = ScriptCache::new();
        let first = cache.parse(SCRIPT).unwrap();
        // Same length, same prefix: only the last byte differs.
        let edited = SCRIPT.replace("fileset]", "filesex]");
        assert_eq!(edited.len(), SCRIPT.len());
        let second = cache.parse(&edited).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(&second[..], &parse_script(&edited).unwrap()[..]);
        assert_ne!(first, second);
        // Both texts stay cached.
        assert!(Arc::ptr_eq(&first, &cache.parse(SCRIPT).unwrap()));
        assert!(Arc::ptr_eq(&second, &cache.parse(&edited).unwrap()));
    }

    #[test]
    fn a_parse_error_fails_identically_and_is_never_cached() {
        let cache = ScriptCache::new();
        let good = cache.parse(SCRIPT).unwrap();
        let broken = "set a {oops";
        let expected = parse_script(broken).unwrap_err().to_string();
        for _ in 0..3 {
            let err = cache.parse(broken).unwrap_err();
            assert!(matches!(&err, EdaError::Tcl(_)));
            assert_eq!(err.to_string(), expected);
        }
        assert_eq!(cache.len(), 1);
        assert!(cache.cached(broken).is_none());
        assert!(Arc::ptr_eq(&good, &cache.parse(SCRIPT).unwrap()));
    }

    #[test]
    fn a_full_cache_empties_before_it_inserts() {
        let cache = ScriptCache::new();
        let first = cache.parse("set v 0").unwrap();
        for i in 1..MAX_CACHED_SCRIPTS {
            cache.parse(&format!("set v {i}")).unwrap();
        }
        assert_eq!(cache.len(), MAX_CACHED_SCRIPTS);
        assert!(Arc::ptr_eq(&first, &cache.parse("set v 0").unwrap()));
        cache.parse("set v full").unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.cached("set v full").is_some());
        assert!(!Arc::ptr_eq(&first, &cache.parse("set v 0").unwrap()));
    }

    #[test]
    fn empty_script_is_empty() {
        assert!(parse_script("").unwrap().is_empty());
        assert!(parse_script("\n\n  # just a comment\n").unwrap().is_empty());
    }
}
