//! A TCL-subset engine.
//!
//! Dovado "spawns Vivado as a subprocess and communicates with the physical
//! tool through the TCL interface" (§III-A3), customizing general script
//! frames at run time. The simulator therefore speaks TCL: scripts are
//! parsed ([`parser`]), substituted and executed ([`interp`]) with `expr`
//! support ([`expr`]); tool commands (`read_vhdl`, `synth_design`, …) are
//! provided by the embedding context (see [`crate::vivado`]).
//!
//! Supported subset: command/`;`/newline structure, `{}` braces, `"quotes"`,
//! `[command]` and `$variable` substitution, `\` escapes and line
//! continuation, comments, and the builtins `set`, `unset`, `puts`, `expr`,
//! `incr`, `if`/`elseif`/`else`, `foreach`, and `list`.

pub mod expr;
pub mod interp;
pub mod parser;

pub use interp::{Interp, TclContext, MAX_SCRIPT_DEPTH};
pub use parser::{parse_script, Command, ScriptCache, Word, MAX_CACHED_SCRIPTS};
