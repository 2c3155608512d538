//! TCL script frames.
//!
//! "We also built general frames for TCL scripts that Dovado customizes at
//! run-time for module specifications and user-selected directives"
//! (§III-A3). Frames are templates with `__PLACEHOLDER__` slots filled by
//! [`fill`]; [`read_sources_script`] generates the per-file `read_*` lines
//! with the paper's ordering/naming rules (SV packages first, one library
//! per VHDL `-library` flag). A user-supplied value goes into a script
//! through [`tcl_word`], so it reaches the tool as exactly one word.

use crate::error::{DovadoError, DovadoResult};
use dovado_hdl::Language;

/// Frame for project setup + source loading + synthesis + reports.
pub const SYNTH_FRAME: &str = "\
create_project __PROJECT__ -part __PART__
__READ_SOURCES__
set_property top __TOP__ [current_fileset]
__INCREMENTAL__
synth_design -top __TOP__ -part __PART__ -directive __SYNTH_DIRECTIVE__
create_clock -period __PERIOD__ -name dovado_clk [get_ports __CLOCK__]
report_utilization -file __UTIL_RPT__
report_timing_summary -file __TIMING_RPT__
report_power -file __POWER_RPT__
write_checkpoint -force __SYNTH_DCP__
";

/// Frame continuing a synthesized design through implementation.
pub const IMPL_FRAME: &str = "\
opt_design
place_design
route_design -directive __IMPL_DIRECTIVE__
report_utilization -file __UTIL_RPT__
report_timing_summary -file __TIMING_RPT__
report_power -file __POWER_RPT__
write_checkpoint -force __IMPL_DCP__
";

/// Fills `__KEY__` placeholders in one pass over `frame`. Each placeholder
/// becomes its value, copied verbatim: values are never scanned, so a file
/// name like `fifo__Core.sv` or a value that spells another key passes
/// through unchanged. A placeholder with no value is an error (catches
/// typos in frames and drivers alike).
pub fn fill(frame: &str, substitutions: &[(&str, &str)]) -> DovadoResult<String> {
    let mut out = String::with_capacity(frame.len());
    let mut rest = frame;
    while let Some(open) = rest.find("__") {
        out.push_str(&rest[..open]);
        let after = &rest[open + 2..];
        let key = after.find("__").map(|close| &after[..close]);
        match key.filter(|k| is_placeholder_key(k)) {
            Some(key) => {
                let value = substitutions
                    .iter()
                    .find_map(|&(k, v)| (k == key).then_some(v));
                let value = value.ok_or_else(|| {
                    DovadoError::Config(format!("unfilled placeholder `__{key}__`"))
                })?;
                out.push_str(value);
                rest = &after[key.len() + 2..];
            }
            None => {
                out.push_str("__");
                rest = after;
            }
        }
    }
    out.push_str(rest);
    Ok(out)
}

/// Writes `value` as exactly one TCL word: whitespace and
/// `; $ [ ] \ " { }` are backslash-escaped, so the tool reads the value
/// back verbatim and runs no part of it. A value without those characters
/// comes back unchanged. A control character has no such spelling (a
/// backslash before a newline continues the line), so it is a
/// [`DovadoError::Config`] naming the value as `what`.
pub fn tcl_word(what: &str, value: &str) -> DovadoResult<String> {
    if value.contains(char::is_control) {
        return Err(DovadoError::Config(format!(
            "{what} {value:?} contains a control character and cannot be passed \
             to the tool as one TCL word"
        )));
    }
    let mut word = String::with_capacity(value.len());
    for c in value.chars() {
        if c.is_whitespace() || matches!(c, ';' | '$' | '[' | ']' | '\\' | '"' | '{' | '}') {
            word.push('\\');
        }
        word.push(c);
    }
    Ok(word)
}

/// A frame placeholder key: an uppercase letter, then uppercase letters,
/// digits and underscores.
fn is_placeholder_key(key: &str) -> bool {
    key.starts_with(|c: char| c.is_ascii_uppercase())
        && key
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// One source file to load.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceEntry {
    /// Path in the tool's filesystem.
    pub path: String,
    /// Language.
    pub language: Language,
    /// VHDL library (None = `work`).
    pub library: Option<String>,
    /// Whether the file declares SV packages (affects ordering).
    pub has_packages: bool,
}

/// Generates the `read_vhdl`/`read_verilog` lines, each path and library
/// written as one [`tcl_word`] (whose error a name with a control
/// character gets).
///
/// Ordering rule from the paper: "SV packages are read at the very
/// beginning of the step". Package-bearing files are emitted first,
/// preserving relative order otherwise.
pub fn read_sources_script(entries: &[SourceEntry]) -> DovadoResult<String> {
    let mut ordered: Vec<&SourceEntry> = Vec::with_capacity(entries.len());
    ordered.extend(
        entries
            .iter()
            .filter(|e| e.has_packages && e.language != Language::Vhdl),
    );
    ordered.extend(
        entries
            .iter()
            .filter(|e| !(e.has_packages && e.language != Language::Vhdl)),
    );
    let mut out = String::new();
    for e in ordered {
        let path = tcl_word("source file", &e.path)?;
        let line = match e.language {
            Language::Vhdl => match &e.library {
                Some(lib) => format!(
                    "read_vhdl -library {} {path}",
                    tcl_word("VHDL library", lib)?
                ),
                None => format!("read_vhdl {path}"),
            },
            Language::Verilog => format!("read_verilog {path}"),
            Language::SystemVerilog => format!("read_verilog -sv {path}"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_eda::tcl::{parse_script, parser::Part, Word};

    #[test]
    fn fill_replaces_all() {
        let s = fill(
            "synth_design -top __TOP__ -part __PART__",
            &[("TOP", "box"), ("PART", "xc7k70t")],
        )
        .unwrap();
        assert_eq!(s, "synth_design -top box -part xc7k70t");
    }

    #[test]
    fn fill_detects_leftovers() {
        let r = fill("synth_design -top __TOP__", &[("PART", "x")]);
        assert!(matches!(r, Err(DovadoError::Config(_))));
    }

    #[test]
    fn fill_copies_values_verbatim() {
        // Values are never scanned: a double underscore before capitals
        // in a file name is not a placeholder, and a value spelling a
        // later key is not substituted again.
        let s = fill(
            "read_verilog __SRC__\nset_property top __TOP__ [current_fileset]",
            &[("SRC", "src/fifo__Core.sv"), ("TOP", "__SRC__")],
        )
        .unwrap();
        assert_eq!(
            s,
            "read_verilog src/fifo__Core.sv\nset_property top __SRC__ [current_fileset]"
        );
        // Double underscores in the frame that do not spell a key stay.
        assert_eq!(fill("a__b __ c__", &[]).unwrap(), "a__b __ c__");
        let err = fill("x __MISSING__ y", &[("SRC", "s")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "configuration error: unfilled placeholder `__MISSING__`"
        );
    }

    #[test]
    fn tcl_word_writes_one_word() {
        // Ordinary values come back untouched.
        for plain in ["xc7k70tfbv676-1", "Default", "src/fifo__Core.sv", ""] {
            assert_eq!(tcl_word("v", plain).unwrap(), plain);
        }
        assert_eq!(
            tcl_word("v", "src/cpl queue manager.v").unwrap(),
            r"src/cpl\ queue\ manager.v"
        );
        assert_eq!(
            tcl_word("v", r#"a;b$c[d]e\f"g{h}i"#).unwrap(),
            r#"a\;b\$c\[d\]e\\f\"g\{h\}i"#
        );
        // The TCL parser reads each back as exactly one word: the value.
        for value in [
            "src/cpl queue manager.v",
            "[exit]",
            "$env(HOME)",
            "{a b} \"c d\"",
            "x\\",
            "a\u{a0}b",
        ] {
            let word = tcl_word("v", value).unwrap();
            let cmds = parse_script(&format!("cmd {word}")).unwrap();
            let literal = |s: &str| Word::Bare(vec![Part::Lit(s.into())]);
            assert_eq!(cmds.len(), 1, "{value:?}");
            assert_eq!(cmds[0].words, [literal("cmd"), literal(value)]);
        }
        let err = tcl_word("source file", "src/a\nb.v").unwrap_err();
        assert_eq!(
            err.to_string(),
            "configuration error: source file \"src/a\\nb.v\" contains a control \
             character and cannot be passed to the tool as one TCL word"
        );
        assert!(tcl_word("part", "xc7\tk70t").is_err());
    }

    #[test]
    fn read_sources_escapes_paths_and_libraries() {
        let entry = |path: &str, library: Option<&str>| SourceEntry {
            path: path.into(),
            language: Language::Vhdl,
            library: library.map(Into::into),
            has_packages: false,
        };
        let s = read_sources_script(&[entry("src/my core.vhd", Some("my lib"))]).unwrap();
        assert_eq!(s, "read_vhdl -library my\\ lib src/my\\ core.vhd\n");
        let err = read_sources_script(&[entry("src/a\rb.vhd", None)]).unwrap_err();
        assert!(
            err.to_string().contains(r#"source file "src/a\rb.vhd""#),
            "{err}"
        );
        let err = read_sources_script(&[entry("src/a.vhd", Some("l\n"))]).unwrap_err();
        assert!(err.to_string().contains("VHDL library"), "{err}");
    }

    #[test]
    fn synth_frame_fills_cleanly() {
        let s = fill(
            SYNTH_FRAME,
            &[
                ("PROJECT", "dovado"),
                ("PART", "xc7k70tfbv676-1"),
                ("READ_SOURCES", "read_verilog -sv src/fifo.sv"),
                ("TOP", "box"),
                ("INCREMENTAL", ""),
                ("SYNTH_DIRECTIVE", "Default"),
                ("PERIOD", "1.000"),
                ("CLOCK", "clk"),
                ("UTIL_RPT", "util.rpt"),
                ("TIMING_RPT", "timing.rpt"),
                ("POWER_RPT", "power.rpt"),
                ("SYNTH_DCP", "post_synth.dcp"),
            ],
        )
        .unwrap();
        assert!(s.contains("create_clock -period 1.000"));
        assert!(!s.contains("__"));
    }

    #[test]
    fn impl_frame_fills_cleanly() {
        let s = fill(
            IMPL_FRAME,
            &[
                ("IMPL_DIRECTIVE", "Explore"),
                ("UTIL_RPT", "u.rpt"),
                ("TIMING_RPT", "t.rpt"),
                ("POWER_RPT", "p.rpt"),
                ("IMPL_DCP", "post_route.dcp"),
            ],
        )
        .unwrap();
        assert!(s.contains("route_design -directive Explore"));
    }

    #[test]
    fn packages_read_first() {
        let entries = vec![
            SourceEntry {
                path: "src/core.sv".into(),
                language: Language::SystemVerilog,
                library: None,
                has_packages: false,
            },
            SourceEntry {
                path: "src/pkg.sv".into(),
                language: Language::SystemVerilog,
                library: None,
                has_packages: true,
            },
        ];
        let s = read_sources_script(&entries).unwrap();
        let pkg_pos = s.find("pkg.sv").unwrap();
        let core_pos = s.find("core.sv").unwrap();
        assert!(pkg_pos < core_pos, "packages must be read first:\n{s}");
    }

    #[test]
    fn vhdl_library_flag() {
        let entries = vec![SourceEntry {
            path: "src/neorv32_package.vhd".into(),
            language: Language::Vhdl,
            library: Some("neorv32".into()),
            has_packages: true,
        }];
        let s = read_sources_script(&entries).unwrap();
        assert_eq!(
            s.trim(),
            "read_vhdl -library neorv32 src/neorv32_package.vhd"
        );
    }

    #[test]
    fn sv_flag_only_for_systemverilog() {
        let entries = vec![
            SourceEntry {
                path: "a.v".into(),
                language: Language::Verilog,
                library: None,
                has_packages: false,
            },
            SourceEntry {
                path: "b.sv".into(),
                language: Language::SystemVerilog,
                library: None,
                has_packages: false,
            },
        ];
        let s = read_sources_script(&entries).unwrap();
        assert!(s.contains("read_verilog a.v\n"));
        assert!(s.contains("read_verilog -sv b.sv\n"));
    }
}
