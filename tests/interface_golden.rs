//! Golden interfaces: the four case studies' sources parse to pinned
//! module and entity interfaces (name, parameters with their defaults,
//! ports with direction and width), so a change to the lexers or parsers
//! that alters what Dovado extracts from real RTL fails here by name.
//!
//! The fixture is regenerated (after a deliberate change to what the
//! front-ends extract) by running once with `DOVADO_BLESS=1`.

use dovado::casestudies;
use dovado_hdl::{parse_source, ModuleInterface};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One module's interface, one line per item. Widths are evaluated under
/// the module's own defaults, in declaration order as elaboration binds
/// them; `?` marks a width that depends on something else.
fn render(out: &mut String, m: &ModuleInterface) {
    let _ = writeln!(out, "module {} ({})", m.name, m.language);
    let mut env = BTreeMap::new();
    for p in &m.parameters {
        let default = p
            .default
            .as_ref()
            .map_or("-".to_string(), ToString::to_string);
        let local = if p.local { " local" } else { "" };
        let _ = writeln!(out, "  param {} = {default}{local}", p.name);
        if let Some(v) = p.default.as_ref().and_then(|d| d.eval(&env).ok()) {
            env.insert(p.name.clone(), v);
        }
    }
    for port in &m.ports {
        let width = port
            .ty
            .bit_width(&env)
            .map_or("?".to_string(), |w| w.to_string());
        let _ = writeln!(
            out,
            "  port {} {} {} width {width}",
            port.name, port.direction, port.ty
        );
    }
}

fn interfaces() -> String {
    let mut out = String::new();
    for study in casestudies::all() {
        for src in &study.sources {
            let _ = writeln!(out, "== {} / {}", study.name, src.name);
            let (file, _) = parse_source(src.language, &src.content)
                .unwrap_or_else(|e| panic!("{}: {e}", src.name));
            for m in &file.modules {
                render(&mut out, m);
            }
        }
    }
    out
}

#[test]
fn case_study_interfaces_match_the_fixture() {
    let text = interfaces();
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/case_study_interfaces.txt");
    if std::env::var("DOVADO_BLESS").is_ok() {
        std::fs::write(&path, &text).unwrap();
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        text == golden,
        "the parsed case-study interfaces drifted from {}",
        path.display()
    );
}
