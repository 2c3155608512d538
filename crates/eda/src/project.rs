//! In-memory project state: sources, top module, constraints, generics —
//! plus hierarchical elaboration.
//!
//! Elaboration resolves the top module down through recorded
//! instantiations: Dovado's generated box (an empty wrapper with a single
//! `BOXED` instance carrying the generic map) elaborates to glue-plus-child,
//! exactly how the real tool sees it.

use crate::archmodel::{bind_parameters, ElabContext, ModelRegistry};
use crate::error::{EdaError, EdaResult};
use crate::netlist::Netlist;
use dovado_fpga::Part;
use dovado_hdl::catalog::{CatalogError, SourceCatalog};
use dovado_hdl::{Instantiation, Language, ModuleInterface, SourceFile};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A clock constraint created by `create_clock`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockConstraint {
    /// The constrained port name.
    pub port: String,
    /// Target period in nanoseconds.
    pub period_ns: f64,
}

/// One parsed source file registered with the project.
#[derive(Debug, Clone)]
pub struct SourceUnit {
    /// Path inside the tool's virtual filesystem.
    pub path: String,
    /// Language it was read as.
    pub language: Language,
    /// Parse result, shared with every other session that read the same
    /// text at the same path through one [`ParseCache`], when that text is
    /// the first the cache parsed there.
    pub file: Arc<SourceFile>,
    /// VHDL library the file was compiled into (`work` by default; the
    /// paper's naming constraint maps one subfolder per library).
    pub library: String,
}

/// Project state for one tool session.
#[derive(Debug, Clone)]
pub struct Project {
    /// Project name.
    pub name: String,
    /// Target part.
    pub part: Part,
    /// Registered sources in read order (SV packages must be read first —
    /// the paper's parsing-order specification; enforced in
    /// [`Project::check_ordering`]).
    pub sources: Vec<SourceUnit>,
    /// Explicit top module, if set.
    pub top: Option<String>,
    /// Generic/parameter overrides applied to the top module.
    pub generics: BTreeMap<String, i64>,
    /// Clock constraints.
    pub clocks: Vec<ClockConstraint>,
}

impl Project {
    /// Creates an empty project targeting `part`.
    pub fn new(name: impl Into<String>, part: Part) -> Project {
        Project {
            name: name.into(),
            part,
            sources: Vec::new(),
            top: None,
            generics: BTreeMap::new(),
            clocks: Vec::new(),
        }
    }

    /// Builds a project from a cataloged source tree: sources are
    /// registered in the catalog's topological compile order (packages
    /// before their bodies and users, entities before architectures and
    /// instantiators), and the top module comes from `top` or, failing
    /// that, the catalog's graph-based inference.
    ///
    /// This replaces ad-hoc `add_source` call ordering: the caller hands
    /// over the whole tree and the dependency graph decides.
    pub fn from_catalog(
        name: impl Into<String>,
        part: Part,
        catalog: &SourceCatalog,
        top: Option<&str>,
    ) -> EdaResult<Project> {
        let mut p = Project::new(name, part);
        for f in catalog.compile_order() {
            p.sources.push(SourceUnit {
                path: f.path.clone(),
                language: f.language,
                file: Arc::new(f.file.clone()),
                library: f.library.clone().unwrap_or_else(|| "work".to_string()),
            });
        }
        p.top = Some(match top {
            Some(t) => t.to_string(),
            None => catalog.infer_top().map_err(catalog_err)?,
        });
        Ok(p)
    }

    /// The project's sources as a unit-level dependency catalog
    /// (structure only — no source text, so no content fingerprint).
    /// This is the graph behind [`Project::infer_top`] and compile-order
    /// queries.
    pub fn catalog(&self) -> EdaResult<SourceCatalog> {
        SourceCatalog::from_parsed(
            self.sources
                .iter()
                .map(|s| {
                    (
                        s.path.clone(),
                        s.language,
                        Some(s.library.clone()),
                        SourceFile::clone(&s.file),
                    )
                })
                .collect(),
        )
        .map_err(catalog_err)
    }

    /// Parses and registers a source buffer.
    pub fn add_source(
        &mut self,
        path: &str,
        language: Language,
        text: &str,
        library: Option<&str>,
    ) -> EdaResult<()> {
        let file = Arc::new(parse_checked(path, language, text)?);
        self.add_parsed(path, language, file, library);
        Ok(())
    }

    /// Registers a source that is already parsed.
    pub(crate) fn add_parsed(
        &mut self,
        path: &str,
        language: Language,
        file: Arc<SourceFile>,
        library: Option<&str>,
    ) {
        self.sources.push(SourceUnit {
            path: path.to_string(),
            language,
            file,
            library: library.unwrap_or("work").to_string(),
        });
    }

    /// All module interfaces across sources.
    pub fn modules(&self) -> impl Iterator<Item = &ModuleInterface> {
        self.sources.iter().flat_map(|s| s.file.modules.iter())
    }

    /// Finds a module by case-insensitive name.
    pub fn find_module(&self, name: &str) -> Option<&ModuleInterface> {
        self.modules().find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Maps a VHDL architecture name to its entity.
    fn arch_entity(&self, arch: &str) -> Option<&str> {
        self.sources
            .iter()
            .flat_map(|s| s.file.architectures.iter())
            .find(|(a, _)| a.eq_ignore_ascii_case(arch))
            .map(|(_, e)| e.as_str())
    }

    /// Instantiations whose parent is the given module (directly for
    /// Verilog; via its architectures for VHDL).
    pub fn children_of(&self, module: &str) -> Vec<&Instantiation> {
        self.sources
            .iter()
            .flat_map(|s| s.file.instantiations.iter())
            .filter(|i| {
                i.parent.eq_ignore_ascii_case(module)
                    || self
                        .arch_entity(&i.parent)
                        .is_some_and(|e| e.eq_ignore_ascii_case(module))
            })
            .collect()
    }

    /// Infers the top module by dependency-graph query: the unique
    /// module/entity no instantiation or configuration refers to. With
    /// zero or several roots the error is deterministic — ambiguity lists
    /// every candidate sorted by name, so the same project always
    /// produces the same message regardless of source registration order.
    pub fn infer_top(&self) -> EdaResult<String> {
        self.catalog()?.infer_top().map_err(catalog_err)
    }

    /// The effective top module name.
    pub fn top_name(&self) -> EdaResult<String> {
        match &self.top {
            Some(t) => Ok(t.clone()),
            None => self.infer_top(),
        }
    }

    /// Checks the paper's parsing-order rule: SystemVerilog packages are
    /// read "at the very beginning of the step". Returns the offending
    /// paths when a package appears after a module-bearing file.
    pub fn check_ordering(&self) -> Vec<String> {
        let mut seen_module = false;
        let mut offenders = Vec::new();
        for s in &self.sources {
            if !s.file.packages.is_empty()
                && s.language != Language::Vhdl
                && seen_module
                && s.file.modules.is_empty()
            {
                offenders.push(s.path.clone());
            }
            if !s.file.modules.is_empty() {
                seen_module = true;
            }
        }
        offenders
    }

    /// Elaborates the top module (with the project generics) into a
    /// [`Netlist`], recursing through recorded instantiations.
    pub fn elaborate(&self, registry: &ModelRegistry) -> EdaResult<Netlist> {
        let top = self.top_name()?;
        self.elaborate_module(registry, &top, &self.generics, 0)
    }

    fn elaborate_module(
        &self,
        registry: &ModelRegistry,
        name: &str,
        overrides: &BTreeMap<String, i64>,
        depth: u32,
    ) -> EdaResult<Netlist> {
        if depth > 16 {
            return Err(EdaError::Elaboration(format!(
                "hierarchy too deep (cycle?) at `{name}`"
            )));
        }
        let module = self
            .find_module(name)
            .ok_or_else(|| EdaError::UnknownModule(name.to_string()))?;
        let params = bind_parameters(module, overrides)?;
        let ctx = ElabContext {
            module,
            params: &params,
            part: &self.part,
        };

        let children = self.children_of(&module.name);
        let model_is_generic = registry.model_for(&module.name).name() == "generic-interface";

        if model_is_generic && !children.is_empty() {
            // Structural wrapper (e.g. the Dovado box): negligible own
            // logic; absorb every child with its evaluated generic map.
            let mut nl = Netlist::empty(&module.name);
            nl.design_hash = ctx.design_hash();
            for child in &children {
                let mut child_overrides = BTreeMap::new();
                for (gname, gexpr) in &child.generics {
                    let v = gexpr.eval(&params).map_err(|e| {
                        EdaError::Parameter(format!(
                            "generic `{gname}` of instance `{}`: {e}",
                            child.label
                        ))
                    })?;
                    child_overrides.insert(gname.clone(), v);
                }
                let child_nl = self.elaborate_module(
                    registry,
                    child.target_simple(),
                    &child_overrides,
                    depth + 1,
                )?;
                nl.absorb(&child_nl);
            }
            Ok(nl)
        } else {
            registry.elaborate(&ctx)
        }
    }
}

/// Parses `text` as `language`; a hard parse error or an error diagnostic
/// becomes [`EdaError::Parse`] prefixed with `path`.
fn parse_checked(path: &str, language: Language, text: &str) -> EdaResult<SourceFile> {
    let (file, diags) = dovado_hdl::parse_source(language, text)
        .map_err(|e| EdaError::Parse(format!("{path}: {e}")))?;
    if diags.has_errors() {
        let first = diags
            .iter()
            .find(|d| d.severity == dovado_hdl::Severity::Error)
            .map(|d| d.message.clone())
            .unwrap_or_default();
        return Err(EdaError::Parse(format!("{path}: {first}")));
    }
    Ok(file)
}

/// The first successful parse of each path, shared by the sessions of one
/// tool backend the way they share a [`crate::CheckpointStore`].
///
/// A read hits only when the language and the full text equal those of the
/// cached parse. Anything else parses without caching and leaves the
/// path's entry alone, so memory stays bounded by the number of distinct
/// paths. Within one backend the generated box is the only path whose text
/// changes, and it changes at every design point: keeping its first parse
/// saves a copy of the path and the text per attempt, and each later
/// box's tree is freed by the thread that built it. Parse errors are never
/// cached. Cloning shares the cache.
#[derive(Clone, Default)]
pub struct ParseCache {
    entries: Arc<Mutex<HashMap<String, CachedParse>>>,
}

struct CachedParse {
    language: Language,
    text: String,
    file: Arc<SourceFile>,
}

impl ParseCache {
    /// Creates an empty cache.
    pub fn new() -> ParseCache {
        ParseCache::default()
    }

    /// The parse of `text` read as `language` from `path`: the cached one
    /// when it matches, else a fresh parse (with [`Project::add_source`]'s
    /// exact error on failure), cached only if `path` has no entry yet.
    pub(crate) fn parse(
        &self,
        path: &str,
        language: Language,
        text: &str,
    ) -> EdaResult<Arc<SourceFile>> {
        let has_entry = match self.entries.lock().get(path) {
            Some(hit) if hit.language == language && hit.text == text => {
                return Ok(Arc::clone(&hit.file));
            }
            entry => entry.is_some(),
        };
        let file = Arc::new(parse_checked(path, language, text)?);
        if !has_entry {
            self.entries
                .lock()
                .entry(path.to_string())
                .or_insert_with(|| CachedParse {
                    language,
                    text: text.to_string(),
                    file: Arc::clone(&file),
                });
        }
        Ok(file)
    }
}

/// Maps a catalog error onto the EDA error space: parse problems stay
/// parse errors; graph problems (cycles, top inference) are elaboration
/// errors with the catalog's deterministic message.
fn catalog_err(e: CatalogError) -> EdaError {
    match e {
        CatalogError::Parse(m) => EdaError::Parse(m),
        other => EdaError::Elaboration(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_fpga::Catalog;

    fn k7() -> Part {
        Catalog::builtin().resolve("xc7k70t").unwrap().clone()
    }

    const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

    const BOX_SV: &str = r#"
module box(input wire clk);
  (* DONT_TOUCH = "TRUE" *)
  fifo_v3 #(
      .DEPTH(64),
      .DATA_WIDTH(32)
  ) BOXED (
      .clk_i(clk)
  );
endmodule"#;

    #[test]
    fn add_and_find_sources() {
        let mut p = Project::new("t", k7());
        p.add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        assert!(p.find_module("FIFO_V3").is_some());
        assert!(p.find_module("nope").is_none());
    }

    #[test]
    fn parse_failure_surfaces() {
        let mut p = Project::new("t", k7());
        assert!(p
            .add_source(
                "bad.sv",
                Language::SystemVerilog,
                "module m(input wire c);",
                None
            )
            .is_err());
    }

    #[test]
    fn infer_top_picks_uninstantiated() {
        let mut p = Project::new("t", k7());
        p.add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        p.add_source("box.sv", Language::SystemVerilog, BOX_SV, None)
            .unwrap();
        assert_eq!(p.infer_top().unwrap(), "box");
    }

    #[test]
    fn infer_top_ambiguous_errors_deterministically() {
        // Register in reverse-alphabetical order: the error must still
        // list candidates sorted by name.
        let mut p = Project::new("t", k7());
        p.add_source(
            "b.sv",
            Language::SystemVerilog,
            "module zeta(input wire c); endmodule",
            None,
        )
        .unwrap();
        p.add_source(
            "a.sv",
            Language::SystemVerilog,
            "module alpha(input wire c); endmodule",
            None,
        )
        .unwrap();
        let msg = p.infer_top().unwrap_err().to_string();
        assert!(msg.contains("ambiguous top module"), "{msg}");
        assert!(msg.contains("alpha, zeta"), "{msg}");
        assert!(msg.contains("--top"), "{msg}");
    }

    #[test]
    fn from_catalog_orders_sources_and_infers_top() {
        use dovado_hdl::catalog::CatalogSource;
        // Hand the catalog the files in the *wrong* order; the project
        // must come out compile-ordered with the graph-inferred top.
        let cat = SourceCatalog::from_sources(vec![
            CatalogSource::new("box.sv", Language::SystemVerilog, BOX_SV),
            CatalogSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV),
        ])
        .unwrap();
        let p = Project::from_catalog("t", k7(), &cat, None).unwrap();
        let paths: Vec<&str> = p.sources.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["fifo.sv", "box.sv"]);
        assert_eq!(p.top.as_deref(), Some("box"));
        assert!(p.check_ordering().is_empty());

        // An explicit top overrides inference.
        let p2 = Project::from_catalog("t", k7(), &cat, Some("fifo_v3")).unwrap();
        assert_eq!(p2.top.as_deref(), Some("fifo_v3"));

        // And the catalog-built project elaborates like the add_source one.
        let reg = ModelRegistry::with_builtin_models();
        let via_catalog = p.elaborate(&reg).unwrap();
        let mut legacy = Project::new("t", k7());
        legacy
            .add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        legacy
            .add_source("box.sv", Language::SystemVerilog, BOX_SV, None)
            .unwrap();
        legacy.top = Some("box".into());
        let via_legacy = legacy.elaborate(&reg).unwrap();
        assert_eq!(via_catalog.luts(), via_legacy.luts());
        assert_eq!(via_catalog.registers(), via_legacy.registers());
    }

    #[test]
    fn project_catalog_exposes_graph_queries() {
        let mut p = Project::new("t", k7());
        p.add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        p.add_source("box.sv", Language::SystemVerilog, BOX_SV, None)
            .unwrap();
        let cat = p.catalog().unwrap();
        assert_eq!(cat.dependencies_of("box.sv"), vec!["fifo.sv"]);
        assert_eq!(cat.infer_top().unwrap(), "box");
    }

    #[test]
    fn elaborate_through_box_applies_generic_map() {
        let reg = ModelRegistry::with_builtin_models();
        let mut p = Project::new("t", k7());
        p.add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        p.add_source("box.sv", Language::SystemVerilog, BOX_SV, None)
            .unwrap();
        p.top = Some("box".into());
        let boxed = p.elaborate(&reg).unwrap();

        // Compare with direct elaboration at DEPTH=64.
        let mut p2 = Project::new("t2", k7());
        p2.add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        p2.top = Some("fifo_v3".into());
        p2.generics.insert("DEPTH".into(), 64);
        let direct = p2.elaborate(&reg).unwrap();

        assert_eq!(boxed.luts(), direct.luts());
        assert_eq!(boxed.registers(), direct.registers());
        assert_eq!(boxed.logic_levels, direct.logic_levels);
    }

    #[test]
    fn elaborate_vhdl_box() {
        let reg = ModelRegistry::with_builtin_models();
        let mut p = Project::new("t", k7());
        p.add_source(
            "neorv32.vhd",
            Language::Vhdl,
            r#"
entity neorv32_top is
  generic (
    MEM_INT_IMEM_SIZE : natural := 16384;
    MEM_INT_DMEM_SIZE : natural := 8192
  );
  port ( clk_i : in std_logic );
end entity neorv32_top;
"#,
            None,
        )
        .unwrap();
        p.add_source(
            "box.vhd",
            Language::Vhdl,
            r#"
library ieee;
use ieee.std_logic_1164.all;
entity box is
  port ( clk : in std_logic );
end entity box;
architecture box_arch of box is
begin
  BOXED: entity work.neorv32_top
    generic map (
      MEM_INT_IMEM_SIZE => 32768,
      MEM_INT_DMEM_SIZE => 32768
    )
    port map ( clk_i => clk );
end architecture box_arch;
"#,
            None,
        )
        .unwrap();
        p.top = Some("box".into());
        let nl = p.elaborate(&reg).unwrap();
        // 32 KiB imem + 32 KiB dmem → 8 + 8 BRAM.
        assert_eq!(nl.brams(), 16);
    }

    #[test]
    fn top_generics_override_defaults() {
        let reg = ModelRegistry::with_builtin_models();
        let mut p = Project::new("t", k7());
        p.add_source("fifo.sv", Language::SystemVerilog, FIFO_SV, None)
            .unwrap();
        p.top = Some("fifo_v3".into());
        let base = p.elaborate(&reg).unwrap();
        p.generics.insert("DEPTH".into(), 512);
        let big = p.elaborate(&reg).unwrap();
        assert!(big.registers() > base.registers());
    }

    #[test]
    fn unknown_child_module_errors() {
        let reg = ModelRegistry::with_builtin_models();
        let mut p = Project::new("t", k7());
        p.add_source(
            "box.sv",
            Language::SystemVerilog,
            "module box(input wire clk); ghost u (.c(clk)); endmodule",
            None,
        )
        .unwrap();
        p.top = Some("box".into());
        assert!(matches!(p.elaborate(&reg), Err(EdaError::UnknownModule(_))));
    }

    #[test]
    fn package_ordering_check() {
        let mut p = Project::new("t", k7());
        p.add_source(
            "m.sv",
            Language::SystemVerilog,
            "module m(input wire c); endmodule",
            None,
        )
        .unwrap();
        p.add_source(
            "pkg.sv",
            Language::SystemVerilog,
            "package late_pkg; endpackage",
            None,
        )
        .unwrap();
        assert_eq!(p.check_ordering(), vec!["pkg.sv".to_string()]);

        let mut good = Project::new("t", k7());
        good.add_source(
            "pkg.sv",
            Language::SystemVerilog,
            "package early_pkg; endpackage",
            None,
        )
        .unwrap();
        good.add_source(
            "m.sv",
            Language::SystemVerilog,
            "module m(input wire c); endmodule",
            None,
        )
        .unwrap();
        assert!(good.check_ordering().is_empty());
    }
}
