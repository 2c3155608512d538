//! Repository-scale design-unit catalog: walk a source tree, identify the
//! primary and secondary design units in every file, and build a unit-level
//! dependency graph with a deterministic topological compile order.
//!
//! The paper pitches Dovado as point-and-explore DSE over a user's RTL, but
//! real RTL is a *repository*: entities in one file, architectures in
//! another, package bodies elsewhere, Verilog files holding several modules.
//! Following orbit's `VHDLSymbol` design, each file is decomposed into
//! [`DesignUnit`]s — primary units (entities/modules, packages,
//! configurations) own a name; secondary units (architectures, package
//! bodies) only complete a primary unit — and the catalog wires four kinds
//! of dependency edges between them:
//!
//! * architecture → its entity,
//! * package body → its package,
//! * configuration → its entity,
//! * instantiation (inside a module or an architecture) → the instantiated
//!   module, and `use`/`import` clauses → the named package.
//!
//! Projected onto files, those edges give a compile order (Kahn's algorithm
//! with lexicographic-path tie-breaking, so the order is a pure function of
//! the file *set*, never of discovery order), cycle detection, and
//! graph-based top inference: the unique module no other unit instantiates.
//!
//! The catalog also computes a 128-bit content fingerprint over every file's
//! path, language, library and text plus the unit/edge structure — the EDA
//! layer folds it into the evaluation-store key so an edit to *any* file a
//! design depends on (a package body, say) correctly invalidates stored
//! results.

use crate::ast::{Language, SourceFile};
use crate::error::Diagnostics;
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// One design unit identified in a cataloged file, orbit-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignUnit {
    /// Primary: a Verilog/SystemVerilog module or VHDL entity.
    Module {
        /// Module/entity name.
        name: String,
    },
    /// Primary: a VHDL or SystemVerilog package declaration.
    Package {
        /// Package name.
        name: String,
    },
    /// Primary: a VHDL configuration of an entity.
    Configuration {
        /// Configuration name.
        name: String,
        /// The configured entity.
        entity: String,
    },
    /// Secondary: a VHDL architecture completing an entity.
    Architecture {
        /// Architecture name.
        name: String,
        /// The entity it implements.
        entity: String,
    },
    /// Secondary: a VHDL package body completing a package. A body has no
    /// name of its own — only the package it completes.
    PackageBody {
        /// The package this body completes.
        package: String,
    },
}

impl DesignUnit {
    /// The unit's own identifier — `None` for a package body, which is
    /// only addressable through the package it completes.
    pub fn as_iden(&self) -> Option<&str> {
        match self {
            DesignUnit::Module { name }
            | DesignUnit::Package { name }
            | DesignUnit::Configuration { name, .. }
            | DesignUnit::Architecture { name, .. } => Some(name),
            DesignUnit::PackageBody { .. } => None,
        }
    }

    /// Whether this is a primary design unit (owns a library-level name).
    pub fn is_primary(&self) -> bool {
        matches!(
            self,
            DesignUnit::Module { .. }
                | DesignUnit::Package { .. }
                | DesignUnit::Configuration { .. }
        )
    }
}

impl fmt::Display for DesignUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignUnit::Module { name } => write!(f, "module {name}"),
            DesignUnit::Package { name } => write!(f, "package {name}"),
            DesignUnit::Configuration { name, entity } => {
                write!(f, "configuration {name} of {entity}")
            }
            DesignUnit::Architecture { name, entity } => {
                write!(f, "architecture {name} of {entity}")
            }
            DesignUnit::PackageBody { package } => write!(f, "package body of {package}"),
        }
    }
}

/// One raw source handed to the catalog: a path, how to parse it, and the
/// full text.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogSource {
    /// Path (relative within the project tree, or any stable identifier).
    pub path: String,
    /// Language to parse it as.
    pub language: Language,
    /// VHDL library it compiles into (`None` = `work`).
    pub library: Option<String>,
    /// Full source text.
    pub text: String,
}

impl CatalogSource {
    /// A `work`-library source.
    pub fn new(path: impl Into<String>, language: Language, text: impl Into<String>) -> Self {
        CatalogSource {
            path: path.into(),
            language,
            library: None,
            text: text.into(),
        }
    }
}

/// One cataloged file: its parse result, extracted units, and diagnostics
/// (each stamped with the file path).
#[derive(Debug, Clone)]
pub struct CatalogedFile {
    /// The file's path as handed in.
    pub path: String,
    /// Language it was parsed as.
    pub language: Language,
    /// VHDL library (`None` = `work`).
    pub library: Option<String>,
    /// Full text (empty for structure-only catalogs built from
    /// pre-parsed sources).
    pub text: String,
    /// The parse result.
    pub file: SourceFile,
    /// The design units the file declares, in declaration order.
    pub units: Vec<DesignUnit>,
    /// Parser diagnostics, stamped with this file's path.
    pub diagnostics: Diagnostics,
}

/// Errors building or querying a catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogError {
    /// A file failed to parse (message already names the file).
    Parse(String),
    /// Reading the source tree failed.
    Io {
        /// The offending path.
        path: String,
        /// The OS error.
        message: String,
    },
    /// A file's extension is not a recognized HDL language.
    UnknownLanguage(String),
    /// The dependency graph has a cycle; the listed files (sorted) could
    /// not be ordered.
    Cycle(Vec<String>),
    /// No module is free of instantiations — nothing can be the top.
    NoTop,
    /// Several modules are never instantiated; candidates sorted by name.
    AmbiguousTop(Vec<String>),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Parse(m) => write!(f, "{m}"),
            CatalogError::Io { path, message } => write!(f, "{path}: {message}"),
            CatalogError::UnknownLanguage(p) => {
                write!(f, "{p}: unknown HDL extension (want .vhd/.vhdl/.v/.sv)")
            }
            CatalogError::Cycle(files) => write!(
                f,
                "dependency cycle among source files: {}",
                files.join(", ")
            ),
            CatalogError::NoTop => write!(f, "no top-level module found"),
            CatalogError::AmbiguousTop(names) => write!(
                f,
                "ambiguous top module — {} candidates, pick one with --top: {}",
                names.len(),
                names.join(", ")
            ),
        }
    }
}

impl std::error::Error for CatalogError {}

/// A cataloged source tree: files sorted by path, the unit-level dependency
/// graph projected to file-level edges, a deterministic topological compile
/// order, and a content fingerprint.
#[derive(Debug, Clone)]
pub struct SourceCatalog {
    files: Vec<CatalogedFile>,
    /// Per-file dependency sets (indices into `files`), self-edges removed.
    deps: Vec<BTreeSet<usize>>,
    /// Topological compile order (indices into `files`).
    order: Vec<usize>,
    /// 128-bit content fingerprint, 32 hex chars.
    fingerprint: String,
}

impl SourceCatalog {
    /// Catalogs in-memory sources: parses each, extracts units, builds the
    /// dependency graph and compile order. Input order is irrelevant — the
    /// catalog sorts by path first, so the result is a pure function of
    /// the file *set*.
    pub fn from_sources(sources: Vec<CatalogSource>) -> Result<SourceCatalog, CatalogError> {
        let mut parsed = Vec::with_capacity(sources.len());
        for s in sources {
            let (file, mut diags) = crate::parse_source(s.language, &s.text)
                .map_err(|e| CatalogError::Parse(e.in_file(&s.path).to_string()))?;
            diags.set_file(&s.path);
            if diags.has_errors() {
                let first = diags
                    .iter()
                    .find(|d| d.severity == crate::Severity::Error)
                    .expect("has_errors implies an error diagnostic");
                return Err(CatalogError::Parse(first.to_string()));
            }
            parsed.push(CatalogedFile {
                units: extract_units(&file),
                path: s.path,
                language: s.language,
                library: s.library,
                text: s.text,
                file,
                diagnostics: diags,
            });
        }
        SourceCatalog::build(parsed)
    }

    /// Catalogs already-parsed sources (no text, structure-only
    /// fingerprint). This is the graph-query constructor the EDA project
    /// layer uses: it re-derives units and edges from parse results it
    /// already holds, without re-reading any file.
    pub fn from_parsed(
        sources: Vec<(String, Language, Option<String>, SourceFile)>,
    ) -> Result<SourceCatalog, CatalogError> {
        let parsed = sources
            .into_iter()
            .map(|(path, language, library, file)| CatalogedFile {
                units: extract_units(&file),
                path,
                language,
                library,
                text: String::new(),
                file,
                diagnostics: Diagnostics::new(),
            })
            .collect();
        SourceCatalog::build(parsed)
    }

    /// Walks a source tree rooted at `root`, cataloging every file with a
    /// recognized HDL extension (`.vhd/.vhdl/.v/.vh/.sv/.svh`). Files are
    /// identified by their path relative to `root` (with `/` separators),
    /// so the same tree catalogs identically on any platform; directory
    /// read order never matters because the catalog sorts by path.
    pub fn walk(root: &Path) -> Result<SourceCatalog, CatalogError> {
        let mut sources = Vec::new();
        collect_tree(root, root, &mut HashSet::new(), &mut sources)?;
        SourceCatalog::from_sources(sources)
    }

    fn build(mut files: Vec<CatalogedFile>) -> Result<SourceCatalog, CatalogError> {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let deps = file_dependencies(&files);
        let order = topo_order(&files, &deps)?;
        let fingerprint = fingerprint(&files, &deps);
        Ok(SourceCatalog {
            files,
            deps,
            order,
            fingerprint,
        })
    }

    /// The cataloged files, sorted by path.
    pub fn files(&self) -> &[CatalogedFile] {
        &self.files
    }

    /// The files in dependency-respecting compile order: every file
    /// appears after everything it depends on, ties broken by path, so
    /// the order is deterministic and stable across discovery order.
    pub fn compile_order(&self) -> impl Iterator<Item = &CatalogedFile> {
        self.order.iter().map(|&i| &self.files[i])
    }

    /// Every design unit in the catalog as `(file path, unit)`, in
    /// compile order.
    pub fn units(&self) -> impl Iterator<Item = (&str, &DesignUnit)> {
        self.compile_order()
            .flat_map(|f| f.units.iter().map(move |u| (f.path.as_str(), u)))
    }

    /// The paths a file directly depends on (sorted by path).
    pub fn dependencies_of(&self, path: &str) -> Vec<&str> {
        self.files
            .iter()
            .position(|f| f.path == path)
            .map(|i| {
                self.deps[i]
                    .iter()
                    .map(|&j| self.files[j].path.as_str())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Graph-based top inference: the unique module/entity that no
    /// instantiation, configuration or architecture in the catalog refers
    /// to. Zero candidates is [`CatalogError::NoTop`]; several is
    /// [`CatalogError::AmbiguousTop`] with the candidates sorted by name.
    pub fn infer_top(&self) -> Result<String, CatalogError> {
        let mut referenced: BTreeSet<String> = BTreeSet::new();
        for f in &self.files {
            for inst in &f.file.instantiations {
                referenced.insert(inst.target_simple().to_ascii_lowercase());
            }
            for cfg in &f.file.configurations {
                referenced.insert(cfg.entity.to_ascii_lowercase());
            }
        }
        let mut candidates: Vec<String> = self
            .files
            .iter()
            .flat_map(|f| f.units.iter())
            .filter_map(|u| match u {
                DesignUnit::Module { name } if !referenced.contains(&name.to_ascii_lowercase()) => {
                    Some(name.clone())
                }
                _ => None,
            })
            .collect();
        candidates.sort();
        candidates.dedup();
        match candidates.as_slice() {
            [only] => Ok(only.clone()),
            [] => Err(CatalogError::NoTop),
            _ => Err(CatalogError::AmbiguousTop(candidates)),
        }
    }

    /// The catalog's 128-bit content fingerprint as 32 hex characters:
    /// covers every file's path, language, library and text plus the
    /// extracted units and dependency edges. Any edit to any cataloged
    /// file — including one the top module only reaches through a package
    /// body — changes the fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

/// Extracts the design units a parse result declares, in declaration order
/// (modules, then packages, configurations, architectures, package bodies —
/// the parsers record each list in source order).
fn extract_units(file: &SourceFile) -> Vec<DesignUnit> {
    let mut units = Vec::new();
    for m in &file.modules {
        units.push(DesignUnit::Module {
            name: m.name.clone(),
        });
    }
    for p in &file.packages {
        units.push(DesignUnit::Package {
            name: p.name.clone(),
        });
    }
    for c in &file.configurations {
        units.push(DesignUnit::Configuration {
            name: c.name.clone(),
            entity: c.entity.clone(),
        });
    }
    for (arch, ent) in &file.architectures {
        units.push(DesignUnit::Architecture {
            name: arch.clone(),
            entity: ent.clone(),
        });
    }
    for pkg in &file.package_bodies {
        units.push(DesignUnit::PackageBody {
            package: pkg.clone(),
        });
    }
    units
}

/// The package a `use`/`import` context clause names, if any: the component
/// after the library in `work.pkg.all`, or the part before `::` in
/// `pkg::*`.
fn clause_package(clause: &crate::ast::ContextClause) -> Option<String> {
    match clause {
        crate::ast::ContextClause::Use(path) => {
            let parts: Vec<&str> = path.split('.').collect();
            match parts.as_slice() {
                // `use pkg.all` / `use pkg` — no library prefix.
                [p] | [p, "all"] => Some((*p).to_string()),
                // `use lib.pkg[.item|.all]` — the package is component 2.
                [_, p, ..] => Some((*p).to_string()),
                _ => None,
            }
        }
        crate::ast::ContextClause::Import(path) => {
            Some(path.split("::").next().unwrap_or(path.as_str()).to_string())
        }
        _ => None,
    }
}

/// Projects the unit-level dependency edges onto file-level sets
/// (self-edges removed): architecture → entity, package body → package,
/// configuration → entity, instantiation → target module, use/import →
/// named package.
fn file_dependencies(files: &[CatalogedFile]) -> Vec<BTreeSet<usize>> {
    // Name → declaring file, case-insensitive (VHDL identifiers are
    // case-insensitive; cross-language instantiation follows suit).
    fn module_name(u: &DesignUnit) -> Option<&str> {
        match u {
            DesignUnit::Module { name } => Some(name.as_str()),
            _ => None,
        }
    }
    fn package_name(u: &DesignUnit) -> Option<&str> {
        match u {
            DesignUnit::Package { name } => Some(name.as_str()),
            _ => None,
        }
    }
    let locate = |want: &str, pick: fn(&DesignUnit) -> Option<&str>| -> Option<usize> {
        files.iter().position(|f| {
            f.units
                .iter()
                .any(|u| pick(u).is_some_and(|n| n.eq_ignore_ascii_case(want)))
        })
    };

    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); files.len()];
    for (i, f) in files.iter().enumerate() {
        let mut add = |target: Option<usize>| {
            if let Some(j) = target {
                if j != i {
                    deps[i].insert(j);
                }
            }
        };
        for u in &f.units {
            match u {
                DesignUnit::Architecture { entity, .. }
                | DesignUnit::Configuration { entity, .. } => {
                    add(locate(entity, module_name));
                }
                DesignUnit::PackageBody { package } => {
                    add(locate(package, package_name));
                }
                _ => {}
            }
        }
        for inst in &f.file.instantiations {
            add(locate(inst.target_simple(), module_name));
        }
        for clause in &f.file.context {
            if let Some(pkg) = clause_package(clause) {
                add(locate(&pkg, package_name));
            }
        }
    }
    deps
}

/// Kahn's algorithm with lexicographic tie-breaking: among the files whose
/// dependencies are all satisfied, always emit the lowest path first.
/// `files` is pre-sorted by path, so "lowest index" is "lowest path".
fn topo_order(
    files: &[CatalogedFile],
    deps: &[BTreeSet<usize>],
) -> Result<Vec<usize>, CatalogError> {
    let n = files.len();
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let next = (0..n).find(|&i| !emitted[i] && deps[i].iter().all(|&j| emitted[j]));
        match next {
            Some(i) => {
                emitted[i] = true;
                order.push(i);
            }
            None => {
                let stuck: Vec<String> = (0..n)
                    .filter(|&i| !emitted[i])
                    .map(|i| files[i].path.clone())
                    .collect();
                return Err(CatalogError::Cycle(stuck));
            }
        }
    }
    Ok(order)
}

// ---- fingerprint -------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, data: &[u8]) -> u64 {
    let mut h = hash;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// 128-bit content fingerprint: two independent FNV-1a streams (the second
/// offset-perturbed, the same dual-hash construction as the EDA store key)
/// over every file's identity and text plus the unit/edge structure.
fn fingerprint(files: &[CatalogedFile], deps: &[BTreeSet<usize>]) -> String {
    let mut lo = FNV_OFFSET;
    let mut hi = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
    let mut feed = |bytes: &[u8]| {
        lo = fnv1a(lo, bytes);
        lo = fnv1a(lo, &[0xff]);
        hi = fnv1a(hi, &[0xfe]);
        hi = fnv1a(hi, bytes);
    };
    for (i, f) in files.iter().enumerate() {
        feed(f.path.as_bytes());
        feed(format!("{:?}", f.language).as_bytes());
        feed(f.library.as_deref().unwrap_or("work").as_bytes());
        feed(f.text.as_bytes());
        for u in &f.units {
            feed(u.to_string().as_bytes());
        }
        for &j in &deps[i] {
            feed(files[j].path.as_bytes());
        }
    }
    format!("{lo:016x}{hi:016x}")
}

/// Recursively collects HDL files under `dir`, recording paths relative to
/// `root`. Entries are sorted per directory for a deterministic walk (the
/// catalog re-sorts globally anyway). Files with unknown extensions are
/// skipped — a source tree may hold READMEs, scripts, constraint files.
/// Directory symlinks are followed, but each directory is walked once,
/// by its canonical path (`visited`): the first path the sorted walk
/// reaches it by names its files, and a symlink back up the tree (`loop
/// -> .`) adds nothing.
fn collect_tree(
    root: &Path,
    dir: &Path,
    visited: &mut HashSet<PathBuf>,
    out: &mut Vec<CatalogSource>,
) -> Result<(), CatalogError> {
    let io_err = |p: &Path, e: std::io::Error| CatalogError::Io {
        path: p.display().to_string(),
        message: e.to_string(),
    };
    if !visited.insert(std::fs::canonicalize(dir).map_err(|e| io_err(dir, e))?) {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .map(|r| r.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| io_err(dir, e))?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_tree(root, &path, visited, out)?;
            continue;
        }
        let Some(lang) = path
            .extension()
            .and_then(|e| e.to_str())
            .and_then(Language::from_extension)
        else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        out.push(CatalogSource {
            path: rel,
            language: lang,
            library: None,
            text,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PKG_VHD: &str =
        "package util_pkg is\n  constant W : natural := 8;\nend package util_pkg;\n";
    const PKG_BODY_VHD: &str =
        "package body util_pkg is\n  -- deferred constants live here\nend package body util_pkg;\n";
    const CORE_VHD: &str = "library ieee;\nuse work.util_pkg.all;\nentity core is\n  generic ( DEPTH : natural := 8 );\n  port ( clk_i : in std_logic );\nend entity core;\n";
    const CORE_RTL_VHD: &str = "architecture rtl of core is\nbegin\nend architecture rtl;\n";
    const TOP_V: &str = "module top #(parameter DEPTH = 8)(input wire clk);\n  core u_core (.clk_i(clk));\nendmodule\n";

    fn tree() -> Vec<CatalogSource> {
        vec![
            CatalogSource::new("rtl/top.v", Language::Verilog, TOP_V),
            CatalogSource::new("rtl/core.vhd", Language::Vhdl, CORE_VHD),
            CatalogSource::new("rtl/core_rtl.vhd", Language::Vhdl, CORE_RTL_VHD),
            CatalogSource::new("pkg/util_pkg.vhd", Language::Vhdl, PKG_VHD),
            CatalogSource::new("pkg/util_pkg_body.vhd", Language::Vhdl, PKG_BODY_VHD),
        ]
    }

    fn paths(cat: &SourceCatalog) -> Vec<String> {
        cat.compile_order().map(|f| f.path.clone()).collect()
    }

    #[test]
    fn units_identified_orbit_style() {
        let cat = SourceCatalog::from_sources(tree()).unwrap();
        let units: Vec<String> = cat.units().map(|(_, u)| u.to_string()).collect();
        assert!(units.contains(&"package util_pkg".to_string()));
        assert!(units.contains(&"package body of util_pkg".to_string()));
        assert!(units.contains(&"module core".to_string()));
        assert!(units.contains(&"architecture rtl of core".to_string()));
        assert!(units.contains(&"module top".to_string()));
        // Primary vs secondary, and as_iden: a body has no identifier.
        for (_, u) in cat.units() {
            match u {
                DesignUnit::PackageBody { .. } => {
                    assert!(u.as_iden().is_none());
                    assert!(!u.is_primary());
                }
                DesignUnit::Architecture { name, .. } => {
                    assert_eq!(u.as_iden(), Some(name.as_str()));
                    assert!(!u.is_primary());
                }
                _ => assert!(u.is_primary() && u.as_iden().is_some()),
            }
        }
    }

    #[test]
    fn compile_order_respects_dependencies() {
        let cat = SourceCatalog::from_sources(tree()).unwrap();
        let order = paths(&cat);
        let pos = |p: &str| order.iter().position(|x| x == p).unwrap();
        // Package before its body and before its user; entity before its
        // architecture; instantiated module before the instantiator.
        assert!(pos("pkg/util_pkg.vhd") < pos("pkg/util_pkg_body.vhd"));
        assert!(pos("pkg/util_pkg.vhd") < pos("rtl/core.vhd"));
        assert!(pos("rtl/core.vhd") < pos("rtl/core_rtl.vhd"));
        assert!(pos("rtl/core.vhd") < pos("rtl/top.v"));
    }

    #[test]
    fn order_is_stable_across_discovery_order() {
        let baseline = paths(&SourceCatalog::from_sources(tree()).unwrap());
        let mut shuffled = tree();
        shuffled.reverse();
        assert_eq!(
            baseline,
            paths(&SourceCatalog::from_sources(shuffled).unwrap())
        );
        let mut rotated = tree();
        rotated.rotate_left(2);
        assert_eq!(
            baseline,
            paths(&SourceCatalog::from_sources(rotated).unwrap())
        );
    }

    #[test]
    fn top_inference_finds_the_unique_root() {
        let cat = SourceCatalog::from_sources(tree()).unwrap();
        assert_eq!(cat.infer_top().unwrap(), "top");
    }

    #[test]
    fn ambiguous_top_lists_candidates_sorted() {
        let cat = SourceCatalog::from_sources(vec![
            CatalogSource::new(
                "b.v",
                Language::Verilog,
                "module zeta(input wire c); endmodule",
            ),
            CatalogSource::new(
                "a.v",
                Language::Verilog,
                "module alpha(input wire c); endmodule",
            ),
        ])
        .unwrap();
        match cat.infer_top() {
            Err(CatalogError::AmbiguousTop(names)) => {
                assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
            }
            other => panic!("expected AmbiguousTop, got {other:?}"),
        }
        let msg = cat.infer_top().unwrap_err().to_string();
        assert!(msg.contains("pick one with --top"), "{msg}");
        assert!(msg.contains("alpha, zeta"), "{msg}");
    }

    #[test]
    fn configured_entity_is_not_a_top_candidate() {
        let cat = SourceCatalog::from_sources(vec![
            CatalogSource::new(
                "core.vhd",
                Language::Vhdl,
                "entity core is port ( clk_i : in std_logic ); end entity core;\n\
                 architecture rtl of core is begin end architecture rtl;",
            ),
            CatalogSource::new(
                "cfg.vhd",
                Language::Vhdl,
                "configuration core_cfg of core is end;",
            ),
            CatalogSource::new(
                "top.v",
                Language::Verilog,
                "module top(input wire clk); core u (.clk_i(clk)); endmodule",
            ),
        ])
        .unwrap();
        assert_eq!(cat.infer_top().unwrap(), "top");
        // And the configuration orders after the entity it configures.
        let order: Vec<String> = cat.compile_order().map(|f| f.path.clone()).collect();
        let pos = |p: &str| order.iter().position(|x| x == p).unwrap();
        assert!(pos("core.vhd") < pos("cfg.vhd"));
    }

    #[test]
    fn cycle_detected_and_reported_sorted() {
        // a instantiates b, b instantiates a — with each module in its own
        // file the file graph is cyclic.
        let err = SourceCatalog::from_sources(vec![
            CatalogSource::new(
                "a.v",
                Language::Verilog,
                "module a(input wire c); b u (.c(c)); endmodule",
            ),
            CatalogSource::new(
                "b.v",
                Language::Verilog,
                "module b(input wire c); a u (.c(c)); endmodule",
            ),
        ])
        .unwrap_err();
        match err {
            CatalogError::Cycle(files) => {
                assert_eq!(files, vec!["a.v".to_string(), "b.v".to_string()]);
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
    }

    #[test]
    fn multi_module_verilog_file_catalogs_every_module() {
        let cat = SourceCatalog::from_sources(vec![CatalogSource::new(
            "pair.v",
            Language::Verilog,
            "module leaf(input wire c); endmodule\n\
             module root(input wire c); leaf u (.c(c)); endmodule",
        )])
        .unwrap();
        let modules: Vec<&str> = cat
            .units()
            .filter_map(|(_, u)| match u {
                DesignUnit::Module { name } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(modules, vec!["leaf", "root"]);
        assert_eq!(cat.infer_top().unwrap(), "root");
    }

    #[test]
    fn parse_failure_names_the_file() {
        let err = SourceCatalog::from_sources(vec![CatalogSource::new(
            "broken/core.vhd",
            Language::Vhdl,
            "entity core is",
        )])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("broken/core.vhd"), "{msg}");
    }

    #[test]
    fn fingerprint_stable_and_sensitive_to_dependency_edits() {
        let a = SourceCatalog::from_sources(tree()).unwrap();
        let b = SourceCatalog::from_sources(tree()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 32);

        // Editing the package *body* — a file the top only reaches through
        // the dependency graph — must change the fingerprint.
        let mut edited = tree();
        for s in &mut edited {
            if s.path == "pkg/util_pkg_body.vhd" {
                s.text = s.text.replace("deferred", "edited");
            }
        }
        let c = SourceCatalog::from_sources(edited).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn from_parsed_matches_from_sources_structure() {
        let full = SourceCatalog::from_sources(tree()).unwrap();
        let reparsed: Vec<(String, Language, Option<String>, SourceFile)> = tree()
            .into_iter()
            .map(|s| {
                let (file, _) = crate::parse_source(s.language, &s.text).unwrap();
                (s.path, s.language, s.library, file)
            })
            .collect();
        let structural = SourceCatalog::from_parsed(reparsed).unwrap();
        assert_eq!(paths(&full), paths(&structural));
        assert_eq!(structural.infer_top().unwrap(), full.infer_top().unwrap());
    }

    #[test]
    fn dependencies_of_reports_direct_edges() {
        let cat = SourceCatalog::from_sources(tree()).unwrap();
        assert_eq!(
            cat.dependencies_of("pkg/util_pkg_body.vhd"),
            vec!["pkg/util_pkg.vhd"]
        );
        assert_eq!(cat.dependencies_of("rtl/top.v"), vec!["rtl/core.vhd"]);
        assert!(cat.dependencies_of("pkg/util_pkg.vhd").is_empty());
        assert!(cat.dependencies_of("missing.vhd").is_empty());
    }

    #[test]
    fn walk_catalogs_a_directory_tree() {
        let dir = std::env::temp_dir().join(format!("dovado-catalog-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("rtl")).unwrap();
        std::fs::create_dir_all(dir.join("pkg")).unwrap();
        for (rel, text) in [
            ("rtl/top.v", TOP_V),
            ("rtl/core.vhd", CORE_VHD),
            ("rtl/core_rtl.vhd", CORE_RTL_VHD),
            ("pkg/util_pkg.vhd", PKG_VHD),
            ("pkg/util_pkg_body.vhd", PKG_BODY_VHD),
            ("README.md", "not HDL, must be skipped"),
        ] {
            std::fs::write(dir.join(rel), text).unwrap();
        }
        let cat = SourceCatalog::walk(&dir).unwrap();
        assert_eq!(cat.files().len(), 5, "README must be skipped");
        assert_eq!(cat.infer_top().unwrap(), "top");
        // Identical to the in-memory catalog of the same tree.
        let mem = SourceCatalog::from_sources(tree()).unwrap();
        assert_eq!(paths(&cat), paths(&mem));
        assert_eq!(cat.fingerprint(), mem.fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn walk_visits_each_directory_once_through_symlink_cycles() {
        let dir = std::env::temp_dir().join(format!("dovado-catalog-loop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("rtl")).unwrap();
        std::fs::create_dir_all(dir.join("pkg")).unwrap();
        for src in tree() {
            std::fs::write(dir.join(&src.path), &src.text).unwrap();
        }
        // Two links back to the root: unchecked, the walk would descend
        // `loop/again/loop/…` until the kernel's link limit, 2^40 paths.
        std::os::unix::fs::symlink(".", dir.join("loop")).unwrap();
        std::os::unix::fs::symlink(".", dir.join("again")).unwrap();
        let (done, walked) = std::sync::mpsc::channel();
        let root = dir.clone();
        std::thread::spawn(move || done.send(SourceCatalog::walk(&root)));
        let cat = walked
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the walk ends")
            .unwrap();
        let mem = SourceCatalog::from_sources(tree()).unwrap();
        assert_eq!(paths(&cat), paths(&mem), "exactly the real files");
        assert_eq!(cat.fingerprint(), mem.fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn walk_missing_root_is_an_io_error() {
        let err = SourceCatalog::walk(Path::new("/nonexistent/dovado-tree")).unwrap_err();
        assert!(matches!(err, CatalogError::Io { .. }), "{err:?}");
    }

    // ---- property tests ------------------------------------------------

    use proptest::prelude::*;

    /// A pool of generated single-module files with a known acyclic
    /// dependency shape: file i may instantiate any subset of modules
    /// j < i, so every permutation of the pool must linearize.
    fn pool(n: usize, edges: u64) -> Vec<CatalogSource> {
        (0..n)
            .map(|i| {
                let mut body = String::new();
                for j in 0..i {
                    // Pseudo-random but deterministic edge selection from
                    // the `edges` bits.
                    if (edges >> ((i * 7 + j) % 63)) & 1 == 1 {
                        body.push_str(&format!("  m{j} u{j} (.c(c));\n"));
                    }
                }
                CatalogSource::new(
                    format!("f{i:02}.v"),
                    Language::Verilog,
                    format!("module m{i}(input wire c);\n{body}endmodule\n"),
                )
            })
            .collect()
    }

    proptest! {
        #[test]
        fn topo_order_is_a_valid_linearization(n in 2usize..10, edges in any::<u64>()) {
            let cat = SourceCatalog::from_sources(pool(n, edges)).unwrap();
            let order: Vec<String> = cat.compile_order().map(|f| f.path.clone()).collect();
            prop_assert_eq!(order.len(), n);
            for (idx, path) in order.iter().enumerate() {
                for dep in cat.dependencies_of(path) {
                    let dep_idx = order.iter().position(|p| p == dep).unwrap();
                    prop_assert!(
                        dep_idx < idx,
                        "{} depends on {} but compiles first", path, dep
                    );
                }
            }
        }

        #[test]
        fn topo_order_is_discovery_order_invariant(
            n in 2usize..10,
            edges in any::<u64>(),
            rot in 0usize..10,
        ) {
            let baseline = SourceCatalog::from_sources(pool(n, edges)).unwrap();
            let mut shuffled = pool(n, edges);
            shuffled.rotate_left(rot % n);
            shuffled.reverse();
            let other = SourceCatalog::from_sources(shuffled).unwrap();
            let a: Vec<String> = baseline.compile_order().map(|f| f.path.clone()).collect();
            let b: Vec<String> = other.compile_order().map(|f| f.path.clone()).collect();
            prop_assert_eq!(a, b);
            prop_assert_eq!(baseline.fingerprint(), other.fingerprint());
        }
    }
}
