//! Architecture models: how the simulator "synthesizes" a module.
//!
//! A real synthesis tool derives cell counts from the RTL body. This
//! simulator instead dispatches on the module name to a registered
//! [`ArchModel`], an analytic cost model calibrated to that architecture's
//! published behaviour; unknown modules fall back to a generic
//! interface-driven estimator so every parsed module can complete the flow.
//!
//! Models receive the *bound* parameter environment (defaults merged with
//! generic-map overrides and tool `-generic` options) and the target part,
//! so their estimates can be device-aware (e.g. URAM inference only on
//! UltraScale+).

use crate::error::{EdaError, EdaResult};
use crate::hash;
use crate::netlist::Netlist;
use dovado_fpga::Part;
use dovado_hdl::ModuleInterface;
use std::collections::BTreeMap;

/// Everything a model may consult while elaborating one module.
pub struct ElabContext<'a> {
    /// The parsed interface of the module being elaborated.
    pub module: &'a ModuleInterface,
    /// Fully-resolved integer parameter bindings (defaults + overrides).
    pub params: &'a BTreeMap<String, i64>,
    /// Target device.
    pub part: &'a Part,
}

impl ElabContext<'_> {
    /// Looks up a bound parameter case-insensitively.
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params.get(name).copied().or_else(|| {
            self.params
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| *v)
        })
    }

    /// Looks up a parameter or returns `default`.
    pub fn param_or(&self, name: &str, default: i64) -> i64 {
        self.param(name).unwrap_or(default)
    }

    /// Requires a strictly positive parameter.
    pub fn positive_param(&self, name: &str) -> EdaResult<i64> {
        match self.param(name) {
            Some(v) if v > 0 => Ok(v),
            Some(v) => Err(EdaError::Parameter(format!(
                "parameter `{name}` must be positive, got {v}"
            ))),
            None => Err(EdaError::Parameter(format!(
                "parameter `{name}` is not bound"
            ))),
        }
    }

    /// Stable identity hash for the (module, params, part) triple.
    pub fn design_hash(&self) -> u64 {
        let mut h = hash::hash_str(&self.module.name);
        for (k, v) in self.params {
            h = hash::combine(h, hash::hash_str(k));
            h = hash::combine(h, *v as u64);
        }
        hash::combine(h, hash::hash_str(&self.part.name))
    }
}

/// A registered architecture cost model.
pub trait ArchModel: Send + Sync {
    /// Model name (for reports and debugging).
    fn name(&self) -> &str;

    /// Whether this model handles the given module name.
    fn matches(&self, module_name: &str) -> bool;

    /// Produces the synthetic netlist for the module under the binding.
    fn elaborate(&self, ctx: &ElabContext<'_>) -> EdaResult<Netlist>;
}

/// Whether `name` starts with `prefix` (lowercase ASCII), ASCII case
/// folded. The name-matching helpers fold case in the comparison, so
/// picking a model for every elaborated module copies no name.
pub(crate) fn starts_with_ci(name: &str, prefix: &str) -> bool {
    name.len() >= prefix.len()
        && name.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// Whether `name` ends with `suffix` (lowercase ASCII), ASCII case folded.
pub(crate) fn ends_with_ci(name: &str, suffix: &str) -> bool {
    name.len() >= suffix.len()
        && name.as_bytes()[name.len() - suffix.len()..].eq_ignore_ascii_case(suffix.as_bytes())
}

/// Whether `name` contains `needle` (lowercase ASCII), ASCII case folded.
pub(crate) fn contains_ci(name: &str, needle: &str) -> bool {
    needle.is_empty()
        || name
            .as_bytes()
            .windows(needle.len())
            .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

/// Ordered model registry with a generic fallback.
pub struct ModelRegistry {
    models: Vec<Box<dyn ArchModel>>,
    fallback: Box<dyn ArchModel>,
}

impl ModelRegistry {
    /// Creates a registry with the standard built-in models (see
    /// [`crate::models`]).
    pub fn with_builtin_models() -> ModelRegistry {
        let mut r = ModelRegistry {
            models: Vec::new(),
            fallback: Box::new(crate::models::generic::GenericInterfaceModel),
        };
        for m in crate::models::builtin_models() {
            r.register(m);
        }
        r
    }

    /// Creates an empty registry (generic fallback only).
    pub fn empty() -> ModelRegistry {
        ModelRegistry {
            models: Vec::new(),
            fallback: Box::new(crate::models::generic::GenericInterfaceModel),
        }
    }

    /// Registers a model; later registrations take precedence.
    pub fn register(&mut self, model: Box<dyn ArchModel>) {
        self.models.insert(0, model);
    }

    /// The model that will handle `module_name`.
    pub fn model_for(&self, module_name: &str) -> &dyn ArchModel {
        self.models
            .iter()
            .find(|m| m.matches(module_name))
            .map(|b| b.as_ref())
            .unwrap_or(self.fallback.as_ref())
    }

    /// Elaborates a module, stamping the design hash.
    pub fn elaborate(&self, ctx: &ElabContext<'_>) -> EdaResult<Netlist> {
        let model = self.model_for(&ctx.module.name);
        let mut nl = model.elaborate(ctx)?;
        nl.design_hash = ctx.design_hash();
        Ok(nl)
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::with_builtin_models()
    }
}

/// Resolves the full parameter environment for a module: constant defaults
/// first, then `overrides` (names matched case-insensitively against the
/// declared parameters).
///
/// Locals (`localparam`) are re-derived from their default expressions
/// under the final binding where possible, so models can consult them.
pub fn bind_parameters(
    module: &ModuleInterface,
    overrides: &BTreeMap<String, i64>,
) -> EdaResult<BTreeMap<String, i64>> {
    let mut env: BTreeMap<String, i64> = BTreeMap::new();
    // Pass 1: closed-form defaults in declaration order (later defaults may
    // reference earlier parameters).
    for p in &module.parameters {
        if let Some(d) = &p.default {
            if let Ok(v) = d.eval(&env) {
                env.insert(p.name.clone(), v);
            }
        }
    }
    // Pass 2: apply overrides.
    for (k, v) in overrides {
        let declared = module.parameter(k);
        match declared {
            Some(p) if p.local => {
                return Err(EdaError::Parameter(format!(
                    "cannot override localparam `{}`",
                    p.name
                )))
            }
            Some(p) => {
                env.insert(p.name.clone(), *v);
            }
            None => {
                // Tolerate unknown overrides with the tool's behaviour:
                // Vivado warns and ignores. We keep it in the environment so
                // width expressions referencing it still evaluate.
                env.insert(k.clone(), *v);
            }
        }
    }
    // Pass 3: recompute locals under the final binding.
    for p in &module.parameters {
        if p.local {
            if let Some(d) = &p.default {
                if let Ok(v) = d.eval(&env) {
                    env.insert(p.name.clone(), v);
                }
            }
        }
    }
    Ok(env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_hdl::{parse_source, Language};

    fn fifo_module() -> ModuleInterface {
        let src = r#"
module fifo #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32,
    localparam ADDR_W = $clog2(DEPTH)
)(input wire clk_i);
endmodule"#;
        let (f, _) = parse_source(Language::Verilog, src).unwrap();
        f.modules[0].clone()
    }

    #[test]
    fn bind_defaults_then_overrides() {
        let m = fifo_module();
        let mut ov = BTreeMap::new();
        ov.insert("DEPTH".to_string(), 512i64);
        let env = bind_parameters(&m, &ov).unwrap();
        assert_eq!(env["DEPTH"], 512);
        assert_eq!(env["DATA_WIDTH"], 32);
        // localparam recomputed under the override
        assert_eq!(env["ADDR_W"], 9);
    }

    #[test]
    fn bind_rejects_localparam_override() {
        let m = fifo_module();
        let mut ov = BTreeMap::new();
        ov.insert("ADDR_W".to_string(), 3i64);
        assert!(matches!(
            bind_parameters(&m, &ov),
            Err(EdaError::Parameter(_))
        ));
    }

    #[test]
    fn bind_case_insensitive_override() {
        let m = fifo_module();
        let mut ov = BTreeMap::new();
        ov.insert("depth".to_string(), 64i64);
        let env = bind_parameters(&m, &ov).unwrap();
        assert_eq!(env["DEPTH"], 64);
    }

    #[test]
    fn bind_tolerates_unknown_override() {
        let m = fifo_module();
        let mut ov = BTreeMap::new();
        ov.insert("NOT_A_PARAM".to_string(), 1i64);
        let env = bind_parameters(&m, &ov).unwrap();
        assert_eq!(env["NOT_A_PARAM"], 1);
    }

    #[test]
    fn bind_evaluates_ternary_localparams() {
        let src = r#"
module m #(
    parameter DEPTH = 8,
    localparam ADDR = (DEPTH > 1) ? $clog2(DEPTH) : 1
)(input wire clk);
endmodule"#;
        let (f, _) = parse_source(Language::Verilog, src).unwrap();
        let m = f.modules[0].clone();
        let mut ov = BTreeMap::new();
        ov.insert("DEPTH".to_string(), 500i64);
        let env = bind_parameters(&m, &ov).unwrap();
        assert_eq!(env["ADDR"], 9);
        ov.insert("DEPTH".to_string(), 1i64);
        let env = bind_parameters(&m, &ov).unwrap();
        assert_eq!(env["ADDR"], 1);
    }

    #[test]
    fn registry_dispatches_and_falls_back() {
        let reg = ModelRegistry::with_builtin_models();
        // Known case-study model.
        assert_ne!(reg.model_for("fifo_v3").name(), "generic-interface");
        // Unknown module → generic.
        assert_eq!(
            reg.model_for("totally_unknown_xyz").name(),
            "generic-interface"
        );
    }

    #[test]
    fn design_hash_changes_with_params_and_part() {
        let m = fifo_module();
        let part_a = dovado_fpga::Catalog::builtin()
            .resolve("xc7k70t")
            .unwrap()
            .clone();
        let part_b = dovado_fpga::Catalog::builtin()
            .resolve("xczu3eg")
            .unwrap()
            .clone();
        let mut p1 = BTreeMap::new();
        p1.insert("DEPTH".to_string(), 8i64);
        let mut p2 = BTreeMap::new();
        p2.insert("DEPTH".to_string(), 9i64);
        let h = |params: &BTreeMap<String, i64>, part: &Part| {
            ElabContext {
                module: &m,
                params,
                part,
            }
            .design_hash()
        };
        assert_ne!(h(&p1, &part_a), h(&p2, &part_a));
        assert_ne!(h(&p1, &part_a), h(&p1, &part_b));
        assert_eq!(h(&p1, &part_a), h(&p1, &part_a));
    }

    #[test]
    fn name_helpers_fold_ascii_case_as_a_lowercased_copy_would() {
        assert!(starts_with_ci("NeoRV32_top", "neorv32"));
        assert!(!starts_with_ci("neo", "neorv32"));
        assert!(ends_with_ci("PREFETCH_FIFO", "_fifo"));
        assert!(!ends_with_ci("fifo", "_fifo"));
        assert!(contains_ci("cpl_Queue_Manager", "queue_manager"));
        assert!(!contains_ci("queue", "queue_manager"));
        // Non-ASCII letters are not folded, as `to_ascii_lowercase` leaves
        // them too.
        for name in ["ÉTIREX", "étirex_core", "TIREX_É"] {
            let lower = name.to_ascii_lowercase();
            assert_eq!(starts_with_ci(name, "étirex"), lower.starts_with("étirex"));
            assert_eq!(ends_with_ci(name, "_é"), lower.ends_with("_é"));
            assert_eq!(contains_ci(name, "tirex"), lower.contains("tirex"));
        }
    }
}
