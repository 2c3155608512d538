//! Cost model for TiReX, the tiled regular-expression matching
//! architecture (§IV-D, Figs. 6–7, Table II).
//!
//! Explored parameters: `NCLUSTER` (internal core parallelism — the paper
//! merges the two datapath parameters into this one), `STACK_SIZE` (the
//! control unit's context-switch stack), `IMEM_SIZE` and `DMEM_SIZE`
//! (instruction/data memories). All sizes are explored as powers of two.
//!
//! Calibration targets from the paper: similar configurations reach
//! ~550 MHz on the 16 nm ZU3EG but only ~190 MHz on the 28 nm XC7K70T —
//! that gap comes from the per-device [`dovado_fpga::TimingModel`], not
//! from anything TiReX-specific here.

use crate::archmodel::{starts_with_ci, ArchModel, ElabContext};
use crate::error::EdaResult;
use crate::netlist::Netlist;
use dovado_fpga::{ResourceKind, ResourceSet};
use dovado_hdl::clog2;

/// TiReX architecture model.
#[derive(Debug, Default)]
pub struct TirexModel;

impl ArchModel for TirexModel {
    fn name(&self) -> &str {
        "tirex"
    }

    fn matches(&self, module_name: &str) -> bool {
        starts_with_ci(module_name, "tirex")
    }

    fn elaborate(&self, ctx: &ElabContext<'_>) -> EdaResult<Netlist> {
        let nclusters = ctx.positive_param("NCLUSTER")? as u64;
        let stack = ctx.positive_param("STACK_SIZE")? as u64;
        let imem = ctx.positive_param("IMEM_SIZE")? as u64;
        let dmem = ctx.positive_param("DMEM_SIZE")? as u64;

        // Each cluster is a matching engine: character comparators, an
        // active-state scoreboard and instruction decode.
        let cluster_luts = 1_650u64;
        let cluster_regs = 980u64;

        // The stack is small and maps to distributed RAM (LUTRAM -> LUTs).
        let stack_luts = stack * 3 + 12;
        let stack_regs = 2 * clog2(stack.max(2)) as u64;

        // Memories in "instruction/data units" of 512 entries × 64 bit
        // (so IMEM_SIZE = 2^3 units -> 8 × 32 Kb ≈ 8 BRAM tiles on the
        // ZU3EG plot's scale).
        let unit_bits = 512 * 64u64;
        let brams = (imem * unit_bits).div_ceil(36 * 1024) + (dmem * unit_bits).div_ceil(36 * 1024);

        let ctrl_luts = 420 + 16 * clog2(imem.max(2)) as u64 + 16 * clog2(dmem.max(2)) as u64;

        let luts = nclusters * cluster_luts + stack_luts + ctrl_luts;
        let regs = nclusters * cluster_regs + stack_regs + 260;

        // Critical path: instruction dispatch across clusters; the dispatch
        // crossbar deepens logarithmically with cluster count. The stack
        // and the memories sit behind registered interfaces, so their sizes
        // do not move the path systematically — measured Fmax differences
        // between stack/memory configurations come from placement jitter,
        // which is exactly what lets Table II's mixed configurations
        // coexist on the measured non-dominated front.
        let levels = 6 + clog2(nclusters.max(2));

        let mut nl = Netlist::empty(&ctx.module.name);
        nl.cells = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, luts),
            (ResourceKind::Register, regs),
            (ResourceKind::Bram, brams),
            (ResourceKind::Carry, 8 * nclusters),
        ]);
        nl.logic_levels = levels;
        nl.carry_bits = 16;
        nl.fanout_cost = 0.8 + nclusters as f64 * 0.25;
        nl.crit_through_bram = false;
        nl.crit_path =
            format!("dispatch xbar ({nclusters} cluster(s)) -> match engine -> scoreboard we");
        Ok(nl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archmodel::bind_parameters;
    use crate::models::testutil::module_from;
    use dovado_fpga::Catalog;
    use dovado_hdl::Language;
    use std::collections::BTreeMap;

    const SRC: &str = r#"
entity tirex_top is
  generic (
    NCLUSTER   : natural := 1;
    STACK_SIZE : natural := 16;
    IMEM_SIZE  : natural := 8;
    DMEM_SIZE  : natural := 8
  );
  port ( clk : in std_logic );
end entity tirex_top;
"#;

    fn elab(n: i64, s: i64, i: i64, d: i64) -> Netlist {
        let m = module_from(Language::Vhdl, SRC);
        let part = Catalog::builtin().resolve("xczu3eg").unwrap().clone();
        let mut ov = BTreeMap::new();
        ov.insert("NCLUSTER".to_string(), n);
        ov.insert("STACK_SIZE".to_string(), s);
        ov.insert("IMEM_SIZE".to_string(), i);
        ov.insert("DMEM_SIZE".to_string(), d);
        let params = bind_parameters(&m, &ov).unwrap();
        let ctx = ElabContext {
            module: &m,
            params: &params,
            part: &part,
        };
        TirexModel.elaborate(&ctx).unwrap()
    }

    #[test]
    fn luts_scale_with_clusters() {
        let one = elab(1, 16, 8, 8);
        let four = elab(4, 16, 8, 8);
        assert!(four.luts() > 3 * one.luts() / 2);
        assert!(four.registers() > one.registers());
    }

    #[test]
    fn stack_contributes_lutram_not_bram() {
        let small = elab(1, 1, 8, 8);
        let big = elab(1, 256, 8, 8);
        assert!(big.luts() > small.luts());
        assert_eq!(big.brams(), small.brams());
    }

    #[test]
    fn memories_drive_bram() {
        assert!(elab(1, 16, 16, 8).brams() > elab(1, 16, 8, 8).brams());
        assert!(elab(1, 16, 8, 16).brams() > elab(1, 16, 8, 8).brams());
    }

    #[test]
    fn depth_grows_with_clusters_only() {
        assert!(elab(8, 16, 8, 8).logic_levels > elab(1, 16, 8, 8).logic_levels);
        // Stack and memory sizes are behind registered interfaces.
        assert_eq!(
            elab(1, 256, 8, 8).logic_levels,
            elab(1, 1, 8, 8).logic_levels
        );
        assert_eq!(
            elab(1, 16, 16, 16).logic_levels,
            elab(1, 16, 8, 8).logic_levels
        );
    }

    #[test]
    fn rejects_missing_parameters() {
        let src = "entity tirex_top is generic (NCLUSTER : natural := 0); port (clk : in std_logic); end entity;";
        let m = module_from(Language::Vhdl, src);
        let part = Catalog::builtin().resolve("xczu3eg").unwrap().clone();
        let params = bind_parameters(&m, &BTreeMap::new()).unwrap();
        let ctx = ElabContext {
            module: &m,
            params: &params,
            part: &part,
        };
        assert!(TirexModel.elaborate(&ctx).is_err());
    }

    #[test]
    fn name_matching() {
        assert!(TirexModel.matches("tirex_top"));
        assert!(TirexModel.matches("TiReX"));
        assert!(!TirexModel.matches("neorv32_top"));
    }
}
