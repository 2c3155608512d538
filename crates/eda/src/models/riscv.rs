//! Cost models for the two RISC-V cores used in the evaluation.
//!
//! * [`Neorv32Model`] — the VHDL Neorv32 (§IV-C, Fig. 5). The explored
//!   parameters are the internal instruction/data memory sizes in **bytes**;
//!   the core logic itself is unaffected, so LUT/FF/frequency stay nearly
//!   flat while BRAM steps with `ceil(size / 36 Kb)` — reproducing the
//!   figure's "sensible change in BRAM occupation while leaving almost
//!   unchanged the other metrics" between 2^14 and 2^15.
//! * [`Cv32e40pModel`] — the cv32e40p core top (§IV-A names the project;
//!   the experiment itself targets its FIFO submodule, handled by
//!   [`crate::models::fifo`]). Included so whole-core evaluations complete.

use crate::archmodel::{contains_ci, starts_with_ci, ArchModel, ElabContext};
use crate::error::EdaResult;
use crate::netlist::Netlist;
use dovado_fpga::{ResourceKind, ResourceSet};
/// Bits per 36 Kb BRAM tile.
const BRAM_BITS: u64 = 36 * 1024;

/// Neorv32 core + internal memories.
#[derive(Debug, Default)]
pub struct Neorv32Model;

impl ArchModel for Neorv32Model {
    fn name(&self) -> &str {
        "neorv32"
    }

    fn matches(&self, module_name: &str) -> bool {
        starts_with_ci(module_name, "neorv32")
    }

    fn elaborate(&self, ctx: &ElabContext<'_>) -> EdaResult<Netlist> {
        let imem_bytes = ctx.positive_param("MEM_INT_IMEM_SIZE")? as u64;
        let dmem_bytes = ctx.positive_param("MEM_INT_DMEM_SIZE")? as u64;
        // Optional feature switches (booleans as 0/1 integers).
        let with_mul = ctx.param_or("CPU_EXTENSION_RISCV_M", 1) != 0;
        let with_c = ctx.param_or("CPU_EXTENSION_RISCV_C", 1) != 0;

        // Memory inference is device-aware: on URAM-bearing UltraScale+
        // parts, memories of 64 KiB and up map to 288 Kb UltraRAM blocks
        // (the resource the paper notes is "device-dependent and reported
        // only if present", §III-A4); everything else lands in 36 Kb BRAM.
        const URAM_BITS: u64 = 288 * 1024;
        const URAM_MIN_BYTES: u64 = 64 * 1024;
        let mut urams = 0u64;
        let mut mem_brams = |bytes: u64| -> u64 {
            if ctx.part.has_uram() && bytes >= URAM_MIN_BYTES {
                urams += (bytes * 8).div_ceil(URAM_BITS);
                0
            } else {
                (bytes * 8).div_ceil(BRAM_BITS)
            }
        };
        let imem_brams = mem_brams(imem_bytes);
        let dmem_brams = mem_brams(dmem_bytes);

        // 4-stage in-order core: datapath + CSR file + bus switch. Memory
        // sizing does not touch the core logic at all — the address buses
        // are full-width regardless (this is what makes Fig. 5's LUT/FF
        // series flat while BRAM steps).
        let mut luts: u64 = 2350;
        let mut regs: u64 = 1680;
        if with_mul {
            luts += 320;
            regs += 96;
        }
        if with_c {
            luts += 190;
            regs += 24;
        }

        let mut nl = Netlist::empty(&ctx.module.name);
        nl.cells = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, luts),
            (ResourceKind::Register, regs),
            (ResourceKind::Bram, imem_brams + dmem_brams),
            (ResourceKind::Uram, urams),
            (ResourceKind::Dsp, if with_mul { 4 } else { 0 }),
            (ResourceKind::Carry, 24),
        ]);
        // ALU + forwarding is the critical loop; memory size does not touch
        // it (placement jitter alone differentiates the measured Fmax of
        // different memory configurations, as in the paper's Fig. 5).
        nl.logic_levels = 8;
        nl.carry_bits = 32;
        nl.fanout_cost = 1.2;
        nl.crit_through_bram = true;
        nl.crit_path = "imem BRAM dout -> decode -> ALU -> regfile we".into();
        Ok(nl)
    }
}

/// cv32e40p core (whole-core evaluations).
#[derive(Debug, Default)]
pub struct Cv32e40pModel;

impl ArchModel for Cv32e40pModel {
    fn name(&self) -> &str {
        "cv32e40p-core"
    }

    fn matches(&self, module_name: &str) -> bool {
        starts_with_ci(module_name, "cv32e40p") && !contains_ci(module_name, "fifo")
    }

    fn elaborate(&self, ctx: &ElabContext<'_>) -> EdaResult<Netlist> {
        let fpu = ctx.param_or("FPU", 0) != 0;
        let pulp = ctx.param_or("PULP_XPULP", 0) != 0;

        let mut luts: u64 = 7_900;
        let mut regs: u64 = 3_400;
        let mut dsps: u64 = 6;
        if fpu {
            luts += 6_200;
            regs += 2_100;
            dsps += 8;
        }
        if pulp {
            luts += 2_400;
            regs += 700;
        }

        let mut nl = Netlist::empty(&ctx.module.name);
        nl.cells = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, luts),
            (ResourceKind::Register, regs),
            (ResourceKind::Dsp, dsps),
            (ResourceKind::Carry, 40),
        ]);
        nl.logic_levels = if fpu { 11 } else { 9 };
        nl.carry_bits = 32;
        nl.fanout_cost = 1.6;
        nl.crit_through_dsp = true;
        nl.crit_path = "operand fwd mux -> mult partial product -> writeback".into();
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

    const NEORV_SRC: &str = r#"
entity neorv32_top is
  generic (
    MEM_INT_IMEM_SIZE : natural := 16384;
    MEM_INT_DMEM_SIZE : natural := 8192
  );
  port ( clk_i : in std_logic );
end entity neorv32_top;
"#;

    fn elab_neorv(imem: i64, dmem: i64) -> Netlist {
        let m = module_from(Language::Vhdl, NEORV_SRC);
        let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let mut ov = BTreeMap::new();
        ov.insert("MEM_INT_IMEM_SIZE".to_string(), imem);
        ov.insert("MEM_INT_DMEM_SIZE".to_string(), dmem);
        let params = bind_parameters(&m, &ov).unwrap();
        let ctx = ElabContext {
            module: &m,
            params: &params,
            part: &part,
        };
        Neorv32Model.elaborate(&ctx).unwrap()
    }

    #[test]
    fn bram_steps_at_power_of_two_sizes() {
        // The paper's headline observation: 2^14 -> 2^15 imem doubles BRAM.
        let small = elab_neorv(1 << 14, 1 << 13);
        let big = elab_neorv(1 << 15, 1 << 15);
        assert!(big.brams() > small.brams());
        assert_eq!(small.brams(), 4 + 2);
        assert_eq!(big.brams(), 8 + 8);
    }

    #[test]
    fn luts_nearly_flat_across_memory_sizes() {
        let a = elab_neorv(1 << 13, 1 << 13);
        let b = elab_neorv(1 << 16, 1 << 16);
        let rel = (b.luts() as f64 - a.luts() as f64) / a.luts() as f64;
        assert!(rel.abs() < 0.02, "LUTs moved {rel} with memory size");
    }

    #[test]
    fn registers_flat_across_memory_sizes() {
        assert_eq!(
            elab_neorv(1 << 13, 1 << 13).registers(),
            elab_neorv(1 << 16, 1 << 16).registers()
        );
    }

    #[test]
    fn uram_inferred_only_on_uram_devices() {
        let m = module_from(Language::Vhdl, NEORV_SRC);
        let mut ov = BTreeMap::new();
        ov.insert("MEM_INT_IMEM_SIZE".to_string(), 1i64 << 17); // 128 KiB
        ov.insert("MEM_INT_DMEM_SIZE".to_string(), 8192i64);
        let params = bind_parameters(&m, &ov).unwrap();
        // URAM-bearing Kintex UltraScale+ part: big imem goes to URAM.
        let ku5p = Catalog::builtin().resolve("xcku5p").unwrap().clone();
        let nl = Neorv32Model
            .elaborate(&ElabContext {
                module: &m,
                params: &params,
                part: &ku5p,
            })
            .unwrap();
        assert!(nl.cells.get(dovado_fpga::ResourceKind::Uram) > 0);
        // dmem (8 KiB) still lands in BRAM.
        assert!(nl.brams() > 0);
        // On the 7-series part (no URAM) everything is BRAM.
        let k7 = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let nl7 = Neorv32Model
            .elaborate(&ElabContext {
                module: &m,
                params: &params,
                part: &k7,
            })
            .unwrap();
        assert_eq!(nl7.cells.get(dovado_fpga::ResourceKind::Uram), 0);
        assert!(nl7.brams() > nl.brams());
    }

    #[test]
    fn extensions_cost_resources() {
        let m = module_from(Language::Vhdl, NEORV_SRC);
        let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let mut with = BTreeMap::new();
        with.insert("MEM_INT_IMEM_SIZE".to_string(), 16384i64);
        with.insert("MEM_INT_DMEM_SIZE".to_string(), 8192i64);
        with.insert("CPU_EXTENSION_RISCV_M".to_string(), 1i64);
        let mut without = with.clone();
        without.insert("CPU_EXTENSION_RISCV_M".to_string(), 0i64);
        let e = |ov: &BTreeMap<String, i64>| {
            let params = bind_parameters(&m, ov).unwrap();
            Neorv32Model
                .elaborate(&ElabContext {
                    module: &m,
                    params: &params,
                    part: &part,
                })
                .unwrap()
        };
        assert!(e(&with).luts() > e(&without).luts());
        assert!(e(&with).dsps() > e(&without).dsps());
    }

    #[test]
    fn cv32e40p_fpu_costs() {
        let src = "module cv32e40p_core #(parameter FPU = 0, parameter PULP_XPULP = 0)(input logic clk_i); endmodule";
        let m = module_from(Language::Verilog, src);
        let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let e = |fpu: i64| {
            let mut ov = BTreeMap::new();
            ov.insert("FPU".to_string(), fpu);
            let params = bind_parameters(&m, &ov).unwrap();
            Cv32e40pModel
                .elaborate(&ElabContext {
                    module: &m,
                    params: &params,
                    part: &part,
                })
                .unwrap()
        };
        assert!(e(1).luts() > e(0).luts());
        assert!(e(1).logic_levels > e(0).logic_levels);
    }

    #[test]
    fn model_name_matching() {
        assert!(Neorv32Model.matches("neorv32_top"));
        assert!(Neorv32Model.matches("NEORV32"));
        assert!(!Neorv32Model.matches("cv32e40p_core"));
        assert!(Cv32e40pModel.matches("cv32e40p_core"));
        assert!(!Cv32e40pModel.matches("cv32e40p_fifo"));
    }
}
