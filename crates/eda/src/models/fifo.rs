//! Cost model for register-based synchronous FIFOs (cv32e40p `fifo_v3`).
//!
//! The cv32e40p FIFO stores entries in flip-flops with a read-side
//! multiplexer, so:
//!
//! * registers grow linearly in `DEPTH × DATA_WIDTH` (plus pointers),
//! * LUTs are dominated by the `DEPTH`-to-1 read mux (≈ one LUT6 per
//!   3 mux inputs per data bit) plus pointer compare/increment logic,
//! * the critical path is the mux tree, whose depth grows with
//!   `log2(DEPTH)`.
//!
//! All three metric surfaces are smooth in `DEPTH`, which is exactly what
//! the paper's Fig. 3 experiment needs: "a module that provides enough
//! samples for accuracy assessment".

use crate::archmodel::{ends_with_ci, ArchModel, ElabContext};
use crate::error::EdaResult;
use crate::netlist::Netlist;
use dovado_fpga::{ResourceKind, ResourceSet};
use dovado_hdl::clog2;

/// FIFO architecture model.
#[derive(Debug, Default)]
pub struct FifoModel;

impl ArchModel for FifoModel {
    fn name(&self) -> &str {
        "cv32e40p-fifo"
    }

    fn matches(&self, module_name: &str) -> bool {
        ["fifo", "fifo_v3", "cv32e40p_fifo"]
            .iter()
            .any(|n| module_name.eq_ignore_ascii_case(n))
            || ends_with_ci(module_name, "_fifo")
    }

    fn elaborate(&self, ctx: &ElabContext<'_>) -> EdaResult<Netlist> {
        let depth = ctx.positive_param("DEPTH")? as u64;
        let width = ctx.param_or("DATA_WIDTH", 32).max(1) as u64;
        let fall_through = ctx.param_or("FALL_THROUGH", 0) != 0;

        let addr_w = clog2(depth.max(2)) as u64;

        // Storage flops + read/write pointers + status counter.
        let regs = width * depth + 2 * addr_w + (addr_w + 1) + 4;

        // Read mux: one LUT6 covers ~3 mux legs (data + 2 selects amortized);
        // pointer increment/compare logic; fall-through adds a bypass mux.
        let mux_luts = width * depth.div_ceil(3);
        let ctrl_luts = 6 * addr_w + 14;
        let bypass_luts = if fall_through { width / 2 + 4 } else { 0 };
        let luts = mux_luts + ctrl_luts + bypass_luts;

        // Mux tree depth: a LUT6 resolves ~2.5 select bits per level.
        let mux_levels = (addr_w as f64 / 2.5).ceil() as u32 + 2;
        let levels = if fall_through {
            mux_levels + 1
        } else {
            mux_levels
        };

        let mut nl = Netlist::empty(&ctx.module.name);
        nl.cells = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, luts),
            (ResourceKind::Register, regs),
            (ResourceKind::Carry, addr_w.div_ceil(4) + 1),
        ]);
        nl.logic_levels = levels.max(2);
        nl.carry_bits = addr_w as u32 + 1;
        // The write-enable fans out to every storage flop.
        nl.fanout_cost = (depth as f64 / 64.0).min(3.0);
        nl.crit_path =
            format!("rd_ptr_q[{addr_w}] -> read mux ({depth}:1, {width} bit) -> data_o reg");
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
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32,
    parameter FALL_THROUGH = 1'b0
)(input logic clk_i);
endmodule"#;

    fn elab(depth: i64) -> Netlist {
        let m = module_from(Language::Verilog, SRC);
        let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let mut ov = BTreeMap::new();
        ov.insert("DEPTH".to_string(), depth);
        let params = bind_parameters(&m, &ov).unwrap();
        let ctx = ElabContext {
            module: &m,
            params: &params,
            part: &part,
        };
        FifoModel.elaborate(&ctx).unwrap()
    }

    #[test]
    fn registers_scale_linearly_with_depth() {
        let a = elab(8);
        let b = elab(16);
        let delta = b.registers() as i64 - a.registers() as i64;
        // 8 extra entries × 32 bits plus pointer growth.
        assert!((256..=280).contains(&delta), "delta {delta}");
    }

    #[test]
    fn luts_grow_with_depth() {
        assert!(elab(64).luts() > elab(8).luts());
        assert!(elab(500).luts() > elab(64).luts());
    }

    #[test]
    fn no_bram_in_flop_fifo() {
        assert_eq!(elab(256).brams(), 0);
    }

    #[test]
    fn logic_levels_grow_logarithmically() {
        let l8 = elab(8).logic_levels;
        let l512 = elab(512).logic_levels;
        assert!(l512 > l8);
        assert!(l512 - l8 <= 4, "log growth expected, got {l8} -> {l512}");
    }

    #[test]
    fn fall_through_adds_bypass() {
        let m = module_from(Language::Verilog, SRC);
        let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let mut ov = BTreeMap::new();
        ov.insert("DEPTH".to_string(), 32i64);
        ov.insert("FALL_THROUGH".to_string(), 1i64);
        let params = bind_parameters(&m, &ov).unwrap();
        let ctx = ElabContext {
            module: &m,
            params: &params,
            part: &part,
        };
        let ft = FifoModel.elaborate(&ctx).unwrap();
        let plain = elab(32);
        assert!(ft.luts() > plain.luts());
        assert_eq!(ft.logic_levels, plain.logic_levels + 1);
    }

    #[test]
    fn invalid_depth_rejected() {
        let m = module_from(Language::Verilog, SRC);
        let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
        let mut ov = BTreeMap::new();
        ov.insert("DEPTH".to_string(), 0i64);
        let params = bind_parameters(&m, &ov).unwrap();
        let ctx = ElabContext {
            module: &m,
            params: &params,
            part: &part,
        };
        assert!(FifoModel.elaborate(&ctx).is_err());
    }

    #[test]
    fn matches_cv32e40p_names() {
        assert!(FifoModel.matches("fifo_v3"));
        assert!(FifoModel.matches("FIFO"));
        assert!(FifoModel.matches("prefetch_fifo"));
        assert!(!FifoModel.matches("queue_manager"));
    }

    #[test]
    fn surfaces_are_smooth_over_depth() {
        // Adjacent depths must produce nearby metric values — the surrogate
        // experiment depends on local continuity.
        let mut prev = elab(100);
        for d in (102..140).step_by(2) {
            let cur = elab(d);
            let lut_jump = (cur.luts() as f64 - prev.luts() as f64).abs() / prev.luts() as f64;
            assert!(lut_jump < 0.05, "LUT jump {lut_jump} at depth {d}");
            prev = cur;
        }
    }
}
