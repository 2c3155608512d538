//! The boxing (sandboxing) step — the paper's Listing 1.
//!
//! Boxing wraps the module under evaluation in a minimal top-level entity so
//! that (a) the tool cannot simplify away the module's I/O, enforced with a
//! `DONT_TOUCH` attribute on the instance, (b) the FPGA implementation
//! phase never hits pin overflow (the box exposes a single clock pin), and
//! (c) parameterization has a single application point: the box's generic/
//! parameter map carries the design point (§III-A2).

use crate::error::{DovadoError, DovadoResult};
use crate::point::DesignPoint;
use dovado_hdl::{Language, ModuleInterface};
use std::fmt::Write as _;

/// A generated box wrapper.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxedDesign {
    /// Generated source text.
    pub source: String,
    /// Language of the generated source (matches the target module's).
    pub language: Language,
    /// Name of the generated top module (`box`).
    pub top: String,
    /// The box's external clock port (`clk`).
    pub clock_port: String,
}

/// The fixed instance label carrying the `DONT_TOUCH` attribute.
pub const BOX_INSTANCE: &str = "BOXED";
/// The generated top-level name.
pub const BOX_TOP: &str = "box";
/// The box's clock pin.
pub const BOX_CLOCK: &str = "clk";

/// The file name of the box for a module written in `language` (the box
/// is written in the module's language).
pub fn box_file_name(language: Language) -> String {
    let extension = match language {
        Language::Vhdl => "vhd",
        Language::Verilog => "v",
        Language::SystemVerilog => "sv",
    };
    format!("{BOX_TOP}.{extension}")
}

/// Generates the box for `module` with the design point applied as the
/// generic/parameter map.
///
/// Every point parameter must name a free (non-local) parameter of the
/// module; the module must have a detectable clock port.
pub fn generate_box(module: &ModuleInterface, point: &DesignPoint) -> DovadoResult<BoxedDesign> {
    for name in point.names() {
        match module.parameter(name) {
            None => {
                return Err(DovadoError::Config(format!(
                    "module `{}` has no parameter `{name}`",
                    module.name
                )))
            }
            Some(p) if p.local => {
                return Err(DovadoError::Config(format!(
                    "parameter `{name}` of `{}` is a localparam and cannot be explored",
                    module.name
                )))
            }
            Some(_) => {}
        }
    }
    let clock = module
        .clock_port()
        .ok_or_else(|| DovadoError::NoClock(module.name.clone()))?
        .name
        .clone();

    match module.language {
        Language::Vhdl => Ok(vhdl_box(module, point, &clock)),
        Language::Verilog | Language::SystemVerilog => Ok(verilog_box(module, point, &clock)),
    }
}

fn vhdl_box(module: &ModuleInterface, point: &DesignPoint, clock: &str) -> BoxedDesign {
    let mut s = String::new();
    let _ = writeln!(s, "-- Dovado box for `{}` (auto-generated)", module.name);
    let _ = writeln!(s, "library ieee;");
    let _ = writeln!(s, "use ieee.std_logic_1164.all;");
    let _ = writeln!(s);
    let _ = writeln!(s, "entity {BOX_TOP} is");
    let _ = writeln!(s, "  port (");
    let _ = writeln!(s, "    {BOX_CLOCK} : in std_logic");
    let _ = writeln!(s, "  );");
    let _ = writeln!(s, "end entity {BOX_TOP};");
    let _ = writeln!(s);
    let _ = writeln!(s, "architecture box_arch of {BOX_TOP} is");
    let _ = writeln!(s, "  attribute DONT_TOUCH : string;");
    let _ = writeln!(
        s,
        "  attribute DONT_TOUCH of {BOX_INSTANCE} : label is \"TRUE\";"
    );
    let _ = writeln!(s, "begin");
    let _ = writeln!(s, "  {BOX_INSTANCE}: entity work.{}", module.name);
    if !point.is_empty() {
        let _ = writeln!(s, "    generic map (");
        for (i, (n, v)) in point.names().iter().zip(point.values()).enumerate() {
            let comma = if i + 1 < point.len() { "," } else { "" };
            let _ = writeln!(s, "      {n} => {v}{comma}");
        }
        let _ = writeln!(s, "    )");
    }
    let _ = writeln!(s, "    port map (");
    let _ = writeln!(s, "      {clock} => {BOX_CLOCK}");
    let _ = writeln!(s, "    );");
    let _ = writeln!(s, "end architecture box_arch;");
    BoxedDesign {
        source: s,
        language: Language::Vhdl,
        top: BOX_TOP.to_string(),
        clock_port: BOX_CLOCK.to_string(),
    }
}

fn verilog_box(module: &ModuleInterface, point: &DesignPoint, clock: &str) -> BoxedDesign {
    let mut s = String::new();
    let _ = writeln!(s, "// Dovado box for `{}` (auto-generated)", module.name);
    let _ = writeln!(s, "module {BOX_TOP} (");
    let _ = writeln!(s, "    input wire {BOX_CLOCK}");
    let _ = writeln!(s, ");");
    let _ = writeln!(s, "  (* DONT_TOUCH = \"TRUE\" *)");
    if point.is_empty() {
        let _ = writeln!(s, "  {} {BOX_INSTANCE} (", module.name);
    } else {
        let _ = writeln!(s, "  {} #(", module.name);
        for (i, (n, v)) in point.names().iter().zip(point.values()).enumerate() {
            let comma = if i + 1 < point.len() { "," } else { "" };
            let _ = writeln!(s, "      .{n}({v}){comma}");
        }
        let _ = writeln!(s, "  ) {BOX_INSTANCE} (");
    }
    let _ = writeln!(s, "      .{clock}({BOX_CLOCK})");
    let _ = writeln!(s, "  );");
    let _ = writeln!(s, "endmodule");
    BoxedDesign {
        source: s,
        language: module.language,
        top: BOX_TOP.to_string(),
        clock_port: BOX_CLOCK.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_hdl::parse_source;

    fn sv_module() -> ModuleInterface {
        let (f, _) = parse_source(
            Language::Verilog,
            "module fifo_v3 #(parameter DEPTH = 8, parameter DATA_WIDTH = 32, localparam A = 1)\
             (input logic clk_i, input logic [DATA_WIDTH-1:0] data_i); endmodule",
        )
        .unwrap();
        f.modules[0].clone()
    }

    fn vhdl_module() -> ModuleInterface {
        let (f, _) = parse_source(
            Language::Vhdl,
            "entity neorv32_top is
               generic ( MEM_INT_IMEM_SIZE : natural := 16384 );
               port ( clk_i : in std_logic; gpio_o : out std_logic_vector(7 downto 0) );
             end entity neorv32_top;",
        )
        .unwrap();
        f.modules[0].clone()
    }

    #[test]
    fn sv_box_parses_back_with_generics() {
        let m = sv_module();
        let p = DesignPoint::from_pairs(&[("DEPTH", 64), ("DATA_WIDTH", 16)]);
        let b = generate_box(&m, &p).unwrap();
        assert_eq!(b.language, Language::SystemVerilog);
        let (f, d) = parse_source(Language::Verilog, &b.source).unwrap();
        assert!(!d.has_errors());
        assert_eq!(f.modules[0].name, "box");
        assert_eq!(f.instantiations.len(), 1);
        let i = &f.instantiations[0];
        assert_eq!(i.label, BOX_INSTANCE);
        assert_eq!(i.target, "fifo_v3");
        assert_eq!(i.generics.len(), 2);
        assert_eq!(i.generics[0].0, "DEPTH");
    }

    #[test]
    fn vhdl_box_parses_back_with_generics() {
        let m = vhdl_module();
        let p = DesignPoint::from_pairs(&[("MEM_INT_IMEM_SIZE", 32768)]);
        let b = generate_box(&m, &p).unwrap();
        assert_eq!(b.language, Language::Vhdl);
        assert!(b.source.contains("DONT_TOUCH"));
        let (f, d) = parse_source(Language::Vhdl, &b.source).unwrap();
        assert!(!d.has_errors());
        assert_eq!(f.modules[0].name, "box");
        assert_eq!(f.instantiations[0].target, "work.neorv32_top");
        assert_eq!(f.instantiations[0].generics.len(), 1);
    }

    #[test]
    fn box_exposes_single_clock_pin() {
        let m = sv_module();
        let b = generate_box(&m, &DesignPoint::from_pairs(&[])).unwrap();
        let (f, _) = parse_source(Language::Verilog, &b.source).unwrap();
        let ports = &f.modules[0].ports;
        assert_eq!(ports.len(), 1);
        assert_eq!(ports[0].name, "clk");
    }

    #[test]
    fn unknown_parameter_rejected() {
        let m = sv_module();
        let p = DesignPoint::from_pairs(&[("NOPE", 1)]);
        assert!(matches!(generate_box(&m, &p), Err(DovadoError::Config(_))));
    }

    #[test]
    fn localparam_rejected() {
        let m = sv_module();
        let p = DesignPoint::from_pairs(&[("A", 2)]);
        assert!(matches!(generate_box(&m, &p), Err(DovadoError::Config(_))));
    }

    #[test]
    fn clockless_module_rejected() {
        let (f, _) = parse_source(
            Language::Verilog,
            "module comb(input wire [7:0] a, output wire [7:0] y); endmodule",
        )
        .unwrap();
        // `a` is a multi-bit input; no single-bit input exists.
        let r = generate_box(&f.modules[0], &DesignPoint::from_pairs(&[]));
        assert!(matches!(r, Err(DovadoError::NoClock(_))));
    }

    #[test]
    fn empty_point_omits_generic_map() {
        let m = vhdl_module();
        let b = generate_box(&m, &DesignPoint::from_pairs(&[])).unwrap();
        assert!(!b.source.contains("generic map"));
    }
}
