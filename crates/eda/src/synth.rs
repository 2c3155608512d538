//! Simulated logic synthesis.
//!
//! Takes an elaborated [`Netlist`], applies the selected synthesis
//! directive's area/delay trade-off plus a small deterministic optimization
//! noise, and produces a [`SynthResult`] with the optimized netlist and a
//! simulated tool run time. Dovado exposes directive selection to the user
//! ("the user can specify the directives to guide the tool for a given
//! optimization metric", §III-A3); the directives here mirror Vivado's
//! `synth_design -directive` values.

use crate::netlist::Netlist;
use dovado_fpga::{Part, ResourceKind};
use std::fmt;
use std::str::FromStr;

/// Synthesis directive (Vivado `synth_design -directive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SynthDirective {
    /// Balanced default flow.
    #[default]
    Default,
    /// Favor tool run time over QoR.
    RuntimeOptimized,
    /// Aggressive area recovery.
    AreaOptimizedHigh,
    /// Moderate area recovery.
    AreaOptimizedMedium,
    /// Timing-driven synthesis.
    PerformanceOptimized,
    /// Spread logic to ease routing.
    AlternateRoutability,
    /// Avoid long carry chains.
    FewerCarryChains,
}

impl SynthDirective {
    /// Multiplier on LUT count.
    pub fn area_factor(&self) -> f64 {
        match self {
            SynthDirective::Default => 1.0,
            SynthDirective::RuntimeOptimized => 1.06,
            SynthDirective::AreaOptimizedHigh => 0.90,
            SynthDirective::AreaOptimizedMedium => 0.95,
            SynthDirective::PerformanceOptimized => 1.08,
            SynthDirective::AlternateRoutability => 1.04,
            SynthDirective::FewerCarryChains => 1.03,
        }
    }

    /// Additive adjustment to critical-path logic levels.
    pub fn level_delta(&self) -> i32 {
        match self {
            SynthDirective::Default => 0,
            SynthDirective::RuntimeOptimized => 1,
            SynthDirective::AreaOptimizedHigh => 1,
            SynthDirective::AreaOptimizedMedium => 0,
            SynthDirective::PerformanceOptimized => -1,
            SynthDirective::AlternateRoutability => 0,
            SynthDirective::FewerCarryChains => 0,
        }
    }

    /// Multiplier on tool run time.
    pub fn runtime_factor(&self) -> f64 {
        match self {
            SynthDirective::Default => 1.0,
            SynthDirective::RuntimeOptimized => 0.55,
            SynthDirective::AreaOptimizedHigh => 1.35,
            SynthDirective::AreaOptimizedMedium => 1.15,
            SynthDirective::PerformanceOptimized => 1.40,
            SynthDirective::AlternateRoutability => 1.20,
            SynthDirective::FewerCarryChains => 1.05,
        }
    }

    /// The Vivado spelling.
    pub fn as_vivado(&self) -> &'static str {
        match self {
            SynthDirective::Default => "Default",
            SynthDirective::RuntimeOptimized => "RuntimeOptimized",
            SynthDirective::AreaOptimizedHigh => "AreaOptimized_high",
            SynthDirective::AreaOptimizedMedium => "AreaOptimized_medium",
            SynthDirective::PerformanceOptimized => "PerformanceOptimized",
            SynthDirective::AlternateRoutability => "AlternateRoutability",
            SynthDirective::FewerCarryChains => "FewerCarryChains",
        }
    }
}

impl FromStr for SynthDirective {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let l = s.to_ascii_lowercase();
        Ok(match l.as_str() {
            "default" => SynthDirective::Default,
            "runtimeoptimized" => SynthDirective::RuntimeOptimized,
            "areaoptimized_high" => SynthDirective::AreaOptimizedHigh,
            "areaoptimized_medium" => SynthDirective::AreaOptimizedMedium,
            "performanceoptimized" => SynthDirective::PerformanceOptimized,
            "alternateroutability" => SynthDirective::AlternateRoutability,
            "fewercarrychains" => SynthDirective::FewerCarryChains,
            _ => return Err(format!("unknown synth directive `{s}`")),
        })
    }
}

impl fmt::Display for SynthDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_vivado())
    }
}

/// Output of the synthesis engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthResult {
    /// Optimized netlist.
    pub netlist: Netlist,
    /// Simulated tool run time in seconds.
    pub runtime_s: f64,
    /// Directive used.
    pub directive: SynthDirective,
}

/// Simulated run time of a from-scratch synthesis, in seconds.
pub fn synth_runtime_s(cells_total: u64, directive: SynthDirective) -> f64 {
    (14.0 + 0.012 * cells_total as f64) * directive.runtime_factor()
}

/// Runs synthesis on an elaborated netlist.
///
/// `seed` feeds the deterministic optimization noise; the same
/// (netlist, part, directive, seed) quadruple always yields the same result.
pub fn synthesize(
    netlist: &Netlist,
    part: &Part,
    directive: SynthDirective,
    seed: u64,
) -> SynthResult {
    let mut out = netlist.clone();

    // Synthesis is deterministic for fixed inputs (as the real tool is):
    // resource counts move only with the directive. The stochastic part of
    // the flow lives in place & route (see `place_route::place_and_route`,
    // which seeds its jitter from the same design identity). `part` and
    // `seed` stay in the signature: device-aware mapping heuristics and
    // seeded optimization are extension points the ablation benches probe.
    let _ = (part, seed);
    let luts = netlist.cells.get(ResourceKind::Lut) as f64 * directive.area_factor();
    out.cells
        .set(ResourceKind::Lut, luts.round().max(1.0) as u64);

    // Logic depth after technology mapping.
    let levels = netlist.logic_levels as i64 + directive.level_delta() as i64;
    out.logic_levels = levels.max(1) as u32;

    if directive == SynthDirective::FewerCarryChains {
        out.carry_bits = (out.carry_bits / 2).max(1);
        out.cells.set(
            ResourceKind::Lut,
            out.cells.get(ResourceKind::Lut) + out.carry_bits as u64,
        );
    }

    SynthResult {
        netlist: out,
        runtime_s: synth_runtime_s(netlist.cells.total(), directive),
        directive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_fpga::{Catalog, ResourceSet};

    fn netlist() -> Netlist {
        let mut n = Netlist::empty("dut");
        n.cells = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, 1000),
            (ResourceKind::Register, 800),
            (ResourceKind::Bram, 4),
        ]);
        n.logic_levels = 6;
        n.carry_bits = 16;
        n.design_hash = 0xDEADBEEF;
        n
    }

    fn part() -> Part {
        Catalog::builtin().resolve("xc7k70t").unwrap().clone()
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let a = synthesize(&netlist(), &part(), SynthDirective::Default, 42);
        let b = synthesize(&netlist(), &part(), SynthDirective::Default, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn seed_independent_resource_counts() {
        // Synthesis QoR is deterministic regardless of the seed; only the
        // place & route stage is seeded.
        let a = synthesize(&netlist(), &part(), SynthDirective::Default, 1);
        let b = synthesize(&netlist(), &part(), SynthDirective::Default, 2);
        assert_eq!(a.netlist, b.netlist);
    }

    #[test]
    fn area_directive_reduces_luts_adds_level() {
        let d = synthesize(&netlist(), &part(), SynthDirective::Default, 7);
        let a = synthesize(&netlist(), &part(), SynthDirective::AreaOptimizedHigh, 7);
        assert!(a.netlist.luts() < d.netlist.luts());
        assert_eq!(a.netlist.logic_levels, d.netlist.logic_levels + 1);
    }

    #[test]
    fn performance_directive_cuts_level_costs_area() {
        let d = synthesize(&netlist(), &part(), SynthDirective::Default, 7);
        let p = synthesize(&netlist(), &part(), SynthDirective::PerformanceOptimized, 7);
        assert!(p.netlist.luts() > d.netlist.luts());
        assert_eq!(p.netlist.logic_levels, d.netlist.logic_levels - 1);
    }

    #[test]
    fn runtime_scales_with_size_and_directive() {
        assert!(
            synth_runtime_s(100_000, SynthDirective::Default)
                > synth_runtime_s(1_000, SynthDirective::Default)
        );
        assert!(
            synth_runtime_s(10_000, SynthDirective::RuntimeOptimized)
                < synth_runtime_s(10_000, SynthDirective::Default)
        );
    }

    #[test]
    fn directive_roundtrip() {
        for d in [
            SynthDirective::Default,
            SynthDirective::RuntimeOptimized,
            SynthDirective::AreaOptimizedHigh,
            SynthDirective::AreaOptimizedMedium,
            SynthDirective::PerformanceOptimized,
            SynthDirective::AlternateRoutability,
            SynthDirective::FewerCarryChains,
        ] {
            assert_eq!(d.as_vivado().parse::<SynthDirective>().unwrap(), d);
        }
        assert!("nonsense".parse::<SynthDirective>().is_err());
    }

    #[test]
    fn fewer_carry_chains_halves_carry() {
        let r = synthesize(&netlist(), &part(), SynthDirective::FewerCarryChains, 3);
        assert_eq!(r.netlist.carry_bits, 8);
    }

    #[test]
    fn brams_never_touched_by_synthesis_noise() {
        let r = synthesize(&netlist(), &part(), SynthDirective::Default, 99);
        assert_eq!(r.netlist.brams(), 4);
    }
}
