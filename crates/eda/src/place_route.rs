//! Simulated placement, routing and static timing analysis.
//!
//! Consumes a synthesized [`Netlist`] and the clock constraint, checks
//! device capacity, derives the routed critical-path delay from the part's
//! [`dovado_fpga::TimingModel`] (including congestion as a function of
//! utilization), and reports the worst negative slack Dovado extracts
//! (Eq. 1 of the paper: `Fmax = 1000 / (T − WNS)` with T and WNS in ns).

use crate::error::{EdaError, EdaResult};
use crate::hash::{combine, hash_str, unit_noise};
use crate::netlist::Netlist;
use dovado_fpga::Part;
use std::fmt;
use std::str::FromStr;

/// Implementation directive (Vivado `place_design`/`route_design`
/// directives, collapsed into one knob as Dovado's scripts do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ImplDirective {
    /// Balanced default.
    #[default]
    Default,
    /// Extra placement/routing effort.
    Explore,
    /// Pack for area.
    AreaExplore,
    /// Fastest turnaround, worst QoR.
    Quick,
}

impl ImplDirective {
    /// Multiplier on the routed critical-path delay.
    pub fn delay_factor(&self) -> f64 {
        match self {
            ImplDirective::Default => 1.0,
            ImplDirective::Explore => 0.94,
            ImplDirective::AreaExplore => 1.05,
            ImplDirective::Quick => 1.12,
        }
    }

    /// Multiplier on tool run time.
    pub fn runtime_factor(&self) -> f64 {
        match self {
            ImplDirective::Default => 1.0,
            ImplDirective::Explore => 1.9,
            ImplDirective::AreaExplore => 1.5,
            ImplDirective::Quick => 0.45,
        }
    }

    /// The Vivado spelling.
    pub fn as_vivado(&self) -> &'static str {
        match self {
            ImplDirective::Default => "Default",
            ImplDirective::Explore => "Explore",
            ImplDirective::AreaExplore => "AreaExplore",
            ImplDirective::Quick => "Quick",
        }
    }
}

impl FromStr for ImplDirective {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "default" => ImplDirective::Default,
            "explore" => ImplDirective::Explore,
            "areaexplore" => ImplDirective::AreaExplore,
            "quick" => ImplDirective::Quick,
            _ => return Err(format!("unknown implementation directive `{s}`")),
        })
    }
}

impl fmt::Display for ImplDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_vivado())
    }
}

/// Result of place + route + STA.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplResult {
    /// Final netlist (placement may re-pack a few LUTs).
    pub netlist: Netlist,
    /// Peak device utilization fraction.
    pub utilization: f64,
    /// Routed critical-path delay in ns.
    pub crit_delay_ns: f64,
    /// Worst negative slack against the constraint, in ns (negative when
    /// the constraint is violated).
    pub wns_ns: f64,
    /// Target clock period in ns.
    pub period_ns: f64,
    /// Simulated tool run time in seconds.
    pub runtime_s: f64,
}

impl ImplResult {
    /// Maximum achievable frequency in MHz, per the paper's Eq. 1
    /// (`1000 / (T − WNS)` — equivalently `1000 / crit_delay`).
    pub fn fmax_mhz(&self) -> f64 {
        1000.0 / (self.period_ns - self.wns_ns)
    }

    /// Whether timing closed at the constrained period.
    pub fn timing_met(&self) -> bool {
        self.wns_ns >= 0.0
    }
}

/// Simulated run time of a from-scratch implementation, in seconds.
pub fn impl_runtime_s(cells_total: u64, utilization: f64, directive: ImplDirective) -> f64 {
    (30.0 + 0.03 * cells_total as f64 * (1.0 + 2.0 * utilization)) * directive.runtime_factor()
}

/// Runs placement, routing, and timing analysis.
pub fn place_and_route(
    synthesized: &Netlist,
    part: &Part,
    period_ns: f64,
    directive: ImplDirective,
    seed: u64,
) -> EdaResult<ImplResult> {
    // Capacity check — the boxing step exists precisely so designs reach
    // this point without pin overflow, but oversized logic must still fail.
    let overflows = synthesized.cells.overflows(&part.capacity);
    if !overflows.is_empty() {
        let msg = overflows
            .iter()
            .map(|(k, by)| format!("{k} over by {by}"))
            .collect::<Vec<_>>()
            .join(", ");
        return Err(EdaError::ResourceOverflow(format!(
            "{} on {}: {msg}",
            synthesized.module, part.name
        )));
    }

    let utilization = synthesized.cells.peak_utilization(&part.capacity);
    let noise_seed = combine(combine(synthesized.design_hash, hash_str(&part.name)), seed);

    // Placement-dependent jitter on the routed delay (±4 %, the seed-to-
    // seed variance class real place & route shows on small designs).
    let jitter = 1.0 + 0.04 * unit_noise(combine(noise_seed, 11));

    let raw_delay = part.timing.path_delay(
        synthesized.logic_levels,
        synthesized.fanout_cost,
        synthesized.carry_bits,
        synthesized.crit_through_bram,
        synthesized.crit_through_dsp,
        utilization,
    );
    let crit_delay_ns = raw_delay * directive.delay_factor() * jitter;
    let wns_ns = period_ns - crit_delay_ns;

    // Placement re-packs a small number of LUTs into shared slices.
    let mut netlist = synthesized.clone();
    let repack = 1.0 - 0.015 * (1.0 + unit_noise(combine(noise_seed, 12))).abs();
    netlist.cells.set(
        dovado_fpga::ResourceKind::Lut,
        ((synthesized.luts() as f64) * repack).round().max(1.0) as u64,
    );

    Ok(ImplResult {
        netlist,
        utilization,
        crit_delay_ns,
        wns_ns,
        period_ns,
        runtime_s: impl_runtime_s(synthesized.cells.total(), utilization, directive),
    })
}

/// The critical-path delay (ns) [`estimate_timing`] reports for a
/// synthesized netlist.
pub(crate) fn estimated_delay_ns(synthesized: &Netlist, part: &Part) -> f64 {
    part.timing.path_delay(
        synthesized.logic_levels,
        synthesized.fanout_cost,
        synthesized.carry_bits,
        synthesized.crit_through_bram,
        synthesized.crit_through_dsp,
        0.0,
    ) * 0.92
}

/// Post-synthesis timing *estimate* (no placement yet): optimistic routing,
/// as Vivado's post-synth timing reports are.
pub fn estimate_timing(synthesized: &Netlist, part: &Part, period_ns: f64) -> ImplResult {
    let delay = estimated_delay_ns(synthesized, part);
    ImplResult {
        netlist: synthesized.clone(),
        utilization: synthesized.cells.peak_utilization(&part.capacity),
        crit_delay_ns: delay,
        wns_ns: period_ns - delay,
        period_ns,
        runtime_s: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_fpga::{Catalog, ResourceKind, ResourceSet};

    fn netlist(luts: u64, levels: u32) -> Netlist {
        let mut n = Netlist::empty("dut");
        n.cells =
            ResourceSet::from_pairs(&[(ResourceKind::Lut, luts), (ResourceKind::Register, luts)]);
        n.logic_levels = levels;
        n.fanout_cost = 1.0;
        n.design_hash = 77;
        n
    }

    fn k7() -> Part {
        Catalog::builtin().resolve("xc7k70t").unwrap().clone()
    }

    fn zu3() -> Part {
        Catalog::builtin().resolve("xczu3eg").unwrap().clone()
    }

    #[test]
    fn wns_negative_when_period_aggressive() {
        // 1 ns target (the paper's 1 GHz probe) on a 6-level K7 path.
        let r = place_and_route(&netlist(1000, 6), &k7(), 1.0, ImplDirective::Default, 1).unwrap();
        assert!(r.wns_ns < 0.0);
        assert!(!r.timing_met());
        let fmax = r.fmax_mhz();
        assert!(fmax > 120.0 && fmax < 300.0, "fmax {fmax}");
    }

    #[test]
    fn fmax_matches_eq1() {
        let r = place_and_route(&netlist(1000, 6), &k7(), 1.0, ImplDirective::Default, 1).unwrap();
        let expect = 1000.0 / r.crit_delay_ns;
        assert!((r.fmax_mhz() - expect).abs() < 1e-9);
    }

    #[test]
    fn ultrascale_is_substantially_faster() {
        let nk = place_and_route(&netlist(1000, 6), &k7(), 1.0, ImplDirective::Default, 1).unwrap();
        let nz =
            place_and_route(&netlist(1000, 6), &zu3(), 1.0, ImplDirective::Default, 1).unwrap();
        let ratio = nz.fmax_mhz() / nk.fmax_mhz();
        assert!(ratio > 2.0 && ratio < 4.0, "16nm/28nm ratio {ratio}");
    }

    #[test]
    fn utilization_slows_the_design() {
        let light =
            place_and_route(&netlist(1_000, 6), &k7(), 1.0, ImplDirective::Default, 1).unwrap();
        let heavy =
            place_and_route(&netlist(35_000, 6), &k7(), 1.0, ImplDirective::Default, 1).unwrap();
        assert!(heavy.utilization > light.utilization);
        assert!(heavy.crit_delay_ns > light.crit_delay_ns);
    }

    #[test]
    fn overflow_is_an_error() {
        let r = place_and_route(&netlist(100_000, 6), &k7(), 1.0, ImplDirective::Default, 1);
        assert!(matches!(r, Err(EdaError::ResourceOverflow(_))));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = place_and_route(&netlist(1000, 6), &k7(), 2.0, ImplDirective::Default, 5).unwrap();
        let b = place_and_route(&netlist(1000, 6), &k7(), 2.0, ImplDirective::Default, 5).unwrap();
        assert_eq!(a, b);
        let c = place_and_route(&netlist(1000, 6), &k7(), 2.0, ImplDirective::Default, 6).unwrap();
        assert_ne!(a.crit_delay_ns, c.crit_delay_ns);
    }

    #[test]
    fn explore_directive_improves_timing() {
        let d = place_and_route(&netlist(1000, 8), &k7(), 1.0, ImplDirective::Default, 5).unwrap();
        let e = place_and_route(&netlist(1000, 8), &k7(), 1.0, ImplDirective::Explore, 5).unwrap();
        assert!(e.crit_delay_ns < d.crit_delay_ns);
        assert!(
            impl_runtime_s(2000, 0.1, ImplDirective::Explore)
                > impl_runtime_s(2000, 0.1, ImplDirective::Default)
        );
    }

    #[test]
    fn timing_met_with_relaxed_period() {
        let r = place_and_route(&netlist(1000, 4), &k7(), 20.0, ImplDirective::Default, 5).unwrap();
        assert!(r.timing_met());
        assert!(r.wns_ns > 0.0);
    }

    #[test]
    fn estimate_is_optimistic() {
        let n = netlist(30_000, 6);
        let est = estimate_timing(&n, &k7(), 1.0);
        let real = place_and_route(&n, &k7(), 1.0, ImplDirective::Default, 5).unwrap();
        assert!(est.crit_delay_ns < real.crit_delay_ns);
    }

    #[test]
    fn directive_roundtrip() {
        for d in [
            ImplDirective::Default,
            ImplDirective::Explore,
            ImplDirective::AreaExplore,
            ImplDirective::Quick,
        ] {
            assert_eq!(d.as_vivado().parse::<ImplDirective>().unwrap(), d);
        }
    }
}
