//! Power estimation (`report_power`).
//!
//! The DSE literature the paper builds on optimizes power alongside delay
//! and area (Karakaya's power-delay-area product, §II). Vivado exposes
//! power through `report_power`; this module provides the simulated
//! equivalent: a classic static + dynamic decomposition,
//! `P = P_static(device) + Σ_cells C_eff · α · f`, with process-dependent
//! coefficients so 16 nm parts draw less dynamic power per cell than 28 nm
//! ones.

use crate::netlist::Netlist;
use crate::report::push_fixed;
use dovado_fpga::{Part, ResourceKind};

/// Default toggle rate α (fraction of cells switching per cycle) — the
/// 12.5 % Vivado assumes when no simulation data is supplied.
pub const DEFAULT_TOGGLE_RATE: f64 = 0.125;

/// A power estimate in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// Device leakage (independent of the design).
    pub static_mw: f64,
    /// Switching power of the design at the given clock.
    pub dynamic_mw: f64,
}

impl PowerEstimate {
    /// Total power.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.dynamic_mw
    }
}

/// Per-cell effective switching energy coefficients, in µW per MHz at
/// α = 1 (scaled by the process factor below).
fn cell_coeff_uw_per_mhz(kind: ResourceKind) -> f64 {
    match kind {
        ResourceKind::Lut => 0.30,
        ResourceKind::Register => 0.10,
        ResourceKind::Bram => 15.0,
        ResourceKind::Uram => 30.0,
        ResourceKind::Dsp => 10.0,
        ResourceKind::Carry => 0.06,
        ResourceKind::Io => 6.0,
        ResourceKind::Bufg => 12.0,
    }
}

/// Process scaling of dynamic power (16 nm FinFET switches at a fraction
/// of the 28 nm planar energy).
fn process_factor(part: &Part) -> f64 {
    match part.timing.process_nm {
        nm if nm <= 16 => 0.45,
        _ => 1.0,
    }
}

/// Estimates power for a routed design at `clock_mhz`.
pub fn estimate_power(
    netlist: &Netlist,
    part: &Part,
    clock_mhz: f64,
    toggle: f64,
) -> PowerEstimate {
    let toggle = toggle.clamp(0.0, 1.0);
    let f = clock_mhz.max(0.0);

    // Leakage grows with device size; FinFET leaks less per cell.
    let device_cells = part.capacity.total() as f64;
    let leak_per_cell_uw = if part.timing.process_nm <= 16 {
        0.5
    } else {
        0.8
    };
    let static_mw = device_cells * leak_per_cell_uw / 1000.0;

    let mut dynamic_uw = 0.0;
    for kind in ResourceKind::ALL {
        let n = netlist.cells.get(kind) as f64;
        dynamic_uw += n * cell_coeff_uw_per_mhz(kind) * f * toggle;
    }
    // Clock tree: proportional to the number of sequential cells.
    dynamic_uw += netlist.registers() as f64 * 0.02 * f;

    PowerEstimate {
        static_mw,
        dynamic_mw: dynamic_uw * process_factor(part) / 1000.0,
    }
}

/// Renders a `report_power`-shaped text report.
pub fn write_power_report(module: &str, est: &PowerEstimate, clock_mhz: f64) -> String {
    let mut s = String::with_capacity(320 + module.len());
    s.push_str("Copyright 1986-2026 Dovado-RS simulated Vivado\n| Design       : ");
    s.push_str(module);
    s.push_str("\n\nPower Report (activity derived from constraints, toggle ");
    push_fixed(&mut s, DEFAULT_TOGGLE_RATE * 100.0, 0, 1);
    s.push_str(" %)\n| Total On-Chip Power (W)  | ");
    push_fixed(&mut s, est.total_mw() / 1000.0, 0, 4);
    s.push_str(" |\n| Dynamic (W)              | ");
    push_fixed(&mut s, est.dynamic_mw / 1000.0, 0, 4);
    s.push_str(" |\n| Device Static (W)        | ");
    push_fixed(&mut s, est.static_mw / 1000.0, 0, 4);
    s.push_str(" |\n| Clock (MHz)              | ");
    push_fixed(&mut s, clock_mhz, 0, 3);
    s.push_str(" |\n");
    s
}

/// Scrapes the total power (mW) back out of a power report.
pub fn parse_power_mw(text: &str) -> Option<f64> {
    for line in text.lines() {
        if line.contains("Total On-Chip Power") {
            let total = line.trim_matches('|').split('|').nth(1).map(str::trim);
            if let Some(v) = total.and_then(|s| s.parse::<f64>().ok()) {
                return Some(v * 1000.0);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dovado_fpga::{Catalog, ResourceSet};

    fn netlist(luts: u64, regs: u64, brams: u64) -> Netlist {
        let mut n = Netlist::empty("dut");
        n.cells = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, luts),
            (ResourceKind::Register, regs),
            (ResourceKind::Bram, brams),
        ]);
        n
    }

    fn k7() -> Part {
        Catalog::builtin().resolve("xc7k70t").unwrap().clone()
    }

    fn zu3() -> Part {
        Catalog::builtin().resolve("xczu3eg").unwrap().clone()
    }

    #[test]
    fn dynamic_power_scales_with_frequency_and_cells() {
        let n = netlist(1000, 1000, 4);
        let slow = estimate_power(&n, &k7(), 100.0, DEFAULT_TOGGLE_RATE);
        let fast = estimate_power(&n, &k7(), 200.0, DEFAULT_TOGGLE_RATE);
        assert!((fast.dynamic_mw / slow.dynamic_mw - 2.0).abs() < 1e-9);
        let big = estimate_power(&netlist(2000, 2000, 8), &k7(), 100.0, DEFAULT_TOGGLE_RATE);
        assert!(big.dynamic_mw > slow.dynamic_mw * 1.9);
    }

    #[test]
    fn static_power_is_design_independent() {
        let a = estimate_power(&netlist(10, 10, 0), &k7(), 100.0, 0.1);
        let b = estimate_power(&netlist(10_000, 10_000, 50), &k7(), 100.0, 0.1);
        assert_eq!(a.static_mw, b.static_mw);
    }

    #[test]
    fn finfet_draws_less_dynamic_per_cell() {
        let n = netlist(1000, 1000, 4);
        let p28 = estimate_power(&n, &k7(), 150.0, DEFAULT_TOGGLE_RATE);
        let p16 = estimate_power(&n, &zu3(), 150.0, DEFAULT_TOGGLE_RATE);
        assert!(p16.dynamic_mw < p28.dynamic_mw * 0.6);
    }

    #[test]
    fn zero_frequency_means_leakage_only() {
        let n = netlist(1000, 1000, 4);
        let p = estimate_power(&n, &k7(), 0.0, DEFAULT_TOGGLE_RATE);
        assert_eq!(p.dynamic_mw, 0.0);
        assert!(p.static_mw > 0.0);
    }

    #[test]
    fn toggle_rate_clamped() {
        let n = netlist(1000, 0, 0);
        let a = estimate_power(&n, &k7(), 100.0, 5.0);
        let b = estimate_power(&n, &k7(), 100.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn report_roundtrip() {
        let n = netlist(1500, 1200, 6);
        let est = estimate_power(&n, &k7(), 180.0, DEFAULT_TOGGLE_RATE);
        let text = write_power_report("dut", &est, 180.0);
        let back = parse_power_mw(&text).unwrap();
        assert!(
            (back - est.total_mw()).abs() < 0.5,
            "{back} vs {}",
            est.total_mw()
        );
        assert!(parse_power_mw("garbage").is_none());
    }

    #[test]
    fn magnitudes_plausible() {
        // A small design on the K7: total power in the 100 mW – 2 W window.
        let n = netlist(5000, 6000, 20);
        let p = estimate_power(&n, &k7(), 200.0, DEFAULT_TOGGLE_RATE);
        let total = p.total_mw();
        assert!((50.0..2000.0).contains(&total), "total {total} mW");
    }
}
