//! Figure 4 + Table I: Corundum completion-queue-manager exploration.
//!
//! DSE over `OP_TABLE_SIZE`, `QUEUE_INDEX_WIDTH`, `PIPELINE` on the
//! Kintex-7 XC7K70T, approximator disabled ("disabling the approximator
//! model to employ direct Vivado evaluations"), objectives LUT / Register /
//! BRAM / Fmax. Prints Table I (the non-dominated configurations) and the
//! Fig. 4 metric series, then checks the paper's shape claims: BRAM
//! constant across the front and frequency near 200 MHz.

use dovado::casestudies::corundum;
use dovado::DseConfig;
use dovado_bench::{banner, emit_front, print_report};
use dovado_moo::{Nsga2Config, Termination};

fn main() {
    banner(
        "Figure 4 / Table I — Corundum cpl_queue_manager DSE (XC7K70T)",
        "NSGA-II, approximator disabled, objectives: LUT, FF, BRAM, Fmax",
    );

    let cs = corundum::case_study();
    let dovado = cs.dovado().expect("case study builds");

    let cfg = DseConfig {
        algorithm: Nsga2Config {
            pop_size: 26,
            seed: 0xC0FFEE,
            ..Default::default()
        },
        termination: Termination::Generations(14),
        metrics: cs.metrics.clone(),
        surrogate: None,
        parallel: true,
        explorer: Default::default(),
        workers: None,
    };
    let report = dovado.explore(&cfg).expect("exploration succeeds");

    print_report(
        &report,
        "Table I — non-dominated configurations",
        "Figure 4 — solution trade-offs",
    );
    emit_front(
        "fig4_table1_corundum.csv",
        &report,
        &[
            ("OP_TABLE_SIZE", "OP_TABLE_SIZE"),
            ("QUEUE_INDEX_WIDTH", "QUEUE_INDEX_WIDTH"),
            ("PIPELINE", "PIPELINE"),
        ],
    );

    // --- paper shape checks -------------------------------------------
    println!();
    println!("shape checks against the paper:");
    let brams: Vec<f64> = report.pareto.iter().map(|e| e.values[2]).collect();
    let bram_constant = brams.windows(2).all(|w| (w[0] - w[1]).abs() < 0.5);
    println!(
        "  BRAM constant across the front: {} (values {:?})",
        if bram_constant { "✓" } else { "✗" },
        brams
    );
    let fmax: Vec<f64> = report.pareto.iter().map(|e| e.values[3]).collect();
    let near_200 = fmax.iter().all(|f| (120.0..340.0).contains(f));
    println!(
        "  frequency in the ~200 MHz region: {} (min {:.1}, max {:.1})",
        if near_200 { "✓" } else { "✗" },
        fmax.iter().cloned().fold(f64::INFINITY, f64::min),
        fmax.iter().cloned().fold(0.0, f64::max),
    );
    let luts: Vec<f64> = report.pareto.iter().map(|e| e.values[0]).collect();
    let lut_spread = luts.iter().cloned().fold(0.0, f64::max)
        - luts.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "  LUT/FF vary across configurations: {} (LUT spread {:.0})",
        if lut_spread > 0.0 { "✓" } else { "✗" },
        lut_spread
    );
    println!(
        "  front size: {} (paper reports 13 configurations)",
        report.pareto.len()
    );
}
