//! Figure 5: Neorv32 exploration — instruction/data memory sizes as powers
//! of two on the XC7K70T, approximator disabled.
//!
//! The space is small enough (7 × 7 = 49 points) that the exact Pareto set
//! is also computed exhaustively (Dovado's "exact exploration" mode) and
//! compared against what NSGA-II found.

use dovado::casestudies::neorv32;
use dovado::DseConfig;
use dovado_bench::{banner, emit_front, print_report};
use dovado_moo::{non_dominated_indices, Individual, Nsga2Config, Termination};

fn main() {
    banner(
        "Figure 5 — Neorv32 DSE (XC7K70T, power-of-two memory sizes)",
        "objectives: LUT, FF, BRAM, Fmax; exhaustive ground truth on 49 points",
    );

    let cs = neorv32::case_study();
    let dovado = cs.dovado().expect("case study builds");

    let cfg = DseConfig {
        algorithm: Nsga2Config {
            pop_size: 14,
            seed: 5,
            ..Default::default()
        },
        termination: Termination::Generations(10),
        metrics: cs.metrics.clone(),
        surrogate: None,
        parallel: true,
        explorer: Default::default(),
        workers: None,
    };
    let report = dovado.explore(&cfg).expect("exploration succeeds");

    print_report(
        &report,
        "Non-dominated configurations",
        "Figure 5 — solution metrics",
    );
    emit_front(
        "fig5_neorv32.csv",
        &report,
        &[("IMEM", "MEM_INT_IMEM_SIZE"), ("DMEM", "MEM_INT_DMEM_SIZE")],
    );

    // --- exhaustive ground truth ---------------------------------------
    println!();
    println!("exhaustive cross-check (49 evaluations):");
    let all = dovado
        .evaluate_exhaustive(64, true)
        .expect("49-point space enumerable");
    let individuals: Vec<Individual> = all
        .iter()
        .filter_map(|pr| pr.result.as_ref().ok().map(|e| (pr, e)))
        .map(|(pr, e)| {
            let raw = cs.metrics.extract(e);
            let min = dovado_moo::to_min_space(&cs.metrics.objectives(), &raw);
            Individual::new(pr.point.values().to_vec(), raw, min)
        })
        .collect();
    let exact: Vec<&Individual> = non_dominated_indices(&individuals)
        .into_iter()
        .map(|i| &individuals[i])
        .collect();
    println!("  exact front size: {}", exact.len());
    println!(
        "  NSGA-II front size: {} (paper reports 5 solutions)",
        report.pareto.len()
    );

    // --- paper shape checks ---------------------------------------------
    println!();
    println!("shape checks against the paper:");
    // Find the largest-memory configuration on the front and a smaller one.
    let by_bram = |e: &dovado::ParetoEntry| e.values[2];
    let max_bram = report.pareto.iter().map(by_bram).fold(0.0, f64::max);
    let min_bram = report
        .pareto
        .iter()
        .map(by_bram)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  BRAM varies strongly across the front: {} ({:.0} vs {:.0})",
        if max_bram >= 2.0 * min_bram {
            "✓"
        } else {
            "✗"
        },
        max_bram,
        min_bram
    );
    let luts: Vec<f64> = report.pareto.iter().map(|e| e.values[0]).collect();
    let lut_rel = (luts.iter().cloned().fold(0.0, f64::max)
        - luts.iter().cloned().fold(f64::INFINITY, f64::min))
        / luts.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "  other metrics almost unchanged: {} (LUT relative spread {:.3})",
        if lut_rel < 0.05 { "✓" } else { "✗" },
        lut_rel
    );
}
