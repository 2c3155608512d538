//! TiReX on two technologies (§IV-D): the same exploration on a 16 nm
//! Zynq UltraScale+ ZU3EG and a 28 nm Kintex-7 XC7K70T — "in this way, we
//! can analyze technology impacts … in resource usage and achievable
//! frequencies" (≈550 vs ≈190 MHz in the paper).
//!
//! Run with: `cargo run --example tirex_multiboard`

use dovado::casestudies::tirex;
use dovado::{DesignPoint, DseConfig};
use dovado_moo::{Nsga2Config, Termination};

fn main() {
    let cs = tirex::case_study();
    println!(
        "case study : {} (VHDL domain-specific architecture)",
        cs.name
    );
    println!("space      : {}", cs.space);
    println!();

    let devices = [
        ("xczu3eg-sbva484-1-e", "16 nm"),
        (tirex::XC7K_PART, "28 nm"),
    ];
    let mut best = Vec::new();

    for (part, node) in devices {
        let tool = cs.dovado_on(part).expect("case study builds");
        let report = tool
            .explore(&DseConfig {
                algorithm: Nsga2Config {
                    pop_size: 16,
                    seed: 11,
                    ..Default::default()
                },
                termination: Termination::Generations(8),
                metrics: cs.metrics.clone(),
                surrogate: None,
                parallel: true,
                explorer: Default::default(),
                workers: None,
            })
            .expect("exploration runs");
        println!("--- {part} ({node}) ---");
        println!("{}", report.summary());
        println!("{}", report.configuration_table());
        println!("{}", report.metric_table());
        let best_fmax = report
            .pareto
            .iter()
            .map(|e| e.values[3])
            .fold(0.0f64, f64::max);
        best.push((part, best_fmax));
    }

    println!("technology comparison (same architecture, same exploration):");
    for (part, fmax) in &best {
        println!("  {part:<24} best Fmax {fmax:.1} MHz");
    }
    let ratio = best[0].1 / best[1].1;
    println!("  16 nm / 28 nm frequency ratio: {ratio:.2}x");

    // And a like-for-like single configuration, as Table II invites.
    let p = DesignPoint::from_pairs(&[
        ("NCLUSTER", 1),
        ("STACK_SIZE", 16),
        ("IMEM_SIZE", 8),
        ("DMEM_SIZE", 8),
    ]);
    println!();
    println!("fixed configuration {p}:");
    for (part, _) in devices {
        let tool = cs.dovado_on(part).expect("case study builds");
        let e = tool.evaluate_point(&p).expect("evaluation runs");
        println!("  {part:<24} {:.1} MHz", e.fmax_mhz);
    }
}
