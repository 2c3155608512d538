//! Corundum completion-queue-manager exploration (§IV-B), the paper's
//! Verilog case study: direct tool evaluations (approximator disabled),
//! LUT/FF/BRAM/Fmax objectives, Kintex-7 target.
//!
//! Run with: `cargo run --example corundum_dse`

use dovado::casestudies::corundum;
use dovado::{point_label, DseConfig};
use dovado_moo::{Nsga2Config, Termination};

fn main() {
    let cs = corundum::case_study();
    println!("case study : {}", cs.name);
    println!("module     : {} (Verilog)", cs.top);
    println!("space      : {} ({} points)", cs.space, cs.space.volume());
    println!("part       : {}", cs.part);
    println!();

    let tool = cs.dovado().expect("case study builds");
    let report = tool
        .explore(&DseConfig {
            algorithm: Nsga2Config {
                pop_size: 20,
                seed: 7,
                ..Default::default()
            },
            termination: Termination::Generations(10),
            metrics: cs.metrics.clone(),
            surrogate: None, // "disabling the approximator model to employ
            // direct Vivado evaluations" (§IV-B)
            parallel: true,
            explorer: Default::default(),
            workers: None,
        })
        .expect("exploration runs");

    println!("{}", report.summary());
    println!();
    println!("{}", report.configuration_table());
    println!("{}", report.metric_table());

    // Walk the trade-offs the way a hardware developer would read Fig. 4.
    println!("reading the front:");
    for (i, e) in report.pareto.iter().enumerate() {
        println!(
            "  {}: {} -> {:.0} LUT, {:.0} FF, {:.0} BRAM, {:.1} MHz",
            point_label(i),
            e.point,
            e.values[0],
            e.values[1],
            e.values[2],
            e.values[3],
        );
    }
}
