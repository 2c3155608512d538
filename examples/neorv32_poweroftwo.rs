//! Neorv32 exploration (§IV-C), the paper's VHDL case study: memory sizes
//! restricted to powers of two — "to explore a larger parameter space
//! without considering meaningless parameter assignments".
//!
//! Also demonstrates Dovado's *exact exploration* mode: the restricted
//! space is small enough to enumerate, so the genetic front can be checked
//! against ground truth.
//!
//! Run with: `cargo run --example neorv32_poweroftwo`

use dovado::casestudies::neorv32;
use dovado::DseConfig;
use dovado_fpga::ResourceKind;
use dovado_moo::{Nsga2Config, Termination};

fn main() {
    let cs = neorv32::case_study();
    println!("case study : {}", cs.name);
    println!("module     : {} (VHDL)", cs.top);
    println!("space      : {}", cs.space);
    println!(
        "volume     : {} points (power-of-two restriction)",
        cs.space.volume()
    );
    println!();

    let tool = cs.dovado().expect("case study builds");

    // Genetic exploration.
    let report = tool
        .explore(&DseConfig {
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
        })
        .expect("exploration runs");
    println!("{}", report.summary());
    println!();
    println!("{}", report.configuration_table());
    println!("{}", report.metric_table());

    // Exact exploration over all 49 points.
    let exhaustive = tool
        .evaluate_exhaustive(64, true)
        .expect("49 points are enumerable");
    let ok = exhaustive.iter().filter(|r| r.result.is_ok()).count();
    println!(
        "exact exploration: {ok}/{} points evaluated",
        exhaustive.len()
    );

    // The Fig. 5 observation: between 2^14 and 2^15 the BRAM count jumps
    // while the other metrics barely move.
    let find = |imem: i64, dmem: i64| {
        exhaustive
            .iter()
            .find(|r| {
                r.point.get("MEM_INT_IMEM_SIZE") == Some(imem)
                    && r.point.get("MEM_INT_DMEM_SIZE") == Some(dmem)
            })
            .and_then(|r| r.result.as_ref().ok())
            .expect("point evaluated")
    };
    let mid = find(1 << 14, 1 << 13);
    let big = find(1 << 15, 1 << 15);
    println!();
    println!("the Fig. 5 step:");
    println!(
        "  imem=2^14, dmem=2^13 -> BRAM {:>2}, LUT {}, Fmax {:.1} MHz",
        mid.utilization.get(ResourceKind::Bram),
        mid.utilization.get(ResourceKind::Lut),
        mid.fmax_mhz
    );
    println!(
        "  imem=2^15, dmem=2^15 -> BRAM {:>2}, LUT {}, Fmax {:.1} MHz",
        big.utilization.get(ResourceKind::Bram),
        big.utilization.get(ResourceKind::Lut),
        big.fmax_mhz
    );
}
