//! The fitness-approximation model at work (§III-C / §IV-A): pre-train the
//! Nadaraya-Watson estimator on a synthetic dataset, then watch the
//! control model route design points to the cache, the estimator, or the
//! tool — and compare an exploration with and without the approximation.
//!
//! Run with: `cargo run --example surrogate_accuracy`

use dovado::casestudies::cv32e40p;
use dovado::{DseConfig, SurrogateConfig};
use dovado_moo::{Nsga2Config, Termination};
use dovado_surrogate::ThresholdPolicy;

fn main() {
    let cs = cv32e40p::case_study();
    println!(
        "case study : {} (SystemVerilog FIFO, DEPTH over 500 values)",
        cs.name
    );
    println!();

    let algorithm = Nsga2Config {
        pop_size: 16,
        seed: 21,
        ..Default::default()
    };
    let termination = Termination::Generations(12);

    // Exploration WITHOUT the model: every fitness call pays for the tool.
    let plain = cs
        .dovado()
        .expect("case study builds")
        .explore(&DseConfig {
            algorithm: algorithm.clone(),
            termination: termination.clone(),
            metrics: cs.metrics.clone(),
            surrogate: None,
            parallel: false,
            explorer: Default::default(),
            workers: None,
        })
        .expect("exploration runs");

    // Exploration WITH the model: M = 100 pre-training samples (the paper's
    // default), adaptive threshold Γ, Gaussian kernel.
    let with = cs
        .dovado()
        .expect("case study builds")
        .explore(&DseConfig {
            algorithm,
            termination,
            metrics: cs.metrics.clone(),
            surrogate: Some(SurrogateConfig {
                policy: ThresholdPolicy::paper_default(),
                pretrain_samples: 100,
                ..Default::default()
            }),
            parallel: false,
            explorer: Default::default(),
            workers: None,
        })
        .expect("exploration runs");

    println!("without approximation: {}", plain.summary());
    println!("with approximation   : {}", with.summary());
    println!();

    let explore_tool_runs = with.tool_runs.saturating_sub(100);
    println!("during exploration itself (pre-training excluded):");
    println!(
        "  tool runs   : {} -> {}",
        plain.tool_runs, explore_tool_runs
    );
    println!("  estimates   : {}", with.estimates);
    println!("  cached hits : {}", with.cached_runs);
    let saved = 1.0 - explore_tool_runs as f64 / plain.tool_runs.max(1) as f64;
    println!("  tool-run reduction: {:.0} %", 100.0 * saved);
    println!();
    println!(
        "simulated tool time: {:.0} s -> {:.0} s (includes the one-off {} pre-training runs)",
        plain.tool_time_s, with.tool_time_s, 100
    );
    println!();
    println!("non-dominated sets:");
    println!("  without: {} point(s)", plain.pareto.len());
    println!("  with   : {} point(s)", with.pareto.len());
}
