//! Fault tolerance: run the same exploration under a seeded plan of
//! transient tool faults and watch retry/backoff make them invisible —
//! the Pareto front matches the fault-free run exactly.
//!
//! Run with: `cargo run --example fault_tolerance`

use dovado::{
    Domain, Dovado, DseConfig, EvalConfig, HdlSource, Metric, MetricSet, ParameterSpace,
    RetryPolicy,
};
use dovado_eda::FaultPlan;
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Termination};

const MY_MODULE: &str = r#"
module fifo_v3 #(
    parameter int unsigned DEPTH      = 8,
    parameter int unsigned DATA_WIDTH = 32
) (
    input  logic                  clk_i,
    input  logic [DATA_WIDTH-1:0] data_i,
    output logic [DATA_WIDTH-1:0] data_o
);
endmodule
"#;

fn space() -> ParameterSpace {
    ParameterSpace::new()
        .with("DEPTH", Domain::range(2, 512))
        .with("DATA_WIDTH", Domain::Explicit(vec![8, 16, 32, 64]))
}

fn tool(faults: FaultPlan) -> Dovado {
    Dovado::new(
        vec![HdlSource::new(
            "fifo.sv",
            Language::SystemVerilog,
            MY_MODULE,
        )],
        "fifo_v3",
        space(),
        EvalConfig {
            faults,
            retry: RetryPolicy {
                max_attempts: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("sources parse and the module exists")
}

fn explore(tool: &Dovado) -> dovado::DseReport {
    tool.explore(&DseConfig {
        algorithm: Nsga2Config {
            pop_size: 12,
            seed: 3,
            ..Default::default()
        },
        termination: Termination::Generations(6),
        metrics: MetricSet::new(vec![
            Metric::Utilization(ResourceKind::Lut),
            Metric::Utilization(ResourceKind::Register),
            Metric::Fmax,
        ]),
        surrogate: None,
        parallel: false,
        explorer: Default::default(),
        workers: None,
    })
    .expect("exploration runs")
}

fn main() {
    // A deterministic plan: roughly one in five tool attempts crashes,
    // times out, or corrupts its checkpoint.
    let plan = FaultPlan {
        seed: 0xDEAD,
        synth_crash: 0.08,
        route_timeout: 0.08,
        checkpoint_corrupt: 0.06,
        ..FaultPlan::default()
    };

    println!("=== fault-free run ===");
    let clean = explore(&tool(FaultPlan::none()));
    println!("{clean}");
    println!();

    println!("=== same exploration under injected faults ===");
    let faulty = explore(&tool(plan));
    println!("{faulty}");
    let log = faulty.flow_log(12);
    if !log.is_empty() {
        println!("flow events (failed/retried attempts):");
        print!("{log}");
    }
    println!();

    let same = clean.pareto.len() == faulty.pareto.len()
        && clean
            .pareto
            .iter()
            .zip(&faulty.pareto)
            .all(|(a, b)| a.point == b.point && a.values == b.values);
    println!(
        "Pareto fronts identical: {same} ({} retries absorbed {} transient faults, \
         {:.0} s of backoff charged to the ledger)",
        faulty.trace.retries, faulty.trace.transient_failures, faulty.trace.backoff_s
    );
}
