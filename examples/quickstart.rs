//! Quickstart: evaluate one design point of your own module, then run a
//! small design space exploration — the two flows of the paper's Fig. 1.
//!
//! Run with: `cargo run --example quickstart`

use dovado::{
    DesignPoint, Domain, Dovado, DseConfig, EvalConfig, HdlSource, Metric, MetricSet,
    ParameterSpace,
};
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Termination};

// Any parametrizable RTL module works; here a small SystemVerilog FIFO.
const MY_MODULE: &str = r#"
module fifo_v3 #(
    parameter int unsigned DEPTH      = 8,
    parameter int unsigned DATA_WIDTH = 32
) (
    input  logic                  clk_i,
    input  logic                  rst_ni,
    input  logic [DATA_WIDTH-1:0] data_i,
    input  logic                  push_i,
    output logic [DATA_WIDTH-1:0] data_o,
    input  logic                  pop_i
);
endmodule
"#;

fn main() {
    // 1. Declare the free parameters and their ranges.
    let space = ParameterSpace::new()
        .with("DEPTH", Domain::range(2, 512))
        .with("DATA_WIDTH", Domain::Explicit(vec![8, 16, 32, 64]));

    // 2. Point Dovado at the sources, the top module and the target part.
    let tool = Dovado::new(
        vec![HdlSource::new(
            "fifo.sv",
            Language::SystemVerilog,
            MY_MODULE,
        )],
        "fifo_v3",
        space,
        EvalConfig {
            part: "xc7k70tfbv676-1".into(),
            target_period_ns: 1.0, // 1 GHz probe, as in the paper
            ..Default::default()
        },
    )
    .expect("sources parse and the module exists");

    // 3. Design automation: evaluate a single point.
    let point = DesignPoint::from_pairs(&[("DEPTH", 64), ("DATA_WIDTH", 32)]);
    let eval = tool.evaluate_point(&point).expect("evaluation runs");
    println!("single-point evaluation of {point}:");
    println!("  LUTs      : {}", eval.utilization.get(ResourceKind::Lut));
    println!(
        "  registers : {}",
        eval.utilization.get(ResourceKind::Register)
    );
    println!(
        "  WNS       : {:.3} ns at a {:.3} ns target",
        eval.wns_ns, eval.period_ns
    );
    println!(
        "  Fmax      : {:.1} MHz  (Eq. 1: 1000/(T - WNS))",
        eval.fmax_mhz
    );
    println!("  tool time : {:.0} simulated seconds", eval.tool_time_s);
    println!();

    // 4. Design space exploration: find the non-dominated set.
    let report = tool
        .explore(&DseConfig {
            algorithm: Nsga2Config {
                pop_size: 16,
                seed: 1,
                ..Default::default()
            },
            termination: Termination::Generations(8),
            metrics: MetricSet::new(vec![
                Metric::Utilization(ResourceKind::Lut),
                Metric::Utilization(ResourceKind::Register),
                Metric::Fmax,
            ]),
            surrogate: None,
            parallel: true,
            explorer: Default::default(),
            workers: None,
        })
        .expect("exploration runs");

    println!("design space exploration:");
    println!("{report}");
}
