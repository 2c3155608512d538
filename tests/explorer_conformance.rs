//! The explorer conformance suite: every `--explorer` value must run
//! end-to-end through the one algorithm-agnostic driver and obey the
//! engine-wide determinism contract — a serial run, a `--jobs 2` run,
//! and a `--workers 2` fleet run produce bitwise-identical reports and
//! byte-identical observability traces.
//!
//! Like the crash harness, the suite runs on the simulated Vivado by
//! default and CI reruns it on the scripted mock via `DOVADO_BACKEND=mock`:
//! the invariants live above the `ToolBackend` boundary and must hold on
//! both.

use dovado::dse::Explorer;
use dovado::obs::jsonl_string;
use dovado::{
    Domain, Dovado, DseConfig, DseReport, EvalConfig, HdlSource, Metric, MetricSet, ParameterSpace,
};
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Termination};

const FIFO_SV: &str = r#"
module fifo_conf #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

/// A fresh tool over a 96-point space (volume > the auto exhaustive
/// shortcut, small enough for the exhaustive explorer's limit).
fn tool() -> Dovado {
    let space = ParameterSpace::new()
        .with(
            "DEPTH",
            Domain::Range {
                lo: 2,
                hi: 64,
                step: 2,
            },
        )
        .with("DATA_WIDTH", Domain::Explicit(vec![8, 16, 32]));
    let sources = vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)];
    let config = EvalConfig::default();
    if std::env::var("DOVADO_BACKEND").as_deref() == Ok("mock") {
        let backend = std::sync::Arc::new(dovado::MockBackend::new(config.seed));
        Dovado::with_backend(sources, "fifo_conf", space, config, backend).unwrap()
    } else {
        Dovado::new(sources, "fifo_conf", space, config).unwrap()
    }
}

fn cfg(explorer: Explorer) -> DseConfig {
    DseConfig {
        explorer,
        algorithm: Nsga2Config {
            pop_size: 8,
            seed: 7,
            ..Default::default()
        },
        termination: Termination::Generations(4),
        metrics: MetricSet::new(vec![
            Metric::Utilization(ResourceKind::Lut),
            Metric::Utilization(ResourceKind::Register),
            Metric::Fmax,
        ]),
        surrogate: None,
        parallel: false,
        workers: None,
    }
}

/// Every configurable explorer, by its CLI token.
fn portfolio() -> Vec<(&'static str, Explorer)> {
    [
        "nsga2",
        "random",
        "wsga",
        "exhaustive",
        "sa",
        "bayes",
        "auto",
    ]
    .into_iter()
    .map(|t| (t, Explorer::parse_token(t).expect("token parses")))
    .collect()
}

fn assert_reports_bitwise(tag: &str, a: &DseReport, b: &DseReport) {
    assert_eq!(a.pareto.len(), b.pareto.len(), "{tag}: front sizes differ");
    for (x, y) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(x.point, y.point, "{tag}: genomes diverged");
        for (u, v) in x.values.iter().zip(&y.values) {
            assert_eq!(u.to_bits(), v.to_bits(), "{tag}: objective bits diverged");
        }
    }
    assert_eq!(a.generations, b.generations, "{tag}");
    assert_eq!(a.evaluations, b.evaluations, "{tag}");
    assert_eq!(a.tool_runs, b.tool_runs, "{tag}");
    assert_eq!(a.selection, b.selection, "{tag}: selection diverged");
}

#[test]
fn every_explorer_is_schedule_independent() {
    for (token, explorer) in portfolio() {
        let serial = tool().explore(&cfg(explorer.clone())).unwrap();
        assert!(
            !serial.pareto.is_empty(),
            "{token}: empty front from the generic driver"
        );
        let jobs = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap()
            .install(|| {
                tool().explore(&DseConfig {
                    parallel: true,
                    ..cfg(explorer.clone())
                })
            })
            .unwrap();
        let fleet = tool()
            .explore(&DseConfig {
                workers: Some(2),
                ..cfg(explorer.clone())
            })
            .unwrap();
        assert_reports_bitwise(token, &serial, &jobs);
        assert_reports_bitwise(token, &serial, &fleet);
        // The whole spine — every event line, in canonical order — must
        // be byte-identical, not just the folded counters.
        let canonical = jsonl_string(&serial.spine);
        assert_eq!(canonical, jsonl_string(&jobs.spine), "{token}: --jobs 2");
        assert_eq!(
            canonical,
            jsonl_string(&fleet.spine),
            "{token}: --workers 2"
        );
    }
}

#[test]
fn auto_charges_the_race_to_the_lowfi_ledger_only() {
    let report = tool().explore(&cfg(Explorer::Auto)).unwrap();
    let sel = report.selection.as_ref().expect("auto must journal");
    assert_eq!(sel.space_volume, 96);
    assert_eq!(sel.objectives, 3);
    assert!(sel.lowfi_runs > 0, "a 96-point 3-objective space races");
    assert_eq!(report.spine.lowfi_runs, sel.lowfi_runs);
    // Race legs are synthesis-only probes on a throwaway spine: none of
    // their runs may leak into the full-flow ledger.
    assert!(report.tool_runs > 0);
    assert!(
        report.spine.lowfi_time_s > 0.0,
        "race time must be ledgered"
    );
}
