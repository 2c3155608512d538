//! Integration between the script frames the core generates and the
//! simulated tool's TCL engine: the whole paper workflow driven as pure
//! TCL text, exactly like the real Dovado drives the real Vivado.

use dovado::frames::{fill, read_sources_script, SourceEntry, IMPL_FRAME, SYNTH_FRAME};
use dovado_eda::{report, EdaError, FlowState, VivadoSim};
use dovado_hdl::Language;

const FIFO_SV: &str = "module fifo_v3 #(parameter DEPTH = 8, parameter DATA_WIDTH = 32)\
                       (input logic clk_i); endmodule";

fn filled_synth(sources: &str, generic: &str) -> String {
    let script = fill(
        SYNTH_FRAME,
        &[
            ("PROJECT", "dovado"),
            ("PART", "xc7k70tfbv676-1"),
            ("READ_SOURCES", sources),
            ("TOP", "fifo_v3"),
            ("INCREMENTAL", ""),
            ("SYNTH_DIRECTIVE", "Default"),
            ("PERIOD", "1.000"),
            ("CLOCK", "clk_i"),
            ("UTIL_RPT", "util.rpt"),
            ("TIMING_RPT", "timing.rpt"),
            ("POWER_RPT", "power.rpt"),
            ("SYNTH_DCP", "post_synth.dcp"),
        ],
    )
    .unwrap();
    // Inject the design point the way synth_design -generic does.
    script.replace(
        "synth_design -top fifo_v3",
        &format!("synth_design -top fifo_v3 -generic {generic}"),
    )
}

#[test]
fn frames_drive_the_full_flow() {
    let mut sim = VivadoSim::new(1);
    sim.write_file("src/fifo.sv", FIFO_SV);
    let entries = vec![SourceEntry {
        path: "src/fifo.sv".into(),
        language: Language::SystemVerilog,
        library: None,
        has_packages: false,
    }];
    let synth = filled_synth(
        read_sources_script(&entries).unwrap().trim_end(),
        "DEPTH=64",
    );
    sim.eval(&synth).unwrap();
    assert_eq!(sim.state(), FlowState::Synthesized);

    let impl_script = fill(
        IMPL_FRAME,
        &[
            ("IMPL_DIRECTIVE", "Default"),
            ("UTIL_RPT", "util_impl.rpt"),
            ("TIMING_RPT", "timing_impl.rpt"),
            ("POWER_RPT", "power_impl.rpt"),
            ("IMPL_DCP", "post_route.dcp"),
        ],
    )
    .unwrap();
    sim.eval(&impl_script).unwrap();
    assert_eq!(sim.state(), FlowState::Routed);

    // Reports land in the virtual filesystem and scrape back.
    let util = report::parse_utilization_report(sim.read_file("util_impl.rpt").unwrap()).unwrap();
    assert!(util.get(dovado_fpga::ResourceKind::Register) > 2000);
    let wns = report::parse_wns(sim.read_file("timing_impl.rpt").unwrap()).unwrap();
    assert!(wns < 0.0);
    // Checkpoints were written.
    assert!(sim.read_file("post_synth.dcp").is_some());
    assert!(sim.read_file("post_route.dcp").is_some());
}

#[test]
fn tcl_variables_and_logic_steer_the_flow() {
    // A script that reacts to results: if WNS is negative, rerun synthesis
    // with the performance directive — the kind of closed loop the TCL
    // interface exists for.
    let mut sim = VivadoSim::new(2);
    sim.write_file("src/fifo.sv", FIFO_SV);
    let (_, output) = sim
        .eval_with_output(
            r#"
create_project p -part xc7k70tfbv676-1
read_verilog -sv src/fifo.sv
synth_design -top fifo_v3 -generic DEPTH=512
create_clock -period 1.000 [get_ports clk_i]
route_design
set t 1.0
if {1} { puts "routed" }
"#,
        )
        .unwrap();
    assert!(output.contains("routed"));
    let wns = sim.impl_result().unwrap().wns_ns;
    assert!(wns < 0.0);

    // Second phase: escalate the directive from TCL.
    sim.eval(
        "synth_design -top fifo_v3 -generic DEPTH=512 -directive PerformanceOptimized\n\
         route_design -directive Explore",
    )
    .unwrap();
    let improved = sim.impl_result().unwrap().wns_ns;
    assert!(
        improved > wns,
        "explore directive must improve slack: {improved} vs {wns}"
    );
}

#[test]
fn foreach_sweep_over_generics() {
    // A parameter sweep written directly in TCL: evaluates three depths in
    // one session and prints one frequency per run.
    let mut sim = VivadoSim::new(3);
    sim.write_file("src/fifo.sv", FIFO_SV);
    let (_, output) = sim
        .eval_with_output(
            r#"
create_project sweep -part xc7k70tfbv676-1
read_verilog -sv src/fifo.sv
create_clock -period 1.000 [get_ports clk_i]
foreach depth {8 64 512} {
  synth_design -top fifo_v3 -generic DEPTH=$depth
  route_design
  puts "depth=$depth done"
}
"#,
        )
        .unwrap();
    assert_eq!(output.matches("done").count(), 3);
}

#[test]
fn sv_package_ordering_matters_to_the_frame_generator() {
    let entries = vec![
        SourceEntry {
            path: "src/top.sv".into(),
            language: Language::SystemVerilog,
            library: None,
            has_packages: false,
        },
        SourceEntry {
            path: "src/types_pkg.sv".into(),
            language: Language::SystemVerilog,
            library: None,
            has_packages: true,
        },
        SourceEntry {
            path: "src/neorv32_package.vhd".into(),
            language: Language::Vhdl,
            library: Some("neorv32".into()),
            has_packages: true,
        },
    ];
    let script = read_sources_script(&entries).unwrap();
    let lines: Vec<&str> = script.lines().collect();
    // The SV package file is hoisted to the front…
    assert!(lines[0].contains("types_pkg.sv"));
    // …and the VHDL library flag is preserved.
    assert!(script.contains("read_vhdl -library neorv32 src/neorv32_package.vhd"));
}

#[test]
fn tool_errors_surface_as_tcl_errors() {
    let mut sim = VivadoSim::new(4);
    // Reading a missing file fails the script with a useful message.
    let err = sim
        .eval("create_project p -part xc7k70tfbv676-1\nread_verilog ghost.v")
        .unwrap_err();
    assert!(matches!(err, EdaError::FileNotFound(_)));
    // An unknown command names itself.
    let err2 = sim.eval("definitely_not_a_command").unwrap_err();
    assert!(err2.to_string().contains("definitely_not_a_command"));
}

#[test]
fn command_substitution_feeds_reports_into_variables() {
    let mut sim = VivadoSim::new(5);
    sim.write_file("src/fifo.sv", FIFO_SV);
    let (_, output) = sim
        .eval_with_output(
            r#"
create_project p -part xc7k70tfbv676-1
read_verilog -sv src/fifo.sv
synth_design -top fifo_v3 -generic DEPTH=32
create_clock -period 1.000 [get_ports clk_i]
route_design
set rpt [report_timing_summary]
puts "report captured: [string length $rpt] chars"
"#,
        )
        .unwrap();
    // The timing report is hundreds of characters long.
    let n: usize = output
        .trim()
        .rsplit(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("length printed");
    assert!(n > 200, "captured report too short: {n}");
}
