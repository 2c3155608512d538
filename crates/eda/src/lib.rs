//! # dovado-eda
//!
//! A simulated EDA flow standing in for Xilinx Vivado in the Dovado
//! reproduction.
//!
//! The real Dovado never inspects Vivado internals: it writes TCL scripts,
//! spawns the tool, and scrapes text reports. This crate exposes exactly
//! that interface — [`VivadoSim::eval`] executes a TCL subset whose command
//! set covers Dovado's script frames (`read_vhdl`/`read_verilog`,
//! `synth_design -generic`, `create_clock`, `place_design`/`route_design`,
//! `report_utilization`/`report_timing_summary -file`, checkpoints and the
//! incremental flow) — while the physics behind it is synthetic:
//! architecture cost models ([`models`]) elaborate parsed modules into
//! [`Netlist`] summaries, and the synthesis/place-route engines apply
//! directive trade-offs, congestion-aware timing, and deterministic noise.
//!
//! ```
//! use dovado_eda::VivadoSim;
//!
//! let mut vivado = VivadoSim::new(42);
//! vivado.write_file("fifo.sv",
//!     "module fifo_v3 #(parameter DEPTH = 8, parameter DATA_WIDTH = 32)\
//!      (input logic clk_i); endmodule");
//! vivado.eval("
//!     create_project demo -part xc7k70tfbv676-1
//!     read_verilog -sv fifo.sv
//!     synth_design -top fifo_v3 -generic DEPTH=64
//!     create_clock -period 1.000 [get_ports clk_i]
//!     route_design
//! ").unwrap();
//! let fmax = vivado.impl_result().unwrap().fmax_mhz();
//! assert!(fmax > 100.0);
//! ```

#![warn(missing_docs)]

pub mod archmodel;
pub mod backend;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod frame;
pub mod hash;
pub mod models;
pub mod netlist;
pub mod place_route;
pub mod power;
pub mod project;
pub mod remote;
pub mod report;
pub mod store;
pub mod synth;
pub mod tcl;
pub mod vivado;

pub use archmodel::{bind_parameters, ArchModel, ElabContext, ModelRegistry};
pub use backend::{MockBackend, SimBackend, ToolBackend, ToolSession};
pub use checkpoint::{Checkpoint, CheckpointStore, FlowStep, Reuse};
pub use error::{EdaError, EdaResult};
pub use fault::{FaultInjector, FaultKind, FaultPlan};
pub use netlist::Netlist;
pub use place_route::{ImplDirective, ImplResult};
pub use project::{ClockConstraint, ParseCache, Project, SourceUnit};
pub use remote::{RemoteBackend, WorkerLifecycle, PROTOCOL_VERSION};
pub use store::{CompactStats, EvalKey, EvalStore, EvictionHook, LOG_FILE, STORE_FORMAT_VERSION};
pub use synth::{SynthDirective, SynthResult};
pub use vivado::{FlowState, VivadoSim};
