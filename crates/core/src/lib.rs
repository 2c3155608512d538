//! # dovado
//!
//! A Rust reproduction of **Dovado** (Paletti, Conficconi, Santambrogio —
//! IPDPSW 2021): an open-source CAD tool for design automation and design
//! space exploration of highly parametrizable RTL modules on FPGAs.
//!
//! Two flows, as in the paper's Fig. 1:
//!
//! * **Design automation** — evaluate one design point (or a given set):
//!   parse the VHDL/(System)Verilog interface, wrap the module in a
//!   sandboxing *box* (Listing 1), generate TCL script frames, run the
//!   (simulated) Vivado, and scrape utilization + `Fmax = 1000/(T − WNS)`
//!   from the reports.
//! * **Design space exploration** — NSGA-II over an integer parameter
//!   space (with optional power-of-two restrictions), optionally guarded
//!   by the Nadaraya-Watson fitness approximation with the adaptive-Γ
//!   control model, returning the non-dominated configuration set.
//!
//! ```
//! use dovado::casestudies::corundum;
//! use dovado::{DesignPoint};
//!
//! let cs = corundum::case_study();
//! let tool = cs.dovado().unwrap();
//! let eval = tool.evaluate_point(&DesignPoint::from_pairs(&[
//!     ("OP_TABLE_SIZE", 16),
//!     ("QUEUE_INDEX_WIDTH", 4),
//!     ("PIPELINE", 3),
//! ])).unwrap();
//! assert!(eval.fmax_mhz > 100.0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod bayes;
pub mod boxing;
pub mod casestudies;
pub mod cli;
pub mod csv;
pub mod dse;
pub mod engine;
pub mod error;
pub mod fitness;
pub mod flow;
pub mod frames;
pub mod metrics;
pub mod obs;
pub mod persist;
pub mod point;
pub mod results;
pub mod serve;
pub mod space;
pub mod trace;
pub mod worker;

pub use backend::{
    MockBackend, RemoteBackend, SimBackend, ToolBackend, ToolSession, WorkerLifecycle,
};
pub use bayes::BayesExplorer;
pub use boxing::{generate_box, BoxedDesign, BOX_CLOCK, BOX_INSTANCE, BOX_TOP};
pub use dse::{Dovado, DseConfig, SelectionRecord, SurrogateConfig, EXHAUSTIVE_AUTO_LIMIT};
pub use engine::{validate_jobs, validate_workers, Evaluator, Schedule};
pub use error::{DovadoError, DovadoResult, ErrorClass};
pub use fitness::{DseProblem, FitnessStats};
pub use flow::{EvalConfig, FlowStep, HdlSource, RetryPolicy};
pub use metrics::{fmax_mhz, Evaluation, Metric, MetricSet};
pub use obs::{
    fold_totals, write_jsonl, CandidateScore, EventBus, EventKey, ObsEvent, SpineSnapshot, Totals,
    EVENT_SCHEMA_VERSION,
};
pub use persist::{PersistConfig, JOURNAL_FORMAT_VERSION};
pub use point::DesignPoint;
pub use results::{ascii_scatter, point_label, DseReport, ParetoEntry, PointResult};
pub use serve::{ServeConfig, Server};
pub use space::{Domain, FreeParameter, ParameterSpace};
pub use trace::{AttemptOutcome, FlowEvent, TraceSummary};
