//! The tool-execution boundary.
//!
//! This module is the **only** place `dovado` (core) imports tool-execution
//! types from `dovado-eda`: the backend trait pair and the two shipped
//! implementations. Everything above it — the evaluator, fitness, DSE,
//! CLI — talks to tools exclusively through
//! [`ToolBackend`] / [`ToolSession`], so a new backend (remote Vivado, a
//! sharded farm, a replay log) plugs in here without touching any caller.
//! `tests/backend_conformance.rs` enforces the boundary at the source
//! level: no other core module may name concrete simulator types.

pub use dovado_eda::backend::{MockBackend, SimBackend, ToolBackend, ToolSession};
pub use dovado_eda::remote::{RemoteBackend, WorkerLifecycle};
