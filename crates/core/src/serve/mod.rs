//! `dovado serve`: a multi-tenant design-space-exploration service.
//!
//! The daemon ([`Server`]) listens on a TCP socket and speaks a
//! line-delimited JSON protocol ([`protocol`]): clients submit
//! exploration jobs, the fair-share scheduler ([`scheduler`]) decides
//! which tenant's job gets each of the daemon's slots, and every job's
//! observability spine streams back live in the **trace v2 wire
//! format** — the same lines `explore --trace-out` writes, so the same
//! fold and the same `jq` recipes apply to a live stream and a file.
//!
//! Jobs that opt in (`store: true`) share one capacity-bounded
//! [`dovado_eda::EvalStore`] under the daemon root: a result any tenant
//! computed is a store hit for every other tenant, and eviction under
//! the capacity bound can only ever turn a would-be hit into a miss,
//! never into a wrong answer.
//!
//! | Module | What lives there |
//! |---|---|
//! | [`json`] | minimal JSON reader + string escaping |
//! | [`protocol`] | request/response shapes, trace v2 event line parser |
//! | [`scheduler`] | stride fair-share queue, slot permits, cancel tokens |
//! | [`session`] | the daemon: listener, job runner, streaming |
//! | [`client`] | synchronous client used by the CLI and tests |

pub mod client;
pub mod json;
pub mod protocol;
pub mod scheduler;
pub mod session;

pub use client::{Client, JobOutcome};
pub use json::Json;
pub use protocol::{
    fold_stream, parse_event_line, parse_request, JobSpec, Request, SERVE_PROTOCOL_VERSION,
};
pub use scheduler::{CancelToken, FairShare, Scheduler, SlotPermit};
pub use session::{JobPhase, ServeConfig, Server};
