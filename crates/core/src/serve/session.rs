//! The serve daemon itself: TCP listener, per-connection request
//! dispatch, thread-per-job execution gated by the fair-share
//! scheduler, and live trace v2 event streaming.
//!
//! # Lifecycle of a job
//!
//! `submit` registers a job handle (phase `queued`) and spawns one
//! runner thread. The runner blocks in [`Scheduler::acquire`] until the
//! fair-share order and a free slot admit it, builds the exploration
//! with [`JobSpec::build`] (exactly as `dovado explore` does), optionally
//! points its evaluator at the daemon's **shared** [`EvalStore`],
//! publishes the run's [`EventBus`] on the handle (phase `running`), and
//! drives [`Dovado::explore_monitored`](crate::Dovado::explore_monitored).
//! The monitor observes every generation boundary: it wakes streaming
//! connections and vetoes the run when the job's [`CancelToken`] has
//! fired, so cancellation lands at the next generation boundary with
//! [`DovadoError::Cancelled`]. Whatever the exit path — done, failed,
//! cancelled, cancelled-while-queued — the slot permit releases on drop
//! and the tenant's ledger is charged from the run's exact [`Totals`].
//!
//! # Streaming
//!
//! A connection that submitted (or `attach`ed to) a job receives the
//! trace v2 header, then every retained spine event with `seq >=
//! from_seq` as it appears (dedup'd per connection by `(seq, sub)`
//! key), then a `summary` line folding exactly the event lines this
//! stream carried, then one `done` object with the job's outcome and
//! — for completed jobs — the Pareto front with each value both as a
//! JSON number and as exact `f64` bits, so clients can compare results
//! across runs without decimal round-tripping.
//!
//! Locks are ordered: a job's state lock is never held while taking
//! the server state lock *and* vice versa — every function takes one,
//! releases it, then takes the other.

use super::json::{escape, number};
use super::protocol::{parse_request, JobSpec, Request, SERVE_PROTOCOL_VERSION};
use super::scheduler::{CancelToken, Scheduler};
use crate::dse::ExploreMonitor;
use crate::error::{DovadoError, DovadoResult};
use crate::flow::EvalConfig;
use crate::obs::{event_json, summary_json, trace_header, EventBus, EventKey, Totals};
use crate::results::DseReport;
use crate::worker::backend_from_spec;
use dovado_eda::EvalStore;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How a daemon is set up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks a free port (read it back with
    /// [`Server::addr`]).
    pub addr: String,
    /// Concurrent job slots (clamped to at least 1). Jobs evaluate
    /// serially inside their slot, so this bounds the daemon's
    /// parallelism exactly.
    pub slots: usize,
    /// Daemon root directory. When set, `root/store` holds the shared
    /// evaluation store every `store: true` job answers from
    /// and feeds. Without a root the daemon is stateless and jobs that
    /// request the store fail with a config error.
    pub root: Option<PathBuf>,
    /// Shared-store entry cap (`None` = unbounded; `Some(0)` is a
    /// config error, matching `--store-capacity`).
    pub store_capacity: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            slots: 2,
            root: None,
            store_capacity: None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum JobPhase {
    /// Waiting for the fair-share scheduler to admit it.
    #[default]
    Queued,
    /// Holding a slot and exploring.
    Running,
    /// Completed; the `done` stream line carries the Pareto front.
    Done,
    /// Stopped on an error (the message).
    Failed(String),
    /// Cancelled while queued or at a generation boundary.
    Cancelled,
}

impl JobPhase {
    /// Wire name of the phase.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed(_) => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Whether the job can make no further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed(_) | JobPhase::Cancelled
        )
    }
}

/// Completed-run payload for the `done` line.
#[derive(Debug, Clone)]
struct DoneInfo {
    evaluations: u64,
    tool_runs: u64,
    /// Pre-rendered JSON array of Pareto entries.
    pareto_json: String,
}

#[derive(Default)]
struct JobState {
    phase: JobPhase,
    /// The run's spine, published when the job starts executing.
    bus: Option<EventBus>,
    /// Last completed generation (monitor-updated).
    generations: u64,
    done: Option<DoneInfo>,
}

/// One submitted job: identity, cancellation, and observable state.
/// Streaming connections wait on `cv`, which the runner and monitor
/// notify on every state change and generation boundary.
struct JobHandle {
    id: String,
    tenant: String,
    priority: u32,
    spec: JobSpec,
    cancel: CancelToken,
    state: Mutex<JobState>,
    cv: Condvar,
}

/// Per-tenant accounting, folded from each finished job's exact spine
/// totals — the serve-level time ledger.
#[derive(Debug, Clone, Copy, Default)]
struct TenantLedger {
    tool_time_s: f64,
    runs: u64,
    /// Low-fidelity (synthesis-only) race spend, ledgered separately
    /// from full-flow time so `--explorer auto` jobs stay auditable.
    lowfi_time_s: f64,
    lowfi_runs: u64,
    jobs: u64,
}

#[derive(Default)]
struct ServerState {
    jobs: HashMap<String, Arc<JobHandle>>,
    /// Submission order, for stable status output.
    order: Vec<String>,
    next_job: u64,
    ledger: HashMap<String, TenantLedger>,
}

struct ServerInner {
    addr: SocketAddr,
    scheduler: Scheduler,
    store: Option<EvalStore>,
    state: Mutex<ServerState>,
    shutdown: AtomicBool,
}

/// A running serve daemon. Dropping (or [`Server::shutdown`]) cancels
/// every job, closes the listener, and joins the accept thread.
pub struct Server {
    inner: Arc<ServerInner>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, opens the shared store (when configured),
    /// and starts accepting connections.
    pub fn start(cfg: ServeConfig) -> DovadoResult<Server> {
        let capacity = crate::engine::validate_store_capacity(cfg.store_capacity)?;
        let store = match &cfg.root {
            Some(root) => Some(
                EvalStore::open_bounded(&root.join("store"), capacity)
                    .map_err(|e| DovadoError::Config(format!("serve store: {e}")))?,
            ),
            None => None,
        };
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| {
            DovadoError::Config(format!("serve: cannot listen on {}: {e}", cfg.addr))
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| DovadoError::Config(format!("serve: local_addr: {e}")))?;
        let scheduler = Scheduler::new(cfg.slots);
        let inner = Arc::new(ServerInner {
            addr,
            scheduler,
            store,
            state: Mutex::new(ServerState::default()),
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || accept_loop(inner, listener))
        };
        Ok(Server {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The shared evaluation store, when the daemon has a root.
    pub fn store(&self) -> Option<&EvalStore> {
        self.inner.store.as_ref()
    }

    /// The daemon's concurrent job slots.
    pub fn slots(&self) -> usize {
        self.inner.scheduler.slots()
    }

    /// Blocks until the daemon stops — a `shutdown` request over the
    /// wire, or [`Server::shutdown`] from another thread.
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }

    /// Stops the daemon: cancels all jobs, stops accepting, joins the
    /// accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        initiate_shutdown(&self.inner);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flags shutdown, cancels every job, and pokes the listener awake so
/// the accept loop observes the flag. Shared by the `shutdown` request
/// path and [`Server::shutdown`].
fn initiate_shutdown(inner: &Arc<ServerInner>) {
    inner.shutdown.store(true, Ordering::SeqCst);
    let jobs: Vec<Arc<JobHandle>> = {
        let state = inner.state.lock().expect("server state poisoned");
        state.jobs.values().cloned().collect()
    };
    for job in jobs {
        job.cancel.cancel();
        job.cv.notify_all();
    }
    // Wake the blocking accept with a throwaway connection.
    let _ = TcpStream::connect(inner.addr);
}

fn accept_loop(inner: Arc<ServerInner>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let inner = Arc::clone(&inner);
                thread::spawn(move || {
                    // A vanished client is that client's problem only.
                    let _ = handle_connection(inner, stream);
                });
            }
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// Longest request line the daemon reads, without its newline: 64 MiB,
/// the worker protocol's frame cap, since a submit carries its HDL
/// sources inline. A longer line gets an error reply and the connection
/// closes; other connections and jobs go on.
const MAX_REQUEST_LINE: usize = 64 << 20;

/// One request line read by [`read_request_line`].
#[derive(Debug, PartialEq)]
enum RequestLine {
    /// The line, without its `\n` or `\r\n`.
    Text(String),
    /// More than the cap's bytes arrived without a newline.
    TooLong,
    /// The client closed its end.
    Closed,
}

/// Reads one line as `BufRead::lines` does — stripping `\n` or `\r\n`,
/// keeping a last line without a newline, refusing invalid UTF-8 — but
/// buffers at most `cap + 1` bytes of it.
fn read_request_line(reader: &mut impl BufRead, cap: usize) -> std::io::Result<RequestLine> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(cap as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > cap {
        return Ok(RequestLine::TooLong);
    } else if line.is_empty() {
        return Ok(RequestLine::Closed);
    }
    String::from_utf8(line)
        .map(RequestLine::Text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn handle_connection(inner: Arc<ServerInner>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        let line = match read_request_line(&mut reader, MAX_REQUEST_LINE)? {
            RequestLine::Text(line) => line,
            RequestLine::TooLong => {
                writeln!(
                    out,
                    "{{\"ok\":false,\"error\":\"request line exceeds 64 MiB\"}}"
                )?;
                break;
            }
            RequestLine::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(e) => {
                writeln!(out, "{{\"ok\":false,\"error\":\"{}\"}}", escape(&e))?;
                continue;
            }
        };
        match request {
            Request::Hello { protocol, .. } => {
                if protocol == SERVE_PROTOCOL_VERSION {
                    writeln!(
                        out,
                        "{{\"ok\":true,\"type\":\"hello\",\"protocol\":{SERVE_PROTOCOL_VERSION}}}"
                    )?;
                } else {
                    writeln!(
                        out,
                        "{{\"ok\":false,\"error\":\"protocol {protocol} unsupported \
                         (server speaks {SERVE_PROTOCOL_VERSION})\"}}"
                    )?;
                }
            }
            Request::Submit {
                tenant,
                priority,
                spec,
            } => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    writeln!(
                        out,
                        "{{\"ok\":false,\"error\":\"daemon is shutting down\"}}"
                    )?;
                    continue;
                }
                let job = submit_job(&inner, tenant, priority, *spec);
                writeln!(
                    out,
                    "{{\"ok\":true,\"type\":\"submitted\",\"job\":\"{}\",\"tenant\":\"{}\"}}",
                    escape(&job.id),
                    escape(&job.tenant)
                )?;
                stream_job(&job, 0, &mut out)?;
            }
            Request::Attach { job, from_seq } => match lookup(&inner, &job) {
                Some(handle) => {
                    writeln!(
                        out,
                        "{{\"ok\":true,\"type\":\"attached\",\"job\":\"{}\"}}",
                        escape(&job)
                    )?;
                    stream_job(&handle, from_seq, &mut out)?;
                }
                None => {
                    writeln!(
                        out,
                        "{{\"ok\":false,\"error\":\"unknown job `{}`\"}}",
                        escape(&job)
                    )?;
                }
            },
            Request::Cancel { job } => match lookup(&inner, &job) {
                Some(handle) => {
                    handle.cancel.cancel();
                    handle.cv.notify_all();
                    writeln!(
                        out,
                        "{{\"ok\":true,\"type\":\"cancelling\",\"job\":\"{}\"}}",
                        escape(&job)
                    )?;
                }
                None => {
                    writeln!(
                        out,
                        "{{\"ok\":false,\"error\":\"unknown job `{}`\"}}",
                        escape(&job)
                    )?;
                }
            },
            Request::Status => {
                let line = status_line(&inner);
                writeln!(out, "{line}")?;
            }
            Request::Shutdown => {
                writeln!(out, "{{\"ok\":true,\"type\":\"shutdown\"}}")?;
                out.flush()?;
                initiate_shutdown(&inner);
                break;
            }
        }
    }
    Ok(())
}

fn lookup(inner: &Arc<ServerInner>, id: &str) -> Option<Arc<JobHandle>> {
    inner
        .state
        .lock()
        .expect("server state poisoned")
        .jobs
        .get(id)
        .cloned()
}

fn submit_job(
    inner: &Arc<ServerInner>,
    tenant: String,
    priority: u32,
    spec: JobSpec,
) -> Arc<JobHandle> {
    let job = {
        let mut state = inner.state.lock().expect("server state poisoned");
        state.next_job += 1;
        let id = format!("job-{}", state.next_job);
        let job = Arc::new(JobHandle {
            id: id.clone(),
            tenant,
            priority,
            spec,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState::default()),
            cv: Condvar::new(),
        });
        state.jobs.insert(id.clone(), job.clone());
        state.order.push(id);
        job
    };
    {
        let inner = Arc::clone(inner);
        let job = Arc::clone(&job);
        thread::spawn(move || run_job(inner, job));
    }
    job
}

fn run_job(inner: Arc<ServerInner>, job: Arc<JobHandle>) {
    let Some(permit) = inner
        .scheduler
        .acquire(&job.tenant, job.priority, &job.cancel)
    else {
        // Cancelled while queued: never held a slot, never ran.
        finish_job(&inner, &job, JobPhase::Cancelled, None);
        return;
    };
    let result = execute_job(&inner, &job);
    drop(permit);
    match result {
        Ok(report) => finish_job(&inner, &job, JobPhase::Done, Some(report)),
        Err(DovadoError::Cancelled { .. }) => finish_job(&inner, &job, JobPhase::Cancelled, None),
        Err(e) => finish_job(&inner, &job, JobPhase::Failed(e.to_string()), None),
    }
}

/// Builds the job's exploration from its spec ([`JobSpec::build`]) and
/// runs it to completion, with the job's cancel token checked at every
/// generation boundary. The spec's config stays serial: `slots` is the
/// daemon's parallelism.
fn execute_job(inner: &Arc<ServerInner>, job: &Arc<JobHandle>) -> DovadoResult<DseReport> {
    let spec = &job.spec;
    let backend = backend_from_spec(&spec.backend)
        .ok_or_else(|| DovadoError::Config(format!("unknown backend spec `{}`", spec.backend)))?;
    let (mut tool, cfg) = spec.build(EvalConfig::default(), Arc::from(backend))?;
    if spec.use_store {
        let store = inner.store.clone().ok_or_else(|| {
            DovadoError::Config(
                "job requested the shared store but the daemon was started without a root".into(),
            )
        })?;
        // The backend's name carries its seed, so a `mock:8` job never
        // reads `mock:7` answers from the shared store.
        tool.evaluator_mut().attach_store(store);
    }
    {
        let mut state = job.state.lock().expect("job state poisoned");
        state.bus = Some(tool.evaluator().spine().clone());
        state.phase = JobPhase::Running;
        job.cv.notify_all();
    }
    let monitor = JobMonitor {
        job: Arc::clone(job),
    };
    tool.explore_monitored(&cfg, None, &monitor)
}

/// Records the terminal state, then charges the tenant's ledger from
/// the run's exact totals. The job lock is released before the server
/// lock is taken (lock-order discipline).
fn finish_job(
    inner: &Arc<ServerInner>,
    job: &Arc<JobHandle>,
    phase: JobPhase,
    report: Option<DseReport>,
) {
    let done = report.map(|r| DoneInfo {
        evaluations: r.evaluations,
        tool_runs: r.tool_runs,
        pareto_json: render_pareto(&r),
    });
    let totals = {
        let mut state = job.state.lock().expect("job state poisoned");
        state.phase = phase;
        state.done = done;
        let totals = state.bus.as_ref().map(EventBus::totals);
        job.cv.notify_all();
        totals
    };
    let mut state = inner.state.lock().expect("server state poisoned");
    let entry = state.ledger.entry(job.tenant.clone()).or_default();
    if let Some(t) = totals {
        entry.tool_time_s += t.tool_time_s;
        entry.runs += t.runs;
        entry.lowfi_time_s += t.lowfi_time_s;
        entry.lowfi_runs += t.lowfi_runs;
    }
    entry.jobs += 1;
}

/// Renders the Pareto front with each objective value twice: as a JSON
/// number for humans/jq and as exact `f64` bits (16 hex digits) so
/// clients can assert bitwise equality across runs.
fn render_pareto(report: &DseReport) -> String {
    let entries: Vec<String> = report
        .pareto
        .iter()
        .map(|e| {
            let values: Vec<String> = e.values.iter().map(|v| number(*v)).collect();
            let bits: Vec<String> = e
                .values
                .iter()
                .map(|v| format!("\"{:016x}\"", v.to_bits()))
                .collect();
            format!(
                "{{\"point\":\"{}\",\"values\":[{}],\"bits\":[{}]}}",
                escape(&e.point.to_string()),
                values.join(","),
                bits.join(",")
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// Streams a job to one connection: header, live event lines (`seq >=
/// from_seq`, dedup'd by key), a summary folding exactly the lines
/// sent, and the final `done` object.
fn stream_job(job: &Arc<JobHandle>, from_seq: u64, out: &mut TcpStream) -> std::io::Result<()> {
    writeln!(out, "{}", trace_header())?;
    let mut sent: BTreeSet<EventKey> = BTreeSet::new();
    let mut streamed = Totals::default();
    let mut dropped = 0u64;
    loop {
        let (bus, terminal) = {
            let state = job.state.lock().expect("job state poisoned");
            (state.bus.clone(), state.phase.is_terminal())
        };
        if let Some(bus) = &bus {
            for (key, event) in bus.events() {
                if key.seq >= from_seq && sent.insert(key) {
                    streamed.fold(&event);
                    writeln!(out, "{}", event_json(key, &event))?;
                }
            }
            dropped = bus.dropped();
        }
        if terminal {
            break;
        }
        // Wait for the monitor or runner to signal progress; the
        // timeout bounds the latency of a cancel that skips notify.
        let guard = job.state.lock().expect("job state poisoned");
        let _ = job
            .cv
            .wait_timeout(guard, Duration::from_millis(25))
            .expect("job state poisoned");
    }
    writeln!(out, "{}", summary_json(&streamed, dropped))?;
    writeln!(out, "{}", done_line(job))?;
    out.flush()
}

fn done_line(job: &Arc<JobHandle>) -> String {
    let state = job.state.lock().expect("job state poisoned");
    let mut line = format!(
        "{{\"type\":\"done\",\"job\":\"{}\",\"status\":\"{}\",\"generations\":{}",
        escape(&job.id),
        state.phase.name(),
        state.generations
    );
    if let JobPhase::Failed(error) = &state.phase {
        line.push_str(&format!(",\"error\":\"{}\"", escape(error)));
    }
    if let Some(done) = &state.done {
        line.push_str(&format!(
            ",\"evaluations\":{},\"tool_runs\":{},\"pareto\":{}",
            done.evaluations, done.tool_runs, done.pareto_json
        ));
    }
    line.push('}');
    line
}

fn status_line(inner: &Arc<ServerInner>) -> String {
    let state = inner.state.lock().expect("server state poisoned");
    let jobs: Vec<String> = state
        .order
        .iter()
        .filter_map(|id| state.jobs.get(id))
        .map(|job| {
            let st = job.state.lock().expect("job state poisoned");
            format!(
                "{{\"job\":\"{}\",\"tenant\":\"{}\",\"state\":\"{}\",\"generations\":{}}}",
                escape(&job.id),
                escape(&job.tenant),
                st.phase.name(),
                st.generations
            )
        })
        .collect();
    let mut tenants: Vec<_> = state.ledger.iter().collect();
    tenants.sort_by(|a, b| a.0.cmp(b.0));
    let tenants: Vec<String> = tenants
        .into_iter()
        .map(|(name, ledger)| {
            format!(
                "{{\"tenant\":\"{}\",\"tool_time_s\":{},\"runs\":{},\
                 \"lowfi_time_s\":{},\"lowfi_runs\":{},\"jobs\":{}}}",
                escape(name),
                number(ledger.tool_time_s),
                ledger.runs,
                number(ledger.lowfi_time_s),
                ledger.lowfi_runs,
                ledger.jobs
            )
        })
        .collect();
    format!(
        "{{\"ok\":true,\"type\":\"status\",\"slots\":{},\"free\":{},\"jobs\":[{}],\"tenants\":[{}]}}",
        inner.scheduler.slots(),
        inner.scheduler.available(),
        jobs.join(","),
        tenants.join(",")
    )
}

/// Bridges a running exploration to its [`JobHandle`]: records the
/// generation for status output, wakes streaming connections, and
/// vetoes the run once the cancel token fires.
struct JobMonitor {
    job: Arc<JobHandle>,
}

impl ExploreMonitor for JobMonitor {
    fn on_generation(&self, generation: u64, _evaluations: u64) -> bool {
        let mut state = self.job.state.lock().expect("job state poisoned");
        state.generations = generation;
        self.job.cv.notify_all();
        !self.job.cancel.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(input: &[u8], cap: usize) -> Vec<RequestLine> {
        // A tiny buffer, so lines span many refills.
        let mut reader = BufReader::with_capacity(3, input);
        let mut lines = Vec::new();
        loop {
            let line = read_request_line(&mut reader, cap).unwrap();
            let done = !matches!(line, RequestLine::Text(_));
            lines.push(line);
            if done {
                return lines;
            }
        }
    }

    fn text(s: &str) -> RequestLine {
        RequestLine::Text(s.to_string())
    }

    #[test]
    fn request_lines_read_as_buf_read_lines_does_up_to_the_cap() {
        // Exactly the cap is a line; one byte more is refused.
        assert_eq!(
            read_all(b"12345\n", 5),
            [text("12345"), RequestLine::Closed]
        );
        assert_eq!(read_all(b"123456\n", 5), [RequestLine::TooLong]);
        assert_eq!(read_all(b"123456", 5), [RequestLine::TooLong]);
        // CRLF and LF both end a line; a bare CR is kept.
        assert_eq!(
            read_all(b"ab\r\ncd\n\r\nx\ry\n", 5),
            [
                text("ab"),
                text("cd"),
                text(""),
                text("x\ry"),
                RequestLine::Closed
            ]
        );
        // A last line without a newline still counts, up to the cap.
        assert_eq!(
            read_all(b"a\nbcdef", 5),
            [text("a"), text("bcdef"), RequestLine::Closed]
        );
        assert_eq!(read_all(b"", 5), [RequestLine::Closed]);
        // The CR of a CRLF counts toward the cap, as the bytes before the
        // newline do.
        assert_eq!(read_all(b"12345\r\n", 5), [RequestLine::TooLong]);
        let bad = read_request_line(&mut BufReader::new(&b"\xff\n"[..]), 5).unwrap_err();
        assert_eq!(bad.kind(), std::io::ErrorKind::InvalidData);
    }
}
