//! Distributed evaluation: the coordinator side of a worker fleet.
//!
//! [`RemoteBackend`] puts a fleet of stateless worker processes behind the
//! ordinary [`ToolBackend`] seam: every [`ToolSession`] it mints leases one
//! worker from a shared pool, forwards the session's file writes and TCL
//! scripts over a length-prefixed, versioned frame protocol ([`Frame`]),
//! and mirrors the worker's filesystem back so report scraping stays
//! coordinator-side. The pool is the work-stealing queue — an idle worker
//! is leased by whichever evaluation asks next, so one straggling
//! place-and-route run never blocks the rest of a batch.
//!
//! Determinism is preserved end to end:
//! - workers run *clean* backends (the fault stream and the persistent
//!   store live on the coordinator), so a worker's answers are a pure
//!   function of the write/eval sequence it received;
//! - a dead worker is recovered by replaying the session's operation log
//!   onto a fresh worker — a deterministic worker replays to bitwise the
//!   same answers, so a single death is invisible in the canonical trace;
//! - when the replay budget is exhausted the session reports
//!   [`EdaError::WorkerLost`] — a *transient* fault, so the retry layer
//!   above re-queues the point and the death penalty is charged to the
//!   time ledger like any other crash.
//!
//! The transport is pluggable via [`WorkerLink`]: [`ProcessWorker`] speaks
//! the protocol over a child process's stdio (the `dovado worker`
//! subcommand), and tests drive the same coordinator logic over in-memory
//! pipes. Worker lifecycle (spawn, steal, death, requeue) is surfaced
//! through [`RemoteBackend::set_lifecycle_hook`] so the observability
//! spine can record it without touching the canonical event stream.

use crate::backend::{ToolBackend, ToolSession};
use crate::error::{EdaError, EdaResult};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Version stamped into the [`Frame::Hello`] handshake; a coordinator
/// refuses workers that answer with any other version.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a single frame's payload (a corrupt length prefix must not
/// make the coordinator try to allocate gigabytes).
const MAX_FRAME_LEN: u32 = 64 << 20;

/// Simulated seconds charged for a worker death when the fleet has no
/// fault plan of its own (mirrors [`FaultPlan`]'s default `crash_cost_s`).
const DEFAULT_DEATH_PENALTY_S: f64 = 30.0;

/// How many worker deaths one session absorbs transparently (by replaying
/// its operation log onto a fresh worker) before giving up with
/// [`EdaError::WorkerLost`].
const REPLAY_BUDGET: u32 = 2;

// ---------------------------------------------------------------------------
// Frame protocol
// ---------------------------------------------------------------------------

/// One message of the coordinator↔worker protocol.
///
/// On the wire every frame is a little-endian `u32` payload length
/// followed by the payload: a one-byte tag and the frame's fields
/// (integers little-endian, floats as IEEE-754 bits, strings as `u32`
/// length + UTF-8 bytes).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake; each side announces its protocol version.
    Hello {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Coordinator → worker: build a fresh backend from `spec` and open
    /// one session on it.
    OpenSession {
        /// Backend spec, e.g. `mock:7` (see the worker-side parser).
        spec: String,
    },
    /// Worker → coordinator: the session is ready.
    SessionOpened,
    /// Coordinator → worker: write a file into the session's filesystem.
    WriteFile {
        /// Path within the session's virtual filesystem.
        path: String,
        /// File contents.
        content: String,
    },
    /// Worker → coordinator: generic success acknowledgement.
    Ack,
    /// Coordinator → worker: run a TCL script in the open session.
    Eval {
        /// The script text.
        script: String,
    },
    /// Worker → coordinator: the result of one [`Frame::Eval`].
    EvalDone {
        /// The script's result text, or the flow error it raised.
        outcome: EdaResult<String>,
        /// Total simulated tool seconds the session has burned so far.
        elapsed_s: f64,
        /// Whether the session satisfied a stage from an exact checkpoint.
        used_exact_checkpoint: bool,
        /// Snapshot of the session's filesystem (sources and reports), so
        /// the coordinator can scrape reports locally.
        files: Vec<(String, String)>,
    },
    /// Coordinator → worker: drop the open session (the worker stays
    /// alive for the next lease).
    CloseSession,
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: the request was invalid in the worker's
    /// current state (protocol misuse, unknown spec).
    Refused {
        /// Human-readable reason.
        message: String,
    },
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Stable wire code for each [`EdaError`] variant.
fn error_code(e: &EdaError) -> u8 {
    match e {
        EdaError::Tcl(_) => 0,
        EdaError::FileNotFound(_) => 1,
        EdaError::Parse(_) => 2,
        EdaError::UnknownModule(_) => 3,
        EdaError::UnknownPart(_) => 4,
        EdaError::Parameter(_) => 5,
        EdaError::Elaboration(_) => 6,
        EdaError::ResourceOverflow(_) => 7,
        EdaError::FlowOrder(_) => 8,
        EdaError::Checkpoint(_) => 9,
        EdaError::ToolCrash(_) => 10,
        EdaError::Timeout(_) => 11,
        EdaError::WorkerLost(_) => 12,
    }
}

fn error_from_code(code: u8, msg: String) -> Option<EdaError> {
    Some(match code {
        0 => EdaError::Tcl(msg),
        1 => EdaError::FileNotFound(msg),
        2 => EdaError::Parse(msg),
        3 => EdaError::UnknownModule(msg),
        4 => EdaError::UnknownPart(msg),
        5 => EdaError::Parameter(msg),
        6 => EdaError::Elaboration(msg),
        7 => EdaError::ResourceOverflow(msg),
        8 => EdaError::FlowOrder(msg),
        9 => EdaError::Checkpoint(msg),
        10 => EdaError::ToolCrash(msg),
        11 => EdaError::Timeout(msg),
        12 => EdaError::WorkerLost(msg),
        _ => return None,
    })
}

fn error_message(e: &EdaError) -> &str {
    match e {
        EdaError::Tcl(m)
        | EdaError::FileNotFound(m)
        | EdaError::Parse(m)
        | EdaError::UnknownModule(m)
        | EdaError::UnknownPart(m)
        | EdaError::Parameter(m)
        | EdaError::Elaboration(m)
        | EdaError::ResourceOverflow(m)
        | EdaError::FlowOrder(m)
        | EdaError::Checkpoint(m)
        | EdaError::ToolCrash(m)
        | EdaError::Timeout(m)
        | EdaError::WorkerLost(m) => m,
    }
}

impl Frame {
    /// Serializes the frame payload (tag + fields, no length prefix).
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Frame::Hello { version } => {
                buf.push(0);
                put_u32(&mut buf, *version);
            }
            Frame::OpenSession { spec } => {
                buf.push(1);
                put_str(&mut buf, spec);
            }
            Frame::SessionOpened => buf.push(2),
            Frame::WriteFile { path, content } => {
                buf.push(3);
                put_str(&mut buf, path);
                put_str(&mut buf, content);
            }
            Frame::Ack => buf.push(4),
            Frame::Eval { script } => {
                buf.push(5);
                put_str(&mut buf, script);
            }
            Frame::EvalDone {
                outcome,
                elapsed_s,
                used_exact_checkpoint,
                files,
            } => {
                buf.push(6);
                match outcome {
                    Ok(text) => {
                        buf.push(1);
                        put_str(&mut buf, text);
                    }
                    Err(e) => {
                        buf.push(0);
                        buf.push(error_code(e));
                        put_str(&mut buf, error_message(e));
                    }
                }
                put_f64(&mut buf, *elapsed_s);
                buf.push(u8::from(*used_exact_checkpoint));
                put_u32(&mut buf, files.len() as u32);
                for (path, content) in files {
                    put_str(&mut buf, path);
                    put_str(&mut buf, content);
                }
            }
            Frame::CloseSession => buf.push(7),
            Frame::Shutdown => buf.push(8),
            Frame::Refused { message } => {
                buf.push(9);
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Parses a frame payload (tag + fields, no length prefix).
    fn decode(payload: &[u8]) -> Option<Frame> {
        let mut d = Decoder { buf: payload };
        let tag = d.u8()?;
        let frame = match tag {
            0 => Frame::Hello { version: d.u32()? },
            1 => Frame::OpenSession { spec: d.str()? },
            2 => Frame::SessionOpened,
            3 => Frame::WriteFile {
                path: d.str()?,
                content: d.str()?,
            },
            4 => Frame::Ack,
            5 => Frame::Eval { script: d.str()? },
            6 => {
                let outcome = if d.u8()? == 1 {
                    Ok(d.str()?)
                } else {
                    let code = d.u8()?;
                    Err(error_from_code(code, d.str()?)?)
                };
                let elapsed_s = f64::from_bits(d.u64()?);
                let used_exact_checkpoint = d.u8()? == 1;
                let n = d.u32()?;
                let mut files = Vec::new();
                for _ in 0..n {
                    files.push((d.str()?, d.str()?));
                }
                Frame::EvalDone {
                    outcome,
                    elapsed_s,
                    used_exact_checkpoint,
                    files,
                }
            }
            7 => Frame::CloseSession,
            8 => Frame::Shutdown,
            9 => Frame::Refused { message: d.str()? },
            _ => return None,
        };
        d.buf.is_empty().then_some(frame)
    }
}

/// Cursor over a frame payload; every accessor returns `None` on
/// truncation instead of panicking.
struct Decoder<'a> {
    buf: &'a [u8],
}

impl Decoder<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Writes one length-prefixed frame to `w` and flushes.
pub fn write_frame(w: &mut dyn Write, frame: &Frame) -> io::Result<()> {
    let payload = frame.encode();
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Reads one length-prefixed frame from `r`.
///
/// A clean EOF before the length prefix surfaces as
/// [`io::ErrorKind::UnexpectedEof`]; a malformed payload as
/// [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut dyn Read) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Frame::decode(&payload)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed frame payload"))
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// One bidirectional channel to a worker, whatever the transport.
///
/// [`ProcessWorker`] implements it over child-process stdio; tests
/// implement it over in-memory pipes. `kill` severs the link abruptly,
/// standing in for (or actually causing) a worker death.
pub trait WorkerLink: Send {
    /// Sends one frame to the worker.
    fn send(&mut self, frame: &Frame) -> io::Result<()>;

    /// Receives the worker's next frame.
    fn recv(&mut self) -> io::Result<Frame>;

    /// Forcibly severs the link; subsequent `send`/`recv` calls fail.
    fn kill(&mut self);
}

/// Builds fresh [`WorkerLink`]s on demand (initial fleet and respawns
/// after deaths).
pub type LinkFactory = dyn Fn() -> io::Result<Box<dyn WorkerLink + Send>> + Send + Sync;

/// A worker child process speaking the frame protocol over its stdio.
///
/// stderr is inherited so worker-side panics stay visible.
pub struct ProcessWorker {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl ProcessWorker {
    /// Spawns `command[0]` with arguments `command[1..]`, piping stdio.
    pub fn spawn(command: &[String]) -> io::Result<ProcessWorker> {
        let (program, args) = command.split_first().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "empty worker command line")
        })?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        Ok(ProcessWorker {
            child,
            stdin,
            stdout,
        })
    }
}

impl WorkerLink for ProcessWorker {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.stdin, frame)
    }

    fn recv(&mut self) -> io::Result<Frame> {
        read_frame(&mut self.stdout)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessWorker {
    fn drop(&mut self) {
        // Best-effort graceful exit, then make sure the child is reaped.
        let _ = write_frame(&mut self.stdin, &Frame::Shutdown);
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Worker lifecycle transitions reported through
/// [`RemoteBackend::set_lifecycle_hook`].
///
/// These are scheduling facts, not evaluation facts: the canonical trace
/// (attempts, store hits, time charged) is identical across serial,
/// rayon, and distributed schedules, so lifecycle is surfaced on a side
/// channel instead of the canonical event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerLifecycle {
    /// A worker joined the fleet (initial spawn or post-death respawn).
    Spawned {
        /// Fleet-unique worker id.
        worker: u64,
    },
    /// An idle worker was leased for the next pending evaluation.
    Stole {
        /// Fleet-unique worker id.
        worker: u64,
    },
    /// A worker died or hung (transport failure); its link is discarded.
    Died {
        /// Fleet-unique worker id.
        worker: u64,
        /// Transport-level detail (broken pipe, EOF, …).
        detail: String,
    },
    /// A dead worker's in-flight session was re-queued: its operation log
    /// replays onto a fresh worker (or, past the replay budget, the point
    /// re-enters the retry layer as a transient fault).
    Requeued {
        /// The dead worker whose work moved.
        worker: u64,
    },
}

/// Observer invoked on every [`WorkerLifecycle`] transition.
pub type LifecycleHook = Arc<dyn Fn(&WorkerLifecycle) + Send + Sync>;

struct Worker {
    id: u64,
    link: Box<dyn WorkerLink + Send>,
}

struct Fleet {
    backend_name: String,
    spec: String,
    factory: Box<LinkFactory>,
    idle: Mutex<Vec<Worker>>,
    available: Condvar,
    next_id: AtomicU64,
    evals_dispatched: AtomicU64,
    kill_before_eval: Mutex<BTreeSet<u64>>,
    hook: Mutex<Option<LifecycleHook>>,
    injector: Option<FaultInjector>,
}

impl Fleet {
    fn emit(&self, event: WorkerLifecycle) {
        let hook = self.hook.lock().unwrap().clone();
        if let Some(hook) = hook {
            hook(&event);
        }
    }

    /// Spawns and handshakes one fresh worker.
    fn spawn_worker(&self) -> io::Result<Worker> {
        let mut link = (self.factory)()?;
        link.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })?;
        match link.recv()? {
            Frame::Hello { version } if version == PROTOCOL_VERSION => {}
            Frame::Hello { version } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker speaks protocol v{version}, coordinator v{PROTOCOL_VERSION}"),
                ));
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("handshake expected Hello, got {other:?}"),
                ));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.emit(WorkerLifecycle::Spawned { worker: id });
        Ok(Worker { id, link })
    }

    /// Leases an idle worker; this pull is the work-stealing step. Falls
    /// back to spawning a replacement if the pool stays empty (all
    /// respawns failed) so a shrunken fleet degrades instead of hanging.
    fn lease(&self) -> Option<Worker> {
        let mut idle = self.idle.lock().unwrap();
        loop {
            if let Some(worker) = idle.pop() {
                self.emit(WorkerLifecycle::Stole { worker: worker.id });
                return Some(worker);
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(idle, Duration::from_secs(5))
                .unwrap();
            idle = guard;
            if timeout.timed_out() && idle.is_empty() {
                drop(idle);
                let worker = self.spawn_worker().ok()?;
                self.emit(WorkerLifecycle::Stole { worker: worker.id });
                return Some(worker);
            }
        }
    }

    fn release(&self, worker: Worker) {
        self.idle.lock().unwrap().push(worker);
        self.available.notify_one();
    }

    fn death_penalty_s(&self) -> f64 {
        self.injector
            .as_ref()
            .map_or(DEFAULT_DEATH_PENALTY_S, |inj| inj.plan().crash_cost_s)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Ask idle workers to exit before their links drop (process
        // transports also hard-kill in their own Drop).
        for worker in self.idle.lock().unwrap().iter_mut() {
            let _ = worker.link.send(&Frame::Shutdown);
        }
    }
}

/// A [`ToolBackend`] that dispatches sessions to a fleet of stateless
/// workers over the frame protocol.
///
/// `name()` reports the *inner* backend's identity (`mock:7`,
/// `vivado-sim:42`, taken from the worker spec): the fleet is a
/// transport, not a different tool — its answers are bitwise those of
/// the inner backend, so it shares the inner backend's store identity
/// and journal fingerprints.
pub struct RemoteBackend {
    fleet: Arc<Fleet>,
}

impl RemoteBackend {
    /// Builds a fleet of `workers` links from `factory` (spawned eagerly,
    /// so configuration errors surface before any evaluation starts).
    ///
    /// `backend_name` must be the inner backend's `name()`; `spec` is the
    /// opaque session spec forwarded to workers in [`Frame::OpenSession`].
    pub fn new(
        backend_name: &str,
        spec: &str,
        workers: usize,
        factory: Box<LinkFactory>,
    ) -> io::Result<RemoteBackend> {
        let fleet = Arc::new(Fleet {
            backend_name: backend_name.to_string(),
            spec: spec.to_string(),
            factory,
            idle: Mutex::new(Vec::new()),
            available: Condvar::new(),
            next_id: AtomicU64::new(1),
            evals_dispatched: AtomicU64::new(0),
            kill_before_eval: Mutex::new(BTreeSet::new()),
            hook: Mutex::new(None),
            injector: None,
        });
        for _ in 0..workers.max(1) {
            let worker = fleet.spawn_worker()?;
            fleet.release(worker);
        }
        Ok(RemoteBackend { fleet })
    }

    /// Attaches a coordinator-side fault stream. Worker processes stay
    /// clean — the only plan field the fleet itself draws on is
    /// `worker_death` (plus `crash_cost_s` as the death penalty); the
    /// rest is exposed to the exploration loop via
    /// [`ToolBackend::injector`] exactly as the in-process backends do.
    pub fn with_fault_plan(self, plan: FaultPlan) -> RemoteBackend {
        let mut fleet = Arc::into_inner(self.fleet).expect("fleet not yet shared");
        fleet.injector = plan.is_active().then(|| FaultInjector::new(plan));
        RemoteBackend {
            fleet: Arc::new(fleet),
        }
    }

    /// Registers `hook` to observe every worker lifecycle transition.
    /// The fleet spawns eagerly, so spawn events for workers already
    /// alive are replayed into the hook on attachment — an observer
    /// always sees one `Spawned` per live worker.
    pub fn set_lifecycle_hook(&self, hook: LifecycleHook) {
        for id in 1..self.fleet.next_id.load(Ordering::Relaxed) {
            hook(&WorkerLifecycle::Spawned { worker: id });
        }
        *self.fleet.hook.lock().unwrap() = Some(hook);
    }

    /// Test/fault knob: sever the serving worker's link right before the
    /// `n`-th dispatched eval (1-based, counted across the whole fleet).
    /// The death is then recovered through the ordinary replay path.
    pub fn kill_worker_before_eval(&self, n: u64) {
        self.fleet.kill_before_eval.lock().unwrap().insert(n);
    }
}

impl ToolBackend for RemoteBackend {
    fn name(&self) -> &str {
        &self.fleet.backend_name
    }

    fn open_session(&self) -> Box<dyn ToolSession + Send> {
        let mut session = RemoteSession {
            fleet: Arc::clone(&self.fleet),
            worker: None,
            log: Vec::new(),
            mirror: BTreeMap::new(),
            remote_elapsed_s: 0.0,
            penalty_s: 0.0,
            used_exact: false,
            deaths: 0,
            poisoned: None,
        };
        session.worker = self.fleet.lease();
        if session.worker.is_none() {
            session.poison("no worker could be leased or spawned");
        } else if let Err(detail) = session.exchange_expect(
            &Frame::OpenSession {
                spec: self.fleet.spec.clone(),
            },
            |f| matches!(f, Frame::SessionOpened),
        ) {
            session.poison(&detail);
        }
        Box::new(session)
    }

    fn injector(&self) -> Option<&FaultInjector> {
        self.fleet.injector.as_ref()
    }
}

/// The session's replayable operation log.
enum Op {
    Write { path: String, content: String },
    Eval { script: String },
}

struct RemoteSession {
    fleet: Arc<Fleet>,
    worker: Option<Worker>,
    log: Vec<Op>,
    /// Coordinator-side view of the worker's filesystem: everything we
    /// wrote plus the snapshot each [`Frame::EvalDone`] carries, so
    /// report scraping never crosses the wire.
    mirror: BTreeMap<String, String>,
    remote_elapsed_s: f64,
    /// Simulated seconds charged for deaths this session could not
    /// recover from (added on top of the worker-reported elapsed time).
    penalty_s: f64,
    used_exact: bool,
    deaths: u32,
    poisoned: Option<String>,
}

impl RemoteSession {
    fn poison(&mut self, detail: &str) {
        if self.poisoned.is_none() {
            self.penalty_s += self.fleet.death_penalty_s();
            self.poisoned = Some(detail.to_string());
        }
    }

    /// Sends `frame` and returns the reply, absorbing worker deaths by
    /// replaying the operation log onto fresh workers until the replay
    /// budget runs out (which poisons the session).
    fn exchange(&mut self, frame: &Frame) -> Result<Frame, String> {
        loop {
            if let Some(detail) = &self.poisoned {
                return Err(detail.clone());
            }
            let attempt = match self.worker.as_mut() {
                Some(w) => w.link.send(frame).and_then(|()| w.link.recv()),
                None => Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "no worker attached",
                )),
            };
            match attempt {
                Ok(reply) => return Ok(reply),
                Err(e) => self.recover(&e.to_string()),
            }
        }
    }

    /// [`RemoteSession::exchange`] plus a shape check on the reply.
    fn exchange_expect(
        &mut self,
        frame: &Frame,
        accept: impl Fn(&Frame) -> bool,
    ) -> Result<Frame, String> {
        let reply = self.exchange(frame)?;
        if accept(&reply) {
            Ok(reply)
        } else {
            Err(format!("protocol violation: unexpected reply {reply:?}"))
        }
    }

    /// Handles one worker death: retire the link, then (within budget)
    /// replay the session onto a fresh worker.
    fn recover(&mut self, detail: &str) {
        let dead_id = if let Some(mut worker) = self.worker.take() {
            self.fleet.emit(WorkerLifecycle::Died {
                worker: worker.id,
                detail: detail.to_string(),
            });
            worker.link.kill();
            worker.id
        } else {
            0
        };
        self.deaths += 1;
        if self.deaths > REPLAY_BUDGET {
            self.poison(&format!(
                "worker died {} times serving one session (last: {detail})",
                self.deaths
            ));
            return;
        }
        self.fleet
            .emit(WorkerLifecycle::Requeued { worker: dead_id });
        if let Ok(mut worker) = self.fleet.spawn_worker() {
            if self.replay_onto(&mut worker).is_ok() {
                self.worker = Some(worker);
            }
            // A death mid-replay leaves `worker` unset; the exchange loop
            // re-enters recover() and burns another unit of budget.
        }
    }

    /// Re-executes the whole operation log on `worker`. Workers are
    /// deterministic, so a successful replay leaves the fresh worker in
    /// bitwise the same state as the one that died.
    fn replay_onto(&mut self, worker: &mut Worker) -> io::Result<()> {
        let expect = |reply: Frame, ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("replay: unexpected reply {reply:?}"),
                ))
            }
        };
        worker.link.send(&Frame::OpenSession {
            spec: self.fleet.spec.clone(),
        })?;
        let reply = worker.link.recv()?;
        expect(reply.clone(), matches!(reply, Frame::SessionOpened))?;
        for op in &self.log {
            match op {
                Op::Write { path, content } => {
                    worker.link.send(&Frame::WriteFile {
                        path: path.clone(),
                        content: content.clone(),
                    })?;
                    let reply = worker.link.recv()?;
                    expect(reply.clone(), matches!(reply, Frame::Ack))?;
                }
                Op::Eval { script } => {
                    worker.link.send(&Frame::Eval {
                        script: script.clone(),
                    })?;
                    let reply = worker.link.recv()?;
                    match reply {
                        Frame::EvalDone {
                            elapsed_s,
                            used_exact_checkpoint,
                            files,
                            ..
                        } => {
                            self.remote_elapsed_s = elapsed_s;
                            self.used_exact = used_exact_checkpoint;
                            self.mirror.extend(files);
                        }
                        other => expect(other, false)?,
                    }
                }
            }
        }
        Ok(())
    }
}

impl ToolSession for RemoteSession {
    fn write_file(&mut self, path: &str, content: String) {
        self.mirror.insert(path.to_string(), content.clone());
        self.log.push(Op::Write {
            path: path.to_string(),
            content: content.clone(),
        });
        // A death here is absorbed (or poisons the session — surfaced by
        // the next eval, since write_file itself cannot fail).
        let _ = self.exchange_expect(
            &Frame::WriteFile {
                path: path.to_string(),
                content,
            },
            |f| matches!(f, Frame::Ack),
        );
    }

    fn read_file(&self, path: &str) -> Option<&str> {
        self.mirror.get(path).map(String::as_str)
    }

    fn eval(&mut self, script: &str) -> EdaResult<String> {
        // Injected deaths: the deterministic per-eval kill knob, plus the
        // coordinator-side fault stream's WorkerDeath draws.
        let n = self.fleet.evals_dispatched.fetch_add(1, Ordering::Relaxed) + 1;
        let mut kill = self.fleet.kill_before_eval.lock().unwrap().remove(&n);
        if let Some(inj) = &self.fleet.injector {
            kill |= inj.fires(FaultKind::WorkerDeath);
        }
        if kill {
            if let Some(worker) = self.worker.as_mut() {
                worker.link.kill();
            }
        }
        match self.exchange(&Frame::Eval {
            script: script.to_string(),
        }) {
            Ok(Frame::EvalDone {
                outcome,
                elapsed_s,
                used_exact_checkpoint,
                files,
            }) => {
                self.log.push(Op::Eval {
                    script: script.to_string(),
                });
                self.remote_elapsed_s = elapsed_s;
                self.used_exact = used_exact_checkpoint;
                self.mirror.extend(files);
                outcome
            }
            Ok(Frame::Refused { message }) => Err(EdaError::WorkerLost(message)),
            Ok(other) => Err(EdaError::WorkerLost(format!(
                "protocol violation: unexpected reply {other:?}"
            ))),
            Err(detail) => Err(EdaError::WorkerLost(detail)),
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.remote_elapsed_s + self.penalty_s
    }

    fn used_exact_checkpoint(&self) -> bool {
        self.used_exact
    }

    fn files(&self) -> Vec<(String, String)> {
        self.mirror
            .iter()
            .map(|(p, c)| (p.clone(), c.clone()))
            .collect()
    }
}

impl Drop for RemoteSession {
    fn drop(&mut self) {
        let Some(mut worker) = self.worker.take() else {
            return;
        };
        let closed = worker
            .link
            .send(&Frame::CloseSession)
            .and_then(|()| worker.link.recv());
        match closed {
            Ok(Frame::Ack) => self.fleet.release(worker),
            _ => {
                // Died while idle-bound: replace it so the fleet keeps
                // its size.
                self.fleet.emit(WorkerLifecycle::Died {
                    worker: worker.id,
                    detail: "failed to close session".to_string(),
                });
                worker.link.kill();
                if let Ok(replacement) = self.fleet.spawn_worker() {
                    self.fleet.release(replacement);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_the_wire_format() {
        let frames = vec![
            Frame::Hello { version: 7 },
            Frame::OpenSession {
                spec: "mock:42".into(),
            },
            Frame::SessionOpened,
            Frame::WriteFile {
                path: "src/fifo.sv".into(),
                content: "module fifo; endmodule".into(),
            },
            Frame::Ack,
            Frame::Eval {
                script: "synth_design -top fifo".into(),
            },
            Frame::EvalDone {
                outcome: Ok("ok".into()),
                elapsed_s: 12.5,
                used_exact_checkpoint: true,
                files: vec![("util.rpt".into(), "| Slice LUTs | 4 |".into())],
            },
            Frame::EvalDone {
                outcome: Err(EdaError::Timeout("route_design hung".into())),
                elapsed_s: 300.0,
                used_exact_checkpoint: false,
                files: vec![],
            },
            Frame::CloseSession,
            Frame::Shutdown,
            Frame::Refused {
                message: "no open session".into(),
            },
        ];
        for frame in frames {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame).unwrap();
            let back = read_frame(&mut wire.as_slice()).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn every_error_variant_survives_the_wire() {
        let errors = [
            EdaError::Tcl("a".into()),
            EdaError::FileNotFound("b".into()),
            EdaError::Parse("c".into()),
            EdaError::UnknownModule("d".into()),
            EdaError::UnknownPart("e".into()),
            EdaError::Parameter("f".into()),
            EdaError::Elaboration("g".into()),
            EdaError::ResourceOverflow("h".into()),
            EdaError::FlowOrder("i".into()),
            EdaError::Checkpoint("j".into()),
            EdaError::ToolCrash("k".into()),
            EdaError::Timeout("l".into()),
            EdaError::WorkerLost("m".into()),
        ];
        for e in errors {
            let decoded = error_from_code(error_code(&e), error_message(&e).to_string()).unwrap();
            assert_eq!(decoded, e);
            assert_eq!(decoded.is_transient(), e.is_transient());
        }
    }

    #[test]
    fn truncated_and_oversized_frames_are_invalid_data_not_panics() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ack).unwrap();
        for cut in 0..wire.len() {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let err = read_frame(&mut &huge[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let garbage = [3u8, 0, 0, 0, 99, 99, 99];
        let err = read_frame(&mut &garbage[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
