//! Worker-side wire layer for distributed evaluation.
//!
//! The coordinator half (frame protocol, worker pool, session replay)
//! lives in `dovado_eda::remote` behind the [`crate::backend`] boundary;
//! this module is everything that needs to know about concrete backends
//! and processes:
//!
//! - [`serve`] — the worker loop: read frames, drive a freshly-built
//!   backend session, write replies. [`serve_stdio`] binds it to stdio
//!   for the `dovado worker` CLI subcommand.
//! - [`backend_from_spec`] — the spec strings workers build sessions
//!   from (`mock:7`, `vivado-sim:7`, `mock:7:spin=50`).
//! - [`process_fleet`] / [`thread_fleet`] — [`RemoteBackend`]
//!   constructors over child processes (production) or in-process serve
//!   threads (tests and benches, which must not re-exec the test binary).
//! - [`attach_lifecycle`] — forwards worker lifecycle transitions onto
//!   an [`EventBus`] as [`ObsEvent::Worker`] side-channel events.
//!
//! Workers are stateless and *clean*: each `OpenSession` builds a fresh
//! backend from the spec, with no fault injector, no shared checkpoint
//! store, and no persistent store (store lookups happen coordinator-side
//! before dispatch). A worker's answers are therefore a pure function of
//! the write/eval sequence it receives — which is what lets the
//! coordinator replay a dead worker's session bitwise onto a fresh one.

use crate::backend::{MockBackend, RemoteBackend, SimBackend, ToolBackend, ToolSession};
use crate::obs::{EventBus, ObsEvent};
use dovado_eda::remote::{
    read_frame, write_frame, Frame, WorkerLifecycle, WorkerLink, PROTOCOL_VERSION,
};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Backend specs
// ---------------------------------------------------------------------------

/// Builds the worker-side backend a spec string names.
///
/// Specs are `kind:seed[:spin=MS]`: `mock:7`, `vivado-sim:42`,
/// `mock:7:spin=50` (the mock's wall-clock spin knob, for benches).
/// Returns `None` for anything unrecognized.
pub fn backend_from_spec(spec: &str) -> Option<Box<dyn ToolBackend>> {
    let mut parts = spec.split(':');
    let kind = parts.next()?;
    let seed: u64 = parts.next()?.parse().ok()?;
    let mut spin_ms = 0u64;
    for extra in parts {
        let (key, value) = extra.split_once('=')?;
        match key {
            "spin" => spin_ms = value.parse().ok()?,
            _ => return None,
        }
    }
    match kind {
        "mock" => Some(Box::new(MockBackend::new(seed).with_spin_ms(spin_ms))),
        "vivado-sim" if spin_ms == 0 => Some(Box::new(SimBackend::new(seed))),
        _ => None,
    }
}

/// The name of the backend a spec builds (`mock:7` for `mock:7:spin=50`).
/// Coordinators use it so a fleet reports the *inner* backend's identity
/// and shares its store entries.
pub fn backend_name_of_spec(spec: &str) -> Option<String> {
    backend_from_spec(spec).map(|b| b.name().to_string())
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

/// Runs the worker protocol loop over the given streams until
/// [`Frame::Shutdown`] or EOF (a vanished coordinator is a clean exit,
/// not an error).
pub fn serve(input: &mut dyn Read, output: &mut dyn Write) -> io::Result<()> {
    let mut session: Option<Box<dyn ToolSession + Send>> = None;
    loop {
        let frame = match read_frame(input) {
            Ok(frame) => frame,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let reply = match frame {
            Frame::Hello { .. } => Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::OpenSession { spec } => match backend_from_spec(&spec) {
                Some(backend) => {
                    session = Some(backend.open_session());
                    Frame::SessionOpened
                }
                None => Frame::Refused {
                    message: format!("unknown worker spec `{spec}`"),
                },
            },
            Frame::WriteFile { path, content } => match session.as_mut() {
                Some(s) => {
                    s.write_file(&path, content);
                    Frame::Ack
                }
                None => Frame::Refused {
                    message: "write_file: no open session".into(),
                },
            },
            Frame::Eval { script } => match session.as_mut() {
                Some(s) => {
                    let outcome = s.eval(&script);
                    Frame::EvalDone {
                        outcome,
                        elapsed_s: s.elapsed_s(),
                        used_exact_checkpoint: s.used_exact_checkpoint(),
                        files: s.files(),
                    }
                }
                None => Frame::Refused {
                    message: "eval: no open session".into(),
                },
            },
            Frame::CloseSession => {
                session = None;
                Frame::Ack
            }
            Frame::Shutdown => return Ok(()),
            // Worker-to-coordinator frames arriving here are protocol
            // misuse by the peer.
            other => Frame::Refused {
                message: format!("unexpected frame {other:?}"),
            },
        };
        write_frame(output, &reply)?;
    }
}

/// [`serve`] bound to the process's stdio — the body of the `dovado
/// worker` CLI subcommand. stdout carries only protocol frames; anything
/// human-readable belongs on stderr.
pub fn serve_stdio() -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve(&mut stdin.lock(), &mut stdout.lock())
}

// ---------------------------------------------------------------------------
// In-memory transport (tests, benches)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Default)]
struct PipeChannel {
    state: Mutex<PipeState>,
    ready: Condvar,
}

impl PipeChannel {
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// Read half of an in-memory pipe; blocking, EOF once the channel is
/// closed and drained.
struct PipeReader(Arc<PipeChannel>);

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.0.state.lock().unwrap();
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("len checked");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = self.0.ready.wait(state).unwrap();
        }
    }
}

/// Write half of an in-memory pipe; fails with `BrokenPipe` once closed.
struct PipeWriter(Arc<PipeChannel>);

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut state = self.0.state.lock().unwrap();
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "pipe closed (worker killed)",
            ));
        }
        state.buf.extend(data.iter().copied());
        self.0.ready.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn pipe() -> (PipeWriter, PipeReader, Arc<PipeChannel>) {
    let channel = Arc::new(PipeChannel::default());
    (
        PipeWriter(Arc::clone(&channel)),
        PipeReader(Arc::clone(&channel)),
        channel,
    )
}

/// A worker running [`serve`] on an in-process thread, linked by a pair
/// of in-memory pipes. `kill` closes both pipes, which the coordinator
/// observes exactly like a dead child process.
struct ThreadWorker {
    writer: PipeWriter,
    reader: PipeReader,
    to_worker: Arc<PipeChannel>,
    from_worker: Arc<PipeChannel>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadWorker {
    fn spawn() -> ThreadWorker {
        let (coord_writer, mut worker_reader, to_worker) = pipe();
        let (mut worker_writer, coord_reader, from_worker) = pipe();
        let handle = std::thread::spawn(move || {
            let _ = serve(&mut worker_reader, &mut worker_writer);
        });
        ThreadWorker {
            writer: coord_writer,
            reader: coord_reader,
            to_worker,
            from_worker,
            handle: Some(handle),
        }
    }
}

impl WorkerLink for ThreadWorker {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.writer, frame)
    }

    fn recv(&mut self) -> io::Result<Frame> {
        read_frame(&mut self.reader)
    }

    fn kill(&mut self) {
        self.to_worker.close();
        self.from_worker.close();
    }
}

impl Drop for ThreadWorker {
    fn drop(&mut self) {
        self.to_worker.close();
        self.from_worker.close();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet constructors
// ---------------------------------------------------------------------------

/// A [`RemoteBackend`] whose workers are in-process threads running
/// [`serve`] over in-memory pipes. Protocol, pool, replay, and lifecycle
/// behavior are identical to a process fleet; only the transport
/// differs. Tests and benches use this so they never re-exec their own
/// binary.
pub fn thread_fleet(spec: &str, workers: usize) -> io::Result<RemoteBackend> {
    let name = backend_name_of_spec(spec).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown worker spec `{spec}`"),
        )
    })?;
    RemoteBackend::new(
        &name,
        spec,
        workers,
        Box::new(|| Ok(Box::new(ThreadWorker::spawn()) as Box<dyn WorkerLink + Send>)),
    )
}

/// A [`RemoteBackend`] whose workers are child processes started with
/// `command` (typically `[dovado-binary, "worker"]`), speaking the frame
/// protocol over their stdio.
pub fn process_fleet(
    command: Vec<String>,
    spec: &str,
    workers: usize,
) -> io::Result<RemoteBackend> {
    let name = backend_name_of_spec(spec).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown worker spec `{spec}`"),
        )
    })?;
    RemoteBackend::new(
        &name,
        spec,
        workers,
        Box::new(move || {
            let worker = dovado_eda::remote::ProcessWorker::spawn(&command)?;
            Ok(Box::new(worker) as Box<dyn WorkerLink + Send>)
        }),
    )
}

/// Forwards the fleet's lifecycle transitions (spawn, steal, death,
/// requeue) onto `bus` as [`ObsEvent::Worker`] side-channel events.
pub fn attach_lifecycle(backend: &RemoteBackend, bus: &EventBus) {
    let bus = bus.clone();
    backend.set_lifecycle_hook(Arc::new(move |event| {
        let (worker, kind, detail) = match event {
            WorkerLifecycle::Spawned { worker } => (*worker, "spawned", String::new()),
            WorkerLifecycle::Stole { worker } => (*worker, "stole", String::new()),
            WorkerLifecycle::Died { worker, detail } => (*worker, "died", detail.clone()),
            WorkerLifecycle::Requeued { worker } => (*worker, "requeued", String::new()),
        };
        bus.emit_worker(ObsEvent::Worker {
            worker,
            kind,
            detail,
        });
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_reject() {
        assert_eq!(backend_from_spec("mock:7").unwrap().name(), "mock:7");
        assert_eq!(
            backend_from_spec("vivado-sim:42").unwrap().name(),
            "vivado-sim:42"
        );
        assert_eq!(backend_from_spec("mock:7:spin=5").unwrap().name(), "mock:7");
        assert!(backend_from_spec("vivado-sim:7:spin=5").is_none());
        assert!(backend_from_spec("mock").is_none());
        assert!(backend_from_spec("mock:x").is_none());
        assert!(backend_from_spec("quantum:7").is_none());
        assert_eq!(backend_name_of_spec("mock:7:spin=5").unwrap(), "mock:7");
        assert_eq!(backend_name_of_spec("quantum:7"), None);
    }

    #[test]
    fn serve_runs_a_session_over_in_memory_pipes() {
        let mut worker = ThreadWorker::spawn();
        let rpc = |w: &mut ThreadWorker, frame: &Frame| {
            w.send(frame).unwrap();
            w.recv().unwrap()
        };
        assert_eq!(
            rpc(&mut worker, &Frame::Hello { version: 99 }),
            Frame::Hello {
                version: PROTOCOL_VERSION
            }
        );
        // Eval before open is refused, not fatal.
        assert!(matches!(
            rpc(
                &mut worker,
                &Frame::Eval {
                    script: "exit".into()
                }
            ),
            Frame::Refused { .. }
        ));
        assert_eq!(
            rpc(
                &mut worker,
                &Frame::OpenSession {
                    spec: "mock:7".into()
                }
            ),
            Frame::SessionOpened
        );
        assert_eq!(
            rpc(
                &mut worker,
                &Frame::WriteFile {
                    path: "src/fifo.sv".into(),
                    content: "module fifo #(parameter DEPTH = 8)(input logic clk_i); endmodule"
                        .into(),
                }
            ),
            Frame::Ack
        );
        let reply = rpc(
            &mut worker,
            &Frame::Eval {
                script: "create_project dovado -part xc7k70tfbv676-1\n\
                         read_verilog -sv src/fifo.sv\n\
                         synth_design -top fifo\n\
                         report_utilization -file util.rpt"
                    .into(),
            },
        );
        match reply {
            Frame::EvalDone {
                outcome,
                elapsed_s,
                files,
                ..
            } => {
                outcome.unwrap();
                assert!(elapsed_s > 0.0);
                assert!(files.iter().any(|(p, _)| p == "util.rpt"));
            }
            other => panic!("expected EvalDone, got {other:?}"),
        }
        assert_eq!(rpc(&mut worker, &Frame::CloseSession), Frame::Ack);
        worker.send(&Frame::Shutdown).unwrap();
    }

    #[test]
    fn killed_pipe_reads_eof_and_writes_broken_pipe() {
        let mut worker = ThreadWorker::spawn();
        worker.kill();
        assert!(worker.send(&Frame::Ack).is_err());
        let err = worker.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
