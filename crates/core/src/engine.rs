//! The evaluation engine: [`Evaluator`].
//!
//! One pipeline owns every per-point evaluation in Dovado, regardless of
//! which layer asked for it (a single `evaluate`, a fitness batch, an
//! exploration). Each point passes three steps, outermost first:
//!
//! 1. **Store** — persistent-store lookup before any tool attempt; a hit
//!    is a bitwise substitute for the run (zero attempts, zero simulated
//!    time), a fresh success is committed back.
//! 2. **Retry** — retry with capped backoff for transient failures, the
//!    timeout degradation to synthesis-only, checkpoint-corruption
//!    fallback to the non-incremental flow, and per-attempt emission on
//!    the observability spine ([`crate::obs`]).
//! 3. **Attempt** — one tool session per attempt: script generation
//!    from the TCL frames, execution through the [`ToolBackend`] seam,
//!    and report scraping.
//!
//! All accounting — time, runs, retries, store hits — is *derived* from
//! the spine's event stream; no step mutates a counter directly.
//!
//! Scheduling (serial, rayon-parallel or distributed, [`Schedule`]) and
//! persistence (none vs an attached [`EvalStore`]) are evaluator
//! *configuration*, not separate code paths — which is what keeps
//! parallel == sequential and resume bitwise-identical across backends.

use crate::backend::{SimBackend, ToolBackend, ToolSession};
use crate::boxing::{box_file_name, generate_box, BOX_CLOCK, BOX_TOP};
use crate::error::{DovadoError, DovadoResult};
use crate::flow::{EvalConfig, FlowStep, HdlSource};
use crate::frames::{fill, read_sources_script, tcl_word, SourceEntry, IMPL_FRAME, SYNTH_FRAME};
use crate::metrics::{fmax_mhz, Evaluation};
use crate::obs::{EventBus, EventKey, ObsEvent, SpineSnapshot};
use crate::point::DesignPoint;
use crate::trace::{AttemptOutcome, FlowEvent, TraceSummary};
use dovado_eda::{report, EdaError, EvalKey, EvalStore, FaultInjector};
use dovado_hdl::ModuleInterface;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How [`Evaluator::evaluate_many`] schedules its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One point after another on the calling thread.
    #[default]
    Serial,
    /// Fan out across the ambient rayon pool (the CLI sizes it from
    /// `--jobs`). Results are returned in input order and are bitwise
    /// those of a serial run.
    Parallel,
    /// Work-stealing dispatch for a worker fleet: `workers` dispatcher
    /// threads claim pending points through a shared atomic cursor, so an
    /// idle dispatcher (and the remote worker it leases) always pulls the
    /// next pending point — one straggling place-and-route run never
    /// blocks the batch. Pairs with a
    /// [`crate::backend::RemoteBackend`]-backed engine, whose session
    /// pool holds the actual worker processes; results are returned in
    /// input order and are bitwise those of a serial run.
    Distributed {
        /// Number of concurrent dispatchers (sized to the worker fleet).
        workers: usize,
    },
}

/// The boolean spelling: `true` is [`Schedule::Parallel`], `false`
/// [`Schedule::Serial`].
impl From<bool> for Schedule {
    fn from(parallel: bool) -> Schedule {
        if parallel {
            Schedule::Parallel
        } else {
            Schedule::Serial
        }
    }
}

/// Shared validator behind [`validate_jobs`] and [`validate_workers`]:
/// zero-size pools are configuration errors, not panics.
fn validate_pool_size(flag: &str, n: usize) -> DovadoResult<usize> {
    if n == 0 {
        return Err(DovadoError::Config(format!(
            "{flag}: must be at least 1 (a zero-worker pool cannot run anything)"
        )));
    }
    Ok(n)
}

/// Validates a worker-thread count before it reaches the thread-pool
/// builder. Zero workers cannot make progress (and asks the vendored
/// rayon shim for an empty pool), so it is a configuration error, not a
/// panic. Applied wherever `--jobs` sizes a pool.
pub fn validate_jobs(jobs: usize) -> DovadoResult<usize> {
    validate_pool_size("--jobs", jobs)
}

/// Validates a distributed fleet size ([`Schedule::Distributed`], CLI
/// `--workers`, programmatic `DseConfig::workers`) with the same rule as
/// [`validate_jobs`].
pub fn validate_workers(workers: usize) -> DovadoResult<usize> {
    validate_pool_size("--workers", workers)
}

/// Validates an evaluation-store capacity bound (CLI `--store-capacity`,
/// programmatic `PersistConfig::store_capacity`, serve config). `None`
/// is the explicit unbounded default; `Some(0)` could cache nothing and
/// is a configuration error under the same convention as
/// [`validate_jobs`] / [`validate_workers`].
pub fn validate_store_capacity(capacity: Option<usize>) -> DovadoResult<Option<usize>> {
    if capacity == Some(0) {
        return Err(DovadoError::Config(
            "--store-capacity: must be at least 1 (a zero-entry store cannot cache anything; \
             omit the flag for unbounded)"
                .into(),
        ));
    }
    Ok(capacity)
}

/// Everything an attempt needs to run the flow.
struct FlowContext {
    sources: Arc<Vec<HdlSource>>,
    module: Arc<ModuleInterface>,
    scripts: Arc<FlowScripts>,
    config: EvalConfig,
}

/// An evaluator's tool scripts, filled from the frames once. A design
/// point reaches the tool through the generated box file, never through
/// the script text, so every attempt runs the same scripts.
struct FlowScripts {
    /// Tool path of each user source, same order as the sources.
    source_paths: Vec<String>,
    /// Tool path of the generated box.
    box_path: String,
    /// The synthesis script without the incremental checkpoint read.
    synth: String,
    /// The synthesis script with it.
    synth_incremental: String,
    /// The implementation script.
    implementation: String,
}

/// Tool path of the incremental flow's synthesis checkpoint.
const SYNTH_DCP: &str = "post_synth.dcp";

impl FlowScripts {
    /// Fills the frames for `sources` (with their "declares a package"
    /// flags) and the box of `module`, writing every user value as one
    /// TCL word.
    fn build(
        sources: &[HdlSource],
        package_flags: &[bool],
        module: &ModuleInterface,
        config: &EvalConfig,
    ) -> DovadoResult<FlowScripts> {
        let period = clock_period(config.target_period_ns)?;
        let source_paths: Vec<String> = sources.iter().map(|s| format!("src/{}", s.name)).collect();
        let box_path = format!("src/{}", box_file_name(module.language));
        let mut entries: Vec<SourceEntry> = sources
            .iter()
            .zip(&source_paths)
            .zip(package_flags)
            .map(|((src, path), &has_packages)| SourceEntry {
                path: path.clone(),
                language: src.language,
                library: src.library.clone(),
                has_packages,
            })
            .collect();
        entries.push(SourceEntry {
            path: box_path.clone(),
            language: module.language,
            library: None,
            has_packages: false,
        });
        let read_sources = read_sources_script(&entries)?;
        let part = tcl_word("part", &config.part)?;
        let synth_directive = tcl_word("synthesis directive", &config.synth_directive)?;
        let impl_directive = tcl_word("implementation directive", &config.impl_directive)?;
        let synth = |incremental: &str| {
            fill(
                SYNTH_FRAME,
                &[
                    ("PROJECT", "dovado"),
                    ("PART", &part),
                    ("READ_SOURCES", read_sources.trim_end()),
                    ("TOP", BOX_TOP),
                    ("INCREMENTAL", incremental),
                    ("SYNTH_DIRECTIVE", &synth_directive),
                    ("PERIOD", &period),
                    ("CLOCK", BOX_CLOCK),
                    ("UTIL_RPT", "util_synth.rpt"),
                    ("TIMING_RPT", "timing_synth.rpt"),
                    ("POWER_RPT", "power_synth.rpt"),
                    ("SYNTH_DCP", SYNTH_DCP),
                ],
            )
        };
        Ok(FlowScripts {
            synth: synth("")?,
            synth_incremental: synth(&format!("read_checkpoint -incremental {SYNTH_DCP}"))?,
            implementation: fill(
                IMPL_FRAME,
                &[
                    ("IMPL_DIRECTIVE", &impl_directive),
                    ("UTIL_RPT", "util_impl.rpt"),
                    ("TIMING_RPT", "timing_impl.rpt"),
                    ("POWER_RPT", "power_impl.rpt"),
                    ("IMPL_DCP", "post_route.dcp"),
                ],
            )?,
            source_paths,
            box_path,
        })
    }
}

/// The `create_clock -period` value for a target period: nanoseconds to
/// the constraint's 3-decimal resolution. A period that renders as zero or
/// less (0.0004 ns renders as `0.000`), or as no finite number, is a
/// configuration error here, rather than a clock that fails every attempt.
fn clock_period(period_ns: f64) -> DovadoResult<String> {
    let period = format!("{period_ns:.3}");
    if period
        .parse::<f64>()
        .is_ok_and(|p| p > 0.0 && p.is_finite())
    {
        Ok(period)
    } else {
        Err(DovadoError::Config(format!(
            "target period {period_ns} ns renders as {period} ns at the clock constraint's \
             3-decimal resolution; it must be a finite number of at least 0.001 ns"
        )))
    }
}

/// What one tool attempt produced, for the retry step's bookkeeping.
struct AttemptReport {
    result: DovadoResult<Evaluation>,
    /// Simulated seconds this attempt burned (already charged).
    tool_time_s: f64,
    /// Whether the tool answered from an exact checkpoint.
    cached: bool,
}

/// The design-automation evaluator (paper §III-A): parse → box →
/// generate scripts → run the tool → scrape reports, behind the store
/// and retry steps described in the [module docs](self).
///
/// Cheap to clone and thread-safe — clones share the spine, the backend
/// (and with it the tool-level checkpoint store and fault stream), the
/// incremental-flow checkpoint flag and the attached persistent store, so
/// the incremental flow and soft-deadline accounting work across
/// parallel evaluations.
#[derive(Clone)]
pub struct Evaluator {
    ctx: Arc<FlowContext>,
    backend: Arc<dyn ToolBackend>,
    /// The spine every accounting signal is emitted on.
    bus: EventBus,
    /// Whether any prior run left a synthesis checkpoint (enables the
    /// incremental read on subsequent scripts). Stored only when it
    /// changes, so successful attempts on other threads read a clean
    /// line instead of taking turns at a lock. Relaxed accesses suffice:
    /// dispatch snapshots it once per batch, after the previous batch
    /// joined.
    has_checkpoint: Arc<AtomicBool>,
    /// Persistent evaluation store plus the evaluator's content key;
    /// `None` = always run the tool.
    store: Option<(EvalStore, EvalKey)>,
}

impl Evaluator {
    /// Parses the sources, locates `top_module`, and builds an evaluator
    /// on the default simulator backend (seeded and fault-injected per
    /// the config).
    pub fn new(
        sources: Vec<HdlSource>,
        top_module: &str,
        config: EvalConfig,
    ) -> DovadoResult<Evaluator> {
        let backend = Arc::new(SimBackend::with_faults(config.seed, config.faults.clone()));
        Evaluator::with_backend(sources, top_module, config, backend)
    }

    /// Like [`Evaluator::new`], but evaluating through the given tool
    /// backend. The config's fault plan is ignored in favor of the
    /// backend's own injector (the backend owns the fault stream).
    pub fn with_backend(
        sources: Vec<HdlSource>,
        top_module: &str,
        config: EvalConfig,
        backend: Arc<dyn ToolBackend>,
    ) -> DovadoResult<Evaluator> {
        let mut found: Option<ModuleInterface> = None;
        let mut package_flags = Vec::with_capacity(sources.len());
        for src in &sources {
            let (file, diags) = dovado_hdl::parse_source(src.language, &src.content)
                .map_err(|e| DovadoError::Parse(format!("{}: {e}", src.name)))?;
            if diags.has_errors() {
                return Err(DovadoError::Parse(format!(
                    "{}: {}",
                    src.name,
                    diags
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                )));
            }
            package_flags.push(!file.packages.is_empty());
            if let Some(m) = file.module(top_module) {
                found = Some(m.clone());
            }
        }
        let module = found.ok_or_else(|| DovadoError::UnknownModule(top_module.to_string()))?;
        let scripts = FlowScripts::build(&sources, &package_flags, &module, &config)?;
        let ctx = FlowContext {
            sources: Arc::new(sources),
            module: Arc::new(module),
            scripts: Arc::new(scripts),
            config,
        };
        Ok(Evaluator::fresh(ctx, backend))
    }

    /// An evaluator over `ctx` and `backend` with a fresh spine, a fresh
    /// checkpoint flag and no store.
    fn fresh(ctx: FlowContext, backend: Arc<dyn ToolBackend>) -> Evaluator {
        Evaluator {
            ctx: Arc::new(ctx),
            backend,
            bus: EventBus::new(),
            has_checkpoint: Arc::new(AtomicBool::new(false)),
            store: None,
        }
    }

    /// Builds a low-fidelity sibling evaluator for portfolio racing: the
    /// same parsed sources, module, scripts and *backend instance*, but
    /// with the flow truncated to `step` (synthesis-only is the simulator's
    /// degraded mode — cheap, correlated signal before paying for full
    /// place-and-route). The probe gets a fresh event spine and a fresh
    /// incremental-flow checkpoint flag and never attaches a store, so
    /// probe evaluations are invisible to the parent's canonical trace
    /// and persistent store; the caller decides what (if anything) to
    /// charge back — the portfolio selector folds the probe totals into
    /// one `SelectorDecision` event.
    pub fn probe_with_step(&self, step: FlowStep) -> Evaluator {
        let ctx = FlowContext {
            sources: self.ctx.sources.clone(),
            module: self.ctx.module.clone(),
            scripts: self.ctx.scripts.clone(),
            config: EvalConfig {
                step,
                ..self.ctx.config.clone()
            },
        };
        Evaluator::fresh(ctx, self.backend.clone())
    }

    /// Attaches a persistent evaluation store. Subsequent evaluations
    /// first look up the point's content-addressed key — a hit returns
    /// the stored metrics bitwise, with zero tool runs, zero attempts
    /// and zero simulated time; a fresh success is written back. The key
    /// extends [`content_key`](Self::content_key), so any change to the
    /// sources, config or backend identity invalidates the store
    /// automatically — and evaluators over differently-seeded backends
    /// can share one store without answering for each other.
    ///
    /// Evictions from a capacity-bounded store surface as
    /// [`ObsEvent::StoreEvicted`] on the spine's side channel (never the
    /// canonical stream — see [`EventBus::emit_store_evicted`]).
    pub fn attach_store(&mut self, store: EvalStore) {
        let bus = self.bus.clone();
        store.set_eviction_hook(Arc::new(move |hex: &str| {
            bus.emit_store_evicted(ObsEvent::StoreEvicted {
                key: hex.to_string(),
            });
        }));
        self.store = Some((store, self.content_key()));
    }

    /// The evaluator's 128-bit content identity: a stable hash of the
    /// sources, top module, full [`EvalConfig`] and the backend's
    /// [`name`](ToolBackend::name) (its full identity, seed included).
    /// Store keys and the journal fingerprint both build on it.
    pub fn content_key(&self) -> EvalKey {
        crate::persist::evaluator_key(
            &self.ctx.sources,
            &self.ctx.module.name,
            &self.ctx.config,
            self.backend.name(),
        )
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&EvalStore> {
        self.store.as_ref().map(|(s, _)| s)
    }

    /// The backend's shared fault injector, if fault injection is active.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.backend.injector()
    }

    /// The evaluator's observability spine — the single event stream
    /// every counter and summary in Dovado is derived from: attempts,
    /// store hits, charged time, resume splices, plus the
    /// exploration-level events the DSE layer emits.
    pub fn spine(&self) -> &EventBus {
        &self.bus
    }

    /// A consistent snapshot of the spine (canonical events + exact
    /// totals), suitable for sinks such as [`crate::obs::write_jsonl`].
    pub fn snapshot(&self) -> SpineSnapshot {
        self.bus.snapshot()
    }

    /// Charges simulated seconds straight to the tool-time ledger by
    /// emitting an [`ObsEvent::TimeCharged`] on the spine.
    pub fn charge_time(&self, seconds: f64) {
        self.bus.emit_next(ObsEvent::TimeCharged { seconds });
    }

    /// Splices journaled totals into the spine on `--resume`: the caller
    /// passes the *deficit* between the journal and this evaluator's
    /// live totals, so same-process resumes (which already observed
    /// every attempt) splice zero and nothing is double-counted.
    pub fn record_resume(&self, summary: TraceSummary, runs: u64, tool_time_s: f64) {
        self.bus.emit_next(ObsEvent::Resume {
            summary,
            runs,
            tool_time_s,
        });
    }

    /// The parsed interface of the module under evaluation.
    pub fn module(&self) -> &ModuleInterface {
        &self.ctx.module
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.ctx.config
    }

    /// Cumulative simulated tool seconds, including failed attempts and
    /// retry backoff — a view over the spine's folded totals.
    pub fn total_tool_time(&self) -> f64 {
        self.bus.totals().tool_time_s
    }

    /// Number of successful tool invocations so far — a view over the
    /// spine's folded totals.
    pub fn total_runs(&self) -> u64 {
        self.bus.totals().runs
    }

    /// Snapshot of the retained per-attempt events in canonical order —
    /// the attempt-typed slice of the spine.
    pub fn events(&self) -> Vec<FlowEvent> {
        self.bus
            .events()
            .into_iter()
            .filter_map(|(_, event)| match event {
                ObsEvent::Attempt(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    /// Whole-run trace counters (attempts, retries, failures by class,
    /// cache hits, backoff charged), folded from the event stream.
    pub fn trace_summary(&self) -> TraceSummary {
        self.bus.totals().summary
    }

    /// Evaluates one design point end-to-end, retrying transient tool
    /// failures per the configured [`crate::RetryPolicy`].
    ///
    /// Permanent failures (infeasible design, parse error) return
    /// immediately. Transient failures (crash, timeout, corrupt report or
    /// checkpoint) back off — charged to the simulated-time ledger — and
    /// retry up to `max_attempts`; exhaustion surfaces as
    /// [`DovadoError::RetriesExhausted`], never as fabricated metrics.
    pub fn evaluate(&self, point: &DesignPoint) -> DovadoResult<Evaluation> {
        let seq = self.bus.alloc(1);
        let result = self.evaluate_at(point, seq, self.checkpoint_basis());
        self.bus.settle();
        result
    }

    /// Evaluates many points per `schedule` — a [`Schedule`], or `true`
    /// / `false` for parallel / serial. Each evaluation runs its own tool
    /// session; the backend's checkpoint store is shared, matching how
    /// Dovado parallelizes real Vivado runs. Results come back in input
    /// order, and every schedule produces a byte-identical trace; only
    /// wall-clock differs.
    ///
    /// A contiguous block of spine sequence numbers is reserved in input
    /// order *before* any fan-out, so the event stream's canonical order
    /// is identical for every schedule. Once every point has returned,
    /// the batch's simulated seconds fold into the totals in that order
    /// ([`EventBus::settle`]), so the totals are identical too.
    pub fn evaluate_many(
        &self,
        points: &[DesignPoint],
        schedule: impl Into<Schedule>,
    ) -> Vec<DovadoResult<Evaluation>> {
        let start = self.bus.alloc(points.len() as u64);
        let basis = self.checkpoint_basis();
        let indexed: Vec<(u64, &DesignPoint)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (start + i as u64, p))
            .collect();
        let results = match schedule.into() {
            Schedule::Parallel => {
                use rayon::prelude::*;
                indexed
                    .par_iter()
                    .map(|&(seq, p)| self.evaluate_at(p, seq, basis))
                    .collect()
            }
            Schedule::Serial => indexed
                .iter()
                .map(|&(seq, p)| self.evaluate_at(p, seq, basis))
                .collect(),
            Schedule::Distributed { workers } => self.evaluate_stealing(&indexed, workers, basis),
        };
        self.bus.settle();
        results
    }

    /// Snapshot of the incremental-flow checkpoint basis, taken once per
    /// dispatch. Every point in a batch sees the same basis, so the
    /// decision is a function of batch order — not of which concurrently
    /// running evaluation happened to finish first — and the trace stays
    /// byte-identical across serial, rayon, and distributed schedules.
    fn checkpoint_basis(&self) -> bool {
        self.has_checkpoint.load(Ordering::Relaxed)
    }

    /// The work-stealing dispatch behind [`Schedule::Distributed`]: the
    /// atomic cursor over the pre-sequenced points *is* the queue — each
    /// of the `workers` dispatcher threads claims the next pending point
    /// the moment it goes idle, and results land in their input-order
    /// slots. Sequence numbers were allocated before fan-out, so the
    /// canonical event stream is bitwise the serial one.
    fn evaluate_stealing(
        &self,
        indexed: &[(u64, &DesignPoint)],
        workers: usize,
        basis: bool,
    ) -> Vec<DovadoResult<Evaluation>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = indexed.len();
        let dispatchers = workers.max(1).min(n.max(1));
        if dispatchers <= 1 {
            return indexed
                .iter()
                .map(|&(seq, p)| self.evaluate_at(p, seq, basis))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<DovadoResult<Evaluation>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..dispatchers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (seq, p) = indexed[i];
                    *slots[i].lock() = Some(self.evaluate_at(p, seq, basis));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index claimed exactly once"))
            .collect()
    }

    /// The store step: persistent-store lookup and commit around
    /// [`run_with_retries`](Self::run_with_retries), for the point
    /// dispatched at sequence `seq`.
    fn evaluate_at(&self, point: &DesignPoint, seq: u64, basis: bool) -> DovadoResult<Evaluation> {
        let label = point.as_assignments();

        // A hit is a bitwise substitute for the tool run (evaluations are
        // pure functions of point + config + backend), so it returns
        // before any attempt is made or time is charged. An undecodable
        // entry reads as a miss and is overwritten below.
        let store_key = self
            .store
            .as_ref()
            .map(|(store, base)| (store, base.extend(&[&label])));
        if let Some((store, key)) = &store_key {
            if let Some(eval) = store
                .get(key)
                .and_then(|payload| crate::persist::decode_evaluation(&payload))
            {
                self.bus.emit(
                    EventKey { seq, sub: 0 },
                    ObsEvent::StoreHit {
                        point: label.clone(),
                    },
                );
                return Ok(eval);
            }
        }
        let evaluation = self.run_with_retries(point, &label, seq, basis)?;
        if let Some((store, key)) = &store_key {
            // Best-effort: a failed write only costs a future re-run,
            // never a wrong answer. Failures are never stored.
            let _ = store.put(key, &crate::persist::encode_evaluation(&evaluation));
        }
        Ok(evaluation)
    }

    /// The retry step: retry with capped backoff, degradation to
    /// synthesis-only after repeated timeouts, checkpoint fallback, and
    /// per-attempt emission on the spine.
    ///
    /// Attempts for the point dispatched at sequence `seq` are keyed
    /// `(seq, attempt)` — canonical order is decided by dispatch order,
    /// not by which worker thread finishes first.
    fn run_with_retries(
        &self,
        point: &DesignPoint,
        label: &str,
        seq: u64,
        basis: bool,
    ) -> DovadoResult<Evaluation> {
        let config = &self.ctx.config;
        let policy = &config.retry;
        let max_attempts = policy.max_attempts.max(1);
        let mut step = config.step;
        let mut incremental = config.incremental && basis;
        let mut timeouts = 0u32;

        for attempt in 1..=max_attempts {
            let report = self.attempt(point, step, incremental);
            // The step/incremental the attempt actually ran with — the
            // code below may change them for the *next* attempt.
            let (used_step, used_incremental) = (step, incremental);
            let tool_time_s = report.tool_time_s;
            let event = |outcome, backoff_s, cached| {
                ObsEvent::Attempt(FlowEvent {
                    point: label.to_string(),
                    attempt,
                    step: used_step,
                    outcome,
                    tool_time_s,
                    backoff_s,
                    incremental: used_incremental,
                    cached,
                })
            };
            let key = EventKey { seq, sub: attempt };
            match report.result {
                Ok(evaluation) => {
                    self.bus
                        .emit(key, event(AttemptOutcome::Success, 0.0, report.cached));
                    return Ok(evaluation);
                }
                Err(e) if e.is_transient() && attempt < max_attempts => {
                    // After the configured number of timeouts, remaining
                    // attempts fall back to synthesis: post-synth metrics
                    // are optimistic but beat a penalty vector.
                    if e.is_timeout() {
                        timeouts += 1;
                        if policy
                            .degrade_after_timeouts
                            .is_some_and(|limit| timeouts >= limit)
                        {
                            step = FlowStep::Synthesis;
                        }
                    }
                    if matches!(&e, DovadoError::Eda(EdaError::Checkpoint(_))) {
                        // The incremental basis is suspect — rebuild from
                        // scratch on the remaining attempts.
                        incremental = false;
                        self.set_checkpoint_flag(false);
                    }
                    let outcome = AttemptOutcome::TransientFailure(e.to_string());
                    self.bus
                        .emit(key, event(outcome, policy.backoff_s(attempt), false));
                }
                Err(e) => {
                    let outcome = if e.is_transient() {
                        AttemptOutcome::TransientFailure(e.to_string())
                    } else {
                        AttemptOutcome::PermanentFailure(e.to_string())
                    };
                    self.bus.emit(key, event(outcome, 0.0, false));
                    return if e.is_transient() {
                        Err(DovadoError::RetriesExhausted {
                            attempts: attempt,
                            last: Box::new(e),
                        })
                    } else {
                        Err(e)
                    };
                }
            }
        }
        unreachable!("the final attempt always returns")
    }

    /// Stores `value` in the checkpoint flag when it differs.
    fn set_checkpoint_flag(&self, value: bool) {
        if self.has_checkpoint.load(Ordering::Relaxed) != value {
            self.has_checkpoint.store(value, Ordering::Relaxed);
        }
    }

    /// The attempt step: one tool session, scripts in, metrics out.
    fn attempt(&self, point: &DesignPoint, step: FlowStep, incremental: bool) -> AttemptReport {
        let mut session = self.backend.open_session();
        let result = self.run_flow(session.as_mut(), point, step, incremental);
        let tool_time_s = session.elapsed_s();
        let cached = session.used_exact_checkpoint();
        if result.is_ok() {
            self.set_checkpoint_flag(true);
        }
        AttemptReport {
            result,
            tool_time_s,
            cached,
        }
    }

    /// File writes, tool execution of the prebuilt scripts, and report
    /// scraping for one attempt.
    fn run_flow(
        &self,
        session: &mut (dyn ToolSession + Send),
        point: &DesignPoint,
        step: FlowStep,
        incremental: bool,
    ) -> DovadoResult<Evaluation> {
        let scripts = &self.ctx.scripts;
        let boxed = generate_box(&self.ctx.module, point)?;

        // Write user sources + the generated box into the tool filesystem.
        for (src, path) in self.ctx.sources.iter().zip(&scripts.source_paths) {
            session.write_file(path, src.content.clone());
        }
        session.write_file(&scripts.box_path, boxed.source);

        // Incremental flow: reuse the previous synthesis checkpoint when
        // one exists (Vivado reads it with `read_checkpoint -incremental`).
        // `incremental` already folds in the checkpoint basis, which the
        // dispatch layer snapshots *once per batch* — live ledger reads
        // here would make the decision depend on which concurrently
        // running point finished first, and the trace would no longer be
        // byte-identical across serial, rayon, and distributed schedules.
        let synth_script = if incremental {
            // The checkpoint file must exist in this session's filesystem.
            session.write_file(SYNTH_DCP, "dcp:incremental-basis".into());
            &scripts.synth_incremental
        } else {
            &scripts.synth
        };
        session.eval(synth_script)?;

        let (util_path, timing_path, power_path) = match step {
            FlowStep::Synthesis => ("util_synth.rpt", "timing_synth.rpt", "power_synth.rpt"),
            FlowStep::Implementation => {
                session.eval(&scripts.implementation)?;
                ("util_impl.rpt", "timing_impl.rpt", "power_impl.rpt")
            }
        };

        // Scrape the reports — the same text protocol the real tool uses.
        // A missing or unparseable report means the tool died mid-write
        // (with the simulated tool, only injected faults cause this), so
        // both classify as transient, not as properties of the design.
        let util_text = session
            .read_file(util_path)
            .ok_or_else(|| DovadoError::MissingReport(util_path.to_string()))?;
        let utilization = report::parse_utilization_report(util_text)
            .map_err(|e| DovadoError::ReportCorrupt(format!("{util_path}: {e}")))?;
        let timing_text = session
            .read_file(timing_path)
            .ok_or_else(|| DovadoError::MissingReport(timing_path.to_string()))?;
        let wns_ns = report::parse_wns(timing_text)
            .map_err(|e| DovadoError::ReportCorrupt(format!("{timing_path}: {e}")))?;
        let period_ns = report::parse_period(timing_text)
            .map_err(|e| DovadoError::ReportCorrupt(format!("{timing_path}: {e}")))?;
        let fmax = fmax_mhz(period_ns, wns_ns)
            .ok_or_else(|| DovadoError::NonPhysicalTiming(format!("T={period_ns} WNS={wns_ns}")))?;
        let power_text = session
            .read_file(power_path)
            .ok_or_else(|| DovadoError::MissingReport(power_path.to_string()))?;
        let power_mw = dovado_eda::power::parse_power_mw(power_text).ok_or_else(|| {
            DovadoError::ReportCorrupt(format!("{power_path}: no total power figure"))
        })?;

        Ok(Evaluation {
            utilization,
            wns_ns,
            period_ns,
            fmax_mhz: fmax,
            power_mw,
            tool_time_s: session.elapsed_s(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MockBackend;
    use dovado_hdl::Language;

    const FIFO_SV: &str = "module fifo_v3 #(parameter DEPTH = 8)\
                           (input logic clk_i); endmodule";

    fn sources() -> Vec<HdlSource> {
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)]
    }

    #[test]
    fn jobs_zero_is_a_config_error_not_a_panic() {
        assert!(matches!(validate_jobs(0), Err(DovadoError::Config(_))));
        assert_eq!(validate_jobs(1).unwrap(), 1);
        assert_eq!(validate_jobs(64).unwrap(), 64);
    }

    #[test]
    fn a_period_that_renders_as_zero_is_a_config_error() {
        let with_period = |target_period_ns| {
            Evaluator::with_backend(
                sources(),
                "fifo_v3",
                EvalConfig {
                    target_period_ns,
                    ..EvalConfig::default()
                },
                Arc::new(MockBackend::new(7)),
            )
        };
        for period in [0.0004, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            match with_period(period) {
                Err(DovadoError::Config(m)) => assert!(
                    m.starts_with(&format!("target period {period} ns renders as "))
                        && m.contains("3-decimal resolution"),
                    "{m}"
                ),
                Err(e) => panic!("{period}: expected a config error, got {e}"),
                Ok(_) => panic!("{period}: accepted"),
            }
        }
        // The smallest period the constraint can express still evaluates.
        let point = DesignPoint::from_pairs(&[("DEPTH", 16)]);
        let smallest = with_period(0.0005).unwrap();
        assert_eq!(smallest.evaluate(&point).unwrap().period_ns, 0.001);
    }

    #[test]
    fn schedule_maps_the_parallel_flag() {
        assert_eq!(Schedule::from(false), Schedule::Serial);
        assert_eq!(Schedule::from(true), Schedule::Parallel);
    }

    #[test]
    fn engine_runs_on_a_mock_backend() {
        let evaluator = Evaluator::with_backend(
            sources(),
            "fifo_v3",
            EvalConfig::default(),
            Arc::new(MockBackend::new(5)),
        )
        .unwrap();
        let p = DesignPoint::from_pairs(&[("DEPTH", 64)]);
        let a = evaluator.evaluate(&p).unwrap();
        let b = evaluator.evaluate(&p).unwrap();
        assert_eq!(a.wns_ns.to_bits(), b.wns_ns.to_bits());
        assert!(a.fmax_mhz > 0.0 && a.power_mw > 0.0);
        assert_eq!(evaluator.total_runs(), 2);
    }

    #[test]
    fn mock_utilization_is_the_same_after_synthesis_and_implementation() {
        // The mock's design size counts the loaded sources only, not the
        // synthesis reports an implementation run has written by then.
        let p = DesignPoint::from_pairs(&[("DEPTH", 16)]);
        let run = |step| {
            let config = EvalConfig {
                step,
                ..EvalConfig::default()
            };
            Evaluator::with_backend(sources(), "fifo_v3", config, Arc::new(MockBackend::new(5)))
                .unwrap()
                .evaluate(&p)
                .unwrap()
        };
        let (synth, full) = (run(FlowStep::Synthesis), run(FlowStep::Implementation));
        assert_eq!(synth.utilization, full.utilization);
        // Routing adds its pessimism to the same design.
        assert!(full.fmax_mhz < synth.fmax_mhz);
    }

    #[test]
    fn scripts_are_filled_once_per_evaluator() {
        let evaluator = Evaluator::new(sources(), "fifo_v3", EvalConfig::default()).unwrap();
        let synth = |incremental: &str| {
            format!(
                "create_project dovado -part xc7k70tfbv676-1\n\
                 read_verilog -sv src/fifo.sv\n\
                 read_verilog -sv src/box.sv\n\
                 set_property top box [current_fileset]\n\
                 {incremental}\n\
                 synth_design -top box -part xc7k70tfbv676-1 -directive Default\n\
                 create_clock -period 1.000 -name dovado_clk [get_ports clk]\n\
                 report_utilization -file util_synth.rpt\n\
                 report_timing_summary -file timing_synth.rpt\n\
                 report_power -file power_synth.rpt\n\
                 write_checkpoint -force post_synth.dcp\n"
            )
        };
        let scripts = &evaluator.ctx.scripts;
        assert_eq!(scripts.synth, synth(""));
        assert_eq!(
            scripts.synth_incremental,
            synth("read_checkpoint -incremental post_synth.dcp")
        );
        assert_eq!(
            scripts.implementation,
            "opt_design\n\
             place_design\n\
             route_design -directive Default\n\
             report_utilization -file util_impl.rpt\n\
             report_timing_summary -file timing_impl.rpt\n\
             report_power -file power_impl.rpt\n\
             write_checkpoint -force post_route.dcp\n"
        );
        assert_eq!(scripts.source_paths, ["src/fifo.sv"]);
        assert_eq!(scripts.box_path, "src/box.sv");
        // A low-fidelity sibling runs the same scripts.
        let probe = evaluator.probe_with_step(FlowStep::Synthesis);
        assert!(Arc::ptr_eq(&evaluator.ctx.scripts, &probe.ctx.scripts));
    }

    #[test]
    fn user_values_reach_the_scripts_as_one_word() {
        let spaced = vec![HdlSource::new(
            "fifo queue v3.sv",
            Language::SystemVerilog,
            FIFO_SV,
        )];
        let config = EvalConfig {
            part: "[exit 1]".into(),
            synth_directive: "Default;".into(),
            impl_directive: "$x".into(),
            ..EvalConfig::default()
        };
        let evaluator = Evaluator::new(spaced, "fifo_v3", config).unwrap();
        let scripts = &evaluator.ctx.scripts;
        let head = "create_project dovado -part \\[exit\\ 1\\]\n\
                    read_verilog -sv src/fifo\\ queue\\ v3.sv\n";
        assert!(scripts.synth.starts_with(head), "{}", scripts.synth);
        assert!(scripts.synth.contains("-directive Default\\;\n"));
        assert!(scripts.implementation.contains("-directive \\$x\n"));
        // A control character cannot be one word: refused up front.
        let broken = vec![HdlSource::new(
            "fifo\n.sv",
            Language::SystemVerilog,
            FIFO_SV,
        )];
        match Evaluator::new(broken, "fifo_v3", EvalConfig::default()) {
            Err(DovadoError::Config(m)) => assert!(m.contains(r#""src/fifo\n.sv""#), "{m}"),
            other => panic!("expected a config error, got {:?}", other.err()),
        }
    }

    #[test]
    fn backend_name_separates_content_keys() {
        let with = |backend: Arc<dyn ToolBackend>| {
            Evaluator::with_backend(sources(), "fifo_v3", EvalConfig::default(), backend)
                .unwrap()
                .content_key()
        };
        let sim = Evaluator::new(sources(), "fifo_v3", EvalConfig::default()).unwrap();
        assert_ne!(sim.content_key(), with(Arc::new(MockBackend::new(5))));
        // The seed is part of the identity; the wall-clock spin is not.
        assert_ne!(
            with(Arc::new(MockBackend::new(5))),
            with(Arc::new(MockBackend::new(6)))
        );
        assert_eq!(
            with(Arc::new(MockBackend::new(5))),
            with(Arc::new(MockBackend::new(5).with_spin_ms(3)))
        );
    }
}
