//! The traced run of an explore workload: one in-process exploration
//! timed at the program's public seams, plus replays of public layer
//! functions on the run's own inputs. Nothing here changes the program:
//! the trace of the traced run must equal the CLI's byte for byte.
//!
//! Seams and what they give:
//!
//! * `Dovado::with_backend` takes a [`TimedBackend`] around `SimBackend`,
//!   which timestamps every tool session and every call into it (`eda`,
//!   and by difference `engine` attempt overhead).
//! * `Dovado::explore_monitored` calls [`GenMonitor`] at every generation
//!   boundary (`dse` spans; the journal is stat-ed there for `persist`).
//! * Replays of `EvalStore`, `read_journal`/`write_journal`,
//!   `SurrogateController`, `Nsga2Explorer` and `write_jsonl` on the run's
//!   keys, journal, decisions and spine give per-call costs of layers the
//!   seams cannot see into. Replayed figures are labelled as such.

use crate::explore::{self, Bench, Kind};
use crate::inputs;
use crate::report::Outcome;
use crate::stats::{self, Interval};
use dovado::backend::{SimBackend, ToolBackend, ToolSession};
use dovado::dse::ExploreMonitor;
use dovado::obs::{EventKey, ObsEvent};
use dovado::persist::Journal;
use dovado::{
    Dovado, DseConfig, DseProblem, EvalConfig, Evaluator, MetricSet, ParameterSpace, PersistConfig,
    Schedule, SurrogateConfig,
};
use dovado_eda::{EvalKey, EvalStore, FaultInjector};
use dovado_moo::{Explorer as _, Nsga2Config, Nsga2Explorer, Objective, Problem, Termination};
use dovado_surrogate::{ControlEvent, Decision, SurrogateController};
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Replays of a per-call cost are repeated this many times (median).
const REPLAY_REPS: usize = 5;
/// Untraced CLI explorations made alongside the traced run, for
/// `trace.overhead_s` and as the trace reference.
const UNTRACED_RUNS: usize = 3;

// ---------------------------------------------------------------------------
// Tool-boundary timeline
// ---------------------------------------------------------------------------

/// What a call into a tool session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    Synth,
    Impl,
    OtherScript,
    File,
}

/// One tool session, as the wrapper saw it.
#[derive(Debug, Default, Clone)]
struct SessionRec {
    open: f64,
    close: f64,
    calls: Vec<(f64, f64, CallKind)>,
    errors: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// Every session of the traced run, in close order.
struct Timeline {
    origin: Instant,
    sessions: Mutex<Vec<SessionRec>>,
}

impl Timeline {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Timing wrapper on the `ToolBackend` seam. It reports the inner
/// backend's name, so store keys and traces are those of a plain run.
struct TimedBackend {
    inner: SimBackend,
    timeline: Arc<Timeline>,
}

impl ToolBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open_session(&self) -> Box<dyn ToolSession + Send> {
        let open = self.timeline.now();
        let inner = self.inner.open_session();
        Box::new(TimedSession {
            inner,
            timeline: Arc::clone(&self.timeline),
            rec: RefCell::new(SessionRec {
                open,
                ..SessionRec::default()
            }),
        })
    }

    fn injector(&self) -> Option<&FaultInjector> {
        self.inner.injector()
    }
}

/// One timed session; its record lands on the timeline when the engine
/// drops it at the end of the attempt.
struct TimedSession {
    inner: Box<dyn ToolSession + Send>,
    timeline: Arc<Timeline>,
    rec: RefCell<SessionRec>,
}

impl TimedSession {
    fn record(&self, start: f64, kind: CallKind) {
        let end = self.timeline.now();
        self.rec.borrow_mut().calls.push((start, end, kind));
    }
}

impl ToolSession for TimedSession {
    fn write_file(&mut self, path: &str, content: String) {
        let t = self.timeline.now();
        self.rec.borrow_mut().bytes_in += content.len() as u64;
        self.inner.write_file(path, content);
        self.record(t, CallKind::File);
    }

    fn read_file(&self, path: &str) -> Option<&str> {
        let t = self.timeline.now();
        let r = self.inner.read_file(path);
        self.rec.borrow_mut().bytes_out += r.map_or(0, |s| s.len() as u64);
        self.record(t, CallKind::File);
        r
    }

    fn eval(&mut self, script: &str) -> dovado_eda::EdaResult<String> {
        let kind = if script.contains("synth_design") {
            CallKind::Synth
        } else if script.contains("route_design") {
            CallKind::Impl
        } else {
            CallKind::OtherScript
        };
        let t = self.timeline.now();
        let r = self.inner.eval(script);
        self.record(t, kind);
        let mut rec = self.rec.borrow_mut();
        rec.bytes_in += script.len() as u64;
        match &r {
            Ok(s) => rec.bytes_out += s.len() as u64,
            Err(_) => rec.errors += 1,
        }
        r
    }

    fn elapsed_s(&self) -> f64 {
        self.inner.elapsed_s()
    }

    fn used_exact_checkpoint(&self) -> bool {
        self.inner.used_exact_checkpoint()
    }

    fn files(&self) -> Vec<(String, String)> {
        let t = self.timeline.now();
        let files = self.inner.files();
        self.record(t, CallKind::File);
        files
    }
}

impl Drop for TimedSession {
    fn drop(&mut self) {
        let mut rec = std::mem::take(self.rec.get_mut());
        rec.close = self.timeline.now();
        if let Ok(mut sessions) = self.timeline.sessions.lock() {
            sessions.push(rec);
        }
    }
}

/// Generation-boundary monitor: timestamps each boundary and the
/// journal's size right after its write.
struct GenMonitor {
    timeline: Arc<Timeline>,
    journal: Option<PathBuf>,
    marks: Mutex<Vec<(f64, u64)>>,
}

impl ExploreMonitor for GenMonitor {
    fn on_generation(&self, _generation: u64, _evaluations: u64) -> bool {
        let t = self.timeline.now();
        let size = self
            .journal
            .as_ref()
            .and_then(|p| fs::metadata(p).ok())
            .map_or(0, |m| m.len());
        if let Ok(mut marks) = self.marks.lock() {
            marks.push((t, size));
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Replay helpers
// ---------------------------------------------------------------------------

/// Forwards to a `DseProblem`, timing every evaluation call, so an
/// explorer step's self time is its duration minus evaluation.
struct TimingProblem {
    inner: DseProblem,
    eval_s: f64,
}

impl Problem for TimingProblem {
    fn variables(&self) -> &[dovado_moo::IntVar] {
        self.inner.variables()
    }

    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }

    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64> {
        let t = Instant::now();
        let r = self.inner.evaluate(genome);
        self.eval_s += t.elapsed().as_secs_f64();
        r
    }

    fn evaluate_batch(&mut self, genomes: &[Vec<i64>]) -> Vec<Vec<f64>> {
        let t = Instant::now();
        let r = self.inner.evaluate_batch(genomes);
        self.eval_s += t.elapsed().as_secs_f64();
        r
    }

    fn external_cost(&self) -> f64 {
        self.inner.external_cost()
    }
}

/// Times `f` `reps` times; median seconds and the last result.
fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("reps >= 1"))
}

/// Parses a `NAME=VALUE NAME=VALUE` point label back into index genome.
fn genome_of(space: &ParameterSpace, label: &str) -> Result<Vec<i64>, String> {
    let mut names = Vec::new();
    let mut values = Vec::new();
    for part in label.split_whitespace() {
        let (n, v) = part
            .split_once('=')
            .ok_or_else(|| format!("bad point label `{label}`"))?;
        names.push(n.to_string());
        values.push(
            v.parse()
                .map_err(|_| format!("bad point label `{label}`"))?,
        );
    }
    space
        .encode(&dovado::DesignPoint::new(names, values))
        .map_err(|e| e.to_string())
}

/// Bitwise identity of a front: decoded points with raw value bits.
fn front_key(points: impl Iterator<Item = (String, Vec<f64>)>) -> Vec<(String, Vec<u64>)> {
    points
        .map(|(p, v)| (p, v.iter().map(|x| x.to_bits()).collect()))
        .collect()
}

/// The control-event log in comparable form.
fn control_key(e: &ControlEvent) -> (&'static str, u64) {
    match e {
        ControlEvent::Reselected { bandwidth } => ("reselected", bandwidth.to_bits()),
        ControlEvent::GammaUpdated { gamma } => ("gamma_updated", gamma.to_bits()),
    }
}

/// What the explorer replay measured.
struct ExplorerReplay {
    /// Self time of each explorer step (step minus evaluation), seconds.
    step_self: Vec<f64>,
    /// Snapshot-plus-write time of each journal boundary, seconds.
    journal_s: Vec<f64>,
    /// Size of each replayed journal.
    journal_bytes: Vec<u64>,
    /// The replayed final front.
    front: Vec<(String, Vec<u64>)>,
}

/// Replays the run's NSGA-II exploration over a [`TimingProblem`]; with
/// `journal` (the run's final journal and a scratch path), also writes
/// one journal per generation boundary and a final one, like the run.
fn replay_explorer(
    evaluator: &Evaluator,
    space: &ParameterSpace,
    metrics: &MetricSet,
    cfg: &DseConfig,
    journal: Option<(&Journal, &std::path::Path)>,
) -> Result<ExplorerReplay, String> {
    let mut problem = DseProblem::new(
        evaluator.clone(),
        space.clone(),
        metrics.clone(),
        cfg.surrogate.as_ref(),
    )
    .map_err(|e| e.to_string())?;
    problem.schedule = Schedule::Parallel;
    let mut tp = TimingProblem {
        inner: problem,
        eval_s: 0.0,
    };
    let mut engine = Nsga2Explorer::start(&mut tp, &cfg.algorithm);
    let mut replay = ExplorerReplay {
        step_self: Vec::new(),
        journal_s: Vec::new(),
        journal_bytes: Vec::new(),
        front: Vec::new(),
    };
    let mut boundary = |engine: &Nsga2Explorer, tp: &TimingProblem, complete: bool| {
        if let Some((run, path)) = journal {
            let t = Instant::now();
            let j = Journal {
                fingerprint: run.fingerprint.clone(),
                complete,
                tool_time_s: run.tool_time_s,
                stats: tp.inner.stats,
                trace: run.trace,
                runs: run.runs,
                snapshot: engine.snapshot(),
                selection: run.selection.clone(),
                surrogate: None,
            };
            let written = dovado::persist::write_journal(path, &j);
            replay.journal_s.push(t.elapsed().as_secs_f64());
            written.map_err(|e| e.to_string())?;
            replay
                .journal_bytes
                .push(fs::metadata(path).map_err(|e| e.to_string())?.len());
        }
        Ok::<(), String>(())
    };
    while !engine.should_stop(&tp, &cfg.termination) {
        let e0 = tp.eval_s;
        let t = Instant::now();
        engine.step(&mut tp);
        replay
            .step_self
            .push(t.elapsed().as_secs_f64() - (tp.eval_s - e0));
        boundary(&engine, &tp, false)?;
    }
    boundary(&engine, &tp, true)?;
    let result = Box::new(engine).into_result();
    let mut front = Vec::new();
    for ind in result.sorted_pareto() {
        let point = tp.inner.decode(&ind.genome).map_err(|e| e.to_string())?;
        front.push((point.as_assignments(), ind.raw.clone()));
    }
    replay.front = front_key(front.into_iter());
    Ok(replay)
}

/// Per-call costs from the surrogate replay.
struct SurrogateReplay {
    total_s: f64,
    decide_us: f64,
    record_us: f64,
    pretrain_ms: f64,
    dataset_m: usize,
}

/// Replays `SurrogateController::pretrain/decide_batch/record` in the
/// run's order with the run's outputs. The replay must reproduce the
/// traced decisions and control events exactly.
fn replay_surrogate(
    events: &[(EventKey, ObsEvent)],
    space: &ParameterSpace,
    metrics: &MetricSet,
    scfg: &SurrogateConfig,
    evaluator: &Evaluator,
    pop: usize,
) -> Result<SurrogateReplay, String> {
    let decisions: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|(_, e)| match e {
            ObsEvent::SurrogateDecision { point, choice } => Some((point.as_str(), *choice)),
            _ => None,
        })
        .collect();
    let traced_control: Vec<(&'static str, u64)> = events
        .iter()
        .filter_map(|(_, e)| match e {
            ObsEvent::Reselected { bandwidth } => Some(("reselected", bandwidth.to_bits())),
            ObsEvent::GammaUpdated { gamma } => Some(("gamma_updated", gamma.to_bits())),
            _ => None,
        })
        .collect();
    if decisions.is_empty() || !decisions.len().is_multiple_of(pop) {
        return Err(format!(
            "{} surrogate decisions do not split into batches of {pop}",
            decisions.len()
        ));
    }

    // The run's outputs: every point the tool answered, measured again
    // (evaluations are pure functions of point, configuration and backend).
    let mut rng = rand::rngs::StdRng::seed_from_u64(scfg.seed);
    let pretrain = dovado_moo::ops::sampling::random_population(
        &space.index_vars(),
        scfg.pretrain_samples,
        &mut rng,
    );
    let mut needed: BTreeMap<Vec<i64>, Option<Vec<f64>>> = BTreeMap::new();
    for g in &pretrain {
        needed.insert(g.clone(), None);
    }
    for (label, choice) in &decisions {
        if *choice == "evaluated" {
            needed.insert(genome_of(space, label)?, None);
        }
    }
    let genomes: Vec<Vec<i64>> = needed.keys().cloned().collect();
    let points: Result<Vec<_>, _> = genomes.iter().map(|g| space.decode(g)).collect();
    let points = points.map_err(|e| e.to_string())?;
    for (g, r) in genomes.iter().zip(evaluator.evaluate_many(&points, true)) {
        let eval = r.map_err(|e| format!("replay evaluation failed: {e}"))?;
        needed.insert(g.clone(), Some(metrics.extract(&eval)));
    }
    let outputs = |g: &Vec<i64>| needed[g].clone().expect("every needed point evaluated");

    let mut c = SurrogateController::new(space.index_bounds(), metrics.len(), scfg.policy)
        .with_kernel(scfg.kernel);
    c.retrain_every = scfg.reselect_every.max(1);
    c.neighbor_k = scfg.neighbor_k;
    let pairs: Vec<(Vec<i64>, Vec<f64>)> =
        pretrain.iter().map(|g| (g.clone(), outputs(g))).collect();
    let t = Instant::now();
    c.pretrain(pairs);
    let pretrain_s = t.elapsed().as_secs_f64();
    let mut control: Vec<(&'static str, u64)> = c.take_events().iter().map(control_key).collect();

    let mut decide = Vec::new();
    let mut record = Vec::new();
    for batch in decisions.chunks(pop) {
        let genomes: Result<Vec<Vec<i64>>, String> =
            batch.iter().map(|(l, _)| genome_of(space, l)).collect();
        let genomes = genomes?;
        let t = Instant::now();
        let got = c.decide_batch(&genomes, true);
        decide.push(t.elapsed().as_secs_f64());
        for ((label, choice), d) in batch.iter().zip(&got) {
            let replayed = match d {
                Decision::Cached(_) => "cached",
                Decision::Estimate(_) => "estimated",
                Decision::Evaluate => "evaluated",
            };
            if replayed != *choice {
                return Err(format!(
                    "replayed decision `{replayed}` for {label}, the run made `{choice}`"
                ));
            }
        }
        let tool_slots: Vec<usize> = got
            .iter()
            .enumerate()
            .filter(|(_, d)| !matches!(d, Decision::Estimate(_)))
            .map(|(i, _)| i)
            .collect();
        let tool_genomes: Vec<Vec<i64>> = tool_slots.iter().map(|&i| genomes[i].clone()).collect();
        let (unique, _) = dovado_moo::ops::unique_in_batch(&tool_genomes);
        for &u in &unique {
            let slot = tool_slots[u];
            if matches!(got[slot], Decision::Evaluate) {
                let values = outputs(&genomes[slot]);
                let t = Instant::now();
                c.record(genomes[slot].clone(), values);
                record.push(t.elapsed().as_secs_f64());
            }
        }
        control.extend(c.take_events().iter().map(control_key));
    }
    if control != traced_control {
        return Err("replayed bandwidth/threshold updates differ from the run's".into());
    }
    Ok(SurrogateReplay {
        total_s: pretrain_s + decide.iter().sum::<f64>() + record.iter().sum::<f64>(),
        decide_us: stats::median(&decide) * 1e6,
        record_us: stats::median(&record) * 1e6,
        pretrain_ms: pretrain_s * 1e3,
        dataset_m: c.dataset().len(),
    })
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// Runs the traced exploration of `bench` (first seed of the run) and
/// reports every per-layer metric it supports.
pub fn run(
    bench: &Bench,
    layers: &mut BTreeMap<&'static str, (f64, &'static str)>,
    out: &mut Outcome,
) -> io::Result<()> {
    let seed = bench.seeds[0];
    let jobs = bench.kind.jobs();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build()
        .map_err(|_| io::Error::other("thread pool"))?;

    // Untraced CLI runs of the same exploration: the trace reference and
    // the baseline for tracing overhead.
    let mut untraced = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    for i in 0..UNTRACED_RUNS {
        let dir = bench.scratch.join(format!("untraced-{i}"));
        fs::create_dir_all(&dir)?;
        let (wall, exit) = explore::run_in(&mut bench.command(seed, &dir), &dir)?;
        out.attempted += 1;
        if !exit.success {
            out.fail(format!("untraced run {i} exited non-zero"));
            continue;
        }
        let trace = fs::read(dir.join("trace.jsonl"))?;
        match &reference {
            Some(r) if *r != trace => out.fail(format!("untraced run {i}: trace differs")),
            Some(_) => untraced.push(wall),
            None => {
                reference = Some(trace);
                untraced.push(wall);
            }
        }
    }
    let reference = reference.ok_or_else(|| io::Error::other("no untraced run succeeded"))?;

    // The traced exploration, configured exactly like the CLI's.
    let project = &bench.project;
    let (sources, top) = dovado::flow::load_project_tree(&project.dir, None)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let space = project.study.space.clone();
    let eval = EvalConfig {
        part: project.study.part.to_string(),
        ..EvalConfig::default()
    };
    let timeline = Arc::new(Timeline {
        origin: Instant::now(),
        sessions: Mutex::new(Vec::new()),
    });
    let backend = Arc::new(TimedBackend {
        inner: SimBackend::with_faults(eval.seed, eval.faults.clone()),
        timeline: Arc::clone(&timeline),
    });
    let tool = Dovado::with_backend(sources.clone(), &top, space.clone(), eval.clone(), backend)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let metrics = MetricSet::area_frequency();
    let surrogate = (bench.kind == Kind::Surrogate).then(|| SurrogateConfig {
        pretrain_samples: inputs::SURROGATE_M,
        ..SurrogateConfig::default()
    });
    let cfg = DseConfig {
        algorithm: Nsga2Config {
            pop_size: inputs::POP,
            seed,
            ..Default::default()
        },
        termination: Termination::Generations(inputs::GENERATIONS),
        metrics: metrics.clone(),
        surrogate: surrogate.clone(),
        parallel: true,
        ..DseConfig::default()
    };
    let persist = bench.warm_store.clone().map(PersistConfig::new);
    let monitor = GenMonitor {
        timeline: Arc::clone(&timeline),
        journal: persist.as_ref().map(PersistConfig::journal_path),
        marks: Mutex::new(Vec::new()),
    };
    out.attempted += 1;
    let t0 = timeline.now();
    let report = pool
        .install(|| tool.explore_monitored(&cfg, persist.as_ref(), &monitor))
        .map_err(|e| io::Error::other(format!("traced run failed: {e}")))?;
    let t1 = timeline.now();
    let span: Interval = (t0, t1);
    let span_s = t1 - t0;

    let mut traced_trace = Vec::new();
    dovado::obs::write_jsonl(&report.spine, &mut traced_trace)?;
    if traced_trace != reference {
        out.fail("traced run: trace differs from the CLI's".into());
    }

    // ---- eda / engine / dse from the timeline ----------------------------
    let sessions = timeline.sessions.lock().expect("timeline poisoned").clone();
    let lifetimes: Vec<Interval> = sessions.iter().map(|s| (s.open, s.close)).collect();
    let calls: Vec<Interval> = sessions
        .iter()
        .flat_map(|s| s.calls.iter().map(|&(a, b, _)| (a, b)))
        .collect();
    let evals: Vec<(f64, CallKind)> = sessions
        .iter()
        .flat_map(|s| s.calls.iter())
        .filter(|(_, _, k)| *k != CallKind::File)
        .map(|&(a, b, k)| (b - a, k))
        .collect();
    let eval_us: Vec<f64> = evals.iter().map(|(d, _)| d * 1e6).collect();
    let kind_s = |k: CallKind| -> f64 {
        evals
            .iter()
            .filter(|(_, x)| *x == k)
            .fold(0.0, |acc, (d, _)| acc + d)
    };
    let eda_busy = stats::union_len(&calls);
    let attempt_self = stats::union_len(&lifetimes) - eda_busy;
    let dse_self = stats::self_time(span, &lifetimes);
    let idle = stats::idle_slot_time(&stats::merge(&lifetimes), &lifetimes, jobs);

    let marks = monitor.marks.lock().expect("monitor poisoned").clone();
    let gen_ms: Vec<f64> = marks.windows(2).map(|w| (w[1].0 - w[0].0) * 1e3).collect();
    let tenth = (gen_ms.len() / 10).max(1);
    let growth = if gen_ms.len() >= 2 {
        stats::mean(&gen_ms[gen_ms.len() - tenth..]) / stats::mean(&gen_ms[..tenth])
    } else {
        1.0
    };
    let summary = &report.spine.summary;

    let mut set = |name: &'static str, v: f64, src: &'static str| {
        layers.insert(name, (v, src));
    };
    set("dse.generations", marks.len() as f64, "measured");
    set(
        "dse.first_gen_ms",
        marks.first().map_or(0.0, |m| (m.0 - t0) * 1e3),
        "measured",
    );
    set("dse.gen_p50_ms", stats::median(&gen_ms), "measured");
    set("dse.gen_p90_ms", stats::quantile(&gen_ms, 0.9), "measured");
    set("dse.gen_growth", growth, "measured");
    set("dse.self_s", dse_self, "measured");
    set("eda.sessions", sessions.len() as f64, "measured");
    set("eda.scripts", evals.len() as f64, "measured");
    set(
        "eda.errors",
        sessions.iter().map(|s| s.errors).sum::<u64>() as f64,
        "measured",
    );
    set("eda.busy_s", eda_busy, "measured");
    set("eda.synth_s", kind_s(CallKind::Synth), "measured");
    set("eda.impl_s", kind_s(CallKind::Impl), "measured");
    set("eda.eval_p50_us", stats::median(&eval_us), "measured");
    set(
        "eda.eval_p90_us",
        stats::quantile(&eval_us, 0.9),
        "measured",
    );
    set(
        "eda.bytes_in",
        sessions.iter().map(|s| s.bytes_in).sum::<u64>() as f64,
        "measured",
    );
    set(
        "eda.bytes_out",
        sessions.iter().map(|s| s.bytes_out).sum::<u64>() as f64,
        "measured",
    );
    set("eda.tool_s", report.tool_time_s, "trace");
    set("engine.attempt_self_s", attempt_self, "measured");
    set("engine.idle_slot_s", idle, "measured");
    set("engine.checkpoint_hits", summary.cache_hits as f64, "trace");

    // ---- store ----------------------------------------------------------
    let mut store_attr = 0.0;
    let labels: BTreeSet<&str> = report
        .spine
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            ObsEvent::Attempt(f) => Some(f.point.as_str()),
            ObsEvent::StoreHit { point } => Some(point.as_str()),
            _ => None,
        })
        .collect();
    if let Some(p) = &persist {
        let misses = report
            .spine
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ObsEvent::Attempt(_)))
            .map(|(k, _)| k.seq)
            .collect::<BTreeSet<u64>>()
            .len() as f64;
        let hits = summary.store_hits as f64;
        let puts = report.spine.runs as f64;
        let base = tool.evaluator().content_key();
        let keys: Vec<EvalKey> = labels.iter().map(|l| base.extend(&[l])).collect();
        let (open_s, store) = time_reps(3, || EvalStore::open(&p.store_dir()));
        let store = store?;
        let entries = store.len();
        let mut hit_us = Vec::new();
        let mut payloads = Vec::new();
        for key in &keys {
            let t = Instant::now();
            let e = store
                .get(key)
                .and_then(|s| dovado::persist::decode_evaluation(&s));
            hit_us.push(t.elapsed().as_secs_f64() * 1e6);
            match e {
                Some(e) => payloads.push(e),
                None => {
                    return Err(io::Error::other(
                        "replay: a run's key is missing from its store",
                    ))
                }
            }
        }
        let fresh_dir = bench.scratch.join("replay-store");
        let _ = fs::remove_dir_all(&fresh_dir);
        let fresh = EvalStore::open(&fresh_dir)?;
        let mut miss_us = Vec::new();
        let mut put_us = Vec::new();
        for (key, e) in keys.iter().zip(&payloads) {
            let t = Instant::now();
            std::hint::black_box(fresh.get(key));
            miss_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            fresh.put(key, &dovado::persist::encode_evaluation(e))?;
            put_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let (g_hit, g_miss, g_put) = (
            stats::median(&hit_us),
            stats::median(&miss_us),
            stats::median(&put_us),
        );
        store_attr = (hits * g_hit + misses * g_miss + puts * g_put) / 1e6;
        set("store.hits", hits, "trace");
        set("store.misses", misses, "trace");
        set("store.puts", puts, "trace");
        set("store.hit_ratio", hits / (hits + misses).max(1.0), "trace");
        set("store.entries", entries as f64, "measured");
        set("store.open_ms", open_s * 1e3, "replay");
        set("store.get_hit_us", g_hit, "replay");
        set("store.get_miss_us", g_miss, "replay");
        set("store.put_us", g_put, "replay");
    }

    // ---- moo and persist: replay the explorer over a timing problem -------
    // The replay reruns the same exploration against the run's own answers
    // (its store when it had one), timing each explorer step minus its
    // evaluation, and — when the run journaled — each boundary's journal:
    // the engine snapshot plus `write_journal`, exactly what the run paid
    // per boundary.
    let mut replay_eval = Evaluator::new(sources.clone(), &top, eval.clone())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let journal = match &persist {
        Some(p) => {
            replay_eval.attach_store(EvalStore::open(&p.store_dir())?);
            let path = p.journal_path();
            let (read_s, journal) = time_reps(REPLAY_REPS, || dovado::persist::read_journal(&path));
            let journal = journal.map_err(|e| io::Error::other(e.to_string()))?;
            Some((path, read_s, journal))
        }
        None => None,
    };
    let target = bench.scratch.join("replay-journal.dovado");
    let replay = pool
        .install(|| {
            replay_explorer(
                &replay_eval,
                &space,
                &metrics,
                &cfg,
                journal.as_ref().map(|(_, _, j)| (j, target.as_path())),
            )
        })
        .map_err(io::Error::other)?;
    let run_front = front_key(
        report
            .pareto
            .iter()
            .map(|e| (e.point.as_assignments(), e.values.clone())),
    );
    if replay.front != run_front {
        out.fail("explorer replay: front differs from the run's".into());
    }
    let moo_attr: f64 = replay.step_self.iter().sum();
    set("moo.steps", replay.step_self.len() as f64, "replay");
    set(
        "moo.step_self_us",
        stats::median(&replay.step_self) * 1e6,
        "replay",
    );

    let mut persist_attr = 0.0;
    if let Some((path, read_s, journal)) = &journal {
        let final_bytes = fs::metadata(path)?.len();
        let sizes: Vec<u64> = marks.iter().map(|m| m.1).chain([final_bytes]).collect();
        let total: u64 = sizes.iter().sum();
        let (write_s, w) = time_reps(REPLAY_REPS, || {
            dovado::persist::write_journal(&target, journal)
        });
        w.map_err(|e| io::Error::other(e.to_string()))?;
        persist_attr = replay.journal_s.iter().sum();
        set("persist.journal_writes", sizes.len() as f64, "measured");
        set("persist.journal_bytes", total as f64, "measured");
        set(
            "persist.journal_final_bytes",
            final_bytes as f64,
            "measured",
        );
        set("persist.write_ms", write_s * 1e3, "replay");
        set("persist.read_ms", read_s * 1e3, "replay");
        out.notes.push(format!(
            "journal replay: {} boundary writes of {} bytes in total (the run wrote {} bytes)",
            replay.journal_bytes.len(),
            replay.journal_bytes.iter().sum::<u64>(),
            total
        ));
    }

    // ---- surrogate ------------------------------------------------------
    let mut surrogate_attr = 0.0;
    if let Some(scfg) = &surrogate {
        let choices = |c: &str| {
            report
                .spine
                .events
                .iter()
                .filter(|(_, e)| matches!(e, ObsEvent::SurrogateDecision { choice, .. } if *choice == c))
                .count() as f64
        };
        let (cached, estimated, evaluated) = (
            choices("cached"),
            choices("estimated"),
            choices("evaluated"),
        );
        let decisions = cached + estimated + evaluated;
        let reselections = report
            .spine
            .events
            .iter()
            .filter(|(_, e)| matches!(e, ObsEvent::Reselected { .. }))
            .count();
        set("surrogate.decisions", decisions, "trace");
        set("surrogate.cached", cached, "trace");
        set("surrogate.estimated", estimated, "trace");
        set("surrogate.evaluated", evaluated, "trace");
        set(
            "surrogate.estimate_ratio",
            estimated / decisions.max(1.0),
            "trace",
        );
        set("surrogate.reselections", reselections as f64, "trace");
        set("surrogate.self_s", dse_self - moo_attr, "measured");
        let plain =
            Evaluator::new(sources, &top, eval).map_err(|e| io::Error::other(e.to_string()))?;
        match pool.install(|| {
            replay_surrogate(
                &report.spine.events,
                &space,
                &metrics,
                scfg,
                &plain,
                inputs::POP,
            )
        }) {
            Ok(r) => {
                surrogate_attr = r.total_s;
                set("surrogate.dataset_m", r.dataset_m as f64, "replay");
                set("surrogate.decide_us", r.decide_us, "replay");
                set("surrogate.record_us", r.record_us, "replay");
                out.notes.push(format!(
                    "surrogate replay: pretrain {:.2} ms, {} decisions and control events identical to the run",
                    r.pretrain_ms, decisions
                ));
            }
            Err(e) => out.fail(format!("surrogate replay: {e}")),
        }
    }

    // ---- obs ------------------------------------------------------------
    let (encode_s, _) = time_reps(REPLAY_REPS, || {
        let mut buf = Vec::with_capacity(traced_trace.len());
        dovado::obs::write_jsonl(&report.spine, &mut buf).map(|_| buf.len())
    });
    set("obs.events", report.spine.events.len() as f64, "trace");
    set("obs.dropped", report.spine.dropped as f64, "trace");
    set("obs.trace_bytes", traced_trace.len() as f64, "measured");
    set("obs.encode_ms", encode_s * 1e3, "replay");

    // ---- attribution ----------------------------------------------------
    let attributed =
        eda_busy + attempt_self + store_attr + persist_attr + moo_attr + surrogate_attr;
    let unattributed = span_s - attributed;
    let overhead = span_s - stats::median(&untraced);
    set("trace.unattributed_s", unattributed, "measured");
    set("trace.overhead_s", overhead, "measured");

    let pct = |v: f64| 100.0 * v / span_s;
    let lines = [
        format!("attribution of the traced explore span (seed {seed}, --jobs {jobs}):"),
        format!("  explore span                {span_s:>9.4} s  100.0%  measured"),
        format!("  eda    tool calls           {eda_busy:>9.4} s  {:>5.1}%  measured", pct(eda_busy)),
        format!("  engine attempt overhead     {attempt_self:>9.4} s  {:>5.1}%  measured", pct(attempt_self)),
        format!("  dse    no session open      {dse_self:>9.4} s  {:>5.1}%  measured, of which:", pct(dse_self)),
        format!("    persist journal writes    {persist_attr:>9.4} s  {:>5.1}%  replay-derived", pct(persist_attr)),
        format!("    store lookups and puts    {store_attr:>9.4} s  {:>5.1}%  replay-derived", pct(store_attr)),
        format!("    moo explorer steps        {moo_attr:>9.4} s  {:>5.1}%  replay-derived", pct(moo_attr)),
        format!("    surrogate calls           {surrogate_attr:>9.4} s  {:>5.1}%  replay-derived", pct(surrogate_attr)),
        format!("    trace.unattributed_s      {unattributed:>9.4} s  {:>5.1}%", pct(unattributed)),
        format!(
            "  trace.overhead_s            {overhead:>9.4} s  (traced span - untraced latency_p50_s {:.4} s of {} CLI runs)",
            stats::median(&untraced),
            untraced.len()
        ),
        format!("  obs trace encoding after the span: {:.3} ms (replay-derived)", encode_s * 1e3),
    ];
    out.notes.extend(lines);
    Ok(())
}
