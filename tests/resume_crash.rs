//! The crash/restart harness: a persistent exploration interrupted by a
//! simulated host crash and resumed from its journal must be
//! bitwise-identical to the same exploration run without interruption —
//! same Pareto front (genomes and raw objective bits), same fitness
//! counters, same surrogate dataset — under both a single worker thread
//! and a capped parallel pool.
//!
//! The crash generation is randomized through the fault-plan seed; CI
//! sweeps it via the `DOVADO_CRASH_SEED` environment variable.

use dovado::casestudies::corundum;
use dovado::dse::ExploreMonitor;
use dovado::persist::{read_journal, write_journal, Journal};
use dovado::{
    Domain, Dovado, DovadoError, DseConfig, DseReport, EvalConfig, HdlSource, Metric, MetricSet,
    ParameterSpace, PersistConfig, SurrogateConfig,
};
use dovado_eda::FaultPlan;
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, SearchState, Termination};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

const GENERATIONS: u32 = 6;

/// Seed for the randomized crash position; CI sweeps this.
fn crash_seed() -> u64 {
    std::env::var("DOVADO_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "dovado-resume-{tag}-{}-{}",
        crash_seed(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The fifo's space: even depths from 2 to `depth_hi` × three widths
/// (768 points at the harness's `depth_hi` of 512).
fn fifo_space(depth_hi: i64) -> ParameterSpace {
    ParameterSpace::new()
        .with(
            "DEPTH",
            Domain::Range {
                lo: 2,
                hi: depth_hi,
                step: 2,
            },
        )
        .with("DATA_WIDTH", Domain::Explicit(vec![8, 16, 32]))
}

fn tool(faults: FaultPlan) -> Dovado {
    tool_over(fifo_space(512), faults)
}

fn tool_over(space: ParameterSpace, faults: FaultPlan) -> Dovado {
    let sources = vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)];
    let config = EvalConfig {
        faults,
        ..EvalConfig::default()
    };
    // `DOVADO_BACKEND=mock` reruns the whole harness on the scripted mock
    // backend (CI does this): crash/resume must be backend-independent,
    // since everything above the `ToolBackend` boundary is shared.
    if std::env::var("DOVADO_BACKEND").as_deref() == Ok("mock") {
        let backend = std::sync::Arc::new(dovado::MockBackend::with_faults(
            config.seed,
            config.faults.clone(),
        ));
        Dovado::with_backend(sources, "fifo_v3", space, config, backend).unwrap()
    } else {
        Dovado::new(sources, "fifo_v3", space, config).unwrap()
    }
}

/// Optional distributed-fleet size for the whole harness; CI sweeps the
/// crash tests across a worker fleet with `DOVADO_WORKERS=4`.
fn env_workers() -> Option<usize> {
    std::env::var("DOVADO_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
}

/// A [`Dovado`] whose evaluations run on a thread-backed worker fleet
/// speaking the real wire protocol (same simulated tool behind it).
fn fleet_tool(faults: FaultPlan, workers: usize) -> Dovado {
    let space = fifo_space(512);
    let sources = vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)];
    let config = EvalConfig {
        faults,
        ..EvalConfig::default()
    };
    let kind = if std::env::var("DOVADO_BACKEND").as_deref() == Ok("mock") {
        "mock"
    } else {
        "vivado-sim"
    };
    let backend = std::sync::Arc::new(
        dovado::worker::thread_fleet(&format!("{kind}:{}", config.seed), workers)
            .expect("thread fleet must spawn")
            .with_fault_plan(config.faults.clone()),
    );
    Dovado::with_backend(sources, "fifo_v3", space, config, backend).unwrap()
}

fn cfg(surrogate: bool, parallel: bool) -> DseConfig {
    DseConfig {
        explorer: Default::default(),
        algorithm: Nsga2Config {
            pop_size: 10,
            seed: 21,
            ..Default::default()
        },
        termination: Termination::Generations(GENERATIONS),
        metrics: MetricSet::new(vec![
            Metric::Utilization(ResourceKind::Lut),
            Metric::Utilization(ResourceKind::Register),
            Metric::Fmax,
        ]),
        surrogate: surrogate.then(|| SurrogateConfig {
            pretrain_samples: 15,
            ..Default::default()
        }),
        parallel,
        workers: env_workers(),
    }
}

/// Optional entry-count bound on the crash harness's evaluation store;
/// CI sweeps the bounded-store crash test via `DOVADO_STORE_CAPACITY`.
fn env_store_capacity() -> usize {
    std::env::var("DOVADO_STORE_CAPACITY")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// Runs a persistent exploration to completion, resuming from the journal
/// after every simulated host crash. Returns the final report and the
/// number of interruptions survived.
fn run_until_complete(tool: &Dovado, cfg: &DseConfig, dir: &Path) -> (DseReport, u32) {
    run_until_complete_with(tool, cfg, PersistConfig::new(dir))
}

/// [`run_until_complete`] with an explicit persistence config (e.g. a
/// capacity-bounded store).
fn run_until_complete_with(
    tool: &Dovado,
    cfg: &DseConfig,
    start: PersistConfig,
) -> (DseReport, u32) {
    let resume = PersistConfig {
        resume: true,
        ..start.clone()
    };
    let mut crashes = 0u32;
    let mut outcome = tool.explore_persistent(cfg, &start);
    loop {
        match outcome {
            Ok(report) => return (report, crashes),
            Err(DovadoError::Interrupted { generation }) => {
                crashes += 1;
                assert!(
                    crashes <= 4 * GENERATIONS,
                    "crash/resume loop failed to make progress (last crash at \
                     generation {generation})"
                );
                outcome = tool.explore_persistent(cfg, &resume);
            }
            Err(e) => panic!("unexpected exploration error: {e}"),
        }
    }
}

/// Bitwise report comparison: Pareto front (genomes and raw objective
/// bits) plus every deterministic run counter.
fn assert_reports_bitwise(a: &DseReport, b: &DseReport) {
    assert_eq!(a.pareto.len(), b.pareto.len(), "front sizes differ");
    for (x, y) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(x.point, y.point);
        for (u, v) in x.values.iter().zip(&y.values) {
            assert_eq!(u.to_bits(), v.to_bits(), "{:?} vs {:?}", x.values, y.values);
        }
    }
    assert_eq!(a.generations, b.generations);
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.tool_runs, b.tool_runs);
    assert_eq!(a.cached_runs, b.cached_runs);
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.transient_failures, b.transient_failures);
    assert_eq!(a.permanent_failures, b.permanent_failures);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.selection, b.selection, "selection records diverged");
}

/// Whole-run observability totals: every counter the spine folds must be
/// interruption- and schedule-independent. Kept separate from
/// [`assert_reports_bitwise`] because warm-store reruns legitimately
/// start from a zero trace while reproducing the same report.
fn assert_traces_match(a: &DseReport, b: &DseReport) {
    assert_eq!(a.trace.attempts, b.trace.attempts, "attempts diverged");
    assert_eq!(a.trace.retries, b.trace.retries, "retries diverged");
    assert_eq!(a.trace.transient_failures, b.trace.transient_failures);
    assert_eq!(a.trace.permanent_failures, b.trace.permanent_failures);
    assert_eq!(
        a.trace.cache_hits, b.trace.cache_hits,
        "cache hits diverged"
    );
    assert_eq!(
        a.trace.store_hits, b.trace.store_hits,
        "store hits diverged"
    );
    assert_eq!(a.trace.backoff_s.to_bits(), b.trace.backoff_s.to_bits());
    assert_eq!(a.spine.summary, b.spine.summary, "spine totals diverged");
    assert_eq!(a.spine.runs, b.spine.runs, "spine run counts diverged");
}

/// The journals both runs leave behind hold the full optimizer state;
/// everything that determines future behavior must be bitwise-identical.
/// (The configuration fingerprints differ — the crashed run carries a
/// fault plan — so they are not compared.)
fn assert_final_journals_match(baseline_dir: &Path, crashed_dir: &Path) {
    let a = read_journal(&PersistConfig::new(baseline_dir).journal_path()).unwrap();
    let b = read_journal(&PersistConfig::new(crashed_dir).journal_path()).unwrap();
    assert!(a.complete && b.complete);
    assert_eq!(a.stats, b.stats, "fitness counters diverged");
    assert_eq!(
        a.snapshot.kind(),
        b.snapshot.kind(),
        "explorer kind diverged"
    );
    assert_eq!(a.snapshot.ledger.generation, b.snapshot.ledger.generation);
    assert_eq!(a.snapshot.ledger.evaluations, b.snapshot.ledger.evaluations);
    // The snapshot carries the explorer's full state (RNG, population,
    // archive, …); one comparison covers every kind. External costs in
    // the history are the exception: they track tool spend, which
    // legitimately varies with store capacity and repeated post-crash
    // work, so they are zeroed before comparing.
    let sans_cost = |mut s: dovado_moo::ExplorerSnapshot| {
        for h in &mut s.ledger.history {
            h.external_cost = 0.0;
        }
        s
    };
    assert_eq!(
        sans_cost(a.snapshot),
        sans_cost(b.snapshot),
        "explorer state diverged"
    );
    assert_eq!(a.selection, b.selection, "selection records diverged");
    match (&a.surrogate, &b.surrogate) {
        (None, None) => {}
        (Some(sa), Some(sb)) => {
            assert_eq!(sa.dataset_csv, sb.dataset_csv, "dataset diverged");
            assert_eq!(sa.bandwidth.to_bits(), sb.bandwidth.to_bits());
            assert_eq!(sa.gamma.to_bits(), sb.gamma.to_bits());
            assert_eq!(sa.inserts_since_retrain, sb.inserts_since_retrain);
            assert_eq!(sa.stats, sb.stats);
        }
        _ => panic!("one journal has surrogate state, the other does not"),
    }
}

/// A crash plan that fires only the host crash: every other fault
/// probability stays zero, so tool answers are bitwise those of a
/// fault-free run.
fn crash_plan(host_crash: f64) -> FaultPlan {
    FaultPlan {
        seed: crash_seed(),
        host_crash,
        ..FaultPlan::none()
    }
}

/// [`run_until_complete`] for `--explorer auto`, where a crash can land
/// *inside the selection race* — before any journal exists. Such an
/// attempt leaves no journal behind, so the retry must start fresh (and
/// re-race); once a journal exists, retries resume from it (and must
/// replay the journaled decision instead of re-racing). Returns the
/// report, total interruptions, and how many landed inside the race.
fn run_until_complete_auto(tool: &Dovado, cfg: &DseConfig, dir: &Path) -> (DseReport, u32, u32) {
    let start = PersistConfig::new(dir);
    let resume = PersistConfig {
        resume: true,
        ..start.clone()
    };
    let mut crashes = 0u32;
    let mut race_crashes = 0u32;
    loop {
        let journaled = start.journal_path().exists();
        let outcome = tool.explore_persistent(cfg, if journaled { &resume } else { &start });
        match outcome {
            Ok(report) => return (report, crashes, race_crashes),
            Err(DovadoError::Interrupted { generation }) => {
                crashes += 1;
                // A boundary crash is drawn only after the snapshot is
                // durable, so "interrupted with no journal on disk" is
                // exactly a crash inside the selection race.
                if !journaled && !start.journal_path().exists() {
                    assert_eq!(generation, 0, "race crashes happen before generation 1");
                    race_crashes += 1;
                }
                assert!(
                    crashes <= 8 * GENERATIONS,
                    "crash/resume loop failed to make progress (last crash at \
                     generation {generation})"
                );
            }
            Err(e) => panic!("unexpected exploration error: {e}"),
        }
    }
}

fn auto_cfg() -> DseConfig {
    DseConfig {
        explorer: dovado::dse::Explorer::Auto,
        ..cfg(false, false)
    }
}

#[test]
fn crash_inside_the_selection_race_replays_the_journaled_decision() {
    let cfg = auto_cfg();
    let base_dir = fresh_dir("race-base");
    let (baseline, crashes) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);
    assert_eq!(crashes, 0, "fault-free baseline must not be interrupted");
    let sel = baseline
        .selection
        .clone()
        .expect("auto must journal its decision");
    assert!(sel.lowfi_runs > 0, "a 768-point 3-objective space races");

    // A fixed seed whose first host-crash draw fires: the very first
    // persistent attempt dies inside the race, before any journal or
    // probe checkpoint exists, so the retry re-races from a cold
    // backend and must land on the same decision bitwise.
    let plan = FaultPlan {
        seed: 1,
        host_crash: 0.75,
        ..FaultPlan::none()
    };
    let crash_dir = fresh_dir("race-crash");
    let (resumed, crashes, race_crashes) = run_until_complete_auto(&tool(plan), &cfg, &crash_dir);
    assert!(
        race_crashes >= 1,
        "the fixed seed must crash at least once inside the race"
    );
    assert!(crashes >= race_crashes);
    assert_eq!(
        resumed.spine.lowfi_runs, sel.lowfi_runs,
        "resumed run re-raced instead of replaying the journaled decision"
    );
    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    assert_final_journals_match(&base_dir, &crash_dir);
}

#[test]
fn randomized_selection_race_crashes_converge_bitwise() {
    // The env-seeded sweep companion: wherever `DOVADO_CRASH_SEED`
    // lands the interruptions — inside the race, at boundaries, or
    // nowhere — the completed auto run is bitwise the fault-free one.
    let cfg = auto_cfg();
    let base_dir = fresh_dir("race-rand-base");
    let (baseline, _) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);

    let crash_dir = fresh_dir("race-rand-crash");
    let (resumed, _, _) = run_until_complete_auto(&tool(crash_plan(0.5)), &cfg, &crash_dir);

    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    assert_final_journals_match(&base_dir, &crash_dir);
}

#[test]
fn crash_at_every_boundary_then_resume_matches_uninterrupted() {
    let cfg = cfg(false, false);
    let base_dir = fresh_dir("every-base");
    let (baseline, crashes) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);
    assert_eq!(crashes, 0, "fault-free baseline must not be interrupted");

    // Probability 1: the run is interrupted at *every* generation
    // boundary; each resume still makes one generation of progress
    // because the crash is drawn only after the snapshot is durable.
    let crash_dir = fresh_dir("every-crash");
    let (resumed, crashes) = run_until_complete(&tool(crash_plan(1.0)), &cfg, &crash_dir);
    assert_eq!(crashes, GENERATIONS, "one interruption per boundary");

    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    assert_final_journals_match(&base_dir, &crash_dir);
}

#[test]
fn randomized_crash_generation_matches_uninterrupted() {
    let cfg = cfg(false, false);
    let base_dir = fresh_dir("rand-base");
    let (baseline, _) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);

    let crash_dir = fresh_dir("rand-crash");
    let (resumed, _) = run_until_complete(&tool(crash_plan(0.5)), &cfg, &crash_dir);

    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    assert_final_journals_match(&base_dir, &crash_dir);
}

#[test]
fn surrogate_state_survives_crash_and_resume() {
    let cfg = cfg(true, false);
    let base_dir = fresh_dir("sur-base");
    let (baseline, _) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);
    assert!(baseline.estimates > 0, "surrogate must actually engage");

    let crash_dir = fresh_dir("sur-crash");
    let (resumed, crashes) = run_until_complete(&tool(crash_plan(0.7)), &cfg, &crash_dir);
    assert!(
        crashes > 0,
        "seed {} produced no interruption",
        crash_seed()
    );

    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    // Dataset, bandwidth, Γ and the amortization phase all round-trip.
    assert_final_journals_match(&base_dir, &crash_dir);
}

#[test]
fn crash_between_reselect_and_next_insert_matches_uninterrupted() {
    // With `reselect_every: 1` every record reselects the bandwidth, so a
    // crash at a generation boundary always lands *between* a reselection
    // and the next insert — the exact window where the controller's
    // incremental LOO-CV scratch and the dataset's neighbor index hold
    // derived state that is NOT journaled. The restored controller starts
    // with an empty selector and a tree rebuilt from the CSV; if either
    // rebuild could diverge from the warm in-memory state, the next
    // reselection's bandwidth bits (asserted below via the final
    // journals) would catch it. Crash probability 1 exercises the window
    // at every boundary.
    let cfg = DseConfig {
        surrogate: Some(SurrogateConfig {
            pretrain_samples: 15,
            reselect_every: 1,
            ..Default::default()
        }),
        ..cfg(true, false)
    };
    let base_dir = fresh_dir("resel-base");
    let (baseline, crashes) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);
    assert_eq!(crashes, 0);
    assert!(baseline.estimates > 0, "surrogate must actually engage");

    let crash_dir = fresh_dir("resel-crash");
    let (resumed, crashes) = run_until_complete(&tool(crash_plan(1.0)), &cfg, &crash_dir);
    assert_eq!(crashes, GENERATIONS, "one interruption per boundary");

    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    assert_final_journals_match(&base_dir, &crash_dir);
}

#[test]
fn crash_resume_is_identical_under_one_and_four_jobs() {
    let cfg = cfg(false, true);
    let run_with_jobs = |jobs: usize, tag: &str| {
        let dir = fresh_dir(tag);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(jobs)
            .build()
            .unwrap();
        let (report, _) = pool.install(|| run_until_complete(&tool(crash_plan(1.0)), &cfg, &dir));
        (report, dir)
    };
    let base_dir = fresh_dir("jobs-base");
    let (baseline, _) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);
    let (one, one_dir) = run_with_jobs(1, "jobs-1");
    let (four, four_dir) = run_with_jobs(4, "jobs-4");

    assert_reports_bitwise(&baseline, &one);
    assert_reports_bitwise(&baseline, &four);
    assert_traces_match(&one, &four);
    assert_final_journals_match(&one_dir, &four_dir);
}

#[test]
fn resume_with_a_smaller_fleet_is_bitwise_identical() {
    let plain = cfg(false, false);
    let base_dir = fresh_dir("fleet-base");
    let (baseline, _) = run_until_complete(&tool(FaultPlan::none()), &plain, &base_dir);

    let dir = fresh_dir("fleet-crash");
    let start = PersistConfig::new(&dir);
    let resume = PersistConfig {
        resume: true,
        ..start.clone()
    };
    let four = DseConfig {
        workers: Some(4),
        ..plain.clone()
    };
    let one = DseConfig {
        workers: Some(1),
        ..plain.clone()
    };

    // Crash a 4-worker fleet at the first generation boundary...
    match fleet_tool(crash_plan(1.0), 4).explore_persistent(&four, &start) {
        Err(DovadoError::Interrupted { .. }) => {}
        other => panic!("4-worker run must be interrupted first, got {other:?}"),
    }

    // ...and finish the exploration on a single worker, still crashing at
    // every remaining boundary. The journal fingerprint deliberately
    // excludes `workers` (like `parallel` and `jobs`), so the fleet-size
    // change is accepted on resume — and because traces are
    // schedule-independent, the completed run is bitwise the baseline.
    let tool_one = fleet_tool(crash_plan(1.0), 1);
    let mut crashes = 1u32;
    let resumed = loop {
        match tool_one.explore_persistent(&one, &resume) {
            Ok(report) => break report,
            Err(DovadoError::Interrupted { generation }) => {
                crashes += 1;
                assert!(
                    crashes <= 4 * GENERATIONS,
                    "crash/resume loop stuck at generation {generation}"
                );
            }
            Err(e) => panic!("unexpected exploration error: {e}"),
        }
    };
    assert_eq!(crashes, GENERATIONS, "one interruption per boundary");

    assert_reports_bitwise(&baseline, &resumed);
    assert_traces_match(&baseline, &resumed);
    assert_final_journals_match(&base_dir, &dir);
}

#[test]
fn capacity_bounded_store_crash_resume_stays_correct() {
    // Crash/resume against a store that is too small to hold the whole
    // run (`DOVADO_STORE_CAPACITY`, default 8 entries for ~60 distinct
    // points). Evictions turn resume-time store hits back into tool
    // runs, so the flow counters legitimately diverge from the
    // unbounded baseline — but an eviction is only ever a *miss*: the
    // Pareto front, the optimizer trajectory, and the final journal
    // must stay bitwise those of the uninterrupted unbounded run.
    let cfg = cfg(false, false);
    let base_dir = fresh_dir("cap-base");
    let (baseline, _) = run_until_complete(&tool(FaultPlan::none()), &cfg, &base_dir);

    let dir = fresh_dir("cap-crash");
    let start = PersistConfig {
        store_capacity: Some(env_store_capacity()),
        ..PersistConfig::new(&dir)
    };
    let (resumed, crashes) = run_until_complete_with(&tool(crash_plan(1.0)), &cfg, start);
    assert_eq!(crashes, GENERATIONS, "one interruption per boundary");

    assert_eq!(baseline.pareto.len(), resumed.pareto.len());
    for (x, y) in baseline.pareto.iter().zip(&resumed.pareto) {
        assert_eq!(x.point, y.point);
        for (u, v) in x.values.iter().zip(&y.values) {
            assert_eq!(u.to_bits(), v.to_bits(), "objective bits diverged");
        }
    }
    assert_eq!(baseline.generations, resumed.generations);
    assert_eq!(baseline.evaluations, resumed.evaluations);
    assert_final_journals_match(&base_dir, &dir);
}

#[test]
fn warm_store_rerun_performs_zero_tool_runs() {
    let cfg = cfg(false, false);
    let dir = fresh_dir("warm");
    let (cold, _) = run_until_complete(&tool(FaultPlan::none()), &cfg, &dir);

    // Second run over the same directory (fresh tool instance, so its
    // flow trace starts at zero): every evaluation is answered from the
    // store; not a single tool attempt happens.
    let warm = tool(FaultPlan::none())
        .explore_persistent(&cfg, &PersistConfig::new(&dir))
        .unwrap();
    assert_eq!(warm.trace.attempts, 0, "warm run must not touch the tool");
    assert!(warm.trace.store_hits > 0);
    assert_reports_bitwise(&cold, &warm);
}

/// Byte offsets of a journal's record headers — what
/// `grep -b -a '^record '` prints; no payload line starts with `record `.
fn record_starts(journal: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 0;
    for line in journal.split_inclusive(|&b| b == b'\n') {
        if line.starts_with(b"record ") {
            starts.push(pos);
        }
        pos += line.len();
    }
    starts
}

/// Copies the journal file at every generation boundary (the monitor
/// runs right after the boundary's write lands) and, in `finish`, as the
/// run's final boundary left it.
struct JournalCopies {
    path: PathBuf,
    copies: Mutex<Vec<Vec<u8>>>,
}

impl JournalCopies {
    fn new(persist: &PersistConfig) -> JournalCopies {
        JournalCopies {
            path: persist.journal_path(),
            copies: Mutex::new(Vec::new()),
        }
    }

    /// Every copy, plus the file as the finished run left it.
    fn finish(self) -> Vec<Vec<u8>> {
        let mut copies = self.copies.into_inner().unwrap();
        copies.push(std::fs::read(&self.path).unwrap());
        copies
    }
}

impl ExploreMonitor for JournalCopies {
    fn on_generation(&self, _generation: u64, _evaluations: u64) -> bool {
        let bytes = std::fs::read(&self.path).unwrap();
        self.copies.lock().unwrap().push(bytes);
        true
    }
}

#[test]
fn resume_from_every_record_boundary_matches_uninterrupted() {
    // A crash between two boundaries leaves a journal ending at a record
    // boundary, or — mid-append — inside its last record. Cut every
    // journal the run wrote at each record boundary past the base, and
    // each appended journal inside its last record; a fresh process
    // resuming from any cut (empty store, so it pays the tool again)
    // must finish bitwise the uninterrupted run, for every explorer.
    // Exhaustive runs enumerate a 96-point space (10 boundaries at a
    // batch of 10) instead of the 768-point one.
    for token in [
        "nsga2",
        "random",
        "wsga",
        "exhaustive",
        "sa",
        "bayes",
        "auto",
    ] {
        let explorer = dovado::dse::Explorer::parse_token(token).unwrap();
        let depth_hi = if token == "exhaustive" { 64 } else { 512 };
        let tool = || tool_over(fifo_space(depth_hi), FaultPlan::none());
        for surrogate in [false, true] {
            let cfg = DseConfig {
                explorer: explorer.clone(),
                ..cfg(surrogate, false)
            };
            let base_dir = fresh_dir(&format!("cut-base-{token}-{surrogate}"));
            let persist = PersistConfig::new(&base_dir);
            let copies = JournalCopies::new(&persist);
            let baseline = tool()
                .explore_monitored(&cfg, Some(&persist), &copies)
                .unwrap();
            let mut cuts = BTreeSet::new();
            for journal in copies.finish() {
                let starts = record_starts(&journal);
                for &start in &starts[1..] {
                    cuts.insert(journal[..start].to_vec());
                }
                if let [_, .., last] = starts[..] {
                    cuts.insert(journal[..(last + journal.len()) / 2].to_vec());
                }
            }
            assert!(
                cuts.len() > GENERATIONS as usize,
                "{token}: only {} distinct cuts",
                cuts.len()
            );
            for (i, cut) in cuts.iter().enumerate() {
                let dir = fresh_dir(&format!("cut-{token}-{surrogate}-{i}"));
                let resume = PersistConfig {
                    resume: true,
                    ..PersistConfig::new(&dir)
                };
                std::fs::create_dir_all(&dir).unwrap();
                std::fs::write(resume.journal_path(), cut).unwrap();
                let resumed = tool().explore_persistent(&cfg, &resume).unwrap();
                assert_reports_bitwise(&baseline, &resumed);
                assert_final_journals_match(&base_dir, &dir);
                std::fs::remove_dir_all(&dir).unwrap();
            }
            std::fs::remove_dir_all(&base_dir).unwrap();
        }
    }
}

#[test]
fn a_long_run_makes_logarithmically_many_full_journal_writes() {
    // The shape of the benchmark's warm exploration: NSGA-II over
    // Corundum, a population of 32, 60 generations. A full write leaves
    // one record and an append adds one; the writer must make O(log G)
    // full writes and write at most 4x the final compact journal, where
    // rewriting the whole journal at every boundary makes 61 full writes
    // and writes ~32x.
    const LONG: u32 = 60;
    let study = corundum::case_study();
    let tool = study
        .dovado_with(EvalConfig {
            part: study.part.to_string(),
            ..EvalConfig::default()
        })
        .unwrap();
    let cfg = DseConfig {
        algorithm: Nsga2Config {
            pop_size: 32,
            seed: 31,
            ..Default::default()
        },
        termination: Termination::Generations(LONG),
        metrics: study.metrics.clone(),
        ..DseConfig::default()
    };
    let dir = fresh_dir("long");
    let persist = PersistConfig::new(&dir);
    let copies = JournalCopies::new(&persist);
    tool.explore_monitored(&cfg, Some(&persist), &copies)
        .unwrap();
    let copies = copies.finish();
    assert_eq!(copies.len(), LONG as usize + 1, "one write per boundary");
    let (mut full_writes, mut written, mut prev) = (0u32, 0usize, 0usize);
    for journal in &copies {
        if record_starts(journal).len() == 1 {
            full_writes += 1;
            written += journal.len();
        } else {
            assert!(journal.len() > prev, "an append grows the file");
            written += journal.len() - prev;
        }
        prev = journal.len();
    }
    let compact = dir.join("compact.dovado");
    write_journal(&compact, &read_journal(&persist.journal_path()).unwrap()).unwrap();
    let compact_bytes = std::fs::metadata(&compact).unwrap().len() as usize;
    let log2_boundaries = f64::from(LONG + 1).log2().ceil() as u32;
    assert!(
        full_writes <= log2_boundaries + 2,
        "{full_writes} full writes over {} boundaries",
        copies.len()
    );
    assert!(
        written <= 4 * compact_bytes,
        "wrote {written} bytes for a {compact_bytes}-byte journal"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal a persistent run of `cfg` wrote at its first boundary
/// (generation 0).
fn first_boundary_journal(tool: &Dovado, cfg: &DseConfig, persist: &PersistConfig) -> Vec<u8> {
    let copies = JournalCopies::new(persist);
    tool.explore_monitored(cfg, Some(persist), &copies).unwrap();
    copies.finish().swap_remove(0)
}

/// Installs `journal` as `persist`'s journal after `edit` changed it;
/// `write_journal` checksums the edited journal like any other.
fn write_edited_journal(persist: &PersistConfig, journal: &[u8], edit: impl FnOnce(&mut Journal)) {
    let path = persist.journal_path();
    std::fs::write(&path, journal).unwrap();
    let mut journal = read_journal(&path).unwrap();
    edit(&mut journal);
    write_journal(&path, &journal).unwrap();
}

#[test]
fn resume_survives_nan_objectives_in_the_journaled_population() {
    // A journal is a trust boundary: NaN objectives read from one must
    // flow through NSGA-II's sorts without aborting the run.
    let study = corundum::case_study();
    let tool = study
        .dovado_with(EvalConfig {
            part: study.part.to_string(),
            ..EvalConfig::default()
        })
        .unwrap();
    let cfg = DseConfig {
        algorithm: Nsga2Config {
            pop_size: 32,
            seed: 5,
            ..Default::default()
        },
        termination: Termination::Generations(12),
        metrics: study.metrics.clone(),
        ..DseConfig::default()
    };
    let dir = fresh_dir("nan");
    let persist = PersistConfig::new(&dir);
    let first = first_boundary_journal(&tool, &cfg, &persist);
    write_edited_journal(&persist, &first, |journal| {
        let SearchState::Nsga2 { population, .. } = &mut journal.snapshot.state else {
            panic!("an NSGA-II journal holds NSGA-II state");
        };
        for ind in population.iter_mut().step_by(3) {
            ind.raw[0] = f64::NAN;
            ind.min_objs[0] = f64::NAN;
        }
    });
    let resume = PersistConfig {
        resume: true,
        ..PersistConfig::new(&dir)
    };
    let report = tool
        .explore_persistent(&cfg, &resume)
        .expect("NaN objectives resume");
    assert_eq!(report.generations, 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_refuses_a_journaled_dataset_of_the_wrong_shape() {
    // A self-consistent dataset that does not fit the run used to abort
    // it at the first recorded point; each misfit is now a typed error
    // that names the journal.
    let tool = tool(FaultPlan::none());
    let cfg = DseConfig {
        algorithm: Nsga2Config {
            pop_size: 8,
            seed: 3,
            ..Default::default()
        },
        termination: Termination::Generations(30),
        surrogate: Some(SurrogateConfig {
            pretrain_samples: 10,
            ..Default::default()
        }),
        ..cfg(true, false)
    };
    let dir = fresh_dir("shape");
    let persist = PersistConfig::new(&dir);
    let first = first_boundary_journal(&tool, &cfg, &persist);
    let path = persist.journal_path();
    // The fifo's index bounds are DEPTH 0..=255 and DATA_WIDTH 0..=2,
    // with three metrics.
    let misfits = [
        ("#bounds,0:10;outputs=1\n5|1\n", "bounds"),
        ("#bounds,0:255,0:2;outputs=1\n5,1|1\n", "output(s)"),
        (
            "#bounds,0:255,0:2;outputs=3\n5,1|1,2,3\n256,0|1,2,3\n",
            "outside",
        ),
    ];
    for (csv, why) in misfits {
        write_edited_journal(&persist, &first, |journal| {
            journal.surrogate.as_mut().unwrap().dataset_csv = csv.to_string();
        });
        let resume = PersistConfig {
            resume: true,
            ..PersistConfig::new(&dir)
        };
        let err = tool.explore_persistent(&cfg, &resume).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, DovadoError::Config(_)), "{msg}");
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        assert!(msg.contains(why), "{msg}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
