//! The Dovado front door: design automation (evaluate given points) and
//! design space exploration (a portfolio of stepwise explorers over a
//! parameter space).
//!
//! Every strategy — NSGA-II, random, weighted-sum GA, exhaustive,
//! simulated annealing, the Bayesian acquisition loop — implements the
//! same [`dovado_moo::Explorer`] trait, so one driver loop gives each of
//! them journaling, generation events, cancellation, `--jobs`/`--workers`
//! schedules, and `dovado serve`. `--explorer auto` adds learned
//! selection: problem features decide trivial cases, and otherwise the
//! candidates race on a cheap synthesis-only budget before the winner is
//! committed (and journaled, so `--resume` replays the decision bitwise
//! instead of re-racing).

use crate::backend::ToolBackend;
use crate::engine::{Evaluator, Schedule};
use crate::error::{DovadoError, DovadoResult};
use crate::fitness::{DseProblem, FitnessStats};
use crate::flow::{EvalConfig, FlowStep, HdlSource};
use crate::metrics::{Evaluation, MetricSet};
use crate::obs::CandidateScore;
use crate::persist::{self, DatasetRows, JournalView, JournalWriter, PersistConfig, SurrogateView};
use crate::point::DesignPoint;
use crate::results::{DseReport, ParetoEntry, PointResult};
use crate::space::ParameterSpace;
use dovado_eda::{EvalStore, FaultKind};
use dovado_moo::{
    AnnealingExplorer, ExhaustiveExplorer, Explorer as EngineExplorer, ExplorerSnapshot,
    Individual, Nsga2Config, Nsga2Explorer, OptResult, RandomExplorer, SearchState, Termination,
    WsgaExplorer,
};
use dovado_surrogate::{Dataset, Kernel, SurrogateController, ThresholdPolicy};
use std::fs;
use std::sync::Arc;

/// Spaces at most this big are enumerated exactly by `--explorer auto`
/// instead of racing sampling-based candidates.
pub const EXHAUSTIVE_AUTO_LIMIT: u64 = 64;

/// Generations each portfolio candidate gets on the low-fidelity budget.
const RACE_GENERATIONS: u32 = 3;

/// Population/batch size of each portfolio candidate during the race.
const RACE_POP: usize = 8;

/// Candidate set raced by `--explorer auto`, in canonical order.
const RACE_CANDIDATES: [Explorer; 4] = [
    Explorer::Nsga2,
    Explorer::RandomSearch,
    Explorer::SimulatedAnnealing,
    Explorer::Bayes,
];

/// Which exploration strategy drives the search.
///
/// The paper uses NSGA-II and surveys alternatives via Panerati et al.
/// \[12\], planning "an investigation on a run-time choice among various
/// algorithms" (§V) — this knob is that choice point, and
/// [`Explorer::Auto`] is the run-time choice itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Explorer {
    /// NSGA-II (the paper's solver; uses [`DseConfig::algorithm`]).
    #[default]
    Nsga2,
    /// Uniform random sampling, keeping the non-dominated archive.
    RandomSearch,
    /// Single-objective GA on a weighted sum of the (minimization-space)
    /// objectives; `None` = equal weights.
    WeightedSum(Option<Vec<f64>>),
    /// Exact exploration of the whole space (refused when the volume
    /// exceeds the given limit).
    Exhaustive {
        /// Maximum space volume to accept.
        limit: u64,
    },
    /// Simulated annealing on the mean of the minimization-space
    /// objectives, with a geometric cooling schedule.
    SimulatedAnnealing,
    /// Bayesian-style acquisition loop over the Nadaraya-Watson
    /// surrogate ([`crate::bayes::BayesExplorer`]).
    Bayes,
    /// Portfolio selection: commit to one of the concrete explorers
    /// using problem features and a low-fidelity race (see
    /// [`SelectionRecord`]).
    Auto,
}

impl Explorer {
    /// The canonical name used by the CLI, the journal, and
    /// [`SelectionRecord::explorer`].
    pub fn canonical_name(&self) -> &'static str {
        match self {
            Explorer::Nsga2 => "nsga2",
            Explorer::RandomSearch => "random",
            Explorer::WeightedSum(_) => "wsga",
            Explorer::Exhaustive { .. } => "exhaustive",
            Explorer::SimulatedAnnealing => "sa",
            Explorer::Bayes => "bayes",
            Explorer::Auto => "auto",
        }
    }

    /// Parses a CLI `--explorer` token (aliases included) or a journaled
    /// selection's [`Explorer::canonical_name`]; `None` for an unknown
    /// token.
    pub fn parse_token(token: &str) -> Option<Explorer> {
        Some(match token {
            "nsga2" => Explorer::Nsga2,
            "random" => Explorer::RandomSearch,
            "weighted-sum" | "ws" | "wsga" => Explorer::WeightedSum(None),
            "exhaustive" => Explorer::Exhaustive { limit: 100_000 },
            "sa" | "annealing" => Explorer::SimulatedAnnealing,
            "bayes" => Explorer::Bayes,
            "auto" => Explorer::Auto,
            _ => return None,
        })
    }
}

/// The journaled outcome of one portfolio selection (`--explorer auto`):
/// which explorer was committed, the problem features that decided it,
/// the low-fidelity spend, and the per-candidate race scores. Written
/// into every journal snapshot of an `auto` run so `--resume` replays
/// the decision instead of re-racing, and emitted onto the spine as
/// exactly one [`crate::obs::ObsEvent::SelectorDecision`] per run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRecord {
    /// Canonical name of the committed explorer.
    pub explorer: String,
    /// Parameter-space volume at selection time.
    pub space_volume: u64,
    /// Number of optimization objectives.
    pub objectives: u32,
    /// Successful low-fidelity (synthesis-only) runs the race spent.
    pub lowfi_runs: u64,
    /// Simulated tool seconds the race spent; ledgered separately from
    /// full-flow spend, so soft deadlines budget only the real flow.
    pub lowfi_time_s: f64,
    /// Per-candidate race scores, in canonical race order (empty when a
    /// problem-feature shortcut decided without racing).
    pub candidates: Vec<CandidateScore>,
}

/// Configuration of the fitness-approximation model.
#[derive(Debug, Clone)]
pub struct SurrogateConfig {
    /// Threshold policy (paper default: adaptive Γ).
    pub policy: ThresholdPolicy,
    /// Synthetic-dataset size M: distinct random tool calls made before
    /// exploration (paper default 100, user-definable).
    pub pretrain_samples: usize,
    /// Kernel (paper: Gaussian).
    pub kernel: Kernel,
    /// Sampling seed for the synthetic dataset.
    pub seed: u64,
    /// Re-run LOO-CV bandwidth selection every this many dataset
    /// insertions (1 = the paper's retrain-after-every-addition). Batch
    /// decisions are unaffected by values > 1: the staged pipeline
    /// refreshes any stale bandwidth before each generation's decide
    /// phase, so amortization only changes *when* selection runs, not the
    /// data it sees.
    pub reselect_every: usize,
    /// Neighborhood size for truncated Nadaraya-Watson prediction and
    /// large-dataset LOO-CV (0 = exact all-points estimation, the legacy
    /// quadratic path). The default keeps estimates within the truncation
    /// error bound while holding per-query cost at O(k·log M).
    pub neighbor_k: usize,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            policy: ThresholdPolicy::paper_default(),
            pretrain_samples: 100,
            kernel: Kernel::Gaussian,
            seed: 0x5EED,
            reselect_every: 25,
            neighbor_k: dovado_surrogate::DEFAULT_NEIGHBOR_K,
        }
    }
}

/// Configuration of one exploration run.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// Exploration strategy.
    pub explorer: Explorer,
    /// Genetic-algorithm settings (used by [`Explorer::Nsga2`]; population
    /// size doubles as the batch size for random search and the weighted-
    /// sum GA).
    pub algorithm: Nsga2Config,
    /// Stop condition.
    pub termination: Termination,
    /// Metrics to optimize.
    pub metrics: MetricSet,
    /// Fitness approximation (None = always call the tool, as the paper's
    /// Corundum/Neorv32/TiReX runs do).
    pub surrogate: Option<SurrogateConfig>,
    /// Evaluate tool batches and surrogate decisions in parallel on the
    /// ambient rayon pool (the CLI sizes it from `--jobs`). Excluded from
    /// the resume fingerprint: a parallel run is bitwise a serial one.
    pub parallel: bool,
    /// Distributed evaluation: dispatch tool batches to this many worker
    /// processes (`--workers`) instead of in-process rayon threads.
    /// Validated by [`crate::engine::validate_workers`]; excluded from
    /// the resume fingerprint like `parallel`, so a journal written by a
    /// 4-worker fleet resumes under any fleet size.
    pub workers: Option<usize>,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            explorer: Explorer::Nsga2,
            algorithm: Nsga2Config::default(),
            termination: Termination::Generations(20),
            metrics: MetricSet::area_frequency(),
            surrogate: None,
            parallel: false,
            workers: None,
        }
    }
}

/// Observer of a running exploration with a veto: the serve scheduler's
/// cancellation and live-streaming hook.
///
/// [`Dovado::explore_monitored`] calls [`on_generation`] after every
/// completed exploration generation (after the `Generation` event lands on
/// the spine and after any journal write). Returning `false` stops the
/// run with [`DovadoError::Cancelled`]. Implementations must not emit
/// onto the spine — monitoring is observation, and a monitored run's
/// trace stays byte-identical to an unmonitored one.
///
/// [`on_generation`]: ExploreMonitor::on_generation
pub trait ExploreMonitor: Send + Sync {
    /// One generation boundary: 1-based `generation`, cumulative fitness
    /// `evaluations`. Return `true` to continue, `false` to cancel.
    fn on_generation(&self, generation: u64, evaluations: u64) -> bool;
}

/// A configured Dovado instance for one module.
pub struct Dovado {
    evaluator: Evaluator,
    space: ParameterSpace,
}

impl Dovado {
    /// Parses sources and prepares the evaluator (on the default
    /// simulated-Vivado backend).
    pub fn new(
        sources: Vec<HdlSource>,
        top_module: &str,
        space: ParameterSpace,
        eval_config: EvalConfig,
    ) -> DovadoResult<Dovado> {
        Self::from_evaluator(Evaluator::new(sources, top_module, eval_config)?, space)
    }

    /// Like [`Dovado::new`], but runs every tool call on an explicit
    /// [`ToolBackend`] — the scripted mock for tests, or any other
    /// implementation of the tool boundary. Everything above the backend
    /// (exploration, persistence, resume) is backend-independent.
    pub fn with_backend(
        sources: Vec<HdlSource>,
        top_module: &str,
        space: ParameterSpace,
        eval_config: EvalConfig,
        backend: Arc<dyn ToolBackend>,
    ) -> DovadoResult<Dovado> {
        Self::from_evaluator(
            Evaluator::with_backend(sources, top_module, eval_config, backend)?,
            space,
        )
    }

    fn from_evaluator(evaluator: Evaluator, space: ParameterSpace) -> DovadoResult<Dovado> {
        // Sanity: every space parameter must exist on the module.
        for p in space.params() {
            if evaluator.module().parameter(&p.name).is_none() {
                return Err(crate::error::DovadoError::Space(format!(
                    "module `{}` has no parameter `{}`",
                    evaluator.module().name,
                    p.name
                )));
            }
        }
        Ok(Dovado { evaluator, space })
    }

    /// The parameter space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// The underlying evaluator (single-point design automation).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Mutable access to the underlying evaluator — e.g. to attach a
    /// shared evaluation store before exploring (the serve scheduler
    /// points every tenant's job at one shared store this way). When a
    /// store is already attached, persistent exploration reuses it
    /// instead of opening a per-run store.
    pub fn evaluator_mut(&mut self) -> &mut Evaluator {
        &mut self.evaluator
    }

    /// Design automation: evaluates one explicit design point.
    pub fn evaluate_point(&self, point: &DesignPoint) -> DovadoResult<Evaluation> {
        self.evaluator.evaluate(point)
    }

    /// Design automation: evaluates a set of points (optionally in
    /// parallel), pairing each with its result.
    pub fn evaluate_points(&self, points: &[DesignPoint], parallel: bool) -> Vec<PointResult> {
        self.evaluator
            .evaluate_many(points, parallel)
            .into_iter()
            .zip(points)
            .map(|(result, point)| PointResult {
                point: point.clone(),
                result,
            })
            .collect()
    }

    /// Exact exploration: evaluates *every* point in the space (refuses
    /// when the volume exceeds `limit`).
    pub fn evaluate_exhaustive(&self, limit: u64, parallel: bool) -> Option<Vec<PointResult>> {
        let points = self.space.enumerate(limit)?;
        Some(self.evaluate_points(&points, parallel))
    }

    /// Design space exploration: runs the configured explorer (with or
    /// without the approximation model) and returns the non-dominated set.
    pub fn explore(&self, cfg: &DseConfig) -> DovadoResult<DseReport> {
        self.explore_inner(cfg, None, None)
    }

    /// Design space exploration with crash-safe persistence.
    ///
    /// Evaluations go through the content-addressed store under
    /// `persist.dir/store/` (a warm store answers repeats with zero tool
    /// runs), and the full exploration state — whichever explorer runs,
    /// portfolio selection included — is journaled to
    /// `persist.dir/journal.dovado` at every generation boundary, as
    /// checksummed records appended to an atomically written base (see
    /// [`crate::persist`]). With
    /// `persist.resume` set, the run restarts from the journal and
    /// continues bitwise-identically to an uninterrupted run (same
    /// Pareto front, dataset and fitness counters; only wall-clock
    /// accounting of already-stored evaluations differs).
    pub fn explore_persistent(
        &self,
        cfg: &DseConfig,
        persist_cfg: &PersistConfig,
    ) -> DovadoResult<DseReport> {
        self.explore_inner(cfg, Some(persist_cfg), None)
    }

    /// Design space exploration under an [`ExploreMonitor`]: the monitor
    /// sees every generation boundary and can cancel the run by
    /// returning `false`, which surfaces as
    /// [`DovadoError::Cancelled`]. With persistence on, the journal
    /// written at the last boundary before the cancellation survives, so
    /// a cancelled run is resumable like a crashed one. The monitor
    /// never emits onto the spine, so a monitored run's trace is
    /// byte-identical to an unmonitored one.
    pub fn explore_monitored(
        &self,
        cfg: &DseConfig,
        persist_cfg: Option<&PersistConfig>,
        monitor: &dyn ExploreMonitor,
    ) -> DovadoResult<DseReport> {
        self.explore_inner(cfg, persist_cfg, Some(monitor))
    }

    fn explore_inner(
        &self,
        cfg: &DseConfig,
        persist_cfg: Option<&PersistConfig>,
        monitor: Option<&dyn ExploreMonitor>,
    ) -> DovadoResult<DseReport> {
        // Validate the fleet size up front so a programmatic `workers: 0`
        // fails fast, exactly like the CLI flag.
        let schedule = Self::schedule_of(cfg)?;
        let mut evaluator = self.evaluator.clone();
        if let Some(p) = persist_cfg {
            fs::create_dir_all(&p.dir).map_err(|e| {
                DovadoError::Config(format!("cannot create {}: {e}", p.dir.display()))
            })?;
            let capacity = crate::engine::validate_store_capacity(p.store_capacity)?;
            // A pre-attached store (e.g. the serve scheduler's shared
            // store) takes precedence over the per-run one.
            if evaluator.store().is_none() {
                let store = EvalStore::open_bounded(&p.store_dir(), capacity).map_err(|e| {
                    DovadoError::Config(format!(
                        "cannot open store {}: {e}",
                        p.store_dir().display()
                    ))
                })?;
                evaluator.attach_store(store);
            }
        }
        if let Some(p) = persist_cfg.filter(|p| p.resume) {
            return self.resume_explore(cfg, p, evaluator, monitor);
        }

        // Resolve `auto` before anything evaluates: the decision is made
        // on the low-fidelity budget and lands on the spine (and in
        // every journal write) so resume never re-races.
        let (kind, selection) = match &cfg.explorer {
            Explorer::Auto => {
                let (kind, record) =
                    self.select_explorer(cfg, &evaluator, persist_cfg.is_some())?;
                (kind, Some(record))
            }
            other => (other.clone(), None),
        };
        if let Some(record) = &selection {
            Self::emit_selection(&evaluator, record);
        }

        let mut problem = DseProblem::new(
            evaluator,
            self.space.clone(),
            cfg.metrics.clone(),
            cfg.surrogate.as_ref(),
        )?;
        problem.schedule = schedule;
        let engine = self.build_explorer(&kind, cfg, &mut problem)?;
        let result = self.run_explorer(
            &mut problem,
            cfg,
            &Self::effective_termination(&kind, &cfg.termination),
            persist_cfg,
            monitor,
            selection.as_ref(),
            engine,
        )?;
        self.assemble_report(cfg, &problem, result, selection)
    }

    /// Starts a fresh engine for one concrete explorer kind. The batch
    /// size (and population size, where the algorithm has one) is
    /// [`Nsga2Config::pop_size`]; the seed is [`Nsga2Config::seed`].
    fn build_explorer(
        &self,
        kind: &Explorer,
        cfg: &DseConfig,
        problem: &mut DseProblem,
    ) -> DovadoResult<Box<dyn EngineExplorer>> {
        let batch = cfg.algorithm.pop_size;
        let seed = cfg.algorithm.seed;
        Ok(match kind {
            // NSGA-II mates pairs; refuse what `Nsga2Explorer::start`
            // would assert on.
            Explorer::Nsga2 if batch < 2 => {
                return Err(DovadoError::Config(format!(
                    "--pop: NSGA-II needs a population of at least 2, got {batch}"
                )))
            }
            Explorer::Nsga2 => Box::new(Nsga2Explorer::start(problem, &cfg.algorithm)),
            Explorer::RandomSearch => Box::new(RandomExplorer::start(&*problem, batch, seed)),
            Explorer::WeightedSum(weights) => {
                let w = Self::resolve_weights(weights.as_deref(), cfg.metrics.len())?;
                Box::new(WsgaExplorer::start(problem, w, batch, seed))
            }
            Explorer::Exhaustive { limit } => Box::new(
                ExhaustiveExplorer::start(&*problem, *limit, batch).ok_or_else(|| {
                    DovadoError::Config(format!(
                        "space volume {} exceeds the exhaustive limit {limit}",
                        self.space.volume()
                    ))
                })?,
            ),
            Explorer::SimulatedAnnealing => {
                Box::new(AnnealingExplorer::start(problem, batch, seed))
            }
            Explorer::Bayes => Box::new(crate::bayes::BayesExplorer::start(problem, batch, seed)),
            Explorer::Auto => {
                return Err(DovadoError::Config(
                    "auto must resolve to a concrete explorer before the engine starts".into(),
                ))
            }
        })
    }

    /// Rebuilds an engine from its journaled snapshot. The fingerprint
    /// already pins the configuration, so a kind mismatch here means a
    /// hand-edited or cross-wired journal — refuse it.
    fn resume_explorer(
        kind: &Explorer,
        cfg: &DseConfig,
        problem: &DseProblem,
        snap: ExplorerSnapshot,
    ) -> DovadoResult<Box<dyn EngineExplorer>> {
        let batch = cfg.algorithm.pop_size;
        let ExplorerSnapshot { ledger, state } = snap;
        Ok(match (kind, state) {
            (Explorer::Nsga2, SearchState::Nsga2 { rng, population }) => Box::new(
                Nsga2Explorer::resume(problem, &cfg.algorithm, ledger, rng, population),
            ),
            (Explorer::RandomSearch, SearchState::Random { rng }) => {
                Box::new(RandomExplorer::resume(problem, batch, ledger, rng))
            }
            (Explorer::WeightedSum(weights), SearchState::WeightedSum { rng, population }) => {
                let w = Self::resolve_weights(weights.as_deref(), cfg.metrics.len())?;
                Box::new(WsgaExplorer::resume(
                    problem, w, batch, ledger, rng, population,
                ))
            }
            (Explorer::Exhaustive { .. }, SearchState::Exhaustive { cursor }) => {
                Box::new(ExhaustiveExplorer::resume(problem, batch, ledger, cursor))
            }
            (
                Explorer::SimulatedAnnealing,
                SearchState::Annealing {
                    rng,
                    current,
                    energy,
                    temperature,
                },
            ) => Box::new(AnnealingExplorer::resume(
                problem,
                batch,
                ledger,
                rng,
                current,
                energy,
                temperature,
            )),
            (Explorer::Bayes, SearchState::Bayes { rng }) => Box::new(
                crate::bayes::BayesExplorer::resume(problem, batch, ledger, rng),
            ),
            (kind, state) => {
                return Err(DovadoError::Config(format!(
                    "journal holds `{}` explorer state but the configuration asks for \
                     `{}`; refusing to resume",
                    state.kind(),
                    kind.canonical_name()
                )))
            }
        })
    }

    /// Weighted-sum weights with arity validation (`None` = equal).
    fn resolve_weights(weights: Option<&[f64]>, n: usize) -> DovadoResult<Vec<f64>> {
        match weights {
            Some(w) if w.len() != n => Err(DovadoError::Config(format!(
                "weighted-sum wants {n} weights, got {}",
                w.len()
            ))),
            Some(w) => Ok(w.to_vec()),
            None => Ok(vec![1.0 / n as f64; n]),
        }
    }

    /// Exhaustive runs ignore the configured stop condition: the space
    /// is enumerated exactly once and exhaustion is the only terminator.
    fn effective_termination(kind: &Explorer, termination: &Termination) -> Termination {
        match kind {
            Explorer::Exhaustive { .. } => Termination::Generations(u32::MAX),
            _ => termination.clone(),
        }
    }

    /// Emits the portfolio decision onto the main spine.
    fn emit_selection(evaluator: &Evaluator, record: &SelectionRecord) {
        evaluator
            .spine()
            .emit_next(crate::obs::ObsEvent::SelectorDecision {
                explorer: record.explorer.clone(),
                space_volume: record.space_volume,
                objectives: record.objectives,
                lowfi_runs: record.lowfi_runs,
                lowfi_time_s: record.lowfi_time_s,
                candidates: record.candidates.clone(),
            });
    }

    /// Portfolio selection for `--explorer auto`.
    ///
    /// Problem features decide the trivial cases: a space no bigger than
    /// [`EXHAUSTIVE_AUTO_LIMIT`] is enumerated exactly, and a single
    /// objective goes to the scalarizing GA. Otherwise the candidates in
    /// [`RACE_CANDIDATES`] race serially for [`RACE_GENERATIONS`]
    /// generations each on a *low-fidelity* evaluator — the synthesis-only
    /// degraded flow with a fresh ledger and no store — and the winner by
    /// common-reference hypervolume (early-slope tie-break) is committed.
    ///
    /// The race-window host crash is drawn *before* any probe leg runs:
    /// a crashed selection leaves the backend exactly as cold as a fresh
    /// process, so the re-run re-races bitwise. (Drawn only for
    /// persistent runs, like the generation-boundary crash.)
    fn select_explorer(
        &self,
        cfg: &DseConfig,
        evaluator: &Evaluator,
        persistent: bool,
    ) -> DovadoResult<(Explorer, SelectionRecord)> {
        let space_volume = self.space.volume();
        let objectives = cfg.metrics.len() as u32;
        let shortcut = |name: &str| SelectionRecord {
            explorer: name.to_string(),
            space_volume,
            objectives,
            lowfi_runs: 0,
            lowfi_time_s: 0.0,
            candidates: Vec::new(),
        };
        if space_volume <= EXHAUSTIVE_AUTO_LIMIT {
            return Ok((
                Explorer::Exhaustive {
                    limit: EXHAUSTIVE_AUTO_LIMIT,
                },
                shortcut("exhaustive"),
            ));
        }
        if objectives == 1 {
            return Ok((Explorer::WeightedSum(None), shortcut("wsga")));
        }
        if persistent {
            if let Some(injector) = evaluator.injector() {
                if injector.fires(FaultKind::HostCrash) {
                    evaluator.spine().emit_next(crate::obs::ObsEvent::Fault {
                        kind: "host_crash".to_string(),
                    });
                    return Err(DovadoError::Interrupted { generation: 0 });
                }
            }
        }

        let probe = evaluator.probe_with_step(FlowStep::Synthesis);
        let race_cfg = DseConfig {
            algorithm: Nsga2Config {
                pop_size: RACE_POP,
                ..cfg.algorithm.clone()
            },
            ..cfg.clone()
        };
        let term = Termination::Generations(RACE_GENERATIONS);
        let mut legs: Vec<(&'static str, u64, Vec<Vec<Individual>>)> = Vec::new();
        for candidate in &RACE_CANDIDATES {
            // Each leg gets a fresh problem over the shared probe
            // evaluator (serial schedule: the race is always bitwise,
            // whatever `--jobs`/`--workers` the main run uses).
            let mut p =
                DseProblem::new(probe.clone(), self.space.clone(), cfg.metrics.clone(), None)?;
            let mut engine = self.build_explorer(candidate, &race_cfg, &mut p)?;
            let mut fronts = vec![engine.front()];
            while !engine.should_stop(&p, &term) {
                engine.step(&mut p);
                fronts.push(engine.front());
            }
            legs.push((candidate.canonical_name(), engine.evaluations(), fronts));
        }

        // One reference point dominated by every probed objective vector
        // makes the hypervolumes comparable across candidates.
        let mut reference = vec![f64::NEG_INFINITY; cfg.metrics.len()];
        for (_, _, fronts) in &legs {
            for ind in fronts.iter().flatten() {
                for (r, v) in reference.iter_mut().zip(&ind.min_objs) {
                    *r = r.max(*v);
                }
            }
        }
        for r in &mut reference {
            *r = if r.is_finite() { *r + 1.0 } else { 1.0 };
        }
        let candidates: Vec<CandidateScore> = legs
            .iter()
            .map(|(name, evaluations, fronts)| {
                let hv: Vec<f64> = fronts
                    .iter()
                    .map(|f| dovado_moo::metrics::hypervolume_of(f, &reference))
                    .collect();
                let first = hv.first().copied().unwrap_or(0.0);
                let last = hv.last().copied().unwrap_or(0.0);
                let slope = if hv.len() > 1 {
                    (last - first) / (hv.len() - 1) as f64
                } else {
                    0.0
                };
                CandidateScore {
                    name: name.to_string(),
                    evaluations: *evaluations,
                    hypervolume: last,
                    slope,
                }
            })
            .collect();
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            let b = &candidates[best];
            if c.hypervolume > b.hypervolume
                || (c.hypervolume == b.hypervolume && c.slope > b.slope)
            {
                best = i;
            }
        }
        let record = SelectionRecord {
            explorer: candidates[best].name.clone(),
            space_volume,
            objectives,
            lowfi_runs: probe.total_runs(),
            lowfi_time_s: probe.total_tool_time(),
            candidates,
        };
        Ok((RACE_CANDIDATES[best].clone(), record))
    }

    /// The single stepwise driver behind every explorer and both
    /// [`Dovado::explore`] and [`Dovado::explore_persistent`]: one
    /// start/step loop, with the write-ahead journal as optional
    /// configuration rather than a separate code path. When persistence
    /// is on, one [`JournalWriter`] records the exploration state at
    /// every generation boundary, copying only the archive and history
    /// entries added since its previous record; the simulated host crash
    /// is drawn only *after* a boundary's write lands, so an interrupted
    /// run always resumes with at least one generation of progress — a
    /// crash/resume loop terminates even when every boundary re-crashes.
    /// Without persistence no journal is written and no crash is drawn,
    /// so the fault stream is consumed identically to earlier
    /// unjournaled runs.
    #[allow(clippy::too_many_arguments)]
    fn run_explorer(
        &self,
        problem: &mut DseProblem,
        cfg: &DseConfig,
        termination: &Termination,
        persist_cfg: Option<&PersistConfig>,
        monitor: Option<&dyn ExploreMonitor>,
        selection: Option<&SelectionRecord>,
        mut engine: Box<dyn EngineExplorer>,
    ) -> DovadoResult<OptResult> {
        let mut journal = persist_cfg.map(|p| {
            (
                JournalWriter::new(p.journal_path()),
                self.persist_fingerprint(cfg),
            )
        });
        loop {
            if engine.should_stop(&*problem, termination) {
                if let Some((writer, f)) = &mut journal {
                    writer.write(&Self::journal_of(
                        problem,
                        engine.as_ref(),
                        selection,
                        f,
                        true,
                    ))?;
                }
                break;
            }
            engine.step(problem);
            problem
                .evaluator()
                .spine()
                .emit_next(crate::obs::ObsEvent::Generation {
                    generation: engine.generation() as u64,
                    evaluations: engine.evaluations(),
                });
            if let Some((writer, f)) = &mut journal {
                writer.write(&Self::journal_of(
                    problem,
                    engine.as_ref(),
                    selection,
                    f,
                    false,
                ))?;
                if let Some(injector) = problem.evaluator().injector() {
                    if injector.fires(FaultKind::HostCrash) {
                        problem
                            .evaluator()
                            .spine()
                            .emit_next(crate::obs::ObsEvent::Fault {
                                kind: "host_crash".to_string(),
                            });
                        return Err(DovadoError::Interrupted {
                            generation: engine.generation(),
                        });
                    }
                }
            }
            // The cancellation point sits *after* the journal write, so a
            // cancelled persistent run keeps its latest durable snapshot
            // and resumes exactly like a crashed one.
            if let Some(m) = monitor {
                if !m.on_generation(engine.generation() as u64, engine.evaluations()) {
                    return Err(DovadoError::Cancelled {
                        generation: engine.generation(),
                    });
                }
            }
        }
        Ok(engine.into_result())
    }

    /// Restarts any explorer's run from its journal. An `auto` run's
    /// journaled [`SelectionRecord`] replays the portfolio decision —
    /// the resumed process commits to the same explorer without
    /// re-racing, and re-emits the decision event (with its low-fidelity
    /// spend) exactly when this spine hasn't already seen one.
    fn resume_explore(
        &self,
        cfg: &DseConfig,
        persist_cfg: &PersistConfig,
        evaluator: Evaluator,
        monitor: Option<&dyn ExploreMonitor>,
    ) -> DovadoResult<DseReport> {
        let journal = persist::read_journal(&persist_cfg.journal_path())?;
        let fingerprint = self.persist_fingerprint(cfg);
        if journal.fingerprint != fingerprint {
            return Err(DovadoError::Config(format!(
                "journal fingerprint {} does not match this run's configuration \
                 ({fingerprint}); refusing to resume a different run",
                journal.fingerprint
            )));
        }
        let controller = match (&cfg.surrogate, &journal.surrogate) {
            (Some(scfg), Some(sj)) => {
                let dataset = Dataset::from_csv(&sj.dataset_csv).map_err(|e| {
                    DovadoError::Config(format!("journaled surrogate dataset unreadable: {e}"))
                })?;
                let mut restored = SurrogateController::restore(
                    dataset,
                    scfg.kernel,
                    sj.bandwidth,
                    scfg.policy,
                    sj.gamma,
                    sj.retrain_every,
                    sj.inserts_since_retrain,
                    sj.stats,
                );
                restored.neighbor_k = scfg.neighbor_k;
                Some(restored)
            }
            (None, None) => None,
            _ => {
                return Err(DovadoError::Config(
                    "journal and configuration disagree about the approximation model".into(),
                ))
            }
        };
        let (kind, selection) = match &cfg.explorer {
            Explorer::Auto => {
                let record = journal.selection.clone().ok_or_else(|| {
                    DovadoError::Config(
                        "auto journal carries no selection record; cannot resume".into(),
                    )
                })?;
                let kind = Explorer::parse_token(&record.explorer).ok_or_else(|| {
                    DovadoError::Config(format!(
                        "journaled selection names unknown explorer `{}`",
                        record.explorer
                    ))
                })?;
                (kind, Some(record))
            }
            other => (other.clone(), journal.selection.clone()),
        };
        if let Some(record) = &selection {
            if evaluator.spine().totals().decisions == 0 {
                Self::emit_selection(&evaluator, record);
            }
        }
        // Splice the journaled spend into this process's spine as one
        // `Resume` event carrying only the *deficit* per counter, so a
        // soft deadline keeps meaning "whole run", not "since restart",
        // and counters stay continuous without double-counting (the
        // deficit is ~zero when resuming within the process that
        // crashed, since its spine already holds the journaled work).
        let live = evaluator.trace_summary();
        let deficit = crate::trace::TraceSummary {
            attempts: journal.trace.attempts.saturating_sub(live.attempts),
            retries: journal.trace.retries.saturating_sub(live.retries),
            transient_failures: journal
                .trace
                .transient_failures
                .saturating_sub(live.transient_failures),
            permanent_failures: journal
                .trace
                .permanent_failures
                .saturating_sub(live.permanent_failures),
            cache_hits: journal.trace.cache_hits.saturating_sub(live.cache_hits),
            store_hits: journal.trace.store_hits.saturating_sub(live.store_hits),
            backoff_s: (journal.trace.backoff_s - live.backoff_s).max(0.0),
        };
        evaluator.record_resume(
            deficit,
            journal.runs.saturating_sub(evaluator.total_runs()),
            (journal.tool_time_s - evaluator.total_tool_time()).max(0.0),
        );

        let mut problem = DseProblem::resume_from(
            evaluator,
            self.space.clone(),
            cfg.metrics.clone(),
            controller,
            journal.stats,
        );
        problem.schedule = Self::schedule_of(cfg)?;
        let engine = Self::resume_explorer(&kind, cfg, &problem, journal.snapshot)?;
        let result = if journal.complete {
            // The run had already terminated when the journal was
            // written; re-deriving the result is pure.
            engine.into_result()
        } else {
            self.run_explorer(
                &mut problem,
                cfg,
                &Self::effective_termination(&kind, &cfg.termination),
                Some(persist_cfg),
                monitor,
                selection.as_ref(),
                engine,
            )?
        };
        self.assemble_report(cfg, &problem, result, selection)
    }

    /// The batch [`Schedule`] a configuration asks for: `workers` wins
    /// over `parallel` (a distributed run is already parallel) and is
    /// validated, so a zero-worker fleet is rejected.
    fn schedule_of(cfg: &DseConfig) -> DovadoResult<Schedule> {
        if let Some(w) = cfg.workers {
            crate::engine::validate_workers(w)?;
            return Ok(Schedule::Distributed { workers: w });
        }
        Ok(cfg.parallel.into())
    }

    /// Everything that identifies one exploration run for resume
    /// purposes. Deliberately excludes `parallel` and `workers`
    /// (a parallel or distributed run is bitwise a sequential one).
    fn persist_fingerprint(&self, cfg: &DseConfig) -> String {
        self.evaluator
            .content_key()
            .extend(&[
                format!("{:?}", cfg.explorer),
                format!("{:?}", cfg.algorithm),
                format!("{:?}", cfg.termination),
                format!("{:?}", cfg.metrics),
                format!("{:?}", cfg.surrogate),
                format!("{:?}", self.space),
            ])
            .hex()
    }

    /// The exploration state at a generation boundary, borrowed in place
    /// from the problem, its evaluator and surrogate, and the engine.
    fn journal_of<'a>(
        problem: &'a DseProblem,
        engine: &'a dyn EngineExplorer,
        selection: Option<&'a SelectionRecord>,
        fingerprint: &'a str,
        complete: bool,
    ) -> JournalView<'a> {
        let evaluator = problem.evaluator();
        let ledger = engine.ledger();
        JournalView {
            fingerprint,
            complete,
            tool_time_s: evaluator.total_tool_time(),
            stats: problem.stats,
            trace: evaluator.trace_summary(),
            runs: evaluator.total_runs(),
            generation: ledger.generation,
            evaluations: ledger.evaluations,
            archive: &ledger.archive,
            history: &ledger.history,
            state: engine.state(),
            selection,
            surrogate: problem.surrogate().map(|c| SurrogateView {
                bandwidth: c.model().bandwidth,
                gamma: c.gamma(),
                inserts_since_retrain: c.inserts_since_retrain(),
                retrain_every: c.retrain_every,
                stats: c.stats,
                dataset: DatasetRows::Live(c.dataset()),
            }),
        }
    }

    fn assemble_report(
        &self,
        cfg: &DseConfig,
        problem: &DseProblem,
        result: OptResult,
        selection: Option<SelectionRecord>,
    ) -> DovadoResult<DseReport> {
        let mut pareto = Vec::with_capacity(result.pareto.len());
        for ind in result.sorted_pareto() {
            let point = problem.decode(&ind.genome)?;
            pareto.push(ParetoEntry {
                point,
                values: ind.raw.clone(),
            });
        }
        let stats: FitnessStats = problem.stats;
        // The problem's evaluator is a clone of ours; clones share the
        // flow trace, so the summary covers pretraining and exploration.
        let trace = problem.evaluator().trace_summary();
        let events = problem.evaluator().events();
        let spine = problem.evaluator().snapshot();
        Ok(DseReport {
            pareto,
            metrics: cfg.metrics.clone(),
            generations: result.generations,
            evaluations: result.evaluations,
            tool_runs: stats.tool_runs,
            cached_runs: stats.cached_runs,
            estimates: stats.estimates,
            failures: stats.failures,
            transient_failures: stats.transient_failures,
            permanent_failures: stats.permanent_failures,
            retries: stats.retries,
            trace,
            events,
            spine,
            tool_time_s: self.evaluator.total_tool_time(),
            history: result.history,
            selection,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::persist::Journal;
    use crate::space::Domain;
    use dovado_fpga::ResourceKind;
    use dovado_hdl::Language;

    const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

    fn dovado() -> Dovado {
        Dovado::new(
            vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
            "fifo_v3",
            ParameterSpace::new().with(
                "DEPTH",
                Domain::Range {
                    lo: 2,
                    hi: 256,
                    step: 2,
                },
            ),
            EvalConfig::default(),
        )
        .unwrap()
    }

    fn metrics() -> MetricSet {
        MetricSet::new(vec![
            Metric::Utilization(ResourceKind::Lut),
            Metric::Utilization(ResourceKind::Register),
            Metric::Fmax,
        ])
    }

    #[test]
    fn space_parameter_validation() {
        let r = Dovado::new(
            vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
            "fifo_v3",
            ParameterSpace::new().with("GHOST", Domain::Bool),
            EvalConfig::default(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn point_set_evaluation() {
        let d = dovado();
        let points = vec![
            DesignPoint::from_pairs(&[("DEPTH", 8)]),
            DesignPoint::from_pairs(&[("DEPTH", 64)]),
        ];
        let results = d.evaluate_points(&points, false);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn exhaustive_refuses_big_spaces() {
        let d = dovado();
        assert!(d.evaluate_exhaustive(10, false).is_none());
    }

    #[test]
    fn dse_finds_tradeoff_front() {
        let d = dovado();
        let cfg = DseConfig {
            algorithm: Nsga2Config {
                pop_size: 12,
                seed: 3,
                ..Default::default()
            },
            termination: Termination::Generations(6),
            metrics: metrics(),
            surrogate: None,
            parallel: false,
            explorer: Default::default(),
            workers: None,
        };
        let report = d.explore(&cfg).unwrap();
        assert!(!report.pareto.is_empty());
        assert_eq!(report.generations, 6);
        assert!(report.tool_runs > 0);
        assert_eq!(report.estimates, 0);
        // Front entries must each carry all metric values.
        assert!(report.pareto.iter().all(|e| e.values.len() == 3));
        // Smallest depth should appear: it minimizes both area metrics and
        // maximizes frequency → single-point front is acceptable too.
        assert!(report.tool_time_s > 0.0);
    }

    #[test]
    fn dse_with_surrogate_saves_tool_runs() {
        let d = dovado();
        let base_cfg = DseConfig {
            algorithm: Nsga2Config {
                pop_size: 10,
                seed: 5,
                ..Default::default()
            },
            termination: Termination::Generations(8),
            metrics: metrics(),
            surrogate: None,
            parallel: false,
            explorer: Default::default(),
            workers: None,
        };
        let plain = d.explore(&base_cfg).unwrap();

        let d2 = dovado();
        let sur_cfg = DseConfig {
            surrogate: Some(SurrogateConfig {
                pretrain_samples: 30,
                ..Default::default()
            }),
            ..base_cfg
        };
        let with = d2.explore(&sur_cfg).unwrap();
        assert!(with.estimates > 0, "surrogate never used: {with:?}");
        // Tool runs during exploration (excluding pretraining) shrink.
        let explore_runs_with = with.tool_runs.saturating_sub(30);
        assert!(
            explore_runs_with < plain.tool_runs,
            "with={explore_runs_with} plain={}",
            plain.tool_runs
        );
    }

    #[test]
    fn power_metric_explorable() {
        use crate::metrics::Metric;
        let d = dovado();
        let report = d
            .explore(&DseConfig {
                algorithm: Nsga2Config {
                    pop_size: 8,
                    seed: 4,
                    ..Default::default()
                },
                termination: Termination::Generations(4),
                metrics: MetricSet::new(vec![Metric::Power, Metric::Fmax]),
                surrogate: None,
                parallel: true,
                ..Default::default()
            })
            .unwrap();
        assert!(!report.pareto.is_empty());
        // Power values are real (positive mW) on every front point.
        assert!(report.pareto.iter().all(|e| e.values[0] > 0.0));
        assert!(report.metric_table().contains("Power[mW]"));
    }

    #[test]
    fn alternative_explorers_run() {
        let d = dovado();
        let base = DseConfig {
            algorithm: Nsga2Config {
                pop_size: 10,
                seed: 2,
                ..Default::default()
            },
            termination: Termination::Evaluations(30),
            metrics: metrics(),
            surrogate: None,
            parallel: true,
            ..Default::default()
        };
        // Random search.
        let r = d
            .explore(&DseConfig {
                explorer: Explorer::RandomSearch,
                ..base.clone()
            })
            .unwrap();
        assert!(!r.pareto.is_empty());
        assert!(r.evaluations >= 30);
        // Weighted sum (equal weights).
        let w = d
            .explore(&DseConfig {
                explorer: Explorer::WeightedSum(None),
                ..base.clone()
            })
            .unwrap();
        assert!(!w.pareto.is_empty());
        // Weighted sum with wrong arity is rejected.
        assert!(d
            .explore(&DseConfig {
                explorer: Explorer::WeightedSum(Some(vec![1.0])),
                ..base.clone()
            })
            .is_err());
        // Exhaustive over the 128-point space.
        let e = d
            .explore(&DseConfig {
                explorer: Explorer::Exhaustive { limit: 200 },
                ..base.clone()
            })
            .unwrap();
        assert_eq!(e.evaluations, 128);
        // Exhaustive refuses when the limit is too small.
        assert!(d
            .explore(&DseConfig {
                explorer: Explorer::Exhaustive { limit: 10 },
                ..base.clone()
            })
            .is_err());
        // Simulated annealing.
        let sa = d
            .explore(&DseConfig {
                explorer: Explorer::SimulatedAnnealing,
                ..base.clone()
            })
            .unwrap();
        assert!(!sa.pareto.is_empty());
        assert!(sa.evaluations >= 30);
        // Bayesian acquisition.
        let bayes = d
            .explore(&DseConfig {
                explorer: Explorer::Bayes,
                ..base
            })
            .unwrap();
        assert!(!bayes.pareto.is_empty());
        assert!(bayes.evaluations >= 30);
    }

    #[test]
    fn every_concrete_explorer_journals_and_resumes_bitwise() {
        for explorer in [
            Explorer::Nsga2,
            Explorer::RandomSearch,
            Explorer::WeightedSum(None),
            Explorer::Exhaustive { limit: 200 },
            Explorer::SimulatedAnnealing,
            Explorer::Bayes,
        ] {
            let tag = format!("kind-{}", explorer.canonical_name());
            let dir = persist_dir(&tag);
            let cfg = DseConfig {
                explorer,
                ..small_cfg()
            };
            let persist_cfg = PersistConfig::new(&dir);
            let cold = dovado().explore_persistent(&cfg, &persist_cfg).unwrap();
            let resume_cfg = PersistConfig {
                resume: true,
                ..PersistConfig::new(&dir)
            };
            let resumed = dovado().explore_persistent(&cfg, &resume_cfg).unwrap();
            assert_eq!(resumed.generations, cold.generations, "{cfg:?}");
            assert_eq!(resumed.evaluations, cold.evaluations, "{cfg:?}");
            assert_eq!(resumed.pareto.len(), cold.pareto.len(), "{cfg:?}");
            for (a, b) in cold.pareto.iter().zip(&resumed.pareto) {
                assert_eq!(a.point, b.point);
                for (x, y) in a.values.iter().zip(&b.values) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn journal_writer_round_trips_every_boundary_of_every_explorer() {
        // Drive each engine (auto included) by hand, with and without the
        // surrogate, and read the journal back after every boundary's
        // write: it must hold the whole state that boundary captured, bit
        // for bit, whether the write was a full one or an append.
        let dir = persist_dir("writer-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let d = dovado();
        let compact = |name: &str, journal: &Journal| {
            let path = dir.join(name);
            persist::write_journal(&path, journal).unwrap();
            std::fs::read(path).unwrap()
        };
        for explorer in [
            Explorer::Nsga2,
            Explorer::RandomSearch,
            Explorer::WeightedSum(None),
            Explorer::Exhaustive { limit: 200 },
            Explorer::SimulatedAnnealing,
            Explorer::Bayes,
            Explorer::Auto,
        ] {
            for surrogate in [false, true] {
                let cfg = DseConfig {
                    explorer: explorer.clone(),
                    surrogate: surrogate.then(|| SurrogateConfig {
                        pretrain_samples: 10,
                        ..Default::default()
                    }),
                    ..small_cfg()
                };
                let (kind, selection) = match &cfg.explorer {
                    Explorer::Auto => {
                        let (kind, record) = d.select_explorer(&cfg, &d.evaluator, false).unwrap();
                        (kind, Some(record))
                    }
                    other => (other.clone(), None),
                };
                let mut problem = DseProblem::new(
                    d.evaluator.clone(),
                    d.space.clone(),
                    cfg.metrics.clone(),
                    cfg.surrogate.as_ref(),
                )
                .unwrap();
                let mut engine = d.build_explorer(&kind, &cfg, &mut problem).unwrap();
                let termination = Dovado::effective_termination(&kind, &cfg.termination);
                let path = dir.join(format!(
                    "{}-{surrogate}.dovado",
                    cfg.explorer.canonical_name()
                ));
                let mut writer = JournalWriter::new(&path);
                let mut boundaries = 0;
                loop {
                    let complete = engine.should_stop(&problem, &termination);
                    if !complete {
                        engine.step(&mut problem);
                    }
                    let sel = selection.as_ref();
                    let run = Dovado::journal_of(&problem, engine.as_ref(), sel, "fp", complete);
                    writer.write(&run).unwrap();
                    let read = persist::read_journal(&path).unwrap();
                    let whole = run.to_journal();
                    assert_eq!(read, whole, "{cfg:?} at boundary {boundaries}");
                    assert_eq!(compact("read", &read), compact("whole", &whole));
                    boundaries += 1;
                    if complete {
                        break;
                    }
                }
                assert!(boundaries > 2, "{cfg:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_races_commits_and_replays_without_re_racing() {
        // The 128-point space with 3 objectives is past both shortcuts,
        // so `auto` runs the low-fidelity race.
        let dir = persist_dir("auto");
        let cfg = DseConfig {
            explorer: Explorer::Auto,
            ..small_cfg()
        };
        let persist_cfg = PersistConfig::new(&dir);
        let cold = dovado().explore_persistent(&cfg, &persist_cfg).unwrap();
        let sel = cold.selection.clone().expect("auto must record a decision");
        assert_eq!(sel.space_volume, 128);
        assert_eq!(sel.objectives, 3);
        assert_eq!(sel.candidates.len(), 4, "all candidates raced");
        assert!(sel.lowfi_runs > 0, "race must spend low-fidelity runs");
        assert!(sel.lowfi_time_s > 0.0);
        assert!(
            sel.candidates.iter().any(|c| c.name == sel.explorer),
            "winner comes from the raced set"
        );
        // The decision landed on the spine exactly once, with the race
        // charged to the low-fidelity ledger, not the full-flow one.
        assert_eq!(cold.spine.lowfi_runs, sel.lowfi_runs);
        assert_eq!(
            cold.spine.lowfi_time_s.to_bits(),
            sel.lowfi_time_s.to_bits()
        );

        // Resume replays the journaled decision: identical record, and
        // not a single extra low-fidelity run.
        let resume_cfg = PersistConfig {
            resume: true,
            ..PersistConfig::new(&dir)
        };
        let resumed = dovado().explore_persistent(&cfg, &resume_cfg).unwrap();
        assert_eq!(resumed.selection.as_ref(), Some(&sel));
        assert_eq!(resumed.spine.lowfi_runs, sel.lowfi_runs, "no re-race");
        assert_eq!(resumed.generations, cold.generations);
        assert_eq!(resumed.pareto.len(), cold.pareto.len());
        for (a, b) in cold.pareto.iter().zip(&resumed.pareto) {
            assert_eq!(a.point, b.point);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_shortcuts_small_spaces_and_single_objectives() {
        // 32 points ≤ EXHAUSTIVE_AUTO_LIMIT → exact enumeration, no race.
        let small = Dovado::new(
            vec![HdlSource::new(
                "fifo.sv",
                dovado_hdl::Language::SystemVerilog,
                FIFO_SV,
            )],
            "fifo_v3",
            ParameterSpace::new().with(
                "DEPTH",
                Domain::Range {
                    lo: 2,
                    hi: 64,
                    step: 2,
                },
            ),
            EvalConfig::default(),
        )
        .unwrap();
        let r = small
            .explore(&DseConfig {
                explorer: Explorer::Auto,
                ..small_cfg()
            })
            .unwrap();
        let sel = r.selection.unwrap();
        assert_eq!(sel.explorer, "exhaustive");
        assert_eq!(sel.lowfi_runs, 0, "shortcuts never race");
        assert!(sel.candidates.is_empty());
        assert_eq!(r.evaluations, 32, "the whole space is enumerated");

        // One objective → the scalarizing GA, no race.
        let r1 = dovado()
            .explore(&DseConfig {
                explorer: Explorer::Auto,
                metrics: MetricSet::new(vec![Metric::Fmax]),
                ..small_cfg()
            })
            .unwrap();
        let sel1 = r1.selection.unwrap();
        assert_eq!(sel1.explorer, "wsga");
        assert_eq!(sel1.lowfi_runs, 0);
    }

    fn persist_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dovado-dse-{tag}-{}", std::process::id()))
    }

    fn small_cfg() -> DseConfig {
        DseConfig {
            algorithm: Nsga2Config {
                pop_size: 8,
                seed: 7,
                ..Default::default()
            },
            termination: Termination::Generations(4),
            metrics: metrics(),
            surrogate: None,
            parallel: false,
            workers: None,
            explorer: Default::default(),
        }
    }

    #[test]
    fn persistent_explore_journals_then_warm_rerun_needs_no_tool() {
        let dir = persist_dir("warm");
        let cfg = small_cfg();
        let persist_cfg = PersistConfig::new(&dir);

        let cold = dovado().explore_persistent(&cfg, &persist_cfg).unwrap();
        assert!(persist_cfg.journal_path().exists());
        assert!(cold.tool_runs > 0);
        assert!(
            cold.trace.attempts + cold.trace.store_hits >= cold.tool_runs,
            "a cold run may hit entries it wrote itself, never more"
        );

        // Same run against the warm store: identical front, and not a
        // single tool attempt anywhere.
        let warm = dovado().explore_persistent(&cfg, &persist_cfg).unwrap();
        assert_eq!(warm.trace.attempts, 0, "warm run must not touch the tool");
        assert!(warm.trace.store_hits > 0);
        assert_eq!(warm.pareto.len(), cold.pareto.len());
        for (a, b) in cold.pareto.iter().zip(&warm.pareto) {
            assert_eq!(a.point, b.point);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resuming_a_completed_journal_reproduces_the_report() {
        let dir = persist_dir("complete");
        let cfg = small_cfg();
        let persist_cfg = PersistConfig::new(&dir);
        let cold = dovado().explore_persistent(&cfg, &persist_cfg).unwrap();

        let resume_cfg = PersistConfig {
            resume: true,
            ..PersistConfig::new(&dir)
        };
        let resumed = dovado().explore_persistent(&cfg, &resume_cfg).unwrap();
        // The journaled counters splice into the fresh process's spine,
        // so the resumed trace is continuous with the cold run's.
        assert_eq!(resumed.trace, cold.trace, "spliced counters continue");
        assert_eq!(
            resumed.tool_runs, cold.tool_runs,
            "stats come from the journal"
        );
        assert_eq!(resumed.generations, cold.generations);
        assert_eq!(resumed.pareto.len(), cold.pareto.len());
        for (a, b) in cold.pareto.iter().zip(&resumed.pareto) {
            assert_eq!(a.point, b.point);
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_mismatched_config_and_wrong_explorer() {
        let dir = persist_dir("mismatch");
        let cfg = small_cfg();
        let persist_cfg = PersistConfig::new(&dir);
        dovado().explore_persistent(&cfg, &persist_cfg).unwrap();

        let resume_cfg = PersistConfig {
            resume: true,
            ..PersistConfig::new(&dir)
        };
        // Different seed → different fingerprint → refuse.
        let other = DseConfig {
            algorithm: Nsga2Config {
                pop_size: 8,
                seed: 8,
                ..Default::default()
            },
            ..small_cfg()
        };
        let err = dovado()
            .explore_persistent(&other, &resume_cfg)
            .unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");

        // A different explorer → different fingerprint → refuse.
        let rs = DseConfig {
            explorer: Explorer::RandomSearch,
            ..small_cfg()
        };
        assert!(dovado().explore_persistent(&rs, &resume_cfg).is_err());

        // And a missing journal refuses too.
        let empty = persist_dir("missing");
        let missing = PersistConfig {
            resume: true,
            ..PersistConfig::new(&empty)
        };
        assert!(dovado().explore_persistent(&cfg, &missing).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn soft_deadline_stops_early() {
        let d = dovado();
        let cfg = DseConfig {
            algorithm: Nsga2Config {
                pop_size: 8,
                seed: 1,
                ..Default::default()
            },
            // A budget two evaluation-batches big (in simulated seconds).
            termination: Termination::SoftDeadline(3000.0),
            metrics: metrics(),
            surrogate: None,
            parallel: false,
            explorer: Default::default(),
            workers: None,
        };
        let report = d.explore(&cfg).unwrap();
        assert!(report.generations < 50, "deadline ignored: {report:?}");
        assert!(
            report.tool_time_s >= 3000.0,
            "stopped before the budget was used"
        );
    }
}
