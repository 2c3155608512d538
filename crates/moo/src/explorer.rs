//! Algorithm-agnostic stepwise exploration: the [`Explorer`] trait and
//! the one loop, [`run`], that drives any explorer to completion.
//!
//! Every cross-cutting service of the `dovado-core` driver — journaling,
//! trace events, cancellation, parallel schedules, the serve daemon — is
//! written against this seam, not against one algorithm. Any search that
//! can run one *generation* at a time, capture its full state as a
//! tagged [`ExplorerSnapshot`], and report its current front plugs into
//! that driver and inherits all of those services unchanged.
//!
//! The contract:
//!
//! * `step` advances exactly one generation and is the only method that
//!   evaluates the problem;
//! * `snapshot` taken at a generation boundary, fed back through the
//!   matching `resume` constructor, continues the run **bitwise** — RNG
//!   stream position included;
//! * `should_stop` is consulted *between* generations, so termination (and
//!   the paper's soft deadline) composes identically for every algorithm.
//!
//! Explorers: [`crate::Nsga2Explorer`] (the paper's solver) and, defined
//! here, the baselines the paper positions NSGA-II against (Panerati et
//! al. \[12\]): [`RandomExplorer`] (uniform random search),
//! [`ExhaustiveExplorer`] (exact enumeration of small spaces — Dovado's
//! "exact exploration of a given set of parameters" mode),
//! [`WsgaExplorer`] (the weighted-sum scalarization NSGA-II supersedes)
//! and [`AnnealingExplorer`] (simulated annealing). The Bayesian
//! acquisition engine lives in `dovado-core` (it needs the surrogate
//! crate) but shares [`BayesSnapshot`] defined here so the journal format
//! stays in one place.

use crate::individual::{non_dominated_indices, Individual};
use crate::nsga2::{GenStats, Nsga2Snapshot, OptResult};
use crate::ops::sampling::{random_genome, random_population};
use crate::ops::{GaussianIntegerMutation, IntegerSbx};
use crate::problem::{to_min_space, IntVar, Objective, Problem};
use crate::termination::{EngineState, Termination};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A stepwise, snapshotable search engine.
///
/// Object-safe so the driver can hold a `Box<dyn Explorer>` chosen at
/// runtime (including by the portfolio selector).
pub trait Explorer {
    /// Stable identifier used in journals, trace events and CLI flags.
    fn name(&self) -> &'static str;

    /// Generations completed so far.
    fn generation(&self) -> u32;

    /// Evaluations spent so far.
    fn evaluations(&self) -> u64;

    /// Whether the engine has nothing left to explore (only the exhaustive
    /// engine ever says yes).
    fn exhausted(&self) -> bool {
        false
    }

    /// Whether the run should stop before the next generation.
    fn should_stop(&self, problem: &dyn Problem, termination: &Termination) -> bool {
        let state = EngineState {
            generation: self.generation(),
            evaluations: self.evaluations(),
            external_cost: problem.external_cost(),
        };
        self.exhausted() || termination.should_stop(&state)
    }

    /// Runs one full generation against the problem.
    fn step(&mut self, problem: &mut dyn Problem);

    /// Captures the engine's mid-run state with the archive and history
    /// cut to their entries past the first `archive_from` and
    /// `history_from`. Both only ever grow, so a caller that already
    /// holds the earlier entries (the journal writer) copies only what
    /// the latest generations added.
    fn snapshot_tail(&self, archive_from: usize, history_from: usize) -> ExplorerSnapshot;

    /// Captures the engine's complete mid-run state. Feeding the snapshot
    /// back through the engine's `resume` constructor continues bitwise.
    fn snapshot(&self) -> ExplorerSnapshot {
        self.snapshot_tail(0, 0)
    }

    /// The current non-dominated set over everything evaluated so far.
    fn front(&self) -> Vec<Individual>;

    /// Finalizes the run into an [`OptResult`].
    fn into_result(self: Box<Self>) -> OptResult;
}

/// Mid-run state of the [`RandomExplorer`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomSnapshot {
    /// Generations (batches) completed.
    pub generation: u32,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Raw xoshiro256** state of the sampler's RNG.
    pub rng_state: [u64; 4],
    /// Everything evaluated so far, in insertion order.
    pub archive: Vec<Individual>,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

/// Mid-run state of the [`ExhaustiveExplorer`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveSnapshot {
    /// Generations (batches) completed.
    pub generation: u32,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Next genome to enumerate; `None` once the space is exhausted.
    pub cursor: Option<Vec<i64>>,
    /// Everything evaluated so far, in enumeration order.
    pub archive: Vec<Individual>,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

/// Mid-run state of the [`WsgaExplorer`].
#[derive(Debug, Clone, PartialEq)]
pub struct WsgaSnapshot {
    /// Generations completed.
    pub generation: u32,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Raw xoshiro256** state of the GA's RNG.
    pub rng_state: [u64; 4],
    /// Current (μ+λ)-truncated population.
    pub population: Vec<Individual>,
    /// Everything evaluated so far, in insertion order.
    pub archive: Vec<Individual>,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

/// Mid-run state of the [`AnnealingExplorer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingSnapshot {
    /// Generations completed.
    pub generation: u32,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Raw xoshiro256** state of the annealer's RNG.
    pub rng_state: [u64; 4],
    /// Current solution genome.
    pub current: Vec<i64>,
    /// Scalar energy of the current solution.
    pub energy: f64,
    /// Current temperature.
    pub temperature: f64,
    /// Everything evaluated so far, in insertion order.
    pub archive: Vec<Individual>,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

/// Mid-run state of the Bayesian acquisition explorer (engine lives in
/// `dovado-core`; the snapshot is defined here so the journal's tagged
/// union covers every explorer).
#[derive(Debug, Clone, PartialEq)]
pub struct BayesSnapshot {
    /// Generations completed.
    pub generation: u32,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Raw xoshiro256** state of the sampler's RNG.
    pub rng_state: [u64; 4],
    /// Everything evaluated so far, in insertion order (the surrogate's
    /// training set is rebuilt from this on resume).
    pub archive: Vec<Individual>,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

/// Tagged union over every explorer's snapshot — what the journal
/// serializes at each generation boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ExplorerSnapshot {
    /// NSGA-II engine state.
    Nsga2(Nsga2Snapshot),
    /// Random-search state.
    Random(RandomSnapshot),
    /// Exhaustive-enumeration state.
    Exhaustive(ExhaustiveSnapshot),
    /// Weighted-sum GA state.
    WeightedSum(WsgaSnapshot),
    /// Simulated-annealing state.
    Annealing(AnnealingSnapshot),
    /// Bayesian acquisition state.
    Bayes(BayesSnapshot),
}

impl ExplorerSnapshot {
    /// The journal tag for this variant; matches [`Explorer::name`].
    pub fn kind(&self) -> &'static str {
        match self {
            ExplorerSnapshot::Nsga2(_) => "nsga2",
            ExplorerSnapshot::Random(_) => "random",
            ExplorerSnapshot::Exhaustive(_) => "exhaustive",
            ExplorerSnapshot::WeightedSum(_) => "wsga",
            ExplorerSnapshot::Annealing(_) => "sa",
            ExplorerSnapshot::Bayes(_) => "bayes",
        }
    }

    /// Generations completed at the time of the snapshot.
    pub fn generation(&self) -> u32 {
        match self {
            ExplorerSnapshot::Nsga2(s) => s.generation,
            ExplorerSnapshot::Random(s) => s.generation,
            ExplorerSnapshot::Exhaustive(s) => s.generation,
            ExplorerSnapshot::WeightedSum(s) => s.generation,
            ExplorerSnapshot::Annealing(s) => s.generation,
            ExplorerSnapshot::Bayes(s) => s.generation,
        }
    }

    /// Evaluations spent at the time of the snapshot.
    pub fn evaluations(&self) -> u64 {
        match self {
            ExplorerSnapshot::Nsga2(s) => s.evaluations,
            ExplorerSnapshot::Random(s) => s.evaluations,
            ExplorerSnapshot::Exhaustive(s) => s.evaluations,
            ExplorerSnapshot::WeightedSum(s) => s.evaluations,
            ExplorerSnapshot::Annealing(s) => s.evaluations,
            ExplorerSnapshot::Bayes(s) => s.evaluations,
        }
    }

    /// The archive and the per-generation history, whatever the variant:
    /// the two parts of every explorer's state that only ever grow.
    pub fn archive_and_history(&self) -> (&[Individual], &[GenStats]) {
        match self {
            ExplorerSnapshot::Nsga2(s) => (&s.archive, &s.history),
            ExplorerSnapshot::Random(s) => (&s.archive, &s.history),
            ExplorerSnapshot::Exhaustive(s) => (&s.archive, &s.history),
            ExplorerSnapshot::WeightedSum(s) => (&s.archive, &s.history),
            ExplorerSnapshot::Annealing(s) => (&s.archive, &s.history),
            ExplorerSnapshot::Bayes(s) => (&s.archive, &s.history),
        }
    }

    /// Mutable access to the archive and the per-generation history,
    /// whatever the variant.
    pub fn archive_and_history_mut(&mut self) -> (&mut Vec<Individual>, &mut Vec<GenStats>) {
        match self {
            ExplorerSnapshot::Nsga2(s) => (&mut s.archive, &mut s.history),
            ExplorerSnapshot::Random(s) => (&mut s.archive, &mut s.history),
            ExplorerSnapshot::Exhaustive(s) => (&mut s.archive, &mut s.history),
            ExplorerSnapshot::WeightedSum(s) => (&mut s.archive, &mut s.history),
            ExplorerSnapshot::Annealing(s) => (&mut s.archive, &mut s.history),
            ExplorerSnapshot::Bayes(s) => (&mut s.archive, &mut s.history),
        }
    }

    /// Mutable access to the per-generation history, whatever the
    /// variant. External costs in the history track wall-clock-like
    /// tool spend, which varies with store capacity and repeated work;
    /// callers comparing optimizer *state* across runs normalize it
    /// through this accessor.
    pub fn history_mut(&mut self) -> &mut Vec<GenStats> {
        self.archive_and_history_mut().1
    }
}

/// Non-dominated subset of an archive (cloned, ranks pinned to 0).
pub fn front_of(archive: &[Individual]) -> Vec<Individual> {
    let mut front: Vec<Individual> = non_dominated_indices(archive)
        .into_iter()
        .map(|i| archive[i].clone())
        .collect();
    for p in &mut front {
        p.rank = 0;
    }
    front
}

/// Finalizes an archive-based explorer: the whole archive becomes the
/// result population (ranks pinned to 0) and the deduplicated
/// non-dominated set becomes the Pareto front.
pub fn finish_archive(
    mut archive: Vec<Individual>,
    generations: u32,
    evaluations: u64,
    history: Vec<GenStats>,
) -> OptResult {
    let idx = non_dominated_indices(&archive);
    let mut pareto: Vec<Individual> = idx.into_iter().map(|i| archive[i].clone()).collect();
    pareto.sort_by(|a, b| a.genome.cmp(&b.genome));
    pareto.dedup_by(|a, b| a.genome == b.genome);
    for p in &mut pareto {
        p.rank = 0;
    }
    for a in &mut archive {
        a.rank = 0;
    }
    OptResult {
        population: archive,
        pareto,
        generations,
        evaluations,
        history,
    }
}

/// Evaluates a batch of genomes into [`Individual`]s (minimization-space
/// conversion included).
pub fn evaluate_genomes(
    problem: &mut dyn Problem,
    objectives: &[Objective],
    genomes: Vec<Vec<i64>>,
) -> Vec<Individual> {
    let raws = problem.evaluate_batch(&genomes);
    genomes
        .into_iter()
        .zip(raws)
        .map(|(g, raw)| {
            let m = to_min_space(objectives, &raw);
            Individual::new(g, raw, m)
        })
        .collect()
}

/// Drives `explorer` until `termination` fires (or the explorer runs out
/// of points) and returns its result. Start the explorer on the same
/// problem first — e.g. `run(Box::new(Nsga2Explorer::start(&mut p, &cfg)),
/// &mut p, &term)`; a run is bitwise reproducible per seed.
pub fn run<E: Explorer + ?Sized>(
    mut explorer: Box<E>,
    problem: &mut dyn Problem,
    termination: &Termination,
) -> OptResult {
    while !explorer.should_stop(problem, termination) {
        explorer.step(problem);
    }
    explorer.into_result()
}

// --------------------------------------------------------------------------
// Random search
// --------------------------------------------------------------------------

/// Uniform random search, one batch per generation.
#[derive(Debug, Clone)]
pub struct RandomExplorer {
    batch: usize,
    rng: StdRng,
    vars: Vec<IntVar>,
    objectives: Vec<Objective>,
    archive: Vec<Individual>,
    history: Vec<GenStats>,
    generation: u32,
    evaluations: u64,
}

impl RandomExplorer {
    /// Starts a fresh run. Evaluates nothing until the first step, so a
    /// zero-generation budget spends zero evaluations.
    pub fn start(problem: &dyn Problem, batch: usize, seed: u64) -> RandomExplorer {
        RandomExplorer {
            batch: batch.max(1),
            rng: StdRng::seed_from_u64(seed),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            archive: Vec::new(),
            history: Vec::new(),
            generation: 0,
            evaluations: 0,
        }
    }

    /// Rebuilds the sampler from a journal snapshot.
    pub fn resume(problem: &dyn Problem, batch: usize, snap: RandomSnapshot) -> RandomExplorer {
        RandomExplorer {
            batch: batch.max(1),
            rng: StdRng::from_state(snap.rng_state),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            archive: snap.archive,
            history: snap.history,
            generation: snap.generation,
            evaluations: snap.evaluations,
        }
    }
}

impl Explorer for RandomExplorer {
    fn name(&self) -> &'static str {
        "random"
    }
    fn generation(&self) -> u32 {
        self.generation
    }
    fn evaluations(&self) -> u64 {
        self.evaluations
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        let genomes = random_population(&self.vars, self.batch, &mut self.rng);
        let inds = evaluate_genomes(problem, &self.objectives, genomes);
        self.evaluations += inds.len() as u64;
        self.archive.extend(inds);
        self.generation += 1;
        self.history.push(GenStats {
            generation: self.generation,
            evaluations: self.evaluations,
            front_size: non_dominated_indices(&self.archive).len(),
            external_cost: problem.external_cost(),
        });
    }
    fn snapshot_tail(&self, archive_from: usize, history_from: usize) -> ExplorerSnapshot {
        ExplorerSnapshot::Random(RandomSnapshot {
            generation: self.generation,
            evaluations: self.evaluations,
            rng_state: self.rng.state(),
            archive: self.archive[archive_from..].to_vec(),
            history: self.history[history_from..].to_vec(),
        })
    }
    fn front(&self) -> Vec<Individual> {
        front_of(&self.archive)
    }
    fn into_result(self: Box<Self>) -> OptResult {
        finish_archive(
            self.archive,
            self.generation,
            self.evaluations,
            self.history,
        )
    }
}

// --------------------------------------------------------------------------
// Exhaustive enumeration
// --------------------------------------------------------------------------

/// Exhaustive enumeration in odometer order (first variable fastest), one
/// batch per generation so journals land at batch boundaries.
#[derive(Debug, Clone)]
pub struct ExhaustiveExplorer {
    batch: usize,
    vars: Vec<IntVar>,
    objectives: Vec<Objective>,
    cursor: Option<Vec<i64>>,
    archive: Vec<Individual>,
    history: Vec<GenStats>,
    generation: u32,
    evaluations: u64,
}

impl ExhaustiveExplorer {
    /// Starts a fresh enumeration; `None` when the space volume exceeds
    /// `limit` (the cost the paper calls "prohibitive … for a good DSE").
    pub fn start(problem: &dyn Problem, limit: u64, batch: usize) -> Option<ExhaustiveExplorer> {
        if problem.volume() > limit {
            return None;
        }
        let vars = problem.variables().to_vec();
        let cursor = Some(vars.iter().map(|v| v.lo).collect());
        Some(ExhaustiveExplorer {
            batch: batch.max(1),
            objectives: problem.objectives().to_vec(),
            vars,
            cursor,
            archive: Vec::new(),
            history: Vec::new(),
            generation: 0,
            evaluations: 0,
        })
    }

    /// Rebuilds the enumerator from a journal snapshot.
    pub fn resume(
        problem: &dyn Problem,
        batch: usize,
        snap: ExhaustiveSnapshot,
    ) -> ExhaustiveExplorer {
        ExhaustiveExplorer {
            batch: batch.max(1),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            cursor: snap.cursor,
            archive: snap.archive,
            history: snap.history,
            generation: snap.generation,
            evaluations: snap.evaluations,
        }
    }
}

impl Explorer for ExhaustiveExplorer {
    fn name(&self) -> &'static str {
        "exhaustive"
    }
    fn generation(&self) -> u32 {
        self.generation
    }
    fn evaluations(&self) -> u64 {
        self.evaluations
    }
    fn exhausted(&self) -> bool {
        self.cursor.is_none()
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        let mut genomes: Vec<Vec<i64>> = Vec::with_capacity(self.batch);
        while genomes.len() < self.batch {
            let Some(g) = self.cursor.as_mut() else { break };
            genomes.push(g.clone());
            // Odometer increment.
            let mut i = 0usize;
            let done = loop {
                if i == self.vars.len() {
                    break true;
                }
                g[i] += 1;
                if g[i] <= self.vars[i].hi {
                    break false;
                }
                g[i] = self.vars[i].lo;
                i += 1;
            };
            if done {
                self.cursor = None;
            }
        }
        if genomes.is_empty() {
            return;
        }
        let inds = evaluate_genomes(problem, &self.objectives, genomes);
        self.evaluations += inds.len() as u64;
        self.archive.extend(inds);
        self.generation += 1;
        self.history.push(GenStats {
            generation: self.generation,
            evaluations: self.evaluations,
            front_size: non_dominated_indices(&self.archive).len(),
            external_cost: problem.external_cost(),
        });
    }
    fn snapshot_tail(&self, archive_from: usize, history_from: usize) -> ExplorerSnapshot {
        ExplorerSnapshot::Exhaustive(ExhaustiveSnapshot {
            generation: self.generation,
            evaluations: self.evaluations,
            cursor: self.cursor.clone(),
            archive: self.archive[archive_from..].to_vec(),
            history: self.history[history_from..].to_vec(),
        })
    }
    fn front(&self) -> Vec<Individual> {
        front_of(&self.archive)
    }
    fn into_result(self: Box<Self>) -> OptResult {
        finish_archive(
            self.archive,
            self.generation,
            self.evaluations,
            self.history,
        )
    }
}

// --------------------------------------------------------------------------
// Weighted-sum GA
// --------------------------------------------------------------------------

/// Single-objective GA on a fixed weighted sum of the minimization-space
/// objectives — the classic scalarization baseline NSGA-II supersedes.
#[derive(Debug, Clone)]
pub struct WsgaExplorer {
    weights: Vec<f64>,
    pop_size: usize,
    rng: StdRng,
    vars: Vec<IntVar>,
    objectives: Vec<Objective>,
    crossover: IntegerSbx,
    mutation: GaussianIntegerMutation,
    pop: Vec<Individual>,
    archive: Vec<Individual>,
    history: Vec<GenStats>,
    generation: u32,
    evaluations: u64,
}

fn scalarize(weights: &[f64], min_objs: &[f64]) -> f64 {
    min_objs.iter().zip(weights).map(|(v, w)| v * w).sum()
}

impl WsgaExplorer {
    /// Starts a fresh run (evaluates the initial population). `weights`
    /// must match the problem's objective count.
    pub fn start(
        problem: &mut dyn Problem,
        weights: Vec<f64>,
        pop_size: usize,
        seed: u64,
    ) -> WsgaExplorer {
        assert_eq!(weights.len(), problem.objectives().len());
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = problem.variables().to_vec();
        let objectives = problem.objectives().to_vec();
        let genomes = random_population(&vars, pop_size, &mut rng);
        let pop = evaluate_genomes(problem, &objectives, genomes);
        let evaluations = pop.len() as u64;
        let archive = pop.clone();
        let history = vec![GenStats {
            generation: 0,
            evaluations,
            front_size: non_dominated_indices(&archive).len(),
            external_cost: problem.external_cost(),
        }];
        WsgaExplorer {
            weights,
            pop_size,
            rng,
            vars,
            objectives,
            crossover: IntegerSbx::default(),
            mutation: GaussianIntegerMutation::default(),
            pop,
            archive,
            history,
            generation: 0,
            evaluations,
        }
    }

    /// Rebuilds the GA from a journal snapshot.
    pub fn resume(
        problem: &dyn Problem,
        weights: Vec<f64>,
        pop_size: usize,
        snap: WsgaSnapshot,
    ) -> WsgaExplorer {
        WsgaExplorer {
            weights,
            pop_size,
            rng: StdRng::from_state(snap.rng_state),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            crossover: IntegerSbx::default(),
            mutation: GaussianIntegerMutation::default(),
            pop: snap.population,
            archive: snap.archive,
            history: snap.history,
            generation: snap.generation,
            evaluations: snap.evaluations,
        }
    }
}

impl Explorer for WsgaExplorer {
    fn name(&self) -> &'static str {
        "wsga"
    }
    fn generation(&self) -> u32 {
        self.generation
    }
    fn evaluations(&self) -> u64 {
        self.evaluations
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        self.generation += 1;
        let mut offspring: Vec<Vec<i64>> = Vec::with_capacity(self.pop_size);
        while offspring.len() < self.pop_size {
            let pick = |rng: &mut StdRng, pop: &[Individual], weights: &[f64]| {
                let a = rng.gen_range(0..pop.len());
                let b = rng.gen_range(0..pop.len());
                if scalarize(weights, &pop[a].min_objs) <= scalarize(weights, &pop[b].min_objs) {
                    a
                } else {
                    b
                }
            };
            let p1 = pick(&mut self.rng, &self.pop, &self.weights);
            let p2 = pick(&mut self.rng, &self.pop, &self.weights);
            let (mut c1, mut c2) = self.crossover.cross(
                &self.vars,
                &self.pop[p1].genome,
                &self.pop[p2].genome,
                &mut self.rng,
            );
            self.mutation.mutate(&self.vars, &mut c1, &mut self.rng);
            self.mutation.mutate(&self.vars, &mut c2, &mut self.rng);
            offspring.push(c1);
            if offspring.len() < self.pop_size {
                offspring.push(c2);
            }
        }
        let kids = evaluate_genomes(problem, &self.objectives, offspring);
        self.evaluations += kids.len() as u64;
        self.archive.extend(kids.iter().cloned());
        // (μ+λ) truncation by scalar fitness. Ties break on the genome so
        // survival is a pure function of the candidate set, not of the
        // order evaluations happened to arrive in.
        self.pop.extend(kids);
        let weights = &self.weights;
        self.pop.sort_by(|a, b| {
            scalarize(weights, &a.min_objs)
                .partial_cmp(&scalarize(weights, &b.min_objs))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.genome.cmp(&b.genome))
        });
        self.pop.truncate(self.pop_size);
        self.history.push(GenStats {
            generation: self.generation,
            evaluations: self.evaluations,
            front_size: non_dominated_indices(&self.archive).len(),
            external_cost: problem.external_cost(),
        });
    }
    fn snapshot_tail(&self, archive_from: usize, history_from: usize) -> ExplorerSnapshot {
        ExplorerSnapshot::WeightedSum(WsgaSnapshot {
            generation: self.generation,
            evaluations: self.evaluations,
            rng_state: self.rng.state(),
            population: self.pop.clone(),
            archive: self.archive[archive_from..].to_vec(),
            history: self.history[history_from..].to_vec(),
        })
    }
    fn front(&self) -> Vec<Individual> {
        front_of(&self.archive)
    }
    fn into_result(self: Box<Self>) -> OptResult {
        finish_archive(
            self.archive,
            self.generation,
            self.evaluations,
            self.history,
        )
    }
}

// --------------------------------------------------------------------------
// Simulated annealing
// --------------------------------------------------------------------------

/// Simulated annealing over the integer space: each generation proposes a
/// batch of Gaussian-mutated neighbours of the current solution, evaluates
/// them (one batch, so parallel schedules apply), then walks the batch
/// serially with Metropolis acceptance on the mean minimization-space
/// objective. Temperature cools geometrically per generation.
#[derive(Debug, Clone)]
pub struct AnnealingExplorer {
    batch: usize,
    alpha: f64,
    rng: StdRng,
    vars: Vec<IntVar>,
    objectives: Vec<Objective>,
    mutation: GaussianIntegerMutation,
    current: Vec<i64>,
    energy: f64,
    temperature: f64,
    archive: Vec<Individual>,
    history: Vec<GenStats>,
    generation: u32,
    evaluations: u64,
}

/// Cooling rate per generation.
const ANNEALING_ALPHA: f64 = 0.9;

fn mean_energy(min_objs: &[f64]) -> f64 {
    if min_objs.is_empty() {
        return 0.0;
    }
    min_objs.iter().sum::<f64>() / min_objs.len() as f64
}

impl AnnealingExplorer {
    /// Starts a fresh run: samples and evaluates a random starting point
    /// and scales the initial temperature to its energy.
    pub fn start(problem: &mut dyn Problem, batch: usize, seed: u64) -> AnnealingExplorer {
        let mut rng = StdRng::seed_from_u64(seed);
        let vars = problem.variables().to_vec();
        let objectives = problem.objectives().to_vec();
        let genome = random_genome(&vars, &mut rng);
        let inds = evaluate_genomes(problem, &objectives, vec![genome]);
        let first = &inds[0];
        let energy = mean_energy(&first.min_objs);
        let history = vec![GenStats {
            generation: 0,
            evaluations: 1,
            front_size: 1,
            external_cost: problem.external_cost(),
        }];
        AnnealingExplorer {
            batch: batch.max(1),
            alpha: ANNEALING_ALPHA,
            current: first.genome.clone(),
            energy,
            temperature: (0.1 * energy.abs()).max(1.0),
            rng,
            vars,
            objectives,
            mutation: GaussianIntegerMutation::default(),
            archive: inds,
            history,
            generation: 0,
            evaluations: 1,
        }
    }

    /// Rebuilds the annealer from a journal snapshot.
    pub fn resume(
        problem: &dyn Problem,
        batch: usize,
        snap: AnnealingSnapshot,
    ) -> AnnealingExplorer {
        AnnealingExplorer {
            batch: batch.max(1),
            alpha: ANNEALING_ALPHA,
            rng: StdRng::from_state(snap.rng_state),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            mutation: GaussianIntegerMutation::default(),
            current: snap.current,
            energy: snap.energy,
            temperature: snap.temperature,
            archive: snap.archive,
            history: snap.history,
            generation: snap.generation,
            evaluations: snap.evaluations,
        }
    }
}

impl Explorer for AnnealingExplorer {
    fn name(&self) -> &'static str {
        "sa"
    }
    fn generation(&self) -> u32 {
        self.generation
    }
    fn evaluations(&self) -> u64 {
        self.evaluations
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        let mut genomes: Vec<Vec<i64>> = Vec::with_capacity(self.batch);
        for _ in 0..self.batch {
            let mut g = self.current.clone();
            self.mutation.mutate(&self.vars, &mut g, &mut self.rng);
            genomes.push(g);
        }
        let inds = evaluate_genomes(problem, &self.objectives, genomes);
        self.evaluations += inds.len() as u64;
        for ind in &inds {
            let e = mean_energy(&ind.min_objs);
            let delta = e - self.energy;
            let accept =
                delta < 0.0 || self.rng.gen::<f64>() < (-delta / self.temperature.max(1e-12)).exp();
            if accept {
                self.current = ind.genome.clone();
                self.energy = e;
            }
        }
        self.archive.extend(inds);
        self.temperature *= self.alpha;
        self.generation += 1;
        self.history.push(GenStats {
            generation: self.generation,
            evaluations: self.evaluations,
            front_size: non_dominated_indices(&self.archive).len(),
            external_cost: problem.external_cost(),
        });
    }
    fn snapshot_tail(&self, archive_from: usize, history_from: usize) -> ExplorerSnapshot {
        ExplorerSnapshot::Annealing(AnnealingSnapshot {
            generation: self.generation,
            evaluations: self.evaluations,
            rng_state: self.rng.state(),
            current: self.current.clone(),
            energy: self.energy,
            temperature: self.temperature,
            archive: self.archive[archive_from..].to_vec(),
            history: self.history[history_from..].to_vec(),
        })
    }
    fn front(&self) -> Vec<Individual> {
        front_of(&self.archive)
    }
    fn into_result(self: Box<Self>) -> OptResult {
        finish_archive(
            self.archive,
            self.generation,
            self.evaluations,
            self.history,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsga2::{Nsga2Config, Nsga2Explorer};
    use crate::problem::Schaffer;

    fn small_schaffer() -> impl Problem {
        struct Small(Schaffer, Vec<IntVar>);
        impl Problem for Small {
            fn variables(&self) -> &[IntVar] {
                &self.1
            }
            fn objectives(&self) -> &[Objective] {
                self.0.objectives()
            }
            fn evaluate(&mut self, g: &[i64]) -> Vec<f64> {
                self.0.evaluate(g)
            }
        }
        Small(Schaffer::new(), vec![IntVar::new("x", -10, 10)])
    }

    #[test]
    fn every_explorer_snapshot_resume_is_bitwise() {
        let term = Termination::Generations(6);
        type Mk = Box<dyn Fn(&mut dyn Problem) -> Box<dyn Explorer>>;
        type Rs = Box<dyn Fn(&dyn Problem, ExplorerSnapshot) -> Box<dyn Explorer>>;
        let cases: Vec<(Mk, Rs)> = vec![
            (
                Box::new(|p: &mut dyn Problem| {
                    Box::new(Nsga2Explorer::start(
                        p,
                        &Nsga2Config {
                            pop_size: 8,
                            seed: 3,
                            ..Default::default()
                        },
                    )) as Box<dyn Explorer>
                }),
                Box::new(|p: &dyn Problem, s: ExplorerSnapshot| match s {
                    ExplorerSnapshot::Nsga2(s) => Box::new(Nsga2Explorer::resume(
                        p,
                        &Nsga2Config {
                            pop_size: 8,
                            seed: 3,
                            ..Default::default()
                        },
                        s,
                    )) as Box<dyn Explorer>,
                    _ => unreachable!(),
                }),
            ),
            (
                Box::new(|p: &mut dyn Problem| {
                    Box::new(RandomExplorer::start(p, 8, 3)) as Box<dyn Explorer>
                }),
                Box::new(|p: &dyn Problem, s: ExplorerSnapshot| match s {
                    ExplorerSnapshot::Random(s) => {
                        Box::new(RandomExplorer::resume(p, 8, s)) as Box<dyn Explorer>
                    }
                    _ => unreachable!(),
                }),
            ),
            (
                Box::new(|p: &mut dyn Problem| {
                    Box::new(ExhaustiveExplorer::start(p, 1000, 8).unwrap()) as Box<dyn Explorer>
                }),
                Box::new(|p: &dyn Problem, s: ExplorerSnapshot| match s {
                    ExplorerSnapshot::Exhaustive(s) => {
                        Box::new(ExhaustiveExplorer::resume(p, 8, s)) as Box<dyn Explorer>
                    }
                    _ => unreachable!(),
                }),
            ),
            (
                Box::new(|p: &mut dyn Problem| {
                    Box::new(WsgaExplorer::start(p, vec![1.0, 1.0], 8, 3)) as Box<dyn Explorer>
                }),
                Box::new(|p: &dyn Problem, s: ExplorerSnapshot| match s {
                    ExplorerSnapshot::WeightedSum(s) => {
                        Box::new(WsgaExplorer::resume(p, vec![1.0, 1.0], 8, s)) as Box<dyn Explorer>
                    }
                    _ => unreachable!(),
                }),
            ),
            (
                Box::new(|p: &mut dyn Problem| {
                    Box::new(AnnealingExplorer::start(p, 8, 3)) as Box<dyn Explorer>
                }),
                Box::new(|p: &dyn Problem, s: ExplorerSnapshot| match s {
                    ExplorerSnapshot::Annealing(s) => {
                        Box::new(AnnealingExplorer::resume(p, 8, s)) as Box<dyn Explorer>
                    }
                    _ => unreachable!(),
                }),
            ),
        ];
        for (mk, rs) in cases {
            let mut p1 = small_schaffer();
            let direct = run(mk(&mut p1), &mut p1, &term);

            let mut p2 = small_schaffer();
            let mut e = mk(&mut p2);
            while !e.should_stop(&p2, &term) {
                let snap = e.snapshot();
                e = rs(&p2, snap);
                e.step(&mut p2);
            }
            let resumed = e.into_result();
            assert_eq!(direct.generations, resumed.generations);
            assert_eq!(direct.evaluations, resumed.evaluations);
            assert_eq!(direct.history, resumed.history);
            assert_eq!(direct.population, resumed.population);
            assert_eq!(direct.pareto, resumed.pareto);
        }
    }

    #[test]
    fn exhaustive_explorer_enumerates_exactly_once() {
        let mut p = small_schaffer();
        let e = ExhaustiveExplorer::start(&p, 1000, 5).unwrap();
        let r = run(Box::new(e), &mut p, &Termination::Generations(10_000));
        assert_eq!(r.evaluations, 21);
        let mut genomes: Vec<Vec<i64>> = r.population.iter().map(|i| i.genome.clone()).collect();
        genomes.sort();
        genomes.dedup();
        assert_eq!(genomes.len(), 21);
        // Stops on exhaustion, not the generation budget.
        assert_eq!(r.generations, 21_u32.div_ceil(5));
    }

    #[test]
    fn exhaustive_explorer_refuses_large_space() {
        let p = Schaffer::new();
        assert!(ExhaustiveExplorer::start(&p, 100, 5).is_none());
    }

    #[test]
    fn annealing_improves_on_schaffer() {
        let mut p = Schaffer::new();
        let e = AnnealingExplorer::start(&mut p, 16, 5);
        let r = run(Box::new(e), &mut p, &Termination::Generations(40));
        // The optimum of the mean energy is x ∈ [0, 2]; the walk must get
        // close even from a random start in [-1000, 1000].
        let best = r
            .population
            .iter()
            .map(|i| mean_energy(&i.min_objs))
            .fold(f64::INFINITY, f64::min)
            .sqrt();
        assert!(best < 100.0, "best distance-ish {best}");
        assert_eq!(r.evaluations, 1 + 40 * 16);
    }

    #[test]
    fn wsga_truncation_orders_equal_fitness_by_genome() {
        // A constant objective makes every scalar fitness identical, so
        // survival is decided purely by the genome tie-break: the kept
        // population must be the lexicographically smallest genomes.
        struct Flat(Vec<IntVar>, Vec<Objective>);
        impl Problem for Flat {
            fn variables(&self) -> &[IntVar] {
                &self.0
            }
            fn objectives(&self) -> &[Objective] {
                &self.1
            }
            fn evaluate(&mut self, _: &[i64]) -> Vec<f64> {
                vec![0.0]
            }
        }
        let mut p = Flat(
            vec![IntVar::new("x", 0, 1000)],
            vec![Objective::minimize("f")],
        );
        let mut e = WsgaExplorer::start(&mut p, vec![1.0], 8, 11);
        e.step(&mut p);
        let ExplorerSnapshot::WeightedSum(snap) = e.snapshot() else {
            unreachable!()
        };
        let genomes: Vec<Vec<i64>> = snap.population.iter().map(|i| i.genome.clone()).collect();
        let mut sorted = genomes.clone();
        sorted.sort();
        assert_eq!(genomes, sorted, "ties must break on genome order");
    }

    #[test]
    fn snapshot_kinds_match_names() {
        let mut p = small_schaffer();
        let explorers: Vec<Box<dyn Explorer>> = vec![
            Box::new(RandomExplorer::start(&p, 4, 1)),
            Box::new(ExhaustiveExplorer::start(&p, 1000, 4).unwrap()),
            Box::new(WsgaExplorer::start(&mut p, vec![1.0, 1.0], 4, 1)),
            Box::new(AnnealingExplorer::start(&mut p, 4, 1)),
            Box::new(Nsga2Explorer::start(
                &mut p,
                &Nsga2Config {
                    pop_size: 4,
                    seed: 1,
                    ..Default::default()
                },
            )),
        ];
        for e in &explorers {
            assert_eq!(e.snapshot().kind(), e.name());
            assert_eq!(e.snapshot().generation(), e.generation());
            assert_eq!(e.snapshot().evaluations(), e.evaluations());
        }
    }

    // ---- baselines driven through `run` ----------------------------------

    #[test]
    fn random_explorer_finds_some_front() {
        let mut p = Schaffer::new();
        let e = RandomExplorer::start(&p, 50, 1);
        let r = run(Box::new(e), &mut p, &Termination::Evaluations(500));
        assert!(r.evaluations >= 500);
        assert!(!r.pareto.is_empty());
        for a in &r.pareto {
            for b in &r.pareto {
                assert!(!a.dominates(b) || a.genome == b.genome);
            }
        }
    }

    #[test]
    fn exhaustive_is_exact_on_small_space() {
        // One batch as big as the space: a single generation, exact.
        let mut p = small_schaffer();
        let e = ExhaustiveExplorer::start(&p, 10_000, 21).unwrap();
        let r = run(Box::new(e), &mut p, &Termination::Generations(u32::MAX));
        assert_eq!(r.evaluations, 21);
        assert_eq!(r.generations, 1);
        // Exact Pareto set: x ∈ {0, 1, 2}.
        let mut xs: Vec<i64> = r.pareto.iter().map(|i| i.genome[0]).collect();
        xs.sort();
        assert_eq!(xs, vec![0, 1, 2]);
    }

    #[test]
    fn weighted_sum_collapses_to_one_region() {
        let mut p = Schaffer::new();
        let e = WsgaExplorer::start(&mut p, vec![1.0, 1.0], 24, 2);
        let r = run(Box::new(e), &mut p, &Termination::Generations(30));
        // Equal weights on x² and (x−2)²: optimum at x=1.
        let best = r
            .population
            .iter()
            .min_by(|a, b| {
                let sa: f64 = a.min_objs.iter().sum();
                let sb: f64 = b.min_objs.iter().sum();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        assert!((0..=2).contains(&best.genome[0]), "best {:?}", best.genome);
    }

    #[test]
    fn weighted_sum_deterministic_under_duplicate_fitness() {
        // Every genome scores the same scalar fitness, so survival is pure
        // tie-breaking; two identical runs must still agree exactly (the
        // old fitness-only sort left survivor choice to insertion order).
        struct Flat(Vec<IntVar>, Vec<Objective>);
        impl Problem for Flat {
            fn variables(&self) -> &[IntVar] {
                &self.0
            }
            fn objectives(&self) -> &[Objective] {
                &self.1
            }
            fn evaluate(&mut self, _: &[i64]) -> Vec<f64> {
                vec![0.0]
            }
        }
        let population = || {
            let mut p = Flat(
                vec![IntVar::new("x", 0, 500)],
                vec![Objective::minimize("f")],
            );
            let e = WsgaExplorer::start(&mut p, vec![1.0], 12, 9);
            let r = run(Box::new(e), &mut p, &Termination::Generations(5));
            r.population
                .iter()
                .map(|i| i.genome.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(population(), population());
    }

    #[test]
    fn random_explorer_deterministic_per_seed() {
        let front = |seed| {
            let mut p = Schaffer::new();
            let e = RandomExplorer::start(&p, 50, seed);
            let r = run(Box::new(e), &mut p, &Termination::Evaluations(200));
            r.pareto
                .iter()
                .map(|i| i.genome.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(front(3), front(3));
    }
}
