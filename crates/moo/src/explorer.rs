//! Algorithm-agnostic stepwise exploration: the [`Explorer`] trait and
//! the one loop, [`run`], that drives any explorer to completion.
//!
//! Every cross-cutting service of the `dovado-core` driver — journaling,
//! trace events, cancellation, parallel schedules, the serve daemon — is
//! written against this seam, not against one algorithm. Any search that
//! can run one *generation* at a time, keep its bookkeeping in a
//! [`Ledger`], and name the rest of its state as a [`SearchState`] plugs
//! into that driver and inherits all of those services unchanged.
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
//! crate) but its state is the [`SearchState::Bayes`] variant defined
//! here, so the journal format stays in one place.

use crate::individual::{cmp_nan_last, non_dominated_indices, Individual};
use crate::nsga2::{GenStats, OptResult};
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
    /// The bookkeeping every engine keeps: counters, archive, history.
    fn ledger(&self) -> &Ledger;

    /// What only this kind of engine carries beyond its ledger, borrowed
    /// from the engine (the journal encodes it in place at every
    /// boundary).
    fn state(&self) -> SearchStateRef<'_>;

    /// Runs one full generation against the problem.
    fn step(&mut self, problem: &mut dyn Problem);

    /// Finalizes the run into an [`OptResult`].
    fn into_result(self: Box<Self>) -> OptResult;

    /// Whether the engine has nothing left to explore (only the exhaustive
    /// engine ever says yes).
    fn exhausted(&self) -> bool {
        false
    }

    /// Generations completed so far.
    fn generation(&self) -> u32 {
        self.ledger().generation
    }

    /// Evaluations spent so far.
    fn evaluations(&self) -> u64 {
        self.ledger().evaluations
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

    /// The current non-dominated set over everything evaluated so far.
    fn front(&self) -> Vec<Individual> {
        front_of(&self.ledger().archive)
    }

    /// Captures the engine's complete mid-run state. Feeding the snapshot
    /// back through the engine's `resume` constructor continues bitwise.
    fn snapshot(&self) -> ExplorerSnapshot {
        ExplorerSnapshot {
            ledger: self.ledger().clone(),
            state: self.state().into(),
        }
    }
}

/// The bookkeeping every explorer shares: what it has spent and
/// everything it has evaluated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Generations completed.
    pub generation: u32,
    /// Evaluations spent.
    pub evaluations: u64,
    /// Everything evaluated so far, in insertion order.
    pub archive: Vec<Individual>,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

impl Ledger {
    /// Archives freshly evaluated individuals and counts them.
    pub fn record(&mut self, inds: &[Individual]) {
        self.evaluations += inds.len() as u64;
        self.archive.extend_from_slice(inds);
    }

    /// Closes the current generation: appends its history entry.
    pub fn close(&mut self, front_size: usize, external_cost: f64) {
        self.history.push(GenStats {
            generation: self.generation,
            evaluations: self.evaluations,
            front_size,
            external_cost,
        });
    }

    /// [`Ledger::close`] with the archive's non-dominated count as the
    /// front size.
    pub fn close_on_archive(&mut self, external_cost: f64) {
        self.close(non_dominated_indices(&self.archive).len(), external_cost);
    }

    /// Finalizes a run. The deduplicated non-dominated set of the archive
    /// becomes the Pareto front; `population` is the engine's final
    /// population, or `None` to report the whole archive (ranks pinned
    /// to 0) as the population.
    pub fn finish(self, population: Option<Vec<Individual>>) -> OptResult {
        let mut pareto = front_of(&self.archive);
        pareto.sort_by(|a, b| a.genome.cmp(&b.genome));
        pareto.dedup_by(|a, b| a.genome == b.genome);
        let population = population.unwrap_or_else(|| {
            let mut archive = self.archive;
            for a in &mut archive {
                a.rank = 0;
            }
            archive
        });
        OptResult {
            population,
            pareto,
            generations: self.generation,
            evaluations: self.evaluations,
            history: self.history,
        }
    }
}

/// What one kind of engine carries beyond its [`Ledger`]. Raw RNG words
/// are the xoshiro256** state of the engine's generator.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchState {
    /// NSGA-II: RNG and the current population, in engine order
    /// (rank/crowding included).
    Nsga2 {
        /// Raw RNG state.
        rng: [u64; 4],
        /// Current population.
        population: Vec<Individual>,
    },
    /// Random search: the sampler's RNG.
    Random {
        /// Raw RNG state.
        rng: [u64; 4],
    },
    /// Exhaustive enumeration: the next genome to enumerate, `None` once
    /// the space is exhausted.
    Exhaustive {
        /// Enumeration cursor.
        cursor: Option<Vec<i64>>,
    },
    /// Weighted-sum GA: RNG and the (μ+λ)-truncated population.
    WeightedSum {
        /// Raw RNG state.
        rng: [u64; 4],
        /// Current population.
        population: Vec<Individual>,
    },
    /// Simulated annealing: RNG, current solution, its scalar energy and
    /// the temperature.
    Annealing {
        /// Raw RNG state.
        rng: [u64; 4],
        /// Current solution genome.
        current: Vec<i64>,
        /// Scalar energy of the current solution.
        energy: f64,
        /// Current temperature.
        temperature: f64,
    },
    /// Bayesian acquisition (engine in `dovado-core`): the sampler's RNG.
    /// The surrogate's training set is rebuilt from the archive.
    Bayes {
        /// Raw RNG state.
        rng: [u64; 4],
    },
}

impl SearchState {
    /// The journal tag of this kind: its `--explorer` token.
    pub fn kind(&self) -> &'static str {
        self.as_ref().kind()
    }

    /// A view borrowing the population, cursor or current solution.
    pub fn as_ref(&self) -> SearchStateRef<'_> {
        match self {
            SearchState::Nsga2 { rng, population } => SearchStateRef::Nsga2 {
                rng: *rng,
                population,
            },
            SearchState::Random { rng } => SearchStateRef::Random { rng: *rng },
            SearchState::Exhaustive { cursor } => SearchStateRef::Exhaustive {
                cursor: cursor.as_deref(),
            },
            SearchState::WeightedSum { rng, population } => SearchStateRef::WeightedSum {
                rng: *rng,
                population,
            },
            SearchState::Annealing {
                rng,
                current,
                energy,
                temperature,
            } => SearchStateRef::Annealing {
                rng: *rng,
                current,
                energy: *energy,
                temperature: *temperature,
            },
            SearchState::Bayes { rng } => SearchStateRef::Bayes { rng: *rng },
        }
    }
}

/// A [`SearchState`] that borrows what it holds from its engine, variant
/// for variant: what [`Explorer::state`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchStateRef<'a> {
    /// See [`SearchState::Nsga2`].
    Nsga2 {
        /// Raw RNG state.
        rng: [u64; 4],
        /// Current population.
        population: &'a [Individual],
    },
    /// See [`SearchState::Random`].
    Random {
        /// Raw RNG state.
        rng: [u64; 4],
    },
    /// See [`SearchState::Exhaustive`].
    Exhaustive {
        /// Enumeration cursor.
        cursor: Option<&'a [i64]>,
    },
    /// See [`SearchState::WeightedSum`].
    WeightedSum {
        /// Raw RNG state.
        rng: [u64; 4],
        /// Current population.
        population: &'a [Individual],
    },
    /// See [`SearchState::Annealing`].
    Annealing {
        /// Raw RNG state.
        rng: [u64; 4],
        /// Current solution genome.
        current: &'a [i64],
        /// Scalar energy of the current solution.
        energy: f64,
        /// Current temperature.
        temperature: f64,
    },
    /// See [`SearchState::Bayes`].
    Bayes {
        /// Raw RNG state.
        rng: [u64; 4],
    },
}

impl SearchStateRef<'_> {
    /// The journal tag of this kind: its `--explorer` token.
    pub fn kind(&self) -> &'static str {
        match self {
            SearchStateRef::Nsga2 { .. } => "nsga2",
            SearchStateRef::Random { .. } => "random",
            SearchStateRef::Exhaustive { .. } => "exhaustive",
            SearchStateRef::WeightedSum { .. } => "wsga",
            SearchStateRef::Annealing { .. } => "sa",
            SearchStateRef::Bayes { .. } => "bayes",
        }
    }
}

impl From<SearchStateRef<'_>> for SearchState {
    fn from(state: SearchStateRef<'_>) -> SearchState {
        match state {
            SearchStateRef::Nsga2 { rng, population } => SearchState::Nsga2 {
                rng,
                population: population.to_vec(),
            },
            SearchStateRef::Random { rng } => SearchState::Random { rng },
            SearchStateRef::Exhaustive { cursor } => SearchState::Exhaustive {
                cursor: cursor.map(<[i64]>::to_vec),
            },
            SearchStateRef::WeightedSum { rng, population } => SearchState::WeightedSum {
                rng,
                population: population.to_vec(),
            },
            SearchStateRef::Annealing {
                rng,
                current,
                energy,
                temperature,
            } => SearchState::Annealing {
                rng,
                current: current.to_vec(),
                energy,
                temperature,
            },
            SearchStateRef::Bayes { rng } => SearchState::Bayes { rng },
        }
    }
}

/// Any explorer's complete mid-run state — what the journal serializes
/// at each generation boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerSnapshot {
    /// Counters, archive and history.
    pub ledger: Ledger,
    /// Everything else, tagged by kind.
    pub state: SearchState,
}

impl ExplorerSnapshot {
    /// The journal tag of the snapshot's kind.
    pub fn kind(&self) -> &'static str {
        self.state.kind()
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
    ledger: Ledger,
}

impl RandomExplorer {
    /// Starts a fresh run. Evaluates nothing until the first step, so a
    /// zero-generation budget spends zero evaluations.
    pub fn start(problem: &dyn Problem, batch: usize, seed: u64) -> RandomExplorer {
        Self::resume(
            problem,
            batch,
            Ledger::default(),
            StdRng::seed_from_u64(seed).state(),
        )
    }

    /// Rebuilds the sampler from a journaled ledger and RNG state.
    pub fn resume(
        problem: &dyn Problem,
        batch: usize,
        ledger: Ledger,
        rng: [u64; 4],
    ) -> RandomExplorer {
        RandomExplorer {
            batch: batch.max(1),
            rng: StdRng::from_state(rng),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            ledger,
        }
    }
}

impl Explorer for RandomExplorer {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }
    fn state(&self) -> SearchStateRef<'_> {
        SearchStateRef::Random {
            rng: self.rng.state(),
        }
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        let genomes = random_population(&self.vars, self.batch, &mut self.rng);
        let inds = evaluate_genomes(problem, &self.objectives, genomes);
        self.ledger.record(&inds);
        self.ledger.generation += 1;
        self.ledger.close_on_archive(problem.external_cost());
    }
    fn into_result(self: Box<Self>) -> OptResult {
        self.ledger.finish(None)
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
    ledger: Ledger,
}

impl ExhaustiveExplorer {
    /// Starts a fresh enumeration; `None` when the space volume exceeds
    /// `limit` (the cost the paper calls "prohibitive … for a good DSE").
    pub fn start(problem: &dyn Problem, limit: u64, batch: usize) -> Option<ExhaustiveExplorer> {
        let cursor = problem.variables().iter().map(|v| v.lo).collect();
        (problem.volume() <= limit)
            .then(|| Self::resume(problem, batch, Ledger::default(), Some(cursor)))
    }

    /// Rebuilds the enumerator from a journaled ledger and cursor.
    pub fn resume(
        problem: &dyn Problem,
        batch: usize,
        ledger: Ledger,
        cursor: Option<Vec<i64>>,
    ) -> ExhaustiveExplorer {
        ExhaustiveExplorer {
            batch: batch.max(1),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            cursor,
            ledger,
        }
    }
}

impl Explorer for ExhaustiveExplorer {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }
    fn state(&self) -> SearchStateRef<'_> {
        SearchStateRef::Exhaustive {
            cursor: self.cursor.as_deref(),
        }
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
        self.ledger.record(&inds);
        self.ledger.generation += 1;
        self.ledger.close_on_archive(problem.external_cost());
    }
    fn into_result(self: Box<Self>) -> OptResult {
        self.ledger.finish(None)
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
    ledger: Ledger,
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
        let genomes = random_population(problem.variables(), pop_size, &mut rng);
        let objectives = problem.objectives().to_vec();
        let pop = evaluate_genomes(problem, &objectives, genomes);
        let mut ledger = Ledger::default();
        ledger.record(&pop);
        ledger.close_on_archive(problem.external_cost());
        Self::resume(&*problem, weights, pop_size, ledger, rng.state(), pop)
    }

    /// Rebuilds the GA from a journaled ledger, RNG state and population.
    pub fn resume(
        problem: &dyn Problem,
        weights: Vec<f64>,
        pop_size: usize,
        ledger: Ledger,
        rng: [u64; 4],
        population: Vec<Individual>,
    ) -> WsgaExplorer {
        WsgaExplorer {
            weights,
            pop_size,
            rng: StdRng::from_state(rng),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            crossover: IntegerSbx::default(),
            mutation: GaussianIntegerMutation::default(),
            pop: population,
            ledger,
        }
    }
}

impl Explorer for WsgaExplorer {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }
    fn state(&self) -> SearchStateRef<'_> {
        SearchStateRef::WeightedSum {
            rng: self.rng.state(),
            population: &self.pop,
        }
    }
    fn step(&mut self, problem: &mut dyn Problem) {
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
        self.ledger.record(&kids);
        // (μ+λ) truncation by scalar fitness. Ties break on the genome so
        // survival is a pure function of the candidate set, not of the
        // order evaluations happened to arrive in.
        self.pop.extend(kids);
        let weights = &self.weights;
        self.pop.sort_by(|a, b| {
            cmp_nan_last(
                scalarize(weights, &a.min_objs),
                scalarize(weights, &b.min_objs),
            )
            .then_with(|| a.genome.cmp(&b.genome))
        });
        self.pop.truncate(self.pop_size);
        self.ledger.generation += 1;
        self.ledger.close_on_archive(problem.external_cost());
    }
    fn into_result(self: Box<Self>) -> OptResult {
        self.ledger.finish(None)
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
    rng: StdRng,
    vars: Vec<IntVar>,
    objectives: Vec<Objective>,
    mutation: GaussianIntegerMutation,
    current: Vec<i64>,
    energy: f64,
    temperature: f64,
    ledger: Ledger,
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
        let genome = random_genome(problem.variables(), &mut rng);
        let objectives = problem.objectives().to_vec();
        let inds = evaluate_genomes(problem, &objectives, vec![genome]);
        let mut ledger = Ledger::default();
        ledger.record(&inds);
        ledger.close_on_archive(problem.external_cost());
        let energy = mean_energy(&inds[0].min_objs);
        let temperature = (0.1 * energy.abs()).max(1.0);
        let current = inds[0].genome.clone();
        Self::resume(
            &*problem,
            batch,
            ledger,
            rng.state(),
            current,
            energy,
            temperature,
        )
    }

    /// Rebuilds the annealer from a journaled ledger, RNG state, current
    /// solution, its energy and the temperature.
    pub fn resume(
        problem: &dyn Problem,
        batch: usize,
        ledger: Ledger,
        rng: [u64; 4],
        current: Vec<i64>,
        energy: f64,
        temperature: f64,
    ) -> AnnealingExplorer {
        AnnealingExplorer {
            batch: batch.max(1),
            rng: StdRng::from_state(rng),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            mutation: GaussianIntegerMutation::default(),
            current,
            energy,
            temperature,
            ledger,
        }
    }
}

impl Explorer for AnnealingExplorer {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }
    fn state(&self) -> SearchStateRef<'_> {
        SearchStateRef::Annealing {
            rng: self.rng.state(),
            current: &self.current,
            energy: self.energy,
            temperature: self.temperature,
        }
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        let mut genomes: Vec<Vec<i64>> = Vec::with_capacity(self.batch);
        for _ in 0..self.batch {
            let mut g = self.current.clone();
            self.mutation.mutate(&self.vars, &mut g, &mut self.rng);
            genomes.push(g);
        }
        let inds = evaluate_genomes(problem, &self.objectives, genomes);
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
        self.ledger.record(&inds);
        self.temperature *= ANNEALING_ALPHA;
        self.ledger.generation += 1;
        self.ledger.close_on_archive(problem.external_cost());
    }
    fn into_result(self: Box<Self>) -> OptResult {
        self.ledger.finish(None)
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
        let nsga2_cfg = Nsga2Config {
            pop_size: 8,
            seed: 3,
            ..Default::default()
        };
        let resume = |p: &dyn Problem, s: ExplorerSnapshot| -> Box<dyn Explorer> {
            let ledger = s.ledger;
            match s.state {
                SearchState::Nsga2 { rng, population } => Box::new(Nsga2Explorer::resume(
                    p, &nsga2_cfg, ledger, rng, population,
                )),
                SearchState::Random { rng } => Box::new(RandomExplorer::resume(p, 8, ledger, rng)),
                SearchState::Exhaustive { cursor } => {
                    Box::new(ExhaustiveExplorer::resume(p, 8, ledger, cursor))
                }
                SearchState::WeightedSum { rng, population } => Box::new(WsgaExplorer::resume(
                    p,
                    vec![1.0, 1.0],
                    8,
                    ledger,
                    rng,
                    population,
                )),
                SearchState::Annealing {
                    rng,
                    current,
                    energy,
                    temperature,
                } => Box::new(AnnealingExplorer::resume(
                    p,
                    8,
                    ledger,
                    rng,
                    current,
                    energy,
                    temperature,
                )),
                SearchState::Bayes { .. } => unreachable!("the Bayesian engine lives in core"),
            }
        };
        type Mk<'a> = Box<dyn Fn(&mut dyn Problem) -> Box<dyn Explorer> + 'a>;
        let starts: Vec<Mk> = vec![
            Box::new(|p: &mut dyn Problem| Box::new(Nsga2Explorer::start(p, &nsga2_cfg))),
            Box::new(|p: &mut dyn Problem| Box::new(RandomExplorer::start(p, 8, 3))),
            Box::new(|p: &mut dyn Problem| {
                Box::new(ExhaustiveExplorer::start(p, 1000, 8).unwrap())
            }),
            Box::new(|p: &mut dyn Problem| Box::new(WsgaExplorer::start(p, vec![1.0, 1.0], 8, 3))),
            Box::new(|p: &mut dyn Problem| Box::new(AnnealingExplorer::start(p, 8, 3))),
        ];
        for mk in starts {
            let mut p1 = small_schaffer();
            let direct = run(mk(&mut p1), &mut p1, &term);

            let mut p2 = small_schaffer();
            let mut e = mk(&mut p2);
            while !e.should_stop(&p2, &term) {
                e = resume(&p2, e.snapshot());
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
        let SearchStateRef::WeightedSum { population, .. } = e.state() else {
            unreachable!()
        };
        let genomes: Vec<Vec<i64>> = population.iter().map(|i| i.genome.clone()).collect();
        let mut sorted = genomes.clone();
        sorted.sort();
        assert_eq!(genomes, sorted, "ties must break on genome order");
    }

    #[test]
    fn snapshot_kinds_are_the_explorer_tokens() {
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
        let kinds: Vec<&str> = explorers.iter().map(|e| e.snapshot().kind()).collect();
        assert_eq!(kinds, ["random", "exhaustive", "wsga", "sa", "nsga2"]);
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
    fn weighted_sum_truncation_survives_nan_and_infinite_fitness() {
        use crate::problem::Poisoned;
        let genomes = || {
            let mut p = Poisoned::new();
            let e = WsgaExplorer::start(&mut p, vec![1.0, 1.0], 30, 3);
            let r = run(Box::new(e), &mut p, &Termination::Generations(10));
            r.population
                .iter()
                .map(|i| i.genome.clone())
                .collect::<Vec<_>>()
        };
        let first = genomes();
        assert_eq!(first.len(), 30 * 11, "the whole archive");
        assert_eq!(first, genomes(), "truncation stays a pure function");
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
