//! Bayesian-style acquisition explorer over the NW surrogate.
//!
//! A cheap model-guided search: every evaluated configuration trains a
//! Nadaraya-Watson estimator (the paper's Eq. 2 regressor, reused from
//! `dovado-surrogate`) on a scalarized objective, and each generation
//! scores a pool of random candidates by an acquisition value
//! `ŷ − κ·range(y)·d_min` — predicted quality discounted by normalized
//! distance to the nearest training sample, the classic
//! exploitation/exploration trade-off with the novelty bonus standing in
//! for posterior variance (NW is not a full GP, so there is no closed-form
//! σ to draw on). The best `batch` candidates by `(acquisition, genome)`
//! are paid for with real evaluations.
//!
//! The engine implements [`dovado_moo::Explorer`], so journaling, tracing,
//! cancellation and parallel schedules all apply. Beyond its ledger it
//! journals only its RNG ([`dovado_moo::SearchState::Bayes`]): the dataset is
//! *derived* state, rebuilt from the archive in insertion order on
//! resume, which keeps the journal format free of surrogate internals
//! while still resuming bitwise.

use dovado_moo::explorer::evaluate_genomes;
use dovado_moo::ops::sampling::random_population;
use dovado_moo::{cmp_nan_last, IntVar, Ledger, Objective, OptResult, Problem, SearchStateRef};
use dovado_surrogate::{Bounds, Dataset, Kernel, NadarayaWatson};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Candidate-pool multiplier: each generation scores `batch × POOL_FACTOR`
/// random candidates before paying for `batch` real evaluations.
const POOL_FACTOR: usize = 8;

/// Exploration weight κ on the normalized-distance novelty bonus.
const EXPLORE_KAPPA: f64 = 1.0;

/// NW bandwidth used for acquisition (normalized-coordinate units).
const ACQUISITION_BANDWIDTH: f64 = 0.15;

fn scalar_objective(min_objs: &[f64]) -> f64 {
    if min_objs.is_empty() {
        return 0.0;
    }
    min_objs.iter().sum::<f64>() / min_objs.len() as f64
}

fn dataset_for(vars: &[IntVar]) -> Dataset {
    let bounds = Bounds::new(vars.iter().map(|v| (v.lo, v.hi)).collect());
    Dataset::new(bounds, 1)
}

/// The Bayesian acquisition explorer (see module docs).
#[derive(Debug, Clone)]
pub struct BayesExplorer {
    batch: usize,
    rng: StdRng,
    vars: Vec<IntVar>,
    objectives: Vec<Objective>,
    nw: NadarayaWatson,
    dataset: Dataset,
    ledger: Ledger,
}

impl BayesExplorer {
    /// Starts a fresh run: evaluates one random batch to seed the model.
    pub fn start(problem: &mut dyn Problem, batch: usize, seed: u64) -> BayesExplorer {
        let mut rng = StdRng::seed_from_u64(seed);
        let genomes = random_population(problem.variables(), batch.max(1), &mut rng);
        let objectives = problem.objectives().to_vec();
        let seedlings = evaluate_genomes(problem, &objectives, genomes);
        let mut ledger = Ledger::default();
        ledger.record(&seedlings);
        ledger.close_on_archive(problem.external_cost());
        Self::resume(&*problem, batch, ledger, rng.state())
    }

    /// Rebuilds the explorer from a journaled ledger and RNG state; the
    /// NW training set is replayed from the archive in insertion order.
    pub fn resume(
        problem: &dyn Problem,
        batch: usize,
        ledger: Ledger,
        rng: [u64; 4],
    ) -> BayesExplorer {
        let vars = problem.variables().to_vec();
        let mut dataset = dataset_for(&vars);
        for ind in &ledger.archive {
            dataset.insert(ind.genome.clone(), vec![scalar_objective(&ind.min_objs)]);
        }
        BayesExplorer {
            batch: batch.max(1),
            rng: StdRng::from_state(rng),
            objectives: problem.objectives().to_vec(),
            nw: NadarayaWatson {
                kernel: Kernel::Gaussian,
                bandwidth: ACQUISITION_BANDWIDTH,
            },
            dataset,
            ledger,
            vars,
        }
    }

    /// Acquisition value for a candidate: predicted scalar objective minus
    /// the scaled distance-to-nearest-sample bonus (lower is better).
    fn acquisition(&self, genome: &[i64], y_range: f64) -> f64 {
        let predicted = self
            .nw
            .predict(&self.dataset, genome)
            .map_or(0.0, |out| out[0]);
        let x = self.dataset.normalize(genome);
        let d_min = self.dataset.min_dist2(&x).map_or(1.0, |(_, d2)| d2.sqrt());
        predicted - EXPLORE_KAPPA * y_range * d_min
    }
}

impl dovado_moo::Explorer for BayesExplorer {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }
    fn state(&self) -> SearchStateRef<'_> {
        SearchStateRef::Bayes {
            rng: self.rng.state(),
        }
    }
    fn step(&mut self, problem: &mut dyn Problem) {
        // Score a pool of random candidates against the model...
        let pool = random_population(&self.vars, self.batch * POOL_FACTOR, &mut self.rng);
        let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for ind in &self.ledger.archive {
            let y = scalar_objective(&ind.min_objs);
            y_lo = y_lo.min(y);
            y_hi = y_hi.max(y);
        }
        let y_range = if y_hi > y_lo { y_hi - y_lo } else { 1.0 };
        let mut scored: Vec<(f64, Vec<i64>)> = pool
            .into_iter()
            .map(|g| (self.acquisition(&g, y_range), g))
            .collect();
        // ...and pay for the most promising `batch`. Ties break on the
        // genome so selection is a pure function of the candidate set.
        scored.sort_by(|a, b| cmp_nan_last(a.0, b.0).then_with(|| a.1.cmp(&b.1)));
        let chosen: Vec<Vec<i64>> = scored
            .into_iter()
            .take(self.batch)
            .map(|(_, g)| g)
            .collect();
        let inds = evaluate_genomes(problem, &self.objectives, chosen);
        for ind in &inds {
            self.dataset
                .insert(ind.genome.clone(), vec![scalar_objective(&ind.min_objs)]);
        }
        self.ledger.record(&inds);
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
    use dovado_moo::{Explorer, Schaffer, SearchState, Termination};

    #[test]
    fn bayes_converges_near_the_front() {
        let mut p = Schaffer::new();
        let mut e = BayesExplorer::start(&mut p, 12, 4);
        let term = Termination::Generations(25);
        while !e.should_stop(&p, &term) {
            e.step(&mut p);
        }
        let r = Box::new(e).into_result();
        assert_eq!(r.evaluations, 12 + 25 * 12);
        // Mean-objective optimum is x ∈ [0, 2]; the model-guided walk must
        // get close from a 2001-point space.
        let best = r
            .population
            .iter()
            .map(|i| scalar_objective(&i.min_objs))
            .fold(f64::INFINITY, f64::min);
        assert!(best < 400.0, "best scalar {best}");
    }

    #[test]
    fn nan_and_infinite_objectives_never_panic_the_acquisition_sort() {
        // A NaN or infinite objective poisons the scalar model, so whole
        // pools of acquisition scores go NaN; ranking them must not panic
        // and must stay a pure function of the seed.
        struct Poisoned(Schaffer, Vec<IntVar>);
        impl Problem for Poisoned {
            fn variables(&self) -> &[IntVar] {
                &self.1
            }
            fn objectives(&self) -> &[Objective] {
                self.0.objectives()
            }
            fn evaluate(&mut self, g: &[i64]) -> Vec<f64> {
                let mut objs = self.0.evaluate(g);
                if g[0] % 3 == 0 {
                    objs[0] = f64::NAN;
                } else if g[0] % 7 == 0 {
                    objs = vec![f64::INFINITY, f64::NEG_INFINITY];
                }
                objs
            }
        }
        let genomes = || {
            let mut p = Poisoned(Schaffer::new(), vec![IntVar::new("x", -60, 60)]);
            let mut e = BayesExplorer::start(&mut p, 8, 3);
            let term = Termination::Generations(10);
            while !e.should_stop(&p, &term) {
                e.step(&mut p);
            }
            let r = Box::new(e).into_result();
            r.population
                .iter()
                .map(|i| i.genome.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(genomes(), genomes());
    }

    #[test]
    fn bayes_snapshot_resume_is_bitwise() {
        let term = Termination::Generations(8);
        let mut p1 = Schaffer::new();
        let mut direct = BayesExplorer::start(&mut p1, 6, 9);
        while !direct.should_stop(&p1, &term) {
            direct.step(&mut p1);
        }
        let direct = Box::new(direct).into_result();

        let mut p2 = Schaffer::new();
        let mut e = BayesExplorer::start(&mut p2, 6, 9);
        while !e.should_stop(&p2, &term) {
            let snap = e.snapshot();
            let SearchState::Bayes { rng } = snap.state else {
                unreachable!()
            };
            e = BayesExplorer::resume(&p2, 6, snap.ledger, rng);
            e.step(&mut p2);
        }
        let resumed = Box::new(e).into_result();
        assert_eq!(direct.history, resumed.history);
        assert_eq!(direct.population, resumed.population);
        assert_eq!(direct.pareto, resumed.pareto);
    }
}
