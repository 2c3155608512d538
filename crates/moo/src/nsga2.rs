//! The NSGA-II engine (Deb, Pratap, Agarwal, Meyarivan 2002).
//!
//! "We solve this multi-objective optimization problem through NSGA-II …
//! a genetic algorithm that does not require specific domain knowledge …
//! an elite-preserving algorithm that preserves non-dominated solutions in
//! the population" (§III-B1). This is the canonical loop: random initial
//! population → binary tournament → integer SBX → Gaussian mutation →
//! duplicate elimination → (μ+λ) survival by front rank with
//! crowding-distance truncation.

use crate::crowding::assign_crowding;
use crate::explorer::{evaluate_genomes, Explorer, Ledger, SearchStateRef};
use crate::individual::Individual;
use crate::ops::sampling::random_population;
use crate::ops::{binary_tournament, dedup_against, GaussianIntegerMutation, IntegerSbx};
use crate::problem::Problem;
use crate::sorting::fast_non_dominated_sort;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// NSGA-II configuration.
#[derive(Debug, Clone)]
pub struct Nsga2Config {
    /// Population size μ (= offspring size λ).
    pub pop_size: usize,
    /// Crossover operator.
    pub crossover: IntegerSbx,
    /// Mutation operator.
    pub mutation: GaussianIntegerMutation,
    /// Whether to eliminate duplicate offspring (paper default: yes).
    pub eliminate_duplicates: bool,
    /// Controlled elitism (Deb & Goel [25 in the paper]): when set, each
    /// front `i` may keep at most `N·(1−r)·rⁱ` (geometrically decaying)
    /// survivors, forcing lateral diversity instead of letting the first
    /// front flood the population. `r ∈ (0, 1)`; `None` = classic NSGA-II.
    pub controlled_elitism: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            pop_size: 40,
            crossover: IntegerSbx::default(),
            mutation: GaussianIntegerMutation::default(),
            eliminate_duplicates: true,
            controlled_elitism: None,
            seed: 0,
        }
    }
}

/// Per-front quotas for controlled elitism: `n_i = N·(1−r)·rⁱ / (1−r^K)`
/// (normalized so the quotas sum to N), each at least 1 while fronts
/// remain.
fn elitism_quotas(pop_size: usize, n_fronts: usize, r: f64) -> Vec<usize> {
    debug_assert!((0.0..1.0).contains(&r) && r > 0.0);
    let k = n_fronts.max(1);
    let norm: f64 = (1.0 - r.powi(k as i32)).max(1e-12);
    let mut quotas: Vec<usize> = (0..k)
        .map(|i| {
            ((pop_size as f64) * (1.0 - r) * r.powi(i as i32) / norm)
                .round()
                .max(1.0) as usize
        })
        .collect();
    // Fix rounding drift against the population size. Trims from the tail
    // (down to zero when there are more fronts than population slots) and
    // tops up from the head.
    let mut total: usize = quotas.iter().sum();
    let mut i = 0usize;
    while total > pop_size {
        let idx = k - 1 - (i % k);
        if quotas[idx] > 0 {
            quotas[idx] -= 1;
            total -= 1;
        }
        i += 1;
    }
    i = 0;
    while total < pop_size {
        quotas[i % k] += 1;
        total += 1;
        i += 1;
    }
    quotas
}

/// Per-generation statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GenStats {
    /// Generation index (0 = initial population).
    pub generation: u32,
    /// Cumulative evaluations after this generation.
    pub evaluations: u64,
    /// Size of the current first front.
    pub front_size: usize,
    /// External cost after this generation.
    pub external_cost: f64,
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Final population (ranked, with crowding).
    pub population: Vec<Individual>,
    /// Non-dominated set over *everything evaluated* (deduplicated).
    pub pareto: Vec<Individual>,
    /// Generations completed.
    pub generations: u32,
    /// Total evaluations spent.
    pub evaluations: u64,
    /// Per-generation history.
    pub history: Vec<GenStats>,
}

impl OptResult {
    /// Pareto front sorted by the first raw objective (stable output for
    /// reports).
    pub fn sorted_pareto(&self) -> Vec<Individual> {
        let mut front = self.pareto.clone();
        front.sort_by(|a, b| {
            a.raw
                .first()
                .partial_cmp(&b.raw.first())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        front
    }
}

/// Stepwise NSGA-II behind the [`Explorer`] seam: the classic loop split
/// at generation boundaries so callers can interleave snapshotting
/// (crash-safe journals) or custom control between generations.
/// [`crate::run`] drives it to completion.
#[derive(Debug, Clone)]
pub struct Nsga2Explorer {
    cfg: Nsga2Config,
    rng: StdRng,
    vars: Vec<crate::problem::IntVar>,
    objectives: Vec<crate::problem::Objective>,
    pop: Vec<Individual>,
    ledger: Ledger,
}

impl Nsga2Explorer {
    /// Seeds the RNG, samples and evaluates the initial population, and
    /// records the generation-0 history entry.
    pub fn start(problem: &mut dyn Problem, cfg: &Nsga2Config) -> Nsga2Explorer {
        assert!(
            cfg.pop_size >= 2,
            "population must hold at least one mating pair"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Initial population: integer random sampling.
        let genomes = random_population(problem.variables(), cfg.pop_size, &mut rng);
        let objectives = problem.objectives().to_vec();
        let mut pop = evaluate_genomes(problem, &objectives, genomes);
        let mut ledger = Ledger::default();
        ledger.record(&pop);

        let fronts = fast_non_dominated_sort(&mut pop);
        for f in &fronts {
            assign_crowding(&mut pop, f);
        }
        ledger.close(fronts.first().map_or(0, Vec::len), problem.external_cost());
        Self::resume(&*problem, cfg, ledger, rng.state(), pop)
    }

    /// Rebuilds the search mid-run from a journaled ledger, RNG state and
    /// population. The problem supplies variables/objectives (they are
    /// derived state, not journaled); everything else — including the RNG
    /// stream position — continues exactly where the snapshot was taken.
    pub fn resume(
        problem: &dyn Problem,
        cfg: &Nsga2Config,
        ledger: Ledger,
        rng: [u64; 4],
        population: Vec<Individual>,
    ) -> Nsga2Explorer {
        Nsga2Explorer {
            cfg: cfg.clone(),
            rng: StdRng::from_state(rng),
            vars: problem.variables().to_vec(),
            objectives: problem.objectives().to_vec(),
            pop: population,
            ledger,
        }
    }
}

impl Explorer for Nsga2Explorer {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn state(&self) -> SearchStateRef<'_> {
        SearchStateRef::Nsga2 {
            rng: self.rng.state(),
            population: &self.pop,
        }
    }

    /// Runs one full generation: variation → evaluation → (μ+λ) survival.
    fn step(&mut self, problem: &mut dyn Problem) {
        let cfg = &self.cfg;
        let vars = &self.vars;
        let rng = &mut self.rng;

        // --- variation ---
        let mut offspring_genomes: Vec<Vec<i64>> = Vec::with_capacity(cfg.pop_size);
        while offspring_genomes.len() < cfg.pop_size {
            let p1 = binary_tournament(&self.pop, rng);
            let p2 = binary_tournament(&self.pop, rng);
            let (mut c1, mut c2) =
                cfg.crossover
                    .cross(vars, &self.pop[p1].genome, &self.pop[p2].genome, rng);
            cfg.mutation.mutate(vars, &mut c1, rng);
            cfg.mutation.mutate(vars, &mut c2, rng);
            offspring_genomes.push(c1);
            if offspring_genomes.len() < cfg.pop_size {
                offspring_genomes.push(c2);
            }
        }
        if cfg.eliminate_duplicates {
            let parent_genomes: Vec<Vec<i64>> = self.pop.iter().map(|i| i.genome.clone()).collect();
            dedup_against(vars, &parent_genomes, &mut offspring_genomes, rng);
        }

        // --- evaluation ---
        let offspring = evaluate_genomes(problem, &self.objectives, offspring_genomes);
        self.ledger.record(&offspring);

        // --- (μ+λ) elitist survival ---
        let mut combined = std::mem::take(&mut self.pop);
        combined.extend(offspring);
        let fronts = fast_non_dominated_sort(&mut combined);
        let mut next: Vec<Individual> = Vec::with_capacity(cfg.pop_size);
        match cfg.controlled_elitism {
            Some(r) => {
                // Controlled elitism: geometric per-front quotas, crowding
                // breaking ties inside each front; unused capacity is then
                // refilled in rank order.
                let quotas = elitism_quotas(cfg.pop_size, fronts.len(), r);
                let mut leftovers: Vec<usize> = Vec::new();
                for (fi, front) in fronts.iter().enumerate() {
                    assign_crowding(&mut combined, front);
                    let mut sorted: Vec<usize> = front.clone();
                    sorted.sort_by(|&a, &b| {
                        combined[b]
                            .crowding
                            .partial_cmp(&combined[a].crowding)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    let room = cfg.pop_size - next.len();
                    let take = quotas[fi].min(sorted.len()).min(room);
                    next.extend(sorted[..take].iter().map(|&i| combined[i].clone()));
                    leftovers.extend_from_slice(&sorted[take..]);
                }
                for &i in &leftovers {
                    if next.len() >= cfg.pop_size {
                        break;
                    }
                    next.push(combined[i].clone());
                }
            }
            None => {
                for front in &fronts {
                    assign_crowding(&mut combined, front);
                    if next.len() + front.len() <= cfg.pop_size {
                        next.extend(front.iter().map(|&i| combined[i].clone()));
                    } else {
                        let mut rest: Vec<usize> = front.clone();
                        rest.sort_by(|&a, &b| {
                            combined[b]
                                .crowding
                                .partial_cmp(&combined[a].crowding)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        });
                        for &i in rest.iter().take(cfg.pop_size - next.len()) {
                            next.push(combined[i].clone());
                        }
                        break;
                    }
                }
            }
        }
        self.pop = next;
        // Re-rank the survivors among themselves.
        let fronts = fast_non_dominated_sort(&mut self.pop);
        for f in &fronts {
            assign_crowding(&mut self.pop, f);
        }

        self.ledger.generation += 1;
        self.ledger
            .close(fronts.first().map_or(0, Vec::len), problem.external_cost());
    }

    fn into_result(self: Box<Self>) -> OptResult {
        self.ledger.finish(Some(self.pop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{run, ExplorerSnapshot, SearchState};
    use crate::problem::{IntVar, Objective, Schaffer};
    use crate::termination::Termination;

    fn small_cfg(seed: u64) -> Nsga2Config {
        Nsga2Config {
            pop_size: 24,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn converges_on_schaffer() {
        let mut p = Schaffer::new();
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(1))),
            &mut p,
            &Termination::Generations(40),
        );
        // True Pareto set is x ∈ [0, 2]; most of the front must be there.
        let on_front = r
            .pareto
            .iter()
            .filter(|i| (0..=2).contains(&i.genome[0]))
            .count();
        assert!(
            on_front >= 3,
            "expected x ∈ [0,2] solutions, got {:?}",
            r.pareto.iter().map(|i| i.genome[0]).collect::<Vec<_>>()
        );
        // And no point far away survives in the final non-dominated set.
        assert!(r.pareto.iter().all(|i| i.genome[0].abs() <= 10));
    }

    #[test]
    fn deterministic_per_seed() {
        let front = |seed| {
            let mut p = Schaffer::new();
            let r = run(
                Box::new(Nsga2Explorer::start(&mut p, &small_cfg(seed))),
                &mut p,
                &Termination::Generations(10),
            );
            r.sorted_pareto()
                .iter()
                .map(|i| i.genome.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(front(7), front(7));
        assert_ne!(front(7), front(8));
    }

    #[test]
    fn engine_snapshot_resume_is_bitwise_identical() {
        // Run straight through...
        let mut p1 = Schaffer::new();
        let direct = run(
            Box::new(Nsga2Explorer::start(&mut p1, &small_cfg(13))),
            &mut p1,
            &Termination::Generations(12),
        );

        // ...and snapshot/rebuild at every generation boundary.
        let mut p2 = Schaffer::new();
        let cfg = small_cfg(13);
        let term = Termination::Generations(12);
        let mut engine = Nsga2Explorer::start(&mut p2, &cfg);
        while !engine.should_stop(&p2, &term) {
            let ExplorerSnapshot {
                ledger,
                state: SearchState::Nsga2 { rng, population },
            } = engine.snapshot()
            else {
                unreachable!("NSGA-II snapshots are tagged Nsga2")
            };
            engine = Nsga2Explorer::resume(&p2, &cfg, ledger, rng, population);
            engine.step(&mut p2);
        }
        let resumed = Box::new(engine).into_result();

        assert_eq!(resumed.generations, direct.generations);
        assert_eq!(resumed.evaluations, direct.evaluations);
        assert_eq!(resumed.history, direct.history);
        assert_eq!(resumed.population, direct.population);
        let (a, b) = (direct.sorted_pareto(), resumed.sorted_pareto());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.genome, y.genome);
            for (u, v) in x.raw.iter().zip(&y.raw) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn respects_evaluation_budget() {
        let mut p = Schaffer::new();
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(2))),
            &mut p,
            &Termination::Evaluations(100),
        );
        // Stops at the first generation boundary at/after 100.
        assert!(r.evaluations >= 100);
        assert!(r.evaluations <= 100 + 24);
        assert_eq!(r.evaluations, p.evaluations);
    }

    #[test]
    fn history_tracks_generations() {
        let mut p = Schaffer::new();
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(3))),
            &mut p,
            &Termination::Generations(5),
        );
        assert_eq!(r.generations, 5);
        assert_eq!(r.history.len(), 6); // gen 0 + 5
        assert!(r
            .history
            .windows(2)
            .all(|w| w[1].evaluations > w[0].evaluations));
    }

    #[test]
    fn pareto_is_mutually_nondominated() {
        let mut p = Schaffer::new();
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(4))),
            &mut p,
            &Termination::Generations(15),
        );
        for a in &r.pareto {
            for b in &r.pareto {
                assert!(!a.dominates(b) || a.genome == b.genome);
            }
        }
    }

    #[test]
    fn population_size_is_stable() {
        let mut p = Schaffer::new();
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(5))),
            &mut p,
            &Termination::Generations(8),
        );
        assert_eq!(r.population.len(), 24);
    }

    #[test]
    fn maximization_objectives_work() {
        // maximize x in [0, 50] against minimize (x-20)^2: front spans 20..50.
        struct P2 {
            vars: Vec<IntVar>,
            objs: Vec<Objective>,
        }
        impl Problem for P2 {
            fn variables(&self) -> &[IntVar] {
                &self.vars
            }
            fn objectives(&self) -> &[Objective] {
                &self.objs
            }
            fn evaluate(&mut self, g: &[i64]) -> Vec<f64> {
                let x = g[0] as f64;
                vec![x, (x - 20.0) * (x - 20.0)]
            }
        }
        let mut p = P2 {
            vars: vec![IntVar::new("x", 0, 50)],
            objs: vec![Objective::maximize("x"), Objective::minimize("d")],
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(6))),
            &mut p,
            &Termination::Generations(30),
        );
        assert!(r.pareto.iter().all(|i| i.genome[0] >= 20), "{:?}", r.pareto);
        assert!(r.pareto.iter().any(|i| i.genome[0] == 50));
    }

    #[test]
    fn elitism_quota_shape() {
        // Quotas decay geometrically and sum to the population size.
        let q = elitism_quotas(40, 4, 0.5);
        assert_eq!(q.iter().sum::<usize>(), 40);
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        assert!(q[0] > q[3]);
        // Single front: everything goes to it.
        assert_eq!(elitism_quotas(10, 1, 0.5), vec![10]);
        // Tight capacity: rounding drift is trimmed from the *tail*, so the
        // best fronts keep their share and late fronts may get zero.
        let q = elitism_quotas(8, 6, 0.3);
        assert_eq!(q.iter().sum::<usize>(), 8);
        assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        assert!(q[0] >= 1);
        // More fronts than slots must still terminate and sum correctly.
        let q = elitism_quotas(4, 20, 0.5);
        assert_eq!(q.iter().sum::<usize>(), 4);
        assert!(q[0] >= 1);
    }

    #[test]
    fn controlled_elitism_preserves_lateral_diversity() {
        // On Schaffer the first front quickly covers the whole population
        // under classic NSGA-II; with controlled elitism dominated ranks
        // must survive in the steady-state population.
        let mut p = Schaffer::new();
        let cfg = Nsga2Config {
            pop_size: 40,
            seed: 3,
            controlled_elitism: Some(0.5),
            ..Default::default()
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &cfg)),
            &mut p,
            &Termination::Generations(20),
        );
        let rank0 = r.population.iter().filter(|i| i.rank == 0).count();
        assert!(
            rank0 < r.population.len(),
            "no dominated ranks kept: {rank0}"
        );
        // And the front is still found.
        assert!(r.pareto.iter().any(|i| (0..=2).contains(&i.genome[0])));
    }

    #[test]
    fn controlled_elitism_still_converges() {
        let mut p = Schaffer::new();
        let cfg = Nsga2Config {
            pop_size: 24,
            seed: 8,
            controlled_elitism: Some(0.65),
            ..Default::default()
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &cfg)),
            &mut p,
            &Termination::Generations(40),
        );
        let on_front = r
            .pareto
            .iter()
            .filter(|i| (0..=2).contains(&i.genome[0]))
            .count();
        assert!(
            on_front >= 2,
            "{:?}",
            r.pareto.iter().map(|i| i.genome[0]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn elitism_never_loses_the_best_extreme() {
        let mut p = Schaffer::new();
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &small_cfg(9))),
            &mut p,
            &Termination::Generations(25),
        );
        // f1-optimal point x=0 must be in the archive front.
        let best_f1 = r
            .pareto
            .iter()
            .map(|i| i.raw[0])
            .fold(f64::INFINITY, f64::min);
        assert!(best_f1 <= 1.0, "lost the f1 extreme: {best_f1}");
    }
}
