//! # dovado-moo
//!
//! Multi-objective integer optimization for the Dovado DSE framework:
//! a from-scratch NSGA-II (fast non-dominated sorting, crowding distance,
//! binary tournament, integer SBX crossover, Gaussian integer mutation,
//! duplicate elimination), baseline explorers (random, exhaustive,
//! weighted-sum GA, simulated annealing) behind one stepwise [`Explorer`]
//! trait, quality metrics (hypervolume, IGD, spread) and termination
//! criteria including the paper's soft deadline. [`run`] drives any
//! explorer to completion:
//!
//! ```
//! use dovado_moo::{run, Nsga2Config, Nsga2Explorer, Schaffer, Termination};
//!
//! let mut problem = Schaffer::new();
//! let cfg = Nsga2Config { pop_size: 20, seed: 1, ..Default::default() };
//! let nsga2 = Nsga2Explorer::start(&mut problem, &cfg);
//! let result = run(Box::new(nsga2), &mut problem, &Termination::Generations(25));
//! assert!(!result.pareto.is_empty());
//! ```

#![warn(missing_docs)]

pub mod benchmarks;
pub mod crowding;
pub mod explorer;
pub mod individual;
pub mod metrics;
pub mod nsga2;
pub mod ops;
pub mod problem;
pub mod sorting;
pub mod termination;

pub use benchmarks::{Zdt1, Zdt2, Zdt3};
pub use crowding::assign_crowding;
pub use explorer::{
    run, AnnealingExplorer, ExhaustiveExplorer, Explorer, ExplorerSnapshot, Ledger, RandomExplorer,
    SearchState, SearchStateRef, WsgaExplorer,
};
pub use individual::{non_dominated_indices, Individual};
pub use metrics::{hypervolume, hypervolume_of, igd, spread};
pub use nsga2::{GenStats, Nsga2Config, Nsga2Explorer, OptResult};
pub use ops::{GaussianIntegerMutation, IntegerSbx};
pub use problem::{to_min_space, IntVar, Objective, Problem, Schaffer, Sense};
pub use sorting::fast_non_dominated_sort;
pub use termination::{EngineState, Termination};
