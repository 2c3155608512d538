//! Ablation: exploration strategy.
//!
//! The paper chooses NSGA-II over the wider strategy space surveyed by
//! Panerati et al. \[12\]. This ablation gives NSGA-II, uniform random
//! search, and a weighted-sum GA the same evaluation budgets on the
//! Corundum problem and scores each front's hypervolume against the exact
//! front (the space is exhaustively enumerable here, so ground truth is
//! available).

use dovado::casestudies::corundum;
use dovado::csv::CsvWriter;
use dovado::{DseConfig, DseProblem};
use dovado_bench::{banner, write_csv, write_trace};
use dovado_moo::{
    hypervolume, run, to_min_space, Nsga2Config, Problem, RandomExplorer, Termination, WsgaExplorer,
};

fn front_hv(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    hypervolume(front, reference)
}

fn main() {
    banner(
        "Ablation — explorer choice (NSGA-II vs random vs weighted-sum GA)",
        "hypervolume vs evaluation budget, against the exhaustive ground truth",
    );

    let cs = corundum::case_study();
    let objectives = cs.metrics.objectives();
    // Reference point: worse than any real measurement (min-space).
    let reference = vec![5_000.0, 10_000.0, 50.0, -0.0];

    // Exhaustive ground truth (the space has a few thousand points and the
    // simulated evaluations are host-cheap).
    let exact_hv = {
        let tool = cs.dovado().unwrap();
        let all = tool
            .evaluate_exhaustive(10_000, true)
            .expect("space enumerable");
        let front: Vec<Vec<f64>> = all
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|e| to_min_space(&objectives, &cs.metrics.extract(e)))
            .collect();
        front_hv(&front, &reference)
    };
    println!(
        "exact front hypervolume (exhaustive, {} points): {exact_hv:.3e}",
        cs.space.volume()
    );
    println!();

    let budgets = [60u64, 120, 240];
    let mut csv = CsvWriter::new();
    csv.header(&["explorer", "budget", "hypervolume", "fraction_of_exact"]);
    println!(
        "{:<16} {:>8} {:>16} {:>18}",
        "explorer", "budget", "hypervolume", "fraction of exact"
    );

    let mut last_spine = None;
    for &budget in &budgets {
        // --- NSGA-II ---
        let hv_nsga = {
            let tool = cs.dovado().unwrap();
            let report = tool
                .explore(&DseConfig {
                    algorithm: Nsga2Config {
                        pop_size: 20,
                        seed: 1,
                        ..Default::default()
                    },
                    termination: Termination::Evaluations(budget),
                    metrics: cs.metrics.clone(),
                    surrogate: None,
                    parallel: true,
                    explorer: Default::default(),
                    workers: None,
                })
                .unwrap();
            let front: Vec<Vec<f64>> = report
                .pareto
                .iter()
                .map(|e| to_min_space(&objectives, &e.values))
                .collect();
            last_spine = Some(report.spine);
            front_hv(&front, &reference)
        };

        // --- random search / weighted sum: run on a fresh DseProblem ---
        let mk_problem = || {
            DseProblem::new(
                cs.dovado().unwrap().evaluator().clone(),
                cs.space.clone(),
                cs.metrics.clone(),
                None,
            )
            .unwrap()
        };

        let hv_random = {
            let mut p = mk_problem();
            let random = RandomExplorer::start(&p, 20, 1);
            let r = run(Box::new(random), &mut p, &Termination::Evaluations(budget));
            let front: Vec<Vec<f64>> = r.pareto.iter().map(|i| i.min_objs.clone()).collect();
            front_hv(&front, &reference)
        };

        let hv_ws = {
            let mut p = mk_problem();
            let n_obj = p.objectives().len();
            let w = vec![1.0 / n_obj as f64; n_obj];
            let wsga = WsgaExplorer::start(&mut p, w, 20, 1);
            let r = run(Box::new(wsga), &mut p, &Termination::Evaluations(budget));
            let front: Vec<Vec<f64>> = r.pareto.iter().map(|i| i.min_objs.clone()).collect();
            front_hv(&front, &reference)
        };

        for (name, hv) in [
            ("nsga2", hv_nsga),
            ("random", hv_random),
            ("weighted-sum", hv_ws),
        ] {
            println!(
                "{:<16} {:>8} {:>16.3e} {:>17.1}%",
                name,
                budget,
                hv,
                100.0 * hv / exact_hv
            );
            csv.row(&[
                name.to_string(),
                budget.to_string(),
                format!("{hv:.6e}"),
                format!("{:.2}", 100.0 * hv / exact_hv),
            ]);
        }
    }

    let path = write_csv("ablation_explorers.csv", csv);
    println!("wrote {}", path.display());
    if let Some(spine) = &last_spine {
        let trace = write_trace("ablation_explorers.jsonl", spine);
        println!("wrote {}", trace.display());
    }
    println!();
    println!(
        "reading: the weighted-sum GA collapses onto one region of the front \
         (one scalarization → one optimum); NSGA-II covers the front, which is \
         why the paper adopts it."
    );
}
