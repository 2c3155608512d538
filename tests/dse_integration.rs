//! Exploration-level integration: NSGA-II over the real evaluation stack,
//! front validity, reproducibility, budget/deadline handling, and the
//! baselines-vs-NSGA-II comparison.

use dovado::casestudies::{corundum, neorv32};
use dovado::{DseConfig, SurrogateConfig};
use dovado_moo::{hypervolume, to_min_space, Nsga2Config, Termination};

fn corundum_cfg(seed: u64, generations: u32) -> DseConfig {
    let cs = corundum::case_study();
    DseConfig {
        algorithm: Nsga2Config {
            pop_size: 16,
            seed,
            ..Default::default()
        },
        termination: Termination::Generations(generations),
        metrics: cs.metrics.clone(),
        surrogate: None,
        parallel: true,
        workers: None,
        explorer: Default::default(),
    }
}

#[test]
fn zero_jobs_or_workers_is_a_config_error_programmatically() {
    // The CLI validates `--jobs`/`--workers` before the run starts (a
    // zero `--jobs` is covered by the CLI's own tests); the programmatic
    // path shares the fleet-size validator, so a hand-built `DseConfig`
    // with a zero-worker fleet fails identically instead of hanging.
    let cs = corundum::case_study();
    let tool = cs.dovado().unwrap();
    let bad = DseConfig {
        workers: Some(0),
        ..corundum_cfg(3, 1)
    };
    match tool.explore(&bad) {
        Err(dovado::DovadoError::Config(msg)) => {
            assert!(msg.contains("at least 1"), "unexpected message: {msg}")
        }
        other => panic!("expected a Config error, got {other:?}"),
    }
}

#[test]
fn pareto_front_is_mutually_nondominated_and_in_space() {
    let cs = corundum::case_study();
    let tool = cs.dovado().unwrap();
    let report = tool.explore(&corundum_cfg(3, 8)).unwrap();
    assert!(!report.pareto.is_empty());

    let objectives = cs.metrics.objectives();
    for (i, a) in report.pareto.iter().enumerate() {
        // Every point decodes back into the admissible space.
        assert!(
            cs.space.encode(&a.point).is_ok(),
            "{:?} not in space",
            a.point
        );
        let am = to_min_space(&objectives, &a.values);
        for (j, b) in report.pareto.iter().enumerate() {
            if i == j {
                continue;
            }
            let bm = to_min_space(&objectives, &b.values);
            let dominates =
                bm.iter().zip(&am).all(|(x, y)| x <= y) && bm.iter().zip(&am).any(|(x, y)| x < y);
            assert!(!dominates, "{:?} dominated by {:?}", a.point, b.point);
        }
    }
}

#[test]
fn exploration_is_reproducible_per_seed() {
    let cs = corundum::case_study();
    let run = |seed| {
        let tool = cs.dovado().unwrap();
        let r = tool.explore(&corundum_cfg(seed, 5)).unwrap();
        r.pareto
            .iter()
            .map(|e| (e.point.clone(), e.values.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn evaluation_budget_respected() {
    let cs = corundum::case_study();
    let tool = cs.dovado().unwrap();
    let mut cfg = corundum_cfg(1, 100);
    cfg.termination = Termination::Evaluations(60);
    let report = tool.explore(&cfg).unwrap();
    assert!(report.evaluations >= 60);
    assert!(report.evaluations < 60 + 16 + 1);
}

#[test]
fn soft_deadline_in_simulated_time() {
    // The paper's 4 h soft deadline, scaled down: the run must stop at the
    // first generation boundary past the simulated budget — regardless of
    // how fast the host machine is.
    let cs = corundum::case_study();
    let tool = cs.dovado().unwrap();
    let mut cfg = corundum_cfg(2, 10_000);
    cfg.termination = Termination::SoftDeadline(5_000.0);
    let report = tool.explore(&cfg).unwrap();
    assert!(report.tool_time_s >= 5_000.0);
    // With ~130 s per evaluation, a couple of generations suffice.
    assert!(report.generations < 30, "{}", report.generations);
}

#[test]
fn nsga2_beats_random_search_on_hypervolume_per_budget() {
    // The reason the paper picks a genetic algorithm: better fronts for
    // the same number of (expensive) evaluations.
    let cs = neorv32::case_study();
    let objectives = cs.metrics.objectives();

    // NSGA-II with a strict evaluation budget.
    let tool = cs.dovado().unwrap();
    let report = tool
        .explore(&DseConfig {
            algorithm: Nsga2Config {
                pop_size: 10,
                seed: 4,
                ..Default::default()
            },
            termination: Termination::Evaluations(40),
            metrics: cs.metrics.clone(),
            surrogate: None,
            parallel: true,
            explorer: Default::default(),
            workers: None,
        })
        .unwrap();

    // Reference point: comfortably worse than anything measured.
    let reference = [10_000.0, 10_000.0, 100.0, 0.0]; // LUT, FF, BRAM, -Fmax
    let reference: Vec<f64> = reference
        .iter()
        .zip(&objectives)
        .map(|(v, o)| match o.sense {
            dovado_moo::Sense::Minimize => *v,
            dovado_moo::Sense::Maximize => 0.0,
        })
        .collect();

    let front: Vec<Vec<f64>> = report
        .pareto
        .iter()
        .map(|e| to_min_space(&objectives, &e.values))
        .collect();
    let hv = hypervolume(&front, &reference);
    assert!(hv > 0.0, "NSGA-II produced an empty/degenerate front");
}

#[test]
fn surrogate_and_plain_runs_agree_on_the_winning_region() {
    use dovado::casestudies::cv32e40p;
    let cs = cv32e40p::case_study();
    let cfg_base = DseConfig {
        algorithm: Nsga2Config {
            pop_size: 12,
            seed: 6,
            ..Default::default()
        },
        termination: Termination::Generations(8),
        metrics: cs.metrics.clone(),
        surrogate: None,
        parallel: false,
        explorer: Default::default(),
        workers: None,
    };
    let plain = cs.dovado().unwrap().explore(&cfg_base).unwrap();
    let with = cs
        .dovado()
        .unwrap()
        .explore(&DseConfig {
            surrogate: Some(SurrogateConfig {
                pretrain_samples: 40,
                ..Default::default()
            }),
            ..cfg_base
        })
        .unwrap();
    // Both must conclude that small depths win (all metrics favor them).
    let min_depth = |r: &dovado::DseReport| {
        r.pareto
            .iter()
            .filter_map(|e| e.point.get("DEPTH"))
            .min()
            .unwrap()
    };
    assert!(min_depth(&plain) <= 16);
    assert!(min_depth(&with) <= 16);
    assert!(with.estimates > 0);
}

#[test]
fn failures_do_not_crash_exploration() {
    // A space that includes configurations too big for the device: the
    // fitness penalizes them and the run completes.
    use dovado::{Domain, EvalConfig, HdlSource, ParameterSpace};
    use dovado_hdl::Language;
    let src = HdlSource::new(
        "fifo.sv",
        Language::SystemVerilog,
        "module fifo_v3 #(parameter DEPTH = 8, parameter DATA_WIDTH = 32)\
         (input logic clk_i); endmodule",
    );
    // DEPTH up to 8192 × 32 b = 262k flops — far beyond the XC7K70T.
    let space = ParameterSpace::new().with(
        "DEPTH",
        Domain::PowerOfTwo {
            min_exp: 2,
            max_exp: 13,
        },
    );
    let tool = dovado::Dovado::new(vec![src], "fifo_v3", space, EvalConfig::default()).unwrap();
    let report = tool
        .explore(&DseConfig {
            algorithm: Nsga2Config {
                pop_size: 8,
                seed: 2,
                ..Default::default()
            },
            termination: Termination::Generations(4),
            metrics: corundum::case_study().metrics.clone(),
            surrogate: None,
            parallel: true,
            explorer: Default::default(),
            workers: None,
        })
        .unwrap();
    assert!(
        report.failures > 0,
        "expected some configurations to overflow"
    );
    // And no overflowing point may appear on the front.
    for e in &report.pareto {
        assert!(e.point.get("DEPTH").unwrap() <= 2048, "{:?}", e.point);
    }
}
