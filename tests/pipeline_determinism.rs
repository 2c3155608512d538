//! The staged batch pipeline's hard invariant: per seed, a parallel run
//! produces bitwise-identical objective vectors, dataset contents, stats
//! and Pareto fronts to a sequential run — thread scheduling must never
//! leak into answers. Plus the amortized-reselection accuracy regression:
//! deferring LOO-CV must not change what batch decisions see.

use dovado::casestudies::corundum;
use dovado::{Domain, Evaluation};
use dovado::{
    DseConfig, DseProblem, EvalConfig, Evaluator, HdlSource, Metric, MetricSet, ParameterSpace,
    SurrogateConfig,
};
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Problem, Termination};
use dovado_surrogate::{mse_per_output, ProbeSet, ThresholdPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

fn evaluator() -> Evaluator {
    Evaluator::new(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        EvalConfig::default(),
    )
    .unwrap()
}

fn space(depth_hi: i64, width_values: &[i64]) -> ParameterSpace {
    ParameterSpace::new()
        .with(
            "DEPTH",
            Domain::Range {
                lo: 2,
                hi: depth_hi,
                step: 2,
            },
        )
        .with("DATA_WIDTH", Domain::Explicit(width_values.to_vec()))
}

fn metrics() -> MetricSet {
    MetricSet::new(vec![
        Metric::Utilization(ResourceKind::Register),
        Metric::Utilization(ResourceKind::Lut),
        Metric::Fmax,
    ])
}

fn surrogate_problem(
    parallel: bool,
    depth_hi: i64,
    widths: &[i64],
    seed: u64,
    reselect_every: usize,
) -> DseProblem {
    let cfg = SurrogateConfig {
        policy: ThresholdPolicy::paper_default(),
        pretrain_samples: 20,
        seed,
        reselect_every,
        ..Default::default()
    };
    let mut p =
        DseProblem::new(evaluator(), space(depth_hi, widths), metrics(), Some(&cfg)).unwrap();
    p.schedule = parallel.into();
    p
}

proptest! {
    /// Parallel surrogate batches ≡ sequential surrogate batches:
    /// objectives (bitwise), stats, dataset length and contents, and the
    /// selected bandwidth, across random spaces, seeds and amortization
    /// periods.
    #[test]
    fn parallel_surrogate_equals_sequential(
        seed in 0u64..500,
        depth_n in 8i64..200,
        reselect_every in 1usize..40,
    ) {
        let widths = [8i64, 16, 32];
        let depth_hi = depth_n * 2;
        let mut seq = surrogate_problem(false, depth_hi, &widths, seed, reselect_every);
        let mut par = surrogate_problem(true, depth_hi, &widths, seed, reselect_every);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C4);
        for _generation in 0..3 {
            let genomes: Vec<Vec<i64>> = (0..12)
                .map(|_| vec![rng.gen_range(0..depth_n), rng.gen_range(0..3)])
                .collect();
            let a = seq.evaluate_batch(&genomes);
            let b = par.evaluate_batch(&genomes);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        prop_assert_eq!(seq.stats, par.stats);
        let (ds, dp) = (
            seq.surrogate().unwrap().dataset(),
            par.surrogate().unwrap().dataset(),
        );
        prop_assert_eq!(ds.len(), dp.len());
        prop_assert_eq!(ds.raw_points(), dp.raw_points());
        prop_assert_eq!(ds.outputs(), dp.outputs());
        prop_assert_eq!(
            seq.surrogate().unwrap().model().bandwidth.to_bits(),
            par.surrogate().unwrap().model().bandwidth.to_bits()
        );
        prop_assert_eq!(
            seq.surrogate().unwrap().gamma().to_bits(),
            par.surrogate().unwrap().gamma().to_bits()
        );
    }
}

/// Whole-run determinism: NSGA-II + surrogate, parallel vs sequential,
/// same seed → identical Pareto front and identical run counters.
#[test]
fn explore_parallel_equals_sequential_pareto() {
    let cs = corundum::case_study();
    let run = |parallel: bool| {
        let tool = cs.dovado().unwrap();
        tool.explore(&DseConfig {
            algorithm: Nsga2Config {
                pop_size: 16,
                seed: 11,
                ..Default::default()
            },
            termination: Termination::Generations(6),
            metrics: cs.metrics.clone(),
            surrogate: Some(SurrogateConfig {
                pretrain_samples: 40,
                ..Default::default()
            }),
            parallel,
            explorer: Default::default(),
            workers: None,
        })
        .unwrap()
    };
    let seq = run(false);
    let par = run(true);

    assert_eq!(seq.pareto.len(), par.pareto.len());
    for (a, b) in seq.pareto.iter().zip(&par.pareto) {
        assert_eq!(a.point, b.point);
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits(), "{:?} vs {:?}", a.values, b.values);
        }
    }
    assert_eq!(seq.generations, par.generations);
    assert_eq!(seq.evaluations, par.evaluations);
    assert_eq!(seq.tool_runs, par.tool_runs);
    assert_eq!(seq.cached_runs, par.cached_runs);
    assert_eq!(seq.estimates, par.estimates);
    assert_eq!(seq.failures, par.failures);
    assert_eq!(seq.retries, par.retries);
}

/// Regression: amortizing LOO-CV reselection (`reselect_every` > 1) must
/// not change estimate accuracy as seen by batch decisions — the pipeline
/// refreshes any stale bandwidth before deciding, so after the refresh the
/// amortized controller's model is bitwise the eager one's.
#[test]
fn amortized_reselection_keeps_estimate_accuracy() {
    let widths = [8i64, 16, 32];
    let mut eager = surrogate_problem(false, 400, &widths, 42, 1);
    let mut lazy = surrogate_problem(false, 400, &widths, 42, 25);

    // Grow both datasets through identical generations.
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..3 {
        let genomes: Vec<Vec<i64>> = (0..16)
            .map(|_| vec![rng.gen_range(0..200), rng.gen_range(0..3)])
            .collect();
        let _ = eager.evaluate_batch(&genomes);
        let _ = lazy.evaluate_batch(&genomes);
    }

    // Probe truths from a fresh tool-only problem.
    let mut truth = DseProblem::new(evaluator(), space(400, &widths), metrics(), None).unwrap();
    let probes = ProbeSet::new(
        (0..20)
            .map(|i| {
                let g = vec![(i * 9 + 3) % 200, i % 3];
                let t = truth.evaluate(&g);
                (g, t)
            })
            .collect(),
    );
    let scales = [1000.0, 1000.0, 100.0];

    // The last generation's records may have left the lazy bandwidth
    // stale; the next generation's decide phase refreshes it before any
    // decision is made. An empty generation triggers exactly that batch
    // boundary without adding records of its own.
    let boundary: Vec<Vec<i64>> = Vec::new();
    let _ = eager.evaluate_batch(&boundary);
    let _ = lazy.evaluate_batch(&boundary);

    let e = eager.surrogate().unwrap();
    let l = lazy.surrogate().unwrap();
    assert_eq!(e.dataset().len(), l.dataset().len());
    assert_eq!(
        e.model().bandwidth.to_bits(),
        l.model().bandwidth.to_bits(),
        "after a batch boundary the amortized bandwidth must equal eager"
    );
    let mse_e = mse_per_output(&e.model(), e.dataset(), &probes, &scales).unwrap();
    let mse_l = mse_per_output(&l.model(), l.dataset(), &probes, &scales).unwrap();
    for (a, b) in mse_e.iter().zip(&mse_l) {
        assert_eq!(a.to_bits(), b.to_bits(), "{mse_e:?} vs {mse_l:?}");
    }
}

/// The type-level reminder that `Evaluation` stays shared between the
/// pipeline phases by value, not by handle: quality-of-result fields are
/// plain data, safe to fan out across threads.
#[allow(dead_code)]
fn _evaluation_is_send_sync(e: Evaluation) -> impl Send + Sync {
    e
}
