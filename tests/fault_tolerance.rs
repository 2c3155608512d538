//! Fault-tolerance integration tests: the evaluator's retry loop must make
//! injected transient faults invisible to the optimizer, and failed runs
//! must never leak penalty vectors into the surrogate dataset.

use dovado::Domain;
use dovado::{
    DesignPoint, DovadoError, DseProblem, EvalConfig, Evaluator, HdlSource, Metric, MetricSet,
    ParameterSpace, RetryPolicy,
};
use dovado_eda::FaultPlan;
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{run, Nsga2Config, Nsga2Explorer, Termination};
use dovado_surrogate::ThresholdPolicy;
use proptest::prelude::*;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(
    input  logic clk_i,
    input  logic [DATA_WIDTH-1:0] data_i,
    output logic [DATA_WIDTH-1:0] data_o
);
endmodule"#;

fn evaluator(config: EvalConfig) -> Evaluator {
    Evaluator::new(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        config,
    )
    .unwrap()
}

fn space() -> ParameterSpace {
    ParameterSpace::new().with(
        "DEPTH",
        Domain::Range {
            lo: 2,
            hi: 512,
            step: 2,
        },
    )
}

fn metrics() -> MetricSet {
    MetricSet::new(vec![
        Metric::Utilization(ResourceKind::Lut),
        Metric::Utilization(ResourceKind::Register),
        Metric::Fmax,
    ])
}

proptest! {
    /// Under *any* seeded plan of transient faults, retry either converges
    /// to metrics identical to the fault-free run or surfaces a
    /// transient-class `RetriesExhausted` — never silent wrong metrics,
    /// never a permanent-looking error.
    #[test]
    fn retry_converges_to_fault_free_metrics(
        seed in 0u64..1_000_000,
        synth_crash in 0.0f64..0.25,
        route_timeout in 0.0f64..0.25,
        report_garbled in 0.0f64..0.12,
        checkpoint_corrupt in 0.0f64..0.25,
        depth_step in 1i64..64,
    ) {
        let point = DesignPoint::from_pairs(&[("DEPTH", depth_step * 8)]);
        let truth = evaluator(EvalConfig::default()).evaluate(&point).unwrap();

        let faulty = evaluator(EvalConfig {
            faults: FaultPlan {
                seed,
                synth_crash,
                route_timeout,
                report_garbled,
                checkpoint_corrupt,
                ..FaultPlan::default()
            },
            retry: RetryPolicy { max_attempts: 12, ..Default::default() },
            ..Default::default()
        });
        match faulty.evaluate(&point) {
            Ok(e) => {
                prop_assert_eq!(e.utilization, truth.utilization);
                prop_assert_eq!(e.wns_ns, truth.wns_ns);
                prop_assert_eq!(e.period_ns, truth.period_ns);
                prop_assert_eq!(e.power_mw, truth.power_mw);
            }
            Err(err) => {
                prop_assert!(
                    matches!(err, DovadoError::RetriesExhausted { .. }),
                    "unexpected error shape: {}", err
                );
                prop_assert!(err.is_transient(), "exhaustion must stay transient: {}", err);
            }
        }
        // Every attempt is accounted for in the trace.
        let s = faulty.trace_summary();
        prop_assert!(s.attempts >= 1 && s.attempts <= 12);
        prop_assert_eq!(s.retries, s.attempts - 1);
    }
}

/// The headline acceptance run: a full NSGA-II exploration under a fault
/// plan where well over 20 % of tool attempts suffer a transient fault
/// must produce a Pareto front *identical* to the fault-free run, with a
/// surrogate dataset free of penalty sentinels.
#[test]
fn faulty_dse_matches_fault_free_front_and_dataset_stays_clean() {
    let surrogate_cfg = dovado::SurrogateConfig {
        policy: ThresholdPolicy::paper_default(),
        pretrain_samples: 20,
        ..Default::default()
    };
    let ga = Nsga2Config {
        pop_size: 10,
        seed: 7,
        ..Default::default()
    };
    let termination = Termination::Generations(5);

    let explore = |faults: FaultPlan| {
        let ev = evaluator(EvalConfig {
            faults,
            retry: RetryPolicy {
                max_attempts: 8,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut problem = DseProblem::new(ev, space(), metrics(), Some(&surrogate_cfg)).unwrap();
        let nsga2 = Nsga2Explorer::start(&mut problem, &ga);
        let result = run(Box::new(nsga2), &mut problem, &termination);
        let mut front: Vec<(Vec<i64>, Vec<f64>)> = result
            .sorted_pareto()
            .into_iter()
            .map(|ind| (ind.genome.clone(), ind.raw.clone()))
            .collect();
        front.sort_by(|a, b| a.0.cmp(&b.0));
        (front, problem)
    };

    let (clean_front, clean_problem) = explore(FaultPlan::none());
    let faulty_plan = FaultPlan {
        seed: 0xFA17,
        synth_crash: 0.10,
        synth_timeout: 0.08,
        route_crash: 0.08,
        route_timeout: 0.10,
        report_truncated: 0.02,
        report_garbled: 0.02,
        checkpoint_corrupt: 0.10,
        ..FaultPlan::default()
    };
    let (faulty_front, faulty_problem) = explore(faulty_plan);

    // The faults really fired at scale: at least 20 % of tool attempts
    // failed transiently and were retried.
    let s = faulty_problem.evaluator().trace_summary();
    assert!(s.transient_failures > 0, "no faults injected: {s:?}");
    assert!(
        s.transient_failures as f64 >= 0.2 * (s.attempts - s.retries) as f64,
        "fault rate below 20%: {s:?}"
    );
    assert_eq!(
        faulty_problem.stats.transient_failures, 0,
        "retry budget was exhausted; pick a friendlier seed"
    );

    // Identical Pareto front, point for point, metric for metric.
    assert_eq!(clean_front, faulty_front);

    // No penalty sentinel ever entered either surrogate dataset.
    for problem in [&clean_problem, &faulty_problem] {
        let dataset = problem.surrogate().unwrap().dataset();
        assert!(!dataset.is_empty());
        let max = dataset
            .outputs()
            .iter()
            .flat_map(|o| o.iter().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max.is_finite() && max < 1e9,
            "penalty entry recorded: max {max}"
        );
    }

    // The clean run saw no failures at all.
    assert_eq!(clean_problem.stats.failures, 0);
    assert_eq!(
        clean_problem.evaluator().trace_summary().transient_failures,
        0
    );
}

/// Exhausted retries reach the fitness layer as transient failures and are
/// counted as such — penalized for the optimizer, but never recorded.
#[test]
fn exhausted_retries_are_penalized_but_not_recorded() {
    let ev = evaluator(EvalConfig {
        // Synthesis always crashes: every evaluation exhausts its budget.
        faults: FaultPlan {
            synth_crash: 1.0,
            ..FaultPlan::default()
        },
        retry: RetryPolicy {
            max_attempts: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let surrogate_cfg = dovado::SurrogateConfig {
        policy: ThresholdPolicy::paper_default(),
        pretrain_samples: 0,
        ..Default::default()
    };
    let mut problem = DseProblem::new(ev, space(), metrics(), Some(&surrogate_cfg)).unwrap();

    use dovado_moo::Problem;
    let values = problem.evaluate(&[10]);
    // The optimizer sees the penalty vector…
    assert!(values.iter().any(|&v| v >= 1e9), "{values:?}");
    // …but the failure is classified transient and the dataset stays empty.
    assert_eq!(problem.stats.transient_failures, 1);
    assert_eq!(problem.stats.permanent_failures, 0);
    assert_eq!(problem.stats.failures, 1);
    assert!(problem.surrogate().unwrap().dataset().is_empty());
}
