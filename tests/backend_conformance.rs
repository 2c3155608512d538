//! Backend conformance: every [`dovado::ToolBackend`] must be
//! indistinguishable to the layers above the boundary. The same engine
//! pipeline — store lookup, retry/backoff, degradation, trace
//! accounting — runs against both shipped backends (the simulated
//! Vivado and the scripted mock) and must produce the same report
//! shapes, the same error taxonomy, the same store semantics and the
//! same fault-injection behavior on each.
//!
//! The last test enforces the boundary at the source level: outside
//! `crates/core/src/backend.rs`, core never names a concrete simulator
//! type.

use dovado::{
    DesignPoint, DovadoError, ErrorClass, EvalConfig, Evaluator, FlowStep, HdlSource, MockBackend,
    RetryPolicy, SimBackend, ToolBackend,
};
use dovado_eda::{EdaError, EvalStore, FaultPlan};
use dovado_hdl::Language;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

/// The two shipped backends, built from the same evaluation config.
fn backends(config: &EvalConfig) -> Vec<(&'static str, Arc<dyn ToolBackend>)> {
    vec![
        (
            "vivado-sim",
            Arc::new(SimBackend::with_faults(config.seed, config.faults.clone())),
        ),
        (
            "mock",
            Arc::new(MockBackend::with_faults(config.seed, config.faults.clone())),
        ),
    ]
}

fn evaluator_on(backend: Arc<dyn ToolBackend>, config: EvalConfig) -> Evaluator {
    Evaluator::with_backend(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        config,
        backend,
    )
    .unwrap()
}

fn point(depth: i64) -> DesignPoint {
    DesignPoint::from_pairs(&[("DEPTH", depth), ("DATA_WIDTH", 32)])
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dovado-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn report_shapes_match_across_backends() {
    let config = EvalConfig::default();
    for (name, backend) in backends(&config) {
        assert_eq!(backend.name(), format!("{name}:{}", config.seed));
        let evaluator = evaluator_on(backend, config.clone());
        let eval = evaluator.evaluate(&point(64)).unwrap();
        // Same scraped shape from both report writers: real utilization
        // rows, a timing result against the configured clock, power.
        assert!(
            eval.utilization.get(dovado_fpga::ResourceKind::Lut) > 0,
            "{name}: no LUTs scraped"
        );
        assert!(
            eval.utilization.get(dovado_fpga::ResourceKind::Register) > 0,
            "{name}: no registers scraped"
        );
        assert_eq!(eval.period_ns, config.target_period_ns, "{name}");
        assert!(eval.fmax_mhz > 0.0, "{name}: fmax {}", eval.fmax_mhz);
        assert!(eval.power_mw > 0.0, "{name}: power {}", eval.power_mw);
        assert!(eval.tool_time_s > 0.0, "{name}");
        assert_eq!(evaluator.total_runs(), 1, "{name}");
    }
}

#[test]
fn unknown_part_is_a_permanent_error_on_both() {
    let config = EvalConfig {
        part: "no-such-part".into(),
        ..EvalConfig::default()
    };
    for (name, backend) in backends(&config) {
        let evaluator = evaluator_on(backend, config.clone());
        let err = evaluator.evaluate(&point(8)).unwrap_err();
        assert!(
            matches!(&err, DovadoError::Eda(EdaError::UnknownPart(_))),
            "{name}: {err:?}"
        );
        assert_eq!(err.class(), ErrorClass::Permanent, "{name}");
        // Permanent failures never consume the retry budget.
        assert_eq!(evaluator.trace_summary().retries, 0, "{name}");
    }
}

#[test]
fn certain_crash_exhausts_retries_identically() {
    let config = EvalConfig {
        faults: FaultPlan {
            synth_crash: 1.0,
            ..FaultPlan::none()
        },
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        ..EvalConfig::default()
    };
    for (name, backend) in backends(&config) {
        let evaluator = evaluator_on(backend, config.clone());
        let err = evaluator.evaluate(&point(8)).unwrap_err();
        match &err {
            DovadoError::RetriesExhausted { attempts, last } => {
                assert_eq!(*attempts, 3, "{name}");
                assert!(
                    matches!(last.as_ref(), DovadoError::Eda(EdaError::ToolCrash(_))),
                    "{name}: {last:?}"
                );
            }
            other => panic!("{name}: expected RetriesExhausted, got {other:?}"),
        }
        assert_eq!(err.class(), ErrorClass::Transient, "{name}");
        assert_eq!(evaluator.trace_summary().attempts, 3, "{name}");
        assert_eq!(evaluator.trace_summary().retries, 2, "{name}");
    }
}

#[test]
fn route_timeouts_degrade_to_synthesis_on_both() {
    let config = EvalConfig {
        faults: FaultPlan {
            route_timeout: 1.0,
            ..FaultPlan::none()
        },
        retry: RetryPolicy {
            max_attempts: 4,
            degrade_after_timeouts: Some(2),
            ..RetryPolicy::default()
        },
        ..EvalConfig::default()
    };
    for (name, backend) in backends(&config) {
        let evaluator = evaluator_on(backend, config.clone());
        // Routing always times out; after two timeouts the engine degrades
        // the flow to synthesis-only, which succeeds — on any backend.
        let eval = evaluator.evaluate(&point(8)).unwrap();
        assert!(eval.fmax_mhz > 0.0, "{name}");
        assert_eq!(evaluator.trace_summary().retries, 2, "{name}");
        assert_eq!(evaluator.trace_summary().transient_failures, 2, "{name}");
    }
}

#[test]
fn report_faults_surface_as_transient_scrape_errors() {
    let config = EvalConfig {
        step: FlowStep::Synthesis,
        faults: FaultPlan {
            report_truncated: 1.0,
            ..FaultPlan::none()
        },
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..EvalConfig::default()
    };
    for (name, backend) in backends(&config) {
        assert!(
            backend.injector().is_some(),
            "{name}: active plan must expose its injector"
        );
        let evaluator = evaluator_on(backend, config.clone());
        let err = evaluator.evaluate(&point(8)).unwrap_err();
        assert_eq!(err.class(), ErrorClass::Transient, "{name}: {err:?}");
    }
    // An empty plan exposes no injector on either backend.
    for (name, backend) in backends(&EvalConfig::default()) {
        assert!(backend.injector().is_none(), "{name}");
    }
}

#[test]
fn store_round_trips_on_each_backend_and_isolates_across_them() {
    let config = EvalConfig::default();
    let dir = fresh_dir("store");
    let mut evals = Vec::new();
    for (name, backend) in backends(&config) {
        // Cold run populates the shared store under this backend's key.
        let mut cold = evaluator_on(backend.clone(), config.clone());
        cold.attach_store(EvalStore::open(&dir.join("store")).unwrap());
        let cold_eval = cold.evaluate(&point(64)).unwrap();
        assert_eq!(cold.trace_summary().store_hits, 0, "{name}");
        assert_eq!(cold.trace_summary().attempts, 1, "{name}");

        // A fresh evaluator on the same backend is answered from disk,
        // bitwise, with zero tool attempts.
        let mut warm = evaluator_on(backend, config.clone());
        warm.attach_store(EvalStore::open(&dir.join("store")).unwrap());
        let warm_eval = warm.evaluate(&point(64)).unwrap();
        assert_eq!(warm.trace_summary().attempts, 0, "{name}: tool touched");
        assert_eq!(warm.trace_summary().store_hits, 1, "{name}");
        assert_eq!(warm_eval, cold_eval, "{name}");
        evals.push(cold_eval);
    }
    // Isolation: both backends shared one store directory, yet each ran
    // its own cold evaluation — the backend name is part of the content
    // key, so one backend's entries can never answer for another's.
    let sim_key = evaluator_on(backends(&config)[0].1.clone(), config.clone()).content_key();
    let mock_key = evaluator_on(backends(&config)[1].1.clone(), config.clone()).content_key();
    assert_ne!(sim_key.hex(), mock_key.hex());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn differently_seeded_backends_sharing_a_store_keep_their_own_answers() {
    // Same sources, same config, one store: only the backend's seed
    // differs. The seed changes the answers, so it must change the key —
    // the second evaluator runs the tool instead of reading the first's.
    type Make = fn(u64) -> Arc<dyn ToolBackend>;
    let kinds: [(&str, Make); 2] = [
        ("vivado-sim", |seed| Arc::new(SimBackend::new(seed))),
        ("mock", |seed| Arc::new(MockBackend::new(seed))),
    ];
    let config = EvalConfig::default();
    for (name, make) in kinds {
        let dir = fresh_dir(&format!("seeds-{name}"));
        let truth = evaluator_on(make(8), config.clone())
            .evaluate(&point(64))
            .unwrap();
        let mut first = evaluator_on(make(7), config.clone());
        first.attach_store(EvalStore::open(&dir).unwrap());
        let seven = first.evaluate(&point(64)).unwrap();
        assert_ne!(seven.fmax_mhz, truth.fmax_mhz, "{name}: seeds must differ");

        let mut second = evaluator_on(make(8), config.clone());
        second.attach_store(EvalStore::open(&dir).unwrap());
        let eight = second.evaluate(&point(64)).unwrap();
        assert_eq!(second.trace_summary().store_hits, 0, "{name}: seed 8 hit");
        assert_eq!(eight.fmax_mhz.to_bits(), truth.fmax_mhz.to_bits(), "{name}");
        assert_eq!(eight, truth, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn mock_parallel_batch_is_bitwise_serial() {
    let config = EvalConfig::default();
    let points: Vec<DesignPoint> = (1..=6).map(|i| point(i * 32)).collect();
    let run = |parallel: bool| {
        let evaluator = evaluator_on(
            Arc::new(MockBackend::new(config.seed)),
            EvalConfig::default(),
        );
        evaluator
            .evaluate_many(&points, parallel)
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>()
    };
    let serial = run(false);
    let parallel = run(true);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a, b);
        assert_eq!(a.fmax_mhz.to_bits(), b.fmax_mhz.to_bits());
        assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits());
    }
}

/// One spine trace per schedule, on in-process and fleet-backed
/// evaluators alike: evaluate `points` under `schedule`, return the
/// JSONL trace and the unwrapped evaluations.
fn traced_run(
    backend: Arc<dyn ToolBackend>,
    config: &EvalConfig,
    points: &[dovado::DesignPoint],
    schedule: dovado::Schedule,
) -> (String, Vec<dovado::Evaluation>) {
    let evaluator = evaluator_on(backend, config.clone());
    let evals = evaluator
        .evaluate_many(points, schedule)
        .into_iter()
        .map(|r| r.unwrap())
        .collect::<Vec<_>>();
    (
        dovado::obs::jsonl_string(&evaluator.spine().snapshot()),
        evals,
    )
}

/// Thread-backed worker fleet speaking the real wire protocol, serving
/// the same simulated backend the in-process evaluator uses.
fn fleet_for(kind: &str, seed: u64, workers: usize) -> dovado::RemoteBackend {
    dovado::worker::thread_fleet(&format!("{kind}:{seed}"), workers)
        .expect("thread fleet must spawn")
}

#[test]
fn serial_rayon_and_distributed_traces_are_byte_identical() {
    let config = EvalConfig::default();
    let points: Vec<DesignPoint> = (1..=8).map(|i| point(i * 16)).collect();
    for idx in 0..backends(&config).len() {
        // A fresh in-process backend per run: the simulated tool keeps a
        // checkpoint store of its own, and reusing one instance would let
        // the second run see the first run's checkpoints.
        let name = backends(&config)[idx].0;
        let (serial_trace, serial_evals) = traced_run(
            backends(&config)[idx].1.clone(),
            &config,
            &points,
            dovado::Schedule::Serial,
        );
        let (rayon_trace, rayon_evals) = traced_run(
            backends(&config)[idx].1.clone(),
            &config,
            &points,
            dovado::Schedule::Parallel,
        );
        let fleet = Arc::new(fleet_for(name, config.seed, 4));
        let (dist_trace, dist_evals) = traced_run(
            fleet,
            &config,
            &points,
            dovado::Schedule::Distributed { workers: 4 },
        );
        assert_eq!(serial_trace, rayon_trace, "{name}: rayon trace diverged");
        assert_eq!(
            serial_trace, dist_trace,
            "{name}: distributed trace diverged"
        );
        for ((a, b), c) in serial_evals.iter().zip(&rayon_evals).zip(&dist_evals) {
            assert_eq!(a, b, "{name}");
            assert_eq!(a, c, "{name}");
            assert_eq!(a.fmax_mhz.to_bits(), c.fmax_mhz.to_bits(), "{name}");
            assert_eq!(a.power_mw.to_bits(), c.power_mw.to_bits(), "{name}");
        }
    }
}

#[test]
fn distributed_traces_survive_a_seeded_worker_kill_mid_batch() {
    let config = EvalConfig::default();
    let points: Vec<DesignPoint> = (1..=8).map(|i| point(i * 16)).collect();
    for (name, backend) in backends(&config) {
        let (serial_trace, serial_evals) =
            traced_run(backend, &config, &points, dovado::Schedule::Serial);

        let fleet = Arc::new(fleet_for(name, config.seed, 4));
        // Sever the serving worker's link right before the third
        // dispatched eval: the session replays its op log onto a fresh
        // worker and the batch must come out bitwise unchanged.
        fleet.kill_worker_before_eval(3);
        let evaluator = evaluator_on(fleet.clone(), config.clone());
        dovado::worker::attach_lifecycle(&fleet, evaluator.spine());
        let evals = evaluator
            .evaluate_many(&points, dovado::Schedule::Distributed { workers: 4 })
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>();

        let trace = dovado::obs::jsonl_string(&evaluator.spine().snapshot());
        assert_eq!(
            serial_trace, trace,
            "{name}: worker death leaked into the canonical trace"
        );
        for (a, c) in serial_evals.iter().zip(&evals) {
            assert_eq!(a, c, "{name}");
        }
        // The death is visible where it belongs: on the lifecycle side
        // channel, never in the canonical stream.
        let kinds: Vec<&str> = evaluator
            .spine()
            .worker_events()
            .iter()
            .filter_map(|e| match e {
                dovado::ObsEvent::Worker { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&"spawned"), "{name}: {kinds:?}");
        assert!(kinds.contains(&"died"), "{name}: {kinds:?}");
        assert!(kinds.contains(&"requeued"), "{name}: {kinds:?}");
    }
}

#[test]
fn distributed_and_serial_runs_share_one_store() {
    let config = EvalConfig::default();
    let points: Vec<DesignPoint> = (1..=4).map(|i| point(i * 16)).collect();
    for (name, backend) in backends(&config) {
        let dir = fresh_dir(&format!("dist-store-{name}"));

        // Cold distributed run populates the store...
        let fleet: Arc<dyn ToolBackend> = Arc::new(fleet_for(name, config.seed, 2));
        let mut cold = evaluator_on(fleet, config.clone());
        cold.attach_store(EvalStore::open(&dir).unwrap());
        let cold_evals = cold
            .evaluate_many(&points, dovado::Schedule::Distributed { workers: 2 })
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>();
        assert_eq!(cold.trace_summary().store_hits, 0, "{name}");

        // ...and a plain serial evaluator on the in-process backend is
        // answered from disk with zero tool attempts: the fleet writes
        // under the inner backend's name, so the content keys line up.
        let mut warm = evaluator_on(backend, config.clone());
        warm.attach_store(EvalStore::open(&dir).unwrap());
        let warm_evals = warm
            .evaluate_many(&points, dovado::Schedule::Serial)
            .into_iter()
            .map(|r| r.unwrap())
            .collect::<Vec<_>>();
        assert_eq!(warm.trace_summary().attempts, 0, "{name}: tool touched");
        assert_eq!(
            warm.trace_summary().store_hits,
            points.len() as u64,
            "{name}"
        );
        assert_eq!(cold_evals, warm_evals, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Source files under `crates/core/src`, recursively.
fn core_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            core_sources(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

#[test]
fn core_names_no_concrete_simulator_outside_the_boundary() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut files = Vec::new();
    core_sources(&dir, &mut files);
    assert!(files.len() > 10, "core sources not found at {dir:?}");
    for path in files {
        if path.file_name().and_then(|n| n.to_str()) == Some("backend.rs") {
            continue; // the one sanctioned import site
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for token in ["VivadoSim", "vivado::", "project::", "dovado_eda::backend"] {
            assert!(
                !text.contains(token),
                "{} names `{token}` outside the backend boundary module",
                path.display()
            );
        }
    }
}
