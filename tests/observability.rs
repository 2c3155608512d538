//! The observability spine, from the outside: the versioned JSONL wire
//! format is byte-pinned against a golden fixture, every derived counter
//! equals the fold of the event stream it summarizes (for synthetic
//! streams and for real evaluator runs alike), and canonical event
//! ordering makes serial and parallel explorations produce
//! byte-identical `--trace-out` files.

use dovado::obs::jsonl_string;
use dovado::{
    fold_totals, AttemptOutcome, CandidateScore, DesignPoint, Domain, Dovado, DseConfig,
    EvalConfig, Evaluator, EventBus, EventKey, FlowEvent, FlowStep, HdlSource, Metric, MetricSet,
    ObsEvent, ParameterSpace, SurrogateConfig, TraceSummary,
};
use dovado_eda::FaultPlan;
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Termination};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

fn evaluator(faults: FaultPlan) -> Evaluator {
    Evaluator::new(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        EvalConfig {
            faults,
            ..EvalConfig::default()
        },
    )
    .unwrap()
}

fn dovado(faults: FaultPlan) -> Dovado {
    let space = ParameterSpace::new()
        .with(
            "DEPTH",
            Domain::Range {
                lo: 2,
                hi: 512,
                step: 2,
            },
        )
        .with("DATA_WIDTH", Domain::Explicit(vec![8, 16, 32]));
    Dovado::new(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        space,
        EvalConfig {
            faults,
            ..EvalConfig::default()
        },
    )
    .unwrap()
}

fn metrics() -> MetricSet {
    MetricSet::new(vec![
        Metric::Utilization(ResourceKind::Lut),
        Metric::Utilization(ResourceKind::Register),
        Metric::Fmax,
    ])
}

// ---------------------------------------------------------------------------
// Golden wire format
// ---------------------------------------------------------------------------

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// One of every event type, at hand-picked keys, with values that
/// exercise string escaping and float formatting.
fn golden_snapshot() -> dovado::SpineSnapshot {
    let bus = EventBus::new();
    bus.emit(
        EventKey { seq: 0, sub: 1 },
        ObsEvent::Attempt(FlowEvent {
            point: "DEPTH=64 DATA_WIDTH=32".into(),
            attempt: 1,
            step: FlowStep::Synthesis,
            outcome: AttemptOutcome::TransientFailure("synth_design crashed \"hard\"".into()),
            tool_time_s: 12.5,
            backoff_s: 0.0,
            incremental: false,
            cached: false,
        }),
    );
    bus.emit(
        EventKey { seq: 0, sub: 2 },
        ObsEvent::Attempt(FlowEvent {
            point: "DEPTH=64 DATA_WIDTH=32".into(),
            attempt: 2,
            step: FlowStep::Implementation,
            outcome: AttemptOutcome::Success,
            tool_time_s: 340.0,
            backoff_s: 30.0,
            incremental: true,
            cached: false,
        }),
    );
    bus.emit(
        EventKey { seq: 1, sub: 0 },
        ObsEvent::StoreHit {
            point: "DEPTH=128 DATA_WIDTH=8".into(),
        },
    );
    bus.emit(
        EventKey { seq: 2, sub: 0 },
        ObsEvent::TimeCharged { seconds: 45.5 },
    );
    bus.emit(
        EventKey { seq: 3, sub: 0 },
        ObsEvent::Resume {
            summary: TraceSummary {
                attempts: 7,
                retries: 2,
                transient_failures: 2,
                permanent_failures: 0,
                cache_hits: 1,
                store_hits: 3,
                backoff_s: 90.0,
            },
            runs: 5,
            tool_time_s: 1234.5,
        },
    );
    bus.emit(
        EventKey { seq: 4, sub: 0 },
        ObsEvent::Generation {
            generation: 1,
            evaluations: 10,
        },
    );
    bus.emit(
        EventKey { seq: 5, sub: 0 },
        ObsEvent::SurrogateDecision {
            point: "DEPTH=256 DATA_WIDTH=16".into(),
            choice: "estimated",
        },
    );
    bus.emit(
        EventKey { seq: 6, sub: 0 },
        ObsEvent::Reselected { bandwidth: 0.125 },
    );
    bus.emit(
        EventKey { seq: 7, sub: 0 },
        ObsEvent::GammaUpdated { gamma: 0.0375 },
    );
    bus.emit(
        EventKey { seq: 8, sub: 0 },
        ObsEvent::Fault {
            kind: "host_crash".into(),
        },
    );
    bus.emit(
        EventKey { seq: 9, sub: 0 },
        ObsEvent::SelectorDecision {
            explorer: "bayes".into(),
            space_volume: 768,
            objectives: 3,
            lowfi_runs: 24,
            lowfi_time_s: 96.25,
            candidates: vec![
                CandidateScore {
                    name: "nsga2".into(),
                    evaluations: 12,
                    hypervolume: 0.5,
                    slope: -0.125,
                },
                CandidateScore {
                    name: "bayes".into(),
                    evaluations: 12,
                    hypervolume: 0.75,
                    slope: 0.0,
                },
            ],
        },
    );
    bus.snapshot()
}

/// Schema v2 is byte-pinned: any change to field names, event types or
/// value encodings breaks this test and forces an `EVENT_SCHEMA_VERSION`
/// bump plus a fixture regeneration (run once with `DOVADO_BLESS=1`).
#[test]
fn jsonl_wire_format_is_byte_pinned_to_schema_v2() {
    let text = jsonl_string(&golden_snapshot());
    let path = fixture_path("trace_v2.jsonl");
    if std::env::var("DOVADO_BLESS").is_ok() {
        std::fs::write(&path, &text).unwrap();
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(
        text, golden,
        "JSONL trace drifted from schema v2; bump EVENT_SCHEMA_VERSION \
         and regenerate the fixture together"
    );
}

// ---------------------------------------------------------------------------
// Summary ≡ fold of the event stream
// ---------------------------------------------------------------------------

fn random_event(rng: &mut StdRng) -> ObsEvent {
    match rng.gen_range(0u32..10) {
        0..=3 => {
            let attempt = rng.gen_range(1u32..4);
            let outcome = match rng.gen_range(0u32..4) {
                0 => AttemptOutcome::TransientFailure("tool crashed".into()),
                1 => AttemptOutcome::PermanentFailure("bad source".into()),
                _ => AttemptOutcome::Success,
            };
            ObsEvent::Attempt(FlowEvent {
                point: format!("DEPTH={}", rng.gen_range(2i64..512)),
                attempt,
                step: if rng.gen_bool(0.5) {
                    FlowStep::Synthesis
                } else {
                    FlowStep::Implementation
                },
                outcome,
                tool_time_s: rng.gen_range(0.0..900.0),
                backoff_s: if attempt > 1 {
                    rng.gen_range(0.0..120.0)
                } else {
                    0.0
                },
                incremental: rng.gen_bool(0.5),
                cached: rng.gen_bool(0.2),
            })
        }
        4 => ObsEvent::StoreHit {
            point: format!("DEPTH={}", rng.gen_range(2i64..512)),
        },
        5 => ObsEvent::TimeCharged {
            seconds: rng.gen_range(0.0..100.0),
        },
        6 => ObsEvent::Resume {
            summary: TraceSummary {
                attempts: rng.gen_range(0u64..20),
                retries: rng.gen_range(0u64..5),
                transient_failures: rng.gen_range(0u64..5),
                permanent_failures: rng.gen_range(0u64..2),
                cache_hits: rng.gen_range(0u64..5),
                store_hits: rng.gen_range(0u64..10),
                backoff_s: rng.gen_range(0.0..300.0),
            },
            runs: rng.gen_range(0u64..15),
            tool_time_s: rng.gen_range(0.0..5000.0),
        },
        7 => ObsEvent::Generation {
            generation: rng.gen_range(1u64..50),
            evaluations: rng.gen_range(1u64..500),
        },
        8 => ObsEvent::SelectorDecision {
            explorer: "sa".into(),
            space_volume: rng.gen_range(1u64..1000),
            objectives: rng.gen_range(1u32..4),
            lowfi_runs: rng.gen_range(0u64..50),
            lowfi_time_s: rng.gen_range(0.0..500.0),
            candidates: Vec::new(),
        },
        _ => ObsEvent::Reselected {
            bandwidth: rng.gen_range(0.01..1.0),
        },
    }
}

proptest! {
    /// The bus's incrementally-maintained totals, the snapshot summary,
    /// and the trailing JSONL summary line all equal the from-scratch
    /// fold of the event stream, for arbitrary streams.
    #[test]
    fn bus_totals_equal_the_fold_for_any_stream(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bus = EventBus::new();
        let mut events = Vec::new();
        for _ in 0..rng.gen_range(0usize..60) {
            let e = random_event(&mut rng);
            events.push(e.clone());
            bus.emit_next(e);
        }
        let folded = fold_totals(&events);
        let snap = bus.snapshot();
        prop_assert_eq!(bus.totals(), folded);
        prop_assert_eq!(snap.summary, folded.summary);
        prop_assert_eq!(snap.runs, folded.runs);
        prop_assert_eq!(snap.tool_time_s.to_bits(), folded.tool_time_s.to_bits());

        let text = jsonl_string(&snap);
        let last = text.lines().last().unwrap();
        prop_assert!(last.starts_with("{\"type\":\"summary\""), "{}", last);
        prop_assert!(
            last.contains(&format!("\"attempts\":{}", folded.summary.attempts)),
            "{}", last
        );
        prop_assert!(last.contains(&format!("\"runs\":{}", folded.runs)), "{}", last);
        prop_assert!(
            last.contains(&format!("\"store_hits\":{}", folded.summary.store_hits)),
            "{}", last
        );
    }

    /// The real emission path: after a faulty evaluator run, every
    /// `TraceSummary` field (and the run/time ledger) equals the fold of
    /// the events actually on the spine — there is no second bookkeeping
    /// path that could drift.
    #[test]
    fn evaluator_counters_are_the_fold_of_their_events(seed in 0u64..40) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
        let eval = evaluator(FaultPlan {
            seed,
            synth_crash: 0.15,
            route_timeout: 0.10,
            report_truncated: 0.05,
            crash_cost_s: 25.0,
            timeout_cost_s: 100.0,
            ..FaultPlan::none()
        });
        let points: Vec<DesignPoint> = (0..10)
            .map(|_| {
                DesignPoint::from_pairs(&[
                    ("DEPTH", rng.gen_range(1i64..64) * 2),
                    ("DATA_WIDTH", 32),
                ])
            })
            .collect();
        let _ = eval.evaluate_many(&points, false);
        // Re-evaluating a prefix exercises the cache-hit path too.
        let _ = eval.evaluate_many(&points[..4], false);

        let snap = eval.snapshot();
        prop_assert_eq!(snap.dropped, 0, "short runs must retain every event");
        let folded = fold_totals(snap.events.iter().map(|(_, e)| e));
        prop_assert_eq!(folded.summary, eval.trace_summary());
        prop_assert_eq!(folded.runs, eval.total_runs());
        prop_assert_eq!(
            folded.tool_time_s.to_bits(),
            eval.total_tool_time().to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// Canonical ordering: serial ≡ parallel, byte for byte
// ---------------------------------------------------------------------------

/// `evaluate_many` under a 4-thread pool writes the same trace bytes as
/// the serial path: seq blocks are allocated in input order before the
/// fan-out, so the canonical stream is schedule-independent.
#[test]
fn batch_trace_bytes_are_identical_serial_and_parallel() {
    let run = |parallel: bool| {
        let eval = evaluator(FaultPlan::none());
        let points: Vec<DesignPoint> = (1..=24)
            .map(|i| DesignPoint::from_pairs(&[("DEPTH", i * 2), ("DATA_WIDTH", 16)]))
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| {
            let _ = eval.evaluate_many(&points, parallel);
        });
        jsonl_string(&eval.snapshot())
    };
    let serial = run(false);
    let parallel = run(true);
    assert!(serial.lines().count() > 24, "trace unexpectedly small");
    assert_eq!(serial, parallel, "trace bytes depend on scheduling");
}

/// Whole explorations too: NSGA-II + surrogate, `--jobs 4` vs serial,
/// same seed → byte-identical `--trace-out` content (generations,
/// surrogate decisions, retrains and Γ moves included).
#[test]
fn explore_trace_bytes_are_identical_serial_and_parallel() {
    let run = |parallel: bool| {
        let tool = dovado(FaultPlan::none());
        let report = tool
            .explore(&DseConfig {
                algorithm: Nsga2Config {
                    pop_size: 10,
                    seed: 7,
                    ..Default::default()
                },
                termination: Termination::Generations(4),
                metrics: metrics(),
                surrogate: Some(SurrogateConfig {
                    pretrain_samples: 15,
                    ..Default::default()
                }),
                parallel,
                explorer: Default::default(),
                workers: None,
            })
            .unwrap();
        jsonl_string(&report.spine)
    };
    let serial = run(false);
    let parallel = {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| run(true))
    };
    assert!(
        serial.contains("\"type\":\"generation\""),
        "explore must emit generation boundaries"
    );
    assert!(
        serial.contains("\"type\":\"surrogate_decision\""),
        "surrogate decisions must be on the spine"
    );
    assert_eq!(serial, parallel, "explore trace bytes depend on scheduling");
}
