//! A real exploration, byte-pinned. Every other real-run check compares
//! two runs of the same code (serial vs parallel, resumed vs
//! uninterrupted, catalog vs hand wiring), so a change that alters both
//! sides alike passes them all. This test compares against committed
//! bytes instead: a small NSGA-II run over Corundum with the surrogate
//! on, transient tool faults (so retries and backoff appear), and a
//! persistent store run cold and then warm. The canonical trace of each
//! run and both Pareto fronts must match the fixtures exactly.
//!
//! Journal bytes are deliberately not pinned: they embed the evaluator's
//! content key, which changes whenever backend identity does.
//!
//! Regenerate the fixtures (only for a deliberate behaviour change) by
//! running once with `DOVADO_BLESS=1`.

use dovado::casestudies::corundum;
use dovado::obs::jsonl_string;
use dovado::{
    Dovado, DseConfig, DseReport, EvalConfig, PersistConfig, RetryPolicy, SurrogateConfig,
};
use dovado_eda::FaultPlan;
use dovado_moo::{Nsga2Config, Termination};
use std::path::{Path, PathBuf};

fn tool() -> Dovado {
    let cs = corundum::case_study();
    cs.dovado_with(EvalConfig {
        part: cs.part.to_string(),
        faults: FaultPlan {
            seed: 5,
            synth_crash: 0.15,
            route_timeout: 0.1,
            report_garbled: 0.02,
            ..FaultPlan::none()
        },
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        ..EvalConfig::default()
    })
    .unwrap()
}

fn cfg() -> DseConfig {
    DseConfig {
        algorithm: Nsga2Config {
            pop_size: 10,
            seed: 11,
            ..Default::default()
        },
        termination: Termination::Generations(5),
        metrics: corundum::case_study().metrics,
        surrogate: Some(SurrogateConfig {
            pretrain_samples: 15,
            ..SurrogateConfig::default()
        }),
        ..DseConfig::default()
    }
}

/// One line per front entry: the point, then its raw objective values
/// in shortest round-trip form (so equal text means equal bits).
fn front_text(report: &DseReport) -> String {
    report
        .pareto
        .iter()
        .map(|e| format!("{} {:?}\n", e.point.as_assignments(), e.values))
        .collect()
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_matches_fixture(name: &str, text: &str) {
    let path = fixture_path(name);
    if std::env::var("DOVADO_BLESS").is_ok() {
        std::fs::write(&path, text).unwrap();
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        text == golden,
        "{name}: a real run drifted from its fixture"
    );
}

#[test]
fn cold_then_warm_exploration_matches_the_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("dovado-golden-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persist = PersistConfig::new(&dir);

    let cold = tool().explore_persistent(&cfg(), &persist).unwrap();
    let warm = tool().explore_persistent(&cfg(), &persist).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // The run exercises what the fixtures are meant to pin.
    assert!(cold.trace.retries > 0, "no transient fault was retried");
    assert!(cold.estimates > 0, "the surrogate never answered");
    assert!(
        warm.trace.store_hits > cold.trace.store_hits,
        "the warm run never hit the store"
    );

    assert_matches_fixture("golden_explore_cold.jsonl", &jsonl_string(&cold.spine));
    assert_matches_fixture("golden_explore_warm.jsonl", &jsonl_string(&warm.spine));
    let fronts = format!("# cold\n{}# warm\n{}", front_text(&cold), front_text(&warm));
    assert_matches_fixture("golden_explore_front.txt", &fronts);
}
