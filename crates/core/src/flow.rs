//! The design-automation flow's inputs and configuration (paper §III-A:
//! parse → box → generate scripts → run the tool → scrape reports): the
//! HDL sources, the flow depth, the retry policy and the evaluation
//! config. [`crate::engine::Evaluator`] runs the flow.

use crate::error::DovadoResult;
use dovado_eda::FaultPlan;
use dovado_hdl::Language;

/// One HDL source handed to Dovado.
#[derive(Debug, Clone, PartialEq)]
pub struct HdlSource {
    /// File name (used in the tool's filesystem).
    pub name: String,
    /// Language.
    pub language: Language,
    /// Full source text.
    pub content: String,
    /// VHDL library (None = `work`).
    pub library: Option<String>,
}

impl HdlSource {
    /// Creates a `work`-library source.
    pub fn new(name: impl Into<String>, language: Language, content: impl Into<String>) -> Self {
        HdlSource {
            name: name.into(),
            language,
            content: content.into(),
            library: None,
        }
    }
}

/// Loads an RTL project tree for evaluation: catalogs every HDL file
/// under `dir`, returns the sources in dependency-respecting compile
/// order, and resolves the top module — `top` if given, the catalog's
/// graph inference otherwise.
///
/// This is the `--project <dir>` entry point: any user source tree flows
/// from here through boxing, the explorer portfolio, `--jobs/--workers`
/// and the daemon exactly like the embedded case studies.
pub fn load_project_tree(
    dir: &std::path::Path,
    top: Option<&str>,
) -> DovadoResult<(Vec<HdlSource>, String)> {
    use crate::error::DovadoError;
    use dovado_hdl::catalog::{CatalogError, SourceCatalog};
    let to_err = |e: CatalogError| match e {
        CatalogError::Parse(m) => DovadoError::Parse(m),
        other => DovadoError::Config(other.to_string()),
    };
    let catalog = SourceCatalog::walk(dir).map_err(to_err)?;
    if catalog.files().is_empty() {
        return Err(DovadoError::Config(format!(
            "no HDL sources (.vhd/.vhdl/.v/.sv) found under {}",
            dir.display()
        )));
    }
    let top = match top {
        Some(t) => t.to_string(),
        None => catalog.infer_top().map_err(to_err)?,
    };
    let sources = catalog
        .compile_order()
        .map(|f| HdlSource {
            name: f.path.clone(),
            language: f.language,
            content: f.text.clone(),
            library: f.library.clone(),
        })
        .collect();
    Ok((sources, top))
}

/// Which flow step produces the metrics (paper §III-A: "one of the typical
/// design steps, synthesis or implementation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowStep {
    /// Stop after synthesis (faster, estimated timing).
    Synthesis,
    /// Run through place & route (the paper's default for results).
    #[default]
    Implementation,
}

/// Retry-with-capped-backoff policy for transient tool failures.
///
/// Backoff is *simulated* time: waiting for a wedged license server or a
/// rebooting host costs wall-clock that the DSE budget must account for,
/// so every backoff second is charged to the evaluator's tool-time
/// ledger, exactly like tool runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per point (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, in simulated seconds.
    pub backoff_base_s: f64,
    /// Multiplier applied per further attempt.
    pub backoff_factor: f64,
    /// Ceiling on a single backoff, in simulated seconds.
    pub backoff_cap_s: f64,
    /// After this many timeouts on one point, degrade the flow from
    /// [`FlowStep::Implementation`] to [`FlowStep::Synthesis`] for its
    /// remaining attempts (post-synth metrics are optimistic but beat a
    /// penalty vector). `None` disables degradation.
    pub degrade_after_timeouts: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_s: 30.0,
            backoff_factor: 2.0,
            backoff_cap_s: 300.0,
            degrade_after_timeouts: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged after a failed `attempt` (1-based), in simulated
    /// seconds.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        (self.backoff_base_s * self.backoff_factor.powi(attempt.saturating_sub(1) as i32))
            .min(self.backoff_cap_s)
    }
}

/// Evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Target part (catalog name or prefix).
    pub part: String,
    /// Target clock period in ns. The paper uses 1 ns ("we target for all
    /// of them a frequency of 1 GHz to better verify the maximum
    /// theoretical frequency").
    pub target_period_ns: f64,
    /// Flow depth.
    pub step: FlowStep,
    /// Synthesis directive name (Vivado spelling).
    pub synth_directive: String,
    /// Implementation directive name.
    pub impl_directive: String,
    /// Use the incremental flow when a prior checkpoint exists.
    pub incremental: bool,
    /// Tool noise seed.
    pub seed: u64,
    /// Retry policy for transient tool failures.
    pub retry: RetryPolicy,
    /// Fault injection plan for the simulated tool (default: no faults).
    pub faults: FaultPlan,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            part: "xc7k70tfbv676-1".into(),
            target_period_ns: 1.0,
            step: FlowStep::Implementation,
            synth_directive: "Default".into(),
            impl_directive: "Default".into(),
            incremental: true,
            seed: 0xD0_5AD0,
            retry: RetryPolicy::default(),
            faults: FaultPlan::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Evaluator;
    use crate::error::DovadoError;
    use crate::point::DesignPoint;
    use dovado_eda::EdaError;
    use dovado_eda::EvalStore;
    use dovado_fpga::ResourceKind;

    const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32,
    parameter FALL_THROUGH = 1'b0
)(
    input  logic clk_i,
    input  logic rst_ni,
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

    #[test]
    fn full_evaluation_produces_metrics() {
        let ev = evaluator(EvalConfig::default());
        let e = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 64)]))
            .unwrap();
        assert!(e.utilization.get(ResourceKind::Lut) > 100);
        assert!(e.utilization.get(ResourceKind::Register) > 1000);
        assert!(e.wns_ns < 0.0, "1 GHz target must fail");
        assert!((e.fmax_mhz - 1000.0 / (e.period_ns - e.wns_ns)).abs() < 1e-9);
        assert!(e.tool_time_s > 0.0);
        assert_eq!(ev.total_runs(), 1);
    }

    #[test]
    fn depth_monotonicity_visible_through_flow() {
        let ev = evaluator(EvalConfig::default());
        let small = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 8)]))
            .unwrap();
        let big = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 512)]))
            .unwrap();
        assert!(
            big.utilization.get(ResourceKind::Register)
                > small.utilization.get(ResourceKind::Register)
        );
        assert!(big.fmax_mhz < small.fmax_mhz);
    }

    #[test]
    fn synthesis_step_is_faster_and_optimistic() {
        let full = evaluator(EvalConfig::default());
        let quick = evaluator(EvalConfig {
            step: FlowStep::Synthesis,
            ..Default::default()
        });
        let p = DesignPoint::from_pairs(&[("DEPTH", 128)]);
        let ef = full.evaluate(&p).unwrap();
        let eq = quick.evaluate(&p).unwrap();
        assert!(eq.tool_time_s < ef.tool_time_s);
        assert!(eq.fmax_mhz > ef.fmax_mhz, "post-synth timing is optimistic");
    }

    #[test]
    fn repeated_point_hits_cache() {
        let ev = evaluator(EvalConfig::default());
        let p = DesignPoint::from_pairs(&[("DEPTH", 100)]);
        let a = ev.evaluate(&p).unwrap();
        let b = ev.evaluate(&p).unwrap();
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.wns_ns, b.wns_ns);
        assert!(
            b.tool_time_s < a.tool_time_s * 0.3,
            "cache hit should be cheap"
        );
    }

    #[test]
    fn incremental_flow_discounts_new_points() {
        let with = evaluator(EvalConfig {
            incremental: true,
            ..Default::default()
        });
        let without = evaluator(EvalConfig {
            incremental: false,
            ..Default::default()
        });
        for ev in [&with, &without] {
            ev.evaluate(&DesignPoint::from_pairs(&[("DEPTH", 50)]))
                .unwrap();
        }
        let t_with = with
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 52)]))
            .unwrap();
        let t_without = without
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 52)]))
            .unwrap();
        assert!(
            t_with.tool_time_s < t_without.tool_time_s,
            "incremental {} vs full {}",
            t_with.tool_time_s,
            t_without.tool_time_s
        );
        // QoR identical either way.
        assert_eq!(t_with.utilization, t_without.utilization);
    }

    #[test]
    fn power_scales_with_design_size() {
        let ev = evaluator(EvalConfig::default());
        let small = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 8)]))
            .unwrap();
        let big = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 512)]))
            .unwrap();
        assert!(small.power_mw > 0.0);
        assert!(
            big.power_mw > small.power_mw,
            "{} vs {}",
            big.power_mw,
            small.power_mw
        );
        // Plausible magnitude for a small FIFO: well under a watt of
        // dynamic+static on the K7.
        assert!(small.power_mw < 2000.0, "{}", small.power_mw);
    }

    #[test]
    fn unknown_module_rejected_at_construction() {
        let r = Evaluator::new(
            vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
            "missing",
            EvalConfig::default(),
        );
        assert!(matches!(r, Err(DovadoError::UnknownModule(_))));
    }

    #[test]
    fn bad_period_rejected() {
        let r = Evaluator::new(
            vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
            "fifo_v3",
            EvalConfig {
                target_period_ns: 0.0,
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(DovadoError::Config(_))));
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let ev = evaluator(EvalConfig::default());
        let points: Vec<DesignPoint> = (1..=6)
            .map(|i| DesignPoint::from_pairs(&[("DEPTH", i * 37)]))
            .collect();
        let seq: Vec<_> = evaluator(EvalConfig::default())
            .evaluate_many(&points, false)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        let par: Vec<_> = ev
            .evaluate_many(&points, true)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.utilization, p.utilization);
            assert_eq!(s.wns_ns, p.wns_ns);
        }
        assert_eq!(ev.total_runs(), 6);
    }

    #[test]
    fn directives_change_outcomes() {
        let area = evaluator(EvalConfig {
            synth_directive: "AreaOptimized_high".into(),
            incremental: false,
            ..Default::default()
        });
        let perf = evaluator(EvalConfig {
            synth_directive: "PerformanceOptimized".into(),
            incremental: false,
            ..Default::default()
        });
        let p = DesignPoint::from_pairs(&[("DEPTH", 256)]);
        let ea = area.evaluate(&p).unwrap();
        let ep = perf.evaluate(&p).unwrap();
        assert!(ea.utilization.get(ResourceKind::Lut) < ep.utilization.get(ResourceKind::Lut));
        assert!(ep.fmax_mhz > ea.fmax_mhz);
    }

    #[test]
    fn vhdl_module_evaluates() {
        let src = HdlSource::new(
            "neorv32.vhd",
            Language::Vhdl,
            "entity neorv32_top is
               generic (
                 MEM_INT_IMEM_SIZE : natural := 16384;
                 MEM_INT_DMEM_SIZE : natural := 8192
               );
               port ( clk_i : in std_logic );
             end entity neorv32_top;",
        );
        let ev = Evaluator::new(vec![src], "neorv32_top", EvalConfig::default()).unwrap();
        let e = ev
            .evaluate(&DesignPoint::from_pairs(&[
                ("MEM_INT_IMEM_SIZE", 32768),
                ("MEM_INT_DMEM_SIZE", 32768),
            ]))
            .unwrap();
        assert_eq!(e.utilization.get(ResourceKind::Bram), 16);
    }

    // ---- persistent store ------------------------------------------------

    #[test]
    fn attached_store_round_trips_and_invalidates_on_config_change() {
        let dir = std::env::temp_dir().join(format!("dovado-store-flow-{}", std::process::id()));
        let p = DesignPoint::from_pairs(&[("DEPTH", 64)]);

        let mut warm = evaluator(EvalConfig::default());
        warm.attach_store(EvalStore::open(&dir).unwrap());
        let a = warm.evaluate(&p).unwrap();
        assert_eq!(warm.trace_summary().store_hits, 0, "cold run hits nothing");
        assert_eq!(warm.total_runs(), 1);

        // A fresh evaluator over the same inputs answers from disk:
        // bitwise equal, zero attempts, zero tool runs, zero time.
        let mut hit = evaluator(EvalConfig::default());
        hit.attach_store(EvalStore::open(&dir).unwrap());
        let b = hit.evaluate(&p).unwrap();
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.wns_ns.to_bits(), b.wns_ns.to_bits());
        assert_eq!(a.fmax_mhz.to_bits(), b.fmax_mhz.to_bits());
        assert_eq!(a.power_mw.to_bits(), b.power_mw.to_bits());
        let s = hit.trace_summary();
        assert_eq!((s.store_hits, s.attempts), (1, 0));
        assert_eq!(hit.total_runs(), 0);
        assert_eq!(hit.total_tool_time(), 0.0);

        // A config change re-keys everything: no false hit.
        let mut other = evaluator(EvalConfig {
            target_period_ns: 2.0,
            ..Default::default()
        });
        other.attach_store(EvalStore::open(&dir).unwrap());
        other.evaluate(&p).unwrap();
        assert_eq!(other.trace_summary().store_hits, 0);
        assert_eq!(other.total_runs(), 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failures_are_never_stored() {
        let dir = std::env::temp_dir().join(format!("dovado-store-fail-{}", std::process::id()));
        let mut ev = evaluator(EvalConfig {
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
        ev.attach_store(EvalStore::open(&dir).unwrap());
        let p = DesignPoint::from_pairs(&[("DEPTH", 16)]);
        assert!(ev.evaluate(&p).is_err());
        assert!(ev.store().unwrap().is_empty(), "failures must not persist");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // ---- retry / fault-tolerance ----------------------------------------

    #[test]
    fn crash_retry_recovers_identical_metrics() {
        let clean = evaluator(EvalConfig::default());
        let p = DesignPoint::from_pairs(&[("DEPTH", 96)]);
        let truth = clean.evaluate(&p).unwrap();

        // Sweep seeds until a run actually sees a transient failure — the
        // plan is probabilistic, the stream deterministic per seed.
        let mut saw_retry = false;
        for seed in 0..32u64 {
            let faulty = evaluator(EvalConfig {
                faults: FaultPlan {
                    synth_crash: 0.4,
                    seed,
                    ..FaultPlan::default()
                },
                retry: RetryPolicy {
                    max_attempts: 10,
                    ..Default::default()
                },
                ..Default::default()
            });
            let e = faulty.evaluate(&p).expect("retry must eventually succeed");
            assert_eq!(e.utilization, truth.utilization, "seed {seed}");
            assert_eq!(e.wns_ns, truth.wns_ns, "seed {seed}");
            assert_eq!(e.power_mw, truth.power_mw, "seed {seed}");
            saw_retry |= faulty.trace_summary().retries > 0;
        }
        assert!(saw_retry, "no seed in 0..32 injected a fault at p=0.4");
    }

    #[test]
    fn exhausted_retries_surface_transient_error_and_charge_backoff() {
        let ev = evaluator(EvalConfig {
            faults: FaultPlan {
                synth_crash: 1.0,
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_attempts: 3,
                ..Default::default()
            },
            ..Default::default()
        });
        let err = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 16)]))
            .unwrap_err();
        match &err {
            DovadoError::RetriesExhausted { attempts, last } => {
                assert_eq!(*attempts, 3);
                assert!(matches!(**last, DovadoError::Eda(EdaError::ToolCrash(_))));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
        assert!(err.is_transient(), "exhaustion must stay retryable-class");
        let s = ev.trace_summary();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.retries, 2);
        assert_eq!(s.transient_failures, 3);
        // Backoff after attempts 1 and 2: 30 + 60 simulated seconds.
        assert_eq!(s.backoff_s, 90.0);
        assert!(ev.total_tool_time() >= 90.0);
        assert_eq!(ev.total_runs(), 0, "no successful run may be counted");
    }

    #[test]
    fn checkpoint_corruption_falls_back_to_full_flow() {
        let ev = evaluator(EvalConfig {
            faults: FaultPlan {
                checkpoint_corrupt: 1.0,
                ..FaultPlan::default()
            },
            incremental: true,
            ..Default::default()
        });
        // First point: no checkpoint yet, nothing to corrupt.
        ev.evaluate(&DesignPoint::from_pairs(&[("DEPTH", 40)]))
            .unwrap();
        // Second point: the incremental read hits the corrupt checkpoint,
        // then the retry rebuilds from scratch.
        let e = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 42)]))
            .unwrap();
        assert!(e.fmax_mhz > 0.0);
        let events = ev.events();
        let failed = events
            .iter()
            .find(|ev| !ev.outcome.is_success())
            .expect("the corrupt read must be traced");
        assert!(
            failed.incremental,
            "the failing attempt asked for incremental"
        );
        let recovered = events.last().unwrap();
        assert!(recovered.outcome.is_success());
        assert!(
            !recovered.incremental,
            "the retry must abandon the incremental flow"
        );
    }

    #[test]
    fn repeated_timeouts_degrade_to_synthesis_when_enabled() {
        let ev = evaluator(EvalConfig {
            faults: FaultPlan {
                route_timeout: 1.0,
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_attempts: 4,
                degrade_after_timeouts: Some(2),
                ..Default::default()
            },
            step: FlowStep::Implementation,
            ..Default::default()
        });
        // route_design always times out, so only degradation can save it.
        let e = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 64)]))
            .unwrap();
        assert!(e.fmax_mhz > 0.0);
        let events = ev.events();
        assert_eq!(events.len(), 3); // timeout, timeout, degraded success
        assert_eq!(events[0].step, FlowStep::Implementation);
        assert_eq!(events[1].step, FlowStep::Implementation);
        assert_eq!(events[2].step, FlowStep::Synthesis);
        assert!(events[2].outcome.is_success());
    }

    #[test]
    fn degradation_disabled_by_default() {
        let ev = evaluator(EvalConfig {
            faults: FaultPlan {
                route_timeout: 1.0,
                ..FaultPlan::default()
            },
            retry: RetryPolicy {
                max_attempts: 3,
                ..Default::default()
            },
            ..Default::default()
        });
        let err = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 64)]))
            .unwrap_err();
        assert!(matches!(err, DovadoError::RetriesExhausted { .. }));
        assert!(ev
            .events()
            .iter()
            .all(|e| e.step == FlowStep::Implementation));
    }

    #[test]
    fn permanent_failures_do_not_retry() {
        // DEPTH far beyond the device capacity → resource overflow, a
        // permanent error: exactly one attempt, no backoff.
        let ev = evaluator(EvalConfig {
            retry: RetryPolicy {
                max_attempts: 5,
                ..Default::default()
            },
            ..Default::default()
        });
        let err = ev
            .evaluate(&DesignPoint::from_pairs(&[("DEPTH", 100_000_000)]))
            .unwrap_err();
        assert!(!err.is_transient(), "{err}");
        let s = ev.trace_summary();
        assert_eq!(s.attempts, 1);
        assert_eq!(s.permanent_failures, 1);
        assert_eq!(s.backoff_s, 0.0);
    }

    #[test]
    fn garbled_reports_are_retried() {
        let p = DesignPoint::from_pairs(&[("DEPTH", 24)]);
        let truth = evaluator(EvalConfig::default()).evaluate(&p).unwrap();
        let mut saw_report_fault = false;
        for seed in 0..32u64 {
            let ev = evaluator(EvalConfig {
                // Each attempt writes six reports and each report rolls
                // both fault kinds, so keep the per-roll probability low
                // enough that ten attempts reliably find a clean one.
                faults: FaultPlan {
                    report_truncated: 0.05,
                    report_garbled: 0.05,
                    seed,
                    ..FaultPlan::default()
                },
                retry: RetryPolicy {
                    max_attempts: 10,
                    ..Default::default()
                },
                ..Default::default()
            });
            let e = ev.evaluate(&p).expect("report faults are retryable");
            assert_eq!(e.utilization, truth.utilization, "seed {seed}");
            saw_report_fault |= ev.trace_summary().transient_failures > 0;
        }
        assert!(saw_report_fault, "no seed produced a report fault");
    }
}
