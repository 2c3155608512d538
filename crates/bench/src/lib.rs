//! Shared helpers for the Dovado benchmark harness.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper (see DESIGN.md's per-experiment index). Binaries print the series
//! to stdout and also write CSV files under `results/`.

use dovado::csv::CsvWriter;
use dovado::{DseReport, Metric, SpineSnapshot};
use std::fs;
use std::path::PathBuf;

/// Where result CSVs land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV file under `results/`, returning its path.
pub fn write_csv(name: &str, writer: CsvWriter) -> PathBuf {
    let path = results_dir().join(name);
    if let Err(e) = fs::write(&path, writer.finish()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Prints a banner for an experiment.
pub fn banner(experiment: &str, description: &str) {
    println!("==============================================================");
    println!("{experiment}");
    println!("{description}");
    println!("==============================================================");
}

/// Prints the report block every figure/table binary shares: the
/// one-line summary, the configuration table under `config_heading`,
/// and the metric table under `metric_heading`.
pub fn print_report(report: &DseReport, config_heading: &str, metric_heading: &str) {
    println!("{}", report.summary());
    println!();
    println!("{config_heading}:");
    println!("{}", report.configuration_table());
    println!("{metric_heading}:");
    println!("{}", report.metric_table());
}

/// CSV-safe column name for a metric label (`Fmax[MHz]` → `Fmax_MHz`).
fn csv_column(label: &str) -> String {
    label.replace('[', "_").replace(']', "")
}

/// Writes the Pareto front as a CSV under `results/`: a label column,
/// one column per `(header, parameter)` pair, then one column per report
/// metric (utilization as integers, frequency/power at two decimals).
/// Returns the path.
pub fn write_front_csv(name: &str, report: &DseReport, params: &[(&str, &str)]) -> PathBuf {
    use dovado::point_label;
    let mut csv = CsvWriter::new();
    let mut header: Vec<String> = vec!["label".into()];
    header.extend(params.iter().map(|(h, _)| h.to_string()));
    header.extend(
        report
            .metrics
            .metrics()
            .iter()
            .map(|m| csv_column(&m.label())),
    );
    let refs: Vec<&str> = header.iter().map(String::as_str).collect();
    csv.header(&refs);
    for (i, e) in report.pareto.iter().enumerate() {
        let mut row: Vec<String> = vec![point_label(i)];
        for (_, p) in params {
            row.push(
                e.point
                    .get(p)
                    .expect("front point carries the parameter")
                    .to_string(),
            );
        }
        for (m, v) in report.metrics.metrics().iter().zip(&e.values) {
            row.push(match m {
                Metric::Utilization(_) => format!("{v:.0}"),
                _ => format!("{v:.2}"),
            });
        }
        csv.row(&row);
    }
    write_csv(name, csv)
}

/// Writes an observability-spine trace as versioned JSON Lines under
/// `results/`, returning its path.
pub fn write_trace(name: &str, spine: &SpineSnapshot) -> PathBuf {
    let path = results_dir().join(name);
    if let Err(e) = fs::write(&path, dovado::obs::jsonl_string(spine)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Writes the front CSV plus the run's observability trace next to it
/// (`<name>.csv` → `<name>.jsonl`), printing both paths.
pub fn emit_front(csv_name: &str, report: &DseReport, params: &[(&str, &str)]) {
    let path = write_front_csv(csv_name, report, params);
    println!("wrote {}", path.display());
    let trace_name = format!(
        "{}.jsonl",
        csv_name.strip_suffix(".csv").unwrap_or(csv_name)
    );
    let trace_path = write_trace(&trace_name, &report.spine);
    println!("wrote {}", trace_path.display());
}

/// Median and spread (interquartile range over median) of `samples`,
/// which it sorts.
pub fn median_and_spread(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let quantile = |q: f64| {
        let at = q * (samples.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        samples[lo] + (samples[hi] - samples[lo]) * (at - lo as f64)
    };
    let median = quantile(0.5);
    (median, (quantile(0.75) - quantile(0.25)) / median)
}

/// Formats a float as a JSON number at millisecond-style precision
/// (three decimals) for the `BENCH_*.json` files; non-finite values
/// become `null`.
pub fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Formats a float series compactly.
pub fn fmt_series(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Shared driver for the two TiReX experiments (Figs. 6–7 / Table II):
/// the same exploration on two devices. Returns the report so callers can
/// add device-specific checks.
pub fn run_tirex(part: &str, figure: &str, csv_name: &str) -> dovado::DseReport {
    use dovado::casestudies::tirex;
    use dovado::DseConfig;
    use dovado_moo::{Nsga2Config, Termination};

    let cs = tirex::case_study();
    let tool = cs.dovado_on(part).expect("case study builds");
    let cfg = DseConfig {
        explorer: Default::default(),
        algorithm: Nsga2Config {
            pop_size: 20,
            seed: 0x71EE,
            ..Default::default()
        },
        termination: Termination::Generations(12),
        metrics: cs.metrics.clone(),
        surrogate: None,
        parallel: true,
        workers: None,
    };
    let report = tool.explore(&cfg).expect("exploration succeeds");

    print_report(
        &report,
        &format!("Table II ({part}) — non-dominated configurations"),
        &format!("{figure} — solution metrics"),
    );
    emit_front(
        csv_name,
        &report,
        &[
            ("NCLUSTER", "NCLUSTER"),
            ("STACK_SIZE", "STACK_SIZE"),
            ("IMEM_SIZE", "IMEM_SIZE"),
            ("DMEM_SIZE", "DMEM_SIZE"),
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_series_compact() {
        assert_eq!(fmt_series(&[1.0, 2.25]), "1.0000, 2.2500");
    }

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.exists());
    }
}
