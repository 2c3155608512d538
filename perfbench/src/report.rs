//! Metric collection and the two output forms: a human-readable table
//! and the single JSON result line that ends standard output.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and single measurements).
    pub samples: usize,
    /// How the value was obtained, for the human table (`measured`,
    /// `replay`, `trace`, `n/a`).
    pub source: &'static str,
    /// Whether the figure is a `BENCHMARK.json` metric (in the JSON line)
    /// or printed in the table only.
    pub in_json: bool,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (explorations or served jobs).
    pub attempted: u64,
    /// Attempted operations that failed or whose outputs did not match.
    pub failed: u64,
    /// The figures, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the table (provenance,
    /// attribution, check failures).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a `BENCHMARK.json` metric.
    pub fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        source: &'static str,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            source,
            in_json: true,
        });
    }

    /// Adds a figure printed in the table only.
    pub fn show(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            source: "measured, table only",
            in_json: false,
        });
    }

    /// Records a failed check of one operation's outputs.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {what}"));
    }

    /// The human-readable report: notes, then one row per metric with
    /// unit and sample count, then the failure fraction.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        let _ = writeln!(
            out,
            "{:<28} {:>16} {:<8} {:>7}  source",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} {:>16.6} {:<8} {:>7}  {}",
                m.name, m.value, m.unit, m.samples, m.source
            );
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "{:<28} {:>16.6} {:<8} {:>7}  measured ({} of {} failed)",
            "failed_frac", frac, "frac", self.attempted, self.failed, self.attempted
        );
        out
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.in_json)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives (non-finite values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys_and_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("cpu_s", 0.123_456_789_012, "s", 3, "measured");
        o.show("latency_p50_s", 0.5, "s", 3);
        let line = o.json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"cpu_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
        o.fail("front mismatch".into());
        assert!(o
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }
}
