//! Structured per-attempt flow trace.
//!
//! Every tool invocation the [`crate::Evaluator`] makes — including failed
//! and retried attempts — appends one [`FlowEvent`]. The trace is what
//! turns "the DSE run took 4 hours of tool time" into "point DEPTH=512
//! timed out twice, backed off 90 s, and succeeded on attempt 3": it is
//! surfaced through [`crate::FitnessStats`] / `DseReport` and printed by
//! the CLI's explore command.

use crate::flow::FlowStep;
use std::fmt;

/// How one evaluation attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// Metrics scraped successfully.
    Success,
    /// Failed with a retryable (environmental) error.
    TransientFailure(String),
    /// Failed with a non-retryable error.
    PermanentFailure(String),
}

impl AttemptOutcome {
    /// Whether this attempt produced metrics.
    pub fn is_success(&self) -> bool {
        matches!(self, AttemptOutcome::Success)
    }
}

/// One tool invocation, as the evaluator saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEvent {
    /// Compact design-point label (`DEPTH=64`).
    pub point: String,
    /// 1-based attempt number for this point evaluation.
    pub attempt: u32,
    /// Flow depth attempted (may be degraded below the configured step).
    pub step: FlowStep,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Simulated tool seconds this attempt burned.
    pub tool_time_s: f64,
    /// Backoff seconds charged *after* this attempt (0 when none).
    pub backoff_s: f64,
    /// Whether the attempt asked for the incremental flow.
    pub incremental: bool,
    /// Whether the tool satisfied the attempt from an exact checkpoint.
    pub cached: bool,
}

impl fmt::Display for FlowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match &self.outcome {
            AttemptOutcome::Success if self.cached => "ok (cached)".to_string(),
            AttemptOutcome::Success => "ok".to_string(),
            AttemptOutcome::TransientFailure(e) => format!("transient: {e}"),
            AttemptOutcome::PermanentFailure(e) => format!("permanent: {e}"),
        };
        write!(
            f,
            "{} attempt {} [{:?}] {:.1}s{} — {}",
            self.point,
            self.attempt,
            self.step,
            self.tool_time_s,
            if self.backoff_s > 0.0 {
                format!(" +{:.0}s backoff", self.backoff_s)
            } else {
                String::new()
            },
            state
        )
    }
}

/// Rolled-up trace counters (cheap to copy into reports).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceSummary {
    /// Total attempts (successes + failures).
    pub attempts: u64,
    /// Attempts beyond the first for their point (i.e. retries).
    pub retries: u64,
    /// Attempts that failed with a transient error.
    pub transient_failures: u64,
    /// Attempts that failed with a permanent error.
    pub permanent_failures: u64,
    /// Successful attempts served from an exact checkpoint.
    pub cache_hits: u64,
    /// Evaluations answered from the persistent on-disk store without
    /// any tool attempt at all (not counted in `attempts`).
    pub store_hits: u64,
    /// Total simulated backoff seconds charged.
    pub backoff_s: f64,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts ({} retries), {} transient / {} permanent failures, \
             {} cache hits, {} store hits, {:.0}s backoff",
            self.attempts,
            self.retries,
            self.transient_failures,
            self.permanent_failures,
            self.cache_hits,
            self.store_hits,
            self.backoff_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(attempt: u32, outcome: AttemptOutcome) -> FlowEvent {
        FlowEvent {
            point: "DEPTH=8".into(),
            attempt,
            step: FlowStep::Implementation,
            outcome,
            tool_time_s: 10.0,
            backoff_s: if attempt > 1 { 30.0 } else { 0.0 },
            incremental: true,
            cached: false,
        }
    }

    #[test]
    fn display_is_readable() {
        let line = event(2, AttemptOutcome::TransientFailure("tool crashed".into())).to_string();
        assert!(line.contains("attempt 2"), "{line}");
        assert!(line.contains("backoff"), "{line}");
        assert!(line.contains("transient"), "{line}");
    }
}
