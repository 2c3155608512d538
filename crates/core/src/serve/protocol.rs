//! The serve wire protocol: line-delimited JSON over a socket.
//!
//! A connection carries one JSON object per line in each direction.
//! Client → server lines are **requests** ([`Request`]); server →
//! client lines are acknowledgements, streamed **trace v2 event lines**
//! (the exact [`crate::obs::event_json`] wire format `--trace-out`
//! writes, bracketed by the same header and summary lines), and a final
//! `done` object per job.
//!
//! Because the event lines reuse the trace v2 format verbatim, a client
//! that folds them with [`Totals::fold`] reconstructs the same counters
//! a standalone run would report, and the same `jq` recipes work on a
//! live stream and on a `--trace-out` file.
//!
//! # Delivery and ordering
//!
//! The server guarantees *delivery* of every retained event, not global
//! key order: events inside one batch land on the spine out of order,
//! and the stream forwards them as they complete. Each line carries its
//! canonical `(seq, sub)` key, [`Totals::fold`] is commutative, and a
//! client that wants the canonical file byte-for-byte sorts lines by
//! key first (the CLI `submit --trace-out` path does exactly that).
//! On reconnect, `attach` with `from_seq` replays every event with
//! `seq >= from_seq`; duplicates are possible and keys are unique, so
//! clients dedup by key.

use super::json::{escape, Json};
use crate::backend::ToolBackend;
use crate::cli::{language_of, parse_domain, parse_metrics};
use crate::dse::{Dovado, DseConfig, Explorer, SurrogateConfig};
use crate::error::{DovadoError, DovadoResult};
use crate::flow::{EvalConfig, FlowStep, HdlSource};
use crate::metrics::MetricSet;
use crate::obs::{CandidateScore, EventKey, ObsEvent, Totals};
use crate::space::ParameterSpace;
use crate::trace::{AttemptOutcome, FlowEvent, TraceSummary};
use dovado_moo::{Nsga2Config, Termination};
use std::sync::Arc;

/// Version of the serve request/response framing. Bump on any change to
/// request shapes or response fields (the *event* lines are versioned
/// separately by [`crate::obs::EVENT_SCHEMA_VERSION`] via the stream
/// header).
pub const SERVE_PROTOCOL_VERSION: u32 = 1;

/// One exploration job as submitted over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// HDL sources as `(file name, content)`; the file extension picks
    /// the language exactly like the CLI `--source` flag.
    pub sources: Vec<(String, String)>,
    /// Top module name.
    pub top: String,
    /// FPGA part override (`None` = evaluator default).
    pub part: Option<String>,
    /// Target clock period override in ns.
    pub period_ns: Option<f64>,
    /// Parameter domains as `(name, spec)` with the CLI `--param` spec
    /// grammar (`lo:hi[:step]`, `pow2:a:b`, `bool`).
    pub params: Vec<(String, String)>,
    /// Metric list in the CLI `--metric` grammar (`None` = area +
    /// frequency).
    pub metrics: Option<String>,
    /// NSGA-II generations to run.
    pub generations: u32,
    /// Population size.
    pub pop: usize,
    /// Optimizer seed.
    pub seed: u64,
    /// Surrogate pretrain-sample count (`None` = no approximation).
    pub surrogate: Option<usize>,
    /// Explorer token in the CLI `--explorer` grammar (`nsga2`,
    /// `random`, `wsga`, `exhaustive`, `sa`, `bayes`, `auto`).
    pub explorer: String,
    /// Backend spec in the worker grammar (`mock:SEED[:spin=MS]`,
    /// `vivado-sim:SEED`).
    pub backend: String,
    /// Whether to answer from (and feed) the daemon's shared evaluation
    /// store.
    pub use_store: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            sources: Vec::new(),
            top: String::new(),
            part: None,
            period_ns: None,
            params: Vec::new(),
            metrics: None,
            generations: 5,
            pop: 8,
            seed: 0,
            surrogate: None,
            explorer: "nsga2".into(),
            backend: "mock:1".into(),
            use_store: true,
        }
    }
}

impl JobSpec {
    /// Reads a spec from the `job` object of a submit request.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        let sources = v
            .get("sources")
            .and_then(Json::as_arr)
            .ok_or("job.sources: missing source list")?;
        for s in sources {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or("job.sources[].name: missing")?;
            let content = s
                .get("content")
                .and_then(Json::as_str)
                .ok_or("job.sources[].content: missing")?;
            spec.sources.push((name.to_string(), content.to_string()));
        }
        spec.top = v
            .get("top")
            .and_then(Json::as_str)
            .ok_or("job.top: missing")?
            .to_string();
        spec.part = v.get("part").and_then(Json::as_str).map(str::to_string);
        spec.period_ns = v.get("period_ns").and_then(Json::as_f64);
        if let Some(params) = v.get("params").and_then(Json::as_arr) {
            for p in params {
                let name = p
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("job.params[].name: missing")?;
                let dom = p
                    .get("spec")
                    .and_then(Json::as_str)
                    .ok_or("job.params[].spec: missing")?;
                spec.params.push((name.to_string(), dom.to_string()));
            }
        }
        spec.metrics = v.get("metrics").and_then(Json::as_str).map(str::to_string);
        if let Some(g) = v.get("generations").and_then(Json::as_u64) {
            spec.generations = g as u32;
        }
        if let Some(p) = v.get("pop").and_then(Json::as_u64) {
            spec.pop = p as usize;
        }
        if let Some(s) = v.get("seed").and_then(Json::as_u64) {
            spec.seed = s;
        }
        spec.surrogate = v
            .get("surrogate")
            .and_then(Json::as_u64)
            .map(|n| n as usize);
        if let Some(e) = v.get("explorer").and_then(Json::as_str) {
            spec.explorer = e.to_string();
        }
        if let Some(b) = v.get("backend").and_then(Json::as_str) {
            spec.backend = b.to_string();
        }
        if let Some(s) = v.get("store").and_then(Json::as_bool) {
            spec.use_store = s;
        }
        if spec.sources.is_empty() {
            return Err("job.sources: empty".into());
        }
        if spec.params.is_empty() {
            return Err("job.params: at least one parameter is required".into());
        }
        Ok(spec)
    }

    /// Renders the spec as the `job` object of a submit request (the
    /// inverse of [`JobSpec::from_json`]).
    pub fn to_json(&self) -> String {
        let sources: Vec<String> = self
            .sources
            .iter()
            .map(|(n, c)| {
                format!(
                    "{{\"name\":\"{}\",\"content\":\"{}\"}}",
                    escape(n),
                    escape(c)
                )
            })
            .collect();
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(n, s)| format!("{{\"name\":\"{}\",\"spec\":\"{}\"}}", escape(n), escape(s)))
            .collect();
        let mut out = format!(
            "{{\"sources\":[{}],\"top\":\"{}\",\"params\":[{}]",
            sources.join(","),
            escape(&self.top),
            params.join(",")
        );
        if let Some(part) = &self.part {
            out.push_str(&format!(",\"part\":\"{}\"", escape(part)));
        }
        if let Some(period) = self.period_ns {
            out.push_str(&format!(",\"period_ns\":{period}"));
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(&format!(",\"metrics\":\"{}\"", escape(metrics)));
        }
        out.push_str(&format!(
            ",\"generations\":{},\"pop\":{},\"seed\":{}",
            self.generations, self.pop, self.seed
        ));
        if let Some(s) = self.surrogate {
            out.push_str(&format!(",\"surrogate\":{s}"));
        }
        out.push_str(&format!(
            ",\"explorer\":\"{}\",\"backend\":\"{}\",\"store\":{}}}",
            escape(&self.explorer),
            escape(&self.backend),
            self.use_store
        ));
        out
    }

    /// Builds the exploration this spec describes: a [`Dovado`] for its
    /// sources, top and parameter space on `backend`, and a serial
    /// [`DseConfig`] that stops after `generations`. `eval` carries the
    /// tool-flow options a spec has no field for (the CLI's `--step`,
    /// directives and `--no-incremental`); the spec's part and period
    /// override it.
    ///
    /// `dovado explore` and the serve daemon both build through here, so
    /// a served job and a standalone run of the same flags are one run.
    pub fn build(
        &self,
        mut eval: EvalConfig,
        backend: Arc<dyn ToolBackend>,
    ) -> DovadoResult<(Dovado, DseConfig)> {
        let (space, cfg) = self.plan()?;
        let mut sources = Vec::with_capacity(self.sources.len());
        for (name, content) in &self.sources {
            let language = language_of(name).map_err(DovadoError::Config)?;
            sources.push(HdlSource::new(name.clone(), language, content.clone()));
        }
        if let Some(part) = &self.part {
            eval.part = part.clone();
        }
        if let Some(period) = self.period_ns {
            eval.target_period_ns = period;
        }
        let tool = Dovado::with_backend(sources, &self.top, space, eval, backend)?;
        Ok((tool, cfg))
    }

    /// The spec's parameter space and exploration config, checked — the
    /// part of [`JobSpec::build`] that needs no sources.
    pub(crate) fn plan(&self) -> DovadoResult<(ParameterSpace, DseConfig)> {
        let config = DovadoError::Config;
        let mut space = ParameterSpace::new();
        for (name, domain) in &self.params {
            let domain =
                parse_domain(domain).map_err(|e| config(format!("--param {name}: {e}")))?;
            // `ParameterSpace::with` asserts names are unique ignoring
            // case; refuse a duplicate instead.
            if space
                .params()
                .iter()
                .any(|p| p.name.eq_ignore_ascii_case(name))
            {
                return Err(config(format!("--param: duplicate parameter `{name}`")));
            }
            space = space.with(name, domain);
        }
        let metrics = match &self.metrics {
            Some(m) => parse_metrics(m).map_err(|e| config(format!("--metric: {e}")))?,
            None => MetricSet::area_frequency(),
        };
        let explorer = Explorer::parse_token(&self.explorer)
            .ok_or_else(|| config(format!("--explorer: unknown explorer `{}`", self.explorer)))?;
        let cfg = DseConfig {
            explorer,
            algorithm: Nsga2Config {
                pop_size: self.pop,
                seed: self.seed,
                ..Nsga2Config::default()
            },
            termination: Termination::Generations(self.generations),
            metrics,
            surrogate: self.surrogate.map(|m| SurrogateConfig {
                pretrain_samples: m,
                ..SurrogateConfig::default()
            }),
            parallel: false,
            workers: None,
        };
        Ok((space, cfg))
    }
}

/// One client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: tenant identity + protocol version check.
    Hello {
        /// Tenant name for fair-share accounting.
        tenant: String,
        /// Client's [`SERVE_PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Submit a job; the server replies with the job id, then streams
    /// its events on this connection until done.
    Submit {
        /// Tenant the job bills to.
        tenant: String,
        /// Fair-share weight (higher = larger slot share; min 1).
        priority: u32,
        /// The job (boxed: `JobSpec` dwarfs every other request variant).
        spec: Box<JobSpec>,
    },
    /// (Re-)attach to a job's event stream.
    Attach {
        /// Job id from a submit acknowledgement.
        job: String,
        /// Replay events with `seq >= from_seq` (0 = everything).
        from_seq: u64,
    },
    /// Cancel a job: queued jobs leave the queue immediately, running
    /// jobs stop at the next generation boundary.
    Cancel {
        /// Job id.
        job: String,
    },
    /// One-line status of every job and per-tenant ledger totals.
    Status,
    /// Stop the daemon: cancels running jobs and closes the listener.
    Shutdown,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).ok_or("request is not valid JSON")?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("request has no cmd field")?;
    match cmd {
        "hello" => Ok(Request::Hello {
            tenant: v
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("anonymous")
                .to_string(),
            protocol: v
                .get("protocol")
                .and_then(Json::as_u64)
                .ok_or("hello.protocol: missing")? as u32,
        }),
        "submit" => Ok(Request::Submit {
            tenant: v
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or("anonymous")
                .to_string(),
            priority: v.get("priority").and_then(Json::as_u64).unwrap_or(1).max(1) as u32,
            spec: Box::new(JobSpec::from_json(
                v.get("job").ok_or("submit.job: missing")?,
            )?),
        }),
        "attach" => Ok(Request::Attach {
            job: v
                .get("job")
                .and_then(Json::as_str)
                .ok_or("attach.job: missing")?
                .to_string(),
            from_seq: v.get("from_seq").and_then(Json::as_u64).unwrap_or(0),
        }),
        "cancel" => Ok(Request::Cancel {
            job: v
                .get("job")
                .and_then(Json::as_str)
                .ok_or("cancel.job: missing")?
                .to_string(),
        }),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd `{other}`")),
    }
}

fn surrogate_choice(s: &str) -> Option<&'static str> {
    match s {
        "cached" => Some("cached"),
        "estimated" => Some("estimated"),
        "evaluated" => Some("evaluated"),
        _ => None,
    }
}

fn worker_kind(s: &str) -> Option<&'static str> {
    match s {
        "spawned" => Some("spawned"),
        "stole" => Some("stole"),
        "died" => Some("died"),
        "requeued" => Some("requeued"),
        _ => None,
    }
}

fn step_of(s: &str) -> Option<FlowStep> {
    match s {
        "synthesis" => Some(FlowStep::Synthesis),
        "implementation" => Some(FlowStep::Implementation),
        _ => None,
    }
}

/// Parses one trace v2 event line back into its key and event — the
/// inverse of [`crate::obs::event_json`]. `None` for non-event lines
/// (the header, the summary, protocol acks) and malformed input.
/// Folding the parsed events with [`Totals::fold`] reconstructs the
/// exact counters of the run that emitted them.
pub fn parse_event_line(line: &str) -> Option<(EventKey, ObsEvent)> {
    let v = Json::parse(line)?;
    parse_event(&v)
}

/// [`parse_event_line`] over an already-parsed value.
pub fn parse_event(v: &Json) -> Option<(EventKey, ObsEvent)> {
    let key = EventKey {
        seq: v.get("seq")?.as_u64()?,
        sub: v.get("sub")?.as_u64()? as u32,
    };
    let ty = v.get("type")?.as_str()?;
    let event = match ty {
        "attempt" => {
            let outcome = match v.get("outcome")?.as_str()? {
                "success" => AttemptOutcome::Success,
                "transient" => AttemptOutcome::TransientFailure(
                    v.get("error").and_then(Json::as_str).unwrap_or("").into(),
                ),
                "permanent" => AttemptOutcome::PermanentFailure(
                    v.get("error").and_then(Json::as_str).unwrap_or("").into(),
                ),
                _ => return None,
            };
            ObsEvent::Attempt(FlowEvent {
                point: v.get("point")?.as_str()?.to_string(),
                attempt: v.get("attempt")?.as_u64()? as u32,
                step: step_of(v.get("step")?.as_str()?)?,
                outcome,
                tool_time_s: v.get("tool_time_s")?.as_f64()?,
                backoff_s: v.get("backoff_s")?.as_f64()?,
                incremental: v.get("incremental")?.as_bool()?,
                cached: v.get("cached")?.as_bool()?,
            })
        }
        "store_hit" => ObsEvent::StoreHit {
            point: v.get("point")?.as_str()?.to_string(),
        },
        "time_charged" => ObsEvent::TimeCharged {
            seconds: v.get("seconds")?.as_f64()?,
        },
        "resume" => ObsEvent::Resume {
            summary: TraceSummary {
                attempts: v.get("attempts")?.as_u64()?,
                retries: v.get("retries")?.as_u64()?,
                transient_failures: v.get("transient_failures")?.as_u64()?,
                permanent_failures: v.get("permanent_failures")?.as_u64()?,
                cache_hits: v.get("cache_hits")?.as_u64()?,
                store_hits: v.get("store_hits")?.as_u64()?,
                backoff_s: v.get("backoff_s")?.as_f64()?,
            },
            runs: v.get("runs")?.as_u64()?,
            tool_time_s: v.get("tool_time_s")?.as_f64()?,
        },
        "generation" => ObsEvent::Generation {
            generation: v.get("generation")?.as_u64()?,
            evaluations: v.get("evaluations")?.as_u64()?,
        },
        "selector_decision" => {
            let mut candidates = Vec::new();
            for c in v.get("candidates")?.as_arr()? {
                candidates.push(CandidateScore {
                    name: c.get("name")?.as_str()?.to_string(),
                    evaluations: c.get("evaluations")?.as_u64()?,
                    hypervolume: c.get("hypervolume")?.as_f64()?,
                    slope: c.get("slope")?.as_f64()?,
                });
            }
            ObsEvent::SelectorDecision {
                explorer: v.get("explorer")?.as_str()?.to_string(),
                space_volume: v.get("space_volume")?.as_u64()?,
                objectives: v.get("objectives")?.as_u64()? as u32,
                lowfi_runs: v.get("lowfi_runs")?.as_u64()?,
                lowfi_time_s: v.get("lowfi_time_s")?.as_f64()?,
                candidates,
            }
        }
        "surrogate_decision" => ObsEvent::SurrogateDecision {
            point: v.get("point")?.as_str()?.to_string(),
            choice: surrogate_choice(v.get("choice")?.as_str()?)?,
        },
        "reselected" => ObsEvent::Reselected {
            bandwidth: v.get("bandwidth")?.as_f64()?,
        },
        "gamma_updated" => ObsEvent::GammaUpdated {
            gamma: v.get("gamma")?.as_f64()?,
        },
        "fault" => ObsEvent::Fault {
            kind: v.get("kind")?.as_str()?.to_string(),
        },
        "worker" => ObsEvent::Worker {
            worker: v.get("worker")?.as_u64()?,
            kind: worker_kind(v.get("kind")?.as_str()?)?,
            detail: v.get("detail")?.as_str()?.to_string(),
        },
        "store_evicted" => ObsEvent::StoreEvicted {
            key: v.get("key")?.as_str()?.to_string(),
        },
        _ => return None,
    };
    Some((key, event))
}

/// Folds a whole streamed session (any mix of event and non-event
/// lines, any order) into exact run totals, deduplicating replayed
/// events by key.
pub fn fold_stream<'a, I>(lines: I) -> Totals
where
    I: IntoIterator<Item = &'a str>,
{
    let mut seen = std::collections::BTreeMap::new();
    for line in lines {
        if let Some((key, event)) = parse_event_line(line) {
            seen.insert(key, event);
        }
    }
    let mut totals = Totals::default();
    for event in seen.values() {
        totals.fold(event);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::event_json;

    fn roundtrip(event: ObsEvent) {
        let key = EventKey { seq: 41, sub: 2 };
        let line = event_json(key, &event);
        let (k, e) =
            parse_event_line(&line).unwrap_or_else(|| panic!("unparseable event line: {line}"));
        assert_eq!(k, key, "{line}");
        assert_eq!(e, event, "{line}");
    }

    #[test]
    fn every_event_variant_roundtrips_through_the_wire() {
        roundtrip(ObsEvent::Attempt(FlowEvent {
            point: "DEPTH=8 \"x\"".into(),
            attempt: 3,
            step: FlowStep::Synthesis,
            outcome: AttemptOutcome::TransientFailure("tool\ncrashed".into()),
            tool_time_s: 12.5,
            backoff_s: 30.0,
            incremental: true,
            cached: false,
        }));
        roundtrip(ObsEvent::Attempt(FlowEvent {
            point: "DEPTH=8".into(),
            attempt: 1,
            step: FlowStep::Implementation,
            outcome: AttemptOutcome::Success,
            tool_time_s: 100.0,
            backoff_s: 0.0,
            incremental: false,
            cached: true,
        }));
        roundtrip(ObsEvent::StoreHit {
            point: "DEPTH=16".into(),
        });
        roundtrip(ObsEvent::TimeCharged { seconds: 4.25 });
        roundtrip(ObsEvent::Resume {
            summary: TraceSummary {
                attempts: 10,
                retries: 2,
                transient_failures: 1,
                permanent_failures: 0,
                cache_hits: 3,
                store_hits: 4,
                backoff_s: 60.0,
            },
            runs: 9,
            tool_time_s: 1234.5,
        });
        roundtrip(ObsEvent::Generation {
            generation: 7,
            evaluations: 140,
        });
        roundtrip(ObsEvent::SelectorDecision {
            explorer: "sa".into(),
            space_volume: 4096,
            objectives: 3,
            lowfi_runs: 96,
            lowfi_time_s: 512.25,
            candidates: vec![
                CandidateScore {
                    name: "nsga2".into(),
                    evaluations: 32,
                    hypervolume: 10.5,
                    slope: -0.25,
                },
                CandidateScore {
                    name: "sa".into(),
                    evaluations: 32,
                    hypervolume: 12.0,
                    slope: 1.5,
                },
            ],
        });
        roundtrip(ObsEvent::SelectorDecision {
            explorer: "exhaustive".into(),
            space_volume: 16,
            objectives: 2,
            lowfi_runs: 0,
            lowfi_time_s: 0.0,
            candidates: Vec::new(),
        });
        roundtrip(ObsEvent::SurrogateDecision {
            point: "DEPTH=4".into(),
            choice: "estimated",
        });
        roundtrip(ObsEvent::Reselected { bandwidth: 0.75 });
        roundtrip(ObsEvent::GammaUpdated { gamma: 1.5 });
        roundtrip(ObsEvent::Fault {
            kind: "host_crash".into(),
        });
        roundtrip(ObsEvent::Worker {
            worker: 2,
            kind: "died",
            detail: "pipe closed".into(),
        });
        roundtrip(ObsEvent::StoreEvicted {
            key: "00ff".repeat(8),
        });
    }

    #[test]
    fn non_event_lines_parse_to_none() {
        assert!(parse_event_line("{\"schema\":\"dovado-trace\",\"version\":2}").is_none());
        assert!(parse_event_line("{\"type\":\"summary\",\"attempts\":0}").is_none());
        assert!(parse_event_line("{\"ok\":true}").is_none());
        assert!(parse_event_line("not json").is_none());
    }

    #[test]
    fn fold_stream_dedups_replayed_events_and_ignores_order() {
        let key = EventKey { seq: 5, sub: 0 };
        let hit = event_json(
            key,
            &ObsEvent::StoreHit {
                point: "DEPTH=8".into(),
            },
        );
        let charged = event_json(
            EventKey { seq: 2, sub: 0 },
            &ObsEvent::TimeCharged { seconds: 3.0 },
        );
        // Replayed duplicate + out-of-order arrival.
        let totals = fold_stream([hit.as_str(), charged.as_str(), hit.as_str()]);
        assert_eq!(totals.summary.store_hits, 1);
        assert_eq!(totals.tool_time_s, 3.0);
    }

    #[test]
    fn job_spec_roundtrips_through_json() {
        let spec = JobSpec {
            sources: vec![("fifo.sv".into(), "module fifo; endmodule\n".into())],
            top: "fifo".into(),
            part: Some("xc7a100t".into()),
            period_ns: Some(4.0),
            params: vec![("DEPTH".into(), "pow2:3:7".into())],
            metrics: Some("lut,fmax".into()),
            generations: 6,
            pop: 12,
            seed: 99,
            surrogate: Some(40),
            explorer: "auto".into(),
            backend: "mock:7".into(),
            use_store: false,
        };
        let v = Json::parse(&spec.to_json()).expect("spec JSON parses");
        assert_eq!(JobSpec::from_json(&v).unwrap(), spec);
        // Defaults fill in for omitted optional fields.
        let minimal = Json::parse(
            r#"{"sources":[{"name":"a.v","content":"x"}],"top":"a",
                "params":[{"name":"W","spec":"1:4"}]}"#,
        )
        .unwrap();
        let parsed = JobSpec::from_json(&minimal).unwrap();
        assert_eq!(parsed.generations, JobSpec::default().generations);
        assert!(parsed.use_store);
    }

    #[test]
    fn submit_request_parses_with_defaults() {
        let spec = JobSpec {
            sources: vec![("a.v".into(), "x".into())],
            top: "a".into(),
            params: vec![("W".into(), "1:4".into())],
            ..JobSpec::default()
        };
        let line = format!(
            "{{\"cmd\":\"submit\",\"tenant\":\"alice\",\"job\":{}}}",
            spec.to_json()
        );
        match parse_request(&line).unwrap() {
            Request::Submit {
                tenant,
                priority,
                spec: parsed,
            } => {
                assert_eq!(tenant, "alice");
                assert_eq!(priority, 1, "default priority");
                assert_eq!(*parsed, spec);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert_eq!(
            parse_request("{\"cmd\":\"status\"}").unwrap(),
            Request::Status
        );
        assert!(parse_request("{\"cmd\":\"nope\"}").is_err());
        assert!(parse_request("garbage").is_err());
    }
}
