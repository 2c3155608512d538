//! The structured observability spine.
//!
//! Every run-time accounting signal in Dovado — tool attempts, retries,
//! persistent-store hits, charged simulated time, NSGA-II generation
//! boundaries, surrogate control decisions, injected faults, and resume
//! splices — is emitted as one typed [`ObsEvent`] on a shared
//! [`EventBus`]. Everything the repo used to track in independently
//! mutated counters (the flow trace, the engine ledger, CLI summaries,
//! bench figures) is a *view* over this stream: [`Totals::fold`] is the
//! single definition of every counter, and [`fold_totals`] recomputes
//! them from scratch for any event sequence.
//!
//! # Determinism
//!
//! Events are keyed by [`EventKey`] — a `(seq, sub)` pair where `seq` is
//! allocated serially in program order (batch dispatch reserves one
//! contiguous block in input order *before* fanning out across threads)
//! and `sub` numbers the attempts under one point. Sorting by key
//! therefore yields the same canonical order for serial and parallel
//! runs, which is what makes `--trace-out` files byte-identical across
//! `--jobs` settings. The retention cap evicts the canonically-*largest*
//! keys first, so the retained prefix is also schedule-independent.
//!
//! # Wire format
//!
//! [`write_jsonl`] serializes a [`SpineSnapshot`] as versioned JSONL: a
//! header line, one object per event in canonical order, and a trailing
//! summary object that equals the fold of the event lines above it.

use crate::flow::FlowStep;
use crate::serve::json::{escape, number};
use crate::trace::{AttemptOutcome, FlowEvent, TraceSummary};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::Arc;

/// Version tag written in the JSONL header line. Bump on any change to
/// the event wire format (field names, event types, value encodings).
///
/// v2: added the `selector_decision` event (portfolio selection) and the
/// `lowfi_runs`/`lowfi_time_s` summary fields (low-fidelity race spend,
/// ledgered separately from full-flow tool time).
pub const EVENT_SCHEMA_VERSION: u32 = 2;

/// Cap on retained events per bus. Totals keep counting past it; the
/// canonically-largest keys are dropped first so serial and parallel
/// runs retain the same prefix.
pub const MAX_RETAINED_EVENTS: usize = 10_000;

/// Canonical position of an event in the run's stream.
///
/// Ordering is lexicographic on `(seq, sub)` — stable program order, not
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Serially-allocated major position: one per dispatched point or
    /// control-flow emission, assigned in program order before any
    /// parallel fan-out.
    pub seq: u64,
    /// Minor position under one `seq`: the 1-based attempt number for
    /// tool attempts, 0 for everything else.
    pub sub: u32,
}

/// One typed event on the observability spine.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// One tool attempt (success or failure), as the retry layer saw it.
    Attempt(FlowEvent),
    /// An evaluation answered from the persistent store with no tool
    /// attempt at all.
    StoreHit {
        /// Compact design-point label (`DEPTH=64`).
        point: String,
    },
    /// Simulated seconds charged straight to the ledger, outside any
    /// attempt.
    TimeCharged {
        /// Seconds charged.
        seconds: f64,
    },
    /// Journaled totals spliced in by `--resume`: the *deficit* between
    /// the journal and the live bus, so a replay never double-counts
    /// spans already on the stream.
    Resume {
        /// Trace counters carried over from the journal.
        summary: TraceSummary,
        /// Successful tool runs carried over.
        runs: u64,
        /// Simulated tool seconds carried over.
        tool_time_s: f64,
    },
    /// An exploration generation boundary (any explorer).
    Generation {
        /// 1-based index of the generation just completed.
        generation: u64,
        /// Cumulative fitness evaluations after this generation.
        evaluations: u64,
    },
    /// The portfolio selector committed to an explorer (`--explorer
    /// auto`): problem features, the low-fidelity race spend, and every
    /// candidate's score. Exactly one per auto run; `--resume` re-emits
    /// the journaled decision instead of re-racing, so replayed traces
    /// stay bitwise-identical.
    SelectorDecision {
        /// The committed explorer (`nsga2`, `random`, …).
        explorer: String,
        /// Design-space volume feature (product of cardinalities).
        space_volume: u64,
        /// Objective-count feature.
        objectives: u32,
        /// Successful low-fidelity (synthesis-only) tool runs spent on
        /// the race, across all candidates.
        lowfi_runs: u64,
        /// Simulated tool seconds spent on the race, ledgered separately
        /// from full-flow `tool_time_s`.
        lowfi_time_s: f64,
        /// Per-candidate race outcomes, in race order.
        candidates: Vec<CandidateScore>,
    },
    /// A surrogate control decision for one batch slot.
    SurrogateDecision {
        /// Compact design-point label.
        point: String,
        /// `cached`, `estimated`, or `evaluated`.
        choice: &'static str,
    },
    /// The surrogate re-selected its kernel bandwidth (retrain).
    Reselected {
        /// Bandwidth chosen by leave-one-out cross-validation.
        bandwidth: f64,
    },
    /// The adaptive threshold controller moved Γ.
    GammaUpdated {
        /// The new Γ value.
        gamma: f64,
    },
    /// An injected fault fired outside the attempt path (e.g. a host
    /// crash at a generation boundary).
    Fault {
        /// Stable fault-kind label.
        kind: String,
    },
    /// A distributed-worker lifecycle transition (spawn, steal, death,
    /// requeue). Scheduling facts, not evaluation facts: they ride the
    /// bus on a side channel ([`EventBus::emit_worker`]) and never enter
    /// the canonical stream, which is what keeps `--trace-out` files
    /// byte-identical across serial, rayon, and distributed schedules.
    Worker {
        /// Fleet-unique worker id.
        worker: u64,
        /// Transition label: `spawned`, `stole`, `died`, or `requeued`.
        kind: &'static str,
        /// Transport-level detail for deaths, empty otherwise.
        detail: String,
    },
    /// A capacity-bounded [`EvalStore`](dovado_eda::EvalStore) evicted an
    /// entry. Cache-management facts, not evaluation facts: like
    /// [`ObsEvent::Worker`] they ride a side channel
    /// ([`EventBus::emit_store_evicted`]) and never enter the canonical
    /// stream — eviction timing depends on cross-run store state, which
    /// would break byte-identical `--trace-out` replays. An eviction can
    /// only ever produce a future store *miss*, never a wrong answer.
    StoreEvicted {
        /// 32-hex-digit `EvalKey` of the evicted entry.
        key: String,
    },
}

/// One candidate's outcome in a portfolio-selection race.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Explorer name (`nsga2`, `random`, `sa`, `bayes`).
    pub name: String,
    /// Low-fidelity evaluations the candidate spent on its race budget.
    pub evaluations: u64,
    /// Hypervolume of the candidate's final race front against the
    /// common reference point.
    pub hypervolume: f64,
    /// Early hypervolume slope: mean per-generation hypervolume gain
    /// over the race (the learned-selection feature).
    pub slope: f64,
}

/// Exact whole-run totals, maintained incrementally by the bus and
/// recomputable from scratch with [`fold_totals`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Totals {
    /// Rolled-up trace counters.
    pub summary: TraceSummary,
    /// Successful tool invocations.
    pub runs: u64,
    /// Cumulative simulated tool seconds: attempts (failed ones too),
    /// retry backoff, charged time, and resume splices.
    pub tool_time_s: f64,
    /// Successful low-fidelity (synthesis-only) tool runs spent by the
    /// portfolio selector's race; ledgered separately from `runs`.
    pub lowfi_runs: u64,
    /// Simulated tool seconds spent by the race; ledgered separately from
    /// `tool_time_s` so a soft deadline budgets only full-flow spend.
    pub lowfi_time_s: f64,
    /// Portfolio-selection decisions seen by this spine. A resumed run
    /// re-emits its journaled decision only when this is still zero, so
    /// the decision lands exactly once per run, process restarts included.
    pub decisions: u64,
}

impl Totals {
    /// Folds one event into the totals. This is *the* definition of
    /// every counter in Dovado; [`TraceSummary`] snapshots and the
    /// engine's time/run ledger are views of this fold.
    pub fn fold(&mut self, event: &ObsEvent) {
        self.fold_counts(event);
        if let ObsEvent::Attempt(e) = event {
            self.fold_attempt_time(e.tool_time_s, e.backoff_s);
        }
    }

    /// An attempt's simulated seconds: its tool time and its backoff.
    fn fold_attempt_time(&mut self, tool_time_s: f64, backoff_s: f64) {
        self.summary.backoff_s += backoff_s;
        self.tool_time_s += tool_time_s + backoff_s;
    }

    /// [`Totals::fold`] without an attempt's simulated seconds.
    fn fold_counts(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::Attempt(e) => {
                self.summary.attempts += 1;
                if e.attempt > 1 {
                    self.summary.retries += 1;
                }
                match &e.outcome {
                    AttemptOutcome::Success => {
                        if e.cached {
                            self.summary.cache_hits += 1;
                        }
                        self.runs += 1;
                    }
                    AttemptOutcome::TransientFailure(_) => self.summary.transient_failures += 1,
                    AttemptOutcome::PermanentFailure(_) => self.summary.permanent_failures += 1,
                }
            }
            ObsEvent::StoreHit { .. } => self.summary.store_hits += 1,
            ObsEvent::TimeCharged { seconds } => self.tool_time_s += seconds,
            ObsEvent::Resume {
                summary,
                runs,
                tool_time_s,
            } => {
                self.summary.attempts += summary.attempts;
                self.summary.retries += summary.retries;
                self.summary.transient_failures += summary.transient_failures;
                self.summary.permanent_failures += summary.permanent_failures;
                self.summary.cache_hits += summary.cache_hits;
                self.summary.store_hits += summary.store_hits;
                self.summary.backoff_s += summary.backoff_s;
                self.runs += runs;
                self.tool_time_s += tool_time_s;
            }
            ObsEvent::SelectorDecision {
                lowfi_runs,
                lowfi_time_s,
                ..
            } => {
                self.lowfi_runs += lowfi_runs;
                self.lowfi_time_s += lowfi_time_s;
                self.decisions += 1;
            }
            ObsEvent::Generation { .. }
            | ObsEvent::SurrogateDecision { .. }
            | ObsEvent::Reselected { .. }
            | ObsEvent::GammaUpdated { .. }
            | ObsEvent::Fault { .. }
            | ObsEvent::Worker { .. }
            | ObsEvent::StoreEvicted { .. } => {}
        }
    }
}

/// Folds an event sequence into totals from scratch.
pub fn fold_totals<'a, I>(events: I) -> Totals
where
    I: IntoIterator<Item = &'a ObsEvent>,
{
    let mut totals = Totals::default();
    for event in events {
        totals.fold(event);
    }
    totals
}

/// A consistent copy of the spine: retained events in canonical order
/// plus the exact whole-run totals (which cover dropped events too).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpineSnapshot {
    /// Retained events, sorted by key.
    pub events: Vec<(EventKey, ObsEvent)>,
    /// Exact whole-run trace counters.
    pub summary: TraceSummary,
    /// Exact whole-run successful tool invocations.
    pub runs: u64,
    /// Exact whole-run simulated tool seconds.
    pub tool_time_s: f64,
    /// Exact whole-run low-fidelity race runs (see [`Totals::lowfi_runs`]).
    pub lowfi_runs: u64,
    /// Exact whole-run low-fidelity race seconds (see
    /// [`Totals::lowfi_time_s`]).
    pub lowfi_time_s: f64,
    /// Events evicted by the retention cap (counted, not retained).
    pub dropped: u64,
}

/// Shared, thread-safe event spine with canonical ordering and exact
/// incrementally-folded totals. Clones share storage.
#[derive(Clone, Default)]
pub struct EventBus {
    inner: Arc<Mutex<BusInner>>,
}

#[derive(Default)]
struct BusInner {
    events: BTreeMap<EventKey, ObsEvent>,
    /// Everything folded so far, except the seconds in `unsettled`.
    totals: Totals,
    /// Simulated seconds (tool time, backoff) of attempts emitted since
    /// the last [`EventBus::settle`], in arrival order. A parallel batch's
    /// attempts arrive in completion order; folding their seconds in key
    /// order instead keeps the float sums, and the journal that records
    /// them, the same on every schedule.
    unsettled: Vec<(EventKey, f64, f64)>,
    next_seq: u64,
    dropped: u64,
    /// Worker lifecycle side channel, in arrival order. Kept out of
    /// `events` (and the snapshot/JSONL stream) because lease order is
    /// scheduling-dependent; capped like the canonical stream.
    worker_events: Vec<ObsEvent>,
    /// Store-eviction side channel, in arrival order. Kept out of the
    /// canonical stream because eviction timing depends on cross-run
    /// store state; capped like the canonical stream.
    store_events: Vec<ObsEvent>,
}

impl EventBus {
    /// Creates an empty bus.
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Reserves `n` consecutive `seq` values and returns the first.
    /// Batch dispatch reserves its whole block serially, in input order,
    /// before fanning out across threads.
    pub fn alloc(&self, n: u64) -> u64 {
        let mut inner = self.inner.lock();
        let start = inner.next_seq;
        inner.next_seq += n;
        start
    }

    /// Emits an event at an explicit key (keys must be unique per run).
    ///
    /// An attempt's counts fold at once and its simulated seconds wait
    /// for [`EventBus::settle`]. Time charged outside an attempt settles
    /// the waiting seconds first, so a serial run adds every term in the
    /// order it arrived.
    pub fn emit(&self, key: EventKey, event: ObsEvent) {
        let mut inner = self.inner.lock();
        match &event {
            ObsEvent::Attempt(e) => {
                inner.totals.fold_counts(&event);
                inner.unsettled.push((key, e.tool_time_s, e.backoff_s));
            }
            ObsEvent::TimeCharged { .. } | ObsEvent::Resume { .. } => {
                inner.settle();
                inner.totals.fold(&event);
            }
            _ => inner.totals.fold(&event),
        }
        inner.events.insert(key, event);
        if inner.events.len() > MAX_RETAINED_EVENTS {
            inner.events.pop_last();
            inner.dropped += 1;
        }
    }

    /// Allocates the next `seq` and emits at `sub = 0`.
    pub fn emit_next(&self, event: ObsEvent) -> EventKey {
        let key = EventKey {
            seq: self.alloc(1),
            sub: 0,
        };
        self.emit(key, event);
        key
    }

    /// Records a worker lifecycle event on the side channel (arrival
    /// order; never part of the canonical stream).
    pub fn emit_worker(&self, event: ObsEvent) {
        debug_assert!(matches!(event, ObsEvent::Worker { .. }));
        let mut inner = self.inner.lock();
        if inner.worker_events.len() < MAX_RETAINED_EVENTS {
            inner.worker_events.push(event);
        }
    }

    /// The worker lifecycle side channel, in arrival order.
    pub fn worker_events(&self) -> Vec<ObsEvent> {
        self.inner.lock().worker_events.clone()
    }

    /// Records a store-eviction event on the side channel (arrival
    /// order; never part of the canonical stream).
    pub fn emit_store_evicted(&self, event: ObsEvent) {
        debug_assert!(matches!(event, ObsEvent::StoreEvicted { .. }));
        let mut inner = self.inner.lock();
        if inner.store_events.len() < MAX_RETAINED_EVENTS {
            inner.store_events.push(event);
        }
    }

    /// The store-eviction side channel, in arrival order.
    pub fn store_events(&self) -> Vec<ObsEvent> {
        self.inner.lock().store_events.clone()
    }

    /// Folds the simulated seconds of the attempts emitted since the last
    /// settle into the totals, in canonical key order. Batch dispatch
    /// calls this once all of its points have returned.
    pub fn settle(&self) {
        self.inner.lock().settle();
    }

    /// Exact whole-run totals (cover evicted events too). Seconds not yet
    /// settled count as if settled now, without settling them.
    pub fn totals(&self) -> Totals {
        self.inner.lock().totals()
    }

    /// Number of events evicted by the retention cap.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Canonically-ordered copy of the retained events.
    pub fn events(&self) -> Vec<(EventKey, ObsEvent)> {
        self.inner
            .lock()
            .events
            .iter()
            .map(|(k, e)| (*k, e.clone()))
            .collect()
    }

    /// A consistent snapshot of events and totals, taken under one lock.
    pub fn snapshot(&self) -> SpineSnapshot {
        let inner = self.inner.lock();
        let totals = inner.totals();
        SpineSnapshot {
            events: inner.events.iter().map(|(k, e)| (*k, e.clone())).collect(),
            summary: totals.summary,
            runs: totals.runs,
            tool_time_s: totals.tool_time_s,
            lowfi_runs: totals.lowfi_runs,
            lowfi_time_s: totals.lowfi_time_s,
            dropped: inner.dropped,
        }
    }
}

impl BusInner {
    fn settle(&mut self) {
        fold_in_key_order(&mut self.totals, &mut self.unsettled);
    }

    fn totals(&self) -> Totals {
        let mut totals = self.totals;
        fold_in_key_order(&mut totals, &mut self.unsettled.clone());
        totals
    }
}

/// Folds and drains `unsettled` attempt seconds in key order.
fn fold_in_key_order(totals: &mut Totals, unsettled: &mut Vec<(EventKey, f64, f64)>) {
    unsettled.sort_unstable_by_key(|&(key, ..)| key);
    for (_, tool_time_s, backoff_s) in unsettled.drain(..) {
        totals.fold_attempt_time(tool_time_s, backoff_s);
    }
}

fn step_name(step: FlowStep) -> &'static str {
    match step {
        FlowStep::Synthesis => "synthesis",
        FlowStep::Implementation => "implementation",
    }
}

/// The JSONL trace header line (no trailing newline). Streamed protocols
/// reuse this so clients see exactly the `--trace-out` wire format.
pub fn trace_header() -> String {
    format!("{{\"schema\":\"dovado-trace\",\"version\":{EVENT_SCHEMA_VERSION}}}")
}

/// Renders one event as its canonical trace v2 JSON line (no trailing
/// newline). [`write_jsonl`] uses this for every event line; the serve
/// protocol reuses it to stream live events in the same wire format.
pub fn event_json(key: EventKey, event: &ObsEvent) -> String {
    let head = format!("{{\"seq\":{},\"sub\":{}", key.seq, key.sub);
    match event {
        ObsEvent::Attempt(e) => {
            let (outcome, error) = match &e.outcome {
                AttemptOutcome::Success => ("success", None),
                AttemptOutcome::TransientFailure(m) => ("transient", Some(m)),
                AttemptOutcome::PermanentFailure(m) => ("permanent", Some(m)),
            };
            let mut line = format!(
                "{head},\"type\":\"attempt\",\"point\":\"{}\",\"attempt\":{},\
                 \"step\":\"{}\",\"outcome\":\"{outcome}\"",
                escape(&e.point),
                e.attempt,
                step_name(e.step),
            );
            if let Some(m) = error {
                let _ = write!(line, ",\"error\":\"{}\"", escape(m));
            }
            let _ = write!(
                line,
                ",\"tool_time_s\":{},\"backoff_s\":{},\"incremental\":{},\"cached\":{}}}",
                number(e.tool_time_s),
                number(e.backoff_s),
                e.incremental,
                e.cached
            );
            line
        }
        ObsEvent::StoreHit { point } => {
            format!(
                "{head},\"type\":\"store_hit\",\"point\":\"{}\"}}",
                escape(point)
            )
        }
        ObsEvent::TimeCharged { seconds } => {
            format!(
                "{head},\"type\":\"time_charged\",\"seconds\":{}}}",
                number(*seconds)
            )
        }
        ObsEvent::Resume {
            summary,
            runs,
            tool_time_s,
        } => {
            format!(
                "{head},\"type\":\"resume\",\"attempts\":{},\"retries\":{},\
                 \"transient_failures\":{},\"permanent_failures\":{},\
                 \"cache_hits\":{},\"store_hits\":{},\"backoff_s\":{},\
                 \"runs\":{},\"tool_time_s\":{}}}",
                summary.attempts,
                summary.retries,
                summary.transient_failures,
                summary.permanent_failures,
                summary.cache_hits,
                summary.store_hits,
                number(summary.backoff_s),
                runs,
                number(*tool_time_s)
            )
        }
        ObsEvent::Generation {
            generation,
            evaluations,
        } => {
            format!(
                "{head},\"type\":\"generation\",\"generation\":{generation},\
                 \"evaluations\":{evaluations}}}"
            )
        }
        ObsEvent::SelectorDecision {
            explorer,
            space_volume,
            objectives,
            lowfi_runs,
            lowfi_time_s,
            candidates,
        } => {
            let cands: Vec<String> = candidates
                .iter()
                .map(|c| {
                    format!(
                        "{{\"name\":\"{}\",\"evaluations\":{},\"hypervolume\":{},\"slope\":{}}}",
                        escape(&c.name),
                        c.evaluations,
                        number(c.hypervolume),
                        number(c.slope)
                    )
                })
                .collect();
            format!(
                "{head},\"type\":\"selector_decision\",\"explorer\":\"{}\",\
                 \"space_volume\":{space_volume},\"objectives\":{objectives},\
                 \"lowfi_runs\":{lowfi_runs},\"lowfi_time_s\":{},\
                 \"candidates\":[{}]}}",
                escape(explorer),
                number(*lowfi_time_s),
                cands.join(",")
            )
        }
        ObsEvent::SurrogateDecision { point, choice } => {
            format!(
                "{head},\"type\":\"surrogate_decision\",\"point\":\"{}\",\"choice\":\"{choice}\"}}",
                escape(point)
            )
        }
        ObsEvent::Reselected { bandwidth } => {
            format!(
                "{head},\"type\":\"reselected\",\"bandwidth\":{}}}",
                number(*bandwidth)
            )
        }
        ObsEvent::GammaUpdated { gamma } => {
            format!(
                "{head},\"type\":\"gamma_updated\",\"gamma\":{}}}",
                number(*gamma)
            )
        }
        ObsEvent::Fault { kind } => {
            format!("{head},\"type\":\"fault\",\"kind\":\"{}\"}}", escape(kind))
        }
        ObsEvent::Worker {
            worker,
            kind,
            detail,
        } => {
            format!(
                "{head},\"type\":\"worker\",\"worker\":{worker},\"kind\":\"{kind}\",\
                 \"detail\":\"{}\"}}",
                escape(detail)
            )
        }
        ObsEvent::StoreEvicted { key } => {
            format!(
                "{head},\"type\":\"store_evicted\",\"key\":\"{}\"}}",
                escape(key)
            )
        }
    }
}

/// Writes the versioned JSONL trace: a header line, one object per event
/// in canonical key order, and a trailing summary object computed by
/// folding exactly the event lines above it (so the file is always
/// self-consistent; `dropped` reports how many events the retention cap
/// evicted before the snapshot).
pub fn write_jsonl(snapshot: &SpineSnapshot, out: &mut dyn io::Write) -> io::Result<()> {
    writeln!(out, "{}", trace_header())?;
    for (key, event) in &snapshot.events {
        writeln!(out, "{}", event_json(*key, event))?;
    }
    let t = fold_totals(snapshot.events.iter().map(|(_, e)| e));
    writeln!(out, "{}", summary_json(&t, snapshot.dropped))
}

/// Renders the trailing trace v2 summary object for `totals` (no
/// trailing newline). Streamed protocols reuse this so a live session
/// ends with exactly the line a `--trace-out` file would.
pub fn summary_json(totals: &Totals, dropped: u64) -> String {
    format!(
        "{{\"type\":\"summary\",\"attempts\":{},\"retries\":{},\
         \"transient_failures\":{},\"permanent_failures\":{},\
         \"cache_hits\":{},\"store_hits\":{},\"backoff_s\":{},\
         \"runs\":{},\"tool_time_s\":{},\"lowfi_runs\":{},\
         \"lowfi_time_s\":{},\"dropped\":{}}}",
        totals.summary.attempts,
        totals.summary.retries,
        totals.summary.transient_failures,
        totals.summary.permanent_failures,
        totals.summary.cache_hits,
        totals.summary.store_hits,
        number(totals.summary.backoff_s),
        totals.runs,
        number(totals.tool_time_s),
        totals.lowfi_runs,
        number(totals.lowfi_time_s),
        dropped
    )
}

/// Renders a snapshot to a JSONL string (convenience over
/// [`write_jsonl`]).
pub fn jsonl_string(snapshot: &SpineSnapshot) -> String {
    let mut buf = Vec::new();
    write_jsonl(snapshot, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("JSONL output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attempt(point: &str, n: u32, outcome: AttemptOutcome) -> ObsEvent {
        ObsEvent::Attempt(FlowEvent {
            point: point.into(),
            attempt: n,
            step: FlowStep::Implementation,
            outcome,
            tool_time_s: 10.0,
            backoff_s: if n > 1 { 30.0 } else { 0.0 },
            incremental: true,
            cached: false,
        })
    }

    #[test]
    fn keys_order_by_seq_then_sub() {
        let a = EventKey { seq: 1, sub: 2 };
        let b = EventKey { seq: 2, sub: 1 };
        let c = EventKey { seq: 1, sub: 3 };
        assert!(a < b && a < c && c < b);
    }

    #[test]
    fn incremental_totals_match_the_fold() {
        let bus = EventBus::new();
        bus.emit_next(attempt(
            "DEPTH=8",
            1,
            AttemptOutcome::TransientFailure("x".into()),
        ));
        bus.emit_next(attempt("DEPTH=8", 2, AttemptOutcome::Success));
        bus.emit_next(attempt(
            "DEPTH=4",
            1,
            AttemptOutcome::PermanentFailure("overflow".into()),
        ));
        // Cache hits count on success only: a cached failure is nonsense
        // and must not count.
        for outcome in [
            AttemptOutcome::Success,
            AttemptOutcome::TransientFailure("y".into()),
        ] {
            let ObsEvent::Attempt(mut cached) = attempt("DEPTH=2", 1, outcome) else {
                unreachable!()
            };
            cached.cached = true;
            bus.emit_next(ObsEvent::Attempt(cached));
        }
        bus.emit_next(ObsEvent::StoreHit {
            point: "DEPTH=16".into(),
        });
        bus.emit_next(ObsEvent::TimeCharged { seconds: 5.0 });
        let snap = bus.snapshot();
        let folded = fold_totals(snap.events.iter().map(|(_, e)| e));
        assert_eq!(bus.totals(), folded);
        assert_eq!(folded.summary.attempts, 5);
        assert_eq!(folded.summary.retries, 1);
        assert_eq!(folded.summary.transient_failures, 2);
        assert_eq!(folded.summary.permanent_failures, 1);
        assert_eq!(folded.summary.cache_hits, 1);
        assert_eq!(folded.summary.backoff_s, 30.0);
        assert_eq!(folded.summary.store_hits, 1);
        assert_eq!(folded.runs, 2);
        assert_eq!(folded.tool_time_s, 5.0 * 10.0 + 30.0 + 5.0);
    }

    #[test]
    fn totals_do_not_depend_on_arrival_order() {
        // Added in key order the seconds sum to 1.2000000000000002 (tool
        // time) and 0.6000000000000001 (backoff); in reverse, to 1.2 and 0.6.
        let events: Vec<(EventKey, ObsEvent)> = [0.1, 0.2, 0.3]
            .into_iter()
            .zip(0..)
            .map(|(seconds, seq)| {
                let ObsEvent::Attempt(mut e) = attempt("DEPTH=8", 1, AttemptOutcome::Success)
                else {
                    unreachable!()
                };
                (e.tool_time_s, e.backoff_s) = (seconds, seconds);
                (EventKey { seq, sub: 1 }, ObsEvent::Attempt(e))
            })
            .collect();
        let in_order = |order: [usize; 3]| {
            let bus = EventBus::new();
            for i in order {
                bus.emit(events[i].0, events[i].1.clone());
            }
            (bus.totals(), bus.snapshot())
        };
        let (forward, forward_snap) = in_order([0, 1, 2]);
        let (backward, backward_snap) = in_order([2, 1, 0]);
        assert_eq!(
            forward.tool_time_s.to_bits(),
            backward.tool_time_s.to_bits()
        );
        assert_eq!(
            forward.summary.backoff_s.to_bits(),
            backward.summary.backoff_s.to_bits()
        );
        assert_eq!(forward, fold_totals(events.iter().map(|(_, e)| e)));
        assert_eq!(forward_snap, backward_snap);
    }

    #[test]
    fn charged_time_adds_after_the_attempts_before_it() {
        let bus = EventBus::new();
        for (seq, seconds) in [(1, 0.3), (0, 0.2)] {
            let ObsEvent::Attempt(mut e) = attempt("DEPTH=8", 1, AttemptOutcome::Success) else {
                unreachable!()
            };
            e.tool_time_s = seconds;
            bus.emit(EventKey { seq, sub: 1 }, ObsEvent::Attempt(e));
        }
        assert_eq!(bus.totals().tool_time_s, 0.2 + 0.3);
        // Charged time adds to the sum of the attempts before it: 0.6,
        // where 0.1 + 0.2 + 0.3 would be 0.6000000000000001.
        bus.emit(
            EventKey { seq: 2, sub: 0 },
            ObsEvent::TimeCharged { seconds: 0.1 },
        );
        let charged = bus.totals();
        assert_eq!(charged.tool_time_s.to_bits(), 0.6f64.to_bits());
        bus.settle();
        assert_eq!(bus.totals(), charged);
    }

    #[test]
    fn cap_keeps_the_canonical_prefix() {
        let bus = EventBus::new();
        // Emit through a clone, which shares storage, in *reverse* key
        // order: retention must still keep the lowest keys, not the
        // earliest arrivals.
        let clone = bus.clone();
        let n = MAX_RETAINED_EVENTS as u64 + 50;
        for seq in (0..n).rev() {
            clone.emit(
                EventKey { seq, sub: 1 },
                attempt("DEPTH=8", 1, AttemptOutcome::Success),
            );
        }
        let snap = bus.snapshot();
        assert_eq!(snap.events.len(), MAX_RETAINED_EVENTS);
        assert_eq!(snap.dropped, 50);
        assert_eq!(
            snap.events.last().unwrap().0.seq,
            MAX_RETAINED_EVENTS as u64 - 1
        );
        assert_eq!(snap.summary.attempts, n);
    }

    #[test]
    fn jsonl_lines_are_valid_and_versioned() {
        let bus = EventBus::new();
        bus.emit_next(attempt(
            "DEPTH=8 \"q\"",
            2,
            AttemptOutcome::TransientFailure("tool\ncrashed".into()),
        ));
        let text = jsonl_string(&bus.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[0], "{\"schema\":\"dovado-trace\",\"version\":2}");
        assert!(lines[1].contains("\\\"q\\\""), "{}", lines[1]);
        assert!(lines[1].contains("tool\\ncrashed"), "{}", lines[1]);
        assert!(
            lines[2].starts_with("{\"type\":\"summary\""),
            "{}",
            lines[2]
        );
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn selector_decision_feeds_the_lowfi_ledger() {
        let bus = EventBus::new();
        bus.emit_next(ObsEvent::SelectorDecision {
            explorer: "nsga2".into(),
            space_volume: 128,
            objectives: 3,
            lowfi_runs: 96,
            lowfi_time_s: 42.5,
            candidates: vec![CandidateScore {
                name: "nsga2".into(),
                evaluations: 32,
                hypervolume: 1.5,
                slope: 0.25,
            }],
        });
        let t = bus.totals();
        // Charged separately: the race never touches the full-flow ledger.
        assert_eq!(t.runs, 0);
        assert_eq!(t.tool_time_s, 0.0);
        assert_eq!(t.lowfi_runs, 96);
        assert_eq!(t.lowfi_time_s, 42.5);
        let snap = bus.snapshot();
        assert_eq!(snap.lowfi_runs, 96);
        let text = jsonl_string(&snap);
        let line = text.lines().nth(1).unwrap();
        assert!(line.contains("\"type\":\"selector_decision\""), "{line}");
        assert!(line.contains("\"explorer\":\"nsga2\""), "{line}");
        assert!(line.contains("\"space_volume\":128"), "{line}");
        assert!(
            line.contains("\"candidates\":[{\"name\":\"nsga2\""),
            "{line}"
        );
        let summary = text.lines().last().unwrap();
        assert!(summary.contains("\"lowfi_runs\":96"), "{summary}");
        assert!(summary.contains("\"lowfi_time_s\":42.5"), "{summary}");
    }
}
