//! Crash-safe persistence: evaluation-store serialization and the
//! write-ahead exploration journal.
//!
//! Two artifacts live under one persistence directory:
//!
//! * `store/` — the content-addressed [`dovado_eda::EvalStore`], one
//!   append-only log. Each entry is one successful [`Evaluation`], keyed
//!   by a 128-bit hash of everything that determines its outcome
//!   (sources, top module, the full [`EvalConfig`] including
//!   part/directives/seed/fault plan, and the design point). A warm store
//!   answers repeat evaluations without a single tool run; a corrupt or
//!   version-mismatched record reads as a *miss*, never as a wrong
//!   answer.
//! * `journal.dovado` — the whole exploration state at the latest
//!   generation boundary: the explorer engine (an [`ExplorerSnapshot`]:
//!   the ledger every kind shares — generation and evaluation counters,
//!   archive, history — plus the kind's own state: raw RNG words,
//!   population, enumeration cursor or annealing solution, energy and
//!   temperature), fitness counters, the simulated-time ledger, the portfolio
//!   selection of an `--explorer auto` run, and — when the approximation
//!   model is on — the surrogate dataset, selected bandwidth, Γ, and the
//!   amortized-reselection phase. `explore --resume` rebuilds the run
//!   from it and continues bitwise-identically.
//!
//! # Journal layout
//!
//! ```text
//! dovado-journal 4
//! record <len> <payload fnv1a> <header fnv1a>
//! <payload: len bytes>
//! record <len> <payload fnv1a> <header fnv1a>
//! <payload: len bytes>
//! ...
//! ```
//!
//! Every record is length-framed and carries two checksums: one over its
//! payload and one over the header fields before it, so a damaged length
//! is caught too. The first record is the *base*: the whole state. Each
//! later record carries the small state whole — counters, RNG,
//! population, fitness and trace ledgers, selection and the surrogate
//! section — but only the archive and history entries added since the
//! record before it; its `archive <from> <n>` and `history <from> <n>`
//! lines name where those entries start. [`read_journal`] folds the
//! records in order.
//!
//! A record's explorer section is written the same way for every kind:
//! `explorer <kind>`, the ledger's `generation` and `evaluations`, the
//! kind's own lines (`rng`, `population`, `cursor`, or `current`,
//! `energy` and `temperature`), then the ledger's history and archive.
//! Only the kind's own lines differ, so one codec arm per kind is all a
//! new explorer adds.
//!
//! One [`JournalWriter`] serves one run. Its first boundary replaces the
//! file with a single base record (temp file + rename), and so does any
//! boundary at which the bytes appended since the last full write exceed
//! that write's size; every other boundary appends one record. A run of
//! G generations thus makes O(log G) full writes and writes a few times
//! the final compact journal's bytes in total, instead of one full
//! rewrite per boundary. A process never appends to a file it did not
//! start itself: a resumed run's first boundary is a full write.
//!
//! A boundary is encoded in place. The writer reads a [`JournalView`]
//! that borrows the running engine's archive, history and population and
//! the surrogate's dataset, takes the archive and history entries past
//! the lengths its file already holds, and writes every field's digits
//! straight into one buffer it keeps from boundary to boundary;
//! [`frame_in_place`] puts the record header in front, and the record
//! goes out in one `write_all`. Nothing is copied into an owned
//! [`Journal`] first, so an appended boundary allocates nothing once the
//! buffer has grown to a record's size. [`write_journal`] is a fresh
//! writer's first boundary, through the same encoder.
//!
//! **Torn tail.** A crash during an append can leave the last record cut
//! short by the end of the file. Reading drops it: the records before it
//! are the previous boundary's complete state, exactly what a crash
//! before a full write's rename leaves. Any complete record whose
//! checksums do not match, or whose archive/history offsets do not
//! continue the records before it, refuses the whole journal, as does a
//! base record that is cut short.
//!
//! Version 4 introduced this layout; a v3 journal refuses to resume —
//! rerun the exploration from its store, which answers every paid-for
//! point without a tool run. The record framing is
//! [`dovado_eda::frame`], which the store's log shares. Floats are
//! serialized as exact bit patterns (`f64::to_bits` hex), so a journal
//! round-trip is bitwise, not approximately equal.

use crate::error::{DovadoError, DovadoResult};
use crate::fitness::FitnessStats;
use crate::flow::{EvalConfig, HdlSource};
use crate::metrics::Evaluation;
use dovado_eda::frame::{frame_in_place, next_frame, Frame};
use dovado_eda::store::atomic_write;
use dovado_eda::EvalKey;
use dovado_fpga::{ResourceKind, ResourceSet};
use dovado_moo::{ExplorerSnapshot, GenStats, Individual, Ledger, SearchState, SearchStateRef};
use dovado_surrogate::{ControlStats, Dataset};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Journal format version. Bump on any change to the journal payload
/// layout; old journals then refuse to resume instead of misparsing.
/// (v2 added the `trace` line: trace counters + successful runs, so
/// resume can splice whole-run totals onto the observability spine.
/// v3 made the engine snapshot a tagged per-explorer section and added
/// the `selection` block recording an `auto` run's portfolio decision.
/// v4 made the file a base record followed by appended records.)
pub const JOURNAL_FORMAT_VERSION: u32 = 4;

/// First-line tag of the exploration journal.
const JOURNAL_TAG: &str = "dovado-journal";

/// Where exploration state persists and whether to resume from it.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Root directory: holds `store/` and `journal.dovado`.
    pub dir: PathBuf,
    /// Resume from an existing journal instead of starting fresh.
    pub resume: bool,
    /// Entry-count bound for the evaluation store. `None` — the explicit
    /// default — keeps the store unbounded; `Some(n)` evicts the
    /// least-recently-touched entries past `n` (evictions only ever
    /// produce misses, never wrong answers). `Some(0)` is rejected as a
    /// configuration error. Not part of the journal fingerprint: like
    /// `jobs`/`workers`, the bound changes *cost*, never *answers*.
    pub store_capacity: Option<usize>,
}

impl PersistConfig {
    /// Persistence rooted at `dir`, starting fresh, with an unbounded
    /// store.
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            resume: false,
            store_capacity: None,
        }
    }

    /// The evaluation-store directory.
    pub fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// The journal file path.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.dovado")
    }
}

// ---- bitwise float / integer helpers -----------------------------------

fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Text being encoded: each field is written straight into the buffer —
/// 16 lowercase hex digits for a float's bit pattern or an RNG word,
/// decimal digits for a count or a gene — with no intermediate string.
struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn text(&mut self, s: &str) -> &mut Self {
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// `x` in decimal, as `Display` writes it.
    fn dec(&mut self, mut x: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (x % 10) as u8;
            x /= 10;
            if x == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&digits[at..]);
        self
    }

    /// `x` as 16 lowercase hex digits, as `{:016x}` writes it.
    fn hex(&mut self, x: u64) -> &mut Self {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0u8; 16];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = DIGITS[(x >> (60 - 4 * i)) as usize & 0xf];
        }
        self.0.extend_from_slice(&digits);
        self
    }

    /// A space, then `x` in decimal.
    fn num(&mut self, x: u64) -> &mut Self {
        self.0.push(b' ');
        self.dec(x)
    }

    /// A space, then `x` as 16 hex digits.
    fn word(&mut self, x: u64) -> &mut Self {
        self.0.push(b' ');
        self.hex(x)
    }

    /// A space, then `x`'s bit pattern as 16 hex digits.
    fn bits(&mut self, x: f64) -> &mut Self {
        self.word(x.to_bits())
    }

    /// Genes in decimal, separated by spaces.
    fn genes(&mut self, genes: &[i64]) -> &mut Self {
        for (i, &g) in genes.iter().enumerate() {
            self.text(match (i, g < 0) {
                (0, false) => "",
                (0, true) => "-",
                (_, false) => " ",
                (_, true) => " -",
            })
            .dec(g.unsigned_abs());
        }
        self
    }

    /// Float bit patterns, separated by spaces.
    fn floats(&mut self, xs: &[f64]) -> &mut Self {
        for (i, x) in xs.iter().enumerate() {
            self.text(if i == 0 { "" } else { " " }).hex(x.to_bits());
        }
        self
    }

    fn end(&mut self) {
        self.0.push(b'\n');
    }
}

// ---- evaluation serialization (store entries) --------------------------

/// Bytes of an encoded [`Evaluation`] at most: `util` and one count of up
/// to 20 digits per resource kind, `timing` and five bit patterns, each
/// field after a space, two newlines.
const EVALUATION_MAX_LEN: usize = 4 + 21 * ResourceKind::ALL.len() + 6 + 5 * 17 + 2;

/// Serializes an [`Evaluation`] for the store. Utilization counts are
/// decimal (they are exact integers); every float is its bit pattern.
pub fn encode_evaluation(e: &Evaluation) -> String {
    let mut out = Vec::with_capacity(EVALUATION_MAX_LEN);
    let mut enc = Enc(&mut out);
    enc.text("util");
    for &kind in &ResourceKind::ALL {
        enc.num(e.utilization.get(kind));
    }
    enc.end();
    enc.text("timing")
        .bits(e.wns_ns)
        .bits(e.period_ns)
        .bits(e.fmax_mhz)
        .bits(e.power_mw)
        .bits(e.tool_time_s)
        .end();
    String::from_utf8(out).expect("tags and digits are ASCII")
}

/// Parses a store entry back into an [`Evaluation`], straight into its
/// fields. `None` on any structural problem — the store treats that as
/// a miss.
pub fn decode_evaluation(text: &str) -> Option<Evaluation> {
    let mut lines = text.lines();
    let mut counts = lines.next()?.strip_prefix("util ")?.split_whitespace();
    let mut utilization = ResourceSet::zero();
    for &kind in &ResourceKind::ALL {
        utilization.set(kind, counts.next()?.parse().ok()?);
    }
    let mut timing = lines.next()?.strip_prefix("timing ")?.split_whitespace();
    let mut float = || timing.next().and_then(f64_from_hex);
    let evaluation = Evaluation {
        utilization,
        wns_ns: float()?,
        period_ns: float()?,
        fmax_mhz: float()?,
        power_mw: float()?,
        tool_time_s: float()?,
    };
    (counts.next().is_none() && timing.next().is_none()).then_some(evaluation)
}

/// The 128-bit identity of an evaluator: everything that determines an
/// evaluation's outcome except the design point itself — sources, top
/// module, configuration, and which tool backend answers. The per-point
/// store key extends this with the point's assignments.
///
/// Besides the raw per-file identity, the key folds in the source set's
/// catalog fingerprint, which covers the unit-level dependency graph —
/// so an edit to *any* file a design unit depends on (a package body the
/// top only reaches transitively, say) changes the key and correctly
/// misses the EvalStore.
pub fn evaluator_key(
    sources: &[HdlSource],
    top: &str,
    config: &EvalConfig,
    backend: &str,
) -> EvalKey {
    let mut parts: Vec<String> = Vec::with_capacity(sources.len() * 4 + 4);
    for s in sources {
        parts.push(s.name.clone());
        parts.push(format!("{:?}", s.language));
        parts.push(s.library.clone().unwrap_or_default());
        parts.push(s.content.clone());
    }
    parts.push(catalog_fingerprint(sources));
    parts.push(top.to_string());
    parts.push(format!("{config:?}"));
    parts.push(backend.to_string());
    EvalKey::from_parts(&parts)
}

/// The sources' catalog fingerprint: content plus dependency-graph
/// structure. A source set the catalog cannot order (an instantiation
/// cycle split across files) keys on a deterministic marker instead —
/// the raw per-file parts above still cover its content.
fn catalog_fingerprint(sources: &[HdlSource]) -> String {
    use dovado_hdl::catalog::{CatalogSource, SourceCatalog};
    let catalog_sources = sources
        .iter()
        .map(|s| CatalogSource {
            path: s.name.clone(),
            language: s.language,
            library: s.library.clone(),
            text: s.content.clone(),
        })
        .collect();
    match SourceCatalog::from_sources(catalog_sources) {
        Ok(cat) => cat.fingerprint().to_string(),
        Err(e) => format!("catalog-unavailable:{e}"),
    }
}

// ---- journal -----------------------------------------------------------

/// Journaled surrogate-controller state (everything
/// [`dovado_surrogate::SurrogateController::restore`] needs).
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateJournal {
    /// Selected Nadaraya-Watson bandwidth (bitwise).
    pub bandwidth: f64,
    /// Current threshold Γ (bitwise).
    pub gamma: f64,
    /// Insertions since the last LOO-CV reselection (the amortization
    /// phase — losing this drifts every later reselection).
    pub inserts_since_retrain: usize,
    /// Reselection cadence.
    pub retrain_every: usize,
    /// Decision counters.
    pub stats: ControlStats,
    /// The dataset, verbatim in its bitwise CSV form.
    pub dataset_csv: String,
}

/// One write-ahead snapshot of an exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct Journal {
    /// Hex fingerprint of the configuration that wrote the journal;
    /// resume refuses a mismatch instead of continuing a different run.
    pub fingerprint: String,
    /// Whether the run had satisfied its termination criterion when
    /// this snapshot was taken.
    pub complete: bool,
    /// Simulated tool seconds spent so far (bitwise).
    pub tool_time_s: f64,
    /// Fitness counters so far.
    pub stats: FitnessStats,
    /// Whole-run trace counters so far (the spine's folded totals;
    /// resume splices the deficit back as a `Resume` event).
    pub trace: crate::trace::TraceSummary,
    /// Successful tool invocations so far.
    pub runs: u64,
    /// The explorer engine state: shared ledger plus per-kind state.
    pub snapshot: ExplorerSnapshot,
    /// The portfolio decision of an `--explorer auto` run; resume
    /// commits to the recorded explorer instead of re-racing.
    pub selection: Option<crate::dse::SelectionRecord>,
    /// Surrogate state, when the approximation model is on.
    pub surrogate: Option<SurrogateJournal>,
}

/// The exploration state at one generation boundary, borrowed from
/// wherever it lives — the running engine, problem and evaluator
/// ([`crate::Dovado`]'s boundary) or a whole [`Journal`]
/// ([`Journal::view`]) — for [`JournalWriter::write`] to encode in
/// place. Its fields are [`Journal`]'s.
#[derive(Debug, Clone, Copy)]
pub struct JournalView<'a> {
    /// See [`Journal::fingerprint`].
    pub fingerprint: &'a str,
    /// See [`Journal::complete`].
    pub complete: bool,
    /// See [`Journal::tool_time_s`].
    pub tool_time_s: f64,
    /// See [`Journal::stats`].
    pub stats: FitnessStats,
    /// See [`Journal::trace`].
    pub trace: crate::trace::TraceSummary,
    /// See [`Journal::runs`].
    pub runs: u64,
    /// See [`Ledger::generation`].
    pub generation: u32,
    /// See [`Ledger::evaluations`].
    pub evaluations: u64,
    /// The whole archive so far; a record holds the entries past those
    /// its file already holds.
    pub archive: &'a [Individual],
    /// The whole history so far, recorded like the archive.
    pub history: &'a [GenStats],
    /// The engine's own state.
    pub state: SearchStateRef<'a>,
    /// See [`Journal::selection`].
    pub selection: Option<&'a crate::dse::SelectionRecord>,
    /// See [`Journal::surrogate`].
    pub surrogate: Option<SurrogateView<'a>>,
}

/// The surrogate section of a [`JournalView`]: [`SurrogateJournal`]'s
/// fields, with the dataset borrowed.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateView<'a> {
    /// See [`SurrogateJournal::bandwidth`].
    pub bandwidth: f64,
    /// See [`SurrogateJournal::gamma`].
    pub gamma: f64,
    /// See [`SurrogateJournal::inserts_since_retrain`].
    pub inserts_since_retrain: usize,
    /// See [`SurrogateJournal::retrain_every`].
    pub retrain_every: usize,
    /// See [`SurrogateJournal::stats`].
    pub stats: ControlStats,
    /// The dataset's rows.
    pub dataset: DatasetRows<'a>,
}

/// Where a [`SurrogateView`]'s dataset rows come from.
#[derive(Debug, Clone, Copy)]
pub enum DatasetRows<'a> {
    /// The controller's dataset, written through [`Dataset::write_csv`].
    Live(&'a Dataset),
    /// Its CSV text, as [`SurrogateJournal::dataset_csv`] holds it.
    Csv(&'a str),
}

impl Journal {
    /// This journal as the view [`JournalWriter::write`] encodes.
    pub fn view(&self) -> JournalView<'_> {
        let ledger = &self.snapshot.ledger;
        JournalView {
            fingerprint: &self.fingerprint,
            complete: self.complete,
            tool_time_s: self.tool_time_s,
            stats: self.stats,
            trace: self.trace,
            runs: self.runs,
            generation: ledger.generation,
            evaluations: ledger.evaluations,
            archive: &ledger.archive,
            history: &ledger.history,
            state: self.snapshot.state.as_ref(),
            selection: self.selection.as_ref(),
            surrogate: self.surrogate.as_ref().map(|s| SurrogateView {
                bandwidth: s.bandwidth,
                gamma: s.gamma,
                inserts_since_retrain: s.inserts_since_retrain,
                retrain_every: s.retrain_every,
                stats: s.stats,
                dataset: DatasetRows::Csv(&s.dataset_csv),
            }),
        }
    }
}

impl JournalView<'_> {
    /// The journal this view reads, owned.
    #[cfg(test)]
    pub(crate) fn to_journal(self) -> Journal {
        Journal {
            fingerprint: self.fingerprint.to_string(),
            complete: self.complete,
            tool_time_s: self.tool_time_s,
            stats: self.stats,
            trace: self.trace,
            runs: self.runs,
            snapshot: ExplorerSnapshot {
                ledger: Ledger {
                    generation: self.generation,
                    evaluations: self.evaluations,
                    archive: self.archive.to_vec(),
                    history: self.history.to_vec(),
                },
                state: self.state.into(),
            },
            selection: self.selection.cloned(),
            surrogate: self.surrogate.map(|s| SurrogateJournal {
                bandwidth: s.bandwidth,
                gamma: s.gamma,
                inserts_since_retrain: s.inserts_since_retrain,
                retrain_every: s.retrain_every,
                stats: s.stats,
                dataset_csv: match s.dataset {
                    DatasetRows::Live(dataset) => dataset.to_csv(),
                    DatasetRows::Csv(csv) => csv.to_string(),
                },
            }),
        }
    }
}

/// `genome|raw|min_objs|rank|crowding`: genes in decimal, floats as bit
/// patterns.
fn encode_individual(e: &mut Enc, ind: &Individual) {
    e.genes(&ind.genome).text("|");
    e.floats(&ind.raw).text("|");
    e.floats(&ind.min_objs).text("|");
    e.dec(ind.rank as u64)
        .text("|")
        .hex(ind.crowding.to_bits())
        .end();
}

fn encode_rng(e: &mut Enc, rng: [u64; 4]) {
    e.text("rng");
    for w in rng {
        e.word(w);
    }
    e.end();
}

/// The explorer section: the kind, the ledger's counters, the kind's own
/// fields, then the ledger's history and archive past `history_from` and
/// `archive_from`, labelled with the index their first entry has in the
/// whole run.
fn encode_explorer(e: &mut Enc, run: &JournalView, archive_from: usize, history_from: usize) {
    e.text("explorer ").text(run.state.kind()).end();
    e.text("generation").num(run.generation.into()).end();
    e.text("evaluations").num(run.evaluations).end();
    match run.state {
        SearchStateRef::Nsga2 { rng, population }
        | SearchStateRef::WeightedSum { rng, population } => {
            encode_rng(e, rng);
            e.text("population").num(population.len() as u64).end();
            for ind in population {
                encode_individual(e, ind);
            }
        }
        SearchStateRef::Random { rng } | SearchStateRef::Bayes { rng } => encode_rng(e, rng),
        SearchStateRef::Exhaustive { cursor: None } => e.text("cursor 0").end(),
        SearchStateRef::Exhaustive { cursor: Some(c) } => e.text("cursor 1 ").genes(c).end(),
        SearchStateRef::Annealing {
            rng,
            current,
            energy,
            temperature,
        } => {
            encode_rng(e, rng);
            e.text("current ").genes(current).end();
            e.text("energy").bits(energy).end();
            e.text("temperature").bits(temperature).end();
        }
    }
    let history = &run.history[history_from..];
    e.text("history")
        .num(history_from as u64)
        .num(history.len() as u64)
        .end();
    for g in history {
        e.dec(g.generation.into())
            .num(g.evaluations)
            .num(g.front_size as u64)
            .bits(g.external_cost)
            .end();
    }
    let archive = &run.archive[archive_from..];
    e.text("archive")
        .num(archive_from as u64)
        .num(archive.len() as u64)
        .end();
    for ind in archive {
        encode_individual(e, ind);
    }
}

/// Appends one record's payload to `out`: `run` whole, except that its
/// archive and history hold only the entries past `archive_from` and
/// `history_from` (both 0 for a base record).
fn encode_record(out: &mut Vec<u8>, run: &JournalView, archive_from: usize, history_from: usize) {
    let e = &mut Enc(out);
    e.text("fingerprint ").text(run.fingerprint).end();
    e.text("complete").num(run.complete.into()).end();
    e.text("tool_time").bits(run.tool_time_s).end();
    let s = &run.stats;
    e.text("fitness");
    for n in [
        s.tool_runs,
        s.cached_runs,
        s.estimates,
        s.failures,
        s.transient_failures,
        s.permanent_failures,
        s.retries,
    ] {
        e.num(n);
    }
    e.end();
    let t = &run.trace;
    e.text("trace");
    for n in [
        t.attempts,
        t.retries,
        t.transient_failures,
        t.permanent_failures,
        t.cache_hits,
        t.store_hits,
    ] {
        e.num(n);
    }
    e.bits(t.backoff_s).num(run.runs).end();
    encode_explorer(e, run, archive_from, history_from);
    match run.selection {
        None => e.text("selection 0").end(),
        Some(rec) => {
            e.text("selection 1").end();
            e.text("chosen ").text(&rec.explorer).end();
            e.text("context")
                .num(rec.space_volume)
                .num(rec.objectives.into())
                .end();
            e.text("lowfi")
                .num(rec.lowfi_runs)
                .bits(rec.lowfi_time_s)
                .end();
            e.text("candidates").num(rec.candidates.len() as u64).end();
            for c in &rec.candidates {
                e.text(&c.name)
                    .num(c.evaluations)
                    .bits(c.hypervolume)
                    .bits(c.slope)
                    .end();
            }
        }
    }
    match run.surrogate {
        None => e.text("surrogate 0").end(),
        Some(s) => {
            e.text("surrogate 1").end();
            e.text("bandwidth").bits(s.bandwidth).end();
            e.text("gamma").bits(s.gamma).end();
            e.text("phase")
                .num(s.inserts_since_retrain as u64)
                .num(s.retrain_every as u64)
                .end();
            e.text("control")
                .num(s.stats.cached)
                .num(s.stats.estimated)
                .num(s.stats.evaluated)
                .end();
            match s.dataset {
                DatasetRows::Live(dataset) => {
                    e.text("dataset").num(dataset.len() as u64 + 1).end();
                    dataset
                        .write_csv(e.0)
                        .expect("writing to a Vec cannot fail");
                }
                DatasetRows::Csv(csv) => {
                    e.text("dataset").num(csv.lines().count() as u64).end();
                    for line in csv.lines() {
                        e.text(line).end();
                    }
                }
            }
        }
    }
}

/// Line cursor over one record's payload. Parsing the explorer section
/// also notes where the record's archive and history tails start.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    archive_from: usize,
    history_from: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.lines.next()
    }

    /// Next line, stripped of a required `prefix `.
    fn tagged(&mut self, prefix: &str) -> Option<&'a str> {
        self.next()?.strip_prefix(prefix)?.strip_prefix(' ')
    }

    /// Next tagged line parsed as whitespace-separated `u64`s.
    fn tagged_u64s(&mut self, prefix: &str, n: usize) -> Option<Vec<u64>> {
        let vals: Vec<u64> = self
            .tagged(prefix)?
            .split_whitespace()
            .map(|t| t.parse().ok())
            .collect::<Option<_>>()?;
        (vals.len() == n).then_some(vals)
    }
}

/// One decoded record: a journal whose snapshot holds the archive and
/// history entries past `archive_from` and `history_from` only.
struct Record {
    journal: Journal,
    archive_from: usize,
    history_from: usize,
}

fn parse_record(payload: &str) -> Option<Record> {
    let mut c = Cursor {
        lines: payload.lines(),
        archive_from: 0,
        history_from: 0,
    };
    let fingerprint = c.tagged("fingerprint")?.to_string();
    let complete = match c.tagged("complete")? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let tool_time_s = f64_from_hex(c.tagged("tool_time")?)?;
    let f = c.tagged_u64s("fitness", 7)?;
    let stats = FitnessStats {
        tool_runs: f[0],
        cached_runs: f[1],
        estimates: f[2],
        failures: f[3],
        transient_failures: f[4],
        permanent_failures: f[5],
        retries: f[6],
    };
    let tr: Vec<&str> = c.tagged("trace")?.split_whitespace().collect();
    if tr.len() != 8 {
        return None;
    }
    let trace = crate::trace::TraceSummary {
        attempts: tr[0].parse().ok()?,
        retries: tr[1].parse().ok()?,
        transient_failures: tr[2].parse().ok()?,
        permanent_failures: tr[3].parse().ok()?,
        cache_hits: tr[4].parse().ok()?,
        store_hits: tr[5].parse().ok()?,
        backoff_s: f64_from_hex(tr[6])?,
    };
    let runs: u64 = tr[7].parse().ok()?;
    let snapshot = parse_snapshot(&mut c)?;
    let selection = match c.tagged("selection")? {
        "0" => None,
        "1" => {
            let explorer = c.tagged("chosen")?.to_string();
            let ctx = c.tagged_u64s("context", 2)?;
            let lowfi: Vec<&str> = c.tagged("lowfi")?.split_whitespace().collect();
            if lowfi.len() != 2 {
                return None;
            }
            let n_cand: usize = c.tagged("candidates")?.parse().ok()?;
            let mut candidates = Vec::with_capacity(n_cand);
            for _ in 0..n_cand {
                let toks: Vec<&str> = c.next()?.split_whitespace().collect();
                if toks.len() != 4 {
                    return None;
                }
                candidates.push(crate::obs::CandidateScore {
                    name: toks[0].to_string(),
                    evaluations: toks[1].parse().ok()?,
                    hypervolume: f64_from_hex(toks[2])?,
                    slope: f64_from_hex(toks[3])?,
                });
            }
            Some(crate::dse::SelectionRecord {
                explorer,
                space_volume: ctx[0],
                objectives: ctx[1] as u32,
                lowfi_runs: lowfi[0].parse().ok()?,
                lowfi_time_s: f64_from_hex(lowfi[1])?,
                candidates,
            })
        }
        _ => return None,
    };
    let surrogate = match c.tagged("surrogate")? {
        "0" => None,
        "1" => {
            let bandwidth = f64_from_hex(c.tagged("bandwidth")?)?;
            let gamma = f64_from_hex(c.tagged("gamma")?)?;
            let phase = c.tagged_u64s("phase", 2)?;
            let ctl = c.tagged_u64s("control", 3)?;
            let n_csv: usize = c.tagged("dataset")?.parse().ok()?;
            let mut dataset_csv = String::new();
            for _ in 0..n_csv {
                dataset_csv.push_str(c.next()?);
                dataset_csv.push('\n');
            }
            Some(SurrogateJournal {
                bandwidth,
                gamma,
                inserts_since_retrain: phase[0] as usize,
                retrain_every: phase[1] as usize,
                stats: ControlStats {
                    cached: ctl[0],
                    estimated: ctl[1],
                    evaluated: ctl[2],
                },
                dataset_csv,
            })
        }
        _ => return None,
    };
    if c.next().is_some() {
        return None;
    }
    Some(Record {
        journal: Journal {
            fingerprint,
            complete,
            tool_time_s,
            stats,
            trace,
            runs,
            snapshot,
            selection,
            surrogate,
        },
        archive_from: c.archive_from,
        history_from: c.history_from,
    })
}

fn parse_rng(c: &mut Cursor) -> Option<[u64; 4]> {
    let rng: Vec<u64> = c
        .tagged("rng")?
        .split_whitespace()
        .map(|t| u64::from_str_radix(t, 16).ok())
        .collect::<Option<_>>()?;
    (rng.len() == 4).then(|| [rng[0], rng[1], rng[2], rng[3]])
}

fn parse_genome(tokens: &str) -> Option<Vec<i64>> {
    tokens
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()
}

fn parse_individual(line: &str) -> Option<Individual> {
    let fields: Vec<&str> = line.split('|').collect();
    if fields.len() != 5 {
        return None;
    }
    let genome = parse_genome(fields[0])?;
    let raw: Vec<f64> = fields[1]
        .split_whitespace()
        .map(f64_from_hex)
        .collect::<Option<_>>()?;
    let min_objs: Vec<f64> = fields[2]
        .split_whitespace()
        .map(f64_from_hex)
        .collect::<Option<_>>()?;
    Some(Individual {
        genome,
        raw,
        min_objs,
        rank: fields[3].parse().ok()?,
        crowding: f64_from_hex(fields[4])?,
    })
}

/// The `n` lines of `n` individuals.
fn parse_individual_lines(c: &mut Cursor, n: usize) -> Option<Vec<Individual>> {
    let mut inds = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        inds.push(parse_individual(c.next()?)?);
    }
    Some(inds)
}

fn parse_population(c: &mut Cursor) -> Option<Vec<Individual>> {
    let n: usize = c.tagged("population")?.parse().ok()?;
    parse_individual_lines(c, n)
}

fn parse_snapshot(c: &mut Cursor) -> Option<ExplorerSnapshot> {
    let kind = c.tagged("explorer")?;
    let generation: u32 = c.tagged("generation")?.parse().ok()?;
    let evaluations: u64 = c.tagged("evaluations")?.parse().ok()?;
    let state = match kind {
        "nsga2" => SearchState::Nsga2 {
            rng: parse_rng(c)?,
            population: parse_population(c)?,
        },
        "random" => SearchState::Random { rng: parse_rng(c)? },
        "exhaustive" => {
            let cursor_line = c.tagged("cursor")?;
            let cursor = match cursor_line
                .split_once(' ')
                .map_or((cursor_line, ""), |(a, b)| (a, b))
            {
                ("0", "") => None,
                ("1", rest) => Some(parse_genome(rest)?),
                _ => return None,
            };
            SearchState::Exhaustive { cursor }
        }
        "wsga" => SearchState::WeightedSum {
            rng: parse_rng(c)?,
            population: parse_population(c)?,
        },
        "sa" => SearchState::Annealing {
            rng: parse_rng(c)?,
            current: parse_genome(c.tagged("current")?)?,
            energy: f64_from_hex(c.tagged("energy")?)?,
            temperature: f64_from_hex(c.tagged("temperature")?)?,
        },
        "bayes" => SearchState::Bayes { rng: parse_rng(c)? },
        _ => return None,
    };
    let h = c.tagged_u64s("history", 2)?;
    c.history_from = usize::try_from(h[0]).ok()?;
    let n = usize::try_from(h[1]).ok()?;
    let mut history = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let toks: Vec<&str> = c.next()?.split_whitespace().collect();
        if toks.len() != 4 {
            return None;
        }
        history.push(GenStats {
            generation: toks[0].parse().ok()?,
            evaluations: toks[1].parse().ok()?,
            front_size: toks[2].parse().ok()?,
            external_cost: f64_from_hex(toks[3])?,
        });
    }
    let a = c.tagged_u64s("archive", 2)?;
    c.archive_from = usize::try_from(a[0]).ok()?;
    let archive = parse_individual_lines(c, usize::try_from(a[1]).ok()?)?;
    Some(ExplorerSnapshot {
        ledger: Ledger {
            generation,
            evaluations,
            archive,
            history,
        },
        state,
    })
}

/// Folds `next` onto the state the records before it describe: its
/// small state replaces `prev`'s and its archive and history tails
/// extend `prev`'s. `None` when the tails do not start where `prev`'s
/// archive and history end, or the record belongs to another run or
/// explorer.
fn fold(mut prev: Journal, mut next: Record) -> Option<Journal> {
    if next.journal.fingerprint != prev.fingerprint
        || next.journal.snapshot.kind() != prev.snapshot.kind()
    {
        return None;
    }
    let (held, tail) = (&mut prev.snapshot.ledger, &mut next.journal.snapshot.ledger);
    if (held.archive.len(), held.history.len()) != (next.archive_from, next.history_from) {
        return None;
    }
    held.archive.append(&mut tail.archive);
    held.history.append(&mut tail.history);
    std::mem::swap(&mut held.archive, &mut tail.archive);
    std::mem::swap(&mut held.history, &mut tail.history);
    Some(next.journal)
}

/// The journal's first line, naming the format version.
fn journal_header() -> String {
    format!("{JOURNAL_TAG} {JOURNAL_FORMAT_VERSION}\n")
}

fn journal_io_error(path: &Path, e: std::io::Error) -> DovadoError {
    DovadoError::Config(format!("journal write to {} failed: {e}", path.display()))
}

/// Atomically writes `journal` as a compact journal of one base record
/// (tmp file + rename): a crash mid-write leaves the previous journal
/// intact. This is a fresh [`JournalWriter`]'s first boundary.
pub fn write_journal(path: &Path, journal: &Journal) -> DovadoResult<()> {
    JournalWriter::new(path).write(&journal.view())
}

/// Writes one run's journal, one [`JournalWriter::write`] per generation
/// boundary (see the module docs for the layout and the full-write rule).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    /// Archive and history lengths the file holds; `None` until this
    /// writer's first full write.
    held: Option<(usize, usize)>,
    /// Size of the last full write.
    base_bytes: usize,
    /// Bytes appended since the last full write.
    appended_bytes: usize,
    /// The bytes of the latest boundary's write, kept for the next one:
    /// once it has grown to a record's size, encoding allocates nothing.
    buf: Vec<u8>,
}

impl JournalWriter {
    /// A writer for the journal at `path`. It never appends to a file it
    /// did not write itself: its first boundary is a full write.
    pub fn new(path: impl Into<PathBuf>) -> JournalWriter {
        JournalWriter {
            path: path.into(),
            held: None,
            base_bytes: 0,
            appended_bytes: 0,
            buf: Vec::new(),
        }
    }

    /// Journals one boundary: encodes `run` in place — its whole ledger
    /// on a full write, else only the archive and history entries past
    /// those the file already holds — and writes the record with one
    /// `write_all` (or one atomic replace).
    pub fn write(&mut self, run: &JournalView<'_>) -> DovadoResult<()> {
        let append_from = self.held.filter(|_| self.appended_bytes <= self.base_bytes);
        let (archive_from, history_from) = append_from.unwrap_or((0, 0));
        self.buf.clear();
        if append_from.is_none() {
            self.buf.extend_from_slice(journal_header().as_bytes());
        }
        let payload_at = self.buf.len();
        encode_record(&mut self.buf, run, archive_from, history_from);
        frame_in_place(&mut self.buf, payload_at);
        if append_from.is_some() {
            fs::OpenOptions::new()
                .append(true)
                .open(&self.path)
                .and_then(|mut f| f.write_all(&self.buf))
                .map_err(|e| journal_io_error(&self.path, e))?;
            self.appended_bytes += self.buf.len();
        } else {
            atomic_write(&self.path, &self.buf).map_err(|e| journal_io_error(&self.path, e))?;
            self.base_bytes = self.buf.len();
            self.appended_bytes = 0;
        }
        self.held = Some((run.archive.len(), run.history.len()));
        Ok(())
    }
}

/// Reads and verifies a journal, folding its records in order. A final
/// record the end of the file cuts short is dropped (a crash mid-append;
/// the records before it are the previous boundary). A missing file, a
/// version mismatch, a torn base record, and any complete record with a
/// failed checksum, mismatched offsets or structural damage all refuse
/// loudly — resume must never continue from a half-trusted snapshot.
pub fn read_journal(path: &Path) -> DovadoResult<Journal> {
    let bytes = fs::read(path).map_err(|e| {
        DovadoError::Config(format!("no resumable journal at {}: {e}", path.display()))
    })?;
    let refuse = |why: String| DovadoError::Config(format!("journal at {} {why}", path.display()));
    let mut rest = bytes
        .strip_prefix(journal_header().as_bytes())
        .ok_or_else(|| {
            refuse(format!(
                "is corrupt or from an incompatible version (wanted {JOURNAL_TAG} \
                 v{JOURNAL_FORMAT_VERSION}); rerun the exploration with its store \
                 instead of resuming it"
            ))
        })?;
    let mut folded: Option<Journal> = None;
    let mut n = 0;
    while !rest.is_empty() {
        let (payload, after) = match next_frame(rest) {
            Frame::Whole(payload, after) => (payload, after),
            Frame::Torn if folded.is_some() => break,
            Frame::Torn => return Err(refuse("has a torn base record".into())),
            Frame::Damaged => {
                return Err(refuse(format!(
                    "is corrupt: record {n} fails its checksum or header"
                )))
            }
        };
        let record = parse_record(payload).ok_or_else(|| {
            refuse(format!(
                "passed its checksum but record {n} did not parse (truncated payload?)"
            ))
        })?;
        folded = Some(match folded {
            None if (record.archive_from, record.history_from) == (0, 0) => record.journal,
            None => return Err(refuse("has a base record that does not start at 0".into())),
            Some(prev) => fold(prev, record).ok_or_else(|| {
                refuse(format!(
                    "is corrupt: record {n} does not continue the records before it \
                     (archive/history offsets, run or explorer differ)"
                ))
            })?,
        });
        rest = after;
        n += 1;
    }
    folded.ok_or_else(|| refuse("holds no record".into()))
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_eval() -> Evaluation {
        let mut utilization = ResourceSet::zero();
        utilization.set(ResourceKind::Lut, 1234);
        utilization.set(ResourceKind::Register, 5678);
        Evaluation {
            utilization,
            wns_ns: -0.731_250_000_000_1,
            period_ns: 1.0,
            fmax_mhz: 577.533_843_2,
            power_mw: 143.25,
            tool_time_s: 612.087_5,
        }
    }

    #[test]
    fn evaluation_roundtrip_is_bitwise() {
        let e = sample_eval();
        let back = decode_evaluation(&encode_evaluation(&e)).unwrap();
        assert_eq!(back.utilization, e.utilization);
        for (a, b) in [
            (back.wns_ns, e.wns_ns),
            (back.period_ns, e.period_ns),
            (back.fmax_mhz, e.fmax_mhz),
            (back.power_mw, e.power_mw),
            (back.tool_time_s, e.tool_time_s),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn damaged_evaluation_payloads_decode_to_none() {
        let text = encode_evaluation(&sample_eval());
        assert!(decode_evaluation(text.lines().next().unwrap()).is_none());
        assert!(decode_evaluation(&text.replace("timing", "timimg")).is_none());
        assert!(decode_evaluation("").is_none());
        // Wrong utilization arity.
        let timing_line = text.lines().nth(1).unwrap();
        assert!(decode_evaluation(&format!("util 1 2 3\n{timing_line}\n")).is_none());
    }

    fn sample_journal(surrogate: bool) -> Journal {
        let ind = Individual {
            genome: vec![3, -7],
            raw: vec![1.5, 2.25],
            min_objs: vec![1.5, -2.25],
            rank: 0,
            crowding: f64::INFINITY,
        };
        Journal {
            fingerprint: "00112233445566778899aabbccddeeff".into(),
            complete: false,
            tool_time_s: 1234.5,
            stats: FitnessStats {
                tool_runs: 10,
                cached_runs: 2,
                estimates: 3,
                failures: 1,
                transient_failures: 1,
                permanent_failures: 0,
                retries: 4,
            },
            trace: crate::trace::TraceSummary {
                attempts: 15,
                retries: 4,
                transient_failures: 4,
                permanent_failures: 1,
                cache_hits: 2,
                store_hits: 6,
                backoff_s: 210.0,
            },
            runs: 10,
            snapshot: ExplorerSnapshot {
                state: SearchState::Nsga2 {
                    rng: [1, u64::MAX, 0xDEAD_BEEF, 42],
                    population: vec![ind.clone()],
                },
                ledger: Ledger {
                    generation: 5,
                    evaluations: 60,
                    archive: vec![
                        ind,
                        Individual {
                            genome: vec![1, 2],
                            raw: vec![0.0, -0.0],
                            min_objs: vec![0.0, 0.0],
                            rank: usize::MAX,
                            crowding: 0.125,
                        },
                    ],
                    history: vec![GenStats {
                        generation: 0,
                        evaluations: 12,
                        front_size: 4,
                        external_cost: 99.5,
                    }],
                },
            },
            selection: surrogate.then(|| crate::dse::SelectionRecord {
                explorer: "bayes".into(),
                space_volume: 4096,
                objectives: 3,
                lowfi_runs: 96,
                lowfi_time_s: 512.25,
                candidates: vec![
                    crate::obs::CandidateScore {
                        name: "nsga2".into(),
                        evaluations: 32,
                        hypervolume: 10.5,
                        slope: -0.0,
                    },
                    crate::obs::CandidateScore {
                        name: "bayes".into(),
                        evaluations: 32,
                        hypervolume: 12.0,
                        slope: 1.5,
                    },
                ],
            }),
            surrogate: surrogate.then(|| SurrogateJournal {
                bandwidth: 0.173,
                gamma: 0.05,
                inserts_since_retrain: 7,
                retrain_every: 25,
                stats: ControlStats {
                    cached: 1,
                    estimated: 2,
                    evaluated: 3,
                },
                dataset_csv: "#bounds,0:10;outputs=1\n3,4.5\n".into(),
            }),
        }
    }

    #[test]
    fn journal_roundtrip_with_and_without_surrogate() {
        let dir = std::env::temp_dir().join(format!("dovado-journal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for surrogate in [false, true] {
            let j = sample_journal(surrogate);
            let path = dir.join(format!("j{surrogate}.dovado"));
            write_journal(&path, &j).unwrap();
            let back = read_journal(&path).unwrap();
            assert_eq!(back, j);
            // -0.0 must survive with its sign bit (PartialEq would pass
            // for +0.0 too, so check explicitly).
            if !surrogate {
                assert_eq!(back.snapshot.kind(), "nsga2");
                let raw = &back.snapshot.ledger.archive[1].raw;
                assert_eq!(raw[1].to_bits(), (-0.0f64).to_bits());
            } else {
                let sel = back.selection.as_ref().unwrap();
                assert_eq!(sel.candidates[0].slope.to_bits(), (-0.0f64).to_bits());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_roundtrip_covers_every_explorer_kind() {
        let ind = Individual {
            genome: vec![4, 9],
            raw: vec![2.0],
            min_objs: vec![-2.0],
            rank: 0,
            crowding: 0.5,
        };
        let history = vec![GenStats {
            generation: 1,
            evaluations: 8,
            front_size: 1,
            external_cost: 10.0,
        }];
        let states = vec![
            SearchState::Random { rng: [9, 8, 7, 6] },
            SearchState::Exhaustive {
                cursor: Some(vec![-3, 11]),
            },
            SearchState::Exhaustive { cursor: None },
            SearchState::WeightedSum {
                rng: [1, 2, 3, 4],
                population: vec![ind.clone()],
            },
            SearchState::Annealing {
                rng: [5, 6, 7, 8],
                current: vec![12, -1],
                energy: -3.5,
                temperature: 0.8,
            },
            SearchState::Bayes {
                rng: [11, 12, 13, 14],
            },
        ];
        let dir = std::env::temp_dir().join(format!("dovado-journal-kinds-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for (i, state) in states.into_iter().enumerate() {
            let ledger = Ledger {
                generation: i as u32 + 1,
                evaluations: 8 * (i as u64 + 1),
                archive: vec![ind.clone()],
                history: history.clone(),
            };
            let j = Journal {
                snapshot: ExplorerSnapshot { ledger, state },
                selection: None,
                ..sample_journal(false)
            };
            let path = dir.join(format!("k{i}.dovado"));
            write_journal(&path, &j).unwrap();
            assert_eq!(read_journal(&path).unwrap(), j);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_missing_journal_refuses() {
        let dir = std::env::temp_dir().join(format!("dovado-journal-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.dovado");
        assert!(read_journal(&path).is_err(), "missing file must refuse");

        write_journal(&path, &sample_journal(true)).unwrap();
        let good = fs::read_to_string(&path).unwrap();
        // Flip one byte in the payload: checksum catches it.
        let flipped = good.replacen("generation 5", "generation 6", 1);
        fs::write(&path, &flipped).unwrap();
        assert!(read_journal(&path).is_err(), "bit-flip must refuse");
        // Truncate: structural parse catches what the checksum is told.
        let truncated: String = good.lines().take(6).collect::<Vec<_>>().join("\n");
        fs::write(&path, truncated).unwrap();
        assert!(read_journal(&path).is_err(), "truncation must refuse");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evaluator_key_tracks_config_and_sources() {
        use dovado_hdl::Language;
        let src = vec![HdlSource::new(
            "a.sv",
            Language::SystemVerilog,
            "module a; endmodule",
        )];
        let base = evaluator_key(&src, "a", &EvalConfig::default(), "vivado-sim");
        assert_eq!(
            base,
            evaluator_key(&src, "a", &EvalConfig::default(), "vivado-sim")
        );
        let other_cfg = EvalConfig {
            target_period_ns: 2.0,
            ..Default::default()
        };
        assert_ne!(base, evaluator_key(&src, "a", &other_cfg, "vivado-sim"));
        let edited = vec![HdlSource::new(
            "a.sv",
            Language::SystemVerilog,
            "module a;endmodule",
        )];
        assert_ne!(
            base,
            evaluator_key(&edited, "a", &EvalConfig::default(), "vivado-sim")
        );
        // A different backend must never answer for this one.
        assert_ne!(
            base,
            evaluator_key(&src, "a", &EvalConfig::default(), "mock")
        );
    }

    // ---- appended journal ---------------------------------------------

    /// `j`'s record framed, its archive and history cut past
    /// `archive_from` and `history_from`.
    fn framed_record(j: &Journal, archive_from: usize, history_from: usize) -> Vec<u8> {
        let mut record = Vec::new();
        encode_record(&mut record, &j.view(), archive_from, history_from);
        frame_in_place(&mut record, 0);
        record
    }

    /// Equality down to the float bits: the compact encoding spells every
    /// float as its bit pattern, so equal text means equal bits, `-0.0`
    /// included, where `PartialEq` alone would take `0.0` for it.
    fn assert_bitwise(got: &Journal, want: &Journal) {
        assert_eq!(got, want);
        assert_eq!(framed_record(got, 0, 0), framed_record(want, 0, 0));
    }

    fn boundary_individual(g: usize, i: usize) -> Individual {
        let x = (g * 7 + i) as f64;
        Individual {
            genome: vec![g as i64, -(i as i64)],
            raw: vec![x * 0.5, -0.0],
            min_objs: vec![-0.0, x],
            rank: i,
            crowding: if i == 0 { f64::INFINITY } else { 1.0 / x },
        }
    }

    /// The state after boundary `g` of a run of explorer kind `kind`
    /// (0..6): the archive grows by `g % 4` entries (sometimes none) and
    /// the history by one per boundary, and everything else changes.
    fn boundary_journal(kind: usize, g: usize, selection: bool, surrogate: bool) -> Journal {
        let archive: Vec<Individual> = (0..=g)
            .flat_map(|k| (0..k % 4).map(move |i| boundary_individual(k, i)))
            .collect();
        let history: Vec<GenStats> = (0..=g)
            .map(|k| GenStats {
                generation: k as u32,
                evaluations: 8 * k as u64,
                front_size: k % 3,
                external_cost: if k == 0 { -0.0 } else { k as f64 * 1.25 },
            })
            .collect();
        let population: Vec<Individual> = (0..3).map(|i| boundary_individual(g + 100, i)).collect();
        let rng = [g as u64, u64::MAX - g as u64, 7, 42];
        let state = match kind {
            0 => SearchState::Nsga2 { rng, population },
            1 => SearchState::Random { rng },
            2 => SearchState::Exhaustive {
                cursor: g.is_multiple_of(2).then(|| vec![g as i64, -3]),
            },
            3 => SearchState::WeightedSum { rng, population },
            4 => SearchState::Annealing {
                rng,
                current: vec![g as i64, 1],
                energy: -(g as f64),
                temperature: if g == 0 { -0.0 } else { 0.9f64.powi(g as i32) },
            },
            _ => SearchState::Bayes { rng },
        };
        let ledger = Ledger {
            generation: g as u32,
            evaluations: archive.len() as u64,
            archive,
            history,
        };
        let snapshot = ExplorerSnapshot { ledger, state };
        let sample = sample_journal(true);
        Journal {
            tool_time_s: g as f64 * 10.5,
            stats: FitnessStats {
                tool_runs: g as u64,
                ..sample.stats
            },
            runs: g as u64,
            snapshot,
            selection: sample.selection.filter(|_| selection),
            surrogate: sample
                .surrogate
                .filter(|_| surrogate)
                .map(|sj| SurrogateJournal {
                    inserts_since_retrain: g % 25,
                    dataset_csv: format!("{}{g},-0.5\n", sj.dataset_csv),
                    ..sj
                }),
            ..sample
        }
    }

    /// Byte offsets of the record headers in a journal file.
    fn record_starts(bytes: &[u8]) -> Vec<usize> {
        let mut rest = &bytes[journal_header().len()..];
        let mut starts = Vec::new();
        while !rest.is_empty() {
            starts.push(bytes.len() - rest.len());
            let Frame::Whole(_, after) = next_frame(rest) else {
                panic!("a journal record does not frame");
            };
            rest = after;
        }
        starts
    }

    fn journal_test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dovado-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writer_round_trips_every_boundary_for_every_explorer_kind() {
        let dir = journal_test_dir("writer");
        for kind in 0..6 {
            for (selection, surrogate) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let path = dir.join(format!("j{kind}-{selection}-{surrogate}.dovado"));
                let mut writer = JournalWriter::new(&path);
                let (mut full_writes, mut appends) = (0, 0);
                for g in 0..24 {
                    let journal = Journal {
                        complete: g == 23,
                        ..boundary_journal(kind, g, selection, surrogate)
                    };
                    writer.write(&journal.view()).unwrap();
                    assert_bitwise(&read_journal(&path).unwrap(), &journal);
                    match record_starts(&fs::read(&path).unwrap()).len() {
                        1 => full_writes += 1,
                        _ => appends += 1,
                    }
                }
                assert!(
                    full_writes >= 2 && appends > full_writes,
                    "kind {kind}: {full_writes} full writes, {appends} appends"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal of a base record and three appended ones in `dir`, and
    /// the state each record completes.
    fn appended_journal(dir: &Path) -> (PathBuf, Vec<Journal>) {
        let path = dir.join("appended.dovado");
        let mut writer = JournalWriter::new(&path);
        let states: Vec<Journal> = (8..12)
            .map(|g| boundary_journal(0, g, true, true))
            .collect();
        for state in &states {
            writer.write(&state.view()).unwrap();
        }
        assert_eq!(record_starts(&fs::read(&path).unwrap()).len(), states.len());
        (path, states)
    }

    #[test]
    fn torn_tail_reads_as_the_previous_boundary() {
        let dir = journal_test_dir("torn");
        let (path, states) = appended_journal(&dir);
        let bytes = fs::read(&path).unwrap();
        let starts = record_starts(&bytes);
        let cut_path = dir.join("cut.dovado");
        // A cut exactly at a record boundary is that boundary's state.
        for (k, &start) in starts.iter().enumerate().skip(1) {
            fs::write(&cut_path, &bytes[..start]).unwrap();
            assert_bitwise(&read_journal(&cut_path).unwrap(), &states[k - 1]);
        }
        // A cut anywhere inside the last record, header or payload, drops
        // it: the records before it are the previous boundary.
        let previous = &states[states.len() - 2];
        for cut in starts[starts.len() - 1] + 1..bytes.len() {
            fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert_bitwise(&read_journal(&cut_path).unwrap(), previous);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_byte_in_any_complete_record_refuses() {
        let dir = journal_test_dir("flip");
        let (path, _) = appended_journal(&dir);
        let bytes = fs::read(&path).unwrap();
        let flipped_path = dir.join("flipped.dovado");
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x01;
            fs::write(&flipped_path, &flipped).unwrap();
            assert!(
                read_journal(&flipped_path).is_err(),
                "a flipped byte at {pos} of {} was accepted",
                bytes.len()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offsets_that_do_not_continue_the_records_before_refuse() {
        let dir = journal_test_dir("offsets");
        let (path, states) = appended_journal(&dir);
        let bytes = fs::read(&path).unwrap();
        let last = *record_starts(&bytes).last().unwrap();
        let (prev, cur) = (&states[states.len() - 2], &states[states.len() - 1]);
        let (a, h) = (
            prev.snapshot.ledger.archive.len(),
            prev.snapshot.ledger.history.len(),
        );
        assert!(
            cur.snapshot.ledger.archive.len() > a,
            "the last record must add archive entries"
        );
        let bad_path = dir.join("bad.dovado");
        // Well-framed records, checksums intact, offsets off by one.
        for (archive_from, history_from) in [(a + 1, h), (a - 1, h), (a, h + 1), (a, h - 1)] {
            let mut damaged = bytes[..last].to_vec();
            damaged.extend(framed_record(cur, archive_from, history_from));
            fs::write(&bad_path, &damaged).unwrap();
            let err = read_journal(&bad_path).unwrap_err().to_string();
            assert!(err.contains("offsets"), "{err}");
        }
        // The last record appended twice repeats entries already held.
        let mut replayed = bytes.clone();
        replayed.extend_from_slice(&bytes[last..]);
        fs::write(&bad_path, &replayed).unwrap();
        let err = read_journal(&bad_path).unwrap_err().to_string();
        assert!(err.contains("offsets"), "{err}");
        // A base record must start at 0.
        let mut tail_base = journal_header().into_bytes();
        tail_base.extend(framed_record(cur, a, h));
        fs::write(&bad_path, tail_base).unwrap();
        assert!(read_journal(&bad_path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_base_record_refuses() {
        let dir = journal_test_dir("torn-base");
        let path = dir.join("base.dovado");
        write_journal(&path, &boundary_journal(3, 9, true, true)).unwrap();
        let bytes = fs::read(&path).unwrap();
        let header = journal_header().len();
        let cut_path = dir.join("cut.dovado");
        for cut in header..bytes.len() {
            fs::write(&cut_path, &bytes[..cut]).unwrap();
            assert!(
                read_journal(&cut_path).is_err(),
                "cut at {cut} was accepted"
            );
        }
        fs::write(&cut_path, &bytes[..header + 20]).unwrap();
        let err = read_journal(&cut_path).unwrap_err().to_string();
        assert!(err.contains("torn base record"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
