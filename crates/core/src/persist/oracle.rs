//! The journal and store-entry codec as it was before records were
//! encoded in place, kept as an oracle: every record the in-place
//! encoder writes, every file a [`JournalWriter`] leaves, and every
//! answer of [`decode_evaluation`] must equal this module's, byte for
//! byte and bit for bit, on arbitrary journals and damaged entries.

use super::*;
use dovado_eda::frame::RECORD_TAG;
use dovado_eda::hash::fnv1a;

fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

pub fn encode_evaluation(e: &Evaluation) -> String {
    let util: Vec<String> = ResourceKind::ALL
        .iter()
        .map(|&k| e.utilization.get(k).to_string())
        .collect();
    format!(
        "util {}\ntiming {} {} {} {} {}\n",
        util.join(" "),
        f64_hex(e.wns_ns),
        f64_hex(e.period_ns),
        f64_hex(e.fmax_mhz),
        f64_hex(e.power_mw),
        f64_hex(e.tool_time_s),
    )
}

pub fn decode_evaluation(text: &str) -> Option<Evaluation> {
    let mut lines = text.lines();
    let util_line = lines.next()?.strip_prefix("util ")?;
    let counts: Vec<u64> = util_line
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<Vec<u64>>>()?;
    if counts.len() != ResourceKind::ALL.len() {
        return None;
    }
    let mut utilization = ResourceSet::zero();
    for (&kind, &n) in ResourceKind::ALL.iter().zip(&counts) {
        utilization.set(kind, n);
    }
    let timing: Vec<f64> = lines
        .next()?
        .strip_prefix("timing ")?
        .split_whitespace()
        .map(f64_from_hex)
        .collect::<Option<Vec<f64>>>()?;
    if timing.len() != 5 {
        return None;
    }
    Some(Evaluation {
        utilization,
        wns_ns: timing[0],
        period_ns: timing[1],
        fmax_mhz: timing[2],
        power_mw: timing[3],
        tool_time_s: timing[4],
    })
}

fn individual_line(ind: &Individual) -> String {
    let bits = |v: &[f64]| v.iter().map(|x| f64_hex(*x)).collect::<Vec<_>>().join(" ");
    format!(
        "{}|{}|{}|{}|{}",
        genome_tokens(&ind.genome),
        bits(&ind.raw),
        bits(&ind.min_objs),
        ind.rank,
        f64_hex(ind.crowding)
    )
}

fn push_rng(out: &mut String, state: &[u64; 4]) {
    out.push_str(&format!(
        "rng {:016x} {:016x} {:016x} {:016x}\n",
        state[0], state[1], state[2], state[3]
    ));
}

fn push_individuals(out: &mut String, header: &str, inds: &[Individual]) {
    out.push_str(&format!("{header} {}\n", inds.len()));
    for ind in inds {
        out.push_str(&individual_line(ind));
        out.push('\n');
    }
}

fn genome_tokens(genome: &[i64]) -> String {
    let toks: Vec<String> = genome.iter().map(|x| x.to_string()).collect();
    toks.join(" ")
}

fn serialize_snapshot(
    out: &mut String,
    snap: &ExplorerSnapshot,
    archive_from: usize,
    history_from: usize,
) {
    let ExplorerSnapshot { ledger, state } = snap;
    out.push_str(&format!("explorer {}\n", state.kind()));
    out.push_str(&format!("generation {}\n", ledger.generation));
    out.push_str(&format!("evaluations {}\n", ledger.evaluations));
    match state {
        SearchState::Nsga2 { rng, population } | SearchState::WeightedSum { rng, population } => {
            push_rng(out, rng);
            push_individuals(out, "population", population);
        }
        SearchState::Random { rng } | SearchState::Bayes { rng } => push_rng(out, rng),
        SearchState::Exhaustive { cursor: None } => out.push_str("cursor 0\n"),
        SearchState::Exhaustive { cursor: Some(c) } => {
            out.push_str(&format!("cursor 1 {}\n", genome_tokens(c)));
        }
        SearchState::Annealing {
            rng,
            current,
            energy,
            temperature,
        } => {
            push_rng(out, rng);
            out.push_str(&format!("current {}\n", genome_tokens(current)));
            out.push_str(&format!("energy {}\n", f64_hex(*energy)));
            out.push_str(&format!("temperature {}\n", f64_hex(*temperature)));
        }
    }
    out.push_str(&format!(
        "history {history_from} {}\n",
        ledger.history.len()
    ));
    for g in &ledger.history {
        out.push_str(&format!(
            "{} {} {} {}\n",
            g.generation,
            g.evaluations,
            g.front_size,
            f64_hex(g.external_cost)
        ));
    }
    push_individuals(out, &format!("archive {archive_from}"), &ledger.archive);
}

/// One record's payload: `j` whole, except that its snapshot's archive
/// and history hold only the entries past `archive_from` and
/// `history_from` (the caller cuts them, as [`tail_of`] does).
pub fn serialize_record(j: &Journal, archive_from: usize, history_from: usize) -> String {
    let s = &j.stats;
    let mut out = String::new();
    out.push_str(&format!("fingerprint {}\n", j.fingerprint));
    out.push_str(&format!("complete {}\n", u8::from(j.complete)));
    out.push_str(&format!("tool_time {}\n", f64_hex(j.tool_time_s)));
    out.push_str(&format!(
        "fitness {} {} {} {} {} {} {}\n",
        s.tool_runs,
        s.cached_runs,
        s.estimates,
        s.failures,
        s.transient_failures,
        s.permanent_failures,
        s.retries
    ));
    let t = &j.trace;
    out.push_str(&format!(
        "trace {} {} {} {} {} {} {} {}\n",
        t.attempts,
        t.retries,
        t.transient_failures,
        t.permanent_failures,
        t.cache_hits,
        t.store_hits,
        f64_hex(t.backoff_s),
        j.runs
    ));
    serialize_snapshot(&mut out, &j.snapshot, archive_from, history_from);
    match &j.selection {
        None => out.push_str("selection 0\n"),
        Some(rec) => {
            out.push_str("selection 1\n");
            out.push_str(&format!("chosen {}\n", rec.explorer));
            out.push_str(&format!(
                "context {} {}\n",
                rec.space_volume, rec.objectives
            ));
            out.push_str(&format!(
                "lowfi {} {}\n",
                rec.lowfi_runs,
                f64_hex(rec.lowfi_time_s)
            ));
            out.push_str(&format!("candidates {}\n", rec.candidates.len()));
            for c in &rec.candidates {
                out.push_str(&format!(
                    "{} {} {} {}\n",
                    c.name,
                    c.evaluations,
                    f64_hex(c.hypervolume),
                    f64_hex(c.slope)
                ));
            }
        }
    }
    match &j.surrogate {
        None => out.push_str("surrogate 0\n"),
        Some(sj) => {
            out.push_str("surrogate 1\n");
            out.push_str(&format!("bandwidth {}\n", f64_hex(sj.bandwidth)));
            out.push_str(&format!("gamma {}\n", f64_hex(sj.gamma)));
            out.push_str(&format!(
                "phase {} {}\n",
                sj.inserts_since_retrain, sj.retrain_every
            ));
            out.push_str(&format!(
                "control {} {} {}\n",
                sj.stats.cached, sj.stats.estimated, sj.stats.evaluated
            ));
            let csv_lines = sj.dataset_csv.lines().count();
            out.push_str(&format!("dataset {csv_lines}\n"));
            for line in sj.dataset_csv.lines() {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

pub fn frame_record(payload: &str) -> String {
    let fields = format!(
        "{RECORD_TAG} {} {:016x}",
        payload.len(),
        fnv1a(payload.as_bytes())
    );
    format!("{fields} {:016x}\n{payload}", fnv1a(fields.as_bytes()))
}

/// `j` with its snapshot's archive and history cut to the entries past
/// `archive_from` and `history_from`.
pub fn tail_of(j: &Journal, archive_from: usize, history_from: usize) -> Journal {
    let mut tail = j.clone();
    let ledger = &mut tail.snapshot.ledger;
    ledger.archive.drain(..archive_from);
    ledger.history.drain(..history_from);
    tail
}

/// The journal writer as it was: one owned, cut copy of the state per
/// boundary, serialized through `format!`, framed by copying.
pub struct Writer {
    path: PathBuf,
    held: Option<(usize, usize)>,
    base_bytes: usize,
    appended_bytes: usize,
}

impl Writer {
    pub fn new(path: impl Into<PathBuf>) -> Writer {
        Writer {
            path: path.into(),
            held: None,
            base_bytes: 0,
            appended_bytes: 0,
        }
    }

    pub fn write(&mut self, state: &Journal) {
        let append_from = self.held.filter(|_| self.appended_bytes <= self.base_bytes);
        let (archive_from, history_from) = append_from.unwrap_or((0, 0));
        let journal = tail_of(state, archive_from, history_from);
        let ledger = &journal.snapshot.ledger;
        let held = (
            archive_from + ledger.archive.len(),
            history_from + ledger.history.len(),
        );
        let record = frame_record(&serialize_record(&journal, archive_from, history_from));
        if append_from.is_some() {
            fs::OpenOptions::new()
                .append(true)
                .open(&self.path)
                .and_then(|mut f| f.write_all(record.as_bytes()))
                .unwrap();
            self.appended_bytes += record.len();
        } else {
            let text = journal_header() + &record;
            atomic_write(&self.path, text.as_bytes()).unwrap();
            self.base_bytes = text.len();
            self.appended_bytes = 0;
        }
        self.held = Some(held);
    }
}

mod properties {
    use super::*;
    use crate::dse::SelectionRecord;
    use crate::obs::CandidateScore;
    use crate::trace::TraceSummary;
    use dovado_surrogate::Bounds;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// A float the codec must keep bit for bit: a signed zero, an
    /// infinity, a NaN with an arbitrary payload, a subnormal, or any
    /// bit pattern at all.
    fn float(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8u32) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::from_bits(rng.next_u64() | 0x7ff0_0000_0000_0001),
            5 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
            6 => rng.gen_range(-1e3..1e3),
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn floats(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| float(rng)).collect()
    }

    fn count(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..4u32) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.gen_range(0..1000u64),
            _ => rng.next_u64(),
        }
    }

    fn genes(rng: &mut StdRng, n: usize) -> Vec<i64> {
        (0..n)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => rng.gen_range(-9..10i64),
                _ => rng.next_u64() as i64,
            })
            .collect()
    }

    /// An individual of `dims` genes and objectives; unranked archive
    /// entries carry `usize::MAX`.
    fn individual(rng: &mut StdRng, dims: (usize, usize)) -> Individual {
        Individual {
            genome: genes(rng, dims.0),
            raw: floats(rng, dims.1),
            min_objs: floats(rng, dims.1),
            rank: match rng.gen_range(0..3u32) {
                0 => usize::MAX,
                1 => rng.gen_range(0..5usize),
                _ => rng.next_u64() as usize,
            },
            crowding: float(rng),
        }
    }

    /// Up to `max` individuals, none at all about one time in four.
    fn individuals(rng: &mut StdRng, dims: (usize, usize), max: usize) -> Vec<Individual> {
        let n = if rng.gen_bool(0.25) {
            0
        } else {
            rng.gen_range(0..=max)
        };
        (0..n).map(|_| individual(rng, dims)).collect()
    }

    /// Up to `max` history entries.
    fn history(rng: &mut StdRng, max: usize) -> Vec<GenStats> {
        (0..rng.gen_range(0..=max))
            .map(|_| GenStats {
                generation: count(rng) as u32,
                evaluations: count(rng),
                front_size: count(rng) as usize,
                external_cost: float(rng),
            })
            .collect()
    }

    fn rng_words(rng: &mut StdRng) -> [u64; 4] {
        [count(rng), count(rng), count(rng), count(rng)]
    }

    /// A state of kind `kind` (0..6, in [`SearchState`]'s order).
    fn state(rng: &mut StdRng, kind: usize, dims: (usize, usize)) -> SearchState {
        let words = rng_words(rng);
        match kind {
            0 => SearchState::Nsga2 {
                rng: words,
                population: individuals(rng, dims, 12),
            },
            1 => SearchState::Random { rng: words },
            2 => SearchState::Exhaustive {
                cursor: rng.gen_bool(0.7).then(|| genes(rng, dims.0)),
            },
            3 => SearchState::WeightedSum {
                rng: words,
                population: individuals(rng, dims, 12),
            },
            4 => SearchState::Annealing {
                rng: words,
                current: genes(rng, dims.0),
                energy: float(rng),
                temperature: float(rng),
            },
            _ => SearchState::Bayes { rng: words },
        }
    }

    fn selection(rng: &mut StdRng) -> Option<SelectionRecord> {
        rng.gen_bool(0.5).then(|| SelectionRecord {
            explorer: ["nsga2", "bayes", "sa"][rng.gen_range(0..3usize)].into(),
            space_volume: count(rng),
            objectives: count(rng) as u32,
            lowfi_runs: count(rng),
            lowfi_time_s: float(rng),
            candidates: (0..rng.gen_range(0..4usize))
                .map(|i| CandidateScore {
                    name: format!("c{i}"),
                    evaluations: count(rng),
                    hypervolume: float(rng),
                    slope: float(rng),
                })
                .collect(),
        })
    }

    /// A live dataset of `rows` rows (0 too) over small bounds, with
    /// arbitrary outputs.
    fn dataset(rng: &mut StdRng, rows: usize) -> Dataset {
        let dims = rng.gen_range(1..4usize);
        let outputs = rng.gen_range(0..4usize);
        let mut ds = Dataset::new(Bounds::new(vec![(-50, 50); dims]), outputs);
        for _ in 0..rows {
            let point = (0..dims).map(|_| rng.gen_range(-50..=50i64)).collect();
            ds.insert(point, floats(rng, outputs));
        }
        ds
    }

    /// CSV text as a journal holds it, with the line shapes `str::lines`
    /// treats specially: CRLF endings, empty lines, no final newline.
    fn csv_text(rng: &mut StdRng) -> String {
        let mut text = String::from("#bounds,0:10;outputs=1\n");
        for _ in 0..rng.gen_range(0..5usize) {
            text.push_str(["3|4.5", "", "-1|NaN\r", "7|inf", "2|-0"][rng.gen_range(0..5usize)]);
            text.push_str(["\n", "\r\n", "\n\n"][rng.gen_range(0..3usize)]);
        }
        if rng.gen_bool(0.3) {
            text.push_str("9|1e300");
        }
        text
    }

    fn surrogate_scalars(rng: &mut StdRng, dataset_csv: String) -> SurrogateJournal {
        SurrogateJournal {
            bandwidth: float(rng),
            gamma: float(rng),
            inserts_since_retrain: count(rng) as usize,
            retrain_every: count(rng) as usize,
            stats: ControlStats {
                cached: count(rng),
                estimated: count(rng),
                evaluated: count(rng),
            },
            dataset_csv,
        }
    }

    /// An arbitrary journal of kind `kind`, and the live dataset behind
    /// its surrogate section when it has one.
    fn journal(rng: &mut StdRng, kind: usize) -> (Journal, Option<Dataset>) {
        let dims = (rng.gen_range(0..4usize), rng.gen_range(0..5usize));
        let ledger = Ledger {
            generation: count(rng) as u32,
            evaluations: count(rng),
            archive: individuals(rng, dims, 20),
            history: if rng.gen_bool(0.25) {
                Vec::new()
            } else {
                history(rng, 5)
            },
        };
        let (surrogate, live) = match rng.gen_range(0..3u32) {
            0 => (None, None),
            1 => {
                let csv = csv_text(rng);
                (Some(surrogate_scalars(rng, csv)), None)
            }
            _ => {
                let rows = rng.gen_range(0..6usize);
                let ds = dataset(rng, rows);
                (Some(surrogate_scalars(rng, ds.to_csv())), Some(ds))
            }
        };
        let journal = Journal {
            fingerprint: format!("{:032x}", u128::from(count(rng))),
            complete: rng.gen_bool(0.5),
            tool_time_s: float(rng),
            stats: FitnessStats {
                tool_runs: count(rng),
                cached_runs: count(rng),
                estimates: count(rng),
                failures: count(rng),
                transient_failures: count(rng),
                permanent_failures: count(rng),
                retries: count(rng),
            },
            trace: TraceSummary {
                attempts: count(rng),
                retries: count(rng),
                transient_failures: count(rng),
                permanent_failures: count(rng),
                cache_hits: count(rng),
                store_hits: count(rng),
                backoff_s: float(rng),
            },
            runs: count(rng),
            snapshot: ExplorerSnapshot {
                state: state(rng, kind, dims),
                ledger,
            },
            selection: selection(rng),
            surrogate,
        };
        (journal, live)
    }

    /// `journal`'s view, reading the dataset from `live` when there is
    /// one, as a running exploration's boundary does.
    fn view<'a>(journal: &'a Journal, live: Option<&'a Dataset>) -> JournalView<'a> {
        let mut view = journal.view();
        if let (Some(s), Some(ds)) = (&mut view.surrogate, live) {
            s.dataset = DatasetRows::Live(ds);
        }
        view
    }

    fn oracle_record(journal: &Journal, archive_from: usize, history_from: usize) -> String {
        frame_record(&serialize_record(
            &tail_of(journal, archive_from, history_from),
            archive_from,
            history_from,
        ))
    }

    #[test]
    fn records_are_the_oracles_bytes_at_every_tail_offset() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0001);
        let mut buf = Vec::new();
        for case in 0..600 {
            let (j, live) = journal(&mut rng, case % 6);
            let ledger = &j.snapshot.ledger;
            let a = rng.gen_range(0..=ledger.archive.len());
            let h = rng.gen_range(0..=ledger.history.len());
            for (archive_from, history_from) in [(0, 0), (a, h), (ledger.archive.len(), 0)] {
                buf.clear();
                buf.extend_from_slice(b"kept");
                encode_record(
                    &mut buf,
                    &view(&j, live.as_ref()),
                    archive_from,
                    history_from,
                );
                frame_in_place(&mut buf, 4);
                assert_eq!(
                    String::from_utf8_lossy(&buf[4..]),
                    oracle_record(&j, archive_from, history_from),
                    "case {case} at ({archive_from}, {history_from})"
                );
            }
        }
    }

    /// The next boundary's state: the archive and history grow (by
    /// nothing, sometimes, and by a lot, sometimes, which forces a full
    /// write), everything else is drawn afresh, and a live dataset gains
    /// rows.
    fn next_boundary(rng: &mut StdRng, prev: &Journal, live: Option<&mut Dataset>) -> Journal {
        let (mut next, _) = journal(rng, 0);
        let dims = prev
            .snapshot
            .ledger
            .archive
            .first()
            .map_or((2, 3), |i| (i.genome.len(), i.raw.len()));
        next.fingerprint = prev.fingerprint.clone();
        next.snapshot.state = state(rng, kind_index(&prev.snapshot.state), dims);
        let mut ledger = prev.snapshot.ledger.clone();
        let grow = if rng.gen_bool(0.1) { 120 } else { 6 };
        ledger.archive.extend(individuals(rng, dims, grow));
        ledger.history.extend(history(rng, 2));
        next.snapshot.ledger = ledger;
        next.surrogate = prev.surrogate.clone().map(|mut s| {
            match live {
                Some(ds) => {
                    for _ in 0..rng.gen_range(0..4usize) {
                        let point = (0..ds.dim()).map(|_| rng.gen_range(-50..=50i64)).collect();
                        ds.insert(point, floats(rng, ds.n_outputs()));
                    }
                    s.dataset_csv = ds.to_csv();
                }
                None => s.dataset_csv = csv_text(rng),
            }
            s.gamma = float(rng);
            s
        });
        next
    }

    fn kind_index(state: &SearchState) -> usize {
        ["nsga2", "random", "exhaustive", "wsga", "sa", "bayes"]
            .iter()
            .position(|&k| k == state.kind())
            .expect("a known kind")
    }

    #[test]
    fn a_writer_over_many_boundaries_leaves_the_oracle_writers_file() {
        let dir =
            std::env::temp_dir().join(format!("dovado-journal-oracle-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let (ours, theirs) = (dir.join("ours.dovado"), dir.join("oracle.dovado"));
        let mut rng = StdRng::seed_from_u64(0x5eed_0002);
        for run in 0..48 {
            let (mut state, mut live) = journal(&mut rng, run % 6);
            let mut writer = JournalWriter::new(&ours);
            let mut oracle = Writer::new(&theirs);
            for boundary in 0..rng.gen_range(1..30usize) {
                writer.write(&view(&state, live.as_ref())).unwrap();
                oracle.write(&state);
                let (got, want) = (fs::read(&ours).unwrap(), fs::read(&theirs).unwrap());
                assert!(
                    got == want,
                    "run {run}, boundary {boundary}: the files differ"
                );
                // Equal records mean bitwise-equal floats, NaN included.
                // (A bare `\r` ending a CSV line reads back as a line
                // ending; a dataset never writes one.)
                let csv = state.surrogate.as_ref().map(|s| &s.dataset_csv);
                if !csv.is_some_and(|csv| csv.contains('\r')) {
                    assert_eq!(
                        serialize_record(&read_journal(&ours).unwrap(), 0, 0),
                        serialize_record(&state, 0, 0)
                    );
                }
                state = next_boundary(&mut rng, &state, live.as_mut());
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    fn arbitrary_evaluation(rng: &mut StdRng) -> Evaluation {
        let mut utilization = ResourceSet::zero();
        for kind in ResourceKind::ALL {
            utilization.set(kind, count(rng));
        }
        Evaluation {
            utilization,
            wns_ns: float(rng),
            period_ns: float(rng),
            fmax_mhz: float(rng),
            power_mw: float(rng),
            tool_time_s: float(rng),
        }
    }

    type Bits = (ResourceSet, [u64; 5]);

    fn bits(e: Option<Evaluation>) -> Option<Bits> {
        e.map(|e| {
            (
                e.utilization,
                [e.wns_ns, e.period_ns, e.fmax_mhz, e.power_mw, e.tool_time_s].map(f64::to_bits),
            )
        })
    }

    fn assert_decodes_as_the_oracle(text: &str) {
        assert_eq!(
            bits(super::super::decode_evaluation(text)),
            bits(decode_evaluation(text)),
            "{text:?}"
        );
    }

    /// Pieces a garbling splices in: separators `split_whitespace` and
    /// `lines` treat specially, signs, uppercase hex, tags, digits.
    const GARBLE: [&str; 16] = [
        " ",
        "\t",
        "\r",
        "\n",
        "\r\n",
        "\u{a0}",
        "\u{3000}",
        "\u{85}",
        "+",
        "-",
        "F",
        "0",
        "9",
        "util ",
        "timing ",
        "ffffffffffffffff",
    ];

    #[test]
    fn evaluations_encode_as_the_oracle_and_decode_exactly_what_it_accepts() {
        let mut rng = StdRng::seed_from_u64(0x5eed_0003);
        for _ in 0..50 {
            let e = arbitrary_evaluation(&mut rng);
            let text = super::super::encode_evaluation(&e);
            assert_eq!(text, encode_evaluation(&e));
            assert_eq!(bits(super::super::decode_evaluation(&text)), bits(Some(e)));
            for cut in 0..text.len() {
                assert_decodes_as_the_oracle(&text[..cut]);
            }
            for at in 0..text.len() {
                for bit in 0..8 {
                    let mut flipped = text.clone().into_bytes();
                    flipped[at] ^= 1 << bit;
                    if let Ok(flipped) = String::from_utf8(flipped) {
                        assert_decodes_as_the_oracle(&flipped);
                    }
                }
            }
            for _ in 0..200 {
                let mut garbled = text.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    let mut at = rng.gen_range(0..=garbled.len());
                    while !garbled.is_char_boundary(at) {
                        at -= 1;
                    }
                    let piece = GARBLE[rng.gen_range(0..GARBLE.len())];
                    match rng.gen_range(0..3u32) {
                        0 => garbled.insert_str(at, piece),
                        1 => {
                            let end = garbled[at..]
                                .char_indices()
                                .nth(1)
                                .map_or(garbled.len(), |(i, _)| at + i);
                            garbled.replace_range(at..end, piece);
                        }
                        _ => {
                            let end = garbled[at..]
                                .char_indices()
                                .nth(1)
                                .map_or(garbled.len(), |(i, _)| at + i);
                            garbled.replace_range(at..end, "");
                        }
                    }
                }
                assert_decodes_as_the_oracle(&garbled);
            }
        }
    }
}
