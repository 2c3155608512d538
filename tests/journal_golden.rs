//! The exploration journal's on-disk format is pinned by golden files.
//! `tests/fixtures/journal_v4.dovado` (NSGA-II) and one
//! `journal_v4_<kind>.dovado` per other explorer kind each hold a base
//! record and two appended records: each must decode to its pinned
//! [`Journal`], and the writer must reproduce it byte for byte, so any
//! change to the layout comes with a `JOURNAL_FORMAT_VERSION` bump and a
//! fixture regeneration (run once with `DOVADO_BLESS=1`).
//! `tests/fixtures/journal_v3.dovado`, written by a v3 build, must refuse
//! to resume.

use dovado::dse::SelectionRecord;
use dovado::persist::{read_journal, Journal, JournalWriter, SurrogateJournal};
use dovado::{
    CandidateScore, Domain, Dovado, DovadoError, DseConfig, EvalConfig, FitnessStats, HdlSource,
    Metric, MetricSet, ParameterSpace, PersistConfig, TraceSummary, JOURNAL_FORMAT_VERSION,
};
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::{ExplorerSnapshot, GenStats, Individual, Ledger, SearchState};
use dovado_surrogate::ControlStats;
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn individual(genome: i64, lut: f64, fmax: f64) -> Individual {
    Individual {
        genome: vec![genome, -genome],
        raw: vec![lut, fmax],
        min_objs: vec![lut, -fmax],
        rank: genome as usize % 3,
        crowding: if genome % 2 == 0 { f64::INFINITY } else { 0.25 },
    }
}

/// The explorer state of kind `kind` at boundary `b` of [`boundaries`],
/// around the given archive and history.
fn snapshot(
    kind: &str,
    b: usize,
    archive: Vec<Individual>,
    history: Vec<GenStats>,
) -> ExplorerSnapshot {
    let rng = [b as u64, u64::MAX, 0xDEAD_BEEF, 42];
    let population = vec![individual(b as i64, -0.0, 300.0)];
    let state = match kind {
        "nsga2" => SearchState::Nsga2 { rng, population },
        "random" => SearchState::Random { rng },
        "exhaustive" => SearchState::Exhaustive {
            cursor: (b < 2).then(|| vec![-(b as i64), 7]),
        },
        "wsga" => SearchState::WeightedSum { rng, population },
        "sa" => SearchState::Annealing {
            rng,
            current: vec![b as i64, -3],
            energy: if b == 0 { -0.0 } else { -1.5 * b as f64 },
            temperature: 0.9f64.powi(b as i32),
        },
        "bayes" => SearchState::Bayes { rng },
        other => panic!("no explorer kind `{other}`"),
    };
    ExplorerSnapshot {
        ledger: Ledger {
            generation: b as u32,
            evaluations: archive.len() as u64,
            archive,
            history,
        },
        state,
    }
}

/// The state after each of three generation boundaries of one run of
/// explorer `kind`: the archive grows by 2 and 1 entries, the history by
/// one entry each time. NSGA-II runs with an `auto` selection and the
/// surrogate on; the other kinds cover the four on/off combinations of
/// the two between them.
fn boundaries(kind: &str) -> Vec<Journal> {
    let (selection, surrogate) = match kind {
        "nsga2" | "sa" => (true, true),
        "random" | "exhaustive" => (true, false),
        "wsga" => (false, true),
        _ => (false, false),
    };
    let archive: Vec<Individual> = (0..9)
        .map(|g| individual(g, 100.0 + g as f64, 250.5 - g as f64))
        .collect();
    let history: Vec<GenStats> = (0..3)
        .map(|g| GenStats {
            generation: g,
            evaluations: 6 + 2 * u64::from(g),
            front_size: 3,
            external_cost: if g == 0 { -0.0 } else { 612.5 * f64::from(g) },
        })
        .collect();
    (0..3)
        .map(|b| {
            let kept = 6 + [0, 2, 3][b];
            Journal {
                fingerprint: "0123456789abcdef0123456789abcdef".into(),
                complete: b == 2,
                tool_time_s: 1837.5 + b as f64,
                stats: FitnessStats {
                    tool_runs: kept as u64,
                    cached_runs: 1,
                    estimates: b as u64,
                    failures: 0,
                    transient_failures: 0,
                    permanent_failures: 0,
                    retries: 2,
                },
                trace: TraceSummary {
                    attempts: 8 + b as u64,
                    retries: 2,
                    transient_failures: 2,
                    permanent_failures: 0,
                    cache_hits: 1,
                    store_hits: 0,
                    backoff_s: 30.0,
                },
                runs: kept as u64,
                snapshot: snapshot(kind, b, archive[..kept].to_vec(), history[..=b].to_vec()),
                selection: selection.then(|| SelectionRecord {
                    explorer: kind.into(),
                    space_volume: 4096,
                    objectives: 2,
                    lowfi_runs: 96,
                    lowfi_time_s: 512.25,
                    candidates: vec![CandidateScore {
                        name: kind.into(),
                        evaluations: 32,
                        hypervolume: 10.5,
                        slope: -0.0,
                    }],
                }),
                surrogate: surrogate.then(|| SurrogateJournal {
                    bandwidth: 0.173,
                    gamma: 0.05,
                    inserts_since_retrain: b,
                    retrain_every: 25,
                    stats: ControlStats {
                        cached: 1,
                        estimated: b as u64,
                        evaluated: 3,
                    },
                    dataset_csv: "#bounds,0:10;outputs=2\n3,4.5,-0.0\n".into(),
                }),
            }
        })
        .collect()
}

/// Journals `states` one boundary each through a fresh writer at `path`.
fn write_boundaries(path: &Path, states: &[Journal]) {
    let mut writer = JournalWriter::new(path);
    for state in states {
        writer.write(&state.view()).unwrap();
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dovado-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn journal_v4_fixture_decodes_to_the_pinned_journal() {
    for kind in ["nsga2", "random", "exhaustive", "wsga", "sa", "bayes"] {
        let states = boundaries(kind);
        let dir = scratch_dir(&format!("golden-{kind}"));
        let written = dir.join("journal.dovado");
        write_boundaries(&written, &states);
        let fixture = fixture_path(&match kind {
            "nsga2" => "journal_v4.dovado".to_string(),
            _ => format!("journal_v4_{kind}.dovado"),
        });
        if std::env::var("DOVADO_BLESS").is_ok() {
            std::fs::copy(&written, &fixture).unwrap();
        }
        let golden =
            std::fs::read(&fixture).unwrap_or_else(|e| panic!("{}: {e}", fixture.display()));
        let text = String::from_utf8(golden.clone()).unwrap();
        assert_eq!(
            text.lines().next().unwrap(),
            format!("dovado-journal {JOURNAL_FORMAT_VERSION}")
        );
        assert_eq!(
            text.lines().filter(|l| l.starts_with("record ")).count(),
            3,
            "{kind}: the fixture holds a base record and two appended records"
        );
        assert!(
            text.contains(&format!("\nexplorer {kind}\n")),
            "{kind}: the fixture holds another explorer's state"
        );

        // The fold of the three records is the last boundary's state, down
        // to the float bits (Debug spells `-0.0` with its sign).
        let read = read_journal(&fixture).unwrap();
        let want = states.last().unwrap();
        assert_eq!(&read, want, "{kind}");
        assert_eq!(format!("{read:?}"), format!("{want:?}"), "{kind}");

        // The writer reproduces the fixture byte for byte: an encoding
        // change must come with a version bump.
        assert_eq!(
            std::fs::read(&written).unwrap(),
            golden,
            "the journal writer drifted from {}; bump JOURNAL_FORMAT_VERSION \
             and regenerate the fixtures together",
            fixture.display()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_v3_journal_refuses_to_resume_with_the_version_error() {
    let v3 = fixture_path("journal_v3.dovado");
    assert!(std::fs::read_to_string(&v3)
        .unwrap()
        .starts_with("dovado-journal 3\n"));
    let err = read_journal(&v3).unwrap_err().to_string();
    assert!(err.contains("incompatible version"), "{err}");

    // `--resume` from a directory holding it refuses before any work.
    let dir = scratch_dir("v3");
    let persist = PersistConfig {
        resume: true,
        ..PersistConfig::new(&dir)
    };
    std::fs::copy(&v3, persist.journal_path()).unwrap();
    let tool = Dovado::new(
        vec![HdlSource::new(
            "fifo.sv",
            Language::SystemVerilog,
            "module fifo_v3 #(parameter DEPTH = 8)(input logic clk_i);\nendmodule\n",
        )],
        "fifo_v3",
        ParameterSpace::new().with(
            "DEPTH",
            Domain::Range {
                lo: 2,
                hi: 16,
                step: 2,
            },
        ),
        EvalConfig::default(),
    )
    .unwrap();
    let cfg = DseConfig {
        metrics: MetricSet::new(vec![Metric::Utilization(ResourceKind::Lut), Metric::Fmax]),
        ..DseConfig::default()
    };
    match tool.explore_persistent(&cfg, &persist) {
        Err(DovadoError::Config(msg)) => {
            assert!(msg.contains("incompatible version"), "{msg}")
        }
        other => panic!("a v3 journal must refuse to resume, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
