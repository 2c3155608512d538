//! Stage bench of one tool attempt on the Corundum box.
//!
//! Times, per operation, the three report writers, the three report
//! scrapers, the parse of the generated box, and one whole serial attempt
//! (`Evaluator::evaluate` on a fresh simulator backend), over a fixed set
//! of points of the Corundum space; the fan-out that every parallel
//! tool batch and parallel surrogate decide pays, as one `par_iter` of
//! `FANOUT_ITEMS` trivial items under a `FANOUT_THREADS` cap; and the
//! evaluation store an attempt consults first: a put into a fresh store,
//! opening a store of [`STORE_ENTRIES`] entries, a hit and a miss on it,
//! and decoding a hit's payload (`store_decode`). Two stages time the
//! exploration journal of a Corundum-shaped NSGA-II run (population 32,
//! four objectives): `journal_base`, a fresh writer's base record of a
//! [`JOURNAL_BASE`]-entry archive, and `journal_append`, one appended
//! boundary of [`JOURNAL_STEP`] new archive entries and one history
//! entry. Three stages time the surrogate-guided run's model and
//! explorer on real Corundum evaluations: `knn`, one truncated
//! Nadaraya-Watson prediction at k = [`KNN_K`] on a [`KNN_ROWS`]-row
//! dataset (the surrogate-guided benchmark run's final dataset size);
//! `loo_fresh`, a fresh LOO-CV selection over the default 11-bandwidth
//! grid on [`LOO_ROWS`] rows (the pretrain dataset); and `nds`, one
//! non-dominated sort of [`NDS_POP`] individuals with four objectives
//! (NSGA-II's parents plus offspring). The stores and the journal live
//! under `target/perf_attempt/`, since what creating a file costs
//! depends on the directory. Every
//! repeat times every stage in turn, so the stages see the same machine
//! state; the median of `REPEATS` repeats and its IQR/median spread land
//! in `results/BENCH_attempt.json`. The stage numbers rank what an
//! attempt spends its host time on; there is no timing gate.
//!
//! The bin's global allocator counts heap allocations (and
//! reallocations), and `stage_allocs` reports them per box parse and per
//! serial attempt over [`POINTS`] fixed points, after one warm-up attempt
//! on a fresh backend, per store hit and hit decode, per journal base
//! record and appended boundary, and per prediction, LOO-CV selection and
//! sort. The counts are deterministic and the same in `--smoke` and
//! default mode, so CI gates them.
//!
//! ```text
//! cargo run --release -p dovado-bench --bin perf_attempt [-- --smoke]
//! ```

use dovado::casestudies::corundum;
use dovado::persist::{decode_evaluation, encode_evaluation, JournalView, JournalWriter};
use dovado::{
    generate_box, DesignPoint, EvalConfig, Evaluation, Evaluator, FitnessStats, ParameterSpace,
    TraceSummary, BOX_TOP,
};
use dovado_bench::{json_f, median_and_spread};
use dovado_eda::netlist::Netlist;
use dovado_eda::place_route::ImplResult;
use dovado_eda::power::{parse_power_mw, write_power_report, PowerEstimate};
use dovado_eda::report::{
    parse_period, parse_utilization_report, parse_wns, write_timing_report,
    write_utilization_report,
};
use dovado_eda::{EvalKey, EvalStore};
use dovado_fpga::{Catalog, ResourceKind, ResourceSet};
use dovado_moo::{fast_non_dominated_sort, GenStats, Individual, SearchStateRef};
use dovado_surrogate::loocv::select_bandwidth;
use dovado_surrogate::{Dataset, Kernel, NadarayaWatson};
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

/// Allocations and reallocations since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per call of `op` over `inputs`, each input once.
fn allocs_per_op<T>(inputs: &[T], mut op: impl FnMut(&T)) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for input in inputs {
        op(input);
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / inputs.len() as f64
}

const REPEATS: usize = 5;
/// Fixed points of the micro stages.
const POINTS: usize = 8;
/// Items of the `fanout` stage's batch: one generation of population 32.
const FANOUT_ITEMS: u64 = 32;
/// Thread cap of the `fanout` stage, as under `--jobs 2`.
const FANOUT_THREADS: usize = 2;
/// Entries of the store the `store_*` stages fill, open and read.
const STORE_ENTRIES: u64 = 2_048;
/// Archive entries of the `journal_base` record: a Corundum exploration's
/// 1,952 evaluations (population 32, 60 generations).
const JOURNAL_BASE: usize = 1_952;
/// Archive entries an appended boundary adds: one generation.
const JOURNAL_STEP: usize = 32;
/// Appended boundaries after each base record: few enough that none
/// outgrows the base, so each is an append and none a full write.
const JOURNAL_APPENDS: usize = 16;
/// Rows of the `knn` stage's dataset: the final dataset of the
/// surrogate-guided benchmark run (`--surrogate 200`, population 32 ×
/// 60 generations).
const KNN_ROWS: usize = 346;
/// Neighbours of a truncated prediction (the default `neighbor_k`).
const KNN_K: usize = 64;
/// Rows of the `loo_fresh` stage's dataset: a 200-sample pretrain.
const LOO_ROWS: usize = 200;
/// Individuals of the `nds` stage: a population of 32 plus its
/// offspring.
const NDS_POP: usize = 64;
/// Stages in report order: the JSON keys.
const STAGES: [&str; 19] = [
    "write_utilization",
    "write_timing",
    "write_power",
    "parse_utilization",
    "parse_timing",
    "parse_power",
    "box_parse",
    "attempt",
    "fanout",
    "store_put",
    "store_open",
    "store_hit",
    "store_miss",
    "store_decode",
    "journal_base",
    "journal_append",
    "knn",
    "loo_fresh",
    "nds",
];

/// The domain indices of the `i`-th fixed point: every parameter steps
/// through its domain at its own stride, so the points spread over the
/// space (the first 798 Corundum points are distinct).
fn indices(space: &ParameterSpace, i: u64) -> Vec<u64> {
    space
        .params()
        .iter()
        .enumerate()
        .map(|(j, p)| {
            let j = j as u64;
            (i * (2 * j + 3) + j) % p.domain.cardinality()
        })
        .collect()
}

/// The `i`-th fixed point (see [`indices`]).
fn point(space: &ParameterSpace, i: u64) -> DesignPoint {
    let pairs: Vec<(&str, i64)> = space
        .params()
        .iter()
        .zip(indices(space, i))
        .map(|(p, idx)| {
            (
                p.name.as_str(),
                p.domain.value(idx).expect("index in range"),
            )
        })
        .collect();
    DesignPoint::from_pairs(&pairs)
}

/// An area/frequency run's raw objectives of one evaluation: LUT, FF,
/// BRAM and Fmax.
fn objectives(e: &Evaluation) -> Vec<f64> {
    let used = |kind| e.utilization.get(kind) as f64;
    vec![
        used(ResourceKind::Lut),
        used(ResourceKind::Register),
        used(ResourceKind::Bram),
        e.fmax_mhz,
    ]
}

/// The surrogate stages' inputs: the first [`KNN_ROWS`] fixed points,
/// evaluated, as a dataset over the space's index genomes, its first
/// [`LOO_ROWS`] rows as the pretrain dataset, the model LOO-CV selects
/// on the full one, queries at the next [`POINTS`] points, and the
/// first [`NDS_POP`] evaluations as individuals in minimization space.
struct SurrogateInputs {
    dataset: Dataset,
    pretrain: Dataset,
    model: NadarayaWatson,
    queries: Vec<Vec<i64>>,
    population: Vec<Individual>,
}

impl SurrogateInputs {
    fn new(space: &ParameterSpace, probe: &Evaluator) -> SurrogateInputs {
        let genome = |i: usize| -> Vec<i64> {
            indices(space, i as u64)
                .into_iter()
                .map(|v| v as i64)
                .collect()
        };
        let rows: Vec<(Vec<i64>, Vec<f64>)> = (0..KNN_ROWS)
            .map(|i| {
                let e = probe
                    .evaluate(&point(space, i as u64))
                    .expect("point evaluates");
                (genome(i), objectives(&e))
            })
            .collect();
        let mut dataset = Dataset::new(space.index_bounds(), 4);
        dataset.insert_bulk(rows.iter().cloned());
        let mut pretrain = Dataset::new(space.index_bounds(), 4);
        pretrain.insert_bulk(rows[..LOO_ROWS].iter().cloned());
        let kernel = Kernel::Gaussian;
        let model = NadarayaWatson {
            kernel,
            bandwidth: select_bandwidth(&dataset, kernel, &[]),
        };
        let population = rows[..NDS_POP]
            .iter()
            .map(|(g, raw)| {
                let min_objs = vec![raw[0], raw[1], raw[2], -raw[3]];
                Individual::new(g.clone(), raw.clone(), min_objs)
            })
            .collect();
        SurrogateInputs {
            dataset,
            pretrain,
            model,
            queries: (KNN_ROWS..KNN_ROWS + POINTS).map(genome).collect(),
            population,
        }
    }

    /// One truncated prediction at `query`.
    fn knn(&self, query: &[i64]) {
        black_box(self.model.predict_topk(&self.dataset, query, KNN_K));
    }

    /// One fresh LOO-CV selection over the pretrain dataset.
    fn loo_fresh(&self) {
        black_box(select_bandwidth(&self.pretrain, self.model.kernel, &[]));
    }
}

/// Microseconds per call of `op` over `iterations` rounds of `inputs`.
fn time_us<T>(inputs: &[T], iterations: usize, mut op: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iterations {
        for input in inputs {
            op(input);
        }
    }
    t0.elapsed().as_secs_f64() * 1e6 / (iterations * inputs.len()) as f64
}

/// Puts `entries` into a fresh store at `dir`; returns microseconds per
/// put.
fn fill_store(dir: &Path, entries: &[(EvalKey, String)]) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    let fresh = EvalStore::open(dir).expect("store opens");
    time_us(entries, 1, |(key, payload)| {
        fresh.put(key, payload).expect("put lands");
    })
}

/// Microseconds per operation of the store stages, in `STAGES` order: put
/// `entries` into a fresh store at `dir`, open it `rounds` times, then get
/// every entry `rounds` times, and get as many absent keys once.
fn store_us(dir: &Path, entries: &[(EvalKey, String)], rounds: usize) -> [f64; 4] {
    let put = fill_store(dir, entries);
    let open = time_us(&[dir], rounds, |dir| {
        black_box(EvalStore::open(dir).expect("store opens"));
    });
    let store = EvalStore::open(dir).expect("store opens");
    let hit = time_us(entries, rounds, |(key, _)| {
        black_box(store.get(key).expect("a stored key hits"));
    });
    let misses: Vec<EvalKey> = entries
        .iter()
        .map(|(key, _)| key.extend(&["absent"]))
        .collect();
    let miss = time_us(&misses, 1, |key| {
        black_box(store.get(key));
    });
    [put, open, hit, miss]
}

/// A Corundum-shaped NSGA-II run at `1 + JOURNAL_APPENDS` boundaries:
/// boundary 0 holds `JOURNAL_BASE` archive entries and one history entry,
/// and each later one adds `JOURNAL_STEP` entries and a history entry.
struct JournalRun {
    archive: Vec<Individual>,
    history: Vec<GenStats>,
    population: Vec<Individual>,
}

impl JournalRun {
    /// Individuals over the fixed points and their evaluations, with the
    /// objectives of an area/frequency run: LUT, FF, BRAM and Fmax.
    fn new(points: &[DesignPoint], evaluations: &[Evaluation]) -> JournalRun {
        let individual = |i: usize| {
            let raw = objectives(&evaluations[i % evaluations.len()]);
            let min_objs = vec![raw[0], raw[1], raw[2], -raw[3]];
            Individual {
                genome: points[i % points.len()].values().to_vec(),
                raw,
                min_objs,
                rank: if i.is_multiple_of(7) {
                    usize::MAX
                } else {
                    i % 5
                },
                crowding: if i.is_multiple_of(11) {
                    f64::INFINITY
                } else {
                    1.0 / (i + 1) as f64
                },
            }
        };
        let entries = JOURNAL_BASE + JOURNAL_APPENDS * JOURNAL_STEP;
        JournalRun {
            archive: (0..entries).map(individual).collect(),
            history: (0..=JOURNAL_APPENDS)
                .map(|b| GenStats {
                    generation: b as u32,
                    evaluations: (JOURNAL_BASE + b * JOURNAL_STEP) as u64,
                    front_size: 12 + b,
                    external_cost: 84.0 * b as f64,
                })
                .collect(),
            population: (entries..entries + JOURNAL_STEP).map(individual).collect(),
        }
    }

    /// The run's state at boundary `b`.
    fn view(&self, b: usize) -> JournalView<'_> {
        let evaluated = JOURNAL_BASE + b * JOURNAL_STEP;
        JournalView {
            fingerprint: "00112233445566778899aabbccddeeff",
            complete: false,
            tool_time_s: 84.0 * evaluated as f64,
            stats: FitnessStats {
                tool_runs: evaluated as u64,
                ..FitnessStats::default()
            },
            trace: TraceSummary {
                attempts: evaluated as u64,
                ..TraceSummary::default()
            },
            runs: evaluated as u64,
            generation: (evaluated / JOURNAL_STEP) as u32,
            evaluations: evaluated as u64,
            archive: &self.archive[..evaluated],
            history: &self.history[..=b],
            state: SearchStateRef::Nsga2 {
                rng: [b as u64, u64::MAX, 0xdead_beef, 42],
                population: &self.population,
            },
            selection: None,
            surrogate: None,
        }
    }
}

/// Microseconds per base record and per appended boundary: `rounds`
/// times, a fresh writer at `path` journals boundary 0, then appends the
/// others.
fn journal_us(path: &Path, run: &JournalRun, rounds: usize) -> [f64; 2] {
    let (mut base, mut append) = (Duration::ZERO, Duration::ZERO);
    for _ in 0..rounds {
        let mut writer = JournalWriter::new(path);
        let t0 = Instant::now();
        writer.write(&run.view(0)).expect("the base record lands");
        base += t0.elapsed();
        let t0 = Instant::now();
        for b in 1..=JOURNAL_APPENDS {
            writer.write(&run.view(b)).expect("the append lands");
        }
        append += t0.elapsed();
    }
    [
        base.as_secs_f64() * 1e6 / rounds as f64,
        append.as_secs_f64() * 1e6 / (rounds * JOURNAL_APPENDS) as f64,
    ]
}

/// Allocations of a fresh writer's base record and per appended
/// boundary after it.
fn journal_allocs(path: &Path, run: &JournalRun) -> [f64; 2] {
    let mut writer = JournalWriter::new(path);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    writer.write(&run.view(0)).expect("the base record lands");
    let base = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for b in 1..=JOURNAL_APPENDS {
        writer.write(&run.view(b)).expect("the append lands");
    }
    let appends = ALLOCATIONS.load(Ordering::Relaxed) - before;
    [base as f64, appends as f64 / JOURNAL_APPENDS as f64]
}

/// The inputs the report writers take, from one point's evaluation of
/// the box.
struct ReportInputs {
    used: ResourceSet,
    timing: ImplResult,
    power: PowerEstimate,
}

impl ReportInputs {
    fn new(eval: Evaluation) -> ReportInputs {
        let mut netlist = Netlist::empty(BOX_TOP);
        netlist.crit_path = format!("{BOX_TOP}/BOXED/op_table_reg -> {BOX_TOP}/BOXED/cpl_reg");
        let timing = ImplResult {
            netlist,
            utilization: 0.0,
            crit_delay_ns: eval.period_ns - eval.wns_ns,
            wns_ns: eval.wns_ns,
            period_ns: eval.period_ns,
            runtime_s: eval.tool_time_s,
        };
        // Split the scraped total into a static and a dynamic share.
        let power = PowerEstimate {
            static_mw: eval.power_mw * 0.4,
            dynamic_mw: eval.power_mw * 0.6,
        };
        ReportInputs {
            used: eval.utilization,
            timing,
            power,
        }
    }
}

fn main() {
    let smoke = match std::env::args().nth(1).as_deref() {
        Some("--smoke") => true,
        None => false,
        Some(other) => {
            eprintln!("usage: perf_attempt [--smoke] (got `{other}`)");
            std::process::exit(2);
        }
    };
    let (iterations, attempts) = if smoke { (50, 16) } else { (2_000, 256) };
    let study = corundum::case_study();
    let evaluator = || {
        let config = EvalConfig {
            part: study.part.to_string(),
            ..EvalConfig::default()
        };
        Evaluator::new(study.sources.clone(), &study.top, config).expect("evaluator builds")
    };
    dovado_bench::banner(
        "perf_attempt — where one tool attempt spends its host time",
        "Corundum box: report writers and scrapers, box parse, whole serial attempt, fan-out, store",
    );

    let probe = evaluator();
    let points: Vec<DesignPoint> = (0..attempts as u64)
        .map(|i| point(&study.space, i))
        .collect();
    let part = Catalog::builtin()
        .resolve(study.part)
        .expect("the case study's part is in the catalog")
        .clone();
    let evaluations: Vec<Evaluation> = points[..POINTS]
        .iter()
        .map(|p| probe.evaluate(p).expect("point evaluates"))
        .collect();
    let entries: Vec<(EvalKey, String)> = (0..STORE_ENTRIES)
        .map(|i| {
            let key = EvalKey::from_parts(&["perf_attempt", &i.to_string()]);
            (key, encode_evaluation(&evaluations[i as usize % POINTS]))
        })
        .collect();
    let store_dir = PathBuf::from("target").join("perf_attempt");
    let payloads: Vec<String> = evaluations.iter().map(encode_evaluation).collect();
    let journal_run = JournalRun::new(&points, &evaluations);
    let journal_path = store_dir.join("journal.dovado");
    std::fs::create_dir_all(&store_dir).expect("the bench directory exists");
    let inputs: Vec<ReportInputs> = evaluations.into_iter().map(ReportInputs::new).collect();
    let texts: Vec<(String, String, String)> = inputs
        .iter()
        .map(|r| {
            (
                write_utilization_report(BOX_TOP, &r.used, &part),
                write_timing_report(BOX_TOP, &r.timing),
                write_power_report(BOX_TOP, &r.power, r.timing.fmax_mhz()),
            )
        })
        .collect();
    let boxes: Vec<_> = points[..POINTS]
        .iter()
        .map(|p| generate_box(probe.module(), p).expect("box generates"))
        .collect();
    // Allocation counts: one warm-up attempt fills the backend's parse and
    // script caches, as the first attempt of any run does.
    let counted = evaluator();
    let _ = counted.evaluate(&points[0]);
    let [journal_base_allocs, journal_append_allocs] = journal_allocs(&journal_path, &journal_run);
    let surrogate = SurrogateInputs::new(&study.space, &probe);
    let mut population = surrogate.population.clone();
    let alloc_counts = [
        (
            "box_parse",
            allocs_per_op(&boxes, |b| {
                let _ = black_box(dovado_hdl::parse_source(b.language, &b.source));
            }),
        ),
        (
            "attempt",
            allocs_per_op(&points[1..=POINTS], |p| {
                let _ = black_box(counted.evaluate(p));
            }),
        ),
        ("store_hit", {
            fill_store(&store_dir.join("counted"), &entries);
            let store = EvalStore::open(&store_dir.join("counted")).expect("store opens");
            allocs_per_op(&entries, |(key, _)| {
                black_box(store.get(key));
            })
        }),
        (
            "store_decode",
            allocs_per_op(&payloads, |p| {
                black_box(decode_evaluation(p));
            }),
        ),
        ("journal_base", journal_base_allocs),
        ("journal_append", journal_append_allocs),
        (
            "knn",
            allocs_per_op(&surrogate.queries, |q| surrogate.knn(q)),
        ),
        ("loo_fresh", allocs_per_op(&[()], |_| surrogate.loo_fresh())),
        (
            "nds",
            allocs_per_op(&[()], |_| {
                black_box(fast_non_dominated_sort(&mut population));
            }),
        ),
    ];
    let fanout_batch: Vec<u64> = (0..FANOUT_ITEMS).collect();
    let fanout_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(FANOUT_THREADS)
        .build()
        .expect("pool builds");

    let store_rounds = (iterations / 100).max(1);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    for _ in 0..REPEATS {
        let [store_put, store_open, store_hit, store_miss] =
            store_us(&store_dir.join("timed"), &entries, store_rounds);
        let [journal_base, journal_append] = journal_us(&journal_path, &journal_run, store_rounds);
        let per_stage = [
            time_us(&inputs, iterations, |r| {
                black_box(write_utilization_report(BOX_TOP, &r.used, &part));
            }),
            time_us(&inputs, iterations, |r| {
                black_box(write_timing_report(BOX_TOP, &r.timing));
            }),
            time_us(&inputs, iterations, |r| {
                black_box(write_power_report(BOX_TOP, &r.power, r.timing.fmax_mhz()));
            }),
            time_us(&texts, iterations, |(util, _, _)| {
                let _ = black_box(parse_utilization_report(util));
            }),
            time_us(&texts, iterations, |(_, timing, _)| {
                let _ = black_box(parse_wns(timing));
                let _ = black_box(parse_period(timing));
            }),
            time_us(&texts, iterations, |(_, _, power)| {
                black_box(parse_power_mw(power));
            }),
            time_us(&boxes, iterations, |b| {
                let _ = black_box(dovado_hdl::parse_source(b.language, &b.source));
            }),
            {
                // A fresh backend: no checkpoint or store answers.
                let fresh = evaluator();
                time_us(&points, 1, |p| {
                    let _ = black_box(fresh.evaluate(p));
                })
            },
            fanout_pool.install(|| {
                time_us(std::slice::from_ref(&fanout_batch), iterations, |batch| {
                    let out: Vec<u64> = black_box(batch).par_iter().map(|x| x * 3 + 1).collect();
                    black_box(out);
                })
            }),
            store_put,
            store_open,
            store_hit,
            store_miss,
            time_us(&payloads, iterations, |p| {
                black_box(decode_evaluation(p));
            }),
            journal_base,
            journal_append,
            time_us(&surrogate.queries, iterations, |q| surrogate.knn(q)),
            time_us(&[()], store_rounds, |_| surrogate.loo_fresh()),
            time_us(&[()], iterations, |_| {
                black_box(fast_non_dominated_sort(&mut population));
            }),
        ];
        for (series, us) in samples.iter_mut().zip(per_stage) {
            series.push(us);
        }
    }

    let mut medians = String::new();
    let mut spreads = String::new();
    println!("per operation (median of {REPEATS} repeats, ±IQR/median):");
    for (i, (stage, series)) in STAGES.iter().zip(&mut samples).enumerate() {
        let (median, spread) = median_and_spread(series);
        println!("  {stage:<18}: {median:9.3} us ±{spread:.2}");
        let sep = if i == 0 { "" } else { ", " };
        medians.push_str(&format!("{sep}\"{stage}\": {}", json_f(median)));
        spreads.push_str(&format!("{sep}\"{stage}\": {}", json_f(spread)));
    }
    let mut allocs = String::new();
    println!("allocations per operation (after one warm-up attempt):");
    for (i, (stage, count)) in alloc_counts.iter().enumerate() {
        println!("  {stage:<18}: {count:9.1}");
        let sep = if i == 0 { "" } else { ", " };
        allocs.push_str(&format!("{sep}\"{stage}\": {count:.1}"));
    }
    let mode = if smoke { "smoke" } else { "default" };
    let json = format!(
        "{{\n  \"benchmark\": \"attempt_stages\",\n  \"mode\": \"{mode}\",\n  \"config\": {{\"case_study\": \"{}\", \"part\": \"{}\", \"points\": {POINTS}, \"iterations\": {iterations}, \"attempt_points\": {attempts}, \"fanout_items\": {FANOUT_ITEMS}, \"fanout_threads\": {FANOUT_THREADS}, \"store_entries\": {STORE_ENTRIES}, \"journal_base\": {JOURNAL_BASE}, \"journal_step\": {JOURNAL_STEP}, \"knn_rows\": {KNN_ROWS}, \"knn_k\": {KNN_K}, \"loo_rows\": {LOO_ROWS}, \"nds_pop\": {NDS_POP}, \"repeats\": {REPEATS}}},\n  \"stage_us\": {{{medians}}},\n  \"stage_spread\": {{{spreads}}},\n  \"stage_allocs\": {{{allocs}}}\n}}\n",
        study.name, study.part,
    );
    let path = dovado_bench::results_dir().join("BENCH_attempt.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!();
    println!("wrote {}", path.display());
}
