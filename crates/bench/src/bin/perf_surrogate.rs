//! Surrogate-mode batch-evaluation performance: the staged pipeline
//! (decide → dedup + tool → record, amortized LOO-CV), serial and
//! parallel.
//!
//! Workload: 4 objectives (LUT, FF, Fmax, power), population 64, synthetic
//! dataset M = 500 — the reference configuration. Also measures the
//! per-record cost of eager vs amortized bandwidth reselection across
//! M ∈ {100 … 10⁵} (`--full` extends to 10⁶; `--smoke` is the CI subset).
//!
//! Every timing is repeated [`REPEATS`] times, interleaving the variants it
//! compares; the JSON reports the median and the spread (interquartile
//! range over median). The staged-parallel pipeline runs inside an
//! explicit 2-thread pool and `config.threads` is the worker count
//! measured inside it. Writes `results/BENCH_surrogate.json`.
//!
//! The legacy genome-at-a-time serial loop with retrain-after-every-insert
//! is retired: once incremental LOO-CV made a reselection cheap, it ran
//! only 1.09× slower than the staged pipeline. Its last measurement stays
//! in the JSON as the pinned `legacy_serial_historical` block.
//!
//! Gates: at M = 100 (exact LOO-CV) eager reselection must cost less
//! than 5× amortized per record — incremental scoring makes one
//! reselection after one insert cheap — and amortized record cost must
//! grow less than 30× from 10⁴ to 10⁵ rows.

use dovado::{
    Domain, DseProblem, EvalConfig, Evaluator, HdlSource, Metric, MetricSet, ParameterSpace,
    SurrogateConfig,
};
use dovado_bench::{json_f, median_and_spread};
use dovado_fpga::ResourceKind;
use dovado_hdl::Language;
use dovado_moo::Problem;
use dovado_surrogate::{Bounds, SurrogateController, ThresholdPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

const POP: usize = 64;
/// Timed repetitions of every measurement.
const REPEATS: usize = 5;
/// Dataset size of the exact-LOO-CV record-cost gate.
const GATE_M: usize = 100;
/// Upper bound on eager / amortized record cost at [`GATE_M`].
const GATE_MAX_RATIO: f64 = 5.0;
const PRETRAIN_M: usize = 500;
const GENERATIONS: usize = 5;
const DEPTH_N: i64 = 4096;
/// Records between bandwidth reselections in the staged pipeline.
const RESELECT_EVERY: usize = 25;
/// The retired legacy loop's last measurement (full mode, median of 5):
/// milliseconds for the five generations, and its time over the
/// staged-parallel pipeline's in the same run.
const LEGACY_SERIAL_MS: f64 = 37.589;
const LEGACY_SPEEDUP: f64 = 1.09;

fn problem(parallel: bool) -> DseProblem {
    let evaluator = Evaluator::new(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        EvalConfig::default(),
    )
    .expect("evaluator builds");
    let space = ParameterSpace::new()
        .with(
            "DEPTH",
            Domain::Range {
                lo: 2,
                hi: DEPTH_N * 2,
                step: 2,
            },
        )
        .with("DATA_WIDTH", Domain::Explicit(vec![8, 16, 32, 64]));
    let metrics = MetricSet::new(vec![
        Metric::Utilization(ResourceKind::Lut),
        Metric::Utilization(ResourceKind::Register),
        Metric::Fmax,
        Metric::Power,
    ]);
    let cfg = SurrogateConfig {
        policy: ThresholdPolicy::paper_default(),
        pretrain_samples: PRETRAIN_M,
        seed: 0xD0BA,
        reselect_every: RESELECT_EVERY,
        ..Default::default()
    };
    let mut p = DseProblem::new(evaluator, space, metrics, Some(&cfg)).expect("problem builds");
    p.schedule = parallel.into();
    p
}

fn generation_stream(seed: u64) -> Vec<Vec<Vec<i64>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..GENERATIONS)
        .map(|_| {
            (0..POP)
                .map(|_| vec![rng.gen_range(0..DEPTH_N), rng.gen_range(0..4)])
                .collect()
        })
        .collect()
}

/// Staged pipeline: batched decide/evaluate/record, amortized reselection.
fn run_pipeline(gens: &[Vec<Vec<i64>>], parallel: bool) -> f64 {
    let mut p = problem(parallel);
    let t0 = Instant::now();
    for genomes in gens {
        let _ = p.evaluate_batch(genomes);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Mean per-record cost (µs) into a dataset of `m` rows.
fn record_cost_us(m: usize, retrain_every: usize) -> f64 {
    let bounds = Bounds::new(vec![(0, 1_000_000)]);
    let mut c = SurrogateController::new(bounds, 4, ThresholdPolicy::paper_default());
    c.retrain_every = retrain_every;
    let mut rng = StdRng::seed_from_u64(7 + m as u64);
    let outputs = |x: i64| {
        let xf = x as f64 / 1e6;
        vec![xf * 900.0, xf * 700.0, 400.0 - 300.0 * xf, 1.0 + xf]
    };
    let pairs: Vec<(Vec<i64>, Vec<f64>)> = (0..m)
        .map(|_| {
            let x = rng.gen_range(0i64..=1_000_000);
            (vec![x], outputs(x))
        })
        .collect();
    c.pretrain(pairs);
    let fresh: Vec<i64> = (0..32).map(|_| rng.gen_range(0i64..=1_000_000)).collect();
    let t0 = Instant::now();
    for x in fresh.iter() {
        c.record(vec![*x], outputs(*x));
    }
    t0.elapsed().as_secs_f64() * 1e6 / fresh.len() as f64
}

fn main() {
    let mode = match std::env::args().nth(1).as_deref() {
        Some("--smoke") => "smoke",
        Some("--full") => "full",
        Some(other) => {
            eprintln!("usage: perf_surrogate [--smoke | --full] (got `{other}`)");
            std::process::exit(2);
        }
        None => "default",
    };
    // The record-cost sweep: smoke is the CI subset (seconds, still
    // spanning the dense→truncated switchover), full extends to 10⁶ rows.
    let sweep: &[usize] = match mode {
        "smoke" => &[100, 1000, 10_000],
        "full" => &[100, 500, 1000, 10_000, 100_000, 1_000_000],
        _ => &[100, 500, 1000, 10_000, 100_000],
    };
    dovado_bench::banner(
        "perf_surrogate — staged batch pipeline, serial and parallel",
        "4 objectives, pop 64, M = 500; record-cost sweep up to the mode's max M",
    );

    let gens = generation_stream(0xBEEF);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("2-thread pool");
    // Warm-up so first-touch costs (allocator, checkpoint store) don't
    // land on whichever variant runs first.
    let threads = pool.install(|| {
        let _ = run_pipeline(&gens[..1], true);
        rayon::current_num_threads()
    });

    let (mut staged_serial, mut staged_parallel) = (vec![], vec![]);
    for _ in 0..REPEATS {
        staged_serial.push(run_pipeline(&gens, false));
        staged_parallel.push(pool.install(|| run_pipeline(&gens, true)));
    }
    let (staged_serial_ms, staged_serial_spread) = median_and_spread(&mut staged_serial);
    let (staged_parallel_ms, staged_parallel_spread) = median_and_spread(&mut staged_parallel);
    let per_gen = staged_parallel_ms / GENERATIONS as f64;

    println!(
        "generation evaluation ({GENERATIONS} generations of {POP}; median of {REPEATS}, ±IQR/median):"
    );
    println!("  staged serial (K={RESELECT_EVERY})      : {staged_serial_ms:9.1} ms ±{staged_serial_spread:.2}");
    println!(
        "  staged parallel (K={RESELECT_EVERY})    : {staged_parallel_ms:9.1} ms ±{staged_parallel_spread:.2}  ({per_gen:.1} ms/gen, {threads} threads)"
    );
    println!(
        "  legacy serial (K=1), retired: {LEGACY_SERIAL_MS} ms, {LEGACY_SPEEDUP}x the parallel pipeline (last measurement)"
    );

    let mut records = String::new();
    // (M, eager, amortized) medians, for the gates.
    let mut by_m: Vec<(usize, f64, f64)> = Vec::new();
    println!();
    println!("record cost (one insert incl. Γ update; K = {RESELECT_EVERY} amortized):");
    for (i, &m) in sweep.iter().enumerate() {
        let (mut eager, mut amortized) = (vec![], vec![]);
        for _ in 0..REPEATS {
            eager.push(record_cost_us(m, 1));
            amortized.push(record_cost_us(m, RESELECT_EVERY));
        }
        let (eager, eager_spread) = median_and_spread(&mut eager);
        let (amortized, amortized_spread) = median_and_spread(&mut amortized);
        let ratio = eager / amortized;
        by_m.push((m, eager, amortized));
        println!(
            "  M = {m:>7}: eager {eager:9.1} us/record ±{eager_spread:.2}, amortized {amortized:9.1} us/record ±{amortized_spread:.2} ({ratio:.1}x)"
        );
        if i > 0 {
            records.push(',');
        }
        let _ = write!(
            records,
            "\n    {{\"dataset_m\": {m}, \"eager_us_per_record\": {}, \"eager_spread\": {}, \"amortized_us_per_record\": {}, \"amortized_spread\": {}, \"ratio\": {}}}",
            json_f(eager),
            json_f(eager_spread),
            json_f(amortized),
            json_f(amortized_spread),
            json_f(ratio)
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"surrogate_batch_pipeline\",\n  \"mode\": \"{mode}\",\n  \"config\": {{\"objectives\": 4, \"pop\": {POP}, \"pretrain_m\": {PRETRAIN_M}, \"generations\": {GENERATIONS}, \"reselect_every\": {RESELECT_EVERY}, \"threads\": {threads}, \"repeats\": {REPEATS}}},\n  \"generation_eval_ms\": {{\"staged_serial\": {}, \"staged_parallel\": {}}},\n  \"generation_eval_spread\": {{\"staged_serial\": {}, \"staged_parallel\": {}}},\n  \"legacy_serial_historical\": {{\"generation_eval_ms\": {LEGACY_SERIAL_MS}, \"speedup_legacy_over_parallel\": {LEGACY_SPEEDUP}, \"note\": \"retired; last full-mode measurement, not re-run\"}},\n  \"record_cost\": [{records}\n  ]\n}}\n",
        json_f(staged_serial_ms),
        json_f(staged_parallel_ms),
        json_f(staged_serial_spread),
        json_f(staged_parallel_spread),
    );
    let path = dovado_bench::results_dir().join("BENCH_surrogate.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!();
    println!("wrote {}", path.display());

    let at = |m: usize| {
        by_m.iter()
            .find(|&&(rows, ..)| rows == m)
            .map(|&(_, eager, amortized)| (eager, amortized))
    };
    // Exact-mode gate: a reselection after one insert extends the
    // running LOO sums by one row and column, so eager recording costs
    // a small multiple of amortized, where rescoring every pair cost
    // ~25× more.
    let (eager, amortized) = at(GATE_M).expect("every sweep includes the gate size");
    let gate = eager / amortized;
    println!("eager/amortized record cost at M = {GATE_M}: {gate:.2}x (gate < {GATE_MAX_RATIO})");
    assert!(
        gate < GATE_MAX_RATIO,
        "eager reselection costs {gate:.1}x amortized at M = {GATE_M} — LOO-CV rescoring regressed toward O(M²) per reselection"
    );
    // The sub-quadratic acceptance gate: growing the dataset 10× (10⁴ →
    // 10⁵ rows) must not cost anywhere near the 100× a quadratic hot path
    // would. The truncated/incremental path is ~flat in M, so even a
    // generous margin catches a regression to O(M²).
    if let (Some((_, big)), Some((_, small))) = (at(100_000), at(10_000)) {
        let growth = big / small;
        println!("amortized cost growth 10^4 -> 10^5 rows: {growth:.2}x");
        assert!(
            growth < 30.0,
            "amortized record cost grew {growth:.1}x over a 10x dataset — hot path regressed toward quadratic"
        );
    }
}
