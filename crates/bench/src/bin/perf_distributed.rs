//! Distributed-evaluation performance: a thread-backed worker fleet
//! speaking the real wire protocol, evaluating a tool-run-heavy batch
//! with 1 worker vs 4 workers.
//!
//! The workload is the scripted mock backend with an artificial
//! per-stage spin (`mock:SEED:spin=MS`), so every evaluation costs real
//! wall-clock the way an actual tool run would, while metrics — and
//! therefore traces — stay bit-deterministic. The two fleet sizes take
//! turns for `REPEATS` repeats; the bench asserts every run produced the
//! same trace bytes and writes `results/BENCH_distributed.json` with each
//! size's median wall-clock and IQR/median spread, and the speedup of the
//! medians.

use dovado::{DesignPoint, EvalConfig, Evaluator, HdlSource, Schedule};
use dovado_bench::{json_f, median_and_spread};
use dovado_hdl::Language;
use std::sync::Arc;
use std::time::Instant;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

const POINTS: usize = 24;
const SPIN_MS: u64 = 40;
const WORKERS_HI: usize = 4;
const REPEATS: usize = 5;

fn evaluator_on_fleet(workers: usize, spin_ms: u64) -> Evaluator {
    let config = EvalConfig::default();
    let spec = format!("mock:{}:spin={spin_ms}", config.seed);
    let fleet =
        Arc::new(dovado::worker::thread_fleet(&spec, workers).expect("thread fleet must spawn"));
    Evaluator::with_backend(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        config,
        fleet,
    )
    .expect("evaluator builds")
}

/// Evaluates the batch on a fresh fleet of `workers`, returning
/// (wall-clock ms, canonical JSONL trace).
fn timed_run(points: &[DesignPoint], workers: usize, spin_ms: u64) -> (f64, String) {
    let evaluator = evaluator_on_fleet(workers, spin_ms);
    let t0 = Instant::now();
    let results = evaluator.evaluate_many(points, Schedule::Distributed { workers });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    for r in results {
        r.expect("bench evaluations are fault-free");
    }
    (
        wall_ms,
        dovado::obs::jsonl_string(&evaluator.spine().snapshot()),
    )
}

fn main() {
    dovado_bench::banner(
        "perf_distributed — worker fleet, 1 vs 4 workers",
        "24-point tool-run-heavy batch over the wire protocol (mock, 40 ms spin/stage)",
    );

    let points: Vec<DesignPoint> = (1..=POINTS as i64)
        .map(|i| DesignPoint::from_pairs(&[("DEPTH", i * 16), ("DATA_WIDTH", 32)]))
        .collect();

    // Warm-up: one spin-free batch so first-touch costs (thread spawn,
    // protocol handshake, allocator) land outside the timed runs.
    let _ = timed_run(&points[..2], WORKERS_HI, 0);

    let mut one = Vec::with_capacity(REPEATS);
    let mut four = Vec::with_capacity(REPEATS);
    let mut traces = Vec::with_capacity(2 * REPEATS);
    for _ in 0..REPEATS {
        for (workers, series) in [(1, &mut one), (WORKERS_HI, &mut four)] {
            let (ms, trace) = timed_run(&points, workers, SPIN_MS);
            series.push(ms);
            traces.push(trace);
        }
    }
    let (one_ms, one_spread) = median_and_spread(&mut one);
    let (four_ms, four_spread) = median_and_spread(&mut four);
    let speedup = one_ms / four_ms;

    println!("batch of {POINTS} evaluations, {SPIN_MS} ms spin per tool stage");
    println!("(median of {REPEATS} repeats, ±IQR/median):");
    println!("  1 worker                 : {one_ms:9.1} ms ±{one_spread:.2}");
    println!("  {WORKERS_HI} workers                : {four_ms:9.1} ms ±{four_spread:.2}");
    println!("  speedup (1 -> {WORKERS_HI} workers) : {speedup:9.2}x");

    let identical = traces.iter().all(|t| *t == traces[0]);
    assert!(
        identical,
        "fleet sizes or repeats produced different canonical traces — determinism broke"
    );
    println!("  traces                   : byte-identical");

    let json = format!(
        "{{\n  \"benchmark\": \"distributed_worker_fleet\",\n  \"config\": {{\"points\": {POINTS}, \"spin_ms\": {SPIN_MS}, \"workers_hi\": {WORKERS_HI}, \"repeats\": {REPEATS}}},\n  \"wall_ms\": {{\"workers_1\": {}, \"workers_{WORKERS_HI}\": {}}},\n  \"wall_spread\": {{\"workers_1\": {}, \"workers_{WORKERS_HI}\": {}}},\n  \"speedup_1_to_{WORKERS_HI}\": {},\n  \"traces_identical\": {identical}\n}}\n",
        json_f(one_ms),
        json_f(four_ms),
        json_f(one_spread),
        json_f(four_spread),
        json_f(speedup),
    );
    let path = dovado_bench::results_dir().join("BENCH_distributed.json");
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!();
    println!("wrote {}", path.display());

    assert!(
        speedup >= 2.5,
        "distributed speedup {speedup:.2}x below the 2.5x acceptance floor"
    );
}
