//! End-to-end benchmark of the `dovado` CLI and daemon, with a
//! layer-attributed traced run. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dovado <binary>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
//! with `--trace 0`, every per-layer metric with `--trace 1`. The exit
//! code is non-zero when any operation failed or its outputs did not
//! match the reference.

mod explore;
mod host;
mod inputs;
mod proc;
mod report;
mod serve;
mod stats;
mod traced;

use report::Outcome;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, as named in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = [
    "explore_cold",
    "explore_warm",
    "explore_surrogate",
    "serve_tenants",
];

/// Every per-layer metric with its unit, in print order. A layer that
/// does no work on a workload reports 0 there.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("dse.generations", "count"),
    ("dse.first_gen_ms", "ms"),
    ("dse.gen_p50_ms", "ms"),
    ("dse.gen_p90_ms", "ms"),
    ("dse.gen_growth", "ratio"),
    ("dse.self_s", "s"),
    ("eda.sessions", "count"),
    ("eda.scripts", "count"),
    ("eda.errors", "count"),
    ("eda.busy_s", "s"),
    ("eda.synth_s", "s"),
    ("eda.impl_s", "s"),
    ("eda.eval_p50_us", "us"),
    ("eda.eval_p90_us", "us"),
    ("eda.bytes_in", "bytes"),
    ("eda.bytes_out", "bytes"),
    ("eda.tool_s", "sim_s"),
    ("engine.attempt_self_s", "s"),
    ("engine.idle_slot_s", "s"),
    ("engine.checkpoint_hits", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.puts", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.entries", "count"),
    ("store.open_ms", "ms"),
    ("store.get_hit_us", "us"),
    ("store.get_miss_us", "us"),
    ("store.put_us", "us"),
    ("persist.journal_writes", "count"),
    ("persist.journal_bytes", "bytes"),
    ("persist.journal_final_bytes", "bytes"),
    ("persist.write_ms", "ms"),
    ("persist.read_ms", "ms"),
    ("surrogate.decisions", "count"),
    ("surrogate.cached", "count"),
    ("surrogate.estimated", "count"),
    ("surrogate.evaluated", "count"),
    ("surrogate.estimate_ratio", "ratio"),
    ("surrogate.reselections", "count"),
    ("surrogate.dataset_m", "count"),
    ("surrogate.decide_us", "us"),
    ("surrogate.record_us", "us"),
    ("surrogate.self_s", "s"),
    ("moo.steps", "count"),
    ("moo.step_self_us", "us"),
    ("obs.events", "count"),
    ("obs.dropped", "count"),
    ("obs.trace_bytes", "bytes"),
    ("obs.encode_ms", "ms"),
    ("serve.jobs", "count"),
    ("serve.start_ms", "ms"),
    ("serve.ack_ms", "ms"),
    ("serve.admit_wait_ms_p50", "ms"),
    ("serve.admit_wait_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.lines_per_job", "count"),
    ("serve.bytes_per_job", "bytes"),
    ("serve.store_hit_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dovado: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut dovado = PathBuf::from(target).join("release").join("dovado");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: want 0 or 1".into()),
                }
            }
            "--dovado" => dovado = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    if !dovado.is_file() {
        return Err(format!("no dovado binary at {}", dovado.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        dovado,
    })
}

fn run(args: &Args, scratch: PathBuf, out: &mut Outcome) -> std::io::Result<()> {
    out.notes.push(format!(
        "perfbench {} seed {} for {} s, trace {}; budget {} threads and {} connections; \
         scratch on {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::THREADS,
        inputs::THREADS,
        proc::filesystem_of(&scratch),
    ));
    let mut layers: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    if args.workload == "serve_tenants" {
        let bench = serve::Bench::prepare(args.dovado.clone(), scratch, args.seed)?;
        if args.trace {
            serve::traced(&bench, args.seconds, &mut layers, out)?;
        } else {
            serve::run(&bench, args.seconds, out)?;
        }
    } else {
        let kind = match args.workload.as_str() {
            "explore_cold" => explore::Kind::Cold,
            "explore_warm" => explore::Kind::Warm,
            _ => explore::Kind::Surrogate,
        };
        // The warm set-up runs five explorations; the others write one file.
        let reps = if kind == explore::Kind::Warm { 3 } else { 25 };
        let bench = explore::Bench::prepare(kind, args.dovado.clone(), scratch, args.seed, reps)?;
        if args.trace {
            traced::run(&bench, &mut layers, out)?;
        } else {
            explore::run(&bench, args.seconds, out)?;
        }
    }
    if args.trace {
        for (name, unit) in LAYER_METRICS {
            let (value, source) = layers.get(name).copied().unwrap_or((0.0, "n/a"));
            out.push(name, value, unit, 1, source);
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir()
        .expect("a working directory")
        .join(".perfbench-scratch");
    // Leftovers of an interrupted invocation go before anything is timed.
    if root.exists() {
        proc::remove_and_flush(&root);
    }
    let scratch = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let mut out = Outcome::default();
    let result = run(&args, scratch.clone(), &mut out);
    proc::remove_and_flush(&scratch);
    if let Err(e) = result {
        print!("{}", out.table());
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    print!("{}", out.table());
    println!("{}", out.json());
    if out.failed > 0 {
        std::process::exit(1);
    }
}
