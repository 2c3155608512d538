//! The three `dovado explore` workloads, measured end to end: each
//! exploration is one CLI process, timed from spawn to exit with tracing
//! off, and every run's outputs are checked against a reference.

use crate::host;
use crate::inputs::{self, Project};
use crate::proc;
use crate::report::Outcome;
use crate::stats;
use dovado::casestudies;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Which explore workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No store: every evaluation runs the tool.
    Cold,
    /// Store filled in set-up: zero tool runs.
    Warm,
    /// Surrogate-guided, no store, no journal.
    Surrogate,
}

impl Kind {
    /// `--jobs` of the timed runs.
    pub fn jobs(self) -> usize {
        match self {
            Kind::Warm => 1,
            Kind::Cold | Kind::Surrogate => inputs::THREADS,
        }
    }
}

/// A prepared explore workload: generated project, per-seed references
/// and (for `explore_warm`) the filled store.
pub struct Bench {
    /// Workload kind.
    pub kind: Kind,
    /// Path of the `dovado` binary under test.
    pub dovado: PathBuf,
    /// Scratch root of this invocation.
    pub scratch: PathBuf,
    /// The generated Corundum project.
    pub project: Project,
    /// Exploration seeds the run cycles through.
    pub seeds: Vec<u64>,
    /// The warm workload's store directory (`--store`).
    pub warm_store: Option<PathBuf>,
    /// Median CPU seconds of the set-up repetitions, the harness's own
    /// plus that of the processes it ran, scaled to reference-host speed.
    pub setup_s: f64,
    /// Median wall-clock of the set-up repetitions.
    pub setup_wall_s: f64,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
}

/// Outputs of one exploration process.
pub struct RunFiles {
    /// `--trace-out` bytes.
    pub trace: Vec<u8>,
    /// `--csv` bytes.
    pub csv: Vec<u8>,
}

impl Bench {
    /// Builds the inputs. What the timed runs depend on is timed as
    /// set-up and repeated `reps` times (medians reported): the generated
    /// project, and for `explore_warm` one store-filling pass of the cold
    /// exploration (with `--store`) per seed of the run.
    pub fn prepare(
        kind: Kind,
        dovado: PathBuf,
        scratch: PathBuf,
        seed: u64,
        reps: usize,
    ) -> io::Result<Bench> {
        let seeds = inputs::explore_seeds(seed);
        let mut cpu = Vec::with_capacity(reps);
        let mut wall = Vec::with_capacity(reps);
        let mut last: Option<(PathBuf, Project, Option<PathBuf>)> = None;
        for rep in 0..reps {
            let before = host::calibrate();
            // Each repetition builds into a directory of its own; the
            // previous one is removed only after the timing.
            let root = scratch.join(format!("setup-{rep}"));
            let t0 = Instant::now();
            let own0 = proc::own_cpu_s();
            let mut children = 0.0;
            let project =
                Project::write(casestudies::corundum::case_study(), &root.join("project"))?;
            let warm_store = if kind == Kind::Warm {
                let dir = root.join("store");
                for &s in &seeds {
                    let files = dir.join(format!("fill-{s}"));
                    fs::create_dir_all(&files)?;
                    let mut cmd = explore_cmd(&dovado, &project, s, inputs::THREADS, &files);
                    cmd.arg("--store").arg(&dir);
                    children += run_checked(&mut cmd, &files)?.cpu_s;
                }
                Some(dir)
            } else {
                None
            };
            let used = proc::own_cpu_s() - own0 + children;
            wall.push(t0.elapsed().as_secs_f64());
            cpu.push(used / host::slowdown(&[before, host::calibrate()]));
            if let Some((old, ..)) = last.replace((root, project, warm_store)) {
                proc::remove_and_flush(&old);
            }
        }
        let (_, project, warm_store) = last.expect("at least one set-up repetition");
        Ok(Bench {
            kind,
            dovado,
            scratch,
            project,
            seeds,
            warm_store,
            setup_s: stats::median(&cpu),
            setup_wall_s: stats::median(&wall),
            setup_reps: reps,
        })
    }

    /// The CLI invocation of one timed exploration writing into `dir`.
    pub fn command(&self, seed: u64, dir: &Path) -> Command {
        let mut cmd = explore_cmd(&self.dovado, &self.project, seed, self.kind.jobs(), dir);
        match self.kind {
            Kind::Cold => {}
            Kind::Warm => {
                cmd.arg("--store")
                    .arg(self.warm_store.as_ref().expect("warm store prepared"));
            }
            Kind::Surrogate => {
                cmd.arg("--surrogate").arg(inputs::SURROGATE_M.to_string());
            }
        }
        cmd
    }

    /// Reference outputs per seed, made once in set-up (untimed, not part
    /// of `setup_s`): `explore_cold` and `explore_surrogate` rerun the
    /// same exploration with `--jobs 1`; `explore_warm`'s reference is the
    /// store-filling pass.
    pub fn references(&self) -> io::Result<Vec<RunFiles>> {
        self.seeds
            .iter()
            .map(|&s| {
                if let Some(store) = &self.warm_store {
                    return read_run(&store.join(format!("fill-{s}")));
                }
                let dir = self.scratch.join(format!("reference-{s}"));
                fs::create_dir_all(&dir)?;
                let mut cmd = explore_cmd(&self.dovado, &self.project, s, 1, &dir);
                if self.kind == Kind::Surrogate {
                    cmd.arg("--surrogate").arg(inputs::SURROGATE_M.to_string());
                }
                run_checked(&mut cmd, &dir)?;
                read_run(&dir)
            })
            .collect()
    }

    /// Checks one timed run's outputs against its seed's reference;
    /// returns a description of the first mismatch.
    pub fn check(&self, files: &RunFiles, reference: &RunFiles) -> Result<(), String> {
        if files.csv != reference.csv {
            return Err("the --csv front differs from the reference".into());
        }
        match self.kind {
            Kind::Cold | Kind::Surrogate => {
                if files.trace != reference.trace {
                    return Err("the trace differs from the --jobs 1 reference".into());
                }
            }
            Kind::Warm => {
                let summary = trace_summary(&files.trace)?;
                if summary
                    .get("attempts")
                    .and_then(dovado::serve::Json::as_u64)
                    != Some(0)
                {
                    return Err("the warm run made tool attempts".into());
                }
            }
        }
        Ok(())
    }
}

/// The shared part of every explore invocation: the Corundum project,
/// NSGA-II at the workload size, trace and front written into `dir`.
pub fn explore_cmd(
    dovado: &Path,
    project: &Project,
    seed: u64,
    jobs: usize,
    dir: &Path,
) -> Command {
    let mut cmd = Command::new(dovado);
    cmd.arg("explore")
        .arg("--project")
        .arg(&project.dir)
        .arg("--part")
        .arg(project.study.part);
    for (name, spec) in project.param_specs() {
        cmd.arg("--param").arg(format!("{name}={spec}"));
    }
    cmd.arg("--pop")
        .arg(inputs::POP.to_string())
        .arg("--generations")
        .arg(inputs::GENERATIONS.to_string())
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--trace-out")
        .arg(dir.join("trace.jsonl"))
        .arg("--csv")
        .arg(dir.join("front.csv"));
    cmd
}

/// Runs `cmd` with its standard streams in `dir`; returns the wall-clock
/// seconds and how the process ended.
pub fn run_in(cmd: &mut Command, dir: &Path) -> io::Result<(f64, proc::Exit)> {
    cmd.stdin(Stdio::null())
        .stdout(fs::File::create(dir.join("stdout.txt"))?)
        .stderr(fs::File::create(dir.join("stderr.txt"))?);
    proc::run_timed(cmd)
}

/// [`run_in`] for set-up runs, which must succeed.
fn run_checked(cmd: &mut Command, dir: &Path) -> io::Result<proc::Exit> {
    let (_, exit) = run_in(cmd, dir)?;
    if !exit.success {
        let out = fs::read_to_string(dir.join("stdout.txt")).unwrap_or_default();
        return Err(io::Error::other(format!(
            "set-up run failed in {}: {}",
            dir.display(),
            out.lines().last().unwrap_or("")
        )));
    }
    Ok(exit)
}

/// Reads a run's trace and front.
pub fn read_run(dir: &Path) -> io::Result<RunFiles> {
    Ok(RunFiles {
        trace: fs::read(dir.join("trace.jsonl"))?,
        csv: fs::read(dir.join("front.csv"))?,
    })
}

/// The trailing summary object of a trace file.
pub fn trace_summary(trace: &[u8]) -> Result<dovado::serve::Json, String> {
    let text = std::str::from_utf8(trace).map_err(|_| "trace is not UTF-8".to_string())?;
    let last = text.lines().last().ok_or("empty trace")?;
    dovado::serve::Json::parse(last)
        .filter(|v| v.get("type").and_then(dovado::serve::Json::as_str) == Some("summary"))
        .ok_or_else(|| "trace has no summary line".into())
}

/// Normalised hypervolume of a `--csv` front (see
/// [`stats::normalised_hv`]): the reference corner is the part's
/// capacities and 0 MHz, the ideal corner no resources at the constrained
/// clock.
pub fn csv_front_hv(csv: &[u8], part: &str) -> Result<f64, String> {
    let text = std::str::from_utf8(csv).map_err(|_| "front is not UTF-8".to_string())?;
    let metrics = dovado::MetricSet::area_frequency();
    let n = metrics.len();
    let mut front = Vec::new();
    for line in text.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() < n {
            return Err(format!("short front row `{line}`"));
        }
        let values: Result<Vec<f64>, _> =
            cells[cells.len() - n..].iter().map(|c| c.parse()).collect();
        front.push(values.map_err(|_| format!("bad front row `{line}`"))?);
    }
    hv_of(
        &front,
        &metrics,
        part,
        dovado::EvalConfig::default().target_period_ns,
    )
}

/// Normalised hypervolume of natural-sense objective vectors under
/// `metrics`, boxed by `part`'s capacities and the clock a `period_ns`
/// constraint asks for.
pub fn hv_of(
    front: &[Vec<f64>],
    metrics: &dovado::MetricSet,
    part: &str,
    period_ns: f64,
) -> Result<f64, String> {
    let catalog = dovado_fpga::Catalog::builtin();
    let part = catalog
        .find(part)
        .ok_or_else(|| format!("unknown part `{part}`"))?;
    let mut maximize = Vec::new();
    let mut bound = Vec::new();
    for m in metrics.metrics() {
        match m {
            dovado::Metric::Utilization(kind) => {
                let cap = part.capacity.get(*kind) as f64;
                if cap <= 0.0 {
                    return Err(format!("part {} has no {kind}", part.name));
                }
                maximize.push(false);
                bound.push(cap);
            }
            dovado::Metric::Fmax => {
                maximize.push(true);
                bound.push(1000.0 / period_ns);
            }
            dovado::Metric::Power => return Err("power has no fixed bound".into()),
        }
    }
    Ok(stats::normalised_hv(front, &maximize, &bound))
}

/// Measures an explore workload end to end for `seconds`.
pub fn run(bench: &Bench, seconds: f64, out: &mut Outcome) -> io::Result<()> {
    let references = bench.references()?;
    let runs = bench.scratch.join("runs");
    let mut all = Vec::new();
    let mut cpu = Vec::new();
    let mut scaled = Vec::new();
    let mut rss = Vec::new();
    let mut cal = Vec::new();
    let start = Instant::now();
    let mut k = 0usize;
    // At least one run per seed, then until the window is spent.
    while k < bench.seeds.len() || start.elapsed().as_secs_f64() < seconds {
        let slot = k % bench.seeds.len();
        let seed = bench.seeds[slot];
        let dir = runs.join(k.to_string());
        fs::create_dir_all(&dir)?;
        let mut cmd = bench.command(seed, &dir);
        let before = host::calibrate();
        let (wall, exit) = run_in(&mut cmd, &dir)?;
        let pair = [before, host::calibrate()];
        cal.extend(pair);
        out.attempted += 1;
        k += 1;
        if !exit.success {
            out.fail(format!("run {k} (seed {seed}) exited non-zero"));
            continue;
        }
        match read_run(&dir)
            .map_err(|e| e.to_string())
            .and_then(|files| bench.check(&files, &references[slot]))
        {
            Ok(()) => {
                all.push(wall);
                cpu.push(exit.cpu_s);
                scaled.push(exit.cpu_s / host::slowdown(&pair));
                rss.push(exit.peak_rss_mb);
            }
            Err(e) => out.fail(format!("run {k} (seed {seed}): {e}")),
        }
    }
    let window = start.elapsed().as_secs_f64();
    // Per-run stores are removed only after the window, so their deletion
    // never lands inside a timed run.
    proc::remove_and_flush(&runs);

    let mut hvs = Vec::new();
    for r in &references {
        hvs.push(csv_front_hv(&r.csv, bench.project.study.part).map_err(io::Error::other)?);
    }
    let (p, tail) = stats::tail(&all, 90);
    let slowdown = host::slowdown(&cal);
    out.notes.push(format!(
        "explorations: {} in {:.2} s over {} seeds ({:?}); tail percentile p{p}; \
         host {slowdown:.3}x slower than the reference",
        all.len(),
        window,
        bench.seeds.len(),
        bench.seeds
    ));
    out.push("setup_s", bench.setup_s, "s", bench.setup_reps, "measured");
    out.show("setup_wall_s", bench.setup_wall_s, "s", bench.setup_reps);
    out.push(
        "cpu_s",
        stats::median(&scaled),
        "s",
        scaled.len(),
        "measured",
    );
    out.show("cpu_raw_s", stats::median(&cpu), "s", cpu.len());
    out.push("front_hv", stats::mean(&hvs), "frac", hvs.len(), "measured");
    out.push(
        "peak_rss_mb",
        stats::median(&rss),
        "MiB",
        rss.len(),
        "measured",
    );
    out.show("latency_p50_s", stats::median(&all), "s", all.len());
    out.show("latency_tail_s", tail, "s", all.len());
    // Explorations run one at a time, so the program's run time is the sum
    // of their wall-clocks (the harness's checks between runs excluded).
    out.show(
        "throughput_per_s",
        all.len() as f64 / all.iter().sum::<f64>(),
        "1/s",
        all.len(),
    );
    Ok(())
}
