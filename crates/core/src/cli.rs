//! The `dovado` command-line interface.
//!
//! The original Dovado ships as a CLI ("available as a python package");
//! this module is the Rust equivalent, hand-rolled (no argument-parsing
//! dependency) and fully testable: [`run`] takes the argument vector and a
//! writer, so tests drive it without a process boundary.
//!
//! Subcommands:
//!
//! * `parse <file>…` — print the extracted module interfaces.
//! * `parts` — list the built-in device catalog.
//! * `evaluate` — single design-point evaluation (design automation).
//! * `explore` — design space exploration (NSGA-II, optional surrogate).
//! * `demo <case>` — run a packaged paper case study.
//! * `worker` — serve the `--workers` frame protocol over stdio.
//! * `serve`, `submit`, `status`, `shutdown` — the multi-tenant daemon
//!   and its client.
//!
//! # Flags
//!
//! One declarative table, `COMMANDS`, lists every flag of every
//! subcommand as a row: name, optional alias, and arity — a switch, a
//! value (a later occurrence replaces an earlier one), or repeated (every
//! occurrence counts). One parser, `Args::read`, reads argv once against
//! a subcommand's rows and rejects an unknown flag, a stray positional
//! argument, or a flag missing its value (a value never starts with
//! `--`) before any work runs. Subcommands share rows in groups:
//!
//! * `DESIGN` (`evaluate`, `explore`, `submit`): `--source`…,
//!   `--project`, `--top`, `--part`, `--period`;
//! * `LOCAL_RUN` (`evaluate`, `explore`): `--step`, `--synth-directive`,
//!   `--impl-directive`, `--no-incremental`, `--jobs`, `--workers`,
//!   `--store`, `--trace-out`;
//! * `JOB` (`explore`, `submit`): `--param`…, `--metric`,
//!   `--generations`, `--pop`, `--seed`, `--surrogate`, `--explorer`
//!   (alias `--algorithm`);
//! * `ADDR` (`submit`, `status`, `shutdown`): `--addr`.
//!
//! Every other group belongs to the one subcommand it is named after.
//!
//! `explore` and `submit` read `DESIGN` and `JOB` into one [`JobSpec`],
//! and [`JobSpec::build`] — which the serve daemon calls on every
//! submitted job — turns it into the exploration. Only the defaults
//! differ (explore: 15 generations of population 20; submit: 5 of 8),
//! and what surrounds the build: `explore` adds the flow options,
//! `--deadline`, a parallel schedule and persistence, while `submit`
//! ships the spec to a daemon.
//!
//! Local runs take their tool backend from one `KIND:SEED` spec:
//! `DOVADO_BACKEND` picks the kind and the seed is the evaluator's
//! default, so `explore` runs what `submit --no-store --backend
//! KIND:13654736` runs in the daemon.

use crate::backend::{RemoteBackend, ToolBackend};
use crate::casestudies;
use crate::dse::DseConfig;
use crate::engine::{validate_jobs, validate_store_capacity, validate_workers, Evaluator};
use crate::error::DovadoError;
use crate::flow::{load_project_tree, EvalConfig, FlowStep, HdlSource};
use crate::metrics::{Metric, MetricSet};
use crate::obs::{EventBus, ObsEvent};
use crate::persist::PersistConfig;
use crate::point::DesignPoint;
use crate::serve::{protocol, Client, JobSpec, Json, ServeConfig, Server};
use crate::space::Domain;
use crate::worker::{attach_lifecycle, backend_from_spec, process_fleet};
use dovado_eda::EvalStore;
use dovado_fpga::{Catalog, ResourceKind};
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Termination};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;

/// CLI entry point: executes `args` (without the program name), writing
/// human output to `out`. Returns the process exit code.
pub fn run(args: &[String], out: &mut String) -> i32 {
    match run_inner(args, out) {
        Ok(()) => 0,
        Err(msg) => {
            let _ = writeln!(out, "error: {msg}");
            let _ = writeln!(out, "run `dovado help` for usage");
            1
        }
    }
}

fn run_inner(args: &[String], out: &mut String) -> Result<(), String> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            let _ = write!(out, "{}", usage());
            Ok(())
        }
        Some("parts") => cmd_parts(out),
        Some("parse") => cmd_parse(&args[1..], out),
        Some("evaluate") => cmd_evaluate(&args[1..], out),
        Some("explore") => cmd_explore(&args[1..], out),
        Some("demo") => cmd_demo(&args[1..], out),
        Some("worker") => cmd_worker(),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..], out),
        Some("status") => cmd_status(&args[1..], out),
        Some("shutdown") => cmd_shutdown(&args[1..], out),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
    }
}

/// The usage text.
pub fn usage() -> String {
    "\
dovado — design automation and design space exploration for RTL modules

USAGE:
  dovado parse <file>...
  dovado parts
  dovado evaluate (--source <file>... --top <module> | --project <dir> [--top <module>])
                  [--part <part>]
                  [--set NAME=VALUE]... [--period <ns>] [--step synth|impl]
                  [--synth-directive <d>] [--impl-directive <d>] [--no-incremental]
                  [--jobs <n>] [--workers <n>] [--store <dir>]
                  [--trace-out <file>]
  dovado explore  (--source <file>... --top <module> | --project <dir> [--top <module>])
                  [--part <part>] [--period <ns>] [--step synth|impl]
                  [--synth-directive <d>] [--impl-directive <d>] [--no-incremental]
                  --param NAME=<spec>... [--metric <m>,<m>,...]
                  [--generations <n>] [--pop <n>] [--seed <n>]
                  [--surrogate <M>] [--deadline <simulated-s>] [--plot]
                  [--explorer nsga2|random|wsga|exhaustive|sa|bayes|auto]
                  [--csv <file>] [--jobs <n>] [--workers <n>]
                  [--store <dir>] [--resume <dir>] [--store-capacity <n>]
                  [--trace-out <file>]
  dovado demo <cv32e40p|corundum|neorv32|tirex>
  dovado worker   (internal: serve the distributed-evaluation protocol
                  over stdio; spawned by --workers, not run by hand)
  dovado serve    [--listen <addr>] [--slots <n>] [--root <dir>]
                  [--store-capacity <n>]
  dovado submit   --addr <addr>
                  (--source <file>... --top <module> | --project <dir> [--top <module>])
                  --param NAME=<spec>... [--tenant <name>] [--priority <n>]
                  [--part <part>] [--period <ns>] [--metric <m>,...]
                  [--generations <n>] [--pop <n>] [--seed <n>]
                  [--surrogate <M>] [--backend <spec>] [--no-store]
                  [--explorer nsga2|random|wsga|exhaustive|sa|bayes|auto]
                  [--trace-out <file>]
  dovado status   --addr <addr>
  dovado shutdown --addr <addr>

  --project catalogs every HDL file under <dir> (recursively;
  .vhd/.vhdl/.v/.vh/.sv/.svh), identifies the primary and secondary
  design units in each, and compiles them in dependency order — package
  bodies after their packages, architectures after their entities,
  instantiated modules before instantiators. The top module is inferred
  from the dependency graph (the unique uninstantiated module); pass
  --top to pick one when several roots exist.

  --no-incremental runs every implementation from scratch instead of
  reusing the previous run's checkpoint (the incremental flow).

  --jobs caps the worker threads used for parallel tool runs and batch
  surrogate decisions; the default is all available cores. Results are
  identical for any value — parallelism never changes answers.

  --workers runs tool evaluations on a fleet of worker processes
  speaking a length-prefixed frame protocol over stdio, with per-point
  dispatch through a work-stealing queue. Store lookups stay on the
  coordinator, so a warm store never spawns a worker. Like --jobs, the
  fleet size never changes answers: traces are byte-identical to a
  serial run, and a journal written under one fleet size resumes under
  any other. --jobs and --workers are mutually exclusive.

  --store persists every successful tool run into a content-addressed
  store, one append-only log under <dir>/store/; repeated evaluations of
  the same sources, configuration, and design point are answered from
  it, and evaluate and explore given the same <dir> share it. For
  explore, --store also journals optimizer state each generation so an
  interrupted run can be continued with --resume <dir>, which replays
  the journal and produces the same result as an uninterrupted run.
  --store-capacity bounds that store at <n> entries, evicting the least
  recently used; eviction only ever costs recomputation.

  --trace-out writes the run's observability spine — every attempt,
  store hit, generation boundary, and surrogate decision in canonical
  order — as versioned JSON Lines (schema `dovado-trace` v2). The
  stream is byte-identical for any --jobs value.

  --explorer picks the exploration strategy (--algorithm is an alias):
  nsga2 (default), random sampling, wsga (weighted-sum GA; aliases
  weighted-sum, ws), exhaustive enumeration, sa (simulated annealing;
  alias annealing), bayes (acquisition over the NW surrogate), or auto —
  portfolio selection that races the candidates on a cheap
  synthesis-only budget, commits to the winner, and journals the
  decision so --resume replays it instead of re-racing.

  DOVADO_BACKEND=mock runs every tool call on the scripted mock
  backend instead of the simulated Vivado; sim or vivado-sim (the
  default) names the simulated Vivado.

  serve runs a multi-tenant exploration daemon on a TCP socket speaking
  line-delimited JSON: submit jobs with `dovado submit` (or any client),
  watch their trace v2 event stream live, and share one
  capacity-bounded evaluation store across tenants (--root; eviction
  under --store-capacity only ever causes re-computation, never wrong
  answers). Slots are granted tenant-fairly by stride scheduling
  weighted by --priority. Submitted with --no-store and --backend
  KIND:13654736 (the seed local runs use), a job writes the trace explore
  writes for the same job flags; submit defaults to 5 generations of
  population 8.

PARAM SPECS:
  lo:hi          integer range            (e.g. DEPTH=2:1000)
  lo:hi:step     stepped range            (e.g. DEPTH=2:1000:2)
  pow2:a:b       powers of two 2^a..2^b   (e.g. SIZE=pow2:10:16)
  bool           {0, 1}
  v1,v2,...      explicit list            (e.g. WIDTH=8,16,32)

METRICS: lut, ff, bram, uram, dsp, carry, io, bufg, fmax, power
"
    .to_string()
}

/// How a flag consumes argv.
enum Arity {
    /// Takes no value.
    Switch,
    /// Takes one value; a later occurrence replaces an earlier one.
    Value,
    /// Takes one value per occurrence, and every occurrence counts.
    Repeated,
}

use Arity::{Repeated, Switch, Value};

/// One row of the flag table.
struct Flag {
    name: &'static str,
    alias: Option<&'static str>,
    arity: Arity,
}

const fn flag(name: &'static str, arity: Arity) -> Flag {
    Flag {
        name,
        alias: None,
        arity,
    }
}

/// Where the design comes from: `evaluate`, `explore`, `submit`.
const DESIGN: &[Flag] = &[
    flag("--source", Repeated),
    flag("--project", Value),
    flag("--top", Value),
    flag("--part", Value),
    flag("--period", Value),
];

/// Options of a run on this host: `evaluate`, `explore`.
const LOCAL_RUN: &[Flag] = &[
    flag("--step", Value),
    flag("--synth-directive", Value),
    flag("--impl-directive", Value),
    flag("--no-incremental", Switch),
    flag("--jobs", Value),
    flag("--workers", Value),
    flag("--store", Value),
    flag("--trace-out", Value),
];

/// The exploration job `explore` and `submit` share ([`read_job`]).
const JOB: &[Flag] = &[
    flag("--param", Repeated),
    flag("--metric", Value),
    flag("--generations", Value),
    flag("--pop", Value),
    flag("--seed", Value),
    flag("--surrogate", Value),
    Flag {
        name: "--explorer",
        // `--algorithm` predates the portfolio.
        alias: Some("--algorithm"),
        arity: Value,
    },
];

/// The daemon a client subcommand talks to.
const ADDR: &[Flag] = &[flag("--addr", Value)];

const EVALUATE: &[Flag] = &[flag("--set", Repeated)];

const EXPLORE: &[Flag] = &[
    flag("--deadline", Value),
    flag("--plot", Switch),
    flag("--csv", Value),
    flag("--resume", Value),
    flag("--store-capacity", Value),
];

const SERVE: &[Flag] = &[
    flag("--listen", Value),
    flag("--slots", Value),
    flag("--root", Value),
    flag("--store-capacity", Value),
];

const SUBMIT: &[Flag] = &[
    flag("--tenant", Value),
    flag("--priority", Value),
    flag("--backend", Value),
    flag("--no-store", Switch),
    flag("--trace-out", Value),
];

/// The flag table: every subcommand that takes flags, with its rows.
const COMMANDS: &[(&str, &[&[Flag]])] = &[
    ("evaluate", &[DESIGN, LOCAL_RUN, EVALUATE]),
    ("explore", &[DESIGN, LOCAL_RUN, JOB, EXPLORE]),
    ("serve", &[SERVE]),
    ("submit", &[ADDR, DESIGN, JOB, SUBMIT]),
    ("status", &[ADDR]),
    ("shutdown", &[ADDR]),
];

/// A subcommand's argv, read once against its rows of `COMMANDS`.
struct Args {
    /// The flags given, in argv order, under their names (not aliases),
    /// with their values (`None` for a switch): every occurrence of a
    /// repeated flag, the last of any other.
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn read(cmd: &str, argv: &[String]) -> Result<Args, String> {
        let (_, groups) = COMMANDS
            .iter()
            .find(|(name, _)| *name == cmd)
            .expect("every flagged subcommand has a row group");
        let mut given = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some(flag) = groups
                .iter()
                .flat_map(|group| group.iter())
                .find(|f| f.name == arg.as_str() || f.alias == Some(arg.as_str()))
            else {
                return Err(if arg.starts_with("--") {
                    format!("{cmd}: unknown flag `{arg}`")
                } else {
                    format!("unexpected argument `{arg}`")
                });
            };
            let value = match flag.arity {
                Switch => None,
                Value | Repeated => match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{arg}: missing value")),
                },
            };
            if let Value = flag.arity {
                given.retain(|(name, _)| *name != flag.name);
            }
            given.push((flag.name, value));
        }
        Ok(Args { given })
    }

    fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for `name`, in argv order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(n, _)| *n == name)?;
        value.as_deref()
    }

    /// The value of `name` parsed as a number.
    fn number<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: not a number")))
            .transpose()
    }
}

fn cmd_parts(out: &mut String) -> Result<(), String> {
    let catalog = Catalog::builtin();
    let _ = writeln!(
        out,
        "{:<26} {:<22} {:>9} {:>9} {:>6} {:>6} {:>6}",
        "part", "family", "LUT", "FF", "BRAM", "URAM", "DSP"
    );
    for p in catalog.parts() {
        let _ = writeln!(
            out,
            "{:<26} {:<22} {:>9} {:>9} {:>6} {:>6} {:>6}",
            p.name,
            p.family.to_string(),
            p.capacity.get(ResourceKind::Lut),
            p.capacity.get(ResourceKind::Register),
            p.capacity.get(ResourceKind::Bram),
            p.capacity.get(ResourceKind::Uram),
            p.capacity.get(ResourceKind::Dsp),
        );
    }
    Ok(())
}

fn cmd_parse(files: &[String], out: &mut String) -> Result<(), String> {
    if files.is_empty() {
        return Err("parse: no files given".into());
    }
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let lang = language_of(path)?;
        let (file, diags) =
            dovado_hdl::parse_source(lang, &text).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "{path} ({lang}):");
        for d in diags.iter() {
            let _ = writeln!(out, "  {d}");
        }
        for m in &file.modules {
            let _ = writeln!(out, "  module {} [{}]", m.name, m.language);
            for p in &m.parameters {
                let kind = if p.local { "localparam" } else { "parameter" };
                let default = p
                    .default
                    .as_ref()
                    .map(|d| format!(" = {d}"))
                    .unwrap_or_default();
                let _ = writeln!(out, "    {kind} {}{default}", p.name);
            }
            for port in &m.ports {
                let _ = writeln!(
                    out,
                    "    port {} : {} {}",
                    port.name, port.direction, port.ty
                );
            }
            if let Some(clk) = m.clock_port() {
                let _ = writeln!(out, "    clock candidate: {}", clk.name);
            }
        }
        for pkg in &file.packages {
            let _ = writeln!(out, "  package {}", pkg.name);
        }
    }
    Ok(())
}

/// Reads the design flags: `--source` files (each named by its base
/// name) or a `--project` tree, and the top module.
fn read_design(args: &Args) -> Result<(Vec<HdlSource>, String), String> {
    let top = args.value("--top");
    if let Some(dir) = args.value("--project") {
        // A project tree is a complete source set: catalog it, take the
        // dependency-ordered sources, and let the graph infer the top
        // unless --top overrides it.
        if args.value("--source").is_some() {
            return Err("--project and --source are mutually exclusive".into());
        }
        return load_project_tree(Path::new(dir), top).map_err(|e| format!("--project: {e}"));
    }
    let sources = args
        .values("--source")
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let name = path.rsplit('/').next().unwrap_or(path);
            Ok(HdlSource::new(name, language_of(path)?, text))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if sources.is_empty() {
        return Err("missing --source (or --project)".into());
    }
    let top = top.ok_or("missing --top")?;
    Ok((sources, top.to_string()))
}

/// Reads the job flags `explore` and `submit` share into `spec`; a flag
/// not given keeps `spec`'s value (the subcommand's default).
fn read_job(args: &Args, mut spec: JobSpec) -> Result<JobSpec, String> {
    let (sources, top) = read_design(args)?;
    spec.sources = sources.into_iter().map(|s| (s.name, s.content)).collect();
    spec.top = top;
    spec.part = args.value("--part").map(str::to_string);
    spec.period_ns = args.number("--period")?;
    spec.params = args
        .values("--param")
        .map(|param| {
            param
                .split_once('=')
                .map(|(name, domain)| (name.to_string(), domain.to_string()))
                .ok_or_else(|| format!("--param: want NAME=SPEC, got `{param}`"))
        })
        .collect::<Result<_, _>>()?;
    if spec.params.is_empty() {
        return Err("at least one --param is required".into());
    }
    spec.metrics = args.value("--metric").map(str::to_string);
    spec.generations = args.number("--generations")?.unwrap_or(spec.generations);
    spec.pop = args.number("--pop")?.unwrap_or(spec.pop);
    spec.seed = args.number("--seed")?.unwrap_or(spec.seed);
    spec.surrogate = args.number("--surrogate")?;
    if let Some(explorer) = args.value("--explorer") {
        spec.explorer = explorer.to_string();
    }
    Ok(spec)
}

/// The tool-flow options of a local run over the evaluator defaults.
fn flow_config(args: &Args) -> Result<EvalConfig, String> {
    let mut eval = EvalConfig::default();
    if let Some(step) = args.value("--step") {
        eval.step = match step {
            "synth" | "synthesis" => FlowStep::Synthesis,
            "impl" | "implementation" => FlowStep::Implementation,
            other => return Err(format!("--step: unknown step `{other}`")),
        };
    }
    if let Some(directive) = args.value("--synth-directive") {
        eval.synth_directive = directive.to_string();
    }
    if let Some(directive) = args.value("--impl-directive") {
        eval.impl_directive = directive.to_string();
    }
    eval.incremental = !args.switch("--no-incremental");
    Ok(eval)
}

/// The backend spec of every local run, `KIND:SEED`: `DOVADO_BACKEND`
/// picks the kind (see [`backend_kind`]) and the seed is the evaluator's
/// default.
fn local_backend_spec() -> Result<String, String> {
    let kind = backend_kind(std::env::var("DOVADO_BACKEND").ok().as_deref())?;
    Ok(format!("{kind}:{}", EvalConfig::default().seed))
}

/// The backend kind a `DOVADO_BACKEND` value names: `mock` for the
/// scripted mock; unset, empty, `sim` or `vivado-sim` for the simulated
/// Vivado. Anything else is rejected rather than silently simulated.
fn backend_kind(value: Option<&str>) -> Result<&'static str, String> {
    match value {
        Some("mock") => Ok("mock"),
        None | Some("" | "sim" | "vivado-sim") => Ok("vivado-sim"),
        Some(other) => Err(format!("DOVADO_BACKEND: unknown backend `{other}`")),
    }
}

/// Where a local run's tool calls go: the backend a spec names, in this
/// process under an optional `--jobs` thread cap, or on a `--workers`
/// fleet of `dovado worker` child processes.
struct LocalRun {
    backend: Arc<dyn ToolBackend>,
    jobs: Option<usize>,
    workers: Option<usize>,
    fleet: Option<Arc<RemoteBackend>>,
}

impl LocalRun {
    fn new(args: &Args, spec: &str) -> Result<LocalRun, String> {
        let err = |e: DovadoError| e.to_string();
        let jobs = args.number("--jobs")?.map(validate_jobs);
        let jobs = jobs.transpose().map_err(err)?;
        let workers = args.number("--workers")?.map(validate_workers);
        let workers = workers.transpose().map_err(err)?;
        if jobs.is_some() && workers.is_some() {
            return Err("--jobs and --workers are mutually exclusive".into());
        }
        let fleet = match workers {
            Some(n) => {
                let exe = std::env::current_exe().map_err(|e| format!("--workers: {e}"))?;
                let command = vec![exe.to_string_lossy().into_owned(), "worker".into()];
                let fleet =
                    process_fleet(command, spec, n).map_err(|e| format!("--workers: {e}"))?;
                Some(Arc::new(fleet))
            }
            None => None,
        };
        let backend: Arc<dyn ToolBackend> = match &fleet {
            Some(fleet) => fleet.clone(),
            None => Arc::from(
                backend_from_spec(spec).ok_or_else(|| format!("unknown backend spec `{spec}`"))?,
            ),
        };
        Ok(LocalRun {
            backend,
            jobs,
            workers,
            fleet,
        })
    }

    /// Forwards the fleet's lifecycle events to the run's spine.
    fn attach(&self, spine: &EventBus) {
        if let Some(fleet) = &self.fleet {
            attach_lifecycle(fleet, spine);
        }
    }

    /// Runs `op` in a thread pool capped at `--jobs`, or directly (all
    /// cores) when no cap was asked for.
    fn install<R>(&self, op: impl FnOnce() -> R) -> Result<R, String> {
        match self.jobs {
            None => Ok(op()),
            Some(n) => {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build()
                    .map_err(|e| format!("--jobs: {e}"))?;
                Ok(pool.install(op))
            }
        }
    }

    /// One summary line of the fleet's lifecycle side channel, if any.
    fn report_fleet(&self, spine: &EventBus, out: &mut String) {
        let Some(workers) = self.workers else { return };
        let events = spine.worker_events();
        let count = |k: &str| {
            events
                .iter()
                .filter(|e| matches!(e, ObsEvent::Worker { kind, .. } if *kind == k))
                .count()
        };
        let _ = writeln!(
            out,
            "{:<13}: {workers} worker(s): {} spawned, {} steal(s), {} death(s), {} requeue(d)",
            "fleet",
            count("spawned"),
            count("stole"),
            count("died"),
            count("requeued"),
        );
    }
}

/// The `worker` subcommand: serve the distributed-evaluation frame
/// protocol over this process's stdio until the coordinator shuts us
/// down. Nothing human-readable is written to stdout — it carries only
/// protocol frames.
fn cmd_worker() -> Result<(), String> {
    crate::worker::serve_stdio().map_err(|e| format!("worker: {e}"))
}

/// Serializes a spine snapshot as JSON Lines to `path`.
fn write_trace_file(path: &str, snapshot: &crate::obs::SpineSnapshot) -> Result<(), String> {
    std::fs::write(path, crate::obs::jsonl_string(snapshot)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_evaluate(argv: &[String], out: &mut String) -> Result<(), String> {
    let args = Args::read("evaluate", argv)?;
    let (sources, top) = read_design(&args)?;
    let mut eval = flow_config(&args)?;
    if let Some(part) = args.value("--part") {
        eval.part = part.to_string();
    }
    if let Some(period) = args.number("--period")? {
        eval.target_period_ns = period;
    }
    let mut assignments: Vec<(&str, i64)> = Vec::new();
    for set in args.values("--set") {
        let (k, v) = set
            .split_once('=')
            .ok_or_else(|| format!("--set: want NAME=VALUE, got `{set}`"))?;
        let v = v
            .parse()
            .map_err(|_| format!("--set: non-integer value `{v}`"))?;
        assignments.push((k, v));
    }
    let point = DesignPoint::from_pairs(&assignments);
    let run = LocalRun::new(&args, &local_backend_spec()?)?;
    let mut evaluator = Evaluator::with_backend(sources, &top, eval, run.backend.clone())
        .map_err(|e| e.to_string())?;
    run.attach(evaluator.spine());
    let store_dir = args.value("--store");
    if let Some(dir) = store_dir {
        // The same `<dir>/store/` an `explore --store <dir>` fills.
        let store = EvalStore::open(&PersistConfig::new(dir).store_dir())
            .map_err(|e| format!("--store: {e}"))?;
        evaluator.attach_store(store);
    }
    let eval = run
        .install(|| evaluator.evaluate(&point))?
        .map_err(|e| e.to_string())?;

    let _ = writeln!(out, "design point : {point}");
    for kind in ResourceKind::ALL {
        let v = eval.utilization.get(kind);
        if v > 0 {
            let _ = writeln!(out, "{:<13}: {v}", kind.to_string());
        }
    }
    let _ = writeln!(
        out,
        "{:<13}: {:.3} ns (target {:.3} ns)",
        "WNS", eval.wns_ns, eval.period_ns
    );
    let _ = writeln!(out, "{:<13}: {:.2} MHz", "Fmax", eval.fmax_mhz);
    let _ = writeln!(
        out,
        "{:<13}: {:.0} simulated s",
        "tool time", eval.tool_time_s
    );
    if store_dir.is_some() {
        let served = if evaluator.trace_summary().store_hits > 0 {
            "persistent store (no tool run)"
        } else {
            "tool run (result stored for reuse)"
        };
        let _ = writeln!(out, "{:<13}: {served}", "answered by");
    }
    run.report_fleet(evaluator.spine(), out);
    if let Some(path) = args.value("--trace-out") {
        write_trace_file(path, &evaluator.snapshot())?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(())
}

/// The persistence `--store`, `--resume` and `--store-capacity` ask for.
fn persist_config(args: &Args) -> Result<Option<PersistConfig>, String> {
    let store_capacity =
        validate_store_capacity(args.number("--store-capacity")?).map_err(|e| e.to_string())?;
    let (store, resume) = (args.value("--store"), args.value("--resume"));
    if matches!((store, resume), (Some(s), Some(r)) if s != r) {
        return Err("--store and --resume point at different directories".into());
    }
    let Some(dir) = resume.or(store) else {
        if store_capacity.is_some() {
            return Err("--store-capacity requires --store (or --resume)".into());
        }
        return Ok(None);
    };
    Ok(Some(PersistConfig {
        dir: PathBuf::from(dir),
        resume: resume.is_some(),
        store_capacity,
    }))
}

fn cmd_explore(argv: &[String], out: &mut String) -> Result<(), String> {
    let args = Args::read("explore", argv)?;
    let spec = read_job(
        &args,
        JobSpec {
            generations: 15,
            pop: 20,
            backend: local_backend_spec()?,
            ..JobSpec::default()
        },
    )?;
    let eval = flow_config(&args)?;
    let deadline: Option<f64> = args.number("--deadline")?;
    let persist = persist_config(&args)?;
    let run = LocalRun::new(&args, &spec.backend)?;
    let (tool, mut cfg) = spec
        .build(eval, run.backend.clone())
        .map_err(|e| e.to_string())?;
    run.attach(tool.evaluator().spine());
    cfg.parallel = true;
    cfg.workers = run.workers;
    if let Some(d) = deadline {
        cfg.termination = Termination::Any(vec![
            Termination::Generations(spec.generations),
            Termination::SoftDeadline(d),
        ]);
    }
    let report = run
        .install(|| match &persist {
            Some(p) => tool.explore_persistent(&cfg, p),
            None => tool.explore(&cfg),
        })?
        .map_err(|e| e.to_string())?;

    let _ = writeln!(out, "{}", report.summary());
    if let Some(sel) = &report.selection {
        let race = if sel.candidates.is_empty() {
            "no race needed".to_string()
        } else {
            format!(
                "{} low-fidelity run(s), {:.1}s",
                sel.lowfi_runs, sel.lowfi_time_s
            )
        };
        let _ = writeln!(out, "explorer     : {} (auto: {race})", sel.explorer);
    }
    run.report_fleet(tool.evaluator().spine(), out);
    if persist.is_some() {
        let served = if report.trace.store_hits > 0 {
            format!(
                "persistent store ({} hit(s), {} tool attempt(s))",
                report.trace.store_hits, report.trace.attempts
            )
        } else {
            format!(
                "tool runs ({} attempt(s), results stored for reuse)",
                report.trace.attempts
            )
        };
        let _ = writeln!(out, "answered by  : {served}");
    }
    let flow_log = report.flow_log(20);
    if !flow_log.is_empty() {
        let _ = writeln!(out, "flow events (failed/retried attempts):");
        let _ = write!(out, "{flow_log}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", report.configuration_table());
    let _ = writeln!(out, "{}", report.metric_table());
    if args.switch("--plot") && report.metrics.len() >= 2 {
        let _ = writeln!(
            out,
            "{}",
            report.scatter(0, report.metrics.len() - 1, 56, 14)
        );
    }
    if let Some(path) = args.value("--csv") {
        let mut w = crate::csv::CsvWriter::new();
        let mut header: Vec<String> = vec!["label".into()];
        if let Some(first) = report.pareto.first() {
            header.extend(first.point.names().iter().cloned());
        }
        header.extend(report.metrics.metrics().iter().map(|m| m.label()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        w.header(&header_refs);
        for (i, e) in report.pareto.iter().enumerate() {
            let mut row: Vec<String> = vec![crate::results::point_label(i)];
            row.extend(e.point.values().iter().map(|v| v.to_string()));
            row.extend(e.values.iter().map(|v| format!("{v:.3}")));
            w.row(&row);
        }
        std::fs::write(path, w.finish()).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    if let Some(path) = args.value("--trace-out") {
        write_trace_file(path, &report.spine)?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(())
}

fn cmd_demo(args: &[String], out: &mut String) -> Result<(), String> {
    let name = args
        .first()
        .ok_or_else(|| "demo: missing case-study name".to_string())?;
    let cs = match name.as_str() {
        "cv32e40p" | "fifo" => casestudies::cv32e40p::case_study(),
        "corundum" => casestudies::corundum::case_study(),
        "neorv32" => casestudies::neorv32::case_study(),
        "tirex" => casestudies::tirex::case_study(),
        other => return Err(format!("demo: unknown case study `{other}`")),
    };
    let _ = writeln!(
        out,
        "case study: {} (top {}, part {})",
        cs.name, cs.top, cs.part
    );
    let _ = writeln!(out, "space     : {}", cs.space);
    let tool = cs.dovado().map_err(|e| e.to_string())?;
    let report = tool
        .explore(&DseConfig {
            algorithm: Nsga2Config {
                pop_size: 14,
                seed: 1,
                ..Default::default()
            },
            termination: Termination::Generations(8),
            metrics: cs.metrics.clone(),
            surrogate: None,
            parallel: true,
            ..Default::default()
        })
        .map_err(|e| e.to_string())?;
    let _ = writeln!(out, "{}", report.summary());
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", report.configuration_table());
    let _ = writeln!(out, "{}", report.metric_table());
    Ok(())
}

/// The `serve` subcommand: run the multi-tenant DSE daemon until a
/// `shutdown` request arrives. The listening line goes straight to
/// stdout (not the buffered writer) so wrappers can scrape the bound
/// address before the daemon blocks.
fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let args = Args::read("serve", argv)?;
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.value("--listen").map_or(defaults.addr, str::to_string),
        slots: args.number("--slots")?.unwrap_or(defaults.slots),
        root: args.value("--root").map(PathBuf::from),
        store_capacity: args.number("--store-capacity")?,
    };
    if cfg.store_capacity.is_some() && cfg.root.is_none() {
        return Err("serve: --store-capacity requires --root".into());
    }
    let mut server = Server::start(cfg).map_err(|e| e.to_string())?;
    println!(
        "dovado serve: listening on {} ({} slot(s))",
        server.addr(),
        server.slots()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    Ok(())
}

/// The daemon address of a client-side subcommand.
fn daemon_addr<'a>(cmd: &str, args: &'a Args) -> Result<&'a str, String> {
    args.value("--addr")
        .ok_or_else(|| format!("{cmd}: --addr is required"))
}

/// The `submit` subcommand: send one job to a serve daemon, stream its
/// events to completion, and report the outcome. With `--trace-out`,
/// the streamed event lines are sorted into canonical key order and
/// written as a trace v2 file byte-compatible with `explore
/// --trace-out`.
fn cmd_submit(argv: &[String], out: &mut String) -> Result<(), String> {
    let args = Args::read("submit", argv)?;
    let addr = daemon_addr("submit", &args)?;
    let mut spec = read_job(&args, JobSpec::default())?;
    if let Some(backend) = args.value("--backend") {
        spec.backend = backend.to_string();
    }
    spec.use_store = !args.switch("--no-store");
    // Check the spec's space, metrics and explorer before connecting.
    spec.plan().map_err(|e| e.to_string())?;
    let tenant = args.value("--tenant").unwrap_or("anonymous");
    let priority = args.number("--priority")?.unwrap_or(1);
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    client.hello(tenant)?;
    let job = client.submit(tenant, priority, &spec)?;
    let _ = writeln!(out, "submitted {job} as {tenant}");
    let outcome = client.stream_until_done()?;
    if let Some(path) = args.value("--trace-out") {
        let mut events: Vec<(crate::obs::EventKey, String)> = outcome
            .lines
            .iter()
            .filter_map(|l| protocol::parse_event_line(l).map(|(k, _)| (k, l.clone())))
            .collect();
        events.sort_by_key(|(k, _)| *k);
        let mut text = format!("{}\n", crate::obs::trace_header());
        for (_, line) in events {
            text.push_str(&line);
            text.push('\n');
        }
        if let Some(summary) = outcome.lines.iter().rev().find(|l| {
            Json::parse(l).is_some_and(|v| v.get("type").and_then(Json::as_str) == Some("summary"))
        }) {
            text.push_str(summary);
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    let totals = protocol::fold_stream(outcome.lines.iter().map(String::as_str));
    let _ = writeln!(
        out,
        "{job}: {} after {} generation(s), {} attempt(s), {} store hit(s), {:.1} simulated tool s",
        outcome.status(),
        outcome
            .done
            .get("generations")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        totals.summary.attempts,
        totals.summary.store_hits,
        totals.tool_time_s,
    );
    if let Some(error) = outcome.done.get("error").and_then(Json::as_str) {
        let _ = writeln!(out, "{job}: error: {error}");
    }
    if let Some(pareto) = outcome.done.get("pareto").and_then(Json::as_arr) {
        let _ = writeln!(out, "pareto front ({} point(s)):", pareto.len());
        for entry in pareto {
            let point = entry.get("point").and_then(Json::as_str).unwrap_or("?");
            let values: Vec<String> = entry
                .get("values")
                .and_then(Json::as_arr)
                .map(|vs| {
                    vs.iter()
                        .map(|v| match v.as_f64() {
                            Some(n) => format!("{n:.3}"),
                            None => "null".into(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            let _ = writeln!(out, "  {point} -> [{}]", values.join(", "));
        }
    }
    if outcome.status() == "failed" {
        return Err(format!("{job} failed"));
    }
    Ok(())
}

/// The `status` subcommand: print the daemon's one-line JSON status.
fn cmd_status(argv: &[String], out: &mut String) -> Result<(), String> {
    let args = Args::read("status", argv)?;
    let addr = daemon_addr("status", &args)?;
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    client
        .send_line("{\"cmd\":\"status\"}")
        .map_err(|e| format!("send: {e}"))?;
    let line = client
        .read_line()
        .map_err(|e| format!("read: {e}"))?
        .ok_or("server closed the connection")?;
    let _ = writeln!(out, "{line}");
    Ok(())
}

/// The `shutdown` subcommand: stop a running daemon.
fn cmd_shutdown(argv: &[String], out: &mut String) -> Result<(), String> {
    let args = Args::read("shutdown", argv)?;
    let addr = daemon_addr("shutdown", &args)?;
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    client.shutdown()?;
    let _ = writeln!(out, "daemon at {addr} is shutting down");
    Ok(())
}

pub(crate) fn language_of(path: &str) -> Result<Language, String> {
    path.rsplit('.')
        .next()
        .and_then(Language::from_extension)
        .ok_or_else(|| format!("{path}: unknown HDL extension (want .vhd/.vhdl/.v/.sv)"))
}

/// Parses a `--param` domain spec (see [`usage`]).
pub fn parse_domain(spec: &str) -> Result<Domain, String> {
    if spec == "bool" {
        return Ok(Domain::Bool);
    }
    if let Some(rest) = spec.strip_prefix("pow2:") {
        let (a, b) = rest
            .split_once(':')
            .ok_or_else(|| format!("pow2 spec wants pow2:a:b, got `{spec}`"))?;
        let min_exp: u32 = a.parse().map_err(|_| format!("bad exponent `{a}`"))?;
        let max_exp: u32 = b.parse().map_err(|_| format!("bad exponent `{b}`"))?;
        let d = Domain::PowerOfTwo { min_exp, max_exp };
        d.validate().map_err(|e| e.to_string())?;
        return Ok(d);
    }
    if spec.contains(':') {
        let parts: Vec<&str> = spec.split(':').collect();
        let lo: i64 = parts[0]
            .parse()
            .map_err(|_| format!("bad bound `{}`", parts[0]))?;
        let hi: i64 = parts[1]
            .parse()
            .map_err(|_| format!("bad bound `{}`", parts[1]))?;
        let step: i64 = match parts.len() {
            2 => 1,
            3 => parts[2]
                .parse()
                .map_err(|_| format!("bad step `{}`", parts[2]))?,
            _ => return Err(format!("range spec wants lo:hi[:step], got `{spec}`")),
        };
        let d = Domain::Range {
            lo: lo.min(hi),
            hi: hi.max(lo),
            step,
        };
        d.validate().map_err(|e| e.to_string())?;
        return Ok(d);
    }
    if spec.contains(',') {
        let mut values = Vec::new();
        for v in spec.split(',') {
            values.push(
                v.trim()
                    .parse::<i64>()
                    .map_err(|_| format!("bad value `{v}`"))?,
            );
        }
        values.sort_unstable();
        values.dedup();
        let d = Domain::Explicit(values);
        d.validate().map_err(|e| e.to_string())?;
        return Ok(d);
    }
    // A single value: a degenerate range.
    let v: i64 = spec
        .parse()
        .map_err(|_| format!("unrecognized domain spec `{spec}`"))?;
    Ok(Domain::Range {
        lo: v,
        hi: v,
        step: 1,
    })
}

/// Parses a `--metric` list such as `lut,ff,fmax`.
pub fn parse_metrics(spec: &str) -> Result<MetricSet, String> {
    let mut metrics = Vec::new();
    for item in spec.split(',') {
        let m = match item.trim().to_ascii_lowercase().as_str() {
            "lut" | "luts" => Metric::Utilization(ResourceKind::Lut),
            "ff" | "register" | "registers" | "reg" => Metric::Utilization(ResourceKind::Register),
            "bram" | "brams" => Metric::Utilization(ResourceKind::Bram),
            "uram" | "urams" => Metric::Utilization(ResourceKind::Uram),
            "dsp" | "dsps" => Metric::Utilization(ResourceKind::Dsp),
            "carry" => Metric::Utilization(ResourceKind::Carry),
            "io" => Metric::Utilization(ResourceKind::Io),
            "bufg" => Metric::Utilization(ResourceKind::Bufg),
            "fmax" | "freq" | "frequency" => Metric::Fmax,
            "power" | "pwr" => Metric::Power,
            other => return Err(format!("unknown metric `{other}`")),
        };
        if metrics.contains(&m) {
            return Err(format!("duplicate metric `{item}`"));
        }
        metrics.push(m);
    }
    if metrics.is_empty() {
        return Err("empty metric list".into());
    }
    Ok(MetricSet::new(metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("dovado-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const FIFO: &str = "module fifo_v3 #(parameter DEPTH = 8, parameter DATA_WIDTH = 32)\
                        (input logic clk_i); endmodule";

    #[test]
    fn backend_kind_names_both_backends() {
        for value in [None, Some(""), Some("sim"), Some("vivado-sim")] {
            assert_eq!(backend_kind(value), Ok("vivado-sim"), "{value:?}");
        }
        assert_eq!(backend_kind(Some("mock")), Ok("mock"));
        for value in ["vivado", "Mock", "mock:7", " sim"] {
            assert_eq!(
                backend_kind(Some(value)),
                Err(format!("DOVADO_BACKEND: unknown backend `{value}`"))
            );
        }
    }

    #[test]
    fn help_prints_usage() {
        let mut out = String::new();
        assert_eq!(run(&args(&["help"]), &mut out), 0);
        assert!(out.contains("USAGE"));
        let mut out2 = String::new();
        assert_eq!(run(&[], &mut out2), 0);
        assert!(out2.contains("USAGE"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        let mut out = String::new();
        assert_eq!(run(&args(&["frobnicate"]), &mut out), 1);
        assert!(out.contains("unknown subcommand"));
    }

    #[test]
    fn parts_lists_catalog() {
        let mut out = String::new();
        assert_eq!(run(&args(&["parts"]), &mut out), 0);
        assert!(out.contains("xc7k70tfbv676-1"));
        assert!(out.contains("xczu3eg"));
    }

    #[test]
    fn parse_prints_interface() {
        let path = write_temp("p.sv", FIFO);
        let mut out = String::new();
        assert_eq!(run(&args(&["parse", &path]), &mut out), 0);
        assert!(out.contains("module fifo_v3"));
        assert!(out.contains("parameter DEPTH"));
        assert!(out.contains("clock candidate: clk_i"));
    }

    #[test]
    fn parse_missing_file_errors() {
        let mut out = String::new();
        assert_eq!(run(&args(&["parse", "/nope/ghost.sv"]), &mut out), 1);
    }

    #[test]
    fn evaluate_end_to_end() {
        let path = write_temp("e.sv", FIFO);
        let mut out = String::new();
        let code = run(
            &args(&[
                "evaluate", "--source", &path, "--top", "fifo_v3", "--set", "DEPTH=64", "--part",
                "xc7k70t",
            ]),
            &mut out,
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Fmax"));
        assert!(out.contains("WNS"));
        assert!(out.contains("DEPTH=64"));
    }

    #[test]
    fn jobs_flag_does_not_change_results() {
        let path = write_temp("j.sv", FIFO);
        let explore = |jobs: &[&str]| {
            let mut a = args(&[
                "explore",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:512:2",
                "--generations",
                "3",
                "--pop",
                "8",
                "--seed",
                "7",
            ]);
            a.extend(jobs.iter().map(|s| s.to_string()));
            let mut out = String::new();
            assert_eq!(run(&a, &mut out), 0, "{out}");
            out
        };
        let capped = explore(&["--jobs", "1"]);
        let free = explore(&[]);
        assert!(capped.contains("non-dominated"), "{capped}");
        assert_eq!(capped, free, "thread cap must not change answers");
    }

    #[test]
    fn jobs_rejects_zero_and_garbage() {
        let path = write_temp("j0.sv", FIFO);
        for bad in ["0", "many"] {
            let mut out = String::new();
            let code = run(
                &args(&[
                    "evaluate", "--source", &path, "--top", "fifo_v3", "--jobs", bad,
                ]),
                &mut out,
            );
            assert_eq!(code, 1, "{out}");
            assert!(out.contains("--jobs"), "{out}");
        }
    }

    #[test]
    fn evaluate_requires_top() {
        let path = write_temp("t.sv", FIFO);
        let mut out = String::new();
        assert_eq!(run(&args(&["evaluate", "--source", &path]), &mut out), 1);
        assert!(out.contains("missing --top"));
    }

    #[test]
    fn explore_end_to_end_with_plot() {
        let path = write_temp("x.sv", FIFO);
        let mut out = String::new();
        let code = run(
            &args(&[
                "explore",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:128:2",
                "--metric",
                "lut,ff,fmax",
                "--generations",
                "4",
                "--pop",
                "8",
                "--plot",
            ]),
            &mut out,
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("non-dominated"));
        assert!(out.contains("Design Point"));
        assert!(out.contains("Fmax[MHz] (y)"), "plot missing:\n{out}");
    }

    #[test]
    fn explore_requires_params() {
        let path = write_temp("y.sv", FIFO);
        let mut out = String::new();
        assert_eq!(
            run(
                &args(&["explore", "--source", &path, "--top", "fifo_v3"]),
                &mut out
            ),
            1
        );
        assert!(out.contains("--param"));
    }

    fn temp_store(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("dovado-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn evaluate_store_answers_second_run_from_disk() {
        let path = write_temp("es.sv", FIFO);
        let store = temp_store("eval-store");
        let eval = || {
            let mut out = String::new();
            let code = run(
                &args(&[
                    "evaluate", "--source", &path, "--top", "fifo_v3", "--set", "DEPTH=32",
                    "--store", &store,
                ]),
                &mut out,
            );
            assert_eq!(code, 0, "{out}");
            out
        };
        let cold = eval();
        assert!(cold.contains("stored for reuse"), "{cold}");
        let warm = eval();
        assert!(warm.contains("persistent store (no tool run)"), "{warm}");
        // Same metrics either way.
        assert!(warm.contains(cold.lines().find(|l| l.contains("Fmax")).unwrap()));
    }

    #[test]
    fn explore_store_then_resume_reproduces_tables() {
        let path = write_temp("xs.sv", FIFO);
        let store = temp_store("explore-store");
        let explore = |last: &[&str]| {
            let mut a = args(&[
                "explore",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:512:2",
                "--generations",
                "3",
                "--pop",
                "8",
                "--seed",
                "7",
            ]);
            a.extend(last.iter().map(|s| s.to_string()));
            let mut out = String::new();
            assert_eq!(run(&a, &mut out), 0, "{out}");
            out
        };
        let cold = explore(&["--store", &store]);
        assert!(cold.contains("answered by"), "{cold}");
        // A warm rerun is answered entirely from the store, and the
        // explore summary says so the same way evaluate does.
        let warm = explore(&["--store", &store]);
        assert!(warm.contains("store hits"), "{warm}");
        assert!(warm.contains("persistent store"), "{warm}");
        assert!(warm.contains("0 tool attempt(s)"), "{warm}");
        // Resuming the finished journal reproduces the same result.
        let resumed = explore(&["--resume", &store]);
        // Tables (everything from the configuration table down) match
        // across all three; the summary lines legitimately differ in
        // their store-hit accounting.
        let tables = |s: &str| s[s.find("Design Point").unwrap()..].to_string();
        assert_eq!(tables(&cold), tables(&warm));
        assert_eq!(tables(&cold), tables(&resumed));
    }

    #[test]
    fn trace_out_writes_versioned_jsonl_for_both_commands() {
        let path = write_temp("to.sv", FIFO);
        let dir = std::env::temp_dir().join(format!("dovado-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let eval_trace = dir.join("eval.jsonl");
        let mut out = String::new();
        let code = run(
            &args(&[
                "evaluate",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--set",
                "DEPTH=64",
                "--trace-out",
                eval_trace.to_str().unwrap(),
            ]),
            &mut out,
        );
        assert_eq!(code, 0, "{out}");
        let text = std::fs::read_to_string(&eval_trace).unwrap();
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"schema\":\"dovado-trace\""), "{first}");
        assert!(first.contains("\"version\":2"), "{first}");
        assert!(text.contains("\"type\":\"attempt\""), "{text}");

        let explore_trace = dir.join("explore.jsonl");
        let mut out2 = String::new();
        let code = run(
            &args(&[
                "explore",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:64:2",
                "--generations",
                "2",
                "--pop",
                "6",
                "--trace-out",
                explore_trace.to_str().unwrap(),
            ]),
            &mut out2,
        );
        assert_eq!(code, 0, "{out2}");
        let text = std::fs::read_to_string(&explore_trace).unwrap();
        assert!(text.contains("\"type\":\"generation\""), "{text}");
        assert!(text.lines().last().unwrap().contains("\"summary\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_rejects_conflicting_store_and_resume() {
        let path = write_temp("xc.sv", FIFO);
        let mut out = String::new();
        let code = run(
            &args(&[
                "explore",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:8",
                "--store",
                "/tmp/a",
                "--resume",
                "/tmp/b",
            ]),
            &mut out,
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("different directories"), "{out}");
    }

    #[test]
    fn explore_resume_without_journal_errors() {
        let path = write_temp("xr.sv", FIFO);
        let store = temp_store("no-journal");
        let mut out = String::new();
        let code = run(
            &args(&[
                "explore",
                "--source",
                &path,
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:8",
                "--resume",
                &store,
            ]),
            &mut out,
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("journal"), "{out}");
    }

    #[test]
    fn domain_specs() {
        assert_eq!(
            parse_domain("2:1000").unwrap(),
            Domain::Range {
                lo: 2,
                hi: 1000,
                step: 1
            }
        );
        assert_eq!(
            parse_domain("2:1000:2").unwrap(),
            Domain::Range {
                lo: 2,
                hi: 1000,
                step: 2
            }
        );
        assert_eq!(
            parse_domain("pow2:10:16").unwrap(),
            Domain::PowerOfTwo {
                min_exp: 10,
                max_exp: 16
            }
        );
        assert_eq!(parse_domain("bool").unwrap(), Domain::Bool);
        assert_eq!(
            parse_domain("8,32,16").unwrap(),
            Domain::Explicit(vec![8, 16, 32])
        );
        assert_eq!(
            parse_domain("7").unwrap(),
            Domain::Range {
                lo: 7,
                hi: 7,
                step: 1
            }
        );
        assert!(parse_domain("pow2:9").is_err());
        assert!(parse_domain("a:b").is_err());
        assert!(parse_domain("").is_err());
    }

    #[test]
    fn metric_specs() {
        let ms = parse_metrics("lut,ff,fmax").unwrap();
        assert_eq!(ms.len(), 3);
        assert!(parse_metrics("lut,lut").is_err());
        assert!(parse_metrics("warp-cores").is_err());
        assert!(parse_metrics("").is_err());
    }

    /// The committed multi-file fixture tree (VHDL package + body, an
    /// entity with two architectures, a Verilog top) at the repo root.
    fn fixture_tree() -> String {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/project_tree"
        )
        .to_string()
    }

    #[test]
    fn evaluate_project_tree_end_to_end() {
        let tree = fixture_tree();
        let mut out = String::new();
        let code = run(
            &args(&["evaluate", "--project", &tree, "--set", "DEPTH=64"]),
            &mut out,
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Fmax"), "{out}");
        assert!(out.contains("DEPTH=64"), "{out}");
    }

    #[test]
    fn explore_project_tree_with_explicit_top() {
        let tree = fixture_tree();
        let mut out = String::new();
        let code = run(
            &args(&[
                "explore",
                "--project",
                &tree,
                "--top",
                "prj_top",
                "--param",
                "DEPTH=2:64:2",
                "--generations",
                "2",
                "--pop",
                "6",
            ]),
            &mut out,
        );
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("non-dominated"), "{out}");
    }

    #[test]
    fn project_and_source_are_mutually_exclusive() {
        let path = write_temp("ps.sv", FIFO);
        let tree = fixture_tree();
        let mut out = String::new();
        let code = run(
            &args(&["evaluate", "--project", &tree, "--source", &path]),
            &mut out,
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("mutually exclusive"), "{out}");
    }

    #[test]
    fn project_ambiguous_top_names_candidates() {
        // Two unrelated modules in one tree: inference must fail with a
        // sorted candidate list and a --top hint.
        let dir = std::env::temp_dir().join(format!("dovado-cli-ambig-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("z.v"), "module zeta(input wire c); endmodule").unwrap();
        std::fs::write(dir.join("a.v"), "module alpha(input wire c); endmodule").unwrap();
        let mut out = String::new();
        let code = run(
            &args(&["evaluate", "--project", dir.to_str().unwrap()]),
            &mut out,
        );
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("ambiguous top module"), "{out}");
        assert!(out.contains("alpha, zeta"), "{out}");
        assert!(out.contains("--top"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn project_store_hits_on_rerun_and_misses_after_dependency_edit() {
        // Copy the fixture tree so we can mutate the package body.
        let src = fixture_tree();
        let dir = std::env::temp_dir().join(format!("dovado-cli-prj-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["pkg", "rtl"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        for rel in [
            "pkg/prj_pkg.vhd",
            "pkg/prj_pkg_body.vhd",
            "rtl/prj_core.vhd",
            "rtl/prj_core_rtl.vhd",
            "rtl/prj_core_fast.vhd",
            "rtl/prj_top.v",
        ] {
            std::fs::copy(format!("{src}/{rel}"), dir.join(rel)).unwrap();
        }
        let store = temp_store("prj-evalstore");
        let eval = || {
            let mut out = String::new();
            let code = run(
                &args(&[
                    "evaluate",
                    "--project",
                    dir.to_str().unwrap(),
                    "--set",
                    "DEPTH=32",
                    "--store",
                    &store,
                ]),
                &mut out,
            );
            assert_eq!(code, 0, "{out}");
            out
        };
        let cold = eval();
        assert!(cold.contains("stored for reuse"), "{cold}");
        let warm = eval();
        assert!(warm.contains("persistent store (no tool run)"), "{warm}");
        // Edit a file the top only reaches through the dependency graph
        // (the package body): the store must *miss* and rerun the tool.
        let body = dir.join("pkg/prj_pkg_body.vhd");
        let text = std::fs::read_to_string(&body).unwrap();
        std::fs::write(&body, text.replace("deferred constant", "changed constant")).unwrap();
        let edited = eval();
        assert!(
            edited.contains("stored for reuse"),
            "dependency edit must miss the store: {edited}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn demo_runs_a_case_study() {
        let mut out = String::new();
        let code = run(&args(&["demo", "neorv32"]), &mut out);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("neorv32"));
        assert!(out.contains("non-dominated"));
    }

    #[test]
    fn demo_unknown_case() {
        let mut out = String::new();
        assert_eq!(run(&args(&["demo", "warpdrive"]), &mut out), 1);
    }

    #[test]
    fn malformed_command_lines_fail_before_exploring() {
        let path = write_temp("bad.sv", FIFO);
        let explore = |extra: &[&str]| {
            let mut a = args(&["explore", "--source", &path, "--top", "fifo_v3"]);
            a.extend(args(&[
                "--param",
                "DEPTH=2:8",
                "--generations",
                "2",
                "--pop",
                "4",
            ]));
            a.extend(args(extra));
            a
        };
        let submit = |extra: &[&str]| {
            let mut a = args(&["submit", "--addr", "127.0.0.1:1", "--source", &path]);
            a.extend(args(&["--top", "fifo_v3", "--param", "DEPTH=2:8"]));
            a.extend(args(extra));
            a
        };
        // (argv, text the error must contain)
        let rows = [
            (explore(&["--csv"]), "--csv: missing value"),
            (
                explore(&["--trace-out", "--plot"]),
                "--trace-out: missing value",
            ),
            (explore(&["--plot", "oops"]), "unexpected argument `oops`"),
            (submit(&["--no-store", "x"]), "unexpected argument `x`"),
            (explore(&["--algorithm"]), "--algorithm: missing value"),
            (
                explore(&["--param", "depth=4:16"]),
                "duplicate parameter `depth`",
            ),
            (explore(&["--pop", "1"]), "--pop: NSGA-II needs"),
            (explore(&["--pop", "0"]), "--pop: NSGA-II needs"),
        ];
        for (argv, expected) in rows {
            let mut out = String::new();
            assert_eq!(run(&argv, &mut out), 1, "{argv:?}\n{out}");
            assert!(out.contains(expected), "{argv:?}\n{out}");
            assert!(!out.contains("non-dominated"), "explored anyway: {argv:?}");
        }
    }

    #[test]
    fn arity_decides_which_occurrences_count() {
        let argv = args(&[
            "--param",
            "A=1:2",
            "--seed",
            "1",
            "--plot",
            "--param",
            "B=3:4",
            "--algorithm",
            "sa",
            "--seed",
            "2",
        ]);
        let parsed = Args::read("explore", &argv).unwrap();
        assert_eq!(
            parsed.values("--param").collect::<Vec<_>>(),
            ["A=1:2", "B=3:4"]
        );
        assert_eq!(parsed.value("--seed"), Some("2"));
        assert_eq!(parsed.value("--explorer"), Some("sa"));
        assert!(parsed.switch("--plot") && !parsed.switch("--csv"));
    }

    #[test]
    fn usage_lists_every_flag_in_the_table() {
        let usage = usage();
        for (cmd, groups) in COMMANDS {
            // The subcommand's synopsis: its `dovado CMD` lines.
            let start = usage.find(&format!("\n  dovado {cmd} ")).unwrap() + 1;
            let synopsis = usage[start..].split("\n  dovado ").next().unwrap();
            let synopsis = synopsis.split("\n\n").next().unwrap();
            for flag in groups.iter().flat_map(|g| g.iter()) {
                assert!(synopsis.contains(flag.name), "{cmd}: {}", flag.name);
                if let Some(alias) = flag.alias {
                    assert!(usage.contains(alias), "usage lacks {alias}");
                }
            }
        }
    }
}
