//! The `serve_tenants` workload: one `dovado serve --slots 2` daemon per
//! run and two tenants on one connection each, in a closed loop — a
//! tenant submits its next job only after the previous one reported
//! `done`. Each job is checked: it ends `done`, its streamed lines fold
//! to its own summary line, and its front equals a standalone reference
//! of the same spec made on a daemon root of its own.

use crate::explore::hv_of;
use crate::host;
use crate::inputs::{self, splitmix};
use crate::proc;
use crate::report::Outcome;
use crate::stats;
use dovado::casestudies::{self, CaseStudy};
use dovado::serve::{fold_stream, Client, JobSpec, Json};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// NSGA-II population of a served job.
const JOB_POP: usize = 10;
/// NSGA-II generations of a served job.
const JOB_GENERATIONS: u32 = 5;
/// Distinct optimizer seeds per case study; both tenants draw from the
/// same pool, so they partly reuse each other's points in the shared store.
const SEED_POOL: usize = 4;
/// Daemon start-ups timed per run (median reported as `setup_s`).
const SETUP_REPS: usize = 9;

/// A running daemon.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `dovado serve` on a fresh `root` and waits for its
    /// `listening on` line.
    fn start(dovado: &Path, root: &Path) -> io::Result<Daemon> {
        let _ = fs::remove_dir_all(root);
        fs::create_dir_all(root)?;
        let mut child = Command::new(dovado)
            .args(["serve", "--listen", "127.0.0.1:0", "--slots"])
            .arg(inputs::THREADS.to_string())
            .arg("--root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(fs::File::create(root.with_extension("stderr.txt"))?)
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("dovado serve: listening on ")
            .and_then(|rest| rest.split(" (").next())
            .map(str::to_string);
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = proc::reap(child);
                Err(io::Error::other(format!(
                    "daemon did not start: `{}`",
                    line.trim()
                )))
            }
        }
    }

    /// Asks the daemon to stop and reaps it; returns how it ended.
    fn stop(self) -> io::Result<proc::Exit> {
        let asked = Client::connect(&self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown());
        let mut child = self.child;
        if asked.is_err() {
            let _ = child.kill();
        }
        proc::reap(child)
    }
}

/// The job mix of a run with benchmark seed `seed`.
pub struct Mix {
    specs: Vec<JobSpec>,
}

impl Mix {
    /// Small seeded NSGA-II jobs on the VHDL TiReX and Neorv32 case
    /// studies over the `vivado-sim` backend, shared store on.
    pub fn new(seed: u64) -> Mix {
        let backend = format!("vivado-sim:{}", splitmix(seed) % 1000);
        let mut specs = Vec::new();
        for study in [
            casestudies::tirex::case_study(),
            casestudies::neorv32::case_study(),
        ] {
            for k in 0..SEED_POOL as u64 {
                specs.push(spec_of(
                    &study,
                    splitmix(seed ^ (k + 1)) % 1_000_000,
                    &backend,
                ));
            }
        }
        Mix { specs }
    }

    /// Spec index of tenant `t`'s `i`-th job: the tenants alternate case
    /// studies out of phase and walk the seed pool with an offset.
    fn job(&self, tenant: usize, i: usize) -> usize {
        let study = (i + tenant) % 2;
        let k = (i / 2 + tenant) % SEED_POOL;
        study * SEED_POOL + k
    }
}

fn spec_of(study: &CaseStudy, seed: u64, backend: &str) -> JobSpec {
    JobSpec {
        sources: study
            .sources
            .iter()
            .map(|s| (s.name.clone(), s.content.clone()))
            .collect(),
        top: study.top.clone(),
        part: Some(study.part.to_string()),
        params: study
            .space
            .params()
            .iter()
            .map(|p| (p.name.clone(), inputs::domain_spec(&p.domain)))
            .collect(),
        generations: JOB_GENERATIONS,
        pop: JOB_POP,
        seed,
        backend: backend.to_string(),
        use_store: true,
        ..JobSpec::default()
    }
}

/// A front's bitwise identity: `(point, value bits)` per entry.
type FrontKey = Vec<(String, Vec<String>)>;

fn front_key(done: &Json) -> Option<FrontKey> {
    done.get("pareto")?
        .as_arr()?
        .iter()
        .map(|e| {
            let bits = e.get("bits")?.as_arr()?;
            Some((
                e.get("point")?.as_str()?.to_string(),
                bits.iter()
                    .map(|b| b.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()?,
            ))
        })
        .collect()
}

fn front_values(done: &Json) -> Vec<Vec<f64>> {
    done.get("pareto")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|e| {
            e.get("values")?
                .as_arr()?
                .iter()
                .map(Json::as_f64)
                .collect()
        })
        .collect()
}

/// What one served job looked like from the client.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: usize,
    submit: f64,
    ack: f64,
    first_event: f64,
    done: f64,
    lines: usize,
    bytes: usize,
    store_hits: u64,
    runs: u64,
    hv: f64,
    error: Option<String>,
}

/// Submits `spec` and streams it to `done`, timestamping the lines.
fn one_job(
    client: &mut Client,
    tenant: &str,
    mix: &Mix,
    spec: usize,
    origin: Instant,
    reference: Option<&BTreeMap<usize, FrontKey>>,
) -> (JobRecord, Option<FrontKey>) {
    let now = || origin.elapsed().as_secs_f64();
    let mut rec = JobRecord {
        spec,
        submit: now(),
        ack: 0.0,
        first_event: 0.0,
        done: 0.0,
        lines: 0,
        bytes: 0,
        store_hits: 0,
        runs: 0,
        hv: 0.0,
        error: None,
    };
    let spec_ref = &mix.specs[spec];
    if let Err(e) = client.submit(tenant, 1, spec_ref) {
        rec.error = Some(format!("submit: {e}"));
        return (rec, None);
    }
    rec.ack = now();
    let mut lines = Vec::new();
    let done = loop {
        match client.read_line() {
            Ok(Some(line)) => {
                rec.bytes += line.len() + 1;
                if rec.first_event == 0.0 && line.contains("\"seq\":") {
                    rec.first_event = now();
                }
                if line.starts_with("{\"type\":\"done\"") {
                    break Json::parse(&line);
                }
                lines.push(line);
            }
            Ok(None) => break None,
            Err(e) => {
                rec.error = Some(format!("read: {e}"));
                return (rec, None);
            }
        }
    };
    rec.done = now();
    rec.lines = lines.len() + 1;
    if rec.first_event == 0.0 {
        rec.first_event = rec.done;
    }
    let Some(done) = done else {
        rec.error = Some("connection closed before `done`".into());
        return (rec, None);
    };
    if done.get("status").and_then(Json::as_str) != Some("done") {
        rec.error = Some(format!(
            "job ended `{}`",
            done.get("status").and_then(Json::as_str).unwrap_or("?")
        ));
        return (rec, None);
    }
    // The streamed events must fold to the summary line the daemon sent.
    let totals = fold_stream(lines.iter().map(String::as_str));
    let summary = lines
        .iter()
        .find(|l| l.starts_with("{\"type\":\"summary\""));
    let dropped = summary
        .and_then(|l| Json::parse(l))
        .and_then(|v| v.get("dropped").and_then(Json::as_u64))
        .unwrap_or(0);
    if summary.map(String::as_str) != Some(dovado::obs::summary_json(&totals, dropped).as_str()) {
        rec.error = Some("streamed events do not fold to the summary line".into());
    }
    rec.store_hits = totals.summary.store_hits;
    rec.runs = totals.runs;
    let key = front_key(&done);
    if let (Some(refs), None) = (reference, &rec.error) {
        if key.as_ref() != refs.get(&spec) {
            rec.error = Some("front differs from the standalone reference".into());
        }
    }
    let part = spec_ref.part.as_deref().unwrap_or("");
    rec.hv = hv_of(
        &front_values(&done),
        &dovado::MetricSet::area_frequency(),
        part,
        dovado::EvalConfig::default().target_period_ns,
    )
    .unwrap_or(0.0);
    (rec, key)
}

/// A prepared serve workload.
pub struct Bench {
    dovado: PathBuf,
    scratch: PathBuf,
    mix: Mix,
    references: BTreeMap<usize, FrontKey>,
    /// Median CPU seconds of a daemon start-up and shutdown plus the
    /// harness's own set-up work, scaled to reference-host speed.
    pub setup_s: f64,
    /// Median wall-clock from daemon spawn to its `listening on` line.
    pub setup_wall_s: f64,
}

impl Bench {
    /// Times daemon start-ups (each run then starts its own daemon) and
    /// makes the standalone references on a root of their own.
    pub fn prepare(dovado: PathBuf, scratch: PathBuf, seed: u64) -> io::Result<Bench> {
        let mut cpu = Vec::new();
        let mut wall = Vec::new();
        for rep in 0..SETUP_REPS {
            let before = host::calibrate();
            let own0 = proc::own_cpu_s();
            let t0 = Instant::now();
            let mix = Mix::new(seed);
            let d = Daemon::start(&dovado, &scratch.join(format!("setup-{rep}")))?;
            wall.push(t0.elapsed().as_secs_f64());
            let own = proc::own_cpu_s() - own0;
            std::hint::black_box(mix);
            let used = own + d.stop()?.cpu_s;
            cpu.push(used / host::slowdown(&[before, host::calibrate()]));
        }
        let mix = Mix::new(seed);
        let daemon = Daemon::start(&dovado, &scratch.join("reference-root"))?;
        let mut client = Client::connect(&daemon.addr)?;
        client.hello("reference").map_err(io::Error::other)?;
        let origin = Instant::now();
        let mut references = BTreeMap::new();
        for spec in 0..mix.specs.len() {
            let (rec, key) = one_job(&mut client, "reference", &mix, spec, origin, None);
            match (rec.error, key) {
                (None, Some(key)) => {
                    references.insert(spec, key);
                }
                (e, _) => {
                    return Err(io::Error::other(format!("reference job {spec}: {e:?}")));
                }
            }
        }
        drop(client);
        daemon.stop()?;
        Ok(Bench {
            dovado,
            scratch,
            mix,
            references,
            setup_s: stats::median(&cpu),
            setup_wall_s: stats::median(&wall),
        })
    }

    /// Starts a fresh daemon and runs both tenants' closed loops for
    /// `seconds`. With `marking`, tenant 0 marks the daemon's CPU timeline
    /// between its jobs; the traced run leaves the marks out, so the
    /// client's time between jobs is its own.
    fn closed_loop(&self, name: &str, seconds: f64, marking: bool) -> io::Result<Loop> {
        let daemon = Daemon::start(&self.dovado, &self.scratch.join(name))?;
        let pid = daemon.child.id();
        let jobs = AtomicUsize::new(0);
        let mark = || Mark {
            jobs: jobs.load(Ordering::SeqCst),
            cpu_s: proc::process_cpu_s(pid),
            calibration: host::calibrate_memory(),
        };
        let marks = Mutex::new(vec![mark()]);
        let origin = Instant::now();
        let tenant_loop = |t: usize| -> io::Result<Vec<JobRecord>> {
            let tenant = format!("tenant-{t}");
            let mut client = Client::connect(&daemon.addr)?;
            client.hello(&tenant).map_err(io::Error::other)?;
            let mut records = Vec::new();
            while origin.elapsed().as_secs_f64() < seconds {
                let spec = self.mix.job(t, records.len());
                let references = Some(&self.references);
                records.push(one_job(&mut client, &tenant, &self.mix, spec, origin, references).0);
                jobs.fetch_add(1, Ordering::SeqCst);
                if marking && t == 0 && records.len() % MARK_EVERY == 0 {
                    let m = mark();
                    marks.lock().expect("marks poisoned").push(m);
                }
            }
            Ok(records)
        };
        let result = std::thread::scope(|s| {
            let handles: Vec<_> = (0..inputs::THREADS)
                .map(|t| s.spawn(move || tenant_loop(t)))
                .collect();
            let mut records = Vec::new();
            for h in handles {
                let tenant = h
                    .join()
                    .map_err(|_| io::Error::other("tenant thread panicked"))?;
                records.extend(tenant?);
            }
            Ok::<_, io::Error>(records)
        });
        let window = origin.elapsed().as_secs_f64();
        let mut marks = marks.into_inner().expect("marks poisoned");
        marks.push(mark());
        let daemon = daemon.stop()?;
        Ok(Loop {
            records: result?,
            window,
            daemon,
            marks,
        })
    }
}

/// Tenant 0 marks the daemon's CPU timeline after every this many of its
/// own jobs, which cuts a run into windows of about twice as many jobs.
const MARK_EVERY: usize = 8;

/// A point on the daemon's CPU timeline, taken between jobs.
#[derive(Debug, Clone, Copy)]
struct Mark {
    /// Jobs both tenants had completed.
    jobs: usize,
    /// CPU seconds the daemon had used, over all its threads.
    cpu_s: f64,
    /// CPU seconds of one memory calibration kernel run at that moment.
    calibration: f64,
}

/// What one closed loop produced.
struct Loop {
    /// Every job, in completion order per tenant.
    records: Vec<JobRecord>,
    /// Seconds from the first submit until the last tenant stopped.
    window: f64,
    /// How the daemon ended (peak RSS, CPU time).
    daemon: proc::Exit,
    /// The daemon's CPU timeline: a mark at the start, every
    /// [`MARK_EVERY`] jobs of tenant 0 when marking, and at the end.
    marks: Vec<Mark>,
}

fn tally(records: &[JobRecord], out: &mut Outcome) -> Vec<JobRecord> {
    let mut ok = Vec::new();
    for r in records {
        out.attempted += 1;
        match &r.error {
            Some(e) => out.fail(format!("job (spec {}): {e}", r.spec)),
            None => ok.push(r.clone()),
        }
    }
    ok
}

/// Measures `serve_tenants` end to end for `seconds`.
pub fn run(bench: &Bench, seconds: f64, out: &mut Outcome) -> io::Result<()> {
    let Loop {
        records,
        window,
        daemon,
        marks,
    } = bench.closed_loop("root", seconds, true)?;
    let ok = tally(&records, out);
    let latency: Vec<f64> = ok.iter().map(|r| r.done - r.submit).collect();
    let hv: Vec<f64> = ok.iter().map(|r| r.hv).collect();
    let (p, tail) = stats::tail(&latency, 90);
    out.notes.push(format!(
        "served jobs: {} in {:.2} s by {} closed-loop tenants; tail percentile p{p}",
        ok.len(),
        window,
        inputs::THREADS
    ));
    out.push("setup_s", bench.setup_s, "s", SETUP_REPS, "measured");
    out.show("setup_wall_s", bench.setup_wall_s, "s", SETUP_REPS);
    // The daemon's CPU seconds per job in each window between marks; the
    // median leaves out the first windows, in which the shared store is
    // still being filled.
    let tallies: Vec<(usize, f64)> = marks.iter().map(|m| (m.jobs, m.cpu_s)).collect();
    let rates = stats::window_rates(&tallies);
    let calibrations: Vec<f64> = marks.iter().map(|m| m.calibration).collect();
    let slowdown = host::memory_slowdown(&calibrations);
    out.notes.push(format!(
        "daemon CPU: {:.3} s over its life; {} windows of about {} jobs; \
         host {slowdown:.3}x slower than the reference (memory kernel)",
        daemon.cpu_s,
        rates.len(),
        MARK_EVERY * inputs::THREADS,
    ));
    let raw = stats::median(&rates);
    out.push("cpu_s", raw / slowdown, "s", rates.len(), "measured");
    out.show("cpu_raw_s", raw, "s", rates.len());
    out.show(
        "cpu_life_s",
        daemon.cpu_s / ok.len().max(1) as f64,
        "s",
        ok.len(),
    );
    out.push("front_hv", stats::mean(&hv), "frac", hv.len(), "measured");
    out.push("peak_rss_mb", daemon.peak_rss_mb, "MiB", 1, "measured");
    out.show("latency_p50_s", stats::median(&latency), "s", latency.len());
    out.show("latency_tail_s", tail, "s", latency.len());
    out.show(
        "throughput_per_s",
        ok.len() as f64 / window,
        "1/s",
        ok.len(),
    );
    Ok(())
}

/// The traced run of `serve_tenants`: one closed loop on a fresh daemon,
/// with every job split into client-side phases.
pub fn traced(
    bench: &Bench,
    seconds: f64,
    layers: &mut BTreeMap<&'static str, (f64, &'static str)>,
    out: &mut Outcome,
) -> io::Result<()> {
    let closed = bench.closed_loop("traced-root", seconds, false)?;
    let (window, ok) = (closed.window, tally(&closed.records, out));
    let phase = |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> { ok.iter().map(f).collect() };
    let ack = phase(&|r| (r.ack - r.submit) * 1e3);
    let wait = phase(&|r| (r.first_event - r.ack) * 1e3);
    let run = phase(&|r| (r.done - r.first_event) * 1e3);
    let latency: Vec<f64> = phase(&|r| r.done - r.submit);
    let hits: u64 = ok.iter().map(|r| r.store_hits).sum();
    let runs: u64 = ok.iter().map(|r| r.runs).sum();
    let n = ok.len().max(1) as f64;
    let set = |layers: &mut BTreeMap<&'static str, (f64, &'static str)>, k, v| {
        layers.insert(k, (v, "measured"));
    };
    set(layers, "serve.jobs", ok.len() as f64);
    set(layers, "serve.start_ms", bench.setup_wall_s * 1e3);
    set(layers, "serve.ack_ms", stats::median(&ack));
    set(layers, "serve.admit_wait_ms_p50", stats::median(&wait));
    set(
        layers,
        "serve.admit_wait_ms_p90",
        stats::quantile(&wait, 0.9),
    );
    set(layers, "serve.run_ms_p50", stats::median(&run));
    set(
        layers,
        "serve.lines_per_job",
        ok.iter().map(|r| r.lines).sum::<usize>() as f64 / n,
    );
    set(
        layers,
        "serve.bytes_per_job",
        ok.iter().map(|r| r.bytes).sum::<usize>() as f64 / n,
    );
    set(
        layers,
        "serve.store_hit_ratio",
        hits as f64 / (hits + runs).max(1) as f64,
    );
    let busy: f64 = latency.iter().sum();
    let offered = inputs::THREADS as f64 * window;
    let unattributed = offered - busy;
    // The client timestamps every line in every run, so the traced loop is
    // the untraced one and tracing adds nothing to measure.
    set(layers, "trace.unattributed_s", unattributed);
    set(layers, "trace.overhead_s", 0.0);
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e3;
    out.notes.extend([
        format!(
            "attribution of the traced closed loop ({} jobs, {:.3} tenant-seconds over {} tenants):",
            ok.len(),
            offered,
            inputs::THREADS
        ),
        format!("  serve submit -> ack            {:>9.4} s  measured", sum(&ack)),
        format!(
            "  serve ack -> first event       {:>9.4} s  measured (admission wait plus the first generation: the daemon streams at generation boundaries)",
            sum(&wait)
        ),
        format!("  serve first event -> done      {:>9.4} s  measured (exploration and streaming)", sum(&run)),
        format!(
            "  trace.unattributed_s           {unattributed:>9.4} s  (client time between a job's done and the next submit)"
        ),
        "  trace.overhead_s                  0.0000 s  (the client timestamps every line in every run)".into(),
        "  the daemon's inner layers (dse, eda, store, ...) are not split from outside the process".into(),
    ]);
    Ok(())
}
