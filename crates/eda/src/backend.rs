//! The backend seam: TCL and sources in, reports and checkpoints out.
//!
//! Dovado's core claim is that it never looks *inside* the EDA tool — it
//! writes TCL scripts, spawns a tool process, and scrapes text reports.
//! [`ToolBackend`] is that contract as a trait: a backend mints
//! [`ToolSession`]s (one per tool invocation, as Dovado spawns one Vivado
//! per evaluation), and a session exposes only the file-and-script surface
//! the real tool does, plus two observability hooks — a simulated-cost
//! ledger ([`ToolSession::elapsed_s`]) and the shared fault injector
//! ([`ToolBackend::injector`]).
//!
//! Two implementations ship in-tree:
//! - [`SimBackend`] adapts the full [`VivadoSim`] simulator (architecture
//!   models, directive trade-offs, incremental checkpoints) and is the
//!   default for every evaluator.
//! - [`MockBackend`] is a scripted interpreter over the same TCL frames:
//!   deterministic closed-form metrics, identical report shapes (it reuses
//!   the real report writers) and the identical error taxonomy, at a
//!   fraction of the cost. Tests use it to prove the engine above this
//!   seam is backend-agnostic.

use crate::error::{EdaError, EdaResult};
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::hash::{combine, fnv1a, hash_str, splitmix64};
use crate::netlist::Netlist;
use crate::place_route::ImplResult;
use crate::power::{write_power_report, PowerEstimate};
use crate::report::{write_timing_report, write_utilization_report};
use crate::tcl::ScriptCache;
use crate::{CheckpointStore, ModelRegistry, ParseCache, VivadoSim};
use dovado_fpga::{Catalog, Part, ResourceKind, ResourceSet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One tool invocation: a private filesystem plus a TCL interpreter.
///
/// Sessions are single-use — the evaluation engine opens a fresh one per
/// attempt, exactly as Dovado spawns a fresh Vivado process per run.
pub trait ToolSession {
    /// Writes `content` at `path` in the session's filesystem (sources,
    /// checkpoint bases, …) before or between scripts.
    fn write_file(&mut self, path: &str, content: String);

    /// Reads a file the tool produced (reports, logs); `None` when the
    /// path does not exist.
    fn read_file(&self, path: &str) -> Option<&str>;

    /// Executes a TCL script against the session, returning the last
    /// command's result text.
    fn eval(&mut self, script: &str) -> EdaResult<String>;

    /// Cost hook: simulated tool seconds this session has burned so far,
    /// including work wasted by injected faults.
    fn elapsed_s(&self) -> f64;

    /// Whether the session satisfied a flow stage from an exact prior
    /// checkpoint (the tool-level cache, distinct from the persistent
    /// evaluation store).
    fn used_exact_checkpoint(&self) -> bool;

    /// Snapshot of the session's filesystem (path → content): sources
    /// the caller wrote plus artifacts the tool produced. Remote
    /// transports ship this across the wire so `read_file` stays local.
    fn files(&self) -> Vec<(String, String)>;
}

/// A tool installation Dovado can drive: mints sessions and carries the
/// cross-session state (checkpoint store, fault stream).
pub trait ToolBackend: Send + Sync {
    /// The backend's full identity: everything besides the sources and
    /// evaluation config that decides its answers — kind and seed, as in
    /// `mock:7` — and nothing that does not (a wall-clock spin, the fault
    /// plan). Folded into persistent-store keys and journal fingerprints,
    /// so differently-seeded backends sharing one store never answer for
    /// each other, while a wrapper that forwards `name` shares its inner
    /// backend's entries.
    fn name(&self) -> &str;

    /// Opens a fresh single-use session.
    fn open_session(&self) -> Box<dyn ToolSession + Send>;

    /// Fault-injection hook: the deterministic fault stream shared by
    /// every session of this backend (and by the exploration loop for
    /// host-level faults). `None` = clean runs.
    fn injector(&self) -> Option<&FaultInjector>;
}

// ---------------------------------------------------------------------------
// Simulator adapter
// ---------------------------------------------------------------------------

/// The [`VivadoSim`] simulator behind the [`ToolBackend`] seam.
///
/// This adapter is the only place the evaluation stack names the concrete
/// simulator: sessions share one [`CheckpointStore`] (the incremental
/// flow works across parallel evaluations), one [`FaultInjector`] stream
/// (retries consume fresh draws instead of replaying faults), one
/// [`ParseCache`] (unchanged sources parse once, not once per attempt),
/// one [`ScriptCache`] (an unchanged script parses once, not once per
/// attempt), and one part catalog and model registry, built with the
/// backend.
#[derive(Clone)]
pub struct SimBackend {
    seed: u64,
    /// `vivado-sim:SEED`.
    name: String,
    catalog: Arc<Catalog>,
    registry: Arc<ModelRegistry>,
    checkpoints: CheckpointStore,
    parses: ParseCache,
    scripts: ScriptCache,
    injector: Option<FaultInjector>,
}

impl SimBackend {
    /// A clean simulator backend with the given tool-noise seed.
    pub fn new(seed: u64) -> SimBackend {
        SimBackend {
            seed,
            name: format!("vivado-sim:{seed}"),
            catalog: Arc::new(Catalog::builtin()),
            registry: Arc::new(ModelRegistry::with_builtin_models()),
            checkpoints: CheckpointStore::new(),
            parses: ParseCache::new(),
            scripts: ScriptCache::new(),
            injector: None,
        }
    }

    /// A simulator backend with fault injection; an inactive plan (all
    /// probabilities zero) behaves exactly like [`SimBackend::new`].
    pub fn with_faults(seed: u64, plan: FaultPlan) -> SimBackend {
        SimBackend {
            injector: plan.is_active().then(|| FaultInjector::new(plan)),
            ..SimBackend::new(seed)
        }
    }

    /// A fresh simulator session wired to the backend's shared state.
    fn sim(&self) -> VivadoSim {
        let mut sim = VivadoSim::with_models(
            self.seed,
            Arc::clone(&self.catalog),
            Arc::clone(&self.registry),
        );
        sim.set_checkpoint_store(self.checkpoints.clone());
        sim.set_parse_cache(self.parses.clone());
        sim.set_script_cache(self.scripts.clone());
        if let Some(injector) = &self.injector {
            sim.set_fault_injector(injector.clone());
        }
        sim
    }
}

impl ToolBackend for SimBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn open_session(&self) -> Box<dyn ToolSession + Send> {
        Box::new(SimSession { sim: self.sim() })
    }

    fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }
}

struct SimSession {
    sim: VivadoSim,
}

impl ToolSession for SimSession {
    fn write_file(&mut self, path: &str, content: String) {
        self.sim.write_file(path, content);
    }

    fn read_file(&self, path: &str) -> Option<&str> {
        self.sim.read_file(path)
    }

    fn eval(&mut self, script: &str) -> EdaResult<String> {
        self.sim.eval(script)
    }

    fn elapsed_s(&self) -> f64 {
        self.sim.sim_time_s
    }

    fn used_exact_checkpoint(&self) -> bool {
        self.sim.used_exact_checkpoint()
    }

    fn files(&self) -> Vec<(String, String)> {
        self.sim.files()
    }
}

// ---------------------------------------------------------------------------
// Scripted mock
// ---------------------------------------------------------------------------

/// A scripted tool: same TCL surface, same report shapes, same error
/// taxonomy as the simulator, but metrics come from a closed-form model
/// of the loaded sources instead of architecture elaboration.
///
/// Every answer is a pure function of (sources, part, top, directives,
/// period, seed), so runs are bitwise reproducible — which is what lets
/// the crash/resume suite prove journal replay is backend-independent.
#[derive(Clone)]
pub struct MockBackend {
    seed: u64,
    /// `mock:SEED`.
    name: String,
    catalog: Arc<Catalog>,
    injector: Option<FaultInjector>,
    spin_ms: u64,
}

impl MockBackend {
    /// A clean mock backend.
    pub fn new(seed: u64) -> MockBackend {
        MockBackend {
            seed,
            name: format!("mock:{seed}"),
            catalog: Arc::new(Catalog::builtin()),
            injector: None,
            spin_ms: 0,
        }
    }

    /// A mock backend with fault injection; an inactive plan behaves
    /// exactly like [`MockBackend::new`].
    pub fn with_faults(seed: u64, plan: FaultPlan) -> MockBackend {
        MockBackend {
            injector: plan.is_active().then(|| FaultInjector::new(plan)),
            ..MockBackend::new(seed)
        }
    }

    /// Makes `synth_design` and `route_design` sleep `ms` wall-clock
    /// milliseconds each, standing in for real tool runtime. Purely a
    /// benchmarking knob: simulated costs, metrics, and reports are
    /// bitwise unaffected.
    pub fn with_spin_ms(mut self, ms: u64) -> MockBackend {
        self.spin_ms = ms;
        self
    }
}

impl ToolBackend for MockBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn open_session(&self) -> Box<dyn ToolSession + Send> {
        Box::new(MockSession {
            seed: self.seed,
            catalog: Arc::clone(&self.catalog),
            injector: self.injector.clone(),
            spin_ms: self.spin_ms,
            fs: BTreeMap::new(),
            elapsed_s: 0.0,
            part: None,
            top: None,
            sources: Vec::new(),
            size: 0,
            period_ns: 1.0,
            synth_directive: "Default".into(),
            synthesized: false,
            placed: false,
            routed: false,
            impl_directive: "Default".into(),
            incremental: false,
        })
    }

    fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }
}

struct MockSession {
    seed: u64,
    catalog: Arc<Catalog>,
    injector: Option<FaultInjector>,
    /// Wall-clock sleep per synth/route call (benchmarking only).
    spin_ms: u64,
    fs: BTreeMap<String, String>,
    elapsed_s: f64,
    part: Option<Part>,
    top: Option<String>,
    /// Content hashes of the sources read so far, in read order.
    sources: Vec<u64>,
    /// Sum of the integer literals in the sources read so far — the
    /// mock's stand-in for design size. Parameter values appear as
    /// literals in the generated box, so bigger configurations read as
    /// bigger designs. Reports and checkpoints the session writes are
    /// never read, so they never count.
    size: u64,
    period_ns: f64,
    synth_directive: String,
    synthesized: bool,
    placed: bool,
    routed: bool,
    impl_directive: String,
    incremental: bool,
}

impl MockSession {
    /// The design identity every metric derives from: sources as read,
    /// part, top, directive, and the backend seed.
    fn design_id(&self, directive: &str) -> u64 {
        let mut h = splitmix64(self.seed ^ 0x4D4F_434B);
        for s in &self.sources {
            h = combine(h, *s);
        }
        if let Some(part) = &self.part {
            h = combine(h, hash_str(&part.name));
        }
        if let Some(top) = &self.top {
            h = combine(h, hash_str(top));
        }
        combine(h, hash_str(directive))
    }

    fn used_resources(&self, id: u64, size: u64) -> ResourceSet {
        ResourceSet::from_pairs(&[
            (ResourceKind::Lut, 64 + size / 3 + splitmix64(id) % 24),
            (
                ResourceKind::Register,
                128 + size / 2 + splitmix64(id ^ 1) % 48,
            ),
            (ResourceKind::Bram, size / 16_384),
            (ResourceKind::Dsp, size / 65_536),
        ])
    }

    /// Critical-path delay in ns after `stage` ("synth" estimates are
    /// optimistic; "route" adds routing pessimism), smooth in design size
    /// with a small deterministic directive-dependent ripple.
    fn delay_ns(&self, id: u64, size: u64, routed: bool) -> f64 {
        let base = 0.6 + 0.12 * ((1 + size) as f64).ln();
        let ripple = 1.0 + (splitmix64(id ^ 0xDE1A) % 1000) as f64 / 20_000.0;
        let stage = if routed { 1.3 } else { 1.0 };
        base * ripple * stage
    }

    fn roll_stage_fault(
        &mut self,
        stage: &str,
        timeout: FaultKind,
        crash: FaultKind,
    ) -> EdaResult<()> {
        let Some(inj) = self.injector.clone() else {
            return Ok(());
        };
        if inj.fires(timeout) {
            self.elapsed_s += inj.plan().timeout_cost_s;
            return Err(EdaError::Timeout(format!(
                "{stage} exceeded its time budget"
            )));
        }
        if inj.fires(crash) {
            self.elapsed_s += inj.plan().crash_cost_s;
            return Err(EdaError::ToolCrash(format!("{stage} died unexpectedly")));
        }
        Ok(())
    }

    /// Report-write fault surface, mirroring the simulator: each report
    /// rolls truncation then garbling.
    fn finish_report(&mut self, args: &[&str], text: String) -> EdaResult<String> {
        let text = match self.injector.clone() {
            Some(inj) if inj.fires(FaultKind::ReportTruncated) => {
                inj.mangle_report(FaultKind::ReportTruncated, &text)
            }
            Some(inj) if inj.fires(FaultKind::ReportGarbled) => {
                inj.mangle_report(FaultKind::ReportGarbled, &text)
            }
            _ => text,
        };
        self.elapsed_s += 0.1;
        if let Some(i) = args.iter().position(|a| *a == "-file") {
            let path = args
                .get(i + 1)
                .ok_or_else(|| EdaError::Tcl("-file needs a path".into()))?;
            self.fs.insert(path.to_string(), text);
            return Ok(String::new());
        }
        Ok(text)
    }

    /// Burns real wall-clock time when the spin knob is set.
    fn spin(&self) {
        if self.spin_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.spin_ms));
        }
    }

    fn require_synthesized(&self, cmd: &str) -> EdaResult<()> {
        if self.synthesized {
            Ok(())
        } else {
            Err(EdaError::FlowOrder(format!("{cmd}: no synthesized design")))
        }
    }

    fn flag_value<'a>(args: &[&'a str], flag: &str) -> Option<&'a str> {
        args.iter()
            .position(|a| *a == flag)
            .and_then(|i| args.get(i + 1))
            .copied()
    }

    fn run_command(&mut self, line: &str) -> EdaResult<String> {
        let words = split_words(line);
        let tokens: Vec<&str> = words.iter().map(String::as_str).collect();
        let (cmd, args) = tokens.split_first().expect("blank lines filtered");
        match *cmd {
            "create_project" => {
                let name = Self::flag_value(args, "-part")
                    .ok_or_else(|| EdaError::Tcl("create_project: missing -part".into()))?;
                let part = self
                    .catalog
                    .resolve(name)
                    .cloned()
                    .ok_or_else(|| EdaError::UnknownPart(name.to_string()))?;
                self.part = Some(part);
                self.elapsed_s += 1.0;
                Ok(String::new())
            }
            "read_vhdl" | "read_verilog" => {
                let path = args
                    .iter()
                    .rev()
                    .find(|a| !a.starts_with('-'))
                    .ok_or_else(|| EdaError::Tcl(format!("{cmd}: missing path")))?;
                let content = self
                    .fs
                    .get(*path)
                    .ok_or_else(|| EdaError::FileNotFound(path.to_string()))?;
                self.sources.push(fnv1a(content.as_bytes()));
                self.size = self.size.saturating_add(literal_sum(content));
                self.elapsed_s += 0.2;
                Ok(String::new())
            }
            "set_property" => {
                if args.first() == Some(&"top") {
                    self.top = args.get(1).map(|s| s.to_string());
                }
                Ok(String::new())
            }
            "read_checkpoint" => {
                let path = args
                    .iter()
                    .find(|a| !a.starts_with('-'))
                    .ok_or_else(|| EdaError::Tcl("read_checkpoint: missing path".into()))?
                    .to_string();
                if !self.fs.contains_key(&path) {
                    return Err(EdaError::Checkpoint(format!(
                        "checkpoint `{path}` does not exist"
                    )));
                }
                if let Some(inj) = self.injector.clone() {
                    if inj.fires(FaultKind::CheckpointCorrupt) {
                        self.fs.remove(&path);
                        return Err(EdaError::Checkpoint(format!(
                            "checkpoint `{path}` is corrupt"
                        )));
                    }
                }
                self.incremental = args.contains(&"-incremental");
                self.elapsed_s += 0.5;
                Ok(String::new())
            }
            "synth_design" => {
                self.roll_stage_fault(
                    "synth_design",
                    FaultKind::SynthTimeout,
                    FaultKind::SynthCrash,
                )?;
                let part = self
                    .part
                    .clone()
                    .ok_or_else(|| EdaError::FlowOrder("no project open".into()))?;
                if let Some(d) = Self::flag_value(args, "-directive") {
                    self.synth_directive = d.to_string();
                }
                if let Some(t) = Self::flag_value(args, "-top") {
                    self.top = Some(t.to_string());
                }
                let size = self.size;
                let used = self.used_resources(self.design_id(&self.synth_directive), size);
                if !used.fits_within(&part.capacity) {
                    let worst = used
                        .overflows(&part.capacity)
                        .into_iter()
                        .map(|(k, n)| format!("{} over by {n}", k.report_label()))
                        .collect::<Vec<_>>()
                        .join(", ");
                    return Err(EdaError::ResourceOverflow(worst));
                }
                let factor = if self.incremental { 0.6 } else { 1.0 };
                self.elapsed_s += (20.0 + size as f64 / 50.0) * factor;
                self.spin();
                self.synthesized = true;
                Ok(String::new())
            }
            "create_clock" => {
                let period: f64 = Self::flag_value(args, "-period")
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| EdaError::Tcl("create_clock: missing -period".into()))?;
                if period <= 0.0 {
                    return Err(EdaError::Tcl(format!("non-positive period {period}")));
                }
                self.period_ns = period;
                Ok(String::new())
            }
            "opt_design" => {
                self.require_synthesized(cmd)?;
                self.elapsed_s += 2.0;
                Ok(String::new())
            }
            "place_design" => {
                self.require_synthesized(cmd)?;
                self.placed = true;
                self.elapsed_s += 3.0;
                Ok(String::new())
            }
            "route_design" => {
                self.roll_stage_fault(
                    "route_design",
                    FaultKind::RouteTimeout,
                    FaultKind::RouteCrash,
                )?;
                self.require_synthesized(cmd)?;
                if let Some(d) = Self::flag_value(args, "-directive") {
                    self.impl_directive = d.to_string();
                }
                let size = self.size;
                self.elapsed_s += 10.0 + size as f64 / 80.0;
                self.spin();
                self.routed = true;
                Ok(String::new())
            }
            "report_utilization" => {
                self.require_synthesized(cmd)?;
                let part = self.part.clone().expect("synthesized implies project");
                let size = self.size;
                let used = self.used_resources(self.design_id(&self.synth_directive), size);
                let module = self.top.clone().unwrap_or_default();
                let text = write_utilization_report(&module, &used, &part);
                self.finish_report(args, text)
            }
            "report_timing_summary" => {
                self.require_synthesized(cmd)?;
                let text = self.timing_report();
                self.finish_report(args, text)
            }
            "report_power" => {
                self.require_synthesized(cmd)?;
                let size = self.size;
                let used = self.used_resources(self.design_id(&self.synth_directive), size);
                let clock_mhz = 1000.0 / self.period_ns;
                let est = PowerEstimate {
                    static_mw: 105.0,
                    dynamic_mw: (used.get(ResourceKind::Lut) + used.get(ResourceKind::Register))
                        as f64
                        * 0.002
                        * clock_mhz,
                };
                let module = self.top.clone().unwrap_or_default();
                let text = write_power_report(&module, &est, clock_mhz);
                self.finish_report(args, text)
            }
            "write_checkpoint" => {
                let path = args
                    .iter()
                    .find(|a| !a.starts_with('-'))
                    .ok_or_else(|| EdaError::Tcl("write_checkpoint: missing path".into()))?;
                self.fs.insert(path.to_string(), "mock-dcp".to_string());
                self.elapsed_s += 0.5;
                Ok(String::new())
            }
            other => Err(EdaError::Tcl(format!("invalid command name \"{other}\""))),
        }
    }

    fn timing_report(&self) -> String {
        let directive = if self.routed {
            &self.impl_directive
        } else {
            &self.synth_directive
        };
        let size = self.size;
        let id = self.design_id(directive);
        let delay = self.delay_ns(id, size, self.routed);
        let module = self.top.clone().unwrap_or_default();
        let mut netlist = Netlist::empty(&module);
        netlist.crit_path = format!("{module}/BOXED (mock path, {size} units)");
        let used = self.used_resources(id, size);
        let result = ImplResult {
            netlist,
            utilization: self
                .part
                .as_ref()
                .map(|p| used.peak_utilization(&p.capacity))
                .unwrap_or(0.0),
            crit_delay_ns: delay,
            wns_ns: self.period_ns - delay,
            period_ns: self.period_ns,
            runtime_s: self.elapsed_s,
        };
        write_timing_report(&module, &result)
    }
}

/// Sum of the integer literals in `text`.
fn literal_sum(text: &str) -> u64 {
    let mut sum = 0u64;
    let mut current = 0u64;
    let mut in_number = false;
    for c in text.chars() {
        if let Some(d) = c.to_digit(10) {
            current = current.saturating_mul(10).saturating_add(d as u64);
            in_number = true;
        } else if in_number {
            sum = sum.saturating_add(current);
            current = 0;
            in_number = false;
        }
    }
    sum.saturating_add(current)
}

/// Splits a script line into the mock's words: at unescaped whitespace,
/// with each backslash escape reduced to the character it escapes and the
/// unescaped brackets of a `[command]` substitution dropped.
fn split_words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    // The word being read, once any character of it has been seen.
    let mut word: Option<String> = None;
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => word
                .get_or_insert_with(String::new)
                .push(chars.next().unwrap_or('\\')),
            '[' | ']' => {
                word.get_or_insert_with(String::new);
            }
            c if c.is_whitespace() => words.extend(word.take()),
            c => word.get_or_insert_with(String::new).push(c),
        }
    }
    words.extend(word);
    words
}

impl ToolSession for MockSession {
    fn write_file(&mut self, path: &str, content: String) {
        self.fs.insert(path.to_string(), content);
    }

    fn read_file(&self, path: &str) -> Option<&str> {
        self.fs.get(path).map(String::as_str)
    }

    fn eval(&mut self, script: &str) -> EdaResult<String> {
        let mut last = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            last = self.run_command(line)?;
        }
        Ok(last)
    }

    fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    fn used_exact_checkpoint(&self) -> bool {
        false
    }

    fn files(&self) -> Vec<(String, String)> {
        self.fs
            .iter()
            .map(|(p, c)| (p.clone(), c.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "\
create_project dovado -part xc7k70tfbv676-1
read_verilog -sv src/fifo.sv
set_property top fifo [current_fileset]
synth_design -top fifo -part xc7k70tfbv676-1 -directive Default
create_clock -period 1.000 -name clk [get_ports clk_i]
report_utilization -file util.rpt
report_timing_summary -file timing.rpt
report_power -file power.rpt
";

    fn session_with_source(backend: &dyn ToolBackend, depth: u64) -> Box<dyn ToolSession + Send> {
        let mut s = backend.open_session();
        s.write_file(
            "src/fifo.sv",
            format!("module fifo #(parameter DEPTH = {depth})(input logic clk_i); endmodule"),
        );
        s
    }

    #[test]
    fn mock_runs_the_synth_frame_and_writes_parseable_reports() {
        let backend = MockBackend::new(7);
        let mut s = session_with_source(&backend, 64);
        s.eval(SCRIPT).unwrap();
        let util = crate::report::parse_utilization_report(s.read_file("util.rpt").unwrap());
        assert!(util.unwrap().get(ResourceKind::Lut) > 0);
        let timing = s.read_file("timing.rpt").unwrap();
        assert!(crate::report::parse_wns(timing).is_ok());
        assert!(crate::report::parse_period(timing).is_ok());
        let power = crate::power::parse_power_mw(s.read_file("power.rpt").unwrap());
        assert!(power.unwrap() > 0.0);
        assert!(s.elapsed_s() > 0.0);
    }

    #[test]
    fn mock_is_bitwise_deterministic() {
        let backend = MockBackend::new(7);
        let run = || {
            let mut s = session_with_source(&backend, 64);
            s.eval(SCRIPT).unwrap();
            s.read_file("timing.rpt").unwrap().to_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mock_size_model_is_monotone() {
        let backend = MockBackend::new(7);
        let wns_at = |depth: u64| {
            let mut s = session_with_source(&backend, depth);
            s.eval(SCRIPT).unwrap();
            crate::report::parse_wns(s.read_file("timing.rpt").unwrap()).unwrap()
        };
        assert!(wns_at(8) > wns_at(4096), "bigger designs must be slower");
    }

    #[test]
    fn mock_rejects_unknown_commands_and_parts() {
        let backend = MockBackend::new(7);
        let mut s = backend.open_session();
        assert!(matches!(
            s.eval("create_project x -part xc9unknown"),
            Err(EdaError::UnknownPart(_))
        ));
        assert!(matches!(s.eval("frobnicate"), Err(EdaError::Tcl(_))));
        assert!(matches!(
            s.eval("route_design"),
            Err(EdaError::FlowOrder(_))
        ));
    }

    #[test]
    fn synthesis_only_session_warms_a_subsequent_full_run() {
        // The multi-fidelity contract behind `--explorer auto`: a
        // synthesis-only probe leaves a synth checkpoint behind, and a
        // later full (synth + implementation) run on the same backend
        // resumes from it instead of re-synthesizing.
        let full_script = format!(
            "{SCRIPT}write_checkpoint -force post_synth.dcp\n\
             opt_design\nplace_design\nroute_design -directive Default\n"
        );
        let full_run = |backend: &SimBackend| {
            let mut s = session_with_source(backend, 64);
            s.eval(&full_script).unwrap();
            (s.elapsed_s(), s.used_exact_checkpoint())
        };
        let (cold_full, reused_cold) = full_run(&SimBackend::new(42));
        assert!(!reused_cold);

        let warmed = SimBackend::new(42);
        let mut probe = session_with_source(&warmed, 64);
        probe
            .eval(&format!("{SCRIPT}write_checkpoint -force post_synth.dcp\n"))
            .unwrap();
        assert!(!probe.used_exact_checkpoint(), "probe ran cold");
        let (warm_full, reused_warm) = full_run(&warmed);
        assert!(
            reused_warm,
            "full run must reuse the probe's synth checkpoint"
        );
        assert!(
            warm_full < cold_full,
            "warmed full run ({warm_full}s) must beat cold ({cold_full}s)"
        );
    }

    #[test]
    fn sim_backend_sessions_share_parses() {
        let backend = SimBackend::new(42);
        let read = || {
            let mut sim = backend.sim();
            sim.write_file("src/fifo.sv", "module fifo(input logic clk_i); endmodule");
            sim.eval("create_project p -part xc7k70tfbv676-1\nread_verilog -sv src/fifo.sv")
                .unwrap();
            Arc::clone(&sim.project().unwrap().sources[0].file)
        };
        assert!(Arc::ptr_eq(&read(), &read()));
    }

    #[test]
    fn sim_backend_sessions_share_script_parses() {
        let backend = SimBackend::new(42);
        let script = "create_project p -part xc7k70tfbv676-1\nset f [current_fileset]";
        let run = || {
            let mut sim = backend.sim();
            sim.eval(script).unwrap();
            let cached = |text| {
                backend
                    .scripts
                    .cached(text)
                    .expect("parsed through the backend")
            };
            (cached(script), cached("current_fileset"))
        };
        let (a, a_sub) = run();
        let (b, b_sub) = run();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a_sub, &b_sub));
    }

    #[test]
    fn mock_words_split_at_unescaped_whitespace() {
        assert_eq!(
            split_words(r"read_verilog -sv src/cpl\ queue\ manager.v"),
            ["read_verilog", "-sv", "src/cpl queue manager.v"]
        );
        // Unescaped brackets are dropped, escaped ones kept.
        assert_eq!(
            split_words(r"set_property top box [current_fileset]  "),
            ["set_property", "top", "box", "current_fileset"]
        );
        assert_eq!(
            split_words(r"create_project dovado -part \[\[x\]\]\;\$\\"),
            ["create_project", "dovado", "-part", r"[[x]];$\"]
        );
        let backend = MockBackend::new(7);
        let mut s = session_with_source(&backend, 64);
        let spaced = SCRIPT.replace("src/fifo.sv", r"src/my\ fifo.sv");
        s.write_file(
            "src/my fifo.sv",
            s.read_file("src/fifo.sv").unwrap().to_string(),
        );
        s.eval(&spaced).unwrap();
        assert!(matches!(
            s.eval(r"create_project x -part \[xc7k70t\]"),
            Err(EdaError::UnknownPart(p)) if p == "[xc7k70t]"
        ));
    }

    #[test]
    fn sim_backend_sessions_share_checkpoints() {
        let backend = SimBackend::new(42);
        let run = || {
            let mut s = session_with_source(&backend, 64);
            s.eval(&format!("{SCRIPT}write_checkpoint -force post_synth.dcp\n"))
                .unwrap();
            (s.elapsed_s(), s.used_exact_checkpoint())
        };
        let (cold, reused_cold) = run();
        let (warm, reused_warm) = run();
        assert!(!reused_cold);
        assert!(
            reused_warm,
            "second identical run must reuse the checkpoint"
        );
        assert!(warm < cold);
    }
}
