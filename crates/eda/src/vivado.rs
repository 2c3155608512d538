//! The simulated Vivado session.
//!
//! [`VivadoSim`] is what Dovado "spawns": it holds a virtual filesystem
//! (sources in, reports out), a [`Project`], the flow engines, a checkpoint
//! store, and a simulated wall clock. All interaction goes through
//! [`VivadoSim::eval`] — a TCL script, exactly as the real tool is driven —
//! though each command is also callable directly for tests.
//!
//! A report written with `-file` is rendered when something first reads
//! it ([`VivadoSim::read_file`], [`VivadoSim::files`], or a `read_*` of its
//! path), not when the command runs: the command captures every number the
//! text shows, so a synthesis report read after `route_design` still shows
//! the synthesis numbers, and a report nothing reads is never rendered.
//!
//! Implemented command set (the subset Dovado's script frames use):
//! `create_project`, `set_property`, `current_fileset`, `current_project`,
//! `read_vhdl`, `read_verilog`, `get_ports`, `create_clock`,
//! `synth_design`, `opt_design`, `place_design`, `route_design`,
//! `report_utilization`, `report_timing_summary`, `report_timing`,
//! `write_checkpoint`, `read_checkpoint`, `file`, `exit`/`quit`.

use crate::archmodel::ModelRegistry;
use crate::checkpoint::{Checkpoint, CheckpointStore, FlowStep, Reuse};
use crate::error::{EdaError, EdaResult};
use crate::fault::{FaultInjector, FaultKind};
use crate::hash::{combine, hash_str};
use crate::netlist::Netlist;
use crate::place_route::{
    estimated_delay_ns, impl_runtime_s, place_and_route, ImplDirective, ImplResult,
};
use crate::power::{self, PowerEstimate};
use crate::project::{ClockConstraint, ParseCache, Project};
use crate::report::{self, TimingFigures};
use crate::synth::{synth_runtime_s, synthesize, SynthDirective, SynthResult};
use crate::tcl::{Interp, ScriptCache, TclContext};
use dovado_fpga::{Catalog, ResourceSet};
use dovado_hdl::Language;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Flow progress of the open project.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// Sources loaded, nothing run.
    Fresh,
    /// `synth_design` done.
    Synthesized,
    /// `place_design` done.
    Placed,
    /// `route_design` done.
    Routed,
}

/// What a report's text depends on, captured when its command ran, so
/// rendering reads no session state.
enum Report {
    Utilization {
        module: String,
        used: ResourceSet,
        device: String,
        capacity: ResourceSet,
    },
    Timing {
        module: String,
        crit_path: String,
        figures: TimingFigures,
    },
    Power {
        module: String,
        est: PowerEstimate,
        clock_mhz: f64,
    },
}

impl Report {
    fn render(&self) -> String {
        match self {
            Report::Utilization {
                module,
                used,
                device,
                capacity,
            } => report::render_utilization(module, used, device, capacity),
            Report::Timing {
                module,
                crit_path,
                figures,
            } => report::render_timing(module, crit_path, *figures),
            Report::Power {
                module,
                est,
                clock_mhz,
            } => power::write_power_report(module, est, *clock_mhz),
        }
    }
}

/// A file in the session's virtual filesystem.
enum File {
    /// Text as written: sources, checkpoints, faulted reports.
    Text(String),
    /// A report from `report_* -file`, rendered on first read.
    Report(Report, OnceCell<String>),
}

impl File {
    fn text(&self) -> &str {
        match self {
            File::Text(text) => text,
            File::Report(report, text) => text.get_or_init(|| report.render()),
        }
    }
}

/// A simulated Vivado process.
pub struct VivadoSim {
    catalog: Arc<Catalog>,
    registry: Arc<ModelRegistry>,
    checkpoints: CheckpointStore,
    parses: ParseCache,
    scripts: ScriptCache,
    /// Virtual filesystem: sources are written here before `read_*`,
    /// reports are written here by `report_* -file`.
    fs: BTreeMap<String, File>,
    project: Option<Project>,
    state: FlowState,
    /// Result of the last `synth_design`, shared with the checkpoint
    /// store.
    synth_result: Option<Arc<SynthResult>>,
    /// Result of the last `route_design`, shared with the checkpoint
    /// store.
    impl_result: Option<Arc<ImplResult>>,
    /// Whether the next synth/impl step may use the incremental flow.
    incremental_requested: bool,
    /// Whether a synth/impl step was answered by an exact checkpoint.
    exact_reuse: bool,
    /// Optional fault injector (see [`crate::fault`]); `None` = clean runs.
    faults: Option<FaultInjector>,
    /// Base seed for flow noise.
    seed: u64,
    /// Accumulated simulated tool time, in seconds.
    pub sim_time_s: f64,
}

impl VivadoSim {
    /// Creates a session with the built-in catalog and models, and a
    /// private checkpoint store, parse cache and script cache.
    pub fn new(seed: u64) -> VivadoSim {
        VivadoSim::with_models(
            seed,
            Arc::new(Catalog::builtin()),
            Arc::new(ModelRegistry::with_builtin_models()),
        )
    }

    /// Creates a session over a part catalog and model registry built
    /// once and shared with other sessions.
    pub fn with_models(
        seed: u64,
        catalog: Arc<Catalog>,
        registry: Arc<ModelRegistry>,
    ) -> VivadoSim {
        VivadoSim {
            catalog,
            registry,
            checkpoints: CheckpointStore::new(),
            parses: ParseCache::new(),
            scripts: ScriptCache::new(),
            fs: BTreeMap::new(),
            project: None,
            state: FlowState::Fresh,
            synth_result: None,
            impl_result: None,
            incremental_requested: false,
            exact_reuse: false,
            faults: None,
            seed,
            sim_time_s: 0.0,
        }
    }

    /// Attaches a fault injector. Sessions sharing a (cloned) injector
    /// draw from one deterministic fault stream.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Rolls for a crash/timeout fault pair at a flow stage; on a hit,
    /// charges the wasted simulated time and returns the error.
    fn roll_stage_fault(
        &mut self,
        stage: &str,
        timeout: FaultKind,
        crash: FaultKind,
    ) -> EdaResult<()> {
        let Some(inj) = self.faults.clone() else {
            return Ok(());
        };
        if inj.fires(timeout) {
            self.sim_time_s += inj.plan().timeout_cost_s;
            return Err(EdaError::Timeout(format!(
                "{stage} exceeded its time budget"
            )));
        }
        if inj.fires(crash) {
            self.sim_time_s += inj.plan().crash_cost_s;
            return Err(EdaError::ToolCrash(format!("{stage} died unexpectedly")));
        }
        Ok(())
    }

    /// Shares a checkpoint store across sessions (Dovado's incremental flow
    /// persists checkpoints between Vivado invocations).
    pub fn set_checkpoint_store(&mut self, store: CheckpointStore) {
        self.checkpoints = store;
    }

    /// The session's checkpoint store.
    pub fn checkpoint_store(&self) -> CheckpointStore {
        self.checkpoints.clone()
    }

    /// Shares a parse cache across sessions: a `read_*` of a source whose
    /// language and text match the first successful read of its path
    /// reuses that parse.
    pub fn set_parse_cache(&mut self, cache: ParseCache) {
        self.parses = cache;
    }

    /// Shares a script cache across sessions: a script whose text matches
    /// one parsed before reuses its parse.
    pub fn set_script_cache(&mut self, cache: ScriptCache) {
        self.scripts = cache;
    }

    /// Writes a file into the virtual filesystem.
    pub fn write_file(&mut self, path: impl Into<String>, content: impl Into<String>) {
        self.fs.insert(path.into(), File::Text(content.into()));
    }

    /// Reads a file from the virtual filesystem, rendering a pending
    /// report on its first read.
    pub fn read_file(&self, path: &str) -> Option<&str> {
        self.fs.get(path).map(File::text)
    }

    /// Snapshot of the whole virtual filesystem (path → content), for
    /// transports that mirror session files across a process boundary.
    /// Renders every pending report.
    pub fn files(&self) -> Vec<(String, String)> {
        self.fs
            .iter()
            .map(|(p, f)| (p.clone(), f.text().to_owned()))
            .collect()
    }

    /// Whether a flow step was answered by an exact prior checkpoint.
    pub(crate) fn used_exact_checkpoint(&self) -> bool {
        self.exact_reuse
    }

    /// Evaluates a TCL script against this session.
    pub fn eval(&mut self, script: &str) -> EdaResult<String> {
        let mut interp = Interp::with_scripts(self.scripts.clone());
        interp.eval(self, script)
    }

    /// Evaluates a TCL script, returning the collected `puts` output too.
    pub fn eval_with_output(&mut self, script: &str) -> EdaResult<(String, String)> {
        let mut interp = Interp::with_scripts(self.scripts.clone());
        let result = interp.eval(self, script)?;
        Ok((result, interp.output))
    }

    /// Current flow state.
    pub fn state(&self) -> FlowState {
        self.state
    }

    /// Result of the last `synth_design`, if any.
    pub fn synth_result(&self) -> Option<&SynthResult> {
        self.synth_result.as_deref()
    }

    /// Result of the last `route_design`, if any.
    pub fn impl_result(&self) -> Option<&ImplResult> {
        self.impl_result.as_deref()
    }

    /// The open project.
    pub fn project(&self) -> Option<&Project> {
        self.project.as_ref()
    }

    fn project_mut(&mut self) -> EdaResult<&mut Project> {
        self.project.as_mut().ok_or_else(no_project)
    }

    // ---- command implementations -------------------------------------

    fn cmd_create_project(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let mut name = None;
        let mut part_name = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_ref() {
                "-part" => {
                    part_name = Some(args.get(i + 1).map(|a| a.to_string()).ok_or_else(|| {
                        EdaError::Tcl("create_project: -part needs a value".into())
                    })?);
                    i += 2;
                }
                "-in_memory" | "-force" => i += 1,
                a if name.is_none() => {
                    name = Some(a.to_string());
                    i += 1;
                }
                _ => i += 1, // project directory — irrelevant in-memory
            }
        }
        let name = name.ok_or_else(|| EdaError::Tcl("create_project: missing name".into()))?;
        let part_name = part_name.unwrap_or_else(|| "xc7k70tfbv676-1".into());
        let part = self
            .catalog
            .resolve(&part_name)
            .ok_or_else(|| EdaError::UnknownPart(part_name.clone()))?
            .clone();
        self.project = Some(Project::new(&name, part));
        self.state = FlowState::Fresh;
        self.synth_result = None;
        self.impl_result = None;
        self.sim_time_s += 2.0;
        Ok(name)
    }

    fn cmd_read_hdl(&mut self, language: Language, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let mut library: Option<&str> = None;
        let mut lang = language;
        let mut paths = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_ref() {
                "-library" | "-lib" => {
                    library =
                        Some(args.get(i + 1).ok_or_else(|| {
                            EdaError::Tcl("read_*: -library needs a value".into())
                        })?);
                    i += 2;
                }
                "-sv" => {
                    lang = Language::SystemVerilog;
                    i += 1;
                }
                "-vhdl2008" => i += 1,
                p => {
                    paths.push(p);
                    i += 1;
                }
            }
        }
        if paths.is_empty() {
            return Err(EdaError::Tcl("read_*: no files given".into()));
        }
        for p in paths {
            let text = self
                .fs
                .get(p)
                .map(File::text)
                .ok_or_else(|| EdaError::FileNotFound(p.to_string()))?;
            let project = self.project.as_mut().ok_or_else(no_project)?;
            let file = self.parses.parse(p, lang, text)?;
            project.add_parsed(p, lang, file, library);
            self.sim_time_s += 0.5;
        }
        Ok(String::new())
    }

    fn cmd_set_property(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        if args.len() < 3 {
            return Err(EdaError::Tcl("set_property name value object".into()));
        }
        let prop = args[0].to_ascii_lowercase();
        let value = args[1].to_string();
        match prop.as_str() {
            "top" => self.project_mut()?.top = Some(value),
            "generic" => {
                // `set_property generic {A=1 B=2} [current_fileset]`
                let proj = self.project_mut()?;
                for pair in value.split_whitespace() {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| EdaError::Tcl(format!("bad generic assignment `{pair}`")))?;
                    let vi: i64 = parse_generic_value(v)?;
                    proj.generics.insert(k.to_string(), vi);
                }
            }
            "part" => {
                let part = self
                    .catalog
                    .resolve(&value)
                    .ok_or_else(|| EdaError::UnknownPart(value.clone()))?
                    .clone();
                self.project_mut()?.part = part;
            }
            // Unknown properties are accepted silently, as Vivado does
            // for the many properties Dovado does not touch.
            _ => {}
        }
        Ok(String::new())
    }

    fn cmd_create_clock(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let mut period = None;
        let mut port = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_ref() {
                "-period" => {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| EdaError::Tcl("create_clock: -period needs value".into()))?;
                    period =
                        Some(v.parse::<f64>().map_err(|_| {
                            EdaError::Tcl(format!("create_clock: bad period `{v}`"))
                        })?);
                    i += 2;
                }
                "-name" => i += 2,
                p => {
                    // Target object: a `[get_ports …]` result, i.e. the name.
                    port = Some(p.to_string());
                    i += 1;
                }
            }
        }
        let period = period.ok_or_else(|| EdaError::Tcl("create_clock: missing -period".into()))?;
        if period <= 0.0 {
            return Err(EdaError::Tcl(format!(
                "create_clock: non-positive period {period}"
            )));
        }
        let port = port.unwrap_or_else(|| "clk".into());
        self.project_mut()?.clocks.push(ClockConstraint {
            port,
            period_ns: period,
        });
        Ok(String::new())
    }

    fn cmd_get_ports(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let pattern = args
            .first()
            .ok_or_else(|| EdaError::Tcl("get_ports: missing pattern".into()))?;
        // Validate against the top module when resolvable; glob `*` passes.
        if pattern != "*" {
            if let Some(proj) = &self.project {
                if let Ok(top) = proj.top_name() {
                    if let Some(m) = proj.find_module(&top) {
                        if m.port(pattern).is_none() {
                            return Err(EdaError::Tcl(format!(
                                "get_ports: no port `{pattern}` on `{top}`"
                            )));
                        }
                    }
                }
            }
        }
        Ok(pattern.to_string())
    }

    fn cmd_synth_design(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let mut directive = SynthDirective::Default;
        let mut incremental = self.incremental_requested;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_ref() {
                "-top" => {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| EdaError::Tcl("synth_design: -top needs value".into()))?
                        .to_string();
                    self.project_mut()?.top = Some(v);
                    i += 2;
                }
                "-part" => {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| EdaError::Tcl("synth_design: -part needs value".into()))?;
                    let part = self
                        .catalog
                        .resolve(v)
                        .ok_or_else(|| EdaError::UnknownPart(v.to_string()))?
                        .clone();
                    self.project_mut()?.part = part;
                    i += 2;
                }
                "-directive" => {
                    let v = args.get(i + 1).ok_or_else(|| {
                        EdaError::Tcl("synth_design: -directive needs value".into())
                    })?;
                    directive = v.parse().map_err(EdaError::Tcl)?;
                    i += 2;
                }
                "-generic" => {
                    let v = args.get(i + 1).ok_or_else(|| {
                        EdaError::Tcl("synth_design: -generic needs value".into())
                    })?;
                    let (k, val) = v.split_once('=').ok_or_else(|| {
                        EdaError::Tcl(format!("bad -generic `{v}` (want NAME=VALUE)"))
                    })?;
                    let vi = parse_generic_value(val)?;
                    self.project_mut()?.generics.insert(k.to_string(), vi);
                    i += 2;
                }
                "-incremental" => {
                    incremental = true;
                    i += if args.get(i + 1).is_some_and(|a| !a.starts_with('-')) {
                        2
                    } else {
                        1
                    };
                }
                "-mode" | "-flatten_hierarchy" => i += 2,
                _ => i += 1,
            }
        }

        self.roll_stage_fault(
            "synth_design",
            FaultKind::SynthTimeout,
            FaultKind::SynthCrash,
        )?;

        let registry = Arc::clone(&self.registry);
        let proj = self
            .project
            .as_ref()
            .ok_or_else(|| EdaError::FlowOrder("no project open".into()))?;
        let netlist = proj.elaborate(&registry)?;
        let module = netlist.module.clone();
        let part = proj.part.clone();

        // Checkpoint identity includes the directive: a rerun with another
        // directive is a different synthesis.
        let synth_key = combine(netlist.design_hash, hash_str(directive.as_vivado()));

        // Exact cache hits apply even without the incremental flow: the
        // paper's first control-model case ("Vivado … employs cached
        // results as the answer").
        let (reuse, hit) = self.checkpoints.lookup(
            synth_key,
            &module,
            &part.name,
            FlowStep::Synthesis,
            incremental,
        );
        let result = match (reuse, hit) {
            (Reuse::Exact, Some(Checkpoint::Synth(prev))) => {
                self.sim_time_s += synth_runtime_s(netlist.cells.total(), directive)
                    * Reuse::Exact.runtime_factor();
                self.exact_reuse = true;
                prev
            }
            _ => {
                let mut r = synthesize(&netlist, &part, directive, self.seed);
                // Stamp the directive into the netlist identity so the
                // downstream implementation cache and PnR noise key on the
                // actual synthesized design.
                r.netlist.design_hash = synth_key;
                r.runtime_s *= reuse.runtime_factor();
                self.sim_time_s += r.runtime_s;
                let r = Arc::new(r);
                self.checkpoints.put(
                    synth_key,
                    &module,
                    &part.name,
                    FlowStep::Synthesis,
                    Checkpoint::Synth(Arc::clone(&r)),
                );
                r
            }
        };

        self.synth_result = Some(result);
        self.impl_result = None;
        self.state = FlowState::Synthesized;
        // `incremental_requested` stays set: the reference checkpoint also
        // serves the implementation step (route_design clears it).
        Ok(module)
    }

    fn cmd_place_design(&mut self, _args: &[Cow<'_, str>]) -> EdaResult<String> {
        if self.state == FlowState::Fresh {
            return Err(EdaError::FlowOrder(
                "place_design before synth_design".into(),
            ));
        }
        self.state = FlowState::Placed;
        // Placement cost is folded into route_design; charge a token amount.
        self.sim_time_s += 5.0;
        Ok(String::new())
    }

    fn cmd_route_design(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        if self.state == FlowState::Fresh {
            return Err(EdaError::FlowOrder(
                "route_design before synth_design".into(),
            ));
        }
        let mut directive = ImplDirective::Default;
        let mut i = 0;
        while i < args.len() {
            if args[i] == "-directive" {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| EdaError::Tcl("route_design: -directive needs value".into()))?;
                directive = v.parse().map_err(EdaError::Tcl)?;
                i += 2;
            } else {
                i += 1;
            }
        }

        self.roll_stage_fault(
            "route_design",
            FaultKind::RouteTimeout,
            FaultKind::RouteCrash,
        )?;

        // A second handle on the shared result, not a copy of it.
        let synth = self
            .synth_result
            .clone()
            .ok_or_else(|| EdaError::FlowOrder("route_design: no synthesized netlist".into()))?;
        let proj = self.project.as_ref().expect("state check passed");
        let part = proj.part.clone();
        let period = proj.clocks.first().map(|c| c.period_ns).unwrap_or(10.0);

        let impl_key = combine(
            combine(synth.netlist.design_hash, period.to_bits()),
            hash_str(directive.as_vivado()),
        );
        let module = &synth.netlist.module;
        let (reuse, hit) = self.checkpoints.lookup(
            impl_key,
            module,
            &part.name,
            FlowStep::Implementation,
            self.incremental_requested,
        );
        let result = match (reuse, hit) {
            (Reuse::Exact, Some(Checkpoint::Impl(prev))) => {
                self.sim_time_s +=
                    impl_runtime_s(synth.netlist.cells.total(), prev.utilization, directive)
                        * Reuse::Exact.runtime_factor();
                self.exact_reuse = true;
                prev
            }
            _ => {
                let mut r = place_and_route(&synth.netlist, &part, period, directive, self.seed)?;
                r.runtime_s *= reuse.runtime_factor();
                self.sim_time_s += r.runtime_s;
                let r = Arc::new(r);
                self.checkpoints.put(
                    impl_key,
                    module,
                    &part.name,
                    FlowStep::Implementation,
                    Checkpoint::Impl(Arc::clone(&r)),
                );
                r
            }
        };

        self.impl_result = Some(result);
        self.state = FlowState::Routed;
        self.incremental_requested = false;
        Ok(String::new())
    }

    /// The netlist and timing figures the timing and power reports show:
    /// the routed ones once `route_design` ran, else the post-synthesis
    /// estimate ([`crate::place_route::estimate_timing`]).
    fn current_timing(&self) -> EdaResult<(&Netlist, TimingFigures)> {
        if let Some(r) = &self.impl_result {
            return Ok((&r.netlist, TimingFigures::of(r)));
        }
        let synth = self
            .synth_result
            .as_ref()
            .ok_or_else(|| EdaError::FlowOrder("report_timing before synth_design".into()))?;
        let proj = self.project.as_ref().expect("have synth result");
        let period_ns = proj.clocks.first().map(|c| c.period_ns).unwrap_or(10.0);
        let crit_delay_ns = estimated_delay_ns(&synth.netlist, &proj.part);
        let figures = TimingFigures {
            wns_ns: period_ns - crit_delay_ns,
            period_ns,
            crit_delay_ns,
        };
        Ok((&synth.netlist, figures))
    }

    fn cmd_report_utilization(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let synth = self
            .synth_result
            .as_ref()
            .ok_or_else(|| EdaError::FlowOrder("report_utilization before synth_design".into()))?;
        let netlist = self
            .impl_result
            .as_ref()
            .map(|r| &r.netlist)
            .unwrap_or(&synth.netlist);
        let part = &self.project.as_ref().expect("have synth result").part;
        let report = Report::Utilization {
            module: netlist.module.clone(),
            used: netlist.cells,
            device: part.name.clone(),
            capacity: part.capacity,
        };
        self.finish_report(args, report)
    }

    fn cmd_report_timing(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let (netlist, figures) = self.current_timing()?;
        let report = Report::Timing {
            module: netlist.module.clone(),
            crit_path: netlist.crit_path.clone(),
            figures,
        };
        self.finish_report(args, report)
    }

    /// `report_power [-file f]`: estimated at the *achievable* frequency
    /// (Eq. 1's Fmax), the operating point DSE cares about.
    fn cmd_report_power(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let (netlist, figures) = self.current_timing()?;
        let proj = self.project.as_ref().expect("timing implies a project");
        let clock_mhz = figures.fmax_mhz();
        let est = power::estimate_power(netlist, &proj.part, clock_mhz, power::DEFAULT_TOGGLE_RATE);
        let report = Report::Power {
            module: netlist.module.clone(),
            est,
            clock_mhz,
        };
        self.finish_report(args, report)
    }

    /// Honors `-file <path>`, where the report waits to be rendered until
    /// something reads it; otherwise returns the text as the command
    /// result. Report faults are drawn as the command runs, truncation
    /// first, and a faulted report is rendered and mangled at once.
    fn finish_report(&mut self, args: &[Cow<'_, str>], report: Report) -> EdaResult<String> {
        let fault = self.faults.as_ref().and_then(|inj| {
            [FaultKind::ReportTruncated, FaultKind::ReportGarbled]
                .into_iter()
                .find(|&kind| inj.fires(kind))
                .map(|kind| (inj.clone(), kind))
        });
        let mangled = fault.map(|(inj, kind)| inj.mangle_report(kind, &report.render()));
        match args.iter().position(|a| a == "-file") {
            Some(i) => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| EdaError::Tcl("-file needs a path".into()))?
                    .to_string();
                let file = match mangled {
                    Some(text) => File::Text(text),
                    None => File::Report(report, OnceCell::new()),
                };
                self.fs.insert(path, file);
                Ok(String::new())
            }
            None => Ok(mangled.unwrap_or_else(|| report.render())),
        }
    }

    fn cmd_write_checkpoint(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let path = args
            .iter()
            .find(|a| !a.starts_with('-'))
            .ok_or_else(|| EdaError::Tcl("write_checkpoint: missing path".into()))?;
        let hash = match (&self.impl_result, &self.synth_result) {
            (Some(r), _) => combine(r.netlist.design_hash, 2),
            (None, Some(s)) => combine(s.netlist.design_hash, 1),
            _ => {
                return Err(EdaError::FlowOrder(
                    "write_checkpoint before synth_design".into(),
                ))
            }
        };
        self.fs
            .insert(path.to_string(), File::Text(format!("dcp:{hash:016x}")));
        self.sim_time_s += 3.0;
        Ok(String::new())
    }

    fn cmd_read_checkpoint(&mut self, args: &[Cow<'_, str>]) -> EdaResult<String> {
        let mut incremental = false;
        let mut path = None;
        for a in args {
            if a == "-incremental" {
                incremental = true;
            } else if !a.starts_with('-') {
                path = Some(a.as_ref());
            }
        }
        let path = path.ok_or_else(|| EdaError::Tcl("read_checkpoint: missing path".into()))?;
        if !self.fs.contains_key(path) {
            return Err(EdaError::Checkpoint(format!(
                "checkpoint `{path}` does not exist"
            )));
        }
        if let Some(inj) = self.faults.clone() {
            if inj.fires(FaultKind::CheckpointCorrupt) {
                // The on-disk artifact is gone for good: drop it so a
                // retry that still references it fails fast instead of
                // re-reading garbage.
                self.fs.remove(path);
                return Err(EdaError::Checkpoint(format!(
                    "checkpoint `{path}` is corrupt"
                )));
            }
        }
        if incremental {
            self.incremental_requested = true;
        }
        Ok(String::new())
    }
}

fn no_project() -> EdaError {
    EdaError::FlowOrder("no project open (run create_project)".into())
}

fn parse_generic_value(v: &str) -> EdaResult<i64> {
    let t = v.trim();
    // Booleans per the paper's integer formulation.
    if t.eq_ignore_ascii_case("true") {
        return Ok(1);
    }
    if t.eq_ignore_ascii_case("false") {
        return Ok(0);
    }
    t.parse::<i64>()
        .map_err(|_| EdaError::Parameter(format!("non-integer generic value `{v}`")))
}

impl TclContext for VivadoSim {
    fn run_command(
        &mut self,
        _interp: &mut Interp,
        name: &str,
        args: &[Cow<'_, str>],
    ) -> EdaResult<String> {
        match name {
            "create_project" => self.cmd_create_project(args),
            "read_vhdl" => self.cmd_read_hdl(Language::Vhdl, args),
            "read_verilog" => self.cmd_read_hdl(Language::Verilog, args),
            "set_property" => self.cmd_set_property(args),
            "create_clock" => self.cmd_create_clock(args),
            "get_ports" => self.cmd_get_ports(args),
            "synth_design" => self.cmd_synth_design(args),
            "opt_design" => {
                self.sim_time_s += 4.0;
                Ok(String::new())
            }
            "place_design" => self.cmd_place_design(args),
            "route_design" => self.cmd_route_design(args),
            "phys_opt_design" => {
                self.sim_time_s += 6.0;
                Ok(String::new())
            }
            "report_utilization" => self.cmd_report_utilization(args),
            "report_timing_summary" | "report_timing" => self.cmd_report_timing(args),
            "report_power" => self.cmd_report_power(args),
            "write_checkpoint" => self.cmd_write_checkpoint(args),
            "read_checkpoint" => self.cmd_read_checkpoint(args),
            "version" => Ok("Vivado v2019.2 (simulated by dovado-eda)".into()),
            "get_parts" => {
                let pattern = args.first().map(AsRef::as_ref).unwrap_or("*");
                let parts: Vec<String> = self
                    .catalog
                    .parts()
                    .iter()
                    .map(|p| p.name.clone())
                    .filter(|n| {
                        pattern == "*"
                            || n.contains(&pattern.trim_matches('*').to_ascii_lowercase())
                    })
                    .collect();
                Ok(parts.join(" "))
            }
            "current_fileset" => Ok("sources_1".into()),
            "current_project" => Ok(self
                .project
                .as_ref()
                .map(|p| p.name.clone())
                .unwrap_or_default()),
            "file" => Ok(String::new()), // `file mkdir …` — no-op in memory
            "exit" | "quit" => Ok(String::new()),
            other => Err(EdaError::Tcl(format!("invalid command name \"{other}\""))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::place_route::estimate_timing;

    const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

    fn session_with_fifo() -> VivadoSim {
        let mut v = VivadoSim::new(7);
        v.write_file("src/fifo.sv", FIFO_SV);
        v.eval(
            "create_project dov -part xc7k70tfbv676-1\n\
             read_verilog -sv src/fifo.sv\n\
             set_property top fifo_v3 [current_fileset]",
        )
        .unwrap();
        v
    }

    #[test]
    fn full_flow_via_tcl() {
        let mut v = session_with_fifo();
        v.eval(
            "synth_design -top fifo_v3 -generic DEPTH=64\n\
             create_clock -period 1.000 -name clk [get_ports clk_i]\n\
             place_design\n\
             route_design\n\
             report_utilization -file util.rpt\n\
             report_timing_summary -file timing.rpt",
        )
        .unwrap();
        assert_eq!(v.state(), FlowState::Routed);
        let util = v.read_file("util.rpt").unwrap();
        let cells = report::parse_utilization_report(util).unwrap();
        assert!(cells.get(dovado_fpga::ResourceKind::Lut) > 100);
        let wns = report::parse_wns(v.read_file("timing.rpt").unwrap()).unwrap();
        assert!(wns < 0.0, "1 ns target must fail on K7: wns={wns}");
    }

    #[test]
    fn fmax_in_plausible_band() {
        let mut v = session_with_fifo();
        v.eval(
            "synth_design -top fifo_v3 -generic DEPTH=64\n\
             create_clock -period 1.000 [get_ports clk_i]\n\
             route_design",
        )
        .unwrap();
        let fmax = v.impl_result().unwrap().fmax_mhz();
        assert!(fmax > 150.0 && fmax < 500.0, "fifo fmax {fmax}");
    }

    #[test]
    fn missing_file_errors() {
        let mut v = VivadoSim::new(0);
        v.eval("create_project p -part xc7k70t").unwrap();
        assert!(matches!(
            v.eval("read_verilog ghost.v"),
            Err(EdaError::FileNotFound(_))
        ));
    }

    #[test]
    fn unknown_part_errors() {
        let mut v = VivadoSim::new(0);
        assert!(matches!(
            v.eval("create_project p -part xc99nothing"),
            Err(EdaError::UnknownPart(_))
        ));
    }

    #[test]
    fn flow_order_enforced() {
        let mut v = session_with_fifo();
        assert!(matches!(
            v.eval("route_design"),
            Err(EdaError::FlowOrder(_))
        ));
        assert!(matches!(
            v.eval("report_utilization"),
            Err(EdaError::FlowOrder(_))
        ));
    }

    #[test]
    fn get_ports_validates() {
        let mut v = session_with_fifo();
        assert!(v.eval("get_ports clk_i").is_ok());
        assert!(v.eval("get_ports bogus_port").is_err());
    }

    #[test]
    fn generic_changes_results() {
        let run = |depth: u32| {
            let mut v = session_with_fifo();
            v.eval(&format!(
                "synth_design -top fifo_v3 -generic DEPTH={depth}\nreport_utilization"
            ))
            .unwrap();
            v.synth_result().unwrap().netlist.registers()
        };
        assert!(run(256) > run(8));
    }

    #[test]
    fn exact_rerun_uses_cache_and_matches() {
        let mut v = session_with_fifo();
        v.eval("synth_design -top fifo_v3 -generic DEPTH=64")
            .unwrap();
        let first = v.synth_result().unwrap().netlist.clone();
        let t_after_first = v.sim_time_s;
        v.eval("synth_design -top fifo_v3 -generic DEPTH=64")
            .unwrap();
        let second = v.synth_result().unwrap().netlist.clone();
        let t_second = v.sim_time_s - t_after_first;
        assert_eq!(first, second);
        assert!(
            t_second < t_after_first * 0.2,
            "cached rerun should be cheap: {t_second} vs {t_after_first}"
        );
    }

    #[test]
    fn incremental_flow_cuts_runtime_for_new_params() {
        // Session A: cold run at DEPTH=64 leaves a checkpoint in the store.
        let store = {
            let mut v = session_with_fifo();
            v.eval("synth_design -top fifo_v3 -generic DEPTH=64")
                .unwrap();
            v.eval("write_checkpoint post_synth.dcp").unwrap();
            v.checkpoint_store()
        };
        // Session B, same store: DEPTH=65 with the incremental flow.
        let mut vb = session_with_fifo();
        vb.set_checkpoint_store(store.clone());
        vb.write_file("post_synth.dcp", "dcp:basis");
        let t0 = vb.sim_time_s;
        vb.eval("read_checkpoint -incremental post_synth.dcp")
            .unwrap();
        vb.eval("synth_design -top fifo_v3 -generic DEPTH=65")
            .unwrap();
        let t_incr = vb.sim_time_s - t0;

        // Session C, fresh store: DEPTH=65 from scratch.
        let mut vc = session_with_fifo();
        let t1 = vc.sim_time_s;
        vc.eval("synth_design -top fifo_v3 -generic DEPTH=65")
            .unwrap();
        let t_full = vc.sim_time_s - t1;

        assert!(
            t_incr < 0.6 * t_full,
            "incremental {t_incr} not cheaper than full {t_full}"
        );
        // QoR identical: the checkpoint only buys time.
        assert_eq!(
            vb.synth_result().unwrap().netlist,
            vc.synth_result().unwrap().netlist
        );
    }

    #[test]
    fn vhdl_flow_through_box() {
        let mut v = VivadoSim::new(3);
        v.write_file(
            "src/neorv32.vhd",
            r#"
entity neorv32_top is
  generic (
    MEM_INT_IMEM_SIZE : natural := 16384;
    MEM_INT_DMEM_SIZE : natural := 8192
  );
  port ( clk_i : in std_logic );
end entity neorv32_top;
"#,
        );
        v.write_file(
            "src/box.vhd",
            r#"
library ieee;
use ieee.std_logic_1164.all;
entity box is
  port ( clk : in std_logic );
end entity box;
architecture box_arch of box is
begin
  BOXED: entity work.neorv32_top
    generic map ( MEM_INT_IMEM_SIZE => 32768, MEM_INT_DMEM_SIZE => 16384 )
    port map ( clk_i => clk );
end architecture box_arch;
"#,
        );
        v.eval(
            "create_project p -part xc7k70tfbv676-1\n\
             read_vhdl src/neorv32.vhd\n\
             read_vhdl src/box.vhd\n\
             synth_design -top box\n\
             create_clock -period 1.0 [get_ports clk]\n\
             route_design\n\
             report_utilization -file u.rpt",
        )
        .unwrap();
        let cells = report::parse_utilization_report(v.read_file("u.rpt").unwrap()).unwrap();
        assert_eq!(cells.get(dovado_fpga::ResourceKind::Bram), 8 + 4);
    }

    #[test]
    fn timing_report_before_route_is_estimate() {
        let mut v = session_with_fifo();
        v.eval(
            "synth_design -top fifo_v3\n\
             create_clock -period 1.0 [get_ports clk_i]\n",
        )
        .unwrap();
        let est = v.eval("report_timing_summary").unwrap();
        let est_wns = report::parse_wns(&est).unwrap();
        v.eval("route_design").unwrap();
        let real = v.eval("report_timing_summary").unwrap();
        let real_wns = report::parse_wns(&real).unwrap();
        assert!(est_wns > real_wns, "estimate must be optimistic");
    }

    #[test]
    fn sim_time_accumulates() {
        let mut v = session_with_fifo();
        let t0 = v.sim_time_s;
        v.eval("synth_design -top fifo_v3").unwrap();
        assert!(v.sim_time_s > t0 + 5.0);
    }

    #[test]
    fn tcl_can_compute_fmax_from_reports() {
        // The whole loop in pure TCL — variables, expr, command subst.
        let mut v = session_with_fifo();
        let (result, _out) = v
            .eval_with_output(
                "synth_design -top fifo_v3 -generic DEPTH=32\n\
                 create_clock -period 1.0 [get_ports clk_i]\n\
                 route_design\n\
                 set t 1.0\n\
                 puts \"done\"",
            )
            .unwrap();
        assert_eq!(result, "");
        let wns = v.impl_result().unwrap().wns_ns;
        let fmax = 1000.0 / (1.0 - wns);
        assert!((fmax - v.impl_result().unwrap().fmax_mhz()).abs() < 1e-9);
    }

    #[test]
    fn read_checkpoint_requires_file() {
        let mut v = session_with_fifo();
        assert!(matches!(
            v.eval("read_checkpoint -incremental missing.dcp"),
            Err(EdaError::Checkpoint(_))
        ));
    }

    #[test]
    fn version_and_get_parts() {
        let mut v = VivadoSim::new(0);
        assert!(v.eval("version").unwrap().contains("2019.2"));
        let all = v.eval("get_parts").unwrap();
        assert!(all.contains("xc7k70tfbv676-1"));
        let filtered = v.eval("get_parts *zu3eg*").unwrap();
        assert!(filtered.contains("xczu3eg"));
        assert!(!filtered.contains("xc7k70t"));
        // Usable from scripts: pick a part with command substitution.
        let (_, out) = v
            .eval_with_output("foreach p [get_parts *xc7k70t*] { puts $p }")
            .unwrap();
        assert!(out.lines().count() >= 2);
    }

    /// A fresh session on `cache` that reads `text` from `src/fifo.sv`
    /// with the `read` command.
    fn read_with(cache: &ParseCache, read: &str, text: &str) -> (VivadoSim, EdaResult<String>) {
        let mut v = VivadoSim::new(7);
        v.set_parse_cache(cache.clone());
        v.write_file("src/fifo.sv", text);
        let r = v.eval(&format!(
            "create_project dov -part xc7k70tfbv676-1\n{read} src/fifo.sv"
        ));
        (v, r)
    }

    fn parsed(v: &VivadoSim) -> Arc<dovado_hdl::SourceFile> {
        Arc::clone(&v.project().unwrap().sources[0].file)
    }

    #[test]
    fn sessions_sharing_a_parse_cache_hold_one_parse() {
        let cache = ParseCache::new();
        let (a, ra) = read_with(&cache, "read_verilog -sv", FIFO_SV);
        let (b, rb) = read_with(&cache, "read_verilog -sv", FIFO_SV);
        ra.unwrap();
        rb.unwrap();
        assert!(Arc::ptr_eq(&parsed(&a), &parsed(&b)));
        // A hit is charged like a parse and leaves the same files.
        assert_eq!(a.sim_time_s.to_bits(), b.sim_time_s.to_bits());
        assert_eq!(a.files(), b.files());
        let (c, _) = read_with(&ParseCache::new(), "read_verilog -sv", FIFO_SV);
        assert!(!Arc::ptr_eq(&parsed(&a), &parsed(&c)));
    }

    #[test]
    fn an_edited_source_at_the_same_path_parses_again() {
        let cache = ParseCache::new();
        let edited = FIFO_SV.replace("DEPTH = 8", "DEPTH = 512");
        let (mut old, _) = read_with(&cache, "read_verilog -sv", FIFO_SV);
        let (mut new, _) = read_with(&cache, "read_verilog -sv", &edited);
        let (mut fresh, _) = read_with(&ParseCache::new(), "read_verilog -sv", &edited);
        assert!(!Arc::ptr_eq(&parsed(&old), &parsed(&new)));
        for v in [&mut old, &mut new, &mut fresh] {
            v.eval("synth_design -top fifo_v3").unwrap();
        }
        let netlist = |v: &VivadoSim| v.synth_result().unwrap().netlist.clone();
        assert!(netlist(&new).registers() > netlist(&old).registers());
        assert_eq!(netlist(&new), netlist(&fresh));
    }

    #[test]
    fn the_same_text_read_as_another_language_parses_again() {
        let cache = ParseCache::new();
        let (verilog, _) = read_with(&cache, "read_verilog", FIFO_SV);
        let (sv, _) = read_with(&cache, "read_verilog -sv", FIFO_SV);
        assert!(!Arc::ptr_eq(&parsed(&verilog), &parsed(&sv)));
        assert_eq!(
            sv.project().unwrap().sources[0].language,
            Language::SystemVerilog
        );
        // As VHDL the text declares no entity: not the cached module.
        let (vhdl, r) = read_with(&cache, "read_vhdl", FIFO_SV);
        r.unwrap();
        assert_eq!(parsed(&verilog).modules.len(), 1);
        assert!(parsed(&vhdl).modules.is_empty());
    }

    #[test]
    fn a_syntax_error_fails_identically_on_every_read() {
        let cache = ParseCache::new();
        let (good, _) = read_with(&cache, "read_verilog -sv", FIFO_SV);
        let broken = "module fifo_v3(input wire c);";
        let expected = "src/fifo.sv: parse error at 1:30: module `fifo_v3` is missing `endmodule`";
        for _ in 0..2 {
            match read_with(&cache, "read_verilog -sv", broken).1 {
                Err(EdaError::Parse(m)) => assert_eq!(m, expected),
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
        let mut direct = Project::new("p", good.project().unwrap().part.clone());
        let err = direct
            .add_source("src/fifo.sv", Language::SystemVerilog, broken, None)
            .unwrap_err();
        assert!(matches!(err, EdaError::Parse(m) if m == expected));
        // The failed reads left the good parse in place.
        let (again, _) = read_with(&cache, "read_verilog -sv", FIFO_SV);
        assert!(Arc::ptr_eq(&parsed(&good), &parsed(&again)));
    }

    #[test]
    fn a_path_keeps_its_first_parse_while_its_text_changes() {
        // The evaluator's shape: an unchanged source plus a box whose
        // text changes with every design point.
        let cache = ParseCache::new();
        let session = |cache: &ParseCache, depth: u32| {
            let mut v = VivadoSim::new(7);
            v.set_parse_cache(cache.clone());
            v.write_file("src/fifo.sv", FIFO_SV);
            v.write_file(
                "src/box.sv",
                format!(
                    "module box(input wire clk);\n  fifo_v3 #(.DEPTH({depth})) BOXED (.clk_i(clk));\n\
                     endmodule"
                ),
            );
            v.eval(
                "create_project dov -part xc7k70tfbv676-1\n\
                 read_verilog -sv src/fifo.sv\n\
                 read_verilog -sv src/box.sv\n\
                 synth_design -top box",
            )
            .unwrap();
            v
        };
        let source = |v: &VivadoSim, i: usize| Arc::clone(&v.project().unwrap().sources[i].file);
        let first = session(&cache, 16);
        for depth in [32, 64, 16, 128] {
            let v = session(&cache, depth);
            let fresh = session(&ParseCache::new(), depth);
            assert!(Arc::ptr_eq(&source(&first, 0), &source(&v, 0)), "{depth}");
            assert_eq!(Arc::ptr_eq(&source(&first, 1), &source(&v, 1)), depth == 16);
            assert_eq!(*source(&v, 1), *source(&fresh, 1), "{depth}");
            assert_eq!(
                v.synth_result().unwrap().netlist,
                fresh.synth_result().unwrap().netlist,
                "{depth}"
            );
        }
    }

    #[test]
    fn deeply_nested_scripts_fail_instead_of_overflowing() {
        let mut v = VivadoSim::new(0);
        let depth = 10_000;
        let script = format!(
            "create_project p -part xc7k70tfbv676-1\nset x {}get_parts{}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        match v.eval(&script) {
            Err(EdaError::Tcl(m)) => assert_eq!(
                m,
                format!(
                    "line 2: scripts nest deeper than {} levels",
                    crate::tcl::MAX_SCRIPT_DEPTH
                )
            ),
            other => panic!("expected the depth error, got {other:?}"),
        }
        // An escaped value is one literal word, however many brackets.
        let part = format!("{}xc7k70t{}", r"\[".repeat(depth), r"\]".repeat(depth));
        assert!(matches!(
            v.eval(&format!("create_project p -part {part}")),
            Err(EdaError::UnknownPart(p)) if p.len() == 2 * depth + 7
        ));
    }

    const SYNTH_REPORTS: &str = "synth_design -top fifo_v3 -generic DEPTH=64\n\
                                 create_clock -period 1.000 [get_ports clk_i]\n\
                                 report_utilization -file util_synth.rpt\n\
                                 report_timing_summary -file timing_synth.rpt\n\
                                 report_power -file power_synth.rpt";

    fn pending(v: &VivadoSim, path: &str) -> bool {
        matches!(&v.fs[path], File::Report(_, text) if text.get().is_none())
    }

    #[test]
    fn a_synthesis_report_read_after_routing_shows_the_synthesis_numbers() {
        let paths = ["util_synth.rpt", "timing_synth.rpt", "power_synth.rpt"];
        // Read at once: rendered before routing.
        let mut early = session_with_fifo();
        early.eval(SYNTH_REPORTS).unwrap();
        let before: Vec<String> = paths
            .iter()
            .map(|p| early.read_file(p).unwrap().to_string())
            .collect();
        // Read only after routing: rendered from what the commands captured.
        let mut late = session_with_fifo();
        late.eval(SYNTH_REPORTS).unwrap();
        assert!(paths.iter().all(|p| pending(&late, p)));
        late.eval("route_design\nreport_timing_summary -file timing_impl.rpt")
            .unwrap();
        for (path, text) in paths.iter().zip(&before) {
            assert_eq!(late.read_file(path).unwrap(), text, "{path}");
        }
        let wns = |v: &VivadoSim, p| report::parse_wns(v.read_file(p).unwrap()).unwrap();
        assert!(wns(&late, "timing_synth.rpt") > wns(&late, "timing_impl.rpt"));
    }

    #[test]
    fn files_returns_the_rendered_reports() {
        let mut v = session_with_fifo();
        v.eval(SYNTH_REPORTS).unwrap();
        let synth = v.synth_result().unwrap().clone();
        let part = v.project().unwrap().part.clone();
        let util = report::write_utilization_report("fifo_v3", &synth.netlist.cells, &part);
        let timing = estimate_timing(&synth.netlist, &part, 1.0);
        let est = power::estimate_power(
            &synth.netlist,
            &part,
            timing.fmax_mhz(),
            power::DEFAULT_TOGGLE_RATE,
        );
        let files: BTreeMap<String, String> = v.files().into_iter().collect();
        assert_eq!(files["util_synth.rpt"], util);
        assert_eq!(
            files["timing_synth.rpt"],
            report::write_timing_report("fifo_v3", &timing)
        );
        assert_eq!(
            files["power_synth.rpt"],
            power::write_power_report("fifo_v3", &est, timing.fmax_mhz())
        );
        assert_eq!(files["src/fifo.sv"], FIFO_SV);
        // The snapshot rendered each report once, for later reads too.
        assert!(!pending(&v, "util_synth.rpt"));
        assert_eq!(v.read_file("util_synth.rpt").unwrap(), util);
    }

    #[test]
    fn certain_report_faults_match_eager_rendering() {
        let reports = [
            ("report_utilization", "util_synth.rpt"),
            ("report_timing_summary", "timing_synth.rpt"),
            ("report_power", "power_synth.rpt"),
        ];
        for plan in [
            FaultPlan {
                report_truncated: 1.0,
                ..FaultPlan::default()
            },
            FaultPlan {
                report_garbled: 1.0,
                ..FaultPlan::default()
            },
        ] {
            let faulty = || {
                let mut v = session_with_fifo();
                v.set_fault_injector(FaultInjector::new(plan.clone()));
                v.eval(
                    "synth_design -top fifo_v3 -generic DEPTH=64\n\
                        create_clock -period 1.000 [get_ports clk_i]",
                )
                .unwrap();
                v
            };
            let mut lazy = faulty();
            lazy.eval(SYNTH_REPORTS).unwrap();
            // Eager: each command returns its text and the test files it.
            let mut eager = faulty();
            eager
                .eval(
                    "synth_design -top fifo_v3 -generic DEPTH=64\n\
                       create_clock -period 1.000 [get_ports clk_i]",
                )
                .unwrap();
            for (cmd, path) in reports {
                let text = eager.eval(cmd).unwrap();
                eager.write_file(path, text);
            }
            assert!(reports.iter().all(|(_, p)| !pending(&lazy, p)));
            assert_eq!(lazy.files(), eager.files());
            assert_eq!(lazy.sim_time_s.to_bits(), eager.sim_time_s.to_bits());
            let util = lazy.read_file("util_synth.rpt").unwrap();
            assert!(report::parse_utilization_report(util).is_err());
        }
    }

    #[test]
    fn bool_generics_accepted() {
        let mut v = session_with_fifo();
        v.eval("set_property generic {DEPTH=16 FALL_THROUGH=true} [current_fileset]")
            .unwrap();
        assert_eq!(v.project().unwrap().generics["FALL_THROUGH"], 1);
    }
}
