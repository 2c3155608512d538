//! Design checkpoints and the incremental flow.
//!
//! Vivado's incremental design flow "writes some archives, called
//! checkpoints" per run; reusing them "avoids repeating the exploration of
//! design parts not affected by parametrization" (§III-B2). The simulator
//! models that as a store keyed by the exact design hash (full reuse — the
//! paper's "Vivado employs cached results" case) with a secondary index by
//! (module, part, step) for *incremental* reuse: a prior run of the same
//! module with different parameters cuts the simulated run time by a reuse
//! factor.

use crate::place_route::ImplResult;
use crate::synth::SynthResult;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Which flow step a checkpoint captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowStep {
    /// After `synth_design`.
    Synthesis,
    /// After `route_design`.
    Implementation,
}

/// A stored checkpoint. The payload is shared: the session that put it
/// and every exact hit read one result, never a copy.
#[derive(Debug, Clone)]
pub enum Checkpoint {
    /// Synthesis result.
    Synth(Arc<SynthResult>),
    /// Implementation result.
    Impl(Arc<ImplResult>),
}

/// How much of a fresh run's cost a reuse class still pays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reuse {
    /// No prior checkpoint: pay the full run time.
    None,
    /// Same module, different parameters: incremental flow applies.
    Incremental,
    /// Identical design hash: the tool answers from cache.
    Exact,
}

impl Reuse {
    /// Run-time multiplier for this reuse class.
    pub fn runtime_factor(&self) -> f64 {
        match self {
            Reuse::None => 1.0,
            Reuse::Incremental => 0.42,
            Reuse::Exact => 0.04,
        }
    }
}

/// An incremental basis: a checkpoint of `module` on `part` at `step`
/// exists. Module and part compare with ASCII case folded.
struct Basis {
    module: String,
    part: String,
    step: FlowStep,
}

impl Basis {
    fn matches(&self, module: &str, part: &str, step: FlowStep) -> bool {
        self.step == step
            && self.module.eq_ignore_ascii_case(module)
            && self.part.eq_ignore_ascii_case(part)
    }
}

#[derive(Default)]
struct Inner {
    /// Exact results by (design_hash, step).
    exact: HashMap<(u64, FlowStep), Checkpoint>,
    /// Every (module, part, step) a checkpoint was put for. A run sees a
    /// handful (one module per part and step), so a scan that folds case
    /// in the comparison serves lookups without lowercased copies.
    bases: Vec<Basis>,
}

/// A shareable, thread-safe checkpoint store.
#[derive(Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<Inner>>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a checkpoint.
    pub fn put(&self, design_hash: u64, module: &str, part: &str, step: FlowStep, cp: Checkpoint) {
        let mut g = self.inner.lock();
        g.exact.insert((design_hash, step), cp);
        if !g.bases.iter().any(|b| b.matches(module, part, step)) {
            g.bases.push(Basis {
                module: module.to_string(),
                part: part.to_string(),
                step,
            });
        }
    }

    /// The reuse a run of `step` on `design_hash` gets, with the
    /// checkpoint that answers it when the reuse is exact, under one
    /// lock. An exact checkpoint applies to every run, incremental or not
    /// (the paper's "Vivado … employs cached results as the answer"); a
    /// prior checkpoint of the same module and part applies only when
    /// the run asked for the `incremental` flow.
    pub fn lookup(
        &self,
        design_hash: u64,
        module: &str,
        part: &str,
        step: FlowStep,
        incremental: bool,
    ) -> (Reuse, Option<Checkpoint>) {
        let g = self.inner.lock();
        if let Some(cp) = g.exact.get(&(design_hash, step)) {
            return (Reuse::Exact, Some(cp.clone()));
        }
        if incremental && g.bases.iter().any(|b| b.matches(module, part, step)) {
            return (Reuse::Incremental, None);
        }
        (Reuse::None, None)
    }

    /// Number of stored checkpoints.
    pub fn len(&self) -> usize {
        self.inner.lock().exact.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops everything.
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.exact.clear();
        g.bases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::synth::SynthDirective;

    fn synth_cp() -> Checkpoint {
        Checkpoint::Synth(Arc::new(SynthResult {
            netlist: Netlist::empty("m"),
            runtime_s: 1.0,
            directive: SynthDirective::Default,
        }))
    }

    /// The reuse class a run finds, incremental flow requested.
    fn classify(
        store: &CheckpointStore,
        hash: u64,
        module: &str,
        part: &str,
        step: FlowStep,
    ) -> Reuse {
        store.lookup(hash, module, part, step, true).0
    }

    #[test]
    fn exact_reuse_after_put() {
        let store = CheckpointStore::new();
        assert_eq!(
            classify(&store, 42, "m", "p", FlowStep::Synthesis),
            Reuse::None
        );
        store.put(42, "m", "p", FlowStep::Synthesis, synth_cp());
        let (reuse, hit) = store.lookup(42, "m", "p", FlowStep::Synthesis, true);
        assert_eq!(reuse, Reuse::Exact);
        assert!(matches!(hit, Some(Checkpoint::Synth(_))));
    }

    #[test]
    fn an_exact_hit_shares_the_stored_result() {
        let store = CheckpointStore::new();
        let cp = synth_cp();
        let Checkpoint::Synth(put) = &cp else {
            unreachable!()
        };
        let put = Arc::clone(put);
        store.put(42, "m", "p", FlowStep::Synthesis, cp);
        for incremental in [false, true] {
            match store.lookup(42, "m", "p", FlowStep::Synthesis, incremental) {
                (Reuse::Exact, Some(Checkpoint::Synth(hit))) => assert!(Arc::ptr_eq(&hit, &put)),
                other => panic!("expected an exact hit, got {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_reuse_for_same_module_other_params() {
        let store = CheckpointStore::new();
        store.put(42, "fifo", "xc7k70t", FlowStep::Synthesis, synth_cp());
        // Different design hash (other params), same module/part/step.
        assert_eq!(
            classify(&store, 43, "fifo", "xc7k70t", FlowStep::Synthesis),
            Reuse::Incremental
        );
        // Different part → no basis.
        assert_eq!(
            classify(&store, 43, "fifo", "xczu3eg", FlowStep::Synthesis),
            Reuse::None
        );
        // Different step → no basis.
        assert_eq!(
            classify(&store, 43, "fifo", "xc7k70t", FlowStep::Implementation),
            Reuse::None
        );
    }

    #[test]
    fn a_basis_counts_only_for_an_incremental_run() {
        let store = CheckpointStore::new();
        store.put(42, "fifo", "xc7k70t", FlowStep::Synthesis, synth_cp());
        let (reuse, hit) = store.lookup(43, "fifo", "xc7k70t", FlowStep::Synthesis, false);
        assert_eq!(reuse, Reuse::None);
        assert!(hit.is_none());
    }

    #[test]
    fn case_insensitive_module_and_part() {
        let store = CheckpointStore::new();
        store.put(1, "FIFO", "XC7K70T", FlowStep::Synthesis, synth_cp());
        assert_eq!(
            classify(&store, 2, "fifo", "xc7k70t", FlowStep::Synthesis),
            Reuse::Incremental
        );
        // The same basis in another case adds no second entry.
        store.put(3, "fifo", "xc7k70t", FlowStep::Synthesis, synth_cp());
        assert_eq!(store.inner.lock().bases.len(), 1);
    }

    #[test]
    fn runtime_factors_ordered() {
        assert!(Reuse::Exact.runtime_factor() < Reuse::Incremental.runtime_factor());
        assert!(Reuse::Incremental.runtime_factor() < Reuse::None.runtime_factor());
    }

    #[test]
    fn clear_empties_store() {
        let store = CheckpointStore::new();
        store.put(1, "m", "p", FlowStep::Synthesis, synth_cp());
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        assert_eq!(
            classify(&store, 1, "m", "p", FlowStep::Synthesis),
            Reuse::None
        );
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let store = CheckpointStore::new();
        let s2 = store.clone();
        std::thread::spawn(move || {
            s2.put(9, "m", "p", FlowStep::Implementation, synth_cp());
        })
        .join()
        .unwrap();
        assert_eq!(store.len(), 1);
    }
}
