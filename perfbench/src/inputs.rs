//! Generated inputs: case-study source trees written out of
//! `dovado::casestudies`, so the program under test only ever sees files
//! the harness produced, plus the workload sizes and seed derivation.

use dovado::casestudies::CaseStudy;
use dovado::Domain;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// NSGA-II population of every explore workload.
pub const POP: usize = 32;
/// NSGA-II generations of every explore workload.
pub const GENERATIONS: u32 = 60;
/// Surrogate pretrain size M of `explore_surrogate`.
pub const SURROGATE_M: usize = 200;
/// Distinct exploration seeds per run. Each run cycles through these, so
/// one unusually cheap or costly trajectory does not decide a run.
pub const SEEDS_PER_RUN: usize = 5;
/// Thread and connection budget: the reference host has two cores.
pub const THREADS: usize = 2;

/// The exploration seeds of a run with benchmark seed `seed`.
pub fn explore_seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_RUN as u64)
        .map(|k| splitmix(seed.wrapping_mul(0x9E37_79B9).wrapping_add(k)) % 1_000_000)
        .collect()
}

/// One step of SplitMix64: a fixed, well-mixed map from seeds to seeds.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A case study written to disk as a project tree.
pub struct Project {
    /// The tree's directory (what `--project` takes).
    pub dir: PathBuf,
    /// The case study it came from.
    pub study: CaseStudy,
}

impl Project {
    /// Writes `study`'s sources under `dir`.
    pub fn write(study: CaseStudy, dir: &Path) -> io::Result<Project> {
        fs::create_dir_all(dir)?;
        for src in &study.sources {
            let path = dir.join(&src.name);
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(path, &src.content)?;
        }
        Ok(Project {
            dir: dir.to_path_buf(),
            study,
        })
    }

    /// The `--param NAME=SPEC` values that reproduce the case study's space.
    pub fn param_specs(&self) -> Vec<(String, String)> {
        self.study
            .space
            .params()
            .iter()
            .map(|p| (p.name.clone(), domain_spec(&p.domain)))
            .collect()
    }
}

/// Renders a domain in the CLI's `--param` grammar.
pub fn domain_spec(d: &Domain) -> String {
    match d {
        Domain::Range { lo, hi, step } if *step == 1 => format!("{lo}:{hi}"),
        Domain::Range { lo, hi, step } => format!("{lo}:{hi}:{step}"),
        Domain::PowerOfTwo { min_exp, max_exp } => format!("pow2:{min_exp}:{max_exp}"),
        Domain::Explicit(values) => values
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        Domain::Bool => "bool".into(),
    }
}
