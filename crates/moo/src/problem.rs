//! Problem definition for integer multi-objective optimization.
//!
//! The paper formulates DSE "as a multi-objective integer optimization
//! problem since … only integer-valued parameters are synthesizable both in
//! VHDL and V/SV. Besides, boolean parameters are treated as integer with
//! 0 and 1 values" (§III-B1). A [`Problem`] exposes integer decision
//! variables with inclusive bounds and a vector of objectives, each to be
//! minimized or maximized.

use std::fmt;

/// One integer decision variable with inclusive bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntVar {
    /// Variable name (parameter name in the DSE use case).
    pub name: String,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl IntVar {
    /// Creates a variable, normalizing inverted bounds.
    pub fn new(name: impl Into<String>, lo: i64, hi: i64) -> IntVar {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        IntVar {
            name: name.into(),
            lo,
            hi,
        }
    }

    /// Number of admissible values.
    pub fn cardinality(&self) -> u64 {
        (self.hi - self.lo) as u64 + 1
    }

    /// Clamps a value into the bounds.
    pub fn clamp(&self, v: i64) -> i64 {
        v.clamp(self.lo, self.hi)
    }

    /// Whether `v` is within bounds.
    pub fn contains(&self, v: i64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

impl fmt::Display for IntVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ∈ [{}, {}]", self.name, self.lo, self.hi)
    }
}

/// Whether an objective is minimized or maximized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Smaller is better (area metrics).
    Minimize,
    /// Larger is better (frequency).
    Maximize,
}

impl Sense {
    /// Sign applied to convert a raw value into minimization space.
    pub fn sign(&self) -> f64 {
        match self {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        }
    }
}

/// A named objective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Objective {
    /// Objective name (e.g. `LUT`, `Fmax`).
    pub name: String,
    /// Optimization direction.
    pub sense: Sense,
}

impl Objective {
    /// A minimized objective.
    pub fn minimize(name: impl Into<String>) -> Objective {
        Objective {
            name: name.into(),
            sense: Sense::Minimize,
        }
    }

    /// A maximized objective.
    pub fn maximize(name: impl Into<String>) -> Objective {
        Objective {
            name: name.into(),
            sense: Sense::Maximize,
        }
    }
}

/// A multi-objective integer problem.
///
/// `evaluate` returns **raw** objective values in the order of
/// [`Problem::objectives`]; the engines convert to minimization space
/// internally using each objective's [`Sense`].
pub trait Problem {
    /// The decision variables.
    fn variables(&self) -> &[IntVar];

    /// The objectives.
    fn objectives(&self) -> &[Objective];

    /// Evaluates one genome (one value per variable, within bounds).
    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64>;

    /// Evaluates a batch; the default maps [`Problem::evaluate`], but
    /// implementations backed by expensive evaluators may parallelize.
    ///
    /// Contract for implementations that do: the batch is a *generation* —
    /// `out[i]` must depend only on `genomes[i]` and on problem state as it
    /// stood when the batch started, never on other genomes' results from
    /// the same batch. Engines rely on this staged (decide-against-snapshot,
    /// then evaluate, then fold state serially) semantics for seeded
    /// determinism: with it, a parallel implementation returns bitwise the
    /// same vectors as a serial one. Duplicate genomes within the batch must
    /// yield identical rows, so implementations are free to dispatch each
    /// distinct genome once and fan results back out.
    fn evaluate_batch(&mut self, genomes: &[Vec<i64>]) -> Vec<Vec<f64>> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }

    /// External cost spent so far (e.g. simulated tool seconds). Drives
    /// soft-deadline termination; defaults to zero for analytic problems.
    fn external_cost(&self) -> f64 {
        0.0
    }

    /// Total design-space volume (product of cardinalities), saturating.
    fn volume(&self) -> u64 {
        self.variables()
            .iter()
            .fold(1u64, |acc, v| acc.saturating_mul(v.cardinality()))
    }
}

/// Converts raw objective values into minimization space.
pub fn to_min_space(objectives: &[Objective], raw: &[f64]) -> Vec<f64> {
    objectives
        .iter()
        .zip(raw)
        .map(|(o, v)| o.sense.sign() * v)
        .collect()
}

/// A simple closed-form test problem used across the crate's tests: the
/// integer variant of the classic SCH problem (f1 = x², f2 = (x−2)²).
#[derive(Debug, Clone)]
pub struct Schaffer {
    vars: Vec<IntVar>,
    objs: Vec<Objective>,
    /// Number of `evaluate` calls, for budget tests.
    pub evaluations: u64,
}

impl Schaffer {
    /// Creates the problem with x ∈ [-1000, 1000].
    pub fn new() -> Schaffer {
        Schaffer {
            vars: vec![IntVar::new("x", -1000, 1000)],
            objs: vec![Objective::minimize("f1"), Objective::minimize("f2")],
            evaluations: 0,
        }
    }
}

impl Default for Schaffer {
    fn default() -> Self {
        Self::new()
    }
}

impl Problem for Schaffer {
    fn variables(&self) -> &[IntVar] {
        &self.vars
    }

    fn objectives(&self) -> &[Objective] {
        &self.objs
    }

    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64> {
        self.evaluations += 1;
        let x = genome[0] as f64;
        vec![x * x, (x - 2.0) * (x - 2.0)]
    }
}

/// Schaffer over x ∈ [-60, 60] with poisoned objectives: a NaN first
/// objective at every multiple of 3, and (+∞, −∞) at the other multiples
/// of 7. What a hostile journal or store can hand an explorer.
#[cfg(test)]
pub(crate) struct Poisoned {
    inner: Schaffer,
    vars: Vec<IntVar>,
}

#[cfg(test)]
impl Poisoned {
    pub(crate) fn new() -> Poisoned {
        Poisoned {
            inner: Schaffer::new(),
            vars: vec![IntVar::new("x", -60, 60)],
        }
    }
}

#[cfg(test)]
impl Problem for Poisoned {
    fn variables(&self) -> &[IntVar] {
        &self.vars
    }
    fn objectives(&self) -> &[Objective] {
        self.inner.objectives()
    }
    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64> {
        let mut objs = self.inner.evaluate(genome);
        if genome[0] % 3 == 0 {
            objs[0] = f64::NAN;
        } else if genome[0] % 7 == 0 {
            objs = vec![f64::INFINITY, f64::NEG_INFINITY];
        }
        objs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intvar_normalizes_bounds() {
        let v = IntVar::new("a", 10, 2);
        assert_eq!((v.lo, v.hi), (2, 10));
        assert_eq!(v.cardinality(), 9);
    }

    #[test]
    fn intvar_clamp_and_contains() {
        let v = IntVar::new("a", 0, 7);
        assert_eq!(v.clamp(-3), 0);
        assert_eq!(v.clamp(100), 7);
        assert!(v.contains(0) && v.contains(7));
        assert!(!v.contains(8));
    }

    #[test]
    fn sense_signs() {
        assert_eq!(Sense::Minimize.sign(), 1.0);
        assert_eq!(Sense::Maximize.sign(), -1.0);
    }

    #[test]
    fn min_space_conversion() {
        let objs = vec![Objective::minimize("area"), Objective::maximize("fmax")];
        let m = to_min_space(&objs, &[100.0, 250.0]);
        assert_eq!(m, vec![100.0, -250.0]);
    }

    #[test]
    fn schaffer_shape() {
        let mut p = Schaffer::new();
        assert_eq!(p.variables().len(), 1);
        assert_eq!(p.objectives().len(), 2);
        assert_eq!(p.evaluate(&[0]), vec![0.0, 4.0]);
        assert_eq!(p.evaluate(&[2]), vec![4.0, 0.0]);
        assert_eq!(p.evaluations, 2);
    }

    #[test]
    fn volume_saturates() {
        struct Huge(Vec<IntVar>, Vec<Objective>);
        impl Problem for Huge {
            fn variables(&self) -> &[IntVar] {
                &self.0
            }
            fn objectives(&self) -> &[Objective] {
                &self.1
            }
            fn evaluate(&mut self, _: &[i64]) -> Vec<f64> {
                vec![]
            }
        }
        let h = Huge(
            vec![
                IntVar::new("a", i64::MIN / 4, i64::MAX / 4),
                IntVar::new("b", i64::MIN / 4, i64::MAX / 4),
            ],
            vec![],
        );
        assert_eq!(h.volume(), u64::MAX);
    }

    #[test]
    fn default_batch_maps_evaluate() {
        let mut p = Schaffer::new();
        let out = p.evaluate_batch(&[vec![0], vec![2]]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], vec![4.0, 0.0]);
    }
}
