//! Standard multi-objective benchmark problems (integer-grid adaptations
//! of the ZDT suite), used by the tests and benches to validate optimizer
//! quality independent of the EDA stack.
//!
//! Decision variables are integers on `[0, RESOLUTION]`, mapped to the
//! canonical `[0, 1]` reals — matching how Dovado's index spaces discretize
//! continuous trade-offs.

use crate::problem::{IntVar, Objective, Problem};

/// Grid resolution per variable.
pub const RESOLUTION: i64 = 1000;

fn unit(v: i64) -> f64 {
    (v.clamp(0, RESOLUTION)) as f64 / RESOLUTION as f64
}

/// ZDT1: convex front `f2 = 1 − √f1` at `g = 1` (all tail variables 0).
pub struct Zdt1 {
    vars: Vec<IntVar>,
    objs: Vec<Objective>,
    /// Evaluation counter.
    pub evaluations: u64,
}

impl Zdt1 {
    /// Creates the problem with `n` decision variables (n ≥ 2).
    pub fn new(n: usize) -> Zdt1 {
        assert!(n >= 2);
        Zdt1 {
            vars: (0..n)
                .map(|i| IntVar::new(format!("x{i}"), 0, RESOLUTION))
                .collect(),
            objs: vec![Objective::minimize("f1"), Objective::minimize("f2")],
            evaluations: 0,
        }
    }

    /// The true front: `f2 = 1 − √f1`, `f1 ∈ [0, 1]`.
    pub fn true_front(points: usize) -> Vec<Vec<f64>> {
        (0..points)
            .map(|i| {
                let f1 = i as f64 / (points - 1).max(1) as f64;
                vec![f1, 1.0 - f1.sqrt()]
            })
            .collect()
    }
}

impl Problem for Zdt1 {
    fn variables(&self) -> &[IntVar] {
        &self.vars
    }

    fn objectives(&self) -> &[Objective] {
        &self.objs
    }

    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64> {
        self.evaluations += 1;
        let f1 = unit(genome[0]);
        let tail: f64 = genome[1..].iter().map(|&v| unit(v)).sum();
        let g = 1.0 + 9.0 * tail / (genome.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        vec![f1, f2]
    }
}

/// ZDT2: non-convex front `f2 = 1 − f1²`.
pub struct Zdt2 {
    vars: Vec<IntVar>,
    objs: Vec<Objective>,
}

impl Zdt2 {
    /// Creates the problem with `n` decision variables (n ≥ 2).
    pub fn new(n: usize) -> Zdt2 {
        assert!(n >= 2);
        Zdt2 {
            vars: (0..n)
                .map(|i| IntVar::new(format!("x{i}"), 0, RESOLUTION))
                .collect(),
            objs: vec![Objective::minimize("f1"), Objective::minimize("f2")],
        }
    }
}

impl Problem for Zdt2 {
    fn variables(&self) -> &[IntVar] {
        &self.vars
    }

    fn objectives(&self) -> &[Objective] {
        &self.objs
    }

    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64> {
        let f1 = unit(genome[0]);
        let tail: f64 = genome[1..].iter().map(|&v| unit(v)).sum();
        let g = 1.0 + 9.0 * tail / (genome.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g) * (f1 / g));
        vec![f1, f2]
    }
}

/// ZDT3: disconnected front (sine term) — stresses diversity preservation.
pub struct Zdt3 {
    vars: Vec<IntVar>,
    objs: Vec<Objective>,
}

impl Zdt3 {
    /// Creates the problem with `n` decision variables (n ≥ 2).
    pub fn new(n: usize) -> Zdt3 {
        assert!(n >= 2);
        Zdt3 {
            vars: (0..n)
                .map(|i| IntVar::new(format!("x{i}"), 0, RESOLUTION))
                .collect(),
            objs: vec![Objective::minimize("f1"), Objective::minimize("f2")],
        }
    }
}

impl Problem for Zdt3 {
    fn variables(&self) -> &[IntVar] {
        &self.vars
    }

    fn objectives(&self) -> &[Objective] {
        &self.objs
    }

    fn evaluate(&mut self, genome: &[i64]) -> Vec<f64> {
        let f1 = unit(genome[0]);
        let tail: f64 = genome[1..].iter().map(|&v| unit(v)).sum();
        let g = 1.0 + 9.0 * tail / (genome.len() - 1) as f64;
        let h = 1.0 - (f1 / g).sqrt() - (f1 / g) * (10.0 * std::f64::consts::PI * f1).sin();
        vec![f1, g * h]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{run, WsgaExplorer};
    use crate::metrics::{hypervolume, igd};
    use crate::nsga2::{Nsga2Config, Nsga2Explorer};
    use crate::termination::Termination;

    fn front_of(result: &crate::nsga2::OptResult) -> Vec<Vec<f64>> {
        result.pareto.iter().map(|i| i.min_objs.clone()).collect()
    }

    #[test]
    fn zdt1_optimum_at_zero_tail() {
        let mut p = Zdt1::new(5);
        // x = (250, 0, 0, 0, 0) → f1 = 0.25, g = 1, f2 = 0.5.
        let f = p.evaluate(&[250, 0, 0, 0, 0]);
        assert!((f[0] - 0.25).abs() < 1e-9);
        assert!((f[1] - 0.5).abs() < 1e-9);
        // Nonzero tail inflates f2.
        let worse = p.evaluate(&[250, 500, 0, 0, 0]);
        assert!(worse[1] > f[1]);
    }

    #[test]
    fn nsga2_approaches_zdt1_front() {
        let mut p = Zdt1::new(6);
        let cfg = Nsga2Config {
            pop_size: 48,
            seed: 2,
            ..Default::default()
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &cfg)),
            &mut p,
            &Termination::Generations(120),
        );
        let front = front_of(&r);
        let d = igd(&front, &Zdt1::true_front(50));
        assert!(d < 0.15, "IGD {d} too far from the true front");
        // Hypervolume against (1.1, 1.1): the true front scores ~0.87.
        let hv = hypervolume(&front, &[1.1, 1.1]);
        assert!(hv > 0.55, "hypervolume {hv}");
    }

    #[test]
    fn nsga2_handles_nonconvex_zdt2() {
        let mut p = Zdt2::new(6);
        let cfg = Nsga2Config {
            pop_size: 48,
            seed: 3,
            ..Default::default()
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &cfg)),
            &mut p,
            &Termination::Generations(120),
        );
        // The non-convex front defeats the weighted-sum GA (it collapses to
        // the extremes) but not NSGA-II: interior points must survive.
        let interior = r
            .pareto
            .iter()
            .filter(|i| i.min_objs[0] > 0.2 && i.min_objs[0] < 0.8)
            .count();
        assert!(interior >= 3, "only {interior} interior points");
    }

    #[test]
    fn weighted_sum_collapses_on_zdt2() {
        // The classic failure NSGA-II exists to fix: equal-weight
        // scalarization cannot hold interior points of a non-convex front.
        let mut p = Zdt2::new(6);
        let e = WsgaExplorer::start(&mut p, vec![0.5, 0.5], 48, 3);
        let r = run(Box::new(e), &mut p, &Termination::Generations(120));
        // Best-by-scalar individuals concentrate at the extremes.
        let best = r
            .population
            .iter()
            .min_by(|a, b| {
                let sa: f64 = a.min_objs.iter().sum();
                let sb: f64 = b.min_objs.iter().sum();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        let f1 = best.min_objs[0];
        assert!(
            !(0.1..=0.9).contains(&f1),
            "weighted sum unexpectedly held an interior point (f1 = {f1})"
        );
    }

    #[test]
    fn zdt3_front_is_disconnected() {
        let mut p = Zdt3::new(6);
        let cfg = Nsga2Config {
            pop_size: 48,
            seed: 4,
            ..Default::default()
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &cfg)),
            &mut p,
            &Termination::Generations(120),
        );
        // f2 on ZDT3's front dips negative in some segments.
        assert!(r.pareto.iter().any(|i| i.min_objs[1] < 0.0));
    }

    #[test]
    fn evaluation_counter_tracks() {
        let mut p = Zdt1::new(3);
        let cfg = Nsga2Config {
            pop_size: 10,
            seed: 1,
            ..Default::default()
        };
        let r = run(
            Box::new(Nsga2Explorer::start(&mut p, &cfg)),
            &mut p,
            &Termination::Generations(5),
        );
        assert_eq!(p.evaluations, r.evaluations);
    }
}
