//! Individuals: genome + objective values + NSGA-II bookkeeping.

use std::cmp::Ordering;
use std::fmt;

/// The one float order every sort of objectives, fitness values and
/// crowding distances uses: `partial_cmp` wherever that is defined, and
/// NaN after every number (NaNs equal among themselves). Unlike
/// `partial_cmp(..).unwrap_or(Equal)` it is a total order, which Rust's
/// sorts require (they may panic otherwise), so a NaN read from a journal
/// or a store cannot abort a run. `-0.0` and `0.0` stay equal, so on
/// NaN-free input every sort keeps the order it had under `partial_cmp`.
pub fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(order) => order,
        None => a.is_nan().cmp(&b.is_nan()),
    }
}

/// One evaluated solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Decision-variable values.
    pub genome: Vec<i64>,
    /// Raw objective values as returned by the problem.
    pub raw: Vec<f64>,
    /// Objective values in minimization space (sense-adjusted).
    pub min_objs: Vec<f64>,
    /// Non-domination rank (0 = first front). Set by sorting.
    pub rank: usize,
    /// Crowding distance within its front. Set by the crowding pass.
    pub crowding: f64,
}

impl Individual {
    /// Creates an evaluated individual (rank/crowding unset).
    pub fn new(genome: Vec<i64>, raw: Vec<f64>, min_objs: Vec<f64>) -> Individual {
        Individual {
            genome,
            raw,
            min_objs,
            rank: usize::MAX,
            crowding: 0.0,
        }
    }

    /// Pareto dominance in minimization space: true when `self` is no worse
    /// everywhere and strictly better somewhere.
    pub fn dominates(&self, other: &Individual) -> bool {
        debug_assert_eq!(self.min_objs.len(), other.min_objs.len());
        let mut strictly_better = false;
        for (a, b) in self.min_objs.iter().zip(&other.min_objs) {
            if a > b {
                return false;
            }
            if a < b {
                strictly_better = true;
            }
        }
        strictly_better
    }

    /// The crowded-comparison operator (`≺_n` of Deb et al.): lower rank
    /// wins; ties broken by larger crowding distance.
    pub fn crowded_less(&self, other: &Individual) -> bool {
        self.rank < other.rank || (self.rank == other.rank && self.crowding > other.crowding)
    }
}

impl fmt::Display for Individual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} -> {:?}", self.genome, self.raw)
    }
}

/// Filters the non-dominated subset (indices) of a set of individuals.
pub fn non_dominated_indices(pop: &[Individual]) -> Vec<usize> {
    let mut out = Vec::new();
    'outer: for (i, a) in pop.iter().enumerate() {
        for (j, b) in pop.iter().enumerate() {
            if i != j && (b.dominates(a) || (b.min_objs == a.min_objs && j < i)) {
                // Dominated, or an identical earlier point (dedup ties).
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both zeros, both infinities, NaNs of both signs and ordinary
    /// numbers with ties.
    const VALUES: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        -1.5,
        1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
    ];

    #[test]
    fn cmp_nan_last_is_a_total_order_that_extends_partial_cmp() {
        for a in VALUES {
            for b in VALUES {
                let ab = cmp_nan_last(a, b);
                assert_eq!(ab, cmp_nan_last(b, a).reverse(), "{a} vs {b}");
                match a.partial_cmp(&b) {
                    Some(order) => assert_eq!(ab, order, "{a} vs {b}"),
                    None if a.is_nan() && b.is_nan() => assert_eq!(ab, Ordering::Equal),
                    None if a.is_nan() => assert_eq!(ab, Ordering::Greater, "{a} vs {b}"),
                    None => assert_eq!(ab, Ordering::Less, "{a} vs {b}"),
                }
                for c in VALUES {
                    if ab.is_le() && cmp_nan_last(b, c).is_le() {
                        assert!(cmp_nan_last(a, c).is_le(), "{a} <= {b} <= {c}");
                    }
                }
            }
        }
        assert_eq!(cmp_nan_last(-0.0, 0.0), Ordering::Equal);
    }

    #[test]
    fn sorting_with_nan_puts_every_nan_last() {
        let mut v: Vec<f64> = (0..200)
            .map(|i| VALUES[(i * 7 + i / 10) % VALUES.len()] + (i % 3) as f64)
            .collect();
        v.sort_by(|a, b| cmp_nan_last(*a, *b));
        let first_nan = v.iter().position(|x| x.is_nan()).expect("NaNs present");
        assert!(v[first_nan..].iter().all(|x| x.is_nan()));
        assert!(v[..first_nan].windows(2).all(|w| w[0] <= w[1]));
    }

    fn ind(objs: &[f64]) -> Individual {
        Individual::new(vec![0], objs.to_vec(), objs.to_vec())
    }

    #[test]
    fn dominance_basic() {
        let a = ind(&[1.0, 1.0]);
        let b = ind(&[2.0, 2.0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = ind(&[1.0, 1.0]);
        let b = ind(&[1.0, 1.0]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn trade_offs_do_not_dominate() {
        let a = ind(&[1.0, 3.0]);
        let b = ind(&[2.0, 2.0]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn weak_dominance_counts() {
        let a = ind(&[1.0, 2.0]);
        let b = ind(&[1.0, 3.0]);
        assert!(a.dominates(&b));
    }

    #[test]
    fn crowded_comparison() {
        let mut a = ind(&[1.0]);
        let mut b = ind(&[1.0]);
        a.rank = 0;
        b.rank = 1;
        assert!(a.crowded_less(&b));
        b.rank = 0;
        a.crowding = 2.0;
        b.crowding = 1.0;
        assert!(a.crowded_less(&b));
        assert!(!b.crowded_less(&a));
    }

    #[test]
    fn non_dominated_filter() {
        let pop = vec![
            ind(&[1.0, 5.0]),
            ind(&[2.0, 2.0]),
            ind(&[5.0, 1.0]),
            ind(&[4.0, 4.0]), // dominated by [2,2]
            ind(&[1.0, 5.0]), // duplicate of #0
        ];
        assert_eq!(non_dominated_indices(&pop), vec![0, 1, 2]);
    }

    #[test]
    fn single_point_is_nondominated() {
        let pop = vec![ind(&[3.0, 3.0])];
        assert_eq!(non_dominated_indices(&pop), vec![0]);
    }
}
