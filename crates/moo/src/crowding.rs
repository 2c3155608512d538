//! Crowding-distance assignment (Deb et al., NSGA-II).
//!
//! Preserves diversity along each front: boundary solutions get infinite
//! distance, interior solutions the sum of normalized neighbour gaps per
//! objective.

use crate::individual::{cmp_nan_last, Individual};

/// Computes crowding distances for the individuals at `front` indices and
/// writes them into `pop[i].crowding`.
pub fn assign_crowding(pop: &mut [Individual], front: &[usize]) {
    let n = front.len();
    if n == 0 {
        return;
    }
    for &i in front {
        pop[i].crowding = 0.0;
    }
    if n <= 2 {
        for &i in front {
            pop[i].crowding = f64::INFINITY;
        }
        return;
    }
    let n_obj = pop[front[0]].min_objs.len();
    let mut order: Vec<usize> = front.to_vec();
    for m in 0..n_obj {
        order.sort_by(|&a, &b| cmp_nan_last(pop[a].min_objs[m], pop[b].min_objs[m]));
        let lo = pop[order[0]].min_objs[m];
        let hi = pop[order[n - 1]].min_objs[m];
        pop[order[0]].crowding = f64::INFINITY;
        pop[order[n - 1]].crowding = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for w in 1..(n - 1) {
            let prev = pop[order[w - 1]].min_objs[m];
            let next = pop[order[w + 1]].min_objs[m];
            let i = order[w];
            if pop[i].crowding.is_finite() {
                pop[i].crowding += (next - prev) / span;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ind(objs: &[f64]) -> Individual {
        Individual::new(vec![], objs.to_vec(), objs.to_vec())
    }

    #[test]
    fn nan_and_infinite_objectives_never_panic() {
        // A comparator that calls NaN "equal" to everything is not an
        // order, and the standard sorts may panic on one; fronts of
        // every size between 3 and 80 make that near certain.
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        for n in 3..80usize {
            let mut pop: Vec<Individual> = (0..n)
                .map(|i| {
                    let a = if i % 3 == 0 {
                        special[i % special.len()]
                    } else {
                        ((i * 37) % 11) as f64
                    };
                    ind(&[a, ((i * 13) % 7) as f64])
                })
                .collect();
            let front: Vec<usize> = (0..n).collect();
            assign_crowding(&mut pop, &front);
            // The second objective holds no NaN: its extremes stay
            // boundary solutions.
            assert!(pop.iter().filter(|i| i.crowding == f64::INFINITY).count() >= 2);
        }
    }

    #[test]
    fn boundaries_infinite() {
        let mut pop = vec![
            ind(&[1.0, 4.0]),
            ind(&[2.0, 3.0]),
            ind(&[3.0, 2.0]),
            ind(&[4.0, 1.0]),
        ];
        let front: Vec<usize> = (0..4).collect();
        assign_crowding(&mut pop, &front);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[3].crowding.is_infinite());
        assert!(pop[1].crowding.is_finite());
        assert!(pop[2].crowding.is_finite());
    }

    #[test]
    fn evenly_spaced_points_equal_distance() {
        let mut pop = vec![
            ind(&[0.0, 4.0]),
            ind(&[1.0, 3.0]),
            ind(&[2.0, 2.0]),
            ind(&[3.0, 1.0]),
            ind(&[4.0, 0.0]),
        ];
        let front: Vec<usize> = (0..5).collect();
        assign_crowding(&mut pop, &front);
        assert!((pop[1].crowding - pop[2].crowding).abs() < 1e-12);
        assert!((pop[2].crowding - pop[3].crowding).abs() < 1e-12);
    }

    #[test]
    fn crowded_point_scores_lower() {
        // Points: two clustered near the middle, one isolated.
        let mut pop = vec![
            ind(&[0.0, 10.0]),
            ind(&[4.9, 5.1]),
            ind(&[5.0, 5.0]),
            ind(&[5.1, 4.9]),
            ind(&[10.0, 0.0]),
        ];
        let front: Vec<usize> = (0..5).collect();
        assign_crowding(&mut pop, &front);
        // Middle of the cluster is the most crowded interior point.
        assert!(pop[2].crowding < pop[1].crowding);
        assert!(pop[2].crowding < pop[3].crowding);
    }

    #[test]
    fn small_fronts_all_infinite() {
        let mut pop = vec![ind(&[1.0]), ind(&[2.0])];
        assign_crowding(&mut pop, &[0, 1]);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[1].crowding.is_infinite());
        let mut single = vec![ind(&[1.0])];
        assign_crowding(&mut single, &[0]);
        assert!(single[0].crowding.is_infinite());
    }

    #[test]
    fn degenerate_objective_span_handled() {
        let mut pop = vec![ind(&[1.0, 1.0]), ind(&[1.0, 2.0]), ind(&[1.0, 3.0])];
        let front: Vec<usize> = (0..3).collect();
        assign_crowding(&mut pop, &front);
        // First objective has zero span; must not produce NaN.
        assert!(!pop[1].crowding.is_nan());
    }

    #[test]
    fn empty_front_noop() {
        let mut pop: Vec<Individual> = vec![];
        assign_crowding(&mut pop, &[]);
    }
}
