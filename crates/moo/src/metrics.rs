//! Front-quality metrics: hypervolume, inverted generational distance, and
//! Deb's spread Δ. Used by the ablation benches to compare explorers.

use crate::individual::{cmp_nan_last, Individual};

/// Keeps only points strictly better than `reference` in every coordinate
/// and mutually non-dominated (minimization space). Points of the wrong
/// dimensionality or with non-finite coordinates are dropped rather than
/// allowed to panic the recursion.
fn clean_front(points: &[Vec<f64>], reference: &[f64]) -> Vec<Vec<f64>> {
    let inside: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| {
            p.len() == reference.len()
                && p.iter().all(|a| a.is_finite())
                && p.iter().zip(reference).all(|(a, r)| a < r)
        })
        .cloned()
        .collect();
    let mut keep = Vec::new();
    'outer: for (i, p) in inside.iter().enumerate() {
        for (j, q) in inside.iter().enumerate() {
            if i == j {
                continue;
            }
            let no_worse = q.iter().zip(p).all(|(a, b)| a <= b);
            let better = q.iter().zip(p).any(|(a, b)| a < b);
            if (no_worse && better) || (q == p && j < i) {
                continue 'outer;
            }
        }
        keep.push(p.clone());
    }
    keep
}

/// Hypervolume (minimization space) dominated by `points` against
/// `reference`. Exact recursive slicing — fine for the front sizes DSE
/// produces (tens of points, ≤ ~5 objectives).
///
/// Degenerate inputs never panic: an empty or non-finite reference, an
/// empty front, dimension-mismatched points, or points with non-finite
/// coordinates all contribute zero volume. The portfolio selector's
/// feature extractor relies on this when a race leg produces no front.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    if reference.is_empty() || reference.iter().any(|r| !r.is_finite()) {
        return 0.0;
    }
    let front = clean_front(points, reference);
    hv_recurse(&front, reference)
}

fn hv_recurse(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let d = reference.len();
    if d == 1 {
        let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return (reference[0] - best).max(0.0);
    }
    // Sweep the last dimension ascending; each slab's cross-section is the
    // (d-1)-dimensional hypervolume of the points at or below the slab.
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| cmp_nan_last(a[d - 1], b[d - 1]));
    let mut total = 0.0;
    for i in 0..pts.len() {
        let z_lo = pts[i][d - 1];
        let z_hi = if i + 1 < pts.len() {
            pts[i + 1][d - 1]
        } else {
            reference[d - 1]
        };
        let thickness = (z_hi - z_lo).max(0.0);
        if thickness == 0.0 {
            continue;
        }
        let slice: Vec<Vec<f64>> = pts[..=i].iter().map(|p| p[..d - 1].to_vec()).collect();
        let cleaned = clean_front(&slice, &reference[..d - 1]);
        total += thickness * hv_recurse(&cleaned, &reference[..d - 1]);
    }
    total
}

/// Hypervolume of a set of individuals (their minimization-space values).
pub fn hypervolume_of(front: &[Individual], reference: &[f64]) -> f64 {
    let pts: Vec<Vec<f64>> = front.iter().map(|i| i.min_objs.clone()).collect();
    hypervolume(&pts, reference)
}

/// Inverted generational distance: mean distance from each reference-set
/// point to its nearest front point. Lower is better.
pub fn igd(front: &[Vec<f64>], reference_set: &[Vec<f64>]) -> f64 {
    if reference_set.is_empty() {
        return 0.0;
    }
    if front.is_empty() {
        return f64::INFINITY;
    }
    let total: f64 = reference_set
        .iter()
        .map(|r| {
            front
                .iter()
                .map(|p| {
                    p.iter()
                        .zip(r)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / reference_set.len() as f64
}

/// Deb's spread metric Δ over a front (sorted internally by the first
/// objective). 0 = perfectly even spacing. Needs ≥ 3 points; returns
/// `None` otherwise.
pub fn spread(front: &[Vec<f64>]) -> Option<f64> {
    if front.len() < 3 {
        return None;
    }
    let mut pts = front.to_vec();
    pts.sort_by(|a, b| cmp_nan_last(a[0], b[0]));
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let gaps: Vec<f64> = pts.windows(2).map(|w| dist(&w[0], &w[1])).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    if mean == 0.0 {
        return Some(0.0);
    }
    let dev: f64 = gaps.iter().map(|g| (g - mean).abs()).sum();
    Some(dev / (gaps.len() as f64 * mean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_and_infinite_points_never_panic() {
        let mut pts: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let x = f64::from(i % 9);
                vec![x, 9.0 - x, f64::from(i % 4)]
            })
            .collect();
        for (i, p) in pts.iter_mut().enumerate() {
            match i % 5 {
                0 => p[2] = f64::NAN,
                1 => p[0] = f64::NAN,
                2 => p[1] = f64::INFINITY,
                _ => {}
            }
        }
        let clean: Vec<Vec<f64>> = pts
            .iter()
            .filter(|p| p.iter().all(|v| v.is_finite()))
            .cloned()
            .collect();
        let reference = [10.0, 10.0, 10.0];
        // Non-finite points contribute nothing.
        assert_eq!(
            hypervolume(&pts, &reference).to_bits(),
            hypervolume(&clean, &reference).to_bits()
        );
        // `spread` sorts NaN first objectives last; the gap to them is NaN.
        assert!(spread(&pts).is_some());
    }

    #[test]
    fn hv_single_point_2d() {
        let pts = vec![vec![1.0, 1.0]];
        assert!((hypervolume(&pts, &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv_two_tradeoff_points_2d() {
        // [1,2] and [2,1] vs ref [3,3]: union area = 2*1 + 1*2 - 1*1 = wait,
        // compute: point (1,2) covers [1,3]x[2,3] = 2; point (2,1) covers
        // [2,3]x[1,3] = 2; overlap [2,3]x[2,3] = 1 → total 3.
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        assert!((hypervolume(&pts, &[3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hv_dominated_points_ignored() {
        let pts = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        assert!((hypervolume(&pts, &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv_points_outside_reference_ignored() {
        let pts = vec![vec![4.0, 1.0], vec![1.0, 1.0]];
        assert!((hypervolume(&pts, &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv_empty_is_zero() {
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn hv_empty_reference_is_zero() {
        // Zero-dimensional reference used to underflow the recursion.
        assert_eq!(hypervolume(&[vec![1.0]], &[]), 0.0);
        assert_eq!(hypervolume(&[], &[]), 0.0);
    }

    #[test]
    fn hv_non_finite_reference_is_zero() {
        assert_eq!(hypervolume(&[vec![1.0]], &[f64::NAN]), 0.0);
        assert_eq!(hypervolume(&[vec![1.0, 1.0]], &[3.0, f64::INFINITY]), 0.0);
    }

    #[test]
    fn hv_dimension_mismatched_points_are_dropped() {
        // A 1-d point against a 2-d reference used to pass the zip-based
        // filter and then index out of bounds inside the recursion.
        let pts = vec![vec![1.0], vec![1.0, 1.0], vec![1.0, 1.0, 1.0]];
        assert!((hypervolume(&pts, &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv_non_finite_points_are_dropped() {
        let pts = vec![vec![f64::NAN, 1.0], vec![1.0, f64::NEG_INFINITY]];
        assert_eq!(hypervolume(&pts, &[3.0, 3.0]), 0.0);
        let mixed = vec![vec![f64::NAN, 1.0], vec![1.0, 1.0]];
        assert!((hypervolume(&mixed, &[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv_degenerate_front_on_reference_is_zero() {
        // Points sitting exactly on (or outside) the reference dominate
        // nothing.
        let pts = vec![vec![3.0, 3.0], vec![3.0, 1.0], vec![5.0, 5.0]];
        assert_eq!(hypervolume(&pts, &[3.0, 3.0]), 0.0);
    }

    #[test]
    fn hv_single_objective() {
        assert!((hypervolume(&[vec![1.0]], &[3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hv_3d_box() {
        let pts = vec![vec![0.0, 0.0, 0.0]];
        assert!((hypervolume(&pts, &[2.0, 3.0, 4.0]) - 24.0).abs() < 1e-12);
    }

    #[test]
    fn hv_3d_union() {
        // Two boxes: (0,0,1) → 2*2*1=4 … vs ref (2,2,2):
        // box A from (0,0,1): 2*2*1 = 4; box B from (1,1,0): 1*1*2 = 2;
        // overlap: x∈[1,2], y∈[1,2], z∈[1,2] = 1 → union = 5.
        let pts = vec![vec![0.0, 0.0, 1.0], vec![1.0, 1.0, 0.0]];
        assert!(
            (hypervolume(&pts, &[2.0, 2.0, 2.0]) - 5.0).abs() < 1e-12,
            "{}",
            hypervolume(&pts, &[2.0, 2.0, 2.0])
        );
    }

    #[test]
    fn hv_monotone_in_points() {
        let a = vec![vec![2.0, 2.0]];
        let mut b = a.clone();
        b.push(vec![1.0, 2.5]);
        let r = [4.0, 4.0];
        assert!(hypervolume(&b, &r) > hypervolume(&a, &r));
    }

    #[test]
    fn igd_zero_when_front_covers_reference() {
        let f = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert_eq!(igd(&f, &f), 0.0);
    }

    #[test]
    fn igd_grows_with_distance() {
        let reference = vec![vec![0.0, 0.0]];
        let near = vec![vec![0.1, 0.0]];
        let far = vec![vec![5.0, 0.0]];
        assert!(igd(&near, &reference) < igd(&far, &reference));
        assert_eq!(igd(&[], &reference), f64::INFINITY);
    }

    #[test]
    fn spread_even_spacing_is_zero() {
        let f = vec![vec![0.0, 2.0], vec![1.0, 1.0], vec![2.0, 0.0]];
        assert!(spread(&f).unwrap() < 1e-12);
    }

    #[test]
    fn spread_uneven_positive() {
        let f = vec![vec![0.0, 3.0], vec![0.1, 2.9], vec![3.0, 0.0]];
        assert!(spread(&f).unwrap() > 0.5);
    }

    #[test]
    fn spread_needs_three_points() {
        assert!(spread(&[vec![0.0], vec![1.0]]).is_none());
    }
}
