//! Nadaraya-Watson regression (the paper's Eq. 2).
//!
//! `ŷ = Σ K_h(x, xᵢ)·yᵢ / Σ K_h(x, xᵢ)` — "loosely speaking a weighted
//! average of the dataset points, where the weights are defined by a
//! Gaussian Kernel function". Being non-parametric, "training" is just
//! keeping the dataset; the bandwidth `h` is the only free parameter
//! (selected by LOO cross-validation, see [`crate::loocv`]).

use crate::dataset::Dataset;
use crate::kernel::Kernel;

/// A Nadaraya-Watson estimator: kernel + bandwidth over a [`Dataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NadarayaWatson {
    /// Kernel function.
    pub kernel: Kernel,
    /// Bandwidth `h` in normalized-coordinate units.
    pub bandwidth: f64,
}

impl Default for NadarayaWatson {
    fn default() -> Self {
        NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 0.1,
        }
    }
}

impl NadarayaWatson {
    /// Predicts all outputs at the (raw, integer) query point.
    ///
    /// Returns `None` when the dataset is empty. When all kernel weights
    /// underflow (query far from every sample under a compact kernel), the
    /// estimator degrades to the nearest neighbour's outputs — a defined
    /// answer is always available once the dataset is non-empty.
    pub fn predict(&self, dataset: &Dataset, point: &[i64]) -> Option<Vec<f64>> {
        self.predict_excluding(dataset, point, None)
    }

    /// Truncated prediction: sums only the `k` nearest dataset rows (by
    /// normalized distance) instead of all M, turning the O(M·m) exact
    /// estimate into O(k·(log M + m)) via the dataset's KD-tree. `k == 0`
    /// requests the exact estimator.
    ///
    /// The truncation is *bitwise-exact* once `k ≥ M`: the candidate set
    /// is then every row, candidates are accumulated in ascending row
    /// order — the exact path's iteration order — and each distance comes
    /// from the same [`crate::kernel::dist2`] kernel, so the sums agree
    /// bit for bit. For `k < M` only the negligible far-field Gaussian
    /// mass is dropped: the absolute error is bounded by
    /// `(M−k)/M · output range` (the dropped weights are each no larger
    /// than the smallest kept weight).
    pub fn predict_topk(&self, dataset: &Dataset, point: &[i64], k: usize) -> Option<Vec<f64>> {
        if k == 0 {
            return self.predict(dataset, point);
        }
        let x = dataset.normalize(point);
        let mut out = vec![0.0f64; dataset.n_outputs()];
        let mut nbuf = Vec::new();
        self.predict_norm_topk_into(dataset, &x, k, None, &mut out, &mut nbuf)
            .then_some(out)
    }

    /// The allocation-reusing truncated-prediction core behind
    /// [`NadarayaWatson::predict_topk`]: `nbuf` is the caller's neighbour
    /// scratch buffer. See there for the exactness contract; the
    /// all-weights-underflow fallback below picks the same nearest row —
    /// lowest row index on distance ties — as the exact path, because the
    /// KD-tree ranks candidates by `(d², row)` and the globally nearest
    /// row is always among the k kept. The k rows arrive unsorted and
    /// are sorted once, by row.
    pub fn predict_norm_topk_into(
        &self,
        dataset: &Dataset,
        x_norm: &[f64],
        k: usize,
        exclude: Option<usize>,
        out: &mut [f64],
        nbuf: &mut Vec<(f64, usize)>,
    ) -> bool {
        debug_assert!(k > 0);
        dataset.k_nearest(x_norm, k, exclude, nbuf);
        if nbuf.is_empty() {
            return false;
        }
        debug_assert_eq!(out.len(), dataset.n_outputs());
        // Accumulate in ascending row order so a full candidate set
        // (k ≥ M) reproduces the exact path's sums bitwise.
        nbuf.sort_unstable_by_key(|&(_, i)| i);
        out.fill(0.0);
        let mut den = 0.0f64;
        for &(d2, i) in nbuf.iter() {
            let w = self.kernel.weight(d2, self.bandwidth);
            den += w;
            for (acc, y) in out.iter_mut().zip(&dataset.outputs()[i]) {
                *acc += w * y;
            }
        }
        if den <= f64::MIN_POSITIVE * 1e3 {
            // All weights vanished: nearest-neighbour fallback to the
            // minimum (d², row). The rows ascend and `min_by` keeps the
            // first of equal minima, so the lowest row among the nearest
            // wins, as in the exact path's first-wins linear scan.
            let fallback = nbuf
                .iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map(|&(_, i)| i)
                .expect("a non-empty neighbour set");
            out.copy_from_slice(&dataset.outputs()[fallback]);
            return true;
        }
        for v in out.iter_mut() {
            *v /= den;
        }
        true
    }

    /// Like [`NadarayaWatson::predict`], excluding dataset row `exclude`
    /// (used for leave-one-out validation).
    pub fn predict_excluding(
        &self,
        dataset: &Dataset,
        point: &[i64],
        exclude: Option<usize>,
    ) -> Option<Vec<f64>> {
        let x = dataset.normalize(point);
        let mut out = vec![0.0f64; dataset.n_outputs()];
        self.predict_norm_into(dataset, &x, exclude, &mut out)
            .then_some(out)
    }

    /// The allocation-free prediction core: takes an already-normalized
    /// query and writes the estimate into `out` (length
    /// [`Dataset::n_outputs`], pre-zeroed by this function). Returns
    /// `false` when no prediction exists (empty effective dataset).
    ///
    /// LOO-CV calls this once per (row, bandwidth) pair — with the
    /// dataset's stored normalized rows as queries — so the hot loop never
    /// allocates and never re-normalizes.
    pub fn predict_norm_into(
        &self,
        dataset: &Dataset,
        x_norm: &[f64],
        exclude: Option<usize>,
        out: &mut [f64],
    ) -> bool {
        let n = dataset.len();
        let effective = n - usize::from(exclude.is_some() && n > 0);
        if effective == 0 {
            return false;
        }
        debug_assert_eq!(out.len(), dataset.n_outputs());
        out.fill(0.0);
        let mut den = 0.0f64;
        let mut nearest: Option<(f64, usize)> = None;
        for i in 0..n {
            if Some(i) == exclude {
                continue;
            }
            let d2 = dataset.dist2_to(x_norm, i);
            let w = self.kernel.weight(d2, self.bandwidth);
            den += w;
            for (acc, y) in out.iter_mut().zip(&dataset.outputs()[i]) {
                *acc += w * y;
            }
            if nearest.is_none_or(|(bd, _)| d2 < bd) {
                nearest = Some((d2, i));
            }
        }
        if den <= f64::MIN_POSITIVE * 1e3 {
            // All weights vanished: nearest-neighbour fallback.
            let Some((_, i)) = nearest else { return false };
            out.copy_from_slice(&dataset.outputs()[i]);
            return true;
        }
        for v in out.iter_mut() {
            *v /= den;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Bounds;

    fn line_dataset() -> Dataset {
        // y = 2x over x ∈ [0, 100].
        let mut d = Dataset::new(Bounds::new(vec![(0, 100)]), 1);
        for x in (0..=100).step_by(5) {
            d.insert(vec![x], vec![2.0 * x as f64]);
        }
        d
    }

    #[test]
    fn empty_dataset_gives_none() {
        let d = Dataset::new(Bounds::new(vec![(0, 10)]), 1);
        let nw = NadarayaWatson::default();
        assert!(nw.predict(&d, &[5]).is_none());
    }

    #[test]
    fn exact_sample_recovered_with_small_bandwidth() {
        let d = line_dataset();
        let nw = NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 0.01,
        };
        let y = nw.predict(&d, &[50]).unwrap()[0];
        assert!((y - 100.0).abs() < 1.0, "y = {y}");
    }

    #[test]
    fn interpolates_between_samples() {
        let d = line_dataset();
        let nw = NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 0.03,
        };
        let y = nw.predict(&d, &[52]).unwrap()[0];
        assert!((y - 104.0).abs() < 6.0, "y = {y}");
    }

    #[test]
    fn huge_bandwidth_tends_to_global_mean() {
        let d = line_dataset();
        let nw = NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 100.0,
        };
        let y = nw.predict(&d, &[0]).unwrap()[0];
        // Global mean of y = 2x over 0..=100 step 5 is 100.
        assert!((y - 100.0).abs() < 2.0, "y = {y}");
    }

    #[test]
    fn weighted_average_is_bounded_by_data() {
        let d = line_dataset();
        for h in [0.01, 0.05, 0.2, 1.0] {
            let nw = NadarayaWatson {
                kernel: Kernel::Gaussian,
                bandwidth: h,
            };
            let y = nw.predict(&d, &[33]).unwrap()[0];
            assert!((0.0..=200.0).contains(&y));
        }
    }

    #[test]
    fn compact_kernel_falls_back_to_nearest_neighbour() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        d.insert(vec![0], vec![7.0]);
        d.insert(vec![1000], vec![9.0]);
        let nw = NadarayaWatson {
            kernel: Kernel::Epanechnikov,
            bandwidth: 0.05,
        };
        // Query in the middle, slightly nearer to 1000.
        let y = nw.predict(&d, &[600]).unwrap()[0];
        assert_eq!(y, 9.0);
    }

    #[test]
    fn multi_output_prediction() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 10)]), 2);
        for x in 0..=10 {
            d.insert(vec![x], vec![x as f64, 10.0 - x as f64]);
        }
        let nw = NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 0.05,
        };
        let y = nw.predict(&d, &[4]).unwrap();
        assert!((y[0] - 4.0).abs() < 0.5);
        assert!((y[1] - 6.0).abs() < 0.5);
    }

    #[test]
    fn loo_exclusion_changes_prediction() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 10)]), 1);
        d.insert(vec![0], vec![0.0]);
        d.insert(vec![5], vec![100.0]);
        d.insert(vec![10], vec![0.0]);
        let nw = NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 0.2,
        };
        let with = nw.predict(&d, &[5]).unwrap()[0];
        let without = nw.predict_excluding(&d, &[5], Some(1)).unwrap()[0];
        assert!(with > without, "{with} vs {without}");
    }

    #[test]
    fn topk_with_full_candidate_set_is_bitwise_exact() {
        let d = line_dataset();
        for h in [0.01, 0.05, 0.2, 1.0] {
            let nw = NadarayaWatson {
                kernel: Kernel::Gaussian,
                bandwidth: h,
            };
            for q in [0i64, 17, 52, 100] {
                let exact = nw.predict(&d, &[q]).unwrap();
                for k in [d.len(), d.len() + 10] {
                    let trunc = nw.predict_topk(&d, &[q], k).unwrap();
                    assert_eq!(exact[0].to_bits(), trunc[0].to_bits(), "h={h} q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn topk_zero_means_exact() {
        let d = line_dataset();
        let nw = NadarayaWatson::default();
        assert_eq!(
            nw.predict(&d, &[37]).unwrap()[0].to_bits(),
            nw.predict_topk(&d, &[37], 0).unwrap()[0].to_bits()
        );
    }

    #[test]
    fn truncation_stays_close_to_exact() {
        let d = line_dataset(); // 21 points
        let nw = NadarayaWatson {
            kernel: Kernel::Gaussian,
            bandwidth: 0.1,
        };
        let exact = nw.predict(&d, &[52]).unwrap()[0];
        let trunc = nw.predict_topk(&d, &[52], 8).unwrap()[0];
        // 8 nearest of 21 at h = 0.1 hold almost all the Gaussian mass.
        assert!((exact - trunc).abs() < 1.0, "{exact} vs {trunc}");
    }

    #[test]
    fn underflow_fallback_breaks_ties_by_lowest_row_in_both_paths() {
        // Two rows equidistant from the query; a compact kernel far from
        // both underflows every weight, forcing the nearest-neighbour
        // fallback. Insertion order puts the *larger* coordinate first,
        // so "lowest row index" is distinguishable from "smallest value".
        let mut d = Dataset::new(Bounds::new(vec![(0, 100)]), 1);
        d.insert(vec![60], vec![7.0]); // row 0
        d.insert(vec![40], vec![9.0]); // row 1 — same distance from 50
        let nw = NadarayaWatson {
            kernel: Kernel::Epanechnikov,
            bandwidth: 0.05,
        };
        let exact = nw.predict(&d, &[50]).unwrap()[0];
        assert_eq!(exact, 7.0, "exact path must fall back to row 0");
        for k in [1, 2, 5] {
            let trunc = nw.predict_topk(&d, &[50], k).unwrap()[0];
            assert_eq!(trunc, 7.0, "truncated path (k={k}) must agree");
        }
    }

    #[test]
    fn duplicate_design_points_tie_break_deterministically() {
        // A degenerate second axis makes two distinct raw points
        // coincident in normalized space — duplicates at distance zero.
        let mut d = Dataset::new(Bounds::new(vec![(0, 100), (3, 3)]), 1);
        d.insert(vec![50, 3], vec![1.0]); // row 0
        d.insert(vec![50, 9], vec![2.0]); // row 1, same normalized point
        d.insert(vec![0, 3], vec![3.0]); // row 2, far away
        let nw = NadarayaWatson {
            kernel: Kernel::Uniform,
            bandwidth: 0.01,
        };
        // Query far from everything: all weights vanish; both rows 0 and
        // 1 are nearest at the same distance — row 0 must win, exact and
        // truncated alike.
        let exact = nw.predict(&d, &[80, 3]).unwrap()[0];
        let trunc1 = nw.predict_topk(&d, &[80, 3], 1).unwrap()[0];
        let trunc3 = nw.predict_topk(&d, &[80, 3], 3).unwrap()[0];
        assert_eq!(exact, 1.0);
        assert_eq!(trunc1, 1.0);
        assert_eq!(trunc3, 1.0);
    }

    /// Truncated prediction by brute force: every distance, the k best
    /// by `(d², row)`, summed in ascending row order, with the minimum
    /// `(d², row)` as the underflow fallback.
    fn brute_topk(nw: &NadarayaWatson, d: &Dataset, x: &[f64], k: usize) -> Vec<f64> {
        let mut all: Vec<(f64, usize)> = (0..d.len()).map(|i| (d.dist2_to(x, i), i)).collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let fallback = all[0].1;
        all.truncate(k);
        all.sort_by_key(|&(_, i)| i);
        let mut out = vec![0.0f64; d.n_outputs()];
        let mut den = 0.0f64;
        for &(d2, i) in &all {
            let w = nw.kernel.weight(d2, nw.bandwidth);
            den += w;
            for (acc, y) in out.iter_mut().zip(&d.outputs()[i]) {
                *acc += w * y;
            }
        }
        if den <= f64::MIN_POSITIVE * 1e3 {
            return d.outputs()[fallback].clone();
        }
        out.iter().map(|v| v / den).collect()
    }

    #[test]
    fn topk_matches_a_brute_force_prediction_bitwise() {
        // The 343 points of an even 7×7×7 grid (many distance ties),
        // queried on and off the grid at k up to past M, with kernels and
        // bandwidths from all-weights underflow (off the grid, where up
        // to eight rows tie for the fallback) to global averaging.
        let mut d = Dataset::new(Bounds::new(vec![(0, 12), (0, 12), (0, 12)]), 2);
        let rows = (0..343i64).map(|i| {
            let p = vec![2 * (i % 7), 2 * ((i / 7) % 7), 2 * (i / 49)];
            let xf = p[0] as f64 + 0.5 * p[1] as f64;
            (p, vec![xf, (i % 11) as f64])
        });
        d.insert_bulk(rows);
        for kernel in Kernel::ALL {
            for h in [0.001, 0.05, 0.3, 2.0] {
                let nw = NadarayaWatson {
                    kernel,
                    bandwidth: h,
                };
                for q in [[0i64, 0, 0], [1, 1, 1], [3, 4, 2], [6, 1, 5], [12, 11, 7]] {
                    let x = d.normalize(&q);
                    for k in [1usize, 2, 8, 64, 200, d.len(), d.len() + 5] {
                        let got = nw.predict_topk(&d, &q, k).unwrap();
                        let want = brute_topk(&nw, &d, &x, k);
                        let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&want), "{kernel} h={h} q={q:?} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_point_dataset_predicts_constant() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 10)]), 1);
        d.insert(vec![3], vec![42.0]);
        let nw = NadarayaWatson::default();
        assert_eq!(nw.predict(&d, &[9]).unwrap()[0], 42.0);
        // LOO on a single point: nothing left.
        assert!(nw.predict_excluding(&d, &[3], Some(0)).is_none());
    }
}
