//! Leave-one-out cross-validation for bandwidth selection.
//!
//! "We adopt Leave-One-Out cross-validation given the small size of the
//! dataset and the NWM cheap computational cost" (§III-C). Each candidate
//! bandwidth is scored by predicting every dataset point from the others;
//! the winner minimizes the summed per-output MSE (outputs are variance-
//! normalized first so a large-magnitude metric cannot drown the rest).
//!
//! Selection cost is kept sub-quadratic in the dataset size M by a
//! persistent [`BandwidthSelector`]:
//!
//! * **Exact mode** (≤ [`BandwidthSelector::dense_cap`] rows, or any size
//!   with `neighbor_k == 0`) scores every row against every other row,
//!   incrementally. For each `(kernel, bandwidth)` it has scored, the
//!   selector keeps every row's running LOO denominator and per-output
//!   numerators, accumulated in ascending column order. Each pair of
//!   rows is weighted once: a row's pass pairs it with the rows before
//!   it, starting its own sums over those columns and continuing theirs
//!   with its column. A reselection after ΔM new rows therefore runs
//!   only the new rows' passes and refolds the per-row normalized errors
//!   in O(M·m): O(ΔM·M·|grid|) kernel weights instead of O(M²·|grid|),
//!   and a fresh selection over M rows computes M(M−1)/2 weights per
//!   bandwidth. A float sum continued from its stored partial performs
//!   the same additions in the same order, so every score is bitwise the
//!   from-scratch one. No pairwise matrix is kept: a new pair's distance
//!   comes from [`dist2`] when its weight is needed, and each row keeps
//!   only its nearest neighbour. Replacing a row's outputs in place drops
//!   the sums; the next selection rebuilds them.
//! * **Truncated mode** (larger datasets) scores a deterministic evenly
//!   spaced sample of at most [`BandwidthSelector::sample_cap`] LOO
//!   rows, each against only its `k` nearest neighbours (served by the
//!   dataset's KD-tree), making a full grid selection
//!   O(S·k·(log M + m·|grid|)) — independent of M up to the tree query.
//!
//! The one-shot [`loo_mse`] / [`select_bandwidth`] functions score exactly
//! from scratch for callers without a persistent selector (ablation
//! benches, tests).

use crate::dataset::Dataset;
use crate::kernel::{dist2, Kernel};
use crate::nw::NadarayaWatson;

/// Default candidate grid: log-spaced bandwidths in normalized units.
pub fn default_bandwidth_grid() -> Vec<f64> {
    vec![
        0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.18, 0.27, 0.40, 0.60, 1.0,
    ]
}

/// Largest dataset scored in exact mode when prediction is truncated.
const DEFAULT_DENSE_CAP: usize = 512;

/// LOO rows scored per selection in truncated mode.
const DEFAULT_SAMPLE_CAP: usize = 512;

/// Running-sum sets kept in exact mode. Beyond it the least recently
/// scored `(kernel, bandwidth)` is dropped; one call's grid is always
/// kept whole.
const MAX_SUM_SETS: usize = 32;

/// Scoring state for one dataset snapshot.
#[derive(Debug, Clone)]
enum Geometry {
    /// Exact mode, extended in place as the dataset grows.
    Dense(Dense),
    /// Evenly sampled truncated lists for large datasets, rebuilt from
    /// the KD-tree on every selection (the sample and `k` change with M).
    Truncated {
        /// One scored row per entry.
        lists: Vec<RowList>,
    },
}

/// Exact-mode state: each row's nearest neighbour and the running sums.
#[derive(Debug, Clone, Default)]
struct Dense {
    /// Per-row index of the nearest other row (underflow fallback);
    /// lowest index on distance ties. Its length is the rows covered.
    nearest: Vec<u32>,
    /// Squared distance from each row to its `nearest`.
    nearest_d2: Vec<f64>,
    /// One set per scored `(kernel, bandwidth)`, least recently scored
    /// first.
    sums: Vec<RunningSums>,
    /// The dataset's replacement count the sums were accumulated against.
    revision: u64,
}

/// One `(kernel, bandwidth)`'s LOO sums over the first `rows` rows: row
/// `i` holds `Σ w_ij` and `Σ w_ij·y_j` over `j < rows, j ≠ i`, added in
/// ascending `j` — the order [`NadarayaWatson::predict_norm_into`] uses.
#[derive(Debug, Clone)]
struct RunningSums {
    kernel: Kernel,
    bandwidth: f64,
    /// Rows (and columns) folded in so far.
    rows: usize,
    /// Per-row denominator.
    den: Vec<f64>,
    /// Per-row numerators, `m` per row, row-major.
    num: Vec<f64>,
}

impl RunningSums {
    fn is(&self, kernel: Kernel, bandwidth: f64) -> bool {
        self.kernel == kernel && self.bandwidth.to_bits() == bandwidth.to_bits()
    }
}

/// One sampled LOO row in truncated mode.
#[derive(Debug, Clone)]
struct RowList {
    /// The held-out dataset row.
    row: u32,
    /// Its nearest other row (underflow fallback; lowest index on ties).
    nearest: u32,
    /// The k nearest `(row, d²)` neighbours, ascending by row index so
    /// accumulation matches the exact path's iteration order.
    pairs: Vec<(u32, f64)>,
}

/// Scoring state plus per-output normalization for one dataset snapshot.
#[derive(Debug, Clone)]
struct LooScratch {
    /// Per-output standard deviation (≥ 1e-12) for error normalization.
    sd: Vec<f64>,
    geometry: Geometry,
}

/// Persistent LOO-CV state: owns the scratch across reselections so the
/// running sums are extended, not recomputed. One selector pairs with
/// one growing dataset (the controller owns both); feeding it a
/// *different* dataset of the same or larger size is not detected — call
/// [`BandwidthSelector::invalidate`] when swapping datasets.
#[derive(Debug, Clone)]
pub struct BandwidthSelector {
    scratch: Option<LooScratch>,
    /// Largest dataset scored in exact mode; beyond this (and with a
    /// non-zero `neighbor_k`) selection goes truncated.
    pub dense_cap: usize,
    /// Maximum LOO rows scored per selection in truncated mode.
    pub sample_cap: usize,
}

impl Default for BandwidthSelector {
    fn default() -> Self {
        BandwidthSelector {
            scratch: None,
            dense_cap: DEFAULT_DENSE_CAP,
            sample_cap: DEFAULT_SAMPLE_CAP,
        }
    }
}

impl BandwidthSelector {
    /// A selector with no cached state yet.
    pub fn new() -> BandwidthSelector {
        BandwidthSelector::default()
    }

    /// Drops the cached state; the next selection rebuilds from scratch.
    /// Used on journal restore: rebuilding is a deterministic function of
    /// the dataset, so a resumed run's selections stay bitwise those of
    /// the uninterrupted one.
    pub fn invalidate(&mut self) {
        self.scratch = None;
    }

    /// Selects the bandwidth minimizing LOO-CV error over `grid` (the
    /// default grid when empty), reusing and extending the cached
    /// state. `neighbor_k` is the prediction-side truncation (0 =
    /// exact); it also bounds the truncated-mode neighbourhoods.
    pub fn select(
        &mut self,
        dataset: &Dataset,
        kernel: Kernel,
        grid: &[f64],
        neighbor_k: usize,
    ) -> f64 {
        let mut grid = if grid.is_empty() {
            default_bandwidth_grid()
        } else {
            grid.to_vec()
        };
        grid.retain(|&h| h > 0.0);
        let mut best = NadarayaWatson::default().bandwidth;
        self.sync(dataset, kernel, &grid, neighbor_k);
        let Some(scratch) = &self.scratch else {
            return best;
        };
        let mut best_err = f64::INFINITY;
        for &h in &grid {
            let err = scratch.score(dataset, kernel, h);
            if err < best_err {
                best_err = err;
                best = h;
            }
        }
        best
    }

    /// LOO-CV error of `(kernel, bandwidth)` through the persistent
    /// scratch (`None` below 2 rows) — the testable core of
    /// [`BandwidthSelector::select`], exposed so equivalence properties
    /// can compare incremental against recomputed scoring.
    pub fn loo_mse(
        &mut self,
        dataset: &Dataset,
        kernel: Kernel,
        bandwidth: f64,
        neighbor_k: usize,
    ) -> Option<f64> {
        self.sync(dataset, kernel, &[bandwidth], neighbor_k);
        self.scratch
            .as_ref()
            .map(|s| s.score(dataset, kernel, bandwidth))
    }

    /// Brings the scratch up to date with the dataset: recomputes the
    /// output normalization (outputs can be replaced in place), then
    /// extends the exact-mode state over any new rows for `(kernel,
    /// bandwidths)` or rebuilds the truncated sample. Normalization
    /// bounds are fixed per dataset, so distances never go stale — only
    /// growth and output replacement have to be folded in.
    fn sync(&mut self, dataset: &Dataset, kernel: Kernel, bandwidths: &[f64], neighbor_k: usize) {
        let n = dataset.len();
        if n < 2 {
            self.scratch = None;
            return;
        }
        let sd = output_sd(dataset);
        if neighbor_k == 0 || n <= self.dense_cap {
            // Exact state extends in place; truncated lists depend on
            // (n, k) and rebuild each time.
            let reusable = matches!(
                &self.scratch,
                Some(LooScratch { geometry: Geometry::Dense(dense), .. }) if dense.nearest.len() <= n
            );
            if !reusable {
                self.scratch = Some(LooScratch {
                    sd: Vec::new(),
                    geometry: Geometry::Dense(Dense::default()),
                });
            }
            let scratch = self.scratch.as_mut().expect("exact scratch installed");
            scratch.sd = sd;
            let Geometry::Dense(dense) = &mut scratch.geometry else {
                unreachable!("exact scratch installed above");
            };
            dense.extend(dataset, kernel, bandwidths);
        } else {
            let k = neighbor_k.max(2);
            self.scratch = Some(LooScratch {
                sd,
                geometry: build_truncated(dataset, k, self.sample_cap),
            });
        }
    }
}

impl Dense {
    /// Folds the dataset's new rows into the nearest-neighbour cache and
    /// brings the sums for `(kernel, bandwidths)` up to every row.
    ///
    /// Each row `i` past a set's coverage (ascending) is paired once with
    /// every earlier row `j < i`: the pair's distance comes from [`dist2`]
    /// and its weight starts row `i`'s sum over the columns before `i`
    /// and continues row `j`'s sum with column `i`. A row's sum thus
    /// receives its columns in ascending order — those below it in its
    /// own pass, those above it in the later rows' passes — exactly as
    /// a from-scratch sum over ascending `j` would, and `(a−b)² = (b−a)²`
    /// in IEEE arithmetic, so every sum and every nearest entry is
    /// bitwise the from-scratch one. Each pair's weight is computed once,
    /// so a fresh selection over M rows costs M(M−1)/2 weights per
    /// bandwidth.
    fn extend(&mut self, dataset: &Dataset, kernel: Kernel, bandwidths: &[f64]) {
        let n = dataset.len();
        let m = dataset.n_outputs();
        if self.revision != dataset.revision() {
            self.sums.clear();
            self.revision = dataset.revision();
        }
        // Requested sets move to the back (most recently scored); the
        // oldest beyond the cap are dropped.
        for &h in bandwidths {
            let set = match self.sums.iter().position(|s| s.is(kernel, h)) {
                Some(at) => self.sums.remove(at),
                None => RunningSums {
                    kernel,
                    bandwidth: h,
                    rows: 0,
                    den: Vec::new(),
                    num: Vec::new(),
                },
            };
            self.sums.push(set);
        }
        let active = self
            .sums
            .iter()
            .filter(|s| bandwidths.iter().any(|&h| s.is(kernel, h)))
            .count();
        let excess = self.sums.len().saturating_sub(MAX_SUM_SETS.max(active));
        self.sums.drain(..excess);
        let first_active = self.sums.len() - active;
        let sums = &mut self.sums[first_active..];

        let covered = self.nearest.len();
        let from = sums.iter().map(|s| s.rows).fold(covered, usize::min);
        for s in sums.iter_mut() {
            s.den.resize(n, 0.0);
            s.num.resize(n * m, 0.0);
        }
        self.nearest.resize(n, u32::MAX);
        self.nearest_d2.resize(n, f64::INFINITY);
        let outputs = dataset.outputs();
        let mut d2_buf = vec![0.0f64; n];
        let mut acc = vec![0.0f64; m];
        for i in from..n {
            let xi = dataset.point(i);
            let d2 = &mut d2_buf[..i];
            for (j, v) in d2.iter_mut().enumerate() {
                *v = dist2(xi, dataset.point(j));
            }
            if i >= covered {
                // Strict `<` over ascending columns keeps the lowest
                // index on ties: row `i` sees the columns below it here
                // and each later column in that row's pass.
                for (j, &v) in d2.iter().enumerate() {
                    if v < self.nearest_d2[i] {
                        self.nearest_d2[i] = v;
                        self.nearest[i] = j as u32;
                    }
                    if v < self.nearest_d2[j] {
                        self.nearest_d2[j] = v;
                        self.nearest[j] = i as u32;
                    }
                }
            }
            let yi = &outputs[i];
            for s in sums.iter_mut().filter(|s| i >= s.rows) {
                let mut den = 0.0f64;
                acc.fill(0.0);
                for (j, (&v, yj)) in d2.iter().zip(outputs).enumerate() {
                    let w = kernel.weight(v, s.bandwidth);
                    den += w;
                    for (a, y) in acc.iter_mut().zip(yj) {
                        *a += w * y;
                    }
                    s.den[j] += w;
                    for (a, y) in s.num[j * m..j * m + m].iter_mut().zip(yi) {
                        *a += w * y;
                    }
                }
                s.den[i] = den;
                s.num[i * m..i * m + m].copy_from_slice(&acc);
            }
        }
        for s in sums {
            s.rows = n;
        }
    }
}

impl LooScratch {
    /// LOO-CV error of `(kernel, h)` from the synced state. The
    /// arithmetic — accumulation order included — mirrors
    /// [`NadarayaWatson::predict_norm_into`] exactly, so scoring through
    /// the scratch yields bit-identical errors to the direct path; the
    /// truncated branch likewise mirrors the k-NN prediction path.
    fn score(&self, dataset: &Dataset, kernel: Kernel, bandwidth: f64) -> f64 {
        let m = dataset.n_outputs();
        let mut total = 0.0f64;
        let scored = match &self.geometry {
            Geometry::Dense(dense) => {
                let sums = dense
                    .sums
                    .iter()
                    .find(|s| s.is(kernel, bandwidth))
                    .expect("sums synced before scoring");
                let n = dense.nearest.len();
                debug_assert_eq!(sums.rows, n);
                for (i, &nearest) in dense.nearest.iter().enumerate() {
                    let num = &sums.num[i * m..i * m + m];
                    self.fold_row(dataset, i, nearest as usize, num, sums.den[i], &mut total);
                }
                n
            }
            Geometry::Truncated { lists } => {
                let mut num = vec![0.0f64; m];
                for list in lists {
                    num.fill(0.0);
                    let mut den = 0.0f64;
                    for &(j, d2v) in &list.pairs {
                        let w = kernel.weight(d2v, bandwidth);
                        den += w;
                        for (acc, y) in num.iter_mut().zip(&dataset.outputs()[j as usize]) {
                            *acc += w * y;
                        }
                    }
                    self.fold_row(
                        dataset,
                        list.row as usize,
                        list.nearest as usize,
                        &num,
                        den,
                        &mut total,
                    );
                }
                lists.len()
            }
        };
        total / (scored * m) as f64
    }

    /// Accumulates one held-out row's normalized squared error, with the
    /// all-weights-underflow nearest-neighbour fallback.
    fn fold_row(
        &self,
        dataset: &Dataset,
        row: usize,
        nearest: usize,
        num: &[f64],
        den: f64,
        total: &mut f64,
    ) {
        let truth = &dataset.outputs()[row];
        if den <= f64::MIN_POSITIVE * 1e3 {
            let fb = &dataset.outputs()[nearest];
            for ((p, t), s) in fb.iter().zip(truth).zip(&self.sd) {
                let e = (p - t) / s;
                *total += e * e;
            }
        } else {
            for ((p, t), s) in num.iter().zip(truth).zip(&self.sd) {
                let e = (p / den - t) / s;
                *total += e * e;
            }
        }
    }
}

/// Per-output standard deviation (≥ 1e-12) over the whole dataset.
fn output_sd(dataset: &Dataset) -> Vec<f64> {
    let n = dataset.len();
    let m = dataset.n_outputs();
    let mut mean = vec![0.0f64; m];
    for out in dataset.outputs() {
        for (a, y) in mean.iter_mut().zip(out) {
            *a += y;
        }
    }
    for a in &mut mean {
        *a /= n as f64;
    }
    let mut var = vec![0.0f64; m];
    for out in dataset.outputs() {
        for ((v, y), mu) in var.iter_mut().zip(out).zip(&mean) {
            *v += (y - mu) * (y - mu);
        }
    }
    var.iter()
        .map(|v| (v / n as f64).sqrt().max(1e-12))
        .collect()
}

/// Builds the truncated geometry: a deterministic evenly spaced sample
/// of LOO rows (`0, step, 2·step, …` — a pure function of M and the
/// cap), each with its `k` nearest neighbours from the KD-tree. Nothing
/// here depends on tree structure: the k-NN sets are exact. Each set is
/// taken unsorted and sorted once, by row; its nearest is the minimum
/// `(d², row)`, found by one scan of the sorted set.
fn build_truncated(dataset: &Dataset, k: usize, sample_cap: usize) -> Geometry {
    let n = dataset.len();
    let step = n.div_ceil(sample_cap.max(1)).max(1);
    let mut buf: Vec<(f64, usize)> = Vec::new();
    let lists = (0..n)
        .step_by(step)
        .map(|i| {
            dataset.k_nearest(dataset.point(i), k, Some(i), &mut buf);
            let mut pairs: Vec<(u32, f64)> = buf.iter().map(|&(d2v, j)| (j as u32, d2v)).collect();
            pairs.sort_unstable_by_key(|&(j, _)| j);
            // `min_by` keeps the first of equal minima: the lowest row.
            let nearest = pairs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |&(j, _)| j);
            RowList {
                row: i as u32,
                nearest,
                pairs,
            }
        })
        .collect();
    Geometry::Truncated { lists }
}

/// LOO-CV mean squared error of `(kernel, h)` on the dataset, summed over
/// variance-normalized outputs. Returns `None` for datasets with fewer
/// than 2 points (no held-out prediction possible). One-shot and exact
/// (every row against every other) regardless of dataset size — the persistent
/// [`BandwidthSelector`] is the sub-quadratic path.
pub fn loo_mse(dataset: &Dataset, kernel: Kernel, bandwidth: f64) -> Option<f64> {
    let mut sel = BandwidthSelector::new();
    sel.loo_mse(dataset, kernel, bandwidth, 0)
}

/// Selects the bandwidth minimizing LOO-CV error over `grid` (the default
/// grid when empty). Falls back to `NadarayaWatson::default().bandwidth`
/// when the dataset is too small to validate. One-shot and exact; the
/// controller's persistent [`BandwidthSelector`] amortizes this across
/// reselections instead.
pub fn select_bandwidth(dataset: &Dataset, kernel: Kernel, grid: &[f64]) -> f64 {
    let mut sel = BandwidthSelector::new();
    sel.select(dataset, kernel, grid, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Bounds, Dataset};

    fn smooth_dataset(n: usize) -> Dataset {
        // Smooth quadratic surface over one variable.
        let mut d = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        for i in 0..n {
            let x = (i * 1000 / (n - 1)) as i64;
            let xf = x as f64 / 1000.0;
            d.insert(vec![x], vec![3.0 * xf * xf + 0.5 * xf]);
        }
        d
    }

    #[test]
    fn loo_requires_two_points() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 10)]), 1);
        assert!(loo_mse(&d, Kernel::Gaussian, 0.1).is_none());
        d.insert(vec![0], vec![1.0]);
        assert!(loo_mse(&d, Kernel::Gaussian, 0.1).is_none());
        d.insert(vec![5], vec![2.0]);
        assert!(loo_mse(&d, Kernel::Gaussian, 0.1).is_some());
    }

    #[test]
    fn smooth_data_prefers_moderate_bandwidth() {
        let d = smooth_dataset(40);
        let h = select_bandwidth(&d, Kernel::Gaussian, &[]);
        // On a smooth function with dense samples, very large bandwidths
        // (global averaging) must lose.
        assert!(h < 0.5, "selected h = {h}");
        let err_best = loo_mse(&d, Kernel::Gaussian, h).unwrap();
        let err_huge = loo_mse(&d, Kernel::Gaussian, 1.0).unwrap();
        assert!(err_best < err_huge);
    }

    #[test]
    fn selection_minimizes_over_grid() {
        let d = smooth_dataset(25);
        let grid = [0.02, 0.1, 0.5];
        let h = select_bandwidth(&d, Kernel::Gaussian, &grid);
        let err_h = loo_mse(&d, Kernel::Gaussian, h).unwrap();
        for &g in &grid {
            assert!(err_h <= loo_mse(&d, Kernel::Gaussian, g).unwrap() + 1e-15);
        }
    }

    #[test]
    fn tiny_dataset_falls_back_to_default() {
        let d = Dataset::new(Bounds::new(vec![(0, 10)]), 1);
        let h = select_bandwidth(&d, Kernel::Gaussian, &[]);
        assert_eq!(h, NadarayaWatson::default().bandwidth);
    }

    #[test]
    fn normalization_balances_outputs() {
        // One output is 1000× the other; LOO error must not be dominated.
        let mut d = Dataset::new(Bounds::new(vec![(0, 100)]), 2);
        for x in (0..=100).step_by(10) {
            let xf = x as f64;
            d.insert(vec![x], vec![xf * 1000.0, xf]);
        }
        let e = loo_mse(&d, Kernel::Gaussian, 0.1).unwrap();
        // Both outputs are the same shape, so normalized error is modest.
        assert!(e < 1.0, "e = {e}");
    }

    #[test]
    fn non_positive_bandwidths_skipped() {
        let d = smooth_dataset(10);
        let h = select_bandwidth(&d, Kernel::Gaussian, &[-0.5, 0.0, 0.2]);
        assert_eq!(h, 0.2);
    }

    #[test]
    fn incremental_extension_matches_fresh_build_bitwise() {
        // Grow a dataset in uneven batches, replacing one covered row's
        // outputs in place after each; a selector that extends its
        // running sums across the growth must score every bandwidth
        // bitwise like a freshly-built one.
        let mut d = Dataset::new(Bounds::new(vec![(0, 1000), (0, 9)]), 2);
        let mut persistent = BandwidthSelector::new();
        let mut row = 0i64;
        for batch in [2usize, 1, 7, 25, 3, 40] {
            for _ in 0..batch {
                let x = (row * 131) % 1001;
                let y = (row * 17) % 10;
                let xf = x as f64 / 1000.0;
                d.insert(vec![x, y], vec![xf * xf, 1.0 - xf]);
                row += 1;
            }
            let p = d.raw_points()[d.len() / 2].clone();
            d.insert(p, vec![0.5, 0.25]);
            for h in [0.02, 0.1, 0.6] {
                let inc = persistent.loo_mse(&d, Kernel::Gaussian, h, 64);
                let fresh = loo_mse(&d, Kernel::Gaussian, h);
                assert_eq!(
                    inc.map(f64::to_bits),
                    fresh.map(f64::to_bits),
                    "h={h} after {} rows",
                    d.len()
                );
            }
            assert_eq!(
                persistent.select(&d, Kernel::Gaussian, &[], 64),
                select_bandwidth(&d, Kernel::Gaussian, &[])
            );
        }
    }

    /// LOO-CV error straight from the definition: each row predicted
    /// from all the others by [`NadarayaWatson::predict_norm_into`].
    fn oracle_loo(d: &Dataset, kernel: Kernel, bandwidth: f64) -> f64 {
        let sd = output_sd(d);
        let nw = NadarayaWatson { kernel, bandwidth };
        let mut pred = vec![0.0f64; d.n_outputs()];
        let mut total = 0.0f64;
        for i in 0..d.len() {
            assert!(nw.predict_norm_into(d, d.point(i), Some(i), &mut pred));
            for ((p, t), s) in pred.iter().zip(&d.outputs()[i]).zip(&sd) {
                let e = (p - t) / s;
                total += e * e;
            }
        }
        total / (d.len() * d.n_outputs()) as f64
    }

    #[test]
    fn row_at_a_time_growth_matches_a_fresh_build_bitwise() {
        // The 49 points of a 7×7 grid, one row per scoring, in a
        // scrambled order so nearest-neighbour ties fall on every side of
        // each new row. One bandwidth is first scored mid-growth, and
        // h = 0.001 underflows every weight of the compact kernels, so
        // those scores read each row's nearest entry.
        for kernel in Kernel::ALL {
            let mut d = Dataset::new(Bounds::new(vec![(0, 6), (0, 6)]), 2);
            let mut grown = BandwidthSelector::new();
            for i in 0..49i64 {
                let j = (i * 10) % 49;
                let p = vec![j % 7, j / 7];
                d.insert(p, vec![(j % 7) as f64 * 0.5, ((j * j) % 13) as f64]);
                for (h, from) in [(0.001, 0), (0.2, 0), (0.05, 20)] {
                    if i < from {
                        continue;
                    }
                    let inc = grown.loo_mse(&d, kernel, h, 64).map(f64::to_bits);
                    let fresh = loo_mse(&d, kernel, h);
                    assert_eq!(
                        inc,
                        fresh.map(f64::to_bits),
                        "{kernel} h={h} rows={}",
                        d.len()
                    );
                    if let Some(fresh) = fresh {
                        let oracle = oracle_loo(&d, kernel, h);
                        assert_eq!(fresh.to_bits(), oracle.to_bits(), "{kernel} h={h}");
                    }
                }
            }
        }
    }

    #[test]
    fn evicted_sum_sets_rebuild_exactly() {
        // Scoring more bandwidths than the selector keeps sums for evicts
        // the oldest; rescoring one after growth must still match.
        let mut d = smooth_dataset(20);
        let mut sel = BandwidthSelector::new();
        let grid: Vec<f64> = (1..=MAX_SUM_SETS + 8).map(|i| i as f64 * 0.01).collect();
        for &h in &grid {
            sel.loo_mse(&d, Kernel::Tricube, h, 0);
        }
        d.insert(vec![333], vec![0.7]);
        for &h in &grid {
            let inc = sel.loo_mse(&d, Kernel::Tricube, h, 0).unwrap();
            let fresh = loo_mse(&d, Kernel::Tricube, h).unwrap();
            assert_eq!(inc.to_bits(), fresh.to_bits(), "h={h}");
        }
        assert_eq!(
            sel.select(&d, Kernel::Tricube, &grid, 0),
            select_bandwidth(&d, Kernel::Tricube, &grid)
        );
    }

    #[test]
    fn truncated_equals_dense_bitwise_when_unclipped() {
        // With the sample covering every row and k ≥ M−1, the truncated
        // score must reproduce the dense score bit for bit — the
        // truncation only ever drops far-field terms, never reorders the
        // kept ones.
        let d = smooth_dataset(60);
        let mut forced = BandwidthSelector::new();
        forced.dense_cap = 0; // force truncated mode
        for h in [0.02, 0.1, 0.6, 1.0] {
            let trunc = forced.loo_mse(&d, Kernel::Gaussian, h, d.len()).unwrap();
            let dense = loo_mse(&d, Kernel::Gaussian, h).unwrap();
            assert_eq!(trunc.to_bits(), dense.to_bits(), "h={h}");
        }
    }

    #[test]
    fn truncated_mode_selects_sensible_bandwidth() {
        // Past the dense cap the sampled/truncated selector must still
        // recognize smooth data (no global averaging).
        let d = smooth_dataset(700);
        let mut sel = BandwidthSelector::new();
        assert!(d.len() > sel.dense_cap);
        let h = sel.select(&d, Kernel::Gaussian, &[], 64);
        assert!(h < 0.5, "selected h = {h}");
    }

    #[test]
    fn invalidate_forces_identical_rebuild() {
        let d = smooth_dataset(30);
        let mut sel = BandwidthSelector::new();
        let before = sel.select(&d, Kernel::Gaussian, &[], 64);
        sel.invalidate();
        let after = sel.select(&d, Kernel::Gaussian, &[], 64);
        assert_eq!(before.to_bits(), after.to_bits());
    }
}
