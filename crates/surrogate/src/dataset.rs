//! The synthetic dataset behind the approximation model.
//!
//! Stores `(design point, metric vector)` pairs. Points are integer
//! parameter assignments; they are normalized to `[0, 1]` per dimension
//! (using the exploration ranges) so one bandwidth and one threshold are
//! meaningful across parameters with wildly different ranges — the
//! "run-time information, i.e. the parameters' range" the paper says the
//! threshold must depend on.
//!
//! Normalized coordinates live in one contiguous row-major buffer (no
//! per-row `Vec`), and an exact lazily-rebuilt KD-tree
//! ([`crate::neighbor::NeighborIndex`]) serves nearest-neighbour queries,
//! so the per-decide similarity check and the truncated NW estimator stay
//! sub-linear in the dataset size.

use crate::kernel::dist2;
use crate::neighbor::NeighborIndex;
use std::collections::HashMap;

/// Per-dimension integer bounds used for normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    /// Inclusive `(lo, hi)` per dimension.
    pub dims: Vec<(i64, i64)>,
}

impl Bounds {
    /// Creates bounds; inverted pairs are normalized.
    pub fn new(dims: Vec<(i64, i64)>) -> Bounds {
        Bounds {
            dims: dims
                .into_iter()
                .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
                .collect(),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Normalizes an integer point to `[0, 1]^d`.
    ///
    /// A degenerate axis (`lo == hi` — a parameter that never varies)
    /// maps to exactly `0.0` rather than dividing by the zero range: the
    /// axis carries no information, so every point must land on the same
    /// coordinate and contribute zero to every distance.
    pub fn normalize(&self, point: &[i64]) -> Vec<f64> {
        debug_assert_eq!(point.len(), self.dims.len());
        point
            .iter()
            .zip(&self.dims)
            .map(|(&v, &(lo, hi))| {
                if hi == lo {
                    0.0
                } else {
                    (v - lo) as f64 / (hi - lo) as f64
                }
            })
            .collect()
    }
}

/// The dataset: normalized points with raw metric vectors.
#[derive(Debug, Clone)]
pub struct Dataset {
    bounds: Bounds,
    n_outputs: usize,
    /// Flat row-major normalized coordinates: row `i` occupies
    /// `coords[i*d .. (i+1)*d]`.
    coords: Vec<f64>,
    raw_points: Vec<Vec<i64>>,
    outputs: Vec<Vec<f64>>,
    /// Exact-match index from raw point to row.
    index: HashMap<Vec<i64>, usize>,
    /// Squared normalized distance from each row to its nearest *other*
    /// row (`INFINITY` while the row has no neighbour). Maintained
    /// incrementally on insertion — O(M·d) per insert — so the adaptive
    /// threshold Γ never needs the O(M²·d) all-pairs recomputation.
    nn2: Vec<f64>,
    /// Exact KD-tree over the rows, rebuilt lazily; query answers are
    /// bitwise those of a linear scan (see [`crate::neighbor`]).
    tree: NeighborIndex,
    /// Count of in-place output replacements. State derived from the
    /// outputs (the LOO-CV running sums) compares it to detect that a
    /// covered row changed under it.
    revision: u64,
}

impl Dataset {
    /// Creates an empty dataset for points within `bounds` and metric
    /// vectors of length `n_outputs`.
    pub fn new(bounds: Bounds, n_outputs: usize) -> Dataset {
        Dataset {
            bounds,
            n_outputs,
            coords: Vec::new(),
            raw_points: Vec::new(),
            outputs: Vec::new(),
            index: HashMap::new(),
            nn2: Vec::new(),
            tree: NeighborIndex::new(),
            revision: 0,
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.raw_points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.raw_points.is_empty()
    }

    /// Dimensionality of points.
    pub fn dim(&self) -> usize {
        self.bounds.dim()
    }

    /// Number of outputs per point.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The normalization bounds.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// Inserts a pair; replaces the outputs if the point already exists.
    pub fn insert(&mut self, point: Vec<i64>, outputs: Vec<f64>) {
        assert_eq!(
            point.len(),
            self.bounds.dim(),
            "point dimensionality mismatch"
        );
        assert_eq!(outputs.len(), self.n_outputs, "output arity mismatch");
        if let Some(&row) = self.index.get(&point) {
            self.outputs[row] = outputs;
            self.revision += 1;
            return;
        }
        let norm = self.bounds.normalize(&point);
        // Fold the newcomer into the nearest-neighbour cache: one O(M·d)
        // sweep updates every existing row's minimum and derives the new
        // row's own nearest distance.
        let d = self.dim();
        let mut own_nn2 = f64::INFINITY;
        for (i, cached) in self.nn2.iter_mut().enumerate() {
            let d2 = dist2(&self.coords[i * d..i * d + d], &norm);
            if d2 < *cached {
                *cached = d2;
            }
            if d2 < own_nn2 {
                own_nn2 = d2;
            }
        }
        self.nn2.push(own_nn2);
        self.index.insert(point.clone(), self.raw_points.len());
        self.coords.extend_from_slice(&norm);
        self.raw_points.push(point);
        self.outputs.push(outputs);
        self.tree.sync(&self.coords, d, self.raw_points.len());
    }

    /// Bulk insertion for pretraining and deserialization: identical
    /// replace-on-duplicate semantics to repeated [`Dataset::insert`]
    /// calls, but the nearest-neighbour cache is derived in one
    /// tree-backed O(M·log M) pass instead of M incremental O(M·d)
    /// sweeps. Each cached value is the minimum of the same
    /// [`dist2`]-computed candidates either way, so the resulting dataset
    /// is bitwise the sequential-insert one.
    pub fn insert_bulk(&mut self, pairs: impl IntoIterator<Item = (Vec<i64>, Vec<f64>)>) {
        let d = self.dim();
        for (point, outputs) in pairs {
            assert_eq!(point.len(), d, "point dimensionality mismatch");
            assert_eq!(outputs.len(), self.n_outputs, "output arity mismatch");
            if let Some(&row) = self.index.get(&point) {
                self.outputs[row] = outputs;
                self.revision += 1;
                continue;
            }
            let norm = self.bounds.normalize(&point);
            self.index.insert(point.clone(), self.raw_points.len());
            self.coords.extend_from_slice(&norm);
            self.raw_points.push(point);
            self.outputs.push(outputs);
        }
        let n = self.raw_points.len();
        self.tree.rebuild(&self.coords, d, n);
        self.nn2 = (0..n)
            .map(|i| {
                self.tree
                    .nearest(&self.coords, d, n, &self.coords[i * d..i * d + d], Some(i))
                    .map_or(f64::INFINITY, |(_, d2)| d2)
            })
            .collect();
    }

    /// How many times a stored row's outputs were replaced in place.
    pub(crate) fn revision(&self) -> u64 {
        self.revision
    }

    /// Exact lookup by raw point.
    pub fn get(&self, point: &[i64]) -> Option<&[f64]> {
        self.index
            .get(point)
            .map(|&row| self.outputs[row].as_slice())
    }

    /// Whether the exact point is stored.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.index.contains_key(point)
    }

    /// The normalized coordinates of row `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        let d = self.dim();
        &self.coords[i * d..i * d + d]
    }

    /// The whole flat row-major coordinate buffer (row `i` at
    /// `coords()[i*dim()..(i+1)*dim()]`).
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Raw integer points.
    pub fn raw_points(&self) -> &[Vec<i64>] {
        &self.raw_points
    }

    /// Output vectors.
    pub fn outputs(&self) -> &[Vec<f64>] {
        &self.outputs
    }

    /// Normalizes an external point with the dataset's bounds.
    pub fn normalize(&self, point: &[i64]) -> Vec<f64> {
        self.bounds.normalize(point)
    }

    /// Squared Euclidean distance between a normalized query and row `i`.
    pub fn dist2_to(&self, x_norm: &[f64], i: usize) -> f64 {
        dist2(x_norm, self.point(i))
    }

    /// Squared normalized distance from row `i` to its nearest other row
    /// (`INFINITY` for a single-row dataset). Served from the incremental
    /// cache — O(1).
    pub fn nn_dist2(&self, i: usize) -> f64 {
        self.nn2[i]
    }

    /// Smallest squared distance from a normalized query to any row, with
    /// the matching row index (lowest row on ties). `None` when empty.
    /// Served by the KD-tree in O(log M + tail) — bitwise the first-wins
    /// linear scan's answer.
    pub fn min_dist2(&self, x_norm: &[f64]) -> Option<(usize, f64)> {
        self.tree
            .nearest(&self.coords, self.dim(), self.len(), x_norm, None)
    }

    /// The `k` nearest rows to a normalized query (excluding `exclude`),
    /// written into `out` as `(d², row)` sorted ascending by `(d², row)`.
    pub fn k_nearest(
        &self,
        x_norm: &[f64],
        k: usize,
        exclude: Option<usize>,
        out: &mut Vec<(f64, usize)>,
    ) {
        self.tree.k_nearest(
            &self.coords,
            self.dim(),
            self.len(),
            x_norm,
            k,
            exclude,
            out,
        );
    }

    /// Sorted squared distances from a normalized query to every row,
    /// excluding `exclude` (for LOO).
    pub fn sorted_dist2(&self, x_norm: &[f64], exclude: Option<usize>) -> Vec<(usize, f64)> {
        let mut d: Vec<(usize, f64)> = (0..self.len())
            .filter(|&i| Some(i) != exclude)
            .map(|i| (i, self.dist2_to(x_norm, i)))
            .collect();
        d.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        d
    }

    /// Serializes the dataset to a simple CSV text: a header row encoding
    /// the bounds, then one row per pair. Persisting the synthetic dataset
    /// between runs "amortizes the expensive synthetic dataset generation"
    /// (paper §V).
    pub fn to_csv(&self) -> String {
        let mut out = Vec::new();
        self.write_csv(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the CSV is ASCII")
    }

    /// Writes [`Dataset::to_csv`]'s text to `out`: the header line, then
    /// one line per row, each ending in `\n` — `1 + len()` lines in all.
    /// The journal encodes a live dataset through this, in place.
    pub fn write_csv(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        // Header: #bounds lo..hi per dim, then arity.
        out.write_all(b"#bounds")?;
        for (lo, hi) in &self.bounds.dims {
            write!(out, ",{lo}:{hi}")?;
        }
        writeln!(out, ";outputs={}", self.n_outputs)?;
        for (p, y) in self.raw_points.iter().zip(&self.outputs) {
            for (i, v) in p.iter().enumerate() {
                out.write_all(if i == 0 { b"" } else { b"," })?;
                write!(out, "{v}")?;
            }
            out.write_all(b"|")?;
            for (i, v) in y.iter().enumerate() {
                out.write_all(if i == 0 { b"" } else { b"," })?;
                write!(out, "{v}")?;
            }
            out.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Deserializes a dataset written by [`Dataset::to_csv`]. Rows load
    /// through [`Dataset::insert_bulk`], so restoring a journaled
    /// million-point dataset costs O(M·log M), not O(M²).
    pub fn from_csv(text: &str) -> Result<Dataset, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty dataset file")?;
        let header = header
            .strip_prefix("#bounds")
            .ok_or("missing #bounds header")?;
        let (bounds_part, outputs_part) =
            header.split_once(';').ok_or("malformed header (no `;`)")?;
        let mut dims = Vec::new();
        for spec in bounds_part.split(',').filter(|s| !s.is_empty()) {
            let (lo, hi) = spec
                .split_once(':')
                .ok_or_else(|| format!("bad bound `{spec}`"))?;
            dims.push((
                lo.parse::<i64>()
                    .map_err(|_| format!("bad bound `{spec}`"))?,
                hi.parse::<i64>()
                    .map_err(|_| format!("bad bound `{spec}`"))?,
            ));
        }
        let n_outputs: usize = outputs_part
            .strip_prefix("outputs=")
            .and_then(|s| s.parse().ok())
            .ok_or("malformed outputs= field")?;
        let mut ds = Dataset::new(Bounds::new(dims), n_outputs);
        let mut rows = Vec::new();
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (p, y) = line
                .split_once('|')
                .ok_or_else(|| format!("line {}: missing `|`", lineno + 2))?;
            let point: Vec<i64> = p
                .split(',')
                .map(|v| v.trim().parse::<i64>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {}: {e}", lineno + 2))?;
            let outputs: Vec<f64> = y
                .split(',')
                .map(|v| v.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {}: {e}", lineno + 2))?;
            if point.len() != ds.dim() || outputs.len() != n_outputs {
                return Err(format!("line {}: arity mismatch", lineno + 2));
            }
            rows.push((point, outputs));
        }
        ds.insert_bulk(rows);
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        Dataset::new(Bounds::new(vec![(0, 100), (0, 10)]), 2)
    }

    #[test]
    fn normalization() {
        let b = Bounds::new(vec![(0, 100)]);
        assert_eq!(b.normalize(&[50]), vec![0.5]);
        assert_eq!(b.normalize(&[0]), vec![0.0]);
        assert_eq!(b.normalize(&[100]), vec![1.0]);
    }

    #[test]
    fn degenerate_axis_normalizes_to_zero() {
        // A constant parameter (lo == hi) must yield exactly 0.0 — never
        // NaN or ±inf from the zero range — so it contributes nothing to
        // any distance.
        let b = Bounds::new(vec![(0, 100), (50, 50)]);
        assert_eq!(b.normalize(&[50, 50]), vec![0.5, 0.0]);
        assert_eq!(b.normalize(&[0, 50]), vec![0.0, 0.0]);
        // Even out-of-range values on the degenerate axis stay finite.
        let n = b.normalize(&[100, 7]);
        assert_eq!(n, vec![1.0, 0.0]);
        assert!(n.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn degenerate_axis_dataset_stays_finite_end_to_end() {
        // Regression for the constant-axis case: recording through a
        // dataset whose second axis never varies must keep every distance
        // and nearest-neighbour cache entry finite and NaN-free.
        let mut d = Dataset::new(Bounds::new(vec![(0, 100), (7, 7)]), 1);
        for (i, x) in [0i64, 30, 60, 90].iter().enumerate() {
            d.insert(vec![*x, 7], vec![i as f64]);
        }
        for i in 0..d.len() {
            assert!(d.nn_dist2(i).is_finite(), "row {i}: {}", d.nn_dist2(i));
            assert!(d.point(i).iter().all(|v| v.is_finite()));
        }
        let q = d.normalize(&[45, 7]);
        let (_, d2) = d.min_dist2(&q).unwrap();
        assert!(d2.is_finite() && d2 > 0.0);
    }

    #[test]
    fn inverted_bounds_normalized() {
        let b = Bounds::new(vec![(10, 0)]);
        assert_eq!(b.dims, vec![(0, 10)]);
    }

    #[test]
    fn insert_and_exact_lookup() {
        let mut d = ds();
        d.insert(vec![10, 5], vec![1.0, 2.0]);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&[10, 5]));
        assert_eq!(d.get(&[10, 5]), Some(&[1.0, 2.0][..]));
        assert_eq!(d.get(&[10, 6]), None);
    }

    #[test]
    fn reinsert_replaces_outputs() {
        let mut d = ds();
        d.insert(vec![10, 5], vec![1.0, 2.0]);
        d.insert(vec![10, 5], vec![3.0, 4.0]);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(&[10, 5]), Some(&[3.0, 4.0][..]));
    }

    #[test]
    fn distances_sorted() {
        let mut d = ds();
        d.insert(vec![0, 0], vec![0.0, 0.0]);
        d.insert(vec![100, 10], vec![0.0, 0.0]);
        d.insert(vec![50, 5], vec![0.0, 0.0]);
        let q = d.normalize(&[10, 1]);
        let sorted = d.sorted_dist2(&q, None);
        assert_eq!(sorted[0].0, 0);
        assert_eq!(sorted[2].0, 1);
        assert!(sorted[0].1 <= sorted[1].1 && sorted[1].1 <= sorted[2].1);
    }

    #[test]
    fn loo_exclusion() {
        let mut d = ds();
        d.insert(vec![0, 0], vec![0.0, 0.0]);
        d.insert(vec![100, 10], vec![0.0, 0.0]);
        let q = d.normalize(&[0, 0]);
        let sorted = d.sorted_dist2(&q, Some(0));
        assert_eq!(sorted.len(), 1);
        assert_eq!(sorted[0].0, 1);
    }

    #[test]
    fn csv_roundtrip() {
        let mut d = ds();
        d.insert(vec![10, 5], vec![1.5, 2.0]);
        d.insert(vec![90, 2], vec![-3.25, 0.0]);
        let text = d.to_csv();
        let back = Dataset::from_csv(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.bounds(), d.bounds());
        assert_eq!(back.get(&[10, 5]), Some(&[1.5, 2.0][..]));
        assert_eq!(back.get(&[90, 2]), Some(&[-3.25, 0.0][..]));
        // Normalized geometry survives too.
        assert_eq!(back.normalize(&[50, 5]), d.normalize(&[50, 5]));
    }

    #[test]
    fn csv_roundtrip_empty_dataset() {
        let d = ds();
        let back = Dataset::from_csv(&d.to_csv()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.n_outputs(), 2);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(Dataset::from_csv("").is_err());
        assert!(Dataset::from_csv("nonsense").is_err());
        assert!(Dataset::from_csv("#bounds,0:10;outputs=1\n1,2|3").is_err()); // dim mismatch
        assert!(Dataset::from_csv("#bounds,0:10;outputs=2\n1|3").is_err()); // arity mismatch
        assert!(Dataset::from_csv("#bounds,0:10;outputs=1\n1;3").is_err()); // missing |
    }

    #[test]
    fn nn_cache_tracks_brute_force() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 100), (0, 100)]), 1);
        let pts = [[0i64, 0], [100, 100], [50, 50], [52, 48], [10, 90]];
        for (k, p) in pts.iter().enumerate() {
            d.insert(p.to_vec(), vec![k as f64]);
            for i in 0..d.len() {
                let brute = (0..d.len())
                    .filter(|&j| j != i)
                    .map(|j| d.dist2_to(d.point(i).to_vec().as_slice(), j))
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(d.nn_dist2(i), brute, "row {i} after {k} inserts");
            }
        }
    }

    #[test]
    fn bulk_insert_matches_sequential_inserts_bitwise() {
        let pairs: Vec<(Vec<i64>, Vec<f64>)> = (0..300)
            .map(|i| {
                let x = (i * 37) % 101;
                let y = (i * 53) % 11;
                (vec![x, y], vec![x as f64, y as f64])
            })
            .collect();
        let mut seq = ds();
        for (p, o) in pairs.clone() {
            seq.insert(p, o);
        }
        let mut bulk = ds();
        bulk.insert_bulk(pairs);
        assert_eq!(seq.len(), bulk.len());
        assert_eq!(seq.raw_points(), bulk.raw_points());
        assert_eq!(seq.outputs(), bulk.outputs());
        assert_eq!(seq.coords(), bulk.coords());
        for i in 0..seq.len() {
            assert_eq!(
                seq.nn_dist2(i).to_bits(),
                bulk.nn_dist2(i).to_bits(),
                "nn2 diverged at row {i}"
            );
        }
        // Replace-on-duplicate semantics match too.
        let mut dup = ds();
        dup.insert_bulk(vec![
            (vec![1, 1], vec![0.0, 0.0]),
            (vec![1, 1], vec![5.0, 6.0]),
        ]);
        assert_eq!(dup.len(), 1);
        assert_eq!(dup.get(&[1, 1]), Some(&[5.0, 6.0][..]));
    }

    #[test]
    fn k_nearest_matches_sorted_dist2_prefix() {
        let mut d = ds();
        for i in 0..40i64 {
            d.insert(vec![(i * 7) % 101, (i * 3) % 11], vec![0.0, 0.0]);
        }
        let q = d.normalize(&[33, 4]);
        let mut got = Vec::new();
        d.k_nearest(&q, 5, None, &mut got);
        let want = d.sorted_dist2(&q, None);
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.0.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn nn_cache_single_row_is_infinite() {
        let mut d = Dataset::new(Bounds::new(vec![(0, 10)]), 1);
        d.insert(vec![5], vec![0.0]);
        assert_eq!(d.nn_dist2(0), f64::INFINITY);
    }

    #[test]
    fn nn_cache_unchanged_by_output_replacement() {
        let mut d = ds();
        d.insert(vec![10, 5], vec![1.0, 2.0]);
        d.insert(vec![90, 2], vec![0.0, 0.0]);
        let before = d.nn_dist2(0);
        d.insert(vec![10, 5], vec![3.0, 4.0]); // replace outputs only
        assert_eq!(d.len(), 2);
        assert_eq!(d.nn_dist2(0), before);
    }

    #[test]
    fn min_dist2_matches_sorted_head() {
        let mut d = ds();
        d.insert(vec![0, 0], vec![0.0, 0.0]);
        d.insert(vec![100, 10], vec![0.0, 0.0]);
        d.insert(vec![50, 5], vec![0.0, 0.0]);
        let q = d.normalize(&[40, 4]);
        let (i, d2) = d.min_dist2(&q).unwrap();
        let sorted = d.sorted_dist2(&q, None);
        assert_eq!((i, d2), sorted[0]);
        assert!(Dataset::new(Bounds::new(vec![(0, 1)]), 1)
            .min_dist2(&[0.0])
            .is_none());
    }

    #[test]
    #[should_panic(expected = "output arity mismatch")]
    fn wrong_arity_panics() {
        let mut d = ds();
        d.insert(vec![0, 0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "point dimensionality mismatch")]
    fn wrong_dim_panics() {
        let mut d = ds();
        d.insert(vec![0], vec![1.0, 2.0]);
    }
}
