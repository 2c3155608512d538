//! Exact k-nearest-neighbour index over the dataset's normalized rows.
//!
//! A KD-tree over the flat row-major coordinate buffer, rebuilt lazily:
//! the tree covers a prefix of the rows and newly inserted rows accumulate
//! in a linearly-scanned tail until the tail grows past a fraction of the
//! built prefix, at which point the whole tree is rebuilt. This keeps
//! insertion O(1) amortized-O(log²M) while queries stay O(log M + tail).
//!
//! **Buffered top-k.** A query collects candidates unsorted in the
//! caller's buffer. When the buffer reaches 2k entries,
//! `select_nth_unstable_by` on `(d², row)` keeps the k best, and the kept
//! k-th becomes the *bound*: a later candidate ranked after it is
//! rejected at once, and a far subtree is skipped when its split plane
//! lies farther than the bound's d² (before the first compaction
//! nothing is rejected or pruned). The bound is the k-th best of a subset
//! of the candidates seen so far, so it is never tighter than the true
//! k-th: nothing that belongs to the answer is rejected or pruned, and a
//! final selection leaves exactly the k best. An accepted candidate
//! costs one push, and each compaction a linear-time selection over 2k
//! entries.
//!
//! **Determinism contract.** Queries are *exact*, not approximate: every
//! candidate distance is computed by [`crate::kernel::dist2`] and
//! candidates are ranked by the lexicographic `(d², row index)` order, so
//! the answer is the same value-set minimum a brute-force linear scan
//! would find — bitwise, regardless of how the tree happens to be split
//! or how much of the data sits in the unindexed tail. Tree structure can
//! therefore never leak into surrogate decisions, resumed runs, or
//! parallel-vs-serial traces.

use crate::kernel::dist2;

/// Rows per leaf; below this a linear scan beats tree traversal.
const LEAF_SIZE: usize = 16;

/// The tail may grow to `max(TAIL_MIN, built/8)` rows before a rebuild.
const TAIL_MIN: usize = 64;

/// One KD-tree node. Leaves reference a range of `order`; splits carry the
/// split axis and coordinate plus child node indices.
#[derive(Debug, Clone)]
enum Node {
    /// `order[start..start + len]` scanned linearly.
    Leaf {
        /// First index into `order`.
        start: u32,
        /// Number of rows in the leaf.
        len: u32,
    },
    /// Axis-aligned split: rows left of the plane in `left`, right in
    /// `right` (rows exactly on the plane may sit on either side).
    Split {
        /// Split dimension.
        axis: u32,
        /// Split coordinate along `axis`.
        value: f64,
        /// Node index of the low side.
        left: u32,
        /// Node index of the high side.
        right: u32,
    },
}

/// Lazily rebuilt exact KD-tree over a flat coordinate buffer.
///
/// The index stores only row *indices* — the coordinates live in the
/// dataset's buffer and are passed to every query, so the index never
/// holds a stale copy of the geometry.
#[derive(Debug, Clone, Default)]
pub struct NeighborIndex {
    /// Permutation of the first `built` row indices, leaf-contiguous.
    order: Vec<u32>,
    /// Tree nodes; `nodes[root]` is the root when `built > 0`.
    nodes: Vec<Node>,
    /// Root node index.
    root: u32,
    /// Rows covered by the tree; rows `built..n` are the linear tail.
    built: usize,
}

impl NeighborIndex {
    /// An empty index (everything in the tail).
    pub fn new() -> NeighborIndex {
        NeighborIndex::default()
    }

    /// Number of rows covered by the tree (the rest are scanned).
    pub fn covered(&self) -> usize {
        self.built
    }

    /// Called after rows were appended: rebuilds the tree when the
    /// unindexed tail outgrew `max(64, built/8)`. The decision depends
    /// only on the number of rows, never on their values or on query
    /// history, so identical insert sequences rebuild identically —
    /// and even a divergent rebuild schedule could not change query
    /// results (see the module-level determinism contract).
    pub fn sync(&mut self, coords: &[f64], dim: usize, n: usize) {
        debug_assert!(self.built <= n);
        let tail = n - self.built;
        if tail > TAIL_MIN.max(self.built / 8) {
            self.rebuild(coords, dim, n);
        }
    }

    /// Unconditionally rebuilds the tree over all `n` rows.
    pub fn rebuild(&mut self, coords: &[f64], dim: usize, n: usize) {
        self.nodes.clear();
        self.order = (0..n as u32).collect();
        self.built = n;
        if dim == 0 || n == 0 {
            // Degenerate geometry: leave everything to the tail scan.
            self.built = 0;
            self.order.clear();
            return;
        }
        let root = build(coords, dim, &mut self.order, 0, n, &mut self.nodes);
        self.root = root;
    }

    /// The nearest row to `x` (excluding `exclude`), as `(row, d²)`;
    /// `None` when no candidate exists. Ties on distance resolve to the
    /// lowest row index — the same answer as a first-wins linear scan.
    pub fn nearest(
        &self,
        coords: &[f64],
        dim: usize,
        n: usize,
        x: &[f64],
        exclude: Option<usize>,
    ) -> Option<(usize, f64)> {
        let mut best = Vec::with_capacity(2);
        self.k_nearest(coords, dim, n, x, 1, exclude, &mut best);
        best.first().map(|&(d2, i)| (i, d2))
    }

    /// The `k` nearest rows to `x` (excluding `exclude`) by `(d², row)`,
    /// written into `out` as `(d², row)` pairs in no particular order
    /// (every caller re-sorts them by row). Fewer than `k` entries when
    /// the dataset is smaller. `out` is the candidate buffer and holds up
    /// to `2k` entries during the query, so reusing it across queries
    /// allocates nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn k_nearest(
        &self,
        coords: &[f64],
        dim: usize,
        n: usize,
        x: &[f64],
        k: usize,
        exclude: Option<usize>,
        out: &mut Vec<(f64, usize)>,
    ) {
        out.clear();
        if k == 0 || n == 0 {
            return;
        }
        debug_assert!(self.built <= n);
        out.reserve(k.saturating_mul(2).min(n));
        let mut top = TopK {
            buf: out,
            k,
            bound: (f64::INFINITY, usize::MAX),
        };
        if self.built > 0 {
            self.visit(self.root, coords, dim, x, exclude, &mut top);
        }
        // Linear tail: rows appended since the last rebuild.
        for i in self.built..n {
            if Some(i) == exclude {
                continue;
            }
            top.consider((dist2(&coords[i * dim..i * dim + dim], x), i));
        }
        top.finish();
    }

    /// Recursive traversal: near child first, far child only when the
    /// split plane is not farther than the bound (`<=`, so an equidistant
    /// candidate with a smaller row index is still reached).
    fn visit(
        &self,
        node: u32,
        coords: &[f64],
        dim: usize,
        x: &[f64],
        exclude: Option<usize>,
        top: &mut TopK<'_>,
    ) {
        match self.nodes[node as usize] {
            Node::Leaf { start, len } => {
                for &row in &self.order[start as usize..(start + len) as usize] {
                    let i = row as usize;
                    if Some(i) == exclude {
                        continue;
                    }
                    top.consider((dist2(&coords[i * dim..i * dim + dim], x), i));
                }
            }
            Node::Split {
                axis,
                value,
                left,
                right,
            } => {
                let diff = x[axis as usize] - value;
                let (near, far) = if diff < 0.0 {
                    (left, right)
                } else {
                    (right, left)
                };
                self.visit(near, coords, dim, x, exclude, top);
                if diff * diff <= top.bound.0 {
                    self.visit(far, coords, dim, x, exclude, top);
                }
            }
        }
    }
}

/// The `(d², row)` order every query ranks candidates by: total, with
/// the lower row first on equal distances.
fn by_dist_row(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The candidate buffer of one top-k query (see the module docs).
struct TopK<'a> {
    /// Unsorted candidates: a superset of the k best seen so far.
    buf: &'a mut Vec<(f64, usize)>,
    k: usize,
    /// The k-th best `(d², row)` of the candidates at the last
    /// compaction; `(∞, usize::MAX)` before the first.
    bound: (f64, usize),
}

impl TopK<'_> {
    /// Appends a candidate ranked before the bound, compacting the
    /// buffer to the k best once it holds 2k. A squared distance is
    /// never NaN or −0.0, so plain float comparison is the `(d², row)`
    /// order here.
    #[inline]
    fn consider(&mut self, cand: (f64, usize)) {
        let (d2, row) = self.bound;
        if cand.0 > d2 || (cand.0 == d2 && cand.1 > row) {
            return;
        }
        self.buf.push(cand);
        if self.buf.len() == self.k.saturating_mul(2) {
            self.keep_best();
            self.bound = self.buf[self.k - 1];
        }
    }

    /// Leaves the k best candidates in the buffer, the k-th last.
    fn keep_best(&mut self) {
        self.buf.select_nth_unstable_by(self.k - 1, by_dist_row);
        self.buf.truncate(self.k);
    }

    /// Cuts the buffer to exactly the k best (or every candidate, when
    /// fewer than k exist).
    fn finish(mut self) {
        if self.buf.len() > self.k {
            self.keep_best();
        }
    }
}

/// Builds the subtree over `order[start..end]`, returning its node index.
fn build(
    coords: &[f64],
    dim: usize,
    order: &mut [u32],
    start: usize,
    end: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    let len = end - start;
    if len <= LEAF_SIZE {
        nodes.push(Node::Leaf {
            start: start as u32,
            len: len as u32,
        });
        return (nodes.len() - 1) as u32;
    }
    // Split along the axis with the widest spread (lowest axis on ties).
    let mut axis = 0usize;
    let mut best_spread = f64::NEG_INFINITY;
    for a in 0..dim {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &row in &order[start..end] {
            let v = coords[row as usize * dim + a];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let spread = hi - lo;
        if spread > best_spread {
            best_spread = spread;
            axis = a;
        }
    }
    // Median split by (coordinate, row index): total, deterministic.
    order[start..end].sort_unstable_by(|&a, &b| {
        let ca = coords[a as usize * dim + axis];
        let cb = coords[b as usize * dim + axis];
        ca.total_cmp(&cb).then(a.cmp(&b))
    });
    let mid = start + len / 2;
    let value = coords[order[mid] as usize * dim + axis];
    // Reserve our slot before recursing so children get later indices.
    let me = nodes.len() as u32;
    nodes.push(Node::Leaf { start: 0, len: 0 });
    let left = build(coords, dim, order, start, mid, nodes);
    let right = build(coords, dim, order, mid, end, nodes);
    nodes[me as usize] = Node::Split {
        axis: axis as u32,
        value,
        left,
        right,
    };
    me
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_k(
        coords: &[f64],
        dim: usize,
        n: usize,
        x: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<(f64, usize)> {
        let mut all: Vec<(f64, usize)> = (0..n)
            .filter(|&i| Some(i) != exclude)
            .map(|i| (dist2(&coords[i * dim..i * dim + dim], x), i))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    fn random_coords(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        // A coarse grid so distance ties actually happen.
        (0..n * dim)
            .map(|_| rng.gen_range(0..8) as f64 / 7.0)
            .collect()
    }

    /// Checks `k_nearest` over all rows of `coords` against the
    /// brute-force scan, bit for bit.
    fn assert_matches_brute(
        idx: &NeighborIndex,
        coords: &[f64],
        dim: usize,
        x: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) {
        let n = coords.len() / dim;
        let bits =
            |v: &[(f64, usize)]| v.iter().map(|&(d, i)| (d.to_bits(), i)).collect::<Vec<_>>();
        let mut out = Vec::new();
        idx.k_nearest(coords, dim, n, x, k, exclude, &mut out);
        out.sort_unstable_by(by_dist_row);
        let want = brute_k(coords, dim, n, x, k, exclude);
        assert_eq!(bits(&out), bits(&want), "n={n} k={k} exclude={exclude:?}");
    }

    #[test]
    fn k_nearest_matches_brute_force_bitwise() {
        // Coarse grids, so distance ties (the `(d², row)` tie-break) are
        // everywhere, and k = 64 over hundreds of rows, so a query
        // compacts its buffer several times.
        for (n, dim, seed) in [
            (1usize, 1usize, 1u64),
            (17, 2, 2),
            (300, 3, 3),
            (1000, 2, 4),
            (626, 3, 5),
        ] {
            let coords = random_coords(n, dim, seed);
            // Tree-only, tail-only and a tree over a prefix plus a tail.
            let mut tree = NeighborIndex::new();
            tree.rebuild(&coords, dim, n);
            let tail = NeighborIndex::new();
            let mut mixed = NeighborIndex::new();
            mixed.rebuild(&coords, dim, n - n / 3);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFF);
            for _ in 0..30 {
                let x: Vec<f64> = (0..dim).map(|_| rng.gen_range(0..8) as f64 / 7.0).collect();
                let row = rng.gen_range(0..n);
                for k in [1usize, 3, 8, 64, n.saturating_sub(1), n, n + 5] {
                    for idx in [&tree, &tail, &mixed] {
                        for exclude in [None, Some(row)] {
                            assert_matches_brute(idx, &coords, dim, &x, k, exclude);
                        }
                        // A query at a stored row, the LOO shape.
                        let at = coords[row * dim..row * dim + dim].to_vec();
                        assert_matches_brute(idx, &coords, dim, &at, k, Some(row));
                    }
                }
            }
        }
    }

    #[test]
    fn one_query_compacts_its_buffer_repeatedly() {
        // 2,000 rows on a 4×4 grid: every distance is one of a handful
        // of values, so a k = 64 query meets thousands of ties and its
        // buffer reaches 2k many times over. Rows far down the tail must
        // still lose to equidistant earlier rows.
        let dim = 2;
        let n = 2_000;
        let coords: Vec<f64> = (0..n * dim).map(|i| ((i * 7) % 4) as f64 / 3.0).collect();
        let mut idx = NeighborIndex::new();
        idx.rebuild(&coords, dim, 1_200);
        for x in [[0.0, 0.0], [1.0 / 3.0, 2.0 / 3.0], [0.5, 0.5]] {
            for k in [1usize, 64, 500] {
                assert_matches_brute(&idx, &coords, dim, &x, k, Some(5));
            }
        }
    }

    #[test]
    fn tail_rows_participate_without_rebuild() {
        let dim = 2;
        let mut coords = random_coords(100, dim, 9);
        let mut idx = NeighborIndex::new();
        idx.rebuild(&coords, dim, 100);
        // Append 30 rows; sync must keep them in the tail (30 ≤ 64)...
        coords.extend(random_coords(30, dim, 10));
        idx.sync(&coords, dim, 130);
        assert_eq!(idx.covered(), 100);
        // ...and queries must still see them, identically to brute force.
        let mut out = Vec::new();
        idx.k_nearest(&coords, dim, 130, &[0.5, 0.5], 7, None, &mut out);
        out.sort_unstable_by(by_dist_row);
        assert_eq!(out, brute_k(&coords, dim, 130, &[0.5, 0.5], 7, None));
    }

    #[test]
    fn sync_rebuilds_once_tail_outgrows_threshold() {
        let dim = 1;
        let mut coords = random_coords(16, dim, 11);
        let mut idx = NeighborIndex::new();
        // 16 rows, never built: tail 16 ≤ 64 → still uncovered.
        idx.sync(&coords, dim, 16);
        assert_eq!(idx.covered(), 0);
        coords.extend(random_coords(60, dim, 12));
        idx.sync(&coords, dim, 76);
        assert_eq!(idx.covered(), 76, "tail 76 > 64 must trigger a rebuild");
    }

    #[test]
    fn distance_ties_resolve_to_lowest_row() {
        // Rows 0 and 2 are coincident; row 1 is elsewhere.
        let coords = vec![0.25, 0.9, 0.25];
        let mut idx = NeighborIndex::new();
        idx.rebuild(&coords, 1, 3);
        let (i, d2) = idx.nearest(&coords, 1, 3, &[0.25], None).unwrap();
        assert_eq!((i, d2), (0, 0.0));
        // Excluding the winner promotes the equidistant higher row.
        let (i, _) = idx.nearest(&coords, 1, 3, &[0.25], Some(0)).unwrap();
        assert_eq!(i, 2);
    }

    #[test]
    fn empty_and_excluded_sets_return_nothing() {
        let idx = NeighborIndex::new();
        assert!(idx.nearest(&[], 1, 0, &[0.5], None).is_none());
        let coords = vec![0.5];
        let mut one = NeighborIndex::new();
        one.rebuild(&coords, 1, 1);
        assert!(one.nearest(&coords, 1, 1, &[0.5], Some(0)).is_none());
    }
}
