//! Fast non-dominated sorting (Deb et al., NSGA-II).
//!
//! "The sorting by non-domination reduces computational complexity" (§III-B1
//! citing \[12\]): this is the O(M·N²) algorithm from the NSGA-II paper,
//! assigning each individual a front rank.
//!
//! The objectives are first copied into one flat row-major matrix, and
//! each pair is compared once, deciding both dominance directions in the
//! same pass. Each individual's dominated set is a bitset, walked in
//! ascending index. Deb's lists hold the same indices in the same
//! ascending order, so the fronts, their order and the ranks are Deb's,
//! while a sort makes a fixed handful of allocations plus one per front.

use crate::individual::Individual;

/// Sorts a population into non-domination fronts.
///
/// Returns the fronts as index vectors (front 0 first) and writes each
/// individual's `rank`. A front's members appear in the order Deb's
/// algorithm finds them: front 0 ascending, every later front in the
/// order the previous front's members release them. Dominance is
/// [`Individual::dominates`]: a NaN objective is neither better nor worse
/// than anything, and a pair of individuals of different lengths is
/// compared over their common prefix.
pub fn fast_non_dominated_sort(pop: &mut [Individual]) -> Vec<Vec<usize>> {
    let n = pop.len();
    if n == 0 {
        return Vec::new();
    }
    // Ragged rows pad with NaN, which compares as neither side: the same
    // as `dominates` zipping the two rows.
    let m = pop.iter().map(|i| i.min_objs.len()).max().unwrap_or(0);
    let mut objs = Vec::with_capacity(n * m);
    for ind in pop.iter() {
        objs.extend_from_slice(&ind.min_objs);
        objs.resize(objs.len() + m - ind.min_objs.len(), f64::NAN);
    }
    // dominated[p·words..]: the bitset of solutions p dominates;
    // counts[p]: how many dominate p.
    let words = n.div_ceil(64);
    let mut dominated = vec![0u64; n * words];
    let mut counts = vec![0usize; n];
    for p in 0..n {
        let a = &objs[p * m..p * m + m];
        for q in (p + 1)..n {
            let b = &objs[q * m..q * m + m];
            let (mut p_better, mut q_better) = (false, false);
            for (x, y) in a.iter().zip(b) {
                p_better |= x < y;
                q_better |= x > y;
            }
            if p_better && !q_better {
                dominated[p * words + q / 64] |= 1 << (q % 64);
                counts[q] += 1;
            } else if q_better && !p_better {
                dominated[q * words + p / 64] |= 1 << (p % 64);
                counts[p] += 1;
            }
        }
    }

    // `order` lists the individuals front by front; a front's members
    // release the next front's as their dominated sets are walked.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    order.extend((0..n).filter(|&i| counts[i] == 0));
    let mut start = 0usize;
    let mut rank = 0usize;
    while start < order.len() {
        let end = order.len();
        for at in start..end {
            let p = order[at];
            pop[p].rank = rank;
            for (w, &word) in dominated[p * words..p * words + words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let q = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    counts[q] -= 1;
                    if counts[q] == 0 {
                        order.push(q);
                    }
                }
            }
        }
        start = end;
        rank += 1;
    }
    let mut fronts: Vec<Vec<usize>> = Vec::with_capacity(rank);
    for members in order.chunk_by(|&a, &b| pop[a].rank == pop[b].rank) {
        fronts.push(members.to_vec());
    }
    fronts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ind(objs: &[f64]) -> Individual {
        Individual::new(vec![], objs.to_vec(), objs.to_vec())
    }

    /// Deb's sort as first written: `Vec` dominated lists and
    /// `Individual::dominates` in both directions. The oracle the bitset
    /// sort must match front for front, in order.
    fn deb_oracle(pop: &mut [Individual]) -> Vec<Vec<usize>> {
        let n = pop.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut counts: Vec<usize> = vec![0; n];
        for p in 0..n {
            for q in (p + 1)..n {
                if pop[p].dominates(&pop[q]) {
                    dominated[p].push(q);
                    counts[q] += 1;
                } else if pop[q].dominates(&pop[p]) {
                    dominated[q].push(p);
                    counts[p] += 1;
                }
            }
        }
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
        let mut rank = 0usize;
        while !current.is_empty() {
            for &i in &current {
                pop[i].rank = rank;
            }
            let mut next = Vec::new();
            for &p in &current {
                for &q in &dominated[p] {
                    counts[q] -= 1;
                    if counts[q] == 0 {
                        next.push(q);
                    }
                }
            }
            fronts.push(std::mem::take(&mut current));
            current = next;
            rank += 1;
        }
        fronts
    }

    /// Objective values with heavy ties, both zeros, both infinities and
    /// NaN.
    fn palette_value(rng: &mut StdRng) -> f64 {
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        match rng.gen_range(0..10) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => rng.gen_range(-1.0..1.0),
            _ => f64::from(rng.gen_range(0..4)),
        }
    }

    #[test]
    fn matches_debs_sort_front_for_front() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..600 {
            // Sizes across 0..=200 cover bitsets of one to four words.
            let n = if case < 201 {
                case
            } else {
                rng.gen_range(0..=200)
            };
            let m = rng.gen_range(1..=5);
            let mut pop: Vec<Individual> = (0..n)
                .map(|_| {
                    let objs: Vec<f64> = (0..m).map(|_| palette_value(&mut rng)).collect();
                    ind(&objs)
                })
                .collect();
            // Whole duplicates of earlier members.
            for i in 1..n {
                if rng.gen_range(0..8) == 0 {
                    pop[i] = pop[rng.gen_range(0..i)].clone();
                }
            }
            let mut want = pop.clone();
            let want_fronts = deb_oracle(&mut want);
            let got_fronts = fast_non_dominated_sort(&mut pop);
            assert_eq!(got_fronts, want_fronts, "n={n} m={m}");
            let ranks = |p: &[Individual]| p.iter().map(|i| i.rank).collect::<Vec<_>>();
            assert_eq!(ranks(&pop), ranks(&want), "n={n} m={m}");
        }
    }

    #[test]
    fn ragged_objectives_compare_over_the_common_prefix() {
        // A journal can hand over rows of different lengths. The flat
        // matrix pads short rows with NaN, which compares as neither
        // side, so each pair compares over its common prefix: 2 ≻ 0 on
        // (1, 4) vs (1, 5), 2 ≻ 1 and 0 ≻ 1 on the first objective, and
        // 1 ≻ 3 on (2) vs (3).
        let mut pop = vec![
            ind(&[1.0, 5.0, 0.0]),
            ind(&[2.0]),
            ind(&[1.0, 4.0]),
            ind(&[3.0, 3.0, 3.0, 3.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts, vec![vec![2], vec![0], vec![1], vec![3]]);
        let ranks: Vec<usize> = pop.iter().map(|i| i.rank).collect();
        assert_eq!(ranks, vec![1, 2, 0, 3]);
    }

    #[test]
    fn empty_population() {
        let mut pop: Vec<Individual> = vec![];
        assert!(fast_non_dominated_sort(&mut pop).is_empty());
    }

    #[test]
    fn single_front_when_all_trade_off() {
        let mut pop = vec![
            ind(&[1.0, 4.0]),
            ind(&[2.0, 3.0]),
            ind(&[3.0, 2.0]),
            ind(&[4.0, 1.0]),
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 4);
        assert!(pop.iter().all(|i| i.rank == 0));
    }

    #[test]
    fn layered_fronts() {
        let mut pop = vec![
            ind(&[1.0, 1.0]), // front 0
            ind(&[2.0, 2.0]), // front 1
            ind(&[3.0, 3.0]), // front 2
            ind(&[1.5, 0.5]), // front 0 (trade-off with [1,1])
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0, 3]);
        assert_eq!(fronts[1], vec![1]);
        assert_eq!(fronts[2], vec![2]);
        assert_eq!(pop[3].rank, 0);
        assert_eq!(pop[2].rank, 2);
    }

    #[test]
    fn duplicates_share_a_front() {
        let mut pop = vec![ind(&[1.0, 1.0]), ind(&[1.0, 1.0]), ind(&[2.0, 2.0])];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(fronts[0].len(), 2);
        assert_eq!(fronts[1], vec![2]);
    }

    #[test]
    fn ranks_cover_population() {
        let mut pop: Vec<Individual> = (0..20)
            .map(|i| {
                let x = i as f64;
                ind(&[x, 20.0 - x, (x - 10.0).abs()])
            })
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
        assert!(pop.iter().all(|i| i.rank != usize::MAX));
    }

    #[test]
    fn three_objectives() {
        let mut pop = vec![
            ind(&[1.0, 2.0, 3.0]),
            ind(&[3.0, 2.0, 1.0]),
            ind(&[2.0, 2.0, 2.0]),
            ind(&[3.0, 3.0, 3.0]), // dominated by all except maybe
        ];
        let fronts = fast_non_dominated_sort(&mut pop);
        assert_eq!(pop[3].rank, 1);
        assert_eq!(fronts[0].len(), 3);
    }
}
