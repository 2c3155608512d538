//! The harness's own arithmetic: order statistics, interval algebra for
//! the traced timeline, and the normalised hypervolume of a front.
//!
//! Everything here is pure and unit-tested (`cargo test --manifest-path
//! perfbench/Cargo.toml`), because every number the benchmark prints
//! passes through it.

/// A half-open wall-clock interval `[start, end)` in seconds since the
/// traced run's origin.
pub type Interval = (f64, f64);

/// Median of `samples` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between closest
/// ranks, the rule `statistics.quantiles(..., method="inclusive")` uses.
/// `0.0` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [u32; 5] = [99, 95, 90, 75, 50];

/// The highest percentile, no higher than `cap`, that has at least ten
/// samples beyond it, with its value. A tail resting on fewer than ten
/// samples is noise, so with fewer than 20 samples there is no tail above
/// the median and the median itself is returned (as percentile 50).
pub fn tail(samples: &[f64], cap: u32) -> (u32, f64) {
    let n = samples.len() as f64;
    for p in TAIL_PERCENTILES {
        if p > cap {
            continue;
        }
        let beyond = n * f64::from(100 - p) / 100.0;
        if beyond >= 10.0 {
            return (p, quantile(samples, f64::from(p) / 100.0));
        }
    }
    (50, median(samples))
}

/// Total length covered by the union of `intervals` (overlaps counted
/// once; empty or inverted intervals contribute nothing).
pub fn union_len(intervals: &[Interval]) -> f64 {
    merge(intervals)
        .iter()
        .fold(0.0, |acc, (s, e)| acc + (e - s))
}

/// The union of `intervals` as sorted, disjoint intervals.
pub fn merge(intervals: &[Interval]) -> Vec<Interval> {
    let mut v: Vec<Interval> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Clips every interval to `window`, dropping those left empty.
pub fn clip(intervals: &[Interval], window: Interval) -> Vec<Interval> {
    intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| e > s)
        .collect()
}

/// Self time of a span: its duration minus the part of it that the union
/// of its children covers (children overlapping each other, as parallel
/// tool sessions do, are counted once; parts outside the span not at all).
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    (span.1 - span.0).max(0.0) - union_len(&clip(children, span))
}

/// Unused capacity of a `slots`-way fan-out: for each batch window, the
/// slot-seconds it offered (`slots × duration`) minus the slot-seconds
/// its sessions occupied inside it. This is the time slots sat idle while
/// the batch waited for its slowest member.
pub fn idle_slot_time(batches: &[Interval], sessions: &[Interval], slots: usize) -> f64 {
    batches
        .iter()
        .map(|&b| {
            let offered = slots as f64 * (b.1 - b.0).max(0.0);
            let busy = clip(sessions, b)
                .iter()
                .fold(0.0, |acc, (s, e)| acc + (e - s));
            (offered - busy).max(0.0)
        })
        .fold(0.0, |acc, idle| acc + idle)
}

/// The rate between consecutive `(count, total)` marks of two running
/// tallies, such as jobs completed and CPU seconds used: for each pair of
/// neighbouring marks, how much the total grew per unit the count grew.
/// Pairs over which the count did not grow are skipped.
pub fn window_rates(marks: &[(usize, f64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0) as f64)
        .collect()
}

/// Hypervolume of a front normalised to a fixed box, in `[0, 1]`.
///
/// `front` holds objective vectors in their natural sense; `maximize[i]`
/// marks objectives to maximise. The box runs from the ideal corner (0 for
/// a minimised objective, `bound[i]` for a maximised one) to the fixed
/// reference corner (`bound[i]` for a minimised objective, 0 for a
/// maximised one): for resource counts the bound is the part's capacity,
/// for Fmax the constrained clock. Each point is mapped into the unit cube
/// (clamped to it) and the hypervolume is taken against `(1, …, 1)`, so
/// the box itself has volume 1 and the result is comparable across runs.
pub fn normalised_hv(front: &[Vec<f64>], maximize: &[bool], bound: &[f64]) -> f64 {
    let points: Vec<Vec<f64>> = front
        .iter()
        .map(|p| {
            p.iter()
                .zip(maximize.iter().zip(bound))
                .map(|(&v, (&max, &b))| {
                    let u = if max { 1.0 - v / b } else { v / b };
                    u.clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect();
    dovado_moo::hypervolume(&points, &vec![1.0; maximize.len()])
}

/// Mean of `samples`; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert!(close(median(&s), 2.5));
        assert!(close(quantile(&s, 0.0), 1.0));
        assert!(close(quantile(&s, 1.0), 4.0));
        assert!(close(quantile(&s, 0.25), 1.75));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves exactly 10 beyond it, p95 only 5.
        assert_eq!(tail(&s, 99).0, 90);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 99).0, 99);
        assert_eq!(tail(&s, 90).0, 90, "the cap bounds the percentile");
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s, 99).0, 75);
        // Fewer than 20 samples: no tail above the median.
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        let (p, v) = tail(&s, 99);
        assert_eq!(p, 50);
        assert!(close(v, 10.0));
    }

    #[test]
    fn union_counts_overlapping_sessions_once() {
        // Two slots: sessions overlap in [1, 2) and [3, 3.5).
        let sessions = [(0.0, 2.0), (1.0, 3.5), (3.0, 4.0), (5.0, 6.0)];
        assert!(close(union_len(&sessions), 5.0));
        assert_eq!(merge(&sessions), vec![(0.0, 4.0), (5.0, 6.0)]);
        // Touching intervals merge; empty ones vanish.
        assert!(close(union_len(&[(0.0, 1.0), (1.0, 2.0), (3.0, 3.0)]), 2.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_inside_the_span() {
        let span = (0.0, 10.0);
        let children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0), (-2.0, -1.0)];
        // Covered: [1, 4) and [9, 10) = 4 s; self = 6 s.
        assert!(close(self_time(span, &children), 6.0));
        assert!(close(self_time(span, &[]), 10.0));
    }

    #[test]
    fn idle_slots_count_unused_fan_out_capacity() {
        // One batch of 4 s on 2 slots: slot A busy 4 s, slot B busy 1 s.
        let batches = [(0.0, 4.0)];
        let sessions = [(0.0, 2.0), (2.0, 4.0), (0.0, 1.0)];
        assert!(close(idle_slot_time(&batches, &sessions, 2), 3.0));
        // A perfectly packed batch wastes nothing; sessions outside every
        // batch are ignored.
        let sessions = [(0.0, 4.0), (0.0, 4.0), (7.0, 8.0)];
        assert!(close(idle_slot_time(&batches, &sessions, 2), 0.0));
        // Serial schedule on one slot: no idle capacity.
        assert!(close(idle_slot_time(&batches, &[(0.0, 4.0)], 1), 0.0));
    }

    #[test]
    fn hypervolume_is_normalised_to_the_fixed_box() {
        let maximize = [false, true];
        let bound = [100.0, 500.0];
        // A point at the ideal corner covers the whole box.
        assert!(close(
            normalised_hv(&[vec![0.0, 500.0]], &maximize, &bound),
            1.0
        ));
        // 25 LUTs of 100 and 250 MHz of 500: (1 - 0.25) * (1 - 0.5).
        assert!(close(
            normalised_hv(&[vec![25.0, 250.0]], &maximize, &bound),
            0.375
        ));
        // Two non-dominated points: union of their boxes.
        let hv = normalised_hv(&[vec![25.0, 250.0], vec![50.0, 400.0]], &maximize, &bound);
        assert!(close(hv, 0.375 + 0.5 * (0.8 - 0.5)));
        // Out-of-box values clamp: beyond capacity adds nothing, beyond the
        // clock bound counts as the bound.
        assert!(close(
            normalised_hv(&[vec![150.0, 250.0]], &maximize, &bound),
            0.0
        ));
        assert!(close(
            normalised_hv(&[vec![0.0, 900.0]], &maximize, &bound),
            1.0
        ));
        assert_eq!(normalised_hv(&[], &maximize, &bound), 0.0);
    }

    #[test]
    fn window_rates_divide_growth_between_neighbouring_marks() {
        // 0.02 s over the first 2 jobs, 0.09 s over the next 3; the mark at
        // which no job completed opens no window.
        let marks = [(0, 1.0), (2, 1.02), (2, 1.03), (5, 1.12)];
        let rates = window_rates(&marks);
        assert_eq!(rates.len(), 2);
        assert!(close(rates[0], 0.01));
        assert!(close(rates[1], 0.03));
        assert!(window_rates(&marks[..1]).is_empty());
    }
}
