//! The control model: decide whether the tool or the estimator answers.
//!
//! The paper's three cases (§III-C): "First, if our design point is already
//! in the dataset, Dovado calls Vivado, which employs cached results as the
//! answer. Second, if the generated design point is similar enough to one
//! of the dataset points, Dovado employs the statistical model for an
//! estimate. Finally, if none of these applies, Dovado calls Vivado, adds
//! the new design pair to the dataset, and applies a new training/validation
//! step."

use crate::dataset::{Bounds, Dataset};
use crate::kernel::Kernel;
use crate::loocv::BandwidthSelector;
use crate::nw::NadarayaWatson;
use crate::similarity::phi_n;
use crate::threshold::ThresholdPolicy;
use rayon::prelude::*;

/// Default neighborhood size for truncated Nadaraya-Watson prediction.
/// 64 neighbors keep the estimate within the truncation bound on every
/// dataset the bench sweeps while making prediction cost O(k·log M)
/// instead of O(M). Set [`SurrogateController::neighbor_k`] to 0 for the
/// exact all-points estimator.
pub const DEFAULT_NEIGHBOR_K: usize = 64;

/// What the controller decided for a query point.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The exact point is in the dataset: call the tool, which answers from
    /// its cache (cheap). The stored metrics are attached.
    Cached(Vec<f64>),
    /// Similar enough (Φ ≤ Γ): use the estimator's prediction.
    Estimate(Vec<f64>),
    /// Too novel: run the tool, then feed the result back via
    /// [`SurrogateController::record`].
    Evaluate,
}

/// Statistics the controller keeps about its own decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Exact-hit decisions.
    pub cached: u64,
    /// Model estimates served.
    pub estimated: u64,
    /// Full evaluations requested.
    pub evaluated: u64,
}

impl ControlStats {
    /// Total decisions taken.
    pub fn total(&self) -> u64 {
        self.cached + self.estimated + self.evaluated
    }

    /// Fraction of decisions answered without a fresh tool run.
    pub fn savings_ratio(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.cached + self.estimated) as f64 / self.total() as f64
    }
}

/// A model-management event the controller logged: retrains and Γ moves.
///
/// The controller has no dependency on the host's telemetry, so it keeps
/// a small drainable log instead of emitting directly; the DSE layer
/// drains it with [`SurrogateController::take_events`] and forwards onto
/// its observability spine.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// LOO-CV re-selected the kernel bandwidth (a retrain).
    Reselected {
        /// The bandwidth chosen.
        bandwidth: f64,
    },
    /// A recorded pair moved the adaptive threshold Γ.
    GammaUpdated {
        /// The new Γ.
        gamma: f64,
    },
}

/// The fitness-approximation controller: dataset + NW model + threshold.
#[derive(Debug, Clone)]
pub struct SurrogateController {
    dataset: Dataset,
    model: NadarayaWatson,
    policy: ThresholdPolicy,
    /// Cached Γ, recomputed on every insertion.
    gamma: f64,
    /// Bandwidth grid for LOO-CV (empty = default grid).
    grid: Vec<f64>,
    /// Retrain (LOO-CV) every `retrain_every` insertions (1 = paper's
    /// "applies a new training/validation step" after every addition).
    pub retrain_every: usize,
    inserts_since_retrain: usize,
    /// Decision counters.
    pub stats: ControlStats,
    /// Undrained model-management events (retrains, Γ moves).
    events: Vec<ControlEvent>,
    /// Neighborhood size for truncated prediction and large-dataset
    /// LOO-CV (0 = exact: all points, at any dataset size).
    pub neighbor_k: usize,
    /// Persistent LOO-CV state: the running LOO sums survive across
    /// reselections and are *extended* by the rows recorded since,
    /// instead of being rebuilt from scratch each time.
    selector: BandwidthSelector,
}

impl SurrogateController {
    /// Creates a controller for points within `bounds` producing
    /// `n_outputs` metrics.
    pub fn new(bounds: Bounds, n_outputs: usize, policy: ThresholdPolicy) -> Self {
        SurrogateController {
            dataset: Dataset::new(bounds, n_outputs),
            model: NadarayaWatson {
                kernel: Kernel::Gaussian,
                bandwidth: 0.1,
            },
            policy,
            gamma: 0.0,
            grid: Vec::new(),
            retrain_every: 1,
            inserts_since_retrain: 0,
            stats: ControlStats::default(),
            events: Vec::new(),
            neighbor_k: DEFAULT_NEIGHBOR_K,
            selector: BandwidthSelector::new(),
        }
    }

    /// Uses a non-default kernel (ablation).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.model.kernel = kernel;
        self
    }

    /// Rebuilds a controller from journaled state, bitwise.
    ///
    /// Unlike [`SurrogateController::pretrain`], nothing is recomputed:
    /// the bandwidth, Γ, counters and — critically — the
    /// `inserts_since_retrain` phase of the amortized reselection cycle
    /// are installed exactly as captured, so a resumed run reselects its
    /// bandwidth at the same absolute record counts as an uninterrupted
    /// one. (A pretrain-based restore would reset the phase to zero and
    /// drift every later reselection by up to `retrain_every − 1`
    /// records.)
    ///
    /// Derived acceleration state is *not* journaled: the dataset's
    /// KD-tree arrives already rebuilt (CSV load goes through the bulk
    /// path) and the LOO-CV selector starts empty, so its running sums
    /// are rebuilt on the first post-resume reselection. Both are
    /// deterministic functions of the dataset and never leak into
    /// answers, so a resumed run stays bitwise an uninterrupted one.
    /// `neighbor_k` is config, not state — the caller re-applies it after
    /// restore, exactly as at construction.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        dataset: Dataset,
        kernel: Kernel,
        bandwidth: f64,
        policy: ThresholdPolicy,
        gamma: f64,
        retrain_every: usize,
        inserts_since_retrain: usize,
        stats: ControlStats,
    ) -> Self {
        SurrogateController {
            dataset,
            model: NadarayaWatson { kernel, bandwidth },
            policy,
            gamma,
            grid: Vec::new(),
            retrain_every,
            inserts_since_retrain,
            stats,
            events: Vec::new(),
            neighbor_k: DEFAULT_NEIGHBOR_K,
            selector: BandwidthSelector::new(),
        }
    }

    /// Drains the model-management events logged since the last drain
    /// (in the order they happened).
    pub fn take_events(&mut self) -> Vec<ControlEvent> {
        std::mem::take(&mut self.events)
    }

    /// Insertions since the last LOO-CV reselection (the amortization
    /// phase; journaled so resume keeps the reselection cadence aligned).
    pub fn inserts_since_retrain(&self) -> usize {
        self.inserts_since_retrain
    }

    /// Access to the dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The current model (kernel + selected bandwidth).
    pub fn model(&self) -> NadarayaWatson {
        self.model
    }

    /// The current threshold Γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Decides how to answer for `point`, updating the counters: a batch
    /// of one through [`SurrogateController::decide_batch`], so a
    /// bandwidth left stale by amortized recording is refreshed first.
    pub fn decide(&mut self, point: &[i64]) -> Decision {
        self.decide_batch(&[point.to_vec()], false)
            .pop()
            .expect("one decision per point")
    }

    /// Peeks at the decision without touching counters or refreshing a
    /// stale bandwidth. This is the pure read-only core of
    /// [`SurrogateController::decide_batch`]'s parallel decide phase.
    pub fn peek(&self, point: &[i64]) -> Decision {
        if let Some(cached) = self.dataset.get(point) {
            return Decision::Cached(cached.to_vec());
        }
        if let Some(phi) = phi_n(&self.dataset, point, 1) {
            if phi <= self.gamma {
                if let Some(est) = self
                    .model
                    .predict_topk(&self.dataset, point, self.neighbor_k)
                {
                    return Decision::Estimate(est);
                }
            }
        }
        Decision::Evaluate
    }

    /// Decides a whole generation at once against an immutable snapshot of
    /// the dataset — the read-only *decide* phase of the staged batch
    /// pipeline. Any bandwidth left stale by amortized recording is
    /// refreshed first, then every point is peeked (in parallel when
    /// `parallel` is set) and the counters are tallied serially in input
    /// order.
    ///
    /// Because the snapshot is fixed for the whole batch and `peek` is
    /// pure, the returned decisions are identical for the parallel and
    /// serial paths — thread count cannot leak into the answers.
    pub fn decide_batch(&mut self, points: &[Vec<i64>], parallel: bool) -> Vec<Decision> {
        self.refresh_model();
        let decisions: Vec<Decision> = if parallel {
            points.par_iter().map(|p| self.peek(p)).collect()
        } else {
            points.iter().map(|p| self.peek(p)).collect()
        };
        for d in &decisions {
            match d {
                Decision::Cached(_) => self.stats.cached += 1,
                Decision::Estimate(_) => self.stats.estimated += 1,
                Decision::Evaluate => self.stats.evaluated += 1,
            }
        }
        decisions
    }

    /// Re-runs LOO-CV bandwidth selection if insertions happened since the
    /// last selection. With `retrain_every == 1` (the paper's policy) the
    /// model can never be stale and this is a no-op; with amortized
    /// recording this is the point where the batch pipeline pays the
    /// selection cost once per generation instead of once per insert.
    pub fn refresh_model(&mut self) {
        if self.inserts_since_retrain > 0 {
            self.model.bandwidth = self.selector.select(
                &self.dataset,
                self.model.kernel,
                &self.grid,
                self.neighbor_k,
            );
            self.inserts_since_retrain = 0;
            self.events.push(ControlEvent::Reselected {
                bandwidth: self.model.bandwidth,
            });
        }
    }

    /// Feeds back a fresh tool result: inserts the pair, updates Γ, and —
    /// every [`SurrogateController::retrain_every`]-th insertion —
    /// re-validates the model (LOO-CV bandwidth). Between reselections the
    /// bandwidth is *stale*; [`SurrogateController::decide_batch`] refreshes
    /// it before the next generation's decisions, so amortization changes
    /// when selection runs, never which data decisions see. Returns whether
    /// the pair entered the dataset: non-finite outputs and
    /// penalty-magnitude sentinels are refused (defense in depth — the
    /// fitness layer already gates them, but one poisoned pair skews
    /// Nadaraya-Watson estimates for every neighboring query, so the
    /// dataset defends itself too).
    pub fn record(&mut self, point: Vec<i64>, outputs: Vec<f64>) -> bool {
        if !credible(&outputs) {
            return false;
        }
        self.dataset.insert(point, outputs);
        self.inserts_since_retrain += 1;
        if self.inserts_since_retrain >= self.retrain_every {
            self.model.bandwidth = self.selector.select(
                &self.dataset,
                self.model.kernel,
                &self.grid,
                self.neighbor_k,
            );
            self.inserts_since_retrain = 0;
            self.events.push(ControlEvent::Reselected {
                bandwidth: self.model.bandwidth,
            });
        }
        self.gamma = self.policy.gamma(&self.dataset);
        self.events
            .push(ControlEvent::GammaUpdated { gamma: self.gamma });
        true
    }

    /// Pre-trains on an existing synthetic dataset (the paper's M ≈ 100
    /// random Vivado calls before exploration starts). Pairs with
    /// non-credible outputs (see [`SurrogateController::record`]) are
    /// skipped.
    pub fn pretrain(&mut self, mut pairs: Vec<(Vec<i64>, Vec<f64>)>) {
        pairs.retain(|(_, o)| credible(o));
        self.dataset.insert_bulk(pairs);
        self.model.bandwidth = self.selector.select(
            &self.dataset,
            self.model.kernel,
            &self.grid,
            self.neighbor_k,
        );
        self.gamma = self.policy.gamma(&self.dataset);
        self.inserts_since_retrain = 0;
        self.events.push(ControlEvent::Reselected {
            bandwidth: self.model.bandwidth,
        });
        self.events
            .push(ControlEvent::GammaUpdated { gamma: self.gamma });
    }

    /// Direct model prediction regardless of the control policy (used for
    /// accuracy probes). Honors the configured truncation.
    pub fn predict(&self, point: &[i64]) -> Option<Vec<f64>> {
        self.model
            .predict_topk(&self.dataset, point, self.neighbor_k)
    }
}

/// Output magnitudes at or above this are treated as failure sentinels,
/// not measurements (the fitness layer's penalty vectors use 1e9).
const MAX_CREDIBLE_OUTPUT: f64 = 1e9;

/// Whether an output vector looks like a genuine measurement.
fn credible(outputs: &[f64]) -> bool {
    outputs
        .iter()
        .all(|v| v.is_finite() && v.abs() < MAX_CREDIBLE_OUTPUT)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Bounds {
        Bounds::new(vec![(0, 1000)])
    }

    fn truth(x: i64) -> Vec<f64> {
        let xf = x as f64 / 1000.0;
        vec![2.0 * xf + 0.3, 1.0 - xf]
    }

    fn pretrained(policy: ThresholdPolicy) -> SurrogateController {
        let mut c = SurrogateController::new(bounds(), 2, policy);
        let pairs: Vec<_> = (0..=20)
            .map(|i| {
                let x = i * 50;
                (vec![x], truth(x))
            })
            .collect();
        c.pretrain(pairs);
        c
    }

    #[test]
    fn case1_exact_point_is_cached() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        match c.decide(&[500]) {
            Decision::Cached(v) => assert_eq!(v, truth(500)),
            other => panic!("expected Cached, got {other:?}"),
        }
        assert_eq!(c.stats.cached, 1);
    }

    #[test]
    fn case2_near_point_is_estimated() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        // Grid spacing 50/1000 = 0.05 normalized → Γ = 0.05. Point 510 is
        // 0.01 from the nearest sample → estimate.
        match c.decide(&[510]) {
            Decision::Estimate(v) => {
                assert!((v[0] - truth(510)[0]).abs() < 0.05, "{v:?}");
            }
            other => panic!("expected Estimate, got {other:?}"),
        }
        assert_eq!(c.stats.estimated, 1);
    }

    #[test]
    fn case3_far_point_is_evaluated_and_learned() {
        // With the adaptive policy on a sparse dataset Γ would be huge and
        // everything would be estimated; a small fixed Γ forces evaluation.
        let mut c = pretrained(ThresholdPolicy::Fixed(0.001));
        match c.decide(&[777]) {
            Decision::Evaluate => {}
            other => panic!("expected Evaluate, got {other:?}"),
        }
        c.record(vec![777], truth(777));
        // Now it's cached.
        assert!(matches!(c.decide(&[777]), Decision::Cached(_)));
        assert_eq!(c.stats.evaluated, 1);
        assert_eq!(c.stats.cached, 1);
    }

    #[test]
    fn never_policy_always_evaluates_new_points() {
        let mut c = pretrained(ThresholdPolicy::Never);
        assert!(matches!(c.decide(&[510]), Decision::Evaluate));
        // …but exact hits still answer from cache (paper case 1).
        assert!(matches!(c.decide(&[500]), Decision::Cached(_)));
    }

    #[test]
    fn gamma_updates_on_record() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        let g0 = c.gamma();
        assert!(g0 > 0.0);
        // Insert a point very close to an existing one → Γ shrinks.
        c.record(vec![501], truth(501));
        assert!(c.gamma() < g0);
    }

    #[test]
    fn retraining_selects_bandwidth() {
        let c = pretrained(ThresholdPolicy::paper_default());
        // Smooth dense data: bandwidth must not be the huge end of the grid.
        assert!(c.model().bandwidth < 0.5);
    }

    #[test]
    fn empty_controller_evaluates_everything() {
        let mut c = SurrogateController::new(bounds(), 2, ThresholdPolicy::paper_default());
        assert!(matches!(c.decide(&[3]), Decision::Evaluate));
        assert_eq!(c.stats.evaluated, 1);
    }

    #[test]
    fn savings_ratio() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        let _ = c.decide(&[500]); // cached
        let _ = c.decide(&[510]); // estimate
        let _ = c.decide(&[503]); // estimate (close to grid)
        let s = c.stats;
        assert_eq!(s.total(), 3);
        assert!(s.savings_ratio() > 0.99);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        let _ = c.peek(&[500]);
        assert_eq!(c.stats.total(), 0);
        let _ = c.decide(&[500]);
        assert_eq!(c.stats.total(), 1);
    }

    #[test]
    fn record_refuses_penalty_and_non_finite_outputs() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        let n0 = c.dataset().len();
        let g0 = c.gamma();
        assert!(!c.record(vec![333], vec![0.0, 1e9]));
        assert!(!c.record(vec![334], vec![f64::NAN, 0.5]));
        assert!(!c.record(vec![335], vec![f64::INFINITY, 0.5]));
        assert_eq!(
            c.dataset().len(),
            n0,
            "sentinel outputs must not be learned"
        );
        assert_eq!(c.gamma(), g0, "refused pairs must not move Γ");
        assert!(c.record(vec![336], truth(336)));
        assert_eq!(c.dataset().len(), n0 + 1);
    }

    #[test]
    fn pretrain_skips_sentinel_pairs() {
        let mut c = SurrogateController::new(bounds(), 2, ThresholdPolicy::paper_default());
        c.pretrain(vec![
            (vec![0], truth(0)),
            (vec![500], vec![1e9, 0.0]), // a failed sample's penalty vector
            (vec![1000], truth(1000)),
        ]);
        assert_eq!(c.dataset().len(), 2);
        assert!(c.dataset().get(&[500]).is_none());
    }

    #[test]
    fn decide_batch_matches_sequential_peeks() {
        let points: Vec<Vec<i64>> = vec![vec![500], vec![510], vec![777], vec![500]];
        let a = pretrained(ThresholdPolicy::paper_default());
        let expect: Vec<Decision> = points.iter().map(|p| a.peek(p)).collect();
        for parallel in [false, true] {
            let mut c = pretrained(ThresholdPolicy::paper_default());
            let got = c.decide_batch(&points, parallel);
            assert_eq!(got, expect, "parallel = {parallel}");
            assert_eq!(c.stats.total(), points.len() as u64);
            assert_eq!(c.stats.cached, 2);
        }
    }

    #[test]
    fn parallel_and_serial_batches_agree_bitwise() {
        let points: Vec<Vec<i64>> = (0..64).map(|i| vec![i * 16 + 3]).collect();
        let mut serial = pretrained(ThresholdPolicy::paper_default());
        let mut par = pretrained(ThresholdPolicy::paper_default());
        let ds = serial.decide_batch(&points, false);
        let dp = par.decide_batch(&points, true);
        for (a, b) in ds.iter().zip(&dp) {
            match (a, b) {
                (Decision::Estimate(x), Decision::Estimate(y))
                | (Decision::Cached(x), Decision::Cached(y)) => {
                    for (u, v) in x.iter().zip(y) {
                        assert_eq!(u.to_bits(), v.to_bits());
                    }
                }
                (Decision::Evaluate, Decision::Evaluate) => {}
                other => panic!("decisions diverged: {other:?}"),
            }
        }
        assert_eq!(serial.stats, par.stats);
    }

    #[test]
    fn amortized_record_defers_reselection() {
        let mut eager = pretrained(ThresholdPolicy::paper_default());
        let mut lazy = pretrained(ThresholdPolicy::paper_default());
        lazy.retrain_every = 8;
        let h0 = lazy.model().bandwidth;
        // Pile correlated points into one corner: the eager controller's
        // bandwidth moves, the lazy one's must not until refreshed.
        for x in [901, 903, 905, 907] {
            eager.record(vec![x], truth(x));
            lazy.record(vec![x], truth(x));
        }
        assert_eq!(lazy.model().bandwidth, h0, "reselection must be deferred");
        // Γ still tracks every insertion even when the bandwidth lags.
        assert_eq!(lazy.gamma(), eager.gamma());
        // A batch decide refreshes the stale bandwidth to the eager value:
        // both controllers hold identical datasets, so LOO-CV agrees.
        let _ = lazy.decide_batch(&[vec![910]], false);
        assert_eq!(lazy.model().bandwidth, eager.model().bandwidth);
    }

    #[test]
    fn decide_refreshes_a_stale_bandwidth_like_decide_batch() {
        // Amortized recording leaves the bandwidth stale. The single-point
        // path must refresh it exactly as a batch of one does, or its
        // estimates come from a bandwidth the data no longer selects.
        let mut c = SurrogateController::new(bounds(), 2, ThresholdPolicy::paper_default());
        c.retrain_every = 100;
        c.pretrain((0..=10).map(|i| (vec![i * 100], truth(i * 100))).collect());
        // Noisy measurements: LOO-CV now prefers a smoother bandwidth.
        for i in 0..40 {
            let x = 7 + i * 23;
            let noise = ((x * 7919) % 11 - 5) as f64 * 0.02;
            let t = truth(x);
            c.record(vec![x], vec![t[0] + noise, t[1] - noise]);
        }
        let stale = c.model().bandwidth;
        let mut batch = c.clone();
        let mut estimated = 0;
        for q in (0..1000).step_by(3) {
            let one = c.decide(&[q]);
            let many = batch.decide_batch(&[vec![q]], false).remove(0);
            estimated += usize::from(matches!(one, Decision::Estimate(_)));
            assert_eq!(one, many, "q = {q}");
        }
        assert!(estimated > 0);
        assert_ne!(c.model().bandwidth, stale, "the first decide refreshes");
        assert_eq!(
            c.model().bandwidth.to_bits(),
            batch.model().bandwidth.to_bits()
        );
        assert_eq!(c.stats, batch.stats);
    }

    #[test]
    fn restore_preserves_amortization_phase() {
        let policy = ThresholdPolicy::paper_default();
        let mut a = pretrained(policy);
        a.retrain_every = 4;
        for x in [901, 903] {
            a.record(vec![x], truth(x)); // phase is now 2 of 4
        }
        assert_eq!(a.inserts_since_retrain(), 2);

        // Bitwise restore carries the phase...
        let mut b = SurrogateController::restore(
            a.dataset().clone(),
            a.model().kernel,
            a.model().bandwidth,
            policy,
            a.gamma(),
            a.retrain_every,
            a.inserts_since_retrain(),
            a.stats,
        );
        // ...while a pretrain-style rebuild resets it to 0 (the off-by-K
        // drift this constructor exists to prevent).
        let mut c = SurrogateController::new(bounds(), 2, policy);
        c.pretrain(
            a.dataset()
                .raw_points()
                .iter()
                .zip(a.dataset().outputs())
                .map(|(p, o)| (p.clone(), o.clone()))
                .collect(),
        );
        c.retrain_every = a.retrain_every;

        // Two more records cross the a/b reselection boundary (2+2 = 4).
        for x in [905, 907] {
            a.record(vec![x], truth(x));
            b.record(vec![x], truth(x));
            c.record(vec![x], truth(x));
        }
        assert_eq!(a.inserts_since_retrain(), 0, "a reselected at 4 inserts");
        assert_eq!(
            b.model().bandwidth.to_bits(),
            a.model().bandwidth.to_bits(),
            "restored controller must reselect at the same absolute count"
        );
        assert_eq!(b.inserts_since_retrain(), a.inserts_since_retrain());
        assert_eq!(
            c.inserts_since_retrain(),
            2,
            "the naive rebuild is mid-cycle and has not reselected"
        );
    }

    #[test]
    fn control_events_are_logged_and_drained() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        let setup = c.take_events();
        assert!(
            setup
                .iter()
                .any(|e| matches!(e, ControlEvent::Reselected { .. })),
            "pretrain must log its reselection: {setup:?}"
        );
        c.record(vec![911], truth(911)); // retrain_every = 1 → reselect + Γ
        let evs = c.take_events();
        assert!(matches!(evs[0], ControlEvent::Reselected { bandwidth } if bandwidth > 0.0));
        assert!(matches!(evs[1], ControlEvent::GammaUpdated { gamma } if gamma > 0.0));
        assert!(c.take_events().is_empty(), "drain must empty the log");
    }

    #[test]
    fn refresh_model_is_noop_when_fresh() {
        let mut c = pretrained(ThresholdPolicy::paper_default());
        c.record(vec![911], truth(911)); // retrain_every = 1 → reselects now
        let h = c.model().bandwidth;
        c.refresh_model();
        assert_eq!(c.model().bandwidth, h);
    }

    #[test]
    fn default_truncation_is_bitwise_exact_below_k_rows() {
        // With fewer dataset rows than neighbor_k, the truncated
        // estimator must reproduce the exact one bit for bit — the whole
        // candidate set is kept and re-accumulated in row order.
        let trunc = pretrained(ThresholdPolicy::paper_default());
        let mut exact = pretrained(ThresholdPolicy::paper_default());
        exact.neighbor_k = 0;
        assert!(trunc.dataset().len() <= trunc.neighbor_k);
        for x in (0..1000).step_by(37) {
            let a = exact.predict(&[x]).unwrap();
            let b = trunc.predict(&[x]).unwrap();
            for (u, v) in a.iter().zip(&b) {
                assert_eq!(u.to_bits(), v.to_bits(), "x = {x}");
            }
        }
    }

    #[test]
    fn estimates_track_truth_on_smooth_metrics() {
        let c = pretrained(ThresholdPolicy::paper_default());
        let mut worst = 0.0f64;
        for x in (25..1000).step_by(100) {
            let est = c.predict(&[x]).unwrap();
            let t = truth(x);
            worst = worst.max((est[0] - t[0]).abs()).max((est[1] - t[1]).abs());
        }
        assert!(worst < 0.08, "worst error {worst}");
    }
}
