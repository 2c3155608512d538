//! Property-based tests over the core data structures and invariants,
//! spanning all workspace crates.

use dovado::csv;
use dovado::{fmax_mhz, DesignPoint, Domain, ParameterSpace};
use dovado_eda::tcl::expr::eval_expr;
use dovado_moo::{fast_non_dominated_sort, hypervolume, non_dominated_indices, Individual};
use dovado_surrogate::{
    loo_mse, BandwidthSelector, Bounds, Dataset, Kernel, NadarayaWatson, ThresholdPolicy,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- space --

fn domain_strategy() -> impl Strategy<Value = Domain> {
    prop_oneof![
        (any::<i32>(), 1i64..500, 1i64..7).prop_map(|(lo, n, step)| {
            let lo = lo as i64 % 10_000;
            Domain::Range {
                lo,
                hi: lo + (n - 1) * step,
                step,
            }
        }),
        (0u32..20, 0u32..20).prop_map(|(a, b)| Domain::PowerOfTwo {
            min_exp: a.min(b),
            max_exp: a.max(b),
        }),
        proptest::collection::btree_set(-1000i64..1000, 1..12)
            .prop_map(|s| Domain::Explicit(s.into_iter().collect())),
        Just(Domain::Bool),
    ]
}

proptest! {
    #[test]
    fn domain_index_value_roundtrip(d in domain_strategy()) {
        prop_assert!(d.validate().is_ok());
        let n = d.cardinality();
        prop_assert!(n >= 1);
        for idx in 0..n.min(64) {
            let v = d.value(idx).expect("index in range");
            prop_assert_eq!(d.index_of(v), Some(idx));
        }
        prop_assert!(d.value(n).is_none());
    }

    #[test]
    fn domain_values_strictly_increasing(d in domain_strategy()) {
        let n = d.cardinality().min(64);
        let vals: Vec<i64> = (0..n).map(|i| d.value(i).unwrap()).collect();
        prop_assert!(vals.windows(2).all(|w| w[0] < w[1]), "{:?}", vals);
    }

    #[test]
    fn space_decode_encode_roundtrip(
        d1 in domain_strategy(),
        d2 in domain_strategy(),
        seed in 0u64..1000,
    ) {
        let space = ParameterSpace::new().with("A", d1).with("B", d2);
        let vars = space.index_vars();
        let g: Vec<i64> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| v.lo + ((seed as i64 + i as i64 * 31) % (v.hi - v.lo + 1)))
            .collect();
        let point = space.decode(&g).expect("genome in range");
        prop_assert_eq!(space.encode(&point).unwrap(), g);
    }
}

// ------------------------------------------------------------ surrogate --

proptest! {
    #[test]
    fn nw_prediction_bounded_by_dataset_outputs(
        pts in proptest::collection::btree_map(0i64..1000, -100.0f64..100.0, 2..30),
        query in 0i64..1000,
        bw in 0.01f64..2.0,
    ) {
        let mut ds = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        for (x, y) in &pts {
            ds.insert(vec![*x], vec![*y]);
        }
        let lo = pts.values().cloned().fold(f64::INFINITY, f64::min);
        let hi = pts.values().cloned().fold(f64::NEG_INFINITY, f64::max);
        let nw = NadarayaWatson { kernel: Kernel::Gaussian, bandwidth: bw };
        let y = nw.predict(&ds, &[query]).unwrap()[0];
        prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9, "{y} outside [{lo}, {hi}]");
    }

    #[test]
    fn adaptive_gamma_nonnegative_and_bounded(
        pts in proptest::collection::btree_set(0i64..1000, 2..40),
    ) {
        let mut ds = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        for x in &pts {
            ds.insert(vec![*x], vec![0.0]);
        }
        let g = ThresholdPolicy::paper_default().gamma(&ds);
        prop_assert!(g >= 0.0);
        // Γ is a mean of normalized nearest-neighbour distances ≤ 1.
        prop_assert!(g <= 1.0 + 1e-12, "gamma {g}");
    }

    #[test]
    fn phi_zero_iff_exact_point(
        pts in proptest::collection::btree_set(0i64..1000, 1..20),
        q in 0i64..1000,
    ) {
        let mut ds = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        for x in &pts {
            ds.insert(vec![*x], vec![1.0]);
        }
        let phi = dovado_surrogate::phi_n(&ds, &[q], 1).unwrap();
        if pts.contains(&q) {
            prop_assert_eq!(phi, 0.0);
        } else {
            prop_assert!(phi > 0.0);
        }
    }

    #[test]
    fn truncated_prediction_bitwise_exact_when_k_covers_dataset(
        pts in proptest::collection::btree_map(0i64..1000, -100.0f64..100.0, 2..30),
        query in 0i64..1000,
        bw in 0.01f64..2.0,
        extra in 0usize..4,
    ) {
        // With k ≥ M the truncated estimator keeps every candidate and
        // re-accumulates them in row order — so it must reproduce the
        // exact path bit for bit, not merely approximately.
        let mut ds = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        for (x, y) in &pts {
            ds.insert(vec![*x], vec![*y]);
        }
        let nw = NadarayaWatson { kernel: Kernel::Gaussian, bandwidth: bw };
        let exact = nw.predict(&ds, &[query]).unwrap()[0];
        let trunc = nw.predict_topk(&ds, &[query], ds.len() + extra).unwrap()[0];
        prop_assert_eq!(exact.to_bits(), trunc.to_bits());
    }

    #[test]
    fn truncated_prediction_within_truncation_bound(
        pts in proptest::collection::btree_map(0i64..1000, -100.0f64..100.0, 4..40),
        query in 0i64..1000,
        bw in 0.05f64..2.0,
        k in 1usize..12,
    ) {
        // Dropping the M−k farthest points can move a weighted average by
        // at most range·(M−k)/M: every dropped weight is bounded by the
        // smallest kept one (the kernel is monotone in distance). The
        // bandwidth floor keeps the Gaussian weights far from the
        // underflow fallback so the bound applies on both paths.
        let mut ds = Dataset::new(Bounds::new(vec![(0, 1000)]), 1);
        for (x, y) in &pts {
            ds.insert(vec![*x], vec![*y]);
        }
        let m = ds.len();
        let lo = pts.values().cloned().fold(f64::INFINITY, f64::min);
        let hi = pts.values().cloned().fold(f64::NEG_INFINITY, f64::max);
        let nw = NadarayaWatson { kernel: Kernel::Gaussian, bandwidth: bw };
        let exact = nw.predict(&ds, &[query]).unwrap()[0];
        let trunc = nw.predict_topk(&ds, &[query], k).unwrap()[0];
        let dropped = m.saturating_sub(k) as f64;
        let bound = (hi - lo) * dropped / m as f64 + 1e-9;
        prop_assert!(
            (exact - trunc).abs() <= bound,
            "|{exact} - {trunc}| > {bound} (M = {m}, k = {k})"
        );
    }

    #[test]
    fn incremental_loocv_matches_recomputed_bitwise(
        pts in proptest::collection::btree_map(
            (0i64..1000, 0i64..50), -100.0f64..100.0, 4..60),
        splits in proptest::collection::vec(1usize..8, 1..6),
        bw in 0.01f64..2.0,
    ) {
        // A selector that extends its running LOO sums across arbitrary
        // growth batches must score bandwidths bitwise like one built
        // fresh from the final dataset at every step.
        let mut ds = Dataset::new(Bounds::new(vec![(0, 1000), (0, 50)]), 1);
        let mut persistent = BandwidthSelector::new();
        let mut batch = Vec::new();
        let mut sizes = splits.iter().cycle();
        let mut pending = *sizes.next().unwrap();
        for ((x, y), v) in &pts {
            ds.insert(vec![*x, *y], vec![*v]);
            pending -= 1;
            if pending == 0 {
                pending = *sizes.next().unwrap();
                batch.push(ds.len());
                let inc = persistent.loo_mse(&ds, Kernel::Gaussian, bw, 64);
                let fresh = loo_mse(&ds, Kernel::Gaussian, bw);
                prop_assert_eq!(
                    inc.map(f64::to_bits),
                    fresh.map(f64::to_bits),
                    "diverged after batches {:?}", batch
                );
            }
        }
        let inc = persistent.loo_mse(&ds, Kernel::Gaussian, bw, 64);
        let fresh = loo_mse(&ds, Kernel::Gaussian, bw);
        prop_assert_eq!(inc.map(f64::to_bits), fresh.map(f64::to_bits));
    }

    #[test]
    fn incremental_loocv_matches_an_independent_oracle(
        pts in proptest::collection::btree_map(
            (0i64..1000, 0i64..50), (-100.0f64..100.0, -1.0f64..1.0), 4..50),
        splits in proptest::collection::vec(1usize..8, 1..6),
        early in 0.01f64..2.0,
        late in 0.01f64..2.0,
        late_from in 2usize..4,
        replacements in proptest::collection::vec((any::<usize>(), -100.0f64..100.0), 1..6),
    ) {
        // Every kernel, two bandwidths (`late` first scored mid-growth)
        // and in-place output replacements between scorings: the
        // persistent selector's running sums must score bitwise like a
        // fresh selector and like an oracle that predicts each held-out
        // row directly.
        for kernel in Kernel::ALL {
            let mut ds = Dataset::new(Bounds::new(vec![(0, 1000), (0, 50)]), 2);
            let mut persistent = BandwidthSelector::new();
            let mut sizes = splits.iter().cycle();
            let mut fixes = replacements.iter().cycle();
            let mut pending = *sizes.next().unwrap();
            let mut scorings = 0usize;
            for ((x, y), (a, b)) in &pts {
                ds.insert(vec![*x, *y], vec![*a, *b]);
                pending -= 1;
                if pending > 0 {
                    continue;
                }
                pending = *sizes.next().unwrap();
                scorings += 1;
                if scorings.is_multiple_of(2) {
                    let (row, v) = fixes.next().unwrap();
                    let p = ds.raw_points()[row % ds.len()].clone();
                    ds.insert(p, vec![*v, -*v]);
                }
                for (h, from) in [(early, 1), (late, late_from)] {
                    if scorings < from {
                        continue;
                    }
                    let inc = persistent.loo_mse(&ds, kernel, h, 64).map(f64::to_bits);
                    let fresh = loo_mse(&ds, kernel, h).map(f64::to_bits);
                    let oracle = oracle_loo_mse(&ds, kernel, h).map(f64::to_bits);
                    prop_assert_eq!(inc, fresh, "{} h={} at {} rows", kernel, h, ds.len());
                    prop_assert_eq!(inc, oracle, "{} h={} at {} rows", kernel, h, ds.len());
                }
            }
        }
    }
}

/// LOO-CV error recomputed directly: every row predicted from the others
/// through `NadarayaWatson::predict_norm_into`, normalized by per-output
/// standard deviations computed here.
fn oracle_loo_mse(ds: &Dataset, kernel: Kernel, bandwidth: f64) -> Option<f64> {
    let n = ds.len();
    if n < 2 {
        return None;
    }
    let m = ds.n_outputs();
    let sd: Vec<f64> = (0..m)
        .map(|k| {
            let mut mean = 0.0f64;
            for out in ds.outputs() {
                mean += out[k];
            }
            mean /= n as f64;
            let mut var = 0.0f64;
            for out in ds.outputs() {
                var += (out[k] - mean) * (out[k] - mean);
            }
            (var / n as f64).sqrt().max(1e-12)
        })
        .collect();
    let nw = NadarayaWatson { kernel, bandwidth };
    let mut pred = vec![0.0f64; m];
    let mut total = 0.0f64;
    for i in 0..n {
        assert!(nw.predict_norm_into(ds, ds.point(i), Some(i), &mut pred));
        for ((p, t), s) in pred.iter().zip(&ds.outputs()[i]).zip(&sd) {
            let e = (p - t) / s;
            total += e * e;
        }
    }
    Some(total / (n * m) as f64)
}

// ------------------------------------------------------------------ moo --

fn objectives_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, 2..4), 1..25).prop_filter(
        "uniform arity",
        |v| {
            let n = v[0].len();
            v.iter().all(|o| o.len() == n)
        },
    )
}

proptest! {
    #[test]
    fn front_zero_matches_nondominated_filter(objs in objectives_strategy()) {
        let mut pop: Vec<Individual> = objs
            .iter()
            .map(|o| Individual::new(vec![], o.clone(), o.clone()))
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        let f0: std::collections::BTreeSet<usize> = fronts[0].iter().cloned().collect();
        // Every front-0 member is undominated.
        for &i in &f0 {
            for (j, other) in pop.iter().enumerate() {
                if i != j {
                    prop_assert!(!other.dominates(&pop[i]));
                }
            }
        }
        // Every non-front-0 member is dominated by someone.
        for (i, ind) in pop.iter().enumerate() {
            if !f0.contains(&i) {
                prop_assert!(pop.iter().any(|o| o.dominates(ind)));
            }
        }
        // The filter agrees up to duplicate handling.
        let filt = non_dominated_indices(&pop);
        for &i in &filt {
            prop_assert!(f0.contains(&i));
        }
    }

    #[test]
    fn fronts_partition_population(objs in objectives_strategy()) {
        let mut pop: Vec<Individual> = objs
            .iter()
            .map(|o| Individual::new(vec![], o.clone(), o.clone()))
            .collect();
        let fronts = fast_non_dominated_sort(&mut pop);
        let total: usize = fronts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, pop.len());
        let mut seen = std::collections::BTreeSet::new();
        for f in &fronts {
            for &i in f {
                prop_assert!(seen.insert(i), "index {i} in two fronts");
            }
        }
    }

    #[test]
    fn hypervolume_monotone_and_bounded(
        objs in proptest::collection::vec(
            proptest::collection::vec(0.0f64..10.0, 2..3), 1..12),
        extra in proptest::collection::vec(0.0f64..10.0, 2),
    ) {
        let m = objs[0].len();
        let objs: Vec<Vec<f64>> =
            objs.iter().filter(|o| o.len() == m).cloned().collect();
        let reference = vec![10.0; m];
        let hv = hypervolume(&objs, &reference);
        prop_assert!(hv >= 0.0);
        prop_assert!(hv <= 10f64.powi(m as i32) + 1e-9);
        // Adding a point never shrinks the dominated volume.
        let mut bigger = objs.clone();
        bigger.push(extra[..m].to_vec());
        let hv2 = hypervolume(&bigger, &reference);
        prop_assert!(hv2 + 1e-9 >= hv, "{hv2} < {hv}");
    }
}

// ----------------------------------------------------------------- misc --

proptest! {
    #[test]
    fn fmax_eq1_positive_for_physical_inputs(
        period in 0.1f64..100.0,
        delay in 0.01f64..100.0,
    ) {
        // WNS = period - delay; Eq. 1 then gives 1000/delay.
        let wns = period - delay;
        let f = fmax_mhz(period, wns).unwrap();
        prop_assert!((f - 1000.0 / delay).abs() < 1e-6);
        prop_assert!(f > 0.0);
    }

    #[test]
    fn csv_roundtrips_arbitrary_fields(
        rows in proptest::collection::vec(
            proptest::collection::vec("[ -~]{0,20}", 3), 1..8),
    ) {
        let mut w = csv::CsvWriter::new();
        w.header(&["a", "b", "c"]);
        for r in &rows {
            // Skip fully empty trailing rows (parser cannot distinguish).
            w.row(&[r[0].clone(), r[1].clone(), r[2].clone()]);
        }
        let parsed = csv::parse(w.as_str());
        prop_assert_eq!(parsed.len(), rows.len() + 1);
        for (got, want) in parsed[1..].iter().zip(&rows) {
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn tcl_expr_matches_reference_arithmetic(
        a in -1000i64..1000,
        b in -1000i64..1000,
        c in 1i64..100,
    ) {
        let src = format!("({a} + {b}) * {c}");
        let expect = (a + b) * c;
        prop_assert_eq!(eval_expr(&src).unwrap(), expect.to_string());

        let cmp = format!("{a} < {b}");
        prop_assert_eq!(eval_expr(&cmp).unwrap(), ((a < b) as i64).to_string());

        let div = format!("{a} / {c}");
        prop_assert_eq!(eval_expr(&div).unwrap(), a.div_euclid(c).to_string());
    }

    #[test]
    fn tcl_parser_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = dovado_eda::tcl::parse_script(&src);
    }

    #[test]
    fn tcl_expr_never_panics(src in "[ -~]{0,80}") {
        let _ = dovado_eda::tcl::expr::eval_expr(&src);
    }

    #[test]
    fn report_parsers_never_panic(
        src in "[ -~\\n|]{0,300}",
        pieces in proptest::collection::vec(0..REPORT_PIECES.len(), 0..48),
    ) {
        // ... and answer as the scrapers they replaced did.
        scrapers_agree(&src)?;
        let text: String = pieces.into_iter().map(|i| REPORT_PIECES[i]).collect();
        scrapers_agree(&text)?;
    }

    #[test]
    fn report_labels_classify_as_their_oracle_does(
        pieces in proptest::collection::vec(0..LABEL_PIECES.len(), 0..6),
        printable in "[ -~]{0,12}",
    ) {
        let label: String = pieces.into_iter().map(|i| LABEL_PIECES[i]).collect();
        for l in [label.as_str(), printable.as_str()] {
            prop_assert_eq!(
                dovado_fpga::ResourceKind::from_report_label(l),
                oracle::from_report_label(l),
                "label {:?}", l
            );
        }
    }

    #[test]
    fn lexers_never_panic(
        src in "[ -~\\n]{0,200}",
        pieces in proptest::collection::vec(0..HDL_PIECES.len(), 0..40),
    ) {
        // ... and every token they make borrows its text from the source.
        let text: String = pieces.into_iter().map(|i| HDL_PIECES[i]).collect();
        for src in [src.as_str(), text.as_str()] {
            texts_are_source_slices(src, true)?;
            texts_are_source_slices(src, false)?;
        }
    }

    #[test]
    fn parsers_never_panic(src in "[ -~\\n]{0,200}") {
        let _ = dovado_hdl::parse_source(dovado_hdl::Language::Vhdl, &src);
        let _ = dovado_hdl::parse_source(dovado_hdl::Language::Verilog, &src);
    }

    #[test]
    fn box_generation_reparses_for_any_point(
        depth in 1i64..1_000_000,
        width in 1i64..4096,
    ) {
        let (f, _) = dovado_hdl::parse_source(
            dovado_hdl::Language::Verilog,
            "module m #(parameter DEPTH = 8, parameter DATA_WIDTH = 32)\
             (input logic clk_i); endmodule",
        )
        .unwrap();
        let point = DesignPoint::from_pairs(&[("DEPTH", depth), ("DATA_WIDTH", width)]);
        let boxed = dovado::generate_box(&f.modules[0], &point).unwrap();
        let (bf, diags) = dovado_hdl::parse_source(boxed.language, &boxed.source).unwrap();
        prop_assert!(!diags.has_errors());
        let inst = &bf.instantiations[0];
        let env: std::collections::BTreeMap<String, i64> = Default::default();
        prop_assert_eq!(inst.generics[0].1.eval(&env).unwrap(), depth);
        prop_assert_eq!(inst.generics[1].1.eval(&env).unwrap(), width);
    }
}

// ------------------------------------------------------ report scrapers --

/// The report scrapers and label classifier as they were before they
/// stopped allocating, kept as oracles: the fast paths must give the same
/// `Ok` values bit for bit and the same errors on every input.
mod oracle {
    use dovado_eda::{EdaError, EdaResult};
    use dovado_fpga::{ResourceKind, ResourceSet};

    pub fn from_report_label(label: &str) -> Option<ResourceKind> {
        let l = label.trim().to_ascii_lowercase();
        if l.contains("lut") {
            Some(ResourceKind::Lut)
        } else if l.contains("register") || l.contains("flip") || l == "ff" {
            Some(ResourceKind::Register)
        } else if l.contains("block ram") || l.contains("bram") || l.contains("ramb") {
            Some(ResourceKind::Bram)
        } else if l.contains("uram") {
            Some(ResourceKind::Uram)
        } else if l.contains("dsp") {
            Some(ResourceKind::Dsp)
        } else if l.contains("carry") {
            Some(ResourceKind::Carry)
        } else if l.contains("iob") || l.contains("bonded") {
            Some(ResourceKind::Io)
        } else if l.contains("bufg") {
            Some(ResourceKind::Bufg)
        } else {
            None
        }
    }

    pub fn parse_utilization_report(text: &str) -> EdaResult<ResourceSet> {
        let mut out = ResourceSet::zero();
        let mut rows = 0usize;
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with('|') {
                continue;
            }
            let cols: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            if cols.len() < 4 {
                continue;
            }
            let Some(kind) = from_report_label(cols[0]) else {
                continue;
            };
            let Ok(used) = cols[1].parse::<u64>() else {
                continue;
            };
            out.set(kind, used);
            rows += 1;
        }
        if rows == 0 {
            return Err(EdaError::Parse(
                "no utilization rows found in report".into(),
            ));
        }
        Ok(out)
    }

    pub fn parse_wns(text: &str) -> EdaResult<f64> {
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if line.contains("WNS(ns)") {
                let _sep = lines.next();
                if let Some(values) = lines.next() {
                    let first = values
                        .trim()
                        .trim_matches('|')
                        .split('|')
                        .next()
                        .map(str::trim)
                        .unwrap_or("");
                    return first
                        .parse::<f64>()
                        .map_err(|_| EdaError::Parse(format!("cannot parse WNS from `{first}`")));
                }
            }
        }
        Err(EdaError::Parse(
            "no WNS column found in timing report".into(),
        ))
    }

    pub fn parse_period(text: &str) -> EdaResult<f64> {
        for line in text.lines() {
            if let Some(idx) = line.find("period ") {
                let rest = &line[idx + "period ".len()..];
                let num: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                    .collect();
                if let Ok(v) = num.parse::<f64>() {
                    return Ok(v);
                }
            }
        }
        Err(EdaError::Parse("no period found in timing report".into()))
    }

    pub fn parse_power_mw(text: &str) -> Option<f64> {
        for line in text.lines() {
            if line.contains("Total On-Chip Power") {
                let cols: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
                if let Some(v) = cols.get(1).and_then(|s| s.parse::<f64>().ok()) {
                    return Some(v * 1000.0);
                }
            }
        }
        None
    }
}

/// Pieces the arbitrary HDL texts are built from: identifiers, escaped
/// and extended identifiers, numbers in both languages' literal formats,
/// strings, character literals, operators, comments and whitespace.
const HDL_PIECES: &[&str] = &[
    " ",
    "\n",
    "\t",
    "module",
    "entity",
    "Foo_1",
    "a$b",
    "$clog2",
    "`WIDTH",
    "`define X 1\n",
    "\\esc+id ",
    "\\a\\\\b\\",
    "\\ext id\\",
    "42",
    "1_000",
    "3.5",
    "2.5e3",
    "8'hFF",
    "'d10",
    "'1",
    "4'b1x0z",
    "16#FF#",
    "2#1010#",
    "1e3",
    "\"str\"",
    "\"a\\\"b\"",
    "\"say \"\"hi\"\"\"",
    "x\"FF\"",
    "'0'",
    "clk'event",
    "'",
    "(",
    ")",
    ";",
    ",",
    "::",
    "<=",
    "**",
    "=>",
    ":=",
    "/=",
    "<<<",
    "'{",
    "#",
    "-- c\n",
    "// c\n",
    "/* c */",
    "\"é\"",
];

/// Whether every token `src` lexes to, in VHDL or in Verilog, has the
/// source slice under its span as its text, borrowed rather than copied.
/// An escaped Verilog identifier's text leaves out its backslash and a
/// VHDL extended identifier's its two delimiters. Input the lexer
/// refuses passes.
fn texts_are_source_slices(src: &str, vhdl: bool) -> Result<(), TestCaseError> {
    let lexed = if vhdl {
        dovado_hdl::vhdl::lexer::lex(src)
    } else {
        dovado_hdl::verilog::lexer::lex(src)
    };
    let Ok(mut tokens) = lexed else {
        return Ok(());
    };
    while !tokens.at_eof() {
        let t = tokens.next_tok();
        let (start, end) = (t.span.start, t.span.end);
        let escaped =
            t.kind == dovado_hdl::lexer::TokenKind::Ident && src[start..].starts_with('\\');
        let slice = match (escaped, vhdl) {
            (false, _) => &src[start..end],
            (true, false) => &src[start + 1..end],
            (true, true) => &src[start + 1..end - 1],
        };
        prop_assert_eq!(
            t.text,
            slice,
            "{} token in {:?}",
            if vhdl { "VHDL" } else { "Verilog" },
            src
        );
        prop_assert!(std::ptr::eq(t.text.as_ptr(), slice.as_ptr()));
    }
    Ok(())
}

/// Pieces the arbitrary report texts are built from: every marker the
/// scrapers look for, separators, numbers, and non-ASCII characters.
const REPORT_PIECES: &[&str] = &[
    "\n",
    "\r\n",
    "\r",
    "|",
    " | ",
    "||",
    "  ",
    "\t",
    "WNS(ns)",
    "period ",
    "Total On-Chip Power",
    "CLB LUTs",
    "clb luts",
    "FF",
    "fF",
    "Block RAM Tile",
    "ramb",
    "URAM",
    "DSPs",
    "carry",
    "Bonded IOB",
    "BUFGCE",
    "Site Type",
    "0",
    "7",
    "42",
    "18446744073709551616",
    "-4.125",
    "1.000",
    "0.2080",
    "+3",
    "-",
    ".",
    "ns",
    "e5",
    "NaN",
    "inf",
    "?",
    "\u{130}",
    "\u{17F}",
    "\u{212A}",
    "\u{e9}",
];

/// Pieces the arbitrary site-type labels are built from: the substrings
/// the classifier looks for in mixed ASCII case, and non-ASCII characters
/// whose Unicode case mappings are ASCII letters.
const LABEL_PIECES: &[&str] = &[
    "lut",
    "LuT",
    "register",
    "REGISTER",
    "Flip",
    "ff",
    "FF",
    "f",
    "F",
    "block ram",
    "Block RAM",
    "bRAM",
    "ramb",
    "uram",
    "DSP",
    "cArRy",
    "iob",
    "Bonded",
    "bufg",
    "CLB LUTs",
    "URAM",
    "DSPs",
    "BUFGCE",
    " ",
    "\t",
    "\u{130}",
    "\u{131}",
    "\u{17F}",
    "\u{212A}",
    "\u{e9}",
    "x",
    "-",
];

/// Asserts that every scraper answers `text` as its oracle does.
fn scrapers_agree(text: &str) -> Result<(), TestCaseError> {
    use dovado_eda::{power, report, EdaResult};
    let bits = |r: EdaResult<f64>| r.map(f64::to_bits);
    prop_assert_eq!(
        report::parse_utilization_report(text),
        oracle::parse_utilization_report(text),
        "text {:?}",
        text
    );
    prop_assert_eq!(
        bits(report::parse_wns(text)),
        bits(oracle::parse_wns(text)),
        "text {:?}",
        text
    );
    prop_assert_eq!(
        bits(report::parse_period(text)),
        bits(oracle::parse_period(text)),
        "text {:?}",
        text
    );
    prop_assert_eq!(
        power::parse_power_mw(text).map(f64::to_bits),
        oracle::parse_power_mw(text).map(f64::to_bits),
        "text {:?}",
        text
    );
    Ok(())
}

/// Reports of each kind as the simulated tool renders them, over parts
/// with and without URAM and at both signs of slack.
fn rendered_reports() -> Vec<String> {
    use dovado_eda::place_route::ImplResult;
    use dovado_eda::power::{write_power_report, PowerEstimate};
    use dovado_eda::report::{write_timing_report, write_utilization_report};
    use dovado_eda::Netlist;
    use dovado_fpga::{Catalog, ResourceKind, ResourceSet};
    let catalog = Catalog::builtin();
    let mut reports = Vec::new();
    for (part, wns_ns) in [("xc7k70t", -4.125), ("xcku5p", 0.75)] {
        let part = catalog.resolve(part).unwrap();
        let used = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, 3417),
            (ResourceKind::Register, 5213),
            (ResourceKind::Bram, 12),
            (ResourceKind::Uram, 3),
            (ResourceKind::Dsp, 7),
        ]);
        reports.push(write_utilization_report("fifo_v3_box", &used, part));
        let mut netlist = Netlist::empty("fifo_v3_box");
        netlist.crit_path = "data_i[12] -> mem_reg[12]".into();
        let timing = ImplResult {
            netlist,
            utilization: 0.2,
            crit_delay_ns: 5.0 - wns_ns,
            wns_ns,
            period_ns: 5.0,
            runtime_s: 1.0,
        };
        reports.push(write_timing_report("fifo_v3_box", &timing));
        let est = PowerEstimate {
            static_mw: 65.6,
            dynamic_mw: 142.38 - wns_ns,
        };
        reports.push(write_power_report("fifo_v3_box", &est, timing.fmax_mhz()));
    }
    reports
}

#[test]
fn report_scrapers_match_their_oracles_on_cut_and_garbled_reports() {
    use dovado_eda::{FaultInjector, FaultKind, FaultPlan};
    let injector = FaultInjector::new(FaultPlan::none());
    for text in rendered_reports() {
        // Every prefix: the truncation fault cuts a report anywhere.
        for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            scrapers_agree(&text[..cut]).unwrap();
        }
        let garbled = injector.mangle_report(FaultKind::ReportGarbled, &text);
        scrapers_agree(&garbled).unwrap();
        scrapers_agree(&text.replace('\n', "\r\n")).unwrap();
    }
}
