//! Vivado-shaped text reports and their parsers.
//!
//! Dovado drives the real tool through files: it asks Vivado to write
//! `report_utilization`/`report_timing_summary` output and scrapes the
//! numbers back out (§III-A4). The simulator reproduces that interface:
//! [`write_utilization_report`]/[`write_timing_report`] emit text with the
//! same table shapes, and [`parse_utilization_report`]/[`parse_wns`] are the
//! scrapers the Dovado core uses — so the framework genuinely round-trips
//! its metrics through report text, like the paper's tool does.

use crate::error::{EdaError, EdaResult};
use crate::place_route::ImplResult;
use dovado_fpga::{Part, ResourceKind, ResourceSet};
use std::fmt::Write as _;

/// Appends `x` exactly as `format!("{x:>width$.prec$}")` would: rounded to
/// `prec` decimals, ties to even, right-aligned in `width` columns.
///
/// Every report figure goes through here. `core::fmt` falls back to a
/// bignum algorithm (Dragon4) for exact values such as 1.000, 0.500 or
/// 12.5, which report figures often are; this decodes the `f64` as m·2^e
/// and rounds m·10^prec / 2^−e in `u128` instead. NaN, ±∞, a precision
/// above 19 and a scaled value past `u64` go through `core::fmt`.
pub(crate) fn push_fixed(s: &mut String, x: f64, width: usize, prec: usize) {
    let Some(scaled) = scaled_to_fixed(x, prec) else {
        let _ = write!(s, "{x:>width$.prec$}");
        return;
    };
    // Sign, 20 integer digits at most, the point and 19 decimals.
    let mut buf = [0u8; 41];
    let mut at = buf.len();
    let mut push = |b: u8| {
        at -= 1;
        buf[at] = b;
    };
    let unit = 10u64.pow(prec as u32);
    let (mut int, mut frac) = (scaled / unit, scaled % unit);
    for _ in 0..prec {
        push(b'0' + (frac % 10) as u8);
        frac /= 10;
    }
    if prec > 0 {
        push(b'.');
    }
    loop {
        push(b'0' + (int % 10) as u8);
        int /= 10;
        if int == 0 {
            break;
        }
    }
    if x.is_sign_negative() {
        push(b'-');
    }
    let text = std::str::from_utf8(&buf[at..]).expect("ASCII digits");
    for _ in text.len()..width {
        s.push(' ');
    }
    s.push_str(text);
}

/// |x|·10^prec rounded half to even, when `x` is finite, `prec` is at most
/// 19 and the result fits in a `u64`.
fn scaled_to_fixed(x: f64, prec: usize) -> Option<u64> {
    if !x.is_finite() || prec > 19 {
        return None;
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = u128::from(bits & ((1 << 52) - 1));
    // |x| = m·2^e, subnormals included.
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    // Below 2^53 · 10^19 < 2^117.
    let v = m * u128::from(10u64.pow(prec as u32));
    let rounded = if e >= 0 {
        // m ≥ 2^52 here, so `v` is non-zero and the shift stays in range.
        if e as u32 > v.leading_zeros() {
            return None;
        }
        v << e
    } else if e <= -128 {
        // v < 2^117 is below half of 2^−e: rounds to zero.
        0
    } else {
        let shift = e.unsigned_abs();
        let (q, r, half) = (v >> shift, v & ((1 << shift) - 1), 1 << (shift - 1));
        if r > half || (r == half && q & 1 == 1) {
            q + 1
        } else {
            q
        }
    };
    u64::try_from(rounded).ok()
}

/// The utilization table's border row.
const UTIL_RULE: &str = "+----------------------------+--------+-------+-----------+-------+\n";
/// Pads a site-type label to its column's 26 characters.
const LABEL_PAD: &str = "                          ";

/// Renders a utilization report for `used` resources on `part`.
///
/// Device-dependent resources with zero capacity (e.g. URAM on non-UltraScale+
/// parts) are omitted, matching the paper's note that such rows are
/// "reported only if present".
pub fn write_utilization_report(module: &str, used: &ResourceSet, part: &Part) -> String {
    render_utilization(module, used, &part.name, &part.capacity)
}

/// [`write_utilization_report`] over the two things it reads of a part:
/// its name and its capacities.
pub(crate) fn render_utilization(
    module: &str,
    used: &ResourceSet,
    device: &str,
    capacity: &ResourceSet,
) -> String {
    // Every row is as wide as the border: 8 rows, 3 borders, 1 header.
    let mut s = String::with_capacity(160 + module.len() + device.len() + 12 * UTIL_RULE.len());
    s.push_str("Copyright 1986-2026 Dovado-RS simulated Vivado\n| Design       : ");
    s.push_str(module);
    s.push_str("\n| Device       : ");
    s.push_str(device);
    s.push_str("\n| Design State : Routed\n\nUtilization Design Information\n\n");
    s.push_str(UTIL_RULE);
    s.push_str("|          Site Type         |  Used  | Fixed | Available | Util% |\n");
    s.push_str(UTIL_RULE);
    for kind in ResourceKind::ALL {
        let avail = capacity.get(kind);
        if avail == 0 {
            continue;
        }
        let u = used.get(kind);
        let pct = 100.0 * u as f64 / avail as f64;
        let label = kind.report_label();
        s.push_str("| ");
        s.push_str(label);
        s.push_str(&LABEL_PAD[label.len().min(LABEL_PAD.len())..]);
        s.push_str(" | ");
        let _ = write!(s, "{u:>6}");
        s.push_str(" |     0 | ");
        let _ = write!(s, "{avail:>9}");
        s.push_str(" | ");
        push_fixed(&mut s, pct, 5, 2);
        s.push_str(" |\n");
    }
    s.push_str(UTIL_RULE);
    s
}

/// Parses a utilization report back into a [`ResourceSet`].
///
/// A row is a line that starts with `|` and has at least four columns: a
/// site-type label ([`ResourceKind::from_report_label`]) and a used count.
/// A later row of the same kind overrides an earlier one. One pass over
/// the text, with no allocation unless the report has no rows.
pub fn parse_utilization_report(text: &str) -> EdaResult<ResourceSet> {
    let mut out = ResourceSet::zero();
    let mut rows = 0usize;
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('|') {
            continue;
        }
        let mut cols = line.trim_matches('|').split('|');
        let (Some(label), Some(used), Some(_), Some(_)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        let Some(kind) = ResourceKind::from_report_label(label) else {
            continue;
        };
        let Ok(used) = used.trim().parse::<u64>() else {
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

/// The figures a timing-summary report shows, besides the module name and
/// the critical path's description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimingFigures {
    pub(crate) wns_ns: f64,
    pub(crate) period_ns: f64,
    pub(crate) crit_delay_ns: f64,
}

impl TimingFigures {
    pub(crate) fn of(result: &ImplResult) -> TimingFigures {
        TimingFigures {
            wns_ns: result.wns_ns,
            period_ns: result.period_ns,
            crit_delay_ns: result.crit_delay_ns,
        }
    }

    /// Eq. 1, as [`ImplResult::fmax_mhz`].
    pub(crate) fn fmax_mhz(&self) -> f64 {
        1000.0 / (self.period_ns - self.wns_ns)
    }
}

/// Renders a timing-summary report with the WNS line Dovado scrapes.
pub fn write_timing_report(module: &str, result: &ImplResult) -> String {
    render_timing(module, &result.netlist.crit_path, TimingFigures::of(result))
}

/// [`write_timing_report`] over the figures it reads of a result.
pub(crate) fn render_timing(module: &str, crit_path: &str, t: TimingFigures) -> String {
    let mut s = String::with_capacity(560 + module.len() + crit_path.len());
    s.push_str("Copyright 1986-2026 Dovado-RS simulated Vivado\n| Design       : ");
    s.push_str(module);
    s.push_str(
        "\n\nDesign Timing Summary\n\
         | WNS(ns)  | TNS(ns)  | TNS Failing Endpoints | Total Endpoints |\n\
         | -------  | -------  | --------------------- | --------------- |\n| ",
    );
    let failing = t.wns_ns < 0.0;
    let tns = if failing { t.wns_ns * 8.0 } else { 0.0 };
    push_fixed(&mut s, t.wns_ns, 8, 3);
    s.push_str(" | ");
    push_fixed(&mut s, tns, 8, 3);
    s.push_str(if failing {
        " |                     8 |              64 |\n"
    } else {
        " |                     0 |              64 |\n"
    });
    s.push_str("\nClock Summary\nclk  {0.000 ");
    push_fixed(&mut s, t.period_ns / 2.0, 0, 3);
    s.push_str("}  period ");
    push_fixed(&mut s, t.period_ns, 0, 3);
    s.push_str("ns  frequency ");
    push_fixed(&mut s, 1000.0 / t.period_ns, 0, 3);
    s.push_str(" MHz (constraint)\n\nCritical path: ");
    s.push_str(crit_path);
    s.push_str("\nData path delay: ");
    push_fixed(&mut s, t.crit_delay_ns, 0, 3);
    s.push_str("ns (achievable frequency ");
    push_fixed(&mut s, t.fmax_mhz(), 0, 3);
    s.push_str(" MHz)\n");
    s
}

/// Extracts the WNS value (ns) from a timing-summary report: the first
/// column of the second line after the first line naming `WNS(ns)`.
///
/// The scrapers search the whole text for their marker rather than each
/// line in turn: one substring search instead of one per line.
pub fn parse_wns(text: &str) -> EdaResult<f64> {
    let missing = || EdaError::Parse("no WNS column found in timing report".into());
    let at = text.find("WNS(ns)").ok_or_else(missing)?;
    let header_end = at + text[at..].find('\n').ok_or_else(missing)?;
    // Skip the separator row, then read the value row.
    let mut lines = text[header_end + 1..].lines();
    let _sep = lines.next();
    let values = lines.next().ok_or_else(missing)?;
    let first = values
        .trim()
        .trim_matches('|')
        .split('|')
        .next()
        .map(str::trim)
        .unwrap_or("");
    first
        .parse::<f64>()
        .map_err(|_| EdaError::Parse(format!("cannot parse WNS from `{first}`")))
}

/// Extracts the constrained period (ns) from a timing-summary report: the
/// number after the first `period ` of the first line where one parses.
pub fn parse_period(text: &str) -> EdaResult<f64> {
    let mut rest = text;
    while let Some(at) = rest.find("period ") {
        let after = &rest[at + "period ".len()..];
        let len = after
            .bytes()
            .take_while(|b| b.is_ascii_digit() || *b == b'.' || *b == b'-')
            .count();
        if let Ok(v) = after[..len].parse::<f64>() {
            return Ok(v);
        }
        // Only a line's first `period ` counts: go on at the next line.
        match after.find('\n') {
            Some(end) => rest = &after[end + 1..],
            None => break,
        }
    }
    Err(EdaError::Parse("no period found in timing report".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use dovado_fpga::Catalog;

    fn part() -> Part {
        Catalog::builtin().resolve("xc7k70t").unwrap().clone()
    }

    fn impl_result(wns: f64, period: f64) -> ImplResult {
        let mut nl = Netlist::empty("dut");
        nl.crit_path = "a -> b".into();
        ImplResult {
            netlist: nl,
            utilization: 0.1,
            crit_delay_ns: period - wns,
            wns_ns: wns,
            period_ns: period,
            runtime_s: 1.0,
        }
    }

    #[test]
    fn utilization_roundtrip() {
        let used = ResourceSet::from_pairs(&[
            (ResourceKind::Lut, 1234),
            (ResourceKind::Register, 567),
            (ResourceKind::Bram, 4),
        ]);
        let text = write_utilization_report("dut", &used, &part());
        let back = parse_utilization_report(&text).unwrap();
        assert_eq!(back.get(ResourceKind::Lut), 1234);
        assert_eq!(back.get(ResourceKind::Register), 567);
        assert_eq!(back.get(ResourceKind::Bram), 4);
    }

    #[test]
    fn uram_row_absent_on_series7() {
        let used = ResourceSet::from_pairs(&[(ResourceKind::Lut, 10)]);
        let text = write_utilization_report("dut", &used, &part());
        assert!(!text.contains("URAM"));
    }

    #[test]
    fn uram_row_present_on_uram_device() {
        let ku5p = Catalog::builtin().resolve("xcku5p").unwrap().clone();
        let used = ResourceSet::from_pairs(&[(ResourceKind::Uram, 3)]);
        let text = write_utilization_report("dut", &used, &ku5p);
        assert!(text.contains("URAM"));
        let back = parse_utilization_report(&text).unwrap();
        assert_eq!(back.get(ResourceKind::Uram), 3);
    }

    #[test]
    fn wns_roundtrip_negative() {
        let text = write_timing_report("dut", &impl_result(-4.125, 1.0));
        let wns = parse_wns(&text).unwrap();
        assert!((wns + 4.125).abs() < 1e-9);
    }

    #[test]
    fn wns_roundtrip_positive() {
        let text = write_timing_report("dut", &impl_result(0.75, 5.0));
        assert!((parse_wns(&text).unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn period_roundtrip() {
        let text = write_timing_report("dut", &impl_result(-2.0, 1.0));
        assert!((parse_period(&text).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fmax_recoverable_from_report_numbers() {
        // Eq. 1: Fmax = 1000 / (T - WNS).
        let r = impl_result(-4.0, 1.0);
        let text = write_timing_report("dut", &r);
        let wns = parse_wns(&text).unwrap();
        let period = parse_period(&text).unwrap();
        let fmax = 1000.0 / (period - wns);
        assert!((fmax - 200.0).abs() < 1e-6);
    }

    #[test]
    fn parse_errors_on_garbage() {
        assert!(parse_utilization_report("nothing here").is_err());
        assert!(parse_wns("nothing here").is_err());
        assert!(parse_period("nothing here").is_err());
    }

    fn fixed(x: f64, width: usize, prec: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, x, width, prec);
        s
    }

    #[test]
    fn fixed_matches_core_fmt() {
        let mut values = vec![
            0.0,
            -0.0,
            0.125,
            0.375,
            2.5,
            -2.5,
            0.5,
            1.5,
            12.5,
            1.0,
            1000.0,
            0.0625,
            -0.0004,
            -0.0001,
            0.0005,
            0.001,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            1.8e13,
            1.8e19,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Exact ties at every precision checked below, and their neighbours.
        for j in 1..=24 {
            for k in [1u32, 3, 5, 7, 11, 1023, 4_000_001] {
                let tie = f64::from(k) / f64::from(1u32 << j);
                for x in [tie, -tie, tie.next_up(), tie.next_down()] {
                    values.push(x);
                }
            }
        }
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = crate::hash::splitmix64(state);
            state
        };
        for _ in 0..3_000 {
            // Any bit pattern: NaN payloads, subnormals, huge and tiny.
            values.push(f64::from_bits(next()));
            // Report-sized figures.
            values.push((next() >> 11) as f64 / (1u64 << 53) as f64 * 2e4 - 1e4);
            // Random mantissas across the fast path's exponent range.
            let scale = f64::from(2u32).powi((next() % 160) as i32 - 90);
            values.push(f64::from_bits(next() >> 12 | 0x3FF0_0000_0000_0000) * scale);
        }
        for x in values {
            for prec in [0, 1, 2, 3, 4, 5, 6, 19, 20] {
                for width in [0, 5, 8] {
                    assert_eq!(
                        fixed(x, width, prec),
                        format!("{x:>width$.prec$}"),
                        "{x:e} at width {width}, precision {prec}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_takes_its_own_path_for_report_figures_only() {
        assert_eq!(scaled_to_fixed(12.5, 1), Some(125));
        assert_eq!(scaled_to_fixed(0.125, 2), Some(12));
        assert_eq!(scaled_to_fixed(0.375, 2), Some(38));
        assert_eq!(scaled_to_fixed(-0.0004, 3), Some(0));
        assert_eq!(scaled_to_fixed(f64::from_bits(1), 6), Some(0));
        assert_eq!(scaled_to_fixed(1.8e13, 6), Some(18_000_000_000_000_000_000));
        for (x, prec) in [
            (f64::NAN, 3),
            (f64::INFINITY, 3),
            (1.9e13, 6),
            (1e300, 0),
            (1.0, 20),
        ] {
            assert_eq!(scaled_to_fixed(x, prec), None, "{x:e} at {prec}");
        }
    }

    #[test]
    fn utilization_percent_sane() {
        let used = ResourceSet::from_pairs(&[(ResourceKind::Lut, 4100)]);
        let text = write_utilization_report("dut", &used, &part());
        // 4100/41000 = 10 %
        assert!(text.contains("10.00"));
    }
}
