//! FPGA resource kinds and counted resource sets.
//!
//! The paper's utilization metric "divides into the different available
//! resources for a given board/parts, e.g. BRAMs, CLBs, DSPs", with some
//! resources (URAMs) being device-dependent. [`ResourceKind`] enumerates the
//! kinds Dovado reports and [`ResourceSet`] is a dense counter over them.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Sub};

/// A countable FPGA resource class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Look-up tables (LUT6 equivalents).
    Lut,
    /// Flip-flops / registers.
    Register,
    /// 36 Kb block RAMs.
    Bram,
    /// UltraRAM blocks (UltraScale+ only; device-dependent).
    Uram,
    /// DSP slices.
    Dsp,
    /// Carry-chain segments (CARRY4/CARRY8).
    Carry,
    /// Bonded I/O pads.
    Io,
    /// Global clock buffers.
    Bufg,
}

impl ResourceKind {
    /// All kinds, in report order.
    pub const ALL: [ResourceKind; 8] = [
        ResourceKind::Lut,
        ResourceKind::Register,
        ResourceKind::Bram,
        ResourceKind::Uram,
        ResourceKind::Dsp,
        ResourceKind::Carry,
        ResourceKind::Io,
        ResourceKind::Bufg,
    ];

    /// Dense index used by [`ResourceSet`].
    pub fn index(&self) -> usize {
        match self {
            ResourceKind::Lut => 0,
            ResourceKind::Register => 1,
            ResourceKind::Bram => 2,
            ResourceKind::Uram => 3,
            ResourceKind::Dsp => 4,
            ResourceKind::Carry => 5,
            ResourceKind::Io => 6,
            ResourceKind::Bufg => 7,
        }
    }

    /// The label used in Vivado-style utilization reports.
    pub fn report_label(&self) -> &'static str {
        match self {
            ResourceKind::Lut => "CLB LUTs",
            ResourceKind::Register => "CLB Registers",
            ResourceKind::Bram => "Block RAM Tile",
            ResourceKind::Uram => "URAM",
            ResourceKind::Dsp => "DSPs",
            ResourceKind::Carry => "CARRY",
            ResourceKind::Io => "Bonded IOB",
            ResourceKind::Bufg => "BUFGCE",
        }
    }

    /// Parses a report label back into a kind (inverse of
    /// [`ResourceKind::report_label`], tolerant of common variants).
    ///
    /// The label is trimmed, then matched exactly against every
    /// `report_label`; anything else falls back to ASCII-case-insensitive
    /// substring rules (`Slice LUTs`, `RAMB36`, `FF`, …). Neither step
    /// allocates.
    pub fn from_report_label(label: &str) -> Option<ResourceKind> {
        let l = label.trim();
        if let Some(kind) = ResourceKind::ALL
            .into_iter()
            .find(|k| k.report_label() == l)
        {
            return Some(kind);
        }
        let has = |needle: &str| {
            l.as_bytes()
                .windows(needle.len())
                .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
        };
        if has("lut") {
            Some(ResourceKind::Lut)
        } else if has("register") || has("flip") || l.eq_ignore_ascii_case("ff") {
            Some(ResourceKind::Register)
        } else if has("block ram") || has("bram") || has("ramb") {
            Some(ResourceKind::Bram)
        } else if has("uram") {
            Some(ResourceKind::Uram)
        } else if has("dsp") {
            Some(ResourceKind::Dsp)
        } else if has("carry") {
            Some(ResourceKind::Carry)
        } else if has("iob") || has("bonded") {
            Some(ResourceKind::Io)
        } else if has("bufg") {
            Some(ResourceKind::Bufg)
        } else {
            None
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Lut => "LUT",
            ResourceKind::Register => "FF",
            ResourceKind::Bram => "BRAM",
            ResourceKind::Uram => "URAM",
            ResourceKind::Dsp => "DSP",
            ResourceKind::Carry => "CARRY",
            ResourceKind::Io => "IO",
            ResourceKind::Bufg => "BUFG",
        };
        write!(f, "{s}")
    }
}

/// A dense counter over all [`ResourceKind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct ResourceSet {
    counts: [u64; 8],
}

impl ResourceSet {
    /// An all-zero set.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Builds a set from `(kind, count)` pairs.
    pub fn from_pairs(pairs: &[(ResourceKind, u64)]) -> Self {
        let mut s = Self::zero();
        for (k, v) in pairs {
            s[*k] += v;
        }
        s
    }

    /// The count for one kind.
    pub fn get(&self, kind: ResourceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Sets the count for one kind.
    pub fn set(&mut self, kind: ResourceKind, value: u64) {
        self.counts[kind.index()] = value;
    }

    /// Adds `value` to one kind.
    pub fn add(&mut self, kind: ResourceKind, value: u64) {
        self.counts[kind.index()] += value;
    }

    /// True when every count is zero.
    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Iterator over non-zero `(kind, count)` pairs.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (ResourceKind, u64)> + '_ {
        ResourceKind::ALL
            .iter()
            .map(move |k| (*k, self.get(*k)))
            .filter(|(_, c)| *c > 0)
    }

    /// Element-wise saturating subtraction.
    pub fn saturating_sub(&self, rhs: &ResourceSet) -> ResourceSet {
        let mut out = *self;
        for i in 0..out.counts.len() {
            out.counts[i] = out.counts[i].saturating_sub(rhs.counts[i]);
        }
        out
    }

    /// Whether this set fits within `capacity` on every kind.
    pub fn fits_within(&self, capacity: &ResourceSet) -> bool {
        self.counts
            .iter()
            .zip(capacity.counts.iter())
            .all(|(u, c)| u <= c)
    }

    /// Kinds where this set exceeds `capacity`, with the overflow amount.
    pub fn overflows(&self, capacity: &ResourceSet) -> Vec<(ResourceKind, u64)> {
        ResourceKind::ALL
            .iter()
            .filter_map(|k| {
                let used = self.get(*k);
                let cap = capacity.get(*k);
                (used > cap).then(|| (*k, used - cap))
            })
            .collect()
    }

    /// Utilization fraction (0.0–…) of one kind against `capacity`;
    /// `None` when the device has none of that resource.
    pub fn utilization(&self, kind: ResourceKind, capacity: &ResourceSet) -> Option<f64> {
        let cap = capacity.get(kind);
        if cap == 0 {
            return None;
        }
        Some(self.get(kind) as f64 / cap as f64)
    }

    /// The worst (highest) utilization fraction across available kinds.
    pub fn peak_utilization(&self, capacity: &ResourceSet) -> f64 {
        ResourceKind::ALL
            .iter()
            .filter_map(|k| self.utilization(*k, capacity))
            .fold(0.0, f64::max)
    }

    /// Multiplies every count by `factor`, rounding to nearest.
    pub fn scaled(&self, factor: f64) -> ResourceSet {
        let mut out = ResourceSet::zero();
        for (i, c) in self.counts.iter().enumerate() {
            out.counts[i] = ((*c as f64) * factor).round().max(0.0) as u64;
        }
        out
    }

    /// Total of all counts (coarse "size" measure).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Index<ResourceKind> for ResourceSet {
    type Output = u64;
    fn index(&self, kind: ResourceKind) -> &u64 {
        &self.counts[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceSet {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut u64 {
        &mut self.counts[kind.index()]
    }
}

impl Add for ResourceSet {
    type Output = ResourceSet;
    fn add(mut self, rhs: ResourceSet) -> ResourceSet {
        for i in 0..self.counts.len() {
            self.counts[i] += rhs.counts[i];
        }
        self
    }
}

impl AddAssign for ResourceSet {
    fn add_assign(&mut self, rhs: ResourceSet) {
        for i in 0..self.counts.len() {
            self.counts[i] += rhs.counts[i];
        }
    }
}

impl Sub for ResourceSet {
    type Output = ResourceSet;
    fn sub(self, rhs: ResourceSet) -> ResourceSet {
        self.saturating_sub(&rhs)
    }
}

impl fmt::Display for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, c) in self.iter_nonzero() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={c}")?;
            first = false;
        }
        if first {
            write!(f, "∅")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ResourceKind::*;

    #[test]
    fn indexing_roundtrip() {
        for k in ResourceKind::ALL {
            let mut s = ResourceSet::zero();
            s[k] = 7;
            assert_eq!(s.get(k), 7);
            for other in ResourceKind::ALL {
                if other != k {
                    assert_eq!(s.get(other), 0);
                }
            }
        }
    }

    #[test]
    fn add_and_sub() {
        let a = ResourceSet::from_pairs(&[(Lut, 100), (Register, 200)]);
        let b = ResourceSet::from_pairs(&[(Lut, 50), (Bram, 4)]);
        let sum = a + b;
        assert_eq!(sum.get(Lut), 150);
        assert_eq!(sum.get(Register), 200);
        assert_eq!(sum.get(Bram), 4);
        let diff = sum - a;
        assert_eq!(diff.get(Lut), 50);
        assert_eq!(diff.get(Register), 0);
    }

    #[test]
    fn saturating_sub_no_underflow() {
        let a = ResourceSet::from_pairs(&[(Lut, 10)]);
        let b = ResourceSet::from_pairs(&[(Lut, 100)]);
        assert_eq!(a.saturating_sub(&b).get(Lut), 0);
    }

    #[test]
    fn fits_and_overflows() {
        let cap = ResourceSet::from_pairs(&[(Lut, 1000), (Register, 2000), (Io, 10)]);
        let ok = ResourceSet::from_pairs(&[(Lut, 999), (Io, 10)]);
        assert!(ok.fits_within(&cap));
        let bad = ResourceSet::from_pairs(&[(Lut, 1001), (Io, 12)]);
        assert!(!bad.fits_within(&cap));
        let of = bad.overflows(&cap);
        assert_eq!(of, vec![(Lut, 1), (Io, 2)]);
    }

    #[test]
    fn utilization_handles_missing_resource() {
        let cap = ResourceSet::from_pairs(&[(Lut, 100)]);
        let used = ResourceSet::from_pairs(&[(Lut, 25), (Uram, 3)]);
        assert_eq!(used.utilization(Lut, &cap), Some(0.25));
        assert_eq!(used.utilization(Uram, &cap), None);
    }

    #[test]
    fn peak_utilization_picks_max() {
        let cap = ResourceSet::from_pairs(&[(Lut, 100), (Bram, 10)]);
        let used = ResourceSet::from_pairs(&[(Lut, 10), (Bram, 9)]);
        assert!((used.peak_utilization(&cap) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn scaled_rounds() {
        let s = ResourceSet::from_pairs(&[(Lut, 10)]);
        assert_eq!(s.scaled(1.26).get(Lut), 13);
        assert_eq!(s.scaled(0.0).get(Lut), 0);
    }

    #[test]
    fn report_label_roundtrip() {
        for k in ResourceKind::ALL {
            assert_eq!(
                ResourceKind::from_report_label(k.report_label()),
                Some(k),
                "{k}"
            );
        }
        assert_eq!(ResourceKind::from_report_label("Slice LUTs"), Some(Lut));
        assert_eq!(ResourceKind::from_report_label("RAMB36"), Some(Bram));
        assert_eq!(ResourceKind::from_report_label("nothing"), None);
        // The fallback ignores ASCII case only, and `ff` must be the
        // whole label.
        assert_eq!(ResourceKind::from_report_label("  clb luts "), Some(Lut));
        assert_eq!(ResourceKind::from_report_label("Ff"), Some(Register));
        assert_eq!(ResourceKind::from_report_label("FFs"), None);
        assert_eq!(ResourceKind::from_report_label("iob"), Some(Io));
        assert_eq!(ResourceKind::from_report_label("\u{130}OB"), None);
    }

    #[test]
    fn display_nonzero_only() {
        let s = ResourceSet::from_pairs(&[(Lut, 5), (Dsp, 2)]);
        assert_eq!(s.to_string(), "LUT=5, DSP=2");
        assert_eq!(ResourceSet::zero().to_string(), "∅");
    }

    #[test]
    fn total_and_is_zero() {
        assert!(ResourceSet::zero().is_zero());
        let s = ResourceSet::from_pairs(&[(Lut, 5), (Dsp, 2)]);
        assert_eq!(s.total(), 7);
        assert!(!s.is_zero());
    }
}
