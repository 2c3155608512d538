//! Design points: one concrete assignment of values to free parameters.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A concrete parameter assignment, ordered as declared in the space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    names: Vec<String>,
    values: Vec<i64>,
}

impl DesignPoint {
    /// Creates a point; `names` and `values` must align.
    pub fn new(names: Vec<String>, values: Vec<i64>) -> DesignPoint {
        assert_eq!(names.len(), values.len(), "names/values length mismatch");
        DesignPoint { names, values }
    }

    /// Builds a point from pairs.
    pub fn from_pairs(pairs: &[(&str, i64)]) -> DesignPoint {
        DesignPoint {
            names: pairs.iter().map(|(n, _)| n.to_string()).collect(),
            values: pairs.iter().map(|(_, v)| *v).collect(),
        }
    }

    /// Parameter names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Values in order.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Case-insensitive lookup.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .map(|i| self.values[i])
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the point is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// As a map usable for generic overrides.
    pub fn as_map(&self) -> BTreeMap<String, i64> {
        self.names
            .iter()
            .cloned()
            .zip(self.values.iter().copied())
            .collect()
    }

    /// The `NAME=VALUE NAME=VALUE` form used in tool scripts.
    pub fn as_assignments(&self) -> String {
        let mut out = String::new();
        for (i, (n, v)) in self.names.iter().zip(&self.values).enumerate() {
            let sep = if i == 0 { "" } else { " " };
            let _ = write!(out, "{sep}{n}={v}");
        }
        out
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.as_assignments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let p = DesignPoint::from_pairs(&[("DEPTH", 64), ("WIDTH", 32)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get("depth"), Some(64));
        assert_eq!(p.get("NOPE"), None);
        assert!(!p.is_empty());
    }

    #[test]
    fn map_and_assignments() {
        let p = DesignPoint::from_pairs(&[("B", 2), ("A", 1)]);
        let m = p.as_map();
        assert_eq!(m["A"], 1);
        assert_eq!(p.as_assignments(), "B=2 A=1");
        assert_eq!(p.to_string(), "{B=2 A=1}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = DesignPoint::new(vec!["a".into()], vec![1, 2]);
    }

    #[test]
    fn equality_and_hash() {
        use std::collections::HashSet;
        let a = DesignPoint::from_pairs(&[("X", 1)]);
        let b = DesignPoint::from_pairs(&[("X", 1)]);
        let c = DesignPoint::from_pairs(&[("X", 2)]);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
