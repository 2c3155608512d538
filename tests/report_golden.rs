//! Golden-file tests: checked-in Vivado-style report fixtures under
//! `tests/fixtures/` pin both directions of the report interface — the
//! writers (utilization, timing at negative and positive WNS, power) must
//! emit exactly these bytes, and the scrapers must recover exactly these
//! numbers. A separate golden log pins the on-disk
//! format of the persistent evaluation store: any change to the record
//! framing or payload encoding breaks these tests and forces a
//! `STORE_FORMAT_VERSION` bump.

use dovado::persist::{decode_evaluation, encode_evaluation};
use dovado::Evaluation;
use dovado_eda::netlist::Netlist;
use dovado_eda::place_route::ImplResult;
use dovado_eda::power::{parse_power_mw, write_power_report, PowerEstimate};
use dovado_eda::report::{
    parse_period, parse_utilization_report, parse_wns, write_timing_report,
    write_utilization_report,
};
use dovado_eda::{EvalKey, EvalStore, LOG_FILE, STORE_FORMAT_VERSION};
use dovado_fpga::{Catalog, ResourceKind, ResourceSet};
use std::fs;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn utilization_fixture_parses_to_exact_counts() {
    let used = parse_utilization_report(&fixture("utilization_xc7k70t.rpt")).unwrap();
    assert_eq!(used.get(ResourceKind::Lut), 3417);
    assert_eq!(used.get(ResourceKind::Register), 5213);
    assert_eq!(used.get(ResourceKind::Bram), 12);
    assert_eq!(used.get(ResourceKind::Dsp), 7);
    assert_eq!(used.get(ResourceKind::Carry), 204);
    assert_eq!(used.get(ResourceKind::Io), 41);
    assert_eq!(used.get(ResourceKind::Bufg), 2);
    // Series-7 part: no URAM row, so the count stays zero.
    assert_eq!(used.get(ResourceKind::Uram), 0);
}

#[test]
fn timing_fixtures_parse_to_exact_values() {
    let neg = fixture("timing_negative_wns.rpt");
    assert_eq!(parse_wns(&neg).unwrap().to_bits(), (-4.125f64).to_bits());
    assert_eq!(parse_period(&neg).unwrap().to_bits(), 1.0f64.to_bits());

    let pos = fixture("timing_positive_wns.rpt");
    assert_eq!(parse_wns(&pos).unwrap().to_bits(), 0.75f64.to_bits());
    assert_eq!(parse_period(&pos).unwrap().to_bits(), 5.0f64.to_bits());
}

#[test]
fn power_fixture_parses_to_the_exact_total() {
    let mw = parse_power_mw(&fixture("power_xc7k70t.rpt")).unwrap();
    assert_eq!(mw.to_bits(), (0.2080f64 * 1000.0).to_bits());
}

#[test]
fn fmax_recovered_from_golden_report() {
    // Eq. 1: Fmax = 1000 / (T − WNS) = 1000 / (1 + 4.125) ≈ 195.122.
    let neg = fixture("timing_negative_wns.rpt");
    let fmax = 1000.0 / (parse_period(&neg).unwrap() - parse_wns(&neg).unwrap());
    assert!((fmax - 195.121_951).abs() < 1e-6, "{fmax}");
}

#[test]
fn noisy_report_with_unknown_rows_still_parses() {
    let used = parse_utilization_report(&fixture("utilization_noisy.rpt")).unwrap();
    assert_eq!(used.get(ResourceKind::Lut), 120);
    assert_eq!(used.get(ResourceKind::Register), 87);
    assert_eq!(used.get(ResourceKind::Uram), 3);
}

#[test]
fn report_writers_match_golden_bytes() {
    let part = Catalog::builtin().resolve("xc7k70t").unwrap().clone();
    let used = ResourceSet::from_pairs(&[
        (ResourceKind::Lut, 3417),
        (ResourceKind::Register, 5213),
        (ResourceKind::Bram, 12),
        (ResourceKind::Dsp, 7),
        (ResourceKind::Carry, 204),
        (ResourceKind::Io, 41),
        (ResourceKind::Bufg, 2),
    ]);
    assert_eq!(
        write_utilization_report("fifo_v3_box", &used, &part),
        fixture("utilization_xc7k70t.rpt"),
        "utilization writer drifted from its golden fixture"
    );

    let timing = |crit_delay_ns: f64, wns_ns: f64, period_ns: f64| {
        let mut nl = Netlist::empty("fifo_v3_box");
        nl.crit_path = "data_i[12] -> mem_reg[12]".into();
        let result = ImplResult {
            netlist: nl,
            utilization: 0.2,
            crit_delay_ns,
            wns_ns,
            period_ns,
            runtime_s: 1.0,
        };
        write_timing_report("fifo_v3_box", &result)
    };
    assert_eq!(
        timing(5.125, -4.125, 1.0),
        fixture("timing_negative_wns.rpt"),
        "timing writer drifted from its golden fixture"
    );
    assert_eq!(
        timing(4.25, 0.75, 5.0),
        fixture("timing_positive_wns.rpt"),
        "timing writer drifted from its positive-slack fixture"
    );

    let est = PowerEstimate {
        static_mw: 65.6,
        dynamic_mw: 142.38,
    };
    assert_eq!(
        write_power_report("fifo_v3_box", &est, 195.122),
        fixture("power_xc7k70t.rpt"),
        "power writer drifted from its golden fixture"
    );
}

/// The evaluations the store-log fixture was written from: ordinary
/// values, then a negative zero and a NaN, which must survive bitwise.
fn golden_evaluations() -> [Evaluation; 2] {
    let mut utilization = ResourceSet::zero();
    utilization.set(ResourceKind::Lut, 3417);
    utilization.set(ResourceKind::Register, 5213);
    utilization.set(ResourceKind::Bram, 12);
    let first = Evaluation {
        utilization,
        wns_ns: -0.125,
        period_ns: 1.0,
        fmax_mhz: 888.888,
        power_mw: 120.5,
        tool_time_s: 654.25,
    };
    let mut utilization = ResourceSet::zero();
    utilization.set(ResourceKind::Lut, 96);
    utilization.set(ResourceKind::Register, 130);
    utilization.set(ResourceKind::Dsp, 2);
    utilization.set(ResourceKind::Io, 41);
    let second = Evaluation {
        utilization,
        wns_ns: -0.0,
        period_ns: 2.5,
        fmax_mhz: 400.0,
        power_mw: f64::NAN,
        tool_time_s: 0.1,
    };
    [first, second]
}

fn golden_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dovado-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_entry_format_is_pinned_to_version() {
    let text = fixture("store_log_v2.log");
    let keys = [
        EvalKey::from_parts(&["golden", "entry"]),
        EvalKey::from_parts(&["golden", "second"]),
    ];
    assert_eq!(
        keys[0].hex(),
        "028c2189016c471072a9e3a36a448370",
        "key fn drifted"
    );
    // Every record names the current format version and its key; bump
    // the constant and regenerate the fixture together.
    let heads: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("dovado-store "))
        .collect();
    let want: Vec<String> = keys
        .iter()
        .map(|k| format!("dovado-store {STORE_FORMAT_VERSION} {}", k.hex()))
        .collect();
    assert_eq!(heads, want);

    // A store whose log is the fixture reads both records back as clean
    // hits with the exact original values.
    let dir = golden_dir("read");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(LOG_FILE), &text).unwrap();
    let store = EvalStore::open(&dir).unwrap();
    for (key, g) in keys.iter().zip(golden_evaluations()) {
        let e = decode_evaluation(&store.get(key).unwrap()).unwrap();
        assert_eq!(e.utilization, g.utilization);
        for (a, b) in [
            (e.wns_ns, g.wns_ns),
            (e.period_ns, g.period_ns),
            (e.fmax_mhz, g.fmax_mhz),
            (e.power_mw, g.power_mw),
            (e.tool_time_s, g.tool_time_s),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    // And fresh puts of the same evaluations into an empty store produce
    // the fixture byte for byte — encoding changes must come with a
    // version bump.
    let fresh_dir = golden_dir("write");
    let fresh = EvalStore::open(&fresh_dir).unwrap();
    for (key, g) in keys.iter().zip(golden_evaluations()) {
        fresh.put(key, &encode_evaluation(&g)).unwrap();
    }
    assert_eq!(fs::read_to_string(fresh.log_path()).unwrap(), text);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&fresh_dir);
}
