//! CLI-level integration: the `dovado` command driven as a library (the
//! binary is a thin wrapper around `dovado::cli::run`).

use dovado::backend::{MockBackend, SimBackend, ToolBackend};
use dovado::cli::run;
use dovado::flow::load_project_tree;
use dovado::{DesignPoint, EvalConfig, Evaluator};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn temp_file(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dovado-cli-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const FIFO: &str = "module fifo_v3 #(parameter DEPTH = 8, parameter DATA_WIDTH = 32)\
                    (input logic clk_i); endmodule";

#[test]
fn explore_with_power_metric_and_csv() {
    let src = temp_file("pw.sv", FIFO);
    let csv = std::env::temp_dir()
        .join("dovado-cli-integration")
        .join("front.csv");
    let mut out = String::new();
    let code = run(
        &args(&[
            "explore",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--param",
            "DEPTH=2:64:2",
            "--metric",
            "lut,power,fmax",
            "--generations",
            "3",
            "--pop",
            "8",
            "--csv",
            csv.to_str().unwrap(),
        ]),
        &mut out,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Power[mW]"), "{out}");
    let written = std::fs::read_to_string(&csv).unwrap();
    let rows = dovado::csv::parse(&written);
    assert!(rows.len() >= 2, "no data rows:\n{written}");
    assert_eq!(rows[0][0], "label");
    assert!(rows[0].contains(&"Power[mW]".to_string()));
    // Data rows carry numeric power values.
    let power_col = rows[0].iter().position(|c| c == "Power[mW]").unwrap();
    assert!(rows[1][power_col].parse::<f64>().unwrap() > 0.0);
}

#[test]
fn explore_with_random_algorithm() {
    let src = temp_file("ra.sv", FIFO);
    let mut out = String::new();
    let code = run(
        &args(&[
            "explore",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--param",
            "DEPTH=2:128",
            "--metric",
            "lut,fmax",
            "--generations",
            "3",
            "--pop",
            "10",
            "--algorithm",
            "random",
        ]),
        &mut out,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("non-dominated"));
}

#[test]
fn explore_exhaustive_small_space() {
    let src = temp_file("ex.sv", FIFO);
    let mut out = String::new();
    let code = run(
        &args(&[
            "explore",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--param",
            "DEPTH=pow2:2:5",
            "--metric",
            "ff,fmax",
            "--algorithm",
            "exhaustive",
        ]),
        &mut out,
    );
    assert_eq!(code, 0, "{out}");
    // 4 points evaluated exactly once each.
    assert!(out.contains("4 evaluation(s)"), "{out}");
}

#[test]
fn explore_with_deadline_and_surrogate() {
    let src = temp_file("dl.sv", FIFO);
    let mut out = String::new();
    let code = run(
        &args(&[
            "explore",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--param",
            "DEPTH=2:512:2",
            "--metric",
            "lut,ff,fmax",
            "--generations",
            "50",
            "--pop",
            "8",
            "--surrogate",
            "20",
            "--deadline",
            "20000",
        ]),
        &mut out,
    );
    assert_eq!(code, 0, "{out}");
    // Surrogate columns appear in the summary.
    assert!(out.contains("estimated"), "{out}");
}

#[test]
fn evaluate_reports_power() {
    let src = temp_file("ev.sv", FIFO);
    let mut out = String::new();
    let code = run(
        &args(&[
            "evaluate",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--set",
            "DEPTH=32",
        ]),
        &mut out,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Fmax"));
    assert!(out.contains("tool time"));
}

#[test]
fn evaluate_answers_an_explored_front_point_from_the_explore_store() {
    let src = temp_file("explored.sv", FIFO);
    let dir = std::env::temp_dir().join(format!(
        "dovado-cli-integration-shared-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let csv = temp_file("explored-front.csv", "");
    let trace = temp_file("explored-point.jsonl", "");
    let shared = [
        "--source",
        src.to_str().unwrap(),
        "--top",
        "fifo_v3",
        "--store",
        dir.to_str().unwrap(),
    ];
    let mut out = String::new();
    let mut explore = vec!["explore"];
    explore.extend(shared);
    explore.extend(["--param", "DEPTH=2:64:2", "--metric", "lut,ff,fmax"]);
    explore.extend([
        "--generations",
        "3",
        "--pop",
        "8",
        "--csv",
        csv.to_str().unwrap(),
    ]);
    let code = run(&args(&explore), &mut out);
    assert_eq!(code, 0, "{out}");
    let rows = dovado::csv::parse(&std::fs::read_to_string(&csv).unwrap());
    let depth = rows[0].iter().position(|c| c == "DEPTH").unwrap();
    let point = format!("DEPTH={}", rows[1][depth]);

    out.clear();
    let mut evaluate = vec!["evaluate"];
    evaluate.extend(shared);
    evaluate.extend(["--set", &point, "--trace-out", trace.to_str().unwrap()]);
    let code = run(&args(&evaluate), &mut out);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("persistent store (no tool run)"), "{out}");
    let summary = std::fs::read_to_string(&trace).unwrap();
    let summary = summary.lines().last().unwrap();
    assert!(
        summary.contains("\"attempts\":0,") && summary.contains("\"store_hits\":1,"),
        "{summary}"
    );
    // Both commands use `<dir>/store/`, which holds one log file.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["journal.dovado", "store"]);
    assert_eq!(std::fs::read_dir(dir.join("store")).unwrap().count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evaluate_accepts_a_double_underscore_file_name() {
    // `__` before capitals in a path is not a script placeholder.
    let src = temp_file("fifo__Core.sv", FIFO);
    let mut out = String::new();
    let code = run(
        &args(&[
            "evaluate",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--set",
            "DEPTH=8",
        ]),
        &mut out,
    );
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("Fmax"), "{out}");
}

#[test]
fn evaluate_accepts_a_file_name_with_spaces() {
    // `read_verilog src/fifo queue v3.sv` would be three TCL words: each
    // path must reach the tool as one.
    let tree = |dir: &str, name: &str| {
        let dir = std::env::temp_dir()
            .join("dovado-cli-integration")
            .join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(name), FIFO).unwrap();
        dir
    };
    let plain = tree("plain-name", "fifo.sv");
    let spaced = tree("spaced-name", "fifo queue v3.sv");
    let evaluate = |dir: &Path| {
        let mut out = String::new();
        let code = run(
            &args(&[
                "evaluate",
                "--project",
                dir.to_str().unwrap(),
                "--set",
                "DEPTH=8",
            ]),
            &mut out,
        );
        assert_eq!(code, 0, "{out}");
        out
    };
    assert_eq!(evaluate(&spaced), evaluate(&plain));
    // The same on both backends, through the loader `--project` uses.
    let backends: [fn() -> Arc<dyn ToolBackend>; 2] = [
        || Arc::new(SimBackend::new(7)),
        || Arc::new(MockBackend::new(7)),
    ];
    let point = DesignPoint::from_pairs(&[("DEPTH", 8)]);
    for backend in backends {
        let evaluate = |dir: &Path| {
            let (sources, top) = load_project_tree(dir, None).unwrap();
            Evaluator::with_backend(sources, &top, EvalConfig::default(), backend())
                .unwrap()
                .evaluate(&point)
                .unwrap()
        };
        assert_eq!(evaluate(&spaced), evaluate(&plain));
    }
}

#[cfg(unix)]
#[test]
fn evaluate_walks_a_project_with_symlink_cycles_once() {
    let tree = |name: &str| {
        let dir = std::env::temp_dir()
            .join("dovado-cli-integration")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("rtl")).unwrap();
        std::fs::write(dir.join("rtl/fifo.sv"), FIFO).unwrap();
        dir
    };
    let plain = tree("symlink-free");
    let looped = tree("symlink-cycles");
    // Two links back to the root: unchecked, the walk would descend
    // 2^40 directories before the kernel's link limit stops it.
    std::os::unix::fs::symlink(".", looped.join("loop")).unwrap();
    std::os::unix::fs::symlink(".", looped.join("again")).unwrap();
    let evaluate = |dir: PathBuf| {
        let (done, answer) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut out = String::new();
            let project = dir.to_str().unwrap();
            let code = run(
                &args(&["evaluate", "--project", project, "--set", "DEPTH=8"]),
                &mut out,
            );
            done.send((code, out.replace(project, "<dir>")))
        });
        answer
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("evaluate ends")
    };
    let (code, out) = evaluate(looped);
    assert_eq!(code, 0, "{out}");
    assert_eq!((code, out), evaluate(plain));
}

#[test]
fn explore_survives_tcl_nested_in_the_part() {
    // As TCL code, either part would nest thousands of levels deep and
    // overflow the stack; as one escaped word it is an unknown part.
    let src = temp_file("nested_part.sv", FIFO);
    for part in [
        format!("{}{}", "[".repeat(3_000), "]".repeat(3_000)),
        format!("[expr {}1{}]", "(".repeat(20_000), ")".repeat(20_000)),
    ] {
        let mut out = String::new();
        let code = run(
            &args(&[
                "explore",
                "--source",
                src.to_str().unwrap(),
                "--top",
                "fifo_v3",
                "--param",
                "DEPTH=2:8",
                "--generations",
                "1",
                "--pop",
                "4",
                "--part",
                &part,
            ]),
            &mut out,
        );
        assert_eq!(code, 0, "{out:.300}");
        assert!(out.contains(&format!("permanent: EDA tool error: unknown part: {part}")));
    }
}

#[test]
fn parse_refuses_a_too_deeply_nested_expression() {
    // 5,000 nested parentheses would overflow a recursive parser's stack
    // and abort the process; past 256 levels the parse fails instead.
    let depth = 5_000;
    let src = temp_file(
        "deep.v",
        &format!(
            "module deep #(\n  parameter P = {}1{}\n)(input wire clk); endmodule\n",
            "(".repeat(depth),
            ")".repeat(depth)
        ),
    );
    let mut out = String::new();
    let code = run(&args(&["parse", src.to_str().unwrap()]), &mut out);
    assert_eq!(code, 1, "{out}");
    // Level 257 opens at the 257th parenthesis: line 2, column 16 + 257.
    assert!(
        out.contains("deep.v: parse error at 2:273: expression nests deeper than 256 levels"),
        "{out}"
    );
}

#[test]
fn a_period_below_the_constraint_resolution_is_refused() {
    // `-period 0.000` would fail `create_clock` on every attempt; the run
    // is refused before any attempt instead.
    let src = temp_file("tiny_period.sv", FIFO);
    for command in ["explore", "evaluate"] {
        let mut list = vec![
            command,
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--period",
            "0.0004",
        ];
        list.extend_from_slice(if command == "explore" {
            &[
                "--param",
                "DEPTH=2:128:2",
                "--generations",
                "3",
                "--pop",
                "8",
            ]
        } else {
            &["--set", "DEPTH=16"]
        });
        let mut out = String::new();
        let code = run(&args(&list), &mut out);
        assert_eq!(code, 1, "{command}: {out}");
        assert!(
            out.contains(
                "target period 0.0004 ns renders as 0.000 ns at the clock constraint's \
                 3-decimal resolution"
            ),
            "{command}: {out}"
        );
    }
}

#[test]
fn bad_flag_reports_usage_hint() {
    let src = temp_file("bf.sv", FIFO);
    let mut out = String::new();
    let code = run(
        &args(&[
            "explore",
            "--source",
            src.to_str().unwrap(),
            "--top",
            "fifo_v3",
            "--param",
            "DEPTH=2:8",
            "--warp-factor",
            "9",
        ]),
        &mut out,
    );
    assert_eq!(code, 1);
    assert!(out.contains("unknown flag"));
    assert!(out.contains("dovado help"));
}

#[test]
fn served_job_matches_a_standalone_run() {
    let mut server = dovado::serve::Server::start(dovado::ServeConfig::default()).unwrap();
    let src = temp_file("served.sv", FIFO);
    let dir = src.parent().unwrap();
    let (served, standalone) = (dir.join("served.jsonl"), dir.join("standalone.jsonl"));
    // `explore` runs on DOVADO_BACKEND's kind at the evaluator's default
    // tool seed; the submitted job names that backend explicitly.
    assert_eq!(dovado::EvalConfig::default().seed, 13654736);
    let kind = match std::env::var("DOVADO_BACKEND").as_deref() {
        Ok("mock") => "mock",
        _ => "vivado-sim",
    };
    let backend = format!("{kind}:13654736");
    let job = args(&[
        "--source",
        src.to_str().unwrap(),
        "--top",
        "fifo_v3",
        "--param",
        "DEPTH=2:64:2",
        "--metric",
        "lut,ff,fmax",
        "--generations",
        "3",
        "--pop",
        "8",
    ]);
    let addr = server.addr().to_string();
    let submit = args(&[
        "submit",
        "--addr",
        &addr,
        "--no-store",
        "--backend",
        &backend,
    ]);
    let explore = args(&["explore"]);
    for (mut argv, trace) in [(submit, &served), (explore, &standalone)] {
        argv.extend(job.iter().cloned());
        argv.extend(args(&["--trace-out", trace.to_str().unwrap()]));
        let mut out = String::new();
        assert_eq!(run(&argv, &mut out), 0, "{out}");
    }
    let served = std::fs::read(&served).unwrap();
    assert!(!served.is_empty());
    assert!(
        served == std::fs::read(&standalone).unwrap(),
        "traces differ"
    );
    server.shutdown();
}
