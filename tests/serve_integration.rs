//! Service-level harness for `dovado serve`: boots the daemon
//! in-process, drives it over real sockets with the line-delimited JSON
//! protocol, and pins the core service contracts:
//!
//! * concurrent tenants' streamed event lines each fold to exactly the
//!   totals (and the bitwise-identical Pareto front) of a standalone
//!   `explore` run of the same job;
//! * a warm shared store answers a repeated job with zero tool
//!   attempts;
//! * a capacity-bounded store under forced eviction still completes
//!   correctly — eviction costs recomputation, never answers;
//! * cancellation lands at a generation boundary and releases the slot;
//! * a client that drops mid-stream can reconnect and `attach` to
//!   replay the stream, deduplicating by event key.

use dovado::obs::ObsEvent;
use dovado::serve::{fold_stream, parse_event_line, Client, JobSpec, Json, ServeConfig, Server};
use dovado::trace::AttemptOutcome;
use dovado::worker::backend_from_spec;
use dovado::{
    fold_totals, Dovado, DseConfig, DseReport, EvalConfig, HdlSource, MetricSet, ParameterSpace,
    Totals,
};
use dovado_eda::EvalStore;
use dovado_hdl::Language;
use dovado_moo::{Nsga2Config, Termination};
use std::sync::Arc;

const FIFO_SV: &str = r#"
module fifo_v3 #(
    parameter DEPTH = 8,
    parameter DATA_WIDTH = 32
)(input logic clk_i, input logic [DATA_WIDTH-1:0] data_i);
endmodule"#;

const DEPTH_SPEC: &str = "2:512:2";
const WIDTH_SPEC: &str = "8,16,32";

/// The wire-side job: same sources, space, and optimizer settings as
/// [`direct_report`] builds in-process.
fn fifo_spec(seed: u64, generations: u32, use_store: bool) -> JobSpec {
    JobSpec {
        sources: vec![("fifo.sv".into(), FIFO_SV.into())],
        top: "fifo_v3".into(),
        params: vec![
            ("DEPTH".into(), DEPTH_SPEC.into()),
            ("DATA_WIDTH".into(), WIDTH_SPEC.into()),
        ],
        generations,
        pop: 6,
        seed,
        backend: format!("mock:{seed}"),
        use_store,
        ..JobSpec::default()
    }
}

/// The same job executed standalone, without the daemon: the oracle the
/// streamed results must match.
fn direct_report(seed: u64, generations: u32) -> DseReport {
    let backend: Arc<dyn dovado::ToolBackend> =
        Arc::from(backend_from_spec(&format!("mock:{seed}")).expect("mock spec"));
    let space = ParameterSpace::new()
        .with("DEPTH", dovado::cli::parse_domain(DEPTH_SPEC).unwrap())
        .with("DATA_WIDTH", dovado::cli::parse_domain(WIDTH_SPEC).unwrap());
    let tool = Dovado::with_backend(
        vec![HdlSource::new("fifo.sv", Language::SystemVerilog, FIFO_SV)],
        "fifo_v3",
        space,
        EvalConfig::default(),
        backend,
    )
    .unwrap();
    tool.explore(&DseConfig {
        algorithm: Nsga2Config {
            pop_size: 6,
            seed,
            ..Nsga2Config::default()
        },
        termination: Termination::Generations(generations),
        metrics: MetricSet::area_frequency(),
        ..DseConfig::default()
    })
    .unwrap()
}

fn pareto_bits(report: &DseReport) -> Vec<Vec<u64>> {
    report
        .pareto
        .iter()
        .map(|e| e.values.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn done_pareto_bits(done: &Json) -> Vec<Vec<u64>> {
    done.get("pareto")
        .and_then(Json::as_arr)
        .expect("done carries a pareto array")
        .iter()
        .map(|entry| {
            entry
                .get("bits")
                .and_then(Json::as_arr)
                .expect("pareto entry carries bits")
                .iter()
                .map(|b| u64::from_str_radix(b.as_str().unwrap(), 16).unwrap())
                .collect()
        })
        .collect()
}

fn connect(server: &Server, tenant: &str) -> Client {
    let mut client = Client::connect(&server.addr().to_string()).expect("connect");
    client.hello(tenant).expect("hello");
    client
}

#[test]
fn concurrent_tenants_fold_to_their_standalone_runs() {
    let mut server = Server::start(ServeConfig {
        slots: 2,
        ..ServeConfig::default()
    })
    .unwrap();

    // Two tenants, two different jobs, submitted concurrently over
    // separate connections; storeless so each run is self-contained.
    let jobs = [(11u64, "alice"), (23u64, "bob")];
    let handles: Vec<_> = jobs
        .map(|(seed, tenant)| {
            let addr = server.addr().to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.hello(tenant).unwrap();
                let spec = fifo_spec(seed, 4, false);
                let job = client.submit(tenant, 1, &spec).unwrap();
                let outcome = client.stream_until_done().unwrap();
                (job, outcome)
            })
        })
        .into_iter()
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for ((seed, _), (job, outcome)) in jobs.iter().zip(&outcomes) {
        assert_eq!(outcome.status(), "done", "{job}");
        let direct = direct_report(*seed, 4);
        let streamed = fold_stream(outcome.lines.iter().map(String::as_str));
        let oracle = fold_totals(direct.spine.events.iter().map(|(_, e)| e));
        assert_eq!(
            streamed, oracle,
            "{job}: streamed events must fold to the standalone run's totals"
        );
        assert_eq!(
            done_pareto_bits(&outcome.done),
            pareto_bits(&direct),
            "{job}: Pareto front must be bitwise identical to the standalone run"
        );
        // The canonical stream never carries side-channel events.
        assert!(
            !outcome
                .lines
                .iter()
                .any(|l| l.contains("\"store_evicted\"") || l.contains("\"type\":\"worker\"")),
            "{job}: side-channel events leaked into the canonical stream"
        );
    }
    server.shutdown();
}

#[test]
fn warm_shared_store_answers_a_repeat_job_with_zero_tool_runs() {
    let root = tempdir("serve-warm");
    let mut server = Server::start(ServeConfig {
        root: Some(root.clone()),
        ..ServeConfig::default()
    })
    .unwrap();

    let spec = fifo_spec(7, 3, true);
    let mut client = connect(&server, "alice");
    let job = client.submit("alice", 1, &spec).unwrap();
    let cold = client.stream_until_done().unwrap();
    assert_eq!(cold.status(), "done", "{job}");
    let cold_totals = fold_stream(cold.lines.iter().map(String::as_str));
    assert!(cold_totals.summary.attempts > 0, "cold run calls the tool");

    // Same job, different tenant: every evaluation is a store hit.
    let mut client = connect(&server, "bob");
    let job = client.submit("bob", 1, &spec).unwrap();
    let warm = client.stream_until_done().unwrap();
    assert_eq!(warm.status(), "done", "{job}");
    let warm_totals = fold_stream(warm.lines.iter().map(String::as_str));
    assert_eq!(
        warm_totals.summary.attempts, 0,
        "warm run must make zero tool attempts"
    );
    assert!(warm_totals.summary.store_hits > 0);
    assert_eq!(
        done_pareto_bits(&warm.done),
        done_pareto_bits(&cold.done),
        "store answers must reproduce the cold run bit-for-bit"
    );
    server.shutdown();
    rm(&root);
}

#[test]
fn differently_seeded_backends_never_share_store_answers() {
    // `ToolBackend::name` omits the construction seed, so a shared
    // multi-tenant store must scope its keys by the full backend spec:
    // a `mock:8` job after a `mock:7` job over the same design must
    // recompute everything and reproduce its *own* standalone answers.
    let root = tempdir("serve-seeds");
    let mut server = Server::start(ServeConfig {
        root: Some(root.clone()),
        ..ServeConfig::default()
    })
    .unwrap();

    let mut client = connect(&server, "alice");
    client.submit("alice", 1, &fifo_spec(7, 3, true)).unwrap();
    assert_eq!(client.stream_until_done().unwrap().status(), "done");

    let mut client = connect(&server, "bob");
    client.submit("bob", 1, &fifo_spec(8, 3, true)).unwrap();
    let other = client.stream_until_done().unwrap();
    assert_eq!(other.status(), "done");
    let totals = fold_stream(other.lines.iter().map(String::as_str));
    // A point the job repeats in a later generation hits the job's own
    // entry, so the reference is the same job on an empty store: the
    // shared store must answer the seed-8 job exactly as that one does.
    let alone_root = tempdir("serve-seeds-alone");
    let mut alone_server = Server::start(ServeConfig {
        root: Some(alone_root.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = connect(&alone_server, "bob");
    client.submit("bob", 1, &fifo_spec(8, 3, true)).unwrap();
    let alone = client.stream_until_done().unwrap();
    assert_eq!(alone.status(), "done");
    let alone = fold_stream(alone.lines.iter().map(String::as_str));
    assert_eq!(
        (totals.summary.store_hits, totals.summary.attempts),
        (alone.summary.store_hits, alone.summary.attempts),
        "a differently-seeded backend must never hit the other's entries"
    );
    assert!(totals.summary.attempts > 0);
    assert_eq!(
        done_pareto_bits(&other.done),
        pareto_bits(&direct_report(8, 3)),
        "the seed-8 job must reproduce its own standalone run bit-for-bit"
    );
    alone_server.shutdown();
    rm(&alone_root);
    server.shutdown();
    rm(&root);
}

#[test]
fn forced_eviction_costs_recomputation_never_answers() {
    let root = tempdir("serve-evict");
    // A store this small evicts constantly under a multi-generation run.
    let mut server = Server::start(ServeConfig {
        root: Some(root.clone()),
        store_capacity: Some(2),
        ..ServeConfig::default()
    })
    .unwrap();

    let spec = fifo_spec(5, 4, true);
    let mut client = connect(&server, "alice");
    client.submit("alice", 1, &spec).unwrap();
    let bounded = client.stream_until_done().unwrap();
    assert_eq!(bounded.status(), "done");

    // The run completes with the same answers as a standalone run —
    // eviction may only ever force recomputation.
    let direct = direct_report(5, 4);
    assert_eq!(
        done_pareto_bits(&bounded.done),
        pareto_bits(&direct),
        "eviction must never change answers"
    );
    // Evictions happened (side channel), but never entered the stream.
    let retained = server
        .store()
        .map(EvalStore::len)
        .expect("daemon has a store");
    assert!(retained <= 2, "store stayed within its bound");
    assert!(
        !bounded
            .lines
            .iter()
            .any(|l| l.contains("\"store_evicted\"")),
        "eviction events must stay out of the canonical stream"
    );
    server.shutdown();
    rm(&root);
}

#[test]
fn zero_capacity_store_is_a_config_error() {
    let root = tempdir("serve-zero");
    let err = Server::start(ServeConfig {
        root: Some(root.clone()),
        store_capacity: Some(0),
        ..ServeConfig::default()
    })
    .err()
    .expect("Some(0) capacity must be rejected");
    assert!(
        err.to_string().contains("store-capacity"),
        "unexpected error: {err}"
    );
    // A rootless daemon fails store-using jobs with a config error.
    let mut server = Server::start(ServeConfig::default()).unwrap();
    let mut client = connect(&server, "alice");
    client.submit("alice", 1, &fifo_spec(1, 2, true)).unwrap();
    let outcome = client.stream_until_done().unwrap();
    assert_eq!(outcome.status(), "failed");
    assert!(
        outcome
            .done
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .contains("store"),
        "failure names the missing store"
    );
    server.shutdown();
    rm(&root);
}

#[test]
fn cancellation_lands_at_a_generation_boundary_and_frees_the_slot() {
    let mut server = Server::start(ServeConfig {
        slots: 1,
        ..ServeConfig::default()
    })
    .unwrap();

    // A long, slow job: spin keeps each generation long enough that the
    // cancel lands mid-run.
    let mut spec = fifo_spec(3, 200, false);
    spec.backend = "mock:3:spin=2".into();
    let mut streaming = connect(&server, "alice");
    let job = streaming.submit("alice", 1, &spec).unwrap();

    // Wait until the run demonstrably makes progress, then cancel from
    // a second connection.
    let mut seen_generation = false;
    let mut lines = Vec::new();
    while !seen_generation {
        let line = streaming.read_line().unwrap().expect("stream open");
        seen_generation = line.contains("\"type\":\"generation\"");
        lines.push(line);
    }
    let mut admin = connect(&server, "admin");
    admin.cancel(&job).unwrap();

    // The stream ends with a cancelled outcome, well short of the
    // requested 200 generations.
    let outcome = streaming.stream_until_done().unwrap();
    assert_eq!(outcome.status(), "cancelled");
    let generations = outcome
        .done
        .get("generations")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        (1..200).contains(&generations),
        "cancelled after {generations} generations"
    );

    // The slot is free again: a short follow-up job completes.
    let mut next = connect(&server, "bob");
    next.submit("bob", 1, &fifo_spec(9, 2, false)).unwrap();
    assert_eq!(next.stream_until_done().unwrap().status(), "done");
    server.shutdown();
}

#[test]
fn malformed_jobs_fail_and_free_their_slot() {
    let mut server = Server::start(ServeConfig {
        slots: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    // Parameter names are case-insensitive, and NSGA-II needs a mating
    // pair: each job must fail with a config error, not kill its runner.
    let mut duplicate = fifo_spec(5, 2, false);
    duplicate.params.push(("depth".into(), "4:16".into()));
    let mut lone = fifo_spec(5, 2, false);
    lone.pop = 1;
    for (spec, message) in [(duplicate, "duplicate parameter `depth`"), (lone, "--pop")] {
        let mut client = connect(&server, "alice");
        client.submit("alice", 1, &spec).unwrap();
        // A runner that died would leave the stream open forever.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(client.stream_until_done()));
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("stream_until_done returns")
            .unwrap();
        assert_eq!(outcome.status(), "failed");
        let error = outcome.done.get("error").and_then(Json::as_str);
        assert!(error.unwrap_or("").contains(message), "{error:?}");
    }
    // The one slot is free again, and a well-formed job runs in it.
    let status = connect(&server, "admin").status().unwrap();
    assert_eq!(status.get("free").and_then(Json::as_u64), Some(1));
    let mut next = connect(&server, "bob");
    next.submit("bob", 1, &fifo_spec(9, 2, false)).unwrap();
    assert_eq!(next.stream_until_done().unwrap().status(), "done");
    server.shutdown();
}

#[test]
fn deeply_nested_request_is_refused_and_the_connection_keeps_serving() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    let mut client = connect(&server, "mallory");
    // One 20,000-deep line would overflow a recursive parser's stack and
    // abort the daemon with every tenant's job; it must read as invalid.
    client.send_line(&"[".repeat(20_000)).unwrap();
    let reply = client
        .read_line()
        .unwrap()
        .expect("a reply, not a dead daemon");
    assert_eq!(reply, r#"{"ok":false,"error":"request is not valid JSON"}"#);
    let status = client.status().expect("the same connection keeps serving");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn an_overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let mut server = Server::start(ServeConfig::default()).unwrap();
    let mut bystander = connect(&server, "alice");
    // 64 MiB and one byte with no newline: the daemon must stop reading
    // there instead of buffering whatever a client sends.
    let mut flood = std::net::TcpStream::connect(server.addr()).unwrap();
    flood
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..64 {
        flood.write_all(&chunk).unwrap();
    }
    flood.write_all(b"x").unwrap();
    let mut reply = String::new();
    BufReader::new(&flood).read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim_end(),
        r#"{"ok":false,"error":"request line exceeds 64 MiB"}"#
    );
    let mut rest = String::new();
    assert_eq!(
        BufReader::new(&flood).read_line(&mut rest).unwrap(),
        0,
        "the refused connection closes"
    );
    // Other connections, open or new, keep being served.
    let status = bystander
        .status()
        .expect("an open connection keeps serving");
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    connect(&server, "bob");
    server.shutdown();
}

#[test]
fn deeply_nested_source_fails_its_job_and_the_daemon_keeps_serving() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    // A 4 KB source nested 2,000 deep would overflow the job thread's
    // stack in a recursive parser and abort the daemon; the job must fail
    // with the located parse error instead.
    let depth = 2_000;
    let mut spec = fifo_spec(5, 2, false);
    spec.sources = vec![(
        "fifo.sv".into(),
        format!(
            "module fifo_v3 #(parameter DEPTH = {}8{}, parameter DATA_WIDTH = 32)\n\
             (input logic clk_i); endmodule",
            "(".repeat(depth),
            ")".repeat(depth)
        ),
    )];
    let mut client = connect(&server, "mallory");
    client.submit("mallory", 1, &spec).unwrap();
    let outcome = client.stream_until_done().unwrap();
    assert_eq!(outcome.status(), "failed");
    // Level 257 opens at the 257th parenthesis, column 35 + 257.
    let error = outcome.done.get("error").and_then(Json::as_str);
    assert!(
        error
            .unwrap_or("")
            .contains("fifo.sv: parse error at 1:292: expression nests deeper than 256 levels"),
        "{error:?}"
    );
    let status = connect(&server, "admin").status().unwrap();
    assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn tcl_nested_in_a_part_fails_its_job_and_the_daemon_keeps_serving() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    // Copied into the scripts as TCL code, either part would nest
    // thousands of levels deep, overflow the job thread's stack and abort
    // the daemon. As one escaped word it is just a part nobody makes.
    let parts = [
        format!("{}{}", "[".repeat(3_000), "]".repeat(3_000)),
        format!("[expr {}1{}]", "(".repeat(20_000), ")".repeat(20_000)),
    ];
    for part in parts {
        let mut spec = fifo_spec(5, 1, false);
        spec.backend = "vivado-sim:5".into();
        spec.part = Some(part.clone());
        let mut client = connect(&server, "mallory");
        client.submit("mallory", 1, &spec).unwrap();
        let outcome = client.stream_until_done().unwrap();
        assert_eq!(outcome.status(), "done");
        assert_eq!(
            outcome.done.get("tool_runs").and_then(Json::as_u64),
            Some(0)
        );
        let expected = format!("EDA tool error: unknown part: {part}");
        let mut attempts = 0;
        for line in &outcome.lines {
            if let Some((_, ObsEvent::Attempt(event))) = parse_event_line(line) {
                assert_eq!(
                    event.outcome,
                    AttemptOutcome::PermanentFailure(expected.clone())
                );
                attempts += 1;
            }
        }
        assert!(attempts > 0);
        let status = connect(&server, "admin").status().unwrap();
        assert_eq!(status.get("ok").and_then(Json::as_bool), Some(true));
    }
    // A follow-up job completes.
    let mut client = connect(&server, "alice");
    client.submit("alice", 1, &fifo_spec(6, 1, false)).unwrap();
    let outcome = client.stream_until_done().unwrap();
    assert_eq!(outcome.status(), "done");
    assert!(outcome.done.get("tool_runs").and_then(Json::as_u64) > Some(0));
    server.shutdown();
}

#[test]
fn reconnect_attaches_and_replays_the_stream() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    let spec = fifo_spec(17, 4, false);

    // First connection submits, reads a few lines, and vanishes.
    let mut first = connect(&server, "alice");
    let job = first.submit("alice", 1, &spec).unwrap();
    let mut early = Vec::new();
    let mut cut_seq = 0u64;
    for _ in 0..5 {
        let line = first.read_line().unwrap().expect("stream open");
        if let Some((key, _)) = parse_event_line(&line) {
            cut_seq = cut_seq.max(key.seq);
        }
        early.push(line);
    }
    drop(first);

    // Reconnect and replay everything; the union of both streams —
    // dedup'd by key, which fold_stream does — matches the standalone
    // oracle exactly.
    let mut second = connect(&server, "alice");
    second.attach(&job, 0).unwrap();
    let replay = second.stream_until_done().unwrap();
    assert_eq!(replay.status(), "done");
    let all: Vec<&str> = early
        .iter()
        .map(String::as_str)
        .chain(replay.lines.iter().map(String::as_str))
        .collect();
    let direct = direct_report(17, 4);
    let oracle = fold_totals(direct.spine.events.iter().map(|(_, e)| e));
    assert_eq!(fold_stream(all), oracle);
    assert_eq!(done_pareto_bits(&replay.done), pareto_bits(&direct));

    // A partial attach honors from_seq: no replayed event sits below it.
    let mut partial = connect(&server, "alice");
    partial.attach(&job, cut_seq).unwrap();
    let tail = partial.stream_until_done().unwrap();
    for line in &tail.lines {
        if let Some((key, _)) = parse_event_line(line) {
            assert!(
                key.seq >= cut_seq,
                "attach from_seq={cut_seq} replayed seq {}",
                key.seq
            );
        }
    }
    server.shutdown();
}

#[test]
fn status_reports_jobs_and_tenant_ledgers() {
    let mut server = Server::start(ServeConfig::default()).unwrap();
    for (tenant, seed) in [("alice", 2u64), ("bob", 4u64)] {
        let mut client = connect(&server, tenant);
        client
            .submit(tenant, 1, &fifo_spec(seed, 2, false))
            .unwrap();
        assert_eq!(client.stream_until_done().unwrap().status(), "done");
    }
    let mut admin = connect(&server, "admin");
    let status = admin.status().unwrap();
    let jobs = status.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 2);
    assert!(jobs
        .iter()
        .all(|j| j.get("state").and_then(Json::as_str) == Some("done")));
    let tenants = status.get("tenants").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = tenants
        .iter()
        .filter_map(|t| t.get("tenant").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["alice", "bob"], "ledger is sorted by tenant");
    for t in tenants {
        assert!(t.get("runs").and_then(Json::as_u64).unwrap() > 0);
        assert!(t.get("tool_time_s").and_then(Json::as_f64).unwrap() > 0.0);
    }
    server.shutdown();
}

/// The totals type re-exported by the crate is what `fold_stream`
/// returns — this pins the client-side contract at compile time.
#[allow(dead_code)]
fn _fold_stream_returns_totals(lines: &[&str]) -> Totals {
    fold_stream(lines.iter().copied())
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dovado-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rm(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
}
