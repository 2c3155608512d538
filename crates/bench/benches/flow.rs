//! End-to-end flow benchmarks: the cost (in host time — the *simulated*
//! tool time is reported by the experiment binaries) of one design-point
//! evaluation, of a cached rerun, and of one short exploration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dovado::casestudies::cv32e40p;
use dovado::{DesignPoint, DseConfig};
use dovado_moo::{Nsga2Config, Termination};

fn bench_flow(c: &mut Criterion) {
    c.bench_function("single_point_evaluation_cold", |b| {
        let cs = cv32e40p::case_study();
        let mut depth = 2i64;
        b.iter(|| {
            // Fresh tool each iteration, new depth to defeat caching.
            let tool = cs.dovado().unwrap();
            depth = if depth >= 1000 { 2 } else { depth + 2 };
            let e = tool
                .evaluate_point(&DesignPoint::from_pairs(&[("DEPTH", depth)]))
                .unwrap();
            black_box(e.fmax_mhz)
        })
    });

    c.bench_function("single_point_evaluation_cached", |b| {
        let cs = cv32e40p::case_study();
        let tool = cs.dovado().unwrap();
        let p = DesignPoint::from_pairs(&[("DEPTH", 64)]);
        tool.evaluate_point(&p).unwrap(); // warm the checkpoint store
        b.iter(|| black_box(tool.evaluate_point(&p).unwrap().fmax_mhz))
    });

    c.bench_function("dse_2generations_pop8", |b| {
        let cs = cv32e40p::case_study();
        b.iter(|| {
            let tool = cs.dovado().unwrap();
            let r = tool
                .explore(&DseConfig {
                    algorithm: Nsga2Config {
                        pop_size: 8,
                        seed: 3,
                        ..Default::default()
                    },
                    termination: Termination::Generations(2),
                    metrics: cs.metrics.clone(),
                    surrogate: None,
                    parallel: false,
                    explorer: Default::default(),
                    workers: None,
                })
                .unwrap();
            black_box(r.evaluations)
        })
    });
}

criterion_group!(benches, bench_flow);
criterion_main!(benches);
