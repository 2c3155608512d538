//! Optimizer micro-benchmarks: NSGA-II generations on an analytic problem,
//! non-dominated sorting at scale, and hypervolume computation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dovado_moo::{
    fast_non_dominated_sort, hypervolume, run, Individual, Nsga2Config, Nsga2Explorer, Schaffer,
    Termination,
};

fn bench_nsga2(c: &mut Criterion) {
    c.bench_function("nsga2_schaffer_20gen_pop40", |b| {
        b.iter(|| {
            let mut p = Schaffer::new();
            let cfg = Nsga2Config {
                pop_size: 40,
                seed: 1,
                ..Default::default()
            };
            let nsga2 = Nsga2Explorer::start(&mut p, &cfg);
            let r = run(Box::new(nsga2), &mut p, &Termination::Generations(20));
            black_box(r.pareto.len())
        })
    });

    let mut group = c.benchmark_group("fast_non_dominated_sort");
    for n in [100usize, 400, 1600] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let pop: Vec<Individual> = (0..n)
                .map(|i| {
                    let x = (i % 97) as f64;
                    let y = ((i * 31) % 89) as f64;
                    let o = vec![x, y, (x - y).abs()];
                    Individual::new(vec![i as i64], o.clone(), o)
                })
                .collect();
            b.iter(|| {
                let mut p = pop.clone();
                fast_non_dominated_sort(black_box(&mut p)).len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("hypervolume");
    for n in [8usize, 32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            // A 3-D trade-off surface.
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    vec![t, 1.0 - t, (t - 0.5).abs()]
                })
                .collect();
            let r = [1.5, 1.5, 1.5];
            b.iter(|| hypervolume(black_box(&pts), &r))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nsga2);
criterion_main!(benches);
