//! Ablation: kernel choice for the Nadaraya-Watson estimator.
//!
//! The paper adopts the Gaussian kernel on the strength of Shapiai et al.
//! \[28\] ("the NWM model performs better with a Gaussian Kernel"). This
//! ablation re-runs the Fig. 3 accuracy protocol with each kernel.

use dovado::casestudies::cv32e40p;
use dovado::csv::CsvWriter;
use dovado_bench::{banner, write_csv, write_trace};
use dovado_surrogate::{mse_per_output, Kernel, ProbeSet, SurrogateController, ThresholdPolicy};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    banner(
        "Ablation — NW kernel choice (cv32e40p FIFO accuracy protocol)",
        "MSE per metric after 60 training samples, per kernel",
    );

    let cs = cv32e40p::case_study();
    let dovado = cs.dovado().expect("case study builds");
    let space = cs.space.clone();
    let metrics = cs.metrics.clone();

    let truth = |idx: i64| {
        let point = space.decode(&[idx]).expect("in range");
        metrics.extract(&dovado.evaluate_point(&point).expect("evaluates"))
    };

    let probe_pairs: Vec<(Vec<i64>, Vec<f64>)> = (0..50)
        .map(|i| (vec![i * 10 + 3], truth(i * 10 + 3)))
        .collect();
    let probes = ProbeSet::new(probe_pairs.clone());
    let m = metrics.len();
    let mut lo = vec![f64::INFINITY; m];
    let mut hi = vec![f64::NEG_INFINITY; m];
    for (_, v) in &probe_pairs {
        for i in 0..m {
            lo[i] = lo[i].min(v[i]);
            hi[i] = hi[i].max(v[i]);
        }
    }
    let scales: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| (h - l).max(1e-9)).collect();

    let mut indices: Vec<i64> = (0..500).collect();
    indices.shuffle(&mut StdRng::seed_from_u64(7));
    let train: Vec<i64> = indices.into_iter().take(60).collect();

    let mut csv = CsvWriter::new();
    csv.header(&["kernel", "mse_ff", "mse_lut", "mse_fmax", "bandwidth"]);
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "kernel", "MSE(FF)", "MSE(LUT)", "MSE(Fmax)", "bandwidth"
    );

    let mut rows: Vec<(Kernel, f64)> = Vec::new();
    for kernel in Kernel::ALL {
        let mut ctl =
            SurrogateController::new(space.index_bounds(), m, ThresholdPolicy::paper_default())
                .with_kernel(kernel);
        ctl.pretrain(train.iter().map(|&i| (vec![i], truth(i))).collect());
        let mse =
            mse_per_output(&ctl.model(), ctl.dataset(), &probes, &scales).expect("MSE computes");
        println!(
            "{:<14} {:>12.6} {:>12.6} {:>12.6} {:>10.3}",
            kernel.to_string(),
            mse[0],
            mse[1],
            mse[2],
            ctl.model().bandwidth
        );
        csv.row(&[
            kernel.to_string(),
            format!("{:.6}", mse[0]),
            format!("{:.6}", mse[1]),
            format!("{:.6}", mse[2]),
            format!("{:.3}", ctl.model().bandwidth),
        ]);
        rows.push((kernel, mse.iter().sum::<f64>()));
    }
    let path = write_csv("ablation_kernels.csv", csv);
    println!("wrote {}", path.display());
    let trace = write_trace("ablation_kernels.jsonl", &dovado.evaluator().snapshot());
    println!("wrote {}", trace.display());

    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!();
    println!("ranking by total normalized MSE (lower is better):");
    for (k, e) in &rows {
        println!("  {k:<14} {e:.6}");
    }
    println!(
        "paper's pick (gaussian) ranks #{} of {}",
        rows.iter()
            .position(|(k, _)| *k == Kernel::Gaussian)
            .unwrap()
            + 1,
        rows.len()
    );
}
