//! Table 2 (a–d) — per-layer compression statistics for the four networks:
//! original size, pruning ratio (kept density), two-array "CSR" size, and
//! the final DeepSZ-compressed size, plus overall ratios.
//!
//! LeNets run the full accuracy-driven pipeline (Algorithms 1+2 pick the
//! bounds). AlexNet/VGG-16 sizes are reproduced at full scale on
//! synthesized trained-weight distributions using the paper's final error
//! bounds (accuracy for those networks lives in Table 3 at reduced scale —
//! see the `dsz_datagen` crate docs for the surrogate substitutions).

use dsz_bench::tables::print_table;
use dsz_bench::workloads::{full_size_pruned_layers, paper_error_bounds, workload};
use dsz_bench::{fmt_bytes, fmt_ratio};
use dsz_core::{assess_network, optimize_for_accuracy, AssessmentConfig, DatasetEvaluator};
use dsz_lossless::best_fit;
use dsz_nn::Arch;
use dsz_sparse::PairArray;
use dsz_sz::{ErrorBound, SzConfig};

struct LayerRow {
    name: String,
    original: usize,
    density: f64,
    pair_bytes: usize,
    deepsz_bytes: usize,
}

fn print_arch(arch: Arch, rows: &[LayerRow]) {
    let mut table = Vec::new();
    let (mut tot_orig, mut tot_pair, mut tot_dsz) = (0usize, 0usize, 0usize);
    let mut weighted_density = 0f64;
    for r in rows {
        table.push(vec![
            r.name.clone(),
            fmt_bytes(r.original),
            format!("{:.0}%", r.density * 100.0),
            fmt_bytes(r.pair_bytes),
            fmt_bytes(r.deepsz_bytes),
            fmt_ratio(r.original as f64 / r.deepsz_bytes.max(1) as f64),
        ]);
        tot_orig += r.original;
        tot_pair += r.pair_bytes;
        tot_dsz += r.deepsz_bytes;
        weighted_density += r.density * r.original as f64;
    }
    table.push(vec![
        "overall".into(),
        fmt_bytes(tot_orig),
        format!("{:.1}%", weighted_density / tot_orig as f64 * 100.0),
        format!(
            "{} ({})",
            fmt_bytes(tot_pair),
            fmt_ratio(tot_orig as f64 / tot_pair.max(1) as f64)
        ),
        format!(
            "{} ({})",
            fmt_bytes(tot_dsz),
            fmt_ratio(tot_orig as f64 / tot_dsz.max(1) as f64)
        ),
        String::new(),
    ]);
    print_table(
        &format!(
            "Table 2: fc-layer compression statistics for {}",
            arch.name()
        ),
        &[
            "layer",
            "original",
            "pruning ratio",
            "pair-array size",
            "DeepSZ",
            "ratio",
        ],
        &table,
    );
}

/// Full pipeline for the trainable networks.
fn pipeline_rows(arch: Arch, expected_loss: f64) -> Vec<LayerRow> {
    let w = workload(arch);
    let eval = DatasetEvaluator::new(w.test.clone());
    let cfg = AssessmentConfig {
        expected_loss,
        ..Default::default()
    };
    let (assessments, _) = assess_network(&w.net, &cfg, &eval).expect("assessment");
    let plan = optimize_for_accuracy(&assessments, cfg.expected_loss).expect("plan");
    assessments
        .iter()
        .zip(&plan.layers)
        .map(|(a, c)| LayerRow {
            name: format!("{} (eb {:.0e})", a.fc.name, c.eb),
            original: a.pair.dense_bytes(),
            density: a.pair.nnz() as f64 / (a.pair.rows * a.pair.cols) as f64,
            pair_bytes: a.pair.size_bytes(),
            deepsz_bytes: c.total_bytes(),
        })
        .collect()
}

/// Storage-only reproduction at full scale with the paper's bounds.
fn full_size_rows(arch: Arch) -> Vec<LayerRow> {
    let ebs = paper_error_bounds(arch);
    full_size_pruned_layers(arch)
        .into_iter()
        .zip(ebs)
        .map(|((name, rows, cols, density, dense), &eb)| {
            let pair = PairArray::from_dense(&dense, rows, cols);
            let sz = SzConfig::default()
                .compress(&pair.data, ErrorBound::Abs(eb))
                .expect("sz compress");
            let (_, idx) = best_fit(&pair.index);
            LayerRow {
                name: format!("{name} (eb {eb:.0e})"),
                original: pair.dense_bytes(),
                density,
                pair_bytes: pair.size_bytes(),
                deepsz_bytes: sz.len() + idx.len(),
            }
        })
        .collect()
}

fn main() {
    for arch in [Arch::LeNet300, Arch::LeNet5] {
        let rows = pipeline_rows(arch, 0.002);
        print_arch(arch, &rows);
    }
    for arch in [Arch::AlexNet, Arch::Vgg16] {
        let rows = full_size_rows(arch);
        print_arch(arch, &rows);
    }
    println!(
        "\npaper overall ratios: LeNet-300-100 55.8x, LeNet-5 57.3x, AlexNet 45.5x, VGG-16 115.6x"
    );
}
