//! Table 3 — inference accuracy before/after DeepSZ at the user-set
//! expected loss (0.2% for the LeNets, 0.4% for AlexNet/VGG-16), plus fc
//! sizes and compression ratios. Runs the complete four-step pipeline on
//! each trained workload.

use dsz_bench::tables::print_table;
use dsz_bench::workloads::workload;
use dsz_bench::{fmt_bytes, fmt_ratio};
use dsz_core::{
    apply_decoded, assess_network, decode_model, encode_with_plan, optimize_for_accuracy,
    AccuracyEvaluator, AssessmentConfig, DatasetEvaluator,
};
use dsz_nn::Arch;

fn main() {
    let mut rows = Vec::new();
    for arch in Arch::ALL {
        let expected_loss = match arch {
            Arch::LeNet300 | Arch::LeNet5 => 0.002,
            Arch::AlexNet | Arch::Vgg16 => 0.004,
        };
        let w = workload(arch);
        let eval = DatasetEvaluator::new(w.test.clone());
        let cfg = AssessmentConfig {
            expected_loss,
            ..Default::default()
        };
        let (assessments, _) = assess_network(&w.net, &cfg, &eval).expect("assessment");
        let plan = optimize_for_accuracy(&assessments, expected_loss).expect("plan");
        let (model, report) = encode_with_plan(&assessments, &plan).expect("encode");
        let (decoded, _) = decode_model(&model).expect("decode");
        let mut net = w.net.clone();
        apply_decoded(&mut net, decoded).expect("apply");
        let (top1, top5) = eval.evaluate_topk(&net);

        rows.push(vec![
            format!("{} original", arch.name()),
            format!("{:.2}%", w.base_top1 * 100.0),
            format!("{:.2}%", w.base_top5 * 100.0),
            fmt_bytes(report.total_dense_bytes),
            String::new(),
        ]);
        rows.push(vec![
            format!("{} DeepSZ (ε*={:.1}%)", arch.name(), expected_loss * 100.0),
            format!("{:.2}%", top1 * 100.0),
            format!("{:.2}%", top5 * 100.0),
            fmt_bytes(report.total_bytes),
            fmt_ratio(report.ratio()),
        ]);
    }
    print_table(
        "Table 3: inference accuracy of DeepSZ-compressed networks",
        &["network", "top-1", "top-5", "fc size", "ratio"],
        &rows,
    );
    println!("\npaper: ≤ 0.3% top-1 loss in all cases (top-5 sometimes improves)");
    println!("note: AlexNet/VGG-16 run at reduced scale on the feature surrogate (substitutions: dsz_datagen crate docs)");
}
