//! Trained + pruned evaluation networks, cached on disk.
//!
//! Each of the paper's four networks is trained on its synthetic workload
//! (LeNets on the digit renderer at full scale; AlexNet/VGG-16 fc heads at
//! reduced scale on the ImageNet-feature surrogate — see the `dsz_datagen`
//! crate docs for the substitutions), pruned
//! with the paper's per-layer densities, and retrained with masks. The
//! result is cached under `target/dsz-cache/` so the many harness binaries
//! share one training run per network.

use dsz_datagen::{digits, features};
use dsz_nn::{accuracy, io, train, zoo, Arch, Dataset, Network, Scale, TrainConfig};
use dsz_prune::{prune_network, retrain};
use std::path::PathBuf;

/// A ready-to-compress workload: pruned + retrained network and its test
/// set (features already cached for conv architectures).
pub struct Workload {
    /// Which paper network.
    pub arch: Arch,
    /// The network DeepSZ operates on (fc head for conv architectures,
    /// with conv features pre-applied to the datasets).
    pub net: Network,
    /// Held-out evaluation data, matched to `net`'s input.
    pub test: Dataset,
    /// Training data (for retraining-cost measurements), matched likewise.
    pub train: Dataset,
    /// Top-1 accuracy of `net` on `test` after pruning + retraining.
    pub base_top1: f64,
    /// Top-5 accuracy likewise.
    pub base_top5: f64,
}

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from("target/dsz-cache");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Deterministic datasets per architecture (train, test).
pub fn datasets(arch: Arch) -> (Dataset, Dataset) {
    match arch {
        Arch::LeNet300 => (digits::dataset(3000, 101), digits::dataset(1000, 102)),
        Arch::LeNet5 => (digits::dataset(1200, 103), digits::dataset(600, 104)),
        Arch::AlexNet => {
            let spec = features::FeatureSpec::alexnet_reduced();
            features::train_test(&spec, 4000, 2000, 105)
        }
        Arch::Vgg16 => {
            let spec = features::FeatureSpec::vgg16_reduced();
            features::train_test(&spec, 3000, 1500, 106)
        }
    }
}

fn train_config(arch: Arch) -> TrainConfig {
    match arch {
        Arch::LeNet300 => TrainConfig {
            epochs: 3,
            lr: 0.08,
            ..Default::default()
        },
        Arch::LeNet5 => TrainConfig {
            epochs: 2,
            lr: 0.05,
            ..Default::default()
        },
        Arch::AlexNet => TrainConfig {
            epochs: 4,
            lr: 0.02,
            batch: 100,
            ..Default::default()
        },
        // The 3136-d VGG head diverges at lr 0.02; 0.005 converges to the
        // calibrated accuracy regime.
        Arch::Vgg16 => TrainConfig {
            epochs: 4,
            lr: 0.005,
            batch: 100,
            ..Default::default()
        },
    }
}

fn scale(arch: Arch) -> Scale {
    match arch {
        Arch::LeNet300 | Arch::LeNet5 => Scale::Full,
        Arch::AlexNet | Arch::Vgg16 => Scale::Reduced,
    }
}

/// Pruning densities for the *accuracy* workloads. The paper's VGG-16
/// densities (3%/4%) presume the enormous redundancy of the full-size fc6
/// (25088×4096); the 1/8-width reduced head cannot survive them, so the
/// reduced VGG uses the AlexNet-class densities. Full-size storage
/// experiments (Table 2, Fig. 2/4) keep the paper's densities.
pub fn reduced_pruning_densities(arch: Arch) -> Vec<f64> {
    match arch {
        Arch::Vgg16 => vec![0.09, 0.09, 0.25],
        _ => arch.pruning_densities().to_vec(),
    }
}

/// Masked-retraining schedule after pruning. The reduced VGG head needs a
/// longer recovery than one gentle epoch.
fn retrain_config(arch: Arch, cfg: &TrainConfig) -> TrainConfig {
    match arch {
        Arch::Vgg16 => TrainConfig {
            epochs: 5,
            lr: 0.01,
            ..*cfg
        },
        _ => TrainConfig {
            epochs: 1,
            lr: cfg.lr * 0.25,
            ..*cfg
        },
    }
}

/// Builds (or loads from cache) the pruned + retrained workload for `arch`.
pub fn workload(arch: Arch) -> Workload {
    let cache = cache_dir().join(format!("{}.dsnn", arch.name()));
    let (train_raw, test_raw) = datasets(arch);

    let pruned = if cache.exists() {
        io::load_from_file(&cache).expect("cached model readable")
    } else {
        eprintln!("[workloads] training {} (cached afterwards)…", arch.name());
        let mut net = zoo::build(arch, scale(arch), 0xD5_2019);
        let cfg = train_config(arch);
        train(&mut net, &train_raw, &cfg, None);
        let (masks, _) = prune_network(&mut net, &reduced_pruning_densities(arch));
        let retrain_cfg = retrain_config(arch, &cfg);
        retrain(&mut net, &train_raw, &retrain_cfg, &masks);
        io::save_to_file(&net, &cache).expect("cache writable");
        net
    };

    // Cache conv features so assessments only run the fc head.
    let (head, test) = dsz_core::cache_features(&pruned, &test_raw, 128);
    let (_, train_feats) = dsz_core::cache_features(&pruned, &train_raw, 128);
    let (base_top1, base_top5) = accuracy(&head, &test, 256, 5);
    Workload {
        arch,
        net: head,
        test,
        train: train_feats,
        base_top1,
        base_top5,
    }
}

/// Full-size synthesized pruned fc layers for the storage experiments
/// (Fig. 2, Fig. 4, Table 2's size columns): per layer, the dense pruned
/// matrix is never materialized for accuracy, only its value distribution
/// matters. Returns `(name, rows, cols, density, dense_pruned_weights)`.
pub fn full_size_pruned_layers(arch: Arch) -> Vec<(String, usize, usize, f64, Vec<f32>)> {
    let dims = arch.fc_dims();
    let densities = arch.pruning_densities();
    dims.iter()
        .zip(densities)
        .enumerate()
        .map(|(i, (&(name, rows, cols), &density))| {
            let mut dense = dsz_datagen::weights::trained_fc_weights(
                rows,
                cols,
                0xFEED ^ (i as u64) << 8 ^ arch_seed(arch),
            );
            dsz_prune::prune_to_density(&mut dense, density);
            (name.to_string(), rows, cols, density, dense)
        })
        .collect()
}

fn arch_seed(arch: Arch) -> u64 {
    match arch {
        Arch::LeNet300 => 1,
        Arch::LeNet5 => 2,
        Arch::AlexNet => 3,
        Arch::Vgg16 => 4,
    }
}

/// The paper's final chosen error bounds per fc layer (§5.2.2), used when
/// reproducing full-size storage numbers without an accuracy loop.
pub fn paper_error_bounds(arch: Arch) -> &'static [f64] {
    match arch {
        Arch::LeNet300 => &[2e-2, 3e-2, 4e-2],
        Arch::LeNet5 => &[3e-2, 8e-2],
        Arch::AlexNet => &[7e-3, 7e-3, 5e-3],
        Arch::Vgg16 => &[1e-2, 9e-3, 5e-3],
    }
}
