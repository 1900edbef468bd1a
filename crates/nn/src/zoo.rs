//! The four evaluation networks (paper Table 1) plus reduced-scale variants.
//!
//! * **Full** scale reproduces the paper's exact layer dimensions — used for
//!   storage/ratio experiments and forward-time measurement (weights can be
//!   synthesized; ImageNet training is out of scope, see the `dsz_datagen`
//!   crate docs for the surrogate substitutions).
//! * **Reduced** scale keeps each network's *shape* (relative fc-layer
//!   sizes, depth, activation structure) at roughly 1/8 width for AlexNet
//!   and VGG-16 so the accuracy experiments can train the fc head on
//!   synthetic features in CPU-tractable time. LeNets are small enough to
//!   use at full scale everywhere.

use crate::{ConvLayer, DenseLayer, Layer, Network};
use dsz_tensor::{Matrix, VolShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The evaluated architectures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// 3 fc layers on 28×28 inputs (MNIST-class).
    LeNet300,
    /// 3 conv + 2 fc layers on 28×28 inputs (MNIST-class).
    LeNet5,
    /// 5 conv + 3 fc layers on 227×227×3 inputs (ImageNet-class).
    AlexNet,
    /// 13 conv + 3 fc layers on 224×224×3 inputs (ImageNet-class).
    Vgg16,
}

impl Arch {
    /// All four, in the paper's order.
    pub const ALL: [Arch; 4] = [Arch::LeNet300, Arch::LeNet5, Arch::AlexNet, Arch::Vgg16];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Arch::LeNet300 => "LeNet-300-100",
            Arch::LeNet5 => "LeNet-5",
            Arch::AlexNet => "AlexNet",
            Arch::Vgg16 => "VGG-16",
        }
    }

    /// Full-scale fc-layer dimensions `(name, rows, cols)` — Table 1.
    pub fn fc_dims(self) -> &'static [(&'static str, usize, usize)] {
        match self {
            Arch::LeNet300 => &[("ip1", 300, 784), ("ip2", 100, 300), ("ip3", 10, 100)],
            Arch::LeNet5 => &[("ip1", 500, 800), ("ip2", 10, 500)],
            Arch::AlexNet => &[
                ("fc6", 4096, 9216),
                ("fc7", 4096, 4096),
                ("fc8", 1000, 4096),
            ],
            Arch::Vgg16 => &[
                ("fc6", 4096, 25088),
                ("fc7", 4096, 4096),
                ("fc8", 1000, 4096),
            ],
        }
    }

    /// Conv-layer count (Table 1).
    pub fn conv_layers(self) -> usize {
        match self {
            Arch::LeNet300 => 0,
            Arch::LeNet5 => 3,
            Arch::AlexNet => 5,
            Arch::Vgg16 => 13,
        }
    }

    /// Paper-suggested per-fc-layer pruning densities (kept fraction),
    /// Table 2.
    pub fn pruning_densities(self) -> &'static [f64] {
        match self {
            Arch::LeNet300 => &[0.08, 0.09, 0.26],
            Arch::LeNet5 => &[0.08, 0.19],
            Arch::AlexNet => &[0.09, 0.09, 0.25],
            Arch::Vgg16 => &[0.03, 0.04, 0.24],
        }
    }
}

/// Build scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-exact dimensions.
    Full,
    /// ~1/8-width fc heads for the ImageNet-class nets (see module docs).
    Reduced,
}

/// Reduced-scale fc head dims `(name, rows, cols)` for the ImageNet-class
/// networks; LeNets are unchanged.
pub fn reduced_fc_dims(arch: Arch) -> Vec<(&'static str, usize, usize)> {
    match arch {
        Arch::LeNet300 | Arch::LeNet5 => arch.fc_dims().to_vec(),
        Arch::AlexNet => vec![("fc6", 512, 1152), ("fc7", 512, 512), ("fc8", 100, 512)],
        Arch::Vgg16 => vec![("fc6", 512, 3136), ("fc7", 512, 512), ("fc8", 100, 512)],
    }
}

fn he_dense(name: &str, rows: usize, cols: usize, rng: &mut StdRng) -> Layer {
    let std = (2.0 / cols as f64).sqrt() as f32;
    let data = (0..rows * cols).map(|_| sample_normal(rng) * std).collect();
    Layer::Dense(DenseLayer {
        name: name.to_string(),
        w: Matrix::from_vec(rows, cols, data),
        b: vec![0.0; rows],
    })
}

#[allow(clippy::too_many_arguments)]
fn he_conv(
    name: &str,
    out_c: usize,
    in_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    rng: &mut StdRng,
) -> Layer {
    let fan_in = in_c * k * k;
    let std = (2.0 / fan_in as f64).sqrt() as f32;
    let data = (0..out_c * fan_in)
        .map(|_| sample_normal(rng) * std)
        .collect();
    Layer::Conv(ConvLayer {
        name: name.to_string(),
        w: Matrix::from_vec(out_c, fan_in, data),
        b: vec![0.0; out_c],
        in_c,
        kh: k,
        kw: k,
        stride,
        pad,
    })
}

/// Box–Muller standard normal.
fn sample_normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Builds an architecture at the requested scale with He-initialized
/// weights (deterministic per `seed`).
pub fn build(arch: Arch, scale: Scale, seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    match (arch, scale) {
        (Arch::LeNet300, _) => Network {
            input_shape: VolShape { c: 1, h: 28, w: 28 },
            layers: vec![
                Layer::Flatten,
                he_dense("ip1", 300, 784, &mut rng),
                Layer::ReLU,
                he_dense("ip2", 100, 300, &mut rng),
                Layer::ReLU,
                he_dense("ip3", 10, 100, &mut rng),
            ],
        },
        (Arch::LeNet5, _) => Network {
            input_shape: VolShape { c: 1, h: 28, w: 28 },
            layers: vec![
                he_conv("conv1", 20, 1, 5, 1, 0, &mut rng), // 28→24
                Layer::ReLU,
                Layer::MaxPool2 { size: 2 },                 // 24→12
                he_conv("conv2", 50, 20, 5, 1, 0, &mut rng), // 12→8
                Layer::ReLU,
                Layer::MaxPool2 { size: 2 },                 // 8→4
                he_conv("conv3", 50, 50, 3, 1, 1, &mut rng), // 4→4 (3rd conv, Table 1)
                Layer::ReLU,
                Layer::Flatten, // 50·4·4 = 800
                he_dense("ip1", 500, 800, &mut rng),
                Layer::ReLU,
                he_dense("ip2", 10, 500, &mut rng),
            ],
        },
        (Arch::AlexNet, Scale::Full) => Network {
            input_shape: VolShape {
                c: 3,
                h: 227,
                w: 227,
            },
            layers: vec![
                he_conv("conv1", 96, 3, 11, 4, 0, &mut rng), // 227→55
                Layer::ReLU,
                Layer::MaxPool2 { size: 2 },                  // 55→27
                he_conv("conv2", 256, 96, 5, 1, 2, &mut rng), // 27→27
                Layer::ReLU,
                Layer::MaxPool2 { size: 2 }, // 27→13
                he_conv("conv3", 384, 256, 3, 1, 1, &mut rng),
                Layer::ReLU,
                he_conv("conv4", 384, 384, 3, 1, 1, &mut rng),
                Layer::ReLU,
                he_conv("conv5", 256, 384, 3, 1, 1, &mut rng),
                Layer::ReLU,
                Layer::MaxPool2 { size: 2 }, // 13→6
                Layer::Flatten,              // 256·6·6 = 9216
                he_dense("fc6", 4096, 9216, &mut rng),
                Layer::ReLU,
                he_dense("fc7", 4096, 4096, &mut rng),
                Layer::ReLU,
                he_dense("fc8", 1000, 4096, &mut rng),
            ],
        },
        (Arch::Vgg16, Scale::Full) => {
            let mut layers = Vec::new();
            let blocks: [(usize, usize); 5] = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
            let mut in_c = 3;
            let mut li = 0;
            for (ch, reps) in blocks {
                for _ in 0..reps {
                    li += 1;
                    layers.push(he_conv(&format!("conv{li}"), ch, in_c, 3, 1, 1, &mut rng));
                    layers.push(Layer::ReLU);
                    in_c = ch;
                }
                layers.push(Layer::MaxPool2 { size: 2 });
            }
            layers.push(Layer::Flatten); // 512·7·7 = 25088
            layers.push(he_dense("fc6", 4096, 25088, &mut rng));
            layers.push(Layer::ReLU);
            layers.push(he_dense("fc7", 4096, 4096, &mut rng));
            layers.push(Layer::ReLU);
            layers.push(he_dense("fc8", 1000, 4096, &mut rng));
            Network {
                input_shape: VolShape {
                    c: 3,
                    h: 224,
                    w: 224,
                },
                layers,
            }
        }
        (arch @ (Arch::AlexNet | Arch::Vgg16), Scale::Reduced) => {
            let dims = reduced_fc_dims(arch);
            let mut layers = Vec::with_capacity(dims.len() * 2 - 1);
            for (i, &(name, rows, cols)) in dims.iter().enumerate() {
                layers.push(he_dense(name, rows, cols, &mut rng));
                if i + 1 < dims.len() {
                    layers.push(Layer::ReLU);
                }
            }
            Network {
                input_shape: VolShape {
                    c: dims[0].2,
                    h: 1,
                    w: 1,
                },
                layers,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Batch;

    #[test]
    fn table1_fc_dims_match_paper() {
        // Spot-check the exact numbers in Table 1.
        assert_eq!(Arch::LeNet300.fc_dims()[0], ("ip1", 300, 784));
        assert_eq!(Arch::LeNet5.fc_dims()[0], ("ip1", 500, 800));
        assert_eq!(Arch::AlexNet.fc_dims()[0], ("fc6", 4096, 9216));
        assert_eq!(Arch::Vgg16.fc_dims()[0], ("fc6", 4096, 25088));
        assert_eq!(Arch::Vgg16.conv_layers(), 13);
    }

    #[test]
    fn lenet300_shapes() {
        let net = build(Arch::LeNet300, Scale::Full, 1);
        assert_eq!(net.fc_layers().len(), 3);
        assert_eq!(net.output_shape().len(), 10);
        // fc storage = whole storage (Table 1: 100%).
        assert_eq!(net.fc_bytes(), 4 * (300 * 784 + 100 * 300 + 10 * 100));
        let x = Batch {
            n: 2,
            shape: net.input_shape,
            data: vec![0.1; 2 * 784],
        };
        assert_eq!(net.forward(&x).features(), 10);
    }

    #[test]
    fn lenet5_flattens_to_800() {
        let net = build(Arch::LeNet5, Scale::Full, 2);
        let fcs = net.fc_layers();
        assert_eq!(fcs.len(), 2);
        assert_eq!((fcs[0].rows, fcs[0].cols), (500, 800));
        let convs = net
            .layers
            .iter()
            .filter(|l| matches!(l, Layer::Conv(_)))
            .count();
        assert_eq!(convs, 3);
        let x = Batch {
            n: 1,
            shape: net.input_shape,
            data: vec![0.5; 784],
        };
        assert_eq!(net.forward(&x).features(), 10);
    }

    #[test]
    fn alexnet_full_feature_dim_is_9216() {
        let net = build(Arch::AlexNet, Scale::Full, 3);
        let (prefix, head) = net.split_feature_head();
        assert_eq!(prefix.output_shape().len(), 9216);
        assert_eq!(head.fc_layers().len(), 3);
    }

    #[test]
    fn vgg16_full_feature_dim_is_25088() {
        let net = build(Arch::Vgg16, Scale::Full, 4);
        let (prefix, _) = net.split_feature_head();
        assert_eq!(prefix.output_shape().len(), 25088);
        assert_eq!(net.fc_layers().len(), 3);
        // Table 1: total ≈ 553 MB, fc share ≈ 89.4%.
        let total_mb = net.param_bytes() as f64 / (1024.0 * 1024.0);
        assert!((500.0..600.0).contains(&total_mb), "total {total_mb} MB");
        let share = net.fc_bytes() as f64 / net.param_bytes() as f64;
        assert!((0.85..0.93).contains(&share), "fc share {share}");
    }

    #[test]
    fn reduced_heads_preserve_size_skew() {
        for arch in [Arch::AlexNet, Arch::Vgg16] {
            let net = build(arch, Scale::Reduced, 5);
            let fcs = net.fc_layers();
            assert_eq!(fcs.len(), 3);
            // fc6 must dominate like at full scale.
            assert!(fcs[0].weights() > 4 * fcs[2].weights());
            let x = Batch::from_features(
                2,
                net.input_shape.len(),
                vec![0.1; 2 * net.input_shape.len()],
            );
            assert_eq!(net.forward(&x).features(), fcs[2].rows);
        }
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let a = build(Arch::LeNet300, Scale::Full, 42);
        let b = build(Arch::LeNet300, Scale::Full, 42);
        let c = build(Arch::LeNet300, Scale::Full, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn pruning_density_tables() {
        for arch in Arch::ALL {
            assert_eq!(arch.pruning_densities().len(), arch.fc_dims().len());
        }
    }
}
