//! Criterion microbenchmarks for the decode path (Fig. 7b's stages as one
//! unit), encode/decode thread scaling over the chunked v2 SZ format, the
//! Bloomier filter (Weightless's bottleneck), and the tensor substrate
//! (matmul, the fc kernel at its hot shapes, forward pass).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsz_baselines::bloomier::Bloomier;
use dsz_baselines::weightless::{self, WlConfig};
use dsz_datagen::weights;
use dsz_nn::{zoo, Arch, Batch, Scale};
use dsz_sparse::PairArray;
use dsz_sz::{ErrorBound, SzConfig};
use dsz_tensor::parallel::{with_workers, worker_count};
use dsz_tensor::{matmul_transb, matmul_transb_into, Matrix};

fn decode_path(c: &mut Criterion) {
    // A pruned fc7-sized layer through the full DeepSZ decode pipeline.
    let dense = {
        let mut d = weights::trained_fc_weights(1024, 1024, 9);
        dsz_prune::prune_to_density(&mut d, 0.09);
        d
    };
    let pair = PairArray::from_dense(&dense, 1024, 1024);
    let sz_blob = SzConfig::default()
        .compress(&pair.data, ErrorBound::Abs(1e-2))
        .unwrap();
    let (idx_kind, idx_blob) = dsz_lossless::best_fit(&pair.index);
    let mut g = c.benchmark_group("decode_path");
    g.sample_size(10);
    g.bench_function("deepsz_layer_decode", |b| {
        b.iter(|| {
            let index = idx_kind.codec().decompress(&idx_blob).unwrap();
            let data = dsz_sz::decompress(&sz_blob).unwrap();
            let p = PairArray {
                rows: 1024,
                cols: 1024,
                data,
                index,
            };
            p.to_dense().unwrap()
        })
    });
    // Weightless must touch every position: structurally slower.
    let wl = weightless::encode_layer(&dense, 1024, 1024, &WlConfig::default()).unwrap();
    g.bench_function("weightless_layer_decode", |b| {
        b.iter(|| weightless::decode_layer(&wl))
    });
    g.finish();
}

fn thread_scaling(c: &mut Criterion) {
    // Chunk-parallel SZ encode/decode on a pruned fc7-sized layer: 1 thread
    // vs all available workers (identical bytes either way — only time
    // should differ).
    let dense = {
        let mut d = weights::trained_fc_weights(2048, 2048, 11);
        dsz_prune::prune_to_density(&mut d, 0.09);
        d
    };
    let pair = PairArray::from_dense(&dense, 2048, 2048);
    let blob = SzConfig::default()
        .compress(&pair.data, ErrorBound::Abs(1e-2))
        .unwrap();
    let mut counts = vec![1usize, worker_count()];
    counts.dedup();
    let mut g = c.benchmark_group("thread_scaling");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((pair.data.len() * 4) as u64));
    for &w in &counts {
        g.bench_function(BenchmarkId::new("sz_encode", w), |b| {
            b.iter(|| {
                with_workers(w, || {
                    SzConfig::default()
                        .compress(&pair.data, ErrorBound::Abs(1e-2))
                        .unwrap()
                })
            })
        });
        g.bench_function(BenchmarkId::new("sz_decode", w), |b| {
            b.iter(|| with_workers(w, || dsz_sz::decompress(&blob).unwrap()))
        });
    }
    g.finish();
}

fn bloomier_ops(c: &mut Criterion) {
    let pairs: Vec<(u64, u64)> = (0..50_000u64).map(|k| (k * 37, k % 16)).collect();
    let mut g = c.benchmark_group("bloomier");
    g.sample_size(10);
    g.bench_function("build_50k", |b| {
        b.iter(|| Bloomier::build(&pairs, 4, 8, 1.3).unwrap())
    });
    let filter = Bloomier::build(&pairs, 4, 8, 1.3).unwrap();
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("query_1m", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..1_000_000u64 {
                if let Some(v) = filter.query(k) {
                    acc ^= v;
                }
            }
            acc
        })
    });
    g.finish();
}

fn substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(10);
    let a = Matrix::from_vec(64, 784, vec![0.3; 64 * 784]);
    let w = Matrix::from_vec(300, 784, vec![0.1; 300 * 784]);
    g.throughput(Throughput::Elements(64 * 784 * 300));
    g.bench_function("dense_matmul_64x784x300", |b| {
        b.iter(|| matmul_transb(&a, &w))
    });

    // The fc kernel alone, single-threaded, at the shapes that dominate
    // the pipeline: ip1 (784 → 300) at serving batch widths 1 (unpacked
    // tile) and 8 (packed panels), and fc6 at the assessment suffix shape
    // (one 256-sample evaluation batch, 1152 → 512).
    for (name, m, k, n) in [
        ("ip1_w1", 1, 784, 300),
        ("ip1_w8", 8, 784, 300),
        ("fc6_assess_256x1152x512", 256, 1152, 512),
    ] {
        let a = vec![0.3f32; m * k];
        let w = Matrix::from_vec(n, k, vec![0.1; n * k]);
        let mut out = Vec::new();
        g.throughput(Throughput::Elements((m * k * n) as u64));
        g.bench_function(BenchmarkId::new("fc_kernel_1t", name), |b| {
            b.iter(|| with_workers(1, || matmul_transb_into(&a, m, k, &w, &mut out)))
        });
    }

    let net = zoo::build(Arch::LeNet5, Scale::Full, 3);
    let x = Batch {
        n: 16,
        shape: net.input_shape,
        data: vec![0.4; 16 * 784],
    };
    g.bench_function("lenet5_forward_16", |b| b.iter(|| net.forward(&x)));
    g.finish();
}

criterion_group!(
    benches,
    decode_path,
    thread_scaling,
    bloomier_ops,
    substrate
);
criterion_main!(benches);
