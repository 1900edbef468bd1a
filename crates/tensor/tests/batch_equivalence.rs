//! Batch-width bit-identity of the dense matmul kernel — the
//! micro-batcher's correctness anchor (`docs/SERVING.md`).
//!
//! The serving layer coalesces N single-sample requests into one
//! `matmul_transb_into` call with `m = N`. That is only legal because of
//! the kernel's invariant: each output is summed in `k` order from `+0.0`,
//! whatever the register tile or panel packing that computes it (the
//! kernel packs B into panels from 4 rows up and reads it in place below).
//! Batching changes how rows are grouped, tiled and parallelized, never
//! the per-output arithmetic. This suite pins that property — the batched
//! output must equal the per-sample outputs bit for bit, at every batch
//! width on both sides of the pack threshold, for output counts below 8,
//! not a multiple of 8, and above 8, and under every worker budget (tier1
//! sweeps `DSZ_THREADS=1/4`).

use dsz_tensor::parallel::with_workers;
use dsz_tensor::{matmul_transb_into, matmul_transb_raw, Matrix};

fn rand_vec(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Batched `m×k · (n×k)ᵀ` must be a row-for-row bit-identical stack of
/// the `1×k` per-sample products, for every output count, width and
/// worker budget.
#[test]
fn batched_matmul_bit_identical_to_per_sample_loops() {
    let k = 37;
    for n in [5usize, 10, 23] {
        let weights = Matrix::from_vec(n, k, rand_vec(n * k, 0xB17));
        for width in (1usize..=9).chain([13, 17]) {
            let a = rand_vec(width * k, 0xA11CE ^ (width as u64) << 8);
            for workers in [1usize, 4] {
                let mut batched = Vec::new();
                with_workers(workers, || {
                    matmul_transb_into(&a, width, k, &weights, &mut batched)
                });
                assert_eq!(batched.len(), width * n);
                for s in 0..width {
                    // The per-sample "loop": one m=1 call per request, exactly
                    // what an unbatched server would execute.
                    let mut single = Vec::new();
                    matmul_transb_into(&a[s * k..(s + 1) * k], 1, k, &weights, &mut single);
                    let got: Vec<u32> = batched[s * n..(s + 1) * n]
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let want: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "n {n} width {width} sample {s} diverged at {workers} workers"
                    );
                }
            }
        }
    }
}

/// The raw-slice kernel and the `Matrix`-typed entry point are one code
/// path: identical bits for identical operands.
#[test]
fn raw_kernel_matches_matrix_entry_point() {
    let (m, k, n) = (6, 41, 17);
    let a = rand_vec(m * k, 1);
    let b = Matrix::from_vec(n, k, rand_vec(n * k, 2));
    let mut via_matrix = Vec::new();
    matmul_transb_into(&a, m, k, &b, &mut via_matrix);
    let mut via_raw = vec![9.0f32; 3]; // dirty, wrongly-sized scratch
    matmul_transb_raw(&a, m, k, &b.data, n, &mut via_raw);
    assert_eq!(
        via_matrix.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        via_raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}
