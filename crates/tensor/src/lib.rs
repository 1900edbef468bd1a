//! Minimal dense-tensor compute substrate for the DNN layers.
//!
//! The paper runs on Caffe + cuDNN; the framework itself only needs forward
//! passes (and SGD retraining for the pruning step), so this crate provides
//! exactly that foundation: a row-major [`Matrix`], matrix multiplication
//! parallelized over the persistent worker pool (the dense-layer kernel
//! packs the weights into panels and runs register tiles over them, see
//! [`matmul_transb_raw`]), and the im2col transform used to lower
//! convolutions to matmul.
//!
//! Execution model: the [`parallel`] helpers enqueue work onto the
//! lazily-initialized long-lived pool in [`pool`] (the caller always
//! participates, so nothing ever waits on pool availability); worker
//! budgets nest by division so parallelism composes without multiplying
//! threads. `docs/PARALLEL.md` documents the model end to end.

pub mod budget;
pub mod parallel;
pub mod pool;

use parallel::parallel_for_rows;
use std::cell::Cell;

/// Row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing storage (must be `rows * cols` long).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Self { rows, cols, data }
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor (debug-checked).
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }
}

/// Tile width along `k` for the blocked kernels; sized so that a tile of B
/// rows stays in L1/L2.
const K_BLOCK: usize = 256;

/// `C = A·B` where A is `m×k`, B is `k×n`. Parallel over rows of A.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "matmul inner dimension mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    let bdata = &b.data;
    let adata = &a.data;
    parallel_for_rows(m, &mut c.data, n, |r0, rows_chunk| {
        // i-k-j order with k blocking: streams rows of B through cache.
        for (ri, crow) in rows_chunk.chunks_exact_mut(n).enumerate() {
            let r = r0 + ri;
            let arow = &adata[r * k..(r + 1) * k];
            let mut k0 = 0;
            while k0 < k {
                let k1 = (k0 + K_BLOCK).min(k);
                for kk in k0..k1 {
                    let av = arow[kk];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &bdata[kk * n..kk * n + n];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
                k0 = k1;
            }
        }
    });
    c
}

/// `C = A·Bᵀ` where A is `m×k`, B is `n×k` (dense-layer forward with
/// weight rows as output neurons).
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.cols, "matmul_transb inner dimension mismatch");
    let mut c = Vec::new();
    matmul_transb_into(&a.data, a.rows, a.cols, b, &mut c);
    Matrix::from_vec(a.rows, b.rows, c)
}

/// `C = A·Bᵀ` into a caller-owned buffer: `a` is an `m×k` row-major slice,
/// `b` is `n×k`, and `out` is resized to `m·n` (reusing its capacity).
/// This is the allocation-free kernel behind [`matmul_transb`]; the
/// suffix-forward scratch path (`dsz_nn::Network::forward_from`) calls it
/// directly so repeated inference tests reuse one activation buffer. Both
/// entry points share one loop, so their outputs are bit-identical.
pub fn matmul_transb_into(a: &[f32], m: usize, k: usize, b: &Matrix, out: &mut Vec<f32>) {
    assert_eq!(b.cols, k, "matmul_transb_into inner dimension mismatch");
    matmul_transb_raw(a, m, k, &b.data, b.rows, out);
}

/// Outputs per packed panel of B: the register tile's width.
const NR: usize = 8;

/// Rows per register tile, and the batch width from which packing B into
/// panels pays for itself (each panel is reused once per row tile).
const MR: usize = 4;

thread_local! {
    /// Per-thread reusable packed-panel buffer for [`matmul_transb_raw`].
    /// The kernel takes it out for the call and puts it back afterwards:
    /// the pool lets a caller run queued work, so a nested call on the same
    /// thread simply finds it empty and allocates its own.
    static PANELS: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// `C = A·Bᵀ` with both operands as raw row-major slices: `a` is `m×k`,
/// `bdata` is `n×k`, and `out` is resized to `m·n`. This is the innermost
/// kernel behind [`matmul_transb`] and [`matmul_transb_into`]; the serving
/// layer calls it directly so weights shared out of the cross-model layer
/// cache (`Arc<Vec<f32>>`) multiply without being copied into a `Matrix`.
///
/// The kernel is register-tiled. From `m ≥ 4` rows it packs B once, on
/// the calling thread, into zero-padded panels of 8 outputs
/// (`panel[kk·8 + j]`) that the row workers share read-only, and runs a
/// 4-row × 8-output tile per panel (1-row tiles for leftover rows). Below
/// 4 rows the same 8-output tile reads B's rows in place, and outputs past
/// the last multiple of 8 take a scalar dot product.
///
/// Invariant, whatever the tile or packing: every output is its own
/// accumulator, starting at `+0.0` and adding `a[r,kk]·b[j,kk]` in
/// increasing `kk` (Rust never contracts that into an FMA). Outputs are
/// therefore bit-identical across entry points, batch widths and worker
/// counts: rows split across workers, no output's sum ever does.
pub fn matmul_transb_raw(
    a: &[f32],
    m: usize,
    k: usize,
    bdata: &[f32],
    n: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(a.len(), m * k, "matmul_transb lhs shape mismatch");
    assert_eq!(bdata.len(), n * k, "matmul_transb rhs shape mismatch");
    out.clear();
    out.resize(m * n, 0.0);
    if out.is_empty() || k == 0 {
        // Empty sums: every output keeps the `+0.0` it was filled with.
        return;
    }
    if m < MR {
        for (arow, crow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            row_unpacked(arow, bdata, crow);
        }
        return;
    }
    let mut panels = PANELS.take();
    pack_panels(bdata, k, &mut panels);
    parallel_for_rows(m, out, n, |r0, rows_chunk| {
        let arow = |r: usize| &a[r * k..(r + 1) * k];
        let mut quads = rows_chunk.chunks_exact_mut(MR * n);
        let mut r = r0;
        for quad in &mut quads {
            tile_rows(
                std::array::from_fn::<_, MR, _>(|i| arow(r + i)),
                &panels,
                quad,
            );
            r += MR;
        }
        for (i, crow) in quads.into_remainder().chunks_exact_mut(n).enumerate() {
            tile_rows([arow(r + i)], &panels, crow);
        }
    });
    PANELS.set(panels);
}

/// Packs `b` (`n×k`, row-major) into `ceil(n/8)` panels of `8·k` values,
/// `panel[kk·8 + j] = b[p·8 + j, kk]`, zero-padding the last panel.
fn pack_panels(b: &[f32], k: usize, panels: &mut Vec<f32>) {
    let n = b.len() / k;
    panels.clear();
    panels.resize(n.div_ceil(NR) * NR * k, 0.0);
    for (panel, bpanel) in panels.chunks_exact_mut(NR * k).zip(b.chunks(NR * k)) {
        for (j, brow) in bpanel.chunks_exact(k).enumerate() {
            for (slots, &bv) in panel.chunks_exact_mut(NR).zip(brow) {
                slots[j] = bv;
            }
        }
    }
}

/// One `R`-row × 8-output register tile per packed panel: `c` holds the
/// `R` output rows (`c.len() / R` outputs each), `arows` the matching rows
/// of A.
fn tile_rows<const R: usize>(arows: [&[f32]; R], panels: &[f32], c: &mut [f32]) {
    let k = arows[0].len();
    // Slicing every row to `k` once lets the compiler drop the per-`kk`
    // bounds checks in the tile loop.
    let arows = arows.map(|arow| &arow[..k]);
    let n = c.len() / R;
    for (p, panel) in panels.chunks_exact(NR * k).enumerate() {
        let mut acc = [[0f32; NR]; R];
        for kk in 0..k {
            let bv = &panel[kk * NR..][..NR];
            for (acc_r, arow) in acc.iter_mut().zip(&arows) {
                let x = arow[kk];
                for (cv, &y) in acc_r.iter_mut().zip(bv) {
                    *cv += x * y;
                }
            }
        }
        let j0 = p * NR;
        let w = NR.min(n - j0);
        for (crow, acc_r) in c.chunks_exact_mut(n).zip(&acc) {
            crow[j0..j0 + w].copy_from_slice(&acc_r[..w]);
        }
    }
}

/// One output row without packing: the 8-output tile reads eight rows of
/// `b` in place, and the last `n % 8` outputs take a scalar dot product.
fn row_unpacked(arow: &[f32], b: &[f32], crow: &mut [f32]) {
    let k = arow.len();
    let mut bblocks = b.chunks_exact(NR * k);
    let mut cblocks = crow.chunks_exact_mut(NR);
    for (bblock, cblock) in (&mut bblocks).zip(&mut cblocks) {
        let brows: [&[f32]; NR] = std::array::from_fn(|j| &bblock[j * k..][..k]);
        let mut acc = [0f32; NR];
        for (kk, &x) in arow.iter().enumerate() {
            for (cv, brow) in acc.iter_mut().zip(&brows) {
                *cv += x * brow[kk];
            }
        }
        cblock.copy_from_slice(&acc);
    }
    for (cv, brow) in cblocks
        .into_remainder()
        .iter_mut()
        .zip(bblocks.remainder().chunks_exact(k))
    {
        let mut acc = 0f32;
        for (x, y) in arow.iter().zip(brow) {
            acc += x * y;
        }
        *cv = acc;
    }
}

/// `C = Aᵀ·B` where A is `k×m`, B is `k×n` (gradient wrt weights).
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows, b.rows, "matmul_transa inner dimension mismatch");
    let (k, m, n) = (a.rows, a.cols, b.cols);
    let mut c = Matrix::zeros(m, n);
    let adata = &a.data;
    let bdata = &b.data;
    parallel_for_rows(m, &mut c.data, n, |r0, rows_chunk| {
        for (ri, crow) in rows_chunk.chunks_exact_mut(n).enumerate() {
            let r = r0 + ri;
            for kk in 0..k {
                let av = adata[kk * m + r];
                if av == 0.0 {
                    continue;
                }
                let brow = &bdata[kk * n..kk * n + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    });
    c
}

/// Shape of an image volume (channels, height, width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolShape {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl VolShape {
    /// Element count.
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// True when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Output spatial size of a convolution/pool window.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (input + 2 * pad - kernel) / stride + 1
}

/// Lowers one CHW image into the im2col matrix with `c·kh·kw` rows and
/// `oh·ow` columns, so that convolution becomes `W · col`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    img: &[f32],
    shape: VolShape,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    out: &mut Matrix,
) {
    let oh = conv_out_dim(shape.h, kh, stride, pad);
    let ow = conv_out_dim(shape.w, kw, stride, pad);
    debug_assert_eq!(out.rows, shape.c * kh * kw);
    debug_assert_eq!(out.cols, oh * ow);
    for ci in 0..shape.c {
        let plane = &img[ci * shape.h * shape.w..(ci + 1) * shape.h * shape.w];
        for ky in 0..kh {
            for kx in 0..kw {
                let orow = (ci * kh * kw + ky * kw + kx) * out.cols;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let v = if iy >= 0
                            && (iy as usize) < shape.h
                            && ix >= 0
                            && (ix as usize) < shape.w
                        {
                            plane[iy as usize * shape.w + ix as usize]
                        } else {
                            0.0
                        };
                        out.data[orow + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
}

/// Inverse of [`im2col`]: scatters column-matrix gradients back into an
/// image-shaped gradient (accumulating where windows overlap).
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    cols: &Matrix,
    shape: VolShape,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    img: &mut [f32],
) {
    let oh = conv_out_dim(shape.h, kh, stride, pad);
    let ow = conv_out_dim(shape.w, kw, stride, pad);
    img.fill(0.0);
    for ci in 0..shape.c {
        for ky in 0..kh {
            for kx in 0..kw {
                let crow = (ci * kh * kw + ky * kw + kx) * cols.cols;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= shape.h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix as usize >= shape.w {
                            continue;
                        }
                        img[ci * shape.h * shape.w + iy as usize * shape.w + ix as usize] +=
                            cols.data[crow + oy * ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::with_workers;
    use proptest::prelude::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut acc = 0f32;
                for k in 0..a.cols {
                    acc += a.at(i, k) * b.at(k, j);
                }
                c.data[i * b.cols + j] = acc;
            }
        }
        c
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed;
        let data = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows, a.cols), (b.rows, b.cols));
        for (x, y) in a.data.iter().zip(&b.data) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (17, 33, 9), (64, 100, 50)] {
            let a = rand_matrix(m, k, 1);
            let b = rand_matrix(k, n, 2);
            assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-3);
        }
    }

    #[test]
    fn matmul_transb_matches_naive() {
        let a = rand_matrix(13, 21, 3);
        let b = rand_matrix(17, 21, 4);
        let want = naive_matmul(&a, &b.transpose());
        assert_close(&matmul_transb(&a, &b), &want, 1e-3);
    }

    #[test]
    fn matmul_transb_into_reuses_buffer_bit_identically() {
        let a = rand_matrix(9, 31, 21);
        let b = rand_matrix(5, 31, 22);
        let want = matmul_transb(&a, &b);
        // A dirty, differently-sized scratch buffer must come out identical.
        let mut out = vec![7.0f32; 3];
        matmul_transb_into(&a.data, a.rows, a.cols, &b, &mut out);
        assert_eq!(out, want.data);
        let cap = out.capacity();
        matmul_transb_into(&a.data, a.rows, a.cols, &b, &mut out);
        assert_eq!(out, want.data);
        assert_eq!(out.capacity(), cap, "steady-state call must not realloc");
    }

    /// The one-accumulator loop the register-tiled kernel replaced, kept as
    /// the oracle it must match bit for bit.
    fn oracle_transb(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0f32; m * n];
        for r in 0..m {
            let arow = &a[r * k..(r + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = 0f32;
                for (x, y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                out[r * n + j] = acc;
            }
        }
        out
    }

    /// Ordinary operands, signed zeros, subnormals, and tiny values whose
    /// products land in the subnormal range.
    fn operand() -> impl Strategy<Value = f32> {
        prop_oneof![
            12 => -2f32..2f32,
            2 => -1e-19f32..1e-19f32,
            1 => (1u32..0x0080_0000).prop_map(f32::from_bits),
            1 => (0x8000_0001u32..0x8080_0000).prop_map(f32::from_bits),
            1 => Just(0.0f32),
            1 => Just(-0.0f32),
        ]
    }

    /// Non-finite values, injected sparsely so most outputs stay finite.
    fn special() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(f32::NAN),
            Just(-f32::NAN),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::MAX),
        ]
    }

    /// `len` operands with up to three non-finite values planted in them.
    fn operands(len: usize) -> impl Strategy<Value = Vec<f32>> {
        (
            collection::vec(operand(), len),
            collection::vec((any::<usize>(), special()), 0..4),
        )
            .prop_map(move |(mut v, plant)| {
                if len > 0 {
                    for (at, x) in plant {
                        v[at % len] = x;
                    }
                }
                v
            })
    }

    /// Output bits, with every NaN mapped to one pattern: Rust leaves the
    /// sign and payload of a NaN result unspecified (the compiler may
    /// commute an operation's operands, and x86 returns the first NaN
    /// operand), so only NaN-ness is a property of the arithmetic.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every shape class the kernel distinguishes — m below and above
        /// the pack threshold with leftover rows, n below 8 and not a
        /// multiple of 8, k = 0 — at 1 and 4 workers.
        #[test]
        fn tiled_kernel_bit_identical_to_oracle(
            (m, k, n, a, b) in (1usize..14, 0usize..301, 1usize..42).prop_flat_map(
                |(m, k, n)| (Just((m, k, n)), operands(m * k), operands(n * k))
            ).prop_map(|((m, k, n), a, b)| (m, k, n, a, b))
        ) {
            let want = bits(&oracle_transb(&a, m, k, &b, n));
            for workers in [1usize, 4] {
                let mut got = vec![f32::NAN; 5];
                with_workers(workers, || matmul_transb_raw(&a, m, k, &b, n, &mut got));
                prop_assert_eq!(
                    bits(&got),
                    want.clone(),
                    "m={} k={} n={} workers={}",
                    m,
                    k,
                    n,
                    workers
                );
            }
        }
    }

    #[test]
    fn kernel_calls_from_pool_workers_match_the_oracle() {
        // Kernel calls inside pooled jobs (as in the parallel assessment),
        // each packing its own panels while other calls are in flight.
        let (m, k, n) = (24, 19, 17);
        let a = rand_matrix(m, k, 31);
        let b = rand_matrix(n, k, 32);
        let want = bits(&oracle_transb(&a.data, m, k, &b.data, n));
        let outs = with_workers(4, || {
            let jobs: Vec<usize> = (0..8).collect();
            crate::parallel::parallel_map(&jobs, |&i| {
                let (mi, ni) = (4 + 2 * i, 9 + i);
                let mut o = Vec::new();
                matmul_transb_raw(&a.data[..mi * k], mi, k, &b.data[..ni * k], ni, &mut o);
                (mi, ni, o)
            })
        });
        for (mi, ni, o) in outs {
            let want_i = bits(&oracle_transb(
                &a.data[..mi * k],
                mi,
                k,
                &b.data[..ni * k],
                ni,
            ));
            assert_eq!(bits(&o), want_i);
        }
        let mut full = Vec::new();
        matmul_transb_raw(&a.data, m, k, &b.data, n, &mut full);
        assert_eq!(bits(&full), want);
    }

    #[test]
    fn matmul_transa_matches_naive() {
        let a = rand_matrix(21, 13, 5);
        let b = rand_matrix(21, 17, 6);
        let want = naive_matmul(&a.transpose(), &b);
        assert_close(&matmul_transa(&a, &b), &want, 1e-3);
    }

    #[test]
    fn matmul_large_k_blocking() {
        let a = rand_matrix(4, 1000, 7);
        let b = rand_matrix(1000, 3, 8);
        assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-2);
    }

    #[test]
    fn transpose_involution() {
        let a = rand_matrix(7, 11, 9);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn conv_out_dims() {
        assert_eq!(conv_out_dim(28, 5, 1, 0), 24);
        assert_eq!(conv_out_dim(24, 2, 2, 0), 12);
        assert_eq!(conv_out_dim(4, 3, 1, 1), 4);
        assert_eq!(conv_out_dim(227, 11, 4, 0), 55);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel, stride 1, no pad: im2col is the identity layout.
        let shape = VolShape { c: 2, h: 3, w: 3 };
        let img: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut cols = Matrix::zeros(2, 9);
        im2col(&img, shape, 1, 1, 1, 0, &mut cols);
        assert_eq!(cols.data, img);
    }

    #[test]
    fn im2col_known_small_case() {
        // 1 channel 3×3, 2×2 kernel stride 1 → 4 windows.
        let shape = VolShape { c: 1, h: 3, w: 3 };
        let img = vec![1., 2., 3., 4., 5., 6., 7., 8., 9.];
        let mut cols = Matrix::zeros(4, 4);
        im2col(&img, shape, 2, 2, 1, 0, &mut cols);
        // Row layout: k=(0,0),(0,1),(1,0),(1,1); windows TL,TR,BL,BR.
        assert_eq!(cols.row(0), &[1., 2., 4., 5.]);
        assert_eq!(cols.row(1), &[2., 3., 5., 6.]);
        assert_eq!(cols.row(2), &[4., 5., 7., 8.]);
        assert_eq!(cols.row(3), &[5., 6., 8., 9.]);
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let shape = VolShape { c: 1, h: 2, w: 2 };
        let img = vec![1., 2., 3., 4.];
        let oh = conv_out_dim(2, 3, 1, 1);
        let mut cols = Matrix::zeros(9, oh * oh);
        im2col(&img, shape, 3, 3, 1, 1, &mut cols);
        // Center kernel tap over window (0,0) is img[0]; corner taps are 0.
        assert_eq!(cols.at(4, 0), 1.0);
        assert_eq!(cols.at(0, 0), 0.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the transforms are adjoint,
        // which is exactly the property backprop relies on.
        let shape = VolShape { c: 2, h: 5, w: 4 };
        let x: Vec<f32> = (0..shape.len()).map(|i| (i as f32 * 0.37).sin()).collect();
        let (kh, kw, stride, pad) = (3, 2, 1, 1);
        let oh = conv_out_dim(shape.h, kh, stride, pad);
        let ow = conv_out_dim(shape.w, kw, stride, pad);
        let mut cx = Matrix::zeros(shape.c * kh * kw, oh * ow);
        im2col(&x, shape, kh, kw, stride, pad, &mut cx);
        let y = rand_matrix(cx.rows, cx.cols, 11);
        let mut back = vec![0f32; shape.len()];
        col2im(&y, shape, kh, kw, stride, pad, &mut back);
        let lhs: f32 = cx.data.iter().zip(&y.data).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
