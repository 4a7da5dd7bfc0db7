//! Matrix multiplication kernels.
//!
//! The paper restores KV via cuBLAS GEMMs; here we provide register-tiled
//! CPU GEMMs that are fast enough for the functional test models while
//! keeping a bit-for-bit deterministic accumulation order: every output
//! element accumulates its products in one ascending-`k` chain, in every
//! entry point — serial, multi-threaded, `matmul_nt` and the single-row
//! `matvec_nt` — which lets tests compare the prefill path and the
//! restoration path for *exact* equality when they perform the same
//! mathematical operation.
//!
//! The performance-critical choices:
//!
//! * The inner loop runs over the *output* axis `j` (`c[j] += a_ik · b[j]`),
//!   whose lanes are independent and therefore vectorize, instead of over
//!   the reduction axis `k`, whose floating-point adds form a serial
//!   dependency chain the compiler must not reorder.
//! * The kernel holds an `MR × NR` tile of C in registers across the whole
//!   `k` loop: one load of a `b` segment feeds `MR` rows, and each C element
//!   is stored once instead of being read and written back at every `k`.
//!   Rows and columns that do not fill a tile take the plain row-streaming
//!   loop; both accumulate every output in the same ascending-`k` order, so
//!   where a row falls relative to a tile (which depends on how rows were
//!   split across threads) never changes a bit.
//! * `B` must already be `k × n`. [`matmul_nt`] takes `B` as `n × k` and
//!   transposes it on every call, which is *not* negligible at inference
//!   shapes: for a one-token decode (`m = 1`) the transpose touches as many
//!   elements as the multiply, and at `m = 64` it was still ≈ 45 % of a
//!   256 × 256 projection. Callers that multiply by the same matrix
//!   repeatedly — the model's weights — keep the `k × n` form and call
//!   [`matmul_par`]; `matmul_nt` remains for operands that exist only once.
//!
//! Every product is accumulated — there is no skip for a zero `a` element.
//! For finite inputs a skip could not change a bit anyway: C starts at
//! `+0.0`, `x + ±0.0 == x` for every nonzero `x`, and `+0.0 + -0.0 == +0.0`,
//! so not even the sign of a zero output depends on it. For non-finite
//! inputs the kernels follow IEEE-754 exactly as the naïve reference does:
//! `0 · ∞` and `0 · NaN` contribute `NaN`.
//!
//! The `*_par` variants split work by output rows across scoped threads
//! (budget from [`ParallelConfig`]); each row is computed by the same code
//! the serial kernel runs, so thread count never changes a single bit of
//! the result.

use crate::parallel::ParallelConfig;
use crate::Tensor2;

/// Rows of C held in registers by the tiled kernel.
const MR: usize = 4;
/// Columns of C held in registers by the tiled kernel.
const NR: usize = 16;

/// One `MR × NR` tile of `C = A · B`: rows `a_rows` of A against columns
/// `[j0, j0 + NR)` of B, accumulated in registers over ascending `k` and
/// stored once into `c_rows` (the `MR` full-width C rows of the tile).
#[inline(always)]
fn matmul_tile(a_rows: &[&[f32]; MR], b: &[f32], n: usize, j0: usize, c_rows: &mut [f32]) {
    let mut acc = [[0.0_f32; NR]; MR];
    for (kk, b_row) in b.chunks_exact(n).enumerate() {
        let b_seg: &[f32; NR] = b_row[j0..j0 + NR]
            .try_into()
            .expect("a slice of NR elements");
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let aval = a_row[kk];
            for (c, &bval) in acc_row.iter_mut().zip(b_seg) {
                *c += aval * bval;
            }
        }
    }
    for (acc_row, c_row) in acc.iter().zip(c_rows.chunks_exact_mut(n)) {
        c_row[j0..j0 + NR].copy_from_slice(acc_row);
    }
}

/// Columns `[j0, n)` of one C row, streaming over rows of B: the edge path
/// for what the tiles leave over.
fn matmul_row_edge(a_row: &[f32], b: &[f32], n: usize, j0: usize, c_row: &mut [f32]) {
    let c_edge = &mut c_row[j0..];
    for (&aval, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
        for (c, &bval) in c_edge.iter_mut().zip(&b_row[j0..]) {
            *c += aval * bval;
        }
    }
}

/// Computes C rows `[row0, row0 + c_rows.len()/n)` of `C = A · B` into the
/// caller's zeroed row-major slice: full `MR × NR` tiles through
/// [`matmul_tile`], leftover columns and rows through [`matmul_row_edge`].
fn matmul_rows(a: &Tensor2, b: &Tensor2, row0: usize, c_rows: &mut [f32]) {
    let n = b.cols();
    let b = b.as_slice();
    let n_tiled = n - n % NR;
    let mut groups = c_rows.chunks_exact_mut(MR * n);
    let mut row = row0;
    for c_group in groups.by_ref() {
        let a_rows: [&[f32]; MR] = std::array::from_fn(|r| a.row(row + r));
        for j0 in (0..n_tiled).step_by(NR) {
            matmul_tile(&a_rows, b, n, j0, c_group);
        }
        if n_tiled < n {
            for (a_row, c_row) in a_rows.iter().zip(c_group.chunks_exact_mut(n)) {
                matmul_row_edge(a_row, b, n, n_tiled, c_row);
            }
        }
        row += MR;
    }
    for c_row in groups.into_remainder().chunks_exact_mut(n) {
        matmul_row_edge(a.row(row), b, n, 0, c_row);
        row += 1;
    }
}

/// `C = A · B` where `A` is `m×k` and `B` is `k×n`.
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    matmul_par(a, b, &ParallelConfig::serial())
}

/// [`matmul`] with C's rows computed in parallel under `par`'s thread
/// budget. Bit-for-bit equal to the serial kernel for every thread count.
pub fn matmul_par(a: &Tensor2, b: &Tensor2, par: &ParallelConfig) -> Tensor2 {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimension mismatch: {}x{} * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let m = a.rows();
    let n = b.cols();
    let mut c = Tensor2::zeros(m, n);
    if n == 0 {
        return c; // degenerate output: nothing to compute (and rows/n below would be 0/0)
    }
    par.run_row_blocks(c.as_mut_slice(), m, n, |row0, chunk| {
        matmul_rows(a, b, row0, chunk)
    });
    c
}

/// `C = A · Bᵀ` where `A` is `m×k` and `B` is `n×k`.
///
/// This is the natural layout for attention scores (`Q · Kᵀ`) when K is
/// stored tokens-major, and for projections whose weights are stored
/// `out×in`. Transposes `B` on every call and runs the tiled kernel, so it
/// is the entry point for a `B` used once; a `B` used repeatedly should be
/// kept as `k×n` and go through [`matmul`] (see the module docs).
pub fn matmul_nt(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    matmul_nt_par(a, b, &ParallelConfig::serial())
}

/// [`matmul_nt`] with C's rows computed in parallel under `par`'s thread
/// budget. Bit-for-bit equal to the serial kernel for every thread count.
pub fn matmul_nt_par(a: &Tensor2, b: &Tensor2, par: &ParallelConfig) -> Tensor2 {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt inner dimension mismatch: {}x{} * ({}x{})^T",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    matmul_par(a, &b.transpose(), par)
}

/// Reference `A · Bᵀ` kernel: the naïve triple loop with one scalar
/// accumulator, exactly as the original (pre-blocking) kernel computed it.
/// Kept as the oracle the blocked kernels' equivalence tests compare
/// against.
pub fn matmul_nt_naive(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    assert_eq!(a.cols(), b.cols(), "matmul_nt_naive dimension mismatch");
    let (m, k) = a.shape();
    let n = b.rows();
    let mut c = Tensor2::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for j in 0..n {
            let b_row = b.row(j);
            let mut acc = 0.0_f32;
            for kk in 0..k {
                acc += a_row[kk] * b_row[kk];
            }
            c.set(i, j, acc);
        }
    }
    c
}

/// `y = x · Wᵀ` for a single row vector `x` (len `k`) and weight `W` (`n×k`).
///
/// Used on the decode path where activations are a single token. The plain
/// ascending-`k` chain per output matches the blocked kernels' accumulation
/// order, so a one-row `matmul_nt` and `matvec_nt` agree bitwise (up to
/// `±0.0`, which compares equal).
pub fn matvec_nt(x: &[f32], w: &Tensor2) -> Vec<f32> {
    assert_eq!(x.len(), w.cols(), "matvec_nt dimension mismatch");
    let mut y = vec![0.0_f32; w.rows()];
    for (j, out) in y.iter_mut().enumerate() {
        let row = w.row(j);
        let mut acc = 0.0_f32;
        for (a, b) in x.iter().zip(row.iter()) {
            acc += a * b;
        }
        *out = acc;
    }
    y
}

/// Number of floating point operations for an `m×k · k×n` GEMM, counting a
/// fused multiply-add as 2 FLOPs — the convention used by the paper (§3.2).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tensor_eq, REL_TOL};
    use proptest::prelude::*;

    fn naive_matmul(a: &Tensor2, b: &Tensor2) -> Tensor2 {
        let (m, k) = a.shape();
        let n = b.cols();
        Tensor2::from_fn(m, n, |i, j| {
            (0..k).map(|kk| a.get(i, kk) * b.get(kk, j)).sum()
        })
    }

    fn pseudo_tensor(rows: usize, cols: usize, seed: u64) -> Tensor2 {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as i32 % 19) as f32 * 0.25 - 0.5
        };
        Tensor2::from_fn(rows, cols, |_, _| next())
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor2::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        let eye = Tensor2::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_tensor_eq(&matmul(&a, &eye), &a, 0.0);
        assert_tensor_eq(&matmul(&eye, &a), &a, 0.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor2::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor2::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Tensor2::from_fn(4, 6, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0);
        let b = Tensor2::from_fn(5, 6, |r, c| ((r * 2 + c) % 7) as f32 - 3.0);
        let via_nt = matmul_nt(&a, &b);
        let via_t = matmul(&a, &b.transpose());
        assert_tensor_eq(&via_nt, &via_t, REL_TOL);
    }

    #[test]
    fn matmul_nt_matches_naive_reference_exactly() {
        // The blocked kernel accumulates each output in the same
        // ascending-k chain as the naïve triple loop, so the results agree
        // to the last bit (±0.0 compares equal). Sizes cross block
        // boundaries; the generator emits zeros to exercise the skip path.
        for (m, k, n) in [(3, 5, 4), (70, 65, 33), (65, 130, 67)] {
            let a = pseudo_tensor(m, k, 11);
            let b = pseudo_tensor(n, k, 23);
            assert_tensor_eq(&matmul_nt(&a, &b), &matmul_nt_naive(&a, &b), 0.0);
        }
    }

    #[test]
    fn matvec_matches_matmul_nt_single_row() {
        let w = Tensor2::from_fn(3, 4, |r, c| (r + c) as f32);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let y = matvec_nt(&x, &w);
        let a = Tensor2::from_vec(1, 4, x);
        let expect = matmul_nt(&a, &w);
        assert_eq!(y.as_slice(), expect.row(0));
    }

    #[test]
    fn gemm_flops_counts_fma_as_two() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    fn degenerate_shapes_produce_empty_or_zero_tensors() {
        // Zero output columns / rows / reduction length must not panic.
        let a = Tensor2::zeros(2, 3);
        assert_eq!(matmul(&a, &Tensor2::zeros(3, 0)).shape(), (2, 0));
        assert_eq!(matmul_nt(&a, &Tensor2::zeros(0, 3)).shape(), (2, 0));
        assert_eq!(
            matmul(&Tensor2::zeros(0, 3), &Tensor2::zeros(3, 4)).shape(),
            (0, 4)
        );
        // k == 0: all-zero C of the right shape.
        let c = matmul(&Tensor2::zeros(2, 0), &Tensor2::zeros(0, 4));
        assert_eq!(c.shape(), (2, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_rectangular_blocked_crosses_block_boundary() {
        // Sizes chosen to exceed one BLOCK so the blocked path is exercised.
        let a = Tensor2::from_fn(70, 65, |r, c| ((r + 2 * c) % 9) as f32 * 0.25 - 1.0);
        let b = Tensor2::from_fn(65, 33, |r, c| ((3 * r + c) % 11) as f32 * 0.125 - 0.5);
        assert_tensor_eq(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-3);
    }

    #[test]
    fn parallel_kernels_are_bitwise_equal_across_thread_counts() {
        // Exhaustive fixed-size check (the proptest below samples shapes):
        // C from N threads must equal serial C *exactly*, for both kernels.
        let a = pseudo_tensor(67, 33, 1);
        let b = pseudo_tensor(33, 29, 2);
        let bt = pseudo_tensor(29, 33, 3);
        let serial = matmul(&a, &b);
        let serial_nt = matmul_nt(&a, &bt);
        for threads in 1..=8 {
            let par = ParallelConfig::new(threads);
            assert_eq!(
                matmul_par(&a, &b, &par).as_slice(),
                serial.as_slice(),
                "matmul diverged at {threads} threads"
            );
            assert_eq!(
                matmul_nt_par(&a, &bt, &par).as_slice(),
                serial_nt.as_slice(),
                "matmul_nt diverged at {threads} threads"
            );
        }
    }

    fn bits(t: &Tensor2) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// Shapes straddling the register tile's edges (`MR` = 4 rows,
        /// `NR` = 16 columns) and inputs containing zeros: every output bit
        /// equals the naïve one-accumulator reference.
        #[test]
        fn tiled_kernel_matches_naive_bitwise_at_tile_edges(
            m in 1usize..10, n in 1usize..40, k in 1usize..70, seed in 0u64..500
        ) {
            let a = pseudo_tensor(m, k, seed);
            let b = pseudo_tensor(n, k, seed ^ 0x77);
            prop_assert_eq!(bits(&matmul_nt(&a, &b)), bits(&matmul_nt_naive(&a, &b)));
        }

        /// What makes the kernel safe to thread: computing C in any two
        /// contiguous row blocks (so rows land in different tiles, or in
        /// the edge path instead of a tile) gives the bits of one call.
        #[test]
        fn row_block_boundaries_never_change_a_bit(
            m in 1usize..14, n in 1usize..40, k in 1usize..40,
            cut in 0usize..14, seed in 0u64..500
        ) {
            let a = pseudo_tensor(m, k, seed);
            let b = pseudo_tensor(k, n, seed ^ 0x99);
            let cut = cut.min(m);
            let mut split = vec![0.0_f32; m * n];
            let (top, bottom) = split.split_at_mut(cut * n);
            matmul_rows(&a, &b, 0, top);
            matmul_rows(&a, &b, cut, bottom);
            let whole = matmul(&a, &b);
            prop_assert_eq!(
                split.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                bits(&whole)
            );
        }

        #[test]
        fn matmul_matches_naive(
            m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000
        ) {
            let mut s = seed;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 7) as f32 * 0.5
            };
            let a = Tensor2::from_fn(m, k, |_, _| next());
            let b = Tensor2::from_fn(k, n, |_, _| next());
            let fast = matmul(&a, &b);
            let slow = naive_matmul(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    prop_assert!(crate::approx_eq(fast.get(i, j), slow.get(i, j), 1e-3));
                }
            }
        }

        #[test]
        fn matmul_is_linear_in_first_argument(
            m in 1usize..5, k in 1usize..5, n in 1usize..5, alpha in -2.0f32..2.0
        ) {
            let a = Tensor2::from_fn(m, k, |r, c| (r as f32 - c as f32) * 0.5);
            let b = Tensor2::from_fn(k, n, |r, c| (r * n + c) as f32 * 0.1);
            let mut a_scaled = a.clone();
            a_scaled.scale(alpha);
            let mut lhs = matmul(&a, &b);
            lhs.scale(alpha);
            let rhs = matmul(&a_scaled, &b);
            for i in 0..m {
                for j in 0..n {
                    prop_assert!(crate::approx_eq(lhs.get(i, j), rhs.get(i, j), 1e-3));
                }
            }
        }

        #[test]
        fn parallel_matmul_is_bitwise_equal_to_serial(
            m in 1usize..40, k in 1usize..24, n in 1usize..24,
            seed in 0u64..500, threads in 1usize..9
        ) {
            let a = pseudo_tensor(m, k, seed);
            let b = pseudo_tensor(k, n, seed ^ 0xabcd);
            let serial = matmul(&a, &b);
            let par = matmul_par(&a, &b, &ParallelConfig::new(threads));
            prop_assert_eq!(serial.as_slice(), par.as_slice());
        }

        #[test]
        fn parallel_matmul_nt_is_bitwise_equal_to_serial(
            m in 1usize..40, k in 1usize..24, n in 1usize..24,
            seed in 0u64..500, threads in 1usize..9
        ) {
            let a = pseudo_tensor(m, k, seed);
            let b = pseudo_tensor(n, k, seed ^ 0x1234);
            let serial = matmul_nt(&a, &b);
            let par = matmul_nt_par(&a, &b, &ParallelConfig::new(threads));
            prop_assert_eq!(serial.as_slice(), par.as_slice());
        }
    }
}
