//! Valid-mode 2-D convolution, forward and backward.
//!
//! The paper's MNIST reference network uses two 3×3 convolution layers. The
//! direct kernels here operate on a single `[C, H, W]` volume; the batched
//! gradient pipeline lowers each example to a patch matrix ([`im2col_into`])
//! and runs the forward pass and the parameter gradients as one gemm-shaped
//! call per example through a [`Backend`] ([`conv2d_forward_gemm_on`],
//! [`conv2d_backward_params_on`]).
//! Both routes accumulate each output element in the same order — bias (or
//! zero) first, then `(ic, u, v)` / pixel terms in ascending lexicographic
//! order — so direct and gemm results are bit-identical.
//!
//! All routines are generic over the kernel element type ([`Elem`]). The
//! direct kernels allocate and are the test oracles; the entry points the
//! batched pipeline calls write into caller-owned scratch, so its
//! per-example loop stays allocation-free.

use crate::backend::Backend;
use crate::elem::Elem;

/// Dimensions of one convolution application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dDims {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of kernels).
    pub out_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
}

impl Conv2dDims {
    /// Output height for valid (no-padding, stride-1) convolution.
    pub fn out_h(&self) -> usize {
        self.in_h - self.k_h + 1
    }

    /// Output width for valid convolution.
    pub fn out_w(&self) -> usize {
        self.in_w - self.k_w + 1
    }

    /// Number of output pixels per channel (`out_h · out_w`) — the row
    /// count of the [`im2col_into`] patch matrix.
    pub fn patch_rows(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Receptive-field size (`in_channels · k_h · k_w`) — the column count
    /// of the [`im2col_into`] patch matrix and the row length of one kernel.
    pub fn patch_cols(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Validate buffer lengths for the forward pass.
    fn check<T>(&self, input: &[T], kernels: &[T], bias: &[T]) {
        assert!(
            self.k_h <= self.in_h && self.k_w <= self.in_w,
            "conv2d: kernel larger than input"
        );
        assert_eq!(
            input.len(),
            self.in_channels * self.in_h * self.in_w,
            "conv2d: input buffer length mismatch"
        );
        self.check_params(kernels, bias);
    }

    /// Validate the kernel and bias lengths.
    fn check_params<T>(&self, kernels: &[T], bias: &[T]) {
        assert_eq!(
            kernels.len(),
            self.out_channels * self.in_channels * self.k_h * self.k_w,
            "conv2d: kernel buffer length mismatch"
        );
        assert_eq!(
            bias.len(),
            self.out_channels,
            "conv2d: bias length mismatch"
        );
    }
}

/// Forward valid convolution: `out[oc,i,j] = b[oc] + Σ in[ic,i+u,j+v]·k[oc,ic,u,v]`.
///
/// `input` is `[C_in, H, W]`, `kernels` is `[C_out, C_in, kh, kw]`, output is
/// `[C_out, out_h, out_w]`, all row-major.
pub fn conv2d_forward<T: Elem>(
    input: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
) -> Vec<T> {
    dims.check(input, kernels, bias);
    let (oh, ow) = (dims.out_h(), dims.out_w());
    let mut out = vec![T::ZERO; dims.out_channels * oh * ow];
    for oc in 0..dims.out_channels {
        let out_plane = &mut out[oc * oh * ow..(oc + 1) * oh * ow];
        out_plane.fill(bias[oc]);
        for ic in 0..dims.in_channels {
            let in_plane = &input[ic * dims.in_h * dims.in_w..(ic + 1) * dims.in_h * dims.in_w];
            let k_base = ((oc * dims.in_channels) + ic) * dims.k_h * dims.k_w;
            for u in 0..dims.k_h {
                for v in 0..dims.k_w {
                    let kval = kernels[k_base + u * dims.k_w + v];
                    for i in 0..oh {
                        let in_row =
                            &in_plane[(i + u) * dims.in_w + v..(i + u) * dims.in_w + v + ow];
                        let out_row = &mut out_plane[i * ow..(i + 1) * ow];
                        for (o, x) in out_row.iter_mut().zip(in_row) {
                            *o += kval * *x;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Lower one `[C_in, H, W]` volume into a caller-owned patch matrix buffer.
///
/// `patches` must have length `patch_rows() · patch_cols()` and is fully
/// overwritten. Row `p = i·out_w + j` holds the receptive field of output
/// pixel `(i, j)`, with columns ordered `(ic, u, v)` lexicographically — the
/// same order a kernel's weights are stored in, and the same order the
/// direct kernels accumulate in.
///
/// # Panics
/// Panics if `input` or `patches` lengths disagree with `dims`.
pub fn im2col_into<T: Elem>(input: &[T], dims: &Conv2dDims, patches: &mut [T]) {
    assert_eq!(
        input.len(),
        dims.in_channels * dims.in_h * dims.in_w,
        "im2col: input buffer length mismatch"
    );
    assert_eq!(
        patches.len(),
        dims.patch_rows() * dims.patch_cols(),
        "im2col: patch buffer length mismatch"
    );
    let (oh, ow) = (dims.out_h(), dims.out_w());
    let cols = dims.patch_cols();
    for i in 0..oh {
        for j in 0..ow {
            let row = &mut patches[(i * ow + j) * cols..(i * ow + j + 1) * cols];
            let mut off = 0;
            for ic in 0..dims.in_channels {
                let in_plane = &input[ic * dims.in_h * dims.in_w..(ic + 1) * dims.in_h * dims.in_w];
                for u in 0..dims.k_h {
                    let src = (i + u) * dims.in_w + j;
                    row[off..off + dims.k_w].copy_from_slice(&in_plane[src..src + dims.k_w]);
                    off += dims.k_w;
                }
            }
        }
    }
}

/// Forward convolution as one [`Backend`] gemm over a patch matrix, into
/// `out` (`[C_out, patch_rows]`, overwritten). On [`Backend::native`] it is
/// bit-identical to [`conv2d_forward`]: the bias seeds each accumulator and
/// the `(ic, u, v)` terms follow in the same ascending order.
///
/// # Panics
/// Panics if buffer lengths disagree with `dims`.
pub fn conv2d_forward_gemm_on<T: Elem>(
    backend: Backend,
    patches: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
    out: &mut [T],
) {
    let (oc, rows, cols) = (dims.out_channels, dims.patch_rows(), dims.patch_cols());
    assert_eq!(
        patches.len(),
        rows * cols,
        "conv2d_forward_gemm: patch buffer length mismatch"
    );
    assert_eq!(
        out.len(),
        oc * rows,
        "conv2d_forward_gemm: output buffer length mismatch"
    );
    dims.check_params(kernels, bias);
    for (plane, &b) in out.chunks_exact_mut(rows).zip(bias) {
        plane.fill(b);
    }
    T::matmul_nt_acc_on(backend, out, kernels, patches, oc, cols, rows);
}

/// Parameter gradients of the valid convolution as one [`Backend`] gemm over
/// a patch matrix, into `d_kernels` (`[C_out, patch_cols]`) and `d_bias`
/// (both overwritten). On [`Backend::native`] it is bit-identical to the
/// kernel-gradient half of [`conv2d_backward`]: zero-seeded sums over
/// output pixels in row-major order.
///
/// # Panics
/// Panics if buffer lengths disagree with `dims`.
pub fn conv2d_backward_params_on<T: Elem>(
    backend: Backend,
    patches: &[T],
    d_out: &[T],
    dims: &Conv2dDims,
    d_kernels: &mut [T],
    d_bias: &mut [T],
) {
    let (oc, rows, cols) = (dims.out_channels, dims.patch_rows(), dims.patch_cols());
    assert_eq!(
        d_out.len(),
        oc * rows,
        "conv2d_backward_params: d_out length mismatch"
    );
    assert_eq!(
        patches.len(),
        rows * cols,
        "conv2d_backward_params: patch buffer length mismatch"
    );
    assert_eq!(
        d_kernels.len(),
        oc * cols,
        "conv2d_backward_params: d_kernels length mismatch"
    );
    assert_eq!(
        d_bias.len(),
        oc,
        "conv2d_backward_params: d_bias length mismatch"
    );
    d_kernels.fill(T::ZERO);
    T::matmul_acc_on(backend, d_kernels, d_out, patches, oc, rows, cols);
    for (db, plane) in d_bias.iter_mut().zip(d_out.chunks_exact(rows)) {
        let mut acc = T::ZERO;
        for v in plane {
            acc += *v;
        }
        *db = acc;
    }
}

/// Input gradient of the valid convolution, written into a caller-owned
/// buffer of input shape (fully overwritten).
///
/// The transposed convolution of `d_out` with the kernels, accumulated
/// directly (per `(oc, ic, u, v)` in ascending order). Both the scalar and
/// the batched pipeline share this routine, so the summation order over
/// output channels is identical.
///
/// # Panics
/// Panics if buffer lengths disagree with `dims`.
pub fn conv2d_backward_input_into<T: Elem>(
    kernels: &[T],
    d_out: &[T],
    dims: &Conv2dDims,
    d_input: &mut [T],
) {
    let (oh, ow) = (dims.out_h(), dims.out_w());
    assert_eq!(
        d_out.len(),
        dims.out_channels * oh * ow,
        "conv2d_backward_input: d_out length mismatch"
    );
    assert_eq!(
        kernels.len(),
        dims.out_channels * dims.patch_cols(),
        "conv2d_backward_input: kernel buffer length mismatch"
    );
    assert_eq!(
        d_input.len(),
        dims.in_channels * dims.in_h * dims.in_w,
        "conv2d_backward_input: d_input length mismatch"
    );
    d_input.fill(T::ZERO);
    for oc in 0..dims.out_channels {
        let d_plane = &d_out[oc * oh * ow..(oc + 1) * oh * ow];
        for ic in 0..dims.in_channels {
            let di_plane_base = ic * dims.in_h * dims.in_w;
            let k_base = ((oc * dims.in_channels) + ic) * dims.k_h * dims.k_w;
            for u in 0..dims.k_h {
                for v in 0..dims.k_w {
                    let kval = kernels[k_base + u * dims.k_w + v];
                    for i in 0..oh {
                        let d_row = &d_plane[i * ow..(i + 1) * ow];
                        let di_off = di_plane_base + (i + u) * dims.in_w + v;
                        let di_row = &mut d_input[di_off..di_off + ow];
                        for (di, d) in di_row.iter_mut().zip(d_row) {
                            *di += kval * *d;
                        }
                    }
                }
            }
        }
    }
}

/// Gradients of the valid convolution on one example.
///
/// Given the upstream gradient `d_out` (`[C_out, out_h, out_w]`), returns
/// `(d_input, d_kernels, d_bias)` with the shapes of `input`, `kernels` and
/// `bias` respectively.
pub fn conv2d_backward<T: Elem>(
    input: &[T],
    kernels: &[T],
    d_out: &[T],
    dims: &Conv2dDims,
) -> (Vec<T>, Vec<T>, Vec<T>) {
    let (oh, ow) = (dims.out_h(), dims.out_w());
    assert_eq!(
        d_out.len(),
        dims.out_channels * oh * ow,
        "conv2d_backward: d_out length mismatch"
    );
    assert_eq!(
        input.len(),
        dims.in_channels * dims.in_h * dims.in_w,
        "conv2d_backward: input length mismatch"
    );
    let mut d_kernels = vec![T::ZERO; kernels.len()];
    let mut d_bias = vec![T::ZERO; dims.out_channels];
    for oc in 0..dims.out_channels {
        let d_plane = &d_out[oc * oh * ow..(oc + 1) * oh * ow];
        let mut bias_acc = T::ZERO;
        for v in d_plane {
            bias_acc += *v;
        }
        d_bias[oc] = bias_acc;
        for ic in 0..dims.in_channels {
            let in_plane = &input[ic * dims.in_h * dims.in_w..(ic + 1) * dims.in_h * dims.in_w];
            let k_base = ((oc * dims.in_channels) + ic) * dims.k_h * dims.k_w;
            for u in 0..dims.k_h {
                for v in 0..dims.k_w {
                    let mut kgrad = T::ZERO;
                    for i in 0..oh {
                        let d_row = &d_plane[i * ow..(i + 1) * ow];
                        let in_off = (i + u) * dims.in_w + v;
                        let in_row = &in_plane[in_off..in_off + ow];
                        for (d, x) in d_row.iter().zip(in_row) {
                            kgrad += *d * *x;
                        }
                    }
                    d_kernels[k_base + u * dims.k_w + v] = kgrad;
                }
            }
        }
    }
    let mut d_input = vec![T::ZERO; input.len()];
    conv2d_backward_input_into(kernels, d_out, dims, &mut d_input);
    (d_input, d_kernels, d_bias)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims_1ch(h: usize, w: usize, k: usize) -> Conv2dDims {
        Conv2dDims {
            in_channels: 1,
            out_channels: 1,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
        }
    }

    fn pseudo(len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 2654435761 % 1009) as f64 - 504.0) * scale)
            .collect()
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel of value 1 with zero bias is the identity.
        let input: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let out = conv2d_forward(&input, &[1.0], &[0.0], &dims_1ch(3, 3, 1));
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // Input 3x3 = [1..9], kernel = all ones 2x2, valid output 2x2.
        let input: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let kernel = vec![1.0; 4];
        let out = conv2d_forward(&input, &kernel, &[0.0], &dims_1ch(3, 3, 2));
        // Windows: [1,2,4,5]=12, [2,3,5,6]=16, [4,5,7,8]=24, [5,6,8,9]=28
        assert_eq!(out, vec![12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = vec![0.0; 9];
        let dims = Conv2dDims {
            in_channels: 1,
            out_channels: 2,
            in_h: 3,
            in_w: 3,
            k_h: 3,
            k_w: 3,
        };
        let out = conv2d_forward(&input, &[0.0; 18], &[1.5, -2.0], &dims);
        assert_eq!(out, vec![1.5, -2.0]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        // Two input channels with 1x1 kernels k=[2, 3]: out = 2*a + 3*b.
        let dims = Conv2dDims {
            in_channels: 2,
            out_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 1,
            k_w: 1,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let out = conv2d_forward(&input, &[2.0, 3.0], &[0.0], &dims);
        assert_eq!(out, vec![32.0, 64.0, 96.0, 128.0]);
    }

    /// Two input channels, three kernels and a non-square kernel: the shape
    /// of every gemm-vs-direct comparison below.
    const DIMS: Conv2dDims = Conv2dDims {
        in_channels: 2,
        out_channels: 3,
        in_h: 6,
        in_w: 5,
        k_h: 3,
        k_w: 2,
    };

    fn nan_filled<T: Elem>(len: usize) -> Vec<T> {
        vec![T::from_f64(f64::NAN); len]
    }

    /// [`im2col_into`] over NaN-poisoned scratch, so a lowering that leaves
    /// an element unwritten fails every comparison built on the patches.
    fn patches_of<T: Elem>(input: &[T], dims: &Conv2dDims) -> Vec<T> {
        let mut patches = nan_filled(dims.patch_rows() * dims.patch_cols());
        im2col_into(input, dims, &mut patches);
        patches
    }

    /// [`conv2d_forward_gemm_on`] on the native backend into NaN-poisoned
    /// scratch.
    fn gemm_forward<T: Elem>(
        patches: &[T],
        kernels: &[T],
        bias: &[T],
        dims: &Conv2dDims,
    ) -> Vec<T> {
        let mut out = nan_filled(dims.out_channels * dims.patch_rows());
        conv2d_forward_gemm_on(Backend::native(), patches, kernels, bias, dims, &mut out);
        out
    }

    #[test]
    fn im2col_rows_hold_receptive_fields() {
        // Input 3x3 = [1..9], 2x2 kernel: row for output pixel (0,0) is the
        // top-left window in (ic, u, v) order.
        let input: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let p = patches_of(&input, &dims_1ch(3, 3, 2));
        assert_eq!(&p[0..4], &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(&p[4..8], &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(&p[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn f32_gemm_forward_matches_direct() {
        let input: Vec<f32> = pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2)
            .iter()
            .map(|&v| v as f32)
            .collect();
        let kernels: Vec<f32> = pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3)
            .iter()
            .map(|&v| v as f32)
            .collect();
        let bias = vec![0.3f32, -0.2, 0.1];
        let direct = conv2d_forward(&input, &kernels, &bias, &DIMS);
        let gemm = gemm_forward(&patches_of(&input, &DIMS), &kernels, &bias, &DIMS);
        for (g, d) in gemm.iter().zip(&direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn gemm_forward_is_bit_identical_to_direct() {
        let input = pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2);
        let kernels = pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3);
        let bias = vec![0.3, -0.2, 0.1];
        let direct = conv2d_forward(&input, &kernels, &bias, &DIMS);
        let gemm = gemm_forward(&patches_of(&input, &DIMS), &kernels, &bias, &DIMS);
        for (g, d) in gemm.iter().zip(&direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn gemm_param_gradients_are_bit_identical_to_direct() {
        let input = pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2);
        let kernels = pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3);
        let d_out = pseudo(DIMS.out_channels * DIMS.patch_rows(), 5e-3);
        let (d_in_direct, dk_direct, db_direct) = conv2d_backward(&input, &kernels, &d_out, &DIMS);
        let patches = patches_of(&input, &DIMS);
        let mut dk_gemm = nan_filled(dk_direct.len());
        let mut db_gemm = nan_filled(db_direct.len());
        conv2d_backward_params_on(
            Backend::native(),
            &patches,
            &d_out,
            &DIMS,
            &mut dk_gemm,
            &mut db_gemm,
        );
        for (g, d) in dk_gemm.iter().zip(&dk_direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
        for (g, d) in db_gemm.iter().zip(&db_direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
        // The input gradient is one shared routine; poisoned scratch must
        // come back exactly as the oracle's zero-seeded buffer did.
        let mut d_in = nan_filled(d_in_direct.len());
        conv2d_backward_input_into(&kernels, &d_out, &DIMS, &mut d_in);
        for (g, d) in d_in.iter().zip(&d_in_direct) {
            assert_eq!(g.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn forward_propagates_nan_through_zero_kernels() {
        // A NaN input times a zero kernel weight must poison the output —
        // the old zero-skip fast path silently dropped it.
        let out = conv2d_forward(&[f64::NAN], &[0.0], &[0.0], &dims_1ch(1, 1, 1));
        assert!(out[0].is_nan());
        let mut d_in = [0.0];
        conv2d_backward_input_into(&[0.0], &[f64::NAN], &dims_1ch(1, 1, 1), &mut d_in);
        assert!(d_in[0].is_nan());
    }

    /// Finite-difference check of all three gradients.
    #[test]
    fn backward_matches_finite_differences() {
        let dims = Conv2dDims {
            in_channels: 2,
            out_channels: 3,
            in_h: 5,
            in_w: 4,
            k_h: 3,
            k_w: 2,
        };
        let input: Vec<f64> = (0..dims.in_channels * dims.in_h * dims.in_w)
            .map(|i| ((i * 37 % 17) as f64 - 8.0) * 0.1)
            .collect();
        let kernels: Vec<f64> = (0..dims.out_channels * dims.in_channels * dims.k_h * dims.k_w)
            .map(|i| ((i * 53 % 23) as f64 - 11.0) * 0.05)
            .collect();
        let bias = vec![0.3, -0.2, 0.1];

        // Scalar loss L = Σ w_ij · out_ij with fixed pseudo-random weights.
        let out = conv2d_forward(&input, &kernels, &bias, &dims);
        let weights: Vec<f64> = (0..out.len())
            .map(|i| ((i * 7 % 5) as f64 - 2.0) * 0.25)
            .collect();
        let d_out = weights.clone();
        let (d_in, d_k, d_b) = conv2d_backward(&input, &kernels, &d_out, &dims);

        let loss = |inp: &[f64], ker: &[f64], b: &[f64]| -> f64 {
            conv2d_forward(inp, ker, b, &dims)
                .iter()
                .zip(&weights)
                .map(|(o, w)| o * w)
                .sum()
        };
        let h = 1e-6;
        // Spot-check a spread of coordinates in each gradient.
        for idx in [0, 7, 19, input.len() - 1] {
            let mut p = input.clone();
            p[idx] += h;
            let num = (loss(&p, &kernels, &bias) - loss(&input, &kernels, &bias)) / h;
            assert!(
                (num - d_in[idx]).abs() < 1e-5,
                "d_input[{idx}]: {num} vs {}",
                d_in[idx]
            );
        }
        for idx in [0, 5, 17, kernels.len() - 1] {
            let mut p = kernels.clone();
            p[idx] += h;
            let num = (loss(&input, &p, &bias) - loss(&input, &kernels, &bias)) / h;
            assert!(
                (num - d_k[idx]).abs() < 1e-5,
                "d_kernels[{idx}]: {num} vs {}",
                d_k[idx]
            );
        }
        for idx in 0..bias.len() {
            let mut p = bias.clone();
            p[idx] += h;
            let num = (loss(&input, &kernels, &p) - loss(&input, &kernels, &bias)) / h;
            assert!(
                (num - d_b[idx]).abs() < 1e-5,
                "d_bias[{idx}]: {num} vs {}",
                d_b[idx]
            );
        }
    }

    #[test]
    #[should_panic(expected = "kernel larger than input")]
    fn kernel_too_large_panics() {
        conv2d_forward(&[0.0; 4], &[0.0; 9], &[0.0], &dims_1ch(2, 2, 3));
    }

    #[test]
    #[should_panic(expected = "input buffer length mismatch")]
    fn input_length_checked() {
        conv2d_forward(&[0.0; 8], &[0.0], &[0.0], &dims_1ch(3, 3, 1));
    }

    #[test]
    #[should_panic(expected = "conv2d: bias length mismatch")]
    fn gemm_forward_checks_bias_length() {
        let dims = dims_1ch(3, 3, 2);
        let patches = vec![0.0; dims.patch_rows() * dims.patch_cols()];
        let mut out = vec![0.0; dims.patch_rows()];
        conv2d_forward_gemm_on(
            Backend::native(),
            &patches,
            &[0.0; 4],
            &[0.0; 2],
            &dims,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "conv2d: kernel buffer length mismatch")]
    fn gemm_forward_checks_kernel_length() {
        let dims = dims_1ch(3, 3, 2);
        let patches = vec![0.0; dims.patch_rows() * dims.patch_cols()];
        let mut out = vec![0.0; dims.patch_rows()];
        conv2d_forward_gemm_on(
            Backend::native(),
            &patches,
            &[0.0; 5],
            &[0.0],
            &dims,
            &mut out,
        );
    }
}
