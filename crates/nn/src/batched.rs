//! Element-generic batched layer kernels behind the batched passes of
//! [`crate::layers::Layer`] (`forward_batch_on`, the delta pass and the
//! per-example row writes), at whichever precision the model holds.
//!
//! Each helper is written once against [`Elem`] and a [`Backend`] handle:
//! the two precisions and every compute backend flow through the same code
//! path, so the accumulation order per element type is defined in exactly
//! one place. On [`Backend::native`] the gemms are the dispatched kernels
//! of [`dpaudit_tensor::ops`], so the f64 passes reproduce the scalar
//! oracle's accumulation order bit for bit.
//!
//! All helpers work on flat row-major `[B, ...]` slices; shape validation
//! stays with the callers (which own the layer structs and batch shapes).
//! Backward is split in two: the `*_backward_input` helpers propagate the
//! whole batch's deltas (the `d_in` gemms), and the `*_backward` helpers
//! write one example's parameter gradient over its segment of a gradient
//! row — the `[B, P]` collector calls them for every row, the fused clip
//! pass for the conv and batch-norm segments only (it recomputes dense
//! values on the fly).

use dpaudit_tensor::{
    conv2d_backward_input_into, conv2d_backward_params_on, conv2d_forward_gemm_on, im2col_into,
    maxpool2d_backward, maxpool2d_forward, Backend, Conv2dDims, Elem, PoolDims,
};

/// Example `ex`'s slice of a flat `[batch, ...]` buffer.
pub(crate) fn example<T>(data: &[T], batch: usize, ex: usize) -> &[T] {
    let len = data.len() / batch;
    &data[ex * len..(ex + 1) * len]
}

/// Batched dense forward `Y = X·Wᵀ + b`: one gemm for the whole batch, the
/// bias joining after the dot product (matching the scalar layer's
/// add-after-matvec order). `input` is `[B, in_f]`, `weight` is
/// `[out_f, in_f]`; returns `[B, out_f]`.
pub(crate) fn dense_forward<T: Elem>(
    backend: Backend,
    input: &[T],
    weight: &[T],
    bias: &[T],
    batch: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<T> {
    let mut y = vec![T::ZERO; batch * out_f];
    T::matmul_nt_acc_on(backend, &mut y, input, weight, batch, in_f, out_f);
    for row in y.chunks_exact_mut(out_f) {
        for (yi, bi) in row.iter_mut().zip(bias) {
            *yi += *bi;
        }
    }
    y
}

/// Batched dense input gradient `dX = dY·W`: one gemm for the whole batch.
/// `d_out` is `[B, out_f]`, `weight` is `[out_f, in_f]`; returns `[B, in_f]`.
pub(crate) fn dense_backward_input<T: Elem>(
    backend: Backend,
    d_out: &[T],
    weight: &[T],
    batch: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<T> {
    let mut d_in = vec![T::ZERO; batch * in_f];
    T::matmul_acc_on(backend, &mut d_in, d_out, weight, batch, out_f, in_f);
    d_in
}

/// One example's dense parameter gradient `[dW | db]` — the outer product
/// `δ ⊗ x` followed by `δ` — written over `grad` (`out_f·in_f + out_f`
/// values).
pub(crate) fn dense_backward<T: Elem>(d_out: &[T], input: &[T], grad: &mut [T]) {
    let n = input.len();
    let (d_w, d_b) = grad.split_at_mut(d_out.len() * n);
    for (dst_row, &dv) in d_w.chunks_exact_mut(n).zip(d_out) {
        for (dst, &xv) in dst_row.iter_mut().zip(input) {
            *dst = dv * xv;
        }
    }
    d_b.copy_from_slice(d_out);
}

/// Batched convolution forward: per-example `im2col` lowering and one
/// forward gemm each, writing straight into slices of batch-sized buffers.
/// Returns `(out, patches)` — the patch matrices are the backward cache.
pub(crate) fn conv_forward<T: Elem>(
    backend: Backend,
    input: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
    batch: usize,
) -> (Vec<T>, Vec<T>) {
    let ex_len = dims.in_channels * dims.in_h * dims.in_w;
    let (rows, cols) = (dims.patch_rows(), dims.patch_cols());
    let mut patches = vec![T::ZERO; batch * rows * cols];
    let mut out = vec![T::ZERO; batch * dims.out_channels * rows];
    for ((ex, p), o) in input
        .chunks_exact(ex_len)
        .zip(patches.chunks_exact_mut(rows * cols))
        .zip(out.chunks_exact_mut(dims.out_channels * rows))
    {
        im2col_into(ex, dims, p);
        conv2d_forward_gemm_on(backend, p, kernels, bias, dims, o);
    }
    (out, patches)
}

/// Batched convolution input gradient (the transposed convolution), one
/// example at a time. Returns `[B, in_c, in_h, in_w]`.
pub(crate) fn conv_backward_input<T: Elem>(
    d_out: &[T],
    kernels: &[T],
    dims: &Conv2dDims,
    batch: usize,
) -> Vec<T> {
    let out_len = dims.out_channels * dims.patch_rows();
    let in_len = dims.in_channels * dims.in_h * dims.in_w;
    let mut d_in = vec![T::ZERO; batch * in_len];
    for (dy, dx) in d_out
        .chunks_exact(out_len)
        .zip(d_in.chunks_exact_mut(in_len))
    {
        conv2d_backward_input_into(kernels, dy, dims, dx);
    }
    d_in
}

/// One example's convolution parameter gradient `[dK | db]` from its patch
/// matrix, written over `grad`.
pub(crate) fn conv_backward<T: Elem>(
    backend: Backend,
    d_out: &[T],
    patches: &[T],
    dims: &Conv2dDims,
    grad: &mut [T],
) {
    let (d_k, d_b) = grad.split_at_mut(dims.out_channels * dims.patch_cols());
    conv2d_backward_params_on(backend, patches, d_out, dims, d_k, d_b);
}

/// Batched frozen batch-norm forward `y = γ·(x − μ)·inv_std + β`, with the
/// per-channel statistics pre-folded into `mean`/`inv_std`. Returns
/// `(out, normalized)` — the normalized activations are the backward cache.
pub(crate) fn batchnorm_forward<T: Elem>(
    input: &[T],
    gamma: &[T],
    beta: &[T],
    mean: &[T],
    inv_std: &[T],
    plane: usize,
    batch: usize,
) -> (Vec<T>, Vec<T>) {
    let channels = gamma.len();
    let mut normalized = vec![T::ZERO; input.len()];
    let mut out = vec![T::ZERO; input.len()];
    for ex in 0..batch {
        let base = ex * channels * plane;
        for c in 0..channels {
            let (g, bb, m, is_c) = (gamma[c], beta[c], mean[c], inv_std[c]);
            for p in 0..plane {
                let idx = base + c * plane + p;
                let xhat = (input[idx] - m) * is_c;
                normalized[idx] = xhat;
                out[idx] = g * xhat + bb;
            }
        }
    }
    (out, normalized)
}

/// Batched frozen batch-norm input gradient `d_in = dy·γ·inv_std` — the
/// statistics are constants, so the chain rule is linear.
pub(crate) fn batchnorm_backward_input<T: Elem>(
    d_out: &[T],
    gamma: &[T],
    inv_std: &[T],
    plane: usize,
) -> Vec<T> {
    let channels = gamma.len();
    let mut d_in = vec![T::ZERO; d_out.len()];
    for (dy_ex, dx_ex) in d_out
        .chunks_exact(channels * plane)
        .zip(d_in.chunks_exact_mut(channels * plane))
    {
        for c in 0..channels {
            let (g, is_c) = (gamma[c], inv_std[c]);
            for p in 0..plane {
                let idx = c * plane + p;
                dx_ex[idx] = dy_ex[idx] * g * is_c;
            }
        }
    }
    d_in
}

/// One example's frozen batch-norm parameter gradient `[dγ | dβ]`,
/// accumulated channel by channel, plane position by plane position, over
/// `grad` (zeroed first).
pub(crate) fn batchnorm_backward<T: Elem>(
    d_out: &[T],
    normalized: &[T],
    plane: usize,
    grad: &mut [T],
) {
    grad.fill(T::ZERO);
    let (d_gamma, d_beta) = grad.split_at_mut(grad.len() / 2);
    for (c, (dy, x_hat)) in d_out
        .chunks_exact(plane)
        .zip(normalized.chunks_exact(plane))
        .enumerate()
    {
        for (&dy, &x) in dy.iter().zip(x_hat) {
            d_gamma[c] += dy * x;
            d_beta[c] += dy;
        }
    }
}

/// Batched ReLU forward. Returns `(out, mask)`; the mask is the backward
/// cache.
pub(crate) fn relu_forward<T: Elem>(input: &[T]) -> (Vec<T>, Vec<bool>) {
    let mask: Vec<bool> = input.iter().map(|&x| x > T::ZERO).collect();
    let out: Vec<T> = input
        .iter()
        .map(|&x| if x > T::ZERO { x } else { T::ZERO })
        .collect();
    (out, mask)
}

/// Batched ReLU backward: gradients pass where the mask is set.
pub(crate) fn relu_backward<T: Elem>(d_out: &[T], mask: &[bool]) -> Vec<T> {
    assert_eq!(d_out.len(), mask.len(), "ReLU backward: length mismatch");
    d_out
        .iter()
        .zip(mask)
        .map(|(&g, &m)| if m { g } else { T::ZERO })
        .collect()
}

/// Batched max-pool forward. Returns `(out, argmax)`; the argmax indices
/// are the backward cache.
pub(crate) fn maxpool_forward<T: Elem>(
    input: &[T],
    dims: &PoolDims,
    batch: usize,
) -> (Vec<T>, Vec<usize>) {
    let ex_len = dims.channels * dims.in_h * dims.in_w;
    let out_len = dims.channels * dims.out_h() * dims.out_w();
    let mut out = Vec::with_capacity(batch * out_len);
    let mut argmax = Vec::with_capacity(batch * out_len);
    for ex in input.chunks_exact(ex_len) {
        let (o, a) = maxpool2d_forward(ex, dims);
        out.extend_from_slice(&o);
        argmax.extend_from_slice(&a);
    }
    (out, argmax)
}

/// Batched max-pool backward: scatter each gradient to its argmax source.
pub(crate) fn maxpool_backward<T: Elem>(d_out: &[T], argmax: &[usize], dims: &PoolDims) -> Vec<T> {
    let out_len = dims.channels * dims.out_h() * dims.out_w();
    let batch = d_out.len() / out_len;
    let mut d_in = Vec::with_capacity(batch * dims.channels * dims.in_h * dims.in_w);
    for (dy, am) in d_out
        .chunks_exact(out_len)
        .zip(argmax.chunks_exact(out_len))
    {
        d_in.extend_from_slice(&maxpool2d_backward(dy, am, dims));
    }
    d_in
}
