//! Work counts of one per-example gradient, from the model's layer shapes.
//!
//! The count is nominal gemm work, independent of how a kernel implements
//! it: for each parametric layer with `m` multiply-adds per example, the
//! forward pass, the parameter gradient and the input gradient cost `2m`
//! floating-point operations each, except that the first parametric layer
//! needs no input gradient. Batch norm, ReLU and pooling are elementwise
//! and not counted. `im2col` bytes are the patch matrices one forward pass
//! materialises per example.

use dpaudit_nn::{Layer, Sequential};

/// Per-example work of the clip loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Floating-point operations for one example's forward pass and
    /// parameter gradient.
    pub flop: f64,
    /// Bytes of `im2col` patch matrices built for one example.
    pub im2col_bytes: f64,
}

/// Work of one per-example gradient through `model` for an input of
/// `input_shape`, storing activations in `elem_bytes`-byte floats.
///
/// # Panics
/// Panics when a layer does not fit the shape flowing into it.
pub fn per_example(model: &Sequential, input_shape: &[usize], elem_bytes: usize) -> Work {
    let mut shape = input_shape.to_vec();
    let mut flop = 0.0;
    let mut im2col_bytes = 0.0;
    let mut first_parametric = true;
    let mut add_gemm = |macs: usize| {
        let passes = if first_parametric { 2.0 } else { 3.0 };
        first_parametric = false;
        flop += passes * 2.0 * macs as f64;
    };
    for layer in &model.layers {
        match layer {
            Layer::Dense(dense) => {
                let (out_f, in_f) = (dense.weight.shape()[0], dense.weight.shape()[1]);
                assert_eq!(shape.iter().product::<usize>(), in_f, "dense input size");
                add_gemm(out_f * in_f);
                shape = vec![out_f];
            }
            Layer::Conv2d(conv) => {
                let ks = conv.kernels.shape();
                let (oc, ic, kh, kw) = (ks[0], ks[1], ks[2], ks[3]);
                assert_eq!(shape.len(), 3, "conv input must be [C, H, W]");
                assert_eq!(shape[0], ic, "conv input channels");
                let (oh, ow) = (shape[1] - kh + 1, shape[2] - kw + 1);
                let patch = ic * kh * kw * oh * ow;
                add_gemm(oc * patch);
                im2col_bytes += (patch * elem_bytes) as f64;
                shape = vec![oc, oh, ow];
            }
            Layer::MaxPool2d(pool) => {
                assert_eq!(shape.len(), 3, "pool input must be [C, H, W]");
                shape = vec![shape[0], shape[1] / pool.pool, shape[2] / pool.pool];
            }
            Layer::Flatten => shape = vec![shape.iter().product()],
            Layer::BatchNorm2d(_) | Layer::Relu => {}
        }
    }
    Work { flop, im2col_bytes }
}
