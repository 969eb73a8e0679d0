//! f32 storage mode for the batched per-example gradient pipeline.
//!
//! [`SequentialF32`] is a single-precision shadow of a [`Sequential`] model:
//! parameters are narrowed to f32 once per construction, the batched
//! forward/backward passes run entirely in f32 (halving the memory traffic
//! of the gradient rows and activations, and doubling SIMD lane width), and
//! the per-example gradients stream one f32 row at a time through
//! [`SequentialF32::visit_example_grads_on`]. Losses — and the softmax that
//! produces the logit gradients — are computed in f64 from widened logits,
//! and the DPSGD clip loop widens each gradient value back to f64 on the fly
//! as it flows into the fixed-order `CLIP_CHUNK` reduction, so the
//! *accumulation* stays f64 end to end; only the per-example storage is
//! single precision. f32 mode is therefore a
//! tolerance-equivalent of the f64 oracle, not a bit-identical one, and is
//! opt-in per run.

use dpaudit_tensor::{Backend, Conv2dDims, PoolDims, Tensor};

use crate::batched;
use crate::layers::Layer;
use crate::loss::softmax_cross_entropy;
use crate::model::{param_segments, Sequential};

/// One layer of the f32 shadow model. Frozen state (batch-norm statistics)
/// is pre-folded: only what the forward/backward passes touch is stored.
enum LayerF32 {
    Dense {
        /// Row-major `[out, in]` weights.
        weight: Vec<f32>,
        bias: Vec<f32>,
        in_f: usize,
        out_f: usize,
    },
    Conv2d {
        /// Flat `[oc, ic, kh, kw]` kernels.
        kernels: Vec<f32>,
        bias: Vec<f32>,
        out_channels: usize,
        in_channels: usize,
        k_h: usize,
        k_w: usize,
    },
    BatchNorm2d {
        gamma: Vec<f32>,
        beta: Vec<f32>,
        mean: Vec<f32>,
        /// `1 / sqrt(var + eps)`, computed in f64 then narrowed once.
        inv_std: Vec<f32>,
    },
    Relu,
    MaxPool2d {
        pool: usize,
    },
    Flatten,
}

impl LayerF32 {
    fn param_count(&self) -> usize {
        match self {
            LayerF32::Dense { weight, bias, .. } => weight.len() + bias.len(),
            LayerF32::Conv2d { kernels, bias, .. } => kernels.len() + bias.len(),
            LayerF32::BatchNorm2d { gamma, beta, .. } => gamma.len() + beta.len(),
            LayerF32::Relu | LayerF32::MaxPool2d { .. } | LayerF32::Flatten => 0,
        }
    }
}

/// Forward intermediates of one f32 layer, mirroring `BatchCache`.
enum CacheF32 {
    Dense { input: Vec<f32> },
    Conv2d { patches: Vec<f32>, dims: Conv2dDims },
    BatchNorm2d { normalized: Vec<f32>, plane: usize },
    Relu { mask: Vec<bool> },
    MaxPool2d { argmax: Vec<usize>, dims: PoolDims },
    Flatten,
}

fn narrow(v: &[f64]) -> Vec<f32> {
    v.iter().map(|&x| x as f32).collect()
}

/// Single-precision shadow of a [`Sequential`] model for the f32 storage
/// mode of the batched gradient pipeline.
///
/// Built fresh from the current f64 parameters each step (narrowing is
/// cheap next to a train step); produces per-example gradient rows with
/// exactly the layout of [`Sequential::per_example_grads`].
pub struct SequentialF32 {
    layers: Vec<LayerF32>,
    dim: usize,
}

impl SequentialF32 {
    /// Narrow a model's parameters (and frozen batch-norm statistics) to f32.
    pub fn from_model(model: &Sequential) -> Self {
        let layers: Vec<LayerF32> = model
            .layers
            .iter()
            .map(|layer| match layer {
                Layer::Dense(d) => LayerF32::Dense {
                    weight: narrow(d.weight.data()),
                    bias: narrow(d.bias.data()),
                    in_f: d.weight.shape()[1],
                    out_f: d.weight.shape()[0],
                },
                Layer::Conv2d(c) => {
                    let ks = c.kernels.shape();
                    LayerF32::Conv2d {
                        kernels: narrow(c.kernels.data()),
                        bias: narrow(c.bias.data()),
                        out_channels: ks[0],
                        in_channels: ks[1],
                        k_h: ks[2],
                        k_w: ks[3],
                    }
                }
                Layer::BatchNorm2d(b) => LayerF32::BatchNorm2d {
                    gamma: narrow(b.gamma.data()),
                    beta: narrow(b.beta.data()),
                    mean: narrow(&b.running_mean),
                    // The rsqrt is done in f64 so the narrowed value is the
                    // correctly rounded f32 of the f64 statistic.
                    inv_std: b
                        .running_var
                        .iter()
                        .map(|&v| (1.0 / (v + b.eps).sqrt()) as f32)
                        .collect(),
                },
                Layer::Relu => LayerF32::Relu,
                Layer::MaxPool2d(p) => LayerF32::MaxPool2d { pool: p.pool },
                Layer::Flatten => LayerF32::Flatten,
            })
            .collect();
        let dim = layers.iter().map(LayerF32::param_count).sum();
        Self { layers, dim }
    }

    /// Total number of learnable parameters (matches the f64 model).
    pub fn param_count(&self) -> usize {
        self.dim
    }

    /// Losses and per-example flat parameter gradients for a labelled batch.
    ///
    /// Returns the per-example losses (f64 — the softmax/cross-entropy runs
    /// in f64 on widened logits) and the `[B, param_count]` f32 gradient
    /// buffer, row `b` in the same layout as [`Sequential::per_example_grads`].
    ///
    /// # Panics
    /// Panics on an empty batch or a length mismatch.
    pub fn per_example_grads(&self, xs: &[Tensor], labels: &[usize]) -> (Vec<f64>, Vec<f32>) {
        self.per_example_grads_on(Backend::native(), xs, labels)
    }

    /// [`SequentialF32::per_example_grads`] with the gemms routed through a
    /// [`Backend`] handle: a collector over
    /// [`SequentialF32::visit_example_grads_on`].
    pub fn per_example_grads_on(
        &self,
        backend: Backend,
        xs: &[Tensor],
        labels: &[usize],
    ) -> (Vec<f64>, Vec<f32>) {
        let mut losses = Vec::with_capacity(xs.len());
        let mut grads = Vec::with_capacity(xs.len() * self.dim);
        let mut row = vec![0.0f32; self.dim];
        self.visit_example_grads_on(backend, xs, labels, &mut row, |loss, row| {
            losses.push(loss);
            grads.extend_from_slice(row);
        });
        (losses, grads)
    }

    /// Stream the per-example losses (f64) and f32 flat parameter gradients
    /// of a labelled batch through `visit`, one example at a time, in
    /// example order — the single-precision counterpart of
    /// [`Sequential::visit_example_grads_on`], with the same contract: one
    /// batched forward and delta pass, then each example's row written into
    /// the caller's reused `row` buffer and handed over as `(loss, row)`.
    ///
    /// # Panics
    /// Panics on an empty batch, a length mismatch, or a `row` that is not
    /// [`SequentialF32::param_count`] long.
    pub fn visit_example_grads_on(
        &self,
        backend: Backend,
        xs: &[Tensor],
        labels: &[usize],
        row: &mut [f32],
        mut visit: impl FnMut(f64, &mut [f32]),
    ) {
        assert_eq!(xs.len(), labels.len(), "per_example_grads: length mismatch");
        assert!(!xs.is_empty(), "per_example_grads: empty batch");
        assert_eq!(
            row.len(),
            self.dim,
            "per_example_grads: row buffer must hold one gradient"
        );
        let batch = xs.len();
        let mut shape = xs[0].shape().to_vec();
        let ex_len: usize = shape.iter().product();
        let mut h = Vec::with_capacity(batch * ex_len);
        for x in xs {
            assert_eq!(x.shape(), &shape[..], "per_example_grads: ragged batch");
            h.extend(x.data().iter().map(|&v| v as f32));
        }

        // Forward, recording caches and the evolving per-example shape.
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, out_shape, cache) = layer_forward(backend, layer, &h, &shape, batch);
            caches.push(cache);
            h = out;
            shape = out_shape;
        }

        // Loss head in f64: widen each logit row, softmax + cross-entropy,
        // narrow the gradient back.
        let classes = *shape.last().expect("per_example_grads: scalar logits");
        assert_eq!(shape.len(), 1, "per_example_grads: logits must be flat");
        let mut losses = Vec::with_capacity(batch);
        let mut d: Vec<f32> = Vec::with_capacity(batch * classes);
        let mut row64 = vec![0.0f64; classes];
        for (logits, &label) in h.chunks_exact(classes).zip(labels) {
            for (wide, &v) in row64.iter_mut().zip(logits) {
                *wide = f64::from(v);
            }
            let (loss, d_row) = softmax_cross_entropy(&row64, label);
            losses.push(loss);
            d.extend(d_row.iter().map(|&v| v as f32));
        }

        // Delta pass down to the first parameterised layer (the input
        // gradient is never needed), keeping each parameterised layer's
        // output gradient for the row writes.
        let mut deltas: Vec<Option<Vec<f32>>> = vec![None; self.layers.len()];
        if let Some(first) = self.layers.iter().position(|l| l.param_count() > 0) {
            for i in (first..self.layers.len()).rev() {
                let layer = &self.layers[i];
                let d_in = (i > first)
                    .then(|| layer_backward_input(backend, layer, &caches[i], &d, batch));
                if layer.param_count() > 0 {
                    deltas[i] = Some(d);
                }
                match d_in {
                    Some(d_in) => d = d_in,
                    None => break,
                }
            }
        }
        let segments = param_segments(self.layers.iter().map(LayerF32::param_count));

        for (ex, &loss) in losses.iter().enumerate() {
            for (((layer, cache), delta), segment) in
                self.layers.iter().zip(&caches).zip(&deltas).zip(&segments)
            {
                if let Some(delta) = delta {
                    let grad = &mut row[segment.clone()];
                    write_param_grad(backend, layer, cache, delta, batch, ex, grad);
                }
            }
            visit(loss, row);
        }
    }
}

/// Forward one layer over the flat `[B, ...]` f32 batch buffer. Returns the
/// output buffer, the new per-example shape, and the backward cache. The
/// arithmetic is the shared element-generic kernels of [`batched`] — the
/// same code path as the f64 pipeline, instantiated at f32.
fn layer_forward(
    backend: Backend,
    layer: &LayerF32,
    input: &[f32],
    shape: &[usize],
    batch: usize,
) -> (Vec<f32>, Vec<usize>, CacheF32) {
    match layer {
        LayerF32::Dense {
            weight,
            bias,
            in_f,
            out_f,
        } => {
            let (n, m) = (*in_f, *out_f);
            assert_eq!(shape, [n], "DenseF32: input must be [{n}], got {shape:?}");
            let y = batched::dense_forward(backend, input, weight, bias, batch, n, m);
            (
                y,
                vec![m],
                CacheF32::Dense {
                    input: input.to_vec(),
                },
            )
        }
        LayerF32::Conv2d {
            kernels,
            bias,
            out_channels,
            in_channels,
            k_h,
            k_w,
        } => {
            assert_eq!(shape.len(), 3, "Conv2dF32: input must be [C,H,W]");
            assert_eq!(shape[0], *in_channels, "Conv2dF32: channel mismatch");
            let dims = Conv2dDims {
                in_channels: *in_channels,
                out_channels: *out_channels,
                in_h: shape[1],
                in_w: shape[2],
                k_h: *k_h,
                k_w: *k_w,
            };
            let (out, patches) = batched::conv_forward(backend, input, kernels, bias, &dims, batch);
            (
                out,
                vec![dims.out_channels, dims.out_h(), dims.out_w()],
                CacheF32::Conv2d { patches, dims },
            )
        }
        LayerF32::BatchNorm2d {
            gamma,
            beta,
            mean,
            inv_std,
        } => {
            assert_eq!(shape.len(), 3, "BatchNorm2dF32: input must be [C,H,W]");
            assert_eq!(shape[0], gamma.len(), "BatchNorm2dF32: channel mismatch");
            let plane = shape[1] * shape[2];
            let (out, normalized) =
                batched::batchnorm_forward(input, gamma, beta, mean, inv_std, plane, batch);
            (
                out,
                shape.to_vec(),
                CacheF32::BatchNorm2d { normalized, plane },
            )
        }
        LayerF32::Relu => {
            let (out, mask) = batched::relu_forward(input);
            (out, shape.to_vec(), CacheF32::Relu { mask })
        }
        LayerF32::MaxPool2d { pool } => {
            assert_eq!(shape.len(), 3, "MaxPool2dF32: input must be [C,H,W]");
            let dims = PoolDims {
                channels: shape[0],
                in_h: shape[1],
                in_w: shape[2],
                pool_h: *pool,
                pool_w: *pool,
            };
            let (out, argmax) = batched::maxpool_forward(input, &dims, batch);
            (
                out,
                vec![dims.channels, dims.out_h(), dims.out_w()],
                CacheF32::MaxPool2d { argmax, dims },
            )
        }
        LayerF32::Flatten => {
            let n: usize = shape.iter().product();
            (input.to_vec(), vec![n], CacheF32::Flatten)
        }
    }
}

/// Backward delta pass of one layer: the `[B, in...]` input gradient from
/// the `[B, out...]` output gradient `d_out`.
fn layer_backward_input(
    backend: Backend,
    layer: &LayerF32,
    cache: &CacheF32,
    d_out: &[f32],
    batch: usize,
) -> Vec<f32> {
    match (layer, cache) {
        (
            LayerF32::Dense {
                weight,
                in_f,
                out_f,
                ..
            },
            CacheF32::Dense { .. },
        ) => batched::dense_backward_input(backend, d_out, weight, batch, *in_f, *out_f),
        (LayerF32::Conv2d { kernels, .. }, CacheF32::Conv2d { dims, .. }) => {
            batched::conv_backward_input(d_out, kernels, dims, batch)
        }
        (LayerF32::BatchNorm2d { gamma, inv_std, .. }, CacheF32::BatchNorm2d { plane, .. }) => {
            batched::batchnorm_backward_input(d_out, gamma, inv_std, *plane)
        }
        (LayerF32::Relu, CacheF32::Relu { mask }) => batched::relu_backward(d_out, mask),
        (LayerF32::MaxPool2d { .. }, CacheF32::MaxPool2d { argmax, dims }) => {
            batched::maxpool_backward(d_out, argmax, dims)
        }
        (LayerF32::Flatten, CacheF32::Flatten) => d_out.to_vec(),
        _ => panic!("SequentialF32: cache does not match layer kind"),
    }
}

/// Write example `ex`'s parameter gradient of one layer over `grad`, from
/// the batch's output gradient `d_out` (`batch` examples) and forward cache.
fn write_param_grad(
    backend: Backend,
    layer: &LayerF32,
    cache: &CacheF32,
    d_out: &[f32],
    batch: usize,
    ex: usize,
    grad: &mut [f32],
) {
    let of_example = |data| batched::example(data, batch, ex);
    let dy = of_example(d_out);
    match (layer, cache) {
        (LayerF32::Dense { .. }, CacheF32::Dense { input }) => {
            batched::dense_backward(dy, of_example(input), grad);
        }
        (LayerF32::Conv2d { .. }, CacheF32::Conv2d { patches, dims }) => {
            batched::conv_backward(backend, dy, of_example(patches), dims, grad);
        }
        (LayerF32::BatchNorm2d { .. }, CacheF32::BatchNorm2d { normalized, plane }) => {
            batched::batchnorm_backward(dy, of_example(normalized), *plane, grad);
        }
        (LayerF32::Relu, CacheF32::Relu { .. })
        | (LayerF32::MaxPool2d { .. }, CacheF32::MaxPool2d { .. })
        | (LayerF32::Flatten, CacheF32::Flatten) => {}
        _ => panic!("SequentialF32: cache does not match layer kind"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d, Dense, MaxPool2d};
    use dpaudit_math::seeded_rng;
    use rand::Rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 6, 5)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 5, 3)),
        ])
    }

    fn tiny_cnn(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(&mut rng, 1, 2, 3)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { pool: 2 }),
            Layer::Flatten,
            Layer::Dense(Dense::new(&mut rng, 2 * 3 * 3, 3)),
        ])
    }

    fn example(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = seeded_rng(seed);
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// The f32 pipeline must agree with the f64 oracle within a tolerance
    /// band scaled to single-precision accumulation depth.
    fn assert_grads_close(model: &Sequential, xs: &[Tensor], labels: &[usize]) {
        let (losses64, grads64) = model.per_example_grads(xs, labels);
        let shadow = SequentialF32::from_model(model);
        assert_eq!(shadow.param_count(), model.param_count());
        let (losses32, grads32) = shadow.per_example_grads(xs, labels);
        for (a, b) in losses64.iter().zip(&losses32) {
            assert!((a - b).abs() < 1e-4, "loss differs: {a} vs {b}");
        }
        assert_eq!(grads32.len(), grads64.len());
        for (i, (g64, g32)) in grads64.data().iter().zip(&grads32).enumerate() {
            let diff = (g64 - f64::from(*g32)).abs();
            let tol = 1e-4 + 1e-3 * g64.abs();
            assert!(diff < tol, "grad[{i}] differs: {g64} vs {g32}");
        }
    }

    #[test]
    fn mlp_f32_grads_match_f64_within_tolerance() {
        let model = tiny_mlp(3);
        let xs: Vec<Tensor> = (0..7).map(|i| example(100 + i, &[6])).collect();
        let labels = vec![0, 1, 2, 0, 1, 2, 0];
        assert_grads_close(&model, &xs, &labels);
    }

    #[test]
    fn cnn_f32_grads_match_f64_within_tolerance() {
        let model = tiny_cnn(5);
        let xs: Vec<Tensor> = (0..5).map(|i| example(200 + i, &[1, 8, 8])).collect();
        let labels = vec![2, 0, 1, 1, 2];
        assert_grads_close(&model, &xs, &labels);
    }

    /// Layer-pipeline-level backend equivalence: the blas backend's
    /// per-example gradients must track the native oracle within a
    /// reassociation-scale tolerance, in both precisions.
    #[cfg(feature = "blas")]
    #[test]
    fn blas_backend_grads_track_native_within_tolerance() {
        let blas = Backend::resolve("blas").unwrap();
        let model = tiny_cnn(5);
        let xs: Vec<Tensor> = (0..5).map(|i| example(200 + i, &[1, 8, 8])).collect();
        let labels = vec![2, 0, 1, 1, 2];

        let (l_native, g_native) = model.per_example_grads(&xs, &labels);
        let (l_blas, g_blas) = model.per_example_grads_on(blas, &xs, &labels);
        for (a, b) in l_native.iter().zip(&l_blas) {
            assert!((a - b).abs() < 1e-9, "f64 loss differs: {a} vs {b}");
        }
        for (i, (a, b)) in g_native.data().iter().zip(g_blas.data()).enumerate() {
            let tol = 1e-9 * (1.0 + a.abs());
            assert!((a - b).abs() < tol, "f64 grad[{i}] differs: {a} vs {b}");
        }

        let shadow = SequentialF32::from_model(&model);
        let (_, s_native) = shadow.per_example_grads(&xs, &labels);
        let (_, s_blas) = shadow.per_example_grads_on(blas, &xs, &labels);
        for (i, (a, b)) in s_native.iter().zip(&s_blas).enumerate() {
            let tol = 1e-4 + 1e-3 * f64::from(a.abs());
            assert!(
                (f64::from(*a) - f64::from(*b)).abs() < tol,
                "f32 grad[{i}] differs: {a} vs {b}"
            );
        }
    }

    #[test]
    fn f32_batch_rows_match_single_example_runs() {
        // Row b of the batched result equals the B=1 run on example b —
        // the f32 pipeline keeps per-example independence exactly.
        let model = tiny_cnn(9);
        let shadow = SequentialF32::from_model(&model);
        let xs: Vec<Tensor> = (0..3).map(|i| example(300 + i, &[1, 8, 8])).collect();
        let labels = vec![0, 2, 1];
        let (_, grads) = shadow.per_example_grads(&xs, &labels);
        let dim = shadow.param_count();
        for (b, (x, &y)) in xs.iter().zip(&labels).enumerate() {
            let (_, solo) = shadow.per_example_grads(std::slice::from_ref(x), &[y]);
            for (i, (batched, single)) in
                grads[b * dim..(b + 1) * dim].iter().zip(&solo).enumerate()
            {
                assert_eq!(
                    batched.to_bits(),
                    single.to_bits(),
                    "example {b} grad {i}: {batched} vs {single}"
                );
            }
        }
    }
}
