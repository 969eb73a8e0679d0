//! Sequential models with flat parameter vectors and per-example gradients.

use std::ops::Range;

use dpaudit_tensor::{Backend, Elem, Tensor};
use serde::{Deserialize, Serialize};

use crate::layers::{BatchCache, Cache, Layer};
use crate::loss::softmax_cross_entropy;

/// A feed-forward stack of [`Layer`]s at parameter precision `E` (`f64`
/// unless named).
///
/// Parameters are exposed as one flat `Vec<f64>` in layer order (each layer's
/// canonical internal order), which is the representation DPSGD clips and
/// perturbs and the DI adversary reasons about: the mechanism output is a
/// vector in R^d with d = [`Sequential::param_count`]. The f32 storage mode
/// runs the same model with its parameters narrowed once
/// ([`Sequential::cast`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential<E = f64> {
    /// The layers, applied in order.
    pub layers: Vec<Layer<E>>,
}

impl<E: Elem> Sequential<E> {
    /// Build from a layer list.
    pub fn new(layers: Vec<Layer<E>>) -> Self {
        Self { layers }
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Per-layer parameter counts in flat-vector order, with zero-parameter
    /// layers (ReLU, pooling, flatten) omitted. This is the segmentation
    /// per-layer gradient clipping operates on.
    pub fn param_layout(&self) -> Vec<usize> {
        self.layers
            .iter()
            .map(Layer::param_count)
            .filter(|&n| n > 0)
            .collect()
    }

    /// The same model at precision `F`, every parameter converted once
    /// ([`Layer::cast`]). `cast::<f32>()` is the model of the f32 storage
    /// mode: its gradient rows are tolerance-equivalent to the f64 oracle's,
    /// not bit-identical.
    pub fn cast<F: Elem>(&self) -> Sequential<F> {
        Sequential {
            layers: self.layers.iter().map(Layer::cast).collect(),
        }
    }

    /// Plain batched forward pass (no caches) over a `[B, ...]` batch
    /// tensor, producing `[B, classes]` logits, with the gemms routed
    /// through a [`Backend`] handle.
    pub fn forward_batch_on(&self, backend: Backend, xs: &Tensor<E>) -> Tensor<E> {
        let mut h = xs.clone();
        for layer in &self.layers {
            let (out, _) = layer.forward_batch_on(backend, &h);
            h = out;
        }
        h
    }

    /// Batched forward pass retaining per-layer caches for the batched
    /// backward pass.
    fn forward_batch_cached_on(
        &self,
        backend: Backend,
        xs: &Tensor<E>,
    ) -> (Tensor<E>, Vec<BatchCache<E>>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut h = xs.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward_batch_on(backend, &h);
            caches.push(cache);
            h = out;
        }
        (h, caches)
    }

    /// The batched forward pass, f64 loss head and delta pass of one
    /// labelled batch, at the model's precision `E` — the part of every
    /// per-example gradient computation that runs once per batch.
    ///
    /// The f64 inputs are stacked and converted to `E`; one batched forward
    /// pass and one batched backward delta pass (the input-gradient gemms)
    /// run for the whole batch. The loss head runs in f64: each logit row is
    /// widened ([`Elem::to_f64`]) into the softmax cross-entropy, and its
    /// gradient converted back to `E`. Deltas stop at the first
    /// parameterised layer — the gradient of the input itself is never
    /// needed.
    ///
    /// # Panics
    /// Panics on an empty batch or a length mismatch.
    pub(crate) fn batch_deltas_on(
        &self,
        backend: Backend,
        xs: &[Tensor],
        labels: &[usize],
    ) -> BatchDeltas<E> {
        assert!(!xs.is_empty(), "per-example gradients: empty batch");
        assert_eq!(
            xs.len(),
            labels.len(),
            "per-example gradients: length mismatch"
        );
        let (logits, caches) = self.forward_batch_cached_on(backend, &Tensor::stack(xs).cast());
        let classes = logits.shape()[1];
        let mut losses = Vec::with_capacity(xs.len());
        let mut d_logits = Vec::with_capacity(logits.len());
        let mut wide = vec![0.0; classes];
        for (logit_row, &label) in logits.data().chunks_exact(classes).zip(labels) {
            for (w, &v) in wide.iter_mut().zip(logit_row) {
                *w = v.to_f64();
            }
            let (loss, d_row) = softmax_cross_entropy(&wide, label);
            losses.push(loss);
            d_logits.extend(d_row.into_iter().map(E::from_f64));
        }
        let d_logits = Tensor::from_vec(&[xs.len(), classes], d_logits);

        let mut deltas: Vec<Option<Tensor<E>>> = vec![None; self.layers.len()];
        if let Some(first) = self.layers.iter().position(|l| l.param_count() > 0) {
            let mut d = d_logits;
            for i in (first..self.layers.len()).rev() {
                let layer = &self.layers[i];
                let d_in =
                    (i > first).then(|| layer.backward_input_batch_on(backend, &d, &caches[i]));
                if layer.param_count() > 0 {
                    deltas[i] = Some(d);
                }
                match d_in {
                    Some(d_in) => d = d_in,
                    None => break,
                }
            }
        }
        BatchDeltas {
            losses,
            caches,
            deltas,
        }
    }

    /// Losses and per-example flat parameter gradients for a labelled batch,
    /// at the model's precision `E`: the per-example losses and a
    /// `[B, param_count]` gradient tensor whose row `b` is example `b`'s
    /// `[dW | db | …]` in flat parameter order.
    ///
    /// One batched forward, loss and delta pass runs for the whole batch;
    /// then each example's row is written layer by layer. At f64 each row is
    /// bit-identical to [`Sequential::per_example_grad_scalar`] on that
    /// example: the batched layers replicate the scalar accumulation order
    /// exactly. At any precision each row is independent of its batch-mates.
    /// Other backends than [`Backend::native`] are tolerance-equivalent only.
    /// The DPSGD clip loop does not materialise these rows; it runs the
    /// fused pass ([`Sequential::clip_sum_on`]) on the same forward, loss and
    /// delta pass.
    ///
    /// # Panics
    /// Panics on an empty batch or a length mismatch.
    pub fn per_example_grads_on(
        &self,
        backend: Backend,
        xs: &[Tensor],
        labels: &[usize],
    ) -> (Vec<f64>, Tensor<E>) {
        let pass = self.batch_deltas_on(backend, xs, labels);
        let dim = self.param_count();
        let segments = param_segments(self.layers.iter().map(Layer::param_count));
        let mut grads = vec![E::ZERO; xs.len() * dim];
        for (ex, row) in grads.chunks_exact_mut(dim).enumerate() {
            for (((layer, cache), delta), segment) in self
                .layers
                .iter()
                .zip(&pass.caches)
                .zip(&pass.deltas)
                .zip(&segments)
            {
                if let Some(delta) = delta {
                    layer.write_param_grad_on(backend, delta, cache, ex, &mut row[segment.clone()]);
                }
            }
        }
        (pass.losses, Tensor::from_vec(&[xs.len(), dim], grads))
    }

    /// Loss and flat parameter gradient for a single labelled example —
    /// the per-example gradient DPSGD clips — as the B = 1 case of
    /// [`Sequential::per_example_grads_on`].
    pub fn per_example_grad_on(&self, backend: Backend, x: &Tensor, label: usize) -> (f64, Vec<E>) {
        let (losses, grads) = self.per_example_grads_on(backend, std::slice::from_ref(x), &[label]);
        (losses[0], grads.into_vec())
    }
}

impl Sequential {
    /// Snapshot all parameters as a flat vector.
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.append_params(&mut out);
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `params.len() != self.param_count()`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "set_params: expected {} values, got {}",
            self.param_count(),
            params.len()
        );
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.load_params(&params[off..]);
        }
    }

    /// Gradient-descent step `θ ← θ − lr·grad` over the flat layout.
    ///
    /// # Panics
    /// Panics if `grad.len() != self.param_count()`.
    pub fn gradient_step(&mut self, grad: &[f64], lr: f64) {
        assert_eq!(
            grad.len(),
            self.param_count(),
            "gradient_step: expected {} values, got {}",
            self.param_count(),
            grad.len()
        );
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.apply_step(&grad[off..], lr);
        }
    }

    /// Plain example-at-a-time forward pass (no caches), producing logits —
    /// the scalar oracle of [`Sequential::forward_batch_on`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, _) = layer.forward(&h);
            h = out;
        }
        h
    }

    /// Forward pass retaining per-layer caches for backpropagation.
    pub fn forward_cached(&self, x: &Tensor) -> (Tensor, Vec<Cache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&h);
            caches.push(cache);
            h = out;
        }
        (h, caches)
    }

    /// Backpropagate `d_logits` through the cached forward pass, returning
    /// the flat parameter gradient (same layout as [`Sequential::params`]).
    pub fn backward(&self, caches: &[Cache], d_logits: Tensor) -> Vec<f64> {
        assert_eq!(
            caches.len(),
            self.layers.len(),
            "backward: cache count mismatch"
        );
        // Collect per-layer gradients in reverse, then flatten forward.
        let mut per_layer: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len());
        let mut d = d_logits;
        for (layer, cache) in self.layers.iter().zip(caches).rev() {
            let (d_in, d_params) = layer.backward(&d, cache);
            per_layer.push(d_params);
            d = d_in;
        }
        per_layer.reverse();
        let mut flat = Vec::with_capacity(self.param_count());
        for g in per_layer {
            flat.extend(g);
        }
        flat
    }

    /// Single-example gradient on the original example-at-a-time path —
    /// kept as the property-test oracle for the batched pipeline.
    pub fn per_example_grad_scalar(&self, x: &Tensor, label: usize) -> (f64, Vec<f64>) {
        let (logits, caches) = self.forward_cached(x);
        let (loss, d_logits) = softmax_cross_entropy(logits.data(), label);
        let shape = [logits.len()];
        let grad = self.backward(&caches, Tensor::from_vec(&shape, d_logits));
        (loss, grad)
    }

    /// Logits and label of every example of `xs`, visited in example order.
    /// Runs the batched forward pass on [`Backend::native`] over chunks of
    /// [`FORWARD_CHUNK`] stacked examples, so each row carries the exact
    /// bits of [`Sequential::forward`] on that example.
    fn for_each_logits(
        &self,
        xs: &[Tensor],
        labels: &[usize],
        mut visit: impl FnMut(&[f64], usize),
    ) {
        for (chunk, ys) in xs.chunks(FORWARD_CHUNK).zip(labels.chunks(FORWARD_CHUNK)) {
            let logits = self.forward_batch_on(Backend::native(), &Tensor::stack(chunk));
            let classes = logits.shape()[1];
            for (row, &y) in logits.data().chunks_exact(classes).zip(ys) {
                visit(row, y);
            }
        }
    }

    /// Average cross-entropy loss over a labelled set.
    ///
    /// Per-example losses come from the chunked batched forward pass and
    /// are summed in example order, so the result is bit-identical to
    /// summing [`softmax_cross_entropy`] over [`Sequential::forward`] one
    /// example at a time.
    pub fn mean_loss(&self, xs: &[Tensor], labels: &[usize]) -> f64 {
        assert_eq!(xs.len(), labels.len(), "mean_loss: length mismatch");
        assert!(!xs.is_empty(), "mean_loss: empty set");
        let mut losses = Vec::with_capacity(xs.len());
        self.for_each_logits(xs, labels, |row, y| {
            losses.push(softmax_cross_entropy(row, y).0);
        });
        // `Sum` as the scalar formula uses it (it starts from -0.0, so an
        // all-zero-loss set keeps its sign bit).
        let total: f64 = losses.iter().sum();
        total / xs.len() as f64
    }

    /// Most likely class for one example.
    pub fn predict(&self, x: &Tensor) -> usize {
        argmax(self.forward(x).data())
    }

    /// Classification accuracy over a labelled set, on the chunked batched
    /// forward pass (the same predictions as [`Sequential::predict`]).
    pub fn accuracy(&self, xs: &[Tensor], labels: &[usize]) -> f64 {
        assert_eq!(xs.len(), labels.len(), "accuracy: length mismatch");
        assert!(!xs.is_empty(), "accuracy: empty set");
        let mut correct = 0usize;
        self.for_each_logits(xs, labels, |row, y| {
            if argmax(row) == y {
                correct += 1;
            }
        });
        correct as f64 / xs.len() as f64
    }

    /// Whether any layer is a [`Layer::BatchNorm2d`] — i.e. whether
    /// [`Sequential::update_norm_stats`] has anything to refresh.
    pub fn has_batch_norm(&self) -> bool {
        self.layers
            .iter()
            .any(|layer| matches!(layer, Layer::BatchNorm2d(_)))
    }

    /// Refresh the running statistics of every [`Layer::BatchNorm2d`] from a
    /// clean forward pass over `batch` (the whole training batch), layer by
    /// layer, as TF/Keras does in training mode.
    ///
    /// Must be called before computing per-example gradients for a step so
    /// that all examples are normalised identically (frozen-stats batch
    /// norm; see the crate docs).
    ///
    /// Only the work the statistics need is done: a model without batch
    /// norm returns at once, and activations stop advancing at the last
    /// batch-norm layer. The set advances through the batched forward pass
    /// on [`Backend::native`] in chunks of `FORWARD_CHUNK` (16) stacked
    /// examples, and each channel's mean and variance are accumulated
    /// example-major, then channel, then plane — the order of the
    /// example-at-a-time refresh — so the running statistics are
    /// bit-identical to it.
    pub fn update_norm_stats(&mut self, batch: &[Tensor]) {
        let last_norm = self
            .layers
            .iter()
            .rposition(|layer| matches!(layer, Layer::BatchNorm2d(_)));
        let Some(last_norm) = last_norm else {
            return;
        };
        if batch.is_empty() {
            return;
        }
        // The whole set's activations at the current layer, as stacked
        // chunks in example order.
        let mut chunks: Vec<Tensor> = batch.chunks(FORWARD_CHUNK).map(Tensor::stack).collect();
        for (i, layer) in self.layers[..=last_norm].iter_mut().enumerate() {
            if let Layer::BatchNorm2d(bn) = layer {
                let (mean, var) = channel_moments(&chunks);
                bn.update_stats(&mean, &var);
            }
            if i < last_norm {
                // Advance with the *updated* stats for batch-norm layers.
                let frozen = &*layer;
                for chunk in &mut chunks {
                    *chunk = frozen.forward_batch_on(Backend::native(), chunk).0;
                }
            }
        }
    }
}

/// What [`Sequential::batch_deltas_on`] leaves for the per-example
/// parameter-gradient writes of one batch.
pub(crate) struct BatchDeltas<E> {
    /// Per-example losses, in example order.
    pub(crate) losses: Vec<f64>,
    /// Every layer's forward cache.
    pub(crate) caches: Vec<BatchCache<E>>,
    /// The output gradient of every parameterised layer (`None` elsewhere).
    pub(crate) deltas: Vec<Option<Tensor<E>>>,
}

/// Every layer's segment of the flat parameter vector, from the layers'
/// parameter counts in order.
pub(crate) fn param_segments(counts: impl Iterator<Item = usize>) -> Vec<Range<usize>> {
    counts
        .scan(0, |off, count| {
            let start = *off;
            *off += count;
            Some(start..*off)
        })
        .collect()
}

/// Examples stacked into one batched forward pass by the norm-stats refresh
/// and batched inference. It bounds the im2col patch scratch to a chunk
/// instead of the whole set; results do not depend on it, because each
/// example's arithmetic in the batched layers is independent of its
/// batch-mates.
const FORWARD_CHUNK: usize = 16;

/// Index of the largest logit (the last one on ties, as [`Iterator::max_by`]
/// resolves them).
fn argmax(logits: &[f64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
        .map(|(i, _)| i)
        .expect("predict: empty logits")
}

/// Per-channel mean and (biased) variance over examples and spatial
/// positions of `[B, C, H, W]` chunks. Both sums run example-major, then
/// channel, then plane position, and divide by the element count once.
fn channel_moments(chunks: &[Tensor]) -> (Vec<f64>, Vec<f64>) {
    let shape = chunks[0].shape();
    assert_eq!(
        shape.len(),
        4,
        "update_norm_stats: batch norm input must be [B, C, H, W], got {shape:?}"
    );
    let (channels, plane) = (shape[1], shape[2] * shape[3]);
    let examples = || {
        chunks
            .iter()
            .flat_map(|chunk| chunk.data().chunks_exact(channels * plane))
    };
    let count = (examples().count() * plane) as f64;
    let mut mean = vec![0.0; channels];
    for example in examples() {
        for (m, values) in mean.iter_mut().zip(example.chunks_exact(plane)) {
            for v in values {
                *m += v;
            }
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    let mut var = vec![0.0; channels];
    for example in examples() {
        for ((v, m), values) in var.iter_mut().zip(&mean).zip(example.chunks_exact(plane)) {
            for x in values {
                let d = x - m;
                *v += d * d;
            }
        }
    }
    for v in &mut var {
        *v /= count;
    }
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d, Dense, MaxPool2d};
    use dpaudit_math::seeded_rng;

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
        let data: Vec<f64> = (0..n)
            .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn param_layout_segments_sum_to_total() {
        let m = tiny_cnn(20);
        let layout = m.param_layout();
        // conv, batchnorm, dense carry parameters; relu/pool/flatten do not.
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.iter().sum::<usize>(), m.param_count());
    }

    #[test]
    fn params_round_trip() {
        let mut m = tiny_mlp(1);
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        assert_eq!(p.len(), 6 * 5 + 5 + 5 * 3 + 3);
        let doubled: Vec<f64> = p.iter().map(|x| x * 2.0).collect();
        m.set_params(&doubled);
        assert_eq!(m.params(), doubled);
    }

    #[test]
    fn gradient_step_direction() {
        let mut m = tiny_mlp(2);
        let before = m.params();
        let grad: Vec<f64> = (0..before.len()).map(|i| (i % 3) as f64 - 1.0).collect();
        m.gradient_step(&grad, 0.5);
        let after = m.params();
        for i in 0..before.len() {
            assert!((after[i] - (before[i] - 0.5 * grad[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let m = tiny_mlp(3);
        let x = example(10, &[6]);
        let label = 1;
        let (_, grad) = m.per_example_grad_on(Backend::native(), &x, label);
        assert_eq!(grad.len(), m.param_count());
        let base = m.params();
        let h = 1e-6;
        let loss_at = |params: &[f64]| {
            let mut mm = m.clone();
            mm.set_params(params);
            let logits = mm.forward(&x);
            softmax_cross_entropy(logits.data(), label).0
        };
        let l0 = loss_at(&base);
        // Check a spread of parameter coordinates across all layers.
        for idx in [0usize, 7, 17, 31, 35, 40, base.len() - 1] {
            let mut p = base.clone();
            p[idx] += h;
            let num = (loss_at(&p) - l0) / h;
            assert!(
                (num - grad[idx]).abs() < 1e-4,
                "grad[{idx}]: fd {num} vs bp {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn cnn_gradient_matches_finite_differences() {
        let mut m = tiny_cnn(4);
        let x = example(11, &[1, 8, 8]);
        // Give batch norm non-trivial statistics first.
        m.update_norm_stats(&[x.clone(), example(12, &[1, 8, 8])]);
        let label = 2;
        let (_, grad) = m.per_example_grad_on(Backend::native(), &x, label);
        assert_eq!(grad.len(), m.param_count());
        let base = m.params();
        let h = 1e-6;
        let loss_at = |params: &[f64]| {
            let mut mm = m.clone();
            mm.set_params(params);
            let logits = mm.forward(&x);
            softmax_cross_entropy(logits.data(), label).0
        };
        let l0 = loss_at(&base);
        let step = base.len() / 11;
        for k in 0..11 {
            let idx = k * step;
            let mut p = base.clone();
            p[idx] += h;
            let num = (loss_at(&p) - l0) / h;
            assert!(
                (num - grad[idx]).abs() < 1e-4,
                "grad[{idx}]: fd {num} vs bp {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        let mut m = tiny_mlp(5);
        let xs: Vec<Tensor> = (0..6).map(|i| example(100 + i, &[6])).collect();
        let ys: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let initial = m.mean_loss(&xs, &ys);
        for _ in 0..200 {
            let mut grad = vec![0.0; m.param_count()];
            for (x, &y) in xs.iter().zip(&ys) {
                let (_, g) = m.per_example_grad_on(Backend::native(), x, y);
                for (a, b) in grad.iter_mut().zip(&g) {
                    *a += b;
                }
            }
            for g in &mut grad {
                *g /= xs.len() as f64;
            }
            m.gradient_step(&grad, 0.5);
        }
        let final_loss = m.mean_loss(&xs, &ys);
        assert!(
            final_loss < initial * 0.5,
            "loss did not drop: {initial} -> {final_loss}"
        );
        assert!(m.accuracy(&xs, &ys) >= 0.5);
    }

    /// Every batch-norm layer's running (mean, variance).
    fn norm_stats(m: &Sequential) -> Vec<(Vec<f64>, Vec<f64>)> {
        m.layers
            .iter()
            .filter_map(|l| match l {
                Layer::BatchNorm2d(b) => Some((b.running_mean.clone(), b.running_var.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn update_norm_stats_changes_running_stats() {
        let mut m = tiny_cnn(6);
        let stats_before = norm_stats(&m);
        m.update_norm_stats(&[example(20, &[1, 8, 8]), example(21, &[1, 8, 8])]);
        let stats_after = norm_stats(&m);
        assert_eq!(stats_before.len(), 1);
        assert_ne!(stats_before, stats_after);
    }

    #[test]
    fn update_norm_stats_empty_batch_is_noop() {
        let mut m = tiny_cnn(7);
        let before = m.clone();
        m.update_norm_stats(&[]);
        assert_eq!(m.params(), before.params());
        assert_eq!(norm_stats(&m), norm_stats(&before));
    }

    #[test]
    fn predict_returns_argmax_class() {
        let m = tiny_mlp(8);
        let x = example(30, &[6]);
        let logits = m.forward(&x);
        let pred = m.predict(&x);
        let max = logits
            .data()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(logits.data()[pred], max);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn set_params_length_checked() {
        tiny_mlp(9).set_params(&[0.0]);
    }

    #[test]
    fn identical_seeds_build_identical_models() {
        let a = tiny_cnn(42);
        let b = tiny_cnn(42);
        assert_eq!(a.params(), b.params());
    }
}
