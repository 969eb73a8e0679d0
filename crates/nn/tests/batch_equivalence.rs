//! Property tests: the batched pipeline is bit-identical to the scalar
//! example-at-a-time oracle, over random shapes and batch sizes.
//!
//! `per_example_grads_on` promises that at f64 the row of example `b` carries
//! the exact bits `per_example_grad_scalar` would produce for it — the
//! invariant the DPSGD clip loop's determinism rests on (its fused
//! clip-and-sum pass is pinned against these rows in `dpaudit-dpsgd`). The batched
//! norm-stats refresh and batched inference (`mean_loss`, `accuracy`) are
//! pinned the same way against the scalar formulas below. The same model
//! narrowed to f32 (`Sequential::cast`) has no scalar oracle: its rows are
//! checked against the f64 ones within a tolerance, and against B = 1 runs
//! bit for bit.

use dpaudit_math::seeded_rng;
use dpaudit_nn::{
    mnist_cnn, purchase_mlp, softmax_cross_entropy, BatchNorm2d, Conv2d, Dense, Layer, MaxPool2d,
    Sequential, PURCHASE_FEATURES,
};
use dpaudit_tensor::Backend;
use dpaudit_tensor::Tensor;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn mlp(seed: u64, in_f: usize, hidden: usize, classes: usize) -> Sequential {
    let mut rng = seeded_rng(seed);
    Sequential::new(vec![
        Layer::Dense(Dense::new(&mut rng, in_f, hidden)),
        Layer::Relu,
        Layer::Dense(Dense::new(&mut rng, hidden, classes)),
    ])
}

/// All layer kinds in one stack: conv → batch norm → relu → pool → flatten
/// → dense, over an 8×8 single-channel input.
fn cnn(seed: u64) -> Sequential {
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

fn assert_batch_matches_scalar(
    model: &Sequential,
    xs: &[Tensor],
    ys: &[usize],
) -> Result<(), TestCaseError> {
    let (losses, grads) = model.per_example_grads_on(Backend::native(), xs, ys);
    let dim = model.param_count();
    prop_assert_eq!(grads.shape(), &[xs.len(), dim]);
    for (i, (x, &y)) in xs.iter().zip(ys).enumerate() {
        let (loss, g) = model.per_example_grad_scalar(x, y);
        prop_assert!(
            losses[i].to_bits() == loss.to_bits(),
            "loss of example {i}: batched {} vs scalar {loss}",
            losses[i]
        );
        let row = &grads.data()[i * dim..(i + 1) * dim];
        for (j, (a, e)) in row.iter().zip(&g).enumerate() {
            prop_assert!(
                a.to_bits() == e.to_bits(),
                "grad[{i}][{j}]: batched {a} vs scalar {e}"
            );
        }
    }
    Ok(())
}

/// The example-at-a-time norm-stats refresh: advance every example through
/// every layer with the scalar [`Layer::forward`], and at each batch-norm
/// layer fold the per-channel mean, then variance, accumulated
/// example-major, then channel, then plane.
fn update_norm_stats_scalar(model: &mut Sequential, batch: &[Tensor]) {
    if batch.is_empty() {
        return;
    }
    let mut activations: Vec<Tensor> = batch.to_vec();
    for layer in &mut model.layers {
        if let Layer::BatchNorm2d(bn) = layer {
            let shape = activations[0].shape().to_vec();
            assert_eq!(shape.len(), 3, "batch norm input must be [C,H,W]");
            let channels = shape[0];
            let plane = shape[1] * shape[2];
            let count = (activations.len() * plane) as f64;
            let mut mean = vec![0.0; channels];
            let mut var = vec![0.0; channels];
            for a in &activations {
                for (c, m) in mean.iter_mut().enumerate() {
                    for p in 0..plane {
                        *m += a.data()[c * plane + p];
                    }
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            for a in &activations {
                for (c, v) in var.iter_mut().enumerate() {
                    for p in 0..plane {
                        let d = a.data()[c * plane + p] - mean[c];
                        *v += d * d;
                    }
                }
            }
            for v in &mut var {
                *v /= count;
            }
            bn.update_stats(&mean, &var);
        }
        let frozen = &*layer;
        activations = activations.iter().map(|a| frozen.forward(a).0).collect();
    }
}

/// Every batch-norm layer's running statistics, as raw bits.
fn norm_stat_bits(model: &Sequential) -> Vec<u64> {
    model
        .layers
        .iter()
        .filter_map(|layer| match layer {
            Layer::BatchNorm2d(bn) => Some(bn.running_mean.iter().chain(&bn.running_var)),
            _ => None,
        })
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

/// `examples` inputs of `shape` drawn from `seed`.
fn inputs(seed: u64, examples: usize, shape: &[usize]) -> Vec<Tensor> {
    let mut rng = seeded_rng(seed);
    let n: usize = shape.iter().product();
    (0..examples)
        .map(|_| {
            let data = (0..n)
                .map(|_| rand::Rng::gen_range(&mut rng, -1.5..1.5))
                .collect();
            Tensor::from_vec(shape, data)
        })
        .collect()
}

/// Refresh `model` and a copy through the scalar oracle from three
/// consecutive batches (each step's statistics feed the next step's
/// forward pass), checking the running statistics bitwise after each.
fn assert_refresh_matches_scalar(
    model: &Sequential,
    seed: u64,
    examples: usize,
    shape: &[usize],
) -> Result<(), TestCaseError> {
    let mut batched = model.clone();
    let mut scalar = model.clone();
    for step in 0..3 {
        let xs = inputs(seed.wrapping_add(step), examples, shape);
        batched.update_norm_stats(&xs);
        update_norm_stats_scalar(&mut scalar, &xs);
        prop_assert!(
            norm_stat_bits(&batched) == norm_stat_bits(&scalar),
            "running stats differ after refresh {step} of {examples} examples"
        );
    }
    prop_assert!(norm_stat_bits(&batched) != norm_stat_bits(model));
    prop_assert_eq!(batched.params(), model.params());
    Ok(())
}

/// `mean_loss` and `accuracy` carry the exact bits of the scalar formulas:
/// per-example [`Sequential::forward`] losses summed in example order, and
/// the share of [`Sequential::predict`] hits.
fn assert_inference_matches_scalar(
    model: &Sequential,
    xs: &[Tensor],
    ys: &[usize],
) -> Result<(), TestCaseError> {
    let losses: Vec<f64> = xs
        .iter()
        .zip(ys)
        .map(|(x, &y)| softmax_cross_entropy(model.forward(x).data(), y).0)
        .collect();
    let mean_loss = losses.iter().sum::<f64>() / xs.len() as f64;
    prop_assert_eq!(model.mean_loss(xs, ys).to_bits(), mean_loss.to_bits());
    let hits = xs
        .iter()
        .zip(ys)
        .filter(|(x, &y)| model.predict(x) == y)
        .count();
    let accuracy = hits as f64 / xs.len() as f64;
    prop_assert_eq!(model.accuracy(xs, ys).to_bits(), accuracy.to_bits());
    Ok(())
}

/// Batch sizes around the refresh's private 16-example chunk (1, chunk − 1,
/// chunk, chunk + 1) and one spanning several chunks.
const REFRESH_SIZES: [usize; 5] = [1, 15, 16, 17, 100];

/// Batch sizes around the clip loop's 16-example chunk.
const CHUNK_SIZES: [usize; 4] = [1, 15, 16, 17];

/// Check every row of the f64 collector against the scalar oracle, bit for
/// bit and in example order.
fn assert_rows_match_scalar(model: &Sequential, xs: &[Tensor], ys: &[usize]) {
    let (losses, grads) = model.per_example_grads_on(Backend::native(), xs, ys);
    assert_eq!(losses.len(), xs.len());
    for (ex, (loss, row)) in losses
        .iter()
        .zip(grads.data().chunks_exact(model.param_count()))
        .enumerate()
    {
        let (expect_loss, expect) = model.per_example_grad_scalar(&xs[ex], ys[ex]);
        assert_eq!(
            loss.to_bits(),
            expect_loss.to_bits(),
            "loss of example {ex}"
        );
        for (j, (a, e)) in row.iter().zip(&expect).enumerate() {
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "example {ex} grad[{j}]: {a} vs {e}"
            );
        }
    }
}

#[test]
fn per_example_rows_match_scalar_oracle_bitwise() {
    let mut tiny = cnn(5);
    tiny.update_norm_stats(&inputs(6, 8, &[1, 8, 8]));
    let mut mnist = mnist_cnn(&mut seeded_rng(7));
    mnist.update_norm_stats(&inputs(8, 8, &[1, 28, 28]));
    let purchase = purchase_mlp(&mut seeded_rng(9));
    let cases: [(&Sequential, &[usize]); 3] = [
        (&tiny, &[1, 8, 8]),
        (&mnist, &[1, 28, 28]),
        (&purchase, &[PURCHASE_FEATURES]),
    ];
    for (model, shape) in cases {
        let classes = match model.layers.last() {
            Some(Layer::Dense(d)) => d.bias.len(),
            _ => unreachable!("every reference model ends in a dense layer"),
        };
        for (k, examples) in CHUNK_SIZES.into_iter().enumerate() {
            let xs = inputs(100 + k as u64, examples, shape);
            let ys: Vec<usize> = (0..examples).map(|i| (i * 7 + k) % classes).collect();
            assert_rows_match_scalar(model, &xs, &ys);
        }
    }
}

#[test]
fn f32_rows_match_single_example_runs_bitwise() {
    // No scalar oracle exists at f32; the rows must instead be
    // batch-independent: each row equals the B = 1 run on its example.
    let mut mnist = mnist_cnn(&mut seeded_rng(11));
    mnist.update_norm_stats(&inputs(12, 8, &[1, 28, 28]));
    // (model, input shape, batch sizes, classes)
    let cases = [
        (mnist.cast::<f32>(), &[1, 28, 28][..], &[1, 17][..], 10),
        (cnn(9).cast(), &[1, 8, 8], &[3], 3),
    ];
    for (model, shape, sizes, classes) in cases {
        for (k, &examples) in sizes.iter().enumerate() {
            let xs = inputs(200 + k as u64, examples, shape);
            let ys: Vec<usize> = (0..examples).map(|i| (i + k) % classes).collect();
            let (losses, grads) = model.per_example_grads_on(Backend::native(), &xs, &ys);
            for (ex, (loss, row)) in losses
                .iter()
                .zip(grads.data().chunks_exact(model.param_count()))
                .enumerate()
            {
                let (solo_loss, solo) =
                    model.per_example_grad_on(Backend::native(), &xs[ex], ys[ex]);
                assert_eq!(loss.to_bits(), solo_loss.to_bits());
                for (j, (a, e)) in row.iter().zip(&solo).enumerate() {
                    assert_eq!(a.to_bits(), e.to_bits(), "example {ex} grad[{j}]");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "empty batch")]
fn per_example_grads_refuse_an_empty_batch() {
    let model = mlp(1, 4, 3, 2);
    model.per_example_grads_on(Backend::native(), &[], &[]);
}

/// The f32 pipeline must agree with the f64 oracle within a tolerance band
/// scaled to single-precision accumulation depth.
fn assert_f32_grads_close(model: &Sequential, xs: &[Tensor], labels: &[usize]) {
    let (losses64, grads64) = model.per_example_grads_on(Backend::native(), xs, labels);
    let narrowed = model.cast::<f32>();
    assert_eq!(narrowed.param_count(), model.param_count());
    let (losses32, grads32) = narrowed.per_example_grads_on(Backend::native(), xs, labels);
    for (a, b) in losses64.iter().zip(&losses32) {
        assert!((a - b).abs() < 1e-4, "loss differs: {a} vs {b}");
    }
    assert_eq!(grads32.len(), grads64.len());
    for (i, (g64, g32)) in grads64.data().iter().zip(grads32.data()).enumerate() {
        let diff = (g64 - f64::from(*g32)).abs();
        let tol = 1e-4 + 1e-3 * g64.abs();
        assert!(diff < tol, "grad[{i}] differs: {g64} vs {g32}");
    }
}

#[test]
fn mlp_f32_grads_match_f64_within_tolerance() {
    let labels = vec![0, 1, 2, 0, 1, 2, 0];
    assert_f32_grads_close(&mlp(3, 6, 5, 3), &inputs(100, 7, &[6]), &labels);
}

#[test]
fn cnn_f32_grads_match_f64_within_tolerance() {
    let labels = vec![2, 0, 1, 1, 2];
    assert_f32_grads_close(&cnn(5), &inputs(200, 5, &[1, 8, 8]), &labels);
}

/// Layer-pipeline-level backend equivalence: the blas backend's
/// per-example gradients must track the native oracle within a
/// reassociation-scale tolerance, in both precisions.
#[cfg(feature = "blas")]
#[test]
fn blas_backend_grads_track_native_within_tolerance() {
    let blas = Backend::resolve("blas").unwrap();
    let native = Backend::native();
    let model = cnn(5);
    let xs = inputs(200, 5, &[1, 8, 8]);
    let labels = vec![2, 0, 1, 1, 2];

    let (l_native, g_native) = model.per_example_grads_on(native, &xs, &labels);
    let (l_blas, g_blas) = model.per_example_grads_on(blas, &xs, &labels);
    for (a, b) in l_native.iter().zip(&l_blas) {
        assert!((a - b).abs() < 1e-9, "f64 loss differs: {a} vs {b}");
    }
    for (i, (a, b)) in g_native.data().iter().zip(g_blas.data()).enumerate() {
        let tol = 1e-9 * (1.0 + a.abs());
        assert!((a - b).abs() < tol, "f64 grad[{i}] differs: {a} vs {b}");
    }

    let narrowed = model.cast::<f32>();
    let (_, s_native) = narrowed.per_example_grads_on(native, &xs, &labels);
    let (_, s_blas) = narrowed.per_example_grads_on(blas, &xs, &labels);
    for (i, (a, b)) in s_native.data().iter().zip(s_blas.data()).enumerate() {
        let tol = 1e-4 + 1e-3 * f64::from(a.abs());
        assert!(
            (f64::from(*a) - f64::from(*b)).abs() < tol,
            "f32 grad[{i}] differs: {a} vs {b}"
        );
    }
}

#[test]
fn refresh_without_batch_norm_leaves_model_untouched() {
    let mut model = mlp(3, 5, 4, 3);
    let before = model.clone();
    model.update_norm_stats(&inputs(4, 20, &[5]));
    assert_eq!(model.params(), before.params());
    assert!(!model.has_batch_norm());
    assert!(mnist_cnn(&mut seeded_rng(3)).has_batch_norm());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn tiny_cnn_refresh_matches_scalar_bitwise(seed in 0u64..1_000) {
        for examples in REFRESH_SIZES {
            assert_refresh_matches_scalar(&cnn(seed), seed, examples, &[1, 8, 8])?;
        }
    }

    #[test]
    fn mnist_cnn_refresh_matches_scalar_bitwise(seed in 0u64..1_000) {
        let model = mnist_cnn(&mut seeded_rng(seed));
        for examples in REFRESH_SIZES {
            assert_refresh_matches_scalar(&model, seed, examples, &[1, 28, 28])?;
        }
    }

    #[test]
    fn inference_matches_scalar_bitwise(seed in 0u64..1_000) {
        let mut cnn = cnn(seed);
        cnn.update_norm_stats(&inputs(seed, 10, &[1, 8, 8]));
        let mlp = mlp(seed, 6, 5, 4);
        for examples in REFRESH_SIZES {
            let xs = inputs(seed ^ 1, examples, &[1, 8, 8]);
            let ys: Vec<usize> = (0..examples).map(|i| (i * 7 + seed as usize) % 3).collect();
            assert_inference_matches_scalar(&cnn, &xs, &ys)?;
            let xs = inputs(seed ^ 2, examples, &[6]);
            let ys: Vec<usize> = (0..examples).map(|i| (i + seed as usize) % 4).collect();
            assert_inference_matches_scalar(&mlp, &xs, &ys)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mlp_batched_grads_match_scalar_bitwise(
        seed in 0u64..1_000,
        in_f in 3usize..8,
        hidden in 2usize..6,
        b in 1usize..5,
        raw in proptest::collection::vec(-2.0..2.0f64, 4 * 7),
    ) {
        let classes = 3;
        let model = mlp(seed, in_f, hidden, classes);
        let xs: Vec<Tensor> = (0..b)
            .map(|i| Tensor::from_vec(&[in_f], raw[i * in_f..(i + 1) * in_f].to_vec()))
            .collect();
        let ys: Vec<usize> = (0..b).map(|i| (i + seed as usize) % classes).collect();
        assert_batch_matches_scalar(&model, &xs, &ys)?;
    }

    #[test]
    fn cnn_batched_grads_match_scalar_bitwise(
        seed in 0u64..1_000,
        b in 1usize..4,
        raw in proptest::collection::vec(-1.5..1.5f64, 3 * 64),
    ) {
        let mut model = cnn(seed);
        let xs: Vec<Tensor> = (0..b)
            .map(|i| Tensor::from_vec(&[1, 8, 8], raw[i * 64..(i + 1) * 64].to_vec()))
            .collect();
        let ys: Vec<usize> = (0..b).map(|i| i % 3).collect();
        // Give the frozen batch norm non-trivial statistics first, as the
        // DPSGD trainer does before every step.
        model.update_norm_stats(&xs);
        assert_batch_matches_scalar(&model, &xs, &ys)?;
    }
}
