//! The batched DPSGD clip loop and its intra-trial parallelism knob.
//!
//! [`ClipContext::clip_loop`] is the per-step hot path of every DPSGD
//! trainer (full-batch and Poisson audits, mini-batch and federated
//! training): per-example gradients, clipping, and the clipped-gradient sum.
//! It walks the batch in fixed chunks of [`CLIP_CHUNK`] examples; each
//! chunk runs one batched forward and delta pass and then the fused
//! clip-and-sum pass ([`Sequential::clip_sum_on`]), which computes every
//! example's norm and adds its clipped gradient into the chunk's partial
//! sum without writing any per-example gradient row. The partials are
//! folded in chunk-index order. Because the chunking is a constant of the
//! data (never of the worker count) and the fold order is fixed, the result
//! is bit-identical whether chunks run sequentially or on a thread pool —
//! the same invariant the runtime executor guarantees across trials.
//!
//! Memory: a sequential pass holds one chunk partial and the running total
//! (two dim-length f64 vectors), plus the chunk's activations and deltas
//! and the fused pass's small scratch (the chunk's dense inputs and deltas
//! transposed, and `[CLIP_CHUNK, segment]` values for convolution and
//! batch-norm layers) — never a gradient row, let alone a
//! `[CLIP_CHUNK, dim]` block. A pooled pass holds one partial per chunk
//! until the ordered fold.
//!
//! The thread count is a process-wide knob ([`set_batch_threads`]) rather
//! than a per-call argument because the trainer sits several layers below
//! the code that knows the CLI configuration, and the knob cannot affect
//! any result — only how fast it arrives. A training run resolves it once,
//! with its compute mode and backend, into a [`ClipContext`].

use dpaudit_math::axpy;
use dpaudit_nn::{RowClip, Sequential};
use dpaudit_obs as obs;
use dpaudit_tensor::{Backend, Elem, Tensor};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::clip::ClippingStrategy;
use crate::config::ComputeMode;

/// Examples per clip-loop chunk. A constant of the computation, not of the
/// thread count: chunk boundaries define the fixed-order reduction that
/// makes the clipped-gradient sum independent of parallelism. It also bounds
/// the batched forward/delta activations a chunk holds; gradients never
/// exist as rows (the fused pass clips and sums them in place).
pub const CLIP_CHUNK: usize = 16;

/// Worker threads for the clip loop inside one trial (process-wide).
/// 1 = sequential (default), 0 = machine parallelism.
static BATCH_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set the intra-trial clip-loop worker count: 1 = sequential, 0 = machine
/// parallelism. Safe to call at any time — the value changes throughput
/// only, never results.
pub fn set_batch_threads(n: usize) {
    BATCH_THREADS.store(n, Ordering::Relaxed);
}

/// The configured intra-trial worker count (0 = machine parallelism).
pub fn batch_threads() -> usize {
    BATCH_THREADS.load(Ordering::Relaxed)
}

/// The resolved intra-trial worker count (with 0 mapped to the machine's
/// available parallelism).
pub fn effective_batch_threads() -> usize {
    match batch_threads() {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// A thread pool sized by [`set_batch_threads`], or `None` when the knob
/// resolves to sequential execution. [`ClipContext::new`] builds one per
/// training run.
pub fn batch_pool() -> Option<ThreadPool> {
    let n = effective_batch_threads();
    (n > 1).then(|| {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("clip-loop thread pool")
    })
}

/// Aggregates of one clip-loop pass over a dataset.
#[derive(Debug, Clone)]
pub struct ClipLoopOutput {
    /// Sum of the clipped per-example gradients (flat parameter layout).
    pub clean_sum: Vec<f64>,
    /// Sum of the per-example losses.
    pub loss_total: f64,
    /// Examples whose pre-clip norm was already within the bound.
    pub unclipped: usize,
}

impl ClipLoopOutput {
    fn zero(dim: usize) -> Self {
        ClipLoopOutput {
            clean_sum: vec![0.0; dim],
            loss_total: 0.0,
            unclipped: 0,
        }
    }

    /// Add one chunk's partial — a step of the fixed-order reduction that
    /// keeps the sum independent of scheduling.
    fn fold(&mut self, partial: &ClipLoopOutput) {
        axpy(1.0, &partial.clean_sum, &mut self.clean_sum);
        self.loss_total += partial.loss_total;
        self.unclipped += partial.unclipped;
    }
}

/// What the clip loop needs from a training run, resolved once per run:
/// the compute mode, the gemm backend and the intra-trial worker pool.
#[derive(Debug)]
pub struct ClipContext {
    /// The precision the per-example gradients are computed in.
    pub compute: ComputeMode,
    /// The backend every per-example gradient gemm routes through.
    pub backend: Backend,
    /// Chunk workers, or `None` to run the chunks in order on this thread.
    pub pool: Option<ThreadPool>,
}

impl ClipContext {
    /// The context of one training run in `compute` on `backend`, with the
    /// pool [`batch_pool`] sizes from the process-wide knob.
    pub fn new(compute: ComputeMode, backend: Backend) -> Self {
        ClipContext {
            compute,
            backend,
            pool: batch_pool(),
        }
    }

    /// One pass of the DPSGD clip loop: per-example gradients over
    /// `(xs, ys)`, clipped by `clipping` over the model's parameter layout,
    /// summed in fixed chunk order. With a pool, chunks run in parallel; the
    /// output is bit-identical either way (see the module docs).
    ///
    /// Each chunk runs one batched forward and delta pass and the fused
    /// clip-and-sum pass ([`Sequential::clip_sum_on`]), which adds the
    /// chunk's clipped gradients into its partial sum without writing any
    /// gradient row. Without a pool each partial is folded into the total
    /// as soon as its chunk finishes; with one, the partials are collected
    /// and folded in chunk order.
    ///
    /// [`ComputeMode::F64`] is the bit-reproducible oracle.
    /// [`ComputeMode::F32`] narrows the model once per call
    /// ([`Sequential::cast`]) and computes every gradient value in single
    /// precision on the same batched layers; each value is widened to f64
    /// as it flows into the norm and the chunk-ordered sum, so the norm, the
    /// clip scale and the sum all accumulate in double precision over
    /// f32-valued inputs. The f32 norm is the eight-lane reduction of
    /// [`Elem::NORM_LANES`] (a single running sum is a serial add chain
    /// whose latency dominates at ~10⁵ parameters). Everything downstream
    /// of the per-example gradients is deterministic with a fixed chunk and
    /// fold order, so f32 results are still bit-identical across thread
    /// counts, just not to the f64 oracle.
    ///
    /// On [`Backend::native`] results are the oracle's; other backends are
    /// tolerance-equivalent only.
    ///
    /// # Panics
    /// Panics on a length mismatch, a non-positive bound, or per-layer
    /// bounds that do not match the model's parameterised layers.
    pub fn clip_loop(
        &self,
        model: &Sequential,
        xs: &[Tensor],
        ys: &[usize],
        clipping: &ClippingStrategy,
    ) -> ClipLoopOutput {
        run_clip_loop(
            model,
            xs,
            ys,
            clipping,
            self.compute,
            self.backend,
            self.pool.as_ref(),
        )
    }
}

/// [`ClipContext::clip_loop`] with the context spelled out argument by
/// argument, as the `auditbench` probe calls it. `layout` must be the
/// model's [`Sequential::param_layout`].
///
/// # Panics
/// As [`ClipContext::clip_loop`], and on a `layout` that is not the
/// model's.
#[allow(clippy::too_many_arguments)]
pub fn clip_loop_mode(
    model: &Sequential,
    xs: &[Tensor],
    ys: &[usize],
    clipping: &ClippingStrategy,
    layout: &[usize],
    pool: Option<&ThreadPool>,
    compute: ComputeMode,
    backend: Backend,
) -> ClipLoopOutput {
    assert_eq!(
        layout,
        model.param_layout(),
        "clip_loop_mode: layout is not the model's"
    );
    run_clip_loop(model, xs, ys, clipping, compute, backend, pool)
}

/// [`ClipContext::clip_loop`] on a borrowed pool.
fn run_clip_loop(
    model: &Sequential,
    xs: &[Tensor],
    ys: &[usize],
    clipping: &ClippingStrategy,
    compute: ComputeMode,
    backend: Backend,
    pool: Option<&ThreadPool>,
) -> ClipLoopOutput {
    assert_eq!(xs.len(), ys.len(), "clip loop: length mismatch");
    let bound = clipping.total_bound();
    let clip = clipping.row_clip();
    match compute {
        ComputeMode::F64 => chunked_clip_sum(model, backend, xs, ys, clip, bound, pool),
        ComputeMode::F32 => {
            chunked_clip_sum(&model.cast::<f32>(), backend, xs, ys, clip, bound, pool)
        }
    }
}

/// The precision-generic body of the clip loop: each chunk's fused
/// clip-and-sum pass into its partial, folded in chunk order.
fn chunked_clip_sum<E: Elem>(
    model: &Sequential<E>,
    backend: Backend,
    xs: &[Tensor],
    ys: &[usize],
    clip: RowClip<'_>,
    bound: f64,
    pool: Option<&ThreadPool>,
) -> ClipLoopOutput {
    let dim = model.param_count();
    let run_chunk = |(start, end): (usize, usize), partial: &mut ClipLoopOutput| {
        let _chunk_span = obs::span(obs::names::CLIP_CHUNK_SPAN);
        let (losses, norms) = model.clip_sum_on(
            backend,
            &xs[start..end],
            &ys[start..end],
            clip,
            &mut partial.clean_sum,
        );
        partial.loss_total = losses.iter().sum();
        partial.unclipped = norms.iter().filter(|&&norm| norm <= bound).count();
    };
    let ranges = chunk_ranges(xs.len());
    let mut out = ClipLoopOutput::zero(dim);
    match pool {
        Some(pool) if ranges.len() > 1 => {
            let partials: Vec<ClipLoopOutput> = pool.install(|| {
                ranges
                    .into_par_iter()
                    .map(|range| {
                        let mut partial = ClipLoopOutput::zero(dim);
                        run_chunk(range, &mut partial);
                        partial
                    })
                    .collect()
            });
            for partial in &partials {
                out.fold(partial);
            }
        }
        _ => {
            let mut partial = ClipLoopOutput::zero(dim);
            for range in ranges {
                partial.clean_sum.fill(0.0);
                run_chunk(range, &mut partial);
                out.fold(&partial);
            }
        }
    }
    out
}

/// The fixed chunk decomposition of a dataset of `n` examples.
fn chunk_ranges(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .step_by(CLIP_CHUNK)
        .map(|start| (start, usize::min(start + CLIP_CHUNK, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;
    use dpaudit_nn::{mnist_cnn, purchase_mlp, Dense, Layer, PURCHASE_FEATURES};
    use rand::Rng;

    fn setup(n: usize) -> (Sequential, Vec<Tensor>, Vec<usize>) {
        let mut rng = seeded_rng(7);
        let model = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 5, 4)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 4, 3)),
        ]);
        let xs: Vec<Tensor> = (0..n)
            .map(|i| {
                Tensor::from_vec(
                    &[5],
                    (0..5)
                        .map(|j| ((i * 7 + j * 3) % 13) as f64 / 13.0)
                        .collect(),
                )
            })
            .collect();
        let ys: Vec<usize> = (0..n).map(|i| i % 3).collect();
        (model, xs, ys)
    }

    fn context(compute: ComputeMode, threads: Option<usize>) -> ClipContext {
        ClipContext {
            compute,
            backend: Backend::native(),
            pool: threads.map(|n| ThreadPoolBuilder::new().num_threads(n).build().unwrap()),
        }
    }

    /// The f64 clip loop on the native backend.
    fn clip_loop(
        model: &Sequential,
        xs: &[Tensor],
        ys: &[usize],
        clipping: &ClippingStrategy,
        threads: Option<usize>,
    ) -> ClipLoopOutput {
        context(ComputeMode::F64, threads).clip_loop(model, xs, ys, clipping)
    }

    fn assert_bit_identical(out: &ClipLoopOutput, expect: &ClipLoopOutput, case: &str) {
        assert_eq!(out.unclipped, expect.unclipped, "{case}: unclipped");
        assert_eq!(
            out.loss_total.to_bits(),
            expect.loss_total.to_bits(),
            "{case}: loss_total {} vs {}",
            out.loss_total,
            expect.loss_total
        );
        assert_eq!(out.clean_sum.len(), expect.clean_sum.len());
        for (i, (a, e)) in out.clean_sum.iter().zip(&expect.clean_sum).enumerate() {
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "{case}: clean_sum[{i}] {a} vs {e}"
            );
        }
    }

    /// Clip one f32 gradient row against `clipping` and add it into the f64
    /// `clean_sum`, widening each value — the row-at-a-time f32 formula the
    /// fused pass must reproduce. Returns the pre-clip norm.
    fn clip_add_widened(
        clipping: &ClippingStrategy,
        row: &[f32],
        layout: &[usize],
        clean_sum: &mut [f64],
    ) -> f64 {
        let factor = |norm: f64, c: f64| if norm > c { c / norm } else { 1.0 };
        match clipping {
            ClippingStrategy::Flat(c) => {
                let norm = l2_norm_widened(row);
                axpy_widened(factor(norm, *c), row, clean_sum);
                norm
            }
            ClippingStrategy::PerLayer(cs) => {
                let mut off = 0;
                for (&c, &len) in cs.iter().zip(layout) {
                    let seg = &row[off..off + len];
                    let scale = factor(l2_norm_widened(seg), c);
                    axpy_widened(scale, seg, &mut clean_sum[off..off + len]);
                    off += len;
                }
                l2_norm_widened(row)
            }
        }
    }

    /// ‖row‖ with each f32 widened to f64, over eight partial sums by index
    /// mod 8 and a serial tail for the last `len % 8` values.
    fn l2_norm_widened(row: &[f32]) -> f64 {
        const LANES: usize = 8;
        let mut acc = [0.0f64; LANES];
        let mut chunks = row.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (a, &g) in acc.iter_mut().zip(chunk) {
                let w = f64::from(g);
                *a += w * w;
            }
        }
        let mut tail = 0.0;
        for &g in chunks.remainder() {
            let w = f64::from(g);
            tail += w * w;
        }
        (acc.iter().sum::<f64>() + tail).sqrt()
    }

    /// `sum[i] += factor · f64::from(row[i])`.
    fn axpy_widened(factor: f64, row: &[f32], sum: &mut [f64]) {
        for (s, &g) in sum.iter_mut().zip(row) {
            *s += factor * f64::from(g);
        }
    }

    /// The row-at-a-time oracle of the clip loop: each chunk's rows from
    /// `per_example_grads_on`, clipped one by one (`ClippingStrategy::clip`
    /// at f64, the widened formula at f32) and added into the chunk's
    /// partial, the partials folded in chunk order.
    fn row_oracle(
        model: &Sequential,
        xs: &[Tensor],
        ys: &[usize],
        clipping: &ClippingStrategy,
        compute: ComputeMode,
    ) -> ClipLoopOutput {
        let (dim, layout) = (model.param_count(), model.param_layout());
        let bound = clipping.total_bound();
        let narrowed = model.cast::<f32>();
        let native = Backend::native();
        let mut out = ClipLoopOutput::zero(dim);
        for (xs, ys) in xs.chunks(CLIP_CHUNK).zip(ys.chunks(CLIP_CHUNK)) {
            let mut partial = ClipLoopOutput::zero(dim);
            let (losses, norms) = match compute {
                ComputeMode::F64 => {
                    let (losses, grads) = model.per_example_grads_on(native, xs, ys);
                    let norms = grads
                        .data()
                        .chunks_exact(dim)
                        .map(|row| {
                            let mut g = row.to_vec();
                            let norm = clipping.clip(&mut g, &layout);
                            axpy(1.0, &g, &mut partial.clean_sum);
                            norm
                        })
                        .collect::<Vec<_>>();
                    (losses, norms)
                }
                ComputeMode::F32 => {
                    let (losses, grads) = narrowed.per_example_grads_on(native, xs, ys);
                    let norms = grads
                        .data()
                        .chunks_exact(dim)
                        .map(|row| clip_add_widened(clipping, row, &layout, &mut partial.clean_sum))
                        .collect::<Vec<_>>();
                    (losses, norms)
                }
            };
            partial.loss_total = losses.iter().sum();
            partial.unclipped = norms.iter().filter(|&&n| n <= bound).count();
            out.fold(&partial);
        }
        out
    }

    /// Every example's f64 per-segment gradient norms (one per parameterised
    /// layer), for choosing bounds that clip all, none or some examples.
    fn segment_norms(model: &Sequential, xs: &[Tensor], ys: &[usize]) -> Vec<Vec<f64>> {
        let layout = model.param_layout();
        let (_, grads) = model.per_example_grads_on(Backend::native(), xs, ys);
        grads
            .data()
            .chunks_exact(model.param_count())
            .map(|row| {
                let mut off = 0;
                layout
                    .iter()
                    .map(|&len| {
                        off += len;
                        dpaudit_math::l2_norm(&row[off - len..off])
                    })
                    .collect()
            })
            .filter(|norms: &Vec<f64>| norms.iter().all(|n| n.is_finite()))
            .collect()
    }

    fn inputs(seed: u64, n: usize, shape: &[usize]) -> Vec<Tensor> {
        let mut rng = seeded_rng(seed);
        let len: usize = shape.iter().product();
        (0..n)
            .map(|_| Tensor::from_vec(shape, (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect()
    }

    /// The fused clip loop against the row oracle, `to_bits`, on the tiny
    /// MLP, the Purchase MLP and the MNIST CNN; at f64 and f32; under flat
    /// and per-layer clipping; with bounds that clip every example, none
    /// and some; over two full chunks and a ragged tail holding one NaN
    /// example; sequentially and on pools of 2 and 4 workers.
    #[test]
    fn fused_clip_loop_matches_row_oracle_bitwise() {
        let n = 2 * CLIP_CHUNK + 5;
        // 5 → 3 → 3: segments of 18 and 12 values, so the second segment
        // starts off an eight-lane boundary and both rows and segments end
        // in a ragged f32 tail.
        let mut rng = seeded_rng(2);
        let tiny = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 5, 3)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 3, 3)),
        ]);
        let purchase = purchase_mlp(&mut seeded_rng(3));
        let mut mnist = mnist_cnn(&mut seeded_rng(4));
        mnist.update_norm_stats(&inputs(5, 8, &[1, 28, 28]));
        let cases: [(&str, &Sequential, &[usize], usize); 3] = [
            ("tiny", &tiny, &[5], 3),
            ("purchase", &purchase, &[PURCHASE_FEATURES], 100),
            ("mnist", &mnist, &[1, 28, 28], 10),
        ];
        for (name, model, shape, classes) in cases {
            let mut xs = inputs(11, n, shape);
            let ys: Vec<usize> = (0..n).map(|i| (i * 7) % classes).collect();
            let mut nan_input = xs[n - 2].data().to_vec();
            nan_input[0] = f64::NAN;
            xs[n - 2] = Tensor::from_vec(shape, nan_input);

            // Per-layer norms of the finite examples, then bounds scaled
            // from them: below every norm, above every norm, and at the
            // median.
            let norms = segment_norms(model, &xs, &ys);
            let layers = model.param_layout().len();
            let per_layer = |pick: &dyn Fn(&mut Vec<f64>) -> f64| -> Vec<f64> {
                (0..layers)
                    .map(|l| pick(&mut norms.iter().map(|ex| ex[l]).collect()))
                    .collect()
            };
            let min = per_layer(&|v| {
                v.iter()
                    .copied()
                    .filter(|&n| n > 0.0)
                    .fold(f64::INFINITY, f64::min)
            });
            let max = per_layer(&|v| v.iter().copied().fold(0.0, f64::max));
            let median = per_layer(&|v| {
                v.sort_by(f64::total_cmp);
                v[v.len() / 2]
            });
            let whole = |cs: &[f64]| cs.iter().map(|c| c * c).sum::<f64>().sqrt();
            // (label, per-layer bounds, expected unclipped count or None for
            // "strictly between").
            let regimes = [
                (
                    "all",
                    min.iter().map(|c| c / 4.0).collect::<Vec<_>>(),
                    Some(0),
                ),
                ("none", max.iter().map(|c| c * 4.0).collect(), Some(n - 1)),
                ("some", median, None),
            ];
            for (regime, cs, expect_unclipped) in regimes {
                for clipping in [
                    ClippingStrategy::Flat(whole(&cs)),
                    ClippingStrategy::PerLayer(cs.clone()),
                ] {
                    for compute in [ComputeMode::F64, ComputeMode::F32] {
                        let expect = row_oracle(model, &xs, &ys, &clipping, compute);
                        let flat = matches!(clipping, ClippingStrategy::Flat(_));
                        match expect_unclipped {
                            Some(count) if flat || count == 0 => {
                                assert_eq!(expect.unclipped, count, "{name} {regime}")
                            }
                            Some(_) => {}
                            None => assert!(
                                (1..n - 1).contains(&expect.unclipped),
                                "{name} {regime}: {} unclipped",
                                expect.unclipped
                            ),
                        }
                        assert!(expect.clean_sum.iter().any(|v| v.is_nan()));
                        for threads in [None, Some(2), Some(4)] {
                            let out =
                                context(compute, threads).clip_loop(model, &xs, &ys, &clipping);
                            let case =
                                format!("{name} {regime} {clipping:?} {compute} {threads:?}");
                            assert_bit_identical(&out, &expect, &case);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn knob_round_trips_and_resolves_zero() {
        let before = batch_threads();
        set_batch_threads(3);
        assert_eq!(batch_threads(), 3);
        assert_eq!(effective_batch_threads(), 3);
        set_batch_threads(0);
        assert!(effective_batch_threads() >= 1);
        set_batch_threads(before);
    }

    #[test]
    fn clip_loop_matches_scalar_per_example_loop_bitwise() {
        // More examples than one chunk, with a ragged tail.
        let (model, xs, ys) = setup(CLIP_CHUNK * 2 + 5);
        let clipping = ClippingStrategy::Flat(0.7);
        let layout = model.param_layout();
        let out = clip_loop(&model, &xs, &ys, &clipping, None);

        // Chunked scalar oracle with the same fold order.
        let bound = clipping.total_bound();
        let mut expect = vec![0.0; model.param_count()];
        let mut loss_total = 0.0;
        let mut unclipped = 0;
        for chunk in xs.chunks(CLIP_CHUNK).zip(ys.chunks(CLIP_CHUNK)) {
            let mut partial = vec![0.0; model.param_count()];
            for (x, &y) in chunk.0.iter().zip(chunk.1) {
                let (loss, mut g) = model.per_example_grad_scalar(x, y);
                let pre_norm = clipping.clip(&mut g, &layout);
                if pre_norm <= bound {
                    unclipped += 1;
                }
                loss_total += loss;
                axpy(1.0, &g, &mut partial);
            }
            axpy(1.0, &partial, &mut expect);
        }
        assert_eq!(out.unclipped, unclipped);
        assert_eq!(out.loss_total.to_bits(), loss_total.to_bits());
        for (a, e) in out.clean_sum.iter().zip(&expect) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn positional_entry_point_matches_the_context() {
        let (model, xs, ys) = setup(CLIP_CHUNK + 3);
        let clipping = ClippingStrategy::PerLayer(vec![0.4, 0.3]);
        let layout = model.param_layout();
        for compute in [ComputeMode::F64, ComputeMode::F32] {
            let out = clip_loop_mode(
                &model,
                &xs,
                &ys,
                &clipping,
                &layout,
                None,
                compute,
                Backend::native(),
            );
            let expect = context(compute, None).clip_loop(&model, &xs, &ys, &clipping);
            assert_bit_identical(&out, &expect, &format!("{compute}"));
        }
    }

    #[test]
    #[should_panic(expected = "norms for")]
    fn per_layer_bound_count_mismatch_panics() {
        let (model, xs, ys) = setup(3);
        clip_loop(
            &model,
            &xs,
            &ys,
            &ClippingStrategy::PerLayer(vec![1.0]),
            None,
        );
    }

    #[test]
    fn f32_mode_matches_f64_within_tolerance() {
        let (model, xs, ys) = setup(CLIP_CHUNK * 2 + 3);
        let clipping = ClippingStrategy::Flat(0.7);
        let oracle = clip_loop(&model, &xs, &ys, &clipping, None);
        let f32_out = context(ComputeMode::F32, None).clip_loop(&model, &xs, &ys, &clipping);
        assert!((oracle.loss_total - f32_out.loss_total).abs() < 1e-3 * xs.len() as f64);
        for (i, (a, b)) in oracle.clean_sum.iter().zip(&f32_out.clean_sum).enumerate() {
            let tol = 1e-4 * xs.len() as f64 + 1e-3 * a.abs();
            assert!((a - b).abs() < tol, "clean_sum[{i}]: {a} vs {b}");
        }
    }

    /// Tolerance-equivalence gate at the clip-loop level: the BLAS backend
    /// must track the native oracle closely in both precisions, and must
    /// preserve the integer clip count exactly (the tolerance is far below
    /// the margin between any pre-clip norm and the bound in this setup).
    #[cfg(feature = "blas")]
    #[test]
    fn blas_backend_clip_loop_tracks_native_within_tolerance() {
        let (model, xs, ys) = setup(CLIP_CHUNK + 7);
        let clipping = ClippingStrategy::Flat(0.7);
        let blas = Backend::resolve("blas").unwrap();
        for compute in [ComputeMode::F64, ComputeMode::F32] {
            let oracle = context(compute, None).clip_loop(&model, &xs, &ys, &clipping);
            let out = ClipContext {
                compute,
                backend: blas,
                pool: None,
            }
            .clip_loop(&model, &xs, &ys, &clipping);
            assert_eq!(out.unclipped, oracle.unclipped, "{compute}");
            let loss_tol = match compute {
                ComputeMode::F64 => 1e-9 * xs.len() as f64,
                ComputeMode::F32 => 1e-3 * xs.len() as f64,
            };
            assert!(
                (oracle.loss_total - out.loss_total).abs() < loss_tol,
                "{compute} loss: {} vs {}",
                oracle.loss_total,
                out.loss_total
            );
            for (i, (a, b)) in oracle.clean_sum.iter().zip(&out.clean_sum).enumerate() {
                let tol = match compute {
                    ComputeMode::F64 => 1e-9 * (1.0 + a.abs()),
                    ComputeMode::F32 => 1e-4 * xs.len() as f64 + 1e-3 * a.abs(),
                };
                assert!((a - b).abs() < tol, "{compute} clean_sum[{i}]: {a} vs {b}");
            }
        }
    }

    #[test]
    fn loss_chain_is_chunked_in_order() {
        // The loss fold is (chunk-0 sum) + (chunk-1 sum) + …, each chunk an
        // in-order sum — exercise a ragged two-chunk split explicitly.
        let (model, xs, ys) = setup(CLIP_CHUNK + 1);
        let clipping = ClippingStrategy::Flat(1.0);
        let out = clip_loop(&model, &xs, &ys, &clipping, None);
        let per_example: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(x, &y)| model.per_example_grad_scalar(x, y).0)
            .collect();
        let head: f64 = per_example[..CLIP_CHUNK].iter().sum();
        let tail: f64 = per_example[CLIP_CHUNK..].iter().sum();
        assert_eq!(out.loss_total.to_bits(), (head + tail).to_bits());
    }
}
