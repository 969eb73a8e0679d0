//! The batched DPSGD clip loop and its intra-trial parallelism knob.
//!
//! [`clip_loop_mode`] is the per-step hot path of every DPSGD trainer
//! (full-batch and Poisson audits, mini-batch and federated training):
//! per-example gradients, clipping, and the clipped-gradient sum. It walks
//! the batch in fixed chunks of [`CLIP_CHUNK`] examples, runs each chunk's
//! forward and backward delta pass batched, and then streams the chunk's
//! per-example gradient rows one at a time through a single reused
//! dim-length buffer: each row is clipped and added into the chunk's partial
//! sum as it is written. The partials are folded in chunk-index order.
//! Because the chunking is a constant of the data (never of the worker
//! count) and the fold order is fixed, the result is bit-identical whether
//! chunks run sequentially or on a thread pool — the same invariant the
//! runtime executor guarantees across trials.
//!
//! Memory: a sequential pass holds one gradient row, one chunk partial and
//! the running total (three dim-length f64 vectors, plus the chunk's
//! activations) — never a `[CLIP_CHUNK, dim]` gradient block, and never
//! more than one partial at a time. A pooled pass holds one row and one
//! partial per chunk until the ordered fold.
//!
//! The thread count is a process-wide knob ([`set_batch_threads`]) rather
//! than a per-call argument because the trainer sits several layers below
//! the code that knows the CLI configuration, and the knob cannot affect
//! any result — only how fast it arrives.

use dpaudit_math::axpy;
use dpaudit_nn::Sequential;
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
/// exist as a chunk-sized block (rows stream through one buffer).
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
/// resolves to sequential execution. Build once per training run and pass
/// to every [`clip_loop_mode`] call.
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

/// One pass of the DPSGD clip loop in the requested [`ComputeMode`]:
/// per-example gradients over `(xs, ys)`, clipped by `clipping` over
/// `layout`, summed in fixed chunk order. With `pool`, chunks run in
/// parallel; the output is bit-identical either way (see the module docs).
///
/// Each chunk runs one batched forward and delta pass, then streams its
/// per-example gradient rows through one reused row buffer
/// ([`Sequential::visit_example_grads_on`]): every row is clipped and added
/// into the chunk's partial sum as it arrives, so no `[CLIP_CHUNK, dim]`
/// gradient block is materialised. Without a pool each partial is folded
/// into the total as soon as its chunk finishes; with one, the partials are
/// collected and folded in chunk order.
///
/// [`ComputeMode::F64`] is the bit-reproducible oracle.
/// [`ComputeMode::F32`] narrows the model once per call
/// ([`Sequential::cast`]), computes each row in single precision on the same
/// batched layers,
/// and widens each f32 value to f64 on the fly as it flows into the norm
/// and the chunk-ordered sum — so the norm, the clip scale, and the sum all
/// accumulate in double precision over f32-valued inputs. The norm uses a
/// fixed eight-lane partial-sum reduction (a single running sum is a serial
/// add chain whose latency dominates the loop at ~10⁵ parameters);
/// everything downstream of the per-example gradients is deterministic with
/// a fixed chunk and fold order, so f32 results are still bit-identical
/// across thread counts, just not to the f64 oracle.
///
/// The `backend` handle routes every per-example gradient gemm (both
/// precisions) through the selected compute backend; it is resolved once
/// per training run, so no dynamic dispatch sits inside the chunk loop. On
/// [`Backend::native`] results are the oracle's; other backends are
/// tolerance-equivalent only.
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
    assert_eq!(xs.len(), ys.len(), "clip_loop_mode: length mismatch");
    let bound = clipping.total_bound();
    match compute {
        ComputeMode::F64 => stream_clip(model, backend, xs, ys, bound, pool, |row, sum| {
            let pre_norm = clipping.clip(row, layout);
            axpy(1.0, row, sum);
            pre_norm
        }),
        ComputeMode::F32 => {
            let narrowed = model.cast::<f32>();
            stream_clip(&narrowed, backend, xs, ys, bound, pool, |row, sum| {
                clip_add_widened(clipping, row, layout, sum)
            })
        }
    }
}

/// The precision-generic body of [`clip_loop_mode`]: streams each chunk's
/// per-example `(loss, row)` pairs out of `model`'s row visitor, reusing
/// the row buffer; `clip_add` clips one row into the chunk's partial sum
/// and returns its pre-clip norm.
fn stream_clip<E: Elem>(
    model: &Sequential<E>,
    backend: Backend,
    xs: &[Tensor],
    ys: &[usize],
    bound: f64,
    pool: Option<&ThreadPool>,
    clip_add: impl Fn(&mut [E], &mut [f64]) -> f64 + Sync,
) -> ClipLoopOutput {
    let dim = model.param_count();
    let run_chunk = |(start, end): (usize, usize), row: &mut [E], partial: &mut ClipLoopOutput| {
        let _chunk_span = obs::span(obs::names::CLIP_CHUNK_SPAN);
        let mut losses = Vec::with_capacity(CLIP_CHUNK);
        let (xs, ys) = (&xs[start..end], &ys[start..end]);
        model.visit_example_grads_on(backend, xs, ys, row, |loss, row| {
            losses.push(loss);
            if clip_add(row, &mut partial.clean_sum) <= bound {
                partial.unclipped += 1;
            }
        });
        partial.loss_total = losses.iter().sum();
    };
    let ranges = chunk_ranges(xs.len());
    let mut out = ClipLoopOutput::zero(dim);
    match pool {
        Some(pool) if ranges.len() > 1 => {
            let partials: Vec<ClipLoopOutput> = pool.install(|| {
                ranges
                    .into_par_iter()
                    .map(|range| {
                        let mut row = vec![E::ZERO; dim];
                        let mut partial = ClipLoopOutput::zero(dim);
                        run_chunk(range, &mut row, &mut partial);
                        partial
                    })
                    .collect()
            });
            for partial in &partials {
                out.fold(partial);
            }
        }
        _ => {
            let mut row = vec![E::ZERO; dim];
            let mut partial = ClipLoopOutput::zero(dim);
            for range in ranges {
                partial.clean_sum.fill(0.0);
                partial.unclipped = 0;
                run_chunk(range, &mut row, &mut partial);
                out.fold(&partial);
            }
        }
    }
    out
}

/// Clip one f32 gradient row against `clipping` and add it into the f64
/// `clean_sum`, widening each value on the fly — the f32-mode fusion of
/// [`ClippingStrategy::clip`] + `axpy`. Returns the pre-clip norm.
///
/// The semantics match the f64 path (`g ← g · min(1, C/‖g‖)` per flat or
/// per-layer segment, pre-clip *total* norm returned); only the reduction
/// order of the norm differs, which the f32 mode's tolerance contract
/// permits.
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
            assert_eq!(
                cs.len(),
                layout.len(),
                "clip_add_widened: {} norms for {} layers",
                cs.len(),
                layout.len()
            );
            assert_eq!(
                layout.iter().sum::<usize>(),
                row.len(),
                "clip_add_widened: layout does not cover the gradient"
            );
            let pre = l2_norm_widened(row);
            let mut off = 0;
            for (&c, &len) in cs.iter().zip(layout) {
                let seg = &row[off..off + len];
                axpy_widened(
                    factor(l2_norm_widened(seg), c),
                    seg,
                    &mut clean_sum[off..off + len],
                );
                off += len;
            }
            pre
        }
    }
}

/// ‖row‖ with each f32 widened to f64 as it is read, accumulated across
/// eight fixed partial sums. A single running sum is a serial add chain —
/// at ~10⁵ parameters its latency dominates the whole f32 clip loop — while
/// eight independent lanes vectorise. The lane count is a constant of the
/// algorithm, so the result does not depend on the thread count.
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

/// `sum[i] += factor · f64::from(row[i])` — the widening fused scale-add.
fn axpy_widened(factor: f64, row: &[f32], sum: &mut [f64]) {
    for (s, &g) in sum.iter_mut().zip(row) {
        *s += factor * f64::from(g);
    }
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
    use dpaudit_nn::{Dense, Layer};

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

    /// The f64 oracle clip loop on the native backend.
    fn clip_loop(
        model: &Sequential,
        xs: &[Tensor],
        ys: &[usize],
        clipping: &ClippingStrategy,
        layout: &[usize],
        pool: Option<&ThreadPool>,
    ) -> ClipLoopOutput {
        clip_loop_mode(
            model,
            xs,
            ys,
            clipping,
            layout,
            pool,
            ComputeMode::F64,
            Backend::native(),
        )
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
        let out = clip_loop(&model, &xs, &ys, &clipping, &layout, None);

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
    fn clip_loop_is_bit_identical_across_thread_counts() {
        let (model, xs, ys) = setup(CLIP_CHUNK * 3 + 2);
        let clipping = ClippingStrategy::Flat(0.5);
        let layout = model.param_layout();
        let serial = clip_loop(&model, &xs, &ys, &clipping, &layout, None);
        for threads in [2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel = clip_loop(&model, &xs, &ys, &clipping, &layout, Some(&pool));
            assert_eq!(parallel.unclipped, serial.unclipped);
            assert_eq!(parallel.loss_total.to_bits(), serial.loss_total.to_bits());
            for (a, e) in parallel.clean_sum.iter().zip(&serial.clean_sum) {
                assert_eq!(a.to_bits(), e.to_bits());
            }
        }
    }

    #[test]
    fn f32_mode_matches_f64_within_tolerance() {
        let (model, xs, ys) = setup(CLIP_CHUNK * 2 + 3);
        let clipping = ClippingStrategy::Flat(0.7);
        let layout = model.param_layout();
        let oracle = clip_loop(&model, &xs, &ys, &clipping, &layout, None);
        let f32_out = clip_loop_mode(
            &model,
            &xs,
            &ys,
            &clipping,
            &layout,
            None,
            ComputeMode::F32,
            Backend::native(),
        );
        assert!((oracle.loss_total - f32_out.loss_total).abs() < 1e-3 * xs.len() as f64);
        for (i, (a, b)) in oracle.clean_sum.iter().zip(&f32_out.clean_sum).enumerate() {
            let tol = 1e-4 * xs.len() as f64 + 1e-3 * a.abs();
            assert!((a - b).abs() < tol, "clean_sum[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn f32_mode_is_bit_identical_across_thread_counts() {
        let (model, xs, ys) = setup(CLIP_CHUNK * 3 + 2);
        let clipping = ClippingStrategy::Flat(0.5);
        let layout = model.param_layout();
        let serial = clip_loop_mode(
            &model,
            &xs,
            &ys,
            &clipping,
            &layout,
            None,
            ComputeMode::F32,
            Backend::native(),
        );
        for threads in [2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let parallel = clip_loop_mode(
                &model,
                &xs,
                &ys,
                &clipping,
                &layout,
                Some(&pool),
                ComputeMode::F32,
                Backend::native(),
            );
            assert_eq!(parallel.unclipped, serial.unclipped);
            assert_eq!(parallel.loss_total.to_bits(), serial.loss_total.to_bits());
            for (a, e) in parallel.clean_sum.iter().zip(&serial.clean_sum) {
                assert_eq!(a.to_bits(), e.to_bits());
            }
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
        let layout = model.param_layout();
        let blas = Backend::resolve("blas").unwrap();
        for compute in [ComputeMode::F64, ComputeMode::F32] {
            let oracle = clip_loop_mode(
                &model,
                &xs,
                &ys,
                &clipping,
                &layout,
                None,
                compute,
                Backend::native(),
            );
            let out = clip_loop_mode(&model, &xs, &ys, &clipping, &layout, None, compute, blas);
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
        let layout = model.param_layout();
        let out = clip_loop(&model, &xs, &ys, &clipping, &layout, None);
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
