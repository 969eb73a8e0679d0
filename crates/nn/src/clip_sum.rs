//! The fused per-example clip-and-sum pass behind the DPSGD clip loop.
//!
//! [`Sequential::clip_sum_on`] adds the clipped per-example gradients of a
//! batch into a sum — with exactly the bits of writing each example's flat
//! gradient row ([`Sequential::per_example_grads_on`]), clipping it in
//! place and adding it in — without writing any row. After the shared
//! forward, loss and delta pass it walks the parameterised layers in flat
//! parameter order twice per group of 16 examples:
//!
//! 1. **Norms.** Every gradient value is squared into per-example
//!    accumulators that run side by side, one vector lane per example. Each
//!    example keeps its own chain in flat-index order, in the reduction
//!    [`Elem::NORM_LANES`] defines (one serial chain at f64; eight lanes by
//!    index mod 8 plus a serial tail at f32), so every norm carries the bits
//!    of the materialised row's. Per-layer clipping runs the same again per
//!    segment, with segment-local indices.
//! 2. **Sum.** Each value `v` is added as `fl(v·s_e)`, element by element
//!    with examples in order, where `s_e` is `C/‖g‖` for a clipped example
//!    and 1 otherwise (`v·1` is exact) — the per-element addition chain of
//!    adding the clipped rows one after another.
//!
//! Dense values `δ_e[o]·x_e[j]` and the bias terms `δ_e[o]` are recomputed
//! in both walks from the layer's input and delta; convolution and
//! batch-norm segments are small (≤ 1,168 values in the MNIST CNN), so their
//! per-example kernels write them into a `[GROUP, segment]` scratch once.
//!
//! The walks are plain IEEE multiplies and adds with no reassociation and no
//! fused multiply–add, so the compiler's vectorisation cannot change a bit.
//! On x86-64 they are also compiled for AVX2 and taken when
//! [`dpaudit_tensor::simd_enabled`] says so (runtime-detected, pinned off by
//! `DPAUDIT_FORCE_SCALAR`); the baseline build is the bit-identical
//! fallback.

use std::marker::PhantomData;
use std::ops::Range;

use dpaudit_tensor::{Backend, Elem, Tensor};

use crate::layers::{BatchCache, Layer};
use crate::model::{param_segments, Sequential};

/// Examples whose norms accumulate side by side, one vector lane each. A
/// vector width, not a constant of the result: every example's chains and
/// every element's addition order are the same at any width.
const GROUP: usize = 16;

/// Input columns per block of the dense sum walk: the group's slices of a
/// block (16 × 128 values) stay in L1 across the layer's output rows.
const SUM_BLOCK: usize = 128;

/// How [`Sequential::clip_sum_on`] bounds each example's gradient row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowClip<'a> {
    /// Scale the whole flat row to ℓ2 norm at most `C`.
    Flat(f64),
    /// Scale each parameterised layer's segment of the row
    /// ([`Sequential::param_layout`] order) to its own bound.
    PerLayer(&'a [f64]),
}

impl<E: Elem> Sequential<E> {
    /// Clip every example's flat parameter gradient and add it into `sum`,
    /// without materialising any gradient row (see the module docs of
    /// [`crate::clip_sum`]). Returns the per-example losses and pre-clip
    /// whole-row norms, in example order.
    ///
    /// The result is bit-identical to taking each row of
    /// [`Sequential::per_example_grads_on`], widening it to f64, scaling it
    /// by `min(1, C/‖g‖)` (per segment under [`RowClip::PerLayer`]) and
    /// adding the rows into `sum` one after another — with the norm of
    /// [`Elem::NORM_LANES`], which at f64 is `Σ g²` in flat order.
    ///
    /// # Panics
    /// Panics on an empty batch, a length mismatch, a `sum` that is not
    /// [`Sequential::param_count`] long, or a per-layer bound count that is
    /// not the number of parameterised layers.
    pub fn clip_sum_on(
        &self,
        backend: Backend,
        xs: &[Tensor],
        labels: &[usize],
        clip: RowClip<'_>,
        sum: &mut [f64],
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(
            sum.len(),
            self.param_count(),
            "clip_sum_on: sum must hold one gradient"
        );
        if let RowClip::PerLayer(bounds) = clip {
            let layers = self.param_layout().len();
            assert_eq!(
                bounds.len(),
                layers,
                "clip_sum_on: {} norms for {layers} layers",
                bounds.len()
            );
        }
        let pass = self.batch_deltas_on(backend, xs, labels);
        let segments = param_segments(self.layers.iter().map(Layer::param_count));
        let params: Vec<ParamLayer<'_, E>> = self
            .layers
            .iter()
            .zip(&pass.caches)
            .zip(&pass.deltas)
            .zip(segments)
            .filter_map(|(((layer, cache), delta), segment)| {
                delta.as_ref().map(|delta| ParamLayer {
                    layer,
                    cache,
                    delta,
                    segment,
                })
            })
            .collect();
        let ranges: Vec<Range<usize>> = params.iter().map(|p| p.segment.clone()).collect();
        let batch = xs.len();
        let mut norms = Vec::with_capacity(batch);
        for start in (0..batch).step_by(GROUP) {
            let group = start..usize::min(start + GROUP, batch);
            let sources: Vec<Source<'_, E>> = params
                .iter()
                .map(|p| Source::new(backend, p, group.clone(), batch))
                .collect();
            let group_norms = clip_sum_group(&sources, &ranges, group.len(), clip, sum);
            norms.extend_from_slice(&group_norms[..group.len()]);
        }
        (pass.losses, norms)
    }
}

/// One parameterised layer of a finished delta pass.
struct ParamLayer<'a, E> {
    layer: &'a Layer<E>,
    cache: &'a BatchCache<E>,
    delta: &'a Tensor<E>,
    segment: Range<usize>,
}

/// Where one layer's gradient values come from for one group of examples.
enum Source<'a, E> {
    /// A dense layer's `[dW | db]` as products of its input and delta.
    Dense {
        /// The group's `[len, in_f]` input rows.
        input: &'a [E],
        /// The group's `[len, out_f]` delta rows.
        delta: &'a [E],
        /// The input transposed to `[in_f][GROUP]`, zero-padded.
        input_t: Vec<[E; GROUP]>,
        /// The delta transposed to `[out_f][GROUP]`, zero-padded.
        delta_t: Vec<[E; GROUP]>,
    },
    /// Any other layer's segment, written per example by its kernel into a
    /// zero-padded `[GROUP, segment]` scratch.
    Rows(Vec<E>),
}

impl<'a, E: Elem> Source<'a, E> {
    fn new(backend: Backend, p: &ParamLayer<'a, E>, group: Range<usize>, batch: usize) -> Self {
        match (p.layer, p.cache) {
            (Layer::Dense(_), BatchCache::Dense { input }) => {
                let rows = |data: &'a [E]| {
                    let width = data.len() / batch;
                    (&data[group.start * width..group.end * width], width)
                };
                let (input, in_f) = rows(input.data());
                let (delta, out_f) = rows(p.delta.data());
                Source::Dense {
                    input,
                    delta,
                    input_t: transpose(input, in_f),
                    delta_t: transpose(delta, out_f),
                }
            }
            _ => {
                let len = p.segment.len();
                let mut rows = vec![E::ZERO; GROUP * len];
                for (ex, row) in group.zip(rows.chunks_exact_mut(len)) {
                    p.layer
                        .write_param_grad_on(backend, p.delta, p.cache, ex, row);
                }
                Source::Rows(rows)
            }
        }
    }

    /// Square every value of the segment into `acc`, the segment starting
    /// at row position `start`.
    #[inline(always)]
    fn add_squares(&self, acc: &mut SqNorms<E>, start: usize) {
        match self {
            Source::Dense {
                input_t, delta_t, ..
            } => {
                let in_f = input_t.len();
                for (o, d) in delta_t.iter().enumerate() {
                    acc.add_run(start + o * in_f, in_f, |j| {
                        let x = &input_t[j];
                        std::array::from_fn(|e| (d[e] * x[e]).to_f64())
                    });
                }
                acc.add_run(start + delta_t.len() * in_f, delta_t.len(), |o| {
                    std::array::from_fn(|e| delta_t[o][e].to_f64())
                });
            }
            Source::Rows(rows) => {
                let len = rows.len() / GROUP;
                acc.add_run(start, len, |j| {
                    std::array::from_fn(|e| rows[e * len + j].to_f64())
                });
            }
        }
    }

    /// Add every value of the group's examples, scaled by its example's
    /// `scales[e]`, into the layer's segment `sum` — element by element,
    /// examples in order.
    #[inline(always)]
    fn add_scaled(&self, scales: &[f64], sum: &mut [f64]) {
        match self {
            Source::Dense {
                input,
                delta,
                input_t,
                delta_t,
            } => {
                let (in_f, out_f) = (input_t.len(), delta_t.len());
                let (d_w, d_b) = sum.split_at_mut(out_f * in_f);
                // Column blocks keep the group's input slices in L1 while
                // every output row passes over them.
                for cols in (0..in_f).step_by(SUM_BLOCK) {
                    let cols = cols..usize::min(cols + SUM_BLOCK, in_f);
                    for (o, dst) in d_w.chunks_exact_mut(in_f).enumerate() {
                        let dst = &mut dst[cols.clone()];
                        for ((&s, x), d) in scales
                            .iter()
                            .zip(input.chunks_exact(in_f))
                            .zip(delta.chunks_exact(out_f))
                        {
                            let dv = d[o];
                            for (t, &xv) in dst.iter_mut().zip(&x[cols.clone()]) {
                                *t += (dv * xv).to_f64() * s;
                            }
                        }
                    }
                }
                for (&s, d) in scales.iter().zip(delta.chunks_exact(out_f)) {
                    for (t, &dv) in d_b.iter_mut().zip(d) {
                        *t += dv.to_f64() * s;
                    }
                }
            }
            Source::Rows(rows) => {
                for (&s, row) in scales.iter().zip(rows.chunks_exact(sum.len())) {
                    for (t, &v) in sum.iter_mut().zip(row) {
                        *t += v.to_f64() * s;
                    }
                }
            }
        }
    }
}

/// `[len, width]` rows transposed to `width` columns of [`GROUP`] lanes,
/// lanes past `len` zero.
fn transpose<E: Elem>(rows: &[E], width: usize) -> Vec<[E; GROUP]> {
    let mut cols = vec![[E::ZERO; GROUP]; width];
    for (e, row) in rows.chunks_exact(width).enumerate() {
        for (col, &v) in cols.iter_mut().zip(row) {
            col[e] = v;
        }
    }
    cols
}

/// Both walks over one group of `examples` examples: norms, scales, then
/// the scaled sum into the layers' `ranges` of `sum`. Returns the group's
/// pre-clip whole-row norms (lanes past the group are padding).
fn clip_sum_group<E: Elem>(
    sources: &[Source<'_, E>],
    ranges: &[Range<usize>],
    examples: usize,
    clip: RowClip<'_>,
    sum: &mut [f64],
) -> [f64; GROUP] {
    #[cfg(target_arch = "x86_64")]
    if dpaudit_tensor::simd_enabled() {
        // SAFETY: on x86-64, `simd_enabled` is true only after runtime
        // detection has confirmed AVX2 on this CPU.
        return unsafe { clip_sum_group_avx2(sources, ranges, examples, clip, sum) };
    }
    clip_sum_group_body(sources, ranges, examples, clip, sum)
}

/// [`clip_sum_group_body`] compiled for AVX2: the same operations on wider
/// vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn clip_sum_group_avx2<E: Elem>(
    sources: &[Source<'_, E>],
    ranges: &[Range<usize>],
    examples: usize,
    clip: RowClip<'_>,
    sum: &mut [f64],
) -> [f64; GROUP] {
    clip_sum_group_body(sources, ranges, examples, clip, sum)
}

#[inline(always)]
fn clip_sum_group_body<E: Elem>(
    sources: &[Source<'_, E>],
    ranges: &[Range<usize>],
    examples: usize,
    clip: RowClip<'_>,
    sum: &mut [f64],
) -> [f64; GROUP] {
    let mut whole = SqNorms::<E>::new(sum.len());
    let mut scales = Vec::with_capacity(sources.len());
    for (layer, (source, range)) in sources.iter().zip(ranges).enumerate() {
        source.add_squares(&mut whole, range.start);
        if let RowClip::PerLayer(bounds) = clip {
            let mut segment = SqNorms::<E>::new(range.len());
            source.add_squares(&mut segment, 0);
            scales.push(clip_scales(&segment.norms(), bounds[layer]));
        }
    }
    let norms = whole.norms();
    if let RowClip::Flat(bound) = clip {
        scales.resize(sources.len(), clip_scales(&norms, bound));
    }
    for ((source, range), scales) in sources.iter().zip(ranges).zip(&scales) {
        source.add_scaled(&scales[..examples], &mut sum[range.clone()]);
    }
    norms
}

/// The clip factor of each lane: `C/‖g‖` when the norm exceeds the bound,
/// else exactly 1 (a NaN norm is not clipped).
fn clip_scales(norms: &[f64; GROUP], bound: f64) -> [f64; GROUP] {
    norms.map(|norm| if norm > bound { bound / norm } else { 1.0 })
}

/// Per-example sums of squares over one row (or segment) of a group of
/// examples, side by side: position `i` adds into lane `i mod L`
/// ([`Elem::NORM_LANES`]), except the last `len mod L` positions, which
/// share a serial tail.
struct SqNorms<E> {
    lanes: Vec<[f64; GROUP]>,
    tail: [f64; GROUP],
    tail_start: usize,
    elem: PhantomData<E>,
}

impl<E: Elem> SqNorms<E> {
    fn new(len: usize) -> Self {
        SqNorms {
            lanes: vec![[0.0; GROUP]; E::NORM_LANES],
            tail: [0.0; GROUP],
            tail_start: len - len % E::NORM_LANES,
            elem: PhantomData,
        }
    }

    /// Square the positions `start..start + len` in; `value(k)` returns the
    /// group's widened values at position `start + k`.
    #[inline(always)]
    fn add_run(&mut self, start: usize, len: usize, mut value: impl FnMut(usize) -> [f64; GROUP]) {
        let split = self.tail_start.saturating_sub(start).min(len);
        if E::NORM_LANES == 1 {
            let mut acc = self.lanes[0];
            for k in 0..split {
                add_squares(&mut acc, value(k));
            }
            self.lanes[0] = acc;
        } else {
            let mut lane = start % E::NORM_LANES;
            for k in 0..split {
                add_squares(&mut self.lanes[lane], value(k));
                lane += 1;
                if lane == E::NORM_LANES {
                    lane = 0;
                }
            }
        }
        let mut tail = self.tail;
        for k in split..len {
            add_squares(&mut tail, value(k));
        }
        self.tail = tail;
    }

    /// `√(Σ lanes + tail)` per example, the lanes summed in order.
    fn norms(&self) -> [f64; GROUP] {
        std::array::from_fn(|e| {
            let lanes: f64 = self.lanes.iter().map(|lane| lane[e]).sum();
            (lanes + self.tail[e]).sqrt()
        })
    }
}

#[inline(always)]
fn add_squares(acc: &mut [f64; GROUP], values: [f64; GROUP]) {
    for (a, v) in acc.iter_mut().zip(values) {
        *a += v * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::purchase_mlp;
    use dpaudit_math::seeded_rng;
    use rand::Rng;

    /// The row oracle at f64: every row of the collector clipped in place
    /// (flat or per segment) and added in example order.
    fn row_oracle(
        model: &Sequential,
        xs: &[Tensor],
        ys: &[usize],
        bounds: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let dim = model.param_count();
        let layout = model.param_layout();
        let (losses, grads) = model.per_example_grads_on(Backend::native(), xs, ys);
        // (start, length, bound) of every clipped segment.
        let segments: Vec<(usize, usize, f64)> = match bounds {
            [c] => vec![(0, dim, *c)],
            _ => layout
                .iter()
                .scan(0, |off, &len| {
                    *off += len;
                    Some((*off - len, len))
                })
                .zip(bounds)
                .map(|((start, len), &c)| (start, len, c))
                .collect(),
        };
        let norm = |g: &[f64]| g.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut sum = vec![0.0; dim];
        let mut norms = Vec::new();
        for row in grads.data().chunks_exact(dim) {
            norms.push(norm(row));
            for &(start, len, c) in &segments {
                let segment = &row[start..start + len];
                let n = norm(segment);
                let scale = if n > c { c / n } else { 1.0 };
                for (t, &g) in sum[start..start + len].iter_mut().zip(segment) {
                    *t += 1.0 * (g * scale);
                }
            }
        }
        (losses, norms, sum)
    }

    /// One call spanning several example groups (and a ragged last group)
    /// matches the row oracle bit for bit — the clip loop only ever passes
    /// one group, so this pins the group loop itself.
    #[test]
    fn multi_group_call_matches_row_oracle_bitwise() {
        let model = purchase_mlp(&mut seeded_rng(1));
        let mut rng = seeded_rng(2);
        let n = 2 * GROUP + 3;
        let xs: Vec<Tensor> = (0..n)
            .map(|_| Tensor::from_vec(&[600], (0..600).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        let ys: Vec<usize> = (0..n).map(|i| (i * 13) % 100).collect();
        for bounds in [vec![0.5], vec![0.05, 2.0]] {
            let clip = match bounds[..] {
                [c] => RowClip::Flat(c),
                _ => RowClip::PerLayer(&bounds),
            };
            let (losses, norms, expect) = row_oracle(&model, &xs, &ys, &bounds);
            let mut sum = vec![0.0; model.param_count()];
            let (got_losses, got_norms) =
                model.clip_sum_on(Backend::native(), &xs, &ys, clip, &mut sum);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got_losses), bits(&losses));
            assert_eq!(bits(&got_norms), bits(&norms));
            assert_eq!(bits(&sum), bits(&expect), "{clip:?}");
        }
    }
}
