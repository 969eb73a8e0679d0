//! The element types the compute kernels are generic over.
//!
//! The pipeline has two numeric modes: `f64` everywhere (the default, and
//! the determinism oracle every other configuration is compared against)
//! and an `f32` storage mode that halves the memory traffic of the batched
//! per-example gradient buffers. Kernels that must exist for both types are
//! written once against [`Elem`]; the trait's gemm hooks route each type to
//! its own method of a [`Backend`].

use crate::backend::Backend;

/// A kernel element type: `f64` or `f32`.
///
/// The arithmetic bounds are the plain IEEE operations — implementations
/// must not introduce fused multiply–adds or reordered reductions, so the
/// per-element accumulation-chain contract of the kernels (seed from C, add
/// `a·b` terms in ascending `k` order) holds for every element type.
pub trait Elem:
    Copy
    + PartialOrd
    + Send
    + Sync
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// Negative infinity — the seed of max-reductions (pooling).
    const NEG_INFINITY: Self;
    /// Partial-sum lanes of a per-example gradient norm at this precision:
    /// position `i` of a row adds its widened square into lane `i mod L`,
    /// except the last `len mod L` positions, which share one serial tail;
    /// the norm is `√(Σ lanes + tail)`. `1` for f64 (one serial chain in
    /// flat order, exactly `Σ g²`), `8` for f32 (one serial chain is the
    /// latency bottleneck of the widened norm at ~10⁵ parameters). A
    /// constant of the algorithm, never of the hardware or thread count.
    const NORM_LANES: usize;

    /// Lossy conversion from `f64` (rounds to nearest for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact for `f32`).
    fn to_f64(self) -> f64;

    /// `C += A·B` through a [`Backend`] handle, for this element type.
    fn matmul_acc_on(
        backend: Backend,
        c: &mut [Self],
        a: &[Self],
        b: &[Self],
        m: usize,
        k: usize,
        n: usize,
    );
    /// `C += A·Bᵀ` through a [`Backend`] handle, for this element type.
    fn matmul_nt_acc_on(
        backend: Backend,
        c: &mut [Self],
        a: &[Self],
        b: &[Self],
        m: usize,
        k: usize,
        n: usize,
    );
}

impl Elem for f64 {
    const ZERO: Self = 0.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const NORM_LANES: usize = 1;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn matmul_acc_on(
        backend: Backend,
        c: &mut [Self],
        a: &[Self],
        b: &[Self],
        m: usize,
        k: usize,
        n: usize,
    ) {
        backend.matmul_acc_f64(c, a, b, m, k, n);
    }

    #[inline]
    fn matmul_nt_acc_on(
        backend: Backend,
        c: &mut [Self],
        a: &[Self],
        b: &[Self],
        m: usize,
        k: usize,
        n: usize,
    ) {
        backend.matmul_nt_acc_f64(c, a, b, m, k, n);
    }
}

impl Elem for f32 {
    const ZERO: Self = 0.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const NORM_LANES: usize = 8;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn matmul_acc_on(
        backend: Backend,
        c: &mut [Self],
        a: &[Self],
        b: &[Self],
        m: usize,
        k: usize,
        n: usize,
    ) {
        backend.matmul_acc_f32(c, a, b, m, k, n);
    }

    #[inline]
    fn matmul_nt_acc_on(
        backend: Backend,
        c: &mut [Self],
        a: &[Self],
        b: &[Self],
        m: usize,
        k: usize,
        n: usize,
    ) {
        backend.matmul_nt_acc_f32(c, a, b, m, k, n);
    }
}
