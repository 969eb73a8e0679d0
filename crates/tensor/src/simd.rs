//! Explicit-SIMD microkernels behind the gemm entry points, with runtime
//! dispatch and the scalar register tiles as the universal fallback.
//!
//! The kernels vectorise the `MR`×`NR` register tiling of [`crate::ops`]
//! across the `NR` output columns of a tile: each k-step broadcasts one `A`
//! element, loads (or gathers, for the `nt` variants) one row-slice of `B`,
//! multiplies, and then adds into the lane accumulators as two separate IEEE
//! operations — **no FMA contraction**. Because every output element still
//! receives its `a·b` terms in ascending `k` order starting from the
//! incoming `C` value, and lane-wise `_mm256_mul_pd`/`_mm256_add_pd` (and
//! the NEON equivalents) are the same IEEE-754 operations the scalar tiles
//! perform, the f64 SIMD path is bit-identical to the scalar oracle on
//! every shape — edge tiles are delegated to the shared scalar edge chains.
//!
//! Dispatch is decided once per process: AVX2 on x86_64 (runtime-detected),
//! NEON on aarch64 (baseline), scalar everywhere else. `DPAUDIT_FORCE_SCALAR=1`
//! in the environment — or [`set_force_scalar`] at runtime — pins the scalar
//! tiles, which CI uses to diff scalar-vs-SIMD audit reports byte for byte.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Runtime override pinning the scalar tiles (see [`set_force_scalar`]).
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// `DPAUDIT_FORCE_SCALAR` read once per process.
static ENV_FORCE_SCALAR: OnceLock<bool> = OnceLock::new();

/// Hardware capability, detected once per process.
static HAS_SIMD: OnceLock<bool> = OnceLock::new();

/// Pin (or unpin) the scalar reference tiles at runtime, overriding SIMD
/// dispatch process-wide. Results are unaffected on the f64 path — the SIMD
/// kernels are bit-identical to the scalar tiles — so this knob exists for
/// benchmarking the kernel variants against each other and for CI
/// byte-stability checks.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

fn env_force_scalar() -> bool {
    *ENV_FORCE_SCALAR.get_or_init(|| {
        std::env::var("DPAUDIT_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

fn has_simd() -> bool {
    *HAS_SIMD.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(target_arch = "aarch64")]
        return true;
        #[allow(unreachable_code)]
        false
    })
}

/// Whether the dispatched kernels will take the SIMD path: the hardware has
/// it and neither `DPAUDIT_FORCE_SCALAR` nor [`set_force_scalar`] pins the
/// scalar code.
pub fn simd_enabled() -> bool {
    has_simd() && !env_force_scalar() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

/// The kernel backend the gemm entry points currently dispatch to:
/// `"avx2"`, `"neon"`, or `"scalar"`.
pub fn kernel_backend() -> &'static str {
    if !simd_enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    return "avx2";
    #[cfg(target_arch = "aarch64")]
    return "neon";
    #[allow(unreachable_code)]
    "scalar"
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod kernels {
    //! AVX2 microkernels. All are `unsafe` because of the `target_feature`
    //! gate; callers must have confirmed AVX2 via [`super::simd_enabled`].
    use crate::ops::{matmul_acc_edges, matmul_nt_acc_edges, MR};
    use core::arch::x86_64::*;

    /// f64 `C += A·B` tile kernel (4×4 tiles, one `__m256d` per tile row).
    ///
    /// # Safety
    /// Requires AVX2. Buffer lengths must match the dimensions (checked by
    /// the public dispatch wrapper).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn matmul_acc_f64(
        c: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 4;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [
                    _mm256_loadu_pd(c.as_ptr().add(i * n + j)),
                    _mm256_loadu_pd(c.as_ptr().add((i + 1) * n + j)),
                    _mm256_loadu_pd(c.as_ptr().add((i + 2) * n + j)),
                    _mm256_loadu_pd(c.as_ptr().add((i + 3) * n + j)),
                ];
                for l in 0..k {
                    let bv = _mm256_loadu_pd(b.as_ptr().add(l * n + j));
                    for (mi, lane) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_pd(*a.get_unchecked((i + mi) * k + l));
                        // Separate mul + add — no FMA contraction.
                        *lane = _mm256_add_pd(*lane, _mm256_mul_pd(av, bv));
                    }
                }
                for (mi, lane) in acc.iter().enumerate() {
                    _mm256_storeu_pd(c.as_mut_ptr().add((i + mi) * n + j), *lane);
                }
            }
        }
        matmul_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }

    /// f64 `C += A·Bᵀ` tile kernel (strided gather of `B` columns).
    ///
    /// # Safety
    /// Requires AVX2; lengths checked by the dispatch wrapper.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn matmul_nt_acc_f64(
        c: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 4;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [
                    _mm256_loadu_pd(c.as_ptr().add(i * n + j)),
                    _mm256_loadu_pd(c.as_ptr().add((i + 1) * n + j)),
                    _mm256_loadu_pd(c.as_ptr().add((i + 2) * n + j)),
                    _mm256_loadu_pd(c.as_ptr().add((i + 3) * n + j)),
                ];
                for l in 0..k {
                    // `_mm256_set_pd` takes lanes high-to-low.
                    let bv = _mm256_set_pd(
                        *b.get_unchecked((j + 3) * k + l),
                        *b.get_unchecked((j + 2) * k + l),
                        *b.get_unchecked((j + 1) * k + l),
                        *b.get_unchecked(j * k + l),
                    );
                    for (mi, lane) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_pd(*a.get_unchecked((i + mi) * k + l));
                        *lane = _mm256_add_pd(*lane, _mm256_mul_pd(av, bv));
                    }
                }
                for (mi, lane) in acc.iter().enumerate() {
                    _mm256_storeu_pd(c.as_mut_ptr().add((i + mi) * n + j), *lane);
                }
            }
        }
        matmul_nt_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }

    /// f32 `C += A·B` tile kernel (4×8 tiles, one `__m256` per tile row).
    ///
    /// # Safety
    /// Requires AVX2; lengths checked by the dispatch wrapper.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn matmul_acc_f32(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 8;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [
                    _mm256_loadu_ps(c.as_ptr().add(i * n + j)),
                    _mm256_loadu_ps(c.as_ptr().add((i + 1) * n + j)),
                    _mm256_loadu_ps(c.as_ptr().add((i + 2) * n + j)),
                    _mm256_loadu_ps(c.as_ptr().add((i + 3) * n + j)),
                ];
                for l in 0..k {
                    let bv = _mm256_loadu_ps(b.as_ptr().add(l * n + j));
                    for (mi, lane) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*a.get_unchecked((i + mi) * k + l));
                        *lane = _mm256_add_ps(*lane, _mm256_mul_ps(av, bv));
                    }
                }
                for (mi, lane) in acc.iter().enumerate() {
                    _mm256_storeu_ps(c.as_mut_ptr().add((i + mi) * n + j), *lane);
                }
            }
        }
        matmul_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }

    /// f32 `C += A·Bᵀ` tile kernel (strided gather of `B` columns).
    ///
    /// # Safety
    /// Requires AVX2; lengths checked by the dispatch wrapper.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn matmul_nt_acc_f32(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 8;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [
                    _mm256_loadu_ps(c.as_ptr().add(i * n + j)),
                    _mm256_loadu_ps(c.as_ptr().add((i + 1) * n + j)),
                    _mm256_loadu_ps(c.as_ptr().add((i + 2) * n + j)),
                    _mm256_loadu_ps(c.as_ptr().add((i + 3) * n + j)),
                ];
                for l in 0..k {
                    let bv = _mm256_set_ps(
                        *b.get_unchecked((j + 7) * k + l),
                        *b.get_unchecked((j + 6) * k + l),
                        *b.get_unchecked((j + 5) * k + l),
                        *b.get_unchecked((j + 4) * k + l),
                        *b.get_unchecked((j + 3) * k + l),
                        *b.get_unchecked((j + 2) * k + l),
                        *b.get_unchecked((j + 1) * k + l),
                        *b.get_unchecked(j * k + l),
                    );
                    for (mi, lane) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*a.get_unchecked((i + mi) * k + l));
                        *lane = _mm256_add_ps(*lane, _mm256_mul_ps(av, bv));
                    }
                }
                for (mi, lane) in acc.iter().enumerate() {
                    _mm256_storeu_ps(c.as_mut_ptr().add((i + mi) * n + j), *lane);
                }
            }
        }
        matmul_nt_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod kernels {
    //! NEON microkernels (baseline on aarch64). Same tiling and the same
    //! no-FMA accumulation-chain contract as the AVX2 kernels.
    use crate::ops::{matmul_acc_edges, matmul_nt_acc_edges, MR};
    use core::arch::aarch64::*;

    /// f64 `C += A·B` tile kernel (4×4 tiles, two `float64x2_t` per row).
    ///
    /// # Safety
    /// Requires NEON (aarch64 baseline); lengths checked by the wrapper.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn matmul_acc_f64(
        c: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 4;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [[vdupq_n_f64(0.0); 2]; MR];
                for (mi, lanes) in acc.iter_mut().enumerate() {
                    let base = (i + mi) * n + j;
                    lanes[0] = vld1q_f64(c.as_ptr().add(base));
                    lanes[1] = vld1q_f64(c.as_ptr().add(base + 2));
                }
                for l in 0..k {
                    let b0 = vld1q_f64(b.as_ptr().add(l * n + j));
                    let b1 = vld1q_f64(b.as_ptr().add(l * n + j + 2));
                    for (mi, lanes) in acc.iter_mut().enumerate() {
                        let av = vdupq_n_f64(*a.get_unchecked((i + mi) * k + l));
                        // Separate mul + add — no FMA contraction.
                        lanes[0] = vaddq_f64(lanes[0], vmulq_f64(av, b0));
                        lanes[1] = vaddq_f64(lanes[1], vmulq_f64(av, b1));
                    }
                }
                for (mi, lanes) in acc.iter().enumerate() {
                    let base = (i + mi) * n + j;
                    vst1q_f64(c.as_mut_ptr().add(base), lanes[0]);
                    vst1q_f64(c.as_mut_ptr().add(base + 2), lanes[1]);
                }
            }
        }
        matmul_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }

    /// f64 `C += A·Bᵀ` tile kernel (strided gather of `B` columns).
    ///
    /// # Safety
    /// Requires NEON; lengths checked by the wrapper.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn matmul_nt_acc_f64(
        c: &mut [f64],
        a: &[f64],
        b: &[f64],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 4;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [[vdupq_n_f64(0.0); 2]; MR];
                for (mi, lanes) in acc.iter_mut().enumerate() {
                    let base = (i + mi) * n + j;
                    lanes[0] = vld1q_f64(c.as_ptr().add(base));
                    lanes[1] = vld1q_f64(c.as_ptr().add(base + 2));
                }
                for l in 0..k {
                    let g0 = [
                        *b.get_unchecked(j * k + l),
                        *b.get_unchecked((j + 1) * k + l),
                    ];
                    let g1 = [
                        *b.get_unchecked((j + 2) * k + l),
                        *b.get_unchecked((j + 3) * k + l),
                    ];
                    let b0 = vld1q_f64(g0.as_ptr());
                    let b1 = vld1q_f64(g1.as_ptr());
                    for (mi, lanes) in acc.iter_mut().enumerate() {
                        let av = vdupq_n_f64(*a.get_unchecked((i + mi) * k + l));
                        lanes[0] = vaddq_f64(lanes[0], vmulq_f64(av, b0));
                        lanes[1] = vaddq_f64(lanes[1], vmulq_f64(av, b1));
                    }
                }
                for (mi, lanes) in acc.iter().enumerate() {
                    let base = (i + mi) * n + j;
                    vst1q_f64(c.as_mut_ptr().add(base), lanes[0]);
                    vst1q_f64(c.as_mut_ptr().add(base + 2), lanes[1]);
                }
            }
        }
        matmul_nt_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }

    /// f32 `C += A·B` tile kernel (4×4 tiles, one `float32x4_t` per row).
    ///
    /// # Safety
    /// Requires NEON; lengths checked by the wrapper.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn matmul_acc_f32(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 4;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [vdupq_n_f32(0.0); MR];
                for (mi, lane) in acc.iter_mut().enumerate() {
                    *lane = vld1q_f32(c.as_ptr().add((i + mi) * n + j));
                }
                for l in 0..k {
                    let bv = vld1q_f32(b.as_ptr().add(l * n + j));
                    for (mi, lane) in acc.iter_mut().enumerate() {
                        let av = vdupq_n_f32(*a.get_unchecked((i + mi) * k + l));
                        *lane = vaddq_f32(*lane, vmulq_f32(av, bv));
                    }
                }
                for (mi, lane) in acc.iter().enumerate() {
                    vst1q_f32(c.as_mut_ptr().add((i + mi) * n + j), *lane);
                }
            }
        }
        matmul_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }

    /// f32 `C += A·Bᵀ` tile kernel (strided gather of `B` columns).
    ///
    /// # Safety
    /// Requires NEON; lengths checked by the wrapper.
    #[target_feature(enable = "neon")]
    pub(crate) unsafe fn matmul_nt_acc_f32(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        const NR: usize = 4;
        let m_main = m - m % MR;
        let n_main = n - n % NR;
        for i in (0..m_main).step_by(MR) {
            for j in (0..n_main).step_by(NR) {
                let mut acc = [vdupq_n_f32(0.0); MR];
                for (mi, lane) in acc.iter_mut().enumerate() {
                    *lane = vld1q_f32(c.as_ptr().add((i + mi) * n + j));
                }
                for l in 0..k {
                    let g = [
                        *b.get_unchecked(j * k + l),
                        *b.get_unchecked((j + 1) * k + l),
                        *b.get_unchecked((j + 2) * k + l),
                        *b.get_unchecked((j + 3) * k + l),
                    ];
                    let bv = vld1q_f32(g.as_ptr());
                    for (mi, lane) in acc.iter_mut().enumerate() {
                        let av = vdupq_n_f32(*a.get_unchecked((i + mi) * k + l));
                        *lane = vaddq_f32(*lane, vmulq_f32(av, bv));
                    }
                }
                for (mi, lane) in acc.iter().enumerate() {
                    vst1q_f32(c.as_mut_ptr().add((i + mi) * n + j), *lane);
                }
            }
        }
        matmul_nt_acc_edges(c, a, b, m, k, n, m_main, n_main);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_is_consistent_with_force_flag() {
        // Whatever the hardware, forcing scalar must report scalar; the
        // unforced backend is one of the known names.
        let unforced = kernel_backend();
        assert!(["avx2", "neon", "scalar"].contains(&unforced), "{unforced}");
        set_force_scalar(true);
        assert_eq!(kernel_backend(), "scalar");
        set_force_scalar(false);
        assert_eq!(kernel_backend(), unforced);
    }
}
