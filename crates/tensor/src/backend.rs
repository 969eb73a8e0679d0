//! Pluggable compute backends for the gemm-shaped hot path.
//!
//! Everything above the tensor layer (batched layer forward/backward, the
//! per-example gradient pipeline, the clip loop) funnels its matrix products
//! through a [`Backend`] handle. A backend provides exactly the four gemm
//! entry points (`matmul_acc`/`matmul_nt_acc` × f64/f32); nothing else about
//! the pipeline, the `im2col` lowering included, changes per backend.
//!
//! # Determinism contract
//!
//! [`NativeBackend`] — the in-tree scalar-tile kernels with their SIMD
//! dispatch — is the **byte-stability oracle**: it is the default, the only
//! backend covered by the accumulation-chain contract (seed from `C`, add
//! `a·b` terms in ascending `k`, separate mul + add, no FMA), and the backend
//! every bit-identity test pins. Other backends (e.g. `BlasBackend`, behind
//! the `blas` feature) are
//! free to use a different summation tree, so they are only
//! *tolerance-equivalent* to the oracle and must be opted into per run; runs
//! record which backend produced them so stores are never silently mixed.
//!
//! # Dispatch cost
//!
//! The handle is a `Copy` pointer to a static, resolved **once per trial** —
//! the virtual call sits at the granularity of a whole gemm (`O(m·k·n)`
//! work), never inside an inner loop.

use crate::ops;
use crate::simd::kernel_backend;
use std::fmt;
use std::ops::Deref;

/// A compute backend: the four gemms the batched pipeline dispatches through.
///
/// All gemms accumulate into `c` (`C += op(A)·op(B)`); `m`/`k`/`n` follow the
/// conventions of [`ops::matmul_acc`] and [`ops::matmul_nt_acc`], exact
/// buffer-length checks included.
pub trait ComputeBackend: Send + Sync {
    /// Stable identifier, as stored in run headers (`"native"`, `"blas"`).
    fn name(&self) -> &'static str;

    /// Human-readable capability string for `dpaudit backend list`
    /// (detected SIMD level, BLAS vendor, …).
    fn capabilities(&self) -> String;

    /// `C += A·B` — `a` is `m×k`, `b` is `k×n`, `c` is `m×n`, all row-major.
    fn matmul_acc_f64(&self, c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize);

    /// `C += A·Bᵀ` — `a` is `m×k`, `b` is `n×k`, `c` is `m×n`, all row-major.
    fn matmul_nt_acc_f64(&self, c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize);

    /// Single-precision `C += A·B`.
    fn matmul_acc_f32(&self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize);

    /// Single-precision `C += A·Bᵀ`.
    fn matmul_nt_acc_f32(&self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize);
}

/// A `Copy` handle to a compiled-in backend. Resolve once per trial with
/// [`Backend::resolve`]; pass by value from there down.
#[derive(Clone, Copy)]
pub struct Backend(&'static dyn ComputeBackend);

impl Deref for Backend {
    type Target = dyn ComputeBackend + 'static;

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl fmt::Debug for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Backend").field(&self.0.name()).finish()
    }
}

impl PartialEq for Backend {
    fn eq(&self, other: &Self) -> bool {
        self.0.name() == other.0.name()
    }
}

impl Eq for Backend {}

impl Backend {
    /// The native backend: the determinism oracle and default.
    pub fn native() -> Backend {
        Backend(&NATIVE)
    }

    /// Resolve a backend by its header name.
    ///
    /// Unknown names and backends not compiled into this binary both error;
    /// the latter names the cargo feature that would enable it, so the
    /// message is actionable from a store header alone.
    pub fn resolve(name: &str) -> Result<Backend, String> {
        match name {
            "native" => Ok(Backend::native()),
            #[cfg(feature = "blas")]
            "blas" => Ok(Backend(&BLAS)),
            #[cfg(not(feature = "blas"))]
            "blas" => Err("backend `blas` is not compiled into this binary \
                 (rebuild with `--features blas`)"
                .to_string()),
            other => Err(format!(
                "unknown backend `{other}` (compiled in: {})",
                compiled_names().join(", ")
            )),
        }
    }

    /// Every backend compiled into this binary, native first.
    pub fn compiled() -> Vec<Backend> {
        #[cfg(feature = "blas")]
        {
            vec![Backend::native(), Backend(&BLAS)]
        }
        #[cfg(not(feature = "blas"))]
        {
            vec![Backend::native()]
        }
    }
}

fn compiled_names() -> Vec<&'static str> {
    Backend::compiled().iter().map(|b| b.name()).collect()
}

/// The resolved backend's header name — the backend-level analogue of
/// [`kernel_backend`].
pub fn backend_name(backend: Backend) -> &'static str {
    backend.name()
}

static NATIVE: NativeBackend = NativeBackend;

#[cfg(feature = "blas")]
static BLAS: BlasBackend = BlasBackend;

/// The in-tree kernels: scalar 4×4 tiles with runtime SIMD dispatch
/// (AVX2/NEON microkernels that honour the accumulation-chain contract, so
/// they are bit-identical to the scalar tiles and to each other).
///
/// Delegates to the dispatched [`ops`] entry points, so `DPAUDIT_FORCE_SCALAR`
/// and [`crate::set_force_scalar`] keep working unchanged underneath the
/// backend seam.
pub struct NativeBackend;

impl ComputeBackend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn capabilities(&self) -> String {
        format!(
            "scalar tiles + runtime SIMD dispatch (active kernel: {})",
            kernel_backend()
        )
    }

    fn matmul_acc_f64(&self, c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        ops::matmul_acc(c, a, b, m, k, n);
    }

    fn matmul_nt_acc_f64(&self, c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        ops::matmul_nt_acc(c, a, b, m, k, n);
    }

    fn matmul_acc_f32(&self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        ops::matmul_acc_f32(c, a, b, m, k, n);
    }

    fn matmul_nt_acc_f32(&self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        ops::matmul_nt_acc_f32(c, a, b, m, k, n);
    }
}

/// CBLAS-backed gemms (`dgemm`/`sgemm` with `α=1, β=1`).
///
/// Blocked BLAS kernels sum in a different order than the native chain, so
/// this backend is **not** bitwise-comparable to the oracle — it is gated by
/// the tolerance-equivalence suite and must be opted into per run. CBLAS only
/// bounds buffers from below, so each method runs the native length checks.
#[cfg(feature = "blas")]
pub struct BlasBackend;

#[cfg(feature = "blas")]
impl ComputeBackend for BlasBackend {
    fn name(&self) -> &'static str {
        "blas"
    }

    fn capabilities(&self) -> String {
        format!("CBLAS dgemm/sgemm via {}", cblas::vendor())
    }

    fn matmul_acc_f64(&self, c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        use cblas::{dgemm, Layout, Transpose};
        ops::check_nn(c, a, b, m, k, n);
        dgemm(
            Layout::RowMajor,
            Transpose::None,
            Transpose::None,
            m,
            n,
            k,
            1.0,
            a,
            k.max(1),
            b,
            n.max(1),
            1.0,
            c,
            n.max(1),
        );
    }

    fn matmul_nt_acc_f64(&self, c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        use cblas::{dgemm, Layout, Transpose};
        ops::check_nt(c, a, b, m, k, n);
        dgemm(
            Layout::RowMajor,
            Transpose::None,
            Transpose::Trans,
            m,
            n,
            k,
            1.0,
            a,
            k.max(1),
            b,
            k.max(1),
            1.0,
            c,
            n.max(1),
        );
    }

    fn matmul_acc_f32(&self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        use cblas::{sgemm, Layout, Transpose};
        ops::check_nn(c, a, b, m, k, n);
        sgemm(
            Layout::RowMajor,
            Transpose::None,
            Transpose::None,
            m,
            n,
            k,
            1.0,
            a,
            k.max(1),
            b,
            n.max(1),
            1.0,
            c,
            n.max(1),
        );
    }

    fn matmul_nt_acc_f32(&self, c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        use cblas::{sgemm, Layout, Transpose};
        ops::check_nt(c, a, b, m, k, n);
        sgemm(
            Layout::RowMajor,
            Transpose::None,
            Transpose::Trans,
            m,
            n,
            k,
            1.0,
            a,
            k.max(1),
            b,
            k.max(1),
            1.0,
            c,
            n.max(1),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPES: [(usize, usize, usize); 9] = [
        (1, 1, 1),
        (3, 2, 5),
        (4, 7, 4),
        (5, 3, 6),
        (8, 8, 8),
        (9, 5, 11),
        (12, 4, 16),
        (13, 16, 7),
        (16, 3, 19),
    ];

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn native_resolves_and_is_the_default() {
        let b = Backend::resolve("native").unwrap();
        assert_eq!(b, Backend::native());
        assert_eq!(backend_name(b), "native");
    }

    #[test]
    fn unknown_backend_lists_what_is_compiled_in() {
        let err = Backend::resolve("tpu").unwrap_err();
        assert!(err.contains("unknown backend `tpu`"), "{err}");
        assert!(err.contains("native"), "{err}");
    }

    #[cfg(not(feature = "blas"))]
    #[test]
    fn blas_errors_with_the_enabling_feature_when_not_compiled_in() {
        let err = Backend::resolve("blas").unwrap_err();
        assert!(err.contains("--features blas"), "{err}");
    }

    #[test]
    fn compiled_lists_native_first() {
        let names: Vec<_> = Backend::compiled().iter().map(|b| b.name()).collect();
        assert_eq!(names[0], "native");
    }

    #[test]
    fn native_backend_is_bitwise_the_dispatched_ops() {
        for &(m, k, n) in &SHAPES {
            let a = fill(m * k, 3);
            let b = fill(k * n, 5);
            let seed = fill(m * n, 7);
            let mut via_backend = seed.clone();
            let mut via_ops = seed;
            Backend::native().matmul_acc_f64(&mut via_backend, &a, &b, m, k, n);
            ops::matmul_acc(&mut via_ops, &a, &b, m, k, n);
            assert_eq!(via_backend, via_ops, "({m},{k},{n})");
        }
    }

    #[cfg(feature = "blas")]
    mod blas_tolerance {
        use super::*;

        /// Layer-level equivalence bound vs. the scalar oracle: gemm results
        /// may differ only by reassociation of `k` ≤ 19 products of
        /// unit-scale terms.
        fn close(a: f64, b: f64, k: usize) -> bool {
            (a - b).abs() <= 1e-12 * (k as f64) * (1.0 + a.abs().max(b.abs()))
        }

        #[test]
        fn blas_resolves_when_compiled_in() {
            let b = Backend::resolve("blas").unwrap();
            assert_eq!(b.name(), "blas");
            assert!(
                b.capabilities().contains("rustblas"),
                "{}",
                b.capabilities()
            );
        }

        #[test]
        fn blas_matmul_acc_f64_is_tolerance_equivalent_to_native() {
            let blas = Backend::resolve("blas").unwrap();
            for &(m, k, n) in &SHAPES {
                let a = fill(m * k, 11);
                let b = fill(k * n, 13);
                let seed = fill(m * n, 17);
                let mut got = seed.clone();
                let mut want = seed;
                blas.matmul_acc_f64(&mut got, &a, &b, m, k, n);
                ops::scalar::matmul_acc(&mut want, &a, &b, m, k, n);
                for (g, w) in got.iter().zip(&want) {
                    assert!(close(*g, *w, k), "({m},{k},{n}): got {g}, want {w}");
                }
            }
        }

        #[test]
        fn blas_matmul_nt_acc_f64_is_tolerance_equivalent_to_native() {
            let blas = Backend::resolve("blas").unwrap();
            for &(m, k, n) in &SHAPES {
                let a = fill(m * k, 19);
                let b = fill(n * k, 23);
                let seed = fill(m * n, 29);
                let mut got = seed.clone();
                let mut want = seed;
                blas.matmul_nt_acc_f64(&mut got, &a, &b, m, k, n);
                ops::scalar::matmul_nt_acc(&mut want, &a, &b, m, k, n);
                for (g, w) in got.iter().zip(&want) {
                    assert!(close(*g, *w, k), "({m},{k},{n}): got {g}, want {w}");
                }
            }
        }

        #[test]
        fn blas_f32_gemms_are_tolerance_equivalent_to_native() {
            let blas = Backend::resolve("blas").unwrap();
            for &(m, k, n) in &SHAPES {
                let a: Vec<f32> = fill(m * k, 31).iter().map(|&v| v as f32).collect();
                let b: Vec<f32> = fill(n * k, 37).iter().map(|&v| v as f32).collect();
                let seed: Vec<f32> = fill(m * n, 41).iter().map(|&v| v as f32).collect();
                let mut got = seed.clone();
                let mut want = seed;
                blas.matmul_nt_acc_f32(&mut got, &a, &b, m, k, n);
                ops::scalar::matmul_nt_acc_f32(&mut want, &a, &b, m, k, n);
                for (g, w) in got.iter().zip(&want) {
                    let tol = 1e-5 * (k as f32) * (1.0 + g.abs().max(w.abs()));
                    assert!((g - w).abs() <= tol, "({m},{k},{n}): got {g}, want {w}");
                }
            }
        }

        #[test]
        fn blas_gemm_diverges_bitwise_from_native_on_panel_spanning_k() {
            // With k > one 64-element panel the summation trees genuinely
            // differ; at least one element should flip low-order bits —
            // otherwise the tolerance suite would be testing nothing.
            let blas = Backend::resolve("blas").unwrap();
            let (m, k, n) = (4, 130, 5);
            let a = fill(m * k, 43);
            let b = fill(k * n, 47);
            let seed = fill(m * n, 53);
            let mut via_blas = seed.clone();
            let mut via_native = seed;
            blas.matmul_acc_f64(&mut via_blas, &a, &b, m, k, n);
            Backend::native().matmul_acc_f64(&mut via_native, &a, &b, m, k, n);
            assert_ne!(via_blas, via_native);
        }

        #[test]
        #[should_panic(expected = "matmul: A has wrong length")]
        fn blas_f64_gemm_rejects_an_over_long_operand() {
            let blas = Backend::resolve("blas").unwrap();
            blas.matmul_acc_f64(&mut [0.0; 4], &[0.0; 5], &[0.0; 4], 2, 2, 2);
        }

        #[test]
        #[should_panic(expected = "matmul_nt: C has wrong length")]
        fn blas_f32_gemm_rejects_an_over_long_output() {
            let blas = Backend::resolve("blas").unwrap();
            blas.matmul_nt_acc_f32(&mut [0.0; 5], &[0.0; 4], &[0.0; 4], 2, 2, 2);
        }
    }
}
