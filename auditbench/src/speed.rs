//! Machine-speed probe for rescaling wall times to a reference speed.
//!
//! On a shared machine the speed of the same code drifts by ±15% over
//! minutes as other tenants load the caches and memory bus, which swamps
//! the differences between two versions of the program. The benchmark
//! therefore times a fixed amount of its own floating-point work — a naive
//! matrix product with a cache footprint like a trial's gemms — right
//! before each measured set-up or session, on as many threads as the
//! measured work uses, and rescales the run's median measurement by the
//! run's median probe time over [`REFERENCE`]. The program never runs this
//! code, so a change to the program cannot move the probe.

use std::time::{Duration, Instant};

/// Matrix side of the probe's product (three 300×300 f64 matrices, about
/// 2 MB per thread).
const SIDE: usize = 300;
/// Products per thread in one probe.
const REPS: usize = 32;

/// Probe time, per thread count, of a quiet reference machine: 1 and 2
/// threads. Rescaled figures read as if every probe had taken this long.
pub const REFERENCE: [Duration; 2] = [Duration::from_millis(300), Duration::from_millis(320)];

/// The fixed work: `reps` products `C += A·B` of `side`-sided matrices.
/// Returns the sum of `C`, so the work cannot be optimised away.
pub fn work(side: usize, reps: usize) -> f64 {
    let a: Vec<f64> = (0..side * side).map(|i| (i % 7) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..side * side).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut c = vec![0.0; side * side];
    for _ in 0..reps {
        for (a_row, c_row) in a.chunks_exact(side).zip(c.chunks_exact_mut(side)) {
            for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(side)) {
                for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                    *cij += aik * bkj;
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    c.iter().sum()
}

/// Time one probe: `threads` threads each doing the fixed work at once.
pub fn probe(threads: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| std::hint::black_box(work(std::hint::black_box(SIDE), REPS)));
        }
    });
    start.elapsed()
}

/// The reference probe time for `threads` threads (the two-thread figure
/// for more).
pub fn reference(threads: usize) -> Duration {
    REFERENCE[threads.clamp(1, 2) - 1]
}
