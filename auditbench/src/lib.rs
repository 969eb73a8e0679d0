//! Trial-level audit benchmark for the `dpaudit` workspace.
//!
//! `src/main.rs` runs whole store-backed Exp^DI audits through the same
//! library path as `dpaudit audit run` and prints end-to-end metrics
//! (untraced) or per-layer metrics (traced). The modules here hold the
//! parts with arithmetic worth testing on their own. `METRICS.md` lists
//! every metric.

pub mod audit;
pub mod flops;
pub mod speed;
pub mod stats;
pub mod trace;
pub mod workloads;
