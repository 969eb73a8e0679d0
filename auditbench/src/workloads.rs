//! The benchmark's workload table and the store header each workload
//! audits under.
//!
//! Every workload audits the Table-1 row ρ_β = 0.90 with bounded
//! neighbours, local-sensitivity noise scaling, the Gaussian-belief
//! adversary, 30 DPSGD steps, the native gemm backend and summary record
//! detail. They differ in model, training-set size, sampling and precision
//! — see `METRICS.md` for why each was chosen.

use dpaudit_bench::{arm_settings, param_row, Workload};
use dpaudit_core::{AdversaryKind, ChallengeMode, RecordDetail, Sampling};
use dpaudit_dp::{NeighborMode, RdpAccountant};
use dpaudit_dpsgd::{BackendChoice, ComputeMode, SensitivityScaling};
use dpaudit_runtime::{Seed, StoreHeader, SCHEMA_VERSION};

/// The audited Table-1 row.
pub const RHO_BETA: f64 = 0.90;
/// DPSGD steps per trial (the paper's k).
pub const STEPS: usize = 30;

/// One benchmark workload: what the generated store header describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Which reference dataset and model.
    pub workload: Workload,
    /// Training-set size |D|.
    pub train_size: usize,
    /// Full-batch or Poisson-subsampled steps.
    pub sampling: Sampling,
    /// Precision of the per-example gradient pipeline.
    pub compute: ComputeMode,
    /// The DI adversary.
    pub adversary: AdversaryKind,
    /// DPSGD steps per trial.
    pub steps: usize,
}

/// The workload table.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "mnist-full",
        workload: Workload::Mnist,
        train_size: 100,
        sampling: Sampling::FullBatch,
        compute: ComputeMode::F64,
        adversary: AdversaryKind::GaussianBelief,
        steps: STEPS,
    },
    Spec {
        name: "purchase-poisson",
        workload: Workload::Purchase,
        train_size: 200,
        sampling: Sampling::Poisson { q: 0.5 },
        compute: ComputeMode::F64,
        adversary: AdversaryKind::GaussianBelief,
        steps: STEPS,
    },
    Spec {
        name: "purchase-f32",
        workload: Workload::Purchase,
        train_size: 200,
        sampling: Sampling::FullBatch,
        compute: ComputeMode::F32,
        adversary: AdversaryKind::GaussianBelief,
        steps: STEPS,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|spec| spec.name == name)
}

impl Spec {
    /// The store header `dpaudit audit run` would build for this workload
    /// with `--seed seed --reps reps`: world and master seed both `seed`,
    /// and under Poisson sampling the honest subsampled-Gaussian budget as
    /// the audited ε.
    pub fn header(&self, seed: u64, reps: usize) -> StoreHeader {
        let row = param_row(RHO_BETA, self.workload.delta());
        let mut settings = arm_settings(
            &row,
            self.steps,
            SensitivityScaling::Local,
            NeighborMode::Bounded,
            ChallengeMode::RandomBit,
        );
        settings.dpsgd.compute = self.compute;
        settings.dpsgd.backend = BackendChoice::Native;
        settings.adversary = self.adversary;
        settings.sampling = self.sampling;
        let (target_epsilon, rho_beta_bound) = match self.sampling {
            Sampling::FullBatch => (row.epsilon, row.rho_beta),
            Sampling::Poisson { q } => {
                let mut accountant = RdpAccountant::new();
                for _ in 0..self.steps {
                    accountant.add_subsampled_gaussian_step(q, settings.dpsgd.noise_multiplier);
                }
                let (eps, _order) = accountant.epsilon(row.delta);
                (eps, dpaudit_core::rho_beta(eps))
            }
        };
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: format!("auditbench_{}", self.name),
            workload: self.workload.key().to_string(),
            train_size: self.train_size,
            world_seed: Seed(seed),
            reps,
            master_seed: Seed(seed),
            target_epsilon,
            delta: row.delta,
            rho_beta_bound,
            detail: RecordDetail::Summary,
            settings,
        }
    }
}
