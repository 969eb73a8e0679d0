//! Cross-commit bit pin for store-backed audits: full-batch f64, two
//! full-batch f32 cases (MLP and CNN), and one Poisson-subsampled case.
//!
//! Runs small store-backed audits through `AuditSession` (the library path
//! of `dpaudit audit run`) and folds the stored records into a 64-bit
//! FNV-1a digest. The expected digests are constants recorded from an
//! earlier build of the pipeline, so any refactor that moves a single bit
//! of a stored trial — beliefs, local sensitivities, sigmas, test accuracy
//! — fails here, even when two binaries of the same commit agree with each
//! other. The Poisson case also runs at several clip-loop batch-thread
//! counts, which must not move a bit either.
//!
//! When a change is *meant* to move bits, re-record the constants and say
//! so in the change log.

use dp_identifiability::dpsgd::ComputeMode;
use dp_identifiability::prelude::*;
use dpaudit_bench::{arm_settings, param_row, Workload, World};
use dpaudit_core::RecordDetail;
use dpaudit_runtime::{
    read_store, render_report, AuditSession, Parallelism, Seed, StoreHeader, SCHEMA_VERSION,
};
use std::path::PathBuf;

/// One pinned audit.
struct Case {
    name: &'static str,
    workload: Workload,
    mode: NeighborMode,
    adversary: AdversaryKind,
    train_size: usize,
    reps: usize,
    steps: usize,
    compute: ComputeMode,
    sampling: Sampling,
}

/// World, pair and test set, small enough for a test: a reduced pool keeps
/// the dataset-sensitivity search cheap.
fn world(case: &Case, seed: u64) -> World {
    match case.workload {
        Workload::Mnist => dpaudit_bench::mnist_world(seed, case.train_size, 30, 20),
        Workload::Purchase => dpaudit_bench::purchase_world(seed, case.train_size, 30, 20),
    }
}

fn header(case: &Case, seed: u64) -> StoreHeader {
    let row = param_row(0.9, case.workload.delta());
    let mut settings = arm_settings(
        &row,
        case.steps,
        SensitivityScaling::Local,
        case.mode,
        ChallengeMode::RandomBit,
    );
    settings.adversary = case.adversary;
    settings.dpsgd.compute = case.compute;
    settings.sampling = case.sampling;
    StoreHeader {
        schema_version: SCHEMA_VERSION,
        label: format!("digest_{}", case.name),
        workload: case.workload.key().to_string(),
        train_size: case.train_size,
        world_seed: Seed(seed),
        reps: case.reps,
        master_seed: Seed(seed),
        target_epsilon: row.epsilon,
        delta: row.delta,
        rho_beta_bound: row.rho_beta,
        detail: RecordDetail::Full,
        settings,
    }
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Run `case` with `threads` trial workers and `batch_threads` clip-loop
/// workers and return the digest of its rendered report and its stored
/// records in index order.
fn audit_digest(case: &Case, threads: usize, batch_threads: usize) -> u64 {
    let seed = 11;
    let world = world(case, seed);
    let pair = case.workload.max_pair(&world, case.mode);
    let header = header(case, seed);
    let dir = std::env::temp_dir().join(format!("dpaudit_store_digest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{}_{threads}_{batch_threads}.jsonl", case.name));
    let _ = std::fs::remove_file(&path);
    let mut session = AuditSession::create(&path, header.clone()).unwrap();
    let workload = case.workload;
    let outcome = session
        .run(
            &pair,
            Some(&world.test),
            |rng| workload.build_model(rng),
            Parallelism {
                trial_threads: threads,
                batch_threads,
            },
            |_| {},
            None,
        )
        .unwrap();
    let mut records = read_store(&path).unwrap().records;
    let _ = std::fs::remove_file(&path);
    records.sort_by_key(|r| r.idx);
    assert_eq!(records.len(), case.reps);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv(
        &mut hash,
        render_report(&header, &outcome.report).as_bytes(),
    );
    for record in &records {
        assert!(record.trial.test_accuracy.is_some());
        fnv(&mut hash, serde_json::to_string(record).unwrap().as_bytes());
        fnv(&mut hash, b"\n");
    }
    hash
}

const MNIST: Case = Case {
    name: "mnist",
    workload: Workload::Mnist,
    mode: NeighborMode::Bounded,
    adversary: AdversaryKind::GaussianBelief,
    train_size: 20,
    reps: 6,
    steps: 5,
    compute: ComputeMode::F64,
    sampling: Sampling::FullBatch,
};

const PURCHASE: Case = Case {
    name: "purchase",
    workload: Workload::Purchase,
    mode: NeighborMode::Bounded,
    adversary: AdversaryKind::GaussianBelief,
    train_size: 30,
    reps: 6,
    steps: 5,
    compute: ComputeMode::F64,
    sampling: Sampling::FullBatch,
};

/// Unbounded pair + threshold-MI adversary: the adversary's reference loss
/// is the model's mean loss over D′, so this pins `mean_loss` as well.
const MNIST_MI: Case = Case {
    name: "mnist_mi",
    workload: Workload::Mnist,
    mode: NeighborMode::Unbounded,
    adversary: AdversaryKind::ThresholdMi,
    train_size: 20,
    reps: 4,
    steps: 5,
    compute: ComputeMode::F64,
    sampling: Sampling::FullBatch,
};

/// The Purchase case at `--compute f32`: pins the single-precision batched
/// gradient path, whose records are tolerance-equivalent to (not equal to)
/// the f64 oracle but must still not move between builds.
const PURCHASE_F32: Case = Case {
    name: "purchase_f32",
    compute: ComputeMode::F32,
    ..PURCHASE
};

/// The MNIST case at `--compute f32`: pins the single-precision conv,
/// batch-norm and pooling layers that the Purchase MLP never reaches.
const MNIST_F32: Case = Case {
    name: "mnist_f32",
    compute: ComputeMode::F32,
    ..MNIST
};

/// Purchase under Poisson sampling at q = 0.5 over 40 records: most steps
/// sum two clip-loop chunks, so the batch-thread runs below exercise the
/// ordered fold.
const PURCHASE_POISSON: Case = Case {
    name: "purchase_poisson",
    train_size: 40,
    reps: 4,
    sampling: Sampling::Poisson { q: 0.5 },
    ..PURCHASE
};

const MNIST_DIGEST: u64 = 0x721e_93d0_6c84_a65d;
const PURCHASE_DIGEST: u64 = 0x639c_6e10_fd08_0cf9;
const MNIST_MI_DIGEST: u64 = 0x327d_0f2b_5b16_e21c;
const PURCHASE_F32_DIGEST: u64 = 0xe67d_6028_7918_94e6;
const PURCHASE_POISSON_DIGEST: u64 = 0x4316_f46c_8cbc_743b;
const MNIST_F32_DIGEST: u64 = 0x7bcb_ecf2_a0c8_20e1;

fn check(case: &Case, threads: usize, expected: u64) {
    check_batched(case, threads, 1, expected);
}

fn check_batched(case: &Case, threads: usize, batch_threads: usize, expected: u64) {
    let got = audit_digest(case, threads, batch_threads);
    assert_eq!(
        got, expected,
        "{} audit at {threads} trial threads, {batch_threads} batch threads: \
         digest {got:#018x}, pinned {expected:#018x}",
        case.name
    );
}

#[test]
fn mnist_store_digest_is_pinned_at_one_thread() {
    check(&MNIST, 1, MNIST_DIGEST);
}

#[test]
fn mnist_store_digest_is_pinned_at_two_threads() {
    check(&MNIST, 2, MNIST_DIGEST);
}

#[test]
fn purchase_store_digest_is_pinned_at_one_thread() {
    check(&PURCHASE, 1, PURCHASE_DIGEST);
}

#[test]
fn purchase_store_digest_is_pinned_at_two_threads() {
    check(&PURCHASE, 2, PURCHASE_DIGEST);
}

#[test]
fn mnist_threshold_mi_store_digest_is_pinned() {
    check(&MNIST_MI, 1, MNIST_MI_DIGEST);
}

#[test]
fn purchase_f32_store_digest_is_pinned() {
    check(&PURCHASE_F32, 1, PURCHASE_F32_DIGEST);
}

#[test]
fn mnist_f32_store_digest_is_pinned() {
    check(&MNIST_F32, 1, MNIST_F32_DIGEST);
}

#[test]
fn purchase_poisson_store_digest_is_pinned_at_any_batch_threads() {
    for batch_threads in [1, 2, 4] {
        check_batched(&PURCHASE_POISSON, 1, batch_threads, PURCHASE_POISSON_DIGEST);
    }
}
