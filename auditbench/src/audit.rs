//! One audit the way `dpaudit audit run` performs it: set-up (world, pair
//! search, header, store creation), `AuditSession::run`, and the output
//! checks every benchmark session must pass.

use crate::workloads::Spec;
use dpaudit_bench::World;
use dpaudit_core::{AuditReport, MaxBeliefEstimator};
use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::{NeighborPair, SensitivityScaling};
use dpaudit_obs as obs;
use dpaudit_runtime::{
    read_store, render_report, replay_store, AuditSession, Parallelism, StoreHeader, TrialRecord,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Benchmark span around world generation.
pub const WORLD_SPAN: &str = "bench.datasets.world";
/// Benchmark span around the dataset-sensitivity pair search.
pub const DS_SEARCH_SPAN: &str = "bench.datasets.ds_search";
/// Benchmark span around header construction and `AuditSession::create`.
pub const CREATE_SPAN: &str = "bench.runtime.create";
/// Benchmark span around one `AuditSession::run`.
pub const RUN_SPAN: &str = "bench.runtime.run";

/// Relative distance allowed between ε′-from-LS and the audited ε under
/// local-sensitivity scaling (the paper's Fig. 8 identity).
pub const LS_TOLERANCE: f64 = 0.01;

/// What one set-up produced (besides its session), with its stage
/// timings.
pub struct Setup {
    /// The generated world.
    pub world: World,
    /// The DS-maximising bounded neighbouring pair.
    pub pair: NeighborPair,
    /// The store header the session was created with.
    pub header: StoreHeader,
    /// World generation time.
    pub world_time: Duration,
    /// Pair search time.
    pub ds_search_time: Duration,
    /// Whole set-up time: world, pair, header and store creation.
    pub total: Duration,
}

fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = obs::span(span);
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Everything `audit run` pays before its first trial: generate the world,
/// search the DS-maximising pair, build the header (with its accounting)
/// and create the store at `path`. Returns the set-up and the session
/// created on it.
///
/// # Errors
/// Store creation failures.
pub fn setup(
    spec: &Spec,
    seed: u64,
    reps: usize,
    path: &Path,
) -> std::io::Result<(Setup, AuditSession)> {
    let start = Instant::now();
    let (world, world_time) = timed(WORLD_SPAN, || spec.workload.world(seed, spec.train_size));
    let (pair, ds_search_time) = timed(DS_SEARCH_SPAN, || {
        spec.workload.max_pair(&world, NeighborMode::Bounded)
    });
    let (created, _) = timed(CREATE_SPAN, || {
        let header = spec.header(seed, reps);
        AuditSession::create(path, header.clone()).map(|session| (header, session))
    });
    let (header, session) = created?;
    let setup = Setup {
        world,
        pair,
        header,
        world_time,
        ds_search_time,
        total: start.elapsed(),
    };
    Ok((setup, session))
}

/// The result of one checked session.
pub struct SessionResult {
    /// Wall time of `AuditSession::run`.
    pub wall: Duration,
    /// Trials the session was asked to run.
    pub attempted: usize,
    /// Trials that panicked, failed to append, are missing from the
    /// replayed store, or belong to a session that failed a check.
    pub failed: usize,
    /// What went wrong, one line per problem.
    pub problems: Vec<String>,
    /// Digest of the rendered report and the stored records.
    pub digest: u64,
}

/// Run `session` (created on `header` at `path`) with `threads` trial
/// workers and a sequential clip loop, then check its outputs.
pub fn run_session(
    spec: &Spec,
    pair: &NeighborPair,
    header: &StoreHeader,
    mut session: AuditSession,
    path: &Path,
    threads: usize,
) -> SessionResult {
    let workload = spec.workload;
    let parallelism = Parallelism {
        trial_threads: threads,
        batch_threads: 1,
    };
    let run_span = obs::span(RUN_SPAN);
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        session.run(
            pair,
            None,
            |rng| workload.build_model(rng),
            parallelism,
            |_| {},
            None,
        )
    }));
    let wall = start.elapsed();
    drop(run_span);
    let attempted = header.reps;
    let report = match outcome {
        Ok(Ok(outcome)) => outcome.report,
        Ok(Err(e)) => return failed_session(wall, attempted, format!("store append: {e}")),
        Err(_) => return failed_session(wall, attempted, "a trial panicked".into()),
    };
    let (records, problems) = check(header, &report, path);
    let failed = if problems.is_empty() { 0 } else { attempted };
    let digest = digest(header, &report, &records);
    SessionResult {
        wall,
        attempted,
        failed,
        problems,
        digest,
    }
}

fn failed_session(wall: Duration, attempted: usize, problem: String) -> SessionResult {
    SessionResult {
        wall,
        attempted,
        failed: attempted,
        problems: vec![problem],
        digest: 0,
    }
}

/// The output checks: the run's report equals, bit for bit, the report
/// replayed from the store; every trial index is stored exactly once;
/// every ε′ is finite (the advantage estimator may be +∞ only when every
/// trial was guessed right, its documented inversion at advantage 1); and
/// under local-sensitivity scaling ε′-from-LS sits within
/// [`LS_TOLERANCE`] of the audited ε.
pub fn check(
    header: &StoreHeader,
    report: &AuditReport,
    path: &Path,
) -> (Vec<TrialRecord>, Vec<String>) {
    let mut problems = Vec::new();
    match replay_store(path) {
        Ok(replayed) => match replayed.report {
            Some(replayed) if report_bits(&replayed) == report_bits(report) => {}
            Some(_) => problems.push("replayed report differs from the run's report".into()),
            None => problems.push(format!(
                "replayed store is incomplete: missing {:?}",
                replayed.missing
            )),
        },
        Err(e) => problems.push(format!("replay failed: {e}")),
    }
    let mut records = match read_store(path) {
        Ok(contents) => contents.records,
        Err(e) => {
            problems.push(format!("store unreadable: {e}"));
            Vec::new()
        }
    };
    records.sort_by_key(|r| r.idx);
    let mut seen = vec![0usize; header.reps];
    for record in &records {
        match seen.get_mut(record.idx) {
            Some(count) => *count += 1,
            None => problems.push(format!("stored trial index {} out of range", record.idx)),
        }
        if !record.eps_ls.is_finite() {
            problems.push(format!("trial {}: eps' from LS not finite", record.idx));
        }
        let belief = record.trial.belief_trained;
        if !(0.0..=1.0).contains(&belief)
            || !MaxBeliefEstimator::from_max_belief(belief).is_finite()
        {
            problems.push(format!("trial {}: eps' from belief not finite", record.idx));
        }
    }
    for (idx, &count) in seen.iter().enumerate() {
        if count != 1 {
            problems.push(format!("trial {idx} stored {count} times"));
        }
    }
    if !report.eps_from_ls.is_finite() || !report.eps_from_belief.is_finite() {
        problems.push("report eps' from LS or belief not finite".into());
    }
    let all_correct = report.advantage == 1.0;
    if report.eps_from_advantage.is_nan()
        || (!report.eps_from_advantage.is_finite() && !all_correct)
    {
        problems.push("report eps' from advantage not finite".into());
    }
    if header.settings.dpsgd.scaling == SensitivityScaling::Local {
        let target = header.target_epsilon;
        if (report.eps_from_ls - target).abs() > LS_TOLERANCE * target {
            problems.push(format!(
                "eps' from LS {} is not within {LS_TOLERANCE} of the audited eps {target}",
                report.eps_from_ls
            ));
        }
    }
    (records, problems)
}

/// Every field of a report as raw bits, for bit-for-bit comparison.
fn report_bits(report: &AuditReport) -> [u64; 9] {
    [
        report.target_epsilon.to_bits(),
        report.delta.to_bits(),
        report.trials as u64,
        report.eps_from_ls.to_bits(),
        report.eps_from_belief.to_bits(),
        report.eps_from_advantage.to_bits(),
        report.advantage.to_bits(),
        report.max_belief.to_bits(),
        report.empirical_delta.to_bits(),
    ]
}

/// FNV-1a over the rendered report, the report's bits and every stored
/// record's JSON line in index order: changes whenever a result bit does.
pub fn digest(header: &StoreHeader, report: &AuditReport, records: &[TrialRecord]) -> u64 {
    let mut hash = Fnv::default();
    hash.write(render_report(header, report).as_bytes());
    for bits in report_bits(report) {
        hash.write(&bits.to_le_bytes());
    }
    for record in records {
        hash.write(serde_json::to_value(record).to_string().as_bytes());
        hash.write(b"\n");
    }
    hash.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
