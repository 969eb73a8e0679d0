//! The audit session: one batch of Exp^DI trials, optionally backed by a
//! durable trial store, with crash-safe resume.
//!
//! Lifecycle:
//!
//! 1. [`AuditSession::create`] (fresh store), [`AuditSession::resume`]
//!    (replay an existing store, truncating a crash-torn tail), or
//!    [`AuditSession::in_memory`] (no durability).
//! 2. The caller rebuilds the workload (neighbouring pair, model builder)
//!    from the header's `workload`/`train_size`/`world_seed` fields.
//! 3. [`AuditSession::run`] executes exactly the missing trial indices in
//!    parallel, appending each record durably before it is aggregated, and
//!    returns the final [`AuditReport`].
//!
//! Because every trial is a pure function of `trial_seed(master_seed, idx)`
//! and aggregates fold in index order, a killed-and-resumed run produces
//! bit-identical aggregate output to an uninterrupted one, at any worker
//! count.

use crate::aggregate::{StreamingAggregates, TrialOutcome};
use crate::executor::{ExecPlan, Parallelism};
use crate::progress::{Progress, ProgressMeter};
use crate::source::{run_from_source, FnSink, LocalSource};
use crate::store::{read_store, StoreHeader, TrialRecord, TrialStore};
use dpaudit_core::{AuditReport, MaxBeliefEstimator};
use dpaudit_datasets::Dataset;
use dpaudit_dpsgd::NeighborPair;
use dpaudit_nn::Sequential;
use dpaudit_obs as obs;
use rand::rngs::StdRng;
use std::path::Path;

/// Outcome of [`AuditSession::run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The final aggregate report over all `reps` trials.
    pub report: AuditReport,
    /// Trials executed by this run.
    pub executed: usize,
    /// Trials replayed from the store (non-zero only on resume).
    pub replayed: usize,
}

/// A batch of trials bound to (optionally) a durable store.
pub struct AuditSession {
    header: StoreHeader,
    store: Option<TrialStore>,
    existing: Vec<TrialRecord>,
}

/// Reject a header whose recorded compute backend is not compiled into
/// this binary, *before* any trial runs or any store byte is written.
///
/// Trial records are a pure function of the seeds **and** the backend's
/// floating-point accumulation order, so executing a `blas` store's missing
/// trials on a native-only binary would silently break the bit-identical
/// resume guarantee. The error names the store schema version so operators
/// can tell a feature mismatch from a corrupt store.
fn check_backend(header: &StoreHeader) -> std::io::Result<()> {
    header.settings.dpsgd.backend.resolve().map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "store (schema v{}) was recorded with backend `{}` but {e}; \
                 resuming on a different backend would not be bit-identical",
                header.schema_version, header.settings.dpsgd.backend,
            ),
        )
    })?;
    Ok(())
}

impl AuditSession {
    /// A session with no durable store: results live only in memory.
    pub fn in_memory(header: StoreHeader) -> Self {
        AuditSession {
            header,
            store: None,
            existing: Vec::new(),
        }
    }

    /// Create a fresh store at `path` (truncating any existing file) and
    /// durably write the header, [stamped](StoreHeader::stamped) with the
    /// schema version of its sampling scheme.
    ///
    /// # Errors
    /// I/O errors from store creation, or a header naming a compute backend
    /// not compiled into this binary.
    pub fn create(path: &Path, header: StoreHeader) -> std::io::Result<Self> {
        let header = header.stamped();
        check_backend(&header)?;
        let store = TrialStore::create(path, &header)?;
        Ok(AuditSession {
            header,
            store: Some(store),
            existing: Vec::new(),
        })
    }

    /// Resume from an existing store: validate the header, replay the
    /// first complete record of each trial index, and cut off a crash-torn
    /// partial tail so appends continue from a clean line boundary.
    ///
    /// # Errors
    /// I/O errors, corrupt stores, schema-version mismatches (a legacy
    /// Poisson store among them — its trials came from a retired trainer),
    /// or a store recorded with a compute backend not compiled into this
    /// binary (the missing trials could not be executed bit-identically).
    pub fn resume(path: &Path) -> std::io::Result<Self> {
        let mut contents = read_store(path)?;
        check_backend(&contents.header)?;
        contents.dedup_records();
        let store = TrialStore::open_append(path, contents.keep_bytes)?;
        Ok(AuditSession {
            header: contents.header,
            store: Some(store),
            existing: contents.records,
        })
    }

    /// The batch description this session was created or resumed with.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Trial indices not yet present — exactly what [`Self::run`] will
    /// execute.
    pub fn missing_indices(&self) -> Vec<usize> {
        let mut have = vec![false; self.header.reps];
        for record in &self.existing {
            have[record.idx] = true;
        }
        (0..self.header.reps).filter(|&i| !have[i]).collect()
    }

    /// Run the missing trials on `parallelism.trial_threads` workers
    /// (0 = machine parallelism) and aggregate the full batch;
    /// `parallelism.batch_threads` additionally parallelises the DPSGD
    /// clip loop inside each trial without changing any result.
    ///
    /// `on_progress` fires on the coordinating thread after every
    /// completed trial. When `sink` is provided it receives every record
    /// of the batch (replayed and executed), sorted by trial index — used
    /// by callers that need per-trial series, at the cost of O(reps)
    /// memory; pass `None` for the O(1) aggregate-only path.
    ///
    /// # Errors
    /// The first store-append failure, reported after the batch finishes.
    ///
    /// # Panics
    /// Propagates trial-execution panics (invalid settings).
    pub fn run(
        &mut self,
        pair: &NeighborPair,
        test_set: Option<&Dataset>,
        model_builder: impl Fn(&mut StdRng) -> Sequential + Sync,
        parallelism: Parallelism,
        mut on_progress: impl FnMut(Progress),
        mut sink: Option<&mut Vec<TrialRecord>>,
    ) -> std::io::Result<RunOutcome> {
        let run_span = obs::span(obs::names::RUN_SPAN);
        let header = &self.header;
        let mut aggregates = StreamingAggregates::new(
            header.reps,
            header.target_epsilon,
            header.delta,
            header.rho_beta_bound,
        );
        if obs::enabled() {
            // Anchor the live ε′ stream: the budget the run is audited
            // against, so exporters can draw ε′ vs ε without extra context.
            obs::gauge_max(obs::names::EPS_TARGET_GAUGE, header.target_epsilon);
        }
        for record in &self.existing {
            if obs::enabled() {
                // Replayed trials were not re-executed, so their ledger
                // events never stream; fold their final ε′ contributions
                // into the gauges directly so a resumed run's telemetry
                // still converges to the stored report's values.
                if record.eps_ls.is_finite() {
                    obs::gauge_max(obs::names::EPS_PRIME_LS_GAUGE, record.eps_ls);
                }
                let eps_belief = MaxBeliefEstimator::from_max_belief(record.trial.belief_trained);
                if eps_belief.is_finite() {
                    obs::gauge_max(obs::names::EPS_PRIME_GAUGE, eps_belief);
                }
            }
            aggregates.push(record.idx, TrialOutcome::from(record));
            if let Some(out) = sink.as_deref_mut() {
                out.push(record.clone());
            }
        }
        let replayed = self.existing.len();
        if replayed > 0 {
            obs::counter(obs::names::TRIALS_REPLAYED, replayed as u64);
        }
        let missing = self.missing_indices();
        let plan = ExecPlan::for_header(header, parallelism);

        let mut meter = ProgressMeter::new(missing.len(), replayed);
        let mut io_error: Option<std::io::Error> = None;
        let store = &mut self.store;
        // The local source/sink pair: one batch of every missing index,
        // each record folded on the coordinating thread. A store-append
        // failure is captured but does not stop the batch (in-flight
        // trials still aggregate), matching the pre-seam behaviour.
        let mut source = LocalSource::new(missing.clone());
        let mut record_sink = FnSink(|record: crate::store::TrialRecord| {
            if io_error.is_none() {
                if let Some(store) = store.as_mut() {
                    let _append_span = obs::span(obs::names::STORE_APPEND_SPAN);
                    if let Err(e) = store.append(&record) {
                        io_error = Some(e);
                    }
                }
            }
            aggregates.push(record.idx, TrialOutcome::from(&record));
            if let Some(out) = sink.as_deref_mut() {
                out.push(record);
            }
            on_progress(meter.tick());
            Ok(())
        });
        run_from_source(
            pair,
            &header.settings,
            test_set,
            model_builder,
            &plan,
            &mut source,
            &mut record_sink,
        )?;
        if let Some(e) = io_error {
            return Err(e);
        }
        if let Some(out) = sink {
            out.sort_by_key(|r| r.idx);
        }
        drop(run_span);
        Ok(RunOutcome {
            report: aggregates.finish(),
            executed: missing.len(),
            replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Seed, POISSON_SCHEMA_VERSION, SCHEMA_VERSION};
    use crate::testkit;
    use dpaudit_core::{rho_beta, AdversaryKind, RecordDetail, Sampling};

    fn toy_header(reps: usize, detail: RecordDetail) -> StoreHeader {
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: "session-test".into(),
            workload: "toy".into(),
            train_size: 8,
            world_seed: Seed(0),
            reps,
            master_seed: Seed(42),
            target_epsilon: 2.0,
            delta: 1e-3,
            rho_beta_bound: rho_beta(2.0),
            detail,
            settings: testkit::toy_settings(3),
        }
    }

    #[test]
    fn in_memory_session_matches_batch_harness() {
        // Under either sampling protocol the streaming session and the
        // sampling-aware batch report agree bit for bit.
        let pair = testkit::toy_pair();
        for sampling in [Sampling::FullBatch, Sampling::Poisson { q: 0.5 }] {
            let mut header = toy_header(5, RecordDetail::Full);
            header.settings =
                testkit::toy_settings_with(3, AdversaryKind::GaussianBelief, sampling);
            let batch = dpaudit_core::run_di_trials(
                &pair,
                &header.settings,
                None,
                testkit::toy_model,
                header.reps,
                header.master_seed.0,
            );
            let expected = AuditReport::from_batch(
                &batch,
                header.target_epsilon,
                header.delta,
                &header.settings,
            );

            let mut session = AuditSession::in_memory(header);
            let mut records = Vec::new();
            let outcome = session
                .run(
                    &pair,
                    None,
                    testkit::toy_model,
                    Parallelism::trials(2),
                    |_| {},
                    Some(&mut records),
                )
                .unwrap();
            assert_eq!(outcome.executed, 5);
            assert_eq!(outcome.replayed, 0);
            assert_eq!(records.len(), 5);
            for (got, want) in [
                (outcome.report.eps_from_ls, expected.eps_from_ls),
                (outcome.report.advantage, expected.advantage),
                (outcome.report.max_belief, expected.max_belief),
                (outcome.report.empirical_delta, expected.empirical_delta),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{sampling:?}");
            }
        }
    }

    #[test]
    fn resume_hands_out_each_stored_trial_once() {
        // A store may repeat a record line or hold an index outside the
        // batch; resume replays the first record of each index in 0..reps.
        let pair = testkit::toy_pair();
        let dir = std::env::temp_dir().join(format!("dpaudit-dup-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup-store.jsonl");
        let run = |session: &mut AuditSession, records: &mut Vec<TrialRecord>| {
            session
                .run(
                    &pair,
                    None,
                    testkit::toy_model,
                    Parallelism::trials(1),
                    |_| {},
                    Some(records),
                )
                .unwrap()
        };
        let mut session =
            AuditSession::create(&path, toy_header(3, RecordDetail::Summary)).unwrap();
        let first = run(&mut session, &mut Vec::new());
        drop(session);

        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().nth(1).unwrap();
        let mut stray: TrialRecord = serde_json::from_str(line).unwrap();
        stray.idx = 7;
        let stray = serde_json::to_string(&stray).unwrap();
        std::fs::write(&path, format!("{text}{line}\n{stray}\n")).unwrap();

        let mut resumed = AuditSession::resume(&path).unwrap();
        assert!(resumed.missing_indices().is_empty());
        let mut records = Vec::new();
        let outcome = run(&mut resumed, &mut records);
        assert_eq!((outcome.executed, outcome.replayed), (0, 3));
        assert_eq!(
            records.iter().map(|r| r.idx).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            outcome.report.eps_from_ls.to_bits(),
            first.report.eps_from_ls.to_bits()
        );
        let replay = crate::report::replay_store(&path).unwrap();
        assert_eq!(replay.completed, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blas_store_refuses_resume_on_a_native_only_binary() {
        // A store recorded with `--backend blas` must not be created or
        // resumed by a binary without the blas backend compiled in: the
        // missing trials would silently run on a different accumulation
        // order and break bit-identical resume. On a blas-enabled build the
        // same header is accepted.
        let mut header = toy_header(2, RecordDetail::Summary);
        header.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Blas;
        let blas_compiled = dpaudit_tensor::Backend::resolve("blas").is_ok();
        let dir = std::env::temp_dir().join(format!("dpaudit-backend-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blas-store.jsonl");

        let created = AuditSession::create(&path, header.clone());
        if blas_compiled {
            assert!(created.is_ok());
            assert!(AuditSession::resume(&path).is_ok());
        } else {
            let err = created.err().expect("create must refuse a blas header");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            let msg = err.to_string();
            assert!(msg.contains("backend `blas`"), "{msg}");
            assert!(msg.contains(&format!("schema v{SCHEMA_VERSION}")), "{msg}");
            assert!(msg.contains("bit-identical"), "{msg}");
            // Write the same store via a native header, then flip the
            // recorded backend on disk to simulate a blas-built producer.
            let mut native_header = header.clone();
            native_header.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Native;
            drop(AuditSession::create(&path, native_header).expect("native header is accepted"));
            let text = std::fs::read_to_string(&path).unwrap();
            let flipped = text.replace("\"backend\":\"Native\"", "\"backend\":\"Blas\"");
            assert_ne!(text, flipped, "header should record the backend");
            std::fs::write(&path, flipped).unwrap();
            let err = AuditSession::resume(&path)
                .err()
                .expect("resume must refuse a blas store");
            assert!(err.to_string().contains("backend `blas`"), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_poisson_store_is_refused_on_resume_and_report() {
        // Poisson stores are stamped with their own schema version; one
        // written before it (schema v1) holds records of the retired
        // example-at-a-time trainer and must be refused with a versioned
        // error by resume and by the offline report. Full-batch headers keep
        // schema v1 byte for byte.
        let dir = std::env::temp_dir().join(format!("dpaudit-poisson-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("poisson-store.jsonl");
        let mut header = toy_header(2, RecordDetail::Summary);
        header.settings.sampling = dpaudit_core::Sampling::Poisson { q: 0.5 };

        let session = AuditSession::create(&path, header.clone()).unwrap();
        assert_eq!(session.header().schema_version, POISSON_SCHEMA_VERSION);
        drop(session);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(&format!("{{\"schema_version\":{POISSON_SCHEMA_VERSION},")));
        assert!(AuditSession::resume(&path).is_ok());

        // Rewind the stamp to v1: the header of a pre-versioning Poisson run.
        let legacy = text.replacen(
            &format!("\"schema_version\":{POISSON_SCHEMA_VERSION}"),
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            1,
        );
        std::fs::write(&path, legacy).unwrap();
        for err in [
            AuditSession::resume(&path)
                .err()
                .expect("resume must refuse"),
            crate::report::replay_store(&path).expect_err("report must refuse"),
        ] {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("legacy Poisson store"), "{msg}");
            assert!(msg.contains(&format!("schema v{SCHEMA_VERSION}")), "{msg}");
            assert!(msg.contains(&format!("v{POISSON_SCHEMA_VERSION}")), "{msg}");
        }

        // Full-batch stores keep the original version stamp.
        let full = dir.join("full-store.jsonl");
        drop(AuditSession::create(&full, toy_header(2, RecordDetail::Summary)).unwrap());
        let text = std::fs::read_to_string(&full).unwrap();
        assert!(text.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_callback_counts_every_executed_trial() {
        let pair = testkit::toy_pair();
        let mut session = AuditSession::in_memory(toy_header(4, RecordDetail::Summary));
        let mut ticks = Vec::new();
        session
            .run(
                &pair,
                None,
                testkit::toy_model,
                Parallelism::trials(2),
                |p| ticks.push(p),
                None,
            )
            .unwrap();
        assert_eq!(ticks.len(), 4);
        assert_eq!(ticks.last().unwrap().completed, 4);
        assert!(ticks.last().unwrap().trials_per_sec > 0.0);
    }
}
