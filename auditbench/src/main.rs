//! Trial-level audit benchmark.
//!
//! ```text
//! cargo run --release --manifest-path auditbench/Cargo.toml -- \
//!     --workload mnist-full --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs store-backed Exp^DI audits of one workload in a closed loop
//! (`AuditSession::run` dispatches every trial of a session at once; the
//! next session starts when the last trial is stored) on two trial workers
//! with a sequential clip loop, checks every session's outputs, and prints
//! as its last stdout line one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics from a traced run with `--trace 1`. A
//! line before it carries the run metadata. Temporary stores and the traced
//! run's Chrome trace go to `.auditbench/` in the working directory.

use auditbench::audit::{self, SessionResult, Setup};
use auditbench::flops;
use auditbench::speed;
use auditbench::stats::{median, Summary};
use auditbench::trace::{self, MemorySink};
use auditbench::workloads::{self, Spec};
use dpaudit_core::Sampling;
use dpaudit_dpsgd::{clip_loop_mode, ComputeMode};
use dpaudit_math::{axpy, seeded_rng};
use dpaudit_obs::{self as obs, names};
use dpaudit_runtime::{read_store, render_report, replay_store, AuditSession, TrialStore};
use dpaudit_tensor::{backend_name, kernel_backend};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trial workers (never more than the machine has).
const TRIAL_THREADS: usize = 2;
/// Trials per session: two per worker, so the pool is full until the end.
const TRIALS_PER_WORKER: usize = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Sessions the untraced run measures at the least, however long they
/// take; each phase of the traced run measures at least one.
const MIN_SESSIONS: usize = 3;
/// Repetitions of each single-threaded probe; the median is reported.
const PROBE_REPS: usize = 7;
/// Where temporary stores and traces go, relative to the working directory.
const OUT_DIR: &str = ".auditbench";

/// Benchmark span around one probe call to `update_norm_stats`.
const NORM_STATS_SPAN: &str = "bench.nn.norm_stats";
/// Benchmark span around one probe call to `per_example_grad_on`.
const GRAD_SPAN: &str = "bench.nn.per_example_grad";
/// Benchmark span around one single-threaded clip-loop probe.
const CLIP_PROBE_SPAN: &str = "bench.dpsgd.clip_probe";
/// Benchmark span around one probe `TrialStore::append`.
const APPEND_SPAN: &str = "bench.runtime.store_append";
/// Benchmark span around one probe `replay_store` + `render_report`.
const REPLAY_SPAN: &str = "bench.runtime.replay";

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload =
                    Some(workloads::find(&value).ok_or_else(|| {
                        format!("unknown workload `{value}` ({})", names.join("|"))
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("auditbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut bench = Bench {
        spec: args.spec,
        seed: args.seed,
        threads: TRIAL_THREADS.min(nproc),
        dir: PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())),
        sessions: 0,
        log: Log::default(),
    };
    if let Err(e) = std::fs::create_dir_all(&bench.dir) {
        eprintln!("auditbench: cannot create {}: {e}", bench.dir.display());
        std::process::exit(1);
    }
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(&mut bench, budget)
    } else {
        end_to_end_run(&mut bench, budget)
    };
    // Temporary stores are not kept; a failure to remove them loses nothing.
    let _ = std::fs::remove_dir_all(&bench.dir);
    let log = bench.log;
    match result {
        Ok((metrics, mut meta)) => {
            meta.insert("nproc", json!(nproc));
            let correct = log.problems.is_empty();
            for problem in &log.problems {
                eprintln!("auditbench: check failed: {problem}");
            }
            println!("{}", json!({ "meta": meta }));
            println!(
                "{}",
                json!({
                    "correct": correct,
                    "attempted": log.attempted,
                    "failed": log.failed,
                    "metrics": metrics,
                })
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("auditbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Trials attempted and failed, the problems found, and the first
/// session's result digest, across every session of a run.
#[derive(Default)]
struct Log {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    digest: Option<u64>,
}

impl Log {
    /// Fold one session in. Every session of a run audits the same header,
    /// so each must reproduce the first session's digest.
    fn add(&mut self, result: &SessionResult) {
        self.attempted += result.attempted;
        self.failed += result.failed;
        self.problems.extend(result.problems.iter().cloned());
        match self.digest {
            None => self.digest = Some(result.digest),
            Some(d) if d != result.digest && result.problems.is_empty() => {
                self.problems.push(format!(
                    "session digest {:016x} differs from {d:016x}",
                    result.digest
                ));
            }
            Some(_) => {}
        }
    }
}

struct Bench {
    spec: Spec,
    seed: u64,
    threads: usize,
    dir: PathBuf,
    sessions: usize,
    log: Log,
}

/// A run's metrics and metadata.
type RunOutput = (Value, Value);

/// One session's trials per second as measured, and the machine-speed
/// probe taken right before it.
struct Rate {
    raw: f64,
    probe: Duration,
}

/// A run's trials per second at the reference machine speed: the median
/// session rate, rescaled by the median probe. Medians over the whole run
/// track the machine's speed better than pairing each session with its
/// own probe, whose second-scale jitter is independent of the session's.
fn rescaled_rate(rates: &[Rate], threads: usize) -> f64 {
    let raw = median(&rates.iter().map(|r| r.raw).collect::<Vec<_>>());
    let probe = median_secs(rates.iter().map(|r| r.probe));
    raw * probe / speed::reference(threads).as_secs_f64()
}

/// A created session that has not run yet, and its store.
struct Pending {
    session: AuditSession,
    path: PathBuf,
}

/// Medians over a run's set-ups; the total is rescaled to the reference
/// machine speed.
struct SetupMedians {
    total_s: f64,
    world_ms: f64,
    ds_search_ms: f64,
}

impl Bench {
    fn reps(&self) -> usize {
        self.threads * TRIALS_PER_WORKER
    }

    fn next_store(&mut self) -> PathBuf {
        self.sessions += 1;
        self.dir.join(format!("session-{}.jsonl", self.sessions))
    }

    /// `SETUP_REPS` full set-ups; returns the last one, its unused session
    /// and store path, and the medians of their timings. Each set-up is
    /// dropped before the next is built, so peak memory holds one world.
    fn setups(&mut self) -> Result<(Setup, Pending, SetupMedians), String> {
        let (mut totals, mut probes) = (Vec::new(), Vec::new());
        let (mut worlds, mut searches) = (Vec::new(), Vec::new());
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let path = self.next_store();
            let probe = speed::probe(1);
            let (setup, session) = audit::setup(&self.spec, self.seed, self.reps(), &path)
                .map_err(|e| format!("set-up: {e}"))?;
            totals.push(setup.total);
            probes.push(probe);
            worlds.push(ms(setup.world_time));
            searches.push(ms(setup.ds_search_time));
            last = Some((setup, Pending { session, path }));
        }
        let slowdown = median_secs(probes.into_iter()) / speed::reference(1).as_secs_f64();
        let medians = SetupMedians {
            total_s: median_secs(totals.into_iter()) / slowdown,
            world_ms: median(&worlds),
            ds_search_ms: median(&searches),
        };
        let (setup, pending) = last.expect("SETUP_REPS > 0");
        Ok((setup, pending, medians))
    }

    /// Run and check `pending`, the session created on `setup`.
    fn run(&mut self, setup: &Setup, pending: Pending) -> SessionResult {
        let result = audit::run_session(
            &self.spec,
            &setup.pair,
            &setup.header,
            pending.session,
            &pending.path,
            self.threads,
        );
        self.log.add(&result);
        result
    }

    /// One checked session on a fresh store.
    fn session(&mut self, setup: &Setup) -> Result<SessionResult, String> {
        let path = self.next_store();
        let session = AuditSession::create(&path, setup.header.clone())
            .map_err(|e| format!("store creation: {e}"))?;
        Ok(self.run(setup, Pending { session, path }))
    }

    /// Run sessions until `budget` would be exceeded by one more (at least
    /// `min_sessions`), each right after a machine-speed probe on as many
    /// threads as the session uses.
    fn measure(
        &mut self,
        setup: &Setup,
        budget: Duration,
        min_sessions: usize,
    ) -> Result<Vec<Rate>, String> {
        let start = Instant::now();
        let mut rates = Vec::new();
        loop {
            let probe = speed::probe(self.threads);
            let result = self.session(setup)?;
            rates.push(Rate {
                raw: result.attempted as f64 / result.wall.as_secs_f64(),
                probe,
            });
            if rates.len() >= min_sessions && start.elapsed() + result.wall + probe > budget {
                return Ok(rates);
            }
        }
    }

    fn meta(&self, setup: &Setup) -> Value {
        let settings = &setup.header.settings;
        let backend = settings
            .dpsgd
            .backend
            .resolve()
            .map_or("unavailable", backend_name);
        json!({
            "workload": self.spec.name,
            "seed": self.seed,
            "kernel": kernel_backend(),
            "gemm_backend": backend,
            "compute": settings.dpsgd.compute.to_string(),
            "sampling": settings.sampling.to_string(),
            "adversary": settings.adversary.label(),
            "steps": settings.dpsgd.steps,
            "train_size": setup.header.train_size,
            "trial_threads": self.threads,
            "trials_per_session": self.reps(),
            "trials": self.log.attempted,
            "result_digest": format!("{:016x}", self.log.digest.unwrap_or(0)),
        })
    }
}

/// Seconds of a set of durations, as their median.
fn median_secs(times: impl Iterator<Item = Duration>) -> f64 {
    median(&times.map(|t| t.as_secs_f64()).collect::<Vec<_>>())
}

/// Milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Durations in milliseconds of the spans named `name`.
fn span_ms(spans: &[trace::Span], name: &str) -> Vec<f64> {
    trace::durations(spans, name)
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Untraced run: set-up time, then a warm-up session, then sessions until
/// the budget is spent.
fn end_to_end_run(bench: &mut Bench, budget: Duration) -> Result<RunOutput, String> {
    let (setup, warm_up, setup_medians) = bench.setups()?;
    bench.run(&setup, warm_up);
    let rates = bench.measure(&setup, budget, MIN_SESSIONS)?;
    let metrics = object(vec![
        (
            "trials_per_s",
            metric(rescaled_rate(&rates, bench.threads), "1/s"),
        ),
        ("setup_s", metric(setup_medians.total_s, "s")),
        ("peak_rss_mb", metric(peak_rss_mb()?, "MB")),
    ]);
    let mut meta = bench.meta(&setup);
    let raw: Vec<f64> = rates.iter().map(|r| r.raw).collect();
    let probes: Vec<f64> = rates.iter().map(|r| r.probe.as_secs_f64()).collect();
    meta.insert("session_trials_per_s", json!(raw));
    meta.insert("session_probe_s", json!(probes));
    Ok((metrics, meta))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Time `f` `PROBE_REPS` times under a benchmark span; median duration.
fn timed_median(span: &'static str, mut f: impl FnMut()) -> Duration {
    let times: Vec<Duration> = (0..PROBE_REPS)
        .map(|_| {
            let _span = obs::span(span);
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    Duration::from_secs_f64(median_secs(times.into_iter()))
}

/// Traced run: traced set-ups, untraced sessions for 40% of the budget,
/// traced sessions for another 40%, then single-threaded probes of the
/// layers the trials call. Writes the trace as Chrome trace-event JSON.
fn traced_run(bench: &mut Bench, budget: Duration) -> Result<RunOutput, String> {
    let sink = Arc::new(MemorySink::default());
    let guard = obs::install(sink.clone());
    let (setup, warm_up, setup_medians) = bench.setups()?;
    drop(guard);

    bench.run(&setup, warm_up);
    let phase = budget.mul_f64(0.4);
    let untraced = rescaled_rate(&bench.measure(&setup, phase, 1)?, bench.threads);

    let guard = obs::install(sink.clone());
    let first_event = sink.len();
    let traced_rates = bench.measure(&setup, phase, 1)?;
    let traced = rescaled_rate(&traced_rates, bench.threads);
    let session_events = sink.records()[first_event..].to_vec();
    let last_store = bench.dir.join(format!("session-{}.jsonl", bench.sessions));
    let probes = run_probes(bench, &setup, &session_events, &last_store)?;
    drop(guard);

    let records = sink.records();
    let layers = layer_metrics(
        bench,
        &setup,
        &session_events,
        &probes,
        &setup_medians,
        (untraced, traced),
    );
    let trace_path =
        PathBuf::from(OUT_DIR).join(format!("{}-seed{}.trace.json", bench.spec.name, bench.seed));
    std::fs::write(&trace_path, trace::chrome(&records))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let trial_ms = span_ms(&trace::spans(&session_events), names::TRIAL_SPAN);
    let mut meta = bench.meta(&setup);
    meta.insert("sessions", json!(traced_rates.len()));
    meta.insert("trial_ms", Summary::of(&trial_ms).to_json());
    meta.insert("chrome_trace", json!(trace_path.display().to_string()));
    Ok((layers, meta))
}

/// Medians of the single-threaded probes.
struct Probes {
    norm_stats: Duration,
    per_example_grad: Duration,
    /// Standalone clip work per example.
    clip_per_example: Duration,
    store_append: Duration,
    replay: Duration,
}

fn run_probes(
    bench: &Bench,
    setup: &Setup,
    session_events: &[trace::Record],
    last_store: &Path,
) -> Result<Probes, String> {
    let settings = &setup.header.settings.dpsgd;
    let backend = settings.backend.resolve()?;
    let train = &setup.world.train;
    let mut model = bench.spec.workload.build_model(&mut seeded_rng(bench.seed));
    let norm_stats = timed_median(NORM_STATS_SPAN, || model.update_norm_stats(&train.xs));
    let (x1, y1) = setup.pair.x1();
    let per_example_grad = timed_median(GRAD_SPAN, || {
        std::hint::black_box(model.per_example_grad_on(backend, x1, y1));
    });
    let layout = model.param_layout();
    let clip_per_example = match setup.header.settings.sampling {
        Sampling::FullBatch => {
            let n = train.len() as u32;
            timed_median(CLIP_PROBE_SPAN, || {
                std::hint::black_box(clip_loop_mode(
                    &model,
                    &train.xs,
                    &train.ys,
                    &settings.clipping,
                    &layout,
                    None,
                    settings.compute,
                    backend,
                ));
            }) / n
        }
        Sampling::Poisson { .. } => {
            // The subsampled trainer's per-example path, over as many
            // examples as the traced trials saw per step.
            let steps = trace::counter_total(session_events, names::STEPS).max(1);
            let seen = trace::counter_total(session_events, names::EXAMPLES_SEEN);
            let m = ((seen as f64 / steps as f64).round() as usize).clamp(1, train.len());
            let mut sum = vec![0.0; model.param_count()];
            timed_median(CLIP_PROBE_SPAN, || {
                for i in 0..m {
                    let (_, mut g) = model.per_example_grad_on(backend, &train.xs[i], train.ys[i]);
                    settings.clipping.clip(&mut g, &layout);
                    axpy(1.0, &g, &mut sum);
                }
                std::hint::black_box(&sum);
            }) / m as u32
        }
    };

    let contents = read_store(last_store).map_err(|e| format!("probe store read: {e}"))?;
    let append_path = bench.dir.join("append-probe.jsonl");
    let mut store = TrialStore::create(&append_path, &contents.header)
        .map_err(|e| format!("probe store create: {e}"))?;
    let mut appends = Vec::new();
    for _ in 0..PROBE_REPS {
        for record in &contents.records {
            let _span = obs::span(APPEND_SPAN);
            let start = Instant::now();
            store
                .append(record)
                .map_err(|e| format!("probe append: {e}"))?;
            appends.push(start.elapsed());
        }
    }
    let mut replay_error = None;
    let replay = timed_median(REPLAY_SPAN, || match replay_store(last_store) {
        Ok(replayed) => match replayed.report {
            Some(report) => {
                std::hint::black_box(render_report(&replayed.header, &report));
            }
            None => replay_error = Some("probe replay: incomplete store".to_string()),
        },
        Err(e) => replay_error = Some(format!("probe replay: {e}")),
    });
    if let Some(e) = replay_error {
        return Err(e);
    }
    Ok(Probes {
        norm_stats,
        per_example_grad,
        clip_per_example,
        store_append: Duration::from_secs_f64(median_secs(appends.into_iter())),
        replay,
    })
}

/// Every per-layer metric, from the traced sessions' events and the probes.
fn layer_metrics(
    bench: &Bench,
    setup: &Setup,
    events: &[trace::Record],
    probes: &Probes,
    setup_medians: &SetupMedians,
    (untraced_rate, traced_rate): (f64, f64),
) -> Value {
    let spans = trace::spans(events);
    let total_ms = |name: &str| span_ms(&spans, name).iter().sum::<f64>();
    let steps = trace::counter_total(events, names::STEPS).max(1) as f64;
    let examples = trace::counter_total(events, names::EXAMPLES_SEEN) as f64;
    let clip_ms = total_ms(names::CLIP_SPAN);
    let clip_ms_per_step = clip_ms / steps;
    let chunk_ms = span_ms(&spans, names::CLIP_CHUNK_SPAN);
    let trial_ms = span_ms(&spans, names::TRIAL_SPAN);
    let trials = trial_ms.len().max(1) as f64;
    let coverage = trace::coverage(&spans, names::TRIAL_SPAN);
    let trial_ns: u64 = coverage.iter().map(|c| c.total_ns).sum();
    let covered_ns: u64 = coverage.iter().map(|c| c.covered_ns).sum();
    let self_ns: u64 = coverage.iter().map(|c| c.self_ns()).sum();
    let run_ns: u64 = trace::durations(&spans, audit::RUN_SPAN).iter().sum();
    let program_events = events
        .iter()
        .filter(|r| !r.event.name().starts_with("bench."))
        .count() as f64;

    let elem_bytes = match setup.header.settings.dpsgd.compute {
        ComputeMode::F64 => 8,
        ComputeMode::F32 => 4,
    };
    let model = bench.spec.workload.build_model(&mut seeded_rng(bench.seed));
    let work = flops::per_example(&model, setup.world.train.xs[0].shape(), elem_bytes);
    let examples_per_step = examples / steps;
    let gflop_per_step = work.flop * examples_per_step / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let in_trial_ms_per_example = ratio(clip_ms, examples);

    object(vec![
        ("tensor.gflop_per_step", metric(gflop_per_step, "count")),
        (
            "tensor.gflops_in_clip",
            metric(ratio(gflop_per_step, clip_ms_per_step / 1e3), "GFLOP/s"),
        ),
        (
            "tensor.im2col_mb_per_step",
            metric(work.im2col_bytes * examples_per_step / 1e6, "MB"),
        ),
        ("nn.norm_stats_ms", metric(ms(probes.norm_stats), "ms")),
        (
            "nn.per_example_grad_ms",
            metric(ms(probes.per_example_grad), "ms"),
        ),
        ("dpsgd.clip_ms_per_step", metric(clip_ms_per_step, "ms")),
        (
            "dpsgd.noise_ms_per_step",
            metric(total_ms(names::NOISE_SPAN) / steps, "ms"),
        ),
        (
            "dpsgd.update_ms_per_step",
            metric(total_ms(names::UPDATE_SPAN) / steps, "ms"),
        ),
        (
            "dpsgd.clip_chunks_per_step",
            metric(chunk_ms.len() as f64 / steps, "count"),
        ),
        ("dpsgd.clip_chunk_ms.p50", metric(median(&chunk_ms), "ms")),
        (
            "dpsgd.examples_per_s",
            metric(ratio(examples, clip_ms / 1e3), "1/s"),
        ),
        (
            "dpsgd.clip_inflation",
            metric(
                ratio(in_trial_ms_per_example, ms(probes.clip_per_example)),
                "ratio",
            ),
        ),
        ("core.trial_ms.p50", metric(median(&trial_ms), "ms")),
        (
            "core.adversary_ms_per_step",
            metric(total_ms(names::BELIEF_SPAN) / steps, "ms"),
        ),
        (
            "core.unattributed_ms_per_step",
            metric(self_ns as f64 / 1e6 / steps, "ms"),
        ),
        (
            "core.span_coverage",
            metric(ratio(covered_ns as f64, trial_ns as f64), "ratio"),
        ),
        (
            "runtime.worker_idle_share",
            metric(trace::idle_share(trial_ns, run_ns, bench.threads), "ratio"),
        ),
        (
            "runtime.store_append_ms.p50",
            metric(ms(probes.store_append), "ms"),
        ),
        ("runtime.replay_ms", metric(ms(probes.replay), "ms")),
        ("datasets.world_ms", metric(setup_medians.world_ms, "ms")),
        (
            "datasets.ds_search_ms",
            metric(setup_medians.ds_search_ms, "ms"),
        ),
        (
            "obs.overhead_share",
            metric(1.0 - ratio(traced_rate, untraced_rate), "ratio"),
        ),
        (
            "obs.events_per_trial",
            metric(program_events / trials, "count"),
        ),
    ])
}
