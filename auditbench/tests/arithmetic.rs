//! Self-tests for the benchmark's arithmetic: percentiles and the sample
//! counts behind them, span self time across threads, idle share, the
//! reference models' work counts, and the workload table.

use auditbench::audit::Fnv;
use auditbench::flops;
use auditbench::speed;
use auditbench::stats::{beyond, median, percentile, supported_tail, Summary};
use auditbench::trace::{self, coverage, idle_share, union_len, MemorySink, Record, Span};
use auditbench::workloads::{self, WORKLOADS};
use dpaudit_core::Sampling;
use dpaudit_math::seeded_rng;
use dpaudit_obs::{Event, Sink};

#[test]
fn percentiles_interpolate_between_ranks() {
    let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(percentile(&xs, 50.0), Some(3.0));
    assert_eq!(percentile(&xs, 25.0), Some(2.0));
    assert_eq!(percentile(&xs, 0.0), Some(1.0));
    assert_eq!(percentile(&xs, 100.0), Some(5.0));
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn tail_percentiles_need_ten_samples_beyond() {
    assert_eq!(beyond(0, 50.0), 0);
    assert_eq!(beyond(5, 50.0), 2);
    assert_eq!(beyond(100, 90.0), 10);
    assert_eq!(beyond(91, 90.0), 9);
    assert_eq!(supported_tail(0), None);
    assert_eq!(supported_tail(19), None);
    assert_eq!(supported_tail(91), None);
    assert_eq!(supported_tail(92), Some(90.0));
    assert_eq!(supported_tail(100), Some(90.0));
    assert_eq!(supported_tail(180), Some(90.0));
    assert_eq!(supported_tail(200), Some(95.0));
    assert_eq!(supported_tail(1000), Some(99.0));
    assert_eq!(supported_tail(10_000), Some(99.9));

    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let summary = Summary::of(&xs);
    assert_eq!(summary.n, 100);
    assert_eq!(summary.p50, 50.5);
    let (p, value) = summary.tail.expect("100 samples support p90");
    assert_eq!(p, 90.0);
    assert!((value - 90.1).abs() < 1e-9, "{value}");
    assert_eq!(Summary::of(&xs[..12]).tail, None);
}

#[test]
fn union_merges_overlapping_and_touching_intervals() {
    assert_eq!(union_len(&mut []), 0);
    assert_eq!(union_len(&mut [(0, 10)]), 10);
    assert_eq!(union_len(&mut [(20, 30), (0, 10), (5, 15)]), 25);
    assert_eq!(union_len(&mut [(0, 10), (10, 20)]), 20);
    assert_eq!(union_len(&mut [(0, 100), (10, 20), (30, 40)]), 100);
}

fn span(name: &str, tid: u64, start: u64, end: u64) -> Span {
    Span {
        name: name.into(),
        tid,
        start,
        end,
    }
}

#[test]
fn self_time_counts_only_children_on_the_same_thread() {
    let spans = vec![
        span("trial", 0, 0, 100),
        span("clip", 0, 10, 30),
        span("chunk", 0, 15, 20),   // nested in clip: covered once
        span("noise", 0, 25, 50),   // overlaps clip
        span("update", 0, 95, 120), // outlives the trial: clipped to it
        span("trial", 1, 0, 80),
        span("clip", 1, 0, 80), // the other thread's trial is fully covered
        span("run", 2, 0, 200), // another thread's enclosing span is no child
    ];
    let cov = coverage(&spans, "trial");
    assert_eq!(cov.len(), 2);
    assert_eq!(cov[0].total_ns, 100);
    assert_eq!(cov[0].covered_ns, 40 + 5);
    assert_eq!(cov[0].self_ns(), 55);
    assert_eq!(cov[1].covered_ns, 80);
    assert_eq!(cov[1].self_ns(), 0);
}

#[test]
fn spans_are_reconstructed_from_end_time_and_duration() {
    let records = vec![
        Record {
            tid: 3,
            end_ns: 100,
            event: Event::SpanEnd {
                name: "trial".into(),
                nanos: 40,
            },
        },
        Record {
            tid: 3,
            end_ns: 120,
            event: Event::Counter {
                name: "dpsgd.steps".into(),
                delta: 2,
            },
        },
        Record {
            tid: 4,
            end_ns: 130,
            event: Event::Counter {
                name: "dpsgd.steps".into(),
                delta: 3,
            },
        },
    ];
    assert_eq!(trace::spans(&records), vec![span("trial", 3, 60, 100)]);
    assert_eq!(trace::counter_total(&records, "dpsgd.steps"), 5);
    assert_eq!(trace::counter_total(&records, "other"), 0);
    assert_eq!(trace::durations(&trace::spans(&records), "trial"), vec![40]);
}

#[test]
fn memory_sink_stamps_threads_and_times() {
    let sink = MemorySink::default();
    let event = Event::Counter {
        name: "c".into(),
        delta: 1,
    };
    sink.record(&event);
    std::thread::scope(|scope| {
        scope.spawn(|| sink.record(&event));
    });
    sink.record(&event);
    let records = sink.records();
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].tid, records[2].tid);
    assert_ne!(records[0].tid, records[1].tid);
    assert!(records[0].end_ns <= records[1].end_ns && records[1].end_ns <= records[2].end_ns);
    // One Chrome track per recording thread.
    let chrome = trace::chrome(&records);
    assert!(chrome.starts_with('['), "{chrome}");
}

#[test]
fn idle_share_is_unused_pool_thread_time() {
    assert_eq!(idle_share(150, 100, 2), 0.25);
    assert_eq!(idle_share(200, 100, 2), 0.0);
    assert_eq!(idle_share(0, 100, 2), 1.0);
    assert_eq!(idle_share(0, 0, 2), 0.0);
}

#[test]
fn mnist_cnn_work_per_example() {
    let model = dpaudit_nn::mnist_cnn(&mut seeded_rng(1));
    // conv1 1→8, 3×3 on 28×28: 9·676 patch entries, 8·6084 MACs, first
    // layer so forward + parameter gradient only.
    let conv1 = 2.0 * 2.0 * (8 * 9 * 676) as f64;
    // conv2 8→16, 3×3 on 13×13: 72·121 patch entries, three passes.
    let conv2 = 3.0 * 2.0 * (16 * 72 * 121) as f64;
    // Readout 400→10, three passes.
    let dense = 3.0 * 2.0 * (400 * 10) as f64;
    let work = flops::per_example(&model, &[1, 28, 28], 8);
    assert_eq!(work.flop, conv1 + conv2 + dense);
    assert_eq!(work.flop, 1_055_040.0);
    assert_eq!(work.im2col_bytes, ((9 * 676 + 72 * 121) * 8) as f64);
    let f32_work = flops::per_example(&model, &[1, 28, 28], 4);
    assert_eq!(f32_work.flop, work.flop);
    assert_eq!(f32_work.im2col_bytes, work.im2col_bytes / 2.0);
}

#[test]
fn purchase_mlp_work_per_example() {
    let model = dpaudit_nn::purchase_mlp(&mut seeded_rng(2));
    let work = flops::per_example(&model, &[600], 8);
    assert_eq!(
        work.flop,
        2.0 * 2.0 * (600 * 128) as f64 + 3.0 * 2.0 * (128 * 100) as f64
    );
    assert_eq!(work.im2col_bytes, 0.0);
}

#[test]
fn workload_table_matches_the_audited_protocol() {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ["mnist-full", "purchase-poisson", "purchase-f32"]);
    for spec in WORKLOADS {
        assert_eq!(workloads::find(spec.name), Some(spec));
        let header = spec.header(7, 4);
        assert_eq!(header.reps, 4);
        assert_eq!(header.world_seed.0, 7);
        assert_eq!(header.master_seed.0, 7);
        assert_eq!(header.settings.dpsgd.steps, workloads::STEPS);
        assert_eq!(header.settings.sampling, spec.sampling);
        assert_eq!(header.settings.dpsgd.compute, spec.compute);
        assert!(header.settings.dpsgd.backend.resolve().is_ok());
    }
    assert_eq!(workloads::find("mnist"), None);
    // Poisson subsampling audits the amplified (tighter) budget.
    let full = WORKLOADS[2].header(1, 4);
    let poisson = WORKLOADS[1].header(1, 4);
    assert_eq!(poisson.settings.sampling, Sampling::Poisson { q: 0.5 });
    assert!(poisson.target_epsilon < full.target_epsilon);
}

#[test]
fn fnv_matches_reference_vectors() {
    assert_eq!(Fnv::default().0, 0xcbf2_9ce4_8422_2325);
    let mut hash = Fnv::default();
    hash.write(b"a");
    assert_eq!(hash.0, 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn speed_probe_work_is_a_fixed_product() {
    // A = [[0, .5], [1, 1.5]], B = [[0, .25], [.5, .75]]: ΣAB = 2.75.
    assert_eq!(speed::work(2, 1), 2.75);
    assert_eq!(speed::work(2, 2), 5.5);
    assert_eq!(speed::reference(3), speed::reference(2));
    assert!(speed::probe(1) > std::time::Duration::ZERO);
}
