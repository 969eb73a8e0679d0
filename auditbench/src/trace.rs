//! The traced run's in-memory event sink and the span arithmetic the
//! per-layer metrics are computed from.
//!
//! The program records a span when it *ends*, with its duration. The sink
//! stamps each event with the recording thread and the end time, so a span
//! becomes the interval `[end − duration, end]` on its thread, and spans
//! nest by interval containment on one thread. A layer's self time is its
//! duration minus the part of its interval covered by other spans on the
//! same thread; spans on other threads never count as its children.

use dpaudit_obs::{chrome_trace, Event, Sink, TraceLine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded event with where and when it was captured.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Small ordinal of the recording thread (0 = first thread to record).
    pub tid: u64,
    /// Nanoseconds since the sink was created, taken as the event arrived.
    pub end_ns: u64,
    /// The event.
    pub event: Event,
}

/// Ordinal of the calling thread, assigned on first use.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// A [`Sink`] that keeps every event in memory until the run ends.
pub struct MemorySink {
    epoch: Instant,
    records: Mutex<Vec<Record>>,
}

impl Default for MemorySink {
    fn default() -> Self {
        MemorySink {
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
        }
    }
}

impl MemorySink {
    /// Everything recorded so far, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        let end_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let record = Record {
            tid: thread_ordinal(),
            end_ns,
            event: event.clone(),
        };
        // A push cannot leave the vector half-updated, so a poisoned lock
        // still guards valid data.
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }
}

/// A completed span as an interval on its thread's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name.
    pub name: String,
    /// Recording thread.
    pub tid: u64,
    /// Start, in sink nanoseconds.
    pub start: u64,
    /// End, in sink nanoseconds.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans among `records`.
pub fn spans(records: &[Record]) -> Vec<Span> {
    records
        .iter()
        .filter_map(|r| match &r.event {
            Event::SpanEnd { name, nanos } => Some(Span {
                name: name.clone(),
                tid: r.tid,
                start: r.end_ns.saturating_sub(*nanos),
                end: r.end_ns,
            }),
            _ => None,
        })
        .collect()
}

/// Total length of the union of `intervals` (half-open `[start, end)`).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Duration and child coverage of one parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// The parent's duration.
    pub total_ns: u64,
    /// Nanoseconds of the parent covered by other spans on its thread.
    pub covered_ns: u64,
}

impl Coverage {
    /// The parent's self time: duration not covered by any child span.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.covered_ns
    }
}

/// For every span named `parent`, how much of it other spans on the same
/// thread cover (children clipped to the parent's interval).
pub fn coverage(spans: &[Span], parent: &str) -> Vec<Coverage> {
    let mut by_tid: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_tid.entry(span.tid).or_default().push(span);
    }
    spans
        .iter()
        .filter(|p| p.name == parent)
        .map(|p| {
            let mut children: Vec<(u64, u64)> = by_tid[&p.tid]
                .iter()
                .filter(|c| !std::ptr::eq(**c, p) && c.start < p.end && c.end > p.start)
                .map(|c| (c.start.max(p.start), c.end.min(p.end)))
                .collect();
            Coverage {
                total_ns: p.nanos(),
                covered_ns: union_len(&mut children),
            }
        })
        .collect()
}

/// Share of a pool's thread-time not spent in work: `1 − busy / (wall ·
/// workers)`.
pub fn idle_share(busy_ns: u64, wall_ns: u64, workers: usize) -> f64 {
    let capacity = wall_ns as f64 * workers as f64;
    if capacity <= 0.0 {
        return 0.0;
    }
    1.0 - busy_ns as f64 / capacity
}

/// Durations (ns) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::nanos)
        .collect()
}

/// Sum of all increments of the counter named `name`.
pub fn counter_total(records: &[Record], name: &str) -> u64 {
    records
        .iter()
        .map(|r| match &r.event {
            Event::Counter { name: n, delta } if n == name => *delta,
            _ => 0,
        })
        .sum()
}

/// The records as a Chrome trace-event JSON array, one track per
/// recording thread, through `dpaudit-obs`'s exporter.
pub fn chrome(records: &[Record]) -> String {
    let lines: Vec<TraceLine> = records
        .iter()
        .map(|r| TraceLine {
            ts_nanos: r.end_ns,
            tid: r.tid,
            job: None,
            worker: None,
            lease: None,
            event: r.event.clone(),
        })
        .collect();
    chrome_trace(&lines)
}
