//! The benchmark's own spans, recorded around calls into each layer.
//!
//! A span records its name, start, end, parent span and job id. Spans
//! stay in memory while the benchmark runs and are written out as JSON
//! lines when it ends. Recording is off unless [`set_enabled`] turned it
//! on, so untraced runs pay one relaxed load per call site.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One finished span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Enclosing span on the same thread, `0` at the root.
    pub parent: u64,
    /// Layer boundary name, e.g. `ladder.grid`.
    pub name: &'static str,
    /// Job the work belongs to (a spec fingerprint or a round index).
    pub job: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    job: u64,
    start: u64,
}

/// Opens a span named `name` for `job`, nested under the innermost open
/// span of this thread. A no-op while recording is off.
pub fn span(name: &'static str, job: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            id: 0,
            parent: 0,
            name,
            job,
            start: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        id,
        parent,
        name,
        job,
        start: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.truncate(pos);
            }
        });
        // A poisoned lock only loses this span; a drop must not panic.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                job: self.job,
                start: self.start,
                end,
            });
        }
    }
}

/// Runs `f` inside a span and returns its result with the host time it
/// took (measured whether or not spans are recorded).
pub fn timed<R>(name: &'static str, job: u64, f: impl FnOnce() -> R) -> (R, Duration) {
    let _span = span(name, job);
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Every span recorded so far, in completion order.
pub fn recorded() -> Vec<Span> {
    SPANS
        .lock()
        .expect("no thread panics while holding the span list")
        .clone()
}

/// Self time of each span: its duration minus the part of its interval
/// its child spans cover (overlapping children are merged first).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == s.id)
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end - s.start) - covered)
        })
        .collect()
}

/// Writes every recorded span, with its self time, as one JSON object
/// per line.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<usize> {
    let spans = recorded();
    let selfs = self_times(&spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, (_, self_ns)) in spans.iter().zip(&selfs) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.name, s.job, s.start, s.end, self_ns
        )?;
    }
    out.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            job: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            s(1, 0, 0, 100),
            s(2, 1, 10, 30),
            s(3, 1, 20, 40),  // overlaps span 2: covered 10..40
            s(4, 1, 90, 120), // clipped to the parent's end
            s(5, 2, 12, 14),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], (1, 100 - 30 - 10));
        assert_eq!(selfs[1], (2, 20 - 2));
        assert_eq!(selfs[2], (3, 20));
        assert_eq!(selfs[4], (5, 2));
    }

    #[test]
    fn spans_nest_per_thread_and_record_job_ids() {
        set_enabled(true);
        {
            let _outer = span("test.outer", 7);
            let _inner = span("test.inner", 7);
        }
        set_enabled(false);
        let _ignored = span("test.off", 1);
        let spans = recorded();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.job, 7);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert!(!spans.iter().any(|s| s.name == "test.off"));
    }
}
