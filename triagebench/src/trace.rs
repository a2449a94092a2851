//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time attribution computed from them once a traced pass ends.
//!
//! A span is `(layer, parent, start, end)`; the spans of one job descend
//! from its root `job` span. The program itself is not instrumented:
//! every span wraps a call the benchmark makes into a crate's public API,
//! so a layer's time is what that call cost.
//!
//! Self time is a span's duration minus the part its children cover.
//! Children may run on other threads (the executor's worker pool, the
//! watchdog's per-probe thread); where parallel children together exceed
//! their parent's wall time, they share the parent's wall in proportion to
//! their busy time, so the self times of one job always sum to its wall.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layers spans are attributed to, named after the module they time.
pub const LAYERS: [&str; 11] = [
    "job", "corpus", "fuzzer", "executor", "oracle", "watchdog", "reducer", "dedup", "wal",
    "loadgen", "server",
];

/// The root layer: a job's self time is the benchmark glue no layer covers.
pub const ROOT: &str = "job";

#[derive(Debug, Clone, Copy)]
struct Span {
    id: usize,
    parent: Option<usize>,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

/// A cheaply clonable span recorder; [`Trace::off`] records nothing and
/// costs one branch per call site.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Arc<Recorder>>);

/// An open span; it is recorded when dropped.
#[must_use = "a span is recorded when the guard drops"]
pub struct Guard {
    recorder: Option<Arc<Recorder>>,
    id: usize,
    parent: Option<usize>,
    layer: &'static str,
    start_ns: u64,
}

impl Guard {
    /// This span's id, to pass as the parent of spans it causes.
    pub fn id(&self) -> Option<usize> {
        self.recorder.as_ref().map(|_| self.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(recorder) = &self.recorder {
            let end_ns = recorder.now_ns();
            let span = Span {
                id: self.id,
                parent: self.parent,
                layer: self.layer,
                start_ns: self.start_ns,
                end_ns,
            };
            // A poisoned lock only means another span's push panicked;
            // the vector itself is still valid.
            recorder
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(span);
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Trace {
    /// A disabled trace.
    pub fn off() -> Trace {
        Trace(None)
    }

    /// A recording trace.
    pub fn on() -> Trace {
        Trace(Some(Arc::new(Recorder {
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a span of `layer` caused by `parent` (a root when `None`).
    pub fn enter(&self, layer: &'static str, parent: Option<usize>) -> Guard {
        match &self.0 {
            None => Guard {
                recorder: None,
                id: 0,
                parent: None,
                layer,
                start_ns: 0,
            },
            Some(recorder) => Guard {
                recorder: Some(Arc::clone(recorder)),
                id: recorder.next.fetch_add(1, Ordering::Relaxed),
                parent,
                layer,
                start_ns: recorder.now_ns(),
            },
        }
    }

    /// Records a span measured elsewhere (the daemon's own clocks) and
    /// returns its id.
    pub fn record(
        &self,
        layer: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let recorder = self.0.as_ref()?;
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(recorder.epoch).as_nanos())
                .unwrap_or(u64::MAX)
        };
        let id = recorder.next.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            layer,
            start_ns: at(start),
            end_ns: at(end),
        };
        recorder
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
        Some(id)
    }

    /// Runs `f` inside a span of `layer`.
    pub fn time<R>(&self, layer: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let _span = self.enter(layer, parent);
        f()
    }

    /// Attributes every recorded span's self time to its layer.
    pub fn attribution(&self) -> Attribution {
        let spans = match &self.0 {
            None => Vec::new(),
            Some(recorder) => recorder
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone(),
        };
        Attribution::from_spans(&spans)
    }
}

/// Per-layer self time (ns) and span counts of one traced pass.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Attributed self time per layer, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Spans recorded per layer.
    pub spans: BTreeMap<&'static str, u64>,
    /// Summed wall time of the root (job) spans, in nanoseconds.
    pub job_wall_ns: f64,
}

impl Attribution {
    fn from_spans(spans: &[Span]) -> Attribution {
        let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let index: BTreeMap<usize, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut roots = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            match span.parent.and_then(|p| index.get(&p)) {
                Some(&p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        let mut out = Attribution::default();
        for span in spans {
            *out.spans.entry(span.layer).or_default() += 1;
        }
        // Iterative walk: (span index, share of its duration it owns).
        let mut stack: Vec<(usize, f64)> = roots.iter().map(|&r| (r, 1.0)).collect();
        for &r in &roots {
            out.job_wall_ns += duration(&spans[r]);
        }
        while let Some((i, scale)) = stack.pop() {
            let own = duration(&spans[i]);
            let kids = children.get(&i).map(Vec::as_slice).unwrap_or(&[]);
            let busy: f64 = kids.iter().map(|&k| duration(&spans[k])).sum();
            let (self_share, kid_scale) = if busy > own && busy > 0.0 {
                (0.0, scale * own / busy)
            } else {
                ((own - busy) * scale, scale)
            };
            *out.self_ns.entry(spans[i].layer).or_default() += self_share;
            stack.extend(kids.iter().map(|&k| (k, kid_scale)));
        }
        out
    }

    /// Self time of `layer`, in nanoseconds.
    pub fn self_ns(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0.0)
    }

    /// Spans recorded for `layer`.
    pub fn count(&self, layer: &str) -> u64 {
        self.spans.get(layer).copied().unwrap_or(0)
    }

    /// Share of job wall time attributed to a named layer (not the root).
    pub fn coverage(&self) -> f64 {
        if self.job_wall_ns <= 0.0 {
            return 0.0;
        }
        1.0 - self.self_ns(ROOT) / self.job_wall_ns
    }
}

fn duration(span: &Span) -> f64 {
    span.end_ns.saturating_sub(span.start_ns) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn serial_children_leave_their_parent_the_rest() {
        let a = Attribution::from_spans(&[
            span(0, None, "job", 0, 100),
            span(1, Some(0), "reducer", 10, 90),
            span(2, Some(1), "watchdog", 20, 50),
            span(3, Some(2), "oracle", 25, 45),
        ]);
        assert_eq!(a.self_ns("job"), 20.0);
        assert_eq!(a.self_ns("reducer"), 50.0);
        assert_eq!(a.self_ns("watchdog"), 10.0);
        assert_eq!(a.self_ns("oracle"), 20.0);
        assert!((a.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_share_their_parents_wall() {
        // Two workers busy for 80 and 40 inside a 60-long batch.
        let a = Attribution::from_spans(&[
            span(0, None, "job", 0, 100),
            span(1, Some(0), "executor", 20, 80),
            span(2, Some(1), "fuzzer", 20, 100),
            span(3, Some(1), "oracle", 20, 60),
        ]);
        assert_eq!(a.self_ns("executor"), 0.0);
        assert!((a.self_ns("fuzzer") - 40.0).abs() < 1e-9);
        assert!((a.self_ns("oracle") - 20.0).abs() < 1e-9);
        let total: f64 = a.self_ns.values().sum();
        assert!(
            (total - a.job_wall_ns).abs() < 1e-9,
            "self times sum to job wall"
        );
    }
}
