//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! made), the span that caused it, and the request it belongs to. Spans
//! stay in memory and are written out once, after the measured phase.
//! When tracing is off every call is a plain pass-through.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `core.session.driver`.
    pub name: &'static str,
    /// Start (s since the tracer's epoch).
    pub start: f64,
    /// End (s since the tracer's epoch).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one serve request.
    pub request: Option<u64>,
}

/// Span recorder; a no-op when built with `on == false`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since the tracer's epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Converts an instant to tracer time.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished interval; returns its id (`None` when off).
    pub fn record(
        &self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose children need its id before it ends; close it
    /// with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let t = self.now();
        self.record(name, t, t, parent, None)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let t = self.now();
            self.spans.lock().expect("span buffer poisoned")[id].end = t;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        self.record(name, start, self.now(), parent, None);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Overlapping children (parallel work) count once, and
/// the parts of a child outside its parent do not count.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (lo, hi) in iv {
                match cur {
                    Some((clo, chi)) if lo <= chi => cur = Some((clo, chi.max(hi))),
                    _ => {
                        if let Some((clo, chi)) = cur {
                            covered += chi - clo;
                        }
                        cur = Some((lo, hi));
                    }
                }
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Self time summed per span name, largest first: `(name, self s, count)`.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut acc: std::collections::BTreeMap<&'static str, (f64, usize)> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = acc.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    let mut out: Vec<_> = acc.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// Spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"request\":{}}}\n",
            s.name,
            s.start,
            s.end,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("sweep", 0.0, 10.0, None),
            // Two parallel cells overlapping on [2, 4]: they cover [1, 6].
            span("cell", 1.0, 4.0, Some(0)),
            span("cell", 2.0, 6.0, Some(0)),
            // A disjoint child, partly outside its parent: only [8, 10].
            span("json", 8.0, 12.0, Some(0)),
            // A grandchild does not reduce the grandparent directly.
            span("lu", 2.5, 3.0, Some(2)),
        ];
        let t = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t[0], 10.0 - 5.0 - 2.0), "sweep self {}", t[0]);
        assert!(close(t[1], 3.0));
        assert!(close(t[2], 4.0 - 0.5));
        assert!(close(t[3], 4.0));
        assert!(close(t[4], 0.5));
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0].0, "cell");
        assert!(close(by_name[0].1, 6.5));
        assert_eq!(by_name[0].2, 2);
    }

    #[test]
    fn off_tracer_records_nothing_and_passes_values_through() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("x", None, || 41 + 1), 42);
        assert!(tr.open("y", None).is_none());
        assert!(tr.spans().is_empty());
        let on = Tracer::new(true);
        let id = on.open("req", None);
        on.span("child", id, || ());
        on.close(id);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(durations(&spans, "child").len(), 1);
        assert!(to_json_lines(&spans).lines().count() == 2);
    }
}
