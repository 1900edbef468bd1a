//! In-memory spans, recorded from the benchmark's own files around calls
//! into each layer of the program (the program itself carries no tracing).
//!
//! A span has a name, start, end, the span that caused it, and the request
//! it served, if any. With tracing off every call is a plain call: no clock
//! read, no allocation, nothing kept.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: Cow<'static, str>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside span `name`, a child of `parent`. `f` receives the
    /// new span's id (`None` with tracing off) to parent its own spans.
    pub fn span<R>(
        &self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.open(name.into(), parent);
        let out = f(Some(id));
        self.close(id);
        out
    }

    /// Records a span whose bounds the caller measured itself (the serving
    /// path times requests from their due instant).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id: 0,
            parent,
            name: Cow::Borrowed(name),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            request,
        };
        let mut spans = self.lock();
        let id = spans.len() as SpanId;
        spans.push(Span { id, ..span });
    }

    fn open(&self, name: Cow<'static, str>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.ns(Instant::now());
        let mut spans = self.lock();
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            request: None,
        });
        id
    }

    fn close(&self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        self.lock()[id as usize].end_ns = end_ns;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }
}

/// Self time of every span (indexed by id): its duration minus the part of
/// its interval covered by its children. Children that overlap each other
/// (parallel work) are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as JSON: one object per span with its self time, plus a
/// per-name summary (count, total and self milliseconds).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::from("{\"spans\": [\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"request\": {request}}}{sep}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("], \"summary\": {\n");
    let mut names: Vec<&str> = spans.iter().map(|s| s.name.as_ref()).collect();
    names.sort_unstable();
    names.dedup();
    for (i, name) in names.iter().enumerate() {
        let (mut count, mut total, mut own) = (0u64, 0u64, 0u64);
        for (s, self_ns) in spans.iter().zip(&selfs) {
            if s.name == *name {
                count += 1;
                total += s.duration_ns();
                own += self_ns;
            }
        }
        let sep = if i + 1 == names.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  \"{name}\": {{\"count\": {count}, \"total_ms\": {:.6}, \"self_ms\": {:.6}}}{sep}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: Cow::Borrowed("s"),
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children (parallel work) cover 10..50 once.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A grandchild only reduces its own parent.
            span(3, Some(2), 35, 45),
            // A child running past its parent is clipped to the parent.
            span(4, Some(0), 90, 120),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 40 - 10, 30, 20 - 10, 10, 30]);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let tr = Tracer::new(false);
        let v = tr.span("outer", None, |id| {
            assert!(id.is_none());
            tr.span("inner", id, |_| 7)
        });
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_serialize() {
        let tr = Tracer::new(true);
        tr.span("outer", None, |id| tr.span("inner", id, |_| ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json(&spans);
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"outer\": {\"count\": 1"));
    }
}
