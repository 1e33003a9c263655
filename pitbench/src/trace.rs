//! Spans around the benchmark's own calls into each layer of the program.
//!
//! A span has a name, a start and an end (ns after the run's epoch), the
//! index of the span that caused it, and an id shared by every span of one
//! step, stream or session. Spans stay in memory and are written out once,
//! when the run ends. Tracing is off in the runs that give the end-to-end
//! metrics; a traced run repeats the workload with it on, so the difference
//! between the two passes is the tracing overhead.

use pit_tensor::json::Json;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, `layer.operation`.
    pub name: &'static str,
    /// Step, stream or session id shared by related spans.
    pub id: u64,
    /// Start, ns after the tracer's epoch.
    pub start_ns: u64,
    /// End, ns after the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span in the final span list.
    pub parent: Option<usize>,
}

/// Whether spans are recorded, and the epoch they are timed from.
#[derive(Debug, Clone, Copy)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A span from `start` to `end`.
    pub fn span(
        &self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        Span {
            name,
            id,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        }
    }
}

/// The spans of a run, in recording order.
#[derive(Debug, Default)]
pub struct Trace {
    /// Recorded spans; `parent` indexes into this list.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span unless `tracer` is off; returns its index.
    pub fn record(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
        id: u64,
        start: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !tracer.on() {
            return None;
        }
        self.spans
            .push(tracer.span(name, id, start, Instant::now(), parent));
        Some(self.spans.len() - 1)
    }

    /// Appends spans recorded elsewhere (another thread), re-parenting the
    /// root ones under `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: Option<usize>) {
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.or(parent);
            s
        }));
    }

    /// Writes the spans as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be written.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let n = |v: u64| Json::Num(v as f64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    n(s.id),
                    n(s.start_ns),
                    n(s.end_ns),
                    s.parent.map_or(Json::Null, |p| n(p as u64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("pitbench-trace/1".into())),
            (
                "columns".into(),
                Json::Str("name,id,start_ns,end_ns,parent".into()),
            ),
            ("spans".into(), Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
