//! In-memory spans of a traced run, recorded by the benchmark around its
//! calls into each layer's public functions.
//!
//! A span has a name whose first dot-separated part is its layer
//! (`flowstream.rotate` belongs to `flowstream`), a start and an end, a
//! parent, and the operation it belongs to: every root span opens one
//! operation, and its descendants share that operation's id. Spans stay in
//! memory until the run ends and are then written out in one go, so the
//! file I/O never lands inside a measured interval.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of a recorded span (0 is "no span").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: u32,
    op: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. Disabled, it records nothing and every call is a
/// branch.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from now.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a root span, starting a new operation; close it with
    /// [`Spans::end`].
    pub fn root(&mut self, name: &'static str) -> SpanId {
        self.open(None, name)
    }

    /// Opens a child span of `parent`; close it with [`Spans::end`].
    pub fn child(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        self.open(Some(parent), name)
    }

    fn open(&mut self, parent: Option<SpanId>, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let id = self.spans.len() as u32 + 1;
        let (parent, op) = match parent {
            Some(SpanId(p)) if p > 0 => (p, self.spans[p as usize - 1].op),
            _ => (0, id),
        };
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(id)
    }

    /// Closes a span opened by [`Spans::root`] or [`Spans::child`].
    pub fn end(&mut self, id: SpanId) {
        if id.0 == 0 {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[id.0 as usize - 1].end_ns = end_ns;
    }

    /// Records an already-timed child interval of `parent`.
    pub fn interval(&mut self, parent: SpanId, name: &'static str, start: Instant, end: Instant) {
        if !self.on || parent.0 == 0 {
            return;
        }
        let op = self.spans[parent.0 as usize - 1].op;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent: parent.0,
            op,
            start_ns,
            end_ns,
        });
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Seconds of self time per layer: each span's duration minus the time
    /// its children cover (children of one parent never overlap: the
    /// benchmark is a single caller).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one tab-separated line: id, parent, operation,
    /// name, start and end in nanoseconds since the run began.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
