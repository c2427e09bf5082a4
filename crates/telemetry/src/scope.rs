//! Scopes: the one timing guard of the instrumentation layer.
//!
//! A [`Scope`] times one stage and feeds every sink its
//! [`Telemetry`](crate::Telemetry) handle carries from a single pair of
//! clock readings:
//!
//! * the latency histogram `<name>.micros` (or the histogram handed to
//!   [`Telemetry::scope_with`](crate::Telemetry::scope_with));
//! * a span in the trace store, when the scope belongs to a sampled trace;
//! * the call-path aggregate of the profile store (`a;b;c`).
//!
//! Open scopes form a stack per thread. A scope opened while another is
//! open on the same thread nests under it: its span is that scope's child
//! and its profile path extends that scope's path.
//! [`Telemetry::root`](crate::Telemetry::root) starts a new trace instead,
//! head-sampled once for the whole tree; a plain scope outside any sampled
//! trace records no span. Work handed to another thread takes its
//! position along as a [`ScopeParent`]: [`ScopeParent::current`] on the
//! handing thread, [`ScopeParent::enter`] on the worker.
//!
//! The disabled handle's scope holds nothing: opening it never reads the
//! clock, allocates or looks a name up, and dropping it is one branch.
//!
//! ```
//! use megastream_telemetry::{SamplePolicy, Telemetry};
//!
//! let tel = Telemetry::new()
//!     .with_tracing(SamplePolicy::Always)
//!     .with_profiling();
//! {
//!     let mut query = tel.root("query.run");
//!     query.annotate("text", "SELECT TOPK 3");
//!     let mut merge = tel.scope("query.merge");
//!     merge.add_bytes(1024);
//! } // both finish here: two histograms, one two-span trace, two paths
//! assert_eq!(tel.snapshot().histogram("query.merge.micros").unwrap().count, 1);
//! assert_eq!(tel.trace_snapshot().spans.len(), 2);
//! assert!(tel.profile_snapshot().activities.iter().any(|a| a.path == "query.run;query.merge"));
//! ```

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::clock::{self, Stopwatch};
use crate::metrics::Histogram;
use crate::profile::ProfileStore;
use crate::trace::{SpanContext, SpanId, SpanRecord, TraceStore};
use crate::Sinks;

/// The sampled span an open scope's children link to, with the address
/// of its trace store (`None` outside any sampled trace). Stores are told
/// apart by address; a frame never outlives its store, because the scope
/// that pushed the frame (or, on a worker thread, the scope it was handed
/// from) holds the store.
type Link = Option<(usize, SpanContext)>;

/// One open scope on a thread's stack.
struct Frame {
    /// Identifies the frame, so a scope dropped out of order can tell its
    /// own frame from one pushed after its own was discarded.
    id: u64,
    /// `;`-joined profile path ending in this scope (empty when no
    /// profile sink is attached).
    path: String,
    /// Inclusive micros of finished children, subtracted from this scope's
    /// inclusive time to give its exclusive time.
    child_micros: u64,
    link: Link,
}

struct Stack {
    frames: Vec<Frame>,
    next_id: u64,
}

impl Stack {
    fn push(&mut self, path: String, link: Link) -> (usize, u64) {
        self.next_id += 1;
        self.frames.push(Frame {
            id: self.next_id,
            path,
            child_micros: 0,
            link,
        });
        (self.frames.len() - 1, self.next_id)
    }

    /// Pops the frame `(index, id)` together with any deeper frames left
    /// behind by scopes dropped out of order, and charges `micros` to the
    /// frame below. `None` if the frame was already discarded.
    fn pop(&mut self, (index, id): (usize, u64), micros: u64) -> Option<Frame> {
        if self.frames.get(index).map(|f| f.id) != Some(id) {
            return None;
        }
        self.frames.truncate(index + 1);
        let mine = self.frames.pop();
        if let Some(parent) = self.frames.last_mut() {
            parent.child_micros += micros;
        }
        mine
    }
}

thread_local! {
    /// The open scopes of this thread, shared by every handle, so nested
    /// scopes compose into one path even across components.
    static STACK: RefCell<Stack> = const {
        RefCell::new(Stack {
            frames: Vec::new(),
            next_id: 0,
        })
    };
}

/// A span being recorded: created when a scope opens inside a sampled
/// trace, filed into the store when it finishes.
#[derive(Debug)]
struct OpenSpan {
    store: Arc<TraceStore>,
    ctx: SpanContext,
    parent: Option<SpanId>,
    name: &'static str,
    bytes: u64,
    records: u64,
    attrs: Vec<(String, String)>,
}

/// A timed stage: created by [`Telemetry::scope`](crate::Telemetry::scope),
/// [`Telemetry::scope_with`](crate::Telemetry::scope_with) or
/// [`Telemetry::root`](crate::Telemetry::root), recorded into every sink
/// of its handle when it finishes or drops. The disabled handle's scope
/// holds `None`.
///
/// Deliberately `!Send`: the scope sits on the stack of the thread that
/// opened it, so it must finish there.
#[derive(Debug)]
#[must_use = "a scope times the stage until it is finished or dropped"]
pub struct Scope {
    live: Option<Live>,
    _not_send: PhantomData<*const ()>,
}

/// What the scope of a live handle, or a worker's entered parent, holds.
#[derive(Debug)]
struct Live {
    /// When the scope opened; `None` for an entered parent, which times
    /// nothing.
    start: Option<Stopwatch>,
    micros: Histogram,
    span: Option<Box<OpenSpan>>,
    profile: Option<Arc<ProfileStore>>,
    /// This scope's frame on the thread's stack, if it pushed one.
    frame: Option<(usize, u64)>,
}

impl Scope {
    /// The scope of a disabled handle: records nothing.
    pub(crate) fn inert() -> Self {
        Scope {
            live: None,
            _not_send: PhantomData,
        }
    }

    fn live(live: Live) -> Self {
        Scope {
            live: Some(live),
            _not_send: PhantomData,
        }
    }

    /// Opens a live scope: pushes a frame when a trace or profile sink
    /// needs one, then reads the clock.
    pub(crate) fn open(sinks: &Sinks, name: &'static str, micros: Histogram, root: bool) -> Self {
        let mut live = Live {
            start: None,
            micros,
            span: None,
            profile: sinks.profile.clone(),
            frame: None,
        };
        if sinks.trace.is_some() || sinks.profile.is_some() {
            STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                let parent = stack.frames.last();
                let inherited = parent.and_then(|f| f.link);
                let link = match &sinks.trace {
                    Some(store) => {
                        let (link, span) = open_span(store, inherited, root, name);
                        live.span = span;
                        link
                    }
                    None => inherited,
                };
                let path = match (&sinks.profile, parent) {
                    (None, _) => String::new(),
                    (Some(_), Some(p)) if !p.path.is_empty() => format!("{};{name}", p.path),
                    (Some(_), _) => name.to_owned(),
                };
                live.frame = Some(stack.push(path, link));
            });
        }
        live.start = Some(clock::start());
        Scope::live(live)
    }

    fn span(&mut self) -> Option<&mut OpenSpan> {
        self.live.as_mut()?.span.as_deref_mut()
    }

    /// Whether this scope records a trace span (false outside sampled
    /// traces and for the disabled handle).
    pub fn is_recording(&self) -> bool {
        self.live.as_ref().is_some_and(|l| l.span.is_some())
    }

    /// Attaches an attribute to the span. `value` is formatted only when
    /// the span records.
    pub fn annotate(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(span) = self.span() {
            span.attrs.push((key.to_owned(), value.to_string()));
        }
    }

    /// Adds payload bytes to the span's annotation.
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(span) = self.span() {
            span.bytes += n;
        }
    }

    /// Adds payload records/summaries to the span's annotation.
    pub fn add_records(&mut self, n: u64) {
        if let Some(span) = self.span() {
            span.records += n;
        }
    }

    /// Ends the scope now and returns its elapsed microseconds — the one
    /// value the histogram, the span and the profile path all received
    /// (0 for the disabled handle).
    pub fn finish(mut self) -> u64 {
        self.live.take().map_or(0, Live::record)
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.record();
        }
    }
}

impl Live {
    /// Reads the clock once more, pops the frame, and files the one
    /// reading into every sink.
    fn record(self) -> u64 {
        let micros = self.start.map_or(0, |start| start.elapsed_micros());
        let frame = self
            .frame
            .and_then(|frame| STACK.with(|s| s.borrow_mut().pop(frame, micros)));
        let Some(start) = self.start else {
            // A worker's entered parent: nothing was timed.
            return 0;
        };
        self.micros.record(micros);
        if let (Some(store), Some(frame)) = (&self.profile, &frame) {
            let exclusive = micros.saturating_sub(frame.child_micros);
            store.record(&frame.path, micros, exclusive);
        }
        if let Some(span) = self.span {
            let OpenSpan {
                store,
                ctx,
                parent,
                name,
                bytes,
                records,
                attrs,
            } = *span;
            store.push(SpanRecord {
                trace: ctx.trace,
                id: ctx.span,
                parent,
                name: name.to_owned(),
                start_micros: store.micros_since_epoch(start),
                duration_micros: micros,
                bytes,
                records,
                attrs,
            });
        }
        micros
    }
}

/// Decides a new frame's trace link and, if it is sampled, opens its span.
/// A root makes the head-sampling decision and starts a new trace; any
/// other scope joins the open span of `store`'s sampled trace, or keeps
/// its parent's link. The scopes under an unsampled root are outside any
/// sampled trace, so they record no spans.
fn open_span(
    store: &Arc<TraceStore>,
    inherited: Link,
    root: bool,
    name: &'static str,
) -> (Link, Option<Box<OpenSpan>>) {
    let id = Arc::as_ptr(store) as usize;
    let parent = match inherited {
        _ if root => {
            if !store.sample_decision() {
                return (None, None);
            }
            None
        }
        Some((of, ctx)) if of == id => Some(ctx),
        _ => return (inherited, None),
    };
    let ctx = SpanContext {
        trace: parent.map_or_else(|| store.alloc_trace(), |p| p.trace),
        span: store.alloc_span(),
    };
    let span = OpenSpan {
        store: Arc::clone(store),
        ctx,
        parent: parent.map(|p| p.span),
        name,
        bytes: 0,
        records: 0,
        attrs: Vec::new(),
    };
    (Some((id, ctx)), Some(Box::new(span)))
}

/// A thread's innermost open scope, carried to a worker thread so the
/// worker's scopes join the same trace and profile path — the explicit
/// hand-off a thread boundary needs, since a [`Scope`] cannot cross one.
/// Empty when no scope with a trace or profile sink is open.
#[derive(Debug)]
pub struct ScopeParent(Option<(String, Link)>);

impl ScopeParent {
    /// The calling thread's innermost open scope.
    pub fn current() -> Self {
        ScopeParent(STACK.with(|s| s.borrow().frames.last().map(|f| (f.path.clone(), f.link))))
    }

    /// Makes this parent the calling thread's innermost open scope until
    /// the returned scope drops; it times nothing itself. Entering an
    /// empty parent does nothing.
    pub fn enter(&self) -> Scope {
        let Some((path, link)) = &self.0 else {
            return Scope::inert();
        };
        let frame = STACK.with(|s| s.borrow_mut().push(path.clone(), *link));
        Scope::live(Live {
            start: None,
            micros: Histogram::noop(),
            span: None,
            profile: None,
            frame: Some(frame),
        })
    }
}
