//! Per-task span tracing with causal edges.
//!
//! Where [`crate::metrics`] aggregates (counters and histograms), this
//! module records *timelines*: one [`Span`] per unit of runtime work —
//! forward/backward/update execution, parameter fetch/prefetch, activation
//! recomputation, checkpoint, restart — each carrying the stage
//! it ran on, the subnet it belongs to, and a **causal edge**
//! naming *why it started when it did*: the predecessor stage's
//! activation arrival, a shared-layer writer's backward completion (the
//! CSP admission rule firing), a cache fetch completing, or a recovery
//! replay. An eviction takes no time and happens only to make room for
//! a swap-in, so it is not a span of its own: the fetch or prefetch that
//! forced it carries the count ([`Span::evicted`]).
//!
//! Emission mirrors the [`Recorder`](crate::Recorder) pattern: runtimes
//! talk to a [`Tracer`] ([`SpanTracer`] buffers in memory, [`NullTracer`]
//! drops everything at zero cost); per-worker tracers from the threaded
//! runtime get distinct id namespaces and their buffers merge into one
//! [`SpanTrace`] after join. Two consumers sit downstream: the Chrome
//! trace-event exporter ([`crate::chrome`], loadable in Perfetto) and the
//! critical-path analyzer ([`crate::critical_path`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of one span, unique within a [`SpanTrace`].
///
/// `SpanId(0)` is the reserved *external* id: [`NullTracer`] returns it
/// for every emission, and causal edges with `src == SpanId(0)` point
/// outside the trace (e.g. the initial injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved id for events outside the trace.
    pub const EXTERNAL: SpanId = SpanId(0);

    /// Whether this id points outside the trace.
    pub fn is_external(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// What kind of work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A forward task executing on a stage.
    Forward,
    /// A backward task executing on a stage: its input-gradient half,
    /// up to the gradient's hand-off upstream in the threaded runtime.
    Backward,
    /// Hoisted activation recomputation ahead of the backward wave.
    Recompute,
    /// A synchronous parameter fetch (cache miss) over PCIe.
    Fetch,
    /// An asynchronous parameter prefetch over PCIe.
    Prefetch,
    /// A layer eviction GPU -> CPU (instantaneous). No engine emits it
    /// any more — evictions are counted on the transfer that forced them
    /// ([`Span::evicted`]) — but trace files written before that still
    /// hold these marks and must keep loading.
    Evict,
    /// A stage snapshotting its state at a CSP watermark.
    Checkpoint,
    /// The supervisor respawning a stage after a failure.
    Restart,
    /// A backward's weight half in the threaded runtime: `dL/dW` and the
    /// optimizer step, after the input gradient's hand-off returned. Its
    /// own Backward span released it, so like Recompute it carries no
    /// cause.
    Update,
}

impl SpanKind {
    /// Short lowercase name, stable across export/parse.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Recompute => "recompute",
            SpanKind::Fetch => "fetch",
            SpanKind::Prefetch => "prefetch",
            SpanKind::Evict => "evict",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Restart => "restart",
            SpanKind::Update => "update",
        }
    }

    /// Parses [`name`](Self::name) back.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        Some(match name {
            "forward" => SpanKind::Forward,
            "backward" => SpanKind::Backward,
            "recompute" => SpanKind::Recompute,
            "fetch" => SpanKind::Fetch,
            "prefetch" => SpanKind::Prefetch,
            "evict" => SpanKind::Evict,
            "checkpoint" => SpanKind::Checkpoint,
            "restart" => SpanKind::Restart,
            "update" => SpanKind::Update,
            _ => return None,
        })
    }

    /// Whether spans of this kind occupy the stage's compute resource
    /// (and therefore serialize on it). Fetch/prefetch occupy the PCIe
    /// link; evict/checkpoint/restart are bookkeeping marks.
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            SpanKind::Forward | SpanKind::Backward | SpanKind::Recompute | SpanKind::Update
        )
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a span started when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CauseKind {
    /// First-stage forward: the subnet was injected into the pipeline.
    Injection,
    /// The predecessor stage's forward output (activation) arrived.
    ActivationArrival,
    /// The successor stage's backward output (gradient) arrived.
    GradientArrival,
    /// The CSP admission rule released this forward: the named earlier
    /// subnet — the last unfinished sharer of a layer this task touches —
    /// completed its backward write.
    CspWriterCompletion {
        /// Sequence id of the earlier subnet whose write released us.
        writer: u64,
    },
    /// A synchronous cache fetch (or pending prefetch) completed.
    FetchCompletion,
    /// The task re-ran because a recovery rolled its effect back.
    RecoveryReplay {
        /// Which pipeline incarnation replays it (1 = first restart).
        incarnation: u32,
    },
}

impl CauseKind {
    /// Short kebab-case name, stable across export/parse.
    pub fn name(self) -> &'static str {
        match self {
            CauseKind::Injection => "injection",
            CauseKind::ActivationArrival => "activation-arrival",
            CauseKind::GradientArrival => "gradient-arrival",
            CauseKind::CspWriterCompletion { .. } => "csp-writer-completion",
            CauseKind::FetchCompletion => "fetch-completion",
            CauseKind::RecoveryReplay { .. } => "recovery-replay",
        }
    }
}

impl fmt::Display for CauseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CauseKind::CspWriterCompletion { writer } => {
                write!(f, "csp-writer-completion(SN{writer})")
            }
            CauseKind::RecoveryReplay { incarnation } => {
                write!(f, "recovery-replay(incarnation {incarnation})")
            }
            other => f.write_str(other.name()),
        }
    }
}

/// A causal edge: the span (and reason) that released this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CausalEdge {
    /// The releasing span ([`SpanId::EXTERNAL`] when outside the trace).
    pub src: SpanId,
    /// Why the edge exists.
    pub kind: CauseKind,
}

/// One traced unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the trace.
    pub id: SpanId,
    /// Pipeline stage the work ran on.
    pub stage: u32,
    /// What the work was.
    pub kind: SpanKind,
    /// The subnet it belongs to (`None` for e.g. evictions).
    pub subnet: Option<u64>,
    /// Start, in microseconds (simulated or wall-clock since run start).
    pub start_us: u64,
    /// End, in microseconds; `end_us == start_us` marks an instant.
    pub end_us: u64,
    /// Why the span started when it did, if known.
    pub cause: Option<CausalEdge>,
    /// Layers evicted to make room for this swap-in (saturating; 0 on
    /// every kind but `Fetch` / `Prefetch`).
    pub evicted: u16,
}

// The count rides in padding the other fields leave: a trace is a
// `Vec<Span>`, so a wider `Span` is paid once per span of every run.
const _: () = assert!(std::mem::size_of::<Span>() == 72);

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Human label, e.g. `SN3.forward@P1`.
    pub fn label(&self) -> String {
        match self.subnet {
            Some(s) => format!("SN{s}.{}@P{}", self.kind, self.stage),
            None => format!("{}@P{}", self.kind, self.stage),
        }
    }
}

/// A span minus its id — what emission sites build; the tracer assigns
/// the id (so causal edges can reference earlier emissions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanDraft {
    /// Pipeline stage the work ran on.
    pub stage: u32,
    /// What the work was.
    pub kind: SpanKind,
    /// The subnet it belongs to.
    pub subnet: Option<u64>,
    /// Start microseconds.
    pub start_us: u64,
    /// End microseconds.
    pub end_us: u64,
    /// Why the span started when it did.
    pub cause: Option<CausalEdge>,
    /// Layers evicted to make room for this swap-in.
    pub evicted: u16,
}

impl SpanDraft {
    /// A draft covering `[start_us, end_us]` of `kind` work on `stage`.
    pub fn new(stage: u32, kind: SpanKind, start_us: u64, end_us: u64) -> Self {
        SpanDraft {
            stage,
            kind,
            subnet: None,
            start_us,
            end_us,
            cause: None,
            evicted: 0,
        }
    }

    /// Attaches the subnet.
    pub fn subnet(mut self, subnet: u64) -> Self {
        self.subnet = Some(subnet);
        self
    }

    /// Attaches the causal edge.
    pub fn caused_by(mut self, src: SpanId, kind: CauseKind) -> Self {
        self.cause = Some(CausalEdge { src, kind });
        self
    }

    /// Attaches the number of layers this swap-in evicted, saturating at
    /// `u16::MAX`.
    pub fn evicted(mut self, layers: u64) -> Self {
        self.evicted = u16::try_from(layers).unwrap_or(u16::MAX);
        self
    }
}

/// Sink for spans. Mirrors [`Recorder`](crate::Recorder): emission sites
/// stay compiled against the trait, and tests or benchmark paths
/// substitute [`NullTracer`] to prove tracing never perturbs a run.
pub trait Tracer: Send {
    /// Records one span and returns its assigned id (so later spans can
    /// name it in a causal edge). [`NullTracer`] returns
    /// [`SpanId::EXTERNAL`].
    fn emit(&mut self, draft: SpanDraft) -> SpanId;

    /// Whether emissions are recorded (`false` lets hot paths skip
    /// building drafts).
    fn enabled(&self) -> bool {
        true
    }

    /// Takes the buffered spans, leaving the tracer empty.
    fn take(&mut self) -> SpanTrace {
        SpanTrace::default()
    }
}

/// A tracer that drops everything at zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn emit(&mut self, _draft: SpanDraft) -> SpanId {
        SpanId::EXTERNAL
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// Bits reserved for the per-emission counter within a [`SpanTracer`]
/// id; the namespace occupies the bits above.
const NAMESPACE_SHIFT: u32 = 40;

/// The one ordering rule of the store: start, then end, then id. Ids are
/// unique within a trace, so the order is total.
fn order_key(span: &Span) -> (u64, u64, SpanId) {
    (span.start_us, span.end_us, span.id)
}

/// How many places back [`SpanTracer::emit`] will carry a span to keep
/// the buffer ordered. Keeping order costs a key comparison and 72 moved
/// bytes per place, so the window also bounds what staying ordered may
/// cost per span: about what the fallback sort costs per span at a
/// million spans. The DES emits almost in order — a prefetch starts when
/// its PCIe link frees up, a little ahead of the task spans emitted after
/// it: half a place back per span on the paper's 8-GPU shape and never
/// more than 100 on 1 to 32 GPUs, so no such run leaves the window.
const ORDER_WINDOW: usize = 256;

/// The in-memory [`Tracer`]: a span buffer kept in canonical
/// `(start, end, id)` order as it is filled.
///
/// A new span is inserted behind the few buffered spans that start after
/// it; a stream that would carry one further than the window back is
/// buffered as it comes and sorted once, in [`take`](Tracer::take).
///
/// The threaded runtime gives each stage worker its own tracer under a
/// distinct *namespace* so ids never collide across workers, then merges
/// the buffers after join — recording never contends on a lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTracer {
    namespace: u64,
    next: u64,
    spans: Vec<Span>,
    /// Set by the first span that left the window: `spans` is in emission
    /// order from there on.
    unordered: bool,
}

impl SpanTracer {
    /// A tracer in namespace 0 (ids 1, 2, 3, ...).
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracer whose ids live in `namespace` (`namespace << 40 | seq`,
    /// never colliding with another namespace's ids).
    pub fn with_namespace(namespace: u64) -> Self {
        SpanTracer {
            namespace,
            ..Self::default()
        }
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

impl Tracer for SpanTracer {
    fn emit(&mut self, draft: SpanDraft) -> SpanId {
        self.next += 1;
        let id = SpanId((self.namespace << NAMESPACE_SHIFT) | self.next);
        let span = Span {
            id,
            stage: draft.stage,
            kind: draft.kind,
            subnet: draft.subnet,
            start_us: draft.start_us,
            end_us: draft.end_us,
            cause: draft.cause,
            evicted: draft.evicted,
        };
        let len = self.spans.len();
        let mut at = len;
        if !self.unordered {
            let key = order_key(&span);
            while at > 0 && order_key(&self.spans[at - 1]) > key {
                if len - at == ORDER_WINDOW {
                    self.unordered = true;
                    at = len;
                    break;
                }
                at -= 1;
            }
        }
        self.spans.insert(at, span);
        id
    }

    fn take(&mut self) -> SpanTrace {
        let spans = std::mem::take(&mut self.spans);
        if std::mem::take(&mut self.unordered) {
            SpanTrace::from_spans(spans)
        } else {
            SpanTrace::ordered(spans)
        }
    }
}

/// An immutable, time-ordered collection of spans — the unit the
/// exporter and analyzer consume.
///
/// `spans` is in canonical order in every value of this type, whoever
/// built it. The id index is derived from it on the first
/// [`get`](Self::get) and is no part of the value: it is not compared,
/// and [`merge`](Self::merge) drops it.
#[derive(Clone, Default)]
pub struct SpanTrace {
    spans: Vec<Span>,
    index: OnceLock<HashMap<SpanId, usize>>,
}

impl PartialEq for SpanTrace {
    fn eq(&self, other: &Self) -> bool {
        self.spans == other.spans
    }
}

impl Eq for SpanTrace {}

impl fmt::Debug for SpanTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanTrace")
            .field("spans", &self.spans)
            .finish()
    }
}

impl SpanTrace {
    /// Builds a trace from raw spans in any order (sorting them into
    /// canonical `(start, end, id)` order).
    pub fn from_spans(mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(order_key);
        Self::ordered(spans)
    }

    /// Wraps spans that are already in canonical order.
    fn ordered(spans: Vec<Span>) -> Self {
        debug_assert!(spans
            .windows(2)
            .all(|w| order_key(&w[0]) <= order_key(&w[1])));
        SpanTrace {
            spans,
            index: OnceLock::new(),
        }
    }

    /// All spans in `(start, end, id)` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The span with `id`, if present (the first in order, should a
    /// hand-built trace repeat an id). The first call indexes the trace.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        let index = self.index.get_or_init(|| {
            let mut index = HashMap::with_capacity(self.spans.len());
            for (at, span) in self.spans.iter().enumerate().rev() {
                index.insert(span.id, at);
            }
            index
        });
        index.get(&id).map(|&at| &self.spans[at])
    }

    /// Spans of one kind, in time order.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Number of stages spanned (max stage index + 1; 0 when empty).
    pub fn num_stages(&self) -> u32 {
        self.spans.iter().map(|s| s.stage + 1).max().unwrap_or(0)
    }

    /// Latest end over the *compute* spans — the schedule makespan. The
    /// trailing edge of an async prefetch does not extend a run.
    pub fn makespan_us(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.is_compute())
            .map(|s| s.end_us)
            .max()
            .unwrap_or(0)
    }

    /// Folds `other`'s spans into `self` (per-worker buffer merge): one
    /// pass over the two ordered runs.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the two traces share a span id — merge
    /// only tracers created under distinct namespaces.
    pub fn merge(&mut self, other: SpanTrace) {
        #[cfg(debug_assertions)]
        {
            use std::collections::BTreeSet;
            let mine: BTreeSet<SpanId> = self.spans.iter().map(|s| s.id).collect();
            for s in &other.spans {
                debug_assert!(!mine.contains(&s.id), "span id {} collides in merge", s.id);
            }
        }
        self.index = OnceLock::new();
        if self.spans.is_empty() {
            self.spans = other.spans;
            return;
        }
        if other.spans.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.spans.len() + other.spans.len());
        let mut mine = std::mem::take(&mut self.spans).into_iter().peekable();
        let mut theirs = other.spans.into_iter().peekable();
        while let (Some(a), Some(b)) = (mine.peek(), theirs.peek()) {
            let next = if order_key(a) <= order_key(b) {
                mine.next()
            } else {
                theirs.next()
            };
            merged.extend(next);
        }
        merged.extend(mine);
        merged.extend(theirs);
        self.spans = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_assigns_sequential_ids_and_take_sorts() {
        let mut t = SpanTracer::new();
        let a = t.emit(SpanDraft::new(0, SpanKind::Forward, 10, 20).subnet(0));
        let b = t.emit(
            SpanDraft::new(1, SpanKind::Forward, 0, 5)
                .subnet(0)
                .caused_by(a, CauseKind::ActivationArrival),
        );
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        let trace = t.take();
        assert_eq!(trace.len(), 2);
        // Sorted by start time, not emission order.
        assert_eq!(trace.spans()[0].id, b);
        assert_eq!(trace.get(a).unwrap().end_us, 20);
        assert!(t.is_empty(), "take drains the buffer");
    }

    /// `ORDER_WINDOW + 2` spans in order, then one that belongs `back`
    /// places before the end.
    fn late_by(back: usize) -> SpanTracer {
        let mut t = SpanTracer::new();
        let n = ORDER_WINDOW as u64 + 2;
        for i in 0..n {
            t.emit(SpanDraft::new(0, SpanKind::Checkpoint, 2 * i, 2 * i));
        }
        let start = 2 * (n - back as u64) - 1;
        t.emit(SpanDraft::new(0, SpanKind::Forward, start, start + 9));
        t
    }

    #[test]
    fn a_span_inside_the_window_is_inserted_in_place() {
        let mut t = late_by(ORDER_WINDOW);
        assert!(!t.unordered);
        let at = t.spans.len() - 1 - ORDER_WINDOW;
        assert_eq!(t.spans[at].kind, SpanKind::Forward);
        let buffered = t.spans.clone();
        assert_eq!(t.take(), SpanTrace::from_spans(buffered));
    }

    #[test]
    fn a_span_outside_the_window_falls_back_to_the_sort() {
        let mut t = late_by(ORDER_WINDOW + 1);
        assert!(t.unordered);
        assert_eq!(t.spans.last().unwrap().kind, SpanKind::Forward);
        // Unordered from here on: nothing is carried back any more.
        t.emit(SpanDraft::new(0, SpanKind::Checkpoint, 0, 0));
        assert_eq!(t.spans.last().unwrap().start_us, 0);
        let buffered = t.spans.clone();
        assert_eq!(t.take(), SpanTrace::from_spans(buffered));
        // The next run of the same tracer starts ordered again.
        assert!(!t.unordered && t.is_empty());
    }

    #[test]
    fn get_indexes_once_and_merge_drops_the_index() {
        let mut a = SpanTracer::with_namespace(1);
        let mut b = SpanTracer::with_namespace(2);
        let ia = a.emit(SpanDraft::new(0, SpanKind::Forward, 5, 9));
        let ib = b.emit(SpanDraft::new(1, SpanKind::Backward, 0, 4));
        let mut trace = a.take();
        assert!(trace.index.get().is_none(), "no lookup, no index");
        assert_eq!(trace.get(ia).map(|s| s.stage), Some(0));
        assert_eq!(trace.get(ib), None);
        assert_eq!(trace.get(SpanId::EXTERNAL), None);
        assert!(trace.index.get().is_some());
        trace.merge(b.take());
        assert!(trace.index.get().is_none());
        assert_eq!(trace.get(ib).map(|s| s.stage), Some(1));
        assert_eq!(trace.get(ia).map(|s| s.stage), Some(0));
    }

    #[test]
    fn null_tracer_returns_external() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        let id = t.emit(SpanDraft::new(0, SpanKind::Forward, 0, 1));
        assert!(id.is_external());
        assert!(t.take().is_empty());
    }

    #[test]
    fn namespaces_do_not_collide_and_merge_interleaves() {
        let mut a = SpanTracer::with_namespace(1);
        let mut b = SpanTracer::with_namespace(2);
        let ia = a.emit(SpanDraft::new(0, SpanKind::Forward, 5, 9));
        let ib = b.emit(SpanDraft::new(1, SpanKind::Backward, 0, 4));
        assert_ne!(ia, ib);
        let mut trace = a.take();
        trace.merge(b.take());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.spans()[0].id, ib, "merged trace re-sorts by start");
        assert_eq!(trace.num_stages(), 2);
    }

    #[test]
    fn makespan_ignores_io_tails() {
        let trace = SpanTrace::from_spans(vec![
            Span {
                id: SpanId(1),
                stage: 0,
                kind: SpanKind::Forward,
                subnet: Some(0),
                start_us: 0,
                end_us: 10,
                cause: None,
                evicted: 0,
            },
            Span {
                id: SpanId(2),
                stage: 0,
                kind: SpanKind::Prefetch,
                subnet: Some(1),
                start_us: 5,
                end_us: 50,
                cause: None,
                evicted: 0,
            },
        ]);
        assert_eq!(trace.makespan_us(), 10);
    }

    #[test]
    fn labels_and_names_round_trip() {
        for kind in [
            SpanKind::Forward,
            SpanKind::Backward,
            SpanKind::Recompute,
            SpanKind::Fetch,
            SpanKind::Prefetch,
            SpanKind::Evict,
            SpanKind::Checkpoint,
            SpanKind::Restart,
            SpanKind::Update,
        ] {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("nonsense"), None);
        let span = Span {
            id: SpanId(3),
            stage: 2,
            kind: SpanKind::Backward,
            subnet: Some(7),
            start_us: 0,
            end_us: 1,
            cause: None,
            evicted: 0,
        };
        assert_eq!(span.label(), "SN7.backward@P2");
        assert_eq!(
            CauseKind::CspWriterCompletion { writer: 4 }.to_string(),
            "csp-writer-completion(SN4)"
        );
    }
}
