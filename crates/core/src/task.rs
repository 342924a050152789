//! The scheduling unit: a subnet stage's forward or backward pass.
//!
//! NASPipe's runtime partitions each subnet into `D` stages (one per GPU)
//! and schedules each stage's forward and backward passes independently; a
//! *task* — identified by (kind, subnet ID, stage ID) — is the minimal unit
//! of execution and scheduling (§3.2).

use crate::pipeline::TaskRecord;
use crate::stage::Mark;
use naspipe_obs::{
    CausalEdge, CauseKind, Counter, EventBus, Recorder, RunEvent, Sample, SpanDraft, SpanId,
    SpanKind, Tracer,
};
use naspipe_sim::time::SimTime;
use naspipe_supernet::subnet::SubnetId;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// Index of a pipeline stage; stage `k` runs on GPU `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StageId(pub u32);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Forward (parameter READ) or backward (parameter WRITE, including the
/// optimizer step) pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskKind {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Forward => f.write_str("fwd"),
            TaskKind::Backward => f.write_str("bwd"),
        }
    }
}

/// One schedulable unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Task {
    /// Forward or backward.
    pub kind: TaskKind,
    /// The subnet this task belongs to.
    pub subnet: SubnetId,
    /// The pipeline stage (GPU) it runs on.
    pub stage: StageId,
}

impl Task {
    /// Creates a forward task.
    pub fn forward(subnet: SubnetId, stage: StageId) -> Self {
        Self {
            kind: TaskKind::Forward,
            subnet,
            stage,
        }
    }

    /// Creates a backward task.
    pub fn backward(subnet: SubnetId, stage: StageId) -> Self {
        Self {
            kind: TaskKind::Backward,
            subnet,
            stage,
        }
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}@{}", self.subnet, self.kind, self.stage)
    }
}

/// One thing a task waited on, as a cause candidate: the edge it would
/// start on, and when that cause finished (its arrival, the CSP writer
/// that released a forward, or a DES fetch).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    pub(crate) edge: CausalEdge,
    pub(crate) at: SimTime,
}

impl Arrival {
    pub(crate) fn new(src: SpanId, kind: CauseKind, at: SimTime) -> Self {
        let edge = CausalEdge { src, kind };
        Arrival { edge, at }
    }

    /// A forward's input: an activation, or at injection the batch.
    pub(crate) fn forward(src: SpanId, at: SimTime) -> Self {
        let kind = if src.is_external() {
            CauseKind::Injection
        } else {
            CauseKind::ActivationArrival
        };
        Arrival::new(src, kind, at)
    }

    /// A backward's gradient from span `src`.
    pub(crate) fn backward(src: SpanId, at: SimTime) -> Self {
        Arrival::new(src, CauseKind::GradientArrival, at)
    }

    /// The write that last released a layer a forward reads.
    pub(crate) fn writer(mark: Mark) -> Self {
        let writer = mark.writer;
        let kind = CauseKind::CspWriterCompletion { writer };
        Arrival::new(mark.span, kind, SimTime::from_us(mark.at))
    }
}

/// One task from admission to record: the only code that turns a task
/// into its views (flight-ring admission, spans and causal edge, ledger,
/// [`TaskRecord`]), for the DES and the stage worker alike. The engines
/// differ only in the times they pass: the DES's backward halves run
/// back to back, the worker's hand-off upstream is the gap between them.
pub(crate) struct TaskEvent {
    // Its bounds are the first span's until `close`.
    record: TaskRecord,
    cause: Option<Arrival>,
    span: SpanId,
}

impl TaskEvent {
    /// Opens `task`, covering `blocks` of its subnet, admitted at `at_us`.
    pub(crate) fn open(task: Task, blocks: Range<usize>, bus: &EventBus, at_us: u64) -> Self {
        let (kind, subnet, stage) = (task.kind, task.subnet, task.stage);
        if kind == TaskKind::Forward {
            bus.emit(stage.0, at_us, RunEvent::Admission { subnet: subnet.0 });
        }
        let (start, end) = (SimTime::ZERO, SimTime::ZERO);
        let record = TaskRecord {
            start,
            end,
            kind,
            subnet,
            stage,
            blocks,
        };
        let (cause, span) = (None, SpanId::EXTERNAL);
        TaskEvent {
            record,
            cause,
            span,
        }
    }

    /// Keeps the latest-finishing candidate as the cause: everything
    /// earlier was satisfied by then. A tie keeps the earlier offer. The
    /// stage finishing its previous task is the analyzer's to derive.
    pub(crate) fn bind(&mut self, candidate: Arrival) {
        if self.cause.is_none_or(|c| candidate.at > c.at) {
            self.cause = Some(candidate);
        }
    }

    pub(crate) fn cause(&self) -> Option<CausalEdge> {
        self.cause.map(|c| c.edge)
    }

    fn draft(&self, kind: SpanKind, ran: (u64, u64), cause: Option<CausalEdge>) -> SpanDraft {
        let (stage, subnet) = (self.record.stage.0, self.record.subnet.0);
        let draft = SpanDraft::new(stage, kind, ran.0, ran.1).subnet(subnet);
        SpanDraft { cause, ..draft }
    }

    /// Traces the first span over `ran` (µs) with the bound cause and
    /// returns its id, which the task's hand-off names.
    pub(crate) fn emit(&mut self, tracer: &mut dyn Tracer, ran: (u64, u64)) -> SpanId {
        let kind = match self.record.kind {
            TaskKind::Forward => SpanKind::Forward,
            TaskKind::Backward => SpanKind::Backward,
        };
        self.span = tracer.emit(self.draft(kind, ran, self.cause()));
        (self.record.start, self.record.end) = (SimTime::from_us(ran.0), SimTime::from_us(ran.1));
        self.span
    }

    /// Closes the task after [`emit`](Self::emit): traces a split
    /// backward's `Update` over `update` (µs; no cause, its own input half
    /// released it), counts the task and its latency from the first span's
    /// start to the last one's end into `ledger`, and returns its record
    /// and the span it ended on.
    pub(crate) fn close(
        mut self,
        tracer: &mut dyn Tracer,
        ledger: &mut impl Recorder,
        update: Option<(u64, u64)>,
    ) -> (TaskRecord, SpanId) {
        if let Some(half) = update {
            self.span = tracer.emit(self.draft(SpanKind::Update, half, None));
            self.record.end = SimTime::from_us(half.1);
        }
        let (r, stage) = (&self.record, self.record.stage.0);
        let (latency, count) = match r.kind {
            TaskKind::Forward => (Sample::ForwardLatencyUs, Counter::ForwardTask),
            TaskKind::Backward => (Sample::BackwardLatencyUs, Counter::BackwardTask),
        };
        ledger.sample(stage, latency, r.end.since(r.start).as_us());
        ledger.incr(stage, count, 1);
        (self.record, self.span)
    }
}

/// The finished list `L_f` with the paper's elimination scheme: when all
/// subnets below a sequence ID have finished, they are dropped from both
/// the set and future dependency checks (§3.2, complexity analysis).
///
/// Stored densely: `prefix` is the smallest unfinished ID and
/// `window[i]` says whether `prefix + i` finished, so a membership test
/// is one compare and one indexed load. The window never ends in `false`
/// (it only grows to mark an ID finished and only shrinks from the
/// front), so equal sets have equal representations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FinishedSet {
    prefix: u64,
    window: VecDeque<bool>,
    retained: usize,
}

impl FinishedSet {
    /// Creates an empty set (nothing finished).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `id` finished.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already finished (double completion is a
    /// scheduler bug).
    pub fn insert(&mut self, id: SubnetId) {
        assert!(!self.contains(id), "{id} finished twice");
        if id.0 == self.prefix {
            self.prefix += 1;
            self.window.pop_front();
            while self.window.front() == Some(&true) {
                self.window.pop_front();
                self.prefix += 1;
                self.retained -= 1;
            }
        } else {
            let idx = (id.0 - self.prefix) as usize;
            if idx >= self.window.len() {
                self.window.resize(idx + 1, false);
            }
            self.window[idx] = true;
            self.retained += 1;
        }
    }

    /// Whether `id` has finished.
    #[inline]
    pub fn contains(&self, id: SubnetId) -> bool {
        id.0 < self.prefix
            || self
                .window
                .get((id.0 - self.prefix) as usize)
                .copied()
                .unwrap_or(false)
    }

    /// The smallest unfinished sequence ID. Dependency checks only need to
    /// scan from here (the elimination scheme).
    pub fn first_unfinished(&self) -> SubnetId {
        SubnetId(self.prefix)
    }

    /// Number of finished entries retained beyond the prefix (bounded by
    /// the scheduling window in practice).
    pub fn retained(&self) -> usize {
        self.retained
    }
}

/// Asserts that a finished run's views of its tasks agree, per stage of
/// `stages` (the ledger): its forward and backward counts equal the
/// stage's records and its `Forward` and `Backward` spans, and its
/// longest latency of each kind is the stage's longest record.
#[cfg(test)]
pub(crate) fn assert_views_agree(
    tasks: &[TaskRecord],
    spans: &naspipe_obs::SpanTrace,
    stages: &[naspipe_obs::report::StageObs],
) {
    for s in stages {
        let mine = |kind| (tasks.iter()).filter(move |t| t.stage.0 == s.stage && t.kind == kind);
        let records = |kind| mine(kind).count() as u64;
        let traced = |kind| spans.of_kind(kind).filter(|x| x.stage == s.stage).count() as u64;
        let longest = |kind| mine(kind).map(|t| t.end.since(t.start).as_us()).max();
        let (fwd, bwd) = (TaskKind::Forward, TaskKind::Backward);
        let counted = (s.forward_tasks, s.backward_tasks);
        let stage = s.stage;
        assert_eq!(
            counted,
            (records(fwd), records(bwd)),
            "stage {stage}: records"
        );
        let spanned = (traced(SpanKind::Forward), traced(SpanKind::Backward));
        assert_eq!(counted, spanned, "stage {stage}: task spans");
        let latency = (s.fwd_latency_max_us, s.bwd_latency_max_us);
        let longest = (longest(fwd).unwrap_or(0), longest(bwd).unwrap_or(0));
        assert_eq!(latency, longest, "stage {stage}: longest latency");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naspipe_obs::{DiagnosticsOptions, MetricsRecorder, NullTracer, Span, SpanTracer};

    fn bus() -> EventBus {
        EventBus::new("des", 2, &DiagnosticsOptions::disabled(), None, false)
    }

    fn arrival(src: u64, at: u64) -> Arrival {
        Arrival::backward(SpanId(src), SimTime::from_us(at))
    }

    /// `task`, bound to `arrival(7, 1)`, run over `ran` and closed with
    /// `update`: its spans, its record and the ledger it wrote.
    fn run(
        task: Task,
        ran: (u64, u64),
        update: Option<(u64, u64)>,
    ) -> (Vec<Span>, TaskRecord, MetricsRecorder) {
        let (mut tracer, mut ledger) = (SpanTracer::new(), MetricsRecorder::new());
        let mut event = TaskEvent::open(task, 2..5, &bus(), ran.0);
        event.bind(arrival(7, 1));
        let first = event.emit(&mut tracer, ran);
        let (record, last) = event.close(&mut tracer, &mut ledger, update);
        let spans = tracer.take().spans().to_vec();
        assert_eq!(
            spans
                .iter()
                .find(|s| s.kind != SpanKind::Update)
                .unwrap()
                .id,
            first
        );
        assert_eq!(
            spans.iter().map(|s| s.id).max(),
            Some(last),
            "it ends on its last span"
        );
        (spans, record, ledger)
    }

    #[test]
    fn the_latest_finishing_candidate_is_the_cause_and_a_tie_keeps_the_first() {
        let mut event = TaskEvent::open(Task::forward(SubnetId(3), StageId(1)), 0..1, &bus(), 0);
        assert_eq!(event.cause(), None);
        event.bind(arrival(1, 10));
        event.bind(arrival(2, 30));
        event.bind(arrival(3, 20));
        assert_eq!(event.cause(), Some(arrival(2, 30).edge), "the latest wins");
        event.bind(arrival(4, 30));
        assert_eq!(
            event.cause(),
            Some(arrival(2, 30).edge),
            "a tie keeps the earlier"
        );
        let mark = Mark {
            writer: 2,
            span: SpanId(5),
            at: 31,
        };
        event.bind(Arrival::writer(mark));
        let writer = CauseKind::CspWriterCompletion { writer: 2 };
        assert_eq!(
            event.cause().map(|e| (e.src, e.kind)),
            Some((SpanId(5), writer))
        );
    }

    #[test]
    fn a_forward_is_one_span_with_its_cause_and_one_record() {
        let task = Task::forward(SubnetId(4), StageId(1));
        let (spans, record, ledger) = run(task, (10, 25), None);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        let shape = (s.kind, s.stage, s.subnet, s.start_us, s.end_us);
        assert_eq!(shape, (SpanKind::Forward, 1, Some(4), 10, 25));
        assert_eq!(s.cause, Some(arrival(7, 1).edge));
        let want = (
            SimTime::from_us(10),
            SimTime::from_us(25),
            TaskKind::Forward,
        );
        assert_eq!((record.start, record.end, record.kind), want);
        assert_eq!(
            (record.subnet, record.stage, record.blocks),
            (SubnetId(4), StageId(1), 2..5)
        );
        let stage = ledger.stage(1).expect("the task's stage counted");
        assert_eq!(stage.counter(Counter::ForwardTask), 1);
        assert_eq!(stage.counter(Counter::BackwardTask), 0);
        assert_eq!(stage.histogram(Sample::ForwardLatencyUs).max, 15);
    }

    #[test]
    fn a_split_backward_is_its_input_half_with_the_cause_then_its_update() {
        let task = Task::backward(SubnetId(4), StageId(0));
        // The gap 14..16 is the hand-off upstream.
        let (spans, record, ledger) = run(task, (10, 14), Some((16, 30)));
        let shape: Vec<_> = (spans.iter())
            .map(|s| (s.kind, s.start_us, s.end_us, s.cause))
            .collect();
        let input = (SpanKind::Backward, 10, 14, Some(arrival(7, 1).edge));
        assert_eq!(shape, [input, (SpanKind::Update, 16, 30, None)]);
        let bounds = (record.start.as_us(), record.end.as_us());
        assert_eq!(bounds, (10, 30), "Backward.start .. Update.end");
        let stage = ledger.stage(0).unwrap();
        assert_eq!(stage.counter(Counter::BackwardTask), 1);
        assert_eq!(stage.histogram(Sample::BackwardLatencyUs).max, 20);
    }

    #[test]
    fn a_fused_backward_is_one_span() {
        let task = Task::backward(SubnetId(4), StageId(0));
        let (spans, record, _) = run(task, (10, 22), None);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].kind, spans[0].end_us), (SpanKind::Backward, 22));
        assert_eq!((record.start.as_us(), record.end.as_us()), (10, 22));
    }

    #[test]
    fn an_untraced_task_still_records_and_counts() {
        let mut ledger = MetricsRecorder::new();
        let task = Task::backward(SubnetId(9), StageId(1));
        let mut event = TaskEvent::open(task, 0..3, &bus(), 5);
        assert_eq!(event.emit(&mut NullTracer, (5, 8)), SpanId::EXTERNAL);
        let (record, span) = event.close(&mut NullTracer, &mut ledger, Some((8, 12)));
        assert_eq!(span, SpanId::EXTERNAL);
        assert_eq!((record.start.as_us(), record.end.as_us()), (5, 12));
        let stage = ledger.stage(1).unwrap();
        assert_eq!(stage.counter(Counter::BackwardTask), 1);
        assert_eq!(stage.histogram(Sample::BackwardLatencyUs).max, 7);
    }

    #[test]
    fn task_constructors_and_display() {
        let f = Task::forward(SubnetId(2), StageId(0));
        let b = Task::backward(SubnetId(2), StageId(3));
        assert_eq!(f.kind, TaskKind::Forward);
        assert_eq!(b.kind, TaskKind::Backward);
        assert_eq!(f.to_string(), "SN2.fwd@P0");
        assert_eq!(b.to_string(), "SN2.bwd@P3");
    }

    #[test]
    fn finished_prefix_advances() {
        let mut f = FinishedSet::new();
        f.insert(SubnetId(1));
        f.insert(SubnetId(2));
        assert_eq!(f.first_unfinished(), SubnetId(0));
        assert_eq!(f.retained(), 2);
        f.insert(SubnetId(0));
        assert_eq!(f.first_unfinished(), SubnetId(3));
        assert_eq!(f.retained(), 0);
        assert!(f.contains(SubnetId(1)));
        assert!(!f.contains(SubnetId(3)));
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn double_insert_panics() {
        let mut f = FinishedSet::new();
        f.insert(SubnetId(3));
        f.insert(SubnetId(3));
    }
}
