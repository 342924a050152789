//! The ordered, indexed span store, tested against the code it replaced.
//!
//! `obs::trace` keeps a tracer's buffer in canonical `(start, end, id)`
//! order as it is filled, merges ordered runs, and answers `get` from an
//! index built on the first lookup. The model here is what it did before:
//! a comparison sort of everything emitted and a linear `find`. The pin
//! at the bottom fails if any byte of a DES trace, or of the critical
//! path derived from it, moves.

use naspipe::core::config::PipelineConfig;
use naspipe::core::pipeline::SimSpec;
use naspipe::obs::{critical_path, export_chrome, RunMeta};
use naspipe::supernet::space::SearchSpace;
use naspipe::tensor::hash::{fnv1a, FNV_OFFSET};

mod model {
    use naspipe::obs::{
        export_chrome, parse_chrome, CauseKind, RunMeta, Span, SpanDraft, SpanId, SpanKind,
        SpanTrace, SpanTracer, Tracer,
    };
    use proptest::prelude::*;

    /// The old `normalize`.
    fn reference(mut spans: Vec<Span>) -> Vec<Span> {
        spans.sort_by_key(|s| (s.start_us, s.end_us, s.id));
        spans
    }

    /// The old `get`.
    fn find(trace: &SpanTrace, id: SpanId) -> Option<&Span> {
        trace.spans().iter().find(|s| s.id == id)
    }

    /// Emission shapes. The tracer carries a span at most 256 places
    /// back before it gives up on order; `Straddle` displaces by 240 to
    /// 271, either side of that.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// A clock that creeps forward, a quarter of the spans queued up
        /// to 40 us ahead of it (prefetches behind a busy link), half of
        /// them instants.
        DesLike,
        Descending,
        Straddle,
        /// Three starts, two durations: nearly every key ties up to id.
        Ties,
        Arbitrary,
    }

    const SHAPES: [Shape; 5] = [
        Shape::DesLike,
        Shape::Descending,
        Shape::Straddle,
        Shape::Ties,
        Shape::Arbitrary,
    ];

    /// `(start, end)` of emission `i` of a stream of `shape` dealt out to
    /// `tracers` tracers, from two random words. `clock` is the stream's
    /// running state.
    fn interval(
        shape: Shape,
        tracers: u64,
        i: u64,
        (a, b): (u64, u64),
        clock: &mut u64,
    ) -> (u64, u64) {
        let (start, dur) = match shape {
            Shape::DesLike => {
                *clock += a % 3;
                let ahead = if b % 4 == 0 { b % 40 } else { 0 };
                (*clock + ahead, if a % 2 == 0 { 0 } else { b % 20 })
            }
            Shape::Descending => (1_000_000 - i, a % 3),
            // One tracer sees every `tracers`-th emission.
            Shape::Straddle if i > 300 * tracers && a % 61 == 0 => {
                (2 * (i - (240 + b % 32) * tracers) - 1, 0)
            }
            Shape::Straddle => (2 * i, 0),
            Shape::Ties => (a % 3, b % 2),
            Shape::Arbitrary => (a, b % 50),
        };
        (start, start + dur)
    }

    /// A shape, a tracer count, and per emission two random words and the
    /// tracer it goes to.
    type Case = (usize, usize, Vec<(u64, u64, usize)>);

    fn cases() -> impl Strategy<Value = Case> {
        (0..SHAPES.len(), 1usize..5).prop_flat_map(|(shape, tracers)| {
            let len = match SHAPES[shape] {
                Shape::Straddle => 600 * tracers..900 * tracers,
                _ => 0..300,
            };
            let raw = proptest::collection::vec((0u64..1000, 0u64..1000, 0..tracers), len);
            (Just(shape), Just(tracers), raw)
        })
    }

    /// Runs the case: what each tracer was given (with the ids it handed
    /// back) and the tracers themselves, not yet taken.
    fn emit_all((shape, tracers, raw): &Case) -> (Vec<Vec<Span>>, Vec<SpanTracer>) {
        let mut emitted = vec![Vec::new(); *tracers];
        let mut sinks: Vec<SpanTracer> = (0..*tracers as u64)
            .map(SpanTracer::with_namespace)
            .collect();
        let mut clock = 0;
        let mut prev = SpanId::EXTERNAL;
        for (i, &(a, b, to)) in raw.iter().enumerate() {
            let (start_us, end_us) = interval(
                SHAPES[*shape],
                *tracers as u64,
                i as u64,
                (a, b),
                &mut clock,
            );
            let kind = if start_us == end_us {
                SpanKind::Checkpoint
            } else {
                SpanKind::Forward
            };
            let draft = SpanDraft::new(to as u32, kind, start_us, end_us)
                .subnet(i as u64)
                .caused_by(prev, CauseKind::ActivationArrival)
                .evicted(a % 3);
            let (cause, evicted) = (draft.cause, draft.evicted);
            prev = sinks[to].emit(draft);
            emitted[to].push(Span {
                id: prev,
                stage: to as u32,
                kind,
                subnet: Some(i as u64),
                start_us,
                end_us,
                cause,
                evicted,
            });
        }
        (emitted, sinks)
    }

    proptest! {
        #[test]
        fn take_equals_the_sort_of_what_was_emitted(case in cases()) {
            let (emitted, mut sinks) = emit_all(&case);
            for (given, sink) in emitted.into_iter().zip(&mut sinks) {
                let trace = sink.take();
                prop_assert!(sink.is_empty());
                prop_assert_eq!(trace.spans(), reference(given));
            }
        }

        #[test]
        fn merge_equals_the_sort_of_the_union_in_any_order(
            case in cases(),
            rotate in 0usize..4,
            split in 0usize..5,
        ) {
            let (emitted, mut sinks) = emit_all(&case);
            let mut traces: Vec<SpanTrace> = sinks.iter_mut().map(|s| s.take()).collect();
            traces.rotate_left(rotate % case.1);
            // Two partial folds, then one trace merged into the other.
            let right = traces.split_off(split.min(traces.len()));
            let fold = |parts: Vec<SpanTrace>| {
                parts.into_iter().fold(SpanTrace::default(), |mut acc, t| {
                    acc.merge(t);
                    acc
                })
            };
            let mut merged = fold(traces);
            merged.merge(fold(right));
            let union: Vec<Span> = emitted.into_iter().flatten().collect();
            prop_assert_eq!(merged.spans(), reference(union));
        }

        #[test]
        fn get_equals_the_linear_find_before_and_after_a_merge(case in cases()) {
            let (emitted, mut sinks) = emit_all(&case);
            let ids: Vec<SpanId> = emitted
                .iter()
                .flatten()
                .map(|s| s.id)
                .chain([SpanId::EXTERNAL, SpanId(u64::MAX), SpanId(9 << 40)])
                .collect();
            let mut traces = sinks.iter_mut().map(|s| s.take());
            let mut trace = traces.next().expect("at least one tracer");
            // The first pass indexes the trace; the merge must not leave
            // that index answering for the merged one.
            for &id in &ids {
                prop_assert_eq!(trace.get(id), find(&trace, id));
            }
            for other in traces {
                trace.merge(other);
            }
            for &id in &ids {
                prop_assert_eq!(trace.get(id), find(&trace, id));
            }
        }

        #[test]
        fn chrome_round_trip_is_lossless(case in cases()) {
            let (_, mut sinks) = emit_all(&case);
            let mut trace = SpanTrace::default();
            for sink in &mut sinks {
                trace.merge(sink.take());
            }
            let meta = RunMeta::new("des", case.1 as u32).seed(7);
            let parsed = parse_chrome(&export_chrome(&trace, &meta));
            prop_assert_eq!(parsed, Ok((trace, meta)));
        }
    }
}

/// `(gpus, spans, fnv1a(export_chrome), fnv1a(critical path text))` for
/// the DES on NLP.c1, the first 200 subnets of seed 7. The critical-path
/// digests were recorded on the commit before the store was ordered by
/// construction, when `take` still sorted, and have never been
/// re-recorded. The span counts and chrome digests were re-recorded once,
/// when an eviction stopped being a span of its own and became a count
/// on the transfer that forced it (19 241, 16 868 and 16 474 `evict`
/// marks left the three traces; the spans that remain were renumbered).
const PINNED: [(u32, usize, u64, u64); 3] = [
    (4, 18130, 0x88856042dee70e5d, 0xf1ccc4848c2175c1),
    (8, 20256, 0xbb3660836ce8008e, 0xc6194bd759c3056c),
    (32, 35099, 0xd36221ecbc2b3eb7, 0xcc88790314e960bc),
];

#[test]
fn des_trace_bytes_match_the_recorded_digests() {
    let space = SearchSpace::nlp_c1();
    let got: Vec<_> = PINNED
        .iter()
        .map(|&(gpus, ..)| {
            let cfg = PipelineConfig::naspipe(gpus, 200).with_seed(7);
            let trace = SimSpec::new(&space, &cfg)
                .run()
                .expect("NLP.c1 fits under CSP")
                .spans;
            let chrome = export_chrome(&trace, &RunMeta::new("des", gpus).seed(7));
            let path = critical_path(&trace).render_text(usize::MAX);
            (
                gpus,
                trace.len(),
                fnv1a(FNV_OFFSET, chrome.as_bytes()),
                fnv1a(FNV_OFFSET, path.as_bytes()),
            )
        })
        .collect();
    for &(gpus, spans, chrome, path) in &got {
        println!("    ({gpus}, {spans}, {chrome:#018x}, {path:#018x}),");
    }
    assert_eq!(got.as_slice(), PINNED.as_slice());
}
