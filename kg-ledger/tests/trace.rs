use kg_aqp::{QueryAnswer, StepTimings};
use kg_ledger::run::{Answered, Pass, Reply};
use kg_ledger::trace::{work_per_request, Span, Trace};
use std::time::{Duration, Instant};

fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
    Span {
        id,
        parent,
        request: 0,
        name: if parent.is_some() { "child" } else { "root" },
        start_us,
        end_us,
    }
}

#[test]
fn self_time_is_the_span_minus_what_its_children_cover() {
    let trace = Trace {
        spans: vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 40.0),
            // Overlaps its sibling: the shared 10 µs count once.
            span(2, Some(0), 30.0, 60.0),
            // Hangs over the parent's end: only the part inside counts.
            span(3, Some(0), 90.0, 120.0),
            span(4, Some(1), 10.0, 25.0),
        ],
        clipped_us: 0.0,
    };
    assert_eq!(trace.self_times_us(), vec![40.0, 15.0, 30.0, 30.0, 15.0]);
    assert_eq!(trace.client_us(), 100.0);
    assert_eq!(
        trace.self_ms_by_name(),
        vec![("root", 0.04), ("child", 0.09)]
    );
}

fn reply(at: Instant, index: usize, served_from: &str, ms: f64, rounds: usize) -> Reply {
    let answer = QueryAnswer {
        estimate: 1.0,
        moe: 0.1,
        confidence: 0.95,
        guarantee_met: true,
        rounds: vec![
            kg_aqp::RoundTrace {
                round: 1,
                estimate: 1.0,
                moe: 0.1,
                sample_size: 10,
                correct_size: 5,
            };
            rounds
        ],
        groups: Default::default(),
        timings: StepTimings {
            sampling_ms: ms,
            estimation_ms: 2.0 * ms,
            guarantee_ms: 3.0 * ms,
        },
        sample_size: 10 * rounds,
        candidate_count: 100,
        elapsed_ms: 6.0 * ms,
        missing_shards: Vec::new(),
    };
    Reply {
        index,
        error_bound: 0.05,
        start: at,
        end: at + Duration::from_millis(20),
        answered: Some(Answered {
            answer,
            served_from: served_from.to_string(),
            queue_ms: 0.5,
            total_ms: 19.0,
        }),
    }
}

#[test]
fn a_request_is_charged_only_the_work_it_caused() {
    let t = Instant::now();
    let pass = Pass {
        wall_s: 1.0,
        cpu_ms: 1.0,
        replies: vec![
            reply(t, 7, "fresh", 1.0, 1),
            // The session's running totals grew from 1 to 1.5 ms and 1 to 3 rounds.
            reply(t, 7, "cache_resume", 1.5, 3),
            // A hit replays the stored answer: no new work.
            reply(t, 7, "cache_hit", 1.5, 3),
            // Another query starts from nothing.
            reply(t, 8, "fresh", 2.0, 2),
        ],
        writes: Vec::new(),
    };
    let work = work_per_request(&[], &pass, 1);
    let seen: Vec<(f64, f64, f64)> = work
        .iter()
        .map(|w| (w.stage_ms(), w.rounds, w.draws))
        .collect();
    assert_eq!(
        seen,
        vec![
            (6.0, 1.0, 10.0),
            (3.0, 2.0, 20.0),
            (0.0, 0.0, 0.0),
            (12.0, 2.0, 20.0)
        ]
    );

    // client ⊃ service ⊃ {queue, sampling, estimation, guarantee}: the
    // self times of one request add up to its client latency.
    let trace = Trace::of_pass(t, &pass, &work, &[]);
    let first: f64 = trace
        .spans
        .iter()
        .zip(trace.self_times_us())
        .filter(|(s, _)| s.request == 0)
        .map(|(_, us)| us)
        .sum();
    assert!((first - 20_000.0).abs() < 1e-6, "{first}");
    assert_eq!(trace.clipped_us, 0.0);
    assert_eq!(trace.spans.iter().filter(|s| s.request == 0).count(), 6);
}
