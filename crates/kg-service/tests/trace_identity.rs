//! Telemetry must be free of observable effect on answers: running the same
//! workload with event recording enabled and `trace: true` on every request
//! produces bitwise-identical estimates, intervals and group values to a
//! run with recording disabled and no trace flags.
//!
//! This file owns the process-global recorder flag, so it holds exactly one
//! test (integration-test files are separate processes — no other test can
//! race the flag).

use kg_aqp::EngineConfig;
use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_query::{AggregateFunction, AggregateQuery, Filter, GroupBy, SimpleQuery};
use kg_service::{QueryRequest, Service, ServiceAnswer, ServiceConfig};
use std::sync::Arc;

fn dataset() -> GeneratedDataset {
    generate(&GeneratorConfig::new(
        "trace-identity",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China"])],
        17,
    ))
}

fn workload() -> Vec<AggregateQuery> {
    let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let cn = SimpleQuery::new("China", &["Country"], "product", &["Automobile"]);
    vec![
        AggregateQuery::simple(de.clone(), AggregateFunction::Count),
        AggregateQuery::simple(de.clone(), AggregateFunction::Avg("price".into())),
        AggregateQuery::simple(de.clone(), AggregateFunction::Count)
            .with_filter(Filter::range("price", 15_000.0, 60_000.0)),
        AggregateQuery::simple(de, AggregateFunction::Count)
            .with_group_by(GroupBy::new("price", 30_000.0)),
        AggregateQuery::simple(cn.clone(), AggregateFunction::Count),
        AggregateQuery::simple(cn, AggregateFunction::Sum("price".into())),
    ]
}

/// Runs the whole workload through a fresh single-threaded service (empty
/// caches, `drain_once` on the calling thread for determinism).
fn run(d: &GeneratedDataset, traced: bool) -> Vec<ServiceAnswer> {
    let svc = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig::builder()
            .engine(EngineConfig {
                enumerate: false,
                ..EngineConfig::default()
            })
            .error_bound(0.05)
            .workers(0)
            .build()
            .unwrap(),
    );
    let pending: Vec<_> = workload()
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let mut request = QueryRequest::new(q, 0.05, 0.95);
            if traced {
                request = request.with_request_id(format!("trace-{i}")).with_trace();
            }
            svc.submit(request).expect("queue is large enough")
        })
        .collect();
    while svc.drain_once() > 0 {}
    let answers = pending
        .into_iter()
        .map(|p| p.wait().expect("service answers"))
        .collect();
    svc.shutdown();
    answers
}

#[test]
fn tracing_never_perturbs_answers() {
    let d = dataset();

    kg_telemetry::disable();
    let plain = run(&d, false);

    kg_telemetry::enable();
    kg_telemetry::global().clear();
    let traced = run(&d, true);
    let events = kg_telemetry::global().drain();
    kg_telemetry::disable();

    // Recording actually happened on the traced run…
    assert!(!events.is_empty(), "enabled run must record events");
    assert!(
        events.iter().any(|e| e.trace_id != 0),
        "request-scoped events must carry the trace ID"
    );

    // …and changed nothing the client can observe in the engine answer.
    assert_eq!(plain.len(), traced.len());
    for (p, t) in plain.iter().zip(&traced) {
        assert_eq!(p.answer.estimate.to_bits(), t.answer.estimate.to_bits());
        assert_eq!(p.answer.moe.to_bits(), t.answer.moe.to_bits());
        assert_eq!(p.answer.sample_size, t.answer.sample_size);
        assert_eq!(p.answer.candidate_count, t.answer.candidate_count);
        assert_eq!(p.answer.guarantee_met, t.answer.guarantee_met);
        assert_eq!(p.answer.rounds.len(), t.answer.rounds.len());
        for (pr, tr) in p.answer.rounds.iter().zip(&t.answer.rounds) {
            assert_eq!(pr.estimate.to_bits(), tr.estimate.to_bits());
            assert_eq!(pr.moe.to_bits(), tr.moe.to_bits());
            assert_eq!(pr.sample_size, tr.sample_size);
        }
        assert_eq!(p.answer.groups.len(), t.answer.groups.len());
        for (key, value) in &p.answer.groups {
            assert_eq!(value.to_bits(), t.answer.groups[key].to_bits());
        }
        assert_eq!(p.served_from, t.served_from);
        // The traced run carries the trajectory; the plain one does not.
        assert!(p.trace.is_none());
        assert!(t.trace.is_some());
    }
}
