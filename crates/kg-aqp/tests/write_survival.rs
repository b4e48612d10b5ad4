//! Refinement sessions survive unrelated delta writes: a session refines
//! against the graph snapshot it was opened on, so a write landing on a
//! *clone* of that graph mid-refinement (the service's write path — clone,
//! mutate through the overlay, install) must not perturb the session's
//! remaining rounds at all. Checked bitwise against a control session that
//! never saw a write, at K = 1 and K = 2.

use kg_aqp::{AqpEngine, EngineConfig, QueryAnswer, ShardedSession};
use kg_core::{DegreeBalancedPartitioner, GraphBuilder, KnowledgeGraph, ShardedGraph};
use kg_embed::oracle::oracle_store;
use kg_embed::PredicateVectorStore;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use std::sync::Arc;

fn build_graph() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    for i in 0..8 {
        b.add_entity(&format!("car{i}"), &["Automobile"]);
        b.add_edge_by_name("Germany", "product", &format!("car{i}"));
    }
    b.add_entity("Japan", &["Island"]);
    for i in 0..4 {
        b.add_entity(&format!("ship{i}"), &["Ship"]);
        b.add_edge_by_name("Japan", "builds", &format!("ship{i}"));
    }
    b.build()
}

fn sharded(graph: Arc<KnowledgeGraph>, k: usize) -> ShardedGraph {
    if k <= 1 {
        ShardedGraph::single(graph)
    } else {
        ShardedGraph::new(graph, &DegreeBalancedPartitioner, k)
    }
}

fn car_query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
}

fn assert_bitwise(a: &QueryAnswer, b: &QueryAnswer) {
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    assert_eq!(a.moe.to_bits(), b.moe.to_bits());
    assert_eq!(a.rounds.len(), b.rounds.len());
}

/// Open a session over the car component, refine halfway, then apply a
/// write to the *ship* component the way the service does (on a clone);
/// the session's remaining rounds must be bitwise those of a session that
/// never raced a write.
#[test]
fn session_mid_refinement_is_unperturbed_by_an_unrelated_write() {
    for k in [1usize, 2] {
        let graph = Arc::new(build_graph());
        let oracle: PredicateVectorStore = oracle_store(&[
            (graph.predicate_id("product").unwrap(), 0, 1.0),
            (graph.predicate_id("builds").unwrap(), 1, 1.0),
        ]);
        let engine = AqpEngine::new(EngineConfig {
            enumerate: false,
            ..EngineConfig::default()
        });
        let view = sharded(Arc::clone(&graph), k);

        let step =
            |s: &mut ShardedSession, view: &ShardedGraph| s.step_with(view, &oracle, 0.01, 0.95);

        let mut racing = engine
            .open_session(&view, &car_query(), &oracle)
            .expect("plannable");
        let mut control = engine
            .open_session(&view, &car_query(), &oracle)
            .expect("plannable");

        step(&mut racing, &view);
        step(&mut control, &view);

        // The service write path: clone the global, mutate the clone
        // through the delta overlay, build the next snapshot from it. The
        // session keeps refining against its original view.
        let mut next = (*graph).clone();
        next.upsert_entity("ship_new", &["Ship"]);
        next.upsert_edge_by_name("Japan", "builds", "ship_new");
        assert_eq!(next.delete_edge_by_name("Japan", "builds", "ship0"), 1);
        let _installed = sharded(Arc::new(next), k);

        // The snapshot the sessions hold is untouched by the write...
        assert_eq!(view.global().entity_by_name("ship_new"), None);
        assert!(!view.global().has_pending_delta());

        // ...and the racing session's remaining rounds match the control's
        // bitwise, round by round.
        for _ in 0..3 {
            let a = step(&mut racing, &view);
            let b = step(&mut control, &view);
            assert_eq!(a, b, "round outcomes diverged at K={k}");
            assert_bitwise(
                &racing.snapshot_answer(&view),
                &control.snapshot_answer(&view),
            );
        }
    }
}
