//! Differential check for sampling over a mutation overlay: a sampler
//! prepared on a graph carrying pending delta writes must be **bitwise
//! identical** to one prepared on a graph rebuilt from scratch at the same
//! logical state — stationary distribution, answer distribution, and the
//! full draw transcript under a shared RNG seed — both before and after
//! compaction. This is what makes the service's sampler reuse across writes
//! sound: "prepared on the overlay" and "prepared on a fresh CSR" are not
//! merely statistically close, they are the same object.

use kg_core::{GraphBuilder, KnowledgeGraph};
use kg_embed::oracle::oracle_store;
use kg_embed::PredicateSimilarity;
use kg_query::SimpleQuery;
use kg_sampling::{prepare, PreparedSampler, SamplerConfig, SamplingStrategy};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn prepare_on(graph: &KnowledgeGraph, store: &dyn PredicateSimilarity) -> PreparedSampler {
    let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
        .resolve(graph)
        .unwrap();
    prepare(
        graph,
        &q,
        store,
        SamplingStrategy::SemanticAware,
        &SamplerConfig::default(),
    )
    .unwrap()
}

fn assert_samplers_bitwise_equal(a: &PreparedSampler, b: &PreparedSampler) {
    let scope = a.scope().sorted_nodes();
    assert_eq!(scope, b.scope().sorted_nodes());
    for &n in &scope {
        assert_eq!(
            a.stationary_probability(n).to_bits(),
            b.stationary_probability(n).to_bits(),
            "π of {n:?} diverged"
        );
    }
    assert_eq!(a.transition_entries, b.transition_entries);
    assert_eq!(a.candidate_count(), b.candidate_count());
    assert_eq!(a.answer_distribution().len(), b.answer_distribution().len());
    for (x, y) in a.answer_distribution().iter().zip(b.answer_distribution()) {
        assert_eq!(x.entity, y.entity);
        assert_eq!(
            x.probability.to_bits(),
            y.probability.to_bits(),
            "answer probability of {:?} diverged",
            x.entity
        );
    }
    // Shared RNG transcript: the alias tables must induce identical draws.
    let mut rng_a = SmallRng::seed_from_u64(0xD1FF);
    let mut rng_b = SmallRng::seed_from_u64(0xD1FF);
    let draws_a = a.draw(&mut rng_a, 512);
    let draws_b = b.draw(&mut rng_b, 512);
    assert_eq!(draws_a.len(), draws_b.len());
    for (x, y) in draws_a.iter().zip(&draws_b) {
        assert_eq!(x.entity, y.entity);
        assert_eq!(x.probability.to_bits(), y.probability.to_bits());
    }
}

#[test]
fn sampler_on_overlay_matches_from_scratch_rebuild_and_survives_compaction() {
    // Base: Germany products a handful of cars, one of them via a parallel
    // duplicate edge.
    let mut base = GraphBuilder::new();
    let mut replay = GraphBuilder::new();
    for b in [&mut base, &mut replay] {
        b.add_entity("Germany", &["Country"]);
        for i in 0..5 {
            b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.add_edge_by_name("Germany", "product", &format!("car{i}"));
        }
        b.add_edge_by_name("Germany", "product", "car0");
    }
    let mut overlay = base.build();

    // Write traffic: a brand-new car, a tombstone on the duplicated edge,
    // and a re-insert of a deleted one.
    overlay.upsert_entity("car_new", &["Automobile"]);
    replay.add_entity("car_new", &["Automobile"]);
    overlay.upsert_edge_by_name("Germany", "product", "car_new");
    replay.add_edge_by_name("Germany", "product", "car_new");
    assert_eq!(overlay.delete_edge_by_name("Germany", "product", "car0"), 2);
    replay.remove_edge_by_name("Germany", "product", "car0");
    overlay.upsert_edge_by_name("Germany", "product", "car0");
    replay.add_edge_by_name("Germany", "product", "car0");

    let reference = replay.build();
    let store = oracle_store(&[(reference.predicate_id("product").unwrap(), 0, 1.0)]);

    // Prepared on the live overlay vs. on the from-scratch rebuild.
    let on_overlay = prepare_on(&overlay, &store);
    let on_reference = prepare_on(&reference, &store);
    assert_samplers_bitwise_equal(&on_overlay, &on_reference);

    // Compaction must not perturb the prepared state either.
    overlay.compact();
    assert!(!overlay.has_pending_delta());
    let on_compacted = prepare_on(&overlay, &store);
    assert_samplers_bitwise_equal(&on_compacted, &on_reference);
}
