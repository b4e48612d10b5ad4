//! A [`ValidationTable`] must be [`validate_answer`], bit for bit: one
//! answer-independent run of the greedy search answers every candidate of a
//! component exactly as the per-answer search does. Checked over the
//! components of the `dbpedia_like` workload (simple queries and the final
//! hops of chains), across the search-shaping parameters, on a compacted
//! graph and on a delta overlay carrying writes. Entities that are not
//! candidates of the component are declined, never answered.

use kg_core::{EntityId, KnowledgeGraph};
use kg_datagen::{build_workload, generate, profiles, DatasetScale, WorkloadConfig};
use kg_embed::PredicateSimilarity;
use kg_estimate::{validate_answer, ValidationConfig, ValidationTable};
use kg_query::{
    admissible_intermediate, PathAggregation, QuerySpec, ResolvedComponent, ResolvedSimpleQuery,
};
use kg_sampling::{prepare, PreparedSampler, SamplerConfig, SamplingStrategy};

const CHAIN_ANCHORS: usize = 2;

fn prepare_on(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    similarity: &dyn PredicateSimilarity,
) -> PreparedSampler {
    prepare(
        graph,
        query,
        similarity,
        SamplingStrategy::SemanticAware,
        &SamplerConfig::default(),
    )
    .unwrap()
}

/// The distinct simple components the engine would validate against for
/// `queries`: every simple component, and every chain's last hop anchored at
/// its most probable intermediates.
fn components(
    graph: &KnowledgeGraph,
    queries: &[QuerySpec],
    similarity: &dyn PredicateSimilarity,
) -> Vec<ResolvedSimpleQuery> {
    let mut out: Vec<ResolvedSimpleQuery> = Vec::new();
    let mut add = |q: ResolvedSimpleQuery| {
        if !out.contains(&q) {
            out.push(q);
        }
    };
    for spec in queries {
        match spec {
            QuerySpec::Simple(simple) => add(simple.resolve(graph).unwrap()),
            QuerySpec::Complex(complex) => {
                for component in complex.resolve(graph).unwrap().components {
                    match component {
                        ResolvedComponent::Simple(q) => add(q),
                        ResolvedComponent::Chain(chain) => {
                            let last = chain.hops.len() - 1;
                            let mut anchors = vec![chain.specific];
                            for hop in 0..last {
                                let q = chain.hop_as_simple(hop, anchors[0]);
                                let mut answers = prepare_on(graph, &q, similarity)
                                    .answer_distribution()
                                    .to_vec();
                                answers.sort_by(|a, b| {
                                    b.probability
                                        .total_cmp(&a.probability)
                                        .then(a.entity.cmp(&b.entity))
                                });
                                anchors = answers.iter().map(|a| a.entity).collect();
                                if anchors.is_empty() {
                                    break;
                                }
                            }
                            for anchor in anchors.into_iter().take(CHAIN_ANCHORS) {
                                add(chain.hop_as_simple(last, anchor));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

fn configs() -> Vec<ValidationConfig> {
    let mut out = Vec::new();
    for repeat_factor in [1, 3, 5] {
        for max_expansions in [0, 7, 40, 5_000] {
            for max_path_len in [1, 2, 3] {
                for aggregation in [
                    PathAggregation::GeometricMean,
                    PathAggregation::Min,
                    PathAggregation::Product,
                ] {
                    out.push(ValidationConfig {
                        repeat_factor,
                        max_expansions,
                        max_path_len,
                        aggregation,
                        ..ValidationConfig::default()
                    });
                }
            }
        }
    }
    out
}

/// Table ≡ per-answer search over every candidate of `query`, under every
/// configuration; returns how many comparisons were made and how many of
/// them were of an accepted answer.
fn assert_table_is_the_search(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    similarity: &dyn PredicateSimilarity,
) -> (usize, usize) {
    let sampler = prepare_on(graph, query, similarity);
    let (mut compared, mut accepted) = (0, 0);
    for config in configs() {
        let table = ValidationTable::build(graph, query, &sampler, similarity, &config);
        for a in sampler.answer_distribution() {
            let expected = validate_answer(graph, query, a.entity, &sampler, similarity, &config);
            let got = table
                .lookup(a.entity, &config)
                .unwrap_or_else(|| panic!("candidate {:?} not covered", a.entity));
            assert_eq!(
                (
                    got.correct,
                    got.best_similarity.to_bits(),
                    got.paths_examined
                ),
                (
                    expected.correct,
                    expected.best_similarity.to_bits(),
                    expected.paths_examined
                ),
                "{:?} of {query:?} under {config:?}",
                a.entity
            );
            compared += 1;
            accepted += usize::from(expected.correct);
        }
    }
    (compared, accepted)
}

fn workload() -> (kg_datagen::GeneratedDataset, Vec<QuerySpec>) {
    let dataset = generate(&profiles::dbpedia_like(DatasetScale::tiny(), 11));
    let queries = build_workload(
        &dataset,
        &WorkloadConfig {
            queries_per_shape: 2,
            include_operator_variants: false,
        },
    )
    .into_iter()
    .map(|w| w.query.query)
    .collect();
    (dataset, queries)
}

#[test]
fn table_equals_per_answer_search_on_a_compacted_graph() {
    let (dataset, queries) = workload();
    let components = components(&dataset.graph, &queries, &dataset.oracle);
    assert!(
        components.len() >= 4,
        "simple and chain components expected, got {}",
        components.len()
    );
    let (mut compared, mut accepted) = (0, 0);
    for query in &components {
        let (c, a) = assert_table_is_the_search(&dataset.graph, query, &dataset.oracle);
        compared += c;
        accepted += a;
    }
    // Both verdicts must be exercised for the equality to mean anything.
    assert!(
        accepted > 0 && accepted < compared,
        "{accepted} accepted of {compared} compared"
    );
}

/// Writes in the shapes the service sees: an untyped entity hanging off a
/// hub over the query predicate (an admissible intermediate the walk now
/// passes through), a new candidate behind an existing intermediate, a
/// candidate losing an edge.
fn write_to(graph: &mut KnowledgeGraph, dataset: &kg_datagen::GeneratedDataset) {
    for domain in &dataset.domains {
        let hub = &domain.hub_names[0];
        let hub_id = graph.entity_by_name(hub).unwrap();
        let untyped = format!("untyped_{}", domain.name);
        graph.upsert_edge_by_name(hub, &domain.query_predicate, &untyped);
        let fresh = format!("fresh_{}", domain.name);
        graph.upsert_entity(&fresh, &[domain.target_type.as_str()]);
        graph.upsert_edge_by_name(&untyped, &domain.query_predicate, &fresh);
        let edge = graph.neighbors(hub_id)[0];
        let other = graph.entity(edge.neighbor).name.clone();
        let predicate = graph.predicate_name(edge.predicate).to_string();
        if graph.delete_edge_by_name(hub, &predicate, &other) == 0 {
            graph.delete_edge_by_name(&other, &predicate, hub);
        }
    }
}

#[test]
fn table_equals_per_answer_search_on_a_delta_overlay_and_after_compaction() {
    let (dataset, queries) = workload();
    let mut graph = dataset.graph.clone();
    write_to(&mut graph, &dataset);
    let components = components(&graph, &queries, &dataset.oracle);
    for query in &components {
        assert_table_is_the_search(&graph, query, &dataset.oracle);
    }
    graph.compact();
    for query in components.iter().take(2) {
        assert_table_is_the_search(&graph, query, &dataset.oracle);
    }
}

#[test]
fn non_candidates_are_declined() {
    let (dataset, queries) = workload();
    let mut graph = dataset.graph.clone();
    write_to(&mut graph, &dataset);
    let query = components(&graph, &queries, &dataset.oracle).remove(0);
    let sampler = prepare_on(&graph, &query, &dataset.oracle);
    let config = ValidationConfig::default();
    let table = ValidationTable::build(&graph, &query, &sampler, &dataset.oracle, &config);

    let entities = || (0..graph.entity_count()).map(EntityId::from);
    let untyped = entities()
        .find(|e| graph.entity(*e).types.is_empty())
        .expect("the writes added an untyped entity");
    let admissible_typed = entities()
        .find(|e| !graph.entity(*e).types.is_empty() && admissible_intermediate(&graph, &query, *e))
        .expect("an intermediate-typed entity");
    for entity in [query.specific, untyped, admissible_typed] {
        assert!(
            table.lookup(entity, &config).is_none(),
            "{entity:?} is not a candidate"
        );
    }
    // A table never holds an entity the walk could pass through.
    for a in sampler.answer_distribution() {
        assert!(!admissible_intermediate(&graph, &query, a.entity));
        assert!(table.lookup(a.entity, &config).is_some());
    }
}

#[test]
#[should_panic(expected = "validation table built under")]
fn lookup_under_another_search_shape_is_a_bug() {
    let (dataset, queries) = workload();
    let query = components(&dataset.graph, &queries, &dataset.oracle).remove(0);
    let sampler = prepare_on(&dataset.graph, &query, &dataset.oracle);
    let config = ValidationConfig::default();
    let table = ValidationTable::build(&dataset.graph, &query, &sampler, &dataset.oracle, &config);
    let other = ValidationConfig {
        repeat_factor: config.repeat_factor + 1,
        ..config
    };
    table.lookup(sampler.answer_distribution()[0].entity, &other);
}
