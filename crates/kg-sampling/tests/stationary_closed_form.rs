//! The closed-form π that `prepare` computes is the stationary distribution
//! of the Eq. 5 walk (Eq. 6), for every strategy: it sums to 1, one step of
//! the walk leaves it in place, and it is where the walk actually goes — a
//! lazy walk ½(I + P) iterated from the mapping node lands on it. The
//! iteration lives here, as the reference, and nowhere in the engine.

use kg_core::{bounded_subgraph, EntityId, GraphBuilder, KnowledgeGraph, PredicateId, TypeId};
use kg_datagen::{build_workload, generate, profiles, DatasetScale, WorkloadConfig};
use kg_embed::oracle::oracle_store;
use kg_embed::PredicateSimilarity;
use kg_query::{QueryComponent, QuerySpec, ResolvedComponent, ResolvedSimpleQuery, SimpleQuery};
use kg_sampling::{prepare, PreparedSampler, SamplerConfig, SamplingStrategy, TransitionMatrix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const STRATEGIES: [SamplingStrategy; 5] = [
    SamplingStrategy::SemanticAware,
    SamplingStrategy::Cnarw,
    SamplingStrategy::Node2Vec { p: 4.0, q: 0.5 },
    SamplingStrategy::Node2Vec { p: 0.25, q: 2.0 },
    SamplingStrategy::Uniform,
];

const PREDICATES: [&str; 4] = ["p0", "p1", "p2", "p3"];

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// The prepared sampler and its π in the matrix's node order, checked to
/// sum to 1 and to be left in place by one step of the walk.
fn checked_pi<S: PredicateSimilarity + ?Sized>(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    similarity: &S,
    strategy: SamplingStrategy,
    config: &SamplerConfig,
) -> (PreparedSampler, TransitionMatrix, Vec<f64>) {
    let sampler = prepare(graph, query, similarity, strategy, config).unwrap();
    let scope = bounded_subgraph(graph, query.specific, config.n_bound);
    let matrix = TransitionMatrix::build(
        graph,
        query,
        &scope,
        similarity,
        strategy,
        config.self_loop_weight,
    );
    let pi: Vec<f64> = matrix
        .nodes()
        .iter()
        .map(|&n| sampler.stationary_probability(n))
        .collect();
    let total: f64 = pi.iter().sum();
    assert!((total - 1.0).abs() <= 1e-12, "{strategy:?}: Σπ = {total}");
    let residual = l1(&matrix.step(&pi), &pi);
    assert!(residual <= 1e-12, "{strategy:?}: ‖πP − π‖₁ = {residual:e}");
    (sampler, matrix, pi)
}

/// The lazy walk ½(I + P) from the indicator on `start`, iterated until an
/// L1 change below 1e-14.
fn lazy_walk_limit(matrix: &TransitionMatrix, start: usize) -> Vec<f64> {
    let mut current = vec![0.0; matrix.node_count()];
    current[start] = 1.0;
    for _ in 0..1_000_000 {
        let next: Vec<f64> = matrix
            .step(&current)
            .iter()
            .zip(&current)
            .map(|(stepped, stayed)| 0.5 * (stepped + stayed))
            .collect();
        let change = l1(&next, &current);
        current = next;
        if change < 1e-15 {
            return current;
        }
    }
    panic!("the lazy walk did not converge");
}

/// A connected graph on `n` nodes: a random spanning tree, then extra
/// edges that include parallel edges (same endpoints, any predicate) and
/// self-loop triples. Node 0 is the mapping node; about a third of the
/// others carry the target type.
fn random_graph(rng: &mut SmallRng, n: usize) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let types: &[&str] = match i {
                0 => &["Hub"],
                _ if rng.gen_range(0..3) == 0 => &["Target"],
                _ => &["Other"],
            };
            b.add_entity(&format!("n{i}"), types)
        })
        .collect();
    let predicate = |rng: &mut SmallRng| PREDICATES[rng.gen_range(0..PREDICATES.len())];
    for i in 1..n {
        let parent = ids[rng.gen_range(0..i)];
        if rng.gen_bool(0.5) {
            b.add_edge(parent, predicate(rng), ids[i]);
        } else {
            b.add_edge(ids[i], predicate(rng), parent);
        }
    }
    for _ in 0..n {
        let (s, o) = (ids[rng.gen_range(0..n)], ids[rng.gen_range(0..n)]);
        b.add_edge(s, predicate(rng), o);
        if rng.gen_bool(0.3) {
            b.add_edge(s, predicate(rng), o);
        }
    }
    for _ in 0..3 {
        let s = ids[rng.gen_range(0..n)];
        b.add_edge(s, predicate(rng), s);
    }
    b.build()
}

#[test]
fn closed_form_is_stationary_and_is_the_walk_limit_on_random_graphs() {
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(6..32);
        let graph = random_graph(&mut rng, n);
        let predicates: Vec<(PredicateId, usize, f64)> = PREDICATES
            .iter()
            .map(|p| (graph.predicate_id(p).unwrap(), 0, rng.gen_range(0.3..1.0)))
            .collect();
        let store = oracle_store(&predicates);
        let query = SimpleQuery::new("n0", &["Hub"], "p0", &["Target"])
            .resolve(&graph)
            .unwrap();
        let config = SamplerConfig {
            n_bound: rng.gen_range(1..5),
            ..SamplerConfig::default()
        };
        for strategy in STRATEGIES {
            let (_, matrix, pi) = checked_pi(&graph, &query, &store, strategy, &config);
            let start = matrix.index_of(query.specific).unwrap();
            let distance = l1(&lazy_walk_limit(&matrix, start), &pi);
            assert!(
                distance <= 1e-12,
                "seed {seed}, {strategy:?}: ‖π_walk − π‖₁ = {distance:e}"
            );
        }
    }
}

/// The graph and query set of the benchmark (`kg-ledger`'s `inputs.rs`:
/// its `scale()`, profile and dataset seed 11). π is checked on every
/// component the 122 queries prepare a sampler for: each single-edge
/// component, and each chain hop anchored at every candidate of the hop
/// before it.
#[test]
fn closed_form_is_stationary_on_every_benchmark_component() {
    let scale = DatasetScale {
        targets_per_hub: 100,
        intermediates_per_hub: 10,
        noise_entities_per_domain: 150,
        noise_edges_per_target: 1.0,
        secondary_hub_probability: 0.35,
        tertiary_hub_probability: 0.10,
    };
    let dataset = generate(&profiles::dbpedia_like(scale, 11));
    let graph = &dataset.graph;
    let queries = build_workload(&dataset, &WorkloadConfig::default());
    assert_eq!(queries.len(), 122);
    let mut components: Vec<QueryComponent> = Vec::new();
    for q in &queries {
        let in_query = match &q.query.query {
            QuerySpec::Simple(s) => vec![QueryComponent::Simple(s.clone())],
            QuerySpec::Complex(c) => c.components.clone(),
        };
        for c in in_query {
            if !components.contains(&c) {
                components.push(c);
            }
        }
    }
    // Candidates by prepared component, so each is checked once.
    let mut prepared: HashMap<(EntityId, PredicateId, Vec<TypeId>), Vec<EntityId>> = HashMap::new();
    let mut check = |query: &ResolvedSimpleQuery| -> Vec<EntityId> {
        let key = (query.specific, query.predicate, query.target_types.clone());
        let candidates = prepared.entry(key).or_insert_with(|| {
            let (sampler, _, _) = checked_pi(
                graph,
                query,
                &dataset.oracle,
                SamplingStrategy::SemanticAware,
                &SamplerConfig::default(),
            );
            let answers = sampler.answer_distribution().iter();
            answers.map(|a| a.entity).collect()
        });
        candidates.clone()
    };
    for component in &components {
        match component.resolve(graph).unwrap() {
            ResolvedComponent::Simple(query) => {
                check(&query);
            }
            ResolvedComponent::Chain(chain) => {
                let mut anchors = vec![chain.specific];
                for hop in 0..chain.hops.len() {
                    let mut next: Vec<EntityId> = anchors
                        .iter()
                        .flat_map(|&a| check(&chain.hop_as_simple(hop, a)))
                        .collect();
                    next.sort_unstable();
                    next.dedup();
                    anchors = next;
                }
            }
        }
    }
    assert!(prepared.len() > components.len(), "{}", prepared.len());
}
