//! A write carries into the written graph's planning cache only walk
//! outcomes it cannot change. On random small connected graphs, under
//! random edge inserts (new endpoints included), edge deletes and type
//! upserts, every walk outcome [`SamplerCache::carry_walks`] keeps under
//! the reach test of [`kg_query::reach`] equals a fresh walk of its hop on
//! the written graph — answers, candidate count and the path-limit `None`
//! alike.

use kg_core::{EntityId, GraphBuilder, KnowledgeGraph, TypeId};
use kg_embed::oracle::oracle_store;
use kg_embed::PredicateVectorStore;
use kg_query::{MatchConfig, MatchWalk, PathAggregation, ResolvedSimpleQuery, WriteReach};
use kg_sampling::{SamplerCache, SamplerConfig, SamplingStrategy, WalkSettings};
use proptest::prelude::*;

const TYPES: [&str; 3] = ["A", "B", "C"];
const PREDICATES: [&str; 3] = ["p0", "p1", "p2"];
const TAU: f64 = 0.5;
/// Small enough that dense corners of a random graph pass it.
const PATH_LIMIT: usize = 3;

/// A graph of `kinds.len()` nodes: node `i > 0` hangs off `parents[i - 1]
/// % i` (so the graph is connected), plus the `extra` edges. Node `i` has
/// type `TYPES[kinds[i] - 1]`, or none for kind 0. The first three tree
/// edges use the three predicates in turn, so every predicate is interned.
fn build(
    kinds: &[usize],
    parents: &[(usize, usize)],
    extra: &[(usize, usize, usize)],
) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for (i, &kind) in kinds.iter().enumerate() {
        let types: &[&str] = if kind == 0 {
            &[]
        } else {
            &TYPES[kind - 1..kind]
        };
        b.add_entity(&format!("e{i}"), types);
    }
    let node = |i: usize| EntityId::from(i % kinds.len());
    for (i, &(parent, predicate)) in parents.iter().enumerate() {
        let predicate = if i < 3 { i } else { predicate };
        b.add_edge(node(i + 1), PREDICATES[predicate], node(parent % (i + 1)));
    }
    for &(u, v, predicate) in extra {
        b.add_edge(node(u), PREDICATES[predicate], node(v));
    }
    b.build()
}

fn oracle(graph: &KnowledgeGraph) -> PredicateVectorStore {
    let id = |name| graph.predicate_id(name).expect("interned by the tree");
    oracle_store(&[(id("p0"), 0, 1.0), (id("p1"), 0, 0.7), (id("p2"), 1, 1.0)])
}

/// Every hop the cache is filled with: each anchor, each target type set
/// and each bound, on `p0`.
fn hops(graph: &KnowledgeGraph) -> Vec<(ResolvedSimpleQuery, u32)> {
    let ty = |name| graph.type_id(name).expect("typed nodes exist");
    let target_sets: Vec<Vec<TypeId>> = [vec!["A"], vec!["B"], vec!["A", "B"]]
        .into_iter()
        .filter(|names| names.iter().all(|n| graph.type_id(n).is_some()))
        .map(|names| names.into_iter().map(ty).collect())
        .collect();
    let mut hops = Vec::new();
    for anchor in graph.entity_ids() {
        for target_types in &target_sets {
            for n_bound in 1..=3 {
                let query = ResolvedSimpleQuery {
                    specific: anchor,
                    predicate: graph.predicate_id("p0").expect("interned"),
                    target_types: target_types.clone(),
                };
                hops.push((query, n_bound));
            }
        }
    }
    hops
}

fn settings(n_bound: u32) -> WalkSettings {
    WalkSettings::new(TAU, n_bound, PathAggregation::GeometricMean, true)
}

/// One hop's outcome as the exact planner's `walk_hop` computes it, under
/// a path limit small enough to be reached.
fn walk_hop(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    oracle: &PredicateVectorStore,
    n_bound: u32,
) -> (usize, Option<Vec<EntityId>>) {
    let mut walk = MatchWalk::new(graph);
    let count = walk.ball_candidates(graph, query, n_bound).len();
    let config = MatchConfig {
        max_path_len: n_bound as usize,
        path_limit: PATH_LIMIT,
        aggregation: PathAggregation::GeometricMean,
    };
    let complete = walk.walk(graph, query, oracle, &config);
    (count, complete.then(|| walk.correct(TAU)))
}

/// One write op.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// An edge between two nodes; index `nodes` names a new entity.
    Insert(usize, usize, usize),
    /// Deletes the live triple at this index (mod the triple count).
    Delete(usize),
    /// Adds a type to a node.
    Retype(usize, usize),
}

/// The op a tuple of picks names.
fn decode((kind, a, b, c): (usize, usize, usize, usize)) -> Op {
    match kind {
        0 => Op::Insert(a, b, c),
        1 => Op::Delete(a),
        _ => Op::Retype(a, c),
    }
}

/// Applies `op` to `graph` and narrows `kept` to the hops it cannot reach,
/// as the service's write path does.
fn apply(
    graph: &mut KnowledgeGraph,
    op: Op,
    reach: &mut WriteReach,
    kept: &mut Vec<kg_query::HopBall>,
) {
    let nodes = graph.entity_count();
    match op {
        Op::Insert(u, v, p) => {
            let name = |i: usize| format!("e{}", i % (nodes + 1));
            let triple = graph.upsert_edge_by_name(&name(u), PREDICATES[p], &name(v));
            reach.retain_unreached_by_edge(graph, triple.subject, triple.object, kept);
        }
        Op::Delete(i) => {
            let live = graph.live_triples().into_owned();
            let t = live[i % live.len()];
            let predicate = graph.predicate_name(t.predicate).to_string();
            assert!(graph.delete_edge(t.subject, &predicate, t.object) > 0);
            reach.retain_unreached_by_edge(graph, t.subject, t.object, kept);
        }
        Op::Retype(y, t) => {
            let y = EntityId::from(y % nodes);
            let before = graph.entity(y).types.len();
            let name = graph.entity(y).name.clone();
            graph.upsert_entity(&name, &[TYPES[t]]);
            if graph.entity(y).types.len() > before {
                reach.retain_unreached_by_retype(graph, y, kept);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_kept_walk_outcome_is_a_fresh_walk_of_the_written_graph(
        kinds in prop::collection::vec(0usize..4, 4..9),
        parents in prop::collection::vec((0usize..16, 0usize..3), 8..9),
        extra in prop::collection::vec((0usize..16, 0usize..16, 0usize..3), 0..8),
        picks in prop::collection::vec((0usize..3, 0usize..64, 0usize..16, 0usize..3), 1..4),
    ) {
        let parents = &parents[..kinds.len() - 1];
        let ops: Vec<Op> = picks.into_iter().map(decode).collect();
        let mut graph = build(&kinds, parents, &extra);
        let oracle = oracle(&graph);
        let hops = hops(&graph);
        let cache = SamplerCache::new(SamplingStrategy::SemanticAware, SamplerConfig::default());
        for (query, n_bound) in &hops {
            cache.get_or_walk(query, settings(*n_bound), || walk_hop(&graph, query, &oracle, *n_bound));
        }

        let mut kept = cache.walk_hops();
        let mut reach = WriteReach::new();
        for &op in &ops {
            apply(&mut graph, op, &mut reach, &mut kept);
        }
        let (carried, carry) = cache.carry_walks(|hop| kept.binary_search(hop).is_ok());
        prop_assert_eq!(carry.kept + carry.dropped, hops.len());

        for (query, n_bound) in &hops {
            let fresh = walk_hop(&graph, query, &oracle, *n_bound);
            let mut walked = false;
            let cached = carried.get_or_walk(query, settings(*n_bound), || {
                walked = true;
                fresh.clone()
            });
            // A walk the carry kept must be the written graph's outcome.
            prop_assert_eq!(&cached, &fresh, "{:?} n = {} after {:?}", query, n_bound, ops);
            let hop = kg_query::HopBall {
                anchor: query.specific,
                target_types: query.target_types.clone(),
                n_bound: *n_bound,
            };
            prop_assert_eq!(walked, kept.binary_search(&hop).is_err());
        }
    }
}

/// The proptest's graphs do reach the path limit, and its writes do keep
/// walks: neither half of the property is vacuous.
#[test]
fn the_random_graphs_reach_the_path_limit_and_writes_keep_walks() {
    // Two branches from e0: e0 – e1 – e2 – e3 and e0 – e4 – e5 – e6, with
    // e0 – e2 twice and e3 – e0. The A-typed e2 has four paths of length
    // ≤ 3 from e0: the two direct edges, through e1 and through e3.
    let kinds = [0, 0, 1, 0, 0, 0, 2];
    let parents = [(0, 0), (1, 0), (2, 0), (0, 0), (4, 0), (5, 0)];
    let extra = [(0, 2, 0), (0, 2, 1), (3, 0, 0)];
    let graph = build(&kinds, &parents, &extra);
    let oracle = oracle(&graph);
    let a = vec![graph.type_id("A").unwrap()];
    let query = ResolvedSimpleQuery {
        specific: EntityId::from(0usize),
        predicate: graph.predicate_id("p0").unwrap(),
        target_types: a.clone(),
    };
    assert_eq!(walk_hop(&graph, &query, &oracle, 3), (1, None));

    // A new leaf on e6, three hops from e0, leaves e0's hop alone.
    let mut kept = vec![kg_query::HopBall {
        anchor: query.specific,
        target_types: a,
        n_bound: 3,
    }];
    let mut written = graph.clone();
    apply(
        &mut written,
        Op::Insert(6, 7, 0),
        &mut WriteReach::new(),
        &mut kept,
    );
    assert_eq!(kept.len(), 1);
    assert_eq!(walk_hop(&written, &query, &oracle, 3), (1, None));
}
