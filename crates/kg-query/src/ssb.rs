//! SSB — the Semantic Similarity-based Baseline (Algorithm 1).
//!
//! SSB enumerates every candidate answer in the n-bounded subgraph of the
//! mapping node, computes each candidate's exact semantic similarity by
//! enumerating all its paths (complexity `O(|A| · mⁿ)`), keeps the answers
//! with `s_i ≥ τ` and applies the aggregate. It is exact with respect to the
//! τ-relevant ground truth but far slower than the sampling–estimation
//! engine — exactly the trade-off Table VIII shows.

use crate::aggregate::{AggregateQuery, QuerySpec, ResolvedAggregate};
use crate::filter::matches_all;
use crate::ground_truth::{
    complex_ground_truth, simple_ground_truth, GroundTruth, GroundTruthConfig,
};
use kg_core::{KgResult, KnowledgeGraph};
use kg_embed::PredicateSimilarity;
use std::collections::BTreeMap;
use std::time::Instant;

/// Result of evaluating an aggregate query with SSB.
#[derive(Clone, Debug)]
pub struct SsbResult {
    /// Exact aggregate over the τ-relevant correct answers.
    pub value: f64,
    /// Per-group values when the query carries a GROUP-BY.
    pub groups: BTreeMap<i64, f64>,
    /// The underlying ground truth (candidates and correct answers).
    pub ground_truth: GroundTruth,
    /// Wall-clock evaluation time in milliseconds.
    pub elapsed_ms: f64,
}

/// The SSB engine (Algorithm 1).
#[derive(Clone, Debug)]
pub struct SsbEngine {
    config: GroundTruthConfig,
}

impl SsbEngine {
    /// Creates an engine with the given τ / n-bound configuration.
    pub fn new(config: GroundTruthConfig) -> Self {
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GroundTruthConfig {
        &self.config
    }

    /// Evaluates an aggregate query exactly (w.r.t. τ-GT).
    pub fn evaluate<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        query: &AggregateQuery,
        similarity: &S,
    ) -> KgResult<SsbResult> {
        let start = Instant::now();
        let aggregate = query.function.resolve(graph)?;
        let filters = query.resolve_filters(graph)?;
        let ground_truth = match &query.query {
            QuerySpec::Simple(simple) => {
                let resolved = simple.resolve(graph)?;
                simple_ground_truth(graph, &resolved, similarity, &self.config)
            }
            QuerySpec::Complex(complex) => {
                let resolved = complex.resolve(graph)?;
                complex_ground_truth(graph, &resolved, similarity, &self.config)
            }
        };
        let answers: Vec<_> = ground_truth
            .correct
            .iter()
            .copied()
            .filter(|&e| matches_all(graph, e, &filters))
            .collect();
        let value = aggregate.apply_exact(graph, &answers);
        let groups = match &query.group_by {
            None => BTreeMap::new(),
            Some(gb) => {
                let (attr, width) = gb.resolve(graph)?;
                group_values(graph, &aggregate, &answers, attr, width)
            }
        };
        Ok(SsbResult {
            value,
            groups,
            ground_truth,
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// GROUP-BY over exact answers: `answers` bucketed by `floor(attr / width)`
/// (answers without the attribute fall in no bucket) and the aggregate
/// applied exactly per bucket, members in `answers` order.
pub fn group_values(
    graph: &KnowledgeGraph,
    aggregate: &ResolvedAggregate,
    answers: &[kg_core::EntityId],
    attr: kg_core::AttrId,
    width: f64,
) -> BTreeMap<i64, f64> {
    let mut buckets: BTreeMap<i64, Vec<kg_core::EntityId>> = BTreeMap::new();
    for &a in answers {
        if let Some(v) = graph.attribute_value(a, attr) {
            buckets
                .entry((v / width).floor() as i64)
                .or_default()
                .push(a);
        }
    }
    buckets
        .into_iter()
        .map(|(k, members)| (k, aggregate.apply_exact(graph, &members)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateFunction, GroupBy};
    use crate::filter::Filter;
    use crate::query_graph::SimpleQuery;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;

    fn setup() -> (KnowledgeGraph, kg_embed::PredicateVectorStore) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        for i in 0..6 {
            let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.set_attribute(car, "price", 30_000.0 + 10_000.0 * i as f64);
            b.set_attribute(car, "mpg", 20.0 + i as f64);
            if i % 2 == 0 {
                b.add_edge(de, "product", car);
            } else {
                b.add_edge(car, "assembly", de);
            }
        }
        // A car related only through an unrelated predicate: not a correct answer.
        let far = b.add_entity("far_car", &["Automobile"]);
        b.set_attribute(far, "price", 1_000_000.0);
        b.add_edge(far, "exhibitedAt", de);
        let g = b.build();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("assembly").unwrap(), 0, 0.95),
            (g.predicate_id("exhibitedAt").unwrap(), 1, 1.0),
        ]);
        (g, store)
    }

    fn count_query() -> AggregateQuery {
        AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        )
    }

    #[test]
    fn ssb_counts_only_semantically_correct_answers() {
        let (g, store) = setup();
        let engine = SsbEngine::new(GroundTruthConfig::default());
        let r = engine.evaluate(&g, &count_query(), &store).unwrap();
        assert_eq!(r.value, 6.0);
        assert_eq!(r.ground_truth.candidate_count(), 7);
        assert!(r.elapsed_ms >= 0.0);
        assert!(r.groups.is_empty());
    }

    #[test]
    fn ssb_average_excludes_far_car() {
        let (g, store) = setup();
        let engine = SsbEngine::new(GroundTruthConfig::default());
        let q = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Avg("price".into()),
        );
        let r = engine.evaluate(&g, &q, &store).unwrap();
        let expected = (0..6).map(|i| 30_000.0 + 10_000.0 * i as f64).sum::<f64>() / 6.0;
        assert!((r.value - expected).abs() < 1e-9);
    }

    #[test]
    fn ssb_applies_filters() {
        let (g, store) = setup();
        let engine = SsbEngine::new(GroundTruthConfig::default());
        let q = count_query().with_filter(Filter::range("mpg", 21.0, 23.0));
        let r = engine.evaluate(&g, &q, &store).unwrap();
        assert_eq!(r.value, 3.0);
    }

    #[test]
    fn ssb_group_by_buckets() {
        let (g, store) = setup();
        let engine = SsbEngine::new(GroundTruthConfig::default());
        let q = count_query().with_group_by(GroupBy::new("price", 25_000.0));
        let r = engine.evaluate(&g, &q, &store).unwrap();
        let total: f64 = r.groups.values().sum();
        assert_eq!(total, 6.0);
        assert!(r.groups.len() >= 2);
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let (g, store) = setup();
        let engine = SsbEngine::new(GroundTruthConfig::default());
        let q = AggregateQuery::simple(
            SimpleQuery::new("Atlantis", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        assert!(engine.evaluate(&g, &q, &store).is_err());
        assert_eq!(engine.config().n_bound, 3);
    }
}
