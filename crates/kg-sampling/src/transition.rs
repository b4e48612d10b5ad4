//! The random walk's transition weights over the n-bounded subgraph
//! (Eq. 5): `row_entries`, which [`crate::prepare`] sums into π, and
//! [`TransitionMatrix`], their row-normalised form, the tests' reference.

use crate::strategies::SamplingStrategy;
use kg_core::{BoundedSubgraph, EntityId, KnowledgeGraph};
use kg_embed::PredicateSimilarity;
use kg_query::ResolvedSimpleQuery;
use std::collections::HashMap;

/// The unnormalised entries of Eq. 5's row out of `u`: one `(neighbour,
/// weight)` per entry of `graph.neighbors(u)` that stays in `scope`, in
/// that order, then Lemma 2's self-loop (weight `self_loop_weight`) when
/// `u` is the mapping node. Weights are floored at `f64::MIN_POSITIVE`, so
/// every in-scope node has positive row mass: the BFS parent of a non-root
/// node is in scope, and the root carries the self-loop. Edges leaving the
/// scope are dropped, which is the walk on the induced subgraph `G'`.
pub(crate) fn row_entries<'a, S: PredicateSimilarity + ?Sized>(
    graph: &'a KnowledgeGraph,
    query: &'a ResolvedSimpleQuery,
    scope: &'a BoundedSubgraph,
    similarity: &'a S,
    strategy: SamplingStrategy,
    self_loop_weight: f64,
    u: EntityId,
) -> impl Iterator<Item = (EntityId, f64)> + 'a {
    let du = scope.distance(u);
    let self_loop = (u == query.specific).then(|| (u, self_loop_weight.max(f64::MIN_POSITIVE)));
    graph
        .neighbors(u)
        .iter()
        .filter_map(move |edge| {
            let dv = scope.distance(edge.neighbor)?;
            let w = strategy.weight(
                graph,
                u,
                edge.neighbor,
                edge.predicate,
                query.predicate,
                similarity,
                du,
                Some(dv),
            );
            Some((edge.neighbor, w.max(f64::MIN_POSITIVE)))
        })
        .chain(self_loop)
}

/// A row-stochastic transition matrix restricted to the nodes of the
/// n-bounded subgraph, stored sparsely as per-node neighbour lists: the
/// reference Eq. 5 walk that tests check the closed-form π against.
#[derive(Clone, Debug)]
pub struct TransitionMatrix {
    /// Dense re-indexing of the in-scope nodes.
    nodes: Vec<EntityId>,
    index: HashMap<EntityId, usize>,
    /// `rows[i]` = list of `(target index, probability)`, summing to 1.
    rows: Vec<Vec<(usize, f64)>>,
}

impl TransitionMatrix {
    /// Builds the transition matrix for `query` over the `scope` subgraph:
    /// each row is `row_entries` divided by its sum.
    pub fn build<S: PredicateSimilarity + ?Sized>(
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        scope: &BoundedSubgraph,
        similarity: &S,
        strategy: SamplingStrategy,
        self_loop_weight: f64,
    ) -> Self {
        let nodes = scope.sorted_nodes();
        let index: HashMap<EntityId, usize> =
            nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
        let rows = nodes
            .iter()
            .map(|&u| {
                let mut row: Vec<(usize, f64)> = row_entries(
                    graph,
                    query,
                    scope,
                    similarity,
                    strategy,
                    self_loop_weight,
                    u,
                )
                .map(|(v, w)| (index[&v], w))
                .collect();
                let total: f64 = row.iter().map(|(_, w)| *w).sum();
                for (_, w) in &mut row {
                    *w /= total;
                }
                row
            })
            .collect();
        Self { nodes, index, rows }
    }

    /// Number of in-scope nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of non-zero transition entries.
    pub fn entry_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The in-scope nodes in dense-index order.
    pub fn nodes(&self) -> &[EntityId] {
        &self.nodes
    }

    /// The dense index of a node, if in scope.
    pub fn index_of(&self, node: EntityId) -> Option<usize> {
        self.index.get(&node).copied()
    }

    /// The transition probability `p(u → v)`, 0 when either node is out of
    /// scope or no edge connects them.
    pub fn probability(&self, from: EntityId, to: EntityId) -> f64 {
        let (Some(i), Some(j)) = (self.index_of(from), self.index_of(to)) else {
            return 0.0;
        };
        self.rows[i]
            .iter()
            .filter(|(k, _)| *k == j)
            .map(|(_, w)| *w)
            .sum()
    }

    /// One step of the walk: `next = current · P`, indexed like
    /// [`Self::nodes`].
    pub fn step(&self, current: &[f64]) -> Vec<f64> {
        debug_assert_eq!(current.len(), self.nodes.len());
        let mut next = vec![0.0; current.len()];
        for (row, &mass) in self.rows.iter().zip(current) {
            for &(j, p) in row {
                next[j] += mass * p;
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::{bounded_subgraph, GraphBuilder};
    use kg_embed::oracle::oracle_store;
    use kg_query::SimpleQuery;

    fn setup() -> (
        KnowledgeGraph,
        ResolvedSimpleQuery,
        kg_embed::PredicateVectorStore,
    ) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let car1 = b.add_entity("car1", &["Automobile"]);
        let car2 = b.add_entity("car2", &["Automobile"]);
        let company = b.add_entity("vw", &["Company"]);
        let misc = b.add_entity("misc", &["Misc"]);
        b.add_edge(de, "product", car1);
        b.add_edge(company, "country", de);
        b.add_edge(car2, "assembly", company);
        b.add_edge(misc, "relatedTo", de);
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("assembly").unwrap(), 0, 0.95),
            (g.predicate_id("country").unwrap(), 0, 0.9),
            (g.predicate_id("relatedTo").unwrap(), 1, 1.0),
        ]);
        (g, q, store)
    }

    #[test]
    fn rows_are_stochastic() {
        let (g, q, store) = setup();
        let scope = bounded_subgraph(&g, q.specific, 3);
        let t = TransitionMatrix::build(
            &g,
            &q,
            &scope,
            &store,
            SamplingStrategy::SemanticAware,
            0.001,
        );
        assert_eq!(t.node_count(), g.entity_count());
        for i in 0..t.node_count() {
            let row_sum: f64 = t.rows[i].iter().map(|(_, w)| w).sum();
            assert!((row_sum - 1.0).abs() < 1e-9, "row {i} sums to {row_sum}");
        }
        assert!(t.entry_count() >= g.edge_count());
        // Example-4 style check: the semantic edge gets more probability than
        // the unrelated one out of the mapping node.
        let car1 = g.entity_by_name("car1").unwrap();
        let misc = g.entity_by_name("misc").unwrap();
        assert!(t.probability(q.specific, car1) > t.probability(q.specific, misc));
        assert!(
            t.probability(q.specific, q.specific) > 0.0,
            "self-loop present"
        );
    }

    /// π from [`crate::prepare`] is stationary under one step of this
    /// matrix and favours the semantically related answer.
    #[test]
    fn stationary_distribution_sums_to_one_and_favours_semantic_answers() {
        let (g, q, store) = setup();
        let scope = bounded_subgraph(&g, q.specific, 3);
        let t = TransitionMatrix::build(
            &g,
            &q,
            &scope,
            &store,
            SamplingStrategy::SemanticAware,
            0.001,
        );
        let sampler = crate::prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &crate::SamplerConfig::default(),
        )
        .unwrap();
        let pi: Vec<f64> = t
            .nodes()
            .iter()
            .map(|&n| sampler.stationary_probability(n))
            .collect();
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        let residual: f64 = t
            .step(&pi)
            .iter()
            .zip(&pi)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(residual < 1e-12, "residual {residual}");
        let idx = |name: &str| t.index_of(g.entity_by_name(name).unwrap()).unwrap();
        assert!(pi[idx("car1")] > pi[idx("misc")]);
        assert!(pi.iter().all(|p| *p > 0.0));
    }

    #[test]
    fn out_of_scope_probability_is_zero() {
        let (g, q, store) = setup();
        let scope = bounded_subgraph(&g, q.specific, 1);
        let t = TransitionMatrix::build(&g, &q, &scope, &store, SamplingStrategy::Uniform, 0.001);
        let car2 = g.entity_by_name("car2").unwrap();
        assert_eq!(t.index_of(car2), None);
        assert_eq!(t.probability(q.specific, car2), 0.0);
        assert!(t.node_count() < g.entity_count());
        assert_eq!(t.nodes().len(), t.node_count());
    }
}
