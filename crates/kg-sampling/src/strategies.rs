//! Edge-weight strategies: semantic-aware (the paper's) and the
//! topology-aware baselines used in the Fig. 5(a) ablation.

use kg_core::{EntityId, KnowledgeGraph, PredicateId};
use kg_embed::PredicateSimilarity;
use std::collections::HashSet;

/// Floor on the similarity weight and on Node2Vec's `p` and `q`.
const FLOOR: f64 = 1e-3;

/// Which transition-weight scheme the walker uses.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SamplingStrategy {
    /// The paper's semantic-aware weights: `w(u→v) ∝ sim(L(uv), L_Q(e))`
    /// (Eq. 5).
    SemanticAware,
    /// CNARW-style common-neighbour-aware weights: neighbours sharing many
    /// common neighbours with the current node are down-weighted to reduce
    /// sample correlation. Topology only.
    Cnarw,
    /// Node2Vec-style biased weights approximated to first order using BFS
    /// distance from the walk origin: returning towards the origin is scaled
    /// by `1/p`, moving outward by `1/q`. Topology only.
    Node2Vec {
        /// Return parameter `p`.
        p: f64,
        /// In-out parameter `q`.
        q: f64,
    },
    /// Plain uniform weights (simple random walk).
    Uniform,
}

impl SamplingStrategy {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SamplingStrategy::SemanticAware => "semantic-aware",
            SamplingStrategy::Cnarw => "CNARW",
            SamplingStrategy::Node2Vec { .. } => "Node2Vec",
            SamplingStrategy::Uniform => "uniform",
        }
    }

    /// The factor b(u) of the closed form π(u) ∝ b(u)·W(u) (W the weighted
    /// degree) at BFS level `distance`: 1 for symmetric weights; Node2Vec
    /// weighs an edge 1/q′ out and 1/p′ back, so b(u) = (p′/q′)^{d(u)}.
    pub fn stationary_bias(self, distance: u32) -> f64 {
        match self {
            SamplingStrategy::Node2Vec { p, q } => {
                (p.max(FLOOR) / q.max(FLOOR)).powi(distance as i32)
            }
            _ => 1.0,
        }
    }

    /// The unnormalised transition weight of moving from `from` to `to` over
    /// an edge labelled `predicate`.
    ///
    /// `origin_distance` gives BFS distances from the walk origin (used by
    /// the Node2Vec approximation); `query_predicate` and `similarity` are
    /// only consulted by the semantic-aware strategy.
    #[allow(clippy::too_many_arguments)]
    pub fn weight<S: PredicateSimilarity + ?Sized>(
        self,
        graph: &KnowledgeGraph,
        from: EntityId,
        to: EntityId,
        predicate: PredicateId,
        query_predicate: PredicateId,
        similarity: &S,
        distance_from: Option<u32>,
        distance_to: Option<u32>,
    ) -> f64 {
        match self {
            SamplingStrategy::SemanticAware => {
                similarity.similarity(predicate, query_predicate).max(FLOOR)
            }
            SamplingStrategy::Uniform => 1.0,
            SamplingStrategy::Cnarw => {
                // Distinct common neighbours: counting `to`'s edges would
                // make w(u→v) ≠ w(v→u) on multi-edges.
                let distinct = |u: EntityId| -> HashSet<EntityId> {
                    graph.neighbors(u).iter().map(|e| e.neighbor).collect()
                };
                let common = distinct(from).intersection(&distinct(to)).count();
                1.0 / (1.0 + common as f64)
            }
            SamplingStrategy::Node2Vec { p, q } => {
                let (df, dt) = (
                    distance_from.unwrap_or(0) as i64,
                    distance_to.unwrap_or(0) as i64,
                );
                if dt < df {
                    1.0 / p.max(FLOOR)
                } else if dt > df {
                    1.0 / q.max(FLOOR)
                } else {
                    1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;

    #[test]
    fn semantic_weights_follow_similarity() {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let car = b.add_entity("car", &["Automobile"]);
        let misc = b.add_entity("misc", &["Misc"]);
        b.add_edge(de, "product", car);
        b.add_edge(de, "relatedTo", misc);
        let g = b.build();
        let product = g.predicate_id("product").unwrap();
        let related = g.predicate_id("relatedTo").unwrap();
        let store = oracle_store(&[(product, 0, 1.0), (related, 1, 1.0)]);
        let s = SamplingStrategy::SemanticAware;
        let w_good = s.weight(&g, de, car, product, product, &store, Some(0), Some(1));
        let w_bad = s.weight(&g, de, misc, related, product, &store, Some(0), Some(1));
        assert!(w_good > w_bad);
        assert!(w_bad >= 1e-3, "floor keeps the chain irreducible");
        assert_eq!(s.name(), "semantic-aware");
    }

    #[test]
    fn cnarw_downweights_shared_neighbourhoods() {
        let mut b = GraphBuilder::new();
        let hub = b.add_entity("hub", &["T"]);
        let a = b.add_entity("a", &["T"]);
        let c = b.add_entity("c", &["T"]);
        let lonely = b.add_entity("lonely", &["T"]);
        // a and hub share neighbour c; lonely shares none.
        b.add_edge(hub, "p", a);
        b.add_edge(hub, "p", c);
        b.add_edge(a, "p", c);
        b.add_edge(hub, "p", lonely);
        let g = b.build();
        let p = g.predicate_id("p").unwrap();
        let store = oracle_store(&[(p, 0, 1.0)]);
        let s = SamplingStrategy::Cnarw;
        let w_shared = s.weight(&g, hub, a, p, p, &store, None, None);
        let w_lonely = s.weight(&g, hub, lonely, p, p, &store, None, None);
        assert!(w_lonely > w_shared);
        assert_eq!(s.name(), "CNARW");
    }

    /// u–v, u with two edges to x, v with one: counting edges gave
    /// w(u→v) = 1/2 but w(v→u) = 1/3. Over distinct common neighbours
    /// both are 1/2, so the CNARW walk is reversible.
    #[test]
    fn cnarw_weight_is_symmetric_on_multi_edges() {
        let mut b = GraphBuilder::new();
        let u = b.add_entity("u", &["T"]);
        let v = b.add_entity("v", &["T"]);
        let x = b.add_entity("x", &["T"]);
        b.add_edge(u, "p", v);
        b.add_edge(u, "p", x);
        b.add_edge(u, "q", x);
        b.add_edge(v, "p", x);
        let g = b.build();
        let p = g.predicate_id("p").unwrap();
        let store = oracle_store(&[(p, 0, 1.0)]);
        let s = SamplingStrategy::Cnarw;
        let uv = s.weight(&g, u, v, p, p, &store, None, None);
        let vu = s.weight(&g, v, u, p, p, &store, None, None);
        assert_eq!(uv, vu);
        assert_eq!(uv, 0.5);
    }

    #[test]
    fn node2vec_distance_bias() {
        let g = GraphBuilder::new().build();
        let p = PredicateId::new(0);
        let store = oracle_store(&[(p, 0, 1.0)]);
        let s = SamplingStrategy::Node2Vec { p: 4.0, q: 0.5 };
        let back = s.weight(
            &g,
            EntityId::new(1),
            EntityId::new(0),
            p,
            p,
            &store,
            Some(2),
            Some(1),
        );
        let stay = s.weight(
            &g,
            EntityId::new(1),
            EntityId::new(2),
            p,
            p,
            &store,
            Some(2),
            Some(2),
        );
        let out = s.weight(
            &g,
            EntityId::new(1),
            EntityId::new(3),
            p,
            p,
            &store,
            Some(2),
            Some(3),
        );
        assert!(back < stay && stay < out);
        assert_eq!(s.name(), "Node2Vec");
        assert_eq!(SamplingStrategy::Uniform.name(), "uniform");
    }
}
