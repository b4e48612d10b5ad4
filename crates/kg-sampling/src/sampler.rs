//! Sampler preparation and continuous sampling of candidate answers
//! (§IV-A2, steps 2 and 3). The walk is reversible on the undirected ball,
//! so Eq. 6's π has a closed form (Lovász, *Random Walks on Graphs: A
//! Survey*, 1993), which [`prepare`] reads off in one pass over the scope.

use crate::alias::AliasTable;
use crate::strategies::SamplingStrategy;
use crate::transition::row_entries;
use kg_core::{bounded_subgraph, BoundedSubgraph, EntityId, KgResult, KnowledgeGraph};
use kg_embed::PredicateSimilarity;
use kg_query::ResolvedSimpleQuery;
use rand::Rng;
use std::collections::HashMap;

/// Configuration of the sampler: the scope and Lemma 2's self-loop. π is
/// computed in closed form, so nothing else is tuned.
#[derive(Clone, Copy, Debug)]
pub struct SamplerConfig {
    /// Hop bound `n` of the n-bounded subgraph (paper default 3).
    pub n_bound: u32,
    /// Self-loop weight on the mapping node (paper: 0.001).
    pub self_loop_weight: f64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            n_bound: 3,
            self_loop_weight: 0.001,
        }
    }
}

/// One sampled candidate answer together with its visiting probability
/// `π'_i ∈ π_A` (needed by the Horvitz–Thompson estimators).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledAnswer {
    /// The candidate answer entity.
    pub entity: EntityId,
    /// Its visiting probability in the answer-restricted stationary
    /// distribution π_A.
    pub probability: f64,
}

/// A sampler whose stationary distribution is known; drawing answers from
/// it is cheap and i.i.d. (Theorem 1).
#[derive(Clone, Debug)]
pub struct PreparedSampler {
    pub(crate) scope: BoundedSubgraph,
    pub(crate) stationary: HashMap<EntityId, f64>,
    /// Candidate answers with their π_A probabilities (sums to 1).
    pub(crate) answers: Vec<SampledAnswer>,
    /// O(1) draw table over the answer probabilities; `None` when the
    /// scope holds no candidate answers.
    pub(crate) table: Option<AliasTable>,
    /// Number of transition-matrix entries (the |E_G'| of the cost model).
    pub transition_entries: usize,
}

/// Runs the offline part of sampling for a simple query: builds the
/// n-bounded scope, computes the stationary distribution of the Eq. 5 walk
/// (Eq. 6) in closed form, π(u) = b(u)·W(u) / Σ_v b(v)·W(v), and restricts
/// it to the candidate answers (π_A).
///
/// # Errors
///
/// Returns [`kg_core::KgError::DegenerateWeights`] when the π_A mass of an
/// answer is NaN or infinite (e.g. a broken similarity store drove the
/// weights to overflow) — the degenerate answer set is rejected here, at
/// prepare time, instead of panicking later in the draw hot path.
pub fn prepare<S: PredicateSimilarity + ?Sized>(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    similarity: &S,
    strategy: SamplingStrategy,
    config: &SamplerConfig,
) -> KgResult<PreparedSampler> {
    let scope = bounded_subgraph(graph, query.specific, config.n_bound);
    let nodes = scope.sorted_nodes();
    let mut transition_entries = 0;
    let mass: Vec<f64> = nodes
        .iter()
        .map(|&u| {
            let mut degree = 0.0;
            for (_, w) in row_entries(
                graph,
                query,
                &scope,
                similarity,
                strategy,
                config.self_loop_weight,
                u,
            ) {
                degree += w;
                transition_entries += 1;
            }
            degree * strategy.stationary_bias(scope.distance(u).unwrap_or(0))
        })
        .collect();
    let total_mass: f64 = mass.iter().sum();
    let stationary: HashMap<EntityId, f64> = nodes
        .iter()
        .zip(&mass)
        .map(|(&n, &m)| (n, m / total_mass))
        .collect();

    // Extract π_A: restrict π to candidate answers and re-normalise.
    let mut answers: Vec<SampledAnswer> = nodes
        .iter()
        .zip(&mass)
        .filter(|(&n, _)| query.is_candidate(graph, n))
        .map(|(&n, &m)| SampledAnswer {
            entity: n,
            probability: m / total_mass,
        })
        .collect();
    let total: f64 = answers.iter().map(|a| a.probability).sum();
    for a in &mut answers {
        a.probability /= total;
    }
    // Every W(u) is positive, so π_A is a distribution unless a weight
    // overflowed; the table build rejects that as a structured error.
    let weights: Vec<f64> = answers.iter().map(|a| a.probability).collect();
    let table = (!weights.is_empty())
        .then(|| AliasTable::new(&weights))
        .transpose()?;
    Ok(PreparedSampler {
        scope,
        stationary,
        answers,
        table,
        transition_entries,
    })
}

impl PreparedSampler {
    /// The number of candidate answers in scope (|A| as seen by the sampler).
    pub fn candidate_count(&self) -> usize {
        self.answers.len()
    }

    /// The n-bounded scope of the walk.
    pub fn scope(&self) -> &BoundedSubgraph {
        &self.scope
    }

    /// The stationary visiting probability π of a node (0 when out of scope).
    pub fn stationary_probability(&self, node: EntityId) -> f64 {
        self.stationary.get(&node).copied().unwrap_or(0.0)
    }

    /// The answer-restricted probability π'_i of a candidate (0 for
    /// non-candidates).
    pub fn answer_probability(&self, node: EntityId) -> f64 {
        self.answers
            .iter()
            .find(|a| a.entity == node)
            .map(|a| a.probability)
            .unwrap_or(0.0)
    }

    /// All candidate answers with their π_A probabilities.
    pub fn answer_distribution(&self) -> &[SampledAnswer] {
        &self.answers
    }

    /// Draws `count` answers i.i.d. from π_A (continuous sampling from the
    /// stationary distribution, Theorem 1) via the prepared [`AliasTable`] — expected
    /// O(1) per draw, bit-identical to the binary-search draw it replaced.
    /// Returns an empty vector when the scope holds no candidate answers.
    pub fn draw<R: Rng>(&self, rng: &mut R, count: usize) -> Vec<SampledAnswer> {
        let Some(table) = &self.table else {
            return Vec::new();
        };
        (0..count)
            .map(|_| self.answers[table.sample(rng)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;

    /// The doc comments on [`SamplerConfig`] cite the paper's defaults
    /// (n = 3, self-loop weight 0.001); assert the `Default` impl matches so
    /// the documentation cannot drift from the code.
    #[test]
    fn default_config_matches_documented_paper_defaults() {
        let c = SamplerConfig::default();
        assert_eq!(c.n_bound, 3);
        assert_eq!(c.self_loop_weight, 0.001);
    }
    use kg_embed::oracle::oracle_store;
    use kg_query::SimpleQuery;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (
        KnowledgeGraph,
        ResolvedSimpleQuery,
        kg_embed::PredicateVectorStore,
    ) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let company = b.add_entity("vw", &["Company"]);
        b.add_edge(company, "country", de);
        for i in 0..20 {
            let c = b.add_entity(&format!("good{i}"), &["Automobile"]);
            if i % 2 == 0 {
                b.add_edge(de, "product", c);
            } else {
                b.add_edge(c, "assembly", company);
            }
        }
        for i in 0..20 {
            let c = b.add_entity(&format!("weak{i}"), &["Automobile"]);
            b.add_edge(c, "exhibitedAt", de);
        }
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("assembly").unwrap(), 0, 0.95),
            (g.predicate_id("country").unwrap(), 0, 0.9),
            (g.predicate_id("exhibitedAt").unwrap(), 0, 0.25),
        ]);
        (g, q, store)
    }

    #[test]
    fn answer_distribution_is_normalised_and_semantic() {
        let (g, q, store) = setup();
        let sampler = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        assert_eq!(sampler.candidate_count(), 40);
        let total: f64 = sampler
            .answer_distribution()
            .iter()
            .map(|a| a.probability)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(sampler.transition_entries > 0);
        // Semantically related answers are more likely to be sampled.
        let good = sampler.answer_probability(g.entity_by_name("good0").unwrap());
        let weak = sampler.answer_probability(g.entity_by_name("weak0").unwrap());
        assert!(good > weak, "good={good} weak={weak}");
        assert!(sampler.stationary_probability(q.specific) > 0.0);
        assert_eq!(sampler.answer_probability(q.specific), 0.0);
        assert!(sampler.scope().contains(q.specific));
    }

    #[test]
    fn drawing_matches_probabilities_empirically() {
        let (g, q, store) = setup();
        let sampler = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        let sample = sampler.draw(&mut rng, 20_000);
        assert_eq!(sample.len(), 20_000);
        let good_hits = sample
            .iter()
            .filter(|a| g.entity(a.entity).name.starts_with("good"))
            .count() as f64;
        let expected: f64 = sampler
            .answer_distribution()
            .iter()
            .filter(|a| g.entity(a.entity).name.starts_with("good"))
            .map(|a| a.probability)
            .sum();
        let observed = good_hits / 20_000.0;
        assert!(
            (observed - expected).abs() < 0.03,
            "obs={observed} exp={expected}"
        );
    }

    #[test]
    fn uniform_strategy_spreads_probability_more_evenly() {
        let (g, q, store) = setup();
        let semantic = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        let uniform = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::Uniform,
            &SamplerConfig::default(),
        )
        .unwrap();
        let weak = g.entity_by_name("weak0").unwrap();
        assert!(uniform.answer_probability(weak) > semantic.answer_probability(weak));
        // CNARW and Node2Vec also prepare without error.
        for strategy in [
            SamplingStrategy::Cnarw,
            SamplingStrategy::Node2Vec { p: 4.0, q: 0.25 },
        ] {
            let s = prepare(&g, &q, &store, strategy, &SamplerConfig::default()).unwrap();
            assert_eq!(s.candidate_count(), 40);
        }
    }

    #[test]
    fn empty_candidate_set_is_handled() {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let misc = b.add_entity("misc", &["Misc"]);
        b.add_edge(de, "product", misc);
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Misc"]).resolve(&g);
        // Misc is a valid target type here, but let's query for Automobile instead.
        assert!(q.is_ok());
        let q2 = kg_query::ResolvedSimpleQuery {
            specific: g.entity_by_name("Germany").unwrap(),
            predicate: g.predicate_id("product").unwrap(),
            target_types: vec![kg_core::TypeId::new(999)],
        };
        let store = oracle_store(&[(g.predicate_id("product").unwrap(), 0, 1.0)]);
        let sampler = prepare(
            &g,
            &q2,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        assert_eq!(sampler.candidate_count(), 0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(sampler.draw(&mut rng, 10).is_empty());
    }

    /// Regression: a similarity store that emits non-finite scores drives
    /// the transition rows to `inf/inf = NaN`, which used to be laundered
    /// into a uniform fallback (or, downstream, panic inside the draw's
    /// `partial_cmp(..).unwrap()`). It must now surface as a structured
    /// error at prepare time — draws never see non-finite weights.
    #[test]
    fn degenerate_weights_error_at_prepare_time_instead_of_panicking_at_draw() {
        struct BrokenSimilarity;
        impl kg_embed::PredicateSimilarity for BrokenSimilarity {
            fn similarity(&self, _: kg_core::PredicateId, _: kg_core::PredicateId) -> f64 {
                f64::INFINITY
            }
        }
        let (g, q, _) = setup();
        let err = prepare(
            &g,
            &q,
            &BrokenSimilarity,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap_err();
        match err {
            kg_core::KgError::DegenerateWeights { weight, .. } => {
                assert!(!weight.is_finite(), "weight={weight}");
            }
            other => panic!("expected DegenerateWeights, got {other:?}"),
        }
    }
}
