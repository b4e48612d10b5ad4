//! Semantic similarity of a path / subgraph match to a query edge (Eq. 2).

use kg_core::{Path, PredicateId};
use kg_embed::PredicateSimilarity;

/// How the per-edge predicate similarities along a path are aggregated into
/// the path's semantic similarity.
///
/// The paper uses the **geometric mean** (Eq. 2), following its reference
/// \[13\], but notes that the method only requires the aggregate to be monotone
/// in the per-edge similarities. `Min` and `Product` are provided for the
/// ablation called out in DESIGN.md.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum PathAggregation {
    /// Geometric mean of the edge similarities (the paper's Eq. 2).
    #[default]
    GeometricMean,
    /// Minimum edge similarity (bottleneck semantics).
    Min,
    /// Product of edge similarities (penalises long paths heavily).
    Product,
}

impl PathAggregation {
    /// Aggregates a non-empty list of per-edge similarities into `[0, 1]`.
    pub fn aggregate(self, sims: &[f64]) -> f64 {
        if sims.is_empty() {
            return 0.0;
        }
        match self {
            PathAggregation::GeometricMean => {
                let product: f64 = sims.iter().product();
                if product <= 0.0 {
                    0.0
                } else {
                    product.powf(1.0 / sims.len() as f64)
                }
            }
            PathAggregation::Min => sims.iter().copied().fold(f64::INFINITY, f64::min),
            PathAggregation::Product => sims.iter().product(),
        }
    }
}

/// Semantic similarity `s[M(u)]` of a path to the query edge predicate
/// (Eq. 2): the aggregation of `sim(L_G(e'), L_Q(e))` over the edges `e'` of
/// the path. A zero-length path has similarity 0 (it contains no match of the
/// query edge).
pub fn path_similarity<S: PredicateSimilarity + ?Sized>(
    path: &Path,
    query_predicate: PredicateId,
    similarity: &S,
    aggregation: PathAggregation,
) -> f64 {
    if path.is_empty() {
        return 0.0;
    }
    let sims: Vec<f64> = path
        .predicates()
        .map(|p| similarity.similarity(p, query_predicate).clamp(0.0, 1.0))
        .collect();
    aggregation.aggregate(&sims)
}

/// Similarity computed over an explicit list of edge predicates rather than a
/// [`Path`] (used by the samplers, which track predicates but not nodes).
pub fn predicates_similarity<S: PredicateSimilarity + ?Sized>(
    predicates: &[PredicateId],
    query_predicate: PredicateId,
    similarity: &S,
    aggregation: PathAggregation,
) -> f64 {
    if predicates.is_empty() {
        return 0.0;
    }
    let sims: Vec<f64> = predicates
        .iter()
        .map(|p| similarity.similarity(*p, query_predicate).clamp(0.0, 1.0))
        .collect();
    aggregation.aggregate(&sims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::EntityId;
    use kg_embed::{oracle::oracle_store, PredicateVectorStore};

    fn p(i: u32) -> PredicateId {
        PredicateId::new(i)
    }

    fn store() -> PredicateVectorStore {
        // p0 = product (query), p1 = assembly (0.98), p2 = country (0.81),
        // p3 = designer (0.60), p4 = ground (unrelated).
        oracle_store(&[
            (p(0), 0, 1.0),
            (p(1), 0, 0.98),
            (p(2), 0, 0.81),
            (p(3), 0, 0.60),
            (p(4), 1, 1.0),
        ])
    }

    fn path(predicates: &[u32]) -> Path {
        let mut path = Path::trivial(EntityId::new(0));
        for (i, &pr) in predicates.iter().enumerate() {
            path = path.extended(p(pr), EntityId::new(i as u32 + 1));
        }
        path
    }

    #[test]
    fn example_3_geometric_mean() {
        // Paper's Example 3: Audi_TT via assembly (0.98) and country (0.81)
        // has similarity sqrt(0.98 * 0.81) ≈ 0.89.
        let s = store();
        let sim = path_similarity(&path(&[1, 2]), p(0), &s, PathAggregation::GeometricMean);
        let expected = (s.similarity(p(1), p(0)) * s.similarity(p(2), p(0))).sqrt();
        assert!((sim - expected).abs() < 1e-9);
        assert!(sim > 0.8 && sim < 1.0);
    }

    #[test]
    fn direct_edge_with_identical_predicate_has_similarity_one() {
        let s = store();
        let sim = path_similarity(&path(&[0]), p(0), &s, PathAggregation::GeometricMean);
        assert!((sim - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_has_zero_similarity() {
        let s = store();
        let trivial = Path::trivial(EntityId::new(0));
        assert_eq!(
            path_similarity(&trivial, p(0), &s, PathAggregation::GeometricMean),
            0.0
        );
        assert_eq!(
            predicates_similarity(&[], p(0), &s, PathAggregation::Min),
            0.0
        );
    }

    #[test]
    fn longer_semantic_path_can_beat_shorter_unrelated_path() {
        // The paper's remark: a longer path of highly-similar predicates can
        // be more similar than a shorter path with an unrelated predicate.
        let s = store();
        let long_good =
            path_similarity(&path(&[1, 2, 1]), p(0), &s, PathAggregation::GeometricMean);
        let short_bad = path_similarity(&path(&[4]), p(0), &s, PathAggregation::GeometricMean);
        assert!(long_good > short_bad);
    }

    #[test]
    fn aggregation_variants_are_ordered() {
        let sims = [0.9, 0.6, 0.8];
        let geo = PathAggregation::GeometricMean.aggregate(&sims);
        let min = PathAggregation::Min.aggregate(&sims);
        let prod = PathAggregation::Product.aggregate(&sims);
        assert!(prod <= min && min <= geo, "{prod} <= {min} <= {geo}");
        assert_eq!(PathAggregation::Min.aggregate(&[]), 0.0);
        assert_eq!(PathAggregation::GeometricMean.aggregate(&[0.0, 0.5]), 0.0);
    }

    #[test]
    fn monotone_in_edge_similarity() {
        let s = store();
        // Replacing an edge by a more similar one never decreases similarity.
        for agg in [
            PathAggregation::GeometricMean,
            PathAggregation::Min,
            PathAggregation::Product,
        ] {
            let lower = predicates_similarity(&[p(3), p(2)], p(0), &s, agg);
            let higher = predicates_similarity(&[p(1), p(2)], p(0), &s, agg);
            assert!(higher >= lower, "{agg:?}");
        }
    }
}
