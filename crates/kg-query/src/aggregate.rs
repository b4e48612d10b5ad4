//! Aggregate functions, GROUP-BY and the full aggregate-query description
//! (Definition 2 and §V-A).

use crate::filter::{Filter, ResolvedFilter};
use crate::query_graph::{QueryNode, SimpleQuery};
use crate::shapes::ComplexQuery;
use kg_core::{AttrId, EntityId, KgError, KgResult, KnowledgeGraph};
use serde::{Deserialize, Serialize};

/// The aggregate function `f_a` of a query (Definition 2).
///
/// COUNT, SUM and AVG are the non-extreme aggregates with accuracy
/// guarantees; MAX and MIN are supported on a best-effort basis (§VII,
/// Table XI) without a confidence interval.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateFunction {
    /// `COUNT(*)` over the correct answers.
    Count,
    /// `SUM(attribute)` over the correct answers.
    Sum(String),
    /// `AVG(attribute)` over the correct answers.
    Avg(String),
    /// `MAX(attribute)` — extreme function, no accuracy guarantee.
    Max(String),
    /// `MIN(attribute)` — extreme function, no accuracy guarantee.
    Min(String),
}

impl AggregateFunction {
    /// The attribute this aggregate reads, if any (COUNT reads none).
    pub fn attribute(&self) -> Option<&str> {
        match self {
            AggregateFunction::Count => None,
            AggregateFunction::Sum(a)
            | AggregateFunction::Avg(a)
            | AggregateFunction::Max(a)
            | AggregateFunction::Min(a) => Some(a),
        }
    }

    /// True for COUNT / SUM / AVG (the estimators with accuracy guarantees).
    pub fn has_accuracy_guarantee(&self) -> bool {
        !matches!(self, AggregateFunction::Max(_) | AggregateFunction::Min(_))
    }

    /// Short name for reports ("COUNT", "SUM", …).
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum(_) => "SUM",
            AggregateFunction::Avg(_) => "AVG",
            AggregateFunction::Max(_) => "MAX",
            AggregateFunction::Min(_) => "MIN",
        }
    }

    /// Resolves the attribute against a graph.
    pub fn resolve(&self, graph: &KnowledgeGraph) -> KgResult<ResolvedAggregate> {
        let attr = match self.attribute() {
            None => None,
            Some(name) => Some(
                graph
                    .attr_id(name)
                    .ok_or_else(|| KgError::UnknownAttribute(name.to_string()))?,
            ),
        };
        Ok(ResolvedAggregate {
            function: self.clone(),
            attribute: attr,
        })
    }
}

/// An [`AggregateFunction`] with its attribute resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedAggregate {
    /// The original aggregate description.
    pub function: AggregateFunction,
    /// Resolved attribute id (None for COUNT).
    pub attribute: Option<AttrId>,
}

impl ResolvedAggregate {
    /// Value contributed by one answer entity: 1.0 for COUNT, the attribute
    /// value otherwise. Answers missing the attribute contribute `None` and
    /// are skipped by exact evaluation and by the estimators alike.
    pub fn value_of(&self, graph: &KnowledgeGraph, entity: EntityId) -> Option<f64> {
        match self.attribute {
            None => Some(1.0),
            Some(attr) => graph.attribute_value(entity, attr),
        }
    }

    /// Applies the aggregate exactly over a set of answers (used by SSB, the
    /// baselines, ground-truth computation and the engine's exact answers).
    /// Returns 0.0 when no answer has a value, for every aggregate — the
    /// estimators' convention for a sample nothing contributes to (the
    /// paper's queries always have non-empty answers).
    pub fn apply_exact(&self, graph: &KnowledgeGraph, answers: &[EntityId]) -> f64 {
        let values: Vec<f64> = answers
            .iter()
            .filter_map(|&a| self.value_of(graph, a))
            .collect();
        if values.is_empty() {
            return 0.0;
        }
        match self.function {
            AggregateFunction::Count => values.len() as f64,
            AggregateFunction::Sum(_) => values.iter().sum(),
            AggregateFunction::Avg(_) => values.iter().sum::<f64>() / values.len() as f64,
            AggregateFunction::Max(_) => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggregateFunction::Min(_) => values.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// GROUP-BY specification (§V-A): answers are grouped by bucketing a
/// numerical attribute of the target entity (e.g. age groups of width 5).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupBy {
    /// Attribute whose value determines the group.
    pub attribute: String,
    /// Bucket width; a value `v` belongs to bucket `floor(v / width)`.
    pub bucket_width: f64,
}

impl GroupBy {
    /// Creates a GROUP-BY over `attribute` with buckets of `bucket_width`.
    pub fn new(attribute: &str, bucket_width: f64) -> Self {
        Self {
            attribute: attribute.to_string(),
            bucket_width,
        }
    }

    /// Resolves the attribute, returning `(attr, width)`.
    pub fn resolve(&self, graph: &KnowledgeGraph) -> KgResult<(AttrId, f64)> {
        let attr = graph
            .attr_id(&self.attribute)
            .ok_or_else(|| KgError::UnknownAttribute(self.attribute.clone()))?;
        Ok((attr, self.bucket_width.max(f64::MIN_POSITIVE)))
    }

    /// The bucket index of a value.
    pub fn bucket_of(&self, value: f64) -> i64 {
        (value / self.bucket_width).floor() as i64
    }
}

/// The query-graph part of an aggregate query: a simple question or a complex
/// shape (§V-B).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum QuerySpec {
    /// A single-edge simple question (Definition 3).
    Simple(SimpleQuery),
    /// A chain / star / cycle / flower query (§V-B).
    Complex(ComplexQuery),
}

/// The full aggregate query `AQ_G = (Q, f_a)` plus optional filters and
/// GROUP-BY (Definitions 2 and 6, §V-A).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggregateQuery {
    /// The query graph.
    pub query: QuerySpec,
    /// The aggregate function.
    pub function: AggregateFunction,
    /// Conjunctive range filters on answer attributes.
    pub filters: Vec<Filter>,
    /// Optional GROUP-BY.
    pub group_by: Option<GroupBy>,
}

impl AggregateQuery {
    /// An aggregate query over a simple question, without filters/GROUP-BY.
    pub fn simple(query: SimpleQuery, function: AggregateFunction) -> Self {
        Self {
            query: QuerySpec::Simple(query),
            function,
            filters: Vec::new(),
            group_by: None,
        }
    }

    /// An aggregate query over a complex shape.
    pub fn complex(query: ComplexQuery, function: AggregateFunction) -> Self {
        Self {
            query: QuerySpec::Complex(query),
            function,
            filters: Vec::new(),
            group_by: None,
        }
    }

    /// Adds a filter (builder style).
    pub fn with_filter(mut self, filter: Filter) -> Self {
        self.filters.push(filter);
        self
    }

    /// Sets the GROUP-BY (builder style).
    pub fn with_group_by(mut self, group_by: GroupBy) -> Self {
        self.group_by = Some(group_by);
        self
    }

    /// Resolves the filters against a graph.
    pub fn resolve_filters(&self, graph: &KnowledgeGraph) -> KgResult<Vec<ResolvedFilter>> {
        self.filters.iter().map(|f| f.resolve(graph)).collect()
    }

    /// The name-level footprint of this query: every entity name, predicate
    /// name and type name its query graph mentions. A write whose own
    /// footprint shares no name on any axis cannot change which subgraph
    /// the query anchors on — the overlap test component-scoped cache
    /// invalidation is built on (see [`QueryFootprint`]).
    pub fn footprint(&self) -> QueryFootprint {
        let mut fp = QueryFootprint::default();
        match &self.query {
            QuerySpec::Simple(s) => fp.add_simple(s),
            QuerySpec::Complex(c) => {
                for component in &c.components {
                    match component {
                        crate::shapes::QueryComponent::Simple(s) => fp.add_simple(s),
                        crate::shapes::QueryComponent::Chain(chain) => {
                            fp.add_node(&chain.specific);
                            for hop in &chain.hops {
                                fp.predicates.push(hop.predicate.clone());
                                fp.types.extend(hop.node_types.iter().cloned());
                            }
                        }
                    }
                }
            }
        }
        fp.normalise();
        fp
    }
}

/// The set of names a query (or a write) touches, one sorted-deduplicated
/// axis per id space: entity names, predicate names, type names.
///
/// Footprints drive **component-scoped cache invalidation**: a cached
/// answer or prepared sampler only has to die when a write's footprint
/// [`intersects`](Self::intersects) the query's. Names rather than ids keep
/// the comparison valid across graph snapshots — a write may intern new
/// names whose ids the cached query's graph never saw.
///
/// The test is deliberately conservative in one direction only (a shared
/// name forces eviction even when the write turns out to be harmless) and
/// relies on the graph being component-disjoint in the other: a write
/// *inside* the n-bounded scope of a query that mentions none of its names
/// can still shift that query's walk, so callers that require strict
/// never-stale semantics must keep unrelated workloads on disconnected
/// components (see ARCHITECTURE.md, "Mutability & epochs").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryFootprint {
    /// Entity names, sorted and deduplicated.
    pub entities: Vec<String>,
    /// Predicate names, sorted and deduplicated.
    pub predicates: Vec<String>,
    /// Type names, sorted and deduplicated.
    pub types: Vec<String>,
}

impl QueryFootprint {
    /// Builds a footprint from raw name lists, normalising each axis.
    pub fn new(entities: Vec<String>, predicates: Vec<String>, types: Vec<String>) -> Self {
        let mut fp = Self {
            entities,
            predicates,
            types,
        };
        fp.normalise();
        fp
    }

    /// True when the two footprints share at least one name on any axis.
    pub fn intersects(&self, other: &Self) -> bool {
        fn overlap(a: &[String], b: &[String]) -> bool {
            // Both sides are sorted; walk the shorter, probe the longer.
            let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            small.iter().any(|x| large.binary_search(x).is_ok())
        }
        overlap(&self.entities, &other.entities)
            || overlap(&self.predicates, &other.predicates)
            || overlap(&self.types, &other.types)
    }

    /// True when no axis holds any name (such a footprint intersects
    /// nothing).
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty() && self.predicates.is_empty() && self.types.is_empty()
    }

    fn add_node(&mut self, node: &QueryNode) {
        if let Some(name) = &node.name {
            self.entities.push(name.clone());
        }
        self.types.extend(node.types.iter().cloned());
    }

    fn add_simple(&mut self, query: &SimpleQuery) {
        self.add_node(&query.specific);
        self.add_node(&query.target);
        self.predicates.push(query.predicate.clone());
    }

    fn normalise(&mut self) {
        for axis in [&mut self.entities, &mut self.predicates, &mut self.types] {
            axis.sort_unstable();
            axis.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        for (i, price) in [40_000.0, 60_000.0, 80_000.0].iter().enumerate() {
            let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.set_attribute(car, "price", *price);
            b.add_edge(de, "product", car);
        }
        b.build()
    }

    fn cars(g: &KnowledgeGraph) -> Vec<EntityId> {
        (0..3)
            .map(|i| g.entity_by_name(&format!("car{i}")).unwrap())
            .collect()
    }

    #[test]
    fn exact_aggregates() {
        let g = graph();
        let answers = cars(&g);
        let count = AggregateFunction::Count.resolve(&g).unwrap();
        assert_eq!(count.apply_exact(&g, &answers), 3.0);
        let sum = AggregateFunction::Sum("price".into()).resolve(&g).unwrap();
        assert_eq!(sum.apply_exact(&g, &answers), 180_000.0);
        let avg = AggregateFunction::Avg("price".into()).resolve(&g).unwrap();
        assert_eq!(avg.apply_exact(&g, &answers), 60_000.0);
        let max = AggregateFunction::Max("price".into()).resolve(&g).unwrap();
        assert_eq!(max.apply_exact(&g, &answers), 80_000.0);
        let min = AggregateFunction::Min("price".into()).resolve(&g).unwrap();
        assert_eq!(min.apply_exact(&g, &answers), 40_000.0);
        // Nothing to aggregate is 0 (not ±∞, not -0) for every function.
        let germany = [g.entity_by_name("Germany").unwrap()];
        for aggregate in [&sum, &avg, &max, &min] {
            for empty in [&[][..], &germany[..]] {
                assert_eq!(aggregate.apply_exact(&g, empty).to_bits(), 0);
            }
        }
        assert_eq!(count.apply_exact(&g, &[]).to_bits(), 0);
    }

    #[test]
    fn missing_attribute_entities_are_skipped() {
        let g = graph();
        let mut answers = cars(&g);
        answers.push(g.entity_by_name("Germany").unwrap()); // no price attribute
        let avg = AggregateFunction::Avg("price".into()).resolve(&g).unwrap();
        assert_eq!(avg.apply_exact(&g, &answers), 60_000.0);
        let count = AggregateFunction::Count.resolve(&g).unwrap();
        assert_eq!(
            count.apply_exact(&g, &answers),
            4.0,
            "COUNT ignores attributes"
        );
    }

    #[test]
    fn aggregate_metadata() {
        assert!(AggregateFunction::Count.has_accuracy_guarantee());
        assert!(!AggregateFunction::Max("x".into()).has_accuracy_guarantee());
        assert_eq!(AggregateFunction::Avg("price".into()).name(), "AVG");
        assert_eq!(
            AggregateFunction::Sum("price".into()).attribute(),
            Some("price")
        );
        assert!(AggregateFunction::Count.attribute().is_none());
        let g = graph();
        assert!(AggregateFunction::Sum("weight".into()).resolve(&g).is_err());
    }

    #[test]
    fn group_by_bucketing() {
        let gb = GroupBy::new("age", 5.0);
        assert_eq!(gb.bucket_of(23.0), 4);
        assert_eq!(gb.bucket_of(25.0), 5);
        assert_eq!(gb.bucket_of(4.9), 0);
        let g = graph();
        assert!(gb.resolve(&g).is_err());
        let gb_price = GroupBy::new("price", 50_000.0);
        let (attr, width) = gb_price.resolve(&g).unwrap();
        assert_eq!(g.attr_name(attr), "price");
        assert_eq!(width, 50_000.0);
    }

    #[test]
    fn footprints_collect_names_and_detect_overlap() {
        use crate::shapes::{ChainHop, ChainQuery, ComplexQuery};

        let simple = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let fp = simple.footprint();
        assert_eq!(fp.entities, vec!["Germany".to_string()]);
        assert_eq!(fp.predicates, vec!["product".to_string()]);
        assert_eq!(
            fp.types,
            vec!["Automobile".to_string(), "Country".to_string()]
        );
        assert!(!fp.is_empty());

        let chain = AggregateQuery::complex(
            ComplexQuery::chain(ChainQuery::new(
                "Germany",
                &["Country"],
                vec![
                    ChainHop::new("product", &["Automobile"]),
                    ChainHop::new("made_of", &["Material"]),
                ],
            )),
            AggregateFunction::Count,
        );
        let chain_fp = chain.footprint();
        assert_eq!(
            chain_fp.predicates,
            vec!["made_of".to_string(), "product".to_string()]
        );
        assert!(fp.intersects(&chain_fp), "shared predicate and entity");

        // Disjoint on all three axes: no intersection either way.
        let other = AggregateQuery::simple(
            SimpleQuery::new("Japan", &["Island"], "builds", &["Ship"]),
            AggregateFunction::Count,
        )
        .footprint();
        assert!(!fp.intersects(&other));
        assert!(!other.intersects(&fp));

        // A write footprint touching only one type name still intersects.
        let write = QueryFootprint::new(vec![], vec![], vec!["Automobile".into()]);
        assert!(write.intersects(&fp));
        assert!(!QueryFootprint::default().intersects(&fp));
    }

    #[test]
    fn builder_style_query() {
        let q = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Avg("price".into()),
        )
        .with_filter(Filter::range("price", 0.0, 70_000.0))
        .with_group_by(GroupBy::new("price", 50_000.0));
        assert_eq!(q.filters.len(), 1);
        assert!(q.group_by.is_some());
        let g = graph();
        assert_eq!(q.resolve_filters(&g).unwrap().len(), 1);
        match q.query {
            QuerySpec::Simple(ref s) => assert_eq!(s.predicate, "product"),
            _ => panic!("expected simple query"),
        }
    }
}
