//! Complex query shapes: chain, star, cycle, flower (§V-B).
//!
//! The paper supports complex shapes via a *decomposition–assembly* framework:
//! a complex query is decomposed into simple and chain-shaped components that
//! share the same target node; each component is answered independently and
//! the answer sets are intersected. This module only models the query
//! structure — execution lives in the engine crate.

use crate::query_graph::{QueryNode, ResolvedSimpleQuery, SimpleQuery};
use kg_core::{EntityId, KgError, KgResult, KnowledgeGraph, PredicateId, TypeId};
use serde::{Deserialize, Serialize};

/// The query-graph shapes studied in the paper (Figure 4 and reference \[17\]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryShape {
    /// One specific node, one edge, one target node.
    Simple,
    /// A multi-hop path from the specific node to the target node.
    Chain,
    /// Several components sharing the target node.
    Star,
    /// Components forming a cycle through the target node.
    Cycle,
    /// Star with at least one chain petal ("flower").
    Flower,
}

impl QueryShape {
    /// All shapes in the order used by the paper's tables.
    pub fn all() -> [QueryShape; 5] {
        [
            QueryShape::Simple,
            QueryShape::Chain,
            QueryShape::Star,
            QueryShape::Cycle,
            QueryShape::Flower,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QueryShape::Simple => "Simple",
            QueryShape::Chain => "Chain",
            QueryShape::Star => "Star",
            QueryShape::Cycle => "Cycle",
            QueryShape::Flower => "Flower",
        }
    }
}

impl std::fmt::Display for QueryShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a display name, ignoring ASCII case (`chain` is `Chain`).
impl std::str::FromStr for QueryShape {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        let named = |shape: &QueryShape| shape.name().eq_ignore_ascii_case(name);
        let found = Self::all().into_iter().find(named);
        found.ok_or_else(|| format!("unknown query shape {name:?}"))
    }
}

/// One hop of a chain query: a predicate and the types of the node it leads
/// to. Only the types of intermediate nodes are known (Definition of `AQ_C`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainHop {
    /// Predicate of this hop.
    pub predicate: String,
    /// Types of the node reached by this hop.
    pub node_types: Vec<String>,
}

impl ChainHop {
    /// Creates a hop.
    pub fn new(predicate: &str, node_types: &[&str]) -> Self {
        Self {
            predicate: predicate.to_string(),
            node_types: node_types.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A chain-shaped query `AQ_C`: a multi-hop path from a specific node to the
/// target node, e.g. *"How many cars are designed by German designers?"*
/// (Germany → designer:Person → design:Automobile).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainQuery {
    /// The specific node (name and types known).
    pub specific: QueryNode,
    /// The hops from the specific node; the last hop reaches the target node.
    pub hops: Vec<ChainHop>,
}

impl ChainQuery {
    /// Creates a chain query.
    pub fn new(specific_name: &str, specific_types: &[&str], hops: Vec<ChainHop>) -> Self {
        Self {
            specific: QueryNode::specific(specific_name, specific_types),
            hops,
        }
    }

    /// The target node's types (types of the last hop).
    pub fn target_types(&self) -> &[String] {
        self.hops
            .last()
            .map(|h| h.node_types.as_slice())
            .unwrap_or(&[])
    }

    /// Resolves against a graph.
    pub fn resolve(&self, graph: &KnowledgeGraph) -> KgResult<ResolvedChainQuery> {
        if self.hops.is_empty() {
            return Err(KgError::UnknownPredicate("<empty chain>".into()));
        }
        let name = self
            .specific
            .name
            .as_deref()
            .ok_or_else(|| KgError::UnknownEntity("<specific node without name>".into()))?;
        let specific = graph.require_entity(name)?;
        let mut hops = Vec::with_capacity(self.hops.len());
        for hop in &self.hops {
            let predicate = graph
                .predicate_id(&hop.predicate)
                .ok_or_else(|| KgError::UnknownPredicate(hop.predicate.clone()))?;
            let node_types: Vec<TypeId> = hop
                .node_types
                .iter()
                .filter_map(|t| graph.type_id(t))
                .collect();
            if node_types.is_empty() {
                return Err(KgError::UnknownType(hop.node_types.join(",")));
            }
            hops.push(ResolvedChainHop {
                predicate,
                node_types,
            });
        }
        Ok(ResolvedChainQuery { specific, hops })
    }
}

/// A resolved hop of a chain query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedChainHop {
    /// Predicate of this hop.
    pub predicate: PredicateId,
    /// Types of the node reached by this hop.
    pub node_types: Vec<TypeId>,
}

/// A resolved chain query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedChainQuery {
    /// Mapping node of the specific node.
    pub specific: EntityId,
    /// Resolved hops.
    pub hops: Vec<ResolvedChainHop>,
}

impl ResolvedChainQuery {
    /// The target types (last hop's node types).
    pub fn target_types(&self) -> &[TypeId] {
        self.hops
            .last()
            .map(|h| h.node_types.as_slice())
            .unwrap_or(&[])
    }

    /// Views the `i`-th hop as a simple query anchored at `anchor` — the
    /// engine answers chains by cascading simple queries (§V-B step 2).
    pub fn hop_as_simple(&self, i: usize, anchor: EntityId) -> ResolvedSimpleQuery {
        let hop = &self.hops[i];
        ResolvedSimpleQuery {
            specific: anchor,
            predicate: hop.predicate,
            target_types: hop.node_types.clone(),
        }
    }
}

/// One component of a complex query: a simple query or a chain, sharing the
/// common target node with the other components.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryComponent {
    /// A single-edge component.
    Simple(SimpleQuery),
    /// A multi-hop component.
    Chain(ChainQuery),
}

impl QueryComponent {
    /// The target types of this component.
    pub fn target_types(&self) -> Vec<String> {
        match self {
            QueryComponent::Simple(q) => q.target.types.clone(),
            QueryComponent::Chain(q) => q.target_types().to_vec(),
        }
    }

    /// Resolves against a graph.
    pub fn resolve(&self, graph: &KnowledgeGraph) -> KgResult<ResolvedComponent> {
        match self {
            QueryComponent::Simple(q) => Ok(ResolvedComponent::Simple(q.resolve(graph)?)),
            QueryComponent::Chain(q) => Ok(ResolvedComponent::Chain(q.resolve(graph)?)),
        }
    }
}

/// A resolved component of a complex query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolvedComponent {
    /// Resolved simple component.
    Simple(ResolvedSimpleQuery),
    /// Resolved chain component.
    Chain(ResolvedChainQuery),
}

impl ResolvedComponent {
    /// The target types of this component.
    pub fn target_types(&self) -> &[TypeId] {
        match self {
            ResolvedComponent::Simple(q) => &q.target_types,
            ResolvedComponent::Chain(q) => q.target_types(),
        }
    }

    /// The specific (anchor) entity of this component.
    pub fn specific(&self) -> EntityId {
        match self {
            ResolvedComponent::Simple(q) => q.specific,
            ResolvedComponent::Chain(q) => q.specific,
        }
    }
}

/// A complex query: several components that share the target node, assembled
/// by intersecting their answer sets (decomposition–assembly, §V-B).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComplexQuery {
    /// Declared shape (affects reporting only; execution is shape-agnostic).
    pub shape: QueryShape,
    /// The decomposed components.
    pub components: Vec<QueryComponent>,
}

impl ComplexQuery {
    /// A chain query (single chain component).
    pub fn chain(chain: ChainQuery) -> Self {
        Self {
            shape: QueryShape::Chain,
            components: vec![QueryComponent::Chain(chain)],
        }
    }

    /// A star query from several simple components sharing the target type.
    pub fn star(components: Vec<SimpleQuery>) -> Self {
        Self {
            shape: QueryShape::Star,
            components: components.into_iter().map(QueryComponent::Simple).collect(),
        }
    }

    /// A cycle query: like a star but the specific entities are themselves
    /// connected; execution-wise it is decomposed the same way.
    pub fn cycle(components: Vec<QueryComponent>) -> Self {
        Self {
            shape: QueryShape::Cycle,
            components,
        }
    }

    /// A flower query: a mix of simple and chain petals.
    pub fn flower(components: Vec<QueryComponent>) -> Self {
        Self {
            shape: QueryShape::Flower,
            components,
        }
    }

    /// Resolves all components.
    pub fn resolve(&self, graph: &KnowledgeGraph) -> KgResult<ResolvedComplexQuery> {
        if self.components.is_empty() {
            return Err(KgError::UnknownPredicate("<empty complex query>".into()));
        }
        let components = self
            .components
            .iter()
            .map(|c| c.resolve(graph))
            .collect::<KgResult<Vec<_>>>()?;
        Ok(ResolvedComplexQuery {
            shape: self.shape,
            components,
        })
    }
}

/// A resolved complex query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedComplexQuery {
    /// Declared shape.
    pub shape: QueryShape,
    /// Resolved components.
    pub components: Vec<ResolvedComponent>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;

    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let cn = b.add_entity("China", &["Country"]);
        let person = b.add_entity("Peter_Schreyer", &["Person"]);
        let car = b.add_entity("KIA_K5", &["Automobile"]);
        b.add_edge(person, "nationality", de);
        b.add_edge(car, "designer", person);
        b.add_edge(cn, "product", car);
        b.build()
    }

    #[test]
    fn chain_query_resolution() {
        let g = graph();
        let chain = ChainQuery::new(
            "Germany",
            &["Country"],
            vec![
                ChainHop::new("nationality", &["Person"]),
                ChainHop::new("designer", &["Automobile"]),
            ],
        );
        assert_eq!(chain.target_types(), &["Automobile".to_string()]);
        let r = chain.resolve(&g).unwrap();
        assert_eq!(r.hops.len(), 2);
        assert_eq!(r.specific, g.entity_by_name("Germany").unwrap());
        assert_eq!(r.target_types(), &[g.type_id("Automobile").unwrap()]);
        let anchor = g.entity_by_name("Peter_Schreyer").unwrap();
        let simple = r.hop_as_simple(1, anchor);
        assert_eq!(simple.specific, anchor);
        assert_eq!(simple.predicate, g.predicate_id("designer").unwrap());
    }

    #[test]
    fn empty_chain_fails() {
        let g = graph();
        let chain = ChainQuery::new("Germany", &["Country"], vec![]);
        assert!(chain.resolve(&g).is_err());
        let chain = ChainQuery::new(
            "Germany",
            &["Country"],
            vec![ChainHop::new("unknown_pred", &["Person"])],
        );
        assert!(chain.resolve(&g).is_err());
    }

    #[test]
    fn star_query_decomposition() {
        let g = graph();
        let star = ComplexQuery::star(vec![
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            SimpleQuery::new("China", &["Country"], "product", &["Automobile"]),
        ]);
        assert_eq!(star.shape, QueryShape::Star);
        let r = star.resolve(&g).unwrap();
        assert_eq!(r.components.len(), 2);
        assert_eq!(
            r.components[0].target_types(),
            &[g.type_id("Automobile").unwrap()]
        );
        assert_eq!(
            r.components[1].specific(),
            g.entity_by_name("China").unwrap()
        );
    }

    #[test]
    fn flower_mixes_components() {
        let g = graph();
        let flower = ComplexQuery::flower(vec![
            QueryComponent::Simple(SimpleQuery::new(
                "China",
                &["Country"],
                "product",
                &["Automobile"],
            )),
            QueryComponent::Chain(ChainQuery::new(
                "Germany",
                &["Country"],
                vec![
                    ChainHop::new("nationality", &["Person"]),
                    ChainHop::new("designer", &["Automobile"]),
                ],
            )),
        ]);
        assert_eq!(flower.shape, QueryShape::Flower);
        assert_eq!(flower.components[1].target_types(), vec!["Automobile"]);
        assert!(flower.resolve(&g).is_ok());
        assert!(ComplexQuery::cycle(vec![]).resolve(&g).is_err());
    }

    #[test]
    fn shape_metadata() {
        assert_eq!(QueryShape::all().len(), 5);
        assert_eq!(QueryShape::Flower.to_string(), "Flower");
        assert_eq!(QueryShape::Simple.name(), "Simple");
        for shape in QueryShape::all() {
            assert_eq!(shape.name().parse(), Ok(shape));
            assert_eq!(shape.name().to_lowercase().parse(), Ok(shape));
        }
        assert!("triangle".parse::<QueryShape>().is_err());
    }
}
