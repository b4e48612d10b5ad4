//! n-bounded neighbourhood exploration and path enumeration.
//!
//! Graph queries exhibit strong access locality: most correct answers of a
//! query lie within a small number of hops of the specific entity (the paper
//! finds that `n = 3` retrieves ~99% of correct answers). Both the SSB
//! baseline and the semantic-aware random walk therefore restrict themselves
//! to the *n-bounded subgraph* `G'` around the mapping node `u_s`.

use crate::graph::KnowledgeGraph;
use crate::ids::{EntityId, PredicateId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// A simple path in the knowledge graph, starting at `source` and following
/// `steps` of `(predicate, next node)` pairs.
///
/// Paths are the unit over which the semantic similarity of a subgraph match
/// is defined (Eq. 2 of the paper): the similarity of a path is the geometric
/// mean of the predicate similarities of its edges to the query edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    /// First node of the path (typically the mapping node `u_s`).
    pub source: EntityId,
    /// `(predicate, node)` steps; the last node is the path target.
    pub steps: Vec<(PredicateId, EntityId)>,
}

impl Path {
    /// A zero-length path anchored at `source`.
    pub fn trivial(source: EntityId) -> Self {
        Self {
            source,
            steps: Vec::new(),
        }
    }

    /// Number of edges on the path (`l` in Eq. 2).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for a zero-length path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The last node of the path (equals `source` for a trivial path).
    pub fn target(&self) -> EntityId {
        self.steps.last().map(|(_, n)| *n).unwrap_or(self.source)
    }

    /// The predicates along the path, in order.
    pub fn predicates(&self) -> impl Iterator<Item = PredicateId> + '_ {
        self.steps.iter().map(|(p, _)| *p)
    }

    /// The nodes along the path including the source, in order.
    pub fn nodes(&self) -> Vec<EntityId> {
        let mut out = Vec::with_capacity(self.steps.len() + 1);
        out.push(self.source);
        out.extend(self.steps.iter().map(|(_, n)| *n));
        out
    }

    /// Extends the path by one step, returning the new path.
    pub fn extended(&self, predicate: PredicateId, node: EntityId) -> Self {
        let mut steps = Vec::with_capacity(self.steps.len() + 1);
        steps.extend_from_slice(&self.steps);
        steps.push((predicate, node));
        Self {
            source: self.source,
            steps,
        }
    }

    /// True when the path already visits `node` (used to keep paths simple).
    pub fn visits(&self, node: EntityId) -> bool {
        self.source == node || self.steps.iter().any(|(_, n)| *n == node)
    }
}

/// The set of nodes within `radius` hops of `start`, with their hop distance.
#[derive(Clone, Debug)]
pub struct BoundedSubgraph {
    /// BFS origin (the mapping node `u_s`).
    pub start: EntityId,
    /// Hop bound `n`.
    pub radius: u32,
    dist: HashMap<EntityId, u32>,
}

impl BoundedSubgraph {
    /// True when `node` lies within the bounded subgraph.
    pub fn contains(&self, node: EntityId) -> bool {
        self.dist.contains_key(&node)
    }

    /// Hop distance of `node` from the origin, if the node is in scope.
    pub fn distance(&self, node: EntityId) -> Option<u32> {
        self.dist.get(&node).copied()
    }

    /// Number of nodes in scope (including the origin).
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// True when only the origin is in scope (radius 0 on an isolated node).
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Iterates the nodes in scope in unspecified order.
    pub fn nodes(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.dist.keys().copied()
    }

    /// Collects the nodes in scope, sorted by id (deterministic order for
    /// samplers and tests).
    pub fn sorted_nodes(&self) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self.dist.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of edges whose endpoints are both in scope. Each underlying
    /// triple is counted once.
    pub fn induced_edge_count(&self, graph: &KnowledgeGraph) -> usize {
        graph
            .triples()
            .iter()
            .filter(|t| self.contains(t.subject) && self.contains(t.object))
            .count()
    }
}

/// Breadth-first search returning every node within `radius` hops of `start`,
/// paired with its distance. `start` itself is included at distance 0.
pub fn bounded_nodes(graph: &KnowledgeGraph, start: EntityId, radius: u32) -> Vec<(EntityId, u32)> {
    let sub = bounded_subgraph(graph, start, radius);
    let mut v: Vec<(EntityId, u32)> = sub.dist.into_iter().collect();
    v.sort_unstable();
    v
}

/// Builds the [`BoundedSubgraph`] of radius `radius` around `start`.
pub fn bounded_subgraph(graph: &KnowledgeGraph, start: EntityId, radius: u32) -> BoundedSubgraph {
    let mut dist: HashMap<EntityId, u32> = HashMap::new();
    let mut queue = VecDeque::new();
    dist.insert(start, 0);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let d = dist[&u];
        if d == radius {
            continue;
        }
        for edge in graph.neighbors(u) {
            if let Entry::Vacant(slot) = dist.entry(edge.neighbor) {
                slot.insert(d + 1);
                queue.push_back(edge.neighbor);
            }
        }
    }
    BoundedSubgraph {
        start,
        radius,
        dist,
    }
}

/// Enumerates simple paths from `source` to `target` of length at most
/// `max_len`, stopping after `limit` paths have been produced.
///
/// This is the exhaustive enumeration that makes the SSB baseline expensive
/// (`O(m^n)` per candidate answer); the sampling–estimation engine avoids it.
pub fn enumerate_paths(
    graph: &KnowledgeGraph,
    source: EntityId,
    target: EntityId,
    max_len: usize,
    limit: usize,
) -> Vec<Path> {
    enumerate_paths_filtered(graph, source, target, max_len, limit, |_| true)
}

/// Like [`enumerate_paths`], but a node may only appear as an *interior*
/// path node when `allow_intermediate` accepts it (endpoints are exempt).
///
/// Pruning during the DFS — rather than filtering the result — matters under
/// the `limit` budget: a dense graph can otherwise exhaust the budget with
/// paths the caller would discard, hiding admissible ones.
pub fn enumerate_paths_filtered<F>(
    graph: &KnowledgeGraph,
    source: EntityId,
    target: EntityId,
    max_len: usize,
    limit: usize,
    mut allow_intermediate: F,
) -> Vec<Path>
where
    F: FnMut(EntityId) -> bool,
{
    let mut out = Vec::new();
    if limit == 0 || max_len == 0 {
        return out;
    }
    let mut stack = vec![Path::trivial(source)];
    while let Some(path) = stack.pop() {
        if out.len() >= limit {
            break;
        }
        let tail = path.target();
        for edge in graph.neighbors(tail) {
            if path.visits(edge.neighbor) {
                continue;
            }
            if edge.neighbor == target {
                out.push(path.extended(edge.predicate, edge.neighbor));
                if out.len() >= limit {
                    break;
                }
            } else if path.len() + 1 < max_len && allow_intermediate(edge.neighbor) {
                stack.push(path.extended(edge.predicate, edge.neighbor));
            }
        }
    }
    out
}

/// Enumerates every simple path of length at most `max_len` starting at
/// `source` whose endpoint satisfies `is_target`, visiting at most
/// `path_budget` partial paths. Used by the SSB baseline to score all
/// candidate answers in one sweep.
pub fn enumerate_paths_to<F>(
    graph: &KnowledgeGraph,
    source: EntityId,
    max_len: usize,
    path_budget: usize,
    mut is_target: F,
) -> Vec<Path>
where
    F: FnMut(EntityId) -> bool,
{
    let mut out = Vec::new();
    if max_len == 0 {
        return out;
    }
    let mut explored = 0usize;
    let mut stack = vec![Path::trivial(source)];
    while let Some(path) = stack.pop() {
        if explored >= path_budget {
            break;
        }
        let tail = path.target();
        for edge in graph.neighbors(tail) {
            if path.visits(edge.neighbor) {
                continue;
            }
            explored += 1;
            if explored >= path_budget {
                break;
            }
            let next = path.extended(edge.predicate, edge.neighbor);
            if is_target(edge.neighbor) {
                out.push(next.clone());
            }
            if next.len() < max_len {
                stack.push(next);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Builds the running example of Fig. 1: cars linked to Germany via
    /// structurally different paths.
    fn example() -> (KnowledgeGraph, EntityId) {
        let mut b = GraphBuilder::new();
        let germany = b.add_entity("Germany", &["Country"]);
        let bmw = b.add_entity("BMW_320", &["Automobile"]);
        let vw = b.add_entity("Volkswagen", &["Company"]);
        let audi = b.add_entity("Audi_TT", &["Automobile"]);
        let porsche911 = b.add_entity("Porsche_911", &["Automobile"]);
        let porsche = b.add_entity("Porsche", &["Company"]);
        let kia = b.add_entity("KIA_K5", &["Automobile"]);
        let schreyer = b.add_entity("Peter_Schreyer", &["Person"]);
        b.add_edge(germany, "product", porsche911);
        b.add_edge(bmw, "assembly", germany);
        b.add_edge(audi, "assembly", vw);
        b.add_edge(vw, "country", germany);
        b.add_edge(porsche911, "manufacturer", porsche);
        b.add_edge(porsche, "country", germany);
        b.add_edge(kia, "designer", schreyer);
        b.add_edge(schreyer, "nationality", germany);
        let g = b.build();
        (g, germany)
    }

    #[test]
    fn path_accessors() {
        let p = Path::trivial(EntityId::new(0));
        assert!(p.is_empty());
        assert_eq!(p.target(), EntityId::new(0));
        let p = p.extended(PredicateId::new(1), EntityId::new(2));
        let p = p.extended(PredicateId::new(3), EntityId::new(4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.target(), EntityId::new(4));
        assert_eq!(
            p.nodes(),
            vec![EntityId::new(0), EntityId::new(2), EntityId::new(4)]
        );
        assert_eq!(
            p.predicates().collect::<Vec<_>>(),
            vec![PredicateId::new(1), PredicateId::new(3)]
        );
        assert!(p.visits(EntityId::new(2)));
        assert!(!p.visits(EntityId::new(9)));
    }

    #[test]
    fn bounded_subgraph_distances() {
        let (g, germany) = example();
        let sub = bounded_subgraph(&g, germany, 1);
        // 1 hop: BMW_320, Volkswagen, Porsche, Peter_Schreyer, Porsche_911.
        assert_eq!(sub.len(), 6);
        assert_eq!(sub.distance(germany), Some(0));
        let audi = g.entity_by_name("Audi_TT").unwrap();
        assert!(!sub.contains(audi));

        let sub2 = bounded_subgraph(&g, germany, 2);
        assert!(sub2.contains(audi));
        assert_eq!(sub2.distance(audi), Some(2));
        assert_eq!(sub2.len(), g.entity_count());
        assert_eq!(sub2.radius, 2);
        assert!(sub2.induced_edge_count(&g) == g.edge_count());
    }

    #[test]
    fn bounded_nodes_sorted_and_complete() {
        let (g, germany) = example();
        let nodes = bounded_nodes(&g, germany, 3);
        assert_eq!(nodes.len(), g.entity_count());
        assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(nodes[0], (germany, 0));
    }

    #[test]
    fn enumerate_paths_finds_all_simple_paths() {
        let (g, germany) = example();
        let audi = g.entity_by_name("Audi_TT").unwrap();
        let paths = enumerate_paths(&g, germany, audi, 3, 100);
        // Only one simple path Germany -country- Volkswagen -assembly- Audi_TT.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
        assert_eq!(paths[0].target(), audi);

        let porsche911 = g.entity_by_name("Porsche_911").unwrap();
        let paths = enumerate_paths(&g, germany, porsche911, 3, 100);
        // Direct `product` edge plus Germany-country-Porsche-manufacturer-911.
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().any(|p| p.len() == 1));
        assert!(paths.iter().any(|p| p.len() == 2));
    }

    #[test]
    fn enumerate_paths_respects_limits() {
        let (g, germany) = example();
        let porsche911 = g.entity_by_name("Porsche_911").unwrap();
        let paths = enumerate_paths(&g, germany, porsche911, 3, 1);
        assert_eq!(paths.len(), 1);
        assert!(enumerate_paths(&g, germany, porsche911, 0, 10).is_empty());
    }

    #[test]
    fn enumerate_paths_to_targets_by_predicate() {
        let (g, germany) = example();
        let auto = g.type_id("Automobile").unwrap();
        let paths = enumerate_paths_to(&g, germany, 3, 10_000, |n| g.entity(n).has_type(auto));
        // Every automobile is reachable within 3 hops by at least one path.
        let targets: std::collections::HashSet<EntityId> =
            paths.iter().map(|p| p.target()).collect();
        assert_eq!(targets.len(), 4);
    }
}
