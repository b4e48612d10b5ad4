//! Subgraph matches and the semantic similarity of a candidate answer
//! (Definition 5, Eq. 3).

use crate::query_graph::ResolvedSimpleQuery;
use crate::similarity::{path_similarity, PathAggregation};
use kg_core::{enumerate_paths_filtered, EntityId, KnowledgeGraph, Path};
use kg_embed::PredicateSimilarity;

/// Parameters of exhaustive match search.
#[derive(Copy, Clone, Debug)]
pub struct MatchConfig {
    /// Maximum path length (the `n` of the n-bounded subgraph; default 3).
    pub max_path_len: usize,
    /// Upper bound on enumerated paths per candidate (guards worst cases).
    pub path_limit: usize,
    /// How edge similarities are aggregated along a path.
    pub aggregation: PathAggregation,
}

impl Default for MatchConfig {
    fn default() -> Self {
        Self {
            max_path_len: 3,
            path_limit: 10_000,
            aggregation: PathAggregation::GeometricMean,
        }
    }
}

/// A subgraph match of a candidate answer: the edge-to-path mapping from the
/// query edge to a path `u_s ⤳ u_t` (Definition 5), with its semantic
/// similarity to the query edge.
#[derive(Clone, Debug)]
pub struct SubgraphMatch {
    /// The matched path from the mapping node to the candidate answer.
    pub path: Path,
    /// Semantic similarity `s[M(u_t)]` of the match (Eq. 2).
    pub similarity: f64,
}

/// True when `node` may appear as an *intermediate* node of a subgraph match
/// for `query`.
///
/// The edge-to-path mapping of Definition 5 sends the query edge
/// `q_s —p→ ?x` to a path whose endpoints play the roles of the mapping node
/// and the answer; interior nodes stand in for connecting entities (the
/// `Company` / `Person` intermediates of Fig. 1). A path whose interior
/// passes through another hub-typed entity re-anchors the query at a
/// different specific node, and one passing through another answer-typed
/// entity witnesses that *other* answer, not the endpoint — e.g.
/// `car_A →product→ Germany ←product← car_B →assembly→ China` is built from
/// individually strong edges but is not a match of "product of China" for
/// `car_A`. Both are therefore rejected as intermediates.
pub fn admissible_intermediate(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    node: EntityId,
) -> bool {
    let entity = graph.entity(node);
    !entity.shares_type(&query.target_types)
        && !entity.shares_type(&graph.entity(query.specific).types)
}

/// Finds the best subgraph match of `candidate` for the query — the path from
/// `query.specific` to `candidate` with maximum semantic similarity (Eq. 3),
/// considering only paths whose interior nodes are admissible intermediates
/// (see [`admissible_intermediate`]).
/// Returns `None` when no such path of length ≤ `config.max_path_len` exists.
pub fn best_match<S: PredicateSimilarity + ?Sized>(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    candidate: EntityId,
    similarity: &S,
    config: &MatchConfig,
) -> Option<SubgraphMatch> {
    // Admissibility is enforced *during* enumeration so the path budget is
    // spent only on paths that can count as matches.
    let paths = enumerate_paths_filtered(
        graph,
        query.specific,
        candidate,
        config.max_path_len,
        config.path_limit,
        |node| admissible_intermediate(graph, query, node),
    );
    paths
        .into_iter()
        .map(|path| {
            let s = path_similarity(&path, query.predicate, similarity, config.aggregation);
            SubgraphMatch {
                path,
                similarity: s,
            }
        })
        .max_by(|a, b| a.similarity.total_cmp(&b.similarity))
}

/// Every candidate's best subgraph match from one mapping node at once: one
/// depth-first walk over the admissible simple paths of length ≤
/// [`MatchConfig::max_path_len`] from `query.specific`, and the n-ball the
/// candidates are drawn from.
///
/// The walk keeps the current path's nodes and per-edge similarities on two
/// stacks that are pushed and popped in place, so no path is ever copied,
/// and each entity's best similarity and path count in dense buffers that
/// are reset through the list of entities reached. It follows
/// [`enumerate_paths_filtered`]'s rule: an edge back onto the path is
/// skipped, a candidate ends the path, and any other node is extended only
/// if it is an [`admissible_intermediate`] and the path is shorter than n.
/// A candidate's similarity is [`PathAggregation::aggregate`] over its
/// path's edge similarities in path order — the terms and order of
/// [`path_similarity`] — so its maximum equals [`best_match`]'s bit for bit,
/// provided [`best_match`] saw every path: the walk reports a candidate
/// with more than [`MatchConfig::path_limit`] paths as truncated.
///
/// One `MatchWalk` serves any number of queries on the graph it was sized
/// for.
#[derive(Clone, Debug)]
pub struct MatchWalk {
    /// Best path similarity per entity; meaningful where `paths` is not 0.
    best: Vec<f64>,
    /// Admissible paths found per entity.
    paths: Vec<u32>,
    /// Entities with a path, in the order the walk reached them.
    reached: Vec<EntityId>,
    /// The current path's nodes, from the mapping node on.
    nodes: Vec<EntityId>,
    /// The current path's edge similarities, in path order.
    sims: Vec<f64>,
    /// Edge similarity to the query predicate per predicate id, NaN until
    /// first needed.
    edge_sims: Vec<f64>,
    /// Hop distance from the mapping node; `u32::MAX` outside the ball.
    dist: Vec<u32>,
    /// The n-ball in BFS order (it is the BFS queue).
    ball: Vec<EntityId>,
    /// The ball's candidates, in BFS order.
    ball_candidates: Vec<EntityId>,
}

impl MatchWalk {
    /// Buffers for walks over `graph`.
    pub fn new(graph: &KnowledgeGraph) -> Self {
        let entities = graph.entity_count();
        Self {
            best: vec![0.0; entities],
            paths: vec![0; entities],
            reached: Vec::new(),
            nodes: Vec::new(),
            sims: Vec::new(),
            edge_sims: Vec::new(),
            dist: vec![u32::MAX; entities],
            ball: Vec::new(),
            ball_candidates: Vec::new(),
        }
    }

    /// The candidates of `query` within `radius` hops of its mapping node
    /// — the candidates [`crate::simple_ground_truth`] scores — in BFS
    /// order.
    pub fn ball_candidates(
        &mut self,
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        radius: u32,
    ) -> &[EntityId] {
        for node in self.ball.drain(..) {
            self.dist[node.index()] = u32::MAX;
        }
        self.ball_candidates.clear();
        self.dist[query.specific.index()] = 0;
        self.ball.push(query.specific);
        let mut head = 0;
        while let Some(&node) = self.ball.get(head) {
            head += 1;
            let d = self.dist[node.index()];
            if query.is_candidate(graph, node) {
                self.ball_candidates.push(node);
            }
            if d == radius {
                continue;
            }
            for edge in graph.neighbors(node) {
                let slot = &mut self.dist[edge.neighbor.index()];
                if *slot == u32::MAX {
                    *slot = d + 1;
                    self.ball.push(edge.neighbor);
                }
            }
        }
        &self.ball_candidates
    }

    /// Walks every admissible path from `query.specific` and keeps each
    /// candidate's best similarity. Returns `false`, stopping at once, when
    /// some candidate has more than `config.path_limit` paths: its best
    /// match is then not [`best_match`]'s, which stops at the limit.
    pub fn walk<S: PredicateSimilarity + ?Sized>(
        &mut self,
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        similarity: &S,
        config: &MatchConfig,
    ) -> bool {
        for node in self.reached.drain(..) {
            self.paths[node.index()] = 0;
        }
        self.edge_sims.clear();
        self.edge_sims.resize(graph.predicate_count(), f64::NAN);
        if config.max_path_len == 0 {
            return true;
        }
        self.nodes.clear();
        self.sims.clear();
        self.nodes.push(query.specific);
        let walk = Walk {
            graph,
            query,
            similarity,
            config,
        };
        self.extend(&walk, query.specific)
    }

    /// Offers every path that extends the current one by one edge from
    /// `tail`; `false` once a candidate passes the path limit.
    fn extend<S: PredicateSimilarity + ?Sized>(
        &mut self,
        walk: &Walk<'_, S>,
        tail: EntityId,
    ) -> bool {
        let query = walk.query;
        for edge in walk.graph.neighbors(tail) {
            let next = edge.neighbor;
            if self.nodes.contains(&next) {
                continue;
            }
            let candidate = query.is_candidate(walk.graph, next);
            let extends = !candidate
                && self.sims.len() + 1 < walk.config.max_path_len
                && admissible_intermediate(walk.graph, query, next);
            if !candidate && !extends {
                continue;
            }
            let sim = match self.edge_sims.get(edge.predicate.index()) {
                Some(sim) if !sim.is_nan() => *sim,
                _ => {
                    let sim = walk
                        .similarity
                        .similarity(edge.predicate, query.predicate)
                        .clamp(0.0, 1.0);
                    if let Some(slot) = self.edge_sims.get_mut(edge.predicate.index()) {
                        *slot = sim;
                    }
                    sim
                }
            };
            self.sims.push(sim);
            let within_limit = if candidate {
                let s = walk.config.aggregation.aggregate(&self.sims);
                self.offer(next, s, walk.config.path_limit)
            } else {
                self.nodes.push(next);
                let within_limit = self.extend(walk, next);
                self.nodes.pop();
                within_limit
            };
            self.sims.pop();
            if !within_limit {
                return false;
            }
        }
        true
    }

    /// Records a path of similarity `s` to `candidate`; `false` when that
    /// is its `limit + 1`-th path.
    fn offer(&mut self, candidate: EntityId, s: f64, limit: usize) -> bool {
        let i = candidate.index();
        if self.paths[i] == 0 {
            self.reached.push(candidate);
            self.best[i] = s;
        } else if s.total_cmp(&self.best[i]).is_gt() {
            self.best[i] = s;
        }
        self.paths[i] = self.paths[i].saturating_add(1);
        self.paths[i] as usize <= limit
    }

    /// The best similarity the last [`Self::walk`] found for `entity`: its
    /// [`best_similarity`] (0.0 when no path reaches it).
    fn similarity(&self, entity: EntityId) -> f64 {
        if self.paths[entity.index()] == 0 {
            0.0
        } else {
            self.best[entity.index()]
        }
    }

    /// The τ-relevant answers of the last [`Self::walk`], sorted by entity
    /// id: the candidates it reached with a best similarity ≥ `tau`. A
    /// candidate no path reaches has similarity 0, so a `tau` ≤ 0 also
    /// admits the candidates of the last [`Self::ball_candidates`] call.
    pub fn correct(&self, tau: f64) -> Vec<EntityId> {
        let pool = if tau > 0.0 {
            &self.reached
        } else {
            &self.ball_candidates
        };
        let mut correct: Vec<EntityId> = pool
            .iter()
            .copied()
            .filter(|&e| self.similarity(e) >= tau)
            .collect();
        correct.sort_unstable();
        correct
    }
}

/// What one [`MatchWalk::walk`] reads.
struct Walk<'a, S: ?Sized> {
    graph: &'a KnowledgeGraph,
    query: &'a ResolvedSimpleQuery,
    similarity: &'a S,
    config: &'a MatchConfig,
}

/// The semantic similarity `s_i` of a candidate answer: the maximum
/// similarity over all its subgraph matches (Eq. 3); 0.0 when the candidate
/// is unreachable within the hop bound.
pub fn best_similarity<S: PredicateSimilarity + ?Sized>(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    candidate: EntityId,
    similarity: &S,
    config: &MatchConfig,
) -> f64 {
    best_match(graph, query, candidate, similarity, config)
        .map(|m| m.similarity)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::SimpleQuery;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;
    use kg_embed::PredicateVectorStore;

    /// The Figure-1 style example graph plus an oracle store mirroring the
    /// paper's predicate similarities.
    fn setup() -> (KnowledgeGraph, ResolvedSimpleQuery, PredicateVectorStore) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let bmw = b.add_entity("BMW_320", &["Automobile"]);
        let vw = b.add_entity("Volkswagen", &["Company"]);
        let audi = b.add_entity("Audi_TT", &["Automobile"]);
        let kia = b.add_entity("KIA_K5", &["Automobile"]);
        let schreyer = b.add_entity("Peter_Schreyer", &["Person"]);
        let p911 = b.add_entity("Porsche_911", &["Automobile"]);
        b.add_edge(de, "product", p911);
        b.add_edge(bmw, "assembly", de);
        b.add_edge(audi, "assembly", vw);
        b.add_edge(vw, "country", de);
        b.add_edge(kia, "designer", schreyer);
        b.add_edge(schreyer, "nationality", de);
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("assembly").unwrap(), 0, 0.98),
            (g.predicate_id("country").unwrap(), 0, 0.81),
            (g.predicate_id("designer").unwrap(), 0, 0.62),
            (g.predicate_id("nationality").unwrap(), 0, 0.70),
        ]);
        (g, q, store)
    }

    #[test]
    fn exact_match_has_similarity_one() {
        let (g, q, store) = setup();
        let p911 = g.entity_by_name("Porsche_911").unwrap();
        let m = best_match(&g, &q, p911, &store, &MatchConfig::default()).unwrap();
        assert!((m.similarity - 1.0).abs() < 1e-9);
        assert_eq!(m.path.len(), 1);
    }

    #[test]
    fn similarity_reflects_path_quality_ordering() {
        let (g, q, store) = setup();
        let cfg = MatchConfig::default();
        let bmw = best_similarity(&g, &q, g.entity_by_name("BMW_320").unwrap(), &store, &cfg);
        let audi = best_similarity(&g, &q, g.entity_by_name("Audi_TT").unwrap(), &store, &cfg);
        let kia = best_similarity(&g, &q, g.entity_by_name("KIA_K5").unwrap(), &store, &cfg);
        // Table II ordering: BMW (direct assembly) > Audi (assembly+country) > KIA (designer path).
        assert!(bmw > audi, "bmw={bmw} audi={audi}");
        assert!(audi > kia, "audi={audi} kia={kia}");
        assert!(kia > 0.0);
    }

    #[test]
    fn unreachable_candidate_has_zero_similarity() {
        let (mut_builder_graph, _q, store) = {
            let (g, q, store) = setup();
            (g, q, store)
        };
        // Add an isolated automobile by rebuilding the graph.
        let mut b = GraphBuilder::new();
        for id in mut_builder_graph.entity_ids() {
            let e = mut_builder_graph.entity(id);
            let types: Vec<&str> = e
                .types
                .iter()
                .map(|t| mut_builder_graph.type_name(*t))
                .collect();
            b.add_entity(&e.name, &types);
        }
        for t in mut_builder_graph.triples() {
            b.add_edge_by_name(
                &mut_builder_graph.entity(t.subject).name,
                mut_builder_graph.predicate_name(t.predicate),
                &mut_builder_graph.entity(t.object).name,
            );
        }
        b.add_entity("Isolated_Car", &["Automobile"]);
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let isolated = g.entity_by_name("Isolated_Car").unwrap();
        assert_eq!(
            best_similarity(&g, &q, isolated, &store, &MatchConfig::default()),
            0.0
        );
        assert_eq!(q.specific, g.entity_by_name("Germany").unwrap());
    }

    #[test]
    fn one_walk_scores_every_candidate_as_best_match_does() {
        let (g, q, store) = setup();
        let mut walk = MatchWalk::new(&g);
        for max_path_len in 0..=3 {
            let cfg = MatchConfig {
                max_path_len,
                ..MatchConfig::default()
            };
            let candidates = walk.ball_candidates(&g, &q, max_path_len as u32).to_vec();
            let scope = kg_core::bounded_subgraph(&g, q.specific, max_path_len as u32);
            let mut expected: Vec<EntityId> = scope
                .sorted_nodes()
                .into_iter()
                .filter(|&n| q.is_candidate(&g, n))
                .collect();
            let mut sorted = candidates.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, expected, "n = {max_path_len}");

            assert!(walk.walk(&g, &q, &store, &cfg));
            for &c in &candidates {
                let reference = best_similarity(&g, &q, c, &store, &cfg);
                assert_eq!(walk.similarity(c).to_bits(), reference.to_bits(), "{c:?}");
            }
            for tau in [0.0, 0.5, 0.85, 1.0] {
                expected.retain(|&c| best_similarity(&g, &q, c, &store, &cfg) >= tau);
                assert_eq!(walk.correct(tau), expected, "n = {max_path_len}, τ = {tau}");
            }
        }
    }

    #[test]
    fn a_candidate_past_the_path_limit_stops_the_walk() {
        // Four two-edge paths Germany – c_i – car, and one direct edge.
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let car = b.add_entity("car", &["Automobile"]);
        b.add_edge(de, "product", car);
        for i in 0..4 {
            let c = b.add_entity(&format!("c{i}"), &["Company"]);
            b.add_edge(de, "country", c);
            b.add_edge(car, "assembly", c);
        }
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[(g.predicate_id("product").unwrap(), 0, 1.0)]);
        let mut walk = MatchWalk::new(&g);
        let limit = |path_limit| MatchConfig {
            path_limit,
            ..MatchConfig::default()
        };
        assert!(walk.walk(&g, &q, &store, &limit(5)));
        assert_eq!(walk.correct(0.85), vec![car]);
        assert!(!walk.walk(&g, &q, &store, &limit(4)));
        // The buffers are reset between walks.
        assert!(walk.walk(&g, &q, &store, &limit(5)));
        assert_eq!(walk.similarity(car), 1.0);
    }

    #[test]
    fn hop_bound_limits_matches() {
        let (g, q, store) = setup();
        let audi = g.entity_by_name("Audi_TT").unwrap();
        let cfg = MatchConfig {
            max_path_len: 1,
            ..MatchConfig::default()
        };
        // Audi_TT is two hops away; with max_path_len 1 there is no match.
        assert!(best_match(&g, &q, audi, &store, &cfg).is_none());
    }
}
