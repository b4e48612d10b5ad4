//! Which exact hops a graph write can change: the reach test that lets a
//! planning cache keep, across a write, every walk outcome the write cannot
//! reach.
//!
//! A hop's walk outcome — its n-ball candidate count and its answers, or
//! "past the path limit" ([`crate::MatchWalk::ball_candidates`],
//! [`crate::MatchWalk::walk`]) — reads only the n-ball of its anchor `a`, the
//! types of the nodes in it, and the simple paths of length ≤ n from `a` to
//! its candidates. So:
//!
//! * **An edge op `u — v`** (insert or delete) can change the hop only if,
//!   for one orientation, `d(a, u) + 1 + d(v, x) ≤ n` for some `x` that
//!   shares the hop's target types. A shortest or simple path through the
//!   edge visits each endpoint once, so `d(a, u)` may be taken in the graph
//!   without `v` and `d(v, x)` in the graph without `u`: both stay lower
//!   bounds of the path's two parts. Removing an endpoint removes every
//!   edge between the two, so those two graphs are the same before and
//!   after the op: the test may run on either side of it.
//! * **A type change on `y`** can change the hop only if `d(a, y) ≤ n`:
//!   outside the n-ball, `y` is neither a counted candidate nor on any path
//!   of length ≤ n. The anchor itself is at distance 0, which covers the
//!   anchor-type clause of [`crate::admissible_intermediate`].
//!
//! A hop that no op of a write reaches, tested op by op against the graph
//! as that op leaves it, has the same outcome before and after the write.
//! The test over-approximates: it ignores admissibility and edge
//! predicates, so it may drop a hop the write leaves alone, never keep one
//! it changes.

use kg_core::{EntityId, KnowledgeGraph, TypeId};

/// An exact hop as the reach test reads it: the walk from `anchor` over
/// paths of at most `n_bound` edges to the entities sharing one of
/// `target_types`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct HopBall {
    /// The hop's mapping node.
    pub anchor: EntityId,
    /// The hop's answer types.
    pub target_types: Vec<TypeId>,
    /// The hop bound n.
    pub n_bound: u32,
}

/// Reusable buffers for the reach test: two breadth-first balls over dense
/// per-entity distance arrays, reset through the list of nodes each run
/// reached (no `HashMap`, no per-run allocation once sized).
#[derive(Debug, Default)]
pub struct WriteReach {
    near: Ball,
    far: Ball,
}

impl WriteReach {
    /// Empty buffers; they grow to the graph on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps in `hops` only the hops the edge op `u — v` cannot change, by
    /// the rule in the [module docs](self). `graph` is the graph just before
    /// or just after the op.
    pub fn retain_unreached_by_edge(
        &mut self,
        graph: &KnowledgeGraph,
        u: EntityId,
        v: EntityId,
        hops: &mut Vec<HopBall>,
    ) {
        let Some(max_n) = hops.iter().map(|hop| hop.n_bound).max() else {
            return;
        };
        if max_n == 0 {
            return;
        }
        // Both parts of a path through the edge are at most n − 1 long.
        self.near.run(graph, u, Some(v), max_n - 1);
        self.far.run(graph, v, Some(u), max_n - 1);
        // Per distinct target types: the nearest entity sharing one, from
        // each endpoint. A write's hops repeat a few type sets.
        let mut nearest: Vec<(Vec<TypeId>, Option<u32>, Option<u32>)> = Vec::new();
        let (near, far) = (&self.near, &self.far);
        hops.retain(|hop| {
            if hop.n_bound == 0 {
                return true;
            }
            let i = match nearest.iter().position(|(t, ..)| *t == hop.target_types) {
                Some(i) => i,
                None => {
                    let near_x = near.nearest_sharing(graph, &hop.target_types);
                    let far_x = far.nearest_sharing(graph, &hop.target_types);
                    nearest.push((hop.target_types.clone(), near_x, far_x));
                    nearest.len() - 1
                }
            };
            let (_, near_x, far_x) = nearest[i];
            let through = |to_anchor: Option<u32>, to_candidate: Option<u32>| {
                matches!((to_anchor, to_candidate), (Some(a), Some(x)) if a + 1 + x <= hop.n_bound)
            };
            // a ⤳ u — v ⤳ x, or a ⤳ v — u ⤳ x.
            !through(near.distance(hop.anchor), far_x) && !through(far.distance(hop.anchor), near_x)
        });
    }

    /// Keeps in `hops` only the hops a change of `entity`'s types cannot
    /// change: those whose anchor lies farther than n from it.
    pub fn retain_unreached_by_retype(
        &mut self,
        graph: &KnowledgeGraph,
        entity: EntityId,
        hops: &mut Vec<HopBall>,
    ) {
        let Some(max_n) = hops.iter().map(|hop| hop.n_bound).max() else {
            return;
        };
        self.near.run(graph, entity, None, max_n);
        let near = &self.near;
        hops.retain(|hop| !near.distance(hop.anchor).is_some_and(|d| d <= hop.n_bound));
    }
}

/// One breadth-first ball: distances from a source over the undirected
/// adjacency, up to a radius, never entering an avoided node.
#[derive(Debug, Default)]
struct Ball {
    /// Hop distance per entity; `u32::MAX` outside the last ball.
    dist: Vec<u32>,
    /// The last ball in BFS order, so in order of distance (it is the BFS
    /// queue).
    order: Vec<EntityId>,
}

impl Ball {
    /// The ball of `radius` around `source` in the graph without `avoid`.
    /// A source equal to `avoid` reaches nothing.
    fn run(
        &mut self,
        graph: &KnowledgeGraph,
        source: EntityId,
        avoid: Option<EntityId>,
        radius: u32,
    ) {
        for node in self.order.drain(..) {
            self.dist[node.index()] = u32::MAX;
        }
        self.dist.resize(graph.entity_count(), u32::MAX);
        if avoid == Some(source) {
            return;
        }
        if let Some(avoid) = avoid {
            // Marked as reached so the walk never enters it; it is not in
            // `order`, so it is reset here rather than by the next run.
            self.dist[avoid.index()] = 0;
        }
        self.dist[source.index()] = 0;
        self.order.push(source);
        let mut head = 0;
        while let Some(&node) = self.order.get(head) {
            head += 1;
            let d = self.dist[node.index()];
            if d == radius {
                continue;
            }
            for edge in graph.neighbors(node) {
                let slot = &mut self.dist[edge.neighbor.index()];
                if *slot == u32::MAX {
                    *slot = d + 1;
                    self.order.push(edge.neighbor);
                }
            }
        }
        if let Some(avoid) = avoid {
            self.dist[avoid.index()] = u32::MAX;
        }
    }

    /// The distance of `node` from the source, if the last ball holds it.
    fn distance(&self, node: EntityId) -> Option<u32> {
        self.dist
            .get(node.index())
            .copied()
            .filter(|&d| d != u32::MAX)
    }

    /// The distance of the nearest node of the last ball that shares one of
    /// `types`.
    fn nearest_sharing(&self, graph: &KnowledgeGraph, types: &[TypeId]) -> Option<u32> {
        self.order
            .iter()
            .find(|&&node| graph.entity(node).shares_type(types))
            .map(|&node| self.dist[node.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;

    /// A path hub — m1 — m2 — car, plus a far island — boat.
    fn graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add_entity("hub", &["Country"]);
        b.add_entity("m1", &["Company"]);
        b.add_entity("m2", &["Company"]);
        b.add_entity("car", &["Automobile"]);
        b.add_entity("island", &["Island"]);
        b.add_entity("boat", &["Ship"]);
        b.add_edge_by_name("hub", "owns", "m1");
        b.add_edge_by_name("m1", "owns", "m2");
        b.add_edge_by_name("m2", "makes", "car");
        b.add_edge_by_name("island", "builds", "boat");
        b.build()
    }

    fn hop(graph: &KnowledgeGraph, anchor: &str, target: &str, n_bound: u32) -> HopBall {
        HopBall {
            anchor: graph.entity_by_name(anchor).unwrap(),
            target_types: vec![graph.type_id(target).unwrap()],
            n_bound,
        }
    }

    fn kept_after_edge(graph: &KnowledgeGraph, u: &str, v: &str, hops: &[HopBall]) -> Vec<HopBall> {
        let mut kept = hops.to_vec();
        let (u, v) = (
            graph.entity_by_name(u).unwrap(),
            graph.entity_by_name(v).unwrap(),
        );
        WriteReach::new().retain_unreached_by_edge(graph, u, v, &mut kept);
        kept
    }

    #[test]
    fn an_edge_reaches_a_hop_only_with_a_candidate_within_n_through_it() {
        let g = graph();
        let cars = hop(&g, "hub", "Automobile", 3);
        let boats = hop(&g, "island", "Ship", 3);
        let short = hop(&g, "hub", "Automobile", 2);
        let hops = vec![cars.clone(), boats.clone(), short.clone()];
        // hub ⤳ m1 — m2 ⤳ car is 3 long: within n = 3, past n = 2.
        assert_eq!(
            kept_after_edge(&g, "m1", "m2", &hops),
            vec![boats.clone(), short.clone()]
        );
        // An edge inside the island's component reaches only its hop.
        assert_eq!(
            kept_after_edge(&g, "boat", "island", &hops),
            vec![cars.clone(), short]
        );
        // hub — m1: 0 from the hub's side without m1, and the car 2 from
        // m1's side without the hub.
        assert!(kept_after_edge(&g, "hub", "m1", std::slice::from_ref(&cars)).is_empty());
        assert_eq!(
            kept_after_edge(&g, "hub", "m1", std::slice::from_ref(&boats)),
            vec![boats]
        );
        // A self-loop changes no ball and no simple path.
        assert_eq!(
            kept_after_edge(&g, "hub", "hub", std::slice::from_ref(&cars)),
            vec![cars]
        );
    }

    #[test]
    fn a_path_back_through_the_anchor_does_not_reach_a_new_leaf() {
        let mut b = GraphBuilder::new();
        b.add_entity("hub", &["Country"]);
        b.add_entity("car", &["Automobile"]);
        b.add_entity("leaf", &[]);
        b.add_entity("typed_leaf", &["Automobile"]);
        b.add_edge_by_name("hub", "product", "car");
        let g = b.build();
        let cars = hop(&g, "hub", "Automobile", 3);
        // leaf ⤳ car runs through the hub, which a simple path from the hub
        // through hub — leaf has used already.
        assert_eq!(
            kept_after_edge(&g, "hub", "leaf", std::slice::from_ref(&cars)),
            vec![cars.clone()]
        );
        assert!(kept_after_edge(&g, "hub", "typed_leaf", &[cars]).is_empty());
    }

    #[test]
    fn a_retype_reaches_the_hops_whose_anchor_is_within_n() {
        let g = graph();
        let hops = vec![
            hop(&g, "hub", "Automobile", 3),
            hop(&g, "hub", "Automobile", 1),
            hop(&g, "island", "Ship", 3),
        ];
        let mut kept = hops.clone();
        WriteReach::new().retain_unreached_by_retype(
            &g,
            g.entity_by_name("m2").unwrap(),
            &mut kept,
        );
        assert_eq!(kept, hops[1..].to_vec());
        let mut kept = hops.clone();
        WriteReach::new().retain_unreached_by_retype(
            &g,
            g.entity_by_name("island").unwrap(),
            &mut kept,
        );
        assert_eq!(kept, hops[..2].to_vec());
    }
}
