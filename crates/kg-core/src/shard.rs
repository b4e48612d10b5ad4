//! Sharded execution's entity-ownership map over one logical graph.
//!
//! A [`ShardedGraph`] assigns every entity of a graph to one of `K` shards
//! with a pluggable [`Partitioner`]. It copies nothing: planning, path
//! validation and attribute reads all go to the global graph it wraps (a
//! matching path may cross shards freely), and a shard's stratum is the
//! slice of the plan's answer distribution whose entities it owns.
//!
//! `K = 1` ([`ShardedGraph::single`]) owns every entity on shard 0.

use crate::graph::KnowledgeGraph;
use crate::ids::EntityId;
use crate::partition::Partitioner;
use std::sync::Arc;

/// A knowledge graph with every entity assigned to one of `K` shards.
///
/// See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardedGraph {
    global: Arc<KnowledgeGraph>,
    /// Global entity id → owning shard.
    assignment: Vec<u32>,
    shard_count: usize,
    partitioner: &'static str,
}

impl ShardedGraph {
    /// Partitions `global` into `k` shards with `partitioner`.
    ///
    /// # Panics
    /// Panics when `k == 0` or when the partitioner returns an assignment of
    /// the wrong length or with out-of-range shard indices.
    pub fn new(global: Arc<KnowledgeGraph>, partitioner: &dyn Partitioner, k: usize) -> Self {
        assert!(k > 0, "cannot shard into zero shards");
        let assignment = partitioner.partition(&global, k);
        assert_eq!(
            assignment.len(),
            global.entity_count(),
            "partitioner returned {} assignments for {} entities",
            assignment.len(),
            global.entity_count()
        );
        assert!(
            assignment.iter().all(|&s| (s as usize) < k),
            "partitioner assigned a shard index >= {k}"
        );
        Self {
            global,
            assignment,
            shard_count: k,
            partitioner: partitioner.name(),
        }
    }

    /// Wraps a graph as a single-shard [`ShardedGraph`] (the identity
    /// configuration every unsharded deployment corresponds to).
    pub fn single(global: Arc<KnowledgeGraph>) -> Self {
        let assignment = vec![0; global.entity_count()];
        Self {
            global,
            assignment,
            shard_count: 1,
            partitioner: "single",
        }
    }

    /// Number of shards `K`.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The full (unsharded) graph.
    pub fn global(&self) -> &Arc<KnowledgeGraph> {
        &self.global
    }

    /// The shard owning a global entity id.
    ///
    /// # Panics
    /// Panics when `global` is out of range.
    pub fn shard_of(&self, global: EntityId) -> usize {
        self.assignment[global.index()] as usize
    }

    /// Name of the partitioning strategy that built this sharding.
    pub fn partitioner(&self) -> &'static str {
        self.partitioner
    }

    /// Wraps an updated snapshot of the same logical graph, **keeping the
    /// existing entity→shard assignment**: every entity this sharding knows
    /// keeps its shard, so in-flight per-stratum state stays valid across a
    /// write. Entities appended after this sharding was built (higher global
    /// ids) each go to the shard owning the fewest entities so far (ties to
    /// the lowest shard id, deterministically).
    ///
    /// # Panics
    /// Panics when `global` has fewer entities than this sharding covers —
    /// the snapshot must be a forward evolution of the same graph.
    pub fn repartition_preserving(&self, global: Arc<KnowledgeGraph>) -> Self {
        assert!(
            global.entity_count() >= self.assignment.len(),
            "repartition_preserving needs a forward snapshot: {} entities < {} assigned",
            global.entity_count(),
            self.assignment.len()
        );
        let k = self.shard_count;
        let mut assignment = self.assignment.clone();
        let mut owned_counts = vec![0usize; k];
        for &s in &assignment {
            owned_counts[s as usize] += 1;
        }
        for _ in assignment.len()..global.entity_count() {
            let target = (0..k).min_by_key(|&s| owned_counts[s]).unwrap_or(0);
            assignment.push(target as u32);
            owned_counts[target] += 1;
        }
        Self {
            global,
            assignment,
            shard_count: k,
            partitioner: self.partitioner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn single_is_the_identity() {
        let mut b = GraphBuilder::new();
        let mut prev = b.add_entity("n0", &["T"]);
        for i in 1..6 {
            let next = b.add_entity(&format!("n{i}"), &["T"]);
            b.add_edge(prev, "next", next);
            prev = next;
        }
        let g = Arc::new(b.build());
        let sharded = ShardedGraph::single(Arc::clone(&g));
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.partitioner(), "single");
        assert!(Arc::ptr_eq(sharded.global(), &g));
        for i in 0..g.entity_count() {
            assert_eq!(sharded.shard_of(EntityId::from(i)), 0);
        }
    }
}
