//! Property tests for sharding: partitioner determinism, entity ownership,
//! and how `repartition_preserving` extends an assignment.

use kg_core::{
    DegreeBalancedPartitioner, EntityId, GraphBuilder, HashPartitioner, KnowledgeGraph,
    Partitioner, ShardedGraph,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a deterministic pseudo-random graph from a compact description:
/// `n` entities, edges derived from a seed with a splitmix-style generator.
fn synthetic_graph(n: usize, edges: usize, seed: u64) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    let types = ["Car", "Country", "Company"];
    let ids: Vec<EntityId> = (0..n)
        .map(|i| b.add_entity(&format!("e{i}"), &[types[i % types.len()]]))
        .collect();
    let mut x = seed | 1;
    let mut next = || {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let predicates = ["product", "assembly", "country"];
    for e in 0..edges {
        let s = ids[(next() % n as u64) as usize];
        let o = ids[(next() % n as u64) as usize];
        b.add_edge(s, predicates[e % predicates.len()], o);
    }
    for (i, &id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            b.set_attribute(id, "price", 1_000.0 + i as f64);
        }
    }
    b.build()
}

/// Satellite: the degree-balanced partitioner must be deterministic
/// run-to-run, including under degree ties, because shard assignment seeds
/// the per-shard sampling RNG streams.
#[test]
fn degree_balanced_assignment_is_deterministic_under_ties() {
    // 12 entities of identical degree (a 12-cycle): every assignment
    // decision is a tie, resolved by entity id then shard index.
    let mut b = GraphBuilder::new();
    let ids: Vec<EntityId> = (0..12)
        .map(|i| b.add_entity(&format!("v{i}"), &["T"]))
        .collect();
    for i in 0..12 {
        b.add_edge(ids[i], "next", ids[(i + 1) % 12]);
    }
    let g = b.build();
    let first = DegreeBalancedPartitioner.partition(&g, 4);
    for _ in 0..5 {
        assert_eq!(DegreeBalancedPartitioner.partition(&g, 4), first);
    }
    // With all degrees equal, the id tie-break visits entities in id order
    // and the load tie-break round-robins the shards: 0,1,2,3,0,1,2,3,…
    let expected: Vec<u32> = (0..12).map(|i| (i % 4) as u32).collect();
    assert_eq!(first, expected);
}

#[test]
fn partitioners_are_deterministic_on_irregular_graphs() {
    let g = synthetic_graph(60, 150, 0xDEAD_BEEF);
    for p in [
        &HashPartitioner as &dyn Partitioner,
        &DegreeBalancedPartitioner,
    ] {
        let first = p.partition(&g, 7);
        assert_eq!(p.partition(&g, 7), first, "{} not deterministic", p.name());
    }
}

/// Every entity's shard, in entity id order.
fn assignment(sharded: &ShardedGraph) -> Vec<usize> {
    (0..sharded.global().entity_count())
        .map(|i| sharded.shard_of(EntityId::from(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded view wraps the graph itself and owns every entity on
    /// exactly one shard: the one the partitioner assigned it to.
    #[test]
    fn sharded_view_preserves_the_graph(
        n in 1usize..40,
        edges in 0usize..120,
        seed in 0u64..u64::MAX,
        k in 1usize..6,
    ) {
        let global = Arc::new(synthetic_graph(n, edges, seed));
        for p in [
            &HashPartitioner as &dyn Partitioner,
            &DegreeBalancedPartitioner,
        ] {
            let sharded = ShardedGraph::new(Arc::clone(&global), p, k);
            prop_assert_eq!(sharded.shard_count(), k);
            prop_assert_eq!(sharded.partitioner(), p.name());
            prop_assert!(Arc::ptr_eq(sharded.global(), &global));
            let expected: Vec<usize> =
                p.partition(&global, k).into_iter().map(|s| s as usize).collect();
            let owned = assignment(&sharded);
            prop_assert!(owned.iter().all(|&s| s < k));
            prop_assert_eq!(owned, expected);
        }
    }

    /// A forward snapshot keeps every existing entity on its shard and
    /// gives each appended entity, in id order, to the shard owning the
    /// fewest entities so far (ties to the lowest shard id) —
    /// deterministically.
    #[test]
    fn repartition_preserving_extends_the_assignment_to_the_lightest_shard(
        n in 1usize..40,
        edges in 0usize..120,
        seed in 0u64..u64::MAX,
        k in 1usize..6,
        appended in 0usize..12,
    ) {
        let global = Arc::new(synthetic_graph(n, edges, seed));
        let sharded = ShardedGraph::new(Arc::clone(&global), &DegreeBalancedPartitioner, k);
        let mut written = (*global).clone();
        for i in 0..appended {
            // New entities, some with a pending edge to an existing one.
            let new = written.upsert_entity(&format!("new{i}"), &["Car"]);
            if i % 2 == 0 {
                written.upsert_edge(new, "product", EntityId::from(i % n));
            }
        }
        let written = Arc::new(written);
        let re = sharded.repartition_preserving(Arc::clone(&written));
        prop_assert_eq!(re.shard_count(), k);
        prop_assert_eq!(re.partitioner(), sharded.partitioner());
        prop_assert!(Arc::ptr_eq(re.global(), &written));

        let before = assignment(&sharded);
        let after = assignment(&re);
        prop_assert_eq!(after.len(), n + appended);
        prop_assert_eq!(&after[..n], &before[..]);
        let mut owned = vec![0usize; k];
        for &s in &before {
            owned[s] += 1;
        }
        for &s in &after[n..] {
            let fewest = *owned.iter().min().unwrap();
            prop_assert_eq!(owned[s], fewest);
            prop_assert!(owned[..s].iter().all(|&c| c > fewest), "tie not to lowest id");
            owned[s] += 1;
        }
        prop_assert_eq!(assignment(&sharded.repartition_preserving(written)), after);
    }
}
