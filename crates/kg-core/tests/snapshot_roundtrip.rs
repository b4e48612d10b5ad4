//! Differential property suite for the binary snapshot format
//! (`kg_core::snapshot`).
//!
//! For random build schedules, a graph re-opened from its own snapshot
//! bytes must be **bitwise indistinguishable** from the original —
//! adjacency (entry order included), triple list, ids, name/type/attribute
//! indexes, and derived statistics — and re-snapshotting the reloaded
//! graph must reproduce the original bytes exactly (the fixed point that
//! makes snapshot files content-addressable). The adjacency is not stored:
//! the reload rebuilds it from the triple log. The overlay contract rides
//! on top: snapshot → overlay writes → compact → re-snapshot equals
//! the chronological rebuild's snapshot, byte for byte.

use kg_core::snapshot::{Snapshot, FORMAT_VERSION};
use kg_core::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;

fn entity_name(i: u8) -> String {
    format!("e{}", i % 12)
}

fn predicate_name(i: u8) -> String {
    format!("p{}", i % 4)
}

fn type_name(i: u8) -> String {
    format!("T{}", i % 3)
}

fn attr_name(i: u8) -> String {
    format!("a{}", i % 3)
}

/// One build-schedule step, decoded from a generated `(code, s, p, o)`
/// tuple. Attribute values are derived from the tuple so the schedule
/// space covers negative, zero and fractional values.
#[derive(Debug, Clone, Copy)]
enum Op {
    Entity(u8, u8),
    Edge(u8, u8, u8),
    SelfLoop(u8, u8),
    Attr(u8, u8, u8),
}

fn decode(steps: &[(u8, u8, u8, u8)]) -> Vec<Op> {
    steps
        .iter()
        .map(|&(code, s, p, o)| match code {
            0..=4 => Op::Edge(s, p, o),
            5 => Op::SelfLoop(s, p),
            6 | 7 => Op::Attr(s, p, o),
            _ => Op::Entity(s, p),
        })
        .collect()
}

fn build(ops: &[Op]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for &op in ops {
        match op {
            Op::Entity(s, t) => {
                b.add_entity(&entity_name(s), &[&type_name(t)]);
            }
            Op::Edge(s, p, o) => {
                b.add_edge_by_name(&entity_name(s), &predicate_name(p), &entity_name(o));
            }
            Op::SelfLoop(s, p) => {
                b.add_edge_by_name(&entity_name(s), &predicate_name(p), &entity_name(s));
            }
            Op::Attr(s, a, v) => {
                let id = b.add_entity(&entity_name(s), &[]);
                b.set_attribute(id, &attr_name(a), (v as f64 - 128.0) / 4.0);
            }
        }
    }
    b.build()
}

/// Asserts every observable of `reloaded` matches `original`, bitwise.
fn assert_equivalent(reloaded: &KnowledgeGraph, original: &KnowledgeGraph) {
    assert_eq!(reloaded.entity_count(), original.entity_count());
    assert_eq!(reloaded.edge_count(), original.edge_count());
    assert_eq!(reloaded.predicate_count(), original.predicate_count());
    assert_eq!(reloaded.type_count(), original.type_count());
    assert_eq!(reloaded.attribute_count(), original.attribute_count());
    assert_eq!(reloaded.triples(), original.triples());
    assert_eq!(
        reloaded.average_degree().to_bits(),
        original.average_degree().to_bits(),
        "average_degree must be bitwise identical"
    );
    for id in original.entity_ids() {
        assert_eq!(
            reloaded.neighbors(id),
            original.neighbors(id),
            "adjacency of entity {id:?} diverged"
        );
        assert_eq!(reloaded.degree(id), original.degree(id));
        assert_eq!(reloaded.entity(id).name, original.entity(id).name);
        assert_eq!(reloaded.entity(id).types, original.entity(id).types);
        assert_eq!(
            reloaded.entity_by_name(&original.entity(id).name),
            Some(id),
            "name index diverged for {:?}",
            original.entity(id).name
        );
    }
    for (ty, name) in original.types() {
        assert_eq!(reloaded.type_id(name), Some(ty));
        assert_eq!(
            reloaded.entities_with_type(ty),
            original.entities_with_type(ty),
            "type index diverged for type {name:?}"
        );
    }
    for (attr, name) in original.attributes() {
        assert_eq!(reloaded.attr_id(name), Some(attr));
        for id in original.entity_ids() {
            let (a, b) = (
                reloaded.attribute_value(id, attr),
                original.attribute_value(id, attr),
            );
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "attribute {name:?} of {id:?} diverged"
            );
        }
    }
}

fn roundtrip(graph: &KnowledgeGraph) -> (Vec<u8>, KnowledgeGraph) {
    let bytes = graph.snapshot_bytes().expect("snapshot");
    let snap = Snapshot::from_bytes(bytes.clone()).expect("parse");
    assert_eq!(snap.version(), FORMAT_VERSION);
    let reloaded = KnowledgeGraph::from_snapshot(&snap).expect("reload");
    (bytes, reloaded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip: reload is bitwise-equivalent, and re-snapshotting the
    /// reload reproduces the original bytes (fixed point).
    #[test]
    fn snapshot_round_trip_is_a_bitwise_fixed_point(
        steps in proptest::collection::vec((0u8..=9, 0u8..=255, 0u8..=255, 0u8..=255), 1..60)
    ) {
        let graph = build(&decode(&steps));
        let (bytes, reloaded) = roundtrip(&graph);
        assert_equivalent(&reloaded, &graph);
        let again = reloaded.snapshot_bytes().expect("re-snapshot");
        prop_assert_eq!(&bytes, &again, "re-snapshot of the reload diverged");
    }

    /// Overlay writes on a snapshot-reloaded graph, compacted and
    /// re-snapshotted, equal the chronological rebuild's snapshot bytes.
    #[test]
    fn snapshot_overlay_compact_matches_chronological_rebuild(
        base in proptest::collection::vec((0u8..=9, 0u8..=255, 0u8..=255, 0u8..=255), 1..30),
        writes in proptest::collection::vec((0u8..=9, 0u8..=255, 0u8..=255, 0u8..=255), 1..20),
    ) {
        let seed = build(&decode(&base));
        let (bytes, mut reloaded) = roundtrip(&seed);
        drop(bytes);

        // Chronological rebuild: a fresh graph that saw the same writes
        // through the overlay (builder replay cannot express deletes of
        // CSR edges, so both sides go through the overlay).
        let mut chronological = build(&decode(&base));
        for &(code, s, p, o) in &writes {
            for g in [&mut reloaded, &mut chronological] {
                match code {
                    0..=5 => {
                        g.upsert_edge_by_name(
                            &entity_name(s), &predicate_name(p), &entity_name(o));
                    }
                    6 | 7 => {
                        g.delete_edge_by_name(
                            &entity_name(s), &predicate_name(p), &entity_name(o));
                    }
                    _ => {
                        g.upsert_entity(&entity_name(s), &[&type_name(p)]);
                    }
                }
            }
        }
        reloaded.compact();
        chronological.compact();
        prop_assert_eq!(
            reloaded.snapshot_bytes().expect("snapshot"),
            chronological.snapshot_bytes().expect("snapshot"),
            "snapshot after overlay writes diverged from chronological rebuild"
        );
    }
}

/// A graph with a pending (uncompacted) overlay refuses to snapshot: the
/// format stores the base CSR only, so writing would silently drop deltas.
#[test]
fn pending_overlay_fails_closed() {
    let mut b = GraphBuilder::new();
    b.add_edge_by_name("a", "p", "b");
    let mut g = b.build();
    g.upsert_edge_by_name("a", "p", "c");
    let err = g.snapshot_bytes().unwrap_err();
    assert!(err.to_string().contains("meta"), "{err}");
    g.compact();
    g.snapshot_bytes().expect("compacted graph snapshots");
}

/// The empty graph round-trips (degenerate CSR: one offset, no edges).
#[test]
fn empty_graph_round_trips() {
    let graph = GraphBuilder::new().build();
    let (_, reloaded) = roundtrip(&graph);
    assert_equivalent(&reloaded, &graph);
}
