//! The bundle API: the graph and its predicate-similarity store in one
//! snapshot file, and the structured boot-error line server binaries print
//! when a snapshot does not load.
//!
//! A bundle holds the `kg-core` graph sections plus the similarity store
//! ([`kg_core::snapshot::section_kind::SIMILARITY`], written by `kg-embed`).
//! It stores no prepared sampler: served plans within SSB's path limit are
//! answered by exact path walks and prepare nothing, and the path-limit
//! fallback prepares through a [`crate::SamplerCache`] that lives for one
//! service graph epoch.

use kg_core::snapshot::{section_kind, write_snapshot_file, Snapshot};
use kg_core::{KgResult, KnowledgeGraph};
use kg_embed::PredicateVectorStore;
use std::path::Path;

/// Everything a service boot needs, decoded from one snapshot file: the
/// graph itself plus the optional similarity store (section 100).
#[derive(Debug)]
pub struct SnapshotBundle {
    /// The knowledge graph, byte-identical to the writer's.
    pub graph: KnowledgeGraph,
    /// The predicate similarity store, when the writer included one.
    pub similarity: Option<PredicateVectorStore>,
    /// Format version of the file (always
    /// [`kg_core::snapshot::FORMAT_VERSION`] once decoded).
    pub version: u32,
}

/// Serializes a full bundle to bytes: the graph sections plus the
/// optional similarity section.
pub fn bundle_bytes(
    graph: &KnowledgeGraph,
    similarity: Option<&PredicateVectorStore>,
) -> KgResult<Vec<u8>> {
    let mut writer = graph.snapshot_writer()?;
    if let Some(store) = similarity {
        writer.add_section(section_kind::SIMILARITY, store.to_snapshot_section());
    }
    Ok(writer.finish())
}

/// Writes a full bundle to `path` (atomic: tmp sibling + rename).
pub fn write_bundle(
    path: impl AsRef<Path>,
    graph: &KnowledgeGraph,
    similarity: Option<&PredicateVectorStore>,
) -> KgResult<()> {
    let bytes = bundle_bytes(graph, similarity)?;
    write_snapshot_file(path.as_ref(), &bytes)
}

/// Decodes a validated snapshot into a bundle.
pub fn bundle_from_snapshot(snap: &Snapshot) -> KgResult<SnapshotBundle> {
    let graph = KnowledgeGraph::from_snapshot(snap)?;
    let similarity = snap
        .section(section_kind::SIMILARITY)
        .map(PredicateVectorStore::from_snapshot_section)
        .transpose()?;
    Ok(SnapshotBundle {
        graph,
        similarity,
        version: snap.version(),
    })
}

/// Opens and fully decodes a bundle from a snapshot file.
pub fn open_bundle(path: impl AsRef<Path>) -> KgResult<SnapshotBundle> {
    let snap = Snapshot::open(path)?;
    bundle_from_snapshot(&snap)
}

/// One structured JSON line describing a snapshot boot failure: the path
/// that was opened and the section-level cause (`"open"` for filesystem
/// errors — missing or unreadable path — otherwise the failing snapshot
/// section). Server binaries print exactly this line to stderr before
/// exiting, so operators and supervisors get a machine-parseable reason
/// instead of a stack trace or a bare I/O message.
pub fn snapshot_boot_error(path: &str, err: &kg_core::KgError) -> String {
    let (section, cause) = match err {
        kg_core::KgError::Snapshot { section, message } => (section.clone(), message.clone()),
        kg_core::KgError::Io(e) => ("open".to_string(), e.to_string()),
        other => ("decode".to_string(), other.to_string()),
    };
    let mut line = serde_json::Map::new();
    line.insert(
        "error".to_string(),
        serde_json::Value::String("snapshot_load_failed".to_string()),
    );
    line.insert(
        "path".to_string(),
        serde_json::Value::String(path.to_string()),
    );
    line.insert("section".to_string(), serde_json::Value::String(section));
    line.insert("cause".to_string(), serde_json::Value::String(cause));
    serde_json::to_string(&serde_json::Value::Object(line)).expect("boot error line serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;

    #[test]
    fn boot_error_line_names_path_and_section() {
        // A missing path is an I/O failure: section "open".
        let err = open_bundle("/no/such/snapshot.kgsnap").unwrap_err();
        let line = snapshot_boot_error("/no/such/snapshot.kgsnap", &err);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["error"].as_str(), Some("snapshot_load_failed"));
        assert_eq!(parsed["path"].as_str(), Some("/no/such/snapshot.kgsnap"));
        assert_eq!(parsed["section"].as_str(), Some("open"));
        assert!(!parsed["cause"].as_str().unwrap().is_empty());
        assert!(!line.contains('\n'), "must be a single line");

        // A validation failure carries the failing snapshot section.
        let err = kg_core::KgError::Snapshot {
            section: "header".to_string(),
            message: "bad magic".to_string(),
        };
        let line = snapshot_boot_error("x.kgsnap", &err);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["section"].as_str(), Some("header"));
        assert_eq!(parsed["cause"].as_str(), Some("bad magic"));
    }

    fn setup() -> (KnowledgeGraph, PredicateVectorStore) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let jp = b.add_entity("Japan", &["Island"]);
        for i in 0..12 {
            let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.add_edge(de, "product", car);
            let ship = b.add_entity(&format!("ship{i}"), &["Ship"]);
            b.add_edge(jp, "builds", ship);
        }
        let g = b.build();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("builds").unwrap(), 1, 1.0),
        ]);
        (g, store)
    }

    #[test]
    fn bundle_file_round_trip_and_optional_sections() {
        let (g, store) = setup();
        let path =
            std::env::temp_dir().join(format!("kg-sampling-bundle-{}.kgsnap", std::process::id()));
        write_bundle(&path, &g, Some(&store)).unwrap();
        let bundle = open_bundle(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(bundle.version, kg_core::snapshot::FORMAT_VERSION);
        assert_eq!(bundle.graph.entity_count(), g.entity_count());
        let similarity = bundle.similarity.expect("similarity section present");
        assert_eq!(similarity.predicate_count(), store.predicate_count());

        // The decoded bundle re-snapshots to identical bytes.
        assert_eq!(
            bundle_bytes(&bundle.graph, Some(&similarity)).unwrap(),
            bundle_bytes(&g, Some(&store)).unwrap()
        );

        // A graph-only snapshot decodes with the similarity store absent.
        let plain = g.snapshot_bytes().unwrap();
        let bundle = bundle_from_snapshot(&Snapshot::from_bytes(plain).unwrap()).unwrap();
        assert!(bundle.similarity.is_none());
    }
}
