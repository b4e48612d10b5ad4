//! Snapshots through the live service: a snapshot-booted service serves
//! bitwise the answers of a generate-booted one; `/v2/write` deltas applied
//! on top of a snapshot boot, once compacted and re-snapshotted through the
//! compaction sink, produce a file byte-identical to the chronological
//! rebuild (seed graph → same writes → compact → snapshot); and snapshot
//! provenance shows up on `/metrics.prom`.

use kg_core::snapshot::{section_kind, Snapshot};
use kg_core::{GraphBuilder, KnowledgeGraph, FORMAT_VERSION};
use kg_embed::oracle::oracle_store;
use kg_embed::PredicateVectorStore;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_sampling::{bundle_bytes, bundle_from_snapshot, open_bundle};
use kg_service::{QueryRequest, Service, ServiceAnswer, ServiceConfig, WriteOp, WriteRequest};
use std::path::PathBuf;
use std::sync::Arc;

fn seed_graph() -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    for i in 0..8 {
        b.add_entity(&format!("car{i}"), &["Automobile"]);
        b.add_edge_by_name("Germany", "product", &format!("car{i}"));
    }
    b.add_entity("Japan", &["Island"]);
    for i in 0..5 {
        b.add_entity(&format!("ship{i}"), &["Ship"]);
        b.add_edge_by_name("Japan", "builds", &format!("ship{i}"));
    }
    b.build()
}

fn oracle_for(graph: &KnowledgeGraph) -> PredicateVectorStore {
    oracle_store(&[
        (graph.predicate_id("product").unwrap(), 0, 1.0),
        (graph.predicate_id("builds").unwrap(), 1, 1.0),
    ])
}

fn car_query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
}

fn service_over(graph: KnowledgeGraph, oracle: PredicateVectorStore) -> Service {
    Service::new(
        Arc::new(graph),
        Arc::new(oracle),
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    )
}

fn exec(svc: &Service, query: AggregateQuery) -> ServiceAnswer {
    let pending = svc
        .submit(QueryRequest::new(query, 0.1, 0.95))
        .expect("admitted");
    while svc.drain_once() > 0 {}
    pending.wait().expect("answered")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "kg-service-snapshot-{tag}-{}.kgsnap",
        std::process::id()
    ))
}

/// A service booted from a snapshot bundle answers bitwise identically to
/// one built from the in-memory graph the snapshot was written from — same
/// estimate bits, same margin-of-error bits, same sample size.
#[test]
fn snapshot_booted_service_answers_bitwise_identically() {
    let graph = seed_graph();
    let oracle = oracle_for(&graph);
    let bytes = bundle_bytes(&graph, Some(&oracle)).unwrap();
    let path = temp_path("boot");
    std::fs::write(&path, &bytes).unwrap();
    let bundle = open_bundle(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let fresh = service_over(graph, oracle);
    let booted = service_over(bundle.graph, bundle.similarity.expect("similarity stored"));
    booted.record_snapshot_load(bundle.version, 0.25);

    let a = exec(&fresh, car_query());
    let b = exec(&booted, car_query());
    assert_eq!(
        a.answer.estimate.to_bits(),
        b.answer.estimate.to_bits(),
        "estimates diverged: {} vs {}",
        a.answer.estimate,
        b.answer.estimate
    );
    assert_eq!(a.answer.moe.to_bits(), b.answer.moe.to_bits());
    assert_eq!(a.answer.sample_size, b.answer.sample_size);

    // Provenance is visible in the snapshot and its exposition.
    let metrics = booted.metrics();
    assert_eq!(
        metrics.snapshot_load.map(|info| info.format_version),
        Some(FORMAT_VERSION)
    );
    let prom = metrics.to_prometheus();
    let version_line = format!("kg_snapshot_format_version {FORMAT_VERSION}\n");
    assert!(prom.contains(&version_line), "{prom}");
    assert!(prom.contains("kg_snapshot_load_ms 0.25\n"), "{prom}");
    // A non-snapshot boot reports only the write counter.
    let fresh_prom = fresh.metrics().to_prometheus();
    assert!(
        !fresh_prom.contains("kg_snapshot_format_version"),
        "{fresh_prom}"
    );
    assert!(!fresh_prom.contains("kg_snapshot_load_ms"), "{fresh_prom}");
    assert!(
        fresh_prom.contains("kg_snapshot_writes_total 0\n"),
        "{fresh_prom}"
    );
}

/// The snapshot × writes contract: boot from a snapshot, apply `/v2/write`
/// ops through the delta overlay, compact — the snapshot the compaction
/// sink writes is byte-identical to the one produced by the chronological
/// rebuild (fresh graph, same writes, same compaction).
#[test]
fn compaction_sink_snapshot_equals_chronological_rebuild() {
    let writes = || {
        WriteRequest::new(vec![
            WriteOp::UpsertEntity {
                name: "car_new".into(),
                types: vec!["Automobile".into()],
            },
            WriteOp::UpsertEdge {
                subject: "Germany".into(),
                predicate: "product".into(),
                object: "car_new".into(),
            },
            WriteOp::DeleteEdge {
                subject: "Japan".into(),
                predicate: "builds".into(),
                object: "ship0".into(),
            },
        ])
        .with_compact()
    };

    // Path A: boot from a snapshot of the seed graph, then write + compact.
    let graph = seed_graph();
    let oracle = oracle_for(&graph);
    let bytes = bundle_bytes(&graph, Some(&oracle)).unwrap();
    let boot_path = temp_path("chrono-boot");
    std::fs::write(&boot_path, &bytes).unwrap();
    let bundle = open_bundle(&boot_path).unwrap();
    std::fs::remove_file(&boot_path).unwrap();
    let similarity = Arc::new(bundle.similarity.expect("similarity stored"));
    let booted = Service::new(
        Arc::new(bundle.graph),
        Arc::clone(&similarity) as Arc<dyn kg_embed::PredicateSimilarity>,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let sink_a = temp_path("sink-a");
    booted.enable_snapshot_writes(&sink_a, Arc::clone(&similarity));
    let outcome = booted.apply_write(writes()).expect("write applies");
    assert!(outcome.compacted);
    assert_eq!(booted.metrics().snapshot_writes, 1);

    // Path B: chronological rebuild — fresh seed graph, same writes.
    let graph = seed_graph();
    let oracle = Arc::new(oracle_for(&graph));
    let rebuilt = Service::new(
        Arc::new(graph),
        Arc::clone(&oracle) as Arc<dyn kg_embed::PredicateSimilarity>,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let sink_b = temp_path("sink-b");
    rebuilt.enable_snapshot_writes(&sink_b, oracle);
    rebuilt.apply_write(writes()).expect("write applies");

    let a = std::fs::read(&sink_a).unwrap();
    let b = std::fs::read(&sink_b).unwrap();
    std::fs::remove_file(&sink_a).unwrap();
    std::fs::remove_file(&sink_b).unwrap();
    assert_eq!(
        a, b,
        "snapshot after writes diverged from chronological rebuild"
    );

    // Both snapshots reload and answer.
    let reload_path = temp_path("reload");
    std::fs::write(&reload_path, &a).unwrap();
    let reloaded = open_bundle(&reload_path).unwrap();
    std::fs::remove_file(&reload_path).unwrap();
    assert_eq!(
        reloaded.graph.entity_count(),
        seed_graph().entity_count() + 1
    );
    let svc = service_over(
        reloaded.graph,
        reloaded.similarity.expect("similarity stored"),
    );
    let answer = exec(&svc, car_query());
    assert!(answer.answer.estimate > 0.0);
}

/// `write_snapshot_now` (the `--write-snapshot` boot write) requires an
/// armed sink, writes a loadable file, and bumps the counter.
#[test]
fn boot_time_snapshot_write_round_trips() {
    let graph = seed_graph();
    let oracle = Arc::new(oracle_for(&graph));
    let svc = Service::new(
        Arc::new(graph),
        Arc::clone(&oracle) as Arc<dyn kg_embed::PredicateSimilarity>,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    assert!(svc.write_snapshot_now().is_err(), "sink not armed yet");

    let path = temp_path("boot-write");
    svc.enable_snapshot_writes(&path, oracle);
    svc.write_snapshot_now().expect("boot write");
    let snap = Snapshot::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    // The file carries the graph and its similarity store, and no sampler
    // section (kind 101 in format v3).
    assert!(snap.section(section_kind::SIMILARITY).is_some());
    assert!(
        snap.sections().iter().all(|s| s.kind != 101),
        "{:?}",
        snap.sections()
    );
    bundle_from_snapshot(&snap).expect("the written file loads");
    assert_eq!(svc.metrics().snapshot_writes, 1);
    let prom = svc.metrics().to_prometheus();
    assert!(prom.contains("kg_snapshot_writes_total 1"), "{prom}");
}
