//! Coordinator-mode service over a live `kg-shard` protocol listener: the
//! full distributed stack (HTTP service → remote session → TCP shard fleet
//! → shard server core) pinned against the in-process stack for bitwise
//! answer equality, plus the coordinator-only contracts — the remote
//! handshake, the write-endpoint 501, the readiness gate and the remote
//! metrics surface.

use kg_aqp::{EngineConfig, ShardServerCore};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateSimilarity;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_service::{
    QueryRequest, RemoteTopology, Service, ServiceConfig, ServiceConfigError, ServiceError,
    WriteOp, WriteRequest,
};
use std::sync::Arc;

const SHARDS: usize = 2;

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "remote-service",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China", "Korea"])],
        31,
    ))
}

fn query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
}

fn service_config(remote: Option<RemoteTopology>) -> ServiceConfig {
    let mut builder = ServiceConfig::builder()
        .engine(EngineConfig {
            enumerate: false,
            ..EngineConfig::default()
        })
        .error_bound(0.05)
        .confidence(0.95)
        .workers(1)
        .shards(SHARDS);
    if let Some(topology) = remote {
        builder = builder.remote(topology);
    }
    builder.build().unwrap()
}

/// Boots one kg-shard listener hosting every shard of the dataset (the
/// single-process deployment shape) and returns its endpoint.
fn boot_shard_listener(
    d: &kg_datagen::GeneratedDataset,
    engine: &EngineConfig,
) -> (kg_shard::ShardListener, String) {
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::new(graph, &DegreeBalancedPartitioner, SHARDS));
    let core = Arc::new(ShardServerCore::new(engine.clone(), sharded, similarity));
    let listener = kg_shard::serve_protocol(core, "127.0.0.1:0").unwrap();
    let endpoint = listener.local_addr().to_string();
    (listener, endpoint)
}

#[test]
fn coordinator_answers_match_the_in_process_service_bitwise() {
    let d = dataset();
    let reference_config = service_config(None);
    let (_listener, endpoint) = boot_shard_listener(&d, &reference_config.engine);

    let reference = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        reference_config,
    );
    let expected = reference
        .execute(QueryRequest::new(query(), 0.05, 0.95))
        .unwrap();

    let topology = RemoteTopology {
        replicas: vec![vec![endpoint]; SHARDS],
        ..RemoteTopology::default()
    };
    let coordinator = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        service_config(Some(topology)),
    );
    assert!(coordinator.is_remote());
    coordinator.remote_handshake().unwrap();

    let got = coordinator
        .execute(QueryRequest::new(query(), 0.05, 0.95))
        .unwrap();
    assert!(!got.answer.is_degraded());
    assert_eq!(
        got.answer.estimate.to_bits(),
        expected.answer.estimate.to_bits(),
        "remote coordinator diverged from the in-process service"
    );
    assert_eq!(got.answer.moe.to_bits(), expected.answer.moe.to_bits());
    assert_eq!(got.answer.sample_size, expected.answer.sample_size);

    let metrics = coordinator.metrics();
    let remote = metrics.remote.expect("coordinator metrics carry the fleet");
    assert!(remote.requests > 0, "fleet RPCs must be accounted");
    assert_eq!(metrics.degraded_answers, 0);
    assert!(reference.metrics().remote.is_none());

    reference.shutdown();
    coordinator.shutdown();
}

#[test]
fn writes_are_refused_with_501_semantics_in_coordinator_mode() {
    let d = dataset();
    let config = service_config(None);
    let (_listener, endpoint) = boot_shard_listener(&d, &config.engine);
    let topology = RemoteTopology {
        replicas: vec![vec![endpoint]; SHARDS],
        ..RemoteTopology::default()
    };
    let coordinator = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        service_config(Some(topology)),
    );
    let write = WriteRequest {
        ops: vec![WriteOp::UpsertEntity {
            name: "Volkswagen II".to_string(),
            types: vec!["Company".to_string()],
        }],
        compact: false,
    };
    let err = coordinator.apply_write(write).unwrap_err();
    assert!(matches!(err, ServiceError::RemoteWriteUnsupported), "{err}");
    assert_eq!(err.http_status(), 501);
    assert_eq!(err.code(), "remote_write_unsupported");
    coordinator.shutdown();
}

#[test]
fn readiness_is_explicit_and_shutdown_revokes_it() {
    let d = dataset();
    let service = Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        service_config(None),
    );
    // Boot orchestration owns readiness: a freshly constructed service is
    // alive but not yet ready.
    assert!(!service.is_ready());
    service.mark_ready();
    assert!(service.is_ready());
    service.shutdown();
    assert!(!service.is_ready(), "shutdown must revoke readiness");
}

#[test]
fn topology_must_cover_every_shard() {
    let topology = RemoteTopology {
        replicas: vec![vec!["127.0.0.1:1".to_string()]],
        ..RemoteTopology::default()
    };
    let err = ServiceConfig::builder()
        .shards(SHARDS)
        .remote(topology)
        .build()
        .unwrap_err();
    assert!(
        matches!(err, ServiceConfigError::InvalidRemoteTopology { .. }),
        "{err}"
    );
}
