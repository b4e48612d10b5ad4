//! End-to-end over real sockets: a `kg-shard` protocol listener served by
//! [`kg_shard::serve_protocol`], driven by the coordinator's [`ShardFleet`]
//! over [`TcpTransport`] — the exact production path minus process
//! boundaries. Pins that the TCP path produces the same bytes as the
//! in-process transport, that the handshake works on the wire, and that
//! the admin endpoint serves the liveness/readiness split.

use kg_aqp::{
    config_fingerprint, graph_fingerprint, AqpEngine, EngineConfig, FleetPolicy, ShardFleet,
    ShardServerCore, TcpTransport,
};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph, FRAME_MAGIC};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateSimilarity;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "shard-equivalence",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China", "Korea"])],
        29,
    ))
}

#[test]
fn tcp_fleet_round_trips_and_matches_in_process_execution() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let k = 2;
    let sharded = Arc::new(ShardedGraph::new(
        Arc::clone(&graph),
        &DegreeBalancedPartitioner,
        k,
    ));
    let config = EngineConfig {
        error_bound: 0.05,
        enumerate: false,
        ..EngineConfig::default()
    };
    let engine = AqpEngine::new(config.clone());
    let core = Arc::new(ShardServerCore::new(
        config,
        Arc::clone(&sharded),
        Arc::clone(&similarity),
    ));
    // Bind an ephemeral port; every shard routes to this one process.
    let listener = kg_shard::serve_protocol(core, "127.0.0.1:0").unwrap();
    let endpoint = listener.local_addr().to_string();
    let replicas = vec![vec![endpoint]; k];

    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let reference = engine.execute(&*sharded, &query, &d.oracle).unwrap();

    let fleet = Arc::new(ShardFleet::new(
        Arc::new(TcpTransport),
        replicas,
        FleetPolicy::default(),
    ));
    fleet
        .ping_all(
            graph_fingerprint(&sharded),
            config_fingerprint(engine.config()),
        )
        .unwrap();
    let mut session = AqpEngine::remote(engine.config().clone(), Arc::clone(&fleet))
        .open_session(&*sharded, &query, &d.oracle)
        .unwrap();
    let answer = session.refine_to(&sharded, &d.oracle, 0.05);
    assert!(!answer.is_degraded());
    assert_eq!(
        answer.estimate.to_bits(),
        reference.estimate.to_bits(),
        "TCP answer diverged from in-process"
    );
    assert_eq!(answer.moe.to_bits(), reference.moe.to_bits());
    assert_eq!(answer.sample_size, reference.sample_size);
}

/// A peer that sends garbage bytes gets its connection closed — the server
/// neither panics nor replies with a frame — and the listener keeps
/// serving well-formed peers afterwards.
#[test]
fn garbage_bytes_close_the_connection_without_killing_the_listener() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::single(Arc::clone(&graph)));
    let config = EngineConfig::default();
    let core = Arc::new(ShardServerCore::new(
        config.clone(),
        Arc::clone(&sharded),
        Arc::clone(&similarity),
    ));
    let listener = kg_shard::serve_protocol(core, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr();

    // Hostile peer: not a frame at all.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"\xDE\xAD\xBE\xEF definitely not a frame")
        .unwrap();
    stream.flush().unwrap();
    let mut buf = Vec::new();
    // Server closes without responding.
    let n = stream.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must not reply to garbage");
    drop(stream);

    // The listener still serves a well-formed handshake afterwards.
    let fleet = Arc::new(ShardFleet::new(
        Arc::new(TcpTransport),
        vec![vec![addr.to_string()]],
        FleetPolicy::default(),
    ));
    fleet
        .ping_all(graph_fingerprint(&sharded), config_fingerprint(&config))
        .unwrap();
}

/// A peer still speaking the retired JSON codec — a well-formed frame with
/// codec byte 0 around a JSON ping — is refused at the frame boundary: the
/// server closes that connection without a response, and the listener
/// answers a binary ping on a new connection afterwards.
#[test]
fn json_codec_frame_is_closed_and_the_listener_keeps_serving_binary() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::single(Arc::clone(&graph)));
    let config = EngineConfig::default();
    let core = Arc::new(ShardServerCore::new(
        config.clone(),
        Arc::clone(&sharded),
        Arc::clone(&similarity),
    ));
    let listener = kg_shard::serve_protocol(core, "127.0.0.1:0").unwrap();
    let addr = listener.local_addr();

    let ping = format!(
        r#"{{"config_fp":"{}","graph_fp":"{}","kind":"ping"}}"#,
        config_fingerprint(&config),
        graph_fingerprint(&sharded)
    );
    let mut frame = Vec::from(FRAME_MAGIC);
    frame.push(0);
    frame.extend_from_slice(&(ping.len() as u32).to_le_bytes());
    frame.extend_from_slice(ping.as_bytes());
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must not reply to a JSON-codec frame");
    drop(stream);

    let fleet = Arc::new(ShardFleet::new(
        Arc::new(TcpTransport),
        vec![vec![addr.to_string()]],
        FleetPolicy::default(),
    ));
    fleet
        .ping_all(graph_fingerprint(&sharded), config_fingerprint(&config))
        .unwrap();
}

#[test]
fn admin_endpoint_splits_liveness_from_readiness() {
    let ready = Arc::new(AtomicBool::new(false));
    let admin = kg_shard::serve_admin("127.0.0.1:0", Arc::clone(&ready)).unwrap();
    let addr = admin.local_addr();

    let get = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    };

    // Alive from the start; not ready until the flag flips.
    assert!(get("/livez").starts_with("HTTP/1.1 200"));
    assert!(get("/readyz").starts_with("HTTP/1.1 503"));
    assert!(get("/nope").starts_with("HTTP/1.1 404"));
    ready.store(true, Ordering::SeqCst);
    let response = get("/readyz");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains(r#"{"status":"ready"}"#));
}
