//! Boots the system under test inside this process: the graph parsed from
//! TSV text, a `Service` with one worker behind `HttpServer` on loopback
//! and, for `fresh_remote_k2`, two `kg-shard` protocol listeners the
//! service coordinates over TCP.

use crate::inputs::{Workload, CONFIDENCE, ERROR_BOUND, WRITES_PER_PASS};
use kg_aqp::ShardServerCore;
use kg_core::frame::{read_frame, write_frame};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_embed::{PredicateSimilarity, PredicateVectorStore};
use kg_service::{HttpServer, RemoteTopology, Service, ServiceConfig};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const REMOTE_SHARDS: usize = 2;

/// R4: nothing in the configuration depends on the wall clock. No hedging,
/// and an RPC timeout no loopback call comes near, so the fleet never
/// retries and request *i* gets the same bytes in every pass.
fn service_config(workload: Workload, endpoints: &[String]) -> ServiceConfig {
    let mut builder = ServiceConfig::builder()
        .error_bound(ERROR_BOUND)
        .confidence(CONFIDENCE)
        .workers(1)
        .compact_threshold(WRITES_PER_PASS);
    if workload == Workload::FreshRemoteK2 {
        builder = builder.shards(REMOTE_SHARDS).remote(RemoteTopology {
            replicas: endpoints.iter().map(|e| vec![e.clone()]).collect(),
            request_timeout_ms: 30_000,
            hedge_after_ms: 0,
            ..RemoteTopology::default()
        });
    }
    builder
        .build()
        .expect("the ledger's own configuration is valid")
}

/// The engine configuration every topology runs with.
pub fn engine_config() -> kg_aqp::EngineConfig {
    service_config(Workload::FreshK1, &[]).engine
}

pub struct Stack {
    pub service: Arc<Service>,
    http: HttpServer,
    /// The shard server behind both listeners (remote workload only).
    pub shard_core: Option<Arc<ShardServerCore>>,
    /// The listeners' addresses, one per shard.
    pub shard_endpoints: Vec<String>,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.http.shutdown();
        self.service.shutdown();
    }
}

/// TSV parse → graph build → (partition → shard listeners) →
/// `Service::new` → HTTP listener → handshake.
pub fn boot(workload: Workload, tsv: &[u8], oracle: &PredicateVectorStore) -> Stack {
    let graph = Arc::new(kg_core::loader::read_tsv(tsv).expect("the ledger wrote this TSV"));
    let (shard_core, shard_endpoints) = if workload == Workload::FreshRemoteK2 {
        let sharded = Arc::new(ShardedGraph::new(
            Arc::clone(&graph),
            &DegreeBalancedPartitioner,
            REMOTE_SHARDS,
        ));
        let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(oracle.clone());
        let core = Arc::new(ShardServerCore::new(engine_config(), sharded, similarity));
        let endpoints = (0..REMOTE_SHARDS)
            .map(|_| {
                kg_shard::serve_protocol(Arc::clone(&core), "127.0.0.1:0")
                    .expect("loopback bind")
                    .local_addr()
                    .to_string()
            })
            .collect();
        (Some(core), endpoints)
    } else {
        (None, Vec::new())
    };
    let (service, http) = coordinator(workload, graph, oracle, &shard_endpoints);
    Stack {
        service,
        http,
        shard_core,
        shard_endpoints,
    }
}

fn coordinator(
    workload: Workload,
    graph: Arc<kg_core::KnowledgeGraph>,
    oracle: &PredicateVectorStore,
    endpoints: &[String],
) -> (Arc<Service>, HttpServer) {
    let service = Arc::new(Service::new(
        graph,
        Arc::new(oracle.clone()),
        service_config(workload, endpoints),
    ));
    service.remote_handshake().expect("shard handshake");
    service.mark_ready();
    let http = HttpServer::serve(Arc::clone(&service), "127.0.0.1:0").expect("loopback bind");
    (service, http)
}

/// A second front for the same shard listeners that dials `proxies`
/// instead, so a traced pass can record every shard call without the
/// untraced pass paying for the extra hop.
pub fn boot_traced_front(
    stack: &Stack,
    tsv: &[u8],
    oracle: &PredicateVectorStore,
    proxies: &[String],
) -> Stack {
    let graph = Arc::new(kg_core::loader::read_tsv(tsv).expect("the ledger wrote this TSV"));
    let (service, http) = coordinator(Workload::FreshRemoteK2, graph, oracle, proxies);
    Stack {
        service,
        http,
        shard_core: stack.shard_core.clone(),
        shard_endpoints: stack.shard_endpoints.clone(),
    }
}

/// One shard call seen on the wire: when it ran, and the frames exchanged.
#[derive(Clone, Debug)]
pub struct ShardCall {
    pub shard: usize,
    pub start: Instant,
    pub end: Instant,
    pub codec: kg_core::frame::Codec,
    pub request: Vec<u8>,
    pub response_bytes: usize,
}

/// A recording hop in front of one shard listener: forwards each frame
/// pair unchanged and keeps the request payload and the call's interval.
pub struct ShardProxy {
    pub endpoint: String,
    pub calls: Arc<Mutex<Vec<ShardCall>>>,
}

impl ShardProxy {
    /// The accept loop lives until the process ends, like the listener it
    /// fronts.
    pub fn spawn(shard: usize, upstream: String) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
        let endpoint = listener.local_addr().expect("bound").to_string();
        let calls = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&calls);
        std::thread::spawn(move || {
            for client in listener.incoming().flatten() {
                let (sink, upstream) = (Arc::clone(&sink), upstream.clone());
                std::thread::spawn(move || {
                    // The fleet opens one connection per call; a failed
                    // relay closes it and surfaces as a counted retry.
                    let _ = relay(shard, client, &upstream, &sink);
                });
            }
        });
        Self { endpoint, calls }
    }
}

fn relay(
    shard: usize,
    mut client: TcpStream,
    upstream: &str,
    sink: &Mutex<Vec<ShardCall>>,
) -> Option<()> {
    let (codec, request) = read_frame(&mut client).ok()?;
    let start = Instant::now();
    let mut server = TcpStream::connect(upstream).ok()?;
    write_frame(&mut server, codec, &request).ok()?;
    server.flush().ok()?;
    let (reply_codec, response) = read_frame(&mut server).ok()?;
    write_frame(&mut client, reply_codec, &response).ok()?;
    client.flush().ok()?;
    sink.lock()
        .expect("no panic while recording")
        .push(ShardCall {
            shard,
            start,
            end: Instant::now(),
            codec,
            request,
            response_bytes: response.len(),
        });
    Some(())
}
