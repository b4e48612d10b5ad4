//! `kg-shard`: serve shard stratum work behind the framed shard protocol.
//!
//! ```text
//! kg-shard [--listen 127.0.0.1:7979] [--admin 127.0.0.1:7980]
//!          [--shards K] [--seed 42] [--snapshot PATH]
//!          [--error-bound 0.01] [--confidence 0.95]
//! ```
//!
//! Boots from a `kg-snap` snapshot (`--snapshot`, millisecond cold start)
//! or regenerates the DBpedia-like tiny dataset for `--seed`; partitions it
//! exactly as the coordinator does (degree-balanced, K = `--shards`), and
//! serves every shard's stratum work on `--listen`. The coordinator checks
//! graph and engine fingerprints at handshake, so a mismatched seed, shard
//! count, error bound or confidence is rejected loudly instead of skewing
//! answers silently.
//!
//! `--admin` (optional) serves `GET /livez` (alive from the moment the
//! socket binds) and `GET /readyz` (503 until the graph is loaded,
//! partitioned and the shard core registered — only then may a coordinator
//! route work here).
//!
//! Prints one `kg-shard listening on …` line once ready, then serves until
//! killed. A bad `--snapshot` path exits 1 with one structured JSON line
//! on stderr naming the path and the failing section.

use kg_aqp::{config_fingerprint, graph_fingerprint, EngineConfig, ShardServerCore};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{generate, profiles, DatasetScale};
use kg_embed::PredicateSimilarity;
use kg_shard::{serve_admin, serve_protocol};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: kg-shard [--listen HOST:PORT] [--admin HOST:PORT] \
             [--shards K] [--seed N] [--snapshot PATH] \
             [--error-bound EB] [--confidence C]"
        );
        return;
    }
    let listen: String = parse_flag(&args, "--listen", "127.0.0.1:7979".to_string());
    let admin: String = parse_flag(&args, "--admin", String::new());
    let shards: usize = parse_flag(&args, "--shards", 1).max(1);
    let seed: u64 = parse_flag(&args, "--seed", 42);
    let snapshot_path: String = parse_flag(&args, "--snapshot", String::new());
    let error_bound: f64 = parse_flag(&args, "--error-bound", 0.01);
    let confidence: f64 = parse_flag(&args, "--confidence", 0.95);

    kg_telemetry::enable();

    // Liveness comes up before the (potentially slow) load: a supervisor
    // can tell "still loading" from "dead", and readiness stays 503 until
    // the shard core is registered.
    let ready = Arc::new(AtomicBool::new(false));
    let admin_listener = if admin.is_empty() {
        None
    } else {
        match serve_admin(&admin, Arc::clone(&ready)) {
            Ok(listener) => Some(listener),
            Err(e) => {
                eprintln!("kg-shard: cannot bind admin endpoint {admin}: {e}");
                std::process::exit(1);
            }
        }
    };

    let (graph, similarity) = if snapshot_path.is_empty() {
        eprintln!("kg-shard: generating DBpedia-like dataset (tiny scale, seed {seed})…");
        let dataset = generate(&profiles::dbpedia_like(DatasetScale::tiny(), seed));
        (Arc::new(dataset.graph), Arc::new(dataset.oracle))
    } else {
        let t0 = std::time::Instant::now();
        let bundle = match kg_sampling::open_bundle(&snapshot_path) {
            Ok(bundle) => bundle,
            Err(e) => {
                eprintln!(
                    "kg-shard: {}",
                    kg_sampling::snapshot_boot_error(&snapshot_path, &e)
                );
                std::process::exit(1);
            }
        };
        let Some(similarity) = bundle.similarity else {
            eprintln!(
                "kg-shard: {}",
                kg_sampling::snapshot_boot_error(
                    &snapshot_path,
                    &kg_core::KgError::Snapshot {
                        section: "similarity".to_string(),
                        message: "section missing; rebuild with kg-snap build".to_string(),
                    },
                )
            );
            std::process::exit(1);
        };
        eprintln!(
            "kg-shard: loaded snapshot {snapshot_path} in {:.2} ms (format v{})",
            t0.elapsed().as_secs_f64() * 1e3,
            bundle.version,
        );
        (Arc::new(bundle.graph), Arc::new(similarity))
    };

    // Partition exactly as the coordinator's service does: the graph
    // fingerprint exchanged at handshake covers the per-shard entity and
    // edge counts, so any divergence here is caught before the first round.
    let sharded = Arc::new(if shards <= 1 {
        ShardedGraph::single(Arc::clone(&graph))
    } else {
        ShardedGraph::new(Arc::clone(&graph), &DegreeBalancedPartitioner, shards)
    });
    let config = EngineConfig {
        error_bound,
        confidence,
        ..EngineConfig::default()
    };
    let graph_fp = graph_fingerprint(&sharded);
    let config_fp = config_fingerprint(&config);
    let core = Arc::new(ShardServerCore::new(
        config,
        Arc::clone(&sharded),
        Arc::clone(&similarity) as Arc<dyn PredicateSimilarity + Send + Sync>,
    ));

    let listener = match serve_protocol(core, &listen) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("kg-shard: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    ready.store(true, Ordering::SeqCst);

    // The readiness line supervisors and the CI smoke job wait for.
    println!(
        "kg-shard listening on {} ({} entities, {shards} shard(s), \
         graph fp {graph_fp:016x}, config fp {config_fp:016x}{})",
        listener.local_addr(),
        graph.entity_count(),
        admin_listener.map_or(String::new(), |a| format!(
            ", admin http://{}",
            a.local_addr()
        )),
    );

    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
