//! `kg-serve`: stand up the query service over a generated dataset — or a
//! prebuilt binary snapshot — and expose it over HTTP/1.1 + JSON.
//!
//! ```text
//! kg-serve [--addr 127.0.0.1:7878] [--seed 42] [--workers 4]
//!          [--queue-capacity 256] [--drain-batch 16]
//!          [--error-bound 0.01] [--confidence 0.95] [--shards 1]
//!          [--tenant-weight 1.0] [--tenant-quota 256]
//!          [--tenant NAME=WEIGHT:QUOTA]... [--compact-threshold 4096]
//!          [--slow-query-ms MS] [--snapshot PATH] [--write-snapshot PATH]
//!          [--shard-endpoint SHARD=HOST:PORT[,HOST:PORT]]...
//!          [--request-timeout-ms 2000] [--hedge-after-ms 150]
//!          [--retry-budget 2]
//! ```
//!
//! Every flag takes a value. An unknown flag, a value that does not parse,
//! or a flag with no value exits with status 2 and one stderr line naming
//! the flag, before any data is generated.
//!
//! Repeatable `--shard-endpoint SHARD=HOST:PORT[,HOST:PORT]` flags switch
//! the process into **coordinator mode**: refinement rounds scatter to the
//! named `kg-shard` processes (comma-separated addresses are replicas of
//! the same shard, tried in order on failure) instead of in-process strata.
//! One flag per shard in `0..K` is required, with `--shards K`
//! matching. Boot handshakes every endpoint — retrying while the fleet
//! comes up — and verifies graph and config fingerprints before the
//! readiness line prints. `POST /v2/write` answers `501` in this mode.
//!
//! `--snapshot PATH` boots from a snapshot written by `kg-snap build` (or a
//! previous `--write-snapshot` run) instead of generating the dataset:
//! checksum-validated load of the graph (its CSR rebuilt from the stored
//! triples by one counting sort) and the predicate-similarity store — no
//! generation, no parse. The served answers are bitwise identical to a
//! generate boot of the same data. `--write-snapshot PATH` writes a
//! snapshot at boot and re-writes it on every compacting delta write, so
//! the next cold start can use `--snapshot`. Snapshot provenance (format version, load ms) and
//! the write counter appear on `/metrics.prom`.
//!
//! `--tenant-weight`/`--tenant-quota` set the default limits applied to any
//! tenant the service has not been told about; each repeatable
//! `--tenant NAME=WEIGHT:QUOTA` pins an explicit override (e.g.
//! `--tenant acme=2:8` gives `acme` twice the refinement rounds of a
//! weight-1 tenant and room for 8 queued deadline requests).
//!
//! `--slow-query-ms MS` logs one JSON line (tagged `"slow_query": true`,
//! with the request ID and full refinement trajectory) to stderr for every
//! completed request slower than the threshold; 0 (the default) disables
//! the log. Structured event recording (`kg-telemetry`) is switched on, so
//! spans and points land in the in-process ring buffer for trace-correlated
//! debugging.
//!
//! The dataset is the DBpedia-like synthetic profile at tiny scale, so a
//! client that generates the same profile with the same seed (`kg-load`
//! does) knows which entities and predicates resolve. Prints one
//! `kg-serve listening on http://…` line once the socket is bound, then
//! serves until killed.

mod cli;

use cli::Flags;
use kg_datagen::{generate, profiles, DatasetScale};
use kg_embed::PredicateVectorStore;
use kg_service::{HttpServer, RemoteTopology, Service, ServiceConfig};
use std::sync::Arc;

/// Every flag `kg-serve` understands; each takes one value.
const FLAGS: &[&str] = &[
    "--addr",
    "--seed",
    "--workers",
    "--queue-capacity",
    "--drain-batch",
    "--error-bound",
    "--confidence",
    "--shards",
    "--tenant-weight",
    "--tenant-quota",
    "--tenant",
    "--compact-threshold",
    "--slow-query-ms",
    "--snapshot",
    "--write-snapshot",
    "--shard-endpoint",
    "--request-timeout-ms",
    "--hedge-after-ms",
    "--retry-budget",
];

/// Parses one `NAME=WEIGHT:QUOTA` tenant override.
fn parse_tenant_spec(spec: &str) -> Option<(String, f64, usize)> {
    let (name, limits) = spec.split_once('=')?;
    let (weight, quota) = limits.split_once(':')?;
    Some((name.to_string(), weight.parse().ok()?, quota.parse().ok()?))
}

/// Parses one `SHARD=HOST:PORT[,HOST:PORT]` shard-endpoint spec into the
/// shard index and its replica endpoints (failover order as written).
fn parse_shard_endpoint(spec: &str) -> Option<(usize, Vec<String>)> {
    let (shard, endpoints) = spec.split_once('=')?;
    let replicas: Vec<String> = endpoints
        .split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(str::to_string)
        .collect();
    if replicas.is_empty() {
        return None;
    }
    Some((shard.trim().parse().ok()?, replicas))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: kg-serve [--addr HOST:PORT] [--seed N] [--workers N] \
             [--queue-capacity N] [--drain-batch N] [--error-bound EB] \
             [--confidence C] [--shards K] [--tenant-weight W] \
             [--tenant-quota N] [--tenant NAME=WEIGHT:QUOTA]... \
             [--compact-threshold N] [--slow-query-ms MS] \
             [--snapshot PATH] [--write-snapshot PATH] \
             [--shard-endpoint SHARD=HOST:PORT[,HOST:PORT]]... \
             [--request-timeout-ms MS] [--hedge-after-ms MS] \
             [--retry-budget N]"
        );
        return;
    }
    let flags = Flags::parse("kg-serve", &args, FLAGS, &[]);
    let addr: String = flags.get("--addr", "127.0.0.1:7878".to_string());
    let seed: u64 = flags.get("--seed", 42);
    let workers: usize = flags.get("--workers", 4);
    let queue_capacity: usize = flags.get("--queue-capacity", 256);
    let drain_batch: usize = flags.get("--drain-batch", 16);
    let error_bound: f64 = flags.get("--error-bound", 0.01);
    let confidence: f64 = flags.get("--confidence", 0.95);
    let shards: usize = flags.get("--shards", 1);
    let tenant_weight: f64 = flags.get("--tenant-weight", 1.0);
    let tenant_quota: usize = flags.get("--tenant-quota", 256);
    let compact_threshold: usize = flags.get("--compact-threshold", 4096);
    let slow_query_ms: f64 = flags.get("--slow-query-ms", 0.0);
    let snapshot_path: String = flags.get("--snapshot", String::new());
    let write_snapshot_path: String = flags.get("--write-snapshot", String::new());
    let request_timeout_ms: u64 = flags.get("--request-timeout-ms", 2000);
    let hedge_after_ms: u64 = flags.get("--hedge-after-ms", 150);
    let retry_budget: u32 = flags.get("--retry-budget", 2);

    // Collect the coordinator topology: one `--shard-endpoint` per shard,
    // each naming that shard's replicas in failover order.
    let mut shard_endpoints: Vec<Option<Vec<String>>> = vec![None; shards];
    for spec in flags.values("--shard-endpoint") {
        let Some((shard, replicas)) = parse_shard_endpoint(spec) else {
            flags.usage_error(&format!(
                "unparsable shard endpoint {spec:?} (want SHARD=HOST:PORT[,HOST:PORT])"
            ));
        };
        if shard >= shards {
            flags.usage_error(&format!(
                "--shard-endpoint {spec:?} names shard {shard}, but --shards is {shards}"
            ));
        }
        shard_endpoints[shard] = Some(replicas);
    }
    let remote_mode = shard_endpoints.iter().any(Option::is_some);
    let topology = if remote_mode {
        let mut replicas = Vec::with_capacity(shards);
        for (shard, endpoints) in shard_endpoints.into_iter().enumerate() {
            let Some(endpoints) = endpoints else {
                flags.usage_error(&format!(
                    "coordinator mode needs an endpoint for every shard; \
                     shard {shard} of {shards} has none"
                ));
            };
            replicas.push(endpoints);
        }
        Some(RemoteTopology {
            replicas,
            request_timeout_ms,
            hedge_after_ms,
            retry_budget,
        })
    } else {
        None
    };

    // Event recording is a bounded in-process ring buffer; the slow-query
    // log below works regardless of this flag.
    kg_telemetry::enable();

    let mut builder = ServiceConfig::builder()
        .error_bound(error_bound)
        .confidence(confidence)
        .queue_capacity(queue_capacity)
        .workers(workers.max(1))
        .drain_batch(drain_batch)
        .shards(shards)
        .default_tenant_limits(tenant_weight, tenant_quota)
        .compact_threshold(compact_threshold)
        .slow_query_ms(slow_query_ms);
    if let Some(topology) = topology {
        builder = builder.remote(topology);
    }
    for spec in flags.values("--tenant") {
        let Some((name, weight, quota)) = parse_tenant_spec(spec) else {
            flags.usage_error(&format!(
                "unparsable tenant spec {spec:?} (want NAME=WEIGHT:QUOTA)"
            ));
        };
        builder = builder.tenant(name, weight, quota);
    }
    let config = match builder.build() {
        Ok(config) => config,
        Err(e) => flags.usage_error(&format!("invalid configuration: {e}")),
    };

    // Either a millisecond cold start from a prebuilt snapshot, or the
    // generate-from-scratch path. Both yield the same graph for the same
    // seed, so clients (kg-load) cannot tell them apart.
    let (graph, oracle, loaded) = if snapshot_path.is_empty() {
        eprintln!("kg-serve: generating DBpedia-like dataset (tiny scale, seed {seed})…");
        let dataset = generate(&profiles::dbpedia_like(DatasetScale::tiny(), seed));
        (Arc::new(dataset.graph), Arc::new(dataset.oracle), None)
    } else {
        let t0 = std::time::Instant::now();
        let bundle = match kg_sampling::open_bundle(&snapshot_path) {
            Ok(bundle) => bundle,
            Err(e) => {
                // One structured line naming the path and the failing
                // section, so a crash-looping deployment is diagnosable
                // from its last log line alone.
                eprintln!(
                    "kg-serve: {}",
                    kg_sampling::snapshot_boot_error(&snapshot_path, &e)
                );
                std::process::exit(1);
            }
        };
        let load_ms = t0.elapsed().as_secs_f64() * 1e3;
        let Some(similarity) = bundle.similarity else {
            eprintln!(
                "kg-serve: {}",
                kg_sampling::snapshot_boot_error(
                    &snapshot_path,
                    &kg_core::KgError::Snapshot {
                        section: "similarity".into(),
                        message:
                            "snapshot has no similarity section; rebuild it with kg-snap build"
                                .into(),
                    },
                )
            );
            std::process::exit(1);
        };
        eprintln!(
            "kg-serve: loaded snapshot {snapshot_path} in {load_ms:.2} ms (format v{})",
            bundle.version,
        );
        (
            Arc::new(bundle.graph),
            Arc::new(similarity),
            Some((bundle.version, load_ms)),
        )
    };
    let entities = graph.entity_count();

    let service = Arc::new(Service::new(
        graph,
        Arc::clone(&oracle) as Arc<dyn kg_embed::PredicateSimilarity>,
        config,
    ));
    if let Some((version, load_ms)) = loaded {
        service.record_snapshot_load(version, load_ms);
    }
    // Bind before the remaining boot work: `/livez` (and `/healthz`) answer
    // 200 from here on while `/readyz` stays 503 until the boot snapshot
    // write and — in coordinator mode — the fleet handshake have both
    // completed.
    let server = match HttpServer::serve(Arc::clone(&service), addr.as_str()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("kg-serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    if !write_snapshot_path.is_empty() {
        service.enable_snapshot_writes(
            write_snapshot_path.as_str(),
            Arc::<PredicateVectorStore>::clone(&oracle),
        );
        match service.write_snapshot_now() {
            Ok(()) => eprintln!("kg-serve: wrote boot snapshot to {write_snapshot_path}"),
            Err(e) => {
                eprintln!("kg-serve: cannot write snapshot {write_snapshot_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if service.is_remote() {
        // The fleet usually boots alongside the coordinator, so retry the
        // handshake while the shard processes come up; a fingerprint
        // mismatch is permanent and exits immediately.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            match service.remote_handshake() {
                Ok(()) => break,
                Err(e) if e.contains("rejected") => {
                    eprintln!("kg-serve: shard fleet handshake failed: {e}");
                    std::process::exit(1);
                }
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        eprintln!("kg-serve: shard fleet never became reachable: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("kg-serve: waiting for shard fleet: {e}");
                    std::thread::sleep(std::time::Duration::from_millis(250));
                }
            }
        }
        eprintln!("kg-serve: shard fleet handshake ok ({shards} shard(s))");
    }
    service.mark_ready();
    // The readiness line the CI smoke job and the load driver wait for.
    println!(
        "kg-serve listening on http://{} ({} entities, {shards} shard(s){}, \
         eb {error_bound}, confidence {confidence})",
        server.local_addr(),
        entities,
        if service.is_remote() { ", remote" } else { "" },
    );

    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
