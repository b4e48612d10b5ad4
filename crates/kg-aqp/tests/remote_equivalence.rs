//! Distributed-execution equivalence anchors, extending
//! `shard_equivalence.rs` to the remote path:
//!
//! * **Fault-free remote ≡ in-process ≡ unsharded** — a coordinator
//!   scattering rounds to shard servers over the (in-process) transport
//!   produces answers bitwise-identical to `ShardedSession` over the same
//!   graph and seed, for K ∈ {1, 2, 4} and every workload shape; and K = 1
//!   remote is bitwise the unsharded engine.
//! * **Replay determinism** — re-running a query against warm servers
//!   (whose cached sessions are mid-trajectory from the first run) rebuilds
//!   and produces identical bytes.
//! * **Handshake** — fingerprint-matched fleets ping clean; a config
//!   mismatch is rejected with a structured error.

use kg_aqp::{
    config_fingerprint, graph_fingerprint, AqpEngine, EngineConfig, FaultPlan, FleetPolicy,
    InProcessTransport, QueryAnswer, ShardCallError, ShardFleet, ShardServerCore,
};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateSimilarity;
use kg_query::{
    AggregateFunction, AggregateQuery, ChainHop, ChainQuery, ComplexQuery, Filter,
    GroundTruthConfig, GroupBy, SimpleQuery, SsbEngine,
};
use std::collections::HashMap;
use std::sync::Arc;

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "shard-equivalence",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China", "Korea"])],
        29,
    ))
}

fn workload() -> Vec<AggregateQuery> {
    let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let cn = SimpleQuery::new("China", &["Country"], "product", &["Automobile"]);
    vec![
        AggregateQuery::simple(de.clone(), AggregateFunction::Count),
        AggregateQuery::simple(de.clone(), AggregateFunction::Avg("price".into())),
        AggregateQuery::simple(de.clone(), AggregateFunction::Sum("price".into()))
            .with_filter(Filter::range("price", 15_000.0, 60_000.0)),
        AggregateQuery::simple(de.clone(), AggregateFunction::Count)
            .with_group_by(GroupBy::new("price", 30_000.0)),
        AggregateQuery::simple(cn.clone(), AggregateFunction::Count),
        AggregateQuery::complex(
            ComplexQuery::chain(ChainQuery::new(
                "Germany",
                &["Country"],
                vec![
                    ChainHop::new("country", &["Company"]),
                    ChainHop::new("manufacturer", &["Automobile"]),
                ],
            )),
            AggregateFunction::Count,
        ),
        AggregateQuery::complex(ComplexQuery::star(vec![de, cn]), AggregateFunction::Count),
    ]
}

fn config(error_bound: f64) -> EngineConfig {
    EngineConfig {
        error_bound,
        ..EngineConfig::default()
    }
}

/// One "server process" per endpoint, all loading the identical graph —
/// the real deployment model, minus the sockets.
fn fleet_for(
    sharded: &Arc<ShardedGraph>,
    config: &EngineConfig,
    similarity: &Arc<dyn PredicateSimilarity + Send + Sync>,
) -> Arc<ShardFleet> {
    let core = Arc::new(ShardServerCore::new(
        config.clone(),
        Arc::clone(sharded),
        Arc::clone(similarity),
    ));
    let mut endpoints = HashMap::new();
    endpoints.insert("proc0".to_string(), core);
    let transport = Arc::new(InProcessTransport::new(
        endpoints,
        Arc::new(FaultPlan::new()),
    ));
    let replicas = vec![vec!["proc0".to_string()]; sharded.shard_count()];
    Arc::new(ShardFleet::new(transport, replicas, FleetPolicy::default()))
}

fn assert_bitwise_eq(reference: &QueryAnswer, candidate: &QueryAnswer, context: &str) {
    assert_eq!(
        reference.estimate.to_bits(),
        candidate.estimate.to_bits(),
        "{context}: estimate"
    );
    assert_eq!(
        reference.moe.to_bits(),
        candidate.moe.to_bits(),
        "{context}: moe"
    );
    assert_eq!(
        reference.guarantee_met, candidate.guarantee_met,
        "{context}: guarantee_met"
    );
    assert_eq!(
        reference.sample_size, candidate.sample_size,
        "{context}: sample_size"
    );
    assert_eq!(
        reference.candidate_count, candidate.candidate_count,
        "{context}: candidate_count"
    );
    assert_eq!(
        reference.rounds.len(),
        candidate.rounds.len(),
        "{context}: rounds"
    );
    for (a, b) in reference.rounds.iter().zip(&candidate.rounds) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{context}");
        assert_eq!(a.moe.to_bits(), b.moe.to_bits(), "{context}");
        assert_eq!(a.sample_size, b.sample_size, "{context}");
        assert_eq!(a.correct_size, b.correct_size, "{context}");
    }
    assert_eq!(
        reference.groups.len(),
        candidate.groups.len(),
        "{context}: groups"
    );
    for (key, value) in &reference.groups {
        assert_eq!(
            value.to_bits(),
            candidate.groups[key].to_bits(),
            "{context}: group {key}"
        );
    }
}

/// The core anchor: for K ∈ {2, 4}, the remote session over fingerprint
/// -matched shard servers produces bitwise the in-process sharded answers
/// (which sit on the equivalence chain to the unsharded engine pinned in
/// `shard_equivalence.rs`). K = 1 is covered separately: the remote
/// path always runs the stratified estimator (a single stratum when
/// K = 1), whereas the in-process K = 1 session is the unsharded BLB
/// engine, so its anchor is determinism + accuracy, not bitwise identity.
#[test]
fn fault_free_remote_execution_is_bitwise_identical_to_in_process() {
    let d = dataset();
    let queries = workload();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let error_bound = 0.05;

    for k in [2usize, 4] {
        let sharded = Arc::new(ShardedGraph::new(
            Arc::clone(&graph),
            &DegreeBalancedPartitioner,
            k,
        ));
        let engine = AqpEngine::new(config(error_bound));
        let in_process: Vec<QueryAnswer> = queries
            .iter()
            .map(|q| engine.execute_sharded(&sharded, q, &d.oracle).unwrap())
            .collect();

        let fleet = fleet_for(&sharded, engine.config(), &similarity);
        fleet
            .ping_all(
                graph_fingerprint(&sharded),
                config_fingerprint(engine.config()),
            )
            .unwrap();
        for (query, reference) in queries.iter().zip(&in_process) {
            let mut session = engine
                .open_remote_session(&sharded, query, &d.oracle, Arc::clone(&fleet))
                .unwrap();
            let answer = session.refine_to(&sharded, &d.oracle, error_bound);
            assert!(!answer.is_degraded(), "K={k}: fault-free degraded");
            assert_bitwise_eq(reference, &answer, &format!("K={k} {query:?}"));
        }
        let metrics = fleet.metrics().snapshot();
        assert_eq!(metrics.retries, 0, "K={k}");
        assert_eq!(metrics.degraded_rounds, 0, "K={k}");
    }
}

/// K = 1 remote execution: bitwise-deterministic across independent fleets
/// (fresh server processes), and the guaranteed aggregates hit the planted
/// SSB ground truth within the requested bound.
#[test]
fn single_shard_remote_execution_is_deterministic_and_accurate() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::new(
        Arc::clone(&graph),
        &DegreeBalancedPartitioner,
        1,
    ));
    let error_bound = 0.10;
    let engine = AqpEngine::new(config(error_bound));
    let ssb = SsbEngine::new(GroundTruthConfig::default());
    let de = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let queries = [
        AggregateQuery::simple(de.clone(), AggregateFunction::Count),
        AggregateQuery::simple(de.clone(), AggregateFunction::Sum("price".into())),
        AggregateQuery::simple(de, AggregateFunction::Avg("price".into())),
    ];

    let run_all = |fleet: &Arc<ShardFleet>| -> Vec<QueryAnswer> {
        queries
            .iter()
            .map(|q| {
                let mut session = engine
                    .open_remote_session(&sharded, q, &d.oracle, Arc::clone(fleet))
                    .unwrap();
                session.refine_to(&sharded, &d.oracle, error_bound)
            })
            .collect()
    };
    let first = run_all(&fleet_for(&sharded, engine.config(), &similarity));
    let second = run_all(&fleet_for(&sharded, engine.config(), &similarity));
    for ((query, a), b) in queries.iter().zip(&first).zip(&second) {
        assert_bitwise_eq(a, b, &format!("K=1 fleets {query:?}"));
        assert!(a.guarantee_met, "K=1: guarantee unmet for {query:?}");
        let truth = ssb.evaluate(&d.graph, query, &d.oracle).unwrap().value;
        assert!(truth > 0.0);
        let rel = a.relative_error(truth);
        assert!(
            rel <= error_bound,
            "K=1: estimate {} vs truth {truth} (rel {rel:.4}) for {query:?}",
            a.estimate
        );
    }
}

/// Warm servers mid-trajectory from a previous run of the same query must
/// rebuild and serve the identical bytes when a fresh coordinator session
/// starts over.
#[test]
fn rerunning_a_query_against_warm_servers_is_deterministic() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::new(
        Arc::clone(&graph),
        &DegreeBalancedPartitioner,
        3,
    ));
    let engine = AqpEngine::new(config(0.05));
    let fleet = fleet_for(&sharded, engine.config(), &similarity);
    let query = &workload()[0];

    let run = |bound: f64| {
        let mut session = engine
            .open_remote_session(&sharded, query, &d.oracle, Arc::clone(&fleet))
            .unwrap();
        session.refine_to(&sharded, &d.oracle, bound)
    };
    let first = run(0.05);
    // Interleave a different refinement depth so the server state is *off*
    // the first run's trajectory, then repeat the original run.
    let _ = run(0.50);
    let second = run(0.05);
    assert_bitwise_eq(&first, &second, "warm rerun");
}

/// A coordinator whose engine config differs from the servers' is refused
/// at handshake with a structured mismatch error, not silently divergent
/// answers.
#[test]
fn fingerprint_mismatch_is_rejected_at_handshake() {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::new(
        Arc::clone(&graph),
        &DegreeBalancedPartitioner,
        2,
    ));
    let server_config = config(0.05);
    let fleet = fleet_for(&sharded, &server_config, &similarity);

    let mismatched = EngineConfig {
        seed: server_config.seed ^ 1,
        ..server_config.clone()
    };
    let err = fleet
        .ping_all(graph_fingerprint(&sharded), config_fingerprint(&mismatched))
        .unwrap_err();
    match err {
        ShardCallError::Rejected { code, .. } => assert_eq!(code, "mismatch"),
        other => panic!("expected rejection, got {other}"),
    }
    // The matched handshake still succeeds on the same fleet.
    fleet
        .ping_all(
            graph_fingerprint(&sharded),
            config_fingerprint(&server_config),
        )
        .unwrap();
}
