//! The exact outcome ([`EngineConfig::enumerate`], on by default): every
//! plan of the workload — the simple, star and cycle shapes with filters,
//! GROUP-BY and MAX/MIN, and the chains and flowers, whose hops carry only
//! validated anchors — is answered by enumerating its candidates, and that
//! answer is SSB's τ-GT bit for bit on the whole-graph, in-process K = 2 and
//! remote K = 2 executors. It is one round with margin of error 0 and no
//! draws, it never reaches a shard, and asking again at any bound or
//! confidence returns the same bits.

use kg_aqp::{
    AqpEngine, EngineConfig, FaultPlan, FleetPolicy, InProcessTransport, QueryAnswer,
    RemoteMetricsSnapshot, ShardFleet, ShardServerCore,
};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{
    build_workload, generate, profiles, DatasetScale, GeneratedDataset, WorkloadConfig,
    WorkloadQuery,
};
use kg_embed::PredicateSimilarity;
use kg_query::{GroundTruthConfig, QueryShape, SsbEngine};
use std::collections::HashMap;
use std::sync::Arc;

const K: usize = 2;

fn dataset() -> GeneratedDataset {
    generate(&profiles::dbpedia_like(DatasetScale::tiny(), 11))
}

fn single_edge(query: &WorkloadQuery) -> bool {
    matches!(
        query.shape,
        QueryShape::Simple | QueryShape::Star | QueryShape::Cycle
    )
}

/// The workload's queries of one kind, at least one of each shape in it.
fn workload(d: &GeneratedDataset, keep: impl Fn(&WorkloadQuery) -> bool) -> Vec<WorkloadQuery> {
    let queries: Vec<WorkloadQuery> = build_workload(d, &WorkloadConfig::default())
        .into_iter()
        .filter(|q| keep(q))
        .collect();
    assert!(!queries.is_empty());
    queries
}

fn sharded(d: &GeneratedDataset) -> Arc<ShardedGraph> {
    let graph = Arc::new(d.graph.clone());
    Arc::new(ShardedGraph::new(graph, &DegreeBalancedPartitioner, K))
}

/// A remote fleet of `K` strata served by one shard server in this process.
fn fleet(d: &GeneratedDataset, sharded: &Arc<ShardedGraph>) -> Arc<ShardFleet> {
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let core = ShardServerCore::new(EngineConfig::default(), Arc::clone(sharded), similarity);
    let endpoints = HashMap::from([("server".to_string(), Arc::new(core))]);
    let transport = InProcessTransport::new(endpoints, Arc::new(FaultPlan::new()));
    let replicas = vec![vec!["server".to_string()]; K];
    Arc::new(ShardFleet::new(
        Arc::new(transport),
        replicas,
        FleetPolicy::default(),
    ))
}

fn group_bits(answer: &QueryAnswer) -> Vec<(i64, u64)> {
    let groups = answer.groups.iter();
    groups.map(|(key, value)| (*key, value.to_bits())).collect()
}

fn assert_exact(label: &str, answer: &QueryAnswer) {
    assert_eq!(answer.moe, 0.0, "{label}");
    assert_eq!(answer.sample_size, 0, "{label}");
    assert!(answer.guarantee_met, "{label}");
    assert_eq!(answer.rounds.len(), 1, "{label}");
    assert_eq!(answer.rounds[0].sample_size, 0, "{label}");
    assert!(answer.missing_shards.is_empty(), "{label}");
}

/// Every query `keep` selects is answered exactly, and equal to SSB's τ-GT
/// bit for bit, on each executor. The coordinator planned every query on its
/// own copy of the graph and answered it there: no shard was ever called.
fn assert_ssb_bit_for_bit_on_every_executor(keep: impl Fn(&WorkloadQuery) -> bool) {
    let d = dataset();
    let config = EngineConfig::default();
    let ssb = SsbEngine::new(GroundTruthConfig {
        tau: config.tau,
        n_bound: config.n_bound,
        ..GroundTruthConfig::default()
    });
    let sharded = sharded(&d);
    let fleet = fleet(&d, &sharded);
    let engine = AqpEngine::new(config.clone());
    let remote = AqpEngine::remote(config, Arc::clone(&fleet));
    for query in workload(&d, keep) {
        let label = format!("{} ({})", query.id, query.shape);
        let truth = ssb.evaluate(&d.graph, &query.query, &d.oracle).unwrap();
        let answers = [
            ("whole", engine.execute(&d.graph, &query.query, &d.oracle)),
            ("local", engine.execute(&*sharded, &query.query, &d.oracle)),
            ("remote", remote.execute(&*sharded, &query.query, &d.oracle)),
        ];
        for (executor, answer) in answers {
            let label = format!("{label} on {executor}");
            let answer = answer.unwrap();
            assert_exact(&label, &answer);
            assert_eq!(answer.estimate.to_bits(), truth.value.to_bits(), "{label}");
            let truth_groups = truth.groups.iter().map(|(k, v)| (*k, v.to_bits()));
            assert_eq!(
                group_bits(&answer),
                truth_groups.collect::<Vec<_>>(),
                "{label}"
            );
        }
    }
    assert_eq!(fleet.metrics().snapshot(), RemoteMetricsSnapshot::default());
}

#[test]
fn single_edge_answers_are_ssb_bit_for_bit_on_every_executor() {
    assert_ssb_bit_for_bit_on_every_executor(single_edge);
}

/// A chain's hops carry only the anchors τ-GT carries, so chains and flowers
/// are answered exactly too.
#[test]
fn chain_and_flower_answers_are_ssb_bit_for_bit_on_every_executor() {
    assert_ssb_bit_for_bit_on_every_executor(|q| !single_edge(q));
}

#[test]
fn resuming_an_exact_session_keeps_its_bits() {
    let d = dataset();
    let sharded = sharded(&d);
    let engine = AqpEngine::new(EngineConfig::default());
    for query in workload(&d, single_edge) {
        let mut whole = engine
            .open_session(&d.graph, &query.query, &d.oracle)
            .unwrap();
        let mut local = engine
            .open_session(&*sharded, &query.query, &d.oracle)
            .unwrap();
        assert!(whole.is_exact() && local.is_exact(), "{}", query.id);
        let first = whole.refine_with(&d.graph, &d.oracle, 0.10, 0.95);
        let resumed = [
            whole.refine_with(&d.graph, &d.oracle, 0.01, 0.95),
            whole.refine_with(&d.graph, &d.oracle, 0.01, 0.99),
            local.refine_with(&sharded, &d.oracle, 0.10, 0.95),
            local.refine_with(&sharded, &d.oracle, 0.001, 0.99),
        ];
        for answer in &resumed {
            assert_exact(&query.id, answer);
            assert_eq!(answer.rounds, first.rounds, "{}", query.id);
            assert_eq!(group_bits(answer), group_bits(&first), "{}", query.id);
        }
        assert_eq!(resumed[1].confidence, 0.99);
        assert_eq!(whole.sample_size() + local.sample_size(), 0);
    }
}
