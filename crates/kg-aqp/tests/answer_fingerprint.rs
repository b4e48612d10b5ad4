//! Golden answers. The other equivalence suites compare one executor with
//! another, so a change to code they share can move every answer and still
//! pass them. This suite pins each executor's answers to a constant: an
//! FNV-1a digest over the `to_bits()` of every answer's estimate and moe,
//! every round's estimate, moe, sample size and correct size, and every
//! GROUP-BY bucket's key and value, over `shard_equivalence.rs`'s workload.
//!
//! One constant per executor, so a failure names the executor that moved.
//! A change that is meant to move answers re-pins the constants it moves and
//! says which. K = 1 runs the whole-graph executor and a fault-free remote
//! round is the in-process one, so two pairs of constants are equal.

use kg_aqp::{
    AqpEngine, EngineConfig, FaultPlan, FleetPolicy, InProcessTransport, QueryAnswer, ShardFleet,
    ShardServerCore,
};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateSimilarity;
use kg_query::{
    AggregateFunction, AggregateQuery, ChainHop, ChainQuery, ComplexQuery, Filter, GroupBy,
    SimpleQuery,
};
use std::collections::HashMap;
use std::sync::Arc;

const WHOLE: u64 = 0xe60c_1d24_154e_d39b;
const LOCAL_K1: u64 = 0xe60c_1d24_154e_d39b;
const LOCAL_K2: u64 = 0xb937_df9f_c15b_5722;
const LOCAL_K4: u64 = 0xa6d8_459b_ba98_7b39;
const REMOTE_K2: u64 = 0xb937_df9f_c15b_5722;
const RESUMED: u64 = 0xe382_21a0_538d_23b8;
const STEPPED: u64 = 0xbcae_d409_48d2_8209;

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

const ERROR_BOUND: f64 = 0.05;

fn config() -> EngineConfig {
    EngineConfig {
        error_bound: ERROR_BOUND,
        enumerate: false,
        ..EngineConfig::default()
    }
}

fn sharded(d: &kg_datagen::GeneratedDataset, k: usize) -> Arc<ShardedGraph> {
    let graph = Arc::new(d.graph.clone());
    Arc::new(ShardedGraph::new(graph, &DegreeBalancedPartitioner, k))
}

/// FNV-1a over the little-endian bytes of the pinned fields.
fn fingerprint(answers: &[QueryAnswer]) -> u64 {
    let mut words = Vec::new();
    for answer in answers {
        words.extend([answer.estimate.to_bits(), answer.moe.to_bits()]);
        for round in &answer.rounds {
            words.extend([
                round.estimate.to_bits(),
                round.moe.to_bits(),
                round.sample_size as u64,
                round.correct_size as u64,
            ]);
        }
        for (key, value) in &answer.groups {
            words.extend([*key as u64, value.to_bits()]);
        }
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|word| word.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn assert_pinned(executor: &str, answers: &[QueryAnswer], pinned: u64) {
    let got = fingerprint(answers);
    assert_eq!(got, pinned, "{executor}: answers moved (got {got:#018x})");
}

#[test]
fn whole_graph_answers_are_pinned() {
    let d = dataset();
    let engine = AqpEngine::new(config());
    let answers: Vec<QueryAnswer> = workload()
        .iter()
        .map(|q| engine.execute(&d.graph, q, &d.oracle).unwrap())
        .collect();
    assert_pinned("whole", &answers, WHOLE);
}

fn local(k: usize) -> Vec<QueryAnswer> {
    let d = dataset();
    let sharded = sharded(&d, k);
    let engine = AqpEngine::new(config());
    workload()
        .iter()
        .map(|q| engine.execute(&*sharded, q, &d.oracle).unwrap())
        .collect()
}

#[test]
fn in_process_answers_are_pinned_at_k1() {
    assert_pinned("local K=1", &local(1), LOCAL_K1);
}

#[test]
fn in_process_answers_are_pinned_at_k2() {
    assert_pinned("local K=2", &local(2), LOCAL_K2);
}

#[test]
fn in_process_answers_are_pinned_at_k4() {
    assert_pinned("local K=4", &local(4), LOCAL_K4);
}

#[test]
fn remote_answers_are_pinned_at_k2() {
    let d = dataset();
    let sharded = sharded(&d, 2);
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let core = Arc::new(ShardServerCore::new(
        config(),
        Arc::clone(&sharded),
        similarity,
    ));
    let endpoints = HashMap::from([("proc0".to_string(), core)]);
    let transport = InProcessTransport::new(endpoints, Arc::new(FaultPlan::new()));
    let fleet = Arc::new(ShardFleet::new(
        Arc::new(transport),
        vec![vec!["proc0".to_string()]; 2],
        FleetPolicy::default(),
    ));
    let engine = AqpEngine::remote(config(), fleet);
    let answers: Vec<QueryAnswer> = workload()
        .iter()
        .map(|q| {
            let mut session = engine.open_session(&*sharded, q, &d.oracle).unwrap();
            session.refine_to(&sharded, &d.oracle, ERROR_BOUND)
        })
        .collect();
    assert_pinned("remote K=2", &answers, REMOTE_K2);
}

/// A whole-graph session refined to 0.10, then resumed to 0.05: both
/// answers count.
#[test]
fn resumed_answers_are_pinned() {
    let d = dataset();
    let engine = AqpEngine::new(config());
    let mut answers = Vec::new();
    for query in &workload() {
        let mut session = engine.open_session(&d.graph, query, &d.oracle).unwrap();
        answers.push(session.refine_to(&d.graph, &d.oracle, 0.10));
        answers.push(session.refine_to(&d.graph, &d.oracle, ERROR_BOUND));
    }
    assert_pinned("resumed", &answers, RESUMED);
}

/// An in-process K = 2 session stepped twice, then snapshotted.
#[test]
fn stepped_answers_are_pinned() {
    let d = dataset();
    let sharded = sharded(&d, 2);
    let engine = AqpEngine::new(config());
    let answers: Vec<QueryAnswer> = workload()
        .iter()
        .map(|query| {
            let mut session = engine.open_session(&*sharded, query, &d.oracle).unwrap();
            for _ in 0..2 {
                session.step_with(&sharded, &d.oracle, ERROR_BOUND, 0.95);
            }
            session.snapshot_answer(&sharded)
        })
        .collect();
    assert_pinned("stepped", &answers, STEPPED);
}
