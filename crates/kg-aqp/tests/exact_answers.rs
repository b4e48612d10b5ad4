//! The exact outcome ([`EngineConfig::enumerate`], on by default): every
//! plan of the workload — the simple, star and cycle shapes with filters,
//! GROUP-BY and MAX/MIN, and the chains and flowers, whose hops carry only
//! validated anchors — is answered by enumerating its candidates, and that
//! answer is SSB's τ-GT bit for bit on the whole-graph, in-process K = 2 and
//! remote K = 2 executors. It is one round with margin of error 0 and no
//! draws, it never reaches a shard, and asking again at any bound or
//! confidence returns the same bits. The same holds on hand-built and
//! random graphs where the paper's greedy r-path validation would reject a
//! τ-relevant answer: the exact answer is SSB's by construction.

use kg_aqp::{
    AqpEngine, EngineConfig, FaultPlan, FleetPolicy, InProcessTransport, QueryAnswer,
    RemoteMetricsSnapshot, ShardFleet, ShardServerCore,
};
use kg_core::{DegreeBalancedPartitioner, GraphBuilder, KnowledgeGraph, ShardedGraph};
use kg_datagen::{
    build_workload, generate, profiles, DatasetScale, GeneratedDataset, WorkloadConfig,
    WorkloadQuery,
};
use kg_embed::oracle::oracle_store;
use kg_embed::{PredicateSimilarity, PredicateVectorStore};
use kg_query::{
    AggregateFunction, AggregateQuery, ChainHop, ChainQuery, ComplexQuery, GroundTruthConfig,
    GroupBy, QueryShape, SimpleQuery, SsbEngine,
};
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
    fleet_on(sharded, &d.oracle)
}

fn fleet_on(sharded: &Arc<ShardedGraph>, oracle: &PredicateVectorStore) -> Arc<ShardFleet> {
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(oracle.clone());
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
    // The plan's path walks are the exact match: estimation, not sampling.
    assert_eq!(answer.timings.sampling_ms, 0.0, "{label}");
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

/// `query` on `graph` is answered exactly on the whole-graph, in-process
/// K = 2 and remote K = 2 executors, with SSB's value and GROUP-BY buckets
/// bit for bit (τ and n from `config`). Returns SSB's value.
fn assert_ssb_on_graph(
    graph: &KnowledgeGraph,
    oracle: &PredicateVectorStore,
    config: &EngineConfig,
    query: &AggregateQuery,
) -> f64 {
    let ssb = SsbEngine::new(GroundTruthConfig {
        tau: config.tau,
        n_bound: config.n_bound,
        ..GroundTruthConfig::default()
    });
    let truth = ssb.evaluate(graph, query, oracle).unwrap();
    let sharded = Arc::new(ShardedGraph::new(
        Arc::new(graph.clone()),
        &DegreeBalancedPartitioner,
        K,
    ));
    let fleet = fleet_on(&sharded, oracle);
    let engine = AqpEngine::new(config.clone());
    let remote = AqpEngine::remote(config.clone(), Arc::clone(&fleet));
    let answers = [
        ("whole", engine.execute(graph, query, oracle)),
        ("local", engine.execute(&*sharded, query, oracle)),
        ("remote", remote.execute(&*sharded, query, oracle)),
    ];
    for (executor, answer) in answers {
        let label = format!("{query:?} on {executor}");
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
    assert_eq!(fleet.metrics().snapshot(), RemoteMetricsSnapshot::default());
    truth.value
}

/// Germany –product→ Y, and X reaches Germany over three Companies I0..I2
/// by `low` edges (0.3) and over one Company J by two `high` edges (0.95).
/// Each I also has 20 `product` edges to Persons, which raises its π: the
/// greedy π-ordered search of §IV-B2 finds the three weak paths first,
/// stops at r = 3 and rejects X, although its best path (0.95) clears τ.
#[test]
fn an_answer_greedy_validation_rejects_is_counted() {
    let mut b = GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    b.add_entity("Y", &["Automobile"]);
    b.add_entity("X", &["Automobile"]);
    b.add_edge_by_name("Germany", "product", "Y");
    for k in 0..3 {
        let company = format!("I{k}");
        b.add_entity(&company, &["Company"]);
        b.add_edge_by_name("X", "low", &company);
        b.add_edge_by_name(&company, "low", "Germany");
        for p in 0..20 {
            let person = format!("P{k}_{p}");
            b.add_entity(&person, &["Person"]);
            b.add_edge_by_name(&company, "product", &person);
        }
    }
    b.add_entity("J", &["Company"]);
    b.add_edge_by_name("X", "high", "J");
    b.add_edge_by_name("J", "high", "Germany");
    let graph = b.build();
    assert_eq!(graph.entity_count(), 67);
    let oracle = oracle_store(&[
        (graph.predicate_id("product").unwrap(), 0, 1.0),
        (graph.predicate_id("low").unwrap(), 0, 0.3),
        (graph.predicate_id("high").unwrap(), 0, 0.95),
    ]);
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let count = assert_ssb_on_graph(&graph, &oracle, &EngineConfig::default(), &query);
    assert_eq!(count, 2.0);
}

/// A small random graph: two Country hubs, Automobile targets (most with a
/// price), Company and Person intermediates, and random edges over four
/// predicates whose similarities to `p0` are random.
fn random_graph(
    targets: usize,
    intermediates: usize,
    edges: &[(usize, usize, usize)],
    affinities: (f64, f64, f64),
) -> (KnowledgeGraph, PredicateVectorStore) {
    let mut b = GraphBuilder::new();
    let mut ids = vec![
        b.add_entity("H0", &["Country"]),
        b.add_entity("H1", &["Country"]),
    ];
    for t in 0..targets {
        let car = b.add_entity(&format!("T{t}"), &["Automobile"]);
        if t % 4 != 3 {
            b.set_attribute(car, "price", 1_000.0 * (t * 7 % 11) as f64 + 0.1 * t as f64);
        }
        ids.push(car);
    }
    for i in 0..intermediates {
        let kind = if i % 2 == 0 { "Company" } else { "Person" };
        ids.push(b.add_entity(&format!("I{i}"), &[kind]));
    }
    // Every predicate is used, and both hubs answer something directly.
    b.add_edge(ids[0], "p0", ids[2]);
    b.add_edge(ids[1], "p1", ids[2 + targets]);
    b.add_edge(ids[2 + targets], "p2", ids[3 % ids.len()]);
    b.add_edge(ids[1], "p3", ids[ids.len() - 1]);
    let predicates = ["p0", "p1", "p2", "p3"];
    for &(s, o, p) in edges {
        let (s, o) = (ids[s % ids.len()], ids[o % ids.len()]);
        if s != o {
            b.add_edge(s, predicates[p % predicates.len()], o);
        }
    }
    let graph = b.build();
    let (a1, a2, a3) = affinities;
    let oracle = oracle_store(&[
        (graph.predicate_id("p0").unwrap(), 0, 1.0),
        (graph.predicate_id("p1").unwrap(), 0, a1),
        (graph.predicate_id("p2").unwrap(), 0, a2),
        (graph.predicate_id("p3").unwrap(), 0, a3),
    ]);
    (graph, oracle)
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Served exact answers — estimate and GROUP-BY buckets, over simple,
    /// star, chain and flower shapes — equal SSB's bit for bit on random
    /// graphs and predicate similarities, on every executor.
    #[test]
    fn random_graphs_are_answered_as_ssb_answers_them(
        (targets, intermediates) in (3usize..12, 2usize..10),
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0usize..4), 8..60),
        affinities in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
        tau in 0.3f64..0.95,
    ) {
        let (graph, oracle) = random_graph(targets, intermediates, &edges, affinities);
        let config = EngineConfig { tau, ..EngineConfig::default() };
        let de = SimpleQuery::new("H0", &["Country"], "p0", &["Automobile"]);
        let other = SimpleQuery::new("H1", &["Country"], "p0", &["Automobile"]);
        let chain = ChainQuery::new(
            "H1",
            &["Country"],
            vec![ChainHop::new("p1", &["Company"]), ChainHop::new("p0", &["Automobile"])],
        );
        let queries = [
            AggregateQuery::simple(de.clone(), AggregateFunction::Count),
            AggregateQuery::simple(de.clone(), AggregateFunction::Sum("price".into()))
                .with_group_by(GroupBy::new("price", 3_000.0)),
            AggregateQuery::complex(
                ComplexQuery::star(vec![de.clone(), other]),
                AggregateFunction::Avg("price".into()),
            ),
            AggregateQuery::complex(ComplexQuery::chain(chain.clone()), AggregateFunction::Count)
                .with_group_by(GroupBy::new("price", 5_000.0)),
            AggregateQuery::complex(
                ComplexQuery::flower(vec![
                    kg_query::QueryComponent::Simple(de),
                    kg_query::QueryComponent::Chain(chain),
                ]),
                AggregateFunction::Max("price".into()),
            ),
        ];
        for query in &queries {
            assert_ssb_on_graph(&graph, &oracle, &config, query);
        }
    }
}
