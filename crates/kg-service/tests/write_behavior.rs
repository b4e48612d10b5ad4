//! The write path through the live service: `/v2/write` delta writes are
//! component-scoped. A write evicts exactly the cached answers whose
//! footprint intersects it — answers on untouched components
//! keep serving from cache across writes, a post-write fresh execution is
//! bitwise the answer of a service built from scratch at the same logical
//! state (read-your-writes), and the per-component epoch counters
//! (`kg_write_epoch`) record which components churned. The interleaving property
//! test drives random write/query/compact schedules and checks both
//! invariants at every query step.
//!
//! "Bitwise a from-scratch service's" holds for exact answers (the default)
//! and for a service of one shard. A sampled answer (`enumerate: false`) at
//! K ≥ 2 runs on the strata `repartition_preserving` kept, where existing
//! entities stay on their shard; a from-scratch service partitions the
//! written graph by its new degrees, so the two can draw different strata.
//! The sampled tests below hold at K = 2 only because their graphs are
//! built so that both partitions agree.
//!
//! The two workloads live on **disconnected** components (disjoint
//! entities, predicates and types) — the regime where footprint
//! intersection is exact, see the caveat on `QueryFootprint`. The planning
//! cache is scoped by reach instead of names: a write keeps only the exact
//! walks whose n-ball it provably cannot reach and drops every sampler, so
//! the next plan after a write sees the write even on one connected graph,
//! where no name of the query is touched. The `reach_*` tests below drive
//! each way a write can reach a hop, and two that cannot.

use kg_aqp::EngineConfig;
use kg_core::{GraphBuilder, KnowledgeGraph};
use kg_embed::oracle::oracle_store;
use kg_embed::PredicateVectorStore;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_service::{
    QueryRequest, ServedFrom, Service, ServiceAnswer, ServiceConfig, WriteOp, WriteRequest,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const CARS: usize = 6;
const SHIPS: usize = 5;

/// Two disconnected clusters: Germany ─product→ cars, Japan ─builds→ ships.
/// Nothing — entity, predicate or type — is shared between them.
fn seed_builder() -> GraphBuilder {
    let mut b = GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    for i in 0..CARS {
        b.add_entity(&format!("car{i}"), &["Automobile"]);
        b.add_edge_by_name("Germany", "product", &format!("car{i}"));
    }
    b.add_entity("Japan", &["Island"]);
    for i in 0..SHIPS {
        b.add_entity(&format!("ship{i}"), &["Ship"]);
        b.add_edge_by_name("Japan", "builds", &format!("ship{i}"));
    }
    b
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

fn ship_query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Japan", &["Island"], "builds", &["Ship"]),
        AggregateFunction::Count,
    )
}

fn service_over(graph: KnowledgeGraph, shards: usize) -> Service {
    let oracle = oracle_for(&graph);
    Service::new(
        Arc::new(graph),
        Arc::new(oracle),
        ServiceConfig {
            workers: 0,
            shards,
            ..ServiceConfig::default()
        },
    )
}

/// Submit + drain + wait (the deterministic `workers: 0` pump).
fn exec(svc: &Service, query: AggregateQuery) -> ServiceAnswer {
    let pending = svc
        .submit(QueryRequest::new(query, 0.1, 0.95))
        .expect("admitted");
    while svc.drain_once() > 0 {}
    pending.wait().expect("answered")
}

fn answer_bits(a: &ServiceAnswer) -> (u64, u64) {
    (a.answer.estimate.to_bits(), a.answer.moe.to_bits())
}

/// A write to one component must not disturb the other: the untouched
/// component's cached answer keeps serving as a hit, exactly one answer
/// (the touched component's) is evicted, and only the touched predicate's
/// epoch moves. The touched component's fresh answer is bitwise a
/// from-scratch service's at both shard counts because it is exact; a
/// sampled answer at K ≥ 2 would run on the preserved partition and need
/// not be (see the module doc).
#[test]
fn write_evicts_only_the_intersecting_component() {
    for shards in [1usize, 2] {
        let svc = service_over(seed_builder().build(), shards);
        assert_eq!(exec(&svc, car_query()).served_from, ServedFrom::Fresh);
        assert_eq!(exec(&svc, ship_query()).served_from, ServedFrom::Fresh);
        assert_eq!(exec(&svc, car_query()).served_from, ServedFrom::CacheHit);
        let ship_before = exec(&svc, ship_query());
        assert_eq!(ship_before.served_from, ServedFrom::CacheHit);

        let outcome = svc
            .apply_write(WriteRequest::new(vec![
                WriteOp::UpsertEntity {
                    name: "ship_new".into(),
                    types: vec!["Ship".into()],
                },
                WriteOp::UpsertEdge {
                    subject: "Japan".into(),
                    predicate: "builds".into(),
                    object: "ship_new".into(),
                },
            ]))
            .expect("write applies");
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.edges_deleted, 0);
        assert!(!outcome.compacted);
        assert_eq!(outcome.delta_ops, 1);
        assert_eq!(outcome.epoch, 1);
        // Exactly the ship answer dies; the car entry — there were exactly
        // two — survives.
        assert_eq!(outcome.evicted_answers, 1);

        let metrics = svc.metrics();
        assert_eq!(metrics.writes, 1);
        assert_eq!(metrics.write_ops, 2);
        assert_eq!(metrics.compactions, 0);
        assert_eq!(metrics.delta_ops, 1);
        assert_eq!(metrics.component_epochs.get("builds"), Some(&1));
        assert_eq!(metrics.component_epochs.get("product"), None);

        // Untouched component: still a cache hit. Touched component: a
        // fresh execution that sees the write (read-your-writes), bitwise
        // what a from-scratch service at the same logical state computes.
        assert_eq!(exec(&svc, car_query()).served_from, ServedFrom::CacheHit);
        let ship_after = exec(&svc, ship_query());
        assert_eq!(ship_after.served_from, ServedFrom::Fresh);

        let mut replay = seed_builder();
        replay.add_entity("ship_new", &["Ship"]);
        replay.add_edge_by_name("Japan", "builds", "ship_new");
        let reference = service_over(replay.build(), shards);
        let ship_reference = exec(&reference, ship_query());
        assert_eq!(answer_bits(&ship_after), answer_bits(&ship_reference));
        assert_ne!(answer_bits(&ship_after), answer_bits(&ship_before));
        reference.shutdown();
        svc.shutdown();
    }
}

/// Explicitly requested compaction folds the overlay away without evicting
/// anything (empty footprint), and answers are unchanged bitwise across it.
#[test]
fn compaction_is_invisible_to_cached_answers() {
    let svc = service_over(seed_builder().build(), 1);
    svc.apply_write(WriteRequest::new(vec![WriteOp::UpsertEdge {
        subject: "Japan".into(),
        predicate: "builds".into(),
        object: "ship0".into(),
    }]))
    .expect("write applies");
    let car = exec(&svc, car_query());
    let ship = exec(&svc, ship_query());
    assert!(svc.metrics().delta_ops > 0);

    let outcome = svc
        .apply_write(WriteRequest::new(vec![]).with_compact())
        .expect("compaction applies");
    assert!(outcome.compacted);
    assert_eq!(outcome.delta_ops, 0);
    assert_eq!(outcome.evicted_answers, 0);
    assert_eq!(svc.metrics().delta_ops, 0);
    assert_eq!(svc.metrics().compactions, 1);

    // Both answers survived compaction and serve from cache, bitwise.
    let car_after = exec(&svc, car_query());
    let ship_after = exec(&svc, ship_query());
    assert_eq!(car_after.served_from, ServedFrom::CacheHit);
    assert_eq!(ship_after.served_from, ServedFrom::CacheHit);
    assert_eq!(answer_bits(&car_after), answer_bits(&car));
    assert_eq!(answer_bits(&ship_after), answer_bits(&ship));
    svc.shutdown();
}

/// One connected graph: Germany ─product→ 6 cars, CompA ─located→ Germany
/// and CompB ─makes→ 4 more cars, which lie outside Germany's 3-bounded
/// subgraph until CompA and CompB are linked. Both companies also own
/// plants, which makes them the two highest-degree entities before and
/// after that link: the degree-balanced partition puts one on each of two
/// shards first, the link raises both shard loads by one, and so the
/// partition of the written graph from scratch equals the one the live
/// service preserves.
fn connected_builder() -> GraphBuilder {
    let mut b = GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    for i in 0..6 {
        let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
        b.set_attribute(car, "price", 20_000.0 + 1_000.0 * i as f64);
        b.add_edge_by_name("Germany", "product", &format!("car{i}"));
    }
    b.add_entity("CompA", &["Company"]);
    b.add_edge_by_name("CompA", "located", "Germany");
    b.add_entity("CompB", &["Company"]);
    for i in 0..4 {
        let car = b.add_entity(&format!("made{i}"), &["Automobile"]);
        b.set_attribute(car, "price", 30_000.0 + 1_000.0 * i as f64);
        b.add_edge_by_name("CompB", "makes", &format!("made{i}"));
    }
    for (company, plants) in [("CompA", 8), ("CompB", 6)] {
        for i in 0..plants {
            let plant = format!("{company}_plant{i}");
            b.add_entity(&plant, &["Plant"]);
            b.add_edge_by_name(company, "owns", &plant);
        }
    }
    b
}

/// A service answering by Algorithm 2 (`enumerate: false`), so every fresh
/// plan prepares a sampler.
fn sampled_service_over(graph: KnowledgeGraph, shards: usize) -> Service {
    let oracle = oracle_store(&[
        (graph.predicate_id("product").unwrap(), 0, 1.0),
        (graph.predicate_id("located").unwrap(), 0, 0.9),
        (graph.predicate_id("makes").unwrap(), 0, 0.95),
    ]);
    Service::new(
        Arc::new(graph),
        Arc::new(oracle),
        ServiceConfig {
            engine: EngineConfig {
                enumerate: false,
                ..EngineConfig::default()
            },
            workers: 0,
            shards,
            ..ServiceConfig::default()
        },
    )
}

/// A prepared sampler's π depends on every edge of the mapping node's
/// n-bounded subgraph (Eq. 5–6). A write that links CompA to CompB names
/// none of the query's names (Germany, product, Country, Automobile), yet
/// pulls CompB's cars into Germany's ball. A query key the service has not
/// seen must be planned against the written graph: bitwise the answer of a
/// service built from scratch there, even though a SUM over the same
/// component was sampled before the write.
#[test]
fn a_write_inside_a_sampled_querys_ball_reaches_its_next_plan() {
    let germany_cars = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let sum = AggregateQuery::simple(germany_cars.clone(), AggregateFunction::Sum("price".into()));
    let count = AggregateQuery::simple(germany_cars, AggregateFunction::Count);
    for shards in [1usize, 2] {
        let svc = sampled_service_over(connected_builder().build(), shards);
        let before = exec(&svc, sum.clone());
        assert_eq!(before.served_from, ServedFrom::Fresh);
        assert!(before.answer.sample_size > 0, "{:?}", before.answer);
        svc.apply_write(WriteRequest::new(vec![WriteOp::UpsertEdge {
            subject: "CompA".into(),
            predicate: "partner".into(),
            object: "CompB".into(),
        }]))
        .expect("write applies");
        let after = exec(&svc, count.clone());
        assert_eq!(after.served_from, ServedFrom::Fresh);

        let mut replay = connected_builder();
        replay.add_edge_by_name("CompA", "partner", "CompB");
        let reference = sampled_service_over(replay.build(), shards);
        let expected = exec(&reference, count.clone());
        assert_eq!(
            answer_bits(&after),
            answer_bits(&expected),
            "shards {shards}"
        );
        assert_eq!(
            after.answer.candidate_count, expected.answer.candidate_count,
            "shards {shards}"
        );
        // The write is inside the ball: all ten cars are candidates.
        assert_eq!(after.answer.candidate_count, 10, "shards {shards}");
        reference.shutdown();
        svc.shutdown();
    }
}

/// The connected graph's service answering exactly (the default
/// `enumerate: true`), so every fresh plan walks its hops through the
/// graph epoch's planning cache.
fn exact_service_over(graph: KnowledgeGraph, shards: usize) -> Service {
    let oracle = oracle_store(&[
        (graph.predicate_id("product").unwrap(), 0, 1.0),
        (graph.predicate_id("located").unwrap(), 0, 0.9),
        (graph.predicate_id("makes").unwrap(), 0, 0.95),
    ]);
    Service::new(
        Arc::new(graph),
        Arc::new(oracle),
        ServiceConfig {
            workers: 0,
            shards,
            ..ServiceConfig::default()
        },
    )
}

/// An exact hop's answers depend on every edge of its n-ball, as a prepared
/// π does. COUNT walks Germany's product hop; the write `CompA –product→
/// made0` then adds the answer made0 (Germany ←located– CompA –product→
/// made0) to that hop. A SUM over the same component has a result-cache
/// key of its own, so it is planned: it must walk the written graph, not
/// reuse the walk COUNT made before the write, and equal a service built
/// from scratch there bit for bit.
#[test]
fn a_write_inside_an_exact_hops_ball_reaches_the_next_plan() {
    let germany_cars = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let count = AggregateQuery::simple(germany_cars.clone(), AggregateFunction::Count);
    let sum = AggregateQuery::simple(germany_cars, AggregateFunction::Sum("price".into()));
    for shards in [1usize, 2] {
        let svc = exact_service_over(connected_builder().build(), shards);
        let before = exec(&svc, count.clone());
        assert_eq!(before.answer.estimate, 6.0, "{:?}", before.answer);
        svc.apply_write(WriteRequest::new(vec![WriteOp::UpsertEdge {
            subject: "CompA".into(),
            predicate: "product".into(),
            object: "made0".into(),
        }]))
        .expect("write applies");
        let after = exec(&svc, sum.clone());
        assert_eq!(after.served_from, ServedFrom::Fresh);
        // The write started a new epoch: its first plan walked its hop.
        let walks = svc.metrics().walk_cache;
        assert_eq!((walks.hits, walks.misses), (0, 2), "shards {shards}");

        let mut replay = connected_builder();
        replay.add_edge_by_name("CompA", "product", "made0");
        let reference = exact_service_over(replay.build(), shards);
        let expected = exec(&reference, sum.clone());
        assert_eq!(
            answer_bits(&after),
            answer_bits(&expected),
            "shards {shards}"
        );
        assert_eq!(
            after.answer.candidate_count, expected.answer.candidate_count,
            "shards {shards}"
        );
        // Six cars of Germany and made0 at 30 000.
        let prices = (0..6).map(|i| 20_000.0 + 1_000.0 * i as f64).sum::<f64>();
        assert_eq!(after.answer.estimate, prices + 30_000.0, "shards {shards}");
        assert_eq!(after.answer.candidate_count, 7, "shards {shards}");
        reference.shutdown();
        svc.shutdown();
    }
}

/// Germany's cars on the connected graph: COUNT walks the hop, and SUM,
/// which has a result-cache key of its own, is planned after `write`. The
/// SUM must equal a from-scratch service over the graph `replay` builds,
/// bit for bit. Returns whether SUM walked the hop again, and the walks the
/// write kept and dropped.
fn sum_after_write(
    write: Vec<WriteOp>,
    replay: impl FnOnce(&mut GraphBuilder),
) -> (bool, (usize, usize)) {
    let germany_cars = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]);
    let count = AggregateQuery::simple(germany_cars.clone(), AggregateFunction::Count);
    let sum = AggregateQuery::simple(germany_cars, AggregateFunction::Sum("price".into()));
    let svc = exact_service_over(connected_builder().build(), 1);
    exec(&svc, count);
    svc.apply_write(WriteRequest::new(write))
        .expect("write applies");
    let before = svc.metrics().walk_cache;
    let after = exec(&svc, sum.clone());
    assert_eq!(after.served_from, ServedFrom::Fresh);
    let metrics = svc.metrics();
    assert_eq!(
        metrics.walk_cache.hits + metrics.walk_cache.misses,
        before.hits + before.misses + 1
    );
    let rewalked = metrics.walk_cache.misses > before.misses;

    let mut builder = connected_builder();
    replay(&mut builder);
    let reference = exact_service_over(builder.build(), 1);
    let expected = exec(&reference, sum);
    assert_eq!(answer_bits(&after), answer_bits(&expected));
    assert_eq!(
        after.answer.candidate_count,
        expected.answer.candidate_count
    );
    reference.shutdown();
    svc.shutdown();
    let carried = metrics.write_walks;
    (rewalked, (carried.kept, carried.dropped))
}

fn upsert_edge(subject: &str, predicate: &str, object: &str) -> WriteOp {
    WriteOp::UpsertEdge {
        subject: subject.into(),
        predicate: predicate.into(),
        object: object.into(),
    }
}

/// An inserted edge with a candidate on its far side: Germany ←located–
/// CompA –partner→ CompB –makes→ made0 is three edges long.
#[test]
fn reach_an_inserted_edge_with_a_candidate_on_the_far_side() {
    let write = vec![upsert_edge("CompA", "partner", "CompB")];
    let replay = |b: &mut GraphBuilder| {
        b.add_edge_by_name("CompA", "partner", "CompB");
    };
    assert_eq!(sum_after_write(write, replay), (true, (0, 1)));
}

/// A deleted edge on an admissible path: Germany –product→ car0.
#[test]
fn reach_a_deleted_edge_on_an_admissible_path() {
    let write = vec![WriteOp::DeleteEdge {
        subject: "Germany".into(),
        predicate: "product".into(),
        object: "car0".into(),
    }];
    let replay = |b: &mut GraphBuilder| {
        assert_eq!(b.remove_edge_by_name("Germany", "product", "car0"), 1);
    };
    assert_eq!(sum_after_write(write, replay), (true, (0, 1)));
}

/// A type upsert that makes a ball node a candidate: a plant two hops from
/// Germany becomes an Automobile.
#[test]
fn reach_a_type_upsert_that_makes_a_ball_node_a_candidate() {
    let write = vec![WriteOp::UpsertEntity {
        name: "CompA_plant0".into(),
        types: vec!["Automobile".into()],
    }];
    let replay = |b: &mut GraphBuilder| {
        b.add_entity("CompA_plant0", &["Automobile"]);
    };
    assert_eq!(sum_after_write(write, replay), (true, (0, 1)));
}

/// A type upsert on the anchor itself: a Company-typed Germany no longer
/// walks through the companies.
#[test]
fn reach_a_type_upsert_on_the_anchor() {
    let write = vec![WriteOp::UpsertEntity {
        name: "Germany".into(),
        types: vec!["Company".into()],
    }];
    let replay = |b: &mut GraphBuilder| {
        b.add_entity("Germany", &["Company"]);
    };
    assert_eq!(sum_after_write(write, replay), (true, (0, 1)));
}

/// A write outside the n-ball keeps the walk: CompB is not connected to
/// Germany, so a new car of CompB's changes nothing Germany's hop reads.
#[test]
fn a_far_write_keeps_the_walk() {
    let write = vec![
        WriteOp::UpsertEntity {
            name: "made_new".into(),
            types: vec!["Automobile".into()],
        },
        upsert_edge("CompB", "makes", "made_new"),
    ];
    let replay = |b: &mut GraphBuilder| {
        b.add_entity("made_new", &["Automobile"]);
        b.add_edge_by_name("CompB", "makes", "made_new");
    };
    assert_eq!(sum_after_write(write, replay), (false, (1, 0)));
}

/// A new untyped leaf on the anchor keeps the walk: the leaf is no
/// candidate, and a path on from it would pass through the anchor again.
#[test]
fn a_new_untyped_leaf_on_the_anchor_keeps_the_walk() {
    let write = vec![upsert_edge("Germany", "product", "leaf")];
    let replay = |b: &mut GraphBuilder| {
        b.add_edge_by_name("Germany", "product", "leaf");
    };
    assert_eq!(sum_after_write(write, replay), (false, (1, 0)));
}

/// One step of the interleaving schedule, decoded from a byte pair.
#[derive(Clone, Copy, Debug)]
enum Step {
    InsertCar(usize),
    InsertShip(usize),
    DeleteCar(usize),
    DeleteShip(usize),
    QueryCars,
    QueryShips,
    Compact,
}

fn decode(kind: u8, pick: u8) -> Step {
    match kind {
        0 | 1 => Step::InsertCar(pick as usize % (CARS + 2)),
        2 | 3 => Step::InsertShip(pick as usize % (SHIPS + 2)),
        4 => Step::DeleteCar(pick as usize % (CARS + 2)),
        5 => Step::DeleteShip(pick as usize % (SHIPS + 2)),
        6 | 7 => Step::QueryCars,
        8 => Step::QueryShips,
        _ => Step::Compact,
    }
}

/// Applies one write step to the live service and mirrors it into the
/// from-scratch replay builder (same op order, so interning matches).
fn apply_step(svc: &Service, replay: &mut GraphBuilder, step: Step) {
    let (subject, predicate, object, insert) = match step {
        Step::InsertCar(i) => ("Germany", "product", format!("car{i}"), true),
        Step::InsertShip(i) => ("Japan", "builds", format!("ship{i}"), true),
        Step::DeleteCar(i) => ("Germany", "product", format!("car{i}"), false),
        Step::DeleteShip(i) => ("Japan", "builds", format!("ship{i}"), false),
        Step::Compact => {
            let outcome = svc
                .apply_write(WriteRequest::new(vec![]).with_compact())
                .expect("compaction applies");
            assert!(outcome.compacted);
            return;
        }
        Step::QueryCars | Step::QueryShips => unreachable!("query steps handled by caller"),
    };
    if insert {
        svc.apply_write(WriteRequest::new(vec![WriteOp::UpsertEdge {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.clone(),
        }]))
        .expect("write applies");
        replay.add_edge_by_name(subject, predicate, &object);
    } else {
        let outcome = svc
            .apply_write(WriteRequest::new(vec![WriteOp::DeleteEdge {
                subject: subject.into(),
                predicate: predicate.into(),
                object: object.clone(),
            }]))
            .expect("write applies");
        let mirrored = replay.remove_edge_by_name(subject, predicate, &object);
        assert_eq!(outcome.edges_deleted, mirrored, "delete divergence");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential property: under a random interleaving of writes,
    /// queries and compactions, every query the live service answers is either
    ///
    /// * a **cache hit** — allowed only while the query's component epoch is
    ///   untouched since the answer was stored, and then bitwise the stored
    ///   bytes (never-stale), or
    /// * a **fresh execution** — bitwise the answer of a service built from
    ///   scratch over a graph replaying the same write schedule (the logical
    ///   state), which is read-your-writes and overlay/CSR equivalence in one.
    #[test]
    fn interleaved_writes_and_queries_match_a_from_scratch_service(
        steps in prop::collection::vec((0u8..10, 0u8..12), 1..20),
    ) {
        let svc = service_over(seed_builder().build(), 1);
        let mut replay = seed_builder();
        // Per predicate: (answer bits, component epoch when stored).
        let mut stored: BTreeMap<&str, ((u64, u64), u64)> = BTreeMap::new();
        let epoch_of = |svc: &Service, predicate: &str| -> u64 {
            svc.metrics()
                .component_epochs
                .get(predicate)
                .copied()
                .unwrap_or(0)
        };
        for &(kind, pick) in &steps {
            let step = decode(kind, pick);
            let (query, predicate) = match step {
                Step::QueryCars => (car_query(), "product"),
                Step::QueryShips => (ship_query(), "builds"),
                other => {
                    apply_step(&svc, &mut replay, other);
                    continue;
                }
            };
            let answer = exec(&svc, query.clone());
            let epoch = epoch_of(&svc, predicate);
            match answer.served_from {
                ServedFrom::CacheHit => {
                    let (bits, stored_epoch) = stored
                        .get(predicate)
                        .copied()
                        .expect("a hit needs a prior stored answer");
                    prop_assert_eq!(
                        epoch, stored_epoch,
                        "stale hit: {} epoch moved since the answer was cached", predicate
                    );
                    prop_assert_eq!(answer_bits(&answer), bits);
                }
                ServedFrom::Fresh => {
                    let reference = service_over(replay.clone().build(), 1);
                    let expected = exec(&reference, query);
                    reference.shutdown();
                    prop_assert_eq!(answer_bits(&answer), answer_bits(&expected));
                    stored.insert(predicate, (answer_bits(&answer), epoch));
                }
                other => prop_assert!(
                    false,
                    "fixed-target repeat queries must hit or run fresh, got {:?}",
                    other
                ),
            }
        }
        svc.shutdown();
    }
}

/// `/v2/write` over HTTP: the wire face of the same flow — write, observe
/// the outcome JSON, see the write reflected in a follow-up query and in
/// the `/metrics.prom` write counters and epochs.
#[test]
fn http_write_endpoint_applies_and_reports() {
    use kg_service::{http_request, HttpServer};
    use std::time::Duration;

    let graph = seed_builder().build();
    let oracle = oracle_for(&graph);
    let svc = Arc::new(Service::new(
        Arc::new(graph),
        Arc::new(oracle),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::serve(Arc::clone(&svc), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let timeout = Duration::from_secs(30);

    let body = r#"{"v": 2, "ops": [
        {"op": "upsert_entity", "name": "ship_new", "types": ["Ship"]},
        {"op": "upsert_edge", "subject": "Japan", "predicate": "builds", "object": "ship_new"},
        {"op": "delete_edge", "subject": "Japan", "predicate": "builds", "object": "ship0"}
    ]}"#;
    let (status, response) = http_request(addr, "POST", "/v2/write", body, timeout).expect("write");
    assert_eq!(status, 200, "unexpected write response: {response}");
    let outcome: serde_json::Value = serde_json::from_str(&response).expect("valid JSON");
    assert_eq!(outcome.get("applied").and_then(|v| v.as_f64()), Some(3.0));
    assert_eq!(
        outcome.get("edges_deleted").and_then(|v| v.as_f64()),
        Some(1.0)
    );
    assert_eq!(outcome.get("epoch").and_then(|v| v.as_f64()), Some(1.0));

    // Malformed op → 400 with the path pinned in the message.
    let (status, response) = http_request(
        addr,
        "POST",
        "/v2/write",
        r#"{"ops": [{"op": "upsert_edge", "subject": "Japan"}]}"#,
        timeout,
    )
    .expect("write");
    assert_eq!(status, 400);
    assert!(response.contains("write.ops[0]"), "got: {response}");

    // The write is visible to queries (+1 new ship, −1 deleted) and to the
    // write counters and component epochs on /metrics.prom.
    let request = QueryRequest::new(ship_query(), 0.1, 0.95);
    let body = serde_json::to_string(&request.to_json()).expect("total");
    let (status, response) = http_request(addr, "POST", "/query", &body, timeout).expect("query");
    assert_eq!(status, 200, "unexpected query response: {response}");

    let (status, text) = http_request(addr, "GET", "/metrics.prom", "", timeout).expect("metrics");
    assert_eq!(status, 200);
    let families = kg_telemetry::parse(&text).expect("valid exposition format");
    let sample = |name: &str, label: (&str, &str)| {
        families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| {
                f.samples
                    .iter()
                    .find(|s| s.labels == [(label.0.to_string(), label.1.to_string())])
            })
            .map(|s| s.value)
    };
    assert_eq!(sample("kg_writes_total", ("effect", "applied")), Some(1.0));
    assert_eq!(sample("kg_write_epoch", ("predicate", "builds")), Some(1.0));
    assert_eq!(sample("kg_write_epoch", ("predicate", "product")), None);

    drop(server);
    svc.shutdown();
}
