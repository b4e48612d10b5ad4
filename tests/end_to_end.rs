//! Cross-crate integration tests: datagen → embedding → sampling → engine,
//! checked against both τ-GT (SSB) and the planted HA-GT.

use kg_aqp::prelude::*;
use kg_datagen::{build_workload, WorkloadConfig};
use kg_query::{GroundTruthConfig, QueryShape, SsbEngine};

fn dataset() -> kg_datagen::GeneratedDataset {
    kg_aqp_suite::demo_dataset()
}

#[test]
fn engine_tracks_tau_ground_truth_on_simple_count() {
    let d = dataset();
    let engine = AqpEngine::new(EngineConfig {
        error_bound: 0.05,
        enumerate: false,
        ..EngineConfig::default()
    });
    let ssb = SsbEngine::new(GroundTruthConfig::default());
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let approx = engine.execute(&d.graph, &query, &d.oracle).unwrap();
    let exact = ssb.evaluate(&d.graph, &query, &d.oracle).unwrap();
    assert!(exact.value > 0.0);
    assert!(
        approx.relative_error(exact.value) < 0.25,
        "estimate {} vs exact {}",
        approx.estimate,
        exact.value
    );
    // Pathology guard, not a benchmark: wall-clock comparisons flake on
    // loaded CI runners, and at tiny scale exhaustive SSB is cheap anyway
    // (constant factors dominate; the asymptotic speed-up of Table VIII is
    // measured in kg-bench). The generous ceiling only catches the engine
    // accidentally doing exhaustive work inside its sampling loop.
    assert!(
        approx.elapsed_ms <= exact.elapsed_ms * 20.0 + 2_000.0,
        "engine {}ms vs SSB {}ms",
        approx.elapsed_ms,
        exact.elapsed_ms
    );
    // The work-based invariants hold regardless of machine load.
    assert!(approx.sample_size > 0);
    assert!(!approx.rounds.is_empty());
}

#[test]
fn engine_tracks_planted_human_annotation_on_avg() {
    let d = dataset();
    let workload = build_workload(&d, &WorkloadConfig::default());
    let engine = AqpEngine::new(EngineConfig {
        error_bound: 0.05,
        ..EngineConfig::default()
    });
    let q = workload
        .iter()
        .find(|q| {
            q.shape == QueryShape::Simple
                && q.domain == "automotive"
                && q.query.function.name() == "AVG"
                && q.query.filters.is_empty()
                && q.query.group_by.is_none()
        })
        .expect("workload contains a plain AVG query");
    let ha = q.ha_value(&d);
    let approx = engine.execute(&d.graph, &q.query, &d.oracle).unwrap();
    assert!(ha > 0.0);
    assert!(
        approx.relative_error(ha) < 0.2,
        "estimate {} vs HA {}",
        approx.estimate,
        ha
    );
}

#[test]
fn trained_transe_embedding_supports_the_engine() {
    let d = dataset();
    let trained = kg_embed::train(
        &d.graph,
        EmbeddingModelKind::TransE,
        &TrainerConfig {
            dimension: 24,
            epochs: 15,
            ..TrainerConfig::default()
        },
    );
    let engine = AqpEngine::new(EngineConfig {
        error_bound: 0.05,
        ..EngineConfig::default()
    });
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    );
    let answer = engine.execute(&d.graph, &query, &trained.store).unwrap();
    assert!(answer.estimate > 0.0);
}

#[test]
fn every_workload_shape_executes() {
    let d = dataset();
    let workload = build_workload(
        &d,
        &WorkloadConfig {
            queries_per_shape: 2,
            include_operator_variants: true,
        },
    );
    let engine = AqpEngine::new(EngineConfig {
        error_bound: 0.10,
        ..EngineConfig::default()
    });
    for shape in QueryShape::all() {
        let q = workload.iter().find(|q| q.shape == shape).unwrap();
        let answer = engine.execute(&d.graph, &q.query, &d.oracle).unwrap();
        assert!(
            answer.estimate.is_finite(),
            "{shape} produced a non-finite estimate"
        );
    }
}

#[test]
fn graph_roundtrips_through_tsv() {
    let d = dataset();
    let dir = std::env::temp_dir().join("kg_aqp_suite_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.tsv");
    kg_core::save_tsv(&d.graph, &path).unwrap();
    let loaded = kg_core::load_tsv(&path).unwrap();
    assert_eq!(loaded.entity_count(), d.graph.entity_count());
    assert_eq!(loaded.edge_count(), d.graph.edge_count());
    std::fs::remove_file(path).ok();
}
