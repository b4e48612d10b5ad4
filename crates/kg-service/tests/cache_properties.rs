//! Property tests for the confidence-aware cache-reuse rule.
//!
//! Two families:
//!
//! * **Dominance soundness** (pure, many cases): whenever [`dominates`]
//!   accepts a cached answer for a request's targets, that answer really
//!   satisfies the requested error bound at at-least the requested
//!   confidence — and dominance is monotone (looser targets stay
//!   dominated).
//! * **Reuse through the live service** (engine-backed, fewer cases): a
//!   cached estimate is served *only* when it dominates, and a
//!   refinement-resume never returns a wider CI than a fresh run at the
//!   same targets (either the resumed interval is no wider than the fresh
//!   one, or both already sit inside the requested bound).

use kg_aqp::{EngineConfig, QueryAnswer};
use kg_datagen::{domains, generate, DatasetScale, GeneratedDataset, GeneratorConfig};
use kg_estimate::satisfies_error_bound;
use kg_query::{AggregateFunction, AggregateQuery, SimpleQuery};
use kg_service::{dominates, QueryRequest, ServedFrom, Service, ServiceConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

fn dataset() -> &'static GeneratedDataset {
    static DATASET: OnceLock<GeneratedDataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        generate(&GeneratorConfig::new(
            "cache-props",
            DatasetScale::tiny(),
            vec![domains::automotive(&["Germany", "China"])],
            41,
        ))
    })
}

fn count_query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
}

fn service() -> Service {
    let d = dataset();
    Service::new(
        Arc::new(d.graph.clone()),
        Arc::new(d.oracle.clone()),
        ServiceConfig {
            engine: EngineConfig {
                error_bound: 0.05,
                enumerate: false,
                ..EngineConfig::default()
            },
            queue_capacity: 16,
            workers: 1,
            ..ServiceConfig::default()
        },
    )
}

fn synthetic_answer(estimate: f64, moe: f64, confidence: f64, guarantee_met: bool) -> QueryAnswer {
    QueryAnswer {
        estimate,
        moe,
        confidence,
        guarantee_met,
        rounds: Vec::new(),
        groups: BTreeMap::new(),
        timings: kg_aqp::StepTimings::default(),
        sample_size: 64,
        candidate_count: 512,
        elapsed_ms: 0.0,
        missing_shards: Vec::new(),
    }
}

/// Discrete grids keep the engine-backed properties cheap while still
/// covering looser/tighter/equal relations in both dimensions.
const ERROR_BOUNDS: [f64; 4] = [0.25, 0.10, 0.05, 0.02];
const CONFIDENCES: [f64; 3] = [0.80, 0.90, 0.95];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dominance_implies_the_request_targets_hold(
        (estimate, moe, confidence, req_eb, req_conf, guar) in (
            10.0f64..1000.0,
            0.0f64..50.0,
            0.5f64..0.999,
            0.001f64..0.3,
            0.5f64..0.999,
            0usize..2,
        )
    ) {
        let answer = synthetic_answer(estimate, moe, confidence, guar == 1);
        if dominates(&answer, req_eb, req_conf) {
            prop_assert!(satisfies_error_bound(answer.estimate, answer.moe, req_eb));
            prop_assert!(answer.confidence + 1e-9 >= req_conf);
            // Monotone: anything looser is dominated too.
            prop_assert!(dominates(&answer, req_eb * 1.5, req_conf));
            prop_assert!(dominates(&answer, req_eb, req_conf * 0.9));
            // The stored run's own termination flag is irrelevant: the same
            // interval dominates whether or not that run ended by Theorem 2
            // (a deadline-truncated interval carries the same statistics).
            let flipped = synthetic_answer(estimate, moe, confidence, guar != 1);
            prop_assert!(dominates(&flipped, req_eb, req_conf));
        } else {
            // Contrapositive: at least one leg of the rule fails.
            prop_assert!(
                !satisfies_error_bound(answer.estimate, answer.moe, req_eb)
                    || answer.confidence + 1e-12 < req_conf
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The live service serves a cached estimate if and only if the stored
    /// interval dominates the incoming targets, and everything it serves
    /// honours those targets.
    #[test]
    fn cached_answers_are_served_only_when_they_dominate(
        (eb1_i, eb2_i, conf1_i, conf2_i) in (0usize..4, 0usize..4, 0usize..3, 0usize..3)
    ) {
        let (eb1, eb2) = (ERROR_BOUNDS[eb1_i], ERROR_BOUNDS[eb2_i]);
        let (conf1, conf2) = (CONFIDENCES[conf1_i], CONFIDENCES[conf2_i]);
        let svc = service();
        let query = count_query();

        let first = svc.execute(QueryRequest::new(query.clone(), eb1, conf1)).unwrap();
        prop_assert_eq!(first.served_from, ServedFrom::Fresh);
        let expect_hit = dominates(&first.answer, eb2, conf2);

        let second = svc.execute(QueryRequest::new(query, eb2, conf2)).unwrap();
        prop_assert_eq!(
            second.served_from == ServedFrom::CacheHit,
            expect_hit,
            "stored (moe {}, conf {}, met {}) vs request ({eb2}, {conf2})",
            first.answer.moe, first.answer.confidence, first.answer.guarantee_met,
        );
        if second.answer.guarantee_met {
            prop_assert!(satisfies_error_bound(second.answer.estimate, second.answer.moe, eb2));
            prop_assert!(second.answer.confidence + 1e-12 >= conf2);
        }
        // Resuming never discards the sample already drawn.
        prop_assert!(second.answer.sample_size >= first.answer.sample_size);
        svc.shutdown();
    }

    /// Refinement-resume never returns a wider CI than a fresh run at the
    /// same targets: either the resumed interval is at most the fresh one,
    /// or both already satisfy the requested bound (the contract the cache
    /// promises the caller).
    #[test]
    fn resume_is_never_wider_than_fresh_at_the_same_targets(
        (loose_i, delta, conf_i) in (0usize..3, 1usize..3, 0usize..3)
    ) {
        let eb_loose = ERROR_BOUNDS[loose_i];
        let eb_tight = ERROR_BOUNDS[(loose_i + delta).min(ERROR_BOUNDS.len() - 1)];
        let conf = CONFIDENCES[conf_i];
        let query = count_query();

        let fresh_svc = service();
        let fresh = fresh_svc
            .execute(QueryRequest::new(query.clone(), eb_tight, conf))
            .unwrap();
        fresh_svc.shutdown();

        let resumed_svc = service();
        let coarse = resumed_svc
            .execute(QueryRequest::new(query.clone(), eb_loose, conf))
            .unwrap();
        let resumed = resumed_svc
            .execute(QueryRequest::new(query, eb_tight, conf))
            .unwrap();
        resumed_svc.shutdown();

        prop_assert!(
            resumed.answer.moe <= fresh.answer.moe * (1.0 + 1e-9)
                || (satisfies_error_bound(resumed.answer.estimate, resumed.answer.moe, eb_tight)
                    && satisfies_error_bound(fresh.answer.estimate, fresh.answer.moe, eb_tight)),
            "resumed moe {} (after loose {eb_loose}: {}) vs fresh moe {} at eb {eb_tight}",
            resumed.answer.moe, coarse.answer.moe, fresh.answer.moe,
        );
        if fresh.answer.guarantee_met {
            prop_assert!(resumed.answer.guarantee_met);
        }
    }
}
