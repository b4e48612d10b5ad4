//! Interactive error-bound refinement (§IV-C, Fig. 6(a)): start with a loose
//! error bound, then tighten it step by step and observe that each step only
//! pays a small incremental cost because the sample is reused.

use kg_aqp::prelude::*;
use std::time::Instant;

fn main() {
    let dataset = kg_aqp_suite::demo_dataset();
    // By default this simple query would be answered exactly in one round;
    // sampling is what there is to refine.
    let engine = AqpEngine::new(EngineConfig {
        error_bound: 0.05,
        enumerate: false,
        ..EngineConfig::default()
    });
    let query = AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Sum("price".into()),
    );

    let mut session = engine
        .open_session(&dataset.graph, &query, &dataset.oracle)
        .expect("query resolves");

    for eb in [0.05, 0.04, 0.03, 0.02, 0.01] {
        let start = Instant::now();
        let answer = session.refine_to(&dataset.graph, &dataset.oracle, eb);
        println!(
            "eb = {:>4.0}%  V̂ = {:>14.2}  ε = {:>12.2}  sample = {:>5}  (+{:>6.1} ms, guarantee met: {})",
            eb * 100.0,
            answer.estimate,
            answer.moe,
            answer.sample_size,
            start.elapsed().as_secs_f64() * 1e3,
            answer.guarantee_met,
        );
    }
}
