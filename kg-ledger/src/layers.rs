//! Layer probes: each times one public call of one layer, on this run's
//! inputs or on payloads captured from the traced pass, so that a change
//! to a layer can be seen at the layer before it is looked for end to end.

use crate::inputs::WRITES_PER_PASS;
use crate::stack::{ShardCall, Stack, REMOTE_SHARDS};
use crate::stats::{median, median_or_zero};
use kg_aqp::remote::{ShardRequest, ShardTransport, TcpTransport};
use kg_aqp::{BatchEngine, EngineConfig};
use kg_core::frame::{read_frame, write_frame};
use kg_core::{DegreeBalancedPartitioner, KnowledgeGraph, ShardedGraph};
use kg_datagen::GeneratedDataset;
use kg_embed::PredicateVectorStore;
use kg_estimate::{
    blb_moe, merge_strata, validate_answer, StratumEstimate, ValidatedAnswer, ValidationConfig,
};
use kg_query::{
    AggregateFunction, AggregateQuery, GroundTruthConfig, QuerySpec, ResolvedAggregate,
    SimpleQuery, SsbEngine,
};
use kg_sampling::{prepare, SamplerCache};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` timings of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| ms(&mut f)).collect::<Vec<_>>())
}

/// A fixed integer kernel of this harness: how fast the host ran scalar
/// code around the workload. It does **not** track the workload's speed
/// (the host's swings are in the memory system) and nothing is normalised
/// by it; it is printed so a reader can tell a slow host from a slow build.
pub fn calib_ms() -> f64 {
    median_ms(5, || {
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..10_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    })
}

/// The distinct single-edge components of the workload: what the sampler
/// cache keys on.
fn simple_components(queries: &[AggregateQuery]) -> Vec<SimpleQuery> {
    let mut out: Vec<SimpleQuery> = Vec::new();
    for q in queries {
        if let QuerySpec::Simple(s) = &q.query {
            if !out.contains(s) {
                out.push(s.clone());
            }
        }
    }
    out
}

pub struct CoreProbes {
    pub graph_build_ms: f64,
    pub partition_ms: f64,
    pub graph_clone_ms: f64,
    pub delta_upsert_us: f64,
    pub compact_ms: f64,
}

pub fn core(tsv: &[u8], graph: &KnowledgeGraph, hub: &str, predicate: &str) -> CoreProbes {
    let shared = Arc::new(graph.clone());
    let mut upsert_us = Vec::new();
    let mut compact = Vec::new();
    for rep in 0..3 {
        let mut g = graph.clone();
        let t = Instant::now();
        // As many pending ops as the service compacts at.
        for n in 0..WRITES_PER_PASS {
            g.upsert_edge_by_name(hub, predicate, &format!("probe-{rep}-{n}"));
        }
        upsert_us.push(t.elapsed().as_secs_f64() * 1e6 / WRITES_PER_PASS as f64);
        compact.push(ms(|| g.compact()));
    }
    CoreProbes {
        graph_build_ms: median_ms(5, || {
            black_box(kg_core::loader::read_tsv(tsv).expect("own TSV"));
        }),
        partition_ms: median_ms(5, || {
            black_box(ShardedGraph::new(
                Arc::clone(&shared),
                &DegreeBalancedPartitioner,
                REMOTE_SHARDS,
            ));
        }),
        graph_clone_ms: clone_ms(graph),
        delta_upsert_us: median(&upsert_us),
        compact_ms: median(&compact),
    }
}

/// What `apply_write` pays under the state lock before any op applies.
pub fn clone_ms(graph: &KnowledgeGraph) -> f64 {
    median_ms(5, || {
        black_box(graph.clone());
    })
}

pub struct EngineProbes {
    pub prepare_ms: f64,
    pub draw_ns: f64,
    pub validate_us: f64,
    /// The validated draws and their aggregate, for [`estimator`].
    sample: Vec<ValidatedAnswer>,
    count: ResolvedAggregate,
}

/// Sampler calls and validation on up to `components` of the workload's
/// single-edge components, `draws` draws each.
pub fn engine(
    dataset: &GeneratedDataset,
    queries: &[AggregateQuery],
    config: &EngineConfig,
    components: usize,
    draws: usize,
) -> EngineProbes {
    let (graph, oracle) = (&dataset.graph, &dataset.oracle);
    let validation = ValidationConfig {
        tau: config.tau,
        repeat_factor: config.repeat_factor,
        max_path_len: config.n_bound as usize,
        aggregation: config.aggregation,
        ..ValidationConfig::default()
    };
    let (mut prepare_ms, mut draw_ns, mut validate_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut sample: Vec<ValidatedAnswer> = Vec::new();
    for simple in simple_components(queries).iter().take(components) {
        let resolved = simple.resolve(graph).expect("workload queries resolve");
        let t = Instant::now();
        let sampler = prepare(
            graph,
            &resolved,
            oracle,
            config.strategy,
            &config.sampler_config(),
        )
        .expect("workload components prepare");
        prepare_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let t = Instant::now();
        let drawn = sampler.draw(&mut rng, draws);
        draw_ns.push(t.elapsed().as_secs_f64() * 1e9 / draws.max(1) as f64);

        let t = Instant::now();
        for d in &drawn {
            let outcome =
                validate_answer(graph, &resolved, d.entity, &sampler, oracle, &validation);
            sample.push(ValidatedAnswer {
                probability: d.probability,
                value: Some(1.0),
                correct: outcome.correct,
                similarity: outcome.best_similarity,
            });
        }
        validate_us.push(t.elapsed().as_secs_f64() * 1e6 / drawn.len().max(1) as f64);
    }
    EngineProbes {
        prepare_ms: median_or_zero(&prepare_ms),
        draw_ns: median_or_zero(&draw_ns),
        validate_us: median_or_zero(&validate_us),
        sample,
        count: AggregateFunction::Count
            .resolve(graph)
            .expect("COUNT needs no attribute"),
    }
}

pub struct EstimatorProbes {
    pub bootstrap_ms: f64,
    pub merge_us: f64,
}

/// The interval of a COUNT over the first `sample_size` draws `engine`
/// validated (a workload's typical sample), and the merge of its two halves
/// as strata.
pub fn estimator(
    engine: &EngineProbes,
    config: &EngineConfig,
    sample_size: usize,
) -> EstimatorProbes {
    let count = &engine.count;
    let sample = &engine.sample[..sample_size.clamp(2, engine.sample.len())];
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let bootstrap_ms = median_ms(5, || {
        black_box(blb_moe(
            count,
            sample,
            config.confidence,
            &config.bootstrap,
            &mut rng,
        ));
    });
    let (left, right) = sample.split_at(sample.len() / 2);
    let strata = [left, right]
        .map(|s| StratumEstimate::compute(count, s, config.bootstrap.resamples, &mut rng));
    let merge_us = 1e3
        * median_ms(25, || {
            black_box(merge_strata(count, &strata, config.confidence));
        });
    EstimatorProbes {
        bootstrap_ms,
        merge_us,
    }
}

pub struct PlanProbes {
    pub plan_ms: f64,
    pub round_ms: f64,
    pub ssb_exact_ms: f64,
}

/// Planning against a warm sampler cache (prepare is its own probe), the
/// first refinement round, and the exact baseline, on every `stride`-th
/// query.
pub fn plan(
    graph: &KnowledgeGraph,
    oracle: &PredicateVectorStore,
    queries: &[AggregateQuery],
    config: &EngineConfig,
    stride: usize,
) -> PlanProbes {
    let engine = BatchEngine::new(config.clone());
    let cache = SamplerCache::new(config.strategy, config.sampler_config());
    let ssb = SsbEngine::new(GroundTruthConfig {
        tau: config.tau,
        n_bound: config.n_bound,
        ..GroundTruthConfig::default()
    });
    let (mut plan_ms, mut round_ms, mut ssb_ms) = (Vec::new(), Vec::new(), Vec::new());
    for query in queries.iter().step_by(stride.max(1)) {
        let one = std::slice::from_ref(query);
        engine.open_sessions_cached(graph, one, oracle, &cache);
        let t = Instant::now();
        let (mut sessions, _) = engine.open_sessions_cached(graph, one, oracle, &cache);
        plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(Ok(mut session)) = sessions.pop() {
            round_ms.push(ms(|| {
                black_box(session.step_with(graph, oracle, config.error_bound, config.confidence));
            }));
        }
        ssb_ms.push(ms(|| {
            black_box(ssb.evaluate(graph, query, oracle).ok());
        }));
    }
    PlanProbes {
        plan_ms: median_or_zero(&plan_ms),
        round_ms: median_or_zero(&round_ms),
        ssb_exact_ms: median_or_zero(&ssb_ms),
    }
}

#[derive(Default)]
pub struct RpcProbes {
    pub request_bytes: f64,
    pub frame_roundtrip_us: f64,
    pub codec_us: f64,
    pub shard_serve_ms: f64,
    pub wire_ms: f64,
}

/// The remote path replayed on up to `limit` captured shard calls: frame
/// and codec alone, the shard server's work alone (`serve`), and the same
/// call over live loopback TCP; the difference is the wire.
pub fn rpc(stack: &Stack, calls: &[ShardCall], limit: usize) -> RpcProbes {
    let Some(core) = &stack.shard_core else {
        return RpcProbes::default();
    };
    if calls.is_empty() {
        return RpcProbes::default();
    }
    let stride = calls.len().div_ceil(limit.max(1));
    let picked: Vec<&ShardCall> = calls.iter().step_by(stride).collect();
    let (mut frame_us, mut codec_us, mut serve_ms, mut live_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for call in &picked {
        frame_us.push(
            1e3 * ms(|| {
                let mut wire = Vec::with_capacity(call.request.len() + 16);
                write_frame(&mut wire, call.codec, &call.request).expect("memory write");
                black_box(read_frame(&mut wire.as_slice()).expect("own frame"));
            }),
        );
        codec_us.push(
            1e3 * ms(|| {
                let decoded = ShardRequest::decode(call.codec, &call.request).expect("captured");
                black_box(decoded.encode(call.codec));
            }),
        );
        // Once untimed, so the timed serve and the live call both find
        // the shard's caches as warm as the other does.
        black_box(core.serve(call.codec, &call.request));
        serve_ms.push(ms(|| {
            black_box(core.serve(call.codec, &call.request));
        }));
        live_ms.push(ms(|| {
            let deadline = Instant::now() + Duration::from_secs(30);
            let endpoint = &stack.shard_endpoints[call.shard];
            black_box(
                TcpTransport
                    .call(endpoint, call.codec, &call.request, deadline)
                    .expect("live shard call"),
            );
        }));
    }
    let sizes: Vec<f64> = calls.iter().map(|c| c.request.len() as f64).collect();
    let shard_serve_ms = median(&serve_ms);
    RpcProbes {
        request_bytes: median(&sizes),
        frame_roundtrip_us: median(&frame_us),
        codec_us: median(&codec_us),
        shard_serve_ms,
        wire_ms: (median(&live_ms) - shard_serve_ms).max(0.0),
    }
}
