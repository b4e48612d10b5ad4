//! `--trace 1`: one traced pass of a workload and the layer probes,
//! reported as the per-layer metrics of `BENCHMARK.json`.

use crate::inputs::{Inputs, Workload, DATASET_SEED};
use crate::layers;
use crate::run::{run_pass, setup, Outcome, Pass, Reply};
use crate::stack::{boot_traced_front, engine_config, ShardCall, ShardProxy};
use crate::stats::median_or_zero;
use crate::trace::{work_per_request, Trace};
use crate::Metric;
use kg_datagen::{generate, profiles, DatasetScale};
use kg_service::MetricsSnapshot;
use std::path::PathBuf;
use std::time::Instant;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median of what `f` reads off the replies that have it; 0 when none do.
fn median_of(replies: &[Reply], f: impl Fn(&Reply) -> Option<f64>) -> f64 {
    median_or_zero(&replies.iter().filter_map(f).collect::<Vec<_>>())
}

/// Where the spans of `workload` are written.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}.jsonl", workload.name()))
}

/// The probes that read the same whatever the workload: run once per
/// invocation and reported with each workload.
pub struct HostProbes {
    core: layers::CoreProbes,
    small: layers::EngineProbes,
    large: layers::EngineProbes,
    large_clone_ms: f64,
    plan: layers::PlanProbes,
    calib_ms: f64,
}

impl HostProbes {
    pub fn run(inputs: &Inputs) -> Self {
        let engine = engine_config();
        let automotive = inputs.dataset.domain("automotive").expect("profile has it");
        // The same probes where validation grows from about half of a
        // fresh query to nearly all of it.
        let large_dataset = generate(&profiles::dbpedia_like(DatasetScale::large(), DATASET_SEED));
        let large_queries: Vec<_> =
            kg_datagen::build_workload(&large_dataset, &kg_datagen::WorkloadConfig::default())
                .into_iter()
                .map(|q| q.query)
                .collect();
        Self {
            core: layers::core(
                &inputs.tsv,
                &inputs.dataset.graph,
                &automotive.hub_names[0],
                &automotive.query_predicate,
            ),
            small: layers::engine(&inputs.dataset, &inputs.queries, &engine, 6, 400),
            large: layers::engine(&large_dataset, &large_queries, &engine, 2, 100),
            large_clone_ms: layers::clone_ms(&large_dataset.graph),
            plan: layers::plan(
                &inputs.dataset.graph,
                &inputs.dataset.oracle,
                &inputs.queries,
                &engine,
                4,
            ),
            calib_ms: layers::calib_ms(),
        }
    }
}

pub fn traced_run(workload: Workload, inputs: &mut Inputs, host: &HostProbes) -> Outcome {
    let origin = Instant::now();
    let setup = setup(workload, inputs);

    // The remote workload is traced through recording proxies, dialled by
    // a second coordinator so that the untraced pass pays no extra hop.
    // The others run no tracing code: their one pass is both.
    let proxies: Vec<ShardProxy> = setup
        .stack
        .shard_endpoints
        .iter()
        .enumerate()
        .map(|(shard, upstream)| ShardProxy::spawn(shard, upstream.clone()))
        .collect();
    let untraced = (!proxies.is_empty()).then(|| run_pass(&setup.stack, inputs, workload));
    let front = (!proxies.is_empty()).then(|| {
        let endpoints: Vec<String> = proxies.iter().map(|p| p.endpoint.clone()).collect();
        boot_traced_front(
            &setup.stack,
            &inputs.tsv,
            &inputs.dataset.oracle,
            &endpoints,
        )
    });
    let stack = front.as_ref().unwrap_or(&setup.stack);
    for proxy in &proxies {
        // Drop the handshake's pings: only the pass's calls are its spans.
        proxy
            .calls
            .lock()
            .expect("no panic while recording")
            .clear();
    }
    let mut before = stack.service.metrics();
    if workload.invalidates() {
        // The pass starts by replacing the sampler cache, counters and all.
        before.sampler_cache = Default::default();
    }
    let traced = run_pass(stack, inputs, workload);
    let after = stack.service.metrics();
    let mut calls: Vec<ShardCall> = proxies
        .iter()
        .flat_map(|p| p.calls.lock().expect("no panic while recording").clone())
        .collect();
    calls.sort_by_key(|c| c.start);

    let earlier: Vec<&Pass> = std::iter::once(&setup.warmup).chain(&untraced).collect();
    let work = work_per_request(&earlier, &traced, setup.stack.shard_endpoints.len());
    let trace = Trace::of_pass(origin, &traced, &work, &calls);
    let mut faults = Vec::new();
    if let Err(e) = trace.write_jsonl(&trace_path(workload)) {
        faults.push(format!(
            "cannot write {}: {e}",
            trace_path(workload).display()
        ));
    }
    // Stage self times add up to client latency exactly unless a child
    // had to be cut to fit its parent; more than 2 % cut means the
    // program's own timings disagree with the clock around it.
    let clipped_share = ratio(trace.clipped_us, trace.client_us());
    if clipped_share > 0.02 {
        faults.push(format!(
            "{:.1} % of client time is stage time that does not fit its request",
            clipped_share * 100.0
        ));
    }
    for (name, self_ms) in trace.self_ms_by_name() {
        println!(
            "# self {name:<11} {self_ms:>10.1} ms {:>5.1} % of client",
            100.0 * ratio(self_ms * 1e3, trace.client_us())
        );
    }
    let failed = traced.replies.iter().filter(|r| r.failed()).count()
        + traced.writes.iter().filter(|w| !w.ok).count();
    if failed > 0 {
        faults.push(format!("{failed} requests of the traced pass failed"));
    }

    let fresh_draws: Vec<f64> = work.iter().map(|w| w.draws).filter(|d| *d > 0.0).collect();
    let estimator = layers::estimator(
        &host.small,
        &engine_config(),
        median_or_zero(&fresh_draws) as usize,
    );
    let metrics = layer_metrics(LayerInputs {
        trace_overhead: untraced.map_or(0.0, |u| traced.wall_s / u.wall_s - 1.0),
        traced: &traced,
        work: &work,
        before: &before,
        after: &after,
        host,
        estimator,
        rpc: layers::rpc(&setup.stack, &calls, 200),
    });
    Outcome {
        attempted: traced.replies.len() + traced.writes.len(),
        failed,
        faults,
        metrics,
        passes: 1,
        latency_samples: traced.replies.len(),
    }
}

struct LayerInputs<'a> {
    /// Traced over untraced pass time, less one; 0 where nothing traces.
    trace_overhead: f64,
    traced: &'a Pass,
    work: &'a [crate::trace::Work],
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    host: &'a HostProbes,
    estimator: layers::EstimatorProbes,
    rpc: layers::RpcProbes,
}

fn layer_metrics(x: LayerInputs) -> Vec<Metric> {
    let replies = &x.traced.replies;
    let queries = replies.len() as f64;
    let served = |kind: &str| {
        replies
            .iter()
            .filter(|r| r.answered.as_ref().is_some_and(|a| a.served_from == kind))
            .count() as f64
    };
    let sum = |f: &dyn Fn(&crate::trace::Work) -> f64| x.work.iter().map(f).sum::<f64>();
    let stage_ms = sum(&|w| w.stage_ms());
    let (rounds, draws) = (sum(&|w| w.rounds), sum(&|w| w.draws));
    // Final sample sizes of the answers this pass computed (not replayed).
    let (mut sampled, mut correct) = (0.0, 0.0);
    for a in replies.iter().filter_map(|r| r.answered.as_ref()) {
        if a.served_from != "cache_hit" {
            sampled += a.answer.sample_size as f64;
            correct += a
                .answer
                .rounds
                .last()
                .map_or(0.0, |r| r.correct_size as f64);
        }
    }
    let sampler_hits = (x.after.sampler_cache.hits - x.before.sampler_cache.hits) as f64;
    let sampler_misses = (x.after.sampler_cache.misses - x.before.sampler_cache.misses) as f64;
    let remote = |f: &dyn Fn(&kg_aqp::RemoteMetricsSnapshot) -> u64| {
        let read = |m: &MetricsSnapshot| m.remote.as_ref().map_or(0, f);
        (read(x.after) - read(x.before)) as f64
    };
    let writes = x.traced.writes.len() as f64;
    let write_sum =
        |f: &dyn Fn(&crate::run::WriteReply) -> f64| x.traced.writes.iter().map(f).sum::<f64>();
    let write_ms: Vec<f64> = x.traced.writes.iter().map(|w| w.latency_ms).collect();
    let HostProbes {
        core,
        small,
        large,
        plan,
        ..
    } = x.host;
    let probed_ms = small.prepare_ms * sampler_misses
        + draws * small.draw_ns / 1e6
        + sum(&|w| w.validations) * small.validate_us / 1e3
        + rounds * x.estimator.bootstrap_ms;
    // What the service spent on a request outside its queue and engine.
    let self_ms: Vec<f64> = replies
        .iter()
        .zip(x.work)
        .filter_map(|(r, w)| {
            let a = r.answered.as_ref()?;
            Some(a.total_ms - a.queue_ms - w.stage_ms())
        })
        .collect();

    vec![
        Metric::new("core.graph_build_ms", core.graph_build_ms),
        Metric::new("core.partition_ms", core.partition_ms),
        Metric::new("core.graph_clone_ms", core.graph_clone_ms),
        Metric::new("core.graph_clone_ms_large", x.host.large_clone_ms),
        Metric::new("core.delta_upsert_us", core.delta_upsert_us),
        Metric::new("core.compact_ms", core.compact_ms),
        Metric::new("core.frame_roundtrip_us", x.rpc.frame_roundtrip_us),
        Metric::new("sampling.prepare_ms", small.prepare_ms),
        Metric::new("sampling.prepare_ms_large", large.prepare_ms),
        Metric::new("sampling.prepare_per_query", ratio(sampler_misses, queries)),
        Metric::new(
            "sampling.cache_hit_share",
            ratio(sampler_hits, sampler_hits + sampler_misses),
        ),
        Metric::new("sampling.draw_ns", small.draw_ns),
        Metric::new("sampling.draws_per_query", ratio(draws, queries)),
        Metric::new("estimate.validate_us", small.validate_us),
        Metric::new("estimate.validate_us_large", large.validate_us),
        Metric::new("estimate.correct_share", ratio(correct, sampled)),
        Metric::new("estimate.bootstrap_ms", x.estimator.bootstrap_ms),
        Metric::new("estimate.merge_us", x.estimator.merge_us),
        Metric::new("aqp.plan_ms", plan.plan_ms),
        Metric::new("aqp.round_ms", plan.round_ms),
        Metric::new("aqp.rounds_per_query", ratio(rounds, queries)),
        Metric::new(
            "aqp.stage_sampling_share",
            ratio(sum(&|w| w.sampling_ms), stage_ms),
        ),
        Metric::new(
            "aqp.stage_estimation_share",
            ratio(sum(&|w| w.estimation_ms), stage_ms),
        ),
        Metric::new(
            "aqp.stage_guarantee_share",
            ratio(sum(&|w| w.guarantee_ms), stage_ms),
        ),
        Metric::new("aqp.rpc_per_query", ratio(remote(&|r| r.requests), queries)),
        Metric::new("aqp.rpc_request_bytes", x.rpc.request_bytes),
        Metric::new("aqp.rpc_codec_us", x.rpc.codec_us),
        Metric::new("aqp.shard_serve_ms", x.rpc.shard_serve_ms),
        Metric::new(
            "aqp.rpc_retries",
            remote(&|r| r.retries + r.hedges + r.timeouts),
        ),
        Metric::new("shard.rpc_wire_ms", x.rpc.wire_ms),
        Metric::new(
            "service.http_overhead_ms",
            median_of(replies, |r| {
                Some(r.latency_ms() - r.answered.as_ref()?.total_ms)
            }),
        ),
        Metric::new(
            "service.queue_wait_ms",
            median_of(replies, |r| Some(r.answered.as_ref()?.queue_ms)),
        ),
        Metric::new("service.self_ms", median_or_zero(&self_ms)),
        Metric::new(
            "service.cache_hit_share",
            ratio(served("cache_hit"), queries),
        ),
        Metric::new(
            "service.cache_resume_share",
            ratio(served("cache_resume"), queries),
        ),
        Metric::new("service.cache_miss_share", ratio(served("fresh"), queries)),
        Metric::new(
            "service.resume_ms",
            median_of(replies, |r| {
                (r.answered.as_ref()?.served_from == "cache_resume").then(|| r.latency_ms())
            }),
        ),
        Metric::new("service.write_apply_ms", median_or_zero(&write_ms)),
        Metric::new(
            "service.answers_evicted_per_write",
            ratio(write_sum(&|w| w.evicted_answers), writes),
        ),
        Metric::new(
            "service.samplers_evicted_per_write",
            ratio(write_sum(&|w| w.evicted_samplers), writes),
        ),
        Metric::new(
            "service.compactions",
            (x.after.compactions - x.before.compactions) as f64,
        ),
        Metric::new("query.ssb_exact_ms", plan.ssb_exact_ms),
        Metric::new("host.calib_ms", x.host.calib_ms),
        Metric::new("ledger.trace_overhead_share", x.trace_overhead),
        Metric::new("ledger.probe_coverage_share", ratio(probed_ms, stage_ms)),
    ]
}
