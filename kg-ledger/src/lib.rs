//! kg-ledger: the repository's end-to-end benchmark. See `README.md`.

pub mod check;
pub mod heap;
pub mod inputs;
pub mod layers;
pub mod noise;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod traced;

use serde_json::Value;

/// The end-to-end metrics, `(name, unit)`, in printing order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_heap_mb", "MB"),
    ("ok_share", "ratio"),
    ("guaranteed_share", "ratio"),
    ("within_eb_share", "ratio"),
    ("ci_cover_share", "ratio"),
];

/// The per-layer metrics, `(name, unit)`, in printing order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.graph_build_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.graph_clone_ms", "ms"),
    ("core.graph_clone_ms_large", "ms"),
    ("core.delta_upsert_us", "us"),
    ("core.compact_ms", "ms"),
    ("core.frame_roundtrip_us", "us"),
    ("sampling.prepare_ms", "ms"),
    ("sampling.prepare_ms_large", "ms"),
    ("sampling.prepare_per_query", "ratio"),
    ("sampling.cache_hit_share", "ratio"),
    ("sampling.draw_ns", "ns"),
    ("sampling.draws_per_query", "count"),
    ("estimate.validate_us", "us"),
    ("estimate.validate_us_large", "us"),
    ("estimate.correct_share", "ratio"),
    ("estimate.bootstrap_ms", "ms"),
    ("estimate.merge_us", "us"),
    ("aqp.plan_ms", "ms"),
    ("aqp.round_ms", "ms"),
    ("aqp.rounds_per_query", "count"),
    ("aqp.stage_sampling_share", "ratio"),
    ("aqp.stage_estimation_share", "ratio"),
    ("aqp.stage_guarantee_share", "ratio"),
    ("aqp.rpc_per_query", "count"),
    ("aqp.rpc_request_bytes", "B"),
    ("aqp.rpc_codec_us", "us"),
    ("aqp.shard_serve_ms", "ms"),
    ("aqp.rpc_retries", "count"),
    ("shard.rpc_wire_ms", "ms"),
    ("service.http_overhead_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.self_ms", "ms"),
    ("service.cache_hit_share", "ratio"),
    ("service.cache_resume_share", "ratio"),
    ("service.cache_miss_share", "ratio"),
    ("service.resume_ms", "ms"),
    ("service.write_apply_ms", "ms"),
    ("service.answers_evicted_per_write", "count"),
    ("service.samplers_evicted_per_write", "count"),
    ("service.compactions", "count"),
    ("query.ssb_exact_ms", "ms"),
    ("host.calib_ms", "ms"),
    ("ledger.trace_overhead_share", "ratio"),
    ("ledger.probe_coverage_share", "ratio"),
];

/// One reported number. Its unit comes from the tables above, so a name
/// outside them cannot be reported.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of the ledger"))
            .1;
        Self { name, value, unit }
    }
}

/// Worker threads for parallel stages: `min(2, nproc)`, so a bigger host
/// measures the same program.
pub fn threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The result line the benchmark contract asks for.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    )
}

/// The body of a manifest's `[profile.release]` table, one setting a line.
pub fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect()
}

/// `BENCHMARK.json` at the repository root, which declares what this
/// harness prints.
pub fn benchmark_json() -> Result<Value, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}
