//! The timed run: one closed-loop client (the paper's analyst waits for an
//! answer before tightening the bound), whole passes of a workload's
//! request stream, and the ten end-to-end metrics computed from them.

use crate::inputs::{Inputs, Op, Workload, CONFIDENCE};
use crate::stack::{boot, engine_config, Stack};
use crate::stats::{median, percentile};
use crate::{heap, Metric};
use kg_aqp::QueryAnswer;
use kg_service::{http_query, http_request, QueryRequest};
use serde_json::Value;
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(120);

/// What the service said about one answered query.
#[derive(Clone, Debug)]
pub struct Answered {
    pub answer: QueryAnswer,
    pub served_from: String,
    pub queue_ms: f64,
    pub total_ms: f64,
}

impl Answered {
    fn parse(body: &str) -> Option<Self> {
        let v: Value = serde_json::from_str(body).ok()?;
        Some(Self {
            answer: QueryAnswer::from_json(v.get("answer")?).ok()?,
            served_from: v.get("served_from")?.as_str()?.to_string(),
            queue_ms: v.get("queue_ms")?.as_f64()?,
            total_ms: v.get("total_ms")?.as_f64()?,
        })
    }

    /// What must repeat exactly from pass to pass (R4).
    fn bits(&self) -> (u64, u64, usize, bool) {
        let a = &self.answer;
        (
            a.estimate.to_bits(),
            a.moe.to_bits(),
            a.sample_size,
            a.guarantee_met,
        )
    }
}

/// One query as the client saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    pub index: usize,
    pub error_bound: f64,
    pub start: Instant,
    pub end: Instant,
    /// `None` when the request failed: transport error, non-200, or a body
    /// that is not an answer.
    pub answered: Option<Answered>,
}

impl Reply {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    /// A degraded answer is a 200 that silently lost a stratum: it counts
    /// as failed, like a shed or refused request.
    pub fn failed(&self) -> bool {
        self.answered
            .as_ref()
            .is_none_or(|a| a.answer.is_degraded())
    }
}

/// One `/v2/write` as the client saw it.
#[derive(Clone, Debug)]
pub struct WriteReply {
    pub latency_ms: f64,
    pub ok: bool,
    pub evicted_answers: f64,
    pub evicted_samplers: f64,
}

pub struct Pass {
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub replies: Vec<Reply>,
    pub writes: Vec<WriteReply>,
}

/// Process CPU time (user + system) from `/proc/self/stat`, in ms. It
/// includes threads that have already exited, which per-task files miss
/// and the HTTP layer's thread-per-connection needs.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux procfs");
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat format") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    // USER_HZ is 100 on every Linux ABI.
    ticks * 10.0
}

pub fn run_pass(stack: &Stack, inputs: &mut Inputs, workload: Workload) -> Pass {
    let ops = inputs.pass(workload);
    if workload.invalidates() {
        stack.service.invalidate_caches();
    }
    let addr = stack.addr();
    let mut replies = Vec::with_capacity(ops.len());
    let mut writes = Vec::new();
    let cpu0 = process_cpu_ms();
    let t0 = Instant::now();
    for op in ops {
        match op {
            Op::Query { index, error_bound } => {
                let request =
                    QueryRequest::new(inputs.queries[index].clone(), error_bound, CONFIDENCE);
                let start = Instant::now();
                let outcome = http_query(addr, &request, HTTP_TIMEOUT);
                let end = Instant::now();
                let answered = match outcome {
                    Ok((200, body)) => Answered::parse(&body),
                    _ => None,
                };
                replies.push(Reply {
                    index,
                    error_bound,
                    start,
                    end,
                    answered,
                });
            }
            Op::Write(write) => {
                let body = serde_json::to_string(&write.to_json()).expect("total");
                let start = Instant::now();
                let outcome = http_request(addr, "POST", "/v2/write", &body, HTTP_TIMEOUT);
                let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                let parsed = match outcome {
                    Ok((200, body)) => serde_json::from_str(&body).ok(),
                    _ => None,
                };
                let field = |name: &str| {
                    parsed
                        .as_ref()
                        .and_then(|v| v.get(name)?.as_f64())
                        .unwrap_or(0.0)
                };
                writes.push(WriteReply {
                    latency_ms,
                    ok: parsed.is_some(),
                    evicted_answers: field("evicted_answers"),
                    evicted_samplers: field("evicted_samplers"),
                });
            }
        }
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_ms: process_cpu_ms() - cpu0,
        replies,
        writes,
    }
}

/// R3: `setup_s` is the boot plus one untimed pass of the workload's own
/// stream, so it is seconds long, repeats, and shows any work a later
/// change moves out of the timed passes. The warm-up pass doubles as the
/// reference every timed pass must equal bit for bit.
pub struct Setup {
    pub stack: Stack,
    pub warmup: Pass,
    pub setup_s: f64,
    pub boot_s: f64,
    pub peak_heap_bytes: usize,
}

pub fn setup(workload: Workload, inputs: &mut Inputs) -> Setup {
    heap::start();
    let t0 = Instant::now();
    let stack = boot(workload, &inputs.tsv, &inputs.dataset.oracle);
    let boot_s = t0.elapsed().as_secs_f64();
    let warmup = run_pass(&stack, inputs, workload);
    let setup_s = t0.elapsed().as_secs_f64();
    Setup {
        stack,
        warmup,
        setup_s,
        boot_s,
        peak_heap_bytes: heap::stop(),
    }
}

/// Scores of one run's timed passes.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Reasons the run is not correct; empty when it is.
    pub faults: Vec<String>,
    pub metrics: Vec<Metric>,
    pub passes: usize,
    pub latency_samples: usize,
}

/// Positions where `pass` does not repeat `reference` bit for bit.
fn mismatches(reference: &Pass, pass: &Pass) -> usize {
    if reference.replies.len() != pass.replies.len() {
        return reference.replies.len().max(pass.replies.len());
    }
    reference
        .replies
        .iter()
        .zip(&pass.replies)
        .filter(|(a, b)| {
            a.answered.as_ref().map(Answered::bits) != b.answered.as_ref().map(Answered::bits)
        })
        .count()
}

pub fn score(workload: Workload, setup: &Setup, passes: &[Pass], tau_gt: &[f64]) -> Outcome {
    // R1: a slow spell of the host shorter than half the run moves no
    // median over whole passes.
    let over_passes =
        |of: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(of).collect::<Vec<_>>());
    let replies = || passes.iter().flat_map(|p| &p.replies);
    let latencies: Vec<f64> = replies().map(Reply::latency_ms).collect();
    let writes = passes.iter().map(|p| p.writes.len()).sum::<usize>();
    let attempted = latencies.len() + writes;
    let failed = replies().filter(|r| r.failed()).count()
        + passes
            .iter()
            .flat_map(|p| &p.writes)
            .filter(|w| !w.ok)
            .count();
    let share = |hit: &dyn Fn(&Reply, &QueryAnswer) -> bool| {
        replies()
            .filter(|r| r.answered.as_ref().is_some_and(|a| hit(r, &a.answer)))
            .count() as f64
            / latencies.len() as f64
    };
    let miss = |r: &Reply, a: &QueryAnswer| (a.estimate - tau_gt[r.index]).abs();

    let mut faults = Vec::new();
    if failed > 0 {
        faults.push(format!("{failed} of {attempted} requests failed"));
    }
    // A NaN compares false, so it would pass for a missed bound.
    let unknown = tau_gt.iter().filter(|v| v.is_nan()).count();
    if unknown > 0 {
        faults.push(format!("{unknown} exact answers could not be computed"));
    }
    // A write moves the walk's stationary distribution around its hub, so
    // `write_churn` recomputes different (equally valid) estimates.
    if workload.invalidates() {
        let differing: usize = passes.iter().map(|p| mismatches(&setup.warmup, p)).sum();
        if differing > 0 {
            faults.push(format!(
                "{differing} answers differ from the warm-up pass's"
            ));
        }
    }
    if let Some(remote) = setup.stack.service.metrics().remote {
        let redone = remote.retries + remote.hedges + remote.timeouts + remote.garbage;
        if redone > 0 {
            faults.push(format!(
                "{redone} shard calls were retried, hedged or timed out"
            ));
        }
    }

    let metrics = vec![
        Metric::new("setup_s", setup.setup_s),
        Metric::new("qps", over_passes(&|p| p.replies.len() as f64 / p.wall_s)),
        Metric::new("latency_p50_ms", percentile(&latencies, 0.50)),
        Metric::new("latency_p95_ms", percentile(&latencies, 0.95)),
        Metric::new(
            "cpu_ms_per_op",
            over_passes(&|p| p.cpu_ms / p.replies.len() as f64),
        ),
        Metric::new("peak_heap_mb", setup.peak_heap_bytes as f64 / 1e6),
        Metric::new("ok_share", 1.0 - failed as f64 / attempted as f64),
        Metric::new("guaranteed_share", share(&|_, a| a.guarantee_met)),
        Metric::new(
            "within_eb_share",
            share(&|r, a| miss(r, a) <= r.error_bound * tau_gt[r.index].abs()),
        ),
        Metric::new("ci_cover_share", share(&|r, a| miss(r, a) <= a.moe)),
    ];
    Outcome {
        attempted,
        failed,
        faults,
        metrics,
        passes: passes.len(),
        latency_samples: latencies.len(),
    }
}

/// The exact answer of every query of `inputs` on `graph`, at the τ and n
/// the engine under test runs with.
pub fn exact_answers(inputs: &Inputs, graph: &kg_core::KnowledgeGraph) -> Vec<f64> {
    let engine = engine_config();
    inputs.tau_gt(graph, engine.tau, engine.n_bound)
}

/// `write_churn` scores against exact answers computed before any write:
/// the stream must have left every one of them as it was.
pub fn tau_gt_moved(inputs: &Inputs, tau_gt: &[f64]) -> Option<String> {
    let after = exact_answers(inputs, &inputs.written_graph());
    let moved = tau_gt
        .iter()
        .zip(&after)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    (moved > 0).then(|| format!("the write stream moved {moved} exact answers"))
}
