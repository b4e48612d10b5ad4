//! The traced pass: spans around each layer boundary this harness can see.
//!
//! Per request: `client` (this harness's clock) ⊃ `service` (the answer's
//! `total_ms`) ⊃ `queue`, `sampling`, `estimation`, `guarantee` (the
//! answer's `queue_ms` and `timings`), plus one `shard.rpc` per shard call
//! a recording proxy saw. The program reports durations, not timestamps, so
//! `service` is centred in `client` and the stages are laid end to end
//! after `queue`; spans inside the program are a later change.

use crate::run::{Pass, Reply};
use crate::stack::ShardCall;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Position of the request in its pass.
    pub request: usize,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Engine work one request caused. A cache hit replays an earlier
/// answer's fields and a resume reports its session's running totals, so
/// each request is charged the growth since the query's previous answer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub sampling_ms: f64,
    pub estimation_ms: f64,
    pub guarantee_ms: f64,
    pub rounds: f64,
    pub draws: f64,
    /// Draws that can have needed validating: the engine validates an
    /// entity once, so no more than the query has candidates.
    pub validations: f64,
}

impl Work {
    pub fn stage_ms(&self) -> f64 {
        self.sampling_ms + self.estimation_ms + self.guarantee_ms
    }
}

/// The work of every reply of `pass`, in order (zero for failed ones).
/// `earlier` are the passes the service answered before it, oldest first:
/// a resume may continue a session one of them opened. A coordinator adds
/// up what its `strata` shards report, and they work side by side: stage
/// times are divided by `strata` to stand for elapsed time (1 for an
/// in-process service).
pub fn work_per_request(earlier: &[&Pass], pass: &Pass, strata: usize) -> Vec<Work> {
    let k = strata.max(1) as f64;
    let mut seen: HashMap<usize, Work> = HashMap::new();
    let mut charge = |reply: &Reply| {
        let Some(a) = &reply.answered else {
            return Work::default();
        };
        if a.served_from == "cache_hit" {
            return Work::default();
        }
        let total = Work {
            sampling_ms: a.answer.timings.sampling_ms / k,
            estimation_ms: a.answer.timings.estimation_ms / k,
            guarantee_ms: a.answer.timings.guarantee_ms / k,
            rounds: a.answer.rounds.len() as f64,
            draws: a.answer.sample_size as f64,
            validations: 0.0,
        };
        let before = match a.served_from.as_str() {
            "cache_resume" => seen.get(&reply.index).copied().unwrap_or_default(),
            _ => Work::default(),
        };
        seen.insert(reply.index, total);
        let draws = (total.draws - before.draws).max(0.0);
        Work {
            sampling_ms: (total.sampling_ms - before.sampling_ms).max(0.0),
            estimation_ms: (total.estimation_ms - before.estimation_ms).max(0.0),
            guarantee_ms: (total.guarantee_ms - before.guarantee_ms).max(0.0),
            rounds: (total.rounds - before.rounds).max(0.0),
            draws,
            validations: draws.min(a.answer.candidate_count as f64),
        }
    };
    for reply in earlier.iter().flat_map(|p| &p.replies) {
        charge(reply);
    }
    pass.replies.iter().map(charge).collect()
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Child time that did not fit its parent and was cut off, in µs: the
    /// program's own accounting disagreeing with the clock around it.
    pub clipped_us: f64,
}

impl Trace {
    /// Adds a span of `len_us` starting at `start_us`, cut to fit `parent`.
    fn child(&mut self, parent: usize, name: &'static str, start_us: f64, len_us: f64) -> usize {
        let (request, lo, hi) = {
            let p = &self.spans[parent];
            (p.request, p.start_us, p.end_us)
        };
        let start = start_us.clamp(lo, hi);
        let end = (start_us + len_us).clamp(start, hi);
        self.clipped_us += len_us - (end - start);
        self.spans.push(Span {
            id: self.spans.len(),
            parent: Some(parent),
            request,
            name,
            start_us: start,
            end_us: end,
        });
        self.spans.len() - 1
    }

    /// Builds the spans of one pass; `calls` are the shard calls recorded
    /// while it ran.
    pub fn of_pass(origin: Instant, pass: &Pass, work: &[Work], calls: &[ShardCall]) -> Self {
        let us = |t: Instant| (t - origin).as_secs_f64() * 1e6;
        let mut trace = Trace::default();
        for (request, (reply, work)) in pass.replies.iter().zip(work).enumerate() {
            let (start, end) = (us(reply.start), us(reply.end));
            let client = trace.spans.len();
            trace.spans.push(Span {
                id: client,
                parent: None,
                request,
                name: "client",
                start_us: start,
                end_us: end,
            });
            let Some(a) = &reply.answered else { continue };
            let total_us = a.total_ms * 1e3;
            let service = trace.child(
                client,
                "service",
                start + ((end - start) - total_us).max(0.0) / 2.0,
                total_us,
            );
            let mut at = trace.spans[service].start_us;
            for (name, ms) in [
                ("queue", a.queue_ms),
                ("sampling", work.sampling_ms),
                ("estimation", work.estimation_ms),
                ("guarantee", work.guarantee_ms),
            ] {
                let id = trace.child(service, name, at, ms * 1e3);
                at = trace.spans[id].end_us;
            }
            // One client, one request in flight: a shard call inside the
            // request's interval is that request's.
            for call in calls
                .iter()
                .filter(|c| c.start >= reply.start && c.end <= reply.end)
            {
                let clipped = trace.clipped_us;
                trace.child(
                    service,
                    "shard.rpc",
                    us(call.start),
                    us(call.end) - us(call.start),
                );
                // The proxy's clock brackets the service's; its overhang is
                // the hop itself, not an accounting error.
                trace.clipped_us = clipped;
            }
        }
        trace
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover (children that overlap are counted once).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_us);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_us - s.start_us) - covered
            })
            .collect()
    }

    /// Total self time per span name, in ms, in first-seen order.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times_us()) {
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some(entry) => entry.1 += self_us / 1e3,
                None => out.push((span.name, self_us / 1e3)),
            }
        }
        out
    }

    /// Client time in µs: what the self times of the sequential spans
    /// (everything but the parallel `shard.rpc`) must add up to.
    pub fn client_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_us - s.start_us)
            .sum()
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {}, "parent": {parent}, "request": {}, "name": "{}", "start_us": {:.3}, "end_us": {:.3}}}"#,
                s.id, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
