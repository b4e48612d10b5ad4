//! `kg-load`: closed-loop load driver against a running `kg-serve`.
//!
//! ```text
//! kg-load [--addr 127.0.0.1:7878] [--queries 1] [--concurrency 1]
//!         [--seed 42] [--error-bound 0.05] [--confidence 0.95]
//!         [--deadline-ms D] [--tenants a,b,c] [--min-ok-rate R] [--trace]
//!         [--max-degraded N] [--min-degraded N] [--shape NAME]
//! ```
//!
//! `--shape` keeps only the workload queries of one shape (`simple`,
//! `chain`, `star`, `cycle` or `flower`, any case) before `--queries`
//! cycles through them. The fault-injection smoke asks chains: single-edge
//! queries are answered exactly on the coordinator and never reach a shard.
//!
//! `--max-degraded` / `--min-degraded` bound how many answers across the
//! whole run (first query included) may / must come back flagged
//! `degraded: true` — the fault-injection smoke job uses them to assert
//! that killing one shard of a coordinator-mode fleet degrades *some*
//! answers (`--min-degraded 1`) while a healthy or recovered fleet
//! degrades none (`--max-degraded 0`).
//!
//! `--deadline-ms` attaches a deadline to every request (the service then
//! returns anytime answers rather than shedding); `--tenants` spreads the
//! requests round-robin over a comma-separated tenant list; `--min-ok-rate`
//! makes the run fail unless at least that fraction of requests came back
//! HTTP 200 (asserting the anytime-goodput contract in CI). `--trace` sends
//! the first query with `"trace": true` and a client request ID, then
//! asserts the response echoes the ID and embeds a well-formed refinement
//! trajectory with at least one round, each of which drew a sample or is an
//! exact round (no draws, margin of error 0).
//!
//! Multi-tenant runs print a per-tenant latency breakdown under the
//! aggregate report line.
//!
//! `--trace` is the one flag without a value. An unknown flag, a value that
//! does not parse, or a flag with no value exits with status 2 and one
//! stderr line naming the flag, before the workload is generated.
//!
//! Regenerates the workload of the DBpedia-like profile with the same seed
//! `kg-serve` used, so every query resolves against the server's graph. The
//! first answer is validated field-by-field (the CI smoke contract: HTTP
//! 200 and a well-formed JSON answer) and printed; the rest run through the
//! closed-loop driver. Exits non-zero on any failed or malformed response.

mod cli;

use cli::Flags;
use kg_datagen::{build_workload, generate, profiles, DatasetScale, WorkloadConfig};
use kg_query::QueryShape;
use kg_service::{http_query, run_http, QueryRequest};
use serde_json::Value;
use std::time::Duration;

/// Every flag `kg-load` understands that takes a value.
const FLAGS: &[&str] = &[
    "--addr",
    "--queries",
    "--concurrency",
    "--seed",
    "--error-bound",
    "--confidence",
    "--deadline-ms",
    "--tenants",
    "--min-ok-rate",
    "--max-degraded",
    "--min-degraded",
    "--shape",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: kg-load [--addr HOST:PORT] [--queries N] [--concurrency N] \
             [--seed N] [--error-bound EB] [--confidence C] [--deadline-ms D] \
             [--tenants A,B,..] [--min-ok-rate R] [--trace] \
             [--max-degraded N] [--min-degraded N] [--shape NAME]"
        );
        return;
    }
    let flags = Flags::parse("kg-load", &args, FLAGS, &["--trace"]);
    let addr: String = flags.get("--addr", "127.0.0.1:7878".to_string());
    let queries: usize = flags.get("--queries", 1);
    let concurrency: usize = flags.get("--concurrency", 1);
    let seed: u64 = flags.get("--seed", 42);
    let error_bound: f64 = flags.get("--error-bound", 0.05);
    let confidence: f64 = flags.get("--confidence", 0.95);
    let deadline_ms: f64 = flags.get("--deadline-ms", 0.0);
    let tenants: String = flags.get("--tenants", String::new());
    let min_ok_rate: f64 = flags.get("--min-ok-rate", 0.0);
    let max_degraded: i64 = flags.get("--max-degraded", -1);
    let min_degraded: usize = flags.get("--min-degraded", 0);
    let trace: bool = flags.get("--trace", false);
    let shape: Option<QueryShape> = flags.get_opt("--shape");
    let tenants: Vec<&str> = tenants.split(',').filter(|t| !t.is_empty()).collect();
    let timeout = Duration::from_secs(120);

    eprintln!("kg-load: regenerating workload (seed {seed})…");
    let dataset = generate(&profiles::dbpedia_like(DatasetScale::tiny(), seed));
    let workload: Vec<QueryRequest> = build_workload(&dataset, &WorkloadConfig::default())
        .into_iter()
        .filter(|q| shape.map_or(true, |shape| q.shape == shape))
        .map(|q| QueryRequest::new(q.query, error_bound, confidence))
        .collect();
    if workload.is_empty() {
        eprintln!("kg-load: empty workload");
        std::process::exit(1);
    }
    let requests: Vec<QueryRequest> = (0..queries)
        .map(|i| {
            let mut request = workload[i % workload.len()].clone();
            if deadline_ms > 0.0 {
                request = request.with_deadline_ms(deadline_ms);
            }
            if !tenants.is_empty() {
                request = request.with_tenant(tenants[i % tenants.len()]);
            }
            request
        })
        .collect();

    // First query: assert the smoke contract explicitly (with the traced
    // variant when --trace is given, so CI exercises the trajectory path).
    let first = if trace {
        requests[0]
            .clone()
            .with_request_id("kg-load-smoke")
            .with_trace()
    } else {
        requests[0].clone()
    };
    let (status, body) = match http_query(addr.as_str(), &first, timeout) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kg-load: request failed: {e}");
            std::process::exit(1);
        }
    };
    if status != 200 {
        eprintln!("kg-load: expected HTTP 200, got {status}: {body}");
        std::process::exit(1);
    }
    let parsed: Value = match serde_json::from_str(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("kg-load: response is not JSON ({e}): {body}");
            std::process::exit(1);
        }
    };
    let estimate = parsed["answer"]["estimate"].as_f64();
    let moe = parsed["answer"]["moe"].as_f64();
    if estimate.is_none() || moe.is_none() || parsed["served_from"].as_str().is_none() {
        eprintln!("kg-load: answer JSON is missing estimate/moe/served_from: {body}");
        std::process::exit(1);
    }
    let mut degraded_total = usize::from(parsed["answer"]["degraded"].as_bool() == Some(true));
    println!(
        "kg-load: first answer ok: estimate={} moe={} served_from={}{}",
        estimate.unwrap(),
        moe.unwrap(),
        parsed["served_from"].as_str().unwrap(),
        if degraded_total > 0 {
            " (degraded)"
        } else {
            ""
        },
    );
    if trace {
        if parsed["request_id"].as_str() != Some("kg-load-smoke") {
            eprintln!("kg-load: request_id not echoed: {body}");
            std::process::exit(1);
        }
        let rounds = parsed["trace"]["rounds"].as_array();
        let well_formed = rounds.is_some_and(|rounds| {
            !rounds.is_empty()
                && rounds.iter().enumerate().all(|(i, r)| {
                    r["round"].as_f64() == Some((i + 1) as f64)
                        && r["estimate"].as_f64().is_some()
                        // A sampled round drew something; an exact round
                        // drew nothing and has margin of error 0.
                        && match (r["sample_size"].as_f64(), r["moe"].as_f64()) {
                            (Some(n), Some(moe)) => n > 0.0 || (n == 0.0 && moe == 0.0),
                            _ => false,
                        }
                })
        });
        if !well_formed {
            eprintln!("kg-load: trace trajectory missing or malformed: {body}");
            std::process::exit(1);
        }
        println!(
            "kg-load: trace ok: {} round(s), served_from={}",
            rounds.map(|r| r.len()).unwrap_or(0),
            parsed["trace"]["served_from"].as_str().unwrap_or("?"),
        );
    }

    if requests.len() > 1 {
        let report = run_http(addr.as_str(), &requests[1..], concurrency, timeout);
        println!("kg-load: {report}");
        if report.failed > 0 {
            std::process::exit(1);
        }
        if min_ok_rate > 0.0 {
            let ok_rate = report.ok as f64 / report.total().max(1) as f64;
            if ok_rate < min_ok_rate {
                eprintln!(
                    "kg-load: ok rate {ok_rate:.3} below required {min_ok_rate:.3} \
                     ({} ok of {})",
                    report.ok,
                    report.total(),
                );
                std::process::exit(1);
            }
        }
        degraded_total += report.degraded;
    }
    if max_degraded >= 0 && degraded_total > max_degraded as usize {
        eprintln!("kg-load: {degraded_total} degraded answer(s) exceed the allowed {max_degraded}");
        std::process::exit(1);
    }
    if degraded_total < min_degraded {
        eprintln!(
            "kg-load: only {degraded_total} degraded answer(s), required at least {min_degraded}"
        );
        std::process::exit(1);
    }
}
