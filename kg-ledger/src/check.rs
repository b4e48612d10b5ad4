//! `kg-ledger check`: the quick self-test. One timed pass per workload
//! (after the warm-up pass it is compared with), and the declarations in
//! `BENCHMARK.json` against what the harness prints.

use crate::inputs::{Inputs, Workload};
use crate::run::{exact_answers, run_pass, score, setup, tau_gt_moved};
use crate::{benchmark_json, END_TO_END, PER_LAYER};
use serde_json::Value;

/// `(name, unit)` of every entry of `BENCHMARK.json`'s array `key`.
fn declared(json: &Value, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(Value::as_array)
        .map(|entries| {
            entries
                .iter()
                .map(|e| {
                    let text = |k: &str| {
                        e.get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (text("name"), text("unit"))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn printed(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Every way the ledger disagrees with itself; empty when it is sound.
pub fn check() -> Vec<String> {
    let mut faults = Vec::new();
    match benchmark_json() {
        Err(e) => faults.push(e),
        Ok(json) => {
            if declared(&json, "end_to_end") != printed(&END_TO_END) {
                faults.push("BENCHMARK.json end_to_end differs from the metrics printed".into());
            }
            if declared(&json, "per_layer") != printed(&PER_LAYER) {
                faults.push("BENCHMARK.json per_layer differs from the metrics printed".into());
            }
            let workloads: Vec<String> = json
                .get("workloads")
                .and_then(Value::as_array)
                .map(|w| {
                    w.iter()
                        .filter_map(|e| Some(e.get("name")?.as_str()?.to_string()))
                        .collect()
                })
                .unwrap_or_default();
            if workloads != Workload::ALL.map(|w| w.name().to_string()) {
                faults.push("BENCHMARK.json workloads differ from the workloads run".into());
            }
        }
    }

    // One set of inputs serves all four: only `write_churn`, the last,
    // moves its state (the writes issued).
    let mut inputs = Inputs::new(11);
    let tau_gt = exact_answers(&inputs, &inputs.dataset.graph);
    for workload in Workload::ALL {
        let sound = faults.len();
        let setup = setup(workload, &mut inputs);
        let pass = run_pass(&setup.stack, &mut inputs, workload);
        let outcome = score(workload, &setup, &[pass], &tau_gt);
        faults.extend(
            outcome
                .faults
                .iter()
                .map(|f| format!("{}: {f}", workload.name())),
        );
        // R2: a sub-millisecond median measures the scheduler's core
        // placement (a cache hit reads 45 µs or 9 µs by it), not the program.
        let p50 = outcome
            .metrics
            .iter()
            .find(|m| m.name == "latency_p50_ms")
            .expect("scored")
            .value;
        if p50 < 1.0 {
            faults.push(format!(
                "{}: latency_p50_ms {p50:.3} is below 1 ms; re-mix the workload",
                workload.name()
            ));
        }
        if workload == Workload::WriteChurn {
            faults.extend(tau_gt_moved(&inputs, &tau_gt).map(|f| format!("write_churn: {f}")));
        }
        println!(
            "check {:<16} {}",
            workload.name(),
            if faults.len() == sound { "ok" } else { "FAULT" }
        );
    }
    faults
}
