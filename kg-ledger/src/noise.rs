//! `kg-ledger noise --runs N`: the acceptance check run on ourselves. Two
//! sets of N full runs per workload, interleaved (A1 B1 A2 B2 …, workloads
//! round-robin inside each) so a slow minute of the host lands on both
//! sets, every run with another seed; per metric × workload the table
//! gives each set's median and quartile spread and the gap between the
//! medians, next to the bound `BENCHMARK.json` sets.

use crate::inputs::Workload;
use crate::stats::{median, quartile_spread};
use crate::{benchmark_json, END_TO_END};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// One run in a child process, so every run starts from a fresh heap as
/// the driver's do. Returns `name → value` of the result line.
fn one_run(workload: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json: Value = serde_json::from_str(last).map_err(|e| format!("{e}: {last}"))?;
    if json.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} seed {seed} was not correct:\n{stdout}",
            workload.name()
        ));
    }
    let metrics = json
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

pub fn noise(runs: usize, seconds: f64) -> Result<(), String> {
    let json = benchmark_json()?;
    let bound = |name: &str| {
        json.get("end_to_end")
            .and_then(Value::as_array)
            .and_then(|a| {
                a.iter()
                    .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
            })
            .and_then(|e| e.get("bound")?.as_f64())
            .unwrap_or(f64::NAN)
    };
    // samples[(workload, metric)][set] = one value per run
    let mut samples: BTreeMap<(usize, usize), [Vec<f64>; 2]> = BTreeMap::new();
    for run in 0..runs {
        for set in 0..2 {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                let seed = 1 + (run + set * runs) as u64;
                let values = one_run(workload, seed, seconds)?;
                for (m, (name, _)) in END_TO_END.iter().enumerate() {
                    let value = *values.get(*name).ok_or(format!("{name} missing"))?;
                    samples.entry((w, m)).or_default()[set].push(value);
                }
            }
        }
    }
    println!("| workload | metric | median A | median B | spread A | spread B | gap | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for ((w, m), [a, b]) in &samples {
        let name = END_TO_END[*m].0;
        let (ma, mb) = (median(a), median(b));
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.1} % | {:.1} % | {:.1} % | {:.1} % |",
            Workload::ALL[*w].name(),
            name,
            ma,
            mb,
            100.0 * quartile_spread(a),
            100.0 * quartile_spread(b),
            100.0 * (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE),
            100.0 * bound(name),
        );
    }
    Ok(())
}
