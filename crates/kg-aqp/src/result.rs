//! Result types returned by the engine: estimate, confidence interval,
//! per-round traces and per-step timings.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One refinement round (Table IX's case-study rows).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundTrace {
    /// Round number (1-based).
    pub round: usize,
    /// The estimate V̂ after this round.
    pub estimate: f64,
    /// The margin of error ε after this round.
    pub moe: f64,
    /// Total sample size |S_A| used in this round.
    pub sample_size: usize,
    /// Size of the validated subset |S⁺_A|.
    pub correct_size: usize,
}

/// Wall-clock time spent in each of the three steps of the online phase
/// (Table XII): S1 semantic-aware sampling, S2 approximate estimation
/// (including correctness validation), S3 accuracy guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StepTimings {
    /// Sampling time in milliseconds (sampler preparation + draws). Zero
    /// for an exact answer, which prepares and draws nothing.
    pub sampling_ms: f64,
    /// Estimation time in milliseconds (validation + estimators). For an
    /// exact answer this is the plan's path walks (the exact match) plus
    /// the aggregate over its answers.
    pub estimation_ms: f64,
    /// Accuracy-guarantee time in milliseconds (bootstrap CIs + Eq. 12).
    pub guarantee_ms: f64,
}

impl StepTimings {
    /// Total time across the three steps.
    pub fn total_ms(&self) -> f64 {
        self.sampling_ms + self.estimation_ms + self.guarantee_ms
    }
}

/// The answer to an approximate aggregate query.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryAnswer {
    /// The approximate aggregate V̂.
    pub estimate: f64,
    /// Margin of error ε of the confidence interval V̂ ± ε.
    pub moe: f64,
    /// The confidence level 1 − α of the interval.
    pub confidence: f64,
    /// Whether the error-bound guarantee of Theorem 2 was met before the
    /// round/sample caps were hit.
    pub guarantee_met: bool,
    /// Per-round refinement trace.
    pub rounds: Vec<RoundTrace>,
    /// GROUP-BY results (bucket index → estimate); empty without GROUP-BY.
    pub groups: BTreeMap<i64, f64>,
    /// Per-step timings.
    pub timings: StepTimings,
    /// Final sample size |S_A|.
    pub sample_size: usize,
    /// Number of candidate answers |A| seen by the sampler.
    pub candidate_count: usize,
    /// Milliseconds this answer took. From `refine_to` / `refine_with` /
    /// `refine_deadline`: the wall-clock time of that call, plus the
    /// session's planning time if the call ran the session's first round
    /// (planning happens once, when the session is opened — later calls on
    /// the same session do not report it again). From `snapshot_answer`: the
    /// stage time accumulated over the session's life
    /// ([`StepTimings::total_ms`]), since a snapshot has no call to time.
    pub elapsed_ms: f64,
    /// Shards whose strata could not contribute to this answer (remote
    /// execution only; always empty in-process). Non-empty means the
    /// estimate covers the surviving strata — a *degraded* answer with a
    /// wider interval rather than an error.
    pub missing_shards: Vec<usize>,
}

impl QueryAnswer {
    /// Whether any stratum was unreachable when this answer was assembled
    /// (see [`Self::missing_shards`]).
    pub fn is_degraded(&self) -> bool {
        !self.missing_shards.is_empty()
    }
    /// The confidence interval as a `(low, high)` pair.
    pub fn confidence_interval(&self) -> (f64, f64) {
        (self.estimate - self.moe, self.estimate + self.moe)
    }

    /// Relative error of the estimate against a known ground truth.
    pub fn relative_error(&self, ground_truth: f64) -> f64 {
        if ground_truth == 0.0 {
            if self.estimate == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.estimate - ground_truth).abs() / ground_truth.abs()
        }
    }

    /// Number of refinement rounds executed.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(estimate: f64, moe: f64) -> QueryAnswer {
        QueryAnswer {
            estimate,
            moe,
            confidence: 0.95,
            guarantee_met: true,
            rounds: vec![RoundTrace {
                round: 1,
                estimate,
                moe,
                sample_size: 100,
                correct_size: 90,
            }],
            groups: BTreeMap::new(),
            timings: StepTimings {
                sampling_ms: 1.0,
                estimation_ms: 2.0,
                guarantee_ms: 3.0,
            },
            sample_size: 100,
            candidate_count: 500,
            elapsed_ms: 6.5,
            missing_shards: Vec::new(),
        }
    }

    #[test]
    fn interval_and_errors() {
        let a = answer(100.0, 5.0);
        assert_eq!(a.confidence_interval(), (95.0, 105.0));
        assert!((a.relative_error(104.0) - 4.0 / 104.0).abs() < 1e-12);
        assert_eq!(a.relative_error(0.0), f64::INFINITY);
        assert_eq!(answer(0.0, 0.0).relative_error(0.0), 0.0);
        assert_eq!(a.round_count(), 1);
        assert_eq!(a.timings.total_ms(), 6.0);
    }
}
