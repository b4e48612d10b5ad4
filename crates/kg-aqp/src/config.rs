//! Engine configuration (the parameters of §VII-A).

use kg_estimate::BootstrapConfig;
use kg_query::PathAggregation;
use kg_sampling::{SamplerConfig, SamplingStrategy};

/// Configuration of the approximate aggregate query engine.
///
/// The sampling parameters default to the paper's: error bound eb = 1%,
/// confidence 95%, repeat factor r = 3, desired sample ratio λ = 0.3,
/// n-bounded subgraph with n = 3 and τ = 0.85. One default is not the
/// paper's: [`Self::enumerate`] answers every plan exactly instead of
/// running Algorithm 2 on it.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Semantic-similarity threshold τ.
    pub tau: f64,
    /// User error bound eb (relative error target).
    pub error_bound: f64,
    /// Confidence level 1 − α of the returned interval.
    pub confidence: f64,
    /// Hop bound n of the n-bounded subgraph.
    pub n_bound: u32,
    /// Repeat factor r of correctness validation.
    pub repeat_factor: usize,
    /// Desired sample ratio λ: the initial sample targets λ·|A| answers.
    pub desired_sample_ratio: f64,
    /// Sampling strategy (semantic-aware by default; others for ablations).
    pub strategy: SamplingStrategy,
    /// Bootstrap / BLB parameters.
    pub bootstrap: BootstrapConfig,
    /// Maximum refinement rounds (N_e ≤ 10 in practice).
    pub max_rounds: usize,
    /// Hard cap on the total sample size.
    pub max_sample_size: usize,
    /// Whether to run correctness validation (disabled only for the
    /// Fig. 5(b) ablation).
    pub validate: bool,
    /// When set, refinement adds this fixed number of answers per round
    /// instead of the error-based Eq. 12 (the Fig. 5(c) ablation).
    pub fixed_increment: Option<usize>,
    /// Path-similarity aggregation used during validation.
    pub aggregation: PathAggregation,
    /// RNG seed for sampling (results are deterministic given the seed).
    pub seed: u64,
    /// Answer by enumeration: one path walk per simple component and per
    /// anchored chain hop finds τ-GT's answers, composed as SSB composes
    /// them, and the aggregate over them is returned exactly: one round,
    /// margin of error 0, no draws, no sampler, no shard call. A query with
    /// a candidate past SSB's path limit is sampled instead. `false` runs
    /// Algorithm 2 on every plan (the paper's tables and the suites that pin
    /// it). Not part of [`crate::config_fingerprint`]: shard servers only
    /// ever sample.
    pub enumerate: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            tau: 0.85,
            error_bound: 0.01,
            confidence: 0.95,
            n_bound: 3,
            repeat_factor: 3,
            desired_sample_ratio: 0.3,
            strategy: SamplingStrategy::SemanticAware,
            bootstrap: BootstrapConfig::default(),
            max_rounds: 10,
            max_sample_size: 20_000,
            validate: true,
            fixed_increment: None,
            aggregation: PathAggregation::GeometricMean,
            seed: 0xA96_5EED,
            enumerate: true,
        }
    }
}

impl EngineConfig {
    /// Builder-style override of the error bound.
    pub fn with_error_bound(mut self, eb: f64) -> Self {
        self.error_bound = eb;
        self
    }

    /// Builder-style override of the confidence level.
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Builder-style override of τ.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Builder-style override of the sampling strategy.
    pub fn with_strategy(mut self, strategy: SamplingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The sampler configuration implied by this engine configuration.
    pub fn sampler_config(&self) -> SamplerConfig {
        SamplerConfig {
            n_bound: self.n_bound,
            ..SamplerConfig::default()
        }
    }

    /// The initial sample size for a candidate set of size `candidates`:
    /// `t · N^m` with `N = λ·|A|` (§IV-C), at least 16 answers.
    pub fn initial_sample_size(&self, candidates: usize) -> usize {
        let n = (self.desired_sample_ratio * candidates as f64).max(1.0);
        let per_subsample = n.powf(self.bootstrap.blb_exponent);
        ((self.bootstrap.blb_subsamples as f64 * per_subsample).ceil() as usize)
            .clamp(16, self.max_sample_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = EngineConfig::default();
        assert_eq!(c.tau, 0.85);
        assert_eq!(c.error_bound, 0.01);
        assert_eq!(c.confidence, 0.95);
        assert_eq!(c.n_bound, 3);
        assert_eq!(c.repeat_factor, 3);
        assert!((c.desired_sample_ratio - 0.3).abs() < 1e-12);
        assert!(c.validate);
        assert!(c.fixed_increment.is_none());
    }

    #[test]
    fn builder_overrides() {
        let c = EngineConfig::default()
            .with_error_bound(0.05)
            .with_confidence(0.9)
            .with_tau(0.8)
            .with_strategy(SamplingStrategy::Uniform);
        assert_eq!(c.error_bound, 0.05);
        assert_eq!(c.confidence, 0.9);
        assert_eq!(c.tau, 0.8);
        assert_eq!(c.strategy, SamplingStrategy::Uniform);
        assert_eq!(c.sampler_config().n_bound, 3);
    }

    #[test]
    fn initial_sample_size_grows_with_candidates_and_lambda() {
        let c = EngineConfig::default();
        let small = c.initial_sample_size(100);
        let large = c.initial_sample_size(10_000);
        assert!(large > small);
        assert!(small >= 16);
        let c_bigger_lambda = EngineConfig {
            desired_sample_ratio: 0.5,
            ..EngineConfig::default()
        };
        assert!(c_bigger_lambda.initial_sample_size(10_000) > large);
        assert!(c.initial_sample_size(0) >= 16);
    }
}
