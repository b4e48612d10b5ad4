//! # kg-estimate — estimators, correctness validation and accuracy guarantees
//!
//! Implementation of §IV-B and §IV-C of the paper:
//!
//! * **Horvitz–Thompson estimators** ([`estimators`]) for COUNT and SUM
//!   (unbiased, Lemmas 3–4) and the ratio estimator for AVG (consistent,
//!   Lemma 5), computed over the validated sample S⁺_A using each answer's
//!   visiting probability π'_i. MAX/MIN are supported best-effort over the
//!   sample (no accuracy guarantee).
//! * **Correctness validation** ([`validation`]): a greedy, stationary-
//!   probability-guided path search with repeat factor *r* that finds a
//!   high-similarity subgraph match for each sampled answer and keeps only
//!   answers with similarity ≥ τ. No false positives are possible; the repeat
//!   factor trades false negatives for time (Fig. 6(c)).
//! * **Confidence intervals** ([`confidence`]): CLT margins of error with the
//!   variance estimated by bootstrap / Bag of Little Bootstraps (Eq. 10–11).
//! * **Sample-size refinement** ([`refine`]): Theorem 2's termination test
//!   `ε ≤ V̂·eb/(1+eb)` and the error-based Δ|S_A| configuration of Eq. 12,
//!   plus the fixed-increment alternative used as an ablation (Fig. 5(c)).
//!
//! ```
//! use kg_estimate::{estimate, ValidatedAnswer};
//! use kg_query::{AggregateFunction, ResolvedAggregate};
//!
//! // Four answers sampled uniformly from a population of four: the HT COUNT
//! // estimator recovers the population size exactly (Lemma 4).
//! let sample: Vec<ValidatedAnswer> = (0..4)
//!     .map(|_| ValidatedAnswer { probability: 0.25, value: Some(1.0), correct: true, similarity: 1.0 })
//!     .collect();
//! let count = ResolvedAggregate { function: AggregateFunction::Count, attribute: None };
//! assert!((estimate(&count, &sample) - 4.0).abs() < 1e-12);
//! ```

pub mod confidence;
pub mod estimators;
pub mod refine;
pub mod stratified;
pub mod validation;

pub use confidence::{blb_moe, bootstrap_moe, normal_critical_value, BootstrapConfig};
pub use estimators::{estimate, EstimateAccumulator, ValidatedAnswer};
pub use refine::{
    achieved_error_bound, additional_sample_size, moe_threshold, satisfies_error_bound,
};
pub use stratified::{
    allocate_proportional, combine_point_terms, merge_strata, neutral_point_terms,
    stratified_point, stratum_point_terms, MergedEstimate, StratumEstimate,
};
pub use validation::{validate_answer, ValidationConfig, ValidationOutcome, ValidationTable};
