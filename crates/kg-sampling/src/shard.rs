//! Per-shard samplers: the answer distribution of a prepared sampler (or of
//! an assembled query plan) restricted to one shard's owned candidates.
//!
//! Sharded execution runs the paper's sampling–estimation loop as a
//! **stratified** design: π is computed once, globally, and the
//! resulting answer distribution π_A is split by shard ownership into
//! strata. Stratum `k` keeps the candidates owned by shard `k` with their
//! probabilities re-normalised to sum to 1 (π'_k = π/W_k, where the
//! **stratum weight** W_k is the total π mass the shard owns). Each shard
//! then draws i.i.d. from its own [`ShardSampler`] with its own RNG stream,
//! and the per-shard Horvitz–Thompson estimates compose by stratified
//! summation in `kg-estimate`.
//!
//! Restriction is one pass over the distribution plus one alias-table build,
//! no more than planning already spends on the same distribution, so every
//! session restricts afresh.

use crate::alias::AliasTable;
use crate::sampler::SampledAnswer;
use kg_core::EntityId;
use rand::Rng;

/// One stratum of an answer distribution: the candidates a shard owns, with
/// probabilities re-normalised within the stratum.
#[derive(Clone, Debug)]
pub struct ShardSampler {
    shard: usize,
    /// Candidates owned by the shard, by global entity id; probabilities
    /// sum to 1 within the stratum.
    answers: Vec<SampledAnswer>,
    /// O(1) draw table over the within-stratum probabilities; `None` when
    /// the shard owns no candidates.
    table: Option<AliasTable>,
    /// The stratum weight W_k: total probability mass of the unrestricted
    /// distribution owned by this shard. Σ_k W_k = 1 over all shards (up to
    /// float rounding) when every candidate is owned somewhere.
    weight: f64,
}

impl ShardSampler {
    /// Restricts `distribution` (entity, probability) — normalised over the
    /// *whole* candidate set — to the candidates for which `owned` returns
    /// true, re-normalising within the stratum.
    ///
    /// Probabilities are divided by the stratum weight in entity order (the
    /// input order), so restriction is deterministic bit-for-bit.
    ///
    /// # Panics
    ///
    /// The input probabilities must be finite and non-negative. Every
    /// distribution handed to this function comes from a plan whose weights
    /// were already validated at prepare time ([`crate::prepare`] /
    /// `kg-aqp` planning reject degenerate weights with a structured
    /// error), so the internal draw-table build asserts rather than
    /// propagating a second error path.
    pub fn from_distribution(
        shard: usize,
        distribution: &[(EntityId, f64)],
        mut owned: impl FnMut(EntityId) -> bool,
    ) -> Self {
        let mut answers: Vec<SampledAnswer> = distribution
            .iter()
            .filter(|(e, _)| owned(*e))
            .map(|&(entity, probability)| SampledAnswer {
                entity,
                probability,
            })
            .collect();
        let weight: f64 = answers.iter().map(|a| a.probability).sum();
        if weight > 0.0 {
            for a in &mut answers {
                a.probability /= weight;
            }
        } else if !answers.is_empty() {
            let uniform = 1.0 / answers.len() as f64;
            for a in &mut answers {
                a.probability = uniform;
            }
        }
        let table = if answers.is_empty() {
            None
        } else {
            let weights: Vec<f64> = answers.iter().map(|a| a.probability).collect();
            Some(AliasTable::new(&weights).expect("restriction of a validated distribution"))
        };
        Self {
            shard,
            answers,
            table,
            weight,
        }
    }

    /// The shard this stratum belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of candidates in the stratum.
    pub fn candidate_count(&self) -> usize {
        self.answers.len()
    }

    /// True when the shard owns no candidates of this distribution.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The stratum weight W_k (see the type docs).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The stratum's candidates with their within-stratum probabilities.
    pub fn answer_distribution(&self) -> &[SampledAnswer] {
        &self.answers
    }

    /// Draws `count` answers i.i.d. from the stratum distribution via the
    /// prepared [`AliasTable`] (expected O(1) per draw, bit-identical to
    /// the binary search it replaced); each carries its within-stratum
    /// probability π'_k. Empty when the stratum holds no candidates.
    pub fn draw<R: Rng>(&self, rng: &mut R, count: usize) -> Vec<SampledAnswer> {
        let Some(table) = &self.table else {
            return Vec::new();
        };
        (0..count)
            .map(|_| self.answers[table.sample(rng)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn distribution() -> Vec<(EntityId, f64)> {
        vec![
            (EntityId::new(0), 0.4),
            (EntityId::new(1), 0.1),
            (EntityId::new(2), 0.3),
            (EntityId::new(3), 0.2),
        ]
    }

    #[test]
    fn restriction_renormalises_and_keeps_weight() {
        let d = distribution();
        let even = ShardSampler::from_distribution(0, &d, |e| e.index() % 2 == 0);
        assert_eq!(even.candidate_count(), 2);
        assert!((even.weight() - 0.7).abs() < 1e-12);
        let total: f64 = even
            .answer_distribution()
            .iter()
            .map(|a| a.probability)
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Relative proportions survive the re-normalisation.
        let p0 = even.answer_distribution()[0].probability;
        let p2 = even.answer_distribution()[1].probability;
        assert!((p0 / p2 - 0.4 / 0.3).abs() < 1e-12);
        assert_eq!(even.shard(), 0);
    }

    #[test]
    fn weights_partition_unity_across_shards() {
        let d = distribution();
        let strata: Vec<ShardSampler> = (0..2)
            .map(|s| ShardSampler::from_distribution(s, &d, |e| e.index() % 2 == s))
            .collect();
        let total: f64 = strata.iter().map(ShardSampler::weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stratum_draws_nothing() {
        let d = distribution();
        let none = ShardSampler::from_distribution(1, &d, |_| false);
        assert!(none.is_empty());
        assert_eq!(none.weight(), 0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(none.draw(&mut rng, 5).is_empty());
    }

    #[test]
    fn draws_follow_the_stratum_distribution() {
        let d = distribution();
        let stratum = ShardSampler::from_distribution(0, &d, |e| e.index() < 2);
        let mut rng = SmallRng::seed_from_u64(11);
        let sample = stratum.draw(&mut rng, 20_000);
        let heavy = sample
            .iter()
            .filter(|a| a.entity == EntityId::new(0))
            .count() as f64
            / 20_000.0;
        // π'_0 = 0.4 / 0.5 = 0.8.
        assert!((heavy - 0.8).abs() < 0.02, "observed {heavy}");
    }
}
