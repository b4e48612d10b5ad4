//! O(1) draws from a discrete distribution: the shared draw table behind
//! every sampler in the engine.
//!
//! Three hot paths used to duplicate the same draw logic — the global
//! [`crate::PreparedSampler`], the per-shard [`crate::ShardSampler`] and
//! the assembled query plan in `kg-aqp` each kept their own cumulative
//! array and ran an O(log n) binary search per draw, with a NaN-prone
//! `partial_cmp(..).unwrap()` inside the comparator. [`AliasTable`]
//! replaces all three:
//!
//! * **One build per prepare.** The table is built once when a sampler is
//!   prepared (O(n)), cached alongside it in `SamplerCache`, and shared
//!   across the queries of a batch.
//! * **Expected O(1) per draw.** A Walker-style bucket table over the
//!   cumulative weights: `[0, 1)` is cut into `n` equal buckets and each
//!   bucket stores the first answer index whose cumulative weight reaches
//!   the bucket's start ("cutpoint"/guide-table member of the alias-method
//!   family, Chen–Asau). A draw locates its bucket with one multiply and
//!   finishes with an expected ≤ 2-step scan: summed over a uniform draw,
//!   the scan work is `1 + n/n` regardless of how skewed the weights are.
//! * **Bit-identical to inverse-CDF search.** Unlike a textbook Vose table
//!   — which re-partitions probability mass and therefore maps a uniform
//!   variate to a *different* answer than CDF inversion would — the
//!   cutpoint table computes exactly `min(partition_point(c < x), n - 1)`
//!   over the same cumulative array the binary search used. Every draw is
//!   therefore bitwise-identical to the pre-table engine for the same RNG
//!   stream, which is the compatibility contract pinned by
//!   `tests/alias_properties.rs` (the old binary search survives there as
//!   the reference implementation, see [`reference_cdf_index`]).
//! * **No NaN panics.** Weights are validated once at build time —
//!   non-finite or negative weights are a structured [`WeightError`], so
//!   the draw loop needs no `partial_cmp(..).unwrap()` and a degenerate
//!   answer set fails at *prepare* time with [`kg_core::KgError`] context
//!   instead of panicking mid-draw.
//!
//! Construction is a pure function of the weight slice — there are no
//! tie-break choices to make, so two builds from the same weights are
//! identical and cache sharing is sound.

use kg_core::KgError;
use rand::Rng;
use std::fmt;

/// Why a draw table could not be built from a weight slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightError {
    /// The weight slice was empty (callers represent "no candidates" as an
    /// absent table, not an empty one).
    Empty,
    /// A weight was NaN or infinite.
    NonFinite {
        /// Index of the offending weight.
        index: usize,
        /// The offending value.
        weight: f64,
    },
    /// A weight was negative.
    Negative {
        /// Index of the offending weight.
        index: usize,
        /// The offending value.
        weight: f64,
    },
    /// All weights were zero: no probability mass to draw from.
    ZeroTotal,
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::Empty => write!(f, "cannot build a draw table from zero weights"),
            WeightError::NonFinite { index, weight } => {
                write!(f, "non-finite weight at index {index}: {weight}")
            }
            WeightError::Negative { index, weight } => {
                write!(f, "negative weight at index {index}: {weight}")
            }
            WeightError::ZeroTotal => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for WeightError {}

impl From<WeightError> for KgError {
    fn from(e: WeightError) -> Self {
        match e {
            WeightError::NonFinite { index, weight } | WeightError::Negative { index, weight } => {
                KgError::DegenerateWeights { index, weight }
            }
            WeightError::Empty => KgError::DegenerateWeights {
                index: 0,
                weight: f64::NAN,
            },
            WeightError::ZeroTotal => KgError::DegenerateWeights {
                index: 0,
                weight: 0.0,
            },
        }
    }
}

/// A prepared draw table over `n` weights: build once in O(n), draw in
/// expected O(1), bit-identical to inverse-CDF binary search (see the
/// [module docs](self)).
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Running sums of the input weights, in input order (the same array
    /// the binary-search draw used; the last entry is the total mass, ≈ 1
    /// for normalised inputs).
    cumulative: Vec<f64>,
    /// `bucket_first[j]` = first index whose cumulative weight reaches
    /// `j / n` — where the within-bucket scan of a draw starts.
    bucket_first: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from a slice of (typically normalised) weights.
    ///
    /// Weights must be finite, non-negative and not all zero; violations
    /// are reported as a structured [`WeightError`] so callers surface
    /// degenerate answer sets at prepare time. The cumulative sums are
    /// computed by the same left-to-right accumulation the binary-search
    /// draw path used, so draws stay bit-compatible.
    pub fn new(weights: &[f64]) -> Result<Self, WeightError> {
        if weights.is_empty() {
            return Err(WeightError::Empty);
        }
        let mut any_positive = false;
        for (index, &weight) in weights.iter().enumerate() {
            if !weight.is_finite() {
                return Err(WeightError::NonFinite { index, weight });
            }
            if weight < 0.0 {
                return Err(WeightError::Negative { index, weight });
            }
            any_positive |= weight > 0.0;
        }
        if !any_positive {
            return Err(WeightError::ZeroTotal);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            cumulative.push(acc);
        }
        let n = cumulative.len();
        let inv_n = 1.0 / n as f64;
        let mut bucket_first = Vec::with_capacity(n);
        let mut p = 0usize;
        for j in 0..n {
            let start = j as f64 * inv_n;
            while p < n && cumulative[p] < start {
                p += 1;
            }
            bucket_first.push(p as u32);
        }
        Ok(Self {
            cumulative,
            bucket_first,
        })
    }

    /// Number of weights in the table.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false: empty weight slices are rejected at build time.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The cumulative weight array (exposed for the reference comparison in
    /// the property tests).
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// Maps a uniform variate `x ∈ [0, 1)` to an answer index: exactly
    /// `min(first i with cumulative[i] >= x, n - 1)`, the inverse-CDF rule
    /// the binary-search draw implemented — in expected O(1).
    pub fn index_of(&self, x: f64) -> usize {
        let n = self.cumulative.len();
        let bucket = ((x * n as f64) as usize).min(n - 1);
        let mut i = self.bucket_first[bucket] as usize;
        // `bucket` is computed with a rounding float multiply; the two
        // guard loops make the result exact regardless of which side the
        // rounding fell on. The backward loop runs ~never (only when
        // `x * n` rounded up across a bucket boundary); the forward scan
        // is the expected-O(1) cutpoint walk.
        while i > 0 && self.cumulative[i - 1] >= x {
            i -= 1;
        }
        while i < n && self.cumulative[i] < x {
            i += 1;
        }
        i.min(n - 1)
    }

    /// Draws one answer index using `rng` (one uniform variate per draw,
    /// like the binary-search path it replaces).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.index_of(rng.gen())
    }
}

/// The pre-table draw rule, kept verbatim as the test-only reference
/// implementation: binary search of a uniform variate in the cumulative
/// array, with the insertion point clamped to the last answer. Property
/// tests assert [`AliasTable::index_of`] agrees with this draw-for-draw;
/// production code must use the table.
///
/// One deliberate divergence, unreachable by real draws: when `x` lands
/// *exactly* on a cumulative value that is duplicated (duplicates only
/// arise from zero-weight answers), `binary_search_by` reports an
/// unspecified duplicate while the table always reports the first. A
/// 53-bit uniform variate hits any given boundary with probability 2⁻⁵³,
/// so transcript-level equality is unaffected.
///
/// (This is the one place the NaN-prone `partial_cmp(..).unwrap()`
/// survives — acceptable for a reference that only ever sees validated
/// cumulative arrays in tests.)
pub fn reference_cdf_index(cumulative: &[f64], x: f64) -> usize {
    match cumulative.binary_search_by(|c| c.partial_cmp(&x).unwrap()) {
        Ok(i) => i,
        Err(i) => i.min(cumulative.len() - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_weight_slices() {
        assert_eq!(AliasTable::new(&[]).unwrap_err(), WeightError::Empty);
        match AliasTable::new(&[0.5, f64::NAN]).unwrap_err() {
            // Not `assert_eq!`: NaN payloads never compare equal.
            WeightError::NonFinite { index: 1, weight } if weight.is_nan() => {}
            other => panic!("expected NonFinite at index 1, got {other:?}"),
        }
        assert_eq!(
            AliasTable::new(&[f64::INFINITY]).unwrap_err(),
            WeightError::NonFinite {
                index: 0,
                weight: f64::INFINITY
            }
        );
        assert_eq!(
            AliasTable::new(&[0.5, -0.1]).unwrap_err(),
            WeightError::Negative {
                index: 1,
                weight: -0.1
            }
        );
        assert_eq!(
            AliasTable::new(&[0.0, 0.0]).unwrap_err(),
            WeightError::ZeroTotal
        );
    }

    #[test]
    fn weight_errors_convert_to_structured_kg_errors() {
        let e: KgError = WeightError::NonFinite {
            index: 7,
            weight: f64::NAN,
        }
        .into();
        match e {
            KgError::DegenerateWeights { index, weight } => {
                assert_eq!(index, 7);
                assert!(weight.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn single_answer_always_draws_index_zero() {
        let t = AliasTable::new(&[1.0]).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn matches_reference_binary_search_draw_for_draw() {
        // Skewed weights incl. zero-probability entries (duplicate
        // cumulative values) and tiny tail mass.
        let weights = [0.5, 0.0, 1e-12, 0.25, 0.0, 0.25 - 1e-12];
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..200_000 {
            let x: f64 = rand::Rng::gen(&mut rng);
            assert_eq!(
                t.index_of(x),
                reference_cdf_index(t.cumulative(), x),
                "x={x}"
            );
        }
        // Boundary variates on a duplicate-free table, including exact
        // cumulative values and a variate ≥ the (rounded) total mass.
        let plain = AliasTable::new(&[0.25, 0.25, 0.25, 0.25]).unwrap();
        for x in [0.0, 0.25, 0.5, 0.75, 0.4999999999999999, 0.9999999999999999] {
            assert_eq!(
                plain.index_of(x),
                reference_cdf_index(plain.cumulative(), x),
                "x={x}"
            );
        }
    }

    #[test]
    fn all_equal_weights_draw_uniformly() {
        let t = AliasTable::new(&[0.25; 4]).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        for c in counts {
            let frac = c as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "{counts:?}");
        }
    }
}
