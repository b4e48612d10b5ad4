//! Serialisable per-round draw/validate messages for distributed execution.
//!
//! These are the payloads a coordinator exchanges with remote shard servers
//! on every refine round: a [`StratumTask`] tells one shard how far to advance
//! its stratum (as a replayable draw/compute history, so a fresh replica can
//! reconstruct the exact RNG state), and the shard answers with a
//! [`StratumReport`] — the stratum's Horvitz–Thompson terms and bootstrap
//! replicates, ready for the coordinator's replicate-wise merge. GROUP-BY
//! snapshots additionally ship per-bucket point-estimate terms as
//! [`BucketTerm`]s.
//!
//! Every type round-trips through the shard protocol's binary codec
//! (`encode` / `decode`). Floats travel as raw IEEE-754 bits, so `NaN`
//! payloads (MAX/MIN neutral terms) and `-0.0` survive bitwise.

use kg_core::{ByteReader, ByteWriter, DecodeError};

/// One shard's marching orders for a refine round.
///
/// The task is *stateless-replayable*: rather than assuming the shard still
/// holds the session from the previous round, it carries the full history of
/// per-round draw counts plus how many rounds have already been validated and
/// estimated (`steps`). A shard that cached the session applies only the
/// incremental tail; a cold replica replays the whole history and lands on
/// the identical RNG state, which is what makes hedging and failover
/// byte-deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StratumTask {
    /// Which shard's stratum this task addresses.
    pub shard: usize,
    /// Draw counts for every round so far, oldest first. For a step request
    /// `draws.len() == steps + 1` (the last entry is the new round's draws);
    /// for a snapshot request the trailing entry may be absent.
    pub draws: Vec<u64>,
    /// Completed validate+estimate rounds before this task.
    pub steps: usize,
    /// Bootstrap replicate count, constant for the whole session.
    pub resamples: usize,
}

impl StratumTask {
    /// Appends the binary encoding to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.shard as u64);
        w.put_len(self.draws.len());
        for &d in &self.draws {
            w.put_u64(d);
        }
        w.put_u64(self.steps as u64);
        w.put_u64(self.resamples as u64);
    }

    /// Decodes the binary encoding produced by [`StratumTask::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let shard = r.u64()? as usize;
        let n = r.len(8, "draw counts")?;
        let mut draws = Vec::with_capacity(n);
        for _ in 0..n {
            draws.push(r.u64()?);
        }
        Ok(Self {
            shard,
            draws,
            steps: r.u64()? as usize,
            resamples: r.u64()? as usize,
        })
    }
}

/// One shard's per-round answer: the stratum estimate in wire form.
///
/// Mirrors `kg_estimate::StratumEstimate` field-for-field (plus the two
/// shard-side timing readings the coordinator folds into its round trace).
/// All floats are carried bitwise so the coordinator-side merge is
/// indistinguishable from the in-process path.
#[derive(Clone, Debug, PartialEq)]
pub struct StratumReport {
    /// Primary HT term (shard-local point estimate numerator/extreme).
    pub primary: f64,
    /// Secondary HT term (denominator for ratio estimators, else 0).
    pub secondary: f64,
    /// Bootstrap replicate term pairs, length == task `resamples`.
    pub replicates: Vec<(f64, f64)>,
    /// Validated answers drawn into this stratum so far.
    pub sample_size: usize,
    /// How many of them passed semantic validation.
    pub correct: usize,
    /// Shard-side validation wall-clock for this round, milliseconds.
    pub validate_ms: f64,
    /// Shard-side bootstrap wall-clock for this round, milliseconds.
    pub bootstrap_ms: f64,
}

impl StratumReport {
    /// Appends the binary encoding to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(self.primary);
        w.put_f64(self.secondary);
        w.put_len(self.replicates.len());
        for &(p, s) in &self.replicates {
            w.put_f64(p);
            w.put_f64(s);
        }
        w.put_u64(self.sample_size as u64);
        w.put_u64(self.correct as u64);
        w.put_f64(self.validate_ms);
        w.put_f64(self.bootstrap_ms);
    }

    /// Decodes the binary encoding produced by [`StratumReport::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let primary = r.f64()?;
        let secondary = r.f64()?;
        let n = r.len(16, "replicate pairs")?;
        let mut replicates = Vec::with_capacity(n);
        for _ in 0..n {
            let p = r.f64()?;
            let s = r.f64()?;
            replicates.push((p, s));
        }
        Ok(Self {
            primary,
            secondary,
            replicates,
            sample_size: r.u64()? as usize,
            correct: r.u64()? as usize,
            validate_ms: r.f64()?,
            bootstrap_ms: r.f64()?,
        })
    }
}

/// One GROUP-BY bucket's point-estimate terms from a single stratum.
///
/// A shard only emits terms for bucket keys that appear with a validated
/// answer in its own sample; the coordinator unions the key sets and fills
/// the neutral terms for strata that never saw a key — which is
/// bitwise-identical to evaluating those strata directly (pinned by
/// `kg-estimate`'s neutral-term test).
#[derive(Clone, Debug, PartialEq)]
pub struct BucketTerm {
    /// The bucket key (`floor(value / width)`).
    pub key: i64,
    /// Primary point term for this (bucket, stratum).
    pub primary: f64,
    /// Secondary point term for this (bucket, stratum).
    pub secondary: f64,
}

impl BucketTerm {
    /// Appends the binary encoding to `w`.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.key as u64);
        w.put_f64(self.primary);
        w.put_f64(self.secondary);
    }

    /// Decodes the binary encoding produced by [`BucketTerm::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            key: r.u64()? as i64,
            primary: r.f64()?,
            secondary: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> StratumTask {
        StratumTask {
            shard: 3,
            draws: vec![64, 17, 0, 255],
            steps: 3,
            resamples: 50,
        }
    }

    fn report() -> StratumReport {
        StratumReport {
            primary: 1234.5678,
            secondary: -0.0,
            replicates: vec![(1.0, 2.0), (f64::NAN, 0.5), (f64::INFINITY, -3.25)],
            sample_size: 81,
            correct: 77,
            validate_ms: 0.125,
            bootstrap_ms: f64::NEG_INFINITY,
        }
    }

    fn bits(pair: (f64, f64)) -> (u64, u64) {
        (pair.0.to_bits(), pair.1.to_bits())
    }

    #[test]
    fn task_round_trips_both_codecs() {
        let t = task();
        let mut w = ByteWriter::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(StratumTask::decode(&mut r).unwrap(), t);
        r.finish().unwrap();
    }

    #[test]
    fn report_round_trips_bitwise_in_both_codecs() {
        let rep = report();
        let mut w = ByteWriter::new();
        rep.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = StratumReport::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.primary.to_bits(), rep.primary.to_bits());
        assert_eq!(decoded.secondary.to_bits(), rep.secondary.to_bits());
        assert_eq!(decoded.replicates.len(), rep.replicates.len());
        for (a, b) in decoded.replicates.iter().zip(&rep.replicates) {
            assert_eq!(bits(*a), bits(*b));
        }
        assert_eq!(decoded.sample_size, rep.sample_size);
        assert_eq!(decoded.correct, rep.correct);
        assert_eq!(decoded.bootstrap_ms.to_bits(), rep.bootstrap_ms.to_bits());
    }

    #[test]
    fn bucket_term_round_trips_including_nan_and_negative_keys() {
        let b = BucketTerm {
            key: -41,
            primary: f64::NAN,
            secondary: 0.0,
        };
        let mut w = ByteWriter::new();
        b.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let decoded = BucketTerm::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.key, b.key);
        assert_eq!(decoded.primary.to_bits(), b.primary.to_bits());
        assert_eq!(decoded.secondary.to_bits(), b.secondary.to_bits());
    }

    #[test]
    fn truncated_binary_is_a_structured_error() {
        let mut w = ByteWriter::new();
        report().encode(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, 8, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(StratumReport::decode(&mut r).is_err());
        }
        // A hostile replicate count larger than the remaining bytes is
        // rejected before any allocation.
        let mut w = ByteWriter::new();
        w.put_f64(0.0);
        w.put_f64(0.0);
        w.put_len(usize::MAX / 16);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(StratumReport::decode(&mut r).is_err());
    }
}
