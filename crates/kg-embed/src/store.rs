//! Storage of one vector per predicate plus cached pairwise similarities.

use crate::similarity::{cosine_similarity, PredicateSimilarity};
use crate::vector::Vector;
use kg_core::snapshot::{put_u64, snapshot_error, SectionReader};
use kg_core::{KgResult, PredicateId};
use serde::{Deserialize, Serialize};

/// One embedding vector per predicate.
///
/// The store is the hand-off point between the offline embedding phase and
/// the online query phase: the trainer (or the synthetic oracle) produces it,
/// the query/sampling/engine crates consume it through
/// [`PredicateSimilarity`]. Pairwise similarities are precomputed, which makes
/// `similarity` an O(1) table lookup — the same cost model as the paper, where
/// predicate vectors come from an offline model.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct PredicateVectorStore {
    vectors: Vec<Vector>,
    /// Row-major |P| × |P| similarity table.
    table: Vec<f64>,
    count: usize,
}

impl PredicateVectorStore {
    /// Builds a store from `(predicate, vector)` pairs. Predicates missing
    /// from the input get a zero vector (similarity 0 to everything).
    pub fn from_vectors(pairs: Vec<(PredicateId, Vector)>) -> Self {
        let count = pairs.iter().map(|(p, _)| p.index() + 1).max().unwrap_or(0);
        let dim = pairs.first().map(|(_, v)| v.dim()).unwrap_or(0);
        let mut vectors = vec![Vector::zeros(dim); count];
        for (p, v) in pairs {
            vectors[p.index()] = v;
        }
        let mut store = Self {
            vectors,
            table: Vec::new(),
            count,
        };
        store.rebuild_table();
        store
    }

    fn rebuild_table(&mut self) {
        let n = self.count;
        let mut table = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                let s = if i == j {
                    1.0
                } else {
                    cosine_similarity(self.vectors[i].as_slice(), self.vectors[j].as_slice())
                };
                table[i * n + j] = s;
                table[j * n + i] = s;
            }
        }
        self.table = table;
    }

    /// Number of predicates covered by the store.
    pub fn predicate_count(&self) -> usize {
        self.count
    }

    /// The vector of a predicate, if in range.
    pub fn vector(&self, p: PredicateId) -> Option<&Vector> {
        self.vectors.get(p.index())
    }

    /// Embedding dimension (0 for an empty store).
    pub fn dimension(&self) -> usize {
        self.vectors.first().map(Vector::dim).unwrap_or(0)
    }

    /// Total number of stored floats — the memory proxy used in Table XIII
    /// alongside model parameters.
    pub fn stored_floats(&self) -> usize {
        self.vectors.iter().map(Vector::dim).sum::<usize>() + self.table.len()
    }

    // ------------------------------------------------------------------
    // Binary snapshot section (kind `kg_core::snapshot::section_kind::
    // SIMILARITY`)
    // ------------------------------------------------------------------

    /// Encodes the store for the binary snapshot format: predicate count,
    /// dimension, the vectors and the precomputed similarity table, all as
    /// exact `f64` bit patterns. The table is stored verbatim (not
    /// recomputed on load) so a snapshot-booted service serves bitwise the
    /// same similarities as the service that wrote it.
    pub fn to_snapshot_section(&self) -> Vec<u8> {
        let dim = self.dimension();
        let mut out = Vec::with_capacity(16 + 8 * (self.count * dim + self.table.len()));
        put_u64(&mut out, self.count as u64);
        put_u64(&mut out, dim as u64);
        for v in &self.vectors {
            for &x in v.as_slice() {
                put_u64(&mut out, x.to_bits());
            }
        }
        for &x in &self.table {
            put_u64(&mut out, x.to_bits());
        }
        out
    }

    /// Decodes a store written by [`Self::to_snapshot_section`], validating
    /// the declared geometry against the payload length. Fails closed with
    /// a structured error — a corrupt section never yields a partially
    /// initialised store.
    pub fn from_snapshot_section(bytes: &[u8]) -> KgResult<Self> {
        const SECTION: &str = "similarity";
        let mut c = SectionReader::new(bytes, SECTION);
        let count = c.u64()? as usize;
        let dim = c.u64()? as usize;
        let expected = count
            .checked_mul(dim)
            .zip(count.checked_mul(count))
            .and_then(|(v, t)| v.checked_add(t)?.checked_mul(8)?.checked_add(16))
            .ok_or_else(|| snapshot_error(SECTION, "geometry overflows"))?;
        if bytes.len() != expected {
            return Err(snapshot_error(
                SECTION,
                format!(
                    "length mismatch: {} bytes for {count} predicates × dim {dim} \
                     (expected {expected})",
                    bytes.len()
                ),
            ));
        }
        let mut vectors = Vec::with_capacity(count);
        for _ in 0..count {
            let mut v = Vec::with_capacity(dim);
            for _ in 0..dim {
                v.push(f64::from_bits(c.u64()?));
            }
            vectors.push(Vector(v));
        }
        let mut table = Vec::with_capacity(count * count);
        for _ in 0..count * count {
            table.push(f64::from_bits(c.u64()?));
        }
        c.expect_done()?;
        Ok(Self {
            vectors,
            table,
            count,
        })
    }
}

impl PredicateSimilarity for PredicateVectorStore {
    fn similarity(&self, a: PredicateId, b: PredicateId) -> f64 {
        if a == b {
            return 1.0;
        }
        let (i, j) = (a.index(), b.index());
        if i >= self.count || j >= self.count {
            return 0.0;
        }
        self.table[i * self.count + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PredicateId {
        PredicateId::new(i)
    }

    #[test]
    fn similarity_is_symmetric_and_reflexive() {
        let store = PredicateVectorStore::from_vectors(vec![
            (p(0), Vector(vec![1.0, 0.0])),
            (p(1), Vector(vec![0.9, 0.1])),
            (p(2), Vector(vec![0.0, 1.0])),
        ]);
        assert_eq!(store.similarity(p(0), p(0)), 1.0);
        assert_eq!(store.similarity(p(0), p(1)), store.similarity(p(1), p(0)));
        assert!(store.similarity(p(0), p(1)) > store.similarity(p(0), p(2)));
        assert_eq!(store.predicate_count(), 3);
        assert_eq!(store.dimension(), 2);
        assert!(store.stored_floats() >= 6);
    }

    #[test]
    fn out_of_range_predicates_have_zero_similarity() {
        let store = PredicateVectorStore::from_vectors(vec![(p(0), Vector(vec![1.0]))]);
        assert_eq!(store.similarity(p(0), p(5)), 0.0);
        // Identical ids are always 1.0, even out of range (same predicate).
        assert_eq!(store.similarity(p(5), p(5)), 1.0);
        assert!(store.vector(p(5)).is_none());
    }

    #[test]
    fn missing_predicates_get_zero_vectors() {
        let store = PredicateVectorStore::from_vectors(vec![
            (p(2), Vector(vec![1.0, 1.0])),
            (p(0), Vector(vec![1.0, 0.0])),
        ]);
        assert_eq!(store.predicate_count(), 3);
        assert_eq!(store.similarity(p(1), p(0)), 0.0);
        assert_eq!(store.similarity(p(2), p(2)), 1.0);
    }

    #[test]
    fn snapshot_section_round_trips_bitwise() {
        let store = PredicateVectorStore::from_vectors(vec![
            (p(0), Vector(vec![1.0, 0.25])),
            (p(2), Vector(vec![-0.5, 1e-300])),
        ]);
        let bytes = store.to_snapshot_section();
        let loaded = PredicateVectorStore::from_snapshot_section(&bytes).unwrap();
        assert_eq!(loaded.predicate_count(), store.predicate_count());
        assert_eq!(loaded.dimension(), store.dimension());
        for (a, b) in store.vectors.iter().zip(&loaded.vectors) {
            let ab: Vec<u64> = a.as_slice().iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u64> = b.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(ab, bb);
        }
        let ta: Vec<u64> = store.table.iter().map(|x| x.to_bits()).collect();
        let tb: Vec<u64> = loaded.table.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ta, tb);
        // Re-encoding is byte-identical.
        assert_eq!(loaded.to_snapshot_section(), bytes);
        // Truncation fails closed.
        let err = PredicateVectorStore::from_snapshot_section(&bytes[..bytes.len() - 1]);
        assert!(err.unwrap_err().to_string().contains("similarity"));
    }

    /// A geometry whose byte size wraps `usize` (2³¹ predicates of
    /// dimension 0: 8 × 2⁶² table bytes) is refused, not matched against a
    /// 16-byte section and then allocated.
    #[test]
    fn wrapping_geometry_fails_closed() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1u64 << 31).to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = PredicateVectorStore::from_snapshot_section(&bytes).unwrap_err();
        assert!(err.to_string().contains("similarity"), "{err}");
    }

    #[test]
    fn empty_store() {
        let store = PredicateVectorStore::from_vectors(vec![]);
        assert_eq!(store.predicate_count(), 0);
        assert_eq!(store.dimension(), 0);
        assert_eq!(store.similarity(p(0), p(1)), 0.0);
    }
}
