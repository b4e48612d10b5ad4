//! Fixed-bucket histograms with lock-free recording.
//!
//! A [`Histogram`] is a fixed ladder of upper-bound edges plus an overflow
//! bucket, each backed by an `AtomicU64`, so recording is a relaxed
//! fetch-add with no allocation, no sorting, and no lock — the replacement
//! for the sort-the-whole-`Vec` percentile code the service metrics,
//! `BatchStats`, and the load-generator report used to share. Quantiles
//! come from a cumulative walk over the buckets (nearest-rank, resolved to
//! the upper edge of the bucket holding the rank), which agrees with the
//! exact sorted nearest-rank reference up to bucket resolution; the parity
//! test against `kg_aqp::latency_percentile` pins that exactly.
//!
//! Two standard ladders exist: [`Histogram::latency_log2`] (milliseconds
//! in powers of two, 2⁻⁴..2¹⁴ ms) and [`Histogram::error_bound_decades`]
//! (achieved error bounds on a 1-2-5 decade grid).

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper edges of the latency ladder: 2⁻⁴ ms (62.5 µs) through 2¹⁴ ms
/// (16.384 s), one bucket per power of two, plus an overflow bucket.
pub const LATENCY_LOG2_EDGES: [f64; 19] = [
    0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
    2048.0, 4096.0, 8192.0, 16384.0,
];

/// Upper edges of the achieved-error-bound ladder (1-2-5 decades), the
/// `le` labels of the service's `kg_achieved_error_bound` histogram.
pub const ERROR_BOUND_DECADE_EDGES: [f64; 9] =
    [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0];

/// A fixed-bucket histogram safe for concurrent recording.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Builds a histogram over the given ascending, finite, positive
    /// upper edges; one overflow bucket is added past the last edge.
    ///
    /// # Panics
    /// Panics if `edges` is empty, non-ascending, or contains a
    /// non-finite value.
    pub fn with_edges(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "a histogram needs at least one edge");
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1], "edges must be strictly ascending");
        }
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "edges must be finite (the overflow bucket is implicit)"
        );
        let counts = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            edges: edges.to_vec(),
            counts,
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The standard latency ladder (milliseconds, log2 buckets).
    pub fn latency_log2() -> Self {
        Self::with_edges(&LATENCY_LOG2_EDGES)
    }

    /// The standard achieved-error-bound ladder (1-2-5 decade buckets).
    pub fn error_bound_decades() -> Self {
        Self::with_edges(&ERROR_BOUND_DECADE_EDGES)
    }

    /// Records one observation. `NaN` is ignored; `+∞` lands in the
    /// overflow bucket; negative values land in the first bucket.
    pub fn observe(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let index = self.bucket_index(value);
        self.counts[index].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            self.add_sum(value);
        }
    }

    /// Records every finite value of an iterator (non-finite skipped, so
    /// failure markers like `NaN` latencies never count).
    pub fn observe_finite<I: IntoIterator<Item = f64>>(&self, values: I) {
        for value in values {
            if value.is_finite() {
                self.observe(value);
            }
        }
    }

    /// The bucket an observation falls into (`edges.len()` = overflow).
    /// Edges are inclusive upper bounds, matching Prometheus `le`.
    pub fn bucket_index(&self, value: f64) -> usize {
        self.edges
            .iter()
            .position(|edge| value <= *edge)
            .unwrap_or(self.edges.len())
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all finite recorded observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile resolved to the upper edge of the bucket
    /// holding the rank. Returns `0.0` when empty; observations past the
    /// last edge report the last edge (the ladder's saturation point).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the buckets for export and quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
        }
    }

    fn add_sum(&self, value: f64) {
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        let hist = Histogram::with_edges(&snap.edges);
        for (slot, count) in hist.counts.iter().zip(&snap.counts) {
            slot.store(*count, Ordering::Relaxed);
        }
        hist.total.store(snap.count(), Ordering::Relaxed);
        hist.sum_bits.store(snap.sum.to_bits(), Ordering::Relaxed);
        hist
    }
}

/// An immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending upper edges; the overflow bucket is implicit.
    pub edges: Vec<f64>,
    /// Per-bucket counts, `edges.len() + 1` long (last = overflow).
    pub counts: Vec<u64>,
    /// Sum of all finite observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given edges (for merging into).
    pub fn empty(edges: &[f64]) -> Self {
        HistogramSnapshot {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            sum: 0.0,
        }
    }

    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Nearest-rank quantile; see [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return self.edge_value(index);
            }
        }
        self.edge_value(self.counts.len() - 1)
    }

    /// The representative (upper-edge) value of a bucket; the overflow
    /// bucket saturates to the last edge.
    pub fn edge_value(&self, index: usize) -> f64 {
        if index < self.edges.len() {
            self.edges[index]
        } else {
            *self.edges.last().unwrap()
        }
    }

    /// Adds another snapshot's counts and sum into this one.
    ///
    /// # Panics
    /// Panics if the edge ladders differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.edges, other.edges, "cannot merge different ladders");
        for (slot, count) in self.counts.iter_mut().zip(&other.counts) {
            *slot += count;
        }
        self.sum += other.sum;
    }

    /// Cumulative `(upper_edge, count)` pairs ending with `(+∞, total)`,
    /// exactly what Prometheus `_bucket` samples need.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut running = 0u64;
        for (index, count) in self.counts.iter().enumerate() {
            running += count;
            let edge = if index < self.edges.len() {
                self.edges[index]
            } else {
                f64::INFINITY
            };
            out.push((edge, running));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn buckets_are_inclusive_upper_bounds() {
        let hist = Histogram::with_edges(&[1.0, 2.0, 4.0]);
        assert_eq!(hist.bucket_index(0.5), 0);
        assert_eq!(hist.bucket_index(1.0), 0);
        assert_eq!(hist.bucket_index(1.0001), 1);
        assert_eq!(hist.bucket_index(4.0), 2);
        assert_eq!(hist.bucket_index(4.1), 3);
        assert_eq!(hist.bucket_index(-3.0), 0);
        assert_eq!(hist.bucket_index(f64::INFINITY), 3);
    }

    #[test]
    fn quantiles_resolve_to_bucket_edges() {
        let hist = Histogram::with_edges(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 3.5, 7.0] {
            hist.observe(v);
        }
        // sorted: 0.5 | 1.5 1.6 | 3.0 3.5 | 7.0 → buckets 1,2,2,4,4,8
        assert_eq!(hist.quantile(0.0), 1.0);
        assert_eq!(hist.quantile(0.5), 2.0);
        assert_eq!(hist.quantile(0.75), 4.0);
        assert_eq!(hist.quantile(1.0), 8.0);
        assert_eq!(hist.count(), 6);
        assert!((hist.sum() - 17.1).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::latency_log2().quantile(0.95), 0.0);
    }

    #[test]
    fn nan_is_ignored_and_infinity_saturates() {
        let hist = Histogram::with_edges(&[1.0, 2.0]);
        hist.observe(f64::NAN);
        assert_eq!(hist.count(), 0);
        hist.observe(f64::INFINITY);
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.quantile(1.0), 2.0, "overflow saturates to last edge");
        assert_eq!(hist.sum(), 0.0, "non-finite values do not pollute the sum");
    }

    #[test]
    fn observe_finite_skips_failure_markers() {
        let hist = Histogram::latency_log2();
        hist.observe_finite([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn cumulative_ends_with_infinity_total() {
        let hist = Histogram::with_edges(&[1.0, 2.0]);
        hist.observe_finite([0.5, 1.5, 3.0, 9.0]);
        let cumulative = hist.snapshot().cumulative();
        assert_eq!(cumulative.len(), 3);
        assert_eq!(cumulative[0], (1.0, 1));
        assert_eq!(cumulative[1], (2.0, 2));
        assert_eq!(cumulative[2].1, 4);
        assert!(cumulative[2].0.is_infinite());
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let a = Histogram::with_edges(&[1.0, 2.0]);
        let b = Histogram::with_edges(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(5.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.counts, vec![1, 1, 1]);
        assert!((merged.sum - 7.0).abs() < 1e-12);
    }

    /// The counter-monotonicity invariant: while concurrent workers are
    /// observing, repeated snapshots never see the total go backwards.
    #[test]
    fn concurrent_observation_counts_are_monotone() {
        let hist = Arc::new(Histogram::latency_log2());
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for worker in 0..4 {
            let hist = Arc::clone(&hist);
            let stop = Arc::clone(&stop);
            workers.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    hist.observe((worker * 37 + i % 97) as f64 * 0.25);
                    i += 1;
                }
                i
            }));
        }
        let mut last_total = 0u64;
        let mut last_counts = vec![0u64; LATENCY_LOG2_EDGES.len() + 1];
        for _ in 0..200 {
            let snap = hist.snapshot();
            let total = snap.count();
            assert!(total >= last_total, "total count went backwards");
            for (now, before) in snap.counts.iter().zip(&last_counts) {
                assert!(now >= before, "a bucket count went backwards");
            }
            last_total = total;
            last_counts = snap.counts;
        }
        stop.store(true, Ordering::Relaxed);
        let written: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(hist.count(), written);
        assert_eq!(hist.snapshot().count(), written);
    }
}
