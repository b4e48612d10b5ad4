//! The confidence-aware result cache.
//!
//! Keyed by the canonical wire rendering of a query
//! ([`kg_query::AggregateQuery::canonical_key`]), the cache stores both the
//! last answer *and* the live [`ShardedSession`] that produced it (for an
//! unsharded deployment, `shards: 1`, that session *is* the plain
//! interactive session). The key is deliberately **independent of
//! sharding**: it names the query, not the partitioning, so re-sharding a
//! graph invalidates by generation exactly like swapping it. A lookup
//! against a request with targets `(eb, confidence)` has three outcomes:
//!
//! * **Hit** — the stored answer [`dominates`] the request: its interval
//!   already satisfies the requested error bound at (at least) the requested
//!   confidence, so the answer is served without touching the engine.
//! * **Resume** — the component is cached but the stored interval is too
//!   wide (or at too low a confidence). The stored session is handed back to
//!   the worker, which *continues* refinement from the existing sample
//!   instead of starting from scratch — the interactive-refinement reuse of
//!   Fig. 6(a), applied across requests.
//! * **Miss** — the component is unknown (or the cache generation moved):
//!   plan fresh.
//!
//! Every entry is stamped with the cache **generation**; swapping the graph
//! or engine configuration bumps the generation ([`ResultCache::invalidate`])
//! so stale estimates can never be served, and a worker that raced an
//! invalidation cannot re-insert a stale session ([`ResultCache::finish`]
//! checks the stamp).
//!
//! Delta writes are finer-grained than a swap: [`ResultCache::note_write`]
//! records the write's [`QueryFootprint`] under a monotone **write
//! sequence** and evicts only the entries whose stored footprint intersects
//! it — cached answers of untouched components survive the write. The same
//! sequence closes the racing-insert window: a worker snapshots
//! [`ResultCache::write_seq`] together with the graph, and
//! [`ResultCache::finish`] drops the insert when an intersecting write
//! landed after that snapshot (or when the bounded write log can no longer
//! prove there wasn't one) — a write either precedes the snapshot a result
//! was computed on or kills that result, never a torn mixture.

use kg_aqp::{QueryAnswer, ShardedSession};
use kg_estimate::satisfies_error_bound;
use kg_query::QueryFootprint;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Number of recent write footprints [`ResultCache::finish`] can consult;
/// inserts whose snapshot predates the window are conservatively dropped.
const WRITE_LOG_WINDOW: usize = 1024;

/// The cache-reuse rule: can `answer` be served for targets
/// `(error_bound, confidence)` without further refinement?
///
/// Requires both of:
/// * the stored confidence level is at least the requested one (an interval
///   at higher confidence is *wider*, so it covers the truth with at least
///   the requested probability);
/// * the stored margin of error passes Theorem 2's relative-error test at
///   the *requested* bound.
///
/// The stored run's own `guarantee_met` flag is deliberately **not**
/// consulted: a deadline-truncated (or cap-limited) run that nevertheless
/// tightened its interval past the requested bound carries exactly the same
/// statistical content as a run that terminated by Theorem 2 — what matters
/// is whether the interval pays for *this* request's targets, and both
/// conjuncts check precisely that. A served hit therefore reports
/// `guarantee_met: true` regardless of how the stored run ended.
pub fn dominates(answer: &QueryAnswer, error_bound: f64, confidence: f64) -> bool {
    answer.confidence + 1e-12 >= confidence
        && satisfies_error_bound(answer.estimate, answer.moe, error_bound)
}

/// Counters of the result cache, for metrics and tests.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups served directly from a dominating cached answer.
    pub hits: usize,
    /// Lookups that resumed a cached session for further refinement.
    pub resumes: usize,
    /// Lookups that planned from scratch.
    pub misses: usize,
    /// Times the cache was invalidated (graph/config generation bumps).
    pub invalidations: u64,
}

/// Outcome of [`ResultCache::lookup`].
pub enum CacheDecision {
    /// Serve this answer as-is.
    Hit(QueryAnswer),
    /// Resume this session (it has been checked out of the cache; return it
    /// via [`ResultCache::finish`]).
    Resume(Box<ShardedSession>),
    /// Unknown component: plan fresh and insert via [`ResultCache::finish`].
    Miss,
}

struct Entry {
    session: ShardedSession,
    answer: QueryAnswer,
    /// The query's name footprint, kept so a later write can decide whether
    /// this entry could observe it.
    footprint: QueryFootprint,
}

/// Recent write history: a monotone sequence number plus a bounded log of
/// `(seq, footprint)` pairs (see the [module docs](self)).
#[derive(Default)]
struct WriteState {
    seq: u64,
    log: VecDeque<(u64, QueryFootprint)>,
}

/// Confidence-aware result cache; see the [module docs](self).
#[derive(Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<String, Entry>>,
    stats: Mutex<ResultCacheStats>,
    generation: Mutex<u64>,
    writes: Mutex<WriteState>,
}

impl ResultCache {
    /// Creates an empty cache at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current generation stamp. A [`Self::finish`] carrying an older
    /// stamp is discarded.
    pub fn generation(&self) -> u64 {
        *self.generation.lock().unwrap()
    }

    /// Looks up `key` against the request targets. `generation` must be the
    /// stamp the caller observed when it snapshotted the graph: if the cache
    /// has moved on (or the caller is behind), the lookup is a forced miss —
    /// serving or resuming across generations would mix entity ids from
    /// different graphs. A `Resume` checks the entry out of the cache
    /// (concurrent requests for the same key miss and plan fresh rather
    /// than wait — deliberate: the race is rare and both outcomes are
    /// correct). Hits and resumes are counted here; a miss is counted by
    /// the caller, through [`Self::count_miss`], only if it goes on to plan.
    pub fn lookup(
        &self,
        key: &str,
        generation: u64,
        error_bound: f64,
        confidence: f64,
    ) -> CacheDecision {
        if *self.generation.lock().unwrap() != generation {
            return CacheDecision::Miss;
        }
        let mut entries = self.entries.lock().unwrap();
        match entries.get(key) {
            None => CacheDecision::Miss,
            Some(entry) if dominates(&entry.answer, error_bound, confidence) => {
                self.stats.lock().unwrap().hits += 1;
                CacheDecision::Hit(entry.answer.clone())
            }
            Some(_) => {
                let entry = entries.remove(key).expect("present under lock");
                self.stats.lock().unwrap().resumes += 1;
                CacheDecision::Resume(Box::new(entry.session))
            }
        }
    }

    /// Counts a lookup that missed and planned from scratch.
    pub fn count_miss(&self) {
        self.stats.lock().unwrap().misses += 1;
    }

    /// The current write sequence number. Callers snapshot this together
    /// with the graph (under the same state lock the write path mutates
    /// both under), and pass it back to [`Self::finish`] so a racing write
    /// can be detected.
    pub fn write_seq(&self) -> u64 {
        self.writes.lock().unwrap().seq
    }

    /// Records a delta write's footprint and evicts exactly the cached
    /// entries whose own footprint intersects it; everything else — and the
    /// generation — survives. Returns the number of entries evicted.
    pub fn note_write(&self, footprint: &QueryFootprint) -> usize {
        let mut writes = self.writes.lock().unwrap();
        writes.seq += 1;
        let seq = writes.seq;
        writes.log.push_back((seq, footprint.clone()));
        while writes.log.len() > WRITE_LOG_WINDOW {
            writes.log.pop_front();
        }
        let mut entries = self.entries.lock().unwrap();
        let before = entries.len();
        entries.retain(|_, entry| !entry.footprint.intersects(footprint));
        before - entries.len()
    }

    /// Stores (or returns) a session with its freshest answer. `generation`
    /// and `snapshot_seq` must be the generation stamp and write sequence
    /// observed when work began: the entry is dropped — instead of
    /// poisoning the cache with a torn result — when the cache has been
    /// invalidated since, when a write whose footprint intersects the
    /// query's landed after the snapshot, or when the bounded write log has
    /// been trimmed past the snapshot and can no longer prove no such write
    /// happened.
    pub fn finish(
        &self,
        key: String,
        generation: u64,
        snapshot_seq: u64,
        footprint: QueryFootprint,
        session: ShardedSession,
        answer: QueryAnswer,
    ) {
        let current = self.generation.lock().unwrap();
        if *current != generation {
            return;
        }
        {
            let writes = self.writes.lock().unwrap();
            if writes.seq.saturating_sub(snapshot_seq) > writes.log.len() as u64 {
                return;
            }
            if writes
                .log
                .iter()
                .any(|(seq, fp)| *seq > snapshot_seq && fp.intersects(&footprint))
            {
                return;
            }
        }
        self.entries.lock().unwrap().insert(
            key,
            Entry {
                session,
                answer,
                footprint,
            },
        );
    }

    /// Drops every entry and bumps the generation: cached intervals were
    /// computed against a graph/configuration that no longer exists.
    pub fn invalidate(&self) {
        let mut generation = self.generation.lock().unwrap();
        *generation += 1;
        self.entries.lock().unwrap().clear();
        self.stats.lock().unwrap().invalidations += 1;
    }

    /// Number of cached components.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().unwrap().is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ResultCacheStats {
        *self.stats.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn answer(estimate: f64, moe: f64, confidence: f64, guarantee_met: bool) -> QueryAnswer {
        QueryAnswer {
            estimate,
            moe,
            confidence,
            guarantee_met,
            rounds: Vec::new(),
            groups: BTreeMap::new(),
            timings: kg_aqp::StepTimings::default(),
            sample_size: 100,
            candidate_count: 1000,
            elapsed_ms: 1.0,
            missing_shards: Vec::new(),
        }
    }

    #[test]
    fn dominance_requires_confidence_and_bound() {
        // moe 4 on estimate 1000 at eb 1%: threshold ≈ 9.9 → satisfied.
        let a = answer(1000.0, 4.0, 0.95, true);
        assert!(dominates(&a, 0.01, 0.95));
        assert!(dominates(&a, 0.01, 0.90), "lower confidence is dominated");
        assert!(!dominates(&a, 0.01, 0.99), "higher confidence is not");
        assert!(!dominates(&a, 0.001, 0.95), "tighter bound is not");
        // A deadline-truncated run whose interval nevertheless pays for the
        // requested targets serves directly: the interval, not the stored
        // run's termination reason, is what the guarantee is about.
        let truncated = answer(1000.0, 4.0, 0.95, false);
        assert!(
            dominates(&truncated, 0.01, 0.95),
            "a tight-enough truncated interval dominates"
        );
        assert!(!dominates(&truncated, 0.001, 0.95));
    }

    #[test]
    fn stale_generation_lookups_are_forced_misses() {
        let cache = ResultCache::new();
        // A worker that snapshotted generation 0 before an invalidation may
        // never see entries written at generation 1: resuming its session
        // would refine graph-1 state against the worker's graph-0 snapshot.
        cache.invalidate();
        let query = product_query();
        let (session, footprint) = session_for(&query);
        let stored = answer(1000.0, 4.0, 0.95, true);
        cache.finish("k".into(), 1, 0, footprint, session, stored);
        assert!(matches!(
            cache.lookup("k", 0, 0.05, 0.95),
            CacheDecision::Miss
        ));
        assert!(matches!(
            cache.lookup("k", 1, 0.05, 0.95),
            CacheDecision::Hit(_)
        ));
        // `lookup` counts the hit; a miss is the planner's to count.
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 0));
    }

    /// Builds a real session plus the query it belongs to (cheapest
    /// available path to a [`ShardedSession`] for cache-entry tests).
    fn session_for(query: &kg_query::AggregateQuery) -> (ShardedSession, kg_query::QueryFootprint) {
        let engine = kg_aqp::AqpEngine::new(kg_aqp::EngineConfig::default());
        let d = kg_datagen::generate(&kg_datagen::GeneratorConfig::new(
            "cache-test",
            kg_datagen::DatasetScale::tiny(),
            vec![kg_datagen::domains::automotive(&["Germany"])],
            3,
        ));
        let sharded = kg_core::ShardedGraph::single(std::sync::Arc::new(d.graph.clone()));
        let session = engine.open_session(&sharded, query, &d.oracle).unwrap();
        (session, query.footprint())
    }

    fn product_query() -> kg_query::AggregateQuery {
        kg_query::AggregateQuery::simple(
            kg_query::SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            kg_query::AggregateFunction::Count,
        )
    }

    #[test]
    fn invalidation_discards_racing_inserts() {
        let cache = ResultCache::new();
        let generation = cache.generation();
        let write_seq = cache.write_seq();
        // A worker computes against generation 0 while the graph is swapped…
        cache.invalidate();
        // …its insert must be dropped.
        let (session, footprint) = session_for(&product_query());
        cache.finish(
            "k".to_string(),
            generation,
            write_seq,
            footprint,
            session,
            answer(1.0, 0.0, 0.95, true),
        );
        assert!(cache.is_empty(), "stale insert survived invalidation");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn intersecting_delta_write_discards_racing_inserts() {
        // The delta-write analogue of the swap race above: a worker computes
        // against a pre-write snapshot while a write touching its component
        // lands. The insert must be dropped (its session refined pre-write
        // state), while a worker whose component the write cannot touch may
        // insert — its snapshot is still the write's "after" state.
        let cache = ResultCache::new();
        let generation = cache.generation();
        let snapshot_seq = cache.write_seq();
        let (session, footprint) = session_for(&product_query());

        let write =
            kg_query::QueryFootprint::new(vec!["Germany".into()], vec!["product".into()], vec![]);
        assert_eq!(cache.note_write(&write), 0, "nothing cached yet");
        cache.finish(
            "touched".to_string(),
            generation,
            snapshot_seq,
            footprint,
            session,
            answer(1.0, 0.0, 0.95, true),
        );
        assert!(
            cache.is_empty(),
            "torn insert survived an intersecting write"
        );
        // Generation did NOT move: delta writes are not swaps.
        assert_eq!(cache.generation(), generation);
        assert_eq!(cache.stats().invalidations, 0);

        let (session, footprint) = session_for(&product_query());
        // Disjoint write footprint: the racing insert is provably untouched.
        let unrelated = kg_query::QueryFootprint::new(
            vec!["Japan".into()],
            vec!["builds".into()],
            vec!["Ship".into()],
        );
        let snapshot_seq = cache.write_seq();
        cache.note_write(&unrelated);
        cache.finish(
            "untouched".to_string(),
            generation,
            snapshot_seq,
            footprint,
            session,
            answer(1.0, 0.0, 0.95, true),
        );
        assert_eq!(cache.len(), 1, "disjoint write must not drop the insert");

        // A later intersecting write evicts the stored entry itself.
        assert_eq!(cache.note_write(&write), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn snapshot_older_than_write_log_window_is_dropped() {
        let cache = ResultCache::new();
        let generation = cache.generation();
        let stale_seq = cache.write_seq();
        let disjoint = kg_query::QueryFootprint::new(vec!["x".into()], vec![], vec![]);
        // Push the log far past the window; every logged footprint is
        // disjoint from the query's, but the insert's snapshot can no longer
        // be proven clean, so it must still be dropped.
        for _ in 0..(super::WRITE_LOG_WINDOW + 8) {
            cache.note_write(&disjoint);
        }
        let (session, footprint) = session_for(&product_query());
        cache.finish(
            "k".to_string(),
            generation,
            stale_seq,
            footprint,
            session,
            answer(1.0, 0.0, 0.95, true),
        );
        assert!(cache.is_empty(), "unprovable insert survived a trimmed log");
    }
}
