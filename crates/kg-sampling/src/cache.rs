//! Memoisation of per-component planning work across queries that share a
//! simple-query component: [`PreparedSampler`]s for plans that sample, and
//! exact walk outcomes for plans answered exactly.
//!
//! Preparing a sampler builds the n-bounded scope, weighs every in-scope
//! edge (Eq. 5), reads π off in closed form (Eq. 6) and builds the alias
//! table; an exact plan instead walks every admissible path of the
//! component. Workloads routinely repeat the same component — a plain
//! query plus its filter and GROUP-BY variants differ only in post-sampling
//! operators, and chains re-anchor the same hop — so a planner can do that
//! work once per distinct component and share the result. Sharing is sound
//! because both are deterministic: a cached value is identical to a fresh
//! one.
//!
//! A write need not throw the walks away: [`SamplerCache::carry_walks`]
//! copies into the next epoch's cache every walk outcome that
//! [`kg_query::reach`]'s test shows the write cannot change.

use crate::sampler::{prepare, PreparedSampler, SamplerConfig};
use crate::strategies::SamplingStrategy;
use kg_core::{EntityId, KgResult, KnowledgeGraph, PredicateId, TypeId};
use kg_embed::PredicateSimilarity;
use kg_query::{HopBall, PathAggregation, ResolvedSimpleQuery};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Cache key: the fields of [`ResolvedSimpleQuery`] a prepared sampler or a
/// walk outcome depends on (strategy and sampler configuration are fixed
/// per cache; a walk adds its [`WalkSettings`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ComponentKey {
    specific: EntityId,
    predicate: PredicateId,
    target_types: Vec<TypeId>,
}

impl ComponentKey {
    fn of(query: &ResolvedSimpleQuery) -> Self {
        Self {
            specific: query.specific,
            predicate: query.predicate,
            target_types: query.target_types.clone(),
        }
    }

    /// The hop a walk of this component under `settings` reads.
    fn hop(&self, settings: &WalkSettings) -> HopBall {
        HopBall {
            anchor: self.specific,
            target_types: self.target_types.clone(),
            n_bound: settings.n_bound,
        }
    }
}

/// The engine settings an exact walk's outcome depends on besides its
/// component: part of a walk entry's key, so that one cache shared by two
/// engines never serves one engine's outcome to the other.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct WalkSettings {
    tau_bits: u64,
    n_bound: u32,
    aggregation: PathAggregation,
    validate: bool,
}

impl WalkSettings {
    /// Settings of a walk with relevance threshold `tau`, hop bound
    /// `n_bound`, path-similarity `aggregation`, and τ-validation on or off.
    pub fn new(tau: f64, n_bound: u32, aggregation: PathAggregation, validate: bool) -> Self {
        Self {
            tau_bits: tau.to_bits(),
            n_bound,
            aggregation,
            validate,
        }
    }
}

/// A memoised walk outcome, stored compactly: the n-ball candidate count,
/// and the sorted answers as delta-LEB128 bytes (`None` past the path
/// limit).
#[derive(Clone, Debug)]
struct WalkEntry {
    candidates: u32,
    answers: Option<Box<[u8]>>,
}

impl WalkEntry {
    fn encode((candidates, answers): &(usize, Option<Vec<EntityId>>)) -> Self {
        Self {
            candidates: u32::try_from(*candidates).expect("entity ids are u32"),
            answers: answers.as_deref().map(encode_sorted),
        }
    }

    fn decode(&self) -> (usize, Option<Vec<EntityId>>) {
        let answers = self.answers.as_deref().map(decode_sorted);
        (self.candidates as usize, answers)
    }
}

/// Sorted ids as LEB128 varints of their successive differences (the first
/// against 0): a dense answer set costs about one byte per id.
fn encode_sorted(ids: &[EntityId]) -> Box<[u8]> {
    let mut bytes = Vec::with_capacity(ids.len());
    let mut previous = 0u32;
    for id in ids {
        debug_assert!(id.0 >= previous, "ids are sorted");
        let mut delta = id.0 - previous;
        previous = id.0;
        while delta >= 0x80 {
            bytes.push(delta as u8 | 0x80);
            delta >>= 7;
        }
        bytes.push(delta as u8);
    }
    bytes.into_boxed_slice()
}

fn decode_sorted(bytes: &[u8]) -> Vec<EntityId> {
    // Every id takes at least one byte.
    let mut ids = Vec::with_capacity(bytes.len());
    let (mut previous, mut delta, mut shift) = (0u32, 0u32, 0);
    for &byte in bytes {
        delta |= u32::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            previous += delta;
            ids.push(EntityId(previous));
            (delta, shift) = (0, 0);
        } else {
            shift += 7;
        }
    }
    ids
}

/// Hit/miss counters of a planning call's lookups in a [`SamplerCache`],
/// for reporting and tests.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to compute a fresh value.
    pub misses: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Walk entries a write carried into its new epoch's cache, and walk
/// entries it dropped ([`SamplerCache::carry_walks`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkCarry {
    /// Entries copied: the write cannot reach their hops.
    pub kept: usize,
    /// Entries left behind, to be walked again on the written graph.
    pub dropped: usize,
}

/// A cache of per-component planning work, keyed by resolved simple-query
/// component: prepared samplers ([`Self::get_or_prepare`]) and exact walk
/// outcomes ([`Self::get_or_walk`]). One cache instance is bound to one
/// graph, one similarity store, one sampling strategy and one sampler
/// configuration: the service keeps one per graph epoch. A prepared π
/// (Eq. 5–6) and a walk outcome both depend on every edge of the mapping
/// node's n-bounded subgraph, so no entry may outlive the graph it was
/// computed against. A graph swap therefore starts an empty cache, and a
/// write starts one from [`Self::carry_walks`]: the walk outcomes whose
/// n-ball the write provably cannot reach, and no sampler, since π reads
/// degrees across the whole scope.
///
/// The cache is interior-mutable (`&self` lookups) so parallel planning
/// stages — the per-anchor hop samplings of a chain query run on the rayon
/// pool — and concurrent planners can share one instance. The lock is not
/// held while computing: two workers racing on the same key may both
/// compute it (same value either way, since both are deterministic); the
/// first insert wins.
#[derive(Debug)]
pub struct SamplerCache {
    strategy: SamplingStrategy,
    config: SamplerConfig,
    entries: Mutex<HashMap<ComponentKey, Arc<PreparedSampler>>>,
    walks: Mutex<HashMap<(ComponentKey, WalkSettings), WalkEntry>>,
}

impl SamplerCache {
    /// Creates an empty cache for the given strategy and configuration.
    pub fn new(strategy: SamplingStrategy, config: SamplerConfig) -> Self {
        Self {
            strategy,
            config,
            entries: Mutex::new(HashMap::new()),
            walks: Mutex::new(HashMap::new()),
        }
    }

    /// Returns the prepared sampler for `query`, preparing and memoising it
    /// on first sight of the component, and counts the lookup in
    /// `lookups` — the caller's own counter, since concurrent planners may
    /// share the cache. Preparation failures (degenerate weights) are
    /// returned, not cached or counted: a broken component errors on every
    /// lookup rather than poisoning the cache.
    pub fn get_or_prepare<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        similarity: &S,
        lookups: &mut CacheStats,
    ) -> KgResult<Arc<PreparedSampler>> {
        let key = ComponentKey::of(query);
        if let Some(sampler) = self.entries.lock().unwrap().get(&key) {
            lookups.hits += 1;
            kg_telemetry::point(
                "sampler.cache_hit",
                &[
                    ("predicate", key.predicate.0.into()),
                    ("specific", key.specific.0.into()),
                ],
            );
            return Ok(Arc::clone(sampler));
        }
        // Prepare outside the lock; racing preparations of the same key
        // produce identical values, and the first insert wins.
        let prepare_start = std::time::Instant::now();
        let sampler = Arc::new(prepare(
            graph,
            query,
            similarity,
            self.strategy,
            &self.config,
        )?);
        kg_telemetry::point(
            "sampler.prepare",
            &[
                ("predicate", key.predicate.0.into()),
                ("specific", key.specific.0.into()),
                ("candidates", sampler.candidate_count().into()),
                (
                    "prepare_ms",
                    (prepare_start.elapsed().as_secs_f64() * 1e3).into(),
                ),
            ],
        );
        lookups.misses += 1;
        Ok(Arc::clone(
            self.entries.lock().unwrap().entry(key).or_insert(sampler),
        ))
    }

    /// Returns the exact walk outcome of `query` under `settings` — its
    /// n-ball candidate count and its sorted answers, `None` past the path
    /// limit — running `walk` and memoising what it returns on first sight
    /// of the pair. `walk` runs outside the lock and must be deterministic.
    ///
    /// The cache does not count lookups: a caller that shares the cache
    /// with concurrent planners counts its own, by whether `walk` ran.
    pub fn get_or_walk(
        &self,
        query: &ResolvedSimpleQuery,
        settings: WalkSettings,
        walk: impl FnOnce() -> (usize, Option<Vec<EntityId>>),
    ) -> (usize, Option<Vec<EntityId>>) {
        let key = (ComponentKey::of(query), settings);
        if let Some(entry) = self.walks.lock().unwrap().get(&key) {
            return entry.decode();
        }
        let outcome = walk();
        let entry = WalkEntry::encode(&outcome);
        self.walks.lock().unwrap().entry(key).or_insert(entry);
        outcome
    }

    /// The distinct hops the cached walk outcomes were walked for, sorted:
    /// what a write's reach test ([`kg_query::WriteReach`]) filters.
    pub fn walk_hops(&self) -> Vec<HopBall> {
        let walks = self.walks.lock().unwrap();
        let mut hops: Vec<HopBall> = walks
            .keys()
            .map(|(key, settings)| key.hop(settings))
            .collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    }

    /// A new cache of the same strategy and configuration for the graph a
    /// write produced: a copy of every walk outcome whose hop `keep`
    /// accepts, and no prepared sampler. `keep` must accept only hops the
    /// write cannot change (the reach test of [`kg_query::reach`]).
    pub fn carry_walks(&self, keep: impl Fn(&HopBall) -> bool) -> (Self, WalkCarry) {
        let walks = self.walks.lock().unwrap();
        let kept: HashMap<_, _> = walks
            .iter()
            .filter(|((key, settings), _)| keep(&key.hop(settings)))
            .map(|(key, entry)| (key.clone(), entry.clone()))
            .collect();
        let carry = WalkCarry {
            kept: kept.len(),
            dropped: walks.len() - kept.len(),
        };
        let cache = Self {
            walks: Mutex::new(kept),
            ..Self::new(self.strategy, self.config)
        };
        (cache, carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;
    use kg_query::SimpleQuery;

    #[test]
    fn repeated_components_hit_the_cache_and_match_fresh_preparation() {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        for i in 0..8 {
            let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.add_edge(de, "product", car);
        }
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[(g.predicate_id("product").unwrap(), 0, 1.0)]);

        let cache = SamplerCache::new(SamplingStrategy::SemanticAware, SamplerConfig::default());
        let mut lookups = CacheStats::default();
        let first = cache.get_or_prepare(&g, &q, &store, &mut lookups).unwrap();
        let second = cache.get_or_prepare(&g, &q, &store, &mut lookups).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(lookups, CacheStats { hits: 1, misses: 1 });
        assert!((lookups.hit_rate() - 0.5).abs() < 1e-12);

        // The cached sampler is value-identical to a fresh preparation.
        let fresh = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        assert_eq!(first.answer_distribution(), fresh.answer_distribution());
        assert_eq!(first.transition_entries, fresh.transition_entries);
    }

    #[test]
    fn a_walk_outcome_is_memoised_per_component_and_settings() {
        let cache = SamplerCache::new(SamplingStrategy::SemanticAware, SamplerConfig::default());
        let query = |specific| ResolvedSimpleQuery {
            specific: EntityId(specific),
            predicate: PredicateId(0),
            target_types: vec![TypeId(1)],
        };
        let strict = WalkSettings::new(0.85, 3, PathAggregation::GeometricMean, true);
        let loose = WalkSettings::new(0.5, 3, PathAggregation::GeometricMean, true);
        // Deltas of one byte, several bytes and the widest id round-trip.
        let ids = vec![EntityId(0), EntityId(1), EntityId(300), EntityId(u32::MAX)];
        let outcome = (7, Some(ids));
        let walks = std::cell::Cell::new(0);
        let walk = |outcome: &(usize, Option<Vec<EntityId>>)| {
            walks.set(walks.get() + 1);
            outcome.clone()
        };
        assert_eq!(
            cache.get_or_walk(&query(0), strict, || walk(&outcome)),
            outcome
        );
        assert_eq!(
            cache.get_or_walk(&query(0), strict, || walk(&outcome)),
            outcome
        );
        assert_eq!(walks.get(), 1);
        // Another engine's settings or another anchor is another entry.
        let truncated = (9, None);
        assert_eq!(
            cache.get_or_walk(&query(0), loose, || walk(&truncated)),
            truncated
        );
        assert_eq!(
            cache.get_or_walk(&query(2), strict, || walk(&truncated)),
            truncated
        );
        assert_eq!(
            cache.get_or_walk(&query(2), strict, || walk(&outcome)),
            truncated
        );
        assert_eq!(walks.get(), 3);
        // No sampler was prepared along the way.
        assert!(cache.entries.lock().unwrap().is_empty());
    }

    #[test]
    fn carrying_walks_copies_the_kept_hops_and_no_sampler() {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let car = b.add_entity("car", &["Automobile"]);
        b.add_edge(de, "product", car);
        let g = b.build();
        let germany = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[(g.predicate_id("product").unwrap(), 0, 1.0)]);
        let cache = SamplerCache::new(SamplingStrategy::SemanticAware, SamplerConfig::default());
        cache
            .get_or_prepare(&g, &germany, &store, &mut CacheStats::default())
            .unwrap();
        let other = ResolvedSimpleQuery {
            specific: car,
            ..germany.clone()
        };
        let strict = WalkSettings::new(0.85, 3, PathAggregation::GeometricMean, true);
        let loose = WalkSettings::new(0.5, 3, PathAggregation::GeometricMean, true);
        let outcome = (1, Some(vec![car]));
        for (query, settings) in [(&germany, strict), (&germany, loose), (&other, strict)] {
            cache.get_or_walk(query, settings, || outcome.clone());
        }
        // Two settings of one component are one hop.
        let hops = cache.walk_hops();
        assert_eq!(hops.len(), 2);
        assert!(hops.windows(2).all(|w| w[0] < w[1]));

        let (carried, carry) = cache.carry_walks(|hop| hop.anchor == de);
        assert_eq!(
            carry,
            WalkCarry {
                kept: 2,
                dropped: 1
            }
        );
        assert!(carried.entries.lock().unwrap().is_empty());
        let walked = std::cell::Cell::new(false);
        for settings in [strict, loose] {
            let kept = carried.get_or_walk(&germany, settings, || {
                walked.set(true);
                (0, None)
            });
            assert_eq!(kept, outcome);
        }
        assert!(!walked.get());
        assert_eq!(carried.get_or_walk(&other, strict, || (0, None)), (0, None));
    }
}
