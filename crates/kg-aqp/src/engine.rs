//! The approximate aggregate query engine (Algorithm 2) and the
//! decomposition–assembly planner for complex shapes (§V).

use crate::config::EngineConfig;
use crate::remote::fleet::ShardFleet;
use crate::result::QueryAnswer;
use crate::session::Session;
use crate::stratum::{validation_config, GraphHandle};
use kg_core::{EntityId, KgResult, KnowledgeGraph};
use kg_embed::PredicateSimilarity;
use kg_estimate::{validate_answer, ValidationConfig, ValidationTable};
use kg_query::{
    matches_all, AggregateQuery, MatchConfig, MatchWalk, QuerySpec, ResolvedAggregate,
    ResolvedChainQuery, ResolvedComplexQuery, ResolvedComponent, ResolvedFilter,
    ResolvedSimpleQuery,
};
use kg_sampling::{prepare, AliasTable, CacheStats, PreparedSampler, SamplerCache, WalkSettings};
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One prepared simple query and the validation outcomes of its candidates,
/// for a plan that samples (Algorithm 2; the exact outcome prepares none,
/// see [`AqpEngine::plan_exact`]).
///
/// The greedy π-guided search does not depend on the answer it validates, so
/// it runs once per component — while planning a chain hop, else on first
/// use, whichever session or stratum gets there first — and every candidate
/// is answered from the resulting [`ValidationTable`]. The table lives and
/// dies with the plan.
pub(crate) struct ComponentSearch {
    pub(crate) query: ResolvedSimpleQuery,
    pub(crate) sampler: Arc<PreparedSampler>,
    table: OnceLock<ValidationTable>,
}

impl ComponentSearch {
    fn new(
        query: ResolvedSimpleQuery,
        sampler: Arc<PreparedSampler>,
        table: Option<ValidationTable>,
    ) -> Self {
        let table = table.map_or_else(OnceLock::new, OnceLock::from);
        Self {
            query,
            sampler,
            table,
        }
    }

    /// `(correct, best similarity)` of `entity`: what
    /// [`validate_answer`] returns for it, bit for bit.
    pub(crate) fn validate<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        similarity: &S,
        entity: EntityId,
        config: &ValidationConfig,
    ) -> (bool, f64) {
        let table = self.table.get_or_init(|| {
            ValidationTable::build(graph, &self.query, &self.sampler, similarity, config)
        });
        let outcome = table.lookup(entity, config).unwrap_or_else(|| {
            validate_answer(
                graph,
                &self.query,
                entity,
                &self.sampler,
                similarity,
                config,
            )
        });
        (outcome.correct, outcome.best_similarity)
    }
}

/// How the correctness of a sampled answer is checked for one component of
/// the (possibly decomposed) query.
pub(crate) enum ComponentValidator {
    /// A single-edge component: validate against the component's query with
    /// the greedy π-guided search.
    Simple(ComponentSearch),
    /// A chain component, hop by hop as §V-B (and τ-GT) evaluates it: an
    /// inner hop's answers anchor the next hop only where its table says
    /// they are correct, and a final answer is correct iff some last hop
    /// that proposes it says so.
    Chain {
        /// Final answer → index into `hops` of every last hop proposing it.
        final_hops: HashMap<EntityId, Vec<usize>>,
        /// One search per anchored last-hop query.
        hops: Vec<ComponentSearch>,
    },
}

/// One decomposed component: its answer distribution and validator.
pub(crate) struct ComponentPlan {
    pub(crate) distribution: BTreeMap<EntityId, f64>,
    pub(crate) validator: ComponentValidator,
    pub(crate) candidate_count: usize,
}

/// A fully-planned query ready for iterative sampling–estimation.
pub(crate) struct QueryPlan {
    /// Combined answer distribution (intersection of component supports,
    /// probabilities multiplied and re-normalised).
    pub(crate) distribution: Vec<(EntityId, f64)>,
    /// O(1) draw table over the combined distribution (`None` when the
    /// distribution is empty), built once at plan time and shared by every
    /// round of the sampling–estimation loop.
    pub(crate) table: Option<AliasTable>,
    pub(crate) components: Vec<ComponentPlan>,
    pub(crate) aggregate: ResolvedAggregate,
    pub(crate) filters: Vec<ResolvedFilter>,
    pub(crate) group_by: Option<(kg_core::AttrId, f64)>,
    pub(crate) candidate_count: usize,
    pub(crate) plan_ms: f64,
    /// The exact outcome's answers — τ-relevant, filtered, sorted by entity
    /// id — for a plan from [`AqpEngine::plan_exact`], which samples nothing
    /// (empty distribution, no table, no components); `None` for a plan
    /// that samples.
    pub(crate) exact: Option<Vec<EntityId>>,
}

/// What a query's answers are reduced to: the aggregate, the filters and
/// the GROUP-BY, resolved in the order every planner reports errors in.
type Outputs = (
    ResolvedAggregate,
    Vec<ResolvedFilter>,
    Option<(kg_core::AttrId, f64)>,
);

fn resolve_outputs(graph: &KnowledgeGraph, query: &AggregateQuery) -> KgResult<Outputs> {
    let aggregate = query.function.resolve(graph)?;
    let filters = query.resolve_filters(graph)?;
    let group_by = match &query.group_by {
        None => None,
        Some(gb) => Some(gb.resolve(graph)?),
    };
    Ok((aggregate, filters, group_by))
}

/// One planning call's lookups in a [`SamplerCache`]: counted by the call
/// rather than read off the cache, which concurrent planners may share.
#[derive(Debug, Default)]
pub(crate) struct Lookups {
    /// Prepared-sampler lookups (the path-limit fallback and Algorithm 2).
    pub(crate) samplers: CacheStats,
    /// Exact-walk lookups, one per hop.
    pub(crate) walks: CacheStats,
}

/// The exact planner's state: the cache each hop is looked up in, the
/// [`MatchWalk`] buffers the hops it misses are walked with, and the
/// largest n-ball candidate count seen.
struct ExactWalks<'a> {
    config: &'a EngineConfig,
    cache: Option<&'a SamplerCache>,
    settings: WalkSettings,
    /// Allocated on the plan's first walk: a plan whose hops all hit the
    /// cache allocates none.
    walk: Option<MatchWalk>,
    candidate_count: usize,
    /// This plan's cache hits and misses. Counted here rather than read
    /// off the cache, which concurrent planners may share.
    lookups: &'a mut CacheStats,
}

impl ExactWalks<'_> {
    /// The correct answers of one simple query, sorted by entity id, as
    /// [`kg_query::simple_ground_truth`] decides them — every n-ball
    /// candidate under `validate: false` (the Fig. 5(b) ablation). `None`
    /// when a candidate passes SSB's path limit. Memoised in the cache, if
    /// there is one.
    fn simple<S: PredicateSimilarity + ?Sized>(
        &mut self,
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        similarity: &S,
    ) -> Option<Vec<EntityId>> {
        let config = self.config;
        let buffers = &mut self.walk;
        let mut walked = false;
        let mut walk = || {
            walked = true;
            let walk = buffers.get_or_insert_with(|| MatchWalk::new(graph));
            walk_hop(config, walk, graph, query, similarity)
        };
        let (candidates, correct) = match self.cache {
            Some(cache) => {
                let outcome = cache.get_or_walk(query, self.settings, walk);
                if walked {
                    self.lookups.misses += 1;
                } else {
                    self.lookups.hits += 1;
                }
                outcome
            }
            None => walk(),
        };
        self.candidate_count = self.candidate_count.max(candidates);
        correct
    }

    /// A chain hop by hop, as [`kg_query::chain_ground_truth`] evaluates
    /// it: each hop is anchored at every correct answer of the one before.
    fn chain<S: PredicateSimilarity + ?Sized>(
        &mut self,
        graph: &KnowledgeGraph,
        chain: &ResolvedChainQuery,
        similarity: &S,
    ) -> Option<Vec<EntityId>> {
        if chain.hops.is_empty() {
            return Some(Vec::new());
        }
        let mut frontier = vec![chain.specific];
        for hop in 0..chain.hops.len() {
            let mut next = Vec::new();
            for &anchor in &frontier {
                next.extend(self.simple(graph, &chain.hop_as_simple(hop, anchor), similarity)?);
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Some(frontier)
    }
}

/// One hop's walk: its n-ball candidate count, and its correct answers as
/// [`ExactWalks::simple`] returns them.
fn walk_hop<S: PredicateSimilarity + ?Sized>(
    config: &EngineConfig,
    walk: &mut MatchWalk,
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    similarity: &S,
) -> (usize, Option<Vec<EntityId>>) {
    let candidates = walk.ball_candidates(graph, query, config.n_bound);
    let count = candidates.len();
    if !config.validate {
        let mut all = candidates.to_vec();
        all.sort_unstable();
        return (count, Some(all));
    }
    let match_config = MatchConfig {
        max_path_len: config.n_bound as usize,
        aggregation: config.aggregation,
        ..MatchConfig::default()
    };
    let complete = walk.walk(graph, query, similarity, &match_config);
    (count, complete.then(|| walk.correct(config.tau)))
}

/// The approximate aggregate query engine.
#[derive(Clone)]
pub struct AqpEngine {
    config: EngineConfig,
    /// The shard servers a sharded graph's strata run on, for an engine
    /// built with [`Self::remote`].
    pub(crate) fleet: Option<Arc<ShardFleet>>,
}

// `ShardFleet` holds a transport trait object, so it has no `Debug`.
impl std::fmt::Debug for AqpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AqpEngine")
            .field("config", &self.config)
            .field("remote", &self.fleet.is_some())
            .finish()
    }
}

impl AqpEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            fleet: None,
        }
    }

    /// Creates a coordinator engine: sessions over a
    /// [`kg_core::ShardedGraph`] run their strata on `fleet`'s shard
    /// servers instead of in this process. The coordinator plans against its
    /// own (identical) copy of the graph; `fleet` must route to servers whose
    /// fingerprints match (checked via [`ShardFleet::ping_all`] at topology
    /// setup, not per session).
    pub fn remote(config: EngineConfig, fleet: Arc<ShardFleet>) -> Self {
        Self {
            config,
            fleet: Some(fleet),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Executes an aggregate query, iterating until the error-bound guarantee
    /// of Theorem 2 holds or the round/sample caps are reached.
    pub fn execute<G: GraphHandle + ?Sized, S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &G,
        query: &AggregateQuery,
        similarity: &S,
    ) -> KgResult<QueryAnswer> {
        let mut session = self.open_session(graph, query, similarity)?;
        Ok(session.refine_to(graph, similarity, self.config.error_bound))
    }

    /// Opens an interactive session for a query: the plan and sample are kept
    /// so the error bound can be tightened incrementally (Fig. 6(a)). The
    /// graph handle picks the executor: a [`KnowledgeGraph`] (or a
    /// single-shard graph) runs as one whole-graph stratum, a
    /// [`kg_core::ShardedGraph`] of two or more shards as one in-process
    /// stratum per shard — or, on a [`Self::remote`] engine, any sharded
    /// graph as one stratum per shard server.
    pub fn open_session<G: GraphHandle + ?Sized, S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &G,
        query: &AggregateQuery,
        similarity: &S,
    ) -> KgResult<Session<G>> {
        self.open(graph, query, similarity, None, &mut Lookups::default())
    }

    // ------------------------------------------------------------------
    // Planning (decomposition–assembly)
    // ------------------------------------------------------------------

    /// Plans `query` for the exact outcome ([`EngineConfig::enumerate`]):
    /// each simple component, and each anchored hop of a chain, is one
    /// [`MatchWalk`] from its mapping node, composed as
    /// [`kg_query::complex_ground_truth`] composes them — an inner chain hop
    /// anchors the next at its correct answers, and components intersect.
    /// The answers are therefore τ-GT's by construction, and no sampler,
    /// validation table or alias table is built. `None` when some candidate
    /// has more admissible paths than SSB's path limit
    /// ([`MatchConfig::path_limit`]): SSB truncates there, so the query is
    /// not answered exactly. Each hop is looked up in `cache` first and
    /// walked only on a miss; `lookups` counts this plan's hits and misses.
    pub(crate) fn plan_exact<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        query: &AggregateQuery,
        similarity: &S,
        cache: Option<&SamplerCache>,
        lookups: &mut CacheStats,
    ) -> KgResult<Option<QueryPlan>> {
        let start = Instant::now();
        let (aggregate, filters, group_by) = resolve_outputs(graph, query)?;
        let components = match &query.query {
            QuerySpec::Simple(simple) => vec![ResolvedComponent::Simple(simple.resolve(graph)?)],
            QuerySpec::Complex(complex) => complex.resolve(graph)?.components,
        };
        let config = &self.config;
        let mut walks = ExactWalks {
            config,
            cache,
            settings: WalkSettings::new(
                config.tau,
                config.n_bound,
                config.aggregation,
                config.validate,
            ),
            walk: None,
            candidate_count: 0,
            lookups,
        };
        let mut answers: Option<Vec<EntityId>> = None;
        for component in &components {
            let correct = match component {
                ResolvedComponent::Simple(q) => walks.simple(graph, q, similarity),
                ResolvedComponent::Chain(q) => walks.chain(graph, q, similarity),
            };
            let Some(correct) = correct else {
                return Ok(None);
            };
            answers = Some(match answers {
                None => correct,
                Some(mut so_far) => {
                    so_far.retain(|e| correct.binary_search(e).is_ok());
                    so_far
                }
            });
        }
        let mut answers = answers.unwrap_or_default();
        answers.retain(|&e| matches_all(graph, e, &filters));
        Ok(Some(QueryPlan {
            distribution: Vec::new(),
            table: None,
            components: Vec::new(),
            aggregate,
            filters,
            group_by,
            candidate_count: walks.candidate_count,
            plan_ms: start.elapsed().as_secs_f64() * 1e3,
            exact: Some(answers),
        }))
    }

    /// Plans a query for Algorithm 2, optionally reusing prepared samplers
    /// from `cache` for simple components (batch execution prepares each
    /// distinct component once); `lookups` counts this plan's sampler hits
    /// and misses. Cached and fresh planning produce identical plans:
    /// sampler preparation is deterministic.
    pub(crate) fn plan_with_cache<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        query: &AggregateQuery,
        similarity: &S,
        cache: Option<&SamplerCache>,
        lookups: &mut CacheStats,
    ) -> KgResult<QueryPlan> {
        let start = Instant::now();
        let (aggregate, filters, group_by) = resolve_outputs(graph, query)?;

        let components = match &query.query {
            QuerySpec::Simple(simple) => {
                let resolved = simple.resolve(graph)?;
                vec![self.plan_simple(graph, &resolved, similarity, cache, lookups)?]
            }
            QuerySpec::Complex(complex) => {
                let resolved: ResolvedComplexQuery = complex.resolve(graph)?;
                resolved
                    .components
                    .iter()
                    .map(|c| match c {
                        ResolvedComponent::Simple(q) => {
                            self.plan_simple(graph, q, similarity, cache, lookups)
                        }
                        ResolvedComponent::Chain(q) => {
                            self.plan_chain(graph, q, similarity, cache, lookups)
                        }
                    })
                    .collect::<KgResult<Vec<_>>>()?
            }
        };

        // Assemble: intersect supports, multiply probabilities, re-normalise.
        let mut combined: BTreeMap<EntityId, f64> = components
            .first()
            .map(|c| c.distribution.clone())
            .unwrap_or_default();
        for c in components.iter().skip(1) {
            combined.retain(|e, _| c.distribution.contains_key(e));
            for (e, p) in combined.iter_mut() {
                *p *= c.distribution[e];
            }
        }
        // In entity order: float addition is order-sensitive.
        let mut distribution: Vec<(EntityId, f64)> = combined.into_iter().collect();
        let total: f64 = distribution.iter().map(|(_, p)| *p).sum();
        if total > 0.0 {
            for (_, p) in &mut distribution {
                *p /= total;
            }
        } else if !distribution.is_empty() {
            let uniform = 1.0 / distribution.len() as f64;
            for (_, p) in &mut distribution {
                *p = uniform;
            }
        }
        // Build the O(1) draw table once per plan. Component weights were
        // validated at prepare time, but the assembly above multiplies and
        // re-normalises — the table build re-validates the products, so a
        // degenerate combined distribution is still a structured plan error
        // rather than a draw-time panic.
        let table = if distribution.is_empty() {
            None
        } else {
            let weights: Vec<f64> = distribution.iter().map(|(_, p)| *p).collect();
            Some(AliasTable::new(&weights).map_err(kg_core::KgError::from)?)
        };
        let candidate_count = components
            .iter()
            .map(|c| c.candidate_count)
            .max()
            .unwrap_or(0);

        Ok(QueryPlan {
            distribution,
            table,
            components,
            aggregate,
            filters,
            group_by,
            candidate_count,
            plan_ms: start.elapsed().as_secs_f64() * 1e3,
            exact: None,
        })
    }

    fn plan_simple<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        similarity: &S,
        cache: Option<&SamplerCache>,
        lookups: &mut CacheStats,
    ) -> KgResult<ComponentPlan> {
        let sampler = match cache {
            Some(cache) => cache.get_or_prepare(graph, query, similarity, lookups)?,
            None => Arc::new(prepare(
                graph,
                query,
                similarity,
                self.config.strategy,
                &self.config.sampler_config(),
            )?),
        };
        let distribution = sampler
            .answer_distribution()
            .iter()
            .map(|a| (a.entity, a.probability))
            .collect();
        Ok(ComponentPlan {
            distribution,
            candidate_count: sampler.candidate_count(),
            validator: ComponentValidator::Simple(ComponentSearch::new(
                query.clone(),
                sampler,
                None,
            )),
        })
    }

    fn plan_chain<S: PredicateSimilarity + ?Sized>(
        &self,
        graph: &KnowledgeGraph,
        chain: &ResolvedChainQuery,
        similarity: &S,
        cache: Option<&SamplerCache>,
        lookups: &mut CacheStats,
    ) -> KgResult<ComponentPlan> {
        let (validate, validation) = (self.config.validate, validation_config(&self.config));
        // First-level sampling from the specific node towards the first hop.
        let mut anchors: Vec<(EntityId, f64)> = vec![(chain.specific, 1.0)];
        let mut hops: Vec<ComponentSearch> = Vec::new();
        let mut final_hops: HashMap<EntityId, Vec<usize>> = HashMap::new();
        let mut distribution: BTreeMap<EntityId, f64> = BTreeMap::new();
        let mut candidate_count = 0usize;

        for hop in 0..chain.hops.len() {
            let is_last = hop + 1 == chain.hops.len();
            // One sampler and validation table per anchor, in parallel (the
            // paper runs each second sampling as a thread). An inner hop
            // passes on only the answers its table says are correct, as
            // `chain_ground_truth` does, each weighted by its π. Each anchor
            // counts its own sampler lookup.
            type HopResult = KgResult<(
                CacheStats,
                usize,
                Option<ComponentSearch>,
                Vec<(EntityId, f64)>,
            )>;
            let hop_results: Vec<HopResult> = anchors
                .par_iter()
                .map(|&(anchor, anchor_prob)| {
                    let hop_query = chain.hop_as_simple(hop, anchor);
                    let mut hop_lookups = CacheStats::default();
                    let sampler = match cache {
                        Some(cache) => {
                            cache.get_or_prepare(graph, &hop_query, similarity, &mut hop_lookups)?
                        }
                        None => Arc::new(prepare(
                            graph,
                            &hop_query,
                            similarity,
                            self.config.strategy,
                            &self.config.sampler_config(),
                        )?),
                    };
                    let table = validate.then(|| {
                        ValidationTable::build(graph, &hop_query, &sampler, similarity, &validation)
                    });
                    let search = ComponentSearch::new(hop_query, sampler, table);
                    let passes = |entity| {
                        is_last
                            || !validate
                            || search.validate(graph, similarity, entity, &validation).0
                    };
                    let answers = search
                        .sampler
                        .answer_distribution()
                        .iter()
                        .filter(|a| passes(a.entity))
                        .map(|a| (a.entity, anchor_prob * a.probability))
                        .collect();
                    let candidates = search.sampler.candidate_count();
                    Ok((hop_lookups, candidates, is_last.then_some(search), answers))
                })
                .collect();

            let mut next_anchors: BTreeMap<EntityId, f64> = BTreeMap::new();
            for hop_result in hop_results {
                let (hop_lookups, candidates, search, answers) = hop_result?;
                lookups.hits += hop_lookups.hits;
                lookups.misses += hop_lookups.misses;
                candidate_count = candidate_count.max(candidates);
                let hop_index = hops.len();
                hops.extend(search);
                for (entity, probability) in answers {
                    if is_last {
                        *distribution.entry(entity).or_insert(0.0) += probability;
                        final_hops.entry(entity).or_default().push(hop_index);
                    } else {
                        *next_anchors.entry(entity).or_insert(0.0) += probability;
                    }
                }
            }
            if !is_last {
                // Every correct anchor goes on, re-normalised in entity order.
                anchors = next_anchors.into_iter().collect();
                let total: f64 = anchors.iter().map(|(_, p)| p).sum();
                if total > 0.0 {
                    for (_, p) in &mut anchors {
                        *p /= total;
                    }
                }
                if anchors.is_empty() {
                    break;
                }
            }
        }

        // Normalise the final distribution, summing in entity order.
        let total: f64 = distribution.values().sum();
        if total > 0.0 {
            for p in distribution.values_mut() {
                *p /= total;
            }
        }
        Ok(ComponentPlan {
            distribution,
            candidate_count,
            validator: ComponentValidator::Chain { final_hops, hops },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
    use kg_query::{AggregateFunction, ChainHop, ChainQuery, ComplexQuery, SimpleQuery};

    fn dataset() -> kg_datagen::GeneratedDataset {
        generate(&GeneratorConfig::new(
            "engine-test",
            DatasetScale::tiny(),
            vec![domains::automotive(&["Germany", "China", "Korea"])],
            23,
        ))
    }

    #[test]
    fn count_estimate_tracks_tau_ground_truth() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig {
            error_bound: 0.05,
            enumerate: false,
            ..EngineConfig::default()
        });
        let query = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let answer = engine.execute(&d.graph, &query, &d.oracle).unwrap();
        // Exact τ-GT via SSB.
        let ssb = kg_query::SsbEngine::new(kg_query::GroundTruthConfig::default());
        let truth = ssb.evaluate(&d.graph, &query, &d.oracle).unwrap().value;
        assert!(truth > 0.0);
        let rel = answer.relative_error(truth);
        assert!(
            rel < 0.25,
            "estimate {} truth {truth} rel {rel}",
            answer.estimate
        );
        assert!(answer.sample_size > 0);
        assert!(answer.candidate_count > 0);
        assert!(!answer.rounds.is_empty());
        assert!(answer.timings.total_ms() >= 0.0);
    }

    #[test]
    fn avg_estimate_is_reasonable() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig {
            error_bound: 0.05,
            ..EngineConfig::default()
        });
        let query = AggregateQuery::simple(
            SimpleQuery::new("China", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Avg("price".into()),
        );
        let answer = engine.execute(&d.graph, &query, &d.oracle).unwrap();
        let ssb = kg_query::SsbEngine::new(kg_query::GroundTruthConfig::default());
        let truth = ssb.evaluate(&d.graph, &query, &d.oracle).unwrap().value;
        assert!(
            answer.relative_error(truth) < 0.15,
            "est {} truth {truth}",
            answer.estimate
        );
    }

    #[test]
    fn chain_and_star_queries_execute() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig {
            error_bound: 0.10,
            ..EngineConfig::default()
        });
        let chain = AggregateQuery::complex(
            ComplexQuery::chain(ChainQuery::new(
                "Germany",
                &["Country"],
                vec![
                    ChainHop::new("country", &["Company"]),
                    ChainHop::new("manufacturer", &["Automobile"]),
                ],
            )),
            AggregateFunction::Count,
        );
        let answer = engine.execute(&d.graph, &chain, &d.oracle).unwrap();
        assert!(answer.estimate > 0.0);

        let star = AggregateQuery::complex(
            ComplexQuery::star(vec![
                SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
                SimpleQuery::new("China", &["Country"], "product", &["Automobile"]),
            ]),
            AggregateFunction::Count,
        );
        let answer = engine.execute(&d.graph, &star, &d.oracle).unwrap();
        // Some cars are planted with both hubs, so the intersection is non-empty.
        assert!(answer.estimate >= 0.0);
        assert!(answer.candidate_count > 0);
    }

    /// Counts predicate-similarity evaluations: planning aside, only a
    /// validation search makes them.
    struct Counting<'a> {
        inner: &'a kg_embed::PredicateVectorStore,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl PredicateSimilarity for Counting<'_> {
        fn similarity(&self, a: kg_core::PredicateId, b: kg_core::PredicateId) -> f64 {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.similarity(a, b)
        }
    }

    #[test]
    fn strata_validating_in_parallel_build_the_table_once() {
        use crate::stratum::{validate_entity, validation_config};
        use std::sync::atomic::Ordering;

        let d = dataset();
        let engine = AqpEngine::new(EngineConfig::default());
        let query = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let counting = Counting {
            inner: &d.oracle,
            calls: Default::default(),
        };
        let plan = engine
            .plan_with_cache(
                &d.graph,
                &query,
                &counting,
                None,
                &mut CacheStats::default(),
            )
            .unwrap();
        let validation = validation_config(engine.config());
        let ComponentValidator::Simple(search) = &plan.components[0].validator else {
            panic!("a simple query plans one simple component");
        };

        counting.calls.store(0, Ordering::Relaxed);
        ValidationTable::build(
            &d.graph,
            &search.query,
            &search.sampler,
            &counting,
            &validation,
        );
        let one_build = counting.calls.swap(0, Ordering::Relaxed);
        assert!(one_build > 0);

        // Four strata, released together onto a plan whose table is unbuilt.
        const STRATA: usize = 4;
        let barrier = std::sync::Barrier::new(STRATA);
        let outcomes: Vec<Vec<(EntityId, (bool, f64))>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..STRATA)
                .map(|k| {
                    let (plan, barrier, counting, graph) = (&plan, &barrier, &counting, &d.graph);
                    scope.spawn(move || {
                        barrier.wait();
                        plan.distribution
                            .iter()
                            .skip(k)
                            .step_by(STRATA)
                            .map(|(e, _)| {
                                let out =
                                    validate_entity(plan, true, &validation, graph, counting, *e);
                                (*e, out)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counting.calls.load(Ordering::Relaxed), one_build);

        let validated: usize = outcomes.iter().map(Vec::len).sum();
        assert_eq!(validated, plan.distribution.len());
        for (entity, (correct, sim)) in outcomes.into_iter().flatten() {
            let reference = validate_answer(
                &d.graph,
                &search.query,
                entity,
                &search.sampler,
                &d.oracle,
                &validation,
            );
            assert_eq!(correct, reference.correct);
            assert_eq!(sim.to_bits(), reference.best_similarity.to_bits());
        }
    }

    #[test]
    fn entities_the_table_declines_fall_back_to_the_per_answer_search() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig::default());
        let query = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let plan = engine
            .plan_with_cache(
                &d.graph,
                &query,
                &d.oracle,
                None,
                &mut CacheStats::default(),
            )
            .unwrap();
        let validation = crate::stratum::validation_config(engine.config());
        let ComponentValidator::Simple(search) = &plan.components[0].validator else {
            panic!("a simple query plans one simple component");
        };
        // The mapping node, another hub, and an intermediate a path may pass
        // through (as the answer it ends the walk there, so the table, which
        // walked on, cannot speak for it).
        let company = d
            .graph
            .neighbors(search.query.specific)
            .iter()
            .map(|edge| edge.neighbor)
            .find(|e| kg_query::admissible_intermediate(&d.graph, &search.query, *e))
            .unwrap();
        let china = d.graph.entity_by_name("China").unwrap();
        for entity in [search.query.specific, china, company] {
            let reference = validate_answer(
                &d.graph,
                &search.query,
                entity,
                &search.sampler,
                &d.oracle,
                &validation,
            );
            let (correct, sim) = search.validate(&d.graph, &d.oracle, entity, &validation);
            assert_eq!(correct, reference.correct, "{entity:?}");
            assert_eq!(sim.to_bits(), reference.best_similarity.to_bits());
        }
        assert!(
            search.validate(&d.graph, &d.oracle, company, &validation).1 > 0.0,
            "an intermediate next to the hub is reached"
        );
    }

    /// A hand-built chain, Germany –country→ Company –manufacturer→
    /// Automobile, that catches both ways a chain's estimand can leave τ-GT:
    /// `shady`, tied to Germany only by predicates below τ, is the most
    /// probable first-hop answer and must lend the answer none of its cars;
    /// `weak`, the least probable correct one behind 48 stronger companies,
    /// must lend its car, which no other anchor validates.
    #[test]
    fn a_chain_anchors_every_correct_answer_and_no_other() {
        use kg_core::GraphBuilder;
        use kg_query::{chain_ground_truth, GroundTruthConfig};

        let mut b = GraphBuilder::new();
        b.add_entity("Germany", &["Country"]);
        let mut company = |name: &str, cars: usize, ties: &[&str]| {
            b.add_entity(name, &["Company"]);
            for tie in ties {
                b.add_edge_by_name(name, tie, "Germany");
            }
            for i in 0..cars {
                let car = format!("{name}_car{i}");
                b.add_entity(&car, &["Automobile"]);
                b.add_edge_by_name(&car, "manufacturer", name);
            }
        };
        for i in 0..48 {
            company(&format!("big{i}"), 2, &["country"]);
        }
        company("weak", 1, &["country"]);
        company("shady", 3, &["rumoured", "linked"]);
        let graph = b.build();
        let oracle = kg_embed::oracle::oracle_store(&[
            (graph.predicate_id("country").unwrap(), 0, 1.0),
            (graph.predicate_id("rumoured").unwrap(), 0, 0.5),
            (graph.predicate_id("linked").unwrap(), 0, 0.6),
            (graph.predicate_id("manufacturer").unwrap(), 1, 1.0),
        ]);
        let chain = ChainQuery::new(
            "Germany",
            &["Country"],
            vec![
                ChainHop::new("country", &["Company"]),
                ChainHop::new("manufacturer", &["Automobile"]),
            ],
        );
        let engine = AqpEngine::new(EngineConfig::default());
        let entity = |name: &str| graph.entity_by_name(name).unwrap();

        // The premise, on the first hop's π.
        let resolved = chain.resolve(&graph).unwrap();
        let first = resolved.hop_as_simple(0, resolved.specific);
        let config = engine.config();
        let sampler = prepare(
            &graph,
            &first,
            &oracle,
            config.strategy,
            &config.sampler_config(),
        )
        .unwrap();
        let pi = |name: &str| sampler.answer_probability(entity(name));
        for i in 0..48 {
            let big = pi(&format!("big{i}"));
            assert!(pi("shady") > big && big > pi("weak"), "big{i}");
        }

        let query = AggregateQuery::complex(ComplexQuery::chain(chain), AggregateFunction::Count);
        let plan = engine
            .plan_with_cache(&graph, &query, &oracle, None, &mut CacheStats::default())
            .unwrap();
        let answers = crate::session::estimand_answers(&plan, config, &graph, &oracle);
        assert!(answers.contains(&entity("weak_car0")));
        for i in 0..3 {
            let shady_car = entity(&format!("shady_car{i}"));
            assert!(plan.distribution.iter().any(|(e, _)| *e == shady_car));
            assert!(!answers.contains(&shady_car));
        }
        assert_eq!(answers.len(), 48 * 2 + 1);
        let truth = chain_ground_truth(&graph, &resolved, &oracle, &GroundTruthConfig::default());
        assert_eq!(answers, truth.correct);
    }

    #[test]
    fn unknown_entities_fail_cleanly() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig::default());
        let query = AggregateQuery::simple(
            SimpleQuery::new("Atlantis", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        assert!(engine.execute(&d.graph, &query, &d.oracle).is_err());
        assert_eq!(engine.config().n_bound, 3);
    }
}
