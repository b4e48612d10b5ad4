//! Shard-parallel execution of the sampling–estimation loop.
//!
//! A [`ShardedSession`] runs one query against a [`ShardedGraph`]:
//!
//! * **Plan once, globally.** Decomposition, sampler preparation and the
//!   assembled answer distribution are exactly the unsharded plan — the
//!   random walk converges once against the full graph.
//! * **Sample per shard.** The answer distribution is split by shard
//!   ownership into strata ([`ShardSampler`]); each stratum draws from its
//!   re-normalised distribution with its **own RNG stream** (seeded from
//!   the engine seed and the shard id, so runs are reproducible per shard
//!   and independent across shards) and validates its draws — these
//!   per-shard refine steps fan out on the rayon pool. Attribute and
//!   filter reads of a stratum's answers go through the shard's local CSR
//!   graph; only the n-hop path validation reads the global graph (a
//!   matching path may cross shards).
//! * **Merge stratified.** Per-shard Horvitz–Thompson estimates and
//!   bootstrap replicates combine by stratified summation
//!   ([`kg_estimate::merge_strata`]): estimates add, variances add, and
//!   Theorem 2's termination test applies to the merged interval
//!   unchanged. Refinement budget for the next round goes to shards
//!   proportionally to their variance contribution (Neyman-style
//!   allocation) — samples are spent where the interval is widest.
//!
//! **K = 1 is the identity refactor**: a sharded session over a
//! single-shard graph *is* an [`InteractiveSession`] (same plan, same RNG
//! stream, same BLB interval), so its answers are bitwise-identical to the
//! unsharded engine — pinned by `tests/shard_equivalence.rs`.

use crate::config::EngineConfig;
use crate::engine::{AqpEngine, ComponentValidator, QueryPlan};
use crate::remote::session::RemoteSession;
use crate::result::{QueryAnswer, RoundTrace, StepTimings};
use crate::session::{validate_entity, validation_config, InteractiveSession, RoundOutcome};
use kg_core::{EntityId, KgResult, ShardedGraph};
use kg_embed::PredicateSimilarity;
use kg_estimate::{
    additional_sample_size, allocate_proportional, merge_strata, satisfies_error_bound,
    stratified_point, StratumEstimate, ValidatedAnswer,
};
use kg_query::{matches_all, AggregateQuery};
use kg_sampling::{SamplerCache, ShardSampler, ShardSamplerCache};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Derives shard `k`'s RNG seed from the engine seed: distinct per shard,
/// deterministic run-to-run (shard membership itself is deterministic — the
/// partitioners tie-break by entity id), and equal to the engine seed for
/// shard 0 so the K=1 stream lines up with the unsharded one.
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Minimum initial draws per non-empty stratum. A stratum sampled only a
/// handful of times can report zero observed variance (e.g. every draw
/// validated incorrect) even though its estimator is highly uncertain —
/// pure variance-proportional allocation would then starve it forever and
/// the merged interval would be overconfident about a biased estimate.
/// Matches the 16-draw floor of [`EngineConfig::initial_sample_size`].
pub(crate) const MIN_STRATUM_DRAWS: usize = 16;

/// Fraction of stratum mass blended into the Neyman weights each
/// refinement round, so every stratum keeps receiving a trickle of draws
/// and zero-observed-variance strata can reveal their true variance.
pub(crate) const EXPLORATION_FLOOR: f64 = 0.25;

/// Per-shard observability of one sharded session: how many draws each
/// shard performed and how long stratified merging took — the numbers that
/// make shard imbalance visible in `BatchStats` and the service `/metrics`.
#[derive(Clone, Debug, Default)]
pub struct ShardedStats {
    /// Cumulative sample draws per shard (indexed by shard id).
    pub per_shard_samples: Vec<usize>,
    /// Milliseconds spent combining per-shard estimates into the merged
    /// interval (the coordination overhead sharding adds).
    pub merge_ms: f64,
}

/// One stratum's mutable sampling state (shared with the remote shard
/// server, which replays the identical draw/validate/estimate sequence).
pub(crate) struct Stratum {
    pub(crate) shard: usize,
    pub(crate) sampler: Arc<ShardSampler>,
    pub(crate) rng: SmallRng,
    /// Draws so far: global entity id plus within-stratum probability π'_k.
    pub(crate) sample: Vec<(EntityId, f64)>,
    /// Validation outcomes per distinct entity (strata own disjoint
    /// candidates, so these caches never overlap across strata).
    pub(crate) validation: HashMap<EntityId, (bool, f64)>,
}

impl Stratum {
    /// A fresh stratum for `shard`, RNG-anchored at the engine seed exactly
    /// like [`open_sharded`] builds them.
    pub(crate) fn new(shard: usize, sampler: Arc<ShardSampler>, engine_seed: u64) -> Self {
        Self {
            shard,
            sampler,
            rng: SmallRng::seed_from_u64(shard_seed(engine_seed, shard)),
            sample: Vec::new(),
            validation: HashMap::new(),
        }
    }
}

/// Builds the validated sample of one stratum, reading attributes and
/// filters through the shard-local graph; entities absent from the
/// stratum's validation cache default to incorrect (the deadline-truncation
/// contract: drawn-but-not-yet-validated answers never contribute).
pub(crate) fn validated_sample(
    stratum: &Stratum,
    plan: &QueryPlan,
    sharded: &ShardedGraph,
) -> Vec<ValidatedAnswer> {
    let shard_graph = sharded.shard(stratum.shard).graph();
    stratum
        .sample
        .iter()
        .map(|(entity, probability)| {
            let (valid, similarity) = stratum
                .validation
                .get(entity)
                .copied()
                .unwrap_or((false, 0.0));
            let (_, local) = sharded.to_local(*entity);
            let passes_filters = matches_all(shard_graph, local, &plan.filters);
            ValidatedAnswer {
                probability: *probability,
                value: plan.aggregate.value_of(shard_graph, local),
                correct: valid && passes_filters,
                similarity,
            }
        })
        .collect()
}

/// The stratified counterpart of [`InteractiveSession`] (K ≥ 2).
struct StratifiedSession {
    config: EngineConfig,
    plan: QueryPlan,
    strata: Vec<Stratum>,
    timings: StepTimings,
    rounds: Vec<RoundTrace>,
    merge_ms: f64,
    /// Per-stratum variance contributions from the last merge, driving the
    /// next round's Neyman allocation.
    last_variances: Vec<f64>,
    /// Whether the most recent round met the requested bound (Theorem 2).
    guarantee_met: bool,
}

enum Inner {
    /// K = 1: the identity refactor — the unsharded session, verbatim.
    Single(Box<InteractiveSession>),
    /// K ≥ 2: stratified execution.
    Stratified(Box<StratifiedSession>),
    /// Strata executed by remote shard servers (any K).
    Remote(Box<RemoteSession>),
}

/// Wraps a [`RemoteSession`] in the public session type (the remote module
/// cannot name [`Inner`] directly).
pub(crate) fn open_sharded_inner(session: RemoteSession) -> ShardedSession {
    ShardedSession {
        inner: Inner::Remote(Box::new(session)),
    }
}

/// An interactive query session over a sharded graph; see the
/// [module docs](self). Obtained from [`AqpEngine::open_sharded_session`]
/// or the sharded batch entry points; refined with [`Self::refine_to`] /
/// [`Self::refine_with`] exactly like an [`InteractiveSession`].
pub struct ShardedSession {
    inner: Inner,
}

/// Opens a session: plan once globally, then split into strata (or wrap the
/// unsharded session when K = 1).
pub(crate) fn open_sharded<S: PredicateSimilarity + ?Sized>(
    engine: &AqpEngine,
    sharded: &ShardedGraph,
    query: &AggregateQuery,
    similarity: &S,
    cache: Option<&SamplerCache>,
    shard_cache: Option<&ShardSamplerCache>,
) -> KgResult<ShardedSession> {
    let config = engine.config().clone();
    let plan = engine.plan_with_cache(sharded.global(), query, similarity, cache)?;
    if sharded.shard_count() == 1 {
        return Ok(ShardedSession {
            inner: Inner::Single(Box::new(InteractiveSession::new(config, plan))),
        });
    }

    // A plan with exactly one simple component has a distribution that is a
    // pure (deterministic) function of that component, so its per-shard
    // restrictions can be memoised across the queries of a batch keyed by
    // the prepared sampler's identity.
    let component_key = match plan.components.as_slice() {
        [single] => match &single.validator {
            ComponentValidator::Simple(search) => Some(Arc::as_ptr(&search.sampler) as usize),
            ComponentValidator::Chain { .. } => None,
        },
        _ => None,
    };
    let strata = (0..sharded.shard_count())
        .map(|shard| {
            let owned = |e: EntityId| sharded.shard_of(e) == shard;
            let sampler = match (shard_cache, component_key) {
                (Some(shard_cache), Some(key)) => {
                    shard_cache.get_or_insert_with(key, sharded.partition_id(), shard, || {
                        ShardSampler::from_distribution(shard, &plan.distribution, owned)
                    })
                }
                _ => Arc::new(ShardSampler::from_distribution(
                    shard,
                    &plan.distribution,
                    owned,
                )),
            };
            Stratum::new(shard, sampler, config.seed)
        })
        .collect();
    let mut timings = StepTimings::default();
    timings.sampling_ms += plan.plan_ms;
    let shard_count = sharded.shard_count();
    Ok(ShardedSession {
        inner: Inner::Stratified(Box::new(StratifiedSession {
            config,
            plan,
            strata,
            timings,
            rounds: Vec::new(),
            merge_ms: 0.0,
            last_variances: vec![0.0; shard_count],
            guarantee_met: false,
        })),
    })
}

impl ShardedSession {
    /// Number of candidate answers the plan found.
    pub fn candidate_count(&self) -> usize {
        match &self.inner {
            Inner::Single(s) => s.candidate_count(),
            Inner::Stratified(s) => s.plan.candidate_count,
            Inner::Remote(s) => s.candidate_count(),
        }
    }

    /// Current total sample size across all shards.
    pub fn sample_size(&self) -> usize {
        match &self.inner {
            Inner::Single(s) => s.sample_size(),
            Inner::Stratified(s) => s.total_sample(),
            Inner::Remote(s) => s.total_draws(),
        }
    }

    /// Number of shards this session executes over.
    pub fn shard_count(&self) -> usize {
        match &self.inner {
            Inner::Single(_) => 1,
            Inner::Stratified(s) => s.strata.len(),
            Inner::Remote(s) => s.shard_count(),
        }
    }

    /// Per-shard sample counts and merge overhead accumulated so far.
    pub fn sharded_stats(&self) -> ShardedStats {
        match &self.inner {
            Inner::Single(s) => ShardedStats {
                per_shard_samples: vec![s.sample_size()],
                merge_ms: 0.0,
            },
            Inner::Stratified(s) => ShardedStats {
                per_shard_samples: s.per_shard_samples(),
                merge_ms: s.merge_ms,
            },
            Inner::Remote(s) => ShardedStats {
                per_shard_samples: s.per_shard_samples(),
                merge_ms: s.merge_ms(),
            },
        }
    }

    /// Runs (or continues) refinement until Theorem 2 holds for
    /// `error_bound` at the session's configured confidence.
    pub fn refine_to<S: PredicateSimilarity + ?Sized + Sync>(
        &mut self,
        sharded: &ShardedGraph,
        similarity: &S,
        error_bound: f64,
    ) -> QueryAnswer {
        let confidence = match &self.inner {
            Inner::Single(s) => s.confidence(),
            Inner::Stratified(s) => s.config.confidence,
            Inner::Remote(s) => s.config().confidence,
        };
        self.refine_with(sharded, similarity, error_bound, confidence)
    }

    /// [`Self::refine_to`] with a per-call confidence level (the sharded
    /// counterpart of [`InteractiveSession::refine_with`]).
    pub fn refine_with<S: PredicateSimilarity + ?Sized + Sync>(
        &mut self,
        sharded: &ShardedGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
    ) -> QueryAnswer {
        match &mut self.inner {
            Inner::Single(s) => {
                s.refine_with(sharded.global(), similarity, error_bound, confidence)
            }
            Inner::Stratified(s) => s.refine_with(sharded, similarity, error_bound, confidence),
            Inner::Remote(s) => s.refine_with(error_bound, confidence),
        }
    }

    /// Runs exactly one refinement round (the sharded counterpart of
    /// [`InteractiveSession::step_with`]): driving this in a loop of up to
    /// `max_rounds` iterations is operation-for-operation identical to one
    /// [`Self::refine_with`] call, so a deadline scheduler that stops at a
    /// round boundary observes exactly the estimate a full refinement would
    /// have produced at that round.
    pub fn step_with<S: PredicateSimilarity + ?Sized + Sync>(
        &mut self,
        sharded: &ShardedGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
    ) -> RoundOutcome {
        match &mut self.inner {
            Inner::Single(s) => s.step_with(sharded.global(), similarity, error_bound, confidence),
            Inner::Stratified(s) => s.step_with(sharded, similarity, error_bound, confidence),
            Inner::Remote(s) => s.step_with(error_bound, confidence),
        }
    }

    /// The best-so-far answer at the current round boundary (estimate,
    /// merged interval, trace, GROUP-BY buckets), without running any
    /// further rounds. `guarantee_met` reflects the last completed round.
    pub fn snapshot_answer(&self, sharded: &ShardedGraph) -> QueryAnswer {
        match &self.inner {
            Inner::Single(s) => s.snapshot_answer(sharded.global()),
            Inner::Stratified(s) => s.snapshot_answer(sharded),
            Inner::Remote(s) => s.snapshot_answer(),
        }
    }

    /// Number of refinement rounds completed so far on this session.
    pub fn rounds_completed(&self) -> usize {
        match &self.inner {
            Inner::Single(s) => s.rounds_completed(),
            Inner::Stratified(s) => s.rounds.len(),
            Inner::Remote(s) => s.rounds_completed(),
        }
    }

    /// Deadline-aware refinement driver: steps rounds exactly like
    /// [`Self::refine_with`] but stops at the first round boundary at or
    /// past `deadline`, returning the best-so-far answer and whether the
    /// deadline truncated refinement (`true` iff more rounds would have
    /// run). Because the check happens only *between* rounds, a truncated
    /// answer is bitwise-identical to what a fresh refinement produces at
    /// the same round count — anytime semantics with no new code path
    /// through the estimators.
    pub fn refine_deadline<S: PredicateSimilarity + ?Sized + Sync>(
        &mut self,
        sharded: &ShardedGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
        deadline: Instant,
    ) -> (QueryAnswer, bool) {
        let mut truncated = false;
        for _round in 0..self.max_rounds() {
            if self.step_with(sharded, similarity, error_bound, confidence)
                != RoundOutcome::Continue
            {
                break;
            }
            if Instant::now() >= deadline {
                truncated = true;
                break;
            }
        }
        (self.snapshot_answer(sharded), truncated)
    }

    /// The configured per-request round cap (`max_rounds`, at least 1).
    pub fn max_rounds(&self) -> usize {
        let config = match &self.inner {
            Inner::Single(s) => s.engine_config(),
            Inner::Stratified(s) => &s.config,
            Inner::Remote(s) => s.config(),
        };
        config.max_rounds.max(1)
    }
}

impl StratifiedSession {
    fn total_sample(&self) -> usize {
        self.strata.iter().map(|s| s.sample.len()).sum()
    }

    fn per_shard_samples(&self) -> Vec<usize> {
        self.strata.iter().map(|s| s.sample.len()).collect()
    }

    /// Draws `allocation[i]` answers into stratum `i`.
    fn draw(&mut self, allocation: &[usize]) {
        let start = Instant::now();
        for (stratum, &count) in self.strata.iter_mut().zip(allocation) {
            if count == 0 {
                continue;
            }
            let drawn = stratum.sampler.draw(&mut stratum.rng, count);
            stratum
                .sample
                .extend(drawn.iter().map(|a| (a.entity, a.probability)));
        }
        self.timings.sampling_ms += start.elapsed().as_secs_f64() * 1e3;
    }

    fn refine_with<S: PredicateSimilarity + ?Sized + Sync>(
        &mut self,
        sharded: &ShardedGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
    ) -> QueryAnswer {
        let wall = Instant::now();
        for _round in 0..self.config.max_rounds.max(1) {
            if self.step_with(sharded, similarity, error_bound, confidence)
                != RoundOutcome::Continue
            {
                break;
            }
        }
        let mut answer = self.snapshot_answer(sharded);
        answer.elapsed_ms = wall.elapsed().as_secs_f64() * 1e3 + self.plan.plan_ms;
        answer
    }

    /// One round of the stratified loop: per-shard validate + estimate +
    /// bootstrap fanned out on the rayon pool, stratified merge, round
    /// trace, then the Neyman-allocated draw for the next round (unless
    /// done). The stratified counterpart of
    /// [`InteractiveSession::step_with`] — identical operation and RNG
    /// sequence to one iteration of the old monolithic refine loop.
    fn step_with<S: PredicateSimilarity + ?Sized + Sync>(
        &mut self,
        sharded: &ShardedGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
    ) -> RoundOutcome {
        self.config.confidence = confidence;
        if self.total_sample() == 0 {
            let initial = self.config.initial_sample_size(self.plan.candidate_count);
            let weights: Vec<f64> = self.strata.iter().map(|s| s.sampler.weight()).collect();
            let mut allocation = allocate_proportional(initial, &weights);
            for (alloc, stratum) in allocation.iter_mut().zip(&self.strata) {
                if !stratum.sampler.is_empty() {
                    *alloc = (*alloc).max(MIN_STRATUM_DRAWS);
                }
            }
            self.draw(&allocation);
        }

        let validation = validation_config(&self.config);
        // Stratified intervals use a plain per-stratum bootstrap (resample
        // size n_k): replicates merge across strata replicate-wise, so the
        // merged interval needs no subsample machinery — and the guarantee
        // step costs `resamples`·n draws instead of BLB's t·`resamples`·n.
        let resamples = self.config.bootstrap.resamples.max(2);

        // Fan the per-shard refine step (validate, estimate, bootstrap)
        // out across the rayon pool; strata are mutually disjoint.
        let plan = &self.plan;
        let config = &self.config;
        let per_stratum: Vec<(StratumEstimate, f64, f64)> = self
            .strata
            .par_iter_mut()
            .map(|stratum| {
                let global = sharded.global();
                let validate_start = Instant::now();
                for i in 0..stratum.sample.len() {
                    let entity = stratum.sample[i].0;
                    if stratum.validation.contains_key(&entity) {
                        continue;
                    }
                    let outcome = validate_entity(
                        plan,
                        config.validate,
                        &validation,
                        global,
                        similarity,
                        entity,
                    );
                    stratum.validation.insert(entity, outcome);
                }
                let validated = validated_sample(stratum, plan, sharded);
                let validate_ms = validate_start.elapsed().as_secs_f64() * 1e3;
                let bootstrap_start = Instant::now();
                let summary = StratumEstimate::compute(
                    &plan.aggregate,
                    &validated,
                    resamples,
                    &mut stratum.rng,
                );
                let bootstrap_ms = bootstrap_start.elapsed().as_secs_f64() * 1e3;
                (summary, validate_ms, bootstrap_ms)
            })
            .collect();

        self.timings.estimation_ms += per_stratum.iter().map(|(_, v, _)| v).sum::<f64>();
        self.timings.guarantee_ms += per_stratum.iter().map(|(_, _, b)| b).sum::<f64>();
        let summaries: Vec<StratumEstimate> = per_stratum.into_iter().map(|(s, _, _)| s).collect();

        let merge_start = Instant::now();
        let merged = merge_strata(&self.plan.aggregate, &summaries, self.config.confidence);
        let estimate_value = merged.estimate;
        let moe = merged.moe;
        self.last_variances = merged.variances;
        let satisfied = satisfies_error_bound(estimate_value, moe, error_bound);
        let merge_elapsed = merge_start.elapsed().as_secs_f64() * 1e3;
        self.merge_ms += merge_elapsed;
        self.timings.guarantee_ms += merge_elapsed;

        self.rounds.push(RoundTrace {
            round: self.rounds.len() + 1,
            estimate: estimate_value,
            moe,
            sample_size: merged.sample_size,
            correct_size: merged.correct,
        });
        kg_telemetry::point(
            "aqp.round",
            &[
                ("round", self.rounds.len().into()),
                ("estimate", estimate_value.into()),
                ("moe", moe.into()),
                ("sample_size", merged.sample_size.into()),
                ("correct_size", merged.correct.into()),
                ("shards", self.strata.len().into()),
                ("merge_ms", merge_elapsed.into()),
            ],
        );

        if satisfied || self.plan.distribution.is_empty() {
            self.guarantee_met = satisfied;
            return if satisfied {
                RoundOutcome::Satisfied
            } else {
                RoundOutcome::Exhausted
            };
        }
        let total = self.total_sample();
        if total >= self.config.max_sample_size {
            self.guarantee_met = false;
            return RoundOutcome::Exhausted;
        }
        let delta = match self.config.fixed_increment {
            Some(fixed) => fixed,
            None => additional_sample_size(
                total,
                moe,
                estimate_value,
                error_bound,
                self.config.bootstrap.blb_exponent,
                self.config.max_sample_size - total,
            ),
        };
        if delta == 0 {
            self.guarantee_met = true;
            return RoundOutcome::Satisfied;
        }
        let delta = delta.min(self.config.max_sample_size - total);
        // Neyman-style allocation: draws go to shards proportionally to
        // their variance contribution, blended with a small fraction of
        // stratum mass (see [`EXPLORATION_FLOOR`]); when every stratum
        // reports zero variance (degenerate round), fall back to mass
        // alone.
        let var_total: f64 = self.last_variances.iter().sum();
        let weights: Vec<f64> = self
            .strata
            .iter()
            .zip(&self.last_variances)
            .map(|(stratum, &var)| {
                let mass = stratum.sampler.weight();
                if var_total > 0.0 {
                    var / var_total + EXPLORATION_FLOOR * mass
                } else {
                    mass
                }
            })
            .collect();
        let allocation = allocate_proportional(delta, &weights);
        if kg_telemetry::enabled() {
            let per_shard = allocation
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",");
            kg_telemetry::point(
                "aqp.allocation",
                &[
                    ("round", self.rounds.len().into()),
                    ("delta", delta.into()),
                    ("per_shard", per_shard.into()),
                ],
            );
        }
        if allocation.iter().sum::<usize>() == 0 {
            self.guarantee_met = false;
            return RoundOutcome::Exhausted;
        }
        self.draw(&allocation);
        self.guarantee_met = false;
        RoundOutcome::Continue
    }

    /// Assembles a [`QueryAnswer`] from the current merged state (the
    /// stratified counterpart of [`InteractiveSession::snapshot_answer`]).
    fn snapshot_answer(&self, sharded: &ShardedGraph) -> QueryAnswer {
        let (estimate_value, moe) = self
            .rounds
            .last()
            .map(|r| (r.estimate, r.moe))
            .unwrap_or((0.0, 0.0));

        // Merged GROUP-BY: per bucket, each stratum contributes its HT terms
        // over the full stratum draw list with out-of-bucket draws marked
        // incorrect (the stratified analogue of the unsharded per-bucket
        // estimator — per-bucket COUNT/SUM still sum to the top-level
        // estimate, up to answers missing the grouping attribute).
        let groups = match self.plan.group_by {
            None => BTreeMap::new(),
            Some((attr, width)) => {
                let keyed: Vec<Vec<(Option<i64>, ValidatedAnswer)>> = self
                    .strata
                    .iter()
                    .map(|stratum| {
                        let shard_graph = sharded.shard(stratum.shard).graph();
                        validated_sample(stratum, &self.plan, sharded)
                            .into_iter()
                            .zip(&stratum.sample)
                            .map(|(answer, (entity, _))| {
                                let (_, local) = sharded.to_local(*entity);
                                let key = shard_graph
                                    .attribute_value(local, attr)
                                    .map(|v| (v / width).floor() as i64);
                                (key, answer)
                            })
                            .collect()
                    })
                    .collect();
                let keys: BTreeSet<i64> = keyed
                    .iter()
                    .flatten()
                    .filter(|(_, a)| a.correct)
                    .filter_map(|(k, _)| *k)
                    .collect();
                keys.into_iter()
                    .map(|key| {
                        let bucket_strata: Vec<Vec<ValidatedAnswer>> = keyed
                            .iter()
                            .map(|stratum| {
                                stratum
                                    .iter()
                                    .map(|(k, a)| ValidatedAnswer {
                                        correct: a.correct && *k == Some(key),
                                        ..*a
                                    })
                                    .collect()
                            })
                            .collect();
                        let refs: Vec<&[ValidatedAnswer]> =
                            bucket_strata.iter().map(Vec::as_slice).collect();
                        (key, stratified_point(&self.plan.aggregate, &refs))
                    })
                    .collect()
            }
        };

        QueryAnswer {
            estimate: estimate_value,
            moe,
            confidence: self.config.confidence,
            guarantee_met: self.guarantee_met,
            rounds: self.rounds.clone(),
            groups,
            timings: self.timings,
            sample_size: self.total_sample(),
            candidate_count: self.plan.candidate_count,
            elapsed_ms: self.timings.total_ms(),
            missing_shards: Vec::new(),
        }
    }
}

// Sharded sessions cross worker threads in the service result cache.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<ShardedSession>();
};

impl AqpEngine {
    /// Opens a [`ShardedSession`]: the sharded counterpart of
    /// [`AqpEngine::open_session`]. With a single-shard graph the session
    /// *is* the unsharded session (bitwise-identical answers).
    pub fn open_sharded_session<S: PredicateSimilarity + ?Sized>(
        &self,
        sharded: &ShardedGraph,
        query: &AggregateQuery,
        similarity: &S,
    ) -> KgResult<ShardedSession> {
        open_sharded(self, sharded, query, similarity, None, None)
    }

    /// Executes one query over a sharded graph until the Theorem-2
    /// guarantee holds for the merged interval: the sharded counterpart of
    /// [`AqpEngine::execute`].
    pub fn execute_sharded<S: PredicateSimilarity + ?Sized + Sync>(
        &self,
        sharded: &ShardedGraph,
        query: &AggregateQuery,
        similarity: &S,
    ) -> KgResult<QueryAnswer> {
        let mut session = self.open_sharded_session(sharded, query, similarity)?;
        Ok(session.refine_to(sharded, similarity, self.config().error_bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_seeds_are_distinct_and_anchor_at_the_engine_seed() {
        let seed = 0xA96_5EED;
        assert_eq!(shard_seed(seed, 0), seed);
        let seeds: std::collections::HashSet<u64> = (0..16).map(|k| shard_seed(seed, k)).collect();
        assert_eq!(seeds.len(), 16);
    }
}
