//! The coordinator half of distributed execution: a stratified session
//! whose per-shard refine steps are remote procedure calls.
//!
//! [`RemoteSession`] mirrors the in-process stratified session
//! operation-for-operation: it plans the query once against its own copy of
//! the graph, builds the identical per-shard samplers (for stratum weights
//! and the initial allocation — it never draws from them), and then runs
//! the same round loop, with each stratum's draw/validate/estimate step
//! executed by a shard server through the [`ShardFleet`]. On the
//! fault-free path the scattered round is bitwise-identical to
//! [`crate::ShardedSession`] over the same graph, config and seed — pinned
//! by `tests/remote_equivalence.rs`.
//!
//! **Degraded rounds.** When a shard stays unreachable past the fleet's
//! retry budget, the round merges the surviving strata only: the merged
//! estimate is still a valid stratified estimator of the reachable mass,
//! with a wider interval, and the answer is flagged with the missing shard
//! ids ([`crate::QueryAnswer::missing_shards`]) instead of erroring. The
//! coordinator's draw/step bookkeeping advances uniformly either way, so a
//! recovered shard replays the identical RNG stream (discarded-round
//! estimates burn the same draws) and later rounds pick it back up with no
//! special-casing.

use crate::config::EngineConfig;
use crate::engine::{AqpEngine, ComponentValidator, QueryPlan};
use crate::remote::fleet::ShardFleet;
use crate::remote::protocol::{ShardRequest, ShardResponse};
use crate::result::{QueryAnswer, RoundTrace, StepTimings};
use crate::session::RoundOutcome;
use crate::sharded::{open_sharded_inner, ShardedSession, EXPLORATION_FLOOR, MIN_STRATUM_DRAWS};
use kg_core::{EntityId, KgResult, ShardedGraph};
use kg_embed::PredicateSimilarity;
use kg_estimate::{
    additional_sample_size, allocate_proportional, combine_point_terms, merge_strata,
    neutral_point_terms, satisfies_error_bound, StratumEstimate,
};
use kg_query::AggregateQuery;
use kg_sampling::{BucketTerm, SamplerCache, ShardSampler, ShardSamplerCache, StratumTask};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One stratum's coordinator-side bookkeeping. The coordinator never draws
/// — the sampler exists for its weight and emptiness (identical to the
/// server's, both built deterministically from the same plan).
struct RemoteStratum {
    shard: usize,
    sampler: Arc<ShardSampler>,
    /// Per-round draw counts pushed so far (the replay history every
    /// request carries).
    draws: Vec<u64>,
    /// Rounds completed (advanced uniformly, reachable or not, so the
    /// replay trajectory stays identical for every replica).
    steps: usize,
}

impl RemoteStratum {
    fn total_draws(&self) -> usize {
        self.draws.iter().sum::<u64>() as usize
    }

    fn task(&self, resamples: usize) -> StratumTask {
        StratumTask {
            shard: self.shard,
            draws: self.draws.clone(),
            steps: self.steps,
            resamples,
        }
    }
}

/// A stratified session executing its per-shard steps on remote shard
/// servers; see the [module docs](self).
pub struct RemoteSession {
    config: EngineConfig,
    plan: QueryPlan,
    /// Canonical query JSON, shipped verbatim with every request (shard
    /// servers key their plan and session caches by this text).
    query_text: Arc<String>,
    fleet: Arc<ShardFleet>,
    strata: Vec<RemoteStratum>,
    timings: StepTimings,
    rounds: Vec<RoundTrace>,
    merge_ms: f64,
    last_variances: Vec<f64>,
    guarantee_met: bool,
    /// Shards unreachable in the most recent round (empty on the fault-free
    /// path).
    last_round_missing: Vec<usize>,
}

/// The canonical wire text of a query: compact JSON with sorted keys (the
/// shim's `Map` is a `BTreeMap`), so equal queries always hash to the same
/// server-side plan cache entry.
pub(crate) fn canonical_query_text(query: &AggregateQuery) -> String {
    serde_json::to_string(&query.to_json()).expect("query JSON serialises")
}

/// Opens a remote session: plan locally (the coordinator loads the same
/// graph), build the identical per-shard samplers for weights, and route
/// all sampling work through `fleet`.
pub(crate) fn open_remote<S: PredicateSimilarity + ?Sized>(
    engine: &AqpEngine,
    sharded: &ShardedGraph,
    query: &AggregateQuery,
    similarity: &S,
    fleet: Arc<ShardFleet>,
    cache: Option<&SamplerCache>,
    shard_cache: Option<&ShardSamplerCache>,
) -> KgResult<RemoteSession> {
    assert_eq!(
        fleet.shard_count(),
        sharded.shard_count(),
        "fleet endpoints must cover every shard"
    );
    let config = engine.config().clone();
    let plan = engine.plan_with_cache(sharded.global(), query, similarity, cache)?;
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
            RemoteStratum {
                shard,
                sampler,
                draws: Vec::new(),
                steps: 0,
            }
        })
        .collect();
    let mut timings = StepTimings::default();
    timings.sampling_ms += plan.plan_ms;
    let query_text = Arc::new(canonical_query_text(query));
    Ok(RemoteSession {
        config,
        plan,
        query_text,
        fleet,
        strata,
        timings,
        rounds: Vec::new(),
        merge_ms: 0.0,
        last_variances: Vec::new(),
        guarantee_met: false,
        last_round_missing: Vec::new(),
    })
}

/// The outcome of one stratum's scattered step.
enum StratumRound {
    /// The shard answered (or the stratum is empty and was synthesised
    /// locally): its estimate plus server-reported timing.
    Report(StratumEstimate, f64, f64),
    /// The shard stayed unreachable (or answered nonsense) past the retry
    /// budget.
    Missing(String),
}

impl RemoteSession {
    pub(crate) fn candidate_count(&self) -> usize {
        self.plan.candidate_count
    }

    pub(crate) fn total_draws(&self) -> usize {
        self.strata.iter().map(RemoteStratum::total_draws).sum()
    }

    pub(crate) fn per_shard_samples(&self) -> Vec<usize> {
        self.strata.iter().map(RemoteStratum::total_draws).collect()
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.strata.len()
    }

    pub(crate) fn merge_ms(&self) -> f64 {
        self.merge_ms
    }

    pub(crate) fn rounds_completed(&self) -> usize {
        self.rounds.len()
    }

    pub(crate) fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub(crate) fn refine_with(&mut self, error_bound: f64, confidence: f64) -> QueryAnswer {
        let wall = Instant::now();
        for _round in 0..self.config.max_rounds.max(1) {
            if self.step_with(error_bound, confidence) != RoundOutcome::Continue {
                break;
            }
        }
        let mut answer = self.snapshot_answer();
        answer.elapsed_ms = wall.elapsed().as_secs_f64() * 1e3 + self.plan.plan_ms;
        answer
    }

    /// Pushes this round's draw counts to every stratum's history (the
    /// remote analogue of [`StratifiedSession::draw`] — the actual drawing
    /// happens server-side during the scattered step).
    fn push_allocation(&mut self, allocation: &[usize]) {
        for (stratum, &count) in self.strata.iter_mut().zip(allocation) {
            stratum.draws.push(count as u64);
        }
    }

    /// One scattered refinement round, operation-for-operation the
    /// stratified `step_with`: allocate + push draws, scatter Step RPCs,
    /// merge the surviving strata, trace, then allocate the next round.
    pub(crate) fn step_with(&mut self, error_bound: f64, confidence: f64) -> RoundOutcome {
        self.config.confidence = confidence;
        // Scatter requires a pending allocation (`draws.len() == steps + 1`
        // on every stratum). Two cases have none: a fresh session (first
        // round draws the initial proportional allocation) and a session
        // resumed after a round that terminated without pushing — there the
        // in-process analogue re-estimates the existing sample, whose
        // remote counterpart is a zero-draw round.
        if self.strata.iter().all(|s| s.draws.len() == s.steps) {
            if self.strata.iter().all(|s| s.draws.is_empty()) {
                let initial = self.config.initial_sample_size(self.plan.candidate_count);
                let weights: Vec<f64> = self.strata.iter().map(|s| s.sampler.weight()).collect();
                let mut allocation = allocate_proportional(initial, &weights);
                for (alloc, stratum) in allocation.iter_mut().zip(&self.strata) {
                    if !stratum.sampler.is_empty() {
                        *alloc = (*alloc).max(MIN_STRATUM_DRAWS);
                    }
                }
                self.push_allocation(&allocation);
            } else {
                self.push_allocation(&vec![0; self.strata.len()]);
            }
        }
        let resamples = self.config.bootstrap.resamples.max(2);

        // Scatter: one OS thread per non-empty stratum (the work is
        // network-bound; a thread pool would serialise the round under
        // RAYON_NUM_THREADS=1). Empty strata are synthesised locally —
        // their estimate consumes no RNG, so skipping the RPC is exact.
        let fleet = &self.fleet;
        let query_text = &self.query_text;
        let aggregate = &self.plan.aggregate;
        let outcomes: Vec<StratumRound> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .strata
                .iter()
                .map(|stratum| {
                    if stratum.sampler.is_empty() {
                        return None;
                    }
                    let request = ShardRequest::Step {
                        query: (**query_text).clone(),
                        task: stratum.task(resamples),
                    };
                    let shard = stratum.shard;
                    Some(scope.spawn(move || fleet.call(shard, &request)))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle {
                    None => {
                        let mut unused = SmallRng::seed_from_u64(0);
                        let summary =
                            StratumEstimate::compute(aggregate, &[], resamples, &mut unused);
                        StratumRound::Report(summary, 0.0, 0.0)
                    }
                    Some(handle) => match handle.join().expect("scatter thread panicked") {
                        Ok(ShardResponse::Estimate(report)) => StratumRound::Report(
                            StratumEstimate {
                                primary: report.primary,
                                secondary: report.secondary,
                                replicates: report.replicates,
                                sample_size: report.sample_size,
                                correct: report.correct,
                            },
                            report.validate_ms,
                            report.bootstrap_ms,
                        ),
                        Ok(other) => {
                            StratumRound::Missing(format!("unexpected response: {other:?}"))
                        }
                        Err(error) => StratumRound::Missing(error.to_string()),
                    },
                })
                .collect()
        });

        // The round is over: advance every stratum's step counter whether
        // its report arrived or not — the *server-side* round either
        // happened identically or will be replayed identically (discarded
        // estimates burn the same RNG), so the trajectory stays uniform.
        for stratum in &mut self.strata {
            stratum.steps += 1;
        }

        let mut missing: Vec<usize> = Vec::new();
        let mut summaries: Vec<StratumEstimate> = Vec::new();
        let mut surviving: Vec<usize> = Vec::new();
        for (idx, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                StratumRound::Report(summary, validate_ms, bootstrap_ms) => {
                    self.timings.estimation_ms += validate_ms;
                    self.timings.guarantee_ms += bootstrap_ms;
                    summaries.push(summary);
                    surviving.push(idx);
                }
                StratumRound::Missing(reason) => {
                    kg_telemetry::point(
                        "aqp.remote.missing",
                        &[
                            ("round", (self.rounds.len() + 1).into()),
                            ("shard", idx.into()),
                            ("reason", reason.into()),
                        ],
                    );
                    missing.push(idx);
                }
            }
        }
        if !missing.is_empty() {
            self.fleet
                .metrics()
                .degraded_rounds
                .fetch_add(1, Ordering::Relaxed);
        }
        self.last_round_missing = missing;

        if summaries.is_empty() {
            // Total outage: no stratum reported, so this round produces no
            // estimate at all. Terminate refinement; the snapshot flags
            // every shard missing.
            self.guarantee_met = false;
            return RoundOutcome::Exhausted;
        }

        let merge_start = Instant::now();
        let merged = merge_strata(&self.plan.aggregate, &summaries, self.config.confidence);
        let estimate_value = merged.estimate;
        let moe = merged.moe;
        self.last_variances = vec![0.0; self.strata.len()];
        for (position, &idx) in surviving.iter().enumerate() {
            self.last_variances[idx] = merged.variances[position];
        }
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
        let total = self.total_draws();
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
        self.push_allocation(&allocation);
        self.guarantee_met = false;
        RoundOutcome::Continue
    }

    /// Assembles the best-so-far answer. GROUP-BY buckets fan out one
    /// `Snapshot` RPC per reachable non-empty stratum and merge per-key
    /// terms in stratum order, substituting the neutral term for strata
    /// with no contribution — bitwise-identical to the in-process bucket
    /// merge (pinned by the neutral-term identity test in `kg-estimate`).
    pub(crate) fn snapshot_answer(&self) -> QueryAnswer {
        let (estimate_value, moe) = self
            .rounds
            .last()
            .map(|r| (r.estimate, r.moe))
            .unwrap_or((0.0, 0.0));
        let resamples = self.config.bootstrap.resamples.max(2);

        let mut missing: BTreeSet<usize> = self.last_round_missing.iter().copied().collect();
        let groups = match self.plan.group_by {
            None => BTreeMap::new(),
            Some(_) if self.rounds.is_empty() => BTreeMap::new(),
            Some(_) => {
                // Scatter snapshot requests. Strata already missing from the
                // last merged round are skipped outright: their draws did
                // not contribute to the top-level estimate, so their bucket
                // terms must not contribute either.
                let fleet = &self.fleet;
                let query_text = &self.query_text;
                let per_stratum: Vec<Option<Result<Vec<BucketTerm>, String>>> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = self
                            .strata
                            .iter()
                            .map(|stratum| {
                                if stratum.sampler.is_empty() || missing.contains(&stratum.shard) {
                                    return None;
                                }
                                let request = ShardRequest::Snapshot {
                                    query: (**query_text).clone(),
                                    task: stratum.task(resamples),
                                };
                                let shard = stratum.shard;
                                Some(scope.spawn(move || fleet.call(shard, &request)))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|handle| {
                                handle.map(|h| match h.join().expect("snapshot thread panicked") {
                                    Ok(ShardResponse::Buckets(terms)) => Ok(terms),
                                    Ok(other) => Err(format!("unexpected response: {other:?}")),
                                    Err(error) => Err(error.to_string()),
                                })
                            })
                            .collect()
                    });
                let mut per_shard_terms: Vec<BTreeMap<i64, (f64, f64)>> =
                    vec![BTreeMap::new(); self.strata.len()];
                for (idx, outcome) in per_stratum.into_iter().enumerate() {
                    match outcome {
                        None => {}
                        Some(Ok(terms)) => {
                            per_shard_terms[idx] = terms
                                .into_iter()
                                .map(|t| (t.key, (t.primary, t.secondary)))
                                .collect();
                        }
                        Some(Err(reason)) => {
                            kg_telemetry::point(
                                "aqp.remote.missing",
                                &[
                                    ("round", self.rounds.len().into()),
                                    ("shard", idx.into()),
                                    ("reason", reason.into()),
                                ],
                            );
                            missing.insert(idx);
                        }
                    }
                }
                let keys: BTreeSet<i64> = per_shard_terms
                    .iter()
                    .flat_map(|terms| terms.keys().copied())
                    .collect();
                let neutral = neutral_point_terms(&self.plan.aggregate);
                keys.into_iter()
                    .map(|key| {
                        // Stratum order matters: float addition is not
                        // associative, and the in-process merge folds the
                        // strata in index order.
                        let value = combine_point_terms(
                            &self.plan.aggregate,
                            per_shard_terms
                                .iter()
                                .map(|terms| terms.get(&key).copied().unwrap_or(neutral)),
                        );
                        (key, value)
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
            sample_size: self.total_draws(),
            candidate_count: self.plan.candidate_count,
            elapsed_ms: self.timings.total_ms(),
            missing_shards: missing.into_iter().collect(),
        }
    }
}

impl AqpEngine {
    /// Opens a [`ShardedSession`] whose per-shard work executes on the
    /// remote shard fleet: the distributed counterpart of
    /// [`AqpEngine::open_sharded_session`]. The coordinator plans against
    /// its own (identical) copy of the graph; `fleet` must route to servers
    /// whose fingerprints match (checked via [`ShardFleet::ping_all`] at
    /// topology setup, not per session).
    pub fn open_remote_session<S: PredicateSimilarity + ?Sized>(
        &self,
        sharded: &ShardedGraph,
        query: &AggregateQuery,
        similarity: &S,
        fleet: Arc<ShardFleet>,
    ) -> KgResult<ShardedSession> {
        self.open_remote_session_cached(sharded, query, similarity, fleet, None, None)
    }

    /// [`Self::open_remote_session`] with planner and shard-sampler caches
    /// (the batch/service entry point).
    pub fn open_remote_session_cached<S: PredicateSimilarity + ?Sized>(
        &self,
        sharded: &ShardedGraph,
        query: &AggregateQuery,
        similarity: &S,
        fleet: Arc<ShardFleet>,
        cache: Option<&SamplerCache>,
        shard_cache: Option<&ShardSamplerCache>,
    ) -> KgResult<ShardedSession> {
        let session = open_remote(self, sharded, query, similarity, fleet, cache, shard_cache)?;
        Ok(open_sharded_inner(session))
    }
}
