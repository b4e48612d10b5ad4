//! The iterative sampling–estimation loop (Algorithm 2 lines 2–14) and the
//! interactive error-bound refinement of §IV-C.

use crate::config::EngineConfig;
use crate::engine::{ComponentValidator, QueryPlan};
use crate::result::{QueryAnswer, RoundTrace, StepTimings};
use kg_core::{EntityId, KnowledgeGraph};
use kg_embed::PredicateSimilarity;
use kg_estimate::{
    additional_sample_size, blb_moe, estimate, satisfies_error_bound, ValidatedAnswer,
    ValidationConfig,
};
use kg_query::matches_all;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The [`ValidationConfig`] implied by an engine configuration (one code
/// path for the serial, batched and sharded sessions).
pub(crate) fn validation_config(config: &EngineConfig) -> ValidationConfig {
    ValidationConfig {
        tau: config.tau,
        repeat_factor: config.repeat_factor,
        max_path_len: config.n_bound as usize,
        aggregation: config.aggregation,
        ..ValidationConfig::default()
    }
}

/// Validates one sampled entity against every component of a plan: each
/// component answers from its validation table (one greedy π-guided search
/// per component, see [`crate::engine::ComponentSearch`]), with outcomes
/// AND-ed and the weakest similarity kept. Shared by [`InteractiveSession`],
/// the sharded session and the remote shard server so the execution paths
/// cannot drift. `validate: false` is the Fig. 5(b) ablation (trust every
/// sampled answer).
pub(crate) fn validate_entity<S: PredicateSimilarity + ?Sized>(
    plan: &QueryPlan,
    validate: bool,
    validation: &ValidationConfig,
    graph: &KnowledgeGraph,
    similarity: &S,
    entity: EntityId,
) -> (bool, f64) {
    if !validate {
        return (true, 1.0);
    }
    let mut correct = true;
    let mut sim = 1.0_f64;
    for component in &plan.components {
        let (c, s) = match &component.validator {
            ComponentValidator::Simple(search) => {
                search.validate(graph, similarity, entity, validation)
            }
            ComponentValidator::Chain { final_hops, hops } => match final_hops.get(&entity) {
                None => (false, 0.0),
                Some(hop) => hops[*hop].validate(graph, similarity, entity, validation),
            },
        };
        correct &= c;
        sim = sim.min(s);
        if !correct {
            break;
        }
    }
    (correct, sim)
}

/// Outcome of one refinement round of the sampling–estimation loop: did the
/// round settle the query, exhaust its budget, or leave more work to do?
/// Returned by [`InteractiveSession::step_with`] and
/// [`crate::ShardedSession::step_with`] so a driver (the deadline-aware
/// service scheduler, or [`InteractiveSession::refine_with`] itself) can
/// decide round-by-round whether to keep going.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The Theorem-2 guarantee holds for the requested error bound (or no
    /// further draw can change the interval): refinement is complete and
    /// `guarantee_met` is true.
    Satisfied,
    /// A budget cap (max sample size, or an empty answer distribution with
    /// an unsatisfied bound) stops refinement short of the guarantee:
    /// further rounds cannot help and `guarantee_met` is false.
    Exhausted,
    /// The guarantee is not yet met and more sample has been drawn: another
    /// round would refine the interval further.
    Continue,
}

/// An interactive query session: keeps the plan, the drawn sample and the
/// validation cache so that the user can tighten the error bound at runtime
/// and pay only the incremental cost (Fig. 6(a)).
pub struct InteractiveSession {
    config: EngineConfig,
    plan: QueryPlan,
    rng: SmallRng,
    /// The drawn sample: entity plus its combined sampling probability.
    sample: Vec<(EntityId, f64)>,
    /// Validation cache: entity → (correct, similarity).
    validation_cache: HashMap<EntityId, (bool, f64)>,
    timings: StepTimings,
    rounds: Vec<RoundTrace>,
    /// Whether the most recent round met the requested bound (Theorem 2).
    guarantee_met: bool,
}

impl InteractiveSession {
    pub(crate) fn new(config: EngineConfig, plan: QueryPlan) -> Self {
        let seed = config.seed;
        let mut timings = StepTimings::default();
        timings.sampling_ms += plan.plan_ms;
        Self {
            config,
            plan,
            rng: SmallRng::seed_from_u64(seed),
            sample: Vec::new(),
            validation_cache: HashMap::new(),
            timings,
            rounds: Vec::new(),
            guarantee_met: false,
        }
    }

    /// Number of candidate answers the plan found.
    pub fn candidate_count(&self) -> usize {
        self.plan.candidate_count
    }

    /// The confidence level currently configured for this session (the
    /// engine default, or the last [`Self::refine_with`] override).
    pub fn confidence(&self) -> f64 {
        self.config.confidence
    }

    /// Current total sample size.
    pub fn sample_size(&self) -> usize {
        self.sample.len()
    }

    /// The session's engine configuration.
    pub(crate) fn engine_config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of refinement rounds completed so far (across all
    /// `refine_*`/`step_with` calls on this session).
    pub fn rounds_completed(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the most recently completed round met its requested error
    /// bound (false before any round has run).
    pub fn guarantee_met(&self) -> bool {
        self.guarantee_met
    }

    fn draw(&mut self, count: usize) {
        // The plan's alias table makes each draw expected O(1) and
        // bit-identical to the binary search it replaced.
        let Some(table) = &self.plan.table else {
            return;
        };
        let start = Instant::now();
        for _ in 0..count {
            let idx = table.sample(&mut self.rng);
            self.sample.push(self.plan.distribution[idx]);
        }
        self.timings.sampling_ms += start.elapsed().as_secs_f64() * 1e3;
    }

    fn validate(
        &mut self,
        graph: &KnowledgeGraph,
        similarity: &(impl PredicateSimilarity + ?Sized),
    ) {
        let start = Instant::now();
        let validation = validation_config(&self.config);
        for (entity, _) in &self.sample {
            if self.validation_cache.contains_key(entity) {
                continue;
            }
            let outcome = validate_entity(
                &self.plan,
                self.config.validate,
                &validation,
                graph,
                similarity,
                *entity,
            );
            self.validation_cache.insert(*entity, outcome);
        }
        self.timings.estimation_ms += start.elapsed().as_secs_f64() * 1e3;
    }

    fn validated_sample(&self, graph: &KnowledgeGraph) -> Vec<(EntityId, ValidatedAnswer)> {
        self.sample
            .iter()
            .map(|(entity, probability)| {
                let (valid, similarity) = self
                    .validation_cache
                    .get(entity)
                    .copied()
                    .unwrap_or((false, 0.0));
                let passes_filters = matches_all(graph, *entity, &self.plan.filters);
                (
                    *entity,
                    ValidatedAnswer {
                        probability: *probability,
                        value: self.plan.aggregate.value_of(graph, *entity),
                        correct: valid && passes_filters,
                        similarity,
                    },
                )
            })
            .collect()
    }

    /// Runs (or continues) the sampling–estimation loop until the guarantee
    /// of Theorem 2 holds for `error_bound` or the caps are reached, reusing
    /// any sample already drawn in this session.
    pub fn refine_to<S: PredicateSimilarity + ?Sized>(
        &mut self,
        graph: &KnowledgeGraph,
        similarity: &S,
        error_bound: f64,
    ) -> QueryAnswer {
        self.refine_with(graph, similarity, error_bound, self.config.confidence)
    }

    /// [`Self::refine_to`] with a per-call confidence level: the margin of
    /// error is recomputed at `confidence` from this call on, overriding the
    /// engine configuration. This is how the service layer honours
    /// per-request (error bound, confidence) targets while resuming a cached
    /// session that may have been opened under different targets.
    pub fn refine_with<S: PredicateSimilarity + ?Sized>(
        &mut self,
        graph: &KnowledgeGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
    ) -> QueryAnswer {
        let wall = Instant::now();
        for _round in 0..self.config.max_rounds.max(1) {
            if self.step_with(graph, similarity, error_bound, confidence) != RoundOutcome::Continue
            {
                break;
            }
        }
        let mut answer = self.snapshot_answer(graph);
        answer.elapsed_ms = wall.elapsed().as_secs_f64() * 1e3 + self.plan.plan_ms;
        answer
    }

    /// Runs exactly one round of the sampling–estimation loop: draw the
    /// initial sample if none exists yet, validate, estimate, compute the
    /// BLB interval, record a [`RoundTrace`], and (unless done) draw the
    /// Eq.-12 increment for the next round. This is [`Self::refine_with`]
    /// at round granularity: driving it in a loop performs the identical
    /// operation and RNG sequence, so a driver that stops early (a deadline
    /// scheduler) observes exactly the estimates a full refinement would
    /// have produced at the same round boundary.
    pub fn step_with<S: PredicateSimilarity + ?Sized>(
        &mut self,
        graph: &KnowledgeGraph,
        similarity: &S,
        error_bound: f64,
        confidence: f64,
    ) -> RoundOutcome {
        self.config.confidence = confidence;
        if self.sample.is_empty() {
            let initial = self.config.initial_sample_size(self.plan.candidate_count);
            self.draw(initial);
        }

        self.validate(graph, similarity);
        let validated: Vec<ValidatedAnswer> = self
            .validated_sample(graph)
            .into_iter()
            .map(|(_, v)| v)
            .collect();

        let est_start = Instant::now();
        let estimate_value = estimate(&self.plan.aggregate, &validated);
        self.timings.estimation_ms += est_start.elapsed().as_secs_f64() * 1e3;

        let guar_start = Instant::now();
        let moe = blb_moe(
            &self.plan.aggregate,
            &validated,
            self.config.confidence,
            &self.config.bootstrap,
            &mut self.rng,
        );
        let satisfied = satisfies_error_bound(estimate_value, moe, error_bound);
        self.timings.guarantee_ms += guar_start.elapsed().as_secs_f64() * 1e3;

        let correct_size = validated.iter().filter(|v| v.correct).count();
        self.rounds.push(RoundTrace {
            round: self.rounds.len() + 1,
            estimate: estimate_value,
            moe,
            sample_size: self.sample.len(),
            correct_size,
        });
        kg_telemetry::point(
            "aqp.round",
            &[
                ("round", self.rounds.len().into()),
                ("estimate", estimate_value.into()),
                ("moe", moe.into()),
                ("sample_size", self.sample.len().into()),
                ("validated", validated.len().into()),
                ("correct_size", correct_size.into()),
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
        if self.sample.len() >= self.config.max_sample_size {
            self.guarantee_met = false;
            return RoundOutcome::Exhausted;
        }
        let delta = match self.config.fixed_increment {
            Some(fixed) => fixed,
            None => additional_sample_size(
                self.sample.len(),
                moe,
                estimate_value,
                error_bound,
                self.config.bootstrap.blb_exponent,
                self.config.max_sample_size - self.sample.len(),
            ),
        };
        if delta == 0 {
            self.guarantee_met = true;
            return RoundOutcome::Satisfied;
        }
        self.draw(delta.min(self.config.max_sample_size - self.sample.len()));
        self.guarantee_met = false;
        RoundOutcome::Continue
    }

    /// Assembles a [`QueryAnswer`] from the session's current state — the
    /// last round's estimate and interval, the full round trace, and the
    /// GROUP-BY buckets over the validated sample. Used by step drivers to
    /// materialise the best-so-far answer at any round boundary (e.g. when
    /// a deadline fires); `elapsed_ms` is the accumulated step time, since
    /// the session does not know its driver's wall-clock window.
    pub fn snapshot_answer(&self, graph: &KnowledgeGraph) -> QueryAnswer {
        let (estimate_value, moe) = self
            .rounds
            .last()
            .map(|r| (r.estimate, r.moe))
            .unwrap_or((0.0, 0.0));

        // GROUP-BY: estimate per bucket over the validated sample. Each
        // bucket is the subpopulation "correct AND in bucket", so its HT
        // estimator runs over the *full* draw list with out-of-bucket draws
        // marked incorrect — keeping the |S_A| normaliser of Eq. 7–8 intact
        // (per-bucket COUNT/SUM then sum to the top-level estimate, up to
        // answers missing the grouping attribute).
        let groups = match self.plan.group_by {
            None => BTreeMap::new(),
            Some((attr, width)) => {
                let validated = self.validated_sample(graph);
                let keyed: Vec<(Option<i64>, ValidatedAnswer)> = validated
                    .into_iter()
                    .map(|(entity, answer)| {
                        let key = graph
                            .attribute_value(entity, attr)
                            .map(|v| (v / width).floor() as i64);
                        (key, answer)
                    })
                    .collect();
                let keys: std::collections::BTreeSet<i64> = keyed
                    .iter()
                    .filter(|(_, a)| a.correct)
                    .filter_map(|(k, _)| *k)
                    .collect();
                keys.into_iter()
                    .map(|key| {
                        let bucket_sample: Vec<ValidatedAnswer> = keyed
                            .iter()
                            .map(|(k, a)| ValidatedAnswer {
                                correct: a.correct && *k == Some(key),
                                ..*a
                            })
                            .collect();
                        (key, estimate(&self.plan.aggregate, &bucket_sample))
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
            sample_size: self.sample.len(),
            candidate_count: self.plan.candidate_count,
            elapsed_ms: self.timings.total_ms(),
            missing_shards: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AqpEngine;
    use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
    use kg_query::{AggregateFunction, AggregateQuery, Filter, GroupBy, SimpleQuery};

    fn dataset() -> kg_datagen::GeneratedDataset {
        generate(&GeneratorConfig::new(
            "session-test",
            DatasetScale::tiny(),
            vec![domains::automotive(&["Germany", "China"])],
            31,
        ))
    }

    #[test]
    fn interactive_refinement_reuses_the_sample() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig::default());
        let query = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let mut session = engine.open_session(&d.graph, &query, &d.oracle).unwrap();
        let coarse = session.refine_to(&d.graph, &d.oracle, 0.10);
        let coarse_sample = session.sample_size();
        let fine = session.refine_to(&d.graph, &d.oracle, 0.02);
        assert!(session.sample_size() >= coarse_sample);
        assert!(
            fine.moe <= coarse.moe * 1.5,
            "tightening should not blow up the MoE"
        );
        assert!(session.candidate_count() > 0);
        assert!(fine.rounds.len() >= coarse.rounds.len());
    }

    #[test]
    fn refine_with_overrides_the_confidence_level() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig::default());
        let query = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let mut session = engine.open_session(&d.graph, &query, &d.oracle).unwrap();
        let tight = session.refine_with(&d.graph, &d.oracle, 0.10, 0.99);
        assert_eq!(tight.confidence, 0.99);
        // Dropping the confidence over the (at least as large) sample cannot
        // widen the interval: the 80% bootstrap quantile sits inside the 99%
        // one (small tolerance for bootstrap resampling noise).
        let loose = session.refine_with(&d.graph, &d.oracle, 0.10, 0.80);
        assert_eq!(loose.confidence, 0.80);
        assert!(loose.sample_size >= tight.sample_size);
        assert!(
            loose.moe <= tight.moe * 1.05,
            "{} vs {}",
            loose.moe,
            tight.moe
        );
    }

    #[test]
    fn filters_and_group_by_are_applied() {
        let d = dataset();
        let engine = AqpEngine::new(EngineConfig {
            error_bound: 0.05,
            ..EngineConfig::default()
        });
        let plain = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let filtered = plain
            .clone()
            .with_filter(Filter::range("price", 15_000.0, 60_000.0));
        let grouped = plain.clone().with_group_by(GroupBy::new("price", 30_000.0));

        let all = engine.execute(&d.graph, &plain, &d.oracle).unwrap();
        let some = engine.execute(&d.graph, &filtered, &d.oracle).unwrap();
        assert!(some.estimate <= all.estimate * 1.1);
        let with_groups = engine.execute(&d.graph, &grouped, &d.oracle).unwrap();
        assert!(!with_groups.groups.is_empty());
        let group_total: f64 = with_groups.groups.values().sum();
        assert!(group_total > 0.0);
    }

    #[test]
    fn disabling_validation_inflates_the_estimate() {
        let d = dataset();
        let query = AggregateQuery::simple(
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            AggregateFunction::Count,
        );
        let with = AqpEngine::new(EngineConfig {
            error_bound: 0.05,
            ..EngineConfig::default()
        })
        .execute(&d.graph, &query, &d.oracle)
        .unwrap();
        let without = AqpEngine::new(EngineConfig {
            error_bound: 0.05,
            validate: false,
            ..EngineConfig::default()
        })
        .execute(&d.graph, &query, &d.oracle)
        .unwrap();
        // Without validation every sampled answer counts, so the COUNT
        // estimate moves towards |A| (all candidates) and above the τ-GT.
        assert!(without.estimate >= with.estimate);
    }
}
