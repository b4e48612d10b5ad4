//! The per-stratum half of a refinement round: draw, validate, build the
//! validated sample, bootstrap, key GROUP-BY buckets.
//!
//! A [`Stratum`] is one independently sampled slice of a plan's answer
//! distribution with its **own RNG stream** — either the whole distribution
//! (the unsharded engine: draws come from the plan's own alias table) or the
//! candidates one shard owns (a [`ShardSampler`] restriction). Every
//! execution path runs this type and nothing else for per-stratum work: the
//! session loop in [`crate::session`] for the whole-graph and in-process
//! sharded executors, and [`crate::remote::ShardServerCore`] on a shard
//! server — which is what keeps a remote round bitwise-identical to the
//! in-process one.

use crate::config::EngineConfig;
use crate::engine::{ComponentValidator, QueryPlan};
use kg_core::{EntityId, KnowledgeGraph, ShardedGraph};
use kg_embed::PredicateSimilarity;
use kg_estimate::{stratum_point_terms, StratumEstimate, ValidatedAnswer, ValidationConfig};
use kg_query::matches_all;
use kg_sampling::{BucketTerm, ShardSampler, StratumReport};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The [`ValidationConfig`] implied by an engine configuration.
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
/// component answers from its validation tables (one greedy π-guided search
/// per component or anchored hop, see [`crate::engine::ComponentSearch`]), with outcomes
/// AND-ed and the weakest similarity kept. `validate: false` is the
/// Fig. 5(b) ablation (trust every sampled answer).
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
            // Correct if any last hop proposing it says so, with the highest
            // similarity among them, rejected or not.
            ComponentValidator::Chain { final_hops, hops } => final_hops
                .get(&entity)
                .into_iter()
                .flatten()
                .map(|&hop| hops[hop].validate(graph, similarity, entity, validation))
                .fold((false, 0.0_f64), |(c, s), (hc, hs)| (c || hc, s.max(hs))),
        };
        correct &= c;
        sim = sim.min(s);
        if !correct {
            break;
        }
    }
    (correct, sim)
}

pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Derives shard `k`'s RNG seed from the engine seed: distinct per shard,
/// deterministic run-to-run (shard membership itself is deterministic — the
/// partitioners tie-break by entity id), and equal to the engine seed for
/// shard 0 so the whole-graph stream is the unsharded engine's.
pub(crate) fn shard_seed(seed: u64, shard: usize) -> u64 {
    seed.wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The restriction of `plan`'s answer distribution to the candidates
/// `shard` owns — built identically by a coordinator and a shard server.
pub(crate) fn shard_sampler(
    plan: &QueryPlan,
    sharded: &ShardedGraph,
    shard: usize,
) -> Arc<ShardSampler> {
    let owned = |e| sharded.shard_of(e) == shard;
    Arc::new(ShardSampler::from_distribution(
        shard,
        &plan.distribution,
        owned,
    ))
}

/// The graph a session runs on; a sharded one lets a session split its
/// strata by owning shard.
#[derive(Copy, Clone)]
pub enum GraphView<'a> {
    /// The whole graph and nothing else.
    Whole(&'a KnowledgeGraph),
    /// The graph with its entity→shard assignment.
    Sharded(&'a ShardedGraph),
}

impl<'a> GraphView<'a> {
    /// The full graph, which every stratum reads paths, attributes and
    /// filters from: a matching path may cross shards.
    pub(crate) fn global(self) -> &'a KnowledgeGraph {
        match self {
            GraphView::Whole(graph) => graph,
            GraphView::Sharded(sharded) => sharded.global(),
        }
    }
}

/// A graph handle a [`crate::session::Session`] can be driven with.
pub trait GraphHandle {
    /// The graph, whole or sharded.
    fn view(&self) -> GraphView<'_>;
}

impl GraphHandle for KnowledgeGraph {
    fn view(&self) -> GraphView<'_> {
        GraphView::Whole(self)
    }
}

impl GraphHandle for ShardedGraph {
    fn view(&self) -> GraphView<'_> {
        GraphView::Sharded(self)
    }
}

/// The weight a stratum carries into draw allocation.
#[derive(Copy, Clone, Debug)]
pub(crate) struct StratumMass {
    /// Share of the plan's answer distribution the stratum owns (W_k).
    pub(crate) mass: f64,
    /// Whether the stratum owns no candidate at all.
    pub(crate) empty: bool,
}

impl StratumMass {
    /// What a shard restriction weighs.
    pub(crate) fn of(sampler: &ShardSampler) -> Self {
        Self {
            mass: sampler.weight(),
            empty: sampler.is_empty(),
        }
    }
}

/// One stratum's sampling state; see the [module docs](self).
pub(crate) struct Stratum {
    /// The shard restriction draws come from; `None` for the whole-graph
    /// stratum, which draws from the plan's own alias table.
    sampler: Option<Arc<ShardSampler>>,
    pub(crate) rng: SmallRng,
    /// Draws so far: global entity id plus within-stratum probability π'_k.
    pub(crate) sample: Vec<(EntityId, f64)>,
    /// Validation outcomes per distinct entity (strata own disjoint
    /// candidates, so these caches never overlap across strata).
    validation: HashMap<EntityId, (bool, f64)>,
}

impl Stratum {
    /// A fresh stratum for `shard`, RNG-anchored at the engine seed.
    pub(crate) fn new(shard: usize, sampler: Option<Arc<ShardSampler>>, engine_seed: u64) -> Self {
        Self {
            sampler,
            rng: SmallRng::seed_from_u64(shard_seed(engine_seed, shard)),
            sample: Vec::new(),
            validation: HashMap::new(),
        }
    }

    pub(crate) fn mass(&self, plan: &QueryPlan) -> StratumMass {
        match &self.sampler {
            None => StratumMass {
                mass: if plan.table.is_some() { 1.0 } else { 0.0 },
                empty: plan.table.is_none(),
            },
            Some(sampler) => StratumMass::of(sampler),
        }
    }

    /// Draws `count` more answers with the stratum's RNG (expected O(1)
    /// each, through an alias table either way).
    pub(crate) fn draw(&mut self, plan: &QueryPlan, count: usize) {
        match &self.sampler {
            None => {
                let Some(table) = &plan.table else {
                    return;
                };
                for _ in 0..count {
                    let idx = table.sample(&mut self.rng);
                    self.sample.push(plan.distribution[idx]);
                }
            }
            Some(sampler) => self.sample.extend(
                sampler
                    .draw(&mut self.rng, count)
                    .iter()
                    .map(|a| (a.entity, a.probability)),
            ),
        }
    }

    /// Validates every not-yet-validated entity among the first `upto`
    /// draws, in draw order. Validation consumes no RNG, so a shard server
    /// replaying a history may do it lazily and still match the in-process
    /// schedule exactly.
    pub(crate) fn validate<S: PredicateSimilarity + ?Sized>(
        &mut self,
        plan: &QueryPlan,
        config: &EngineConfig,
        global: &KnowledgeGraph,
        similarity: &S,
        upto: usize,
    ) {
        let validation = validation_config(config);
        for (entity, _) in self.sample.iter().take(upto) {
            if !self.validation.contains_key(entity) {
                let outcome = validate_entity(
                    plan,
                    config.validate,
                    &validation,
                    global,
                    similarity,
                    *entity,
                );
                self.validation.insert(*entity, outcome);
            }
        }
    }

    /// The validated sample, one entry per draw. Entities not validated yet
    /// count as incorrect (the deadline-truncation contract: drawn but
    /// unvalidated answers never contribute).
    pub(crate) fn validated_sample(
        &self,
        plan: &QueryPlan,
        graph: &KnowledgeGraph,
    ) -> Vec<ValidatedAnswer> {
        self.sample
            .iter()
            .map(|(entity, probability)| {
                let (valid, similarity) =
                    self.validation.get(entity).copied().unwrap_or((false, 0.0));
                ValidatedAnswer {
                    probability: *probability,
                    value: plan.aggregate.value_of(graph, *entity),
                    correct: valid && matches_all(graph, *entity, &plan.filters),
                    similarity,
                }
            })
            .collect()
    }

    /// The stratum's share of one stratified round: validate every draw,
    /// then point terms and `resamples` bootstrap replicates on the
    /// stratum's own RNG. Stratified intervals use a plain per-stratum
    /// bootstrap (resample size n_k): replicates merge across strata
    /// replicate-wise, so the merged interval needs no subsample machinery.
    pub(crate) fn round<S: PredicateSimilarity + ?Sized>(
        &mut self,
        plan: &QueryPlan,
        config: &EngineConfig,
        graph: &KnowledgeGraph,
        similarity: &S,
        resamples: usize,
    ) -> StratumReport {
        let validate_start = Instant::now();
        self.validate(plan, config, graph, similarity, usize::MAX);
        let validated = self.validated_sample(plan, graph);
        let validate_ms = ms_since(validate_start);
        let bootstrap_start = Instant::now();
        let estimate =
            StratumEstimate::compute(&plan.aggregate, &validated, resamples, &mut self.rng);
        let bootstrap_ms = ms_since(bootstrap_start);
        stratum_report(estimate, validate_ms, bootstrap_ms)
    }

    /// GROUP-BY: one `reduce`d value per bucket that a correct answer of
    /// this stratum falls in (none without a GROUP-BY). Each bucket is the
    /// subpopulation "correct AND in bucket", so `reduce` sees the *full*
    /// draw list with out-of-bucket draws marked incorrect — keeping the
    /// |S| normaliser of Eq. 7–8 intact (per-bucket COUNT/SUM then sum to
    /// the top-level estimate, up to answers missing the grouping
    /// attribute).
    pub(crate) fn per_bucket<T>(
        &self,
        plan: &QueryPlan,
        graph: &KnowledgeGraph,
        reduce: impl Fn(&[ValidatedAnswer]) -> T,
    ) -> Vec<(i64, T)> {
        let Some((attr, width)) = plan.group_by else {
            return Vec::new();
        };
        let keyed: Vec<(Option<i64>, ValidatedAnswer)> = self
            .sample
            .iter()
            .zip(self.validated_sample(plan, graph))
            .map(|((entity, _), answer)| {
                let key = graph
                    .attribute_value(*entity, attr)
                    .map(|v| (v / width).floor() as i64);
                (key, answer)
            })
            .collect();
        let keys: BTreeSet<i64> = keyed
            .iter()
            .filter(|(_, a)| a.correct)
            .filter_map(|(k, _)| *k)
            .collect();
        keys.into_iter()
            .map(|key| {
                let bucket: Vec<ValidatedAnswer> = keyed
                    .iter()
                    .map(|(k, a)| ValidatedAnswer {
                        correct: a.correct && *k == Some(key),
                        ..*a
                    })
                    .collect();
                (key, reduce(&bucket))
            })
            .collect()
    }

    /// The stratum's point terms per bucket, for a stratified merge.
    pub(crate) fn bucket_terms(&self, plan: &QueryPlan, graph: &KnowledgeGraph) -> Vec<BucketTerm> {
        self.per_bucket(plan, graph, |b| stratum_point_terms(&plan.aggregate, b))
            .into_iter()
            .map(|(key, (primary, secondary))| BucketTerm {
                key,
                primary,
                secondary,
            })
            .collect()
    }
}

/// A stratum estimate in the form strata report it in, locally and on the
/// wire.
pub(crate) fn stratum_report(
    estimate: StratumEstimate,
    validate_ms: f64,
    bootstrap_ms: f64,
) -> StratumReport {
    StratumReport {
        primary: estimate.primary,
        secondary: estimate.secondary,
        replicates: estimate.replicates,
        sample_size: estimate.sample_size,
        correct: estimate.correct,
        validate_ms,
        bootstrap_ms,
    }
}
