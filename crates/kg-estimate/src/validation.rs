//! Correctness validation of sampled answers (§IV-B2).
//!
//! A sampled answer may still have a low semantic similarity; estimating over
//! it unvalidated would bias the result (Fig. 5(b)). Exhaustively enumerating
//! all subgraph matches is expensive, so validation uses a greedy search
//! guided by the stationary visiting probabilities π: starting from the
//! mapping node, it repeatedly expands the candidate node with the highest π
//! and records paths to the answer; after `repeat_factor` paths (or a step
//! budget) it keeps the best similarity found. False positives are impossible
//! (an incorrect answer has *no* match with similarity ≥ τ); false negatives
//! shrink as `repeat_factor` grows (Fig. 6(c)).
//!
//! The walk itself does not depend on the answer being validated, so a
//! [`ValidationTable`] runs it once per prepared component and answers every
//! candidate from that one run; [`validate_answer`] remains the per-answer
//! form and the reference the table is tested against.

use kg_core::{EntityId, KnowledgeGraph, PredicateId};
use kg_embed::PredicateSimilarity;
use kg_query::{admissible_intermediate, PathAggregation, ResolvedSimpleQuery};
use kg_sampling::PreparedSampler;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Parameters of the greedy correctness validation.
#[derive(Clone, Copy, Debug)]
pub struct ValidationConfig {
    /// Semantic-similarity threshold τ.
    pub tau: f64,
    /// Number of distinct paths to the answer to examine (paper: r = 3).
    pub repeat_factor: usize,
    /// Maximum path length considered (the hop bound n).
    pub max_path_len: usize,
    /// Budget on expanded search states (guards dense neighbourhoods).
    pub max_expansions: usize,
    /// Path-similarity aggregation (geometric mean by default).
    pub aggregation: PathAggregation,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            tau: 0.85,
            repeat_factor: 3,
            max_path_len: 3,
            max_expansions: 5_000,
            aggregation: PathAggregation::GeometricMean,
        }
    }
}

/// Outcome of validating one sampled answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidationOutcome {
    /// Whether the answer is accepted into S⁺_A.
    pub correct: bool,
    /// The best semantic similarity found by the greedy search.
    pub best_similarity: f64,
    /// How many paths to the answer were examined.
    pub paths_examined: usize,
}

/// One frontier state: `node` reached over `predicate` from the state at
/// `parent`. States live in an arena and link backwards, so extending a path
/// allocates nothing and a path is only walked when something asks about it.
#[derive(Clone, Copy)]
struct Step {
    node: EntityId,
    /// The edge that reached `node` (unused at depth 0).
    predicate: PredicateId,
    depth: u32,
    parent: usize,
}

/// Heap entry ordered by priority alone, so ties break by push order.
struct Frontier {
    priority: f64,
    step: usize,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority.total_cmp(&other.priority)
    }
}

/// True when the path ending at `steps[step]` already visits `node`.
fn visits(steps: &[Step], mut step: usize, node: EntityId) -> bool {
    loop {
        let s = &steps[step];
        if s.node == node {
            return true;
        }
        if s.depth == 0 {
            return false;
        }
        step = s.parent;
    }
}

/// What the search does with the answers it reaches.
trait HitSink {
    /// True once nothing further can change the sink's result.
    fn satisfied(&self) -> bool;
    /// Offers a node the search reached over a new simple path. Returns
    /// false when the sink does not track `node`; the search may then extend
    /// the path through it. `similarity` computes the path's similarity.
    fn offer(&mut self, node: EntityId, similarity: impl FnOnce() -> f64) -> bool;
}

/// The greedy π-guided search of §IV-B2: expand the frontier state with the
/// highest stationary probability, offer every neighbour to `sink`, and
/// extend the path through admissible intermediates.
///
/// Nothing here depends on which answer is being validated except through
/// `sink`: a sink only ever consumes nodes that are not admissible
/// intermediates, so it can cut the walk short but never reorder it.
fn search<S: PredicateSimilarity + ?Sized>(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    sampler: &PreparedSampler,
    similarity: &S,
    config: &ValidationConfig,
    sink: &mut impl HitSink,
) {
    let mut steps = vec![Step {
        node: query.specific,
        predicate: query.predicate,
        depth: 0,
        parent: 0,
    }];
    let mut heap = BinaryHeap::new();
    heap.push(Frontier {
        priority: 1.0,
        step: 0,
    });
    let mut sims: Vec<f64> = Vec::with_capacity(config.max_path_len);
    let mut expansions = 0usize;
    let edge_similarity =
        |p: PredicateId| similarity.similarity(p, query.predicate).clamp(0.0, 1.0);

    while let Some(entry) = heap.pop() {
        if sink.satisfied() || expansions >= config.max_expansions {
            break;
        }
        expansions += 1;
        let tail = steps[entry.step];
        for edge in graph.neighbors(tail.node) {
            if visits(&steps, entry.step, edge.neighbor) {
                continue;
            }
            // Same per-edge terms in the same order as `path_similarity`
            // over the materialised path.
            let hit = sink.offer(edge.neighbor, || {
                sims.clear();
                sims.push(edge_similarity(edge.predicate));
                let mut step = entry.step;
                while steps[step].depth > 0 {
                    sims.push(edge_similarity(steps[step].predicate));
                    step = steps[step].parent;
                }
                sims.reverse();
                config.aggregation.aggregate(&sims)
            });
            if hit {
                if sink.satisfied() {
                    break;
                }
                continue;
            }
            // Only admissible intermediates may extend the search: paths
            // through another hub- or answer-typed entity are not subgraph
            // matches of the query edge (same rule as exhaustive matching).
            if (tail.depth as usize) + 1 < config.max_path_len
                && admissible_intermediate(graph, query, edge.neighbor)
            {
                steps.push(Step {
                    node: edge.neighbor,
                    predicate: edge.predicate,
                    depth: tail.depth + 1,
                    parent: entry.step,
                });
                heap.push(Frontier {
                    priority: sampler.stationary_probability(edge.neighbor),
                    step: steps.len() - 1,
                });
            }
        }
    }
}

/// Sink of [`validate_answer`]: the first `repeat_factor` paths to one answer.
struct SingleAnswer {
    answer: EntityId,
    repeat_factor: usize,
    best: f64,
    paths: usize,
}

impl HitSink for SingleAnswer {
    fn satisfied(&self) -> bool {
        self.paths >= self.repeat_factor
    }

    fn offer(&mut self, node: EntityId, similarity: impl FnOnce() -> f64) -> bool {
        if node != self.answer {
            return false;
        }
        self.best = self.best.max(similarity());
        self.paths += 1;
        true
    }
}

/// Validates one sampled answer with the greedy π-guided search.
pub fn validate_answer<S: PredicateSimilarity + ?Sized>(
    graph: &KnowledgeGraph,
    query: &ResolvedSimpleQuery,
    answer: EntityId,
    sampler: &PreparedSampler,
    similarity: &S,
    config: &ValidationConfig,
) -> ValidationOutcome {
    let mut sink = SingleAnswer {
        answer,
        repeat_factor: config.repeat_factor,
        best: 0.0,
        paths: 0,
    };
    search(graph, query, sampler, similarity, config, &mut sink);
    ValidationOutcome {
        correct: sink.best >= config.tau,
        best_similarity: sink.best,
        paths_examined: sink.paths,
    }
}

/// One candidate's row of a [`ValidationTable`].
#[derive(Debug)]
struct TableEntry {
    entity: EntityId,
    paths: u32,
    best: f64,
}

/// The outcome of [`validate_answer`] for every candidate answer of one
/// prepared component, from a single run of the search.
///
/// A candidate is never an admissible intermediate, so the search for one
/// candidate walks exactly the frontier the search for any other does, and
/// stops early only by truncating that walk. One run to the expansion budget
/// that keeps, per candidate, the first `repeat_factor` paths it meets
/// therefore reproduces every per-answer outcome bit for bit.
#[derive(Debug)]
pub struct ValidationTable {
    config: ValidationConfig,
    /// Sorted by entity.
    entries: Vec<TableEntry>,
}

impl HitSink for ValidationTable {
    fn satisfied(&self) -> bool {
        false
    }

    fn offer(&mut self, node: EntityId, similarity: impl FnOnce() -> f64) -> bool {
        let Ok(index) = self.entries.binary_search_by_key(&node, |e| e.entity) else {
            return false;
        };
        let entry = &mut self.entries[index];
        if (entry.paths as usize) < self.config.repeat_factor {
            entry.best = entry.best.max(similarity());
            entry.paths += 1;
        }
        true
    }
}

impl ValidationTable {
    /// Runs the search once for all candidate answers of `sampler`.
    pub fn build<S: PredicateSimilarity + ?Sized>(
        graph: &KnowledgeGraph,
        query: &ResolvedSimpleQuery,
        sampler: &PreparedSampler,
        similarity: &S,
        config: &ValidationConfig,
    ) -> Self {
        // An entity the search could extend a path through would change the
        // walk when it is the answer; it stays out and `lookup` declines it.
        let mut entries: Vec<TableEntry> = sampler
            .answer_distribution()
            .iter()
            .filter(|a| !admissible_intermediate(graph, query, a.entity))
            .map(|a| TableEntry {
                entity: a.entity,
                paths: 0,
                best: 0.0,
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.entity);
        let mut table = Self {
            config: *config,
            entries,
        };
        search(graph, query, sampler, similarity, config, &mut table);
        table
    }

    /// The outcome [`validate_answer`] would return for `answer`, or `None`
    /// when `answer` is not a candidate the table covers (the caller falls
    /// back to [`validate_answer`]). `config` must be the configuration the
    /// table was built under, up to τ, which is applied here.
    pub fn lookup(&self, answer: EntityId, config: &ValidationConfig) -> Option<ValidationOutcome> {
        assert!(
            config.repeat_factor == self.config.repeat_factor
                && config.max_path_len == self.config.max_path_len
                && config.max_expansions == self.config.max_expansions
                && config.aggregation == self.config.aggregation,
            "validation table built under {:?}, looked up under {config:?}",
            self.config
        );
        let index = self
            .entries
            .binary_search_by_key(&answer, |e| e.entity)
            .ok()?;
        let entry = &self.entries[index];
        Some(ValidationOutcome {
            correct: entry.best >= config.tau,
            best_similarity: entry.best,
            paths_examined: entry.paths as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;
    use kg_query::SimpleQuery;
    use kg_sampling::{prepare, SamplerConfig, SamplingStrategy};

    fn setup() -> (
        KnowledgeGraph,
        ResolvedSimpleQuery,
        kg_embed::PredicateVectorStore,
    ) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let vw = b.add_entity("vw", &["Company"]);
        b.add_edge(vw, "country", de);
        let direct = b.add_entity("direct", &["Automobile"]);
        b.add_edge(de, "product", direct);
        let via = b.add_entity("via", &["Automobile"]);
        b.add_edge(via, "assembly", vw);
        let weak = b.add_entity("weak", &["Automobile"]);
        b.add_edge(weak, "exhibitedAt", de);
        let g = b.build();
        let q = SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"])
            .resolve(&g)
            .unwrap();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("assembly").unwrap(), 0, 0.97),
            (g.predicate_id("country").unwrap(), 0, 0.92),
            (g.predicate_id("exhibitedAt").unwrap(), 0, 0.3),
        ]);
        (g, q, store)
    }

    #[test]
    fn accepts_correct_answers_and_rejects_incorrect_ones() {
        let (g, q, store) = setup();
        let sampler = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        let cfg = ValidationConfig::default();
        let direct = validate_answer(
            &g,
            &q,
            g.entity_by_name("direct").unwrap(),
            &sampler,
            &store,
            &cfg,
        );
        assert!(direct.correct);
        assert!((direct.best_similarity - 1.0).abs() < 1e-9);
        let via = validate_answer(
            &g,
            &q,
            g.entity_by_name("via").unwrap(),
            &sampler,
            &store,
            &cfg,
        );
        assert!(via.correct, "similarity {}", via.best_similarity);
        let weak = validate_answer(
            &g,
            &q,
            g.entity_by_name("weak").unwrap(),
            &sampler,
            &store,
            &cfg,
        );
        assert!(
            !weak.correct,
            "no false positives: {}",
            weak.best_similarity
        );
        assert!(weak.best_similarity < cfg.tau);
        assert!(direct.paths_examined >= 1);
    }

    #[test]
    fn unreachable_answer_is_rejected() {
        let (g, q, store) = setup();
        let sampler = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        // An entity id outside the graph scope of the walk: use the weak one
        // but with a tiny expansion budget so nothing is found.
        let cfg = ValidationConfig {
            max_expansions: 0,
            ..ValidationConfig::default()
        };
        let out = validate_answer(
            &g,
            &q,
            g.entity_by_name("via").unwrap(),
            &sampler,
            &store,
            &cfg,
        );
        assert!(!out.correct);
        assert_eq!(out.paths_examined, 0);
    }

    #[test]
    fn higher_repeat_factor_never_reduces_similarity() {
        let (g, q, store) = setup();
        let sampler = prepare(
            &g,
            &q,
            &store,
            SamplingStrategy::SemanticAware,
            &SamplerConfig::default(),
        )
        .unwrap();
        let via = g.entity_by_name("via").unwrap();
        let low = validate_answer(
            &g,
            &q,
            via,
            &sampler,
            &store,
            &ValidationConfig {
                repeat_factor: 1,
                ..ValidationConfig::default()
            },
        );
        let high = validate_answer(
            &g,
            &q,
            via,
            &sampler,
            &store,
            &ValidationConfig {
                repeat_factor: 5,
                ..ValidationConfig::default()
            },
        );
        assert!(high.best_similarity >= low.best_similarity);
    }
}
