//! The coordinator half of distributed execution: the session loop's
//! *remote* executor, whose per-stratum work is a remote procedure call.
//!
//! `RemoteStrata` holds, per shard, the weight and emptiness of the
//! identical [`kg_sampling::ShardSampler`] the in-process executor would
//! draw from (the coordinator never draws, so it keeps nothing else of it)
//! and the replay history of draw counts every request carries. The session loop in [`crate::session`] allocates,
//! merges and terminates exactly as it does in-process; each stratum's
//! draw/validate/estimate step runs the same `Stratum` code on a shard
//! server, reached through the [`ShardFleet`]. On the fault-free path the
//! scattered round is therefore bitwise-identical to the in-process one
//! over the same graph, config and seed — pinned by
//! `tests/remote_equivalence.rs`.
//!
//! **Degraded rounds.** When a shard stays unreachable past the fleet's
//! retry budget, the round merges the surviving strata only: the merged
//! estimate is still a valid stratified estimator of the reachable mass,
//! with a wider interval, and the answer is flagged with the missing shard
//! ids ([`crate::QueryAnswer::missing_shards`]) instead of erroring. The
//! draw/step bookkeeping advances uniformly either way, so a recovered
//! shard replays the identical RNG stream (discarded-round estimates burn
//! the same draws) and later rounds pick it back up with no special-casing.

use crate::engine::QueryPlan;
use crate::remote::fleet::ShardFleet;
use crate::remote::protocol::{ShardRequest, ShardResponse};
use crate::stratum::{shard_sampler, stratum_report, StratumMass};
use kg_core::ShardedGraph;
use kg_estimate::StratumEstimate;
use kg_query::{AggregateQuery, ResolvedAggregate};
use kg_sampling::{BucketTerm, StratumReport, StratumTask};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One stratum's coordinator-side bookkeeping.
struct RemoteStratum {
    shard: usize,
    mass: StratumMass,
    /// Per-round draw counts pushed so far (the replay history every
    /// request carries).
    draws: Vec<u64>,
    /// Rounds completed (advanced uniformly, reachable or not, so the
    /// replay trajectory stays identical for every replica).
    steps: usize,
}

/// The remote executor's state; see the [module docs](self).
pub(crate) struct RemoteStrata {
    fleet: Arc<ShardFleet>,
    /// Canonical query JSON, shipped verbatim with every request (shard
    /// servers key their plan and session caches by this text).
    query_text: String,
    strata: Vec<RemoteStratum>,
    /// Shards unreachable in the most recent round, ascending (empty on the
    /// fault-free path).
    missing: Vec<usize>,
}

/// The canonical wire text of a query: compact JSON with sorted keys (the
/// shim's `Map` is a `BTreeMap`), so equal queries always hash to the same
/// server-side plan cache entry.
fn canonical_query_text(query: &AggregateQuery) -> String {
    serde_json::to_string(&query.to_json()).expect("query JSON serialises")
}

impl RemoteStrata {
    /// Strata for `plan` over `sharded`, all sampling work routed through
    /// `fleet` (whose servers must have loaded the same graph — checked via
    /// [`ShardFleet::ping_all`] at topology setup, not per session).
    pub(crate) fn new(
        plan: &QueryPlan,
        sharded: &ShardedGraph,
        fleet: Arc<ShardFleet>,
        query: &AggregateQuery,
    ) -> Self {
        assert_eq!(
            fleet.shard_count(),
            sharded.shard_count(),
            "fleet endpoints must cover every shard"
        );
        let strata = (0..sharded.shard_count())
            .map(|shard| RemoteStratum {
                shard,
                mass: StratumMass::of(&shard_sampler(plan, sharded, shard)),
                draws: Vec::new(),
                steps: 0,
            })
            .collect();
        Self {
            fleet,
            query_text: canonical_query_text(query),
            strata,
            missing: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.strata.len()
    }

    pub(crate) fn drawn(&self, i: usize) -> usize {
        self.strata[i].draws.iter().sum::<u64>() as usize
    }

    pub(crate) fn masses(&self) -> Vec<StratumMass> {
        self.strata.iter().map(|s| s.mass).collect()
    }

    pub(crate) fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// Appends an allocation to every stratum's history; the drawing itself
    /// happens server-side during the next scattered step.
    pub(crate) fn push(&mut self, allocation: &[usize]) {
        for (stratum, &count) in self.strata.iter_mut().zip(allocation) {
            stratum.draws.push(count as u64);
        }
    }

    /// One request per stratum `wanted` selects, all in flight at once: the
    /// last on the calling thread, each of the others on an OS thread of
    /// its own (the work is network-bound; a thread pool would serialise
    /// the round under `RAYON_NUM_THREADS=1`), so K = 1 spawns nothing.
    /// Returns, per stratum asked, what `parse` accepted of its answer —
    /// `None` when the shard stayed unreachable (or answered nonsense) past
    /// the retry budget.
    fn scatter<T>(
        &self,
        resamples: usize,
        round: usize,
        request: impl Fn(String, StratumTask) -> ShardRequest,
        wanted: impl Fn(&RemoteStratum) -> bool,
        parse: impl Fn(ShardResponse) -> Result<T, ShardResponse>,
    ) -> Vec<(usize, Option<T>)> {
        let fleet = &self.fleet;
        let requests: Vec<(usize, ShardRequest)> = self
            .strata
            .iter()
            .filter(|stratum| wanted(stratum))
            .map(|stratum| {
                let task = StratumTask {
                    shard: stratum.shard,
                    draws: stratum.draws.clone(),
                    steps: stratum.steps,
                    resamples,
                };
                (stratum.shard, request(self.query_text.clone(), task))
            })
            .collect();
        let Some(((own_shard, own_request), others)) = requests.split_last() else {
            return Vec::new();
        };
        let responses = std::thread::scope(|scope| {
            let handles: Vec<_> = others
                .iter()
                .map(|(shard, request)| scope.spawn(move || fleet.call(*shard, request)))
                .collect();
            let own = fleet.call(*own_shard, own_request);
            let joined = handles
                .into_iter()
                .map(|handle| handle.join().expect("scatter thread panicked"));
            joined.chain([own]).collect::<Vec<_>>()
        });
        let answers = requests
            .iter()
            .zip(responses)
            .map(|(&(shard, _), response)| {
                let reason = match response {
                    Err(error) => error.to_string(),
                    Ok(response) => match parse(response) {
                        Ok(answer) => return (shard, Some(answer)),
                        Err(other) => format!("unexpected response: {other:?}"),
                    },
                };
                kg_telemetry::point(
                    "aqp.remote.missing",
                    &[
                        ("round", round.into()),
                        ("shard", shard.into()),
                        ("reason", reason.into()),
                    ],
                );
                (shard, None)
            });
        answers.collect()
    }

    /// One scattered round: a `Step` request per non-empty stratum. `None`
    /// for a stratum whose shard was lost.
    pub(crate) fn round(
        &mut self,
        aggregate: &ResolvedAggregate,
        resamples: usize,
        round: usize,
    ) -> Vec<Option<StratumReport>> {
        // A step request carries `draws.len() == steps + 1`. A session
        // resumed after a round that allocated nothing has no pending entry:
        // re-estimating its existing sample is a zero-draw round.
        for stratum in &mut self.strata {
            if stratum.draws.len() == stratum.steps {
                stratum.draws.push(0);
            }
        }
        let answers = self.scatter(
            resamples,
            round,
            |query, task| ShardRequest::Step { query, task },
            |stratum| !stratum.mass.empty,
            |response| match response {
                ShardResponse::Estimate(report) => Ok(report),
                other => Err(other),
            },
        );
        // The round is over: advance every stratum's step counter whether
        // its report arrived or not — the *server-side* round either
        // happened identically or will be replayed identically (discarded
        // estimates burn the same RNG), so the trajectory stays uniform.
        for stratum in &mut self.strata {
            stratum.steps += 1;
        }
        // An empty stratum is synthesised locally: its estimate consumes no
        // RNG, so skipping the RPC is exact.
        let synthesised = |stratum: &RemoteStratum| {
            stratum.mass.empty.then(|| {
                let mut unused = SmallRng::seed_from_u64(0);
                let empty = StratumEstimate::compute(aggregate, &[], resamples, &mut unused);
                stratum_report(empty, 0.0, 0.0)
            })
        };
        let mut reports: Vec<Option<StratumReport>> = self.strata.iter().map(synthesised).collect();
        self.missing.clear();
        for (shard, report) in answers {
            if report.is_none() {
                self.missing.push(shard);
            }
            reports[shard] = report;
        }
        if !self.missing.is_empty() {
            let metrics = self.fleet.metrics();
            metrics.degraded_rounds.fetch_add(1, Ordering::Relaxed);
        }
        reports
    }

    /// GROUP-BY terms per stratum: a `Snapshot` request per non-empty
    /// stratum that reported in the last round. A stratum missing from that
    /// round is skipped outright — its draws did not contribute to the
    /// top-level estimate, so its bucket terms must not either — and one
    /// whose shard is lost now joins `missing`.
    pub(crate) fn bucket_terms(
        &self,
        resamples: usize,
        round: usize,
        missing: &mut Vec<usize>,
    ) -> Vec<Vec<BucketTerm>> {
        let answers = self.scatter(
            resamples,
            round,
            |query, task| ShardRequest::Snapshot { query, task },
            |stratum| !stratum.mass.empty && !self.missing.contains(&stratum.shard),
            |response| match response {
                ShardResponse::Buckets(terms) => Ok(terms),
                other => Err(other),
            },
        );
        let mut per_stratum = vec![Vec::new(); self.strata.len()];
        for (shard, terms) in answers {
            match terms {
                Some(terms) => per_stratum[shard] = terms,
                None => missing.push(shard),
            }
        }
        missing.sort_unstable();
        per_stratum
    }
}
