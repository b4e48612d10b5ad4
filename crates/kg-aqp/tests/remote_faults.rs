//! Fault-injection coverage of the distributed execution path: every
//! injected fault class has its documented outcome — a hedge win, a retry,
//! a failover, or a degraded answer — and never a panic.
//!
//! Faults are scripted through [`FaultPlan`] on the in-process transport,
//! so each scenario is deterministic: the same schedule always produces
//! the same attempt sequence. The strongest assertion throughout is that
//! whenever refinement completes undegraded, its answer is **bitwise
//! identical** to the fault-free run — retries, hedges and failovers can
//! change latency, never bytes.

use kg_aqp::{
    AqpEngine, EngineConfig, FaultAction, FaultPlan, FleetPolicy, InProcessTransport, QueryAnswer,
    ShardFleet, ShardServerCore,
};
use kg_core::{DegreeBalancedPartitioner, ShardedGraph};
use kg_datagen::{domains, generate, DatasetScale, GeneratorConfig};
use kg_embed::PredicateSimilarity;
use kg_query::{AggregateFunction, AggregateQuery, GroupBy, SimpleQuery};
use std::collections::HashMap;
use std::sync::Arc;

fn dataset() -> kg_datagen::GeneratedDataset {
    generate(&GeneratorConfig::new(
        "shard-equivalence",
        DatasetScale::tiny(),
        vec![domains::automotive(&["Germany", "China", "Korea"])],
        29,
    ))
}

fn query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
}

fn group_by_query() -> AggregateQuery {
    AggregateQuery::simple(
        SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
        AggregateFunction::Count,
    )
    .with_group_by(GroupBy::new("price", 30_000.0))
}

/// A distributed rig: `replica_count` independent server "processes", each
/// loading the identical graph; shard `s` on process `r` is endpoint
/// `r{r}s{s}`, so faults can target one shard on one replica precisely.
struct Rig {
    sharded: Arc<ShardedGraph>,
    engine: AqpEngine,
    faults: Arc<FaultPlan>,
    fleet: Arc<ShardFleet>,
    d: kg_datagen::GeneratedDataset,
}

fn endpoint(replica: usize, shard: usize) -> String {
    format!("r{replica}s{shard}")
}

fn rig(k: usize, replica_count: usize, policy: FleetPolicy) -> Rig {
    let d = dataset();
    let graph = Arc::new(d.graph.clone());
    let similarity: Arc<dyn PredicateSimilarity + Send + Sync> = Arc::new(d.oracle.clone());
    let sharded = Arc::new(ShardedGraph::new(
        Arc::clone(&graph),
        &DegreeBalancedPartitioner,
        k,
    ));
    let config = EngineConfig {
        error_bound: 0.05,
        ..EngineConfig::default()
    };
    let mut endpoints = HashMap::new();
    for replica in 0..replica_count {
        let core = Arc::new(ShardServerCore::new(
            config.clone(),
            Arc::clone(&sharded),
            Arc::clone(&similarity),
        ));
        for shard in 0..k {
            endpoints.insert(endpoint(replica, shard), Arc::clone(&core));
        }
    }
    let faults = Arc::new(FaultPlan::new());
    let transport = Arc::new(InProcessTransport::new(endpoints, Arc::clone(&faults)));
    let replicas = (0..k)
        .map(|shard| (0..replica_count).map(|r| endpoint(r, shard)).collect())
        .collect();
    let fleet = Arc::new(ShardFleet::new(transport, replicas, policy));
    Rig {
        sharded,
        engine: AqpEngine::new(config),
        faults,
        fleet,
        d,
    }
}

impl Rig {
    fn refine(&self, query: &AggregateQuery, error_bound: f64) -> QueryAnswer {
        let mut session = self
            .engine
            .open_remote_session(
                &self.sharded,
                query,
                &self.d.oracle,
                Arc::clone(&self.fleet),
            )
            .unwrap();
        session.refine_to(&self.sharded, &self.d.oracle, error_bound)
    }
}

fn assert_bitwise_eq(reference: &QueryAnswer, candidate: &QueryAnswer, context: &str) {
    assert_eq!(
        reference.estimate.to_bits(),
        candidate.estimate.to_bits(),
        "{context}: estimate"
    );
    assert_eq!(
        reference.moe.to_bits(),
        candidate.moe.to_bits(),
        "{context}"
    );
    assert_eq!(reference.sample_size, candidate.sample_size, "{context}");
    assert_eq!(reference.rounds.len(), candidate.rounds.len(), "{context}");
    assert_eq!(reference.groups.len(), candidate.groups.len(), "{context}");
    for (key, value) in &reference.groups {
        assert_eq!(
            value.to_bits(),
            candidate.groups[key].to_bits(),
            "{context}"
        );
    }
}

/// A primary delayed past the hedge threshold loses the race to the hedge
/// replica; the winning response carries the identical bytes, so the
/// answer is bitwise the fault-free one.
#[test]
fn delayed_primary_is_hedged_and_the_hedge_win_changes_no_bytes() {
    let policy = FleetPolicy {
        request_timeout_ms: 5_000,
        hedge_after_ms: 40,
        ..FleetPolicy::default()
    };
    let reference = rig(2, 2, policy.clone()).refine(&query(), 0.05);

    let faulted = rig(2, 2, policy);
    // Delay shard 0's primary replica well past the hedge threshold on the
    // first round; the hedge to replica 1 answers long before it.
    faulted
        .faults
        .push(&endpoint(0, 0), FaultAction::Delay(400));
    let answer = faulted.refine(&query(), 0.05);
    assert!(!answer.is_degraded());
    assert_bitwise_eq(&reference, &answer, "hedged");
    let metrics = faulted.fleet.metrics().snapshot();
    assert!(metrics.hedges >= 1, "no hedge launched: {metrics:?}");
    assert!(metrics.hedge_wins >= 1, "hedge never won: {metrics:?}");
}

/// A dropped request times out and is retried; the retry serves the
/// identical bytes.
#[test]
fn dropped_request_is_retried_with_identical_bytes() {
    let policy = FleetPolicy {
        request_timeout_ms: 150,
        hedge_after_ms: 0, // isolate the retry path
        retry_budget: 2,
        ..FleetPolicy::default()
    };
    let reference = rig(2, 1, policy.clone()).refine(&query(), 0.05);

    let faulted = rig(2, 1, policy);
    faulted.faults.push(&endpoint(0, 1), FaultAction::Drop);
    let answer = faulted.refine(&query(), 0.05);
    assert!(!answer.is_degraded());
    assert_bitwise_eq(&reference, &answer, "retried");
    let metrics = faulted.fleet.metrics().snapshot();
    assert!(metrics.timeouts >= 1, "no timeout recorded: {metrics:?}");
    assert!(metrics.retries >= 1, "no retry recorded: {metrics:?}");
}

/// A connection dropped mid-exchange fails over to the next replica; a
/// cold replica replays the identical state, so bytes are unchanged.
#[test]
fn disconnect_fails_over_to_a_replica_with_identical_bytes() {
    let policy = FleetPolicy {
        request_timeout_ms: 2_000,
        hedge_after_ms: 0,
        retry_budget: 2,
        ..FleetPolicy::default()
    };
    let reference = rig(2, 2, policy.clone()).refine(&query(), 0.05);

    let faulted = rig(2, 2, policy);
    faulted
        .faults
        .push(&endpoint(0, 0), FaultAction::Disconnect);
    let answer = faulted.refine(&query(), 0.05);
    assert!(!answer.is_degraded());
    assert_bitwise_eq(&reference, &answer, "failover");
    let metrics = faulted.fleet.metrics().snapshot();
    assert!(metrics.failovers >= 1, "no failover recorded: {metrics:?}");
}

/// A garbage frame is a structured transport error — never a panic — and
/// the retry serves the identical bytes.
#[test]
fn garbage_frames_are_structured_errors_and_retried() {
    let policy = FleetPolicy {
        request_timeout_ms: 2_000,
        hedge_after_ms: 0,
        retry_budget: 2,
        ..FleetPolicy::default()
    };
    let reference = rig(2, 1, policy.clone()).refine(&query(), 0.05);

    let faulted = rig(2, 1, policy);
    faulted.faults.push(&endpoint(0, 0), FaultAction::Garbage);
    faulted.faults.push(&endpoint(0, 1), FaultAction::Garbage);
    let answer = faulted.refine(&query(), 0.05);
    assert!(!answer.is_degraded());
    assert_bitwise_eq(&reference, &answer, "garbage-retried");
    let metrics = faulted.fleet.metrics().snapshot();
    assert!(metrics.garbage >= 2, "garbage not recorded: {metrics:?}");
    assert!(metrics.retries >= 2, "no retry recorded: {metrics:?}");
}

/// The degraded-answer contract, end to end: a dead shard past its retry
/// budget yields `degraded: true` with the missing shard id and a usable
/// estimate from the surviving strata; after the shard comes back, further
/// refinement returns to undegraded answers.
#[test]
fn dead_shard_degrades_the_answer_and_recovery_restores_it() {
    let policy = FleetPolicy {
        request_timeout_ms: 200,
        hedge_after_ms: 0,
        retry_budget: 1,
        backoff_base_ms: 5,
        ..FleetPolicy::default()
    };
    let r = rig(2, 1, policy);
    let q = group_by_query();
    let mut session = r
        .engine
        .open_remote_session(&r.sharded, &q, &r.d.oracle, Arc::clone(&r.fleet))
        .unwrap();

    // Phase 1: healthy refinement.
    let healthy = session.refine_to(&r.sharded, &r.d.oracle, 0.20);
    assert!(!healthy.is_degraded());
    assert!(healthy.estimate > 0.0);

    // Phase 2: shard 1 dies mid-workload; refinement completes on the
    // surviving stratum, flagged degraded with the missing shard id.
    r.faults.kill(&endpoint(0, 1));
    let degraded = session.refine_to(&r.sharded, &r.d.oracle, 0.05);
    assert!(degraded.is_degraded(), "dead shard not flagged");
    assert_eq!(degraded.missing_shards, vec![1]);
    assert!(
        degraded.estimate.is_finite() && degraded.moe.is_finite(),
        "degraded answer must still carry the surviving strata's interval"
    );
    let metrics = r.fleet.metrics().snapshot();
    assert!(metrics.degraded_rounds >= 1, "{metrics:?}");

    // Phase 3: the shard restarts (cold — it replays the whole history);
    // the next refinement is undegraded again.
    r.faults.revive(&endpoint(0, 1));
    let recovered = session.refine_to(&r.sharded, &r.d.oracle, 0.05);
    assert!(
        !recovered.is_degraded(),
        "recovery not reflected: {:?}",
        recovered.missing_shards
    );
    assert!(recovered.estimate > 0.0);
    assert!(!recovered.groups.is_empty(), "GROUP-BY lost after recovery");
}

/// Consecutive failures eject an endpoint; after the probe window a
/// half-open probe re-admits it. Observable through the fleet metrics.
#[test]
fn ejection_and_half_open_readmission_cycle() {
    let policy = FleetPolicy {
        request_timeout_ms: 100,
        hedge_after_ms: 0,
        retry_budget: 1,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
        eject_after: 2,
        probe_after_ms: 50,
        ..FleetPolicy::default()
    };
    let r = rig(1, 1, policy);
    // Two consecutive disconnects on the only endpoint: ejected.
    r.faults.push(&endpoint(0, 0), FaultAction::Disconnect);
    r.faults.push(&endpoint(0, 0), FaultAction::Disconnect);
    let first = r.refine(&query(), 0.20);
    let metrics = r.fleet.metrics().snapshot();
    // With a single replica the fleet still routes to the ejected endpoint
    // as a last resort, so the round either recovered on a later attempt
    // or degraded — never panicked.
    assert!(metrics.ejections >= 1, "{metrics:?}");
    // Past the probe window, a healthy request re-admits the endpoint.
    std::thread::sleep(std::time::Duration::from_millis(60));
    let second = r.refine(&query(), 0.20);
    assert!(!second.is_degraded());
    assert!(second.estimate.is_finite());
    let metrics = r.fleet.metrics().snapshot();
    assert!(metrics.readmissions >= 1, "{metrics:?}");
    let _ = first;
}

/// A total outage (every shard dead) still never panics: the answer is
/// degraded with every shard listed and a zero estimate rather than an
/// error or crash.
#[test]
fn total_outage_degrades_every_stratum_without_panicking() {
    let policy = FleetPolicy {
        request_timeout_ms: 100,
        hedge_after_ms: 0,
        retry_budget: 0,
        ..FleetPolicy::default()
    };
    let r = rig(2, 1, policy);
    r.faults.kill(&endpoint(0, 0));
    r.faults.kill(&endpoint(0, 1));
    let answer = r.refine(&query(), 0.05);
    assert!(answer.is_degraded());
    assert_eq!(answer.missing_shards, vec![0, 1]);
    assert!(!answer.guarantee_met);
    assert_eq!(answer.rounds.len(), 0);
}
