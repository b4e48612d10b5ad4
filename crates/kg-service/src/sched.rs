//! Per-tenant weighted-fair queuing (WFQ) with quotas.
//!
//! Each tenant owns a FIFO of admitted jobs plus a **virtual time**: every
//! refinement round a worker executes on the tenant's behalf charges
//! `1/weight` to its clock, and the scheduler always serves the runnable
//! tenant with the smallest clock (ties broken by tenant name, so the
//! schedule is deterministic). Under saturation this yields round
//! allocations exactly proportional to the weights — the classic
//! virtual-time WFQ argument — and a tenant that goes idle re-enters at the
//! global clock, so sleeping never banks credit.
//!
//! Admission is two-tier: deadline-carrying requests (whose cost the
//! deadline bounds) are admitted up to their **tenant quota**; deadline-less
//! requests (whose cost is open-ended) are admitted up to the **global**
//! `queue_capacity`, preserving the pre-v2 shedding contract.

use crate::config::TenantPolicy;
use crate::request::{QueryRequest, ServiceAnswer, ServiceError};
use crate::service::MetricsInner;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Instant;

/// One admitted request waiting for (or being refined by) a worker.
pub(crate) struct Job {
    /// The request as submitted.
    pub request: QueryRequest,
    /// When the request was admitted.
    pub admitted: Instant,
    /// Absolute deadline derived from `request.deadline_ms` at admission.
    pub deadline: Option<Instant>,
    /// Where the answer (or error) goes; taken by [`Job::answer`].
    pub reply: Option<mpsc::Sender<Result<ServiceAnswer, ServiceError>>>,
    /// The service counters, for the `failed` count of a job dropped
    /// unanswered.
    pub metrics: Arc<Mutex<MetricsInner>>,
}

impl Job {
    /// Sends the job's one reply. The caller has counted its outcome.
    pub fn answer(mut self, result: Result<ServiceAnswer, ServiceError>) {
        if let Some(reply) = self.reply.take() {
            // The client may have given up; a dead receiver is not an error.
            let _ = reply.send(result);
        }
    }
}

impl Drop for Job {
    /// A job is dropped unanswered only when a panic unwinds the batch that
    /// holds it: it is answered `internal_error` and counted `failed` in its
    /// tenant row, so the client gets a reply and the row still balances.
    /// The metrics lock may be poisoned by that panic; counters stay usable.
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            self.metrics
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .tenant(&self.request.tenant)
                .failed += 1;
            let _ = reply.send(Err(ServiceError::Internal));
        }
    }
}

struct TenantState {
    weight: f64,
    quota: usize,
    /// Virtual time: total rounds charged, each weighted by `1/weight`.
    vtime: f64,
    queue: VecDeque<Job>,
}

/// The weighted-fair scheduler; see the [module docs](self). All methods
/// are called under the service's scheduler mutex.
pub(crate) struct Scheduler {
    policy: TenantPolicy,
    queue_capacity: usize,
    tenants: BTreeMap<String, TenantState>,
    total_queued: usize,
    /// High-water mark of served vtimes: idle tenants re-enter here.
    global_vtime: f64,
}

impl Scheduler {
    pub fn new(policy: TenantPolicy, queue_capacity: usize) -> Self {
        Self {
            policy,
            queue_capacity,
            tenants: BTreeMap::new(),
            total_queued: 0,
            global_vtime: 0.0,
        }
    }

    fn tenant_mut(&mut self, name: &str) -> &mut TenantState {
        if !self.tenants.contains_key(name) {
            let limits = self.policy.limits(name);
            self.tenants.insert(
                name.to_string(),
                TenantState {
                    weight: limits.weight,
                    quota: limits.quota,
                    vtime: self.global_vtime,
                    queue: VecDeque::new(),
                },
            );
        }
        self.tenants.get_mut(name).expect("inserted above")
    }

    /// Jobs currently queued across all tenants.
    pub fn ready(&self) -> usize {
        self.total_queued
    }

    /// Whether a request of `tenant` may be queued, or the policy's error:
    /// per-tenant quota for deadline requests, the global capacity for
    /// deadline-less ones. Follow with [`Self::enqueue`] under the same lock.
    pub fn admit(&mut self, tenant: &str, has_deadline: bool) -> Result<(), ServiceError> {
        let queue_capacity = self.queue_capacity;
        let total_queued = self.total_queued;
        let state = self.tenant_mut(tenant);
        if has_deadline {
            if state.queue.len() >= state.quota {
                return Err(ServiceError::TenantQuotaExceeded {
                    tenant: tenant.to_string(),
                    quota: state.quota,
                });
            }
        } else if total_queued >= queue_capacity {
            return Err(ServiceError::Overloaded {
                capacity: queue_capacity,
            });
        }
        Ok(())
    }

    /// Queues a job [`Self::admit`] let in.
    pub fn enqueue(&mut self, job: Job) {
        let global_vtime = self.global_vtime;
        let state = self.tenant_mut(&job.request.tenant);
        if state.queue.is_empty() {
            // An idle tenant re-enters at the global clock: banking vtime
            // while idle would let it starve everyone on return.
            state.vtime = state.vtime.max(global_vtime);
        }
        state.queue.push_back(job);
        self.total_queued += 1;
    }

    /// Checks out up to `max` jobs in weighted-fair order: each pick takes
    /// the front job of the smallest-vtime non-empty tenant and charges one
    /// round's worth (`1/weight`) so a burst from one tenant cannot occupy
    /// the whole checkout set while others wait.
    pub fn checkout(&mut self, max: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        while jobs.len() < max {
            let Some(name) = self.min_vtime_tenant(|t| !t.queue.is_empty()) else {
                break;
            };
            let state = self.tenants.get_mut(&name).expect("picked above");
            let job = state.queue.pop_front().expect("non-empty picked");
            state.vtime += 1.0 / state.weight;
            self.global_vtime = self.global_vtime.max(state.vtime);
            self.total_queued -= 1;
            jobs.push(job);
        }
        jobs
    }

    /// Checks out up to `max` *deadline-carrying* jobs in weighted-fair
    /// order. Used for late admission mid-batch: deadline requests lose
    /// value every millisecond they queue, so a refining worker absorbs
    /// them between rounds. Deadline-less jobs stay queued — they keep the
    /// original batch-drain semantics (and the `queue_capacity`
    /// backpressure that goes with it). Per-tenant FIFO order is preserved:
    /// only front jobs are taken, so a deadline job queued behind a
    /// deadline-less one waits its turn.
    pub fn checkout_deadline(&mut self, max: usize) -> Vec<Job> {
        let mut jobs = Vec::new();
        while jobs.len() < max {
            let Some(name) =
                self.min_vtime_tenant(|t| t.queue.front().is_some_and(|j| j.deadline.is_some()))
            else {
                break;
            };
            let state = self.tenants.get_mut(&name).expect("picked above");
            let job = state.queue.pop_front().expect("non-empty picked");
            state.vtime += 1.0 / state.weight;
            self.global_vtime = self.global_vtime.max(state.vtime);
            self.total_queued -= 1;
            jobs.push(job);
        }
        jobs
    }

    /// Picks the candidate tenant with the smallest vtime (ties by name
    /// order — `candidates` must be sorted by the caller for deterministic
    /// tie-breaks) and charges it one refinement round. Returns the index
    /// into `candidates`.
    pub fn pick_and_charge(&mut self, candidates: &[&str]) -> usize {
        debug_assert!(!candidates.is_empty());
        let mut best = 0;
        let mut best_vtime = f64::INFINITY;
        for (i, name) in candidates.iter().enumerate() {
            let vtime = self.tenant_mut(name).vtime;
            if vtime < best_vtime {
                best = i;
                best_vtime = vtime;
            }
        }
        let state = self.tenant_mut(candidates[best]);
        state.vtime += 1.0 / state.weight;
        let charged = state.vtime;
        self.global_vtime = self.global_vtime.max(charged);
        best
    }

    /// Removes and returns every queued job (shutdown drain).
    pub fn drain_all(&mut self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for state in self.tenants.values_mut() {
            jobs.extend(state.queue.drain(..));
        }
        self.total_queued = 0;
        jobs
    }

    fn min_vtime_tenant(&self, keep: impl Fn(&TenantState) -> bool) -> Option<String> {
        self.tenants
            .iter()
            .filter(|(_, t)| keep(t))
            .min_by(|(a_name, a), (b_name, b)| {
                a.vtime.total_cmp(&b.vtime).then_with(|| a_name.cmp(b_name))
            })
            .map(|(name, _)| name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{TenantLimits, TenantPolicy};

    fn policy_2_to_1() -> TenantPolicy {
        let mut policy = TenantPolicy::default();
        policy.set(
            "a",
            TenantLimits {
                weight: 2.0,
                quota: 64,
            },
        );
        policy.set(
            "b",
            TenantLimits {
                weight: 1.0,
                quota: 64,
            },
        );
        policy
    }

    #[test]
    fn wfq_grants_rounds_proportionally_to_weights_under_saturation() {
        // Both tenants permanently runnable (saturation): over any long
        // window the 2:1 weights must yield a 2:1 round split, exactly —
        // the virtual-time schedule is deterministic.
        let mut sched = Scheduler::new(policy_2_to_1(), 256);
        let candidates = ["a", "b"];
        let mut counts = [0usize; 2];
        for _ in 0..300 {
            counts[sched.pick_and_charge(&candidates)] += 1;
        }
        assert_eq!(counts, [200, 100], "weights 2:1 must grant rounds 2:1");
    }

    #[test]
    fn equal_weights_alternate_deterministically() {
        let mut sched = Scheduler::new(TenantPolicy::default(), 256);
        let candidates = ["x", "y"];
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            counts[sched.pick_and_charge(&candidates)] += 1;
        }
        assert_eq!(counts, [50, 50]);
    }

    #[test]
    fn idle_tenants_do_not_bank_credit() {
        let mut sched = Scheduler::new(policy_2_to_1(), 256);
        // Tenant "b" runs alone for a while…
        for _ in 0..50 {
            assert_eq!(sched.pick_and_charge(&["b"]), 0);
        }
        // …then "a" wakes up. It must NOT receive 150 back-to-back rounds
        // to "catch up" with b's clock: a fresh tenant enters at the global
        // clock, and from there the 2:1 ratio applies immediately.
        let candidates = ["a", "b"];
        let mut first_window = [0usize; 2];
        for _ in 0..30 {
            first_window[sched.pick_and_charge(&candidates)] += 1;
        }
        assert_eq!(
            first_window,
            [20, 10],
            "a newly active tenant gets its weighted share, not a backlog"
        );
    }
}
