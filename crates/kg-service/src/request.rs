//! Requests, answers and errors of the service API.
//!
//! # Wire versions
//!
//! A request body carries accuracy targets nested under `"targets"`, plus
//! the scheduling fields: `{"v": 2, "query": .., "targets":
//! {"error_bound": .., "confidence": ..}, "deadline_ms": .., "tenant": ..}`.
//! A body without the `"v"` tag is the legacy flat (v1) shape
//! `{"query": .., "error_bound": .., "confidence": ..}`: it is upgraded to
//! the v2 body with the same query and targets and decoded as one, so it
//! yields the same [`QueryRequest`] (default tenant, no deadline) and the
//! same cache key.

use kg_aqp::QueryAnswer;
use kg_core::KgError;
use kg_query::wire::{as_array, as_bool, as_f64, as_str, get_field, object};
use kg_query::{AggregateQuery, WireError};
use serde_json::Value;
use std::fmt;
use std::sync::Arc;

/// The wire version emitted by [`QueryRequest::to_json`].
pub const WIRE_VERSION: u64 = 2;

/// Tenant name assumed when a request carries none.
pub const DEFAULT_TENANT: &str = "default";

/// One query submitted to the service, with its per-request accuracy
/// contract — the answer's confidence interval must satisfy `error_bound`
/// (Theorem 2's relative-error test) at `confidence` — and its scheduling
/// envelope: an optional deadline (anytime answers) and the tenant whose
/// weighted-fair queue admits it.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// The aggregate query to answer.
    pub query: AggregateQuery,
    /// Relative error bound eb the answer must satisfy.
    pub error_bound: f64,
    /// Confidence level 1 − α of the returned interval.
    pub confidence: f64,
    /// Optional deadline in milliseconds from admission. When set, the
    /// scheduler returns the best round-boundary estimate available at the
    /// deadline (`guarantee_met: false` if the target was not yet met)
    /// instead of refining to completion.
    pub deadline_ms: Option<f64>,
    /// Tenant this request is accounted to (weighted-fair scheduling and
    /// per-tenant quotas). Defaults to [`DEFAULT_TENANT`].
    pub tenant: String,
    /// Client-supplied request correlation ID (the X-Request-Id idiom,
    /// carried in the body since the wire is JSON-first). Echoed verbatim on
    /// the answer and stamped on every telemetry event the request emits;
    /// the service generates one when absent. Identity metadata only — it
    /// never participates in cache keys.
    pub request_id: Option<String>,
    /// When true the answer embeds the per-round refinement trajectory
    /// (estimate, CI half-width, sample size, validation counts per round)
    /// under a `trace` key. Diagnostic metadata only: it never perturbs
    /// refinement, RNG streams or cache keys.
    pub trace: bool,
}

impl QueryRequest {
    /// A request with explicit targets, no deadline, default tenant.
    pub fn new(query: AggregateQuery, error_bound: f64, confidence: f64) -> Self {
        Self {
            query,
            error_bound,
            confidence,
            deadline_ms: None,
            tenant: DEFAULT_TENANT.to_string(),
            request_id: None,
            trace: false,
        }
    }

    /// Sets a deadline in milliseconds from admission.
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets the tenant this request is accounted to.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Sets the correlation ID echoed on the answer and stamped on
    /// telemetry events.
    pub fn with_request_id(mut self, request_id: impl Into<String>) -> Self {
        self.request_id = Some(request_id.into());
        self
    }

    /// Asks for the per-round refinement trajectory on the answer.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// True when the targets are usable: `error_bound > 0`,
    /// `confidence ∈ (0, 1)`, and the deadline (when present) is a positive
    /// finite number of milliseconds.
    pub fn targets_valid(&self) -> bool {
        self.error_bound > 0.0
            && self.error_bound.is_finite()
            && self.confidence > 0.0
            && self.confidence < 1.0
            && self.deadline_ms.map_or(true, |d| d.is_finite() && d > 0.0)
    }

    /// Encodes the current (v2) wire shape:
    /// `{"v": 2, "query": .., "targets": {"error_bound": .., "confidence": ..},
    /// "tenant": .., "deadline_ms": .., "request_id": .., "trace": ..}`
    /// (`deadline_ms` and `request_id` omitted when unset, `trace` omitted
    /// when false).
    pub fn to_json(&self) -> Value {
        let targets = object(vec![
            ("error_bound", Value::Number(self.error_bound)),
            ("confidence", Value::Number(self.confidence)),
        ]);
        let mut fields = vec![
            ("v", Value::Number(WIRE_VERSION as f64)),
            ("query", self.query.to_json()),
            ("targets", targets),
            ("tenant", Value::String(self.tenant.clone())),
        ];
        if let Some(deadline_ms) = self.deadline_ms {
            fields.push(("deadline_ms", Value::Number(deadline_ms)));
        }
        if let Some(request_id) = &self.request_id {
            fields.push(("request_id", Value::String(request_id.clone())));
        }
        if self.trace {
            fields.push(("trace", Value::Bool(true)));
        }
        object(fields)
    }

    /// Decodes a request body: `"v": 2`, or no tag for the legacy flat body
    /// (see the [module docs](self); every field of a flat body other than
    /// `query`, `error_bound` and `confidence` is ignored). Any other tag is
    /// a [`WireError`]. Accuracy targets fall back to `defaults` when absent
    /// (the HTTP endpoint lets clients omit them).
    pub fn from_json(value: &Value, defaults: (f64, f64)) -> Result<Self, WireError> {
        let Some(tag) = value.get("v") else {
            let flat = |field| value.get(field).map(|v| (field, v.clone()));
            let targets = ["error_bound", "confidence"].into_iter().filter_map(flat);
            let mut upgraded = vec![
                ("v", Value::Number(WIRE_VERSION as f64)),
                ("targets", object(targets.collect())),
            ];
            upgraded.extend(flat("query"));
            return Self::from_json(&object(upgraded), defaults);
        };
        if as_f64(tag, "request.v")? != WIRE_VERSION as f64 {
            let expected = format!("supported wire version {WIRE_VERSION}");
            return Err(WireError::new("request.v", expected));
        }
        let query = value
            .get("query")
            .ok_or_else(|| WireError::new("request.query", "a wire-encoded aggregate query"))?;
        let query = AggregateQuery::from_json(query)?;
        let target = |targets: &Value, field: &str, fallback: f64| match targets.get(field) {
            None => Ok(fallback),
            Some(v) => as_f64(v, &format!("request.targets.{field}")),
        };
        let (error_bound, confidence) = match value.get("targets") {
            None => defaults,
            Some(targets @ Value::Object(_)) => (
                target(targets, "error_bound", defaults.0)?,
                target(targets, "confidence", defaults.1)?,
            ),
            Some(_) => {
                let expected = "an object {error_bound, confidence}";
                return Err(WireError::new("request.targets", expected));
            }
        };
        let tenant = match value.get("tenant") {
            None => DEFAULT_TENANT.to_string(),
            Some(v) => as_str(v, "request.tenant")?,
        };
        let deadline_ms = present(value, "deadline_ms").map(|v| as_f64(v, "request.deadline_ms"));
        let request_id = present(value, "request_id").map(|v| as_str(v, "request.request_id"));
        let trace = present(value, "trace").map(|v| as_bool(v, "request.trace"));
        Ok(Self {
            query,
            error_bound,
            confidence,
            deadline_ms: deadline_ms.transpose()?,
            tenant,
            request_id: request_id.transpose()?,
            trace: trace.transpose()?.unwrap_or(false),
        })
    }
}

/// `field` of `value`, unless it is absent or `null`.
fn present<'a>(value: &'a Value, field: &str) -> Option<&'a Value> {
    value.get(field).filter(|v| !v.is_null())
}

/// One mutation of a [`WriteRequest`] (the `/v2/write` ingest endpoint).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// Create an entity (or merge types into an existing one).
    UpsertEntity {
        /// Unique entity name.
        name: String,
        /// Type names to attach (may be empty).
        types: Vec<String>,
    },
    /// Insert the edge `subject --predicate--> object`, creating untyped
    /// endpoints on demand.
    UpsertEdge {
        /// Subject entity name.
        subject: String,
        /// Predicate name (interned on first sight).
        predicate: String,
        /// Object entity name.
        object: String,
    },
    /// Delete every live occurrence of the exact edge; a no-op when the
    /// edge (or either endpoint) is unknown.
    DeleteEdge {
        /// Subject entity name.
        subject: String,
        /// Predicate name.
        predicate: String,
        /// Object entity name.
        object: String,
    },
}

impl WriteOp {
    fn from_json(value: &Value, index: usize) -> Result<Self, WireError> {
        let path = format!("write.ops[{index}]");
        let name =
            |field: &str| as_str(get_field(value, &path, field)?, &format!("{path}.{field}"));
        let op = name("op")?;
        match op.as_str() {
            "upsert_entity" => {
                let name = name("name")?;
                let types_path = format!("{path}.types");
                let types = match present(value, "types") {
                    None => Vec::new(),
                    Some(types) => as_array(types, &types_path)?
                        .iter()
                        .map(|t| as_str(t, &types_path))
                        .collect::<Result<_, _>>()?,
                };
                Ok(WriteOp::UpsertEntity { name, types })
            }
            "upsert_edge" | "delete_edge" => {
                let subject = name("subject")?;
                let predicate = name("predicate")?;
                let object = name("object")?;
                if op == "upsert_edge" {
                    Ok(WriteOp::UpsertEdge {
                        subject,
                        predicate,
                        object,
                    })
                } else {
                    Ok(WriteOp::DeleteEdge {
                        subject,
                        predicate,
                        object,
                    })
                }
            }
            _ => Err(WireError::new(
                &format!("{path}.op"),
                "one of \"upsert_entity\", \"upsert_edge\", \"delete_edge\"",
            )),
        }
    }

    fn to_json(&self) -> Value {
        let string = |s: &str| Value::String(s.to_string());
        match self {
            WriteOp::UpsertEntity { name, types } => object(vec![
                ("op", string("upsert_entity")),
                ("name", string(name)),
                (
                    "types",
                    Value::Array(types.iter().map(|t| string(t)).collect()),
                ),
            ]),
            WriteOp::UpsertEdge {
                subject,
                predicate,
                object: target,
            }
            | WriteOp::DeleteEdge {
                subject,
                predicate,
                object: target,
            } => {
                let op = if matches!(self, WriteOp::UpsertEdge { .. }) {
                    "upsert_edge"
                } else {
                    "delete_edge"
                };
                object(vec![
                    ("op", string(op)),
                    ("subject", string(subject)),
                    ("predicate", string(predicate)),
                    ("object", string(target)),
                ])
            }
        }
    }
}

/// A batch of mutations applied atomically by
/// [`crate::Service::apply_write`]: every query admitted after the write
/// returns sees all of its ops (read-your-writes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteRequest {
    /// The mutations, applied in order.
    pub ops: Vec<WriteOp>,
    /// Force folding the delta overlay into a fresh CSR even below the
    /// configured `compact_threshold`.
    pub compact: bool,
}

impl WriteRequest {
    /// A write of the given ops, without forced compaction.
    pub fn new(ops: Vec<WriteOp>) -> Self {
        Self {
            ops,
            compact: false,
        }
    }

    /// Forces compaction after applying the ops (builder style).
    pub fn with_compact(mut self) -> Self {
        self.compact = true;
        self
    }

    /// Decodes `{"v": 2?, "ops": [..], "compact": bool?}`. The `v` tag is
    /// optional (the endpoint is v2-only); `compact` defaults to false.
    pub fn from_json(value: &Value) -> Result<Self, WireError> {
        if let Some(tag) = value.get("v") {
            if tag.as_f64() != Some(WIRE_VERSION as f64) {
                let expected = format!("supported wire version {WIRE_VERSION}");
                return Err(WireError::new("write.v", expected));
            }
        }
        let ops = as_array(get_field(value, "write", "ops")?, "write.ops")?
            .iter()
            .enumerate()
            .map(|(i, v)| WriteOp::from_json(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        let compact = present(value, "compact").map(|v| as_bool(v, "write.compact"));
        Ok(Self {
            ops,
            compact: compact.transpose()?.unwrap_or(false),
        })
    }

    /// Encodes the wire shape accepted by [`Self::from_json`].
    pub fn to_json(&self) -> Value {
        object(vec![
            ("v", Value::Number(WIRE_VERSION as f64)),
            (
                "ops",
                Value::Array(self.ops.iter().map(WriteOp::to_json).collect()),
            ),
            ("compact", Value::Bool(self.compact)),
        ])
    }
}

/// What a [`crate::Service::apply_write`] did, returned to the writer (and
/// encoded as the `/v2/write` response body).
#[derive(Clone, Debug, PartialEq)]
pub struct WriteOutcome {
    /// Ops applied (always the full batch).
    pub applied: usize,
    /// Total live edge occurrences removed by the batch's delete ops.
    pub edges_deleted: usize,
    /// True when this write folded the overlay into a fresh CSR.
    pub compacted: bool,
    /// Delta ops still pending on the installed graph (0 after compaction).
    pub delta_ops: usize,
    /// Cached answers evicted because their footprint intersected the
    /// write's.
    pub evicted_answers: usize,
    /// The write sequence number this write landed at: any answer computed
    /// at a later sequence sees it.
    pub epoch: u64,
}

impl WriteOutcome {
    /// Encodes as `{"applied": .., "edges_deleted": .., "compacted": ..,
    /// "delta_ops": .., "evicted_answers": .., "epoch": ..}`.
    pub fn to_json(&self) -> Value {
        let count = |n: usize| Value::Number(n as f64);
        object(vec![
            ("applied", count(self.applied)),
            ("edges_deleted", count(self.edges_deleted)),
            ("compacted", Value::Bool(self.compacted)),
            ("delta_ops", count(self.delta_ops)),
            ("evicted_answers", count(self.evicted_answers)),
            ("epoch", Value::Number(self.epoch as f64)),
        ])
    }
}

/// How the service produced an answer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServedFrom {
    /// Planned and refined from scratch.
    Fresh,
    /// Served directly from the result cache: the cached interval already
    /// dominated the request's targets.
    CacheHit,
    /// A cached session was resumed and refined to the request's targets.
    CacheResume,
}

impl ServedFrom {
    /// Wire name (`"fresh"`, `"cache_hit"`, `"cache_resume"`).
    pub fn name(self) -> &'static str {
        match self {
            ServedFrom::Fresh => "fresh",
            ServedFrom::CacheHit => "cache_hit",
            ServedFrom::CacheResume => "cache_resume",
        }
    }
}

/// A completed request: the engine answer plus service-level bookkeeping.
#[derive(Clone, Debug)]
pub struct ServiceAnswer {
    /// The engine's answer (estimate, CI, rounds, timings).
    pub answer: QueryAnswer,
    /// How the answer was produced.
    pub served_from: ServedFrom,
    /// Milliseconds the request spent queued before a worker picked it up.
    pub queue_ms: f64,
    /// Milliseconds from admission to completion.
    pub total_ms: f64,
    /// The smallest relative error bound the returned interval satisfies
    /// under Theorem 2 ([`kg_estimate::achieved_error_bound`]). For
    /// `guarantee_met` answers this is ≤ the requested bound; for
    /// deadline-truncated answers it is ≥ the requested bound (possibly
    /// `f64::INFINITY`, encoded as JSON `null`).
    pub achieved_error_bound: f64,
    /// True when a deadline stopped refinement before the requested targets
    /// were met: the answer is the best round-boundary estimate available
    /// at the deadline.
    pub deadline_hit: bool,
    /// Tenant the request was accounted to.
    pub tenant: String,
    /// Correlation ID: the client's `request_id` echoed verbatim, or the
    /// service-generated one when the request carried none. Matches the
    /// `trace` field stamped on this request's telemetry events.
    pub request_id: String,
    /// Per-round refinement trajectory, present only when the request asked
    /// for it with `trace: true` (see [`QueryRequest::trace`]).
    pub trace: Option<Value>,
}

impl ServiceAnswer {
    /// Encodes as `{"answer": .., "served_from": .., "queue_ms": ..,
    /// "total_ms": .., "achieved_error_bound": .., "deadline_hit": ..,
    /// "tenant": .., "request_id": .., "trace"?: ..}`. A non-finite
    /// achieved bound encodes as `null`; `trace` is omitted unless the
    /// request opted in.
    pub fn to_json(&self) -> Value {
        let achieved = self.achieved_error_bound;
        let mut fields = vec![
            ("answer", self.answer.to_json()),
            (
                "served_from",
                Value::String(self.served_from.name().to_string()),
            ),
            ("queue_ms", Value::Number(self.queue_ms)),
            ("total_ms", Value::Number(self.total_ms)),
            (
                "achieved_error_bound",
                if achieved.is_finite() {
                    Value::Number(achieved)
                } else {
                    Value::Null
                },
            ),
            ("deadline_hit", Value::Bool(self.deadline_hit)),
            ("tenant", Value::String(self.tenant.clone())),
            ("request_id", Value::String(self.request_id.clone())),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("trace", trace.clone()));
        }
        object(fields)
    }
}

/// Why the service did not answer a request.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// The global admission queue was full: the (deadline-less) request was
    /// shed at the door without consuming engine resources. Retry later.
    Overloaded {
        /// The configured admission-queue capacity that was exhausted.
        capacity: usize,
    },
    /// The tenant's own queue quota was exhausted: deadline-carrying
    /// requests are never shed globally, but each tenant's backlog is
    /// bounded so one tenant cannot monopolise the scheduler.
    TenantQuotaExceeded {
        /// The tenant whose quota was exhausted.
        tenant: String,
        /// The per-tenant queue quota that was exhausted.
        quota: usize,
    },
    /// The query cannot be answered against the current graph (unknown
    /// entity / predicate / type / attribute). Retrying is pointless.
    /// (`Arc` because `KgError` owns an `io::Error` and cannot be cloned.)
    Rejected(Arc<KgError>),
    /// The request's error bound, confidence or deadline is out of range.
    InvalidTargets {
        /// The offending error bound.
        error_bound: f64,
        /// The offending confidence.
        confidence: f64,
        /// The offending deadline, when one was supplied.
        deadline_ms: Option<f64>,
    },
    /// The deadline expired before query planning completed, so there is no
    /// round-boundary estimate to return — the only way a deadline turns
    /// into an error rather than an anytime answer.
    DeadlineExceeded {
        /// The requested deadline in milliseconds.
        deadline_ms: f64,
    },
    /// The service is shutting down and will not answer.
    ShuttingDown,
    /// This process runs as a remote-shard coordinator, where the
    /// authoritative graph lives in the `kg-shard` fleet; accepting a write
    /// on the coordinator's local copy would fork the graph fingerprints.
    RemoteWriteUnsupported,
    /// The batch answering this request panicked before the request was
    /// answered (an engine invariant violated by some query of the batch).
    Internal,
}

impl ServiceError {
    /// Stable machine-readable error code, carried in the `"code"` field of
    /// every JSON error body. One row per variant; the HTTP status each code
    /// maps to is [`Self::http_status`] — together they form the exhaustive
    /// `ServiceError → (status, code)` table pinned by tests.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::TenantQuotaExceeded { .. } => "tenant_quota_exceeded",
            ServiceError::Rejected(_) => "unresolvable_query",
            ServiceError::InvalidTargets { .. } => "invalid_targets",
            ServiceError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServiceError::ShuttingDown => "shutting_down",
            ServiceError::RemoteWriteUnsupported => "remote_write_unsupported",
            ServiceError::Internal => "internal_error",
        }
    }

    /// The HTTP status this error maps to: 503 overloaded / shutting down,
    /// 429 per-tenant quota, 422 unresolvable query, 400 invalid targets,
    /// 504 deadline expired before planning, 501 write in coordinator mode,
    /// 500 a panicked batch.
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::Overloaded { .. } => 503,
            ServiceError::TenantQuotaExceeded { .. } => 429,
            ServiceError::Rejected(_) => 422,
            ServiceError::InvalidTargets { .. } => 400,
            ServiceError::DeadlineExceeded { .. } => 504,
            ServiceError::ShuttingDown => 503,
            ServiceError::RemoteWriteUnsupported => 501,
            ServiceError::Internal => 500,
        }
    }

    /// Legacy alias of [`Self::code`] (the pre-v2 field name).
    pub fn kind(&self) -> &'static str {
        self.code()
    }

    /// Encodes as `{"error": {"code": .., "kind": .., "message": ..}}`
    /// (`kind` duplicates `code` for v1 clients).
    pub fn to_json(&self) -> Value {
        let code = Value::String(self.code().to_string());
        let error = object(vec![
            ("code", code.clone()),
            ("kind", code),
            ("message", Value::String(self.to_string())),
        ]);
        object(vec![("error", error)])
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { capacity } => {
                write!(f, "admission queue full ({capacity} requests); retry later")
            }
            ServiceError::TenantQuotaExceeded { tenant, quota } => write!(
                f,
                "tenant {tenant:?} queue quota full ({quota} requests); retry later"
            ),
            ServiceError::Rejected(e) => write!(f, "query cannot be planned: {e}"),
            ServiceError::InvalidTargets {
                error_bound,
                confidence,
                deadline_ms,
            } => {
                write!(
                    f,
                    "invalid targets: error_bound {error_bound} (want > 0), \
                     confidence {confidence} (want in (0, 1))"
                )?;
                if let Some(d) = deadline_ms {
                    write!(f, ", deadline_ms {d} (want > 0)")?;
                }
                Ok(())
            }
            ServiceError::DeadlineExceeded { deadline_ms } => write!(
                f,
                "deadline of {deadline_ms} ms expired before planning completed; \
                 no estimate is available"
            ),
            ServiceError::ShuttingDown => f.write_str("service is shutting down"),
            ServiceError::RemoteWriteUnsupported => f.write_str(
                "writes are not supported in remote shard mode; \
                 apply writes to the shard fleet's source graph and restart",
            ),
            ServiceError::Internal => {
                f.write_str("internal error: the batch answering this request panicked")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_query::{AggregateFunction, SimpleQuery};

    fn request() -> QueryRequest {
        QueryRequest::new(
            AggregateQuery::simple(
                SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
                AggregateFunction::Count,
            ),
            0.05,
            0.95,
        )
    }

    /// The legacy flat (v1) body of `r`, as an old client sends it.
    fn flat_body(r: &QueryRequest) -> Value {
        let query = serde_json::to_string(&r.query.to_json()).unwrap();
        let (error_bound, confidence) = (r.error_bound, r.confidence);
        let text = format!(
            r#"{{"query": {query}, "error_bound": {error_bound}, "confidence": {confidence}}}"#
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn v2_request_round_trips() {
        let r = request()
            .with_deadline_ms(50.0)
            .with_tenant("acme")
            .with_request_id("req-1234")
            .with_trace();
        let back = QueryRequest::from_json(&r.to_json(), (0.01, 0.9)).unwrap();
        assert_eq!(back.query, r.query);
        assert_eq!(back.error_bound, 0.05);
        assert_eq!(back.confidence, 0.95);
        assert_eq!(back.deadline_ms, Some(50.0));
        assert_eq!(back.tenant, "acme");
        assert_eq!(back.request_id.as_deref(), Some("req-1234"));
        assert!(back.trace);

        // Absent request_id/trace decode to their defaults.
        let plain = QueryRequest::from_json(&request().to_json(), (0.01, 0.9)).unwrap();
        assert_eq!(plain.request_id, None);
        assert!(!plain.trace);
    }

    #[test]
    fn malformed_request_id_and_trace_name_their_paths() {
        let mut json = request().to_json();
        if let Value::Object(map) = &mut json {
            map.insert("request_id".to_string(), Value::Number(7.0));
        }
        let err = QueryRequest::from_json(&json, (0.01, 0.9)).unwrap_err();
        assert_eq!(err.path, "request.request_id");

        let mut json = request().to_json();
        if let Value::Object(map) = &mut json {
            map.insert("trace".to_string(), Value::String("yes".to_string()));
        }
        let err = QueryRequest::from_json(&json, (0.01, 0.9)).unwrap_err();
        assert_eq!(err.path, "request.trace");

        // A flat body is decoded as its v2 upgrade, so a malformed flat
        // target names the nested path.
        let mut json = flat_body(&request());
        if let Value::Object(map) = &mut json {
            map.insert(
                "error_bound".to_string(),
                Value::String("tight".to_string()),
            );
        }
        let err = QueryRequest::from_json(&json, (0.01, 0.9)).unwrap_err();
        assert_eq!(err.path, "request.targets.error_bound");
    }

    #[test]
    fn v1_request_round_trips_and_canonicalises() {
        let r = request();
        let back = QueryRequest::from_json(&flat_body(&r), (0.01, 0.9)).unwrap();
        assert_eq!(back.query, r.query);
        assert_eq!(back.error_bound, 0.05);
        assert_eq!(back.confidence, 0.95);
        assert_eq!(back.deadline_ms, None);
        assert_eq!(back.tenant, DEFAULT_TENANT);
    }

    #[test]
    fn absent_targets_use_defaults() {
        // v1: flat fields removed.
        let mut json = flat_body(&request());
        if let Value::Object(map) = &mut json {
            map.remove("error_bound");
            map.remove("confidence");
        }
        let back = QueryRequest::from_json(&json, (0.02, 0.9)).unwrap();
        assert_eq!(back.error_bound, 0.02);
        assert_eq!(back.confidence, 0.9);

        // v2: the whole targets object removed.
        let mut json = request().to_json();
        if let Value::Object(map) = &mut json {
            map.remove("targets");
        }
        let back = QueryRequest::from_json(&json, (0.02, 0.9)).unwrap();
        assert_eq!(back.error_bound, 0.02);
        assert_eq!(back.confidence, 0.9);
    }

    #[test]
    fn wire_field_names_are_pinned_for_both_shapes() {
        // These literal key strings are the wire contract; renaming any of
        // them breaks deployed clients.
        let r = request().with_deadline_ms(75.0).with_tenant("acme");
        let v2 = r.to_json();
        assert_eq!(v2["v"].as_f64(), Some(2.0));
        assert!(matches!(v2.get("query"), Some(Value::Object(_))));
        assert_eq!(v2["targets"]["error_bound"].as_f64(), Some(0.05));
        assert_eq!(v2["targets"]["confidence"].as_f64(), Some(0.95));
        assert_eq!(v2["deadline_ms"].as_f64(), Some(75.0));
        assert_eq!(v2["tenant"].as_str(), Some("acme"));

        let v1 = flat_body(&r);
        assert!(v1.get("v").is_none(), "v1 bodies carry no version tag");
        assert!(matches!(v1.get("query"), Some(Value::Object(_))));
        assert_eq!(v1["error_bound"].as_f64(), Some(0.05));
        assert_eq!(v1["confidence"].as_f64(), Some(0.95));
        assert!(v1.get("deadline_ms").is_none());
        assert!(v1.get("tenant").is_none());
    }

    #[test]
    fn both_wire_shapes_canonicalise_to_the_same_cache_key() {
        let r = request();
        let from_v1 = QueryRequest::from_json(&flat_body(&r), (0.05, 0.95)).unwrap();
        let from_v2 = QueryRequest::from_json(&r.to_json(), (0.05, 0.95)).unwrap();
        assert_eq!(
            from_v1.query.canonical_key(),
            from_v2.query.canonical_key(),
            "wire version must not leak into cache keys"
        );
        // Deadline and tenant are scheduling metadata, not identity: they
        // must not perturb the key either.
        let scheduled = QueryRequest::from_json(&flat_body(&r), (0.05, 0.95))
            .unwrap()
            .with_deadline_ms(10.0)
            .with_tenant("acme")
            .with_request_id("req-aaaa")
            .with_trace();
        assert_eq!(
            scheduled.query.canonical_key(),
            from_v1.query.canonical_key(),
            "request_id/trace are observability metadata, not identity"
        );
    }

    #[test]
    fn unsupported_version_is_a_wire_error() {
        let mut json = request().to_json();
        if let Value::Object(map) = &mut json {
            map.insert("v".to_string(), Value::Number(3.0));
        }
        let err = QueryRequest::from_json(&json, (0.01, 0.9)).unwrap_err();
        assert_eq!(err.path, "request.v");
    }

    #[test]
    fn target_validation() {
        let mut r = request();
        assert!(r.targets_valid());
        r.error_bound = 0.0;
        assert!(!r.targets_valid());
        r.error_bound = 0.05;
        r.confidence = 1.0;
        assert!(!r.targets_valid());
        r.confidence = 0.95;
        r.deadline_ms = Some(0.0);
        assert!(!r.targets_valid());
        r.deadline_ms = Some(25.0);
        assert!(r.targets_valid());
    }

    #[test]
    fn write_request_round_trips_and_rejects_malformed_ops() {
        let w = WriteRequest::new(vec![
            WriteOp::UpsertEntity {
                name: "Volkswagen".into(),
                types: vec!["Company".into()],
            },
            WriteOp::UpsertEdge {
                subject: "Volkswagen".into(),
                predicate: "owns".into(),
                object: "Audi_TT".into(),
            },
            WriteOp::DeleteEdge {
                subject: "Germany".into(),
                predicate: "product".into(),
                object: "BMW_320".into(),
            },
        ])
        .with_compact();
        let json = w.to_json();
        assert_eq!(json["v"].as_f64(), Some(2.0));
        assert_eq!(json["ops"][0]["op"].as_str(), Some("upsert_entity"));
        assert_eq!(json["ops"][1]["op"].as_str(), Some("upsert_edge"));
        assert_eq!(json["ops"][2]["op"].as_str(), Some("delete_edge"));
        assert_eq!(json["compact"].as_bool(), Some(true));
        let back = WriteRequest::from_json(&json).unwrap();
        assert_eq!(back, w);

        // `v` absent and `compact` absent are accepted.
        let minimal: Value =
            serde_json::from_str(r#"{"ops": [{"op": "upsert_entity", "name": "X"}]}"#).unwrap();
        let back = WriteRequest::from_json(&minimal).unwrap();
        assert!(!back.compact);
        assert_eq!(
            back.ops,
            vec![WriteOp::UpsertEntity {
                name: "X".into(),
                types: vec![]
            }]
        );

        // Malformed bodies name the offending path.
        let missing_ops: Value = serde_json::from_str(r#"{"compact": true}"#).unwrap();
        assert_eq!(
            WriteRequest::from_json(&missing_ops).unwrap_err().path,
            "write.ops"
        );
        let bad_op: Value = serde_json::from_str(r#"{"ops": [{"op": "truncate_graph"}]}"#).unwrap();
        assert_eq!(
            WriteRequest::from_json(&bad_op).unwrap_err().path,
            "write.ops[0].op"
        );
        let missing_field: Value =
            serde_json::from_str(r#"{"ops": [{"op": "upsert_edge", "subject": "a"}]}"#).unwrap();
        assert_eq!(
            WriteRequest::from_json(&missing_field).unwrap_err().path,
            "write.ops[0].predicate"
        );
        let bad_version: Value = serde_json::from_str(r#"{"v": 3, "ops": []}"#).unwrap();
        assert_eq!(
            WriteRequest::from_json(&bad_version).unwrap_err().path,
            "write.v"
        );
    }

    #[test]
    fn write_outcome_wire_fields_are_pinned() {
        let outcome = WriteOutcome {
            applied: 3,
            edges_deleted: 1,
            compacted: true,
            delta_ops: 0,
            evicted_answers: 2,
            epoch: 7,
        };
        let json = outcome.to_json();
        assert_eq!(json["applied"].as_f64(), Some(3.0));
        assert_eq!(json["edges_deleted"].as_f64(), Some(1.0));
        assert_eq!(json["compacted"].as_bool(), Some(true));
        assert_eq!(json["delta_ops"].as_f64(), Some(0.0));
        assert_eq!(json["evicted_answers"].as_f64(), Some(2.0));
        assert!(json.get("evicted_samplers").is_none());
        assert_eq!(json["epoch"].as_f64(), Some(7.0));
    }

    #[test]
    fn errors_have_stable_codes() {
        assert_eq!(
            ServiceError::Overloaded { capacity: 4 }.code(),
            "overloaded"
        );
        let e = ServiceError::Rejected(Arc::new(KgError::UnknownPredicate("made_of".into())));
        assert_eq!(e.code(), "unresolvable_query");
        assert_eq!(e.kind(), e.code());
        let json = e.to_json();
        assert_eq!(json["error"]["code"].as_str(), Some("unresolvable_query"));
        assert_eq!(json["error"]["kind"].as_str(), Some("unresolvable_query"));
        assert!(json["error"]["message"]
            .as_str()
            .unwrap()
            .contains("made_of"));
    }
}
