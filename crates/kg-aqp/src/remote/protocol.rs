//! The coordinator ↔ shard-server request/response envelope.
//!
//! Every message travels inside a `kg_core::frame` (magic + codec byte +
//! length prefix) in the one binary codec: a tag byte, then the variant's
//! fields in a fixed order. Decoding fails closed on an unknown tag, a
//! short field or trailing bytes.
//!
//! Responses are pure functions of their requests — the server replays a
//! stratum to the requested `(draws, steps)` point deterministically — so a
//! hedged or retried request returns byte-identical payloads, which is what
//! lets the fleet layer race duplicates without affecting results.

use kg_core::{ByteReader, ByteWriter, Codec, DecodeError};
use kg_sampling::{BucketTerm, StratumReport, StratumTask};

/// A coordinator → shard-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardRequest {
    /// Handshake: verify the server hosts the same graph, partitioning and
    /// engine configuration as the coordinator (fingerprints are FNV-1a
    /// digests; see `fingerprint` helpers in the server module).
    Ping {
        /// Coordinator's graph + partitioning fingerprint.
        graph_fp: u64,
        /// Coordinator's engine-config fingerprint.
        config_fp: u64,
    },
    /// Advance one stratum by one validate+estimate round and return its
    /// [`StratumReport`]. `query` is the canonical JSON encoding of the
    /// `AggregateQuery` (the server plans it locally and deterministically).
    Step {
        /// Canonical query JSON.
        query: String,
        /// Replay point + new round draws for the addressed stratum.
        task: StratumTask,
    },
    /// Replay one stratum to the requested point **without** running a new
    /// estimate round and return its GROUP-BY bucket terms (empty for a
    /// query without GROUP-BY; the bucketing attribute and width come from
    /// the server's own — deterministic, identical — plan).
    Snapshot {
        /// Canonical query JSON.
        query: String,
        /// Replay point for the addressed stratum.
        task: StratumTask,
    },
}

/// A shard-server → coordinator message.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardResponse {
    /// Handshake accepted: the server's own fingerprints.
    Pong {
        /// Server's graph + partitioning fingerprint.
        graph_fp: u64,
        /// Server's engine-config fingerprint.
        config_fp: u64,
        /// Number of shards the server partitioned into.
        shards: usize,
    },
    /// A completed [`ShardRequest::Step`].
    Estimate(StratumReport),
    /// A completed [`ShardRequest::Snapshot`]: per-bucket terms, sorted by
    /// key, only for buckets this stratum contributes to.
    Buckets(Vec<BucketTerm>),
    /// The server could not serve the request (bad query, fingerprint
    /// mismatch, malformed task). Carried as data, not a transport failure,
    /// so the coordinator can distinguish "shard unreachable" from "shard
    /// rejected".
    Error {
        /// Stable machine-readable code (e.g. `bad_request`, `mismatch`).
        code: String,
        /// Human-oriented detail.
        message: String,
    },
}

const REQ_PING: u8 = 0;
const REQ_STEP: u8 = 1;
const REQ_SNAPSHOT: u8 = 2;
const RESP_PONG: u8 = 0;
const RESP_ESTIMATE: u8 = 1;
const RESP_BUCKETS: u8 = 2;
const RESP_ERROR: u8 = 3;

impl ShardRequest {
    /// Encodes into the payload bytes for `codec`.
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let Codec::Binary = codec;
        let mut w = ByteWriter::new();
        match self {
            Self::Ping {
                graph_fp,
                config_fp,
            } => {
                w.put_u8(REQ_PING);
                w.put_u64(*graph_fp);
                w.put_u64(*config_fp);
            }
            Self::Step { query, task } => {
                w.put_u8(REQ_STEP);
                w.put_str(query);
                task.encode(&mut w);
            }
            Self::Snapshot { query, task } => {
                w.put_u8(REQ_SNAPSHOT);
                w.put_str(query);
                task.encode(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Decodes payload bytes in `codec`; errors are structured strings
    /// suitable for a `ShardResponse::Error`.
    pub fn decode(codec: Codec, payload: &[u8]) -> Result<Self, String> {
        let Codec::Binary = codec;
        let mut r = ByteReader::new(payload);
        let decoded = Self::decode_binary(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        Ok(decoded)
    }

    fn decode_binary(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            REQ_PING => Ok(Self::Ping {
                graph_fp: r.u64()?,
                config_fp: r.u64()?,
            }),
            REQ_STEP => Ok(Self::Step {
                query: r.str()?,
                task: StratumTask::decode(r)?,
            }),
            REQ_SNAPSHOT => Ok(Self::Snapshot {
                query: r.str()?,
                task: StratumTask::decode(r)?,
            }),
            tag => Err(DecodeError {
                offset: 0,
                message: format!("unknown request tag {tag}"),
            }),
        }
    }
}

impl ShardResponse {
    /// Encodes into the payload bytes for `codec`.
    pub fn encode(&self, codec: Codec) -> Vec<u8> {
        let Codec::Binary = codec;
        let mut w = ByteWriter::new();
        match self {
            Self::Pong {
                graph_fp,
                config_fp,
                shards,
            } => {
                w.put_u8(RESP_PONG);
                w.put_u64(*graph_fp);
                w.put_u64(*config_fp);
                w.put_u64(*shards as u64);
            }
            Self::Estimate(report) => {
                w.put_u8(RESP_ESTIMATE);
                report.encode(&mut w);
            }
            Self::Buckets(terms) => {
                w.put_u8(RESP_BUCKETS);
                w.put_len(terms.len());
                for term in terms {
                    term.encode(&mut w);
                }
            }
            Self::Error { code, message } => {
                w.put_u8(RESP_ERROR);
                w.put_str(code);
                w.put_str(message);
            }
        }
        w.into_bytes()
    }

    /// Decodes payload bytes in `codec`.
    pub fn decode(codec: Codec, payload: &[u8]) -> Result<Self, String> {
        let Codec::Binary = codec;
        let mut r = ByteReader::new(payload);
        let decoded = Self::decode_binary(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        Ok(decoded)
    }

    fn decode_binary(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            RESP_PONG => Ok(Self::Pong {
                graph_fp: r.u64()?,
                config_fp: r.u64()?,
                shards: r.u64()? as usize,
            }),
            RESP_ESTIMATE => Ok(Self::Estimate(StratumReport::decode(r)?)),
            RESP_BUCKETS => {
                let n = r.len(24, "bucket terms")?;
                let mut terms = Vec::with_capacity(n);
                for _ in 0..n {
                    terms.push(BucketTerm::decode(r)?);
                }
                Ok(Self::Buckets(terms))
            }
            RESP_ERROR => Ok(Self::Error {
                code: r.str()?,
                message: r.str()?,
            }),
            tag => Err(DecodeError {
                offset: 0,
                message: format!("unknown response tag {tag}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<ShardRequest> {
        vec![
            ShardRequest::Ping {
                graph_fp: u64::MAX - 3,
                config_fp: 0x1234_5678_9ABC_DEF0,
            },
            ShardRequest::Step {
                query: "{\"agg\":\"count\"}".to_string(),
                task: StratumTask {
                    shard: 2,
                    draws: vec![64, 0, 31],
                    steps: 2,
                    resamples: 50,
                },
            },
            ShardRequest::Snapshot {
                query: "{}".to_string(),
                task: StratumTask {
                    shard: 0,
                    draws: vec![16],
                    steps: 1,
                    resamples: 2,
                },
            },
        ]
    }

    fn responses() -> Vec<ShardResponse> {
        vec![
            ShardResponse::Pong {
                graph_fp: 1,
                config_fp: u64::MAX,
                shards: 4,
            },
            ShardResponse::Estimate(StratumReport {
                primary: f64::NAN,
                secondary: -0.0,
                replicates: vec![(0.5, 1.5)],
                sample_size: 10,
                correct: 7,
                validate_ms: 0.5,
                bootstrap_ms: 0.25,
            }),
            ShardResponse::Buckets(vec![BucketTerm {
                key: -9,
                primary: 2.5,
                secondary: 0.0,
            }]),
            ShardResponse::Error {
                code: "mismatch".to_string(),
                message: "graph fingerprint differs".to_string(),
            },
        ]
    }

    fn assert_response_eq(a: &ShardResponse, b: &ShardResponse) {
        // PartialEq on f64 treats NaN != NaN; compare via encoded bytes,
        // which carry floats bitwise.
        assert_eq!(a.encode(Codec::Binary), b.encode(Codec::Binary));
    }

    #[test]
    fn requests_round_trip_both_codecs() {
        for req in requests() {
            let bytes = req.encode(Codec::Binary);
            assert_eq!(ShardRequest::decode(Codec::Binary, &bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip_both_codecs() {
        for resp in responses() {
            let bytes = resp.encode(Codec::Binary);
            let decoded = ShardResponse::decode(Codec::Binary, &bytes).unwrap();
            assert_response_eq(&decoded, &resp);
        }
    }

    #[test]
    fn garbage_payloads_are_structured_errors() {
        assert!(ShardRequest::decode(Codec::Binary, b"\xFF\xFE\x00garbage").is_err());
        assert!(ShardResponse::decode(Codec::Binary, b"").is_err());
        // Unknown binary tag.
        assert!(ShardRequest::decode(Codec::Binary, &[9]).is_err());
        // Trailing bytes after a valid binary message are rejected.
        let mut bytes = requests()[0].encode(Codec::Binary);
        bytes.push(0);
        assert!(ShardRequest::decode(Codec::Binary, &bytes).is_err());
    }
}
