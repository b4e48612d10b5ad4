//! Binary-snapshot serialization of prepared samplers, and the bundle API
//! that ties the graph, similarity and sampler sections into one file.
//!
//! Preparing a sampler is the expensive part of answering a query — BFS
//! scope, one weighing pass for the closed-form π of Eq. 6, alias-table
//! build. A snapshot stores the *results* of that work (stationary
//! distribution, answer probabilities and the alias table, all as exact
//! `f64` bit patterns), so a snapshot-booted service starts with a warm
//! [`SamplerCache`] and never re-prepares: the first query after a cold
//! start draws from the same table, bit for bit, as the service that wrote
//! the snapshot. Format v3 dropped the iteration settings and counts of
//! the power iteration π used to come from; a v2 file's π is refused with
//! the version-skew error.
//!
//! Section kind: [`kg_core::snapshot::section_kind::SAMPLERS`] (101).
//! Layout (all little-endian, inside the checksummed section payload):
//!
//! ```text
//! u32 strategy tag     0=semantic-aware 1=CNARW 2=Node2Vec 3=uniform
//! u64 p bits, q bits   Node2Vec parameters (zero for other strategies)
//! u32 n_bound          sampler configuration ...
//! u64 self-loop bits
//! u64 entry count
//! per entry (sorted by key — deterministic bytes):
//!   key        u32 specific, u32 predicate, u32 k, k × u32 type id
//!   scope      u32 start, u32 radius, u64 n, n × (u32 node, u32 dist)
//!   stationary u64 n, n × (u32 node, u64 π bits), sorted by node
//!   answers    u64 n, n × (u32 entity, u64 π' bits), in draw order
//!   table      u32 present, [u64 n, n × u64 cumulative bits, n × u32 cut]
//!   u64 transition entries
//! ```

use crate::alias::AliasTable;
use crate::cache::SamplerKey;
use crate::sampler::{PreparedSampler, SampledAnswer, SamplerConfig};
use crate::strategies::SamplingStrategy;
use crate::SamplerCache;
use kg_core::snapshot::{
    put_u32, put_u64, section_kind, snapshot_error, write_snapshot_file, SectionReader, Snapshot,
    SnapshotWriter,
};
use kg_core::{BoundedSubgraph, EntityId, KgResult, KnowledgeGraph, PredicateId, TypeId};
use kg_embed::PredicateVectorStore;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

const SECTION: &str = "samplers";

fn strategy_tag(strategy: SamplingStrategy) -> (u32, f64, f64) {
    match strategy {
        SamplingStrategy::SemanticAware => (0, 0.0, 0.0),
        SamplingStrategy::Cnarw => (1, 0.0, 0.0),
        SamplingStrategy::Node2Vec { p, q } => (2, p, q),
        SamplingStrategy::Uniform => (3, 0.0, 0.0),
    }
}

fn strategy_from_tag(tag: u32, p: f64, q: f64) -> KgResult<SamplingStrategy> {
    let strategy = match tag {
        0 => SamplingStrategy::SemanticAware,
        1 => SamplingStrategy::Cnarw,
        2 => SamplingStrategy::Node2Vec { p, q },
        3 => SamplingStrategy::Uniform,
        other => {
            return Err(snapshot_error(
                SECTION,
                format!("unknown sampling-strategy tag {other}"),
            ))
        }
    };
    // Non-Node2Vec strategies write canonical zero parameters; anything
    // else is a non-canonical encoding we refuse rather than ignore.
    if tag != 2 && (p.to_bits() != 0 || q.to_bits() != 0) {
        return Err(snapshot_error(
            SECTION,
            "non-zero Node2Vec parameters on a non-Node2Vec strategy",
        ));
    }
    Ok(strategy)
}

/// Encodes every prepared entry of `cache` (sorted by key) plus the
/// strategy and configuration they were prepared under.
pub fn encode_samplers(cache: &SamplerCache) -> Vec<u8> {
    let mut out = Vec::new();
    let (tag, p, q) = strategy_tag(cache.strategy());
    put_u32(&mut out, tag);
    put_u64(&mut out, p.to_bits());
    put_u64(&mut out, q.to_bits());
    let config = cache.config();
    put_u32(&mut out, config.n_bound);
    put_u64(&mut out, config.self_loop_weight.to_bits());

    let entries = cache.export_entries();
    put_u64(&mut out, entries.len() as u64);
    for (key, sampler) in entries {
        put_u32(&mut out, key.specific.raw());
        put_u32(&mut out, key.predicate.raw());
        put_u32(&mut out, key.target_types.len() as u32);
        for t in &key.target_types {
            put_u32(&mut out, t.raw());
        }

        let scope = sampler.scope();
        put_u32(&mut out, scope.start.raw());
        put_u32(&mut out, scope.radius);
        let nodes = scope.sorted_distances();
        put_u64(&mut out, nodes.len() as u64);
        for (node, dist) in nodes {
            put_u32(&mut out, node.raw());
            put_u32(&mut out, dist);
        }

        let mut stationary: Vec<(EntityId, f64)> =
            sampler.stationary.iter().map(|(&n, &pi)| (n, pi)).collect();
        stationary.sort_unstable_by_key(|&(n, _)| n);
        put_u64(&mut out, stationary.len() as u64);
        for (node, pi) in stationary {
            put_u32(&mut out, node.raw());
            put_u64(&mut out, pi.to_bits());
        }

        put_u64(&mut out, sampler.answers.len() as u64);
        for a in &sampler.answers {
            put_u32(&mut out, a.entity.raw());
            put_u64(&mut out, a.probability.to_bits());
        }

        match &sampler.table {
            None => put_u32(&mut out, 0),
            Some(table) => {
                put_u32(&mut out, 1);
                let cumulative = table.cumulative();
                put_u64(&mut out, cumulative.len() as u64);
                for &c in cumulative {
                    put_u64(&mut out, c.to_bits());
                }
                for &b in table.bucket_first() {
                    put_u32(&mut out, b);
                }
            }
        }

        put_u64(&mut out, sampler.transition_entries as u64);
    }
    out
}

/// Decodes a section written by [`encode_samplers`] into a pre-populated
/// cache, validating every id against `graph` and every probability for
/// finiteness. Fails closed: a corrupt or inconsistent section yields a
/// structured error naming the `samplers` section, never a partially
/// filled cache.
pub fn decode_samplers(bytes: &[u8], graph: &KnowledgeGraph) -> KgResult<SamplerCache> {
    let mut c = SectionReader::new(bytes, SECTION);
    let tag = c.u32()?;
    let p = f64::from_bits(c.u64()?);
    let q = f64::from_bits(c.u64()?);
    let strategy = strategy_from_tag(tag, p, q)?;
    let config = SamplerConfig {
        n_bound: c.u32()?,
        self_loop_weight: f64::from_bits(c.u64()?),
    };
    let cache = SamplerCache::new(strategy, config);

    let n_entities = graph.entity_count();
    let n_predicates = graph.predicate_count();
    let n_types = graph.type_count();
    let entity = |raw: u32| -> KgResult<EntityId> {
        if (raw as usize) < n_entities {
            Ok(EntityId::new(raw))
        } else {
            Err(snapshot_error(
                SECTION,
                format!("entity id {raw} out of range ({n_entities} entities)"),
            ))
        }
    };

    let entry_count = c.u64()?;
    for _ in 0..entry_count {
        let specific = entity(c.u32()?)?;
        let predicate = c.u32()?;
        if predicate as usize >= n_predicates {
            return Err(snapshot_error(
                SECTION,
                format!("predicate id {predicate} out of range ({n_predicates} predicates)"),
            ));
        }
        let type_count = c.u32()?;
        let mut target_types = Vec::with_capacity(c.count(type_count.into(), 4)?);
        for _ in 0..type_count {
            let t = c.u32()?;
            if t as usize >= n_types {
                return Err(snapshot_error(
                    SECTION,
                    format!("type id {t} out of range ({n_types} types)"),
                ));
            }
            target_types.push(TypeId::new(t));
        }
        let key = SamplerKey {
            specific,
            predicate: PredicateId::new(predicate),
            target_types,
        };

        let start = entity(c.u32()?)?;
        let radius = c.u32()?;
        let scope_len = c.u64()?;
        let mut scope_nodes = Vec::with_capacity(c.count(scope_len, 8)?);
        let mut prev: Option<EntityId> = None;
        for _ in 0..scope_len {
            let node = entity(c.u32()?)?;
            let dist = c.u32()?;
            if prev.is_some_and(|p| node <= p) {
                return Err(snapshot_error(
                    SECTION,
                    "scope nodes not strictly ascending",
                ));
            }
            if dist > radius {
                return Err(snapshot_error(
                    SECTION,
                    format!("scope distance {dist} exceeds radius {radius}"),
                ));
            }
            prev = Some(node);
            scope_nodes.push((node, dist));
        }
        let scope = BoundedSubgraph::from_parts(start, radius, scope_nodes);

        let stationary_len = c.u64()?;
        let mut stationary: HashMap<EntityId, f64> =
            HashMap::with_capacity(c.count(stationary_len, 12)?);
        let mut prev: Option<EntityId> = None;
        for _ in 0..stationary_len {
            let node = entity(c.u32()?)?;
            let pi = f64::from_bits(c.u64()?);
            if prev.is_some_and(|p| node <= p) {
                return Err(snapshot_error(
                    SECTION,
                    "stationary nodes not strictly ascending",
                ));
            }
            if !pi.is_finite() || pi < 0.0 {
                return Err(snapshot_error(
                    SECTION,
                    format!("non-finite or negative stationary probability {pi}"),
                ));
            }
            prev = Some(node);
            stationary.insert(node, pi);
        }

        let answer_len = c.u64()?;
        let mut answers = Vec::with_capacity(c.count(answer_len, 12)?);
        for _ in 0..answer_len {
            let e = entity(c.u32()?)?;
            let probability = f64::from_bits(c.u64()?);
            if !probability.is_finite() || probability < 0.0 {
                return Err(snapshot_error(
                    SECTION,
                    format!("non-finite or negative answer probability {probability}"),
                ));
            }
            answers.push(SampledAnswer {
                entity: e,
                probability,
            });
        }

        let table = match c.u32()? {
            0 => None,
            1 => {
                let len = c.u64()?;
                if len != answers.len() as u64 {
                    return Err(snapshot_error(
                        SECTION,
                        format!(
                            "alias table over {len} weights but {} answers",
                            answers.len()
                        ),
                    ));
                }
                let len = c.count(len, 12)?;
                let mut cumulative = Vec::with_capacity(len);
                for _ in 0..len {
                    cumulative.push(f64::from_bits(c.u64()?));
                }
                let mut bucket_first = Vec::with_capacity(len);
                for _ in 0..len {
                    bucket_first.push(c.u32()?);
                }
                // The stored arrays are re-validated (not rebuilt): a table
                // accepted here draws exactly like the serialized original.
                Some(
                    AliasTable::from_parts(cumulative, bucket_first).map_err(|e| {
                        snapshot_error(SECTION, format!("stored alias table invalid: {e}"))
                    })?,
                )
            }
            other => {
                return Err(snapshot_error(
                    SECTION,
                    format!("alias-table presence flag {other} is not 0/1"),
                ))
            }
        };
        // `prepare` builds a table iff the answer set is non-empty; a
        // snapshot claiming otherwise did not come from a valid writer.
        if table.is_some() == answers.is_empty() {
            return Err(snapshot_error(
                SECTION,
                "alias-table presence inconsistent with answer count",
            ));
        }

        let transition_entries = c.u64()? as usize;
        cache.insert_prepared(
            key,
            Arc::new(PreparedSampler {
                scope,
                stationary,
                answers,
                table,
                transition_entries,
            }),
        );
    }
    c.expect_done()?;
    Ok(cache)
}

// ---------------------------------------------------------------------
// Bundle: graph + similarity + samplers in one snapshot file
// ---------------------------------------------------------------------

/// Everything a service boot needs, decoded from one snapshot file: the
/// graph itself plus the optional similarity store (section 100) and the
/// optional pre-populated sampler cache (section 101).
#[derive(Debug)]
pub struct SnapshotBundle {
    /// The knowledge graph, byte-identical to the writer's.
    pub graph: KnowledgeGraph,
    /// The predicate similarity store, when the writer included one.
    pub similarity: Option<PredicateVectorStore>,
    /// The warm sampler cache, when the writer included one.
    pub samplers: Option<SamplerCache>,
    /// Format version of the file (always
    /// [`kg_core::snapshot::FORMAT_VERSION`] once decoded).
    pub version: u32,
}

/// Builds the full snapshot writer: graph sections plus the optional
/// similarity and sampler sections.
pub fn bundle_writer(
    graph: &KnowledgeGraph,
    similarity: Option<&PredicateVectorStore>,
    samplers: Option<&SamplerCache>,
) -> KgResult<SnapshotWriter> {
    let mut writer = graph.snapshot_writer()?;
    if let Some(store) = similarity {
        writer.add_section(section_kind::SIMILARITY, store.to_snapshot_section());
    }
    if let Some(cache) = samplers {
        writer.add_section(section_kind::SAMPLERS, encode_samplers(cache));
    }
    Ok(writer)
}

/// Serializes a full bundle to bytes.
pub fn bundle_bytes(
    graph: &KnowledgeGraph,
    similarity: Option<&PredicateVectorStore>,
    samplers: Option<&SamplerCache>,
) -> KgResult<Vec<u8>> {
    Ok(bundle_writer(graph, similarity, samplers)?.finish())
}

/// Writes a full bundle to `path` (atomic: tmp sibling + rename).
pub fn write_bundle(
    path: impl AsRef<Path>,
    graph: &KnowledgeGraph,
    similarity: Option<&PredicateVectorStore>,
    samplers: Option<&SamplerCache>,
) -> KgResult<()> {
    let bytes = bundle_bytes(graph, similarity, samplers)?;
    write_snapshot_file(path.as_ref(), &bytes)
}

/// Decodes a validated snapshot into a bundle. The graph loads first (the
/// sampler section validates its ids against it).
pub fn bundle_from_snapshot(snap: &Snapshot) -> KgResult<SnapshotBundle> {
    let graph = KnowledgeGraph::from_snapshot(snap)?;
    let similarity = snap
        .section(section_kind::SIMILARITY)
        .map(PredicateVectorStore::from_snapshot_section)
        .transpose()?;
    let samplers = snap
        .section(section_kind::SAMPLERS)
        .map(|bytes| decode_samplers(bytes, &graph))
        .transpose()?;
    Ok(SnapshotBundle {
        graph,
        similarity,
        samplers,
        version: snap.version(),
    })
}

/// Opens and fully decodes a bundle from a snapshot file.
pub fn open_bundle(path: impl AsRef<Path>) -> KgResult<SnapshotBundle> {
    let snap = Snapshot::open(path)?;
    bundle_from_snapshot(&snap)
}

/// One structured JSON line describing a snapshot boot failure: the path
/// that was opened and the section-level cause (`"open"` for filesystem
/// errors — missing or unreadable path — otherwise the failing snapshot
/// section). Server binaries print exactly this line to stderr before
/// exiting, so operators and supervisors get a machine-parseable reason
/// instead of a stack trace or a bare I/O message.
pub fn snapshot_boot_error(path: &str, err: &kg_core::KgError) -> String {
    let (section, cause) = match err {
        kg_core::KgError::Snapshot { section, message } => (section.clone(), message.clone()),
        kg_core::KgError::Io(e) => ("open".to_string(), e.to_string()),
        other => ("decode".to_string(), other.to_string()),
    };
    let mut line = serde_json::Map::new();
    line.insert(
        "error".to_string(),
        serde_json::Value::String("snapshot_load_failed".to_string()),
    );
    line.insert(
        "path".to_string(),
        serde_json::Value::String(path.to_string()),
    );
    line.insert("section".to_string(), serde_json::Value::String(section));
    line.insert("cause".to_string(), serde_json::Value::String(cause));
    serde_json::to_string(&serde_json::Value::Object(line)).expect("boot error line serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_core::GraphBuilder;
    use kg_embed::oracle::oracle_store;
    use kg_query::SimpleQuery;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn boot_error_line_names_path_and_section() {
        // A missing path is an I/O failure: section "open".
        let err = open_bundle("/no/such/snapshot.kgsnap").unwrap_err();
        let line = snapshot_boot_error("/no/such/snapshot.kgsnap", &err);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["error"].as_str(), Some("snapshot_load_failed"));
        assert_eq!(parsed["path"].as_str(), Some("/no/such/snapshot.kgsnap"));
        assert_eq!(parsed["section"].as_str(), Some("open"));
        assert!(!parsed["cause"].as_str().unwrap().is_empty());
        assert!(!line.contains('\n'), "must be a single line");

        // A validation failure carries the failing snapshot section.
        let err = kg_core::KgError::Snapshot {
            section: "header".to_string(),
            message: "bad magic".to_string(),
        };
        let line = snapshot_boot_error("x.kgsnap", &err);
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["section"].as_str(), Some("header"));
        assert_eq!(parsed["cause"].as_str(), Some("bad magic"));
    }

    fn setup() -> (KnowledgeGraph, PredicateVectorStore, SamplerCache) {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let jp = b.add_entity("Japan", &["Island"]);
        for i in 0..12 {
            let car = b.add_entity(&format!("car{i}"), &["Automobile"]);
            b.add_edge(de, "product", car);
            let ship = b.add_entity(&format!("ship{i}"), &["Ship"]);
            b.add_edge(jp, "builds", ship);
        }
        let g = b.build();
        let store = oracle_store(&[
            (g.predicate_id("product").unwrap(), 0, 1.0),
            (g.predicate_id("builds").unwrap(), 1, 1.0),
        ]);
        let cache = SamplerCache::new(
            SamplingStrategy::SemanticAware,
            crate::SamplerConfig::default(),
        );
        for q in [
            SimpleQuery::new("Germany", &["Country"], "product", &["Automobile"]),
            SimpleQuery::new("Japan", &["Island"], "builds", &["Ship"]),
        ] {
            let resolved = q.resolve(&g).unwrap();
            cache.get_or_prepare(&g, &resolved, &store).unwrap();
        }
        (g, store, cache)
    }

    fn assert_samplers_bitwise_equal(a: &PreparedSampler, b: &PreparedSampler) {
        assert_eq!(a.scope.sorted_distances(), b.scope.sorted_distances());
        assert_eq!(a.scope.start, b.scope.start);
        assert_eq!(a.scope.radius, b.scope.radius);
        let bits = |m: &HashMap<EntityId, f64>| {
            let mut v: Vec<(EntityId, u64)> = m.iter().map(|(&n, &p)| (n, p.to_bits())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(bits(&a.stationary), bits(&b.stationary));
        let answer_bits = |s: &PreparedSampler| {
            s.answers
                .iter()
                .map(|x| (x.entity, x.probability.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(answer_bits(a), answer_bits(b));
        match (&a.table, &b.table) {
            (None, None) => {}
            (Some(ta), Some(tb)) => {
                let cbits = |t: &AliasTable| {
                    t.cumulative()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(cbits(ta), cbits(tb));
                assert_eq!(ta.bucket_first(), tb.bucket_first());
            }
            other => panic!("table presence diverged: {other:?}"),
        }
        assert_eq!(a.transition_entries, b.transition_entries);
    }

    #[test]
    fn bundle_round_trips_samplers_bitwise() {
        let (g, store, cache) = setup();
        let bytes = bundle_bytes(&g, Some(&store), Some(&cache)).unwrap();
        let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
        let bundle = bundle_from_snapshot(&snap).unwrap();
        assert_eq!(bundle.version, kg_core::snapshot::FORMAT_VERSION);

        // The graph re-snapshots to identical bytes (bitwise identity).
        let again = bundle_bytes(
            &bundle.graph,
            bundle.similarity.as_ref(),
            bundle.samplers.as_ref(),
        )
        .unwrap();
        assert_eq!(again, bytes);

        // Every cache entry survived with exact bit patterns.
        let loaded = bundle.samplers.expect("samplers section present");
        assert_eq!(loaded.strategy(), cache.strategy());
        assert_eq!(loaded.len(), cache.len());
        let a = cache.export_entries();
        let b = loaded.export_entries();
        assert_eq!(a.len(), b.len());
        for ((ka, sa), (kb, sb)) in a.iter().zip(&b) {
            assert_eq!(ka, kb);
            assert_samplers_bitwise_equal(sa, sb);
            // Same seed → identical draw sequence from the stored table.
            let mut r1 = SmallRng::seed_from_u64(7);
            let mut r2 = SmallRng::seed_from_u64(7);
            assert_eq!(sa.draw(&mut r1, 64), sb.draw(&mut r2, 64));
        }
    }

    #[test]
    fn bundle_file_round_trip_and_optional_sections() {
        let (g, store, cache) = setup();
        let path =
            std::env::temp_dir().join(format!("kg-sampling-bundle-{}.kgsnap", std::process::id()));
        write_bundle(&path, &g, Some(&store), Some(&cache)).unwrap();
        let bundle = open_bundle(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(bundle.graph.entity_count(), g.entity_count());
        assert_eq!(bundle.samplers.unwrap().len(), cache.len());
        assert_eq!(
            bundle.similarity.unwrap().predicate_count(),
            store.predicate_count()
        );

        // A graph-only snapshot decodes with both extras absent.
        let plain = g.snapshot_bytes().unwrap();
        let bundle = bundle_from_snapshot(&Snapshot::from_bytes(plain).unwrap()).unwrap();
        assert!(bundle.similarity.is_none());
        assert!(bundle.samplers.is_none());
    }

    #[test]
    fn corrupt_sampler_section_fails_closed_with_section_name() {
        let (g, store, cache) = setup();
        let bytes = bundle_bytes(&g, Some(&store), Some(&cache)).unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        let payload = snap.section(section_kind::SAMPLERS).unwrap();

        // Truncation.
        let err = decode_samplers(&payload[..payload.len() - 4], &g).unwrap_err();
        assert!(err.to_string().contains("samplers"), "{err}");

        // Out-of-range entity id in the key.
        let mut bad = payload.to_vec();
        let key_offset = 4 + 8 + 8 + 4 + 8 + 8; // header through entry count
        bad[key_offset..key_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_samplers(&bad, &g).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // Unknown strategy tag.
        let mut bad = payload.to_vec();
        bad[0] = 9;
        let err = decode_samplers(&bad, &g).unwrap_err();
        assert!(err.to_string().contains("strategy"), "{err}");
    }

    /// A checksummed `samplers` section whose first scope declares 2⁴⁰
    /// nodes is a structured error naming the section, not an attempt to
    /// allocate 8 TiB.
    #[test]
    fn hostile_scope_length_fails_closed() {
        let (g, store, cache) = setup();
        let writer = bundle_writer(&g, Some(&store), Some(&cache)).unwrap();
        let snap = Snapshot::from_bytes(writer.finish()).unwrap();
        let mut payload = snap.section(section_kind::SAMPLERS).unwrap().to_vec();
        // Header through entry count, then the key's specific, predicate
        // and type count, its type ids, and the scope's start and radius.
        let key = 4 + 8 + 8 + 4 + 8 + 8;
        let types = u32::from_le_bytes(payload[key + 8..key + 12].try_into().unwrap()) as usize;
        let scope_len = key + 12 + 4 * types + 8;
        payload[scope_len..scope_len + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());

        let mut hostile = SnapshotWriter::new();
        for info in snap.sections() {
            let bytes = match info.kind {
                section_kind::SAMPLERS => payload.clone(),
                kind => snap.section(kind).unwrap().to_vec(),
            };
            hostile.add_section(info.kind, bytes);
        }
        let snap = Snapshot::from_bytes(hostile.finish()).unwrap();
        match bundle_from_snapshot(&snap).unwrap_err() {
            kg_core::KgError::Snapshot { section, message } => {
                assert_eq!(section, "samplers");
                assert!(
                    message.contains("declared 1099511627776 elements"),
                    "{message}"
                );
            }
            other => panic!("expected a structured snapshot error, got {other:?}"),
        }
    }

    #[test]
    fn strategy_tags_round_trip() {
        for strategy in [
            SamplingStrategy::SemanticAware,
            SamplingStrategy::Cnarw,
            SamplingStrategy::Node2Vec { p: 4.0, q: 0.25 },
            SamplingStrategy::Uniform,
        ] {
            let (tag, p, q) = strategy_tag(strategy);
            assert_eq!(strategy_from_tag(tag, p, q).unwrap(), strategy);
        }
        assert!(strategy_from_tag(7, 0.0, 0.0).is_err());
        // Non-canonical parameters on a non-Node2Vec tag are rejected.
        assert!(strategy_from_tag(0, 1.0, 0.0).is_err());
    }
}
