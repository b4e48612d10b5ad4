//! Graph snapshots: a versioned, checksummed on-disk format for
//! millisecond cold starts.
//!
//! Every `kg-serve` replica used to redo the whole build pipeline on boot:
//! re-parse triples, re-intern four vocabularies, re-run the counting sort
//! into CSR. A snapshot stores the graph once — the interned string pools
//! in id order, the attribute stores and the triple log — plus, via an
//! extension section owned by `kg-embed`, the predicate-similarity store.
//! Loading is a bounds / checksum / layout validation, a linear decode of
//! little-endian records, and the counting sort [`GraphBuilder::build`]
//! runs, over the triple log, to rebuild the CSR adjacency. No re-parse;
//! the adjacency is not stored, so it cannot disagree with the triples it
//! is derived from.
//!
//! [`GraphBuilder::build`]: crate::GraphBuilder::build
//!
//! # File layout (format version 4)
//!
//! ```text
//! offset 0    ┌──────────────────────────────────────────────┐
//!             │ header (64 B): magic "KGSNAP\r\n", version,  │
//!             │ flags (reserved, 0), section count, TOC      │
//!             │ offset, file length, TOC crc64, header crc64 │
//! offset 64   ├──────────────────────────────────────────────┤
//!             │ TOC: one 32 B entry per section              │
//!             │   (kind, payload offset, length, crc64)      │
//!             ├──────────── 64-byte aligned ─────────────────┤
//!             │ section payloads, each zero-padded to the    │
//!             │ next 64-byte boundary                        │
//!             └──────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian. Section payloads are individually
//! checksummed (CRC-64/XZ) and start on 64-byte boundaries. The core
//! sections are meta, the four string pools, the per-entity type and
//! attribute lists, and the triple log (12 B per triple, insertion order).
//! The header `flags` word is reserved: writers write 0 and readers reject
//! anything else.
//!
//! # Fail-closed validation
//!
//! A truncated, corrupted or version-skewed file is rejected with a
//! structured [`KgError::Snapshot`] naming the failing section — never UB,
//! never a panic. Validation layers: magic → header checksum → version →
//! flags → file length → TOC checksum → per-section kind (one this format
//! defines)/bounds/alignment/checksum → per-section structural decode (ids
//! in range, every declared count backed by the bytes present before it
//! sizes an allocation, string pools well-formed). Only the sections a reader touches are decoded, but
//! [`Snapshot::open`] always verifies every checksum up front.
//!
//! # Version-skew policy
//!
//! The format version is a single `u32`. A reader accepts exactly
//! [`FORMAT_VERSION`]; anything else — older or newer — is a structured
//! error telling the operator to rebuild the snapshot with the matching
//! `kg-snap`. There is no cross-version migration: snapshots are derived
//! artifacts, cheap to regenerate from the source of truth. v1 stored the
//! CSR beside the triples, v2 carried prepared samplers whose π came from
//! the retired power iteration, and v3 carried a prepared-sampler section
//! (kind 101), which v4 no longer has.

use crate::builder::build_csr;
use crate::entity::Entity;
use crate::error::{KgError, KgResult};
use crate::graph::KnowledgeGraph;
use crate::ids::{AttrId, EntityId, PredicateId, TypeId};
use crate::index::{NameIndex, TypeIndex};
use crate::interner::StringInterner;
use crate::predicate::PredicateVocabulary;
use crate::triple::Triple;
use std::io::Write;
use std::path::Path;

/// The snapshot format version this build reads and writes (v4: the graph
/// and its similarity store, without the v3 prepared-sampler section).
pub const FORMAT_VERSION: u32 = 4;

/// Section payloads (and the first payload after the TOC) start on
/// multiples of this, so every section begins on a cache-line boundary.
pub const SECTION_ALIGN: usize = 64;

/// Magic bytes at offset 0. The `\r\n` catches text-mode mangling the same
/// way the PNG magic does.
pub const MAGIC: [u8; 8] = *b"KGSNAP\r\n";

const HEADER_LEN: usize = 64;
const TOC_ENTRY_LEN: usize = 32;

/// Well-known section kinds. Kinds below 100 are owned by `kg-core`;
/// 100–199 are reserved for extension sections written by downstream
/// crates (today only the similarity store).
pub mod section_kind {
    /// Scalar counts every other section is validated against.
    pub const META: u32 = 1;
    /// Entity names, in entity-id order.
    pub const ENTITY_NAMES: u32 = 2;
    /// Type vocabulary, in type-id (interning) order.
    pub const TYPE_NAMES: u32 = 3;
    /// Predicate vocabulary, in predicate-id (interning) order.
    pub const PREDICATE_NAMES: u32 = 4;
    /// Attribute-name vocabulary, in attr-id (interning) order.
    pub const ATTR_NAMES: u32 = 5;
    /// Per-entity type-id lists (count array + flat ids).
    pub const ENTITY_TYPES: u32 = 6;
    /// Per-entity attribute sets (count array + flat `(id, f64 bits)`).
    pub const ENTITY_ATTRS: u32 = 7;
    /// The triple log, 12 B per triple, insertion order. The CSR
    /// adjacency is rebuilt from it on load.
    pub const TRIPLES: u32 = 8;
    /// Predicate similarity store (written by `kg-embed`).
    pub const SIMILARITY: u32 = 100;

    /// Human-readable section name, used in error messages and by
    /// `kg-snap inspect`/`verify`; `"unknown"` for a kind this format does
    /// not define, which [`super::Snapshot::from_bytes`] refuses.
    pub fn name(kind: u32) -> &'static str {
        match kind {
            META => "meta",
            ENTITY_NAMES => "entity_names",
            TYPE_NAMES => "type_names",
            PREDICATE_NAMES => "predicate_names",
            ATTR_NAMES => "attr_names",
            ENTITY_TYPES => "entity_types",
            ENTITY_ATTRS => "entity_attrs",
            TRIPLES => "triples",
            SIMILARITY => "similarity",
            _ => "unknown",
        }
    }
}

// ---------------------------------------------------------------------
// CRC-64/XZ (ECMA-182 polynomial, reflected), slice-by-8. Checksum
// validation runs over every byte of a snapshot at load, so the byte-at-
// a-time table (~3 ns/byte) would dominate cold start on multi-megabyte
// files; eight tables bring it under 1 ns/byte.
// ---------------------------------------------------------------------

const fn crc64_tables() -> [[u64; 256]; 8] {
    // Reflected ECMA-182 polynomial.
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// CRC-64/XZ of `bytes` — the per-section checksum of the format.
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = !0u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = crc ^ u64::from_le_bytes(chunk.try_into().unwrap());
        crc = t[7][(v & 0xFF) as usize]
            ^ t[6][((v >> 8) & 0xFF) as usize]
            ^ t[5][((v >> 16) & 0xFF) as usize]
            ^ t[4][((v >> 24) & 0xFF) as usize]
            ^ t[3][((v >> 32) & 0xFF) as usize]
            ^ t[2][((v >> 40) & 0xFF) as usize]
            ^ t[1][((v >> 48) & 0xFF) as usize]
            ^ t[0][((v >> 56) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Builds the structured snapshot error every validation path uses; public
/// so extension-section codecs report failures in the same shape.
pub fn snapshot_error(section: &str, message: impl Into<String>) -> KgError {
    KgError::Snapshot {
        section: section.to_owned(),
        message: message.into(),
    }
}

use snapshot_error as err;

// ---------------------------------------------------------------------
// Little-endian primitives
// ---------------------------------------------------------------------

/// Appends a little-endian `u32` to a section payload under construction.
/// Public so extension-section writers (`kg-embed`, `kg-sampling`) share
/// the exact encoding of the core sections.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64` to a section payload under construction.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor over a section payload. Every
/// read is fallible so a structurally corrupt payload (valid checksum,
/// nonsense content) degrades to a structured [`KgError::Snapshot`], never
/// a panic. Extension crates use it to decode their own sections with the
/// same fail-closed discipline as the core sections.
pub struct SectionReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> SectionReader<'a> {
    /// A reader positioned at the start of `bytes`; `section` names the
    /// section in error messages.
    pub fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            section,
        }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> KgResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(err(
                self.section,
                format!(
                    "payload truncated: needed {n} bytes at offset {}, section is {} bytes",
                    self.pos,
                    self.bytes.len()
                ),
            )),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> KgResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> KgResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Checks a file-declared element count against the bytes not yet
    /// consumed — `count` elements of at least `min_elem_bytes` each must
    /// fit — and returns it as a `usize`. Every count that sizes an
    /// allocation goes through here first, so a hostile count is a
    /// structured error, never an allocation of the declared size.
    pub fn count(&self, count: u64, min_elem_bytes: usize) -> KgResult<usize> {
        let remaining = self.bytes.len() - self.pos;
        let need = count.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > remaining as u64 {
            return Err(err(
                self.section,
                format!(
                    "declared {count} elements (≥ {need} bytes) at offset {}, \
                     but only {remaining} bytes remain",
                    self.pos
                ),
            ));
        }
        Ok(count as usize)
    }

    /// True when the cursor has consumed the whole payload.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Fails when bytes remain past the decoded content.
    pub fn expect_done(&self) -> KgResult<()> {
        if self.done() {
            Ok(())
        } else {
            Err(err(
                self.section,
                format!(
                    "trailing garbage: {} bytes past the end of the encoded content",
                    self.bytes.len() - self.pos
                ),
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Assembles a snapshot image: sections are added as `(kind, payload)`
/// pairs, [`SnapshotWriter::finish`] lays them out 64-byte aligned behind
/// the header + TOC and computes every checksum.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty writer (no sections).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Kinds must be unique within one snapshot.
    pub fn add_section(&mut self, kind: u32, payload: Vec<u8>) {
        debug_assert!(
            !self.sections.iter().any(|(k, _)| *k == kind),
            "duplicate snapshot section kind {kind}"
        );
        self.sections.push((kind, payload));
    }

    /// Produces the final byte image.
    pub fn finish(&self) -> Vec<u8> {
        let toc_offset = HEADER_LEN;
        let toc_len = self.sections.len() * TOC_ENTRY_LEN;
        let mut payload_offset = align_up(toc_offset + toc_len, SECTION_ALIGN);

        // Lay out payload offsets first so the TOC can be written in one go.
        let mut entries = Vec::with_capacity(self.sections.len());
        for (kind, payload) in &self.sections {
            entries.push((*kind, payload_offset as u64, payload.len() as u64));
            payload_offset = align_up(payload_offset + payload.len(), SECTION_ALIGN);
        }
        let file_len = payload_offset;

        let mut toc = Vec::with_capacity(toc_len);
        for ((kind, offset, len), (_, payload)) in entries.iter().zip(&self.sections) {
            put_u32(&mut toc, *kind);
            put_u32(&mut toc, 0); // reserved
            put_u64(&mut toc, *offset);
            put_u64(&mut toc, *len);
            put_u64(&mut toc, crc64(payload));
        }

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u32(&mut header, 0); // flags: reserved
        put_u32(&mut header, self.sections.len() as u32);
        put_u32(&mut header, 0); // reserved
        put_u64(&mut header, toc_offset as u64);
        put_u64(&mut header, file_len as u64);
        put_u64(&mut header, crc64(&toc));
        let header_crc = crc64(&header);
        put_u64(&mut header, header_crc);
        header.resize(HEADER_LEN, 0);

        let mut out = Vec::with_capacity(file_len);
        out.extend_from_slice(&header);
        out.extend_from_slice(&toc);
        for ((_, offset, _), (_, payload)) in entries.iter().zip(&self.sections) {
            out.resize(*offset as usize, 0);
            out.extend_from_slice(payload);
        }
        out.resize(file_len, 0);
        out
    }
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Location and checksum of one section, as recorded in the TOC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section kind (see [`section_kind`]).
    pub kind: u32,
    /// Payload offset from the start of the file (64-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (padding excluded).
    pub len: u64,
    /// CRC-64/XZ of the payload.
    pub checksum: u64,
}

impl SectionInfo {
    /// Human-readable section name.
    pub fn name(&self) -> &'static str {
        section_kind::name(self.kind)
    }
}

/// A validated snapshot image: header, TOC and every section checksum have
/// been verified. Section payloads are borrowed straight out of the image.
#[derive(Debug)]
pub struct Snapshot {
    bytes: Vec<u8>,
    sections: Vec<SectionInfo>,
}

impl Snapshot {
    /// Reads and fully validates a snapshot file.
    pub fn open(path: impl AsRef<Path>) -> KgResult<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Validates a snapshot image held in memory.
    pub fn from_bytes(bytes: Vec<u8>) -> KgResult<Self> {
        if bytes.len() < HEADER_LEN {
            return Err(err(
                "header",
                format!(
                    "file is {} bytes, shorter than the 64-byte header",
                    bytes.len()
                ),
            ));
        }
        if bytes[..8] != MAGIC {
            return Err(err("header", "bad magic: not a kg snapshot file"));
        }
        let stored_header_crc = u64::from_le_bytes(bytes[48..56].try_into().unwrap());
        let computed_header_crc = crc64(&bytes[..48]);
        if stored_header_crc != computed_header_crc {
            return Err(err(
                "header",
                format!(
                    "header checksum mismatch: stored {stored_header_crc:#018x}, \
                     computed {computed_header_crc:#018x}"
                ),
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(err(
                "header",
                format!(
                    "format version skew: file is v{version}, this build reads v{FORMAT_VERSION}; \
                     rebuild the snapshot with the matching kg-snap"
                ),
            ));
        }
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        if flags != 0 {
            return Err(err(
                "header",
                format!("reserved flags word is {flags:#x}, must be 0"),
            ));
        }
        let section_count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        let toc_offset = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let file_len = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
        let toc_crc = u64::from_le_bytes(bytes[40..48].try_into().unwrap());

        if file_len != bytes.len() {
            return Err(err(
                "header",
                format!(
                    "file length mismatch: header says {file_len} bytes, file is {} \
                     (truncated or padded)",
                    bytes.len()
                ),
            ));
        }
        let toc_len = section_count
            .checked_mul(TOC_ENTRY_LEN)
            .ok_or_else(|| err("toc", "section count overflows"))?;
        let toc_end = toc_offset
            .checked_add(toc_len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| {
                err(
                    "toc",
                    format!("table of contents ({section_count} entries) exceeds the file"),
                )
            })?;
        let toc = &bytes[toc_offset..toc_end];
        let computed_toc_crc = crc64(toc);
        if toc_crc != computed_toc_crc {
            return Err(err(
                "toc",
                format!(
                    "toc checksum mismatch: stored {toc_crc:#018x}, \
                     computed {computed_toc_crc:#018x}"
                ),
            ));
        }

        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let e = &toc[i * TOC_ENTRY_LEN..(i + 1) * TOC_ENTRY_LEN];
            let info = SectionInfo {
                kind: u32::from_le_bytes(e[0..4].try_into().unwrap()),
                offset: u64::from_le_bytes(e[8..16].try_into().unwrap()),
                len: u64::from_le_bytes(e[16..24].try_into().unwrap()),
                checksum: u64::from_le_bytes(e[24..32].try_into().unwrap()),
            };
            let name = info.name();
            if name == "unknown" {
                // A section from a foreign or future writer: serving the
                // file as if it were complete would ignore what it holds.
                return Err(err(
                    &format!("kind {}", info.kind),
                    format!(
                        "not defined by format v{FORMAT_VERSION} (written by a foreign or \
                         future writer); rebuild the snapshot with the matching kg-snap"
                    ),
                ));
            }
            if sections.iter().any(|s: &SectionInfo| s.kind == info.kind) {
                return Err(err("toc", format!("duplicate section kind {name:?}")));
            }
            if info.offset as usize % SECTION_ALIGN != 0 {
                return Err(err(
                    name,
                    format!(
                        "misaligned payload: offset {} is not a multiple of {SECTION_ALIGN}",
                        info.offset
                    ),
                ));
            }
            let end = info
                .offset
                .checked_add(info.len)
                .filter(|&e| e as usize <= bytes.len())
                .ok_or_else(|| {
                    err(
                        name,
                        format!(
                            "payload out of bounds: offset {} + len {} exceeds file of {} bytes",
                            info.offset,
                            info.len,
                            bytes.len()
                        ),
                    )
                })?;
            let payload = &bytes[info.offset as usize..end as usize];
            let computed = crc64(payload);
            if computed != info.checksum {
                return Err(err(
                    name,
                    format!(
                        "checksum mismatch: stored {:#018x}, computed {computed:#018x}",
                        info.checksum
                    ),
                ));
            }
            sections.push(info);
        }
        Ok(Self { bytes, sections })
    }

    /// The format version of the file (always [`FORMAT_VERSION`] after a
    /// successful open).
    pub fn version(&self) -> u32 {
        FORMAT_VERSION
    }

    /// The table of contents, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// The payload of a section, if present.
    pub fn section(&self, kind: u32) -> Option<&[u8]> {
        let info = self.sections.iter().find(|s| s.kind == kind)?;
        Some(&self.bytes[info.offset as usize..(info.offset + info.len) as usize])
    }

    /// The payload of a section that must be present.
    fn require(&self, kind: u32) -> KgResult<&[u8]> {
        self.section(kind).ok_or_else(|| {
            err(
                section_kind::name(kind),
                "required section is missing from the snapshot",
            )
        })
    }
}

// ---------------------------------------------------------------------
// Graph section codecs
// ---------------------------------------------------------------------

fn encode_string_pool<'a>(count: usize, strings: impl Iterator<Item = &'a str>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, count as u64);
    let mut written = 0usize;
    for s in strings {
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
        written += 1;
    }
    debug_assert_eq!(written, count, "string pool count drifted");
    out
}

fn decode_string_pool(bytes: &[u8], section: &'static str, expected: u64) -> KgResult<Vec<String>> {
    let mut c = SectionReader::new(bytes, section);
    let count = c.u64()?;
    if count != expected {
        return Err(err(
            section,
            format!("count mismatch: section holds {count} strings, meta says {expected}"),
        ));
    }
    // Each string carries at least its 4-byte length prefix.
    let mut out = Vec::with_capacity(c.count(count, 4)?);
    for _ in 0..count {
        let len = c.u32()? as usize;
        let raw = c.take(len)?;
        let s = std::str::from_utf8(raw)
            .map_err(|e| err(section, format!("invalid utf-8 in string pool: {e}")))?;
        out.push(s.to_owned());
    }
    c.expect_done()?;
    Ok(out)
}

/// Per-graph counts stored in the META section; every other section is
/// validated against them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Meta {
    entities: u64,
    triples: u64,
    types: u64,
    predicates: u64,
    attrs: u64,
}

impl Meta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        for v in [
            self.entities,
            self.triples,
            self.types,
            self.predicates,
            self.attrs,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    fn decode(bytes: &[u8]) -> KgResult<Self> {
        let mut c = SectionReader::new(bytes, "meta");
        let meta = Self {
            entities: c.u64()?,
            triples: c.u64()?,
            types: c.u64()?,
            predicates: c.u64()?,
            attrs: c.u64()?,
        };
        c.expect_done()?;
        if meta.entities > u32::MAX as u64 {
            return Err(err("meta", "graph exceeds u32 id capacity"));
        }
        Ok(meta)
    }
}

fn encode_entity_types(entities: &[Entity]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in entities {
        put_u32(&mut out, e.types.len() as u32);
    }
    for e in entities {
        for t in &e.types {
            put_u32(&mut out, t.raw());
        }
    }
    out
}

fn encode_entity_attrs(entities: &[Entity]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in entities {
        put_u32(&mut out, e.attributes.len() as u32);
    }
    for e in entities {
        for (a, v) in e.attributes.iter() {
            put_u32(&mut out, a.raw());
            put_u64(&mut out, v.get().to_bits());
        }
    }
    out
}

fn encode_triples(triples: &[Triple]) -> Vec<u8> {
    let mut out = Vec::with_capacity(triples.len() * 12);
    for t in triples {
        put_u32(&mut out, t.subject.raw());
        put_u32(&mut out, t.predicate.raw());
        put_u32(&mut out, t.object.raw());
    }
    out
}

fn interner_from_strings(strings: Vec<String>) -> StringInterner {
    let mut interner = StringInterner::with_capacity(strings.len());
    for s in &strings {
        interner.intern(s);
    }
    interner
}

impl KnowledgeGraph {
    /// Encodes this graph's core sections (everything `kg-core` owns) into
    /// a [`SnapshotWriter`]. Downstream crates append their extension
    /// sections (the similarity store) before `finish`.
    ///
    /// # Errors
    /// Fails when the graph carries a pending delta overlay — snapshots
    /// capture frozen CSR state, so call [`KnowledgeGraph::compact`] first.
    pub fn snapshot_writer(&self) -> KgResult<SnapshotWriter> {
        if self.delta.is_some() {
            return Err(err(
                "meta",
                "graph has a pending delta overlay; compact() before writing a snapshot",
            ));
        }
        let meta = Meta {
            entities: self.entities.len() as u64,
            triples: self.triples.len() as u64,
            types: self.types.len() as u64,
            predicates: self.predicates.len() as u64,
            attrs: self.attrs.len() as u64,
        };
        let mut w = SnapshotWriter::new();
        w.add_section(section_kind::META, meta.encode());
        w.add_section(
            section_kind::ENTITY_NAMES,
            encode_string_pool(
                self.entities.len(),
                self.entities.iter().map(|e| e.name.as_str()),
            ),
        );
        w.add_section(
            section_kind::TYPE_NAMES,
            encode_string_pool(self.types.len(), self.types.iter().map(|(_, s)| s)),
        );
        w.add_section(
            section_kind::PREDICATE_NAMES,
            encode_string_pool(
                self.predicates.len(),
                self.predicates.iter().map(|(_, s)| s),
            ),
        );
        w.add_section(
            section_kind::ATTR_NAMES,
            encode_string_pool(self.attrs.len(), self.attrs.iter().map(|(_, s)| s)),
        );
        w.add_section(
            section_kind::ENTITY_TYPES,
            encode_entity_types(&self.entities),
        );
        w.add_section(
            section_kind::ENTITY_ATTRS,
            encode_entity_attrs(&self.entities),
        );
        w.add_section(section_kind::TRIPLES, encode_triples(&self.triples));
        Ok(w)
    }

    /// The snapshot image of this graph as bytes (no extension sections).
    pub fn snapshot_bytes(&self) -> KgResult<Vec<u8>> {
        Ok(self.snapshot_writer()?.finish())
    }

    /// Writes a snapshot of this graph to `path` (no extension sections).
    /// The file is written to a temporary sibling and atomically renamed
    /// into place so a crashed writer never leaves a half-written snapshot
    /// behind.
    pub fn write_snapshot(&self, path: impl AsRef<Path>) -> KgResult<()> {
        write_snapshot_file(path.as_ref(), &self.snapshot_bytes()?)
    }

    /// Opens a snapshot file and reconstructs the graph: checksum/layout
    /// validation, a linear decode of the stored sections, and the
    /// builder's counting sort over the triple log for the CSR. The two
    /// hash indexes (name → entity, type → entities) are rebuilt from the
    /// decoded arrays; every rebuild is a deterministic function of the
    /// stored sections, so the result is bitwise-identical to the freshly
    /// built graph.
    pub fn open_snapshot(path: impl AsRef<Path>) -> KgResult<Self> {
        Self::from_snapshot(&Snapshot::open(path)?)
    }

    /// Reconstructs a graph from an already-validated [`Snapshot`].
    pub fn from_snapshot(snap: &Snapshot) -> KgResult<Self> {
        let meta = Meta::decode(snap.require(section_kind::META)?)?;

        let entity_names = decode_string_pool(
            snap.require(section_kind::ENTITY_NAMES)?,
            "entity_names",
            meta.entities,
        )?;
        let type_names = decode_string_pool(
            snap.require(section_kind::TYPE_NAMES)?,
            "type_names",
            meta.types,
        )?;
        let predicate_names = decode_string_pool(
            snap.require(section_kind::PREDICATE_NAMES)?,
            "predicate_names",
            meta.predicates,
        )?;
        let attr_names = decode_string_pool(
            snap.require(section_kind::ATTR_NAMES)?,
            "attr_names",
            meta.attrs,
        )?;

        // Per-entity types.
        let mut c = SectionReader::new(snap.require(section_kind::ENTITY_TYPES)?, "entity_types");
        let mut type_counts = Vec::with_capacity(c.count(meta.entities, 4)?);
        for _ in 0..meta.entities {
            type_counts.push(u64::from(c.u32()?));
        }
        let mut entity_types = Vec::with_capacity(type_counts.len());
        for &n in &type_counts {
            let mut types = Vec::with_capacity(c.count(n, 4)?);
            let mut prev: Option<u32> = None;
            for _ in 0..n {
                let t = c.u32()?;
                if u64::from(t) >= meta.types {
                    return Err(err(
                        "entity_types",
                        format!("type id {t} out of range for {} types", meta.types),
                    ));
                }
                // Entity type lists are sorted + deduped by construction.
                if prev.is_some_and(|p| p >= t) {
                    return Err(err(
                        "entity_types",
                        format!("type list not strictly ascending at id {t}"),
                    ));
                }
                prev = Some(t);
                types.push(TypeId::new(t));
            }
            entity_types.push(types);
        }
        c.expect_done()?;

        // Per-entity attributes.
        let mut c = SectionReader::new(snap.require(section_kind::ENTITY_ATTRS)?, "entity_attrs");
        let mut attr_counts = Vec::with_capacity(c.count(meta.entities, 4)?);
        for _ in 0..meta.entities {
            attr_counts.push(u64::from(c.u32()?));
        }
        let mut entity_attrs: Vec<Vec<(AttrId, f64)>> = Vec::with_capacity(attr_counts.len());
        for &n in &attr_counts {
            let mut attrs = Vec::with_capacity(c.count(n, 12)?);
            let mut prev: Option<u32> = None;
            for _ in 0..n {
                let a = c.u32()?;
                if u64::from(a) >= meta.attrs {
                    return Err(err(
                        "entity_attrs",
                        format!(
                            "attribute id {a} out of range for {} attributes",
                            meta.attrs
                        ),
                    ));
                }
                if prev.is_some_and(|p| p >= a) {
                    return Err(err(
                        "entity_attrs",
                        format!("attribute list not strictly ascending at id {a}"),
                    ));
                }
                prev = Some(a);
                let bits = c.u64()?;
                attrs.push((AttrId::new(a), f64::from_bits(bits)));
            }
            entity_attrs.push(attrs);
        }
        c.expect_done()?;

        // Triples.
        let triple_bytes = snap.require(section_kind::TRIPLES)?;
        if meta.triples.checked_mul(12) != Some(triple_bytes.len() as u64) {
            return Err(err(
                "triples",
                format!(
                    "length mismatch: {} bytes for {} triples (12 bytes each)",
                    triple_bytes.len(),
                    meta.triples
                ),
            ));
        }
        let mut triples = Vec::with_capacity(triple_bytes.len() / 12);
        for rec in triple_bytes.chunks_exact(12) {
            let s = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            let p = u32::from_le_bytes(rec[4..8].try_into().unwrap());
            let o = u32::from_le_bytes(rec[8..12].try_into().unwrap());
            if u64::from(s) >= meta.entities || u64::from(o) >= meta.entities {
                return Err(err(
                    "triples",
                    format!("entity id out of range in triple ({s}, {p}, {o})"),
                ));
            }
            if u64::from(p) >= meta.predicates {
                return Err(err(
                    "triples",
                    format!(
                        "predicate id {p} out of range for {} predicates",
                        meta.predicates
                    ),
                ));
            }
            triples.push(Triple::new(
                EntityId::new(s),
                PredicateId::new(p),
                EntityId::new(o),
            ));
        }

        // The CSR is derived, not stored: rebuild it with the builder's own
        // counting sort, after turning its capacity assert into an error.
        if meta.triples > u64::from(u32::MAX / 2) {
            return Err(err(
                "triples",
                format!(
                    "{} triples exceed the CSR capacity of {} (u32 adjacency offsets)",
                    meta.triples,
                    u32::MAX / 2
                ),
            ));
        }
        let (edges, offsets) = build_csr(entity_names.len(), &triples);

        // Assemble entities and rebuild the two hash indexes (deterministic
        // functions of the entity table — hash iteration order is never
        // observable through the graph API).
        let mut entities = Vec::with_capacity(entity_names.len());
        for ((name, types), attrs) in entity_names.into_iter().zip(entity_types).zip(entity_attrs) {
            let mut e = Entity::new(name, types);
            for (a, v) in attrs {
                e.attributes.set(a, v);
            }
            entities.push(e);
        }
        let name_index = NameIndex::build(&entities);
        if name_index.len() != entities.len() {
            return Err(err(
                "entity_names",
                "duplicate entity names: the name index must be a bijection",
            ));
        }
        let type_index = TypeIndex::build(&entities);

        Ok(KnowledgeGraph {
            entities,
            edges,
            offsets,
            triples,
            predicates: {
                let mut p = PredicateVocabulary::new();
                for name in &predicate_names {
                    p.intern(name);
                }
                p
            },
            types: interner_from_strings(type_names),
            attrs: interner_from_strings(attr_names),
            name_index,
            type_index,
            delta: None,
        })
    }
}

/// Writes `bytes` to `path` via a temporary sibling + atomic rename, so
/// readers never observe a torn snapshot.
pub fn write_snapshot_file(path: &Path, bytes: &[u8]) -> KgResult<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn sample_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let de = b.add_entity("Germany", &["Country"]);
        let vw = b.add_entity("Volkswagen", &["Company"]);
        let bmw = b.add_entity("BMW_320", &["Automobile", "MeanOfTransportation"]);
        let audi = b.add_entity("Audi_TT", &["Automobile"]);
        b.set_attribute(bmw, "price", 41_500.0);
        b.set_attribute(bmw, "horsepower", 184.0);
        b.set_attribute(audi, "price", 52_000.0);
        b.add_edge(bmw, "assembly", de);
        b.add_edge(audi, "assembly", vw);
        b.add_edge(vw, "country", de);
        b.add_edge(de, "product", bmw);
        b.add_edge(de, "self", de); // self-loop
        b.build()
    }

    fn assert_graphs_bitwise_equal(a: &KnowledgeGraph, b: &KnowledgeGraph) {
        assert_eq!(a.entity_count(), b.entity_count());
        assert_eq!(a.triples, b.triples);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.offsets, b.offsets);
        for (ea, eb) in a.entities.iter().zip(&b.entities) {
            assert_eq!(ea.name, eb.name);
            assert_eq!(ea.types, eb.types);
            let av: Vec<(u32, u64)> = ea
                .attributes
                .iter()
                .map(|(k, v)| (k.raw(), v.get().to_bits()))
                .collect();
            let bv: Vec<(u32, u64)> = eb
                .attributes
                .iter()
                .map(|(k, v)| (k.raw(), v.get().to_bits()))
                .collect();
            assert_eq!(av, bv);
        }
        let names =
            |g: &KnowledgeGraph| -> Vec<String> { g.types().map(|(_, s)| s.to_owned()).collect() };
        assert_eq!(names(a), names(b));
    }

    /// The snapshot of `g` with the payload of section `kind` replaced
    /// (and every checksum recomputed), so only the content is hostile.
    fn with_section(g: &KnowledgeGraph, kind: u32, payload: Vec<u8>) -> Snapshot {
        let mut w = g.snapshot_writer().unwrap();
        for (k, p) in &mut w.sections {
            if *k == kind {
                *p = payload.clone();
            }
        }
        Snapshot::from_bytes(w.finish()).unwrap()
    }

    /// Rewrites header bytes `range` with `value` and re-checksums the
    /// header, so only that field is wrong.
    fn with_header_field(mut bytes: Vec<u8>, at: usize, value: u32) -> Vec<u8> {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let crc = crc64(&bytes[..48]);
        bytes[48..56].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn round_trip_is_bitwise_identical() {
        let g = sample_graph();
        let bytes = g.snapshot_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        assert_eq!(snap.version(), FORMAT_VERSION);
        // The graph is stored once: no adjacency section.
        let names: Vec<&str> = snap.sections().iter().map(SectionInfo::name).collect();
        assert_eq!(
            names,
            [
                "meta",
                "entity_names",
                "type_names",
                "predicate_names",
                "attr_names",
                "entity_types",
                "entity_attrs",
                "triples"
            ]
        );
        let loaded = KnowledgeGraph::from_snapshot(&snap).unwrap();
        assert_graphs_bitwise_equal(&g, &loaded);
        // The snapshot of the loaded graph is byte-identical too.
        let rebytes = loaded.snapshot_bytes().unwrap();
        let original = g.snapshot_bytes().unwrap();
        assert_eq!(rebytes, original);
    }

    #[test]
    fn file_round_trip() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join(format!("kg-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.kgsnap");
        g.write_snapshot(&path).unwrap();
        let loaded = KnowledgeGraph::open_snapshot(&path).unwrap();
        assert_graphs_bitwise_equal(&g, &loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = GraphBuilder::new().build();
        let bytes = g.snapshot_bytes().unwrap();
        let loaded = KnowledgeGraph::from_snapshot(&Snapshot::from_bytes(bytes).unwrap()).unwrap();
        assert_eq!(loaded.entity_count(), 0);
        assert_eq!(loaded.edge_count(), 0);
    }

    #[test]
    fn sections_are_aligned() {
        let g = sample_graph();
        let bytes = g.snapshot_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes).unwrap();
        for s in snap.sections() {
            assert_eq!(s.offset as usize % SECTION_ALIGN, 0, "{}", s.name());
        }
    }

    #[test]
    fn truncated_file_fails_closed() {
        let g = sample_graph();
        let bytes = g.snapshot_bytes().unwrap();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            let e = Snapshot::from_bytes(bytes[..cut].to_vec()).unwrap_err();
            match e {
                KgError::Snapshot { .. } => {}
                other => panic!("expected structured snapshot error, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_skew_fail_closed() {
        let g = sample_graph();
        let mut bytes = g.snapshot_bytes().unwrap();
        let mut mangled = bytes.clone();
        mangled[0] ^= 0xFF;
        let e = Snapshot::from_bytes(mangled).unwrap_err();
        assert!(e.to_string().contains("magic"), "{e}");

        // A future version with a correct header checksum is a skew error.
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let crc = crc64(&bytes[..48]);
        bytes[48..56].copy_from_slice(&crc.to_le_bytes());
        let e = Snapshot::from_bytes(bytes).unwrap_err();
        assert!(e.to_string().contains("version skew"), "{e}");
    }

    /// Asserts that a file whose header names `version` is refused with the
    /// version-skew error telling the operator to rebuild it.
    fn assert_older_header_is_skew(version: u32) {
        let bytes = with_header_field(sample_graph().snapshot_bytes().unwrap(), 8, version);
        let e = Snapshot::from_bytes(bytes).unwrap_err();
        let KgError::Snapshot { section, message } = e else {
            panic!("expected a structured snapshot error for v{version}");
        };
        assert_eq!(section, "header");
        let expected = format!("version skew: file is v{version}");
        assert!(message.contains(&expected), "{message}");
        assert!(message.contains("rebuild"), "{message}");
    }

    /// A v1 file (the format that stored the CSR twice) is not read.
    #[test]
    fn v1_header_gets_the_version_skew_message() {
        assert_older_header_is_skew(1);
    }

    /// A v2 file (π from the truncated power iteration) is not read.
    #[test]
    fn v2_header_gets_the_version_skew_message() {
        assert_older_header_is_skew(2);
    }

    /// A v3 file (one carrying a prepared-sampler section) is not read.
    #[test]
    fn v3_header_gets_the_version_skew_message() {
        assert_older_header_is_skew(3);
    }

    /// The header flags word is reserved: anything but 0 is refused.
    #[test]
    fn nonzero_flags_word_is_a_header_error() {
        let bytes = sample_graph().snapshot_bytes().unwrap();
        assert_eq!(bytes[12..16], [0, 0, 0, 0], "writers write 0");
        for flags in [1, 0x8000_0000] {
            let e = Snapshot::from_bytes(with_header_field(bytes.clone(), 12, flags)).unwrap_err();
            let KgError::Snapshot { section, message } = e else {
                panic!("expected a structured snapshot error");
            };
            assert_eq!(section, "header");
            assert!(message.contains("flags"), "{message}");
        }
    }

    #[test]
    fn every_section_flip_is_detected_and_named() {
        let g = sample_graph();
        let bytes = g.snapshot_bytes().unwrap();
        let snap = Snapshot::from_bytes(bytes.clone()).unwrap();
        let sections: Vec<SectionInfo> = snap.sections().to_vec();
        for s in sections {
            if s.len == 0 {
                continue;
            }
            let mut corrupt = bytes.clone();
            corrupt[s.offset as usize] ^= 0x01;
            let e = Snapshot::from_bytes(corrupt).unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains(s.name()),
                "flip in {} reported as: {msg}",
                s.name()
            );
        }
    }

    /// A re-signed file with an extra section of a kind format v4 does not
    /// define (here 101, v3's prepared samplers) is refused, naming it.
    #[test]
    fn undefined_section_kind_is_refused_naming_it() {
        let mut w = sample_graph().snapshot_writer().unwrap();
        w.add_section(101, vec![0xAB; 100]);
        let e = Snapshot::from_bytes(w.finish()).unwrap_err();
        let KgError::Snapshot { section, message } = e else {
            panic!("expected a structured snapshot error");
        };
        assert_eq!(section, "kind 101");
        assert!(message.contains("not defined by format v4"), "{message}");
    }

    #[test]
    fn pending_delta_refuses_to_snapshot() {
        let mut g = sample_graph();
        g.upsert_edge_by_name("Germany", "product", "Audi_TT");
        let e = g.snapshot_bytes().unwrap_err();
        assert!(e.to_string().contains("delta"), "{e}");
        g.compact();
        g.snapshot_bytes().unwrap();
    }

    #[test]
    fn valid_checksum_but_inconsistent_content_fails_closed() {
        // Hand-build a snapshot whose triple section references an entity
        // that does not exist: checksums pass, structural decode must not.
        let g = sample_graph();
        let mut w = g.snapshot_writer().unwrap();
        let bad_triple = {
            let mut out = Vec::new();
            put_u32(&mut out, 999); // subject out of range
            put_u32(&mut out, 0);
            put_u32(&mut out, 0);
            out
        };
        // Rebuild the writer with a poisoned triple section.
        let mut poisoned = SnapshotWriter::new();
        for (kind, payload) in std::mem::take(&mut w.sections) {
            if kind == section_kind::TRIPLES {
                poisoned.add_section(kind, bad_triple.clone());
            } else {
                poisoned.add_section(kind, payload);
            }
        }
        let snap = Snapshot::from_bytes(poisoned.finish()).unwrap();
        let e = KnowledgeGraph::from_snapshot(&snap).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("triples"), "{msg}");
    }

    /// Checksummed sections whose declared counts far exceed their bytes
    /// are structured errors naming the section — never an allocation of
    /// the declared size (which would abort the process).
    #[test]
    fn hostile_counts_fail_closed_naming_the_section() {
        let g = sample_graph();
        let n = g.entity_count() as u64;
        let mut huge_meta = Vec::new();
        for v in [u64::from(u32::MAX), 0, 0, 0, 0] {
            put_u64(&mut huge_meta, v);
        }
        let mut count_only = Vec::new();
        put_u64(&mut count_only, u64::from(u32::MAX));
        let mut w = g.snapshot_writer().unwrap();
        w.sections[0].1 = huge_meta;
        w.sections[1].1 = count_only;
        let snap = Snapshot::from_bytes(w.finish()).unwrap();
        let e = KnowledgeGraph::from_snapshot(&snap).unwrap_err();
        match e {
            KgError::Snapshot { section, .. } => assert_eq!(section, "entity_names"),
            other => panic!("expected a structured snapshot error, got {other:?}"),
        }

        // A per-entity list count larger than the section.
        let per_entity = |first: u32| {
            let mut out = Vec::new();
            put_u32(&mut out, first);
            for _ in 1..n {
                put_u32(&mut out, 0);
            }
            out
        };
        for (kind, name) in [
            (section_kind::ENTITY_TYPES, "entity_types"),
            (section_kind::ENTITY_ATTRS, "entity_attrs"),
        ] {
            let snap = with_section(&g, kind, per_entity(u32::MAX));
            let e = KnowledgeGraph::from_snapshot(&snap).unwrap_err();
            let msg = e.to_string();
            assert!(msg.contains(name), "{msg}");
            assert!(msg.contains("declared 4294967295 elements"), "{msg}");
            // The count array itself shorter than META's entity count.
            let snap = with_section(&g, kind, vec![0; 4]);
            let msg = KnowledgeGraph::from_snapshot(&snap)
                .unwrap_err()
                .to_string();
            assert!(msg.contains(name), "{msg}");
        }

        // A triple count whose byte size overflows is a length mismatch.
        let mut meta = g.snapshot_writer().unwrap().sections[0].1.clone();
        meta[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let snap = with_section(&g, section_kind::META, meta);
        let msg = KnowledgeGraph::from_snapshot(&snap)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("triples"), "{msg}");
    }

    #[test]
    fn section_reader_count_is_checked_against_remaining_bytes() {
        let bytes = [0u8; 16];
        let mut c = SectionReader::new(&bytes, "test");
        assert_eq!(c.count(4, 4).unwrap(), 4);
        assert_eq!(c.count(16, 0).unwrap(), 16);
        c.take(8).unwrap();
        assert_eq!(c.count(2, 4).unwrap(), 2);
        assert!(c.count(3, 4).is_err());
        assert!(c.count(u64::MAX, 8).is_err());
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }
}
