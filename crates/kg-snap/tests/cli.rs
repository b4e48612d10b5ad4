//! End-to-end tests of the `kg-snap` binary: the build → verify → inspect
//! happy path, the exit-code contract on corruption — every section kind,
//! when a single byte is flipped, must fail `verify` with a non-zero exit
//! and the failing section named on stderr; a checksummed section with a
//! hostile count fails the same way — and strict flag parsing (exit 2).

use kg_core::snapshot::{section_kind, Snapshot, SnapshotWriter, FORMAT_VERSION};
use std::path::PathBuf;
use std::process::{Command, Output};

fn kg_snap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_kg-snap"))
        .args(args)
        .output()
        .expect("spawn kg-snap")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kg-snap-cli-{tag}-{}.kgsnap", std::process::id()))
}

fn build_snapshot(tag: &str, extra: &[&str]) -> PathBuf {
    let path = temp_path(tag);
    let path_str = path.to_str().unwrap();
    let mut args = vec!["build", path_str, "--seed", "7", "--warm", "2"];
    args.extend_from_slice(extra);
    let out = kg_snap(&args);
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn build_verify_inspect_round_trip() {
    let path = build_snapshot("ok", &[]);
    let path_str = path.to_str().unwrap();

    let verify = kg_snap(&["verify", path_str]);
    assert!(
        verify.status.success(),
        "verify failed: {}",
        String::from_utf8_lossy(&verify.stderr)
    );
    let stdout = String::from_utf8_lossy(&verify.stdout);
    assert!(stdout.contains("OK"), "stdout: {stdout}");
    assert!(stdout.contains("format v2"), "stdout: {stdout}");

    let inspect = kg_snap(&["inspect", path_str]);
    assert!(inspect.status.success());
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    for section in ["meta", "entity_names", "triples", "similarity", "samplers"] {
        assert!(stdout.contains(section), "missing {section}: {stdout}");
    }
    // The graph is stored once: the adjacency is rebuilt, never stored.
    assert!(!stdout.contains("csr_"), "stored adjacency: {stdout}");

    std::fs::remove_file(&path).unwrap();
}

/// The regression demanded by the exit-code contract: flip one byte in the
/// middle of *each* section and assert `verify` exits non-zero naming that
/// very section on stderr.
#[test]
fn verify_names_the_corrupted_section() {
    let path = build_snapshot("flip", &[]);
    let bytes = std::fs::read(&path).unwrap();
    let snap = kg_core::snapshot::Snapshot::from_bytes(bytes.clone()).unwrap();
    let sections: Vec<(String, u64, u64)> = snap
        .sections()
        .iter()
        .map(|s| (s.name().to_string(), s.offset, s.len))
        .collect();
    assert!(sections.len() >= 10, "expected a full bundle: {sections:?}");

    for (name, offset, len) in sections {
        let mut corrupt = bytes.clone();
        let target = (offset + len / 2) as usize;
        corrupt[target] ^= 0x01;
        let corrupt_path = temp_path(&format!("flip-{name}"));
        std::fs::write(&corrupt_path, &corrupt).unwrap();
        let out = kg_snap(&["verify", corrupt_path.to_str().unwrap()]);
        std::fs::remove_file(&corrupt_path).unwrap();
        assert!(
            !out.status.success(),
            "corrupted {name} still verified cleanly"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&name),
            "stderr does not name section {name}: {stderr}"
        );
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn verify_rejects_header_corruption_and_truncation() {
    let path = build_snapshot("hdr", &[]);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Bad magic.
    let mut corrupt = bytes.clone();
    corrupt[0] ^= 0xFF;
    let p = temp_path("bad-magic");
    std::fs::write(&p, &corrupt).unwrap();
    let out = kg_snap(&["verify", p.to_str().unwrap()]);
    std::fs::remove_file(&p).unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("header"));

    // Truncated to half.
    let p = temp_path("truncated");
    std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
    let out = kg_snap(&["verify", p.to_str().unwrap()]);
    std::fs::remove_file(&p).unwrap();
    assert!(!out.status.success());

    // Version skew, older (v1 stored the CSR twice) and newer: rewrite
    // the version field and re-checksum the header so only the skew
    // itself is the failure.
    for version in [1, FORMAT_VERSION + 1] {
        let mut skewed = bytes.clone();
        skewed[8..12].copy_from_slice(&version.to_le_bytes());
        let crc = kg_core::snapshot::crc64(&skewed[..48]);
        skewed[48..56].copy_from_slice(&crc.to_le_bytes());
        let p = temp_path("skewed");
        std::fs::write(&p, &skewed).unwrap();
        let out = kg_snap(&["verify", p.to_str().unwrap()]);
        std::fs::remove_file(&p).unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("rebuild"), "stderr: {stderr}");
    }
}

/// Writes `snap` back out with the payload of each kind in `replace`
/// swapped in (every checksum recomputed), runs `verify` on it, and asserts
/// exit 1 naming `section`.
fn assert_verify_names(tag: &str, snap: &Snapshot, replace: &[(u32, Vec<u8>)], section: &str) {
    let mut writer = SnapshotWriter::new();
    for info in snap.sections() {
        let payload = match replace.iter().find(|(kind, _)| *kind == info.kind) {
            Some((_, payload)) => payload.clone(),
            None => snap.section(info.kind).unwrap().to_vec(),
        };
        writer.add_section(info.kind, payload);
    }
    let p = temp_path(tag);
    std::fs::write(&p, writer.finish()).unwrap();
    let out = kg_snap(&["verify", p.to_str().unwrap()]);
    std::fs::remove_file(&p).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("section {section}:")),
        "stderr: {stderr}"
    );
}

/// Checksums pass, but a declared count far exceeds the bytes behind it:
/// `verify` reports the section instead of aborting on the allocation.
#[test]
fn verify_names_a_section_with_a_hostile_count() {
    let path = build_snapshot("hostile", &[]);
    let snap = Snapshot::from_bytes(std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();

    // META declares u32::MAX entities; the name pool holds only that count.
    let mut meta = snap.section(section_kind::META).unwrap().to_vec();
    meta[..8].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    let names = u64::from(u32::MAX).to_le_bytes().to_vec();
    assert_verify_names(
        "hostile-names",
        &snap,
        &[
            (section_kind::META, meta),
            (section_kind::ENTITY_NAMES, names),
        ],
        "entity_names",
    );

    // The first sampler scope declares 2^40 nodes. Its length sits after
    // the section header, the entry count, the key (specific, predicate,
    // type count, type ids) and the scope's start and radius.
    let mut samplers = snap.section(section_kind::SAMPLERS).unwrap().to_vec();
    let key = 4 + 8 + 8 + 4 + 8 + 8 + 8 + 8;
    let types = u32::from_le_bytes(samplers[key + 8..key + 12].try_into().unwrap()) as usize;
    let scope_len = key + 12 + 4 * types + 8;
    samplers[scope_len..scope_len + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    assert_verify_names(
        "hostile-scope",
        &snap,
        &[(section_kind::SAMPLERS, samplers)],
        "samplers",
    );
}

/// Asserts `out` is an exit 2 with one stderr line that names `flag`.
fn assert_refused(out: Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(stderr.contains(flag), "stderr {stderr:?}");
}

/// The retired CSR encoding switch is an unknown flag, not a silent no-op.
#[test]
fn build_refuses_the_retired_compress_flag() {
    let path = temp_path("compress");
    let out = kg_snap(&["build", path.to_str().unwrap(), "--compress"]);
    assert!(!path.exists(), "refused build still wrote a file");
    assert_refused(out, "--compress");
}

#[test]
fn build_refuses_an_unparsable_value() {
    let path = temp_path("warm-x");
    assert_refused(
        kg_snap(&["build", path.to_str().unwrap(), "--warm", "x"]),
        "--warm",
    );
}

#[test]
fn stray_arguments_are_refused() {
    let out = kg_snap(&["verify", "a.kgsnap", "b.kgsnap"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: kg-snap"));
}
