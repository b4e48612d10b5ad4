//! `kg-snap`: build, inspect and verify binary knowledge-graph snapshots.
//!
//! ```text
//! kg-snap build OUT.kgsnap [--profile dbpedia|freebase|yago] [--seed 42]
//!                          [--warm N]
//! kg-snap inspect PATH
//! kg-snap verify PATH
//! ```
//!
//! `build` generates a synthetic dataset (the same profiles `kg-serve` and
//! `kg-load` agree on), optionally pre-prepares up to `--warm N` simple-query
//! samplers over the generated workload, and writes the full bundle — graph
//! sections, predicate-similarity store and prepared alias tables — to
//! `OUT.kgsnap` atomically.
//!
//! `inspect` prints the header and section table of a snapshot without
//! decoding the graph (it still validates checksums: a corrupt file is
//! reported, not inspected).
//!
//! `verify` runs the full validation chain — container (magic, header CRC,
//! version, reserved flags, table of contents, per-section CRCs), then a
//! full bundle decode: every graph section structurally, the CSR rebuilt
//! from the triple log, and the similarity/sampler sections if present.
//! Exit code 0 means every check passed; any failure exits 1 with the
//! failing section named on stderr.
//!
//! Flags are parsed strictly (the parser `kg-serve` uses): an unknown flag,
//! a value that does not parse, a flag with no value or a stray argument
//! exits 2.

#[path = "../../kg-service/src/bin/cli/mod.rs"]
mod cli;

use cli::Flags;
use kg_core::snapshot::Snapshot;
use kg_core::KgError;
use kg_datagen::{build_workload, generate, profiles, DatasetScale, WorkloadConfig};
use kg_query::QuerySpec;
use kg_sampling::{bundle_from_snapshot, write_bundle, SamplerCache, SamplerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: kg-snap build OUT.kgsnap [--profile dbpedia|freebase|yago] \
         [--seed N] [--warm N]\n       kg-snap inspect PATH\n       \
         kg-snap verify PATH"
    );
    std::process::exit(2);
}

/// Renders a snapshot error with its failing section up front — the
/// contract the CI smoke job and the corruption regression tests grep for.
fn report(context: &str, e: &KgError) -> ! {
    match e {
        KgError::Snapshot { section, message } => {
            eprintln!("kg-snap {context}: section {section}: {message}");
        }
        other => eprintln!("kg-snap {context}: {other}"),
    }
    std::process::exit(1);
}

fn cmd_build(args: &[String]) {
    let Some(out) = args.first().filter(|a| !a.starts_with("--")) else {
        usage();
    };
    let flags = Flags::parse(
        "kg-snap build",
        &args[1..],
        &["--profile", "--seed", "--warm"],
        &[],
    );
    let profile: String = flags.get("--profile", "dbpedia".to_string());
    let seed: u64 = flags.get("--seed", 42);
    let warm: usize = flags.get("--warm", 0);

    let config = match profile.as_str() {
        "dbpedia" => profiles::dbpedia_like(DatasetScale::tiny(), seed),
        "freebase" => profiles::freebase_like(DatasetScale::tiny(), seed),
        "yago" => profiles::yago_like(DatasetScale::tiny(), seed),
        other => {
            eprintln!("kg-snap build: unknown profile {other:?} (want dbpedia|freebase|yago)");
            std::process::exit(2);
        }
    };
    eprintln!("kg-snap build: generating {profile} dataset (tiny scale, seed {seed})…");
    let dataset = generate(&config);

    // Pre-prepare samplers for the first `--warm` distinct simple-query
    // components of the standard workload, so a snapshot boot starts with
    // the alias tables those queries draw from already built.
    let samplers = SamplerCache::new(
        kg_sampling::SamplingStrategy::SemanticAware,
        SamplerConfig::default(),
    );
    if warm > 0 {
        let workload = build_workload(&dataset, &WorkloadConfig::default());
        for wq in &workload {
            if samplers.len() >= warm {
                break;
            }
            let QuerySpec::Simple(simple) = &wq.query.query else {
                continue;
            };
            let Ok(resolved) = simple.resolve(&dataset.graph) else {
                continue;
            };
            if let Err(e) = samplers.get_or_prepare(&dataset.graph, &resolved, &dataset.oracle) {
                eprintln!("kg-snap build: skipping {}: {e}", wq.id);
            }
        }
        eprintln!("kg-snap build: warmed {} sampler(s)", samplers.len());
    }

    if let Err(e) = write_bundle(out, &dataset.graph, Some(&dataset.oracle), Some(&samplers)) {
        report("build", &e);
    }
    let len = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "kg-snap build: wrote {out} ({len} bytes, {} entities, {} triples, \
         {} sampler(s))",
        dataset.graph.entity_count(),
        dataset.graph.triples().len(),
        samplers.len(),
    );
}

fn cmd_inspect(path: &str) {
    let snap = match Snapshot::open(path) {
        Ok(snap) => snap,
        Err(e) => report("inspect", &e),
    };
    println!("{path}: format v{}", snap.version());
    println!(
        "{:<16} {:>10} {:>10} {:>18}",
        "section", "offset", "len", "crc64"
    );
    for s in snap.sections() {
        println!(
            "{:<16} {:>10} {:>10} {:>18x}",
            s.name(),
            s.offset,
            s.len,
            s.checksum
        );
    }
}

fn cmd_verify(path: &str) {
    // Container validation (magic, header CRC, version, flags, TOC, section
    // CRCs) happens in `open`; the full bundle decode checks the rest.
    let snap = match Snapshot::open(path) {
        Ok(snap) => snap,
        Err(e) => report("verify", &e),
    };
    if let Err(e) = bundle_from_snapshot(&snap) {
        report("verify", &e);
    }
    println!(
        "kg-snap verify: {path} OK (format v{}, {} section(s))",
        snap.version(),
        snap.sections().len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    match args.as_slice() {
        [cmd, rest @ ..] if cmd == "build" => cmd_build(rest),
        [cmd, path] if cmd == "inspect" => cmd_inspect(path),
        [cmd, path] if cmd == "verify" => cmd_verify(path),
        _ => usage(),
    }
}
