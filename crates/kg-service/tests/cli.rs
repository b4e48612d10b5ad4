//! `kg-serve` and `kg-load` refuse an argument list they cannot use before
//! they generate any data: exit status 2 and one stderr line naming the
//! flag. A `kg-serve --snapshot` whose file does not load exits 1 with one
//! structured stderr line. A `kg-serve` that boots instead would serve until
//! killed, so every run here is bounded and killed if it outlives the bound.

use std::process::{Command, Output, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Runs the binary `exe` with `args`, and fails the test (after killing the
/// process) if it is still running after 10 s.
fn run_bin(exe: &str, args: &[&str]) -> Output {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{exe} {args:?} was still running after 10 s");
        }
        sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// Runs `kg-serve` on an ephemeral port with `args` last.
fn run(args: &[&str]) -> Output {
    let args = [&["--addr", "127.0.0.1:0"], args].concat();
    run_bin(env!("CARGO_BIN_EXE_kg-serve"), &args)
}

/// Runs `kg-load` with `args`.
fn load(args: &[&str]) -> Output {
    run_bin(env!("CARGO_BIN_EXE_kg-load"), args)
}

/// Asserts `out` is an exit 2 with one stderr line that names `flag`.
fn assert_refused(out: Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(stderr.contains(flag), "stderr {stderr:?}");
}

#[test]
fn unparsable_value_is_refused() {
    assert_refused(run(&["--workers", "four"]), "--workers");
}

#[test]
fn retired_shard_codec_flag_is_refused() {
    assert_refused(run(&["--shard-codec", "json"]), "--shard-codec");
}

#[test]
fn misspelt_flag_is_refused() {
    assert_refused(run(&["--wrkers", "2"]), "--wrkers");
}

#[test]
fn flag_without_value_is_refused() {
    assert_refused(run(&["--seed"]), "--seed");
}

#[test]
fn zero_shards_is_refused() {
    assert_refused(run(&["--shards", "0"]), "shards");
}

#[test]
fn help_still_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: kg-serve"));
}

/// A v3 snapshot (the format that carried a prepared-sampler section) is
/// refused at boot: exit 1 and a single `snapshot_load_failed` line naming
/// the header, before the process binds or serves anything.
#[test]
fn snapshot_boot_refuses_a_v3_file() {
    let mut b = kg_core::GraphBuilder::new();
    b.add_entity("Germany", &["Country"]);
    b.add_entity("car0", &["Automobile"]);
    b.add_edge_by_name("Germany", "product", "car0");
    let mut bytes = b.build().snapshot_bytes().unwrap();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    let crc = kg_core::snapshot::crc64(&bytes[..48]);
    bytes[48..56].copy_from_slice(&crc.to_le_bytes());
    let path = std::env::temp_dir().join(format!("kg-serve-v3-{}.kgsnap", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();

    let out = run(&["--snapshot", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    let line = stderr
        .trim_end()
        .strip_prefix("kg-serve: ")
        .expect("prefixed line");
    let parsed: serde_json::Value = serde_json::from_str(line).expect("one JSON line");
    assert_eq!(parsed["error"].as_str(), Some("snapshot_load_failed"));
    assert_eq!(parsed["section"].as_str(), Some("header"));
    assert_eq!(parsed["path"].as_str(), path.to_str());
    let cause = parsed["cause"].as_str().unwrap();
    assert!(cause.contains("version skew: file is v3"), "{cause}");
}

#[test]
fn load_refuses_an_unparsable_gate() {
    assert_refused(load(&["--min-ok-rate", "0,9"]), "--min-ok-rate");
}

#[test]
fn load_refuses_a_trailing_flag_without_value() {
    assert_refused(load(&["--max-degraded"]), "--max-degraded");
}

#[test]
fn load_refuses_an_unknown_shape() {
    assert_refused(load(&["--shape", "triangle"]), "--shape");
}

#[test]
fn load_accepts_a_shape_in_any_case() {
    let out = load(&["--shape", "CHAIN", "--addr", "127.0.0.1:1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert!(stderr.contains("request failed"), "stderr {stderr:?}");
}

#[test]
fn load_trace_takes_no_value() {
    let out = load(&["--trace", "--addr", "127.0.0.1:1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert!(stderr.contains("request failed"), "stderr {stderr:?}");
}
