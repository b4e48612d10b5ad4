//! `kg-serve` refuses an argument list it cannot use before it generates
//! any data: exit status 2 and one stderr line naming the flag. A binary
//! that boots instead would serve until killed, so every run here is
//! bounded and killed if it outlives the bound.

use std::process::{Command, Output, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Runs `kg-serve` on an ephemeral port with `args` last, and fails the
/// test (after killing the process) if it is still running after 10 s.
fn run(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kg-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kg-serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll kg-serve").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("kg-serve {args:?} was still running after 10 s");
        }
        sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect kg-serve output")
}

/// Asserts `kg-serve args` exits 2 with one stderr line that names `flag`.
fn assert_refused(args: &[&str], flag: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
    assert!(stderr.contains(flag), "{args:?}: stderr {stderr:?}");
}

#[test]
fn unparsable_value_is_refused() {
    assert_refused(&["--workers", "four"], "--workers");
}

#[test]
fn retired_shard_codec_flag_is_refused() {
    assert_refused(&["--shard-codec", "json"], "--shard-codec");
}

#[test]
fn misspelt_flag_is_refused() {
    assert_refused(&["--wrkers", "2"], "--wrkers");
}

#[test]
fn flag_without_value_is_refused() {
    assert_refused(&["--seed"], "--seed");
}

#[test]
fn help_still_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: kg-serve"));
}
