//! `kg-shard` refuses an argument list it cannot use before it generates
//! any data: exit status 2 and one stderr line naming the flag. A shard
//! server that boots instead would serve until killed, so every run here is
//! bounded and killed if it outlives the bound.

use std::process::{Command, Output, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Runs `kg-shard` on an ephemeral port with `args` last, and fails the
/// test (after killing the process) if it is still running after 10 s.
fn run(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kg-shard"))
        .args(["--listen", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn kg-shard");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("kg-shard {args:?} was still running after 10 s");
        }
        sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

/// Asserts `out` is an exit 2 with one stderr line that names `flag`.
fn assert_refused(out: Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(stderr.contains(flag), "stderr {stderr:?}");
}

#[test]
fn zero_shards_is_refused() {
    assert_refused(run(&["--shards", "0"]), "--shards");
}

#[test]
fn misspelt_flag_is_refused() {
    assert_refused(run(&["--shrads", "2"]), "--shrads");
}

#[test]
fn unparsable_value_is_refused() {
    assert_refused(run(&["--seed", "seven"]), "--seed");
}

#[test]
fn flag_without_value_is_refused() {
    assert_refused(run(&["--snapshot"]), "--snapshot");
}

#[test]
fn help_still_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: kg-shard"));
}
