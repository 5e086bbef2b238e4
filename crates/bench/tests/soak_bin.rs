//! Argument handling of the `soak` binary: real process, real exit codes.

use std::process::Command;

#[test]
fn perturbed_link_outside_the_network_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(["--peers", "12", "--superpeers", "6", "--points", "10", "--queries", "2"])
        .args(["--quiet", "--perturb-link", "0:99:5000000"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: --perturb-link node out of range"), "{stderr}");
}
