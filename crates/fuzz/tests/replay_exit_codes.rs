//! Exit-code contract of `fuzz --replay` on corpus metadata, exercised
//! against the real binary (`CARGO_BIN_EXE_fuzz`): malformed `;@` blocks
//! and metadata lacking its `;@ seed` line are *usage errors* — exit 2
//! with a diagnostic on stderr — never panics; intact metadata verifies to
//! exit 0; stale metadata is a finding, exit 1.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use inseq_fuzz::corpus::zoo_specs;
use inseq_lang::serial::write_spec;

fn scratch(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("inseq-replay-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("scratch corpus file");
    path
}

fn replay(path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fuzz"))
        .args(["--replay", path.to_str().unwrap(), "--budget", "2000"])
        .output()
        .expect("fuzz binary runs")
}

fn spec_text() -> String {
    let (_, spec) = zoo_specs().remove(1); // inc-double-race: small, fast
    write_spec(&spec)
}

#[test]
fn metadata_without_seed_exits_2_with_a_diagnostic_not_a_panic() {
    // Metadata present (kind, verdict) but no `;@ seed` line.
    let text = format!(";@ kind promoted\n;@ verdict failure\n{}", spec_text());
    let path = scratch("no-seed.sexp", &text);
    let out = replay(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected usage-error exit 2; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(";@ seed"),
        "diagnostic must name the missing directive; got:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be a diagnostic, not a panic:\n{stderr}"
    );
}

#[test]
fn malformed_metadata_line_exits_2() {
    for (name, bad_line) in [
        ("bad-key.sexp", ";@ flavor spicy"),
        ("bad-value.sexp", ";@ visited lots"),
        ("missing-value.sexp", ";@ seed"),
    ] {
        let text = format!("{bad_line}\n{}", spec_text());
        let path = scratch(name, &text);
        let out = replay(&path);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{name}: expected exit 2; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn metadata_free_corpus_file_still_replays_to_exit_0() {
    let path = scratch("plain.sexp", &spec_text());
    let out = replay(&path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stale_metadata_exits_1_and_names_the_drifted_field() {
    // Claim a wrong visited count; verification must flag exactly that.
    let text = format!(
        ";@ seed 0\n;@ kind promoted\n;@ verdict failure\n;@ visited 99999\n{}",
        spec_text()
    );
    let path = scratch("stale.sexp", &text);
    let out = replay(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(
        stdout.contains("STALE") && stdout.contains("visited"),
        "stale report must name the drifted field:\n{stdout}"
    );
}
