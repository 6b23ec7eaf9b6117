//! The scenario zoo's verified-replay gate.
//!
//! Each `fuzz/corpus/zoo-*.sexp` file carries `;@` metadata recorded when
//! the protocol was promoted from the fuzzing campaign: verdict, visited
//! count, shortest witness-trace length, and the coverage-map signature.
//! This test re-runs every zoo entry and requires it to reproduce all four
//! — so a kernel, reducer, VM, or exporter change that shifts any zoo
//! protocol's observable behavior fails here with the drifted field named,
//! instead of silently invalidating the corpus. It also pins the spec
//! sections to the current `inseq_protocols::zoo` sources, mirroring
//! `tests/fuzz_corpus.rs`'s staleness gate for the Table 1 seeds.
//!
//! Regenerate after an intentional change with `fuzz --export-zoo`.

use std::fs;
use std::path::PathBuf;

use inseq_fuzz::coverage::MeasureOptions;
use inseq_fuzz::meta::{verify, ReplayMeta};
use inseq_lang::serial::{parse_spec, write_spec};

fn zoo_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("fuzz/corpus/{stem}.sexp"))
}

fn replay_verified(stem: &str) {
    let path = zoo_path(stem);
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let spec = parse_spec(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
    let meta = ReplayMeta::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
    assert!(
        !meta.is_empty() && meta.require_seed().is_ok(),
        "{stem}: zoo entries must carry full `;@` metadata"
    );
    assert!(
        meta.verdict.is_some() && meta.visited.is_some() && meta.coverage.is_some(),
        "{stem}: promotion metadata is incomplete: {meta:?}"
    );
    // The recorded values were measured at the default options; verifying
    // at the same options must reproduce them bit-for-bit.
    let mismatches = verify(&spec, &meta, &MeasureOptions::default());
    assert!(
        mismatches.is_empty(),
        "{stem}: zoo entry is stale — regenerate with `fuzz --export-zoo`:\n{}",
        mismatches
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn zoo_starved_relay_replays_verified() {
    replay_verified("zoo-starved-relay");
}

#[test]
fn zoo_inc_double_race_replays_verified() {
    replay_verified("zoo-inc-double-race");
}

#[test]
fn zoo_sum_guard_replays_verified() {
    replay_verified("zoo-sum-guard");
}

/// The recorded verdicts cover all three behavior classes the zoo exists
/// to pin: a deadlock, a schedule-dependent assertion failure, a pass.
#[test]
fn zoo_covers_all_three_verdict_classes() {
    let verdict = |stem: &str| {
        let text = fs::read_to_string(zoo_path(stem)).expect("zoo file");
        ReplayMeta::parse(&text)
            .expect("meta")
            .verdict
            .expect("verdict")
    };
    assert_eq!(verdict("zoo-starved-relay"), "deadlock");
    assert_eq!(verdict("zoo-inc-double-race"), "failure");
    assert_eq!(verdict("zoo-sum-guard"), "pass");
}

/// The checked-in zoo entries stay in sync with `inseq_protocols::zoo`:
/// re-exporting yields byte-identical spec sections.
#[test]
fn zoo_corpus_matches_the_current_exporter() {
    let specs = inseq_fuzz::corpus::zoo_specs();
    assert_eq!(specs.len(), 3, "the zoo roster grew — extend this gate");
    for (stem, spec) in specs {
        let text = fs::read_to_string(zoo_path(&stem))
            .unwrap_or_else(|e| panic!("{stem}: missing zoo corpus file: {e}"));
        let on_disk = parse_spec(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert_eq!(
            write_spec(&on_disk),
            write_spec(&spec),
            "{stem}: fuzz/corpus/{stem}.sexp is stale — regenerate with `fuzz --export-zoo`"
        );
    }
}
