//! Negative-path coverage for the `table1 --only` needle filter — on both
//! the Table-1 rows and the `--large` tier: a misspelled or empty selection
//! must error out instead of silently shrinking the benchmark to nothing.
//! Also pins the `--large --json` row shape, the `--engine` choices, and
//! the rejection of unknown arguments.

use inseq_bench::{large_rows, large_rows_as_json, table1_rows_only, LargeEngine, LargeOptions};

#[test]
fn empty_needle_list_is_rejected() {
    let err = table1_rows_only(&[]).expect_err("--only with no needles must error");
    assert_eq!(err.case, "--only");
    assert!(
        err.message.contains("no needles given"),
        "unexpected message: {}",
        err.message
    );
}

#[test]
fn unmatched_needle_is_rejected_with_the_known_protocol_list() {
    let needles = vec!["ping".to_owned(), "paxoss".to_owned()];
    let err = table1_rows_only(&needles).expect_err("misspelled needle must error");
    assert_eq!(err.case, "--only");
    assert!(
        err.message.contains("`paxoss` matches no Table-1 protocol"),
        "error must name the unmatched needle: {}",
        err.message
    );
    assert!(
        err.message.contains("Paxos") && err.message.contains("Ping-Pong"),
        "error must list the known protocols: {}",
        err.message
    );
}

#[test]
fn any_unmatched_needle_fails_even_when_others_match() {
    // A matching needle must not mask the typo next to it.
    let needles = vec!["Two-phase".to_owned(), "no-such-protocol".to_owned()];
    let err = table1_rows_only(&needles).expect_err("one bad needle poisons the selection");
    assert!(
        err.message.contains("`no-such-protocol`"),
        "unexpected message: {}",
        err.message
    );
}

#[test]
fn large_tier_rejects_unmatched_needles_the_same_way() {
    let opts = LargeOptions {
        only: Some(vec!["producer".to_owned(), "paxoss".to_owned()]),
        ..LargeOptions::default()
    };
    let err = large_rows(&opts).expect_err("misspelled --large needle must error");
    assert_eq!(err.case, "--only");
    assert!(
        err.message.contains("`paxoss` matches no --large case"),
        "error must name the unmatched needle: {}",
        err.message
    );
    assert!(
        err.message.contains("known cases") && err.message.contains("Paxos"),
        "error must list the known cases: {}",
        err.message
    );
}

#[test]
fn large_selection_runs_only_the_matched_case_and_emits_json() {
    // Broadcast `n = 6` is the smallest large case by visited count, so
    // this end-to-end pass through selection, exploration, and JSON
    // emission stays cheap.
    let opts = LargeOptions {
        engines: vec![LargeEngine::Steal],
        workers: vec![2],
        runs: 1,
        only: Some(vec!["broadcast".to_owned()]),
        reduce: inseq_kernel::ReduceMode::Off,
        zoo: false,
    };
    let rows = large_rows(&opts).expect("broadcast large case explores cleanly");
    assert_eq!(rows.len(), 1, "one case, one engine, one worker count");
    let row = &rows[0];
    assert_eq!(row.name, "Broadcast consensus");
    assert_eq!(row.engine, LargeEngine::Steal);
    assert_eq!(row.workers, 2);
    assert!(row.visited > 0 && row.edges > 0);
    assert!(row.configs_per_sec() > 0.0);

    let json = large_rows_as_json(&rows);
    for field in [
        "\"example\": \"Broadcast consensus\"",
        "\"engine\": \"steal\"",
        "\"workers\": 2",
        "\"machine_cores\": ",
        "\"configs_per_sec\": ",
        "\"visited_configs\": ",
        "\"engine_workers\": 2",
        "\"engine_expanded\": [",
    ] {
        assert!(json.contains(field), "missing `{field}` in: {json}");
    }
}

#[test]
fn removed_mpsc_engine_is_rejected_with_the_valid_choices() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--large", "--engine", "mpsc"])
        .output()
        .expect("table1 binary runs");
    assert_eq!(out.status.code(), Some(1), "`--engine mpsc` must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for choice in ["`seq`", "`steal`", "`compare`"] {
        assert!(
            stderr.contains(choice),
            "error must list {choice}: {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "no rows may run: {:?}", out.stdout);
}

#[test]
fn unknown_flags_and_stray_positionals_are_rejected_with_the_valid_flags() {
    // `--exec` is retired: the VM is the only whole-run evaluation mode, so
    // `--exec interp` must fail loudly instead of quietly running the VM.
    // `--jobs` is retired too: Table-1 rows run one after another.
    for (args, offending) in [
        (&["--exec", "interp"][..], "--exec"),
        (&["--jobs", "2"][..], "--jobs"),
        (&["--only", "Ping-Pong", "stray"][..], "stray"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
            .args(args)
            .output()
            .expect("table1 binary runs");
        assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{offending}`")),
            "error must name the offending argument: {stderr}"
        );
        for flag in ["--only", "--json", "--large", "--engine", "--reduce"] {
            assert!(stderr.contains(flag), "error must list {flag}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "no rows may run: {:?}", out.stdout);
    }
}
