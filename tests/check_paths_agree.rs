//! The three premise-discharge paths of the IS rule must return identical
//! reports on every Table-1 protocol: the sequential
//! `IsApplication::check()`, `check_on` over a 2-worker parallel
//! exploration of the same instances, and the daemon's engine-scheduled
//! `check_incremental` on a 2-thread engine. All three discharge the same
//! obligation list through one driver and count `induction_steps` in the
//! shared preparation step; this test pins them to the same numbers so
//! they cannot drift apart.

use std::collections::BTreeMap;

use inductive_sequentialization::core::{ArtifactKeys, IsApplication, IsReport, ObligationCache};
use inductive_sequentialization::engine::{Engine, ParallelExplorer};
use inductive_sequentialization::protocols::{
    broadcast, chang_roberts, n_buyer, paxos, ping_pong, producer_consumer, two_phase_commit,
};

fn assert_paths_agree(label: &str, application: &IsApplication) -> IsReport {
    let sequential = application
        .check()
        .unwrap_or_else(|e| panic!("{label}: check() failed: {e}"));
    let exploration = ParallelExplorer::new(application.program())
        .with_workers(2)
        .with_budget(application.budget_limit())
        .explore(application.instances().iter().cloned())
        .unwrap_or_else(|e| panic!("{label}: parallel exploration failed: {e}"));
    let parallel = application
        .check_on(&exploration)
        .unwrap_or_else(|e| panic!("{label}: check_on(parallel) failed: {e}"));
    // Report equality covers every deterministic count, `induction_steps`
    // included; spell it out anyway so a drift names the field.
    assert_eq!(
        sequential.induction_steps, parallel.induction_steps,
        "{label}: induction-step accounting differs between paths"
    );
    assert_eq!(sequential, parallel, "{label}: reports differ");

    // No artifact keys: nothing is cacheable, so every obligation runs as
    // an engine job.
    let keys = ArtifactKeys {
        program: 0,
        actions: BTreeMap::new(),
        invariant: 0,
        replacement: 0,
        choice: 0,
    };
    let incremental = application
        .check_incremental(
            &Engine::new().with_threads(2),
            &ObligationCache::new(),
            &keys,
            &|_| {},
        )
        .unwrap_or_else(|e| panic!("{label}: check_incremental() failed: {e}"));
    assert!(
        incremental.failure.is_none(),
        "{label}: an engine-scheduled obligation failed: {:?}",
        incremental.failure
    );
    assert_eq!(
        incremental.report, sequential,
        "{label}: check_incremental report differs"
    );

    // Observability rides along on every path without entering identity:
    // each saw interner traffic and timed its premises.
    for (path, report) in [
        ("sequential", &sequential),
        ("parallel", &parallel),
        ("incremental", &incremental.report),
    ] {
        assert!(
            report.stats.intern.lookups() > 0,
            "{label}: {path} path reports no interner traffic"
        );
        assert!(
            !report.stats.premises.is_empty(),
            "{label}: {path} premise timings missing"
        );
    }
    sequential
}

#[test]
fn check_and_check_with_agree_on_all_seven_protocols() {
    let reports = [
        assert_paths_agree(
            "Broadcast consensus",
            &broadcast::oneshot_application(
                &broadcast::build(),
                &broadcast::Instance::new(&[3, 1]),
            ),
        ),
        assert_paths_agree(
            "Ping-Pong",
            &ping_pong::application(&ping_pong::build(), ping_pong::Instance::new(2)),
        ),
        assert_paths_agree(
            "Producer-Consumer",
            &producer_consumer::application(
                &producer_consumer::build(),
                producer_consumer::Instance::new(2),
            ),
        ),
        assert_paths_agree(
            "N-Buyer",
            &n_buyer::application(&n_buyer::build(), &n_buyer::Instance::new(10, &[6, 6])),
        ),
        assert_paths_agree(
            "Chang-Roberts",
            &chang_roberts::application(
                &chang_roberts::build(),
                &chang_roberts::Instance::new(&[20, 10]),
            ),
        ),
        assert_paths_agree(
            "Two-phase commit",
            &two_phase_commit::application(
                &two_phase_commit::build(),
                &two_phase_commit::Instance::new(&[true, false]),
            ),
        ),
        assert_paths_agree(
            "Paxos",
            &paxos::application(&paxos::build(), paxos::Instance::new(1, 2)),
        ),
    ];
    // Every application actually exercised the induction machinery.
    assert!(
        reports.iter().any(|r| r.induction_steps > 0),
        "no protocol produced an induction step"
    );
}
