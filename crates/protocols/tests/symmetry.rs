//! Validity of the Paxos acceptor-symmetry spec: the group action must be a
//! *true* automorphism of the reachable transition system, and
//! canonicalization must behave like a quotient map — otherwise `--reduce
//! sym` silently verifies the wrong program.

use std::collections::BTreeSet;

use inseq_kernel::{Config, Explorer};
use inseq_protocols::paxos;
use proptest::prelude::*;

/// A small instance whose full reachable set we can afford to enumerate.
fn reachable() -> (inseq_kernel::SymmetrySpec, Vec<Config>) {
    let instance = paxos::Instance::new(2, 2);
    let case = paxos::exploration_case(instance);
    let spec = case.symmetry.expect("Paxos cases carry a symmetry spec");
    let exploration = Explorer::new(&case.program)
        .explore([case.init])
        .expect("small Paxos explores");
    let configs: Vec<Config> = exploration.configs().collect();
    (spec, configs)
}

/// Permuting any reachable configuration by any group element yields a
/// reachable configuration: the spec is an automorphism of the reachable
/// set, not just a syntactic rewrite. This is the property quotient
/// soundness rests on.
#[test]
fn group_action_preserves_reachability() {
    let (spec, configs) = reachable();
    let universe: BTreeSet<&Config> = configs.iter().collect();
    assert!(!spec.perms().is_empty(), "N = 2 has a non-trivial group");
    for config in &configs {
        for perm in spec.perms() {
            let image = spec.permute_config(config, perm);
            assert!(
                universe.contains(&image),
                "permuting reachable config {config} by {perm:?} left the reachable set: {image}"
            );
        }
    }
}

/// The initial configuration is a fixed point of the whole group — the
/// explorers rely on this when they seed the frontier uncanonicalized.
#[test]
fn initial_config_is_symmetric() {
    let instance = paxos::Instance::new(2, 2);
    let case = paxos::exploration_case(instance);
    let spec = case.symmetry.expect("spec attached");
    for perm in spec.perms() {
        assert_eq!(spec.permute_config(&case.init, perm), case.init);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `canon` is idempotent: canonicalizing a representative is a no-op.
    #[test]
    fn canon_is_idempotent(index in 0usize..10_000) {
        let (spec, configs) = reachable();
        let config = &configs[index % configs.len()];
        let canon = spec.canon_config(config);
        prop_assert_eq!(spec.canon_config(&canon), canon);
    }

    /// `canon` is constant on orbits: every image of a configuration under
    /// the group canonicalizes to the same representative, so interning
    /// after canonicalization really does collapse orbits to one node.
    #[test]
    fn canon_is_permutation_invariant(index in 0usize..10_000, which in 0usize..8) {
        let (spec, configs) = reachable();
        let config = &configs[index % configs.len()];
        let canon = spec.canon_config(config);
        let perm = &spec.perms()[which % spec.perms().len()];
        let image = spec.permute_config(config, perm);
        prop_assert_eq!(spec.canon_config(&image), canon);
    }
}
