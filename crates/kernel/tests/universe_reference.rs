//! The id-level [`StateUniverse`] against a reference built the way the
//! universe used to be built: owned stores, pending asyncs and
//! configurations in `BTree` collections, absorbed one configuration at a
//! time. On every Table-1 `P2` exploration and every scenario-zoo program
//! (the sources of `fuzz/corpus/zoo-*.sexp`), from both explorers and with
//! invariant-style pseudo-configurations added afterwards, the two must
//! agree store for store and in the same order: iteration order decides
//! which violation and which witness a premise reports first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use inseq_engine::ParallelExplorer;
use inseq_kernel::{
    ActionName, ConcurrentInterner, Config, Explorer, GlobalStore, PendingAsync, StateUniverse,
    Value,
};
use inseq_protocols::common::ExplorationCase;

/// The universe as owned trees, absorbed exactly as the old
/// `StateUniverse::absorb_config` did.
#[derive(Default)]
struct Reference {
    stores: BTreeSet<GlobalStore>,
    coenabled: BTreeMap<(PendingAsync, PendingAsync), BTreeSet<GlobalStore>>,
    enabled_at: BTreeMap<ActionName, BTreeSet<(GlobalStore, Vec<Value>)>>,
    provenance: BTreeMap<GlobalStore, Config>,
}

impl Reference {
    fn absorb_config(&mut self, config: &Config) {
        self.provenance
            .entry(config.globals.clone())
            .or_insert_with(|| config.clone());
        self.stores.insert(config.globals.clone());
        let pas: Vec<&PendingAsync> = config.pending.distinct().collect();
        for pa in &pas {
            self.enabled_at
                .entry(pa.action.clone())
                .or_default()
                .insert((config.globals.clone(), pa.args.clone()));
        }
        for (i, a) in pas.iter().enumerate() {
            for (j, b) in pas.iter().enumerate() {
                if i == j && config.pending.count(a) < 2 {
                    continue;
                }
                self.coenabled
                    .entry(((*a).clone(), (*b).clone()))
                    .or_default()
                    .insert(config.globals.clone());
            }
        }
    }
}

/// Pseudo-configurations in the shape the IS check adds: some pair a
/// reachable store with another configuration's bag, some carry stores no
/// configuration reaches, and some repeat a pending async so it is
/// co-enabled with itself.
fn pseudo_configs(reachable: &[Config]) -> Vec<Config> {
    let n = reachable.len();
    (0..n.min(40))
        .map(|k| {
            let mut bag = reachable[(k * 7 + 3) % n].pending.clone();
            if k % 3 == 0 {
                bag.insert(PendingAsync::new("Zz", vec![Value::Int(k as i64)]));
                bag.insert(PendingAsync::new("Zz", vec![Value::Int(k as i64)]));
            }
            let globals = if k % 2 == 0 {
                reachable[(k * 13) % n].globals.clone()
            } else {
                let width = reachable[0].globals.len();
                GlobalStore::new(vec![Value::Int(-(k as i64)); width])
            };
            Config::new(globals, bag)
        })
        .collect()
}

fn resolve_stores(u: &StateUniverse, ids: &[inseq_kernel::StoreId]) -> Vec<GlobalStore> {
    ids.iter().map(|&s| u.interner().store(s).clone()).collect()
}

/// Asserts `u` indexes exactly `reference`, in the same order; `reachable`
/// tells which provenance configurations are real (the rest are
/// pseudo-configurations, which the universe no longer records).
fn assert_agree(
    label: &str,
    u: &StateUniverse,
    reference: &Reference,
    reachable: &BTreeSet<&Config>,
) {
    let interner = u.interner();
    assert_eq!(
        resolve_stores(u, u.stores()),
        reference.stores.iter().cloned().collect::<Vec<_>>(),
        "{label}: stores"
    );
    let pairs: Vec<((PendingAsync, PendingAsync), Vec<GlobalStore>)> = u
        .coenabled()
        .map(|(a, b, stores)| {
            (
                (interner.pa(a).clone(), interner.pa(b).clone()),
                resolve_stores(u, stores),
            )
        })
        .collect();
    let expected: Vec<((PendingAsync, PendingAsync), Vec<GlobalStore>)> = reference
        .coenabled
        .iter()
        .map(|(pair, stores)| (pair.clone(), stores.iter().cloned().collect()))
        .collect();
    assert_eq!(pairs, expected, "{label}: co-enabled pairs");
    for (action, inputs) in &reference.enabled_at {
        let got: Vec<(GlobalStore, Vec<Value>)> = u
            .enabled_at(action)
            .iter()
            .map(|&(s, pa)| (interner.store(s).clone(), interner.pa(pa).args.clone()))
            .collect();
        assert_eq!(
            got,
            inputs.iter().cloned().collect::<Vec<_>>(),
            "{label}: enabled_at({action})"
        );
        let by_first: Vec<_> = u.coenabled_with_first(action).collect();
        assert_eq!(
            by_first.len(),
            reference
                .coenabled
                .keys()
                .filter(|(a, _)| &a.action == action)
                .count(),
            "{label}: coenabled_with_first({action})"
        );
    }
    for &store in u.stores() {
        let first = &reference.provenance[interner.store(store)];
        let got = u.provenance(store).map(|c| interner.resolve_config(c));
        let want = reachable.contains(first).then(|| first.clone());
        assert_eq!(
            got,
            want,
            "{label}: provenance of {}",
            interner.store(store)
        );
    }
}

fn check_case(case: &ExplorationCase) {
    let label = case.to_string();
    let exp = Explorer::new(&case.program)
        .explore([case.init.clone()])
        .unwrap();
    let configs: Vec<Config> = exp.configs().collect();
    let reachable: BTreeSet<&Config> = configs.iter().collect();
    let mut reference = Reference::default();
    for config in &configs {
        reference.absorb_config(config);
    }
    let mut u = StateUniverse::from_exploration(&exp);
    assert_agree(&format!("{label} (sequential)"), &u, &reference, &reachable);

    // Pseudo-configurations go in after the reachable ones, as the IS check
    // adds its invariant's transitions.
    let pseudo = pseudo_configs(&configs);
    let interner: Arc<ConcurrentInterner> = Arc::clone(u.interner());
    u.extend(pseudo.iter().map(|c| {
        (
            interner.intern_store(&c.globals),
            interner.intern_bag(&c.pending),
        )
    }));
    for config in &pseudo {
        reference.absorb_config(config);
    }
    assert_agree(&format!("{label} (extended)"), &u, &reference, &reachable);

    // The parallel explorer's interner numbers configurations differently;
    // the index must not care.
    let par = ParallelExplorer::new(&case.program)
        .with_workers(2)
        .explore([case.init.clone()])
        .unwrap();
    let par_configs: Vec<Config> = par.configs().collect();
    let mut reference = Reference::default();
    for config in &par_configs {
        reference.absorb_config(config);
    }
    let u = StateUniverse::new(Arc::clone(par.interner()));
    let reachable: BTreeSet<&Config> = par_configs.iter().collect();
    assert_agree(&format!("{label} (parallel)"), &u, &reference, &reachable);
}

#[test]
fn table1_universes_match_the_reference() {
    let cases = inseq_protocols::exploration_cases();
    assert_eq!(cases.len(), 7);
    for case in &cases {
        check_case(case);
    }
}

#[test]
fn zoo_universes_match_the_reference() {
    let cases = inseq_protocols::zoo::zoo_exploration_cases();
    assert_eq!(cases.len(), 3);
    for case in &cases {
        check_case(case);
    }
}
