//! Stress and equivalence tests for the lock-free sharded
//! [`ConcurrentInterner`].
//!
//! The stress test hammers one shared interner from many threads with a
//! mixed intern/resolve workload drawn from a small value universe (so
//! dedup races are frequent) and then checks the two invariants every
//! explorer relies on: an id always resolves to the value that was
//! interned under it, and ids are canonical — two threads interning equal
//! values get the same id, distinct values never share one.
//!
//! The proptest drives the interner and a plain model — one `Vec` plus
//! `HashMap` per arena, ids assigned in first-intern order — through the
//! same operation sequence and requires them to agree on every id, every
//! fresh/duplicate verdict, every resolved object, every probe for present
//! and absent items, and every arena count.

use std::collections::HashMap;

use inseq_kernel::{ConcurrentInterner, Config, GlobalStore, Multiset, PendingAsync, Value};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 100_000;

/// Deterministic per-thread pseudo-random stream (an LCG — no external
/// dependencies, reproducible failures).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

const ACTIONS: [&str; 3] = ["Alpha", "Beta", "Gamma"];

fn mk_value(r: u64) -> Value {
    Value::Int((r % 64) as i64)
}

fn mk_pa(r: u64) -> PendingAsync {
    PendingAsync::new(
        ACTIONS[(r % 3) as usize],
        vec![
            Value::Int((r % 8) as i64),
            Value::Int(((r >> 8) % 4) as i64),
        ],
    )
}

fn mk_bag(r: u64) -> Multiset<PendingAsync> {
    let mut bag = Multiset::new();
    bag.insert_n(mk_pa(r), 1 + (r % 3) as usize);
    if r.is_multiple_of(2) {
        bag.insert_n(mk_pa(r >> 16), 1);
    }
    bag
}

fn mk_config(r: u64) -> Config {
    let store = GlobalStore::new(vec![
        Value::Int((r % 5) as i64),
        Value::Int(((r >> 4) % 5) as i64),
    ]);
    Config::new(store, mk_bag(r >> 8))
}

/// What one thread observed: every id it was handed, paired with the value
/// it interned (or resolved) under that id.
#[derive(Default)]
struct Observations {
    values: Vec<(Value, inseq_kernel::ValueId)>,
    pas: Vec<(PendingAsync, inseq_kernel::PaId)>,
    bags: Vec<(Multiset<PendingAsync>, inseq_kernel::BagId)>,
    configs: Vec<(Config, inseq_kernel::ConfigId)>,
}

/// 8 threads × 100k mixed intern/resolve operations against one shared
/// interner; afterwards every recorded id must resolve to its original
/// value and the value → id mapping must be a bijection on the observed
/// universe.
#[test]
fn concurrent_intern_stress_ids_are_canonical_and_resolve() {
    let interner = ConcurrentInterner::new();
    let logs: Vec<Observations> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let interner = &interner;
                scope.spawn(move || {
                    let mut rng = Rng(0x9E3779B97F4A7C15 ^ (t as u64 + 1));
                    let mut obs = Observations::default();
                    for _ in 0..OPS_PER_THREAD {
                        let r = rng.next();
                        match r % 10 {
                            // Intern a value and immediately resolve it.
                            0..=3 => {
                                let v = mk_value(rng.next());
                                let id = interner.intern_value(&v);
                                assert_eq!(interner.value(id), &v);
                                obs.values.push((v, id));
                            }
                            // Intern a pending async.
                            4 | 5 => {
                                let pa = mk_pa(rng.next());
                                let id = interner.intern_pa(&pa);
                                assert_eq!(interner.pa(id), &pa);
                                obs.pas.push((pa, id));
                            }
                            // Re-resolve an id recorded earlier — reads are
                            // lock-free and must stay stable under
                            // concurrent growth.
                            6 | 7 => {
                                if !obs.values.is_empty() {
                                    let (v, id) =
                                        &obs.values[(rng.next() as usize) % obs.values.len()];
                                    assert_eq!(interner.value(*id), v);
                                    assert_eq!(interner.find_value(v), Some(*id));
                                }
                                if !obs.pas.is_empty() {
                                    let (pa, id) = &obs.pas[(rng.next() as usize) % obs.pas.len()];
                                    assert_eq!(interner.pa(*id), pa);
                                }
                            }
                            // Intern a bag.
                            8 => {
                                let bag = mk_bag(rng.next());
                                let id = interner.intern_bag(&bag);
                                assert_eq!(interner.resolve_bag(id), bag);
                                obs.bags.push((bag, id));
                            }
                            // Intern a config (store + bag + config dedup in
                            // one operation, like the explorer's phase 3).
                            _ => {
                                let config = mk_config(rng.next());
                                let (id, _fresh) = interner.intern_config(&config, None);
                                assert_eq!(interner.resolve_config(id), config);
                                obs.configs.push((config, id));
                            }
                        }
                    }
                    obs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Cross-thread canonicality: equal values agree on their id, and no id
    // is shared by two distinct values (in which case resolution would
    // contradict one of the two logs — checked via the id → value map).
    let mut value_ids: HashMap<Value, inseq_kernel::ValueId> = HashMap::new();
    let mut ids_to_value: HashMap<inseq_kernel::ValueId, Value> = HashMap::new();
    let mut pa_ids: HashMap<PendingAsync, inseq_kernel::PaId> = HashMap::new();
    let mut bag_ids: HashMap<Vec<(PendingAsync, usize)>, inseq_kernel::BagId> = HashMap::new();
    let mut config_ids: HashMap<Config, inseq_kernel::ConfigId> = HashMap::new();
    for obs in &logs {
        for (v, id) in &obs.values {
            assert_eq!(interner.value(*id), v, "id must resolve to its value");
            assert_eq!(*value_ids.entry(v.clone()).or_insert(*id), *id);
            assert_eq!(ids_to_value.entry(*id).or_insert_with(|| v.clone()), v);
        }
        for (pa, id) in &obs.pas {
            assert_eq!(interner.pa(*id), pa);
            assert_eq!(*pa_ids.entry(pa.clone()).or_insert(*id), *id);
        }
        for (bag, id) in &obs.bags {
            assert_eq!(&interner.resolve_bag(*id), bag);
            let key: Vec<(PendingAsync, usize)> =
                bag.iter_counts().map(|(pa, n)| (pa.clone(), n)).collect();
            assert_eq!(*bag_ids.entry(key).or_insert(*id), *id);
        }
        for (config, id) in &obs.configs {
            assert_eq!(&interner.resolve_config(*id), config);
            assert_eq!(*config_ids.entry(config.clone()).or_insert(*id), *id);
        }
    }
    // Distinct values got distinct ids (injectivity over the whole run).
    assert_eq!(value_ids.len(), ids_to_value.len());
    // The arenas hold exactly the distinct objects observed (the config op
    // also interns stores/bags/pas, so only values — interned through one
    // path — admit an exact count; for the rest the arena can only be a
    // superset of the directly-observed universe).
    assert!(interner.value_count() >= value_ids.len());
    assert!(interner.pa_count() >= pa_ids.len());
    assert!(interner.bag_count() >= bag_ids.len());
    assert_eq!(interner.config_count(), config_ids.len());
    // Every insert was counted by exactly one shard.
    let contention = interner.contention();
    assert!(contention.inserts_total() >= (value_ids.len() + pa_ids.len()) as u64);
}

mod model {
    use std::hash::Hash;

    use super::*;
    use proptest::prelude::*;

    /// One arena of the model: objects in first-intern order, plus the
    /// reverse index that makes interning idempotent.
    struct Arena<T> {
        items: Vec<T>,
        index: HashMap<T, usize>,
    }

    impl<T: Clone + Eq + Hash> Arena<T> {
        fn new() -> Self {
            Arena {
                items: Vec::new(),
                index: HashMap::new(),
            }
        }

        /// The item's index and whether this call added it.
        fn intern(&mut self, item: T) -> (usize, bool) {
            if let Some(&i) = self.index.get(&item) {
                return (i, false);
            }
            self.items.push(item.clone());
            self.index.insert(item, self.items.len() - 1);
            (self.items.len() - 1, true)
        }

        fn find(&self, item: &T) -> Option<usize> {
            self.index.get(item).copied()
        }
    }

    /// The whole interner, modelled arena by arena with the same layering:
    /// a store is its slot values' indices, a bag its `(pa index, count)`
    /// entries in multiset order, a config its `(store, bag)` indices.
    struct Model {
        values: Arena<Value>,
        stores: Arena<Vec<usize>>,
        pas: Arena<PendingAsync>,
        bags: Arena<Vec<(usize, usize)>>,
        configs: Arena<(usize, usize)>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                values: Arena::new(),
                stores: Arena::new(),
                pas: Arena::new(),
                bags: Arena::new(),
                configs: Arena::new(),
            }
        }

        fn store(&mut self, g: &GlobalStore) -> usize {
            let key = g.iter().map(|v| self.values.intern(v.clone()).0).collect();
            self.stores.intern(key).0
        }

        fn bag(&mut self, bag: &Multiset<PendingAsync>) -> usize {
            let key = bag
                .iter_counts()
                .map(|(pa, n)| (self.pas.intern(pa.clone()).0, n))
                .collect();
            self.bags.intern(key).0
        }

        fn config(&mut self, c: &Config) -> (usize, bool) {
            let store = self.store(&c.globals);
            let bag = self.bag(&c.pending);
            self.configs.intern((store, bag))
        }

        /// Read-only probes, mirroring the interner's `find_*`.
        fn find_store(&self, g: &GlobalStore) -> Option<usize> {
            let key: Option<Vec<usize>> = g.iter().map(|v| self.values.find(v)).collect();
            self.stores.find(&key?)
        }

        fn find_bag(&self, bag: &Multiset<PendingAsync>) -> Option<usize> {
            let key: Option<Vec<(usize, usize)>> = bag
                .iter_counts()
                .map(|(pa, n)| Some((self.pas.find(pa)?, n)))
                .collect();
            self.bags.find(&key?)
        }

        fn find_config(&self, c: &Config) -> Option<usize> {
            let store = self.find_store(&c.globals)?;
            let bag = self.find_bag(&c.pending)?;
            self.configs.find(&(store, bag))
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Value(i64),
        Pa(u8, Vec<i64>),
        Bag(Vec<(u8, u8)>),
        Config(Vec<i64>, Vec<(u8, u8)>),
    }

    /// Operations over a small universe, so duplicates are frequent.
    /// `wide` widens every range, so probes built from it also name items
    /// that were never interned.
    fn op_strategy(wide: i64) -> impl Strategy<Value = Op> {
        let k = u8::try_from(wide).unwrap();
        prop_oneof![
            (0i64..8 + wide).prop_map(Op::Value),
            (0u8..3, proptest::collection::vec(0i64..5 + wide, 0..3))
                .prop_map(|(a, v)| Op::Pa(a, v)),
            proptest::collection::vec((0u8..4 + k, 1u8..3), 0..3).prop_map(Op::Bag),
            (
                proptest::collection::vec(0i64..4 + wide, 2),
                proptest::collection::vec((0u8..4 + k, 1u8..3), 0..3)
            )
                .prop_map(|(s, b)| Op::Config(s, b)),
        ]
    }

    fn pa_of(k: u8, args: &[i64]) -> PendingAsync {
        PendingAsync::new(
            ACTIONS[(k % 3) as usize],
            args.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>(),
        )
    }

    fn bag_of(entries: &[(u8, u8)]) -> Multiset<PendingAsync> {
        let mut bag = Multiset::new();
        for &(k, n) in entries {
            bag.insert_n(pa_of(k, &[i64::from(k)]), n as usize);
        }
        bag
    }

    fn config_of(slots: &[i64], entries: &[(u8, u8)]) -> Config {
        let store = GlobalStore::new(slots.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>());
        Config::new(store, bag_of(entries))
    }

    fn assert_counts(conc: &ConcurrentInterner, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(conc.value_count(), model.values.items.len());
        prop_assert_eq!(conc.store_count(), model.stores.items.len());
        prop_assert_eq!(conc.pa_count(), model.pas.items.len());
        prop_assert_eq!(conc.bag_count(), model.bags.items.len());
        prop_assert_eq!(conc.config_count(), model.configs.items.len());
        Ok(())
    }

    proptest! {
        /// The interner against the model: after every operation the id is
        /// the model's first-intern index, the fresh/duplicate verdict and
        /// every arena count agree, and the id resolves to the object; then
        /// every `find_*` probe — over interned and never-interned items —
        /// agrees with the model's.
        #[test]
        fn interner_matches_vec_and_hashmap_model(
            ops in proptest::collection::vec(op_strategy(0), 1..120),
            probes in proptest::collection::vec(op_strategy(3), 0..40),
        ) {
            let conc = ConcurrentInterner::new();
            let mut model = Model::new();
            for op in &ops {
                match op {
                    Op::Value(x) => {
                        let v = Value::Int(*x);
                        let id = conc.intern_value(&v);
                        prop_assert_eq!(id.index(), model.values.intern(v.clone()).0);
                        prop_assert_eq!(conc.value(id), &v);
                    }
                    Op::Pa(k, args) => {
                        let pa = pa_of(*k, args);
                        let id = conc.intern_pa(&pa);
                        prop_assert_eq!(id.index(), model.pas.intern(pa.clone()).0);
                        prop_assert_eq!(conc.pa(id), &pa);
                    }
                    Op::Bag(entries) => {
                        let bag = bag_of(entries);
                        let id = conc.intern_bag(&bag);
                        prop_assert_eq!(id.index(), model.bag(&bag));
                        prop_assert_eq!(conc.resolve_bag(id), bag);
                    }
                    Op::Config(slots, entries) => {
                        let config = config_of(slots, entries);
                        let (id, fresh) = conc.intern_config(&config, None);
                        prop_assert_eq!((id.index(), fresh), model.config(&config));
                        prop_assert_eq!(conc.resolve_config(id), config);
                    }
                }
                assert_counts(&conc, &model)?;
            }
            for op in ops.iter().chain(&probes) {
                match op {
                    Op::Value(x) => {
                        let v = Value::Int(*x);
                        let found = conc.find_value(&v).map(inseq_kernel::ValueId::index);
                        prop_assert_eq!(found, model.values.find(&v));
                    }
                    Op::Pa(k, args) => {
                        let pa = pa_of(*k, args);
                        let found = conc.find_pa(&pa).map(inseq_kernel::PaId::index);
                        prop_assert_eq!(found, model.pas.find(&pa));
                    }
                    Op::Bag(entries) => {
                        let bag = bag_of(entries);
                        let found = conc.find_bag(&bag).map(inseq_kernel::BagId::index);
                        prop_assert_eq!(found, model.find_bag(&bag));
                    }
                    Op::Config(slots, entries) => {
                        let config = config_of(slots, entries);
                        let found = conc.find_config(&config).map(inseq_kernel::ConfigId::index);
                        prop_assert_eq!(found, model.find_config(&config));
                        let store = conc.find_store(&config.globals);
                        prop_assert_eq!(
                            store.map(inseq_kernel::StoreId::index),
                            model.find_store(&config.globals)
                        );
                    }
                }
            }
            // Probes never intern.
            assert_counts(&conc, &model)?;
        }
    }
}
