//! The identity shortcut of shared value payloads changes no answer.
//!
//! Every compound [`Value`] holds its payload in a shared copy-on-write
//! wrapper whose `==` and `cmp` return at once when both sides are the same
//! allocation. These tests pin that this is only a shortcut: on generated
//! nested values, comparing, ordering and hashing values that share some,
//! all or none of their payloads gives exactly the answers of pointer-
//! disjoint rebuilds of the same values; and a golden list of fixed values
//! keeps its `Debug`, `Display` and `fx_hash` renderings.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use proptest::prelude::*;

use inseq_kernel::hash::fx_hash;
use inseq_kernel::{GlobalStore, Map, Multiset, Value};

/// Randomized values covering every [`Value`] variant, nested up to three
/// levels deep.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        (false..true).prop_map(Value::Bool),
        (-4i64..4).prop_map(Value::Int),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Value::some),
            Just(Value::none()),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::tuple),
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| Value::set(items.into_iter().collect())),
            proptest::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| Value::bag(items.into_iter().collect())),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::seq),
            (
                inner.clone(),
                proptest::collection::vec((inner.clone(), inner), 0..3)
            )
                .prop_map(|(default, entries)| {
                    let mut map = Map::new(default);
                    for (k, v) in entries {
                        map.set_in_place(k, v);
                    }
                    Value::map(map)
                }),
        ]
    })
}

/// A copy of `v` in which each payload is shared with `v` when `share()`
/// says so, and otherwise freshly allocated around copies of its elements.
fn rebuild_where(v: &Value, share: &mut impl FnMut() -> bool) -> Value {
    if share() {
        return v.clone();
    }
    match v {
        Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Opt(None) => v.clone(),
        Value::Opt(Some(x)) => Value::some(rebuild_where(x, share)),
        Value::Tuple(vs) => Value::tuple(vs.iter().map(|x| rebuild_where(x, share)).collect()),
        Value::Set(s) => Value::set(s.iter().map(|x| rebuild_where(x, share)).collect()),
        Value::Bag(b) => {
            let mut out = Multiset::new();
            for (x, n) in b.iter_counts() {
                out.insert_n(rebuild_where(x, share), n);
            }
            Value::bag(out)
        }
        Value::Seq(vs) => Value::seq(vs.iter().map(|x| rebuild_where(x, share)).collect()),
        Value::Map(m) => {
            let mut out = Map::new(rebuild_where(m.default_value(), share));
            for (k, x) in m.iter() {
                out.set_in_place(rebuild_where(k, share), rebuild_where(x, share));
            }
            Value::map(out)
        }
    }
}

/// A pointer-disjoint copy of `v`: no payload is shared with it.
fn rebuild(v: &Value) -> Value {
    rebuild_where(v, &mut || false)
}

/// The addresses of every payload inside `v`.
fn payloads(v: &Value, out: &mut Vec<usize>) {
    match v {
        Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Opt(None) => {}
        Value::Opt(Some(x)) => {
            out.push(std::ptr::from_ref::<Value>(x).addr());
            payloads(x, out);
        }
        Value::Tuple(vs) | Value::Seq(vs) => {
            out.push(std::ptr::from_ref::<Vec<Value>>(vs).addr());
            vs.iter().for_each(|x| payloads(x, out));
        }
        Value::Set(s) => {
            out.push(std::ptr::from_ref::<BTreeSet<Value>>(s).addr());
            s.iter().for_each(|x| payloads(x, out));
        }
        Value::Bag(b) => {
            out.push(std::ptr::from_ref::<Multiset<Value>>(b).addr());
            b.distinct().for_each(|x| payloads(x, out));
        }
        Value::Map(m) => {
            out.push(std::ptr::from_ref::<Map>(m).addr());
            payloads(m.default_value(), out);
            for (k, x) in m.iter() {
                payloads(k, out);
                payloads(x, out);
            }
        }
    }
}

/// Asserts that `(x, y)` compare, order and hash exactly as their
/// pointer-disjoint rebuilds do.
fn assert_like_rebuilds(x: &Value, y: &Value) -> Result<(), TestCaseError> {
    let (rx, ry) = (rebuild(x), rebuild(y));
    prop_assert_eq!(x.cmp(y), rx.cmp(&ry), "cmp of {} and {}", x, y);
    prop_assert_eq!(x.partial_cmp(y), rx.partial_cmp(&ry));
    prop_assert_eq!(x == y, rx == ry, "== of {} and {}", x, y);
    prop_assert_eq!(x.cmp(&rx), Ordering::Equal);
    prop_assert_eq!(fx_hash(x), fx_hash(&rx));
    prop_assert_eq!(fx_hash(y), fx_hash(&ry));
    let (sx, sy) = (
        GlobalStore::new(vec![Value::Int(0), x.clone()]),
        GlobalStore::new(vec![Value::Int(0), y.clone()]),
    );
    let (rsx, rsy) = (
        GlobalStore::new(vec![Value::Int(0), rx]),
        GlobalStore::new(vec![Value::Int(0), ry]),
    );
    prop_assert_eq!(sx.cmp(&sy), rsx.cmp(&rsy));
    prop_assert_eq!(fx_hash(&sx), fx_hash(&rsx));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rebuilds_share_no_payload(v in value_strategy()) {
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        payloads(&v, &mut mine);
        payloads(&rebuild(&v), &mut theirs);
        let mine: BTreeSet<usize> = mine.into_iter().collect();
        prop_assert!(theirs.iter().all(|p| !mine.contains(p)));
    }

    #[test]
    fn shared_payloads_compare_order_and_hash_like_rebuilds(
        a in value_strategy(),
        b in value_strategy(),
        common in value_strategy(),
        mask in proptest::collection::vec(false..true, 1..12),
    ) {
        let mut bits = mask.iter().copied().cycle();
        let partial = rebuild_where(&a, &mut || bits.next().unwrap());
        let pairs = [
            // The same payloads throughout.
            (a.clone(), a.clone()),
            // Equal values sharing some sub-payloads and not others.
            (a.clone(), partial.clone()),
            (
                Value::tuple(vec![a.clone(), common.clone()]),
                Value::tuple(vec![partial, common.clone()]),
            ),
            // Different values around one shared payload.
            (a.clone(), b.clone()),
            (
                Value::tuple(vec![a.clone(), common.clone()]),
                Value::tuple(vec![b.clone(), common.clone()]),
            ),
            (
                Value::seq(vec![common.clone(), a.clone()]),
                Value::seq(vec![common.clone(), b.clone()]),
            ),
            (
                Value::map(Map::new(common.clone()).set(a.clone(), b.clone())),
                Value::map(Map::new(common.clone()).set(b.clone(), a.clone())),
            ),
        ];
        for (x, y) in &pairs {
            assert_like_rebuilds(x, y)?;
            assert_like_rebuilds(y, x)?;
        }
        // Sorting shared values gives the order of sorting their rebuilds.
        let mut shared: Vec<Value> = pairs.iter().flat_map(|(x, y)| [x.clone(), y.clone()]).collect();
        let mut rebuilt: Vec<Value> = shared.iter().map(rebuild).collect();
        shared.sort();
        rebuilt.sort();
        prop_assert_eq!(
            shared.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>(),
            rebuilt.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>()
        );
    }
}

/// Fixed values with their `Debug`, `Display` and `fx_hash` renderings,
/// recorded before payloads were shared; they must not change.
fn goldens() -> Vec<(Value, &'static str, &'static str, u64)> {
    let int = Value::Int;
    let mut bag = Multiset::new();
    bag.insert(int(4));
    bag.insert(int(4));
    bag.insert(int(5));
    let map = Map::new(int(0)).set(int(1), int(5)).set(int(2), int(7));
    let inner: BTreeSet<Value> = [Value::some(Value::none()), Value::none()]
        .into_iter()
        .collect();
    let nested = Map::new(Value::empty_set()).set(
        Value::tuple(vec![int(1), Value::Bool(true)]),
        Value::set(inner),
    );
    vec![
        (Value::Unit, "Unit", "()", 0x0000_0000_0000_0000),
        (int(-7), "Int(-7)", "-7", 0x36f1_edda_977a_88b1),
        (
            Value::some(Value::Bool(true)),
            "Opt(Some(Bool(true)))",
            "Some(true)",
            0xe473_b7d0_6c62_44a9,
        ),
        (Value::none(), "Opt(None)", "None", 0x27d0_3dca_d77b_42d6),
        (
            Value::tuple(vec![int(1), Value::some(int(2)), Value::Unit]),
            "Tuple([Int(1), Opt(Some(Int(2))), Unit])",
            "(1, Some(2), ())",
            0xa719_d47f_1ab4_9aad,
        ),
        (
            Value::set((1..=3).map(int).collect()),
            "Set({Int(1), Int(2), Int(3)})",
            "{1, 2, 3}",
            0xe98a_2973_530a_95f2,
        ),
        (
            Value::bag(bag),
            "Bag(Multiset { counts: {Int(4): 2, Int(5): 1}, len: 3 })",
            "{|4 x2, 5|}",
            0x007d_791d_fe35_fcb6,
        ),
        (
            Value::seq(vec![Value::Bool(false), int(9)]),
            "Seq([Bool(false), Int(9)])",
            "[false, 9]",
            0x3661_152f_17bf_3abe,
        ),
        (
            Value::map(map),
            "Map(Map { default: Int(0), entries: {Int(1): Int(5), Int(2): Int(7)} })",
            "[default 0, 1 := 5, 2 := 7]",
            0xefeb_a49d_b13d_5458,
        ),
        (
            Value::seq(vec![
                Value::map(nested),
                Value::empty_bag(),
                Value::empty_seq(),
            ]),
            "Seq([Map(Map { default: Set({}), entries: {Tuple([Int(1), Bool(true)]): \
             Set({Opt(None), Opt(Some(Opt(None)))})} }), Bag(Multiset { counts: {}, len: 0 }), \
             Seq([])])",
            "[[default {}, (1, true) := {None, Some(None)}], {||}, []]",
            0xcf1b_13b9_8e3d_0ce0,
        ),
    ]
}

#[test]
fn golden_renderings_and_hashes_are_unchanged() {
    for (value, debug, display, hash) in goldens() {
        assert_eq!(format!("{value:?}"), debug);
        assert_eq!(value.to_string(), display);
        assert_eq!(fx_hash(&value), hash, "fx_hash of {display}");
        // A shared clone renders and hashes alike.
        let shared = value.clone();
        assert_eq!(format!("{shared:?}"), debug);
        assert_eq!(fx_hash(&shared), hash);
    }
}

#[test]
fn a_payload_equals_and_orders_equal_to_itself() {
    for (value, ..) in goldens() {
        let shared = value.clone();
        assert_eq!(value.cmp(&shared), Ordering::Equal, "{value}");
        assert_eq!(shared.cmp(&value), Ordering::Equal, "{value}");
        assert_eq!(value, shared);
    }
}
