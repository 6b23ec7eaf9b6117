//! The value domain `D` over which stores are defined.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use crate::multiset::Multiset;

/// A first-order value.
///
/// Values are totally ordered and hashable so that stores, configurations and
/// multisets of pending asyncs can be deduplicated during explicit-state
/// exploration. Maps carry a default value and are kept *canonical*: a key
/// whose value equals the default is never stored, so two maps that agree as
/// functions compare equal.
///
/// Every compound payload sits in a [`Shared`] copy-on-write wrapper, so
/// cloning a value — copying a store, reading a global into a register —
/// bumps one refcount instead of copying a tree, and a write copies one
/// level only when the payload is shared. Equality, ordering, hashing and
/// both renderings are those of the payloads themselves; the wrapper only
/// lets two values that share a payload compare in one pointer test.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A mathematical integer (bounded to `i64` in this implementation).
    Int(i64),
    /// An optional value (`None()` / `Some(v)` in the paper's Paxos figures).
    Opt(Option<Shared<Value>>),
    /// A tuple / datatype value with a constructor tag.
    Tuple(Shared<Vec<Value>>),
    /// A finite set.
    Set(Shared<BTreeSet<Value>>),
    /// A finite multiset (bag); the paper's channel type.
    Bag(Shared<Multiset<Value>>),
    /// A finite sequence; used for FIFO-queue channels.
    Seq(Shared<Vec<Value>>),
    /// A total map with a default, stored canonically (see type docs).
    Map(Shared<Map>),
}

/// A shared, copy-on-write payload of a compound [`Value`].
///
/// Clones share one allocation. [`Shared::make_mut`] hands out the payload
/// for writing, copying it first (one level: its elements are values and
/// are themselves shared) only when another clone still holds it.
///
/// `==` and [`Ord::cmp`] answer at once when both sides are the same
/// allocation — a payload equals itself — and otherwise delegate to the
/// payload, as [`Hash`], [`fmt::Debug`] and [`fmt::Display`] always do. So
/// every order, hash and rendering is exactly the payload's.
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Wraps `payload` in a fresh allocation.
    #[must_use]
    pub fn new(payload: T) -> Self {
        Shared(Arc::new(payload))
    }

    /// Whether `a` and `b` are the same allocation.
    fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl<T: Clone> Shared<T> {
    /// The payload for writing, copied first if another clone shares it.
    pub fn make_mut(this: &mut Self) -> &mut T {
        Arc::make_mut(&mut this.0)
    }

    /// The payload by value: moved out when unshared, else cloned.
    #[must_use]
    pub fn into_inner(this: Self) -> T {
        Arc::unwrap_or_clone(this.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Eq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Shared::ptr_eq(self, other) || *self.0 == *other.0
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Ord> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Shared::ptr_eq(self, other) {
            std::cmp::Ordering::Equal
        } else {
            (*self.0).cmp(&*other.0)
        }
    }
}

impl<T: Hash> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.0).hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (*self.0).fmt(f)
    }
}

impl<T: fmt::Display> fmt::Display for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (*self.0).fmt(f)
    }
}

impl Value {
    /// Builds `Some(v)`.
    #[must_use]
    pub fn some(v: Value) -> Self {
        Value::Opt(Some(Shared::new(v)))
    }

    /// Builds `None`.
    #[must_use]
    pub fn none() -> Self {
        Value::Opt(None)
    }

    /// Builds a tuple.
    #[must_use]
    pub fn tuple(items: Vec<Value>) -> Self {
        Value::Tuple(Shared::new(items))
    }

    /// Builds a set.
    #[must_use]
    pub fn set(items: BTreeSet<Value>) -> Self {
        Value::Set(Shared::new(items))
    }

    /// Builds a bag.
    #[must_use]
    pub fn bag(items: Multiset<Value>) -> Self {
        Value::Bag(Shared::new(items))
    }

    /// Builds a sequence.
    #[must_use]
    pub fn seq(items: Vec<Value>) -> Self {
        Value::Seq(Shared::new(items))
    }

    /// Builds a map value.
    #[must_use]
    pub fn map(map: Map) -> Self {
        Value::Map(Shared::new(map))
    }

    /// Builds an empty set.
    #[must_use]
    pub fn empty_set() -> Self {
        Value::set(BTreeSet::new())
    }

    /// Builds an empty bag.
    #[must_use]
    pub fn empty_bag() -> Self {
        Value::bag(Multiset::new())
    }

    /// Builds an empty sequence.
    #[must_use]
    pub fn empty_seq() -> Self {
        Value::seq(Vec::new())
    }

    /// Builds a total map that is `default` everywhere.
    #[must_use]
    pub fn const_map(default: Value) -> Self {
        Value::map(Map::new(default))
    }

    /// Returns the integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`Value::Int`]; kernel callers only invoke
    /// this after the `inseq-lang` type checker has established the sort.
    #[must_use]
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            other => panic!("expected Int, found {other:?}"),
        }
    }

    /// Returns the boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`Value::Bool`].
    #[must_use]
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected Bool, found {other:?}"),
        }
    }

    /// Returns a reference to the set payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`Value::Set`].
    #[must_use]
    pub fn as_set(&self) -> &BTreeSet<Value> {
        match self {
            Value::Set(s) => s,
            other => panic!("expected Set, found {other:?}"),
        }
    }

    /// Returns a reference to the bag payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`Value::Bag`].
    #[must_use]
    pub fn as_bag(&self) -> &Multiset<Value> {
        match self {
            Value::Bag(b) => b,
            other => panic!("expected Bag, found {other:?}"),
        }
    }

    /// Returns a reference to the sequence payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`Value::Seq`].
    #[must_use]
    pub fn as_seq(&self) -> &Vec<Value> {
        match self {
            Value::Seq(s) => s,
            other => panic!("expected Seq, found {other:?}"),
        }
    }

    /// Returns a reference to the map payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not [`Value::Map`].
    #[must_use]
    pub fn as_map(&self) -> &Map {
        match self {
            Value::Map(m) => m,
            other => panic!("expected Map, found {other:?}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Opt(None) => write!(f, "None"),
            Value::Opt(Some(v)) => write!(f, "Some({v})"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Bag(b) => write!(f, "{b}"),
            Value::Seq(s) => {
                write!(f, "[")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => write!(f, "{m}"),
        }
    }
}

/// A total map `Value → Value` with a default, stored canonically.
///
/// Keys bound to the default value are removed on insertion, so equality of
/// [`Map`]s coincides with extensional equality of the functions they denote.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Map {
    default: Value,
    entries: BTreeMap<Value, Value>,
}

impl Map {
    /// Creates the constant map equal to `default` everywhere.
    #[must_use]
    pub fn new(default: Value) -> Self {
        Map {
            default,
            entries: BTreeMap::new(),
        }
    }

    /// The default value of the map.
    #[must_use]
    pub fn default_value(&self) -> &Value {
        &self.default
    }

    /// Looks up `key`, yielding the default when no explicit entry exists.
    #[must_use]
    pub fn get(&self, key: &Value) -> &Value {
        self.entries.get(key).unwrap_or(&self.default)
    }

    /// Functional update, preserving canonicity.
    #[must_use]
    pub fn set(&self, key: Value, value: Value) -> Self {
        let mut next = self.clone();
        next.set_in_place(key, value);
        next
    }

    /// In-place update, preserving canonicity.
    pub fn set_in_place(&mut self, key: Value, value: Value) {
        if value == self.default {
            self.entries.remove(&key);
        } else {
            self.entries.insert(key, value);
        }
    }

    /// Iterates over the non-default entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Value)> {
        self.entries.iter()
    }

    /// Number of non-default entries.
    #[must_use]
    pub fn support_len(&self) -> usize {
        self.entries.len()
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[default {}", self.default)?;
        for (k, v) in &self.entries {
            write!(f, ", {k} := {v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_is_canonical() {
        let m = Map::new(Value::Int(0));
        let m1 = m.set(Value::Int(1), Value::Int(5));
        let m2 = m1.set(Value::Int(1), Value::Int(0));
        assert_eq!(m, m2, "writing the default back must restore equality");
        assert_eq!(m2.support_len(), 0);
    }

    #[test]
    fn map_get_returns_default() {
        let m = Map::new(Value::Bool(false));
        assert_eq!(m.get(&Value::Int(7)), &Value::Bool(false));
        let m = m.set(Value::Int(7), Value::Bool(true));
        assert_eq!(m.get(&Value::Int(7)), &Value::Bool(true));
        assert_eq!(m.get(&Value::Int(8)), &Value::Bool(false));
    }

    #[test]
    fn value_constructors() {
        assert_eq!(
            Value::some(Value::Int(3)),
            Value::Opt(Some(Shared::new(Value::Int(3))))
        );
        assert_eq!(Value::none(), Value::Opt(None));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(4i64), Value::Int(4));
    }

    #[test]
    fn value_display_is_readable() {
        let v = Value::tuple(vec![Value::Int(1), Value::some(Value::Bool(true))]);
        assert_eq!(v.to_string(), "(1, Some(true))");
        assert_eq!(Value::empty_set().to_string(), "{}");
        assert_eq!(Value::empty_seq().to_string(), "[]");
    }

    #[test]
    fn value_ordering_is_total_within_variants() {
        let mut vs = vec![Value::Int(3), Value::Int(1), Value::Int(2)];
        vs.sort();
        assert_eq!(vs, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }
}
