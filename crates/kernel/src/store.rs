//! Global stores: valuations of the program's global variables.

use std::fmt;

use crate::program::GlobalSchema;
use crate::value::Value;

/// A valuation of the global variables `V_G`.
///
/// Storage is positional — index `i` holds the value of the `i`-th variable
/// declared in the program's [`GlobalSchema`]. The schema (name ↔ index
/// mapping) lives on the [`Program`](crate::Program) so stores stay compact.
///
/// Stores are cloned on every transition during exploration and on every
/// evaluation branch, and almost every clone leaves most slots untouched.
/// A compound [`Value`] shares its payload between clones, so cloning a
/// store copies one word-sized handle per slot, and comparing two stores
/// whose slots share payloads costs one pointer test per slot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalStore {
    values: Vec<Value>,
}

impl GlobalStore {
    /// Creates a store from the values of all globals, in schema order.
    #[must_use]
    pub fn new(values: Vec<Value>) -> Self {
        GlobalStore { values }
    }

    /// Number of global variables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the program has no globals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of the global with schema index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the schema.
    #[must_use]
    pub fn get(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// Functional update of the global with schema index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the schema.
    #[must_use]
    pub fn with(&self, index: usize, value: Value) -> Self {
        let mut next = self.clone();
        next.values[index] = value;
        next
    }

    /// In-place update of the global with schema index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds for the schema.
    pub fn set(&mut self, index: usize, value: Value) {
        self.values[index] = value;
    }

    /// Whether slot `index` holds equal values in both stores — O(1) when
    /// the two stores share the slot's payload (a successor's untouched
    /// slots share their parent's).
    pub(crate) fn slot_eq(&self, other: &GlobalStore, index: usize) -> bool {
        self.values[index] == other.values[index]
    }

    /// Iterates over the values in schema order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Renders the store with variable names taken from `schema`.
    #[must_use]
    pub fn display_with<'a>(&'a self, schema: &'a GlobalSchema) -> DisplayStore<'a> {
        DisplayStore {
            store: self,
            schema,
        }
    }
}

impl fmt::Display for GlobalStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

/// Helper returned by [`GlobalStore::display_with`] that prints `name = value`
/// pairs using the program's schema.
#[derive(Debug)]
pub struct DisplayStore<'a> {
    store: &'a GlobalStore,
    schema: &'a GlobalSchema,
}

impl fmt::Display for DisplayStore<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.store.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} = {v}", self.schema.name(i))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_with() {
        let s = GlobalStore::new(vec![Value::Int(1), Value::Bool(false)]);
        assert_eq!(s.get(0), &Value::Int(1));
        let s2 = s.with(1, Value::Bool(true));
        assert_eq!(s.get(1), &Value::Bool(false), "with must be functional");
        assert_eq!(s2.get(1), &Value::Bool(true));
    }

    #[test]
    fn display_is_positional() {
        let s = GlobalStore::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(s.to_string(), "<1, 2>");
    }

    #[test]
    fn ordering_supports_dedup() {
        let a = GlobalStore::new(vec![Value::Int(1)]);
        let b = GlobalStore::new(vec![Value::Int(2)]);
        assert!(a < b);
    }
}
