//! Sorts (types) of the action DSL.

use std::fmt;

use inseq_kernel::{Map, Multiset, Value};

/// The sort of a DSL expression or variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sort {
    /// The unit sort.
    Unit,
    /// Booleans.
    Bool,
    /// Mathematical integers (bounded to `i64`).
    Int,
    /// Optional values.
    Opt(Box<Sort>),
    /// Tuples.
    Tuple(Vec<Sort>),
    /// Finite sets.
    Set(Box<Sort>),
    /// Finite multisets — the paper's bag channels.
    Bag(Box<Sort>),
    /// Finite sequences — FIFO-queue channels.
    Seq(Box<Sort>),
    /// Total maps with a default (arrays indexed by arbitrary values).
    Map(Box<Sort>, Box<Sort>),
}

impl Sort {
    /// Convenience constructor for `Opt`.
    #[must_use]
    pub fn opt(inner: Sort) -> Self {
        Sort::Opt(Box::new(inner))
    }

    /// Convenience constructor for `Set`.
    #[must_use]
    pub fn set(elem: Sort) -> Self {
        Sort::Set(Box::new(elem))
    }

    /// Convenience constructor for `Bag`.
    #[must_use]
    pub fn bag(elem: Sort) -> Self {
        Sort::Bag(Box::new(elem))
    }

    /// Convenience constructor for `Seq`.
    #[must_use]
    pub fn seq(elem: Sort) -> Self {
        Sort::Seq(Box::new(elem))
    }

    /// Convenience constructor for `Map`.
    #[must_use]
    pub fn map(key: Sort, value: Sort) -> Self {
        Sort::Map(Box::new(key), Box::new(value))
    }

    /// The canonical default value of this sort, used to initialise declared
    /// locals and globals.
    #[must_use]
    pub fn default_value(&self) -> Value {
        match self {
            Sort::Unit => Value::Unit,
            Sort::Bool => Value::Bool(false),
            Sort::Int => Value::Int(0),
            Sort::Opt(_) => Value::none(),
            Sort::Tuple(sorts) => Value::tuple(sorts.iter().map(Sort::default_value).collect()),
            Sort::Set(_) => Value::empty_set(),
            Sort::Bag(_) => Value::bag(Multiset::new()),
            Sort::Seq(_) => Value::empty_seq(),
            Sort::Map(_, v) => Value::map(Map::new(v.default_value())),
        }
    }

    /// Structural check that `value` inhabits this sort.
    #[must_use]
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (Sort::Unit, Value::Unit)
            | (Sort::Bool, Value::Bool(_))
            | (Sort::Int, Value::Int(_)) => true,
            (Sort::Opt(_), Value::Opt(None)) => true,
            (Sort::Opt(inner), Value::Opt(Some(v))) => inner.admits(v),
            (Sort::Tuple(sorts), Value::Tuple(vs)) => {
                sorts.len() == vs.len() && sorts.iter().zip(vs.iter()).all(|(s, v)| s.admits(v))
            }
            (Sort::Set(elem), Value::Set(s)) => s.iter().all(|v| elem.admits(v)),
            (Sort::Bag(elem), Value::Bag(b)) => b.distinct().all(|v| elem.admits(v)),
            (Sort::Seq(elem), Value::Seq(s)) => s.iter().all(|v| elem.admits(v)),
            (Sort::Map(key, val), Value::Map(m)) => {
                val.admits(m.default_value())
                    && m.iter().all(|(k, v)| key.admits(k) && val.admits(v))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Unit => write!(f, "Unit"),
            Sort::Bool => write!(f, "Bool"),
            Sort::Int => write!(f, "Int"),
            Sort::Opt(s) => write!(f, "Option<{s}>"),
            Sort::Tuple(ss) => {
                write!(f, "(")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, ")")
            }
            Sort::Set(s) => write!(f, "Set<{s}>"),
            Sort::Bag(s) => write!(f, "Bag<{s}>"),
            Sort::Seq(s) => write!(f, "Seq<{s}>"),
            Sort::Map(k, v) => write!(f, "Map<{k}, {v}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_inhabit_their_sorts() {
        let sorts = [
            Sort::Unit,
            Sort::Bool,
            Sort::Int,
            Sort::opt(Sort::Int),
            Sort::Tuple(vec![Sort::Int, Sort::Bool]),
            Sort::set(Sort::Int),
            Sort::bag(Sort::Int),
            Sort::seq(Sort::Bool),
            Sort::map(Sort::Int, Sort::bag(Sort::Int)),
        ];
        for s in sorts {
            let d = s.default_value();
            assert!(s.admits(&d), "default of {s} must inhabit {s}, got {d}");
        }
    }

    #[test]
    fn admits_rejects_wrong_shapes() {
        assert!(!Sort::Int.admits(&Value::Bool(true)));
        assert!(!Sort::set(Sort::Int).admits(&Value::Int(1)));
        let nested = Sort::opt(Sort::Bool);
        assert!(nested.admits(&Value::some(Value::Bool(true))));
        assert!(!nested.admits(&Value::some(Value::Int(1))));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Sort::map(Sort::Int, Sort::bag(Sort::Int)).to_string(),
            "Map<Int, Bag<Int>>"
        );
    }
}
