//! Well-founded measures for the cooperation condition (CO).
//!
//! §4 of the paper ("Checking cooperation is easy") recommends a generic
//! pattern: map each configuration to a tuple of natural numbers — counts of
//! messages in channels and of pending asyncs of given actions — ordered
//! lexicographically. This module implements exactly that pattern, plus the
//! even simpler "total number of pending asyncs" measure that suffices for
//! most examples.

use std::fmt;
use std::sync::Arc;

use inseq_kernel::{GlobalStore, Multiset, PendingAsync};

/// The lexicographic rank of a configuration under a measure: a tuple of
/// natural numbers.
pub type Rank = Vec<u64>;

/// A well-founded, monotonic measure on configurations.
///
/// Per the paper's local checking pattern, the cooperation condition is
/// discharged by showing `rank(g, {(ℓ,A)}) > rank(g′, Ω′)` lexicographically
/// for the executed pending async and the pending asyncs it creates;
/// monotonicity in the ambient `Ω` then gives the global condition.
#[derive(Clone)]
pub struct Measure {
    label: String,
    #[allow(clippy::type_complexity)]
    rank: Arc<dyn Fn(&GlobalStore, &Multiset<PendingAsync>) -> Rank + Send + Sync>,
}

impl fmt::Debug for Measure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Measure")
            .field("label", &self.label)
            .finish()
    }
}

impl Measure {
    /// A measure from an arbitrary rank function. The rank tuples of all
    /// configurations must have equal length; ranks are compared
    /// lexicographically.
    pub fn lexicographic<F>(label: impl Into<String>, rank: F) -> Self
    where
        F: Fn(&GlobalStore, &Multiset<PendingAsync>) -> Rank + Send + Sync + 'static,
    {
        Measure {
            label: label.into(),
            rank: Arc::new(rank),
        }
    }

    /// The canonical measure that counts pending asyncs — sufficient
    /// whenever eliminated actions do not create new pending asyncs
    /// (Example 4.1 of the paper).
    #[must_use]
    pub fn pending_async_count() -> Self {
        Measure::lexicographic("|Ω|", |_, omega| vec![omega.len() as u64])
    }

    /// A human-readable label for reports.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The rank of `(globals, pending)`.
    #[must_use]
    pub fn rank(&self, globals: &GlobalStore, pending: &Multiset<PendingAsync>) -> Rank {
        (self.rank)(globals, pending)
    }

    /// Whether the local cooperation step decreases: executing `fired` at
    /// `before` and creating `created` at `after` must strictly decrease the
    /// lexicographic rank.
    #[must_use]
    pub fn decreases(
        &self,
        before: &GlobalStore,
        fired: &PendingAsync,
        after: &GlobalStore,
        created: &Multiset<PendingAsync>,
    ) -> bool {
        let from = self.rank(before, &Multiset::singleton(fired.clone()));
        let to = self.rank(after, created);
        lex_gt(&from, &to)
    }
}

/// Strict lexicographic comparison of equal-length rank tuples.
///
/// # Panics
///
/// Panics (debug builds) when the tuples have different lengths, which
/// indicates an ill-formed measure.
#[must_use]
pub fn lex_gt(a: &Rank, b: &Rank) -> bool {
    debug_assert_eq!(a.len(), b.len(), "measure ranks must have equal length");
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return true;
        }
        if x < y {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use inseq_kernel::Value;

    #[test]
    fn lexicographic_comparison() {
        assert!(lex_gt(&vec![1, 0], &vec![0, 9]));
        assert!(lex_gt(&vec![1, 1], &vec![1, 0]));
        assert!(!lex_gt(&vec![1, 0], &vec![1, 0]));
        assert!(!lex_gt(&vec![0, 5], &vec![1, 0]));
    }

    #[test]
    fn pa_count_measure_decreases_on_consumption() {
        let m = Measure::pending_async_count();
        let g = GlobalStore::default();
        let fired = PendingAsync::new("A", vec![]);
        // A consumes itself and creates nothing: 1 > 0.
        assert!(m.decreases(&g, &fired, &g, &Multiset::new()));
        // A respawns itself: 1 > 1 fails — exactly the paper's pathological
        // `Rec` example where cooperation must reject.
        let respawn = Multiset::singleton(PendingAsync::new("A", vec![]));
        assert!(!m.decreases(&g, &fired, &g, &respawn));
    }

    #[test]
    fn channel_measures_see_the_store() {
        // Rank = (messages in channel 0, PA count): receiving decreases the
        // first component even when a PA respawns.
        let m = Measure::lexicographic("(|ch|, |Ω|)", |g, omega| {
            vec![g.get(0).as_bag().len() as u64, omega.len() as u64]
        });
        let before = GlobalStore::new(vec![Value::bag([Value::Int(1)].into_iter().collect())]);
        let after = GlobalStore::new(vec![Value::empty_bag()]);
        let fired = PendingAsync::new("Recv", vec![]);
        let created = Multiset::singleton(PendingAsync::new("Recv", vec![]));
        assert!(m.decreases(&before, &fired, &after, &created));
        assert_eq!(m.label(), "(|ch|, |Ω|)");
    }
}
