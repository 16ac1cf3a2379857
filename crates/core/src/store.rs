//! The solution store used by the reverse-search frameworks to avoid
//! reporting / traversing a solution more than once.
//!
//! The paper uses a B-tree keyed on the vertex set of a solution
//! (Algorithm 1, lines 1 and 7–8). The traversal engine uses a hash set
//! instead: the algorithms never need the ordered iteration, and hashing
//! makes the lookups faster.

use std::collections::HashSet;

use crate::biplex::Biplex;

/// De-duplicating store of solutions keyed on their canonical vertex sets.
pub trait SolutionStore {
    /// Inserts the solution; returns `true` if it was not present before.
    fn insert(&mut self, solution: &Biplex) -> bool;
    /// Membership test.
    fn contains(&self, solution: &Biplex) -> bool;
    /// Number of distinct solutions stored.
    fn len(&self) -> usize;
    /// `true` when no solution has been stored yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hash-set backed store (the traversal engine's).
#[derive(Debug, Default)]
pub struct HashStore {
    keys: HashSet<Vec<u32>>,
}

impl HashStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SolutionStore for HashStore {
    fn insert(&mut self, solution: &Biplex) -> bool {
        self.keys.insert(solution.canonical_key())
    }

    fn contains(&self, solution: &Biplex) -> bool {
        self.keys.contains(&solution.canonical_key())
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<S: SolutionStore + Default>() {
        let mut store = S::default();
        let a = Biplex::new(vec![0, 1], vec![2]);
        let b = Biplex::new(vec![0], vec![1, 2]);
        let a_again = Biplex::new(vec![1, 0], vec![2]);

        assert!(store.is_empty());
        assert!(store.insert(&a));
        assert!(!store.insert(&a));
        assert!(!store.insert(&a_again), "order of construction must not matter");
        assert!(store.insert(&b));
        assert_eq!(store.len(), 2);
        assert!(store.contains(&a));
        assert!(store.contains(&b));
        assert!(!store.contains(&Biplex::new(vec![5], vec![])));
        assert!(!store.is_empty());
    }

    #[test]
    fn hash_store() {
        exercise::<HashStore>();
    }

    #[test]
    fn side_ambiguity_is_resolved() {
        // ({1}, {2}) and ({1,2}, {}) must be distinct entries.
        let mut store = HashStore::new();
        assert!(store.insert(&Biplex::new(vec![1], vec![2])));
        assert!(store.insert(&Biplex::new(vec![1, 2], vec![])));
        assert_eq!(store.len(), 2);
    }
}
