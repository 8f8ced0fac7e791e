//! Null-occurrence indexes: applying an EGD substitution `{η/t}` to stored
//! trigger state in O(occurrences of η).
//!
//! Chase state that outlives a step — pending triggers, the discovery dedup
//! sets, the fired-key sets of the (semi-)oblivious chase, the keys of a
//! support ledger — holds ground terms that an EGD step must rewrite
//! (`h ↦ γ∘h`). Rewriting all of it on every step makes an EGDs-first chase
//! quadratic, although a substitution `{η/t}` changes only the entries that
//! mention `η`.
//!
//! * [`NullOccurrences`] maps each null to the slots (positions, record
//!   indexes, keys) that mention it. A substitution takes the list of `η`;
//!   `η` is gone from the instance afterwards, so the list is never needed
//!   again.
//! * [`NullKeyedSet`] is a hash set of fired keys with such an index.
//!   [`NullKeyedSet::substitute`] is the one rewrite routine for the fired-key
//!   sets of the (semi-)oblivious step loop and of `chase_ivm`.
//!
//! [`crate::TriggerEngine`] indexes its pending queues by position with a
//! [`NullOccurrences`]. Its dedup sets need no index of their own: every
//! discovered trigger that mentions `η` maps a body atom onto a fact that
//! mentions `η`, so the engine finds those keys by seeded joins over the
//! instance's per-null fact index, without a second copy of any key.
//!
//! Indexes are built at the first substitution and kept up to date from then
//! on. Only EGD steps substitute, so the state of a run over an EGD-free
//! dependency set never holds an index and pays nothing for it.

use chase_core::substitution::NullSubstitution;
use chase_core::{GroundTerm, NullValue};
use std::collections::{HashMap, HashSet};

/// Applies `gamma` to every term of `key` in place.
pub fn substitute_terms(key: &mut [GroundTerm], gamma: &NullSubstitution) {
    for t in key.iter_mut() {
        *t = gamma.apply_ground(*t);
    }
}

/// For each null, the slots registered as mentioning it.
///
/// Lists may hold stale slots (an entry popped, removed, or already
/// rewritten away from the null); callers check a slot is still live before
/// rewriting it. Rewriting a live slot again is harmless, since `γ` is the
/// identity on entries that no longer mention its null.
#[derive(Clone, Debug)]
pub struct NullOccurrences<S> {
    by_null: HashMap<NullValue, Vec<S>>,
    /// Slots across all lists.
    entries: usize,
}

impl<S> Default for NullOccurrences<S> {
    fn default() -> Self {
        NullOccurrences {
            by_null: HashMap::new(),
            entries: 0,
        }
    }
}

impl<S: Clone> NullOccurrences<S> {
    /// An empty index.
    pub fn new() -> Self {
        NullOccurrences::default()
    }

    /// Registers `slot` under every distinct null among `terms`.
    pub fn register(&mut self, slot: &S, terms: impl IntoIterator<Item = GroundTerm>) {
        let mut nulls: Vec<NullValue> = Vec::new();
        for t in terms {
            if let GroundTerm::Null(n) = t {
                if !nulls.contains(&n) {
                    nulls.push(n);
                    self.register_null(n, slot.clone());
                }
            }
        }
    }

    /// Registers `slot` under the single null `null`.
    pub fn register_null(&mut self, null: NullValue, slot: S) {
        // Most nulls have few occurrences: start a list at one slot, not four.
        self.by_null
            .entry(null)
            .or_insert_with(|| Vec::with_capacity(1))
            .push(slot);
        self.entries += 1;
    }

    /// Removes and returns the slots registered under `null`.
    pub fn take(&mut self, null: NullValue) -> Vec<S> {
        let slots = self.by_null.remove(&null).unwrap_or_default();
        self.entries -= slots.len();
        slots
    }

    /// Number of slots across all lists, stale ones included.
    pub fn entries(&self) -> usize {
        self.entries
    }
}

/// A set of fired keys (the images of a dependency's key variables) whose
/// EGD rewrite follows the substituted null's occurrences instead of scanning
/// every key.
#[derive(Clone, Debug, Default)]
pub struct NullKeyedSet {
    keys: HashSet<Vec<GroundTerm>>,
    /// The keys that mention nulls, by null; `None` until the first
    /// substitution.
    index: Option<NullOccurrences<Vec<GroundTerm>>>,
}

impl NullKeyedSet {
    /// An empty set without an index.
    pub fn new() -> Self {
        NullKeyedSet::default()
    }

    /// Returns `true` iff `key` is in the set.
    pub fn contains(&self, key: &[GroundTerm]) -> bool {
        self.keys.contains(key)
    }

    /// Adds `key`, returning `true` iff it was not already present. Once the
    /// set is indexed, a new key that mentions nulls is registered under each.
    pub fn insert(&mut self, key: Vec<GroundTerm>) -> bool {
        match &mut self.index {
            Some(index) if key.iter().any(|t| matches!(t, GroundTerm::Null(_))) => {
                if self.keys.contains(&key) {
                    return false;
                }
                index.register(&key, key.iter().copied());
                self.keys.insert(key)
            }
            _ => self.keys.insert(key),
        }
    }

    /// Removes `key`, returning `true` iff it was present. Its index entries
    /// go stale and are skipped by [`NullKeyedSet::substitute`].
    pub fn remove(&mut self, key: &[GroundTerm]) -> bool {
        self.keys.remove(key)
    }

    /// Returns `true` once a substitution has built the null index.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Applies `gamma` to every key (`k ↦ γ∘k`). Keys that collide after the
    /// rewrite merge, as in a set rebuilt from the rewritten keys.
    ///
    /// Costs O(keys mentioning the substituted null), plus one pass over the
    /// set at the first call, which builds the index. Returns the number of
    /// keys visited: index entries followed, and every key of that first
    /// pass.
    pub fn substitute(&mut self, gamma: &NullSubstitution) -> usize {
        let Some((null, _)) = gamma.mapping() else {
            return 0;
        };
        let mut visited = 0;
        let index = self.index.get_or_insert_with(|| {
            visited = self.keys.len();
            let mut index = NullOccurrences::new();
            for key in &self.keys {
                index.register(key, key.iter().copied());
            }
            index
        });
        for mut key in index.take(null) {
            visited += 1;
            if !self.keys.remove(&key) {
                continue;
            }
            substitute_terms(&mut key, gamma);
            if self.keys.contains(&key) {
                continue;
            }
            // The key's entries under its other nulls hold its old form, which
            // is gone from the set: register the new form under all of them.
            index.register(&key, key.iter().copied());
            self.keys.insert(key);
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Constant;

    fn null(n: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(n))
    }

    fn cst(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn subst(n: u64, t: GroundTerm) -> NullSubstitution {
        NullSubstitution::single(NullValue(n), t)
    }

    #[test]
    fn substitution_matches_a_full_rebuild_and_merges_collisions() {
        let keys = [
            vec![cst("a"), null(1)],
            vec![cst("a"), null(2)],
            vec![null(1), null(2)],
            vec![null(2), null(2)],
            vec![null(3), cst("b")],
            vec![cst("a"), cst("b")],
        ];
        let steps = [
            subst(1, null(2)),
            subst(4, cst("c")),
            subst(2, cst("b")),
            subst(3, cst("a")),
        ];
        let mut indexed = NullKeyedSet::new();
        let mut reference: HashSet<Vec<GroundTerm>> = HashSet::new();
        for key in keys {
            indexed.insert(key.clone());
            reference.insert(key);
        }
        for gamma in &steps {
            indexed.substitute(gamma);
            // The pre-index rewrite: the whole set rebuilt from its rewritten keys.
            reference = reference
                .into_iter()
                .map(|mut key| {
                    substitute_terms(&mut key, gamma);
                    key
                })
                .collect();
            assert_eq!(indexed.keys, reference, "after {gamma}");
            // Inserting after indexing keeps the two in step as well.
            indexed.insert(vec![null(9), null(9)]);
            reference.insert(vec![null(9), null(9)]);
        }
        // {a η1} and {a η2} merged, then became {a b} like {η3 b} and {a b}.
        assert_eq!(indexed.keys.len(), 3);
        assert!(indexed.contains(&[cst("a"), cst("b")]));
        assert!(indexed.contains(&[cst("b"), cst("b")]));
        assert!(indexed.contains(&[null(9), null(9)]));
    }

    #[test]
    fn substitution_visits_only_the_keys_of_its_null() {
        let mut set = NullKeyedSet::new();
        for i in 0..100 {
            set.insert(vec![cst(&format!("k{i}")), null(i)]);
        }
        assert!(!set.is_indexed());
        // The first substitution builds the index with one pass.
        assert_eq!(set.substitute(&subst(0, cst("k0"))), 101);
        assert!(set.is_indexed());
        for i in 1..100 {
            assert_eq!(set.substitute(&subst(i, cst("z"))), 1);
        }
        // A null nothing mentions costs nothing.
        assert_eq!(set.substitute(&subst(500, cst("z"))), 0);
        assert_eq!(set.keys.len(), 100);
    }

    #[test]
    fn removed_keys_are_skipped_and_reinserted_keys_are_rewritten() {
        let mut set = NullKeyedSet::new();
        set.insert(vec![null(1), null(2)]);
        set.substitute(&subst(7, cst("z")));
        assert!(set.remove(&[null(1), null(2)]));
        set.substitute(&subst(1, cst("a")));
        assert!(set.keys.is_empty(), "a removed key must not come back");
        set.insert(vec![null(2)]);
        set.substitute(&subst(2, cst("b")));
        assert_eq!(set.keys.iter().collect::<Vec<_>>(), vec![&vec![cst("b")]]);
    }

    #[test]
    fn occurrences_register_each_null_once() {
        let mut occ: NullOccurrences<usize> = NullOccurrences::new();
        occ.register(&0, [null(1), null(1), cst("a"), null(2)]);
        occ.register(&1, [cst("a")]);
        assert_eq!(occ.entries(), 2);
        assert_eq!(occ.take(NullValue(1)), vec![0]);
        assert_eq!(occ.take(NullValue(1)), Vec::<usize>::new());
        assert_eq!(occ.take(NullValue(2)), vec![0]);
        assert_eq!(occ.entries(), 0);
    }
}
