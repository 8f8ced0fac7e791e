//! Indexed fact storage: a thin wrapper over [`chase_core::IndexedInstance`].
//!
//! [`FactIndex`] is the storage layer of the trigger engine. Since the join engine
//! and the per-(predicate, position) / per-null indexes moved into `chase_core`
//! ([`chase_core::index::IndexedInstance`], [`chase_core::homomorphism`]), this type
//! only adds the engine-facing mutation vocabulary — in [`FactId`]s over the
//! instance's arena: insertion reports the interned id and whether the fact is new,
//! substitution reports exactly the rewritten `(old, new)` id pairs — the deltas
//! semi-naive discovery re-seeds from.

use chase_core::substitution::NullSubstitution;
use chase_core::Assignment;
use chase_core::{
    Atom, Fact, FactId, FactStore, GroundTerm, IndexedInstance, Instance, NullValue, Predicate, Tgd,
};

/// What one TGD step did to a [`FactIndex`] ([`FactIndex::apply_tgd`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TgdStep {
    /// The head facts this step inserted, in head-atom order.
    pub added: Vec<Fact>,
    /// The number of fresh nulls invented, one per existential variable.
    pub fresh_nulls: usize,
    /// Every head fact's id in head-atom order, pre-existing facts included,
    /// each flagged `true` iff this step inserted it.
    pub heads: Vec<(FactId, bool)>,
}

/// Indexed fact storage for the trigger engine.
///
/// Wraps an [`IndexedInstance`] (which maintains the per-predicate, per-position and
/// per-null id indexes consumed by the shared join engine) and exposes delta-aware
/// mutation in terms of [`FactId`]s.
#[derive(Clone, Debug, Default)]
pub struct FactIndex {
    indexed: IndexedInstance,
}

impl FactIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        FactIndex::default()
    }

    /// Creates an index over a copy of `instance`.
    pub fn from_instance(instance: Instance) -> Self {
        FactIndex {
            indexed: IndexedInstance::from_instance(instance),
        }
    }

    /// The indexed instance (the join-engine view).
    pub fn indexed(&self) -> &IndexedInstance {
        &self.indexed
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        self.indexed.instance()
    }

    /// The arena-interned fact store behind the index.
    pub fn store(&self) -> &FactStore {
        self.indexed.store()
    }

    /// Consumes the index, returning the instance.
    pub fn into_instance(self) -> Instance {
        self.indexed.into_instance()
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.indexed.len()
    }

    /// Returns `true` iff no fact is stored.
    pub fn is_empty(&self) -> bool {
        self.indexed.is_empty()
    }

    /// Returns `true` iff the fact is stored.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.indexed.contains(fact)
    }

    /// The live id of `fact`, if it is currently stored — see
    /// [`Instance::id_of`]. Removed (tombstoned) facts resolve to `None` even
    /// though the arena still knows them.
    pub fn id_of(&self, fact: &Fact) -> Option<FactId> {
        self.instance().id_of(fact)
    }

    /// Removes a fact by id, unindexing it from every per-(predicate, position)
    /// and per-null bucket — see [`chase_core::IndexedInstance::remove_id`].
    /// Returns `true` iff the fact was live. The arena keeps the interning, so
    /// a later re-insert of the same fact yields the same id.
    pub fn remove_id(&mut self, id: FactId) -> bool {
        self.indexed.remove_id(id)
    }

    /// Removes a batch of facts by id; returns how many were present
    /// (duplicates count once). One dense-list sweep per affected predicate
    /// — see [`IndexedInstance::remove_ids`].
    pub fn remove_ids(&mut self, ids: &[FactId]) -> usize {
        self.indexed.remove_ids(ids)
    }

    /// Inserts a fact; returns `true` iff it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.indexed.insert(fact)
    }

    /// Inserts a fact; returns its interned id and whether it was new.
    pub fn insert_full(&mut self, fact: Fact) -> (FactId, bool) {
        self.indexed.insert_full(fact)
    }

    /// Inserts a fact given as predicate + terms (no [`Fact`] value needed);
    /// returns its interned id and whether it was new.
    pub fn insert_parts(&mut self, predicate: Predicate, terms: &[GroundTerm]) -> (FactId, bool) {
        self.indexed.insert_parts(predicate, terms)
    }

    /// Loads a database: every fact is re-interned into this index's arena
    /// straight from the database's term slices (no [`Fact`] values), in sorted
    /// order so that discovery — and any chase sequence built on it — is
    /// reproducible across process runs. Returns the ids of the newly inserted
    /// facts in insertion order: the initial delta. The one loading routine
    /// shared by the sequential engine and the round-parallel runner, so their
    /// round-0 state cannot drift.
    pub fn insert_database(&mut self, database: &Instance) -> Vec<FactId> {
        let store = database.store();
        let mut fresh = Vec::new();
        for id in database.sorted_fact_ids() {
            let (new_id, new) = self.indexed.insert_copied(store, id);
            if new {
                fresh.push(new_id);
            }
        }
        fresh
    }

    /// Allocates a labeled null distinct from every null in the stored facts.
    pub fn fresh_null(&mut self) -> NullValue {
        self.indexed.fresh_null()
    }

    /// Applies the TGD step for `(tgd, h)` (Definition 1): binds every
    /// existential variable to a fresh null, in
    /// [`Tgd::existential_variables`] order, then inserts the image of each
    /// head atom. The one TGD-step routine of the sequential engine and the
    /// round runner, so their fresh-null numbering cannot drift.
    pub fn apply_tgd(&mut self, tgd: &Tgd, h: &Assignment) -> TgdStep {
        let mut extended = h.clone();
        let ex = tgd.existential_variables();
        let fresh_nulls = ex.len();
        for v in ex {
            let n = self.fresh_null();
            extended.bind(v, GroundTerm::Null(n));
        }
        let mut step = TgdStep {
            fresh_nulls,
            ..TgdStep::default()
        };
        for atom in &tgd.head {
            let fact = extended
                .apply_atom(atom)
                .expect("all head variables are bound after extension");
            let (id, new) = self.insert_parts(fact.predicate, &fact.terms);
            step.heads.push((id, new));
            if new {
                step.added.push(fact);
            }
        }
        step
    }

    /// Applies an EGD substitution in place, returning the rewritten `(old, new)`
    /// id pairs (the delta the engine re-seeds trigger discovery from).
    pub fn substitute(&mut self, gamma: &NullSubstitution) -> Vec<(FactId, FactId)> {
        self.indexed.substitute_in_place(gamma)
    }

    /// The candidate fact ids for `atom` under `assignment` — see
    /// [`IndexedInstance::candidates_for`].
    pub fn candidates_for<'a>(&'a self, atom: &Atom, assignment: &Assignment) -> &'a [FactId] {
        self.indexed.candidates_for(atom, assignment)
    }

    /// An upper bound on the number of candidates for `atom` under `assignment` —
    /// see [`IndexedInstance::candidate_count`].
    pub fn candidate_count(&self, atom: &Atom, assignment: &Assignment) -> usize {
        self.indexed.candidate_count(atom, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::builder::{atom, cst, var};
    use chase_core::term::Constant;
    use chase_core::GroundTerm;

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn path() -> FactIndex {
        let mut idx = FactIndex::new();
        idx.insert(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        idx.insert(Fact::from_parts("E", vec![gc("b"), gc("c")]));
        idx.insert(Fact::from_parts("E", vec![gc("b"), gc("d")]));
        idx
    }

    #[test]
    fn unbound_atom_falls_back_to_predicate_scan() {
        let idx = path();
        let a = atom("E", vec![var("x"), var("y")]);
        assert_eq!(idx.candidates_for(&a, &Assignment::new()).len(), 3);
    }

    #[test]
    fn bound_variable_narrows_candidates() {
        let idx = path();
        let a = atom("E", vec![var("x"), var("y")]);
        let h = Assignment::from_pairs([(chase_core::Variable::new("x"), gc("b"))]);
        assert_eq!(idx.candidates_for(&a, &h).len(), 2);
        let h = Assignment::from_pairs([(chase_core::Variable::new("y"), gc("c"))]);
        assert_eq!(idx.candidates_for(&a, &h).len(), 1);
    }

    #[test]
    fn constants_in_atoms_narrow_candidates() {
        let idx = path();
        let a = atom("E", vec![cst("a"), var("y")]);
        assert_eq!(idx.candidates_for(&a, &Assignment::new()).len(), 1);
        let none = atom("E", vec![cst("z"), var("y")]);
        assert!(idx.candidates_for(&none, &Assignment::new()).is_empty());
    }

    #[test]
    fn remove_id_tombstones_and_reinsert_reuses_the_id() {
        let mut idx = path();
        let fact = Fact::from_parts("E", vec![gc("b"), gc("c")]);
        let id = idx.id_of(&fact).expect("stored");
        assert!(idx.remove_id(id));
        assert!(!idx.remove_id(id), "second removal is a no-op");
        assert_eq!(idx.id_of(&fact), None);
        assert_eq!(idx.len(), 2);
        let a = atom("E", vec![var("x"), var("y")]);
        assert_eq!(idx.candidates_for(&a, &Assignment::new()).len(), 2);
        let (again, new) = idx.insert_full(fact.clone());
        assert!(new);
        assert_eq!(again, id, "the arena re-issues the same id");
        assert_eq!(idx.id_of(&fact), Some(id));
    }

    #[test]
    fn substitution_reports_rewritten_id_pairs() {
        let mut idx = FactIndex::new();
        let (old_id, _) = idx.insert_full(Fact::from_parts(
            "E",
            vec![gc("a"), GroundTerm::Null(NullValue(1))],
        ));
        let (ground_id, _) = idx.insert_full(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        let delta = idx.substitute(&NullSubstitution::single(NullValue(1), gc("b")));
        assert_eq!(delta, vec![(old_id, ground_id)]);
        assert_eq!(idx.len(), 1);
    }
}
