//! The delta-driven trigger engine.
//!
//! [`TriggerEngine`] replaces per-step full re-scans of the instance with
//! incremental trigger discovery:
//!
//! * when facts are added ([`TriggerEngine::push_facts`]) or rewritten by an EGD
//!   substitution ([`TriggerEngine::apply_substitution`]), homomorphism search is
//!   seeded *only* from body atoms unifiable with the delta (semi-naive
//!   evaluation);
//! * discovered candidate triggers wait in per-dependency FIFO queues;
//!   [`TriggerEngine::next_active_trigger`] pops them in the caller's dependency
//!   order, re-checking standard activity at pop time, so every trigger-selection
//!   policy (`StepOrder`-style nondeterminism) behaves exactly as with naive
//!   re-scanning;
//! * EGD substitutions rewrite the pending queues and the dedup set in place
//!   (`h ↦ γ∘h`), invalidating stale bindings without discarding discovered work.
//!   A substitution `{η/t}` visits only the pending triggers and dedup keys
//!   that mention `η`, so an EGD step costs O(occurrences of η), not O(every
//!   trigger ever discovered). Pending triggers are found by queue position
//!   through a null-occurrence index ([`crate::null_keyed`]), built at the
//!   first substitution, so only an EGD-bearing `Σ` ever holds one; dedup keys
//!   are found by seeded joins from the facts that mention `η`.
//!
//! Dropping a trigger that is found inactive is sound for the standard chase:
//! instances only grow or get substituted, both of which preserve TGD head
//! witnesses (as `γ∘h'`) and EGD equalities, so an inactive trigger can never
//! become active again.

use crate::delta::DeltaQueue;
use crate::index::FactIndex;
use crate::null_keyed::NullOccurrences;
use crate::parallel::{body_image, discover_batch, SeedAtoms};
use crate::search::{exists_indexed_extension, for_each_seeded_id};
use chase_core::substitution::NullSubstitution;
use chase_core::{
    Assignment, DepId, Dependency, DependencySet, Fact, FactId, GroundTerm, Instance, NullValue,
    Snapshot, Variable,
};
use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;

/// A trigger: a dependency together with a homomorphism from its body into the
/// current instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// The dependency being enforced.
    pub dep: DepId,
    /// The homomorphism from the dependency's body into the instance.
    pub assignment: Assignment,
}

/// The effect of applying a chase step `K --r,h,γ--> J` (Definition 1 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepEffect {
    /// A TGD step: the listed facts were added (`J = K ∪ h'(ψ)`), with `γ = ∅`.
    /// The facts may already be present in `K` for oblivious-style applications.
    AddedFacts {
        /// Facts added by the step.
        facts: Vec<Fact>,
        /// Number of fresh nulls invented for the existential variables.
        fresh_nulls: usize,
    },
    /// An EGD step that replaced a labeled null: `J = K γ`.
    Substituted {
        /// The substitution `γ` (maps a null to a constant or another null).
        gamma: NullSubstitution,
    },
    /// An EGD step on two distinct constants: `J = ⊥`.
    Failure,
    /// The EGD is already satisfied under the homomorphism (`h(x1) = h(x2)`), so no
    /// chase step exists for this trigger.
    NotApplicable,
}

/// Counters describing the engine's work (for benchmarks and diagnostics).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Facts inserted into the index (new facts only).
    pub facts_inserted: usize,
    /// Facts removed from the index by [`TriggerEngine::retract_ids`].
    pub facts_retracted: usize,
    /// Delta facts drained through seeded discovery.
    pub deltas_processed: usize,
    /// Candidate triggers discovered (after dedup).
    pub triggers_discovered: usize,
    /// Triggers dropped because they were no longer active at pop time.
    pub triggers_dropped: usize,
    /// EGD substitutions applied to the engine state.
    pub substitutions: usize,
    /// Pending triggers and dedup keys that substitutions visited to rewrite
    /// them: the null-index entries followed, plus one visit per entry in the
    /// pass that builds the indexes at the first substitution.
    pub substitution_rewrites: usize,
}

/// Fact-id level record of one applied chase step, produced by
/// [`TriggerEngine::apply_trigger_logged`] for support-ledger consumers
/// (`chase_ivm`).
///
/// The body image is resolved **before** the step mutates anything, so for an
/// EGD substitution step the recorded ids are the pre-rewrite ids; `rewrites`
/// maps them (and every other rewritten fact) forward into the post-step
/// instance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepLog {
    /// The image of the body under the trigger's homomorphism: one interned id
    /// per body atom, in body-atom order.
    pub body: Vec<FactId>,
    /// For a TGD step: the interned ids of **all** head facts in head-atom
    /// order — including facts that already existed (contrast
    /// [`StepEffect::AddedFacts`], which lists only the new ones). A support
    /// ledger needs the pre-existing heads too: they gain an extra derivation.
    pub heads: Vec<FactId>,
    /// For an EGD substitution step: the `(old, new)` id pairs of the rewrite.
    pub rewrites: Vec<(FactId, FactId)>,
}

/// Delta-driven incremental trigger discovery over an owned, indexed instance.
#[derive(Clone)]
pub struct TriggerEngine<'a> {
    sigma: &'a DependencySet,
    index: FactIndex,
    deltas: DeltaQueue,
    /// For each predicate, the body-atom positions that can unify with a fact of
    /// that predicate: `(dependency, body atom index)`. Built once so that a delta
    /// fact visits only the matching seed atoms instead of scanning all of `Σ`.
    seed_atoms: SeedAtoms,
    /// Every trigger discovered so far: the pending queues and the dedup sets.
    queues: TriggerQueues,
    stats: EngineStats,
}

/// Slots the pending-trigger null index may always hold before it is
/// compacted. Small under test, so the lockstep oracle exercises rebuilds.
const COMPACTION_FLOOR: usize = if cfg!(test) { 8 } else { 1024 };

/// The discovered-trigger state of a [`TriggerEngine`], with the
/// null-occurrence indexes that let an EGD substitution rewrite it in
/// O(occurrences of the substituted null).
#[derive(Clone)]
struct TriggerQueues {
    /// Per-dependency FIFO of discovered candidate triggers.
    pending: Vec<VecDeque<Assignment>>,
    /// Number of pending triggers across all dependencies.
    queued: usize,
    /// Per dependency, how many triggers were ever popped off the front of
    /// `pending`. A trigger enqueued as the `seq`-th of its dependency sits
    /// at `pending[dep][seq - popped[dep]]` until it is popped.
    popped: Vec<u64>,
    /// The `(dependency, seq)` positions of the pending triggers that mention
    /// each null. Built at the first substitution; dropped, to be rebuilt at
    /// the next one, when a retraction reorders `pending` or when it grows
    /// past `compact_at` (slots of popped triggers linger in it).
    pending_nulls: Option<NullOccurrences<(usize, u64)>>,
    /// `pending_nulls` is dropped once it holds more slots than this: twice
    /// its slots and the pending triggers at its last build, so rebuilds cost
    /// amortized O(1) per enqueued trigger.
    compact_at: usize,
    /// Per-dependency set of every assignment ever discovered (canonical form),
    /// rewritten in lockstep with EGD substitutions.
    seen: Vec<HashSet<Vec<(Variable, GroundTerm)>>>,
    /// Rewrite every pending trigger and rebuild every dedup set on each
    /// substitution: the reference the indexed rewrite is checked against.
    #[cfg(test)]
    full_rewrite: bool,
}

impl TriggerQueues {
    fn new(deps: usize) -> Self {
        TriggerQueues {
            pending: vec![VecDeque::new(); deps],
            queued: 0,
            popped: vec![0; deps],
            pending_nulls: None,
            compact_at: 0,
            seen: vec![HashSet::new(); deps],
            #[cfg(test)]
            full_rewrite: false,
        }
    }

    /// Queues a discovered assignment unless it was discovered before;
    /// returns `true` iff it was queued.
    fn enqueue(&mut self, dep: DepId, h: Assignment) -> bool {
        if !self.seen[dep.0].insert(h.canonical()) {
            return false;
        }
        if let Some(index) = &mut self.pending_nulls {
            let seq = self.popped[dep.0] + self.pending[dep.0].len() as u64;
            index.register(&(dep.0, seq), h.iter().map(|(_, t)| t));
            // Slots of popped triggers linger until their null is substituted;
            // past `compact_at`, a rebuild is cheaper than keeping them.
            if index.entries() > self.compact_at {
                self.pending_nulls = None;
            }
        }
        self.pending[dep.0].push_back(h);
        self.queued += 1;
        true
    }

    /// Pops the oldest pending trigger of `dep`.
    fn pop(&mut self, dep: DepId) -> Option<Assignment> {
        let h = self.pending[dep.0].pop_front()?;
        self.popped[dep.0] += 1;
        self.queued -= 1;
        Some(h)
    }

    /// Forgets a discovered assignment: its dedup key and any pending copy.
    fn forget(&mut self, dep: DepId, h: &Assignment) {
        if self.seen[dep.0].remove(&h.canonical()) {
            let queue = &mut self.pending[dep.0];
            let before = queue.len();
            queue.retain(|p| p != h);
            self.queued -= before - queue.len();
            // Positions have shifted: the next substitution rebuilds the index.
            self.pending_nulls = None;
        }
    }

    /// Rewrites the pending triggers and the dedup keys under `γ = {η/t}`,
    /// returning the number of entries visited. `keys` must hold every dedup
    /// key that mentions `η` (it may hold others, and repeats).
    fn substitute(
        &mut self,
        gamma: &NullSubstitution,
        keys: Vec<(DepId, Vec<(Variable, GroundTerm)>)>,
    ) -> usize {
        #[cfg(test)]
        if self.full_rewrite {
            return self.substitute_everything(gamma);
        }
        let visited = keys.len();
        for (dep, mut key) in keys {
            // Each key is rewritten once: a repeat is gone from the set. Keys
            // that collide after `γ` merge, as in a rebuilt set.
            if self.seen[dep.0].remove(&key) {
                substitute_key(&mut key, gamma);
                self.seen[dep.0].insert(key);
            }
        }
        visited + self.substitute_pending(gamma)
    }

    /// Rewrites the pending triggers that mention the substituted null, in
    /// place, so every queue keeps its order.
    fn substitute_pending(&mut self, gamma: &NullSubstitution) -> usize {
        let Some((null, target)) = gamma.mapping() else {
            return 0;
        };
        let TriggerQueues {
            pending,
            queued,
            popped,
            pending_nulls,
            compact_at,
            ..
        } = self;
        let mut visited = 0;
        let index = pending_nulls.get_or_insert_with(|| {
            let mut index = NullOccurrences::new();
            for (dep, queue) in pending.iter().enumerate() {
                for (i, h) in queue.iter().enumerate() {
                    index.register(&(dep, popped[dep] + i as u64), h.iter().map(|(_, t)| t));
                }
            }
            visited = *queued;
            *compact_at = 2 * (index.entries() + *queued) + COMPACTION_FLOOR;
            index
        });
        for (dep, seq) in index.take(null) {
            visited += 1;
            // Popped triggers have left the queue.
            let Some(pos) = seq.checked_sub(popped[dep]) else {
                continue;
            };
            let h = &mut pending[dep][pos as usize];
            let mentions_target = h.iter().any(|(_, t)| t == target);
            *h = rewrite_assignment(h, gamma);
            if let (GroundTerm::Null(to), false) = (target, mentions_target) {
                index.register_null(to, (dep, seq));
            }
        }
        visited
    }

    /// The full rewrite: every pending trigger, every dedup set rebuilt.
    #[cfg(test)]
    fn substitute_everything(&mut self, gamma: &NullSubstitution) -> usize {
        let mut visited = 0;
        for queue in &mut self.pending {
            for h in queue.iter_mut() {
                *h = rewrite_assignment(h, gamma);
                visited += 1;
            }
        }
        for set in &mut self.seen {
            visited += set.len();
            *set = set
                .drain()
                .map(|mut key| {
                    substitute_key(&mut key, gamma);
                    key
                })
                .collect();
        }
        visited
    }
}

impl<'a> TriggerEngine<'a> {
    /// Creates an engine for `sigma` over an empty instance.
    pub fn new(sigma: &'a DependencySet) -> Self {
        TriggerEngine {
            sigma,
            index: FactIndex::new(),
            deltas: DeltaQueue::new(),
            seed_atoms: SeedAtoms::new(sigma),
            queues: TriggerQueues::new(sigma.len()),
            stats: EngineStats::default(),
        }
    }

    /// Creates an engine and loads the database (every database fact is a delta).
    ///
    /// Facts are seeded in sorted order so that discovery — and hence the chase
    /// sequence built on it — is reproducible across process runs (the database's
    /// own fact set iterates in hash order). The facts are re-interned into the
    /// engine's own arena directly from the database's term slices; no `Fact`
    /// values are materialised.
    pub fn with_database(sigma: &'a DependencySet, database: &Instance) -> Self {
        let mut engine = TriggerEngine::new(sigma);
        for id in engine.index.insert_database(database) {
            engine.record_insert(id, true);
        }
        engine
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        self.index.instance()
    }

    /// The engine's indexed fact storage (read-only; exposes index diagnostics such
    /// as [`chase_core::IndexedInstance::probe_count`]).
    pub fn fact_index(&self) -> &FactIndex {
        &self.index
    }

    /// Consumes the engine, returning the final instance.
    pub fn into_instance(self) -> Instance {
        self.index.into_instance()
    }

    /// The engine's work counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Adds facts to the instance. New facts become deltas; duplicates are ignored.
    pub fn push_facts<I: IntoIterator<Item = Fact>>(&mut self, facts: I) {
        for fact in facts {
            self.insert_fact(fact);
        }
    }

    /// Adds one fact, returning its interned id and whether it was new (new
    /// facts become deltas). The id-reporting flavour of
    /// [`TriggerEngine::push_facts`], for callers that track facts by id — a
    /// previously retracted fact comes back under its original id.
    pub fn push_fact_full(&mut self, fact: Fact) -> (FactId, bool) {
        let (id, new) = self.index.insert_full(fact);
        self.record_insert(id, new);
        (id, new)
    }

    /// Number of discovered-but-unpopped candidate triggers across all
    /// dependencies (diagnostics; a quiesced engine has zero pending and an
    /// empty delta worklist).
    pub fn pending_len(&self) -> usize {
        self.queues.queued
    }

    /// Returns `true` iff no delta is waiting and no candidate is pending — the
    /// engine will discover nothing new until facts are pushed or retracted.
    pub fn is_quiescent(&self) -> bool {
        self.deltas.is_empty() && self.pending_len() == 0
    }

    fn insert_fact(&mut self, fact: Fact) -> bool {
        let (id, new) = self.index.insert_full(fact);
        self.record_insert(id, new)
    }

    fn record_insert(&mut self, id: FactId, new: bool) -> bool {
        if new {
            self.stats.facts_inserted += 1;
            self.deltas.push(id);
        }
        new
    }

    /// Returns `true` iff the engine holds a null-occurrence index, which it
    /// builds at the first substitution (diagnostics: an engine over an
    /// EGD-free `Σ` never holds one).
    pub fn holds_null_index(&self) -> bool {
        self.queues.pending_nulls.is_some()
    }

    /// Applies an EGD substitution `γ = {η/t}`: rewrites the instance in place,
    /// rewrites the pending triggers and dedup keys that mention `η`
    /// (`h ↦ γ∘h`), and re-seeds discovery from the rewritten facts
    /// (substitution can *create* triggers, e.g. a body atom `E(x, x)` matching
    /// a fact only after two nulls collapse). Returns the rewritten
    /// `(old, new)` id pairs — the same delta the index reported — so
    /// id-tracking callers (the `chase_ivm` support ledger) can map their
    /// records forward.
    ///
    /// The rewrite costs O(occurrences of η) rather than O(every trigger ever
    /// discovered): pending triggers are reached through a null-occurrence
    /// index of their queue positions, which the first substitution builds
    /// with one pass over the queues (an engine over an EGD-free `Σ` is never
    /// substituted and never builds it), and dedup keys through seeded joins
    /// from the facts that mention `η`. Pending order, the dedup sets (keys
    /// that collide after `γ` merge) and every other [`EngineStats`] counter
    /// are exactly those of a full rewrite.
    pub fn apply_substitution(&mut self, gamma: &NullSubstitution) -> Vec<(FactId, FactId)> {
        if gamma.is_empty() {
            return Vec::new();
        }
        self.stats.substitutions += 1;
        let keys = gamma
            .mapping()
            .map_or_else(Vec::new, |(null, _)| self.discovered_with_null(null));
        let delta = self.index.substitute(gamma);
        // Facts still waiting in the worklist must be rewritten too: they were
        // enqueued as members of `K` and only their images exist in `K γ`. The id
        // delta maps each rewritten fact's old id onto its image's id.
        self.deltas.apply_rewrites(&delta);
        self.stats.substitution_rewrites += self.queues.substitute(gamma, keys);
        for &(_, new) in &delta {
            self.deltas.push(new);
        }
        delta
    }

    /// The canonical keys of the body homomorphisms that map an atom onto a
    /// fact mentioning `null`, by dependency. Every discovered trigger that
    /// mentions `null` is one of them — its keys are homomorphisms into the
    /// current instance, kept so through substitutions and retractions — so
    /// the seeded joins from those facts find every dedup key an EGD step on
    /// `null` rewrites, in O(occurrences of `null`) and without indexing the
    /// keys. Must run before the facts are rewritten.
    fn discovered_with_null(&self, null: NullValue) -> Vec<(DepId, Vec<(Variable, GroundTerm)>)> {
        let mut keys = Vec::new();
        for &fact_id in self.index.indexed().facts_with_null(null) {
            let predicate = self.index.store().predicate_of(fact_id);
            for &(dep, seed_index) in self.seed_atoms.seeds_for(predicate) {
                let body = self.sigma.get(dep).body();
                for_each_seeded_id::<()>(body, &self.index, seed_index, fact_id, &mut |h| {
                    keys.push((dep, h.canonical()));
                    ControlFlow::Continue(())
                });
            }
        }
        keys
    }

    /// Drains the delta worklist, seeding homomorphism search from every (body
    /// atom, delta fact) pair and queueing each newly discovered assignment. The
    /// `seed_atoms` map keyed by predicate means a delta fact visits only the body
    /// atoms it can actually unify with, not all of `Σ`.
    pub fn drain_deltas(&mut self) {
        while let Some(fact_id) = self.deltas.pop() {
            self.stats.deltas_processed += 1;
            let predicate = self.index.store().predicate_of(fact_id);
            for &(id, seed_index) in self.seed_atoms.seeds_for(predicate) {
                let body = self.sigma.get(id).body();
                // Borrow dance: collect first, then dedup against `seen`.
                let mut found: Vec<Assignment> = Vec::new();
                for_each_seeded_id::<()>(body, &self.index, seed_index, fact_id, &mut |h| {
                    found.push(h.clone());
                    ControlFlow::Continue(())
                });
                for h in found {
                    if self.queues.enqueue(id, h) {
                        self.stats.triggers_discovered += 1;
                    }
                }
            }
        }
    }

    /// Drains the delta worklist like [`TriggerEngine::drain_deltas`], but shards
    /// the waiting batch across up to `workers` scoped threads
    /// ([`crate::parallel::discover_batch`]). The per-worker results are merged
    /// back in batch order, and deduped against `seen` in that order, so the
    /// pending queues end up **identical** to a sequential drain at any worker
    /// count — parallelism here changes wall-clock time, never behaviour.
    pub fn drain_deltas_parallel(&mut self, workers: usize) {
        // `workers(0)` is defined to mean sequential execution (same as 1).
        if workers.max(1) == 1 {
            return self.drain_deltas();
        }
        let batch = self.deltas.take_batch();
        if batch.is_empty() {
            return;
        }
        self.stats.deltas_processed += batch.len();
        let found = {
            let snapshot = Snapshot::new(self.index.indexed());
            discover_batch(self.sigma, &self.seed_atoms, snapshot, &batch, workers)
        };
        for t in found {
            if self.queues.enqueue(t.dep, t.assignment) {
                self.stats.triggers_discovered += 1;
            }
        }
    }

    /// Pops the first *standard-active* trigger, trying the dependencies in the
    /// order given (the trigger-selection policy). Triggers that are no longer
    /// active are dropped permanently — see the module docs for why that is sound.
    pub fn next_active_trigger(&mut self, order: &[DepId]) -> Option<Trigger> {
        self.drain_deltas();
        self.pop_active(order)
    }

    /// [`TriggerEngine::next_active_trigger`] with a parallel delta drain: the
    /// discovery joins run on up to `workers` threads, the pop is unchanged.
    /// Returns exactly what the sequential method would (see
    /// [`TriggerEngine::drain_deltas_parallel`]).
    pub fn next_active_trigger_parallel(
        &mut self,
        order: &[DepId],
        workers: usize,
    ) -> Option<Trigger> {
        self.drain_deltas_parallel(workers);
        self.pop_active(order)
    }

    fn pop_active(&mut self, order: &[DepId]) -> Option<Trigger> {
        for &id in order {
            let dep = self.sigma.get(id);
            while let Some(h) = self.queues.pop(id) {
                if self.is_standard_active(dep, &h) {
                    return Some(Trigger {
                        dep: id,
                        assignment: h,
                    });
                }
                self.stats.triggers_dropped += 1;
            }
        }
        None
    }

    /// Pops the first discovered trigger accepted by `accept`, trying the
    /// dependencies in the given order. Rejected triggers are dropped permanently;
    /// no activity check is performed. This is the entry point for oblivious-style
    /// consumers (fired-key dedup) and saturation procedures (accept everything).
    pub fn next_trigger_where(
        &mut self,
        order: &[DepId],
        mut accept: impl FnMut(DepId, &Assignment) -> bool,
    ) -> Option<Trigger> {
        self.drain_deltas();
        for &id in order {
            while let Some(h) = self.queues.pop(id) {
                if accept(id, &h) {
                    return Some(Trigger {
                        dep: id,
                        assignment: h,
                    });
                }
                self.stats.triggers_dropped += 1;
            }
        }
        None
    }

    /// Returns `true` iff `(dep, h)` is active in the standard-chase sense: for a
    /// TGD, `h` does not extend to a homomorphism of the head into the instance;
    /// for an EGD, `h` maps the equated variables to distinct terms.
    pub fn is_standard_active(&self, dep: &Dependency, h: &Assignment) -> bool {
        match dep {
            Dependency::Tgd(tgd) => !exists_indexed_extension(&tgd.head, &self.index, h),
            Dependency::Egd(egd) => h.get(egd.left) != h.get(egd.right),
        }
    }

    /// Applies the chase step for `(dep, h)` natively on the engine's instance
    /// (Definition 1), updating the index, the delta worklist and the pending
    /// queues, and returns the effect. Unlike the naive path there is no full
    /// instance clone per step.
    pub fn apply_trigger(&mut self, dep_id: DepId, h: &Assignment) -> StepEffect {
        self.apply_trigger_inner(dep_id, h, None)
    }

    /// [`TriggerEngine::apply_trigger`] plus a [`StepLog`]: the step's body
    /// image, head ids and rewrite pairs at the [`FactId`] level, for support
    /// ledgers. The body image is resolved before the step runs (see
    /// [`StepLog`] for the EGD id-space caveat); the effect and every state
    /// change are identical to the unlogged call.
    pub fn apply_trigger_logged(&mut self, dep_id: DepId, h: &Assignment) -> (StepEffect, StepLog) {
        let mut log = StepLog {
            body: body_image(self.sigma, self.index.store(), dep_id, h),
            ..StepLog::default()
        };
        debug_assert!(
            log.body.iter().all(|&id| self.instance().contains_id(id)),
            "a trigger's body maps into the live instance"
        );
        let effect = self.apply_trigger_inner(dep_id, h, Some(&mut log));
        (effect, log)
    }

    fn apply_trigger_inner(
        &mut self,
        dep_id: DepId,
        h: &Assignment,
        log: Option<&mut StepLog>,
    ) -> StepEffect {
        match self.sigma.get(dep_id) {
            Dependency::Tgd(tgd) => {
                let step = self.index.apply_tgd(tgd, h);
                for &(id, new) in &step.heads {
                    self.record_insert(id, new);
                }
                if let Some(log) = log {
                    log.heads = step.heads.iter().map(|&(id, _)| id).collect();
                }
                StepEffect::AddedFacts {
                    facts: step.added,
                    fresh_nulls: step.fresh_nulls,
                }
            }
            Dependency::Egd(egd) => {
                let left = h.get(egd.left).expect("EGD body variables must be bound");
                let right = h.get(egd.right).expect("EGD body variables must be bound");
                if left == right {
                    return StepEffect::NotApplicable;
                }
                match (left, right) {
                    (GroundTerm::Const(_), GroundTerm::Const(_)) => StepEffect::Failure,
                    (GroundTerm::Null(n), other) | (other, GroundTerm::Null(n)) => {
                        let gamma = NullSubstitution::single(n, other);
                        let rewrites = self.apply_substitution(&gamma);
                        if let Some(log) = log {
                            log.rewrites = rewrites;
                        }
                        StepEffect::Substituted { gamma }
                    }
                }
            }
        }
    }

    /// Retracts facts by id: forgets every discovered assignment whose body
    /// image touches one of them, purges them from the delta worklist, then
    /// removes them from the instance and its indexes. Returns the number of
    /// facts actually removed (dead or unknown ids are skipped).
    ///
    /// Forgetting runs **before** removal, because the seeded joins that locate
    /// the affected assignments must still resolve through the departing facts.
    /// And it must drop the `seen` entries, not just the pending ones: a
    /// retracted fact that is later rederived or re-inserted comes back under
    /// its original id (the arena keeps the interning) and re-enters discovery
    /// as a fresh delta — a stale dedup entry would silently suppress its
    /// triggers forever.
    pub fn retract_ids(&mut self, ids: &[FactId]) -> usize {
        for &id in ids {
            if !self.index.instance().contains_id(id) {
                continue;
            }
            let predicate = self.index.store().predicate_of(id);
            for &(dep, seed_index) in self.seed_atoms.seeds_for(predicate) {
                let body = self.sigma.get(dep).body();
                let mut found: Vec<Assignment> = Vec::new();
                for_each_seeded_id::<()>(body, &self.index, seed_index, id, &mut |h| {
                    found.push(h.clone());
                    ControlFlow::Continue(())
                });
                for h in found {
                    self.queues.forget(dep, &h);
                }
            }
        }
        let dead: HashSet<FactId> = ids.iter().copied().collect();
        self.deltas.retain(|id| !dead.contains(&id));
        let removed = self.index.remove_ids(ids);
        self.stats.facts_retracted += removed;
        removed
    }
}

fn substitute_key(key: &mut [(Variable, GroundTerm)], gamma: &NullSubstitution) {
    for (_, t) in key.iter_mut() {
        *t = gamma.apply_ground(*t);
    }
}

fn rewrite_assignment(h: &Assignment, gamma: &NullSubstitution) -> Assignment {
    Assignment::from_pairs(h.iter().map(|(v, t)| (v, gamma.apply_ground(t))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_core::term::{Constant, NullValue};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn sigma1() -> (DependencySet, Instance) {
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        (p.dependencies, p.database)
    }

    #[test]
    fn initial_database_seeds_triggers() {
        let (sigma, db) = sigma1();
        let order: Vec<DepId> = sigma.ids().collect();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let t = engine.next_active_trigger(&order).unwrap();
        // Only r1 is active on {N(a)}.
        assert_eq!(t.dep, DepId(0));
        assert_eq!(t.assignment.get(Variable::new("x")), Some(gc("a")));
    }

    #[test]
    fn applying_a_tgd_discovers_downstream_triggers() {
        let (sigma, db) = sigma1();
        let order: Vec<DepId> = sigma.ids().collect();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let t = engine.next_active_trigger(&order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        match effect {
            StepEffect::AddedFacts { facts, fresh_nulls } => {
                assert_eq!(facts.len(), 1);
                assert_eq!(fresh_nulls, 1);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
        // Now r2 (textual order) is active through the new E fact.
        let t2 = engine.next_active_trigger(&order).unwrap();
        assert_eq!(t2.dep, DepId(1));
    }

    #[test]
    fn egd_priority_reproduces_example_1() {
        let (sigma, db) = sigma1();
        // EGDs first: r3, then r1, r2.
        let order = vec![DepId(2), DepId(0), DepId(1)];
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        let mut steps = Vec::new();
        while let Some(t) = engine.next_active_trigger(&order) {
            steps.push(t.dep);
            let effect = engine.apply_trigger(t.dep, &t.assignment);
            assert_ne!(effect, StepEffect::Failure, "Σ1 on {{N(a)}} must not fail");
            assert!(steps.len() < 10, "diverged");
        }
        assert_eq!(steps, vec![DepId(0), DepId(2)]);
        let j = engine.into_instance();
        assert_eq!(j.len(), 2);
        assert!(j.contains(&Fact::from_parts("N", vec![gc("a")])));
        assert!(j.contains(&Fact::from_parts("E", vec![gc("a"), gc("a")])));
    }

    #[test]
    fn substitution_rewrites_pending_triggers() {
        let (sigma, _) = sigma1();
        let mut engine = TriggerEngine::new(&sigma);
        engine.push_facts(vec![
            Fact::from_parts("N", vec![gc("a")]),
            Fact::from_parts("E", vec![gc("a"), GroundTerm::Null(NullValue(7))]),
        ]);
        engine.drain_deltas();
        // γ = {η7/a}: the pending r2 trigger must now bind y to a — making it
        // inactive, since N(a) already holds.
        engine.apply_substitution(&NullSubstitution::single(NullValue(7), gc("a")));
        let order: Vec<DepId> = sigma.ids().collect();
        let t = engine.next_active_trigger(&order);
        // r1 is satisfied (E(a,a) witnesses), r2 is satisfied (N(a)), r3 is
        // satisfied (x = y = a): nothing is active.
        assert!(t.is_none(), "got {t:?}");
        assert_eq!(engine.instance().len(), 2);
    }

    #[test]
    fn substitution_can_create_triggers() {
        // Body E(x, x) matches only after the two nulls collapse.
        let p = parse_program("r: E(?x, ?x) -> Loop(?x).").unwrap();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts(
            "E",
            vec![
                GroundTerm::Null(NullValue(1)),
                GroundTerm::Null(NullValue(2)),
            ],
        )]);
        let order: Vec<DepId> = p.dependencies.ids().collect();
        assert!(engine.next_active_trigger(&order).is_none());
        engine.apply_substitution(&NullSubstitution::single(
            NullValue(1),
            GroundTerm::Null(NullValue(2)),
        ));
        let t = engine
            .next_active_trigger(&order)
            .expect("collapsed fact must trigger the rule");
        assert_eq!(
            t.assignment.get(Variable::new("x")),
            Some(GroundTerm::Null(NullValue(2)))
        );
    }

    #[test]
    fn substitution_before_drain_rewrites_queued_deltas() {
        // Push a fact mentioning η1, substitute η1 away *before* discovery runs:
        // the derived fact must use the rewritten term, never the dead null.
        let p = parse_program("r: E(?x, ?y) -> N(?y).").unwrap();
        let mut engine = TriggerEngine::new(&p.dependencies);
        engine.push_facts(vec![Fact::from_parts(
            "E",
            vec![gc("a"), GroundTerm::Null(NullValue(1))],
        )]);
        engine.apply_substitution(&NullSubstitution::single(NullValue(1), gc("b")));
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let t = engine.next_active_trigger(&order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        match effect {
            StepEffect::AddedFacts { facts, .. } => {
                assert_eq!(facts, vec![Fact::from_parts("N", vec![gc("b")])]);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
        assert!(engine.instance().nulls().is_empty());
    }

    #[test]
    fn database_seeding_is_deterministic() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c). E(c, d). E(d, e). E(e, f).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let run = || {
            let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
            let mut picked = Vec::new();
            while let Some(t) = engine.next_active_trigger(&order) {
                picked.push(t.assignment.canonical());
                engine.apply_trigger(t.dep, &t.assignment);
                assert!(picked.len() < 100, "diverged");
            }
            picked
        };
        assert_eq!(run(), run(), "trigger order must not depend on hash state");
    }

    #[test]
    fn failing_egd_is_reported() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b). P(a, c).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = engine.next_active_trigger(&order).unwrap();
        let effect = engine.apply_trigger(t.dep, &t.assignment);
        assert_eq!(effect, StepEffect::Failure);
    }

    #[test]
    fn next_trigger_where_skips_rejected_keys() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        // Accept everything: the initial fact yields exactly one candidate.
        let t = engine
            .next_trigger_where(&order, |_, _| true)
            .expect("one candidate");
        assert_eq!(t.assignment.get(Variable::new("x")), Some(gc("a")));
        // Reject everything afterwards: no candidate survives.
        assert!(engine.next_trigger_where(&order, |_, _| false).is_none());
    }

    #[test]
    fn duplicate_discovery_is_suppressed() {
        // Both body atoms match the same delta fact: the join must be discovered
        // once, not twice.
        let p = parse_program("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z). E(a, a).").unwrap();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        engine.drain_deltas();
        assert_eq!(engine.stats().triggers_discovered, 1);
    }

    #[test]
    fn tgd_activity_checks_route_through_the_maintained_index() {
        // The standard-activity test for a TGD head must consult the engine's
        // per-(predicate, position) indexes, not a scan: the probe counter of the
        // maintained `IndexedInstance` has to advance across the check.
        let (sigma, db) = sigma1();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        engine.drain_deltas();
        let h = Assignment::from_pairs([(Variable::new("x"), gc("a"))]);
        let before = engine.fact_index().indexed().probe_count();
        // r1 is a TGD with head E(x, y): activity extends h over the head.
        let active = engine.is_standard_active(sigma.get(DepId(0)), &h);
        assert!(active, "no E(a, _) fact exists yet, the trigger is active");
        let after = engine.fact_index().indexed().probe_count();
        assert!(
            after > before,
            "TGD-activity check did not touch the position index ({before} -> {after})"
        );
    }

    #[test]
    fn parallel_drain_is_identical_to_sequential_drain() {
        // A closure chase driven once with sequential drains and once with
        // parallel drains at several worker counts must make bit-identical
        // decisions: same triggers in the same order, same engine stats, same
        // final instance. (This is the determinism contract of
        // `drain_deltas_parallel`: merging in batch order reconstructs the
        // sequential discovery order exactly.)
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            s: E(?x, ?y) -> N(?y).
            "#,
        )
        .unwrap();
        let db = Instance::from_facts((0..24).map(|i| {
            Fact::from_parts("E", vec![gc(&format!("v{i}")), gc(&format!("v{}", i + 1))])
        }));
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let run = |workers: usize| {
            let mut engine = TriggerEngine::with_database(&p.dependencies, &db);
            let mut picked = Vec::new();
            while let Some(t) = engine.next_active_trigger_parallel(&order, workers) {
                picked.push((t.dep, t.assignment.canonical()));
                engine.apply_trigger(t.dep, &t.assignment);
                assert!(picked.len() < 5_000, "diverged");
            }
            let stats = engine.stats().clone();
            (picked, stats, engine.into_instance())
        };
        let baseline = run(1);
        for workers in [2, 4, 8] {
            let parallel = run(workers);
            assert_eq!(baseline.0, parallel.0, "trigger sequence at {workers}");
            assert_eq!(baseline.1, parallel.1, "engine stats at {workers}");
            assert_eq!(baseline.2, parallel.2, "final instance at {workers}");
        }
    }

    #[test]
    fn parallel_drain_of_an_empty_worklist_is_a_noop() {
        // Satellite: a zero-length batch must not touch discovery at any worker
        // count — no deltas processed, no snapshot sharding, no candidates.
        let (sigma, db) = sigma1();
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        engine.drain_deltas();
        let stats = engine.stats().clone();
        for workers in [1, 2, 4, 8] {
            engine.drain_deltas_parallel(workers);
            assert_eq!(engine.stats(), &stats, "at {workers} workers");
        }
    }

    #[test]
    fn logged_tgd_step_records_body_and_all_heads() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z), N(?x).
            E(a, b). E(b, c). N(a).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = engine.next_active_trigger(&order).unwrap();
        let (effect, log) = engine.apply_trigger_logged(t.dep, &t.assignment);
        let id = |pred: &str, a: &str, b: &str| {
            engine
                .fact_index()
                .id_of(&Fact::from_parts(pred, vec![gc(a), gc(b)]))
                .unwrap()
        };
        assert_eq!(log.body, vec![id("E", "a", "b"), id("E", "b", "c")]);
        // Both heads are logged — E(a, c) is new, N(a) already existed.
        let n_a = engine
            .fact_index()
            .id_of(&Fact::from_parts("N", vec![gc("a")]))
            .unwrap();
        assert_eq!(log.heads, vec![id("E", "a", "c"), n_a]);
        assert!(log.rewrites.is_empty());
        match effect {
            StepEffect::AddedFacts { facts, .. } => {
                assert_eq!(facts, vec![Fact::from_parts("E", vec![gc("a"), gc("c")])]);
            }
            other => panic!("expected AddedFacts, got {other:?}"),
        }
    }

    #[test]
    fn logged_egd_step_records_prerewrite_body_and_the_rewrites() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        let (null_fact_id, _) = engine.push_fact_full(Fact::from_parts(
            "P",
            vec![gc("a"), GroundTerm::Null(NullValue(1))],
        ));
        let (ground_id, _) = engine.push_fact_full(Fact::from_parts("P", vec![gc("a"), gc("b")]));
        let t = engine
            .next_trigger_where(&order, |_, h| {
                h.get(Variable::new("y")) != h.get(Variable::new("z"))
            })
            .unwrap();
        let (effect, log) = engine.apply_trigger_logged(t.dep, &t.assignment);
        assert!(matches!(effect, StepEffect::Substituted { .. }));
        // The body image is in pre-rewrite id space; the rewrite pairs map the
        // collapsed fact onto its ground image.
        assert_eq!(log.body.len(), 2);
        assert!(log.body.contains(&null_fact_id));
        assert!(log.body.contains(&ground_id));
        assert_eq!(log.rewrites, vec![(null_fact_id, ground_id)]);
        assert!(log.heads.is_empty());
    }

    #[test]
    fn retract_forgets_seen_so_rederivation_can_refire() {
        // Derive N(b) from E(a, b), retract E(a, b), push it back: the trigger
        // must be discovered and applicable again — a stale `seen` entry would
        // suppress it forever.
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let t = engine.next_trigger_where(&order, |_, _| true).unwrap();
        engine.apply_trigger(t.dep, &t.assignment);
        assert!(engine.next_trigger_where(&order, |_, _| true).is_none());
        let e_ab = engine
            .fact_index()
            .id_of(&Fact::from_parts("E", vec![gc("a"), gc("b")]))
            .unwrap();
        assert_eq!(engine.retract_ids(&[e_ab]), 1);
        assert_eq!(engine.stats().facts_retracted, 1);
        assert_eq!(engine.instance().len(), 1, "N(b) survives, E(a, b) is gone");
        // Re-insert: same id, and the trigger fires again.
        let (again, new) = engine.push_fact_full(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        assert!(new);
        assert_eq!(again, e_ab);
        let t = engine
            .next_trigger_where(&order, |_, _| true)
            .expect("the forgotten trigger must be rediscovered");
        assert_eq!(t.dep, DepId(0));
    }

    #[test]
    fn retract_purges_pending_and_queued_deltas() {
        // Retract a fact whose trigger is still pending and whose id is still
        // in the delta worklist: neither may survive.
        let p = parse_program("r: E(?x, ?y) -> N(?y).").unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::new(&p.dependencies);
        let (id, _) = engine.push_fact_full(Fact::from_parts("E", vec![gc("a"), gc("b")]));
        // Drain: discovery has run, the r-trigger is pending.
        engine.drain_deltas();
        assert_eq!(engine.pending_len(), 1);
        // Push a second copy path: enqueue the id again via retraction of a
        // still-queued fact — first check the queued-delta purge.
        let (id2, _) = engine.push_fact_full(Fact::from_parts("E", vec![gc("c"), gc("d")]));
        assert_eq!(engine.retract_ids(&[id, id2]), 2);
        assert!(engine.is_quiescent(), "no pending trigger, no queued delta");
        assert!(
            engine.next_trigger_where(&order, |_, _| true).is_none(),
            "retracted facts must not fire triggers"
        );
        assert!(engine.instance().is_empty());
    }

    #[test]
    fn retracting_a_dead_or_unknown_id_is_a_noop() {
        let p = parse_program("r: E(?x, ?y) -> N(?y). E(a, b).").unwrap();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let e_ab = engine
            .fact_index()
            .id_of(&Fact::from_parts("E", vec![gc("a"), gc("b")]))
            .unwrap();
        assert_eq!(engine.retract_ids(&[e_ab, e_ab]), 1, "duplicates collapse");
        assert_eq!(engine.retract_ids(&[e_ab]), 0, "already dead");
        assert_eq!(engine.stats().facts_retracted, 1);
    }

    #[test]
    fn transitive_closure_via_engine() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            E(a, b). E(b, c). E(c, d).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        let mut steps = 0;
        while let Some(t) = engine.next_active_trigger(&order) {
            engine.apply_trigger(t.dep, &t.assignment);
            steps += 1;
            assert!(steps < 100, "diverged");
        }
        // Closure of a 4-chain has 6 edges.
        assert_eq!(engine.instance().len(), 6);
    }

    /// The dependency orders of the standard chase's `StepOrder` policies
    /// (`chase_engine::standard::dependency_order`): textual, EGDs first,
    /// full dependencies first, and a seeded shuffle.
    fn step_orders(sigma: &DependencySet, seed: u64) -> Vec<(&'static str, Vec<DepId>)> {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let textual: Vec<DepId> = sigma.ids().collect();
        let mut egds_first = textual.clone();
        egds_first.sort_by_key(|&id| {
            let dep = sigma.get(id);
            if dep.is_egd() {
                0
            } else if dep.is_full() {
                1
            } else {
                2
            }
        });
        let mut full_first = textual.clone();
        full_first.sort_by_key(|&id| if sigma.get(id).is_full() { 0 } else { 1 });
        let mut shuffled = textual.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        vec![
            ("textual", textual),
            ("egds-first", egds_first),
            ("full-first", full_first),
            ("shuffled", shuffled),
        ]
    }

    /// Asserts that two engines hold the same discovered-trigger state, the
    /// same instance and the same counters. `substitution_rewrites` counts
    /// visits, which is exactly where the two rewrites differ.
    fn assert_same_state(indexed: &TriggerEngine, reference: &TriggerEngine, at: &str) {
        assert_eq!(
            indexed.queues.pending, reference.queues.pending,
            "pending, {at}"
        );
        assert_eq!(
            indexed.queues.popped, reference.queues.popped,
            "popped, {at}"
        );
        assert_eq!(indexed.queues.seen, reference.queues.seen, "seen, {at}");
        let visits_apart = |engine: &TriggerEngine| EngineStats {
            substitution_rewrites: 0,
            ..engine.stats().clone()
        };
        assert_eq!(
            visits_apart(indexed),
            visits_apart(reference),
            "stats, {at}"
        );
        assert_eq!(indexed.instance(), reference.instance(), "instance, {at}");
    }

    /// Runs the standard chase under `order` on an indexed engine and on the
    /// full-rewrite reference in lockstep, comparing them after every step.
    /// Returns the number of substitutions applied.
    fn run_in_lockstep(
        sigma: &DependencySet,
        db: &Instance,
        order: &[DepId],
        max_steps: usize,
        label: &str,
    ) -> usize {
        let mut indexed = TriggerEngine::with_database(sigma, db);
        let mut reference = TriggerEngine::with_database(sigma, db);
        reference.queues.full_rewrite = true;
        for step in 0..max_steps {
            let at = format!("{label}, step {step}");
            let popped = indexed.next_active_trigger(order);
            assert_eq!(popped, reference.next_active_trigger(order), "popped, {at}");
            assert_same_state(&indexed, &reference, &at);
            let Some(t) = popped else { break };
            let effect = indexed.apply_trigger(t.dep, &t.assignment);
            assert_eq!(
                effect,
                reference.apply_trigger(t.dep, &t.assignment),
                "{at}"
            );
            assert_same_state(&indexed, &reference, &at);
            if effect == StepEffect::Failure {
                break;
            }
        }
        assert!(!reference.holds_null_index(), "the reference never indexes");
        indexed.stats().substitutions
    }

    fn gn(n: u64) -> GroundTerm {
        GroundTerm::Null(NullValue(n))
    }

    /// `db` with every other constant (in name order) replaced by a null, so
    /// that EGDs merge nulls instead of failing on two constants.
    fn with_nulls(db: &Instance) -> Instance {
        let mut constants: Vec<String> = db
            .facts()
            .flat_map(|f| f.terms.into_iter().map(|t| t.to_string()))
            .collect();
        constants.sort();
        constants.dedup();
        let null_of = |t: GroundTerm| match constants.binary_search(&t.to_string()) {
            Ok(rank) if rank % 2 == 0 => gn(1000 + rank as u64),
            _ => t,
        };
        Instance::from_facts(db.facts().map(|f| Fact {
            predicate: f.predicate,
            terms: f.terms.into_iter().map(null_of).collect(),
        }))
    }

    #[test]
    fn indexed_substitution_is_byte_identical_to_the_full_rewrite() {
        use chase_ontology::{generate, generate_database, generate_family, OntologyProfile};
        let mut programs: Vec<(String, DependencySet, Instance)> = Vec::new();
        for seed in 0..24u64 {
            let sigma = generate(&OntologyProfile {
                existential: (seed % 4) as usize + 1,
                full: (seed % 5) as usize + 2,
                egds: (seed % 3) as usize + 1,
                cyclic: seed % 2 == 0,
                seed,
            });
            let db = with_nulls(&generate_database(&sigma, 40, seed ^ 0x5eed));
            programs.push((format!("profile seed {seed}"), sigma, db));
        }
        // Σ1 copies: constants that collapse their invented nulls, and
        // edges between database nulls that collapse into each other.
        let copies = generate_family("egd-collapse-cycles", 9, 0).expect("known family");
        let mut facts = Vec::new();
        for j in 0..12u64 {
            let copy = j % 3;
            facts.push(Fact::from_parts(
                &format!("N{copy}"),
                vec![gc(&format!("k{j}"))],
            ));
            facts.push(Fact::from_parts(
                &format!("E{copy}"),
                vec![gn(100 + j), gn(100 + (j + 1) % 12)],
            ));
        }
        programs.push((
            "egd-collapse-cycles".into(),
            copies,
            Instance::from_facts(facts),
        ));
        // Functional and key EGDs over roles filled mostly with nulls: nulls
        // merge into nulls, and a few into constants.
        let heavy = generate_family("egd-heavy", 8, 0).expect("known family");
        let mut facts = Vec::new();
        for role in 0..2u64 {
            for j in 0..8u64 {
                let (s, o) = (j % 4, j % 3);
                let subject = if s == 0 {
                    gc("s")
                } else {
                    gn(200 + 10 * role + s)
                };
                let object = if o == 0 {
                    gc("o")
                } else {
                    gn(300 + 10 * role + o)
                };
                facts.push(Fact::from_parts(&format!("R{role}"), vec![subject, object]));
            }
        }
        for j in 0..6 {
            facts.push(Fact::from_parts("Src0", vec![gc(&format!("k{j}"))]));
        }
        programs.push(("egd-heavy".into(), heavy, Instance::from_facts(facts)));

        let mut substitutions = 0;
        for (seed, (name, sigma, db)) in programs.iter().enumerate() {
            for (order_name, order) in step_orders(sigma, seed as u64) {
                let label = format!("{name}, {order_name}");
                substitutions += run_in_lockstep(sigma, db, &order, 400, &label);
            }
        }
        assert!(
            substitutions > 200,
            "the corpus must substitute ({substitutions})"
        );
    }

    /// Runs Σ1 copies EGDs-first over `facts` unary `N_i` facts and returns
    /// the engine's substitution visits.
    fn sigma1_substitution_visits(facts: usize, full_rewrite: bool) -> usize {
        let sigma =
            chase_ontology::generate_family("egd-collapse-cycles", 12, 0).expect("known family");
        let db = Instance::from_facts(
            (0..facts)
                .map(|j| Fact::from_parts(&format!("N{}", j % 4), vec![gc(&format!("k{j}"))])),
        );
        let (_, order) = step_orders(&sigma, 0).swap_remove(1);
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        engine.queues.full_rewrite = full_rewrite;
        while let Some(t) = engine.next_active_trigger(&order) {
            engine.apply_trigger(t.dep, &t.assignment);
        }
        assert_eq!(engine.stats().substitutions, facts, "one collapse per fact");
        assert_eq!(engine.instance().len(), 2 * facts, "N_i(k) and E_i(k, k)");
        engine.stats().substitution_rewrites
    }

    #[test]
    fn substitution_work_grows_linearly_with_the_facts() {
        let (n, twice) = (
            sigma1_substitution_visits(300, false),
            sigma1_substitution_visits(600, false),
        );
        assert!(
            twice <= 2 * n + 16,
            "indexed: {n} visits at 300 facts, {twice} at 600"
        );
        // The full rewrite visits every trigger ever discovered on each step,
        // so its count about quadruples: the counter tells the two apart.
        let (n, twice) = (
            sigma1_substitution_visits(300, true),
            sigma1_substitution_visits(600, true),
        );
        assert!(
            twice >= 3 * n,
            "full rewrite: {n} visits at 300 facts, {twice} at 600"
        );
    }

    #[test]
    fn only_a_substituting_engine_holds_a_null_index() {
        let p = parse_program(
            r#"
            t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
            r: E(?x, ?y) -> exists ?w: F(?y, ?w).
            E(a, b). E(b, c). E(c, d).
            "#,
        )
        .unwrap();
        let order: Vec<DepId> = p.dependencies.ids().collect();
        let mut engine = TriggerEngine::with_database(&p.dependencies, &p.database);
        while let Some(t) = engine.next_active_trigger(&order) {
            engine.apply_trigger(t.dep, &t.assignment);
        }
        assert!(!engine.instance().nulls().is_empty());
        assert!(!engine.holds_null_index(), "an EGD-free run must not index");

        let (sigma, db) = sigma1();
        let order = vec![DepId(2), DepId(0), DepId(1)];
        let mut engine = TriggerEngine::with_database(&sigma, &db);
        while let Some(t) = engine.next_active_trigger(&order) {
            engine.apply_trigger(t.dep, &t.assignment);
        }
        assert_eq!(engine.stats().substitutions, 1);
        assert!(engine.holds_null_index());
    }

    #[test]
    fn a_retraction_drops_the_pending_index_and_the_next_substitution_rebuilds_it() {
        // Two pending triggers mention η1; retracting the first shifts the
        // second's position, which the rebuilt index must find.
        let p = parse_program("r: E(?x, ?y) -> N(?y).").unwrap();
        let mut engine = TriggerEngine::new(&p.dependencies);
        let (first, _) = engine.push_fact_full(Fact::from_parts("E", vec![gc("a"), gn(1)]));
        engine.push_facts([
            Fact::from_parts("E", vec![gc("b"), gn(1)]),
            Fact::from_parts("E", vec![gc("c"), gn(2)]),
        ]);
        engine.drain_deltas();
        engine.apply_substitution(&NullSubstitution::single(NullValue(2), gc("z")));
        assert!(engine.queues.pending_nulls.is_some());
        engine.retract_ids(&[first]);
        assert!(engine.queues.pending_nulls.is_none());
        engine.apply_substitution(&NullSubstitution::single(NullValue(1), gc("y")));
        let ys: Vec<_> = engine.queues.pending[0]
            .iter()
            .map(|h| h.get(Variable::new("y")))
            .collect();
        assert_eq!(ys, vec![Some(gc("y")), Some(gc("z"))]);
    }
}
