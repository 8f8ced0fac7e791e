//! The round runner: the one runner of every EGD-free (semi-)oblivious run, at
//! every worker count.
//!
//! The paper's oblivious and semi-oblivious chases fire *every* trigger of a round
//! (modulo the fired-key comparison) — there is no activity check whose outcome
//! depends on what else fired in the meantime. Without EGDs the order in which a
//! round's triggers fire can only rename nulls, so one deterministic order serves
//! every worker count. Each round runs three stages:
//!
//! 1. **discovery** — the round's new facts (the delta) are discovered against a
//!    read-only [`Snapshot`] of the [`FactIndex`], sharded over disjoint
//!    `FactId` ranges of the delta as jobs on the persistent worker pool
//!    ([`chase_core::pool`]; see [`chase_trigger::parallel::discover_batch`]).
//!    The candidates come back in batch order, which does not depend on the
//!    worker count;
//! 2. **merge** — the fired-key filter, in batch order: a candidate whose key
//!    already fired is dropped. Seeds come only from the delta, and an EGD-free
//!    run never removes or rewrites a fact, so a trigger is never found again in
//!    a later round; duplicates within a round have equal keys;
//! 3. **apply** — the kept triggers fire one at a time in batch order
//!    ([`FactIndex::apply_tgd`]), with a budget check before each step.
//!
//! Fresh-null numbering, [`ChaseStats`], the tripped budget limit and the full
//! [`ChaseObserver`] stream (derivation events included) are therefore
//! byte-identical at every worker count, `workers(1)` included. The step loop
//! of [`crate::oblivious`] fires the same set of triggers one at a time in
//! dependency order; a terminating run of either gives the same instance up to
//! a renaming of labeled nulls, and the differential test below pins that.
//!
//! ## Why only the EGD-free oblivious variants batch whole rounds
//!
//! * The **standard chase** checks *activity* at application time: whether a
//!   trigger fires depends on the facts added earlier in the sequence, so
//!   batching a whole round against a stale snapshot genuinely changes the result
//!   (a trigger can fire on the ∃-null it would have found satisfied one step
//!   later — not even isomorphic). The standard chase therefore keeps the
//!   sequential *apply* order and parallelises only the read-only discovery
//!   around it: each drain of the delta worklist runs sharded with an
//!   order-preserving merge
//!   ([`chase_trigger::TriggerEngine::drain_deltas_parallel`]), which is
//!   bitwise-identical to the sequential runner.
//! * **EGD-bearing** dependency sets run on the step loop of
//!   [`crate::oblivious`] at every worker count: an EGD substitution rewrites
//!   the pending triggers and the fired keys (`h ↦ γ∘h`), so which triggers
//!   exist — and even how many steps fire — depends on the interleaving of
//!   substitutions with TGD steps. The round runner does not apply that
//!   rewrite to its pending batch, so these sets stay on the step loop.
//! * The **core chase** already fires all triggers per round (logically); its
//!   execution cost is dominated by core computation, whose per-null fold
//!   search `workers > 1` parallelises deterministically
//!   ([`crate::core_of::core_of_with_workers`]) — the round's trigger scan and
//!   applies stay sequential.

use crate::budget::{BudgetClock, ChaseBudget};
use crate::oblivious::fired_key;
use crate::observer::{record_step_effect, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats};
use crate::step::StepEffect;
use chase_core::{DependencySet, FactId, GroundTerm, Instance, Snapshot, Variable};
use chase_trigger::{
    body_image, discover_batch, discover_batch_instrumented, FactIndex, SeedAtoms,
};
use std::collections::HashSet;
use std::time::Instant;

/// Runs the (semi-)oblivious chase round by round. Callers guarantee `sigma` has
/// no EGDs (the dispatcher in [`crate::oblivious`] sends EGD-bearing sets to the
/// step loop); `workers` only sets how many pool lanes discovery uses.
///
/// `key_vars` holds, per dependency, the variables of the fired-key comparison —
/// all body variables for the oblivious chase, the frontier for the
/// semi-oblivious chase (see `key_variables` in [`crate::oblivious`]).
pub(crate) fn run_oblivious_parallel(
    sigma: &DependencySet,
    key_vars: &[Vec<Variable>],
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
    workers: usize,
) -> ChaseOutcome {
    debug_assert!(
        sigma.egd_ids().is_empty(),
        "the round runner requires an EGD-free dependency set"
    );
    let clock = BudgetClock::start(budget);
    let seeds = SeedAtoms::new(sigma);
    let mut index = FactIndex::new();
    // The round-0 delta is the database itself, loaded through the one shared
    // routine ([`FactIndex::insert_database`]) the step loop also uses.
    let mut delta: Vec<FactId> = index.insert_database(database);
    // Σ is EGD-free, so no null is ever removed: the live nulls after a round
    // are the database's plus every fresh one.
    let database_nulls = database.nulls().len();
    // Fired trigger keys per dependency. Σ is EGD-free, so keys are never
    // rewritten and a plain set suffices (contrast with the step loop's
    // γ-propagation).
    let mut fired: Vec<HashSet<Vec<GroundTerm>>> = vec![HashSet::new(); sigma.len()];
    let mut stats = ChaseStats::default();
    let mut round = 0usize;
    // Phase instrumentation and derivation events are opt-in (consulted once):
    // without them the loop below performs no clock reads beyond the budget's
    // own and resolves no body images.
    let phases = observer.observes_phases();
    let derivations = observer.observes_derivations();
    loop {
        // A zero-length delta discovers nothing: skip the snapshot and, in
        // particular, emit no empty-shard `discovery_completed` event and no
        // `merge_completed` event (discovery/merge events stay paired).
        let had_delta = !delta.is_empty();
        let mut batch = if !had_delta {
            Vec::new()
        } else {
            let snapshot = Snapshot::new(index.indexed());
            if phases {
                let (batch, discovery) =
                    discover_batch_instrumented(sigma, &seeds, snapshot, &delta, workers);
                observer.discovery_completed(&discovery);
                batch
            } else {
                discover_batch(sigma, &seeds, snapshot, &delta, workers)
            }
        };
        delta.clear();
        // Merge: the fired-key filter, in batch order (rejected candidates
        // consume no budget).
        let merge_start = (phases && had_delta).then(Instant::now);
        let candidates = batch.len();
        batch.retain(|t| fired[t.dep.0].insert(fired_key(&key_vars[t.dep.0], &t.assignment)));
        if let Some(start) = merge_start {
            observer.merge_completed(candidates, batch.len(), start.elapsed());
        }
        // One budget check before each step and, when the merge kept nothing,
        // one more before concluding that no trigger remains, as in the step
        // loop.
        let done = batch.is_empty();
        for trigger in batch.into_iter().map(Some).chain(done.then_some(None)) {
            let tripped = clock.check_step(&stats, index.len());
            if phases {
                observer.budget_checked(tripped);
            }
            if let Some(limit) = tripped {
                return ChaseOutcome::BudgetExhausted {
                    limit,
                    instance: index.into_instance(),
                    stats,
                };
            }
            let Some(trigger) = trigger else {
                return ChaseOutcome::Terminated {
                    instance: index.into_instance(),
                    stats,
                };
            };
            let (dep, h) = (trigger.dep, &trigger.assignment);
            let tgd = sigma.get(dep).as_tgd().expect("EGD-free dependency set");
            let body = derivations.then(|| body_image(sigma, index.store(), dep, h));
            let step = index.apply_tgd(tgd, h);
            delta.extend(step.heads.iter().filter(|h| h.1).map(|h| h.0));
            // Derivation events precede the step's standard events (pinned
            // order).
            if let Some(body) = body {
                let heads: Vec<FactId> = step.heads.iter().map(|h| h.0).collect();
                observer.fact_derived(dep, &fired_key(&key_vars[dep.0], h), &body, &heads);
            }
            let effect = StepEffect::AddedFacts {
                facts: step.added,
                fresh_nulls: step.fresh_nulls,
            };
            if record_step_effect(sigma, &trigger, &effect, &mut stats, observer).is_some() {
                unreachable!("TGD steps cannot fail");
            }
        }
        // Round-granular events, in the unified order pinned by
        // `tests/api_redesign.rs`: `round_completed` immediately followed by
        // `round_nulls`, after all of the round's step/null events. The merge
        // kept at least one trigger, so every reported round applied a step.
        round += 1;
        observer.round_completed(round, index.len());
        observer.round_nulls(database_nulls + stats.nulls_created);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::TraceObserver;
    use crate::session::Chase;
    use crate::ObliviousVariant;
    use chase_core::parser::parse_program;

    fn closure_program(n: usize) -> chase_core::Program {
        let mut src = String::from("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).\n");
        for i in 0..n {
            src.push_str(&format!("E(v{i}, v{}).\n", i + 1));
        }
        parse_program(&src).unwrap()
    }

    #[test]
    fn zero_length_delta_rounds_emit_no_discovery_events() {
        // Satellite: a round whose delta is empty (steps that added nothing
        // new, or an empty database) must not emit a phantom zero-fact
        // `discovery_completed` shard event.
        use crate::observer::{ChaseEvent, EventObserver};
        let p = closure_program(6);
        let count_rounds = |db: &chase_core::Instance| {
            let mut discoveries = Vec::new();
            let mut obs = EventObserver(|e: ChaseEvent| {
                if let ChaseEvent::DiscoveryCompleted { stats } = e {
                    discoveries.push(stats.facts_scanned());
                }
            });
            let out = Chase::semi_oblivious(&p.dependencies)
                .workers(4)
                .run_observed(db, &mut obs);
            assert!(out.is_terminating());
            discoveries
        };
        // Empty database: the single (empty) round discovers nothing.
        assert!(count_rounds(&chase_core::Instance::new()).is_empty());
        // Real run: every reported discovery round scanned at least one fact.
        let discoveries = count_rounds(&p.database);
        assert!(!discoveries.is_empty());
        assert!(discoveries.iter().all(|&scanned| scanned > 0));
    }

    /// The worker counts the differential tests sweep: 1, the even splits 2, 4
    /// and 8, the uneven 3 and 7 (ragged shards), plus `CHASE_TEST_WORKERS`
    /// if it is set.
    fn test_worker_counts() -> Vec<usize> {
        let mut counts = vec![1usize, 2, 3, 4, 7, 8];
        if let Some(n) = std::env::var("CHASE_TEST_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            if n > 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
        counts
    }

    /// How many times each `(dependency, effect kind)` pair was observed: an
    /// order-invariant digest of a trace. Per-step added-fact counts are left
    /// out, because when two steps' heads overlap, which step adds the shared
    /// fact depends on the step order.
    fn event_multiset(
        trace: &TraceObserver,
    ) -> std::collections::BTreeMap<(usize, &'static str), usize> {
        let mut out = std::collections::BTreeMap::new();
        for (trigger, effect) in &trace.steps {
            let kind = match effect {
                StepEffect::AddedFacts { .. } => "tgd",
                StepEffect::Substituted { .. } => "egd",
                StepEffect::Failure => "failure",
                StepEffect::NotApplicable => "noop",
            };
            *out.entry((trigger.dep.0, kind)).or_insert(0) += 1;
        }
        out
    }

    #[test]
    fn round_runner_matches_the_step_loop_on_generated_corpora() {
        // On a closure chain and on EGD-free `OntologyProfile` corpora,
        // terminating and diverging, the round runner at every worker count
        // fires the same trigger set as the step loop: the same outcome kind,
        // tripped limit and step count always, and on terminating runs the
        // same `ChaseStats`, an instance equal up to a renaming of labeled
        // nulls (equal outright when no null is invented, as on the closure)
        // and the same per-(dep, effect) event multiset.
        use chase_core::isomorphic_up_to_null_renaming;
        use chase_ontology::generator::{generate, generate_database, OntologyProfile};
        let budget = ChaseBudget::unlimited().with_max_steps(300);
        let closure = closure_program(12);
        let corpora = std::iter::once((closure.dependencies, closure.database)).chain(
            (0..200u64).map(|seed| {
                let sigma = generate(&OntologyProfile {
                    existential: (seed % 4) as usize + 1,
                    full: (seed % 6) as usize + 2,
                    egds: 0,
                    cyclic: seed % 5 == 0,
                    seed,
                });
                let db = generate_database(&sigma, 2 + (seed % 6) as usize, seed ^ 0x00c0_ffee);
                (sigma, db)
            }),
        );
        let (mut terminated, mut exhausted, mut with_nulls) = (0, 0, 0);
        for (corpus, (sigma, db)) in corpora.enumerate() {
            for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
                let key_vars: Vec<Vec<Variable>> = sigma
                    .iter()
                    .map(|(_, dep)| crate::oblivious::key_variables(variant, dep))
                    .collect();
                let mut ref_trace = TraceObserver::new();
                let reference = crate::oblivious::run_step_loop(
                    &sigma,
                    &key_vars,
                    &budget,
                    &db,
                    &mut ref_trace,
                );
                terminated += usize::from(reference.is_terminating());
                exhausted += usize::from(reference.is_budget_exhausted());
                with_nulls += usize::from(reference.stats().nulls_created > 0);
                for n in test_worker_counts() {
                    let mut trace = TraceObserver::new();
                    let out = Chase::oblivious(&sigma, variant)
                        .workers(n)
                        .with_budget(budget)
                        .run_observed(&db, &mut trace);
                    let at = format!("{variant:?} at {n} workers (corpus {corpus})");
                    assert_eq!(
                        std::mem::discriminant(&reference),
                        std::mem::discriminant(&out),
                        "outcome kind diverged: {at}"
                    );
                    assert_eq!(reference.exhausted_limit(), out.exhausted_limit(), "{at}");
                    assert_eq!(reference.stats().steps, out.stats().steps, "{at}");
                    if reference.is_terminating() {
                        assert_eq!(reference.stats(), out.stats(), "stats diverged: {at}");
                        let (a, b) = (reference.instance().unwrap(), out.instance().unwrap());
                        assert!(isomorphic_up_to_null_renaming(a, b), "not isomorphic: {at}");
                        if a.nulls().is_empty() {
                            assert_eq!(a, b, "{at}");
                        }
                        assert_eq!(event_multiset(&ref_trace), event_multiset(&trace), "{at}");
                    }
                }
            }
        }
        // The corpora cover both outcome kinds and existential rules.
        assert!(terminated > 0 && exhausted > 0 && with_nulls > 0);
    }

    #[test]
    fn round_null_counts_equal_the_live_nulls_of_each_round() {
        // The round runner counts live nulls as the database's plus every
        // fresh one. Check each emitted count against the instance rebuilt
        // from the step events (Σ is EGD-free, so facts are only ever added),
        // on a database that carries a null of its own.
        use crate::observer::{ChaseEvent, EventObserver};
        use chase_ontology::generator::{generate, generate_database, OntologyProfile};
        let sigma = generate(&OntologyProfile {
            existential: 4,
            full: 6,
            egds: 0,
            cyclic: true,
            seed: 5,
        });
        let mut db = generate_database(&sigma, 8, 5);
        let mut with_null = db.sorted_facts()[0].clone();
        with_null.terms[0] = GroundTerm::Null(chase_core::NullValue(77));
        db.insert(with_null);
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            for workers in [1, 4] {
                let mut live = db.clone();
                let mut rounds = 0;
                let out = Chase::oblivious(&sigma, variant)
                    .workers(workers)
                    .with_budget(ChaseBudget::unlimited().with_max_steps(400))
                    .run_observed(
                        &db,
                        &mut EventObserver(|event| match event {
                            ChaseEvent::StepApplied {
                                effect: StepEffect::AddedFacts { facts, .. },
                                ..
                            } => live.extend(facts),
                            ChaseEvent::RoundNulls { nulls } => {
                                rounds += 1;
                                assert_eq!(nulls, live.nulls().len(), "{variant:?} round {rounds}");
                            }
                            _ => {}
                        }),
                    );
                assert!(out.stats().nulls_created > 0 && rounds >= 2, "{variant:?}");
            }
        }
    }

    #[test]
    fn parallel_runs_are_byte_identical_across_worker_counts() {
        let p = parse_program(
            r#"
            r1: A(?x) -> exists ?y: R(?x, ?y).
            r2: R(?x, ?y) -> S(?y, ?x).
            r3: S(?x, ?y) -> exists ?z: R(?x, ?z).
            A(a). A(b). A(c).
            "#,
        )
        .unwrap();
        let budget = ChaseBudget::unlimited().with_max_steps(100);
        let run = |workers| {
            let mut trace = TraceObserver::new();
            let out = Chase::semi_oblivious(&p.dependencies)
                .workers(workers)
                .with_budget(budget)
                .run_observed(&p.database, &mut trace);
            (
                out.instance().unwrap().sorted_facts(),
                out.stats().clone(),
                out.exhausted_limit(),
                trace.steps,
                trace.rounds,
                trace.round_null_counts,
            )
        };
        let one = run(1);
        // The chain of r3 nulls diverges: every run trips the same step limit.
        assert_eq!(one.2, Some(crate::BudgetLimit::Steps));
        for workers in [2, 3, 4, 8] {
            assert_eq!(one, run(workers), "worker count {workers} diverged");
        }
    }

    #[test]
    fn egd_bearing_sets_run_on_the_step_loop_at_every_worker_count() {
        // With an EGD in Σ, `workers(8)` must behave exactly like `workers(1)`:
        // both run the step loop (the documented fallback).
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Works(e1, d0). Dept(d0).
            "#,
        )
        .unwrap();
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let sequential = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            let parallel = Chase::oblivious(&p.dependencies, variant)
                .workers(8)
                .run(&p.database);
            assert_eq!(sequential, parallel, "{variant:?}");
        }
    }
}
