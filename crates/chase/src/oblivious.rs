//! The oblivious and semi-oblivious chase.
//!
//! Both variants apply a chase step for a trigger `(r, h)` unless an "equivalent"
//! trigger was already applied earlier in the sequence, where equivalence is judged
//! modulo the EGD substitutions applied in between (`h_i(x) = h_j(x) γ_j · · · γ_{i-1}`
//! in the paper):
//!
//! * the **oblivious** chase compares the images of *all* body variables;
//! * the **semi-oblivious** chase compares only the variables occurring in both the
//!   body and the head (for an EGD: the two equated variables).
//!
//! In particular, a TGD step is applied even when its head is already satisfied
//! (contrast with the standard chase, cf. Example 6 of the paper).
//!
//! The front door is [`Chase::oblivious`](crate::Chase::oblivious) /
//! [`Chase::semi_oblivious`](crate::Chase::semi_oblivious). There are two
//! runners, and the dependency set alone picks one: every EGD-free run goes
//! through the round runner of [`crate::parallel`], at every worker count; an
//! EGD-bearing run goes through the step loop here (`run_step_loop`).

use crate::budget::{BudgetClock, ChaseBudget};
use crate::observer::{record_step_effect, ChaseObserver};
use crate::result::{ChaseOutcome, ChaseStats};
use crate::step::StepEffect;
use chase_core::{
    Assignment, DepId, Dependency, DependencySet, DiscoveryStats, GroundTerm, Instance, ShardStats,
    Variable,
};
use chase_trigger::{NullKeyedSet, TriggerEngine};
use std::time::Instant;

/// Which oblivious variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObliviousVariant {
    /// The oblivious chase (Skolemisation over all body variables).
    Oblivious,
    /// The semi-oblivious chase (Skolemisation over the frontier only).
    SemiOblivious,
}

/// The variables of `dep` that participate in the trigger key for `variant`, in a
/// fixed (sorted) order: all body variables for the oblivious chase; the frontier
/// (TGD) or the two equated variables (EGD) for the semi-oblivious chase.
///
/// Public because incremental maintenance (`chase_ivm`) must compute exactly the
/// keys this module's runner fires, for its own delta repair loop.
pub fn key_variables(variant: ObliviousVariant, dep: &Dependency) -> Vec<Variable> {
    let body_vars = dep.body_variables();
    match variant {
        ObliviousVariant::Oblivious => body_vars.into_iter().collect(),
        ObliviousVariant::SemiOblivious => match dep {
            Dependency::Tgd(t) => {
                let frontier = t.frontier_variables();
                body_vars
                    .into_iter()
                    .filter(|v| frontier.contains(v))
                    .collect()
            }
            Dependency::Egd(e) => body_vars
                .into_iter()
                .filter(|v| *v == e.left || *v == e.right)
                .collect(),
        },
    }
}

/// The fired key of the trigger `(dep, h)`: the images of `dep`'s key
/// variables (see [`key_variables`]), in order.
pub(crate) fn fired_key(key_vars: &[Variable], h: &Assignment) -> Vec<GroundTerm> {
    key_vars
        .iter()
        .map(|&v| h.get(v).expect("body variables are bound"))
        .collect()
}

/// Runs the (semi-)oblivious chase under `budget`, reporting events to `observer`.
///
/// An EGD-free `sigma` runs on the round runner ([`crate::parallel`]) at every
/// worker count, `workers(1)` and derivation-recorded runs included. An
/// EGD-bearing `sigma` runs on the step loop ([`run_step_loop`]) whatever
/// `workers` says.
pub(crate) fn run_oblivious(
    sigma: &DependencySet,
    variant: ObliviousVariant,
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
    workers: usize,
) -> ChaseOutcome {
    let key_vars: Vec<Vec<Variable>> = sigma
        .iter()
        .map(|(_, dep)| key_variables(variant, dep))
        .collect();
    if sigma.egd_ids().is_empty() {
        return crate::parallel::run_oblivious_parallel(
            sigma, &key_vars, budget, database, observer, workers,
        );
    }
    run_step_loop(sigma, &key_vars, budget, database, observer)
}

/// The step loop: one trigger at a time on a [`TriggerEngine`], in dependency
/// order. It runs only EGD-bearing sets, because an EGD substitution rewrites
/// the pending triggers and every fired key (`h ↦ γ∘h`) and the round runner
/// does not. The fired keys live in [`NullKeyedSet`]s, so a substitution
/// `{η/t}` rewrites only the keys that mention `η`. For EGD-free sets it is
/// the reference the round runner is checked against (the differential test
/// in [`crate::parallel`]).
///
/// Trigger discovery is delta-driven: homomorphisms are found once, when the facts
/// completing them appear, and wait in the engine's queues; the fired-key comparison
/// ("`h_i(x) = h_j(x) γ_j · · · γ_{i-1}`") filters them at pop time.
pub(crate) fn run_step_loop(
    sigma: &DependencySet,
    key_vars: &[Vec<Variable>],
    budget: &ChaseBudget,
    database: &Instance,
    observer: &mut dyn ChaseObserver,
) -> ChaseOutcome {
    let derivations = observer.observes_derivations();
    // Fired trigger keys per dependency, kept up to date under EGD substitutions.
    let mut fired: Vec<NullKeyedSet> = vec![NullKeyedSet::new(); sigma.len()];
    // Dependencies are tried in the textual order of the set, as before.
    let order: Vec<DepId> = sigma.ids().collect();

    let clock = BudgetClock::start(budget);
    let mut engine = TriggerEngine::with_database(sigma, database);
    let mut stats = ChaseStats::default();
    let phases = observer.observes_phases();
    loop {
        let tripped = clock.check_step(&stats, engine.instance().len());
        if phases {
            observer.budget_checked(tripped);
        }
        if let Some(limit) = tripped {
            return ChaseOutcome::BudgetExhausted {
                limit,
                instance: engine.into_instance(),
                stats,
            };
        }
        // The accept closure computes each candidate's fired key; the key of
        // the accepted trigger is carried out through `accepted_key` so it is
        // not rebuilt after the pop.
        let mut accepted_key: Option<Vec<GroundTerm>> = None;
        let search_start = phases.then(Instant::now);
        let scanned_before = phases.then(|| engine.stats().deltas_processed);
        let found_before = phases.then(|| engine.stats().triggers_discovered);
        let trigger = engine.next_trigger_where(&order, |id, h| {
            let key = fired_key(&key_vars[id.0], h);
            if fired[id.0].contains(&key) {
                false
            } else {
                accepted_key = Some(key);
                true
            }
        });
        if let Some(start) = search_start {
            // One-shard discovery accounting from the engine-stat deltas of
            // exactly this search (zero when served from the pending queue).
            let elapsed = start.elapsed();
            observer.discovery_completed(&DiscoveryStats {
                shards: vec![ShardStats {
                    worker: 0,
                    facts_scanned: engine.stats().deltas_processed - scanned_before.unwrap(),
                    triggers_found: engine.stats().triggers_discovered - found_before.unwrap(),
                    elapsed,
                }],
                elapsed,
            });
        }
        let trigger = match trigger {
            Some(t) => t,
            None => {
                return ChaseOutcome::Terminated {
                    instance: engine.into_instance(),
                    stats,
                }
            }
        };
        let key = accepted_key.expect("an accepted trigger always sets its key");
        let (effect, log) = if derivations {
            let (effect, log) = engine.apply_trigger_logged(trigger.dep, &trigger.assignment);
            (effect, Some(log))
        } else {
            (engine.apply_trigger(trigger.dep, &trigger.assignment), None)
        };
        // Derivation events precede the step's standard events (pinned order);
        // `fact_derived` fires for NotApplicable EGD triggers too, because
        // their key is recorded below and a support ledger must know which
        // body facts that record leans on.
        if let Some(log) = &log {
            observer.fact_derived(trigger.dep, &key, &log.body, &log.heads);
            if let StepEffect::Substituted { gamma } = &effect {
                observer.facts_rewritten(gamma, &log.rewrites);
            }
        }
        if effect == StepEffect::NotApplicable {
            // An EGD trigger with equal images: Definition 1 yields no chase
            // step. Record the key so we do not reconsider it forever.
            fired[trigger.dep.0].insert(key);
            continue;
        }
        if let Some(violation) = record_step_effect(sigma, &trigger, &effect, &mut stats, observer)
        {
            return ChaseOutcome::Failed { violation, stats };
        }
        // Record the trigger key, then propagate the substitution (if any) to all
        // recorded keys so that future comparisons are "modulo γ_j · · · γ_{i-1}".
        fired[trigger.dep.0].insert(key);
        if let StepEffect::Substituted { gamma } = &effect {
            for keys in &mut fired {
                keys.substitute(gamma);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Chase;
    use chase_core::parser::parse_program;
    use chase_core::satisfaction::satisfies_all;

    #[test]
    fn example6_semi_oblivious_terminates_oblivious_does_not() {
        let p = parse_program("r: E(?x, ?y) -> exists ?z: E(?x, ?z). E(a, b).").unwrap();
        let sobl = Chase::semi_oblivious(&p.dependencies).run(&p.database);
        assert!(sobl.is_terminating());
        // One step: E(a, η1) is added; the trigger with y = η1 has the same frontier
        // image (x = a) and is therefore skipped.
        assert_eq!(sobl.stats().steps, 1);
        assert_eq!(sobl.instance().unwrap().len(), 2);

        let obl = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
            .with_budget(ChaseBudget::unlimited().with_max_steps(100))
            .run(&p.database);
        assert!(obl.is_budget_exhausted());
    }

    #[test]
    fn example1_oblivious_diverges_even_with_egds() {
        // For Σ1, the oblivious chase keeps re-firing r1 on new nulls regardless of the
        // EGD, so it diverges.
        let p = parse_program(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            N(a).
            "#,
        )
        .unwrap();
        let obl = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
            .with_budget(ChaseBudget::unlimited().with_max_steps(300))
            .run(&p.database);
        assert!(!obl.is_terminating());
    }

    #[test]
    fn weakly_acyclic_tgds_terminate_in_all_variants() {
        let p = parse_program(
            r#"
            r1: P(?x, ?y) -> exists ?z: E(?x, ?z).
            r2: E(?x, ?y) -> M(?y).
            P(a, b). P(c, d).
            "#,
        )
        .unwrap();
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let out = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            assert!(out.is_terminating());
            assert!(satisfies_all(out.instance().unwrap(), &p.dependencies));
        }
    }

    #[test]
    fn egd_failure_is_detected_with_diagnostics() {
        let p = parse_program(
            r#"
            k: P(?x, ?y), P(?x, ?z) -> ?y = ?z.
            P(a, b). P(a, c).
            "#,
        )
        .unwrap();
        let out = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious).run(&p.database);
        assert!(out.is_failing());
        let violation = out.violation().unwrap();
        assert_eq!(violation.dep, chase_core::DepId(0));
        assert!(violation.left != violation.right);
    }

    #[test]
    fn egd_triggers_are_not_reapplied_after_substitution() {
        // Functional dependency resolving a null: terminates and satisfies Σ.
        let p = parse_program(
            r#"
            r1: Emp(?x) -> exists ?d: Works(?x, ?d).
            r2: Works(?x, ?d), Dept(?d) -> Ok(?x).
            k: Works(?x, ?d1), Works(?x, ?d2) -> ?d1 = ?d2.
            Emp(e1). Works(e1, d0). Dept(d0).
            "#,
        )
        .unwrap();
        for variant in [ObliviousVariant::Oblivious, ObliviousVariant::SemiOblivious] {
            let out = Chase::oblivious(&p.dependencies, variant).run(&p.database);
            assert!(out.is_terminating(), "variant {variant:?} must terminate");
            let j = out.instance().unwrap();
            assert!(satisfies_all(j, &p.dependencies));
            // The invented department null is merged into d0 by the key EGD.
            assert!(j.nulls().is_empty());
        }
    }

    #[test]
    fn oblivious_step_count_at_least_standard() {
        let p = parse_program(
            r#"
            r1: A(?x) -> exists ?y: B(?x, ?y).
            r2: B(?x, ?y) -> C(?y).
            A(a). A(b).
            "#,
        )
        .unwrap();
        let std_out = Chase::standard(&p.dependencies).run(&p.database);
        let obl_out =
            Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious).run(&p.database);
        assert!(std_out.is_terminating() && obl_out.is_terminating());
        assert!(obl_out.stats().steps >= std_out.stats().steps);
    }
}
