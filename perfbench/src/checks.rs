//! Output checks. Each returns `Err` with a one-line reason when the output
//! is wrong; the runner counts the operations it covers as failed.

use chase_core::Instance;
use chase_engine::{ChaseOutcome, ChaseStats};
use std::collections::BTreeMap;

/// What two runs of one chase must agree on: the model's size and the
/// logical statistics (`ChaseStats` equality ignores wall-clock).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaseSummary {
    pub facts: usize,
    pub stats: ChaseStats,
}

impl ChaseSummary {
    pub fn of(outcome: &ChaseOutcome) -> Result<Self, String> {
        match outcome.instance() {
            Some(model) if outcome.is_terminating() => Ok(ChaseSummary {
                facts: model.len(),
                stats: outcome.stats().clone(),
            }),
            _ => Err(format!(
                "the chase did not terminate: {:?}",
                outcome.stats()
            )),
        }
    }
}

/// A `workers(n)` chase must match the `workers(1)` reference.
pub fn matches_reference(reference: &ChaseSummary, got: &ChaseSummary) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "chase differs from its workers(1) reference: {} facts {:?} vs {} facts {:?}",
            got.facts, got.stats, reference.facts, reference.stats
        ))
    }
}

/// No criterion may accept a program whose family does not terminate.
pub fn no_false_acceptance(
    program: &str,
    expected_terminating: bool,
    accepted: &[&str],
) -> Result<(), String> {
    if expected_terminating || accepted.is_empty() {
        Ok(())
    } else {
        Err(format!("{accepted:?} accepted non-terminating {program}"))
    }
}

/// Accept counts per criterion must repeat exactly.
pub fn counts_repeat(
    reference: &BTreeMap<&'static str, u64>,
    got: &BTreeMap<&'static str, u64>,
) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!("accept counts {got:?} differ from {reference:?}"))
    }
}

/// The model holds no labeled null.
pub fn null_free(model: &Instance) -> Result<(), String> {
    match model.nulls().len() {
        0 => Ok(()),
        n => Err(format!("the model keeps {n} labeled nulls")),
    }
}

/// An EGDs-first chase of Sigma1 copies merges every invented null back into
/// its parent: no null survives and there is one replacement per base fact.
pub fn fully_collapsed(
    model: &Instance,
    stats: &ChaseStats,
    base_facts: usize,
) -> Result<(), String> {
    null_free(model)?;
    if stats.null_replacements == base_facts {
        Ok(())
    } else {
        Err(format!(
            "{} null replacements for {base_facts} base facts",
            stats.null_replacements
        ))
    }
}

/// Two models must be equal: the maintained model and a re-chase of the
/// final base, or a model and `load(save(model))`.
pub fn same_model(what: &str, expected: &Instance, got: &Instance) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} facts differ from the expected {}",
            got.len(),
            expected.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_program;
    use chase_engine::{Chase, StepOrder};

    fn sigma1_run() -> (ChaseOutcome, usize) {
        let p = parse_program(
            "r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). r3: E(?x, ?y) -> ?x = ?y. N(a). N(b).",
        )
        .unwrap();
        let out = Chase::standard(&p.dependencies)
            .with_order(StepOrder::EgdsFirst)
            .run(&p.database);
        (out, p.database.len())
    }

    fn bogus() -> chase_core::Fact {
        parse_program("Bogus(z).")
            .unwrap()
            .database
            .facts()
            .next()
            .unwrap()
    }

    #[test]
    fn reference_check_catches_a_changed_count_or_stat() {
        let (out, _) = sigma1_run();
        let reference = ChaseSummary::of(&out).unwrap();
        assert!(matches_reference(&reference, &reference.clone()).is_ok());
        let mut fewer = reference.clone();
        fewer.facts -= 1;
        assert!(matches_reference(&reference, &fewer).is_err());
        let mut steps = reference.clone();
        steps.stats.steps += 1;
        assert!(matches_reference(&reference, &steps).is_err());
        let mut slower = reference.clone();
        slower.stats.elapsed += std::time::Duration::from_secs(1);
        assert!(
            matches_reference(&reference, &slower).is_ok(),
            "wall-clock is not compared"
        );
    }

    #[test]
    fn false_acceptance_and_count_drift_are_caught() {
        assert!(no_false_acceptance("egd-laundering@12", false, &[]).is_ok());
        assert!(no_false_acceptance("role-chains@12", true, &["WA"]).is_ok());
        assert!(no_false_acceptance("egd-laundering@12", false, &["SAC"]).is_err());
        let reference = BTreeMap::from([("WA", 3), ("SAC", 5)]);
        assert!(counts_repeat(&reference, &reference.clone()).is_ok());
        let drifted = BTreeMap::from([("WA", 3), ("SAC", 6)]);
        assert!(counts_repeat(&reference, &drifted).is_err());
    }

    #[test]
    fn collapse_check_catches_a_null_or_a_missing_replacement() {
        let (out, base) = sigma1_run();
        let model = out.instance().unwrap();
        assert!(fully_collapsed(model, out.stats(), base).is_ok());
        assert!(fully_collapsed(model, out.stats(), base + 1).is_err());
        let mut with_null = model.clone();
        let null = with_null.fresh_null();
        with_null.insert(chase_core::Fact {
            predicate: chase_core::Predicate::new("N", 1),
            terms: vec![chase_core::GroundTerm::Null(null)],
        });
        assert!(fully_collapsed(&with_null, out.stats(), base).is_err());
        assert!(null_free(&with_null).is_err());
    }

    #[test]
    fn model_comparison_catches_an_extra_or_a_missing_fact() {
        let (out, _) = sigma1_run();
        let model = out.into_instance().unwrap();
        assert!(same_model("ivm", &model, &model.clone()).is_ok());
        let mut extra = model.clone();
        extra.insert(bogus());
        assert!(same_model("ivm", &model, &extra).is_err());
        let missing = Instance::from_facts(model.facts().skip(1));
        assert!(same_model("load(save(m))", &model, &missing).is_err());
    }

    #[test]
    fn a_non_terminating_outcome_has_no_summary() {
        let p = parse_program("r1: N(?x) -> exists ?y: E(?x, ?y). r2: E(?x, ?y) -> N(?y). N(a).")
            .unwrap();
        let out = Chase::standard(&p.dependencies)
            .with_budget(chase_engine::ChaseBudget::unlimited().with_max_steps(20))
            .run(&p.database);
        assert!(ChaseSummary::of(&out).is_err());
    }
}
