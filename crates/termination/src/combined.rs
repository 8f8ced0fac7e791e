//! The `Adn∃-C` combinator (Theorems 10 and 11): apply an arbitrary termination
//! criterion `C` to the adorned set `Σµ = Adn∃(Σ)[1]` instead of `Σ`.
//!
//! If `Σµ ∈ C` then `Σ ∈ CT_std_∃` (Theorem 10), and `C ⊆ Adn∃-C` for every criterion
//! `C` (Theorem 11) — combining the adornment with a criterion never loses sets and
//! often gains some, because the adorned set has the same or weaker structural
//! dependencies (EGD effects having been compiled away into the adornments).

use crate::adornment::{adorn_with, adornment_witness, AdnConfig, AdnResult, SemiAcyclicity};
use crate::semi_stratification::SemiStratification;
use chase_core::DependencySet;
use chase_criteria::criterion::{
    Guarantee, NamedCriterion, TerminationCriterion, Verdict, Witness,
};
use chase_criteria::safety::Safety;
use chase_criteria::super_weak::SuperWeakAcyclicity;
use chase_criteria::weak_acyclicity::WeakAcyclicity;

/// The `Adn∃-C` combinator as a witness-producing [`TerminationCriterion`]: runs the
/// adornment algorithm, then the inner criterion `C` on the adorned set `Σµ`.
///
/// The verdict's witness pairs the adornment trace with the inner criterion's verdict
/// on `Σµ` ([`Witness::Combined`]); the guarantee is always `CT_std_∃` (Theorem 10),
/// regardless of what `C` guarantees on sets it analyses directly.
pub struct AdnCombined {
    name: &'static str,
    config: AdnConfig,
    cost: u32,
    inner: Box<dyn TerminationCriterion + Send + Sync>,
}

impl AdnCombined {
    /// Combines the adornment with an arbitrary inner criterion.
    pub fn new(
        name: &'static str,
        cost: u32,
        inner: impl TerminationCriterion + Send + Sync + 'static,
    ) -> Self {
        AdnCombined {
            name,
            config: AdnConfig::default(),
            cost,
            inner: Box::new(inner),
        }
    }

    /// Sets the adornment configuration.
    pub fn with_config(mut self, config: AdnConfig) -> Self {
        self.config = config;
        self
    }

    /// `Adn∃-WA`: weak acyclicity on the adorned set.
    pub fn weak_acyclicity() -> Self {
        AdnCombined::new("Adn-WA", 90, WeakAcyclicity)
    }

    /// `Adn∃-SC`: safety on the adorned set.
    pub fn safety() -> Self {
        AdnCombined::new("Adn-SC", 91, Safety)
    }

    /// `Adn∃-SwA`: super-weak acyclicity on the adorned set.
    pub fn super_weak_acyclicity() -> Self {
        AdnCombined::new("Adn-SwA", 92, SuperWeakAcyclicity)
    }
}

impl TerminationCriterion for AdnCombined {
    fn name(&self) -> &'static str {
        self.name
    }

    fn guarantee(&self) -> Guarantee {
        Guarantee::SomeSequence
    }

    fn cost(&self) -> u32 {
        self.cost
    }

    fn verdict(&self, sigma: &DependencySet) -> Verdict {
        let result = adorn_with(sigma, &self.config);
        let inner = self.inner.verdict(&result.adorned);
        Verdict {
            criterion: self.name,
            guarantee: Guarantee::SomeSequence,
            accepted: inner.accepted,
            witness: Witness::Combined {
                adornment: Box::new(adornment_witness(&result)),
                inner: Box::new(inner),
            },
        }
    }
}

/// Applies criterion `check` to the adorned version of `sigma` (`Adn∃-C`).
///
/// Returns the underlying [`AdnResult`] alongside the verdict so that callers can also
/// inspect `Acyc` and the adorned set.
pub fn adn_combined_with(
    sigma: &DependencySet,
    config: &AdnConfig,
    check: impl Fn(&DependencySet) -> bool,
) -> (bool, AdnResult) {
    let result = adorn_with(sigma, config);
    let verdict = check(&result.adorned);
    (verdict, result)
}

/// Applies criterion `check` to the adorned version of `sigma` with the default
/// configuration, returning only the verdict.
pub fn adn_combined(sigma: &DependencySet, check: impl Fn(&DependencySet) -> bool) -> bool {
    adn_combined_with(sigma, &AdnConfig::default(), check).0
}

/// Wraps every baseline criterion `C` into its `Adn∃-C` counterpart, for use in the
/// experiment harness. All combined criteria guarantee membership in `CT_std_∃`.
pub fn combined_criteria() -> Vec<NamedCriterion> {
    vec![
        NamedCriterion::from_criterion(AdnCombined::weak_acyclicity()),
        NamedCriterion::from_criterion(AdnCombined::safety()),
        NamedCriterion::from_criterion(AdnCombined::super_weak_acyclicity()),
    ]
}

/// The paper's own criteria packaged as [`NamedCriterion`]s: semi-stratification and
/// semi-acyclicity.
pub fn paper_criteria() -> Vec<NamedCriterion> {
    vec![
        NamedCriterion::from_criterion(SemiStratification::default()),
        NamedCriterion::from_criterion(SemiAcyclicity::default()),
    ]
}

/// Every criterion known to the workspace: the baselines, the paper's criteria and the
/// `Adn∃-C` combinations, in that order.
pub fn all_criteria() -> Vec<NamedCriterion> {
    let mut out = chase_criteria::criterion::baseline_criteria();
    out.extend(paper_criteria());
    out.extend(combined_criteria());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_dependencies;

    fn sigma1() -> DependencySet {
        parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y: E(?x, ?y).
            r2: E(?x, ?y) -> N(?y).
            r3: E(?x, ?y) -> ?x = ?y.
            "#,
        )
        .unwrap()
    }

    #[test]
    fn theorem11_adn_c_contains_c_on_a_corpus() {
        let inputs = [
            "r1: P(?x, ?y) -> exists ?z: E(?x, ?z). r2: Q(?x, ?y) -> exists ?z: E(?z, ?y).",
            "a: A(?x) -> B(?x). b: B(?x) -> C(?x).",
            "r: E(?x, ?y) -> exists ?z: E(?x, ?z).",
            "r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).",
            "k: R(?x, ?y), R(?x, ?z) -> ?y = ?z.",
        ];
        for src in inputs {
            let sigma = parse_dependencies(src).unwrap();
            if WeakAcyclicity.accepts(&sigma) {
                assert!(
                    AdnCombined::weak_acyclicity().accepts(&sigma),
                    "WA ⊆ Adn-WA violated on {src}"
                );
            }
            if Safety.accepts(&sigma) {
                assert!(
                    AdnCombined::safety().accepts(&sigma),
                    "SC ⊆ Adn-SC violated on {src}"
                );
            }
        }
    }

    #[test]
    fn combined_verdict_nests_the_inner_witness() {
        let chain =
            parse_dependencies("r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).")
                .unwrap();
        let verdict = AdnCombined::weak_acyclicity().verdict(&chain);
        assert!(verdict.accepted);
        match verdict.witness {
            Witness::Combined { adornment, inner } => {
                assert!(matches!(*adornment, Witness::AdornmentTrace { .. }));
                assert_eq!(inner.criterion, "WA");
                assert!(inner.accepted);
                assert!(matches!(
                    inner.witness,
                    Witness::AcyclicPositionGraph { .. }
                ));
            }
            other => panic!("expected Combined, got {other:?}"),
        }
    }

    #[test]
    fn sigma1_is_gained_by_the_adornment_algorithm_itself() {
        // Σ1 is rejected by every classical criterion (it is not even in CT_std_∀), but
        // the adornment algorithm recognises it directly (Example 12). Its adorned set
        // still carries the structural null-cycle (the adorned rules mirror r1/r2), so
        // the gain here comes from SAC, not from Adn∃-WA.
        let sigma = sigma1();
        assert!(!WeakAcyclicity.accepts(&sigma));
        assert!(!Safety.accepts(&sigma));
        assert!(crate::adornment::SemiAcyclicity::default().accepts(&sigma));
    }

    #[test]
    fn combined_result_exposes_the_adorned_set() {
        let chain =
            parse_dependencies("r1: A(?x) -> exists ?y: B(?x, ?y). r2: B(?x, ?y) -> C(?y).")
                .unwrap();
        let (verdict, result) =
            adn_combined_with(&chain, &crate::adornment::AdnConfig::default(), |s| {
                WeakAcyclicity.accepts(s)
            });
        assert!(verdict, "the adorned version of a WA set stays WA");
        assert!(result.acyclic);
        assert!(result.adorned.len() > chain.len());
    }

    #[test]
    fn registry_contains_paper_and_combined_criteria() {
        let all = all_criteria();
        let names: Vec<&str> = all.iter().map(|c| c.name).collect();
        for expected in [
            "WA", "SC", "SwA", "Str", "CStr", "MFA", "S-Str", "SAC", "Adn-WA",
        ] {
            assert!(names.contains(&expected), "missing criterion {expected}");
        }
    }

    #[test]
    fn combined_registry_entries_agree_with_the_criteria() {
        let sigma = sigma1();
        let direct = [
            AdnCombined::weak_acyclicity().accepts(&sigma),
            AdnCombined::safety().accepts(&sigma),
            AdnCombined::super_weak_acyclicity().accepts(&sigma),
        ];
        let registry: Vec<bool> = combined_criteria()
            .iter()
            .map(|c| c.accepts(&sigma))
            .collect();
        assert_eq!(registry, direct);
    }

    #[test]
    fn sigma10_is_rejected_even_after_combination() {
        // Σ10 has no terminating sequence at all, so every sound criterion must reject.
        let sigma10 = parse_dependencies(
            r#"
            r1: N(?x) -> exists ?y, ?z: E(?x, ?y, ?z).
            r2: E(?x, ?y, ?y) -> N(?y).
            r3: E(?x, ?y, ?z) -> ?y = ?z.
            "#,
        )
        .unwrap();
        for criterion in all_criteria() {
            let verdict = criterion.verdict(&sigma10);
            assert!(!verdict.accepted, "{} wrongly accepts Σ10", criterion.name);
            assert!(
                !verdict.witness.is_trivial(),
                "{} must explain its rejection",
                criterion.name
            );
        }
    }
}
