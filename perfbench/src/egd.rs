//! `egd-collapse`: the `egd-collapse-cycles` family (copies of Sigma1). A
//! pass first checks termination the way the paper does: the program text is
//! parsed and analyzed by the exhaustive `TerminationAnalyzer`, where only
//! the EGD-aware criteria accept, and so is the text of the non-terminating
//! `egd-laundering` family, which no criterion may accept. Then the Sigma1
//! copies are chased EGDs-first over a base of unary `N_i` facts, and
//! core-chased over a much smaller base. Every invented null merges back
//! into its parent.

use crate::analysis::{Analysis, Tally};
use crate::checks::{
    counts_repeat, fully_collapsed, matches_reference, no_false_acceptance, null_free, ChaseSummary,
};
use crate::record::Recorder;
use crate::{budget, shuffle, workers, Scale, Workload};
use chase_core::parser::to_source;
use chase_core::{Constant, DependencySet, Fact, GroundTerm, Instance, Predicate};
use chase_engine::{Chase, StepOrder};
use chase_ontology::{families, generate_family};
use std::collections::BTreeMap;

/// `(family size, base facts, core-chase base facts)`. The family has one
/// Sigma1 copy per three dependencies.
const FULL: (usize, usize, usize) = (12, 1000, 30);
const SMOKE: (usize, usize, usize) = (6, 20, 4);

/// The analyzed family no criterion may accept: copies of a cyclic gadget
/// next to an unrelated functional EGD, generated at the same size.
const NON_TERMINATING: &str = "egd-laundering";

/// One analyzed program text.
struct Program {
    label: String,
    expected_terminating: bool,
    source: String,
}

impl Program {
    fn generate(family: &str, size: usize, seed: u64) -> Result<Self, String> {
        let spec = families()
            .into_iter()
            .find(|f| f.name == family)
            .ok_or_else(|| format!("the {family} family is missing"))?;
        let sigma = generate_family(family, size, seed)
            .ok_or_else(|| format!("the {family} family is missing"))?;
        Ok(Program {
            label: format!("{family}@{size}"),
            expected_terminating: spec.expected_terminating,
            source: to_source(&sigma, &Instance::new()),
        })
    }
}

/// An EGD-consistent base: `facts` unary facts `N_i(k_j)`, each constant on
/// a seeded copy `i`. The copies' EGDs only ever merge a null into a
/// constant, so the chase never fails.
fn collapse_base(copies: usize, facts: usize, seed: u64) -> Instance {
    let mut copy_of: Vec<usize> = (0..facts).map(|j| j % copies).collect();
    shuffle(&mut copy_of, seed);
    Instance::from_facts(copy_of.into_iter().enumerate().map(|(j, i)| Fact {
        predicate: Predicate::new(&format!("N{i}"), 1),
        terms: vec![GroundTerm::Const(Constant::new(&format!("k{j}")))],
    }))
}

pub struct Collapse {
    sigma: DependencySet,
    /// The Sigma1 copies' text, then the non-terminating family's.
    programs: [Program; 2],
    analysis: Analysis,
    /// The criteria accepting the programs, as counted at set-up.
    accepted: BTreeMap<&'static str, u64>,
    base: Instance,
    core_base: Instance,
    reference: ChaseSummary,
    core_reference: ChaseSummary,
}

impl Collapse {
    /// Analyzes both programs into a tally of accept counts, checking that no
    /// criterion accepts the non-terminating one.
    fn analyze(&self, rec: &mut Recorder) -> Tally {
        let mut tally = self.analysis.tally();
        for program in &self.programs {
            match self.analysis.analyze(rec, &program.source, &mut tally) {
                Ok(accepted) => {
                    tally.count(&accepted);
                    rec.verify(
                        1,
                        no_false_acceptance(
                            &program.label,
                            program.expected_terminating,
                            &accepted,
                        ),
                    );
                }
                Err(reason) => rec.verify(1, Err(format!("{}: {reason}", program.label))),
            }
        }
        tally
    }

    fn standard(&self) -> Chase<'_> {
        Chase::standard(&self.sigma)
            .with_order(StepOrder::EgdsFirst)
            .with_budget(budget())
    }

    fn core(&self) -> Chase<'_> {
        Chase::core(&self.sigma).with_budget(budget())
    }
}

impl Workload for Collapse {
    const HEADLINE: &'static str = "chase_ms";

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (size, facts, core_facts) = match scale {
            Scale::Full => FULL,
            Scale::Smoke => SMOKE,
        };
        let sigma = generate_family("egd-collapse-cycles", size, seed)
            .ok_or("the egd-collapse-cycles family is missing")?;
        let copies = (size / 3).max(1);
        let programs = [
            Program::generate("egd-collapse-cycles", size, seed)?,
            Program::generate(NON_TERMINATING, size, seed)?,
        ];
        let mut this = Collapse {
            sigma,
            programs,
            analysis: Analysis::new(),
            accepted: BTreeMap::new(),
            base: collapse_base(copies, facts, seed),
            core_base: collapse_base(copies, core_facts, seed ^ 0x9e37_79b9),
            reference: ChaseSummary {
                facts: 0,
                stats: Default::default(),
            },
            core_reference: ChaseSummary {
                facts: 0,
                stats: Default::default(),
            },
        };
        let mut reference = Recorder::new(false, false);
        this.accepted = this.analyze(&mut reference).counts;
        if let Some(reason) = reference.failures.first() {
            return Err(format!("reference analysis: {reason}"));
        }
        if this.accepted.get("SAC") != Some(&1) {
            return Err(format!(
                "SAC rejects the Sigma1 copies; accept counts: {:?}",
                this.accepted
            ));
        }
        let out = this.standard().run(&this.base);
        this.reference = ChaseSummary::of(&out)?;
        fully_collapsed(out.instance().expect("terminated"), out.stats(), facts)?;
        let core = this.core().run(&this.core_base);
        this.core_reference = ChaseSummary::of(&core)?;
        null_free(core.instance().expect("terminated"))?;
        // EGD-bearing sets run sequentially at any worker count; run the
        // parallel sessions once anyway, as the timed operations will.
        let n = workers();
        matches_reference(
            &this.reference,
            &ChaseSummary::of(&this.standard().workers(n).run(&this.base))?,
        )?;
        matches_reference(
            &this.core_reference,
            &ChaseSummary::of(&this.core().workers(n).run(&this.core_base))?,
        )?;
        Ok(this)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let tally = self.analyze(rec);
        rec.verify(1, counts_repeat(&self.accepted, &tally.counts));
        if rec.traced() {
            let sources = self.programs.each_ref().map(|p| p.source.as_str());
            self.analysis.record(rec, &tally, &sources);
        }

        let n = workers();
        let session = self.standard().workers(n);
        let outcome = rec.chase("chase_ms", &session, &self.base);
        let checked = ChaseSummary::of(&outcome).and_then(|mut s| {
            if rec.corrupt_once() {
                s.stats.null_replacements += 1;
            }
            matches_reference(&self.reference, &s)?;
            let model = outcome.instance().expect("summarized outcomes terminated");
            fully_collapsed(model, &s.stats, self.base.len())
        });
        rec.verify(1, checked);
        drop(outcome);

        let session = self.core().workers(n);
        let core = rec.op("chase_engine", "core_ms", |_| session.run(&self.core_base));
        let checked = ChaseSummary::of(&core).and_then(|s| {
            matches_reference(&self.core_reference, &s)?;
            null_free(core.instance().expect("summarized outcomes terminated"))
        });
        rec.verify(1, checked);
    }

    fn inputs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("dependencies", self.sigma.len() as u64),
            ("analyzed_programs", self.programs.len() as u64),
            (
                "source_bytes",
                self.programs.iter().map(|p| p.source.len() as u64).sum(),
            ),
            ("base_facts", self.base.len() as u64),
            ("core_base_facts", self.core_base.len() as u64),
            ("model_facts", self.reference.facts as u64),
        ]
    }
}
