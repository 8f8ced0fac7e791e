//! `exchange-scale`: the `chase_ontology::scale` data-exchange instance,
//! ingested from pre-generated facts, chased by the standard chase at
//! `workers(nproc)`, then saved and loaded.

use crate::checks::{matches_reference, ChaseSummary};
use crate::record::Recorder;
use crate::{budget, snapshot_roundtrip, workers, Scale, Workload};
use chase_core::{DependencySet, GroundTerm, Instance, Predicate};
use chase_engine::Chase;
use chase_ontology::{data_exchange_dependencies, for_each_scale_fact, ScaleProfile};
use std::time::Instant;

const FULL_FACTS: usize = 100_000;
const SMOKE_FACTS: usize = 2_000;

pub struct Exchange {
    profile: ScaleProfile,
    facts: Vec<(Predicate, Vec<GroundTerm>)>,
    sigma: DependencySet,
    reference: ChaseSummary,
}

impl Exchange {
    fn ingest(&self) -> Instance {
        let mut instance = Instance::with_capacity(
            self.profile.predicate_estimate(),
            self.profile.facts,
            self.profile.term_estimate(),
        );
        for (predicate, terms) in &self.facts {
            instance.insert_parts(*predicate, terms);
        }
        instance
    }
}

impl Workload for Exchange {
    const HEADLINE: &'static str = "chase_ms";

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let facts = match scale {
            Scale::Full => FULL_FACTS,
            Scale::Smoke => SMOKE_FACTS,
        };
        let profile = ScaleProfile { facts, seed };
        let mut generated = Vec::with_capacity(facts);
        for_each_scale_fact(&profile, |p, terms| generated.push((p, terms.to_vec())));
        let mut this = Exchange {
            profile,
            facts: generated,
            sigma: data_exchange_dependencies(),
            reference: ChaseSummary {
                facts: 0,
                stats: Default::default(),
            },
        };
        let base = this.ingest();
        let sequential = Chase::standard(&this.sigma).with_budget(budget());
        this.reference = ChaseSummary::of(&sequential.run(&base))?;
        // Spawns the pool threads and checks the parallel path once.
        let parallel = sequential.workers(workers()).run(&base);
        matches_reference(&this.reference, &ChaseSummary::of(&parallel)?)?;
        Ok(this)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let start = Instant::now();
        let base = rec.op("chase_core", "ingest_ms", |_| self.ingest());
        let seconds = start.elapsed().as_secs_f64();
        rec.push("ingest_facts_per_s", base.len() as f64 / seconds);
        rec.push(
            "chase_core.ingest_ns_per_fact",
            seconds * 1e9 / base.len() as f64,
        );

        let session = Chase::standard(&self.sigma)
            .with_budget(budget())
            .workers(workers());
        let outcome = rec.chase("chase_ms", &session, &base);
        drop(base);
        let mut summary = ChaseSummary::of(&outcome);
        if let Ok(s) = &mut summary {
            if rec.corrupt_once() {
                s.stats.nulls_created += 1;
            }
        }
        rec.verify(
            1,
            summary.and_then(|s| matches_reference(&self.reference, &s)),
        );
        if let Some(model) = outcome.instance() {
            snapshot_roundtrip(rec, "exchange-scale", model);
        }
    }

    fn inputs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("base_facts", self.facts.len() as u64),
            ("model_facts", self.reference.facts as u64),
            ("dependencies", self.sigma.len() as u64),
        ]
    }
}
