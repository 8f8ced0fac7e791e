//! `closure-ivm`: right-linear transitive closure over disjoint chains. A
//! semi-oblivious chase at `workers(nproc)`, then `materialize` and a seeded
//! stream of 1% mixed insert/retract batches through
//! `ChaseMaterialization::update`, then save and load of the maintained model.
//!
//! The stream churns the chain edges: each batch retracts random live edges
//! and re-inserts edges retracted earlier, so the base and the model keep
//! their size and every seed costs about the same. (The random facts of
//! `chase_ontology::update_stream` weld chains together and add base facts
//! to the derived relation, which makes the model's size, and the batch
//! cost, swing by a fifth between seeds.)

use crate::checks::{matches_reference, same_model, ChaseSummary};
use crate::record::Recorder;
use crate::{budget, shuffle, snapshot_roundtrip, workers, Rng, Scale, Workload};
use chase_core::builder::{atom, tgd, var};
use chase_core::{Constant, DependencySet, Fact, GroundTerm, Instance, Predicate};
use chase_engine::Chase;
use chase_ivm::ChaseMaterialization;
use chase_ontology::UpdateBatch;

/// `(chains, edges per chain, batches per pass)`.
const FULL: (usize, usize, usize) = (100, 30, 40);
const SMOKE: (usize, usize, usize) = (4, 6, 3);

/// `E(x,y) → R(x,y)` and `R(x,y), E(y,z) → R(x,z)`.
fn closure_sigma() -> DependencySet {
    DependencySet::from_vec(vec![
        tgd(
            "copy",
            vec![atom("E", vec![var("x"), var("y")])],
            vec![atom("R", vec![var("x"), var("y")])],
        ),
        tgd(
            "step",
            vec![
                atom("R", vec![var("x"), var("y")]),
                atom("E", vec![var("y"), var("z")]),
            ],
            vec![atom("R", vec![var("x"), var("z")])],
        ),
    ])
}

fn node(chain: usize, at: usize) -> GroundTerm {
    GroundTerm::Const(Constant::new(&format!("c{chain}_{at}")))
}

/// Splits the (shuffled) edges into a base and a churn stream of `batches`
/// batches of `size` changes; returns the base and the stream, and the base
/// after the stream.
fn churn(
    mut edges: Vec<Fact>,
    batches: usize,
    size: usize,
    seed: u64,
) -> (Vec<Fact>, Vec<UpdateBatch>, Vec<Fact>) {
    let half = size / 2;
    let mut out = edges.split_off(edges.len() - half);
    let base = edges.clone();
    let mut live = edges;
    let mut rng = Rng::new(seed);
    let mut stream = Vec::with_capacity(batches);
    for _ in 0..batches {
        let retracts: Vec<Fact> = (0..half)
            .map(|_| live.swap_remove(rng.below(live.len())))
            .collect();
        let inserts: Vec<Fact> = (0..half)
            .map(|_| out.swap_remove(rng.below(out.len())))
            .collect();
        out.extend(retracts.iter().cloned());
        live.extend(inserts.iter().cloned());
        stream.push(UpdateBatch { inserts, retracts });
    }
    (base, stream, live)
}

pub struct Closure {
    sigma: DependencySet,
    base: Instance,
    stream: Vec<UpdateBatch>,
    reference: ChaseSummary,
    /// The chase of the base after the whole stream: what maintenance must
    /// arrive at.
    final_model: Instance,
    final_base: Instance,
}

impl Workload for Closure {
    const HEADLINE: &'static str = "ivm_batch_ms";

    fn setup(seed: u64, scale: Scale) -> Result<Self, String> {
        let (chains, len, batches) = match scale {
            Scale::Full => FULL,
            Scale::Smoke => SMOKE,
        };
        let edge = Predicate::new("E", 2);
        let mut edges: Vec<Fact> = (0..chains)
            .flat_map(|c| (0..len).map(move |j| (c, j)))
            .map(|(c, j)| Fact {
                predicate: edge,
                terms: vec![node(c, j), node(c, j + 1)],
            })
            .collect();
        shuffle(&mut edges, seed);
        let size = (edges.len() / 100).max(2);
        let (base, stream, final_base) = churn(edges, batches, size, seed);
        let sigma = closure_sigma();
        let base = Instance::from_facts(base);
        let final_base = Instance::from_facts(final_base);

        let sequential = Chase::semi_oblivious(&sigma).with_budget(budget());
        let reference = ChaseSummary::of(&sequential.run(&base))?;
        let final_model = sequential
            .run(&final_base)
            .into_instance()
            .ok_or("the final base does not chase to a model")?;
        // Spawns the pool threads and checks the parallel path once.
        let parallel = sequential.clone().workers(workers());
        matches_reference(&reference, &ChaseSummary::of(&parallel.run(&base))?)?;
        Ok(Closure {
            sigma,
            base,
            stream,
            reference,
            final_model,
            final_base,
        })
    }

    fn pass(&mut self, rec: &mut Recorder) {
        let session = Chase::semi_oblivious(&self.sigma)
            .with_budget(budget())
            .workers(workers());
        let outcome = rec.chase("chase_ms", &session, &self.base);
        let mut summary = ChaseSummary::of(&outcome);
        drop(outcome);
        if let Ok(s) = &mut summary {
            if rec.corrupt_once() {
                s.facts += 1;
            }
        }
        rec.verify(
            1,
            summary.and_then(|s| matches_reference(&self.reference, &s)),
        );

        let materialized = rec.op("chase_ivm", "materialize_ms", |_| {
            let run = session
                .materialize(&self.base)
                .map_err(|e| format!("materialize: {e:?}"))?;
            ChaseMaterialization::from_run(&self.sigma, run).map_err(|e| format!("replay: {e}"))
        });
        let mut live = match materialized {
            Ok(live) => live,
            Err(reason) => return rec.verify(1, Err(reason)),
        };

        let (mut fired, mut overdeleted, mut rederived, mut replays) = (0, 0, 0, 0);
        for batch in &self.stream {
            let (inserts, retracts) = (batch.inserts.clone(), batch.retracts.clone());
            let updated = rec.op("chase_ivm", "ivm_batch_ms", |_| {
                live.update(inserts, retracts).map_err(|e| e.to_string())
            });
            match updated {
                Ok(stats) => {
                    fired += stats.triggers_fired;
                    overdeleted += stats.overdeleted;
                    rederived += stats.rederived;
                    replays += usize::from(stats.egd_replay);
                }
                Err(e) => return rec.verify(1, Err(format!("update: {e}"))),
            }
        }
        let batches = self.stream.len() as u64;
        if rec.traced() {
            rec.push("chase_ivm.triggers_fired", fired as f64);
            rec.push("chase_ivm.overdeleted", overdeleted as f64);
            rec.push("chase_ivm.rederived", rederived as f64);
            rec.push("chase_ivm.egd_replays", replays as f64);
            let sequential = session.clone().workers(1);
            let rechased = rec.probe("chase_engine", "rechase_ms", |_| {
                sequential.run(&self.final_base).into_instance()
            });
            let checked = rechased
                .ok_or_else(|| "the re-chase did not terminate".to_string())
                .and_then(|m| same_model("ivm vs re-chase", &m, live.instance()));
            rec.verify(batches, checked);
        } else {
            let checked = rec.probe("chase_core", "compare", |_| {
                same_model("ivm vs re-chase", &self.final_model, live.instance())
            });
            rec.verify(batches, checked);
        }
        snapshot_roundtrip(rec, "closure-ivm", live.instance());
    }

    fn inputs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("base_facts", self.base.len() as u64),
            ("model_facts", self.reference.facts as u64),
            ("batches", self.stream.len() as u64),
            ("changes", self.stream.iter().map(|b| b.len() as u64).sum()),
        ]
    }
}
