//! Shard-partitioned parallel trigger discovery over a frozen snapshot.
//!
//! Trigger discovery — seeding the join engine from every delta fact — is
//! embarrassingly parallel: it only *reads* the instance. This module runs the
//! semi-naive search of [`TriggerEngine`](crate::TriggerEngine) across worker
//! threads:
//!
//! 1. the delta batch (one round's worth of new facts, in FIFO = ascending
//!    [`FactId`] order) is split into contiguous chunks — disjoint `FactId`
//!    ranges — one per worker;
//! 2. each chunk becomes a job on the persistent process-wide worker pool
//!    ([`chase_core::pool`]) — long-lived threads fed by channels, so the
//!    per-round `thread::scope` spawn cost of the first parallel cut is gone —
//!    and every job walks its chunk in order against a shared read-only
//!    [`Snapshot`], collecting the candidate triggers its seeds discover;
//! 3. the per-worker results are concatenated **in chunk order**, which
//!    reconstructs exactly the order a single-threaded drain would have produced
//!    — so the merged candidate list is independent of the worker count.
//!
//! Both callers keep that order, so neither depends on the worker count: the
//! standard chase's drains (`TriggerEngine::drain_deltas_parallel`) queue the
//! candidates as a sequential drain would, and the round runner of the EGD-free
//! (semi-)oblivious chases in `chase_engine` applies them in this order after
//! its fired-key filter. See the "Parallel execution" section of
//! `crates/README.md` for the determinism contract.

use crate::engine::Trigger;
use chase_core::pool::{self, ScopedJob};
use chase_core::snapshot::{DiscoveryStats, ShardStats, Snapshot};
use chase_core::{Assignment, DepId, DependencySet, FactId, FactStore, Predicate};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Below this many delta facts a batch is discovered inline: spawning workers
/// would cost more than the joins. Purely a latency knob — discovery order (and
/// therefore every chase result) is identical either way.
const MIN_PARALLEL_BATCH: usize = 16;

/// For each predicate, the body-atom positions that can unify with a fact of that
/// predicate: `(dependency, body atom index)` pairs, in dependency-set order.
///
/// Built once per dependency set so a delta fact visits only the seed atoms it can
/// actually match (shared by the sequential [`TriggerEngine`](crate::TriggerEngine)
/// drain and the parallel workers here).
#[derive(Clone, Debug, Default)]
pub struct SeedAtoms {
    by_predicate: HashMap<Predicate, Vec<(DepId, usize)>>,
}

impl SeedAtoms {
    /// Indexes the body atoms of `sigma` by predicate.
    pub fn new(sigma: &DependencySet) -> Self {
        let mut by_predicate: HashMap<Predicate, Vec<(DepId, usize)>> = HashMap::new();
        for (id, dep) in sigma.iter() {
            for (atom_index, atom) in dep.body().iter().enumerate() {
                by_predicate
                    .entry(atom.predicate)
                    .or_default()
                    .push((id, atom_index));
            }
        }
        SeedAtoms { by_predicate }
    }

    /// The `(dependency, body atom index)` seeds unifiable with a fact of
    /// `predicate` (empty if no body mentions it).
    pub fn seeds_for(&self, predicate: Predicate) -> &[(DepId, usize)] {
        self.by_predicate
            .get(&predicate)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

/// The body image of the trigger `(dep, h)`: `h(body)` as one interned
/// [`FactId`] per body atom, in body-atom order, resolved through one reused
/// term buffer. Every body atom is ground under a trigger's assignment and
/// maps to a fact of the store, so the lookup is infallible.
pub fn body_image(
    sigma: &DependencySet,
    store: &FactStore,
    dep: DepId,
    h: &Assignment,
) -> Vec<FactId> {
    let mut terms = Vec::new();
    sigma
        .get(dep)
        .body()
        .iter()
        .map(|atom| {
            terms.clear();
            for term in &atom.terms {
                terms.push(h.apply_term(term).expect("body variables are bound"));
            }
            store
                .lookup(atom.predicate, &terms)
                .expect("a trigger maps its body into the store")
        })
        .collect()
}

/// Discovers every candidate trigger seeded from `fact`, in the deterministic
/// order of the sequential drain (seed atoms in dependency-set order, join
/// enumeration order within each seed), appending to `out`.
fn discover_from(
    sigma: &DependencySet,
    seeds: &SeedAtoms,
    snapshot: &Snapshot<'_>,
    fact: FactId,
    out: &mut Vec<Trigger>,
) {
    let predicate = snapshot.predicate_of(fact);
    for &(dep, seed_index) in seeds.seeds_for(predicate) {
        let body = sigma.get(dep).body();
        snapshot
            .search(body)
            .for_each_seeded_id::<()>(seed_index, fact, &mut |h| {
                out.push(Trigger {
                    dep,
                    assignment: h.clone(),
                });
                ControlFlow::Continue(())
            });
    }
}

/// Discovers the candidate triggers of a whole delta batch against `snapshot`,
/// sharding the batch across up to `workers` scoped threads.
///
/// The returned list is in **batch order** regardless of the worker count: worker
/// `w` processes the `w`-th contiguous chunk (a disjoint `FactId` range when the
/// batch is in insertion order) and the chunks are concatenated in order. No
/// dedup is performed — callers dedup in this order (a seen-set or a
/// fired-key filter), so cross-shard duplicates resolve exactly as in a
/// sequential drain.
pub fn discover_batch(
    sigma: &DependencySet,
    seeds: &SeedAtoms,
    snapshot: Snapshot<'_>,
    batch: &[FactId],
    workers: usize,
) -> Vec<Trigger> {
    discover_batch_inner(sigma, seeds, snapshot, batch, workers, None)
}

/// [`discover_batch`] plus per-shard accounting: fact ids scanned, triggers
/// found and wall-clock per worker (measured inside the worker), and the
/// end-to-end batch wall-clock, as [`DiscoveryStats`].
///
/// The candidate list is bitwise identical to the uninstrumented call — the
/// instrumentation never influences sharding or merge order. The extra cost
/// is two `Instant::now()` calls per shard, which is why the chase runners
/// only take this path when an observer asks for phase events.
pub fn discover_batch_instrumented(
    sigma: &DependencySet,
    seeds: &SeedAtoms,
    snapshot: Snapshot<'_>,
    batch: &[FactId],
    workers: usize,
) -> (Vec<Trigger>, DiscoveryStats) {
    let started = Instant::now();
    let mut stats = DiscoveryStats::default();
    let merged = discover_batch_inner(sigma, seeds, snapshot, batch, workers, Some(&mut stats));
    stats.elapsed = started.elapsed();
    (merged, stats)
}

fn discover_batch_inner(
    sigma: &DependencySet,
    seeds: &SeedAtoms,
    snapshot: Snapshot<'_>,
    batch: &[FactId],
    workers: usize,
    mut stats: Option<&mut DiscoveryStats>,
) -> Vec<Trigger> {
    // `workers(0)` is defined to mean sequential execution, the same as 1 —
    // normalized here (not left to the `<= 1` guard) so the invariant holds
    // even if the guard's threshold ever changes.
    let workers = workers.max(1);
    if workers == 1 || batch.len() < MIN_PARALLEL_BATCH.max(workers) {
        let shard_start = stats.as_ref().map(|_| Instant::now());
        let mut out = Vec::new();
        for &fact in batch {
            discover_from(sigma, seeds, &snapshot, fact, &mut out);
        }
        if let (Some(stats), Some(start)) = (stats, shard_start) {
            stats.shards.push(ShardStats {
                worker: 0,
                facts_scanned: batch.len(),
                triggers_found: out.len(),
                elapsed: start.elapsed(),
            });
        }
        return out;
    }
    // What one shard job hands back: its discoveries, its actual length
    // (`facts_scanned`), and its wall-clock when instrumented.
    type ShardResult = (Vec<Trigger>, usize, Option<Duration>);
    let chunk = batch.len().div_ceil(workers);
    let instrument = stats.is_some();
    let jobs: Vec<ScopedJob<'_, ShardResult>> = batch
        .chunks(chunk)
        .map(|shard| {
            Box::new(move || {
                let shard_start = instrument.then(Instant::now);
                let mut out = Vec::new();
                for &fact in shard {
                    discover_from(sigma, seeds, &snapshot, fact, &mut out);
                }
                let elapsed = shard_start.map(|s| s.elapsed());
                // Report the shard's *actual* length: recomputing it from the
                // chunk arithmetic breaks silently under non-uniform chunking.
                (out, shard.len(), elapsed)
            }) as ScopedJob<'_, _>
        })
        .collect();
    let results = pool::with_workers(workers).run_jobs(jobs);
    let mut merged = Vec::new();
    for (worker, (out, scanned, elapsed)) in results.into_iter().enumerate() {
        if let Some(stats) = stats.as_deref_mut() {
            stats.shards.push(ShardStats {
                worker,
                facts_scanned: scanned,
                triggers_found: out.len(),
                elapsed: elapsed.unwrap_or_default(),
            });
        }
        merged.extend(out);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FactIndex;
    use chase_core::parser::parse_dependencies;
    use chase_core::term::Constant;
    use chase_core::{Fact, GroundTerm};

    fn gc(s: &str) -> GroundTerm {
        GroundTerm::Const(Constant::new(s))
    }

    fn edge(a: &str, b: &str) -> Fact {
        Fact::from_parts("E", vec![gc(a), gc(b)])
    }

    fn discover_all(
        sigma: &chase_core::DependencySet,
        index: &FactIndex,
        batch: &[FactId],
        workers: usize,
    ) -> Vec<Trigger> {
        let seeds = SeedAtoms::new(sigma);
        discover_batch(
            sigma,
            &seeds,
            Snapshot::new(index.indexed()),
            batch,
            workers,
        )
    }

    #[test]
    fn seed_atoms_index_bodies_by_predicate() {
        let sigma =
            parse_dependencies("r1: E(?x, ?y), N(?y) -> N(?x). r2: N(?x) -> M(?x).").unwrap();
        let seeds = SeedAtoms::new(&sigma);
        assert_eq!(
            seeds.seeds_for(chase_core::Predicate::new("E", 2)),
            &[(DepId(0), 0)]
        );
        assert_eq!(
            seeds.seeds_for(chase_core::Predicate::new("N", 1)),
            &[(DepId(0), 1), (DepId(1), 0)]
        );
        assert!(seeds
            .seeds_for(chase_core::Predicate::new("Missing", 1))
            .is_empty());
    }

    #[test]
    fn batch_order_is_independent_of_worker_count() {
        let sigma = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        let mut index = FactIndex::new();
        let mut batch = Vec::new();
        for i in 0..40 {
            let (id, new) = index.insert_full(edge(&format!("v{i}"), &format!("v{}", i + 1)));
            assert!(new);
            batch.push(id);
        }
        let sequential = discover_all(&sigma, &index, &batch, 1);
        assert!(!sequential.is_empty());
        // `workers(0)` is defined as sequential execution (normalized to 1).
        for workers in [0, 2, 3, 4, 8] {
            let parallel = discover_all(&sigma, &index, &batch, workers);
            assert_eq!(
                sequential, parallel,
                "merged discovery order diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn instrumented_discovery_matches_and_accounts_for_every_seed() {
        let sigma = parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
        let mut index = FactIndex::new();
        let mut batch = Vec::new();
        for i in 0..40 {
            let (id, _) = index.insert_full(edge(&format!("v{i}"), &format!("v{}", i + 1)));
            batch.push(id);
        }
        let seeds = SeedAtoms::new(&sigma);
        let plain = discover_batch(&sigma, &seeds, Snapshot::new(index.indexed()), &batch, 1);
        for workers in [1, 4] {
            let (found, stats) = discover_batch_instrumented(
                &sigma,
                &seeds,
                Snapshot::new(index.indexed()),
                &batch,
                workers,
            );
            assert_eq!(found, plain, "instrumentation changed discovery output");
            assert_eq!(stats.shards.len(), workers);
            assert_eq!(stats.facts_scanned(), batch.len());
            assert_eq!(stats.triggers_found(), found.len());
            let shard_total: usize = stats.shards.iter().map(|s| s.triggers_found).sum();
            assert_eq!(shard_total, found.len());
            assert_eq!(
                stats.shards.iter().map(|s| s.worker).collect::<Vec<_>>(),
                (0..workers).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn body_image_resolves_constants_and_repeated_variables() {
        let sigma = parse_dependencies("r: E(?x, ?x) -> P(?x).").unwrap();
        let mut index = FactIndex::new();
        index.insert(edge("a", "b"));
        let (id_loop, _) = index.insert_full(edge("c", "c"));
        let batch: Vec<FactId> = vec![FactId(0), id_loop];
        let found = discover_all(&sigma, &index, &batch, 1);
        assert_eq!(found.len(), 1);
        assert_eq!(
            body_image(&sigma, index.store(), found[0].dep, &found[0].assignment),
            vec![id_loop]
        );
    }
}
