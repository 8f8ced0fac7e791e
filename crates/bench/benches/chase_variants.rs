//! Chase-variant benchmarks (B1): standard vs. semi-oblivious vs. oblivious vs. core
//! chase on terminating ontology-style workloads (the substrate behind every
//! ground-truth column of the experiments), and the EGD substitution layer on
//! its own (`egd_collapse`).

use chase_core::{Constant, Fact, GroundTerm, Instance};
use chase_engine::{Chase, ChaseBudget, ObliviousVariant, StepOrder};
use chase_ontology::generate_family;
use chase_ontology::generator::{generate, generate_database, OntologyProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn workload(size: usize, facts: usize) -> (chase_core::DependencySet, chase_core::Instance) {
    let sigma = generate(&OntologyProfile {
        existential: size / 5,
        full: size - size / 5 - size / 10,
        egds: size / 10,
        cyclic: false,
        seed: 7,
    });
    let db = generate_database(&sigma, facts, 11);
    (sigma, db)
}

fn bench_chase_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase_variants");
    group.sample_size(10);
    for &(size, facts) in &[(10usize, 10usize), (20, 20)] {
        let (sigma, db) = workload(size, facts);
        group.bench_with_input(
            BenchmarkId::new("standard_egds_first", format!("{size}x{facts}")),
            &(),
            |b, _| {
                b.iter(|| {
                    Chase::standard(&sigma)
                        .with_order(StepOrder::EgdsFirst)
                        .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
                        .run(&db)
                        .is_terminating()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("semi_oblivious", format!("{size}x{facts}")),
            &(),
            |b, _| {
                b.iter(|| {
                    Chase::semi_oblivious(&sigma)
                        .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
                        .run(&db)
                        .is_terminating()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("oblivious", format!("{size}x{facts}")),
            &(),
            |b, _| {
                b.iter(|| {
                    Chase::oblivious(&sigma, ObliviousVariant::Oblivious)
                        .with_budget(ChaseBudget::unlimited().with_max_steps(50_000))
                        .run(&db)
                        .is_terminating()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("core_chase", format!("{size}x{facts}")),
            &(),
            |b, _| {
                b.iter(|| {
                    Chase::core(&sigma)
                        .with_budget(ChaseBudget::unlimited().with_max_rounds(200))
                        .run(&db)
                        .is_terminating()
                })
            },
        );
    }
    group.finish();
}

/// Copies of Σ1 chased EGDs-first over `N_i(k_j)` facts: every step invents a
/// null and the next collapses it into its parent, so the run is one EGD
/// substitution per base fact and its cost is the substitution layer's.
fn bench_egd_collapse(c: &mut Criterion) {
    let sigma = generate_family("egd-collapse-cycles", 12, 0).expect("known family");
    let mut group = c.benchmark_group("egd_collapse");
    for facts in [1_000usize, 2_000, 4_000] {
        let db = Instance::from_facts((0..facts).map(|j| {
            Fact::from_parts(
                &format!("N{}", j % 4),
                vec![GroundTerm::Const(Constant::new(&format!("k{j}")))],
            )
        }));
        group.bench_with_input(
            BenchmarkId::new("standard_egds_first", facts),
            &(),
            |b, _| {
                b.iter(|| {
                    Chase::standard(&sigma)
                        .with_order(StepOrder::EgdsFirst)
                        .run(&db)
                        .stats()
                        .null_replacements
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_chase_variants, bench_egd_collapse);
criterion_main!(benches);
