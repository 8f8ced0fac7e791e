//! Observability-layer integration tests: the `chase_obs` JSON writer/parser
//! roundtrip over generated `RunReport`s, MetricsObserver agreement with
//! `ChaseStats` over seeded ontology corpora, and the pinned ordering of the
//! opt-in phase events.

use chase_engine::{
    Chase, ChaseBudget, ChaseEvent, EventObserver, MetricsObserver, ObliviousVariant,
};
use chase_obs::{
    parse_json, JsonValue, PhaseReport, ReportStats, RoundPoint, RunReport, VerdictRow,
    WorkerReport,
};
use chase_ontology::generator::{generate, generate_database, OntologyProfile};
use chase_termination::TerminationAnalyzer;
use proptest::prelude::*;

// ---------------------------------------------------------------------------------
// Strategies over the report schema
// ---------------------------------------------------------------------------------

/// The report schema stores nanosecond quantities as JSON integers backed by
/// `i64`, so `i64::MAX` (≈ 292 years) is the largest exactly-representable
/// value; larger `u64`s saturate on write by design.
const NS_DOMAIN: u64 = i64::MAX as u64 + 1;

/// Short strings over a palette that exercises the writer's escaping: quotes,
/// backslashes, control characters and non-ASCII code points.
fn name_string() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'a', 'B', '3', '_', '-', ' ', '"', '\\', '\n', '\t', 'Σ', 'é', '∀', '\u{1}',
    ];
    prop::collection::vec(0..PALETTE.len() as u64, 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i as usize]).collect())
}

fn report_stats() -> impl Strategy<Value = ReportStats> {
    (
        0..10_000u64,
        0..10_000u64,
        0..500u64,
        0..500u64,
        0..NS_DOMAIN,
    )
        .prop_map(
            |(steps, facts_added, nulls_created, null_replacements, elapsed_ns)| ReportStats {
                steps,
                facts_added,
                nulls_created,
                null_replacements,
                elapsed_ns,
            },
        )
}

fn phase_report() -> impl Strategy<Value = PhaseReport> {
    (
        name_string(),
        (1..1_000u64, 0..NS_DOMAIN, 0..NS_DOMAIN),
        (0..NS_DOMAIN, 0..NS_DOMAIN),
    )
        .prop_map(
            |(name, (count, total_ns, p50_ns), (p95_ns, max_ns))| PhaseReport {
                name,
                count,
                total_ns,
                p50_ns,
                p95_ns,
                max_ns,
            },
        )
}

fn round_point() -> impl Strategy<Value = RoundPoint> {
    (1..100u64, 0..100_000u64, 0..10_000u64).prop_map(|(round, facts, nulls)| RoundPoint {
        round,
        facts,
        nulls,
    })
}

fn worker_report() -> impl Strategy<Value = WorkerReport> {
    (
        0..16u64,
        1..50u64,
        0..100_000u64,
        0..100_000u64,
        0..NS_DOMAIN,
    )
        .prop_map(
            |(worker, batches, facts_scanned, triggers_found, total_ns)| WorkerReport {
                worker,
                batches,
                facts_scanned,
                triggers_found,
                total_ns,
            },
        )
}

fn verdict_row() -> impl Strategy<Value = VerdictRow> {
    (
        name_string(),
        name_string(),
        0..3u64,
        name_string(),
        0..NS_DOMAIN,
        name_string(),
    )
        .prop_map(
            |(criterion, criterion_id, status, guarantee, elapsed_ns, witness)| VerdictRow {
                criterion,
                criterion_id,
                status: ["accepts", "rejects", "skipped"][status as usize].to_string(),
                guarantee,
                elapsed_ns,
                witness,
            },
        )
}

fn run_report() -> impl Strategy<Value = RunReport> {
    (
        (name_string(), 0..3u64, name_string(), report_stats()),
        prop::collection::vec(phase_report(), 0..4),
        prop::collection::vec(round_point(), 0..6),
        prop::collection::vec(worker_report(), 0..4),
        (
            prop::collection::vec(verdict_row(), 0..4),
            prop::collection::vec((name_string(), name_string()), 0..4),
        ),
    )
        .prop_map(
            |(
                (name, outcome, tripped, stats),
                phases,
                rounds,
                workers,
                (verdicts, annotations),
            )| {
                let mut report = RunReport::new(name);
                report.outcome =
                    ["terminated", "failed", "budget_exhausted"][outcome as usize].to_string();
                report.tripped = if tripped.is_empty() {
                    None
                } else {
                    Some(tripped)
                };
                report.stats = stats;
                report.phases = phases;
                report.rounds = rounds;
                report.workers = workers;
                report.verdicts = verdicts;
                // Annotations serialize as a JSON object: deduplicate keys, since
                // the parser keeps the first occurrence only.
                let mut seen = std::collections::BTreeSet::new();
                report.annotations = annotations
                    .into_iter()
                    .filter(|(k, _)| seen.insert(k.clone()))
                    .collect();
                report
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `RunReport::parse` inverts `to_json_string` exactly, for any report the
    /// schema can express — including names needing escapes and nanosecond
    /// counts at the top of the schema's `i64` integer domain.
    #[test]
    fn run_report_roundtrips_through_json(report in run_report()) {
        let pretty = report.to_json_string();
        prop_assert_eq!(&RunReport::parse(&pretty).unwrap(), &report);
        // The compact rendering parses to the same JSON value as the pretty one.
        let compact = report.to_json().to_string();
        prop_assert_eq!(parse_json(&compact).unwrap(), parse_json(&pretty).unwrap());
    }
}

// ---------------------------------------------------------------------------------
// MetricsObserver agreement with ChaseStats over seeded corpora
// ---------------------------------------------------------------------------------

/// The corpus shape used across the repo's generator-driven tests.
fn corpus_profile(seed: u64) -> OntologyProfile {
    OntologyProfile {
        existential: (seed % 3) as usize + 1,
        full: (seed % 5) as usize + 3,
        egds: (seed % 3) as usize,
        cyclic: seed.is_multiple_of(2),
        seed,
    }
}

#[test]
fn metrics_observer_agrees_with_chase_stats_on_generated_corpora() {
    for seed in 0..10u64 {
        let sigma = generate(&corpus_profile(seed));
        let db = generate_database(&sigma, 6, seed);
        for workers in [1usize, 3] {
            let mut metrics = MetricsObserver::new();
            let outcome = Chase::semi_oblivious(&sigma)
                .with_budget(ChaseBudget::unlimited().with_max_steps(2_000))
                .workers(workers)
                .run_observed(&db, &mut metrics);
            let stats = outcome.stats();
            let registry = metrics.registry();
            assert_eq!(
                registry.counter("chase.steps"),
                stats.steps as u64,
                "seed {seed} workers {workers}: step counter"
            );
            assert_eq!(
                registry.counter("chase.nulls_created"),
                stats.nulls_created as u64,
                "seed {seed} workers {workers}: null counter"
            );
            assert_eq!(
                registry.counter("chase.substitutions"),
                stats.null_replacements as u64,
                "seed {seed} workers {workers}: substitution counter"
            );
            // The observer opted into phase events, so discovery was reported
            // (as per-worker shards in parallel rounds, worker-0 pseudo-shards
            // sequentially) whenever any trigger search happened.
            if stats.steps > 0 {
                assert!(
                    registry.counter("discovery.batches") > 0,
                    "seed {seed} workers {workers}: discovery events"
                );
            }
            assert!(registry.counter("budget.checks") > 0);
            // The rendered report carries the same stats and roundtrips.
            let report = metrics.report(format!("corpus-{seed}-w{workers}"), &outcome);
            assert_eq!(report.stats.steps, stats.steps as u64);
            assert_eq!(report.stats.facts_added, stats.facts_added as u64);
            let reparsed = RunReport::parse(&report.to_json_string()).unwrap();
            assert_eq!(reparsed, report);
        }
    }
}

#[test]
fn run_report_carries_analyzer_verdicts_end_to_end() {
    let sigma = generate(&corpus_profile(1));
    let db = generate_database(&sigma, 6, 1);
    let mut metrics = MetricsObserver::new();
    let outcome = Chase::semi_oblivious(&sigma)
        .with_budget(ChaseBudget::unlimited().with_max_steps(2_000))
        .run_observed(&db, &mut metrics);
    let analyzer = TerminationAnalyzer::new();
    let mut report = metrics.report("corpus-1", &outcome);
    report.verdicts = analyzer.analyze(&sigma).verdict_rows();
    assert_eq!(report.verdicts.len(), analyzer.criteria_names().len());
    assert!(report
        .verdicts
        .iter()
        .all(|row| ["accepts", "rejects", "skipped"].contains(&row.status.as_str())));
    let reparsed = RunReport::parse(&report.to_json_string()).unwrap();
    assert_eq!(reparsed, report);
}

// ---------------------------------------------------------------------------------
// Phase-event ordering on the parallel path
// ---------------------------------------------------------------------------------

/// On the round runner each round's opt-in events arrive in the pinned order
/// discovery → merge (the fired-key filter) → steps → round_completed →
/// round_nulls, with budget checks interleaved anywhere; and the existing
/// (always-on) event contract is unchanged.
#[test]
fn parallel_phase_events_are_ordered_within_each_round() {
    // A chain long enough that discovery batches clear the parallel threshold
    // (small batches run as a single worker-0 shard by design).
    let sigma =
        chase_core::parser::parse_dependencies("t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).").unwrap();
    let db = chase_core::Instance::from_facts((0..24).map(|i| {
        chase_core::Fact::from_parts(
            "E",
            vec![
                chase_core::GroundTerm::Const(chase_core::Constant::new(&format!("v{i}"))),
                chase_core::GroundTerm::Const(chase_core::Constant::new(&format!("v{}", i + 1))),
            ],
        )
    }));
    let mut events: Vec<ChaseEvent> = Vec::new();
    let outcome = Chase::semi_oblivious(&sigma)
        .workers(4)
        .run_observed(&db, &mut EventObserver(|e| events.push(e)));
    assert!(outcome.is_terminating());

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Stage {
        Discovery,
        Merged,
        Applying,
    }
    let mut stage = Stage::Discovery;
    let mut rounds = 0usize;
    let mut discovery_workers = Vec::new();
    for event in &events {
        match event {
            ChaseEvent::DiscoveryCompleted { stats } => {
                // Discovery opens a round, directly after the previous
                // round's `round_nulls`; never between a merge and its steps.
                assert_eq!(stage, Stage::Discovery, "discovery opens a round");
                assert!(!stats.shards.is_empty());
                discovery_workers.push(stats.shards.len());
                stage = Stage::Merged;
            }
            ChaseEvent::MergeCompleted {
                candidates,
                deduped,
                ..
            } => {
                assert_eq!(stage, Stage::Merged, "merge directly follows discovery");
                assert!(deduped <= candidates);
                stage = Stage::Applying;
            }
            ChaseEvent::StepApplied { .. } | ChaseEvent::NullsCreated { .. } => {
                assert_eq!(stage, Stage::Applying, "steps come after the merge");
            }
            ChaseEvent::RoundCompleted { round, .. } => {
                assert_eq!(stage, Stage::Applying);
                rounds += 1;
                assert_eq!(*round, rounds, "rounds are numbered consecutively");
            }
            ChaseEvent::RoundNulls { .. } => {
                // Pinned: immediately after round_completed; next round opens
                // with a fresh discovery batch.
                stage = Stage::Discovery;
            }
            ChaseEvent::EgdCollapsed { .. } => unreachable!("EGD-free set"),
            ChaseEvent::BudgetChecked { tripped } => assert!(tripped.is_none()),
        }
    }
    assert!(rounds >= 2, "transitive closure takes multiple rounds");
    // Every parallel discovery batch sharded over the requested workers (the
    // last round may see fewer seeds than workers and shrink the pool).
    assert!(discovery_workers.iter().all(|&n| n <= 4));
    assert!(discovery_workers.iter().any(|&n| n > 1));
}

/// The oblivious variant also emits phase events when (and only when) the
/// observer opts in; `NoopObserver` runs are unaffected — compare stats.
#[test]
fn phase_events_are_pay_for_what_you_use() {
    let p = chase_core::parser::parse_program(
        r#"
        r1: N(?x) -> exists ?y: E(?x, ?y).
        r2: E(?x, ?y) -> N(?y).
        N(a).
        "#,
    )
    .unwrap();
    let budget = ChaseBudget::unlimited().with_max_steps(40);
    let plain = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
        .with_budget(budget)
        .run(&p.database);
    let mut metrics = MetricsObserver::new();
    let observed = Chase::oblivious(&p.dependencies, ObliviousVariant::Oblivious)
        .with_budget(budget)
        .run_observed(&p.database, &mut metrics);
    // Observation changes nothing about the run itself.
    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.exhausted_limit(), observed.exhausted_limit());
    // The budget trip is visible in the event stream and in the report.
    assert!(metrics.tripped().is_some());
    let report = metrics.report("sigma-oblivious", &observed);
    assert_eq!(report.outcome, "budget_exhausted");
    assert_eq!(report.tripped.as_deref(), Some("max_steps"));
}

/// The report's attribution helpers see the phases the observer recorded.
#[test]
fn report_attribution_covers_the_recorded_phases() {
    let p = chase_core::parser::parse_program(
        r#"
        t: E(?x, ?y), E(?y, ?z) -> E(?x, ?z).
        E(a, b). E(b, c). E(c, d). E(d, e).
        "#,
    )
    .unwrap();
    let mut metrics = MetricsObserver::new();
    let outcome = Chase::semi_oblivious(&p.dependencies)
        .workers(2)
        .run_observed(&p.database, &mut metrics);
    let report = metrics.report("closure", &outcome);
    let named: Vec<&str> = report.phases.iter().map(|p| p.name.as_str()).collect();
    assert!(named.contains(&"discovery"));
    assert!(named.contains(&"merge"));
    assert!(named.contains(&"apply"));
    assert!(report.attributed_ns() > 0);
    // Sanity on the JSON shape: phases serialize under the pinned key order.
    match report.to_json() {
        JsonValue::Object(fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "schema",
                    "name",
                    "outcome",
                    "tripped",
                    "stats",
                    "phases",
                    "rounds",
                    "workers",
                    "verdicts",
                    "annotations"
                ]
            );
        }
        other => panic!("RunReport must serialize as an object, got {other}"),
    }
}
