//! The per-run recorder: operation timings, layer numbers, the span tracer,
//! and the tally of attempted and failed operations.

use crate::trace::{Tracer, BENCH};
use chase_core::Instance;
use chase_engine::{ChaseObserver, ChaseOutcome, MetricsObserver, StepEffect, Trigger};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Recorder {
    pub trace: Tracer,
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pass_ns: u64,
    /// Set by `--corrupt`: the first checked output is corrupted on purpose.
    corrupt: bool,
}

impl Recorder {
    pub fn new(traced: bool, corrupt: bool) -> Self {
        Recorder {
            trace: Tracer::new(traced),
            samples: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            pass_ns: 0,
            corrupt,
        }
    }

    pub fn traced(&self) -> bool {
        self.trace.enabled()
    }

    pub fn push(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    pub fn samples(&self, key: &str) -> &[f64] {
        self.samples.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn all_samples(&self) -> &BTreeMap<&'static str, Vec<f64>> {
        &self.samples
    }

    /// Times one user-visible operation: it is attempted, its milliseconds are
    /// a sample of `key` and part of the pass, and it runs inside a span of
    /// `layer`. `f` may open child spans.
    pub fn op<T>(
        &mut self,
        layer: &'static str,
        key: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let open = self.trace.enter(layer, key);
        let start = Instant::now();
        let out = f(self);
        let ns = start.elapsed().as_nanos() as u64;
        self.trace.exit(open);
        self.attempted += 1;
        self.pass_ns += ns;
        self.push(key, ns as f64 / 1e6);
        out
    }

    /// Times work that is not a user-visible operation (a check's re-chase,
    /// a probe): a sample of `key` inside a span of `layer`, outside the pass.
    pub fn probe<T>(
        &mut self,
        layer: &'static str,
        key: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let open = self.trace.enter(layer, key);
        let start = Instant::now();
        let out = f(self);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.trace.exit(open);
        self.push(key, ms);
        out
    }

    /// Records a check covering `ops` operations.
    pub fn verify(&mut self, ops: u64, result: Result<(), String>) {
        if let Err(reason) = result {
            self.failed += ops;
            if self.failures.len() < 20 {
                self.failures.push(reason);
            }
        }
    }

    /// `true` exactly once when the run was asked to corrupt an output.
    pub fn corrupt_once(&mut self) -> bool {
        std::mem::take(&mut self.corrupt)
    }

    /// Runs one pass of a workload; its operation time is a `pass_ms` sample.
    pub fn pass(&mut self, f: impl FnOnce(&mut Self)) {
        self.pass_ns = 0;
        let open = self.trace.enter(BENCH, "pass");
        f(self);
        self.trace.exit(open);
        let ns = self.pass_ns;
        self.push("pass_ms", ns as f64 / 1e6);
    }

    /// Runs a headline chase as an operation of `key`. A traced run observes
    /// it with the public `MetricsObserver` and records the trigger and
    /// engine layer numbers.
    pub fn chase(
        &mut self,
        key: &'static str,
        session: &chase_engine::Chase,
        database: &Instance,
    ) -> ChaseOutcome {
        let outcome = if self.traced() {
            let mut observer = LayerObserver::new();
            let outcome = self.op("chase_engine", key, |_| {
                session.run_observed(database, &mut observer)
            });
            observer.record(self, &outcome);
            outcome
        } else {
            self.op("chase_engine", key, |_| session.run(database))
        };
        let seconds = outcome.stats().elapsed.as_secs_f64();
        if seconds > 0.0 {
            self.push(
                "chase_facts_per_s",
                outcome.stats().facts_added as f64 / seconds,
            );
        }
        outcome
    }
}

/// Forwards every event to a [`MetricsObserver`] and also times the EGD
/// steps, which the metrics observer charges to `apply`.
struct LayerObserver {
    metrics: MetricsObserver,
    last: Instant,
    egd: Duration,
}

impl LayerObserver {
    fn new() -> Self {
        LayerObserver {
            metrics: MetricsObserver::new(),
            last: Instant::now(),
            egd: Duration::ZERO,
        }
    }

    fn mark(&mut self) -> Duration {
        let now = Instant::now();
        let gap = now - self.last;
        self.last = now;
        gap
    }

    fn record(&self, rec: &mut Recorder, outcome: &ChaseOutcome) {
        let phase_ms = |name: &str| {
            self.metrics
                .phases()
                .get(name)
                .map_or(0.0, |p| p.total().as_secs_f64() * 1e3)
        };
        rec.push("chase_trigger.discovery_ms", phase_ms("discovery"));
        rec.push("chase_engine.merge_ms", phase_ms("merge"));
        rec.push("chase_engine.apply_ms", phase_ms("apply"));
        let registry = self.metrics.registry();
        rec.push(
            "chase_trigger.facts_scanned",
            registry.counter("discovery.facts_scanned") as f64,
        );
        rec.push(
            "chase_trigger.triggers_found",
            registry.counter("discovery.triggers_found") as f64,
        );
        let busy: Vec<f64> = self
            .metrics
            .worker_reports()
            .iter()
            .map(|w| w.total_ns as f64)
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean > 0.0 {
            let max = busy.iter().copied().fold(0.0, f64::max);
            rec.push("chase_trigger.shard_imbalance", max / mean);
        }
        let candidates = registry.counter("merge.candidates");
        if candidates > 0 {
            rec.push(
                "chase_engine.merge_kept_ratio",
                registry.counter("merge.kept") as f64 / candidates as f64,
            );
        }
        let stats = outcome.stats();
        if stats.null_replacements > 0 {
            rec.push(
                "chase_engine.egd_us_per_replacement",
                self.egd.as_secs_f64() * 1e6 / stats.null_replacements as f64,
            );
        }
        rec.push("chase_engine.steps", stats.steps as f64);
        rec.push("chase_engine.facts_added", stats.facts_added as f64);
        rec.push("chase_engine.nulls_created", stats.nulls_created as f64);
        rec.push(
            "chase_engine.null_replacements",
            stats.null_replacements as f64,
        );
        rec.push(
            "chase_engine.attribution",
            self.metrics.report("chase", outcome).attribution(),
        );
        if let Some(model) = outcome.instance() {
            store_bytes(rec, model);
        }
    }
}

/// Records the columnar store's bytes per live fact of `model`.
pub fn store_bytes(rec: &mut Recorder, model: &Instance) {
    if !model.is_empty() {
        let bytes = model.store().footprint().columnar_bytes();
        rec.push(
            "chase_core.store_bytes_per_fact",
            bytes as f64 / model.len() as f64,
        );
    }
}

impl ChaseObserver for LayerObserver {
    fn step_applied(&mut self, trigger: &Trigger, effect: &StepEffect) {
        let gap = self.mark();
        if matches!(effect, StepEffect::Substituted { .. }) {
            self.egd += gap;
        }
        self.metrics.step_applied(trigger, effect);
    }

    fn nulls_created(&mut self, count: usize) {
        self.mark();
        self.metrics.nulls_created(count);
    }

    fn egd_collapsed(&mut self, gamma: &chase_core::NullSubstitution) {
        self.mark();
        self.metrics.egd_collapsed(gamma);
    }

    fn round_completed(&mut self, round: usize, facts: usize) {
        self.mark();
        self.metrics.round_completed(round, facts);
    }

    fn round_nulls(&mut self, nulls: usize) {
        self.mark();
        self.metrics.round_nulls(nulls);
    }

    fn observes_phases(&self) -> bool {
        true
    }

    fn discovery_completed(&mut self, stats: &chase_core::DiscoveryStats) {
        self.mark();
        self.metrics.discovery_completed(stats);
    }

    fn merge_completed(&mut self, candidates: usize, deduped: usize, elapsed: Duration) {
        self.mark();
        self.metrics.merge_completed(candidates, deduped, elapsed);
    }

    fn budget_checked(&mut self, tripped: Option<chase_engine::BudgetLimit>) {
        self.mark();
        self.metrics.budget_checked(tripped);
    }
}
