//! Termination analysis as the benchmark runs it: program text parsed with
//! `parse_program` and analyzed by `TerminationAnalyzer::exhaustive()`, as
//! one timed operation per program. Per-criterion times and verdicts come
//! from the analyzer's own report, so traced and untraced runs take the same
//! path.

use crate::record::Recorder;
use chase_core::parser::parse_program;
use chase_termination::{adorn, TerminationAnalyzer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Each criterion of the analyzer with its time and accept-count metrics.
/// The metric prefix names the crate the criterion lives in.
const CRITERIA: &[(&str, &str, &str)] = &[
    ("WA", "chase_criteria.wa_ms", "chase_criteria.wa_accepts"),
    ("SC", "chase_criteria.sc_ms", "chase_criteria.sc_accepts"),
    ("SwA", "chase_criteria.swa_ms", "chase_criteria.swa_accepts"),
    ("Str", "chase_criteria.str_ms", "chase_criteria.str_accepts"),
    (
        "CStr",
        "chase_criteria.cstr_ms",
        "chase_criteria.cstr_accepts",
    ),
    ("MFA", "chase_criteria.mfa_ms", "chase_criteria.mfa_accepts"),
    (
        "S-Str",
        "chase_termination.s-str_ms",
        "chase_termination.s-str_accepts",
    ),
    (
        "SAC",
        "chase_termination.sac_ms",
        "chase_termination.sac_accepts",
    ),
    (
        "Adn-WA",
        "chase_termination.adn-wa_ms",
        "chase_termination.adn-wa_accepts",
    ),
    (
        "Adn-SC",
        "chase_termination.adn-sc_ms",
        "chase_termination.adn-sc_accepts",
    ),
    (
        "Adn-SwA",
        "chase_termination.adn-swa_ms",
        "chase_termination.adn-swa_accepts",
    ),
];

/// Criteria that compute the adornment from scratch: SAC and the three Adn-*.
const ADORNING_CRITERIA: f64 = 4.0;

fn metrics_of(criterion: &str) -> (&'static str, &'static str) {
    let (_, ms, accepts) = CRITERIA
        .iter()
        .find(|(name, _, _)| *name == criterion)
        .expect("every analyzer criterion has metrics");
    (ms, accepts)
}

/// Accept counts and per-criterion time over a group of analyzed programs.
pub struct Tally {
    pub counts: BTreeMap<&'static str, u64>,
    ms: BTreeMap<&'static str, f64>,
}

impl Tally {
    pub fn count(&mut self, accepted: &[&'static str]) {
        for name in accepted {
            *self.counts.entry(name).or_default() += 1;
        }
    }
}

pub struct Analysis {
    analyzer: TerminationAnalyzer,
}

impl Analysis {
    pub fn new() -> Self {
        Analysis {
            analyzer: TerminationAnalyzer::exhaustive(),
        }
    }

    /// A tally with every criterion at zero acceptances.
    pub fn tally(&self) -> Tally {
        Tally {
            counts: self
                .analyzer
                .criteria_names()
                .into_iter()
                .map(|name| (name, 0))
                .collect(),
            ms: BTreeMap::new(),
        }
    }

    /// Parses and analyzes `source` as one `analyze_ms` operation; adds each
    /// criterion's time, as the analyzer's report gives it, to `tally` and
    /// returns the accepting criteria.
    pub fn analyze(
        &self,
        rec: &mut Recorder,
        source: &str,
        tally: &mut Tally,
    ) -> Result<Vec<&'static str>, String> {
        let report = rec.op("chase_termination", "analyze_ms", |rec| {
            let start = Instant::now();
            let parsed = rec
                .trace
                .span("chase_core", "parse_program", || parse_program(source));
            if rec.traced() {
                rec.push("chase_core.parse_ms", start.elapsed().as_secs_f64() * 1e3);
            }
            let program = parsed.map_err(|e| e.to_string())?;
            Ok::<_, String>(self.analyzer.analyze(&program.dependencies))
        })?;
        let mut accepted = Vec::new();
        for entry in &report.entries {
            let name = entry.verdict.criterion;
            *tally.ms.entry(name).or_default() += entry.elapsed.as_secs_f64() * 1e3;
            if entry.verdict.accepted {
                accepted.push(name);
            }
        }
        Ok(accepted)
    }

    /// Records a traced tally: per-criterion time and accept counts, and the
    /// share of analysis time the adorning criteria spend recomputing the
    /// adornment, estimated by timing one `adorn` per program outside the
    /// timed operations.
    pub fn record(&self, rec: &mut Recorder, tally: &Tally, sources: &[&str]) {
        for (name, count) in &tally.counts {
            if let Some((_, _, accepts)) = CRITERIA.iter().find(|(n, _, _)| n == name) {
                rec.push(accepts, *count as f64);
            }
        }
        for (name, ms) in &tally.ms {
            rec.push(metrics_of(name).0, *ms);
        }
        let mut adorn_ms = 0.0;
        for source in sources {
            let parsed = rec
                .trace
                .span("chase_core", "parse_program", || parse_program(source));
            let Ok(parsed) = parsed else { continue };
            let start = Instant::now();
            rec.trace
                .span("chase_termination", "adorn", || adorn(&parsed.dependencies));
            adorn_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        let analysis_ms: f64 = tally.ms.values().sum();
        if analysis_ms > 0.0 {
            let share = (ADORNING_CRITERIA * adorn_ms / analysis_ms).min(1.0);
            rec.push("chase_termination.adornment_share", share);
        }
    }
}
