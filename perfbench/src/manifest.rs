//! What the benchmark measures: its workloads, its end-to-end metrics (each
//! with the bound by which it may worsen before a change counts as a
//! regression) and its per-layer metrics (each with the layer it belongs to,
//! the end-to-end metric it should move, and where it is busy or flat).
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables by
//! `--manifest`; a unit test keeps the committed file in sync.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported on every workload by an untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric: reported on every workload by a traced run, as 0
/// where the layer (or the stage) does not run.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate the number is taken from, or `stage` for a whole-stage
    /// timing of a user-visible operation, or `trace` for the tracer itself.
    pub layer: &'static str,
    /// The end-to-end metric (and workload) the number should move.
    pub moves: &'static str,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads of `BENCHMARK.json`.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "closure-ivm",
        why: "Full-TGD join-heavy closure: parallel semi-oblivious chase, 1% mixed insert/retract IVM batches, save/load; discovery, merge and repair dominate.",
    },
    WorkloadSpec {
        name: "egd-collapse",
        why: "Sigma1 copies analyzed (only EGD-aware criteria accept) beside egd-laundering (none may), then an EGDs-first chase and a small core chase; EGD substitution and core folding dominate.",
    },
    WorkloadSpec {
        name: "exchange-scale",
        why: "Data-exchange ingest, parallel TGD-only standard chase and save/load on a working set far beyond L2; the only conflict-aware batching run.",
    },
];

pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const OP_MS_P50: &str = "op_ms_p50";
pub const PASS_MS_P50: &str = "pass_ms_p50";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: OP_MS_P50,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PASS_MS_P50,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

// Each layer's `moves` names the end-to-end metrics of `BENCHMARK.json` it
// should move and on which workloads, then the stage metrics as detail.
const CORE_MOVES: &str = "peak_rss_mb and pass_ms_p50 on exchange-scale; pass_ms_p50 on closure-ivm (save/load). Stages: ingest_facts_per_s, save_ms_p50, load_ms_p50";
const TRIGGER_MOVES: &str = "op_ms_p50 and pass_ms_p50 on exchange-scale; pass_ms_p50 on closure-ivm (its chase). Stages: chase_ms_p50, chase_facts_per_s";
const ENGINE_MOVES: &str = "op_ms_p50 on egd-collapse (apply) and exchange-scale (merge); pass_ms_p50 on egd-collapse (core) and closure-ivm (merge). Stages: chase_ms_p50, core_ms_p50";
const CRITERIA_MOVES: &str =
    "pass_ms_p50 on egd-collapse (its analysis). Stages: analyze_ms_p50, analyze_programs_per_s";
const TERMINATION_MOVES: &str = "pass_ms_p50 on egd-collapse (its analysis). Stage: analyze_ms_p50";
const IVM_MOVES: &str =
    "op_ms_p50 and pass_ms_p50 on closure-ivm. Stages: ivm_batch_ms_p50, ivm_batch_ms_p90";

pub const PER_LAYER: &[PerLayer] = &[
    // chase_core: parsing, interning, the columnar store, snapshots.
    layer("chase_core", "chase_core.parse_ms", "ms", Lower, CORE_MOVES),
    layer(
        "chase_core",
        "chase_core.ingest_ns_per_fact",
        "ns",
        Lower,
        CORE_MOVES,
    ),
    layer(
        "chase_core",
        "chase_core.store_bytes_per_fact",
        "B",
        Lower,
        CORE_MOVES,
    ),
    layer("chase_core", "chase_core.save_ms", "ms", Lower, CORE_MOVES),
    layer("chase_core", "chase_core.load_ms", "ms", Lower, CORE_MOVES),
    // chase_trigger: trigger discovery, sharded over the worker pool.
    layer(
        "chase_trigger",
        "chase_trigger.discovery_ms",
        "ms",
        Lower,
        TRIGGER_MOVES,
    ),
    layer(
        "chase_trigger",
        "chase_trigger.facts_scanned",
        "count",
        Lower,
        TRIGGER_MOVES,
    ),
    layer(
        "chase_trigger",
        "chase_trigger.triggers_found",
        "count",
        Lower,
        TRIGGER_MOVES,
    ),
    layer(
        "chase_trigger",
        "chase_trigger.shard_imbalance",
        "ratio",
        Lower,
        TRIGGER_MOVES,
    ),
    // chase_engine: the chase runners.
    layer(
        "chase_engine",
        "chase_engine.merge_ms",
        "ms",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.merge_kept_ratio",
        "ratio",
        Higher,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.apply_ms",
        "ms",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.egd_us_per_replacement",
        "us",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.core_ms",
        "ms",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.steps",
        "count",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.facts_added",
        "count",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.nulls_created",
        "count",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.null_replacements",
        "count",
        Lower,
        ENGINE_MOVES,
    ),
    layer(
        "chase_engine",
        "chase_engine.attribution",
        "ratio",
        Higher,
        ENGINE_MOVES,
    ),
    // chase_criteria: the baseline criteria, summed over the programs of a pass.
    layer(
        "chase_criteria",
        "chase_criteria.wa_ms",
        "ms",
        Lower,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.sc_ms",
        "ms",
        Lower,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.swa_ms",
        "ms",
        Lower,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.str_ms",
        "ms",
        Lower,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.cstr_ms",
        "ms",
        Lower,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.mfa_ms",
        "ms",
        Lower,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.wa_accepts",
        "count",
        Higher,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.sc_accepts",
        "count",
        Higher,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.swa_accepts",
        "count",
        Higher,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.str_accepts",
        "count",
        Higher,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.cstr_accepts",
        "count",
        Higher,
        CRITERIA_MOVES,
    ),
    layer(
        "chase_criteria",
        "chase_criteria.mfa_accepts",
        "count",
        Higher,
        CRITERIA_MOVES,
    ),
    // chase_termination: the paper's EGD-aware criteria, summed likewise.
    layer(
        "chase_termination",
        "chase_termination.s-str_ms",
        "ms",
        Lower,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.sac_ms",
        "ms",
        Lower,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adn-wa_ms",
        "ms",
        Lower,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adn-sc_ms",
        "ms",
        Lower,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adn-swa_ms",
        "ms",
        Lower,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adornment_share",
        "ratio",
        Lower,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.s-str_accepts",
        "count",
        Higher,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.sac_accepts",
        "count",
        Higher,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adn-wa_accepts",
        "count",
        Higher,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adn-sc_accepts",
        "count",
        Higher,
        TERMINATION_MOVES,
    ),
    layer(
        "chase_termination",
        "chase_termination.adn-swa_accepts",
        "count",
        Higher,
        TERMINATION_MOVES,
    ),
    // chase_ivm: incremental maintenance, per pass of the update stream.
    layer(
        "chase_ivm",
        "chase_ivm.materialize_ms",
        "ms",
        Lower,
        IVM_MOVES,
    ),
    layer(
        "chase_ivm",
        "chase_ivm.triggers_fired",
        "count",
        Lower,
        IVM_MOVES,
    ),
    layer(
        "chase_ivm",
        "chase_ivm.overdeleted",
        "count",
        Lower,
        IVM_MOVES,
    ),
    layer(
        "chase_ivm",
        "chase_ivm.rederived",
        "count",
        Lower,
        IVM_MOVES,
    ),
    layer(
        "chase_ivm",
        "chase_ivm.egd_replays",
        "count",
        Lower,
        IVM_MOVES,
    ),
    layer("chase_ivm", "chase_ivm.rechase_ms", "ms", Lower, IVM_MOVES),
    layer(
        "chase_ivm",
        "chase_ivm.batch_over_rechase",
        "ratio",
        Lower,
        IVM_MOVES,
    ),
    // Stage timings of the user-visible operations, per workload that has them.
    layer(
        "stage",
        "failed_ratio",
        "ratio",
        Lower,
        "the result line's failed and correct on every workload",
    ),
    layer(
        "stage",
        "analyze_programs_per_s",
        "1/s",
        Higher,
        "pass_ms_p50 on egd-collapse",
    ),
    layer(
        "stage",
        "analyze_ms_p50",
        "ms",
        Lower,
        "pass_ms_p50 on egd-collapse",
    ),
    layer(
        "stage",
        "chase_ms_p50",
        "ms",
        Lower,
        "op_ms_p50 on egd-collapse and exchange-scale; pass_ms_p50 on closure-ivm",
    ),
    layer(
        "stage",
        "chase_facts_per_s",
        "facts/s",
        Higher,
        "op_ms_p50 on egd-collapse and exchange-scale; pass_ms_p50 on closure-ivm",
    ),
    layer(
        "stage",
        "core_ms_p50",
        "ms",
        Lower,
        "pass_ms_p50 on egd-collapse",
    ),
    layer(
        "stage",
        "ivm_batch_ms_p50",
        "ms",
        Lower,
        "op_ms_p50 on closure-ivm",
    ),
    layer(
        "stage",
        "ivm_batch_ms_p90",
        "ms",
        Lower,
        "op_ms_p50 on closure-ivm",
    ),
    layer(
        "stage",
        "ingest_facts_per_s",
        "facts/s",
        Higher,
        "pass_ms_p50 on exchange-scale",
    ),
    layer(
        "stage",
        "save_ms_p50",
        "ms",
        Lower,
        "pass_ms_p50 on closure-ivm and exchange-scale",
    ),
    layer(
        "stage",
        "load_ms_p50",
        "ms",
        Lower,
        "pass_ms_p50 on closure-ivm and exchange-scale",
    ),
    layer(
        "stage",
        "snapshot_bytes_per_fact",
        "B",
        Lower,
        "pass_ms_p50 (save/load) on closure-ivm and exchange-scale",
    ),
    // The tracer itself.
    layer(
        "trace",
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "none: traced over untraced pass_ms_p50",
    ),
    layer(
        "trace",
        "trace.layer_share",
        "ratio",
        Higher,
        "none: layer self time over traced wall-clock",
    ),
];

/// Renders `BENCHMARK.json`: exactly the keys its format allows.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", RUN_SECONDS));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.why,
            comma(i, WORKLOADS.len())
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            comma(i, END_TO_END.len())
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            comma(i, PER_LAYER.len())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 30;

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{is_metric_name, is_unit};
    use std::collections::HashSet;

    #[test]
    fn every_name_and_unit_follows_the_grammar_and_names_are_unique() {
        let mut seen = HashSet::new();
        let names = WORKLOADS.iter().map(|w| (w.name, "count"));
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names.chain(metrics) {
            assert!(is_metric_name(name), "bad name {name:?}");
            assert!(is_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn the_benchmark_json_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == SETUP_S && m.unit == "s" && m.better == Better::Lower));
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json(), "re-render with `--manifest`");
        let parsed = chase_obs::json::parse(&committed).expect("BENCHMARK.json is valid JSON");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            parsed
                .get("per_layer")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(PER_LAYER.len())
        );
    }
}
