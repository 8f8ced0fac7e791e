//! The egd-chase benchmark: one process, one client thread, a closed loop of
//! one workload's passes for a fixed time, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload closure-ivm --seed 7 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the run measures half its time
//! untraced and half traced, and reports the per-layer metrics, the tracing
//! overhead and the share of traced wall-clock covered by layer self time.
//! The line before it is the full record (host stamp, input sizes, every
//! sample count); records and spans are also written under `perfbench/out/`.
//! Failed checks make the command exit 1; bad arguments or a failed set-up
//! exit 2 without a result. `--manifest` prints `BENCHMARK.json`.
//! See `perfbench/README.md`.

mod analysis;
mod checks;
mod closure;
mod egd;
mod exchange;
mod manifest;
mod record;
mod stats;
mod trace;

use chase_core::Instance;
use chase_engine::ChaseBudget;
use chase_obs::JsonValue;
use manifest::{END_TO_END, OP_MS_P50, PASS_MS_P50, PEAK_RSS_MB, PER_LAYER, SETUP_S};
use record::Recorder;
use stats::{median, p90};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Tiny inputs for the benchmark's own tests.
    Smoke,
}

/// One workload: inputs made from a seed, then a pass repeated for the run.
pub trait Workload: Sized {
    /// The sample key of the operation reported as `op_ms_p50`.
    const HEADLINE: &'static str;
    /// Generates the inputs, runs the `workers(1)` references and warms up.
    fn setup(seed: u64, scale: Scale) -> Result<Self, String>;
    /// One pass of the workload's pipeline, every output checked.
    fn pass(&mut self, rec: &mut Recorder);
    /// Input sizes for the record.
    fn inputs(&self) -> Vec<(&'static str, u64)>;
}

/// The chase budget of every session: generous, so only a genuinely
/// diverging run trips it.
pub fn budget() -> ChaseBudget {
    ChaseBudget::unlimited().with_max_steps(50_000_000)
}

/// `workers(nproc)`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A small seeded generator (splitmix64) for the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Saves `model`, loads it back and checks `load(save(model)) == model`.
pub fn snapshot_roundtrip(rec: &mut Recorder, workload: &str, model: &Instance) {
    // Unique per call: the benchmark's tests run workloads on parallel threads.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = out_dir().join(format!("{workload}-{}-{n}.snapshot", std::process::id()));
    let saved = rec.op("chase_core", "save_ms", |_| model.save(&path));
    let checked = saved.map_err(|e| format!("save: {e}")).and_then(|()| {
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        rec.push(
            "snapshot_bytes_per_fact",
            bytes as f64 / model.len().max(1) as f64,
        );
        let loaded = rec.op("chase_core", "load_ms", |_| Instance::load(&path));
        let loaded = loaded.map_err(|e| format!("load: {e}"))?;
        rec.probe("chase_core", "compare", |_| {
            checks::same_model("load(save(m))", model, &loaded)
        })
    });
    let _ = std::fs::remove_file(&path);
    rec.verify(2, checked);
    if rec.traced() {
        record::store_bytes(rec, model);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    corrupt: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        corrupt: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--manifest" => return Ok(None),
            "--corrupt" => parsed.corrupt = true,
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace") => {
                let v = value()?;
                let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
                match flag {
                    "--workload" => parsed.workload = v.clone(),
                    "--seed" => parsed.seed = v.parse().map_err(|e| bad(&e))?,
                    "--seconds" => parsed.seconds = v.parse().map_err(|e| bad(&e))?,
                    _ => {
                        parsed.trace = match v.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(bad(&"expected 0 or 1")),
                        }
                    }
                }
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(parsed))
}

/// A metric as reported: value, unit and the samples behind it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
    record: JsonValue,
    spans: Option<String>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `program args` in the benchmark's directory; the first output line.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

fn host() -> JsonValue {
    // Only this repository's revision: a checkout without `.git` may sit
    // inside some other repository.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let in_repo = command_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|top| std::fs::canonicalize(top).ok())
        .zip(std::fs::canonicalize(&repo).ok())
        .is_some_and(|(top, repo)| top == repo);
    let rev = in_repo
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    let text = |s: Option<String>| JsonValue::Str(s.unwrap_or_else(|| "unknown".into()));
    JsonValue::Object(vec![
        ("nproc".into(), JsonValue::Int(workers() as i64)),
        ("git_rev".into(), text(rev)),
        ("rustc".into(), text(command_line("rustc", &["-V"]))),
    ])
}

/// Runs passes back to back until `budget` has elapsed; returns the time
/// measured.
fn measure<W: Workload>(workload: &mut W, rec: &mut Recorder, budget: Duration) -> Duration {
    let start = Instant::now();
    loop {
        rec.pass(|rec| workload.pass(rec));
        if start.elapsed() >= budget {
            return start.elapsed();
        }
    }
}

/// The source sample key of a per-layer metric and whether it is a p90.
fn source_key(name: &str) -> (&str, bool) {
    match name {
        "chase_core.save_ms" => ("save_ms", false),
        "chase_core.load_ms" => ("load_ms", false),
        "chase_engine.core_ms" => ("core_ms", false),
        "chase_ivm.materialize_ms" => ("materialize_ms", false),
        "chase_ivm.rechase_ms" => ("rechase_ms", false),
        n => match (n.strip_suffix("_p50"), n.strip_suffix("_p90")) {
            (Some(key), _) => (key, false),
            (_, Some(key)) => (key, true),
            _ => (n, false),
        },
    }
}

/// A per-layer metric from a traced recorder; 0 where nothing ran.
fn per_layer_value(name: &str, rec: &Recorder, attempted: u64, failed: u64) -> (f64, usize) {
    match name {
        "failed_ratio" => (failed as f64 / attempted.max(1) as f64, attempted as usize),
        "analyze_programs_per_s" => {
            let s = rec.samples("analyze_ms");
            let total_s: f64 = s.iter().sum::<f64>() / 1e3;
            let rate = if total_s > 0.0 {
                s.len() as f64 / total_s
            } else {
                0.0
            };
            (rate, s.len())
        }
        "chase_ivm.batch_over_rechase" => {
            let batch = median(rec.samples("ivm_batch_ms"));
            let rechase = median(rec.samples("rechase_ms"));
            let ratio = match (batch, rechase) {
                (Some(b), Some(r)) if r > 0.0 => b / r,
                _ => 0.0,
            };
            (ratio, rec.samples("ivm_batch_ms").len())
        }
        _ => {
            let (key, is_p90) = source_key(name);
            let s = rec.samples(key);
            let v = if is_p90 { p90(s) } else { median(s) };
            (v.unwrap_or(0.0), s.len())
        }
    }
}

fn samples_json(rec: &Recorder) -> JsonValue {
    JsonValue::Object(
        rec.all_samples()
            .iter()
            .map(|(k, v)| {
                let mut fields = vec![
                    ("n".to_string(), JsonValue::Int(v.len() as i64)),
                    (
                        "p50".to_string(),
                        JsonValue::Float(median(v).unwrap_or(0.0)),
                    ),
                ];
                if let Some(p) = p90(v) {
                    fields.push(("p90".to_string(), JsonValue::Float(p)));
                }
                (k.to_string(), JsonValue::Object(fields))
            })
            .collect(),
    )
}

/// Each per-layer metric's layer and the end-to-end metric it should move.
fn layer_map() -> JsonValue {
    JsonValue::Array(
        PER_LAYER
            .iter()
            .map(|m| {
                JsonValue::Object(vec![
                    ("metric".into(), JsonValue::Str(m.name.into())),
                    ("layer".into(), JsonValue::Str(m.layer.into())),
                    ("moves".into(), JsonValue::Str(m.moves.into())),
                ])
            })
            .collect(),
    )
}

fn run<W: Workload>(args: &Args) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::setup(args.seed, args.scale)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");
    let budget = Duration::from_secs_f64(args.seconds);

    let mut plain = Recorder::new(false, args.corrupt);
    let mut traced = Recorder::new(true, false);
    let mut traced_wall = Duration::ZERO;
    if args.trace {
        measure(&mut workload, &mut plain, budget / 2);
        traced_wall = measure(&mut workload, &mut traced, budget / 2);
    } else {
        measure(&mut workload, &mut plain, budget);
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;

    let mut metrics = Vec::new();
    if args.trace {
        for m in PER_LAYER {
            let (value, samples) = match m.name {
                "trace.overhead_ratio" => {
                    let (t, p) = (
                        median(traced.samples("pass_ms")),
                        median(plain.samples("pass_ms")),
                    );
                    (
                        t.zip(p).map_or(0.0, |(t, p)| t / p),
                        traced.samples("pass_ms").len(),
                    )
                }
                "trace.layer_share" => (
                    trace::layer_share(traced.trace.spans(), traced_wall.as_nanos() as u64),
                    traced.trace.spans().len(),
                ),
                name => per_layer_value(name, &traced, attempted, failed),
            };
            metrics.push(Reported {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            });
        }
    } else {
        for m in END_TO_END {
            let (value, samples) = match m.name {
                SETUP_S => (median(&setup_s).unwrap_or(0.0), setup_s.len()),
                PEAK_RSS_MB => (peak_rss_mb(), 1),
                OP_MS_P50 | PASS_MS_P50 => {
                    let key = if m.name == OP_MS_P50 {
                        W::HEADLINE
                    } else {
                        "pass_ms"
                    };
                    let s = plain.samples(key);
                    (median(s).unwrap_or(0.0), s.len())
                }
                other => unreachable!("no rule for end-to-end metric {other}"),
            };
            metrics.push(Reported {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            });
        }
    }

    let failures: Vec<JsonValue> = plain
        .failures
        .iter()
        .chain(&traced.failures)
        .map(|f| JsonValue::Str(f.clone()))
        .collect();
    let run_id = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
    let record = JsonValue::Object(vec![
        ("run".into(), JsonValue::Str(run_id.clone())),
        ("workload".into(), JsonValue::Str(args.workload.clone())),
        ("seed".into(), JsonValue::Int(args.seed as i64)),
        ("seconds".into(), JsonValue::Float(args.seconds)),
        ("trace".into(), JsonValue::Bool(args.trace)),
        (
            "loop".into(),
            JsonValue::Str("closed, 1 client thread".into()),
        ),
        ("host".into(), host()),
        ("workers".into(), JsonValue::Int(workers() as i64)),
        (
            "inputs".into(),
            JsonValue::Object(
                workload
                    .inputs()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), JsonValue::Int(v as i64)))
                    .collect(),
            ),
        ),
        (
            "setup_s".into(),
            JsonValue::Array(setup_s.iter().map(|&s| JsonValue::Float(s)).collect()),
        ),
        (
            "metrics".into(),
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            JsonValue::Object(vec![
                                ("value".into(), JsonValue::Float(m.value)),
                                ("unit".into(), JsonValue::Str(m.unit.into())),
                                ("samples".into(), JsonValue::Int(m.samples as i64)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("samples".into(), samples_json(&plain)),
        ("traced_samples".into(), samples_json(&traced)),
        (
            "pass_ms".into(),
            JsonValue::Array(
                plain
                    .samples("pass_ms")
                    .iter()
                    .map(|&ms| JsonValue::Float(ms))
                    .collect(),
            ),
        ),
        ("failures".into(), JsonValue::Array(failures)),
        ("layer_map".into(), layer_map()),
    ]);
    let spans = args.trace.then(|| traced.trace.to_json_lines(&run_id));
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        record,
        spans,
    })
}

fn run_workload(args: &Args) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "closure-ivm" => run::<closure::Closure>(args),
        "egd-collapse" => run::<egd::Collapse>(args),
        "exchange-scale" => run::<exchange::Exchange>(args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {:?}",
            manifest::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        )),
    }
}

fn result_line(result: &RunResult) -> JsonValue {
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                JsonValue::Object(vec![
                    ("value".into(), JsonValue::Float(value)),
                    ("unit".into(), JsonValue::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(result.correct)),
        ("attempted".into(), JsonValue::Int(result.attempted as i64)),
        ("failed".into(), JsonValue::Int(result.failed as i64)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", manifest::benchmark_json());
            return;
        }
        Err(reason) => {
            eprintln!("perfbench: {reason}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        std::process::exit(2);
    }
    let result = match run_workload(&args) {
        Ok(result) => result,
        Err(reason) => {
            eprintln!("perfbench: {}: set-up failed: {reason}", args.workload);
            std::process::exit(2);
        }
    };
    let stem = format!(
        "{}-{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = result.record.to_string();
    let written =
        std::fs::write(out_dir().join(format!("record-{stem}.json")), &record).and_then(|()| {
            match &result.spans {
                Some(spans) => std::fs::write(out_dir().join(format!("spans-{stem}.jsonl")), spans),
                None => Ok(()),
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the record: {e}");
    }
    for failure in result
        .record
        .get("failures")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
    {
        eprintln!(
            "perfbench: check failed: {}",
            failure.as_str().unwrap_or("")
        );
    }
    println!("{record}");
    println!("{}", result_line(&result));
    if !result.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool, corrupt: bool) -> RunResult {
        let args = Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.05,
            trace,
            scale: Scale::Smoke,
            corrupt,
        };
        run_workload(&args).unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    #[test]
    fn smoke_size_runs_every_workload_correctly() {
        std::fs::create_dir_all(out_dir()).unwrap();
        for w in manifest::WORKLOADS {
            let plain = smoke(w.name, false, false);
            assert!(
                plain.correct && plain.failed == 0,
                "{}: {:?}",
                w.name,
                plain.record.get("failures")
            );
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            assert!(
                plain.metrics.iter().all(|m| m.value > 0.0),
                "{}: a zero end-to-end metric",
                w.name
            );
            let traced = smoke(w.name, true, false);
            assert!(traced.correct, "{}", w.name);
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert!(traced.spans.as_deref().is_some_and(|s| !s.is_empty()));
            let line = result_line(&traced).to_string();
            let parsed = chase_obs::parse_json(&line).unwrap();
            assert_eq!(parsed.get("failed").and_then(JsonValue::as_i64), Some(0));
        }
    }

    #[test]
    fn a_corrupted_output_fails_every_workload() {
        std::fs::create_dir_all(out_dir()).unwrap();
        for w in manifest::WORKLOADS {
            let run = smoke(w.name, false, true);
            assert!(
                !run.correct && run.failed > 0,
                "{} accepted a corrupted output",
                w.name
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload egd-collapse --seed 4 --seconds 2 --trace 1",
        ))
        .unwrap()
        .unwrap();
        assert!(ok.trace && ok.seed == 4 && ok.seconds == 2.0);
        assert!(parse_args(&argv("--manifest")).unwrap().is_none());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        shuffle(&mut a, 1);
        shuffle(&mut b, 1);
        shuffle(&mut c, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
