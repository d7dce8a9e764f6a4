//! The repository benchmark: end-to-end and per-layer performance of the
//! contention-deadlines workspace, driven only through its public API
//! from this one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-quick --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload is a closed loop: one client waits for each result
//! before asking for the next. `--seconds` sets how much work a run
//! does: the number of rounds that takes that long on the reference
//! machine (2 cores), so the sample counts behind each statistic do not
//! change when the program gets faster. With `--trace 0` the run reports
//! the end-to-end metrics; with `--trace 1` it runs half the rounds
//! untraced and half with spans, reports the difference as the tracing
//! overhead, then probes each layer and reports the per-layer metrics.
//! The last line of standard output is the JSON result.

mod measure;
mod paper;
mod server_mix;
mod spec_mix;
mod specs;
mod trace;

use measure::{peak_rss_mb, reset_peak_rss, secs, MetricTable, Samples, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "paper-quick",
    "punctual-poisson",
    "aggregate-1e5",
    "server-mix",
];

/// Runner worker threads: the machine's parallelism, at most this many,
/// so runs on larger machines stay comparable with the reference box.
pub const MAX_WORKERS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1` (besides
/// the per-experiment ones, see [`per_layer_metrics`]). A layer the
/// workload never reaches reads 0 and is listed as unreached.
const LAYERS: [(&str, &str); 37] = [
    ("workloads.check_s", "s"),
    ("workloads.jobs", "count"),
    ("engine.build_s", "s"),
    ("engine.run_s", "s"),
    ("engine.slots_covered", "count"),
    ("engine.slots_per_s", "1/s"),
    ("sched.gap_skips", "count"),
    ("sched.gap_slots", "count"),
    ("sched.skipped_fraction", "ratio"),
    ("sched.parks", "count"),
    ("sched.peak_parked", "count"),
    ("kernel.run_s", "s"),
    ("classes.run_s", "s"),
    ("runner.wall_s", "s"),
    ("runner.trials", "count"),
    ("runner.trial_p50_us", "us"),
    ("runner.busy_frac", "ratio"),
    ("checkpoint.snapshot_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.json_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("stats.provenance_s", "s"),
    ("stats.cache_key_s", "s"),
    ("stats.report_bytes", "bytes"),
    ("server.accept_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.cold_p50_ms", "ms"),
    ("server.cached_p50_ms", "ms"),
    ("server.branch_p50_ms", "ms"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.cache_stores", "count"),
    ("server.errors", "count"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("cache.entry_bytes", "bytes"),
    ("telemetry.scrape_ms", "ms"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for id in paper::ids() {
        v.push((format!("experiments.{id}_s"), "s"));
        v.push((format!("experiments.{id}_engine_slots"), "count"));
        v.push((format!("experiments.{id}_reported_slots"), "count"));
    }
    v.push(("trace.overhead_pct".to_string(), "%"));
    v
}

/// What the closed loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    /// Latency of every operation, in ms.
    pub ops: Samples,
    /// Latency by operation kind, in ms.
    pub kinds: BTreeMap<&'static str, Samples>,
    /// Wall time of each round, in s.
    pub rounds: Samples,
    /// Monte-Carlo trials the operations finished.
    pub trials: u64,
    /// Seconds spent inside operations.
    pub busy_s: f64,
}

impl Loop {
    /// Record one operation of `kind` that took `secs` and finished
    /// `trials` trials.
    pub fn op(&mut self, kind: &'static str, secs: f64, trials: u64) {
        self.part(kind, secs);
        self.whole(secs, trials);
    }

    /// Record the latency of one part of an operation, by kind.
    pub fn part(&mut self, kind: &'static str, secs: f64) {
        self.kinds.entry(kind).or_default().push(secs * 1e3);
    }

    /// Record one operation whose parts were recorded with [`Loop::part`].
    pub fn whole(&mut self, secs: f64, trials: u64) {
        self.ops.push(secs * 1e3);
        self.trials += trials;
        self.busy_s += secs;
    }

    /// A round with every operation (or part) at its kind's median
    /// latency, in s: steadier than the median of a few round wall times.
    pub fn round_of_medians(&self) -> f64 {
        self.kinds
            .values()
            .map(|s| s.median().unwrap_or(0.0) * s.len() as f64)
            .sum::<f64>()
            / self.rounds.len().max(1) as f64
            / 1e3
    }
}

/// One workload: its closed-loop round and its layer probes. Set-up is
/// the closure handed to [`bench`].
pub trait Workload {
    /// Nominal seconds per round (about one round's time on the reference
    /// machine): a run does `--seconds / round_s()` rounds.
    fn round_s(&self) -> f64;
    /// One round of operations, each recorded in `lp` and checked.
    fn round(&mut self, trace: &mut Trace, tally: &mut Tally, lp: &mut Loop);
    /// Traced per-layer probes.
    fn layers(
        &mut self,
        trace: &mut Trace,
        tally: &mut Tally,
        m: &mut MetricTable,
        unreached: &mut Vec<String>,
    );
    /// Extra human-readable lines (the workload's own named metrics).
    fn describe(&self, _lp: &Loop, _out: &mut Vec<String>) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The run's scratch directory: under `CARGO_TARGET_DIR` when set (the
/// build directory of the checkout), else under this package's `target`.
fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join("perfbench-work")
        .join(std::process::id().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Provenance capture runs `git`; keep it from searching above the
    // checkout for a repository.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    // Arm the telemetry counters (the runner's trial counter is read
    // around every operation) and keep server log lines off the terminal
    // while still rendering them.
    dcr_telemetry::install();
    dcr_telemetry::logger::set_sink(Some(Box::new(std::io::sink())));
    let workers = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
        .min(MAX_WORKERS);
    dcr_sim::runner::set_worker_override(Some(workers));

    let work_dir = work_dir();
    let seed = args.seed;
    let result = match args.workload.as_str() {
        "paper-quick" => bench(&args, workers, |_| paper::PaperQuick::setup(seed)),
        "punctual-poisson" => bench(&args, workers, |_| {
            spec_mix::SpecMix::punctual_poisson(seed)
        }),
        "aggregate-1e5" => bench(&args, workers, |_| spec_mix::SpecMix::aggregate(seed)),
        "server-mix" => bench(&args, workers, |n| {
            server_mix::ServerMix::setup(seed, &work_dir, n)
        }),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Rounds a run of `seconds` does for a workload with rounds of `round_s`.
fn rounds_for(seconds: u64, round_s: f64) -> usize {
    ((seconds as f64 / round_s).round() as usize).max(1)
}

/// Run one round, recording it in `lp`.
fn timed_round<W: Workload>(w: &mut W, trace: &mut Trace, tally: &mut Tally, lp: &mut Loop) {
    let t = Instant::now();
    trace.span("round", |trace| w.round(trace, tally, lp));
    lp.rounds.push(secs(t));
}

/// Run one workload and return the JSON result line, after printing the
/// human-readable report. `setup(n)` does everything before the first
/// timed operation; `n` counts the set-up repetitions.
fn bench<W: Workload>(
    args: &Args,
    workers: usize,
    setup: impl Fn(usize) -> Result<W, String>,
) -> Result<String, String> {
    let mut tally = Tally::new();
    let mut out = vec![format!(
        "perfbench {} seed={} seconds={} trace={} workers={workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    )];
    let reset = reset_peak_rss();
    tally.check(reset.is_ok(), || {
        format!("cannot reset peak RSS: {reset:?}")
    });
    let mut setups = Samples::new();
    let mut state = None;
    for n in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup(n)?);
        setups.push(secs(t));
    }
    let mut w = state.expect("SETUP_REPS > 0");
    let rounds = rounds_for(args.seconds, w.round_s());

    // One untimed round first, so first-touch allocation and lazy
    // initialisation do not land in the first timed round. Its outputs
    // are checked like every other round's.
    timed_round(&mut w, &mut Trace::off(), &mut tally, &mut Loop::default());

    let mut m = MetricTable::new();
    if !args.trace {
        let mut lp = Loop::default();
        for _ in 0..rounds {
            timed_round(&mut w, &mut Trace::off(), &mut tally, &mut lp);
        }
        // The peak over the whole workload: set-up, warm-up and every
        // timed round.
        let peak_mb = peak_rss_mb();
        let tail = lp.ops.tail().or(lp.ops.median().map(|v| (0.5, v)));
        m.set("setup_s", setups.median().expect("set-up ran"), "s");
        m.set("round_s", lp.round_of_medians(), "s");
        m.set("op_p50_ms", lp.ops.median().unwrap_or(0.0), "ms");
        m.set("op_tail_ms", tail.map_or(0.0, |t| t.1), "ms");
        m.set("trials_per_s", lp.trials as f64 / lp.busy_s, "1/s");
        m.set("peak_rss_mb", peak_mb.unwrap_or(0.0), "MB");
        out.push(format!(
            "setup: {:.6} s (median of {SETUP_REPS})",
            setups.median().expect("set-up ran")
        ));
        out.push(format!(
            "rounds: {} of {} ops; round_s {:.4} s with each op at its median; wall per round {}",
            lp.rounds.len(),
            lp.ops.len() / lp.rounds.len(),
            lp.round_of_medians(),
            lp.rounds.describe("s")
        ));
        out.push(format!("op latency: {}", lp.ops.describe("ms")));
        for (kind, s) in &lp.kinds {
            out.push(format!("  {kind}: {}", s.describe("ms")));
        }
        w.describe(&lp, &mut out);
    } else {
        // Untraced and traced rounds alternate, so drift in the machine's
        // speed lands on both halves alike.
        let (mut plain, mut traced) = (Loop::default(), Loop::default());
        let mut trace = Trace::on();
        for _ in 0..(rounds / 2).max(1) {
            timed_round(&mut w, &mut Trace::off(), &mut tally, &mut plain);
            timed_round(&mut w, &mut trace, &mut tally, &mut traced);
        }
        let (p, t) = (plain.round_of_medians(), traced.round_of_medians());
        let mut unreached = Vec::new();
        trace.span("layers", |trace| {
            w.layers(trace, &mut tally, &mut m, &mut unreached)
        });
        m.set("trace.overhead_pct", (t - p) / p * 100.0, "%");
        out.push(format!(
            "tracing overhead: untraced round {p:.4} s, traced round {t:.4} s ({:+.2}%)",
            (t - p) / p * 100.0
        ));
        // Report every per-layer metric, in the fixed order.
        let mut full = MetricTable::new();
        for (name, unit) in per_layer_metrics() {
            if m.get(&name).is_none() {
                let shown = match name.starts_with("experiments.") {
                    true => "experiments.* (paper-quick only)".to_string(),
                    false => name.clone(),
                };
                if !unreached.contains(&shown) {
                    unreached.push(shown);
                }
            }
            full.set(name.clone(), m.get(&name).unwrap_or(0.0), unit);
        }
        m = full;
        out.push("spans (count, total s, self s):".into());
        for (name, s) in trace.summary() {
            out.push(format!(
                "  {name:<24} {:>6} {:>12.6} {:>12.6}",
                s.count, s.total_s, s.self_s
            ));
        }
        if !unreached.is_empty() {
            out.push(format!(
                "not reached by this workload (reported as 0): {}",
                unreached.join("; ")
            ));
        }
        w.describe(&traced, &mut out);
    }

    out.push(format!(
        "error_rate: {} ({} failed of {} attempted)",
        tally.error_rate(),
        tally.failed,
        tally.attempted
    ));
    for msg in &tally.messages {
        out.push(format!("  FAILED: {msg}"));
    }
    for (name, value, unit) in m.rows() {
        out.push(format!("{name:<36} {value:>18.6} {unit}"));
    }
    for line in out {
        println!("{line}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        m.to_json()
    ))
}

/// A well-mixed 64-bit value from a seed and a stream index.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this binary reports.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(serde::Value::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(serde::Value::as_str)
                            .expect(k)
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(serde::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(serde::Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for (name, unit) in e2e.iter().chain(&layers) {
            assert!(
                measure::valid_name(name) && measure::valid_unit(unit),
                "{name} {unit}"
            );
        }
    }

    #[test]
    fn rounds_scale_with_seconds() {
        assert_eq!(rounds_for(20, 5.0), 4);
        assert_eq!(rounds_for(1, 5.0), 1);
        assert_eq!(rounds_for(20, 0.1), 200);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
