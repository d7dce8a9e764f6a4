//! Spec-driven work shared by the punctual-poisson, aggregate-1e5 and
//! server-mix workloads: building specs from templates, the output checks
//! every `runspec::run_spec` result goes through, and the traced
//! layer-by-layer probes (workloads, engine, sched, kernel/classes,
//! runner, checkpoint, stats).

use crate::measure::{median_time, secs, MetricTable, Samples, Tally};
use crate::trace::Trace;
use dcr_baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use dcr_bench::runspec::{self, ExperimentSpec, FidelitySpec, ProtocolSpec, SchedulingSpec};
use dcr_core::punctual::PunctualParams;
use dcr_core::uniform::Uniform;
use dcr_core::{AlignedParams, AlignedProtocol, PunctualProtocol};
use dcr_sim::engine::{slots_executed_total, Protocol};
use dcr_sim::prelude::*;
use dcr_sim::runner::{configured_workers, run_trials_ctl};
use dcr_sim::{EngineConfig, Fidelity, Scheduling};
use dcr_stats::{ExperimentReport, Provenance};
use dcr_workloads::Instance;
use std::time::Instant;

/// Success-rate reference bands, keyed by case name (see `bands.json`).
const BANDS: &str = include_str!("../bands.json");

/// The band `[lo, hi]` a case's pooled job success rate must fall in.
pub fn band(case: &str) -> (f64, f64) {
    let v: serde::Value = serde_json::from_str(BANDS).expect("bands.json is valid JSON");
    let b = v
        .get(case)
        .unwrap_or_else(|| panic!("bands.json has no entry for {case}"));
    let bound = |k: &str| {
        b.get(k)
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("bands.json: {case}.{k} missing"))
    };
    (bound("lo"), bound("hi"))
}

/// A spec in JSON with a `{seed}` placeholder, plus the band it is
/// checked against.
pub struct Template {
    pub case: &'static str,
    pub json: &'static str,
}

impl Template {
    /// The spec text for one seed: what a researcher would submit.
    pub fn text(&self, seed: u64) -> String {
        self.json.replace("{seed}", &seed.to_string())
    }
}

/// One spec ready to run, with its reference output once it has one.
pub struct Case {
    pub name: &'static str,
    pub spec: ExperimentSpec,
    band: (f64, f64),
    /// `deterministic_view()` of the first run, as JSON.
    reference: Option<String>,
}

impl Case {
    /// Parse and check a spec: the set-up a `--spec` run or a server
    /// submission pays before any trial starts.
    pub fn setup(t: &Template, seed: u64) -> Result<Self, String> {
        let spec: ExperimentSpec =
            serde_json::from_str(&t.text(seed)).map_err(|e| format!("{}: {e:?}", t.case))?;
        runspec::check(&spec).map_err(|e| format!("{}: {e}", t.case))?;
        Ok(Self {
            name: t.case,
            spec,
            band: band(t.case),
            reference: None,
        })
    }

    /// Check one report of this case: identical deterministic view to the
    /// first run, and a success rate inside the reference band.
    pub fn check(&mut self, report: &ExperimentReport, tally: &mut Tally) {
        let view = serde_json::to_string(&report.deterministic_view()).expect("reports serialize");
        match &self.reference {
            None => self.reference = Some(view),
            Some(r) => {
                let same = *r == view;
                tally.check(same, || {
                    format!("{}: deterministic_view differs between runs", self.name)
                });
            }
        }
        check_band(self.name, self.band, report, tally);
    }
}

/// The pooled success rate of a `run_spec` report.
pub fn success_rate(report: &ExperimentReport) -> Option<f64> {
    report.row("all", "job_success_rate").map(|r| r.value)
}

fn check_band(name: &str, (lo, hi): (f64, f64), report: &ExperimentReport, tally: &mut Tally) {
    let rate = success_rate(report);
    tally.check(rate.is_some_and(|r| (lo..=hi).contains(&r)), || {
        format!("{name}: success rate {rate:?} outside reference band [{lo}, {hi}]")
    });
}

/// Trials the runner finished so far (the telemetry counter the runner
/// flushes; the benchmark arms telemetry at start).
pub fn trials_completed() -> u64 {
    dcr_sim::telemetry::TRIALS_COMPLETED.get().unwrap_or(0)
}

/// One closed-loop operation: `runspec::run_spec`, checked. Returns the
/// op latency in seconds and the trials it finished.
pub fn run_op(case: &mut Case, trace: &mut Trace, tally: &mut Tally) -> (f64, u64) {
    let trials_before = trials_completed();
    let t = Instant::now();
    let out = trace.span("runspec.run_spec", |_| runspec::run_spec(&case.spec));
    let latency = secs(t);
    let trials = trials_completed() - trials_before;
    if let Some(out) = tally.attempt(case.name, out) {
        tally.check(trials == case.spec.trials, || {
            format!(
                "{}: runner finished {trials} of {} trials",
                case.name, case.spec.trials
            )
        });
        trace.span("bench.check", |_| case.check(&out.report, tally));
    }
    (latency, trials)
}

/// The engine configuration `runspec` derives from a spec, rebuilt from
/// the spec's public fields (the replay below must match the program).
fn engine_config(spec: &ExperimentSpec) -> EngineConfig {
    let mut cfg = match spec.protocol {
        ProtocolSpec::Aligned { .. } => EngineConfig::aligned(),
        _ => EngineConfig::default(),
    };
    cfg.max_slots = spec.max_slots;
    cfg.scheduling = match spec.scheduling {
        SchedulingSpec::EventDriven => Scheduling::EventDriven,
        SchedulingSpec::Dense => Scheduling::Dense,
    };
    cfg.fidelity = match spec.fidelity {
        FidelitySpec::Exact => Fidelity::Exact,
        FidelitySpec::Cohort => Fidelity::Cohort,
        FidelitySpec::Vectorized => Fidelity::Vectorized,
    };
    cfg
}

/// One job's protocol instance, as `runspec` builds it.
fn protocol(spec: &ExperimentSpec) -> Box<dyn Protocol> {
    match spec.protocol {
        ProtocolSpec::Uniform { attempts } => Box::new(Uniform::new(attempts as usize)),
        ProtocolSpec::Aligned {
            lambda,
            tau,
            min_class,
        } => Box::new(AlignedProtocol::new(AlignedParams::new(
            lambda, tau, min_class,
        ))),
        ProtocolSpec::Punctual => Box::new(PunctualProtocol::new(PunctualParams::laptop())),
        ProtocolSpec::Aloha { p } => Box::new(FixedProbability::new(p)),
        ProtocolSpec::Beb => Box::new(BinaryExponentialBackoff::new()),
        ProtocolSpec::Sawtooth => Box::new(Sawtooth::new()),
    }
}

/// A ready-to-run engine for one trial of `case`.
fn build_engine(spec: &ExperimentSpec, instance: &Instance, seed: u64) -> Engine {
    let mut engine = Engine::new(engine_config(spec), seed);
    if let Some(adv) = &spec.adversary {
        engine.set_jammer(adv.spec.jammer(adv.p_jam));
    }
    engine.add_jobs(&instance.jobs, |_| protocol(spec));
    engine
}

/// The seed `run_trials_ctl` hands trial `t` of a spec.
fn trial_seed(spec: &ExperimentSpec, t: u64) -> u64 {
    SeedSeq::new(spec.seed).trial(t).master()
}

/// Layer totals over the probed cases that the spans do not carry.
#[derive(Default)]
struct Layers {
    check_s: f64,
    jobs: u64,
    slots_covered: u64,
    gap_skips: u64,
    gap_slots: u64,
    parks: u64,
    peak_parked: u64,
    runner_trials: u64,
    trial_us: Samples,
    runner_busy_s: f64,
    runner_capacity_s: f64,
    ck_bytes: u64,
    cache_key_s: f64,
}

/// Repetitions of the cheap, timed-alone layer calls.
const PROBE_REPS: usize = 5;

/// Probe every simulator-side layer on `cases`, recording spans, and
/// write the per-layer metrics. The layer times are the spans' totals, so
/// `trace` must be on. Layers a case cannot reach (a protocol without
/// checkpoint support, say) are listed in `unreached`.
pub fn probe_layers(
    cases: &[&Case],
    trace: &mut Trace,
    tally: &mut Tally,
    m: &mut MetricTable,
    unreached: &mut Vec<String>,
) {
    let mut l = Layers::default();
    for case in cases {
        trace.span("probe.case", |trace| {
            probe_case(case, trace, tally, &mut l, unreached)
        });
    }
    let (provenance_s, _) = trace.span("stats.provenance", |_| {
        median_time(PROBE_REPS, Provenance::capture)
    });
    // A fold from 0.0, not `sum`: the empty f64 sum is -0.0.
    let total = |name| trace.durations(name).iter().fold(0.0, |a, b| a + b);
    let (kernel_run_s, classes_run_s) = (total("kernel.run"), total("classes.run"));
    let run_s = total("engine.run") + kernel_run_s + classes_run_s;
    m.set("workloads.check_s", l.check_s, "s");
    m.set("workloads.jobs", l.jobs as f64, "count");
    m.set("engine.build_s", total("engine.build"), "s");
    m.set("engine.run_s", run_s, "s");
    m.set("engine.slots_covered", l.slots_covered as f64, "count");
    m.set("engine.slots_per_s", l.slots_covered as f64 / run_s, "1/s");
    m.set("sched.gap_skips", l.gap_skips as f64, "count");
    m.set("sched.gap_slots", l.gap_slots as f64, "count");
    m.set(
        "sched.skipped_fraction",
        l.gap_slots as f64 / l.slots_covered.max(1) as f64,
        "ratio",
    );
    m.set("sched.parks", l.parks as f64, "count");
    m.set("sched.peak_parked", l.peak_parked as f64, "count");
    m.set("kernel.run_s", kernel_run_s, "s");
    m.set("classes.run_s", classes_run_s, "s");
    m.set("runner.wall_s", total("runner.batch"), "s");
    m.set("runner.trials", l.runner_trials as f64, "count");
    m.set(
        "runner.trial_p50_us",
        l.trial_us.median().unwrap_or(0.0),
        "us",
    );
    m.set(
        "runner.busy_frac",
        l.runner_busy_s / l.runner_capacity_s,
        "ratio",
    );
    // A snapshot refused as unsupported still leaves a span; with no
    // checkpoint taken the layer was not reached and reads 0.
    let ck_total = |name| if l.ck_bytes > 0 { total(name) } else { 0.0 };
    m.set(
        "checkpoint.snapshot_s",
        ck_total("checkpoint.snapshot"),
        "s",
    );
    m.set("checkpoint.restore_s", total("checkpoint.restore"), "s");
    m.set("checkpoint.json_s", total("checkpoint.json"), "s");
    m.set("checkpoint.bytes", l.ck_bytes as f64, "bytes");
    m.set("stats.provenance_s", provenance_s, "s");
    m.set("stats.cache_key_s", l.cache_key_s, "s");
    if !cases
        .iter()
        .any(|c| c.spec.fidelity == FidelitySpec::Vectorized)
    {
        unreached.push("kernel.run_s (no Vectorized spec)".into());
    }
    if !cases
        .iter()
        .any(|c| c.spec.fidelity == FidelitySpec::Cohort)
    {
        unreached.push("classes.run_s (no Cohort spec)".into());
    }
}

fn probe_case(
    case: &Case,
    trace: &mut Trace,
    tally: &mut Tally,
    l: &mut Layers,
    unreached: &mut Vec<String>,
) {
    // dcr-workloads through runspec::check.
    let (check_s, instance) = trace.span("workloads.check", |_| {
        median_time(PROBE_REPS, || runspec::check(&case.spec))
    });
    l.check_s += check_s;
    let Some(instance) = tally.attempt(case.name, instance) else {
        return;
    };
    l.jobs += instance.jobs.len() as u64;
    let spec = &case.spec;
    let engine_for = |seed| build_engine(spec, &instance, seed);

    // dcr-sim::engine: trial 0 replayed through the public engine API.
    // The run's span is named after the tier that does the work.
    let seed0 = trial_seed(&case.spec, 0);
    let mut engine = trace.span("engine.build", |_| engine_for(seed0));
    let run_span = match case.spec.fidelity {
        FidelitySpec::Exact => "engine.run",
        FidelitySpec::Cohort => "classes.run",
        FidelitySpec::Vectorized => "kernel.run",
    };
    let slots_before = slots_executed_total();
    let report = trace.span(run_span, |_| engine.run());
    let executed = slots_executed_total() - slots_before;
    l.slots_covered += report.slots_run;
    tally.check(executed == report.slots_run, || {
        format!(
            "{}: engine executed {executed} slots, report says {}",
            case.name, report.slots_run
        )
    });

    // The replay must be the program's own trial 0.
    let mut one = case.spec.clone();
    one.trials = 1;
    let program = tally.attempt(case.name, runspec::run_spec(&one));
    if let Some(out) = program {
        let rate = success_rate(&out.report);
        tally.check(rate == Some(report.success_fraction()), || {
            format!(
                "{}: replayed trial 0 success {} != run_spec trial 0 {rate:?}",
                case.name,
                report.success_fraction()
            )
        });
    }

    // dcr-sim::sched counters of the replay.
    let s = report.sched_stats;
    l.gap_skips += s.gap_skips;
    l.gap_slots += s.gap_slots;
    l.parks += s.parks;
    l.peak_parked = l.peak_parked.max(s.peak_parked);

    // dcr-sim::runner: one batch of the spec's trials, each trial timed
    // on its worker thread.
    let batch = trace.span("runner.batch", |_| {
        run_trials_ctl(
            case.spec.trials,
            case.spec.seed,
            |_, seed| {
                let t = Instant::now();
                let r = engine_for(seed).run();
                (secs(t), r.successes())
            },
            |_, _| {},
            &CancelToken::new(),
        )
    });
    let wall = trace
        .durations("runner.batch")
        .last()
        .copied()
        .unwrap_or(0.0);
    if let Some((outcomes, stats)) = tally.attempt(case.name, batch) {
        let workers = configured_workers(case.spec.trials) as f64;
        l.runner_trials += stats.trials;
        for o in &outcomes {
            l.trial_us.push(o.value.0 * 1e6);
            l.runner_busy_s += o.value.0;
        }
        l.runner_capacity_s += wall * workers;
        tally.check(
            outcomes.first().map(|o| o.value.1) == Some(report.successes()),
            || format!("{}: runner trial 0 differs from the replay", case.name),
        );
    }

    // dcr-sim::checkpoint: snapshot mid-run, JSON, restore, finish.
    let mut paused = engine_for(seed0);
    paused.run_to(report.slots_run / 2);
    let ck = trace.span("checkpoint.snapshot", |_| paused.snapshot());
    match ck {
        Ok(ck) => {
            let json = trace.span("checkpoint.json", |_| serde_json::to_string(&ck));
            if let Some(json) = tally.attempt(case.name, json) {
                l.ck_bytes += json.len() as u64;
            }
            let mut restored = engine_for(seed0);
            let ok = trace.span("checkpoint.restore", |_| restored.restore(&ck));
            if tally.attempt(case.name, ok).is_some() {
                let resumed = restored.finish();
                tally.check(resumed.outcomes() == report.outcomes(), || {
                    format!(
                        "{}: restored run differs from the uninterrupted one",
                        case.name
                    )
                });
            }
        }
        Err(CheckpointError::Unsupported(what)) => {
            unreached.push(format!("checkpoint.* on {}: {what}", case.name));
        }
        Err(e) => {
            tally.check(false, || format!("{}: snapshot failed: {e}", case.name));
        }
    }

    // dcr-stats: the content hash behind every cache key.
    let (key_s, _) = trace.span("stats.cache_key", |_| {
        median_time(PROBE_REPS, || runspec::cache_key(&case.spec, "perfbench"))
    });
    l.cache_key_s += key_s;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The runner's trial counter and the engine's slot counter are
    /// process-wide: tests that run trials take turns, so each sees only
    /// its own.
    static RUNNER: Mutex<()> = Mutex::new(());

    pub(crate) fn runner_turn() -> std::sync::MutexGuard<'static, ()> {
        dcr_telemetry::install();
        RUNNER.lock().unwrap_or_else(|e| e.into_inner())
    }

    const TINY: Template = Template {
        case: "server-aloha",
        json: r#"{"protocol": {"Aloha": {"p": 0.05}},
            "workload": {"Staggered": {"n": 32, "stride": 16, "w": 256}},
            "fidelity": "Exact", "scheduling": "EventDriven", "adversary": null,
            "probe": null, "max_slots": 100000, "seed": {seed}, "trials": 4}"#,
    };

    #[test]
    fn failed_checks_count_and_the_run_goes_on() {
        let _turn = runner_turn();
        let mut tally = Tally::new();
        let mut case = Case::setup(&TINY, 5).expect("valid spec");
        let mut lp_trials = 0;
        for _ in 0..2 {
            lp_trials += run_op(&mut case, &mut Trace::off(), &mut tally).1;
        }
        assert_eq!(lp_trials, 8);
        assert_eq!(tally.failed, 0, "{:?}", tally.messages);

        // A reference from "other code" and an impossible band: both
        // checks fail, are counted, and the operation still completes.
        case.reference = Some("{}".into());
        case.band = (2.0, 3.0);
        let before = tally.attempted;
        let (secs, trials) = run_op(&mut case, &mut Trace::off(), &mut tally);
        assert!(secs > 0.0 && trials == 4);
        assert_eq!(tally.failed, 2, "{:?}", tally.messages);
        assert_eq!(tally.attempted, before + 4);
        assert!(tally.messages[0].contains("deterministic_view differs"));
        assert!(tally.messages[1].contains("outside reference band"));
    }

    #[test]
    fn invalid_specs_fail_setup() {
        let bad = Template {
            case: "server-aloha",
            json: r#"{"protocol": "Punctual", "seed": {seed}}"#,
        };
        assert!(Case::setup(&bad, 1).is_err());
    }

    #[test]
    fn replay_matches_the_program() {
        let _turn = runner_turn();
        let case = Case::setup(&TINY, 9).expect("valid spec");
        let mut tally = Tally::new();
        let mut m = MetricTable::new();
        let mut unreached = Vec::new();
        probe_layers(
            &[&case],
            &mut Trace::on(),
            &mut tally,
            &mut m,
            &mut unreached,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.messages);
        assert!(m.get("checkpoint.bytes").is_some_and(|b| b > 0.0));
        // Layer times come from the spans.
        for timed in [
            "engine.build_s",
            "engine.run_s",
            "checkpoint.snapshot_s",
            "runner.wall_s",
        ] {
            assert!(m.get(timed).is_some_and(|t| t > 0.0), "{timed}");
        }
        let unreached = m.get("kernel.run_s").expect("reported");
        assert!(unreached == 0.0 && unreached.is_sign_positive());
        assert_eq!(m.get("runner.trials"), Some(4.0));
        assert_eq!(m.get("workloads.jobs"), Some(32.0));
    }
}
