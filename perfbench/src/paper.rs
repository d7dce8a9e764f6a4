//! paper-quick: the reproduction's own job. Every experiment except e20,
//! in quick mode at the suite's fixed seed, in an order drawn from the
//! benchmark seed; every claim check must pass. The operation is one pass
//! of the suite, which is what a researcher waits for; the experiments are
//! its parts. (The median experiment is small and mostly process spawns
//! for its provenance stamp, so its latency swings with the machine's
//! load far more than the pass does.)

use crate::measure::{secs, MetricTable, Samples, Tally};
use crate::specs::{self, Case, Template};
use crate::trace::Trace;
use crate::{mix, Loop, Workload};
use dcr_bench::{run_experiment_report, ExpConfig, ALL_EXPERIMENTS};
use dcr_sim::engine::slots_executed_total;
use dcr_stats::Provenance;
use std::collections::BTreeMap;
use std::time::Instant;

/// Left out: its million-job regime alone takes twice the rest of the
/// quick suite, and aggregate-1e5 covers it.
const EXCLUDED: &str = "e20";

/// The experiment ids paper-quick runs, in presentation order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    ALL_EXPERIMENTS.iter().copied().filter(|&id| id != EXCLUDED)
}

/// The layer probes' stand-in for the suite's many tiny trials: one
/// quick-mode cell of UNIFORM on a small batch.
const PROBE: Template = Template {
    case: "paper-probe",
    json: r#"{"protocol": {"Uniform": {"attempts": 1}},
        "workload": {"Batch": {"n": 64, "w": 512}},
        "fidelity": "Exact", "scheduling": "EventDriven", "adversary": null, "probe": null,
        "max_slots": null, "seed": {seed}, "trials": 60}"#,
};

/// One experiment's traced latencies, and what it did in the last pass.
#[derive(Default)]
struct PerExperiment {
    traced_secs: Samples,
    engine_slots: u64,
    reported_slots: u64,
}

pub struct PaperQuick {
    seed: u64,
    order: Vec<&'static str>,
    cfg: ExpConfig,
    per_id: BTreeMap<&'static str, PerExperiment>,
    report_bytes: u64,
}

impl PaperQuick {
    pub fn setup(seed: u64) -> Result<Self, String> {
        // Fisher-Yates from the benchmark seed; the experiments' own seed
        // stays the suite default, at which every claim check holds.
        let mut order: Vec<_> = ids().collect();
        for i in (1..order.len()).rev() {
            let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        // The suite header the experiments CLI stamps on its summary.
        let workers = dcr_sim::runner::configured_workers(u64::MAX) as u64;
        let header = Provenance::capture_with_threads(workers);
        if header.threads != workers {
            return Err("provenance capture lost the thread count".into());
        }
        Ok(Self {
            seed,
            order,
            cfg: ExpConfig::quick(),
            per_id: BTreeMap::new(),
            report_bytes: 0,
        })
    }
}

impl Workload for PaperQuick {
    fn round_s(&self) -> f64 {
        5.0
    }

    fn round(&mut self, trace: &mut Trace, tally: &mut Tally, lp: &mut Loop) {
        let (mut bytes, mut pass_secs) = (0, 0.0);
        let pass_trials = specs::trials_completed();
        for &id in &self.order {
            let slots_before = slots_executed_total();
            let t = Instant::now();
            let out = trace.span("experiments.run", |_| run_experiment_report(id, &self.cfg));
            let latency = secs(t);
            let engine_slots = slots_executed_total() - slots_before;
            lp.part(id, latency);
            pass_secs += latency;
            let Some(out) = out else {
                tally.check(false, || format!("{id}: unknown experiment id"));
                continue;
            };
            let failing: Vec<_> = out
                .report
                .checks
                .iter()
                .filter(|c| !c.passed)
                .map(|c| c.name.as_str())
                .collect();
            tally.check(failing.is_empty(), || {
                format!("{id}: claim checks failed: {}", failing.join(", "))
            });
            let e = self.per_id.entry(id).or_default();
            if trace.is_on() {
                e.traced_secs.push(latency);
            }
            e.engine_slots = engine_slots;
            e.reported_slots = out.report.timing.slots_simulated;
            bytes += serde_json::to_string(&out.report)
                .expect("reports serialize")
                .len() as u64;
        }
        self.report_bytes = bytes;
        // The pass is its experiments' time, without the checks between.
        lp.whole(pass_secs, specs::trials_completed() - pass_trials);
    }

    fn layers(
        &mut self,
        trace: &mut Trace,
        tally: &mut Tally,
        m: &mut MetricTable,
        unreached: &mut Vec<String>,
    ) {
        for (id, e) in &self.per_id {
            m.set(
                format!("experiments.{id}_s"),
                e.traced_secs.median().unwrap_or(0.0),
                "s",
            );
            m.set(
                format!("experiments.{id}_engine_slots"),
                e.engine_slots as f64,
                "count",
            );
            m.set(
                format!("experiments.{id}_reported_slots"),
                e.reported_slots as f64,
                "count",
            );
        }
        m.set("stats.report_bytes", self.report_bytes as f64, "bytes");
        match Case::setup(&PROBE, mix(self.seed, 0)) {
            Ok(case) => specs::probe_layers(&[&case], trace, tally, m, unreached),
            Err(e) => {
                tally.check(false, || e);
            }
        }
    }

    fn describe(&self, lp: &Loop, out: &mut Vec<String>) {
        out.push(format!(
            "suite_s (one paper-quick pass): {:.4} s with each experiment at its median; wall {}",
            lp.round_of_medians(),
            lp.rounds.describe("s")
        ));
        out.push("engine-slot accounting (last pass): id, engine slots executed, slots the report claims, claimed/executed".into());
        for (id, e) in &self.per_id {
            let ratio = if e.engine_slots > 0 {
                format!("{:.2}x", e.reported_slots as f64 / e.engine_slots as f64)
            } else if e.reported_slots > 0 {
                "engine ran 0".to_string()
            } else {
                "-".to_string()
            };
            out.push(format!(
                "  {id:<5} {:>14} {:>14} {ratio}",
                e.engine_slots, e.reported_slots
            ));
        }
    }
}
