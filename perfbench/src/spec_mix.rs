//! The two `runspec` workloads: punctual-poisson (long exact PUNCTUAL
//! trials on Poisson arrivals) and aggregate-1e5 (10^5-job batches under
//! the Cohort and Vectorized tiers).

use crate::measure::{MetricTable, Tally};
use crate::specs::{self, Case, Template};
use crate::trace::Trace;
use crate::{mix, Loop, Workload};

/// PUNCTUAL on Poisson arrivals: about 2.7k jobs and 145k slots a trial.
const PUNCTUAL_POISSON: Template = Template {
    case: "punctual-poisson",
    json: r#"{"protocol": "Punctual",
        "workload": {"Poisson": {"rate": 0.02, "horizon": 131072, "windows": [4096, 16384]}},
        "fidelity": "Exact", "scheduling": "EventDriven", "adversary": null, "probe": null,
        "max_slots": null, "seed": {seed}, "trials": 2}"#,
};

/// Distinct seeds a punctual-poisson round cycles through.
const POISSON_SEEDS: u64 = 5;

/// 10^5-job batches: ALIGNED (w = 2^20) and PUNCTUAL (w = 2^23) under
/// Cohort, UNIFORM (w = 2^19) under Vectorized. ALIGNED uses lambda = 2,
/// tau = 4: with lambda = 1, tau = 2 its shared size estimate fails for
/// some seeds, and both its success rate and its run time then vary up to
/// twofold with the seed.
const AGGREGATE: [Template; 3] = [
    Template {
        case: "aggregate-aligned",
        json: r#"{"protocol": {"Aligned": {"lambda": 2, "tau": 4, "min_class": 20}},
            "workload": {"Batch": {"n": 100000, "w": 1048576}},
            "fidelity": "Cohort", "scheduling": "EventDriven", "adversary": null, "probe": null,
            "max_slots": null, "seed": {seed}, "trials": 2}"#,
    },
    Template {
        case: "aggregate-punctual",
        json: r#"{"protocol": "Punctual",
            "workload": {"Batch": {"n": 100000, "w": 8388608}},
            "fidelity": "Cohort", "scheduling": "EventDriven", "adversary": null, "probe": null,
            "max_slots": null, "seed": {seed}, "trials": 2}"#,
    },
    Template {
        case: "aggregate-uniform",
        json: r#"{"protocol": {"Uniform": {"attempts": 1}},
            "workload": {"Batch": {"n": 100000, "w": 524288}},
            "fidelity": "Vectorized", "scheduling": "EventDriven", "adversary": null,
            "probe": null, "max_slots": null, "seed": {seed}, "trials": 2}"#,
    },
];

/// Spec seeds per template. Each round takes the next seed of every
/// template, so a run spreads over several seeds (run time varies with
/// the seed) and still repeats every seed, which the determinism check
/// needs.
const AGGREGATE_SEEDS: u64 = 7;

/// A `runspec` workload: cases grouped by template; a round runs
/// `per_round` consecutive cases of every group.
pub struct SpecMix {
    groups: Vec<Vec<Case>>,
    per_round: usize,
    next: usize,
    round_s: f64,
}

impl SpecMix {
    /// punctual-poisson: every seed once a round.
    pub fn punctual_poisson(seed: u64) -> Result<Self, String> {
        let n = POISSON_SEEDS as usize;
        Self::setup(&[PUNCTUAL_POISSON], POISSON_SEEDS, seed, n, 1.2)
    }

    /// aggregate-1e5: the next seed of every batch a round.
    pub fn aggregate(seed: u64) -> Result<Self, String> {
        Self::setup(&AGGREGATE, AGGREGATE_SEEDS, seed, 1, 1.4)
    }

    fn setup(
        templates: &[Template],
        seeds: u64,
        seed: u64,
        per_round: usize,
        round_s: f64,
    ) -> Result<Self, String> {
        let groups = templates
            .iter()
            .zip(0..)
            .map(|(t, g)| {
                (0..seeds)
                    .map(|i| Case::setup(t, mix(seed, g * seeds + i)))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            groups,
            per_round,
            next: 0,
            round_s,
        })
    }
}

impl Workload for SpecMix {
    fn round_s(&self) -> f64 {
        self.round_s
    }

    fn round(&mut self, trace: &mut Trace, tally: &mut Tally, lp: &mut Loop) {
        for _ in 0..self.per_round {
            for group in &mut self.groups {
                let i = self.next % group.len();
                let case = &mut group[i];
                let (secs, trials) = specs::run_op(case, trace, tally);
                lp.op(case.name, secs, trials);
            }
            self.next += 1;
        }
    }

    /// Probe the layers on the first case of every group.
    fn layers(
        &mut self,
        trace: &mut Trace,
        tally: &mut Tally,
        m: &mut MetricTable,
        unreached: &mut Vec<String>,
    ) {
        let firsts: Vec<&Case> = self.groups.iter().map(|g| &g[0]).collect();
        // The size of one serialized report, as a cache or client sees it.
        let out = dcr_bench::runspec::run_spec(&firsts[0].spec);
        if let Some(out) = tally.attempt("report", out) {
            let json = serde_json::to_string(&out.report).expect("reports serialize");
            m.set("stats.report_bytes", json.len() as f64, "bytes");
        }
        specs::probe_layers(&firsts, trace, tally, m, unreached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_parses_checks_and_has_a_band() {
        let p = SpecMix::punctual_poisson(1).expect("punctual-poisson specs");
        assert_eq!(p.groups.len(), 1);
        assert_eq!(p.groups[0].len(), POISSON_SEEDS as usize);
        let a = SpecMix::aggregate(1).expect("aggregate-1e5 specs");
        assert_eq!(a.groups.len(), AGGREGATE.len());
        // Seeds differ across groups and within a group.
        let seeds: std::collections::BTreeSet<u64> =
            a.groups.iter().flatten().map(|c| c.spec.seed).collect();
        assert_eq!(seeds.len(), AGGREGATE.len() * AGGREGATE_SEEDS as usize);
    }
}
