//! Statistical equivalence of aggregate simulation and the per-slot law.
//!
//! Two kinds of claim live here, both distributional rather than
//! bit-exact:
//!
//! * **ALOHA ([`FixedProbability`])** draws the geometric gap to its next
//!   transmission instead of one Bernoulli(p) coin per slot. That changes
//!   the realization, not the law, so under [`Fidelity::Cohort`] (where
//!   ALOHA takes the exact path) its success rate must match the per-slot
//!   reference [`BernoulliAloha`]: the Wilson confidence intervals must
//!   overlap tightly.
//! * **ALIGNED and PUNCTUAL** run as phase-synchronized classes under
//!   [`Fidelity::Cohort`], one binomial draw per class per slot. A class
//!   shares one fate, so their success laws are compared cluster-robustly
//!   at the trial level against the exact path.
//!
//! One-shot UNIFORM (k = 1) is absent here on purpose: cohort fidelity
//! runs it on the vectorized kernel's calendar, which is bit-identical to
//! the exact path (`tests/kernel_differential.rs`).

mod testkit;

use contention_deadlines::baselines::FixedProbability;
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol,
};
use contention_deadlines::sim::engine::{Engine, EngineConfig, Fidelity};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::probe::{ProbeEvent, ProbeSpec, SinkSpec};
use testkit::{
    assert_success_law_match, assert_wilson_overlap, jammers, success_proportion, BernoulliAloha,
};

#[test]
fn aloha_cohort_matches_exact_tightly() {
    // n jobs at p = 1/n (contention 1) over 4 windows' worth of slots:
    // enough contention that collisions are common, enough slack that
    // most jobs deliver. Same per-slot law ⇒ the 95% intervals themselves
    // must overlap.
    let n = 48u32;
    let p = 1.0 / f64::from(n);
    let exact = success_proportion(Fidelity::Exact, 300, 1001, n, 256, |_| {
        Box::new(BernoulliAloha::new(p))
    });
    let cohort = success_proportion(Fidelity::Cohort, 300, 2002, n, 256, |_| {
        Box::new(FixedProbability::new(p))
    });
    assert_wilson_overlap("aloha", exact, cohort, 1.959_963_985);
}

#[test]
fn aloha_cohort_matches_exact_under_heavy_contention() {
    // Contention 4: most slots are collisions and deliveries are rare, so
    // a gap chain that drifted from the per-slot law would show. Still the
    // same distribution; allow z = 3 for the rarer-event proportion.
    let n = 64u32;
    let p = 4.0 / f64::from(n);
    let exact = success_proportion(Fidelity::Exact, 250, 3003, n, 192, |_| {
        Box::new(BernoulliAloha::new(p))
    });
    let cohort = success_proportion(Fidelity::Cohort, 250, 4004, n, 192, |_| {
        Box::new(FixedProbability::new(p))
    });
    assert_wilson_overlap("aloha-heavy", exact, cohort, 3.0);
}

#[test]
fn aligned_aggregate_matches_exact_across_jammers() {
    // The ALIGNED class driver replays the shared schedule once per class
    // and draws one binomial per slot; the success law must match the exact
    // path in every adversary regime, including the data-jammer cells that
    // exercise the jammed-broadcast-winner exclusion rule. The RNG domains
    // differ (class stream vs per-job streams), so the claim is
    // distributional — and because one bad size estimate fails a whole
    // class at once, the comparison must be cluster-robust (trial-level
    // means, not pooled job-level Wilson intervals).
    let params = AlignedParams::new(1, 2, 9);
    for (cell, (name, jammer)) in jammers().into_iter().enumerate() {
        let base = 20_000 + 100 * cell as u64;
        assert_success_law_match(
            &format!("aligned-{name}"),
            &EngineConfig::aligned(),
            &EngineConfig::aligned().cohort(),
            jammer.as_ref(),
            60,
            base,
            24,
            512,
            |_| Box::new(AlignedProtocol::new(params)),
        );
    }
}

#[test]
fn punctual_aggregate_matches_exact_across_jammers() {
    // PUNCTUAL's aggregate advances the duty-masked group machine once per
    // class and materializes only at lone wins, elections, and anarchist
    // conversions; the end-to-end success law must track the exact path
    // under every adversary, including beacon-killing and claim-killing
    // jammers. A whole class shares one leader/anarchy fate per trial, so
    // the comparison is cluster-robust at the trial level.
    for (cell, (name, jammer)) in jammers().into_iter().enumerate() {
        let base = 30_000 + 100 * cell as u64;
        assert_success_law_match(
            &format!("punctual-{name}"),
            &EngineConfig::default(),
            &EngineConfig::default().cohort(),
            jammer.as_ref(),
            40,
            base,
            6,
            1 << 13,
            |_| Box::new(PunctualProtocol::new(PunctualParams::laptop())),
        );
    }
}

#[test]
fn aggregate_classes_actually_engage() {
    // Canary against the equivalence grids silently passing because cohort
    // mode fell back to per-job execution: class drivers stamp their probe
    // records with no job id, so at least one job-less record must appear
    // for each protocol under cohort fidelity.
    let probe = || ProbeSpec::new().with(SinkSpec::Events);

    let mut e = Engine::new(EngineConfig::aligned().cohort().with_probe(probe()), 5);
    for i in 0..8u32 {
        e.add_job(
            JobSpec::new(i, 0, 512),
            Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 9))),
        );
    }
    let r = e.run();
    let events = r.probes.as_ref().unwrap().events().unwrap();
    assert!(
        events
            .iter()
            .any(|rec| rec.job.is_none() && matches!(rec.event, ProbeEvent::SizeEstimate { .. })),
        "aligned class driver never engaged"
    );

    let mut found = false;
    for seed in 0..10u64 {
        let mut e = Engine::new(EngineConfig::default().cohort().with_probe(probe()), seed);
        for i in 0..6u32 {
            e.add_job(
                JobSpec::new(i, 0, 1 << 13),
                Box::new(PunctualProtocol::new(PunctualParams::laptop())),
            );
        }
        let r = e.run();
        let events = r.probes.as_ref().unwrap().events().unwrap();
        if events
            .iter()
            .any(|rec| rec.job.is_none() && matches!(rec.event, ProbeEvent::LeaderElected))
        {
            found = true;
            break;
        }
    }
    assert!(found, "punctual class driver never elected a leader");
}

#[test]
fn aggregate_contention_accounting_matches_exact() {
    // Satellite: `SimReport.contention` must agree between the exact and
    // aggregate paths — the driver declares `m·p` on sampled steps and `m`
    // on deterministic ones, mirroring the per-job `tx_probability` sum.
    // Dense scheduling plus tracing on both sides (the engine only tallies
    // contention while a trace sink records), and a clean channel so both
    // paths see identical feedback histories.
    let run = |cfg: EngineConfig| {
        let mut e = Engine::new(cfg.dense().with_trace(), 11);
        for i in 0..16u32 {
            e.add_job(
                JobSpec::new(i, 0, 512),
                Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 9))),
            );
        }
        e.run()
    };
    let exact = run(EngineConfig::aligned());
    let agg = run(EngineConfig::aligned().cohort());
    assert!(
        exact.contention_stats.measured_slots > 0 && agg.contention_stats.measured_slots > 0,
        "contention must be measured on both paths"
    );
    let me = exact.contention_stats.mean().unwrap();
    let ma = agg.contention_stats.mean().unwrap();
    // Same declared-probability law, different coins: means agree within
    // 20% relative (both paths measure hundreds of slots).
    assert!(
        (me - ma).abs() <= 0.2 * me.max(ma),
        "mean declared contention diverges: exact {me} vs aggregate {ma}"
    );
}

#[test]
fn cohort_mode_is_deterministic_per_seed() {
    // Same seed ⇒ same class draws ⇒ identical outcomes, independent of
    // thread scheduling (class keys are derived from the seed, not shared).
    let run = || {
        let mut e = Engine::new(EngineConfig::default().cohort(), 77);
        for i in 0..40u32 {
            e.add_job(
                JobSpec::new(i, 0, 1 << 12),
                Box::new(PunctualProtocol::new(PunctualParams::laptop())),
            );
        }
        e.run().outcomes().to_vec()
    };
    assert_eq!(run(), run());
}
