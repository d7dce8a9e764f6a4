//! Differential testing of the vectorized slot kernel.
//!
//! [`Fidelity::Vectorized`] routes kernel-eligible jobs (those exposing a
//! [`CohortTx::OneShot`] profile) through a calendar of counter-based
//! draws instead of per-job protocol dispatch. Unlike class aggregation,
//! the claim is **bit identity**: the kernel evaluates the exact same
//! `(job_key, slot, phase)` position the exact path's `gen_range` call
//! would, so outcomes, channel counts, per-job access counts, slots_run,
//! and trace tallies must all match the exact engine bit-for-bit — per
//! seed, per adversary, per scheduling mode.
//!
//! The grid: one-shot UNIFORM alone and mixed kernel + exact-path
//! populations (hinted ALOHA included), each crossed with the full jammer
//! grid and both scheduling modes, plus a proptest over random
//! populations. One-shot UNIFORM is checked under [`Fidelity::Cohort`]
//! too, which routes it through the same kernel calendar and so owes the
//! same bit identity. `declared_contention` is excluded as everywhere
//! else (parked and kernel-managed jobs are not polled for diagnostics).
//!
//! [`Fidelity::Vectorized`]: contention_deadlines::sim::engine::Fidelity::Vectorized
//! [`Fidelity::Cohort`]: contention_deadlines::sim::engine::Fidelity::Cohort
//! [`CohortTx::OneShot`]: contention_deadlines::sim::engine::CohortTx::OneShot

mod testkit;

use contention_deadlines::baselines::{FixedProbability, Sawtooth};
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol, Uniform,
};
use contention_deadlines::sim::engine::{Engine, EngineConfig, Fidelity};
use contention_deadlines::sim::job::JobSpec;
use proptest::prelude::*;
use testkit::{assert_config_equiv, jammer_pick, jammers, staggered};

/// Exact vs `fidelity` under both scheduling modes, full observables.
fn assert_kernel_equiv<F>(label: &str, fidelity: Fidelity, seed: u64, jammer_name: &str, setup: F)
where
    F: Fn(&mut Engine),
{
    let grid = jammers();
    let (jname, jammer) = grid
        .iter()
        .find(|(n, _)| *n == jammer_name)
        .expect("jammer name in grid");
    let fast = EngineConfig {
        fidelity,
        ..EngineConfig::default()
    };
    assert_config_equiv(
        &format!("{label} {fidelity:?} jam={jname} event"),
        EngineConfig::default(),
        fast.clone(),
        jammer.as_ref(),
        seed,
        &setup,
    );
    assert_config_equiv(
        &format!("{label} {fidelity:?} jam={jname} dense"),
        EngineConfig::default().dense(),
        fast.dense(),
        jammer.as_ref(),
        seed,
        &setup,
    );
}

#[test]
fn uniform_oneshot_matches_exact() {
    // Cohort fidelity sends one-shot jobs to the same kernel calendar, so
    // it owes exact the same bit identity as vectorized does.
    for fidelity in [Fidelity::Vectorized, Fidelity::Cohort] {
        for (jname, _) in jammers() {
            for seed in 0..4u64 {
                assert_kernel_equiv("uniform-oneshot", fidelity, seed, jname, |e| {
                    for spec in staggered(16, 53, 1 << 9) {
                        e.add_job(spec, Box::new(Uniform::single()));
                    }
                });
            }
        }
    }
}

#[test]
fn mixed_kernel_and_exact_population_matches_exact() {
    // Kernel-managed jobs sharing the channel with exact-path protocols
    // (hinted ALOHA, and Uniform k=2, which is one-shot-ineligible): collisions,
    // single-transmitter resolution, and feedback fan-out must all see
    // the same channel in both modes.
    for (jname, _) in jammers() {
        for seed in 0..4u64 {
            assert_kernel_equiv("mixed", Fidelity::Vectorized, seed, jname, |e| {
                let w = 1u64 << 10;
                let mut id = 0u32;
                let mut add =
                    |e: &mut Engine,
                     r: u64,
                     p: Box<dyn contention_deadlines::sim::engine::Protocol>| {
                        e.add_job(JobSpec::new(id, r, r + w), p);
                        id += 1;
                    };
                add(e, 0, Box::new(FixedProbability::new(0.03)));
                add(e, 5, Box::new(Uniform::single()));
                add(e, 13, Box::new(Sawtooth::new()));
                add(e, 13, Box::new(Uniform::new(2)));
                add(e, 40, Box::new(FixedProbability::new(0.08)));
                add(e, 64, Box::new(Uniform::single()));
                add(e, 100, Box::new(FixedProbability::new(0.03)));
            });
        }
    }
}

#[test]
fn class_profile_protocols_fall_back_to_exact_under_vectorized() {
    // `CohortTx::Class` marks a protocol as aggregate-capable under
    // *cohort* fidelity only; the vectorized kernel has no class lanes, so
    // the engine must run these jobs on the exact per-job path and stay
    // bit-identical to the plain exact engine. ALIGNED additionally sharing
    // the channel with one-shot UNIFORM checks that the class fallback
    // doesn't disturb kernel feedback fan-out.
    let grid = jammers();
    for (jname, jammer) in &grid {
        for seed in 0..3u64 {
            assert_config_equiv(
                &format!("aligned-class-fallback jam={jname}"),
                EngineConfig::aligned(),
                EngineConfig::aligned().vectorized(),
                jammer.as_ref(),
                seed,
                |e| {
                    for i in 0..12u32 {
                        e.add_job(
                            JobSpec::new(i, 0, 512),
                            Box::new(AlignedProtocol::new(AlignedParams::new(1, 2, 9))),
                        );
                    }
                    for i in 12..24u32 {
                        e.add_job(JobSpec::new(i, 0, 512), Box::new(Uniform::single()));
                    }
                },
            );
            assert_config_equiv(
                &format!("punctual-class-fallback jam={jname}"),
                EngineConfig::default(),
                EngineConfig::default().vectorized(),
                jammer.as_ref(),
                seed,
                |e| {
                    for i in 0..5u32 {
                        e.add_job(
                            JobSpec::new(i, 0, 1 << 12),
                            Box::new(PunctualProtocol::new(PunctualParams::laptop())),
                        );
                    }
                },
            );
        }
    }
}

#[test]
fn kernel_engages_for_eligible_jobs() {
    // Guard against silently falling back to the exact path: a vectorized
    // run must *work* even though its eligible protocols are never polled.
    // A protocol that panics on any callback after construction proves the
    // kernel actually owns the job.
    use contention_deadlines::sim::engine::{Action, CohortTx, JobCtx, Protocol};
    use rand::RngCore;

    struct MustVectorize;
    impl Protocol for MustVectorize {
        fn on_activate(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) {
            panic!("kernel-eligible job was activated on the exact path");
        }
        fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            panic!("kernel-eligible job was polled");
        }
        fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
            Some(CohortTx::OneShot)
        }
    }

    let mut e = Engine::new(EngineConfig::default().vectorized(), 11);
    for i in 0..40u32 {
        e.add_job(JobSpec::new(i, 0, 400), Box::new(MustVectorize));
    }
    let r = e.run();
    assert!(r.successes() > 0, "kernel produced no deliveries");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(testkit::cases(24)))]

    /// Random populations mixing kernel-eligible and exact-path
    /// protocols, random jammers, both scheduling modes: vectorized must
    /// stay bit-identical to exact everywhere.
    #[test]
    fn random_population_kernel_equivalence(
        seed in 0u64..1_000_000,
        n in 1usize..12,
        log_w in 6u32..11,
        jam_kind in 0usize..8,
        dense_pick in 0usize..2,
        proto_picks in proptest::collection::vec(0usize..6, 12..13),
        releases in proptest::collection::vec(0u64..256, 12..13),
    ) {
        let w = 1u64 << log_w;
        let jammer = jammer_pick(jam_kind);
        let base = if dense_pick == 1 {
            EngineConfig::default().dense()
        } else {
            EngineConfig::default()
        };
        assert_config_equiv(
            "proptest-kernel",
            base.clone(),
            base.vectorized(),
            jammer.as_ref(),
            seed,
            |e| {
                for i in 0..n {
                    let spec = JobSpec::new(i as u32, releases[i], releases[i] + w);
                    e.add_job(spec, testkit::protocol_pick(proto_picks[i]));
                }
            },
        );
    }
}
