//! Event-driven vs dense scheduling equivalence.
//!
//! The wake-hint contract ([`Protocol::next_wake`]) promises that every
//! skipped `act()` call would have returned `Sleep` without drawing
//! randomness or mutating state. If any protocol's hint is wrong — too
//! eager by one slot, blind to a state transition, or misaligned with its
//! RNG draw schedule — the two scheduling modes diverge in outcomes,
//! channel counts, access counts, or trace tallies. This suite pins the
//! equivalence for every protocol in the workspace, across jammer
//! policies, on fixed seed grids and on proptest-generated populations.
//!
//! `declared_contention` is deliberately *not* compared: parked jobs are
//! not polled for their diagnostic `tx_probability`, so the per-slot
//! contention sum legitimately differs between modes.

mod testkit;

use contention_deadlines::baselines::scheduled::scheduled_protocols;
use contention_deadlines::baselines::windowed::{Schedule, WindowedBackoff};
use contention_deadlines::baselines::{BinaryExponentialBackoff, FixedProbability, Sawtooth};
use contention_deadlines::protocols::{
    AlignedParams, AlignedProtocol, PunctualParams, PunctualProtocol, Uniform,
};
use contention_deadlines::sim::engine::{Engine, EngineConfig, Protocol};
use contention_deadlines::sim::jamming::{GilbertElliott, Jammer, ReactiveJammer};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::metrics::SimReport;
use contention_deadlines::workloads::generators::{aligned_classes, batch, poisson, ClassSpec};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use testkit::{assert_config_equiv, jammer_pick, jammers, staggered, BernoulliAloha};

/// Run the same simulation under both scheduling modes and assert every
/// non-diagnostic observable matches bit-for-bit.
fn assert_equiv<F>(label: &str, base: EngineConfig, jammer: Option<&Jammer>, seed: u64, setup: F)
where
    F: Fn(&mut Engine),
{
    assert_config_equiv(label, base.clone(), base.dense(), jammer, seed, setup);
}

#[test]
fn uniform_matches_dense() {
    for attempts in [1usize, 3] {
        for (jname, jammer) in jammers() {
            for seed in 0..8u64 {
                assert_equiv(
                    &format!("uniform k={attempts} jam={jname}"),
                    EngineConfig::default(),
                    jammer.as_ref(),
                    seed,
                    |e| {
                        for spec in staggered(12, 37, 1 << 10) {
                            e.add_job(spec, Box::new(Uniform::new(attempts)));
                        }
                    },
                );
            }
        }
    }
}

#[test]
fn scheduled_slots_match_dense() {
    let jobs: Vec<JobSpec> = batch(16, 64).jobs;
    let protos = scheduled_protocols(&jobs).expect("batch instance is EDF-feasible");
    for (jname, jammer) in jammers() {
        for seed in 0..4u64 {
            assert_equiv(
                &format!("scheduled jam={jname}"),
                EngineConfig::default(),
                jammer.as_ref(),
                seed,
                |e| {
                    for (spec, p) in jobs.iter().zip(&protos) {
                        e.add_job(*spec, Box::new(*p));
                    }
                },
            );
        }
    }
}

#[test]
fn windowed_backoff_matches_dense() {
    let schedules = [
        ("geometric", Schedule::Geometric { base: 2, first: 2 }),
        ("linear", Schedule::Linear { first: 4, step: 4 }),
        ("quadratic", Schedule::Quadratic { first: 2 }),
        ("fixed", Schedule::Fixed { size: 16 }),
    ];
    for (sname, schedule) in schedules {
        for (jname, jammer) in jammers() {
            for seed in 0..4u64 {
                assert_equiv(
                    &format!("windowed {sname} jam={jname}"),
                    EngineConfig::default(),
                    jammer.as_ref(),
                    seed,
                    |e| {
                        for spec in staggered(10, 53, 2048) {
                            e.add_job(spec, Box::new(WindowedBackoff::new(schedule)));
                        }
                    },
                );
            }
        }
    }
}

#[test]
fn sawtooth_matches_dense() {
    for (jname, jammer) in jammers() {
        for seed in 0..6u64 {
            assert_equiv(
                &format!("sawtooth jam={jname}"),
                EngineConfig::default(),
                jammer.as_ref(),
                seed,
                |e| {
                    for spec in staggered(8, 29, 4096) {
                        e.add_job(spec, Box::new(Sawtooth::new()));
                    }
                },
            );
        }
    }
}

#[test]
fn beb_matches_dense() {
    for (jname, jammer) in jammers() {
        for seed in 0..6u64 {
            assert_equiv(
                &format!("beb jam={jname}"),
                EngineConfig::default(),
                jammer.as_ref(),
                seed,
                |e| {
                    for spec in staggered(10, 41, 2048) {
                        e.add_job(spec, Box::new(BinaryExponentialBackoff::new()));
                    }
                },
            );
        }
    }
}

#[test]
fn aloha_matches_dense() {
    // ALOHA sleeps through its geometric gaps: event-driven mode parks it
    // from one transmission to the next, dense mode polls every slot and
    // must see the same transmit slots, down to the vanishing-p job that
    // never transmits at all.
    for (jname, jammer) in jammers() {
        for seed in 0..4u64 {
            assert_equiv(
                &format!("aloha jam={jname}"),
                EngineConfig::default(),
                jammer.as_ref(),
                seed,
                |e| {
                    let mut factory = FixedProbability::per_window(3.0);
                    for spec in staggered(12, 23, 1024) {
                        e.add_job(spec, factory(&spec));
                    }
                    let spec = JobSpec::new(12, 5, 600);
                    e.add_job(spec, Box::new(FixedProbability::new(f64::MIN_POSITIVE)));
                },
            );
        }
    }
}

#[test]
fn hintless_protocol_matches_dense() {
    // A protocol without wake hints (per-slot Bernoulli ALOHA) is polled
    // every slot in event-driven mode too: trivially equivalent, but
    // worth pinning since mixed populations rely on it.
    for seed in 0..4u64 {
        assert_equiv(
            "bernoulli-aloha",
            EngineConfig::default(),
            None,
            seed,
            |e| {
                for spec in staggered(6, 17, 512) {
                    e.add_job(spec, Box::new(BernoulliAloha::new(0.05)));
                }
            },
        );
    }
}

#[test]
fn idle_striking_adversary_disables_gap_skip() {
    use contention_deadlines::sim::trace::SlotOutcome;

    // One lone Uniform job parks until its randomly chosen transmit slot,
    // giving the engine a long all-parked stretch it would love to skip.
    let spec = JobSpec::new(0, 0, 1 << 13);
    let run = |jammer: &Jammer| {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 7);
        e.set_jammer(jammer.clone());
        e.add_job(spec, Box::new(Uniform::single()));
        e.run()
    };
    let live_gap_skipped =
        |r: &SimReport| {
            r.trace.as_ref().unwrap().iter().any(|rec| {
                matches!(rec.outcome, SlotOutcome::SilentGap { .. }) && rec.live_jobs > 0
            })
        };

    // Gilbert–Elliott strikes idle slots: the parked stretch must run slot
    // by slot (no SilentGap while the job is live), the bursts must land
    // on the supposedly idle channel, and the modes must stay bit-exact.
    let ge = Jammer::adaptive(Box::new(GilbertElliott::new(0.3, 0.3)), 1.0);
    let r = run(&ge);
    assert!(
        !live_gap_skipped(&r),
        "engine fast-forwarded past an idle-striking adversary"
    );
    assert!(
        r.counts.jammed > 0,
        "bursty faults never struck the idle channel"
    );
    for seed in 0..6u64 {
        assert_equiv(
            "ge-idle-strike",
            EngineConfig::default(),
            Some(&ge),
            seed,
            |e| {
                e.add_job(spec, Box::new(Uniform::single()));
            },
        );
    }

    // Contrast: the reactive jammer is stateful but never attempts on
    // silence, so the all-parked stretch IS skipped (the latent-bug fix
    // must not over-disable fast-forwarding) and the bulk
    // `on_silent_gap` replay keeps the modes bit-exact anyway.
    let reactive = Jammer::adaptive(Box::new(ReactiveJammer::new(1, 4)), 1.0);
    let r = run(&reactive);
    assert!(
        live_gap_skipped(&r),
        "non-idle-striking adversary should not inhibit fast-forwarding"
    );
    for seed in 0..6u64 {
        assert_equiv(
            "reactive-gap-replay",
            EngineConfig::default(),
            Some(&reactive),
            seed,
            |e| {
                e.add_job(spec, Box::new(Uniform::single()));
            },
        );
    }
}

#[test]
fn aligned_matches_dense() {
    let params = AlignedParams::new(1, 2, 8);
    let instance = aligned_classes(
        &[
            ClassSpec {
                class: 8,
                jobs_per_window: 3,
            },
            ClassSpec {
                class: 10,
                jobs_per_window: 4,
            },
        ],
        1 << 11,
        None,
    );
    for (jname, jammer) in jammers() {
        for seed in 0..4u64 {
            assert_equiv(
                &format!("aligned jam={jname}"),
                EngineConfig::aligned(),
                jammer.as_ref(),
                seed,
                |e| e.add_jobs(&instance.jobs, AlignedProtocol::factory(params)),
            );
        }
    }
}

#[test]
fn punctual_matches_dense() {
    let params = PunctualParams::laptop();
    let jobs = staggered(8, 113, 1 << 13);
    for (jname, jammer) in jammers() {
        for seed in 0..3u64 {
            assert_equiv(
                &format!("punctual jam={jname}"),
                EngineConfig::default(),
                jammer.as_ref(),
                seed,
                |e| e.add_jobs(&jobs, PunctualProtocol::factory(params)),
            );
        }
    }
}

#[test]
fn mixed_population_matches_dense() {
    // Hinting and hintless protocols sharing one channel: parked jobs must
    // keep hearing nothing while polled neighbours transact.
    for (jname, jammer) in jammers() {
        for seed in 0..4u64 {
            assert_equiv(
                &format!("mixed jam={jname}"),
                EngineConfig::default(),
                jammer.as_ref(),
                seed,
                |e| {
                    let w = 1 << 11;
                    let mut id = 0u32;
                    let mut add = |e: &mut Engine, r: u64, p: Box<dyn Protocol>| {
                        e.add_job(JobSpec::new(id, r, r + w), p);
                        id += 1;
                    };
                    add(e, 0, Box::new(Uniform::new(1)));
                    add(e, 13, Box::new(Sawtooth::new()));
                    add(e, 13, Box::new(BinaryExponentialBackoff::new()));
                    add(e, 64, Box::new(FixedProbability::new(0.02)));
                    add(
                        e,
                        77,
                        Box::new(WindowedBackoff::new(Schedule::Geometric {
                            base: 2,
                            first: 2,
                        })),
                    );
                    add(e, 150, Box::new(Uniform::new(3)));
                    add(e, 200, Box::new(Sawtooth::new()));
                    add(e, 96, Box::new(BernoulliAloha::new(0.02)));
                },
            );
        }
    }
}

#[test]
fn poisson_punctual_matches_dense() {
    // Arrival-driven population with idle gaps between bursts: exercises
    // the interaction of idle fast-forward with parked wake slots.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let instance = poisson(0.005, 1 << 13, &[1 << 12, 1 << 13], &mut rng);
    if instance.jobs.is_empty() {
        return;
    }
    let params = PunctualParams::laptop();
    for seed in 0..3u64 {
        assert_equiv(
            "poisson-punctual",
            EngineConfig::default(),
            None,
            seed,
            |e| e.add_jobs(&instance.jobs, PunctualProtocol::factory(params)),
        );
    }
}

/// Run with Chrome-trace + aggregating sinks attached and return both
/// outputs in serialized form.
fn probe_outputs(config: EngineConfig, seed: u64, setup: &dyn Fn(&mut Engine)) -> (String, String) {
    use contention_deadlines::sim::probe::{ProbeSpec, SinkSpec};
    let probe = ProbeSpec::new()
        .with(SinkSpec::ChromeTrace)
        .with(SinkSpec::Aggregate);
    let mut engine = Engine::new(config.with_probe(probe), seed);
    setup(&mut engine);
    let report = engine.run();
    let probes = report.probes.expect("probe configured");
    let chrome = probes.chrome_trace().expect("chrome sink").to_string();
    let agg = serde_json::to_string(probes.aggregate().expect("aggregate sink"))
        .expect("aggregate serializes");
    (chrome, agg)
}

/// Scheduling-mode determinism of the probe sinks: the Chrome trace and
/// the aggregate report must be byte-identical between event-driven and
/// dense runs of the same seed. Scheduling-dependent events (GapSkip,
/// WakeQueueStats) are excluded from the Chrome render by design; every
/// protocol-emitted event must land on the same slot in both modes.
#[test]
fn probe_sinks_byte_identical_across_modes() {
    let params = PunctualParams::laptop();
    let jobs = staggered(6, 113, 1 << 12);
    let setup = |e: &mut Engine| e.add_jobs(&jobs, PunctualProtocol::factory(params));
    for seed in 0..3u64 {
        let (chrome_e, agg_e) = probe_outputs(EngineConfig::default(), seed, &setup);
        let (chrome_d, agg_d) = probe_outputs(EngineConfig::default().dense(), seed, &setup);
        assert_eq!(chrome_e, chrome_d, "punctual chrome diverges (seed {seed})");
        assert_eq!(agg_e, agg_d, "punctual aggregate diverges (seed {seed})");
    }

    let aparams = AlignedParams::new(1, 2, 8);
    let instance = aligned_classes(
        &[
            ClassSpec {
                class: 8,
                jobs_per_window: 3,
            },
            ClassSpec {
                class: 10,
                jobs_per_window: 4,
            },
        ],
        1 << 11,
        None,
    );
    let setup = |e: &mut Engine| e.add_jobs(&instance.jobs, AlignedProtocol::factory(aparams));
    for seed in 0..3u64 {
        let (chrome_e, agg_e) = probe_outputs(EngineConfig::aligned(), seed, &setup);
        let (chrome_d, agg_d) = probe_outputs(EngineConfig::aligned().dense(), seed, &setup);
        assert_eq!(chrome_e, chrome_d, "aligned chrome diverges (seed {seed})");
        assert_eq!(agg_e, agg_d, "aligned aggregate diverges (seed {seed})");
    }
}

/// Cohort-fidelity probe parity: the aggregate class drivers buffer their
/// events locally and only record while the probe bus is attending, so two
/// guarantees must hold on top of the exact-path parity above. First,
/// attending must not perturb the run — outcomes with the event sink
/// attached are bit-identical to the bare run of the same seed. Second,
/// when attended, the serialized event stream (which now includes the
/// driver's job-less `SizeEstimate`/`PhaseEnter`/`LeaderElected` records)
/// must be byte-identical between event-driven and dense scheduling.
#[test]
fn cohort_probe_events_byte_identical_when_attended() {
    use contention_deadlines::sim::probe::{ProbeEvent, ProbeSpec, SinkSpec};

    let event_bytes = |config: EngineConfig, seed: u64, setup: &dyn Fn(&mut Engine)| {
        let probe = ProbeSpec::new().with(SinkSpec::Events);
        let mut engine = Engine::new(config.with_probe(probe), seed);
        setup(&mut engine);
        let report = engine.run();
        // Scheduling-diagnostic records (gap skips, wake-queue stats) exist
        // only in event-driven mode by design; parity is over everything
        // the protocols and class drivers emit.
        let events: Vec<_> = report
            .probes
            .as_ref()
            .unwrap()
            .events()
            .unwrap()
            .iter()
            .filter(|rec| {
                !matches!(
                    rec.event,
                    ProbeEvent::GapSkip { .. } | ProbeEvent::WakeQueueStats { .. }
                )
            })
            .cloned()
            .collect();
        assert!(
            events.iter().any(|rec| rec.job.is_none()),
            "no aggregate-driver records: parity would be vacuous"
        );
        let bytes = serde_json::to_string(&events).expect("events serialize");
        (bytes, report.outcomes().to_vec())
    };
    let bare_outcomes = |config: EngineConfig, seed: u64, setup: &dyn Fn(&mut Engine)| {
        let mut engine = Engine::new(config, seed);
        setup(&mut engine);
        engine.run().outcomes().to_vec()
    };

    let aparams = AlignedParams::new(1, 2, 9);
    let setup = |e: &mut Engine| {
        for i in 0..16u32 {
            e.add_job(
                JobSpec::new(i, 0, 512),
                Box::new(AlignedProtocol::new(aparams)),
            );
        }
    };
    for seed in 0..3u64 {
        let base = EngineConfig::aligned().cohort();
        let (ev, out) = event_bytes(base.clone(), seed, &setup);
        let (dv, dout) = event_bytes(base.clone().dense(), seed, &setup);
        assert_eq!(ev, dv, "aligned cohort events diverge (seed {seed})");
        assert_eq!(out, dout, "aligned cohort outcomes diverge (seed {seed})");
        assert_eq!(
            out,
            bare_outcomes(base, seed, &setup),
            "attending perturbed the aligned cohort run (seed {seed})"
        );
    }

    let pparams = PunctualParams::laptop();
    let setup = |e: &mut Engine| {
        for i in 0..6u32 {
            e.add_job(
                JobSpec::new(i, 0, 1 << 12),
                Box::new(PunctualProtocol::new(pparams)),
            );
        }
    };
    for seed in 0..3u64 {
        let base = EngineConfig::default().cohort();
        let (ev, out) = event_bytes(base.clone(), seed, &setup);
        let (dv, dout) = event_bytes(base.clone().dense(), seed, &setup);
        assert_eq!(ev, dv, "punctual cohort events diverge (seed {seed})");
        assert_eq!(out, dout, "punctual cohort outcomes diverge (seed {seed})");
        assert_eq!(
            out,
            bare_outcomes(base, seed, &setup),
            "attending perturbed the punctual cohort run (seed {seed})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(testkit::cases(24)))]

    /// Random mixed populations, windows, releases, and jammers: the two
    /// scheduling modes must agree on every observable.
    #[test]
    fn random_population_equivalence(
        seed in 0u64..1_000_000,
        n in 1usize..10,
        log_w in 6u32..12,
        jam_kind in 0usize..8,
        proto_picks in proptest::collection::vec(0usize..6, 10..11),
        releases in proptest::collection::vec(0u64..512, 10..11),
    ) {
        let w = 1u64 << log_w;
        let jammer = jammer_pick(jam_kind);
        assert_equiv(
            "proptest-mixed",
            EngineConfig::default(),
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

    /// Trial-arena reuse: one engine cycled through [`Engine::reset`]
    /// across a batch of trials must produce byte-identical reports to a
    /// freshly allocated engine per trial, across protocols × adversaries
    /// × scheduling modes. (Byte-identical literally: the serialized
    /// reports are compared as strings, with only the wall-clock
    /// `engine_nanos` field zeroed on both sides.)
    #[test]
    fn pooled_reuse_equals_fresh(
        seeds in proptest::collection::vec(0u64..1_000_000, 3..6),
        n in 1usize..8,
        log_w in 6u32..11,
        dense_pick in 0usize..2,
        jam_picks in proptest::collection::vec(0usize..9, 5..6),
        proto_picks in proptest::collection::vec(0usize..6, 8..9),
        releases in proptest::collection::vec(0u64..256, 8..9),
    ) {
        let w = 1u64 << log_w;
        let grid = jammers();
        let base = EngineConfig::default().with_trace();
        let config = if dense_pick == 1 { base.dense() } else { base };
        let setup = |e: &mut Engine| {
            for i in 0..n {
                let spec = JobSpec::new(i as u32, releases[i], releases[i] + w);
                e.add_job(spec, testkit::protocol_pick(proto_picks[i]));
            }
        };
        // The reused engine survives the whole batch, like one runner
        // worker's engine; the fresh engine bypasses the arena entirely.
        let mut reused = Engine::new(config.clone(), 0);
        for (t, &seed) in seeds.iter().enumerate() {
            let jammer = grid[jam_picks[t] % grid.len()].1.clone();
            let mut fresh = Engine::fresh(config.clone(), seed);
            if let Some(j) = &jammer {
                fresh.set_jammer(j.clone());
            }
            setup(&mut fresh);
            let mut a = fresh.run();

            reused.reset(seed);
            if let Some(j) = &jammer {
                reused.set_jammer(j.clone());
            }
            setup(&mut reused);
            let mut b = reused.run();

            a.engine_nanos = 0;
            b.engine_nanos = 0;
            let aj = serde_json::to_string(&a).expect("serialize fresh report");
            let bj = serde_json::to_string(&b).expect("serialize reused report");
            prop_assert_eq!(aj, bj, "trial {} diverged after reuse", t);
        }
    }

    /// Random PUNCTUAL populations: the protocol with the most intricate
    /// wake mask (round-position dependent, phase-dependent) on random
    /// staggered windows.
    #[test]
    fn random_punctual_equivalence(
        seed in 0u64..1_000_000,
        n in 2u32..7,
        spread in 1u64..200,
    ) {
        let params = PunctualParams::laptop();
        let jobs = staggered(n, spread, 1 << 12);
        assert_equiv(
            "proptest-punctual",
            EngineConfig::default(),
            None,
            seed,
            |e| e.add_jobs(&jobs, PunctualProtocol::factory(params)),
        );
    }
}
