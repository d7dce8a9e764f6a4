//! Slot replay: a job's transmission schedule can be reproduced *without
//! running the engine*, by evaluating the pure counter draws at the
//! positions the protocol consumes them.
//!
//! The engine hands every protocol callback a [`CounterRng`] keyed on
//! `(trial_seed → job_key, slot, phase)`, so the first draw a protocol
//! makes in a slot is a pure function of those coordinates. For the two
//! memoryless shapes this pins the whole transmission schedule:
//!
//! - ALOHA ([`FixedProbability`]): one geometric gap at activation, then
//!   one on each transmit slot — walking the chain with [`crng::draw`] and
//!   [`crng::geometric`] must name exactly the slots the job transmitted
//!   in while live, one replay step per transmission.
//! - One-shot UNIFORM ([`Uniform::single`]): one `gen_range(0..w)` at
//!   activation — [`crng::replay_oneshot`] must name the exact global
//!   slot of the job's single attempt, in O(1).
//!
//! A recording wrapper logs the full run's actual transmissions (under
//! the full jammer grid and both scheduling modes); the replay side
//! never touches the engine — just [`SeedSeq::job_key`] and the draw.
//!
//! [`CounterRng`]: contention_deadlines::sim::crng::CounterRng
//! [`crng::draw`]: contention_deadlines::sim::crng::draw
//! [`crng::geometric`]: contention_deadlines::sim::crng::geometric
//! [`crng::replay_oneshot`]: contention_deadlines::sim::crng::replay_oneshot
//! [`FixedProbability`]: contention_deadlines::baselines::FixedProbability
//! [`Uniform::single`]: contention_deadlines::protocols::Uniform::single
//! [`SeedSeq::job_key`]: contention_deadlines::sim::rng::SeedSeq::job_key

mod testkit;

use std::cell::RefCell;
use std::rc::Rc;

use contention_deadlines::baselines::FixedProbability;
use contention_deadlines::protocols::Uniform;
use contention_deadlines::sim::crng::{self, Phase};
use contention_deadlines::sim::engine::{
    Action, CohortTx, DutyCycle, Engine, EngineConfig, JobCtx, Protocol,
};
use contention_deadlines::sim::job::JobSpec;
use contention_deadlines::sim::metrics::{JobOutcome, SimReport};
use contention_deadlines::sim::probe::ProbeEvent;
use contention_deadlines::sim::rng::SeedSeq;
use contention_deadlines::sim::slot::Feedback;
use rand::RngCore;
use testkit::jammers;

type TxLog = Rc<RefCell<Vec<(u32, u64)>>>;

/// Transparent wrapper that logs `(job, global slot)` for every
/// transmission the inner protocol makes, delegating everything else.
struct Recorded {
    inner: Box<dyn Protocol>,
    release: u64,
    log: TxLog,
}

impl Protocol for Recorded {
    fn on_activate(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) {
        self.inner.on_activate(ctx, rng);
    }
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        let action = self.inner.act(ctx, rng);
        if matches!(action, Action::Transmit(_)) {
            self.log
                .borrow_mut()
                .push((ctx.id, self.release + ctx.local_time));
        }
        action
    }
    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, rng: &mut dyn RngCore) {
        self.inner.on_feedback(ctx, fb, rng);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
    fn tx_probability(&self, ctx: &JobCtx) -> Option<f64> {
        self.inner.tx_probability(ctx)
    }
    fn next_wake(&self, ctx: &JobCtx) -> Option<u64> {
        self.inner.next_wake(ctx)
    }
    fn duty_cycle(&self, ctx: &JobCtx) -> Option<DutyCycle> {
        self.inner.duty_cycle(ctx)
    }
    fn duty_listen(&self, ctx: &JobCtx, fb: &Feedback) -> bool {
        self.inner.duty_listen(ctx, fb)
    }
    fn cohort_tx(&self, ctx: &JobCtx) -> Option<CohortTx> {
        self.inner.cohort_tx(ctx)
    }
    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.inner.drain_events(out);
    }
}

/// Run `specs` on the exact path with recording wrappers; return the
/// report and the logged `(job, slot)` transmissions.
fn record_run(
    config: EngineConfig,
    jammer_name: &str,
    seed: u64,
    specs: &[JobSpec],
    factory: impl Fn(&JobSpec) -> Box<dyn Protocol>,
) -> (SimReport, Vec<(u32, u64)>) {
    let grid = jammers();
    let (_, jammer) = grid
        .iter()
        .find(|(n, _)| *n == jammer_name)
        .expect("jammer name in grid");
    let log: TxLog = Rc::new(RefCell::new(Vec::new()));
    let mut engine = Engine::new(config, seed);
    if let Some(j) = jammer {
        engine.set_jammer(j.clone());
    }
    for spec in specs {
        engine.add_job(
            *spec,
            Box::new(Recorded {
                inner: factory(spec),
                release: spec.release,
                log: Rc::clone(&log),
            }),
        );
    }
    let report = engine.run();
    let txs = log.borrow().clone();
    (report, txs)
}

/// The last slot in which `spec`'s job was polled: its delivery slot on
/// success, else the final slot of its window.
fn last_live_slot(spec: &JobSpec, outcome: &JobOutcome) -> u64 {
    match outcome {
        JobOutcome::Success { slot } => *slot,
        JobOutcome::Missed => spec.deadline - 1,
    }
}

/// ALOHA's transmit slots in `[spec.release, last]`, replayed from pure
/// draws: the first gap from the activation position, each next gap from
/// the previous transmission's act position.
fn aloha_replay(key: u64, spec: &JobSpec, last: u64, p: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let gap = crng::geometric(crng::draw(key, spec.release, Phase::Activate), p);
    let mut slot = spec.release.saturating_add(gap - 1);
    while slot <= last {
        out.push(slot);
        let gap = crng::geometric(crng::draw(key, slot, Phase::Act), p);
        slot = slot.saturating_add(gap);
    }
    out
}

#[test]
fn aloha_schedule_replays_from_pure_draws() {
    let p = 0.04;
    let specs = testkit::staggered(20, 41, 700);
    for (jname, _) in jammers() {
        for seed in 0..3u64 {
            for config in [EngineConfig::default(), EngineConfig::default().dense()] {
                let (report, txs) = record_run(config, jname, seed, &specs, |_| {
                    Box::new(FixedProbability::new(p))
                });
                let keys = SeedSeq::new(seed);
                for spec in &specs {
                    let key = keys.job_key(u64::from(spec.id));
                    let last = last_live_slot(spec, &report.outcome(spec.id));
                    let recorded: Vec<u64> = txs
                        .iter()
                        .filter(|(id, _)| *id == spec.id)
                        .map(|(_, s)| *s)
                        .collect();
                    assert_eq!(
                        recorded,
                        aloha_replay(key, spec, last, p),
                        "jam={jname} seed={seed} job={}: recorded transmissions \
                         diverge from the replayed gap chain",
                        spec.id
                    );
                }
            }
        }
    }
}

#[test]
fn oneshot_attempt_replays_from_pure_draw() {
    let specs = testkit::staggered(24, 29, 400);
    for (jname, _) in jammers() {
        for seed in 0..3u64 {
            for config in [EngineConfig::default(), EngineConfig::default().dense()] {
                let (_, txs) =
                    record_run(config, jname, seed, &specs, |_| Box::new(Uniform::single()));
                let keys = SeedSeq::new(seed);
                for spec in &specs {
                    let key = keys.job_key(u64::from(spec.id));
                    let predicted = crng::replay_oneshot(key, spec.release, spec.window());
                    let actual: Vec<u64> = txs
                        .iter()
                        .filter(|(id, _)| *id == spec.id)
                        .map(|(_, s)| *s)
                        .collect();
                    assert_eq!(
                        actual,
                        vec![predicted],
                        "jam={jname} seed={seed} job={}: one-shot replay diverges",
                        spec.id
                    );
                }
            }
        }
    }
}

#[test]
fn replay_is_positionwise_not_streamwise() {
    // Each gap is a pure function of the transmission it starts from, so
    // replaying one step needs no prefix of the chain: visit recorded
    // transmissions in a scattered order and predict each one's successor
    // from its own position alone. The jammer kills 40% of successes, so
    // jobs retransmit and the chain has steps to check.
    let p = 0.07;
    let specs = testkit::staggered(12, 17, 300);
    let seed = 9;
    let (report, txs) = record_run(EngineConfig::default(), "all", seed, &specs, |_| {
        Box::new(FixedProbability::new(p))
    });
    assert!(txs.len() > specs.len(), "no job retransmitted");
    let keys = SeedSeq::new(seed);
    for k in (0..txs.len()).rev().step_by(3) {
        let (id, slot) = txs[k];
        let spec = &specs[id as usize];
        let key = keys.job_key(u64::from(id));
        let next = slot.saturating_add(crng::geometric(crng::draw(key, slot, Phase::Act), p));
        let recorded_next = txs
            .iter()
            .filter(|&&(j, s)| j == id && s > slot)
            .map(|&(_, s)| s)
            .min();
        let last = last_live_slot(spec, &report.outcome(id));
        assert_eq!(
            recorded_next,
            (next <= last).then_some(next),
            "job={id} slot={slot}"
        );
    }
}
