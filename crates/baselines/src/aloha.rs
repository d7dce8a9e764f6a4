//! Slotted ALOHA: transmit each slot with a fixed probability.
//!
//! The memoryless baseline — useful as a contention "dial" in experiment
//! E1 (measuring Lemma 2's contention/success relationship) and as a naive
//! comparator in the end-to-end shootout.
//!
//! Instead of one Bernoulli(`p`) coin per slot, the protocol draws the
//! geometric gap to its next transmission ([`dcr_sim::crng::geometric`]):
//! once at activation, then once on each transmit slot. The transmission
//! process has the same law, and every slot in between is a promised
//! [`Action::Sleep`] that draws nothing, so the event-driven engine parks
//! the job across it ([`Protocol::next_wake`]).

use dcr_sim::crng::geometric;
use dcr_sim::engine::{Action, JobCtx, Protocol};
use dcr_sim::message::Payload;
use dcr_sim::slot::Feedback;
use rand::RngCore;

/// Transmit the data message with probability `p` in every slot until it
/// gets through.
#[derive(Debug, Clone)]
pub struct FixedProbability {
    p: f64,
    succeeded: bool,
    /// Local slot of the next transmission (past the window = never).
    next_tx: u64,
}

impl FixedProbability {
    /// ALOHA with per-slot probability `p ∈ (0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1]");
        Self {
            p,
            succeeded: false,
            next_tx: u64::MAX,
        }
    }

    /// Per-slot probability scaled to the job's window at activation:
    /// `min(1/2, c/w)` — transmitting an expected `c` times per window.
    pub fn per_window(c: f64) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |spec| {
            let p = (c / spec.window() as f64).min(0.5);
            Box::new(Self::new(p.max(f64::MIN_POSITIVE)))
        }
    }

    /// Factory closure with a fixed `p` for every job.
    pub fn factory(p: f64) -> impl FnMut(&dcr_sim::job::JobSpec) -> Box<dyn Protocol> {
        move |_spec| Box::new(Self::new(p))
    }
}

impl Protocol for FixedProbability {
    fn on_activate(&mut self, _ctx: &JobCtx, rng: &mut dyn RngCore) {
        // A gap of G slots to the first success puts it at local slot
        // G - 1; a "never" gap stays past any window.
        self.next_tx = geometric(rng.next_u64(), self.p) - 1;
    }

    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
        if self.succeeded || ctx.local_time != self.next_tx {
            // Memoryless and non-adaptive: no need to listen between
            // attempts.
            return Action::Sleep;
        }
        self.next_tx = ctx
            .local_time
            .saturating_add(geometric(rng.next_u64(), self.p));
        Action::Transmit(Payload::Data(ctx.id))
    }

    fn on_feedback(&mut self, ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
        if let Feedback::Success { src, payload } = fb {
            if *src == ctx.id && payload.is_data() {
                self.succeeded = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.succeeded
    }

    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        Some(if self.succeeded { 0.0 } else { self.p })
    }

    fn next_wake(&self, _ctx: &JobCtx) -> Option<u64> {
        Some(if self.succeeded {
            u64::MAX
        } else {
            self.next_tx
        })
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        let mut p = dcr_sim::checkpoint::StatePack::new();
        p.flag(self.succeeded).word(self.next_tx);
        Some(p.finish())
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        let mut r = dcr_sim::checkpoint::StateReader::new(state);
        let (Some(succeeded), Some(next_tx)) = (r.flag(), r.word()) else {
            return false;
        };
        if !r.done() {
            return false;
        }
        self.succeeded = succeeded;
        self.next_tx = next_tx;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::job::JobSpec;
    use dcr_sim::runner::count_trials;

    #[test]
    fn lone_job_eventually_succeeds() {
        let (hits, total) = count_trials(50, 3, |_, seed| {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(
                JobSpec::new(0, 0, 256),
                Box::new(FixedProbability::new(0.1)),
            );
            e.run().outcome(0).is_success()
        });
        assert_eq!(hits, total);
    }

    #[test]
    fn contention_one_gives_constant_throughput() {
        // n jobs at p = 1/n: C = 1, so per-slot success ≈ 1/e. Over many
        // slots the throughput should be visibly constant.
        let n = 32u32;
        let mut e = Engine::new(EngineConfig::default().with_trace(), 5);
        for i in 0..n {
            // Window long enough that nobody leaves early skews little.
            e.add_job(
                JobSpec::new(i, 0, 100),
                Box::new(FixedProbability::new(1.0 / f64::from(n))),
            );
        }
        let r = e.run();
        let rate = r.counts.success as f64 / r.slots_run as f64;
        assert!(rate > 0.2 && rate < 0.55, "rate={rate}");
    }

    #[test]
    fn per_window_scaling() {
        let mut factory = FixedProbability::per_window(4.0);
        let spec = JobSpec::new(0, 0, 400);
        let proto = factory(&spec);
        let ctx = dcr_sim::engine::JobCtx {
            id: 0,
            window: 400,
            local_time: 0,
            aligned_time: None,
            probed: false,
        };
        assert!((proto.tx_probability(&ctx).unwrap() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn restore_mid_gap_resumes_the_same_transmit_slots() {
        use dcr_sim::crng::{CounterRng, Phase};
        let key = 0x5EED;
        let ctx = |local_time| JobCtx {
            id: 0,
            window: 1 << 12,
            local_time,
            aligned_time: None,
            probed: false,
        };
        // Transmit slots in `range`, driving `a` with the job's own draws.
        let tx_slots = |a: &mut FixedProbability, range: std::ops::Range<u64>| -> Vec<u64> {
            range
                .filter(|&t| {
                    let mut rng = CounterRng::new(key, t, Phase::Act);
                    matches!(a.act(&ctx(t), &mut rng), Action::Transmit(_))
                })
                .collect()
        };
        let mut a = FixedProbability::new(0.02);
        a.on_activate(&ctx(0), &mut CounterRng::new(key, 0, Phase::Activate));
        let before = tx_slots(&mut a, 0..1000);
        let last = *before.last().expect("p = 0.02 transmits within 1000 slots");
        // Pause strictly inside a gap: after the last transmission, before
        // the next one.
        assert!(a.next_tx >= 1000 && last < 999);
        let mut b = FixedProbability::new(0.02);
        assert!(b.restore_state(&a.save_state().expect("capturable")));
        assert_eq!(b.next_wake(&ctx(999)), a.next_wake(&ctx(999)));
        let want = tx_slots(&mut a, 1000..4096);
        assert!(!want.is_empty());
        assert_eq!(tx_slots(&mut b, 1000..4096), want);
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn zero_probability_rejected() {
        let _ = FixedProbability::new(0.0);
    }
}
