//! Aggregate (class-driver) fidelity for ALIGNED — one binomial per slot.
//!
//! Every member of an aligned job class shares `(window, release, deadline)`
//! and — by Lemma 7 — the *entire* replicated schedule state: the same
//! [`Tracker`], the same phase, the same per-slot transmission probability.
//! The members differ only in their private coins, so the class's per-slot
//! transmitter count is a single exact binomial draw and the shared state
//! machine needs to run **once per class**, not once per member:
//!
//! * an **estimation step** of phase `i` replaces `m` Bernoulli(`1/2^i`)
//!   coins with one `Binomial(m, 1/2^i)` draw;
//! * a **broadcast subphase** of length `X` assigns each live member one
//!   uniform slot; visited sequentially, the count at offset `o` (given the
//!   earlier offsets) is `Binomial(u, 1/(X − o))` where `u` counts members
//!   that have not yet fired in the subphase — the standard sequential
//!   decomposition of a multinomial, exact in distribution.
//!
//! A member is named only when exchangeability breaks: a *lone win* needs a
//! concrete `src` on the channel ([`ClassDriver::materialize`] picks one
//! uniformly from the eligible pool). A materialized-but-jammed broadcaster
//! is the one asymmetric case — it is publicly known to have fired, so it
//! is excluded from the winner pool for the rest of its subphase.
//!
//! All draws come from [`CounterRng`] streams keyed on
//! `(class_seed, slot, phase)`: [`Phase::Act`] for the per-slot count,
//! [`Phase::Activate`] for winner selection. Runs are therefore exactly
//! replayable, per the [`dcr_sim::classes`] contract.

use crate::aligned::estimator::Estimation;
use crate::aligned::params::AlignedParams;
use crate::aligned::tracker::{ActiveStep, StepKind, Tracker};
use crate::aligned::CTRL_ESTIMATE;
use dcr_sim::classes::{ClassDriver, ClassEvent, ClassSlot};
use dcr_sim::crng::{CounterRng, Phase};
use dcr_sim::job::JobId;
use dcr_sim::message::{ControlMsg, Payload};
use dcr_sim::probe::{EventBuf, ProbeEvent};
use dcr_sim::rng::sample_binomial;
use dcr_sim::slot::Feedback;
use rand::Rng;

/// Stable discriminant for [`dcr_sim::engine::CohortTx::Class`]: commits to
/// the protocol kind (ALIGNED) and its parameters, so distinct parameter
/// sets never share a driver. The window size is already committed by the
/// class identity's `(release, deadline)` pair.
pub fn aligned_class_tag(params: &AlignedParams) -> u64 {
    0x414c_4e44 // "ALND"
        ^ params.lambda.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ params.tau.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ u64::from(params.min_class).wrapping_mul(0x94d0_49bb_1331_11eb)
}

/// What kind of slot the last [`AlignedCohort::begin_vt`] opened; consumed
/// by `materialize`/`end_vt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// An estimation step of this class (fresh coins every step).
    Estimation,
    /// A broadcast step of this class (subphase bookkeeping applies).
    Broadcast,
    /// Anything else: another class's step, or no tracked step at all.
    Other,
}

/// The shared ALIGNED state machine for one aggregate class, in *virtual*
/// time (plain slots in Section 3; one slot per round when embedded in
/// PUNCTUAL). Engine-facing use goes through the [`ClassDriver`] impl,
/// where virtual time is the global slot.
#[derive(Debug)]
pub struct AlignedCohort {
    params: AlignedParams,
    class: u32,
    window_start: u64,
    class_seed: u64,
    tracker: Tracker,
    /// Live members. `[0, anon)` is the exchangeable pool lone winners are
    /// drawn from; `[anon, len)` holds members publicly known to have fired
    /// in the current subphase (materialized but jammed).
    members: Vec<JobId>,
    anon: usize,
    /// The current broadcast subphase, identified by its global start step
    /// (`steps_of(class) − pos.offset`); a change resets the fired pool.
    cur_subphase: Option<u64>,
    /// Members that have not yet fired in the current subphase.
    unfired: u64,
    /// Kind and declared count of the slot in flight.
    pending: SlotKind,
    pending_count: u64,
    /// Index (into `members`) of the member named by `materialize`.
    materialized: Option<usize>,
    /// The schedule completed with members undelivered: they have given up.
    /// The members are *retained* so an embedding protocol (PUNCTUAL's
    /// FOLLOW) can convert them; the pure-aligned [`ClassDriver`] reports
    /// them dead via [`ClassDriver::live`].
    gave_up: bool,
    probe: EventBuf,
    reported_estimate: bool,
}

impl AlignedCohort {
    /// Build the shared state machine for a class whose common (virtual)
    /// window is `[window_start, window_start + 2^class)`, aligned.
    pub fn new(params: AlignedParams, class: u32, window_start: u64, class_seed: u64) -> Self {
        assert!(
            class >= params.min_class,
            "class {class} below protocol min_class {}",
            params.min_class
        );
        let tracker = Tracker::new(params, class, window_start);
        Self {
            params,
            class,
            window_start,
            class_seed,
            tracker,
            members: Vec::new(),
            anon: 0,
            cur_subphase: None,
            unfired: 0,
            pending: SlotKind::Other,
            pending_count: 0,
            materialized: None,
            gave_up: false,
            probe: EventBuf::default(),
            reported_estimate: false,
        }
    }

    /// Arm the probe buffer: the class will emit `PhaseEnter` and
    /// `SizeEstimate` events exactly as an attending member would.
    pub fn arm_probe(&mut self) {
        self.probe.arm();
        self.probe.phase("estimation");
    }

    /// The job class `ℓ`.
    pub fn class(&self) -> u32 {
        self.class
    }

    /// The protocol parameters this class runs with.
    pub fn params(&self) -> &AlignedParams {
        &self.params
    }

    /// Members still live in the aggregate (including given-up ones that
    /// have not been [taken](AlignedCohort::take_members) yet).
    pub fn live_members(&self) -> usize {
        self.members.len()
    }

    /// The live members, in pool order.
    pub fn members(&self) -> &[JobId] {
        &self.members
    }

    /// True once the class's schedule completed (or estimation concluded
    /// "empty") with members undelivered.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// Take the undelivered members out of the aggregate (an embedding
    /// protocol converts them, e.g. PUNCTUAL's anarchist fallback).
    pub fn take_members(&mut self) -> Vec<JobId> {
        self.anon = 0;
        std::mem::take(&mut self.members)
    }

    /// The event buffer, so an embedding driver can absorb pending events
    /// before dropping the core (mirrors `AlignedJob::probe_mut`).
    pub(crate) fn probe_mut(&mut self) -> &mut EventBuf {
        &mut self.probe
    }

    /// The tracker's public estimate for this class, once available.
    pub fn estimate(&self) -> Option<u64> {
        self.tracker.estimate_of(self.class)
    }

    /// Open virtual slot `vt`: draw the aggregate transmitter count.
    pub fn begin_vt(&mut self, vt: u64) -> ClassSlot {
        self.materialized = None;
        self.pending = SlotKind::Other;
        self.pending_count = 0;
        if self.members.is_empty() || self.gave_up {
            // Dissolving (all delivered or given up): idle until the engine
            // drops the class. The tracker still consumes the slot so a
            // paired `end_vt` stays legal.
            let _ = self.tracker.begin_slot(vt);
            return ClassSlot::default();
        }
        let Some(ActiveStep {
            class,
            window_start,
            kind,
        }) = self.tracker.begin_slot(vt)
        else {
            return ClassSlot::default();
        };
        if class != self.class || window_start != self.window_start {
            // Another (smaller) class owns the slot; we only listen — its
            // estimation feedback feeds the shared tracker in `end_vt`.
            return ClassSlot::default();
        }
        let m = self.members.len() as u64;
        match kind {
            StepKind::Estimation { phase, .. } => {
                let p = Estimation::tx_probability(phase);
                let mut rng = CounterRng::new(self.class_seed, vt, Phase::Act);
                self.pending = SlotKind::Estimation;
                self.pending_count = sample_binomial(m, p, &mut rng);
                ClassSlot {
                    count: self.pending_count,
                    declared: m as f64 * p,
                }
            }
            StepKind::Broadcast(pos) => {
                let subphase_start_step = self.tracker.steps_of(self.class) - pos.offset;
                if self.cur_subphase != Some(subphase_start_step) {
                    // Subphase entry: every live member redraws its slot.
                    self.cur_subphase = Some(subphase_start_step);
                    self.unfired = m;
                    self.anon = self.members.len();
                }
                let remaining = pos.len - pos.offset;
                let mut rng = CounterRng::new(self.class_seed, vt, Phase::Act);
                self.pending = SlotKind::Broadcast;
                self.pending_count =
                    sample_binomial(self.unfired, 1.0 / remaining as f64, &mut rng);
                ClassSlot {
                    count: self.pending_count,
                    // Matches the exact path's diagnostic: every live member
                    // reports unconditional probability 1/X on its own
                    // broadcast step.
                    declared: m as f64 / pos.len as f64,
                }
            }
        }
    }

    /// Name the lone transmitter for virtual slot `vt`.
    pub fn materialize_vt(&mut self, vt: u64) -> (JobId, Payload) {
        debug_assert_eq!(self.pending_count, 1, "materialize without a lone count");
        let mut rng = CounterRng::new(self.class_seed, vt, Phase::Activate);
        match self.pending {
            SlotKind::Estimation => {
                // Fresh coins each step: every live member is eligible.
                let idx = rng.gen_range(0..self.members.len());
                self.materialized = Some(idx);
                (
                    self.members[idx],
                    Payload::Control(ControlMsg {
                        kind: CTRL_ESTIMATE,
                        a: u64::from(self.class),
                        b: 0,
                        c: 0,
                    }),
                )
            }
            SlotKind::Broadcast => {
                // The winner is one of the subphase's unfired members; by
                // exchangeability over the anonymous pool that is a uniform
                // pick from `[0, anon)` (known-fired members are excluded).
                let idx = rng.gen_range(0..self.anon);
                self.materialized = Some(idx);
                (self.members[idx], Payload::Data(self.members[idx]))
            }
            SlotKind::Other => unreachable!("materialize on a non-transmitting step"),
        }
    }

    /// Close virtual slot `vt` with the channel feedback.
    pub fn end_vt(&mut self, vt: u64, fb: &Feedback) {
        // Estimation steps (ours or a smaller class's) consume the real
        // feedback; for broadcast/idle steps the tracker ignores it — same
        // observable behavior as a member's listen/doze split.
        self.tracker.end_slot(vt, fb);
        match self.pending {
            SlotKind::Broadcast => {
                self.unfired = self.unfired.saturating_sub(self.pending_count);
                if let Some(idx) = self.materialized.take() {
                    let delivered = matches!(
                        fb,
                        Feedback::Success { src, payload }
                            if *src == self.members[idx] && payload.is_data()
                    );
                    // Either way the named member leaves the anonymous pool
                    // for the rest of the subphase.
                    self.members.swap(idx, self.anon - 1);
                    self.anon -= 1;
                    if delivered {
                        // Remove it entirely (the engine credits delivery).
                        let last = self.members.len() - 1;
                        self.members.swap(self.anon, last);
                        self.members.pop();
                    }
                }
            }
            SlotKind::Estimation | SlotKind::Other => {
                // A lone estimation ping delivers nothing and carries no
                // cross-step state; jammed pings change nothing either.
                self.materialized = None;
            }
        }
        self.pending = SlotKind::Other;
        self.pending_count = 0;
        self.maybe_report_estimate();
        if !self.members.is_empty() && self.tracker.is_complete(self.class) {
            // Schedule over (or estimation said "empty class"): undelivered
            // members give up, exactly as `AlignedJob::observe` would. They
            // are retained for an embedding protocol to take.
            self.gave_up = true;
        }
    }

    /// Publish the size estimate the first time it becomes available —
    /// same slot as every member of the exact path would emit it.
    fn maybe_report_estimate(&mut self) {
        if !self.probe.enabled() || self.reported_estimate {
            return;
        }
        if let Some(n_est) = self.tracker.estimate_of(self.class) {
            self.reported_estimate = true;
            self.probe.push(ProbeEvent::SizeEstimate {
                class: self.class,
                n_est,
                n_true: 0, // ground truth enriched by the engine
            });
            self.probe.phase("broadcast");
        }
    }
}

impl ClassDriver for AlignedCohort {
    fn admit(&mut self, member: JobId) {
        // All members share the release slot, so admission precedes the
        // first begin_slot and subphase bookkeeping starts consistent.
        self.members.push(member);
        self.anon = self.members.len();
    }

    fn live(&self) -> usize {
        // Given-up members take no further action in the pure aligned
        // setting: dead to the engine.
        if self.gave_up {
            0
        } else {
            self.members.len()
        }
    }

    fn begin_slot(&mut self, slot: u64) -> ClassSlot {
        // Pure aligned setting: virtual time is the global slot.
        self.begin_vt(slot)
    }

    fn materialize(&mut self, slot: u64) -> (JobId, Payload) {
        self.materialize_vt(slot)
    }

    fn end_slot(&mut self, slot: u64, fb: &Feedback, _out: &mut Vec<ClassEvent>) {
        // ALIGNED never differentiates a member except at delivery, so no
        // ejections are ever reported.
        self.end_vt(slot, fb);
    }

    fn drain_events(&mut self, out: &mut Vec<ProbeEvent>) {
        self.probe.drain_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aligned::protocol::AlignedProtocol;
    use dcr_sim::engine::{Engine, EngineConfig};
    use dcr_sim::job::JobSpec;
    use dcr_sim::metrics::SimReport;
    use dcr_sim::probe::{ProbeSpec, SinkSpec};

    fn batch_params(class: u32) -> AlignedParams {
        AlignedParams::new(1, 2, class)
    }

    fn run_batch(n: u32, class: u32, seed: u64, cfg: EngineConfig) -> SimReport {
        let w = 1u64 << class;
        let mut e = Engine::new(cfg, seed);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, w),
                Box::new(AlignedProtocol::new(batch_params(class))),
            );
        }
        e.run()
    }

    #[test]
    fn single_member_class_delivers() {
        let mut hits = 0;
        for seed in 0..30u64 {
            let r = run_batch(1, 7, seed, EngineConfig::aligned().cohort());
            if r.outcome(0).is_success() {
                hits += 1;
            }
        }
        assert!(hits >= 29, "{hits}/30");
    }

    #[test]
    fn aggregate_success_law_matches_exact() {
        // 24 jobs, class 10 (window 1024): compare delivered counts between
        // the exact and aggregate paths over 30 seeds each. The RNG domains
        // differ, so the check is statistical: mean success proportions
        // within 5 combined standard errors.
        let (n, class, trials) = (24u32, 10u32, 30u64);
        let mean = |cfg: fn() -> EngineConfig| -> f64 {
            let mut total = 0u64;
            for seed in 0..trials {
                total += run_batch(n, class, 1000 + seed, cfg()).successes() as u64;
            }
            total as f64 / (trials * u64::from(n)) as f64
        };
        let exact = mean(EngineConfig::aligned);
        let agg = mean(|| EngineConfig::aligned().cohort());
        let m = (trials * u64::from(n)) as f64;
        let se = |p: f64| (p * (1.0 - p) / m).sqrt();
        let tol = 5.0 * (se(exact) + se(agg)).max(0.02);
        assert!(
            (exact - agg).abs() < tol,
            "exact {exact} vs aggregate {agg} (tol {tol})"
        );
    }

    #[test]
    fn aggregate_engages_and_reports_estimate() {
        // Under cohort fidelity the class driver (not per-job protocols)
        // must produce the SizeEstimate event, stamped with no job id and
        // enriched with the true class size by the engine.
        let w = 1u64 << 9;
        let mut e = Engine::new(
            EngineConfig::aligned()
                .cohort()
                .with_probe(ProbeSpec::new().with(SinkSpec::Events)),
            7,
        );
        for i in 0..8u32 {
            e.add_job(
                JobSpec::new(i, 0, w),
                Box::new(AlignedProtocol::new(batch_params(9))),
            );
        }
        let r = e.run();
        let probes = r.probes.as_ref().expect("probe report");
        let events = probes.events().expect("event log");
        let est = events
            .iter()
            .find(|rec| matches!(rec.event, ProbeEvent::SizeEstimate { .. }))
            .expect("aggregate path must emit SizeEstimate");
        assert!(est.job.is_none(), "class events carry no job id");
        let ProbeEvent::SizeEstimate { class, n_true, .. } = est.event else {
            unreachable!()
        };
        assert_eq!(class, 9);
        assert_eq!(n_true, 8, "engine enriches ground truth");
    }

    #[test]
    fn estimation_ping_win_does_not_deliver() {
        // Drive the core directly: 3 members, all-silent channel except a
        // lone estimation win, which must leave the live count untouched.
        let p = AlignedParams::new(1, 2, 4);
        let mut c = AlignedCohort::new(p, 4, 0, 0xC0FFEE);
        for i in 0..3 {
            ClassDriver::admit(&mut c, i);
        }
        let mut vt = 0u64;
        let mut saw_ping_win = false;
        while vt < p.est_len(4) {
            let slot = c.begin_vt(vt);
            let fb = match slot.count {
                1 => {
                    let (src, payload) = c.materialize_vt(vt);
                    assert!(!payload.is_data(), "estimation transmits control");
                    saw_ping_win = true;
                    Feedback::Success { src, payload }
                }
                0 => Feedback::Silent,
                _ => Feedback::Noise,
            };
            c.end_vt(vt, &fb);
            assert_eq!(c.live_members(), 3, "pings never deliver");
            vt += 1;
        }
        assert!(c.estimate().is_some(), "estimation must conclude");
        // With 3 members at p = 1/2 over 16 steps a lone ping is near-certain.
        assert!(saw_ping_win, "expected at least one lone ping");
    }

    #[test]
    fn jammed_broadcast_winner_leaves_subphase_pool() {
        // Jam every broadcast lone win and check each named member leaves
        // the anonymous winner pool while the live count stays intact.
        // Class 5, λ=1: estimation ends at step 25, leaving slots 25..32 of
        // the window as broadcast steps. Sweep seeds until a run produces a
        // positive estimate and at least one lone win.
        let p = AlignedParams::new(1, 2, 5);
        let mut jammed_wins = 0u32;
        for seed in 0..64u64 {
            let mut c = AlignedCohort::new(p, 5, 0, seed);
            for i in 0..4 {
                ClassDriver::admit(&mut c, i);
            }
            for vt in 0..32u64 {
                if c.live_members() == 0 {
                    break;
                }
                let slot = c.begin_vt(vt);
                let before_anon = c.anon;
                let fb = match slot.count {
                    0 => Feedback::Silent,
                    1 => {
                        let (src, payload) = c.materialize_vt(vt);
                        if payload.is_data() {
                            jammed_wins += 1;
                            Feedback::Noise // jammer strikes the lone data tx
                        } else {
                            Feedback::Success { src, payload }
                        }
                    }
                    _ => Feedback::Noise,
                };
                let was_data_win = slot.count == 1 && matches!(fb, Feedback::Noise);
                c.end_vt(vt, &fb);
                if was_data_win {
                    assert_eq!(c.live_members(), 4, "jammed wins never deliver");
                    assert!(
                        c.anon < before_anon,
                        "jammed winner must leave the anonymous pool"
                    );
                }
            }
            if jammed_wins > 0 {
                break;
            }
        }
        assert!(jammed_wins > 0, "expected at least one jammed lone win");
    }

    #[test]
    fn tag_commits_to_params() {
        let a = aligned_class_tag(&AlignedParams::new(1, 2, 4));
        let b = aligned_class_tag(&AlignedParams::new(2, 2, 4));
        let c = aligned_class_tag(&AlignedParams::new(1, 4, 4));
        let d = aligned_class_tag(&AlignedParams::new(1, 2, 5));
        let set: std::collections::HashSet<u64> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4);
    }
}
