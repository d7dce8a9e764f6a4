//! The slot-synchronized simulation engine.
//!
//! The engine owns a set of jobs, each driven by a [`Protocol`]
//! implementation, and advances the channel slot by slot:
//!
//! 1. jobs whose release slot arrived are **activated**;
//! 2. every live job chooses an [`Action`] (transmit / listen / sleep) —
//!    seeing only its *local* context, per the paper's model;
//! 3. the channel resolves the slot (silence / success / noise), the
//!    [`crate::jamming::Jammer`] gets a chance to create noise;
//! 4. listeners receive the slot's [`Feedback`];
//! 5. jobs whose data message was delivered, whose protocol reports done, or
//!    whose window closed are retired.
//!
//! The engine is the *only* component with a global view; protocols are
//! handed a [`JobCtx`] that deliberately omits the global slot index unless
//! [`EngineConfig::expose_aligned_clock`] is set (valid only for the
//! power-of-2-aligned special case of Section 3, where window alignment
//! makes a shared clock implicitly available).
//!
//! ## Hot-path layout
//!
//! Job state is a struct-of-arrays [`JobTable`]: specs, protocol objects,
//! RNG streams, outcomes, and access counters live in parallel vectors
//! indexed by job id. The per-slot loop walks an **active set** of indices
//! and retires or parks jobs by `swap_remove`, so retired and not-yet-released
//! jobs cost nothing per slot. The visiting *order* of the active set is
//! therefore arbitrary — which is sound because every observable outcome
//! depends only on per-job private RNG streams and the slot's aggregate
//! transmission count, never on the order jobs were polled in.
//!
//! ## Trial arena
//!
//! Engines are reusable: [`Engine::reset`] returns a used engine to its
//! just-constructed state while keeping every internal allocation (job
//! table, wake queue, scratch buffers), and a dropped engine donates those
//! allocations to a thread-local pool that the next [`Engine::new`] on the
//! same thread drains. Monte-Carlo workers therefore allocate their
//! simulation state once per thread, not once per trial, with bit-identical
//! results (the reset contract is exactly "everything derived from the seed
//! and the jobs is cleared").

use crate::checkpoint::{
    Checkpoint, CheckpointError, ClassSnap, Digest, DutyGroupSnap, DutySnap, ParkedSnap,
    CHECKPOINT_VERSION,
};
use crate::classes::{class_stream_index, ClassCtx, ClassDriver, ClassEntry, ClassEvent, ClassSet};
use crate::crng::{CounterRng, Phase};
use crate::jamming::{Adversary, Jammer, SlotView};
use crate::job::{JobId, JobSpec};
use crate::kernel::SlotKernel;
use crate::message::Payload;
use crate::metrics::{
    AccessCounts, ContentionStats, JamStats, JobOutcome, SchedStats, SimReport, SlotCounts,
};
use crate::probe::{ProbeBus, ProbeEvent, ProbeRecord, ProbeReport, ProbeSpec, VecSink};
use crate::rng::{SeedSeq, StreamLabel};
use crate::sched::WakeQueue;
use crate::slot::Feedback;
use crate::trace::{SlotOutcome, SlotRecord};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A job's decision for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Broadcast `Payload` in this slot.
    Transmit(Payload),
    /// Stay quiet but observe the slot's feedback.
    Listen,
    /// Neither transmit nor observe (no feedback is delivered).
    Sleep,
}

/// The local context a protocol sees each slot.
///
/// Contains nothing a real station could not know: its own id (used only to
/// tag its data message), its window size, how many slots have elapsed since
/// its own activation, and — in the aligned special case only — the shared
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct JobCtx {
    /// This job's id (for tagging its data payload).
    pub id: JobId,
    /// Window size `w` in slots.
    pub window: u64,
    /// Slots since activation: `0` in the release slot, `w - 1` in the last
    /// slot of the window.
    pub local_time: u64,
    /// The shared global clock, present only when the engine is configured
    /// for the power-of-2-aligned special case.
    pub aligned_time: Option<u64>,
    /// True when some probe sink consumes protocol events: the protocol
    /// should arm its [`crate::probe::EventBuf`] at activation. Purely an
    /// observability flag — it must never influence protocol decisions.
    pub probed: bool,
}

impl JobCtx {
    /// Slots remaining in the window *including* the current slot.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.window - self.local_time
    }

    /// The aligned global clock; panics if the engine did not expose one.
    #[inline]
    pub fn aligned_now(&self) -> u64 {
        self.aligned_time
            .expect("protocol requires EngineConfig::expose_aligned_clock")
    }
}

/// A transmission profile a protocol can expose so the engine may take the
/// job off the per-job path under [`Fidelity::Cohort`] or
/// [`Fidelity::Vectorized`] — through the vectorized kernel or in
/// aggregate, per variant below.
///
/// The common contract: from activation until delivery or deadline the job
/// never listens, never finishes early ([`Protocol::is_done`] stays false
/// until delivery), and its transmissions follow the declared model
/// exactly.
///
/// The kernel additionally relies on a *bit-level draw schedule*, because
/// it reproduces the exact path's draws verbatim rather than resampling in
/// aggregate: for [`CohortTx::OneShot`], `on_activate` consumes **exactly
/// one** `gen_range(0..window)` naming the local transmission slot; `act`
/// consumes nothing (transmit at the chosen slot, sleep otherwise);
/// `on_feedback` consumes no randomness and has no observable effect.
///
/// Under the counter-based RNG that draw is the *first word* of a known
/// `(job_key, release, Activate)` position, which is what lets the kernel
/// calendar it (and anyone replay it — see
/// [`crate::crng::replay_oneshot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CohortTx {
    /// "Transmit exactly once, in a slot chosen uniformly over the
    /// window" — UNIFORM `k = 1`'s one-shot draw. Under both
    /// [`Fidelity::Cohort`] and [`Fidelity::Vectorized`] the kernel's
    /// one-shot calendar replays the activation draw, so these jobs stay
    /// bit-identical to [`Fidelity::Exact`].
    OneShot,
    /// A phase-synchronized aggregate class (ALIGNED, PUNCTUAL): jobs with
    /// the same `tag`, release, and deadline share one protocol state and
    /// advance as a [`crate::classes::ClassDriver`] supplied via
    /// [`Protocol::class_driver`]. `tag` must commit to the protocol kind
    /// and its parameters, so differently-configured populations never
    /// share a class. Cohort fidelity only; under [`Fidelity::Vectorized`]
    /// these jobs take the exact per-job path (the kernel's bit-identity
    /// contract does not cover class aggregates).
    Class {
        /// Protocol-chosen discriminant committing to kind + parameters.
        tag: u64,
    },
}

/// A periodic duty schedule (see [`Protocol::duty_cycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DutyCycle {
    /// Pattern length in slots (`0 < period ≤ 64`).
    pub period: u8,
    /// Positions (bit `i` = position `i`) needing a real `act()` call.
    pub wake_mask: u64,
    /// Positions with an unconditional, state-free transmission of
    /// `tx_payload`. Must be disjoint from `wake_mask`.
    pub tx_mask: u64,
    /// The payload broadcast at `tx_mask` positions. Never a data message.
    pub tx_payload: Payload,
    /// Positions where the job always listens, consumes no randomness, and
    /// — for the overwhelmingly common feedback — changes no state. Must be
    /// disjoint from both other masks. The engine resolves these positions
    /// per *group*: one representative member is asked, via
    /// [`Protocol::duty_listen`], whether the slot's feedback is
    /// group-invariant; only when it is not does every member get an
    /// individual `on_feedback` call. Per-member listen counters are
    /// settled lazily in closed form, like standing transmissions.
    pub listen_mask: u64,
    /// The *local* slot that is position 0 of the pattern.
    pub anchor_local: u64,
}

/// A contention-resolution protocol driving a single job.
///
/// One value of this trait is instantiated per job; all coordination happens
/// through the channel.
pub trait Protocol {
    /// Called once, in the job's release slot, before the first `act`.
    fn on_activate(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) {}

    /// Decide this slot's action.
    fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action;

    /// Observe the feedback for the slot just completed. Not called if the
    /// job slept or has been retired.
    fn on_feedback(&mut self, _ctx: &JobCtx, _fb: &Feedback, _rng: &mut dyn RngCore) {}

    /// True once the job will take no further useful action; the engine
    /// retires it early. (Delivery of the job's data message retires it
    /// automatically regardless.)
    fn is_done(&self) -> bool {
        false
    }

    /// The probability with which this protocol intended to transmit in the
    /// current slot, if it can report one. Used for measuring the paper's
    /// contention `C(t) = Σ_j p_j(t)`; purely diagnostic.
    fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
        None
    }

    /// Scheduling hint: the next *local* slot at which this job needs an
    /// `act()` call, given that the slot described by `ctx` just completed.
    ///
    /// Returning `Some(w)` with `w > ctx.local_time + 1` promises that for
    /// every local slot in `(ctx.local_time, w)` the protocol would have
    /// returned [`Action::Sleep`] *without drawing randomness or changing
    /// state*. Under [`Scheduling::EventDriven`] the engine then parks the
    /// job and skips those `act()` calls entirely — no ctx construction, no
    /// virtual dispatch — waking it at local slot `w` (possibly earlier,
    /// never later; hints past the window are clamped to its last slot, and
    /// `u64::MAX` means "never again"). Because the skipped calls are
    /// exactly the ones with no observable effect, results are bit-identical
    /// to dense polling.
    ///
    /// The default (`None`) opts out: the job is polled every slot, which is
    /// always correct (legacy behavior).
    fn next_wake(&self, _ctx: &JobCtx) -> Option<u64> {
        None
    }

    /// Stronger scheduling hint for protocols whose wake pattern is
    /// *periodic*: a duty cycle declares, relative to a protocol-chosen
    /// anchor, a repeating pattern of **wake positions** (slots needing a
    /// real `act()` call) and **standing-transmission positions** (slots
    /// where the protocol would deterministically transmit `tx_payload`
    /// with probability 1, drawing no randomness and changing no state, and
    /// where the slot's feedback would change no state either). Every other
    /// position promises [`Action::Sleep`] exactly as under
    /// [`Protocol::next_wake`].
    ///
    /// Under [`Scheduling::EventDriven`] the engine keeps such jobs in
    /// per-schedule **duty groups**: wake positions are visited by group
    /// membership with no wake-queue traffic, and standing positions are
    /// resolved in aggregate — the transmissions still occupy the channel
    /// (colliding, getting jammed, and being heard by listeners exactly as
    /// if `act` had run) while per-member transmission counters are settled
    /// lazily in closed form. Results stay bit-identical to dense polling.
    ///
    /// Contract: `0 < period ≤ 64`; the masks index positions
    /// `(local_time - anchor_local) % period` and must be disjoint;
    /// `tx_payload` must not be a data message; and a protocol that returns
    /// `Some` must keep returning `Some` until it is done (the schedule
    /// itself may change between calls) — for a registered job, returning
    /// `None` *is* the completion signal: the engine retires the job
    /// exactly as it would on [`Protocol::is_done`], which is not polled
    /// separately on this path. Takes precedence over `next_wake`; the
    /// default (`None`) opts out.
    fn duty_cycle(&self, _ctx: &JobCtx) -> Option<DutyCycle> {
        None
    }

    /// Group-invariance check for [`DutyCycle::listen_mask`] positions.
    ///
    /// Called on **one representative member** of a duty group whose
    /// pattern has a listen bit at the current position, after the slot
    /// resolved. Returning `true` asserts that *every* job registered under
    /// this member's duty schedule would, on observing `fb` at this
    /// position, neither change state nor emit probe events — so the engine
    /// skips the per-member `on_feedback` fan-out entirely (listen counters
    /// are settled lazily). Returning `false` (the default) makes the
    /// engine deliver `fb` to every member individually, which is always
    /// correct.
    ///
    /// The answer must be derivable from group-uniform information: the
    /// feedback itself plus state that the schedule key forces all members
    /// to share. A protocol whose members can disagree on the answer must
    /// not declare listen positions. The engine additionally forces the
    /// fan-out whenever `fb` delivers a member's own data message, so
    /// implementations need not handle that case.
    fn duty_listen(&self, _ctx: &JobCtx, _fb: &Feedback) -> bool {
        false
    }

    /// Aggregate-simulation hint: a transmission profile for this job, if
    /// its whole lifetime follows one (see [`CohortTx`]). Consulted once,
    /// at the job's release slot, and only under [`Fidelity::Cohort`] or
    /// [`Fidelity::Vectorized`]; a job the engine takes over (class or
    /// kernel) receives **no** further protocol callbacks — the
    /// engine makes its draws itself. Protocols whose behavior depends on
    /// feedback, phase, or any evolving state must return `None` (the
    /// default), which keeps the job on the exact per-job path under every
    /// fidelity.
    fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
        None
    }

    /// Open a phase-synchronized aggregate class (see
    /// [`CohortTx::Class`]). Called once per distinct `(tag, release,
    /// deadline)` class, at the first member's release slot, with that
    /// member's [`JobCtx`] and the class-level [`ClassCtx`] (global window
    /// bounds plus the class's counter-RNG seed). Subsequent members are
    /// [`ClassDriver::admit`]ted to the returned driver without further
    /// protocol callbacks. Returning `None` (the default) keeps the job on
    /// the exact per-job path.
    fn class_driver(&self, _ctx: &JobCtx, _cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
        None
    }

    /// Move any buffered [`ProbeEvent`]s into `out`. Called once per slot
    /// (after feedback delivery) for every polled job while a sink wants
    /// events; the engine stamps each event with the slot and job id.
    ///
    /// Protocols may emit only from slots they attend (`act`/`on_feedback`),
    /// so per-job event streams are identical across scheduling modes (see
    /// [`crate::probe`] for the full contract). The default is a no-op for
    /// protocols with nothing to report.
    fn drain_events(&mut self, _out: &mut Vec<ProbeEvent>) {}

    /// Serialize this protocol's *dynamic* state as a flat word blob for
    /// [`Engine::snapshot`]. Configuration fixed at construction (window
    /// sizes, probabilities, schedules) must not be included — a restore
    /// rebuilds the protocol through the same factory and then replays the
    /// blob over it. Returning `None` (the default) declares the protocol
    /// non-checkpointable: a snapshot taken while such a job is live on the
    /// exact path fails. See [`crate::checkpoint`] for the word-packing
    /// helpers ([`crate::checkpoint::StatePack`]).
    fn save_state(&self) -> Option<Vec<u64>> {
        None
    }

    /// Restore the dynamic state captured by [`Protocol::save_state`] onto a
    /// freshly constructed instance. Returns `false` (the default) when the
    /// protocol cannot restore — [`Engine::restore`] then fails.
    fn restore_state(&mut self, _state: &[u64]) -> bool {
        false
    }
}

/// How the engine visits live jobs each slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheduling {
    /// Park jobs whose protocol reports a [`Protocol::next_wake`] hint and
    /// skip their `act()` calls until the wake slot; stretches where *every*
    /// live job is parked are fast-forwarded in O(1). Protocols without
    /// hints are still polled densely, so this is safe for any mix.
    #[default]
    EventDriven,
    /// Poll every live job every slot (legacy behavior). Wake hints are
    /// never consulted; useful as the reference in equivalence tests.
    Dense,
}

/// How faithfully individual jobs are simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Fidelity {
    /// Every job is simulated individually. Bit-exact and the default.
    #[default]
    Exact,
    /// Aggregate simulation by profile (see [`Protocol::cohort_tx`]):
    /// - [`CohortTx::Class`] jobs advance as phase-synchronized classes
    ///   (see [`crate::classes`]): one binomial draw per class per slot,
    ///   with members materialized only when the class changes their
    ///   fate. Statistically equivalent to [`Fidelity::Exact`] (same
    ///   distributions), not bit-identical.
    /// - [`CohortTx::OneShot`] jobs ride the vectorized kernel's one-shot
    ///   calendar, exactly as under [`Fidelity::Vectorized`], so they stay
    ///   bit-identical to [`Fidelity::Exact`].
    ///
    /// Jobs whose protocol returns `None` still take the exact path.
    Cohort,
    /// [`CohortTx::OneShot`] jobs are managed by the vectorized slot
    /// kernel, which precomputes each one's single transmission slot into
    /// a calendar. Because every draw is counter-based (`crate::crng`),
    /// the kernel is **bit-identical** to [`Fidelity::Exact`] — same
    /// outcomes, same counters, same trace tallies — while skipping
    /// per-job dispatch. All other jobs, class profiles included, take
    /// the exact path.
    Vectorized,
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Hard cap on simulated slots (safety net against livelock). When
    /// `None`, the engine runs until the last deadline.
    pub max_slots: Option<u64>,
    /// Record a full [`SlotRecord`] trace (off for large Monte-Carlo runs).
    pub record_trace: bool,
    /// Expose the global slot index to protocols via
    /// [`JobCtx::aligned_time`]. Only legitimate for the aligned special
    /// case (Section 3); PUNCTUAL must run with this off.
    pub expose_aligned_clock: bool,
    /// How live jobs are visited each slot (see [`Scheduling`]).
    pub scheduling: Scheduling,
    /// How faithfully jobs are simulated (see [`Fidelity`]).
    pub fidelity: Fidelity,
    /// Probe sinks to attach (see [`crate::probe`]). `None` disables the
    /// probe layer entirely; with `record_trace` also off, the slot loop
    /// does no observability work beyond two branch checks.
    pub probe: Option<ProbeSpec>,
}

impl EngineConfig {
    /// Config for the aligned special case (shared clock exposed).
    pub fn aligned() -> Self {
        Self {
            expose_aligned_clock: true,
            ..Self::default()
        }
    }

    /// Enable trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Force dense polling (ignore wake hints).
    pub fn dense(mut self) -> Self {
        self.scheduling = Scheduling::Dense;
        self
    }

    /// Enable aggregate class simulation (see [`Fidelity::Cohort`]).
    pub fn cohort(mut self) -> Self {
        self.fidelity = Fidelity::Cohort;
        self
    }

    /// Attach probe sinks (see [`crate::probe`]).
    pub fn with_probe(mut self, spec: ProbeSpec) -> Self {
        self.probe = Some(spec);
        self
    }

    /// Enable the vectorized slot kernel (see [`Fidelity::Vectorized`]).
    pub fn vectorized(mut self) -> Self {
        self.fidelity = Fidelity::Vectorized;
        self
    }
}

/// Struct-of-arrays job storage, indexed by job id.
///
/// Splitting the old per-job struct into parallel vectors keeps the data
/// the per-slot loop actually touches (specs, outcomes) densely packed, and
/// lets the borrow checker hand out disjoint mutable borrows of a job's
/// protocol and RNG without runtime cost.
///
/// Since PR 6 jobs carry no RNG *stream* at all — only a 64-bit counter
/// key. Every protocol-visible draw comes from a stack-built
/// [`CounterRng`] positioned at `(key, slot, phase)`, so a draw is a pure
/// function of its position (see `crate::crng` and DESIGN.md §3f).
#[derive(Default)]
struct JobTable {
    specs: Vec<JobSpec>,
    protocols: Vec<Box<dyn Protocol>>,
    /// Per-job counter-RNG keys ([`SeedSeq::job_key`]).
    keys: Vec<u64>,
    outcomes: Vec<Option<JobOutcome>>,
    accesses: Vec<AccessCounts>,
}

impl JobTable {
    fn len(&self) -> usize {
        self.specs.len()
    }

    fn push(&mut self, spec: JobSpec, protocol: Box<dyn Protocol>, key: u64) {
        self.specs.push(spec);
        self.protocols.push(protocol);
        self.keys.push(key);
        self.outcomes.push(None);
        self.accesses.push(AccessCounts::default());
    }

    fn clear(&mut self) {
        self.specs.clear();
        self.protocols.clear();
        self.keys.clear();
        self.outcomes.clear();
        self.accesses.clear();
    }
}

/// Scratch buffers reused across slots so the hot loop stays allocation-free.
#[derive(Default)]
struct SlotScratch {
    /// Indices (into the job table) of jobs that transmitted, with payloads.
    transmitters: Vec<(u32, Payload)>,
    /// Every job given an `act()` call this slot: the active set first
    /// (mirroring its order), then due duty-group members.
    polled: Vec<u32>,
    /// The action each polled job took (`CODE_*`), parallel to `polled`.
    codes: Vec<u8>,
    /// The ctx each polled job acted under, parallel to `polled`, so the
    /// fused feedback pass reuses it instead of rebuilding.
    ctxs: Vec<JobCtx>,
    /// Indices (into `DutySet::groups`) of groups with a listen bit at the
    /// current position, resolved per group after the slot's feedback.
    listen_groups: Vec<u32>,
    /// Polled indices in job-id order, for deterministic probe drains.
    probe_order: Vec<u32>,
    /// Job indices the vectorized kernel says transmit this slot.
    kernel_tx: Vec<u32>,
    /// Outbox for aggregate-class state changes settled after feedback.
    class_outbox: Vec<ClassEvent>,
}

impl SlotScratch {
    fn clear(&mut self) {
        self.transmitters.clear();
        self.polled.clear();
        self.codes.clear();
        self.ctxs.clear();
        self.listen_groups.clear();
        self.probe_order.clear();
        self.kernel_tx.clear();
        self.class_outbox.clear();
    }
}

/// Compact [`Action`] tags recorded during the act pass so the fused
/// feedback/retire/reschedule pass needs no second dispatch.
const CODE_SLEEP: u8 = 0;
const CODE_LISTEN: u8 = 1;
const CODE_TX: u8 = 2;

/// One duty group: every member shares the same [`DutyCycle`] schedule
/// aligned to the same global phase, so the group is visited (and its
/// standing transmissions are counted) as a unit.
struct DutyGroup {
    period: u8,
    /// Global round position of pattern position 0:
    /// `(release + anchor_local) % period`.
    anchor_mod: u8,
    wake_mask: u64,
    tx_mask: u64,
    listen_mask: u64,
    payload: Payload,
    /// Live member job indices; `swap_remove` removal, order arbitrary.
    members: Vec<u32>,
}

/// Number of slots in `[from, to)` whose position `(s - anchor_mod) % period`
/// has its bit set in `mask` — the closed form behind lazy standing-
/// transmission accounting.
fn covered_count(from: u64, to: u64, period: u8, anchor_mod: u8, mask: u64) -> u64 {
    if to <= from || mask == 0 {
        return 0;
    }
    let period = u64::from(period);
    let len = to - from;
    let mut n = (len / period) * u64::from(mask.count_ones());
    let mut pos = (from + period - u64::from(anchor_mod)) % period;
    for _ in 0..len % period {
        n += mask >> pos & 1;
        pos += 1;
        if pos == period {
            pos = 0;
        }
    }
    n
}

/// All duty groups of one run, plus per-job membership bookkeeping.
#[derive(Default)]
struct DutySet {
    groups: Vec<DutyGroup>,
    /// Total live members across all groups.
    total: usize,
    /// Per-job `(group index + 1, position in members)`; group 0 = none.
    where_of: Vec<(u32, u32)>,
    /// Per-job: the exact `DutyCycle` value the job registered with, so the
    /// per-visit re-query is one struct compare (the `key_matches` fallback
    /// handles equivalent-but-unequal values, e.g. a shifted anchor).
    reg_dc: Vec<Option<DutyCycle>>,
    /// Per-job first slot from which standing positions count as
    /// transmissions (settled lazily at deregistration).
    reg_slot: Vec<u64>,
    /// Per-job: a deadline backstop entry exists in the wake queue.
    backstopped: Vec<bool>,
    /// Backstop wake-queue entries whose job already left the duty layer.
    /// Queue entries are not removable, so they are discarded when popped —
    /// and discounted from live-job accounting until then.
    dead_backstops: u64,
}

impl DutySet {
    /// Reset for a run over `n` jobs, keeping allocations.
    fn prepare(&mut self, n: usize) {
        self.groups.clear();
        self.total = 0;
        self.where_of.clear();
        self.where_of.resize(n, (0, 0));
        self.reg_dc.clear();
        self.reg_dc.resize(n, None);
        self.reg_slot.clear();
        self.reg_slot.resize(n, 0);
        self.backstopped.clear();
        self.backstopped.resize(n, false);
        self.dead_backstops = 0;
    }

    fn clear(&mut self) {
        self.groups.clear();
        self.total = 0;
        self.where_of.clear();
        self.reg_dc.clear();
        self.reg_slot.clear();
        self.backstopped.clear();
        self.dead_backstops = 0;
    }

    fn anchor_mod(dc: &DutyCycle, release: u64) -> u8 {
        ((release + dc.anchor_local) % u64::from(dc.period)) as u8
    }

    /// Is `idx` registered under exactly the schedule `dc` resolves to?
    fn key_matches(&self, idx: usize, dc: &DutyCycle, release: u64) -> bool {
        let (g1, _) = self.where_of[idx];
        if g1 == 0 {
            return false;
        }
        let g = &self.groups[g1 as usize - 1];
        g.period == dc.period
            && g.wake_mask == dc.wake_mask
            && g.tx_mask == dc.tx_mask
            && g.listen_mask == dc.listen_mask
            && g.payload == dc.tx_payload
            && g.anchor_mod == Self::anchor_mod(dc, release)
    }

    /// Enter `idx` into the group for `dc` (creating it if needed).
    /// Standing accounting starts at the slot after `slot` (the current
    /// slot was acted normally).
    fn register(&mut self, idx: usize, dc: &DutyCycle, release: u64, slot: u64) {
        debug_assert!(dc.period > 0 && dc.period <= 64, "period out of range");
        debug_assert_eq!(dc.wake_mask & dc.tx_mask, 0, "masks must be disjoint");
        debug_assert_eq!(
            (dc.wake_mask | dc.tx_mask) & dc.listen_mask,
            0,
            "listen mask must be disjoint from wake and tx masks"
        );
        debug_assert!(
            !dc.tx_payload.is_data(),
            "standing transmissions cannot carry data"
        );
        let anchor_mod = Self::anchor_mod(dc, release);
        let gi = self
            .groups
            .iter()
            .position(|g| {
                g.period == dc.period
                    && g.anchor_mod == anchor_mod
                    && g.wake_mask == dc.wake_mask
                    && g.tx_mask == dc.tx_mask
                    && g.listen_mask == dc.listen_mask
                    && g.payload == dc.tx_payload
            })
            .unwrap_or_else(|| {
                self.groups.push(DutyGroup {
                    period: dc.period,
                    anchor_mod,
                    wake_mask: dc.wake_mask,
                    tx_mask: dc.tx_mask,
                    listen_mask: dc.listen_mask,
                    payload: dc.tx_payload,
                    members: Vec::new(),
                });
                self.groups.len() - 1
            });
        let pos = self.groups[gi].members.len();
        self.groups[gi].members.push(idx as u32);
        self.where_of[idx] = (gi as u32 + 1, pos as u32);
        self.reg_dc[idx] = Some(*dc);
        self.reg_slot[idx] = slot + 1;
        self.total += 1;
    }

    /// Remove `idx` from its group, if registered, returning how many
    /// standing transmissions and aggregate listens it made in
    /// `[reg_slot, now)`.
    fn deregister(&mut self, idx: usize, now: u64) -> Option<(u64, u64)> {
        let (g1, pos) = self.where_of[idx];
        if g1 == 0 {
            return None;
        }
        let g = &mut self.groups[g1 as usize - 1];
        let pos = pos as usize;
        g.members.swap_remove(pos);
        if let Some(&moved) = g.members.get(pos) {
            self.where_of[moved as usize].1 = pos as u32;
        }
        self.where_of[idx] = (0, 0);
        self.reg_dc[idx] = None;
        self.total -= 1;
        Some((
            covered_count(self.reg_slot[idx], now, g.period, g.anchor_mod, g.tx_mask),
            covered_count(
                self.reg_slot[idx],
                now,
                g.period,
                g.anchor_mod,
                g.listen_mask,
            ),
        ))
    }

    /// Earliest slot ≥ `slot` at which any group wakes, transmits, or
    /// listens.
    fn next_event(&self, slot: u64) -> u64 {
        let mut best = u64::MAX;
        let mut memo = (0u64, 0u64);
        for g in &self.groups {
            let bits = g.wake_mask | g.tx_mask | g.listen_mask;
            if g.members.is_empty() || bits == 0 {
                continue;
            }
            let period = u64::from(g.period);
            if memo.0 != period {
                memo = (period, slot % period);
            }
            let mut pos = memo.1 + period - u64::from(g.anchor_mod);
            if pos >= period {
                pos -= period;
            }
            // Distance to the next set bit at or after `pos`, cyclically:
            // rotate the pattern right by `pos` and count trailing zeros.
            let rot = if period == 64 {
                bits.rotate_right(pos as u32)
            } else {
                ((bits >> pos) | (bits << (period - pos))) & !(u64::MAX << period)
            };
            debug_assert_ne!(rot, 0);
            best = best.min(slot + u64::from(rot.trailing_zeros()));
        }
        best
    }
}

/// Thread-local pool of cleared engine internals, so Monte-Carlo workers
/// that build one engine per trial still reuse one set of allocations per
/// thread. Donation happens in [`Engine::drop`]; [`Engine::new`] drains it.
mod arena {
    use super::{DutySet, JobTable, SlotScratch, WakeQueue};
    use crate::classes::ClassSet;
    use crate::kernel::SlotKernel;
    use crate::probe::ProbeEvent;
    use std::cell::{Cell, RefCell};

    /// The reusable allocations of a dead engine, already cleared.
    #[derive(Default)]
    pub(super) struct Carcass {
        pub jobs: JobTable,
        pub active: Vec<u32>,
        pub by_release: Vec<u32>,
        pub parked: WakeQueue,
        pub scratch: SlotScratch,
        pub event_scratch: Vec<ProbeEvent>,
        pub classes: ClassSet,
        pub duty: DutySet,
        pub kernel: SlotKernel,
    }

    impl Carcass {
        pub fn clear(&mut self) {
            self.jobs.clear();
            self.active.clear();
            self.by_release.clear();
            self.parked.clear();
            self.scratch.clear();
            self.event_scratch.clear();
            self.classes.clear();
            self.duty.clear();
            self.kernel.clear();
        }
    }

    thread_local! {
        static POOL: RefCell<Option<Carcass>> = const { RefCell::new(None) };
        static REUSES: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn take() -> Option<Carcass> {
        let c = POOL.with(|p| p.borrow_mut().take());
        if c.is_some() {
            REUSES.with(|r| r.set(r.get() + 1));
        }
        c
    }

    pub(super) fn stash(c: Carcass) {
        POOL.with(|p| {
            let mut slot = p.borrow_mut();
            if slot.is_none() {
                *slot = Some(c);
            }
        });
    }

    pub(super) fn reuses() -> u64 {
        REUSES.with(|r| r.get())
    }
}

/// Process-lifetime total of channel slots executed by every engine run
/// (all threads, all trials). See [`slots_executed_total`].
static SLOTS_EXECUTED_TOTAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total channel slots executed by all [`Engine::run`] calls in this
/// process so far — the process-wide view of the per-report
/// [`SimReport::slots_run`] counter. Monotone; never reset. This is how
/// an outside observer (e.g. the experiment server's cache tests) proves
/// that serving a result "from cache" really executed zero new slots.
pub fn slots_executed_total() -> u64 {
    SLOTS_EXECUTED_TOTAL.load(std::sync::atomic::Ordering::Relaxed)
}

/// Everything a run carries between slots, parked on the engine while it
/// is paused at a slot boundary (see [`Engine::run_to`]). `None` outside a
/// run; `Some` from `Engine::begin` until [`Engine::finish`] consumes it.
struct RunState {
    /// The run's slot cap (configured limit capped by the last deadline).
    max_slots: u64,
    /// Cursor into `by_release`: jobs before it have already activated.
    next_pending: usize,
    counts: SlotCounts,
    bus: ProbeBus,
    sched_stats: SchedStats,
    /// Running total of per-slot declared contention (diagnostic; only
    /// accumulated while some sink records slot traces).
    contention_sum: f64,
    jam_rng: ChaCha8Rng,
    /// The next slot boundary to execute.
    slot: u64,
    /// The slot this engine started executing at — 0 unless the run was
    /// [`Engine::restore`]d from a checkpoint. Exactly `slot - base_slot`
    /// slots were executed by *this* engine.
    base_slot: u64,
    /// Wall nanoseconds accumulated across `step_until` calls.
    engine_nanos: u64,
    /// The loop hit a terminal condition (horizon, cap, or all jobs dead);
    /// only the [`Engine::finish`] epilogue remains.
    done: bool,
}

/// The simulation engine. See the [module docs](self) for the slot loop.
pub struct Engine {
    config: EngineConfig,
    seeds: SeedSeq,
    jammer: Jammer,
    jobs: JobTable,
    /// Job indices visited every slot; jobs leave by retirement or parking
    /// (`swap_remove`, so order is arbitrary — see the module docs).
    active: Vec<u32>,
    parked: WakeQueue,
    /// Job indices sorted by `(release, id)`; a cursor into this drives
    /// activation.
    by_release: Vec<u32>,
    scratch: SlotScratch,
    event_scratch: Vec<ProbeEvent>,
    /// Phase-synchronized aggregate classes (see [`CohortTx::Class`]).
    classes: ClassSet,
    /// Duty groups (periodic-schedule jobs; see [`Protocol::duty_cycle`]).
    duty: DutySet,
    /// The vectorized slot kernel (inert under [`Fidelity::Exact`]; see
    /// [`crate::kernel`]).
    kernel: SlotKernel,
    /// Guards against a second `run` without a `reset` in between.
    ran: bool,
    /// The paused-run state (see [`RunState`]); `Some` while a run is in
    /// flight between `begin` and [`Engine::finish`].
    run_state: Option<RunState>,
}

impl Engine {
    /// Create an engine with the given configuration and master seed,
    /// reusing the current thread's pooled allocations if any (see the
    /// [module docs](self) on the trial arena; behavior is identical either
    /// way).
    pub fn new(config: EngineConfig, seed: u64) -> Self {
        let carcass = arena::take().unwrap_or_default();
        Self {
            config,
            seeds: SeedSeq::new(seed),
            jammer: Jammer::none(),
            jobs: carcass.jobs,
            active: carcass.active,
            by_release: carcass.by_release,
            parked: carcass.parked,
            scratch: carcass.scratch,
            event_scratch: carcass.event_scratch,
            classes: carcass.classes,
            duty: carcass.duty,
            kernel: carcass.kernel,
            ran: false,
            run_state: None,
        }
    }

    /// Create an engine with freshly allocated internals, bypassing the
    /// thread-local pool. Behavior is identical to [`Engine::new`]; this
    /// exists so benchmarks and tests can measure or pin down the
    /// no-reuse path explicitly.
    pub fn fresh(config: EngineConfig, seed: u64) -> Self {
        Self {
            config,
            seeds: SeedSeq::new(seed),
            jammer: Jammer::none(),
            jobs: JobTable::default(),
            active: Vec::new(),
            by_release: Vec::new(),
            parked: WakeQueue::new(),
            scratch: SlotScratch::default(),
            event_scratch: Vec::new(),
            classes: ClassSet::default(),
            duty: DutySet::default(),
            kernel: SlotKernel::new(),
            ran: false,
            run_state: None,
        }
    }

    /// Number of times `Engine::new` on this thread reused pooled
    /// allocations instead of allocating fresh ones (diagnostic).
    pub fn arena_reuses() -> u64 {
        arena::reuses()
    }

    /// Return the engine to its just-constructed state under a new master
    /// seed, keeping the configuration and every internal allocation.
    ///
    /// The reset contract (what bit-identity across reuse requires): all
    /// job state, the active set, the wake queue including its lifetime
    /// counters, all per-slot scratch, the aggregate classes, the jammer
    /// (back to [`Jammer::none`]; install the trial's adversary after the
    /// reset), and the seed sequence. Nothing else in the engine carries state
    /// between runs.
    pub fn reset(&mut self, seed: u64) {
        self.seeds = SeedSeq::new(seed);
        self.jammer = Jammer::none();
        self.jobs.clear();
        self.active.clear();
        self.by_release.clear();
        self.parked.clear();
        self.scratch.clear();
        self.event_scratch.clear();
        self.classes.clear();
        self.duty.clear();
        self.kernel.clear();
        self.ran = false;
        self.run_state = None;
    }

    /// Install a jamming adversary (default: none).
    pub fn set_jammer(&mut self, jammer: Jammer) {
        self.jammer = jammer;
    }

    /// Add a job. Jobs must be added with ids `0, 1, 2, …` in order; this
    /// keeps outcome lookup an index and catches instance-construction bugs.
    pub fn add_job(&mut self, spec: JobSpec, protocol: Box<dyn Protocol>) {
        assert_eq!(
            spec.id as usize,
            self.jobs.len(),
            "jobs must be added in id order"
        );
        let key = self.seeds.job_key(u64::from(spec.id));
        self.jobs.push(spec, protocol, key);
    }

    /// Add every job in `specs`, building each protocol with `factory`.
    pub fn add_jobs<F>(&mut self, specs: &[JobSpec], mut factory: F)
    where
        F: FnMut(&JobSpec) -> Box<dyn Protocol>,
    {
        for spec in specs {
            let protocol = factory(spec);
            self.add_job(*spec, protocol);
        }
    }

    /// Number of jobs registered.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Run the simulation to completion and return the report.
    ///
    /// Runs once per [`Engine::reset`] (or construction): the jobs are
    /// consumed by the run, so a second call without a reset panics.
    pub fn run(&mut self) -> SimReport {
        if self.run_state.is_none() {
            self.begin();
        }
        self.finish()
    }

    /// Advance the run to the first slot boundary at or after `pause_at`
    /// (beginning the run on first call) and return the slot paused at.
    ///
    /// The target is *soft*: an O(1) gap skip may overshoot it, and the
    /// boundary check happens only between slots, so the landing slot
    /// executes in full — both exactly as an uninterrupted run would.
    /// A paused engine is what [`Engine::snapshot`] captures; resume with
    /// another `run_to` or [`Engine::finish`]. When the run's natural end
    /// (horizon, cap, or all jobs dead) arrives first, the returned slot
    /// is that end and only the [`Engine::finish`] epilogue remains.
    pub fn run_to(&mut self, pause_at: u64) -> u64 {
        if self.run_state.is_none() {
            self.begin();
        }
        self.step_until(pause_at);
        self.run_state
            .as_ref()
            .expect("step_until preserves run state")
            .slot
    }

    /// Prologue of a run: consume the job set and build the slot loop's
    /// carried state, paused before slot 0. Split out of the historically
    /// monolithic `run` so checkpoint/branch replay can stop and resume at
    /// slot boundaries.
    fn begin(&mut self) {
        assert!(
            !self.ran,
            "Engine::run called twice; call Engine::reset between runs"
        );
        self.ran = true;
        let horizon = self
            .jobs
            .specs
            .iter()
            .map(|s| s.deadline)
            .max()
            .unwrap_or(0);
        // Running past the last deadline is pointless (all jobs retired), so
        // the horizon caps the configured limit rather than the reverse.
        let max_slots = match self.config.max_slots {
            Some(cap) => cap.min(horizon),
            None => horizon,
        };

        // Activation order: job indices sorted by release slot (id breaks
        // ties, and ids equal indices, so the unstable sort is total).
        self.by_release.clear();
        self.by_release.extend(0..self.jobs.len() as u32);
        let specs = &self.jobs.specs;
        self.by_release
            .sort_unstable_by_key(|&i| (specs[i as usize].release, i));

        self.active.clear();
        self.scratch.clear();
        if self.config.fidelity != Fidelity::Exact {
            self.kernel.prepare(self.jobs.len());
        }
        // All observability flows through the probe bus. The legacy
        // `record_trace` flag is a `VecSink` attached first, so its output
        // is bit-identical to the old unconditional trace Vec.
        let mut bus = ProbeBus::new();
        if self.config.record_trace {
            bus.push(Box::new(VecSink::new()));
        }
        if let Some(spec) = &self.config.probe {
            for sink in &spec.sinks {
                bus.push(sink.build());
            }
        }
        // Per-job duty bookkeeping arrays (empty groups; sized to the run).
        self.duty.prepare(self.jobs.len());

        self.run_state = Some(RunState {
            max_slots,
            next_pending: 0,
            counts: SlotCounts::default(),
            bus,
            sched_stats: SchedStats::default(),
            contention_sum: 0.0,
            jam_rng: self.seeds.rng(StreamLabel::Jammer, 0),
            slot: 0,
            base_slot: 0,
            engine_nanos: 0,
            done: false,
        });
    }

    /// Execute slots until the first boundary at or after `pause_at`, or
    /// the run's natural end, whichever comes first. The slot loop body is
    /// the historical `run` loop, verbatim; only the state it carries
    /// between slots now lives in [`RunState`] across calls.
    fn step_until(&mut self, pause_at: u64) {
        let st = self.run_state.take().expect("step_until requires begin");
        if st.done {
            self.run_state = Some(st);
            return;
        }
        let RunState {
            max_slots,
            mut next_pending,
            mut counts,
            mut bus,
            mut sched_stats,
            mut contention_sum,
            mut jam_rng,
            mut slot,
            base_slot,
            engine_nanos,
            done: _,
        } = st;
        let started = std::time::Instant::now();
        let event_driven = self.config.scheduling == Scheduling::EventDriven;
        let fidelity = self.config.fidelity;
        let cohort_mode = fidelity == Fidelity::Cohort;
        let kernel_mode = fidelity != Fidelity::Exact;
        let aligned_clock = self.config.expose_aligned_clock;
        // An adversary that can strike silent slots draws randomness every
        // slot, so all-parked stretches cannot be skipped without
        // desynchronizing (and silencing) it; such slots run one by one.
        // This keys off the `Adversary` trait's declaration, not any
        // concrete policy, so new idle-striking adversaries gate correctly.
        // Recomputed on every resume because a branched replay may have
        // swapped the adversary at the pause boundary.
        let jammer_strikes_idle = self.jammer.strikes_idle();
        let wants_slots = bus.wants_slots();
        let probed = bus.wants_events();
        let mut paused = false;
        while slot < max_slots {
            if slot >= pause_at {
                paused = true;
                break;
            }
            // Retire kernel state whose deadline arrived (outcomes settle
            // to Missed in the end-of-run sweep, as on the exact path).
            if kernel_mode {
                self.kernel.expire(slot);
            }
            // Nothing live and nothing pending: the channel is idle forever.
            // Wake-queue entries that are stale duty backstops (their job
            // already retired) don't count as live.
            if self.active.is_empty()
                && self.parked.len() as u64 == self.duty.dead_backstops
                && self.classes.total == 0
                && self.kernel.pending() == 0
                && next_pending == self.by_release.len()
            {
                break;
            }
            // Fast-forward through stretches where no job needs polling:
            // idle gaps between arrival bursts, and stretches where every
            // live job is parked. The skipped slots really are silent, so
            // they stay accounted (and traced, when tracing, as a single
            // run-length record): `counts.total()` always equals the number
            // of slots the run covered. A live aggregate class blocks the
            // skip: it draws randomness (and can transmit) every slot.
            if self.active.is_empty()
                && self.classes.total == 0
                && ((self.parked.len() as u64 == self.duty.dead_backstops
                    && self.kernel.pending() == 0)
                    || !jammer_strikes_idle)
            {
                let mut next_event = u64::MAX;
                if next_pending < self.by_release.len() {
                    next_event = self.jobs.specs[self.by_release[next_pending] as usize].release;
                }
                if let Some(wake) = self.parked.next_wake() {
                    next_event = next_event.min(wake);
                }
                if let Some(tx) = self.kernel.next_tx() {
                    next_event = next_event.min(tx);
                }
                if let Some(expiry) = self.kernel.next_expiry() {
                    // A pending (fired-but-undelivered) one-shot holds the
                    // run open to its deadline, exactly as the exact path's
                    // parked job does; the skip must land there, not at the
                    // horizon.
                    next_event = next_event.min(expiry);
                }
                if self.duty.total > 0 {
                    // Duty groups break the gap at their next wake or
                    // standing-transmission slot (which may be `slot`
                    // itself, suppressing the skip).
                    next_event = next_event.min(self.duty.next_event(slot));
                }
                if next_event > slot {
                    let until = next_event.min(max_slots);
                    let gap = until - slot;
                    counts.silent += gap;
                    sched_stats.gap_skips += 1;
                    sched_stats.gap_slots += gap;
                    // Stateful adversaries observe the skipped silence in
                    // bulk (contract: identical to per-slot rejections).
                    self.jammer.on_silent_gap(gap);
                    if wants_slots {
                        bus.on_slot(&SlotRecord {
                            slot,
                            outcome: if gap == 1 {
                                SlotOutcome::Silent
                            } else {
                                SlotOutcome::SilentGap { len: gap }
                            },
                            live_jobs: (self.parked.len() as u64 - self.duty.dead_backstops
                                + self.kernel.pending() as u64)
                                as u32,
                            declared_contention: 0.0,
                            payload: None,
                        });
                    }
                    if probed {
                        bus.on_event(&ProbeRecord {
                            slot,
                            job: None,
                            event: ProbeEvent::GapSkip { len: gap },
                        });
                        bus.on_event(&ProbeRecord {
                            slot,
                            job: None,
                            event: ProbeEvent::WakeQueueStats {
                                parked: self.parked.len() as u32,
                            },
                        });
                    }
                    slot = until;
                    if slot == max_slots {
                        break;
                    }
                }
            }

            // 0. Wake parked jobs whose slot arrived. Entries for jobs in
            // the duty layer are deadline backstops: a live member leaves
            // the layer here (settling its standing-transmission count) and
            // runs its final stretch as a plain active job; a member that
            // retired early left a stale entry, discarded on arrival.
            let first_woken = self.active.len();
            self.parked.pop_due(slot, &mut self.active);
            if event_driven && (self.duty.total > 0 || self.duty.dead_backstops > 0) {
                let mut i = first_woken;
                while i < self.active.len() {
                    let idx = self.active[i] as usize;
                    if self.jobs.outcomes[idx].is_some() {
                        self.duty.dead_backstops -= 1;
                        self.active.swap_remove(i);
                        continue;
                    }
                    if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                        self.jobs.accesses[idx].transmissions += tx;
                        self.jobs.accesses[idx].listens += li;
                    }
                    i += 1;
                }
            }

            // 1. Activate arrivals.
            while next_pending < self.by_release.len()
                && self.jobs.specs[self.by_release[next_pending] as usize].release == slot
            {
                let idx = self.by_release[next_pending];
                next_pending += 1;
                let spec = self.jobs.specs[idx as usize];
                let ctx = JobCtx {
                    id: spec.id,
                    window: spec.window(),
                    local_time: 0,
                    aligned_time: aligned_clock.then_some(slot),
                    probed,
                };
                // Aggregate-managed jobs (class, kernel) are never polled or
                // called back again — unobservably, since their profiles
                // promise no observable callback effects. The kernel makes
                // the job's own draws from its bit-level schedule (see
                // [`CohortTx`]); classes sample in aggregate.
                let profile = if kernel_mode {
                    self.jobs.protocols[idx as usize].cohort_tx(&ctx)
                } else {
                    None
                };
                let key = self.jobs.keys[idx as usize];
                let routed = match (fidelity, profile) {
                    // Phase-synchronized class: route to the shared driver
                    // for (tag, release, deadline), opening it at the first
                    // member's activation. A protocol that declines to
                    // supply a driver falls through to the exact path.
                    (Fidelity::Cohort, Some(CohortTx::Class { tag })) => {
                        self.admit_class(tag, &spec, &ctx)
                    }
                    (Fidelity::Cohort | Fidelity::Vectorized, Some(CohortTx::OneShot)) => {
                        self.kernel.insert_shot(
                            idx,
                            key,
                            spec.release,
                            spec.window(),
                            spec.deadline,
                        );
                        true
                    }
                    // Class aggregates are a cohort-fidelity construct; the
                    // kernel's bit-identity contract does not cover them, so
                    // under Vectorized they take the exact path like
                    // profile-less jobs.
                    _ => false,
                };
                if routed {
                    continue;
                }
                let mut rng = CounterRng::new(key, slot, Phase::Activate);
                self.jobs.protocols[idx as usize].on_activate(&ctx, &mut rng);
                self.active.push(idx);
            }

            // 2. Collect actions. The polled set is the active set (in
            // order) plus the members of every duty group with a wake bit
            // at this slot's position; duty groups with a *tx* bit here
            // contribute standing transmissions in aggregate instead —
            // per-member counters are settled lazily at deregistration.
            // `tx_probability` is purely diagnostic, so its virtual call
            // (and the contention sum) is skipped when no trace records it.
            self.scratch.transmitters.clear();
            self.scratch.polled.clear();
            self.scratch.codes.clear();
            self.scratch.ctxs.clear();
            self.scratch.listen_groups.clear();
            self.scratch.polled.extend_from_slice(&self.active);
            let recording = wants_slots;
            let mut declared_contention = 0.0f64;
            let mut standing_n: u64 = 0;
            let mut standing_single: Option<(u32, Payload)> = None;
            if event_driven && self.duty.total > 0 {
                // Groups usually share one period: memoize `slot % period`
                // so the scan performs a single division per slot.
                let mut memo = (0u64, 0u64);
                for (gi, g) in self.duty.groups.iter().enumerate() {
                    if g.members.is_empty() {
                        continue;
                    }
                    let period = u64::from(g.period);
                    if memo.0 != period {
                        memo = (period, slot % period);
                    }
                    let mut pos = memo.1 + period - u64::from(g.anchor_mod);
                    if pos >= period {
                        pos -= period;
                    }
                    if g.wake_mask >> pos & 1 != 0 {
                        self.scratch.polled.extend_from_slice(&g.members);
                    }
                    if g.listen_mask >> pos & 1 != 0 {
                        self.scratch.listen_groups.push(gi as u32);
                    }
                    if g.tx_mask >> pos & 1 != 0 {
                        standing_n += g.members.len() as u64;
                        standing_single = if standing_n == 1 {
                            Some((g.members[0], g.payload))
                        } else {
                            None
                        };
                        if recording {
                            // Standing slots transmit with probability 1.
                            declared_contention += g.members.len() as f64;
                        }
                    }
                }
            }
            let visited_start = self.active.len();
            for k in 0..self.scratch.polled.len() {
                let idx = self.scratch.polled[k] as usize;
                let spec = self.jobs.specs[idx];
                let ctx = JobCtx {
                    id: spec.id,
                    window: spec.window(),
                    local_time: slot - spec.release,
                    aligned_time: aligned_clock.then_some(slot),
                    probed,
                };
                self.scratch.ctxs.push(ctx);
                let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Act);
                let action = self.jobs.protocols[idx].act(&ctx, &mut rng);
                let declared = if recording {
                    self.jobs.protocols[idx].tx_probability(&ctx)
                } else {
                    None
                };
                match action {
                    Action::Transmit(payload) => {
                        if recording {
                            declared_contention += declared.unwrap_or(1.0);
                        }
                        self.jobs.accesses[idx].transmissions += 1;
                        self.scratch.transmitters.push((idx as u32, payload));
                        // Transmitters also observe the slot (they learn
                        // whether their own broadcast succeeded).
                        self.scratch.codes.push(CODE_TX);
                    }
                    Action::Listen => {
                        if recording {
                            declared_contention += declared.unwrap_or(0.0);
                        }
                        self.jobs.accesses[idx].listens += 1;
                        self.scratch.codes.push(CODE_LISTEN);
                    }
                    Action::Sleep => {
                        if recording {
                            declared_contention += declared.unwrap_or(0.0);
                        }
                        self.scratch.codes.push(CODE_SLEEP);
                    }
                }
            }

            // 2b'. Aggregate-class draws: each live class's shared state
            // machine decides its transmitter count for this slot (one exact
            // binomial on sampled steps, a deterministic count on broadcast
            // steps, zero on listen steps). Individuals stay anonymous
            // unless the slot resolves to a single transmission.
            let mut class_tx: u64 = 0;
            if cohort_mode {
                for entry in &mut self.classes.entries {
                    let decl = entry.driver.begin_slot(slot);
                    entry.count = decl.count;
                    class_tx += decl.count;
                    if recording {
                        declared_contention += decl.declared;
                    }
                }
            }

            // 2c. Vectorized kernel: due one-shot calendar entries. Each
            // transmitter joins the slot exactly as an exact-path
            // `Action::Transmit` would (the draws are bit-identical; see
            // `crate::kernel`); kernel jobs are never polled, so they take
            // no feedback, appear in no `codes` and declare no contention
            // (the exact path's parked one-shots are not polled either).
            if kernel_mode {
                self.scratch.kernel_tx.clear();
                self.kernel.collect(slot, &mut self.scratch.kernel_tx);
                for &idx in &self.scratch.kernel_tx {
                    self.jobs.accesses[idx as usize].transmissions += 1;
                    self.scratch
                        .transmitters
                        .push((idx, Payload::Data(self.jobs.specs[idx as usize].id)));
                }
            }

            // 3. Resolve the channel and give the adversary its shot.
            let n_tx = self.scratch.transmitters.len() + class_tx as usize + standing_n as usize;
            let view = match n_tx {
                0 => SlotView::Silent,
                1 => {
                    if let Some(&(idx, payload)) = self.scratch.transmitters.first() {
                        SlotView::Single {
                            src: self.jobs.specs[idx as usize].id,
                            payload,
                        }
                    } else if let Some((member, payload)) = standing_single {
                        // The slot's only transmission is one job's standing
                        // duty broadcast (its transmission counter is covered
                        // by the lazy per-member accounting).
                        SlotView::Single {
                            src: self.jobs.specs[member as usize].id,
                            payload,
                        }
                    } else {
                        // A lone aggregate-class transmission: the class
                        // materializes the member (and payload) that goes on
                        // the channel, making the slot's `src` concrete.
                        let entry = self
                            .classes
                            .entries
                            .iter_mut()
                            .find(|e| e.count == 1)
                            .expect("class_tx == 1 implies a class with count 1");
                        let (member, payload) = entry.driver.materialize(slot);
                        self.jobs.accesses[member as usize].transmissions += 1;
                        SlotView::Single {
                            src: self.jobs.specs[member as usize].id,
                            payload,
                        }
                    }
                }
                _ => SlotView::Collision { n_tx },
            };
            let jammed = self.jammer.jams(view, &mut jam_rng);

            let feedback = if jammed {
                Feedback::Noise
            } else {
                match view {
                    SlotView::Silent => Feedback::Silent,
                    SlotView::Single { src, payload } => Feedback::Success { src, payload },
                    SlotView::Collision { .. } => Feedback::Noise,
                }
            };

            // 4. Account the slot.
            let mut delivered_data: Option<JobId> = None;
            match (jammed, n_tx) {
                (true, _) => counts.jammed += 1,
                (false, 0) => counts.silent += 1,
                (false, 1) => {
                    counts.success += 1;
                    if let SlotView::Single { src, payload } = view {
                        if payload.data_owner() == Some(src) {
                            counts.data_success += 1;
                            delivered_data = Some(src);
                        } else if let Some(owner) = payload.data_owner() {
                            counts.data_success += 1;
                            delivered_data = Some(owner);
                        }
                    }
                }
                (false, _) => counts.collision += 1,
            }

            if wants_slots {
                let outcome = if jammed {
                    SlotOutcome::Jammed { n_tx: n_tx as u32 }
                } else {
                    match view {
                        SlotView::Silent => SlotOutcome::Silent,
                        SlotView::Single { src, payload } => SlotOutcome::Success {
                            src,
                            was_data: payload.is_data(),
                        },
                        SlotView::Collision { n_tx } => {
                            SlotOutcome::Collision { n_tx: n_tx as u32 }
                        }
                    }
                };
                bus.on_slot(&SlotRecord {
                    slot,
                    outcome,
                    // Duty members are counted through their deadline
                    // backstops in the wake queue (exactly one per member);
                    // stale backstops of retired members are discounted.
                    live_jobs: (self.active.len()
                        + self.parked.len()
                        + self.classes.total
                        + self.kernel.pending()) as u32
                        - self.duty.dead_backstops as u32,
                    declared_contention,
                    payload: feedback.payload().copied(),
                });
            }
            if recording {
                contention_sum += declared_contention;
            }

            // 5. Record delivery, then run the fused feedback / retirement /
            // rescheduling pass: one ctx build per polled job instead of
            // three. Feedback lands in polled order, which is exactly the
            // old listener order.
            if let Some(owner) = delivered_data {
                // First delivery inside the window wins; protocols built in
                // this workspace never transmit data outside their window
                // (the engine retires them at the deadline), so `slot` is
                // necessarily inside it.
                let outcome = &mut self.jobs.outcomes[owner as usize];
                if outcome.is_none() {
                    *outcome = Some(JobOutcome::Success { slot });
                }
                // A delivered kernel-managed job leaves the kernel
                // immediately (its calendar deadline count drops).
                if kernel_mode && self.kernel.is_managed(owner as usize) {
                    self.kernel
                        .on_delivery(owner as usize, self.jobs.specs[owner as usize].deadline);
                }
            }
            // Active part: `polled[..visited_start]` mirrors `active`, and
            // removals keep `codes` aligned by mirroring the swap.
            let mut k = 0;
            while k < self.active.len() {
                let idx = self.active[k] as usize;
                let code = self.scratch.codes[k];
                let spec = self.jobs.specs[idx];
                let ctx = self.scratch.ctxs[k];
                if code != CODE_SLEEP {
                    let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Feedback);
                    self.jobs.protocols[idx].on_feedback(&ctx, &feedback, &mut rng);
                }
                let window_over = slot + 1 >= spec.deadline;
                let finished = self.jobs.outcomes[idx].is_some()
                    || self.jobs.protocols[idx].is_done()
                    || window_over;
                if finished {
                    if self.jobs.outcomes[idx].is_none() {
                        self.jobs.outcomes[idx] = Some(JobOutcome::Missed);
                    }
                    let last = self.active.len() - 1;
                    self.active.swap_remove(k);
                    self.scratch.codes.swap(k, last);
                    self.scratch.ctxs.swap(k, last);
                    continue;
                }
                if event_driven {
                    if let Some(dc) = self.jobs.protocols[idx].duty_cycle(&ctx) {
                        self.duty.register(idx, &dc, spec.release, slot);
                        if !self.duty.backstopped[idx] {
                            self.duty.backstopped[idx] = true;
                            // One wake-queue entry per job for its whole
                            // duty-layer life: a deadline backstop that both
                            // retires it on time and keeps it in live-job
                            // accounting.
                            self.parked.push(spec.deadline - 1, idx as u32);
                        }
                        let last = self.active.len() - 1;
                        self.active.swap_remove(k);
                        self.scratch.codes.swap(k, last);
                        self.scratch.ctxs.swap(k, last);
                        continue;
                    }
                    if let Some(wake_local) = self.jobs.protocols[idx].next_wake(&ctx) {
                        // Clamp into the window so the job is awake for its
                        // last slot and retires through the normal deadline
                        // check, exactly as under dense polling.
                        let wake = spec
                            .release
                            .saturating_add(wake_local)
                            .min(spec.deadline - 1);
                        if wake > slot + 1 {
                            self.parked.push(wake, idx as u32);
                            let last = self.active.len() - 1;
                            self.active.swap_remove(k);
                            self.scratch.codes.swap(k, last);
                            self.scratch.ctxs.swap(k, last);
                            continue;
                        }
                    }
                }
                k += 1;
            }
            // Visited duty members: feedback, retirement (their backstop
            // stays behind in the wake queue), and schedule re-query — a
            // state change moves the member between groups.
            for v in visited_start..self.scratch.polled.len() {
                let idx = self.scratch.polled[v] as usize;
                let code = self.scratch.codes[v];
                let spec = self.jobs.specs[idx];
                let ctx = self.scratch.ctxs[v];
                if code != CODE_SLEEP {
                    let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Feedback);
                    self.jobs.protocols[idx].on_feedback(&ctx, &feedback, &mut rng);
                }
                if self.jobs.outcomes[idx].is_some() || slot + 1 >= spec.deadline {
                    if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                        self.jobs.accesses[idx].transmissions += tx;
                        self.jobs.accesses[idx].listens += li;
                    }
                    self.duty.dead_backstops += 1;
                    if self.jobs.outcomes[idx].is_none() {
                        self.jobs.outcomes[idx] = Some(JobOutcome::Missed);
                    }
                    continue;
                }
                match self.jobs.protocols[idx].duty_cycle(&ctx) {
                    // Unchanged schedule (the overwhelmingly common case):
                    // one struct compare, no division.
                    Some(dc) if self.duty.reg_dc[idx] == Some(dc) => {}
                    Some(dc) if self.duty.key_matches(idx, &dc, spec.release) => {
                        self.duty.reg_dc[idx] = Some(dc);
                    }
                    Some(dc) => {
                        if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                            self.jobs.accesses[idx].transmissions += tx;
                            self.jobs.accesses[idx].listens += li;
                        }
                        self.duty.register(idx, &dc, spec.release, slot);
                    }
                    None => {
                        // Contract: `None` from a registered job signals
                        // completion — retire it here, sparing a separate
                        // `is_done` virtual call on the hot path.
                        if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                            self.jobs.accesses[idx].transmissions += tx;
                            self.jobs.accesses[idx].listens += li;
                        }
                        self.duty.dead_backstops += 1;
                        if self.jobs.outcomes[idx].is_none() {
                            self.jobs.outcomes[idx] = Some(JobOutcome::Missed);
                        }
                    }
                }
            }

            // Listen groups: one representative decides whether this slot's
            // feedback is group-invariant. If it is, nothing happens per
            // member (their listen counters are settled lazily, in closed
            // form, at deregistration); if not, every member observes the
            // feedback individually — the always-correct fallback. A slot
            // that delivered a member's own data forces the fallback so
            // `duty_listen` implementations never reason about delivery.
            for li in 0..self.scratch.listen_groups.len() {
                let gi = self.scratch.listen_groups[li] as usize;
                if self.duty.groups[gi].members.is_empty() {
                    continue;
                }
                let mut forced = false;
                if let Feedback::Success { src, payload } = &feedback {
                    if payload.is_data() {
                        let owner = payload.data_owner().unwrap_or(*src) as usize;
                        if let Some(&(g1, p)) = self.duty.where_of.get(owner) {
                            forced = g1 as usize == gi + 1
                                && self.duty.groups[gi].members.get(p as usize)
                                    == Some(&(owner as u32));
                        }
                    }
                }
                // Members registered during this slot's feedback passes
                // (`reg_slot == slot + 1`) already observed the slot on the
                // path that brought them here: they are skipped below and
                // cannot represent the group.
                if !forced {
                    let Some(&rep) = self.duty.groups[gi]
                        .members
                        .iter()
                        .find(|&&m| self.duty.reg_slot[m as usize] <= slot)
                    else {
                        continue;
                    };
                    let rep = rep as usize;
                    let spec = self.jobs.specs[rep];
                    let ctx = JobCtx {
                        id: spec.id,
                        window: spec.window(),
                        local_time: slot - spec.release,
                        aligned_time: aligned_clock.then_some(slot),
                        probed,
                    };
                    if self.jobs.protocols[rep].duty_listen(&ctx, &feedback) {
                        continue;
                    }
                }
                let mut m = 0;
                while m < self.duty.groups[gi].members.len() {
                    let idx = self.duty.groups[gi].members[m] as usize;
                    if self.duty.reg_slot[idx] > slot {
                        m += 1;
                        continue;
                    }
                    let spec = self.jobs.specs[idx];
                    let ctx = JobCtx {
                        id: spec.id,
                        window: spec.window(),
                        local_time: slot - spec.release,
                        aligned_time: aligned_clock.then_some(slot),
                        probed,
                    };
                    let mut rng = CounterRng::new(self.jobs.keys[idx], slot, Phase::Feedback);
                    self.jobs.protocols[idx].on_feedback(&ctx, &feedback, &mut rng);
                    if probed {
                        // The drain pass walks the polled snapshot; fanned-
                        // out listeners may have emitted events too.
                        self.scratch.polled.push(idx as u32);
                    }
                    if self.jobs.outcomes[idx].is_some() || slot + 1 >= spec.deadline {
                        // The lazy settle covers `[reg_slot, slot)`; the
                        // fan-out slot itself was attended, so count it.
                        if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                            self.jobs.accesses[idx].transmissions += tx;
                            self.jobs.accesses[idx].listens += li + 1;
                        }
                        self.duty.dead_backstops += 1;
                        if self.jobs.outcomes[idx].is_none() {
                            self.jobs.outcomes[idx] = Some(JobOutcome::Missed);
                        }
                        continue;
                    }
                    match self.jobs.protocols[idx].duty_cycle(&ctx) {
                        Some(dc) if self.duty.reg_dc[idx] == Some(dc) => m += 1,
                        Some(dc) if self.duty.key_matches(idx, &dc, spec.release) => {
                            self.duty.reg_dc[idx] = Some(dc);
                            m += 1;
                        }
                        Some(dc) => {
                            if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                                self.jobs.accesses[idx].transmissions += tx;
                                self.jobs.accesses[idx].listens += li + 1;
                            }
                            self.duty.register(idx, &dc, spec.release, slot);
                            // `swap_remove` filled slot `m` with another
                            // member: revisit the same index.
                        }
                        None => {
                            // Completion signal (see `duty_cycle` contract).
                            if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                                self.jobs.accesses[idx].transmissions += tx;
                                self.jobs.accesses[idx].listens += li + 1;
                            }
                            self.duty.dead_backstops += 1;
                            if self.jobs.outcomes[idx].is_none() {
                                self.jobs.outcomes[idx] = Some(JobOutcome::Missed);
                            }
                        }
                    }
                }
            }

            // 5a'. Aggregate classes settle the slot: each driver observes
            // the public feedback — exactly what a listening member sees —
            // updates its shared state, and reports state changes that
            // materialize members (elected leaders leaving the aggregate as
            // exact-path jobs). Delivered members were already credited via
            // the generic delivery path (the materialized member is the
            // slot's `src`); the driver merely drops them from its live set.
            if cohort_mode && !self.classes.entries.is_empty() {
                for e_idx in 0..self.classes.entries.len() {
                    let entry = &mut self.classes.entries[e_idx];
                    entry
                        .driver
                        .end_slot(slot, &feedback, &mut self.scratch.class_outbox);
                    entry.count = 0;
                    let live = entry.driver.live();
                    self.classes.total -= entry.live - live;
                    entry.live = live;
                    for ev in self.scratch.class_outbox.drain(..) {
                        match ev {
                            ClassEvent::Eject { member, protocol } => {
                                // The replacement protocol arrives
                                // pre-synchronized: no `on_activate`, polling
                                // starts next slot under the member's normal
                                // local clock.
                                self.jobs.protocols[member as usize] = protocol;
                                self.active.push(member);
                            }
                        }
                    }
                }
            }

            // 5b. Drain protocol-emitted probe events, stamping slot/job and
            // enriching `SizeEstimate` with ground truth (the engine is the
            // only component entitled to a global view). Drained in job-id
            // order so the bus stream is independent of active-set order
            // (parked jobs never hold pending events — they emit only from
            // slots they attend; the polled snapshot still includes jobs
            // that just retired or parked, whose final events must flush).
            if probed {
                self.scratch.probe_order.clear();
                self.scratch
                    .probe_order
                    .extend_from_slice(&self.scratch.polled);
                self.scratch.probe_order.sort_unstable();
                for k in 0..self.scratch.probe_order.len() {
                    let idx = self.scratch.probe_order[k] as usize;
                    self.jobs.protocols[idx].drain_events(&mut self.event_scratch);
                    if self.event_scratch.is_empty() {
                        continue;
                    }
                    let id = self.jobs.specs[idx].id;
                    for mut event in self.event_scratch.drain(..) {
                        if let ProbeEvent::SizeEstimate { class, n_true, .. } = &mut event {
                            *n_true = Self::live_class_size(&self.jobs.specs, *class, slot);
                        }
                        bus.on_event(&ProbeRecord {
                            slot,
                            job: Some(id),
                            event,
                        });
                    }
                }
                // Class drivers emit on behalf of the whole aggregate, so
                // their records carry no job id; entries are visited in
                // insertion order, which is activation order — deterministic
                // for a given instance and seed.
                for e_idx in 0..self.classes.entries.len() {
                    self.classes.entries[e_idx]
                        .driver
                        .drain_events(&mut self.event_scratch);
                    for mut event in self.event_scratch.drain(..) {
                        if let ProbeEvent::SizeEstimate { class, n_true, .. } = &mut event {
                            *n_true = Self::live_class_size(&self.jobs.specs, *class, slot);
                        }
                        bus.on_event(&ProbeRecord {
                            slot,
                            job: None,
                            event,
                        });
                    }
                }
            }
            // Classes dissolve at their shared deadline or once every member
            // delivered / ejected / gave up. Members still aggregated at the
            // deadline settle to Missed in the end-of-run sweep.
            if cohort_mode {
                let mut c = 0;
                while c < self.classes.entries.len() {
                    let entry = &self.classes.entries[c];
                    if slot + 1 >= entry.deadline || entry.live == 0 {
                        self.classes.total -= entry.live;
                        self.classes.entries.swap_remove(c);
                        continue;
                    }
                    c += 1;
                }
            }

            slot += 1;
        }
        // A natural exit (horizon, cap, or the all-dead break) means only
        // the epilogue remains; a pause leaves the loop resumable.
        self.run_state = Some(RunState {
            max_slots,
            next_pending,
            counts,
            bus,
            sched_stats,
            contention_sum,
            jam_rng,
            slot,
            base_slot,
            engine_nanos: engine_nanos
                + started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            done: !paused,
        });
    }

    /// Run any remaining slots and assemble the [`SimReport`] — the
    /// epilogue of the historically monolithic `run`. Consumes the run
    /// state; the engine needs an [`Engine::reset`] before another run.
    pub fn finish(&mut self) -> SimReport {
        if self.run_state.is_none() {
            self.begin();
        }
        self.step_until(u64::MAX);
        let st = self
            .run_state
            .take()
            .expect("step_until preserves run state");
        let started = std::time::Instant::now();
        let wants_slots = st.bus.wants_slots();
        let probed = st.bus.wants_events();
        let RunState {
            counts,
            mut bus,
            mut sched_stats,
            contention_sum,
            slot,
            base_slot,
            engine_nanos,
            ..
        } = st;

        // Jobs still in the duty layer when the loop ended (the slot cap
        // arrived before their deadline backstop fired): settle the standing
        // transmissions and aggregate listens they made before the cap,
        // exactly as dense polling would have counted them.
        if self.duty.total > 0 {
            for idx in 0..self.jobs.len() {
                if let Some((tx, li)) = self.duty.deregister(idx, slot) {
                    self.jobs.accesses[idx].transmissions += tx;
                    self.jobs.accesses[idx].listens += li;
                }
            }
        }

        // Anything still pending or live when the horizon hit missed.
        for outcome in &mut self.jobs.outcomes {
            outcome.get_or_insert(JobOutcome::Missed);
        }

        // Retirement events, in job-id order. Outcomes and access counters
        // are pure functions of the instance and seed (the equivalence
        // suite's invariant), so this stream is identical across scheduling
        // modes despite being assembled after the loop.
        if probed {
            for idx in 0..self.jobs.len() {
                let spec = self.jobs.specs[idx];
                let outcome = self.jobs.outcomes[idx].expect("outcome just defaulted");
                let end = match outcome {
                    JobOutcome::Success { slot } => slot,
                    JobOutcome::Missed => spec.deadline.min(slot).max(spec.release),
                };
                bus.on_event(&ProbeRecord {
                    slot: end,
                    job: Some(spec.id),
                    event: ProbeEvent::JobRetired {
                        success: outcome.is_success(),
                        latency: end - spec.release,
                        window: spec.window(),
                        transmissions: self.jobs.accesses[idx].transmissions,
                        listens: self.jobs.accesses[idx].listens,
                    },
                });
            }
        }

        sched_stats.parks = self.parked.pushes();
        sched_stats.peak_parked = self.parked.peak() as u64;

        let mut outputs = bus.finish();
        let trace = if self.config.record_trace {
            match outputs.remove(0) {
                crate::probe::ProbeOutput::Trace(t) => Some(t),
                other => unreachable!("VecSink is attached first, got {other:?}"),
            }
        } else {
            None
        };
        let probes = if self.config.probe.is_some() {
            Some(ProbeReport { outputs })
        } else {
            None
        };

        let specs: Vec<JobSpec> = self.jobs.specs.clone();
        let outcomes: Vec<JobOutcome> = self.jobs.outcomes.iter().map(|o| o.unwrap()).collect();
        let accesses: Vec<AccessCounts> = self.jobs.accesses.clone();
        // Process-wide counters account slots *this engine executed*: a
        // checkpoint-restored run contributes only its suffix, so prefix
        // slots are never double-counted across branches.
        let executed = slot - base_slot;
        SLOTS_EXECUTED_TOTAL.fetch_add(executed, std::sync::atomic::Ordering::Relaxed);
        crate::telemetry::SLOTS_SIMULATED.add(executed);
        SimReport::new(
            specs,
            outcomes,
            counts,
            accesses,
            slot,
            JamStats {
                attempted: self.jammer.attempted(),
                succeeded: self.jammer.succeeded(),
            },
            self.seeds.master(),
            engine_nanos + started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            sched_stats,
            ContentionStats {
                declared_sum: contention_sum,
                measured_slots: if wants_slots { slot } else { 0 },
            },
            trace,
            probes,
        )
    }

    /// FNV-1a digest of the run's static inputs: master seed, the
    /// behavior-relevant config fields, the jammer's `p_jam`, and the job
    /// specs. Two engines with equal fingerprints and equal construction
    /// (same protocol factory, same adversary spec) execute identically,
    /// which is what makes a [`Checkpoint`] transplantable between them.
    fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.word(self.seeds.master());
        match self.config.max_slots {
            Some(cap) => {
                d.word(1);
                d.word(cap);
            }
            None => d.word(0),
        }
        d.word(u64::from(self.config.expose_aligned_clock));
        d.word(match self.config.scheduling {
            Scheduling::EventDriven => 0,
            Scheduling::Dense => 1,
        });
        d.word(match self.config.fidelity {
            Fidelity::Exact => 0,
            Fidelity::Cohort => 1,
            Fidelity::Vectorized => 2,
        });
        d.word(self.jammer.p_jam().to_bits());
        d.word(self.jobs.len() as u64);
        for s in &self.jobs.specs {
            d.word(u64::from(s.id));
            d.word(s.release);
            d.word(s.deadline);
        }
        d.finish()
    }

    /// Capture the paused run as a serializable [`Checkpoint`].
    ///
    /// The engine must be paused at a slot boundary by [`Engine::run_to`]
    /// with slots still ahead of it, and the run must be unobserved (no
    /// trace, no probe sinks). Every live job's protocol, every live class
    /// driver, and the adversary must support state capture; see the
    /// [`crate::checkpoint`] module docs for what that means and for the
    /// known-unsupported cases (e.g. eject-materialized takeover
    /// protocols, which are live jobs whose state a factory cannot
    /// rebuild unless their protocol implements
    /// [`Protocol::save_state`]).
    ///
    /// The snapshot does not disturb the run: the same engine can keep
    /// executing afterwards, and a fresh engine restored from the snapshot
    /// will finish bit-identically to this one.
    pub fn snapshot(&self) -> Result<Checkpoint, CheckpointError> {
        let st = self.run_state.as_ref().ok_or(CheckpointError::NotPaused)?;
        if st.done {
            return Err(CheckpointError::Finished);
        }
        if self.config.record_trace || self.config.probe.is_some() {
            return Err(CheckpointError::Unsupported(
                "trace or probe recording is active; snapshots cover unobserved runs only".into(),
            ));
        }

        // Jobs whose protocol state must travel: the active set, parked
        // jobs still awaiting an outcome (wake hints and duty backstops),
        // and duty-registered jobs. Aggregate-managed jobs (class, kernel)
        // get no protocol callbacks after admission, so the factory-built
        // protocol in the restore target is already exact;
        // pending and retired jobs likewise travel as `None`.
        let n = self.jobs.len();
        let mut needs = vec![false; n];
        for &j in &self.active {
            needs[j as usize] = true;
        }
        let (parked_base, parked_entries, parked_pushes, parked_peak) = self.parked.save();
        for &(_, j) in &parked_entries {
            if self.jobs.outcomes[j as usize].is_none() {
                needs[j as usize] = true;
            }
        }
        for (j, &(g1, _)) in self.duty.where_of.iter().enumerate() {
            if g1 != 0 {
                needs[j] = true;
            }
        }
        let mut protocol_state = Vec::with_capacity(n);
        for (j, need) in needs.iter().enumerate() {
            if !need {
                protocol_state.push(None);
                continue;
            }
            match self.jobs.protocols[j].save_state() {
                Some(blob) => protocol_state.push(Some(blob)),
                None => {
                    return Err(CheckpointError::Unsupported(format!(
                        "protocol of live job {j} does not implement save_state"
                    )))
                }
            }
        }

        let mut classes = Vec::with_capacity(self.classes.entries.len());
        for e in &self.classes.entries {
            let Some(state) = e.driver.save_state() else {
                return Err(CheckpointError::Unsupported(format!(
                    "class driver (tag {}) does not implement save_state",
                    e.tag
                )));
            };
            classes.push(ClassSnap {
                tag: e.tag,
                release: e.release,
                deadline: e.deadline,
                live: e.live as u64,
                opener: e.opener,
                state,
            });
        }

        let Some(adversary) = self.jammer.adversary_state() else {
            return Err(CheckpointError::Unsupported(
                "adversary does not implement save_state".into(),
            ));
        };

        crate::telemetry::CHECKPOINTS_SAVED.add(1);
        Ok(Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint(),
            master_seed: self.seeds.master(),
            slot: st.slot,
            next_pending: st.next_pending as u64,
            counts: st.counts,
            gap_skips: st.sched_stats.gap_skips,
            gap_slots: st.sched_stats.gap_slots,
            contention_sum_bits: st.contention_sum.to_bits(),
            jam_word_pos: st.jam_rng.get_word_pos(),
            outcomes: self.jobs.outcomes.clone(),
            accesses: self.jobs.accesses.clone(),
            active: self.active.clone(),
            parked: ParkedSnap {
                base: parked_base,
                entries: parked_entries,
                pushes: parked_pushes,
                peak: parked_peak,
            },
            protocol_state,
            duty: DutySnap {
                groups: self
                    .duty
                    .groups
                    .iter()
                    .map(|g| DutyGroupSnap {
                        period: g.period,
                        anchor_mod: g.anchor_mod,
                        wake_mask: g.wake_mask,
                        tx_mask: g.tx_mask,
                        listen_mask: g.listen_mask,
                        payload: g.payload,
                        members: g.members.clone(),
                    })
                    .collect(),
                total: self.duty.total as u64,
                where_of: self.duty.where_of.clone(),
                reg_dc: self.duty.reg_dc.clone(),
                reg_slot: self.duty.reg_slot.clone(),
                backstopped: self.duty.backstopped.clone(),
                dead_backstops: self.duty.dead_backstops,
            },
            classes,
            kernel: if self.config.fidelity != Fidelity::Exact {
                self.kernel.save()
            } else {
                Vec::new()
            },
            jams_attempted: self.jammer.attempted(),
            jams_succeeded: self.jammer.succeeded(),
            adversary,
        })
    }

    /// Rebuild the paused run captured by `ck` onto this engine.
    ///
    /// The engine must be a *fresh* restore target constructed from the
    /// same static inputs as the snapshotted run: same config, same seed,
    /// same jobs (added through the same factory), same jammer spec —
    /// [`Checkpoint::fingerprint`] guards the seed/config/job part of that
    /// contract. On success the engine behaves exactly as if it had
    /// executed slots `0..ck.slot` itself: resume with [`Engine::run_to`]
    /// or [`Engine::finish`], or perturb the future first with
    /// [`Engine::swap_adversary`].
    ///
    /// On error the engine is left half-restored and unusable; discard it.
    /// (`ran` is already set, so accidental reuse panics rather than
    /// producing garbage.)
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        if ck.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint version {} (this build reads {CHECKPOINT_VERSION})",
                ck.version
            )));
        }
        if self.ran || self.run_state.is_some() {
            return Err(CheckpointError::Unsupported(
                "restore target must be a fresh engine (jobs added, never run)".into(),
            ));
        }
        if self.config.record_trace || self.config.probe.is_some() {
            return Err(CheckpointError::Unsupported(
                "trace or probe recording is active; checkpoints cover unobserved runs only".into(),
            ));
        }
        let fp = self.fingerprint();
        if fp != ck.fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "engine fingerprint {fp:#018x} != checkpoint {:#018x} \
                 (seed, config, p_jam, or job set differs)",
                ck.fingerprint
            )));
        }
        let n = self.jobs.len();
        if ck.outcomes.len() != n
            || ck.accesses.len() != n
            || ck.protocol_state.len() != n
            || ck.duty.where_of.len() != n
            || ck.duty.reg_dc.len() != n
            || ck.duty.reg_slot.len() != n
            || ck.duty.backstopped.len() != n
            || ck.next_pending as usize > n
        {
            return Err(CheckpointError::Mismatch(
                "per-job vector lengths do not match the job count".into(),
            ));
        }
        let in_range = |xs: &[u32]| xs.iter().all(|&j| (j as usize) < n);
        if !in_range(&ck.active)
            || !ck.parked.entries.iter().all(|&(_, j)| (j as usize) < n)
            || !ck.duty.groups.iter().all(|g| in_range(&g.members))
        {
            return Err(CheckpointError::Mismatch("job index out of range".into()));
        }

        self.begin();

        // Run-state scalars and the jammer's stateful RNG stream.
        // (Everything else draws from counter-based streams keyed on
        // `(key, slot, phase)`, which need no repositioning.)
        {
            let st = self.run_state.as_mut().expect("begin installs run state");
            st.slot = ck.slot;
            st.base_slot = ck.slot;
            st.next_pending = ck.next_pending as usize;
            st.counts = ck.counts;
            st.sched_stats.gap_skips = ck.gap_skips;
            st.sched_stats.gap_slots = ck.gap_slots;
            st.contention_sum = f64::from_bits(ck.contention_sum_bits);
            st.jam_rng.set_word_pos(ck.jam_word_pos);
        }

        self.jobs.outcomes.copy_from_slice(&ck.outcomes);
        self.jobs.accesses.copy_from_slice(&ck.accesses);
        self.active.clear();
        self.active.extend_from_slice(&ck.active);
        self.parked.load(
            ck.parked.base,
            &ck.parked.entries,
            ck.parked.pushes,
            ck.parked.peak,
        );

        // Duty layer, verbatim — group *member order* selects the listen
        // representative, so groups are transplanted, never re-registered.
        self.duty.groups.clear();
        for g in &ck.duty.groups {
            if g.period == 0 || g.period > 64 || g.anchor_mod >= g.period {
                return Err(CheckpointError::Mismatch("duty group out of range".into()));
            }
            self.duty.groups.push(DutyGroup {
                period: g.period,
                anchor_mod: g.anchor_mod,
                wake_mask: g.wake_mask,
                tx_mask: g.tx_mask,
                listen_mask: g.listen_mask,
                payload: g.payload,
                members: g.members.clone(),
            });
        }
        if ck
            .duty
            .where_of
            .iter()
            .any(|&(g1, _)| g1 as usize > ck.duty.groups.len())
        {
            return Err(CheckpointError::Mismatch(
                "duty membership points past the group list".into(),
            ));
        }
        self.duty.total = ck.duty.total as usize;
        self.duty.where_of.copy_from_slice(&ck.duty.where_of);
        self.duty.reg_dc.copy_from_slice(&ck.duty.reg_dc);
        self.duty.reg_slot.copy_from_slice(&ck.duty.reg_slot);
        self.duty.backstopped.copy_from_slice(&ck.duty.backstopped);
        self.duty.dead_backstops = ck.duty.dead_backstops;

        // Class aggregates: rebuild each driver through its opening job's
        // protocol (exactly how the original run obtained it), then replay
        // the captured dynamic state over it.
        self.classes.clear();
        for c in &ck.classes {
            let opener = c.opener as usize;
            if opener >= n {
                return Err(CheckpointError::Mismatch(
                    "class opener out of range".into(),
                ));
            }
            let spec = self.jobs.specs[opener];
            if spec.release != c.release || spec.deadline != c.deadline {
                return Err(CheckpointError::Mismatch(
                    "class opener window differs from the checkpoint".into(),
                ));
            }
            let ctx = JobCtx {
                id: spec.id,
                window: spec.window(),
                local_time: 0,
                aligned_time: self.config.expose_aligned_clock.then_some(spec.release),
                probed: false,
            };
            let cctx = ClassCtx {
                release: c.release,
                deadline: c.deadline,
                window: c.deadline - c.release,
                class_seed: self.seeds.derive(
                    StreamLabel::Class,
                    class_stream_index(c.tag, c.release, c.deadline),
                ),
                probed: false,
            };
            let Some(mut driver) = self.jobs.protocols[opener].class_driver(&ctx, &cctx) else {
                return Err(CheckpointError::Unsupported(format!(
                    "job {opener} does not open a class driver for tag {}",
                    c.tag
                )));
            };
            if !driver.restore_state(&c.state) {
                return Err(CheckpointError::Unsupported(format!(
                    "class driver (tag {}) rejected its state blob",
                    c.tag
                )));
            }
            if driver.live() as u64 != c.live {
                return Err(CheckpointError::Mismatch(
                    "restored class live count differs from the checkpoint".into(),
                ));
            }
            self.classes.total += c.live as usize;
            self.classes.entries.push(ClassEntry {
                tag: c.tag,
                release: c.release,
                deadline: c.deadline,
                live: c.live as usize,
                count: 0,
                opener: c.opener,
                driver,
            });
        }

        // The vectorized kernel (prepared by `begin`): calendar and
        // per-job homes from the flat blob.
        if self.config.fidelity != Fidelity::Exact {
            if !self.kernel.load(&ck.kernel) {
                return Err(CheckpointError::Mismatch("kernel blob is malformed".into()));
            }
        } else if !ck.kernel.is_empty() {
            return Err(CheckpointError::Mismatch(
                "kernel blob present but fidelity is exact".into(),
            ));
        }

        // Live protocols: replay each captured blob over the factory-built
        // instance.
        for (j, blob) in ck.protocol_state.iter().enumerate() {
            let Some(blob) = blob else { continue };
            if !self.jobs.protocols[j].restore_state(blob) {
                return Err(CheckpointError::Unsupported(format!(
                    "protocol of job {j} rejected its state blob"
                )));
            }
        }

        if !self
            .jammer
            .restore(ck.jams_attempted, ck.jams_succeeded, &ck.adversary)
        {
            return Err(CheckpointError::Unsupported(
                "adversary rejected its state blob".into(),
            ));
        }

        crate::telemetry::CHECKPOINTS_RESTORED.add(1);
        Ok(())
    }

    /// Replace the jamming adversary mid-run, keeping the jam counters
    /// (see [`Jammer::swap_adversary`]). This is the branch point of a
    /// checkpointed sweep: restore a shared prefix, swap in a perturbed
    /// adversary, and resume — the suffix diverges while the prefix's
    /// accounting carries over.
    pub fn swap_adversary(&mut self, adversary: Box<dyn Adversary>, p_jam: f64) {
        self.jammer.swap_adversary(adversary, p_jam);
    }

    /// Route an activating job into its aggregate class, opening the class
    /// driver at first contact (see [`CohortTx::Class`]). Returns `false`
    /// when the protocol declines to supply a driver, in which case the
    /// caller activates the job on the exact per-job path.
    fn admit_class(&mut self, tag: u64, spec: &JobSpec, ctx: &JobCtx) -> bool {
        if let Some(entry) = self.classes.find_mut(tag, spec.release, spec.deadline) {
            entry.driver.admit(spec.id);
            entry.live += 1;
            self.classes.total += 1;
            return true;
        }
        let cctx = ClassCtx {
            release: spec.release,
            deadline: spec.deadline,
            window: spec.window(),
            class_seed: self.seeds.derive(
                StreamLabel::Class,
                class_stream_index(tag, spec.release, spec.deadline),
            ),
            probed: ctx.probed,
        };
        let Some(mut driver) = self.jobs.protocols[spec.id as usize].class_driver(ctx, &cctx)
        else {
            return false;
        };
        driver.admit(spec.id);
        self.classes.entries.push(ClassEntry {
            tag,
            release: spec.release,
            deadline: spec.deadline,
            live: 1,
            count: 0,
            opener: spec.id,
            driver,
        });
        self.classes.total += 1;
        true
    }

    /// Ground truth for [`ProbeEvent::SizeEstimate`]: the number of class-ℓ
    /// jobs (window exactly `2^class`) whose window contains `slot`.
    fn live_class_size(specs: &[JobSpec], class: u32, slot: u64) -> u64 {
        let w = 1u64 << class;
        specs
            .iter()
            .filter(|s| s.window() == w && s.release <= slot && slot < s.deadline)
            .count() as u64
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Donate the allocations to this thread's pool (cleared first, so a
        // pooled carcass is indistinguishable from a fresh one).
        let mut carcass = arena::Carcass {
            jobs: std::mem::take(&mut self.jobs),
            active: std::mem::take(&mut self.active),
            by_release: std::mem::take(&mut self.by_release),
            parked: std::mem::take(&mut self.parked),
            scratch: std::mem::take(&mut self.scratch),
            event_scratch: std::mem::take(&mut self.event_scratch),
            classes: std::mem::take(&mut self.classes),
            duty: std::mem::take(&mut self.duty),
            kernel: std::mem::take(&mut self.kernel),
        };
        carcass.clear();
        arena::stash(carcass);
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::jamming::JamPolicy;
    use crate::rng::sample_binomial;

    /// Transmit the data message in a fixed local slot.
    struct AtLocal(u64);
    impl Protocol for AtLocal {
        fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            if ctx.local_time == self.0 {
                Action::Transmit(Payload::Data(ctx.id))
            } else {
                Action::Listen
            }
        }
    }

    /// Record every feedback observed.
    struct Recorder {
        seen: Vec<Feedback>,
        when: u64,
    }
    impl Protocol for Recorder {
        fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            if ctx.local_time == self.when {
                Action::Transmit(Payload::Data(ctx.id))
            } else {
                Action::Listen
            }
        }
        fn on_feedback(&mut self, _ctx: &JobCtx, fb: &Feedback, _rng: &mut dyn RngCore) {
            self.seen.push(*fb);
        }
    }

    #[test]
    fn lone_transmitter_succeeds() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Success { slot: 2 });
        assert_eq!(r.counts.success, 1);
        assert_eq!(r.counts.data_success, 1);
    }

    #[test]
    fn two_transmitters_collide() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(1)));
        let r = e.run();
        assert!(!r.outcome(0).is_success());
        assert!(!r.outcome(1).is_success());
        assert_eq!(r.counts.collision, 1);
    }

    #[test]
    fn staggered_transmitters_both_succeed() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(3)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Success { slot: 1 });
        assert_eq!(r.outcome(1), JobOutcome::Success { slot: 3 });
    }

    #[test]
    fn listener_observes_success_and_noise() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        // Jobs 0 and 1 collide at slot 1; job 2 transmits alone at slot 2.
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(1)));
        e.add_job(
            JobSpec::new(2, 0, 4),
            Box::new(Recorder {
                seen: vec![],
                when: 2,
            }),
        );
        let r = e.run();
        assert!(r.outcome(2).is_success());
        // Recorder saw: silent(0), noise(1), own success(2); retired after 2.
        // We can't reach the recorder anymore, but the trace confirms.
        assert_eq!(r.counts.collision, 1);
        assert_eq!(r.counts.success, 1);
    }

    #[test]
    fn deadline_miss_is_recorded() {
        struct Mute;
        impl Protocol for Mute {
            fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                Action::Listen
            }
        }
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 3), Box::new(Mute));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Missed);
        assert_eq!(r.slots_run, 3);
    }

    #[test]
    fn job_cannot_act_after_window() {
        // A protocol that would transmit at local_time 5, but window is 3.
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 3), Box::new(AtLocal(5)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Missed);
        assert_eq!(r.counts.success, 0);
    }

    #[test]
    fn jammer_turns_success_into_noise() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 1.0));
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Missed);
        assert_eq!(r.counts.jammed, 1);
        assert_eq!(r.counts.success, 0);
    }

    #[test]
    fn jam_attempts_surface_in_report() {
        // p_jam = 0 means every attempt fails: counts.jammed stays 0, yet
        // the attempt is still visible in jam_stats (the whole point of
        // surfacing adversary counters).
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 0.0));
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        let r = e.run();
        assert!(r.outcome(0).is_success());
        assert_eq!(r.counts.jammed, 0);
        assert_eq!(r.jam_stats.attempted, 1);
        assert_eq!(r.jam_stats.succeeded, 0);
    }

    #[test]
    fn jam_stats_agree_with_slot_counts() {
        let mut e = Engine::new(EngineConfig::default(), 7);
        e.set_jammer(Jammer::new(JamPolicy::AllSuccesses, 1.0));
        for id in 0..4 {
            e.add_job(
                JobSpec::new(id, u64::from(id) * 8, u64::from(id) * 8 + 8),
                Box::new(AtLocal(2)),
            );
        }
        let r = e.run();
        assert_eq!(r.jam_stats.succeeded, r.counts.jammed);
        assert_eq!(r.jam_stats.attempted, 4);
    }

    #[test]
    fn budgeted_adversary_respects_budget() {
        use crate::jamming::BudgetedJammer;
        // Four lone transmitters, budget 2, p_jam 1: exactly the first two
        // successes are destroyed, then the ammunition is gone.
        let mut e = Engine::new(EngineConfig::default(), 3);
        e.set_jammer(Jammer::adaptive(
            Box::new(BudgetedJammer::new(2, false)),
            1.0,
        ));
        for id in 0..4 {
            e.add_job(
                JobSpec::new(id, u64::from(id) * 8, u64::from(id) * 8 + 8),
                Box::new(AtLocal(1)),
            );
        }
        let r = e.run();
        assert_eq!(r.counts.jammed, 2);
        assert_eq!(r.jam_stats.attempted, 2);
        assert!(!r.outcome(0).is_success());
        assert!(!r.outcome(1).is_success());
        assert!(r.outcome(2).is_success());
        assert!(r.outcome(3).is_success());
    }

    #[test]
    fn trace_matches_counts() {
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(1, 0, 4), Box::new(AtLocal(1)));
        e.add_job(JobSpec::new(2, 0, 6), Box::new(AtLocal(4)));
        let r = e.run();
        let t = crate::trace::tally(r.trace.as_ref().unwrap());
        assert_eq!(t.success, r.counts.success);
        assert_eq!(t.collision, r.counts.collision);
        assert_eq!(t.silent, r.counts.silent);
        assert_eq!(t.jammed, r.counts.jammed);
        assert_eq!(t.data_success, r.counts.data_success);
        assert!(t.data_success > 0, "the lone slot-4 transmitter delivers");
    }

    #[test]
    fn idle_gap_fast_forward() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 2), Box::new(AtLocal(0)));
        e.add_job(JobSpec::new(1, 1_000_000, 1_000_002), Box::new(AtLocal(0)));
        let r = e.run();
        assert!(r.outcome(0).is_success());
        assert!(r.outcome(1).is_success());
        // The gap is skipped in O(1), but stays accounted as silence:
        // the books always balance. (That this test completes instantly
        // is itself the evidence the loop did not walk a million slots.)
        assert_eq!(r.counts.total(), r.slots_run);
        assert!(r.counts.silent >= 999_000);
    }

    #[test]
    fn aligned_clock_exposure() {
        struct NeedsClock;
        impl Protocol for NeedsClock {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                // With alignment, global time is release + local_time.
                assert_eq!(ctx.aligned_now(), 8 + ctx.local_time);
                Action::Listen
            }
        }
        let mut e = Engine::new(EngineConfig::aligned(), 1);
        e.add_job(JobSpec::new(0, 8, 16), Box::new(NeedsClock));
        let _ = e.run();
    }

    #[test]
    fn unaligned_ctx_hides_global_clock() {
        struct AssertHidden;
        impl Protocol for AssertHidden {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                assert!(ctx.aligned_time.is_none());
                Action::Listen
            }
        }
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 3, 7), Box::new(AssertHidden));
        let _ = e.run();
    }

    #[test]
    fn probe_report_present_only_when_configured() {
        use crate::probe::{ProbeSpec, SinkSpec};
        let run = |probe: Option<ProbeSpec>| {
            let config = EngineConfig {
                probe,
                ..EngineConfig::default()
            };
            let mut e = Engine::new(config, 5);
            e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(1)));
            e.run()
        };
        assert!(run(None).probes.is_none());
        let r = run(Some(ProbeSpec::new().with(SinkSpec::Events)));
        let probes = r.probes.expect("probe spec configured");
        let events = probes.events().expect("events sink configured");
        // No protocol emissions from AtLocal, but the engine retires the job.
        assert!(events
            .iter()
            .any(|rec| matches!(rec.event, ProbeEvent::JobRetired { success: true, .. })));
    }

    #[test]
    fn gap_skip_events_reach_sinks_and_sched_stats() {
        use crate::probe::{ProbeSpec, SinkSpec};
        let mut e = Engine::new(
            EngineConfig::default().with_probe(ProbeSpec::new().with(SinkSpec::Events)),
            1,
        );
        e.add_job(JobSpec::new(0, 0, 2), Box::new(AtLocal(0)));
        e.add_job(JobSpec::new(1, 10_000, 10_002), Box::new(AtLocal(0)));
        let r = e.run();
        assert!(r.sched_stats.gap_skips >= 1);
        assert!(r.sched_stats.gap_slots >= 9_000);
        let probes = r.probes.unwrap();
        let events = probes.events().unwrap();
        assert!(events
            .iter()
            .any(|rec| matches!(rec.event, ProbeEvent::GapSkip { len } if len >= 9_000)));
    }

    #[test]
    fn legacy_trace_identical_with_extra_sinks_attached() {
        // The record_trace path must be bit-identical whether or not other
        // probe sinks ride along on the bus.
        use crate::probe::{ProbeSpec, SinkSpec};
        let run = |probe: Option<ProbeSpec>| {
            let config = EngineConfig {
                probe,
                ..EngineConfig::default().with_trace()
            };
            let mut e = Engine::new(config, 77);
            e.add_job(JobSpec::new(0, 0, 8), Box::new(AtLocal(1)));
            e.add_job(JobSpec::new(1, 0, 8), Box::new(AtLocal(1)));
            e.add_job(JobSpec::new(2, 4, 12), Box::new(AtLocal(3)));
            e.run()
        };
        let plain = run(None);
        let probed = run(Some(
            ProbeSpec::new()
                .with(SinkSpec::Ring { capacity: 2 })
                .with(SinkSpec::Events),
        ));
        assert_eq!(plain.trace, probed.trace);
        assert_eq!(plain.counts, probed.counts);
        // And the ring holds the trace's tail.
        let (ring, _) = probed.probes.as_ref().unwrap().ring().unwrap();
        let trace = plain.trace.as_ref().unwrap();
        assert_eq!(ring, &trace[trace.len() - 2..]);
    }

    #[test]
    fn declared_contention_in_trace() {
        struct HalfProb;
        impl Protocol for HalfProb {
            fn act(&mut self, ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
                Action::Transmit(Payload::Data(ctx.id))
            }
            fn tx_probability(&self, _ctx: &JobCtx) -> Option<f64> {
                Some(0.5)
            }
        }
        let mut e = Engine::new(EngineConfig::default().with_trace(), 1);
        e.add_job(JobSpec::new(0, 0, 2), Box::new(HalfProb));
        e.add_job(JobSpec::new(1, 0, 2), Box::new(HalfProb));
        let r = e.run();
        let trace = r.trace.as_ref().unwrap();
        assert!((trace[0].declared_contention - 1.0).abs() < 1e-12);
    }

    /// A small contended population exercising collisions and retirement,
    /// used by the reuse tests below.
    fn contended_setup(e: &mut Engine) {
        e.add_job(JobSpec::new(0, 0, 8), Box::new(AtLocal(2)));
        e.add_job(JobSpec::new(1, 1, 9), Box::new(AtLocal(1)));
        e.add_job(
            JobSpec::new(2, 0, 64),
            Box::new(Recorder {
                seen: Vec::new(),
                when: 5,
            }),
        );
    }

    #[test]
    fn reset_then_rerun_is_bit_identical() {
        let run_fresh = |seed: u64| {
            let mut e = Engine::fresh(EngineConfig::default().with_trace(), seed);
            contended_setup(&mut e);
            e.run()
        };
        let mut reused = Engine::fresh(EngineConfig::default().with_trace(), 7);
        contended_setup(&mut reused);
        let first = reused.run();
        for seed in [7u64, 99, 7] {
            reused.reset(seed);
            contended_setup(&mut reused);
            let again = reused.run();
            let fresh = run_fresh(seed);
            assert_eq!(again.outcomes(), fresh.outcomes(), "seed {seed}");
            assert_eq!(again.counts, fresh.counts, "seed {seed}");
            assert_eq!(again.accesses, fresh.accesses, "seed {seed}");
            assert_eq!(again.trace, fresh.trace, "seed {seed}");
        }
        // Same seed after unrelated runs in between: still identical.
        assert_eq!(first.outcomes(), run_fresh(7).outcomes());
    }

    #[test]
    #[should_panic(expected = "call Engine::reset between runs")]
    fn second_run_without_reset_panics() {
        let mut e = Engine::new(EngineConfig::default(), 1);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
        let _ = e.run();
        let _ = e.run();
    }

    #[test]
    fn arena_reuse_counter_climbs() {
        // Drop-then-new on one thread must hit the thread-local pool. The
        // counter is thread-local, so other tests can't interfere.
        let before = Engine::arena_reuses();
        for seed in 0..3 {
            let mut e = Engine::new(EngineConfig::default(), seed);
            e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
            let _ = e.run();
        }
        // The first construction may or may not find a carcass (other
        // tests on this thread); the second and third must.
        assert!(Engine::arena_reuses() >= before + 2);
    }

    #[test]
    fn cohort_mode_respects_exact_optouts() {
        // A protocol returning None from cohort_tx stays on the exact
        // path even under Fidelity::Cohort.
        let mut e = Engine::new(EngineConfig::default().cohort(), 3);
        e.add_job(JobSpec::new(0, 0, 4), Box::new(AtLocal(2)));
        let r = e.run();
        assert_eq!(r.outcome(0), JobOutcome::Success { slot: 2 });
    }

    /// A minimal aggregate-class protocol/driver pair: memoryless ALOHA run
    /// through the [`ClassDriver`] machinery, with every protocol callback
    /// panicking — proving class-managed jobs get no per-job dispatch at
    /// all.
    struct MustAggregate(f64);
    impl Protocol for MustAggregate {
        fn on_activate(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) {
            panic!("class-managed job was activated on the exact path");
        }
        fn act(&mut self, _ctx: &JobCtx, _rng: &mut dyn RngCore) -> Action {
            panic!("class-managed job was polled");
        }
        fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
            Some(CohortTx::Class { tag: 0xA10A })
        }
        fn class_driver(&self, _ctx: &JobCtx, cctx: &ClassCtx) -> Option<Box<dyn ClassDriver>> {
            Some(Box::new(AlohaClass {
                members: Vec::new(),
                p: self.0,
                seed: cctx.class_seed,
                nominated: None,
            }))
        }
    }
    struct AlohaClass {
        members: Vec<JobId>,
        p: f64,
        seed: u64,
        nominated: Option<usize>,
    }
    impl ClassDriver for AlohaClass {
        fn admit(&mut self, member: JobId) {
            self.members.push(member);
        }
        fn live(&self) -> usize {
            self.members.len()
        }
        fn begin_slot(&mut self, slot: u64) -> crate::classes::ClassSlot {
            let mut rng = CounterRng::new(self.seed, slot, Phase::Act);
            let m = self.members.len() as u64;
            crate::classes::ClassSlot {
                count: sample_binomial(m, self.p, &mut rng),
                declared: m as f64 * self.p,
            }
        }
        fn materialize(&mut self, slot: u64) -> (JobId, Payload) {
            let mut rng = CounterRng::new(self.seed, slot, Phase::Activate);
            let pos = rand::Rng::gen_range(&mut rng, 0..self.members.len());
            self.nominated = Some(pos);
            (self.members[pos], Payload::Data(self.members[pos]))
        }
        fn end_slot(&mut self, _slot: u64, fb: &Feedback, _out: &mut Vec<ClassEvent>) {
            if let (Some(pos), Feedback::Success { src, payload }) = (self.nominated, fb) {
                if payload.data_owner() == Some(*src) && self.members[pos] == *src {
                    self.members.swap_remove(pos);
                }
            }
            self.nominated = None;
        }
    }

    #[test]
    fn class_driver_aggregate_delivers_and_accounts() {
        let n = 400u32;
        let deadline = 4_000u64;
        let mut e = Engine::new(EngineConfig::default().cohort().with_trace(), 77);
        for i in 0..n {
            e.add_job(
                JobSpec::new(i, 0, deadline),
                Box::new(MustAggregate(1.0 / f64::from(n))),
            );
        }
        let r = e.run();
        // Contention ≈ 1 ⇒ per-slot success ≈ 1/e; most members deliver
        // well before the horizon. The engagement proof is implicit: every
        // MustAggregate callback panics.
        assert!(r.successes() > 250, "successes={}", r.successes());
        assert_eq!(r.counts.data_success, r.successes() as u64);
        // Lone class wins are credited to a real member inside the window,
        // and the materialized member's transmission is counted.
        for (id, o) in r.outcomes().iter().enumerate() {
            if let JobOutcome::Success { slot } = o {
                assert!(*slot < deadline, "job {id} success out of window");
                assert!(r.accesses_of(id as u32).transmissions >= 1);
            }
        }
        // The aggregate class contributes its m·p to declared contention:
        // near slot 0 all n members are live, so the first slot declares 1.
        let trace = r.trace.as_ref().expect("trace recorded");
        assert!((trace[0].declared_contention - 1.0).abs() < 1e-9);
        assert!(r.contention_stats.measured_slots == r.slots_run);
        let mean = r.contention_stats.mean().expect("measured");
        assert!(mean > 0.0 && mean <= 1.0, "mean declared {mean}");
    }

    #[test]
    fn class_profile_takes_exact_path_under_vectorized() {
        // Under Fidelity::Vectorized a Class-profile job must fall back to
        // exact per-job dispatch (the kernel's bit-identity contract does
        // not cover aggregates) — so a protocol whose callbacks panic
        // must panic, and a live one must behave exactly.
        struct ExactAloha(f64);
        impl Protocol for ExactAloha {
            fn act(&mut self, ctx: &JobCtx, rng: &mut dyn RngCore) -> Action {
                if rand::Rng::gen_bool(rng, self.0) {
                    Action::Transmit(Payload::Data(ctx.id))
                } else {
                    Action::Sleep
                }
            }
            fn cohort_tx(&self, _ctx: &JobCtx) -> Option<CohortTx> {
                Some(CohortTx::Class { tag: 7 })
            }
            // No class_driver: even cohort mode would fall back. The point
            // here is vectorized mode never even asks.
        }
        let run = |config: EngineConfig, seed: u64| {
            let mut e = Engine::new(config, seed);
            for i in 0..30u32 {
                e.add_job(JobSpec::new(i, 0, 800), Box::new(ExactAloha(0.03)));
            }
            e.run()
        };
        for seed in 0..3u64 {
            let exact = run(EngineConfig::default(), seed);
            let vector = run(EngineConfig::default().vectorized(), seed);
            assert_eq!(exact.outcomes(), vector.outcomes(), "seed {seed}");
            assert_eq!(exact.counts, vector.counts, "seed {seed}");
            assert_eq!(exact.accesses, vector.accesses, "seed {seed}");
        }
    }
}
