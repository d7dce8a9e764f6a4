//! Counter-based randomness for the engine hot path.
//!
//! Every protocol-visible draw in the engine is produced by a
//! Philox-style counter generator keyed on `(job_key, slot, phase)`,
//! where `job_key` is derived from the trial seed and job id by
//! [`SeedSeq::job_key`](crate::rng::SeedSeq::job_key). A draw is a pure
//! function of its position — no stream state is stored per job — which
//! buys two properties the sequential-stream design could not offer:
//!
//! 1. **Batching.** The vectorized slot kernel
//!    ([`Fidelity::Vectorized`](crate::engine::Fidelity)) calendars
//!    one-shot transmissions without materializing per-job generators.
//! 2. **Replay.** Any job's transmission schedule can be recomputed after
//!    the fact without re-running the trial: a one-shot attempt in O(1)
//!    ([`replay_oneshot`]), and slotted ALOHA one transmission at a time,
//!    each gap a [`geometric`] of the draw at the previous transmission.
//!
//! The block cipher is Philox2x64-10 (Salmon et al., SC'11 "Parallel
//! random numbers: as easy as 1, 2, 3"), hand-rolled here because the
//! vendored `rand` is deliberately minimal. Ten rounds is the
//! recommended-strength variant; the 128-bit counter gives each
//! `(slot, phase, block)` position its own independent block.

use rand::RngCore;

/// First Philox2x64 round multiplier (Random123 reference constants).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Weyl sequence increment applied to the key each round.
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Round count of the recommended-strength Philox2x64-10 variant.
const PHILOX_ROUNDS: u32 = 10;

/// One Philox2x64-10 block: encrypt a 128-bit counter under a 64-bit
/// key, producing two statistically independent 64-bit outputs.
#[inline]
#[must_use]
pub fn philox2x64(mut ctr: [u64; 2], mut key: u64) -> [u64; 2] {
    for _ in 0..PHILOX_ROUNDS {
        let prod = u128::from(ctr[0]) * u128::from(PHILOX_M);
        let hi = (prod >> 64) as u64;
        let lo = prod as u64;
        ctr = [hi ^ key ^ ctr[1], lo];
        key = key.wrapping_add(PHILOX_W);
    }
    ctr
}

/// Which protocol callback a draw belongs to.
///
/// Each phase owns a disjoint region of the counter space, so a
/// callback's draws never alias another callback's draws in the same
/// slot no matter how many words either consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Phase {
    /// Draws made by `Protocol::on_activate` (slot = release slot).
    Activate = 0,
    /// Draws made by `Protocol::act`.
    Act = 1,
    /// Draws made by `Protocol::on_feedback`.
    Feedback = 2,
}

/// Bits reserved at the top of the counter's high word for the phase
/// tag, leaving 2^61 blocks (2^62 output words) per phase per slot.
const PHASE_SHIFT: u32 = 61;

/// A positioned view into the counter stream: an [`RngCore`] that
/// yields the draw sequence for one `(job, slot, phase)` position.
///
/// Construction is free (no rounds are run until the first draw) and
/// the generator carries no heap state, so the engine builds one on the
/// stack per protocol callback. Two `CounterRng`s at the same position
/// yield identical sequences; any difference in key, slot, or phase
/// yields independent sequences.
#[derive(Debug, Clone)]
pub struct CounterRng {
    key: u64,
    slot: u64,
    phase_base: u64,
    block: u64,
    spare: Option<u64>,
}

impl CounterRng {
    /// Position a generator at `(key, slot, phase)`.
    #[inline]
    #[must_use]
    pub fn new(key: u64, slot: u64, phase: Phase) -> Self {
        Self {
            key,
            slot,
            phase_base: (phase as u64) << PHASE_SHIFT,
            block: 0,
            spare: None,
        }
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if let Some(word) = self.spare.take() {
            return word;
        }
        let out = philox2x64([self.slot, self.phase_base | self.block], self.key);
        self.block += 1;
        self.spare = Some(out[1]);
        out[0]
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// The first raw 64-bit word of the `(key, slot, phase)` position —
/// exactly what a fresh [`CounterRng`]'s first `next_u64` returns.
#[inline]
#[must_use]
pub fn draw(key: u64, slot: u64, phase: Phase) -> u64 {
    philox2x64([slot, (phase as u64) << PHASE_SHIFT], key)[0]
}

/// The gap `G ∈ {1, 2, …}` to the next success of independent
/// Bernoulli(`p`) trials, by inversion of the raw word `word`:
/// `G = 1 + floor(ln U / ln(1 − p))` with `U = 1 − unit_f64(word) ∈ (0, 1]`,
/// so `P[G > k] = (1 − p)^k` up to the 53-bit resolution of `U`.
///
/// `p ≥ 1` gives 1. A gap that does not fit in `u64` — including the
/// non-finite quotients of a vanishing `p` — is `u64::MAX`, "never". The
/// denominator is `ln_1p(−p)`, not `(1 − p).ln()`: the latter rounds to 0
/// for every `p` below about 1e-16, which would make such a job transmit
/// in every slot instead of almost never.
#[inline]
#[must_use]
pub fn geometric(word: u64, p: f64) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    let u = 1.0 - unit_f64(word);
    let g = (u.ln() / (-p).ln_1p()).floor();
    if g < u64::MAX as f64 {
        (g as u64).saturating_add(1)
    } else {
        u64::MAX
    }
}

/// Replay the transmission slot chosen at activation by a one-shot
/// protocol (UNIFORM with k = 1) released at `release` with window
/// `window`: returns the absolute slot of its single transmission.
///
/// Bit-identical to the engine path, where `on_activate` draws
/// `gen_range(0..window)` from `CounterRng::new(key, release,
/// Phase::Activate)` (the vendored `gen_range` reduces `next_u64()`
/// modulo the span).
#[inline]
#[must_use]
pub fn replay_oneshot(key: u64, release: u64, window: u64) -> u64 {
    release + draw(key, release, Phase::Activate) % window
}

/// Map a raw word to the unit interval the way the vendored
/// `Rng::gen_bool` does: take the top 53 bits as an f64 in `[0, 1)`.
#[inline]
#[must_use]
pub fn unit_f64(x: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn philox_known_answer_is_stable() {
        // Pinned outputs: any change to rounds/constants breaks every
        // stored seed's realization, which DESIGN.md §3f forbids
        // within a release line. Values are self-generated but pinned.
        assert_eq!(
            philox2x64([0, 0], 0),
            [0xCA00_A045_9843_D731, 0x66C2_4222_C9A8_45B5],
            "philox2x64([0,0], 0) drifted"
        );
        assert_eq!(
            philox2x64([0xDEAD_BEEF, 42], 0x1234_5678_9ABC_DEF0),
            [0x0BBA_E58E_E72D_B185, 0xFB54_0C62_C60D_4DC1],
            "philox2x64 drifted on a nonzero position"
        );
    }

    #[test]
    fn same_position_same_sequence() {
        let mut a = CounterRng::new(7, 42, Phase::Act);
        let mut b = CounterRng::new(7, 42, Phase::Act);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn positions_are_independent() {
        let base: Vec<u64> = {
            let mut r = CounterRng::new(1, 1, Phase::Act);
            (0..4).map(|_| r.next_u64()).collect()
        };
        for (key, slot, phase) in [
            (2u64, 1u64, Phase::Act),
            (1, 2, Phase::Act),
            (1, 1, Phase::Activate),
            (1, 1, Phase::Feedback),
        ] {
            let mut r = CounterRng::new(key, slot, phase);
            let other: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
            assert_ne!(base, other, "({key}, {slot}, {phase:?}) collided");
        }
    }

    #[test]
    fn draw_matches_first_word() {
        let mut r = CounterRng::new(11, 13, Phase::Feedback);
        assert_eq!(r.next_u64(), draw(11, 13, Phase::Feedback));
    }

    #[test]
    fn replay_oneshot_matches_gen_range() {
        for key in 0..64u64 {
            for (release, window) in [(0u64, 1u64), (5, 7), (1000, 4096)] {
                let mut r = CounterRng::new(key, release, Phase::Activate);
                let offset = r.gen_range(0..window);
                assert_eq!(release + offset, replay_oneshot(key, release, window));
            }
        }
    }

    #[test]
    fn fill_bytes_is_le_prefix_of_words() {
        let mut a = CounterRng::new(3, 9, Phase::Act);
        let mut buf = [0u8; 12];
        a.fill_bytes(&mut buf);
        let mut b = CounterRng::new(3, 9, Phase::Act);
        let w0 = b.next_u64().to_le_bytes();
        let w1 = b.next_u64().to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1[..4]);
    }

    /// 10⁵ geometric gaps drawn from consecutive counter positions.
    fn gaps(p: f64) -> Vec<u64> {
        (0..100_000u64)
            .map(|s| geometric(draw(99, s, Phase::Act), p))
            .collect()
    }

    #[test]
    fn geometric_is_calibrated() {
        // P[G = 1] = p and E[G] = 1/p, each within 5 sigma over 10^5 draws.
        for p in [0.3f64, 0.01] {
            let g = gaps(p);
            let n = g.len() as f64;
            let ones = g.iter().filter(|&&x| x == 1).count() as f64 / n;
            let sd_one = (p * (1.0 - p) / n).sqrt();
            assert!((ones - p).abs() < 5.0 * sd_one, "P[G=1] = {ones} vs {p}");
            let mean = g.iter().map(|&x| x as f64).sum::<f64>() / n;
            let sd_mean = ((1.0 - p) / (p * p) / n).sqrt();
            assert!(
                (mean - 1.0 / p).abs() < 5.0 * sd_mean,
                "mean gap {mean} vs {}",
                1.0 / p
            );
        }
    }

    #[test]
    fn geometric_certain_transmitter_never_waits() {
        assert!(gaps(1.0).iter().all(|&g| g == 1));
    }

    #[test]
    fn geometric_vanishing_p_means_never() {
        // `(1 - p).ln()` rounds to 0 here and would yield gap 1 — a job
        // transmitting every slot. `ln_1p` keeps the quotient huge.
        let g = gaps(f64::MIN_POSITIVE);
        assert!(
            g.iter().all(|&x| x == u64::MAX),
            "a vanishing p transmitted"
        );
        assert!(!g.contains(&1));
    }
}
