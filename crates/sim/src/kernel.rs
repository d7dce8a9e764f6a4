//! The vectorized slot kernel behind [`Fidelity::Vectorized`], which also
//! runs the one-shot jobs of [`Fidelity::Cohort`].
//!
//! Jobs whose protocol exposes [`CohortTx::OneShot`] are lifted out of the
//! per-job dispatch loop into a **one-shot calendar**: the single
//! transmission slot is precomputed at activation from the same pure draw
//! the exact path's `on_activate` makes, and pushed into a min-heap keyed
//! by that slot. Due entries pop in O(log n); slots with no due entry cost
//! a peek.
//!
//! Because every draw is a pure function of `(job_key, slot, phase)`
//! (see [`crate::crng`]), the kernel's transmission set each slot is
//! *bit-identical* to what the exact path would produce — the
//! differential suite in `tests/kernel_differential.rs` pins this
//! across the full protocol × adversary grid.
//!
//! [`Fidelity::Vectorized`]: crate::engine::Fidelity::Vectorized
//! [`Fidelity::Cohort`]: crate::engine::Fidelity::Cohort
//! [`CohortTx::OneShot`]: crate::engine::CohortTx::OneShot

use crate::crng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The vectorized slot kernel: a one-shot transmission calendar. Owned by
/// the engine; inert (and allocation-free) when the run's fidelity is
/// `Exact`.
pub(crate) struct SlotKernel {
    /// One-shot calendar: `(transmission slot, job index)` min-heap.
    shots: BinaryHeap<Reverse<(u64, u32)>>,
    /// Pending (undelivered, unexpired) one-shot members per deadline.
    /// A fired-but-collided one-shot stays pending until its deadline —
    /// the exact path likewise parks the job to `deadline - 1`, keeping
    /// it in live-job accounting and extending the run to its deadline.
    shot_live: BTreeMap<u64, u64>,
    /// Per-job flag, indexed by job index: admitted to the calendar and
    /// not yet delivered.
    homed: Vec<bool>,
    /// Total pending kernel-managed jobs.
    pending: usize,
}

impl Default for SlotKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotKernel {
    pub(crate) fn new() -> Self {
        Self {
            shots: BinaryHeap::new(),
            shot_live: BTreeMap::new(),
            homed: Vec::new(),
            pending: 0,
        }
    }

    /// Reset for a run over `n_jobs` jobs.
    pub(crate) fn prepare(&mut self, n_jobs: usize) {
        self.clear();
        self.homed.resize(n_jobs, false);
    }

    /// Drop all state (the engine's reset contract).
    pub(crate) fn clear(&mut self) {
        self.shots.clear();
        self.shot_live.clear();
        self.homed.clear();
        self.pending = 0;
    }

    /// Pending kernel-managed jobs (counted in `live_jobs` traces and
    /// the run's termination condition).
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// The earliest scheduled one-shot transmission, if any.
    pub(crate) fn next_tx(&self) -> Option<u64> {
        self.shots.peek().map(|Reverse((s, _))| *s)
    }

    /// The last live slot (`deadline - 1`) of the earliest-expiring
    /// pending one-shot, if any. The engine's gap-skip runs its landing
    /// slot, so this mirrors the exact path precisely: there the parked
    /// job wakes at `deadline - 1`, sits out that one slot, and retires
    /// at its deadline — the run extends exactly that far, no further.
    pub(crate) fn next_expiry(&self) -> Option<u64> {
        self.shot_live.first_key_value().map(|(&d, _)| d - 1)
    }

    /// Admit a one-shot job at activation: replay the activation draw
    /// the exact path's `on_activate` would make and calendar the
    /// resulting transmission slot. The job pends until delivery or its
    /// deadline — *not* its transmission slot: a fired-but-collided
    /// one-shot remains a live (if silent) job until its window closes,
    /// exactly as the exact path's parked job does.
    pub(crate) fn insert_shot(
        &mut self,
        idx: u32,
        key: u64,
        release: u64,
        window: u64,
        deadline: u64,
    ) {
        let tx = crng::replay_oneshot(key, release, window);
        self.shots.push(Reverse((tx, idx)));
        *self.shot_live.entry(deadline).or_insert(0) += 1;
        self.pending += 1;
        self.homed[idx as usize] = true;
    }

    /// True if `idx` is currently kernel-managed.
    pub(crate) fn is_managed(&self, idx: usize) -> bool {
        self.homed.get(idx).copied().unwrap_or(false)
    }

    /// Retire expired state at the top of slot `slot`: one-shot members
    /// whose deadline has arrived stop pending (their outcomes are settled
    /// by the engine's end-of-run sweep, which defaults untouched jobs to
    /// `Missed` — same as the exact path).
    pub(crate) fn expire(&mut self, slot: u64) {
        while let Some((&deadline, _)) = self.shot_live.first_key_value() {
            if deadline > slot {
                break;
            }
            let (_, n) = self.shot_live.pop_first().expect("checked nonempty");
            self.pending -= n as usize;
        }
        // Calendar entries need no sweep: a one-shot's transmission slot
        // precedes its deadline and the engine never gap-skips past a
        // pending transmission, so every entry pops in `collect` at
        // exactly its slot, strictly before its deadline can expire it.
    }

    /// Record delivery of job `idx`: its deadline's pending count drops.
    pub(crate) fn on_delivery(&mut self, idx: usize, deadline: u64) {
        if !self.homed[idx] {
            return;
        }
        let n = self
            .shot_live
            .get_mut(&deadline)
            .expect("delivered one-shot must be pending");
        *n -= 1;
        if *n == 0 {
            self.shot_live.remove(&deadline);
        }
        self.pending -= 1;
        self.homed[idx] = false;
    }

    /// Serialize kernel state as a flat word list for `crate::checkpoint`:
    /// the one-shot calendar in ascending `(slot, idx)` order, the
    /// pending-per-deadline map, and the set of jobs still homed in the
    /// calendar. The derived `pending` counter is not stored. The explicit
    /// homed list is required because a fired-but-collided one-shot
    /// has left the calendar heap yet stays pending (and homed) until its
    /// deadline.
    pub(crate) fn save(&self) -> Vec<u64> {
        let mut w = Vec::new();
        // `into_sorted_vec` ascends in `Reverse` order (= descending
        // `(slot, idx)`); reversing restores ascending calendar order.
        let shots = self.shots.clone().into_sorted_vec();
        w.push(shots.len() as u64);
        for Reverse((s, idx)) in shots.into_iter().rev() {
            w.push(s);
            w.push(u64::from(idx));
        }
        w.push(self.shot_live.len() as u64);
        for (&d, &n) in &self.shot_live {
            w.push(d);
            w.push(n);
        }
        let homes_at = w.len();
        w.push(0);
        let mut n_shot_homes = 0u64;
        for (i, &h) in self.homed.iter().enumerate() {
            if h {
                w.push(i as u64);
                n_shot_homes += 1;
            }
        }
        w[homes_at] = n_shot_homes;
        w
    }

    /// Rebuild kernel state from [`SlotKernel::save`] output; the derived
    /// `pending` counter is recomputed. Must be called after
    /// [`SlotKernel::prepare`]. Returns `false` on a malformed word list.
    pub(crate) fn load(&mut self, w: &[u64]) -> bool {
        fn take(w: &[u64], i: &mut usize) -> Option<u64> {
            let v = w.get(*i).copied()?;
            *i += 1;
            Some(v)
        }
        let mut i = 0usize;
        let Some(n_shots) = take(w, &mut i) else {
            return false;
        };
        for _ in 0..n_shots {
            let (Some(s), Some(idx)) = (take(w, &mut i), take(w, &mut i)) else {
                return false;
            };
            self.shots.push(Reverse((s, idx as u32)));
        }
        let Some(n_live) = take(w, &mut i) else {
            return false;
        };
        for _ in 0..n_live {
            let (Some(d), Some(n)) = (take(w, &mut i), take(w, &mut i)) else {
                return false;
            };
            self.shot_live.insert(d, n);
            self.pending += n as usize;
        }
        let Some(n_homes) = take(w, &mut i) else {
            return false;
        };
        for _ in 0..n_homes {
            let Some(j) = take(w, &mut i) else {
                return false;
            };
            if j as usize >= self.homed.len() {
                return false;
            }
            self.homed[j as usize] = true;
        }
        i == w.len()
    }

    /// Evaluate slot `slot`: pop due one-shot transmissions, appending
    /// transmitting job indices to `out`.
    ///
    /// The output *set* is a pure function of `(slot, keys)`; its order
    /// is unspecified (the engine only counts transmitters and resolves
    /// the unique single transmitter, so order is unobservable).
    pub(crate) fn collect(&mut self, slot: u64, out: &mut Vec<u32>) {
        while let Some(&Reverse((s, idx))) = self.shots.peek() {
            if s > slot {
                break;
            }
            self.shots.pop();
            // A calendar entry pops exactly on its slot: the engine's
            // gap-skip treats `next_tx` as an event, and a shot resolves
            // (delivery or expiry) only at or after its transmission.
            debug_assert_eq!(s, slot, "one-shot transmission slot was skipped");
            debug_assert!(self.homed[idx as usize], "stale calendar entry");
            out.push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xABCD)
            .collect()
    }

    #[test]
    fn oneshot_calendar_fires_once_at_replayed_slot() {
        let mut k = SlotKernel::new();
        k.prepare(4);
        let ks = keys(4);
        for (i, &key) in ks.iter().enumerate() {
            k.insert_shot(i as u32, key, 10, 32, 42);
        }
        assert_eq!(k.pending(), 4);
        assert_eq!(k.next_expiry(), Some(41));
        let mut fired = vec![Vec::new(); 4];
        for slot in 10..42 {
            k.expire(slot);
            let mut out = Vec::new();
            k.collect(slot, &mut out);
            for idx in out {
                fired[idx as usize].push(slot);
            }
        }
        for (i, slots) in fired.iter().enumerate() {
            let want = crng::replay_oneshot(ks[i], 10, 32);
            assert_eq!(slots, &vec![want], "job {i}");
        }
        // Undelivered shots pend (as the exact path's parked jobs stay
        // live) until their deadline expires them.
        assert_eq!(k.pending(), 4);
        k.expire(42);
        assert_eq!(k.pending(), 0);
        assert_eq!(k.next_expiry(), None);
    }

    #[test]
    fn delivery_and_expiry_zero_out_pending() {
        let mut k = SlotKernel::new();
        k.prepare(3);
        k.insert_shot(0, 1, 0, 100, 100);
        k.insert_shot(1, 2, 0, 100, 100);
        k.insert_shot(2, 3, 0, 64, 64);
        assert_eq!(k.pending(), 3);
        k.on_delivery(0, 100);
        assert!(!k.is_managed(0));
        assert!(k.is_managed(1));
        assert_eq!(k.pending(), 2);
        k.on_delivery(2, 64);
        assert_eq!(k.pending(), 1);
        assert_eq!(k.next_expiry(), Some(99));
        k.expire(100);
        assert_eq!(k.pending(), 0);
        assert_eq!(k.next_expiry(), None);
    }

    #[test]
    fn save_load_round_trips_mixed_state() {
        let ks = keys(8);
        let mut k = SlotKernel::new();
        k.prepare(8);
        // Jobs 0..4 fire within 16 slots but pend until slot 200; jobs
        // 4..8 fire anywhere before their deadline at 64.
        for i in 0..4u32 {
            k.insert_shot(i, ks[i as usize], 0, 16, 200);
        }
        for i in 4..8u32 {
            k.insert_shot(i, ks[i as usize], 0, 64, 64);
        }
        // Advance past some one-shot firings so the saved state mixes
        // delivered, fired-but-pending and not-yet-fired calendar members.
        let mut out = Vec::new();
        for slot in 0..20 {
            k.expire(slot);
            out.clear();
            k.collect(slot, &mut out);
        }
        k.on_delivery(1, 200);
        let words = k.save();
        let mut r = SlotKernel::new();
        r.prepare(8);
        assert!(r.load(&words));
        assert_eq!(r.pending(), k.pending());
        assert_eq!(r.next_tx(), k.next_tx());
        assert_eq!(r.next_expiry(), k.next_expiry());
        assert_eq!(r.is_managed(1), k.is_managed(1));
        for slot in 20..210 {
            k.expire(slot);
            r.expire(slot);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            k.collect(slot, &mut a);
            r.collect(slot, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "slot {slot}");
            assert_eq!(k.pending(), r.pending());
        }
    }
}
