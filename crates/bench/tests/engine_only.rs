//! The ALIGNED experiments (E4, E7, E11, A2) run through the engine.
//!
//! Each one must advance the engine's process-wide slot counter: an
//! experiment that simulated its channel outside [`dcr_sim::engine::Engine`]
//! would leave it untouched. One `#[test]` only, so no other test in this
//! process moves the counter between the reads.

use dcr_bench::{run_experiment_report, ExpConfig};
use dcr_sim::engine::slots_executed_total;

#[test]
fn aligned_experiments_advance_the_engine_slot_counter() {
    let cfg = ExpConfig::quick();
    for id in ["e4", "e7", "e11", "a2"] {
        let before = slots_executed_total();
        run_experiment_report(id, &cfg).expect("known experiment id");
        let executed = slots_executed_total() - before;
        assert!(executed > 0, "{id} executed no engine slots");
    }
}
