//! State-hash stability: the explorer's frontier dedup relies on fnv1a over
//! machine snapshots being a pure function of machine *state* — identical
//! states must hash identically no matter which worker produced them, how
//! many workers ran (`--jobs 1` vs `--jobs 4` must explore the same tree),
//! or whether the state went through a checkpoint/restore round trip.

use norush::common::persist::fnv1a;
use norush::cpu::instr::{InstrStream, VecStream};
use norush::sim::{parallel_map, run_schedule, ExploreOptions, Machine};
use norush::workloads::litmus::LitmusTest;

fn opts() -> ExploreOptions {
    ExploreOptions::default()
}

/// A small mixed bag of forced decision vectors (nonempty so every run
/// snapshots its frontier).
fn schedules() -> Vec<Vec<u8>> {
    vec![vec![1], vec![2], vec![0, 1], vec![1, 0, 2], vec![2, 2]]
}

#[test]
fn frontier_hash_is_stable_across_worker_counts() {
    let test = LitmusTest::sb();
    let o = opts();
    let scheds = schedules();
    let hashes_for = |workers: usize| -> Vec<u64> {
        parallel_map(&scheds, workers, |_, s| {
            run_schedule(&test, &o, s)
                .expect("schedule runs")
                .frontier_hash
                .expect("nonempty prefix snapshots its frontier")
        })
    };
    let one = hashes_for(1);
    let four = hashes_for(4);
    assert_eq!(one, four, "frontier hashes differ across --jobs counts");
    // And re-running the same vectors gives the same hashes (determinism on
    // one worker too, not just agreement between pools).
    assert_eq!(one, hashes_for(1));
}

#[test]
fn identical_schedules_hash_identically_and_distinct_ones_differ() {
    let test = LitmusTest::mp();
    let o = opts();
    let a = run_schedule(&test, &o, &[1, 1]).unwrap().frontier_hash;
    let b = run_schedule(&test, &o, &[1, 1]).unwrap().frontier_hash;
    assert_eq!(a, b);
    // A long-hold deviation leaves the machine in a visibly different state
    // at the frontier; the hash must see that.
    let c = run_schedule(&test, &o, &[2, 1]).unwrap().frontier_hash;
    assert_ne!(a, c, "different frontier states collided");
}

fn litmus_machine(test: &LitmusTest) -> Machine {
    let sys = opts().system(test.cores()).expect("policy is known");
    let streams: Vec<Box<dyn InstrStream>> = test
        .programs
        .iter()
        .map(|p| Box::new(VecStream::new(p.clone())) as _)
        .collect();
    Machine::new(&sys, streams)
}

#[test]
fn checkpoint_restore_round_trip_preserves_the_hash() {
    let test = LitmusTest::r3w1();
    let mut m = litmus_machine(&test);
    // Step into the middle of the protocol traffic, then snapshot.
    m.run_for(40).expect("no violation in 40 cycles");
    let image = m.checkpoint().expect("checkpoint");
    let h0 = fnv1a(&image);
    // Checkpointing is read-only: a second snapshot is bit-identical.
    assert_eq!(h0, fnv1a(&m.checkpoint().unwrap()));
    // Restore into a freshly built machine and re-checkpoint: the image (and
    // therefore the dedup hash) must survive the round trip unchanged.
    let mut m2 = litmus_machine(&test);
    m2.restore(&image).expect("restore");
    let image2 = m2.checkpoint().expect("checkpoint after restore");
    assert_eq!(image, image2, "checkpoint changed across restore");
    assert_eq!(h0, fnv1a(&image2));
    // Both machines keep agreeing as they run on.
    m.run_for(100).expect("original continues");
    m2.run_for(100).expect("restored continues");
    assert_eq!(
        m.checkpoint().unwrap(),
        m2.checkpoint().unwrap(),
        "restored machine diverged from the original"
    );
}

/// The hot loop keeps derived per-core caches (sleep/wake cycles, parked
/// store-buffer writes, recycled scratch buffers) that a restored machine
/// rebuilds from zero. None of that may leak into the image: a machine
/// that ran straight through and one that detoured through a mid-run
/// checkpoint/restore must produce bit-identical images at the same cycle.
#[test]
fn derived_hot_loop_state_never_reaches_the_image() {
    let test = LitmusTest::sb();
    // Straight run to cycle 140.
    let mut straight = litmus_machine(&test);
    straight.run_for(140).expect("straight run clean");
    // Detour: checkpoint at 60, restore into a fresh machine (cold wake
    // cycles, empty scratch pools), continue to 140.
    let mut first = litmus_machine(&test);
    first.run_for(60).expect("prefix clean");
    let mid = first.checkpoint().expect("mid checkpoint");
    let mut detour = litmus_machine(&test);
    detour.restore(&mid).expect("restore");
    detour.run_for(80).expect("suffix clean");
    assert_eq!(
        fnv1a(&straight.checkpoint().unwrap()),
        fnv1a(&detour.checkpoint().unwrap()),
        "a restore detour changed the image: derived state leaked"
    );
}
