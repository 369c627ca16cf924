//! Trained predictor images are pinned: the FNV-1a of a `TageLite`, a
//! `StoreSets` and an `IpStridePrefetcher` image after seeded training, and
//! a restore round trip into a fresh and into a differently trained
//! predictor. Any change to how these tables are encoded or restored must
//! keep every byte, because explore dedups frontier states on image hashes
//! and committed checkpoints hold these images.

use norush::common::ids::{Addr, Pc};
use norush::common::persist::{fnv1a, Persist, Reader, Writer};
use norush::common::rng::SplitMix64;
use norush::cpu::branch::TageLite;
use norush::cpu::storeset::StoreSets;
use norush::mem::prefetch::IpStridePrefetcher;

fn image(p: &impl Persist) -> Vec<u8> {
    let mut w = Writer::new();
    p.persist(&mut w);
    w.into_bytes()
}

/// Restores `bytes` into `p`, requiring every byte to be read.
fn restore(p: &mut impl Persist, bytes: &[u8]) {
    let mut r = Reader::new(bytes);
    p.restore(&mut r).expect("a valid image");
    assert!(r.is_empty(), "the image left bytes unread");
}

/// `steps` seeded branch outcomes over 48 branches: loop-like, biased and
/// random ones, so the bimodal table and every tagged table get entries.
fn train_branches(bp: &mut TageLite, seed: u64, steps: usize) {
    let mut rng = SplitMix64::new(seed);
    for k in 0..steps {
        let b = rng.next_u64() % 48;
        let pc = Pc::new(0x40_0000 + b * 0x1c4);
        let taken = match b % 3 {
            0 => k % 8 != 7,
            1 => rng.next_u64() % 10 < 8,
            _ => rng.next_u64() & 1 == 1,
        };
        let predicted = bp.predict(pc);
        bp.update(pc, taken, predicted);
    }
}

/// Seeded store-set training: violations between 24 load and 24 store
/// PCs, with stores dispatched and most of them completed again, so LFST
/// entries are written and written back to blank.
fn train_store_sets(ss: &mut StoreSets, seed: u64, steps: u64) {
    let mut rng = SplitMix64::new(seed);
    let pc = |base: u64, i: u64| Pc::new(base + i * 0x34);
    for uid in 0..steps {
        let ld = pc(0x1000, rng.next_u64() % 24);
        let st = pc(0x9000, rng.next_u64() % 24);
        match rng.next_u64() % 4 {
            0 => ss.train_violation(ld, st),
            1 | 2 => ss.store_dispatched(st, uid),
            _ => ss.store_completed(st, uid.saturating_sub(rng.next_u64() % 3)),
        }
    }
}

/// Seeded demand loads from 40 PCs: strided walks that train entries and
/// colliding PCs that retag them.
fn train_prefetcher(p: &mut IpStridePrefetcher, seed: u64, steps: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut next = [0u64; 40];
    for _ in 0..steps {
        let i = (rng.next_u64() % 40) as usize;
        let stride = 64 * (i as u64 % 5 + 1);
        let jump = rng.next_u64().is_multiple_of(8);
        next[i] += if jump { 4096 } else { stride };
        p.observe(Pc::new(0x7000 + i as u64 * 0x28), Addr::new(next[i]));
    }
}

/// The trained image has `len` bytes and FNV-1a `hash`; it restores into a
/// fresh predictor and into one trained on another seed, each of which
/// then persists the same bytes and keeps doing so under more training.
fn check<P: Persist + Clone>(
    trained: &P,
    len: usize,
    hash: u64,
    fresh: impl Fn() -> P,
    train: impl Fn(&mut P, u64),
) {
    let bytes = image(trained);
    assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash));
    let mut into_fresh = fresh();
    restore(&mut into_fresh, &bytes);
    assert_eq!(image(&into_fresh), bytes);
    let mut into_used = fresh();
    train(&mut into_used, 99);
    assert_ne!(image(&into_used), bytes);
    restore(&mut into_used, &bytes);
    assert_eq!(image(&into_used), bytes);
    // Both restored copies go on like the original.
    let mut original = trained.clone();
    for p in [&mut original, &mut into_fresh, &mut into_used] {
        train(p, 5);
    }
    assert_eq!(image(&into_fresh), image(&original));
    assert_eq!(image(&into_used), image(&original));
    // A blank image blanks a trained table.
    restore(&mut into_used, &image(&fresh()));
    assert_eq!(image(&into_used), image(&fresh()));
}

#[test]
fn trained_branch_predictor_image_is_pinned() {
    let mut bp = TageLite::new();
    train_branches(&mut bp, 7, 20_000);
    let train = |p: &mut TageLite, seed| train_branches(p, seed, 3_000);
    check(&bp, 32_591, 0xe3fd_277c_15d8_3448, TageLite::new, train);
}

#[test]
fn trained_store_sets_image_is_pinned() {
    let mut ss = StoreSets::new();
    train_store_sets(&mut ss, 7, 2_000);
    let train = |s: &mut StoreSets, seed| train_store_sets(s, seed, 500);
    check(&ss, 783, 0xddba_d8b4_aa0f_7fcc, StoreSets::new, train);
}

#[test]
fn trained_prefetcher_image_is_pinned() {
    let fresh = || IpStridePrefetcher::new(64, 2);
    let mut p = fresh();
    train_prefetcher(&mut p, 7, 3_000);
    let train = |p: &mut IpStridePrefetcher, seed| train_prefetcher(p, seed, 400);
    check(&p, 1_336, 0x7497_e775_0e69_dfd2, fresh, train);
}
