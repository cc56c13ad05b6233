//! §4.4 attacks forged into a file store. The disk is outside the TCB,
//! and the commit log accepts any frame whose CRC-32 matches: a CRC is
//! not a MAC. An attacker who writes CRC-valid frames is the §2.1
//! adversary, so only the Merkle tree can catch them. For every design,
//! each attack of `tests/attack_matrix.rs` is forged into a synced store
//! through the store's own framing, the store is read back as after a
//! power cut, and recovery must judge it exactly as it judges the same
//! attack on the in-memory crash image.

use ccnvm::attack;
use ccnvm::layout::SecureLayout;
use ccnvm::prelude::*;
use ccnvm_mem::{
    DurableBackend, FileBackend, FileBackendConfig, FsyncStrategy, LineAddr, LineStore,
};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnvm-it-forge-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The two-epoch scenario of `tests/attack_matrix.rs`: lines 0..4×64
/// written in both epochs, each closed by a drain. Returns the crash
/// image of the first epoch.
fn two_epochs(mem: &mut SecureMemory) -> CrashImage {
    for i in 0..16u64 {
        mem.write_back(LineAddr((i % 4) * 64), i * 60_000)
            .expect("wb");
    }
    mem.drain(2_000_000, DrainTrigger::External);
    let old = mem.crash_image();
    for i in 0..16u64 {
        mem.write_back(LineAddr((i % 4) * 64), 3_000_000 + i * 60_000)
            .expect("wb");
    }
    mem.drain(6_000_000, DrainTrigger::External);
    old
}

/// One §4.4 attack, applied to a crash image given the older one.
type Attack = fn(&mut CrashImage, &CrashImage);

const ATTACKS: [(&str, Attack); 4] = [
    ("spoof", |img, _| attack::spoof_data(img, LineAddr(64))),
    ("splice", |img, _| {
        attack::splice_data(img, LineAddr(0), LineAddr(192))
    }),
    ("replay-data", |img, old| {
        attack::replay_data(img, old, LineAddr(0))
    }),
    ("replay-counter", |img, old| {
        let ctr = SecureLayout::new(img.capacity_bytes).counter_line_of(LineAddr(0));
        attack::replay_counter(img, old, ctr)
    }),
];

/// Whether two images hold the same lines.
fn same_lines(a: &LineStore, b: &LineStore) -> bool {
    a.len() == b.len() && a.iter().all(|(line, content)| b.get(line) == Some(content))
}

/// Writes every line `forged` changed relative to `clean` into the
/// store at `dir` as CRC-valid frames, and syncs them. No attack
/// removes a line, so the changed lines are the whole forgery.
fn forge(dir: &Path, clean: &CrashImage, forged: &CrashImage) {
    assert!(
        clean.nvm.iter().all(|(line, _)| forged.nvm.contains(line)),
        "no attack removes a line"
    );
    let mut store = FileBackend::open(dir, FileBackendConfig::default()).expect("store reopens");
    for (line, content) in forged.nvm.iter() {
        if clean.nvm.get(line) != Some(content) {
            store.store(line, *content);
        }
    }
    store.sync();
}

#[test]
fn attacks_forged_into_the_store_are_judged_as_in_memory() {
    let store_cfg = FileBackendConfig {
        fsync: FsyncStrategy::Always,
        ..FileBackendConfig::default()
    };
    for design in DesignKind::ALL {
        let config = SimConfig::paper(design);
        let mut in_memory = SecureMemory::new(config.clone()).expect("config");
        let old = two_epochs(&mut in_memory);
        let clean = in_memory.crash_image();

        for (name, attack) in ATTACKS {
            let dir = temp_dir(&format!("{}-{name}", design.slug()));
            let store = FileBackend::open(&dir, store_cfg).expect("fresh store");
            let mut mem =
                SecureMemory::with_backend(config.clone(), Box::new(store)).expect("config");
            two_epochs(&mut mem);
            mem.sync_durable();
            let tcb = mem.tcb().clone();
            assert!(
                same_lines(&mem.crash_image().nvm, &clean.nvm),
                "{design}: the store holds the in-memory image"
            );
            drop(mem);

            let mut expected_image = clean.clone();
            attack(&mut expected_image, &old);
            forge(&dir, &clean, &expected_image);
            let expected = recover(&expected_image);

            let cut = PowerCut::reopen(&dir, store_cfg, &config, tcb).expect("read back");
            assert!(
                same_lines(&cut.image.nvm, &expected_image.nvm),
                "{design} {name}: the read-back holds the forged image"
            );
            let report = recover(&cut.image);
            assert_eq!(report.located, expected.located, "{design} {name}");
            assert_eq!(
                report.potential_replay, expected.potential_replay,
                "{design} {name}"
            );
            assert_eq!(
                cut.verdict(&report),
                expected.verdict(false),
                "{design} {name}"
            );
            // Spoofing and splicing are located per line by every
            // crash-consistent design.
            let tampered: &[u64] = match name {
                "spoof" => &[64],
                "splice" => &[0, 192],
                _ => &[],
            };
            if design.is_crash_consistent() && !tampered.is_empty() {
                assert_eq!(cut.verdict(&report), Verdict::Attacked, "{design} {name}");
                for &line in tampered {
                    let line = LineAddr(line);
                    assert!(
                        report
                            .located
                            .contains(&LocatedAttack::DataTampered { line }),
                        "{design} {name}: {line} not located: {:?}",
                        report.located
                    );
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
