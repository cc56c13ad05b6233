//! Crash-point sweep: the core §4.2/§4.4 guarantee, exercised across
//! designs at many instants of a real workload — including the two
//! halves of an interrupted drain.

use ccnvm::prelude::*;
use ccnvm_mem::LineAddr;

fn crash_and_check(sim: &Simulator, label: &str) {
    let report = recover(&sim.memory().crash_image());
    assert!(report.is_clean(), "{label}: {report:?}");
    let truth = sim.memory().ground_truth();
    assert_eq!(report.rebuilt_root, truth.current_root, "{label}");
    for (line, content) in &truth.counter_lines {
        assert_eq!(
            &report.recovered_nvm.read(LineAddr(*line)),
            content,
            "{label}: counter line {line:#x}"
        );
    }
}

#[test]
fn crash_point_sweep_all_consistent_designs() {
    for design in [
        DesignKind::StrictConsistency,
        DesignKind::OsirisPlus,
        DesignKind::CcNvmNoDs,
        DesignKind::CcNvm,
    ] {
        let profile = profiles::mixed();
        let mut sim = Simulator::new(SimConfig::paper(design)).expect("config");
        let mut trace = TraceGenerator::new(profile, 11);
        for point in 1..=10 {
            // Advance ~8k instructions, then crash.
            let target = sim.instructions() + 8_000;
            while sim.instructions() < target {
                let op = trace.next().expect("infinite trace");
                sim.step(&op).expect("clean step");
            }
            crash_and_check(&sim, &format!("{design} @ point {point}"));
        }
    }
}

#[test]
fn interrupted_drain_keeps_old_epoch() {
    let mut mem = SecureMemory::new(SimConfig::paper(DesignKind::CcNvm)).expect("config");
    for i in 0..12u64 {
        mem.write_back(LineAddr(i * 64), i * 60_000).expect("wb");
    }
    mem.drain(1_000_000, DrainTrigger::External);
    let committed_root = mem.tcb().root_old;

    for i in 0..6u64 {
        mem.write_back(LineAddr(i * 64), 2_000_000 + i * 60_000)
            .expect("wb");
    }
    // Stage the next epoch but crash before the end signal.
    mem.stage_drain(3_000_000);
    // Power fails mid-drain: the staged lines never reach durable NVM,
    // and recovery falls back to the committed epoch without blaming
    // an attacker for the loss.
    let mid_drain = mem.crash_image();
    assert!(mid_drain.staged_lines_lost > 0, "the drain staged lines");
    let report = recover(&mid_drain);
    assert!(report.is_clean(), "{report:?}");
    assert!(report.located.is_empty(), "{:?}", report.located);
    mem.discard_staged();
    let image = mem.crash_image();

    // The durable tree is exactly the previous epoch.
    let bmt = ccnvm::bmt::Bmt::new(
        ccnvm::layout::SecureLayout::new(image.capacity_bytes),
        ccnvm::engine::CryptoEngine::new(&image.tcb.keys),
    );
    assert_eq!(bmt.root(&image.nvm), committed_root);
    assert!(
        bmt.consistency_scan(&image.nvm).is_empty(),
        "old epoch stays consistent"
    );

    // And recovery still reconstructs the *newest* counters from the
    // data HMACs.
    let report = recover(&image);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.total_retries, report.nwb);
    assert!(report.total_retries >= 6);
}

#[test]
fn completed_drain_commits_new_epoch() {
    let mut mem = SecureMemory::new(SimConfig::paper(DesignKind::CcNvm)).expect("config");
    for i in 0..6u64 {
        mem.write_back(LineAddr(i * 64), i * 60_000).expect("wb");
    }
    // Stage, then the end signal arrives: ADR pushes everything out.
    mem.stage_drain(1_000_000);
    mem.commit_staged();
    let image = mem.crash_image();
    let report = recover(&image);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        report.total_retries, 0,
        "committed epoch leaves nothing stalled"
    );
    assert_eq!(image.tcb.root_old, image.tcb.root_new);
    assert_eq!(image.tcb.nwb, 0);
}

#[test]
fn without_cc_eventually_fails_recovery() {
    // The motivating deficiency: with no consistency mechanism, cached
    // counters drift arbitrarily far from NVM and recovery cannot
    // distinguish staleness from attack.
    let mut mem = SecureMemory::new(SimConfig::paper(DesignKind::WithoutCc)).expect("config");
    let n = mem.config().update_limit as u64;
    for i in 0..(3 * n) {
        mem.write_back(LineAddr(0), i * 60_000).expect("wb");
    }
    let report = recover(&mem.crash_image());
    assert!(
        !report.located.is_empty(),
        "w/o CC must fail to recover a counter 3N updates stale"
    );
}
