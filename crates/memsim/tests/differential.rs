//! Differential test of the executor against the reference simulator in
//! `reference/` (the `HashMap`-scoreboard executor, per-set `Vec` caches
//! and `HashMap` in-flight table the allocation-free hot path replaced).
//!
//! Both run the same entry streams on every library kernel under the four
//! latency policies and both stream modes; the `CycleCounters` after every
//! entry and the `RefObservation`s must be byte-equal. The streams mix
//! long entries (which fill the 300-record scoreboard window) with short
//! re-entries, so lookups answered by an earlier entry's records — source
//! iterations restart at 0 on every entry — are exercised, as are
//! two-version entry streams that alternate kernels over one scoreboard.
//! Compiled kernels always produce a value before its use, so the
//! cross-entry case is forced with predicated compares (a squashed
//! compare records no predicate) and with hand-made schedules that read
//! registers before this entry writes them.

mod reference;

use ltsp_core::{compile_loop_with_profile, CompileConfig, CompiledLoop, LatencyPolicy};
use ltsp_ir::{DataClass, LoopBuilder, LoopIr};
use ltsp_machine::MachineModel;
use ltsp_memsim::{Executor, ExecutorConfig, StreamMode};
use ltsp_pipeliner::ModuloSchedule;
use ltsp_workloads::{kernel_library, random_loop};

use reference::RefExecutor;

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];

const MODES: [StreamMode; 2] = [StreamMode::Restart, StreamMode::Progressive];

/// Long entries past the scoreboard window, then low-trip re-entries.
const TRIPS: [u64; 12] = [1, 2, 350, 3, 1, 5, 420, 2, 7, 64, 1, 310];

/// Runs `entries` on both executors, comparing counters after each entry
/// and observations at the end; the observations are reset halfway, as
/// a steady-state window does after warm-up.
fn assert_equivalent(
    what: &str,
    lp: &LoopIr,
    versions: &[(&ModuloSchedule, u32)],
    machine: &MachineModel,
    cfg: ExecutorConfig,
    entries: &[(usize, u64)],
) {
    let mut fast = Executor::new_versioned(lp, versions, machine, cfg);
    let mut slow = RefExecutor::new_versioned(lp, versions, machine, cfg);
    for (n, &(version, trip)) in entries.iter().enumerate() {
        if n == entries.len() / 2 {
            fast.reset_ref_stats();
            slow.reset_ref_stats();
        }
        fast.run_entry_version(version, trip);
        slow.run_entry_version(version, trip);
        assert_eq!(
            fast.counters(),
            slow.counters(),
            "{what}: counters diverge at entry {n} (version {version}, trip {trip})"
        );
    }
    assert_eq!(
        fast.observations(),
        slow.observations(),
        "{what}: observations diverge"
    );
}

fn compile(lp: &LoopIr, m: &MachineModel, cfg: &CompileConfig) -> CompiledLoop {
    compile_loop_with_profile(lp, m, cfg, 100.0)
}

#[test]
fn library_matches_the_reference_under_every_policy_and_stream_mode() {
    let m = MachineModel::itanium2();
    let entries: Vec<(usize, u64)> = TRIPS.iter().map(|&t| (0, t)).collect();
    for (name, lp) in kernel_library() {
        for policy in POLICIES {
            let c = compile(&lp, &m, &CompileConfig::new(policy));
            for (seed, mode) in MODES.into_iter().enumerate() {
                let cfg = ExecutorConfig {
                    seed: 0x5EED ^ seed as u64,
                    stream_mode: mode,
                    ..ExecutorConfig::default()
                };
                let what = format!("{name} {policy:?} {mode:?}");
                assert_equivalent(
                    &what,
                    &c.lp,
                    &[(&c.kernel, c.regs_total)],
                    &m,
                    cfg,
                    &entries,
                );
            }
        }
    }
}

#[test]
fn versioned_entry_streams_match_the_reference() {
    // Trip-count versioning as the suite runner builds it: a baseline
    // kernel and a policy kernel compiled without the trip threshold,
    // both over one loop body, dispatched per entry on the trip count.
    let m = MachineModel::itanium2();
    let entries: Vec<(usize, u64)> = TRIPS
        .iter()
        .map(|&t| (usize::from(t >= 8), t))
        .chain([(1, 2), (0, 330), (1, 1), (0, 4)])
        .collect();
    let mut covered = 0;
    for (name, lp) in kernel_library() {
        let base = compile(&lp, &m, &CompileConfig::new(LatencyPolicy::Baseline));
        for policy in [LatencyPolicy::AllLoadsL3, LatencyPolicy::HloHints] {
            let boosted = compile(&lp, &m, &CompileConfig::new(policy).with_threshold(0));
            if boosted.lp != base.lp {
                continue; // versions must share one loop body
            }
            covered += 1;
            let versions = [
                (&base.kernel, base.regs_total),
                (&boosted.kernel, boosted.regs_total),
            ];
            for mode in MODES {
                let cfg = ExecutorConfig {
                    stream_mode: mode,
                    ..ExecutorConfig::default()
                };
                let what = format!("{name} versioned {policy:?} {mode:?}");
                assert_equivalent(&what, &base.lp, &versions, &m, cfg, &entries);
            }
        }
    }
    assert!(covered >= 10, "only {covered} versioned pairs share a body");
}

#[test]
fn random_loops_and_compare_probabilities_match_the_reference() {
    // Random bodies widen the opcode and pattern mix; skewed compare
    // probabilities make predicated kernels squash most or few
    // instructions.
    let m = MachineModel::itanium2();
    let entries: Vec<(usize, u64)> = TRIPS.iter().map(|&t| (0, t)).collect();
    let mut loops: Vec<(String, LoopIr)> = (0..24)
        .map(|seed| (format!("random_loop({seed})"), random_loop(seed)))
        .collect();
    loops.extend(
        kernel_library()
            .into_iter()
            .filter(|(_, lp)| lp.insts().iter().any(|i| i.qp().is_some()))
            .map(|(name, lp)| (name.to_string(), lp)),
    );
    for (name, lp) in &loops {
        let c = compile(lp, &m, &CompileConfig::new(LatencyPolicy::HloHints));
        for prob in [0.1, 0.9] {
            for mode in MODES {
                let cfg = ExecutorConfig {
                    stream_mode: mode,
                    cmp_taken_prob: prob,
                    ..ExecutorConfig::default()
                };
                let what = format!("{name} p={prob} {mode:?}");
                assert_equivalent(
                    &what,
                    &c.lp,
                    &[(&c.kernel, c.regs_total)],
                    &m,
                    cfg,
                    &entries,
                );
            }
        }
    }
}

/// A compare predicated on another compare, guarding a store: when the
/// outer predicate is false the inner compare is squashed and records no
/// predicate, so the store's predicate lookup falls back to older records.
fn chained_compares() -> LoopIr {
    let mut b = LoopBuilder::new("chained_compares");
    let a = b.affine_ref("a", DataClass::Int, 0x10_0000, 8, 8);
    let d = b.affine_ref("d", DataClass::Int, 0x40_0000, 8, 8);
    let c = b.live_in_gr("c");
    let x = b.load(a);
    let p1 = b.cmp(x, c);
    b.begin_if(p1);
    let p2 = b.cmp(x, c);
    b.end_if();
    b.begin_if(p2);
    let y = b.add(x, c);
    b.store(d, y);
    b.end_if();
    let _ = b.add_reduce(x);
    b.build().unwrap()
}

#[test]
fn chained_compares_match_the_reference() {
    let m = MachineModel::itanium2();
    let lp = chained_compares();
    let entries: Vec<(usize, u64)> = TRIPS.iter().map(|&t| (0, t)).collect();
    for policy in POLICIES {
        let c = compile(&lp, &m, &CompileConfig::new(policy));
        for mode in MODES {
            let cfg = ExecutorConfig {
                stream_mode: mode,
                ..ExecutorConfig::default()
            };
            let what = format!("chained_compares {policy:?} {mode:?}");
            assert_equivalent(
                &what,
                &c.lp,
                &[(&c.kernel, c.regs_total)],
                &m,
                cfg,
                &entries,
            );
        }
    }
}

#[test]
fn reads_before_writes_match_the_reference() {
    // Every instruction scheduled in reverse program order: consumers
    // issue before their producers, so each lookup is answered by an
    // earlier entry's record while it is among the register's last 300,
    // and by the pre-loop value once it has aged out. Trips stepping
    // through 300 put a previous entry's record right at the window edge.
    let m = MachineModel::itanium2();
    let entries: Vec<(usize, u64)> = TRIPS.into_iter().chain(295..=312).map(|t| (0, t)).collect();
    let mut loops = kernel_library();
    loops.push(("chained_compares", chained_compares()));
    for (name, lp) in loops {
        let n = lp.insts().len() as i64;
        let reversed: Vec<i64> = (0..n).map(|i| n - 1 - i).collect();
        for ii in [1, 3] {
            let sched = ModuloSchedule::new(ii, reversed.clone());
            for mode in MODES {
                let cfg = ExecutorConfig {
                    stream_mode: mode,
                    ..ExecutorConfig::default()
                };
                let what = format!("{name} reversed ii={ii} {mode:?}");
                assert_equivalent(&what, &lp, &[(&sched, 16)], &m, cfg, &entries);
            }
        }
    }
}
