//! Property-based tests of the memory system and executor.

use proptest::prelude::*;

use ltsp_core::{compile_loop_with_profile, CompileConfig, LatencyPolicy};
use ltsp_ir::{CacheLevel, DataClass};
use ltsp_machine::MachineModel;
use ltsp_memsim::{Executor, ExecutorConfig, MemorySystem, StreamMode};
use ltsp_workloads::random_loop;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any access, re-accessing the same address much later hits at
    /// L1 (int) or L2 (FP) — lines land where they should.
    #[test]
    fn refill_then_hit(addr in 0u64..0x1_0000_0000, fp in any::<bool>()) {
        let m = MachineModel::itanium2();
        let mut sys = MemorySystem::new(*m.caches());
        let dc = if fp { DataClass::Fp } else { DataClass::Int };
        let first = sys.demand_access(addr, dc, 0, false);
        let later = sys.demand_access(addr, dc, 1_000_000, false);
        prop_assert!(later.latency <= first.latency);
        match dc {
            DataClass::Int => prop_assert_eq!(later.level, CacheLevel::L1),
            DataClass::Fp => prop_assert_eq!(later.level, CacheLevel::L2),
        }
    }

    /// A merged access never reports more than the full memory latency
    /// plus the TLB penalty, and in-flight merging is monotone: later
    /// accesses pay less.
    #[test]
    fn inflight_merge_monotone(addr in 0u64..0x1000_0000, gaps in proptest::collection::vec(1u64..40, 1..6)) {
        let m = MachineModel::itanium2();
        let mut sys = MemorySystem::new(*m.caches());
        let first = sys.demand_access(addr, DataClass::Int, 0, false);
        let mut t = 0u64;
        let mut prev = u32::MAX;
        for g in gaps {
            t += g;
            if t >= u64::from(first.latency) { break; }
            let a = sys.demand_access(addr, DataClass::Int, t, false);
            prop_assert!(a.merged);
            prop_assert!(a.latency <= prev);
            prop_assert!(u64::from(a.latency) + t <= u64::from(first.latency) + 25);
            prev = a.latency;
        }
    }

    /// Counter arithmetic: `a + b` is component-wise, and scaling by 1.0
    /// is the identity.
    #[test]
    fn counter_algebra(seed in 0u64..3_000, trip_a in 1u64..120, trip_b in 1u64..120) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let c = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), 100.0);
        let run = |trip: u64| {
            let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total,
                ExecutorConfig::default());
            ex.run_entry(trip);
            *ex.counters()
        };
        let a = run(trip_a);
        let b = run(trip_b);
        let sum = a + b;
        prop_assert_eq!(sum.total, a.total + b.total);
        prop_assert_eq!(sum.loads, a.loads + b.loads);
        prop_assert!(sum.is_consistent());
        prop_assert_eq!(a.scaled(1.0), a);
    }

    /// Cycle accounting stays consistent across multiple entries with
    /// varying trip counts, and kernel iterations add up exactly.
    #[test]
    fn multi_entry_accounting(seed in 0u64..3_000, trips in proptest::collection::vec(1u64..60, 1..8)) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let c = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::HloHints), 50.0);
        let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total,
            ExecutorConfig { stream_mode: StreamMode::Restart, ..ExecutorConfig::default() });
        let mut expect_src = 0u64;
        let mut expect_kernel = 0u64;
        for &t in &trips {
            ex.run_entry(t);
            expect_src += t;
            expect_kernel += t + u64::from(c.kernel.stage_count()) - 1;
        }
        let counters = ex.counters();
        prop_assert!(counters.is_consistent());
        prop_assert_eq!(counters.source_iters, expect_src);
        prop_assert_eq!(counters.kernel_iters, expect_kernel);
        prop_assert_eq!(counters.entries, trips.len() as u64);
    }

    /// Restart-mode streams replay addresses, so a second entry is never
    /// slower than the first (caches only get warmer).
    #[test]
    fn restart_entries_warm_up(seed in 0u64..3_000, trip in 8u64..100) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let c = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), trip as f64);
        let mut ex = Executor::new(&c.lp, &c.kernel, &m, c.regs_total,
            ExecutorConfig { stream_mode: StreamMode::Restart, ..ExecutorConfig::default() });
        ex.run_entry(trip);
        let first = ex.counters().total;
        ex.run_entry(trip);
        let second = ex.counters().total - first;
        prop_assert!(second <= first + 5, "second entry slower: {} vs {}", second, first);
    }
}
