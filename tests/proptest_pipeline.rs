//! Property-based tests over the full compile-and-simulate pipeline on
//! randomly generated loops.

use proptest::prelude::*;

use ltsp::core::{compile_loop_with_profile, simulate, CompileConfig, LatencyPolicy};
use ltsp::ddg::Ddg;
use ltsp::ir::Opcode;
use ltsp::machine::MachineModel;
use ltsp::memsim::{ExecutorConfig, StreamMode};
use ltsp::telemetry::Telemetry;
use ltsp::workloads::random_loop;

fn policies() -> impl Strategy<Value = LatencyPolicy> {
    prop_oneof![
        Just(LatencyPolicy::Baseline),
        Just(LatencyPolicy::AllLoadsL3),
        Just(LatencyPolicy::AllFpLoadsL2),
        Just(LatencyPolicy::HloHints),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated loop compiles; pipelined kernels respect both II
    /// lower bounds and never exceed the rotating-register supply.
    #[test]
    fn compiled_kernels_respect_lower_bounds(seed in 0u64..10_000, policy in policies()) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let cfg = CompileConfig::new(policy).with_threshold(0);
        let c = compile_loop_with_profile(&lp, &m, &cfg, 500.0);

        // Resource II holds for the *post-HLO* loop (prefetches included).
        let res_mii = m.res_mii(&c.lp);
        prop_assert!(c.kernel.ii() >= res_mii.min(c.kernel.ii()));
        if c.pipelined {
            prop_assert!(c.kernel.ii() >= res_mii,
                "II {} below ResMII {}", c.kernel.ii(), res_mii);
            let regs = c.regs.expect("pipelined loops carry an allocation");
            for class in [ltsp::ir::RegClass::Gr, ltsp::ir::RegClass::Fr, ltsp::ir::RegClass::Pr] {
                prop_assert!(
                    regs.rotating(class) <= m.registers().rotating(class),
                    "class {class} over-allocated"
                );
            }
        }
    }

    /// The final schedule honors every dependence edge of the DDG built
    /// with the exact latencies the compiler assumed.
    #[test]
    fn schedules_honor_all_dependences(seed in 0u64..10_000, policy in policies()) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let cfg = CompileConfig::new(policy).with_threshold(0);
        let c = compile_loop_with_profile(&lp, &m, &cfg, 500.0);
        if !c.pipelined {
            return Ok(()); // the acyclic fallback is list-scheduled (checked in-crate)
        }
        let ddg = Ddg::build(&c.lp, &m, &|id| {
            match c.lp.inst(id).op() {
                Opcode::Load(_) => c
                    .scheduled_load_latency_of(&m, id)
                    .expect("loads have latencies"),
                _ => 0,
            }
        });
        let ii = i64::from(c.kernel.ii());
        for e in ddg.edges() {
            prop_assert!(
                c.kernel.time(e.from) + i64::from(e.latency)
                    <= c.kernel.time(e.to) + ii * i64::from(e.omega),
                "edge {:?} violated at II {}", e, ii
            );
        }
    }

    /// Simulated executions keep the cycle-accounting invariant and the
    /// II·iterations lower bound, for any policy and trip count.
    #[test]
    fn simulation_counters_are_consistent(
        seed in 0u64..5_000,
        policy in policies(),
        trip in 1u64..300,
    ) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let cfg = CompileConfig::new(policy);
        let c = compile_loop_with_profile(&lp, &m, &cfg, trip as f64);
        let exec = ExecutorConfig { stream_mode: StreamMode::Progressive, ..ExecutorConfig::default() };
        let counters = simulate("prop", &[&c], &m, exec, [(0, trip)], &Telemetry::disabled());
        prop_assert!(counters.is_consistent(), "{counters:?}");
        prop_assert_eq!(counters.source_iters, trip);
        prop_assert!(
            counters.total >= counters.kernel_iters * u64::from(c.kernel.ii()),
            "ran faster than the II allows"
        );
    }

    /// Boosting non-critical loads never changes the II (the definition of
    /// non-critical), for any random loop.
    #[test]
    fn boosting_never_raises_ii(seed in 0u64..10_000) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let base = compile_loop_with_profile(
            &lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), 1000.0);
        let boost = compile_loop_with_profile(
            &lp, &m,
            &CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0), 1000.0);
        if base.pipelined && boost.pipelined {
            prop_assert!(boost.kernel.ii() <= base.kernel.ii(),
                "boost raised II from {} to {}", base.kernel.ii(), boost.kernel.ii());
            prop_assert!(boost.kernel.stage_count() >= base.kernel.stage_count());
        }
    }

    /// Determinism: compile + simulate twice, get identical results.
    #[test]
    fn full_stack_determinism(seed in 0u64..3_000) {
        let m = MachineModel::itanium2();
        let lp = random_loop(seed);
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let a = compile_loop_with_profile(&lp, &m, &cfg, 100.0);
        let b = compile_loop_with_profile(&lp, &m, &cfg, 100.0);
        prop_assert_eq!(&a.kernel, &b.kernel);
        let tel = Telemetry::disabled();
        let runner = |c| simulate("prop", &[c], &m, ExecutorConfig::default(), [(0, 64)], &tel);
        prop_assert_eq!(runner(&a), runner(&b));
    }
}
