//! End-to-end integration tests across all crates: IR → HLO → pipeliner →
//! simulator, checking the paper's structural claims.

use ltsp::core::{compile_loop_with_profile, simulate, CompileConfig, LatencyPolicy};
use ltsp::ir::{DataClass, LoopBuilder, LoopIr};
use ltsp::machine::MachineModel;
use ltsp::memsim::{CycleCounters, ExecutorConfig, StreamMode};
use ltsp::telemetry::Telemetry;
use ltsp::workloads::{
    gather_update, mcf_refresh, saxpy, stencil3, stream_sum, symbolic_walk, triad,
};

fn machine() -> MachineModel {
    MachineModel::itanium2()
}

/// Simulates `entries` loop entries of `trip` iterations each.
fn run_entries(
    compiled: &ltsp::core::CompiledLoop,
    m: &MachineModel,
    stream_mode: StreamMode,
    trip: u64,
    entries: u32,
) -> CycleCounters {
    let exec = ExecutorConfig {
        stream_mode,
        ..ExecutorConfig::default()
    };
    let schedule = (0..entries).map(|_| (0, trip));
    simulate(
        "e2e",
        &[compiled],
        m,
        exec,
        schedule,
        &Telemetry::disabled(),
    )
}

fn run(compiled: &ltsp::core::CompiledLoop, m: &MachineModel, trip: u64) -> CycleCounters {
    run_entries(compiled, m, StreamMode::Progressive, trip, 1)
}

/// The paper's running example: ld/add/st pipelines at II = 1 with three
/// stages (Figs. 1-3); scheduling the load for a higher latency keeps the
/// II and adds latency-buffer stages (Fig. 4).
#[test]
fn running_example_matches_figures_2_through_4() {
    let m = machine();
    let mut b = LoopBuilder::new("fig1");
    let src = b.affine_ref("src", DataClass::Int, 0x1000, 4, 4);
    let dst = b.affine_ref("dst", DataClass::Int, 0x80_0000, 4, 4);
    let r9 = b.live_in_gr("r9");
    let v = b.load(src);
    let s = b.add(v, r9);
    b.store(dst, s);
    let lp = b.build().unwrap();

    let base_cfg = CompileConfig::new(LatencyPolicy::Baseline).with_prefetch(false);
    let base = compile_loop_with_profile(&lp, &m, &base_cfg, 1000.0);
    assert!(base.pipelined);
    assert_eq!(base.kernel.ii(), 1, "Fig. 3: single-cycle kernel");
    assert_eq!(base.kernel.stage_count(), 3, "Fig. 2: three stages");

    let boost_cfg = CompileConfig::new(LatencyPolicy::AllLoadsL3)
        .with_threshold(0)
        .with_prefetch(false);
    let boost = compile_loop_with_profile(&lp, &m, &boost_cfg, 1000.0);
    assert_eq!(boost.kernel.ii(), 1, "the II must not change");
    // Scheduled for the typical L3 latency (21): stages = 21 + 2.
    assert_eq!(
        boost.kernel.stage_count(),
        23,
        "latency-buffer stages added"
    );
}

/// Non-critical boosting must never raise the II across the whole kernel
/// library, and must never shrink stage counts or register usage.
#[test]
fn boosting_preserves_ii_across_kernel_library() {
    let m = machine();
    let kernels: Vec<(&str, LoopIr)> = vec![
        ("stream", stream_sum("s", DataClass::Fp, 8)),
        ("saxpy", saxpy("s")),
        ("triad", triad("t")),
        ("stencil3", stencil3("st")),
        ("gather", gather_update("g", DataClass::Fp, 1 << 24)),
        ("symbolic", symbolic_walk("sy", 4096)),
        ("mcf", mcf_refresh("m", 1 << 25)),
    ];
    for (name, lp) in kernels {
        let base = compile_loop_with_profile(
            &lp,
            &m,
            &CompileConfig::new(LatencyPolicy::Baseline),
            1000.0,
        );
        let boost = compile_loop_with_profile(
            &lp,
            &m,
            &CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0),
            1000.0,
        );
        assert!(base.pipelined && boost.pipelined, "{name} must pipeline");
        assert_eq!(
            base.kernel.ii(),
            boost.kernel.ii(),
            "{name}: II changed under boosting"
        );
        assert!(
            boost.kernel.stage_count() >= base.kernel.stage_count(),
            "{name}: stages may only grow"
        );
        assert!(
            boost.regs_total >= base.regs_total,
            "{name}: register usage may only grow"
        );
    }
}

/// The executed schedule respects the II lower bound: a loop can never run
/// faster than II cycles per kernel iteration.
#[test]
fn simulation_respects_ii_lower_bound() {
    let m = machine();
    for lp in [saxpy("s"), triad("t"), stencil3("st")] {
        let c = compile_loop_with_profile(
            &lp,
            &m,
            &CompileConfig::new(LatencyPolicy::HloHints),
            5000.0,
        );
        let counters = run(&c, &m, 5000);
        let min_cycles = counters.kernel_iters * u64::from(c.kernel.ii());
        assert!(
            counters.total >= min_cycles,
            "{}: {} cycles below II bound {}",
            lp.name(),
            counters.total,
            min_cycles
        );
        assert!(counters.is_consistent());
    }
}

/// Cache-missing loops gain from boosting; the same loop with a warm
/// working set loses at low trip counts — the central tradeoff.
#[test]
fn gain_and_regression_both_reproduce() {
    let m = machine();
    let lp = stream_sum("s", DataClass::Int, 256); // misses every iteration
    let base_cfg = CompileConfig::new(LatencyPolicy::Baseline);
    let boost_cfg = CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0);

    let base = compile_loop_with_profile(&lp, &m, &base_cfg, 3000.0);
    let boost = compile_loop_with_profile(&lp, &m, &boost_cfg, 3000.0);
    let cb = run(&base, &m, 3000);
    let cx = run(&boost, &m, 3000);
    assert!(
        cx.total < cb.total,
        "missing loads: boost must win ({} vs {})",
        cx.total,
        cb.total
    );

    // Warm low-trip variant.
    let lp_warm = stream_sum("w", DataClass::Int, 4);
    let base_w = compile_loop_with_profile(&lp_warm, &m, &base_cfg, 4.0);
    let boost_w = compile_loop_with_profile(&lp_warm, &m, &boost_cfg, 4.0);
    let eb = run_entries(&base_w, &m, StreamMode::Restart, 4, 300);
    let ex = run_entries(&boost_w, &m, StreamMode::Restart, 4, 300);
    assert!(
        ex.total > eb.total,
        "warm low-trip loop: boost must lose ({} vs {})",
        ex.total,
        eb.total
    );
}

/// Full-pipeline determinism: identical configurations produce identical
/// cycle counts.
#[test]
fn pipeline_is_deterministic() {
    let m = machine();
    let lp = gather_update("g", DataClass::Fp, 1 << 24);
    let cfg = CompileConfig::new(LatencyPolicy::HloHints);
    let a = compile_loop_with_profile(&lp, &m, &cfg, 500.0);
    let b = compile_loop_with_profile(&lp, &m, &cfg, 500.0);
    assert_eq!(a.kernel, b.kernel, "compilation is deterministic");
    assert_eq!(
        run(&a, &m, 500),
        run(&b, &m, 500),
        "simulation is deterministic"
    );
}

/// The HLO's prefetches pay for themselves on streaming loops: with
/// prefetching on, a progressive stream runs much faster than without.
#[test]
fn prefetching_pays_for_itself_on_streams() {
    let m = machine();
    let lp = triad("t");
    let on = compile_loop_with_profile(
        &lp,
        &m,
        &CompileConfig::new(LatencyPolicy::Baseline),
        20_000.0,
    );
    let off = compile_loop_with_profile(
        &lp,
        &m,
        &CompileConfig::new(LatencyPolicy::Baseline).with_prefetch(false),
        20_000.0,
    );
    let c_on = run(&on, &m, 20_000);
    let c_off = run(&off, &m, 20_000);
    // The triad is close to the modeled memory-bandwidth bound, so
    // prefetching buys latency hiding but not bandwidth: expect a solid
    // but not unbounded speedup.
    assert!(
        c_on.total * 6 < c_off.total * 5,
        "prefetching should speed the stream up by >1.2x: {} vs {}",
        c_on.total,
        c_off.total
    );
}

/// Boosting shifts stall composition exactly as Fig. 10 describes: data
/// stalls shrink, unstalled execution grows slightly (extra epilogs).
#[test]
fn stall_composition_shifts_like_fig10() {
    let m = machine();
    let lp = gather_update("g", DataClass::Int, 48 << 20);
    let base = compile_loop_with_profile(
        &lp,
        &m,
        &CompileConfig::new(LatencyPolicy::Baseline),
        2000.0,
    );
    let hlo = compile_loop_with_profile(
        &lp,
        &m,
        &CompileConfig::new(LatencyPolicy::HloHints),
        2000.0,
    );
    let cb = run(&base, &m, 2000);
    let cx = run(&hlo, &m, 2000);
    assert!(cx.be_exe_bubble < cb.be_exe_bubble, "EXE bubble shrinks");
    assert!(cx.unstalled >= cb.unstalled, "unstalled grows (epilog)");
}
