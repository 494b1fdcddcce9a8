//! End-to-end tests of if-converted (predicated) loops: the paper's
//! pipeliner input is explicitly if-converted code ("the loop is first
//! if-converted to remove control flow", Sec. 3.3), and its own Sec. 4.4
//! example contains an `if (node->orientation == UP)` branch.

use ltsp::core::{compile_loop_with_profile, simulate, CompileConfig, CompiledLoop, LatencyPolicy};
use ltsp::ir::{parse_loop, DataClass, LoopBuilder};
use ltsp::machine::MachineModel;
use ltsp::memsim::{CycleCounters, ExecutorConfig, StreamMode};
use ltsp::telemetry::Telemetry;
use ltsp::workloads::mcf_refresh_predicated;

fn machine() -> MachineModel {
    MachineModel::itanium2()
}

/// Simulates `entries` entries of `trip` iterations on progressive
/// streams, with compares taken at probability `prob`.
fn run_at(c: &CompiledLoop, m: &MachineModel, prob: f64, trip: u64, entries: u32) -> CycleCounters {
    let exec = ExecutorConfig {
        stream_mode: StreamMode::Progressive,
        cmp_taken_prob: prob,
        ..ExecutorConfig::default()
    };
    let schedule = (0..entries).map(|_| (0, trip));
    simulate("pred", &[c], m, exec, schedule, &Telemetry::disabled())
}

#[test]
fn predicated_mcf_compiles_and_pipelines() {
    let m = machine();
    let lp = mcf_refresh_predicated("mcf-pred", 32 << 20);
    // Both sides of the diamond are predicated; the join is a sel.
    let predicated = lp.insts().iter().filter(|i| i.qp().is_some()).count();
    assert!(predicated >= 4, "both branch bodies are predicated");
    assert!(lp.insts().iter().any(|i| i.op() == ltsp::ir::Opcode::Sel));

    let c = compile_loop_with_profile(&lp, &m, &CompileConfig::new(LatencyPolicy::HloHints), 2.3);
    assert!(c.pipelined, "the predicated loop pipelines");
    let stats = c.stats.unwrap();
    assert!(stats.critical_loads >= 1, "the chase stays critical");
    assert!(
        stats.boosted_loads >= 2,
        "the delinquent predicated fields are boosted: {stats:?}"
    );
}

#[test]
fn predicated_loops_round_trip_textually() {
    let lp = mcf_refresh_predicated("mcf-pred", 32 << 20);
    let text = lp.to_string();
    assert!(text.contains("(p0)"), "then-side predicate printed: {text}");
    assert!(text.contains("(!p0)"), "else-side negation printed: {text}");
    let reparsed = parse_loop(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(lp, reparsed);
}

#[test]
fn predication_gates_memory_traffic() {
    // A loop whose store only fires when the compare is taken: with
    // taken probability 0 the store never reaches memory, with 1 it
    // always does.
    let m = machine();
    let mut b = LoopBuilder::new("gated");
    let x = b.affine_ref("x[i]", DataClass::Int, 0x10_0000, 4, 4);
    let y = b.affine_ref("y[i]", DataClass::Int, 0x4000_0000, 4, 4);
    let v = b.load(x);
    let t = b.live_in_gr("t");
    let p = b.cmp(v, t);
    b.begin_if(p);
    b.store(y, v);
    b.end_if();
    let lp = b.build().unwrap();

    let c = compile_loop_with_profile(
        &lp,
        &m,
        &CompileConfig::new(LatencyPolicy::Baseline).with_prefetch(false),
        1000.0,
    );
    let run = |prob: f64| run_at(&c, &m, prob, 1000, 1).stores;
    assert_eq!(run(0.0), 0, "never-taken predicate squashes every store");
    assert_eq!(
        run(1.0),
        1000,
        "always-taken predicate stores every iteration"
    );
    let half = run(0.5);
    assert!(
        (300..700).contains(&half),
        "half-taken predicate stores about half the time: {half}"
    );
}

#[test]
fn predicated_schedule_still_honors_dependences() {
    // The qualifying predicate is a register dependence: the cmp must be
    // scheduled before (modulo II) any instruction it predicates.
    let m = machine();
    let lp = mcf_refresh_predicated("mcf-pred", 32 << 20);
    let c = compile_loop_with_profile(&lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), 100.0);
    let ii = i64::from(c.kernel.ii());
    for inst in c.lp.insts() {
        if let Some((qp, _)) = inst.qp() {
            if let Some(def) = c.lp.def_of(qp.reg) {
                assert!(
                    c.kernel.time(def) < c.kernel.time(inst.id()) + ii * i64::from(qp.omega),
                    "predicate def must precede its use"
                );
            }
        }
    }
}

#[test]
fn predication_off_path_loads_save_time() {
    // With a never-taken predicate the then-side delinquent loads never
    // issue, so the loop runs faster than with an always-taken one.
    let m = machine();
    let lp = mcf_refresh_predicated("mcf-pred", 32 << 20);
    let c = compile_loop_with_profile(&lp, &m, &CompileConfig::new(LatencyPolicy::Baseline), 3.0);
    let run = |prob: f64| run_at(&c, &m, prob, 3, 200).total;
    // The then-side carries the delinquent loads; never taking it skips
    // them entirely.
    assert!(
        run(1.0) > run(0.0),
        "the load-bearing path must cost more: {} vs {}",
        run(1.0),
        run(0.0)
    );
}
