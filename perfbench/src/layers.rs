//! Calls into the compiler layer shared by several workloads, and the
//! per-layer metrics derived from a finished trace.

use ltsp_core::{
    compile_loop_with_profile, compile_loop_with_profile_phased, CompileConfig, CompiledLoop,
    LatencyPolicy,
};
use ltsp_ir::LoopIr;
use ltsp_machine::MachineModel;
use ltsp_telemetry::phase::{Phase, PhaseTimer};
use ltsp_telemetry::Telemetry;

use crate::stats::median;
use crate::trace::Trace;
use crate::Metric;

/// The four latency-policy arms of the paper's Figs. 7–9.
pub const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];

/// The compiler phases `compile_loop_with_profile_phased` books, with the
/// per-layer metric each one feeds.
const COMPILE_PHASES: [(Phase, &str); 5] = [
    (Phase::Hlo, "hlo.us"),
    (Phase::Ddg, "ddg.us"),
    (Phase::Mrt, "pipeliner.mrt_us"),
    (Phase::Sched, "pipeliner.sched_us"),
    (Phase::Regalloc, "pipeliner.regalloc_us"),
];

/// `compile_loop_with_profile`, or in a traced pass its phased twin under
/// a `core.compile` span with the phase split and pipeliner counts.
pub fn compile(
    tr: &mut Option<&mut Trace>,
    lp: &LoopIr,
    machine: &MachineModel,
    cfg: &CompileConfig,
    trip: f64,
    item: u64,
) -> CompiledLoop {
    let Some(t) = tr else {
        return compile_loop_with_profile(lp, machine, cfg, trip);
    };
    let timer = PhaseTimer::new();
    let tel = Telemetry::disabled();
    let c = t.time("core.compile", item, || {
        compile_loop_with_profile_phased(lp, machine, cfg, trip, &tel, Some(&timer))
    });
    for (phase, key) in COMPILE_PHASES {
        t.add(key, timer.get_us(phase) as f64);
    }
    t.add(
        "pipeliner.schedule_attempts",
        f64::from(c.stats.map_or(1, |s| s.schedule_attempts)),
    );
    t.add("pipeliner.fallbacks", f64::from(u8::from(!c.pipelined)));
    t.add("pipeliner.ii_sum", f64::from(c.kernel.ii()));
    c
}

/// Books a simulated loop's counters.
pub fn add_sim_counters(t: &mut Trace, c: &ltsp_memsim::CycleCounters) {
    t.add("memsim.entries", c.entries as f64);
    t.add("memsim.sim_cycles", c.total as f64);
    t.add("memsim.kernel_iters", c.kernel_iters as f64);
    t.add("memsim.stall_cycles", c.stall_cycles() as f64);
    t.add("memsim.ozq_full_cycles", c.ozq_full_cycles as f64);
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric, per traced pass unless named otherwise. A layer
/// a workload does not call reads 0. `plain` and `traced` are the pass
/// walls of the untraced and traced passes of the same run.
pub fn metrics(t: &Trace, plain: &[f64], traced: &[f64]) -> Vec<Metric> {
    let passes = t.passes.max(1) as f64;
    let sum = |k: &str| t.sums.get(k).copied().unwrap_or(0.0);
    let per_pass = |k: &str| sum(k) / passes;
    // A layer's time: its outside-timed spans plus any time booked without
    // a span (phase timers, server wire timings).
    let layer_us = |span: &str, key: &str| (t.span_us(span) + sum(key)) / passes;
    let allocs = |k: &str| t.allocs.get(k).copied().unwrap_or(0) as f64;
    let p50 = |k: &str| t.samples.get(k).map_or(0.0, |v| median(v));
    let per_request = |k: &str| ratio(sum(k), sum("server.requests"));
    let m = |name, value: f64, unit| Metric { name, value, unit };
    vec![
        m("memsim.run_us", layer_us("memsim.run", ""), "us"),
        m("memsim.setup_us", layer_us("memsim.setup", ""), "us"),
        m(
            "memsim.ns_per_sim_cycle",
            ratio(t.span_us("memsim.run") * 1e3, sum("memsim.sim_cycles")),
            "ns",
        ),
        m(
            "memsim.allocs_per_kiter",
            ratio(allocs("memsim.run"), sum("memsim.kernel_iters") / 1e3),
            "count",
        ),
        m("memsim.entries", per_pass("memsim.entries"), "count"),
        m("memsim.sim_cycles", per_pass("memsim.sim_cycles"), "count"),
        m(
            "memsim.kernel_iters",
            per_pass("memsim.kernel_iters"),
            "count",
        ),
        m(
            "memsim.stall_share",
            ratio(sum("memsim.stall_cycles"), sum("memsim.sim_cycles")),
            "ratio",
        ),
        m(
            "memsim.ozq_full_cycles",
            per_pass("memsim.ozq_full_cycles"),
            "count",
        ),
        m(
            "core.compile_us",
            layer_us("core.compile", "core.compile_us"),
            "us",
        ),
        m(
            "core.allocs_per_compile",
            ratio(allocs("core.compile"), t.spans_named("core.compile") as f64),
            "count",
        ),
        m("hlo.us", per_pass("hlo.us"), "us"),
        m("ddg.us", per_pass("ddg.us"), "us"),
        m("pipeliner.mrt_us", per_pass("pipeliner.mrt_us"), "us"),
        m("pipeliner.sched_us", per_pass("pipeliner.sched_us"), "us"),
        m(
            "pipeliner.regalloc_us",
            per_pass("pipeliner.regalloc_us"),
            "us",
        ),
        m(
            "pipeliner.schedule_attempts",
            per_pass("pipeliner.schedule_attempts"),
            "count",
        ),
        m(
            "pipeliner.fallbacks",
            per_pass("pipeliner.fallbacks"),
            "count",
        ),
        m("pipeliner.ii_sum", per_pass("pipeliner.ii_sum"), "count"),
        m("ir.parse_us", layer_us("ir.parse", "ir.parse_us"), "us"),
        m("oracle.validate_us", layer_us("oracle.validate", ""), "us"),
        m("oracle.validated", per_pass("oracle.validated"), "count"),
        m("oracle.rejected", per_pass("oracle.rejected"), "count"),
        m(
            "server.render_us",
            layer_us("server.render", "server.render_us"),
            "us",
        ),
        m("adaptive.call_us", layer_us("adaptive.call", ""), "us"),
        m(
            "adaptive.us_per_round",
            ratio(t.span_us("adaptive.call"), sum("adaptive.rounds")),
            "us",
        ),
        m("adaptive.rounds", per_pass("adaptive.rounds"), "count"),
        m("adaptive.refined", per_pass("adaptive.refined"), "count"),
        m(
            "cache.hit_ratio",
            ratio(sum("cache.hits"), sum("cache.hits") + sum("cache.misses")),
            "ratio",
        ),
        m(
            "server.queue_wait_us",
            per_request("server.queue_wait_us"),
            "us",
        ),
        m(
            "server.dispatch_us",
            per_request("server.dispatch_us"),
            "us",
        ),
        m("server.handler_us", per_request("server.handler_us"), "us"),
        m("server.hit_p50_us", p50("server.hit"), "us"),
        m("server.miss_p50_us", p50("server.miss"), "us"),
        m("server.verify_p50_us", p50("server.verify"), "us"),
        m("server.oracle_p50_us", p50("server.oracle"), "us"),
        m("trace.pass_us", median(traced) * 1e6, "us"),
        m(
            "trace.overhead_pct",
            (ratio(median(traced), median(plain)) - 1.0) * 100.0,
            "%",
        ),
        m(
            "unattributed_us",
            (t.self_us("pass") + t.self_us("serve.conn")) / passes,
            "us",
        ),
    ]
}
