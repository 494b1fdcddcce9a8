//! The simulation driver: the one place a compiled loop meets the
//! executor. The suite runner, miss sampling, the adaptive loop, the
//! bench experiments and `ltspc --simulate` all run kernels through
//! [`simulate`] (cycle accounting over a stream of entries) or
//! [`steady_state`] (a warm-up-discarding measurement window).

use ltsp_ir::{LatencyHint, LoopIr};
use ltsp_machine::MachineModel;
use ltsp_memsim::{CycleCounters, Executor, ExecutorConfig, RefObservation, StreamMode};
use ltsp_telemetry::Telemetry;

use crate::compile::{compile_loop_with_profile, CompiledLoop};
use crate::config::{CompileConfig, LatencyPolicy};

/// Builds an executor over one or more kernel versions of one loop body.
fn executor<'a>(
    versions: &[&'a CompiledLoop],
    machine: &'a MachineModel,
    cfg: ExecutorConfig,
) -> Executor<'a> {
    let (first, rest) = versions.split_first().expect("at least one kernel version");
    debug_assert!(
        rest.iter().all(|c| c.lp == first.lp),
        "versions only change scheduling, not the loop body"
    );
    let kernels: Vec<_> = versions.iter().map(|c| (&c.kernel, c.regs_total)).collect();
    Executor::new_versioned(&first.lp, &kernels, machine, cfg)
}

/// Simulates `entries` — `(version, trip)` pairs, each one loop entry on
/// kernel `versions[version]` — and returns the accumulated counters.
///
/// All versions must compile the same loop body (trip-count versioning
/// keeps a baseline and a boosted kernel of one loop); they share the
/// memory system, scoreboard and address streams. The entries run under
/// a `simulate:{name}` span of `tel`, which also receives each entry's
/// `sim.entry_cycles` sample and, at the end, the `sim.*` counters.
/// Observation never changes the counters.
///
/// # Panics
///
/// Panics if `versions` is empty, a version index is out of range, or a
/// trip is zero.
pub fn simulate(
    name: &str,
    versions: &[&CompiledLoop],
    machine: &MachineModel,
    cfg: ExecutorConfig,
    entries: impl IntoIterator<Item = (usize, u64)>,
    tel: &Telemetry,
) -> CycleCounters {
    let mut ex = executor(versions, machine, cfg);
    ex.attach_telemetry(tel);
    {
        let _span = tel.span(format!("simulate:{name}"));
        for (version, trip) in entries {
            ex.run_entry_version(version, trip);
        }
    }
    ex.export_metrics("sim");
    *ex.counters()
}

/// A steady-state measurement window (see [`steady_state`]).
#[derive(Debug, Clone)]
pub struct SteadyState {
    /// Stall cycles over the window.
    pub stall_cycles: u64,
    /// Total cycles over the window.
    pub total_cycles: u64,
    /// Per-reference observations over the window, indexed by memref id.
    pub observations: Vec<RefObservation>,
}

/// Measures a compiled loop in steady state: `warmup` entries warm the
/// caches and are discarded, then `measure` entries are observed — the
/// view of a sampling profiler, whose samples are dominated by the steady
/// state, not the cold start. Every entry runs `trip` iterations; entry
/// counts and the trip are clamped to at least 1.
pub fn steady_state(
    compiled: &CompiledLoop,
    machine: &MachineModel,
    cfg: ExecutorConfig,
    trip: u64,
    warmup: u32,
    measure: u32,
) -> SteadyState {
    let mut ex = executor(&[compiled], machine, cfg);
    let trip = trip.max(1);
    for _ in 0..warmup.max(1) {
        ex.run_entry(trip);
    }
    ex.reset_ref_stats();
    let warm = *ex.counters();
    for _ in 0..measure.max(1) {
        ex.run_entry(trip);
    }
    let c = ex.counters();
    SteadyState {
        stall_cycles: c.stall_cycles() - warm.stall_cycles(),
        total_cycles: c.total - warm.total,
        observations: ex.observations().to_vec(),
    }
}

/// The service level a reference's mean demand latency reveals: `L3` at
/// or above the L3 floor (`l3.best_latency + 2`), `L2` at or above the L2
/// floor (`l2.best_latency - 1`), and `None` for near hits or a reference
/// with no demand accesses. The one rule behind both miss sampling and
/// the adaptive loop's verdicts.
pub fn service_level(obs: &RefObservation, machine: &MachineModel) -> Option<LatencyHint> {
    let avg = obs.avg_latency()?;
    let caches = machine.caches();
    if avg >= f64::from(caches.l3.best_latency) + 2.0 {
        Some(LatencyHint::L3)
    } else if avg >= f64::from(caches.l2.best_latency) - 1.0 {
        Some(LatencyHint::L2)
    } else {
        None
    }
}

/// Samples per-reference miss behaviour by executing the baseline-compiled
/// loop in steady state (`sample_entries` warm-up entries, then as many
/// measured ones, of `trip` iterations) and derives a latency hint per
/// memory reference from its [`service_level`]. This is the "dynamic
/// cache-miss sampling" oracle of the paper's outlook (Sec. 6).
pub fn sample_miss_hints(
    lp: &LoopIr,
    machine: &MachineModel,
    trip: u64,
    sample_entries: u32,
    stream_mode: StreamMode,
    seed: u64,
) -> Vec<Option<LatencyHint>> {
    let cfg = CompileConfig::new(LatencyPolicy::Baseline);
    let compiled = compile_loop_with_profile(lp, machine, &cfg, trip as f64);
    let exec = ExecutorConfig {
        seed,
        stream_mode,
        ..ExecutorConfig::default()
    };
    steady_state(
        &compiled,
        machine,
        exec,
        trip,
        sample_entries,
        sample_entries,
    )
    .observations
    .iter()
    .take(lp.memrefs().len()) // ignore HLO-added refs, none today
    .map(|obs| service_level(obs, machine))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> ExecutorConfig {
        ExecutorConfig {
            stream_mode: StreamMode::Restart,
            ..ExecutorConfig::default()
        }
    }

    fn compiled(policy: LatencyPolicy) -> CompiledLoop {
        let cfg = CompileConfig::new(policy).with_threshold(0);
        let lp = ltsp_workloads::stream_sum("s", ltsp_ir::DataClass::Int, 64);
        compile_loop_with_profile(&lp, &MachineModel::itanium2(), &cfg, 64.0)
    }

    #[test]
    fn service_level_floors() {
        let m = MachineModel::itanium2();
        let (l2, l3) = (m.caches().l2.best_latency, m.caches().l3.best_latency);
        let at = |latency: u32| RefObservation {
            accesses: 2,
            latency_sum: 2 * u64::from(latency),
            ..RefObservation::default()
        };
        assert_eq!(service_level(&RefObservation::default(), &m), None);
        assert_eq!(service_level(&at(l2 - 2), &m), None);
        assert_eq!(service_level(&at(l2 - 1), &m), Some(LatencyHint::L2));
        assert_eq!(service_level(&at(l3 + 1), &m), Some(LatencyHint::L2));
        assert_eq!(service_level(&at(l3 + 2), &m), Some(LatencyHint::L3));
    }

    #[test]
    fn entries_dispatch_to_their_version_only() {
        let m = MachineModel::itanium2();
        let (base, boost) = (
            compiled(LatencyPolicy::Baseline),
            compiled(LatencyPolicy::AllLoadsL3),
        );
        assert!(boost.kernel.stage_count() > base.kernel.stage_count());
        let tel = Telemetry::disabled();
        let run = |versions: &[&CompiledLoop], version: usize| {
            simulate("s", versions, &m, exec(), [(version, 64); 5], &tel)
        };
        // An unused version changes nothing; a used one is the kernel run.
        assert_eq!(run(&[&base, &boost], 0), run(&[&base], 0));
        assert_eq!(run(&[&base, &boost], 1), run(&[&boost], 0));
    }

    #[test]
    fn steady_state_is_the_window_after_warmup() {
        let m = MachineModel::itanium2();
        let c = compiled(LatencyPolicy::Baseline);
        let tel = Telemetry::disabled();
        let run = |n: usize| simulate("s", &[&c], &m, exec(), vec![(0, 64); n], &tel);
        let (warm, all) = (run(3), run(5));
        let window = steady_state(&c, &m, exec(), 64, 3, 2);
        assert_eq!(window.total_cycles, all.total - warm.total);
        assert_eq!(
            window.stall_cycles,
            all.stall_cycles() - warm.stall_cycles()
        );
        let loads: u64 = window.observations.iter().map(|o| o.accesses).sum();
        assert_eq!(
            loads,
            all.loads - warm.loads,
            "warm-up observations discarded"
        );
    }
}
