//! Extension experiments beyond the paper's evaluation: the two outlook
//! directions of Sec. 6 (trip-count versioning, dynamic cache-miss
//! sampling) and two ablations of claims made in the text (OzQ capacity,
//! boost magnitude).

use ltsp_core::{
    benchmark_gain, compile_loop_with_profile, run_suite, run_suite_sampled, run_suite_versioned,
    simulate, CompileConfig, LatencyPolicy, RunConfig,
};
use ltsp_ir::DataClass;
use ltsp_machine::{CacheGeometry, MachineModel};
use ltsp_memsim::{ExecutorConfig, StreamMode};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::{cpu2000, cpu2006, gather_update, mcf_refresh, stream_sum};

use crate::experiments::GainExperiment;

/// Trip-count versioning (Sec. 6 outlook): every loop keeps a baseline and
/// a boosted kernel and dispatches per entry on the *actual* trip count.
/// Compared against the static headroom arms with and without a threshold.
pub fn versioning_experiment(machine: &MachineModel, scale: f64) -> GainExperiment {
    // Both suites: CPU2000 contains 177.mesa, whose training profile
    // (trip 154) contradicts its reference behaviour (trip 8) — the case
    // static thresholds cannot fix but run-time dispatch can.
    let mut benchs = cpu2006();
    benchs.extend(cpu2000());
    let base_rc =
        RunConfig::new(CompileConfig::new(LatencyPolicy::Baseline)).with_entry_scale(scale);
    let base = run_suite(&benchs, machine, &base_rc);

    let static_n0 = run_suite(
        &benchs,
        machine,
        &RunConfig::new(CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0))
            .with_entry_scale(scale),
    );
    let static_n32 = run_suite(
        &benchs,
        machine,
        &RunConfig::new(CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(32))
            .with_entry_scale(scale),
    );
    let versioned = run_suite_versioned(
        &benchs,
        machine,
        &RunConfig::new(CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(32))
            .with_entry_scale(scale),
    );

    let rows = benchs
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.name.to_string(),
                vec![
                    benchmark_gain(b, &base.runs[i], &static_n0.runs[i]),
                    benchmark_gain(b, &base.runs[i], &static_n32.runs[i]),
                    benchmark_gain(b, &base.runs[i], &versioned.runs[i]),
                ],
            )
        })
        .collect();
    GainExperiment {
        title: "Extension — trip-count versioning (both suites, headroom policy)".to_string(),
        arms: vec![
            "static n=0".to_string(),
            "static n=32".to_string(),
            "versioned".to_string(),
        ],
        rows,
    }
}

/// Dynamic cache-miss sampling (Sec. 6 outlook): per-reference hint
/// assignment from measured latencies, compared against HLO hints — both
/// without PGO, where static information is weakest.
pub fn miss_sampling_experiment(machine: &MachineModel, scale: f64) -> GainExperiment {
    let benchs = cpu2006();
    let base_rc = RunConfig::new(CompileConfig::new(LatencyPolicy::Baseline).with_pgo(false))
        .with_entry_scale(scale);
    let base = run_suite(&benchs, machine, &base_rc);

    let hlo = run_suite(
        &benchs,
        machine,
        &RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints).with_pgo(false))
            .with_entry_scale(scale),
    );
    let sampled = run_suite_sampled(
        &benchs,
        machine,
        &RunConfig::new(CompileConfig::new(LatencyPolicy::MissSampled).with_pgo(false))
            .with_entry_scale(scale),
    );

    let rows = benchs
        .iter()
        .enumerate()
        .map(|(i, b)| {
            (
                b.name.to_string(),
                vec![
                    benchmark_gain(b, &base.runs[i], &hlo.runs[i]),
                    benchmark_gain(b, &base.runs[i], &sampled.runs[i]),
                ],
            )
        })
        .collect();
    GainExperiment {
        title: "Extension — dynamic cache-miss sampling (CPU2006, no PGO)".to_string(),
        arms: vec!["HLO-hints".to_string(), "miss-sampled".to_string()],
        rows,
    }
}

/// The balanced-recurrence extension (the paper's Sec. 5 closing remark:
/// "balancing latency increases between different loads on a recurrence
/// cycle is a possible future extension of our work"): on the Sec. 4.4
/// mcf loop, the chase load on the recurrence receives the cycle's slack
/// against the Min II as a partial boost instead of staying at base.
#[derive(Debug, Clone)]
pub struct BalancedResult {
    /// Scheduled latency of the chase load without / with balancing.
    pub chase_latency: (u32, u32),
    /// Loop speedup of HLO hints over baseline, without balancing.
    pub gain_plain: f64,
    /// Loop speedup with the balanced-recurrence extension on top.
    pub gain_balanced: f64,
}

impl BalancedResult {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Extension — balanced recurrence loads (429.mcf refresh_potential)\n\
             chase scheduled latency: {} -> {} cycles (cycle slack granted)\n\
             loop gain over baseline: {:+.2}% plain, {:+.2}% balanced\n",
            self.chase_latency.0, self.chase_latency.1, self.gain_plain, self.gain_balanced
        )
    }
}

/// Runs the balanced-recurrence comparison on the Sec. 4.4 loop.
pub fn balanced_recurrence_experiment(machine: &MachineModel, entries: u32) -> BalancedResult {
    use ltsp_ir::{InstId, SplitMix64};
    use ltsp_workloads::TripDistribution;

    let lp = mcf_refresh("refresh_potential", 48 << 20);
    let trips = TripDistribution::Mixture(vec![(0.75, 2), (0.25, 3)]);

    let base_cfg = CompileConfig::new(LatencyPolicy::Baseline);
    let plain_cfg = CompileConfig::new(LatencyPolicy::HloHints);
    let bal_cfg = CompileConfig::new(LatencyPolicy::HloHints).with_balanced_recurrences(true);

    let base = compile_loop_with_profile(&lp, machine, &base_cfg, trips.mean());
    let plain = compile_loop_with_profile(&lp, machine, &plain_cfg, trips.mean());
    let bal = compile_loop_with_profile(&lp, machine, &bal_cfg, trips.mean());

    let chase = InstId(0);
    let tel = Telemetry::disabled();
    let run = |c: &ltsp_core::CompiledLoop| {
        let mut rng = SplitMix64::new(0xBA1A);
        let schedule = (0..entries).map(|_| (0, trips.sample(&mut rng)));
        simulate(c.lp.name(), &[c], machine, progressive(), schedule, &tel).total
    };
    let tb = run(&base);
    let tp = run(&plain);
    let tl = run(&bal);
    BalancedResult {
        chase_latency: (
            plain.scheduled_load_latency_of(machine, chase).unwrap_or(1),
            bal.scheduled_load_latency_of(machine, chase).unwrap_or(1),
        ),
        gain_plain: 100.0 * (tb as f64 / tp.max(1) as f64 - 1.0),
        gain_balanced: 100.0 * (tb as f64 / tl.max(1) as f64 - 1.0),
    }
}

/// One `(x, y)` series from an ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationSeries {
    /// Series title.
    pub title: String,
    /// `(parameter value, measured y)` points.
    pub points: Vec<(u32, f64)>,
    /// Unit suffix for the y values ("%" for gains, "insts" for sizes).
    pub unit: &'static str,
}

impl AblationSeries {
    /// Renders the series.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.title);
        for (x, g) in &self.points {
            if self.unit == "%" {
                let _ = writeln!(s, "  {x:>6}: {g:+8.2}%");
            } else {
                let _ = writeln!(s, "  {x:>6}: {g:>8.0} {}", self.unit);
            }
        }
        s
    }
}

/// Default executor settings with progressive address streams.
fn progressive() -> ExecutorConfig {
    ExecutorConfig {
        stream_mode: StreamMode::Progressive,
        ..ExecutorConfig::default()
    }
}

/// Loop speedup (percent) of the unthresholded all-loads-L3 kernel over
/// the baseline kernel, both run for `entries` entries of `trip`
/// iterations under `exec`.
fn loop_gain(
    machine: &MachineModel,
    lp: &ltsp_ir::LoopIr,
    trip: u64,
    entries: u32,
    exec: ExecutorConfig,
) -> f64 {
    let tel = Telemetry::disabled();
    let run = |cfg: &CompileConfig| {
        let c = compile_loop_with_profile(lp, machine, cfg, trip as f64);
        let schedule = (0..entries).map(|_| (0, trip));
        simulate(c.lp.name(), &[&c], machine, exec, schedule, &tel).total
    };
    let tb = run(&CompileConfig::new(LatencyPolicy::Baseline));
    let tx = run(&CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0));
    100.0 * (tb as f64 / tx.max(1) as f64 - 1.0)
}

/// OzQ-capacity ablation: the paper's Sec. 4.5 observation — "the benefit
/// could be much higher if the queuing capacities in the cache hierarchy
/// were increased" — tested by sweeping the OzQ size on a delinquent
/// gather loop.
pub fn ozq_capacity_ablation(base_machine: &MachineModel) -> AblationSeries {
    let lp = gather_update("ozq-ablation", DataClass::Int, 64 << 20);
    let points = [8u32, 16, 32, 48, 96, 192]
        .into_iter()
        .map(|cap| {
            let mut caches: CacheGeometry = *base_machine.caches();
            caches.ozq_capacity = cap;
            let machine = MachineModel::new(
                *base_machine.issue(),
                *base_machine.latencies(),
                caches,
                *base_machine.registers(),
            );
            (cap, loop_gain(&machine, &lp, 600, 4, progressive()))
        })
        .collect();
    AblationSeries {
        title: "Ablation — boosted-loop gain vs OzQ capacity (Sec. 4.5 claim)".to_string(),
        points,
        unit: "%",
    }
}

/// Issue-width ablation. Two opposing effects meet here: Eq. 3 gives a
/// narrower machine (higher II) a *smaller* clustering factor for the
/// same boost — but its baseline is also far more stall-dominated, so the
/// *relative* gain from boosting is larger. The ablation reports both:
/// the measured gain and the clustering factor `k = d/II + 1` of the
/// boosted kernel.
pub fn issue_width_ablation() -> (AblationSeries, AblationSeries) {
    use ltsp_core::theory::clustering_factor;
    let lp = gather_update("width-ablation", DataClass::Int, 64 << 20);
    let machines = [
        (1u32, MachineModel::narrow()),
        (2, MachineModel::itanium2()),
        (4, MachineModel::wide()),
    ];
    let mut gains = Vec::new();
    let mut ks = Vec::new();
    for (width, machine) in machines {
        gains.push((width, loop_gain(&machine, &lp, 600, 4, progressive())));
        let boosted = compile_loop_with_profile(
            &lp,
            &machine,
            &CompileConfig::new(LatencyPolicy::AllLoadsL3).with_threshold(0),
            600.0,
        );
        let d = machine.load_latency(
            ltsp_ir::DataClass::Int,
            ltsp_machine::LatencyQuery::Hinted(ltsp_ir::LatencyHint::L3),
        ) - 1;
        ks.push((width, f64::from(clustering_factor(d, boosted.kernel.ii()))));
    }
    (
        AblationSeries {
            title: "Ablation — boosted-loop gain vs machine issue width (M slots)".to_string(),
            points: gains,
            unit: "%",
        },
        AblationSeries {
            title: "Ablation — clustering factor k (Eq. 3) vs issue width".to_string(),
            points: ks,
            unit: "x",
        },
    )
}

/// Rotation-vs-unrolling ablation (the paper's Sec. 5 remark that without
/// rotating registers clustering "could only be achieved with unrolling"):
/// the kernel-unroll factor modulo variable expansion would need, and the
/// resulting code size in instructions, as the scheduled latency grows.
pub fn mve_code_size_ablation(base_machine: &MachineModel) -> AblationSeries {
    use ltsp_pipeliner::{mve_unroll_factor, pipeline_loop, PipelineOptions};
    let lp = stream_sum("mve-ablation", DataClass::Int, 256);
    let points = [1u32, 6, 11, 21, 31]
        .into_iter()
        .map(|boost| {
            let mut caches: CacheGeometry = *base_machine.caches();
            caches.l3.typical_latency = boost;
            let machine = MachineModel::new(
                *base_machine.issue(),
                *base_machine.latencies(),
                caches,
                *base_machine.registers(),
            );
            let hint = |_| Some(ltsp_ir::LatencyHint::L3);
            let opts = PipelineOptions::default();
            let p = pipeline_loop(&lp, &machine, &hint, &opts, &Telemetry::disabled())
                .expect("pipelines");
            let factor = mve_unroll_factor(&lp, &p.schedule);
            // "Gain" column reused as code size: kernel instructions after
            // modulo variable expansion.
            let code_size = factor * lp.insts().len() as u32;
            (boost, f64::from(code_size))
        })
        .collect();
    AblationSeries {
        title: "Ablation — MVE code size without rotating registers, vs boost".to_string(),
        points,
        unit: "insts",
    }
}

/// Boost-magnitude ablation (Sec. 2.2's guidance that scheduling loads
/// beyond 20–30 cycles stops paying): sweep the hinted latency on a
/// missing loop (gain saturates) and on a warm low-trip loop (cost grows
/// with every extra stage).
pub fn boost_magnitude_ablation(base_machine: &MachineModel) -> (AblationSeries, AblationSeries) {
    let sweep = |lp: &ltsp_ir::LoopIr, trip: u64, entries: u32, mode: StreamMode| {
        [2u32, 6, 11, 21, 31, 51, 81]
            .into_iter()
            .map(|boost| {
                let mut caches: CacheGeometry = *base_machine.caches();
                caches.l3.typical_latency = boost;
                let machine = MachineModel::new(
                    *base_machine.issue(),
                    *base_machine.latencies(),
                    caches,
                    *base_machine.registers(),
                );
                let exec = ExecutorConfig {
                    stream_mode: mode,
                    ..ExecutorConfig::default()
                };
                (boost, loop_gain(&machine, lp, trip, entries, exec))
            })
            .collect::<Vec<_>>()
    };

    let missing = stream_sum("boost-ablation-miss", DataClass::Int, 256);
    let warm = stream_sum("boost-ablation-warm", DataClass::Int, 4);
    (
        AblationSeries {
            title: "Ablation — gain vs scheduled latency, memory-missing loop".to_string(),
            points: sweep(&missing, 1500, 2, StreamMode::Progressive),
            unit: "%",
        },
        AblationSeries {
            title: "Ablation — gain vs scheduled latency, warm trip-6 loop".to_string(),
            points: sweep(&warm, 6, 400, StreamMode::Restart),
            unit: "%",
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 0.25;

    #[test]
    fn versioning_rescues_low_trip_losses() {
        let m = MachineModel::itanium2();
        let e = versioning_experiment(&m, SCALE);
        let n0 = e.geomean(0);
        let n32 = e.geomean(1);
        let versioned = e.geomean(2);
        assert!(
            versioned > n0,
            "versioning must beat static n=0: {versioned:.2}% vs {n0:.2}%"
        );
        assert!(
            versioned >= n32 - 0.05,
            "versioning at least matches the static threshold: {versioned:.2}% vs {n32:.2}%"
        );
        // h264ref: static n=0 loses, versioning does not.
        let h_static = e.gain_of("464.h264ref", 0).unwrap();
        let h_versioned = e.gain_of("464.h264ref", 2).unwrap();
        assert!(h_static < -0.5);
        assert!(
            h_versioned > h_static + 0.5,
            "versioning should rescue h264ref: {h_versioned:.2}% vs {h_static:.2}%"
        );
        // 177.mesa: the PGO train/ref mismatch defeats the static
        // threshold (profile says 154, reality is 8) but not run-time
        // dispatch.
        let mesa_static = e.gain_of("177.mesa", 1).unwrap();
        let mesa_versioned = e.gain_of("177.mesa", 2).unwrap();
        assert!(mesa_static < -1.0, "static threshold loses on mesa");
        assert!(
            mesa_versioned > -0.5,
            "versioning rescues mesa: {mesa_versioned:.2}%"
        );
    }

    #[test]
    fn sampling_fixes_gobmk_and_keeps_gains() {
        let m = MachineModel::itanium2();
        let e = miss_sampling_experiment(&m, SCALE);
        let hlo_gobmk = e.gain_of("445.gobmk", 0).unwrap();
        let sampled_gobmk = e.gain_of("445.gobmk", 1).unwrap();
        assert!(hlo_gobmk < -1.0, "HLO without PGO loses on gobmk");
        assert!(
            sampled_gobmk > hlo_gobmk + 1.0,
            "sampling sees the L1/L2 hits and backs off: {sampled_gobmk:.2}%"
        );
        // mcf keeps its gains under sampling.
        let mcf = e.gain_of("429.mcf", 1).unwrap();
        assert!(mcf > 3.0, "sampled mcf gain: {mcf:.2}%");
    }

    #[test]
    fn balancing_boosts_the_chase_without_losing() {
        let m = MachineModel::itanium2();
        let r = balanced_recurrence_experiment(&m, 300);
        assert!(
            r.chase_latency.1 > r.chase_latency.0,
            "the chase load must receive the cycle slack: {:?}",
            r.chase_latency
        );
        assert!(
            r.gain_balanced >= r.gain_plain - 1.0,
            "balancing must not cost materially: {:+.2}% vs {:+.2}%",
            r.gain_balanced,
            r.gain_plain
        );
    }

    #[test]
    fn ozq_gain_grows_with_capacity() {
        let m = MachineModel::itanium2();
        let s = ozq_capacity_ablation(&m);
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        assert!(
            last >= first,
            "more queuing should not reduce the benefit: {first:.2}% -> {last:.2}%"
        );
    }

    #[test]
    fn issue_width_tradeoff() {
        let (gains, ks) = issue_width_ablation();
        // Eq. 3: the clustering factor shrinks as the machine narrows.
        assert!(
            ks.points[0].1 <= ks.points[2].1,
            "narrow machine clusters fewer instances: {:?}",
            ks.points
        );
        // But the narrow machine's baseline is stall-dominated, so its
        // relative gain from the same optimization is at least as large.
        assert!(
            gains.points[0].1 >= gains.points[2].1,
            "relative gains favor the stall-dominated narrow machine: {:?}",
            gains.points
        );
        // All machines gain.
        for (w, g) in &gains.points {
            assert!(*g > 5.0, "width {w} should gain: {g:.1}%");
        }
    }

    #[test]
    fn mve_code_size_explodes_without_rotation() {
        let m = MachineModel::itanium2();
        let s = mve_code_size_ablation(&m);
        let first = s.points.first().unwrap().1;
        let last = s.points.last().unwrap().1;
        assert!(
            last >= first * 4.0,
            "unrolled code size must grow steeply with the boost: {first} -> {last}"
        );
    }

    #[test]
    fn boost_magnitude_tradeoff() {
        let m = MachineModel::itanium2();
        let (missing, warm) = boost_magnitude_ablation(&m);
        // The warm loop's loss deepens with the boost up to the point
        // where the 48-entry rotating-predicate file can no longer hold
        // the stage predicates and the fallback ladder drops the boosts
        // entirely (gain snaps back to ~0) — an emergent register-file
        // cliff backing the paper's "not advisable to schedule loads for
        // more than 20-30 cycles".
        let at = |x: u32, s: &AblationSeries| s.points.iter().find(|&&(v, _)| v == x).unwrap().1;
        assert!(at(31, &warm) < at(2, &warm), "bigger boosts cost more");
        assert!(at(31, &warm) < -20.0);
        assert!(
            at(81, &warm) > -1.0,
            "beyond the predicate file, the ladder drops the boosts"
        );
        // The missing loop gains at moderate boosts.
        let best = missing
            .points
            .iter()
            .map(|&(_, g)| g)
            .fold(f64::MIN, f64::max);
        assert!(best > 5.0, "missing loop should gain: best {best:.2}%");
    }
}
