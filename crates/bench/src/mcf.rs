//! Sec. 4.4 — the 429.mcf `refresh_potential()` case study.

use ltsp_core::{compile_loop_with_profile, simulate, CompileConfig, LatencyPolicy};
use ltsp_ir::{InstId, Opcode, SplitMix64};
use ltsp_machine::MachineModel;
use ltsp_memsim::{ExecutorConfig, StreamMode};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::{mcf_refresh, TripDistribution};

/// Results of the case study.
#[derive(Debug, Clone)]
pub struct McfCaseStudy {
    /// Number of delinquent loads boosted despite the trip count of 2.3.
    pub boosted_loads: usize,
    /// Number of loads kept at base latency (the chase).
    pub critical_loads: usize,
    /// Clustering factor achieved for the boosted loads (paper: k = 2 at
    /// the observed average trip count).
    pub clustering_factor: u32,
    /// Kernel II (identical in both arms).
    pub ii_base: u32,
    /// Kernel II with HLO hints.
    pub ii_hinted: u32,
    /// Loop speedup percentage (paper: ≈ 40%).
    pub loop_speedup: f64,
}

impl McfCaseStudy {
    /// Renders the case study.
    pub fn render(&self) -> String {
        format!(
            "Sec. 4.4 — 429.mcf refresh_potential() @ trip 2.3\n\
             boosted delinquent loads: {}   critical (chase) loads: {}\n\
             II: {} -> {}   clustering factor k = {}\n\
             loop speedup: {:+.1}% (paper: ~40%)\n",
            self.boosted_loads,
            self.critical_loads,
            self.ii_base,
            self.ii_hinted,
            self.clustering_factor,
            self.loop_speedup
        )
    }
}

/// Runs the case study: compile the Sec. 4.4 loop baseline vs HLO hints
/// and execute both at the paper's trip-count profile (mean 2.3) over a
/// memory-resident network.
pub fn mcf_case_study(machine: &MachineModel, entries: u32) -> McfCaseStudy {
    let lp = mcf_refresh("refresh_potential", 48 << 20);
    let trips = TripDistribution::Mixture(vec![(0.75, 2), (0.25, 3)]);
    let trip_mean = trips.mean();

    let base_cfg = CompileConfig::new(LatencyPolicy::Baseline);
    let hint_cfg = CompileConfig::new(LatencyPolicy::HloHints);
    let base = compile_loop_with_profile(&lp, machine, &base_cfg, trip_mean);
    let hinted = compile_loop_with_profile(&lp, machine, &hint_cfg, trip_mean);
    let stats = hinted.stats.expect("the mcf loop pipelines");

    // Clustering factor of the first boosted load: d / II + 1, where d is
    // the boost over the base latency.
    let k = hinted
        .lp
        .insts()
        .iter()
        .filter_map(|i| match i.op() {
            Opcode::Load(_) => {
                let lat = scheduled_latency(&hinted, i.id())?;
                if lat > 1 {
                    Some(ltsp_core::theory::clustering_factor(
                        lat - 1,
                        hinted.kernel.ii(),
                    ))
                } else {
                    None
                }
            }
            _ => None,
        })
        .max()
        .unwrap_or(1);

    let tel = Telemetry::disabled();
    let run = |c: &ltsp_core::CompiledLoop| {
        let exec = ExecutorConfig {
            seed: 11,
            stream_mode: StreamMode::Progressive,
            ..ExecutorConfig::default()
        };
        let mut rng = SplitMix64::new(0xFEED);
        let schedule = (0..entries).map(|_| (0, trips.sample(&mut rng)));
        simulate(c.lp.name(), &[c], machine, exec, schedule, &tel).total
    };
    let tb = run(&base);
    let th = run(&hinted);
    let speedup = 100.0 * (tb as f64 / th.max(1) as f64 - 1.0);

    McfCaseStudy {
        boosted_loads: stats.boosted_loads,
        critical_loads: stats.critical_loads,
        clustering_factor: k,
        ii_base: base.kernel.ii(),
        ii_hinted: hinted.kernel.ii(),
        loop_speedup: speedup,
    }
}

fn scheduled_latency(c: &ltsp_core::CompiledLoop, inst: InstId) -> Option<u32> {
    match c.lp.inst(inst).op() {
        Opcode::Load(_) => {
            // Distance between the load and its first scheduled use.
            let t_def = c.kernel.time(inst);
            c.lp.insts()
                .iter()
                .filter(|u| {
                    u.srcs()
                        .iter()
                        .any(|s| Some(s.reg) == c.lp.inst(inst).dst())
                })
                .map(|u| {
                    let omega = u
                        .srcs()
                        .iter()
                        .find(|s| Some(s.reg) == c.lp.inst(inst).dst())
                        .map_or(0, |s| s.omega);
                    (c.kernel.time(u.id()) + i64::from(c.kernel.ii()) * i64::from(omega) - t_def)
                        .max(1) as u32
                })
                .max()
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_matches_the_paper_shape() {
        let m = MachineModel::itanium2();
        let r = mcf_case_study(&m, 150);
        assert!(r.boosted_loads >= 2, "delinquent fields boosted: {r:?}");
        assert!(r.critical_loads >= 1, "the chase stays critical");
        assert_eq!(r.ii_base, r.ii_hinted, "II must not change");
        assert!(
            r.clustering_factor >= 2,
            "paper reports k = 2, got {}",
            r.clustering_factor
        );
        assert!(
            r.loop_speedup > 10.0,
            "paper reports ~40%, got {:+.1}%",
            r.loop_speedup
        );
    }

    #[test]
    fn render_mentions_key_numbers() {
        let m = MachineModel::itanium2();
        let s = mcf_case_study(&m, 50).render();
        assert!(s.contains("refresh_potential"));
        assert!(s.contains("clustering factor"));
    }
}
