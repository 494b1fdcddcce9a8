//! Sec. 4.5 register statistics and the Sec. 3.3 compile-time proxy.

use ltsp_core::{run_suite, CompileConfig, LatencyPolicy, RunConfig, SuiteRun};
use ltsp_machine::MachineModel;
use ltsp_workloads::cpu2006;

/// Register-pressure statistics of pipelined loops, baseline vs HLO hints
/// (no PGO) over CPU2006 — the paper's Sec. 4.5 first block.
#[derive(Debug, Clone)]
pub struct RegStatsResult {
    /// Summed (GR, FR, PR) registers over pipelined loops, baseline.
    pub base: (u64, u64, u64),
    /// Summed (GR, FR, PR) registers, HLO hints.
    pub hlo: (u64, u64, u64),
    /// Average fraction of the architected supply used per loop (HLO arm),
    /// per class.
    pub supply_fraction: (f64, f64, f64),
    /// Estimated spill counts outside pipelined loops (base, HLO) — the
    /// pressure the loops' register usage exports to surrounding code.
    pub spills: (u64, u64),
}

impl RegStatsResult {
    /// Percent growth per register class.
    pub fn growth(&self) -> (f64, f64, f64) {
        let pct = |b: u64, h: u64| 100.0 * (h as f64 / b.max(1) as f64 - 1.0);
        (
            pct(self.base.0, self.hlo.0),
            pct(self.base.1, self.hlo.1),
            pct(self.base.2, self.hlo.2),
        )
    }

    /// Percent growth of outside-loop spills (paper: +1.8%).
    fn spill_growth(&self) -> f64 {
        100.0 * (self.spills.1 as f64 / self.spills.0.max(1) as f64 - 1.0)
    }

    /// Renders the statistics block.
    pub fn render(&self) -> String {
        let (g, f, p) = self.growth();
        format!(
            "Sec. 4.5 — register statistics (CPU2006, HLO hints vs baseline, no PGO)\n\
             GR {:+.1}%  FR {:+.1}%  PR {:+.1}%   (paper: +14% / +20% / +35%)\n\
             avg supply used (HLO): GR {:.1}%  FR {:.1}%  PR {:.1}%  (paper: < 20%)\n\
             outside-loop spill growth: {:+.1}% (paper: +1.8%)\n",
            g,
            f,
            p,
            100.0 * self.supply_fraction.0,
            100.0 * self.supply_fraction.1,
            100.0 * self.supply_fraction.2,
            self.spill_growth()
        )
    }
}

fn reg_sums(run: &SuiteRun) -> (u64, u64, u64) {
    let mut s = (0u64, 0u64, 0u64);
    for b in &run.runs {
        for l in &b.loops {
            if l.pipelined {
                s.0 += u64::from(l.regs.0);
                s.1 += u64::from(l.regs.1);
                s.2 += u64::from(l.regs.2);
            }
        }
    }
    s
}

/// Spills exported to surrounding code: registers a loop occupies beyond
/// a caller-saved budget force saves/restores around the loop.
fn spill_estimate(run: &SuiteRun) -> u64 {
    const FREE_BUDGET: u32 = 40;
    let mut total = 1u64; // avoid a zero denominator in ratios
    for b in &run.runs {
        for l in &b.loops {
            let used = l.regs.0 + l.regs.1;
            total += u64::from(used.saturating_sub(FREE_BUDGET));
        }
    }
    total
}

/// Computes the Sec. 4.5 register statistics.
pub fn regstats(machine: &MachineModel, scale: f64) -> RegStatsResult {
    let benchs = cpu2006();
    let base_rc = RunConfig::new(CompileConfig::new(LatencyPolicy::Baseline).with_pgo(false))
        .with_entry_scale(scale);
    let hlo_rc = RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints).with_pgo(false))
        .with_entry_scale(scale);
    let base = run_suite(&benchs, machine, &base_rc);
    let hlo = run_suite(&benchs, machine, &hlo_rc);

    let supply = machine.registers();
    let mut fracs = (0.0, 0.0, 0.0);
    let mut n = 0u32;
    for b in &hlo.runs {
        for l in &b.loops {
            if l.pipelined {
                fracs.0 += f64::from(l.regs.0) / f64::from(supply.total_gr);
                fracs.1 += f64::from(l.regs.1) / f64::from(supply.total_fr);
                fracs.2 += f64::from(l.regs.2) / f64::from(supply.total_pr);
                n += 1;
            }
        }
    }
    if n > 0 {
        fracs = (
            fracs.0 / f64::from(n),
            fracs.1 / f64::from(n),
            fracs.2 / f64::from(n),
        );
    }

    RegStatsResult {
        base: reg_sums(&base),
        hlo: reg_sums(&hlo),
        supply_fraction: fracs,
        spills: (spill_estimate(&base), spill_estimate(&hlo)),
    }
}

/// Compile-time proxy: total modulo-scheduling attempts, baseline vs HLO
/// hints. The paper measured the wall-clock increase "in the noise range
/// (0.5%)"; attempts are the mechanism behind it (extra scheduling rounds
/// when register allocation fails).
#[derive(Debug, Clone)]
pub struct CompileTimeResult {
    /// Total scheduling attempts, baseline.
    pub base_attempts: u64,
    /// Total scheduling attempts, HLO hints.
    pub hlo_attempts: u64,
}

impl CompileTimeResult {
    /// Percent growth in attempts.
    pub fn growth(&self) -> f64 {
        100.0 * (self.hlo_attempts as f64 / self.base_attempts.max(1) as f64 - 1.0)
    }

    /// Renders the block.
    pub fn render(&self) -> String {
        format!(
            "Sec. 3.3 — scheduling attempts: baseline {}, HLO hints {} ({:+.1}%; paper: compile time +0.5%)\n",
            self.base_attempts,
            self.hlo_attempts,
            self.growth()
        )
    }
}

/// Counts scheduling attempts across CPU2006 under both arms.
pub fn compile_time(machine: &MachineModel, scale: f64) -> CompileTimeResult {
    let benchs = cpu2006();
    let attempts = |policy: LatencyPolicy| -> u64 {
        let rc = RunConfig::new(CompileConfig::new(policy).with_pgo(false)).with_entry_scale(scale);
        run_suite(&benchs, machine, &rc)
            .runs
            .iter()
            .flat_map(|b| &b.loops)
            .map(|l| u64::from(l.schedule_attempts))
            .sum()
    };
    CompileTimeResult {
        base_attempts: attempts(LatencyPolicy::Baseline),
        hlo_attempts: attempts(LatencyPolicy::HloHints),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: f64 = 0.03;

    #[test]
    fn register_pressure_grows_moderately() {
        let m = MachineModel::itanium2();
        let r = regstats(&m, SCALE);
        let (g, f, p) = r.growth();
        assert!(g >= 0.0, "GR growth {g:+.1}%");
        assert!(f >= 0.0, "FR growth {f:+.1}%");
        assert!(p >= 0.0, "PR growth {p:+.1}%");
        assert!(
            f > 0.0 || g > 0.0 || p > 0.0,
            "boosting must consume extra registers somewhere"
        );
        // Far from exhausting the supply.
        assert!(r.supply_fraction.0 < 0.6);
        assert!(r.supply_fraction.1 < 0.6);
        let s = r.render();
        assert!(s.contains("register statistics"));
    }

    #[test]
    fn attempts_grow_slightly() {
        let m = MachineModel::itanium2();
        let r = compile_time(&m, SCALE);
        assert!(r.hlo_attempts >= r.base_attempts);
        assert!(
            r.growth() < 50.0,
            "attempt growth should be modest: {:+.1}%",
            r.growth()
        );
    }
}
