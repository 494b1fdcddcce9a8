//! Fig. 5: the analytic stall-reduction curves, cross-validated against
//! the execution simulator.

use ltsp_core::theory;
use ltsp_core::{compile_loop_with_profile, simulate, CompileConfig, LatencyPolicy};
use ltsp_ir::{DataClass, LoopBuilder};
use ltsp_machine::MachineModel;
use ltsp_memsim::{ExecutorConfig, StreamMode};
use ltsp_telemetry::Telemetry;

/// The Fig. 5 data: one curve per coverage ratio, plus a simulator
/// validation point.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// `(coverage, [(k, reduction%)])` curves.
    pub curves: Vec<(f64, Vec<(u32, f64)>)>,
    /// Measured stall reduction (percent) of a boosted single-load loop
    /// versus baseline on the simulator.
    pub simulated_reduction: f64,
    /// The analytic prediction for the simulated configuration.
    pub predicted_reduction: f64,
}

impl Fig5Result {
    /// Renders the figure as text (the paper's y-axis values per k).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "Fig. 5 — stall reduction vs clustering factor (Eq. 2)");
        let _ = write!(s, "{:>10}", "k");
        for k in 1..=8 {
            let _ = write!(s, " {k:>7}");
        }
        let _ = writeln!(s);
        for (c, pts) in &self.curves {
            let _ = write!(s, "c = {c:>6.2}");
            for (_, r) in pts {
                let _ = write!(s, " {r:>6.1}%");
            }
            let _ = writeln!(s);
        }
        let _ = writeln!(
            s,
            "simulator check: measured {:.1}% vs predicted {:.1}% stall reduction",
            self.simulated_reduction, self.predicted_reduction
        );
        s
    }
}

/// Generates Fig. 5 and validates one point on the simulator: a
/// single-load memory-missing loop, baseline vs boosted, compared against
/// Eq. 2's prediction from the *measured* base stall per iteration.
pub fn fig5() -> Fig5Result {
    let curves = theory::fig5_curves();
    let machine = MachineModel::itanium2();

    // A single delinquent load (large stride: every access misses to
    // memory) plus an add and a store of the result.
    let build = || {
        let mut b = LoopBuilder::new("fig5-loop");
        let src = b.affine_ref("a[i]", DataClass::Int, 0x100_0000, 256, 4);
        let c = b.live_in_gr("c");
        let v = b.load(src);
        let s = b.add(v, c);
        let dst = b.affine_ref("y[i]", DataClass::Int, 0x9000_0000, 4, 4);
        b.store(dst, s);
        b.build().expect("fig5 loop is well-formed")
    };
    let lp = build();

    // Disable prefetching so the raw latency is exposed (the Sec. 2
    // setting), then compare baseline vs L3-boosted schedules.
    let base_cfg = CompileConfig::new(LatencyPolicy::Baseline).with_prefetch(false);
    let boost_cfg = CompileConfig::new(LatencyPolicy::AllLoadsL3)
        .with_threshold(0)
        .with_prefetch(false);
    let trip = 4000u64;
    let base = compile_loop_with_profile(&lp, &machine, &base_cfg, trip as f64);
    let boost = compile_loop_with_profile(&lp, &machine, &boost_cfg, trip as f64);

    let exec = ExecutorConfig {
        stream_mode: StreamMode::Progressive,
        ..ExecutorConfig::default()
    };
    let tel = Telemetry::disabled();
    let run = |c| simulate(lp.name(), &[c], &machine, exec, [(0, trip)], &tel);
    let cb = run(&base);
    let cx = run(&boost);

    let measured = if cb.be_exe_bubble == 0 {
        0.0
    } else {
        100.0 * (1.0 - cx.be_exe_bubble as f64 / cb.be_exe_bubble as f64)
    };

    // Analytic prediction: L from the measured base stall per iteration,
    // d and k from the boosted schedule.
    let l = (cb.be_exe_bubble as f64 / trip as f64).max(1.0);
    let d = f64::from(
        machine.load_latency(
            DataClass::Int,
            ltsp_machine::LatencyQuery::Hinted(ltsp_ir::LatencyHint::L3),
        ) - 1,
    );
    let k = theory::clustering_factor(d as u32, boost.kernel.ii());
    let predicted = theory::stall_reduction_percent((d / l).min(1.0), k);

    Fig5Result {
        curves,
        simulated_reduction: measured,
        predicted_reduction: predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_match_equation_two() {
        let r = fig5();
        assert_eq!(r.curves.len(), 4);
        // c=1 curve is flat at 100.
        let full = &r.curves[0];
        assert!(full.1.iter().all(|&(_, v)| (v - 100.0).abs() < 1e-9));
        // c=0.01, k=3 is about 67%.
        let low = &r.curves[3];
        assert!((low.1[2].1 - 67.0).abs() < 1.0);
    }

    #[test]
    fn simulator_confirms_the_direction_and_magnitude() {
        let r = fig5();
        assert!(
            r.simulated_reduction > 30.0,
            "boosting a delinquent load must cut stalls substantially: {:.1}%",
            r.simulated_reduction
        );
        // The analytic model should land in the same regime.
        assert!(
            (r.simulated_reduction - r.predicted_reduction).abs() < 35.0,
            "measured {:.1}% vs predicted {:.1}%",
            r.simulated_reduction,
            r.predicted_reduction
        );
    }

    #[test]
    fn render_contains_all_curves() {
        let s = fig5().render();
        assert!(s.contains("c =   1.00"));
        assert!(s.contains("c =   0.01"));
        assert!(s.contains("simulator check"));
    }
}
