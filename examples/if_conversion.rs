//! Predication end to end: the paper's Sec. 4.4 loop with its *actual*
//! control flow (`if (node->orientation == UP) ... else ...`),
//! if-converted through the builder's `begin_if`/`begin_else`/`sel` API,
//! pipelined, and executed at different branch probabilities.
//!
//! Run with: `cargo run --release --example if_conversion`

use ltsp::core::{compile_loop_with_profile, simulate, CompileConfig, LatencyPolicy};
use ltsp::ir::SplitMix64;
use ltsp::machine::MachineModel;
use ltsp::memsim::{ExecutorConfig, StreamMode};
use ltsp::pipeliner::{assign_registers, emit_kernel};
use ltsp::telemetry::Telemetry;
use ltsp::workloads::{mcf_refresh_predicated, TripDistribution};

fn main() {
    let machine = MachineModel::itanium2();
    let lp = mcf_refresh_predicated("refresh_potential", 32 << 20);
    println!("{lp}\n");

    let cfg = CompileConfig::new(LatencyPolicy::HloHints);
    let compiled = compile_loop_with_profile(&lp, &machine, &cfg, 2.3);
    let stats = compiled.stats.expect("pipelines");
    println!(
        "pipelined: II={} stages={} boosted={} critical={}\n",
        compiled.kernel.ii(),
        compiled.kernel.stage_count(),
        stats.boosted_loads,
        stats.critical_loads
    );

    if let Ok(assign) = assign_registers(&compiled.lp, &compiled.kernel, &machine) {
        println!("{}", emit_kernel(&compiled.lp, &compiled.kernel, &assign));
    }

    // The branch probability shifts how often each side's loads issue.
    let trips = TripDistribution::Mixture(vec![(0.75, 2), (0.25, 3)]);
    println!("branch-probability sweep (UP fraction of nodes):");
    for prob in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let exec = ExecutorConfig {
            stream_mode: StreamMode::Progressive,
            cmp_taken_prob: prob,
            ..ExecutorConfig::default()
        };
        let mut rng = SplitMix64::new(7);
        let schedule = (0..400).map(|_| (0, trips.sample(&mut rng)));
        let tel = Telemetry::disabled();
        let c = simulate(lp.name(), &[&compiled], &machine, exec, schedule, &tel);
        println!(
            "  p(UP)={prob:.2}: {:>8} cycles, {:>5} loads issued, stalls {:.1}%",
            c.total,
            c.loads,
            100.0 * c.be_exe_bubble as f64 / c.total as f64
        );
    }
    println!(
        "\nPredicated-off instructions are squashed: they occupy their issue\n\
         slots (the kernel is fixed) but generate no memory traffic — the\n\
         if-converted input the paper's pipeliner operates on (Sec. 3.3)."
    );
}
