//! `adaptive_refine`: the feedback-directed compile loop over the kernel
//! library and 96 random loops, under the Baseline and HLO-hint
//! policies. The workload seed drives the simulated address streams
//! (`AdaptiveOptions.seed`); the random loops are the ones seed 1 draws,
//! whatever the seed. Drawing them per seed moved the work of a pass by
//! ±20% from seed to seed (a seed-to-seed spread the run-to-run bound of
//! the benchmark cannot absorb), because a few heavy loops dominate it. The adaptive crate builds one simulator per round and runs it
//! for a short fixed window of 8 entries, where `suite_sim` runs each
//! simulator for hundreds: a change that moves work into simulator set-up
//! shows here first.
//!
//! In traced passes every chosen schedule is simulated again, after the
//! pass clock stops, through `Executor::new`/`run_entry` with the same
//! window: that gives the memsim split from outside the adaptive crate and
//! checks that the chosen round's measurement reproduces.

use std::time::Instant;

use ltsp_adaptive::{compile_loop_adaptive, AdaptiveOptions, AdaptiveResult};
use ltsp_core::{CompileConfig, LatencyPolicy};
use ltsp_ir::{LoopIr, SplitMix64};
use ltsp_machine::MachineModel;
use ltsp_memsim::{Executor, ExecutorConfig};
use ltsp_server::render_adaptive_report;
use ltsp_telemetry::Telemetry;
use ltsp_workloads::{kernel_library, random_loop};

use crate::check;
use crate::layers;
use crate::stats::{mix, Digest};
use crate::trace::{span, Trace};
use crate::{begin_pass, end_pass, us_since, Pass, Workload};

const RANDOM_LOOPS: usize = 96;
const POLICIES: [LatencyPolicy; 2] = [LatencyPolicy::Baseline, LatencyPolicy::HloHints];

pub struct AdaptiveRefine {
    machine: MachineModel,
    loops: Vec<LoopIr>,
    opts: AdaptiveOptions,
    failures: Vec<String>,
}

impl AdaptiveRefine {
    /// Re-simulates a chosen schedule over the adaptive window and checks
    /// the measurement against the one the adaptive loop recorded.
    fn resimulate(&mut self, t: &mut Trace, res: &AdaptiveResult, item: u64) {
        let (c, o) = (&res.compiled, &self.opts);
        let exec = ExecutorConfig {
            seed: o.seed,
            stream_mode: o.stream_mode,
            ..ExecutorConfig::default()
        };
        let mut ex = t.time("memsim.setup", item, || {
            Executor::new(&c.lp, &c.kernel, &self.machine, c.regs_total, exec)
        });
        for _ in 0..o.warmup_entries.max(1) {
            t.time("memsim.run", item, || ex.run_entry(o.trip.max(1)));
        }
        let warm = *ex.counters();
        for _ in 0..o.measure_entries.max(1) {
            t.time("memsim.run", item, || ex.run_entry(o.trip.max(1)));
        }
        let end = *ex.counters();
        layers::add_sim_counters(t, &end);
        let name = c.lp.name();
        if let Err(e) = check::counters_consistent(name, &end) {
            self.failures.push(e);
        }
        if end.total - warm.total != res.chosen().total_cycles {
            self.failures.push(format!(
                "{name}: re-simulated window took {} cycles, the adaptive loop measured {}",
                end.total - warm.total,
                res.chosen().total_cycles
            ));
        }
    }
}

impl Workload for AdaptiveRefine {
    const NAME: &'static str = "adaptive_refine";

    fn setup(seed: u64) -> Self {
        let mut seeds = SplitMix64::new(mix(crate::DEFAULT_SEED, 0xADA));
        let loops = kernel_library()
            .into_iter()
            .map(|(_, lp)| lp)
            .chain((0..RANDOM_LOOPS).map(|_| random_loop(seeds.next_u64())))
            .collect();
        AdaptiveRefine {
            machine: MachineModel::itanium2(),
            loops,
            opts: AdaptiveOptions {
                seed: mix(seed, 0x0ADA_9717),
                ..AdaptiveOptions::default()
            },
            failures: Vec::new(),
        }
    }

    fn pass(&mut self, index: usize, tr: Option<&mut Trace>) -> Pass {
        let mut tr = tr;
        let (m, opts) = (&self.machine, self.opts);
        let trip = opts.trip as f64;
        let tel = Telemetry::disabled();
        let mut op_us = Vec::new();
        let mut results = Vec::new();
        let mut reports = Vec::new();
        let t0 = begin_pass(&mut tr, index);
        for policy in POLICIES {
            let cfg = CompileConfig::new(policy);
            for lp in &self.loops {
                let item = op_us.len() as u64;
                let op0 = Instant::now();
                let res = span(&mut tr, "adaptive.call", item, || {
                    compile_loop_adaptive(lp, m, &cfg, trip, &opts, &tel)
                });
                op_us.push(us_since(op0));
                reports.push(span(&mut tr, "server.render", item, || {
                    render_adaptive_report(&res, policy, trip)
                }));
                results.push(res);
            }
        }
        let wall_s = end_pass(&mut tr, t0);

        let mut digest = Digest::default();
        for (res, report) in results.iter().zip(&reports) {
            digest.write_str(report);
            for r in &res.rounds {
                digest.write_str(&format!("{} {} {}", r.ii, r.stall_cycles, r.total_cycles));
            }
            if res.ii() > res.static_ii() || !res.all_certified() {
                self.failures.push(format!(
                    "{}: adaptive II {} (static {}), all rounds certified: {}",
                    res.compiled.lp.name(),
                    res.ii(),
                    res.static_ii(),
                    res.all_certified()
                ));
            }
        }
        if let Some(t) = tr {
            for (item, res) in results.iter().enumerate() {
                t.add("adaptive.rounds", res.rounds.len() as f64);
                t.add(
                    "adaptive.refined",
                    f64::from(u8::from(res.chosen_round > 0)),
                );
                self.resimulate(t, res, item as u64);
            }
        }
        Pass {
            wall_s,
            attempted: op_us.len() as u64,
            op_us,
            failed: 0,
            digest: digest.value(),
        }
    }

    fn check(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }
}
