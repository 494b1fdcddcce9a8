//! `suite_sim`: the reproduction's own traffic. Every hot loop of the
//! CPU2006 and CPU2000 suites under the four policy arms at entry scale 1,
//! compiled and simulated by a serial loop that replays
//! `ltsp_core::run_suite`'s per-loop procedure from public calls, so each
//! call into the compiler and the simulator is timed from outside.

use std::time::Instant;

use ltsp_core::{run_suite, CompileConfig, RunConfig};
use ltsp_ir::SplitMix64;
use ltsp_machine::MachineModel;
use ltsp_memsim::{CycleCounters, Executor, ExecutorConfig};
use ltsp_workloads::{cpu2000, cpu2006, Benchmark, LoopSpec};

use crate::check;
use crate::layers::{self, POLICIES};
use crate::stats::Digest;
use crate::trace::{span, Trace};
use crate::{begin_pass, end_pass, us_since, Pass, Workload};

pub struct SuiteSim {
    seed: u64,
    machine: MachineModel,
    benchs: Vec<Benchmark>,
    /// Per-item counters of the first pass, for the reference check.
    first: Vec<CycleCounters>,
    /// `policy/benchmark/loop` per item, in pass order.
    labels: Vec<String>,
    failures: Vec<String>,
}

/// The runner's per-loop seed derivation (FNV-1a of the names).
fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SuiteSim {
    fn run_loop(
        &self,
        tr: &mut Option<&mut Trace>,
        bench: &str,
        spec: &LoopSpec,
        cfg: &CompileConfig,
        item: u64,
    ) -> CycleCounters {
        let trip_estimate = if cfg.pgo {
            spec.train_trips.mean()
        } else {
            spec.static_trip_estimate
        };
        let compiled = layers::compile(tr, &spec.loop_ir, &self.machine, cfg, trip_estimate, item);
        let loop_seed = self.seed ^ fnv(bench) ^ fnv(&spec.name);
        let exec = ExecutorConfig {
            seed: loop_seed,
            stream_mode: spec.stream_mode,
            ..ExecutorConfig::default()
        };
        let mut ex = span(tr, "memsim.setup", item, || {
            Executor::new(
                &compiled.lp,
                &compiled.kernel,
                &self.machine,
                compiled.regs_total,
                exec,
            )
        });
        let mut trips = SplitMix64::new(loop_seed ^ 0x7219);
        for _ in 0..spec.entries.max(1) {
            let trip = spec.ref_trips.sample(&mut trips);
            span(tr, "memsim.run", item, || ex.run_entry(trip));
        }
        let c = *ex.counters();
        if let Some(t) = tr {
            layers::add_sim_counters(t, &c);
        }
        c
    }
}

impl Workload for SuiteSim {
    const NAME: &'static str = "suite_sim";

    fn setup(seed: u64) -> Self {
        let mut benchs = cpu2006();
        benchs.extend(cpu2000());
        let labels = POLICIES
            .iter()
            .flat_map(|policy| {
                benchs.iter().flat_map(move |b| {
                    b.loops
                        .iter()
                        .map(move |spec| format!("{policy:?}/{}/{}", b.name, spec.name))
                })
            })
            .collect();
        SuiteSim {
            seed,
            machine: MachineModel::itanium2(),
            benchs,
            first: Vec::new(),
            labels,
            failures: Vec::new(),
        }
    }

    fn pass(&mut self, index: usize, tr: Option<&mut Trace>) -> Pass {
        let mut tr = tr;
        let t0 = begin_pass(&mut tr, index);
        let mut op_us = Vec::new();
        let mut counters = Vec::new();
        for policy in POLICIES {
            let cfg = CompileConfig::new(policy);
            for bench in &self.benchs {
                for spec in &bench.loops {
                    let op0 = Instant::now();
                    let item = counters.len() as u64;
                    counters.push(self.run_loop(&mut tr, bench.name, spec, &cfg, item));
                    op_us.push(us_since(op0));
                }
            }
        }
        let wall_s = end_pass(&mut tr, t0);

        let mut digest = Digest::default();
        for (label, c) in self.labels.iter().zip(&counters) {
            digest.write_str(label);
            digest.write_str(&format!("{c:?}"));
            if let Err(e) = check::counters_consistent(label, c) {
                self.failures.push(e);
            }
        }
        if self.first.is_empty() {
            self.first = counters;
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
        let mut reference = Vec::new();
        for policy in POLICIES {
            let mut rc = RunConfig::new(CompileConfig::new(policy)).with_jobs(1);
            rc.seed = self.seed;
            for run in run_suite(&self.benchs, &self.machine, &rc).runs {
                reference.extend(run.loops.iter().map(|l| l.counters));
            }
        }
        let mut failures = std::mem::take(&mut self.failures);
        if let Err(e) = check::counters_match(&self.labels, &self.first, &reference) {
            failures.push(e);
        }
        failures
    }
}
