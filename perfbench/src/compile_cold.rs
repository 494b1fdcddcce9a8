//! `compile_cold`: the compiler alone, no simulation. The 17-kernel
//! library, 12 scheduling-heavy scale kernels and 128 seeded random loops,
//! each under the four policies: parse the loop text, compile, certify the
//! schedule with the independent validator, render the report.
//!
//! Known defect, counted and not hidden: the validator rejects the
//! acyclic-fallback schedules of several scale kernels with
//! `register-overflow` (rotating demand above the 96 registers supplied).
//! Each such compile counts as a failed operation and in
//! `oracle.rejected`; any other rejection fails the run.

use std::collections::BTreeSet;
use std::time::Instant;

use ltsp_core::CompileConfig;
use ltsp_ddg::Ddg;
use ltsp_ir::{parse_loop, SplitMix64};
use ltsp_machine::MachineModel;
use ltsp_oracle::validate_schedule;
use ltsp_server::render_compile_report;
use ltsp_workloads::{kernel_library, random_loop, scheduling_heavy};

use crate::layers::{self, POLICIES};
use crate::stats::{mix, Digest};
use crate::trace::{span, Trace};
use crate::{begin_pass, end_pass, us_since, Pass, Workload};

const RANDOM_LOOPS: usize = 128;
const SCALE_KERNELS: usize = 12;
/// The trip estimate every compile believes (the daemon's default).
const TRIP: f64 = 100.0;

pub struct CompileCold {
    machine: MachineModel,
    /// Each loop printed to its text form once, outside any timer.
    texts: Vec<String>,
    /// Loops whose compiles hit the known defect, with the policies.
    known_defect: BTreeSet<String>,
    failures: Vec<String>,
}

/// The scale group of the compile-phase KPI harness: scheduling-heavy
/// loops of the size class the daemon compiles cold.
fn scale_kernels() -> Vec<ltsp_ir::LoopIr> {
    (0..SCALE_KERNELS)
        .map(|i| scheduling_heavy(&format!("scale{i}"), 3 + i % 3, 9 + (3 * i) % 12))
        .collect()
}

impl Workload for CompileCold {
    const NAME: &'static str = "compile_cold";

    fn setup(seed: u64) -> Self {
        let mut seeds = SplitMix64::new(mix(seed, 0xC0DE));
        let texts = kernel_library()
            .into_iter()
            .map(|(_, lp)| lp)
            .chain(scale_kernels())
            .chain((0..RANDOM_LOOPS).map(|_| random_loop(seeds.next_u64())))
            .map(|lp| lp.to_string())
            .collect();
        CompileCold {
            machine: MachineModel::itanium2(),
            texts,
            known_defect: BTreeSet::new(),
            failures: Vec::new(),
        }
    }

    fn pass(&mut self, index: usize, tr: Option<&mut Trace>) -> Pass {
        let mut tr = tr;
        let m = &self.machine;
        let mut op_us = Vec::new();
        let mut outputs = Vec::new();
        let mut failed = 0;
        let t0 = begin_pass(&mut tr, index);
        for policy in POLICIES {
            let cfg = CompileConfig::new(policy);
            for text in &self.texts {
                let item = op_us.len() as u64;
                let lp = match span(&mut tr, "ir.parse", item, || parse_loop(text)) {
                    Ok(lp) => lp,
                    Err(e) => {
                        self.failures
                            .push(format!("printed loop does not parse: {e}"));
                        continue;
                    }
                };
                let op0 = Instant::now();
                let c = layers::compile(&mut tr, &lp, m, &cfg, TRIP, item);
                op_us.push(us_since(op0));
                let verdict = span(&mut tr, "oracle.validate", item, || {
                    let ddg = Ddg::build_with_load_floor(&c.lp, m, 0);
                    validate_schedule(&c.lp, &ddg, &c.kernel, m)
                });
                let report = span(&mut tr, "server.render", item, || {
                    render_compile_report(&c, policy, TRIP)
                });
                let verdict = match verdict {
                    Ok(_) => "certified".to_string(),
                    Err(v) => {
                        let kinds: Vec<&str> = v.iter().map(|v| v.kind()).collect();
                        if !c.pipelined && kinds.iter().all(|k| *k == "register-overflow") {
                            failed += 1;
                            self.known_defect
                                .insert(format!("{}/{policy:?}", lp.name()));
                        } else {
                            self.failures.push(format!(
                                "{} under {policy:?}: validator rejected the schedule: {kinds:?}",
                                lp.name()
                            ));
                        }
                        kinds.join(",")
                    }
                };
                if let Some(t) = tr.as_deref_mut() {
                    let ok = verdict == "certified";
                    t.add("oracle.validated", f64::from(u8::from(ok)));
                    t.add("oracle.rejected", f64::from(u8::from(!ok)));
                }
                outputs.push((report, verdict));
            }
        }
        let wall_s = end_pass(&mut tr, t0);

        let mut digest = Digest::default();
        for (report, verdict) in &outputs {
            digest.write_str(report);
            digest.write_str(verdict);
        }
        Pass {
            wall_s,
            attempted: op_us.len() as u64,
            op_us,
            failed,
            digest: digest.value(),
        }
    }

    fn check(&mut self) -> Vec<String> {
        println!(
            "known defect (register-overflow on the acyclic fallback), {} compiles: {}",
            self.known_defect.len(),
            self.known_defect
                .iter()
                .cloned()
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::mem::take(&mut self.failures)
    }
}
