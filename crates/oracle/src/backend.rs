//! The exact scheduling backend: turns the oracle's feasibility search
//! into a second, emission-grade backend that produces real kernels.
//!
//! [`prove_min_ii`] answers "what is the minimal feasible II?" but its
//! witnesses are register-unchecked: the search proves II feasibility
//! against dependences and issue slots only, and a minimal-level witness
//! may overflow the rotating files. This module splits the two concerns
//! the only sound way around:
//!
//! 1. **The optimality claim** comes from the register-free proof
//!    (exactly the verdict the `oracle` op reports), because exhausting
//!    a register-*checked* search proves nothing about the II — minimal-
//!    level realization does not minimize register demand, so a register
//!    rejection there is a property of the realization, not the II.
//! 2. **The emitted schedule** comes from [`search_at_registered`],
//!    walked upward from the proven minimum: the first II with a
//!    register-allocatable witness wins. When no candidate below the
//!    heuristic's II yields one, the backend falls back to the caller's
//!    schedule — which is always register-feasible, because the caller
//!    holds an allocated schedule by construction.
//!
//! Either way, nothing leaves this function unchecked: the returned
//! schedule carries a [`Certificate`] from the independent validator and
//! a [`RegAllocation`] from the production allocator. A schedule that
//! fails either gate is never returned.

use std::time::Instant;

use ltsp_ddg::Ddg;
use ltsp_ir::LoopIr;
use ltsp_machine::MachineModel;
use ltsp_pipeliner::{allocate_rotating, ModuloSchedule, RegAllocation};

use crate::differential::heuristic_schedule;
use crate::exact::{prove_min_ii, search_at_registered, Feasibility, IiVerdict, OracleOptions};
use crate::validator::{validate_schedule, Certificate, Violation};

/// A validator-certified, register-allocated schedule from the exact
/// backend.
#[derive(Debug, Clone)]
pub struct ExactSchedule {
    /// The emitted schedule (the refined one, or the caller's fallback).
    pub schedule: ModuloSchedule,
    /// Rotating-register allocation of the emitted schedule.
    pub regs: RegAllocation,
    /// The independent validator's certificate for the emitted schedule.
    pub certificate: Certificate,
    /// True when the emitted II is the register-free proof's minimum —
    /// the schedule is provably II-optimal.
    pub proven_optimal: bool,
    /// True when the emitted schedule improves on the caller's upper
    /// bound (a strictly smaller II).
    pub refined: bool,
    /// Search nodes expanded across the proof and the emission walk.
    pub nodes: u64,
}

/// Runs the exact backend: proves the minimal II (register-free), then
/// searches for a register-allocatable witness from that minimum upward,
/// falling back to `upper` (the caller's known-good schedule, e.g. the
/// heuristic pipeliner's) when no better emittable schedule is found
/// within budget. The emitted schedule is re-certified by the
/// independent validator and register-allocated before it is returned.
///
/// The wall-clock budget in `opts` bounds each of the two phases (proof
/// and emission) separately, so a request spends at most twice the
/// configured deadline here; the node budget applies per candidate II as
/// in [`prove_min_ii`].
///
/// # Errors
///
/// Returns the validator's violations if the schedule selected for
/// emission fails certification — including the fallback path, so a
/// caller passing an illegal `upper` is told loudly instead of having
/// the bytes laundered through the backend.
pub fn exact_schedule(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
    upper: &ModuloSchedule,
    opts: &OracleOptions,
) -> Result<ExactSchedule, Vec<Violation>> {
    let verdict = prove_min_ii(lp, machine, ddg, upper.ii(), opts);
    let (proven, target, mut nodes) = match verdict {
        IiVerdict::Exact {
            optimal_ii, nodes, ..
        } => (true, optimal_ii, nodes),
        IiVerdict::BoundedUnknown {
            proven_lower,
            nodes,
        } => (false, proven_lower, nodes),
    };

    // Emission walk: lowest candidate II with a register-allocatable
    // witness wins. Even under a BoundedUnknown verdict a witness found
    // here is a genuine improvement (just not a proven-optimal one).
    let deadline = opts.time_budget.map(|d| Instant::now() + d);
    let mut schedule = upper.clone();
    let mut refined = false;
    for ii in target..upper.ii() {
        match search_at_registered(lp, machine, ddg, ii, opts.node_budget, deadline, &mut nodes) {
            Feasibility::Feasible(s) => {
                schedule = s;
                refined = true;
                break;
            }
            Feasibility::Infeasible => continue,
            Feasibility::Unknown => break,
        }
    }

    let certificate = validate_schedule(lp, ddg, &schedule, machine)?;
    let regs = allocate_rotating(lp, &schedule, machine).map_err(|e| {
        vec![Violation::RegisterOverflow {
            class: e.class,
            needed: e.needed,
            available: e.available,
        }]
    })?;
    let proven_optimal = proven && schedule.ii() == target;
    Ok(ExactSchedule {
        schedule,
        regs,
        certificate,
        proven_optimal,
        refined,
        nodes,
    })
}

/// One full exact-backend case as a serving layer consumes it: the
/// heuristic schedule plus the exact backend's emission, with the
/// telemetry a response body carries.
#[derive(Debug, Clone)]
pub struct ExactCase {
    /// The loop's name.
    pub name: String,
    /// True when the heuristic upper bound is a real modulo schedule
    /// (false = acyclic fallback).
    pub pipelined: bool,
    /// The heuristic pipeliner's II (the exact backend's upper bound).
    pub heuristic_ii: u32,
    /// The exact backend's emission (schedule, allocation, certificate).
    pub result: ExactSchedule,
}

/// The one-call emission path servers use: builds the base-latency DDG,
/// runs the heuristic pipeliner (acyclic fallback included) for the
/// upper bound, then [`exact_schedule`]. The base-latency DDG matches
/// the `oracle` op's proof, and any latency-boosted heuristic schedule
/// still satisfies base constraints, so the upper bound is always legal.
///
/// # Errors
///
/// Propagates [`exact_schedule`]'s violations (which certify the
/// heuristic fallback too, so a broken pipeliner cannot hide here).
pub fn exact_case(
    lp: &LoopIr,
    machine: &MachineModel,
    opts: &OracleOptions,
) -> Result<ExactCase, Vec<Violation>> {
    let ddg = Ddg::build_with_load_floor(lp, machine, 0);
    let (upper, pipelined) = heuristic_schedule(lp, machine, &ddg);
    let heuristic_ii = upper.ii();
    let result = exact_schedule(lp, machine, &ddg, &upper, opts)?;
    Ok(ExactCase {
        name: lp.name().to_string(),
        pipelined,
        heuristic_ii,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heuristic(lp: &LoopIr, m: &MachineModel) -> ModuloSchedule {
        let (sched, pipelined) = heuristic_schedule(lp, m, &Ddg::build_with_load_floor(lp, m, 0));
        assert!(pipelined, "test loops pipeline");
        sched
    }

    #[test]
    fn emits_the_heuristic_schedule_when_already_optimal() {
        let m = MachineModel::itanium2();
        let mut b = ltsp_ir::LoopBuilder::new("ex");
        let s = b.affine_ref("s", ltsp_ir::DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("d", ltsp_ir::DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let upper = heuristic(&lp, &m);
        let r = exact_schedule(&lp, &m, &ddg, &upper, &OracleOptions::default()).unwrap();
        assert_eq!(r.schedule.ii(), upper.ii());
        assert!(r.proven_optimal);
        assert!(!r.refined, "nothing below the optimum to refine to");
        assert_eq!(r.certificate.ii, upper.ii());
    }

    #[test]
    fn rejects_an_illegal_upper_bound() {
        let m = MachineModel::itanium2();
        let mut b = ltsp_ir::LoopBuilder::new("bad");
        let s = b.affine_ref("s", ltsp_ir::DataClass::Int, 0, 4, 4);
        let v = b.load(s);
        let _ = b.add(v, v);
        let lp = b.build().unwrap();
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        // ld and its consumer in the same cycle: violates the load edge.
        // The backend refuses to launder an illegal fallback. The search
        // may still refine below II=9; pick a large II so the proof's
        // node budget runs dry and the fallback is selected.
        let illegal = ModuloSchedule::new(9, vec![0, 0]);
        let opts = OracleOptions {
            node_budget: 0,
            ..OracleOptions::default()
        };
        let v = exact_schedule(&lp, &m, &ddg, &illegal, &opts).unwrap_err();
        assert!(v.iter().any(|x| x.kind() == "dependence"), "{v:?}");
    }

    #[test]
    fn exact_case_runs_end_to_end_from_a_bare_loop() {
        let m = MachineModel::itanium2();
        let lp = ltsp_workloads::saxpy("s");
        let c = exact_case(&lp, &m, &OracleOptions::default()).unwrap();
        assert_eq!(c.name, "s");
        assert!(c.pipelined);
        assert!(c.result.schedule.ii() <= c.heuristic_ii);
        assert!(c.result.proven_optimal, "saxpy is small enough to prove");
    }

    #[test]
    fn exact_backend_output_always_certifies_and_allocates() {
        let m = MachineModel::itanium2();
        let opts = OracleOptions {
            node_budget: 30_000,
            ..OracleOptions::default()
        };
        for seed in 0..40u64 {
            let lp = ltsp_workloads::random_loop(seed);
            if lp.insts().len() > 16 {
                continue;
            }
            let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
            let (heur, true) = heuristic_schedule(&lp, &m, &ddg) else {
                continue;
            };
            let r = exact_schedule(&lp, &m, &ddg, &heur, &opts)
                .unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
            assert!(r.schedule.ii() <= heur.ii(), "seed {seed}");
            assert_eq!(
                r.regs,
                allocate_rotating(&lp, &r.schedule, &m).unwrap(),
                "seed {seed}: reported allocation matches a fresh one"
            );
        }
    }
}
