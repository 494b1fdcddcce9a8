//! Differential testing of the heuristic pipeliner against the oracle.
//!
//! One case = one loop pushed through the production pipeline
//! ([`ltsp_pipeliner::pipeline_loop`] at base latencies), its accepted
//! schedule certified by the independent validator, and its II compared
//! against the exact oracle's proven minimum. Two properties fall out:
//!
//! - **Soundness** — every schedule the heuristic accepts satisfies every
//!   re-derived constraint, and its II is never *below* a proven-minimal
//!   II (which would mean one of the two engines mis-models the machine).
//! - **Optimality gap** — how far the heuristic's II sits above the
//!   proven minimum, the quantity the EXPERIMENTS table reports.

use ltsp_ddg::Ddg;
use ltsp_ir::LoopIr;
use ltsp_machine::MachineModel;
use ltsp_pipeliner::{acyclic_schedule, pipeline_loop, ModuloSchedule, PipelineOptions};
use ltsp_telemetry::{Event, Telemetry};

use crate::exact::{prove_min_ii, IiVerdict, OracleOptions};
use crate::validator::{validate_schedule, Violation};

/// The outcome of one differential case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Loop name.
    pub name: String,
    /// Instruction count.
    pub insts: usize,
    /// True when the pipeliner produced a modulo schedule; false when it
    /// rejected the loop and the acyclic fallback schedule was examined.
    pub pipelined: bool,
    /// The II of the accepted schedule (kernel II, or the acyclic
    /// schedule length on fallback).
    pub heuristic_ii: u32,
    /// Violations from the independent validator (empty = certified).
    pub violations: Vec<Violation>,
    /// The oracle's verdict on the minimal II.
    pub verdict: IiVerdict,
}

impl CaseReport {
    /// The proven (or lower-bounded) minimal II.
    pub fn oracle_ii(&self) -> u32 {
        match self.verdict {
            IiVerdict::Exact { optimal_ii, .. } => optimal_ii,
            IiVerdict::BoundedUnknown { proven_lower, .. } => proven_lower,
        }
    }

    /// `heuristic II − oracle II` when the oracle verdict is exact.
    pub fn gap(&self) -> Option<u32> {
        match self.verdict {
            IiVerdict::Exact { optimal_ii, .. } => {
                Some(self.heuristic_ii.saturating_sub(optimal_ii))
            }
            IiVerdict::BoundedUnknown { .. } => None,
        }
    }

    /// True when nothing about this case indicates a bug: the validator
    /// certified the schedule and the heuristic II is not below a proven
    /// minimal II.
    pub fn sound(&self) -> bool {
        let below_proven_min = match self.verdict {
            IiVerdict::Exact { optimal_ii, .. } => self.heuristic_ii < optimal_ii,
            IiVerdict::BoundedUnknown { .. } => false,
        };
        self.violations.is_empty() && !below_proven_min
    }
}

/// The heuristic pipeliner's base-latency schedule, or the acyclic
/// fallback when pipelining is rejected; the flag says which.
pub(crate) fn heuristic_schedule(
    lp: &LoopIr,
    machine: &MachineModel,
    ddg: &Ddg,
) -> (ModuloSchedule, bool) {
    let opts = PipelineOptions::default();
    match pipeline_loop(lp, machine, &|_| None, &opts, &Telemetry::disabled()) {
        Ok(p) => (p.schedule, true),
        Err(_) => (acyclic_schedule(lp, machine, ddg), false),
    }
}

/// Runs one loop through the heuristic pipeliner, the validator and the
/// oracle. Emits an [`Event::OracleVerdict`] on `tel` when enabled.
pub fn differential_case(
    lp: &LoopIr,
    machine: &MachineModel,
    opts: &OracleOptions,
    tel: &Telemetry,
) -> CaseReport {
    // Base latencies on both sides: the pipeliner's base-latency graph and
    // `build_with_load_floor(.., 0)` are the same edges, so the oracle
    // answers exactly the question the heuristic attempted.
    let ddg = Ddg::build_with_load_floor(lp, machine, 0);
    let (sched, pipelined) = heuristic_schedule(lp, machine, &ddg);
    let heuristic_ii = sched.ii();
    let violations = match validate_schedule(lp, &ddg, &sched, machine) {
        Ok(_) => Vec::new(),
        Err(v) => v,
    };
    let verdict = prove_min_ii(lp, machine, &ddg, heuristic_ii, opts);

    if tel.is_enabled() {
        let (oracle_ii, nodes) = match &verdict {
            IiVerdict::Exact {
                optimal_ii, nodes, ..
            } => (*optimal_ii, *nodes),
            IiVerdict::BoundedUnknown {
                proven_lower,
                nodes,
            } => (*proven_lower, *nodes),
        };
        tel.emit(Event::OracleVerdict {
            loop_name: lp.name().to_string(),
            heuristic_ii,
            oracle_ii,
            verdict: verdict.tag(),
            gap: i64::from(heuristic_ii) - i64::from(oracle_ii),
            nodes,
        });
    }

    CaseReport {
        name: lp.name().to_string(),
        insts: lp.insts().len(),
        pipelined,
        heuristic_ii,
        violations,
        verdict,
    }
}

/// Aggregate of a differential fuzzing run.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Every case, in seed order.
    pub cases: Vec<CaseReport>,
    /// Cases whose schedule the validator rejected (must be 0).
    pub rejected: usize,
    /// Cases where the heuristic II undercuts a proven minimum (must
    /// be 0).
    pub unsound: usize,
    /// Exact verdicts with gap 0: heuristic proven optimal.
    pub proven_optimal: usize,
    /// Exact verdicts with gap > 0: heuristic provably suboptimal.
    pub proven_suboptimal: usize,
    /// Budget- or size-limited verdicts.
    pub unknown: usize,
}

impl FuzzSummary {
    /// Largest proven optimality gap across the run.
    pub fn max_gap(&self) -> u32 {
        self.cases
            .iter()
            .filter_map(CaseReport::gap)
            .max()
            .unwrap_or(0)
    }
}

/// Fuzzes `count` machine-generated loops (seeds `seed0..seed0+count`)
/// through [`differential_case`] on `jobs` worker threads and tallies the
/// outcomes. Each case's seed is a pure function of its index (`seed0 +
/// index`) and results — including per-case telemetry — are merged in
/// index order, so the summary and trace are byte-identical for any
/// `jobs` value; a fixed `seed0` makes the run reproducible.
pub fn differential_fuzz(
    seed0: u64,
    count: u64,
    machine: &MachineModel,
    opts: &OracleOptions,
    tel: &Telemetry,
    jobs: usize,
) -> FuzzSummary {
    let seeds: Vec<u64> = (seed0..seed0 + count).collect();
    let cases = ltsp_par::Pool::new(jobs).map_traced(tel, "fuzz", &seeds, |tel, _idx, &seed| {
        let lp = ltsp_workloads::random_loop(seed);
        differential_case(&lp, machine, opts, tel)
    });
    let rejected = cases.iter().filter(|c| !c.violations.is_empty()).count();
    let unsound = cases.iter().filter(|c| !c.sound()).count();
    let proven_optimal = cases.iter().filter(|c| c.gap() == Some(0)).count();
    let proven_suboptimal = cases.iter().filter(|c| c.gap().unwrap_or(0) > 0).count();
    let unknown = cases.iter().filter(|c| c.gap().is_none()).count();
    FuzzSummary {
        cases,
        rejected,
        unsound,
        proven_optimal,
        proven_suboptimal,
        unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_example_is_proven_optimal() {
        let m = MachineModel::itanium2();
        let mut b = ltsp_ir::LoopBuilder::new("ex");
        let s = b.affine_ref("s", ltsp_ir::DataClass::Int, 0, 4, 4);
        let d = b.affine_ref("d", ltsp_ir::DataClass::Int, 1 << 20, 4, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        let lp = b.build().unwrap();

        let tel = Telemetry::enabled();
        let r = differential_case(&lp, &m, &OracleOptions::default(), &tel);
        assert!(r.pipelined);
        assert!(r.violations.is_empty());
        assert_eq!(r.gap(), Some(0), "{:?}", r.verdict);
        assert!(r.sound());
        let events = tel.events();
        assert!(events.iter().any(|e| e.event.kind() == "oracle_verdict"));
    }

    #[test]
    fn small_fuzz_runs_clean() {
        let m = MachineModel::itanium2();
        let opts = OracleOptions {
            node_budget: 20_000,
            ..OracleOptions::default()
        };
        let s = differential_fuzz(0, 25, &m, &opts, &Telemetry::disabled(), 2);
        assert_eq!(s.cases.len(), 25);
        assert_eq!(s.rejected, 0, "validator rejected a heuristic schedule");
        assert_eq!(s.unsound, 0, "heuristic II below a proven minimum");
    }
}
