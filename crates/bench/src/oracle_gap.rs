//! E-oracle: the heuristic pipeliner's II measured against the exact
//! oracle's proven minimum over the committed kernel library.
//!
//! For each kernel, the loop is pipelined at base latencies, the accepted
//! schedule is certified by the independent validator, and the exact-II
//! oracle proves (or bounds) the minimal feasible II. The table reports
//! the optimality gap — the quantity the paper's heuristic trades for
//! compile time ("the scheduler typically finds a schedule at or very
//! near the Min II").

use ltsp_machine::MachineModel;
use ltsp_oracle::{differential_case, CaseReport, IiVerdict, OracleOptions};
use ltsp_telemetry::Telemetry;
use ltsp_workloads::kernel_library;

/// The oracle-gap experiment over the kernel library.
#[derive(Debug, Clone)]
pub struct OracleGapResult {
    /// One differential report per kernel, in library order.
    pub rows: Vec<CaseReport>,
}

impl OracleGapResult {
    /// Kernels with an exact (proved-minimal-II) verdict.
    fn exact_count(&self) -> usize {
        self.rows.iter().filter(|r| r.gap().is_some()).count()
    }

    /// Kernels whose heuristic II is proven optimal.
    fn optimal_count(&self) -> usize {
        self.rows.iter().filter(|r| r.gap() == Some(0)).count()
    }

    /// Largest proven gap across the library.
    pub fn max_gap(&self) -> u32 {
        self.rows
            .iter()
            .filter_map(CaseReport::gap)
            .max()
            .unwrap_or(0)
    }

    /// Kernels whose schedule the validator rejected (must be none).
    pub fn rejected(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| !r.violations.is_empty())
            .count()
    }

    /// Renders the experiment table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "E-oracle — heuristic II vs proven-minimal II (exact oracle, kernel library)"
        );
        let _ = writeln!(
            s,
            "{:<24} {:>5} {:>8} {:>9} {:>16} {:>4}  schedule",
            "kernel", "insts", "heur II", "oracle II", "verdict", "gap"
        );
        for r in &self.rows {
            let (oracle_ii, verdict, gap) = match &r.verdict {
                IiVerdict::Exact { optimal_ii, .. } => (
                    optimal_ii.to_string(),
                    "exact",
                    format!("{}", r.heuristic_ii - optimal_ii),
                ),
                IiVerdict::BoundedUnknown { proven_lower, .. } => (
                    format!(">={proven_lower}"),
                    "bounded-unknown",
                    "?".to_string(),
                ),
            };
            let status = if !r.violations.is_empty() {
                "REJECTED"
            } else if r.pipelined {
                "certified"
            } else {
                "acyclic (certified)"
            };
            let _ = writeln!(
                s,
                "{:<24} {:>5} {:>8} {:>9} {:>16} {:>4}  {}",
                r.name, r.insts, r.heuristic_ii, oracle_ii, verdict, gap, status
            );
        }
        let _ = writeln!(
            s,
            "exact verdicts: {}/{}   proven optimal: {}   max gap: {}   validator rejections: {}",
            self.exact_count(),
            self.rows.len(),
            self.optimal_count(),
            self.max_gap(),
            self.rejected()
        );
        s
    }
}

/// Runs the differential harness over every kernel in the library on
/// `jobs` worker threads; rows (and their telemetry) come back in library
/// order whatever the worker count.
pub fn oracle_gap(machine: &MachineModel, tel: &Telemetry, jobs: usize) -> OracleGapResult {
    let opts = OracleOptions::default();
    let kernels = kernel_library();
    let rows =
        ltsp_par::Pool::new(jobs).map_traced(tel, "oracle-gap", &kernels, |tel, _idx, (_, lp)| {
            differential_case(lp, machine, &opts, tel)
        });
    OracleGapResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_certifies_and_mostly_resolves() {
        let m = MachineModel::itanium2();
        let r = oracle_gap(&m, &Telemetry::disabled(), 2);
        assert_eq!(r.rows.len(), 17);
        assert_eq!(r.rejected(), 0, "{}", r.render());
        assert!(r.exact_count() >= 12, "{}", r.render());
    }
}
