//! The fixed-seed differential fuzzing run the CI `differential` job
//! executes: 200 machine-generated loops through the heuristic pipeliner,
//! every accepted schedule certified by the independent validator, every
//! II measured against the exact oracle.
//!
//! Failure conditions (both indicate a real bug somewhere):
//! - the validator rejects a schedule the pipeliner accepted;
//! - a heuristic II sits *below* an II the oracle proved minimal (the
//!   two engines disagree about what the machine can do).

use ltsp_machine::MachineModel;
use ltsp_oracle::{differential_fuzz, OracleOptions};
use ltsp_telemetry::Telemetry;

mod outlier_exact {
    use ltsp_ddg::Ddg;
    use ltsp_machine::MachineModel;
    use ltsp_oracle::{exact_schedule, validate_schedule, OracleOptions};
    use ltsp_pipeliner::{pipeline_loop, PipelineOptions};
    use ltsp_telemetry::Telemetry;

    /// The gap-1 outlier pinned below is exactly what the exact backend
    /// exists for: where the heuristic settles at II=4 and the oracle
    /// proves II=3, the backend must *emit* a validated, register-
    /// allocated II-3 schedule — closing the gap for real, not just in a
    /// verdict.
    #[test]
    fn exact_backend_emits_the_proven_ii3_schedule_for_seed_0x5f71() {
        let m = MachineModel::itanium2();
        let lp = ltsp_workloads::random_loop(0x5f71);
        let ddg = Ddg::build_with_load_floor(&lp, &m, 0);
        let opts = PipelineOptions::default();
        let heur = pipeline_loop(&lp, &m, &|_| None, &opts, &Telemetry::disabled())
            .expect("outlier pipelines")
            .schedule;
        assert_eq!(heur.ii(), 4, "heuristic II drifted; re-pin this test");
        let opts = OracleOptions {
            node_budget: 30_000,
            ..OracleOptions::default()
        };
        let r = exact_schedule(&lp, &m, &ddg, &heur, &opts).expect("backend emits");
        assert_eq!(r.schedule.ii(), 3, "exact backend must close the gap");
        assert!(r.proven_optimal, "II 3 is the oracle-proven minimum");
        assert!(r.refined, "the emitted schedule improves on the heuristic");
        let cert = validate_schedule(&lp, &ddg, &r.schedule, &m)
            .expect("emitted schedule re-certifies independently");
        assert_eq!(cert.ii, 3);
        assert_eq!(cert.ii, r.certificate.ii);
    }
}

const SEED0: u64 = 0x5eed;
const CASES: u64 = 200;

#[test]
fn two_hundred_case_fixed_seed_fuzz() {
    let m = MachineModel::itanium2();
    let opts = OracleOptions {
        node_budget: 30_000,
        ..OracleOptions::default()
    };
    let s = differential_fuzz(SEED0, CASES, &m, &opts, &Telemetry::disabled(), 2);
    assert_eq!(s.cases.len(), CASES as usize);

    let rejected: Vec<String> = s
        .cases
        .iter()
        .filter(|c| !c.violations.is_empty())
        .map(|c| format!("{}: {:?}", c.name, c.violations))
        .collect();
    assert!(
        rejected.is_empty(),
        "validator rejected {} heuristic schedules:\n{}",
        rejected.len(),
        rejected.join("\n")
    );

    let unsound: Vec<String> = s
        .cases
        .iter()
        .filter(|c| !c.sound())
        .map(|c| {
            format!(
                "{}: heuristic II {} vs verdict {:?}",
                c.name, c.heuristic_ii, c.verdict
            )
        })
        .collect();
    assert!(
        unsound.is_empty(),
        "heuristic II below a proven minimum:\n{}",
        unsound.join("\n")
    );

    // The harness must actually resolve most cases — a fuzz run where the
    // oracle always times out proves nothing.
    let exact = s.proven_optimal + s.proven_suboptimal;
    assert!(
        exact * 2 > s.cases.len(),
        "oracle resolved only {exact}/{} cases",
        s.cases.len()
    );
    println!(
        "fuzz: {} cases, {} proven optimal, {} proven suboptimal (max gap {}), {} unresolved",
        s.cases.len(),
        s.proven_optimal,
        s.proven_suboptimal,
        s.max_gap(),
        s.unknown
    );
}

/// The one known optimality gap in the fixed-seed 200-case run above:
/// seed `0x5eed + 132 = 0x5f71` generates a loop where the heuristic
/// settles at II=4 while the oracle proves II=3 feasible (a witness
/// schedule exists; ~1k search nodes). This is the expected
/// heuristic/optimal trade-off, not a soundness bug — the schedule is
/// still validator-certified — but the gap is pinned so it can neither
/// silently grow nor silently vanish: a scheduler change that closes it
/// (or widens it) must update this test deliberately.
#[test]
fn known_gap_one_outlier_seed_0x5f71() {
    let m = MachineModel::itanium2();
    let opts = OracleOptions {
        node_budget: 30_000,
        ..OracleOptions::default()
    };
    let s = differential_fuzz(0x5f71, 1, &m, &opts, &Telemetry::disabled(), 1);
    let c = &s.cases[0];
    assert_eq!(c.name, "random-5f71");
    assert!(c.violations.is_empty(), "schedule must stay certified");
    assert!(c.sound());
    assert_eq!(c.heuristic_ii, 4, "heuristic II drifted: {:?}", c.verdict);
    assert_eq!(
        c.gap(),
        Some(1),
        "known heuristic/optimal gap changed: {:?}",
        c.verdict
    );
}

#[test]
fn fuzz_is_deterministic() {
    let m = MachineModel::itanium2();
    let opts = OracleOptions {
        node_budget: 10_000,
        ..OracleOptions::default()
    };
    // Different worker counts must not change a single verdict: seeds are
    // split by index and results merge in index order.
    let a = differential_fuzz(7, 10, &m, &opts, &Telemetry::disabled(), 1);
    let b = differential_fuzz(7, 10, &m, &opts, &Telemetry::disabled(), 4);
    for (x, y) in a.cases.iter().zip(&b.cases) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.heuristic_ii, y.heuristic_ii);
        assert_eq!(x.verdict, y.verdict);
    }
}
