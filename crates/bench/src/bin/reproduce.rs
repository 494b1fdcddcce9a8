//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! reproduce [all|fig5|fig7|fig8|fig9|fig10|mcf|regstats|compiletime|noprefetch|versioning|sampling|balanced|ablations|oracle|adaptive]
//!           [--scale X] [--jobs N] [--csv] [--trace-out FILE] [--metrics-out FILE]
//!           [--bench-out FILE] [--no-bench] [-v]
//! ```
//!
//! `--adaptive` is an alias for the `adaptive` experiment (the E-adaptive
//! feedback-directed-hints table). An unknown experiment name or flag, or
//! a flag missing its value, prints this usage on stderr and exits 2
//! without running anything or writing a record.
//!
//! The `--bench-out` record also carries a `"phases"` block: the kernel
//! library is compiled once per policy with a phase timer attached, and
//! each compiler phase (parse is server-side only; here hlo → ddg → mrt
//! → sched → regalloc) reports p50/p99 wall microseconds — the
//! compile-latency KPI baseline the serving-path histograms are compared
//! against.
//!
//! `--scale` multiplies each loop's simulated entry count (default 1.0;
//! use e.g. 0.1 for a quick pass). `--jobs` sets the worker-thread count
//! for every batch layer (default: the machine's available parallelism);
//! any value produces byte-identical reports, traces and metrics — only
//! wall-clock changes. `--csv` switches the per-benchmark gain
//! experiments to CSV output for external plotting. `--trace-out` writes
//! a JSONL span/event trace of the run, `--metrics-out` a JSON metrics
//! snapshot, `--bench-out` the machine-readable wall-clock record
//! (default `BENCH_reproduce.json`; `--no-bench` suppresses it), and `-v`
//! narrates experiment progress on stderr (per-experiment wall-clock
//! timing included).
//!
//! A partial run (`reproduce oracle --bench-out ...`) merges into an
//! existing record at that path rather than replacing it: only the
//! experiments that ran are refreshed, the rest keep their previous
//! timings, and `total_wall_ms` is the sum of the merged per-experiment
//! walls (see `ltsp_bench::bench_record`).

use ltsp_bench::{merged_bench_json, Experiment, ExperimentCtx, EXPERIMENTS};
use ltsp_machine::MachineModel;
use ltsp_telemetry::phase::{PhaseTimer, ALL_PHASES};
use ltsp_telemetry::{Histogram, Telemetry};
use std::io::Write as _;
use std::time::Instant;

/// Prints without panicking on a closed pipe (`reproduce ... | head`).
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    if out
        .write_all(text.as_bytes())
        .and_then(|()| out.write_all(b"\n"))
        .is_err()
    {
        std::process::exit(0);
    }
}

/// Writes one telemetry artifact, reporting failures on stderr.
fn write_artifact(
    path: Option<&str>,
    what: &str,
    f: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) {
    let Some(path) = path else { return };
    let res = std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .and_then(|mut w| f(&mut w));
    if let Err(e) = res {
        eprintln!("reproduce: cannot write {what} {path}: {e}");
        std::process::exit(1);
    }
}

/// Compiles the kernel library once per latency policy with a phase
/// timer attached and folds each compiler phase's wall-clock into a
/// histogram: the compile-latency KPI source for the bench record.
fn compile_phase_kpis(machine: &MachineModel) -> Vec<(&'static str, Histogram)> {
    use ltsp_core::{compile_loop_with_profile_phased, CompileConfig, LatencyPolicy};
    let tel = Telemetry::disabled();
    let mut hists: Vec<(&'static str, Histogram)> = ALL_PHASES
        .iter()
        .map(|p| (p.name(), Histogram::default()))
        .collect();
    for policy in [
        LatencyPolicy::Baseline,
        LatencyPolicy::AllLoadsL3,
        LatencyPolicy::AllFpLoadsL2,
        LatencyPolicy::HloHints,
    ] {
        let cfg = CompileConfig::new(policy);
        for (_, lp) in ltsp_workloads::kernel_library() {
            let phases = PhaseTimer::new();
            let _ =
                compile_loop_with_profile_phased(&lp, machine, &cfg, 100.0, &tel, Some(&phases));
            for (phase, us) in phases.snapshot() {
                if us == 0 {
                    continue;
                }
                if let Some((_, h)) = hists.iter_mut().find(|(n, _)| *n == phase.name()) {
                    h.record(us);
                }
            }
        }
    }
    hists.retain(|(_, h)| h.count > 0);
    hists
}

/// The value following `flag`, or a usage error when it is missing.
fn value(it: &mut std::slice::Iter<String>, flag: &str) -> String {
    it.next()
        .cloned()
        .unwrap_or_else(|| usage_error(&format!("{flag} requires a value")))
}

/// Prints the usage line on stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("reproduce: {problem}");
    eprintln!(
        "usage: reproduce [all|{}] [--scale X] [--jobs N] [--csv] [--trace-out FILE] \
         [--metrics-out FILE] [--bench-out FILE] [--no-bench] [-v]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = 1.0f64;
    let mut jobs = ltsp_par::default_parallelism();
    let mut csv = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut bench_out: Option<String> = Some("BENCH_reproduce.json".to_string());
    let mut verbose = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--scale" => {
                scale = value(&mut it, "--scale")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--scale requires a number"));
            }
            "--jobs" => {
                jobs = ltsp_par::parse_jobs(&value(&mut it, "--jobs")).unwrap_or_else(|e| {
                    eprintln!("reproduce: {e}");
                    std::process::exit(2);
                });
            }
            "--trace-out" => trace_out = Some(value(&mut it, "--trace-out")),
            "--metrics-out" => metrics_out = Some(value(&mut it, "--metrics-out")),
            "--bench-out" => bench_out = Some(value(&mut it, "--bench-out")),
            "--no-bench" => bench_out = None,
            "-v" | "--verbose" => verbose = true,
            "--adaptive" => which = "adaptive".to_string(),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            name => which = name.to_string(),
        }
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| which == "all" || *name == which)
        .collect();
    if selected.is_empty() {
        usage_error(&format!("unknown experiment {which}"));
    }
    // Experiments construct their own RunConfigs; route the worker count
    // through the process-wide default they pick up.
    ltsp_core::set_default_jobs(jobs);

    let tel = if trace_out.is_some() || metrics_out.is_some() || verbose {
        Telemetry::enabled_with(verbose)
    } else {
        Telemetry::disabled()
    };
    let machine = MachineModel::itanium2();
    let ctx = ExperimentCtx {
        machine: &machine,
        scale,
        jobs,
        csv,
        tel: &tel,
    };
    let mut timings: Vec<(String, f64)> = Vec::new();
    let t_run = Instant::now();
    for (name, run) in selected {
        // Each experiment runs under a span so `-v` narrates progress with
        // wall-clock timing and `--trace-out` records the run's timeline.
        tel.info(format!("reproducing {name} (scale {scale}, jobs {jobs})"));
        let t0 = Instant::now();
        {
            let _s = tel.span(format!("experiment:{name}"));
            for block in run(&ctx) {
                emit(&block);
            }
        }
        timings.push((name.to_string(), t0.elapsed().as_secs_f64() * 1e3));
    }
    tel.info(format!(
        "reproduce: {} experiment(s) in {:.1} ms",
        timings.len(),
        t_run.elapsed().as_secs_f64() * 1e3
    ));

    write_artifact(trace_out.as_deref(), "trace", |w| tel.write_events_jsonl(w));
    write_artifact(metrics_out.as_deref(), "metrics", |w| {
        tel.write_metrics_json(w)
    });
    let phase_kpis = if bench_out.is_some() {
        compile_phase_kpis(&machine)
    } else {
        Vec::new()
    };
    // A partial `--which` run merges into the existing record instead of
    // clobbering it: only the experiments that ran are refreshed.
    let existing = bench_out
        .as_deref()
        .and_then(|p| std::fs::read_to_string(p).ok());
    write_artifact(bench_out.as_deref(), "bench record", |w| {
        w.write_all(
            merged_bench_json(
                &which,
                scale,
                jobs,
                &timings,
                &phase_kpis,
                existing.as_deref(),
            )
            .as_bytes(),
        )
    });
}
