//! The repository benchmark: four seeded workloads that drive the
//! compiler, simulator, oracle, adaptive loop and daemon through their
//! public entry points, check the outputs, and print end-to-end metrics
//! (untraced run) or per-layer metrics (traced run) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_sim --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for why each workload exists, what each
//! metric means and which end-to-end metric each layer metric moves.

mod adaptive_refine;
mod alloc;
mod calib;
mod check;
mod compile_cold;
mod layers;
mod serve_mix;
mod stats;
mod suite_sim;
mod trace;

use std::time::{Duration, Instant};

use stats::{median, quantile};
use trace::Trace;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed whose output digests are pinned in [`check::expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run: at least `SETUP_MIN`, more while their total stays
/// under `SETUP_BUDGET_S`, at most `SETUP_MAX`. `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 1001;
const SETUP_BUDGET_S: f64 = 1.0;

/// Timed passes of each kind a run makes at least, however short
/// `--seconds` is.
const MIN_PASSES: usize = 3;

/// What one timed pass over a workload's items produced.
pub struct Pass {
    /// Host wall of the pass, seconds.
    pub wall_s: f64,
    /// Latency of each unit operation, microseconds.
    pub op_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of everything the pass computed.
    pub digest: u64,
}

/// A pass reduced to what the metrics need, so a long run holds no
/// per-operation samples.
struct Summary {
    /// Scales this pass's times to the quiet host ([`calib::Probe::to_quiet`]).
    host: f64,
    wall_s: f64,
    op_p50_us: f64,
    op_p95_us: f64,
    ops: usize,
    attempted: u64,
    failed: u64,
    digest: u64,
}

impl Summary {
    fn new(p: Pass, host: f64) -> Summary {
        let q = |q| quantile(&p.op_us, q).unwrap_or(0.0);
        Summary {
            host,
            wall_s: p.wall_s,
            op_p50_us: q(0.50),
            op_p95_us: q(0.95),
            ops: p.op_us.len(),
            attempted: p.attempted,
            failed: p.failed,
            digest: p.digest,
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether every pass computes the same outputs (false when each
    /// pass draws fresh inputs).
    const IDENTICAL_PASSES: bool = true;
    /// Whether an operation waits on another thread (see [`calib`]).
    const CROSS_THREAD: bool = false;
    fn setup(seed: u64) -> Self;
    /// One pass over the items; `tr` is present in traced passes.
    fn pass(&mut self, index: usize, tr: Option<&mut Trace>) -> Pass;
    /// Checks run after the timed section; one line per failure.
    fn check(&mut self) -> Vec<String>;
}

/// Starts a pass: its clock and, when tracing, its span.
pub fn begin_pass(tr: &mut Option<&mut Trace>, index: usize) -> Instant {
    if let Some(t) = tr {
        t.begin_pass(index);
    }
    Instant::now()
}

/// Ends a pass started at `t0` and returns its wall in seconds.
pub fn end_pass(tr: &mut Option<&mut Trace>, t0: Instant) -> f64 {
    let end = Instant::now();
    if let Some(t) = tr {
        t.end_pass_at(end);
    }
    end.duration_since(t0).as_secs_f64()
}

pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload suite_sim|compile_cold|serve_mix|adaptive_refine \
         [--seed N] [--seconds 1..=60] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    a
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run<W: Workload>(a: &Args) -> Outcome {
    let probe = calib::Probe::new(W::CROSS_THREAD);

    // Set up several times and keep the last instance: the median is
    // steadier than any single set-up on a shared host. A probe sample
    // just before each set-up gives the host speed it ran at.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_host: Vec<f64> = Vec::new();
    let mut w = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < SETUP_MAX)
    {
        drop(w.take());
        setup_host.push(probe.to_quiet(&[probe.sample()]));
        let t0 = Instant::now();
        w = Some(W::setup(a.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");

    // One untimed warm-up pass (checked like the rest): the allocator's
    // pools and the host caches fill before timing starts.
    let warm = w.pass(0, None);
    let mut before = probe.samples_after(warm.wall_s);
    let warm = Summary::new(warm, probe.to_quiet(&before));

    // Timed section. A traced run alternates untraced and traced passes,
    // so the tracing overhead is measured under the same host conditions.
    let mut trace = Trace::new();
    let (mut plain, mut traced): (Vec<Summary>, Vec<Summary>) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    for index in 1.. {
        if plain.len() >= MIN_PASSES
            && (!a.trace || traced.len() >= MIN_PASSES)
            && Instant::now() >= deadline
        {
            break;
        }
        let is_traced = a.trace && index % 2 == 0;
        alloc::set_enabled(is_traced);
        let p = w.pass(index, is_traced.then_some(&mut trace));
        alloc::set_enabled(false);
        // The host speed around the pass: probe samples just before and
        // just after it.
        let after = probe.samples_after(p.wall_s);
        let host = probe.to_quiet(&[before.as_slice(), after.as_slice()].concat());
        before = after;
        if is_traced { &mut traced } else { &mut plain }.push(Summary::new(p, host));
    }
    let rss = peak_rss_mb();

    let mut failures = w.check();
    let passes: Vec<&Summary> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    if W::IDENTICAL_PASSES {
        let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
        if let Err(e) = check::passes_agree(&digests) {
            failures.push(e);
        }
    }
    println!(
        "{} seed {} output digest {:016x}",
        W::NAME,
        a.seed,
        warm.digest
    );
    if a.seed == DEFAULT_SEED {
        if let Err(e) = check::digest_matches(warm.digest, check::expected_digest(W::NAME)) {
            failures.push(e);
        }
    }
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }

    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let metrics = if a.trace {
        let walls = |ps: &[Summary]| ps.iter().map(|p| p.wall_s).collect::<Vec<_>>();
        let path = format!(".bench_out/{}-seed{}-spans.jsonl", W::NAME, a.seed);
        match trace.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => println!("spans: {} written to {path}", trace.spans.len()),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
        layers::metrics(&trace, &walls(&plain), &walls(&traced))
    } else {
        end_to_end(&plain, &setup_s, &setup_host, rss)
    };
    Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

/// The end-to-end metrics. Each timing is taken per pass, scaled to the
/// quiet host by the probe samples around that pass, and reported as the
/// median over passes, so neither a pass slowed by a noisy neighbour nor
/// a run made on a slow host moves it. The unscaled medians are printed
/// beside them.
fn end_to_end(passes: &[Summary], setup_s: &[f64], setup_host: &[f64], rss: f64) -> Vec<Metric> {
    let setup_quiet: Vec<f64> = setup_s.iter().zip(setup_host).map(|(s, h)| s * h).collect();
    let per_pass = |f: fn(&Summary) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (attempted, failed) = passes
        .iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    for (i, p) in passes.iter().enumerate() {
        eprintln!(
            "pass {i} host {:.4} wall_s {:.6} op_p50_us {:.3} op_p95_us {:.3}",
            p.host, p.wall_s, p.op_p50_us, p.op_p95_us
        );
    }
    println!(
        "{} timed passes of {} operations; {} set-ups",
        passes.len(),
        passes[0].ops,
        setup_s.len()
    );
    println!(
        "unscaled: setup_s {} pass_s {} op_p50_us {} op_p95_us {}; host speed {} of quiet",
        median(setup_s),
        per_pass(|p| p.wall_s),
        per_pass(|p| p.op_p50_us),
        per_pass(|p| p.op_p95_us),
        per_pass(|p| p.host),
    );
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", median(&setup_quiet), "s"),
        m("pass_s", per_pass(|p| p.wall_s * p.host), "s"),
        m("op_p50_us", per_pass(|p| p.op_p50_us * p.host), "us"),
        m("op_p95_us", per_pass(|p| p.op_p95_us * p.host), "us"),
        m("peak_rss_mb", rss, "MB"),
        m(
            "ok_ratio",
            1.0 - failed as f64 / (attempted as f64).max(1.0),
            "ratio",
        ),
    ]
}

fn main() {
    let a = parse_args();
    let out = match a.workload.as_str() {
        "suite_sim" => run::<suite_sim::SuiteSim>(&a),
        "compile_cold" => run::<compile_cold::CompileCold>(&a),
        "serve_mix" => run::<serve_mix::ServeMix>(&a),
        "adaptive_refine" => run::<adaptive_refine::AdaptiveRefine>(&a),
        _ => usage(),
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            eprintln!("{:<28} {:>16} {}", m.name, m.value, m.unit);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
