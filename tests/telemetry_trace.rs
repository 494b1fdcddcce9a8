//! End-to-end smoke test for the telemetry artifacts: run the `ltspc`
//! binary on a small loop with `--trace-out`/`--metrics-out`, then parse
//! what it wrote and validate the event schema and the cycle-accounting
//! partition invariant.

use std::process::Command;

use ltsp::telemetry::json::{parse, JsonValue};

const LOOP_TEXT: &str = r#"loop chase {
  live_in g0
  m0: "a[i]" [int affine(base=0x1000, stride=256) 4B]
  m1: "y[i]" [int affine(base=0x2000000, stride=4) 4B]
  i0: ld g1 = @m0
  i1: add g2 = g1, g0
  i2: st g2 @m1
}
"#;

fn counter(metrics: &JsonValue, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("metrics counter {name} missing"))
}

#[test]
fn ltspc_emits_parseable_decision_trace_and_metrics() {
    let dir = std::env::temp_dir().join(format!("ltsp-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let loop_path = dir.join("chase.loop");
    let trace_path = dir.join("trace.jsonl");
    let metrics_path = dir.join("metrics.json");
    let chrome_path = dir.join("chrome.json");
    std::fs::write(&loop_path, LOOP_TEXT).unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .arg(&loop_path)
        .args(["--policy", "l3", "--trip", "1000", "--simulate", "2000"])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--chrome-trace")
        .arg(&chrome_path)
        .status()
        .expect("ltspc runs");
    assert!(status.success(), "ltspc exited with {status}");

    // --- JSONL trace: every line parses; the decision events carry the
    // fields the schema promises.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let mut boosts = 0;
    let mut spans = 0;
    let mut kinds = Vec::new();
    for line in trace.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let ty = v
            .get("type")
            .and_then(JsonValue::as_str)
            .expect("type field");
        kinds.push(ty.to_string());
        match ty {
            "span" => {
                spans += 1;
                assert!(v.get("name").and_then(JsonValue::as_str).is_some());
                assert!(v.get("dur_us").and_then(JsonValue::as_u64).is_some());
            }
            "boost_assigned" => {
                boosts += 1;
                for field in ["loop", "load", "heuristic"] {
                    assert!(
                        v.get(field).and_then(JsonValue::as_str).is_some(),
                        "boost_assigned missing string field {field}: {line}"
                    );
                }
                for field in ["base_latency", "scheduled_latency", "k", "boost", "ii"] {
                    assert!(
                        v.get(field).and_then(JsonValue::as_u64).is_some(),
                        "boost_assigned missing numeric field {field}: {line}"
                    );
                }
                assert!(v.get("slack").and_then(JsonValue::as_f64).is_some());
                let k = v.get("k").and_then(JsonValue::as_u64).unwrap();
                let ii = v.get("ii").and_then(JsonValue::as_u64).unwrap();
                let boost = v.get("boost").and_then(JsonValue::as_u64).unwrap();
                assert_eq!(boost, (k - 1) * ii, "d = (k-1)*II");
            }
            _ => {
                assert!(
                    v.get("ts_us").and_then(JsonValue::as_u64).is_some(),
                    "event without timestamp: {line}"
                );
            }
        }
    }
    assert!(boosts >= 1, "at least one boosted load traced: {kinds:?}");
    assert!(
        spans >= 3,
        "hlo + pipeline + simulate spans expected: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "criticality_verdict"),
        "criticality verdicts traced: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "schedule_attempt"),
        "schedule attempts traced: {kinds:?}"
    );

    // --- Metrics snapshot: the stall buckets partition the total, exactly
    // as CycleCounters::is_consistent checks in-process.
    let metrics = parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    let total = counter(&metrics, "sim.cycles.total");
    let partition = counter(&metrics, "sim.cycles.unstalled")
        + counter(&metrics, "sim.cycles.be_exe_bubble")
        + counter(&metrics, "sim.cycles.be_l1d_fpu_bubble")
        + counter(&metrics, "sim.cycles.be_rse_bubble")
        + counter(&metrics, "sim.cycles.be_flush_bubble")
        + counter(&metrics, "sim.cycles.fe_bubble");
    assert_eq!(total, partition, "stall buckets partition total cycles");
    assert!(counter(&metrics, "compile.boosted_loads") >= 1);

    // --- Chrome trace: valid JSON with a traceEvents array of phases.
    let chrome = parse(&std::fs::read_to_string(&chrome_path).unwrap()).unwrap();
    let events = chrome
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X")));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_telemetry_is_bit_identical() {
    use ltsp::core::{
        compile_loop_with_profile, compile_loop_with_profile_phased, CompileConfig, LatencyPolicy,
        RunConfig,
    };
    use ltsp::machine::MachineModel;
    use ltsp::server::render_compile_report;
    use ltsp::telemetry::{Phase, PhaseTimer, Telemetry};
    use ltsp::workloads::{find_benchmark, kernel_library};

    let m = MachineModel::itanium2();
    let bench = find_benchmark("429.mcf").unwrap();
    let rc_off = RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints)).with_entry_scale(0.05);
    let tel = Telemetry::enabled();
    let rc_on = RunConfig::new(CompileConfig::new(LatencyPolicy::HloHints))
        .with_entry_scale(0.05)
        .with_telemetry(&tel);

    let off = ltsp::core::run_benchmark(&bench, &m, &rc_off);
    let on = ltsp::core::run_benchmark(&bench, &m, &rc_on);
    assert_eq!(
        off.loop_cycles, on.loop_cycles,
        "telemetry is observational: identical simulated cycles"
    );
    for (a, b) in off.loops.iter().zip(&on.loops) {
        assert_eq!(a.counters, b.counters, "loop {} counters differ", a.name);
    }
    assert!(!tel.events().is_empty(), "the traced run recorded events");
    let metrics = tel.metrics();
    assert_eq!(
        metrics.counter("sim.cycles.total"),
        on.counters().total,
        "exported totals match the harness counters"
    );

    // One compile layer, observed three ways — not at all, through an
    // enabled handle carrying a timer, through a disabled handle carrying
    // one — must render the same report bytes.
    let timer = PhaseTimer::new();
    let observed = [Telemetry::enabled(), Telemetry::disabled()];
    for policy in [
        LatencyPolicy::Baseline,
        LatencyPolicy::AllLoadsL3,
        LatencyPolicy::AllFpLoadsL2,
        LatencyPolicy::HloHints,
    ] {
        let cfg = CompileConfig::new(policy);
        for (name, lp) in kernel_library() {
            let plain = compile_loop_with_profile(&lp, &m, &cfg, 100.0);
            let plain = render_compile_report(&plain, policy, 100.0);
            for tel in &observed {
                let c = compile_loop_with_profile_phased(&lp, &m, &cfg, 100.0, tel, Some(&timer));
                let report = render_compile_report(&c, policy, 100.0);
                assert_eq!(plain, report, "{name} {policy}");
            }
        }
    }
    assert!(!observed[0].events().is_empty() && observed[1].events().is_empty());
    assert!(
        timer.get_us(Phase::Sched) > 0,
        "the attached timer booked phases"
    );
}
