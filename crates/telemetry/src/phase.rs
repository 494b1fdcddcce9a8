//! Request-scoped phase timing.
//!
//! A [`PhaseTimer`] is a shared array of atomic nanosecond accumulators,
//! one per [`Phase`] — the compile pipeline's stages plus the daemon's
//! request-lifecycle segments. It rides on a [`crate::Telemetry`] handle
//! whether or not that records events (a served request always has one),
//! is `Sync` so the daemon and the compile path can feed the same timer,
//! and is purely observational: timing a closure changes nothing about
//! its result. Reads are in µs; sub-µs samples still add up.
//!
//! Determinism contract: phase *durations* are wall-clock and therefore
//! nondeterministic, so they never appear in any byte-compared artifact
//! unless the client opts in (`"timings":true` on the wire) or the
//! consumer scrubs them (the flight-recorder dump normalizer zeroes every
//! `*_us` field). The *shape* of [`PhaseTimer::to_json_object`] is fixed —
//! all phases, in declaration order, even when zero — so scrubbed
//! artifacts compare byte-identical across runs and `--jobs` levels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One timed segment of a request's life. The first seven are compiler
/// phases (recorded inside the compile path), the rest are server-side
/// lifecycle segments (recorded by the daemon and engine). Declaration
/// order is each phase's accumulator index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Loop-language parsing (engine-side request body → `Loop`).
    Parse,
    /// High-level optimizations (`run_hlo`).
    Hlo,
    /// DDG construction, ResMII/RecMII analysis, and data-speculation
    /// edge pruning.
    Ddg,
    /// Modulo-reservation setup: load criticality classification and the
    /// acyclic profitability ceiling.
    Mrt,
    /// Modulo scheduling proper, across all II escalation retries.
    Sched,
    /// Rotating register allocation, across all II escalation retries.
    Regalloc,
    /// Emit/render: formatting the compiled artifact into the response
    /// body.
    Render,
    /// Time spent queued before the dispatcher picked the request up.
    QueueWait,
    /// Result-cache probe time (recorded on hits; misses attribute their
    /// time to the compile phases above).
    CacheLookup,
    /// Dispatcher hand-off: from queue pop to the handler starting.
    Dispatch,
    /// Total engine handler time (covers parse through render).
    Handler,
    /// Outbound writer time actually spent writing this response to the
    /// socket (metrics-only: the response envelope is sealed before the
    /// write happens).
    Write,
}

/// All phases, in declaration (and serialization) order.
pub const ALL_PHASES: [Phase; 12] = [
    Phase::Parse,
    Phase::Hlo,
    Phase::Ddg,
    Phase::Mrt,
    Phase::Sched,
    Phase::Regalloc,
    Phase::Render,
    Phase::QueueWait,
    Phase::CacheLookup,
    Phase::Dispatch,
    Phase::Handler,
    Phase::Write,
];

impl Phase {
    /// The phase's wire/metric name (also the Prometheus `phase` label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Hlo => "hlo",
            Phase::Ddg => "ddg",
            Phase::Mrt => "mrt",
            Phase::Sched => "sched",
            Phase::Regalloc => "regalloc",
            Phase::Render => "render",
            Phase::QueueWait => "queue_wait",
            Phase::CacheLookup => "cache_lookup",
            Phase::Dispatch => "dispatch",
            Phase::Handler => "handler",
            Phase::Write => "write",
        }
    }
}

/// Per-request phase accumulators. A cheap-clone handle: clones share
/// one set of accumulators.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimer {
    ns: Arc<[AtomicU64; ALL_PHASES.len()]>,
}

impl PhaseTimer {
    /// A fresh timer with every phase at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `us` microseconds to a phase (phases hit repeatedly — e.g.
    /// `sched` across II escalation retries — accumulate).
    pub fn add_us(&self, phase: Phase, us: u64) {
        self.add_ns(phase, us.saturating_mul(1_000));
    }

    fn add_ns(&self, phase: Phase, ns: u64) {
        self.ns[phase as usize].fetch_add(ns, Ordering::Relaxed);
    }

    /// Times a closure into a phase and returns its result.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.add_ns(phase, ns);
        out
    }

    /// A phase's accumulated microseconds.
    pub fn get_us(&self, phase: Phase) -> u64 {
        self.ns[phase as usize].load(Ordering::Relaxed) / 1_000
    }

    /// All `(phase, us)` pairs in declaration order, zeros included.
    pub fn snapshot(&self) -> Vec<(Phase, u64)> {
        ALL_PHASES.iter().map(|&p| (p, self.get_us(p))).collect()
    }

    /// The breakdown as a JSON object, `{"parse_us":0,...}`. Every phase
    /// is present in a fixed order so the object's *shape* is
    /// deterministic even though the values are wall-clock.
    pub fn to_json_object(&self) -> String {
        let mut out = String::from("{");
        for (i, (p, us)) in self.snapshot().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}_us\":{us}", p.name()));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_snapshot_in_order() {
        let t = PhaseTimer::new();
        t.add_us(Phase::Sched, 5);
        t.add_us(Phase::Sched, 7);
        t.add_us(Phase::Parse, 1);
        assert_eq!(t.get_us(Phase::Sched), 12);
        let snap = t.snapshot();
        assert_eq!(snap.len(), ALL_PHASES.len());
        assert_eq!(snap[0], (Phase::Parse, 1));
        assert_eq!(snap[4], (Phase::Sched, 12));
        assert!(ALL_PHASES.iter().enumerate().all(|(i, &p)| p as usize == i));
    }

    #[test]
    fn json_object_has_every_phase_in_fixed_order() {
        let t = PhaseTimer::new();
        t.add_us(Phase::Handler, 42);
        let obj = t.to_json_object();
        let v = crate::json::parse(&obj).expect("valid json");
        for p in ALL_PHASES {
            assert!(
                v.get(&format!("{}_us", p.name())).is_some(),
                "missing {}",
                p.name()
            );
        }
        assert_eq!(v.get("handler_us").unwrap().as_u64(), Some(42));
        // Shape is fixed: an empty timer serializes to the same keys.
        let empty = PhaseTimer::new().to_json_object();
        let ev = crate::json::parse(&empty).expect("valid json");
        assert_eq!(ev.get("handler_us").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn sub_microsecond_samples_add_up() {
        // Ten ~600 ns samples must book ~6 µs, not ten truncated zeros.
        let t = PhaseTimer::new();
        for _ in 0..10 {
            t.time(Phase::Sched, || {
                let t0 = Instant::now();
                while t0.elapsed().as_nanos() < 600 {
                    std::hint::spin_loop();
                }
            });
        }
        assert!(t.get_us(Phase::Sched) >= 5, "{}", t.get_us(Phase::Sched));
    }
}
