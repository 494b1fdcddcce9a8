//! The request engine: the full compilation pipeline behind the wire
//! protocol, fronted by two content-addressed caches.
//!
//! - **Compile** requests go through [`ltsp_core::compile_loop_cached`]:
//!   the cache stores [`CompiledLoop`] artifacts keyed by canonicalized
//!   loop + full [`CompileConfig`] + machine + trip, and the response
//!   body is (deterministically) re-rendered from the artifact.
//! - **Verify** and **oracle** requests cache the *rendered response
//!   body* keyed by canonicalized loop + the request's oracle knobs —
//!   the expensive part is the search, not the rendering.
//!
//! Either way a hit returns bytes identical to what the cold path
//! produced, and a key covers every input that can change the answer, so
//! eviction can only ever cost time, never correctness.
//!
//! The engine is `Sync`: the daemon calls [`Engine::handle`] from many
//! pool workers at once. Every response is a pure function of the
//! request, which is what keeps batch composition (and therefore
//! `--jobs`) out of the bytes on the wire.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ltsp_adaptive::{compile_loop_adaptive, AdaptiveOptions};
use ltsp_cache::persist::CacheLog;
use ltsp_cache::{CacheConfig, Fingerprint, FingerprintHasher, ShardedLru};
use ltsp_core::{
    compile_loop_cached, new_compile_cache, CompileCache, CompileConfig, CompiledLoop,
};
use ltsp_ir::{parse_loop, LoopIr, ParseError};
use ltsp_machine::MachineModel;
use ltsp_oracle::{differential_case, exact_case, IiVerdict, OracleOptions, Violation};
use ltsp_telemetry::phase::{Phase, PhaseTimer};
use ltsp_telemetry::{lock_unpoisoned, prom, Event, Histogram, Telemetry};

use crate::flight::{FlightRecord, FlightRecorder};
use crate::proto::{
    push_bool_field, push_str_field, push_u64_field, Backend, Mode, ReqOp, Request, Response,
};
use crate::report::{render_adaptive_report, render_compile_report, render_exact_report};

/// A cached request outcome: the response status plus the body fragment
/// (everything after the envelope), whether the entry was upgraded in
/// place by an async refinement (hits on upgraded entries report
/// `cache:"upgraded"`), and — for a refine producer's body — whether its
/// II strictly improved on the heuristic's.
#[derive(Debug, Clone)]
struct CachedResult {
    status: &'static str,
    body: String,
    upgraded: bool,
    improved: bool,
}

impl CachedResult {
    fn new(status: &'static str, body: String) -> CachedResult {
        CachedResult {
            status,
            body,
            upgraded: false,
            improved: false,
        }
    }
}

/// Engine tuning knobs (the daemon forwards these from its CLI).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Byte budget for the compiled-artifact cache.
    pub compile_cache_bytes: usize,
    /// Byte budget for the verify/oracle response cache.
    pub result_cache_bytes: usize,
    /// Default oracle node budget when a request names none.
    pub oracle_node_budget: u64,
    /// Default oracle wall-clock budget when a request names none
    /// (`None` = unlimited).
    pub oracle_deadline_ms: Option<u64>,
    /// Flight-recorder dump directory (`None` = ring only, no dumps).
    pub flight_dir: Option<PathBuf>,
    /// Flight-recorder ring capacity (request lifecycles retained).
    pub flight_len: usize,
    /// Persistent result-cache log (`None` = in-memory only). When set,
    /// the engine replays the log into the result cache at construction
    /// and appends every newly computed result, so a restarted process
    /// serves warm from request one.
    pub persist_path: Option<PathBuf>,
    /// Warn loudly (once) when the persist log grows past this many
    /// bytes (`None` = never). The log is append-only, so unbounded
    /// growth is by design — this is the operator's tripwire.
    pub persist_warn_bytes: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            compile_cache_bytes: 64 << 20,
            result_cache_bytes: 16 << 20,
            oracle_node_budget: 200_000,
            oracle_deadline_ms: Some(10_000),
            flight_dir: None,
            flight_len: 256,
            persist_path: None,
            persist_warn_bytes: None,
        }
    }
}

/// Request counters by final status (monotonic, exposed via `stats`).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// `status:"ok"` responses.
    pub ok: AtomicU64,
    /// `status:"rejected"` responses.
    pub rejected: AtomicU64,
    /// `status:"error"` responses.
    pub error: AtomicU64,
    /// `status:"overloaded"` responses (bumped by the daemon).
    pub overloaded: AtomicU64,
    /// `status:"draining"` responses (bumped by the daemon).
    pub draining: AtomicU64,
}

impl ServeCounters {
    fn bump(&self, status: &str) {
        match status {
            "ok" => &self.ok,
            "rejected" => &self.rejected,
            "overloaded" => &self.overloaded,
            "draining" => &self.draining,
            _ => &self.error,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// Live operational gauges and chaos counters, updated by the daemon's
/// threads and read by the `metrics` exposition. Plain atomics:
/// monotonically increasing for the `*_total` counters, last-write-wins
/// snapshots for the gauges.
#[derive(Debug, Default)]
pub struct ServerGauges {
    /// Requests sitting in the admission queue right now.
    pub queue_depth: AtomicU64,
    /// Requests currently being handled by the dispatcher batch.
    pub inflight: AtomicU64,
    /// Open client connections.
    pub connections: AtomicU64,
    /// Connections killed for missing the write deadline.
    pub conn_shed: AtomicU64,
    /// Responses dropped on shed/dead connections.
    pub responses_shed: AtomicU64,
    /// Handler panics contained (real or injected).
    pub request_panics: AtomicU64,
    /// Faults injected by the active [`crate::FaultPlan`].
    pub faults_injected: AtomicU64,
    /// Dispatcher deaths survived (drain-and-exit path).
    pub dispatcher_deaths: AtomicU64,
}

/// Persistence-tier counters (all zero when no log is configured).
#[derive(Debug, Default)]
pub struct PersistCounters {
    /// Records replayed into the result cache at startup (after
    /// last-writer-wins collapse).
    pub replayed: AtomicU64,
    /// Bad records dropped during startup replay (torn/corrupt tail).
    pub dropped: AtomicU64,
    /// Clean records superseded by a later append under the same key
    /// (in-place cache upgrades leave exactly one of these each).
    pub superseded: AtomicU64,
    /// Records appended since startup.
    pub appended: AtomicU64,
    /// Append failures (the response is still served; the entry is just
    /// not durable).
    pub append_errors: AtomicU64,
}

/// Async-refinement counters — exact upgrades for the tiered backend
/// and adaptive upgrades for `mode:"adaptive"` (exposed via `stats` and
/// the Prometheus snapshot).
#[derive(Debug, Default)]
pub struct UpgradeCounters {
    /// Refinement batches queued (one per cold refining compile whose
    /// work was not already in flight).
    pub scheduled: AtomicU64,
    /// Cold refining compiles coalesced onto an already-queued batch
    /// with the same refinement work (they get their own in-place
    /// upgrade, but the schedule is computed once).
    pub coalesced: AtomicU64,
    /// Upgrades applied in place (raw-request and tier body entries
    /// swapped to the refined bytes, persisted again) — one per waiter,
    /// coalesced or not.
    pub applied: AtomicU64,
    /// Applied upgrades whose refined schedule strictly improved the
    /// heuristic II (as its producer reported; a refined body replayed
    /// from the persist log does not carry that bit and counts as
    /// applied only).
    pub refined: AtomicU64,
    /// Refinement jobs that failed (emission, a rejected case, a
    /// contained panic, or a shutdown race) — the heuristic entry stays,
    /// correctness is unaffected. Once the queue is idle,
    /// `scheduled + coalesced == applied + failed`.
    pub failed: AtomicU64,
}

/// The fields a body key hashes after its namespace, in order.
#[derive(Debug, Clone, Copy)]
enum KeyFields {
    /// `compile_key(loop, machine, config, trip)`.
    Compile,
    /// The compile key, then the search budget and deadline.
    CompileSearch,
    /// The canonical loop and machine, then the search budget and
    /// deadline: trip and config variants share one exact schedule.
    LoopSearch,
}

/// A compile body's cache key: a namespace plus the fields it hashes.
/// Both are persisted — a log written by an earlier build replays only
/// if neither ever changes.
#[derive(Debug, Clone, Copy)]
struct BodyKey(&'static str, KeyFields);

impl BodyKey {
    /// The one body-key derivation behind every compile body.
    fn derive(&self, machine: &MachineModel, c: &CompileInputs) -> Fingerprint {
        let mut h = FingerprintHasher::new();
        h.write_str(self.0);
        match self.1 {
            KeyFields::Compile | KeyFields::CompileSearch => {
                h.write_fingerprint(ltsp_core::compile_key(&c.lp, machine, &c.cfg, c.trip));
            }
            KeyFields::LoopSearch => {
                h.write_str(&c.lp.to_string());
                h.write_fingerprint(Fingerprint::of_str(&format!("{machine:?}")));
            }
        }
        if !matches!(self.1, KeyFields::Compile) {
            h.write_u64(c.budget);
            h.write_u64(c.deadline_ms.map_or(u64::MAX, |d| d));
        }
        h.finish()
    }
}

/// A parsed compile request: the loop plus every knob a compile body or
/// its key reads.
struct CompileInputs {
    lp: LoopIr,
    cfg: CompileConfig,
    trip: f64,
    budget: u64,
    deadline_ms: Option<u64>,
}

/// A refine producer: computes a rung's better body off the answer
/// path, cached under its own key (which covers exactly the body's
/// inputs, so it doubles as the in-flight dedup key).
#[derive(Clone, Copy)]
struct Producer {
    key: BodyKey,
    run: fn(&MachineModel, &CompileInputs) -> CachedResult,
}

/// The oracle's branch-and-bound exact emission: the tiered rung's
/// refinement, and sync `backend:"exact"` served directly under its key
/// (so either warms the other).
const EXACT: Producer = Producer {
    key: BodyKey("compile-body-exact-v1", KeyFields::LoopSearch),
    run: compute_exact_body,
};

/// The memsim-fed hint-refinement loop run to its certified fixpoint:
/// the adaptive rung's refinement. No search budget or deadline in the
/// key — it runs a fixed deterministic window, not a search.
const ADAPTIVE: Producer = Producer {
    key: BodyKey("compile-body-adaptive-v1", KeyFields::Compile),
    run: compute_adaptive_body,
};

/// One rung of the refinement ladder: the request shape it serves, the
/// key its answer-now (heuristic) body caches under, the field stamped
/// on that body, and the producer that later upgrades it in place.
struct Rung {
    backend: Backend,
    mode: Mode,
    key: BodyKey,
    tag: Option<(&'static str, &'static str)>,
    refine: Option<Producer>,
}

/// The refinement ladder. Each rung keeps its own body-key namespace on
/// purpose: in-place upgrades swap a refining rung's entries and must
/// never touch a plain heuristic body. A new backend is one more row.
const LADDER: [Rung; 3] = [
    Rung {
        backend: Backend::Heuristic,
        mode: Mode::Static,
        key: BodyKey("compile-body-v1", KeyFields::Compile),
        tag: None,
        refine: None,
    },
    Rung {
        backend: Backend::Tiered,
        mode: Mode::Static,
        key: BodyKey("compile-body-tiered-v1", KeyFields::CompileSearch),
        tag: Some(("backend", "tiered")),
        refine: Some(EXACT),
    },
    Rung {
        backend: Backend::Heuristic,
        mode: Mode::Adaptive,
        key: BodyKey("compile-body-adaptive-tier-v1", KeyFields::Compile),
        tag: Some(("mode", "adaptive")),
        refine: Some(ADAPTIVE),
    },
];

/// One queued refinement: a cold refining compile's producer and parsed
/// inputs, plus the keys its answer-now path already derived.
struct RefineJob {
    producer: Producer,
    inputs: CompileInputs,
    raw_key: Fingerprint,
    /// The raw request's loop text length (raw-entry byte accounting).
    loop_len: usize,
    tier_key: Fingerprint,
    /// The producer's body key, also the in-flight dedup key: two jobs
    /// under one refined key compute the same body, so the second waits
    /// on the first's batch (trip or policy variants of a tiered loop,
    /// or formatting variants of any loop).
    refined_key: Fingerprint,
}

/// In-flight refinement batches, keyed by [`RefineJob::refined_key`]:
/// the leader (first job under a key) owns the queue slot; followers
/// append themselves as waiters. The worker removes the whole entry
/// *before* computing, so every waiter present at that point shares one
/// computation and later arrivals become fresh leaders.
type RefineInflight = Mutex<HashMap<Fingerprint, Vec<RefineJob>>>;

/// Everything the async refinement worker shares with the engine: the
/// caches and counters it upgrades, behind `Arc` so the worker outlives
/// any particular borrow of the engine.
struct RefineShared {
    machine: MachineModel,
    result_cache: Arc<ShardedLru<CachedResult>>,
    persist: Option<Arc<CacheLog>>,
    persist_counters: Arc<PersistCounters>,
    upgrades: Arc<UpgradeCounters>,
    inflight: Arc<RefineInflight>,
}

/// The shared, thread-safe request engine.
pub struct Engine {
    machine: MachineModel,
    compile_cache: CompileCache,
    result_cache: Arc<ShardedLru<CachedResult>>,
    /// The disk tier behind `result_cache` (`None` = in-memory only).
    persist: Option<Arc<CacheLog>>,
    cfg: EngineConfig,
    /// Per-status response tallies.
    pub counters: ServeCounters,
    /// Persistence-tier tallies (replay/append accounting).
    pub persist_counters: Arc<PersistCounters>,
    /// Tiered-backend upgrade tallies (refinement scheduling/outcomes).
    pub upgrades: Arc<UpgradeCounters>,
    /// Operational gauges (fed by the daemon, read by `metrics`).
    pub gauges: ServerGauges,
    /// The flight recorder (fed per request, dumped on faults).
    pub flight: FlightRecorder,
    /// Per-phase latency histograms behind the `metrics` op. Kept out
    /// of the telemetry registry on purpose: wall-clock buckets differ
    /// run to run, and the drain-time telemetry export participates in
    /// determinism comparisons.
    phase_hists: Mutex<BTreeMap<&'static str, Histogram>>,
    /// Queue into the refinement worker: each message is the refined
    /// key of a batch the sender just made a leader for (`None` after
    /// shutdown).
    refine_tx: Mutex<Option<mpsc::Sender<Fingerprint>>>,
    /// The refinement worker's join handle (`None` after shutdown).
    refine_handle: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Outstanding refinement jobs (waiters, not batches), for
    /// [`Engine::refine_wait_idle`].
    refine_pending: Arc<(Mutex<u64>, Condvar)>,
    /// In-flight refinement batches (refined key → waiters).
    refine_inflight: Arc<RefineInflight>,
    /// Held by the worker across each batch's pop-and-process. Tests
    /// grab it to deterministically coalesce followers onto an already
    /// queued leader; uncontended otherwise.
    #[cfg_attr(not(test), allow(dead_code))]
    refine_gate: Arc<Mutex<()>>,
    /// Latch so the persist-size warning fires once, not per append.
    persist_warned: AtomicBool,
}

impl Engine {
    /// Builds an engine for the Itanium 2 machine model. When
    /// [`EngineConfig::persist_path`] is set, the log is replayed into
    /// the result cache *before* the engine is handed to any caller, so
    /// the very first request can hit warm. An unopenable log is loud
    /// but non-fatal — the engine degrades to in-memory-only caching.
    pub fn new(cfg: EngineConfig) -> Engine {
        let result_cache = Arc::new(ShardedLru::new(CacheConfig {
            byte_budget: cfg.result_cache_bytes,
            ..CacheConfig::default()
        }));
        let persist_counters = Arc::new(PersistCounters::default());
        let persist = cfg
            .persist_path
            .as_ref()
            .and_then(|path| match CacheLog::open(path) {
                Ok((log, report)) => {
                    // Last-writer-wins: an in-place upgrade is a second
                    // append under the same key, and a warm restart must
                    // serve the upgraded bytes, never the superseded ones.
                    let live = report.last_writer_wins();
                    persist_counters
                        .replayed
                        .store(live.len() as u64, Ordering::Relaxed);
                    persist_counters
                        .superseded
                        .store(report.superseded(), Ordering::Relaxed);
                    persist_counters
                        .dropped
                        .store(report.dropped, Ordering::Relaxed);
                    for rec in live {
                        let bytes = rec.body.len() + 64;
                        result_cache.insert(
                            rec.key,
                            CachedResult::new(intern_status(&rec.status), rec.body.clone()),
                            bytes,
                        );
                    }
                    Some(Arc::new(log))
                }
                Err(e) => {
                    eprintln!(
                        "ltspd: persist log {} unavailable: {e} (running without persistence)",
                        path.display()
                    );
                    None
                }
            });
        let machine = MachineModel::itanium2();
        let upgrades = Arc::new(UpgradeCounters::default());
        let refine_pending = Arc::new((Mutex::new(0u64), Condvar::new()));
        let refine_inflight: Arc<RefineInflight> = Arc::new(Mutex::new(HashMap::new()));
        let refine_gate = Arc::new(Mutex::new(()));
        let shared = RefineShared {
            machine: machine.clone(),
            result_cache: Arc::clone(&result_cache),
            persist: persist.clone(),
            persist_counters: Arc::clone(&persist_counters),
            upgrades: Arc::clone(&upgrades),
            inflight: Arc::clone(&refine_inflight),
        };
        let pending = Arc::clone(&refine_pending);
        let gate = Arc::clone(&refine_gate);
        let (tx, rx) = mpsc::channel::<Fingerprint>();
        let handle = std::thread::Builder::new()
            .name("ltspd-refine".to_string())
            .spawn(move || {
                while let Ok(refined_key) = rx.recv() {
                    // Pop the whole waiter batch under the gate, before
                    // computing: every waiter present now shares one
                    // refinement; a request arriving after the pop finds
                    // no in-flight entry and becomes a fresh leader.
                    let _gate = lock_unpoisoned(&gate);
                    let waiters = lock_unpoisoned(&shared.inflight)
                        .remove(&refined_key)
                        .unwrap_or_default();
                    // A panicking refinement must not strand waiters or
                    // kill the worker: contain it, count it, move on.
                    let contained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        refine_batch(&shared, &waiters)
                    }));
                    if contained.is_err() {
                        shared
                            .upgrades
                            .failed
                            .fetch_add(waiters.len() as u64, Ordering::Relaxed);
                    }
                    let (lock, cv) = &*pending;
                    *lock_unpoisoned(lock) -= waiters.len() as u64;
                    cv.notify_all();
                }
            })
            .expect("spawn refinement worker");
        Engine {
            machine,
            compile_cache: new_compile_cache(cfg.compile_cache_bytes),
            result_cache,
            persist,
            flight: FlightRecorder::new(cfg.flight_len, cfg.flight_dir.clone()),
            cfg,
            counters: ServeCounters::default(),
            persist_counters,
            upgrades,
            gauges: ServerGauges::default(),
            phase_hists: Mutex::new(BTreeMap::new()),
            refine_tx: Mutex::new(Some(tx)),
            refine_handle: Mutex::new(Some(handle)),
            refine_pending,
            refine_inflight,
            refine_gate,
            persist_warned: AtomicBool::new(false),
        }
    }

    /// Appends a freshly computed result to the disk tier (no-op without
    /// one). Failures are counted and logged once — durability is
    /// best-effort, correctness never depends on it.
    fn persist_append(&self, key: Fingerprint, status: &str, body: &str) {
        append_record(
            self.persist.as_deref(),
            &self.persist_counters,
            key,
            status,
            body,
        );
        self.check_persist_size();
    }

    /// The operator tripwire behind `--persist-warn-mb`: one loud line
    /// the first time the append-only log crosses the threshold. The
    /// gauge (`persist_log_bytes` in `stats`, `ltsp_persist_log_bytes`
    /// in the Prometheus snapshot) keeps reporting after that.
    fn check_persist_size(&self) {
        let (Some(limit), Some(log)) = (self.cfg.persist_warn_bytes, self.persist.as_deref())
        else {
            return;
        };
        let bytes = log.log_bytes();
        if bytes > limit && !self.persist_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "ltspd: WARNING: persist log {} is {:.1} MiB, past the {:.1} MiB warning \
                 threshold — the log is append-only and only ever grows; rotate or remove it \
                 to reclaim space (a fresh log re-warms from live traffic)",
                log.path().display(),
                bytes as f64 / (1 << 20) as f64,
                limit as f64 / (1 << 20) as f64,
            );
        }
    }

    /// Test hook: while the returned guard is held, the refine worker
    /// stalls before popping its next batch, so further requests with
    /// the same refinement inputs deterministically coalesce onto the
    /// queued leader.
    #[cfg(test)]
    fn refine_pause(&self) -> std::sync::MutexGuard<'_, ()> {
        lock_unpoisoned(&self.refine_gate)
    }

    /// Blocks until every scheduled refinement has completed (tests and
    /// drain use this to make upgrade effects observable deterministically).
    pub fn refine_wait_idle(&self) {
        let (lock, cv) = &*self.refine_pending;
        let mut n = lock_unpoisoned(lock);
        while *n > 0 {
            n = cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops the refinement worker: queued jobs drain, then the thread
    /// exits and is joined. Idempotent; called on drop and by the
    /// daemon's drain path.
    pub fn refine_shutdown(&self) {
        drop(lock_unpoisoned(&self.refine_tx).take());
        if let Some(h) = lock_unpoisoned(&self.refine_handle).take() {
            let _ = h.join();
        }
    }

    /// Handles one admitted request. Emits an [`Event::ServerRequest`]
    /// on `tel` and tallies the status. `shutdown` is the daemon's
    /// business and answers `error` here.
    ///
    /// Phase time books into `tel`'s timer (the daemon attaches one
    /// pre-loaded with `queue_wait`/`dispatch`), or into a fresh one when
    /// `tel` carries none. Records total handler time, feeds the
    /// per-phase histograms and the flight recorder, and — when the
    /// request opted in with `"timings":true` — attaches the breakdown to
    /// the response envelope.
    pub fn handle(&self, req: &Request, tel: &Telemetry) -> Response {
        let phases = tel.phases().cloned().unwrap_or_default();
        let tel = &tel.with_phases(&phases);
        let resp = tel.time(Phase::Handler, || match req.op {
            ReqOp::Ping => Response {
                id: req.id.clone(),
                status: "ok",
                cache: "-",
                body: ",\"op\":\"ping\"".to_string(),
                timings: None,
            },
            ReqOp::Stats => self.stats_response(req),
            ReqOp::Metrics => self.metrics_response(req),
            ReqOp::Shutdown => Response::error(&req.id, "error", "shutdown not admitted here"),
            ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle => self.cached_response(req, tel),
        });
        let mut resp = self.finish(req, resp, tel);
        if req.timings {
            resp.timings = Some(phases.to_json_object());
        }
        self.observe(req, &resp, &phases);
        resp
    }

    /// Feeds a finished request into the phase histograms and the flight
    /// recorder.
    fn observe(&self, req: &Request, resp: &Response, phases: &PhaseTimer) {
        {
            let mut hists = lock_unpoisoned(&self.phase_hists);
            for (p, us) in phases.snapshot() {
                // Handler always records (it is the request-total KPI);
                // other phases record only when they actually ran, so a
                // phase histogram's count is "times this phase ran".
                if us > 0 || p == Phase::Handler {
                    hists.entry(p.name()).or_default().record(us);
                }
            }
        }
        self.flight
            .record(FlightRecord::capture(req, resp.status, resp.cache, phases));
    }

    /// Records a single out-of-band phase sample (the outbound writer
    /// books `write` time here after the response envelope is sealed).
    pub fn record_phase_sample(&self, phase: Phase, us: u64) {
        lock_unpoisoned(&self.phase_hists)
            .entry(phase.name())
            .or_default()
            .record(us);
    }

    /// First-level cache in front of the pipeline, keyed on the *raw*
    /// request content (loop text byte-for-byte plus every knob). A hit
    /// skips even the loop parse; a miss falls through to the canonical
    /// per-op path, whose artifact/body caches still deduplicate requests
    /// that differ only in formatting. Responses are pure functions of
    /// their requests, so caching the whole outcome (including error
    /// outcomes) is sound.
    /// The first-level cache key of a request, or `None` for ops that
    /// bypass the result cache. The daemon uses this to dedupe identical
    /// requests *within* a parallel batch: without that, two same-key
    /// requests race on who populates the cache and the loser's
    /// `"cache"` tag depends on worker timing — a `--jobs`-dependent
    /// byte in an otherwise deterministic response stream.
    pub fn request_key(&self, req: &Request) -> Option<Fingerprint> {
        match req.op {
            ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle => {}
            _ => return None,
        }
        let mut h = FingerprintHasher::new();
        h.write_str("request-v1");
        h.write_str(req.op.tag());
        h.write_str(req.backend.tag());
        h.write_str(req.mode.tag());
        h.write_str(&req.loop_text);
        h.write_str(&req.policy.to_string());
        h.write_f64(req.trip);
        h.write_u64(u64::from(req.threshold));
        h.write_u64(
            u64::from(req.prefetch) | u64::from(req.balanced) << 1 | u64::from(req.speculate) << 2,
        );
        h.write_u64(req.budget);
        h.write_u64(self.effective_deadline_ms(req).map_or(u64::MAX, |d| d));
        Some(h.finish())
    }

    fn cached_response(&self, req: &Request, tel: &Telemetry) -> Response {
        let key = self
            .request_key(req)
            .expect("cached_response only serves cacheable ops");
        let mut inner_tag = "miss";
        let mut job = None;
        let t0 = Instant::now();
        let (cached, hit) = self.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + req.loop_text.len() + 64,
            || {
                let resp = match req.op {
                    ReqOp::Compile => {
                        let (resp, refine) = self.compile(req, key, tel);
                        job = refine;
                        resp
                    }
                    _ => self.verify_or_oracle(req, tel),
                };
                inner_tag = resp.cache;
                CachedResult::new(resp.status, resp.body)
            },
        );
        if hit {
            // On a miss the probe time is dwarfed by (and attributed to)
            // the compile phases the closure just ran.
            if let Some(p) = tel.phases() {
                p.add_us(Phase::CacheLookup, t0.elapsed().as_micros() as u64);
            }
        } else {
            self.persist_append(key, cached.status, &cached.body);
            // A cold refining compile answered with the heuristic
            // schedule: queue its rung's async refinement, which upgrades
            // this entry (and the tier body entry) in place when it lands.
            if let Some(job) = job.filter(|_| cached.status == "ok") {
                self.schedule_refine(job);
            }
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: match (hit, cached.upgraded) {
                (true, true) => "upgraded",
                (true, false) => "hit",
                (false, _) => inner_tag,
            },
            body: cached.body.clone(),
            timings: None,
        }
    }

    /// Queues one refinement job for a cold refining compile,
    /// coalescing identical in-flight work: the first job under a
    /// refined key becomes the batch leader and takes the queue slot; a
    /// second cold compile needing the same refinement (e.g. two tiered
    /// requests for one loop at different trip estimates, whose exact
    /// schedule is the same) appends itself as a waiter instead of
    /// scheduling the computation twice — each waiter still gets its
    /// own in-place upgrade. Failure to queue (worker already shut
    /// down) is counted, never surfaced: the heuristic answer stands.
    fn schedule_refine(&self, job: RefineJob) {
        let refined_key = job.refined_key;
        let (lock, cv) = &*self.refine_pending;
        {
            let mut inflight = lock_unpoisoned(&self.refine_inflight);
            if let Some(waiters) = inflight.get_mut(&refined_key) {
                waiters.push(job);
                drop(inflight);
                self.upgrades.coalesced.fetch_add(1, Ordering::Relaxed);
                *lock_unpoisoned(lock) += 1;
                return;
            }
            inflight.insert(refined_key, vec![job]);
        }
        self.upgrades.scheduled.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(lock) += 1;
        let sent = lock_unpoisoned(&self.refine_tx)
            .as_ref()
            .is_some_and(|tx| tx.send(refined_key).is_ok());
        if !sent {
            // Shutdown race: reclaim the batch (the leader plus any
            // follower that squeezed in) — nobody will process it.
            let reclaimed = lock_unpoisoned(&self.refine_inflight)
                .remove(&refined_key)
                .map_or(0, |w| w.len() as u64);
            self.upgrades.failed.fetch_add(reclaimed, Ordering::Relaxed);
            *lock_unpoisoned(lock) -= reclaimed;
            cv.notify_all();
        }
    }

    /// Tallies and traces a response (also used by the daemon for
    /// admission-path responses: overloaded / draining / parse errors).
    pub fn finish(&self, req: &Request, resp: Response, tel: &Telemetry) -> Response {
        self.counters.bump(resp.status);
        if tel.is_enabled() {
            tel.emit(Event::ServerRequest {
                trace_id: req.id.clone(),
                op: req.op.tag(),
                status: resp.status,
                cache: resp.cache,
                loop_name: loop_name_of(&req.loop_text),
            });
        }
        resp
    }

    /// Like [`Engine::finish`] for responses produced before a
    /// [`Request`] exists (protocol parse failures): tallies the status
    /// and traces under the given op tag.
    pub fn finish_admission(
        &self,
        trace_id: &str,
        op: &'static str,
        resp: Response,
        tel: &Telemetry,
    ) -> Response {
        self.counters.bump(resp.status);
        if tel.is_enabled() {
            tel.emit(Event::ServerRequest {
                trace_id: trace_id.to_string(),
                op,
                status: resp.status,
                cache: resp.cache,
                loop_name: String::new(),
            });
        }
        resp
    }

    /// Exports both caches' counters into `tel`'s metrics registry.
    pub fn export_metrics(&self, tel: &Telemetry) {
        self.compile_cache
            .export_metrics(tel, "serve.compile_cache");
        self.result_cache.export_metrics(tel, "serve.result_cache");
        tel.counter_add(
            "serve.requests.ok",
            self.counters.ok.load(Ordering::Relaxed),
        );
        tel.counter_add(
            "serve.requests.rejected",
            self.counters.rejected.load(Ordering::Relaxed),
        );
        tel.counter_add(
            "serve.requests.error",
            self.counters.error.load(Ordering::Relaxed),
        );
        tel.counter_add(
            "serve.requests.overloaded",
            self.counters.overloaded.load(Ordering::Relaxed),
        );
    }

    fn parse(&self, req: &Request, tel: &Telemetry) -> Result<LoopIr, Response> {
        match tel.time(Phase::Parse, || parse_loop(&req.loop_text)) {
            Ok(lp) => Ok(lp),
            Err(ParseError::Syntax { line, message }) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", req.op.tag());
                push_str_field(&mut body, "error_kind", "syntax");
                push_u64_field(&mut body, "line", line as u64);
                push_str_field(&mut body, "error", &message);
                Err(Response {
                    id: req.id.clone(),
                    status: "error",
                    cache: "-",
                    body,
                    timings: None,
                })
            }
            Err(ParseError::Invalid(e)) => {
                let mut body = String::new();
                push_str_field(&mut body, "op", req.op.tag());
                push_str_field(&mut body, "error_kind", "invalid");
                push_str_field(&mut body, "error", &e.to_string());
                Err(Response {
                    id: req.id.clone(),
                    status: "error",
                    cache: "-",
                    body,
                    timings: None,
                })
            }
        }
    }

    /// The one compile answer-now path. Sync `backend:"exact"` serves
    /// the exact producer directly under its key; every other admitted
    /// request shape is a rung of [`LADDER`]: the heuristic compile,
    /// rendered with the rung's tag under the rung's body key, plus —
    /// for a rung with a producer — the refinement job that later
    /// upgrades it, carrying the inputs and keys derived here.
    fn compile(
        &self,
        req: &Request,
        raw_key: Fingerprint,
        tel: &Telemetry,
    ) -> (Response, Option<RefineJob>) {
        let shape = (req.backend, req.mode);
        let rung = LADDER.iter().find(|r| (r.backend, r.mode) == shape);
        if rung.is_none() && shape != (Backend::Exact, Mode::Static) {
            // parse_request rejects the combination; a hand-built
            // Request gets the same answer here.
            let msg = "mode 'adaptive' requires the heuristic backend";
            return (Response::error(&req.id, "error", msg), None);
        }
        let inputs = match self.parse(req, tel) {
            Ok(lp) => CompileInputs {
                lp,
                cfg: compile_config_of(req),
                trip: req.trip,
                budget: req.budget,
                deadline_ms: self.effective_deadline_ms(req),
            },
            Err(resp) => return (resp, None),
        };
        let Some(rung) = rung else {
            let key = EXACT.key.derive(&self.machine, &inputs);
            let resp = self.serve_body(req, key, || ((EXACT.run)(&self.machine, &inputs), false));
            return (resp, None);
        };
        let tier_key = rung.key.derive(&self.machine, &inputs);
        let resp = self.serve_body(req, tier_key, || {
            // Two-level: the artifact cache deduplicates the compile
            // itself, and the rendered body (kernel dump + JSON escaping,
            // the bulk of the per-hit cost for large kernels) is cached
            // under the rung's body key.
            let (compiled, artifact_hit) = compile_loop_cached(
                &self.compile_cache,
                &inputs.lp,
                &self.machine,
                &inputs.cfg,
                inputs.trip,
                tel,
            );
            let body = tel.time(Phase::Render, || {
                let mut body = String::new();
                push_schedule_header(&mut body, &compiled);
                let report = render_compile_report(&compiled, inputs.cfg.policy, inputs.trip);
                push_str_field(&mut body, "report", &report);
                if let Some((field, value)) = rung.tag {
                    push_str_field(&mut body, field, value);
                    push_bool_field(&mut body, "refined", false);
                }
                body
            });
            (CachedResult::new("ok", body), artifact_hit)
        });
        let job = rung.refine.map(|producer| RefineJob {
            producer,
            refined_key: producer.key.derive(&self.machine, &inputs),
            inputs,
            raw_key,
            loop_len: req.loop_text.len(),
            tier_key,
        });
        (resp, job)
    }

    /// Serves a compile body from the result cache under its canonical
    /// key, filling a miss with `fill` (which also reports whether it
    /// reused a compiled artifact) and persisting the fresh entry — so a
    /// formatting variant of a known loop replays to a parse-then-hit
    /// after restart, not a recompile. The cache tag: a hit on an
    /// upgraded entry is `upgraded`; any other hit, or a miss that
    /// reused an artifact, is `hit`; else `miss`.
    fn serve_body(
        &self,
        req: &Request,
        key: Fingerprint,
        fill: impl FnOnce() -> (CachedResult, bool),
    ) -> Response {
        let mut artifact_hit = false;
        let (cached, body_hit) = self.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + 32,
            || {
                let (result, hit) = fill();
                artifact_hit = hit;
                result
            },
        );
        if !body_hit {
            self.persist_append(key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: match (body_hit, cached.upgraded) {
                (true, true) => "upgraded",
                (true, false) => "hit",
                (false, _) if artifact_hit => "hit",
                (false, _) => "miss",
            },
            body: cached.body.clone(),
            timings: None,
        }
    }

    /// Verify and oracle share shape: pipeline + independent validation,
    /// oracle adds the exact-II proof. Outcomes are cached as rendered
    /// bodies keyed on the canonicalized loop and every knob that can
    /// change the answer.
    fn verify_or_oracle(&self, req: &Request, tel: &Telemetry) -> Response {
        let lp = match self.parse(req, tel) {
            Ok(lp) => lp,
            Err(resp) => return resp,
        };
        let mut h = FingerprintHasher::new();
        h.write_str(if req.op == ReqOp::Oracle {
            "oracle-v1"
        } else {
            "verify-v1"
        });
        h.write_str(&lp.to_string());
        h.write_fingerprint(Fingerprint::of_str(&format!("{:?}", self.machine)));
        if req.op == ReqOp::Oracle {
            h.write_u64(req.budget);
            h.write_u64(self.effective_deadline_ms(req).map_or(u64::MAX, |d| d));
        }
        let key = h.finish();
        let (cached, hit) = self.result_cache.get_or_insert_with(
            key,
            |r| r.body.len() + 32,
            || self.run_case(req, &lp, tel),
        );
        if !hit {
            self.persist_append(key, cached.status, &cached.body);
        }
        Response {
            id: req.id.clone(),
            status: cached.status,
            cache: if hit { "hit" } else { "miss" },
            body: cached.body.clone(),
            timings: None,
        }
    }

    fn effective_deadline_ms(&self, req: &Request) -> Option<u64> {
        match req.deadline_ms {
            Some(0) => None, // explicit 0 = no deadline
            Some(ms) => Some(ms),
            None if req.op == ReqOp::Oracle => self.cfg.oracle_deadline_ms,
            // Exact emission (sync or as tiered refinement) is bounded
            // by the same default deadline as the oracle proof.
            None if req.op == ReqOp::Compile && req.backend != Backend::Heuristic => {
                self.cfg.oracle_deadline_ms
            }
            None => None,
        }
    }

    fn run_case(&self, req: &Request, lp: &LoopIr, tel: &Telemetry) -> CachedResult {
        let opts = OracleOptions {
            node_budget: if req.op == ReqOp::Oracle {
                req.budget
            } else {
                OracleOptions::default().node_budget
            },
            time_budget: self.effective_deadline_ms(req).map(Duration::from_millis),
            ..OracleOptions::default()
        };
        let r = differential_case(lp, &self.machine, &opts, tel);
        let mut body = String::new();
        push_str_field(&mut body, "op", req.op.tag());
        push_str_field(&mut body, "loop", &r.name);
        push_bool_field(&mut body, "pipelined", r.pipelined);
        push_u64_field(&mut body, "ii", u64::from(r.heuristic_ii));
        push_violations(&mut body, &r.name, &r.violations);
        let mut report = String::new();
        let certified = r.violations.is_empty();
        let mut status: &'static str = if certified { "ok" } else { "rejected" };
        if req.op == ReqOp::Verify {
            if certified {
                let _ = writeln!(
                    report,
                    "{}: certified (II={}, {})",
                    r.name,
                    r.heuristic_ii,
                    if r.pipelined {
                        "modulo schedule"
                    } else {
                        "acyclic fallback"
                    }
                );
            }
        } else {
            match &r.verdict {
                IiVerdict::Exact {
                    optimal_ii, nodes, ..
                } => {
                    let gap = r.heuristic_ii - optimal_ii;
                    push_str_field(&mut body, "verdict", "exact");
                    push_u64_field(&mut body, "optimal_ii", u64::from(*optimal_ii));
                    push_u64_field(&mut body, "gap", u64::from(gap));
                    push_u64_field(&mut body, "nodes", *nodes);
                    let _ = writeln!(
                        report,
                        "{}: heuristic II={} optimal II={} gap={} ({} search nodes){}",
                        r.name,
                        r.heuristic_ii,
                        optimal_ii,
                        gap,
                        nodes,
                        if gap == 0 { " — proven optimal" } else { "" }
                    );
                }
                IiVerdict::BoundedUnknown {
                    proven_lower,
                    nodes,
                } => {
                    status = "rejected";
                    push_str_field(&mut body, "verdict", "bounded-unknown");
                    push_u64_field(&mut body, "proven_lower", u64::from(*proven_lower));
                    push_u64_field(&mut body, "nodes", *nodes);
                    let _ = writeln!(
                        report,
                        "{}: heuristic II={}, optimal II in [{}, {}] — budget exhausted \
                         after {} nodes",
                        r.name, r.heuristic_ii, proven_lower, r.heuristic_ii, nodes
                    );
                }
            }
        }
        push_str_field(&mut body, "report", &report);
        CachedResult::new(status, body)
    }

    fn stats_response(&self, req: &Request) -> Response {
        let mut body = String::new();
        push_str_field(&mut body, "op", "stats");
        for (key, v) in [
            ("requests_ok", self.counters.ok.load(Ordering::Relaxed)),
            (
                "requests_rejected",
                self.counters.rejected.load(Ordering::Relaxed),
            ),
            (
                "requests_error",
                self.counters.error.load(Ordering::Relaxed),
            ),
            (
                "requests_overloaded",
                self.counters.overloaded.load(Ordering::Relaxed),
            ),
        ] {
            push_u64_field(&mut body, key, v);
        }
        for (prefix, stats) in [
            ("compile_cache", self.compile_cache.stats()),
            ("result_cache", self.result_cache.stats()),
        ] {
            push_u64_field(&mut body, &format!("{prefix}_hits"), stats.hits);
            push_u64_field(&mut body, &format!("{prefix}_misses"), stats.misses);
            push_u64_field(&mut body, &format!("{prefix}_evictions"), stats.evictions);
            push_u64_field(&mut body, &format!("{prefix}_entries"), stats.entries);
            push_u64_field(&mut body, &format!("{prefix}_bytes"), stats.bytes);
        }
        for (key, v) in [
            ("persist_replayed", &self.persist_counters.replayed),
            ("persist_dropped", &self.persist_counters.dropped),
            ("persist_superseded", &self.persist_counters.superseded),
            ("persist_appended", &self.persist_counters.appended),
            (
                "persist_append_errors",
                &self.persist_counters.append_errors,
            ),
        ] {
            push_u64_field(&mut body, key, v.load(Ordering::Relaxed));
        }
        push_u64_field(
            &mut body,
            "persist_log_bytes",
            self.persist.as_deref().map_or(0, CacheLog::log_bytes),
        );
        for (key, v) in [
            ("upgrades_scheduled", &self.upgrades.scheduled),
            ("upgrades_coalesced", &self.upgrades.coalesced),
            ("upgrades_applied", &self.upgrades.applied),
            ("upgrades_refined", &self.upgrades.refined),
            ("upgrades_failed", &self.upgrades.failed),
        ] {
            push_u64_field(&mut body, key, v.load(Ordering::Relaxed));
        }
        Response {
            id: req.id.clone(),
            status: "ok",
            cache: "-",
            body,
            timings: None,
        }
    }

    /// The `{"op":"metrics"}` response: the Prometheus text snapshot
    /// escaped into a `"metrics"` string field. Bypasses every cache
    /// (like `stats`) and is excluded from the determinism contract.
    fn metrics_response(&self, req: &Request) -> Response {
        let mut body = String::new();
        push_str_field(&mut body, "op", "metrics");
        push_str_field(&mut body, "metrics", &self.render_prometheus());
        Response {
            id: req.id.clone(),
            status: "ok",
            cache: "-",
            body,
            timings: None,
        }
    }

    /// The full operational snapshot in Prometheus text format: request
    /// counters by status, cache counters and sizes, live gauges, chaos
    /// counters, and the per-phase latency histograms (cumulative
    /// `le` buckets in microseconds).
    fn render_prometheus(&self) -> String {
        let mut out = String::new();
        prom::push_type(&mut out, "ltsp_requests_total", "counter");
        for (status, v) in [
            ("ok", self.counters.ok.load(Ordering::Relaxed)),
            ("rejected", self.counters.rejected.load(Ordering::Relaxed)),
            ("error", self.counters.error.load(Ordering::Relaxed)),
            (
                "overloaded",
                self.counters.overloaded.load(Ordering::Relaxed),
            ),
            ("draining", self.counters.draining.load(Ordering::Relaxed)),
        ] {
            prom::push_sample(
                &mut out,
                "ltsp_requests_total",
                &[("status", status)],
                v as f64,
            );
        }
        let caches = [
            ("compile", self.compile_cache.stats()),
            ("result", self.result_cache.stats()),
        ];
        for (name, kind, get) in [
            (
                "ltsp_cache_hits_total",
                "counter",
                (|s| s.hits) as fn(&ltsp_cache::CacheStats) -> u64,
            ),
            ("ltsp_cache_misses_total", "counter", |s| s.misses),
            ("ltsp_cache_evictions_total", "counter", |s| s.evictions),
            ("ltsp_cache_entries", "gauge", |s| s.entries),
            ("ltsp_cache_bytes", "gauge", |s| s.bytes),
        ] {
            prom::push_type(&mut out, name, kind);
            for (cache, stats) in &caches {
                prom::push_sample(&mut out, name, &[("cache", cache)], get(stats) as f64);
            }
        }
        for (name, v) in [
            ("ltsp_queue_depth", &self.gauges.queue_depth),
            ("ltsp_inflight", &self.gauges.inflight),
            ("ltsp_connections", &self.gauges.connections),
        ] {
            prom::push_type(&mut out, name, "gauge");
            prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
        }
        for (name, v) in [
            ("ltsp_connections_shed_total", &self.gauges.conn_shed),
            ("ltsp_responses_shed_total", &self.gauges.responses_shed),
            ("ltsp_request_panics_total", &self.gauges.request_panics),
            ("ltsp_faults_injected_total", &self.gauges.faults_injected),
            (
                "ltsp_dispatcher_deaths_total",
                &self.gauges.dispatcher_deaths,
            ),
        ] {
            prom::push_type(&mut out, name, "counter");
            prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
        }
        for (name, kind, v) in [
            (
                "ltsp_persist_replayed_records",
                "gauge",
                &self.persist_counters.replayed,
            ),
            (
                "ltsp_persist_dropped_records",
                "gauge",
                &self.persist_counters.dropped,
            ),
            (
                "ltsp_persist_superseded_records",
                "gauge",
                &self.persist_counters.superseded,
            ),
            (
                "ltsp_persist_appended_total",
                "counter",
                &self.persist_counters.appended,
            ),
            (
                "ltsp_persist_append_errors_total",
                "counter",
                &self.persist_counters.append_errors,
            ),
        ] {
            prom::push_type(&mut out, name, kind);
            prom::push_sample(&mut out, name, &[], v.load(Ordering::Relaxed) as f64);
        }
        prom::push_type(&mut out, "ltsp_persist_log_bytes", "gauge");
        prom::push_sample(
            &mut out,
            "ltsp_persist_log_bytes",
            &[],
            self.persist.as_deref().map_or(0, CacheLog::log_bytes) as f64,
        );
        prom::push_type(&mut out, "ltsp_upgrades_total", "counter");
        for (event, v) in [
            ("scheduled", &self.upgrades.scheduled),
            ("coalesced", &self.upgrades.coalesced),
            ("applied", &self.upgrades.applied),
            ("refined", &self.upgrades.refined),
            ("failed", &self.upgrades.failed),
        ] {
            prom::push_sample(
                &mut out,
                "ltsp_upgrades_total",
                &[("event", event)],
                v.load(Ordering::Relaxed) as f64,
            );
        }
        prom::push_type(&mut out, "ltsp_flight_records", "gauge");
        prom::push_sample(
            &mut out,
            "ltsp_flight_records",
            &[],
            self.flight.len() as f64,
        );
        prom::push_type(&mut out, "ltsp_flight_dumps_total", "counter");
        prom::push_sample(
            &mut out,
            "ltsp_flight_dumps_total",
            &[],
            self.flight.dump_count() as f64,
        );
        prom::push_type(&mut out, "ltsp_phase_us", "histogram");
        let hists = lock_unpoisoned(&self.phase_hists);
        for (name, h) in hists.iter() {
            prom::push_histogram(&mut out, "ltsp_phase_us", &[("phase", name)], h);
        }
        out
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.refine_shutdown();
    }
}

/// Appends one record to the disk tier (shared by the engine and the
/// refinement worker). Failures are counted and logged once.
fn append_record(
    log: Option<&CacheLog>,
    counters: &PersistCounters,
    key: Fingerprint,
    status: &str,
    body: &str,
) {
    let Some(log) = log else { return };
    match log.append(key, status, body) {
        Ok(()) => {
            counters.appended.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => {
            if counters.append_errors.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "ltspd: persist append to {} failed: {e} (cache stays in-memory)",
                    log.path().display()
                );
            }
        }
    }
}

/// Pushes the schedule facts a heuristic-derived compile body opens
/// with: op, loop, pipelined, ii, stages, the MII bounds and the
/// rotating-register counts.
fn push_schedule_header(body: &mut String, compiled: &CompiledLoop) {
    push_str_field(body, "op", "compile");
    push_str_field(body, "loop", compiled.lp.name());
    push_bool_field(body, "pipelined", compiled.pipelined);
    push_u64_field(body, "ii", u64::from(compiled.kernel.ii()));
    push_u64_field(body, "stages", u64::from(compiled.kernel.stage_count()));
    if let Some(stats) = compiled.stats {
        push_u64_field(body, "res_mii", u64::from(stats.res_mii));
        push_u64_field(body, "rec_mii", u64::from(stats.rec_mii));
    }
    if let Some(regs) = compiled.regs {
        let _ = write!(
            body,
            ",\"regs\":[{},{},{}]",
            regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
        );
    }
}

/// Pushes the `violations` array: one `<loop>: violation [<kind>]: ..`
/// line per validator finding, as the CLI prints them.
fn push_violations(body: &mut String, name: &str, violations: &[Violation]) {
    body.push_str(",\"violations\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let line = format!("{name}: violation [{}]: {v}", v.kind());
        let _ = write!(body, "\"{}\"", ltsp_telemetry::json::escape(&line));
    }
    body.push(']');
}

/// Runs the adaptive refinement loop to its certified fixpoint and
/// renders the converged compile body: the chosen schedule's facts plus
/// the adaptive telemetry (`static_ii`, `rounds`, `chosen_round`,
/// `converged`, `certified`, `dropped_prefetches`, `refined`) and the
/// canonical [`render_adaptive_report`] text — the same renderer
/// `ltspc compile --adaptive` prints through, so the upgraded server
/// bytes and the local CLI report agree by construction. An uncertified
/// round (a scheduler bug by definition) renders as `rejected`, and the
/// fast static tier stays in place.
fn compute_adaptive_body(machine: &MachineModel, c: &CompileInputs) -> CachedResult {
    let res = compile_loop_adaptive(
        &c.lp,
        machine,
        &c.cfg,
        c.trip,
        &AdaptiveOptions::default(),
        &Telemetry::disabled(),
    );
    let certified = res.all_certified();
    let improved = res.ii() < res.static_ii();
    let mut body = String::new();
    push_schedule_header(&mut body, &res.compiled);
    push_str_field(&mut body, "mode", "adaptive");
    push_u64_field(&mut body, "static_ii", u64::from(res.static_ii()));
    push_u64_field(&mut body, "rounds", res.rounds.len() as u64);
    push_u64_field(&mut body, "chosen_round", u64::from(res.chosen_round));
    push_bool_field(&mut body, "converged", res.converged);
    push_bool_field(&mut body, "certified", certified);
    push_u64_field(
        &mut body,
        "dropped_prefetches",
        res.chosen().overlay.dropped_prefetches() as u64,
    );
    push_bool_field(&mut body, "refined", improved);
    push_str_field(
        &mut body,
        "report",
        &render_adaptive_report(&res, c.cfg.policy, c.trip),
    );
    let status = if certified { "ok" } else { "rejected" };
    CachedResult {
        improved,
        ..CachedResult::new(status, body)
    }
}

/// Runs the exact backend on the loop and renders the compile body it
/// produces: the emitted schedule's facts plus the refinement telemetry
/// (`heuristic_ii`, `proven_optimal`, `refined`, `nodes`). A rejected
/// case (validator violations — a real bug somewhere) renders the
/// violations like the oracle op does.
fn compute_exact_body(machine: &MachineModel, c: &CompileInputs) -> CachedResult {
    let opts = OracleOptions {
        node_budget: c.budget,
        time_budget: c.deadline_ms.map(Duration::from_millis),
        ..OracleOptions::default()
    };
    let mut body = String::new();
    push_str_field(&mut body, "op", "compile");
    match exact_case(&c.lp, machine, &opts) {
        Ok(case) => {
            let r = &case.result;
            push_str_field(&mut body, "loop", &case.name);
            // A refined schedule is a genuine modulo schedule even when
            // the heuristic had fallen back to the acyclic path.
            push_bool_field(&mut body, "pipelined", case.pipelined || r.refined);
            push_u64_field(&mut body, "ii", u64::from(r.schedule.ii()));
            push_u64_field(&mut body, "stages", u64::from(r.schedule.stage_count()));
            push_str_field(&mut body, "backend", "exact");
            push_u64_field(&mut body, "heuristic_ii", u64::from(case.heuristic_ii));
            push_bool_field(&mut body, "proven_optimal", r.proven_optimal);
            push_bool_field(&mut body, "refined", r.refined);
            push_u64_field(&mut body, "nodes", r.nodes);
            let _ = write!(
                body,
                ",\"regs\":[{},{},{}]",
                r.regs.rotating_gr, r.regs.rotating_fr, r.regs.rotating_pr
            );
            push_str_field(&mut body, "report", &render_exact_report(&c.lp, &case));
            CachedResult {
                improved: r.refined,
                ..CachedResult::new("ok", body)
            }
        }
        Err(violations) => {
            push_str_field(&mut body, "loop", c.lp.name());
            push_str_field(&mut body, "backend", "exact");
            push_violations(&mut body, c.lp.name(), &violations);
            CachedResult::new("rejected", body)
        }
    }
}

/// The compile configuration a request's knobs select — the only place
/// the engine builds one.
fn compile_config_of(req: &Request) -> CompileConfig {
    CompileConfig::new(req.policy)
        .with_threshold(req.threshold)
        .with_prefetch(req.prefetch)
        .with_balanced_recurrences(req.balanced)
        .with_data_speculation(req.speculate)
}

/// Processes one coalesced refinement batch: compute (or reuse) the
/// refined body *once* under the batch's refined key, then swap every
/// waiter's raw-request and tier body-key entries to it in place —
/// each insert replaces a whole `Arc`'d value, so readers observe
/// heuristic bytes or refined bytes, never a torn mix — and append the
/// upgrades under their keys so a warm restart replays the refined
/// bytes (last-writer-wins). The refined key covers every input of the
/// refined body, so the first job's inputs are the batch's.
fn refine_batch(sh: &RefineShared, jobs: &[RefineJob]) {
    let Some(first) = jobs.first() else { return };
    let (refined, refined_hit) = sh.result_cache.get_or_insert_with(
        first.refined_key,
        |r| r.body.len() + 32,
        || (first.producer.run)(&sh.machine, &first.inputs),
    );
    let append = |key, r: &CachedResult| {
        append_record(
            sh.persist.as_deref(),
            &sh.persist_counters,
            key,
            r.status,
            &r.body,
        )
    };
    if !refined_hit {
        append(first.refined_key, &refined);
    }
    if refined.status != "ok" {
        sh.upgrades
            .failed
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        return;
    }
    for job in jobs {
        let up = CachedResult {
            upgraded: true,
            ..(*refined).clone()
        };
        let bytes = up.body.len();
        sh.result_cache
            .insert(job.raw_key, up.clone(), bytes + job.loop_len + 64);
        sh.result_cache.insert(job.tier_key, up, bytes + 32);
        // Second appends under both keys: the in-place upgrade, durably.
        append(job.raw_key, &refined);
        append(job.tier_key, &refined);
        sh.upgrades.applied.fetch_add(1, Ordering::Relaxed);
        if refined.improved {
            sh.upgrades.refined.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Maps a replayed status string back onto the engine's static status
/// vocabulary. Unknown strings (possible only via a hand-edited log)
/// degrade to `error` rather than inventing a status.
fn intern_status(s: &str) -> &'static str {
    match s {
        "ok" => "ok",
        "rejected" => "rejected",
        _ => "error",
    }
}

/// Best-effort loop name extraction for telemetry on requests that fail
/// before parsing completes: the token after the leading `loop` keyword.
fn loop_name_of(text: &str) -> String {
    let mut it = text.split_whitespace();
    match (it.next(), it.next()) {
        (Some("loop"), Some(name)) => name.trim_end_matches('{').to_string(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;
    use ltsp_telemetry::json;

    fn req(line: &str) -> Request {
        parse_request(line).unwrap()
    }

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    fn loop_json(name: &str) -> String {
        json::escape(&ltsp_workloads::saxpy(name).to_string())
    }

    /// Every refinement job ends applied or failed: once the queue is
    /// idle, jobs scheduled or coalesced equal jobs applied or failed.
    fn assert_upgrades_balance(e: &Engine) {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let u = &e.upgrades;
        assert_eq!(
            n(&u.scheduled) + n(&u.coalesced),
            n(&u.applied) + n(&u.failed),
            "{u:?}"
        );
    }

    fn bool_of(v: &json::JsonValue, key: &str) -> bool {
        match v.get(key) {
            Some(json::JsonValue::Bool(b)) => *b,
            other => panic!("{key}: expected a bool, got {other:?}"),
        }
    }

    #[test]
    fn compile_misses_then_hits_with_identical_bytes() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"c1","loop":"{}"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        let warm = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok");
        assert_eq!(cold.cache, "miss");
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.body, warm.body, "hit body identical to cold body");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("compile"));
        assert!(v.get("ii").unwrap().as_u64().unwrap() >= 1);
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("pipelined: II="));
    }

    #[test]
    fn config_knobs_split_the_compile_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let a = format!(r#"{{"op":"compile","loop":"{}"}}"#, loop_json("s"));
        let b = format!(
            r#"{{"op":"compile","loop":"{}","policy":"baseline"}}"#,
            loop_json("s")
        );
        assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
        assert_eq!(
            e.handle(&req(&b), &tel).cache,
            "miss",
            "policy changes the key"
        );
        assert_eq!(e.handle(&req(&a), &tel).cache, "hit");
    }

    #[test]
    fn verify_certifies_and_caches() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(r#"{{"op":"verify","loop":"{}"}}"#, loop_json("s"));
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok");
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("certified (II="));
        assert_eq!(v.get("violations").unwrap().as_array().unwrap().len(), 0);
        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.body, warm.body);
    }

    #[test]
    fn oracle_reports_verdict_and_respects_zero_deadline() {
        let e = engine();
        let tel = Telemetry::disabled();
        // deadline_ms:0 = unlimited, so the node budget decides.
        let line = format!(
            r#"{{"op":"oracle","loop":"{}","budget":200000,"deadline_ms":0}}"#,
            loop_json("s")
        );
        let r = e.handle(&req(&line), &tel);
        assert_eq!(r.status, "ok", "{}", r.render());
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("exact"));
        assert_eq!(v.get("gap").unwrap().as_u64(), Some(0));
    }

    /// A loop past the oracle's `max_insts` gate (24): the verdict is
    /// deterministically `BoundedUnknown` with zero search nodes.
    fn oversized_loop_json() -> String {
        let mut b = ltsp_ir::LoopBuilder::new("big");
        for k in 0..30u64 {
            let r = b.affine_ref(&format!("p{k}"), ltsp_ir::DataClass::Int, k << 22, 4, 4);
            let _ = b.load(r);
        }
        json::escape(&b.build().unwrap().to_string())
    }

    #[test]
    fn oracle_beyond_proof_reach_is_rejected_not_hung() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"oracle","loop":"{}","deadline_ms":0}}"#,
            oversized_loop_json()
        );
        let r = e.handle(&req(&line), &tel);
        assert_eq!(r.status, "rejected");
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("bounded-unknown"));
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("budget exhausted"));
    }

    #[test]
    fn oracle_budget_splits_the_result_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let a = format!(
            r#"{{"op":"oracle","loop":"{}","budget":200000,"deadline_ms":0}}"#,
            loop_json("s")
        );
        let b = format!(
            r#"{{"op":"oracle","loop":"{}","budget":7,"deadline_ms":0}}"#,
            loop_json("s")
        );
        assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
        let rb = e.handle(&req(&b), &tel);
        assert_eq!(rb.cache, "miss", "budget changes the key");
        assert_eq!(e.handle(&req(&a), &tel).cache, "hit", "no cross-budget hit");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = engine();
        let tel = Telemetry::disabled();
        let r = e.handle(
            &req(r#"{"op":"compile","id":"x","loop":"loop b {\n  junk\n}"}"#),
            &tel,
        );
        assert_eq!(r.status, "error");
        let v = json::parse(&r.render()).unwrap();
        assert_eq!(v.get("error_kind").unwrap().as_str(), Some("syntax"));
        assert_eq!(v.get("line").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn requests_emit_trace_events_and_counters() {
        let e = engine();
        let tel = Telemetry::enabled();
        let line = format!(
            r#"{{"op":"verify","id":"t-9","loop":"{}"}}"#,
            loop_json("s")
        );
        e.handle(&req(&line), &tel);
        let events = tel.events();
        let ev = events
            .iter()
            .find(|e| e.event.kind() == "server_request")
            .expect("server_request event");
        let rendered = format!("{:?}", ev.event);
        assert!(rendered.contains("t-9"), "{rendered}");
        assert_eq!(e.counters.ok.load(Ordering::Relaxed), 1);
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(v.get("requests_ok").unwrap().as_u64(), Some(1));
        // A cold verify misses twice: once on the raw-request key, once
        // on the canonical verify key.
        assert_eq!(v.get("result_cache_misses").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn exact_backend_compiles_with_optimality_telemetry() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"x1","loop":"{}","backend":"exact"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok", "{}", cold.render());
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(v.get("backend").unwrap().as_str(), Some("exact"));
        assert!(bool_of(&v, "proven_optimal"));
        let ii = v.get("ii").unwrap().as_u64().unwrap();
        let heur = v.get("heuristic_ii").unwrap().as_u64().unwrap();
        assert!(ii <= heur, "exact II never above the heuristic's");
        assert!(v
            .get("report")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("backend=exact"));
        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "hit");
        assert_eq!(cold.body, warm.body);
    }

    #[test]
    fn backend_splits_the_request_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let heur = format!(r#"{{"op":"compile","loop":"{}"}}"#, loop_json("s"));
        let exact = format!(
            r#"{{"op":"compile","loop":"{}","backend":"exact"}}"#,
            loop_json("s")
        );
        assert_eq!(e.handle(&req(&heur), &tel).cache, "miss");
        assert_eq!(
            e.handle(&req(&exact), &tel).cache,
            "miss",
            "backend changes the key"
        );
        assert_eq!(e.handle(&req(&heur), &tel).cache, "hit");
    }

    #[test]
    fn tiered_compile_answers_heuristically_then_upgrades_in_place() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"t1","loop":"{}","backend":"tiered"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok", "{}", cold.render());
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(
            v.get("backend").unwrap().as_str(),
            Some("tiered"),
            "initial answer is the heuristic tier"
        );
        assert!(!bool_of(&v, "refined"));

        e.refine_wait_idle();
        assert_upgrades_balance(&e);
        assert_eq!(e.upgrades.scheduled.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.applied.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.failed.load(Ordering::Relaxed), 0);

        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "upgraded", "hit on an upgraded entry");
        assert_ne!(warm.body, cold.body, "bytes were upgraded in place");
        let v = json::parse(&warm.render()).unwrap();
        assert_eq!(v.get("backend").unwrap().as_str(), Some("exact"));
        assert!(bool_of(&v, "proven_optimal"));

        // The upgraded bytes ARE the exact backend's bytes: a sync exact
        // request for the same loop returns the identical body.
        let exact_line = format!(
            r#"{{"op":"compile","id":"t2","loop":"{}","backend":"exact"}}"#,
            loop_json("s")
        );
        let exact = e.handle(&req(&exact_line), &tel);
        assert_eq!(exact.body, warm.body, "upgrade == exact, byte for byte");
    }

    #[test]
    fn tiered_upgrade_survives_warm_restart_with_zero_misses() {
        let dir =
            std::env::temp_dir().join(format!("ltsp-engine-tiered-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let cfg = || EngineConfig {
            persist_path: Some(path.clone()),
            ..EngineConfig::default()
        };
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"t1","loop":"{}","backend":"tiered"}}"#,
            loop_json("s")
        );
        let upgraded_body = {
            let e = Engine::new(cfg());
            e.handle(&req(&line), &tel);
            e.refine_wait_idle();
            let warm = e.handle(&req(&line), &tel);
            assert_eq!(warm.cache, "upgraded");
            warm.body
        };
        // Warm restart: replay must collapse the duplicate-key appends
        // to the upgraded bytes (last-writer-wins) and serve them as
        // hits — no recompiles, no resurrections of the heuristic body.
        let e = Engine::new(cfg());
        assert!(
            e.persist_counters.superseded.load(Ordering::Relaxed) >= 2,
            "raw and tiered keys were each appended twice"
        );
        let replayed = e.handle(&req(&line), &tel);
        assert_eq!(replayed.cache, "hit", "replayed entries serve as hits");
        assert_eq!(replayed.body, upgraded_body, "upgraded bytes replay");
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(
            v.get("result_cache_misses").unwrap().as_u64(),
            Some(0),
            "zero misses after a post-upgrade warm restart"
        );
    }

    #[test]
    fn mode_splits_the_request_key() {
        let e = engine();
        let tel = Telemetry::disabled();
        let stat = format!(r#"{{"op":"compile","loop":"{}"}}"#, loop_json("s"));
        let adpt = format!(
            r#"{{"op":"compile","loop":"{}","mode":"adaptive"}}"#,
            loop_json("s")
        );
        let rs = e.handle(&req(&stat), &tel);
        assert_eq!(rs.cache, "miss");
        // The adaptive request reuses the compiled artifact (a "hit")
        // but renders through its own keys: mode-stamped body, never
        // the static entry's bytes.
        let ra = e.handle(&req(&adpt), &tel);
        assert_ne!(ra.body, rs.body, "mode changes the key");
        assert!(ra.body.contains("\"mode\":\"adaptive\""));
        assert!(!rs.body.contains("\"mode\""));
        // And the refine worker's upgrade lands only on the adaptive
        // entries — the static bytes are untouched.
        e.refine_wait_idle();
        let rs2 = e.handle(&req(&stat), &tel);
        assert_eq!(rs2.cache, "hit");
        assert_eq!(rs2.body, rs.body, "static entry survives the upgrade");
        assert_eq!(e.handle(&req(&adpt), &tel).cache, "upgraded");
    }

    #[test]
    fn adaptive_compile_answers_statically_then_upgrades_in_place() {
        let e = engine();
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"a1","loop":"{}","mode":"adaptive"}}"#,
            loop_json("s")
        );
        let cold = e.handle(&req(&line), &tel);
        assert_eq!(cold.status, "ok", "{}", cold.render());
        assert_eq!(cold.cache, "miss");
        let v = json::parse(&cold.render()).unwrap();
        assert_eq!(
            v.get("mode").unwrap().as_str(),
            Some("adaptive"),
            "initial answer is stamped with the mode"
        );
        assert!(!bool_of(&v, "refined"), "first answer is the static tier");
        let static_ii = v.get("ii").unwrap().as_u64().unwrap();

        e.refine_wait_idle();
        assert_upgrades_balance(&e);
        assert_eq!(e.upgrades.scheduled.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.applied.load(Ordering::Relaxed), 1);
        assert_eq!(e.upgrades.failed.load(Ordering::Relaxed), 0);
        assert_eq!(e.upgrades.refined.load(Ordering::Relaxed), 1);

        let warm = e.handle(&req(&line), &tel);
        assert_eq!(warm.cache, "upgraded", "hit on an upgraded entry");
        assert_ne!(warm.body, cold.body, "bytes were upgraded in place");
        let v = json::parse(&warm.render()).unwrap();
        assert_eq!(v.get("mode").unwrap().as_str(), Some("adaptive"));
        assert!(
            bool_of(&v, "refined"),
            "converged schedule beat the static II"
        );
        assert!(
            bool_of(&v, "certified"),
            "every round was validator-certified"
        );
        assert!(bool_of(&v, "converged"));
        let adaptive_ii = v.get("ii").unwrap().as_u64().unwrap();
        assert!(adaptive_ii < static_ii, "{adaptive_ii} vs {static_ii}");
        let report = v.get("report").unwrap().as_str().unwrap();
        assert!(report.contains("mode=adaptive"), "{report}");
        assert!(report.contains("round 0: II="), "round trace in the report");
    }

    #[test]
    fn adaptive_upgrade_survives_warm_restart_with_zero_misses() {
        let dir = std::env::temp_dir().join(format!(
            "ltsp-engine-adaptive-restart-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let cfg = || EngineConfig {
            persist_path: Some(path.clone()),
            ..EngineConfig::default()
        };
        let tel = Telemetry::disabled();
        let line = format!(
            r#"{{"op":"compile","id":"a1","loop":"{}","mode":"adaptive"}}"#,
            loop_json("s")
        );
        let upgraded_body = {
            let e = Engine::new(cfg());
            e.handle(&req(&line), &tel);
            e.refine_wait_idle();
            let warm = e.handle(&req(&line), &tel);
            assert_eq!(warm.cache, "upgraded");
            warm.body
        };
        // Warm restart: the LWW replay collapses the duplicate-key
        // appends to the converged adaptive bytes and serves them as
        // hits — no recompiles, no resurrection of the static body.
        let e = Engine::new(cfg());
        assert!(
            e.persist_counters.superseded.load(Ordering::Relaxed) >= 2,
            "raw and adaptive-tier keys were each appended twice"
        );
        let replayed = e.handle(&req(&line), &tel);
        assert_eq!(replayed.cache, "hit", "replayed entries serve as hits");
        assert_eq!(replayed.body, upgraded_body, "adaptive bytes replay");
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(
            v.get("result_cache_misses").unwrap().as_u64(),
            Some(0),
            "zero misses after a post-upgrade warm restart"
        );
        let log_bytes = v.get("persist_log_bytes").unwrap().as_u64().unwrap();
        assert_eq!(
            log_bytes,
            std::fs::metadata(&path).unwrap().len(),
            "the gauge tracks the on-disk log size"
        );
    }

    #[test]
    fn persist_warning_latches_once_past_the_threshold() {
        let dir =
            std::env::temp_dir().join(format!("ltsp-engine-persist-warn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let e = Engine::new(EngineConfig {
            persist_path: Some(path.clone()),
            persist_warn_bytes: Some(1), // any append crosses it
            ..EngineConfig::default()
        });
        let tel = Telemetry::disabled();
        assert!(
            !e.persist_warned.load(Ordering::Relaxed),
            "an empty log is under the threshold"
        );
        let line = |id: &str| {
            format!(
                r#"{{"op":"compile","id":"{id}","loop":"{}"}}"#,
                loop_json("s")
            )
        };
        e.handle(&req(&line("w1")), &tel);
        assert!(
            e.persist_warned.load(Ordering::Relaxed),
            "the first append past the threshold trips the warning"
        );
        // A generous threshold never warns.
        let _ = std::fs::remove_file(&path);
        let quiet = Engine::new(EngineConfig {
            persist_path: Some(path),
            persist_warn_bytes: Some(1 << 30),
            ..EngineConfig::default()
        });
        quiet.handle(&req(&line("w2")), &tel);
        assert!(!quiet.persist_warned.load(Ordering::Relaxed));
    }

    #[test]
    fn coalesced_refines_run_once_and_upgrade_every_waiter() {
        let e = engine();
        let tel = Telemetry::disabled();
        // Same loop text and budget, different trip estimates: distinct
        // raw and tiered keys, but one shared exact refinement.
        let a = format!(
            r#"{{"op":"compile","id":"c1","loop":"{}","backend":"tiered","trip":100}}"#,
            loop_json("s")
        );
        let b = format!(
            r#"{{"op":"compile","id":"c2","loop":"{}","backend":"tiered","trip":200}}"#,
            loop_json("s")
        );
        // A whitespace-only variant of `a`: its own raw key, but the
        // same canonical loop — so the same tier body and refinement.
        let spaced = ltsp_workloads::saxpy("s")
            .to_string()
            .replace('\n', "  \n\n");
        let c = format!(
            r#"{{"op":"compile","id":"c3","loop":"{}","backend":"tiered","trip":100}}"#,
            json::escape(&spaced)
        );
        {
            let _gate = e.refine_pause();
            assert_eq!(e.handle(&req(&a), &tel).cache, "miss");
            assert_eq!(e.handle(&req(&b), &tel).cache, "miss");
            assert_eq!(e.handle(&req(&c), &tel).cache, "hit", "tier body hit");
        }
        e.refine_wait_idle();
        assert_upgrades_balance(&e);
        assert_eq!(
            e.upgrades.scheduled.load(Ordering::Relaxed),
            1,
            "one leader queued"
        );
        assert_eq!(
            e.upgrades.coalesced.load(Ordering::Relaxed),
            2,
            "the trip and whitespace variants coalesced onto it"
        );
        assert_eq!(
            e.upgrades.applied.load(Ordering::Relaxed),
            3,
            "every waiter was upgraded"
        );
        assert_eq!(e.upgrades.failed.load(Ordering::Relaxed), 0);
        for line in [&a, &b, &c] {
            let warm = e.handle(&req(line), &tel);
            assert_eq!(warm.cache, "upgraded", "{}", warm.render());
        }
        let stats = e.handle(&req(r#"{"op":"stats"}"#), &tel);
        let v = json::parse(&stats.render()).unwrap();
        assert_eq!(v.get("upgrades_coalesced").unwrap().as_u64(), Some(2));
    }

    /// Persist logs written by earlier builds must keep replaying: every
    /// key the engine appends — the raw `request-v1` key and each
    /// `compile-body-*` namespace — is pinned here, in append order, for
    /// one fixed loop served heuristic, tiered, exact and adaptive.
    #[test]
    fn persisted_cache_keys_are_pinned() {
        let dir = std::env::temp_dir().join(format!("ltsp-engine-key-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);
        let tel = Telemetry::disabled();
        {
            let e = Engine::new(EngineConfig {
                persist_path: Some(path.clone()),
                ..EngineConfig::default()
            });
            for knobs in [
                "",
                r#","backend":"tiered""#,
                r#","backend":"exact""#,
                r#","mode":"adaptive""#,
            ] {
                let line = format!(r#"{{"op":"compile","loop":"{}"{knobs}}}"#, loop_json("s"));
                assert_eq!(e.handle(&req(&line), &tel).status, "ok");
                e.refine_wait_idle();
            }
        }
        let (_, report) = CacheLog::open(&path).unwrap();
        let keys: Vec<String> = report.records.iter().map(|r| r.key.to_string()).collect();
        let pinned = [
            ("compile-body-v1", "3a80e9878d5956e0354d9d41e32e1eec"),
            ("request-v1 heuristic", "d02c9ecd7a10e8db02c7bc7263f4bca1"),
            ("compile-body-tiered-v1", "f0411670c3258c0a73f47efd79104245"),
            ("request-v1 tiered", "9828af8793b3c6efe552a279fb9dbe2f"),
            ("compile-body-exact-v1", "cbfc67ec3628a2d21c80410fe1f40e64"),
            (
                "request-v1 tiered, upgraded",
                "9828af8793b3c6efe552a279fb9dbe2f",
            ),
            (
                "compile-body-tiered-v1, upgraded",
                "f0411670c3258c0a73f47efd79104245",
            ),
            ("request-v1 exact", "d84c3167368a4d03d7d49c2185c88e07"),
            (
                "compile-body-adaptive-tier-v1",
                "85626479f6382925d808c6194aab7634",
            ),
            ("request-v1 adaptive", "fae1437ae68a84fc77fa613dd3d6713d"),
            (
                "compile-body-adaptive-v1",
                "6cf7686fe5833d7c725d27ca8c1d196b",
            ),
            (
                "request-v1 adaptive, upgraded",
                "fae1437ae68a84fc77fa613dd3d6713d",
            ),
            (
                "compile-body-adaptive-tier-v1, upgraded",
                "85626479f6382925d808c6194aab7634",
            ),
        ];
        assert_eq!(
            keys,
            pinned.map(|(_, k)| k.to_string()),
            "appended keys, in order: {:?}",
            pinned.map(|(ns, _)| ns)
        );
    }

    #[test]
    fn loop_names_extract_for_telemetry() {
        assert_eq!(loop_name_of("loop saxpy {\n}"), "saxpy");
        assert_eq!(loop_name_of("loop x{ }"), "x");
        assert_eq!(loop_name_of("not a loop"), "");
    }
}

#[cfg(test)]
mod warmprof {
    use super::*;
    use crate::proto::parse_request;
    use ltsp_telemetry::Telemetry;

    #[test]
    #[ignore]
    fn warm_profile() {
        let mut b = ltsp_ir::LoopBuilder::new("syn0");
        let c0 = b.live_in_fr("c0");
        let c1 = b.live_in_fr("c1");
        for s in 0..3u64 {
            let x = b.affine_ref(
                &format!("x{s}[i]"),
                ltsp_ir::DataClass::Fp,
                (s + 1) << 24,
                8,
                8,
            );
            let v = b.load(x);
            let mut t = b.fma(c0, v, c1);
            for _ in 0..12 {
                t = b.fma(c0, t, c1);
                t = b.fmul(t, t);
            }
            let y = b.affine_ref(
                &format!("y{s}[i]"),
                ltsp_ir::DataClass::Fp,
                ((s + 1) << 24) + (1 << 20),
                8,
                8,
            );
            b.store(y, t);
        }
        let lp = b.build().unwrap();
        let text = lp.to_string();
        let line = format!(
            "{{\"op\":\"compile\",\"id\":\"p\",\"loop\":\"{}\"}}",
            ltsp_telemetry::json::escape(&text)
        );
        let tel = Telemetry::disabled();
        let engine = Engine::new(EngineConfig::default());
        let req = parse_request(&line).unwrap();
        let r = engine.handle(&req, &tel);
        eprintln!("body bytes: {}", r.body.len());
        let t0 = std::time::Instant::now();
        let n = 2000;
        for _ in 0..n {
            let req = parse_request(&line).unwrap();
            let _ = engine.handle(&req, &tel);
        }
        eprintln!("warm handle+parse: {:?}/iter", t0.elapsed() / n);
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            let _ = parse_request(&line).unwrap();
        }
        eprintln!("parse_request alone: {:?}/iter", t0.elapsed() / n);
        let t0 = std::time::Instant::now();
        for _ in 0..n {
            let lp2 = ltsp_ir::parse_loop(&text).unwrap();
            std::hint::black_box(lp2.to_string());
        }
        eprintln!("loop parse+tostring: {:?}/iter", t0.elapsed() / n);
    }
}
