//! The in-order, stall-on-use executor for kernel schedules.

use std::collections::{HashMap, VecDeque};

use ltsp_ir::{DataClass, LoopIr, MemRefId, Opcode, VReg};
use ltsp_machine::MachineModel;
use ltsp_pipeliner::ModuloSchedule;

use crate::cache::MemorySystem;
use crate::counters::CycleCounters;
use crate::ozq::Ozq;
use crate::streams::{AddressStreams, StreamMode};

/// Fixed-cost knobs of the execution model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Seed for the deterministic address streams.
    pub seed: u64,
    /// Whether streams replay or progress across loop entries.
    pub stream_mode: StreamMode,
    /// Front-end bubble charged once per loop entry.
    pub fe_entry_bubble: u32,
    /// Flush bubble charged at loop exit (branch mispredict).
    pub flush_exit_bubble: u32,
    /// RSE traffic: one bubble cycle per `rse_regs_per_cycle` registers the
    /// loop allocates, charged per entry (register stack spill/fill).
    pub rse_regs_per_cycle: u32,
    /// Probability that a compare (`cmp`/`fcmp`/`tbit`) produces a true
    /// predicate in a given iteration; drives predicated (if-converted)
    /// instructions. Deterministic per (instruction, iteration).
    pub cmp_taken_prob: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            seed: 0x1517_CAFE,
            stream_mode: StreamMode::Progressive,
            fe_entry_bubble: 2,
            flush_exit_bubble: 6,
            rse_regs_per_cycle: 4,
            cmp_taken_prob: 0.5,
        }
    }
}

/// Precomputed per-instruction execution recipe.
#[derive(Debug, Clone)]
struct ExecInst {
    id: u32,
    stage: u32,
    op: Opcode,
    dst: Option<VReg>,
    srcs: Vec<(VReg, u32, bool)>, // (reg, omega, has_def_in_loop)
    mem: Option<MemRefId>,
    latency: u32, // non-load result latency
    /// Qualifying predicate: (register, omega, negated).
    qp: Option<(VReg, u32, bool)>,
}

/// Executes a pipelined (or acyclic-fallback) loop schedule against the
/// simulated memory system, accumulating [`CycleCounters`].
///
/// Cache, TLB and OzQ state persist across [`Executor::run_entry`] calls,
/// modelling repeated executions of the same loop within a benchmark.
///
/// # Example
///
/// ```
/// use ltsp_ir::{DataClass, LoopBuilder};
/// use ltsp_machine::MachineModel;
/// use ltsp_memsim::{Executor, ExecutorConfig};
/// use ltsp_pipeliner::{pipeline_loop, PipelineOptions};
/// use ltsp_telemetry::Telemetry;
///
/// let mut b = LoopBuilder::new("ex");
/// let a = b.affine_ref("a[i]", DataClass::Int, 0x1000, 4, 4);
/// let v = b.load(a);
/// let _ = b.add_reduce(v);
/// let lp = b.build()?;
/// let m = MachineModel::itanium2();
/// let p = pipeline_loop(&lp, &m, &|_| None, &PipelineOptions::default(), &Telemetry::disabled()).unwrap();
///
/// let mut ex = Executor::new(&lp, &p.schedule, &m, 8, ExecutorConfig::default());
/// ex.run_entry(100);
/// let c = ex.counters();
/// assert_eq!(c.source_iters, 100);
/// assert!(c.is_consistent());
/// # Ok::<(), ltsp_ir::IrError>(())
/// ```
/// Where one memory reference's demand loads were actually served from —
/// the per-load observation record the adaptive-hint loop feeds back into
/// the compiler. The access/latency/level counts are demand accesses;
/// software prefetches are tallied separately (`prefetches`, and how many
/// were redundant). `merged` accesses piggy-backed on an in-flight miss
/// and are excluded from the per-level counts, exactly as in
/// [`CycleCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefObservation {
    /// Demand accesses issued through this reference.
    pub accesses: u64,
    /// Sum of observed latencies (cycles) across those accesses.
    pub latency_sum: u64,
    /// Accesses served by the L1D.
    pub l1: u64,
    /// Accesses served by the L2.
    pub l2: u64,
    /// Accesses served by the L3.
    pub l3: u64,
    /// Accesses served by memory.
    pub mem: u64,
    /// Accesses merged into an already-in-flight miss.
    pub merged: u64,
    /// Software prefetches issued for this reference.
    pub prefetches: u64,
    /// Prefetches that found the line already cache-resident (in the L2
    /// or closer, or covered by an in-flight fill about to land) — the
    /// prefetch was pure issue-slot cost.
    pub redundant_prefetches: u64,
}

impl RefObservation {
    /// Mean observed latency in cycles, or `None` with no accesses.
    pub fn avg_latency(&self) -> Option<f64> {
        (self.accesses > 0).then(|| self.latency_sum as f64 / self.accesses as f64)
    }
}

#[derive(Debug)]
pub struct Executor<'a> {
    lp: &'a LoopIr,
    machine: &'a MachineModel,
    /// One `(rows, stage_count, regs_allocated)` per kernel version
    /// (trip-count versioning keeps a base and a boosted kernel for the
    /// same loop body, each with its own register frame).
    versions: Vec<(Vec<Vec<ExecInst>>, u32, u32)>,
    mem: MemorySystem,
    ozq: Ozq,
    streams: AddressStreams,
    counters: CycleCounters,
    now: u64,
    /// Per-register ready times for recent source iterations.
    ready: HashMap<VReg, VecDeque<(i64, u64)>>,
    /// Predicate values for recent source iterations.
    pred_vals: HashMap<VReg, VecDeque<(i64, bool)>>,
    cfg: ExecutorConfig,
    /// Per-memref observed service levels and demand latencies (the
    /// miss-sampling and adaptive-hint feedback signal).
    ref_obs: Vec<RefObservation>,
    /// Observational telemetry sink; disabled by default. The simulation
    /// never reads it, so cycle counts are bit-identical either way.
    telemetry: ltsp_telemetry::Telemetry,
}

impl<'a> Executor<'a> {
    /// Builds an executor for one compiled loop.
    ///
    /// `regs_allocated` is the total register count the register allocator
    /// assigned (rotating + static across classes); it drives the
    /// register-stack-engine cost model.
    pub fn new(
        lp: &'a LoopIr,
        sched: &ModuloSchedule,
        machine: &'a MachineModel,
        regs_allocated: u32,
        cfg: ExecutorConfig,
    ) -> Self {
        Self::new_versioned(lp, &[(sched, regs_allocated)], machine, cfg)
    }

    /// Builds an executor holding several alternative kernels for the same
    /// loop body (trip-count versioning, the paper's Sec. 6 outlook): all
    /// versions share the memory system, scoreboard and address streams;
    /// [`Executor::run_entry_version`] picks the kernel per entry.
    ///
    /// Each version pairs its schedule with its allocated register count
    /// (versions carry their own register frames, so RSE traffic is
    /// charged per the version actually run).
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty.
    pub fn new_versioned(
        lp: &'a LoopIr,
        versions: &[(&ModuloSchedule, u32)],
        machine: &'a MachineModel,
        cfg: ExecutorConfig,
    ) -> Self {
        assert!(!versions.is_empty(), "at least one kernel version required");
        let defined: std::collections::HashSet<VReg> =
            lp.insts().iter().filter_map(|i| i.dst()).collect();
        let build_rows = |sched: &ModuloSchedule| -> Vec<Vec<ExecInst>> {
            sched
                .rows()
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|slot| {
                            let inst = lp.inst(slot.inst);
                            ExecInst {
                                id: slot.inst.0,
                                stage: slot.stage,
                                op: inst.op(),
                                dst: inst.dst(),
                                srcs: inst
                                    .reads()
                                    .map(|s| (s.reg, s.omega, defined.contains(&s.reg)))
                                    .collect(),
                                mem: inst.mem(),
                                latency: match inst.op() {
                                    Opcode::Load(_) => 0,
                                    op => machine.latencies().op_latency(op),
                                },
                                qp: inst.qp().map(|(q, neg)| (q.reg, q.omega, neg)),
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let versions = versions
            .iter()
            .map(|&(s, regs)| (build_rows(s), s.stage_count(), regs))
            .collect();
        let n_refs = lp.memrefs().len();
        Executor {
            lp,
            machine,
            versions,
            mem: MemorySystem::new(*machine.caches()),
            ozq: Ozq::new(machine.caches().ozq_capacity),
            streams: AddressStreams::new(lp, cfg.stream_mode, cfg.seed),
            counters: CycleCounters::default(),
            now: 0,
            ready: HashMap::new(),
            pred_vals: HashMap::new(),
            cfg,
            ref_obs: vec![RefObservation::default(); n_refs],
            telemetry: ltsp_telemetry::Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: each entry records its cycle cost into
    /// the `"{sim}.entry_cycles"` histogram, and [`Executor::export_metrics`]
    /// pushes the final counters. Purely observational — attaching (or
    /// not) never changes simulation results.
    pub fn attach_telemetry(&mut self, tel: &ltsp_telemetry::Telemetry) {
        self.telemetry = tel.clone();
    }

    /// Exports the accumulated [`CycleCounters`] into the attached
    /// telemetry sink's metrics registry under `prefix` (e.g.
    /// `"sim.cycles.total"`, the five stall buckets, and the event
    /// counters — see [`CycleCounters::export`]).
    pub fn export_metrics(&self, prefix: &str) {
        self.counters.export(&self.telemetry, prefix);
    }

    /// Clears the per-memref observations (e.g. to discard cache-warmup
    /// entries before sampling steady-state behaviour).
    pub fn reset_ref_stats(&mut self) {
        for o in &mut self.ref_obs {
            *o = RefObservation::default();
        }
    }

    /// Per-memref service-level observations (which cache level each
    /// demand load was actually served from, plus latency sums) — the
    /// "dynamic cache-miss sampling" data of the paper's outlook (Sec. 6)
    /// and the feedback signal of the adaptive-hint loop. Indexed by
    /// memref id;
    /// cleared together with [`Executor::reset_ref_stats`].
    pub fn observations(&self) -> &[RefObservation] {
        &self.ref_obs
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &CycleCounters {
        &self.counters
    }

    fn record_ready(&mut self, reg: VReg, src_iter: i64, time: u64) {
        let q = self.ready.entry(reg).or_default();
        q.push_back((src_iter, time));
        if q.len() > 300 {
            q.pop_front();
        }
    }

    fn record_pred(&mut self, reg: VReg, src_iter: i64, value: bool) {
        let q = self.pred_vals.entry(reg).or_default();
        q.push_back((src_iter, value));
        if q.len() > 300 {
            q.pop_front();
        }
    }

    /// The predicate value for a source iteration; defaults to `true`
    /// (pre-loop state, or aged out of the window).
    fn pred_value(&self, reg: VReg, src_iter: i64) -> bool {
        if src_iter < 0 {
            return true;
        }
        self.pred_vals
            .get(&reg)
            .and_then(|q| q.iter().rev().find(|&&(i, _)| i == src_iter))
            .is_none_or(|&(_, v)| v)
    }

    fn ready_time(&self, reg: VReg, src_iter: i64) -> u64 {
        if src_iter < 0 {
            return 0; // initialized before the loop
        }
        match self.ready.get(&reg) {
            Some(q) => q
                .iter()
                .rev()
                .find(|&&(i, _)| i == src_iter)
                .map_or(0, |&(_, t)| t),
            None => 0,
        }
    }

    /// Runs one execution (entry) of the loop with the given trip count.
    ///
    /// # Panics
    ///
    /// Panics if `trip == 0`.
    pub fn run_entry(&mut self, trip: u64) {
        self.run_entry_version(0, trip);
    }

    /// Runs one entry on kernel version `version` (see
    /// [`Executor::new_versioned`]).
    ///
    /// # Panics
    ///
    /// Panics if `trip == 0` or `version` is out of range.
    pub fn run_entry_version(&mut self, version: usize, trip: u64) {
        assert!(trip > 0, "trip count must be positive");
        let start = self.now;
        self.counters.entries += 1;
        self.streams.begin_entry();

        // Entry fixed costs: front-end delivery and RSE traffic for the
        // registers this loop allocates.
        let fe = u64::from(self.cfg.fe_entry_bubble);
        self.counters.fe_bubble += fe;
        self.now += fe;
        let rse = u64::from(self.versions[version].2 / self.cfg.rse_regs_per_cycle.max(1));
        self.counters.be_rse_bubble += rse;
        self.now += rse;

        let stages = self.versions[version].1;
        let kernel_iters = trip + u64::from(stages) - 1;
        self.counters.kernel_iters += kernel_iters;
        self.counters.source_iters += trip;

        let mut last_sample = self.now;
        let n_rows = self.versions[version].0.len();
        for k in 0..kernel_iters {
            for row_idx in 0..n_rows {
                self.run_cycle(version, k, row_idx, trip);
                // The kernel cycle itself.
                self.now += 1;
                self.counters.unstalled += 1;
                // OzQ-full accounting: if the queue is full now, the whole
                // window since the last sample ran at capacity (stalls
                // included).
                if self.ozq.is_full_at(self.now) {
                    self.counters.ozq_full_cycles += self.now - last_sample;
                }
                last_sample = self.now;
            }
        }

        // Loop-exit mispredict flush.
        let flush = u64::from(self.cfg.flush_exit_bubble);
        self.counters.be_flush_bubble += flush;
        self.now += flush;

        self.counters.total += self.now - start;
        debug_assert!(self.counters.is_consistent(), "cycle buckets must sum");
        if self.telemetry.is_enabled() {
            self.telemetry
                .histogram_record("sim.entry_cycles", self.now - start);
        }
    }

    fn run_cycle(&mut self, version: usize, k: u64, row_idx: usize, trip: u64) {
        // Which slots are active this kernel iteration (stage predicates)?
        let row = &self.versions[version].0[row_idx];
        let mut active: Vec<usize> = Vec::with_capacity(row.len());
        for (idx, ei) in row.iter().enumerate() {
            let src_iter = k as i64 - i64::from(ei.stage);
            if src_iter >= 0 && (src_iter as u64) < trip {
                active.push(idx);
            }
        }
        if active.is_empty() {
            return;
        }

        // Stall-on-use: the issue group waits for every active source.
        let mut ready_max = self.now;
        for &idx in &active {
            let ei = &self.versions[version].0[row_idx][idx];
            let i = k as i64 - i64::from(ei.stage);
            for &(reg, omega, has_def) in &ei.srcs {
                if !has_def {
                    continue; // loop-invariant live-in
                }
                let t = self.ready_time(reg, i - i64::from(omega));
                ready_max = ready_max.max(t);
            }
        }
        if ready_max > self.now {
            self.counters.be_exe_bubble += ready_max - self.now;
            self.now = ready_max;
        }

        // Execute the group's effects.
        for &idx in &active {
            let ei = self.versions[version].0[row_idx][idx].clone();
            let i = (k as i64 - i64::from(ei.stage)) as u64;
            // Qualifying predicate: a false predicate squashes the
            // instruction (no memory access, no new value) — the
            // if-converted "other path" executes instead.
            if let Some((qreg, omega, neg)) = ei.qp {
                let v = self.pred_value(qreg, i as i64 - i64::from(omega));
                if v == neg {
                    if let Some(dst) = ei.dst {
                        // The architectural register keeps a value the
                        // complementary path produced; it is ready now.
                        self.record_ready(dst, i as i64, self.now);
                    }
                    continue;
                }
            }
            // Compares produce predicate values (deterministic Bernoulli
            // per instruction and iteration).
            if matches!(ei.op, Opcode::Cmp | Opcode::Fcmp | Opcode::Tbit) {
                if let Some(dst) = ei.dst {
                    // Distinct draw per (instruction, entry, iteration):
                    // low-trip loops re-enter many times, and each entry's
                    // nodes must flip independently.
                    let mut h = ltsp_ir::SplitMix64::new(
                        self.cfg.seed
                            ^ (u64::from(ei.id) << 48)
                            ^ (self.counters.entries << 16)
                            ^ i,
                    );
                    let taken = h.next_f64() < self.cfg.cmp_taken_prob;
                    self.record_pred(dst, i as i64, taken);
                }
            }
            match ei.op {
                Opcode::Load(dc) => {
                    let m = ei.mem.expect("loads carry a memref");
                    let addr = self.streams.address(m, i);
                    self.issue_memory(ei.dst, dc, addr, false, i as i64, m);
                }
                Opcode::Store(dc) => {
                    let m = ei.mem.expect("stores carry a memref");
                    let addr = self.streams.address(m, i);
                    self.counters.stores += 1;
                    self.issue_store(dc, addr);
                }
                Opcode::Prefetch(target) => {
                    let m = ei.mem.expect("prefetches carry a memref");
                    let distance = self.lp.memref(m).prefetch().map_or(0, |p| p.distance);
                    let addr = self.streams.address_ahead(m, i, distance);
                    self.counters.prefetches += 1;
                    self.issue_prefetch(addr, target, m);
                }
                _ => {
                    if let Some(dst) = ei.dst {
                        self.record_ready(dst, i as i64, self.now + u64::from(ei.latency));
                    }
                }
            }
        }
    }

    fn ozq_admit(&mut self) {
        // If the OzQ is full at issue time, the pipeline stalls until an
        // entry retires (BE_L1D_FPU_BUBBLE).
        let issue = self.ozq.wait_for_slot(self.now);
        if issue > self.now {
            self.counters.be_l1d_fpu_bubble += issue - self.now;
            self.now = issue;
        }
    }

    fn issue_memory(
        &mut self,
        dst: Option<VReg>,
        dc: DataClass,
        addr: u64,
        is_store: bool,
        src_iter: i64,
        memref: MemRefId,
    ) {
        self.ozq_admit();
        let outcome = self.mem.demand_access(addr, dc, self.now, is_store);
        self.counters.loads += 1;
        let obs = &mut self.ref_obs[memref.index()];
        obs.accesses += 1;
        obs.latency_sum += u64::from(outcome.latency);
        if outcome.tlb_miss {
            self.counters.tlb_misses += 1;
        }
        if outcome.merged {
            self.counters.inflight_merges += 1;
            obs.merged += 1;
        } else {
            match outcome.level {
                ltsp_ir::CacheLevel::L1 => {
                    self.counters.l1_hits += 1;
                    obs.l1 += 1;
                }
                ltsp_ir::CacheLevel::L2 => {
                    self.counters.l2_hits += 1;
                    obs.l2 += 1;
                }
                ltsp_ir::CacheLevel::L3 => {
                    self.counters.l3_hits += 1;
                    obs.l3 += 1;
                }
                ltsp_ir::CacheLevel::Memory => {
                    self.counters.mem_loads += 1;
                    obs.mem += 1;
                }
            }
        }
        let extra = match dc {
            DataClass::Int => 0,
            DataClass::Fp => self.machine.latencies().fp_load_extra,
        };
        let done = self.now + u64::from(outcome.latency + extra);
        self.ozq.push_completion(done);
        if let Some(d) = dst {
            self.record_ready(d, src_iter, done);
        }
    }

    fn issue_store(&mut self, dc: DataClass, addr: u64) {
        self.ozq_admit();
        let outcome = self.mem.demand_access(addr, dc, self.now, true);
        if outcome.tlb_miss {
            self.counters.tlb_misses += 1;
        }
        // Stores drain asynchronously; they hold an OzQ entry for the L2
        // write latency (or the miss fill if deeper).
        let hold = outcome.latency.max(self.machine.caches().l2.best_latency);
        self.ozq.push_completion(self.now + u64::from(hold));
    }

    fn issue_prefetch(&mut self, addr: u64, target: ltsp_ir::CacheLevel, memref: MemRefId) {
        self.ozq_admit();
        let out = self.mem.prefetch(addr, target, self.now);
        let obs = &mut self.ref_obs[memref.index()];
        obs.prefetches += 1;
        if out.redundant {
            obs.redundant_prefetches += 1;
        }
        self.ozq.push_completion(self.now + u64::from(out.latency));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};
    use ltsp_pipeliner::{pipeline_loop, PipelineOptions};
    use ltsp_telemetry::Telemetry;

    fn compile(
        lp: &LoopIr,
        m: &MachineModel,
        hint: Option<ltsp_ir::LatencyHint>,
    ) -> ModuloSchedule {
        let opts = PipelineOptions::default();
        pipeline_loop(lp, m, &move |_| hint, &opts, &Telemetry::disabled())
            .unwrap()
            .schedule
    }

    fn streaming_loop(stride: i64) -> LoopIr {
        let mut b = LoopBuilder::new("stream");
        let s = b.affine_ref("s", DataClass::Int, 0x10_0000, stride, 4);
        let d = b.affine_ref("d", DataClass::Int, 0x4000_0000, stride, 4);
        let c = b.live_in_gr("c");
        let v = b.load(s);
        let sum = b.add(v, c);
        b.store(d, sum);
        b.build().unwrap()
    }

    #[test]
    fn counters_partition_total() {
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let sched = compile(&lp, &m, None);
        let mut ex = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        ex.run_entry(1000);
        let c = ex.counters();
        assert!(c.is_consistent(), "{c:?}");
        assert_eq!(c.source_iters, 1000);
        assert!(c.total > 1000, "at least one cycle per iteration");
    }

    #[test]
    fn telemetry_is_observational_and_exports_partition() {
        let m = MachineModel::itanium2();
        let lp = streaming_loop(64);
        let sched = compile(&lp, &m, Some(ltsp_ir::LatencyHint::L3));

        // Identical runs, telemetry off vs on: counters are bit-identical
        // because the sink only observes.
        let mut plain = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        plain.run_entry(2000);

        let tel = ltsp_telemetry::Telemetry::enabled();
        let mut traced = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        traced.attach_telemetry(&tel);
        traced.run_entry(2000);
        traced.export_metrics("sim");

        assert_eq!(*plain.counters(), *traced.counters());

        // The exported snapshot preserves the bucket-partition invariant.
        let metrics = tel.metrics();
        let total = metrics.counter("sim.cycles.total");
        let stalls = metrics.counter("sim.cycles.be_exe_bubble")
            + metrics.counter("sim.cycles.be_l1d_fpu_bubble")
            + metrics.counter("sim.cycles.be_rse_bubble")
            + metrics.counter("sim.cycles.be_flush_bubble")
            + metrics.counter("sim.cycles.fe_bubble");
        assert_eq!(total, metrics.counter("sim.cycles.unstalled") + stalls);
        assert_eq!(total, traced.counters().total);
        // Each entry recorded its cycle cost.
        let h = metrics.histogram("sim.entry_cycles").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, total);
    }

    #[test]
    fn warm_restart_loop_runs_near_ii() {
        // Restart mode with a small footprint: after the first entry all
        // lines are L1-resident and the loop runs near 1 cycle/iter.
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let sched = compile(&lp, &m, None);
        let cfg = ExecutorConfig {
            stream_mode: StreamMode::Restart,
            ..ExecutorConfig::default()
        };
        let mut ex = Executor::new(&lp, &sched, &m, 10, cfg);
        ex.run_entry(512); // warms 2KB of source data
        let before = *ex.counters();
        ex.run_entry(512);
        let after = *ex.counters();
        let delta_total = after.total - before.total;
        let delta_stall = after.be_exe_bubble - before.be_exe_bubble;
        assert!(
            delta_total < 512 * 3,
            "warm loop too slow: {delta_total} cycles for 512 iters"
        );
        assert!(delta_stall < delta_total / 4, "few data stalls when warm");
    }

    #[test]
    fn missing_loads_cause_exe_bubbles() {
        // Large stride: every access a fresh line from memory.
        let m = MachineModel::itanium2();
        let lp = streaming_loop(256);
        let sched = compile(&lp, &m, None);
        let mut ex = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        ex.run_entry(200);
        let c = ex.counters();
        assert!(
            c.be_exe_bubble > c.total / 2,
            "memory-bound loop should be stall-dominated: {c:?}"
        );
        assert!(c.mem_loads > 150);
    }

    #[test]
    fn boosted_schedule_reduces_stalls_on_missing_loads() {
        // The paper's core claim, end to end: same loop, same misses,
        // higher scheduled latency -> fewer stall cycles.
        let m = MachineModel::itanium2();
        let lp = streaming_loop(256);
        let base = compile(&lp, &m, None);
        let boosted = compile(&lp, &m, Some(ltsp_ir::LatencyHint::L3));
        assert!(boosted.stage_count() > base.stage_count());

        let mut ex_base = Executor::new(&lp, &base, &m, 10, ExecutorConfig::default());
        ex_base.run_entry(2000);
        let mut ex_boost = Executor::new(&lp, &boosted, &m, 14, ExecutorConfig::default());
        ex_boost.run_entry(2000);

        let cb = ex_base.counters();
        let cx = ex_boost.counters();
        assert!(
            cx.total < cb.total,
            "boosted must be faster on missing loads: base={} boosted={}",
            cb.total,
            cx.total
        );
        assert!(cx.be_exe_bubble < cb.be_exe_bubble);
    }

    #[test]
    fn low_trip_count_pays_for_extra_stages() {
        // L1-warm data + trip count 4: the boosted pipeline's extra
        // prolog/epilog iterations are pure overhead (the h264ref case).
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let base = compile(&lp, &m, None);
        let boosted = compile(&lp, &m, Some(ltsp_ir::LatencyHint::L3));

        let cfg = ExecutorConfig {
            stream_mode: StreamMode::Restart,
            ..ExecutorConfig::default()
        };
        let mut ex_base = Executor::new(&lp, &base, &m, 10, cfg);
        let mut ex_boost = Executor::new(&lp, &boosted, &m, 14, cfg);
        for _ in 0..200 {
            ex_base.run_entry(4);
            ex_boost.run_entry(4);
        }
        assert!(
            ex_boost.counters().total > ex_base.counters().total,
            "boost must hurt low-trip warm loops: base={} boosted={}",
            ex_base.counters().total,
            ex_boost.counters().total
        );
    }

    #[test]
    #[should_panic(expected = "trip count must be positive")]
    fn zero_trip_panics() {
        let m = MachineModel::itanium2();
        let lp = streaming_loop(4);
        let sched = compile(&lp, &m, None);
        let mut ex = Executor::new(&lp, &sched, &m, 10, ExecutorConfig::default());
        ex.run_entry(0);
    }
}
