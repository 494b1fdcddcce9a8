//! The reference simulator: the executor, set-associative caches, TLB,
//! in-flight table and OzQ exactly as they were before the hot path was
//! made allocation-free — `HashMap`/`VecDeque` scoreboard keyed by
//! virtual register, per-set `Vec` caches with `remove` + `insert(0)`
//! LRU, a `HashMap` of in-flight lines and cloned instruction recipes.
//!
//! It is slow on purpose and kept only as a test oracle: the fast
//! executor must reproduce its `CycleCounters` and `RefObservation`s
//! byte for byte. It shares nothing with the crate's hot path except the
//! public `AddressStreams`, `ExecutorConfig` and result types.

use std::collections::{HashMap, HashSet, VecDeque};

use ltsp_ir::{CacheLevel, DataClass, LoopIr, MemRefId, Opcode, VReg};
use ltsp_machine::{CacheGeometry, MachineModel};
use ltsp_memsim::{AddressStreams, CycleCounters, ExecutorConfig, RefObservation};
use ltsp_pipeliner::ModuloSchedule;

/// One set-associative, LRU cache level; tags per set in MRU order.
struct SetAssocCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
}

impl SetAssocCache {
    fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        let sets = capacity_bytes / (u64::from(ways) * u64::from(line_bytes));
        SetAssocCache {
            sets: vec![Vec::new(); sets as usize],
            ways: ways as usize,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line)
    }

    fn probe(&mut self, addr: u64) -> bool {
        let (set, line) = self.locate(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            let tag = ways.remove(pos);
            ways.insert(0, tag);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, addr: u64) {
        let (set, line) = self.locate(addr);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == line) {
            let tag = ways.remove(pos);
            ways.insert(0, tag);
            return;
        }
        if ways.len() == self.ways {
            ways.pop();
        }
        ways.insert(0, line);
    }
}

struct Tlb {
    entries: Vec<u64>,
    capacity: usize,
    page_shift: u32,
}

impl Tlb {
    fn access_misses(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let p = self.entries.remove(pos);
            self.entries.insert(0, p);
            false
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop();
            }
            self.entries.insert(0, page);
            true
        }
    }
}

struct Access {
    latency: u32,
    level: CacheLevel,
    tlb_miss: bool,
    merged: bool,
}

struct MemorySystem {
    geo: CacheGeometry,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    tlb: Tlb,
    inflight: HashMap<u64, u64>,
    next_memory_fill: u64,
}

impl MemorySystem {
    fn new(geo: CacheGeometry) -> Self {
        MemorySystem {
            l1: SetAssocCache::new(geo.l1.capacity_bytes, geo.l1.ways, geo.l1.line_bytes),
            l2: SetAssocCache::new(geo.l2.capacity_bytes, geo.l2.ways, geo.l2.line_bytes),
            l3: SetAssocCache::new(geo.l3.capacity_bytes, geo.l3.ways, geo.l3.line_bytes),
            tlb: Tlb {
                entries: Vec::new(),
                capacity: geo.tlb.entries as usize,
                page_shift: geo.tlb.page_bytes.trailing_zeros(),
            },
            inflight: HashMap::new(),
            next_memory_fill: 0,
            geo,
        }
    }

    fn memory_fill_latency(&mut self, now: u64) -> u32 {
        let start = now.max(self.next_memory_fill);
        self.next_memory_fill = start + u64::from(self.geo.memory_fill_interval);
        ((start - now) + u64::from(self.geo.memory_latency)) as u32
    }

    fn inflight_key(&self, addr: u64) -> u64 {
        addr >> self.geo.l2.line_bytes.trailing_zeros()
    }

    fn demand_access(&mut self, addr: u64, data: DataClass, now: u64, is_store: bool) -> Access {
        self.inflight.retain(|_, &mut done| done > now);
        let tlb_miss = self.tlb.access_misses(addr);
        let extra = if tlb_miss {
            self.geo.tlb.miss_penalty
        } else {
            0
        };
        let key = self.inflight_key(addr);
        if let Some(&done) = self.inflight.get(&key) {
            let remaining = (done - now) as u32;
            return Access {
                latency: remaining.max(1) + extra,
                level: CacheLevel::L2,
                tlb_miss,
                merged: true,
            };
        }
        let hit = |latency, level| Access {
            latency,
            level,
            tlb_miss,
            merged: false,
        };
        let use_l1 = data == DataClass::Int;
        if use_l1 && self.l1.probe(addr) {
            return hit(self.geo.l1.best_latency + extra, CacheLevel::L1);
        }
        if self.l2.probe(addr) {
            if use_l1 {
                self.l1.insert(addr);
            }
            return hit(self.geo.l2.best_latency + extra, CacheLevel::L2);
        }
        if self.l3.probe(addr) {
            self.l2.insert(addr);
            if use_l1 {
                self.l1.insert(addr);
            }
            return hit(self.geo.l3.best_latency + extra, CacheLevel::L3);
        }
        let latency = self.memory_fill_latency(now) + extra;
        self.l3.insert(addr);
        self.l2.insert(addr);
        if use_l1 {
            self.l1.insert(addr);
        }
        if !is_store {
            self.inflight.insert(key, now + u64::from(latency));
        }
        hit(latency, CacheLevel::Memory)
    }

    /// `(latency, redundant)` of a software prefetch.
    fn prefetch(&mut self, addr: u64, target: CacheLevel, now: u64) -> (u32, bool) {
        self.inflight.retain(|_, &mut done| done > now);
        let tlb_miss = self.tlb.access_misses(addr);
        let extra = if tlb_miss {
            self.geo.tlb.miss_penalty
        } else {
            0
        };
        let key = self.inflight_key(addr);
        if let Some(&done) = self.inflight.get(&key) {
            return ((done - now) as u32 + extra, false);
        }
        let in_l1 = target == CacheLevel::L1 && self.l1.probe(addr);
        let l2_hit = self.l2.probe(addr);
        let latency = if l2_hit {
            self.geo.l2.best_latency
        } else if self.l3.probe(addr) {
            self.l2.insert(addr);
            self.geo.l3.best_latency
        } else {
            let lat = self.memory_fill_latency(now);
            self.l3.insert(addr);
            self.l2.insert(addr);
            self.inflight.insert(key, now + u64::from(lat + extra));
            lat
        };
        if target == CacheLevel::L1 {
            self.l1.insert(addr);
        }
        let redundant = if target == CacheLevel::L1 {
            in_l1
        } else {
            l2_hit
        };
        (latency + extra, redundant)
    }
}

struct Ozq {
    capacity: usize,
    outstanding: Vec<u64>,
}

impl Ozq {
    fn drain(&mut self, now: u64) {
        self.outstanding.retain(|&t| t > now);
    }

    fn is_full_at(&mut self, now: u64) -> bool {
        self.drain(now);
        self.outstanding.len() >= self.capacity
    }

    fn wait_for_slot(&mut self, now: u64) -> u64 {
        self.drain(now);
        if self.outstanding.len() < self.capacity {
            return now;
        }
        let earliest = self.outstanding.iter().copied().min().unwrap();
        self.drain(earliest);
        earliest
    }
}

#[derive(Clone)]
struct ExecInst {
    id: u32,
    stage: u32,
    op: Opcode,
    dst: Option<VReg>,
    srcs: Vec<(VReg, u32, bool)>,
    mem: Option<MemRefId>,
    latency: u32,
    qp: Option<(VReg, u32, bool)>,
}

/// The reference executor (see the module docs).
pub struct RefExecutor<'a> {
    lp: &'a LoopIr,
    machine: &'a MachineModel,
    versions: Vec<(Vec<Vec<ExecInst>>, u32, u32)>,
    mem: MemorySystem,
    ozq: Ozq,
    streams: AddressStreams,
    counters: CycleCounters,
    now: u64,
    ready: HashMap<VReg, VecDeque<(i64, u64)>>,
    pred_vals: HashMap<VReg, VecDeque<(i64, bool)>>,
    cfg: ExecutorConfig,
    ref_obs: Vec<RefObservation>,
}

impl<'a> RefExecutor<'a> {
    pub fn new_versioned(
        lp: &'a LoopIr,
        versions: &[(&ModuloSchedule, u32)],
        machine: &'a MachineModel,
        cfg: ExecutorConfig,
    ) -> Self {
        let defined: HashSet<VReg> = lp.insts().iter().filter_map(|i| i.dst()).collect();
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
        RefExecutor {
            lp,
            machine,
            versions,
            mem: MemorySystem::new(*machine.caches()),
            ozq: Ozq {
                capacity: machine.caches().ozq_capacity as usize,
                outstanding: Vec::new(),
            },
            streams: AddressStreams::new(lp, cfg.stream_mode, cfg.seed),
            counters: CycleCounters::default(),
            now: 0,
            ready: HashMap::new(),
            pred_vals: HashMap::new(),
            cfg,
            ref_obs: vec![RefObservation::default(); lp.memrefs().len()],
        }
    }

    pub fn reset_ref_stats(&mut self) {
        for o in &mut self.ref_obs {
            *o = RefObservation::default();
        }
    }

    pub fn observations(&self) -> &[RefObservation] {
        &self.ref_obs
    }

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
            return 0;
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

    pub fn run_entry_version(&mut self, version: usize, trip: u64) {
        assert!(trip > 0, "trip count must be positive");
        let start = self.now;
        self.counters.entries += 1;
        self.streams.begin_entry();
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
                self.now += 1;
                self.counters.unstalled += 1;
                if self.ozq.is_full_at(self.now) {
                    self.counters.ozq_full_cycles += self.now - last_sample;
                }
                last_sample = self.now;
            }
        }
        let flush = u64::from(self.cfg.flush_exit_bubble);
        self.counters.be_flush_bubble += flush;
        self.now += flush;
        self.counters.total += self.now - start;
    }

    fn run_cycle(&mut self, version: usize, k: u64, row_idx: usize, trip: u64) {
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
        let mut ready_max = self.now;
        for &idx in &active {
            let ei = &self.versions[version].0[row_idx][idx];
            let i = k as i64 - i64::from(ei.stage);
            for &(reg, omega, has_def) in &ei.srcs {
                if !has_def {
                    continue;
                }
                let t = self.ready_time(reg, i - i64::from(omega));
                ready_max = ready_max.max(t);
            }
        }
        if ready_max > self.now {
            self.counters.be_exe_bubble += ready_max - self.now;
            self.now = ready_max;
        }
        for &idx in &active {
            let ei = self.versions[version].0[row_idx][idx].clone();
            let i = (k as i64 - i64::from(ei.stage)) as u64;
            if let Some((qreg, omega, neg)) = ei.qp {
                let v = self.pred_value(qreg, i as i64 - i64::from(omega));
                if v == neg {
                    if let Some(dst) = ei.dst {
                        self.record_ready(dst, i as i64, self.now);
                    }
                    continue;
                }
            }
            if matches!(ei.op, Opcode::Cmp | Opcode::Fcmp | Opcode::Tbit) {
                if let Some(dst) = ei.dst {
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
                    let m = ei.mem.unwrap();
                    let addr = self.streams.address(m, i);
                    self.issue_memory(ei.dst, dc, addr, i as i64, m);
                }
                Opcode::Store(dc) => {
                    let m = ei.mem.unwrap();
                    let addr = self.streams.address(m, i);
                    self.counters.stores += 1;
                    self.issue_store(dc, addr);
                }
                Opcode::Prefetch(target) => {
                    let m = ei.mem.unwrap();
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
        src_iter: i64,
        memref: MemRefId,
    ) {
        self.ozq_admit();
        let outcome = self.mem.demand_access(addr, dc, self.now, false);
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
                CacheLevel::L1 => {
                    self.counters.l1_hits += 1;
                    obs.l1 += 1;
                }
                CacheLevel::L2 => {
                    self.counters.l2_hits += 1;
                    obs.l2 += 1;
                }
                CacheLevel::L3 => {
                    self.counters.l3_hits += 1;
                    obs.l3 += 1;
                }
                CacheLevel::Memory => {
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
        self.ozq.outstanding.push(done);
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
        let hold = outcome.latency.max(self.machine.caches().l2.best_latency);
        self.ozq.outstanding.push(self.now + u64::from(hold));
    }

    fn issue_prefetch(&mut self, addr: u64, target: CacheLevel, memref: MemRefId) {
        self.ozq_admit();
        let (latency, redundant) = self.mem.prefetch(addr, target, self.now);
        let obs = &mut self.ref_obs[memref.index()];
        obs.prefetches += 1;
        if redundant {
            obs.redundant_prefetches += 1;
        }
        self.ozq.outstanding.push(self.now + u64::from(latency));
    }
}
