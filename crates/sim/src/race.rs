//! Dynamic data-race oracle: vector-clock (FastTrack-style) detection over
//! randomly scheduled multi-core replays.
//!
//! The static race detector in `cwsp-analyzer` over-approximates: its
//! contract is *static-clean ⇒ no dynamic race under any schedule*. This
//! module is the other side of that differential test — it executes a module
//! on `cores` interleaved interpreters over one shared memory, interleaving
//! steps under a seeded pseudo-random scheduler, and checks every
//! program-data access against per-word vector clocks:
//!
//! * each thread `t` carries a clock `VC_t`;
//! * each touched program-data word keeps the clocks of its last plain
//!   writes (`wp`), plain reads (`rp`), atomic accesses (`wa`), and a sync
//!   clock `m` (the release store the next acquirer joins);
//! * a plain access races with any prior conflicting access by another
//!   thread that is not ordered before it (`clock[u] > VC_t[u]`); mixed
//!   atomic/plain pairs conflict too — only *both-atomic* pairs are exempt,
//!   mirroring the static rule;
//! * an atomic read-modify-write acquires (`VC_t ⊔= m`) and releases
//!   (`m = VC_t`) through its word, so lock hand-offs and message-passing
//!   flags produce genuine happens-before edges; `Fence` synchronizes
//!   through a global sequentially-consistent fence clock.
//!
//! Only [`layout::is_program_data`] addresses participate: per-core stacks,
//! checkpoint slots, and hardware metadata are thread-private or
//! hardware-owned by construction and the static detector skips them for
//! the same reason.
//!
//! One replay explores one interleaving; [`check_module`] sweeps `schedules`
//! seeds and unions the findings. A clean sweep is evidence, not proof — the
//! differential suite pairs it with the static detector's soundness
//! direction, which *is* a proof obligation.

use cwsp_ir::decoded::DecodedModule;
use cwsp_ir::interp::{EffectKind, Interp, InterpError, StepEffect};
use cwsp_ir::layout;
use cwsp_ir::memory::Memory;
use cwsp_ir::module::Module;
use cwsp_ir::types::Word;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// SplitMix64 — local copy of the zero-dependency PRNG used across the
/// workspace (`cwsp-sim` does not depend on `cwsp-core`, and the scheduler
/// only needs raw draws).
#[derive(Debug, Clone, Copy)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform pick in `0..n` (n small; modulo bias is irrelevant for
    /// schedule exploration).
    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A vector clock: `vc[t]` is the last event of thread `t` ordered before
/// the owner.
type VC = Vec<u64>;

fn vc_join(dst: &mut VC, src: &VC) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// `clock` holds an event per thread; true when some *other* thread's entry
/// is ahead of `vc` — i.e. that event is not ordered before the current one.
fn unordered(clock: &VC, vc: &VC, me: usize) -> Option<usize> {
    clock
        .iter()
        .enumerate()
        .find(|&(u, &c)| u != me && c > vc[u])
        .map(|(u, _)| u)
}

/// Per-word access history.
#[derive(Debug, Clone)]
struct WordState {
    /// Clock of the last plain write per thread.
    wp: VC,
    /// Clock of the last plain read per thread.
    rp: VC,
    /// Clock of the last atomic access per thread.
    wa: VC,
    /// Sync clock: the releasing thread's vector clock at its last atomic
    /// on this word (what the next atomic on the word acquires).
    m: VC,
}

impl WordState {
    fn new(n: usize) -> Self {
        WordState {
            wp: vec![0; n],
            rp: vec![0; n],
            wa: vec![0; n],
            m: vec![0; n],
        }
    }
}

/// How a dynamic race manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynRaceKind {
    /// Two plain accesses, at least one write.
    PlainPlain,
    /// A plain access against an atomic by another thread (mixed access).
    MixedAtomic,
}

/// One dynamic race: two unordered conflicting accesses to `addr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynRace {
    /// The racing word.
    pub addr: Word,
    /// The thread whose access detected the race.
    pub tid: usize,
    /// The thread whose earlier access was unordered with it.
    pub other: usize,
    /// Plain/plain or mixed plain/atomic.
    pub kind: DynRaceKind,
    /// Whether the detecting access was a write.
    pub write: bool,
    /// The schedule seed that exposed the race.
    pub seed: u64,
}

impl fmt::Display for DynRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dynamic race at {:#x}: core {} {} unordered with core {} ({:?}, seed {})",
            self.addr,
            self.tid,
            if self.write { "write" } else { "read" },
            self.other,
            self.kind,
            self.seed,
        )
    }
}

/// Outcome of one scheduled replay.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Races found in this interleaving (first [`MAX_RACES_PER_SCHEDULE`]).
    pub races: Vec<DynRace>,
    /// Total dynamic instructions across all cores.
    pub steps: u64,
    /// Whether every core ran to halt within the step budget.
    pub completed: bool,
}

/// Aggregate outcome of a multi-seed sweep.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Union of races across schedules, deduplicated by
    /// `(addr, tid, other, kind)`.
    pub races: Vec<DynRace>,
    /// Schedules executed.
    pub schedules: usize,
    /// Total dynamic instructions across all schedules.
    pub total_steps: u64,
    /// Schedules that did not run every core to halt within budget.
    pub incomplete: usize,
}

impl OracleReport {
    /// No race in any explored interleaving.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }
}

/// Oracle configuration.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Interleaved cores; each runs the entry with its core index as the
    /// first argument (the machine's convention).
    pub cores: usize,
    /// Independent seeded schedules to explore.
    pub schedules: usize,
    /// Base seed; schedule `i` runs under `seed + i`.
    pub seed: u64,
    /// Per-schedule total step budget across all cores.
    pub max_steps: u64,
    /// Longest run of consecutive steps one core may take before the
    /// scheduler forcibly rotates (1 = step-level interleaving).
    pub max_quantum: u32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            cores: 2,
            schedules: 8,
            seed: 0xC0DE,
            max_steps: 2_000_000,
            // Mixes step-level interleavings with short bursts; the machine
            // itself steps cores in lock-step, which quantum 1 covers.
            max_quantum: 4,
        }
    }
}

/// Cap on recorded races per schedule (detection continues; recording
/// stops — a racy program can otherwise produce one report per iteration).
pub const MAX_RACES_PER_SCHEDULE: usize = 16;

/// Vector-clock detector state shared by one replay.
struct Detector {
    n: usize,
    vcs: Vec<VC>,
    words: HashMap<Word, WordState>,
    /// Global fence clock (sequentially-consistent fence semantics).
    fence: VC,
    races: Vec<DynRace>,
    seed: u64,
}

impl Detector {
    fn new(n: usize, seed: u64) -> Self {
        let mut vcs: Vec<VC> = vec![vec![0; n]; n];
        for (t, vc) in vcs.iter_mut().enumerate() {
            vc[t] = 1; // each thread starts in its own epoch
        }
        Detector {
            n,
            vcs,
            words: HashMap::new(),
            fence: vec![0; n],
            races: Vec::new(),
            seed,
        }
    }

    fn report(&mut self, addr: Word, tid: usize, other: usize, kind: DynRaceKind, write: bool) {
        if self.races.len() < MAX_RACES_PER_SCHEDULE {
            self.races.push(DynRace {
                addr,
                tid,
                other,
                kind,
                write,
                seed: self.seed,
            });
        }
    }

    fn plain_read(&mut self, tid: usize, addr: Word) {
        if !layout::is_program_data(addr) {
            return;
        }
        let n = self.n;
        let vc = &self.vcs[tid];
        let w = self.words.entry(addr).or_insert_with(|| WordState::new(n));
        let mut hit = None;
        if let Some(u) = unordered(&w.wp, vc, tid) {
            hit = Some((u, DynRaceKind::PlainPlain));
        } else if let Some(u) = unordered(&w.wa, vc, tid) {
            hit = Some((u, DynRaceKind::MixedAtomic));
        }
        w.rp[tid] = vc[tid];
        if let Some((u, kind)) = hit {
            self.report(addr, tid, u, kind, false);
        }
    }

    fn plain_write(&mut self, tid: usize, addr: Word) {
        if !layout::is_program_data(addr) {
            return;
        }
        let n = self.n;
        let vc = &self.vcs[tid];
        let w = self.words.entry(addr).or_insert_with(|| WordState::new(n));
        let mut hit = None;
        if let Some(u) = unordered(&w.wp, vc, tid) {
            hit = Some((u, DynRaceKind::PlainPlain));
        } else if let Some(u) = unordered(&w.rp, vc, tid) {
            hit = Some((u, DynRaceKind::PlainPlain));
        } else if let Some(u) = unordered(&w.wa, vc, tid) {
            hit = Some((u, DynRaceKind::MixedAtomic));
        }
        w.wp[tid] = vc[tid];
        if let Some((u, kind)) = hit {
            self.report(addr, tid, u, kind, true);
        }
    }

    /// Atomic read-modify-write: checks against *plain* history (mixed
    /// races), then acquires and releases through the word's sync clock.
    fn atomic(&mut self, tid: usize, addr: Word) {
        if !layout::is_program_data(addr) {
            return;
        }
        let n = self.n;
        let mut hit = None;
        {
            let vc = &self.vcs[tid];
            let w = self.words.entry(addr).or_insert_with(|| WordState::new(n));
            if let Some(u) = unordered(&w.wp, vc, tid) {
                hit = Some((u, DynRaceKind::MixedAtomic));
            } else if let Some(u) = unordered(&w.rp, vc, tid) {
                hit = Some((u, DynRaceKind::MixedAtomic));
            }
        }
        // Acquire: join the word's sync clock; release: publish our clock.
        let w = self.words.get_mut(&addr).expect("entry created above");
        vc_join(&mut self.vcs[tid], &w.m);
        w.wa[tid] = self.vcs[tid][tid];
        w.m.clone_from(&self.vcs[tid]);
        self.vcs[tid][tid] += 1;
        if let Some((u, kind)) = hit {
            self.report(addr, tid, u, kind, true);
        }
    }

    /// Sequentially-consistent fence: joins and publishes the global fence
    /// clock.
    fn fence(&mut self, tid: usize) {
        let vc = &mut self.vcs[tid];
        vc_join(vc, &self.fence);
        vc_join(&mut self.fence, vc);
        vc[tid] += 1;
    }

    /// Route one step effect through the detector.
    fn observe(&mut self, tid: usize, eff: &StepEffect) {
        match eff.kind {
            EffectKind::Atomic => {
                // One atomic instruction touches exactly one word; reads and
                // (possibly absent, for a failed CAS) writes name the same
                // address.
                if let Some(&a) = eff.reads.first() {
                    self.atomic(tid, a);
                }
            }
            EffectKind::Fence => self.fence(tid),
            _ => {
                for &a in &eff.reads {
                    self.plain_read(tid, a);
                }
                for &(a, _) in &eff.writes {
                    self.plain_write(tid, a);
                }
            }
        }
    }
}

/// Execute one seeded interleaving of `module` on `cores` and report every
/// race the vector clocks detect.
///
/// # Errors
/// Propagates interpreter traps; [`InterpError::NoEntry`] if the module has
/// no entry.
pub fn run_schedule(
    module: &Module,
    cores: usize,
    seed: u64,
    max_steps: u64,
    max_quantum: u32,
) -> Result<ScheduleOutcome, InterpError> {
    let cores = cores.max(1);
    let dec = Arc::new(DecodedModule::new(module));
    let mut mem = Memory::new();
    // `with_args*` constructors do not apply global initializers (they are
    // image-preserving for recovery); a fresh oracle run wants them.
    for g in module.globals() {
        for (i, &v) in g.init.iter().enumerate() {
            mem.store(g.addr + i as Word * 8, v);
        }
    }
    let mut interps = Vec::with_capacity(cores);
    for core in 0..cores {
        let args = [core as Word];
        interps.push(Interp::with_args_shared(
            module,
            Arc::clone(&dec),
            core,
            &mut mem,
            &args,
        )?);
    }

    let mut rng = SplitMix64::new(seed ^ 0x5EED_0F0F_5C4E_D01E);
    let mut det = Detector::new(cores, seed);
    let mut eff = StepEffect::default();
    let mut steps = 0u64;
    let max_quantum = max_quantum.max(1);
    while steps < max_steps {
        let live: Vec<usize> = (0..cores).filter(|&c| !interps[c].is_halted()).collect();
        if live.is_empty() {
            break;
        }
        let tid = live[rng.pick(live.len())];
        // A random-length quantum: mixes fine-grained interleavings with
        // machine-like rotation in the same schedule space.
        let quantum = 1 + rng.pick(max_quantum as usize) as u32;
        for _ in 0..quantum {
            if interps[tid].is_halted() || steps >= max_steps {
                break;
            }
            interps[tid].step_into(&mut mem, &mut eff)?;
            steps += 1;
            det.observe(tid, &eff);
        }
    }
    let completed = interps.iter().all(Interp::is_halted);
    Ok(ScheduleOutcome {
        races: det.races,
        steps,
        completed,
    })
}

/// Host thread count for the seed sweep: `CWSP_MC_THREADS` if set (≥ 1),
/// else available parallelism. Read per call so tests can vary the variable.
fn default_threads() -> usize {
    let var = std::env::var("CWSP_MC_THREADS").ok();
    var.and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Sweep `cfg.schedules` seeded interleavings and union the races found.
/// Schedules fan out over [`default_threads`] host threads
/// (`CWSP_MC_THREADS`); each schedule is an independent seeded replay and the
/// findings merge in seed order, so the report is byte-identical at any
/// thread count.
///
/// # Errors
/// Propagates the first interpreter trap from any schedule (lowest seed
/// index wins when several trap).
pub fn check_module(module: &Module, cfg: &OracleConfig) -> Result<OracleReport, InterpError> {
    check_module_threaded(module, cfg, default_threads())
}

/// [`check_module`] with an explicit host thread count (for tests that pin
/// the fan-out rather than reading `CWSP_MC_THREADS`).
///
/// # Errors
/// Propagates the first interpreter trap from any schedule, in seed order.
pub fn check_module_threaded(
    module: &Module,
    cfg: &OracleConfig,
    threads: usize,
) -> Result<OracleReport, InterpError> {
    let one = |i: usize| {
        run_schedule(
            module,
            cfg.cores,
            cfg.seed.wrapping_add(i as u64),
            cfg.max_steps,
            cfg.max_quantum,
        )
    };
    let threads = threads.max(1).min(cfg.schedules.max(1));
    let outcomes: Vec<Result<ScheduleOutcome, InterpError>> = if threads <= 1 {
        (0..cfg.schedules).map(one).collect()
    } else {
        // Workers pull seed indices off a shared cursor; results land in a
        // slot per seed, so the merge below never sees host-schedule order.
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<ScheduleOutcome, InterpError>>> =
            (0..cfg.schedules).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= cfg.schedules {
                                break;
                            }
                            local.push((i, one(i)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("oracle worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every seed covered"))
            .collect()
    };
    let mut report = OracleReport {
        schedules: cfg.schedules,
        ..OracleReport::default()
    };
    let mut seen: std::collections::HashSet<(Word, usize, usize, DynRaceKind, bool)> =
        std::collections::HashSet::new();
    for out in outcomes {
        let out = out?;
        report.total_steps += out.steps;
        if !out.completed {
            report.incomplete += 1;
        }
        for r in out.races {
            if seen.insert((r.addr, r.tid, r.other, r.kind, r.write)) {
                report.races.push(r);
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::builder::FunctionBuilder;
    use cwsp_ir::inst::{AtomicOp, BinOp, Inst, MemRef, Operand};

    fn sweep(m: &Module, cores: usize) -> OracleReport {
        check_module(
            m,
            &OracleConfig {
                cores,
                schedules: 8,
                ..OracleConfig::default()
            },
        )
        .expect("oracle run")
    }

    #[test]
    fn drf_partition_sum_is_oracle_clean() {
        let (m, _, _, _) = cwsp_workloads::multicore::drf_partition_sum(3);
        let rep = sweep(&m, 3);
        assert!(rep.is_clean(), "{:?}", rep.races);
        assert_eq!(rep.incomplete, 0);
        assert!(rep.total_steps > 0);
    }

    #[test]
    fn spinlock_ledger_is_oracle_clean() {
        let (m, _, _) = cwsp_workloads::multicore::spinlock_ledger(3);
        let rep = sweep(&m, 3);
        assert!(rep.is_clean(), "{:?}", rep.races);
        assert_eq!(rep.incomplete, 0);
    }

    #[test]
    fn unsynced_counter_increment_races() {
        // Classic lost update: load; add; store with no lock.
        let mut m = Module::new("lost-update");
        let g = m.add_global("ctr", 1);
        let a = m.global_addr(g);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let (_, exit) =
            cwsp_ir::builder::build_counted_loop(&mut b, e, Operand::imm(8), |b, bb, _| {
                let v = b.load(bb, MemRef::abs(a));
                let nv = b.bin(bb, BinOp::Add, v.into(), Operand::imm(1));
                b.store(bb, nv.into(), MemRef::abs(a));
            });
        b.push(exit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let rep = sweep(&m, 2);
        assert!(!rep.is_clean(), "unsynchronized increments must race");
        let r = &rep.races[0];
        assert!(layout::is_program_data(r.addr));
        assert_ne!(r.tid, r.other);
    }

    #[test]
    fn plain_flag_publication_is_a_mixed_race() {
        // Writer stores mail then *plain-stores* the flag the reader spins on
        // atomically: the flag word itself is a mixed atomic/plain race.
        let mut m = Module::new("plain-flag");
        let mail = m.add_global("mail", 1);
        let flag = m.add_global("flag", 1);
        let (ma, fa) = (m.global_addr(mail), m.global_addr(flag));
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let wr = b.block();
        let spin = b.block();
        let rd = b.block();
        let tid = b.param(0);
        let c = b.bin(e, BinOp::CmpEq, tid.into(), Operand::imm(0));
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: wr,
                if_false: spin,
            },
        );
        b.push(wr, Inst::store(Operand::imm(7), MemRef::abs(ma)));
        b.push(wr, Inst::store(Operand::imm(1), MemRef::abs(fa)));
        b.push(wr, Inst::Halt);
        let gotten = b.vreg();
        b.push(
            spin,
            Inst::AtomicRmw {
                op: AtomicOp::FetchAdd,
                dst: gotten,
                addr: MemRef::abs(fa),
                src: Operand::imm(0),
                expected: Operand::imm(0),
            },
        );
        b.push(
            spin,
            Inst::CondBr {
                cond: gotten.into(),
                if_true: rd,
                if_false: spin,
            },
        );
        let v = b.load(rd, MemRef::abs(ma));
        b.store(rd, v.into(), MemRef::abs(ma));
        b.push(rd, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let rep = sweep(&m, 2);
        assert!(
            rep.races
                .iter()
                .any(|r| r.addr == fa && r.kind == DynRaceKind::MixedAtomic),
            "{:?}",
            rep.races
        );
    }

    #[test]
    fn atomic_handoff_orders_the_mailbox() {
        // Same shape, but the publication is an atomic Swap: the acquire
        // join must order the reader's mail load behind the writer's store.
        let mut m = Module::new("handoff");
        let mail = m.add_global("mail", 1);
        let flag = m.add_global("flag", 1);
        let (ma, fa) = (m.global_addr(mail), m.global_addr(flag));
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let wr = b.block();
        let spin = b.block();
        let rd = b.block();
        let tid = b.param(0);
        let c = b.bin(e, BinOp::CmpEq, tid.into(), Operand::imm(0));
        b.push(
            e,
            Inst::CondBr {
                cond: c.into(),
                if_true: wr,
                if_false: spin,
            },
        );
        b.push(wr, Inst::store(Operand::imm(7), MemRef::abs(ma)));
        let d = b.vreg();
        b.push(
            wr,
            Inst::AtomicRmw {
                op: AtomicOp::Swap,
                dst: d,
                addr: MemRef::abs(fa),
                src: Operand::imm(1),
                expected: Operand::imm(0),
            },
        );
        b.push(wr, Inst::Halt);
        let gotten = b.vreg();
        b.push(
            spin,
            Inst::AtomicRmw {
                op: AtomicOp::FetchAdd,
                dst: gotten,
                addr: MemRef::abs(fa),
                src: Operand::imm(0),
                expected: Operand::imm(0),
            },
        );
        b.push(
            spin,
            Inst::CondBr {
                cond: gotten.into(),
                if_true: rd,
                if_false: spin,
            },
        );
        let v = b.load(rd, MemRef::abs(ma));
        b.store(rd, v.into(), MemRef::abs(ma));
        b.push(rd, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let rep = sweep(&m, 2);
        assert!(rep.is_clean(), "{:?}", rep.races);
        assert_eq!(rep.incomplete, 0, "spin must terminate under the budget");
    }

    #[test]
    fn threaded_sweep_is_byte_identical_to_serial() {
        // Racy module so the reports are non-trivial: the merge in seed
        // order must produce the same races, in the same order, at any
        // host thread count.
        let mut m = Module::new("lost-update-threaded");
        let g = m.add_global("ctr", 1);
        let a = m.global_addr(g);
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let (_, exit) =
            cwsp_ir::builder::build_counted_loop(&mut b, e, Operand::imm(8), |b, bb, _| {
                let v = b.load(bb, MemRef::abs(a));
                let nv = b.bin(bb, BinOp::Add, v.into(), Operand::imm(1));
                b.store(bb, nv.into(), MemRef::abs(a));
            });
        b.push(exit, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let cfg = OracleConfig {
            cores: 2,
            schedules: 8,
            ..OracleConfig::default()
        };
        let serial = check_module_threaded(&m, &cfg, 1).expect("serial sweep");
        for threads in [2, 4, 8] {
            let par = check_module_threaded(&m, &cfg, threads).expect("threaded sweep");
            assert_eq!(serial.races, par.races, "threads={threads}");
            assert_eq!(serial.total_steps, par.total_steps);
            assert_eq!(serial.incomplete, par.incomplete);
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let (m, _, _, _) = cwsp_workloads::multicore::drf_partition_sum(2);
        let a = run_schedule(&m, 2, 42, 2_000_000, 4).unwrap();
        let b = run_schedule(&m, 2, 42, 2_000_000, 4).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.races, b.races);
    }

    #[test]
    fn stack_and_ckpt_traffic_is_ignored() {
        // Both cores call a helper (frame stores to per-core stacks) and
        // checkpoint a register — none of it is program data.
        let mut m = Module::new("private");
        let mut hb = FunctionBuilder::new("helper", 1);
        let he = hb.entry();
        let p = hb.param(0);
        hb.push(
            he,
            Inst::Ret {
                val: Some(p.into()),
            },
        );
        let h = m.add_function(hb.build());
        let mut b = FunctionBuilder::new("main", 1);
        let e = b.entry();
        let tid = b.param(0);
        let r = b.vreg();
        b.push(
            e,
            Inst::Call {
                func: h,
                args: vec![tid.into()],
                ret: Some(r),
                save_regs: vec![tid],
            },
        );
        b.push(e, Inst::Ckpt { reg: r });
        b.push(e, Inst::Halt);
        let f = m.add_function(b.build());
        m.set_entry(f);
        let rep = sweep(&m, 3);
        assert!(rep.is_clean(), "{:?}", rep.races);
    }
}
