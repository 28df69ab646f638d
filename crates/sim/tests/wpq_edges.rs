//! WPQ edge cases: full-queue backpressure, drain-at-halt, and persist
//! ordering when two cores share one memory controller (§V-B, Fig 26).

use cwsp_compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp_ir::memory::Memory;
use cwsp_ir::types::{DynRegionId, Word};
use cwsp_sim::config::SimConfig;
use cwsp_sim::machine::{Machine, RunEnd};
use cwsp_sim::mc::MemoryController;
use cwsp_sim::scheme::Scheme;
use cwsp_workloads::multicore;

const DRAIN: u64 = 10;

/// A full WPQ rejects arrivals until `tick` frees (and reports) a drained
/// slot; the NVM image is untouched by the rejected store.
#[test]
fn full_wpq_backpressures_until_a_slot_drains() {
    let mut mc = MemoryController::new(2, DRAIN, 0);
    let mut nvm = Memory::new();
    let r = DynRegionId(1);

    assert_eq!(mc.accept(0, r, 0x1000, 1, false, &mut nvm), Some(false));
    assert_eq!(mc.accept(0, r, 0x1008, 2, false, &mut nvm), Some(false));
    assert_eq!(mc.wpq_occupancy(), 2);
    assert!(!mc.wpq_has_space());

    // Third arrival bounces: no slot, no NVM write, no occupancy change.
    assert_eq!(mc.accept(0, r, 0x1010, 3, false, &mut nvm), None);
    assert_eq!(mc.wpq_occupancy(), 2);
    assert_eq!(nvm.load(0x1010), 0);

    // The media pipeline serializes drains: entry 0 frees at DRAIN, entry 1
    // at 2*DRAIN. Ticking before the first drain completes frees nothing.
    assert_eq!(mc.tick(DRAIN - 1), None);
    assert!(!mc.wpq_has_space());

    assert_eq!(mc.tick(DRAIN), Some((0x1000, r)));
    assert_eq!(mc.tick(DRAIN), None);
    assert_eq!(mc.wpq_occupancy(), 1);
    assert_eq!(mc.accept(DRAIN, r, 0x1010, 3, false, &mut nvm), Some(false));
    assert_eq!(nvm.load(0x1010), 3);

    assert_eq!(mc.tick(3 * DRAIN), Some((0x1008, r)));
    assert_eq!(mc.tick(3 * DRAIN), Some((0x1010, r)));
    assert_eq!(mc.wpq_occupancy(), 0);
    // Entries were persistent on acceptance (ADR domain), not at drain.
    assert_eq!(nvm.load(0x1000), 1);
    assert_eq!(nvm.load(0x1008), 2);
}

/// WPQ slots free in FIFO arrival order, and a pending entry delays loads to
/// its address until exactly its drain cycle.
#[test]
fn wpq_drains_fifo_and_delays_matching_loads() {
    let mut mc = MemoryController::new(4, DRAIN, 0);
    let mut nvm = Memory::new();

    for i in 0..4u64 {
        assert_eq!(
            mc.accept(0, DynRegionId(i), 0x2000 + i * 8, i, false, &mut nvm),
            Some(false)
        );
    }
    // Serialized media: entry i drains at (i+1)*DRAIN, in arrival order.
    for i in 0..4u64 {
        assert_eq!(mc.wpq_hit(0x2000 + i * 8), Some((i + 1) * DRAIN));
    }
    assert_eq!(mc.tick(2 * DRAIN), Some((0x2000, DynRegionId(0))));
    assert_eq!(mc.tick(2 * DRAIN), Some((0x2008, DynRegionId(1))));
    assert_eq!(mc.tick(2 * DRAIN), None);
    assert_eq!(mc.wpq_occupancy(), 2);
    assert_eq!(mc.wpq_hit(0x2000), None);
    assert_eq!(mc.wpq_hit(0x2008), None);
    assert_eq!(mc.wpq_hit(0x2010), Some(3 * DRAIN));
}

fn compile(module: &cwsp_ir::module::Module) -> cwsp_ir::module::Module {
    CwspCompiler::new(CompileOptions::default())
        .compile(module)
        .module
}

fn run<'a>(module: &'a cwsp_ir::module::Module, cfg: &'a SimConfig) -> Machine<'a> {
    let mut machine = Machine::new(module, cfg, Scheme::cwsp());
    let result = machine.run(u64::MAX, None).expect("run");
    assert_eq!(result.end, RunEnd::Completed);
    machine
}

/// A one-slot WPQ maximizes backpressure but must not wedge the machine: the
/// run still completes, the squeeze is visible as extra RBT stall (regions
/// retire slower when arrivals head-of-line block), and every store still
/// persists with the right value.
#[test]
fn tiny_wpq_stalls_but_completes_and_persists() {
    let (m, _, sums_addr, _) = multicore::drf_partition_sum(2);
    let m = compile(&m);

    let tiny_cfg = SimConfig {
        cores: 2,
        wpq_entries: 1,
        ..SimConfig::default()
    };
    let roomy_cfg = SimConfig {
        cores: 2,
        ..SimConfig::default()
    };
    let tiny = run(&m, &tiny_cfg);
    let roomy = run(&m, &roomy_cfg);
    assert!(tiny.all_halted());
    assert!(
        tiny.stats().cycles >= roomy.stats().cycles,
        "shrinking the WPQ must not speed the machine up ({} < {})",
        tiny.stats().cycles,
        roomy.stats().cycles
    );
    assert!(
        tiny.stats().stall_rbt > roomy.stats().stall_rbt,
        "a 1-entry WPQ must backpressure region retirement ({} <= {})",
        tiny.stats().stall_rbt,
        roomy.stats().stall_rbt
    );
    for tid in 0..2u64 {
        assert_eq!(
            tiny.nvm().load(sums_addr + tid * 8),
            multicore::expected_sum(tid),
            "sums[{tid}] must be persistent at halt"
        );
    }
}

/// `RunEnd::Completed` means the persist machinery drained: at halt the NVM
/// image agrees with architectural memory over every program-data word the
/// workload wrote.
#[test]
fn drain_at_halt_makes_nvm_match_arch_memory() {
    let (m, data_addr, sums_addr, counter_addr) = multicore::drf_partition_sum(2);
    let cfg = SimConfig {
        cores: 2,
        ..SimConfig::default()
    };
    let m = compile(&m);
    let machine = run(&m, &cfg);

    let mut addrs: Vec<Word> = (0..2 * multicore::PARTITION_WORDS)
        .map(|i| data_addr + i * 8)
        .collect();
    addrs.extend((0..2).map(|t| sums_addr + t * 8));
    addrs.push(counter_addr);
    for addr in addrs {
        assert_eq!(
            machine.nvm().load(addr),
            machine.arch_mem().load(addr),
            "NVM and arch memory diverge at {addr:#x} after drain-at-halt"
        );
    }
    // Sanity: the workload actually wrote data (the check above isn't 0==0).
    // Thread 1 writes data[P + i] = 1000 + i.
    let t1_base = data_addr + multicore::PARTITION_WORDS * 8;
    assert_eq!(machine.nvm().load(t1_base + 3 * 8), 1003);
    assert_ne!(machine.nvm().load(sums_addr + 8), 0);
}

/// Two cores funneled through a single memory controller: lock-ordered
/// critical sections persist in order, and the shared balance survives to
/// NVM with the exact expected value.
#[test]
fn two_cores_one_mc_persist_ordering() {
    let (m, balance_addr, ops_addr) = multicore::spinlock_ledger(2);
    let cfg = SimConfig {
        cores: 2,
        mem_controllers: 1,
        wpq_entries: 4,
        ..SimConfig::default()
    };
    let m = compile(&m);
    let machine = run(&m, &cfg);
    let expected = multicore::expected_balance(2);
    assert_eq!(machine.arch_mem().load(balance_addr), expected);
    assert_eq!(
        machine.nvm().load(balance_addr),
        expected,
        "final balance must be persistent through the single shared MC"
    );
    assert_eq!(
        machine.nvm().load(ops_addr),
        machine.arch_mem().load(ops_addr)
    );
}
