//! `cwsp-perfbench`: the repository's benchmark.
//!
//! It drives the crates from outside through their public functions: never
//! through `cwsp_bench::engine`, its memo or its disk cache, so every item
//! is computed cold. One thread runs one item at a time (a closed
//! loop), and every item's output is checked against an independent
//! reference. See `README.md` in this directory for the workloads, metrics
//! and how to read a traced run.

pub mod crash;
pub mod lint;
pub mod sim;
pub mod trace;

use cwsp_ir::interp::Outcome;
use cwsp_ir::layout;
use cwsp_ir::memory::Memory;
use cwsp_ir::types::Word;
use cwsp_sim::stats::SimStats;
use trace::Tracer;

/// The workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 4] = ["sim-cwsp", "sim-baseline", "lint", "crash-recover"];

/// Step budget for reference runs and recovery replays.
pub const MAX_STEPS: u64 = 50_000_000;

/// What one item did.
#[derive(Debug, Clone, Default)]
pub struct Item {
    /// Why the item failed, or `None` when its output matched the reference.
    pub error: Option<String>,
    /// Instructions the machine simulated, for items that simulate.
    pub sim_insts: Option<u64>,
    /// IR instructions the item put through the layer under test.
    pub insts: u64,
    /// The item's exact modelled result: simulated cycles, or the size of
    /// the generated code on `lint`.
    pub exact: u64,
    /// Every deterministic counter the item produced.
    pub counters: Vec<u64>,
}

/// A benchmark workload after set-up: a fixed list of items.
pub trait Workload {
    /// Number of items in one pass.
    fn len(&self) -> usize;

    /// Whether a pass is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run item `i`, recording spans and counts into `t`.
    fn run(&self, i: usize, t: &mut Tracer) -> Item;
}

/// Set up workload `name` for `seed`: build its inputs, compile what it
/// compiles and run its references.
///
/// # Errors
/// An unknown workload name, or a reference run that fails.
pub fn setup(name: &str, seed: u64, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-cwsp" => Box::new(sim::SimBench::setup(true, t)?),
        "sim-baseline" => Box::new(sim::SimBench::setup(false, t)?),
        "lint" => Box::new(lint::LintBench::setup(seed, t)),
        "crash-recover" => Box::new(crash::CrashBench::setup(seed, t)?),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// The 38 paper workloads, built inside a `workloads.build` span.
pub fn build_workloads(t: &mut Tracer) -> Vec<cwsp_workloads::Workload> {
    t.span("workloads.build", |_| cwsp_workloads::all())
}

/// Run `module` to completion in the reference interpreter
/// (`ir::reference::RefInterp`), inside a `ref.run` span.
///
/// # Errors
/// A trap or an exhausted step budget, with the module's name.
pub fn reference(module: &cwsp_ir::module::Module, t: &mut Tracer) -> Result<Outcome, String> {
    t.span("ref.run", |_| {
        cwsp_ir::reference::run_ref(module, MAX_STEPS)
    })
    .map_err(|e| format!("{}: reference run failed: {e}", module.name))
}

/// Compare an execution's output, return value and program data (see
/// `layout::is_program_data`) with the reference.
///
/// # Errors
/// The first difference found.
pub fn compare(
    output: &[Word],
    return_value: Option<Word>,
    memory: &Memory,
    reference: &Outcome,
) -> Result<(), String> {
    if return_value != reference.return_value {
        return Err(format!(
            "return value {return_value:?}, reference {:?}",
            reference.return_value
        ));
    }
    if output != reference.output.as_slice() {
        let at = output
            .iter()
            .zip(&reference.output)
            .position(|(a, b)| a != b);
        return Err(format!(
            "output: {} words, reference {} (first difference at {at:?})",
            output.len(),
            reference.output.len()
        ));
    }
    let diffs = memory.diff_where(&reference.memory, layout::is_program_data, 4);
    if !diffs.is_empty() {
        return Err(format!("program data differs: {diffs:x?}"));
    }
    Ok(())
}

/// The simulated counters the benchmark reports, in the order of
/// [`SIM_COUNTERS`].
pub fn sim_counters(s: &SimStats) -> [u64; 17] {
    [
        s.cycles,
        s.insts,
        s.stall_pb,
        s.stall_rbt,
        s.stall_wb,
        s.stall_sync,
        s.stall_wpq,
        s.stall_scheme,
        s.log_appends,
        s.nvm_reads,
        s.nvm_writes,
        s.ckpt_stores,
        s.regions,
        s.pb_occupancy_sum,
        s.l1.1,
        s.llc_sram.1,
        s.dram_cache.1,
    ]
}

/// Names of [`sim_counters`], as per-layer metrics.
pub const SIM_COUNTERS: [&str; 17] = [
    "sim.cycles",
    "sim.insts",
    "sim.stall_pb",
    "sim.stall_rbt",
    "sim.stall_wb",
    "sim.stall_sync",
    "sim.stall_wpq",
    "sim.stall_scheme",
    "sim.log_appends",
    "sim.nvm_reads",
    "sim.nvm_writes",
    "sim.ckpt_stores",
    "sim.regions",
    "sim.pb_occupancy_sum",
    "sim.l1_misses",
    "sim.llc_misses",
    "sim.dram_cache_misses",
];

/// Record the simulated counters of `s` into `t` and return them.
pub fn count_sim(s: &SimStats, t: &mut Tracer) -> Vec<u64> {
    let v = sim_counters(s);
    for (name, n) in SIM_COUNTERS.iter().zip(v) {
        t.count(name, n);
    }
    v.to_vec()
}

/// The determinism guard: every item must repeat its counters exactly in
/// every pass, and no item that simulates may simulate nothing.
#[derive(Debug, Default)]
pub struct Guard {
    first: Vec<Option<Vec<u64>>>,
}

impl Guard {
    /// A guard for a pass of `items` items.
    pub fn new(items: usize) -> Self {
        Guard {
            first: vec![None; items],
        }
    }

    /// Check item `i`'s result against its first pass.
    ///
    /// # Errors
    /// `sim.insts == 0`, or counters that differ from the first pass.
    pub fn check(&mut self, i: usize, item: &Item) -> Result<(), String> {
        if item.sim_insts == Some(0) {
            return Err(format!("item {i}: sim.insts == 0, nothing was simulated"));
        }
        let mut counters = item.counters.clone();
        counters.push(item.exact);
        match &self.first[i] {
            None => {
                self.first[i] = Some(counters);
                Ok(())
            }
            Some(first) if *first == counters => Ok(()),
            Some(first) => Err(format!(
                "item {i}: counters changed between passes: {first:?} then {counters:?}"
            )),
        }
    }
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut cwsp_core::prng::SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}
