//! `sim-cwsp` and `sim-baseline`: one item runs one of the 38 paper
//! workloads on a fresh machine (empty simulated caches) to completion.
//!
//! `sim-cwsp` runs the program the default `CwspCompiler` produced under
//! `Scheme::cwsp()`, so the persist path does most of the work.
//! `sim-baseline` runs the original program under `Scheme::Baseline`, the
//! denominator of every figure, which skips the persist path.

use crate::trace::Tracer;
use crate::{build_workloads, compare, count_sim, reference, Item, Workload};
use cwsp_compiler::pipeline::{Compiled, CwspCompiler};
use cwsp_ir::interp::Outcome;
use cwsp_ir::module::Module;
use cwsp_sim::config::SimConfig;
use cwsp_sim::machine::{Machine, RunEnd};
use cwsp_sim::scheme::Scheme;
use std::time::Instant;

/// One program and its reference outcome.
pub struct Program {
    /// Figure label of the workload.
    pub name: &'static str,
    /// The module the machine runs.
    pub module: Module,
    /// RefInterp's outcome on the original module.
    pub reference: Outcome,
}

/// A set-up `sim-*` workload.
pub struct SimBench {
    scheme: Scheme,
    cfg: SimConfig,
    /// The 38 programs, in figure order.
    pub programs: Vec<Program>,
}

impl SimBench {
    /// Build the workloads, run their references and, for `cwsp`, compile
    /// them.
    ///
    /// # Errors
    /// A failing reference run.
    pub fn setup(cwsp: bool, t: &mut Tracer) -> Result<SimBench, String> {
        let compiler = CwspCompiler::default();
        let mut programs = Vec::new();
        for w in build_workloads(t) {
            let reference = reference(&w.module, t)?;
            let module = if cwsp {
                compile(&compiler, &w.module, t).module
            } else {
                w.module
            };
            programs.push(Program {
                name: w.name,
                module,
                reference,
            });
        }
        Ok(SimBench {
            scheme: if cwsp {
                Scheme::cwsp()
            } else {
                Scheme::Baseline
            },
            cfg: SimConfig::default(),
            programs,
        })
    }

    /// Host-time attribution over one pass, in nanoseconds: the programs
    /// under `ir::interp::run` (dispatch), under `Scheme::Baseline` and
    /// under this workload's scheme, each machine timed from `Machine::new`
    /// to the end of its run. Each program counts with its best time over
    /// `reps` repetitions.
    ///
    /// # Errors
    /// A trap or an unfinished run.
    pub fn attribution(&self, reps: usize) -> Result<[u64; 3], String> {
        let mut total = [0u64; 3];
        for p in &self.programs {
            let mut best = [u64::MAX; 3];
            for _ in 0..reps {
                let t0 = Instant::now();
                cwsp_ir::interp::run(&p.module, u64::MAX)
                    .map_err(|e| format!("{}: interp: {e}", p.name))?;
                best[0] = best[0].min(t0.elapsed().as_nanos() as u64);
                for (slot, scheme) in [(1, Scheme::Baseline), (2, self.scheme)] {
                    let t0 = Instant::now();
                    let mut m = Machine::new(&p.module, &self.cfg, scheme);
                    let r = m
                        .run(u64::MAX, None)
                        .map_err(|e| format!("{}: {e}", p.name))?;
                    best[slot] = best[slot].min(t0.elapsed().as_nanos() as u64);
                    if r.end != RunEnd::Completed {
                        return Err(format!("{}: run ended {:?}", p.name, r.end));
                    }
                }
            }
            for (t, b) in total.iter_mut().zip(best) {
                *t += b;
            }
        }
        Ok(total)
    }
}

/// Compile `module` with `compiler` inside a `compiler.compile` span whose
/// children are the compiler's own pass spans.
pub fn compile(compiler: &CwspCompiler, module: &Module, t: &mut Tracer) -> Compiled {
    let c = t.span("compiler.compile", |t| {
        compiler.compile_observed(module, &mut t.sink())
    });
    t.count("compiler.insts_after", c.stats.insts_after as u64);
    c
}

impl Workload for SimBench {
    fn len(&self) -> usize {
        self.programs.len()
    }

    fn run(&self, i: usize, t: &mut Tracer) -> Item {
        let p = &self.programs[i];
        let mut m = t.span("sim.new", |_| {
            Machine::new(&p.module, &self.cfg, self.scheme)
        });
        let r = match t.span("sim.run", |_| m.run(u64::MAX, None)) {
            Ok(r) if r.end == RunEnd::Completed => r,
            Ok(r) => return failed(p.name, format!("run ended {:?}", r.end)),
            Err(e) => return failed(p.name, e.to_string()),
        };
        let counters = count_sim(&r.stats, t);
        let checked = t.span("verify.compare", |_| {
            compare(m.output(), m.return_value(0), m.arch_mem(), &p.reference)
        });
        t.span("sim.drop", |_| drop(m));
        Item {
            error: checked.err().map(|e| format!("{}: {e}", p.name)),
            sim_insts: Some(r.stats.insts),
            insts: r.stats.insts,
            exact: r.stats.cycles,
            counters,
        }
    }
}

fn failed(name: &str, why: String) -> Item {
    Item {
        error: Some(format!("{name}: {why}")),
        ..Item::default()
    }
}
