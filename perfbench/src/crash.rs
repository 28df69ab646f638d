//! `crash-recover`: one item is one crash check. It simulates a compiled
//! paper workload under cWSP up to a crash cycle, takes the crash image,
//! runs `core::recovery` and compares output, return value and program data
//! with the reference.
//!
//! A quarter of the checks ([`FLIGHT_SLICES`]) also attach the flight
//! recorder. They rebuild a `ForensicReport` from the journal and the crash
//! frontier, recover with the replay write log and require the report's
//! predicted replay set to match it exactly.

use crate::trace::Tracer;
use crate::{build_workloads, compare, count_sim, reference, Item, Workload, MAX_STEPS};
use cwsp_compiler::pipeline::{Compiled, CwspCompiler};
use cwsp_core::prng::SplitMix64;
use cwsp_core::recovery::{recover, recover_with_write_log, RecoveredRun};
use cwsp_ir::interp::Outcome;
use cwsp_obs::forensics::ForensicReport;
use cwsp_sim::config::SimConfig;
use cwsp_sim::machine::{Machine, RunEnd};
use cwsp_sim::scheme::Scheme;
use cwsp_sim::stats::SimStats;

/// Crash checks per program in one pass. Their crash cycles are spread
/// over the program's run, one in each equal slice of it, so every pass
/// covers early, middle and late crashes of every program and the work of
/// a pass varies little from seed to seed.
pub const CHECKS_PER_PROGRAM: u64 = 8;

/// The slices whose check attaches the flight recorder: a quarter of the
/// checks. They are fixed, so the seed moves crash points but not the mix
/// of plain and investigated checks in the latency tail.
pub const FLIGHT_SLICES: [u64; 2] = [1, 5];

/// A compiled program, its reference outcome and its failure-free length.
pub struct CrashProgram {
    /// Figure label of the workload.
    pub name: &'static str,
    /// The default compiler's output.
    pub compiled: Compiled,
    /// RefInterp's outcome on the original module.
    pub reference: Outcome,
    /// Cycles of a failure-free run under cWSP.
    pub cycles: u64,
}

/// One crash check.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Index into [`CrashBench::programs`].
    pub program: usize,
    /// Cycle at which power fails.
    pub cycle: u64,
    /// Whether the flight recorder is attached and cross-checked.
    pub flight: bool,
}

/// What a check recovered, before the comparison with the reference.
pub struct Recovered {
    /// The recovered execution.
    pub run: RecoveredRun,
    /// Simulated statistics up to the crash.
    pub stats: SimStats,
    /// Flight records read back (0 without the recorder).
    pub flight_records: u64,
}

/// A set-up `crash-recover` workload.
pub struct CrashBench {
    cfg: SimConfig,
    /// The 38 programs, in figure order.
    pub programs: Vec<CrashProgram>,
    /// The checks of one pass.
    pub checks: Vec<Check>,
}

impl CrashBench {
    /// Build and compile the workloads, run their references, measure each
    /// program's failure-free length and draw the crash schedule from
    /// `seed`.
    ///
    /// # Errors
    /// A failing reference or failure-free run.
    pub fn setup(seed: u64, t: &mut Tracer) -> Result<CrashBench, String> {
        let cfg = SimConfig::default();
        let compiler = CwspCompiler::default();
        let mut programs = Vec::new();
        for w in build_workloads(t) {
            let reference = reference(&w.module, t)?;
            let compiled = crate::sim::compile(&compiler, &w.module, t);
            let full = t.span("sim.window", |_| {
                Machine::new(&compiled.module, &cfg, Scheme::cwsp()).run(u64::MAX, None)
            });
            let cycles = match full {
                Ok(r) if r.end == RunEnd::Completed => r.stats.cycles,
                other => return Err(format!("{}: failure-free run: {other:?}", w.name)),
            };
            programs.push(CrashProgram {
                name: w.name,
                compiled,
                reference,
                cycles,
            });
        }
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC2A5_11EC);
        let k = CHECKS_PER_PROGRAM;
        let mut checks = Vec::new();
        for (i, p) in programs.iter().enumerate() {
            for s in 0..k {
                let lo = (p.cycles * s / k).max(1);
                let hi = (p.cycles * (s + 1) / k).max(lo + 1);
                checks.push(Check {
                    program: i,
                    cycle: rng.range_u64(lo, hi),
                    flight: FLIGHT_SLICES.contains(&s),
                });
            }
        }
        Ok(CrashBench {
            cfg,
            programs,
            checks,
        })
    }

    /// Simulate check `c` up to its crash, take the crash image and
    /// recover. With the flight recorder on, also cross-check the forensic
    /// report against the replay.
    ///
    /// # Errors
    /// A trap, a run that did not reach its crash cycle, a failed recovery
    /// or a forensic mismatch.
    pub fn recover(&self, c: &Check, t: &mut Tracer) -> Result<Recovered, String> {
        let p = &self.programs[c.program];
        let module = &p.compiled.module;
        let mut m = t.span("sim.new", |_| {
            Machine::new(module, &self.cfg, Scheme::cwsp())
        });
        if c.flight {
            m.enable_flight()
                .map_err(|e| format!("flight journal: {e}"))?;
        }
        let to_crash = if c.flight {
            "sim.to_crash_flight"
        } else {
            "sim.to_crash"
        };
        let r = t
            .span(to_crash, |_| m.run(u64::MAX, Some(c.cycle)))
            .map_err(|e| e.to_string())?;
        if r.end != RunEnd::PowerFailure {
            return Err(format!("run ended {:?} before cycle {}", r.end, c.cycle));
        }
        let run;
        let mut flight_records = 0;
        if c.flight {
            let (records, frontier) = t.span("forensics.reconstruct", |_| {
                (m.flight_records(), m.frontier())
            });
            let image = t.span("sim.crash_image", |_| m.into_crash_image());
            let mut report = t.span("forensics.reconstruct", |_| {
                ForensicReport::reconstruct(&records, frontier)
            });
            flight_records = records.len() as u64;
            let cap = report.predicted_replay(0).len();
            let (recovered, log) = t
                .span("recovery.recover", |_| {
                    recover_with_write_log(&p.compiled, image, 0, MAX_STEPS, cap)
                })
                .map_err(|e| e.to_string())?;
            let matched = t.span("forensics.cross_check", |_| {
                report.cross_check_core(0, &log.writes);
                report.all_matched()
            });
            if !matched {
                return Err("forensic report does not match the replay".into());
            }
            run = recovered;
        } else {
            let image = t.span("sim.crash_image", |_| m.into_crash_image());
            run = t
                .span("recovery.recover", |_| {
                    recover(&p.compiled, image, 0, MAX_STEPS)
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(Recovered {
            run,
            stats: r.stats,
            flight_records,
        })
    }
}

impl Workload for CrashBench {
    fn len(&self) -> usize {
        self.checks.len()
    }

    fn run(&self, i: usize, t: &mut Tracer) -> Item {
        let c = &self.checks[i];
        let p = &self.programs[c.program];
        let label = format!("{} crash@{}", p.name, c.cycle);
        let rec = match self.recover(c, t) {
            Ok(rec) => rec,
            Err(e) => {
                return Item {
                    error: Some(format!("{label}: {e}")),
                    ..Item::default()
                }
            }
        };
        let mut counters = count_sim(&rec.stats, t);
        t.count("recovery.replayed_steps", rec.run.replayed_steps);
        t.count("recovery.reverted_records", rec.run.reverted_records as u64);
        t.count("flight.records", rec.flight_records);
        counters.extend([
            rec.run.replayed_steps,
            rec.run.reverted_records as u64,
            rec.flight_records,
        ]);
        let run = &rec.run;
        let checked = t.span("verify.compare", |_| {
            compare(&run.output, run.return_value, &run.memory, &p.reference)
        });
        Item {
            error: checked.err().map(|e| format!("{label}: {e}")),
            sim_insts: Some(rec.stats.insts),
            insts: rec.stats.insts,
            exact: rec.stats.cycles,
            counters,
        }
    }
}
