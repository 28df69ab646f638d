//! `lint`: one item is one module put through the compiler and the
//! analyzer, with no simulation.
//!
//! The module is compiled with the default `CwspCompiler` and analysed for
//! I1–I4 and lints, the interprocedural summaries and, for concurrent
//! modules, races and I5: the layers `analyzer::analyze_with` composes,
//! called one by one so that each can be timed. Separately, the raw module
//! goes through `compiler::autofence::run` and the I6 check
//! `analyzer::persist::check_module` (translation validation).
//!
//! A seeded share of modules gets one defect from `genprog::inject_*`.
//! Verdicts cut both ways: a clean module must draw no error-severity
//! finding, and an injected defect must be reported at its location.

use crate::trace::Tracer;
use crate::{build_workloads, Item, Workload};
use cwsp_analyzer::callgraph::CallGraph;
use cwsp_analyzer::races::{check_concurrency, RaceOptions};
use cwsp_analyzer::summaries::{self, Summaries};
use cwsp_analyzer::{persist, Diagnostic, Severity};
use cwsp_compiler::autofence;
use cwsp_compiler::pipeline::CwspCompiler;
use cwsp_compiler::slice::SliceTable;
use cwsp_core::genprog::{self, ConcSpec};
use cwsp_core::prng::SplitMix64;
use cwsp_ir::module::Module;
use std::collections::BTreeSet;

/// Modules from `genprog::generate_default` in one pass.
pub const SEQ_MODULES: usize = 200;
/// Modules from `genprog::generate_concurrent` in one pass; the race layer
/// runs on these.
pub const CONC_MODULES: usize = 40;
/// Share of modules that get one injected defect.
pub const DEFECT_SHARE: f64 = 0.3;

/// A defect `genprog` can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// `inject_dropped_ckpt` on the compiled module (I2).
    DroppedCkpt,
    /// `inject_unsynced_store` on the compiled concurrent module (races).
    UnsyncedStore,
    /// `inject_dropped_flush` on the autofenced module (I6).
    DroppedFlush,
    /// `inject_dropped_fence` on the autofenced module (I6).
    DroppedFence,
}

/// One module of the corpus.
pub struct LintInput {
    /// The raw module.
    pub module: Module,
    /// Whether it runs on two cores, so the race layer applies.
    pub concurrent: bool,
    /// The defect to inject, if any.
    pub defect: Option<Defect>,
}

/// What an analysis must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// No error-severity finding.
    Clean,
    /// `I2-unsynced-slot` on this region.
    UnsyncedSlot(u32),
    /// `R-data-race` at the first instruction of this function.
    Race(String),
    /// `I6-unflushed-store` whose witness starts at this store.
    Unflushed(String, u32, usize),
    /// `I6-unfenced-flush` at this commit.
    Unfenced(String, u32, usize),
}

/// Whether `diags` is the verdict `expect` asks for.
///
/// # Errors
/// An error-severity finding on a clean module, or a defect not reported at
/// its location.
pub fn judge(expect: &Expect, diags: &[Diagnostic]) -> Result<(), String> {
    let errors = || diags.iter().filter(|d| d.severity == Severity::Error);
    let at = |d: &Diagnostic, f: &str, b: u32, i: usize| {
        d.location.function == f && d.location.block == b && d.location.inst == Some(i)
    };
    let hit = match expect {
        Expect::Clean => {
            return match errors().next() {
                None => Ok(()),
                Some(d) => Err(format!("clean module drew {d}")),
            }
        }
        Expect::UnsyncedSlot(r) => {
            errors().any(|d| d.code == "I2-unsynced-slot" && d.region == Some(*r))
        }
        Expect::Race(f) => errors().any(|d| {
            d.code == "R-data-race"
                && (at(d, f, 0, 0)
                    || d.witness
                        .as_ref()
                        .is_some_and(|w| w.steps.iter().any(|s| s.block == 0 && s.idx == 0)))
        }),
        Expect::Unflushed(f, b, i) => errors().any(|d| {
            d.code == "I6-unflushed-store"
                && d.location.function == *f
                && d.witness.as_ref().is_some_and(|w| {
                    w.steps
                        .first()
                        .is_some_and(|s| s.block == *b && s.idx == *i)
                })
        }),
        Expect::Unfenced(f, b, i) => {
            errors().any(|d| d.code == "I6-unfenced-flush" && at(d, f, *b, *i))
        }
    };
    if hit {
        Ok(())
    } else {
        Err(format!("injected defect {expect:?} not reported"))
    }
}

/// Findings of the compiled module's analysis layers.
pub struct Analysis {
    /// Every finding of I1–I4, lints, interprocedural and race layers.
    pub diags: Vec<Diagnostic>,
    /// Regions in the module.
    pub regions_total: usize,
}

impl Analysis {
    /// Regions no error-severity finding names.
    pub fn regions_proven(&self) -> usize {
        let bad: BTreeSet<u32> = self
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .filter_map(|d| d.region)
            .collect();
        self.regions_total.saturating_sub(bad.len())
    }
}

/// Run the layers `analyze_with` composes (with `interproc`, and `races`
/// for concurrent modules), each in its own span.
pub fn analyze(module: &Module, slices: &SliceTable, concurrent: bool, t: &mut Tracer) -> Analysis {
    let core = t.span("analyzer.core", |_| cwsp_analyzer::analyze(module, slices));
    let mut diags = core.diagnostics;
    diags.extend(t.span("analyzer.interproc", |_| {
        let cg = CallGraph::compute(module);
        let sums = Summaries::compute(module, &cg);
        summaries::check_module(module, &cg, &sums)
    }));
    if concurrent {
        let races = t.span("analyzer.races", |_| {
            check_concurrency(module, &RaceOptions::default())
        });
        diags.extend(races.diagnostics);
    }
    Analysis {
        diags,
        regions_total: core.counters.regions_total,
    }
}

/// A set-up `lint` workload.
pub struct LintBench {
    /// The corpus of one pass: the 38 paper workloads, then the seeded
    /// sequential and concurrent `genprog` modules.
    pub inputs: Vec<LintInput>,
}

impl LintBench {
    /// Build the corpus for `seed` and draw its defects.
    pub fn setup(seed: u64, t: &mut Tracer) -> LintBench {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x11E7_C0DE);
        let mut modules: Vec<(Module, bool)> = build_workloads(t)
            .into_iter()
            .map(|w| (w.module, false))
            .collect();
        let base = rng.next_u64();
        t.span("workloads.build", |_| {
            for i in 0..SEQ_MODULES as u64 {
                modules.push((genprog::generate_default(base.wrapping_add(i)), false));
            }
            for i in 0..CONC_MODULES as u64 {
                let m = genprog::generate_concurrent(&ConcSpec::default(), base.wrapping_add(i));
                modules.push((m, true));
            }
        });
        let inputs = modules
            .into_iter()
            .map(|(module, concurrent)| {
                let defect = rng.chance(DEFECT_SHARE).then(|| {
                    if concurrent {
                        Defect::UnsyncedStore
                    } else {
                        [
                            Defect::DroppedCkpt,
                            Defect::DroppedFlush,
                            Defect::DroppedFence,
                        ][rng.index(3)]
                    }
                });
                LintInput {
                    module,
                    concurrent,
                    defect,
                }
            })
            .collect();
        LintBench { inputs }
    }
}

impl Workload for LintBench {
    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn run(&self, i: usize, t: &mut Tracer) -> Item {
        let inp = &self.inputs[i];
        let compiled = crate::sim::compile(&CwspCompiler::default(), &inp.module, t);
        let mut module = compiled.module;
        let slices = compiled.slices;
        let mut on_compiled = Expect::Clean;
        let mut fenced = t.span("compiler.autofence", |_| {
            let mut m = inp.module.clone();
            autofence::run(&mut m);
            m
        });
        let mut on_fenced = Expect::Clean;
        let entry_name = |m: &Module| m.entry().map(|f| m.function(f).name.clone());
        t.span("defects.inject", |_| match inp.defect {
            Some(Defect::DroppedCkpt) => {
                if let Some((r, _)) = genprog::inject_dropped_ckpt(&mut module, &slices) {
                    on_compiled = Expect::UnsyncedSlot(r.0);
                }
            }
            Some(Defect::UnsyncedStore) => {
                if let (Some(_), Some(f)) = (
                    genprog::inject_unsynced_store(&mut module),
                    entry_name(&module),
                ) {
                    on_compiled = Expect::Race(f);
                }
            }
            Some(Defect::DroppedFlush) => {
                if let Some((f, b, i)) = genprog::inject_dropped_flush(&mut fenced) {
                    on_fenced = Expect::Unflushed(fenced.function(f).name.clone(), b, i);
                }
            }
            Some(Defect::DroppedFence) => {
                if let Some((f, b, i)) = genprog::inject_dropped_fence(&mut fenced) {
                    on_fenced = Expect::Unfenced(fenced.function(f).name.clone(), b, i);
                }
            }
            None => {}
        });
        let analysis = analyze(&module, &slices, inp.concurrent, t);
        let (persist_diags, _) = t.span("analyzer.persist", |_| persist::check_module(&fenced));

        let injected = [&on_compiled, &on_fenced]
            .iter()
            .filter(|e| ***e != Expect::Clean)
            .count() as u64;
        let verdict = t.span("verify.compare", |_| {
            judge(&on_compiled, &analysis.diags).and_then(|()| judge(&on_fenced, &persist_diags))
        });
        let caught = if verdict.is_ok() { injected } else { 0 };
        let diags_error = analysis
            .diags
            .iter()
            .chain(&persist_diags)
            .filter(|d| d.severity == Severity::Error)
            .count() as u64;
        let size = (module.inst_count() + fenced.inst_count()) as u64;
        let counters = vec![
            analysis.regions_total as u64,
            analysis.regions_proven() as u64,
            diags_error,
            injected,
            caught,
        ];
        for (name, n) in [
            "analyzer.regions_total",
            "analyzer.regions_proven",
            "analyzer.diags_error",
            "defects.injected",
            "defects.caught",
        ]
        .into_iter()
        .zip(&counters)
        {
            t.count(name, *n);
        }
        Item {
            error: verdict.err().map(|e| format!("{}: {e}", inp.module.name)),
            sim_insts: None,
            insts: size,
            exact: size,
            counters,
        }
    }
}
