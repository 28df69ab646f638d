//! Every correctness check of the benchmark must fail when handed a wrong
//! answer, and the determinism guard must reject what it guards against.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the set-ups simulate all 38 workloads.

use cwsp_analyzer::{Diagnostic, Invariant, Location, Severity};
use cwsp_compiler::autofence;
use cwsp_core::genprog;
use cwsp_ir::layout;
use cwsp_perfbench::crash::CrashBench;
use cwsp_perfbench::lint::{self, Expect};
use cwsp_perfbench::sim::SimBench;
use cwsp_perfbench::trace::Tracer;
use cwsp_perfbench::{compare, Guard, Item, Workload};

fn off() -> Tracer {
    Tracer::new(false)
}

#[test]
fn perturbed_reference_output_fails_a_sim_item() {
    for cwsp in [false, true] {
        let mut bench = SimBench::setup(cwsp, &mut off()).expect("set-up");
        let i = (0..bench.len())
            .min_by_key(|&i| bench.programs[i].reference.steps)
            .expect("programs");
        assert_eq!(
            bench.run(i, &mut off()).error,
            None,
            "unperturbed item passes"
        );
        let out = &mut bench.programs[i].reference.output;
        assert!(!out.is_empty(), "workloads emit a checksum");
        out[0] ^= 1;
        let err = bench.run(i, &mut off()).error;
        assert!(
            err.as_deref().is_some_and(|e| e.contains("output")),
            "cwsp={cwsp}: {err:?}"
        );
    }
}

#[test]
fn lint_verdict_that_misses_an_injected_defect_fails() {
    let mut m = genprog::generate_default(7);
    autofence::run(&mut m);
    let (f, b, i) = genprog::inject_dropped_flush(&mut m).expect("a flush to drop");
    let expect = Expect::Unflushed(m.function(f).name.clone(), b, i);
    let (diags, _) = cwsp_analyzer::persist::check_module(&m);
    assert_eq!(
        lint::judge(&expect, &diags),
        Ok(()),
        "the analyzer catches it"
    );
    // A verdict that misses the defect: drop every finding of its rule.
    let missed: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|d| d.code != "I6-unflushed-store")
        .collect();
    assert!(lint::judge(&expect, &missed).is_err());
    // A defect reported at the wrong place does not count either.
    let elsewhere = Expect::Unflushed(m.function(f).name.clone(), b + 1000, i);
    assert!(lint::judge(&elsewhere, &missed).is_err());
}

#[test]
fn lint_error_on_a_clean_module_fails() {
    assert_eq!(lint::judge(&Expect::Clean, &[]), Ok(()));
    let bogus = Diagnostic {
        severity: Severity::Error,
        invariant: Invariant::Idempotence,
        code: "I1-mem-war",
        message: "planted".into(),
        location: Location {
            function: "main".into(),
            block: 0,
            inst: Some(0),
        },
        region: Some(1),
        witness: None,
    };
    assert!(lint::judge(&Expect::Clean, &[bogus]).is_err());
}

#[test]
fn lint_items_catch_every_injected_defect() {
    let bench = lint::LintBench::setup(3, &mut off());
    let mut t = Tracer::new(true);
    for i in 0..bench.len() {
        let item = bench.run(i, &mut t);
        assert_eq!(item.error, None, "item {i}");
    }
    let counts = t.counts();
    assert!(counts["defects.injected"] > 0);
    assert_eq!(counts["defects.caught"], counts["defects.injected"]);
}

#[test]
fn layered_analysis_matches_analyze_with() {
    let mut modules: Vec<(cwsp_ir::module::Module, bool)> = cwsp_workloads::all()
        .into_iter()
        .take(6)
        .map(|w| (w.module, false))
        .collect();
    modules.push((genprog::generate_default(11), false));
    for seed in 0..3 {
        let mut m = genprog::generate_concurrent(&genprog::ConcSpec::default(), seed);
        if seed == 2 {
            genprog::inject_unsynced_store(&mut m).expect("shared global");
        }
        modules.push((m, true));
    }
    let key = |d: &Diagnostic| (d.code, d.location.to_string(), d.region, d.severity);
    for (m, concurrent) in modules {
        let c = cwsp_compiler::pipeline::CwspCompiler::default().compile(&m);
        let opts = cwsp_analyzer::AnalyzeOptions {
            interproc: true,
            races: concurrent,
            persist: false,
            cores: 2,
        };
        let (whole, _, _) = cwsp_analyzer::analyze_with(&c.module, &c.slices, &opts);
        let layered = lint::analyze(&c.module, &c.slices, concurrent, &mut off());
        let mut a: Vec<_> = whole.diagnostics.iter().map(key).collect();
        let mut b: Vec<_> = layered.diags.iter().map(key).collect();
        a.sort();
        a.dedup();
        b.sort();
        b.dedup();
        assert_eq!(a, b, "{}", m.name);
        assert_eq!(
            layered.regions_proven(),
            whole.counters.regions_proven,
            "{}",
            m.name
        );
    }
}

#[test]
fn flipped_program_data_word_fails_a_crash_item() {
    let bench = CrashBench::setup(5, &mut off()).expect("set-up");
    let i = (0..bench.len())
        .filter(|&i| !bench.checks[i].flight)
        .min_by_key(|&i| bench.checks[i].cycle)
        .expect("a check");
    assert_eq!(
        bench.run(i, &mut off()).error,
        None,
        "unperturbed check passes"
    );
    let c = bench.checks[i];
    let reference = &bench.programs[c.program].reference;
    let mut rec = bench.recover(&c, &mut off()).expect("recovers");
    let run = &mut rec.run;
    assert_eq!(
        compare(&run.output, run.return_value, &run.memory, reference),
        Ok(())
    );
    let (addr, v) = run
        .memory
        .iter()
        .find(|&(a, _)| layout::is_program_data(a))
        .expect("program data");
    run.memory.store(addr, v ^ 1);
    let err = compare(&run.output, run.return_value, &run.memory, reference);
    assert!(
        err.as_ref().is_err_and(|e| e.contains("program data")),
        "{err:?}"
    );
}

#[test]
fn flight_checks_cross_check_the_forensic_report() {
    let bench = CrashBench::setup(5, &mut off()).expect("set-up");
    let mut t = Tracer::new(true);
    let i = (0..bench.len())
        .filter(|&i| bench.checks[i].flight)
        .min_by_key(|&i| bench.checks[i].cycle)
        .expect("a flight check");
    assert_eq!(bench.run(i, &mut t).error, None);
    assert!(t.counts()["flight.records"] > 0);
    assert!(t.self_ns().contains_key("forensics.cross_check"));
}

#[test]
fn guard_rejects_an_empty_simulation_and_changed_counters() {
    let item = |insts: u64, cycles: u64| Item {
        sim_insts: Some(insts),
        insts,
        exact: cycles,
        counters: vec![cycles, insts],
        ..Item::default()
    };
    let mut g = Guard::new(2);
    assert!(g
        .check(0, &item(0, 5))
        .unwrap_err()
        .contains("sim.insts == 0"));
    assert_eq!(g.check(1, &item(10, 50)), Ok(()));
    assert_eq!(g.check(1, &item(10, 50)), Ok(()));
    assert!(g.check(1, &item(10, 51)).is_err());
}

#[test]
fn sim_counters_repeat_exactly_across_passes() {
    let bench = SimBench::setup(true, &mut off()).expect("set-up");
    let mut g = Guard::new(bench.len());
    for _ in 0..2 {
        for i in 0..bench.len() {
            let item = bench.run(i, &mut off());
            assert_eq!(item.error, None);
            g.check(i, &item).expect("deterministic");
        }
    }
}
