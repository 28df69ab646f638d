//! End-to-end checks on the observability layer: tracing and profiling must
//! never perturb simulation results, the Chrome trace-event export must be
//! well-formed with complete spans on every core track, and the cycle
//! profiler must attribute ≥95% of core-cycles to program sites across
//! workloads and schemes (the exactness guarantee, measured for real).

use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::obs::chrome::PID;
use cwsp::sim::config::SimConfig;
use cwsp::sim::machine::{Machine, RunEnd};
use cwsp::sim::scheme::Scheme;

fn compiled(name: &str) -> cwsp::ir::Module {
    let w = cwsp::workloads::by_name(name).unwrap();
    CwspCompiler::new(CompileOptions::default())
        .compile(&w.module)
        .module
}

#[test]
fn tracing_and_profiling_do_not_perturb_results() {
    for name in ["namd", "rb"] {
        let m = compiled(name);
        let cfg = SimConfig::default();
        let mut plain = Machine::new(&m, &cfg, Scheme::cwsp());
        let r_plain = plain.run(u64::MAX, None).unwrap();
        let mut observed = Machine::new(&m, &cfg, Scheme::cwsp());
        observed.enable_trace(4096);
        observed.enable_profiler();
        let r_obs = observed.run(u64::MAX, None).unwrap();
        assert_eq!(
            r_plain.stats, r_obs.stats,
            "{name}: observation changed the run"
        );
        assert_eq!(r_plain.end, r_obs.end, "{name}");
    }
}

#[test]
fn chrome_trace_has_complete_spans_on_every_core_track() {
    let m = compiled("namd");
    let cfg = SimConfig::default();
    let mut machine = Machine::new(&m, &cfg, Scheme::cwsp());
    machine.enable_trace(65_536);
    let r = machine.run(u64::MAX, None).unwrap();
    assert_eq!(r.end, RunEnd::Completed);
    let chrome = machine.chrome_trace().unwrap();
    for core in 0..cfg.cores as u64 {
        assert!(
            chrome.complete_spans_on(core) >= 1,
            "core {core} track has no complete spans"
        );
    }
    // The JSON text form is loadable: our own parser accepts it and the
    // document has the trace-event envelope.
    let text = chrome.to_json();
    let doc = cwsp::obs::json::parse(&text).expect("trace JSON parses");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    for e in events {
        assert_eq!(e.get("pid").unwrap().as_u64(), Some(PID));
        let ph = e.get("ph").unwrap();
        if matches!(ph, cwsp::obs::json::Value::Str(s) if s == "X") {
            assert!(e.get("dur").unwrap().as_u64().unwrap() >= 1);
        }
    }
}

#[test]
fn profiler_attributes_at_least_95_percent_of_cycles() {
    // The PR's acceptance bar: ≥3 workloads × 2 schemes, ≥95% of cycles at
    // resolvable program sites.
    for name in ["namd", "rb", "sps"] {
        let m = compiled(name);
        for scheme in [Scheme::cwsp(), Scheme::Baseline] {
            let cfg = SimConfig::default();
            let mut machine = Machine::new(&m, &cfg, scheme);
            machine.enable_profiler();
            let r = machine.run(u64::MAX, None).unwrap();
            let flat = machine.flat_profile().unwrap();
            assert_eq!(
                flat.total_cycles,
                r.stats.cycles * cfg.cores as u64,
                "{name}/{}: attribution is not exact",
                scheme.name()
            );
            assert_eq!(flat.accounted_cycles(), flat.total_cycles);
            assert!(
                flat.coverage() >= 0.95,
                "{name}/{}: coverage {:.3} < 0.95",
                scheme.name(),
                flat.coverage()
            );
        }
    }
}

#[test]
fn profiler_attributes_exec_cycles_to_superblocks() {
    // Superblock-granularity attribution under fusion: ≥99% of exec cycles
    // must resolve to a decoded super-op, and the superblock profile must
    // account for every cycle it claims.
    for name in ["namd", "rb", "sps"] {
        let m = compiled(name);
        for scheme in [Scheme::cwsp(), Scheme::Baseline] {
            let cfg = SimConfig::default();
            let mut machine = Machine::new(&m, &cfg, scheme);
            machine.enable_profiler();
            machine.run(u64::MAX, None).unwrap();
            let cov = machine.superblock_coverage().unwrap();
            assert!(
                cov >= 0.99,
                "{name}/{}: superblock coverage {:.4} < 0.99",
                scheme.name(),
                cov
            );
            let sb = machine.superblock_profile().unwrap();
            assert!(sb.total_cycles > 0, "{name}: no exec cycles offered");
            assert_eq!(
                sb.accounted_cycles(),
                (sb.total_cycles as f64 * cov).round() as u64,
                "{name}/{}: superblock rows disagree with coverage",
                scheme.name()
            );
            // Every attributed row names a real function and a super-op.
            for row in &sb.rows {
                assert_ne!(row.func, "<machine>", "{name}: unresolved function");
                assert!(row.region.is_some(), "{name}: row without super-op index");
            }
        }
    }
}

#[test]
fn trace_post_mortem_reports_capacity_and_drops() {
    let m = compiled("lbm");
    let cfg = SimConfig::default();
    let mut machine = Machine::new(&m, &cfg, Scheme::cwsp());
    machine.enable_trace(64); // tiny ring: drops are certain
    let r = machine.run(u64::MAX, Some(20_000)).unwrap();
    assert_eq!(r.end, RunEnd::PowerFailure);
    let t = machine.trace().unwrap();
    assert!(t.dropped() > 0, "expected the 64-event ring to overflow");
    let pm = t.post_mortem(8);
    assert!(pm.contains("ring capacity 64"), "{pm}");
    assert!(pm.contains("TRUNCATED"), "{pm}");
    assert!(
        pm.contains(&format!("{} older events dropped", t.dropped())),
        "{pm}"
    );
}
