//! Exactness of the simulated persist path.
//!
//! * A power failure requested at cycle `c` lands on exactly `c`, whether or
//!   not the machine fast-forwards through idle cycles: a plain run and a
//!   profiled run (which never fast-forwards) agree on the statistics, the
//!   crash frontier and the crash image.
//! * A digest of (SimStats, frontier, crash image) over a fixed set of
//!   workloads and scheme variants, for full runs and crash runs, is pinned.
//!   Any rewrite of the persist-path bookkeeping must reproduce every
//!   simulated result bit for bit.
//! * A digest of the flight journal over the same runs is pinned too, so a
//!   rewrite of the machine's instrumentation hooks must record the same
//!   persist lineage, record for record.

use cwsp::compiler::autofence;
use cwsp::compiler::pipeline::{CompileOptions, CwspCompiler};
use cwsp::ir::fxhash::FxHasher;
use cwsp::ir::Module;
use cwsp::obs::forensics::MachineFrontier;
use cwsp::sim::config::SimConfig;
use cwsp::sim::machine::{Machine, RunEnd};
use cwsp::sim::scheme::{CwspFeatures, Scheme};
use cwsp::sim::stats::SimStats;
use std::hash::Hasher;

/// Which binary a scheme runs: the cWSP-compiled program, the original, or
/// the original after automated flush/fence insertion.
#[derive(Clone, Copy)]
enum Binary {
    Compiled,
    Original,
    Fenced,
}

/// One scheme/config variant of the exactness matrix.
struct Variant {
    name: &'static str,
    scheme: Scheme,
    cfg: SimConfig,
    binary: Binary,
}

fn cwsp_with(f: impl FnOnce(&mut CwspFeatures)) -> Scheme {
    let mut feats = CwspFeatures::default();
    f(&mut feats);
    Scheme::Cwsp(feats)
}

fn variants() -> Vec<Variant> {
    let small = SimConfig {
        pb_entries: 8,
        rbt_entries: 4,
        wpq_entries: 4,
        persist_path_gbps: 1.0,
        ..SimConfig::default()
    };
    let v = |name, scheme, cfg, binary| Variant {
        name,
        scheme,
        cfg,
        binary,
    };
    vec![
        v(
            "cwsp",
            Scheme::cwsp(),
            SimConfig::default(),
            Binary::Compiled,
        ),
        v("cwsp-small", Scheme::cwsp(), small, Binary::Compiled),
        v(
            "cwsp-nospec",
            cwsp_with(|f| f.mc_speculation = false),
            SimConfig::default(),
            Binary::Compiled,
        ),
        v(
            "cwsp-nowbdelay",
            cwsp_with(|f| f.wb_delay = false),
            SimConfig::default(),
            Binary::Compiled,
        ),
        v(
            "capri",
            Scheme::Capri,
            SimConfig::default(),
            Binary::Compiled,
        ),
        v(
            "replaycache",
            Scheme::ReplayCache,
            SimConfig::default(),
            Binary::Compiled,
        ),
        v(
            "autofence",
            Scheme::AutoFence,
            SimConfig::default(),
            Binary::Fenced,
        ),
        v(
            "baseline",
            Scheme::Baseline,
            SimConfig::default(),
            Binary::Original,
        ),
    ]
}

/// The four-core DRF program, so regions of several cores interleave at
/// each memory controller.
const MULTICORE: &str = "drf-4core";

fn program(name: &str) -> (Module, usize) {
    if name == MULTICORE {
        (cwsp::workloads::multicore::drf_partition_sum(4).0, 4)
    } else {
        (cwsp::workloads::by_name(name).unwrap().module, 1)
    }
}

fn binary(original: &Module, kind: Binary) -> Module {
    match kind {
        Binary::Compiled => {
            CwspCompiler::new(CompileOptions::default())
                .compile(original)
                .module
        }
        Binary::Original => original.clone(),
        Binary::Fenced => {
            let mut m = original.clone();
            autofence::run(&mut m);
            m
        }
    }
}

/// Everything a run leaves behind that the persist path can influence.
#[derive(Debug, PartialEq)]
struct Snapshot {
    end: RunEnd,
    stats: SimStats,
    frontier: MachineFrontier,
    /// Crash image: non-zero NVM words sorted by address, released output,
    /// per-core resume metadata and the reverted undo-log record count.
    nvm: Vec<(u64, u64)>,
    output: Vec<u64>,
    resume: String,
    reverted: usize,
}

fn snapshot(
    m: &Module,
    cfg: &SimConfig,
    scheme: Scheme,
    crash: Option<u64>,
    prof: bool,
) -> Snapshot {
    let mut machine = Machine::new(m, cfg, scheme);
    if prof {
        machine.enable_profiler();
    }
    let r = machine.run(u64::MAX, crash).unwrap();
    let frontier = machine.frontier();
    let image = machine.into_crash_image();
    let mut nvm: Vec<(u64, u64)> = image.nvm.iter().collect();
    nvm.sort_unstable();
    Snapshot {
        end: r.end,
        stats: r.stats,
        frontier,
        nvm,
        output: image.output,
        resume: format!("{:?}", image.resume),
        reverted: image.reverted_records,
    }
}

/// Three crash cycles spread over a failure-free run of `cycles` cycles.
fn crash_points(cycles: u64) -> [u64; 3] {
    [cycles / 5 + 7, cycles / 2 + 3, cycles * 7 / 8 + 1]
}

#[test]
fn crash_lands_on_the_requested_cycle_with_or_without_fast_forward() {
    let all = variants();
    let mut pairs = 0;
    for name in ["gobmk", "lbm", "sps", MULTICORE] {
        let (original, cores) = program(name);
        for v in all
            .iter()
            .filter(|v| ["cwsp", "cwsp-small", "capri", "autofence"].contains(&v.name))
        {
            let m = binary(&original, v.binary);
            let cfg = SimConfig {
                cores,
                ..v.cfg.clone()
            };
            let full = snapshot(&m, &cfg, v.scheme, None, false);
            for c in crash_points(full.stats.cycles) {
                let what = format!("{name}/{} crash@{c}", v.name);
                let plain = snapshot(&m, &cfg, v.scheme, Some(c), false);
                assert_eq!(plain.end, RunEnd::PowerFailure, "{what}");
                assert_eq!(plain.stats.cycles, c, "{what}: stats.cycles");
                assert_eq!(plain.frontier.crash_cycle, c, "{what}: frontier");
                let profiled = snapshot(&m, &cfg, v.scheme, Some(c), true);
                assert_eq!(plain, profiled, "{what}: fast-forward changed the crash");
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 48);
}

const GOLDEN_WORKLOADS: [&str; 7] = ["namd", "gobmk", "lbm", "ocg", "rb", "tatp", MULTICORE];

/// Per-variant digests over [`GOLDEN_WORKLOADS`]: `run` hashes one run of a
/// program (crash cycle, or `None` for the full run), called for the full
/// run plus the three [`crash_points`] runs. Asserts they equal `pinned`.
fn assert_digests(
    pinned: [(&str, u64); 8],
    run: impl Fn(&mut FxHasher, &Module, &SimConfig, Scheme, Option<u64>),
) {
    let programs: Vec<(Module, usize)> = GOLDEN_WORKLOADS.iter().map(|&n| program(n)).collect();
    let mut got = Vec::new();
    for v in variants() {
        let mut h = FxHasher::default();
        for (original, cores) in &programs {
            let m = binary(original, v.binary);
            let cfg = SimConfig {
                cores: *cores,
                ..v.cfg.clone()
            };
            let full = Machine::new(&m, &cfg, v.scheme)
                .run(u64::MAX, None)
                .unwrap();
            assert_eq!(full.end, RunEnd::Completed, "{}", v.name);
            run(&mut h, &m, &cfg, v.scheme, None);
            for c in crash_points(full.stats.cycles) {
                run(&mut h, &m, &cfg, v.scheme, Some(c));
            }
        }
        got.push((v.name, h.finish()));
    }
    let table: String = got
        .iter()
        .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got, pinned, "results moved; digests now:\n{table}");
}

/// Digests of (SimStats, frontier, crash image) per variant.
const GOLDEN: [(&str, u64); 8] = [
    ("cwsp", 0x6cc176750d9ecd8b),
    ("cwsp-small", 0x28d5a2a820d64f44),
    ("cwsp-nospec", 0x1e1a8a17663fd94c),
    ("cwsp-nowbdelay", 0x6cc176750d9ecd8b),
    ("capri", 0xc9f53461b4b54a47),
    ("replaycache", 0x2dc63d7a3261a77a),
    ("autofence", 0x0e2ce51749468277),
    ("baseline", 0xa78ee9fa9f706ee7),
];

#[test]
fn persist_path_results_match_the_pinned_digests() {
    assert_digests(GOLDEN, |h, m, cfg, scheme, crash| {
        h.write(format!("{:?}", snapshot(m, cfg, scheme, crash, false)).as_bytes());
    });
}

/// Digests of every flight-journal record, in journal order, per variant.
const GOLDEN_JOURNAL: [(&str, u64); 8] = [
    ("cwsp", 0x8658ce1a4d4f86f3),
    ("cwsp-small", 0x8ddd2bbce4ac3afd),
    ("cwsp-nospec", 0x5983339653030686),
    ("cwsp-nowbdelay", 0x8658ce1a4d4f86f3),
    ("capri", 0x5021aed32e013c85),
    ("replaycache", 0xd41c44e559e72d04),
    ("autofence", 0xec6f843552b75014),
    ("baseline", 0xa91e26da38a5f77b),
];

#[test]
fn flight_journals_match_the_pinned_digests() {
    assert_digests(GOLDEN_JOURNAL, |h, m, cfg, scheme, crash| {
        let mut machine = Machine::new(m, cfg, scheme);
        machine.enable_flight().expect("flight journal");
        machine.run(u64::MAX, crash).unwrap();
        for r in machine.flight_records() {
            h.write(format!("{r:?}").as_bytes());
        }
    });
}
