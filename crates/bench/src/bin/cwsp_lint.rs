//! `cwsp-lint` — command-line front-end for the static crash-consistency
//! verifier (`cwsp-analyzer`).
//!
//! Targets are compiled with the default pipeline (memoized by the engine)
//! and the compiled module + slice table are analyzed; `--raw` skips
//! compilation and lints a module file as-is (empty slice table), which is
//! how one inspects hand-written IR before it ever reaches the compiler.
//!
//! The process exits non-zero iff any error-severity diagnostic was
//! reported, so the binary slots directly into CI. Analyzer counters are
//! published through the metrics registry and merged into
//! `results/BENCH_harness.json` under the top-level `analyzer` key.

use cwsp_analyzer::{
    analyze_incremental_observed, analyze_observed, analyze_with, analyze_with_cache, persist,
    AnalysisCache, AnalyzeOptions, PersistCounters, RaceStats, Report, Severity, SCHEMA_VERSION,
};
use cwsp_bench::engine;
use cwsp_compiler::pipeline::{CompileOptions, Compiled};
use cwsp_compiler::slice::SliceTable;
use cwsp_core::genprog;
use cwsp_ir::module::Module;
use cwsp_obs::json::{obj, Value};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
cwsp-lint: static crash-consistency verifier for cWSP modules

USAGE:
  cwsp-lint --all                        analyze every built-in workload
  cwsp-lint --workload NAME              analyze one built-in workload
  cwsp-lint --multicore                  analyze the built-in multi-core workloads
  cwsp-lint --genprog N [--seed-base S]  analyze N generated programs
  cwsp-lint --genprog-mc N [--seed-base S]
                                         analyze N generated concurrent programs
  cwsp-lint FILE [--raw]                 analyze a module text file

OPTIONS:
  --raw           do not compile FILE first; lint it as-is (no slice table)
  --races         run the static race detector + I5 persist-order check
  --interproc     run the interprocedural call-graph/summary lints
  --persist       run the I6 durability-ordering (flush/fence) check
  --autofence     translation-validation mode: apply the compiler's
                  autofence pass to the *raw* (uncompiled) module, then
                  re-prove I6 from scratch over its output. Implies
                  --persist; the cWSP region invariants (I1-I5) do not
                  apply to this scheme and are not run
  --incremental   serve per-function results from the analysis cache
                  (shared across subjects; prints a cache-stats line)
  --cores N       thread contexts for --races (default 2)
  --json[=PATH]   emit a JSON diagnostics document (stdout, or to PATH)
  -h, --help      print this message

EXIT STATUS:
  0  no error-severity diagnostics
  1  at least one error-severity diagnostic
  2  usage or input error
";

enum Target {
    All,
    Workload(String),
    Multicore,
    Genprog { n: u64, seed_base: u64 },
    GenprogMc { n: u64, seed_base: u64 },
    File { path: String, raw: bool },
}

struct Options {
    target: Target,
    json: Option<Option<String>>,
    races: bool,
    interproc: bool,
    persist: bool,
    autofence: bool,
    incremental: bool,
    cores: usize,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut target: Option<Target> = None;
    let mut json: Option<Option<String>> = None;
    let mut raw = false;
    let mut races = false;
    let mut interproc = false;
    let mut persist = false;
    let mut autofence = false;
    let mut incremental = false;
    let mut cores = 2usize;
    let mut genprog_n: Option<u64> = None;
    let mut genprog_mc_n: Option<u64> = None;
    let mut seed_base = 1u64;
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--all" => target = Some(Target::All),
            "--workload" => {
                let name = it.next().ok_or("--workload requires a NAME")?;
                target = Some(Target::Workload(name.clone()));
            }
            "--multicore" => target = Some(Target::Multicore),
            "--genprog" => {
                let n = it.next().ok_or("--genprog requires a count")?;
                genprog_n = Some(n.parse().map_err(|_| format!("bad count `{n}`"))?);
            }
            "--genprog-mc" => {
                let n = it.next().ok_or("--genprog-mc requires a count")?;
                genprog_mc_n = Some(n.parse().map_err(|_| format!("bad count `{n}`"))?);
            }
            "--races" => races = true,
            "--interproc" => interproc = true,
            "--persist" => persist = true,
            "--autofence" => autofence = true,
            "--incremental" => incremental = true,
            "--cores" => {
                let n = it.next().ok_or("--cores requires a value")?;
                cores = n.parse().map_err(|_| format!("bad core count `{n}`"))?;
                if cores == 0 {
                    return Err("--cores must be at least 1".into());
                }
            }
            "--seed-base" => {
                let s = it.next().ok_or("--seed-base requires a value")?;
                seed_base = s.parse().map_err(|_| format!("bad seed `{s}`"))?;
            }
            "--raw" => raw = true,
            "--json" => json = Some(None),
            s if s.starts_with("--json=") => {
                json = Some(Some(s["--json=".len()..].to_string()));
            }
            s if s.starts_with("--") => return Err(format!("unknown option `{s}`")),
            s => {
                if file.replace(s.to_string()).is_some() {
                    return Err("more than one FILE given".into());
                }
            }
        }
    }
    if let Some(n) = genprog_n {
        target = Some(Target::Genprog { n, seed_base });
    }
    if let Some(n) = genprog_mc_n {
        if target.is_some() && genprog_n.is_some() {
            return Err("--genprog and --genprog-mc are mutually exclusive".into());
        }
        target = Some(Target::GenprogMc { n, seed_base });
    }
    if let Some(path) = file {
        if target.is_some() {
            return Err("FILE cannot be combined with --all/--workload/--genprog".into());
        }
        target = Some(Target::File { path, raw });
    }
    let target = target.ok_or("no target given")?;
    Ok(Options {
        target,
        json,
        races,
        interproc,
        persist,
        autofence,
        incremental,
        cores,
    })
}

/// A named analysis subject: either a compiler artifact (module + slices)
/// or a raw module linted with an empty slice table.
enum Subject {
    Artifact(String, Arc<Compiled>),
    Raw(String, Module),
}

impl Subject {
    fn compile(name: &str, module: &Module) -> Subject {
        let c = engine::engine().compiled(module, CompileOptions::default());
        Subject::Artifact(name.to_string(), c)
    }
}

fn gather(target: &Target, cores: usize, raw_mode: bool) -> Result<Vec<Subject>, String> {
    // Translation-validation mode lints the *raw* module: autofence is an
    // alternative persistence scheme, so the cWSP compilation (regions,
    // checkpoints, slices) never enters the picture.
    let prep = |name: &str, module: &Module| {
        if raw_mode {
            Subject::Raw(name.to_string(), module.clone())
        } else {
            Subject::compile(name, module)
        }
    };
    match target {
        Target::All => Ok(cwsp_workloads::all()
            .iter()
            .map(|w| prep(w.name, &w.module))
            .collect()),
        Target::Workload(name) => {
            let w = cwsp_workloads::by_name(name)
                .ok_or_else(|| format!("no built-in workload named `{name}`"))?;
            Ok(vec![prep(w.name, &w.module)])
        }
        Target::Multicore => Ok(cwsp_workloads::multicore::all(cores as u64)
            .into_iter()
            .map(|(name, m)| prep(name, &m))
            .collect()),
        Target::Genprog { n, seed_base } => Ok((0..*n)
            .map(|i| {
                let seed = seed_base + i;
                let m = genprog::generate_default(seed);
                prep(&format!("gen-{seed}"), &m)
            })
            .collect()),
        Target::GenprogMc { n, seed_base } => Ok((0..*n)
            .map(|i| {
                let seed = seed_base + i;
                let m = genprog::generate_concurrent(&genprog::ConcSpec::default(), seed);
                prep(&format!("gen-mc-{seed}"), &m)
            })
            .collect()),
        Target::File { path, raw } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let m = cwsp_ir::parse::parse_module(&text)
                .map_err(|e| format!("parse error in {path}: {e}"))?;
            Ok(vec![if *raw || raw_mode {
                Subject::Raw(path.clone(), m)
            } else {
                Subject::compile(path, &m)
            }])
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("cwsp-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.autofence {
        if opts.races || opts.interproc {
            eprintln!("cwsp-lint: --autofence cannot be combined with --races/--interproc");
            return ExitCode::from(2);
        }
        opts.persist = true;
    }
    let subjects = match gather(&opts.target, opts.cores, opts.autofence) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("cwsp-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    // One registry accumulates analyzer counters across every subject; it
    // doubles as the ObsSink the analyzer publishes through.
    let mut reg = cwsp_obs::Registry::new();
    let empty = SliceTable::new();
    let lint_opts = AnalyzeOptions {
        interproc: opts.interproc,
        races: opts.races,
        persist: opts.persist,
        cores: opts.cores,
    };
    let layered = opts.races || opts.interproc || opts.persist;
    // One shared cache across every subject: with `--incremental`, repeated
    // function bodies (genprog sweeps regenerate shared helpers; re-linting
    // the same target is the common CI pattern) are served from it.
    let mut cache = opts.incremental.then(AnalysisCache::new);
    let mut conc: Option<RaceStats> = None;
    let mut persist: Option<PersistCounters> = None;
    let mut reports: Vec<Report> = Vec::with_capacity(subjects.len());
    for s in &subjects {
        let (name, module, slices): (&str, &Module, &SliceTable) = match s {
            Subject::Artifact(n, c) => (n, &c.module, &c.slices),
            Subject::Raw(n, m) => (n, m, &empty),
        };
        let report = if opts.autofence {
            // Translation validation: run the pass, then re-prove I6 from
            // scratch over its output (the pass and the analyzer share no
            // placement logic). Any diagnostic here is a certification
            // failure.
            let t0 = std::time::Instant::now();
            let mut fenced = module.clone();
            cwsp_compiler::autofence::run(&mut fenced);
            let (diags, pc) = persist::check_module(&fenced);
            publish_persist_counters(&pc, &mut reg);
            let agg = persist.get_or_insert_with(PersistCounters::default);
            agg.functions += pc.functions;
            agg.tracked_stores += pc.tracked_stores;
            agg.flushes += pc.flushes;
            agg.fences += pc.fences;
            agg.commit_points += pc.commit_points;
            agg.errors += pc.errors;
            agg.warnings += pc.warnings;
            let mut report = Report {
                module: name.to_string(),
                diagnostics: diags,
                ..Report::default()
            };
            report.counters.functions = pc.functions;
            report.normalize();
            report.counters.analysis_ns = t0.elapsed().as_nanos() as u64;
            publish_report(&report, &mut reg);
            report
        } else if layered {
            let (report, stats, pc) = match cache.as_mut() {
                Some(c) => analyze_with_cache(module, slices, &lint_opts, c),
                None => analyze_with(module, slices, &lint_opts),
            };
            publish_report(&report, &mut reg);
            if let Some(st) = stats {
                publish_race_stats(&st, &mut reg);
                let agg = conc.get_or_insert_with(RaceStats::default);
                agg.contexts += st.contexts;
                agg.accesses += st.accesses;
                agg.pairs_checked += st.pairs_checked;
                agg.races += st.races;
                agg.i5_escapes += st.i5_escapes;
            }
            if let Some(pc) = pc {
                publish_persist_counters(&pc, &mut reg);
                let agg = persist.get_or_insert_with(PersistCounters::default);
                agg.functions += pc.functions;
                agg.tracked_stores += pc.tracked_stores;
                agg.flushes += pc.flushes;
                agg.fences += pc.fences;
                agg.commit_points += pc.commit_points;
                agg.errors += pc.errors;
                agg.warnings += pc.warnings;
            }
            report
        } else {
            match cache.as_mut() {
                Some(c) => analyze_incremental_observed(module, slices, c, &mut reg),
                None => analyze_observed(module, slices, &mut reg),
            }
        };
        reports.push(report);
    }

    // Human-readable rendering: one line per clean module, full diagnostics
    // otherwise.
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (s, r) in subjects.iter().zip(&reports) {
        let name = match s {
            Subject::Artifact(n, _) | Subject::Raw(n, _) => n,
        };
        errors += r.count(Severity::Error);
        warnings += r.count(Severity::Warning);
        if r.diagnostics.is_empty() {
            println!(
                "{name}: clean ({} regions proven)",
                r.counters.regions_proven
            );
        } else {
            print!("{}", r.render_text());
        }
    }
    if let Some(c) = &cache {
        let st = c.stats();
        println!(
            "incremental cache: {} hits, {} misses, {} invalidations",
            st.hits, st.misses, st.invalidations
        );
    }
    eprintln!(
        "cwsp-lint: {} module(s), {errors} error(s), {warnings} warning(s)",
        reports.len()
    );

    if let Some(dest) = &opts.json {
        let mut doc = vec![
            ("schema_version", SCHEMA_VERSION.into()),
            (
                "tool",
                format!("cwsp-lint {}", env!("CARGO_PKG_VERSION")).into(),
            ),
        ];
        if let Some(c) = &cache {
            let st = c.stats();
            doc.push((
                "incremental",
                obj([
                    ("hits", st.hits.into()),
                    ("misses", st.misses.into()),
                    ("invalidations", st.invalidations.into()),
                ]),
            ));
        }
        doc.push((
            "reports",
            Value::Arr(reports.iter().map(Report::to_value).collect()),
        ));
        let doc = obj(doc).to_pretty();
        match dest {
            Some(path) => {
                if let Some(dir) = std::path::Path::new(path).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                if let Err(e) = std::fs::write(path, &doc) {
                    eprintln!("cwsp-lint: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            None => print!("{doc}"),
        }
    }

    publish_harness(
        &reg,
        &reports,
        conc.as_ref(),
        persist.as_ref(),
        cache.as_ref(),
    );

    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Publish a report's summary counters through the registry — the layered
/// `analyze_with` path has no sink parameter, so the front-end mirrors what
/// `analyze_observed` publishes (plus the race diagnostics now included).
fn publish_report(report: &Report, reg: &mut cwsp_obs::Registry) {
    use cwsp_obs::sink::ObsSink;
    reg.count("analyzer.functions", report.counters.functions as u64);
    reg.count(
        "analyzer.regions_total",
        report.counters.regions_total as u64,
    );
    reg.count(
        "analyzer.regions_proven",
        report.counters.regions_proven as u64,
    );
    reg.count("analyzer.diags_error", report.count(Severity::Error) as u64);
    reg.count(
        "analyzer.diags_warning",
        report.count(Severity::Warning) as u64,
    );
    reg.count("analyzer.diags_info", report.count(Severity::Info) as u64);
}

/// Publish the race detector's aggregate counters through the registry.
fn publish_race_stats(st: &RaceStats, reg: &mut cwsp_obs::Registry) {
    use cwsp_obs::sink::ObsSink;
    reg.count("analyzer.concurrency.contexts", st.contexts as u64);
    reg.count("analyzer.concurrency.accesses", st.accesses as u64);
    reg.count("analyzer.concurrency.pairs_checked", st.pairs_checked);
    reg.count("analyzer.concurrency.races", st.races as u64);
    reg.count("analyzer.concurrency.i5_escapes", st.i5_escapes as u64);
}

/// Publish the I6 durability-ordering counters through the registry.
fn publish_persist_counters(pc: &PersistCounters, reg: &mut cwsp_obs::Registry) {
    use cwsp_obs::sink::ObsSink;
    reg.count("analyzer.persistency.functions", pc.functions as u64);
    reg.count(
        "analyzer.persistency.tracked_stores",
        pc.tracked_stores as u64,
    );
    reg.count("analyzer.persistency.flushes", pc.flushes as u64);
    reg.count("analyzer.persistency.fences", pc.fences as u64);
    reg.count(
        "analyzer.persistency.commit_points",
        pc.commit_points as u64,
    );
    reg.count("analyzer.persistency.errors", pc.errors as u64);
    reg.count("analyzer.persistency.warnings", pc.warnings as u64);
}

/// Merge the accumulated analyzer counters into the harness report as a
/// top-level `analyzer` section (sibling of `figures`). The concurrency and
/// incremental stats nest *inside* this entry; `merge_harness_section`
/// deep-merges object sections, so sibling subsections written by other
/// tools (the fuzz farm's `analyzer.fuzz`, `flight.*`) survive this write.
fn publish_harness(
    reg: &cwsp_obs::Registry,
    reports: &[Report],
    conc: Option<&RaceStats>,
    persist: Option<&PersistCounters>,
    cache: Option<&AnalysisCache>,
) {
    let total_ns: u64 = reports.iter().map(|r| r.counters.analysis_ns).sum();
    let count = |name: &str| Value::Int(reg.counter_value(name));
    let mut fields = vec![
        ("modules".into(), Value::Int(reports.len() as u64)),
        ("functions".into(), count("analyzer.functions")),
        ("regions_total".into(), count("analyzer.regions_total")),
        ("regions_proven".into(), count("analyzer.regions_proven")),
        ("diags_error".into(), count("analyzer.diags_error")),
        ("diags_warning".into(), count("analyzer.diags_warning")),
        ("diags_info".into(), count("analyzer.diags_info")),
        (
            "analysis_ms".into(),
            Value::Float((total_ns as f64 / 1e6 * 100.0).round() / 100.0),
        ),
    ];
    if let Some(st) = conc {
        fields.push((
            "concurrency".into(),
            Value::Obj(vec![
                ("contexts".into(), Value::Int(st.contexts as u64)),
                ("accesses".into(), Value::Int(st.accesses as u64)),
                ("pairs_checked".into(), Value::Int(st.pairs_checked)),
                ("races".into(), Value::Int(st.races as u64)),
                ("i5_escapes".into(), Value::Int(st.i5_escapes as u64)),
            ]),
        ));
    }
    if let Some(pc) = persist {
        fields.push((
            "persistency".into(),
            Value::Obj(vec![
                ("functions".into(), Value::Int(pc.functions as u64)),
                (
                    "tracked_stores".into(),
                    Value::Int(pc.tracked_stores as u64),
                ),
                ("flushes".into(), Value::Int(pc.flushes as u64)),
                ("fences".into(), Value::Int(pc.fences as u64)),
                ("commit_points".into(), Value::Int(pc.commit_points as u64)),
                ("errors".into(), Value::Int(pc.errors as u64)),
                ("warnings".into(), Value::Int(pc.warnings as u64)),
            ]),
        ));
    }
    if let Some(c) = cache {
        let st = c.stats();
        fields.push((
            "incremental".into(),
            Value::Obj(vec![
                ("hits".into(), Value::Int(st.hits)),
                ("misses".into(), Value::Int(st.misses)),
                ("invalidations".into(), Value::Int(st.invalidations)),
            ]),
        ));
    }
    let entry = Value::Obj(fields);
    engine::merge_harness_section("analyzer", entry);
}
