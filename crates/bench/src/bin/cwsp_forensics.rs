//! `cwsp-forensics` — post-crash investigation from the command line.
//!
//! Crash a workload at a chosen cycle (or a seeded sweep of cycles), rebuild
//! the persist frontier from the flight journal, and cross-check the
//! predicted replay set against an instrumented recovery. Exit code 2 means
//! the forensic prediction diverged from what recovery actually replayed —
//! the one outcome CI must never see.
//!
//! ```sh
//! cargo run --release -p cwsp-bench --bin cwsp-forensics -- -w tatp -k 20000
//! cargo run --release -p cwsp-bench --bin cwsp-forensics -- --sweep 25 --json
//! ```
//!
//! `--json` prints the machine-readable document (`--json=PATH` writes it to
//! a file instead); sweep summaries also land in the result spine's
//! telemetry keyspace. `CWSP_FLIGHT_DIR` persists the journal to disk so it
//! survives the process.

use cwsp_bench::forensics::{investigate, investigation_json, sweep, sweep_json, system_for};
use cwsp_obs::json::Value;
use std::cell::Cell;

const USAGE: &str = "\
cwsp-forensics: crash-injection forensics over the flight journal

USAGE:
    cwsp-forensics [OPTIONS]

OPTIONS:
    -w, --workload NAME   workload to crash (default: tatp; see list_workloads)
    -k, --kill-cycle N    power-fail cycle for a single investigation (default: 20000)
        --sweep N         run N seeded kill-cycle injections instead of one
        --seed N          sweep seed (default: 0)
        --json[=PATH]     emit JSON (to stdout, or to PATH)
    -h, --help            this text

EXIT CODES:
    0  every cross-check matched (or the run completed before the kill)
    1  bad arguments / unknown workload / simulation error
    2  forensic frontier diverged from the recovery replay";

struct Opts {
    workload: String,
    kill_cycle: u64,
    sweep: Option<usize>,
    seed: u64,
    json: Option<Option<String>>,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: "tatp".to_string(),
        kill_cycle: 20_000,
        sweep: None,
        seed: 0,
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match a.as_str() {
            "-w" | "--workload" => o.workload = take("--workload")?,
            "-k" | "--kill-cycle" => {
                o.kill_cycle = take("--kill-cycle")?
                    .parse()
                    .map_err(|e| format!("--kill-cycle: {e}"))?;
            }
            "--sweep" => {
                o.sweep = Some(
                    take("--sweep")?
                        .parse()
                        .map_err(|e| format!("--sweep: {e}"))?,
                );
            }
            "--seed" => {
                o.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--json" => o.json = Some(None),
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            _ if a.starts_with("--json=") => {
                o.json = Some(Some(a["--json=".len()..].to_string()));
            }
            _ => return Err(format!("unknown argument {a:?} (try --help)")),
        }
    }
    Ok(o)
}

fn emit(doc: &Value, dest: &Option<String>) {
    let text = doc.to_pretty();
    match dest {
        Some(path) => {
            std::fs::write(path, text.as_bytes())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("[forensics] wrote {path}");
        }
        None => println!("{text}"),
    }
}

/// Returns `true` when a forensic cross-check diverged (exit 2).
fn run() -> bool {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cwsp-forensics: {e}");
            std::process::exit(1);
        }
    };
    let result = match &opts.sweep {
        Some(n) => run_sweep(&opts, *n),
        None => run_single(&opts),
    };
    match result {
        Ok(diverged) => diverged,
        Err(e) => {
            eprintln!("cwsp-forensics: {e}");
            std::process::exit(1);
        }
    }
}

fn run_single(opts: &Opts) -> Result<bool, String> {
    let system = system_for(&opts.workload)?;
    let inv = investigate(&system, opts.kill_cycle)?;
    if let Some(dest) = &opts.json {
        emit(
            &investigation_json(&opts.workload, opts.kill_cycle, &inv),
            dest,
        );
    } else if inv.completed {
        println!(
            "{} completed before cycle {} — nothing to investigate",
            opts.workload, opts.kill_cycle
        );
    } else {
        let rep = inv.report.as_ref().expect("crashed run carries a report");
        println!("{}", rep.to_text());
        if let Some(p) = &inv.journal_path {
            println!("journal: {}", p.display());
        }
    }
    let diverged = inv.report.as_ref().is_some_and(|r| !r.all_matched());
    if diverged {
        eprintln!(
            "cwsp-forensics: {} crash@{}: frontier/replay DIVERGENCE",
            opts.workload, opts.kill_cycle
        );
    }
    Ok(diverged)
}

fn run_sweep(opts: &Opts, n: usize) -> Result<bool, String> {
    let sum = sweep(&opts.workload, n, opts.seed)?;
    let doc = sweep_json(&sum);
    // Every sweep accumulates in the spine's telemetry keyspace, keyed by
    // source, so the fleet's forensic history is queryable over time.
    cwsp_bench::engine().commit_telemetry("forensics-sweep", &doc);
    if let Some(dest) = &opts.json {
        emit(&doc, dest);
    } else {
        println!("\n=== forensic sweep: {} ===", sum.workload);
        println!("   injections     {:>8}", sum.injections);
        println!("   effective      {:>8}", sum.effective);
        println!("   matched        {:>8}", sum.matched);
        println!("   completed      {:>8}", sum.completed);
        println!("   lost stores    {:>8}", sum.lost_stores);
        println!("   undo-reverted  {:>8}", sum.reverted);
        println!(
            "--\n   verdict: {}",
            if sum.all_matched() {
                "all frontiers exact"
            } else {
                "DIVERGENCE"
            }
        );
    }
    if !sum.all_matched() {
        eprintln!(
            "cwsp-forensics: {}: {}/{} injections diverged",
            sum.workload,
            sum.effective - sum.matched,
            sum.effective
        );
    }
    Ok(!sum.all_matched())
}

fn main() {
    let diverged = Cell::new(false);
    cwsp_bench::harness_main("forensics", || diverged.set(run()));
    if diverged.get() {
        std::process::exit(2);
    }
}
