//! The benchmark's command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-cwsp|sim-baseline|lint|crash-recover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times (reporting the
//! median as `setup_s`), then runs whole passes over the workload's items
//! for `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! sets up once, traced, then alternates untraced and traced passes, and
//! reports the per-layer metrics and the tracing overhead. Human-readable lines come first; the
//! last line of standard output is one JSON object. The full result,
//! with provenance and (when traced) every span, is written under
//! `perfbench/out/`.

use cwsp_core::prng::SplitMix64;
use cwsp_perfbench::trace::Tracer;
use cwsp_perfbench::{setup, shuffled, sim, Guard, Workload, SIM_COUNTERS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// An untraced run sets its workload up at least this many times, and
/// until [`SETUP_SECS`] have gone by; `setup_s` is the median.
const MIN_SETUPS: usize = 5;
/// See [`MIN_SETUPS`].
const SETUP_SECS: f64 = 1.0;
/// Repetitions of each program in the `sim-cwsp` host-time attribution;
/// each program counts with its best.
const ATTRIBUTION_REPS: usize = 3;

/// Layers timed by spans, reported as `<name>_ms` per pass (item layers)
/// or per set-up (set-up layers).
const LAYER_SPANS: &[&str] = &[
    "workloads.build",
    "ref.run",
    "sim.window",
    "compiler.compile",
    "compiler.optimize",
    "compiler.call_saves",
    "compiler.split",
    "compiler.form_regions",
    "compiler.insert_checkpoints",
    "compiler.prune_and_build_slices",
    "compiler.validate",
    "compiler.autofence",
    "defects.inject",
    "analyzer.core",
    "analyzer.interproc",
    "analyzer.races",
    "analyzer.persist",
    "sim.new",
    "sim.run",
    "sim.drop",
    "sim.to_crash",
    "sim.to_crash_flight",
    "sim.crash_image",
    "forensics.reconstruct",
    "recovery.recover",
    "forensics.cross_check",
    "verify.compare",
];

/// Work counts, reported per pass (item layers) or per set-up.
const LAYER_COUNTS: &[&str] = &[
    "compiler.boundaries",
    "compiler.antidep_cuts",
    "compiler.ckpts_pruned",
    "compiler.slices",
    "compiler.insts_after",
    "analyzer.regions_total",
    "analyzer.regions_proven",
    "analyzer.diags_error",
    "defects.injected",
    "defects.caught",
    "recovery.replayed_steps",
    "recovery.reverted_records",
    "flight.records",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}`; choose one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(num()?),
            "--seconds" if num()? >= 1 => seconds = Some(num()?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("unexpected argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds (at least 1) is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
    })
}

/// What the passes run with one tracer measured.
#[derive(Default)]
struct Timed {
    passes: usize,
    secs: f64,
    lat_ns: Vec<u64>,
    failed: u64,
    insts: u64,
    /// Exact modelled result of one pass.
    exact: u64,
    errors: Vec<String>,
    /// Host time of [`calibrate`] before each pass.
    calib_ns: Vec<u64>,
}

/// Run whole passes in `order` until at least `secs` have gone by and every
/// tracer has run at least two passes, so that the determinism guard sees
/// every item more than once. Pass `k` runs with `tracers[k % n]`; taking
/// turns spreads any drift of the host's speed evenly over the tracers.
fn timed(
    w: &dyn Workload,
    order: &[usize],
    secs: f64,
    tracers: &mut [Tracer],
    guard: &mut Guard,
) -> Vec<Timed> {
    let n = tracers.len();
    let mut out: Vec<Timed> = tracers.iter().map(|_| Timed::default()).collect();
    let start = Instant::now();
    for k in 0.. {
        let (t, o) = (&mut tracers[k % n], &mut out[k % n]);
        o.calib_ns.push(calibrate());
        let t_pass = Instant::now();
        for &i in order {
            let t0 = Instant::now();
            let item = t.item(i as u32, |t| w.run(i, t));
            o.lat_ns.push(t0.elapsed().as_nanos() as u64);
            let err = item.error.clone().or_else(|| guard.check(i, &item).err());
            if let Some(e) = err {
                o.failed += 1;
                o.errors.push(e);
            }
            o.insts += item.insts;
            if o.passes == 0 {
                o.exact += item.exact;
            }
        }
        o.passes += 1;
        o.secs += t_pass.elapsed().as_secs_f64();
        if k + 1 >= 2 * n && start.elapsed().as_secs_f64() >= secs {
            break;
        }
    }
    out
}

/// Host time of [`calibrate`] on the reference host.
const CALIB_REF_NS: f64 = 10_000_000.0;

/// Time a fixed kernel and return its host time in nanoseconds: 2M
/// SplitMix64 steps, each updating or reading a random word of a fresh
/// 4 MiB table. It is the benchmark's own code, the same on every commit,
/// so its time measures only how fast the host runs right now.
///
/// On a shared host the speed of the whole machine shifts by a third over
/// minutes. Timing metrics are therefore reported at the reference host's
/// speed: a host time `t` is reported as `t * CALIB_REF_NS / calib`, where
/// `calib` is the kernel's time in the same run. Per-item best times are
/// scaled by the kernel's best time, each set-up by its time just before
/// that set-up.
fn calibrate() -> u64 {
    const WORDS: usize = 1 << 19;
    let t0 = Instant::now();
    let mut table = vec![0u64; WORDS];
    let (mut x, mut acc) = (0x1234_5678u64, 0u64);
    for _ in 0..2_000_000 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        let i = z as usize & (WORDS - 1);
        if z & 1 == 0 {
            table[i] = table[i].wrapping_add(z);
        } else {
            acc = acc.wrapping_add(table[i]);
        }
    }
    std::hint::black_box((acc, table));
    t0.elapsed().as_nanos() as u64
}

/// Each item's fastest latency over the passes of `p`, by position in the
/// pass order. Every pass repeats the same deterministic items (the guard
/// checks it), so the fastest pass of an item is its cost with the least
/// interference from other work on the host.
fn best_ns(p: &Timed, items: usize) -> Vec<u64> {
    let mut best = vec![u64::MAX; items];
    for (k, &ns) in p.lat_ns.iter().enumerate() {
        best[k % items] = best[k % items].min(ns);
    }
    best
}

/// Nearest-rank percentile of `sorted`, in milliseconds.
fn percentile_ms(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git; `none`
/// outside a git checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = std::fs::read_to_string(git.join(r)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Per-layer metrics from a traced set-up and a traced timed phase: set-up
/// layers per set-up, item layers per pass.
fn layer_metrics(st: &Tracer, rt: &Tracer, passes: usize) -> Vec<Metric> {
    let (s_self, r_self) = (st.self_ns(), rt.self_ns());
    let per = |s: &BTreeMap<&str, u64>, r: &BTreeMap<&str, u64>, name: &str| {
        s.get(name).copied().unwrap_or(0) as f64
            + r.get(name).copied().unwrap_or(0) as f64 / passes as f64
    };
    let mut out = Vec::new();
    for name in LAYER_SPANS {
        out.push(metric(
            format!("{name}_ms"),
            per(&s_self, &r_self, name) / 1e6,
            "ms",
        ));
    }
    let (sc, rc) = (st.counts(), rt.counts());
    for name in LAYER_COUNTS.iter().chain(SIM_COUNTERS.iter()) {
        out.push(metric(*name, per(sc, rc, name), "count"));
    }
    let sim_ns: u64 = ["sim.run", "sim.to_crash", "sim.to_crash_flight"]
        .iter()
        .filter_map(|n| r_self.get(n))
        .sum();
    let insts = rc.get("sim.insts").copied().unwrap_or(0);
    let ns_per_inst = if insts == 0 {
        0.0
    } else {
        sim_ns as f64 / insts as f64
    };
    out.push(metric("sim.ns_per_inst", ns_per_inst, "ns"));
    out
}

fn run(args: &Args) -> Result<(), String> {
    // The benchmark controls its own environment: no CWSP_* knob from the
    // caller may change what is measured, and the flight recorder's spill
    // files stay inside the checkout. The spill store's mmap fast path
    // first sizes its file to a 4 GiB sparse region, which a file-size
    // limit (`ulimit -f`) turns into a fatal SIGXFSZ; positional I/O keeps
    // each file as long as the bytes written, so every host runs the same
    // path.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("CWSP_") {
            std::env::remove_var(k);
        }
    }
    let out = out_dir();
    std::env::set_var("CWSP_SPILL_DIR", out.join("spill"));
    std::env::set_var("CWSP_SPILL_MMAP", "0");

    let name = args.workload.as_str();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"commit\": {}, \"profile\": \"{profile}\", \"threads\": 1}}",
        json_str(name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit()),
    );
    println!("perfbench {provenance}");

    let secs = args.seconds as f64;
    let mut metrics = Vec::new();
    let mut st = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    // Host time of [`calibrate`] just before each set-up.
    let mut setup_calib = Vec::new();
    let mut bench: Option<Box<dyn Workload>> = None;
    let started = Instant::now();
    while bench.is_none()
        || (!args.trace
            && (setup_s.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECS))
    {
        // Drop the previous set-up first, so each one starts from the same
        // heap.
        drop(bench.take());
        setup_calib.push(calibrate() as f64);
        let t0 = Instant::now();
        bench = Some(setup(name, args.seed, &mut st)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let bench = bench.expect("at least one set-up");
    let mut rng = SplitMix64::seed_from_u64(args.seed);
    let order = shuffled(bench.len(), &mut rng);
    let mut guard = Guard::new(bench.len());

    // Traced runs take turns: a pass without tracing, then one with.
    let mut tracers: Vec<Tracer> = vec![Tracer::new(false)];
    if args.trace {
        tracers.push(Tracer::new(true));
    }
    let phases = timed(&*bench, &order, secs, &mut tracers, &mut guard);
    let attempted: u64 = phases.iter().map(|p| p.lat_ns.len() as u64).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    for e in phases.iter().flat_map(|p| &p.errors).take(10) {
        eprintln!("perfbench: FAILED {e}");
    }

    if args.trace {
        let (off, on) = (&phases[0], &phases[1]);
        let pass_ns = |p: &Timed| best_ns(p, order.len()).iter().sum::<u64>() as f64;
        let rt = &tracers[1];
        metrics.extend(layer_metrics(&st, rt, on.passes));
        let attr = if name == "sim-cwsp" {
            let sb = sim::SimBench::setup(true, &mut Tracer::new(false))?;
            sb.attribution(ATTRIBUTION_REPS)?
        } else {
            [0; 3]
        };
        let [dispatch, baseline, cwsp] = attr.map(|ns| ns as f64 / 1e6);
        let persist = cwsp - baseline;
        metrics.push(metric("attr.dispatch_ms", dispatch, "ms"));
        metrics.push(metric("attr.cache_model_ms", baseline - dispatch, "ms"));
        metrics.push(metric("attr.persist_path_ms", persist, "ms"));
        // The share of the cWSP machine's own time in the same attribution
        // runs, so that both sides see the same host.
        let share = if cwsp > 0.0 {
            100.0 * persist / cwsp
        } else {
            0.0
        };
        metrics.push(metric("attr.persist_path_pct", share, "%"));
        metrics.push(metric(
            "trace.overhead_pct",
            100.0 * (pass_ns(on) / pass_ns(off) - 1.0),
            "%",
        ));
        let calib_best = phases.iter().flat_map(|p| &p.calib_ns).min().copied();
        metrics.push(metric(
            "host.calib_ms",
            calib_best.unwrap_or(0) as f64 / 1e6,
            "ms",
        ));
        let (wall, uncovered) = rt.item_coverage();
        metrics.push(metric(
            "trace.uncovered_pct",
            100.0 * uncovered as f64 / wall.max(1) as f64,
            "%",
        ));
    } else {
        let p = &phases[0];
        let calib: Vec<f64> = p.calib_ns.iter().map(|&ns| ns as f64).collect();
        // Host seconds per reference second, at the host's best and at its
        // typical speed during this run.
        let best_speed = calib.iter().copied().fold(f64::INFINITY, f64::min) / CALIB_REF_NS;
        let typical_speed = median(calib) / CALIB_REF_NS;
        let mut best = best_ns(p, order.len());
        let pass_s = best.iter().sum::<u64>() as f64 / 1e9;
        best.sort_unstable();
        let setup_median = median(setup_s.clone());
        // Each set-up at the host speed measured just before it, so that a
        // shift of speed between set-up and passes does not leak in.
        let setup_ref = median(
            setup_s
                .iter()
                .zip(&setup_calib)
                .map(|(s, k)| s * CALIB_REF_NS / k)
                .collect(),
        );
        let items_per_s = best.len() as f64 / pass_s;
        let insts_per_pass = p.insts as f64 / p.passes as f64;
        metrics.push(metric("setup_s", setup_ref, "s"));
        metrics.push(metric("items_per_s", items_per_s * best_speed, "1/s"));
        let p50 = percentile_ms(&best, 50.0);
        let p95 = percentile_ms(&best, 95.0);
        metrics.push(metric("item_ms_p50", p50 / best_speed, "ms"));
        metrics.push(metric("item_ms_p95", p95 / best_speed, "ms"));
        let minsts = insts_per_pass / pass_s / 1e6;
        metrics.push(metric("minsts_per_s", minsts * best_speed, "Minst/s"));
        metrics.push(metric("exact_work", p.exact as f64, "count"));
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), "MB"));
        println!(
            "  {} passes of {} items in {:.2} s; {} set-ups; {:.2} items/s as run",
            p.passes,
            best.len(),
            p.secs,
            setup_s.len(),
            p.lat_ns.len() as f64 / p.secs,
        );
        println!(
            "  host time (unscaled): setup_s {setup_median:.4}, items_per_s {items_per_s:.4}, \
             item_ms_p50 {p50:.4}, item_ms_p95 {p95:.4}, minsts_per_s {minsts:.4}"
        );
        println!(
            "  host speed: calibration kernel best {:.3} ms, median {:.3} ms (reference {:.3} ms)",
            best_speed * CALIB_REF_NS / 1e6,
            typical_speed * CALIB_REF_NS / 1e6,
            CALIB_REF_NS / 1e6
        );
    }
    for m in &metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  error_rate                         {:>16.4} ({failed} of {attempted} items failed)",
        failed as f64 / attempted.max(1) as f64
    );

    let mj = metrics_json(&metrics);
    let mut record = format!("{{\"provenance\": {provenance}, \"metrics\": {mj}");
    let join = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    let _ = write!(
        record,
        ", \"items_per_pass\": {}, \"calib_ns\": [{}], \"latencies_ns\": [{}]",
        order.len(),
        join(&phases[0].calib_ns),
        join(&phases[0].lat_ns)
    );
    if args.trace {
        let spans: Vec<String> = st
            .spans()
            .iter()
            .map(|s| ("setup", s))
            .chain(
                tracers
                    .last()
                    .expect("a tracer")
                    .spans()
                    .iter()
                    .map(|s| ("run", s)),
            )
            .map(|(phase, s)| {
                format!(
                    "[\"{phase}\", \"{}\", {}, {}, {}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.item.map_or("null".into(), |i| i.to_string()),
                )
            })
            .collect();
        let _ = write!(
            record,
            ", \"span_fields\": [\"phase\", \"name\", \"start_ns\", \"end_ns\", \"parent\", \"item\"], \"spans\": [\n{}\n]",
            spans.join(",\n")
        );
    }
    record.push_str("}\n");
    let file = out.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, record))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    eprintln!("perfbench: wrote {}", file.display());

    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {mj}}}"
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
