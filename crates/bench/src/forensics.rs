//! Post-crash forensic investigation driver — the library half of the
//! `cwsp-forensics` binary.
//!
//! Wraps [`CwspSystem::investigate_crash`] with workload lookup, seeded
//! kill-cycle sweeps, and JSON shaping for the CI schema check. Every sweep
//! also lands a compact summary in the spine's telemetry keyspace (via
//! [`crate::engine::Engine::commit_telemetry`]), so the fleet's forensic
//! history accumulates next to the figure results.

use cwsp_core::system::{CrashInvestigation, CwspSystem};
use cwsp_obs::json::Value;

/// Replay budget per recovery (matches `core::verify`'s end-to-end checks).
pub const MAX_REPLAY_STEPS: u64 = 50_000_000;

/// Kill cycles are drawn from `[50, 50 + KILL_SPAN)` — wide enough to land
/// in every phase of the bundled workloads' persist behaviour.
pub const KILL_SPAN: u64 = 40_000;

/// Compile `workload` (by figure label) into a ready-to-crash system.
///
/// # Errors
/// An unknown workload name.
pub fn system_for(workload: &str) -> Result<CwspSystem, String> {
    let w = cwsp_workloads::by_name(workload)
        .ok_or_else(|| format!("unknown workload `{workload}` (see list_workloads)"))?;
    Ok(CwspSystem::compile(&w.module))
}

/// Crash `system` at `kill_cycle` and run the full forensic pipeline:
/// journal, frontier, reconstruction, per-core replay cross-check.
///
/// # Errors
/// Simulation traps, journal I/O failures, and recovery errors, rendered.
pub fn investigate(system: &CwspSystem, kill_cycle: u64) -> Result<CrashInvestigation, String> {
    system
        .investigate_crash(kill_cycle, MAX_REPLAY_STEPS)
        .map_err(|e| format!("crash@{kill_cycle}: {e}"))
}

/// One investigation as a JSON document (the `--json` single-run shape).
pub fn investigation_json(workload: &str, kill_cycle: u64, inv: &CrashInvestigation) -> Value {
    let mut fields = vec![
        ("schema".into(), Value::Str("cwsp-forensics-run-v1".into())),
        ("workload".into(), Value::Str(workload.into())),
        ("kill_cycle".into(), Value::Int(kill_cycle)),
        ("completed".into(), Value::Bool(inv.completed)),
    ];
    if let Some(p) = &inv.journal_path {
        fields.push(("journal".into(), Value::Str(p.display().to_string())));
    }
    if let Some(rep) = &inv.report {
        fields.push(("matched".into(), Value::Bool(rep.all_matched())));
        fields.push(("lost_stores".into(), Value::Int(rep.counts().lost())));
        fields.push(("replayed_steps".into(), Value::Int(inv.replayed_steps)));
        fields.push(("report".into(), rep.to_value()));
    }
    Value::Obj(fields)
}

/// Aggregate outcome of a seeded kill-cycle sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Workload under investigation.
    pub workload: String,
    /// Injections attempted (= the `--sweep N` argument).
    pub injections: u64,
    /// Runs that actually crashed mid-execution.
    pub effective: u64,
    /// Effective runs whose frontier prediction matched the replay exactly.
    pub matched: u64,
    /// Runs that completed before their kill cycle.
    pub completed: u64,
    /// Total lost stores across effective runs.
    pub lost_stores: u64,
    /// Total undo-reverted stores across effective runs.
    pub reverted: u64,
    /// The kill cycles drawn (deterministic given the seed).
    pub kill_cycles: Vec<u64>,
}

impl SweepSummary {
    /// Whether every effective injection cross-checked clean.
    pub fn all_matched(&self) -> bool {
        self.matched == self.effective
    }
}

/// Run `n` seeded kill-cycle injections against `workload`. Deterministic:
/// the same `(workload, n, seed)` draws the same kill cycles.
///
/// # Errors
/// Workload lookup and any per-injection failure (fail-fast).
pub fn sweep(workload: &str, n: usize, seed: u64) -> Result<SweepSummary, String> {
    let system = system_for(workload)?;
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut sum = SweepSummary {
        workload: workload.to_string(),
        ..SweepSummary::default()
    };
    for _ in 0..n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let kill = 50 + (s >> 33) % KILL_SPAN;
        sum.kill_cycles.push(kill);
        let inv = investigate(&system, kill).map_err(|e| format!("{workload}: {e}"))?;
        sum.injections += 1;
        if inv.completed {
            sum.completed += 1;
            continue;
        }
        let rep = inv.report.as_ref().expect("crashed run carries a report");
        sum.effective += 1;
        if rep.all_matched() {
            sum.matched += 1;
        }
        let c = rep.counts();
        sum.lost_stores += c.lost();
        sum.reverted += c.reverted;
    }
    Ok(sum)
}

/// A sweep summary as a JSON document (the `--json --sweep` shape).
pub fn sweep_json(sum: &SweepSummary) -> Value {
    Value::Obj(vec![
        (
            "schema".into(),
            Value::Str("cwsp-forensics-sweep-v1".into()),
        ),
        ("workload".into(), Value::Str(sum.workload.clone())),
        ("injections".into(), Value::Int(sum.injections)),
        ("effective".into(), Value::Int(sum.effective)),
        ("matched".into(), Value::Int(sum.matched)),
        ("completed".into(), Value::Int(sum.completed)),
        ("all_matched".into(), Value::Bool(sum.all_matched())),
        ("lost_stores".into(), Value::Int(sum.lost_stores)),
        ("reverted".into(), Value::Int(sum.reverted)),
        (
            "kill_cycles".into(),
            Value::Arr(sum.kill_cycles.iter().map(|&c| Value::Int(c)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_an_error_not_a_panic() {
        assert!(system_for("no-such-app").is_err());
        assert!(sweep("no-such-app", 1, 0).is_err());
    }

    #[test]
    fn single_investigation_shapes_json() {
        let system = system_for("kmeans").unwrap();
        let inv = investigate(&system, 9_000).unwrap();
        assert!(!inv.completed);
        let v = investigation_json("kmeans", 9_000, &inv);
        assert_eq!(v.get("matched"), Some(&Value::Bool(true)));
        assert_eq!(v.get("workload"), Some(&Value::Str("kmeans".into())));
        let rep = v.get("report").expect("embedded report");
        assert!(rep.get("counts").is_some());
        assert!(rep.get("cross_checks").is_some());
        // The document round-trips through its own serializer.
        assert!(cwsp_obs::json::parse(&v.to_pretty()).is_ok());
    }

    #[test]
    fn sweep_is_deterministic_and_matches() {
        let a = sweep("kmeans", 4, 7).unwrap();
        let b = sweep("kmeans", 4, 7).unwrap();
        assert_eq!(a.kill_cycles, b.kill_cycles);
        assert_eq!(a.matched, b.matched);
        assert!(a.all_matched(), "{a:?}");
        assert!(a.effective > 0);
        let v = sweep_json(&a);
        assert_eq!(v.get("all_matched"), Some(&Value::Bool(true)));
    }
}
