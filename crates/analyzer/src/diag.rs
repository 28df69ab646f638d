//! The diagnostics model: severities, invariant families, locations, path
//! witnesses, and the [`Report`] container with human-readable and JSON
//! rendering.
//!
//! Every finding the analyzer produces is a [`Diagnostic`]: *what* rule was
//! violated (invariant family + stable rule code), *where* (function, block,
//! instruction), *how bad* (severity), and — for the path-sensitive checks —
//! *why* (a concrete [`PathWitness`] through the CFG that exhibits the
//! violation). "Static-clean" means: no error-severity diagnostics.

use cwsp_obs::json::{obj, Value};
use std::fmt;

/// Version of the JSON diagnostics document emitted by [`Report::to_json`]
/// and the `cwsp-lint --json` envelope. Bump whenever a field is renamed or
/// removed, or a diagnostic code changes meaning; adding new codes (as the
/// concurrency layer's `R-*`/`I5-*` families did in v2) is backward
/// compatible but still recorded here so downstream consumers can gate.
///
/// v3: diagnostics are deterministically ordered (sorted by location, code,
/// region, severity — see [`Report::normalize`]) instead of discovery order,
/// and the `cwsp-lint` envelope grew an optional `incremental` cache-stats
/// object.
///
/// v4: the durability-ordering family (`I6-*`, [`Invariant::DurabilityOrder`])
/// joined the taxonomy and the `cwsp-lint` envelope grew an optional
/// `analyzer.persistency` counters object (emitted under `--persist`).
pub const SCHEMA_VERSION: u32 = 4;

/// How serious a diagnostic is. `Error` means a crash-consistency invariant
/// is (or may be) violated; recovery correctness is not guaranteed.
/// `Warning` flags suspicious-but-survivable constructs; `Info` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious construct; recovery still sound.
    Warning,
    /// A proven or unprovable-safe violation of a crash-consistency rule.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The statically-checked invariant families of the cWSP correctness
/// argument (§IV, §VIII), plus the general lint bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// I1 — no region stores to a word or register it previously read from
    /// pre-region state (§IV-A).
    Idempotence,
    /// I2 — every register live across a boundary is restorable: present in
    /// the slice and slot-synced on every path to the boundary (§IV-B).
    CheckpointCoverage,
    /// I3 — every recovery-slice source reproduces the live-in value: slots
    /// synced, constants provably equal, expression leaves intact (§IV-C).
    SliceWellFormed,
    /// I4 — structural placement rules: boundaries at joins, loop headers,
    /// calls, and synchronization points; regions non-empty and well-shaped.
    Structure,
    /// I5 — persist-order / stale-read safety (§VIII): a store whose word
    /// escapes to another core must be separated from the releasing
    /// synchronization point by a region boundary, so the escaping value is
    /// never published out of a still-open (revertible) region — the static
    /// mirror of the memory controller's stale-read-avoidance rule.
    PersistOrder,
    /// I6 — durability ordering (flush/fence persistency): every NVM-visible
    /// store is flushed, and the flush is fenced, before any commit point
    /// (publication, synchronization, call/return, halt) on every path — the
    /// static contract certified against `compiler::autofence` output by
    /// translation validation.
    DurabilityOrder,
    /// R — data races between core entry-function instances: conflicting
    /// accesses not ordered by a common lockset or an acquire/release
    /// happens-before chain.
    DataRace,
    /// L — general IR lints (not crash-consistency invariants per se).
    Lint,
}

impl Invariant {
    /// Stable short id (`I1`..`I5`, `R`, `L`).
    pub fn id(self) -> &'static str {
        match self {
            Invariant::Idempotence => "I1",
            Invariant::CheckpointCoverage => "I2",
            Invariant::SliceWellFormed => "I3",
            Invariant::Structure => "I4",
            Invariant::PersistOrder => "I5",
            Invariant::DurabilityOrder => "I6",
            Invariant::DataRace => "R",
            Invariant::Lint => "L",
        }
    }

    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Idempotence => "idempotence",
            Invariant::CheckpointCoverage => "checkpoint-coverage",
            Invariant::SliceWellFormed => "slice-well-formed",
            Invariant::Structure => "structure",
            Invariant::PersistOrder => "persist-order",
            Invariant::DurabilityOrder => "durability-order",
            Invariant::DataRace => "data-race",
            Invariant::Lint => "lint",
        }
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a diagnostic points: `function/bbN[idx]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Location {
    /// Function name.
    pub function: String,
    /// Basic-block id within the function.
    pub block: u32,
    /// Instruction index within the block; `None` for block-level findings.
    pub inst: Option<usize>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Some(i) => write!(f, "{}/bb{}[{}]", self.function, self.block, i),
            None => write!(f, "{}/bb{}", self.function, self.block),
        }
    }
}

/// One step of a counterexample path: a position plus what happens there.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WitnessStep {
    /// Basic-block id.
    pub block: u32,
    /// Instruction index within the block.
    pub idx: usize,
    /// Rendered instruction or explanation for this step.
    pub note: String,
}

/// A concrete path through the CFG exhibiting a violation, from the point
/// where the hazard is created to the point where it strikes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathWitness {
    /// Path steps in execution order.
    pub steps: Vec<WitnessStep>,
    /// How many interior steps were elided to keep the witness readable.
    pub omitted: usize,
}

impl PathWitness {
    /// Build a witness from steps, eliding the middle beyond `keep` steps.
    pub fn elided(mut steps: Vec<WitnessStep>, keep: usize) -> Self {
        let omitted = if steps.len() > keep {
            let excess = steps.len() - keep;
            // Keep the head (hazard creation) and tail (violation).
            let head = keep / 3;
            steps.drain(head..head + excess);
            excess
        } else {
            0
        };
        PathWitness { steps, omitted }
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Invariant family the finding belongs to.
    pub invariant: Invariant,
    /// Stable rule code, e.g. `I1-mem-war` or `L-unreachable-block`.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Primary location.
    pub location: Location,
    /// Static region id the finding is attributed to, when known.
    pub region: Option<u32>,
    /// Counterexample path, for the path-sensitive checks.
    pub witness: Option<PathWitness>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.location, self.message
        )?;
        if let Some(r) = self.region {
            write!(f, " (region R{r})")?;
        }
        Ok(())
    }
}

/// Aggregate analysis counters, surfaced through the observability layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Functions analyzed (invalid functions are counted but skipped).
    pub functions: usize,
    /// Explicit region boundaries in the module.
    pub regions_total: usize,
    /// Boundaries whose region has no error-severity finding.
    pub regions_proven: usize,
    /// Wall time of the analysis in nanoseconds.
    pub analysis_ns: u64,
}

/// The result of analyzing one module.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Module name.
    pub module: String,
    /// All findings, in (function, block, inst) discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Aggregate counters.
    pub counters: Counters,
}

impl Report {
    /// Number of diagnostics at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether the module is static-clean: no error-severity diagnostics.
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// Highest severity present, if any finding exists.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Drop duplicate findings, keyed by (rule, location, region) and
    /// keeping first-discovered order. The same hazard reached via several
    /// paths (or phrased with path-dependent message details) renders once;
    /// the first witness — the shortest path discovered — is the one kept.
    pub fn dedup(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.diagnostics
            .retain(|d| seen.insert((d.code, d.location.clone(), d.region)));
    }

    /// Canonicalize the report: [`Report::dedup`] (first-discovered witness
    /// wins), then sort diagnostics by (location, code, region, severity,
    /// message). Rendering a normalized report is byte-stable no matter what
    /// order passes — or cache layers, or shards — emitted the findings in,
    /// which is what lets `analyze_incremental` promise byte-identical
    /// output to a from-scratch `analyze`.
    pub fn normalize(&mut self) {
        self.dedup();
        self.diagnostics.sort_by(|x, y| {
            (
                &x.location.function,
                x.location.block,
                x.location.inst,
                x.code,
                x.region,
                x.severity,
                &x.message,
            )
                .cmp(&(
                    &y.location.function,
                    y.location.block,
                    y.location.inst,
                    y.code,
                    y.region,
                    y.severity,
                    &y.message,
                ))
        });
    }

    /// Render the report as human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}: {} error(s), {} warning(s), {} info(s); {}/{} regions proven",
            self.module,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.counters.regions_proven,
            self.counters.regions_total,
        );
        for d in &self.diagnostics {
            let _ = writeln!(s, "  {d}");
            if let Some(w) = &d.witness {
                for (i, step) in w.steps.iter().enumerate() {
                    if w.omitted > 0 && i == w.steps.len().saturating_sub(1) / 2 + 1 {
                        let _ = writeln!(s, "      ... ({} steps omitted)", w.omitted);
                    }
                    let _ = writeln!(s, "      via bb{}[{}]: {}", step.block, step.idx, step.note);
                }
            }
        }
        s
    }

    /// The report as a JSON object (one entry of the `cwsp-lint`
    /// document's `reports` array).
    pub fn to_value(&self) -> Value {
        let summary = obj([
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warning).into()),
            ("infos", self.count(Severity::Info).into()),
            ("functions", self.counters.functions.into()),
            ("regions_total", self.counters.regions_total.into()),
            ("regions_proven", self.counters.regions_proven.into()),
            ("analysis_ns", self.counters.analysis_ns.into()),
        ]);
        let diagnostics = self.diagnostics.iter().map(|d| {
            let mut fields = vec![
                ("severity", d.severity.to_string().into()),
                ("invariant", d.invariant.to_string().into()),
                ("code", d.code.into()),
                ("function", d.location.function.as_str().into()),
                ("block", d.location.block.into()),
                ("inst", d.location.inst.into()),
                ("region", d.region.into()),
                ("message", d.message.as_str().into()),
            ];
            if let Some(w) = &d.witness {
                let steps = w.steps.iter().map(|step| {
                    obj([
                        ("block", step.block.into()),
                        ("idx", step.idx.into()),
                        ("note", step.note.as_str().into()),
                    ])
                });
                fields.push((
                    "witness",
                    obj([
                        ("omitted", w.omitted.into()),
                        ("steps", Value::Arr(steps.collect())),
                    ]),
                ));
            }
            obj(fields)
        });
        obj([
            ("module", self.module.as_str().into()),
            ("summary", summary),
            ("diagnostics", Value::Arr(diagnostics.collect())),
        ])
    }

    /// Render the report as pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_diag(sev: Severity) -> Diagnostic {
        Diagnostic {
            severity: sev,
            invariant: Invariant::Idempotence,
            code: "I1-mem-war",
            message: "store may overwrite a word loaded earlier in the region".into(),
            location: Location {
                function: "main".into(),
                block: 2,
                inst: Some(5),
            },
            region: Some(3),
            witness: Some(PathWitness {
                steps: vec![
                    WitnessStep {
                        block: 1,
                        idx: 0,
                        note: "load r1, [0x40]".into(),
                    },
                    WitnessStep {
                        block: 2,
                        idx: 5,
                        note: "store r2, [0x40]".into(),
                    },
                ],
                omitted: 0,
            }),
        }
    }

    #[test]
    fn severity_ordering_and_display() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn report_counts_and_cleanliness() {
        let mut r = Report {
            module: "m".into(),
            ..Default::default()
        };
        assert!(r.is_clean());
        r.diagnostics.push(sample_diag(Severity::Warning));
        assert!(r.is_clean());
        assert_eq!(r.max_severity(), Some(Severity::Warning));
        r.diagnostics.push(sample_diag(Severity::Error));
        assert!(!r.is_clean());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
    }

    #[test]
    fn dedup_keys_on_rule_location_region() {
        let mut r = Report::default();
        r.diagnostics.push(sample_diag(Severity::Error));
        r.diagnostics.push(sample_diag(Severity::Error));
        // Same (rule, location, region) with a path-dependent message: the
        // first-discovered phrasing wins.
        let mut reworded = sample_diag(Severity::Error);
        reworded.message = "same hazard, different path".into();
        r.diagnostics.push(reworded);
        // Different location: kept.
        let mut other = sample_diag(Severity::Error);
        other.location.block = 9;
        r.diagnostics.push(other);
        // Different region at the same location: kept.
        let mut other_region = sample_diag(Severity::Error);
        other_region.region = Some(8);
        r.diagnostics.push(other_region);
        r.dedup();
        assert_eq!(r.diagnostics.len(), 3);
        assert!(r.diagnostics[0]
            .message
            .contains("store may overwrite a word"));
    }

    #[test]
    fn schema_version_is_stable() {
        // CI parses the `cwsp-lint --json` envelope and gates on this exact
        // value; any change to it must be deliberate (field rename/removal
        // or a diagnostic code changing meaning), never incidental.
        assert_eq!(SCHEMA_VERSION, 4);
    }

    #[test]
    fn normalize_orders_and_dedups_deterministically() {
        let mut fwd = Report::default();
        let mut a = sample_diag(Severity::Error);
        a.location.block = 9;
        let b = sample_diag(Severity::Warning);
        fwd.diagnostics.push(a.clone());
        fwd.diagnostics.push(b.clone());
        fwd.diagnostics.push(b.clone()); // duplicate: dropped
        let mut rev = Report::default();
        rev.diagnostics.push(b.clone());
        rev.diagnostics.push(a.clone());
        fwd.normalize();
        rev.normalize();
        assert_eq!(fwd.diagnostics, rev.diagnostics, "order-independent");
        assert_eq!(fwd.diagnostics.len(), 2);
        assert_eq!(fwd.render_text(), rev.render_text());
        // Sorted by location: block 2 before block 9.
        assert_eq!(fwd.diagnostics[0].location.block, 2);
    }

    #[test]
    fn text_rendering_includes_witness_steps() {
        let mut r = Report {
            module: "demo".into(),
            ..Default::default()
        };
        r.diagnostics.push(sample_diag(Severity::Error));
        let text = r.render_text();
        assert!(text.contains("demo: 1 error(s)"), "{text}");
        assert!(text.contains("I1-mem-war"), "{text}");
        assert!(text.contains("via bb1[0]: load r1, [0x40]"), "{text}");
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = Report {
            module: "de\"mo".into(),
            ..Default::default()
        };
        let mut d = sample_diag(Severity::Error);
        d.message = "line1\nline2".into();
        r.diagnostics.push(d);
        let j = cwsp_obs::json::parse(&r.to_json()).unwrap();
        assert_eq!(j.get("module").unwrap().as_str(), Some("de\"mo"));
        let d = &j.get("diagnostics").unwrap().as_arr().unwrap()[0];
        assert_eq!(d.get("message").unwrap().as_str(), Some("line1\nline2"));
        assert_eq!(d.get("severity").unwrap().as_str(), Some("error"));
        assert!(d.get("witness").is_some(), "{j:?}");
    }

    #[test]
    fn witness_elision_keeps_head_and_tail() {
        let steps: Vec<WitnessStep> = (0..30)
            .map(|i| WitnessStep {
                block: 0,
                idx: i,
                note: format!("step {i}"),
            })
            .collect();
        let w = PathWitness::elided(steps, 12);
        assert_eq!(w.steps.len(), 12);
        assert_eq!(w.omitted, 18);
        assert_eq!(w.steps[0].idx, 0, "head kept");
        assert_eq!(w.steps.last().unwrap().idx, 29, "tail kept");
    }

    #[test]
    fn invariant_ids_are_stable() {
        assert_eq!(Invariant::Idempotence.id(), "I1");
        assert_eq!(Invariant::CheckpointCoverage.id(), "I2");
        assert_eq!(Invariant::SliceWellFormed.id(), "I3");
        assert_eq!(Invariant::Structure.id(), "I4");
        assert_eq!(Invariant::PersistOrder.id(), "I5");
        assert_eq!(Invariant::DurabilityOrder.id(), "I6");
        assert_eq!(Invariant::DataRace.id(), "R");
        assert_eq!(Invariant::Lint.id(), "L");
        assert_eq!(Invariant::PersistOrder.name(), "persist-order");
        assert_eq!(Invariant::DurabilityOrder.name(), "durability-order");
        assert_eq!(Invariant::DataRace.name(), "data-race");
    }
}
