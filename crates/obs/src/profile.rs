//! Flat cycle-attribution profiles.
//!
//! The simulator attributes every core-cycle to a *site* — a function,
//! optionally narrowed to a static region — and a *cause* (`exec`, or a
//! stall cause like `stall_pb`). This module holds the aggregated result
//! and renders it as the classic flat-profile views: top-N sites by total
//! cycles, and top-N sites per stall cause.
//!
//! Synthetic sites (function names wrapped in angle brackets, e.g.
//! `<halted>`, `<drain>`) account for cycles no program code is
//! responsible for; they are listed but excluded from the coverage
//! numerator, so `coverage()` reports the fraction of cycles attributed to
//! real functions/regions + causes.

use crate::json::{obj, Value};
use std::fmt::Write as _;

/// One aggregated (site, cause) row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Function name, or a `<synthetic>` site.
    pub func: String,
    /// Static region id within the function, if the cycle was inside one.
    pub region: Option<u64>,
    /// Attribution cause: `exec`, `stall_pb`, `stall_rbt`, ...
    pub cause: String,
    /// Cycles attributed to this row.
    pub cycles: u64,
}

impl ProfileRow {
    /// Whether this row is a synthetic (non-program) site.
    pub fn is_synthetic(&self) -> bool {
        self.func.starts_with('<')
    }

    /// `func#rN` when the row is region-scoped, bare `func` otherwise.
    pub fn site_label(&self) -> String {
        match self.region {
            Some(r) => format!("{}#r{}", self.func, r),
            None => self.func.clone(),
        }
    }
}

/// A complete flat profile for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatProfile {
    /// Total simulated core-cycles in the run (the denominator).
    pub total_cycles: u64,
    /// Aggregated rows, in no particular order until rendered.
    pub rows: Vec<ProfileRow>,
}

impl FlatProfile {
    /// An empty profile over `total_cycles` core-cycles.
    pub fn new(total_cycles: u64) -> Self {
        FlatProfile {
            total_cycles,
            rows: Vec::new(),
        }
    }

    /// Add cycles to a (site, cause) row, merging with an existing row.
    pub fn add(&mut self, func: &str, region: Option<u64>, cause: &str, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if let Some(row) = self
            .rows
            .iter_mut()
            .find(|r| r.func == func && r.region == region && r.cause == cause)
        {
            row.cycles += cycles;
        } else {
            self.rows.push(ProfileRow {
                func: func.to_string(),
                region,
                cause: cause.to_string(),
                cycles,
            });
        }
    }

    /// Sum of all attributed cycles (every row, synthetic included).
    pub fn accounted_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Cycles attributed to real program sites (synthetics excluded).
    pub fn attributed_cycles(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| !r.is_synthetic())
            .map(|r| r.cycles)
            .sum()
    }

    /// Fraction of total cycles attributed to real program sites, in [0, 1].
    pub fn coverage(&self) -> f64 {
        if self.total_cycles == 0 {
            return 1.0;
        }
        self.attributed_cycles() as f64 / self.total_cycles as f64
    }

    /// Rows sorted by descending cycles (ties broken by site name for
    /// deterministic output).
    pub fn sorted_rows(&self) -> Vec<&ProfileRow> {
        let mut rows: Vec<&ProfileRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then_with(|| a.func.cmp(&b.func))
                .then_with(|| a.region.cmp(&b.region))
                .then_with(|| a.cause.cmp(&b.cause))
        });
        rows
    }

    /// Top `n` rows for one cause, by descending cycles.
    pub fn top_by_cause(&self, cause: &str, n: usize) -> Vec<&ProfileRow> {
        let mut rows: Vec<&ProfileRow> = self.rows.iter().filter(|r| r.cause == cause).collect();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.func.cmp(&b.func)));
        rows.truncate(n);
        rows
    }

    /// Total cycles per cause, sorted by descending cycles.
    pub fn by_cause(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        for r in &self.rows {
            match totals.iter_mut().find(|(c, _)| *c == r.cause) {
                Some((_, n)) => *n += r.cycles,
                None => totals.push((r.cause.clone(), r.cycles)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        totals
    }

    /// Causes present in the profile that look like stall causes.
    fn stall_causes(&self) -> Vec<String> {
        self.by_cause()
            .into_iter()
            .map(|(c, _)| c)
            .filter(|c| c.starts_with("stall_"))
            .collect()
    }

    /// Render the human-readable report: a header with totals and coverage,
    /// a flat top-`n` table, and per-stall-cause top tables.
    pub fn render_text(&self, title: &str, n: usize) -> String {
        let mut out = String::new();
        let pct = |c: u64| {
            if self.total_cycles == 0 {
                0.0
            } else {
                100.0 * c as f64 / self.total_cycles as f64
            }
        };
        let _ = writeln!(out, "cycle-attribution profile: {title}");
        let _ = writeln!(
            out,
            "total core-cycles {}  attributed {} ({:.1}%)",
            self.total_cycles,
            self.attributed_cycles(),
            100.0 * self.coverage()
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "cycles by cause:");
        for (cause, cycles) in self.by_cause() {
            let _ = writeln!(out, "  {cause:<14} {cycles:>12}  {:>5.1}%", pct(cycles));
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "top {n} sites by cycles:");
        let _ = writeln!(out, "        CYCLES      %  CAUSE          SITE");
        for row in self.sorted_rows().into_iter().take(n) {
            let _ = writeln!(
                out,
                "  {:>12} {:>5.1}%  {:<14} {}",
                row.cycles,
                pct(row.cycles),
                row.cause,
                row.site_label()
            );
        }
        for cause in self.stall_causes() {
            let top = self.top_by_cause(&cause, n);
            if top.is_empty() {
                continue;
            }
            let _ = writeln!(out);
            let _ = writeln!(out, "top {n} sites by {cause}:");
            for row in top {
                let _ = writeln!(
                    out,
                    "  {:>12} {:>5.1}%  {}",
                    row.cycles,
                    pct(row.cycles),
                    row.site_label()
                );
            }
        }
        out
    }

    /// Serialize the profile as JSON.
    pub fn to_json(&self) -> String {
        let by_cause = self.by_cause().into_iter();
        let rows = self.sorted_rows().into_iter().map(|row| {
            obj([
                ("func", row.func.as_str().into()),
                ("region", row.region.into()),
                ("cause", row.cause.as_str().into()),
                ("cycles", row.cycles.into()),
            ])
        });
        obj([
            ("total_cycles", self.total_cycles.into()),
            ("attributed_cycles", self.attributed_cycles().into()),
            ("coverage", self.coverage().into()),
            (
                "by_cause",
                Value::Obj(by_cause.map(|(c, n)| (c, n.into())).collect()),
            ),
            ("rows", Value::Arr(rows.collect())),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatProfile {
        let mut p = FlatProfile::new(100);
        p.add("main", Some(0), "exec", 40);
        p.add("main", Some(0), "stall_pb", 20);
        p.add("helper", None, "exec", 25);
        p.add("<halted>", None, "halted", 15);
        p
    }

    #[test]
    fn add_merges_rows_and_skips_zero() {
        let mut p = FlatProfile::new(10);
        p.add("f", None, "exec", 3);
        p.add("f", None, "exec", 4);
        p.add("f", None, "exec", 0);
        assert_eq!(p.rows.len(), 1);
        assert_eq!(p.rows[0].cycles, 7);
    }

    #[test]
    fn coverage_excludes_synthetic_sites() {
        let p = sample();
        assert_eq!(p.accounted_cycles(), 100);
        assert_eq!(p.attributed_cycles(), 85);
        assert!((p.coverage() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn sorted_and_filtered_views() {
        let p = sample();
        let rows = p.sorted_rows();
        assert_eq!(rows[0].func, "main");
        assert_eq!(rows[0].cycles, 40);
        let stalls = p.top_by_cause("stall_pb", 5);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cycles, 20);
        let by_cause = p.by_cause();
        assert_eq!(by_cause[0], ("exec".to_string(), 65));
    }

    #[test]
    fn text_report_mentions_coverage_and_causes() {
        let txt = sample().render_text("tatp/cwsp", 10);
        assert!(txt.contains("cycle-attribution profile: tatp/cwsp"));
        assert!(txt.contains("attributed 85 (85.0%)"));
        assert!(txt.contains("stall_pb"));
        assert!(txt.contains("main#r0"));
    }

    #[test]
    fn json_report_is_balanced_and_typed() {
        let j = crate::json::parse(&sample().to_json()).unwrap();
        assert_eq!(j.get("total_cycles").unwrap().as_u64(), Some(100));
        let rows = j.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("region").unwrap().as_u64(), Some(0));
        assert_eq!(rows[1].get("region"), Some(&Value::Null));
        assert_eq!(
            j.get("by_cause").unwrap().get("exec").unwrap().as_u64(),
            Some(65)
        );
    }
}
