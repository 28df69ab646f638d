//! Bounded event tracing for the persist machinery.
//!
//! Debugging crash-consistency issues requires seeing the interleaving of
//! region lifecycle events, persist traffic, and stalls around the failure
//! point. [`Trace`] is a fixed-capacity ring of [`Event`]s the machine can be
//! asked to record; the newest events — the ones leading up to a crash — are
//! always retained.
//!
//! Two consumers read the ring: [`Trace::post_mortem`] renders the greppable
//! text tail (with an explicit truncation banner when the ring dropped
//! events), and [`Trace::to_chrome`] converts the whole ring into Chrome
//! trace-event JSON (cores and memory controllers as named tracks,
//! region/stall lifetimes as complete spans) for `chrome://tracing` or
//! Perfetto.

use cwsp_ir::types::{DynRegionId, Word};
use cwsp_obs::chrome::ChromeTrace;
use cwsp_obs::json::Value;
use std::collections::VecDeque;
use std::fmt;

/// Why a core stalled (mirrors the `stall_*` counters in
/// [`crate::stats::SimStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Persist buffer full.
    Pb,
    /// Region boundary table full (or boundary drain without MC speculation).
    Rbt,
    /// Write buffer full.
    Wb,
    /// Draining at a synchronization point.
    Sync,
    /// Load delayed by a pending WPQ entry.
    Wpq,
    /// Scheme-specific persistence stall (Capri redo buffer, ReplayCache
    /// synchronous persist).
    Scheme,
}

impl StallKind {
    /// Short label ("pb", "rbt", ...) used in text output and profiles.
    pub fn as_str(self) -> &'static str {
        match self {
            StallKind::Pb => "pb",
            StallKind::Rbt => "rbt",
            StallKind::Wb => "wb",
            StallKind::Sync => "sync",
            StallKind::Wpq => "wpq",
            StallKind::Scheme => "scheme",
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One traced machine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A dynamic region was opened on `core`.
    RegionOpen {
        cycle: u64,
        core: usize,
        region: DynRegionId,
    },
    /// A region fully persisted and retired from the RBT head.
    RegionRetire {
        cycle: u64,
        core: usize,
        region: DynRegionId,
    },
    /// A store entered the persist buffer.
    PersistIssue {
        cycle: u64,
        core: usize,
        region: DynRegionId,
        addr: Word,
    },
    /// A store reached a WPQ (and became persistent).
    PersistArrive {
        cycle: u64,
        mc: usize,
        region: DynRegionId,
        addr: Word,
    },
    /// An undo-log record was appended at an MC.
    UndoLogged {
        cycle: u64,
        mc: usize,
        region: DynRegionId,
        addr: Word,
    },
    /// A dirty line entered the write buffer.
    WbEnqueue { cycle: u64, core: usize, line: Word },
    /// A completed stall span: the core stalled for `cycles` consecutive
    /// cycles starting at `cycle`, while `region` (the oldest in-flight
    /// dynamic region, when one exists) was draining. Recorded when the
    /// span *ends*, stamped with its start cycle.
    Stall {
        cycle: u64,
        core: usize,
        kind: StallKind,
        region: Option<DynRegionId>,
        cycles: u64,
    },
    /// Power failed.
    PowerFailure { cycle: u64 },
    /// Recovery began on the crash image (`reverted` undo-log records were
    /// reversed in §VII step 1). `cycle` continues the crashed run's clock.
    RecoveryStart { cycle: u64, reverted: u64 },
    /// Recovery replayed `steps` instructions on `core` (§VII step 2).
    RecoveryReplay { cycle: u64, core: usize, steps: u64 },
}

impl Event {
    /// The cycle the event occurred at (start cycle for stall spans).
    pub fn cycle(&self) -> u64 {
        match self {
            Event::RegionOpen { cycle, .. }
            | Event::RegionRetire { cycle, .. }
            | Event::PersistIssue { cycle, .. }
            | Event::PersistArrive { cycle, .. }
            | Event::UndoLogged { cycle, .. }
            | Event::WbEnqueue { cycle, .. }
            | Event::Stall { cycle, .. }
            | Event::PowerFailure { cycle }
            | Event::RecoveryStart { cycle, .. }
            | Event::RecoveryReplay { cycle, .. } => *cycle,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::RegionOpen {
                cycle,
                core,
                region,
            } => {
                write!(f, "[{cycle:>8}] core{core} open   {region}")
            }
            Event::RegionRetire {
                cycle,
                core,
                region,
            } => {
                write!(f, "[{cycle:>8}] core{core} retire {region}")
            }
            Event::PersistIssue {
                cycle,
                core,
                region,
                addr,
            } => {
                write!(f, "[{cycle:>8}] core{core} issue  {region} @{addr:#x}")
            }
            Event::PersistArrive {
                cycle,
                mc,
                region,
                addr,
            } => {
                write!(f, "[{cycle:>8}] mc{mc}   arrive {region} @{addr:#x}")
            }
            Event::UndoLogged {
                cycle,
                mc,
                region,
                addr,
            } => {
                write!(f, "[{cycle:>8}] mc{mc}   undo   {region} @{addr:#x}")
            }
            Event::WbEnqueue { cycle, core, line } => {
                write!(f, "[{cycle:>8}] core{core} wbenq  @{line:#x}")
            }
            Event::Stall {
                cycle,
                core,
                kind,
                region,
                cycles,
            } => {
                write!(f, "[{cycle:>8}] core{core} stall  ({kind})")?;
                if let Some(r) = region {
                    write!(f, " {r}")?;
                }
                write!(f, " x{cycles}")
            }
            Event::PowerFailure { cycle } => write!(f, "[{cycle:>8}] POWER FAILURE"),
            Event::RecoveryStart { cycle, reverted } => {
                write!(f, "[{cycle:>8}] RECOVERY start ({reverted} reverted)")
            }
            Event::RecoveryReplay { cycle, core, steps } => {
                write!(f, "[{cycle:>8}] core{core} replay {steps} steps")
            }
        }
    }
}

/// A fixed-capacity ring of machine events (newest kept).
#[derive(Debug, Clone)]
pub struct Trace {
    cap: usize,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Trace {
    /// A trace retaining at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Trace {
            cap: cap.max(1),
            events: VecDeque::with_capacity(cap.min(4096)),
            dropped: 0,
        }
    }

    /// Record an event (evicting the oldest when full).
    pub fn record(&mut self, e: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    /// Events in chronological order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The last `n` events formatted one per line (crash post-mortems).
    pub fn tail(&self, n: usize) -> String {
        let skip = self.events.len().saturating_sub(n);
        self.events
            .iter()
            .skip(skip)
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The crash post-mortem: a header stating retention (and, crucially,
    /// how many events the ring silently evicted) followed by the last `n`
    /// events. Truncated traces are visibly truncated.
    pub fn post_mortem(&self, n: usize) -> String {
        let mut out = format!(
            "trace: {} events retained (ring capacity {})",
            self.len(),
            self.cap
        );
        if self.dropped > 0 {
            out.push_str(&format!(
                " — TRUNCATED, {} older events dropped",
                self.dropped
            ));
        }
        out.push('\n');
        out.push_str(&self.tail(n));
        out
    }

    /// Convert the ring into a Chrome trace: cores and MCs become named
    /// tracks, region lifetimes and stall spans become complete (`ph:"X"`)
    /// events, persist traffic becomes instants. `cores`/`mcs` size the
    /// track metadata.
    pub fn to_chrome(&self, cores: usize, mcs: usize) -> ChromeTrace {
        /// Track id for memory controller `m` (cores occupy tids from 0).
        const MC_TID: u64 = 1000;
        let mut t = ChromeTrace::new();
        t.process_name("cwsp-sim");
        for c in 0..cores {
            t.thread_name(c as u64, &format!("core {c}"));
        }
        for m in 0..mcs {
            t.thread_name(MC_TID + m as u64, &format!("mc {m}"));
        }
        let first_cycle = self.events.front().map(|e| e.cycle()).unwrap_or(0);
        let last_cycle = self.events.iter().map(|e| e.cycle()).max().unwrap_or(0);
        // (core, region) -> open cycle, for pairing opens with retires.
        let mut open: Vec<(usize, DynRegionId, u64)> = Vec::new();
        for e in self.events() {
            match *e {
                Event::RegionOpen {
                    cycle,
                    core,
                    region,
                } => open.push((core, region, cycle)),
                Event::RegionRetire {
                    cycle,
                    core,
                    region,
                } => {
                    // A retire without a matched open was opened before the
                    // ring's window; start it at the window edge.
                    let start = match open.iter().position(|&(c, r, _)| c == core && r == region) {
                        Some(i) => open.swap_remove(i).2,
                        None => first_cycle.min(cycle),
                    };
                    t.complete(
                        core as u64,
                        "region",
                        &region.to_string(),
                        start,
                        cycle.saturating_sub(start),
                        vec![],
                    );
                }
                Event::PersistIssue {
                    cycle,
                    core,
                    region,
                    addr,
                } => t.instant(
                    core as u64,
                    "persist",
                    "pb-issue",
                    cycle,
                    vec![
                        ("region".into(), Value::Str(region.to_string())),
                        ("addr".into(), Value::Int(addr)),
                    ],
                ),
                Event::PersistArrive {
                    cycle,
                    mc,
                    region,
                    addr,
                } => t.instant(
                    MC_TID + mc as u64,
                    "persist",
                    "wpq-arrive",
                    cycle,
                    vec![
                        ("region".into(), Value::Str(region.to_string())),
                        ("addr".into(), Value::Int(addr)),
                    ],
                ),
                Event::UndoLogged {
                    cycle,
                    mc,
                    region,
                    addr,
                } => t.instant(
                    MC_TID + mc as u64,
                    "log",
                    "undo-append",
                    cycle,
                    vec![
                        ("region".into(), Value::Str(region.to_string())),
                        ("addr".into(), Value::Int(addr)),
                    ],
                ),
                Event::WbEnqueue { cycle, core, line } => t.instant(
                    core as u64,
                    "wb",
                    "wb-enqueue",
                    cycle,
                    vec![("line".into(), Value::Int(line))],
                ),
                Event::Stall {
                    cycle,
                    core,
                    kind,
                    region,
                    cycles,
                } => {
                    let mut args = Vec::new();
                    if let Some(r) = region {
                        args.push(("region".into(), Value::Str(r.to_string())));
                    }
                    t.complete(
                        core as u64,
                        "stall",
                        &format!("stall:{kind}"),
                        cycle,
                        cycles,
                        args,
                    );
                }
                Event::PowerFailure { cycle } => {
                    t.instant(0, "power", "POWER FAILURE", cycle, vec![])
                }
                Event::RecoveryStart { cycle, reverted } => t.instant(
                    0,
                    "recovery",
                    "recovery-start",
                    cycle,
                    vec![("reverted".into(), Value::Int(reverted))],
                ),
                Event::RecoveryReplay { cycle, core, steps } => t.instant(
                    core as u64,
                    "recovery",
                    "recovery-replay",
                    cycle,
                    vec![("steps".into(), Value::Int(steps))],
                ),
            }
        }
        // Regions still in flight at the end of the window: truncated spans.
        for (core, region, start) in open {
            t.complete(
                core as u64,
                "region",
                &region.to_string(),
                start,
                last_cycle.saturating_sub(start),
                vec![("truncated".into(), Value::Bool(true))],
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest() {
        let mut t = Trace::new(3);
        for c in 0..5 {
            t.record(Event::PowerFailure { cycle: c });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn display_formats_are_greppable() {
        let e = Event::PersistArrive {
            cycle: 42,
            mc: 1,
            region: DynRegionId(7),
            addr: 0x1000,
        };
        let s = e.to_string();
        assert!(
            s.contains("mc1") && s.contains("dyn7") && s.contains("0x1000"),
            "{s}"
        );
        let open = Event::RegionOpen {
            cycle: 1,
            core: 0,
            region: DynRegionId(0),
        };
        assert!(open.to_string().contains("open"));
        let stall = Event::Stall {
            cycle: 9,
            core: 2,
            kind: StallKind::Pb,
            region: Some(DynRegionId(3)),
            cycles: 12,
        };
        let s = stall.to_string();
        assert!(
            s.contains("core2") && s.contains("(pb)") && s.contains("dyn3") && s.contains("x12"),
            "{s}"
        );
    }

    #[test]
    fn tail_returns_last_lines() {
        let mut t = Trace::new(10);
        for c in 0..6 {
            t.record(Event::Stall {
                cycle: c,
                core: 0,
                kind: StallKind::Pb,
                region: None,
                cycles: 1,
            });
        }
        let tail = t.tail(2);
        assert_eq!(tail.lines().count(), 2);
        assert!(tail.contains("[       5]"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(4);
        assert!(t.is_empty());
        assert_eq!(t.tail(3), "");
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    fn post_mortem_reports_truncation() {
        let mut t = Trace::new(2);
        assert!(!t.post_mortem(4).contains("TRUNCATED"));
        for c in 0..5 {
            t.record(Event::PowerFailure { cycle: c });
        }
        let pm = t.post_mortem(4);
        assert!(pm.contains("2 events retained (ring capacity 2)"), "{pm}");
        assert!(pm.contains("TRUNCATED, 3 older events dropped"), "{pm}");
        assert!(pm.contains("POWER FAILURE"));
    }

    #[test]
    fn overflow_drop_counts_are_exact_across_many_wraparounds() {
        // dropped() must equal recorded - capacity exactly, no matter how
        // many times the ring wraps — the post-mortem banner quotes it.
        let cap = 7;
        let mut t = Trace::new(cap);
        let recorded = cap as u64 * 13 + 5; // several full wraps + a partial
        for c in 0..recorded {
            t.record(Event::PowerFailure { cycle: c });
        }
        assert_eq!(t.len(), cap);
        assert_eq!(t.dropped(), recorded - cap as u64);
        // The retained window is the exact newest suffix.
        let cycles: Vec<u64> = t.events().map(|e| e.cycle()).collect();
        let expect: Vec<u64> = (recorded - cap as u64..recorded).collect();
        assert_eq!(cycles, expect);
        let pm = t.post_mortem(cap);
        assert!(
            pm.contains(&format!(
                "TRUNCATED, {} older events dropped",
                recorded - cap as u64
            )),
            "{pm}"
        );
    }

    #[test]
    fn stall_region_ids_survive_ring_wraparound() {
        // Stall spans carry the draining region's id; eviction of older
        // events must not corrupt the ids of survivors, and the Chrome
        // export of the wrapped ring must still attribute them.
        let mut t = Trace::new(4);
        for i in 0..20u64 {
            t.record(Event::Stall {
                cycle: i * 10,
                core: (i % 2) as usize,
                kind: if i % 2 == 0 {
                    StallKind::Rbt
                } else {
                    StallKind::Wb
                },
                region: Some(DynRegionId(i)),
                cycles: i + 1,
            });
        }
        assert_eq!(t.dropped(), 16);
        // Survivors are stalls 16..20, each with its own region id intact.
        for (slot, e) in t.events().enumerate() {
            let i = 16 + slot as u64;
            match *e {
                Event::Stall {
                    cycle,
                    region,
                    cycles,
                    ..
                } => {
                    assert_eq!(cycle, i * 10);
                    assert_eq!(region, Some(DynRegionId(i)));
                    assert_eq!(cycles, i + 1);
                }
                ref other => panic!("expected a stall, got {other:?}"),
            }
        }
        // The wrapped ring's Chrome export keeps the attribution too.
        let ct = t.to_chrome(2, 1);
        let spans: Vec<_> = ct.events().iter().filter(|e| e.ph == 'X').collect();
        assert_eq!(spans.len(), 4);
        assert!(spans
            .iter()
            .any(|e| e.args.iter().any(|(k, v)| k == "region"
                && matches!(v, Value::Str(s) if s == &DynRegionId(19).to_string()))));
        // And the post-mortem text tail still names the region.
        assert!(t.post_mortem(4).contains(&DynRegionId(19).to_string()));
    }

    #[test]
    fn chrome_export_pairs_regions_and_maps_tracks() {
        let mut t = Trace::new(64);
        t.record(Event::RegionOpen {
            cycle: 10,
            core: 0,
            region: DynRegionId(1),
        });
        t.record(Event::PersistIssue {
            cycle: 12,
            core: 0,
            region: DynRegionId(1),
            addr: 0x40,
        });
        t.record(Event::PersistArrive {
            cycle: 30,
            mc: 1,
            region: DynRegionId(1),
            addr: 0x40,
        });
        t.record(Event::Stall {
            cycle: 31,
            core: 0,
            kind: StallKind::Sync,
            region: Some(DynRegionId(1)),
            cycles: 5,
        });
        t.record(Event::RegionRetire {
            cycle: 40,
            core: 0,
            region: DynRegionId(1),
        });
        t.record(Event::RegionOpen {
            cycle: 41,
            core: 0,
            region: DynRegionId(2),
        });
        let ct = t.to_chrome(1, 2);
        // Two complete spans on the core track: the region and the stall,
        // plus the truncated still-open region.
        assert_eq!(ct.complete_spans_on(0), 3);
        let spans: Vec<_> = ct.events().iter().filter(|e| e.ph == 'X').collect();
        let region = spans.iter().find(|e| e.name == "dyn1").unwrap();
        assert_eq!((region.ts, region.dur), (10, Some(30)));
        let stall = spans.iter().find(|e| e.name == "stall:sync").unwrap();
        assert_eq!((stall.ts, stall.dur), (31, Some(5)));
        // The MC instant landed on the mc track.
        assert!(ct
            .events()
            .iter()
            .any(|e| e.ph == 'i' && e.tid == 1001 && e.name == "wpq-arrive"));
        // A retire with no matched open gets a window-edge span.
        let mut t2 = Trace::new(8);
        t2.record(Event::RegionRetire {
            cycle: 50,
            core: 0,
            region: DynRegionId(9),
        });
        let ct2 = t2.to_chrome(1, 1);
        assert_eq!(ct2.complete_spans_on(0), 1);
    }
}
