//! The persist-lineage event vocabulary and the bounded trace ring.
//!
//! [`Event`] is the one list of facts the machine reports about a store's
//! road to durability (region open/retire, PB issue, WPQ arrival, NVM
//! commit, write-buffer enqueue, checkpoint, sync commit, power failure)
//! plus coalesced stall spans. The machine records each fact once, through
//! one hook, and two consumers read it:
//!
//! * [`Trace`], a fixed-capacity ring of events the machine can be asked to
//!   record; the newest events — the ones leading up to a crash — are
//!   always retained. [`Trace::post_mortem`] renders the greppable text
//!   tail (with an explicit truncation banner when the ring dropped
//!   events), and [`Trace::to_chrome`] converts the whole ring into Chrome
//!   trace-event JSON (cores and memory controllers as named tracks,
//!   region/stall lifetimes as complete spans) for `chrome://tracing` or
//!   Perfetto.
//! * The crash-survivable flight journal (`cwsp_obs::flight`), which stores
//!   [`Event::flight_record`] of every fact; stall spans have no journal
//!   record.

use cwsp_ir::types::{DynRegionId, Word};
use cwsp_ir::FuncId;
use cwsp_obs::chrome::ChromeTrace;
use cwsp_obs::flight::{FlightKind, FlightRecord, REGION_NONE};
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

/// One persist-lineage fact (or stall span) reported by the machine.
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
    /// A store entered the persist buffer, issued by function `func`.
    PersistIssue {
        cycle: u64,
        core: usize,
        func: Option<FuncId>,
        region: DynRegionId,
        addr: Word,
    },
    /// A store of `core` reached a WPQ (and became persistent); `logged`
    /// when the MC appended an undo-log record for it (speculative region).
    PersistArrive {
        cycle: u64,
        core: usize,
        mc: usize,
        region: DynRegionId,
        addr: Word,
        logged: bool,
    },
    /// A WPQ slot drained to NVM media.
    NvmCommit {
        cycle: u64,
        mc: usize,
        region: DynRegionId,
        addr: Word,
    },
    /// A dirty line entered the write buffer.
    WbEnqueue { cycle: u64, core: usize, line: Word },
    /// A checkpoint store executed in function `func`, inside the open
    /// `region` (none outside the RBT schemes).
    Checkpoint {
        cycle: u64,
        core: usize,
        func: Option<FuncId>,
        region: Option<DynRegionId>,
        addr: Word,
    },
    /// An atomic/fence committed after draining: the resume point advanced
    /// past it, so stores of `region` issued before it never replay.
    SyncCommit {
        cycle: u64,
        core: usize,
        region: Option<DynRegionId>,
    },
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
}

impl Event {
    /// The cycle the event occurred at (start cycle for stall spans).
    pub fn cycle(&self) -> u64 {
        match self {
            Event::RegionOpen { cycle, .. }
            | Event::RegionRetire { cycle, .. }
            | Event::PersistIssue { cycle, .. }
            | Event::PersistArrive { cycle, .. }
            | Event::NvmCommit { cycle, .. }
            | Event::WbEnqueue { cycle, .. }
            | Event::Checkpoint { cycle, .. }
            | Event::SyncCommit { cycle, .. }
            | Event::Stall { cycle, .. }
            | Event::PowerFailure { cycle } => *cycle,
        }
    }

    /// The flight-journal record of this fact; `None` for a stall span,
    /// which is timing, not persist lineage. The text and Chrome renderings
    /// of a fact are drawn from this flat record too.
    pub fn flight_record(&self) -> Option<FlightRecord> {
        use FlightKind as K;
        let at = |kind, core: usize, mc: usize, logged, func, region, addr| FlightRecord {
            kind,
            core: core as u8,
            mc: mc as u8,
            logged,
            func: Option::map(func, |f: FuncId| f.0),
            cycle: self.cycle(),
            addr,
            region: Option::map_or(region, REGION_NONE, |r: DynRegionId| r.0),
        };
        Some(match *self {
            Event::RegionOpen { core, region, .. } => {
                at(K::RegionOpen, core, 0, false, None, Some(region), 0)
            }
            Event::RegionRetire { core, region, .. } => {
                at(K::RegionClose, core, 0, false, None, Some(region), 0)
            }
            Event::PersistIssue {
                core,
                func,
                region,
                addr,
                ..
            } => at(K::StoreIssue, core, 0, false, func, Some(region), addr),
            Event::PersistArrive {
                core,
                mc,
                region,
                addr,
                logged,
                ..
            } => at(K::WpqEnqueue, core, mc, logged, None, Some(region), addr),
            Event::NvmCommit {
                mc, region, addr, ..
            } => at(K::NvmCommit, 0, mc, false, None, Some(region), addr),
            Event::WbEnqueue { core, line, .. } => {
                at(K::LineEvict, core, 0, false, None, None, line)
            }
            Event::Checkpoint {
                core,
                func,
                region,
                addr,
                ..
            } => at(K::Checkpoint, core, 0, false, func, region, addr),
            Event::SyncCommit { core, region, .. } => {
                at(K::SyncCommit, core, 0, false, None, region, 0)
            }
            Event::PowerFailure { .. } => at(K::PowerFail, 0, 0, false, None, None, 0),
            Event::Stall { .. } => return None,
        })
    }
}

/// How a lineage fact renders, by journal kind: its text verb, its Chrome
/// category and instant name, whether the record's `addr` is meaningful,
/// and whether it happens at a memory controller (else at a core, or
/// machine-wide for a power failure).
fn style(kind: FlightKind) -> (&'static str, &'static str, &'static str, bool, bool) {
    use FlightKind as K;
    match kind {
        K::RegionOpen => ("open  ", "region", "open", false, false),
        K::RegionClose => ("retire", "region", "retire", false, false),
        K::StoreIssue => ("issue ", "persist", "pb-issue", true, false),
        K::WpqEnqueue => ("arrive", "persist", "wpq-arrive", true, true),
        K::NvmCommit => ("commit", "persist", "nvm-commit", true, true),
        K::LineEvict => ("wbenq ", "wb", "wb-enqueue", true, false),
        K::Checkpoint => ("ckpt  ", "persist", "checkpoint", true, false),
        K::SyncCommit => ("sync  ", "sync", "sync-commit", false, false),
        _ => ("", "power", "POWER FAILURE", false, false),
    }
}

/// The dynamic region a journal record names, if any.
fn region_of(r: &FlightRecord) -> Option<DynRegionId> {
    (r.region != REGION_NONE).then_some(DynRegionId(r.region))
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] ", self.cycle())?;
        let r = match *self {
            Event::Stall {
                core,
                kind,
                region,
                cycles,
                ..
            } => {
                write!(f, "core{core} stall  ({kind})")?;
                if let Some(r) = region {
                    write!(f, " {r}")?;
                }
                return write!(f, " x{cycles}");
            }
            Event::PowerFailure { .. } => return f.write_str("POWER FAILURE"),
            _ => self.flight_record().expect("a lineage fact"),
        };
        let (verb, _, _, has_addr, at_mc) = style(r.kind);
        let region = region_of(&r);
        // Pad the verb into a column only when something follows it.
        let verb = if region.is_some() || has_addr {
            verb
        } else {
            verb.trim_end()
        };
        if at_mc {
            write!(f, "mc{}   {verb}", r.mc)?;
        } else {
            write!(f, "core{} {verb}", r.core)?;
        }
        if let Some(region) = region {
            write!(f, " {region}")?;
        }
        if has_addr {
            write!(f, " @{:#x}", r.addr)?;
        }
        if r.logged {
            f.write_str(" +undo")?;
        }
        Ok(())
    }
}

/// Chrome-trace args naming `region`, when there is one.
fn region_args(region: Option<DynRegionId>) -> Vec<(String, Value)> {
    region
        .map(|r| ("region".into(), Value::Str(r.to_string())))
        .into_iter()
        .collect()
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
        let mut open: Vec<(u64, u64, u64)> = Vec::new();
        for e in self.events() {
            if let Event::Stall {
                cycle,
                core,
                kind,
                region,
                cycles,
            } = *e
            {
                let name = format!("stall:{kind}");
                t.complete(
                    core as u64,
                    "stall",
                    &name,
                    cycle,
                    cycles,
                    region_args(region),
                );
                continue;
            }
            let r = e.flight_record().expect("a lineage fact");
            let (core, cycle) = (u64::from(r.core), r.cycle);
            match r.kind {
                FlightKind::RegionOpen => open.push((core, r.region, cycle)),
                FlightKind::RegionClose => {
                    // A retire without a matched open was opened before the
                    // ring's window; start it at the window edge.
                    let start = match open
                        .iter()
                        .position(|&(c, g, _)| (c, g) == (core, r.region))
                    {
                        Some(i) => open.swap_remove(i).2,
                        None => first_cycle.min(cycle),
                    };
                    let name = DynRegionId(r.region).to_string();
                    t.complete(
                        core,
                        "region",
                        &name,
                        start,
                        cycle.saturating_sub(start),
                        vec![],
                    );
                }
                kind => {
                    let (_, cat, name, has_addr, at_mc) = style(kind);
                    let tid = match kind {
                        _ if at_mc => MC_TID + u64::from(r.mc),
                        FlightKind::PowerFail => 0,
                        _ => core,
                    };
                    let args = if kind == FlightKind::LineEvict {
                        vec![("line".into(), Value::Int(r.addr))]
                    } else {
                        let mut args = region_args(region_of(&r));
                        if has_addr {
                            args.push(("addr".into(), Value::Int(r.addr)));
                        }
                        args
                    };
                    if r.logged {
                        t.instant(tid, "log", "undo-append", cycle, args.clone());
                    }
                    t.instant(tid, cat, name, cycle, args);
                }
            }
        }
        // Regions still in flight at the end of the window: truncated spans.
        for (core, region, start) in open {
            t.complete(
                core,
                "region",
                &DynRegionId(region).to_string(),
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
            func: None,
            region: DynRegionId(1),
            addr: 0x40,
        });
        t.record(Event::PersistArrive {
            cycle: 30,
            core: 0,
            mc: 1,
            region: DynRegionId(1),
            addr: 0x40,
            logged: false,
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

    /// Every persist-lineage fact maps to exactly the journal record the
    /// machine built for it by hand before the trace ring and the journal
    /// shared one hook, renders as a greppable text line and exports to its
    /// Chrome track; a stall span has no journal record.
    #[test]
    fn every_fact_maps_to_its_journal_record_text_and_track() {
        let (cycle, core, mc, func, addr) = (77, 3, 2, Some(FuncId(5)), 0x40);
        let region = DynRegionId(9);
        let facts = [
            Event::RegionOpen {
                cycle,
                core,
                region,
            },
            Event::RegionRetire {
                cycle,
                core,
                region,
            },
            Event::PersistIssue {
                cycle,
                core,
                func,
                region,
                addr,
            },
            Event::PersistArrive {
                cycle,
                core,
                mc,
                region,
                addr,
                logged: true,
            },
            Event::NvmCommit {
                cycle,
                mc,
                region,
                addr,
            },
            Event::WbEnqueue {
                cycle,
                core,
                line: addr,
            },
            Event::Checkpoint {
                cycle,
                core,
                func,
                region: Some(region),
                addr,
            },
            Event::Checkpoint {
                cycle,
                core,
                func: None,
                region: None,
                addr,
            },
            Event::SyncCommit {
                cycle,
                core,
                region: Some(region),
            },
            Event::SyncCommit {
                cycle,
                core,
                region: None,
            },
            Event::PowerFailure { cycle },
        ];
        use FlightKind as K;
        let none = REGION_NONE;
        // (kind, core, mc, logged, func, addr, region) and text per fact.
        let want = [
            (K::RegionOpen, 3, 0, false, None, 0, 9),
            (K::RegionClose, 3, 0, false, None, 0, 9),
            (K::StoreIssue, 3, 0, false, Some(5), 0x40, 9),
            (K::WpqEnqueue, 3, 2, true, None, 0x40, 9),
            (K::NvmCommit, 0, 2, false, None, 0x40, 9),
            (K::LineEvict, 3, 0, false, None, 0x40, none),
            (K::Checkpoint, 3, 0, false, Some(5), 0x40, 9),
            (K::Checkpoint, 3, 0, false, None, 0x40, none),
            (K::SyncCommit, 3, 0, false, None, 0, 9),
            (K::SyncCommit, 3, 0, false, None, 0, none),
            (K::PowerFail, 0, 0, false, None, 0, none),
        ];
        let text = [
            "core3 open   dyn9",
            "core3 retire dyn9",
            "core3 issue  dyn9 @0x40",
            "mc2   arrive dyn9 @0x40 +undo",
            "mc2   commit dyn9 @0x40",
            "core3 wbenq  @0x40",
            "core3 ckpt   dyn9 @0x40",
            "core3 ckpt   @0x40",
            "core3 sync   dyn9",
            "core3 sync",
            "POWER FAILURE",
        ];
        assert_eq!(facts.len(), want.len());
        for ((e, (kind, core, mc, logged, func, addr, region)), text) in
            facts.iter().zip(want).zip(text)
        {
            let r = FlightRecord {
                kind,
                core,
                mc,
                logged,
                func,
                cycle: 77,
                addr,
                region,
            };
            assert_eq!(e.flight_record(), Some(r), "{e:?}");
            assert_eq!(e.to_string(), format!("[      77] {text}"));
        }
        let stall = Event::Stall {
            cycle: 9,
            core: 2,
            kind: StallKind::Pb,
            region: Some(DynRegionId(3)),
            cycles: 12,
        };
        assert_eq!(stall.flight_record(), None);
        assert_eq!(stall.to_string(), "[       9] core2 stall  (pb) dyn3 x12");

        let mut t = Trace::new(16);
        for &e in &facts {
            t.record(e);
        }
        // A logged arrival exports as an undo append, then the WPQ arrival.
        let ct = t.to_chrome(4, 3);
        let got: Vec<(u64, &str, usize)> = ct
            .events()
            .iter()
            .filter(|e| e.ph != 'M')
            .map(|e| (e.tid, e.name.as_str(), e.args.len()))
            .collect();
        let want = [
            (3, "dyn9", 0),
            (3, "pb-issue", 2),
            (1002, "undo-append", 2),
            (1002, "wpq-arrive", 2),
            (1002, "nvm-commit", 2),
            (3, "wb-enqueue", 1),
            (3, "checkpoint", 2),
            (3, "checkpoint", 1),
            (3, "sync-commit", 1),
            (3, "sync-commit", 0),
            (0, "POWER FAILURE", 0),
        ];
        assert_eq!(got, want);
    }
}
