//! Chrome trace-event JSON output.
//!
//! Builds the JSON-object trace format consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): a `traceEvents` array of phase
//! events. We emit:
//!
//! * `ph:"X"` **complete** spans (a name, a start timestamp, a duration) —
//!   region lifetimes, stall intervals, compiler passes;
//! * `ph:"i"` **instant** events — persist arrivals, undo-log appends,
//!   power failure;
//! * `ph:"C"` **counter** events — occupancy series;
//! * `ph:"M"` **metadata** — process/thread names, which is how cores and
//!   memory controllers become named tracks.
//!
//! Timestamps are in trace "microseconds" but carry **simulated cycles**
//! (1 µs = 1 cycle); the viewer's absolute numbers then read directly as
//! cycles. Events are kept in insertion order; the format does not require
//! sorting.

use crate::json::{obj, Value};

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Display name.
    pub name: String,
    /// Category (comma-separated tags; used by viewer filters).
    pub cat: String,
    /// Phase: `'X'` complete, `'i'` instant, `'C'` counter, `'M'` metadata.
    pub ph: char,
    /// Timestamp (simulated cycles).
    pub ts: u64,
    /// Duration in cycles (`ph:'X'` only).
    pub dur: Option<u64>,
    /// Process id (track group).
    pub pid: u64,
    /// Thread id (track within the group).
    pub tid: u64,
    /// Event arguments (the `args` object in the JSON).
    pub args: Vec<(String, Value)>,
}

/// A trace under construction.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
}

/// The single simulated process all tracks live under.
pub const PID: u64 = 1;

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Name the process (shown as the track-group header).
    pub fn process_name(&mut self, name: &str) {
        self.events.push(ChromeEvent {
            name: "process_name".into(),
            cat: "__metadata".into(),
            ph: 'M',
            ts: 0,
            dur: None,
            pid: PID,
            tid: 0,
            args: vec![("name".into(), Value::Str(name.into()))],
        });
    }

    /// Name a track (e.g. `core 0`, `mc 1`).
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        self.events.push(ChromeEvent {
            name: "thread_name".into(),
            cat: "__metadata".into(),
            ph: 'M',
            ts: 0,
            dur: None,
            pid: PID,
            tid,
            args: vec![("name".into(), Value::Str(name.into()))],
        });
    }

    /// A complete span of `dur` cycles starting at `ts` on track `tid`.
    pub fn complete(
        &mut self,
        tid: u64,
        cat: &str,
        name: &str,
        ts: u64,
        dur: u64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat: cat.into(),
            ph: 'X',
            ts,
            dur: Some(dur.max(1)),
            pid: PID,
            tid,
            args,
        });
    }

    /// An instant event at `ts` on track `tid`.
    pub fn instant(
        &mut self,
        tid: u64,
        cat: &str,
        name: &str,
        ts: u64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat: cat.into(),
            ph: 'i',
            ts,
            dur: None,
            pid: PID,
            tid,
            args,
        });
    }

    /// A counter sample at `ts` (each arg becomes one series).
    pub fn counter(&mut self, tid: u64, name: &str, ts: u64, series: Vec<(String, Value)>) {
        self.events.push(ChromeEvent {
            name: name.into(),
            cat: "counter".into(),
            ph: 'C',
            ts,
            dur: None,
            pid: PID,
            tid,
            args: series,
        });
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[ChromeEvent] {
        &self.events
    }

    /// Number of complete (`ph:'X'`) spans on track `tid`.
    pub fn complete_spans_on(&self, tid: u64) -> usize {
        self.events
            .iter()
            .filter(|e| e.ph == 'X' && e.tid == tid)
            .count()
    }

    /// Track ids that carry at least one non-metadata event.
    pub fn tracks(&self) -> Vec<u64> {
        let mut tids: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.ph != 'M')
            .map(|e| e.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Serialize as the JSON-object trace format, compact: traces run to
    /// megabytes.
    pub fn to_json(&self) -> String {
        let events = self.events.iter().map(|e| {
            let mut fields = vec![
                ("name", e.name.as_str().into()),
                ("cat", e.cat.as_str().into()),
                ("ph", e.ph.to_string().into()),
                ("ts", e.ts.into()),
                ("pid", e.pid.into()),
                ("tid", e.tid.into()),
            ];
            if let Some(d) = e.dur {
                fields.push(("dur", d.into()));
            }
            if e.ph == 'i' {
                // Instant scope: thread.
                fields.push(("s", "t".into()));
            }
            if !e.args.is_empty() {
                fields.push(("args", Value::Obj(e.args.clone())));
            }
            obj(fields)
        });
        obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Value::Arr(events.collect())),
        ])
        .to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_tracks_spans_and_instants() {
        let mut t = ChromeTrace::new();
        t.process_name("cwsp-sim");
        t.thread_name(0, "core 0");
        t.thread_name(1000, "mc 0");
        t.complete(
            0,
            "region",
            "dyn3",
            100,
            50,
            vec![("insts".into(), Value::Int(12))],
        );
        t.instant(1000, "persist", "arrive", 120, vec![]);
        assert_eq!(t.complete_spans_on(0), 1);
        assert_eq!(t.complete_spans_on(1000), 0);
        assert_eq!(t.tracks(), vec![0, 1000]);
    }

    #[test]
    fn json_shape_is_chrome_compatible() {
        let mut t = ChromeTrace::new();
        t.thread_name(0, "core 0");
        t.complete(
            0,
            "stall",
            "stall:pb",
            7,
            3,
            vec![("region".into(), Value::Str("dyn1".into()))],
        );
        t.instant(
            0,
            "power",
            "POWER FAILURE",
            11,
            vec![("bool".into(), Value::Bool(true))],
        );
        t.counter(0, "occupancy", 5, vec![("wb".into(), Value::Int(4))]);
        let doc = crate::json::parse(&t.to_json()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = evs
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases, ["M", "X", "i", "C"]);
        assert_eq!(evs[1].get("dur").unwrap().as_u64(), Some(3));
        assert_eq!(
            evs[1].get("args").unwrap().get("region").unwrap().as_str(),
            Some("dyn1")
        );
        assert_eq!(evs[2].get("s").unwrap().as_str(), Some("t"));
        assert_eq!(evs[2].get("dur"), None);
        assert_eq!(
            evs[3].get("args").unwrap().get("wb").unwrap().as_u64(),
            Some(4)
        );
    }

    #[test]
    fn zero_duration_spans_are_widened_to_render() {
        let mut t = ChromeTrace::new();
        t.complete(0, "c", "x", 5, 0, vec![]);
        assert_eq!(t.events()[0].dur, Some(1));
    }
}
