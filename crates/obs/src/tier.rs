//! Publish the storage tier's process-wide telemetry (faults, evictions,
//! writeback batches, resident/spilled gauges — see `cwsp_store::tier`)
//! into a metrics registry under the `store.tier.*` namespace.
//!
//! The bench engine calls [`publish`] from its own registry dump, so any
//! figure binary run with `CWSP_OBS` set reports its paging traffic next to
//! its cache hit rates; the `storage-smoke` CI job reads the same snapshot
//! through [`snapshot_json`] (via `CWSP_TIER_JSON`).

use crate::json::Value;
use crate::Registry;
use cwsp_store::tier::{snapshot, TierSnapshot};

/// How many of [`fields`] are counters; the rest are gauges.
const COUNTERS: usize = 9;

/// Every field of `s` by name: the counters, then the gauges.
fn fields(s: &TierSnapshot) -> [(&'static str, u64); 13] {
    [
        ("faults", s.faults),
        ("evictions", s.evictions),
        ("writebacks", s.writebacks),
        ("writeback_batches", s.writeback_batches),
        ("writeback_ns", s.writeback_ns),
        ("spilled_loads", s.spilled_loads),
        ("resident_hits", s.resident_hits),
        ("zero_drops", s.zero_drops),
        ("spill_bytes", s.spill_bytes),
        ("resident_pages", s.resident_pages),
        ("resident_peak", s.resident_peak),
        ("resident_peak_per_instance", s.resident_peak_per_instance),
        ("spilled_pages", s.spilled_pages),
    ]
}

/// Publish the current [`TierSnapshot`] into `r`.
pub fn publish(r: &mut Registry) {
    publish_snapshot(r, &snapshot());
}

/// Publish an explicit snapshot (unit-testable without global state).
pub fn publish_snapshot(r: &mut Registry, s: &TierSnapshot) {
    for (i, (name, v)) in fields(s).into_iter().enumerate() {
        let name = format!("store.tier.{name}");
        if i < COUNTERS {
            let id = r.counter(&name);
            r.add(id, v);
        } else {
            let id = r.gauge(&name);
            r.set(id, v as f64);
        }
    }
}

/// The current tier telemetry as a flat JSON object.
pub fn snapshot_json() -> String {
    let fields = fields(&snapshot()).map(|(k, v)| (k.to_string(), Value::Int(v)));
    Value::Obj(fields.into()).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_publishes_every_field() {
        let s = TierSnapshot {
            faults: 1,
            evictions: 2,
            writebacks: 3,
            writeback_batches: 4,
            writeback_ns: 5,
            spilled_loads: 6,
            resident_hits: 7,
            zero_drops: 8,
            spill_bytes: 9,
            resident_pages: 10,
            resident_peak: 11,
            resident_peak_per_instance: 12,
            spilled_pages: 13,
        };
        let mut r = Registry::new();
        publish_snapshot(&mut r, &s);
        assert_eq!(r.counter_value("store.tier.faults"), 1);
        assert_eq!(r.counter_value("store.tier.spill_bytes"), 9);
        assert_eq!(r.gauge_value("store.tier.resident_peak_per_instance"), 12.0);
        assert_eq!(r.gauge_value("store.tier.spilled_pages"), 13.0);
    }

    #[test]
    fn snapshot_json_parses_as_flat_object() {
        let j = crate::json::parse(&snapshot_json()).unwrap();
        let Value::Obj(fields) = j else {
            panic!("not an object: {j:?}")
        };
        assert_eq!(fields.len(), 13);
        assert_eq!(fields[11].0, "resident_peak_per_instance");
        assert!(fields.iter().all(|(_, v)| v.as_u64().is_some()));
    }
}
