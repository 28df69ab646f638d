//! Process-wide tier telemetry: every tiered memory in the process reports
//! its paging traffic here, and the observability layer (`cwsp_obs::tier`)
//! publishes a snapshot into the metrics registry.
//!
//! Counters are monotonic; `resident_pages`/`spilled_pages` are gauges
//! (current totals across live memories), and `resident_peak_per_instance`
//! is the high-water resident-page count of any *single* memory — the value
//! the `fig_beyond_ram` storage smoke asserts never exceeds
//! `CWSP_MEM_BUDGET`.

use std::sync::atomic::{AtomicU64, Ordering};

static FAULTS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static WRITEBACKS: AtomicU64 = AtomicU64::new(0);
static WRITEBACK_BATCHES: AtomicU64 = AtomicU64::new(0);
static WRITEBACK_NS: AtomicU64 = AtomicU64::new(0);
static SPILLED_LOADS: AtomicU64 = AtomicU64::new(0);
static RESIDENT_HITS: AtomicU64 = AtomicU64::new(0);
static ZERO_DROPS: AtomicU64 = AtomicU64::new(0);
static SPILL_BYTES: AtomicU64 = AtomicU64::new(0);
static RESIDENT_PAGES: AtomicU64 = AtomicU64::new(0);
static RESIDENT_PEAK: AtomicU64 = AtomicU64::new(0);
static RESIDENT_PEAK_PER_INSTANCE: AtomicU64 = AtomicU64::new(0);
static SPILLED_PAGES: AtomicU64 = AtomicU64::new(0);

/// A page was faulted from the spill tier (or the writeback buffer) back
/// into the resident set.
pub fn record_fault() {
    FAULTS.fetch_add(1, Ordering::Relaxed);
}

/// A resident page was chosen by the clock hand and left the resident set.
pub fn record_eviction() {
    EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

/// `pages` dirty pages were appended to the spill file in one batch taking
/// `ns` nanoseconds.
pub fn record_writeback_batch(pages: u64, ns: u64) {
    WRITEBACKS.fetch_add(pages, Ordering::Relaxed);
    WRITEBACK_BATCHES.fetch_add(1, Ordering::Relaxed);
    WRITEBACK_NS.fetch_add(ns, Ordering::Relaxed);
}

/// A load was served straight from the spill tier (no promotion).
pub fn record_spilled_load() {
    SPILLED_LOADS.fetch_add(1, Ordering::Relaxed);
}

/// Accesses served by resident pages, reported in bulk (the hot path counts
/// locally and flushes on drop to keep atomics off simulated loads/stores).
pub fn record_resident_hits(n: u64) {
    if n > 0 {
        RESIDENT_HITS.fetch_add(n, Ordering::Relaxed);
    }
}

/// An all-zero page was dropped at eviction instead of being spilled
/// (zero-store sparsity reclaims it exactly like the in-RAM tier).
pub fn record_zero_drop() {
    ZERO_DROPS.fetch_add(1, Ordering::Relaxed);
}

/// Bytes appended to the spill file.
pub fn record_spill_bytes(n: u64) {
    SPILL_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// The resident set of some memory grew by one page; `instance_resident` is
/// that memory's new resident count (for the per-instance peak gauge).
pub fn resident_add(instance_resident: u64) {
    let now = RESIDENT_PAGES.fetch_add(1, Ordering::Relaxed) + 1;
    RESIDENT_PEAK.fetch_max(now, Ordering::Relaxed);
    RESIDENT_PEAK_PER_INSTANCE.fetch_max(instance_resident, Ordering::Relaxed);
}

/// The resident set of some memory shrank by `n` pages.
pub fn resident_sub(n: u64) {
    RESIDENT_PAGES.fetch_sub(n, Ordering::Relaxed);
}

/// The spilled set grew (+1) or shrank (-1 on fault-back / zero drop).
pub fn spilled_delta(d: i64) {
    if d >= 0 {
        SPILLED_PAGES.fetch_add(d as u64, Ordering::Relaxed);
    } else {
        SPILLED_PAGES.fetch_sub((-d) as u64, Ordering::Relaxed);
    }
}

/// Immutable snapshot of all tier telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Pages faulted back into the resident set.
    pub faults: u64,
    /// Pages evicted by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back to the spill file.
    pub writebacks: u64,
    /// Writeback batches flushed.
    pub writeback_batches: u64,
    /// Nanoseconds spent flushing writeback batches.
    pub writeback_ns: u64,
    /// Loads served straight from the spill tier.
    pub spilled_loads: u64,
    /// Accesses served by resident pages (bulk-reported).
    pub resident_hits: u64,
    /// All-zero pages dropped at eviction instead of spilled.
    pub zero_drops: u64,
    /// Bytes appended to the spill file.
    pub spill_bytes: u64,
    /// Current resident pages across all live tiered memories.
    pub resident_pages: u64,
    /// Peak of `resident_pages`.
    pub resident_peak: u64,
    /// Peak resident pages of any single memory — compare against
    /// `CWSP_MEM_BUDGET`.
    pub resident_peak_per_instance: u64,
    /// Current spilled pages across all live tiered memories.
    pub spilled_pages: u64,
}

/// Snapshot every counter and gauge.
pub fn snapshot() -> TierSnapshot {
    TierSnapshot {
        faults: FAULTS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        writebacks: WRITEBACKS.load(Ordering::Relaxed),
        writeback_batches: WRITEBACK_BATCHES.load(Ordering::Relaxed),
        writeback_ns: WRITEBACK_NS.load(Ordering::Relaxed),
        spilled_loads: SPILLED_LOADS.load(Ordering::Relaxed),
        resident_hits: RESIDENT_HITS.load(Ordering::Relaxed),
        zero_drops: ZERO_DROPS.load(Ordering::Relaxed),
        spill_bytes: SPILL_BYTES.load(Ordering::Relaxed),
        resident_pages: RESIDENT_PAGES.load(Ordering::Relaxed),
        resident_peak: RESIDENT_PEAK.load(Ordering::Relaxed),
        resident_peak_per_instance: RESIDENT_PEAK_PER_INSTANCE.load(Ordering::Relaxed),
        spilled_pages: SPILLED_PAGES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let before = snapshot();
        record_fault();
        record_eviction();
        record_writeback_batch(3, 1000);
        record_spilled_load();
        record_resident_hits(10);
        record_zero_drop();
        resident_add(1);
        resident_sub(1);
        spilled_delta(2);
        spilled_delta(-2);
        let after = snapshot();
        assert!(after.faults > before.faults);
        assert!(after.evictions > before.evictions);
        assert!(after.writebacks >= before.writebacks + 3);
        assert!(after.writeback_batches > before.writeback_batches);
        assert!(after.spilled_loads > before.spilled_loads);
        assert!(after.resident_hits >= before.resident_hits + 10);
        assert!(after.zero_drops > before.zero_drops);
        assert!(after.resident_peak >= 1);
    }
}
