//! Memory controllers: battery-backed write-pending queues (WPQ), NVM drain
//! timing, and per-region append-only hardware undo logs (§V-B2).
//!
//! A store arriving from the persist path is *persistent* the moment it
//! enters the WPQ — the WPQ sits inside the ADR persistence domain, and ADR
//! guarantees enough residual energy to finish each entry's failure-atomic
//! `⟨undo-log append, in-place data write⟩` pair. The simulator therefore
//! applies both to the NVM image at acceptance time; the WPQ entry then
//! occupies a slot until its drain latency elapses, which is what creates
//! back-pressure (Fig 26's WPQ-size sensitivity).

use cwsp_ir::memory::Memory;
use cwsp_ir::types::{DynRegionId, Word};
use std::collections::VecDeque;

/// One WPQ slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WpqSlot {
    addr: Word,
    region: DynRegionId,
    /// Cycle at which the slot frees (drain to media complete).
    free_at: u64,
}

/// A single memory controller.
#[derive(Debug, Clone)]
pub struct MemoryController {
    wpq_cap: usize,
    wpq: VecDeque<WpqSlot>,
    /// Undo-log records `(region, addr, old value)` in MC-local NVM: the
    /// per-region append-only arrays side by side, in arrival order.
    logs: Vec<(DynRegionId, Word, Word)>,
    /// Regions at or below this id are non-speculative: their arrivals are
    /// not logged and their arrays have been reclaimed.
    nonspec_horizon: Option<DynRegionId>,
    /// Media write pipeline: next cycle a new drain can start.
    media_free_at: u64,
    /// Drain cost per plain entry, in cycles.
    drain_cycles: u64,
    /// Extra drain cost when the entry also appends an undo log.
    log_extra_cycles: u64,
    /// Total log appends (statistics).
    pub log_appends: u64,
    /// Total NVM word writes performed (data + log words).
    pub nvm_writes: u64,
}

impl MemoryController {
    /// A controller with `wpq_cap` slots and the given drain costs.
    pub fn new(wpq_cap: usize, drain_cycles: u64, log_extra_cycles: u64) -> Self {
        MemoryController {
            wpq_cap,
            wpq: VecDeque::new(),
            logs: Vec::new(),
            nonspec_horizon: None,
            media_free_at: 0,
            drain_cycles,
            log_extra_cycles,
            log_appends: 0,
            nvm_writes: 0,
        }
    }

    /// Whether a new arrival can be accepted.
    pub fn wpq_has_space(&self) -> bool {
        self.wpq.len() < self.wpq_cap
    }

    /// Current WPQ occupancy.
    pub fn wpq_occupancy(&self) -> usize {
        self.wpq.len()
    }

    /// Accept a store at `cycle`, applying the failure-atomic log+write to the
    /// NVM image. Returns whether an undo-log record was appended for it, or
    /// `None` (having done nothing) when the WPQ is full.
    pub fn accept(
        &mut self,
        cycle: u64,
        region: DynRegionId,
        addr: Word,
        data: Word,
        log_bit: bool,
        nvm: &mut Memory,
    ) -> Option<bool> {
        if !self.wpq_has_space() {
            return None;
        }
        let speculative = log_bit && self.nonspec_horizon.is_none_or(|h| region > h);
        if speculative {
            self.logs.push((region, addr, nvm.load(addr)));
            self.log_appends += 1;
            self.nvm_writes += 2; // log record: address + old value
        }
        nvm.store(addr, data);
        self.enqueue(cycle, region, addr, speculative);
        Some(speculative)
    }

    /// Timing-only acceptance: occupies a WPQ slot and charges drain time but
    /// does not touch the NVM image (used for cacheline schemes whose line
    /// payloads the simulator does not materialize). Returns `false` when
    /// the WPQ is full.
    pub fn accept_timing_only(&mut self, cycle: u64, region: DynRegionId, addr: Word) -> bool {
        if !self.wpq_has_space() {
            return false;
        }
        // A cacheline entry writes 8 data words plus an 8-word redo/undo log
        // record (Capri's §II-D write amplification); `enqueue` counts one.
        self.nvm_writes += 15;
        self.enqueue(cycle, region, addr, false);
        true
    }

    /// Queue an accepted entry behind the media pipeline; a `logged` entry
    /// also drains its undo-log record.
    fn enqueue(&mut self, cycle: u64, region: DynRegionId, addr: Word, logged: bool) {
        let cost = self.drain_cycles + if logged { self.log_extra_cycles } else { 0 };
        self.nvm_writes += 1;
        let start = self.media_free_at.max(cycle);
        self.media_free_at = start + cost;
        self.wpq.push_back(WpqSlot {
            addr,
            region,
            free_at: start + cost,
        });
    }

    /// Free the oldest slot that has drained to media by `cycle`, returning
    /// its (addr, region) — an NVM media commit. Call until `None` to free
    /// every drained slot.
    pub fn tick(&mut self, cycle: u64) -> Option<(Word, DynRegionId)> {
        let s = self.wpq.front().filter(|s| s.free_at <= cycle)?;
        let drained = (s.addr, s.region);
        self.wpq.pop_front();
        Some(drained)
    }

    /// The (addr, region) of every slot still queued for media, in arrival
    /// order — the in-WPQ slice of the crash forensics frontier.
    pub fn wpq_entries(&self) -> impl Iterator<Item = (Word, DynRegionId)> + '_ {
        self.wpq.iter().map(|s| (s.addr, s.region))
    }

    /// If a load to `addr` would hit a pending 8-byte WPQ entry, the cycle at
    /// which that entry drains (§V-A2: such loads are delayed — Fig 8).
    pub fn wpq_hit(&self, addr: Word) -> Option<u64> {
        self.wpq.iter().find(|s| s.addr == addr).map(|s| s.free_at)
    }

    /// Reclaim the log arrays of every region at or below `dyn_id` — they
    /// became non-speculative (§V-B2).
    pub fn dealloc_logs_upto(&mut self, dyn_id: DynRegionId) {
        self.nonspec_horizon = Some(match self.nonspec_horizon {
            Some(h) => h.max(dyn_id),
            None => dyn_id,
        });
        self.logs.retain(|&(r, ..)| r > dyn_id);
    }

    /// Total live log records (bounded by RBT size × stores/region — §V-B2
    /// argues this stays tiny).
    pub fn live_log_records(&self) -> usize {
        self.logs.len()
    }

    /// Power-failure log reversal (§VII step 1): revert this MC's surviving
    /// logs in reverse region order (and reverse append order within each
    /// region), then discard them. Records of several regions, from several
    /// cores, interleave in the array; a stable sort by region at the crash
    /// restores per-region append order.
    pub fn crash_revert(&mut self, nvm: &mut Memory) -> usize {
        self.logs.sort_by_key(|&(r, ..)| r);
        for &(_, addr, old) in self.logs.iter().rev() {
            nvm.store(addr, old);
        }
        let reverted = self.logs.len();
        self.logs.clear();
        reverted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(2, 10, 10)
    }

    #[test]
    fn accept_writes_nvm_and_occupies_slot() {
        let mut m = mc();
        let mut nvm = Memory::new();
        assert_eq!(
            m.accept(0, DynRegionId(1), 64, 7, false, &mut nvm),
            Some(false)
        );
        assert_eq!(nvm.load(64), 7);
        assert_eq!(m.wpq_occupancy(), 1);
        assert_eq!(m.nvm_writes, 1);
        assert_eq!(m.tick(9), None);
        assert_eq!(m.wpq_occupancy(), 1, "drain takes 10 cycles");
        assert_eq!(m.tick(10), Some((64, DynRegionId(1))), "media commit");
        assert_eq!(m.wpq_occupancy(), 0);
    }

    #[test]
    fn wpq_full_rejects() {
        let mut m = mc();
        let mut nvm = Memory::new();
        assert_eq!(
            m.accept(0, DynRegionId(1), 0, 1, false, &mut nvm),
            Some(false)
        );
        assert_eq!(
            m.accept(0, DynRegionId(1), 8, 2, false, &mut nvm),
            Some(false)
        );
        assert_eq!(m.accept(0, DynRegionId(1), 16, 3, false, &mut nvm), None);
        assert_eq!(nvm.load(16), 0, "rejected store does not reach NVM");
    }

    #[test]
    fn speculative_store_logs_old_value() {
        let mut m = mc();
        let mut nvm = Memory::new();
        nvm.store(64, 100);
        assert_eq!(
            m.accept(0, DynRegionId(2), 64, 200, true, &mut nvm),
            Some(true),
            "reported as logged"
        );
        assert_eq!(nvm.load(64), 200, "in-place update");
        assert_eq!(m.log_appends, 1);
        assert_eq!(m.live_log_records(), 1);
        assert_eq!(m.nvm_writes, 3, "log addr + old value + data");
    }

    #[test]
    fn crash_revert_restores_in_reverse_order() {
        let mut m = MemoryController::new(8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 1);
        // Region 2 then region 3 overwrite the same word speculatively.
        m.accept(0, DynRegionId(2), 64, 2, true, &mut nvm);
        m.accept(0, DynRegionId(3), 64, 3, true, &mut nvm);
        assert_eq!(nvm.load(64), 3);
        let n = m.crash_revert(&mut nvm);
        assert_eq!(n, 2);
        assert_eq!(nvm.load(64), 1, "original value restored");
        assert_eq!(m.live_log_records(), 0);
    }

    #[test]
    fn log_overwrite_hazard_is_prevented_by_append_only_logs() {
        // Figure 10(c): str1 (region 1) and str2 (region 2) hit the same
        // address; append-only per-region logs must restore the ORIGINAL
        // value, not region 1's value.
        let mut m = MemoryController::new(8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 100);
        m.accept(0, DynRegionId(1), 64, 150, true, &mut nvm); // logs old=100
        m.accept(0, DynRegionId(2), 64, 200, true, &mut nvm); // logs old=150
        m.crash_revert(&mut nvm);
        assert_eq!(nvm.load(64), 100);
    }

    #[test]
    fn dealloc_makes_region_nonspeculative() {
        let mut m = MemoryController::new(8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 1);
        m.accept(0, DynRegionId(2), 64, 2, true, &mut nvm);
        m.dealloc_logs_upto(DynRegionId(2));
        assert_eq!(m.live_log_records(), 0);
        // Late-arriving store of the promoted region is no longer logged.
        assert_eq!(
            m.accept(1, DynRegionId(2), 72, 9, true, &mut nvm),
            Some(false)
        );
        assert_eq!(m.log_appends, 1, "no new log");
        // Crash now reverts nothing: region 2's effects are in place and will
        // be re-executed from its entry.
        m.crash_revert(&mut nvm);
        assert_eq!(nvm.load(64), 2);
    }

    #[test]
    fn crash_revert_walks_regions_newest_first_in_reverse_append_order() {
        // Records of regions 5, 5, 3, 5, 4 (as from several cores) arrive
        // interleaved at one MC. The revert must apply region 5's records
        // newest first, then region 4's, then region 3's.
        let mut m = MemoryController::new(8, 1, 1);
        let mut nvm = Memory::new();
        nvm.store(64, 1);
        nvm.store(72, 2);
        m.accept(0, DynRegionId(5), 64, 10, true, &mut nvm); // logs 64=1
        m.accept(0, DynRegionId(5), 72, 20, true, &mut nvm); // logs 72=2
        m.accept(0, DynRegionId(3), 64, 30, true, &mut nvm); // logs 64=10
        m.accept(0, DynRegionId(5), 72, 40, true, &mut nvm); // logs 72=20
        m.accept(0, DynRegionId(4), 64, 50, true, &mut nvm); // logs 64=30
        assert_eq!(m.live_log_records(), 5);
        assert_eq!(m.crash_revert(&mut nvm), 5);
        // Word 64 ends at region 3's logged value: reverse append order
        // would end at 1, ascending region order at 1 as well.
        assert_eq!(nvm.load(64), 10);
        // Word 72 ends at region 5's oldest logged value: forward order
        // within the region would end at 20.
        assert_eq!(nvm.load(72), 2);
        assert_eq!(m.live_log_records(), 0);
    }

    #[test]
    fn dealloc_keeps_younger_regions_when_arrivals_are_out_of_order() {
        let mut m = MemoryController::new(8, 1, 1);
        let mut nvm = Memory::new();
        for (region, addr) in [(7, 0), (4, 8), (6, 16), (5, 24), (7, 32)] {
            m.accept(0, DynRegionId(region), addr, 1, true, &mut nvm);
        }
        m.dealloc_logs_upto(DynRegionId(5));
        assert_eq!(m.live_log_records(), 3, "regions 6, 7, 7 stay");
        // Region 5 is now non-speculative: its late arrivals are not logged.
        m.accept(0, DynRegionId(5), 40, 1, true, &mut nvm);
        assert_eq!(m.live_log_records(), 3);
        // An older horizon never re-opens logging for promoted regions.
        m.dealloc_logs_upto(DynRegionId(2));
        m.accept(0, DynRegionId(4), 48, 1, true, &mut nvm);
        assert_eq!(m.live_log_records(), 3);
        m.dealloc_logs_upto(DynRegionId(6));
        assert_eq!(m.live_log_records(), 2, "region 7's two records stay");
        // The survivors revert to their logged old values (0: fresh NVM).
        m.crash_revert(&mut nvm);
        assert_eq!((nvm.load(0), nvm.load(32)), (0, 0));
        assert_eq!((nvm.load(8), nvm.load(16), nvm.load(24)), (1, 1, 1));
    }

    #[test]
    fn wpq_hit_reports_drain_time() {
        let mut m = mc();
        let mut nvm = Memory::new();
        m.accept(5, DynRegionId(1), 64, 7, false, &mut nvm);
        assert_eq!(m.wpq_hit(64), Some(15));
        assert_eq!(m.wpq_hit(72), None);
        m.tick(15);
        assert_eq!(m.wpq_hit(64), None);
    }

    #[test]
    fn logged_drain_is_slower() {
        let mut m = MemoryController::new(4, 10, 10);
        let mut nvm = Memory::new();
        m.accept(0, DynRegionId(5), 0, 1, true, &mut nvm); // 20 cycles
        m.accept(0, DynRegionId(5), 8, 1, false, &mut nvm); // +10 (pipelined)
        m.tick(19);
        assert_eq!(m.wpq_occupancy(), 2);
        m.tick(20);
        assert_eq!(m.wpq_occupancy(), 1);
        m.tick(30);
        assert_eq!(m.wpq_occupancy(), 0);
    }
}
