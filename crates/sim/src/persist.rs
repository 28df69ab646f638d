//! The cWSP persist hardware on the core side: the persist buffer (PB), the
//! region boundary table (RBT), and the FIFO persist path (§III-B, §V).
//!
//! * **PB** — Intel's write-combining buffer repurposed as a volatile persist
//!   buffer: one entry per committed store `(region, addr, data, log-bit)`,
//!   drained in FIFO order onto the persist path. The WB-delay mechanism CAM
//!   searches it by cacheline.
//! * **RBT** — one entry per in-flight dynamic region: `Region ID`,
//!   `PendingWrs`, `MCBitVec`, and the recovery metadata ("RS Pointer"). The
//!   head is the oldest unpersisted — non-speculative — region; everything
//!   younger is speculative and undo-logged at the MCs (§V-B).
//! * **Persist path** — a latency/bandwidth-modelled FIFO from cores to
//!   memory controllers. cWSP sends 8-byte entries; cacheline schemes
//!   (Capri, ReplayCache) send 64 bytes per entry, an 8× bandwidth demand.

use crate::cache::line_of;
use cwsp_ir::interp::ResumePoint;
use cwsp_ir::types::{DynRegionId, RegionId, Word};
use std::collections::VecDeque;

/// One persist-buffer entry (Figure 9's PB fields plus a host-side sequence
/// number used for in-order deallocation). Whether it has been sent down the
/// persist path follows from its position: see [`PersistBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbEntry {
    /// Host-side sequence number (monotonic per core).
    pub seq: u64,
    /// Dynamic region that issued the store.
    pub region: DynRegionId,
    /// 8-byte-aligned store address.
    pub addr: Word,
    /// Store data.
    pub data: Word,
    /// Whether the store is speculative and must be undo-logged at the MC.
    pub log_bit: bool,
}

/// The per-core persist buffer.
///
/// The persist path is a FIFO and its acks arrive in order, so the entries
/// already sent always form a prefix of the buffer: a count of them replaces
/// a per-entry flag, and sending, completing and finding the next entry to
/// send are all O(1).
#[derive(Debug, Clone, Default)]
pub struct PersistBuffer {
    cap: usize,
    entries: VecDeque<PbEntry>,
    next_seq: u64,
    /// The first `sent` entries are on the persist path.
    sent: usize,
}

impl PersistBuffer {
    /// An empty PB with `cap` entries.
    pub fn new(cap: usize) -> Self {
        PersistBuffer {
            cap,
            entries: VecDeque::new(),
            next_seq: 0,
            sent: 0,
        }
    }

    /// Whether a new entry can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Current occupancy.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty (everything persisted).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocate an entry for a committed store; returns its sequence number.
    ///
    /// # Panics
    /// Panics when full — callers must check [`PersistBuffer::has_space`]
    /// (the core stalls instead).
    pub fn push(&mut self, region: DynRegionId, addr: Word, data: Word, log_bit: bool) -> u64 {
        assert!(self.has_space(), "PB overflow — core must stall");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(PbEntry {
            seq,
            region,
            addr,
            data,
            log_bit,
        });
        seq
    }

    /// The oldest unsent entry, if any (the persist path sends in order).
    pub fn next_unsent(&self) -> Option<&PbEntry> {
        self.entries.get(self.sent)
    }

    /// Record that [`PersistBuffer::next_unsent`] went down the path.
    pub fn mark_sent(&mut self) {
        debug_assert!(self.sent < self.entries.len(), "nothing left to send");
        self.sent += 1;
    }

    /// Deallocate `seq` (its data reached the WPQ). Acks arrive in FIFO order
    /// (the path is a FIFO), so every entry up to and including `seq` is done
    /// and popped from the head.
    pub fn complete(&mut self, seq: u64) {
        while self.entries.front().is_some_and(|head| head.seq <= seq) {
            self.entries.pop_front();
            self.sent = self.sent.saturating_sub(1);
        }
    }

    /// CAM search: does any entry touch `line` (64-byte granularity)? Used by
    /// the WB-delay mechanism (§V-A1).
    pub fn matches_line(&self, line: Word) -> bool {
        self.entries.iter().any(|e| line_of(e.addr) == line)
    }

    /// Whether any entry still awaits its persist-path send.
    pub fn has_unsent(&self) -> bool {
        self.sent < self.entries.len()
    }

    /// Every live entry in issue order with whether it was sent — the
    /// persist-buffer slice of the crash forensics frontier (sent entries are
    /// on the wire; unsent ones never left the core).
    pub fn entries(&self) -> impl Iterator<Item = (&PbEntry, bool)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e, i < self.sent))
    }
}

/// One RBT entry (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RbtEntry {
    /// Globally unique dynamic region id.
    pub dyn_id: DynRegionId,
    /// Static region id (None for implicit call/return regions).
    pub static_region: Option<RegionId>,
    /// Recovery entry point of this region ("RS Pointer" + context).
    pub resume: ResumePoint,
    /// Number of stores issued by this region that have not reached a WPQ.
    pub pending: u32,
    /// Bit per memory controller this region has stored to (`MCBitVec`).
    pub mc_mask: u8,
    /// Whether the region has ended (its closing boundary committed).
    pub closed: bool,
}

/// The per-core region boundary table.
#[derive(Debug, Clone, Default)]
pub struct RegionBoundaryTable {
    cap: usize,
    entries: VecDeque<RbtEntry>,
}

impl RegionBoundaryTable {
    /// An empty RBT with `cap` entries.
    pub fn new(cap: usize) -> Self {
        RegionBoundaryTable {
            cap,
            entries: VecDeque::new(),
        }
    }

    /// Whether a new region can be opened.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Number of in-flight regions.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Whether no region is being tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Close the currently open (tail) region, if any.
    pub fn close_tail(&mut self) {
        if let Some(t) = self.entries.back_mut() {
            t.closed = true;
        }
    }

    /// Open a new region.
    ///
    /// # Panics
    /// Panics when full — callers must stall instead.
    pub fn open(&mut self, entry: RbtEntry) {
        assert!(self.has_space(), "RBT overflow — core must stall");
        self.entries.push_back(entry);
    }

    /// Account a committed store of the open (tail) region.
    pub fn on_store(&mut self, mc: usize) {
        if let Some(t) = self.entries.back_mut() {
            t.pending += 1;
            t.mc_mask |= 1 << mc;
        }
    }

    /// Account an ack from a WPQ for a store of region `dyn_id`.
    pub fn on_ack(&mut self, dyn_id: DynRegionId) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.dyn_id == dyn_id) {
            e.pending = e.pending.saturating_sub(1);
        }
    }

    /// Pop the head if it is fully persisted (closed and no pending stores).
    /// The next entry, if any, becomes the new non-speculative head; its
    /// recovery metadata must be persisted by the caller (§V-B step 4).
    pub fn try_retire(&mut self) -> Option<RbtEntry> {
        let head = self.entries.front()?;
        if head.closed && head.pending == 0 {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Replace the head entry (used when the recovery point advances past a
    /// committed synchronization instruction inside the open head region).
    pub fn replace_head(&mut self, entry: RbtEntry) {
        if let Some(h) = self.entries.front_mut() {
            *h = entry;
        }
    }

    /// The current head (oldest unpersisted region), if any.
    pub fn head(&self) -> Option<&RbtEntry> {
        self.entries.front()
    }

    /// The currently open region (tail), if any.
    pub fn tail(&self) -> Option<&RbtEntry> {
        self.entries.back()
    }

    /// Whether the tail is speculative: any region older than it is still
    /// unpersisted. Stores of the head region are non-speculative.
    pub fn tail_is_speculative(&self) -> bool {
        self.entries.len() > 1
    }

    /// Whether everything up to the open tail has persisted and the tail has
    /// no pending stores — the drain condition for synchronization points
    /// (§VIII).
    pub fn drained(&self) -> bool {
        self.entries.len() <= 1 && self.entries.front().is_none_or(|e| e.pending == 0)
    }
}

/// An entry travelling down the persist path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEntry {
    /// Cycle at which the entry reaches its memory controller.
    pub arrives_at: u64,
    /// Issuing core.
    pub core: usize,
    /// PB sequence number (for the ack).
    pub pb_seq: u64,
    /// Dynamic region of the store.
    pub region: DynRegionId,
    /// Store address.
    pub addr: Word,
    /// Store data.
    pub data: Word,
    /// Undo-log bit.
    pub log_bit: bool,
    /// Target memory controller.
    pub mc: usize,
}

/// The bandwidth/latency-modelled FIFO persist path, shared by all cores.
#[derive(Debug, Clone)]
pub struct PersistPath {
    latency: u64,
    bytes_per_cycle: f64,
    granularity: u64,
    tokens: f64,
    in_flight: VecDeque<PathEntry>,
}

impl PersistPath {
    /// A path with one-way `latency` cycles, `bytes_per_cycle` bandwidth, and
    /// `granularity` bytes per entry.
    pub fn new(latency: u64, bytes_per_cycle: f64, granularity: u64) -> Self {
        PersistPath {
            latency,
            bytes_per_cycle,
            granularity,
            tokens: 0.0,
            in_flight: VecDeque::new(),
        }
    }

    /// Advance one cycle: accrue bandwidth tokens (capped at one entry burst).
    pub fn tick(&mut self) {
        self.tokens = (self.tokens + self.bytes_per_cycle).min(4.0 * self.granularity as f64);
    }

    /// Advance `cycles` idle cycles at once. Bit-identical to `cycles` calls
    /// to [`PersistPath::tick`]: the same per-cycle add-then-cap sequence is
    /// replayed (the loop exits early once the cap is reached, after which
    /// further ticks are no-ops).
    pub fn advance(&mut self, cycles: u64) {
        let cap = 4.0 * self.granularity as f64;
        for _ in 0..cycles {
            if self.tokens >= cap {
                break;
            }
            self.tokens = (self.tokens + self.bytes_per_cycle).min(cap);
        }
    }

    /// How many further [`PersistPath::tick`]s are needed before one entry's
    /// worth of tokens is available. 0 when a send is possible right now;
    /// `u64::MAX` when bandwidth is zero. Replays the exact per-cycle token
    /// arithmetic, so the returned count is the precise send-ready tick.
    pub fn cycles_until_tokens(&self) -> u64 {
        let need = self.granularity as f64;
        if self.tokens >= need {
            return 0;
        }
        if self.bytes_per_cycle <= 0.0 {
            return u64::MAX;
        }
        let cap = 4.0 * self.granularity as f64;
        let mut t = self.tokens;
        let mut n = 0u64;
        while t < need {
            t = (t + self.bytes_per_cycle).min(cap);
            n += 1;
        }
        n
    }

    /// The cycle at which the head in-flight entry arrives, if any.
    pub fn next_arrival_cycle(&self) -> Option<u64> {
        self.in_flight.front().map(|e| e.arrives_at)
    }

    /// Try to admit an entry at `cycle`; consumes bandwidth tokens.
    #[allow(clippy::too_many_arguments)]
    pub fn try_send(
        &mut self,
        cycle: u64,
        core: usize,
        pb_seq: u64,
        region: DynRegionId,
        addr: Word,
        data: Word,
        log_bit: bool,
        mc: usize,
        numa_skew: u64,
    ) -> bool {
        if self.tokens < self.granularity as f64 {
            return false;
        }
        self.tokens -= self.granularity as f64;
        self.in_flight.push_back(PathEntry {
            arrives_at: cycle + self.latency + numa_skew,
            core,
            pb_seq,
            region,
            addr,
            data,
            log_bit,
            mc,
        });
        true
    }

    /// The head entry if it has arrived by `cycle` (FIFO: entries behind a
    /// blocked head wait, preserving per-core order).
    pub fn peek_arrival(&self, cycle: u64) -> Option<&PathEntry> {
        self.in_flight.front().filter(|e| e.arrives_at <= cycle)
    }

    /// Pop the head entry (after the MC accepted it).
    pub fn pop_arrival(&mut self) -> Option<PathEntry> {
        self.in_flight.pop_front()
    }

    /// Entries currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsp_ir::function::BlockId;
    use cwsp_ir::interp::{ResumeKind, ResumePoint};
    use cwsp_ir::module::FuncId;

    fn rp() -> ResumePoint {
        ResumePoint {
            func: FuncId(0),
            block: BlockId(0),
            idx: 0,
            frame_base: 0,
            sp: 0,
            kind: ResumeKind::Normal,
        }
    }

    fn entry(dyn_id: u64) -> RbtEntry {
        RbtEntry {
            dyn_id: DynRegionId(dyn_id),
            static_region: None,
            resume: rp(),
            pending: 0,
            mc_mask: 0,
            closed: false,
        }
    }

    #[test]
    fn pb_fifo_alloc_send_complete() {
        let mut pb = PersistBuffer::new(2);
        assert!(pb.has_space() && pb.is_empty());
        let s0 = pb.push(DynRegionId(0), 64, 1, false);
        let s1 = pb.push(DynRegionId(0), 128, 2, true);
        assert!(!pb.has_space());
        assert_eq!(pb.occupancy(), 2);
        // send in order
        assert_eq!(pb.next_unsent().unwrap().seq, s0);
        pb.mark_sent();
        assert_eq!(pb.next_unsent().unwrap().seq, s1);
        // completion frees head entries in order
        pb.complete(s0);
        assert_eq!(pb.occupancy(), 1);
        pb.complete(s1);
        assert!(pb.is_empty());
    }

    #[test]
    fn pb_sent_entries_stay_a_prefix() {
        // Reference model: a per-entry sent flag, set on the oldest unsent
        // entry at each send. A fixed pseudo-random mix of push, send and
        // in-order ack must leave the buffer's derived flags equal to it.
        let mut pb = PersistBuffer::new(6);
        let mut model: VecDeque<(u64, bool)> = VecDeque::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 3 {
                0 if pb.has_space() => {
                    let seq = pb.push(DynRegionId(step), step * 8, step, false);
                    model.push_back((seq, false));
                }
                1 => match pb.next_unsent() {
                    Some(e) => {
                        let m = model.iter_mut().find(|m| !m.1).unwrap();
                        assert_eq!(e.seq, m.0);
                        m.1 = true;
                        pb.mark_sent();
                    }
                    None => assert!(model.iter().all(|m| m.1)),
                },
                _ => {
                    if let Some(&(seq, true)) = model.front() {
                        pb.complete(seq);
                        model.pop_front();
                    }
                }
            }
            let got: Vec<(u64, bool)> = pb.entries().map(|(e, sent)| (e.seq, sent)).collect();
            assert_eq!(got, Vec::from(model.clone()), "step {step}");
            assert_eq!(pb.has_unsent(), model.iter().any(|m| !m.1));
        }
    }

    #[test]
    #[should_panic(expected = "PB overflow")]
    fn pb_overflow_panics() {
        let mut pb = PersistBuffer::new(1);
        pb.push(DynRegionId(0), 0, 0, false);
        pb.push(DynRegionId(0), 8, 0, false);
    }

    #[test]
    fn pb_cam_matches_by_line() {
        let mut pb = PersistBuffer::new(4);
        pb.push(DynRegionId(0), 0x1008, 1, false);
        assert!(pb.matches_line(0x1000));
        assert!(!pb.matches_line(0x1040));
    }

    #[test]
    fn rbt_lifecycle_and_retirement() {
        let mut rbt = RegionBoundaryTable::new(2);
        rbt.open(entry(0));
        rbt.on_store(0);
        rbt.on_store(1);
        assert_eq!(rbt.head().unwrap().pending, 2);
        assert_eq!(rbt.head().unwrap().mc_mask, 0b11);
        assert!(rbt.try_retire().is_none(), "not closed yet");
        rbt.close_tail();
        assert!(rbt.try_retire().is_none(), "stores pending");
        rbt.on_ack(DynRegionId(0));
        rbt.on_ack(DynRegionId(0));
        let retired = rbt.try_retire().unwrap();
        assert_eq!(retired.dyn_id, DynRegionId(0));
        assert!(rbt.is_empty());
    }

    #[test]
    fn rbt_speculation_semantics() {
        let mut rbt = RegionBoundaryTable::new(4);
        rbt.open(entry(0));
        assert!(!rbt.tail_is_speculative(), "head region is non-speculative");
        rbt.close_tail();
        rbt.open(entry(1));
        assert!(rbt.tail_is_speculative());
        assert!(!rbt.drained());
        assert_eq!(rbt.occupancy(), 2);
    }

    #[test]
    fn rbt_drained_conditions() {
        let mut rbt = RegionBoundaryTable::new(4);
        assert!(rbt.drained(), "empty table is drained");
        rbt.open(entry(0));
        assert!(rbt.drained(), "single region with no pending stores");
        rbt.on_store(0);
        assert!(!rbt.drained());
        rbt.on_ack(DynRegionId(0));
        assert!(rbt.drained());
    }

    #[test]
    fn path_latency_and_bandwidth() {
        // 2 bytes/cycle, 8-byte entries → one send per 4 cycles.
        let mut p = PersistPath::new(10, 2.0, 8);
        assert!(
            !p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 0, 0),
            "no tokens yet"
        );
        for _ in 0..4 {
            p.tick();
        }
        assert!(p.try_send(4, 0, 0, DynRegionId(0), 0, 0, false, 0, 0));
        assert!(
            !p.try_send(4, 0, 1, DynRegionId(0), 8, 0, false, 0, 0),
            "tokens spent"
        );
        assert!(p.peek_arrival(13).is_none(), "latency 10 not yet elapsed");
        assert!(p.peek_arrival(14).is_some());
        let e = p.pop_arrival().unwrap();
        assert_eq!(e.arrives_at, 14);
        assert!(p.is_empty());
    }

    #[test]
    fn path_numa_skew_delays_arrival() {
        let mut p = PersistPath::new(10, 8.0, 8);
        p.tick();
        assert!(p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 1, 12));
        assert_eq!(p.pop_arrival().unwrap().arrives_at, 22);
    }

    #[test]
    fn path_64b_granularity_consumes_8x_tokens() {
        let mut p = PersistPath::new(1, 2.0, 64);
        for _ in 0..31 {
            p.tick();
        }
        assert!(!p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 0, 0));
        p.tick();
        assert!(p.try_send(0, 0, 0, DynRegionId(0), 0, 0, false, 0, 0));
    }
}
