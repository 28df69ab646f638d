//! Simulation configuration: the hardware parameters of §IX and Table I.
//!
//! Defaults reproduce the paper's evaluated machine: 8-core 2 GHz Skylake-like
//! cores, 64 KB L1D with a write buffer, a shared 16 MB L2, a 4 GB
//! direct-mapped DRAM cache (Intel PMEM memory mode), 32 GB NVM behind 2
//! memory controllers with 24-entry battery-backed WPQs, a 16-entry RBT, a
//! 50-entry PB, and a 4 GB/s, 20 ns persist path.

/// Core clock frequency in GHz (cycle = 0.5 ns at the default 2 GHz).
pub const CLOCK_GHZ: f64 = 2.0;

/// One SRAM/DRAM cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub assoc: u32,
    /// Hit latency in cycles.
    pub hit_cycles: u64,
}

impl CacheParams {
    /// Number of sets for 64-byte lines.
    pub fn sets(&self) -> u64 {
        (self.size_bytes / 64 / self.assoc as u64).max(1)
    }
}

/// Main-memory technology latencies (Fig 27 sensitivity; §IX defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmTech {
    /// Intel Optane-like PMEM: 175 ns read / 90 ns write (default).
    Pmem,
    /// STT-MRAM: faster than PMEM on both paths.
    SttMram,
    /// ReRAM: fastest of the three.
    ReRam,
    /// Plain DRAM main memory (the CXL-DRAM baseline of Fig 1).
    Dram,
}

impl NvmTech {
    /// Read latency in cycles.
    pub fn read_cycles(self) -> u64 {
        match self {
            NvmTech::Pmem => ns_to_cycles(175.0),
            NvmTech::SttMram => ns_to_cycles(120.0),
            NvmTech::ReRam => ns_to_cycles(100.0),
            NvmTech::Dram => ns_to_cycles(60.0),
        }
    }

    /// Write latency in cycles (drain cost per WPQ entry).
    pub fn write_cycles(self) -> u64 {
        match self {
            NvmTech::Pmem => ns_to_cycles(90.0),
            NvmTech::SttMram => ns_to_cycles(60.0),
            NvmTech::ReRam => ns_to_cycles(50.0),
            NvmTech::Dram => ns_to_cycles(30.0),
        }
    }
}

/// Convert nanoseconds to cycles at [`CLOCK_GHZ`].
pub fn ns_to_cycles(ns: f64) -> u64 {
    (ns * CLOCK_GHZ).round() as u64
}

/// Convert GB/s of bandwidth to bytes per cycle at [`CLOCK_GHZ`].
pub fn gbps_to_bytes_per_cycle(gbps: f64) -> f64 {
    gbps / CLOCK_GHZ
}

/// A CXL memory device (Table I) — CXL IP flavor, latency, and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlDevice {
    /// Device name as in Table I.
    pub name: &'static str,
    /// CXL IP flavor column.
    pub ip: &'static str,
    /// Memory technology column.
    pub technology: &'static str,
    /// Maximum bandwidth in GB/s.
    pub max_bandwidth_gbps: f64,
    /// Read latency in ns.
    pub read_ns: f64,
    /// Write latency in ns.
    pub write_ns: f64,
}

/// Table I: the four CXL memory devices evaluated in §IX-C.
pub const CXL_DEVICES: [CxlDevice; 4] = [
    CxlDevice {
        name: "CXL-A (NVDIMM)",
        ip: "Hard IP",
        technology: "DDR5-4800",
        max_bandwidth_gbps: 38.4,
        read_ns: 158.0,
        write_ns: 120.0,
    },
    CxlDevice {
        name: "CXL-B (NVDIMM)",
        ip: "Hard IP",
        technology: "DDR4-2400",
        max_bandwidth_gbps: 19.2,
        read_ns: 223.0,
        write_ns: 139.0,
    },
    CxlDevice {
        name: "CXL-C (NVDIMM)",
        ip: "Soft IP",
        technology: "DDR4-3200",
        max_bandwidth_gbps: 25.6,
        read_ns: 348.0,
        write_ns: 241.0,
    },
    CxlDevice {
        name: "CXL-D (PMEM)",
        ip: "Simulation",
        technology: "Intel Optane",
        max_bandwidth_gbps: 6.6,
        read_ns: 245.0,
        write_ns: 160.0,
    },
];

/// Main-memory timing source: an [`NvmTech`] or an explicit CXL device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MainMemory {
    /// Local NVM DIMMs of the given technology.
    Nvm(NvmTech),
    /// CXL-attached memory with explicit latencies.
    Cxl(CxlDevice),
}

impl MainMemory {
    /// Read latency in cycles.
    pub fn read_cycles(self) -> u64 {
        match self {
            MainMemory::Nvm(t) => t.read_cycles(),
            MainMemory::Cxl(d) => ns_to_cycles(d.read_ns),
        }
    }

    /// Write (drain) latency in cycles.
    pub fn write_cycles(self) -> u64 {
        match self {
            MainMemory::Nvm(t) => t.write_cycles(),
            MainMemory::Cxl(d) => ns_to_cycles(d.write_ns),
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of cores stepping programs.
    pub cores: usize,
    /// SRAM cache levels, nearest first. Level 0 is the private L1D; deeper
    /// levels are shared.
    pub sram_levels: Vec<CacheParams>,
    /// Optional direct-mapped DRAM cache (memory-mode LLC). `None` disables
    /// it (the ideal-PSP configuration of §IX-D).
    pub dram_cache: Option<CacheParams>,
    /// Main memory behind the hierarchy.
    pub main_memory: MainMemory,
    /// Number of memory controllers (address-interleaved at 4 KB).
    pub mem_controllers: usize,
    /// Extra path cycles per controller index (the NUMA skew of §II-B).
    pub mc_numa_skew_cycles: u64,
    /// Battery-backed write-pending-queue entries per MC.
    pub wpq_entries: usize,
    /// Region boundary table entries per core (§V-B).
    pub rbt_entries: usize,
    /// Persist buffer entries per core (repurposed WCB, §V-A).
    pub pb_entries: usize,
    /// L1D write-buffer entries per core.
    pub wb_entries: usize,
    /// Persist-path one-way latency in cycles (default 20 ns round trip → 40
    /// cycles total; we charge it on arrival).
    pub persist_path_cycles: u64,
    /// Persist-path bandwidth in GB/s (shared across cores).
    pub persist_path_gbps: f64,
    /// Persist granularity in bytes: 8 for cWSP, 64 for cacheline schemes.
    pub persist_granularity: u64,
    /// L1D write-buffer drain interval in cycles.
    pub wb_drain_cycles: u64,
    /// Superscalar issue width: register-class instructions and L1-hit
    /// accesses consume one slot; `issue_width` slots complete per cycle.
    pub issue_width: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 1,
            sram_levels: vec![
                CacheParams {
                    size_bytes: 64 << 10,
                    assoc: 8,
                    hit_cycles: 4,
                },
                CacheParams {
                    size_bytes: 16 << 20,
                    assoc: 16,
                    hit_cycles: 44,
                },
            ],
            dram_cache: Some(CacheParams {
                size_bytes: 4 << 30,
                assoc: 1,
                hit_cycles: ns_to_cycles(60.0),
            }),
            main_memory: MainMemory::Nvm(NvmTech::Pmem),
            mem_controllers: 2,
            mc_numa_skew_cycles: 12,
            wpq_entries: 24,
            rbt_entries: 16,
            pb_entries: 50,
            wb_entries: 32,
            persist_path_cycles: 40,
            persist_path_gbps: 4.0,
            persist_granularity: 8,
            wb_drain_cycles: 4,
            issue_width: 4,
        }
    }
}

impl SimConfig {
    /// The paper's added-L3 configuration (Fig 20): private 1 MB L2 plus a
    /// shared 16 MB L3 above the DRAM cache.
    pub fn with_l3(mut self) -> Self {
        self.sram_levels = vec![
            CacheParams {
                size_bytes: 64 << 10,
                assoc: 8,
                hit_cycles: 4,
            },
            CacheParams {
                size_bytes: 1 << 20,
                assoc: 8,
                hit_cycles: 14,
            },
            CacheParams {
                size_bytes: 16 << 20,
                assoc: 16,
                hit_cycles: 44,
            },
        ];
        self
    }

    /// The Fig 1 hierarchy with `levels` cache levels (2..=5): L1+L2, +L3,
    /// +L4 (128 MB, 82 cycles), +4 GB DRAM cache.
    ///
    /// # Panics
    /// Panics unless `2 <= levels <= 5`.
    pub fn hierarchy_depth(mut self, levels: usize) -> Self {
        assert!((2..=5).contains(&levels), "levels must be in 2..=5");
        let mut sram = vec![
            CacheParams {
                size_bytes: 64 << 10,
                assoc: 8,
                hit_cycles: 4,
            },
            CacheParams {
                size_bytes: 1 << 20,
                assoc: 8,
                hit_cycles: 14,
            },
        ];
        if levels >= 3 {
            sram.push(CacheParams {
                size_bytes: 16 << 20,
                assoc: 16,
                hit_cycles: 44,
            });
        }
        if levels >= 4 {
            sram.push(CacheParams {
                size_bytes: 128 << 20,
                assoc: 16,
                hit_cycles: 82,
            });
        }
        self.sram_levels = sram;
        self.dram_cache = (levels >= 5).then_some(CacheParams {
            size_bytes: 4 << 30,
            assoc: 1,
            hit_cycles: ns_to_cycles(60.0),
        });
        self
    }

    /// Scale every cache capacity down by `2^shift` (latencies unchanged).
    ///
    /// Hierarchy-shape experiments (Figs 1, 18) need working sets positioned
    /// between cache levels; scaling the hierarchy instead of the working set
    /// keeps simulation windows tractable (the paper fast-forwards 5 B
    /// instructions to warm its full-size caches — we shrink the caches).
    pub fn scaled(mut self, shift: u32) -> Self {
        for l in &mut self.sram_levels {
            l.size_bytes = (l.size_bytes >> shift).max(1 << 10);
        }
        if let Some(d) = &mut self.dram_cache {
            d.size_bytes = (d.size_bytes >> shift).max(1 << 16);
        }
        self
    }

    /// The memory controller owning `addr` (4 KB interleave). A power-of-two
    /// controller count, the common case, selects by mask instead of a
    /// division.
    #[inline]
    pub fn mc_of(&self, addr: u64) -> usize {
        let n = self.mem_controllers as u64;
        let page = addr >> 12;
        let mc = if n.is_power_of_two() {
            page & (n - 1)
        } else {
            page % n
        };
        mc as usize
    }

    /// Persist-path bandwidth in bytes per cycle.
    pub fn path_bytes_per_cycle(&self) -> f64 {
        gbps_to_bytes_per_cycle(self.persist_path_gbps)
    }

    /// Storage cost in bytes of the RBT (§IX-N): 11 bytes per entry — the
    /// paper's 16-entry default costs 176 bytes.
    pub fn rbt_storage_bytes(&self) -> usize {
        self.rbt_entries * 11
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.rbt_entries, 16);
        assert_eq!(c.pb_entries, 50);
        assert_eq!(c.wpq_entries, 24);
        assert_eq!(c.mem_controllers, 2);
        assert_eq!(c.persist_granularity, 8);
        assert_eq!(c.rbt_storage_bytes(), 176, "§IX-N: 16 × 11 B = 176 B");
        assert_eq!(NvmTech::Pmem.read_cycles(), 350, "175 ns at 2 GHz");
        assert_eq!(NvmTech::Pmem.write_cycles(), 180, "90 ns at 2 GHz");
    }

    #[test]
    fn cache_sets_computed() {
        let l1 = CacheParams {
            size_bytes: 64 << 10,
            assoc: 8,
            hit_cycles: 4,
        };
        assert_eq!(l1.sets(), 128);
        let dm = CacheParams {
            size_bytes: 4 << 30,
            assoc: 1,
            hit_cycles: 120,
        };
        assert_eq!(dm.sets(), 64 << 20);
    }

    #[test]
    fn hierarchy_depth_variants() {
        let c2 = SimConfig::default().hierarchy_depth(2);
        assert_eq!(c2.sram_levels.len(), 2);
        assert!(c2.dram_cache.is_none());
        let c5 = SimConfig::default().hierarchy_depth(5);
        assert_eq!(c5.sram_levels.len(), 4);
        assert!(c5.dram_cache.is_some());
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn hierarchy_depth_rejects_out_of_range() {
        let _ = SimConfig::default().hierarchy_depth(6);
    }

    #[test]
    fn mc_interleave_covers_all_controllers() {
        let c = SimConfig::default();
        assert_eq!(c.mc_of(0), 0);
        assert_eq!(c.mc_of(4096), 1);
        assert_eq!(c.mc_of(8192), 0);
    }

    #[test]
    fn bandwidth_conversion() {
        assert!((gbps_to_bytes_per_cycle(4.0) - 2.0).abs() < 1e-9);
        assert_eq!(ns_to_cycles(20.0), 40);
    }

    #[test]
    fn cxl_table_matches_paper() {
        assert_eq!(CXL_DEVICES.len(), 4);
        assert_eq!(CXL_DEVICES[0].technology, "DDR5-4800");
        assert!((CXL_DEVICES[3].read_ns - 245.0).abs() < 1e-9);
        let m = MainMemory::Cxl(CXL_DEVICES[1]);
        assert_eq!(m.read_cycles(), ns_to_cycles(223.0));
    }

    #[test]
    fn with_l3_adds_level() {
        let c = SimConfig::default().with_l3();
        assert_eq!(c.sram_levels.len(), 3);
        assert_eq!(c.sram_levels[1].hit_cycles, 14);
    }
}
