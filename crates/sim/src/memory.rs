//! Memory models: what one memory instruction costs, and when the memory
//! system refuses another.
//!
//! The model is fixed for a whole launch by [`gpa_arch::MemModel`], so it
//! is a type: the launch entry matches on the architecture once and
//! monomorphises the cycle loop over [`Flat`] or [`Hierarchy`]. The LSU
//! in-flight limit belongs to neither — every SM has one and it
//! throttles both. A model's own back-pressure obeys the same contract
//! as that queue (see [`TimedServer`]), so `clear_time` is a valid lower
//! bound for the event core's cached next-ready bounds.

use crate::exec::MemAccess;
use crate::hier::TimedServer;
use crate::mem::DirectCache;
use crate::stall::StallReason;
use crate::warp::WARP_LANES;
use gpa_arch::{ArchConfig, HierarchyConfig};
use gpa_isa::MemSpace;

/// Per-SM memory-system state and charging rules.
pub(crate) trait MemoryModel {
    /// Releases everything that completed at or before `now`.
    fn retire(&mut self, now: u64);
    /// Earliest cycle the model stops back-pressuring memory issue,
    /// assuming no new admissions (0 when it is not).
    fn clear_time(&self) -> u64;
    /// Why a memory instruction cannot issue right now, if it cannot:
    /// `Some` exactly when [`MemoryModel::clear_time`] lies in the future.
    fn back_pressure(&self) -> Option<StallReason>;
    /// Charges one access issued at `now` (`atom` = the surcharge if it is
    /// atomic): result latency, global transactions (LSU slots), and the
    /// reason dependents will blame.
    fn access(
        &mut self,
        l2: &mut DirectCache,
        arch: &ArchConfig,
        mem: &MemAccess,
        atom: u32,
        now: u64,
    ) -> (u32, u32, StallReason);
}

/// The distinct `1 << line_shift`-byte lines a warp's lane addresses
/// touch, in ascending order (the order the caches are probed in), as a
/// stack array and its length. Lanes that walk memory in order — the
/// unit-stride case — arrive sorted and skip the sort.
#[inline]
fn coalesce(addrs: &[u64], line_shift: u32) -> ([u64; WARP_LANES], usize) {
    let mut lines = [0u64; WARP_LANES];
    let n = addrs.len().min(WARP_LANES);
    for (slot, a) in lines.iter_mut().zip(addrs) {
        *slot = a >> line_shift;
    }
    if !lines[..n].is_sorted() {
        lines[..n].sort_unstable();
    }
    let mut distinct = 0;
    for i in 0..n {
        if distinct == 0 || lines[i] != lines[distinct - 1] {
            lines[distinct] = lines[i];
            distinct += 1;
        }
    }
    (lines, distinct)
}

/// Shared-memory serialisation factor: the most lanes that land in one
/// of the 32 four-byte banks (1 = conflict-free).
fn bank_conflicts(addrs: &[u64]) -> u32 {
    let mut banks = [0u8; 32];
    for a in addrs {
        banks[((a / 4) % 32) as usize] += 1;
    }
    banks.iter().copied().max().unwrap_or(1).max(1) as u32
}

/// A coalesced global access: `line_latency` is asked once per touched
/// line, and the access completes with its slowest line plus a
/// serialisation charge per extra line. Returns (latency, lines).
#[inline]
fn global_access(
    addrs: &[u64],
    line_shift: u32,
    arch: &ArchConfig,
    mut line_latency: impl FnMut(u64) -> u32,
) -> (u32, u32) {
    let (lines, n) = coalesce(addrs, line_shift);
    let worst = lines[..n].iter().fold(0, |worst, &l| worst.max(line_latency(l << line_shift)));
    let n = n as u32;
    (worst + n.saturating_sub(1) * arch.lat_per_extra_transaction, n)
}

fn l2_latency(l2: &mut DirectCache, arch: &ArchConfig, addr: u64) -> u32 {
    if l2.access(addr) {
        arch.lat_global_l2
    } else {
        arch.lat_global_dram
    }
}

/// The flat model: a fixed latency per space and per L2 outcome over
/// 32-byte sectors; nothing is ever full, so it carries no state.
pub(crate) struct Flat;

impl MemoryModel for Flat {
    fn retire(&mut self, _now: u64) {}
    fn clear_time(&self) -> u64 {
        0
    }
    fn back_pressure(&self) -> Option<StallReason> {
        None
    }
    fn access(
        &mut self,
        l2: &mut DirectCache,
        arch: &ArchConfig,
        mem: &MemAccess,
        atom: u32,
        _now: u64,
    ) -> (u32, u32, StallReason) {
        match mem.space {
            MemSpace::Global => {
                // 32-byte sectors.
                let (lat, n) = global_access(mem.addrs(), 5, arch, |a| l2_latency(l2, arch, a));
                (lat + atom, n, StallReason::MemoryDependency)
            }
            MemSpace::Local => {
                // Thread-private accesses are interleaved by hardware and
                // mostly L1-resident: cheap, well-coalesced traffic.
                let n = (mem.addrs().len() as u32).div_ceil(8).max(1);
                let lat = arch.lat_local + (n - 1) * arch.lat_per_extra_transaction;
                (lat, n, StallReason::MemoryDependency)
            }
            MemSpace::Shared => {
                // Bank conflicts serialize.
                let lat = arch.lat_shared + (bank_conflicts(mem.addrs()) - 1) * 2 + atom;
                (lat, 0, StallReason::ExecutionDependency)
            }
            MemSpace::Constant => (arch.lat_constant, 0, StallReason::MemoryDependency),
        }
    }
}

/// The timed hierarchy: global accesses probe a per-SM L1 line by line,
/// misses occupy an MSHR and an L2-queue slot until the access
/// completes (their fullness back-pressures issue), and blame sharpens
/// to `Uncoalesced` / `BankConflict` where the access pattern, not the
/// memory system, is the problem. Local and constant traffic keeps the
/// flat charging — it is L1-resident/broadcast by construction and
/// carries no advice signal.
pub(crate) struct Hierarchy {
    cfg: HierarchyConfig,
    /// Per-SM L1 data cache (direct-mapped tag array, fills on miss).
    l1: DirectCache,
    /// Miss-status holding registers: one slot per in-flight L1 miss.
    mshr: TimedServer,
    /// This SM's share of the L2 request queue.
    l2q: TimedServer,
}

impl Hierarchy {
    /// Fresh per-SM state for one launch.
    pub(crate) fn new(cfg: &HierarchyConfig) -> Self {
        Hierarchy {
            cfg: cfg.clone(),
            l1: DirectCache::new(cfg.l1_size, cfg.l1_line),
            mshr: TimedServer::new(cfg.mshr_capacity),
            l2q: TimedServer::new(cfg.l2_queue_capacity),
        }
    }
}

impl MemoryModel for Hierarchy {
    fn retire(&mut self, now: u64) {
        self.mshr.retire(now);
        self.l2q.retire(now);
    }
    fn clear_time(&self) -> u64 {
        self.mshr.clear_time().max(self.l2q.clear_time())
    }
    fn back_pressure(&self) -> Option<StallReason> {
        if self.mshr.is_full() {
            Some(StallReason::MshrFull)
        } else {
            self.l2q.is_full().then_some(StallReason::L2Queue)
        }
    }
    fn access(
        &mut self,
        l2: &mut DirectCache,
        arch: &ArchConfig,
        mem: &MemAccess,
        atom: u32,
        now: u64,
    ) -> (u32, u32, StallReason) {
        match mem.space {
            MemSpace::Global => {
                let (l1, l1_hit) = (&mut self.l1, self.cfg.lat_l1_hit);
                let mut misses = 0u32;
                // A power of two: the launch was rejected otherwise.
                let (lat, n) = global_access(mem.addrs(), self.cfg.l1_line.ilog2(), arch, |addr| {
                    if l1.access(addr) {
                        l1_hit
                    } else {
                        misses += 1;
                        l2_latency(l2, arch, addr)
                    }
                });
                let lat = lat + atom;
                self.mshr.admit(now + lat as u64, misses);
                self.l2q.admit(now + lat as u64, misses);
                let reason = if n >= self.cfg.uncoalesced_sectors {
                    StallReason::Uncoalesced
                } else {
                    StallReason::MemoryDependency
                };
                (lat, n, reason)
            }
            MemSpace::Shared => {
                let conflict = bank_conflicts(mem.addrs());
                let lat = arch.lat_shared + (conflict - 1) * self.cfg.smem_bank_interval + atom;
                let reason = if conflict >= 2 {
                    StallReason::BankConflict
                } else {
                    StallReason::ExecutionDependency
                };
                (lat, 0, reason)
            }
            MemSpace::Local | MemSpace::Constant => Flat.access(l2, arch, mem, atom, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tests::{membound_launch, params_u64, MEMBOUND};
    use crate::machine::{GpuSim, RawSample, SimConfig};
    use gpa_arch::MemModel;
    use gpa_isa::parse_module;

    #[test]
    fn access_pattern_helpers() {
        // 32 consecutive words: four 32-byte sectors, one 128-byte line,
        // one lane per bank.
        let unit: Vec<u64> = (0..32).map(|lane| 0x1000 + 4 * lane).collect();
        let distinct = |addrs: &[u64], line| {
            let (lines, n) = coalesce(addrs, line);
            lines[..n].to_vec()
        };
        assert_eq!(distinct(&unit, 5), vec![0x80, 0x81, 0x82, 0x83]);
        assert_eq!(distinct(&unit, 7), vec![0x20]);
        assert_eq!(bank_conflicts(&unit), 1);
        // Stride 128: a line per lane, every lane in bank 0.
        let strided: Vec<u64> = (0..32).map(|lane| 128 * lane).collect();
        assert_eq!(distinct(&strided, 7).len(), 32);
        // Out of order and repeating: sorted, each line once.
        assert_eq!(distinct(&[0x300, 0x100, 0x304, 0x200, 0x100], 5), vec![8, 16, 24]);
        assert_eq!(distinct(&[], 5), vec![]);
        assert_eq!(bank_conflicts(&strided), 32);
        assert_eq!(bank_conflicts(&[]), 1);
    }

    #[test]
    fn hierarchy_builds_from_config_and_flat_is_never_full() {
        let mut h = Hierarchy::new(&HierarchyConfig::default());
        assert_eq!(h.back_pressure(), None);
        assert_eq!(h.clear_time(), 0);
        assert!(!h.l1.access(0), "cold cache misses");
        assert!(h.l1.access(0), "fills on miss");
        h.retire(0);
        assert_eq!((Flat.back_pressure(), Flat.clear_time()), (None, 0));
    }

    /// A hierarchy run with a tight MSHR file must classify the new stall
    /// reasons, and the flat model must never emit them.
    #[test]
    fn hierarchy_produces_new_stall_reasons_and_flat_does_not() {
        let m = parse_module(MEMBOUND).unwrap();
        let run = |arch: ArchConfig| {
            let cfg = SimConfig { sampling_period: 3, ..SimConfig::default() };
            let mut gpu = GpuSim::new(arch, cfg);
            let input = gpu.global_mut().alloc(4 * 1024);
            let out = gpu.global_mut().alloc(4 * 1024);
            for i in 0..1024u64 {
                gpu.global_mut().write_u32(input + 4 * i, i as u32);
            }
            let mut raw: Vec<RawSample> = Vec::new();
            let prog = gpu.compile(&m, "membound").unwrap();
            let r = gpu
                .launch_compiled_with_sink(
                    &prog,
                    &membound_launch(8),
                    &params_u64(&[input, out]),
                    &mut raw,
                )
                .unwrap();
            // Functional result is model-independent.
            for lane in 0..32u64 {
                assert_eq!(gpu.global().read_u32(out + 128 * lane), 32 * lane as u32);
            }
            (r, raw)
        };

        let mut tight = ArchConfig::small(1);
        tight.mem = MemModel::Hierarchy(HierarchyConfig {
            mshr_capacity: 4,
            l2_queue_capacity: 4,
            ..HierarchyConfig::default()
        });
        let (_, hier_raw) = run(tight);
        let seen = |raw: &[RawSample], r: StallReason| raw.iter().any(|s| s.stall == r);
        assert!(seen(&hier_raw, StallReason::Uncoalesced), "stride-128 loads blame Uncoalesced");
        assert!(
            seen(&hier_raw, StallReason::BankConflict),
            "bank-0 smem traffic blames BankConflict"
        );
        assert!(
            seen(&hier_raw, StallReason::MshrFull) || seen(&hier_raw, StallReason::L2Queue),
            "a 4-entry MSHR/L2 queue backpressures 32-sector bursts"
        );

        let (_, flat_raw) = run(ArchConfig::small(1));
        for s in &flat_raw {
            assert!(
                s.stall.code() <= StallReason::Other.code(),
                "flat model must never emit hierarchy reasons, got {}",
                s.stall
            );
        }
    }

    /// Widening a bounded queue only removes stall conditions: on the
    /// memory-bound kernel, cycle counts are non-increasing in MSHR and
    /// L2-queue capacity.
    #[test]
    fn hierarchy_capacity_is_monotone() {
        let m = parse_module(MEMBOUND).unwrap();
        let cycles = |cap: u32| {
            let mut arch = ArchConfig::small(1);
            arch.mem = MemModel::Hierarchy(HierarchyConfig {
                mshr_capacity: cap,
                l2_queue_capacity: cap,
                ..HierarchyConfig::default()
            });
            let mut gpu = GpuSim::new(arch, SimConfig::default());
            let input = gpu.global_mut().alloc(4 * 1024);
            let out = gpu.global_mut().alloc(4 * 1024);
            let r = gpu
                .launch(&m, "membound", &membound_launch(8), &params_u64(&[input, out]))
                .unwrap();
            r.cycles
        };
        let caps = [2u32, 4, 8, 16, 32, 64];
        let runs: Vec<u64> = caps.iter().map(|&c| cycles(c)).collect();
        for w in runs.windows(2) {
            assert!(w[1] <= w[0], "more capacity must never slow a kernel: {runs:?}");
        }
        assert!(runs[runs.len() - 1] < runs[0], "the tightest queue must actually bite: {runs:?}");
    }
}
