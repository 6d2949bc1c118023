//! Machine descriptions.

use gpa_isa::Pipe;

/// How the simulator times memory instructions.
///
/// `Flat` charges the classic per-space latencies straight from the
/// `lat_*` fields (the original model; every byte-identity gate is pinned
/// against it). `Hierarchy` threads global accesses through timed L1/L2
/// servers with MSHR tracking and bounded queues, and serializes shared
/// accesses per bank — producing the richer stall taxonomy (bank
/// conflicts, uncoalesced access, MSHR/L2-queue backpressure) the memory
/// advisors consume.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum MemModel {
    /// Flat per-space latencies (default; byte-identical to pre-hierarchy
    /// builds).
    #[default]
    Flat,
    /// Timed L1/L2/shared servers with bounded queues and backpressure.
    Hierarchy(HierarchyConfig),
}

/// Knobs for the timed memory hierarchy ([`MemModel::Hierarchy`]).
///
/// Capacities bound the *standing occupancy* of each level: a full MSHR
/// file or L2 queue back-pressures issue exactly like the flat model's
/// LSU limit, but with its own stall reason so the advisor can tell the
/// levels apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Per-SM L1 data cache size in bytes.
    pub l1_size: u32,
    /// L1 line size in bytes (also the coalescing sector size).
    pub l1_line: u32,
    /// Global-memory latency on an L1 hit (cycles).
    pub lat_l1_hit: u32,
    /// Miss-status holding registers per SM — in-flight L1 misses beyond
    /// this stall issue with `MshrFull`.
    pub mshr_capacity: u32,
    /// Per-SM share of the L2 request queue — in-flight L2 requests
    /// beyond this stall issue with `L2Queue`.
    pub l2_queue_capacity: u32,
    /// Warp accesses splitting into at least this many sectors are blamed
    /// as `Uncoalesced` rather than plain memory dependencies.
    pub uncoalesced_sectors: u32,
    /// Extra cycles per serialized shared-memory bank access beyond the
    /// first (degree-k conflict costs `(k-1) * this`).
    pub smem_bank_interval: u32,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1_size: 128 * 1024,
            l1_line: 32,
            lat_l1_hit: 32,
            mshr_capacity: 64,
            l2_queue_capacity: 32,
            uncoalesced_sectors: 8,
            smem_bank_interval: 2,
        }
    }
}

/// A GPU machine description.
///
/// Defaults model an NVIDIA Volta V100; [`ArchConfig::small`] produces a
/// scaled-down part with the same per-SM shape (4 schedulers, same
/// latencies) so unit tests and experiments can run quickly while
/// preserving blocks-vs-SMs ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    /// Human-readable name.
    pub name: String,
    /// Streaming multiprocessors on the device.
    pub num_sms: u32,
    /// Warp schedulers (sub-partitions) per SM.
    pub schedulers_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident warps per scheduler (64 per SM on Volta).
    pub max_warps_per_scheduler: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,

    /// Global-memory latency on an L2 hit (cycles).
    pub lat_global_l2: u32,
    /// Global-memory latency on a DRAM access (cycles).
    pub lat_global_dram: u32,
    /// Shared-memory load latency (cycles).
    pub lat_shared: u32,
    /// Constant-cache load latency (cycles).
    pub lat_constant: u32,
    /// Local-memory (spill) latency — mostly L1-resident (cycles).
    pub lat_local: u32,
    /// Extra cycles for each additional memory transaction of an
    /// uncoalesced warp access.
    pub lat_per_extra_transaction: u32,

    /// L2 cache size in bytes (shared across SMs).
    pub l2_size: u32,
    /// L2 line size in bytes.
    pub l2_line: u32,
    /// Instruction-cache size per SM in bytes.
    pub icache_size: u32,
    /// Instruction-cache line size in bytes.
    pub icache_line: u32,
    /// Stall cycles on an instruction-cache miss.
    pub lat_ifetch_miss: u32,
    /// Taken-branch front-end bubble in cycles (fetch redirect).
    pub lat_branch_redirect: u32,

    /// Maximum in-flight memory requests per SM before the LSU back-
    /// pressures issue (memory-throttle stalls).
    pub max_mem_inflight_per_sm: u32,

    /// Memory timing model. `Flat` (the default) reproduces the original
    /// fixed-latency behaviour byte for byte; toggling this does **not**
    /// change `name`, so compiled artifacts stay valid across models.
    pub mem: MemModel,
}

impl ArchConfig {
    /// A V100-like configuration.
    pub fn volta_v100() -> Self {
        ArchConfig {
            name: "volta-v100".into(),
            num_sms: 80,
            schedulers_per_sm: 4,
            warp_size: 32,
            max_warps_per_scheduler: 16,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            registers_per_sm: 65536,
            shared_mem_per_sm: 96 * 1024,
            lat_global_l2: 220,
            lat_global_dram: 450,
            lat_shared: 25,
            lat_constant: 30,
            lat_local: 40,
            lat_per_extra_transaction: 4,
            l2_size: 6 * 1024 * 1024,
            l2_line: 64,
            icache_size: 12 * 1024,
            icache_line: 256,
            lat_ifetch_miss: 40,
            lat_branch_redirect: 4,
            max_mem_inflight_per_sm: 256,
            mem: MemModel::Flat,
        }
    }

    /// This configuration with the timed memory hierarchy enabled
    /// (default [`HierarchyConfig`] knobs). The name is untouched so
    /// artifacts compiled for the flat twin remain valid.
    pub fn with_hierarchy(mut self) -> Self {
        self.mem = MemModel::Hierarchy(HierarchyConfig::default());
        self
    }

    /// A scaled-down Volta with `num_sms` SMs for fast experiments.
    pub fn small(num_sms: u32) -> Self {
        ArchConfig { name: format!("small-volta-{num_sms}sm"), num_sms, ..Self::volta_v100() }
    }

    /// Maximum resident warps per SM.
    pub(crate) fn max_warps_per_sm(&self) -> u32 {
        self.schedulers_per_sm * self.max_warps_per_scheduler
    }

    /// Issue interval (cycles between issues) of a pipe per scheduler.
    ///
    /// One warp instruction occupies its pipe for this many cycles; a
    /// second instruction for a busy pipe reports a *pipe busy* stall.
    pub fn pipe_interval(&self, pipe: Pipe) -> u32 {
        match pipe {
            // 16 FP32/INT lanes per scheduler → a 32-thread warp needs 2
            // cycles of the pipe.
            Pipe::Alu | Pipe::Fma => 2,
            // 8 FP64 lanes per scheduler on V100 → 4 cycles.
            Pipe::Fp64 => 4,
            // 4 SFU lanes per scheduler → 8 cycles.
            Pipe::Sfu => 8,
            // LSU accepts one warp access per scheduler every 4 cycles.
            Pipe::Lsu => 4,
            Pipe::Branch | Pipe::Misc => 2,
        }
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::volta_v100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_shape() {
        let a = ArchConfig::volta_v100();
        assert_eq!(a.num_sms, 80);
        assert_eq!(a.max_warps_per_sm(), 64);
        assert!(a.pipe_interval(Pipe::Sfu) > a.pipe_interval(Pipe::Fma));
    }

    #[test]
    fn small_preserves_per_sm_shape() {
        let a = ArchConfig::small(4);
        assert_eq!(a.num_sms, 4);
        assert_eq!(a.schedulers_per_sm, 4);
        assert_eq!(a.max_warps_per_sm(), 64);
    }

    #[test]
    fn hierarchy_toggle_keeps_the_name() {
        let flat = ArchConfig::small(2);
        let hier = ArchConfig::small(2).with_hierarchy();
        assert_eq!(flat.mem, MemModel::Flat);
        assert!(matches!(hier.mem, MemModel::Hierarchy(_)));
        assert_eq!(flat.name, hier.name, "compiled artifacts must stay valid");
    }
}
