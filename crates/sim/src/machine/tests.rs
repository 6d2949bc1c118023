//! Tests of the launch path through the public `GpuSim` API, plus the
//! hand-written kernels the tests in `reference.rs` and `memory.rs` share.

use super::*;
use gpa_isa::parse_module;

pub(crate) fn params_u64(vals: &[u64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// out[i] = a[i] + b[i], global index = ctaid*ntid + tid.
/// Params: a, b, out (u64 each).
pub(crate) const VEC_ADD: &str = r#"
.module vecadd
.kernel vecadd
  S2R R0, SR_TID.X {W:B0, S:1}
  S2R R12, SR_CTAID.X {W:B1, S:1}
  S2R R14, SR_NTID.X {W:B2, S:1}
  IMAD R0, R12, R14, R0 {WT:[B0,B1,B2], S:5}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  MOV R4, c[0][8] {S:1}
  MOV R5, c[0][12] {S:1}
  MOV R6, c[0][16] {S:1}
  MOV R7, c[0][20] {S:1}
  SHL R1, R0, 2 {S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  IADD R4:R5, R4:R5, R1 {S:2}
  IADD R6:R7, R6:R7, R1 {S:2}
  LDG.E.32 R8, [R2:R3] {W:B1, S:1}
  LDG.E.32 R9, [R4:R5] {W:B2, S:1}
  IADD R10, R8, R9 {WT:[B1,B2], S:4}
  STG.E.32 [R6:R7], R10 {R:B3, S:1}
  EXIT {WT:[B3], S:1}
.endfunc
"#;

/// Two warps; warp 0 spins longer before the barrier, so warp 1
/// accumulates synchronization stalls.
pub(crate) const BARRIER: &str = r#"
.module barrier
.kernel barrier
  S2R R0, SR_TID.X {W:B0, S:1}
  SHR R1, R0, 5 {WT:[B0], S:2}       # warp id
  ISETP.EQ.AND P0, R1, 0 {S:2}
  MOV32I R2, 0 {S:1}
  @!P0 BRA join {S:5}
loop:
  IADD R2, R2, 1 {S:4}
  ISETP.LT.AND P1, R2, 200 {S:2}
  @P1 BRA loop {S:5}
join:
  BAR.SYNC {S:2}
  EXIT
.endfunc
"#;

/// Divergent kernel: odd lanes take one path, even lanes the other;
/// both sides write a distinct constant to out[tid].
pub(crate) const DIVERGE: &str = r#"
.module diverge
.kernel diverge
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  LOP3.AND R4, R0, 1 {S:4}
  ISETP.EQ.AND P0, R4, 1 {S:2}
  @P0 BRA odd {S:5}
  MOV32I R5, 1000 {S:1}
  BRA join {S:5}
odd:
  MOV32I R5, 2000 {S:1}
join:
  STG.E.32 [R2:R3], R5 {R:B1, S:1}
  EXIT {WT:[B1], S:1}
.endfunc
"#;

/// Block-local thread index must come from TID, not warp id: exercises
/// a device-function call too.
pub(crate) const CALL: &str = r#"
.module call
.kernel main
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  MOV R4, R0 {S:2}
  CAL triple {S:5}
  STG.E.32 [R2:R3], R5 {R:B1, S:1}
  EXIT {WT:[B1], S:1}
.endfunc
.func triple
  IADD R5, R4, R4 {S:4}
  IADD R5, R5, R4 {S:4}
  RET {S:5}
.endfunc
"#;

/// Stride-128 global loads (one sector per lane — maximally
/// uncoalesced) plus stride-128 shared traffic (every lane in bank 0
/// — a 32-way conflict). Params: in, out (u64 each); buffers hold
/// 1024 words.
pub(crate) const MEMBOUND: &str = r#"
.module membound
.kernel membound
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 7 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
  LDG.E.32 R8, [R2:R3] {W:B1, S:1}
  SHL R9, R0, 7 {S:2}
  STS.32 [R9], R8 {WT:[B1], R:B2, S:2}
  LDS.32 R10, [R9] {WT:[B2], W:B3, S:1}
  MOV R4, c[0][8] {S:1}
  MOV R5, c[0][12] {S:1}
  IADD R4:R5, R4:R5, R1 {S:2}
  STG.E.32 [R4:R5], R10 {WT:[B3], R:B4, S:1}
  EXIT {WT:[B4], S:1}
.endfunc
"#;

pub(crate) fn membound_launch(blocks: u32) -> LaunchConfig {
    let mut lc = LaunchConfig::new(blocks, 32);
    lc.smem_per_block = 32 * 128;
    lc
}

fn sim(sms: u32) -> GpuSim {
    GpuSim::new(ArchConfig::small(sms), SimConfig::default())
}

#[test]
fn vector_add_correct() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    let a = gpu.global_mut().alloc(4 * 32);
    let b = gpu.global_mut().alloc(4 * 32);
    let out = gpu.global_mut().alloc(4 * 32);
    for i in 0..32u64 {
        gpu.global_mut().write_u32(a + 4 * i, i as u32);
        gpu.global_mut().write_u32(b + 4 * i, 100 + i as u32);
    }
    let r = gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 32), &params_u64(&[a, b, out])).unwrap();
    for i in 0..32u64 {
        assert_eq!(gpu.global().read_u32(out + 4 * i), 100 + 2 * i as u32);
    }
    assert!(r.cycles > 200, "two dependent global loads cost at least L2 latency");
    assert_eq!(r.issued, 19);
    assert!(r.mem_transactions >= 3, "three warp-wide coalesced accesses");
}

#[test]
fn deterministic_across_runs() {
    let m = parse_module(VEC_ADD).unwrap();
    let run = || {
        let mut gpu = sim(2);
        let a = gpu.global_mut().alloc(4 * 64);
        let b = gpu.global_mut().alloc(4 * 64);
        let out = gpu.global_mut().alloc(4 * 64);
        let r =
            gpu.launch(&m, "vecadd", &LaunchConfig::new(2, 32), &params_u64(&[a, b, out])).unwrap();
        (r.cycles, r.issued, r.samples.total_samples())
    };
    assert_eq!(run(), run());
}

#[test]
fn unknown_kernel_and_bad_launch() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    assert!(matches!(
        gpu.launch(&m, "nope", &LaunchConfig::new(1, 32), &[]),
        Err(SimError::UnknownKernel(_))
    ));
    assert!(matches!(
        gpu.launch(&m, "vecadd", &LaunchConfig::new(0, 32), &[]),
        Err(SimError::BadLaunch(_))
    ));
    assert!(matches!(
        gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 4096), &[]),
        Err(SimError::BadLaunch(_))
    ));
}

/// A cache line that is zero (it divided by zero when the cache was
/// built) or not a power of two (the caches shift by it) is a rejected
/// launch that names the field, under either memory model; a cache
/// smaller than one line keeps its one set.
#[test]
fn cache_lines_must_be_nonzero_powers_of_two() {
    let m = parse_module(BARRIER).unwrap();
    let launch = |edit: &dyn Fn(&mut ArchConfig, &mut gpa_arch::HierarchyConfig)| {
        let (mut arch, mut h) = (ArchConfig::small(1), gpa_arch::HierarchyConfig::default());
        edit(&mut arch, &mut h);
        arch.mem = gpa_arch::MemModel::Hierarchy(h);
        GpuSim::new(arch, SimConfig::default()).launch(
            &m,
            "barrier",
            &LaunchConfig::new(1, 64),
            &[],
        )
    };
    let bad = |message: &str| Err(SimError::BadLaunch(message.into()));
    assert_eq!(
        launch(&|a, _| a.icache_line = 0),
        bad("`icache_line` is 0, not a non-zero power of two")
    );
    assert_eq!(launch(&|a, _| a.l2_line = 48), bad("`l2_line` is 48, not a non-zero power of two"));
    assert_eq!(launch(&|_, h| h.l1_line = 0), bad("`l1_line` is 0, not a non-zero power of two"));
    assert!(launch(&|a, h| (a.icache_size, a.l2_size, h.l1_size) = (1, 1, 1)).is_ok());
    // The flat model has no L1 to validate.
    let mut flat = ArchConfig::small(1);
    flat.l2_line = 0;
    let r = GpuSim::new(flat, SimConfig::default()).launch(
        &m,
        "barrier",
        &LaunchConfig::new(1, 64),
        &[],
    );
    assert_eq!(r, bad("`l2_line` is 0, not a non-zero power of two"));
}

/// Bank 0 holds the kernel parameters: a user bank 0 would replace
/// them, so a launch on a device that has one is rejected, not run
/// with the user's bytes as its parameters.
#[test]
fn a_user_constant_bank_0_is_rejected() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    let bufs: Vec<u64> = (0..3).map(|_| gpu.global_mut().alloc(4 * 32)).collect();
    gpu.set_const_bank(0, params_u64(&[bufs[1], bufs[0], bufs[2]]));
    assert_eq!(
        gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 32), &params_u64(&bufs)),
        Err(SimError::BadLaunch("constant bank 0 is reserved for kernel parameters".into()))
    );
}

#[test]
fn barrier_synchronizes_and_stalls() {
    let m = parse_module(BARRIER).unwrap();
    let mut gpu = sim(1);
    gpu.config_mut().sampling_period = 31;
    let r = gpu.launch(&m, "barrier", &LaunchConfig::new(1, 64), &[]).unwrap();
    let syncs = r.samples.reason_total(StallReason::Synchronization);
    assert!(syncs > 0, "warp 1 waits at BAR.SYNC while warp 0 loops");
    assert!(r.cycles > 1000, "200-iteration loop dominates");
}

#[test]
fn divergence_reconverges_with_correct_values() {
    let m = parse_module(DIVERGE).unwrap();
    let mut gpu = sim(1);
    let out = gpu.global_mut().alloc(4 * 32);
    gpu.launch(&m, "diverge", &LaunchConfig::new(1, 32), &params_u64(&[out])).unwrap();
    for i in 0..32u64 {
        let expect = if i % 2 == 1 { 2000 } else { 1000 };
        assert_eq!(gpu.global().read_u32(out + 4 * i), expect, "lane {i}");
    }
}

#[test]
fn sampling_emits_active_and_latency_samples() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    gpu.config_mut().sampling_period = 7;
    let a = gpu.global_mut().alloc(256);
    let b = gpu.global_mut().alloc(256);
    let out = gpu.global_mut().alloc(256);
    let r = gpu.launch(&m, "vecadd", &LaunchConfig::new(4, 64), &params_u64(&[a, b, out])).unwrap();
    assert!(!r.samples.is_empty());
    assert!(r.samples.latency_samples() > 0, "dependent loads leave empty issue slots");
    assert!(r.samples.stall_samples() > 0);
    let memdep = r.samples.reason_total(StallReason::MemoryDependency);
    assert!(memdep > 0, "IADD waits on LDG barriers");
}

#[test]
fn more_parallelism_hides_latency() {
    // The same total work split across more warps should need fewer
    // cycles per element thanks to latency hiding.
    let m = parse_module(VEC_ADD).unwrap();
    let run = |blocks: u32, threads: u32| {
        let mut gpu = sim(1);
        let n = (blocks * threads) as u64;
        let a = gpu.global_mut().alloc(4 * n);
        let b = gpu.global_mut().alloc(4 * n);
        let out = gpu.global_mut().alloc(4 * n);
        gpu.launch(&m, "vecadd", &LaunchConfig::new(blocks, threads), &params_u64(&[a, b, out]))
            .unwrap()
            .cycles
    };
    // Per-element cost must drop when more warps are resident.
    let narrow = run(2, 32); // 2 warps, 64 elements
    let wide = run(2, 128); // 8 warps, 256 elements
    let narrow_per = narrow as f64 / 64.0;
    let wide_per = wide as f64 / 256.0;
    assert!(
        wide_per < narrow_per,
        "more warps hide latency: {wide_per:.2} !< {narrow_per:.2} cycles/element"
    );
}

#[test]
fn grid_larger_than_resident_blocks_completes() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    let n = 64 * 32u64;
    let a = gpu.global_mut().alloc(4 * n);
    let b = gpu.global_mut().alloc(4 * n);
    let out = gpu.global_mut().alloc(4 * n);
    for i in 0..n {
        gpu.global_mut().write_u32(a + 4 * i, 1);
        gpu.global_mut().write_u32(b + 4 * i, 2);
    }
    let r =
        gpu.launch(&m, "vecadd", &LaunchConfig::new(64, 32), &params_u64(&[a, b, out])).unwrap();
    assert_eq!(r.issued, 64 * 19);
    // Every element computed, including the last wave of blocks.
    assert_eq!(gpu.global().read_u32(out + 4 * (n - 1)), 3);
    let total_blocks: u32 = r.sm_stats.iter().map(|s| s.blocks).sum();
    assert_eq!(total_blocks, 64);
}

#[test]
fn device_function_call_and_return() {
    let m = parse_module(CALL).unwrap();
    let mut gpu = sim(1);
    let out = gpu.global_mut().alloc(4 * 32);
    gpu.launch(&m, "main", &LaunchConfig::new(1, 32), &params_u64(&[out])).unwrap();
    for i in 0..32u64 {
        assert_eq!(gpu.global().read_u32(out + 4 * i), 3 * i as u32);
    }
}

#[test]
fn sampling_phase_shifts_which_cycles_are_observed() {
    let m = parse_module(VEC_ADD).unwrap();
    let run = |phase: u32| {
        let cfg = SimConfig { sampling_period: 13, sampling_phase: phase, ..SimConfig::default() };
        let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
        let a = gpu.global_mut().alloc(4 * 256);
        let b = gpu.global_mut().alloc(4 * 256);
        let out = gpu.global_mut().alloc(4 * 256);
        let mut raw: Vec<RawSample> = Vec::new();
        let prog = gpu.compile(&m, "vecadd").unwrap();
        let r = gpu
            .launch_compiled_with_sink(
                &prog,
                &LaunchConfig::new(4, 64),
                &params_u64(&[a, b, out]),
                &mut raw,
            )
            .unwrap();
        (r.cycles, raw)
    };
    let (cycles0, base) = run(0);
    let (cycles7, shifted) = run(7);
    assert_eq!(cycles0, cycles7, "sampling never perturbs timing");
    assert!(!base.is_empty() && !shifted.is_empty());
    assert!(base.iter().all(|s| s.cycle % 13 == 0));
    assert!(shifted.iter().all(|s| s.cycle % 13 == 7));
}

#[test]
fn external_sink_sees_the_stream_the_default_sink_aggregates() {
    let m = parse_module(VEC_ADD).unwrap();
    let launch = LaunchConfig::new(4, 64);
    let alloc = |gpu: &mut GpuSim| {
        let a = gpu.global_mut().alloc(4 * 256);
        let b = gpu.global_mut().alloc(4 * 256);
        let out = gpu.global_mut().alloc(4 * 256);
        params_u64(&[a, b, out])
    };
    let cfg = SimConfig { sampling_period: 7, ..SimConfig::default() };
    let mut gpu = GpuSim::new(ArchConfig::small(1), cfg.clone());
    let params = alloc(&mut gpu);
    let aggregated = gpu.launch(&m, "vecadd", &launch, &params).unwrap();

    let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
    let params = alloc(&mut gpu);
    let mut raw: Vec<RawSample> = Vec::new();
    let prog = gpu.compile(&m, "vecadd").unwrap();
    let buffered = gpu.launch_compiled_with_sink(&prog, &launch, &params, &mut raw).unwrap();
    assert!(buffered.samples.is_empty(), "external sink owns the samples");
    assert_eq!(
        SampleSet::from_raw(&raw),
        aggregated.samples,
        "at-source aggregation equals buffered aggregation"
    );
    assert_eq!(buffered.cycles, aggregated.cycles);
    assert_eq!(buffered.issued, aggregated.issued);
}

#[test]
fn compiled_program_reuse_matches_fresh_launches() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    let prog = gpu.compile(&m, "vecadd").unwrap();
    assert_eq!(prog.entry(), "vecadd");
    assert_eq!(prog.module_name(), "vecadd");
    let a = gpu.global_mut().alloc(4 * 64);
    let b = gpu.global_mut().alloc(4 * 64);
    let out = gpu.global_mut().alloc(4 * 64);
    let params = params_u64(&[a, b, out]);
    let lc = LaunchConfig::new(2, 32);
    let fresh = gpu.launch(&m, "vecadd", &lc, &params).unwrap();
    let reused = gpu.launch_compiled(&prog, &lc, &params).unwrap();
    let again = gpu.launch_compiled(&prog, &lc, &params).unwrap();
    assert_eq!(fresh, reused);
    assert_eq!(fresh, again);
}

#[test]
fn compiled_program_rejects_mismatched_arch() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut small_arch = ArchConfig::small(1);
    small_arch.name = "other-arch".into();
    let other = GpuSim::new(small_arch, SimConfig::default());
    let prog = other.compile(&m, "vecadd").unwrap();
    let mut gpu = sim(1);
    assert!(matches!(
        gpu.launch_compiled(&prog, &LaunchConfig::new(1, 32), &[]),
        Err(SimError::BadLaunch(_))
    ));
}

#[test]
fn issue_counts_are_sorted_by_pc() {
    let m = parse_module(VEC_ADD).unwrap();
    let mut gpu = sim(1);
    let a = gpu.global_mut().alloc(4 * 32);
    let b = gpu.global_mut().alloc(4 * 32);
    let out = gpu.global_mut().alloc(4 * 32);
    let r = gpu.launch(&m, "vecadd", &LaunchConfig::new(1, 32), &params_u64(&[a, b, out])).unwrap();
    let pcs: Vec<u64> = r.issue_counts.keys().copied().collect();
    let mut sorted = pcs.clone();
    sorted.sort_unstable();
    assert_eq!(pcs, sorted, "BTreeMap iteration is PC-ordered");
    assert_eq!(r.issue_counts.values().sum::<u64>(), r.issued);
}
