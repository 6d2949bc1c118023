//! The dense per-cycle scheduler core — a **reference implementation**.
//!
//! The simulator as one would first write it: every cycle, every
//! scheduler classifies its warps round-robin, the first ready one
//! issues, and the clock advances by one. It exists for one purpose: the
//! differential tests (here and in `tests/sim_equivalence.rs`) run a
//! kernel through [`launch_dense`] and through `GpuSim::launch*` and
//! require byte-identical [`LaunchResult`]s and raw sample streams.
//! Nothing outside tests calls it and no configuration reaches it. It
//! shares everything but the `IssueCore` policy with production, so a
//! divergence isolates what the event core adds: the cached `ready_at`
//! horizons and the bounds and clock jumps built on them. It decides
//! readiness with `classify` alone; the horizons it only asserts against.

use crate::machine::{GpuSim, IssueCore, LaunchResult, SimConfig};
use crate::memory::MemoryModel;
use crate::program::CompiledProgram;
use crate::sample::SampleSink;
use crate::sm::{Sm, Status};
use crate::Result;
use gpa_arch::LaunchConfig;

/// [`GpuSim::launch_compiled_with_sink`] on the dense reference core:
/// arm `gpu` exactly as for a normal launch. Same errors.
///
/// # Panics
///
/// If `classify` and `ready_at` disagree about a warp it visits — the
/// lock-step invariant the event core rests on.
pub fn launch_dense(
    gpu: &mut GpuSim,
    prog: &CompiledProgram,
    launch: &LaunchConfig,
    params: &[u8],
    sink: &mut dyn SampleSink,
) -> Result<LaunchResult> {
    gpu.launch_on::<DenseCore>(prog, launch, params, sink)
}

struct DenseCore;

impl IssueCore for DenseCore {
    /// Classifies warps round-robin, first ready wins.
    fn scan<M: MemoryModel>(
        sm: &mut Sm<M>,
        sched: usize,
        cycle: u64,
        prog: &CompiledProgram,
    ) -> Option<usize> {
        let throttle_clear = sm.throttle_clear();
        let cols = sm.sched_cols[sched].clone();
        let list_len = cols.len();
        for k in 0..list_len {
            let pos = (sm.rr_issue[sched] + k) % list_len;
            let wi = sm.col_warp[cols.start + pos];
            let status = sm.classify(wi, prog, cycle);
            let horizon = sm.ready_at(sm.horizons[cols.start + pos], throttle_clear);
            assert_eq!(
                status == Status::Ready,
                horizon <= cycle,
                "classify and ready_at out of lock-step: SM {} scheduler {sched} warp {wi} \
                 pc {:#x} cycle {cycle}: classify says {status:?}, ready_at says {horizon}",
                sm.id,
                sm.warps[wi].pc,
            );
            if status == Status::Ready {
                sm.rr_issue[sched] = (pos + 1) % list_len;
                return Some(wi);
            }
        }
        None
    }

    fn advance<M>(_sms: &[Sm<M>], next: u64, _cfg: &SimConfig) -> u64 {
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::tests::{
        membound_launch, params_u64, BARRIER, CALL, DIVERGE, MEMBOUND, VEC_ADD,
    };
    use crate::machine::RawSample;
    use crate::sample::SampleSet;
    use crate::SimError;
    use gpa_arch::ArchConfig;
    use gpa_isa::parse_module;

    /// Runs a kernel under both scheduler cores and asserts byte-identical
    /// results — the aggregated `LaunchResult` *and* the raw per-sample
    /// stream (cycle/SM/scheduler identity, which aggregation could
    /// mask).
    fn assert_dense_event_identical(
        text: &str,
        entry: &str,
        launch: LaunchConfig,
        period: u32,
        phase: u32,
        nbufs: u64,
        words_per_buf: u64,
    ) {
        assert_dense_event_identical_on(
            ArchConfig::small(2),
            text,
            entry,
            launch,
            period,
            phase,
            nbufs,
            words_per_buf,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn assert_dense_event_identical_on(
        arch: ArchConfig,
        text: &str,
        entry: &str,
        launch: LaunchConfig,
        period: u32,
        phase: u32,
        nbufs: u64,
        words_per_buf: u64,
    ) {
        let m = parse_module(text).unwrap();
        // One arming recipe for every run in this helper. The oracle
        // always streams into the raw buffer; the event core does when
        // `collect_raw`, and aggregates at the source otherwise.
        let run = |dense: bool, collect_raw: bool| {
            let cfg = SimConfig {
                sampling_period: period,
                sampling_phase: phase,
                ..SimConfig::default()
            };
            let mut gpu = GpuSim::new(arch.clone(), cfg);
            let bufs: Vec<u64> =
                (0..nbufs).map(|_| gpu.global_mut().alloc(4 * words_per_buf)).collect();
            for (bi, b) in bufs.iter().enumerate() {
                for i in 0..words_per_buf {
                    gpu.global_mut().write_u32(b + 4 * i, (bi as u32 + 1) * 10 + i as u32);
                }
            }
            let params = params_u64(&bufs);
            let mut raw: Vec<RawSample> = Vec::new();
            let prog = gpu.compile(&m, entry).unwrap();
            let result = if dense {
                launch_dense(&mut gpu, &prog, &launch, &params, &mut raw)
            } else if collect_raw {
                gpu.launch_compiled_with_sink(&prog, &launch, &params, &mut raw)
            } else {
                gpu.launch(&m, entry, &launch, &params)
            };
            (result.unwrap(), raw)
        };
        let (dense, dense_raw) = run(true, true);
        let (event, event_raw) = run(false, true);
        assert_eq!(dense, event, "dense and event-driven cores must agree for `{entry}`");
        assert_eq!(dense_raw, event_raw, "raw sample streams must agree for `{entry}`");
        // The default aggregating sink sees exactly this stream.
        let (aggregated, _) = run(false, false);
        assert_eq!(
            SampleSet::from_raw(&event_raw),
            aggregated.samples,
            "aggregate of the raw stream equals the default sink for `{entry}`"
        );
    }

    #[test]
    fn event_core_matches_dense_oracle() {
        assert_dense_event_identical(VEC_ADD, "vecadd", LaunchConfig::new(4, 64), 13, 0, 3, 256);
        assert_dense_event_identical(BARRIER, "barrier", LaunchConfig::new(2, 64), 31, 0, 0, 0);
        assert_dense_event_identical(DIVERGE, "diverge", LaunchConfig::new(2, 32), 7, 0, 1, 64);
        assert_dense_event_identical(CALL, "main", LaunchConfig::new(2, 32), 17, 0, 1, 64);
    }

    #[test]
    fn event_core_matches_dense_without_sampling() {
        assert_dense_event_identical(VEC_ADD, "vecadd", LaunchConfig::new(4, 64), 0, 0, 3, 256);
    }

    #[test]
    fn event_core_matches_dense_with_hierarchy() {
        let arch = || ArchConfig::small(2).with_hierarchy();
        assert_dense_event_identical_on(
            arch(),
            VEC_ADD,
            "vecadd",
            LaunchConfig::new(4, 64),
            13,
            0,
            3,
            256,
        );
        assert_dense_event_identical_on(
            arch(),
            BARRIER,
            "barrier",
            LaunchConfig::new(2, 64),
            31,
            0,
            0,
            0,
        );
        assert_dense_event_identical_on(
            arch(),
            MEMBOUND,
            "membound",
            membound_launch(4),
            7,
            0,
            2,
            1024,
        );
    }

    #[test]
    fn event_core_matches_dense_with_sampling_phase() {
        // Replay-style repeat profiling offsets the first tick; the
        // cores must agree for every phase, including phases beyond the
        // first tick period.
        for phase in [1, 5, 12, 40] {
            assert_dense_event_identical(
                VEC_ADD,
                "vecadd",
                LaunchConfig::new(4, 64),
                13,
                phase,
                3,
                256,
            );
        }
    }

    #[test]
    fn cycle_budget_errors_identically_when_jumping_past_it() {
        // A memory-latency-bound kernel with a tiny budget and sampling
        // off: the event core's first jump would leap far past the budget
        // and must clamp to it, erroring exactly like the dense loop.
        let m = parse_module(VEC_ADD).unwrap();
        let run = |dense: bool| {
            let cfg = SimConfig { sampling_period: 0, max_cycles: 50, ..SimConfig::default() };
            let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
            let a = gpu.global_mut().alloc(256);
            let b = gpu.global_mut().alloc(256);
            let out = gpu.global_mut().alloc(256);
            let (launch, params) = (LaunchConfig::new(1, 32), params_u64(&[a, b, out]));
            if dense {
                let prog = gpu.compile(&m, "vecadd").unwrap();
                launch_dense(&mut gpu, &prog, &launch, &params, &mut SampleSet::new())
            } else {
                gpu.launch(&m, "vecadd", &launch, &params)
            }
        };
        assert_eq!(run(true).unwrap_err(), SimError::CycleLimit(50));
        assert_eq!(run(false).unwrap_err(), SimError::CycleLimit(50));
    }
}
