//! Figure 8 as a gate: the `fig8` bin's whole stdout, ExaTENSOR's
//! top-3 advice report on `Session::full()`, pinned as printed. It reads
//! blame, every catalog row's match and estimate, the ranking and the
//! text renderer, so a change to any of them moves a line here.

use std::process::Command;

const FIGURE8: &str = "\
GPA advice report for kernel `tensor_transpose`
samples: 416 total = 106 active + 310 latency
stall histogram:
  selected                     23    5.5%
  not_selected                  8    1.9%
  exec_dependency              68   16.3%
  memory_dependency           292   70.2%
  memory_throttle              10    2.4%
  pipe_busy                    15    3.6%

Apply GPUCodeReorderOptimizer optimization, ratio 84.615%, estimate speedup 1.338x
  * The distance between the producing load/operation and its use is short.
  * Hoist subscripted loads well before their use (e.g. read the next iteration's address before the synchronization).
  * Separate address computation from dereference so the compiler can schedule them apart.
  1. Hot BLAME code, ratio 39.904%, speedup 1.664x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1210] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1220] in Loop at cuda2.cu:30 in tensor_transpose
  2. Hot BLAME code, ratio 30.288%, speedup 1.434x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x11d0] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x11e0] in Loop at cuda2.cu:30 in tensor_transpose
  3. Hot BLAME code, ratio 3.606%, speedup 1.037x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1100] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1110] in Loop at cuda2.cu:30 in tensor_transpose
  4. Hot BLAME code, ratio 3.365%, speedup 1.035x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1130] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1140] in Loop at cuda2.cu:30 in tensor_transpose
  5. Hot BLAME code, ratio 1.923%, speedup 1.020x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x11f0] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1200] in Loop at cuda2.cu:30 in tensor_transpose

Apply GPULoopUnrollOptimizer optimization, ratio 82.933%, estimate speedup 1.308x
  * Dependent instructions inside the loop leave issue slots empty.
  * Add `#pragma unroll` (or unroll by hand) so independent iterations overlap the latency.
  * If the compiler refuses (unknown trip count), hoist the bound into a constant.
  1. Hot BLAME code, ratio 39.904%, speedup 1.664x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1210] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1220] in Loop at cuda2.cu:30 in tensor_transpose
  2. Hot BLAME code, ratio 30.288%, speedup 1.434x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x11d0] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x11e0] in Loop at cuda2.cu:30 in tensor_transpose
  3. Hot BLAME code, ratio 3.606%, speedup 1.037x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1100] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1110] in Loop at cuda2.cu:30 in tensor_transpose
  4. Hot BLAME code, ratio 3.365%, speedup 1.035x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1130] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1140] in Loop at cuda2.cu:30 in tensor_transpose
  5. Hot BLAME code, ratio 1.923%, speedup 1.020x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x11f0] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1200] in Loop at cuda2.cu:30 in tensor_transpose

Apply GPUStrengthReductionOptimizer optimization, ratio 7.212%, estimate speedup 1.078x
  * Avoid integer division. It expands to a special-function sequence; multiply by a reciprocal instead.
  * Avoid conversion. A double constant multiplied with a 32-bit float promotes the whole expression to 64 bits; write the constant as `2.0f`.
  * Replace repeated expensive operations with mathematically equivalent cheaper forms.
  1. Hot BLAME code, ratio 3.606%, speedup 1.037x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1100] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1110] in Loop at cuda2.cu:30 in tensor_transpose
  2. Hot BLAME code, ratio 3.365%, speedup 1.035x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1130] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1140] in Loop at cuda2.cu:30 in tensor_transpose
  3. Hot BLAME code, ratio 0.180%, speedup 1.002x, distance 1
     From tensor_transpose at cuda2.cu:34 [0x1110] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1120] in Loop at cuda2.cu:30 in tensor_transpose
  4. Hot BLAME code, ratio 0.060%, speedup 1.001x, distance 3
     From tensor_transpose at cuda2.cu:34 [0x10f0] in Loop at cuda2.cu:30 in tensor_transpose
     To   tensor_transpose at cuda2.cu:34 [0x1120] in Loop at cuda2.cu:30 in tensor_transpose

";

#[test]
fn fig8_prints_exatensors_ranked_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig8")).output().expect("fig8 runs");
    assert!(out.status.success(), "fig8 exited with {}", out.status);
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8 stdout"), FIGURE8);
}
