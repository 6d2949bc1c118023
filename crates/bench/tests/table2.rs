//! Table 2 as a gate: the `table2` bin's whole stdout, the optimizer
//! catalog printed from `gpa_core::TABLE2` in catalog order, pinned as
//! printed. A moved, renamed or re-estimated row changes a line here.

use std::process::Command;

const TABLE2: &str = "\
Table 2 — GPU optimizers in GPA

Optimizer                                     Category             Estimator              first hint
------------------------------------------------------------------------------------------------------------------------------------
GPURegisterReuseOptimizer                     stall elimination    StallElimination       Local memory loads indicate register spills. Reduce live values per thread.
GPUStrengthReductionOptimizer                 stall elimination    StallElimination       Avoid integer division. It expands to a special-function sequence; multiply by a reciprocal instead.
GPUFunctionSplitOptimizer                     stall elimination    StallElimination       The function body exceeds the instruction cache; sequential fetches keep missing.
GPUFastMathOptimizer                          stall elimination    StallElimination       Stalls concentrate in precise CUDA math functions.
GPUWarpBalanceOptimizer                       stall elimination    StallElimination       Warps wait long at __syncthreads(): work is unbalanced across the block's warps.
GPUMemoryTransactionReductionOptimizer        stall elimination    StallElimination       The LSU queue is saturated: reduce the number of memory transactions.
GPULoopUnrollOptimizer                        latency hiding       LatencyHiding          Dependent instructions inside the loop leave issue slots empty.
GPUCodeReorderOptimizer                       latency hiding       LatencyHiding          The distance between the producing load/operation and its use is short.
GPUFunctionInliningOptimizer                  latency hiding       LatencyHiding          Hot device functions are called out of line: calls serialize the pipeline and hide nothing.
GPUBlockIncreaseOptimizer                     parallel             Parallel               The grid has fewer blocks than the device has SMs: most SMs idle.
GPUThreadIncreaseOptimizer                    parallel             Parallel               Blocks are too small: the per-SM block-slot limit caps resident warps, and sub-warp blocks waste lanes.
GPUMemoryCoalescingOptimizer                  stall elimination    Residual(0.25)         Warp accesses split into many memory sectors: make consecutive lanes touch consecutive addresses.
GPUBankConflictResolutionOptimizer            stall elimination    Residual(0.03125)      Lanes of a warp hit the same shared-memory bank; accesses serialize up to 32-way.
";

#[test]
fn table2_prints_the_catalog_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2")).output().expect("table2 runs");
    assert!(out.status.success(), "table2 exited with {}", out.status);
    assert_eq!(String::from_utf8(out.stdout).expect("UTF-8 stdout"), TABLE2);
}
