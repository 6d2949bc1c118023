//! Reproduces **Figure 1**: the PC-sampling mental model — a timeline of
//! samples on one SM classified as active/latency/stall samples.

use gpa_arch::{ArchConfig, LaunchConfig};
use gpa_isa::parse_module;
use gpa_sim::{GpuSim, RawSample, SimConfig};

fn main() {
    let m = parse_module(
        r#"
.module fig1
.kernel k
  S2R R0, SR_TID.X {W:B0, S:1}
  MOV R2, c[0][0] {S:1}
  MOV R3, c[0][4] {S:1}
  SHL R1, R0, 2 {WT:[B0], S:2}
  IADD R2:R3, R2:R3, R1 {S:2}
loop:
  LDG.E.32 R4, [R2:R3] {W:B1, S:1}
  IADD R5, R4, 1 {WT:[B1], S:4}
  STG.E.32 [R2:R3], R5 {R:B2, S:1}
  IADD R6, R6, 1 {S:4}
  ISETP.LT.AND P0, R6, 24 {S:2}
  @P0 BRA loop {WT:[B2], S:5}
  EXIT
.endfunc
"#,
    )
    .expect("parses");
    let cfg = SimConfig { sampling_period: 64, ..SimConfig::default() }; // N = 64 cycles
    let mut gpu = GpuSim::new(ArchConfig::small(1), cfg);
    let buf = gpu.global_mut().alloc(4 * 128);
    let params: Vec<u8> = buf.to_le_bytes().to_vec();
    // Per-sample timelines need the raw stream: collect through the
    // raw-buffering sink instead of the default aggregating one.
    let mut samples: Vec<RawSample> = Vec::new();
    let prog = gpu.compile(&m, "k").expect("compiles");
    gpu.launch_compiled_with_sink(&prog, &LaunchConfig::new(2, 64), &params, &mut samples)
        .expect("runs");

    println!("Figure 1 — PC sampling on one SM (period N = 64 cycles)\n");
    println!("{:<8} {:<10} {:<10} {:<18} pc", "cycle", "scheduler", "class", "stall reason");
    for s in samples.iter().take(16) {
        let class = if s.scheduler_active { "active" } else { "latency" };
        println!(
            "{:<8} {:<10} {:<10} {:<18} {:#x}",
            s.cycle,
            s.scheduler,
            class,
            s.stall.name(),
            s.pc
        );
    }
    let active = samples.iter().filter(|s| s.scheduler_active).count();
    let latency = samples.len() - active;
    let stalls = samples.iter().filter(|s| s.stall.is_stall()).count();
    println!(
        "\ntotals: {} samples = {} active + {} latency; {} are stall samples",
        samples.len(),
        active,
        latency,
        stalls
    );
    println!(
        "stall ratio {:.2}, active ratio {:.2}",
        latency as f64 / samples.len() as f64,
        active as f64 / samples.len() as f64
    );
}
