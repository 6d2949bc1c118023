//! What the simulator costs on the host, app by app, and where inside it:
//! `cargo run --release -p gpa-bench --bin sim_hosttime [app] [reps] [flat|hierarchy]`
//! launches variant 0 of every registry app whose name contains `app`
//! (all 21 — the `cold_*` wave — by default) on `Params::full()`, `reps`
//! times (default 5) from a shared copy-on-write memory snapshot, and
//! prints the best `launch_compiled` time beside the launch's exact
//! counts and `SimStats` (`pages`: global-memory pages the launch
//! created or copied on write). On x86-64 Linux a
//! `setitimer(ITIMER_PROF)` sampler runs during the launches and writes
//! the sampled PCs to `sim_hosttime.prof`; docs/simulator.md has the
//! `addr2line` recipe.

use gpa_kernels::{all_apps, runner, Params};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let filter = args.next().unwrap_or_default();
    let reps: u32 = args.next().map_or(5, |n| n.parse().expect("reps is a count"));
    let model = args.next().unwrap_or_else(|| "flat".into());
    let params = Params::full();
    let arch = match model.as_str() {
        "flat" => runner::arch_for(&params),
        "hierarchy" => runner::arch_for(&params).with_hierarchy(),
        other => panic!("memory model `{other}` is neither `flat` nor `hierarchy`"),
    };
    let header = ["ms", "cycles", "issues", "ns/issue", "iss/cycle"].into_iter().chain(COUNTERS);
    println!("{:<24}{}", "app", header.map(|c| format!(" {c:>10}")).collect::<String>());
    let mut total = [0f64; 3 + COUNTERS.len()];
    for app in all_apps().iter().filter(|a| a.name.contains(&filter)) {
        let spec = (app.build)(0, &params);
        let (gpu, host_params) = runner::armed_gpu_with(&spec, &arch, runner::sim_config());
        let program = gpu.compile(&spec.module, &spec.entry).expect("registry kernels compile");
        let mut best = None;
        for _ in 0..reps.max(1) {
            let snapshot = gpu.global().clone();
            let mut replay =
                runner::rearmed_gpu(&spec, arch.clone(), runner::sim_config(), snapshot);
            sampler::every_us(1000);
            let start = Instant::now();
            let result = replay.launch_compiled(&program, &spec.launch, &host_params);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            sampler::every_us(0);
            let result = result.expect("registry kernels run");
            if best.as_ref().is_none_or(|(b, _)| ms < *b) {
                best = Some((ms, result));
            }
        }
        let (ms, r) = best.expect("at least one repetition");
        let s = r.sim_stats;
        let counts = [
            s.cycles_stepped,
            s.sched_visits,
            s.scans,
            s.scan_misses,
            s.horizon_visits,
            s.pages_copied,
        ];
        let row = [r.cycles, r.issued].into_iter().chain(counts).map(|n| n as f64);
        let row: Vec<f64> = std::iter::once(ms).chain(row).collect();
        print_row(app.name, &row);
        total.iter_mut().zip(&row).for_each(|(t, v)| *t += v);
    }
    print_row("total", &total);
    sampler::write("sim_hosttime.prof");
}

/// `SimStats`, in the order printed.
const COUNTERS: [&str; 6] = ["stepped", "visits", "scans", "misses", "horizons", "pages"];

/// A row of ms, cycles, issues and the counters, with host-ns per issue
/// and issues per cycle derived in between.
fn print_row(name: &str, row: &[f64]) {
    let (ms, cycles, issues) = (row[0], row[1], row[2]);
    let derived = [ms * 1e6 / issues, issues / cycles];
    let cells = row[..3].iter().chain(&derived).chain(&row[3..]);
    let cell = |v: &f64| format!(" {v:>10.*}", if v.fract() == 0.0 { 0 } else { 2 });
    println!("{name:<24}{}", cells.map(cell).collect::<String>());
}

/// A flat PC profile of this process: the PC each `SIGPROF` interrupted,
/// from its `ucontext`. libc is bound as `benchmark/src/sys.rs` binds it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::os::raw::{c_int, c_void};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    const SLOTS: usize = 1 << 20;
    static PCS: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    #[repr(C)]
    struct SigAction {
        handler: extern "C" fn(c_int, *mut c_void, *mut c_void),
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }
    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
    /// `ucontext_t`: 40 bytes of flags, link and stack, then register 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const [i64; 4], old: *mut [i64; 4]) -> c_int;
    }

    extern "C" fn on_tick(_: c_int, _: *mut c_void, ucontext: *mut c_void) {
        // SAFETY: the kernel passes an `SA_SIGINFO` handler a live
        // `ucontext_t`, which holds an aligned RIP at this offset.
        let pc = unsafe { ucontext.cast::<u8>().add(RIP_OFFSET).cast::<usize>().read() };
        // Atomics only: the handler may interrupt anything.
        if let Some(slot) = PCS.get(TAKEN.fetch_add(1, Relaxed)) {
            slot.store(pc, Relaxed);
        }
    }

    /// Ticks every `us` microseconds of this process's CPU time (0:
    /// never; the kernel's own tick is the finest it gets).
    pub fn every_us(us: i64) {
        let act = SigAction { handler: on_tick, mask: [0; 16], flags: 0x1000_0004, restorer: 0 };
        // SAFETY: both calls only read what they are handed, laid out as
        // glibc declares `struct sigaction` (`SA_RESTART | SA_SIGINFO`)
        // and `struct itimerval`; null means "do not return the old one".
        let ok = unsafe {
            sigaction(SIGPROF, &act, std::ptr::null_mut()) == 0
                && setitimer(ITIMER_PROF, &[0, us, 0, us], std::ptr::null_mut()) == 0
        };
        assert!(ok, "arming the profile timer: {}", std::io::Error::last_os_error());
    }

    /// Writes one line per sample: its PC, relative to where the
    /// executable was loaded (what `addr2line` expects of a PIE).
    pub fn write(path: &str) {
        let exe = std::env::current_exe().expect("current_exe");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        let base = (maps.lines().find(|l| l.ends_with(exe.to_str().expect("utf-8 path"))))
            .and_then(|l| usize::from_str_radix(l.split('-').next()?, 16).ok())
            .expect("the executable is mapped");
        let taken = &PCS[..TAKEN.load(Relaxed).min(SLOTS)];
        let line = |pc: &AtomicUsize| format!("{:#x}\n", pc.load(Relaxed).wrapping_sub(base));
        std::fs::write(path, taken.iter().map(line).collect::<String>())
            .expect("write the profile");
        println!("{} samples -> {path} (symbolise: docs/simulator.md)", taken.len());
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sampler {
    pub fn every_us(_: i64) {}
    pub fn write(_: &str) {}
}
