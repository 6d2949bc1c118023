//! What the harness asks the operating system for: CPU time of this
//! process (daemon, workers and generator threads together), its peak
//! resident set (and a fresh start for that peak), and one CPU to run on. std already links libc, so the
//! calls are bound directly, the way `gpa-serve`'s reactor binds epoll.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// Pins the calling thread — and every thread spawned from it later,
/// which inherit the mask — to one CPU: the highest-numbered one it is
/// allowed on, because CPU 0 is where a small VM takes its interrupts.
///
/// Every workload is a serial closed loop: the client waits while the
/// reactor and the worker run, so the threads never compete for a CPU.
/// What does differ is a hand-off's price. On the calibration box (2
/// KVM vCPUs) a same-CPU wake-up round trip is 4 µs and a cross-vCPU
/// one 33–45 µs (an IPI to a halted vCPU), and the scheduler's choice
/// between them flipped for minutes at a time: `upload_advise`, with 188
/// hand-offs per wave, read 22 ms pinned and 27–42 ms unpinned during
/// such a phase.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let size = std::mem::size_of::<u64>();
    let mut allowed: u64 = 0;
    // SAFETY: `allowed` is a live, writable 8-byte bit set and the size
    // passed is its size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 || allowed == 0 {
        // Also what a machine with more than 64 CPUs answers (EINVAL).
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let mask: u64 = 1 << (u64::BITS - 1 - allowed.leading_zeros());
    // SAFETY: as above, and the call only reads `mask`.
    if unsafe { sched_setaffinity(0, size, &mask) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux, matching `Timespec`'s `repr(C)` layout) for the
    // duration of the call, which writes nothing else.
    let ret = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(ret, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Starts the peak resident set over from what is live now: hands the
/// allocator's free pages back to the kernel, then has the kernel reset
/// `VmHWM` to the current resident set. What the harness itself needed
/// earlier — the reference session, the set-ups already torn down — is
/// thereby no part of `peak_rss_mb`.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
    // at any time; the other threads that allocated have been joined.
    unsafe { malloc_trim(0) };
    // "5" is the documented value for "reset the peak RSS" (Linux 4.0).
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
