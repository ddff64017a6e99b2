//! CPU clocks, resource usage and resident memory straight from the C
//! library that std already links and from the process's own `/proc`
//! entry — no extra crate. Linux and glibc only (the constants, the
//! `rusage` layout and `malloc_trim` below are theirs).

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: c_long,
}

/// `struct rusage`: two timevals then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const RUSAGE_THREAD: c_int = 1;

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock ids are the
    // Linux constants for the process and calling-thread CPU clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn rusage(who: c_int) -> Rusage {
    // SAFETY: `Rusage` is plain integers, so all-zero is a valid value;
    // `getrusage` then fills it with the Linux layout.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` is a valid, writable rusage.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

/// CPU time (user + sys) consumed by the whole process, in ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time (user + sys) consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Involuntary context switches of the calling thread so far: how often
/// the scheduler took the core away while the thread could still run.
pub fn thread_involuntary_switches() -> u64 {
    rusage(RUSAGE_THREAD).nivcsw as u64
}

/// A field of `/proc/self/status` given in kB, in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("no {field} in /proc/self/status"))
}

/// Returns freed heap pages to the kernel, then restarts the process's
/// resident-memory high-water mark at its current resident size
/// (`/proc/self/clear_refs`, value 5). Returns that size, in MiB.
pub fn reset_peak_rss() -> Result<f64, String> {
    // SAFETY: `malloc_trim` only releases free heap memory; any pad is
    // valid.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the resident high-water mark: {e}"))?;
    status_mb("VmRSS")
}

/// Resident-memory high-water mark since the last [`reset_peak_rss`],
/// in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}
