//! Child processes measured from outside: wall-clock from spawn to exit,
//! CPU time and peak resident set size, all taken by the harness.
//!
//! The standard library's `Child::wait` discards the kernel's resource
//! accounting, so children are reaped with `wait4(2)` directly; the libc
//! symbols are already linked into every Rust binary on Linux.

use std::io;
use std::path::Path;
use std::process::{Child, Command};
use std::time::Instant;

/// `struct rusage` as laid out by Linux (two `timeval`s, then 14 longs).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn statfs(path: *const std::ffi::c_char, buf: *mut u64) -> i32;
    fn syncfs(fd: i32) -> i32;
    fn clock_gettime(clock: i32, tp: *mut [i64; 2]) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `CPUCLOCK_SCHED`: the low bits of a per-process clock id that select
/// total scheduled CPU time.
const CPUCLOCK_SCHED: i32 = 2;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut tp = [0i64; 2];
    // SAFETY: `tp` is a writable `struct timespec` (two 64-bit words on
    // 64-bit Linux) for the whole call.
    let r = unsafe { clock_gettime(clock, &mut tp) };
    if r != 0 {
        return 0.0;
    }
    tp[0] as f64 + tp[1] as f64 * 1e-9
}

/// CPU seconds this process has used so far, at nanosecond resolution.
pub fn own_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds process `pid` (a running child of this one) has used so
/// far, over all its threads, at nanosecond resolution, read while it
/// runs: Linux's per-process CPU clock,
/// `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`.
pub fn process_cpu_s(pid: u32) -> f64 {
    cpu_clock_s((!(pid as i32) << 3) | CPUCLOCK_SCHED)
}

/// Removes `dir` and flushes its filesystem, so the deletion's journal
/// and discard work is paid here, between measurements, instead of
/// landing inside a later timed run. Best effort: errors are ignored.
pub fn remove_and_flush(dir: &Path) {
    use std::os::fd::AsRawFd;
    let _ = std::fs::remove_dir_all(dir);
    let parent = dir.parent().unwrap_or(dir);
    if let Ok(f) = std::fs::File::open(parent) {
        // SAFETY: `f` is an open file descriptor for the whole call.
        unsafe { syncfs(f.as_raw_fd()) };
    }
}

/// How one child process ended, as the harness measured it.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Whether it exited with status 0.
    pub success: bool,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
    /// CPU seconds it used, user plus system, over all its threads. Time
    /// the hypervisor stole from the guest is not charged to it.
    pub cpu_s: f64,
}

/// Reaps `child`, which must not have been waited for yet, returning its
/// exit status and peak RSS. Blocks until the process has ended.
pub fn reap(child: Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types wait4 expects (`int` and a Linux `struct rusage`, whose
        // 144-byte layout `Rusage` mirrors); `pid` names our own child,
        // which no other code reaps because `child` is consumed here.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The process is gone; dropping the handle only closes our pipe ends.
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok(Exit {
        success: exited_zero,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        cpu_s: seconds(usage.utime) + seconds(usage.stime),
    })
}

/// Runs `cmd` to completion; returns its wall-clock seconds from spawn to
/// exit plus how it ended.
pub fn run_timed(cmd: &mut Command) -> io::Result<(f64, Exit)> {
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let exit = reap(child)?;
    Ok((t0.elapsed().as_secs_f64(), exit))
}

/// Name of the filesystem holding `path` (from its `statfs` magic), for
/// the provenance line: store and journal timings depend on it.
pub fn filesystem_of(path: &Path) -> String {
    use std::os::unix::ffi::OsStrExt;
    let Ok(c) = std::ffi::CString::new(path.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux; the buffer is larger
    // and its first word is `f_type` on every 64-bit Linux ABI.
    let mut buf = [0u64; 32];
    // SAFETY: `c` is a NUL-terminated path and `buf` is a writable buffer
    // larger than the kernel's `struct statfs`.
    let r = unsafe { statfs(c.as_ptr(), buf.as_mut_ptr()) };
    if r != 0 {
        return "unknown".into();
    }
    match buf[0] as u32 {
        0xEF53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        other => format!("fs-magic-{other:#x}"),
    }
}
