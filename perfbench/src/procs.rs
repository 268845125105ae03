//! Resource accounting of the program under test: CPU time and peak
//! resident set of one-shot child processes (through `wait4`) and of a
//! resident service (through `/proc/<pid>`). Linux only.

use std::io;
use std::process::Child;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

/// What one reaped child cost.
#[derive(Clone, Copy, Debug)]
pub struct ChildUsage {
    /// User plus system CPU milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set in KiB.
    pub maxrss_kb: u64,
    /// True when the child exited normally with status 0.
    pub success: bool,
}

/// Waits for `child` and returns its own resource usage (not that of any
/// other child). The `Child` handle must not be waited on afterwards.
pub fn reap(child: Child) -> io::Result<ChildUsage> {
    let pid = child.id() as i32;
    drop(child);
    let mut status = 0i32;
    // SAFETY: all-zero bytes are a valid `Rusage` (plain integers).
    let mut usage: Rusage = unsafe { std::mem::zeroed() };
    loop {
        // SAFETY: both pointers are to live, writable locals of the types
        // `wait4` expects.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Ok(ChildUsage {
        cpu_ms: ms(&usage.utime) + ms(&usage.stime),
        maxrss_kb: usage.maxrss_kb.max(0) as u64,
        success: status == 0,
    })
}

/// User plus system CPU milliseconds a live process has used so far
/// (`/proc/<pid>/stat`, clock-tick resolution).
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed stat"))
    };
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Ok((tick(14)? + tick(15)?) * 1e3 / hz)
}

/// Peak resident set in KiB of a live process (`VmHWM` in
/// `/proc/<pid>/status`).
pub fn peak_rss_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}
