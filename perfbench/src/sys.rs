//! Linux-only plumbing: a `timerfd` so the bench thread can block in
//! `Poller::wait` until a sub-millisecond deadline (epoll's own timeout
//! has millisecond granularity), and `/proc` readers for thread CPU time
//! and peak RSS.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct ITimerSpec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const ITimerSpec, old: *mut ITimerSpec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2_000_000;

/// A one-shot monotonic timer whose expiry makes its fd readable.
pub struct TimerFd {
    file: File,
}

impl TimerFd {
    pub fn new() -> io::Result<TimerFd> {
        // SAFETY: plain syscall with constant arguments; a negative return
        // is an error and no fd is created.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by timerfd_create and is owned by
        // nothing else; the File closes it exactly once on drop.
        let file = unsafe { File::from_raw_fd(fd) };
        Ok(TimerFd { file })
    }

    /// Fire once after `after` (clamped to at least 1 µs: a zero value
    /// would disarm the timer instead).
    pub fn arm(&self, after: Duration) -> io::Result<()> {
        let after = after.max(Duration::from_micros(1));
        let spec = ITimerSpec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: the fd is a live timerfd owned by `self.file`, `spec` is
        // a valid itimerspec for the call's duration, and a null old-value
        // pointer is allowed.
        let rc = unsafe { timerfd_settime(self.file.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Consume a pending expiry so the fd stops reporting readable.
    pub fn clear(&mut self) {
        let mut buf = [0u8; 8];
        let _ = self.file.read(&mut buf);
    }
}

impl AsRawFd for TimerFd {
    fn as_raw_fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }
}

/// Nanoseconds `tid` (a thread of this process) has spent on a CPU, from
/// `/proc/self/task/<tid>/schedstat`.
pub fn thread_cpu_ns(tid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The calling thread's id.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

/// The id of this process's thread named `name` (from each task's `stat`
/// comm field), if one is running.
pub fn find_thread(name: &str) -> Option<u32> {
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
        let comm = stat
            .split_once('(')
            .and_then(|(_, rest)| rest.rsplit_once(')'))
            .map(|(c, _)| c);
        if comm == Some(name) {
            return entry.file_name().to_str()?.parse().ok();
        }
    }
    None
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Machine-wide (all-CPU ticks, steal ticks) from `/proc/stat`: time the
/// hypervisor ran something else while this VM's CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let v: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    (v.iter().take(8).sum(), v.get(7).copied().unwrap_or(0))
}
