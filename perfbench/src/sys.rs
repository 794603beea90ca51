//! Host-clock probes: CPU clocks, resource usage and memory high-water
//! mark of this process, read through the C library the standard library
//! already links, and `/proc/self`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on x86_64/aarch64 Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by every thread of this process, live or exited.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Process-wide resource usage: CPU split and context switches, summed
/// over all threads including exited ones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub vcsw: u64,
    pub ivcsw: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage {
            ru_utime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            ru_stime: Timeval {
                tv_sec: 0,
                tv_usec: 0,
            },
            longs: [0; 14],
        };
        // SAFETY: `ru` is a valid, writable `struct rusage` (two timevals
        // and fourteen longs on 64-bit Linux) that outlives the call.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage failed");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.ru_utime),
            sys_s: secs(&ru.ru_stime),
            vcsw: ru.longs[12] as u64,
            ivcsw: ru.longs[13] as u64,
        }
    }

    /// Usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time of this process's live threads whose name starts with
/// `prefix`, in nanoseconds by thread id, from
/// `/proc/self/task/*/schedstat`. Threads that already exited are not
/// seen.
pub fn named_threads_cpu_ns(prefix: &str) -> Vec<(u32, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| {
            let tid = t.file_name().to_str()?.parse::<u32>().ok()?;
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse::<u64>().ok()?))
        })
        .collect()
}

/// The highest CPU time seen per thread over several samples of
/// [`named_threads_cpu_ns`], so threads that exit between samples still
/// count with their last reading.
#[derive(Debug, Clone, Default)]
pub struct SeenCpu(Arc<Mutex<BTreeMap<u32, u64>>>);

impl SeenCpu {
    pub fn sample(&self, prefix: &str) {
        let mut seen = self.0.lock().expect("thread CPU samples poisoned");
        for (tid, ns) in named_threads_cpu_ns(prefix) {
            let e = seen.entry(tid).or_insert(0);
            *e = (*e).max(ns);
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.0
            .lock()
            .expect("thread CPU samples poisoned")
            .values()
            .sum()
    }
}

/// Accumulates the CPU time of every thread that registered with
/// [`ExitCpu::charge_at_exit`], read at each thread's exit (after the
/// last code the thread runs, whoever wrote it).
#[derive(Debug, Clone, Default)]
pub struct ExitCpu(Arc<AtomicU64>);

struct ExitProbe(Arc<AtomicU64>);

impl Drop for ExitProbe {
    fn drop(&mut self) {
        self.0.fetch_add(thread_cpu_ns(), Ordering::Relaxed);
    }
}

thread_local! {
    static EXIT_PROBE: RefCell<Option<ExitProbe>> = const { RefCell::new(None) };
}

impl ExitCpu {
    /// Charge the calling thread's lifetime CPU to this sink when the
    /// thread exits.
    pub fn charge_at_exit(&self) {
        EXIT_PROBE.with(|p| *p.borrow_mut() = Some(ExitProbe(self.0.clone())));
    }

    /// CPU seconds charged by threads that have exited so far.
    pub fn total_s(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Wall, process-CPU, driver-thread-CPU and resource-usage readings
/// taken together, so an interval can be measured on every clock at once.
#[derive(Clone, Copy)]
pub struct Clocks {
    pub wall: Instant,
    pub process_cpu_ns: u64,
    pub thread_cpu_ns: u64,
    pub usage: Usage,
}

impl Clocks {
    pub fn now() -> Clocks {
        Clocks {
            wall: Instant::now(),
            process_cpu_ns: process_cpu_ns(),
            thread_cpu_ns: thread_cpu_ns(),
            usage: Usage::now(),
        }
    }
}

/// The host-clock cost of one interval, as seen by [`Clocks`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interval {
    pub wall_s: f64,
    pub process_cpu_s: f64,
    pub thread_cpu_s: f64,
    pub usage: Usage,
}

impl Interval {
    pub fn between(a: &Clocks, b: &Clocks) -> Interval {
        Interval {
            wall_s: (b.wall - a.wall).as_secs_f64(),
            process_cpu_s: (b.process_cpu_ns - a.process_cpu_ns) as f64 * 1e-9,
            thread_cpu_s: (b.thread_cpu_ns - a.thread_cpu_ns) as f64 * 1e-9,
            usage: b.usage.since(&a.usage),
        }
    }

    /// Component-wise sum (for workloads made of several simulations).
    pub fn add(&mut self, o: &Interval) {
        self.wall_s += o.wall_s;
        self.process_cpu_s += o.process_cpu_s;
        self.thread_cpu_s += o.thread_cpu_s;
        self.usage.user_s += o.usage.user_s;
        self.usage.sys_s += o.usage.sys_s;
        self.usage.vcsw += o.usage.vcsw;
        self.usage.ivcsw += o.usage.ivcsw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let a = Clocks::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = Clocks::now();
        let iv = Interval::between(&a, &b);
        assert!(iv.wall_s > 0.0);
        assert!(iv.thread_cpu_s > 0.0);
        assert!(iv.process_cpu_s >= iv.thread_cpu_s * 0.5);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn exit_cpu_charges_threads_as_they_exit() {
        let sink = ExitCpu::default();
        let s2 = sink.clone();
        std::thread::spawn(move || {
            s2.charge_at_exit();
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x ^ i);
            }
        })
        .join()
        .unwrap();
        assert!(sink.total_s() > 0.0);
    }
}
