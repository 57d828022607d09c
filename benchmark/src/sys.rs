//! What the kernel knows about this process and its host: resource usage
//! (`getrusage`), host steal time (`/proc/stat`), the CPU's identity and
//! the host's current speed; and the idle spinners that keep the CPUs from
//! halting during `serve-open`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux rusage and /proc; it supports 64-bit Linux only");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// Whole-process resource usage at one instant (all threads).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
    pub max_rss_kib: u64,
    pub vol_cs: u64,
    pub invol_cs: u64,
}

impl Usage {
    pub fn now() -> Usage {
        Usage::of(RUSAGE_SELF)
    }

    /// Resource usage of the calling thread only.
    pub fn thread() -> Usage {
        Usage::of(RUSAGE_THREAD)
    }

    fn of(who: i32) -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a valid, writable `struct rusage` for 64-bit
        // Linux (layout above, checked by the cfg guard at the top of this
        // module), and callers pass RUSAGE_SELF or RUSAGE_THREAD.
        let rc = unsafe { getrusage(who, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(&raw.ru_utime),
            sys_s: secs(&raw.ru_stime),
            minflt: raw.ru_minflt as u64,
            max_rss_kib: raw.ru_maxrss as u64,
            vol_cs: raw.ru_nvcsw as u64,
            invol_cs: raw.ru_nivcsw as u64,
        }
    }

    /// Usage accumulated from `earlier` to `self`, or `self` less a part
    /// of it (`max_rss_kib` is the process high-water mark, so it is kept,
    /// not subtracted).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            max_rss_kib: self.max_rss_kib,
            vol_cs: self.vol_cs.saturating_sub(earlier.vol_cs),
            invol_cs: self.invol_cs.saturating_sub(earlier.invol_cs),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Aggregate host CPU time from the first line of `/proc/stat`, in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8) // user nice system idle iowait irq softirq steal
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks { total: fields.iter().sum(), steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Process usage and host ticks over one measured interval.
pub struct Window {
    start: Instant,
    usage: Usage,
    host: HostTicks,
}

/// What a [`Window`] saw.
pub struct WindowStats {
    pub wall_s: f64,
    pub usage: Usage,
    pub steal_pct: f64,
}

impl Window {
    pub fn open() -> Window {
        Window { start: Instant::now(), usage: Usage::now(), host: HostTicks::now() }
    }

    pub fn close(&self) -> WindowStats {
        WindowStats {
            wall_s: self.start.elapsed().as_secs_f64(),
            usage: Usage::now().since(&self.usage),
            steal_pct: HostTicks::now().steal_pct_since(&self.host),
        }
    }
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(|r| r.trim_start_matches([' ', '\t', ':'])))
        .unwrap_or("unknown")
        .to_string()
}

pub fn has_avx2_fma() -> (bool, bool) {
    #[cfg(target_arch = "x86_64")]
    {
        (std::is_x86_feature_detected!("avx2"), std::is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (false, false)
    }
}

/// The allocator behind every `Vec` and tensor buffer: the Rust `System`
/// allocator, i.e. the C library's `malloc`.
pub fn allocator() -> &'static str {
    if cfg!(target_env = "gnu") {
        "system (glibc malloc)"
    } else {
        "system (libc malloc)"
    }
}

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_READ_WRITE: i32 = 0x1 | 0x2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
const PAGE: usize = 4096;

/// Maps `pages` fresh anonymous pages, writes one byte to each, and unmaps
/// them. The mapping bypasses `malloc`, whose thresholds a large freed
/// buffer would move for the rest of the run.
fn touch_fresh_pages(pages: usize) {
    let len = pages * PAGE;
    // SAFETY: an anonymous private mapping with no address hint; the result
    // is checked before use.
    let base =
        unsafe { mmap(std::ptr::null_mut(), len, PROT_READ_WRITE, MAP_PRIVATE_ANONYMOUS, -1, 0) };
    assert!(base as isize != -1, "mmap of {len} bytes failed");
    for i in 0..pages {
        // SAFETY: `base` maps `len` writable bytes and `i * PAGE < len`.
        unsafe { std::ptr::write_volatile(base.add(i * PAGE), 1) };
    }
    // SAFETY: `base` and `len` are exactly the mapping made above, and
    // nothing refers to it any more.
    let rc = unsafe { munmap(base, len) };
    assert_eq!(rc, 0, "munmap failed");
}

/// How fast the host runs this thread right now, for the context line: a
/// noisy run can then be explained by the host rather than the code.
#[derive(Clone, Copy, Debug)]
pub struct HostSpeed {
    /// A fixed chain of dependent integer multiply-adds, in ms: the core
    /// clock.
    pub alu_ms: f64,
    /// The kernel's cost of one fresh anonymous page (fault and zeroing),
    /// in µs.
    pub fault_us: f64,
}

impl HostSpeed {
    /// The median of five probes of each kind.
    pub fn probe() -> HostSpeed {
        const PAGES: usize = 2048;
        let mut alu = Vec::with_capacity(5);
        let mut fault = Vec::with_capacity(5);
        for _ in 0..5 {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..400_000 {
                x = std::hint::black_box(
                    x.wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407),
                );
            }
            std::hint::black_box(x);
            alu.push(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            touch_fresh_pages(PAGES);
            fault.push(t.elapsed().as_secs_f64() * 1e6 / PAGES as f64);
        }
        HostSpeed { alu_ms: crate::stats::median(&alu), fault_us: crate::stats::median(&fault) }
    }
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// One `SCHED_IDLE` spinner per CPU, for as long as the value lives.
///
/// A spinner runs only when no other thread wants its CPU, and the kernel
/// preempts it as soon as one does, so a CPU never goes idle. On a virtual
/// machine an idle CPU halts and waits for the hypervisor to run it again
/// when work arrives; those wake-ups cost from microseconds to several
/// milliseconds depending on the host's load, which made serve latencies
/// differ by 2× between identical runs. With the spinners, a wake-up is a
/// switch inside the guest. Their resource usage is published so that it
/// can be taken out of the process's.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    /// Spinners that switched to `SCHED_IDLE`; one that cannot exits
    /// rather than compete with the benchmark at normal priority.
    running: Arc<AtomicUsize>,
    /// Each spinner's own usage since it started, refreshed about every
    /// millisecond.
    usage: Vec<Arc<Mutex<Usage>>>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicUsize::new(0));
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let usage: Vec<Arc<Mutex<Usage>>> = (0..n).map(|_| Arc::default()).collect();
        let threads = usage
            .iter()
            .map(|usage| {
                let (stop, running, usage) =
                    (Arc::clone(&stop), Arc::clone(&running), Arc::clone(usage));
                std::thread::spawn(move || {
                    // The only priority SCHED_IDLE takes.
                    let param = 0i32;
                    // SAFETY: pid 0 is the calling thread, and `param` points
                    // to a live `struct sched_param` (a single int).
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    running.fetch_add(1, Ordering::Relaxed);
                    let start = Usage::thread();
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        while t.elapsed() < Duration::from_millis(1) {
                            std::hint::spin_loop();
                        }
                        let now = Usage::thread().since(&start);
                        *usage.lock().expect("spinner usage poisoned") = now;
                    }
                })
            })
            .collect();
        KeepAwake { stop, running, usage, threads }
    }

    /// How many spinners are running at `SCHED_IDLE`.
    pub fn spinners(&self) -> usize {
        self.running.load(Ordering::Relaxed)
    }

    /// The spinners' usage so far, summed (`max_rss_kib` is 0).
    pub fn usage(&self) -> Usage {
        self.usage.iter().fold(Usage::default(), |sum, u| {
            let u = *u.lock().expect("spinner usage poisoned");
            Usage {
                user_s: sum.user_s + u.user_s,
                sys_s: sum.sys_s + u.sys_s,
                minflt: sum.minflt + u.minflt,
                max_rss_kib: 0,
                vol_cs: sum.vol_cs + u.vol_cs,
                invol_cs: sum.invol_cs + u.invol_cs,
            }
        })
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
