//! Host facts the benchmark records and controls: CPU affinity, address-space
//! randomization, the file-size limit, the process CPU-time clock and
//! `/proc/self/status` fields.
//!
//! Direct `extern "C"` declarations, like `softmmu::sys` (the build has no
//! registry access, so no `libc` crate). Linux only; elsewhere affinity is
//! reported as unpinned and CPU time as zero, which the CPU-time metric's
//! "never 0" guard then refuses.

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` is 1024 bits on glibc and musl.
    const CPU_SET_WORDS: usize = 1024 / 64;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const ADDR_NO_RANDOMIZE: u64 = 0x004_0000;
    const PERSONALITY_QUERY: u64 = 0xffff_ffff;
    const RLIMIT_FSIZE: i32 = 1;
    const SIGXFSZ: i32 = 25;
    const SIG_IGN: usize = 1;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `struct rlimit` on 64-bit Linux; `u64::MAX` is `RLIM_INFINITY`.
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        fn personality(persona: u64) -> i32;
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Largest file this process may create, in bytes (`u64::MAX` for no
    /// limit), after raising the soft limit to the hard one.
    ///
    /// Also ignores `SIGXFSZ`, so a write or `ftruncate` past the limit fails
    /// with `EFBIG` instead of killing the run: softmmu sizes its memfd with
    /// `ftruncate`, and `GmacConfig::default()`'s 64 GiB reservation died
    /// that way (exit 153) under a host that caps file sizes.
    pub fn file_size_limit() -> u64 {
        // SAFETY: ignoring a signal has no preconditions.
        unsafe { signal(SIGXFSZ, SIG_IGN) };
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a valid, writable rlimit for the call's duration.
        if unsafe { getrlimit(RLIMIT_FSIZE, &mut lim) } != 0 {
            return u64::MAX;
        }
        if lim.cur < lim.max {
            let raised = Rlimit {
                cur: lim.max,
                max: lim.max,
            };
            // SAFETY: the kernel only reads `raised`.
            if unsafe { setrlimit(RLIMIT_FSIZE, &raised) } == 0 {
                lim.cur = lim.max;
            }
        }
        lim.cur
    }

    /// Whether this process runs with address-space randomization off.
    pub fn aslr_off() -> bool {
        // SAFETY: the query value changes nothing and has no preconditions.
        let now = unsafe { personality(PERSONALITY_QUERY) };
        now >= 0 && now as u64 & ADDR_NO_RANDOMIZE != 0
    }

    /// Turns address-space randomization off for this process image's
    /// successors and re-executes the program, so stack, heap and mappings
    /// land at the same addresses on every run. Returns (doing nothing) when
    /// it is already off, or when the host refuses the personality change or
    /// the exec — the run then proceeds randomized and says so in its host
    /// record.
    pub fn rerun_without_aslr() {
        use std::os::unix::process::CommandExt;
        // SAFETY: as in `aslr_off`.
        let now = unsafe { personality(PERSONALITY_QUERY) };
        if now < 0 || now as u64 & ADDR_NO_RANDOMIZE != 0 {
            return;
        }
        // SAFETY: sets a flag that only affects future execs of this process.
        if unsafe { personality(now as u64 | ADDR_NO_RANDOMIZE) } < 0 {
            return;
        }
        let Ok(exe) = std::env::current_exe() else {
            return;
        };
        // `exec` only returns on failure; carrying on randomized is the
        // fallback, so the error is dropped.
        let _ = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .exec();
    }

    /// CPUs the calling thread may run on, ascending.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: the buffer is exactly `size` bytes and outlives the call;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..CPU_SET_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to `cpu`. Threads spawned afterwards
    /// inherit the mask.
    pub fn pin_current_thread(cpu: usize) -> bool {
        let mut mask = [0u64; CPU_SET_WORDS];
        if cpu >= CPU_SET_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as in `allowed_cpus`; the kernel only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// User + system CPU time of every thread of this process, in ns.
    pub fn process_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call's duration.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
    pub fn process_cpu_ns() -> u64 {
        0
    }
    pub fn aslr_off() -> bool {
        false
    }
    pub fn rerun_without_aslr() {}
    pub fn file_size_limit() -> u64 {
        u64::MAX
    }
}

pub use imp::{
    allowed_cpus, aslr_off, file_size_limit, pin_current_thread, process_cpu_ns, rerun_without_aslr,
};

/// One `Key:\tvalue` field of `/proc/self/status`, trimmed.
pub fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k == key).then(|| v.trim().to_string())
    })
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let field = proc_status("VmHWM")?;
    let kib: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kib / 1024.0)
}
