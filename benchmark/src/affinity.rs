//! Confining the harness process to one CPU.
//!
//! The two overhead workloads hand a task between stage threads every
//! ~60 µs. The kernel keeps such tightly coupled threads on one CPU at
//! some times and spreads them over two at others, for minutes at a time,
//! and `wall_s` follows: unconfined ten-run sets of `rt-overhead-tiny` on
//! 2 stage threads spread 2–15 % of the median and sat up to 20 % apart
//! (on 4 stage threads, 10–33 %). What those workloads are there to
//! measure is the runtime's per-task cost, which is CPU work and
//! hand-offs, so they run on one CPU: the wall is then the sum of both,
//! and ten-run sets spread 1–4 %.

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the first CPU it is allowed on. Returns that CPU's number.
#[cfg(target_os = "linux")]
pub fn confine_to_one_cpu() -> Result<usize, String> {
    let mut allowed: sys::CpuSet = [0; 16];
    let size = std::mem::size_of::<sys::CpuSet>();
    // SAFETY: `allowed` is a live, writable `cpu_set_t` of `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: sys::CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t` of `size` bytes.
    if unsafe { sys::sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn confine_to_one_cpu() -> Result<usize, String> {
    Err("CPU affinity is only implemented for Linux".into())
}
