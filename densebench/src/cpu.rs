//! Which CPU a round runs on (Linux `sched_getaffinity`/`sched_setaffinity`).
//!
//! A shared host slows each CPU in spells of seconds to a minute, and one
//! CPU's spells are mostly not the other's. An untraced run's round `r`
//! runs on the `r`-th CPU the process may use, in turn, so an op's
//! repeats sample every CPU, and its fastest repeat (see
//! `EndToEnd::report`) is rarely one taken in a slow spell. Set-up, and
//! the whole of a traced run, stay on the CPU the process started on: a
//! move would add its own cost to the cold set-up, per-layer figures are
//! medians within one run, and a move between CPUs would add its own
//! latency to the serve-mix tail.

use std::sync::OnceLock;

/// A `cpu_set_t` of 1,024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getcpu() -> i32;
}

/// The CPUs this process could run on when it started, ascending.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// The CPU round `r` runs on; `None` if the allowed set is unknown.
pub fn for_round(r: usize) -> Option<usize> {
    let cpus = allowed();
    (!cpus.is_empty()).then(|| cpus[r % cpus.len()])
}

/// Pins thread `tid` (0: the calling thread) to `cpu`. A refusal leaves
/// the thread where it was: the pinning steadies timings, it is not
/// needed for correct results.
pub fn pin(tid: u32, cpu: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t of the size passed.
    let _ = unsafe { sched_setaffinity(tid as i32, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
}

/// Keeps this process on the CPU it runs on now (its threads, and the
/// processes it starts, inherit that). Reads the allowed CPUs first.
pub fn stay() {
    allowed();
    // SAFETY: `sched_getcpu` takes no arguments and only reads the CPU id.
    let cpu = unsafe { sched_getcpu() };
    if let Ok(cpu) = usize::try_from(cpu) {
        pin_process(std::process::id(), cpu);
    }
}

/// Pins every thread of process `pid` to `cpu`.
pub fn pin_process(pid: u32, cpu: usize) {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return;
    };
    for task in tasks.flatten() {
        if let Some(tid) = task.file_name().to_str().and_then(|t| t.parse().ok()) {
            pin(tid, cpu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_take_the_allowed_cpus_in_turn() {
        let cpus = allowed().to_vec();
        assert!(!cpus.is_empty(), "this process may run somewhere");
        let turns: Vec<usize> = (0..2 * cpus.len()).filter_map(for_round).collect();
        assert_eq!(turns[..cpus.len()], cpus[..]);
        assert_eq!(turns[cpus.len()..], cpus[..]);
    }
}
